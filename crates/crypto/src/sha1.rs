//! SHA-1 (FIPS 180-1), the paper's default collision-resistant hash.
//!
//! SHA-1 is cryptographically broken for collision resistance today; it is
//! implemented here for fidelity to the paper (§2.2, §9.2.1) and remains the
//! default partition hash so measured bandwidth ratios are comparable.
//! [`crate::sha256`] is the recommended modern choice.

use crate::md::Md;
use crate::{HashValue, Hasher};

/// The initial hash value (FIPS 180-4 §5.3.1).
const IV: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// Incremental SHA-1 state.
///
/// `Clone` snapshots the midstate; [`crate::hmac::HmacKey`] relies on this
/// to resume from pre-absorbed pad blocks without recompressing them.
#[derive(Clone)]
pub struct Sha1(Md<5>);

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a fresh SHA-1 state, on the SHA extensions where the CPU
    /// has them.
    pub fn new() -> Self {
        Sha1(Md::new(IV))
    }

    /// Digest of the concatenated `parts` on the portable kernel whatever
    /// the CPU, for the tests that hold the SHA-extension kernel to it.
    #[cfg(test)]
    pub(crate) fn portable_digest(parts: &[&[u8]]) -> HashValue {
        let mut md = Md::new(IV);
        for part in parts {
            md.absorb(part, Self::portable_compress);
        }
        md.finish(Self::portable_compress)
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> HashValue {
        let mut h = Sha1::new();
        h.absorb(data);
        h.finish()
    }

    /// The digests of two messages given as parts, in one lockstep
    /// compression when they are short and pad alike.
    pub(crate) fn digest_pair(messages: [&[&[u8]]; 2]) -> [HashValue; 2] {
        Md::digest_pair(IV, messages, Self::compress_blocks, Self::compress_pair)
    }

    pub(crate) fn absorb(&mut self, data: &[u8]) {
        self.0.absorb(data, Self::compress_blocks);
    }

    pub(crate) fn finish(self) -> HashValue {
        self.0.finish(Self::compress_blocks)
    }

    /// Compresses every 64-byte block of `data`, on the SHA extensions where
    /// the CPU has them.
    fn compress_blocks(state: &mut [u32; 5], data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if crate::x86::has_sha() {
            // SAFETY: `has_sha` found the features `sha1_compress` is compiled for.
            return unsafe { crate::x86::sha1_compress([state], [data]) };
        }
        Self::portable_compress(state, data);
    }

    /// Compresses two equally long runs of blocks into two states, their
    /// rounds interleaved on the SHA extensions where the CPU has them.
    fn compress_pair(states: [&mut [u32; 5]; 2], data: [&[u8]; 2]) {
        #[cfg(target_arch = "x86_64")]
        if crate::x86::has_sha() {
            // SAFETY: `has_sha` found the features `sha1_compress` is compiled for.
            return unsafe { crate::x86::sha1_compress(states, data) };
        }
        for (state, data) in states.into_iter().zip(data) {
            Self::portable_compress(state, data);
        }
    }

    /// Compresses every 64-byte block of `data` (whose length must be a
    /// multiple of 64), keeping the chaining variables in locals across
    /// blocks so multi-block messages don't round-trip through memory
    /// between compressions. The fallback kernel, and the oracle the
    /// SHA-extension kernel is tested against.
    fn portable_compress(state: &mut [u32; 5], data: &[u8]) {
        debug_assert_eq!(data.len() % 64, 0);
        let [mut h0, mut h1, mut h2, mut h3, mut h4] = *state;
        for block in data.chunks_exact(64) {
            let mut w = [0u32; 80];
            for (i, chunk) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
            }
            for i in 16..80 {
                w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
            }
            let (mut a, mut b, mut c, mut d, mut e) = (h0, h1, h2, h3, h4);
            for (i, &wi) in w.iter().enumerate() {
                let (f, k) = match i {
                    0..=19 => ((b & c) | (!b & d), 0x5A827999),
                    20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                    40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                    _ => (b ^ c ^ d, 0xCA62C1D6),
                };
                let tmp = a
                    .rotate_left(5)
                    .wrapping_add(f)
                    .wrapping_add(e)
                    .wrapping_add(k)
                    .wrapping_add(wi);
                e = d;
                d = c;
                c = b.rotate_left(30);
                b = a;
                a = tmp;
            }
            h0 = h0.wrapping_add(a);
            h1 = h1.wrapping_add(b);
            h2 = h2.wrapping_add(c);
            h3 = h3.wrapping_add(d);
            h4 = h4.wrapping_add(e);
        }
        *state = [h0, h1, h2, h3, h4];
    }
}

impl Hasher for Sha1 {
    fn update(&mut self, data: &[u8]) {
        self.absorb(data);
    }

    fn finalize(self: Box<Self>) -> HashValue {
        (*self).finish()
    }

    fn digest_len(&self) -> usize {
        20
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(h: &HashValue) -> String {
        h.as_bytes().iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&Sha1::digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&Sha1::digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        assert_eq!(
            hex(&Sha1::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha1::digest(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        // Feed in irregular pieces crossing block boundaries.
        for split in [1usize, 7, 63, 64, 65, 130] {
            let mut h = Sha1::new();
            for piece in data.chunks(split) {
                h.absorb(piece);
            }
            assert_eq!(h.finish(), Sha1::digest(&data), "split {split}");
        }
    }

    #[test]
    fn trait_object_digest() {
        let mut h: Box<dyn Hasher> = Box::new(Sha1::new());
        assert_eq!(h.digest_len(), 20);
        h.update(b"abc");
        assert_eq!(
            hex(&h.finalize()),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }
}
