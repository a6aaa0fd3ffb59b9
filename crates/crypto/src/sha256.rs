//! SHA-256 (FIPS 180-4), the recommended modern partition hash.

use crate::md::Md;
use crate::{HashValue, Hasher};

/// The initial hash value (FIPS 180-4 §5.3.3).
const IV: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 state.
///
/// `Clone` snapshots the midstate; [`crate::hmac::HmacKey`] relies on this
/// to resume from pre-absorbed pad blocks without recompressing them.
#[derive(Clone)]
pub struct Sha256(Md<8>);

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh SHA-256 state, on the SHA extensions where the CPU
    /// has them.
    pub fn new() -> Self {
        Sha256(Md::new(IV))
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
        let mut h = Sha256::new();
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
    fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if crate::x86::has_sha() {
            // SAFETY: `has_sha` found the features `sha256_compress` is compiled for.
            return unsafe { crate::x86::sha256_compress([state], [data]) };
        }
        Self::portable_compress(state, data);
    }

    /// Compresses two equally long runs of blocks into two states, their
    /// rounds interleaved on the SHA extensions where the CPU has them.
    fn compress_pair(states: [&mut [u32; 8]; 2], data: [&[u8]; 2]) {
        #[cfg(target_arch = "x86_64")]
        if crate::x86::has_sha() {
            // SAFETY: `has_sha` found the features `sha256_compress` is compiled for.
            return unsafe { crate::x86::sha256_compress(states, data) };
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
    fn portable_compress(state: &mut [u32; 8], data: &[u8]) {
        debug_assert_eq!(data.len() % 64, 0);
        let mut s = *state;
        for block in data.chunks_exact(64) {
            let mut w = [0u32; 64];
            for (i, chunk) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = s;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let t1 = h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let t2 = s0.wrapping_add(maj);
                h = g;
                g = f;
                f = e;
                e = d.wrapping_add(t1);
                d = c;
                c = b;
                b = a;
                a = t1.wrapping_add(t2);
            }
            for (sv, v) in s.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                *sv = sv.wrapping_add(v);
            }
        }
        *state = s;
    }
}

impl Hasher for Sha256 {
    fn update(&mut self, data: &[u8]) {
        self.absorb(data);
    }

    fn finalize(self: Box<Self>) -> HashValue {
        (*self).finish()
    }

    fn digest_len(&self) -> usize {
        32
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
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..777u32).map(|i| (i * 31) as u8).collect();
        for split in [1usize, 13, 64, 100] {
            let mut h = Sha256::new();
            for piece in data.chunks(split) {
                h.absorb(piece);
            }
            assert_eq!(h.finish(), Sha256::digest(&data), "split {split}");
        }
    }
}
