//! The x86-64 kernels: SHA-1 and SHA-256 compression on the SHA extensions,
//! and AES-CBC on AES-NI.
//!
//! Each kernel is a `#[target_feature]` function, so calling it is `unsafe`
//! and sound only on a CPU with those features. Nothing calls one without
//! proof: the hashes call theirs only when [`has_sha`] says so, and an
//! [`AesNi`] exists only if [`AesNi::new`] saw the feature, so a keyed
//! cipher carries the choice and never probes per call. The portable
//! kernels in `sha1`, `sha256` and `aes` are the fallback elsewhere, and
//! the oracle these are tested against; the digests and ciphertexts are
//! the same bytes.

use std::arch::x86_64::*;

use crate::aes::Aes;

/// True when this CPU has the SHA extensions and the SSSE3/SSE4.1 shuffles
/// the SHA kernels pair with them. The standard library probes once per
/// process and caches the answer, so this is three bit tests.
pub(crate) fn has_sha() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Loads 16 bytes, unaligned.
#[inline(always)]
fn load(bytes: &[u8]) -> __m128i {
    let bytes: &[u8; 16] = bytes[..16].try_into().expect("16 bytes");
    // SAFETY: `bytes` is 16 readable bytes, and `loadu` needs no alignment.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// Stores 16 bytes, unaligned.
#[inline(always)]
fn store(value: __m128i, bytes: &mut [u8]) {
    let bytes: &mut [u8; 16] = (&mut bytes[..16]).try_into().expect("16 bytes");
    // SAFETY: `bytes` is 16 writable bytes, and `storeu` needs no alignment.
    unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), value) }
}

/// The SHA-256 round constants four to a vector, K[4i + j] in lane j.
// SAFETY: `__m128i` is sixteen plain bytes, any bit pattern valid, and
// `[u32; 64]` is 256 of them in lane order on this little-endian target.
const SHA256_K: [__m128i; 16] = unsafe { std::mem::transmute(crate::sha256::K) };

/// A block's four message vectors, each shuffled by `order`.
#[inline]
#[target_feature(enable = "ssse3")]
fn message(block: &[u8], order: __m128i) -> [__m128i; 4] {
    [
        _mm_shuffle_epi8(load(block), order),
        _mm_shuffle_epi8(load(&block[16..]), order),
        _mm_shuffle_epi8(load(&block[32..]), order),
        _mm_shuffle_epi8(load(&block[48..]), order),
    ]
}

/// SHA-256 compression of every 64-byte block of `data` (FIPS 180-4
/// §6.2.2), two rounds per `sha256rnds2`, the schedule on
/// `sha256msg1`/`sha256msg2`.
///
/// # Safety
///
/// The CPU must have `sha`, `ssse3` and `sse4.1` ([`has_sha`]).
#[target_feature(enable = "sha,ssse3,sse4.1")]
pub(crate) unsafe fn sha256_compress(state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % 64, 0);
    // Message words are big-endian: swap the bytes of each lane.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let s = state.map(|w| w as i32);
    // `sha256rnds2` keeps the state as (A, B, E, F) and (C, D, G, H), first
    // named in the top lane.
    let mut abef = _mm_set_epi32(s[0], s[1], s[4], s[5]);
    let mut cdgh = _mm_set_epi32(s[2], s[3], s[6], s[7]);
    for block in data.chunks_exact(64) {
        let (abef0, cdgh0) = (abef, cdgh);
        // The sliding window W[4i..4i + 16], four words a vector.
        let mut w = message(block, bswap);
        // (The unrolled loop's last four schedule steps are dead code.)
        for k in SHA256_K {
            let wk = _mm_add_epi32(w[0], k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            let w4 = _mm_sha256msg1_epu32(w[0], w[1]);
            let w4 = _mm_add_epi32(w4, _mm_alignr_epi8(w[3], w[2], 4));
            w = [w[1], w[2], w[3], _mm_sha256msg2_epu32(w4, w[3])];
        }
        abef = _mm_add_epi32(abef, abef0);
        cdgh = _mm_add_epi32(cdgh, cdgh0);
    }
    *state = [
        _mm_extract_epi32(abef, 3),
        _mm_extract_epi32(abef, 2),
        _mm_extract_epi32(cdgh, 3),
        _mm_extract_epi32(cdgh, 2),
        _mm_extract_epi32(abef, 1),
        _mm_extract_epi32(abef, 0),
        _mm_extract_epi32(cdgh, 1),
        _mm_extract_epi32(cdgh, 0),
    ]
    .map(|w| w as u32);
}

/// SHA-1 compression of every 64-byte block of `data` (FIPS 180-4
/// §6.1.2), four rounds per `sha1rnds4`, E carried by `sha1nexte`, the
/// schedule on `sha1msg1`/`sha1msg2`.
///
/// # Safety
///
/// The CPU must have `sha`, `ssse3` and `sse4.1` ([`has_sha`]).
#[target_feature(enable = "sha,ssse3,sse4.1")]
pub(crate) unsafe fn sha1_compress(state: &mut [u32; 5], data: &[u8]) {
    debug_assert_eq!(data.len() % 64, 0);
    // Reversing all sixteen bytes puts the first big-endian word in the
    // top lane, where `sha1rnds4` wants A and W[0].
    let reverse = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    let s = state.map(|w| w as i32);
    let mut abcd = _mm_set_epi32(s[0], s[1], s[2], s[3]);
    let mut e = _mm_set_epi32(s[4], 0, 0, 0);
    for block in data.chunks_exact(64) {
        let (abcd0, e0) = (abcd, e);
        let mut w = message(block, reverse);
        let mut ew = _mm_add_epi32(e, w[0]);
        // ABCD before the latest four rounds: its A, rotated, is the next E.
        let mut before = abcd;
        // Twenty rounds under logic function `f`, four at a time, each
        // four moving W[4i + 16..] into the window and setting up the next
        // E + W. (The unrolled loop's last schedule steps are dead code.)
        macro_rules! twenty {
            ($f:literal) => {
                for _ in 0..5 {
                    before = abcd;
                    abcd = _mm_sha1rnds4_epu32(abcd, ew, $f);
                    let w4 = _mm_xor_si128(_mm_sha1msg1_epu32(w[0], w[1]), w[2]);
                    w = [w[1], w[2], w[3], _mm_sha1msg2_epu32(w4, w[3])];
                    ew = _mm_sha1nexte_epu32(before, w[0]);
                }
            };
        }
        twenty!(0);
        twenty!(1);
        twenty!(2);
        twenty!(3);
        abcd = _mm_add_epi32(abcd, abcd0);
        e = _mm_sha1nexte_epu32(before, e0);
    }
    *state = [
        _mm_extract_epi32(abcd, 3),
        _mm_extract_epi32(abcd, 2),
        _mm_extract_epi32(abcd, 1),
        _mm_extract_epi32(abcd, 0),
        _mm_extract_epi32(e, 3),
    ]
    .map(|w| w as u32);
}

/// How many CBC blocks [`AesNi::decrypt_cbc`] deciphers at once: CBC
/// decryption's blocks are independent, so four `aesdec` chains overlap in
/// the pipeline.
const LANES: usize = 4;

/// An AES key schedule in AES-NI form: the portable schedule's round keys
/// (the decryption side already FIPS 197's equivalent inverse cipher,
/// which is what `aesdec` runs) in the instructions' byte order.
///
/// Exists only on a CPU with AES-NI: [`AesNi::new`] is the one constructor
/// and checks, which is what makes its safe methods sound.
pub(crate) struct AesNi {
    enc: [__m128i; 15],
    dec: [__m128i; 15],
    rounds: usize,
}

impl AesNi {
    /// Converts `aes`'s schedule, or `None` when this CPU lacks AES-NI.
    pub(crate) fn new(aes: &Aes) -> Option<Self> {
        if !is_x86_feature_detected!("aes") {
            return None;
        }
        let (enc, dec) = aes.round_keys();
        // Round-key column word i is state bytes 4i..4i + 4, big-endian.
        let convert = |keys: &[[u32; 4]]| {
            std::array::from_fn(|r| {
                let words = keys.get(r).copied().unwrap_or_default();
                load(&words.map(u32::to_be_bytes).concat())
            })
        };
        Some(AesNi {
            enc: convert(enc),
            dec: convert(dec),
            rounds: enc.len() - 1,
        })
    }

    /// CBC-encrypts `buf`, a whole number of 16-byte blocks, in place.
    pub(crate) fn encrypt_cbc(&self, iv: &[u8], buf: &mut [u8]) {
        // SAFETY: an `AesNi` exists only where `new` found AES-NI.
        unsafe { encrypt_cbc(&self.enc[..=self.rounds], iv, buf) }
    }

    /// CBC-decrypts `buf`, a whole number of 16-byte blocks, in place.
    pub(crate) fn decrypt_cbc(&self, iv: &[u8], buf: &mut [u8]) {
        // SAFETY: an `AesNi` exists only where `new` found AES-NI.
        unsafe { decrypt_cbc(&self.dec[..=self.rounds], iv, buf) }
    }
}

/// CBC-encrypts `buf` in place under `keys`, one block after another.
///
/// # Safety
///
/// The CPU must have `aes` (an [`AesNi`] exists).
#[target_feature(enable = "aes")]
unsafe fn encrypt_cbc(keys: &[__m128i], iv: &[u8], buf: &mut [u8]) {
    let (first, middle, last) = (keys[0], &keys[1..keys.len() - 1], keys[keys.len() - 1]);
    let mut prev = load(iv);
    for block in buf.chunks_exact_mut(16) {
        let mut s = _mm_xor_si128(_mm_xor_si128(load(block), prev), first);
        for k in middle {
            s = _mm_aesenc_si128(s, *k);
        }
        prev = _mm_aesenclast_si128(s, last);
        store(prev, block);
    }
}

/// CBC-decrypts `buf` in place under `keys`, [`LANES`] blocks at a time.
///
/// # Safety
///
/// The CPU must have `aes` (an [`AesNi`] exists).
#[target_feature(enable = "aes")]
unsafe fn decrypt_cbc(keys: &[__m128i], iv: &[u8], buf: &mut [u8]) {
    let (first, middle, last) = (keys[0], &keys[1..keys.len() - 1], keys[keys.len() - 1]);
    let mut prev = load(iv);
    let mut groups = buf.chunks_exact_mut(16 * LANES);
    for group in &mut groups {
        let c: [__m128i; LANES] = std::array::from_fn(|i| load(&group[16 * i..]));
        let mut s = c;
        for x in &mut s {
            *x = _mm_xor_si128(*x, first);
        }
        for k in middle {
            for x in &mut s {
                *x = _mm_aesdec_si128(*x, *k);
            }
        }
        for (i, x) in s.into_iter().enumerate() {
            let chain = if i == 0 { prev } else { c[i - 1] };
            let plain = _mm_xor_si128(_mm_aesdeclast_si128(x, last), chain);
            store(plain, &mut group[16 * i..]);
        }
        prev = c[LANES - 1];
    }
    for block in groups.into_remainder().chunks_exact_mut(16) {
        let c = load(block);
        let mut s = _mm_xor_si128(c, first);
        for k in middle {
            s = _mm_aesdec_si128(s, *k);
        }
        store(_mm_xor_si128(_mm_aesdeclast_si128(s, last), prev), block);
        prev = c;
    }
}

/// The x86 kernels held to the portable ones they replace, both run on this
/// machine. The published vectors and `cbc_golden.txt` pin the public,
/// dispatching entry points; these pin the two paths to each other.
#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::hmac::HmacKey;
    use crate::sha1::Sha1;
    use crate::sha256::Sha256;
    use crate::{HashKind, HashValue};

    /// Whether the CPU has `feature`'s kernel; prints why a test is skipped
    /// when it does not.
    fn present(feature: &str, has: bool) -> bool {
        if !has {
            eprintln!("note: this CPU lacks {feature}; skipping its oracle test");
        }
        has
    }

    /// Digest of the concatenated `parts`, each absorbed separately, on the
    /// portable kernel (`portable`) or on whatever `HashKind` dispatches to.
    fn digest(kind: HashKind, parts: &[&[u8]], portable: bool) -> HashValue {
        match (kind, portable) {
            (HashKind::Sha1, true) => Sha1::portable_digest(parts),
            (HashKind::Sha256, true) => Sha256::portable_digest(parts),
            _ => {
                let mut h = kind.inline_hasher();
                parts.iter().for_each(|p| h.update(p));
                h.finalize()
            }
        }
    }

    /// `data` cut at `cuts` (taken modulo its length, in any order).
    fn split<'a>(data: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
        let mut at: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        at.sort_unstable();
        let mut parts = Vec::new();
        let mut from = 0;
        for to in at.into_iter().chain([data.len()]) {
            parts.push(&data[from..to]);
            from = to;
        }
        parts
    }

    /// RFC 2104 over the portable kernel, written out.
    fn portable_hmac(kind: HashKind, key: &[u8], msg: &[u8]) -> HashValue {
        let mut k = [0u8; 64];
        if key.len() > 64 {
            let d = digest(kind, &[key], true);
            k[..d.len()].copy_from_slice(d.as_bytes());
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let ipad = k.map(|b| b ^ 0x36);
        let opad = k.map(|b| b ^ 0x5c);
        let inner = digest(kind, &[&ipad, msg], true);
        digest(kind, &[&opad, inner.as_bytes()], true)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// SHA-1 and SHA-256 on the SHA extensions equal the portable
        /// kernels for every length up to 9000 bytes, however the message
        /// is cut into `absorb` calls on either side, through `hash_parts`,
        /// and under HMAC.
        #[test]
        fn sha_kernels_match_portable(
            data in proptest::collection::vec(any::<u8>(), 0..=9000),
            cuts in proptest::collection::vec(any::<usize>(), 0..8),
            other_cuts in proptest::collection::vec(any::<usize>(), 0..8),
            key in proptest::collection::vec(any::<u8>(), 0..100),
        ) {
            if !present("the SHA extensions", has_sha()) {
                return Ok(());
            }
            let parts = split(&data, &cuts);
            let other = split(&data, &other_cuts);
            for kind in [HashKind::Sha1, HashKind::Sha256] {
                let expected = digest(kind, &other, true);
                prop_assert_eq!(digest(kind, &[&data], true), expected);
                prop_assert_eq!(digest(kind, &parts, false), expected);
                prop_assert_eq!(kind.hash(&data), expected);
                prop_assert_eq!(kind.hash_parts(&parts), expected);
                prop_assert_eq!(
                    HmacKey::new(kind, &key).mac_parts(&parts),
                    portable_hmac(kind, &key, &data)
                );
            }
        }

        /// AES-128 and AES-256 single blocks on AES-NI equal the table
        /// kernel, both directions, for any key and block.
        #[test]
        fn aes_ni_blocks_match_portable(
            key in proptest::collection::vec(any::<u8>(), 32),
            block in proptest::collection::vec(any::<u8>(), 16),
        ) {
            let k128: [u8; 16] = key[..16].try_into().unwrap();
            let k256: [u8; 32] = key[..].try_into().unwrap();
            for aes in [Aes::new_128(&k128), Aes::new_256(&k256)] {
                let Some(ni) = AesNi::new(&aes) else {
                    present("AES-NI", false);
                    return Ok(());
                };
                let x = u128::from_be_bytes(block[..].try_into().unwrap());
                // CBC of one block under a zero IV is the block cipher.
                let mut buf = block.clone();
                ni.encrypt_cbc(&[0; 16], &mut buf);
                prop_assert_eq!(u128::from_be_bytes(buf[..].try_into().unwrap()), aes.encrypt_block(x));
                let mut buf = block.clone();
                ni.decrypt_cbc(&[0; 16], &mut buf);
                prop_assert_eq!(u128::from_be_bytes(buf[..].try_into().unwrap()), aes.decrypt_block(x));
            }
        }
    }
}
