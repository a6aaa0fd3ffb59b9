//! The x86-64 kernels: SHA-1 and SHA-256 compression on the SHA extensions
//! (of one message, or of two in lockstep), AES-CBC on AES-NI, and bitsliced DES/3DES on AVX-512 (CBC decryption,
//! and passes of 256 independent blocks for encryption lanes).
//!
//! Each kernel is a `#[target_feature]` function, so calling it is `unsafe`
//! and sound only on a CPU with those features. Nothing calls one without
//! proof: the hashes call theirs only when [`has_sha`] says so, and an
//! [`AesNi`] or a [`BitslicedDes`] exists only if its `new` saw the
//! features, so a keyed cipher carries the choice and never probes per
//! call. The portable kernels in `sha1`, `sha256`, `aes` and `des` are the
//! fallback elsewhere, and the oracle these are tested against; the
//! digests, ciphertexts and plaintexts are the same bytes.
//!
//! The bitsliced kernel holds 256 blocks as 64 planes of one `__m256i`
//! each, bit `j` of every block in plane `j`, after a 64×64 bit transpose
//! per 64-bit lane. IP, E, P and FP are then plane indices, a key bit is
//! a broadcast mask, and an S-box output bit is fifteen `vpternlogq`:
//! eight leaves whose immediates `des::SBOX_LEAVES` derives from the
//! standard's tables, and a seven-mux tree. It takes the same
//! instructions for any key and any data.

use std::arch::x86_64::*;

use crate::aes::Aes;
use crate::cbc::{Job, CHAINS};

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
pub(crate) fn load(bytes: &[u8]) -> __m128i {
    let bytes: &[u8; 16] = bytes[..16].try_into().expect("16 bytes");
    // SAFETY: `bytes` is 16 readable bytes, and `loadu` needs no alignment.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// Stores 16 bytes, unaligned.
#[inline(always)]
pub(crate) fn store(value: __m128i, bytes: &mut [u8]) {
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

/// SHA-256 compression of every 64-byte block of `data[l]` into
/// `states[l]`, for each of `L` independent messages of equal length
/// (FIPS 180-4 §6.2.2): two rounds per `sha256rnds2`, the schedule on
/// `sha256msg1`/`sha256msg2`. The lanes' rounds interleave, so two
/// messages' dependency chains overlap in the pipeline; `L` = 1 is the
/// plain kernel.
///
/// # Safety
///
/// The CPU must have `sha`, `ssse3` and `sse4.1` ([`has_sha`]).
#[target_feature(enable = "sha,ssse3,sse4.1")]
pub(crate) unsafe fn sha256_compress<const L: usize>(states: [&mut [u32; 8]; L], data: [&[u8]; L]) {
    debug_assert!(data
        .iter()
        .all(|d| d.len() % 64 == 0 && d.len() == data[0].len()));
    // Message words are big-endian: swap the bytes of each lane.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    // `sha256rnds2` keeps the state as (A, B, E, F) and (C, D, G, H), first
    // named in the top lane.
    let s: [[i32; 8]; L] = std::array::from_fn(|l| states[l].map(|w| w as i32));
    let mut abef: [__m128i; L] =
        std::array::from_fn(|l| _mm_set_epi32(s[l][0], s[l][1], s[l][4], s[l][5]));
    let mut cdgh: [__m128i; L] =
        std::array::from_fn(|l| _mm_set_epi32(s[l][2], s[l][3], s[l][6], s[l][7]));
    for at in (0..data[0].len()).step_by(64) {
        let (abef0, cdgh0) = (abef, cdgh);
        // The sliding window W[4i..4i + 16], four words a vector.
        let mut w: [[__m128i; 4]; L] =
            std::array::from_fn(|l| message(&data[l][at..at + 64], bswap));
        // (The unrolled loop's last four schedule steps are dead code.)
        for k in SHA256_K {
            for l in 0..L {
                let wk = _mm_add_epi32(w[l][0], k);
                cdgh[l] = _mm_sha256rnds2_epu32(cdgh[l], abef[l], wk);
                abef[l] = _mm_sha256rnds2_epu32(abef[l], cdgh[l], _mm_shuffle_epi32(wk, 0x0e));
                let w4 = _mm_sha256msg1_epu32(w[l][0], w[l][1]);
                let w4 = _mm_add_epi32(w4, _mm_alignr_epi8(w[l][3], w[l][2], 4));
                w[l] = [w[l][1], w[l][2], w[l][3], _mm_sha256msg2_epu32(w4, w[l][3])];
            }
        }
        for l in 0..L {
            abef[l] = _mm_add_epi32(abef[l], abef0[l]);
            cdgh[l] = _mm_add_epi32(cdgh[l], cdgh0[l]);
        }
    }
    for (l, state) in states.into_iter().enumerate() {
        *state = [
            _mm_extract_epi32(abef[l], 3),
            _mm_extract_epi32(abef[l], 2),
            _mm_extract_epi32(cdgh[l], 3),
            _mm_extract_epi32(cdgh[l], 2),
            _mm_extract_epi32(abef[l], 1),
            _mm_extract_epi32(abef[l], 0),
            _mm_extract_epi32(cdgh[l], 1),
            _mm_extract_epi32(cdgh[l], 0),
        ]
        .map(|w| w as u32);
    }
}

/// SHA-1 compression of every 64-byte block of `data[l]` into
/// `states[l]`, for each of `L` independent messages of equal length
/// (FIPS 180-4 §6.1.2): four rounds per `sha1rnds4`, E carried by
/// `sha1nexte`, the schedule on `sha1msg1`/`sha1msg2`, the lanes' rounds
/// interleaved as in [`sha256_compress`].
///
/// # Safety
///
/// The CPU must have `sha`, `ssse3` and `sse4.1` ([`has_sha`]).
#[target_feature(enable = "sha,ssse3,sse4.1")]
pub(crate) unsafe fn sha1_compress<const L: usize>(states: [&mut [u32; 5]; L], data: [&[u8]; L]) {
    debug_assert!(data
        .iter()
        .all(|d| d.len() % 64 == 0 && d.len() == data[0].len()));
    // Reversing all sixteen bytes puts the first big-endian word in the
    // top lane, where `sha1rnds4` wants A and W[0].
    let reverse = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    let s: [[i32; 5]; L] = std::array::from_fn(|l| states[l].map(|w| w as i32));
    let mut abcd: [__m128i; L] =
        std::array::from_fn(|l| _mm_set_epi32(s[l][0], s[l][1], s[l][2], s[l][3]));
    let mut e: [__m128i; L] = std::array::from_fn(|l| _mm_set_epi32(s[l][4], 0, 0, 0));
    for at in (0..data[0].len()).step_by(64) {
        let (abcd0, e0) = (abcd, e);
        let mut w: [[__m128i; 4]; L] =
            std::array::from_fn(|l| message(&data[l][at..at + 64], reverse));
        let mut ew: [__m128i; L] = std::array::from_fn(|l| _mm_add_epi32(e[l], w[l][0]));
        // ABCD before the latest four rounds: its A, rotated, is the next E.
        let mut before = abcd;
        // Twenty rounds under logic function `f`, four at a time, each
        // four moving W[4i + 16..] into the window and setting up the next
        // E + W. (The unrolled loop's last schedule steps are dead code.)
        macro_rules! twenty {
            ($f:literal) => {
                for _ in 0..5 {
                    for l in 0..L {
                        before[l] = abcd[l];
                        abcd[l] = _mm_sha1rnds4_epu32(abcd[l], ew[l], $f);
                        let w4 = _mm_xor_si128(_mm_sha1msg1_epu32(w[l][0], w[l][1]), w[l][2]);
                        w[l] = [w[l][1], w[l][2], w[l][3], _mm_sha1msg2_epu32(w4, w[l][3])];
                        ew[l] = _mm_sha1nexte_epu32(before[l], w[l][0]);
                    }
                }
            };
        }
        twenty!(0);
        twenty!(1);
        twenty!(2);
        twenty!(3);
        for l in 0..L {
            abcd[l] = _mm_add_epi32(abcd[l], abcd0[l]);
            e[l] = _mm_sha1nexte_epu32(before[l], e0[l]);
        }
    }
    for (l, state) in states.into_iter().enumerate() {
        *state = [
            _mm_extract_epi32(abcd[l], 3),
            _mm_extract_epi32(abcd[l], 2),
            _mm_extract_epi32(abcd[l], 1),
            _mm_extract_epi32(abcd[l], 0),
            _mm_extract_epi32(e[l], 3),
        ]
        .map(|w| w as u32);
    }
}

/// How many blocks [`AesNi::decrypt_cbc`] deciphers at once: independent
/// blocks of one CBC decryption, so four `aesdec` chains overlap.
pub(crate) const LANES: usize = 4;

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

    /// CBC-decrypts `buf`, a whole number of 16-byte blocks, in place
    /// under `ivs`, one 16-byte IV per chain.
    pub(crate) fn decrypt_cbc(&self, ivs: &[u8], buf: &mut [u8]) {
        // SAFETY: an `AesNi` exists only where `new` found AES-NI.
        unsafe { decrypt_cbc(&self.dec[..=self.rounds], ivs, buf) }
    }

    /// Enciphers `N` independent blocks, their rounds interleaved.
    #[cfg(test)]
    pub(crate) fn encrypt<const N: usize>(&self, blocks: &mut [__m128i; N]) {
        // SAFETY: an `AesNi` exists only where `new` found AES-NI.
        unsafe { encrypt(&self.enc[..=self.rounds], blocks) }
    }

    /// `cbc::encrypt_lanes` of `order`'s jobs, [`LANES`] a step, compiled
    /// for AES-NI as a whole, so each step's rounds are inline.
    pub(crate) fn encrypt_lanes(&self, jobs: &mut [Job<'_>], order: &[usize]) {
        // SAFETY: an `AesNi` exists only where `new` found AES-NI.
        unsafe { encrypt_lanes(&self.enc[..=self.rounds], jobs, order) }
    }

    /// Enciphers the [`LANES`] blocks of `blocks` in place, each alone.
    pub(crate) fn encipher4(&self, blocks: &mut [u8]) {
        let mut x: [__m128i; LANES] = std::array::from_fn(|i| load(&blocks[16 * i..]));
        // SAFETY: an `AesNi` exists only where `new` found AES-NI.
        unsafe { encrypt(&self.enc[..=self.rounds], &mut x) };
        for (x, block) in x.into_iter().zip(blocks.chunks_exact_mut(16)) {
            store(x, block);
        }
    }

    /// `cbc::encrypt_blocks`: CBC-encrypts `buf` in place under `ivs`, one
    /// block after another, compiled for AES-NI as a whole.
    pub(crate) fn encrypt_blocks(&self, ivs: &[u8], buf: &mut [u8]) {
        // SAFETY: an `AesNi` exists only where `new` found AES-NI.
        unsafe { encrypt_blocks(&self.enc[..=self.rounds], ivs, buf) }
    }
}

/// [`AesNi::encrypt_lanes`] under `keys`.
///
/// # Safety
///
/// The CPU must have `aes` (an [`AesNi`] exists).
#[target_feature(enable = "aes")]
unsafe fn encrypt_lanes(keys: &[__m128i], jobs: &mut [Job<'_>], order: &[usize]) {
    crate::cbc::encrypt_lanes::<__m128i, LANES>(jobs, order, |x| {
        // SAFETY: this function runs only where the CPU has AES-NI.
        unsafe { encrypt(keys, x) }
    });
}

/// [`AesNi::encrypt_blocks`] under `keys`.
///
/// # Safety
///
/// The CPU must have `aes` (an [`AesNi`] exists).
#[target_feature(enable = "aes")]
unsafe fn encrypt_blocks(keys: &[__m128i], ivs: &[u8], buf: &mut [u8]) {
    crate::cbc::encrypt_blocks::<__m128i>(ivs, buf, |b| {
        let mut x = [b];
        // SAFETY: this function runs only where the CPU has AES-NI.
        unsafe { encrypt(keys, &mut x) };
        x[0]
    });
}

/// Enciphers `s` in place under `keys`, each round on every lane before
/// the next, so that the lanes' `aesenc` chains overlap in the pipeline.
///
/// # Safety
///
/// The CPU must have `aes` (an [`AesNi`] exists).
#[inline]
#[target_feature(enable = "aes")]
unsafe fn encrypt<const N: usize>(keys: &[__m128i], s: &mut [__m128i; N]) {
    let (first, middle, last) = (keys[0], &keys[1..keys.len() - 1], keys[keys.len() - 1]);
    for x in s.iter_mut() {
        *x = _mm_xor_si128(*x, first);
    }
    for k in middle {
        for x in s.iter_mut() {
            *x = _mm_aesenc_si128(*x, *k);
        }
    }
    for x in s.iter_mut() {
        *x = _mm_aesenclast_si128(*x, last);
    }
}

/// CBC-decrypts `buf` in place under `keys` and `ivs`: one chain, or
/// [`CHAINS`], one 16-byte IV each.
///
/// # Safety
///
/// The CPU must have `aes` (an [`AesNi`] exists).
#[target_feature(enable = "aes")]
unsafe fn decrypt_cbc(keys: &[__m128i], ivs: &[u8], buf: &mut [u8]) {
    match ivs.len() / 16 {
        1 => decrypt_chains::<1>(keys, ivs, buf),
        _ => decrypt_chains::<CHAINS>(keys, ivs, buf),
    }
}

/// [`decrypt_cbc`] under `K` chains, at most [`LANES`], [`LANES`] blocks at
/// a time. A last group of one to three blocks fills the spare lanes with
/// copies of its final block.
#[inline]
#[target_feature(enable = "aes")]
fn decrypt_chains<const K: usize>(keys: &[__m128i], ivs: &[u8], buf: &mut [u8]) {
    const { assert!(K >= 1 && K <= LANES) };
    let (first, middle, last) = (keys[0], &keys[1..keys.len() - 1], keys[keys.len() - 1]);
    // The ciphertext blocks before the group, oldest first: block i of the
    // group chains to `before[LANES - K + i]`, or to the group's own block
    // `i - K`.
    let mut before = [_mm_setzero_si128(); LANES];
    for (b, iv) in before[LANES - K..].iter_mut().zip(ivs.chunks_exact(16)) {
        *b = load(iv);
    }
    for group in buf.chunks_mut(16 * LANES) {
        let n = group.len() / 16;
        let c: [__m128i; LANES] = std::array::from_fn(|i| load(&group[16 * i.min(n - 1)..]));
        let mut s = c;
        for x in &mut s {
            *x = _mm_xor_si128(*x, first);
        }
        for k in middle {
            for x in &mut s {
                *x = _mm_aesdec_si128(*x, *k);
            }
        }
        let plain: [__m128i; LANES] = std::array::from_fn(|i| {
            let chain = if i >= K {
                c[i - K]
            } else {
                before[LANES - K + i]
            };
            _mm_xor_si128(_mm_aesdeclast_si128(s[i], last), chain)
        });
        for (i, block) in group.chunks_exact_mut(16).enumerate() {
            store(plain[i], block);
        }
        before = c;
    }
}

/// How many blocks one bitsliced pass deciphers: one per bit of a plane.
pub(crate) const PASS_BLOCKS: usize = 256;

/// A DES or 3DES schedule for the bitsliced kernel: each round's 48 subkey
/// bits, in encryption order, as lane masks of all zeros or all ones,
/// broadcast across a plane where they are used.
///
/// Exists only on a CPU with AVX-512F and AVX-512VL: [`BitslicedDes::new`]
/// is the one constructor and checks, which is what makes its safe methods
/// sound.
pub(crate) struct BitslicedDes {
    /// One row per round, 16 for DES and 48 for 3DES.
    masks: Box<[[u64; 48]]>,
    /// The rounds in decryption order, except in the lanes of
    /// [`ENCRYPTING`], which get the encryption order's subkeys: a pass
    /// under it deciphers its first blocks and enciphers its last four.
    mixed: Box<[[u64; 48]]>,
}

/// The lanes of a pass's last four blocks within each 64-bit lane of a
/// plane: blocks `4k + g` sit at bit `k` of lane `g`, so blocks 252 to 255
/// at bit 63.
const ENCRYPTING: u64 = 1 << 63;

impl BitslicedDes {
    /// Spreads the 48-bit `subkeys` (encryption order, a whole number of
    /// 16-round stages) into masks, or `None` when this CPU lacks the
    /// features.
    pub(crate) fn new(subkeys: &[u64]) -> Option<Self> {
        if !(is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl")) {
            return None;
        }
        debug_assert!(!subkeys.is_empty() && subkeys.len().is_multiple_of(16));
        let masks: Box<[[u64; 48]]> = subkeys
            .iter()
            .map(|k| std::array::from_fn(|j| 0u64.wrapping_sub((k >> (47 - j)) & 1)))
            .collect();
        let rounds = masks.len();
        let mixed = (0..rounds)
            .map(|r| {
                let (dec, enc) = (&masks[rounds - 1 - r], &masks[r]);
                std::array::from_fn(|j| dec[j] ^ ((dec[j] ^ enc[j]) & ENCRYPTING))
            })
            .collect();
        Some(BitslicedDes { masks, mixed })
    }

    /// CBC-decrypts `buf`, one pass of at most [`PASS_BLOCKS`] − [`CHAINS`]
    /// blocks, in place under the chain IVs of `iv`, `E_K(iv ⊕ j)`, which
    /// the same pass enciphers in its last [`CHAINS`] lanes.
    pub(crate) fn decrypt_chained(&self, iv: &[u8], buf: &mut [u8]) {
        // SAFETY: as `decrypt_cbc`.
        unsafe { des_decrypt_chained(&self.mixed, iv, buf) }
    }

    /// CBC-decrypts `buf`, a whole number of 8-byte blocks, in place, in
    /// passes of [`PASS_BLOCKS`], under `ivs`: one 8-byte IV per chain,
    /// at most [`CHAINS`].
    pub(crate) fn decrypt_cbc(&self, ivs: &[u8], buf: &mut [u8]) {
        // SAFETY: a `BitslicedDes` exists only where `new` found the
        // features.
        unsafe { des_decrypt_cbc(&self.masks, ivs, buf) }
    }

    /// Enciphers [`PASS_BLOCKS`] independent blocks in place, one pass.
    pub(crate) fn encrypt_pass(&self, blocks: &mut [u64; PASS_BLOCKS]) {
        // SAFETY: as `decrypt_cbc`.
        unsafe { des_encrypt_pass(&self.masks, blocks) }
    }
}

/// Swaps the bytes of each 64-bit lane: big-endian blocks to integers and
/// back.
#[inline]
#[target_feature(enable = "avx512f,avx512vl")]
fn bswap64(v: __m256i) -> __m256i {
    let order = _mm256_set_epi64x(
        0x0809_0a0b_0c0d_0e0f,
        0x0001_0203_0405_0607,
        0x0809_0a0b_0c0d_0e0f,
        0x0001_0203_0405_0607,
    );
    _mm256_shuffle_epi8(v, order)
}

/// Transposes the 64×64 bit matrix in each 64-bit lane of `x`, rows
/// `x[0..64]`: afterwards bit `i` of row `j` is what bit `j` of row `i`
/// was. Six rounds of delta swaps, each exchanging the off-diagonal
/// `s`×`s` blocks of every 2s×2s block; being an involution, the same
/// call converts back.
#[inline]
#[target_feature(enable = "avx512f,avx512vl")]
fn transpose(x: &mut [__m256i; 64]) {
    macro_rules! round {
        ($s:literal, $mask:literal) => {
            let mask = _mm256_set1_epi64x($mask);
            for k in (0..64).filter(|k| k & $s == 0) {
                let t = _mm256_xor_si256(_mm256_srli_epi64::<$s>(x[k]), x[k + $s]);
                let t = _mm256_and_si256(t, mask);
                x[k + $s] = _mm256_xor_si256(x[k + $s], t);
                x[k] = _mm256_xor_si256(x[k], _mm256_slli_epi64::<$s>(t));
            }
        };
    }
    round!(32, 0x0000_0000_FFFF_FFFF);
    round!(16, 0x0000_FFFF_0000_FFFF);
    round!(8, 0x00FF_00FF_00FF_00FF);
    round!(4, 0x0F0F_0F0F_0F0F_0F0F);
    round!(2, 0x3333_3333_3333_3333);
    round!(1, 0x5555_5555_5555_5555);
}

/// One DES round on planes: `l ^= P(S(E(r) ^ k))`. Each S-box output bit
/// is [`SBOX_LEAVES`]' circuit: eight leaves on x3, x4, x5, one
/// `vpternlogq` each, then a tree of seven muxes on x2, x1, x0 (one
/// `vpternlogq` each too, immediate `0xCA`, "first ? second : third").
/// No table is indexed by data or key, so a round takes the same time
/// for every input.
///
/// [`SBOX_LEAVES`]: crate::des::SBOX_LEAVES
#[target_feature(enable = "avx512f,avx512vl")]
fn feistel(l: &mut [__m256i; 32], r: &[__m256i; 32], k: &[u64; 48]) {
    use crate::des::{planes, SBOX_LEAVES};
    macro_rules! mux {
        ($sel:expr, $one:expr, $zero:expr) => {
            _mm256_ternarylogic_epi64::<0xCA>($sel, $one, $zero)
        };
    }
    macro_rules! leaf {
        ($x:ident, $s:literal, $t:literal, $m:literal) => {
            _mm256_ternarylogic_epi64::<{ SBOX_LEAVES[$s][$t][$m] as i32 }>($x[3], $x[4], $x[5])
        };
    }
    macro_rules! output_bit {
        ($x:ident, $s:literal, $t:literal) => {{
            let leaves = [
                leaf!($x, $s, $t, 0),
                leaf!($x, $s, $t, 1),
                leaf!($x, $s, $t, 2),
                leaf!($x, $s, $t, 3),
                leaf!($x, $s, $t, 4),
                leaf!($x, $s, $t, 5),
                leaf!($x, $s, $t, 6),
                leaf!($x, $s, $t, 7),
            ];
            let by_x01 = [
                mux!($x[2], leaves[1], leaves[0]),
                mux!($x[2], leaves[3], leaves[2]),
                mux!($x[2], leaves[5], leaves[4]),
                mux!($x[2], leaves[7], leaves[6]),
            ];
            let by_x0 = [
                mux!($x[1], by_x01[1], by_x01[0]),
                mux!($x[1], by_x01[3], by_x01[2]),
            ];
            let plane = planes::P[4 * $s + $t];
            l[plane] = _mm256_xor_si256(l[plane], mux!($x[0], by_x0[1], by_x0[0]));
        }};
    }
    macro_rules! sbox {
        ($($s:literal)*) => {$({
            let x: [__m256i; 6] = [0, 1, 2, 3, 4, 5].map(|j| {
                let bit = 6 * $s + j;
                _mm256_xor_si256(r[planes::E[bit]], _mm256_set1_epi64x(k[bit] as i64))
            });
            output_bit!(x, $s, 0);
            output_bit!(x, $s, 1);
            output_bit!(x, $s, 2);
            output_bit!(x, $s, 3);
        })*};
    }
    sbox!(0 1 2 3 4 5 6 7);
}

/// One pass over [`PASS_BLOCKS`] blocks, held as 64 rows of four (block
/// `4k + g` is 64-bit lane `g` of row `k`): transposed into 64 planes of
/// 256 lanes, so that IP, E, P and FP are only choices of plane, each of
/// `rounds` run on all lanes at once (a stage of 16 ends with the swap
/// before FP), and transposed back. Decryption runs the rounds backwards.
#[inline]
#[target_feature(enable = "avx512f,avx512vl")]
fn des_pass<'a>(rounds: impl Iterator<Item = &'a [u64; 48]>, x: &mut [__m256i; 64]) {
    use crate::des::planes;
    transpose(x);
    let mut l: [__m256i; 32] = std::array::from_fn(|i| x[planes::IP[i]]);
    let mut r: [__m256i; 32] = std::array::from_fn(|i| x[planes::IP[32 + i]]);
    for (i, k) in rounds.enumerate() {
        match i % 2 {
            0 => feistel(&mut l, &r, k),
            _ => feistel(&mut r, &l, k),
        }
        if i % 16 == 15 {
            std::mem::swap(&mut l, &mut r);
        }
    }
    *x = std::array::from_fn(|j| {
        let p = planes::FP[j];
        if p < 32 {
            l[p]
        } else {
            r[p - 32]
        }
    });
    transpose(x);
}

/// Enciphers `blocks` in place under `masks`: one [`des_pass`].
///
/// # Safety
///
/// The CPU must have `avx512f` and `avx512vl` (a [`BitslicedDes`] exists).
#[target_feature(enable = "avx512f,avx512vl")]
unsafe fn des_encrypt_pass(masks: &[[u64; 48]], blocks: &mut [u64; PASS_BLOCKS]) {
    let mut x: [__m256i; 64] = std::array::from_fn(|k| {
        // SAFETY: row `k` is blocks 4k..4k + 4 of the 256, and `loadu`
        // needs no alignment.
        unsafe { _mm256_loadu_si256(blocks.as_ptr().add(4 * k).cast()) }
    });
    des_pass(masks.iter(), &mut x);
    for (k, row) in x.into_iter().enumerate() {
        // SAFETY: as the load, and `storeu` needs no alignment.
        unsafe { _mm256_storeu_si256(blocks.as_mut_ptr().add(4 * k).cast(), row) };
    }
}

/// CBC-decrypts `buf` in place under `masks` and `ivs` (one block per
/// chain), [`PASS_BLOCKS`] blocks a pass of [`des_pass`]. Lanes past the
/// end of a short pass decipher stale bytes and are dropped.
///
/// # Safety
///
/// The CPU must have `avx512f` and `avx512vl` (a [`BitslicedDes`] exists).
#[target_feature(enable = "avx512f,avx512vl")]
unsafe fn des_decrypt_cbc(masks: &[[u64; 48]], ivs: &[u8], buf: &mut [u8]) {
    debug_assert!(buf.len().is_multiple_of(8) && ivs.len() <= HEAD);
    let mut ext = [0u8; HEAD + 8 * PASS_BLOCKS];
    ext[HEAD - ivs.len()..HEAD].copy_from_slice(ivs);
    let back = HEAD - ivs.len();
    for pass in buf.chunks_mut(8 * PASS_BLOCKS) {
        ext[HEAD..HEAD + pass.len()].copy_from_slice(pass);
        let mut x = rows(&ext);
        des_pass(masks.iter().rev(), &mut x);
        chain_out(&x, &ext, back, pass);
        if let Some(from) = pass.len().checked_sub(ivs.len()) {
            ext.copy_within(HEAD + from..HEAD + pass.len(), back);
        }
    }
}

/// [`BitslicedDes::decrypt_chained`] under `mixed`.
///
/// # Safety
///
/// The CPU must have `avx512f` and `avx512vl` (a [`BitslicedDes`] exists).
#[target_feature(enable = "avx512f,avx512vl")]
unsafe fn des_decrypt_chained(mixed: &[[u64; 48]], iv: &[u8], buf: &mut [u8]) {
    const { assert!(CHAINS == 4, "the chain IVs are one row") };
    const LAST: usize = HEAD + 8 * (PASS_BLOCKS - CHAINS);
    debug_assert!(buf.len().is_multiple_of(8) && buf.len() <= LAST - HEAD);
    let mut ext = [0u8; HEAD + 8 * PASS_BLOCKS];
    ext[HEAD..HEAD + buf.len()].copy_from_slice(buf);
    for (j, block) in ext[LAST..].chunks_exact_mut(8).enumerate() {
        block.copy_from_slice(iv);
        block[7] ^= j as u8;
    }
    let mut x = rows(&ext);
    des_pass(mixed.iter(), &mut x);
    // The last row came out enciphered: the chain IVs, which the first
    // row chains to.
    // SAFETY: `ext` starts with 32 writable bytes, and `storeu` needs no
    // alignment.
    unsafe { _mm256_storeu_si256(ext.as_mut_ptr().cast(), bswap64(x[63])) };
    chain_out(&x, &ext, 0, buf);
}

/// Bytes before a pass's ciphertext in the kernels' buffer: room for the
/// blocks its first blocks chain to, one per chain.
const HEAD: usize = 8 * CHAINS;

/// The 64 rows of the pass whose ciphertext starts at [`HEAD`] in `ext`,
/// as integers: row `k` is blocks `4k..4k + 4`.
#[inline]
#[target_feature(enable = "avx512f,avx512vl")]
fn rows(ext: &[u8; HEAD + 8 * PASS_BLOCKS]) -> [__m256i; 64] {
    std::array::from_fn(|k| {
        // SAFETY: row `k` is bytes HEAD + 32k..HEAD + 32k + 32 of `ext`,
        // and `loadu` needs no alignment.
        bswap64(unsafe { _mm256_loadu_si256(ext.as_ptr().add(HEAD + 32 * k).cast()) })
    })
}

/// Stores the plaintext of `pass`: each deciphered row of `x` XORed with
/// its chaining blocks, which start `back` bytes into `ext` for row 0.
/// Rows wholly inside the pass are stored in place; the plaintext of a
/// last, partial row goes through `tail`.
#[inline]
#[target_feature(enable = "avx512f,avx512vl")]
fn chain_out(x: &[__m256i; 64], ext: &[u8; HEAD + 8 * PASS_BLOCKS], back: usize, pass: &mut [u8]) {
    let mut tail = [0u8; 32];
    for (k, row) in x.iter().enumerate().take(pass.len().div_ceil(32)) {
        // SAFETY: the four chaining blocks of row `k` start `back + 32k`
        // bytes into `ext`, at most HEAD + 32 * 63, so they end inside it;
        // `loadu` needs no alignment.
        let chain = unsafe { _mm256_loadu_si256(ext.as_ptr().add(back + 32 * k).cast()) };
        let plain = _mm256_xor_si256(bswap64(*row), chain);
        let out = pass.get_mut(32 * k..32 * k + 32).unwrap_or(&mut tail);
        // SAFETY: `out` is 32 writable bytes, and `storeu` needs no
        // alignment.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), plain) };
    }
    let whole = pass.len() / 32 * 32;
    let rest = pass.len() - whole;
    pass[whole..].copy_from_slice(&tail[..rest]);
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

    /// `n` pseudorandom bytes from `seed` (SplitMix64).
    fn bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..n.div_ceil(8))
            .flat_map(|_| next().to_be_bytes())
            .take(n)
            .collect()
    }

    #[test]
    fn bitsliced_des_matches_reference_at_every_length() {
        use crate::des::{reference, Des, TripleDes};
        // 1..=600 blocks crosses the dispatch threshold and two pass
        // boundaries, under one chain and under `CHAINS` interleaved ones.
        // CBC decryption of a prefix is the prefix of the whole
        // decryption, so one reference run per key and chain count serves
        // them all.
        const MAX: usize = 600;
        for seed in 0..2u64 {
            let ciphertext = bytes(seed, 8 * MAX);
            let des_key: [u8; 8] = bytes(seed + 10, 8)[..].try_into().unwrap();
            let tdes_key: [u8; 24] = bytes(seed + 20, 24)[..].try_into().unwrap();
            let des = Des::new(&des_key);
            let tdes = TripleDes::new(&tdes_key);
            let cases: [(&str, _, &dyn Fn(u64) -> u64); 2] = [
                ("DES", &des.sliced, &|b| reference::des_decrypt(&des_key, b)),
                ("3DES", &tdes.sliced, &|b| {
                    reference::tdes_decrypt(&tdes_key, b)
                }),
            ];
            for (name, sliced, decrypt) in cases {
                let Some(sliced) = sliced else {
                    present("AVX-512F and AVX-512VL", false);
                    return;
                };
                for chains in [1, CHAINS] {
                    let ivs = bytes(!seed, 8 * chains);
                    let block = |bytes: &[u8], i: usize| {
                        u64::from_be_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap())
                    };
                    let expect: Vec<u8> = (0..MAX)
                        .flat_map(|i| {
                            let chain = match i.checked_sub(chains) {
                                Some(before) => block(&ciphertext, before),
                                None => block(&ivs, i),
                            };
                            (decrypt(block(&ciphertext, i)) ^ chain).to_be_bytes()
                        })
                        .collect();
                    for blocks in 1..=MAX {
                        let mut buf = ciphertext[..8 * blocks].to_vec();
                        sliced.decrypt_cbc(&ivs, &mut buf);
                        assert_eq!(
                            buf,
                            expect[..8 * blocks],
                            "{name}, {chains} chains, {blocks} blocks"
                        );
                    }
                }
            }
        }
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
                let mut enciphered = [load(&block)];
                ni.encrypt(&mut enciphered);
                let mut buf = block.clone();
                store(enciphered[0], &mut buf);
                prop_assert_eq!(u128::from_be_bytes(buf[..].try_into().unwrap()), aes.encrypt_block(x));
                // CBC of one block under a zero IV is the block cipher.
                let mut buf = block.clone();
                ni.decrypt_cbc(&[0; 16], &mut buf);
                prop_assert_eq!(u128::from_be_bytes(buf[..].try_into().unwrap()), aes.decrypt_block(x));
            }
        }
    }
}
