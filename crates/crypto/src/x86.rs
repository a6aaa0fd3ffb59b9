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

/// How many blocks [`AesNi::decrypt_cbc`] and [`AesNi::encrypt4`] cipher at
/// once: independent blocks (one CBC decryption's, or one of each of four
/// CBC encryptions), so four `aesdec` or `aesenc` chains overlap.
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

    /// Enciphers [`LANES`] independent blocks, their rounds interleaved.
    pub(crate) fn encrypt4(&self, blocks: &mut [__m128i; LANES]) {
        // SAFETY: an `AesNi` exists only where `new` found AES-NI.
        unsafe { encrypt4(&self.enc[..=self.rounds], blocks) }
    }
}

/// Enciphers `s` in place under `keys`, each round on every lane before
/// the next, so that the lanes' `aesenc` chains overlap in the pipeline.
///
/// # Safety
///
/// The CPU must have `aes` (an [`AesNi`] exists).
#[target_feature(enable = "aes")]
unsafe fn encrypt4(keys: &[__m128i], s: &mut [__m128i; LANES]) {
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
}

impl BitslicedDes {
    /// Spreads the 48-bit `subkeys` (encryption order, a whole number of
    /// 16-round stages) into masks, or `None` when this CPU lacks the
    /// features.
    pub(crate) fn new(subkeys: &[u64]) -> Option<Self> {
        if !(is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl")) {
            return None;
        }
        debug_assert!(!subkeys.is_empty() && subkeys.len().is_multiple_of(16));
        let masks = subkeys
            .iter()
            .map(|k| std::array::from_fn(|j| 0u64.wrapping_sub((k >> (47 - j)) & 1)))
            .collect();
        Some(BitslicedDes { masks })
    }

    /// CBC-decrypts `buf`, a whole number of 8-byte blocks, in place, in
    /// passes of [`PASS_BLOCKS`]. `prev` is the ciphertext block before
    /// `buf`: the IV, for the first.
    pub(crate) fn decrypt_cbc(&self, prev: u64, buf: &mut [u8]) {
        // SAFETY: a `BitslicedDes` exists only where `new` found the
        // features.
        unsafe { des_decrypt_cbc(&self.masks, prev, buf) }
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

/// CBC-decrypts `buf` in place under `masks`, [`PASS_BLOCKS`] blocks a
/// pass of [`des_pass`]. Lanes past the end of a short pass decipher zeros
/// and are dropped.
///
/// # Safety
///
/// The CPU must have `avx512f` and `avx512vl` (a [`BitslicedDes`] exists).
#[target_feature(enable = "avx512f,avx512vl")]
unsafe fn des_decrypt_cbc(masks: &[[u64; 48]], mut prev: u64, buf: &mut [u8]) {
    debug_assert!(buf.len().is_multiple_of(8));
    for pass in buf.chunks_mut(8 * PASS_BLOCKS) {
        let mut bytes = [0u8; 8 * PASS_BLOCKS];
        bytes[..pass.len()].copy_from_slice(pass);
        let rows: [__m256i; 64] = std::array::from_fn(|k| {
            // SAFETY: row `k` is bytes 32k..32k + 32 of the 2048, and
            // `loadu` needs no alignment.
            bswap64(unsafe { _mm256_loadu_si256(bytes.as_ptr().add(32 * k).cast()) })
        });
        let mut x = rows;
        des_pass(masks.iter().rev(), &mut x);
        // Each block's chaining value is the ciphertext block before it:
        // row k's lanes shifted up by one, the last lane of row k - 1 in.
        let mut before = _mm256_set1_epi64x(prev as i64);
        for (k, (row, cipher)) in x.into_iter().zip(rows).enumerate() {
            let chain = _mm256_alignr_epi64::<3>(cipher, before);
            before = cipher;
            let plain = bswap64(_mm256_xor_si256(row, chain));
            // SAFETY: as the load, and `storeu` needs no alignment.
            unsafe { _mm256_storeu_si256(bytes.as_mut_ptr().add(32 * k).cast(), plain) };
        }
        prev = u64::from_be_bytes(pass[pass.len() - 8..].try_into().expect("8 bytes"));
        pass.copy_from_slice(&bytes[..pass.len()]);
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
        // boundaries. CBC decryption of a prefix is the prefix of the
        // whole decryption, so one reference run per key serves them all.
        const MAX: usize = 600;
        for seed in 0..2u64 {
            let ciphertext = bytes(seed, 8 * MAX);
            let iv = bytes(!seed, 8);
            let iv = u64::from_be_bytes(iv[..].try_into().unwrap());
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
                let mut prev = iv;
                let expect: Vec<u8> = ciphertext
                    .chunks_exact(8)
                    .flat_map(|block| {
                        let c = u64::from_be_bytes(block.try_into().unwrap());
                        let p = decrypt(c) ^ prev;
                        prev = c;
                        p.to_be_bytes()
                    })
                    .collect();
                for blocks in 1..=MAX {
                    let mut buf = ciphertext[..8 * blocks].to_vec();
                    sliced.decrypt_cbc(iv, &mut buf);
                    assert_eq!(buf, expect[..8 * blocks], "{name}, {blocks} blocks");
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
