//! DES and Triple-DES (FIPS 46-3): table-driven, and bitsliced for bulk
//! CBC decryption on AVX-512.
//!
//! The paper uses DES in CBC mode for ordinary partitions (measured at
//! 7.2 MB/s in 2000) and 3DES for the system partition (2.5 MB/s). DES is
//! *not* a secure cipher by modern standards; it is provided for fidelity to
//! the paper. Use [`crate::aes`] for real deployments.
//!
//! The FIPS 46-3 tables below are the only transcribed data. From them:
//!
//! * **S and P are fused** into eight 64-entry tables (`SP`, 2 KB, built
//!   at compile time): entry `x` of table `i` is P applied to S-box `i`'s
//!   output for the six input bits `x`, already in its final bit positions.
//! * **E costs nothing.** Both halves are kept rotated right by one bit for
//!   all rounds. In that form the eight overlapping six-bit groups E selects
//!   are the top six bits of each byte of `r` (S1, S3, S5, S7) and of `r`
//!   rotated left by four (S2, S4, S6, S8); the SP entries are stored rotated
//!   the same way, so a round is two XORs with the subkey, eight lookups and
//!   seven XORs.
//! * **Subkeys are stored in table-index form** — the six-bit pieces of each
//!   48-bit subkey spread to where E's groups sit — once in encryption order
//!   and once in decryption order, so either direction walks its array
//!   forwards.
//! * **IP and FP are five delta-swaps each.**
//! * **3DES is one 48-round pass** between a single IP and a single FP: the
//!   FP and IP between two stages cancel, leaving only the swap of halves.
//! * **Four independent blocks run in lockstep** (`decrypt4`, `encrypt4`):
//!   those of one CBC decryption, or one of each of four buffers being
//!   CBC-encrypted. The lanes' lookups overlap where one block's rounds
//!   would wait on each other.
//!
//! **Bitsliced DES.** On a CPU with AVX-512F and AVX-512VL, CBC
//! decryption of a long buffer runs 256 blocks at once (Biham, *A Fast New
//! DES Implementation in Software*, FSE 1997). The blocks are transposed
//! into 64 bit-planes, plane `j` holding bit `j` of every block, so the
//! permutations IP, E, P and FP are only a choice of plane (`planes`),
//! and the S-boxes become Boolean circuits evaluated on whole planes.
//! Each output bit is eight three-input leaves under a mux tree on the
//! other three inputs; `vpternlogq` computes any three-input function, so
//! each is one instruction, and `SBOX_LEAVES` derives every leaf's
//! immediate from `SBOX` at compile time. No gate list is transcribed. The
//! kernel itself is `x86::BitslicedDes`, and it indexes no table by data
//! or key, so its time does not depend on either (the table kernels'
//! lookups do; see DESIGN.md). `Des::new` and `TripleDes::new` build its
//! schedule (decryption walks it backwards) only on a CPU with the features,
//! so a keyed cipher carries the choice. `cbc` sends it buffers of at
//! least its measured threshold to decrypt, and batches of enough buffers
//! to encrypt as lanes, block `j` of each in pass `j`: CBC chains the
//! blocks of one buffer, not those of different buffers.
//!
//! The bit-at-a-time formulation straight from the standard survives as the
//! test oracle (`reference`), which every table-driven and bitsliced path is
//! checked against.

/// Initial permutation (IP). Entries are 1-based bit positions from the MSB.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const IP: [u8; 64] = [
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4, 62, 54, 46, 38, 30, 22, 14, 6,
    64, 56, 48, 40, 32, 24, 16, 8, 57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3, 61,
    53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
];

/// Final permutation (IP⁻¹).
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const FP: [u8; 64] = [
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31, 38, 6, 46, 14, 54, 22, 62, 30,
    37, 5, 45, 13, 53, 21, 61, 29, 36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
];

/// Expansion permutation E (32 → 48 bits).
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const E: [u8; 48] = [
    32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9, 8, 9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17, 16, 17, 18,
    19, 20, 21, 20, 21, 22, 23, 24, 25, 24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
];

/// Permutation P applied to the S-box output.
const P: [u8; 32] = [
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10, 2, 8, 24, 14, 32, 27, 3, 9, 19,
    13, 30, 6, 22, 11, 4, 25,
];

/// Permuted choice 1 (64 → 56 bits, drops parity).
const PC1: [u8; 56] = [
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18, 10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60,
    52, 44, 36, 63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22, 14, 6, 61, 53, 45, 37, 29,
    21, 13, 5, 28, 20, 12, 4,
];

/// Permuted choice 2 (56 → 48 bits).
const PC2: [u8; 48] = [
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10, 23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2, 41, 52,
    31, 37, 47, 55, 30, 40, 51, 45, 33, 48, 44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
];

/// Left-rotation schedule for the key halves, one entry per round.
const SHIFTS: [u8; 16] = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1];

/// The eight S-boxes, each indexed by `row * 16 + column`.
const SBOX: [[u8; 64]; 8] = [
    [
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7, 0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12,
        11, 9, 5, 3, 8, 4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0, 15, 12, 8, 2, 4, 9,
        1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    ],
    [
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10, 3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1,
        10, 6, 9, 11, 5, 0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15, 13, 8, 10, 1, 3, 15,
        4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    ],
    [
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8, 13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5,
        14, 12, 11, 15, 1, 13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7, 1, 10, 13, 0, 6,
        9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    ],
    [
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15, 13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2,
        12, 1, 10, 14, 9, 10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4, 3, 15, 0, 6, 10, 1,
        13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    ],
    [
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9, 14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15,
        10, 3, 9, 8, 6, 4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14, 11, 8, 12, 7, 1, 14,
        2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    ],
    [
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11, 10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13,
        14, 0, 11, 3, 8, 9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6, 4, 3, 2, 12, 9, 5,
        15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    ],
    [
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1, 13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5,
        12, 2, 15, 8, 6, 1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2, 6, 11, 13, 8, 1, 4,
        10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    ],
    [
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7, 1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6,
        11, 0, 14, 9, 2, 7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8, 2, 1, 14, 7, 4, 10,
        8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    ],
];

/// Applies a 1-based-from-MSB permutation table to the low `in_bits` bits of
/// `input`, producing `table.len()` output bits packed MSB-first. One bit per
/// step: used only at compile time, once per key (PC1/PC2), and by the test
/// oracle.
const fn permute(input: u64, in_bits: u32, table: &[u8]) -> u64 {
    let mut out = 0u64;
    let mut i = 0;
    while i < table.len() {
        out = (out << 1) | ((input >> (in_bits - table[i] as u32)) & 1);
        i += 1;
    }
    out
}

/// The fused S-box/P tables: `SP[i][x]` is `P(S_i(x))` with S-box `i`'s four
/// output bits in their place in the 32-bit word, rotated right by one to
/// match the rotated halves the rounds work on. `x` is the six-bit group in
/// the standard's order (outer bits select the row, inner four the column).
static SP: [[u32; 64]; 8] = sp_tables();

const fn sp_tables() -> [[u32; 64]; 8] {
    let mut sp = [[0u32; 64]; 8];
    let mut i = 0;
    while i < 8 {
        let mut x = 0;
        while x < 64 {
            let row = ((x & 0x20) >> 4) | (x & 1);
            let col = (x >> 1) & 0xF;
            let s = SBOX[i][row * 16 + col] as u64;
            let p = permute(s << (28 - 4 * i), 32, &P) as u32;
            sp[i][x] = p.rotate_right(1);
            x += 1;
        }
        i += 1;
    }
    sp
}

/// The S-boxes as Boolean circuits, for the bitsliced kernel. Output bit
/// `t` of S-box `s` (0 is the most significant) is a mux tree over input
/// bits x0, x1, x2 (x0 first in the six-bit group) whose eight leaves are
/// functions of x3, x4, x5: leaf `m` is what the output bit is when
/// x0 x1 x2 spell `m`. `SBOX_LEAVES[s][t][m]` is that leaf's truth table
/// as a `vpternlogq` immediate, bit `4·x3 + 2·x4 + x5`.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) const SBOX_LEAVES: [[[u8; 8]; 4]; 8] = sbox_leaves();

const fn sbox_leaves() -> [[[u8; 8]; 4]; 8] {
    let mut leaves = [[[0u8; 8]; 4]; 8];
    let mut s = 0;
    while s < 8 {
        let mut x = 0;
        while x < 64 {
            let row = ((x & 0x20) >> 4) | (x & 1);
            let col = (x >> 1) & 0xF;
            let out = SBOX[s][row * 16 + col];
            let mut t = 0;
            while t < 4 {
                leaves[s][t][x >> 3] |= ((out >> (3 - t)) & 1) << (x & 7);
                t += 1;
            }
            x += 1;
        }
        s += 1;
    }
    leaves
}

/// Where each permutation reads from, as plane indices for the bitsliced
/// kernel. A transposed block's plane `j` holds the bit `j` places above
/// its least significant one; a half's plane `i` holds its bit `i + 1` in
/// the standard's numbering.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) mod planes {
    /// `L ‖ R` after IP: plane `i` is the block's plane `IP[i]`.
    pub(crate) const IP: [usize; 64] = from_msb(&super::IP);
    /// S-box `s`'s input bit `j` is `R`'s plane `E[6s + j]`.
    pub(crate) const E: [usize; 48] = one_based(&super::E);
    /// S-box output bit `q` (of 32, S1's first) lands in f's plane `P[q]`.
    pub(crate) const P: [usize; 32] = inverse(&super::P);
    /// The block's plane `j` after FP is the preoutput `R16 ‖ L16`'s plane
    /// `FP[j]`.
    pub(crate) const FP: [usize; 64] = reversed(&one_based(&super::FP));

    const fn one_based<const N: usize>(table: &[u8; N]) -> [usize; N] {
        let mut out = [0; N];
        let mut i = 0;
        while i < N {
            out[i] = table[i] as usize - 1;
            i += 1;
        }
        out
    }

    const fn from_msb<const N: usize>(table: &[u8; N]) -> [usize; N] {
        let mut out = [0; N];
        let mut i = 0;
        while i < N {
            out[i] = 64 - table[i] as usize;
            i += 1;
        }
        out
    }

    const fn reversed<const N: usize>(table: &[usize; N]) -> [usize; N] {
        let mut out = [0; N];
        let mut i = 0;
        while i < N {
            out[i] = table[N - 1 - i];
            i += 1;
        }
        out
    }

    const fn inverse<const N: usize>(table: &[u8; N]) -> [usize; N] {
        let mut out = [0; N];
        let mut i = 0;
        while i < N {
            out[table[i] as usize - 1] = i;
            i += 1;
        }
        out
    }
}

/// One round's subkey in table-index form: `[0]` holds the six-bit pieces for
/// S1, S3, S5, S7 in the top six bits of its four bytes, `[1]` those for S2,
/// S4, S6, S8.
type RoundKey = [u32; 2];

/// Computes the 16 48-bit round subkeys of `key`, as the standard numbers
/// them.
fn key_schedule(key: &[u8; 8]) -> [u64; 16] {
    let pc1 = permute(u64::from_be_bytes(*key), 64, &PC1);
    let mut c = (pc1 >> 28) & 0x0FFF_FFFF;
    let mut d = pc1 & 0x0FFF_FFFF;
    let mut subkeys = [0u64; 16];
    for (subkey, &shift) in subkeys.iter_mut().zip(SHIFTS.iter()) {
        c = ((c << shift) | (c >> (28 - u32::from(shift)))) & 0x0FFF_FFFF;
        d = ((d << shift) | (d >> (28 - u32::from(shift)))) & 0x0FFF_FFFF;
        *subkey = permute((c << 28) | d, 56, &PC2);
    }
    subkeys
}

/// The round subkeys of `key` in table-index form, in encryption order.
fn round_keys(key: &[u8; 8]) -> [RoundKey; 16] {
    key_schedule(key).map(|k| {
        let mut round_key = [0u32; 2];
        for group in 0..8 {
            let six = ((k >> (42 - 6 * group)) & 0x3F) as u32;
            round_key[group & 1] |= six << (26 - 8 * (group / 2));
        }
        round_key
    })
}

/// The Feistel function f(R, K) on a rotated half, yielding a rotated word.
#[inline(always)]
fn feistel(r: u32, k: &RoundKey) -> u32 {
    let u = r ^ k[0];
    let v = r.rotate_left(4) ^ k[1];
    SP[0][(u >> 26) as usize & 0x3F]
        ^ SP[2][(u >> 18) as usize & 0x3F]
        ^ SP[4][(u >> 10) as usize & 0x3F]
        ^ SP[6][(u >> 2) as usize & 0x3F]
        ^ SP[1][(v >> 26) as usize & 0x3F]
        ^ SP[3][(v >> 18) as usize & 0x3F]
        ^ SP[5][(v >> 10) as usize & 0x3F]
        ^ SP[7][(v >> 2) as usize & 0x3F]
}

/// Exchanges the bits of `a` selected by `mask << shift` with the bits of
/// `b` selected by `mask`.
#[inline(always)]
fn delta_swap(a: &mut u32, b: &mut u32, shift: u32, mask: u32) {
    let t = ((*a >> shift) ^ *b) & mask;
    *b ^= t;
    *a ^= t << shift;
}

/// IP, then both halves rotated right by one into round form.
#[inline(always)]
fn initial_permutation(block: u64) -> (u32, u32) {
    let (mut l, mut r) = ((block >> 32) as u32, block as u32);
    delta_swap(&mut l, &mut r, 4, 0x0F0F_0F0F);
    delta_swap(&mut l, &mut r, 16, 0x0000_FFFF);
    delta_swap(&mut r, &mut l, 2, 0x3333_3333);
    delta_swap(&mut r, &mut l, 8, 0x00FF_00FF);
    delta_swap(&mut l, &mut r, 1, 0x5555_5555);
    (l.rotate_right(1), r.rotate_right(1))
}

/// Inverse of [`initial_permutation`].
#[inline(always)]
fn final_permutation(l: u32, r: u32) -> u64 {
    let (mut l, mut r) = (l.rotate_left(1), r.rotate_left(1));
    delta_swap(&mut l, &mut r, 1, 0x5555_5555);
    delta_swap(&mut r, &mut l, 8, 0x00FF_00FF);
    delta_swap(&mut r, &mut l, 2, 0x3333_3333);
    delta_swap(&mut l, &mut r, 16, 0x0000_FFFF);
    delta_swap(&mut l, &mut r, 4, 0x0F0F_0F0F);
    (u64::from(l) << 32) | u64::from(r)
}

/// Runs `N / 16` DES stages over one block between one IP and one FP.
///
/// Each stage is 16 rounds, two per step so the halves never move, and ends
/// with the swap that precedes FP in the standard. Between two stages of
/// 3DES that swap is all that is left of the FP·IP pair.
#[inline(always)]
fn crypt<const N: usize>(block: u64, subkeys: &[RoundKey; N]) -> u64 {
    let (mut l, mut r) = initial_permutation(block);
    for stage in subkeys.chunks_exact(16) {
        for pair in stage.chunks_exact(2) {
            l ^= feistel(r, &pair[0]);
            r ^= feistel(l, &pair[1]);
        }
        std::mem::swap(&mut l, &mut r);
    }
    final_permutation(l, r)
}

/// [`crypt`] over four blocks in lockstep: each round is applied to all
/// four lanes before the next, so the lanes' table lookups overlap instead
/// of waiting on one another. For independent blocks: CBC decryption's, or
/// one from each of four CBC encryptions.
#[inline(always)]
fn crypt4<const N: usize>(blocks: [u64; 4], subkeys: &[RoundKey; N]) -> [u64; 4] {
    let mut l = [0u32; 4];
    let mut r = [0u32; 4];
    for (lane, &block) in blocks.iter().enumerate() {
        (l[lane], r[lane]) = initial_permutation(block);
    }
    for stage in subkeys.chunks_exact(16) {
        for pair in stage.chunks_exact(2) {
            for lane in 0..4 {
                l[lane] ^= feistel(r[lane], &pair[0]);
            }
            for lane in 0..4 {
                r[lane] ^= feistel(l[lane], &pair[1]);
            }
        }
        std::mem::swap(&mut l, &mut r);
    }
    std::array::from_fn(|lane| final_permutation(l[lane], r[lane]))
}

#[cfg(target_arch = "x86_64")]
pub(crate) use crate::x86::{BitslicedDes, PASS_BLOCKS};

/// How many blocks one bitsliced pass ciphers.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) const PASS_BLOCKS: usize = 256;

/// The bitsliced kernel's schedule, which off x86-64 never exists.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) enum BitslicedDes {}

#[cfg(not(target_arch = "x86_64"))]
impl BitslicedDes {
    fn new(_subkeys: &[u64]) -> Option<Self> {
        None
    }

    pub(crate) fn decrypt_cbc(&self, _ivs: &[u8], _buf: &mut [u8]) {
        match *self {}
    }

    pub(crate) fn decrypt_chained(&self, _iv: &[u8], _buf: &mut [u8]) {
        match *self {}
    }

    pub(crate) fn encrypt_pass(&self, _blocks: &mut [u64; PASS_BLOCKS]) {
        match *self {}
    }
}

/// Single DES with an expanded key schedule.
pub struct Des {
    enc: [RoundKey; 16],
    dec: [RoundKey; 16],
    /// The bitsliced schedule, where this CPU runs the kernel.
    pub(crate) sliced: Option<BitslicedDes>,
}

impl Des {
    /// Keys a DES instance. Parity bits in `key` are ignored, per the
    /// standard.
    pub fn new(key: &[u8; 8]) -> Self {
        let enc = round_keys(key);
        let mut dec = enc;
        dec.reverse();
        Des {
            enc,
            dec,
            sliced: BitslicedDes::new(&key_schedule(key)),
        }
    }

    /// Encrypts one block, taken and returned as a big-endian integer.
    #[inline]
    pub fn encrypt_block(&self, block: u64) -> u64 {
        crypt(block, &self.enc)
    }

    /// Decrypts one block, taken and returned as a big-endian integer.
    #[inline]
    pub fn decrypt_block(&self, block: u64) -> u64 {
        crypt(block, &self.dec)
    }

    /// Encrypts four independent blocks at once.
    #[inline]
    pub fn encrypt4(&self, blocks: [u64; 4]) -> [u64; 4] {
        crypt4(blocks, &self.enc)
    }

    /// Decrypts four independent blocks at once.
    #[inline]
    pub fn decrypt4(&self, blocks: [u64; 4]) -> [u64; 4] {
        crypt4(blocks, &self.dec)
    }
}

/// Triple DES in EDE3 mode (encrypt-decrypt-encrypt with three keys).
pub struct TripleDes {
    enc: [RoundKey; 48],
    dec: [RoundKey; 48],
    /// The bitsliced schedule, where this CPU runs the kernel.
    pub(crate) sliced: Option<BitslicedDes>,
}

impl TripleDes {
    /// Keys a 3DES instance from a 24-byte key (K1 ‖ K2 ‖ K3).
    pub fn new(key: &[u8; 24]) -> Self {
        // E(K1), D(K2), E(K3) one way; the other way is the same 48 rounds
        // backwards: D(K3), E(K2), D(K1).
        let mut enc = [[0u32; 2]; 48];
        for (stage, k) in enc.chunks_exact_mut(16).zip(key.chunks_exact(8)) {
            stage.copy_from_slice(&round_keys(k.try_into().expect("8-byte chunk")));
        }
        enc[16..32].reverse();
        let mut dec = enc;
        dec.reverse();
        let mut subkeys = [0u64; 48];
        for (stage, k) in subkeys.chunks_exact_mut(16).zip(key.chunks_exact(8)) {
            stage.copy_from_slice(&key_schedule(k.try_into().expect("8-byte chunk")));
        }
        subkeys[16..32].reverse();
        TripleDes {
            enc,
            dec,
            sliced: BitslicedDes::new(&subkeys),
        }
    }

    /// Encrypts one block, taken and returned as a big-endian integer.
    #[inline]
    pub fn encrypt_block(&self, block: u64) -> u64 {
        crypt(block, &self.enc)
    }

    /// Decrypts one block, taken and returned as a big-endian integer.
    #[inline]
    pub fn decrypt_block(&self, block: u64) -> u64 {
        crypt(block, &self.dec)
    }

    /// Encrypts four independent blocks at once.
    #[inline]
    pub fn encrypt4(&self, blocks: [u64; 4]) -> [u64; 4] {
        crypt4(blocks, &self.enc)
    }

    /// Decrypts four independent blocks at once.
    #[inline]
    pub fn decrypt4(&self, blocks: [u64; 4]) -> [u64; 4] {
        crypt4(blocks, &self.dec)
    }
}

/// The standard's own formulation, one bit at a time: IP, sixteen rounds of
/// E / S-boxes / P, swap, FP, over the 48-bit subkeys as [`key_schedule`]
/// leaves them. Kept as the oracle the table-driven kernel is tested
/// against.
#[cfg(test)]
pub(crate) mod reference {
    use super::{key_schedule, permute, E, FP, IP, P, SBOX};

    fn feistel(r: u32, subkey: u64) -> u32 {
        let x = permute(u64::from(r), 32, &E) ^ subkey;
        let mut out = 0u32;
        for (i, sbox) in SBOX.iter().enumerate() {
            let six = ((x >> (42 - 6 * i)) & 0x3F) as usize;
            let row = ((six & 0x20) >> 4) | (six & 1);
            let col = (six >> 1) & 0xF;
            out = (out << 4) | u32::from(sbox[row * 16 + col]);
        }
        permute(u64::from(out), 32, &P) as u32
    }

    fn des_rounds(block: u64, subkeys: impl Iterator<Item = u64>) -> u64 {
        let ip = permute(block, 64, &IP);
        let mut l = (ip >> 32) as u32;
        let mut r = ip as u32;
        for k in subkeys {
            let next_r = l ^ feistel(r, k);
            l = r;
            r = next_r;
        }
        // The halves are swapped before the final permutation.
        permute((u64::from(r) << 32) | u64::from(l), 64, &FP)
    }

    pub(crate) fn des_encrypt(key: &[u8; 8], block: u64) -> u64 {
        des_rounds(block, key_schedule(key).into_iter())
    }

    pub(crate) fn des_decrypt(key: &[u8; 8], block: u64) -> u64 {
        des_rounds(block, key_schedule(key).into_iter().rev())
    }

    fn split(key: &[u8; 24]) -> [[u8; 8]; 3] {
        std::array::from_fn(|i| key[8 * i..8 * i + 8].try_into().unwrap())
    }

    /// Three full DES passes, each with its own IP and FP.
    pub(crate) fn tdes_encrypt(key: &[u8; 24], block: u64) -> u64 {
        let [k1, k2, k3] = split(key);
        des_encrypt(&k3, des_decrypt(&k2, des_encrypt(&k1, block)))
    }

    pub(crate) fn tdes_decrypt(key: &[u8; 24], block: u64) -> u64 {
        let [k1, k2, k3] = split(key);
        des_decrypt(&k1, des_encrypt(&k2, des_decrypt(&k3, block)))
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn enc(key: u64, pt: u64) -> u64 {
        Des::new(&key.to_be_bytes()).encrypt_block(pt)
    }

    #[test]
    fn classic_walkthrough_vector() {
        // The widely published DES walkthrough (key 133457799BBCDFF1).
        assert_eq!(
            enc(0x1334_5779_9BBC_DFF1, 0x0123_4567_89AB_CDEF),
            0x85E8_1354_0F0A_B405
        );
    }

    #[test]
    fn nist_style_vectors() {
        // Weak key of all zeros.
        assert_eq!(enc(0, 0), 0x8CA6_4DE9_C1B1_23A7);
        // All-ones key and plaintext.
        assert_eq!(
            enc(0xFFFF_FFFF_FFFF_FFFF, 0xFFFF_FFFF_FFFF_FFFF),
            0x7359_B216_3E4E_DC58
        );
    }

    #[test]
    fn sp800_17_variable_plaintext() {
        // NIST SP 800-17 Table A.1, first eight rows: key 0101010101010101,
        // plaintext a single bit walking down from the MSB.
        const CT: [u64; 8] = [
            0x95F8_A5E5_DD31_D900,
            0xDD7F_121C_A501_5619,
            0x2E86_5310_4F38_34EA,
            0x4BD3_88FF_6CD8_1D4F,
            0x20B9_E767_B2FB_1456,
            0x5557_9380_D771_38EF,
            0x6CC5_DEFA_AF04_512F,
            0x0D9F_279B_A5D8_7260,
        ];
        let des = Des::new(&[1; 8]);
        for (i, &ct) in CT.iter().enumerate() {
            let pt = 1u64 << (63 - i);
            assert_eq!(des.encrypt_block(pt), ct, "row {i}");
            assert_eq!(des.decrypt_block(ct), pt, "row {i}");
        }
        // The same rows four at a time through the four-lane kernel.
        for (group, cts) in CT.chunks_exact(4).enumerate() {
            let pts = des.decrypt4(cts.try_into().unwrap());
            for (lane, pt) in pts.into_iter().enumerate() {
                let row = 4 * group + lane;
                assert_eq!(pt, 1u64 << (63 - row), "row {row}");
            }
        }
    }

    #[test]
    fn sp800_17_variable_key() {
        // NIST SP 800-17 Table A.2, first eight rows: plaintext zero, one
        // non-parity key bit set over the odd-parity base 0101010101010101
        // (the eighth row skips the first byte's parity bit).
        const ROWS: [(u64, u64); 8] = [
            (0x8001_0101_0101_0101, 0x95A8_D728_13DA_A94D),
            (0x4001_0101_0101_0101, 0x0EEC_1487_DD8C_26D5),
            (0x2001_0101_0101_0101, 0x7AD1_6FFB_79C4_5926),
            (0x1001_0101_0101_0101, 0xD374_6294_CA6A_6CF3),
            (0x0801_0101_0101_0101, 0x809F_5F87_3C1F_D761),
            (0x0401_0101_0101_0101, 0xC02F_AFFE_C989_D1FC),
            (0x0201_0101_0101_0101, 0x4615_AA1D_33E7_2F10),
            (0x0180_0101_0101_0101, 0x2055_1233_50C0_0858),
        ];
        for (key, ct) in ROWS {
            let des = Des::new(&key.to_be_bytes());
            assert_eq!(des.encrypt_block(0), ct, "key {key:016X}");
            assert_eq!(des.decrypt_block(ct), 0, "key {key:016X}");
            assert_eq!(des.decrypt4([ct; 4]), [0; 4], "key {key:016X}");
        }
    }

    #[test]
    fn sp800_67_three_key_vector() {
        // NIST SP 800-67 Appendix B.1: "The qufck brown fox jump" under
        // three distinct keys, block by block.
        let tdes = TripleDes::new(&[
            0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD,
            0xEF, 0x01, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF, 0x01, 0x23,
        ]);
        let vectors = [
            (0x5468_6520_7175_6663, 0xA826_FD8C_E53B_855F),
            (0x6B20_6272_6F77_6E20, 0xCCE2_1C81_1225_6FE6),
            (0x666F_7820_6A75_6D70, 0x68D5_C05D_D9B6_B900),
        ];
        for (pt, ct) in vectors {
            assert_eq!(tdes.encrypt_block(pt), ct);
            assert_eq!(tdes.decrypt_block(ct), pt);
        }
        // All three in one four-lane pass, the last repeated in the fourth
        // lane as CBC decryption does for a three-block tail.
        let [(p0, c0), (p1, c1), (p2, c2)] = vectors;
        assert_eq!(tdes.decrypt4([c0, c1, c2, c2]), [p0, p1, p2, p2]);
    }

    #[test]
    fn permutations_match_the_standards_tables() {
        // A permutation is linear over XOR, so the 64 single-bit blocks
        // prove the delta-swap networks equal to IP and FP for every input.
        for bit in 0..64 {
            let block = 1u64 << bit;
            let (l, r) = initial_permutation(block);
            let ip = (u64::from(l.rotate_left(1)) << 32) | u64::from(r.rotate_left(1));
            assert_eq!(ip, permute(block, 64, &IP), "IP bit {bit}");
            let (l, r) = ((block >> 32) as u32, block as u32);
            assert_eq!(
                final_permutation(l.rotate_right(1), r.rotate_right(1)),
                permute(block, 64, &FP),
                "FP bit {bit}"
            );
        }
    }

    #[test]
    fn triple_des_with_equal_keys_degenerates_to_des() {
        // EDE with K1 = K2 = K3 must equal single DES.
        let mut key24 = [0u8; 24];
        for part in key24.chunks_mut(8) {
            part.copy_from_slice(b"testkey!");
        }
        let block = u64::from_be_bytes(*b"datadata");
        assert_eq!(
            TripleDes::new(&key24).encrypt_block(block),
            Des::new(b"testkey!").encrypt_block(block)
        );
    }

    #[test]
    fn decrypt_inverts_all_round_structure() {
        // Exhaustive-ish sweep of structured blocks.
        let des = Des::new(&0xA5A5_A5A5_5A5A_5A5Au64.to_be_bytes());
        for i in 0..64u64 {
            let pt = 1u64 << i;
            assert_eq!(des.decrypt_block(des.encrypt_block(pt)), pt, "bit {i}");
        }
    }

    /// `vpternlogq` on `u64`s: bit `i` of the result is bit
    /// `4·a_i + 2·b_i + c_i` of `imm`.
    fn ternlog(imm: u8, a: u64, b: u64, c: u64) -> u64 {
        (0..8)
            .filter(|idx| imm >> idx & 1 == 1)
            .map(|idx| {
                let pick = |v: u64, bit: u32| if idx >> bit & 1 == 1 { v } else { !v };
                pick(a, 2) & pick(b, 1) & pick(c, 0)
            })
            .fold(0, |acc, minterm| acc | minterm)
    }

    #[test]
    fn sbox_circuits_compute_the_sboxes() {
        // Bit x of input plane j is bit j of the six-bit input x (x0 its
        // most significant), so one evaluation of the circuit covers all
        // 64 inputs: the bitsliced kernel's shape, eight leaves on x3, x4,
        // x5 and a mux tree on x2, x1, x0, with `u64` lanes.
        let x: [u64; 6] = std::array::from_fn(|j| {
            (0..64u64)
                .filter(|v| v >> (5 - j) & 1 == 1)
                .fold(0, |acc, v| acc | 1 << v)
        });
        let mux = |sel, one, zero| ternlog(0xCA, sel, one, zero);
        for (s, (sbox, circuits)) in SBOX.iter().zip(&SBOX_LEAVES).enumerate() {
            for (t, imms) in circuits.iter().enumerate() {
                let leaves = imms.map(|imm| ternlog(imm, x[3], x[4], x[5]));
                let by_x01: [u64; 4] =
                    std::array::from_fn(|i| mux(x[2], leaves[2 * i + 1], leaves[2 * i]));
                let by_x0 = [
                    mux(x[1], by_x01[1], by_x01[0]),
                    mux(x[1], by_x01[3], by_x01[2]),
                ];
                let got = mux(x[0], by_x0[1], by_x0[0]);
                let want = (0..64usize)
                    .filter(|&v| {
                        let row = ((v & 0x20) >> 4) | (v & 1);
                        let col = (v >> 1) & 0xF;
                        sbox[row * 16 + col] >> (3 - t) & 1 == 1
                    })
                    .fold(0u64, |acc, v| acc | 1 << v);
                assert_eq!(got, want, "S{} output bit {t}", s + 1);
            }
        }
    }

    #[test]
    fn avalanche_property() {
        // Flipping one plaintext bit should flip many ciphertext bits.
        let des = Des::new(&0x0E32_9232_EA6D_0D73u64.to_be_bytes());
        let c1 = des.encrypt_block(0x8787_8787_8787_8787);
        let c2 = des.encrypt_block(0x8787_8787_8787_8786);
        let diff = (c1 ^ c2).count_ones();
        assert!(diff > 10, "weak avalanche: only {diff} bits differ");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The table-driven kernel equals the bit-at-a-time oracle, both
        /// directions, for any key and block.
        #[test]
        fn des_matches_reference(key in any::<u64>(), block in any::<u64>()) {
            let key = key.to_be_bytes();
            let des = Des::new(&key);
            prop_assert_eq!(des.encrypt_block(block), reference::des_encrypt(&key, block));
            prop_assert_eq!(des.decrypt_block(block), reference::des_decrypt(&key, block));
        }

        /// The fused 48-round pass equals three separate DES passes.
        #[test]
        fn triple_des_matches_reference(
            k1 in any::<u64>(),
            k2 in any::<u64>(),
            k3 in any::<u64>(),
            block in any::<u64>(),
        ) {
            let mut key = [0u8; 24];
            for (part, k) in key.chunks_exact_mut(8).zip([k1, k2, k3]) {
                part.copy_from_slice(&k.to_be_bytes());
            }
            let tdes = TripleDes::new(&key);
            prop_assert_eq!(tdes.encrypt_block(block), reference::tdes_encrypt(&key, block));
            prop_assert_eq!(tdes.decrypt_block(block), reference::tdes_decrypt(&key, block));
        }
    }
}
