//! AES-128/-256 (FIPS 197), table-driven: the portable kernel.
//!
//! The paper notes "there are other, more secure, algorithms that run faster
//! than DES" (§9.2.1); AES is the canonical such choice today and is offered
//! as a partition cipher alongside DES/3DES.
//!
//! Nothing is transcribed: the S-box is derived algebraically
//! (multiplicative inverse in GF(2⁸) followed by the affine transform), and
//! from it four 256-entry `u32` tables per direction (`TE`, `TD`, 8 KB
//! together) that fuse SubBytes, ShiftRows and MixColumns, so a round is
//! sixteen lookups and sixteen XORs on four column words. All tables are
//! built at compile time. Decryption uses FIPS 197 §5.3.5's equivalent
//! inverse cipher: the round keys are reversed and passed through
//! InvMixColumns once, at keying time, so both directions run the same loop.
//! The byte-at-a-time formulation of §5.1 and §5.3 survives as the test
//! oracle (`reference`), and the whole cipher is verified against the
//! FIPS 197 appendix vectors.
//!
//! Table lookups indexed by key-dependent bytes leak key bits through
//! cache timing. Where the CPU has AES-NI, [`crate::cbc::Cbc`] runs that
//! instead (`x86::AesNi`, keyed from this schedule), which has no such
//! leak; these tables are the fallback elsewhere, and its test oracle.

/// Multiplies two elements of GF(2⁸) modulo the AES polynomial x⁸+x⁴+x³+x+1.
const fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut out = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            out ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1B;
        }
        b >>= 1;
    }
    out
}

/// Computes the multiplicative inverse in GF(2⁸) (0 maps to 0).
const fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^254 = a^-1 in GF(2^8); square-and-multiply over the 254 = 0b11111110
    // exponent.
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u8;
    while exp != 0 {
        if exp & 1 != 0 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

const fn sbox() -> [u8; 256] {
    let mut sbox = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let x = gf_inv(i as u8);
        sbox[i] =
            x ^ x.rotate_left(1) ^ x.rotate_left(2) ^ x.rotate_left(3) ^ x.rotate_left(4) ^ 0x63;
        i += 1;
    }
    sbox
}

const fn inv_sbox() -> [u8; 256] {
    let sbox = sbox();
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[sbox[i] as usize] = i as u8;
        i += 1;
    }
    inv
}

/// Builds the four round tables of one direction. Table 0 maps a state byte
/// `x` to the MixColumns (or InvMixColumns) column `coeffs · sub[x]`, first
/// coefficient in the most significant byte; table `j` is table 0 rotated
/// right by `j` bytes, for the byte ShiftRows brings in from row `j`.
const fn round_tables(sub: [u8; 256], coeffs: [u8; 4]) -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = sub[x];
        let column = u32::from_be_bytes([
            gf_mul(s, coeffs[0]),
            gf_mul(s, coeffs[1]),
            gf_mul(s, coeffs[2]),
            gf_mul(s, coeffs[3]),
        ]);
        let mut j = 0;
        while j < 4 {
            t[j][x] = column.rotate_right(8 * j as u32);
            j += 1;
        }
        x += 1;
    }
    t
}

static SBOX: [u8; 256] = sbox();
static INV_SBOX: [u8; 256] = inv_sbox();
/// Encryption round tables: SubBytes then the MixColumns column (2, 1, 1, 3).
static TE: [[u32; 256]; 4] = round_tables(sbox(), [2, 1, 1, 3]);
/// Decryption round tables: InvSubBytes then the InvMixColumns column
/// (14, 9, 13, 11).
static TD: [[u32; 256]; 4] = round_tables(inv_sbox(), [14, 9, 13, 11]);

/// Maximum number of round keys (AES-256: 15 round keys of four words).
const MAX_ROUND_KEYS: usize = 15;

/// One round key: four big-endian column words.
type RoundKey = [u32; 4];

/// Byte `row` (0 = most significant) of a column word, as a table index.
#[inline(always)]
fn byte(column: u32, row: usize) -> usize {
    (column >> (24 - 8 * row)) as usize & 0xFF
}

/// Runs the cipher, or with `DECRYPT` the equivalent inverse cipher, over one
/// block under `keys` (`rounds + 1` round keys in the order they are used).
#[inline(always)]
fn crypt<const DECRYPT: bool>(block: u128, keys: &[RoundKey]) -> u128 {
    let (tables, sub) = if DECRYPT {
        (&TD, &INV_SBOX)
    } else {
        (&TE, &SBOX)
    };
    // ShiftRows takes row r of output column i from column i + r; its
    // inverse, from column i - r.
    let from = |i: usize, row: usize| {
        if DECRYPT {
            (i + 4 - row) % 4
        } else {
            (i + row) % 4
        }
    };
    let [first, middle @ .., last] = keys else {
        unreachable!("a key schedule has at least two round keys");
    };
    let mut s: [u32; 4] = std::array::from_fn(|i| (block >> (96 - 32 * i)) as u32 ^ first[i]);
    for k in middle {
        s = std::array::from_fn(|i| {
            tables[0][byte(s[i], 0)]
                ^ tables[1][byte(s[from(i, 1)], 1)]
                ^ tables[2][byte(s[from(i, 2)], 2)]
                ^ tables[3][byte(s[from(i, 3)], 3)]
                ^ k[i]
        });
    }
    // The last round has no MixColumns: plain substitution, row by row.
    (0..4).fold(0u128, |out, i| {
        let column = u32::from_be_bytes(std::array::from_fn(|row| sub[byte(s[from(i, row)], row)]))
            ^ last[i];
        (out << 32) | u128::from(column)
    })
}

/// An AES instance holding the key schedule expanded for both directions.
pub struct Aes {
    enc: [RoundKey; MAX_ROUND_KEYS],
    dec: [RoundKey; MAX_ROUND_KEYS],
    rounds: usize,
}

impl Aes {
    /// Keys AES-128 (10 rounds).
    pub fn new_128(key: &[u8; 16]) -> Self {
        Self::expand(key, 10)
    }

    /// Keys AES-256 (14 rounds).
    pub fn new_256(key: &[u8; 32]) -> Self {
        Self::expand(key, 14)
    }

    /// Expands `key` into `rounds + 1` round keys per direction.
    fn expand(key: &[u8], rounds: usize) -> Self {
        let sub_word = |w: u32| u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[b as usize]));
        let nk = key.len() / 4;
        let mut w = [0u32; 4 * MAX_ROUND_KEYS];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        let mut rcon = 1u8;
        for i in nk..4 * (rounds + 1) {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ (u32::from(rcon) << 24);
                rcon = gf_mul(rcon, 2);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            w[i] = w[i - nk] ^ temp;
        }
        let mut enc = [[0u32; 4]; MAX_ROUND_KEYS];
        for (rk, words) in enc.iter_mut().zip(w.chunks_exact(4)) {
            rk.copy_from_slice(words);
        }
        // Equivalent inverse cipher: the same round keys backwards, the
        // inner ones taken through InvMixColumns (TD undoes the S-box it is
        // fed through, leaving the column multiply).
        let mut dec = [[0u32; 4]; MAX_ROUND_KEYS];
        for (r, rk) in dec.iter_mut().take(rounds + 1).enumerate() {
            *rk = enc[rounds - r];
            if r != 0 && r != rounds {
                *rk = rk
                    .map(|w| (0..4).fold(0, |acc, row| acc ^ TD[row][SBOX[byte(w, row)] as usize]));
            }
        }
        Aes { enc, dec, rounds }
    }

    /// The encryption and (equivalent-inverse) decryption round keys, in
    /// the order each direction uses them.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(crate) fn round_keys(&self) -> (&[RoundKey], &[RoundKey]) {
        (&self.enc[..=self.rounds], &self.dec[..=self.rounds])
    }

    /// Encrypts one block, taken and returned as a big-endian integer.
    #[inline]
    pub fn encrypt_block(&self, block: u128) -> u128 {
        crypt::<false>(block, &self.enc[..=self.rounds])
    }

    /// Decrypts one block, taken and returned as a big-endian integer.
    #[inline]
    pub fn decrypt_block(&self, block: u128) -> u128 {
        crypt::<true>(block, &self.dec[..=self.rounds])
    }
}

/// FIPS 197 §5.1 and §5.3 as written, a byte at a time: SubBytes, ShiftRows,
/// MixColumns and AddRoundKey over a 16-byte state, and the straightforward
/// inverse cipher. Kept as the oracle the table-driven kernel is tested
/// against.
#[cfg(test)]
pub(crate) mod reference {
    use super::{gf_mul, INV_SBOX, SBOX};

    /// Expands `key` into `rounds + 1` 16-byte round keys.
    fn expand(key: &[u8]) -> Vec<[u8; 16]> {
        let nk = key.len() / 4;
        let rounds = nk + 6;
        let mut w: Vec<[u8; 4]> = key.chunks(4).map(|c| c.try_into().unwrap()).collect();
        let mut rcon = 1u8;
        for i in nk..4 * (rounds + 1) {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                temp = temp.map(|b| SBOX[b as usize]);
                temp[0] ^= rcon;
                rcon = gf_mul(rcon, 2);
            } else if nk > 6 && i % nk == 4 {
                temp = temp.map(|b| SBOX[b as usize]);
            }
            w.push(std::array::from_fn(|j| w[i - nk][j] ^ temp[j]));
        }
        w.chunks(4)
            .map(|rk| std::array::from_fn(|i| rk[i / 4][i % 4]))
            .collect()
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk.iter()) {
            *s ^= k;
        }
    }

    /// State layout is column-major: byte `state[c*4 + r]` is row `r`,
    /// column `c`, matching the FIPS 197 input ordering.
    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[c * 4 + r] = s[((c + r) % 4) * 4 + r];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[((c + r) % 4) * 4 + r] = s[c * 4 + r];
            }
        }
    }

    /// Multiplies every column by the circulant matrix whose first row is
    /// `m`.
    fn mix_columns(state: &mut [u8; 16], m: [u8; 4]) {
        for col in state.chunks_mut(4) {
            let c: [u8; 4] = col.try_into().unwrap();
            for r in 0..4 {
                col[r] = (0..4).fold(0, |acc, j| acc ^ gf_mul(c[j], m[(j + 4 - r) % 4]));
            }
        }
    }

    pub(crate) fn encrypt(key: &[u8], block: u128) -> u128 {
        let rks = expand(key);
        let rounds = rks.len() - 1;
        let mut state = block.to_be_bytes();
        add_round_key(&mut state, &rks[0]);
        for (round, rk) in rks.iter().enumerate().skip(1) {
            state = state.map(|b| SBOX[b as usize]);
            shift_rows(&mut state);
            if round != rounds {
                mix_columns(&mut state, [2, 3, 1, 1]);
            }
            add_round_key(&mut state, rk);
        }
        u128::from_be_bytes(state)
    }

    pub(crate) fn decrypt(key: &[u8], block: u128) -> u128 {
        let rks = expand(key);
        let rounds = rks.len() - 1;
        let mut state = block.to_be_bytes();
        add_round_key(&mut state, &rks[rounds]);
        for round in (0..rounds).rev() {
            inv_shift_rows(&mut state);
            state = state.map(|b| INV_SBOX[b as usize]);
            add_round_key(&mut state, &rks[round]);
            if round != 0 {
                mix_columns(&mut state, [14, 11, 13, 9]);
            }
        }
        u128::from_be_bytes(state)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn sbox_known_entries() {
        // Spot values from the FIPS 197 S-box table.
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
        // Inverse really inverts.
        for i in 0..=255usize {
            assert_eq!(INV_SBOX[SBOX[i] as usize], i as u8);
        }
    }

    #[test]
    fn round_table_known_entries() {
        // Te0[0] = (2·63, 63, 63, 3·63) and Td0[0] = (e·52, 9·52, d·52, b·52),
        // as in every published T-table listing.
        assert_eq!(TE[0][0], 0xc663_63a5);
        assert_eq!(TE[1][0], 0xa5c6_6363);
        assert_eq!(TD[0][0], 0x51f4_a750);
        assert_eq!(TD[3][0], 0xf4a7_5051);
    }

    const BLOCK: u128 = 0x0011_2233_4455_6677_8899_aabb_ccdd_eeff;

    #[test]
    fn fips197_aes128_vector() {
        // FIPS 197 Appendix C.1.
        let key: [u8; 16] = std::array::from_fn(|i| i as u8);
        let aes = Aes::new_128(&key);
        let ct = 0x69c4_e0d8_6a7b_0430_d8cd_b780_70b4_c55a;
        assert_eq!(aes.encrypt_block(BLOCK), ct);
        assert_eq!(aes.decrypt_block(ct), BLOCK);
    }

    #[test]
    fn fips197_aes256_vector() {
        // FIPS 197 Appendix C.3.
        let key: [u8; 32] = std::array::from_fn(|i| i as u8);
        let aes = Aes::new_256(&key);
        let ct = 0x8ea2_b7ca_5167_45bf_eafc_4990_4b49_6089;
        assert_eq!(aes.encrypt_block(BLOCK), ct);
        assert_eq!(aes.decrypt_block(ct), BLOCK);
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS 197 Appendix B: key 2b7e151628aed2a6abf7158809cf4f3c.
        let key = 0x2b7e_1516_28ae_d2a6_abf7_1588_09cf_4f3cu128.to_be_bytes();
        assert_eq!(
            Aes::new_128(&key).encrypt_block(0x3243_f6a8_885a_308d_3131_98a2_e037_0734),
            0x3925_841d_02dc_09fb_dc11_8597_196a_0b32
        );
    }

    #[test]
    fn gf_mul_properties() {
        assert_eq!(gf_mul(0x57, 0x83), 0xc1); // FIPS 197 §4.2 example.
        assert_eq!(gf_mul(0x57, 0x13), 0xfe);
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "inverse of {a:#x}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The table-driven kernel equals the byte-at-a-time oracle, both
        /// directions and both key sizes, for any key and block.
        #[test]
        fn aes_matches_reference(
            k in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            b in (any::<u64>(), any::<u64>()),
        ) {
            let mut key = [0u8; 32];
            for (part, k) in key.chunks_exact_mut(8).zip([k.0, k.1, k.2, k.3]) {
                part.copy_from_slice(&k.to_be_bytes());
            }
            let block = u128::from(b.0) << 64 | u128::from(b.1);
            let key128: [u8; 16] = key[..16].try_into().unwrap();
            for (aes, key) in [(Aes::new_128(&key128), &key[..16]), (Aes::new_256(&key), &key[..])] {
                prop_assert_eq!(aes.encrypt_block(block), reference::encrypt(key, block));
                prop_assert_eq!(aes.decrypt_block(block), reference::decrypt(key, block));
            }
        }
    }
}
