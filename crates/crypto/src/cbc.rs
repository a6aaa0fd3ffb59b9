//! CBC mode with PKCS#7 padding over the crate's block ciphers.
//!
//! All bulk encryption in TDB (chunk headers, chunk bodies, backup streams)
//! runs in CBC mode, as in the paper (§9.2.1: "3DES in CBC mode", "DES in
//! CBC mode"). Each encrypted unit carries its own fresh IV, so identical
//! plaintexts written at different times yield unrelated ciphertexts — part
//! of the paper's resistance to traffic-monitoring attacks (§1.2).
//!
//! A buffer is one CBC chain, or [`CHAINS`] interleaved ones: block `i`
//! then chains to block `i − CHAINS`, and chain `j` starts from its own IV.
//! The IV a caller passes says which: one block for one chain, `CHAINS`
//! blocks for interleaved chains. [`Cbc::chain_ivs`] derives the chain IVs
//! of a body from its one stored IV, enciphered (`E_K(IV ⊕ j)`), never used
//! bare, and [`Cbc::decrypt_chained`] opens a body from that IV. Chains are
//! independent, so one interleaved buffer enciphers `CHAINS` blocks a step
//! where one chain waits on every block.
//!
//! [`Cbc`] holds the keyed cipher itself, not a trait object: a whole run of
//! blocks is dispatched on the cipher once and then ciphered by a loop
//! compiled for that cipher, over `u64` or `u128` blocks. AES runs on
//! AES-NI where the CPU has it, chosen when the `Cbc` is keyed and carried
//! in the cipher enum.
//!
//! Encryption runs *lanes*, a lane being one chain of one buffer:
//! [`Cbc::encrypt_many`] takes the lanes of a whole batch, a block of each
//! per step, DES and 3DES 256 at a time bitsliced on AVX-512 or four
//! through `encrypt4`, AES-NI four, and a lone lane one block after
//! another. Decryption is parallel within a buffer: DES and 3DES decrypt
//! one of `BITSLICE_MIN_BLOCKS` or more bitsliced, 256 blocks a pass, and
//! others four blocks at a time through `decrypt4`, a last group of one to
//! three with its final block repeated in the spare lanes. AES-NI
//! pipelines its own groups of four. Only the offset of the chaining XOR
//! depends on the chain count. Opening a DES or 3DES body of 64 to 252
//! blocks, the one bitsliced pass that deciphers it enciphers its chain IVs
//! in its last four lanes; elsewhere one four-lane step derives them first.
//!
//! Kernel times on one core of an AVX-512 Xeon, release build: the least
//! of 40 runs of 20 calls of `Cbc::encrypt` and `Cbc::decrypt` on a
//! 1000-byte buffer, one chain → `CHAINS`, µs:
//!
//! | cipher  | encrypt      | decrypt     |
//! |---------|--------------|-------------|
//! | DES     | 13.4 → 5.6   | 1.8 → 1.8   |
//! | 3DES    | 35.1 → 14.7  | 3.8 → 3.8   |
//! | AES-128 | 0.78 → 0.32  | 0.17 → 0.17 |
//!
//! Four chains fill the four-lane kernels, and the table DES and 3DES
//! kernels then encipher at their four-lane decryption rate (44 and 117 ns
//! a block): more chains would need a wider kernel to gain anything.

use rand::RngCore;

use crate::aes::Aes;
use crate::des::{BitslicedDes, Des, TripleDes, PASS_BLOCKS};
use crate::{CipherKind, CryptoError};

/// How many CBC chains an interleaved buffer holds: block `i` chains to
/// block `i − CHAINS`. Four fill the four-lane kernels with one buffer.
pub const CHAINS: usize = 4;

/// The most IV bytes one buffer takes: a chain IV per chain, of the
/// largest block (AES's 16 bytes).
pub const MAX_IVS: usize = CHAINS * 16;

/// A keyed block cipher of one of the supported kinds.
// One per partition and long-lived: the key schedules stay inline (3DES is
// the largest at 768 bytes) so the block loops reach them without a pointer
// chase.
#[allow(clippy::large_enum_variant)]
enum Cipher {
    Null,
    Des(Des),
    TripleDes(TripleDes),
    Aes(Aes),
    #[cfg(target_arch = "x86_64")]
    AesNi(crate::x86::AesNi),
}

impl Cipher {
    /// AES on AES-NI where the CPU has it, decided once, here; the table
    /// kernel otherwise.
    fn aes(aes: Aes) -> Cipher {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = crate::x86::AesNi::new(&aes) {
            return Cipher::AesNi(ni);
        }
        Cipher::Aes(aes)
    }
}

/// A cipher block as the integer, or the vector, the kernels work on.
pub(crate) trait Block: Copy {
    fn load(bytes: &[u8]) -> Self;
    fn store(self, bytes: &mut [u8]);
    fn xor(self, other: Self) -> Self;
}

macro_rules! big_endian_block {
    ($($ty:ty),*) => {$(
        impl Block for $ty {
            #[inline(always)]
            fn load(bytes: &[u8]) -> Self {
                <$ty>::from_be_bytes(bytes.try_into().expect("one whole block"))
            }
            #[inline(always)]
            fn store(self, bytes: &mut [u8]) {
                bytes.copy_from_slice(&self.to_be_bytes());
            }
            #[inline(always)]
            fn xor(self, other: Self) -> Self {
                self ^ other
            }
        }
    )*};
}

big_endian_block!(u8, u64, u128);

/// An AES block in the byte order AES-NI takes it.
#[cfg(target_arch = "x86_64")]
impl Block for std::arch::x86_64::__m128i {
    fn load(bytes: &[u8]) -> Self {
        crate::x86::load(bytes)
    }
    fn store(self, bytes: &mut [u8]) {
        crate::x86::store(self, bytes);
    }
    fn xor(self, other: Self) -> Self {
        // SAFETY: SSE2 is part of every x86-64 CPU.
        unsafe { std::arch::x86_64::_mm_xor_si128(self, other) }
    }
}

/// One buffer of [`Cbc::encrypt_many`], as [`Cbc::encrypt_padded`] takes
/// it: its IV (one block, or `CHAINS` chain IVs), the buffer, and the
/// plaintext length.
pub type Job<'a> = (&'a [u8], &'a mut [u8], usize);

/// The chaining value of the block at byte `at` of `buf`: the ciphertext
/// block `ivs.len()` bytes before it (one block per chain), or the IV of
/// its chain for a chain's first block.
#[inline(always)]
fn chaining<B: Block>(ivs: &[u8], buf: &[u8], at: usize) -> B {
    let bs = size_of::<B>();
    match at.checked_sub(ivs.len()) {
        Some(before) => B::load(&buf[before..before + bs]),
        None => B::load(&ivs[at..at + bs]),
    }
}

/// CBC-encrypts `buf`, a whole number of blocks, in place, one block at a
/// time: each block's chaining value is the ciphertext block `ivs.len()`
/// bytes before it, or its chain's IV.
#[inline(always)]
pub(crate) fn encrypt_blocks<B: Block>(ivs: &[u8], buf: &mut [u8], encrypt: impl Fn(B) -> B) {
    let bs = size_of::<B>();
    if ivs.len() == bs {
        // One chain: the chaining value stays in a register.
        let mut prev = B::load(ivs);
        for block in buf.chunks_exact_mut(bs) {
            prev = encrypt(B::load(block).xor(prev));
            prev.store(block);
        }
        return;
    }
    for at in (0..buf.len()).step_by(bs) {
        let sealed = encrypt(B::load(&buf[at..at + bs]).xor(chaining(ivs, buf, at)));
        sealed.store(&mut buf[at..at + bs]);
    }
}

/// CBC-decrypts `buf`, a whole number of blocks, in place, one block at a
/// time. It goes from the last block back, so every chaining value is
/// still ciphertext when it is read.
#[inline(always)]
fn decrypt_blocks<B: Block>(ivs: &[u8], buf: &mut [u8], decrypt: impl Fn(B) -> B) {
    let bs = size_of::<B>();
    for at in (0..buf.len()).step_by(bs).rev() {
        let plain = decrypt(B::load(&buf[at..at + bs])).xor(chaining(ivs, buf, at));
        plain.store(&mut buf[at..at + bs]);
    }
}

/// CBC-decrypts `buf`, a whole number of `u64` blocks, in place, four
/// blocks per call of `decrypt4`, under `ivs`: one chain, or [`CHAINS`],
/// one 8-byte IV each.
#[inline(always)]
fn decrypt_blocks4(ivs: &[u8], buf: &mut [u8], decrypt4: impl Fn([u64; 4]) -> [u64; 4]) {
    match ivs.len() / 8 {
        1 => decrypt_chains4::<1>(ivs, buf, decrypt4),
        _ => decrypt_chains4::<CHAINS>(ivs, buf, decrypt4),
    }
}

/// [`decrypt_blocks4`] under `K` chains, at most four. A last group of one
/// to three blocks fills the spare lanes with copies of its final block.
#[inline(always)]
fn decrypt_chains4<const K: usize>(
    ivs: &[u8],
    buf: &mut [u8],
    decrypt4: impl Fn([u64; 4]) -> [u64; 4],
) {
    const { assert!(K >= 1 && K <= 4) };
    // The four ciphertext blocks before the group, oldest first: block i
    // of the group chains to `before[4 - K + i]`, or to the group's own
    // block `i - K`.
    let mut before = [0u64; 4];
    for (b, iv) in before[4 - K..].iter_mut().zip(ivs.chunks_exact(8)) {
        *b = u64::load(iv);
    }
    for group in buf.chunks_mut(32) {
        let n = group.len() / 8;
        let ciphertext: [u64; 4] = std::array::from_fn(|i| {
            let i = i.min(n - 1);
            u64::load(&group[8 * i..8 * i + 8])
        });
        let deciphered = decrypt4(ciphertext);
        let plaintext: [u64; 4] = std::array::from_fn(|i| {
            let chain = if i >= K {
                ciphertext[i - K]
            } else {
                before[4 - K + i]
            };
            deciphered[i] ^ chain
        });
        for (i, block) in group.chunks_exact_mut(8).enumerate() {
            plaintext[i].store(block);
        }
        before = ciphertext;
    }
}

/// The fewest blocks worth a bitsliced pass, which costs the same for one
/// block as for [`PASS_BLOCKS`]. Measured on one core of an AVX-512 Xeon,
/// release build, as the median of eleven runs of `Cbc::decrypt_padded`,
/// four-lane table kernel → bitsliced, in µs:
///
/// | blocks | DES         | 3DES         |
/// |--------|-------------|--------------|
/// | 32     | 1.36 → 1.84 | 3.66 → 3.88  |
/// | 38     | 1.70 → 1.85 | 4.59 → 3.88  |
/// | 48     | 2.03 → 1.83 | 5.48 → 3.87  |
/// | 64     | 2.76 → 1.85 | 7.31 → 3.94  |
/// | 125    | 5.46 → 1.84 | 14.57 → 3.87 |
/// | 256    | 10.84 → 1.87 | 29.20 → 3.88 |
///
/// DES breaks even between 38 and 48 blocks; 64 leaves a margin for a
/// noisier host, and keeps a 300-byte record (38 blocks) on `decrypt4`.
const BITSLICE_MIN_BLOCKS: usize = 64;

/// The lanes a job takes, of blocks of `bs` bytes: one per chain that has
/// a block.
fn width((iv, buf, _): &Job<'_>, bs: usize) -> usize {
    iv.len().min(buf.len()) >> bs.trailing_zeros()
}

/// The steps a job takes, of blocks of `bs` bytes: its longest chain.
fn steps((iv, buf, _): &Job<'_>, bs: usize) -> usize {
    let blocks = buf.len() >> bs.trailing_zeros();
    match iv.len() == bs {
        true => blocks,
        false => blocks.div_ceil(CHAINS),
    }
}

/// CBC-encrypts `order`'s jobs, checked and padded, longest first, in
/// groups of at most `W` lanes, `W` no fewer than [`CHAINS`]: a job's
/// chains take consecutive lanes, and each step XORs the next block of
/// every chain into its lane and enciphers all `W` at once. A lane's next
/// block is one run of its buffer on, a run being as long as the job's
/// IV: a block per chain. A lane past its job's end, or a spare one,
/// enciphers a value never stored.
#[inline(always)]
pub(crate) fn encrypt_lanes<B: Block, const W: usize>(
    jobs: &mut [Job<'_>],
    order: &[usize],
    encrypt: impl Fn(&mut [B; W]),
) {
    let bs = size_of::<B>();
    debug_assert!(W >= CHAINS);
    let mut rest = order;
    while !rest.is_empty() {
        let mut lanes = 0;
        let fit = rest.iter().take_while(|&&j| {
            lanes += width(&jobs[j], bs);
            lanes <= W
        });
        let (group, tail) = rest.split_at(fit.count());
        rest = tail;
        // Each job's buffer, taken out of `jobs` while the group runs; each
        // lane's job, its run, and the offset of its next block.
        let mut bufs: [&mut [u8]; W] = std::array::from_fn(|_| Default::default());
        let (mut job_of, mut run, mut at) = ([0usize; W], [0usize; W], [0usize; W]);
        let mut x = [B::load(&[0; 16][..bs]); W];
        let (mut n, mut steps) = (0, 0);
        for (g, &j) in group.iter().enumerate() {
            let job = &mut jobs[j];
            for (chain, iv) in job.0.chunks_exact(bs).take(width(job, bs)).enumerate() {
                x[n] = B::load(iv);
                (job_of[n], run[n], at[n]) = (g, job.0.len(), chain * bs);
                n += 1;
            }
            steps = steps.max(self::steps(job, bs));
            bufs[g] = std::mem::take(&mut job.1);
        }
        for _ in 0..steps {
            for l in 0..n {
                if let Some(block) = bufs[job_of[l]].get(at[l]..at[l] + bs) {
                    x[l] = x[l].xor(B::load(block));
                }
            }
            encrypt(&mut x);
            for l in 0..n {
                if let Some(block) = bufs[job_of[l]].get_mut(at[l]..at[l] + bs) {
                    x[l].store(block);
                }
                at[l] += run[l];
            }
        }
        for (g, &j) in group.iter().enumerate() {
            jobs[j].1 = std::mem::take(&mut bufs[g]);
        }
    }
}

/// The fewest DES or 3DES buffers [`Cbc::encrypt_many`] runs in bitsliced
/// passes, which cost the same for one lane as for [`PASS_BLOCKS`]. A
/// buffer counts once whether it is a body of `CHAINS` chains or a
/// one-chain version header. On one core of an AVX-512 Xeon, release
/// build, four-lane → bitsliced, µs: 1000-byte bodies as the least of two
/// runs of 15 × 10 calls, 22-byte headers as the least of 40 runs of 20:
///
/// | buffers | DES bodies   | 3DES bodies   | DES headers | 3DES headers |
/// |---------|--------------|---------------|-------------|--------------|
/// | 2       | 11.1 → 50.6  | 28.5 → 112.0  |             |              |
/// | 8       | 42.7 → 51.4  | 115.5 → 113.9 |             |              |
/// | 10      | 53.2 → 52.1  | 141.6 → 114.1 |             |              |
/// | 32      | 170.6 → 58.7 | 457.6 → 125.5 |             |              |
/// | 40      |              |               | 5.4 → 6.2   | 12.9 → 12.3  |
/// | 64      |              |               | 8.6 → 6.6   | 20.6 → 12.8  |
/// | 128     |              |               | 17.0 → 8.0  | 41.2 → 14.3  |
///
/// Bodies break even at about ten, DES headers between 40 and 64, 3DES
/// headers below 40. End to end, ten to 39 bodies do not pay: with the
/// threshold at ten, `goods-txn`'s commits of a dozen or more bodies went
/// bitsliced and its traced `txn_p50_us` rose 20–50% over the four-lane
/// kernel's, every layer slower, cache hits included, not only the
/// sealing. So the threshold is 40 buffers, the count one-chain buffers
/// had before bodies were `CHAINS` chains.
const SLICED_MIN_BUFFERS: usize = 40;

/// The fewest DES or 3DES lanes `encrypt_many` runs through `encrypt4`.
const LOCKSTEP_MIN_LANES: usize = 3;

/// The fewest AES-NI lanes `encrypt_many` runs four at a time. 2418-byte
/// buffers of one chain, one at a time → four-lane: one 1.87 → 2.52 µs,
/// two 3.64 → 2.55. A body's chains are its lanes: one of two blocks or
/// more runs four-lane.
const AES_NI_MIN_LANES: usize = 2;

/// CBC-decrypts a DES or 3DES `buf`, a whole number of blocks, in place.
/// With a bitsliced schedule and at least [`BITSLICE_MIN_BLOCKS`] blocks,
/// the bitsliced kernel takes whole passes and a rest long enough to pay
/// for a pass of its own; anything else goes four blocks at a time
/// through `decrypt4`.
#[inline(always)]
fn decrypt_des(
    ivs: &[u8],
    buf: &mut [u8],
    sliced: Option<&BitslicedDes>,
    decrypt4: impl Fn([u64; 4]) -> [u64; 4],
) {
    let blocks = buf.len() / 8;
    let Some(sliced) = sliced.filter(|_| blocks >= BITSLICE_MIN_BLOCKS) else {
        return decrypt_blocks4(ivs, buf, decrypt4);
    };
    let rest = blocks % PASS_BLOCKS;
    let bulk_len = if rest < BITSLICE_MIN_BLOCKS {
        8 * (blocks - rest)
    } else {
        buf.len()
    };
    let (bulk, tail) = buf.split_at_mut(bulk_len);
    // The tail chains to the bulk's last ciphertext blocks, which
    // decrypting the bulk overwrites: it goes first.
    decrypt_blocks4(&bulk[bulk.len() - ivs.len()..], tail, decrypt4);
    sliced.decrypt_cbc(ivs, bulk);
}

/// A keyed block cipher in CBC mode.
pub struct Cbc {
    cipher: Cipher,
    block_size: usize,
}

impl Cbc {
    /// Keys a cipher of the given kind.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadKeyLength`] if `key` is not
    /// [`CipherKind::key_len`] bytes long (the null cipher accepts only an
    /// empty key).
    pub fn new(kind: CipherKind, key: &[u8]) -> Result<Self, CryptoError> {
        let expected = kind.key_len();
        if key.len() != expected {
            return Err(CryptoError::BadKeyLength {
                expected,
                got: key.len(),
            });
        }
        let cipher = match kind {
            CipherKind::Null => Cipher::Null,
            CipherKind::Des => Cipher::Des(Des::new(key.try_into().expect("len checked"))),
            CipherKind::TripleDes => {
                Cipher::TripleDes(TripleDes::new(key.try_into().expect("len checked")))
            }
            CipherKind::Aes128 => Cipher::aes(Aes::new_128(key.try_into().expect("len checked"))),
            CipherKind::Aes256 => Cipher::aes(Aes::new_256(key.try_into().expect("len checked"))),
        };
        Ok(Cbc {
            cipher,
            block_size: kind.block_size(),
        })
    }

    /// Block size of the underlying cipher.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Generates a random IV of the cipher's block size.
    pub fn random_iv(&self) -> Vec<u8> {
        let mut iv = vec![0u8; self.block_size];
        rand::thread_rng().fill_bytes(&mut iv);
        iv
    }

    /// Fills `iv` (which must be block-sized) with fresh random bytes.
    pub fn fill_iv(&self, iv: &mut [u8]) {
        debug_assert_eq!(iv.len(), self.block_size);
        rand::thread_rng().fill_bytes(iv);
    }

    /// Fills `out` with the [`CHAINS`] chain IVs of each body IV in `ivs`
    /// (one block each, back to back), in order: chain `j`'s is
    /// `E_K(IV ⊕ j)`, `j` XORed into the IV's last byte. Enciphered, two
    /// chains' first ciphertext blocks are unrelated even when their
    /// plaintext blocks differ by exactly `j`. One body's take one
    /// four-lane step. Many bodies' encipher as lanes of one kernel call:
    /// a body's `CHAINS` blocks, as the chains of one buffer under zero
    /// IVs, are each enciphered alone.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadIvLength`] unless `ivs` is a nonzero whole
    /// number of blocks and `out` `CHAINS` times as long.
    pub fn chain_ivs(&self, ivs: &[u8], out: &mut [u8]) -> Result<(), CryptoError> {
        let bs = self.block_size;
        if ivs.is_empty() || !ivs.len().is_multiple_of(bs) || out.len() != CHAINS * ivs.len() {
            return Err(CryptoError::BadIvLength {
                expected: bs,
                got: ivs.len(),
            });
        }
        for (iv, chains) in ivs.chunks_exact(bs).zip(out.chunks_exact_mut(CHAINS * bs)) {
            for (j, block) in chains.chunks_exact_mut(bs).enumerate() {
                block.copy_from_slice(iv);
                block[bs - 1] ^= j as u8;
            }
        }
        if ivs.len() == bs {
            self.encipher_chains(out);
        } else {
            let zero = &[0u8; MAX_IVS][..CHAINS * bs];
            let mut jobs: Vec<Job<'_>> = (out.chunks_exact_mut(CHAINS * bs))
                .map(|body| (zero, body, 0))
                .collect();
            self.encrypt_jobs(&mut jobs);
        }
        Ok(())
    }

    /// Enciphers each of the [`CHAINS`] blocks of `blocks` alone, in one
    /// four-lane step where the cipher has one.
    fn encipher_chains(&self, blocks: &mut [u8]) {
        const { assert!(CHAINS == 4) };
        let des4 = |blocks: &mut [u8], encrypt4: &dyn Fn([u64; 4]) -> [u64; 4]| {
            let x = encrypt4(std::array::from_fn(|i| {
                u64::load(&blocks[8 * i..8 * i + 8])
            }));
            for (x, block) in x.into_iter().zip(blocks.chunks_exact_mut(8)) {
                x.store(block);
            }
        };
        match &self.cipher {
            Cipher::Null => {}
            Cipher::Des(c) => des4(blocks, &|x| c.encrypt4(x)),
            Cipher::TripleDes(c) => des4(blocks, &|x| c.encrypt4(x)),
            Cipher::Aes(c) => {
                for block in blocks.chunks_exact_mut(16) {
                    c.encrypt_block(u128::load(block)).store(block);
                }
            }
            #[cfg(target_arch = "x86_64")]
            Cipher::AesNi(c) => c.encipher4(blocks),
        }
    }

    /// Encrypts `plaintext` with PKCS#7 padding under `iv`: one block for
    /// one CBC chain, or [`CHAINS`] blocks for interleaved chains.
    ///
    /// The output length is `plaintext.len()` rounded up to the next whole
    /// multiple of the block size (always at least one padding byte). The
    /// null cipher has a block of one byte, so it adds exactly one padding
    /// byte; its blocks are still chained, each byte XORed with the one
    /// before it in its chain and a chain's first with its one-byte IV.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadIvLength`] if `iv` has the wrong length.
    pub fn encrypt(&self, iv: &[u8], plaintext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let mut out = Vec::new();
        self.encrypt_append(iv, plaintext, &mut out)?;
        Ok(out)
    }

    /// Appends `encrypt(iv, plaintext)` to `out` without intermediate
    /// buffers: the padded plaintext is laid into `out` once and ciphered
    /// in place.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadIvLength`] if `iv` has the wrong length.
    pub fn encrypt_append(
        &self,
        iv: &[u8],
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        let start = out.len();
        out.extend_from_slice(plaintext);
        out.resize(start + self.ciphertext_len(plaintext.len()), 0);
        self.encrypt_padded(iv, &mut out[start..], plaintext.len())
    }

    /// Encrypts in place: `buf` holds `len` bytes of plaintext followed by
    /// room for the padding, [`Cbc::ciphertext_len`]`(len)` bytes in all.
    /// The result is exactly what [`Cbc::encrypt`] returns.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadIvLength`] if `iv` has the wrong length,
    /// and [`CryptoError::BadCiphertextLength`] if `buf` is not
    /// `ciphertext_len(len)` bytes long.
    pub fn encrypt_padded(&self, iv: &[u8], buf: &mut [u8], len: usize) -> Result<(), CryptoError> {
        self.pad(iv, buf, len)?;
        self.encrypt_jobs(&mut [(iv, buf, len)]);
        Ok(())
    }

    /// Encrypts every job in place exactly as [`Cbc::encrypt_padded`]
    /// would, the chains of all the buffers as lanes where the cipher has
    /// a kernel for them (the module docs; `SLICED_MIN_BUFFERS` has the
    /// thresholds).
    ///
    /// # Errors
    ///
    /// As [`Cbc::encrypt_padded`], for the first bad job; then no job is
    /// encrypted.
    pub fn encrypt_many(&self, jobs: &mut [Job<'_>]) -> Result<(), CryptoError> {
        for (iv, buf, len) in jobs.iter_mut() {
            self.pad(iv, buf, *len)?;
        }
        self.encrypt_jobs(jobs);
        Ok(())
    }

    /// CBC-encrypts every job, checked and padded, in place, as lanes of
    /// [`Cbc::encrypt_lanes`], the longest jobs first (one job needs no
    /// order, and no allocation).
    fn encrypt_jobs(&self, jobs: &mut [Job<'_>]) {
        if jobs.len() == 1 {
            return self.encrypt_lanes(jobs, &[0]);
        }
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&j| std::cmp::Reverse(steps(&jobs[j], self.block_size)));
        self.encrypt_lanes(jobs, &order);
    }

    /// Runs `order`'s jobs on the widest kernel their lanes pay for:
    /// bitsliced passes of up to [`PASS_BLOCKS`] lanes while
    /// `SLICED_MIN_BUFFERS` jobs remain, four at a time from
    /// `LOCKSTEP_MIN_LANES` or `AES_NI_MIN_LANES`, and below that, or for a
    /// cipher without lanes, one block after another.
    fn encrypt_lanes(&self, jobs: &mut [Job<'_>], order: &[usize]) {
        let bs = self.block_size;
        let (sliced, min_lanes) = match &self.cipher {
            Cipher::Des(c) => (c.sliced.as_ref(), LOCKSTEP_MIN_LANES),
            Cipher::TripleDes(c) => (c.sliced.as_ref(), LOCKSTEP_MIN_LANES),
            #[cfg(target_arch = "x86_64")]
            Cipher::AesNi(_) => (None, AES_NI_MIN_LANES),
            _ => (None, usize::MAX),
        };
        let mut rest = order;
        while let Some(sliced) = sliced.filter(|_| rest.len() >= SLICED_MIN_BUFFERS) {
            let mut pass = 0;
            let fit = rest.iter().take_while(|&&j| {
                pass += width(&jobs[j], bs);
                pass <= PASS_BLOCKS
            });
            let (group, tail) = rest.split_at(fit.count());
            encrypt_lanes(jobs, group, |x| sliced.encrypt_pass(x));
            rest = tail;
        }
        let lanes: usize = rest.iter().map(|&j| width(&jobs[j], bs)).sum();
        if lanes >= min_lanes {
            match &self.cipher {
                Cipher::Des(c) => encrypt_lanes(jobs, rest, |x: &mut [u64; 4]| *x = c.encrypt4(*x)),
                Cipher::TripleDes(c) => {
                    encrypt_lanes(jobs, rest, |x: &mut [u64; 4]| *x = c.encrypt4(*x))
                }
                #[cfg(target_arch = "x86_64")]
                Cipher::AesNi(c) => c.encrypt_lanes(jobs, rest),
                _ => unreachable!("no other cipher has lanes"),
            }
            return;
        }
        for &j in rest {
            let (iv, buf, _) = &mut jobs[j];
            match &self.cipher {
                Cipher::Null => encrypt_blocks(iv, buf, |b: u8| b),
                Cipher::Des(c) => encrypt_blocks(iv, buf, |b| c.encrypt_block(b)),
                Cipher::TripleDes(c) => encrypt_blocks(iv, buf, |b| c.encrypt_block(b)),
                Cipher::Aes(c) => encrypt_blocks(iv, buf, |b| c.encrypt_block(b)),
                #[cfg(target_arch = "x86_64")]
                Cipher::AesNi(c) => c.encrypt_blocks(iv, buf),
            }
        }
    }

    /// Checks a job as [`Cbc::encrypt_padded`] takes it; writes its padding.
    fn pad(&self, iv: &[u8], buf: &mut [u8], len: usize) -> Result<(), CryptoError> {
        let bs = self.block_size;
        self.check_iv(iv)?;
        if len > buf.len() || buf.len() != self.ciphertext_len(len) {
            return Err(CryptoError::BadCiphertextLength {
                block: bs,
                got: buf.len(),
            });
        }
        let pad = buf.len() - len;
        buf[len..].fill(pad as u8);
        Ok(())
    }

    /// Checks that `iv` is one block, or [`CHAINS`] blocks.
    fn check_iv(&self, iv: &[u8]) -> Result<(), CryptoError> {
        let bs = self.block_size;
        if iv.len() != bs && iv.len() != CHAINS * bs {
            return Err(CryptoError::BadIvLength {
                expected: bs,
                got: iv.len(),
            });
        }
        Ok(())
    }

    /// Enciphers one block in place with the raw block cipher, no chaining
    /// and no padding (one CBC block under an all-zero IV).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadCiphertextLength`] if `block` is not one
    /// block long.
    pub fn encrypt_block(&self, block: &mut [u8]) -> Result<(), CryptoError> {
        if block.len() != self.block_size {
            return Err(CryptoError::BadCiphertextLength {
                block: self.block_size,
                got: block.len(),
            });
        }
        self.encrypt_jobs(&mut [(&[0u8; 16][..self.block_size], block, 0)]);
        Ok(())
    }

    /// Decrypts `ciphertext` under `iv` (one block, or [`CHAINS`] chain
    /// IVs) and strips PKCS#7 padding.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadCiphertextLength`] for a length that is not
    /// a whole number of blocks, [`CryptoError::BadIvLength`] for a bad IV,
    /// and [`CryptoError::BadPadding`] when padding is malformed — which is
    /// how ciphertext corruption usually first surfaces.
    pub fn decrypt(&self, iv: &[u8], ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let mut out = ciphertext.to_vec();
        let len = self.decrypt_padded(iv, &mut out)?;
        out.truncate(len);
        Ok(out)
    }

    /// Decrypts `buf` in place under `iv` and returns the length of the
    /// plaintext it then starts with, padding checked and left behind.
    ///
    /// # Errors
    ///
    /// As [`Cbc::decrypt`].
    pub fn decrypt_padded(&self, iv: &[u8], buf: &mut [u8]) -> Result<usize, CryptoError> {
        self.check_iv(iv)?;
        self.check_ciphertext(buf)?;
        self.decrypt_in_place(iv, buf);
        self.unpad(buf)
    }

    /// [`Cbc::decrypt`] of a buffer sealed under the [`CHAINS`] chain IVs
    /// [`Cbc::chain_ivs`] derives from the one-block `iv`: a body. One
    /// bitsliced DES or 3DES pass deciphers a body of up to
    /// `PASS_BLOCKS − CHAINS` blocks and enciphers its chain IVs in its
    /// spare lanes, which saves the four-lane step that derives them
    /// otherwise: 1000-byte bodies open in 1.74 µs rather than 1.97 (DES)
    /// and 3.73 rather than 4.25 (3DES) on one core of an AVX-512 Xeon.
    ///
    /// # Errors
    ///
    /// As [`Cbc::decrypt`].
    pub fn decrypt_chained(&self, iv: &[u8], ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let bs = self.block_size;
        if iv.len() != bs {
            return Err(CryptoError::BadIvLength {
                expected: bs,
                got: iv.len(),
            });
        }
        let mut buf = ciphertext.to_vec();
        self.check_ciphertext(&buf)?;
        self.decrypt_chained_in_place(iv, &mut buf);
        let len = self.unpad(&buf)?;
        buf.truncate(len);
        Ok(buf)
    }

    /// CBC-decrypts `buf`, a whole number of blocks, in place under the
    /// chain IVs of the one-block `iv`, padding left in place.
    fn decrypt_chained_in_place(&self, iv: &[u8], buf: &mut [u8]) {
        let bs = self.block_size;
        let sliced = match &self.cipher {
            Cipher::Des(c) => c.sliced.as_ref(),
            Cipher::TripleDes(c) => c.sliced.as_ref(),
            _ => None,
        };
        let one_pass = (BITSLICE_MIN_BLOCKS..=PASS_BLOCKS - CHAINS).contains(&(buf.len() / bs));
        match sliced {
            Some(sliced) if one_pass => sliced.decrypt_chained(iv, buf),
            _ => {
                let mut chains = [0u8; MAX_IVS];
                let chains = &mut chains[..CHAINS * bs];
                self.chain_ivs(iv, chains).expect("one block of IV");
                self.decrypt_in_place(chains, buf);
            }
        }
    }

    /// Checks that `buf` is a nonzero whole number of blocks.
    fn check_ciphertext(&self, buf: &[u8]) -> Result<(), CryptoError> {
        let bs = self.block_size;
        if buf.is_empty() || !buf.len().is_multiple_of(bs) {
            return Err(CryptoError::BadCiphertextLength {
                block: bs,
                got: buf.len(),
            });
        }
        Ok(())
    }

    /// The length of the plaintext a decrypted `buf` starts with, its
    /// PKCS#7 padding checked.
    fn unpad(&self, buf: &[u8]) -> Result<usize, CryptoError> {
        let bs = self.block_size;
        let pad = buf[buf.len() - 1] as usize;
        if pad == 0 || pad > bs || pad > buf.len() {
            return Err(CryptoError::BadPadding);
        }
        if !buf[buf.len() - pad..].iter().all(|&b| b as usize == pad) {
            return Err(CryptoError::BadPadding);
        }
        Ok(buf.len() - pad)
    }

    /// CBC-decrypts `buf`, a whole number of blocks, in place under `ivs`
    /// (one block per chain), padding left in place.
    fn decrypt_in_place(&self, ivs: &[u8], buf: &mut [u8]) {
        match &self.cipher {
            Cipher::Null => decrypt_blocks(ivs, buf, |b: u8| b),
            Cipher::Des(c) => decrypt_des(ivs, buf, c.sliced.as_ref(), |b| c.decrypt4(b)),
            Cipher::TripleDes(c) => decrypt_des(ivs, buf, c.sliced.as_ref(), |b| c.decrypt4(b)),
            Cipher::Aes(c) => decrypt_blocks(ivs, buf, |b| c.decrypt_block(b)),
            #[cfg(target_arch = "x86_64")]
            Cipher::AesNi(c) => c.decrypt_cbc(ivs, buf),
        }
    }

    /// Length of the ciphertext produced for a plaintext of `len` bytes
    /// (including padding, excluding the IV).
    pub fn ciphertext_len(&self, len: usize) -> usize {
        let bs = self.block_size;
        len + (bs - len % bs)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::{aes, des};

    const ALL_KINDS: [CipherKind; 5] = [
        CipherKind::Null,
        CipherKind::Des,
        CipherKind::TripleDes,
        CipherKind::Aes128,
        CipherKind::Aes256,
    ];

    fn cbc(kind: CipherKind) -> Cbc {
        let key = vec![0x42u8; kind.key_len()];
        Cbc::new(kind, &key).unwrap()
    }

    /// One CBC chain over `data`, whole blocks, as this module ran it
    /// before the kernels took whole integers: one block at a time through
    /// the `reference` kernels, a byte-wise XOR against the previous
    /// ciphertext block.
    fn reference_chain(
        kind: CipherKind,
        key: &[u8],
        iv: &[u8],
        data: &[u8],
        encrypt: bool,
    ) -> Vec<u8> {
        let mut out = data.to_vec();
        let mut prev = iv.to_vec();
        for block in out.chunks_mut(kind.block_size()) {
            let saved = block.to_vec();
            if encrypt {
                block.iter_mut().zip(&prev).for_each(|(b, p)| *b ^= p);
                reference_block(kind, key, block, true);
                prev.copy_from_slice(block);
            } else {
                reference_block(kind, key, block, false);
                block.iter_mut().zip(&prev).for_each(|(b, p)| *b ^= p);
                prev = saved;
            }
        }
        out
    }

    /// CBC over `data`, whole blocks, under `ivs`: one block per chain.
    /// Block `i` belongs to chain `i mod chains`; each chain is gathered,
    /// run through [`reference_chain`] under its own IV on its own, and
    /// scattered back. The oracle for every kernel, one chain or many.
    fn reference_chains(
        kind: CipherKind,
        key: &[u8],
        ivs: &[u8],
        data: &[u8],
        encrypt: bool,
    ) -> Vec<u8> {
        let bs = kind.block_size();
        let chains = ivs.len() / bs;
        let blocks: Vec<&[u8]> = data.chunks(bs).collect();
        let mut out = vec![0u8; data.len()];
        for (j, iv) in ivs.chunks(bs).enumerate() {
            let chain: Vec<u8> = blocks
                .iter()
                .skip(j)
                .step_by(chains)
                .flat_map(|b| b.to_vec())
                .collect();
            let done = reference_chain(kind, key, iv, &chain, encrypt);
            for (n, block) in done.chunks(bs).enumerate() {
                let at = bs * (j + n * chains);
                out[at..at + bs].copy_from_slice(block);
            }
        }
        out
    }

    /// CBC with PKCS#7 under `ivs` (one block per chain), on the
    /// `reference` kernels.
    fn reference_encrypt(kind: CipherKind, key: &[u8], ivs: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let bs = kind.block_size();
        let pad = bs - plaintext.len() % bs;
        let mut padded = plaintext.to_vec();
        padded.extend(std::iter::repeat_n(pad as u8, pad));
        reference_chains(kind, key, ivs, &padded, true)
    }

    /// The decrypting counterpart, padding left in place.
    fn reference_decrypt(kind: CipherKind, key: &[u8], ivs: &[u8], ciphertext: &[u8]) -> Vec<u8> {
        reference_chains(kind, key, ivs, ciphertext, false)
    }

    fn reference_block(kind: CipherKind, key: &[u8], block: &mut [u8], encrypt: bool) {
        match kind {
            CipherKind::Null => {}
            CipherKind::Des | CipherKind::TripleDes => {
                let x = u64::from_be_bytes((&*block).try_into().unwrap());
                let y = match (kind, encrypt) {
                    (CipherKind::Des, true) => {
                        des::reference::des_encrypt(key.try_into().unwrap(), x)
                    }
                    (CipherKind::Des, false) => {
                        des::reference::des_decrypt(key.try_into().unwrap(), x)
                    }
                    (_, true) => des::reference::tdes_encrypt(key.try_into().unwrap(), x),
                    (_, false) => des::reference::tdes_decrypt(key.try_into().unwrap(), x),
                };
                block.copy_from_slice(&y.to_be_bytes());
            }
            CipherKind::Aes128 | CipherKind::Aes256 => {
                let x = u128::from_be_bytes((&*block).try_into().unwrap());
                let y = if encrypt {
                    aes::reference::encrypt(key, x)
                } else {
                    aes::reference::decrypt(key, x)
                };
                block.copy_from_slice(&y.to_be_bytes());
            }
        }
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len() / 2)
            .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn roundtrip_all_ciphers_various_lengths() {
        for kind in ALL_KINDS {
            let c = cbc(kind);
            for len in [0usize, 1, 7, 8, 15, 16, 17, 100, 1000] {
                let pt: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
                let iv = c.random_iv();
                let ct = c.encrypt(&iv, &pt).unwrap();
                assert_eq!(ct.len(), c.ciphertext_len(len), "{kind:?} len {len}");
                assert_eq!(c.decrypt(&iv, &ct).unwrap(), pt, "{kind:?} len {len}");
            }
        }
    }

    #[test]
    fn nist_sp800_38a_cbc_vectors() {
        // NIST SP 800-38A F.2.1/F.2.2 (CBC-AES128) and F.2.5/F.2.6
        // (CBC-AES256): all four blocks, encrypt and decrypt. (F.2.3/F.2.4
        // are AES-192, which this crate does not offer.)
        let iv = unhex("000102030405060708090a0b0c0d0e0f");
        let pt = unhex(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
        );
        for (kind, key, ct) in [
            (
                CipherKind::Aes128,
                "2b7e151628aed2a6abf7158809cf4f3c",
                "7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b2\
                 73bed6b8e3c1743b7116e69e222295163ff1caa1681fac09120eca307586e1a7",
            ),
            (
                CipherKind::Aes256,
                "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
                "f58c4c04d6e5f1ba779eabfb5f7bfbd69cfc4e967edb808d679f777bc6702c7d\
                 39f23369a9d9bacfa530e26304231461b2eb05e2c39be9fcda6c19078c6a9d1b",
            ),
        ] {
            let c = Cbc::new(kind, &unhex(key)).unwrap();
            // Our output carries a full padding block after the vector's four.
            let sealed = c.encrypt(&iv, &pt).unwrap();
            assert_eq!(sealed.len(), 80);
            assert_eq!(&sealed[..64], &unhex(ct)[..], "{kind:?} encrypt");
            // Decrypt from the published ciphertext, not from our own.
            let mut published = unhex(ct);
            published.extend_from_slice(&sealed[64..]);
            assert_eq!(c.decrypt(&iv, &published).unwrap(), pt, "{kind:?} decrypt");
        }
    }

    #[test]
    fn encrypt_append_matches_encrypt_and_preserves_prefix() {
        let c = cbc(CipherKind::Aes128);
        let iv = c.random_iv();
        let pt = b"some plaintext spanning more than one block";
        let expect = c.encrypt(&iv, pt).unwrap();
        let mut out = b"prefix".to_vec();
        c.encrypt_append(&iv, pt, &mut out).unwrap();
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(&out[6..], &expect[..]);
    }

    #[test]
    fn in_place_encrypt_and_decrypt_match_the_allocating_forms() {
        for kind in ALL_KINDS {
            let c = cbc(kind);
            let iv = c.random_iv();
            for len in [0usize, 1, 15, 22, 33] {
                let pt: Vec<u8> = (0..len).map(|i| (i * 5) as u8).collect();
                let mut buf = vec![0xEE; c.ciphertext_len(len)];
                buf[..len].copy_from_slice(&pt);
                c.encrypt_padded(&iv, &mut buf, len).unwrap();
                assert_eq!(buf, c.encrypt(&iv, &pt).unwrap(), "{kind:?} {len}");
                assert_eq!(c.decrypt_padded(&iv, &mut buf), Ok(len), "{kind:?}");
                assert_eq!(&buf[..len], &pt[..], "{kind:?} {len}");
                let short = c.ciphertext_len(len) - 1;
                assert!(c.encrypt_padded(&iv, &mut vec![0; short], len).is_err());
            }
        }
    }

    #[test]
    fn encrypt_block_is_the_raw_block_cipher() {
        for kind in ALL_KINDS {
            let key: Vec<u8> = (0..kind.key_len()).map(|i| (i * 11 + 3) as u8).collect();
            let c = Cbc::new(kind, &key).unwrap();
            let mut block: Vec<u8> = (0..kind.block_size()).map(|i| i as u8 ^ 0x5A).collect();
            let mut expect = block.clone();
            reference_block(kind, &key, &mut expect, true);
            c.encrypt_block(&mut block).unwrap();
            assert_eq!(block, expect, "{kind:?}");
            assert!(c.encrypt_block(&mut [0u8; 3]).is_err(), "{kind:?}");
        }
    }

    #[test]
    fn ciphertext_differs_across_ivs() {
        let c = cbc(CipherKind::Aes128);
        let pt = b"identical plaintext";
        let ct1 = c.encrypt(&c.random_iv(), pt).unwrap();
        let ct2 = c.encrypt(&c.random_iv(), pt).unwrap();
        assert_ne!(ct1, ct2);
    }

    #[test]
    fn tampered_padding_detected() {
        let c = cbc(CipherKind::Aes128);
        let iv = vec![0u8; 16];
        let mut ct = c.encrypt(&iv, b"hello").unwrap();
        // Corrupt the last block; padding check should usually fail. (A
        // random corruption may accidentally produce valid padding, so use a
        // deterministic corruption known to break it for this key/iv.)
        let last = ct.len() - 1;
        ct[last] ^= 0xFF;
        let res = c.decrypt(&iv, &ct);
        if let Ok(pt) = res {
            assert_ne!(pt, b"hello");
        }
    }

    #[test]
    fn length_errors() {
        let c = cbc(CipherKind::Des);
        assert!(matches!(
            c.decrypt(&[0; 8], &[0u8; 9]),
            Err(CryptoError::BadCiphertextLength { .. })
        ));
        assert!(matches!(
            c.decrypt(&[0; 8], &[]),
            Err(CryptoError::BadCiphertextLength { .. })
        ));
        assert!(matches!(
            c.encrypt(&[0; 7], b"x"),
            Err(CryptoError::BadIvLength { .. })
        ));
        assert!(matches!(
            c.decrypt(&[0; 7], &[0u8; 8]),
            Err(CryptoError::BadIvLength { .. })
        ));
    }

    #[test]
    fn key_length_enforced() {
        assert_eq!(
            Cbc::new(CipherKind::Des, &[0u8; 7]).err(),
            Some(CryptoError::BadKeyLength {
                expected: 8,
                got: 7
            })
        );
        assert!(Cbc::new(CipherKind::Null, &[0u8; 1]).is_err());
        assert!(Cbc::new(CipherKind::Null, &[]).is_ok());
        assert!(Cbc::new(CipherKind::Aes128, &[0u8; 16]).is_ok());
    }

    #[test]
    fn malformed_padding_rejected() {
        // A final plaintext byte of zero, or one larger than the block, or a
        // run that does not repeat it, is BadPadding under every cipher. The
        // null cipher makes such plaintexts easy to construct: its
        // ciphertext is the running XOR of IV and plaintext.
        let c = cbc(CipherKind::Null);
        assert_eq!(c.decrypt(&[0], &[5, 5]), Err(CryptoError::BadPadding)); // ..., 0
        assert_eq!(c.decrypt(&[0], &[5, 7]), Err(CryptoError::BadPadding)); // ..., 2
        assert_eq!(c.decrypt(&[0], &[5, 4]).unwrap(), [5]); // ..., 1
        let des = cbc(CipherKind::Des);
        let iv = [0u8; 8];
        let good = des.encrypt(&iv, b"abc").unwrap();
        // Flipping a bit of the IV flips the same bit of the only plaintext
        // block: its last byte 05 -> 04 breaks the run of five 05s.
        let mut bad_iv = iv;
        bad_iv[7] ^= 1;
        assert_eq!(des.decrypt(&bad_iv, &good), Err(CryptoError::BadPadding));
    }

    #[test]
    fn null_cipher_cbc_chains_bytes_and_adds_one_padding_byte() {
        let c = cbc(CipherKind::Null);
        let ct = c.encrypt(&[0x10], b"abc").unwrap();
        assert_eq!(
            ct,
            [
                0x10 ^ b'a',
                0x10 ^ b'a' ^ b'b',
                0x10 ^ b'a' ^ b'b' ^ b'c',
                0x10 ^ b'a' ^ b'b' ^ b'c' ^ 1
            ]
        );
        assert_eq!(c.decrypt(&[0x10], &ct).unwrap(), b"abc");
    }

    /// DES and 3DES under four keys each, for `f(kind, key, cbc)`.
    fn each_des_key(mut f: impl FnMut(CipherKind, &[u8], &Cbc)) {
        for kind in [CipherKind::Des, CipherKind::TripleDes] {
            for seed in 0..4u8 {
                let key: Vec<u8> = (0..kind.key_len() as u8)
                    .map(|i| i.wrapping_mul(37).wrapping_add(seed.wrapping_mul(101)) ^ 0x5A)
                    .collect();
                f(kind, &key, &Cbc::new(kind, &key).unwrap());
            }
        }
    }

    #[test]
    fn des_four_lane_decrypt_matches_reference_at_every_tail() {
        // 1–40 blocks: every whole number of four-block groups from none
        // to ten, followed by a tail of none, one, two or three blocks.
        each_des_key(|kind, key, c| {
            let iv: Vec<u8> = (0..8u8).map(|i| i.wrapping_mul(29) ^ key[0]).collect();
            for blocks in 1..=40usize {
                let ciphertext: Vec<u8> = (0..8 * blocks)
                    .map(|i| (i as u8).wrapping_mul(13) ^ key[i % key.len()])
                    .collect();
                let mut raw = ciphertext.clone();
                c.decrypt_in_place(&iv, &mut raw);
                let expect = reference_decrypt(kind, key, &iv, &ciphertext);
                assert_eq!(raw, expect, "{kind:?} {blocks} blocks");
                let plaintext = &ciphertext[..8 * blocks - 1];
                let sealed = c.encrypt(&iv, plaintext).unwrap();
                assert_eq!(sealed.len(), 8 * blocks);
                let opened = c.decrypt(&iv, &sealed).unwrap();
                assert_eq!(opened, plaintext, "{kind:?} {blocks} blocks");
            }
        });
    }

    #[test]
    fn des_flipped_padding_in_every_short_tail_is_bad_padding() {
        // A tail of one, two or three blocks after zero or one whole group.
        // Flipping a byte of the block before the last flips the same byte
        // of the last plaintext block, here one of its three padding bytes.
        each_des_key(|kind, _, c| {
            let iv = [0x3Cu8; 8];
            for blocks in [1usize, 2, 3, 5, 6, 7] {
                let plaintext = vec![0xA5u8; 8 * blocks - 3];
                let sealed = c.encrypt(&iv, &plaintext).unwrap();
                assert_eq!(c.decrypt(&iv, &sealed).unwrap(), plaintext);
                for byte in 5..8 {
                    let (mut iv, mut sealed) = (iv, sealed.clone());
                    match blocks {
                        1 => iv[byte] ^= 1,
                        _ => sealed[8 * (blocks - 2) + byte] ^= 1,
                    }
                    assert_eq!(
                        c.decrypt(&iv, &sealed),
                        Err(CryptoError::BadPadding),
                        "{kind:?} {blocks} blocks, padding byte {byte}"
                    );
                }
            }
        });
    }

    /// `Cbc::new` with the bitsliced schedule dropped, so DES and 3DES
    /// decrypt through `decrypt4` at every length.
    fn table_kernel(kind: CipherKind, key: &[u8]) -> Cbc {
        let mut c = Cbc::new(kind, key).unwrap();
        match &mut c.cipher {
            Cipher::Des(des) => des.sliced = None,
            Cipher::TripleDes(tdes) => tdes.sliced = None,
            _ => {}
        }
        c
    }

    /// Prints why a test covers only the table kernel when `c` has no
    /// bitsliced schedule.
    fn note_unless_bitsliced(c: &Cbc) {
        let has = match &c.cipher {
            Cipher::Des(des) => des.sliced.is_some(),
            Cipher::TripleDes(tdes) => tdes.sliced.is_some(),
            _ => false,
        };
        if !has {
            eprintln!("note: this CPU lacks AVX-512F/VL; the bitsliced DES kernel goes untested");
        }
    }

    /// Both kernels open `sealed` (the ciphertext of `len` bytes) to the
    /// same answer, and so does every corruption of its last block or of
    /// its padding.
    fn kernels_agree(kind: CipherKind, key: &[u8], iv: &[u8], plaintext: &[u8], flip: u8) {
        let (sliced, table) = (Cbc::new(kind, key).unwrap(), table_kernel(kind, key));
        note_unless_bitsliced(&sliced);
        let sealed = sliced.encrypt(iv, plaintext).unwrap();
        assert_eq!(sliced.decrypt(iv, &sealed).unwrap(), plaintext, "{kind:?}");
        assert_eq!(table.decrypt(iv, &sealed).unwrap(), plaintext, "{kind:?}");
        // A flip in the last block garbles the last plaintext block: both
        // kernels see the same garble.
        let mut garbled = sealed.clone();
        let last = garbled.len() - 1 - usize::from(flip % 8);
        garbled[last] ^= flip | 1;
        assert_eq!(
            sliced.decrypt(iv, &garbled),
            table.decrypt(iv, &garbled),
            "{kind:?}"
        );
        // A flip in the block before flips that byte of the last
        // plaintext block; the last byte is always padding.
        let (mut iv, mut sealed) = (iv.to_vec(), sealed);
        match sealed.len() {
            8 => iv[7] ^= 1,
            n => sealed[n - 9] ^= 1,
        }
        assert_eq!(
            sliced.decrypt(&iv, &sealed),
            Err(CryptoError::BadPadding),
            "{kind:?}"
        );
        assert_eq!(
            table.decrypt(&iv, &sealed),
            Err(CryptoError::BadPadding),
            "{kind:?}"
        );
    }

    #[test]
    fn des_kernels_agree_around_the_threshold_and_pass_boundaries() {
        each_des_key(|kind, key, _| {
            let iv: Vec<u8> = (0..8u8).map(|i| i.wrapping_mul(41) ^ key[1]).collect();
            let edges = [1, 63, 64, 65, 125, 255, 256, 257, 319, 320, 321, 512, 600];
            for blocks in edges {
                let plaintext: Vec<u8> = (0..8 * blocks - 1).map(|i| (i * 3) as u8).collect();
                kernels_agree(kind, key, &iv, &plaintext, blocks as u8);
            }
        });
    }

    /// Runs `kernels_agree` on a key, IV and plaintext from seeds.
    fn kernels_agree_on(key_seed: u64, iv_seed: u64, plaintext: &[u8], flip: u8) {
        for kind in [CipherKind::Des, CipherKind::TripleDes] {
            let key: Vec<u8> = (0..kind.key_len())
                .map(|i| (key_seed.rotate_left(7 * i as u32) as u8) ^ i as u8)
                .collect();
            kernels_agree(kind, &key, &iv_seed.to_be_bytes(), plaintext, flip);
        }
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

    /// One job per `(iv, plaintext)`, laid out as `encrypt_many` takes it.
    fn laid_out(c: &Cbc, inputs: &[(Vec<u8>, Vec<u8>)]) -> Vec<Vec<u8>> {
        inputs
            .iter()
            .map(|(_, pt)| {
                let mut buf = pt.clone();
                buf.resize(c.ciphertext_len(pt.len()), 0);
                buf
            })
            .collect()
    }

    /// Encrypts `inputs` through `run`, which gets them as padded jobs
    /// and their order, longest first, and returns the ciphertexts in
    /// input order.
    fn through_lanes(
        c: &Cbc,
        inputs: &[(Vec<u8>, Vec<u8>)],
        run: impl FnOnce(&mut [Job<'_>], &[usize]),
    ) -> Vec<Vec<u8>> {
        let mut bufs = laid_out(c, inputs);
        let mut jobs: Vec<Job<'_>> = inputs
            .iter()
            .zip(&mut bufs)
            .map(|((iv, pt), buf)| (iv.as_slice(), buf.as_mut_slice(), pt.len()))
            .collect();
        for (iv, buf, len) in &mut jobs {
            c.pad(iv, buf, *len).unwrap();
        }
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&j| std::cmp::Reverse(steps(&jobs[j], c.block_size)));
        run(&mut jobs, &order);
        bufs
    }

    /// `count` IVs and plaintexts for `kind` from `seed`, plaintext `i`
    /// `len(i)` bytes long, under interleaved chains for even `i` and one
    /// chain for odd.
    fn lane_inputs(
        kind: CipherKind,
        seed: u64,
        count: usize,
        len: impl Fn(usize) -> usize,
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..count)
            .map(|i| {
                let i64 = i as u64;
                let chains = if i % 2 == 0 { CHAINS } else { 1 };
                (
                    bytes(seed ^ (i64 << 20), chains * kind.block_size()),
                    bytes(seed.wrapping_add(i64), len(i)),
                )
            })
            .collect()
    }

    #[test]
    fn bitsliced_encryption_lanes_match_reference_at_every_lane_count() {
        // 1..=300 lanes: one partial pass group up to two. Lane i is
        // 8·(i mod 11) + (i mod 3) bytes: 1 to 11 blocks, so lanes end
        // in different passes, and one lane in three is a whole number of
        // blocks, padded with a whole block. CBC is per lane, so one
        // reference run per lane serves every count.
        const MAX: usize = 300;
        each_des_key(|kind, key, c| {
            let Some(sliced) = (match &c.cipher {
                Cipher::Des(des) => des.sliced.as_ref(),
                Cipher::TripleDes(tdes) => tdes.sliced.as_ref(),
                _ => unreachable!(),
            }) else {
                return note_unless_bitsliced(c);
            };
            let inputs = lane_inputs(kind, u64::from(key[0]), MAX, |i| 8 * (i % 11) + i % 3);
            let expect: Vec<Vec<u8>> = inputs
                .iter()
                .map(|(iv, pt)| reference_encrypt(kind, key, iv, pt))
                .collect();
            for lanes in 1..=MAX {
                let got = through_lanes(c, &inputs[..lanes], |jobs, lanes| {
                    encrypt_lanes(jobs, lanes, |x| sliced.encrypt_pass(x));
                });
                assert_eq!(got, expect[..lanes], "{kind:?}, {lanes} lanes");
            }
        });
    }

    #[test]
    fn four_lane_encryption_matches_the_serial_kernels() {
        // 1..=21 lanes of 0..=97 bytes: full groups of four and every
        // short last group, lanes ending at different blocks.
        let len = |i: usize| (i * 37) % 98;
        each_des_key(|kind, key, c| {
            let inputs = lane_inputs(kind, u64::from(key[1]), 21, len);
            for lanes in 1..=inputs.len() {
                let got = through_lanes(c, &inputs[..lanes], |jobs, lanes| match &c.cipher {
                    Cipher::Des(des) => {
                        encrypt_lanes(jobs, lanes, |x: &mut [u64; 4]| *x = des.encrypt4(*x))
                    }
                    Cipher::TripleDes(tdes) => {
                        encrypt_lanes(jobs, lanes, |x: &mut [u64; 4]| *x = tdes.encrypt4(*x))
                    }
                    _ => unreachable!(),
                });
                for ((iv, pt), got) in inputs.iter().zip(got) {
                    assert_eq!(got, c.encrypt(iv, pt).unwrap(), "{kind:?}, {lanes} lanes");
                }
            }
        });
        #[cfg(target_arch = "x86_64")]
        for kind in [CipherKind::Aes128, CipherKind::Aes256] {
            let c = cbc(kind);
            let Cipher::AesNi(ni) = &c.cipher else {
                eprintln!("note: this CPU lacks AES-NI; skipping its lanes oracle test");
                return;
            };
            let inputs = lane_inputs(kind, 7, 21, len);
            for lanes in 1..=inputs.len() {
                let got = through_lanes(&c, &inputs[..lanes], |jobs, order| {
                    ni.encrypt_lanes(jobs, order);
                });
                for ((iv, pt), got) in inputs.iter().zip(got) {
                    assert_eq!(got, c.encrypt(iv, pt).unwrap(), "{kind:?}, {lanes} lanes");
                }
            }
        }
    }

    /// `encrypt_many` over `plaintexts` under `c` equals `encrypt_padded`
    /// on each buffer alone, under `serial`: even buffers under `CHAINS`
    /// interleaved chains, odd ones under one.
    fn many_matches_serial(c: &Cbc, serial: &Cbc, iv_seed: u64, plaintexts: &[Vec<u8>]) {
        let inputs: Vec<(Vec<u8>, Vec<u8>)> = plaintexts
            .iter()
            .enumerate()
            .map(|(i, pt)| {
                let chains = if i % 2 == 0 { CHAINS } else { 1 };
                let iv = bytes(iv_seed + i as u64, chains * c.block_size());
                (iv, pt.clone())
            })
            .collect();
        let mut bufs = laid_out(c, &inputs);
        let mut jobs: Vec<Job<'_>> = inputs
            .iter()
            .zip(&mut bufs)
            .map(|((iv, pt), buf)| (iv.as_slice(), buf.as_mut_slice(), pt.len()))
            .collect();
        c.encrypt_many(&mut jobs).unwrap();
        for ((iv, pt), got) in inputs.iter().zip(&bufs) {
            assert_eq!(
                got,
                &serial.encrypt(iv, pt).unwrap(),
                "{} lanes",
                inputs.len()
            );
        }
    }

    /// The table AES kernel, whatever this CPU has.
    fn table_aes(kind: CipherKind, key: &[u8]) -> Cbc {
        Cbc {
            cipher: Cipher::Aes(match kind {
                CipherKind::Aes128 => aes::Aes::new_128(key.try_into().unwrap()),
                _ => aes::Aes::new_256(key.try_into().unwrap()),
            }),
            block_size: 16,
        }
    }

    #[test]
    fn encrypt_many_rejects_a_bad_job_before_encrypting_any() {
        let c = cbc(CipherKind::Des);
        let (mut good, mut short) = (vec![0u8; 16], vec![0u8; 15]);
        let mut jobs: Vec<Job<'_>> = vec![(&[0; 8], &mut good, 9), (&[0; 8], &mut short, 9)];
        assert!(c.encrypt_many(&mut jobs).is_err());
        // The good job got its padding, and no encryption.
        assert_eq!(good, [[0; 9], [7; 9]].concat()[..16]);
        assert!(c
            .encrypt_many(&mut [(&[0; 7], &mut [0u8; 8][..], 0)])
            .is_err());
        assert!(c.encrypt_many(&mut []).is_ok());
    }

    /// DES and 3DES on the table kernel and, where the CPU has it,
    /// bitsliced; AES on AES-NI, where the CPU has it, and on the table
    /// kernel: every kernel `kind` has.
    fn kernels_of(kind: CipherKind, key: &[u8]) -> Vec<Cbc> {
        match kind {
            CipherKind::Des | CipherKind::TripleDes => {
                let c = Cbc::new(kind, key).unwrap();
                note_unless_bitsliced(&c);
                vec![c, table_kernel(kind, key)]
            }
            _ => {
                #[cfg(target_arch = "x86_64")]
                if !matches!(Cbc::new(kind, key).unwrap().cipher, Cipher::AesNi(_)) {
                    eprintln!("note: this CPU lacks AES-NI; its interleaved kernels go untested");
                }
                vec![Cbc::new(kind, key).unwrap(), table_aes(kind, key)]
            }
        }
    }

    #[test]
    fn interleaved_kernels_match_independent_serial_chains_at_every_length() {
        // 1..=600 blocks under `CHAINS` chain IVs: each kernel's encryption
        // and decryption against `CHAINS` independent serial chains on the
        // reference kernels. Both are prefix-closed, so one reference run
        // per cipher serves every length.
        const MAX: usize = 600;
        for kind in [
            CipherKind::Des,
            CipherKind::TripleDes,
            CipherKind::Aes128,
            CipherKind::Aes256,
        ] {
            let bs = kind.block_size();
            let key = bytes(u64::from(kind.tag()), kind.key_len());
            let ivs = bytes(!u64::from(kind.tag()), CHAINS * bs);
            let plain = bytes(u64::from(kind.tag()) << 8, MAX * bs);
            let sealed = reference_chains(kind, &key, &ivs, &plain, true);
            assert_eq!(reference_chains(kind, &key, &ivs, &sealed, false), plain);
            for c in kernels_of(kind, &key) {
                for blocks in 1..=MAX {
                    let n = blocks * bs;
                    let mut buf = plain[..n].to_vec();
                    c.encrypt_jobs(&mut [(&ivs, &mut buf, 0)]);
                    assert_eq!(buf, sealed[..n], "{kind:?} encrypt, {blocks} blocks");
                    c.decrypt_in_place(&ivs, &mut buf);
                    assert_eq!(buf, plain[..n], "{kind:?} decrypt, {blocks} blocks");
                }
            }
        }
    }

    #[test]
    fn encrypt_many_of_interleaved_bodies_matches_each_body_alone() {
        // Batches of bodies of mixed lengths, 0 to 2000 bytes, each under
        // its own chain IVs: a single body's four lanes, four-lane groups,
        // and (40 bodies or more, on AVX-512) bitsliced passes with
        // four-lane rests. Every body is the bytes it seals to on its own,
        // on the table kernel.
        for kind in [CipherKind::Des, CipherKind::TripleDes, CipherKind::Aes128] {
            let key = bytes(7 + u64::from(kind.tag()), kind.key_len());
            let (c, alone) = match kind {
                CipherKind::Aes128 => (Cbc::new(kind, &key).unwrap(), table_aes(kind, &key)),
                _ => (Cbc::new(kind, &key).unwrap(), table_kernel(kind, &key)),
            };
            for count in [1, 2, 3, 9, 10, 16, 39, 40, 41, 64, 100, 128] {
                let inputs: Vec<(Vec<u8>, Vec<u8>)> = (0..count)
                    .map(|i| {
                        let iv = bytes(i as u64, CHAINS * kind.block_size());
                        (iv, bytes(!(i as u64), (i * 677 + 13) % 2001))
                    })
                    .collect();
                let mut bufs = laid_out(&c, &inputs);
                let mut jobs: Vec<Job<'_>> = inputs
                    .iter()
                    .zip(&mut bufs)
                    .map(|((iv, pt), buf)| (iv.as_slice(), buf.as_mut_slice(), pt.len()))
                    .collect();
                c.encrypt_many(&mut jobs).unwrap();
                for ((iv, pt), got) in inputs.iter().zip(&bufs) {
                    assert_eq!(
                        got,
                        &alone.encrypt(iv, pt).unwrap(),
                        "{kind:?}, {count} bodies"
                    );
                }
            }
        }
    }

    #[test]
    fn decrypt_chained_matches_the_reference_under_derived_chain_ivs_at_every_length() {
        // 1..=300 blocks: below, inside and above the one-pass bitsliced
        // range (64..=252 blocks, the chain IVs in the pass's spare lanes).
        // Against the reference kernels under chain IVs the reference
        // derives; decryption is prefix-closed, so one reference run per
        // kernel serves every length.
        const MAX: usize = 300;
        for kind in ALL_KINDS {
            let bs = kind.block_size();
            let key = bytes(41 + u64::from(kind.tag()), kind.key_len());
            let iv = bytes(43, bs);
            let chains: Vec<u8> = (0..CHAINS)
                .flat_map(|j| {
                    let mut block = iv.clone();
                    block[bs - 1] ^= j as u8;
                    reference_block(kind, &key, &mut block, true);
                    block
                })
                .collect();
            let ciphertext = bytes(47, MAX * bs);
            let expect = reference_chains(kind, &key, &chains, &ciphertext, false);
            let kernels = match kind {
                CipherKind::Null => vec![Cbc::new(kind, &key).unwrap()],
                _ => kernels_of(kind, &key),
            };
            for c in kernels {
                for blocks in 1..=MAX {
                    let mut buf = ciphertext[..blocks * bs].to_vec();
                    c.decrypt_chained_in_place(&iv, &mut buf);
                    assert_eq!(buf, expect[..blocks * bs], "{kind:?}, {blocks} blocks");
                }
                let plaintext = bytes(53, 1000);
                let mut sealed = plaintext.clone();
                sealed.resize(c.ciphertext_len(1000), 0);
                c.encrypt_padded(&chains, &mut sealed, 1000).unwrap();
                assert_eq!(
                    c.decrypt_chained(&iv, &sealed).unwrap(),
                    plaintext,
                    "{kind:?}"
                );
            }
        }
    }

    #[test]
    fn chain_ivs_are_the_enciphered_iv_with_the_chain_number_xored_in() {
        for kind in ALL_KINDS {
            let bs = kind.block_size();
            let key = bytes(3, kind.key_len());
            let c = Cbc::new(kind, &key).unwrap();
            let ivs = bytes(5, 3 * bs);
            let mut out = vec![0u8; 3 * CHAINS * bs];
            c.chain_ivs(&ivs, &mut out).unwrap();
            let mut one = vec![0u8; CHAINS * bs];
            for (iv, chains) in ivs.chunks(bs).zip(out.chunks(CHAINS * bs)) {
                for (j, got) in chains.chunks(bs).enumerate() {
                    let mut expect = iv.to_vec();
                    expect[bs - 1] ^= j as u8;
                    reference_block(kind, &key, &mut expect, true);
                    assert_eq!(got, expect, "{kind:?} chain {j}");
                }
                c.chain_ivs(iv, &mut one).unwrap();
                assert_eq!(one, chains, "{kind:?}: one body or three");
            }
            assert!(c.chain_ivs(&ivs, &mut one).is_err());
            assert!(c.chain_ivs(&[], &mut []).is_err());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 20_000, ..ProptestConfig::default() })]

        /// `encrypt_many` against the table kernels one buffer at a time,
        /// at 20,000 cases.
        #[test]
        #[ignore = "20,000 cases; run in release"]
        fn encrypt_many_matches_the_table_kernel_long(
            key_seed in any::<u64>(),
            iv_seed in any::<u64>(),
            lens in proptest::collection::vec(0..=400usize, 0..=80),
        ) {
            encrypt_many_agrees(key_seed, iv_seed, &lens);
        }
    }

    /// `encrypt_many` under every cipher kind (AES on AES-NI and on the
    /// table kernel) equals `encrypt_padded` on each buffer under the
    /// table kernels.
    fn encrypt_many_agrees(key_seed: u64, iv_seed: u64, lens: &[usize]) {
        let plaintexts: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &n)| bytes(key_seed ^ i as u64, n))
            .collect();
        for kind in ALL_KINDS {
            let key = bytes(key_seed, kind.key_len());
            let c = Cbc::new(kind, &key).unwrap();
            let serial = match kind {
                CipherKind::Aes128 | CipherKind::Aes256 => {
                    many_matches_serial(&table_aes(kind, &key), &c, iv_seed, &plaintexts);
                    table_aes(kind, &key)
                }
                _ => table_kernel(kind, &key),
            };
            many_matches_serial(&c, &serial, iv_seed, &plaintexts);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 20_000, ..ProptestConfig::default() })]

        /// `des_kernels_agree` at 20,000 cases.
        #[test]
        #[ignore = "20,000 cases; run in release"]
        fn des_kernels_agree_long(
            key_seed in any::<u64>(),
            iv_seed in any::<u64>(),
            plaintext in proptest::collection::vec(any::<u8>(), 0..=4800),
            flip in any::<u8>(),
        ) {
            kernels_agree_on(key_seed, iv_seed, &plaintext, flip);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// DES and 3DES decryption through the bitsliced kernel equals the
        /// table kernel for any key, IV and length up to 600 blocks, and
        /// both answer a corrupted padding with `BadPadding`.
        #[test]
        fn des_kernels_agree(
            key_seed in any::<u64>(),
            iv_seed in any::<u64>(),
            plaintext in proptest::collection::vec(any::<u8>(), 0..=4800),
            flip in any::<u8>(),
        ) {
            kernels_agree_on(key_seed, iv_seed, &plaintext, flip);
        }

        /// `encrypt_many` equals `encrypt_padded` one buffer at a time for
        /// every cipher kind, from no buffers to enough for a bitsliced
        /// group, of any lengths.
        #[test]
        fn encrypt_many_matches_encrypt_padded(
            key_seed in any::<u64>(),
            iv_seed in any::<u64>(),
            lens in proptest::collection::vec(0..=300usize, 0..=40),
        ) {
            encrypt_many_agrees(key_seed, iv_seed, &lens);
        }

        /// Bulk CBC on AES-NI seals the bytes the table kernel seals and
        /// opens any ciphertext the way it does, at every block count
        /// around the multi-block decrypt loop's groups and tail.
        #[cfg(target_arch = "x86_64")]
        #[test]
        fn aes_ni_cbc_matches_portable(
            key in proptest::collection::vec(any::<u8>(), 32),
            iv in proptest::collection::vec(any::<u8>(), 16),
            data in proptest::collection::vec(any::<u8>(), 0..=300),
        ) {
            for kind in [CipherKind::Aes128, CipherKind::Aes256] {
                let key = &key[..kind.key_len()];
                let ni = Cbc::new(kind, key).unwrap();
                if !matches!(ni.cipher, Cipher::AesNi(_)) {
                    eprintln!("note: this CPU lacks AES-NI; skipping its CBC oracle test");
                    return Ok(());
                }
                let portable = table_aes(kind, key);
                let sealed = ni.encrypt(&iv, &data).unwrap();
                prop_assert_eq!(&sealed, &portable.encrypt(&iv, &data).unwrap());
                prop_assert_eq!(ni.decrypt(&iv, &sealed).unwrap(), data.clone());
                let raw = &data[..data.len() / 16 * 16];
                prop_assert_eq!(ni.decrypt(&iv, raw), portable.decrypt(&iv, raw));
            }
        }

        /// The bulk path produces the bytes the block-at-a-time path over
        /// the reference kernels produces, and opens them again, for every
        /// cipher, key, IV and length from empty to 4096 bytes, under one
        /// chain and under `CHAINS`.
        #[test]
        fn bulk_cbc_matches_reference(
            key_seed in any::<u64>(),
            iv_seed in any::<u64>(),
            plaintext in proptest::collection::vec(any::<u8>(), 0..=4096),
        ) {
            for kind in ALL_KINDS {
                let key: Vec<u8> = (0..kind.key_len())
                    .map(|i| (key_seed.rotate_left(5 * i as u32) as u8) ^ i as u8)
                    .collect();
                let c = Cbc::new(kind, &key).unwrap();
                for chains in [1, CHAINS] {
                    let iv: Vec<u8> = (0..chains * kind.block_size())
                        .map(|i| (iv_seed.rotate_left(3 * i as u32) as u8) ^ i as u8)
                        .collect();
                    let sealed = c.encrypt(&iv, &plaintext).unwrap();
                    prop_assert_eq!(&sealed, &reference_encrypt(kind, &key, &iv, &plaintext));
                    let opened = reference_decrypt(kind, &key, &iv, &sealed);
                    prop_assert_eq!(&opened[..plaintext.len()], &plaintext[..]);
                    prop_assert_eq!(c.decrypt(&iv, &sealed).unwrap(), plaintext.clone());
                }
            }
        }
    }
}
