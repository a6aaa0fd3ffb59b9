#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

//! From-scratch cryptographic primitives for TDB.
//!
//! The TDB paper (OSDI 2000) protects a database on untrusted storage with a
//! small secret key and a collision-resistant hash in trusted storage. Each
//! *partition* of the database selects its own cipher and hash function
//! (§2.2), while the reserved system partition uses a fixed, conservative
//! pair (the paper uses 3DES + SHA-1, §5.2).
//!
//! This crate implements every primitive the system needs, from scratch and
//! validated against published test vectors, because no third-party crypto
//! crates are available in the build environment:
//!
//! - [`sha1`] and [`sha256`] — FIPS 180 hash functions, compressing on the
//!   x86-64 SHA extensions where the CPU has them.
//! - [`des`] — DES and 3DES (EDE3) block ciphers, FIPS 46-3, table-driven;
//!   [`cbc::Cbc`] decrypts long buffers with a bitsliced kernel on AVX-512.
//! - [`aes`] — AES-128/-256, FIPS 197 (the "other, more secure, algorithms
//!   that run faster than DES" the paper alludes to in §9.2.1), table-driven;
//!   [`cbc::Cbc`] runs it on AES-NI where the CPU has it.
//! - [`cbc`] — CBC mode with PKCS#7 padding over a cipher chosen by
//!   [`CipherKind`].
//! - [`hmac`] — HMAC (RFC 2104) over any [`HashKind`], used to *sign* commit
//!   chunks and backups ("the signature need not be publicly verifiable, so
//!   it may be based on symmetric-key encryption", §4.8.2.2).
//! - [`crc32`] — the unencrypted backup trailer checksum (§6.2).
//!
//! The [`CipherKind`] / [`HashKind`] enums are the dispatch points used by
//! partition cryptographic parameters: [`cbc::Cbc::new`] keys a cipher of a
//! given kind, and dispatches on it once per run of blocks.

pub mod aes;
pub mod cbc;
pub mod crc32;
pub mod des;
pub mod hmac;
mod md;
pub mod sha1;
pub mod sha256;
#[cfg(target_arch = "x86_64")]
mod x86;

use std::fmt;

/// Maximum digest length any supported hash can produce, in bytes.
pub const MAX_DIGEST_LEN: usize = 32;

/// Errors produced by cryptographic operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// A key of the wrong length was supplied for the selected cipher.
    BadKeyLength {
        /// Required key length.
        expected: usize,
        /// Supplied key length.
        got: usize,
    },
    /// Ciphertext length is not a multiple of the cipher block size.
    BadCiphertextLength {
        /// Cipher block size.
        block: usize,
        /// Offending ciphertext length.
        got: usize,
    },
    /// CBC padding was malformed on decryption (corrupt or tampered data).
    BadPadding,
    /// An initialization vector of the wrong length was supplied.
    BadIvLength {
        /// Required IV length (the block size).
        expected: usize,
        /// Supplied IV length.
        got: usize,
    },
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::BadKeyLength { expected, got } => {
                write!(f, "bad key length: expected {expected} bytes, got {got}")
            }
            CryptoError::BadCiphertextLength { block, got } => {
                write!(
                    f,
                    "ciphertext length {got} is not a multiple of block size {block}"
                )
            }
            CryptoError::BadPadding => write!(f, "malformed CBC padding"),
            CryptoError::BadIvLength { expected, got } => {
                write!(f, "bad IV length: expected {expected} bytes, got {got}")
            }
        }
    }
}

impl std::error::Error for CryptoError {}

/// A fixed-capacity hash digest value.
///
/// Stored inline (no allocation) because descriptors in the chunk map hold
/// one per chunk (§4.3) and the map must stay compact.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct HashValue {
    len: u8,
    bytes: [u8; MAX_DIGEST_LEN],
}

impl HashValue {
    /// Creates a digest from raw bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds [`MAX_DIGEST_LEN`].
    pub fn new(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= MAX_DIGEST_LEN, "digest too long");
        let mut buf = [0u8; MAX_DIGEST_LEN];
        buf[..bytes.len()].copy_from_slice(bytes);
        HashValue {
            len: bytes.len() as u8,
            bytes: buf,
        }
    }

    /// The empty digest (used for unwritten chunks).
    pub fn zero(len: usize) -> Self {
        assert!(len <= MAX_DIGEST_LEN);
        HashValue {
            len: len as u8,
            bytes: [0u8; MAX_DIGEST_LEN],
        }
    }

    /// Digest bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Digest length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if the digest is zero-length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Constant-time equality check, for comparing secrets or MACs.
    pub fn ct_eq(&self, other: &HashValue) -> bool {
        ct_eq(self.as_bytes(), other.as_bytes())
    }
}

impl fmt::Debug for HashValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HashValue(")?;
        for b in self.as_bytes() {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

/// Hash function selector for partition cryptographic parameters (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashKind {
    /// No validation: the digest is empty and never checked. The paper allows
    /// partitions with "no need ... to validate other data" (§2.2).
    Null,
    /// SHA-1 (the paper's default).
    Sha1,
    /// SHA-256 (a stronger modern option).
    Sha256,
}

impl HashKind {
    /// Length in bytes of digests this function produces.
    pub fn digest_len(self) -> usize {
        match self {
            HashKind::Null => 0,
            HashKind::Sha1 => 20,
            HashKind::Sha256 => 32,
        }
    }

    /// Creates a stack-allocated incremental hasher.
    pub fn inline_hasher(self) -> InlineHasher {
        InlineHasher::new(self)
    }

    /// One-shot hash of `data`.
    ///
    /// Monomorphic: dispatches once on the kind and runs the concrete
    /// digest with no heap allocation: this sits under every chunk
    /// validation.
    pub fn hash(self, data: &[u8]) -> HashValue {
        match self {
            HashKind::Null => HashValue::zero(0),
            HashKind::Sha1 => sha1::Sha1::digest(data),
            HashKind::Sha256 => sha256::Sha256::digest(data),
        }
    }

    /// One-shot hash over several segments without concatenating them.
    pub fn hash_parts(self, parts: &[&[u8]]) -> HashValue {
        let mut h = InlineHasher::new(self);
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    /// [`HashKind::hash_parts`] of two messages at once. Two messages of
    /// at most 247 bytes that pad to as many blocks are compressed in
    /// lockstep, each round of one interleaved with the same round of the
    /// other, so that the two dependency chains share the hash unit: the
    /// leaves and nodes of a map chunk's slot tree, which a checkpoint
    /// rehashes by the dozen.
    pub fn hash_pair(self, a: &[&[u8]], b: &[&[u8]]) -> [HashValue; 2] {
        match self {
            HashKind::Null => [HashValue::zero(0); 2],
            HashKind::Sha1 => sha1::Sha1::digest_pair([a, b]),
            HashKind::Sha256 => sha256::Sha256::digest_pair([a, b]),
        }
    }

    /// Stable wire tag for serialization.
    pub fn tag(self) -> u8 {
        match self {
            HashKind::Null => 0,
            HashKind::Sha1 => 1,
            HashKind::Sha256 => 2,
        }
    }

    /// Inverse of [`HashKind::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(HashKind::Null),
            1 => Some(HashKind::Sha1),
            2 => Some(HashKind::Sha256),
            _ => None,
        }
    }
}

/// A stack-allocated incremental hasher over any [`HashKind`].
///
/// The one incremental hasher: an enum over the kinds, so no hash state is
/// boxed; `Clone` snapshots the midstate (HMAC resumes from pre-absorbed
/// pad blocks this way).
#[derive(Clone)]
pub enum InlineHasher {
    /// No-op hasher for [`HashKind::Null`]: absorbs nothing, yields the
    /// empty digest.
    Null,
    /// SHA-1 state.
    Sha1(sha1::Sha1),
    /// SHA-256 state.
    Sha256(sha256::Sha256),
}

impl InlineHasher {
    /// Creates a fresh hasher for `kind`.
    pub fn new(kind: HashKind) -> Self {
        match kind {
            HashKind::Null => InlineHasher::Null,
            HashKind::Sha1 => InlineHasher::Sha1(sha1::Sha1::new()),
            HashKind::Sha256 => InlineHasher::Sha256(sha256::Sha256::new()),
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        match self {
            InlineHasher::Null => {}
            InlineHasher::Sha1(h) => h.absorb(data),
            InlineHasher::Sha256(h) => h.absorb(data),
        }
    }

    /// Consumes the state and returns the digest.
    pub fn finalize(self) -> HashValue {
        match self {
            InlineHasher::Null => HashValue::zero(0),
            InlineHasher::Sha1(h) => h.finish(),
            InlineHasher::Sha256(h) => h.finish(),
        }
    }

    /// Digest length in bytes.
    pub fn digest_len(&self) -> usize {
        match self {
            InlineHasher::Null => 0,
            InlineHasher::Sha1(_) => 20,
            InlineHasher::Sha256(_) => 32,
        }
    }
}

/// Cipher selector for partition cryptographic parameters (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CipherKind {
    /// No encryption (the paper allows unencrypted partitions): the block
    /// cipher is the identity on a one-byte block. CBC still chains and pads
    /// it, so stored bytes are a running XOR from a one-byte IV plus one
    /// padding byte — unkeyed, and offering no secrecy.
    Null,
    /// Single DES in CBC mode (the paper's fast per-partition choice).
    Des,
    /// Triple DES (EDE3) in CBC mode (the paper's system cipher).
    TripleDes,
    /// AES-128 in CBC mode.
    Aes128,
    /// AES-256 in CBC mode.
    Aes256,
}

impl CipherKind {
    /// Required key length in bytes.
    pub fn key_len(self) -> usize {
        match self {
            CipherKind::Null => 0,
            CipherKind::Des => 8,
            CipherKind::TripleDes => 24,
            CipherKind::Aes128 => 16,
            CipherKind::Aes256 => 32,
        }
    }

    /// Cipher block size in bytes (1 for the null cipher).
    pub fn block_size(self) -> usize {
        match self {
            CipherKind::Null => 1,
            CipherKind::Des | CipherKind::TripleDes => 8,
            CipherKind::Aes128 | CipherKind::Aes256 => 16,
        }
    }

    /// Stable wire tag for serialization.
    pub fn tag(self) -> u8 {
        match self {
            CipherKind::Null => 0,
            CipherKind::Des => 1,
            CipherKind::TripleDes => 2,
            CipherKind::Aes128 => 3,
            CipherKind::Aes256 => 4,
        }
    }

    /// Inverse of [`CipherKind::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(CipherKind::Null),
            1 => Some(CipherKind::Des),
            2 => Some(CipherKind::TripleDes),
            3 => Some(CipherKind::Aes128),
            4 => Some(CipherKind::Aes256),
            _ => None,
        }
    }
}

/// A secret key whose bytes are zeroed on drop.
///
/// Stands in for material that would live in the trusted platform's secret
/// store (§2.1): it should never reach untrusted storage unencrypted.
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey {
    bytes: Vec<u8>,
}

impl SecretKey {
    /// Wraps raw key bytes.
    pub fn new(bytes: Vec<u8>) -> Self {
        SecretKey { bytes }
    }

    /// Generates a fresh random key of `len` bytes.
    pub fn random(len: usize) -> Self {
        use rand::RngCore;
        let mut bytes = vec![0u8; len];
        rand::thread_rng().fill_bytes(&mut bytes);
        SecretKey { bytes }
    }

    /// Derives a `len`-byte key for one purpose, named by `label`:
    /// HMAC-SHA-256 of the label under this secret, truncated. Keys derived
    /// under different labels are independent, and any secret length
    /// keys any cipher.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`MAX_DIGEST_LEN`].
    pub fn derive(&self, label: &[u8], len: usize) -> SecretKey {
        assert!(len <= MAX_DIGEST_LEN, "derived key too long");
        let tag = hmac::Hmac::mac(HashKind::Sha256, &self.bytes, label);
        SecretKey::new(tag.as_bytes()[..len].to_vec())
    }

    /// Key material.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Key length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the key is empty (the null cipher's key).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

impl Drop for SecretKey {
    fn drop(&mut self) {
        // Best-effort scrub; `write_volatile` prevents the compiler from
        // eliding the zeroing of memory it considers dead.
        for b in self.bytes.iter_mut() {
            // SAFETY: `b` is a valid, aligned, exclusive reference.
            unsafe { std::ptr::write_volatile(b, 0) };
        }
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "SecretKey({} bytes)", self.bytes.len())
    }
}

/// Constant-time byte-slice equality.
///
/// Returns `false` for mismatched lengths without early exit on content.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_value_roundtrip() {
        let h = HashValue::new(&[1, 2, 3]);
        assert_eq!(h.as_bytes(), &[1, 2, 3]);
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
    }

    #[test]
    fn hash_value_equality_ignores_slack() {
        let a = HashValue::new(&[9; 20]);
        let b = HashValue::new(&[9; 20]);
        assert_eq!(a, b);
        assert!(a.ct_eq(&b));
    }

    #[test]
    #[should_panic(expected = "digest too long")]
    fn hash_value_rejects_oversize() {
        let _ = HashValue::new(&[0u8; 33]);
    }

    #[test]
    fn null_hash_is_empty() {
        let h = HashKind::Null.hash(b"anything");
        assert!(h.is_empty());
        assert_eq!(HashKind::Null.digest_len(), 0);
    }

    #[test]
    fn hash_parts_matches_concatenation() {
        for kind in [HashKind::Sha1, HashKind::Sha256] {
            let whole = kind.hash(b"hello world");
            let parts = kind.hash_parts(&[b"hello", b" ", b"world"]);
            assert_eq!(whole, parts);
        }
    }

    #[test]
    fn hash_pair_matches_two_hashes_at_every_length_pairing() {
        // Equal padded lengths (one to four blocks) take the lockstep
        // kernel, unequal or longer ones the single path.
        let data: Vec<u8> = (0..300u32).map(|i| (i * 13 + 5) as u8).collect();
        for kind in [HashKind::Sha1, HashKind::Sha256] {
            for len in 0..=data.len() {
                for other in [len, len.saturating_sub(1), len + 1, len / 2] {
                    let a = &data[..len];
                    let b = &data[data.len() - other.min(data.len())..];
                    let (head, tail) = a.split_at(len / 3);
                    assert_eq!(
                        kind.hash_pair(&[head, tail], &[b]),
                        [kind.hash(a), kind.hash(b)],
                        "{kind:?} {len} {other}"
                    );
                }
            }
        }
    }

    #[test]
    fn inline_hasher_matches_one_shot() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        for kind in [HashKind::Null, HashKind::Sha1, HashKind::Sha256] {
            let mut inline = kind.inline_hasher();
            assert_eq!(inline.digest_len(), kind.digest_len());
            for piece in data.chunks(37) {
                inline.update(piece);
            }
            assert_eq!(inline.finalize(), kind.hash(&data));
            assert_eq!(
                kind.hash(&data),
                kind.hash_parts(&[&data[..100], &data[100..]])
            );
        }
    }

    #[test]
    fn kind_tags_roundtrip() {
        for k in [HashKind::Null, HashKind::Sha1, HashKind::Sha256] {
            assert_eq!(HashKind::from_tag(k.tag()), Some(k));
        }
        for c in [
            CipherKind::Null,
            CipherKind::Des,
            CipherKind::TripleDes,
            CipherKind::Aes128,
            CipherKind::Aes256,
        ] {
            assert_eq!(CipherKind::from_tag(c.tag()), Some(c));
        }
        assert_eq!(HashKind::from_tag(200), None);
        assert_eq!(CipherKind::from_tag(200), None);
    }

    #[test]
    fn ct_eq_basics() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn secret_key_debug_hides_material() {
        let k = SecretKey::new(vec![1, 2, 3, 4]);
        let s = format!("{k:?}");
        assert!(!s.contains('1'), "debug output leaked key bytes: {s}");
        assert!(s.contains("4 bytes"));
    }

    #[test]
    fn derived_keys_are_truncated_hmacs_under_distinct_labels() {
        let secret = SecretKey::new(b"a 24-byte master secret!".to_vec());
        let full = hmac::Hmac::mac(HashKind::Sha256, secret.as_bytes(), b"label a");
        assert_eq!(secret.derive(b"label a", 32).as_bytes(), full.as_bytes());
        assert_eq!(
            secret.derive(b"label a", 16).as_bytes(),
            &full.as_bytes()[..16]
        );
        assert!(secret.derive(b"label a", 0).is_empty());
        assert_ne!(
            secret.derive(b"label a", 16).as_bytes(),
            secret.derive(b"label b", 16).as_bytes()
        );
        // Any secret length works, including one shorter than the key.
        assert_eq!(SecretKey::new(vec![7; 5]).derive(b"x", 24).len(), 24);
    }

    #[test]
    fn secret_key_random_lengths() {
        let k = SecretKey::random(24);
        assert_eq!(k.len(), 24);
        assert!(!k.is_empty());
        // Two random keys should differ (overwhelming probability).
        let k2 = SecretKey::random(24);
        assert_ne!(k.as_bytes(), k2.as_bytes());
    }
}
