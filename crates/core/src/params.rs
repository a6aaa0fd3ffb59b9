//! Per-partition cryptographic parameters (§2.2, §5.2).
//!
//! Each partition protects its chunks with its own secret key, cipher, and
//! collision-resistant hash function, so applications can trade protection
//! for speed per data type, and "using different secret keys reduces the
//! loss from the disclosure of a single key". The system partition uses a
//! fixed, conservative pair (the paper: 3DES + SHA-1; here AES-128 + SHA-1
//! by default) keyed from the secret store, forming the root of the *cipher
//! links* from the secret store to every chunk. The system key is derived
//! from the secret, never the secret itself
//! ([`crate::store::ChunkStoreConfig::system_params`]).

use tdb_crypto::cbc::{Cbc, Job, CHAINS, MAX_IVS};
use tdb_crypto::hmac::HmacKey;
use tdb_crypto::{CipherKind, HashKind, HashValue, SecretKey};

use crate::codec::{Dec, Enc};
use crate::errors::{CoreError, Result, TamperKind};

/// The cryptographic parameters of one partition.
#[derive(Clone)]
pub struct CryptoParams {
    /// Cipher protecting chunk bodies.
    pub cipher: CipherKind,
    /// Collision-resistant hash over chunk state.
    pub hash: HashKind,
    /// The partition's secret key. For the system partition this is the key
    /// in the platform's secret store; for others it is stored inside the
    /// (system-encrypted) partition leader.
    pub key: SecretKey,
}

impl CryptoParams {
    /// Parameters with a freshly generated random key.
    pub fn generate(cipher: CipherKind, hash: HashKind) -> CryptoParams {
        CryptoParams {
            cipher,
            hash,
            key: SecretKey::random(cipher.key_len()),
        }
    }

    /// The paper's defaults for user partitions: DES + SHA-1 (§9.2.1).
    pub fn paper_default() -> CryptoParams {
        Self::generate(CipherKind::Des, HashKind::Sha1)
    }

    /// The paper's system-partition parameters: 3DES + SHA-1 (§5.2), with
    /// the given secret-store key.
    pub fn paper_system(key: SecretKey) -> CryptoParams {
        CryptoParams {
            cipher: CipherKind::TripleDes,
            hash: HashKind::Sha1,
            key,
        }
    }

    /// Serializes the parameters (key included — callers must only embed
    /// this inside data that is itself encrypted, i.e. partition leaders).
    pub fn encode(&self, e: &mut Enc) {
        e.u8(self.cipher.tag());
        e.u8(self.hash.tag());
        e.bytes(self.key.as_bytes());
    }

    /// Inverse of [`CryptoParams::encode`].
    ///
    /// # Errors
    ///
    /// Fails on unknown tags or a key of the wrong length.
    pub fn decode(d: &mut Dec<'_>) -> Result<CryptoParams> {
        let cipher = CipherKind::from_tag(d.u8()?)
            .ok_or_else(|| CoreError::Corrupt("unknown cipher tag".into()))?;
        let hash = HashKind::from_tag(d.u8()?)
            .ok_or_else(|| CoreError::Corrupt("unknown hash tag".into()))?;
        let key_bytes = d.bytes()?;
        if key_bytes.len() != cipher.key_len() {
            return Err(CoreError::Corrupt(format!(
                "key length {} does not match cipher {:?}",
                key_bytes.len(),
                cipher
            )));
        }
        Ok(CryptoParams {
            cipher,
            hash,
            key: SecretKey::new(key_bytes.to_vec()),
        })
    }

    /// Builds the runtime cipher/hash handle.
    ///
    /// # Errors
    ///
    /// Fails if the key does not match the cipher's key length.
    pub fn runtime(&self) -> Result<PartitionCrypto> {
        let cbc = Cbc::new(self.cipher, self.key.as_bytes())?;
        // The null hash falls back to SHA-256 so a signature always exists
        // (§4.8.2.2); the pad midstates are derived once here, not per MAC.
        let sign_kind = if self.hash == HashKind::Null {
            HashKind::Sha256
        } else {
            self.hash
        };
        Ok(PartitionCrypto {
            cipher: self.cipher,
            hash: self.hash,
            mac_key: HmacKey::new(sign_kind, self.key.as_bytes()),
            cbc,
        })
    }
}

impl std::fmt::Debug for CryptoParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Key material is never printed.
        write!(f, "CryptoParams({:?}, {:?})", self.cipher, self.hash)
    }
}

/// Runtime encrypt/decrypt/hash/sign operations for one partition.
pub struct PartitionCrypto {
    cipher: CipherKind,
    hash: HashKind,
    /// Cached HMAC pad midstates under the partition key (the signing
    /// analogue of the cipher's cached key schedule).
    mac_key: HmacKey,
    cbc: Cbc,
}

impl PartitionCrypto {
    /// The partition's hash function.
    pub fn hash_kind(&self) -> HashKind {
        self.hash
    }

    /// The partition's cipher.
    pub fn cipher_kind(&self) -> CipherKind {
        self.cipher
    }

    /// Encrypts `plain`, returning `IV ‖ ciphertext` under a fresh IV.
    ///
    /// This is the body form (format v4): the ciphertext is [`CHAINS`]
    /// interleaved CBC chains, block `i` chaining to block `i − CHAINS`,
    /// under the chain IVs [`PartitionCrypto::chain_ivs`] derives from the
    /// stored IV. Every sealed body takes it; a version header is one
    /// chain ([`PartitionCrypto::encrypt_in_place`]).
    pub fn encrypt(&self, plain: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encrypt_append(plain, &mut out);
        out
    }

    /// Appends `IV ‖ ciphertext` under a fresh IV to `out`, ciphering in
    /// place (a single buffer, no intermediate IV or ciphertext vectors).
    pub fn encrypt_append(&self, plain: &[u8], out: &mut Vec<u8>) {
        let bs = self.cbc.block_size();
        let mut iv = [0u8; 16];
        let iv = &mut iv[..bs];
        self.cbc.fill_iv(iv);
        let mut chains = [0u8; MAX_IVS];
        let chains = &mut chains[..CHAINS * bs];
        self.cbc
            .chain_ivs(iv, chains)
            .expect("one block of IV, CHAINS of chain IVs");
        out.reserve(bs + self.cbc.ciphertext_len(plain.len()));
        out.extend_from_slice(iv);
        self.cbc
            .encrypt_append(chains, plain, out)
            .expect("chain IVs always have the right length");
    }

    /// Encrypts every buffer in place under a fresh IV, the IVs drawn in
    /// order. A buffer is room for the IV, `len` bytes of plaintext and
    /// room for the padding, [`PartitionCrypto::sealed_len`]`(len)` bytes
    /// in all, and comes out as `IV ‖ ciphertext`, the body form of
    /// [`PartitionCrypto::encrypt`]. One kernel call derives every chain
    /// IV and one more enciphers every body, so a cipher with lanes runs
    /// all their chains in lockstep.
    pub fn encrypt_many(&self, bufs: &mut [(&mut [u8], usize)]) {
        let bs = self.cbc.block_size();
        let mut ivs = vec![0u8; bufs.len() * bs];
        for ((buf, _), iv) in bufs.iter_mut().zip(ivs.chunks_exact_mut(bs)) {
            self.cbc.fill_iv(&mut buf[..bs]);
            iv.copy_from_slice(&buf[..bs]);
        }
        let mut chains = vec![0u8; CHAINS * ivs.len()];
        if !bufs.is_empty() {
            self.cbc
                .chain_ivs(&ivs, &mut chains)
                .expect("whole IVs, CHAINS chain IVs each");
        }
        let mut jobs: Vec<Job<'_>> = bufs
            .iter_mut()
            .zip(chains.chunks_exact(CHAINS * bs))
            .map(|((buf, len), chains)| (chains, &mut buf[bs..], *len))
            .collect();
        self.encrypt_many_in_place(&mut jobs);
    }

    /// [`PartitionCrypto::encrypt_in_place`] over many buffers, each under
    /// its own caller-supplied IV, in one kernel call.
    pub fn encrypt_many_in_place(&self, jobs: &mut [Job<'_>]) {
        self.cbc
            .encrypt_many(jobs)
            .expect("callers size the IVs and the buffers");
    }

    /// Decrypts `IV ‖ ciphertext` produced by [`PartitionCrypto::encrypt`].
    ///
    /// # Errors
    ///
    /// Returns a tamper-detection error at `location` when the ciphertext
    /// does not decrypt (wrong length or corrupt padding).
    pub fn decrypt(&self, data: &[u8], location: u64) -> Result<Vec<u8>> {
        let bs = self.cbc.block_size();
        if data.len() < bs {
            return Err(CoreError::TamperDetected(TamperKind::UndecryptableChunk {
                location,
            }));
        }
        let (iv, ct) = data.split_at(bs);
        self.cbc
            .decrypt_chained(iv, ct)
            .map_err(|_| CoreError::TamperDetected(TamperKind::UndecryptableChunk { location }))
    }

    /// The [`CHAINS`] chain IVs a body sealed under the stored IV `iv`
    /// is enciphered under, back to back: for laying out or checking a
    /// body by hand with [`PartitionCrypto::encrypt_in_place`].
    pub fn chain_ivs(&self, iv: &[u8]) -> Vec<u8> {
        let mut chains = vec![0u8; CHAINS * iv.len()];
        self.cbc
            .chain_ivs(iv, &mut chains)
            .expect("callers pass one block");
        chains
    }

    /// Ciphertext length (including the IV) for a plaintext of `len` bytes.
    pub fn sealed_len(&self, len: usize) -> usize {
        self.cbc.block_size() + self.cbc.ciphertext_len(len)
    }

    /// The cipher's block size, which is also its IV length.
    pub fn block_size(&self) -> usize {
        self.cbc.block_size()
    }

    /// Ciphertext length, without an IV, for a plaintext of `len` bytes.
    pub fn ciphertext_len(&self, len: usize) -> usize {
        self.cbc.ciphertext_len(len)
    }

    /// Fills `iv`, one block, with `E(seed ‖ 0…)`: `seed` truncated or
    /// zero-filled to one block and enciphered under the key. An IV
    /// derived from a stored nonce this way is unpredictable to anyone
    /// without the key (NIST SP 800-38A, Appendix C).
    pub fn derive_iv(&self, seed: &[u8], iv: &mut [u8]) {
        let n = seed.len().min(iv.len());
        iv[..n].copy_from_slice(&seed[..n]);
        iv[n..].fill(0);
        self.cbc.encrypt_block(iv).expect("callers pass one block");
    }

    /// Encrypts in place under a caller-supplied `iv` (one block for one
    /// chain, as a version header is sealed, or a body's chain IVs):
    /// `buf` holds `len` bytes of plaintext and room for the padding,
    /// [`PartitionCrypto::ciphertext_len`]`(len)` bytes in all.
    pub fn encrypt_in_place(&self, iv: &[u8], buf: &mut [u8], len: usize) {
        self.cbc
            .encrypt_padded(iv, buf, len)
            .expect("callers size the IV and the buffer");
    }

    /// Decrypts `buf` in place under `iv` and returns the length of the
    /// plaintext it then starts with.
    ///
    /// # Errors
    ///
    /// Returns a tamper-detection error at `location` when the ciphertext
    /// does not decrypt.
    pub fn decrypt_in_place(&self, iv: &[u8], buf: &mut [u8], location: u64) -> Result<usize> {
        self.cbc
            .decrypt_padded(iv, buf)
            .map_err(|_| CoreError::TamperDetected(TamperKind::UndecryptableChunk { location }))
    }

    /// Hash of `data` with the partition's hash function.
    pub fn hash(&self, data: &[u8]) -> HashValue {
        self.hash.hash(data)
    }

    /// Hash over several segments.
    pub fn hash_parts(&self, parts: &[&[u8]]) -> HashValue {
        self.hash.hash_parts(parts)
    }

    /// Symmetric signature (HMAC under the partition key) over `parts`.
    ///
    /// Used for commit chunks and backup signatures; "the signature need not
    /// be publicly verifiable, so it may be based on symmetric-key
    /// encryption" (§4.8.2.2). The null hash falls back to SHA-256 so a
    /// signature always exists (the fallback is chosen at keying time).
    pub fn sign(&self, parts: &[&[u8]]) -> HashValue {
        self.mac_key.mac_parts(parts)
    }

    /// Verifies a signature produced by [`PartitionCrypto::sign`].
    pub fn verify(&self, parts: &[&[u8]], tag: &HashValue) -> bool {
        self.sign(parts).ct_eq(tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let p = CryptoParams::generate(CipherKind::Aes256, HashKind::Sha256);
        let mut e = Enc::new();
        p.encode(&mut e);
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        let q = CryptoParams::decode(&mut d).unwrap();
        assert!(d.is_done());
        assert_eq!(q.cipher, CipherKind::Aes256);
        assert_eq!(q.hash, HashKind::Sha256);
        assert_eq!(q.key.as_bytes(), p.key.as_bytes());
    }

    #[test]
    fn derived_iv_is_one_enciphered_block() {
        for cipher in [CipherKind::TripleDes, CipherKind::Aes128, CipherKind::Null] {
            let rt = CryptoParams::generate(cipher, HashKind::Sha1)
                .runtime()
                .unwrap();
            let bs = rt.block_size();
            let (mut a, mut b) = (vec![0u8; bs], vec![0u8; bs]);
            rt.derive_iv(&[7u8; 16], &mut a);
            rt.derive_iv(&[7u8; 16][..bs.min(8)], &mut b);
            // Seeds are truncated or zero-filled to one block.
            assert_eq!(a == b, bs <= 8, "{cipher:?}");
            let mut c = vec![0u8; bs];
            rt.derive_iv(&[8u8; 16], &mut c);
            assert_ne!(a, c, "{cipher:?}");
        }
    }

    #[test]
    fn decode_rejects_mismatched_key() {
        let mut e = Enc::new();
        e.u8(CipherKind::Des.tag());
        e.u8(HashKind::Sha1.tag());
        e.bytes(&[0u8; 5]); // DES needs 8 bytes.
        let buf = e.finish();
        assert!(matches!(
            CryptoParams::decode(&mut Dec::new(&buf)),
            Err(CoreError::Corrupt(_))
        ));
    }

    #[test]
    fn seal_unseal_roundtrip() {
        for (cipher, hash) in [
            (CipherKind::TripleDes, HashKind::Sha1),
            (CipherKind::Aes128, HashKind::Sha256),
            (CipherKind::Null, HashKind::Null),
        ] {
            let rt = CryptoParams::generate(cipher, hash).runtime().unwrap();
            for len in [0usize, 1, 100, 4096] {
                let plain: Vec<u8> = (0..len).map(|i| i as u8).collect();
                let sealed = rt.encrypt(&plain);
                assert_eq!(sealed.len(), rt.sealed_len(len), "{cipher:?} {len}");
                assert_eq!(rt.decrypt(&sealed, 0).unwrap(), plain);
            }
        }
    }

    #[test]
    fn decrypt_corruption_is_tamper() {
        let rt = CryptoParams::generate(CipherKind::Aes128, HashKind::Sha1)
            .runtime()
            .unwrap();
        let sealed = rt.encrypt(b"secret chunk body");
        // Truncated to a non-block length.
        let err = rt.decrypt(&sealed[..sealed.len() - 3], 99).unwrap_err();
        assert!(err.is_tamper());
        // Too short to even hold an IV.
        assert!(rt.decrypt(&sealed[..4], 99).unwrap_err().is_tamper());
    }

    #[test]
    fn sign_verify() {
        let rt = CryptoParams::generate(CipherKind::TripleDes, HashKind::Sha1)
            .runtime()
            .unwrap();
        let tag = rt.sign(&[b"commit", b"set"]);
        assert!(rt.verify(&[b"commit", b"set"], &tag));
        assert!(!rt.verify(&[b"commit", b"forged"], &tag));
    }

    #[test]
    fn null_hash_partitions_still_sign() {
        let rt = CryptoParams::generate(CipherKind::Des, HashKind::Null)
            .runtime()
            .unwrap();
        let tag = rt.sign(&[b"x"]);
        assert!(!tag.is_empty());
        assert!(rt.verify(&[b"x"], &tag));
    }

    #[test]
    fn different_partitions_produce_unrelated_ciphertexts() {
        let a = CryptoParams::generate(CipherKind::Aes128, HashKind::Sha1)
            .runtime()
            .unwrap();
        let b = CryptoParams::generate(CipherKind::Aes128, HashKind::Sha1)
            .runtime()
            .unwrap();
        let sealed = a.encrypt(b"cross-partition read attempt");
        assert!(
            b.decrypt(&sealed, 0).is_err()
                || b.decrypt(&sealed, 0).unwrap() != b"cross-partition read attempt"
        );
    }
}
