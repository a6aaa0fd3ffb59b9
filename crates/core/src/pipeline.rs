//! The crypto pipeline: lays out, hashes and seals a batch of chunk bodies
//! ahead of their log appends, the bodies of one cipher as lanes of one
//! kernel call.
//!
//! The paper identifies cryptography as the dominant cost of the chunk
//! store (§9.3), and a sealed version is location-independent: the sealed
//! bytes and the body hash of every `WriteChunk` in a commit set (and of
//! every dirty map chunk at one level of a checkpoint) can be computed
//! before any log offset is assigned. [`seal_batch`] does exactly that, and
//! the log append then serializes only the already-ciphered buffers,
//! preserving append order and therefore the log hashes.
//!
//! So a committer seals its own writes before it takes the engine lock, and
//! the engine seals only what the committer could not.
//!
//! CBC encryption is serial within a buffer, but the buffers of a batch
//! are independent. [`seal_versions`], where every version is made, hands
//! all bodies under one partition crypto to one `Cbc::encrypt_many` call,
//! which enciphers them in lockstep, a block of each per step: DES and 3DES
//! in bitsliced passes of 256 lanes on AVX-512 or four lanes on the table
//! kernel, AES-NI four lanes. Then it encrypts every header in one call
//! under the system crypto. All of it runs on the caller's thread, so no
//! thread is created and the IVs are drawn in a fixed order.

use std::sync::Arc;

use tdb_crypto::HashValue;

use crate::ids::ChunkId;
use crate::metrics::{self, modules};
use crate::params::PartitionCrypto;
use crate::slot_tree::chunk_digest;
use crate::version::{VersionHeader, VersionKind, HEADER_LEN, MAX_BLOCK};

/// A chunk body hashed and sealed ahead of its log append.
pub(crate) struct Presealed {
    /// Hash of the body under the partition's hash function.
    pub hash: HashValue,
    /// The sealed version (header + body ciphertext), ready to append.
    pub sealed: Vec<u8>,
    /// Body length, which the descriptor's `size` records.
    pub body_len: u32,
    /// The partition crypto the body was sealed under, which the engine
    /// checks against the partition's current one before it appends.
    pub crypto: Arc<PartitionCrypto>,
}

/// The seals of one op set's writes, by op index.
pub(crate) type Seals = Vec<Option<Presealed>>;

/// One seal job: `(id, partition crypto, plaintext body)`.
pub(crate) type SealJob<'a> = (ChunkId, Arc<PartitionCrypto>, &'a [u8]);

/// Hashes and seals one body as a version of `kind`: a batch of one.
pub(crate) fn seal_one(
    system: &PartitionCrypto,
    kind: VersionKind,
    job: &SealJob<'_>,
) -> Presealed {
    seal_batch(system, kind, std::slice::from_ref(job))
        .pop()
        .expect("one job, one version")
}

/// Hashes every job's body ([`chunk_digest`]) and seals it as a version of
/// `kind`, and returns the results in job order.
pub(crate) fn seal_batch(
    system: &PartitionCrypto,
    kind: VersionKind,
    jobs: &[SealJob<'_>],
) -> Vec<Presealed> {
    let hashes = {
        let _t = metrics::span(modules::HASHING);
        jobs.iter()
            .map(|(id, crypto, body)| chunk_digest(crypto.hash_kind(), id.pos, body))
            .collect()
    };
    seal_hashed(system, kind, jobs, hashes)
}

/// [`seal_batch`] for bodies whose digests the caller already holds, one
/// per job: a checkpoint's map chunks, whose slot trees the map cache keeps,
/// and a cleaning pass's relocations, whose digests validation has just
/// compared with the map's.
pub(crate) fn seal_hashed(
    system: &PartitionCrypto,
    kind: VersionKind,
    jobs: &[SealJob<'_>],
    hashes: Vec<HashValue>,
) -> Vec<Presealed> {
    debug_assert_eq!(jobs.len(), hashes.len());
    let bodies: Vec<_> = jobs
        .iter()
        .map(|(id, crypto, body)| (*id, &**crypto, *body))
        .collect();
    let sealed = seal_versions(system, kind, &bodies);
    jobs.iter()
        .zip(sealed)
        .zip(hashes)
        .map(|(((_, crypto, body), sealed), hash)| Presealed {
            hash,
            sealed,
            body_len: body.len() as u32,
            crypto: Arc::clone(crypto),
        })
        .collect()
}

/// Builds the on-log bytes of one version of `kind` per job
/// `(id, body crypto, body)`, in job order.
///
/// Sealed lengths are deterministic (IV + padded ciphertext), so each
/// version is laid into one buffer and ciphered in place. The bodies go
/// first, one `encrypt_many` call per body crypto (grouped by identity, in
/// order of first appearance, each drawing its IVs in job order), since
/// each header's IV derives from its body's. Then every header, in one
/// call under `system`.
pub(crate) fn seal_versions(
    system: &PartitionCrypto,
    kind: VersionKind,
    jobs: &[(ChunkId, &PartitionCrypto, &[u8])],
) -> Vec<Vec<u8>> {
    let _t = metrics::span(modules::ENCRYPTION);
    let body_start = 2 + system.ciphertext_len(HEADER_LEN);
    let mut out: Vec<Vec<u8>> = jobs
        .iter()
        .map(|&(id, crypto, body)| {
            let body_ct_len = crypto.sealed_len(body.len());
            let header = VersionHeader {
                kind,
                id,
                body_len: body.len() as u32,
                body_ct_len: body_ct_len as u32,
                reserved_bit: false,
            };
            let iv_len = crypto.block_size();
            let mut version = Vec::with_capacity(body_start + body_ct_len);
            version.extend_from_slice(&(iv_len as u16).to_le_bytes());
            version.extend_from_slice(&header.encode());
            version.resize(body_start + iv_len, 0);
            version.extend_from_slice(body);
            version.resize(body_start + body_ct_len, 0);
            version
        })
        .collect();
    let mut groups: Vec<(&PartitionCrypto, Vec<_>)> = Vec::new();
    for (version, &(_, crypto, body)) in out.iter_mut().zip(jobs) {
        let buf = (&mut version[body_start..], body.len());
        match groups.iter_mut().find(|(c, _)| std::ptr::eq(*c, crypto)) {
            Some((_, bufs)) => bufs.push(buf),
            None => groups.push((crypto, vec![buf])),
        }
    }
    for (crypto, bufs) in &mut groups {
        crypto.encrypt_many(bufs);
    }
    let bs = system.block_size();
    let ivs: Vec<[u8; MAX_BLOCK]> = out
        .iter()
        .zip(jobs)
        .map(|(version, (_, crypto, _))| {
            let mut iv = [0u8; MAX_BLOCK];
            let body_iv = &version[body_start..body_start + crypto.block_size()];
            system.derive_iv(body_iv, &mut iv[..bs]);
            iv
        })
        .collect();
    let mut headers: Vec<_> = ivs
        .iter()
        .zip(&mut out)
        .map(|(iv, version)| (&iv[..bs], &mut version[2..body_start], HEADER_LEN))
        .collect();
    system.encrypt_many_in_place(&mut headers);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PartitionId;
    use crate::params::CryptoParams;
    use tdb_crypto::{CipherKind, HashKind};

    fn crypto(cipher: CipherKind) -> Arc<PartitionCrypto> {
        Arc::new(
            CryptoParams::generate(cipher, HashKind::Sha1)
                .runtime()
                .unwrap(),
        )
    }

    /// One mixed batch: two DES partitions under different keys (45 and 6
    /// bodies: a bitsliced group and a four-lane one), an AES partition (5
    /// bodies, AES-NI lanes) and a 3DES body alone, interleaved, of 0 to
    /// 5000 bytes. Each version's body is its plaintext encrypted on its
    /// own under the IV it carries, its header the same under the IV
    /// derived from that, and no two versions share a body IV. Under an
    /// AES system crypto the 57 headers go four at a time, under 3DES in
    /// one bitsliced group.
    #[test]
    fn a_mixed_batch_seals_what_serial_cbc_seals() {
        let parts = [
            crypto(CipherKind::Des),
            crypto(CipherKind::Des),
            crypto(CipherKind::Aes128),
            crypto(CipherKind::TripleDes),
        ];
        let owner = |i: usize| match i {
            17 => 3,
            _ if i % 11 == 4 => 2,
            _ if i % 9 == 1 => 1,
            _ => 0,
        };
        let bodies: Vec<Vec<u8>> = (0..57usize)
            .map(|i| (0..(i * 1847) % 5001).map(|j| (i * 7 + j) as u8).collect())
            .collect();
        let jobs: Vec<SealJob<'_>> = bodies
            .iter()
            .enumerate()
            .map(|(i, body)| {
                let id = ChunkId::data(PartitionId(1 + owner(i) as u32), i as u64);
                (id, Arc::clone(&parts[owner(i)]), body.as_slice())
            })
            .collect();
        for system in [crypto(CipherKind::Aes128), crypto(CipherKind::TripleDes)] {
            let sealed = seal_batch(&system, VersionKind::Named, &jobs);
            let body_start = 2 + system.ciphertext_len(HEADER_LEN);
            let mut ivs = std::collections::HashSet::new();
            for ((id, part, body), pre) in jobs.iter().zip(&sealed) {
                assert!(Arc::ptr_eq(part, &pre.crypto));
                assert_eq!(pre.hash, part.hash(body));
                let (head, sealed_body) = pre.sealed.split_at(body_start);
                let (iv, ciphertext) = sealed_body.split_at(part.block_size());
                assert_eq!(head[..2], (iv.len() as u16).to_le_bytes());
                let mut expect = body.to_vec();
                expect.resize(part.ciphertext_len(body.len()), 0);
                part.encrypt_in_place(&part.chain_ivs(iv), &mut expect, body.len());
                assert_eq!(ciphertext, expect, "body of {id:?}");
                let header = VersionHeader {
                    kind: VersionKind::Named,
                    id: *id,
                    body_len: body.len() as u32,
                    body_ct_len: sealed_body.len() as u32,
                    reserved_bit: false,
                };
                let mut expect = header.encode().to_vec();
                expect.resize(system.ciphertext_len(HEADER_LEN), 0);
                let mut iv_h = vec![0; system.block_size()];
                system.derive_iv(iv, &mut iv_h);
                system.encrypt_in_place(&iv_h, &mut expect, HEADER_LEN);
                assert_eq!(head[2..], expect, "header of {id:?}");
                assert!(ivs.insert(iv.to_vec()), "{id:?} repeats a body IV");
            }
        }
    }

    /// A batch of one is the same version `seal_one` makes.
    #[test]
    fn a_batch_of_one_parses_back() {
        let (system, part) = (crypto(CipherKind::Aes128), crypto(CipherKind::Des));
        let id = ChunkId::data(PartitionId(1), 9);
        let pre = seal_one(
            &system,
            VersionKind::Relocated,
            &(id, Arc::clone(&part), b"x"),
        );
        let raw = crate::version::parse_version(&system, &pre.sealed, 0)
            .unwrap()
            .unwrap();
        assert_eq!(
            (raw.header.kind, raw.header.id),
            (VersionKind::Relocated, id)
        );
        assert_eq!(raw.open_body(&part, 0).unwrap(), b"x");
        assert_eq!((pre.body_len, pre.hash), (1, part.hash(b"x")));
    }
}
