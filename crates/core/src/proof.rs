//! Client-verifiable read proofs.
//!
//! The chunk map *is* a Merkle tree — "an arrow from descriptor to chunk is
//! simultaneously a location link and a hash link" (§4.3) — so the path of
//! map-chunk bodies from a chunk up to the partition root is a membership
//! proof: a client holding only the partition's *root digest* can check
//! that a returned chunk body is exactly the one the committed tree vouches
//! for. This is the verifiable-read story of ledger databases (GlassDB and
//! authenticated key-value stores in PAPERS.md) grafted onto TDB's existing
//! machinery.
//!
//! Because checkpointing is deferred (§4.7), the *persisted* ancestor
//! descriptors can be stale between checkpoints; proofs therefore carry the
//! **effective** map-chunk bodies — what a checkpoint would write now — and
//! the root digest is the hash of the effective root body. Right after a
//! checkpoint the effective root digest equals the persisted root
//! descriptor's hash. Any later commit changes the digest (locations are
//! part of map bodies), so a proof is valid for the committed state it was
//! extracted against, identified by its root digest.
//!
//! Verification needs no keys: chunk-state hashes are plain collision-
//! resistant digests (encryption is a separate, orthogonal link). The
//! verifier is a pure function of `(proof, body, root digest)`.

use tdb_crypto::{HashKind, HashValue};

use crate::codec::{Dec, Enc};
use crate::descriptor::{Descriptor, MapChunk};
use crate::errors::{CoreError, Result};
use crate::ids::{ChunkId, PartitionId, Position};
use crate::store::ChunkStore;

/// One level of a read proof: the effective body of the map chunk holding
/// the previous level's descriptor, and the slot index of that descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofLevel {
    /// Encoded effective map-chunk body (exactly `fanout` slots).
    pub body: Vec<u8>,
    /// Slot within `body` holding the child's descriptor.
    pub slot: usize,
}

/// A Merkle membership proof for one chunk against a partition root digest.
///
/// Produced by [`ChunkStore::read_with_proof`]; checked by
/// [`verify_read_proof`] with no access to the store or its keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadProof {
    /// The chunk this proof vouches for.
    pub id: ChunkId,
    /// The partition's hash function (per-partition crypto, §5.2).
    pub hash: HashKind,
    /// Descriptors per map chunk.
    pub fanout: u32,
    /// Map-chunk bodies from the chunk's parent (level 1) up to the
    /// partition root. Empty when the tree has height 0 (the chunk is the
    /// root itself).
    pub levels: Vec<ProofLevel>,
    /// The effective root digest this proof was extracted against.
    pub root: HashValue,
}

impl ReadProof {
    /// Serializes the proof for transport to a client.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(self.id.partition.0);
        e.u8(self.id.pos.height);
        e.u64(self.id.pos.rank);
        e.u8(self.hash.tag());
        e.u32(self.fanout);
        e.bytes(self.root.as_bytes());
        e.list(&self.levels, |e, level| {
            e.u32(level.slot as u32).bytes(&level.body);
        });
        e.finish()
    }

    /// Inverse of [`ReadProof::encode`].
    ///
    /// # Errors
    ///
    /// Fails on truncation or an unknown hash tag.
    pub fn decode(buf: &[u8]) -> Result<ReadProof> {
        let mut d = Dec::new(buf);
        let partition = PartitionId(d.u32()?);
        let height = d.u8()?;
        let rank = d.u64()?;
        let hash = HashKind::from_tag(d.u8()?)
            .ok_or_else(|| CoreError::Corrupt("unknown hash tag in proof".into()))?;
        let fanout = d.u32()?;
        let root_bytes = d.bytes()?;
        if root_bytes.len() != hash.digest_len() {
            return Err(CoreError::Corrupt("proof root digest length".into()));
        }
        let root = HashValue::new(root_bytes);
        let levels = d.list(8, |d| {
            let slot = d.u32()? as usize;
            let body = d.bytes()?.to_vec();
            Ok(ProofLevel { body, slot })
        })?;
        d.expect_done("read proof")?;
        Ok(ReadProof {
            id: ChunkId::new(partition, Position { height, rank }),
            hash,
            fanout,
            levels,
            root,
        })
    }
}

/// Checks a [`ReadProof`] against a trusted root digest.
///
/// Recomputes the hash chain bottom-up: the body's digest must appear —
/// written — in the claimed slot of the level-1 map chunk, each level's
/// digest in the slot above, and the final digest must equal `root`. Slot
/// indices are recomputed from the chunk id, so a proof cannot vouch for a
/// different id's value; the leaf descriptor's size must match the body, so
/// it cannot vouch for a truncated body.
///
/// Pure: needs no store, no keys, no I/O. Returns `false` for
/// [`HashKind::Null`] partitions, which carry no integrity protection to
/// prove.
pub fn verify_read_proof(proof: &ReadProof, body: &[u8], root: &HashValue) -> bool {
    if proof.hash == HashKind::Null || proof.fanout == 0 {
        return false;
    }
    // Proofs vouch for data chunks only, and a u64 rank bounds the tree
    // height; a claimed id or path outside that envelope is a forgery (and
    // must not reach the position arithmetic below, which asserts on the
    // reserved leader height).
    if !proof.id.pos.is_data() || proof.levels.len() > 64 {
        return false;
    }
    let hash_len = proof.hash.digest_len();
    let fanout = u64::from(proof.fanout);
    // Every level must be a whole map chunk of `fanout` slots, checked
    // before decoding: a hostile `fanout` must cost no more than the bytes
    // the proof actually carries.
    let Some(level_len) = (proof.fanout as usize).checked_mul(Descriptor::encoded_len(hash_len))
    else {
        return false;
    };
    if proof
        .levels
        .iter()
        .any(|level| level.body.len() != level_len)
    {
        return false;
    }
    let mut h = proof.hash.hash(body);
    let mut pos = proof.id.pos;
    for (i, level) in proof.levels.iter().enumerate() {
        // The slot must be the one id-based navigation (§4.3) would use.
        if level.slot != pos.slot(fanout) {
            return false;
        }
        let Ok(chunk) = MapChunk::decode(&level.body, proof.fanout as usize, hash_len) else {
            return false;
        };
        let desc = &chunk.slots[level.slot];
        if !desc.is_written() || desc.hash != h {
            return false;
        }
        if i == 0 && proof.id.pos.is_data() && desc.size as usize != body.len() {
            return false;
        }
        h = proof.hash.hash(&level.body);
        pos = pos.parent(fanout);
    }
    // The walk must terminate AT the root: slot indices are digits of the
    // rank base-fanout, so without this a proof for rank r would equally
    // vouch for the out-of-range alias r + fanout^levels.
    if pos.rank != 0 {
        return false;
    }
    // Covers height-0 trees too: no levels, the body hashes to the root.
    h == *root && proof.root == *root
}

impl ChunkStore {
    /// The partition's current *effective root digest*: the hash its root
    /// descriptor would carry if a checkpoint ran now. This is the digest a
    /// client pins to verify [`ReadProof`]s extracted against the same
    /// committed state.
    ///
    /// # Errors
    ///
    /// Fails if the partition does not exist or nothing is written in it.
    pub fn snapshot_root(&self, partition: PartitionId) -> Result<HashValue> {
        let mut inner = self.inner.lock();
        inner.check_readable()?;
        inner.effective_root_hash(partition)
    }

    /// Reads a chunk and extracts its membership proof **atomically** (one
    /// engine-lock hold), so the body, the proof, and the proof's root
    /// digest all describe the same committed state.
    ///
    /// # Errors
    ///
    /// Fails like [`ChunkStore::read`]; proof extraction adds map reads
    /// that validate like any other.
    pub fn read_with_proof(&self, id: ChunkId) -> Result<(Vec<u8>, ReadProof)> {
        let mut inner = self.inner.lock();
        inner.check_readable()?;
        let body = inner.read_chunk(id)?;
        let proof = inner.extract_proof(id)?;
        Ok((body, proof))
    }
}
