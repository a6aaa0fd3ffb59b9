//! Client-verifiable read proofs.
//!
//! The chunk map *is* a Merkle tree — "an arrow from descriptor to chunk is
//! simultaneously a location link and a hash link" (§4.3) — so the path of
//! map chunks from a chunk up to the partition root is a membership proof:
//! a client holding only the partition's *root digest* can check that a
//! returned chunk body is exactly the one the committed tree vouches for.
//! This is the verifiable-read story of ledger databases (GlassDB and
//! authenticated key-value stores in PAPERS.md) grafted onto TDB's existing
//! machinery.
//!
//! A map chunk's digest is the root of a hash tree over its slots (format
//! v3, [`crate::slot_tree`]), so a proof level is not the whole map-chunk
//! body but the one leaf holding the path's descriptor and the sibling
//! digests from that leaf up to the chunk's root: at fanout 64 and
//! SHA-256, 4 × 49 + 6 × 32 bytes instead of 64 × 49.
//!
//! Because checkpointing is deferred (§4.7), the *persisted* ancestor
//! descriptors can be stale between checkpoints; proofs therefore carry the
//! **effective** slots — what a checkpoint would write now — and the root
//! digest is the digest of the effective root map chunk. Right after a
//! checkpoint the effective root digest equals the persisted root
//! descriptor's hash. Any later commit changes the digest (locations are
//! part of map slots), so a proof is valid for the committed state it was
//! extracted against, identified by its root digest.
//!
//! Verification needs no keys: chunk-state hashes are plain collision-
//! resistant digests (encryption is a separate, orthogonal link). The
//! verifier is a pure function of `(proof, body, root digest)`.

use tdb_crypto::{HashKind, HashValue};

use crate::codec::{Dec, Enc};
use crate::descriptor::Descriptor;
use crate::errors::{CoreError, Result};
use crate::ids::{ChunkId, PartitionId, Position};
use crate::slot_tree::{self, LEAF_SLOTS};
use crate::store::ChunkStore;

/// One level of a read proof: in the map chunk holding the previous
/// level's descriptor, the leaf of its slot tree that holds that
/// descriptor and the sibling digests from the leaf up to the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofLevel {
    /// Slot within the map chunk holding the child's descriptor.
    pub slot: usize,
    /// The encoded effective slots of the leaf holding `slot`
    /// ([`LEAF_SLOTS`] of them, fewer in a short last leaf).
    pub leaf: Vec<u8>,
    /// Sibling digests on the leaf's path to the map chunk's root,
    /// bottom-up.
    pub siblings: Vec<HashValue>,
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
    /// One level per map chunk from the chunk's parent (level 1) up to the
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
            e.u32(level.slot as u32).bytes(&level.leaf);
            e.list(&level.siblings, |e, sibling| {
                e.raw(sibling.as_bytes());
            });
        });
        e.finish()
    }

    /// Inverse of [`ReadProof::encode`].
    ///
    /// # Errors
    ///
    /// Fails on truncation, an unknown hash tag, or the null hash, whose
    /// partitions have nothing to prove. A level count or sibling count
    /// the remaining bytes cannot hold is refused before anything is
    /// reserved.
    pub fn decode(buf: &[u8]) -> Result<ReadProof> {
        let mut d = Dec::new(buf);
        let partition = PartitionId(d.u32()?);
        let height = d.u8()?;
        let rank = d.u64()?;
        let hash = HashKind::from_tag(d.u8()?)
            .filter(|kind| *kind != HashKind::Null)
            .ok_or_else(|| CoreError::Corrupt("proof hash tag".into()))?;
        let fanout = d.u32()?;
        let hash_len = hash.digest_len();
        let root_bytes = d.bytes()?;
        if root_bytes.len() != hash_len {
            return Err(CoreError::Corrupt("proof root digest length".into()));
        }
        let root = HashValue::new(root_bytes);
        // Slot, leaf length, one descriptor and the sibling count: the
        // least an honest level takes.
        let level_len = 12 + Descriptor::encoded_len(hash_len);
        let levels = d.list(level_len, |d| {
            let slot = d.u32()? as usize;
            let leaf = d.bytes()?.to_vec();
            let siblings = d.list(hash_len, |d| Ok(HashValue::new(d.raw(hash_len)?)))?;
            Ok(ProofLevel {
                slot,
                leaf,
                siblings,
            })
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
/// written — in the claimed slot of the level-1 leaf, the leaf must fold
/// with its siblings to that map chunk's digest, which must appear in the
/// slot above, and so on; the final digest must equal `root`. Slot
/// indices are recomputed from the chunk id, so a proof cannot vouch for
/// a different id's value; each leaf must be exactly its slots' length,
/// and each level exactly its path's siblings, for the tree shape the
/// fanout fixes; the leaf descriptor's size must match the body, so it
/// cannot vouch for a truncated body.
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
    let slot_len = Descriptor::encoded_len(hash_len);
    let fanout = u64::from(proof.fanout);
    let slots = proof.fanout as usize;
    let leaves = slot_tree::leaf_count(slots);
    let mut h = proof.hash.hash(body);
    let mut pos = proof.id.pos;
    for (i, level) in proof.levels.iter().enumerate() {
        // The slot must be the one id-based navigation (§4.3) would use.
        if level.slot != pos.slot(fanout) {
            return false;
        }
        let leaf = level.slot / LEAF_SLOTS;
        let in_leaf = slot_tree::leaf_slots(leaf, slots);
        if level.leaf.len() != in_leaf.len() * slot_len {
            return false;
        }
        let at = (level.slot - in_leaf.start) * slot_len;
        let mut d = Dec::new(&level.leaf[at..at + slot_len]);
        let Ok(desc) = Descriptor::decode(&mut d, hash_len) else {
            return false;
        };
        if !desc.is_written() || desc.hash != h {
            return false;
        }
        if i == 0 && desc.size as usize != body.len() {
            return false;
        }
        let digest = slot_tree::leaf_digest(proof.hash, &level.leaf);
        let Some(up) = slot_tree::fold(proof.hash, leaves, leaf, digest, &level.siblings) else {
            return false;
        };
        h = up;
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
