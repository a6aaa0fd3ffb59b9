//! Proof extraction: effective map bodies and root digests.
//!
//! Checkpoint deferral (§4.7) means persisted ancestor descriptors lag the
//! dirty map cache, so an honest Merkle path must be computed from the
//! *effective* tree — cached (possibly dirty) map-chunk bodies with the
//! hashes of dirty subtrees recomputed bottom-up, exactly what a checkpoint
//! would persist. Clean subtrees keep their stored hash links: a clean
//! cached map chunk re-encodes to the very bytes its parent's hash covers.

use tdb_crypto::HashValue;

use crate::descriptor::Descriptor;
use crate::errors::Result;
use crate::ids::{ChunkId, PartitionId, Position};
use crate::proof::{ProofLevel, ReadProof};
use crate::store::Inner;

impl Inner {
    /// The encoded body the map chunk at `(p, pos)` would have after a
    /// checkpoint: cached slots, with each slot that heads a dirty map
    /// subtree rewritten to the recursively recomputed effective hash.
    pub(crate) fn effective_map_body(&mut self, p: PartitionId, pos: Position) -> Result<Vec<u8>> {
        self.ensure_map_chunk(p, pos)?;
        let fanout = self.fanout();
        let hash_len = self.crypto_for(p)?.hash_kind().digest_len();
        let mut chunk = self.map_cache.get(p, pos).expect("ensured above").clone();
        if pos.height >= 2 {
            for slot in 0..chunk.slots.len() {
                let child = pos.child(fanout, slot);
                if !self.subtree_has_dirty(p, child) {
                    continue;
                }
                let h = self.effective_map_hash(p, child)?;
                let old = chunk.slots[slot];
                chunk.slots[slot] = Descriptor::written(old.location, old.vlen, old.size, h);
            }
        }
        Ok(chunk.encode(hash_len))
    }

    /// Effective hash of the map chunk at `(p, pos)`. Unchanged subtrees
    /// are served from the dirty-tree accumulator: only the spine
    /// invalidated by descriptor writes since the last query is re-encoded
    /// and re-hashed, so K batched commits cost roughly one spine
    /// recompute instead of K full-subtree recomputes.
    fn effective_map_hash(&mut self, p: PartitionId, pos: Position) -> Result<HashValue> {
        if let Some(hash) = self.lazy.get(p, pos) {
            return Ok(hash);
        }
        let body = self.effective_map_body(p, pos)?;
        let hash = self.crypto_for(p)?.hash(&body);
        self.lazy.put(p, pos, hash);
        Ok(hash)
    }

    /// The partition's effective root digest: what the root descriptor's
    /// hash would be if a checkpoint ran now (and *is* right after one).
    pub(crate) fn effective_root_hash(&mut self, p: PartitionId) -> Result<HashValue> {
        let height = self.tree_height(p)?;
        if height == 0 {
            // Single-chunk tree: the data chunk is the root; its descriptor
            // lives in the leader and is always effective.
            let root = self.root_descriptor(p)?;
            if root.is_written() {
                return Ok(root.hash);
            }
            return Err(crate::errors::CoreError::NotWritten(ChunkId::new(
                p,
                Position::data(0),
            )));
        }
        self.effective_map_hash(p, Position::map(height, 0))
    }

    /// Extracts the Merkle path for `id` against the effective root.
    /// Callers must hold the engine lock across the paired chunk read so
    /// body and proof describe one committed state.
    pub(crate) fn extract_proof(&mut self, id: ChunkId) -> Result<ReadProof> {
        let height = self.tree_height(id.partition)?;
        let fanout = self.fanout();
        let hash = self.crypto_for(id.partition)?.hash_kind();
        let mut levels = Vec::with_capacity(usize::from(height));
        let mut pos = id.pos;
        while pos.height < height {
            let parent = pos.parent(fanout);
            let body = self.effective_map_body(id.partition, parent)?;
            levels.push(ProofLevel {
                body,
                slot: pos.slot(fanout),
            });
            pos = parent;
        }
        let root = self.effective_root_hash(id.partition)?;
        Ok(ReadProof {
            id,
            hash,
            fanout: self.config.fanout,
            levels,
            root,
        })
    }
}
