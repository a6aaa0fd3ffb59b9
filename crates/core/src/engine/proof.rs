//! Proof extraction: effective slot trees and root digests.
//!
//! Checkpoint deferral (§4.7) means persisted ancestor descriptors lag the
//! dirty map cache, so an honest Merkle path must be computed from the
//! *effective* tree — cached (possibly dirty) map-chunk slots, with the
//! digests of dirty subtrees recomputed bottom-up, exactly what a
//! checkpoint would persist. Clean subtrees keep their stored hash links: a
//! clean cached map chunk re-encodes to the very bytes its parent's digest
//! covers. Each map chunk's digest is the root of its slot tree
//! ([`crate::slot_tree`]), which its map-cache entry keeps
//! ([`crate::cache`]).

use std::ops::Range;

use tdb_crypto::HashValue;

use crate::codec::Enc;
use crate::descriptor::Descriptor;
use crate::errors::Result;
use crate::ids::{ChunkId, PartitionId, Position};
use crate::proof::{ProofLevel, ReadProof};
use crate::slot_tree::{self, LEAF_SLOTS};
use crate::store::Inner;

impl Inner {
    /// The encoded effective descriptors in `slots` of the map chunk at
    /// `(p, pos)`: what a checkpoint would write now, so cached, with each
    /// slot that heads a dirty map subtree carrying that subtree's
    /// effective digest.
    fn effective_slots(
        &mut self,
        p: PartitionId,
        pos: Position,
        slots: Range<usize>,
    ) -> Result<Vec<u8>> {
        self.ensure_map_chunk(p, pos)?;
        let hash_len = self.crypto_for(p)?.hash_kind().digest_len();
        let fanout = self.fanout();
        let substitute = pos.height >= 2 && self.subtree_has_dirty(p, pos);
        let cached =
            self.map_cache.get(p, pos).expect("ensured above").slots[slots.clone()].to_vec();
        let mut e = Enc::with_capacity(cached.len() * Descriptor::encoded_len(hash_len));
        for (slot, mut desc) in slots.zip(cached) {
            let child = pos.child(fanout, slot);
            if substitute && self.subtree_has_dirty(p, child) {
                let h = self.effective_map_hash(p, child)?;
                desc = Descriptor::written(desc.location, desc.vlen, desc.size, h);
            }
            desc.encode(&mut e, hash_len);
        }
        Ok(e.finish())
    }

    /// Effective digest of the map chunk at `(p, pos)`: the root of its
    /// slot tree over the effective body. A current cached tree answers
    /// with no hashing; otherwise only its stale leaves and their paths
    /// are rehashed, so K batched commits cost roughly one spine of leaves
    /// instead of K subtrees. On return the chunk is cached with a current
    /// tree.
    fn effective_map_hash(&mut self, p: PartitionId, pos: Position) -> Result<HashValue> {
        if let Some(hash) = self.map_cache.current_root(p, pos) {
            return Ok(hash);
        }
        let kind = self.crypto_for(p)?.hash_kind();
        let body = self.effective_slots(p, pos, 0..self.config.fanout as usize)?;
        // The children's loads may have evicted the chunk since.
        self.ensure_map_chunk(p, pos)?;
        Ok(self.map_cache.root_over(p, pos, kind, &body))
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

    /// Extracts the Merkle path for `id` against the effective root: per
    /// map level, the leaf holding the path's slot and its siblings,
    /// copied from the refreshed slot tree. Callers must hold the engine
    /// lock across the paired chunk read so body and proof describe one
    /// committed state.
    pub(crate) fn extract_proof(&mut self, id: ChunkId) -> Result<ReadProof> {
        let p = id.partition;
        let height = self.tree_height(p)?;
        let fanout = self.fanout();
        let hash = self.crypto_for(p)?.hash_kind();
        let root = self.effective_root_hash(p)?;
        let mut levels = Vec::with_capacity(usize::from(height));
        let mut pos = id.pos;
        while pos.height < height {
            let parent = pos.parent(fanout);
            let slot = pos.slot(fanout);
            let leaf_index = slot / LEAF_SLOTS;
            self.effective_map_hash(p, parent)?;
            let siblings = self
                .map_cache
                .path(p, parent, leaf_index)
                .expect("refreshed above");
            let leaf = self.effective_slots(
                p,
                parent,
                slot_tree::leaf_slots(leaf_index, self.config.fanout as usize),
            )?;
            levels.push(ProofLevel {
                slot,
                leaf,
                siblings,
            });
            pos = parent;
        }
        Ok(ReadProof {
            id,
            hash,
            fanout: self.config.fanout,
            levels,
            root,
        })
    }
}
