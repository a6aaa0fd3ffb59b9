//! Lazy Merkle materialization: the dirty-tree accumulator.
//!
//! Checkpoint deferral (§4.7) already keeps commits from re-hashing
//! ancestor map levels — but every `snapshot_root` / `read_with_proof`
//! recomputes the *effective* tree ([`crate::engine::proof`]) from scratch:
//! each dirty map subtree is re-encoded and re-hashed on every call, even
//! when nothing in it changed since the last call. Under a proof-heavy
//! workload (GlassDB-style verifiable reads) that eager recompute dominates
//! the sealed-vs-plaintext gap.
//!
//! The accumulator memoizes effective subtree hashes between mutations.
//! Commits invalidate only the O(height) spine above each touched
//! descriptor; root/proof queries then recompute just the invalidated
//! spine and serve every unchanged sibling subtree from the memo, so K
//! batched commits pay roughly one level recompute instead of K.
//!
//! Invariant: `memo[(p, pos)]`, when present, equals the hash of the
//! effective body of map chunk `(p, pos)` — the bytes a checkpoint would
//! persist right now. Every mutation that can change an effective body
//! must remove the affected entries:
//!
//! - descriptor writes invalidate the parent-to-root spine
//!   ([`crate::store::Inner::set_descriptor`]);
//! - tree growth, partition dealloc/purge, and partition copies drop the
//!   whole partition (rare, conservative);
//! - a failed mutation rolling back to its savepoint clears everything.
//!
//! Marking a chunk clean (checkpoint) does *not* invalidate: the persisted
//! body is byte-identical to the effective body the memo hashed. The
//! paper's eager recompute is an empty memo: tests reach it through
//! `ChunkStore::debug_forget_integrity_memo` and hold the memo to it.

use std::collections::HashMap;

use tdb_crypto::HashValue;

use crate::ids::{PartitionId, Position};

/// Memo of effective map-subtree hashes, keyed by map position.
#[derive(Debug, Default)]
pub(crate) struct DirtyTreeAccumulator {
    memo: HashMap<(PartitionId, Position), HashValue>,
    /// Effective-hash lookups served from the memo.
    pub hits: u64,
    /// Effective-hash lookups that had to recompute (and filled the memo).
    pub recomputes: u64,
    /// Memo entries dropped by spine/partition invalidation.
    pub invalidations: u64,
}

impl DirtyTreeAccumulator {
    /// Memoized effective hash of map chunk `(p, pos)`, if current.
    pub fn get(&mut self, p: PartitionId, pos: Position) -> Option<HashValue> {
        let hit = self.memo.get(&(p, pos)).copied();
        if hit.is_some() {
            self.hits += 1;
        }
        hit
    }

    /// Records a freshly computed effective hash.
    pub fn put(&mut self, p: PartitionId, pos: Position, hash: HashValue) {
        self.recomputes += 1;
        self.memo.insert((p, pos), hash);
    }

    /// Invalidates the spine above a descriptor write at `pos`: every map
    /// ancestor strictly above `pos` up to the tree root at `height` has a
    /// changed effective body. O(height) removals, no hashing.
    pub fn invalidate_spine(&mut self, p: PartitionId, mut pos: Position, height: u8, fanout: u64) {
        while pos.height < height {
            let parent = pos.parent(fanout);
            if self.memo.remove(&(p, parent)).is_some() {
                self.invalidations += 1;
            }
            pos = parent;
        }
    }

    /// Drops every memo entry of `p` (growth, dealloc, copy targets).
    pub fn invalidate_partition(&mut self, p: PartitionId) {
        let before = self.memo.len();
        self.memo.retain(|(q, _), _| *q != p);
        self.invalidations += (before - self.memo.len()) as u64;
    }

    /// Drops everything (rollback to a savepoint, or a test forgetting the
    /// memo to get the eager recompute).
    pub fn clear(&mut self) {
        self.invalidations += self.memo.len() as u64;
        self.memo.clear();
    }

    /// Entries currently memoized (tests and stats).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.memo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u32) -> PartitionId {
        PartitionId(n)
    }

    fn h(b: u8) -> HashValue {
        HashValue::new(&[b; 20])
    }

    #[test]
    fn spine_invalidation_is_exact() {
        let mut acc = DirtyTreeAccumulator::default();
        // Memoize a 3-level tree: root (3,0), two level-2 chunks, and a
        // level-1 chunk under each.
        for (height, rank) in [(3, 0), (2, 0), (2, 1), (1, 0), (1, 4)] {
            acc.put(p(1), Position::map(height, rank), h(height));
        }
        assert_eq!(acc.len(), 5);
        // A descriptor write at data rank 0 invalidates (1,0), (2,0), (3,0)
        // — its parent chain under fanout 4 — and nothing else.
        acc.invalidate_spine(p(1), Position::data(0), 3, 4);
        assert_eq!(acc.get(p(1), Position::map(1, 0)), None);
        assert_eq!(acc.get(p(1), Position::map(2, 0)), None);
        assert_eq!(acc.get(p(1), Position::map(3, 0)), None);
        assert!(acc.get(p(1), Position::map(2, 1)).is_some());
        assert!(acc.get(p(1), Position::map(1, 4)).is_some());
        assert_eq!(acc.invalidations, 3);
    }

    #[test]
    fn partition_invalidation_spares_others() {
        let mut acc = DirtyTreeAccumulator::default();
        acc.put(p(1), Position::map(1, 0), h(1));
        acc.put(p(2), Position::map(1, 0), h(2));
        acc.invalidate_partition(p(1));
        assert_eq!(acc.get(p(1), Position::map(1, 0)), None);
        assert!(acc.get(p(2), Position::map(1, 0)).is_some());
        acc.clear();
        assert_eq!(acc.len(), 0);
    }
}
