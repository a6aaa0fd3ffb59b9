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
//! The accumulator memoizes each map chunk's slot tree
//! ([`crate::slot_tree`]) over its effective body. Commits mark stale only
//! the leaf on each level of the O(height) spine above a touched
//! descriptor; root/proof queries then rehash just the stale leaves and
//! their paths, so K batched commits pay roughly one spine of leaves
//! instead of K, and proof extraction copies a leaf and its siblings with
//! no hashing. A checkpoint takes each map chunk's root from the same
//! trees, and a map-chunk load installs the tree it built to validate the
//! body, so neither hashes a leaf that did not change.
//!
//! Invariant: `memo[(p, pos)]`, when present, holds a tree whose non-stale
//! leaves equal the leaves of the effective body of map chunk `(p, pos)` —
//! the bytes a checkpoint would persist right now — with every inner node
//! current over them. Every mutation that can change an effective body
//! must mark or drop the affected entries:
//!
//! - descriptor writes mark the spine's leaves stale
//!   ([`crate::store::Inner::set_descriptor`]);
//! - tree growth, partition dealloc/purge, and partition copies drop the
//!   whole partition (rare, conservative);
//! - a failed mutation rolling back to its savepoint clears everything.
//!
//! Marking a chunk clean (checkpoint) does *not* invalidate: the persisted
//! body is byte-identical to the effective body the memo hashed. Any entry
//! may be dropped at any time (the memo keeps about as many entries as the
//! map cache holds chunks). The paper's eager recompute is an empty memo:
//! tests reach it through `ChunkStore::debug_forget_integrity_memo` and
//! hold the memo to it.

use std::collections::HashMap;

use tdb_crypto::{HashKind, HashValue};

use crate::cache::MapCache;
use crate::ids::{PartitionId, Position};
use crate::slot_tree::{SlotTree, LEAF_SLOTS};

type Key = (PartitionId, Position);

/// One memoized slot tree and its leaves that no longer match the
/// effective body.
#[derive(Debug)]
struct Entry {
    tree: SlotTree,
    stale: Vec<usize>,
}

/// Memo of effective map-chunk slot trees, keyed by map position.
#[derive(Debug, Default)]
pub(crate) struct DirtyTreeAccumulator {
    memo: HashMap<Key, Entry>,
    /// Effective-hash lookups served from the memo.
    pub hits: u64,
    /// Effective-hash lookups that had to rehash leaves (and refreshed
    /// the memo).
    pub recomputes: u64,
    /// Leaves marked stale and memo entries dropped by spine/partition
    /// invalidation.
    pub invalidations: u64,
}

impl DirtyTreeAccumulator {
    /// Memoized effective root of map chunk `(p, pos)`, if its tree is
    /// current.
    pub fn get(&mut self, p: PartitionId, pos: Position) -> Option<HashValue> {
        let entry = self.memo.get(&(p, pos))?;
        if !entry.stale.is_empty() {
            return None;
        }
        self.hits += 1;
        Some(entry.tree.root())
    }

    /// The root of `(p, pos)`'s tree brought current over `body`, the
    /// chunk's effective body: in place, only the stale leaves are hashed
    /// out of `body`; with no tree memoized, one is built from `body`.
    pub fn root_over(
        &mut self,
        p: PartitionId,
        pos: Position,
        kind: HashKind,
        body: &[u8],
        cached: &MapCache,
    ) -> HashValue {
        let Some(entry) = self.memo.get_mut(&(p, pos)) else {
            let tree = SlotTree::over_body(kind, body);
            let root = tree.root();
            self.put(p, pos, tree, Vec::new(), cached);
            return root;
        };
        if entry.stale.is_empty() {
            self.hits += 1;
            return entry.tree.root();
        }
        self.recomputes += 1;
        let mut stale = std::mem::take(&mut entry.stale);
        stale.sort_unstable();
        entry.tree.rehash(kind, body, stale);
        entry.tree.root()
    }

    /// Records a tree current over the effective body except for the
    /// leaves in `stale`. Past about twice the map cache's entries, first
    /// drops the trees of chunks the cache no longer holds.
    pub fn put(
        &mut self,
        p: PartitionId,
        pos: Position,
        tree: SlotTree,
        stale: Vec<usize>,
        cached: &MapCache,
    ) {
        self.recomputes += 1;
        if self.memo.len() >= 2 * cached.len().max(32) {
            let before = self.memo.len();
            self.memo.retain(|(q, at), _| cached.contains(*q, *at));
            self.invalidations += (before - self.memo.len()) as u64;
        }
        self.memo.insert((p, pos), Entry { tree, stale });
    }

    /// The sibling digests of leaf `leaf` of `(p, pos)`'s tree, if the
    /// tree is current.
    pub fn path(&self, p: PartitionId, pos: Position, leaf: usize) -> Option<Vec<HashValue>> {
        let entry = self.memo.get(&(p, pos))?;
        entry.stale.is_empty().then(|| entry.tree.path(leaf))
    }

    /// Invalidates the spine above a descriptor write at `pos`: on every
    /// map ancestor strictly above `pos` up to the tree root at `height`,
    /// the leaf holding the path's slot has a changed effective body.
    /// O(height) marks, no hashing.
    pub fn invalidate_spine(&mut self, p: PartitionId, mut pos: Position, height: u8, fanout: u64) {
        while pos.height < height {
            let parent = pos.parent(fanout);
            if let Some(entry) = self.memo.get_mut(&(p, parent)) {
                let leaf = pos.slot(fanout) / LEAF_SLOTS;
                if !entry.stale.contains(&leaf) {
                    entry.stale.push(leaf);
                    self.invalidations += 1;
                }
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

    fn tree() -> SlotTree {
        SlotTree::over_body(HashKind::Sha1, &[0; 4 * 37])
    }

    #[test]
    fn spine_invalidation_is_exact() {
        let cache = MapCache::new(64);
        let mut acc = DirtyTreeAccumulator::default();
        // Memoize a 3-level tree: root (3,0), two level-2 chunks, and a
        // level-1 chunk under each.
        for (height, rank) in [(3, 0), (2, 0), (2, 1), (1, 0), (1, 4)] {
            acc.put(
                p(1),
                Position::map(height, rank),
                tree(),
                Vec::new(),
                &cache,
            );
        }
        assert_eq!(acc.len(), 5);
        // A descriptor write at data rank 2 marks the leaf of slot 2 of
        // (1,0) and of slot 0 of (2,0) and of (3,0) — its parent chain
        // under fanout 4 — and nothing else.
        acc.invalidate_spine(p(1), Position::data(2), 3, 4);
        assert_eq!(acc.get(p(1), Position::map(1, 0)), None);
        assert_eq!(acc.get(p(1), Position::map(2, 0)), None);
        assert_eq!(acc.get(p(1), Position::map(3, 0)), None);
        assert!(acc.get(p(1), Position::map(2, 1)).is_some());
        assert!(acc.get(p(1), Position::map(1, 4)).is_some());
        assert_eq!(acc.invalidations, 3);
        // A second write under the same leaves marks nothing new.
        acc.invalidate_spine(p(1), Position::data(2), 3, 4);
        assert_eq!(acc.invalidations, 3);
        assert_eq!(
            acc.memo[&(p(1), Position::map(1, 0))].stale,
            [2 / LEAF_SLOTS]
        );
        assert_eq!(acc.memo[&(p(1), Position::map(3, 0))].stale, [0]);
    }

    #[test]
    fn partition_invalidation_spares_others() {
        let cache = MapCache::new(64);
        let mut acc = DirtyTreeAccumulator::default();
        acc.put(p(1), Position::map(1, 0), tree(), Vec::new(), &cache);
        acc.put(p(2), Position::map(1, 0), tree(), Vec::new(), &cache);
        acc.invalidate_partition(p(1));
        assert_eq!(acc.get(p(1), Position::map(1, 0)), None);
        assert!(acc.get(p(2), Position::map(1, 0)).is_some());
        acc.clear();
        assert_eq!(acc.len(), 0);
    }

    #[test]
    fn the_memo_keeps_about_what_the_map_cache_holds() {
        let cache = MapCache::new(8);
        let mut acc = DirtyTreeAccumulator::default();
        for rank in 0..200 {
            acc.put(p(1), Position::map(1, rank), tree(), Vec::new(), &cache);
            assert!(acc.len() <= 64, "{} entries", acc.len());
        }
        assert!(acc.get(p(1), Position::map(1, 199)).is_some());
    }
}
