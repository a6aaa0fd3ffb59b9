//! The chunk-map cache (§4.5, §4.6).
//!
//! "For better performance, the chunk map keeps a cache of descriptors
//! indexed by chunk ids … The cached data is decrypted, validated, and
//! unpickled." We cache whole decoded map chunks; the descriptor of chunk
//! *c* is a slot of *c*'s parent. Updating a descriptor dirties the cached
//! parent instead of rewriting the map chunk to the log — the deferral that
//! checkpointing later consolidates (§4.7).
//!
//! Invariant: a dirty map chunk is pinned (never evicted) until a
//! checkpoint writes it out; a map chunk with no persistent version *must*
//! therefore be in the cache.
//!
//! Rollback: between [`MapCache::savepoint`] and [`MapCache::end_scope`]
//! every entry that is changed, replaced, cleaned, evicted or purged first
//! leaves its pre-image in an undo journal ([`crate::undo`]), and
//! [`MapCache::rollback_to`] puts the pre-images back — so an entry that
//! was dirty at the savepoint is dirty again after rollback, even if a
//! checkpoint inside the scope cleaned it and memory pressure then evicted
//! it. LRU positions are not journaled; recency is a hint, not state.
//!
//! Slot trees (§4.3, format v3): an entry keeps the slot tree
//! ([`crate::slot_tree`]) of its chunk's *effective* body — what a
//! checkpoint would write now, with each slot that heads a dirty map
//! subtree carrying that subtree's effective digest — so a root, a proof
//! or a checkpoint hashes only the leaves that changed. A load installs
//! the tree that validated the body ([`MapCache::insert_loaded`]); a
//! root query builds one for a chunk that has none. Invariant: a tree's
//! leaves that are not marked stale equal the effective body's, with
//! every inner node current over them. So a slot write marks its own leaf
//! ([`MapCache::set_slot`]) and the leaf above it in each cached ancestor
//! ([`MapCache::mark_spine`]). A tree dies with its entry — eviction,
//! purge and replacement drop it — undo pre-images carry none, and a
//! rollback drops every tree, since a refresh inside the scope may have
//! hashed slots the rollback takes back. Marking a chunk clean keeps its
//! tree: the body written out is the body the tree covers.

use std::collections::{BTreeSet, HashMap};

use tdb_crypto::{HashKind, HashValue};

use crate::descriptor::{Descriptor, MapChunk};
use crate::ids::{PartitionId, Position};
use crate::slot_tree::{SlotTree, LEAF_SLOTS};
use crate::undo::{Journal, UndoCounters};

type Key = (PartitionId, Position);

/// One cached, decoded map chunk.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Decoded slots.
    pub chunk: MapChunk,
    /// True when the cached content is newer than any persistent version.
    pub dirty: bool,
    /// The slot tree over the chunk's effective body, once a load or a
    /// root query has built it.
    tree: Option<SlotTree>,
    /// LRU timestamp.
    last_used: u64,
    /// The `last_used` this entry is filed under in the clean-LRU index
    /// (reads refresh `last_used` only; eviction re-files stale entries).
    filed: u64,
    /// Journal generation that last recorded this entry's pre-image.
    stamp: u64,
}

impl CacheEntry {
    fn bytes(&self) -> usize {
        std::mem::size_of::<CacheEntry>()
            + self.chunk.slots.len() * std::mem::size_of::<Descriptor>()
    }

    /// The entry as an undo pre-image: everything but the tree.
    fn pre_image(&self) -> CacheEntry {
        CacheEntry {
            chunk: self.chunk.clone(),
            tree: None,
            ..*self
        }
    }
}

/// What the cached slot trees saved and cost (the store's `lazy_*`
/// stats).
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeCounters {
    /// Root queries answered by a current tree, with no hashing.
    pub hits: u64,
    /// Trees built, installed by a load, or refreshed over stale leaves.
    pub recomputes: u64,
    /// Leaves marked stale and trees dropped.
    pub invalidations: u64,
}

/// The map-chunk cache.
#[derive(Debug, Clone)]
pub struct MapCache {
    entries: HashMap<Key, CacheEntry>,
    /// Index of dirty entries, ordered (partition, height, rank) — the
    /// bottom-up checkpoint order. Kept in lockstep with the `dirty` flags
    /// in `entries` so checkpoint triggering and level iteration are O(1)
    /// / O(dirty) instead of full-cache scans.
    dirty: BTreeSet<Key>,
    /// Index of clean entries ordered by recency: the eviction order, so a
    /// map-chunk miss on a full cache costs O(log capacity), not a scan of
    /// every entry. A read does not touch it: an entry stays filed under
    /// the `last_used` it had when it was filed, and eviction moves a
    /// stale front entry to its true position before choosing a victim.
    clean_lru: BTreeSet<(u64, Key)>,
    /// Soft capacity in entries; only clean entries are evictable.
    capacity: usize,
    tick: u64,
    /// Pre-images of entries changed inside the open mutation scope.
    undo: Journal<(Key, Option<CacheEntry>)>,
    /// What the slot trees have counted so far.
    pub trees: TreeCounters,
}

impl MapCache {
    /// Creates a cache bounded to roughly `capacity` map chunks.
    pub fn new(capacity: usize) -> MapCache {
        MapCache {
            entries: HashMap::new(),
            dirty: BTreeSet::new(),
            clean_lru: BTreeSet::new(),
            capacity: capacity.max(8),
            tick: 0,
            undo: Journal::new(),
            trees: TreeCounters::default(),
        }
    }

    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn index(&mut self, key: Key, entry: &mut CacheEntry) {
        if entry.dirty {
            self.dirty.insert(key);
        } else {
            entry.filed = entry.last_used;
            self.clean_lru.insert((entry.filed, key));
        }
    }

    fn unindex(&mut self, key: Key, entry: &CacheEntry) {
        if entry.dirty {
            self.dirty.remove(&key);
        } else {
            self.clean_lru.remove(&(entry.filed, key));
        }
    }

    /// Sets (or, with `None`, removes) the entry under `key`, keeping both
    /// indexes in step, and returns what was there, without its tree.
    fn put(&mut self, key: Key, new: Option<CacheEntry>) -> Option<CacheEntry> {
        let mut old = self.entries.remove(&key);
        if let Some(old) = &mut old {
            self.unindex(key, old);
            self.trees.invalidations += u64::from(old.tree.take().is_some());
        }
        if let Some(mut entry) = new {
            self.index(key, &mut entry);
            self.entries.insert(key, entry);
        }
        old
    }

    /// [`MapCache::put`] for a change to undo on rollback: the displaced
    /// entry (or its absence) goes to the journal unless a pre-image from
    /// this generation already covers the key.
    fn put_logged(&mut self, key: Key, new: Option<CacheEntry>) {
        let old = self.put(key, new);
        match old {
            Some(old) if self.undo.wants(old.stamp) => {
                let bytes = old.bytes();
                self.undo.push((key, Some(old)), bytes);
            }
            Some(_) => {}
            None => self.undo.push((key, None), 0),
        }
    }

    /// Records the pre-image of an entry about to change in place.
    fn log_in_place(
        undo: &mut Journal<(Key, Option<CacheEntry>)>,
        key: Key,
        entry: &mut CacheEntry,
    ) {
        if undo.wants(entry.stamp) {
            undo.push((key, Some(entry.pre_image())), entry.bytes());
            entry.stamp = undo.stamp();
        }
    }

    /// Looks up a cached map chunk, refreshing its LRU position.
    pub fn get(&mut self, partition: PartitionId, pos: Position) -> Option<&MapChunk> {
        let tick = self.bump();
        let key = (partition, pos);
        let entry = self.entries.get_mut(&key)?;
        entry.last_used = tick;
        Some(&entry.chunk)
    }

    /// True when the map chunk is cached (no LRU refresh).
    pub fn contains(&self, partition: PartitionId, pos: Position) -> bool {
        self.entries.contains_key(&(partition, pos))
    }

    /// True when the map chunk is cached *and* dirty.
    pub fn is_dirty(&self, partition: PartitionId, pos: Position) -> bool {
        self.entries.get(&(partition, pos)).is_some_and(|e| e.dirty)
    }

    /// Writes slot `slot` of a cached map chunk, marking the chunk dirty
    /// and its tree's leaf over the slot stale. False when the chunk is
    /// not cached.
    pub fn set_slot(
        &mut self,
        partition: PartitionId,
        pos: Position,
        slot: usize,
        desc: Descriptor,
    ) -> bool {
        let tick = self.bump();
        let key = (partition, pos);
        let Some(entry) = self.entries.get_mut(&key) else {
            return false;
        };
        Self::log_in_place(&mut self.undo, key, entry);
        if !entry.dirty {
            self.clean_lru.remove(&(entry.filed, key));
            self.dirty.insert(key);
            entry.dirty = true;
        }
        entry.last_used = tick;
        entry.chunk.slots[slot] = desc;
        self.mark(key, slot / LEAF_SLOTS);
        true
    }

    /// Marks leaf `leaf` of the tree of a cached chunk stale, if it has a
    /// tree.
    fn mark(&mut self, key: Key, leaf: usize) {
        if let Some(tree) = self.entries.get_mut(&key).and_then(|e| e.tree.as_mut()) {
            self.trees.invalidations += u64::from(tree.mark_stale(leaf));
        }
    }

    /// After a slot write at `pos`, marks stale, in every cached map
    /// ancestor strictly above `pos` up to the tree root at `height`, the
    /// leaf on the path down to `pos`: each ancestor's effective body
    /// changed with it. O(height) marks, no hashing.
    pub fn mark_spine(
        &mut self,
        partition: PartitionId,
        mut pos: Position,
        height: u8,
        fanout: u64,
    ) {
        while pos.height < height {
            let parent = pos.parent(fanout);
            self.mark((partition, parent), pos.slot(fanout) / LEAF_SLOTS);
            pos = parent;
        }
    }

    /// Inserts a map chunk (replacing any previous entry), then evicts clean
    /// entries if over capacity.
    pub fn insert(&mut self, partition: PartitionId, pos: Position, chunk: MapChunk, dirty: bool) {
        let entry = CacheEntry {
            chunk,
            dirty,
            tree: None,
            last_used: self.bump(),
            filed: 0,
            stamp: self.undo.stamp(),
        };
        self.put_logged((partition, pos), Some(entry));
        self.evict_if_needed((partition, pos));
    }

    /// Inserts a clean map chunk just loaded and validated, with `tree`,
    /// the slot tree that validated it. The caller has marked stale the
    /// leaves of slots whose effective digest differs from the stored one.
    pub fn insert_loaded(
        &mut self,
        partition: PartitionId,
        pos: Position,
        chunk: MapChunk,
        tree: SlotTree,
    ) {
        self.insert(partition, pos, chunk, false);
        self.trees.recomputes += 1;
        let entry = self.entries.get_mut(&(partition, pos));
        entry.expect("eviction keeps the new entry").tree = Some(tree);
    }

    /// The root of a cached chunk's slot tree, if the chunk has a tree
    /// and no leaf of it is stale.
    pub fn current_root(&mut self, partition: PartitionId, pos: Position) -> Option<HashValue> {
        let tree = self.entries.get(&(partition, pos))?.tree.as_ref()?;
        let root = tree.is_current().then(|| tree.root())?;
        self.trees.hits += 1;
        Some(root)
    }

    /// The root of a cached chunk's slot tree brought current over `body`,
    /// its effective body: only the stale leaves are hashed, and a chunk
    /// with no tree gets one built over `body`.
    ///
    /// # Panics
    ///
    /// When the chunk is not cached.
    pub fn root_over(
        &mut self,
        partition: PartitionId,
        pos: Position,
        kind: HashKind,
        body: &[u8],
    ) -> HashValue {
        if let Some(root) = self.current_root(partition, pos) {
            return root;
        }
        self.trees.recomputes += 1;
        let entry = self.entries.get_mut(&(partition, pos));
        let tree = &mut entry.expect("the chunk is cached").tree;
        let tree = tree.get_or_insert_with(|| SlotTree::over_body(kind, body));
        tree.refresh(kind, body);
        tree.root()
    }

    /// The sibling digests of leaf `leaf` of a cached chunk's slot tree,
    /// if the tree is current.
    pub fn path(
        &self,
        partition: PartitionId,
        pos: Position,
        leaf: usize,
    ) -> Option<Vec<HashValue>> {
        let tree = self.entries.get(&(partition, pos))?.tree.as_ref()?;
        tree.is_current().then(|| tree.path(leaf))
    }

    /// Drops every slot tree, so the next root query rebuilds the trees it
    /// needs from the effective bodies.
    pub fn drop_trees(&mut self) {
        for entry in self.entries.values_mut() {
            self.trees.invalidations += u64::from(entry.tree.take().is_some());
        }
    }

    /// Marks an entry clean (after a checkpoint wrote it out).
    pub fn mark_clean(&mut self, partition: PartitionId, pos: Position) {
        let key = (partition, pos);
        if let Some(e) = self.entries.get_mut(&key) {
            if e.dirty {
                Self::log_in_place(&mut self.undo, key, e);
                e.dirty = false;
                self.dirty.remove(&key);
                e.filed = e.last_used;
                self.clean_lru.insert((e.filed, key));
            }
        }
    }

    /// Removes every entry belonging to `partition` (partition deallocated).
    pub fn purge_partition(&mut self, partition: PartitionId) {
        let doomed: Vec<Key> = self
            .entries
            .keys()
            .filter(|(p, _)| *p == partition)
            .copied()
            .collect();
        for key in doomed {
            self.put_logged(key, None);
        }
    }

    /// Clones all *dirty* map chunks of `src` under `dst`'s key space — the
    /// cache half of a partition copy (§5.3). Persistent map chunks are
    /// shared through the copied root descriptor; only the buffered
    /// (post-checkpoint) overrides need duplicating.
    pub fn clone_dirty(&mut self, src: PartitionId, dst: PartitionId) {
        let lo = (src, Position::data(0));
        let cloned: Vec<(Position, MapChunk)> = self
            .dirty
            .range(lo..)
            .take_while(|(p, _)| *p == src)
            .map(|key| (key.1, self.entries[key].chunk.clone()))
            .collect();
        for (pos, chunk) in cloned {
            self.insert(dst, pos, chunk, true);
        }
    }

    /// True when any dirty entry of `partition` lies inside the subtree
    /// rooted at `pos` (including `pos` itself).
    ///
    /// Dirty positions at height `h ≤ pos.height` fall under `pos` exactly
    /// when their rank is in `[pos.rank·F^(pos.height−h),
    /// (pos.rank+1)·F^(pos.height−h))`, and the index orders entries by
    /// (partition, height, rank) — so each level is one O(log n) range
    /// probe instead of a scan of every dirty key.
    pub fn subtree_dirty(&self, partition: PartitionId, pos: Position, fanout: u64) -> bool {
        for height in 1..=pos.height {
            let span = fanout.saturating_pow(u32::from(pos.height - height));
            let lo = pos.rank.saturating_mul(span);
            let hi = lo.saturating_add(span - 1);
            let start = (partition, Position::map(height, lo));
            let end = (partition, Position::map(height, hi));
            if self.dirty.range(start..=end).next().is_some() {
                return true;
            }
        }
        false
    }

    /// Number of dirty entries (drives checkpoint triggering, §4.7: "when
    /// the cache becomes too large because of dirty descriptors"). O(1)
    /// via the dirty index.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// All dirty entries' keys, sorted by (partition, height, rank) so a
    /// checkpoint can write bottom-up deterministically. Served from the
    /// dirty index without scanning the cache.
    pub fn dirty_keys(&self) -> Vec<(PartitionId, Position)> {
        self.dirty.iter().copied().collect()
    }

    /// The lowest height among dirty map chunks with `is_system()` matching
    /// `system`, with the keys at that height in (partition, rank) order —
    /// one incremental-checkpoint level. `None` when no such chunk is dirty.
    pub fn min_dirty_level(&self, system: bool) -> Option<(u8, Vec<(PartitionId, Position)>)> {
        let mut level: Option<u8> = None;
        let mut keys: Vec<(PartitionId, Position)> = Vec::new();
        for &(p, pos) in self.dirty.iter().filter(|(p, _)| p.is_system() == system) {
            match level {
                None => {
                    level = Some(pos.height);
                    keys.push((p, pos));
                }
                Some(h) if pos.height < h => {
                    level = Some(pos.height);
                    keys.clear();
                    keys.push((p, pos));
                }
                Some(h) if pos.height == h => keys.push((p, pos)),
                Some(_) => {}
            }
        }
        level.map(|h| (h, keys))
    }

    /// Distinct (partition kind, height) levels present in the cache and
    /// the subset of those with at least one dirty chunk — the denominator
    /// and numerator of the incremental checkpoint's skipped-levels stat.
    pub fn level_counts(&self) -> (usize, usize) {
        let mut present: BTreeSet<(bool, u8)> = BTreeSet::new();
        for (p, pos) in self.entries.keys() {
            present.insert((p.is_system(), pos.height));
        }
        let mut dirty: BTreeSet<(bool, u8)> = BTreeSet::new();
        for (p, pos) in &self.dirty {
            dirty.insert((p.is_system(), pos.height));
        }
        (present.len(), dirty.len())
    }

    /// Total entries cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn evict_if_needed(&mut self, keep: Key) {
        while self.entries.len() > self.capacity {
            // The front of the clean index, never the entry the caller just
            // inserted (it is about to be used).
            let front = self.clean_lru.iter().find(|(_, key)| *key != keep);
            let Some(&(filed, key)) = front else {
                // Everything is dirty: allow the cache to exceed capacity;
                // the caller will checkpoint soon.
                break;
            };
            let entry = self.entries.get_mut(&key).expect("indexed entries exist");
            if entry.last_used == filed {
                // Least recently used of all clean entries: every other one
                // is filed no later than it was last used.
                self.put_logged(key, None);
            } else {
                // Read since it was filed: move it to where it belongs.
                entry.filed = entry.last_used;
                self.clean_lru.remove(&(filed, key));
                self.clean_lru.insert((entry.filed, key));
            }
        }
    }

    // -- Rollback -------------------------------------------------------------

    /// Opens a mutation scope (if none is open) and returns a savepoint
    /// for [`MapCache::rollback_to`]. Savepoints nest.
    pub fn savepoint(&mut self) -> usize {
        self.undo.mark()
    }

    /// Puts back every entry changed since `savepoint`, newest change
    /// first, and drops every slot tree. The scope stays open.
    pub fn rollback_to(&mut self, savepoint: usize) {
        for (key, pre) in self.undo.unwind(savepoint) {
            self.put(key, pre);
        }
        self.drop_trees();
    }

    /// Ends the mutation scope: every savepoint becomes invalid and changes
    /// are no longer journaled.
    pub fn end_scope(&mut self) {
        self.undo.close();
    }

    /// What the journal has captured so far.
    pub(crate) fn undo_counters(&self) -> UndoCounters {
        self.undo.counters()
    }

    /// Test-only: every entry as `(key, dirty, chunk)` in key order, after
    /// checking that both indexes agree with the entries.
    #[doc(hidden)]
    pub fn debug_entries(&self) -> Vec<(Key, bool, MapChunk)> {
        let mut out: Vec<(Key, bool, MapChunk)> = Vec::with_capacity(self.entries.len());
        for (key, e) in &self.entries {
            assert_eq!(self.dirty.contains(key), e.dirty, "dirty index at {key:?}");
            assert_eq!(
                self.clean_lru.contains(&(e.filed, *key)),
                !e.dirty,
                "clean LRU index at {key:?}"
            );
            out.push((*key, e.dirty, e.chunk.clone()));
        }
        assert_eq!(self.dirty.len() + self.clean_lru.len(), self.entries.len());
        out.sort_by_key(|(key, _, _)| *key);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::Descriptor;
    use tdb_crypto::HashValue;

    fn p(n: u32) -> PartitionId {
        PartitionId(n)
    }

    fn mc(fanout: usize, marker: u8) -> MapChunk {
        let mut c = MapChunk::empty(fanout);
        c.slots[0] = Descriptor::written(u64::from(marker), 1, 1, HashValue::new(&[marker; 20]));
        c
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut cache = MapCache::new(16);
        cache.insert(p(1), Position::map(1, 0), mc(4, 7), false);
        assert!(cache.contains(p(1), Position::map(1, 0)));
        let got = cache.get(p(1), Position::map(1, 0)).unwrap();
        assert_eq!(got.slots[0].location, 7);
        assert!(cache.get(p(2), Position::map(1, 0)).is_none());
    }

    #[test]
    fn dirty_entries_survive_eviction_pressure() {
        let mut cache = MapCache::new(8);
        for i in 0..8 {
            cache.insert(p(1), Position::map(1, i), mc(4, i as u8), true);
        }
        for i in 8..40 {
            cache.insert(p(1), Position::map(1, i), mc(4, i as u8), false);
        }
        // All dirty entries still present.
        for i in 0..8 {
            assert!(
                cache.contains(p(1), Position::map(1, i)),
                "dirty {i} evicted"
            );
        }
        // Cache respects capacity modulo the dirty overflow.
        assert!(cache.len() <= 9, "len {}", cache.len());
    }

    #[test]
    fn lru_evicts_least_recent_clean() {
        let mut cache = MapCache::new(8);
        for i in 0..8 {
            cache.insert(p(1), Position::map(1, i), mc(4, i as u8), false);
        }
        // Touch 0 so it is most recent.
        let _ = cache.get(p(1), Position::map(1, 0));
        cache.insert(p(1), Position::map(1, 100), mc(4, 0), false);
        assert!(cache.contains(p(1), Position::map(1, 0)));
        // Entry 1 was the least recently used.
        assert!(!cache.contains(p(1), Position::map(1, 1)));
    }

    #[test]
    fn set_slot_marks_and_counts() {
        let mut cache = MapCache::new(8);
        cache.insert(p(1), Position::map(1, 0), mc(4, 1), false);
        assert_eq!(cache.dirty_count(), 0);
        assert!(cache.set_slot(p(1), Position::map(1, 0), 1, Descriptor::unwritten()));
        assert!(!cache.set_slot(p(1), Position::map(1, 1), 1, Descriptor::unwritten()));
        assert_eq!(cache.dirty_count(), 1);
        cache.mark_clean(p(1), Position::map(1, 0));
        assert_eq!(cache.dirty_count(), 0);
    }

    #[test]
    fn clone_dirty_copies_only_dirty() {
        let mut cache = MapCache::new(32);
        cache.insert(p(1), Position::map(1, 0), mc(4, 1), true);
        cache.insert(p(1), Position::map(1, 1), mc(4, 2), false);
        cache.insert(p(1), Position::map(2, 0), mc(4, 3), true);
        cache.clone_dirty(p(1), p(2));
        assert!(cache.contains(p(2), Position::map(1, 0)));
        assert!(!cache.contains(p(2), Position::map(1, 1)));
        assert!(cache.contains(p(2), Position::map(2, 0)));
        // Clones are dirty and independent.
        assert_eq!(cache.dirty_count(), 4);
        assert!(cache.set_slot(p(2), Position::map(1, 0), 0, Descriptor::unallocated()));
        assert!(cache.get(p(1), Position::map(1, 0)).unwrap().slots[0].is_written());
    }

    #[test]
    fn purge_partition_removes_all() {
        let mut cache = MapCache::new(32);
        cache.insert(p(1), Position::map(1, 0), mc(4, 1), true);
        cache.insert(p(2), Position::map(1, 0), mc(4, 2), true);
        cache.purge_partition(p(1));
        assert!(!cache.contains(p(1), Position::map(1, 0)));
        assert!(cache.contains(p(2), Position::map(1, 0)));
    }

    fn tree() -> SlotTree {
        SlotTree::over_body(HashKind::Sha1, &[0; 4 * 37])
    }

    fn is_current(cache: &mut MapCache, part: u32, height: u8, rank: u64) -> bool {
        cache
            .current_root(p(part), Position::map(height, rank))
            .is_some()
    }

    #[test]
    fn spine_marks_are_exact() {
        let mut cache = MapCache::new(64);
        // A 3-level tree with slot trees: root (3,0), two level-2 chunks,
        // and a level-1 chunk under each.
        for (height, rank) in [(3, 0), (2, 0), (2, 1), (1, 0), (1, 4)] {
            cache.insert_loaded(p(1), Position::map(height, rank), mc(4, 1), tree());
        }
        // A descriptor write at data rank 2 marks the leaf of slot 2 of
        // (1,0), then of slot 0 of (2,0) and of (3,0) — its parent chain
        // under fanout 4 — and nothing else.
        assert!(cache.set_slot(p(1), Position::map(1, 0), 2, Descriptor::unwritten()));
        cache.mark_spine(p(1), Position::map(1, 0), 3, 4);
        assert!(!is_current(&mut cache, 1, 1, 0));
        assert!(!is_current(&mut cache, 1, 2, 0));
        assert!(!is_current(&mut cache, 1, 3, 0));
        assert!(is_current(&mut cache, 1, 2, 1));
        assert!(is_current(&mut cache, 1, 1, 4));
        assert_eq!(cache.trees.invalidations, 3);
        // A second write under the same leaves marks nothing new.
        assert!(cache.set_slot(p(1), Position::map(1, 0), 3, Descriptor::unwritten()));
        cache.mark_spine(p(1), Position::map(1, 0), 3, 4);
        assert_eq!(cache.trees.invalidations, 3);
        // A refresh over the effective body brings a tree current again.
        let root = cache.root_over(p(1), Position::map(2, 0), HashKind::Sha1, &[1; 4 * 37]);
        assert_eq!(
            root,
            SlotTree::over_body(HashKind::Sha1, &[1; 4 * 37]).root()
        );
        assert!(is_current(&mut cache, 1, 2, 0));
    }

    #[test]
    fn trees_die_with_their_entries() {
        let mut cache = MapCache::new(64);
        cache.insert_loaded(p(1), Position::map(1, 0), mc(4, 1), tree());
        cache.insert_loaded(p(2), Position::map(1, 0), mc(4, 2), tree());
        cache.insert_loaded(p(2), Position::map(1, 1), mc(4, 3), tree());
        cache.purge_partition(p(1));
        assert!(!is_current(&mut cache, 1, 1, 0));
        assert!(is_current(&mut cache, 2, 1, 0));
        // Replacement drops the tree.
        cache.insert(p(2), Position::map(1, 0), mc(4, 2), true);
        assert!(!is_current(&mut cache, 2, 1, 0));
        // A checkpoint's clean mark keeps a current tree.
        cache.root_over(p(2), Position::map(1, 0), HashKind::Sha1, &[0; 4 * 37]);
        cache.mark_clean(p(2), Position::map(1, 0));
        assert!(is_current(&mut cache, 2, 1, 0));
        assert_eq!(cache.trees.invalidations, 2);
        // A rollback drops every tree, even those its scope never touched.
        let sp = cache.savepoint();
        cache.insert(p(3), Position::map(1, 0), mc(4, 4), true);
        cache.rollback_to(sp);
        cache.end_scope();
        assert!(!is_current(&mut cache, 2, 1, 0));
        assert!(!is_current(&mut cache, 2, 1, 1));
        assert_eq!(cache.trees.invalidations, 4);
    }

    #[test]
    fn dirty_index_tracks_levels() {
        let mut cache = MapCache::new(32);
        cache.insert(p(1), Position::map(2, 0), mc(4, 1), true);
        cache.insert(p(2), Position::map(1, 3), mc(4, 2), true);
        cache.insert(p(1), Position::map(1, 1), mc(4, 3), true);
        cache.insert(p(3), Position::map(3, 0), mc(4, 4), false);
        assert_eq!(cache.dirty_count(), 3);
        let (height, keys) = cache.min_dirty_level(false).unwrap();
        assert_eq!(height, 1);
        assert_eq!(
            keys,
            vec![(p(1), Position::map(1, 1)), (p(2), Position::map(1, 3))]
        );
        assert!(cache.min_dirty_level(true).is_none());
        let (present, dirty) = cache.level_counts();
        assert_eq!((present, dirty), (3, 2));
        cache.mark_clean(p(1), Position::map(1, 1));
        cache.mark_clean(p(2), Position::map(1, 3));
        let (height, keys) = cache.min_dirty_level(false).unwrap();
        assert_eq!(height, 2);
        assert_eq!(keys, vec![(p(1), Position::map(2, 0))]);
        cache.mark_clean(p(1), Position::map(2, 0));
        assert_eq!(cache.dirty_count(), 0);
        assert!(cache.min_dirty_level(false).is_none());
        // The dirty index survives purge and clear.
        cache.insert(p(2), Position::map(1, 0), mc(4, 5), true);
        cache.purge_partition(p(2));
        assert_eq!(cache.dirty_count(), 0);
    }

    #[test]
    fn subtree_dirty_matches_linear_scan() {
        let fanout = 4u64;
        let mut cache = MapCache::new(256);
        // A mix of dirty and clean chunks across partitions and levels.
        for (part, height, rank, dirty) in [
            (1u32, 1u8, 0u64, true),
            (1, 1, 5, true),
            (1, 2, 1, false),
            (1, 3, 0, true),
            (2, 1, 3, true),
            (2, 2, 0, false),
            (3, 1, 15, true),
        ] {
            cache.insert(
                p(part),
                Position::map(height, rank),
                mc(4, rank as u8),
                dirty,
            );
        }
        // The reference semantics: climb each dirty key to pos.height by
        // rank division (what the old O(dirty) scan computed).
        let reference = |part: PartitionId, pos: Position| {
            cache.dirty_keys().into_iter().any(|(q, dp)| {
                q == part && dp.height <= pos.height && {
                    let levels = u32::from(pos.height - dp.height);
                    dp.rank / fanout.saturating_pow(levels) == pos.rank
                }
            })
        };
        for part in [1u32, 2, 3, 4] {
            for height in 1u8..=4 {
                for rank in 0u64..20 {
                    let pos = Position::map(height, rank);
                    assert_eq!(
                        cache.subtree_dirty(p(part), pos, fanout),
                        reference(p(part), pos),
                        "partition {part} pos ({height},{rank})"
                    );
                }
            }
        }
    }

    #[test]
    fn dirty_keys_sorted_bottom_up() {
        let mut cache = MapCache::new(32);
        cache.insert(p(2), Position::map(2, 0), mc(4, 1), true);
        cache.insert(p(1), Position::map(1, 5), mc(4, 2), true);
        cache.insert(p(1), Position::map(1, 2), mc(4, 3), true);
        cache.insert(p(1), Position::map(2, 0), mc(4, 4), true);
        let keys = cache.dirty_keys();
        assert_eq!(
            keys,
            vec![
                (p(1), Position::map(1, 2)),
                (p(1), Position::map(1, 5)),
                (p(1), Position::map(2, 0)),
                (p(2), Position::map(2, 0)),
            ]
        );
    }
}
