//! Property tests for [`MapCache`] (ISSUE 2): eviction order, dirty-bit
//! preservation under `clone_dirty`/`purge_partition`, and capacity
//! invariants. The cache's contract (doc comment in `cache.rs`) is that a
//! dirty map chunk is pinned until checkpointed — a map chunk with no
//! persistent version *must* be in the cache — and that clean entries
//! evict in least-recently-used order.
//!
//! And (ISSUE 18) rollback equivalence: undoing the journal back to a
//! savepoint leaves the cache equal to a `Clone` taken at that savepoint.

use proptest::prelude::*;

use tdb_core::cache::MapCache;
use tdb_core::descriptor::{Descriptor, MapChunk};
use tdb_core::{PartitionId, Position};
use tdb_crypto::HashValue;

const FANOUT: usize = 4;

fn p(n: u32) -> PartitionId {
    PartitionId(n)
}

fn chunk(marker: u8) -> MapChunk {
    let mut c = MapChunk::empty(FANOUT);
    c.slots[0] = Descriptor::written(u64::from(marker), 1, 1, HashValue::new(&[marker; 20]));
    c
}

/// A key universe small enough to force collisions and evictions.
fn key_strategy() -> impl Strategy<Value = (PartitionId, Position)> {
    (1u32..4, 1u8..3, 0u64..12)
        .prop_map(|(part, height, rank)| (p(part), Position::map(height, rank)))
}

#[derive(Debug, Clone)]
enum CacheOp {
    Insert { dirty: bool, marker: u8 },
    Get,
    MutDirty,
    MarkClean,
}

fn op_strategy() -> impl Strategy<Value = ((PartitionId, Position), CacheOp)> {
    let op = prop_oneof![
        4 => (any::<bool>(), any::<u8>())
            .prop_map(|(dirty, marker)| CacheOp::Insert { dirty, marker }),
        3 => Just(CacheOp::Get),
        2 => Just(CacheOp::MutDirty),
        1 => Just(CacheOp::MarkClean),
    ];
    (key_strategy(), op)
}

/// Cache traffic interleaved with the rollback protocol.
#[derive(Debug, Clone)]
enum ScopedOp {
    Cache((PartitionId, Position), CacheOp),
    Purge(u32),
    CloneDirty(u32, u32),
    Savepoint,
    /// Roll back to the open savepoint `n % open` (older ones stay open).
    Rollback(usize),
    EndScope,
}

fn scoped_op_strategy() -> impl Strategy<Value = ScopedOp> {
    prop_oneof![
        24 => op_strategy().prop_map(|(key, op)| ScopedOp::Cache(key, op)),
        1 => (1u32..4).prop_map(ScopedOp::Purge),
        2 => (1u32..4, 1u32..4).prop_map(|(src, dst)| ScopedOp::CloneDirty(src, dst)),
        4 => Just(ScopedOp::Savepoint),
        3 => any::<usize>().prop_map(ScopedOp::Rollback),
        1 => Just(ScopedOp::EndScope),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// Capacity invariant: the cache only exceeds its capacity when the
    /// overflow is pinned dirty entries — whenever `len() > capacity`,
    /// every entry is dirty (the eviction loop ran out of clean victims;
    /// the just-inserted entry is protected only during its own insert).
    /// And dirty entries are never evicted: any key whose last operation
    /// left it dirty is still present.
    #[test]
    fn capacity_and_dirty_pinning(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let capacity = 8; // MapCache::new clamps lower values up to 8.
        let mut cache = MapCache::new(capacity);
        // The model only tracks what MUST be present: dirty keys.
        let mut dirty_model: std::collections::HashSet<(PartitionId, Position)> =
            std::collections::HashSet::new();
        for ((part, pos), op) in ops {
            let mut inserted = false;
            match op {
                CacheOp::Insert { dirty, marker } => {
                    cache.insert(part, pos, chunk(marker), dirty);
                    inserted = true;
                    if dirty {
                        dirty_model.insert((part, pos));
                    } else {
                        dirty_model.remove(&(part, pos));
                    }
                }
                CacheOp::Get => {
                    let _ = cache.get(part, pos);
                }
                CacheOp::MutDirty => {
                    if cache.set_slot(part, pos, 1, Descriptor::unwritten()) {
                        dirty_model.insert((part, pos));
                    }
                }
                CacheOp::MarkClean => {
                    cache.mark_clean(part, pos);
                    dirty_model.remove(&(part, pos));
                }
            }
            // Dirty entries are pinned.
            for (dp, dpos) in &dirty_model {
                prop_assert!(
                    cache.is_dirty(*dp, *dpos),
                    "dirty entry {dp:?}/{dpos:?} missing or clean"
                );
            }
            prop_assert_eq!(cache.dirty_count(), dirty_model.len());
            // Over capacity only under dirty pressure. Eviction runs on
            // insert, so the bound holds right after one (a later
            // mark_clean can legitimately unpin entries without shrinking
            // the cache until the next insert).
            if inserted && cache.len() > capacity {
                prop_assert!(
                    cache.dirty_count() >= cache.len() - 1,
                    "len {} > capacity {} with {} clean entries",
                    cache.len(),
                    capacity,
                    cache.len() - cache.dirty_count()
                );
            }
        }
    }

    /// Eviction order, at any capacity: seed the cache to capacity with
    /// clean entries plus a few pinned dirty ones, touch a random subset
    /// (defining a known LRU order), then overflow with fresh clean
    /// inserts. The evicted keys must be exactly the least recently used
    /// clean ones — the victim comes off the ordered clean index, so this
    /// must hold at 200 entries as it does at 8 — and neither a recently
    /// touched key nor a dirty one may go.
    #[test]
    fn clean_eviction_is_lru(
        capacity in 8usize..200,
        pinned in 0u64..4,
        touches in proptest::collection::vec(0u64..200, 0..48),
        overflow in 1u64..8,
    ) {
        let mut cache = MapCache::new(capacity);
        let clean = capacity as u64 - pinned;
        for rank in 0..clean {
            cache.insert(p(1), Position::map(1, rank), chunk(rank as u8), false);
        }
        for rank in 0..pinned {
            cache.insert(p(3), Position::map(1, rank), chunk(rank as u8), true);
        }
        // Recency order: insertion order, then each touch moves the key to
        // the back (most recent). Touching a dirty key orders nothing.
        let mut order: Vec<u64> = (0..clean).collect();
        for t in touches {
            let t = t % capacity as u64;
            if t < clean {
                assert!(cache.get(p(1), Position::map(1, t)).is_some());
                order.retain(|r| *r != t);
                order.push(t);
            } else {
                assert!(cache.get(p(3), Position::map(1, t - clean)).is_some());
            }
        }
        for i in 0..overflow {
            cache.insert(p(2), Position::map(1, i), chunk(i as u8), false);
        }
        prop_assert_eq!(cache.len(), capacity);
        // The `overflow` oldest clean keys are gone, the rest survive.
        let (evicted, kept) = order.split_at(overflow as usize);
        for r in evicted {
            prop_assert!(
                !cache.contains(p(1), Position::map(1, *r)),
                "LRU key rank {r} should have been evicted"
            );
        }
        for r in kept {
            prop_assert!(
                cache.contains(p(1), Position::map(1, *r)),
                "recent key rank {r} was wrongly evicted"
            );
        }
        for rank in 0..pinned {
            prop_assert!(cache.is_dirty(p(3), Position::map(1, rank)), "dirty key evicted");
        }
        cache.debug_entries(); // Index consistency.
    }

    /// `clone_dirty` copies exactly the dirty subset of `src` into `dst`,
    /// cloned entries are dirty and independent, and `src`'s dirty bits
    /// are untouched.
    #[test]
    fn clone_dirty_preserves_dirty_bits(
        entries in proptest::collection::vec(
            ((1u8..3, 0u64..8), any::<bool>(), any::<u8>()), 1..16),
    ) {
        let mut cache = MapCache::new(64);
        let mut expected_dirty: std::collections::HashMap<Position, u8> =
            std::collections::HashMap::new();
        let mut expected_clean: std::collections::HashSet<Position> =
            std::collections::HashSet::new();
        for ((height, rank), dirty, marker) in entries {
            let pos = Position::map(height, rank);
            cache.insert(p(1), pos, chunk(marker), dirty);
            if dirty {
                expected_dirty.insert(pos, marker);
                expected_clean.remove(&pos);
            } else {
                expected_dirty.remove(&pos);
                expected_clean.insert(pos);
            }
        }
        cache.clone_dirty(p(1), p(2));
        for (pos, marker) in &expected_dirty {
            prop_assert!(cache.is_dirty(p(2), *pos), "dirty {pos:?} not cloned dirty");
            prop_assert_eq!(
                cache.get(p(2), *pos).unwrap().slots[0].location,
                u64::from(*marker)
            );
            // Source keeps its dirty bit.
            prop_assert!(cache.is_dirty(p(1), *pos));
        }
        for pos in &expected_clean {
            prop_assert!(
                !cache.contains(p(2), *pos),
                "clean {pos:?} wrongly cloned"
            );
            prop_assert!(!cache.is_dirty(p(1), *pos), "clean source dirtied");
        }
        // Independence: mutating a clone never touches the source.
        if let Some((pos, marker)) = expected_dirty.iter().next() {
            prop_assert!(cache.set_slot(p(2), *pos, 0, Descriptor::unallocated()));
            prop_assert_eq!(
                cache.get(p(1), *pos).unwrap().slots[0].location,
                u64::from(*marker),
                "clone mutation leaked into source"
            );
        }
    }

    /// `purge_partition` removes exactly the purged partition's entries,
    /// dirty or not, and leaves other partitions' entries and dirty bits
    /// alone.
    #[test]
    fn purge_partition_is_exact(
        entries in proptest::collection::vec(
            ((1u32..4, 0u64..8), any::<bool>()), 1..24),
        victim in 1u32..4,
    ) {
        let mut cache = MapCache::new(64);
        let mut survivors: std::collections::HashMap<(PartitionId, Position), bool> =
            std::collections::HashMap::new();
        for ((part, rank), dirty) in entries {
            let pos = Position::map(1, rank);
            cache.insert(p(part), pos, chunk(rank as u8), dirty);
            if part == victim {
                survivors.remove(&(p(part), pos));
            } else {
                survivors.insert((p(part), pos), dirty);
            }
        }
        cache.purge_partition(p(victim));
        for rank in 0..8 {
            prop_assert!(!cache.contains(p(victim), Position::map(1, rank)));
        }
        for ((part, pos), dirty) in &survivors {
            prop_assert!(cache.contains(*part, *pos), "survivor {part:?}/{pos:?} purged");
            prop_assert_eq!(cache.is_dirty(*part, *pos), *dirty, "survivor dirty bit changed");
        }
        prop_assert_eq!(
            cache.dirty_count(),
            survivors.values().filter(|d| **d).count()
        );
    }

    /// Rollback equivalence: drive random cache traffic — inserts that
    /// evict, in-place changes, cleans, purges, partition copies — through
    /// nested savepoints, roll back to a random open savepoint now and
    /// then, and require the cache to equal the `Clone` taken when that
    /// savepoint was (LRU ticks excepted: recency is not journaled). A
    /// savepoint survives being rolled back to, so the same one is hit
    /// repeatedly with fresh changes in between; in particular an entry
    /// dirty at the savepoint, then cleaned and evicted, must come back
    /// dirty.
    #[test]
    fn rollback_matches_clone_oracle(
        ops in proptest::collection::vec(scoped_op_strategy(), 1..160),
    ) {
        let mut cache = MapCache::new(8);
        // Open savepoints, oldest first, each with its oracle.
        let mut open: Vec<(usize, MapCache)> = Vec::new();
        for op in ops {
            match op {
                ScopedOp::Cache((part, pos), op) => match op {
                    CacheOp::Insert { dirty, marker } => {
                        cache.insert(part, pos, chunk(marker), dirty);
                    }
                    CacheOp::Get => {
                        let _ = cache.get(part, pos);
                    }
                    CacheOp::MutDirty => {
                        cache.set_slot(part, pos, 1, Descriptor::unwritten());
                    }
                    CacheOp::MarkClean => cache.mark_clean(part, pos),
                },
                ScopedOp::Purge(part) => cache.purge_partition(p(part)),
                ScopedOp::CloneDirty(src, dst) => {
                    if src != dst {
                        cache.clone_dirty(p(src), p(dst));
                    }
                }
                ScopedOp::Savepoint => {
                    let oracle = cache.clone();
                    open.push((cache.savepoint(), oracle));
                }
                ScopedOp::Rollback(pick) => {
                    if open.is_empty() {
                        continue;
                    }
                    open.truncate(pick % open.len() + 1);
                    let (savepoint, oracle) = open.last().expect("non-empty");
                    cache.rollback_to(*savepoint);
                    prop_assert_eq!(cache.debug_entries(), oracle.debug_entries());
                    prop_assert_eq!(cache.dirty_keys(), oracle.dirty_keys());
                }
                ScopedOp::EndScope => {
                    cache.end_scope();
                    open.clear();
                }
            }
            cache.debug_entries(); // Index consistency after every step.
        }
    }
}
