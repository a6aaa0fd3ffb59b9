//! The object cache (§7).
//!
//! "The object store keeps a cache of frequently-used or dirty objects.
//! Caching data at this level is beneficial because the data is decrypted,
//! validated, and unpickled." Only committed objects live here; a
//! transaction's dirty objects are buffered in the transaction itself until
//! commit (the paper's no-steal policy, §2.2) and installed here on commit.
//!
//! Eviction is least-recently-used by bytes, and a victim costs O(log n):
//! every entry is filed in a recency index under the `last_used` it had
//! when it was filed. A hit only stamps `last_used`; eviction takes the
//! front of the index and either evicts it, if it was not read since it
//! was filed, or files it again under its true recency. The victim is the
//! entry with the smallest `last_used`, the one a scan of every entry
//! would pick.

use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::pickle::StoredObject;
use crate::ObjectId;

/// Independently locked shards of [`ShardedObjectCache`]; the byte budget
/// splits evenly across them.
const SHARDS: usize = 8;

struct CacheSlot {
    object: Arc<dyn StoredObject>,
    /// Approximate bytes (pickled size) for the byte-budget accounting.
    size: usize,
    last_used: u64,
    /// The `last_used` this entry is filed under in the recency index.
    filed: u64,
}

/// A byte-bounded LRU cache of decoded objects.
pub struct ObjectCache {
    slots: HashMap<ObjectId, CacheSlot>,
    /// Every entry as `(filed, id)`: the eviction order, up to entries read
    /// since they were filed.
    lru: BTreeSet<(u64, ObjectId)>,
    capacity_bytes: usize,
    used_bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl ObjectCache {
    /// Creates a cache bounded to roughly `capacity_bytes` of pickled data
    /// (the paper's experiments bound "the total size of TDB caches" to
    /// 4 MB, §9.1).
    pub fn new(capacity_bytes: usize) -> ObjectCache {
        ObjectCache {
            slots: HashMap::new(),
            lru: BTreeSet::new(),
            capacity_bytes,
            used_bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up an object, refreshing its recency.
    pub fn get(&mut self, id: ObjectId) -> Option<Arc<dyn StoredObject>> {
        self.tick += 1;
        let tick = self.tick;
        match self.slots.get_mut(&id) {
            Some(slot) => {
                slot.last_used = tick;
                self.hits += 1;
                Some(Arc::clone(&slot.object))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Installs (or replaces) an object, evicting LRU entries past the
    /// byte budget.
    pub fn put(&mut self, id: ObjectId, object: Arc<dyn StoredObject>, size: usize) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(old) = self.slots.insert(
            id,
            CacheSlot {
                object,
                size,
                last_used: tick,
                filed: tick,
            },
        ) {
            self.used_bytes -= old.size;
            self.lru.remove(&(old.filed, id));
        }
        self.lru.insert((tick, id));
        self.used_bytes += size;
        while self.used_bytes > self.capacity_bytes && self.slots.len() > 1 {
            let &(filed, victim) = self.lru.first().expect("every entry is filed");
            if victim == id {
                break;
            }
            self.lru.remove(&(filed, victim));
            let slot = self.slots.get_mut(&victim).expect("filed entries exist");
            if slot.last_used == filed {
                // Not read since it was filed, and every other entry is
                // filed no later than it was last used: the LRU entry.
                self.used_bytes -= slot.size;
                self.slots.remove(&victim);
            } else {
                slot.filed = slot.last_used;
                self.lru.insert((slot.filed, victim));
            }
        }
    }

    /// Drops an object (deleted or its partition restored).
    pub fn remove(&mut self, id: ObjectId) {
        if let Some(slot) = self.slots.remove(&id) {
            self.used_bytes -= slot.size;
            self.lru.remove(&(slot.filed, id));
        }
    }

    /// Empties the cache.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.lru.clear();
        self.used_bytes = 0;
    }
    /// Cached object count.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Approximate cached bytes.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Publish stamps per shard of [`ShardedObjectCache`]: objects share a
/// stamp only when their ids hash alike.
const STAMPS: usize = 64;

/// The shard of [`ShardedObjectCache`] that holds `id`, and its stamp
/// there.
fn slot_of(id: ObjectId) -> (usize, usize) {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    id.0.hash(&mut h);
    let h = h.finish() as usize;
    (h % SHARDS, h / SHARDS % STAMPS)
}

/// One independently locked part of [`ShardedObjectCache`].
struct Shard {
    cache: ObjectCache,
    /// Bumped by every commit's `put` or `remove` of an object with that
    /// stamp.
    stamps: [u64; STAMPS],
}

/// A sharded wrapper over [`ObjectCache`]: the byte budget splits evenly
/// across `SHARDS` independently locked caches, so concurrent readers of
/// distinct objects don't serialize on one cache lock.
///
/// Commits change the cache through [`put`](Self::put) and
/// [`remove`](Self::remove); a read installs what it read through
/// [`put_read`](Self::put_read), guarded by a publish stamp taken before
/// it read. A reader that holds no lock excluding writers, such as an MVCC
/// snapshot's, may have read a version a commit has since replaced: the
/// commit moved the stamp, so the old version is not installed.
pub struct ShardedObjectCache {
    shards: [Mutex<Shard>; SHARDS],
}

impl ShardedObjectCache {
    /// Splits `capacity_bytes` across the shards' LRU caches.
    pub fn new(capacity_bytes: usize) -> ShardedObjectCache {
        let per_shard = (capacity_bytes / SHARDS).max(1);
        ShardedObjectCache {
            shards: std::array::from_fn(|_| {
                Mutex::new(Shard {
                    cache: ObjectCache::new(per_shard),
                    stamps: [0; STAMPS],
                })
            }),
        }
    }

    /// Looks up an object, refreshing its recency in its shard.
    pub fn get(&self, id: ObjectId) -> Option<Arc<dyn StoredObject>> {
        self.shards[slot_of(id).0].lock().cache.get(id)
    }

    /// Installs (or replaces) an object a commit wrote; eviction is
    /// per-shard.
    pub fn put(&self, id: ObjectId, object: Arc<dyn StoredObject>, size: usize) {
        let (shard, stamp) = slot_of(id);
        let mut shard = self.shards[shard].lock();
        shard.stamps[stamp] += 1;
        shard.cache.put(id, object, size);
    }

    /// Drops an object a commit writes or deletes.
    pub fn remove(&self, id: ObjectId) {
        let (shard, stamp) = slot_of(id);
        let mut shard = self.shards[shard].lock();
        shard.stamps[stamp] += 1;
        shard.cache.remove(id);
    }

    /// The publish stamp to hand [`put_read`](Self::put_read) for a read of
    /// `id` that starts now.
    pub fn stamp(&self, id: ObjectId) -> u64 {
        let (shard, stamp) = slot_of(id);
        self.shards[shard].lock().stamps[stamp]
    }

    /// Installs an object read from the store, unless a commit has put or
    /// removed it (or an object sharing its stamp) since `stamp` was taken.
    pub fn put_read(&self, id: ObjectId, object: Arc<dyn StoredObject>, size: usize, stamp: u64) {
        let (shard, slot) = slot_of(id);
        let mut shard = self.shards[shard].lock();
        if shard.stamps[slot] == stamp {
            shard.cache.put(id, object, size);
        }
    }

    /// Empties every shard.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().cache.clear();
        }
    }

    /// Total cached object count.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().cache.len()).sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total approximate cached bytes.
    pub fn used_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().cache.used_bytes())
            .sum()
    }

    /// Aggregated (hits, misses) across shards.
    pub fn stats(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(h, m), s| {
            let (sh, sm) = s.lock().cache.stats();
            (h + sh, m + sm)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;
    use tdb_core::{ChunkId, PartitionId};

    struct Blob(Vec<u8>);
    impl StoredObject for Blob {
        fn type_tag(&self) -> u32 {
            9
        }
        fn pickle(&self) -> Vec<u8> {
            self.0.clone()
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn oid(n: u64) -> ObjectId {
        ObjectId(ChunkId::data(PartitionId(1), n))
    }

    /// The cache as it was before the recency index: `put` finds each
    /// victim by scanning every entry. The oracle [`ObjectCache`] is held
    /// to; entries are `id -> (size, last_used)`.
    struct ScanCache {
        slots: HashMap<ObjectId, (usize, u64)>,
        capacity_bytes: usize,
        used_bytes: usize,
        tick: u64,
        hits: u64,
        misses: u64,
    }

    impl ScanCache {
        fn new(capacity_bytes: usize) -> ScanCache {
            ScanCache {
                slots: HashMap::new(),
                capacity_bytes,
                used_bytes: 0,
                tick: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn get(&mut self, id: ObjectId) {
            self.tick += 1;
            match self.slots.get_mut(&id) {
                Some(slot) => {
                    slot.1 = self.tick;
                    self.hits += 1;
                }
                None => self.misses += 1,
            }
        }

        fn put(&mut self, id: ObjectId, size: usize) {
            self.tick += 1;
            if let Some(old) = self.slots.insert(id, (size, self.tick)) {
                self.used_bytes -= old.0;
            }
            self.used_bytes += size;
            while self.used_bytes > self.capacity_bytes && self.slots.len() > 1 {
                let victim = self
                    .slots
                    .iter()
                    .min_by_key(|(_, s)| s.1)
                    .map(|(k, _)| *k)
                    .expect("non-empty");
                if victim == id {
                    break;
                }
                if let Some(slot) = self.slots.remove(&victim) {
                    self.used_bytes -= slot.0;
                }
            }
        }

        fn remove(&mut self, id: ObjectId) {
            if let Some(slot) = self.slots.remove(&id) {
                self.used_bytes -= slot.0;
            }
        }

        fn clear(&mut self) {
            self.slots.clear();
            self.used_bytes = 0;
        }
    }

    /// SplitMix64: a seeded, dependency-free operation stream.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    enum Op {
        Get(ObjectId),
        Put(ObjectId, usize),
        Remove(ObjectId),
        Clear,
    }

    /// Mostly gets and puts over `ids` objects, so puts often replace;
    /// sizes up to an eighth of `budget`, with a few of zero and a few
    /// larger than the whole budget.
    fn random_op(rng: &mut Rng, ids: u64, budget: usize) -> Op {
        let id = oid(rng.below(ids));
        match rng.below(200) {
            0..=99 => Op::Get(id),
            100..=179 => Op::Put(id, rng.below(budget as u64 / 8) as usize + 1),
            180..=181 => Op::Put(id, 0),
            182..=184 => Op::Put(id, budget + rng.below(100) as usize),
            185..=198 => Op::Remove(id),
            _ => Op::Clear,
        }
    }

    fn blob() -> Arc<dyn StoredObject> {
        Arc::new(Blob(Vec::new()))
    }

    /// The cached ids, sorted, after checking that the index files every
    /// entry exactly once.
    fn cached_ids(c: &ObjectCache) -> Vec<ObjectId> {
        assert_eq!(c.lru.len(), c.slots.len(), "one index entry per slot");
        for (id, slot) in &c.slots {
            assert!(slot.filed <= slot.last_used);
            assert!(c.lru.contains(&(slot.filed, *id)), "{id} filed");
        }
        let mut ids: Vec<ObjectId> = c.slots.keys().copied().collect();
        ids.sort();
        ids
    }

    fn scanned_ids(c: &ScanCache) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = c.slots.keys().copied().collect();
        ids.sort();
        ids
    }

    #[test]
    fn indexed_eviction_matches_scan_oracle() {
        for seed in 1..=8u64 {
            let budget = 2000 + 500 * seed as usize;
            let mut rng = Rng(seed);
            let mut cache = ObjectCache::new(budget);
            let mut oracle = ScanCache::new(budget);
            for step in 0..4000 {
                match random_op(&mut rng, 64, budget) {
                    Op::Get(id) => {
                        let _ = cache.get(id);
                        oracle.get(id);
                    }
                    Op::Put(id, size) => {
                        cache.put(id, blob(), size);
                        oracle.put(id, size);
                    }
                    Op::Remove(id) => {
                        cache.remove(id);
                        oracle.remove(id);
                    }
                    Op::Clear => {
                        cache.clear();
                        oracle.clear();
                    }
                }
                let at = format!("seed {seed} step {step}");
                assert_eq!(cached_ids(&cache), scanned_ids(&oracle), "{at}");
                assert_eq!(cache.len(), oracle.slots.len(), "{at}");
                assert_eq!(cache.used_bytes(), oracle.used_bytes, "{at}");
                assert_eq!(cache.stats(), (oracle.hits, oracle.misses), "{at}");
            }
        }
    }

    #[test]
    fn sharded_eviction_matches_scan_oracle() {
        let budget = SHARDS * 1500;
        let mut rng = Rng(31);
        let cache = ShardedObjectCache::new(budget);
        let mut oracle: Vec<ScanCache> = (0..SHARDS).map(|_| ScanCache::new(1500)).collect();
        for step in 0..8000 {
            match random_op(&mut rng, 400, 1500) {
                Op::Get(id) => {
                    let _ = cache.get(id);
                    oracle[slot_of(id).0].get(id);
                }
                Op::Put(id, size) => {
                    cache.put(id, blob(), size);
                    oracle[slot_of(id).0].put(id, size);
                }
                Op::Remove(id) => {
                    cache.remove(id);
                    oracle[slot_of(id).0].remove(id);
                }
                Op::Clear => {
                    cache.clear();
                    oracle.iter_mut().for_each(ScanCache::clear);
                }
            }
            for (shard, scan) in cache.shards.iter().zip(&oracle) {
                assert_eq!(
                    cached_ids(&shard.lock().cache),
                    scanned_ids(scan),
                    "step {step}"
                );
            }
            let len: usize = oracle.iter().map(|s| s.slots.len()).sum();
            let used: usize = oracle.iter().map(|s| s.used_bytes).sum();
            let stats = oracle
                .iter()
                .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
            assert_eq!(cache.len(), len, "step {step}");
            assert_eq!(cache.used_bytes(), used, "step {step}");
            assert_eq!(cache.stats(), stats, "step {step}");
        }
    }

    #[test]
    fn put_get_replace() {
        let mut c = ObjectCache::new(1000);
        c.put(oid(1), Arc::new(Blob(vec![1; 100])), 100);
        assert!(c.get(oid(1)).is_some());
        assert_eq!(c.used_bytes(), 100);
        c.put(oid(1), Arc::new(Blob(vec![2; 50])), 50);
        assert_eq!(c.used_bytes(), 50);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_by_bytes() {
        let mut c = ObjectCache::new(250);
        c.put(oid(1), Arc::new(Blob(vec![0; 100])), 100);
        c.put(oid(2), Arc::new(Blob(vec![0; 100])), 100);
        let _ = c.get(oid(1)); // 2 becomes LRU.
        c.put(oid(3), Arc::new(Blob(vec![0; 100])), 100);
        assert!(c.get(oid(1)).is_some());
        assert!(c.get(oid(2)).is_none(), "LRU entry evicted");
        assert!(c.get(oid(3)).is_some());
        assert!(c.used_bytes() <= 250);
    }

    #[test]
    fn remove_and_clear() {
        let mut c = ObjectCache::new(1000);
        c.put(oid(1), Arc::new(Blob(vec![0; 10])), 10);
        c.remove(oid(1));
        assert!(c.is_empty());
        c.put(oid(2), Arc::new(Blob(vec![0; 10])), 10);
        c.clear();
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn hit_miss_stats() {
        let mut c = ObjectCache::new(1000);
        c.put(oid(1), Arc::new(Blob(vec![0; 10])), 10);
        let _ = c.get(oid(1));
        let _ = c.get(oid(2));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn sharded_cache_routes_and_aggregates() {
        let c = ShardedObjectCache::new(64 * 1024);
        for n in 0..32 {
            c.put(oid(n), Arc::new(Blob(vec![0; 10])), 10);
        }
        assert_eq!(c.len(), 32);
        assert_eq!(c.used_bytes(), 320);
        for n in 0..32 {
            assert!(c.get(oid(n)).is_some(), "object {n} routed consistently");
        }
        let _ = c.get(oid(1000));
        assert_eq!(c.stats(), (32, 1));
        c.remove(oid(0));
        assert_eq!(c.len(), 31);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn a_read_older_than_a_commit_is_not_installed() {
        let c = ShardedObjectCache::new(64 * 1024);
        let read = |n: u8| Arc::new(Blob(vec![n; 10])) as Arc<dyn StoredObject>;
        let held = |c: &ShardedObjectCache| c.get(oid(1)).map(|o| o.pickle()[0]);
        // A commit's put, or its remove, after the read began.
        let stamp = c.stamp(oid(1));
        c.put(oid(1), read(2), 10);
        c.put_read(oid(1), read(1), 10, stamp);
        assert_eq!(held(&c), Some(2));
        let stamp = c.stamp(oid(1));
        c.remove(oid(1));
        c.put_read(oid(1), read(1), 10, stamp);
        assert_eq!(held(&c), None);
        // No commit since: the read installs.
        let stamp = c.stamp(oid(1));
        c.put_read(oid(1), read(3), 10, stamp);
        assert_eq!(held(&c), Some(3));
    }

    #[test]
    fn sharded_cache_is_concurrently_usable() {
        let c = Arc::new(ShardedObjectCache::new(1024 * 1024));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for n in 0..128 {
                        let id = oid(t * 1000 + n);
                        c.put(id, Arc::new(Blob(vec![0; 16])), 16);
                        assert!(c.get(id).is_some());
                    }
                });
            }
        });
        assert_eq!(c.len(), 4 * 128);
    }
}
