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

/// The shard of [`ShardedObjectCache`] that holds `id`.
fn shard_of(id: ObjectId) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    id.0.hash(&mut h);
    h.finish() as usize % SHARDS
}

/// A sharded wrapper over [`ObjectCache`]: the byte budget splits evenly
/// across `SHARDS` independently locked caches, so concurrent readers of
/// distinct objects don't serialize on one cache lock.
///
/// Every change of an object's entry — a commit's eviction and install, a
/// read's install — is made under a lock on the object that excludes its
/// writers (see `ObjectStore::fetch`), so entries need no versioning.
pub struct ShardedObjectCache {
    shards: [Mutex<ObjectCache>; SHARDS],
}

impl ShardedObjectCache {
    /// Splits `capacity_bytes` across the shards' LRU caches.
    pub fn new(capacity_bytes: usize) -> ShardedObjectCache {
        let per_shard = (capacity_bytes / SHARDS).max(1);
        ShardedObjectCache {
            shards: std::array::from_fn(|_| Mutex::new(ObjectCache::new(per_shard))),
        }
    }

    /// Looks up an object, refreshing its recency in its shard.
    pub fn get(&self, id: ObjectId) -> Option<Arc<dyn StoredObject>> {
        self.shards[shard_of(id)].lock().get(id)
    }

    /// Installs (or replaces) an object; eviction is per-shard.
    pub fn put(&self, id: ObjectId, object: Arc<dyn StoredObject>, size: usize) {
        self.shards[shard_of(id)].lock().put(id, object, size);
    }

    /// Drops an object (written or deleted by a commit).
    pub fn remove(&self, id: ObjectId) {
        self.shards[shard_of(id)].lock().remove(id);
    }

    /// Empties every shard.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    /// Aggregated (hits, misses) across shards.
    pub fn stats(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(h, m), s| {
            let (sh, sm) = s.lock().stats();
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

    impl ShardedObjectCache {
        /// Total cached object count.
        fn len(&self) -> usize {
            self.shards.iter().map(|s| s.lock().len()).sum()
        }

        /// True when every shard is empty.
        fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Total approximate cached bytes.
        fn used_bytes(&self) -> usize {
            self.shards.iter().map(|s| s.lock().used_bytes()).sum()
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
                    oracle[shard_of(id)].get(id);
                }
                Op::Put(id, size) => {
                    cache.put(id, blob(), size);
                    oracle[shard_of(id)].put(id, size);
                }
                Op::Remove(id) => {
                    cache.remove(id);
                    oracle[shard_of(id)].remove(id);
                }
                Op::Clear => {
                    cache.clear();
                    oracle.iter_mut().for_each(ScanCache::clear);
                }
            }
            for (shard, scan) in cache.shards.iter().zip(&oracle) {
                assert_eq!(cached_ids(&shard.lock()), scanned_ids(scan), "step {step}");
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
