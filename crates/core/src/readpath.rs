//! The concurrent read path: sharded descriptor caches serving validated
//! reads without the engine mutex.
//!
//! The paper runs the whole chunk store behind one lock (§4.2). That is
//! correct but serializes the dominant read-side costs — locating a
//! version, decrypting it, and hashing it — even for *distinct* chunks.
//! This module gives `ChunkStore::read` a lock-free-ish fast path:
//!
//! - A power-of-two array of [`parking_lot::RwLock`] shards, each holding
//!   a descriptor cache (chunk id → committed [`Descriptor`]). A fast read
//!   takes the descriptor from its shard, reads the device, and validates
//!   the version with [`validate_version`], the routine the locked read
//!   uses. It caches no body: validated bodies are cached once, as
//!   objects, by the object store above.
//! - A shared partition-crypto table so readers can decrypt without
//!   touching the engine's leader cache.
//! - An atomic mirror of [`StoreHealth`] so fast reads fail closed the
//!   moment the engine poisons, without taking the engine lock.
//!
//! Correctness rests on three rules (documented for reviewers in
//! `docs/ARCHITECTURE.md`):
//!
//! 1. **Publication only under the engine mutex.** Shard entries are
//!    written while the writer path holds the engine lock (after a locked
//!    read, or after a commit), so a published descriptor is always one
//!    the engine considered current at publication time.
//! 2. **Reads are descriptor-validated.** A cached descriptor only
//!    produces data that hashes to `desc.hash`. Under collision
//!    resistance, any fast-path success equals a committed pre- or
//!    post-state of a concurrent mutation.
//! 3. **Failure means fallback, never verdict.** Any fast-path anomaly —
//!    missing entry, unparsable bytes, hash mismatch (all possible under
//!    benign races with the cleaner or a concurrent commit) — falls back
//!    to the engine-locked authoritative path. Only that path, which holds
//!    the mutex and sees consistent state, may declare tampering and
//!    poison the store. The fast path therefore never produces a false
//!    positive *or* suppresses a true one.
//!
//! Lock order is strictly engine mutex → shard lock; the fast path takes
//! shard locks only, so the hierarchy is acyclic.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use tdb_storage::SharedUntrusted;

use crate::descriptor::Descriptor;
use crate::ids::{ChunkId, PartitionId};
use crate::metrics::{self, modules};
use crate::params::PartitionCrypto;
use crate::store::StoreHealth;
use crate::version::{validate_version, Rejected};

const HEALTH_LIVE: u8 = 0;
const HEALTH_DEGRADED: u8 = 1;
const HEALTH_POISONED: u8 = 2;

/// Shards of the read path: a power of two, so a shard is a mask away.
const SHARDS: usize = 16;

/// Descriptors one shard holds before it is emptied.
const DESCS_PER_SHARD: usize = 1024;

/// One shard: the committed descriptors of the chunk ids that hash here.
type ReadShard = HashMap<ChunkId, Descriptor>;

/// The sharded concurrent read path of a `ChunkStore`.
pub(crate) struct ReadPath {
    shards: [RwLock<ReadShard>; SHARDS],
    /// Partition id → runtime crypto, for decryption off the engine lock.
    cryptos: RwLock<HashMap<PartitionId, Arc<PartitionCrypto>>>,
    /// Raw untrusted store handle (same device the log appends to).
    store: SharedUntrusted,
    /// System-partition crypto (version headers are sealed under it).
    pub(crate) system: Arc<PartitionCrypto>,
    /// Mirror of the engine's `StoreHealth`, updated by the writer path.
    health: AtomicU8,
    /// Descriptor budget per shard ([`DESCS_PER_SHARD`]; tests shrink it).
    descs_per_shard: usize,
    fast_hits: AtomicU64,
    fallbacks: AtomicU64,
    contention: AtomicU64,
    decompress_fallbacks: AtomicU64,
}

impl ReadPath {
    /// Builds an empty read path over `store`.
    pub(crate) fn new(store: SharedUntrusted, system: Arc<PartitionCrypto>) -> ReadPath {
        ReadPath {
            shards: std::array::from_fn(|_| RwLock::new(ReadShard::default())),
            cryptos: RwLock::new(HashMap::new()),
            store,
            system,
            health: AtomicU8::new(HEALTH_LIVE),
            descs_per_shard: DESCS_PER_SHARD,
            fast_hits: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            contention: AtomicU64::new(0),
            decompress_fallbacks: AtomicU64::new(0),
        }
    }

    fn shard(&self, id: ChunkId) -> &RwLock<ReadShard> {
        let mut h = DefaultHasher::new();
        id.hash(&mut h);
        let i = (h.finish() as usize) & (SHARDS - 1);
        &self.shards[i]
    }

    /// Mirrors the engine's health so fast reads can fail closed without
    /// the engine lock. Called by the writer path after every mutation.
    pub(crate) fn set_health(&self, health: &StoreHealth) {
        let v = match health {
            StoreHealth::Live => HEALTH_LIVE,
            StoreHealth::Degraded { .. } => HEALTH_DEGRADED,
            StoreHealth::Poisoned { .. } => HEALTH_POISONED,
        };
        self.health.store(v, Ordering::SeqCst);
    }

    /// Counts a read served by the engine-locked authoritative path.
    pub(crate) fn note_fallback(&self) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// `(fast_hits, fallbacks, shard_contention, decompress_fallbacks)`
    /// counter snapshot.
    pub(crate) fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.fast_hits.load(Ordering::Relaxed),
            self.fallbacks.load(Ordering::Relaxed),
            self.contention.load(Ordering::Relaxed),
            self.decompress_fallbacks.load(Ordering::Relaxed),
        )
    }

    /// The fast read: the published descriptor, a device read and
    /// [`validate_version`], without the engine lock. Returns `None` for
    /// *any* miss or anomaly — the caller must fall back to the locked
    /// path, which alone may judge integrity: concurrent cleaning or
    /// committing can invalidate a published descriptor benignly.
    pub(crate) fn try_fast(&self, id: ChunkId) -> Option<Vec<u8>> {
        if self.health.load(Ordering::SeqCst) == HEALTH_POISONED {
            return None;
        }
        let shard = self.shard(id);
        let desc = match shard.try_read() {
            Some(g) => *g.get(&id)?,
            None => {
                // A writer holds this shard: count the contention, then
                // block (shard writes are brief).
                self.contention.fetch_add(1, Ordering::Relaxed);
                *shard.read().get(&id)?
            }
        };
        debug_assert!(desc.is_written());
        let crypto = self.crypto(id.partition)?;
        let mut buf = vec![0u8; desc.vlen as usize];
        {
            let _t = metrics::span(modules::UNTRUSTED_READ);
            self.store.read_at(desc.location, &mut buf).ok()?;
        }
        match validate_version(&self.system, &crypto, id, &desc, &buf) {
            Ok((body, _)) => {
                self.fast_hits.fetch_add(1, Ordering::Relaxed);
                Some(body)
            }
            Err(Rejected::Undecompressible(_)) => {
                self.decompress_fallbacks.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(Rejected::Invalid(_)) => None,
        }
    }

    /// Publishes a committed descriptor for fast reads. Must be called
    /// while the engine mutex is held, so the descriptor is current at
    /// publication time.
    pub(crate) fn publish(&self, id: ChunkId, desc: Descriptor, crypto: &Arc<PartitionCrypto>) {
        if !desc.is_written() {
            return;
        }
        self.publish_crypto(id.partition, crypto);
        let mut shard = self.shard(id).write();
        if shard.len() >= self.descs_per_shard && !shard.contains_key(&id) {
            // Descriptor cache over budget: drop it wholesale (cheap to
            // repopulate from locked reads).
            shard.clear();
        }
        shard.insert(id, desc);
    }

    /// Publishes `p`'s current crypto, replacing any other. Must be called
    /// while the engine mutex is held, like [`ReadPath::publish`].
    pub(crate) fn publish_crypto(&self, p: PartitionId, crypto: &Arc<PartitionCrypto>) {
        let current = self
            .cryptos
            .read()
            .get(&p)
            .is_some_and(|c| Arc::ptr_eq(c, crypto));
        if !current {
            self.cryptos.write().insert(p, Arc::clone(crypto));
        }
    }

    /// `p`'s crypto as last published, which a recreate may have made
    /// stale: callers verify against descriptors or the engine re-checks.
    pub(crate) fn crypto(&self, p: PartitionId) -> Option<Arc<PartitionCrypto>> {
        self.cryptos.read().get(&p).map(Arc::clone)
    }

    /// Removes one chunk's descriptor (it changed or the chunk was
    /// deallocated). Called under the engine mutex by the writer path.
    pub(crate) fn invalidate(&self, id: ChunkId) {
        self.shard(id).write().remove(&id);
    }

    /// Drops all cached descriptors but keeps the crypto table (partition
    /// set unchanged). Used after cleaning, which may relocate or reclaim
    /// any version.
    pub(crate) fn clear_shards(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
    }

    /// Drops everything including cached partition crypto. Used when
    /// partitions are deallocated (ids and keys may be reused).
    pub(crate) fn clear_all(&self) {
        self.clear_shards();
        self.cryptos.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CryptoParams;
    use crate::version::{seal_version, seal_version_flagged, VersionKind};
    use tdb_crypto::SecretKey;
    use tdb_storage::{MemStore, UntrustedStore};

    struct Fixture {
        reads: ReadPath,
        store: Arc<MemStore>,
        crypto: Arc<PartitionCrypto>,
        end: u64,
    }

    impl Fixture {
        fn new(descs_per_shard: usize) -> Fixture {
            let system = CryptoParams::paper_system(SecretKey::random(24));
            let store = Arc::new(MemStore::new());
            let mut reads = ReadPath::new(
                Arc::clone(&store) as SharedUntrusted,
                Arc::new(system.runtime().unwrap()),
            );
            reads.descs_per_shard = descs_per_shard;
            let crypto = Arc::new(CryptoParams::paper_default().runtime().unwrap());
            Fixture {
                reads,
                store,
                crypto,
                end: 0,
            }
        }

        /// Appends `sealed`, `stored`'s version holding `size` logical
        /// bytes, and publishes its descriptor.
        fn commit(&mut self, id: ChunkId, sealed: &[u8], stored: &[u8], size: usize) {
            self.store.write_at(self.end, sealed).unwrap();
            let hash = self.crypto.hash(stored);
            let desc = Descriptor::written(self.end, sealed.len() as u32, size as u32, hash);
            self.reads.publish(id, desc, &self.crypto);
            self.end += sealed.len() as u64;
        }

        fn write(&mut self, id: ChunkId, body: &[u8]) {
            let sealed = seal_version(
                &self.reads.system,
                &self.crypto,
                VersionKind::Named,
                id,
                body,
            );
            self.commit(id, &sealed, body, body.len());
        }
    }

    /// Publishing past a shard's budget empties that shard: afterwards
    /// every read returns its chunk's committed body or counts a
    /// fallback, never another chunk's or an older version's body.
    #[test]
    fn over_budget_shards_empty_and_never_serve_a_wrong_body() {
        const BUDGET: usize = 4;
        let mut fx = Fixture::new(BUDGET);
        let ids: Vec<ChunkId> = (0..(SHARDS * BUDGET * 3) as u64)
            .map(|rank| ChunkId::data(PartitionId(1), rank))
            .collect();
        let body = |id: ChunkId, version: u8| format!("{id} version {version}").into_bytes();
        for version in 0..2 {
            for &id in &ids {
                fx.write(id, &body(id, version));
            }
            assert!(fx.reads.shards.iter().all(|s| s.read().len() <= BUDGET));
        }
        for &id in &ids {
            match fx.reads.try_fast(id) {
                Some(got) => assert_eq!(got, body(id, 1), "{id}"),
                None => fx.reads.note_fallback(),
            }
        }
        let (hits, fallbacks, _, _) = fx.reads.counters();
        assert_eq!(hits + fallbacks, ids.len() as u64);
        assert!(
            hits > 0 && fallbacks > 0,
            "{hits} hits, {fallbacks} fallbacks"
        );
    }

    /// A version whose body matches its hash but does not decompress is a
    /// fallback, counted as one; the fast path gives no verdict.
    #[test]
    fn undecompressible_verified_body_counts_a_decompress_fallback() {
        let mut fx = Fixture::new(DESCS_PER_SHARD);
        let id = ChunkId::data(PartitionId(1), 0);
        let envelope = [9, 0, 0, 0, 0xFF];
        let sealed = seal_version_flagged(
            &fx.reads.system,
            &fx.crypto,
            VersionKind::Named,
            id,
            &envelope,
            true,
        );
        fx.commit(id, &sealed, &envelope, 9);
        assert_eq!(fx.reads.try_fast(id), None);
        assert_eq!(fx.reads.counters(), (0, 0, 0, 1));
    }
}
