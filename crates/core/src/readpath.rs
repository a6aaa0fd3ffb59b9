//! The concurrent read path: sharded caches serving validated reads
//! without the engine mutex.
//!
//! The paper runs the whole chunk store behind one lock (§4.2). That is
//! correct but serializes the dominant read-side costs — locating a
//! version, decrypting it, and hashing it — even for *distinct* chunks.
//! This module gives `ChunkStore::read` a lock-free-ish fast path:
//!
//! - A power-of-two array of [`parking_lot::RwLock`] shards, each holding
//!   a descriptor cache (chunk id → committed [`Descriptor`]) and a
//!   validated-body cache (chunk id → plaintext, keyed by the hash it was
//!   validated against).
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
//! 2. **Hits are descriptor-validated.** A cached body is served only when
//!    its hash and length match the cached descriptor, and a cached
//!    descriptor only produces data that hashes to `desc.hash`. Under
//!    collision resistance, any fast-path success equals a committed pre-
//!    or post-state of a concurrent mutation.
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
use crate::version::{parse_version, VersionKind};

const HEALTH_LIVE: u8 = 0;
const HEALTH_DEGRADED: u8 = 1;
const HEALTH_POISONED: u8 = 2;

/// Shards of the read path: a power of two, so a shard is a mask away.
const SHARDS: usize = 16;

/// A validated plaintext body, keyed by the descriptor hash it satisfied.
struct CachedBody {
    hash: tdb_crypto::HashValue,
    body: Arc<Vec<u8>>,
    /// LRU stamp; atomic so read-lock holders can refresh it.
    last_used: AtomicU64,
}

/// One shard: descriptors and validated bodies for the chunk ids that
/// hash here.
#[derive(Default)]
struct ReadShard {
    descs: HashMap<ChunkId, Descriptor>,
    bodies: HashMap<ChunkId, CachedBody>,
}

impl ReadShard {
    /// Caches `body` under `id`, first evicting the least recently used
    /// other body if the shard already holds `budget` of them.
    fn insert_body(&mut self, id: ChunkId, body: CachedBody, budget: usize) {
        if self.bodies.len() >= budget {
            if let Some(victim) = self
                .bodies
                .iter()
                .filter(|(k, _)| **k != id)
                .min_by_key(|(_, b)| b.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| *k)
            {
                self.bodies.remove(&victim);
            }
        }
        self.bodies.insert(id, body);
    }
}

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
    /// Global LRU tick.
    tick: AtomicU64,
    /// Validated-body budget per shard.
    bodies_per_shard: usize,
    /// Descriptor budget per shard.
    descs_per_shard: usize,
    fast_hits: AtomicU64,
    fallbacks: AtomicU64,
    contention: AtomicU64,
    decompress_fallbacks: AtomicU64,
}

impl ReadPath {
    /// Builds a read path with a total budget of `cache_chunks` validated
    /// bodies.
    pub(crate) fn new(
        store: SharedUntrusted,
        system: Arc<PartitionCrypto>,
        cache_chunks: usize,
    ) -> ReadPath {
        let bodies_per_shard = (cache_chunks / SHARDS).max(4);
        ReadPath {
            shards: std::array::from_fn(|_| RwLock::new(ReadShard::default())),
            cryptos: RwLock::new(HashMap::new()),
            store,
            system,
            health: AtomicU8::new(HEALTH_LIVE),
            tick: AtomicU64::new(0),
            bodies_per_shard,
            descs_per_shard: bodies_per_shard.saturating_mul(16).max(64),
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

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
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

    /// The fast read: serve `id` from shard state without the engine lock.
    /// Returns `None` for *any* miss or anomaly — the caller must fall
    /// back to the locked path, which alone may judge integrity.
    pub(crate) fn try_fast(&self, id: ChunkId) -> Option<Vec<u8>> {
        if self.health.load(Ordering::SeqCst) == HEALTH_POISONED {
            return None;
        }
        let shard = self.shard(id);
        let guard = match shard.try_read() {
            Some(g) => g,
            None => {
                // A writer holds this shard: count the contention, then
                // block (shard writes are brief).
                self.contention.fetch_add(1, Ordering::Relaxed);
                shard.read()
            }
        };
        let desc = *guard.descs.get(&id)?;
        debug_assert!(desc.is_written());
        if let Some(cb) = guard.bodies.get(&id) {
            if cb.hash == desc.hash && cb.body.len() == desc.size as usize {
                cb.last_used.store(self.next_tick(), Ordering::Relaxed);
                self.fast_hits.fetch_add(1, Ordering::Relaxed);
                return Some((*cb.body).clone());
            }
        }
        drop(guard);
        let crypto = self.crypto(id.partition)?;
        let body = self.validate(id, &desc, &crypto)?;
        self.install_body(id, &desc, Arc::new(body.clone()));
        self.fast_hits.fetch_add(1, Ordering::Relaxed);
        Some(body)
    }

    /// Reads and validates `desc`'s version directly from the untrusted
    /// store (§4.5, off-lock). Every failure returns `None`: concurrent
    /// cleaning or committing can invalidate a published descriptor
    /// benignly, so no anomaly here is evidence of tampering.
    fn validate(
        &self,
        id: ChunkId,
        desc: &Descriptor,
        crypto: &PartitionCrypto,
    ) -> Option<Vec<u8>> {
        let mut buf = vec![0u8; desc.vlen as usize];
        {
            let _t = metrics::span(modules::UNTRUSTED_READ);
            self.store.read_at(desc.location, &mut buf).ok()?;
        }
        let raw = {
            let _t = metrics::span(modules::ENCRYPTION);
            parse_version(&self.system, &buf, desc.location).ok()??
        };
        if !matches!(raw.header.kind, VersionKind::Named | VersionKind::Relocated)
            || raw.header.id.pos != id.pos
        {
            return None;
        }
        let body = {
            let _t = metrics::span(modules::ENCRYPTION);
            raw.open_body(crypto, desc.location).ok()?
        };
        let hash = {
            let _t = metrics::span(modules::HASHING);
            crypto.hash(&body)
        };
        if hash != desc.hash {
            return None;
        }
        if raw.header.compressed {
            // Verify-then-decompress: the hash above covered the stored
            // envelope, so the decompressor only ever sees verified bytes.
            // `desc.size` is the logical length, which both caps the
            // allocation and pins the exact expected output.
            match crate::compress::decompress_body(&body, desc.size as usize) {
                Ok(plain) => return Some(plain),
                Err(_) => {
                    self.decompress_fallbacks.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
        }
        Some(body)
    }

    /// Caches a freshly validated body, bounded per shard by LRU on clean
    /// entries. Re-checks the descriptor under the write lock so a body
    /// is never installed for an entry invalidated meanwhile.
    fn install_body(&self, id: ChunkId, desc: &Descriptor, body: Arc<Vec<u8>>) {
        let mut shard = self.shard(id).write();
        match shard.descs.get(&id) {
            Some(current) if current.hash == desc.hash => {}
            _ => return,
        }
        let body = CachedBody {
            hash: desc.hash,
            body,
            last_used: AtomicU64::new(self.next_tick()),
        };
        shard.insert_body(id, body, self.bodies_per_shard);
    }

    /// Publishes a committed descriptor (and optionally its validated
    /// body) for fast reads. Must be called while the engine mutex is
    /// held, so the descriptor is current at publication time.
    pub(crate) fn publish(
        &self,
        id: ChunkId,
        desc: Descriptor,
        crypto: &Arc<PartitionCrypto>,
        body: Option<&[u8]>,
    ) {
        if !desc.is_written() {
            return;
        }
        self.publish_crypto(id.partition, crypto);
        let mut shard = self.shard(id).write();
        if shard.descs.len() >= self.descs_per_shard && !shard.descs.contains_key(&id) {
            // Descriptor cache over budget: drop it wholesale (cheap to
            // repopulate from locked reads).
            shard.descs.clear();
        }
        shard.descs.insert(id, desc);
        if let Some(body) = body {
            let body = CachedBody {
                hash: desc.hash,
                body: Arc::new(body.to_vec()),
                last_used: AtomicU64::new(self.next_tick()),
            };
            shard.insert_body(id, body, self.bodies_per_shard);
        }
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

    /// Removes one chunk's shard state (its descriptor changed or it was
    /// deallocated). Called under the engine mutex by the writer path.
    pub(crate) fn invalidate(&self, id: ChunkId) {
        let mut shard = self.shard(id).write();
        shard.descs.remove(&id);
        shard.bodies.remove(&id);
    }

    /// Drops all cached descriptors and bodies but keeps the crypto table
    /// (partition set unchanged). Used after cleaning, which may relocate
    /// or reclaim any version.
    pub(crate) fn clear_shards(&self) {
        for shard in &self.shards {
            let mut g = shard.write();
            g.descs.clear();
            g.bodies.clear();
        }
    }

    /// Drops everything including cached partition crypto. Used when
    /// partitions are deallocated (ids and keys may be reused).
    pub(crate) fn clear_all(&self) {
        self.clear_shards();
        self.cryptos.write().clear();
    }
}
