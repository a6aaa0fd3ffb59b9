//! The chunk store (§4, §5): TDB's trusted storage engine.
//!
//! The chunk store keeps a set of named, variable-sized chunks in a
//! log-structured untrusted store, validated through a Merkle tree embedded
//! in the chunk map and rooted — via the residual-log hash or signed commit
//! counts — in the tamper-resistant store. See the paper §4.2 for the
//! implementation overview this module follows.
//!
//! This module holds the public facade, the engine state struct, the
//! health state machine, and the lock/publication protocol. The engine
//! logic itself lives in the private `engine` layer: commit processing
//! (`engine::commit`), the chunk map (`engine::map`), checkpointing
//! (`engine::checkpoint`), partition bookkeeping (`engine::partitions`),
//! and the log cleaner (`engine::maintenance`), which also keeps a
//! bounded log writable (the cleaner reserve and inline slices).
//!
//! Concurrency: "serializability of operations is provided through mutual
//! exclusion, which does not overlap I/O and computation, but is simple and
//! acceptable when concurrency is low" (§4.2) — a single mutex around the
//! whole engine. Two kinds of work leave it: a committer seals its writes
//! before it takes the lock, and a read validates its version after it
//! drops the lock ([`ChunkStore::read`]).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use tdb_crypto::SecretKey;
use tdb_storage::{MonotonicCounter, SharedUntrusted, TrustedStore};

use crate::batcher::CommitBatcher;
use crate::cache::MapCache;
use crate::descriptor::Descriptor;
use crate::engine::ranks::Ranks;
use crate::engine::rollback::Undo;
use crate::errors::{CoreError, Result};
use crate::ids::{ChunkId, PartitionId};
use crate::leader::SystemLeader;
use crate::log::{LogHashes, SegmentedLog, SuiteRecord, Superblock};
use crate::metrics::{self, modules};
use crate::params::{CryptoParams, PartitionCrypto};
use crate::pipeline::{self, Seals};
use crate::undo::{Journal, UndoCounters};
use crate::version::{validate_version, VersionKind};

pub use crate::engine::commit::CommitOp;
pub(crate) use crate::engine::commit::DirectRecord;
pub(crate) use crate::engine::partitions::LeaderEntry;
pub use crate::engine::partitions::{DiffChange, DiffEntry};

/// How the tamper-resistant store is used (§4.8.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidationMode {
    /// Direct hash validation (§4.8.2.1): the tamper-resistant store holds
    /// a chained hash of the residual log plus the log-tail location, and
    /// is updated on every commit.
    DirectHash,
    /// Counter-based validation (§4.8.2.2): signed, counted commit chunks
    /// in the log; the tamper-resistant store holds only a monotonic
    /// counter, flushed lazily.
    Counter {
        /// Allowed lag of the trusted counter behind the log: acknowledged
        /// commits are at most Δut − 1 past it (the paper ran with Δut = 5).
        delta_ut: u64,
        /// Allowed lead of the trusted counter over the log (for lazily
        /// flushed untrusted stores; the paper ran with Δtu = 0).
        delta_tu: u64,
    },
}

/// The tamper-resistant store backend matching the [`ValidationMode`].
#[derive(Clone)]
pub enum TrustedBackend {
    /// A small writable register (for [`ValidationMode::DirectHash`]).
    Register(Arc<dyn TrustedStore>),
    /// A non-decrementable counter (for [`ValidationMode::Counter`]).
    Counter(Arc<dyn MonotonicCounter>),
}

/// Chunk store configuration.
///
/// No knob chooses the write path: every commit is a member of a
/// group-commit batch, whose appends reach the device as one write per
/// contiguous run and one flush at the batch's durability point.
#[derive(Clone)]
pub struct ChunkStoreConfig {
    /// Descriptors per map chunk (the paper's experiments use 64, §9.2.2).
    pub fanout: u32,
    /// Log segment size in bytes (§4.9.4 suggests ~100 KB for disks).
    pub segment_size: u32,
    /// Soft cap on cached map chunks.
    pub map_cache_capacity: usize,
    /// Dirty map chunks that trigger an automatic checkpoint (§4.7). The
    /// default, 512, is half of `map_cache_capacity`: dirty chunks cannot
    /// be evicted, and the other half stays for clean ones on the read
    /// path. A checkpoint is also due, whatever this says, once the
    /// residual log outgrows a fixed 8 MiB budget, which bounds recovery.
    pub checkpoint_threshold: usize,
    /// Validation protocol.
    pub validation: ValidationMode,
    /// Hard cap on segments (0 = unbounded). A bounded log keeps its last
    /// few segments for the cleaner and cleans inline under pressure
    /// (`engine::maintenance`).
    pub max_segments: u32,
    /// System-partition cipher, which seals every version header, map
    /// chunk, leader and unnamed record. The paper fixes 3DES (§5.2); the
    /// default is AES-128, which runs on AES-NI. A store records its suite
    /// and refuses to open under another ([`CoreError::SuiteMismatch`]).
    pub system_cipher: tdb_crypto::CipherKind,
    /// System-partition hash (SHA-1, as in the paper).
    pub system_hash: tdb_crypto::HashKind,
}

/// Derivation label of the system key ([`ChunkStoreConfig::system_params`]).
const SYSTEM_KEY_LABEL: &[u8] = b"tdb v2 system key";

impl ChunkStoreConfig {
    /// The system partition's parameters under `secret`: the configured
    /// suite, keyed with `HMAC-SHA-256(secret, "tdb v2 system key")`
    /// truncated to the cipher's key length, so a secret of any length
    /// keys any system cipher. The one constructor of the system crypto:
    /// create, recovery, backup and any reader of the raw log seal and
    /// parse system chunks with it.
    pub fn system_params(&self, secret: &SecretKey) -> CryptoParams {
        CryptoParams {
            cipher: self.system_cipher,
            hash: self.system_hash,
            key: secret.derive(SYSTEM_KEY_LABEL, self.system_cipher.key_len()),
        }
    }
}

impl Default for ChunkStoreConfig {
    fn default() -> Self {
        ChunkStoreConfig {
            fanout: 64,
            segment_size: 128 * 1024,
            map_cache_capacity: 1024,
            checkpoint_threshold: 512,
            validation: ValidationMode::Counter {
                delta_ut: 5,
                delta_tu: 0,
            },
            max_segments: 0,
            system_cipher: tdb_crypto::CipherKind::Aes128,
            system_hash: tdb_crypto::HashKind::Sha1,
        }
    }
}

/// Aggregate counters exposed for benchmarks and experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChunkStoreStats {
    /// Commits performed (including checkpoints and cleaner commits).
    pub commits: u64,
    /// Checkpoints performed.
    pub checkpoints: u64,
    /// Segments reclaimed by the cleaner.
    pub segments_cleaned: u64,
    /// Versions relocated by the cleaner.
    pub chunks_relocated: u64,
    /// Obsolete bytes reclaimed by the cleaner (segment size minus live
    /// bytes, summed over reclaimed segments).
    pub bytes_reclaimed: u64,
    /// Cleaning slices a commit ran inline because its bounded log was
    /// short of free segments.
    pub clean_slices: u64,
    /// Bytes appended to the log.
    pub bytes_appended: u64,
    /// Times this store entered read-only degraded mode.
    pub degraded_entries: u64,
    /// Times this store hard-poisoned on an integrity violation.
    pub poison_events: u64,
    /// Group-commit batches executed by a leader thread.
    pub commit_batches: u64,
    /// Commits that rode in a group-commit batch (of any size).
    pub batched_commits: u64,
    /// Histogram of group-commit batch sizes. Bucket `i` counts batches of
    /// size in `(2^(i-1), 2^i]`: 1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, >64.
    pub batch_size_hist: [u64; 8],
    /// Device flushes issued by the log (commit, checkpoint, and batch
    /// barriers). With batching, many commits share one flush.
    pub flushes: u64,
    /// Bytes written through coalesced (buffered) log runs.
    pub log_coalesced_bytes: u64,
    /// Device writes saved by coalescing: buffered appends minus the
    /// contiguous runs actually written.
    pub log_writes_coalesced: u64,
    /// Map-tree levels a checkpoint skipped because nothing in them was
    /// dirty (incremental checkpointing).
    pub dirty_map_levels_skipped: u64,
    /// Effective map-chunk digests served by a current cached slot tree
    /// (no re-encode, no re-hash).
    pub lazy_hash_hits: u64,
    /// Slot trees built, installed by a map-chunk load, or refreshed over
    /// their stale leaves.
    pub lazy_hash_recomputes: u64,
    /// Slot-tree leaves marked stale by descriptor writes, and slot trees
    /// dropped with their map-cache entries (eviction, replacement,
    /// purge) or by a rollback.
    pub lazy_invalidations: u64,
}

/// Externally visible health of the engine.
///
/// Failure handling follows the error taxonomy
/// ([`crate::errors::FaultClass`]): storage failures during a mutation roll
/// the in-memory state back to the savepoint the mutation took on entry —
/// undoing, newest first, the pre-images it journaled since — and, if any
/// bytes had already reached the log, drop to `Degraded`; only integrity
/// violations (`TamperDetected` on a mutation path) hard-poison. A map
/// chunk that was dirty at the savepoint is dirty again after rollback,
/// even if the mutation cleaned or evicted it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreHealth {
    /// Fully operational.
    Live,
    /// Read-only: a storage failure interrupted a mutation after bytes had
    /// reached the log. Validated reads are still served; mutations are
    /// rejected until the store is reopened. There is no way back in
    /// place: recovery on reopen decides, against the trusted store,
    /// whether the durable suffix the failed mutation left is adopted or
    /// dropped.
    Degraded {
        /// Human-readable cause.
        reason: String,
    },
    /// Failed closed: an integrity violation was detected during a
    /// mutation. Every operation is rejected; the store must be reopened,
    /// which revalidates everything against the tamper-resistant store.
    Poisoned {
        /// Human-readable cause.
        reason: String,
    },
}

impl StoreHealth {
    /// True when fully operational.
    pub fn is_live(&self) -> bool {
        matches!(self, StoreHealth::Live)
    }

    /// True when serving reads only.
    pub fn is_degraded(&self) -> bool {
        matches!(self, StoreHealth::Degraded { .. })
    }

    /// True when failed closed.
    pub fn is_poisoned(&self) -> bool {
        matches!(self, StoreHealth::Poisoned { .. })
    }
}

/// The engine state behind the mutex.
pub(crate) struct Inner {
    pub config: ChunkStoreConfig,
    pub system: Arc<PartitionCrypto>,
    pub trusted: TrustedBackend,
    pub log: SegmentedLog,
    pub hashes: LogHashes,
    pub sys_leader: SystemLeader,
    /// The system partition's rank allocator: partition ids (§5.1).
    pub sys_ranks: Ranks,
    pub map_cache: MapCache,
    pub leaders: HashMap<PartitionId, LeaderEntry>,
    /// Last commit count appended to the log (counter mode).
    pub commit_count: u64,
    /// Last count pushed to the trusted counter.
    pub trusted_count: u64,
    /// Location and on-log length of the current system leader version
    /// (for utilization accounting across checkpoints).
    pub leader_version: Option<(u64, u32)>,
    pub superblock: Superblock,
    pub stats: ChunkStoreStats,
    /// Live / degraded / poisoned state machine (see [`StoreHealth`]).
    pub health: StoreHealth,
    /// True once the current mutation has appended bytes to the log;
    /// distinguishes "failed before any durable append" (roll back and stay
    /// live) from "failed after a partial append" (degrade).
    pub wrote_log: bool,
    /// Undo journal for engine state outside the map cache, open while a
    /// mutation can still roll back (see [`crate::engine::rollback`]).
    pub undo: Journal<Undo>,
    /// `WriteChunk` bodies hashed and sealed under the engine lock because
    /// their committer's early seal was missing or stale.
    pub bodies_sealed_under_lock: u64,
    /// True for the length of a cleaning pass, which alone may take the
    /// cleaner reserve.
    pub cleaning: bool,
    /// A writer was refused a segment by the reserve since the last slice.
    pub reserve_refused: bool,
    /// Segments the cleaner emptied since the last checkpoint. They may
    /// still hold map chunks or leaders that checkpoint points at, so they
    /// join the free list only once the next checkpoint is durable.
    pub cleaned: Vec<u32>,
}

/// The trusted chunk store.
///
/// Every operation runs its engine work behind one lock, per the paper's
/// simple mutual-exclusion concurrency model. The crypto of a commit and a
/// read runs outside it: a committer hashes and seals its own writes before
/// it takes the lock (a sealed version is location-independent, and the
/// engine re-checks each early seal against the partition's current
/// crypto), and a read finds its descriptor under the lock but reads,
/// decrypts and checks the version after it lets go.
pub struct ChunkStore {
    pub(crate) inner: Mutex<Inner>,
    /// The untrusted device the log appends to, read off the lock.
    device: SharedUntrusted,
    /// The system crypto, which seals every version header.
    system: Arc<PartitionCrypto>,
    /// Partition → crypto, for sealing before the lock. Written only under
    /// the engine lock, by a read (the crypto it located) and by a batch
    /// (the partitions it wrote or created); a batch that deallocates a
    /// partition empties it. An entry may be stale, which the engine's
    /// re-check of early seals catches.
    cryptos: RwLock<HashMap<PartitionId, Arc<PartitionCrypto>>>,
    /// Group-commit coordinator, the only way into the commit path.
    pub(crate) batcher: CommitBatcher,
}

impl std::fmt::Debug for ChunkStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkStore").finish_non_exhaustive()
    }
}

impl ChunkStore {
    /// Formats a fresh store on `store` and returns it ready for use.
    ///
    /// # Errors
    ///
    /// Fails on storage or key-length errors.
    pub fn create(
        store: SharedUntrusted,
        trusted: TrustedBackend,
        secret: SecretKey,
        config: ChunkStoreConfig,
    ) -> Result<ChunkStore> {
        let sys_params = config.system_params(&secret);
        let system = Arc::new(sys_params.runtime()?);
        let suite = SuiteRecord::sealed(&secret, config.system_cipher, config.system_hash);
        let mut sys_leader = SystemLeader::new(sys_params, config.segment_size);
        sys_leader.log.num_segments = 1;
        sys_leader.log.utilization.push(0);
        let log = SegmentedLog::new(
            Arc::clone(&store),
            &system,
            config.segment_size,
            config.max_segments,
            0,
            0,
        );
        // Continue from any pre-existing trusted counter so reformatting a
        // platform with a used (non-decrementable) counter still works.
        let base_count = match (&config.validation, &trusted) {
            (ValidationMode::Counter { .. }, TrustedBackend::Counter(c)) => c.get()?,
            _ => 0,
        };
        let superblock = Superblock {
            epoch: 0,
            current_leader: 0,
            prev_leader: 0,
            suite,
        };
        let mut inner = Inner::new(config, system, trusted, log, sys_leader, superblock);
        (inner.commit_count, inner.trusted_count) = (base_count, base_count);
        // The initial checkpoint materializes the empty database: leader,
        // commit chunk / trusted hash, and superblock.
        inner.checkpoint()?;
        Ok(ChunkStore::assemble(inner))
    }

    /// Wraps a fully built engine.
    fn assemble(inner: Inner) -> ChunkStore {
        ChunkStore {
            device: Arc::clone(inner.log.store()),
            system: Arc::clone(&inner.system),
            cryptos: RwLock::new(HashMap::new()),
            inner: Mutex::new(inner),
            batcher: CommitBatcher::new(),
        }
    }

    /// Opens an existing store, running crash recovery (§4.8) and
    /// validating the residual log against the tamper-resistant store.
    ///
    /// # Errors
    ///
    /// Returns a tamper-detection error when validation fails, or storage
    /// errors.
    pub fn open(
        store: SharedUntrusted,
        trusted: TrustedBackend,
        secret: SecretKey,
        config: ChunkStoreConfig,
    ) -> Result<ChunkStore> {
        let inner = crate::recovery::recover(store, trusted, secret, config)?;
        Ok(ChunkStore::assemble(inner))
    }

    /// Returns an unallocated partition id (§5.1 `Allocate`). The
    /// allocation is not persistent until the partition is written.
    ///
    /// # Errors
    ///
    /// Fails if the store is not live (degraded or poisoned).
    pub fn allocate_partition(&self) -> Result<PartitionId> {
        let _t = metrics::span(modules::CHUNK_STORE);
        let mut inner = self.inner.lock();
        inner.check_writable()?;
        inner.allocate_partition()
    }

    /// Returns an unallocated chunk id in `partition` (§4.1 `Allocate`).
    ///
    /// # Errors
    ///
    /// Fails if the partition does not exist.
    pub fn allocate_chunk(&self, partition: PartitionId) -> Result<ChunkId> {
        let _t = metrics::span(modules::CHUNK_STORE);
        let mut inner = self.inner.lock();
        inner.check_writable()?;
        inner.allocate_chunk(partition)
    }

    /// Returns an id [`ChunkStore::allocate_chunk`] handed out and no commit
    /// wrote, so that a later allocation reuses it: what a transaction that
    /// ends without committing its creations gives back. Any other id is
    /// left as it is.
    ///
    /// # Errors
    ///
    /// Fails if the store is not live or the partition does not exist.
    pub fn release_chunk(&self, id: ChunkId) -> Result<()> {
        let _t = metrics::span(modules::CHUNK_STORE);
        let mut inner = self.inner.lock();
        inner.check_writable()?;
        inner.release_chunk(id)
    }

    /// Reads the last written state of a chunk (§4.5). The chunk's
    /// descriptor is found through the chunk map under the engine lock;
    /// the version is then read, decrypted and checked against it with the
    /// lock released, so readers overlap their I/O and crypto with each
    /// other and with mutations. Off the lock, a failure is no verdict: a
    /// commit or the cleaner may have moved the version meanwhile, so the
    /// read is retried under the lock, and only that retry may report
    /// tampering.
    ///
    /// # Errors
    ///
    /// Signals if the chunk is not written, and tamper detection if
    /// validation fails.
    pub fn read(&self, id: ChunkId) -> Result<Vec<u8>> {
        let _t = metrics::span(modules::CHUNK_STORE);
        let (desc, crypto) = {
            let mut inner = self.inner.lock();
            inner.check_readable()?;
            let (desc, crypto) = inner.locate(id)?;
            self.publish_crypto(id.partition, &crypto);
            (desc, crypto)
        };
        let mut buf = vec![0u8; desc.vlen as usize];
        let read = {
            let _t = metrics::span(modules::UNTRUSTED_READ);
            self.device.read_at(desc.location, &mut buf)
        };
        if read.is_ok() {
            if let Ok(body) = validate_version(&self.system, &crypto, id, &desc, &buf) {
                return Ok(body);
            }
        }
        let mut inner = self.inner.lock();
        inner.check_readable()?;
        inner.read_chunk(id)
    }

    /// Records `crypto` as `p`'s in the table [`ChunkStore::seal_early`]
    /// reads. Called with the engine lock held, so a table entry is never
    /// older than the last batch that emptied it.
    fn publish_crypto(&self, p: PartitionId, crypto: &Arc<PartitionCrypto>) {
        let current = (self.cryptos.read().get(&p)).is_some_and(|c| Arc::ptr_eq(c, crypto));
        if !current {
            self.cryptos.write().insert(p, Arc::clone(crypto));
        }
    }

    /// Brings the crypto table up to date after a batch, under the engine
    /// lock: a batch that deallocated a partition empties it (the ids and
    /// keys may be reused), and each partition the batch wrote or created
    /// that still exists is published, so its next writes seal early.
    pub(crate) fn publish_cryptos(
        &self,
        inner: &mut Inner,
        written: &[PartitionId],
        deallocated: bool,
    ) {
        if deallocated {
            self.cryptos.write().clear();
        }
        for p in written {
            if let Ok(crypto) = inner.crypto_for(*p) {
                self.publish_crypto(*p, &crypto);
            }
        }
    }

    /// Atomically applies a group of operations (§4.1 `Commit`).
    ///
    /// # Errors
    ///
    /// Validation errors leave the store unchanged and live. A storage
    /// failure mid-commit rolls the in-memory state back to the savepoint
    /// taken after validation (this batch member's, or the batch's last
    /// durable point once bytes reached the device); if any bytes had
    /// already reached the log the store drops to read-only degraded mode
    /// until it is reopened (see [`StoreHealth::Degraded`]), otherwise it
    /// stays live. Only integrity violations poison the store.
    pub fn commit(&self, ops: Vec<CommitOp>) -> Result<()> {
        self.commit_many(vec![ops])
            .pop()
            .expect("one result per op set")
    }

    /// Applies several independent op sets, returning each one's own
    /// result in order. Each set is a commit of its own — atomic alone,
    /// never together with its neighbours, with the failure semantics of
    /// [`ChunkStore::commit`] — but they are enqueued as adjacent members
    /// of one group-commit batch: one coalesced append and one flush for
    /// all of them. The caller's thread hashes and seals the sets' writes
    /// first, before it queues or takes the engine lock.
    pub fn commit_many(&self, sets: Vec<Vec<CommitOp>>) -> Vec<Result<()>> {
        let _t = metrics::span(modules::CHUNK_STORE);
        let sealed = self.seal_early(&sets);
        self.commit_batched(sets, sealed)
    }

    /// Hashes and seals the writes of `sets` on the caller's thread, before
    /// it queues or takes the engine lock, in one pipeline pass (so a burst
    /// or a bulk load enciphers its bodies as lanes of one kernel call)
    /// under the partition crypto last published to the crypto table. A
    /// write whose partition's crypto is not published, or is created
    /// earlier in its own set, is left for the engine to seal under its
    /// lock.
    pub(crate) fn seal_early(&self, sets: &[Vec<CommitOp>]) -> Vec<Seals> {
        let mut out: Vec<Seals> = sets
            .iter()
            .map(|ops| ops.iter().map(|_| None).collect())
            .collect();
        let (mut jobs, mut slots) = (Vec::new(), Vec::new());
        for (m, ops) in sets.iter().enumerate() {
            let mut created = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                match op {
                    CommitOp::CreatePartition { id, .. }
                    | CommitOp::CopyPartition { dst: id, .. } => {
                        created.push(*id);
                    }
                    CommitOp::WriteChunk { id, bytes } if !created.contains(&id.partition) => {
                        if let Some(crypto) = self.cryptos.read().get(&id.partition) {
                            jobs.push((*id, Arc::clone(crypto), bytes.as_slice()));
                            slots.push((m, i));
                        }
                    }
                    _ => {}
                }
            }
        }
        let sealed = pipeline::seal_batch(&self.system, VersionKind::Named, &jobs);
        for ((m, i), pre) in slots.into_iter().zip(sealed) {
            out[m][i] = Some(pre);
        }
        out
    }

    /// Forces a checkpoint (§4.7), consolidating buffered chunk-map updates.
    /// It rewrites map chunks and leaders but no data chunk's version, so a
    /// read validating off the lock meanwhile still finds its bytes.
    ///
    /// # Errors
    ///
    /// A storage failure rolls back and degrades or stays live exactly as
    /// in [`ChunkStore::commit`]; integrity violations poison.
    pub fn checkpoint(&self) -> Result<()> {
        let _t = metrics::span(modules::CHUNK_STORE);
        let mut inner = self.inner.lock();
        inner.check_writable()?;
        inner.checkpoint()
    }

    /// Runs the log cleaner over up to `max_segments` segments (§4.9.5),
    /// returning how many were reclaimed. A pass only takes segments whose
    /// relocation gains space, so `Ok(0)` on a log full of live data.
    ///
    /// # Errors
    ///
    /// A storage failure rolls back and degrades or stays live exactly as
    /// in [`ChunkStore::commit`]; revalidation failures signal tamper and
    /// poison the store.
    pub fn clean(&self, max_segments: usize) -> Result<usize> {
        let _t = metrics::span(modules::CHUNK_STORE);
        let mut inner = self.inner.lock();
        inner.check_writable()?;
        inner.clean(max_segments)
    }

    /// Chunk positions whose state differs between two partitions (§5.1
    /// `Diff`). Commonly both are snapshots of the same partition.
    ///
    /// # Errors
    ///
    /// Fails if either partition does not exist.
    pub fn diff(&self, old: PartitionId, new: PartitionId) -> Result<Vec<DiffEntry>> {
        let _t = metrics::span(modules::CHUNK_STORE);
        let mut inner = self.inner.lock();
        inner.check_readable()?;
        inner.diff(old, new)
    }

    /// The written data-chunk ranks of a partition, ascending (used by full
    /// backups and integrity sweeps).
    ///
    /// # Errors
    ///
    /// Fails if the partition does not exist.
    pub fn written_ranks(&self, partition: PartitionId) -> Result<Vec<u64>> {
        let _t = metrics::span(modules::CHUNK_STORE);
        let mut inner = self.inner.lock();
        inner.check_readable()?;
        inner.written_ranks(partition)
    }

    /// The cryptographic parameters of a partition (cipher and hash kinds
    /// only; the key is not exposed).
    ///
    /// # Errors
    ///
    /// Fails if the partition does not exist.
    pub fn partition_kinds(
        &self,
        partition: PartitionId,
    ) -> Result<(tdb_crypto::CipherKind, tdb_crypto::HashKind)> {
        let mut inner = self.inner.lock();
        inner.check_readable()?;
        let entry = inner.leader_entry(partition)?;
        Ok((entry.leader.params.cipher, entry.leader.params.hash))
    }

    /// Whether `partition` currently exists (is written).
    ///
    /// # Errors
    ///
    /// Fails if the store is poisoned, or if the partition's leader cannot
    /// be read or fails validation: a leader in doubt is never taken for a
    /// free id.
    pub fn partition_exists(&self, partition: PartitionId) -> Result<bool> {
        let mut inner = self.inner.lock();
        inner.check_readable()?;
        inner.partition_exists(partition)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ChunkStoreStats {
        let inner = self.inner.lock();
        let mut stats = inner.stats;
        let (appends, runs, bytes) = inner.log.coalesce_counters();
        stats.log_coalesced_bytes = bytes;
        stats.log_writes_coalesced = appends.saturating_sub(runs);
        stats.lazy_hash_hits = inner.map_cache.trees.hits;
        stats.lazy_hash_recomputes = inner.map_cache.trees.recomputes;
        stats.lazy_invalidations = inner.map_cache.trees.invalidations;
        stats
    }

    /// Current health: live, degraded (read-only), or poisoned.
    pub fn health(&self) -> StoreHealth {
        self.inner.lock().health.clone()
    }

    /// Total bytes the store occupies (superblock + all segments).
    pub fn stored_size(&self) -> u64 {
        let inner = self.inner.lock();
        crate::log::SEGMENT_BASE
            + u64::from(inner.sys_leader.log.num_segments)
                * u64::from(inner.sys_leader.log.segment_size)
    }

    /// Live (current-version) bytes per segment, for space experiments.
    pub fn utilization(&self) -> Vec<u32> {
        self.inner.lock().sys_leader.log.utilization.clone()
    }

    /// Checkpoints and flushes; call before dropping for a clean shutdown.
    ///
    /// # Errors
    ///
    /// Fails like [`ChunkStore::checkpoint`].
    pub fn close(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.check_writable()?;
        inner.checkpoint()
    }

    /// Runs `f` with the engine lock held (crate-internal escape hatch for
    /// the backup store).
    pub(crate) fn with_inner<R>(&self, f: impl FnOnce(&mut Inner) -> Result<R>) -> Result<R> {
        let mut inner = self.inner.lock();
        inner.check_readable()?;
        f(&mut inner)
    }
}

impl Inner {
    /// A live engine over `log` in the state `sys_leader` records, nothing
    /// cached or counted yet: where creating and opening a store start.
    pub(crate) fn new(
        config: ChunkStoreConfig,
        system: Arc<PartitionCrypto>,
        trusted: TrustedBackend,
        log: SegmentedLog,
        sys_leader: SystemLeader,
        superblock: Superblock,
    ) -> Inner {
        Inner {
            map_cache: MapCache::new(config.map_cache_capacity),
            hashes: LogHashes::new(
                config.system_hash,
                config.validation == ValidationMode::DirectHash,
            ),
            config,
            system,
            trusted,
            log,
            sys_ranks: Ranks::new(&sys_leader.map),
            sys_leader,
            leaders: HashMap::new(),
            commit_count: 0,
            trusted_count: 0,
            leader_version: None,
            superblock,
            stats: ChunkStoreStats::default(),
            health: StoreHealth::Live,
            wrote_log: false,
            undo: Journal::new(),
            bodies_sealed_under_lock: 0,
            cleaning: false,
            reserve_refused: false,
            cleaned: Vec::new(),
        }
    }

    /// Gate for mutating operations: only a live store may mutate.
    pub(crate) fn check_writable(&self) -> Result<()> {
        match &self.health {
            StoreHealth::Live => Ok(()),
            StoreHealth::Degraded { reason } => Err(CoreError::DegradedMode(reason.clone())),
            StoreHealth::Poisoned { reason } => Err(CoreError::Poisoned(reason.clone())),
        }
    }

    /// Gate for read-only operations: reads stay available in degraded
    /// mode (every read is still validated through the map tree), and are
    /// refused only once integrity is in doubt.
    pub(crate) fn check_readable(&self) -> Result<()> {
        match &self.health {
            StoreHealth::Poisoned { reason } => Err(CoreError::Poisoned(reason.clone())),
            _ => Ok(()),
        }
    }

    pub(crate) fn enter_degraded(&mut self, reason: String) {
        if self.health.is_poisoned() {
            return;
        }
        self.stats.degraded_entries += 1;
        self.health = StoreHealth::Degraded { reason };
    }

    pub(crate) fn enter_poisoned(&mut self, reason: String) {
        self.stats.poison_events += 1;
        self.health = StoreHealth::Poisoned { reason };
    }

    pub(crate) fn fanout(&self) -> u64 {
        u64::from(self.config.fanout)
    }
}

impl ChunkStore {
    /// Test-only descriptor peek (debug builds).
    #[doc(hidden)]
    pub fn debug_descriptor(&self, id: ChunkId) -> Result<Descriptor> {
        let mut inner = self.inner.lock();
        inner.get_descriptor(id)
    }

    /// Test-only: segment utilization recounted from the maps, to hold
    /// [`ChunkStore::utilization`] against.
    #[doc(hidden)]
    pub fn debug_recount_utilization(&self) -> Result<Vec<u32>> {
        self.with_inner(Inner::recount_utilization)
    }

    /// Test-only: what the undo journals have captured since open.
    #[doc(hidden)]
    pub fn debug_undo_counters(&self) -> UndoCounters {
        self.inner.lock().undo_counters()
    }

    /// Test-only: `WriteChunk` bodies the engine hashed and sealed under its
    /// lock because the committer's early seal was missing or stale.
    #[doc(hidden)]
    pub fn debug_bodies_sealed_under_lock(&self) -> u64 {
        self.inner.lock().bodies_sealed_under_lock
    }

    /// Test-only: a bounded log's free segments (headroom to
    /// `max_segments` plus the free list) and its cleaner reserve now.
    #[doc(hidden)]
    pub fn debug_free_and_reserve(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.free_segments(), inner.cleaner_reserve())
    }

    /// Test-only: `p`'s lowest rank never allocated and its free ranks, as
    /// its leader persists them and as the session hands them out.
    #[doc(hidden)]
    pub fn debug_ranks(&self, p: PartitionId) -> Result<[(u64, BTreeSet<u64>); 2]> {
        self.with_inner(|inner| {
            let (leader, ranks) = if p.is_system() {
                (&inner.sys_leader.map, &inner.sys_ranks)
            } else {
                inner.leader_entry(p).map(|e| (&e.leader, &e.ranks))?
            };
            let (next, free) = ranks.session();
            let set = |free: &[u64]| free.iter().copied().collect();
            Ok([
                (leader.next_rank, set(&leader.free_ranks)),
                (next, set(free)),
            ])
        })
    }

    /// Test-only: segments the residual log spans, the tail's included.
    #[doc(hidden)]
    pub fn debug_residual_segments(&self) -> usize {
        self.inner.lock().log.residual_segments().len()
    }

    /// Test-only: drops every cached slot tree, so the next root or proof
    /// query recomputes the whole dirty tree — the paper's eager
    /// recompute, which the cached trees are tested against.
    #[doc(hidden)]
    pub fn debug_forget_integrity_memo(&self) {
        self.inner.lock().map_cache.drop_trees();
    }
}
