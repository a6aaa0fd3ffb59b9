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
//! and the log cleaner (`engine::maintenance`). The optional background
//! maintenance runtime is the private `maintenance` module.
//!
//! Concurrency: "serializability of operations is provided through mutual
//! exclusion, which does not overlap I/O and computation, but is simple and
//! acceptable when concurrency is low" (§4.2) — a single mutex around the
//! whole engine.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use tdb_crypto::SecretKey;
use tdb_storage::{MonotonicCounter, SharedUntrusted, TrustedStore};

use crate::batcher::CommitBatcher;
use crate::cache::MapCache;
use crate::descriptor::Descriptor;
use crate::engine::rollback::Undo;
use crate::errors::{CoreError, Result};
use crate::ids::{ChunkId, PartitionId};
use crate::leader::SystemLeader;
use crate::log::{LogHashes, SegmentedLog, Superblock};
use crate::maintenance::{MaintenanceService, MaintenanceShared};
use crate::metrics::{self, modules};
use crate::params::{CryptoParams, PartitionCrypto};
use crate::pipeline::{self, Seals};
use crate::readpath::ReadPath;
use crate::undo::{Journal, UndoCounters};

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
    /// When true the cleaner decrypts, revalidates, and re-hashes the
    /// chunks it moves (the variant the paper implemented, §4.9.5).
    pub cleaner_revalidates: bool,
    /// Hard cap on segments (0 = unbounded).
    pub max_segments: u32,
    /// System-partition cipher and hash (the paper fixes 3DES + SHA-1).
    pub system_cipher: tdb_crypto::CipherKind,
    /// System-partition hash.
    pub system_hash: tdb_crypto::HashKind,
    /// Threads that share the hash+seal work of one large batch — a bulk
    /// commit, a server connection's burst, a full checkpoint level — the
    /// committing thread included. `0` means auto (available parallelism,
    /// capped at 8); `1` seals everything on the committing thread. A
    /// batch under 64 KB of plaintext is sealed on the committing thread
    /// whatever this says: a thread spawn costs more than it would save.
    pub crypto_workers: usize,
    /// Run cleaning and threshold checkpoints on a background maintenance
    /// thread (the `maintenance` module) instead of inside commits and
    /// explicit [`ChunkStore::clean`] calls. `false` (the default)
    /// reproduces the paper's caller-driven behavior exactly.
    pub background_maintenance: bool,
    /// Segments the background cleaner processes per engine-lock hold
    /// (one *slice*); between slices the lock is released so committers
    /// interleave. Ignored without `background_maintenance`.
    pub clean_slice_segments: usize,
    /// Free-segment low-water mark of a bounded log: below it, committers
    /// are throttled (bounded wait) until the background cleaner frees
    /// space. `0` disables throttling.
    pub clean_low_water: u32,
    /// Free-segment high-water mark of a bounded log: the background
    /// cleaner runs while free segments are below it.
    pub clean_high_water: u32,
    /// Transparent chunk-body compression ([`crate::compress`]): data-chunk
    /// bodies are LZ77-compressed *before* hashing and sealing, so the
    /// descriptor hash covers the stored bytes and every read verifies
    /// integrity before the decompressor runs. Incompressible bodies are
    /// stored raw with zero overhead. Map chunks, leaders, and unnamed
    /// records stay uncompressed (their bytes are the Merkle tree's proof
    /// preimages and recovery's decode inputs). `false` (the default)
    /// reproduces the paper's byte-exact device-op shape.
    pub compression: bool,
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
            cleaner_revalidates: true,
            max_segments: 0,
            system_cipher: tdb_crypto::CipherKind::TripleDes,
            system_hash: tdb_crypto::HashKind::Sha1,
            crypto_workers: 0,
            background_maintenance: false,
            clean_slice_segments: 2,
            clean_low_water: 2,
            clean_high_water: 4,
            compression: false,
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
    /// Bounded cleaning slices run by the background maintenance thread.
    pub clean_slices: u64,
    /// Times the background maintenance thread woke and ran a pass.
    pub maintenance_wakeups: u64,
    /// Commits that hit the low-water admission gate and waited for the
    /// cleaner.
    pub commit_throttle_waits: u64,
    /// Bytes appended to the log.
    pub bytes_appended: u64,
    /// Times this store entered read-only degraded mode.
    pub degraded_entries: u64,
    /// Times this store hard-poisoned on an integrity violation.
    pub poison_events: u64,
    /// [`ChunkStore::try_heal`] attempts.
    pub heal_attempts: u64,
    /// Successful heals (degraded back to live).
    pub heals: u64,
    /// Reads served by the sharded fast path without the engine lock.
    pub read_fast_hits: u64,
    /// Reads served by the engine-locked fallback path.
    pub read_fallbacks: u64,
    /// Fast reads that found their shard write-locked and had to block.
    pub read_shard_contention: u64,
    /// Commit/checkpoint batches large enough that their hash+seal work
    /// was shared with helper threads.
    pub parallel_crypto_batches: u64,
    /// Chunks sealed by those parallel batches.
    pub parallel_crypto_chunks: u64,
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
    /// Effective-subtree-hash lookups served from the lazy-integrity memo
    /// (no re-encode, no re-hash).
    pub lazy_hash_hits: u64,
    /// Effective-subtree-hash lookups that recomputed and filled the memo.
    pub lazy_hash_recomputes: u64,
    /// Lazy-integrity memo entries dropped by spine or partition
    /// invalidation (descriptor writes, growth, dealloc, restore).
    pub lazy_invalidations: u64,
    /// Bodies stored as compressed envelopes (the knob on and the
    /// savings above the store-raw threshold).
    pub bodies_compressed: u64,
    /// Bodies the compression knob examined but stored raw (too small or
    /// savings below the threshold).
    pub bodies_stored_raw: u64,
    /// Sealed log bytes saved by compression: the raw sealed size each
    /// compressed body would have had, minus the size actually appended.
    pub log_bytes_saved: u64,
    /// Fast-path reads that failed to decompress a hash-verified body and
    /// fell back to the engine-locked path (anomaly accounting; the locked
    /// path alone judges integrity).
    pub decompress_fallbacks: u64,
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
    /// rejected until [`ChunkStore::try_heal`] succeeds or the store is
    /// reopened.
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
    /// Session allocation state for the system partition (partition ids).
    pub sys_alloc_next: u64,
    pub sys_alloc_free: Vec<u64>,
    /// Session-allocated (unwritten) partition-leader ranks.
    pub sys_reserved: std::collections::HashSet<u64>,
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
    /// Dirty-tree accumulator for lazy Merkle materialization.
    pub lazy: crate::engine::dirty::DirtyTreeAccumulator,
    /// Undo journal for engine state outside the map cache, open while a
    /// mutation can still roll back (see [`crate::engine::rollback`]).
    pub undo: Journal<Undo>,
    /// `WriteChunk` bodies hashed and sealed under the engine lock because
    /// their committer's early seal was missing or stale.
    pub bodies_sealed_under_lock: u64,
}

/// The read-path entries a commit can change, collected before its ops
/// are consumed: the chunk ids it writes or deallocates — or every entry,
/// when it deallocates a partition (its ids may be reused) — and the
/// partitions it creates, whose crypto it publishes.
pub(crate) struct Touched {
    ids: Vec<ChunkId>,
    created: Vec<PartitionId>,
    all: bool,
}

impl Touched {
    pub(crate) fn of(ops: &[CommitOp]) -> Touched {
        let mut touched = Touched {
            ids: Vec::new(),
            created: Vec::new(),
            all: false,
        };
        for op in ops {
            match op {
                CommitOp::WriteChunk { id, .. } | CommitOp::DeallocChunk { id } => {
                    touched.ids.push(*id);
                }
                CommitOp::DeallocPartition { .. } => touched.all = true,
                CommitOp::CreatePartition { id, .. } | CommitOp::CopyPartition { dst: id, .. } => {
                    touched.created.push(*id);
                }
            }
        }
        touched
    }
}

/// The sharable core of a chunk store: the engine behind its mutex, the
/// lock-free read path, the group-commit coordinator, and the maintenance
/// rendezvous state. The facade and the background maintenance thread each
/// hold an `Arc` of this. Public only because it is [`ChunkStore`]'s
/// `Deref` target; every field and method is crate-private.
#[doc(hidden)]
pub struct StoreCore {
    pub(crate) inner: Mutex<Inner>,
    pub(crate) reads: ReadPath,
    /// Group-commit coordinator, the only way into the commit path.
    pub(crate) batcher: CommitBatcher,
    /// Shared state of the background maintenance runtime (present even
    /// when disabled; the flags inside make everything a no-op then).
    pub(crate) maint: MaintenanceShared,
    /// `crypto_workers` and `compression`, which committers seal with.
    seal_config: (usize, bool),
    /// Batches and chunks committers sealed on more than one thread.
    early_fan_outs: (AtomicU64, AtomicU64),
}

/// The trusted chunk store.
///
/// Mutations are serialized behind one lock, per the paper's simple
/// mutual-exclusion concurrency model, but a committer hashes and seals
/// its own writes before it takes that lock: a sealed version is
/// location-independent, and the engine re-checks each early seal against
/// the partition's current crypto. Reads additionally take a sharded fast
/// path (the `readpath` module) that serves validated chunks without the
/// engine lock; any miss or anomaly falls back to the locked path.
pub struct ChunkStore {
    /// Background maintenance thread; declared before `core` so shutdown
    /// and join happen before the facade's core reference goes away.
    maintenance: Option<MaintenanceService>,
    core: Arc<StoreCore>,
}

impl std::ops::Deref for ChunkStore {
    type Target = StoreCore;

    fn deref(&self) -> &StoreCore {
        &self.core
    }
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
        let sys_params = CryptoParams {
            cipher: config.system_cipher,
            hash: config.system_hash,
            key: secret,
        };
        let system = Arc::new(sys_params.runtime()?);
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
        let hashes = LogHashes::new(
            config.system_hash,
            config.validation == ValidationMode::DirectHash,
        );
        // Continue from any pre-existing trusted counter so reformatting a
        // platform with a used (non-decrementable) counter still works.
        let base_count = match (&config.validation, &trusted) {
            (ValidationMode::Counter { .. }, TrustedBackend::Counter(c)) => c.get()?,
            _ => 0,
        };
        let mut inner = Inner {
            map_cache: MapCache::new(config.map_cache_capacity),
            lazy: crate::engine::dirty::DirtyTreeAccumulator::default(),
            config,
            system,
            trusted,
            log,
            hashes,
            sys_alloc_next: sys_leader.map.next_rank,
            sys_alloc_free: sys_leader.map.free_ranks.clone(),
            sys_reserved: std::collections::HashSet::new(),
            sys_leader,
            leaders: HashMap::new(),
            commit_count: base_count,
            trusted_count: base_count,
            leader_version: None,
            superblock: Superblock {
                epoch: 0,
                current_leader: 0,
                prev_leader: 0,
            },
            stats: ChunkStoreStats::default(),
            health: StoreHealth::Live,
            wrote_log: false,
            undo: Journal::new(),
            bodies_sealed_under_lock: 0,
        };
        // The initial checkpoint materializes the empty database: leader,
        // commit chunk / trusted hash, and superblock.
        inner.checkpoint()?;
        Ok(ChunkStore::assemble(inner))
    }

    /// Wraps a fully built engine with its concurrent read path and (when
    /// configured) the background maintenance thread.
    fn assemble(inner: Inner) -> ChunkStore {
        let reads = ReadPath::new(Arc::clone(inner.log.store()), Arc::clone(&inner.system));
        reads.set_health(&inner.health);
        let maint = MaintenanceShared::new(&inner.config);
        let seal_config = (inner.config.crypto_workers, inner.config.compression);
        let background = inner.config.background_maintenance;
        let core = Arc::new(StoreCore {
            inner: Mutex::new(inner),
            reads,
            batcher: CommitBatcher::new(),
            maint,
            seal_config,
            early_fan_outs: (AtomicU64::new(0), AtomicU64::new(0)),
        });
        {
            // Seed the maintenance mirrors from the freshly built engine.
            let inner = core.inner.lock();
            core.note_engine_state(&inner);
        }
        let maintenance = if background {
            Some(MaintenanceService::spawn(Arc::clone(&core)))
        } else {
            None
        };
        ChunkStore { maintenance, core }
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

    /// Reads the last written state of a chunk, locating and validating it
    /// through the chunk map (§4.5).
    ///
    /// # Errors
    ///
    /// Signals if the chunk is not written, and tamper detection if
    /// validation fails.
    pub fn read(&self, id: ChunkId) -> Result<Vec<u8>> {
        let _t = metrics::span(modules::CHUNK_STORE);
        // Fast path: a published descriptor and a device read, no engine
        // lock. Any miss or anomaly (including benign races with the
        // cleaner) falls through to the authoritative locked path below.
        if let Some(body) = self.reads.try_fast(id) {
            return Ok(body);
        }
        let mut inner = self.inner.lock();
        inner.check_readable()?;
        let body = inner.read_chunk(id)?;
        self.reads.note_fallback();
        // Publish for future fast reads while the engine lock is still
        // held, so the published descriptor is current at this instant.
        if let (Ok(desc), Ok(crypto)) = (inner.get_descriptor(id), inner.crypto_for(id.partition)) {
            self.reads.publish(id, desc, &crypto);
        }
        Ok(body)
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
    /// (see [`ChunkStore::try_heal`]), otherwise it stays live. Only
    /// integrity violations poison the store.
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
        // Under background maintenance, a bounded log below its low-water
        // mark throttles committers here (bounded wait) before they take
        // the engine lock.
        self.admission_gate();
        let sealed = self.seal_early(&sets);
        self.commit_batched(sets, sealed)
    }

    /// Hashes and seals the writes of `sets` on the caller's thread, before
    /// it queues or takes the engine lock, in one pipeline pass (so a burst
    /// or a bulk load still fans out by its bytes) under the partition
    /// crypto the read path has published. A write whose partition's crypto
    /// is not published, or is created earlier in its own set, is left for
    /// the engine to seal under its lock.
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
                        if let Some(crypto) = self.reads.crypto(id.partition) {
                            jobs.push((*id, crypto, bytes.as_slice()));
                            slots.push((m, i));
                        }
                    }
                    _ => {}
                }
            }
        }
        let (workers, compress) = self.seal_config;
        let (sealed, fanned_out) =
            pipeline::seal_batch(&self.reads.system, &jobs, workers, compress);
        if fanned_out {
            self.early_fan_outs.0.fetch_add(1, Ordering::Relaxed);
            self.early_fan_outs
                .1
                .fetch_add(sealed.len() as u64, Ordering::Relaxed);
        }
        for ((m, i), pre) in slots.into_iter().zip(sealed) {
            out[m][i] = Some(pre);
        }
        out
    }

    /// Brings the read path up to date after a commit attempt, under the
    /// engine lock so published descriptors are current. Touched entries
    /// are scrubbed on every outcome — a commit can be durably applied
    /// even when its result is an error (e.g. the follow-on checkpoint
    /// failed), so touched ids never survive an attempt — and a
    /// successful commit republishes their new descriptors and the crypto
    /// of the partitions it created, so their first writes seal early too.
    pub(crate) fn scrub_and_publish(
        &self,
        inner: &mut Inner,
        touched: &Touched,
        result: &Result<()>,
    ) {
        if touched.all {
            self.reads.clear_all();
        } else {
            for id in &touched.ids {
                self.reads.invalidate(*id);
            }
        }
        if result.is_ok() {
            for p in &touched.created {
                if let Ok(crypto) = inner.crypto_for(*p) {
                    self.reads.publish_crypto(*p, &crypto);
                }
            }
            for id in &touched.ids {
                if let (Ok(desc), Ok(crypto)) =
                    (inner.get_descriptor(*id), inner.crypto_for(id.partition))
                {
                    self.reads.publish(*id, desc, &crypto);
                }
            }
        }
    }

    /// Forces a checkpoint (§4.7), consolidating buffered chunk-map updates.
    ///
    /// # Errors
    ///
    /// A storage failure rolls back and degrades or stays live exactly as
    /// in [`ChunkStore::commit`]; integrity violations poison.
    pub fn checkpoint(&self) -> Result<()> {
        let _t = metrics::span(modules::CHUNK_STORE);
        let mut inner = self.inner.lock();
        inner.check_writable()?;
        // A checkpoint rewrites map chunks and leaders but never changes a
        // data chunk's state, so published shard entries stay valid.
        let result = inner.checkpoint();
        self.reads.set_health(&inner.health);
        self.note_engine_state(&inner);
        result
    }

    /// Runs the log cleaner over up to `max_segments` segments (§4.9.5),
    /// returning how many were reclaimed.
    ///
    /// # Errors
    ///
    /// A storage failure rolls back and degrades or stays live exactly as
    /// in [`ChunkStore::commit`]; revalidation failures signal tamper and
    /// poison the store.
    pub fn clean(&self, max_segments: usize) -> Result<usize> {
        let _t = metrics::span(modules::CHUNK_STORE);
        self.clean_locked(max_segments, false)
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
    pub fn partition_exists(&self, partition: PartitionId) -> bool {
        let mut inner = self.inner.lock();
        if inner.check_readable().is_err() {
            return false;
        }
        inner.leader_entry(partition).is_ok()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ChunkStoreStats {
        let mut stats = {
            let inner = self.inner.lock();
            let mut stats = inner.stats;
            let (appends, runs, bytes) = inner.log.coalesce_counters();
            stats.log_coalesced_bytes = bytes;
            stats.log_writes_coalesced = appends.saturating_sub(runs);
            stats.lazy_hash_hits = inner.lazy.hits;
            stats.lazy_hash_recomputes = inner.lazy.recomputes;
            stats.lazy_invalidations = inner.lazy.invalidations;
            stats
        };
        stats.parallel_crypto_batches += self.early_fan_outs.0.load(Ordering::Relaxed);
        stats.parallel_crypto_chunks += self.early_fan_outs.1.load(Ordering::Relaxed);
        let (hits, fallbacks, contention, decompress_fallbacks) = self.reads.counters();
        stats.read_fast_hits = hits;
        stats.read_fallbacks = fallbacks;
        stats.read_shard_contention = contention;
        stats.decompress_fallbacks = decompress_fallbacks;
        stats.maintenance_wakeups = self.maint.wakeups.load(Ordering::Relaxed);
        stats.commit_throttle_waits = self.maint.throttle_waits.load(Ordering::Relaxed);
        stats
    }

    /// Current health: live, degraded (read-only), or poisoned.
    pub fn health(&self) -> StoreHealth {
        self.inner.lock().health.clone()
    }

    /// Whether this store runs the background maintenance thread.
    pub fn background_maintenance(&self) -> bool {
        self.maintenance.is_some()
    }

    /// Lock-free estimate of the bounded log's free segments (headroom to
    /// `max_segments` plus the free list), or `None` when the log is
    /// unbounded. Callers running their own maintenance poll this to
    /// decide when to checkpoint and clean — waiting for a commit to fail
    /// with [`CoreError::OutOfSpace`]
    /// is too late: a completely full log has no room left to relocate
    /// live versions into.
    pub fn free_segment_estimate(&self) -> Option<u64> {
        self.maint.free_segments_if_bounded()
    }

    /// Drops every cached descriptor from the read shards (partition
    /// crypto handles are kept). Until the shards re-warm, reads fall back
    /// to the locked path, which walks the chunk map. For tests and
    /// benchmarks that need every read to resolve its descriptor afresh,
    /// and for callers shedding memory.
    pub fn drop_read_cache(&self) {
        self.reads.clear_shards();
    }

    /// Attempts to return a degraded store to live service without the
    /// full reopen-and-revalidate path: the region between the validated
    /// log tail and the end of the tail segment (where a failed mutation
    /// may have left torn bytes) is scrubbed to zero and read back. On
    /// success the store is live again; the in-memory state was already
    /// rolled back to the last successful mutation when degradation was
    /// entered.
    ///
    /// A no-op on a live store.
    ///
    /// # Errors
    ///
    /// Fails if the store is poisoned (reopen instead) or the device still
    /// refuses I/O — the store stays degraded and the call can be retried.
    pub fn try_heal(&self) -> Result<()> {
        let _t = metrics::span(modules::CHUNK_STORE);
        let mut inner = self.inner.lock();
        let result = inner.try_heal();
        self.reads.set_health(&inner.health);
        result
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
        let result = inner.checkpoint();
        self.reads.set_health(&inner.health);
        self.note_engine_state(&inner);
        result
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

    /// Fast-path repair of a degraded store: instead of a full reopen
    /// (which replays and revalidates the whole residual log), scrub the
    /// possibly-torn region between the validated tail and the end of the
    /// tail segment, verify the device takes writes again, and go live.
    fn try_heal(&mut self) -> Result<()> {
        match &self.health {
            StoreHealth::Live => return Ok(()),
            StoreHealth::Poisoned { reason } => return Err(CoreError::Poisoned(reason.clone())),
            StoreHealth::Degraded { .. } => {}
        }
        self.stats.heal_attempts += 1;
        // Scrubbing drops the durable-but-unacknowledged log suffix. In
        // counter mode that is only sound while the trusted counter has not
        // already counted that suffix: with the counter ahead of the
        // rolled-back commit count, dropping it would make the next
        // validation read as a replay (§4.8.2.2). Such a store needs the
        // full reopen, which *adopts* the suffix by rolling forward.
        if let TrustedBackend::Counter(c) = &self.trusted {
            let actual = {
                let _t = metrics::span(modules::TRUSTED_STORE);
                c.get()?
            };
            if actual > self.commit_count {
                return Err(CoreError::DegradedMode(format!(
                    "trusted counter ({actual}) is ahead of the rolled-back \
                     commit count ({}); reopen to roll the log forward",
                    self.commit_count
                )));
            }
        }
        let tail = self.log.tail_location();
        let seg_start = self.log.segment_offset(self.log.tail_segment());
        let scrub_len = (u64::from(self.log.segment_size()) - (tail - seg_start)) as usize;
        if scrub_len > 0 {
            let store = Arc::clone(self.log.store());
            let zeros = vec![0u8; scrub_len];
            store.write_at(tail, &zeros)?;
            store.flush()?;
            let mut back = vec![0u8; scrub_len];
            store.read_at(tail, &mut back)?;
            if back.iter().any(|b| *b != 0) {
                return Err(CoreError::Corrupt(
                    "tail scrub read-back mismatch; device unreliable".into(),
                ));
            }
        }
        self.health = StoreHealth::Live;
        self.stats.heals += 1;
        Ok(())
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

    /// Test-only: segments the residual log spans, the tail's included.
    #[doc(hidden)]
    pub fn debug_residual_segments(&self) -> usize {
        self.inner.lock().log.residual_segments().len()
    }

    /// Test-only: drops every memoized effective subtree hash, so the next
    /// root or proof query recomputes the whole dirty tree — the paper's
    /// eager recompute, which the memo is tested against.
    #[doc(hidden)]
    pub fn debug_forget_integrity_memo(&self) {
        self.inner.lock().lazy.clear();
    }
}
