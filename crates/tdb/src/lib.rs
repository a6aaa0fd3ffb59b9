#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # TDB — a trusted database system on untrusted storage
//!
//! A from-scratch Rust reproduction of *"How to Build a Trusted Database
//! System on Untrusted Storage"* (Maheshwari, Vingralek, Shapiro — OSDI
//! 2000). TDB leverages a trusted processing environment and a small amount
//! of trusted storage (a secret key plus a tamper-resistant register or a
//! monotonic counter) to extend **secrecy** and **tamper detection** to a
//! scalable amount of untrusted storage.
//!
//! The database is encrypted and validated against a collision-resistant
//! hash tree embedded in the location map of a log-structured store, so
//! untrusted programs cannot read the database or modify it undetectably —
//! including replaying an old copy.
//!
//! ## Layers (paper Figure 2)
//!
//! - [`tdb_core::ChunkStore`] — trusted storage of named chunks in
//!   partitions with per-partition cryptography; atomic commits,
//!   checkpoints, crash recovery, log cleaning, copy-on-write snapshots.
//! - [`tdb_core::BackupStore`] — full/incremental backup sets on archival
//!   storage, restored under chain/completeness/policy constraints.
//! - [`tdb_object::ObjectStore`] — typed, pickled objects with
//!   transactional two-phase locking and an object cache.
//! - [`tdb_collection::CollectionStore`] — collections with dynamically
//!   maintained functional indexes (sorted and unsorted).
//!
//! [`TrustedDb`] assembles all four behind one handle.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use tdb::{TrustedDb, TrustedDbBuilder};
//! use tdb_storage::{MemArchive, MemStore, MemTrustedStore, CounterOverTrusted};
//! use tdb_crypto::SecretKey;
//!
//! let db = TrustedDbBuilder::new()
//!     .secret(SecretKey::random(24))
//!     .build_in_memory()
//!     .unwrap();
//!
//! // Objects are defined by the application; see `examples/` for a full
//! // schema. Raw chunk access works immediately:
//! let chunk = db.chunks().allocate_chunk(db.partition()).unwrap();
//! db.chunks().commit(vec![tdb_core::CommitOp::WriteChunk {
//!     id: chunk,
//!     bytes: b"sensitive, replay-protected state".to_vec(),
//! }]).unwrap();
//! assert_eq!(db.chunks().read(chunk).unwrap(), b"sensitive, replay-protected state");
//! ```

pub mod command;
pub mod errors;
pub mod paging;
pub mod session;
pub mod wire;

use std::fmt;
use std::sync::Arc;

pub use command::{Command, Response, TxMode, WireError};
pub use errors::{Result, TdbError};
pub use paging::TrustedPager;
pub use session::{Session, SessionStats};
pub use tdb_collection::{
    register_builtin_types, CollectionId, CollectionStore, ExtractorRegistry, IndexKey, IndexKind,
    KeyExtractor,
};
pub use tdb_core::backup::{BackupDescriptor, BackupSetInfo, BackupSpec, RestorePolicy};
pub use tdb_core::store::{ChunkStoreConfig, StoreHealth, TrustedBackend, ValidationMode};
pub use tdb_core::{verify_read_proof, ReadProof};
pub use tdb_core::{
    ApproveAll, ChunkId, ChunkStore, CommitOp, CryptoParams, FaultClass, PartitionId,
};
pub use tdb_object::pickle::{downcast, StoredObject, TypeRegistry, Unpickler};
pub use tdb_object::{
    MvccStats, MvccTx, ObjectId, ObjectStore, ObjectStoreConfig, Transactional, Tx, VerifiedRead,
};

use tdb_core::backup::BackupStore;
use tdb_crypto::SecretKey;
use tdb_storage::{
    ArchivalStore, CounterOverTrusted, MemArchive, MemStore, MemTrustedStore, SharedUntrusted,
    TrustedStore,
};

/// Builder assembling a [`TrustedDb`] from platform stores, a type
/// registry, and key extractors.
pub struct TrustedDbBuilder {
    secret: Option<SecretKey>,
    registry: TypeRegistry,
    extractors: ExtractorRegistry,
    chunk_config: ChunkStoreConfig,
    object_config: ObjectStoreConfig,
    partition_params: Option<CryptoParams>,
}

impl Default for TrustedDbBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TrustedDbBuilder {
    /// A builder with the default configuration: the paper's cryptography
    /// and validation (3DES+SHA-1 system partition, DES+SHA-1 default
    /// partition, counter validation with Δut = 5) on a tuned write path —
    /// group commit, the seal fan-out, and checkpoints at 512 dirty map
    /// chunks or an 8 MiB residual log — with compression, background
    /// maintenance and MVCC off.
    pub fn new() -> TrustedDbBuilder {
        let mut registry = TypeRegistry::new();
        register_builtin_types(&mut registry);
        TrustedDbBuilder {
            secret: None,
            registry,
            extractors: ExtractorRegistry::new(),
            chunk_config: ChunkStoreConfig::default(),
            object_config: ObjectStoreConfig::default(),
            partition_params: None,
        }
    }

    /// Sets the platform secret-store key (required).
    pub fn secret(mut self, key: SecretKey) -> Self {
        self.secret = Some(key);
        self
    }

    /// Registers an application object type.
    pub fn register_type(mut self, tag: u32, unpickler: Unpickler) -> Self {
        self.registry.register(tag, unpickler);
        self
    }

    /// Registers a named functional-index key extractor.
    pub fn register_extractor(mut self, name: &str, extractor: KeyExtractor) -> Self {
        self.extractors.register(name, extractor);
        self
    }

    /// Overrides the chunk store configuration.
    pub fn chunk_config(mut self, config: ChunkStoreConfig) -> Self {
        self.chunk_config = config;
        self
    }

    /// Overrides the object store configuration.
    pub fn object_config(mut self, config: ObjectStoreConfig) -> Self {
        self.object_config = config;
        self
    }

    /// Enables snapshot-isolation MVCC transactions
    /// ([`TrustedDb::begin_mvcc`], [`TrustedDb::run_mvcc`]). Off by
    /// default: the paper's object store is single-writer two-phase
    /// locking, and with the knob off the commit path is unchanged.
    pub fn mvcc(mut self, on: bool) -> Self {
        self.object_config.mvcc = on;
        self
    }

    /// Enables transparent chunk-body compression: user-data bodies are
    /// LZ77-compressed before hashing and sealing, shrinking log traffic
    /// for compressible payloads; incompressible bodies are stored raw
    /// with zero overhead. Off by default — the paper's byte-exact seal
    /// shape (see [`ChunkStoreConfig::compression`]).
    pub fn compression(mut self, on: bool) -> Self {
        self.chunk_config.compression = on;
        self
    }

    /// Sets how many threads share the sealing of a large batch (`0` =
    /// auto, `1` = the committing thread alone; small batches never leave
    /// it — see [`ChunkStoreConfig::crypto_workers`]).
    pub fn crypto_workers(mut self, workers: usize) -> Self {
        self.chunk_config.crypto_workers = workers;
        self
    }

    /// Sets the dirty-map-chunk count that triggers an automatic
    /// incremental checkpoint (default 512, half the map cache). A
    /// checkpoint is also due once the residual log outgrows a fixed 8 MiB
    /// budget, whatever this says (see
    /// [`ChunkStoreConfig::checkpoint_threshold`]).
    pub fn checkpoint_threshold(mut self, dirty_chunks: usize) -> Self {
        self.chunk_config.checkpoint_threshold = dirty_chunks;
        self
    }

    /// Runs cleaning and automatic checkpoints on a background maintenance
    /// thread instead of inside commits and explicit `clean()` calls
    /// (`false`, the default, keeps the paper's caller-driven behavior;
    /// see [`ChunkStoreConfig::background_maintenance`]).
    pub fn background_maintenance(mut self, on: bool) -> Self {
        self.chunk_config.background_maintenance = on;
        self
    }

    /// Caps how many segments the background cleaner processes per
    /// engine-lock hold (see [`ChunkStoreConfig::clean_slice_segments`]).
    pub fn clean_slice_segments(mut self, segments: usize) -> Self {
        self.chunk_config.clean_slice_segments = segments;
        self
    }

    /// Sets the free-segment watermarks of a bounded log: below `low`,
    /// committers are throttled until the background cleaner frees space
    /// (`0` disables throttling); below `high`, background cleaning runs
    /// (see [`ChunkStoreConfig::clean_low_water`] and
    /// [`ChunkStoreConfig::clean_high_water`]).
    pub fn clean_watermarks(mut self, low: u32, high: u32) -> Self {
        self.chunk_config.clean_low_water = low;
        self.chunk_config.clean_high_water = high;
        self
    }

    /// Overrides the default partition's cryptographic parameters.
    pub fn partition_params(mut self, params: CryptoParams) -> Self {
        self.partition_params = Some(params);
        self
    }

    /// Creates a fresh database over explicit platform stores.
    ///
    /// # Errors
    ///
    /// Propagates chunk-store formatting failures.
    pub fn create(
        self,
        untrusted: SharedUntrusted,
        trusted: TrustedBackend,
        archive: Arc<dyn ArchivalStore>,
    ) -> Result<TrustedDb> {
        let secret = self
            .secret
            .unwrap_or_else(|| SecretKey::random(self.chunk_config.system_cipher.key_len()));
        let chunks = Arc::new(ChunkStore::create(
            untrusted,
            trusted,
            secret,
            self.chunk_config,
        )?);
        // The default partition is always PartitionId(1), created here.
        let params = self
            .partition_params
            .unwrap_or_else(CryptoParams::paper_default);
        let partition = chunks.allocate_partition()?;
        chunks.commit(vec![CommitOp::CreatePartition {
            id: partition,
            params,
        }])?;
        Self::assemble(
            chunks,
            archive,
            self.registry,
            self.extractors,
            self.object_config,
            partition,
        )
    }

    /// Opens an existing database (runs crash recovery and validation).
    ///
    /// # Errors
    ///
    /// Returns tamper-detection errors when validation fails.
    pub fn open(
        self,
        untrusted: SharedUntrusted,
        trusted: TrustedBackend,
        archive: Arc<dyn ArchivalStore>,
    ) -> Result<TrustedDb> {
        let secret = self
            .secret
            .expect("opening an existing database requires its secret key");
        let chunks = Arc::new(ChunkStore::open(
            untrusted,
            trusted,
            secret,
            self.chunk_config,
        )?);
        let partition = PartitionId(1);
        Self::assemble(
            chunks,
            archive,
            self.registry,
            self.extractors,
            self.object_config,
            partition,
        )
    }

    /// Creates a throwaway in-memory database (tests, examples, benches).
    ///
    /// # Errors
    ///
    /// Propagates formatting failures.
    pub fn build_in_memory(self) -> Result<TrustedDb> {
        let counter = Arc::new(CounterOverTrusted::new(
            Arc::new(MemTrustedStore::new(64)) as Arc<dyn TrustedStore>
        ));
        self.create(
            Arc::new(MemStore::new()),
            TrustedBackend::Counter(counter),
            Arc::new(MemArchive::new()),
        )
    }

    fn assemble(
        chunks: Arc<ChunkStore>,
        archive: Arc<dyn ArchivalStore>,
        registry: TypeRegistry,
        extractors: ExtractorRegistry,
        object_config: ObjectStoreConfig,
        partition: PartitionId,
    ) -> Result<TrustedDb> {
        let objects = ObjectStore::new(Arc::clone(&chunks), registry, object_config);
        let collections = CollectionStore::new(extractors);
        let backups = BackupStore::new(Arc::clone(&chunks), archive);
        Ok(TrustedDb {
            chunks,
            objects,
            collections,
            backups,
            partition,
        })
    }
}

/// The assembled trusted database.
pub struct TrustedDb {
    chunks: Arc<ChunkStore>,
    objects: Arc<ObjectStore>,
    collections: CollectionStore,
    backups: BackupStore,
    partition: PartitionId,
}

impl TrustedDb {
    /// The chunk store (low-level trusted storage, §4–§5).
    pub fn chunks(&self) -> &Arc<ChunkStore> {
        &self.chunks
    }

    /// The object store (§7).
    pub fn objects(&self) -> &Arc<ObjectStore> {
        &self.objects
    }

    /// The collection store (§8).
    pub fn collections(&self) -> &CollectionStore {
        &self.collections
    }

    /// The backup store (§6).
    pub fn backups(&self) -> &BackupStore {
        &self.backups
    }

    /// The default data partition.
    pub fn partition(&self) -> PartitionId {
        self.partition
    }

    /// Begins a transaction on the object store.
    pub fn begin(&self) -> Tx {
        self.objects.begin()
    }

    /// Runs a closure transactionally (commit on `Ok`, abort on `Err`,
    /// lock timeouts retried).
    ///
    /// # Errors
    ///
    /// Propagates the closure's error or commit failures.
    pub fn run<R>(&self, f: impl FnMut(&mut Tx) -> tdb_object::errors::Result<R>) -> Result<R> {
        self.objects.run(f).map_err(Into::into)
    }

    /// Begins a snapshot-isolation MVCC transaction.
    ///
    /// # Errors
    ///
    /// Fails unless the database was built with
    /// [`TrustedDbBuilder::mvcc`].
    pub fn begin_mvcc(&self) -> Result<MvccTx> {
        self.objects.begin_mvcc().map_err(Into::into)
    }

    /// Runs a closure in an MVCC transaction (commit on `Ok`, abort on
    /// `Err`, write conflicts retried on fresh snapshots).
    ///
    /// # Errors
    ///
    /// Propagates the closure's error, commit failures, or an unresolved
    /// write conflict.
    pub fn run_mvcc<R>(
        &self,
        f: impl FnMut(&mut MvccTx) -> tdb_object::errors::Result<R>,
    ) -> Result<R> {
        self.objects.run_mvcc(f).map_err(Into::into)
    }

    /// The default partition's current committed root digest — the trust
    /// anchor clients pin to verify [`VerifiedRead`]s.
    ///
    /// # Errors
    ///
    /// Propagates chunk-store failures.
    pub fn snapshot_root(&self) -> Result<tdb_crypto::HashValue> {
        self.objects
            .snapshot_root(self.partition)
            .map_err(Into::into)
    }

    /// Creates an additional partition with its own cryptographic
    /// parameters (§2.2).
    ///
    /// # Errors
    ///
    /// Propagates chunk-store failures.
    pub fn create_partition(&self, params: CryptoParams) -> Result<PartitionId> {
        let p = self.chunks.allocate_partition()?;
        self.chunks
            .commit(vec![CommitOp::CreatePartition { id: p, params }])?;
        Ok(p)
    }

    /// Forces a chunk-store checkpoint (§4.7).
    ///
    /// # Errors
    ///
    /// Propagates chunk-store failures.
    pub fn checkpoint(&self) -> Result<()> {
        self.chunks.checkpoint().map_err(Into::into)
    }

    /// Runs the log cleaner over up to `max_segments` segments (§4.9.5).
    ///
    /// # Errors
    ///
    /// Propagates chunk-store failures.
    pub fn clean(&self, max_segments: usize) -> Result<usize> {
        self.chunks.clean(max_segments).map_err(Into::into)
    }

    /// Creates a backup set of the given sources (§6).
    ///
    /// # Errors
    ///
    /// Propagates backup-store failures.
    pub fn backup(&self, specs: &[BackupSpec], set_name: &str) -> Result<BackupSetInfo> {
        self.backups.backup(specs, set_name).map_err(Into::into)
    }

    /// Restores backup objects under the given policy (§6.3). Invalidates
    /// the object cache afterwards so stale objects cannot be served.
    ///
    /// # Errors
    ///
    /// Fails (leaving the database unchanged) on validation or constraint
    /// errors.
    pub fn restore(
        &self,
        names: &[&str],
        policy: &dyn RestorePolicy,
    ) -> Result<tdb_core::backup::RestoreReport> {
        let report = self.backups.restore(names, policy)?;
        self.objects.invalidate_cache();
        Ok(report)
    }

    /// Current health of the underlying chunk store: live, degraded
    /// (read-only), or poisoned. The uniform polling point for callers —
    /// prefer this over reaching through [`TrustedDb::chunks`].
    pub fn health(&self) -> StoreHealth {
        self.chunks.health()
    }

    /// Lock-free estimate of the bounded log's free segments (`None` when
    /// the log is unbounded); see
    /// [`ChunkStore::free_segment_estimate`].
    pub fn free_segment_estimate(&self) -> Option<u64> {
        self.chunks.free_segment_estimate()
    }

    /// Checkpoints and flushes for a clean shutdown.
    ///
    /// # Errors
    ///
    /// Propagates chunk-store failures.
    pub fn close(&self) -> Result<()> {
        self.chunks.close().map_err(Into::into)
    }
}

impl fmt::Debug for TrustedDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrustedDb")
            .field("partition", &self.partition)
            .finish_non_exhaustive()
    }
}
