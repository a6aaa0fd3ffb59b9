#![warn(missing_docs)]

//! # tdb-object — the TDB object store (§7)
//!
//! "The *object store* adds safety against errors in application programs.
//! It provides type-safe and transactional access to a set of objects."
//!
//! Layered directly on the chunk store, this crate provides:
//!
//! - application-defined pickling with a type registry and run-time type
//!   checking ([`pickle`]);
//! - each object stored in its own chunk (the paper's choice: smaller
//!   commit volume and a simpler cache at the cost of inter-object
//!   clustering, which the cache makes unimportant);
//! - a byte-bounded cache of decrypted, validated, unpickled objects
//!   ([`cache`]);
//! - transactions with two-phase shared/exclusive locking and
//!   timeout-based deadlock breaking ([`locks`]), no-steal buffering of
//!   dirty objects, and atomic group commit through the chunk store;
//! - optional snapshot-isolation MVCC transactions ([`mvcc`]) with
//!   first-committer-wins conflict detection and client-verifiable
//!   proof-carrying reads.

pub mod cache;
pub mod errors;
pub mod locks;
pub mod mvcc;
pub mod pickle;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::Mutex;

use tdb_core::metrics::{self, modules};
use tdb_core::store::{ChunkStore, CommitOp};
use tdb_core::{ChunkId, PartitionId};

use cache::ShardedObjectCache;
use errors::{ObjectError, Result};
use locks::{LockManager, LockMode, TxId};
use mvcc::MvccManager;
pub use mvcc::{MvccStats, MvccTx, VerifiedRead};
use pickle::{downcast, StoredObject, TypeRegistry};

/// A stable object name: the chunk id holding the object's pickle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub ChunkId);

impl ObjectId {
    /// The partition the object lives in.
    pub fn partition(&self) -> PartitionId {
        self.0.partition
    }

    /// The object's data rank within its partition.
    pub fn rank(&self) -> u64 {
        self.0.pos.rank
    }

    /// Rebuilds an object id from its partition and rank (e.g. after
    /// storing a reference inside another object).
    pub fn from_parts(partition: PartitionId, rank: u64) -> ObjectId {
        ObjectId(ChunkId::data(partition, rank))
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj({})", self.0)
    }
}

/// Object store configuration.
#[derive(Debug, Clone)]
pub struct ObjectStoreConfig {
    /// Byte budget for the object cache (the paper ran with 4 MB of total
    /// cache, §9.1).
    pub cache_bytes: usize,
    /// Lock acquisition timeout — the deadlock breaker (§7).
    pub lock_timeout: Duration,
    /// Steal buffering (paper §10): when a transaction's in-memory dirty
    /// objects exceed this many pickled bytes, the oldest are spilled —
    /// encrypted and validated — to a scratch partition of the chunk store
    /// and reloaded at commit. `usize::MAX` disables stealing (the paper's
    /// default no-steal policy).
    pub steal_threshold_bytes: usize,
    /// Enables snapshot-isolation MVCC transactions ([`ObjectStore::begin_mvcc`]).
    /// Off by default: the paper's object store is single-writer two-phase
    /// locking, and the off path is byte-for-byte unchanged.
    pub mvcc: bool,
}

impl Default for ObjectStoreConfig {
    fn default() -> Self {
        ObjectStoreConfig {
            cache_bytes: 4 * 1024 * 1024,
            lock_timeout: Duration::from_millis(500),
            steal_threshold_bytes: usize::MAX,
            mvcc: false,
        }
    }
}

/// The object store.
///
/// Always lives behind an `Arc` ([`ObjectStore::new`] returns one): open
/// transactions hold an owned handle to the store, so a [`Tx`] or
/// [`MvccTx`] can outlive the borrow it was begun from — the shape a
/// network session needs, where a transaction spans many requests.
pub struct ObjectStore {
    /// Self-reference so `begin(&self)` can mint owned transactions.
    me: Weak<ObjectStore>,
    chunks: Arc<ChunkStore>,
    registry: TypeRegistry,
    cache: ShardedObjectCache,
    locks: LockManager,
    next_tx: AtomicU64,
    steal_threshold: usize,
    /// Scratch partition for spilled (stolen) dirty objects, created
    /// lazily and reclaimed on drop.
    spill: Mutex<Option<PartitionId>>,
    /// MVCC coordinator, present when the `mvcc` knob is on.
    mvcc: Option<MvccManager>,
}

impl ObjectStore {
    /// Wraps a chunk store with the given type registry.
    pub fn new(
        chunks: Arc<ChunkStore>,
        registry: TypeRegistry,
        config: ObjectStoreConfig,
    ) -> Arc<ObjectStore> {
        Arc::new_cyclic(|me| ObjectStore {
            me: me.clone(),
            chunks,
            registry,
            cache: ShardedObjectCache::new(config.cache_bytes),
            locks: LockManager::new(config.lock_timeout),
            next_tx: AtomicU64::new(1),
            steal_threshold: config.steal_threshold_bytes,
            spill: Mutex::new(None),
            mvcc: config.mvcc.then(MvccManager::new),
        })
    }

    /// An owned handle to this store (upgrades the cyclic self-reference).
    fn arc(&self) -> Arc<ObjectStore> {
        self.me
            .upgrade()
            .expect("ObjectStore::new returns an Arc, so self is reachable")
    }

    /// The scratch partition for spilled dirty objects, created on first
    /// use with its own key.
    fn spill_partition(&self) -> Result<PartitionId> {
        let mut spill = self.spill.lock();
        if let Some(p) = *spill {
            return Ok(p);
        }
        let p = self.chunks.allocate_partition()?;
        self.chunks.commit(vec![CommitOp::CreatePartition {
            id: p,
            params: tdb_core::CryptoParams::generate(
                tdb_crypto::CipherKind::Aes128,
                tdb_crypto::HashKind::Sha256,
            ),
        }])?;
        *spill = Some(p);
        Ok(p)
    }

    /// The underlying chunk store.
    pub fn chunks(&self) -> &Arc<ChunkStore> {
        &self.chunks
    }

    /// Begins a transaction. The returned [`Tx`] owns a handle to the
    /// store and may outlive this borrow (e.g. parked in a session
    /// between network requests).
    pub fn begin(&self) -> Tx {
        let _t = metrics::span(modules::OBJECT_STORE);
        Tx {
            store: self.arc(),
            id: self.next_tx.fetch_add(1, Ordering::Relaxed),
            writes: Vec::new(),
            buffered_bytes: 0,
            lock_wait: true,
            finished: false,
        }
    }

    /// Runs `f` inside a transaction, committing on `Ok` and aborting on
    /// `Err`. Lock timeouts are retried up to 3 times.
    ///
    /// # Errors
    ///
    /// Propagates the closure's error or commit failures.
    pub fn run<R>(&self, mut f: impl FnMut(&mut Tx) -> Result<R>) -> Result<R> {
        let mut attempts = 0;
        loop {
            let mut tx = self.begin();
            match f(&mut tx) {
                Ok(value) => {
                    tx.commit()?;
                    return Ok(value);
                }
                Err(ObjectError::LockTimeout(id)) if attempts < 3 => {
                    tx.abort();
                    attempts += 1;
                    let _ = id;
                }
                Err(e) => {
                    tx.abort();
                    return Err(e);
                }
            }
        }
    }

    /// True when MVCC transactions are enabled.
    pub fn mvcc_enabled(&self) -> bool {
        self.mvcc.is_some()
    }

    /// Begins a snapshot-isolation MVCC transaction.
    ///
    /// # Errors
    ///
    /// [`ObjectError::MvccDisabled`] unless the store was built with
    /// [`ObjectStoreConfig::mvcc`].
    pub fn begin_mvcc(&self) -> Result<MvccTx> {
        let _t = metrics::span(modules::OBJECT_STORE);
        if self.mvcc.is_none() {
            return Err(ObjectError::MvccDisabled);
        }
        Ok(MvccTx::begin(self.arc()))
    }

    /// Runs `f` inside an MVCC transaction, committing on `Ok` and
    /// aborting on `Err`. Write conflicts restart the transaction on a
    /// fresh snapshot, up to 8 attempts.
    ///
    /// # Errors
    ///
    /// Propagates the closure's error, commit failures, or the final
    /// [`ObjectError::WriteConflict`] once retries are exhausted.
    pub fn run_mvcc<R>(&self, mut f: impl FnMut(&mut MvccTx) -> Result<R>) -> Result<R> {
        let mut attempts = 0;
        loop {
            let mut tx = self.begin_mvcc()?;
            match f(&mut tx).and_then(|value| tx.commit().map(|()| value)) {
                Err(ObjectError::WriteConflict(_)) if attempts < 8 => attempts += 1,
                other => return other,
            }
        }
    }

    /// MVCC counters, when enabled.
    pub fn mvcc_stats(&self) -> Option<MvccStats> {
        self.mvcc.as_ref().map(MvccManager::stats)
    }

    /// The partition's current committed root digest — the trust anchor a
    /// client pins to verify [`VerifiedRead`]s.
    ///
    /// # Errors
    ///
    /// Fails if the partition does not exist or the store is failed.
    pub fn snapshot_root(&self, partition: PartitionId) -> Result<tdb_crypto::HashValue> {
        Ok(self.chunks.snapshot_root(partition)?)
    }

    /// (hits, misses) of the object cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Empties the object cache (used after restores and by benchmarks that
    /// need a cold cache).
    pub fn invalidate_cache(&self) {
        self.cache.clear();
    }

    /// Reads an object bypassing transactions (validated, cached). Useful
    /// for read-only inspection; transactional code should use [`Tx::get`].
    ///
    /// # Errors
    ///
    /// Fails if the object is missing, fails validation, or has an
    /// unregistered type.
    pub fn get_untracked(&self, id: ObjectId) -> Result<Arc<dyn StoredObject>> {
        let _t = metrics::span(modules::OBJECT_STORE);
        self.load(id)
    }

    /// Unpickles a raw record (type tag + pickle) against this store's
    /// type registry. This is how records arriving over a wire become
    /// typed objects: the server-side registry is the schema authority.
    ///
    /// # Errors
    ///
    /// Fails on unknown type tags or malformed pickles.
    pub fn unpickle_record(&self, record: &[u8]) -> Result<Arc<dyn StoredObject>> {
        self.registry.unpickle(record)
    }

    /// Installs a committed transaction's writes in the object cache.
    fn install(&self, cached: Vec<(ObjectId, Cached)>) {
        for (id, what) in cached {
            match what {
                Cached::Object(obj, size) => self.cache.put(id, obj, size),
                Cached::SpilledRecord(record) => {
                    if let Ok(obj) = self.registry.unpickle(&record) {
                        self.cache.put(id, obj, record.len());
                    }
                }
                Cached::Nothing => self.cache.remove(id),
            }
        }
    }

    fn load(&self, id: ObjectId) -> Result<Arc<dyn StoredObject>> {
        if let Some(obj) = self.cache.get(id) {
            return Ok(obj);
        }
        let record = match self.chunks.read(id.0) {
            Ok(r) => r,
            Err(tdb_core::CoreError::NotAllocated(_)) | Err(tdb_core::CoreError::NotWritten(_)) => {
                return Err(ObjectError::NotFound(id))
            }
            Err(e) => return Err(e.into()),
        };
        let size = record.len();
        let obj = self.registry.unpickle(&record)?;
        self.cache.put(id, Arc::clone(&obj), size);
        Ok(obj)
    }
}

impl Drop for ObjectStore {
    fn drop(&mut self) {
        // Best-effort reclamation of the scratch partition. A crash leaks
        // it for the session; it holds only ciphertext of uncommitted
        // state and is reclaimed by any later recreation path.
        if let Some(p) = *self.spill.lock() {
            let _ = self
                .chunks
                .commit(vec![CommitOp::DeallocPartition { id: p }]);
        }
    }
}

impl fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjectStore").finish_non_exhaustive()
    }
}

/// A buffered write within a transaction.
enum Write {
    /// The object and its stored record (type tag + pickle), pickled once
    /// when the write was buffered; commit or a spill moves the record out.
    Put {
        obj: Arc<dyn StoredObject>,
        record: Vec<u8>,
    },
    /// A dirty object spilled to the chunk store (steal buffering, §10):
    /// the pickled record lives encrypted+validated in the scratch
    /// partition until commit.
    Spilled {
        chunk: tdb_core::ChunkId,
    },
    Delete,
}

/// An open transaction: two-phase locked, no-steal buffered.
///
/// Owns its store handle, so it is `'static` and can be parked in a
/// session object across network requests.
pub struct Tx {
    store: Arc<ObjectStore>,
    id: TxId,
    /// Ordered buffered writes (last write to an id wins).
    writes: Vec<(ObjectId, Write)>,
    /// Pickled bytes currently buffered in memory (drives stealing).
    buffered_bytes: usize,
    /// Whether a busy lock is waited for (up to the store's timeout) or
    /// refused at once.
    lock_wait: bool,
    finished: bool,
}

/// What a committed net write leaves in the object cache.
enum Cached {
    Object(Arc<dyn StoredObject>, usize),
    SpilledRecord(Vec<u8>),
    Nothing,
}

/// A transaction's commit, staged: its chunk-store op set and the cache
/// updates that follow once the op set is durable.
type Staged = (Vec<CommitOp>, Vec<(ObjectId, Cached)>);

impl Tx {
    fn check_open(&self) -> Result<()> {
        if self.finished {
            Err(ObjectError::TxFinished)
        } else {
            Ok(())
        }
    }

    /// With `false`, a lock that is not grantable right now fails at once
    /// with [`ObjectError::LockTimeout`] instead of waiting up to the
    /// store's timeout — for a caller that holds other transactions'
    /// locks and must not add a wait-for edge while it does.
    pub fn set_lock_wait(&mut self, wait: bool) {
        self.lock_wait = wait;
    }

    fn lock(&self, id: ObjectId, mode: LockMode) -> Result<()> {
        if self.lock_wait {
            self.store.locks.acquire(self.id, id, mode)
        } else {
            self.store.locks.try_acquire(self.id, id, mode)
        }
    }

    fn local(&self, id: ObjectId) -> Option<&Write> {
        self.writes
            .iter()
            .rev()
            .find(|(i, _)| *i == id)
            .map(|(_, w)| w)
    }

    /// Creates a new object in `partition`, returning its id.
    ///
    /// # Errors
    ///
    /// Fails if the partition does not exist.
    pub fn create(
        &mut self,
        partition: PartitionId,
        object: Arc<dyn StoredObject>,
    ) -> Result<ObjectId> {
        let _t = metrics::span(modules::OBJECT_STORE);
        self.check_open()?;
        let chunk = self.store.chunks.allocate_chunk(partition)?;
        let id = ObjectId(chunk);
        self.lock(id, LockMode::Exclusive)?;
        self.buffer_put(id, object)?;
        Ok(id)
    }

    /// Reads an object with a shared lock, checking its type.
    ///
    /// # Errors
    ///
    /// Fails on missing objects, lock timeout, or type mismatch.
    pub fn get<T: StoredObject>(&mut self, id: ObjectId) -> Result<Arc<T>> {
        downcast(self.get_dyn(id)?)
    }

    /// Reads an object under an **exclusive** lock, for read-modify-write
    /// sequences. Taking the write lock up front avoids the classic
    /// shared-to-exclusive upgrade deadlock when two transactions race on
    /// the same object (both hold shared, both stall upgrading, and only
    /// the §7 timeout breaks them).
    ///
    /// # Errors
    ///
    /// Fails on missing objects, lock timeout, or type mismatch.
    pub fn get_for_update<T: StoredObject>(&mut self, id: ObjectId) -> Result<Arc<T>> {
        self.check_open()?;
        self.lock(id, LockMode::Exclusive)?;
        downcast(self.get_dyn(id)?)
    }

    /// Reads an object with a shared lock, dynamically typed.
    ///
    /// # Errors
    ///
    /// Fails on missing objects or lock timeout.
    pub fn get_dyn(&mut self, id: ObjectId) -> Result<Arc<dyn StoredObject>> {
        let _t = metrics::span(modules::OBJECT_STORE);
        self.check_open()?;
        self.lock(id, LockMode::Shared)?;
        match self.local(id) {
            Some(Write::Put { obj, .. }) => Ok(Arc::clone(obj)),
            Some(Write::Spilled { chunk }) => {
                let record = self.store.chunks.read(*chunk)?;
                self.store.registry.unpickle(&record)
            }
            Some(Write::Delete) => Err(ObjectError::NotFound(id)),
            None => self.store.load(id),
        }
    }

    /// Replaces an object's state (exclusive lock; buffered until commit —
    /// the no-steal policy keeps dirty objects out of the persistent store
    /// until their transaction commits).
    ///
    /// # Errors
    ///
    /// Fails on lock timeout or if the object does not exist.
    pub fn put(&mut self, id: ObjectId, object: Arc<dyn StoredObject>) -> Result<()> {
        let _t = metrics::span(modules::OBJECT_STORE);
        self.check_open()?;
        self.lock(id, LockMode::Exclusive)?;
        // The object must exist (locally created, or stored).
        if self.local(id).is_none() {
            self.store.load(id)?;
        } else if matches!(self.local(id), Some(Write::Delete)) {
            return Err(ObjectError::NotFound(id));
        }
        self.buffer_put(id, object)
    }

    /// Buffers a put: pickles the object — the only time this transaction
    /// does — and spills if the dirty volume now exceeds the threshold.
    fn buffer_put(&mut self, id: ObjectId, obj: Arc<dyn StoredObject>) -> Result<()> {
        let record = TypeRegistry::pickle(obj.as_ref());
        // The dirty volume counts pickled bodies, without their type tags.
        self.buffered_bytes += record.len() - 4;
        self.writes.push((id, Write::Put { obj, record }));
        self.maybe_steal()
    }

    /// Deletes an object (exclusive lock; buffered until commit).
    ///
    /// # Errors
    ///
    /// Fails on lock timeout or if the object does not exist.
    pub fn delete(&mut self, id: ObjectId) -> Result<()> {
        let _t = metrics::span(modules::OBJECT_STORE);
        self.check_open()?;
        self.lock(id, LockMode::Exclusive)?;
        if self.local(id).is_none() {
            self.store.load(id)?;
        } else if matches!(self.local(id), Some(Write::Delete)) {
            return Err(ObjectError::NotFound(id));
        }
        self.writes.push((id, Write::Delete));
        Ok(())
    }

    /// Number of buffered writes.
    pub fn pending_writes(&self) -> usize {
        self.writes.len()
    }

    /// Number of writes currently spilled to the chunk store.
    pub fn spilled_writes(&self) -> usize {
        self.writes
            .iter()
            .filter(|(_, w)| matches!(w, Write::Spilled { .. }))
            .count()
    }

    /// Steal buffering (§10): when the in-memory dirty volume exceeds the
    /// threshold, spill buffered puts — oldest first — to the scratch
    /// partition, in one chunk-store commit.
    fn maybe_steal(&mut self) -> Result<()> {
        if self.buffered_bytes <= self.store.steal_threshold {
            return Ok(());
        }
        let spill_partition = self.store.spill_partition()?;
        // Spill the *latest* write of each id, oldest ids first, until the
        // in-memory volume halves (earlier superseded writes of the same id
        // are dead weight and simply dropped from accounting).
        let target = self.store.steal_threshold / 2;
        let mut ops = Vec::new();
        let mut planned: Vec<(usize, tdb_core::ChunkId, usize)> = Vec::new();
        let ids_in_order: Vec<ObjectId> = {
            let mut seen = Vec::new();
            for (id, _) in &self.writes {
                if !seen.contains(id) {
                    seen.push(*id);
                }
            }
            seen
        };
        let mut remaining = self.buffered_bytes;
        for id in ids_in_order {
            if remaining <= target {
                break;
            }
            let last_index = self
                .writes
                .iter()
                .rposition(|(i, _)| *i == id)
                .expect("id came from writes");
            if let Write::Put { record, .. } = &self.writes[last_index].1 {
                // Copied, not moved: the write stays whole if the spill
                // commit fails.
                let record = record.clone();
                let size = record.len();
                let chunk = self.store.chunks.allocate_chunk(spill_partition)?;
                ops.push(CommitOp::WriteChunk {
                    id: chunk,
                    bytes: record,
                });
                planned.push((last_index, chunk, size));
                remaining = remaining.saturating_sub(size);
            }
        }
        if ops.is_empty() {
            return Ok(());
        }
        self.store.chunks.commit(ops)?;
        for (index, chunk, size) in planned {
            self.writes[index].1 = Write::Spilled { chunk };
            self.buffered_bytes = self.buffered_bytes.saturating_sub(size);
        }
        Ok(())
    }

    /// Commits: applies every buffered write in one atomic chunk-store
    /// commit, installs the results in the cache, and releases all locks.
    ///
    /// # Errors
    ///
    /// On failure the transaction is rolled back (nothing was applied)
    /// and its locks are released.
    pub fn commit(mut self) -> Result<()> {
        // What `commit_all` does with a transaction that wrote nothing —
        // every autocommit read — minus its allocations.
        if self.writes.is_empty() {
            self.release();
            return Ok(());
        }
        Tx::commit_all(vec![self])
            .pop()
            .expect("one result per transaction")
    }

    /// Commits independent transactions of one store together, returning
    /// each one's own result in order. Each stays atomic on its own, but
    /// their chunk-store commits ride one group-commit batch — one
    /// coalesced append and one device flush for all of them
    /// ([`ChunkStore::commit_many`]). Every transaction's locks are
    /// released on every outcome, and one that fails before reaching the
    /// chunk store also has its spilled scratch chunks reclaimed.
    ///
    /// # Panics
    ///
    /// If the transactions were begun on different object stores.
    pub fn commit_all(txs: Vec<Tx>) -> Vec<Result<()>> {
        let _t = metrics::span(modules::OBJECT_STORE);
        let mut staged: Vec<(Tx, Result<Staged>)> = txs
            .into_iter()
            .map(|mut tx| {
                let staged = tx.stage();
                (tx, staged)
            })
            .collect();
        let Some(store) = staged.first().map(|(tx, _)| Arc::clone(&tx.store)) else {
            return Vec::new();
        };
        let mut sets = Vec::new();
        for (tx, staged) in &mut staged {
            assert!(
                Arc::ptr_eq(&store, &tx.store),
                "Tx::commit_all across object stores"
            );
            // A transaction with nothing to write commits without the
            // chunk store.
            match staged {
                Ok((ops, _)) if !ops.is_empty() => sets.push(std::mem::take(ops)),
                _ => {}
            }
        }
        let mut committed = store.chunks.commit_many(sets).into_iter();
        staged
            .into_iter()
            .map(|(mut tx, staged)| {
                let result = match staged {
                    Ok((_, cached)) if cached.is_empty() => Ok(()),
                    Ok((_, cached)) => committed
                        .next()
                        .expect("one result per op set")
                        .map(|()| tx.store.install(cached))
                        .map_err(Into::into),
                    Err(e) => {
                        tx.discard();
                        Err(e)
                    }
                };
                tx.release();
                result
            })
            .collect()
    }

    /// Builds the commit's op set from the net effect of the buffered
    /// writes. Reloads spilled records, so it can fail; nothing is
    /// applied either way.
    fn stage(&mut self) -> Result<Staged> {
        self.check_open()?;
        // Net effect per object, in first-touch order: the index of the
        // last write to it.
        let mut net: Vec<(ObjectId, usize)> = Vec::new();
        for (index, (id, _)) in self.writes.iter().enumerate() {
            match net.iter_mut().find(|(i, _)| i == id) {
                Some(slot) => slot.1 = index,
                None => net.push((*id, index)),
            }
        }
        let mut ops = Vec::with_capacity(net.len());
        let mut cached: Vec<(ObjectId, Cached)> = Vec::with_capacity(net.len());
        for &(id, index) in &net {
            match &mut self.writes[index].1 {
                Write::Put { obj, record } => {
                    cached.push((id, Cached::Object(Arc::clone(obj), record.len())));
                    ops.push(CommitOp::WriteChunk {
                        id: id.0,
                        bytes: std::mem::take(record),
                    });
                }
                Write::Spilled { chunk } => {
                    // Reload the stolen record and fold it into the same
                    // atomic commit; the scratch chunk is reclaimed with it.
                    let record = self.store.chunks.read(*chunk)?;
                    ops.push(CommitOp::WriteChunk {
                        id: id.0,
                        bytes: record.clone(),
                    });
                    ops.push(CommitOp::DeallocChunk { id: *chunk });
                    cached.push((id, Cached::SpilledRecord(record)));
                }
                Write::Delete => {
                    // Deleting an object created in this same transaction
                    // would dealloc an unwritten chunk; that is legal.
                    ops.push(CommitOp::DeallocChunk { id: id.0 });
                    cached.push((id, Cached::Nothing));
                }
            }
        }
        // Superseded spills (an id spilled, then overwritten in memory)
        // also need their scratch chunks reclaimed.
        for (index, (_, w)) in self.writes.iter().enumerate() {
            if let Write::Spilled { chunk } = w {
                if !net.iter().any(|(_, n)| *n == index) {
                    ops.push(CommitOp::DeallocChunk { id: *chunk });
                }
            }
        }
        Ok((ops, cached))
    }

    /// Aborts: drops buffered writes (reclaiming any spilled scratch
    /// chunks) and releases all locks.
    pub fn abort(mut self) {
        let _t = metrics::span(modules::OBJECT_STORE);
        self.discard();
        self.release();
    }

    /// Drops the buffered writes, reclaiming spilled scratch chunks.
    fn discard(&mut self) {
        let reclaim: Vec<CommitOp> = self
            .writes
            .iter()
            .filter_map(|(_, w)| match w {
                Write::Spilled { chunk } => Some(CommitOp::DeallocChunk { id: *chunk }),
                _ => None,
            })
            .collect();
        if !reclaim.is_empty() {
            // Best effort: a failure here leaks scratch chunks, which the
            // cleaner treats as any other garbage once the partition drops.
            let _ = self.store.chunks.commit(reclaim);
        }
        self.writes.clear();
    }

    /// Ends the transaction: releases every lock it holds.
    fn release(&mut self) {
        self.finished = true;
        self.store.locks.release_all(self.id);
    }
}

impl Drop for Tx {
    fn drop(&mut self) {
        if !self.finished {
            // An abandoned transaction aborts implicitly.
            self.store.locks.release_all(self.id);
        }
    }
}

/// The common transactional surface of [`Tx`] (two-phase locking) and
/// [`MvccTx`] (snapshot isolation). Code layered on the object store —
/// collections, catalogs — takes `&mut impl Transactional` and runs
/// unchanged under either concurrency control scheme.
pub trait Transactional {
    /// Creates a new object in `partition`, returning its id.
    ///
    /// # Errors
    ///
    /// Fails if the partition does not exist.
    fn create(&mut self, partition: PartitionId, object: Arc<dyn StoredObject>)
        -> Result<ObjectId>;

    /// Reads an object, dynamically typed.
    ///
    /// # Errors
    ///
    /// Fails if the object is missing (at the transaction's view) or on
    /// lock timeout.
    fn get_dyn(&mut self, id: ObjectId) -> Result<Arc<dyn StoredObject>>;

    /// Reads an object for a read-modify-write sequence: an exclusive
    /// lock under two-phase locking, a plain snapshot read under MVCC
    /// (the write conflict surfaces at commit).
    ///
    /// # Errors
    ///
    /// Fails like [`Transactional::get`].
    fn get_for_update<T: StoredObject>(&mut self, id: ObjectId) -> Result<Arc<T>>;

    /// Replaces an object's state (buffered until commit).
    ///
    /// # Errors
    ///
    /// Fails if the object does not exist or on lock timeout.
    fn put(&mut self, id: ObjectId, object: Arc<dyn StoredObject>) -> Result<()>;

    /// Deletes an object (buffered until commit).
    ///
    /// # Errors
    ///
    /// Fails if the object does not exist or on lock timeout.
    fn delete(&mut self, id: ObjectId) -> Result<()>;

    /// Reads an object, checking its type.
    ///
    /// # Errors
    ///
    /// Fails like [`Transactional::get_dyn`], or on type mismatch.
    fn get<T: StoredObject>(&mut self, id: ObjectId) -> Result<Arc<T>> {
        downcast(self.get_dyn(id)?)
    }
}

impl Transactional for Tx {
    fn create(
        &mut self,
        partition: PartitionId,
        object: Arc<dyn StoredObject>,
    ) -> Result<ObjectId> {
        Tx::create(self, partition, object)
    }

    fn get_dyn(&mut self, id: ObjectId) -> Result<Arc<dyn StoredObject>> {
        Tx::get_dyn(self, id)
    }

    fn get_for_update<T: StoredObject>(&mut self, id: ObjectId) -> Result<Arc<T>> {
        Tx::get_for_update(self, id)
    }

    fn put(&mut self, id: ObjectId, object: Arc<dyn StoredObject>) -> Result<()> {
        Tx::put(self, id, object)
    }

    fn delete(&mut self, id: ObjectId) -> Result<()> {
        Tx::delete(self, id)
    }
}
