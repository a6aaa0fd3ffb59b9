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
//! - transactions with two-phase shared/exclusive locking, deadlocks
//!   found in the waits-for graph and the §7 timeout as the backstop
//!   ([`locks`]), no-steal buffering of dirty objects (one write per
//!   object, held in memory until commit), and atomic group commit
//!   through the chunk store.

pub mod cache;
pub mod errors;
pub mod locks;
pub mod pickle;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use tdb_core::metrics::{self, modules};
use tdb_core::store::{ChunkStore, CommitOp};
use tdb_core::{ChunkId, PartitionId};

use cache::ShardedObjectCache;
use errors::{ObjectError, Result};
use locks::{Denied, LockManager, LockMode, TxId};
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

/// Object store configuration. There is no buffering knob: the store
/// never steals, so a transaction's dirty objects stay in memory, one
/// write per object, until it commits (§7).
#[derive(Debug, Clone)]
pub struct ObjectStoreConfig {
    /// Byte budget for the object cache (the paper ran with 4 MB of total
    /// cache, §9.1).
    pub cache_bytes: usize,
    /// Lock acquisition timeout — the deadlock breaker (§7), kept as the
    /// backstop behind cycle detection.
    pub lock_timeout: Duration,
}

impl Default for ObjectStoreConfig {
    fn default() -> Self {
        ObjectStoreConfig {
            cache_bytes: 4 * 1024 * 1024,
            lock_timeout: Duration::from_millis(500),
        }
    }
}

/// The object store.
///
/// Always lives behind an `Arc` ([`ObjectStore::new`] returns one): open
/// transactions hold an owned handle to the store, so a [`Tx`] can
/// outlive the borrow it was begun from — the shape a network session
/// needs, where a transaction spans many requests.
pub struct ObjectStore {
    /// Self-reference so `begin(&self)` can mint owned transactions.
    me: Weak<ObjectStore>,
    chunks: Arc<ChunkStore>,
    registry: TypeRegistry,
    cache: ShardedObjectCache,
    locks: LockManager,
    next_tx: AtomicU64,
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
        })
    }

    /// An owned handle to this store (upgrades the cyclic self-reference).
    fn arc(&self) -> Arc<ObjectStore> {
        self.me
            .upgrade()
            .expect("ObjectStore::new returns an Arc, so self is reachable")
    }

    /// The underlying chunk store.
    pub fn chunks(&self) -> &Arc<ChunkStore> {
        &self.chunks
    }

    /// Test-only: how many lock requests are waiting right now.
    #[doc(hidden)]
    pub fn debug_lock_waiters(&self) -> usize {
        self.locks.waiting_count()
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
            lock_wait: true,
            victim_of: None,
            created: Vec::new(),
            finished: false,
        }
    }

    /// Runs `f` inside a transaction, committing on `Ok` and aborting on
    /// `Err`. A transaction refused a lock because waiting would close a
    /// deadlock cycle aborts, waits for the transactions it waited for to
    /// release the object ([`Tx::abort`]), and runs again, as often as it
    /// takes; one that ran into the lock timeout runs again up to 3 times.
    ///
    /// # Errors
    ///
    /// Propagates the closure's error or commit failures.
    pub fn run<R>(&self, mut f: impl FnMut(&mut Tx) -> Result<R>) -> Result<R> {
        let mut timeouts = 0;
        loop {
            let mut tx = self.begin();
            match f(&mut tx) {
                Ok(value) => {
                    tx.commit()?;
                    return Ok(value);
                }
                Err(ObjectError::LockTimeout(_)) if tx.is_deadlock_victim() => tx.abort(),
                Err(ObjectError::LockTimeout(_)) if timeouts < 3 => {
                    tx.abort();
                    timeouts += 1;
                }
                Err(e) => {
                    tx.abort();
                    return Err(e);
                }
            }
        }
    }

    /// The partition's current committed root digest — the trust anchor a
    /// client pins to verify proof-carrying reads.
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

    /// Reads an object's latest committed state outside any transaction
    /// (validated, cached) — the read of an autocommit `Get`.
    ///
    /// A cache hit takes no lock and begins no transaction. That is sound
    /// because the store never steals: a committed object changes only
    /// at a commit holding its exclusive lock, which evicts the object
    /// before its chunk-store commit and installs the new state before it
    /// releases; and every install of a read happens under a shared lock.
    /// So a cached object is the last committed state, and a hit on an
    /// object another transaction holds exclusively is a read ordered
    /// before that writer. A miss takes the shared lock for the
    /// chunk-store read and the install, so it waits out an exclusive
    /// holder: up to the store's timeout with `wait`, not at all without.
    /// Either way the cache is looked up once. The miss holds no other
    /// lock, so it closes no deadlock cycle.
    ///
    /// # Errors
    ///
    /// Fails if the object is missing, fails validation, or has an
    /// unregistered type, or on lock timeout.
    pub fn get_committed(&self, id: ObjectId, wait: bool) -> Result<Arc<dyn StoredObject>> {
        let _t = metrics::span(modules::OBJECT_STORE);
        if let Some(obj) = self.cache.get(id) {
            return Ok(obj);
        }
        let tx = self.next_tx.fetch_add(1, Ordering::Relaxed);
        let locked = if wait {
            self.locks.acquire(tx, id, LockMode::Shared)
        } else {
            self.locks.try_acquire(tx, id, LockMode::Shared)
        };
        locked.map_err(|_| ObjectError::LockTimeout(id))?;
        let obj = self.fetch(id);
        self.locks.release_all(tx);
        obj
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
                Some((obj, size)) => self.cache.put(id, obj, size),
                None => self.cache.remove(id),
            }
        }
    }

    /// Reads an object through the cache.
    fn load(&self, id: ObjectId) -> Result<Arc<dyn StoredObject>> {
        match self.cache.get(id) {
            Some(obj) => Ok(obj),
            None => self.fetch(id),
        }
    }

    /// Reads an object from the chunk store and installs it in the cache.
    ///
    /// Every caller holds a lock on `id` that excludes its writers: a
    /// transaction's shared or exclusive lock ([`Tx::get_dyn`], and the
    /// existence check of [`Tx::put`] and [`Tx::delete`]), or the shared
    /// lock of a committed read's miss ([`ObjectStore::get_committed`]).
    /// A commit changes an object's chunk and its cache entry only while
    /// it holds the object's exclusive lock, from the eviction in
    /// [`Tx::stage`] to the install after the chunk-store commit. So no
    /// commit of `id` runs between this read and its install, and what is
    /// installed is the last committed state.
    fn fetch(&self, id: ObjectId) -> Result<Arc<dyn StoredObject>> {
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

impl fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjectStore").finish_non_exhaustive()
    }
}

/// A buffered write within a transaction.
enum Write {
    /// The object and its stored record (type tag + pickle), pickled once
    /// when the write was buffered; commit moves the record out.
    Put {
        obj: Arc<dyn StoredObject>,
        record: Vec<u8>,
    },
    Delete,
}

/// Buffers `write` as the transaction's one write to `id`. A later write
/// replaces the earlier one in place, so commit order stays the order in
/// which objects were first written.
fn buffer<W>(writes: &mut Vec<(ObjectId, W)>, id: ObjectId, write: W) {
    match writes.iter_mut().find(|(i, _)| *i == id) {
        Some(slot) => slot.1 = write,
        None => writes.push((id, write)),
    }
}

/// An open transaction: two-phase locked, no-steal buffered.
///
/// Owns its store handle, so it is `'static` and can be parked in a
/// session object across network requests.
pub struct Tx {
    store: Arc<ObjectStore>,
    id: TxId,
    /// Buffered writes, one per object, in first-touch order.
    writes: Vec<(ObjectId, Write)>,
    /// Whether a busy lock is waited for (up to the store's timeout) or
    /// refused at once.
    lock_wait: bool,
    /// Set when a lock request was refused because waiting would have
    /// closed a deadlock cycle: the object, and the transactions the
    /// request waited for.
    victim_of: Option<(ObjectId, Vec<TxId>)>,
    /// The objects `create` allocated: their chunk ids go back to the
    /// partition unless the transaction commits.
    created: Vec<ObjectId>,
    /// Set when the transaction commits or aborts, so `Drop` knows its
    /// locks are already released.
    finished: bool,
}

/// What a committed write leaves in the object cache: the object and its
/// record size, or `None` for a delete.
type Cached = Option<(Arc<dyn StoredObject>, usize)>;

/// A transaction's commit, staged: its chunk-store op set and the cache
/// updates that follow once the op set is durable.
type Staged = (Vec<CommitOp>, Vec<(ObjectId, Cached)>);

impl Tx {
    /// With `false`, a lock that is not grantable right now fails at once
    /// with [`ObjectError::LockTimeout`] instead of waiting up to the
    /// store's timeout — for a caller that holds other transactions'
    /// locks and must not add a wait-for edge while it does.
    pub fn set_lock_wait(&mut self, wait: bool) {
        self.lock_wait = wait;
    }

    /// True once a lock request of this transaction was refused with
    /// [`ObjectError::LockTimeout`] because waiting would have closed a
    /// deadlock cycle. Its [`abort`](Tx::abort) waits for the cycle's
    /// release, and a retry then finds the object free.
    pub fn is_deadlock_victim(&self) -> bool {
        self.victim_of.is_some()
    }

    fn lock(&mut self, id: ObjectId, mode: LockMode) -> Result<()> {
        let locked = if self.lock_wait {
            self.store.locks.acquire(self.id, id, mode)
        } else {
            self.store.locks.try_acquire(self.id, id, mode)
        };
        locked.map_err(|denied| {
            if let Denied::Cycle(blockers) = denied {
                self.victim_of = Some((id, blockers));
            }
            ObjectError::LockTimeout(id)
        })
    }

    fn local(&self, id: ObjectId) -> Option<&Write> {
        self.writes.iter().find(|(i, _)| *i == id).map(|(_, w)| w)
    }

    /// Fails with [`ObjectError::NotFound`] unless `id` exists as this
    /// transaction sees it: written here, or stored and not deleted here.
    fn check_exists(&self, id: ObjectId) -> Result<()> {
        match self.local(id) {
            Some(Write::Put { .. }) => Ok(()),
            Some(Write::Delete) => Err(ObjectError::NotFound(id)),
            None => self.store.load(id).map(drop),
        }
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
        let chunk = self.store.chunks.allocate_chunk(partition)?;
        let id = ObjectId(chunk);
        if let Err(e) = self.lock(id, LockMode::Exclusive) {
            let _ = self.store.chunks.release_chunk(chunk);
            return Err(e);
        }
        self.created.push(id);
        self.buffer_put(id, object);
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
    /// the same object (both hold shared and both ask to upgrade, so one
    /// is refused as a deadlock victim and runs again).
    ///
    /// # Errors
    ///
    /// Fails on missing objects, lock timeout, or type mismatch.
    pub fn get_for_update<T: StoredObject>(&mut self, id: ObjectId) -> Result<Arc<T>> {
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
        self.lock(id, LockMode::Shared)?;
        match self.local(id) {
            Some(Write::Put { obj, .. }) => Ok(Arc::clone(obj)),
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
        self.lock(id, LockMode::Exclusive)?;
        self.check_exists(id)?;
        self.buffer_put(id, object);
        Ok(())
    }

    /// Buffers a put, pickling the object — the only time this
    /// transaction does.
    fn buffer_put(&mut self, id: ObjectId, obj: Arc<dyn StoredObject>) {
        let record = TypeRegistry::pickle(obj.as_ref());
        buffer(&mut self.writes, id, Write::Put { obj, record });
    }

    /// Deletes an object (exclusive lock; buffered until commit).
    ///
    /// # Errors
    ///
    /// Fails on lock timeout or if the object does not exist.
    pub fn delete(&mut self, id: ObjectId) -> Result<()> {
        let _t = metrics::span(modules::OBJECT_STORE);
        self.lock(id, LockMode::Exclusive)?;
        self.check_exists(id)?;
        buffer(&mut self.writes, id, Write::Delete);
        Ok(())
    }

    /// Number of objects with a buffered write (repeated writes to one
    /// object count once).
    pub fn pending_writes(&self) -> usize {
        self.writes.len()
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
        // every autocommit read — without building a batch.
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
    /// released on every outcome.
    ///
    /// # Panics
    ///
    /// If the transactions were begun on different object stores.
    pub fn commit_all(txs: Vec<Tx>) -> Vec<Result<()>> {
        let _t = metrics::span(modules::OBJECT_STORE);
        let Some(store) = txs.first().map(|tx| Arc::clone(&tx.store)) else {
            return Vec::new();
        };
        let mut staged: Vec<(Tx, Staged)> = txs
            .into_iter()
            .map(|mut tx| {
                assert!(
                    Arc::ptr_eq(&store, &tx.store),
                    "Tx::commit_all across object stores"
                );
                let staged = tx.stage();
                (tx, staged)
            })
            .collect();
        // A transaction with nothing to write commits without the chunk
        // store.
        let sets = staged
            .iter_mut()
            .map(|(_, (ops, _))| std::mem::take(ops))
            .filter(|ops| !ops.is_empty())
            .collect();
        let mut committed = store.chunks.commit_many(sets).into_iter();
        staged
            .into_iter()
            .map(|(mut tx, (_, cached))| {
                let result = if cached.is_empty() {
                    Ok(())
                } else {
                    committed
                        .next()
                        .expect("one result per op set")
                        .map(|()| tx.store.install(cached))
                        .map_err(Into::into)
                };
                tx.release();
                if result.is_ok() {
                    tx.created.clear();
                } else {
                    tx.return_created();
                }
                result
            })
            .collect()
    }

    /// Builds the commit's op set and cache updates: one op per buffered
    /// write, in first-touch order. Nothing is applied, but each written
    /// object leaves the cache: once the chunk store holds its new state
    /// (which a proof read serves), a lock-free hit must not serve the old
    /// one ([`ObjectStore::get_committed`]).
    fn stage(&mut self) -> Staged {
        let mut ops = Vec::with_capacity(self.writes.len());
        let mut cached = Vec::with_capacity(self.writes.len());
        for (id, write) in std::mem::take(&mut self.writes) {
            self.store.cache.remove(id);
            match write {
                Write::Put { obj, record } => {
                    cached.push((id, Some((obj, record.len()))));
                    ops.push(CommitOp::WriteChunk {
                        id: id.0,
                        bytes: record,
                    });
                }
                Write::Delete => {
                    // Deleting an object created in this same transaction
                    // would dealloc an unwritten chunk; that is legal.
                    cached.push((id, None));
                    ops.push(CommitOp::DeallocChunk { id: id.0 });
                }
            }
        }
        (ops, cached)
    }

    /// Aborts: drops the buffered writes and releases all locks. A
    /// deadlock victim ([`Tx::is_deadlock_victim`]) then waits, up to the
    /// store's lock timeout, until the transactions its refused request
    /// waited for have released that object, so that whoever runs it
    /// again does not close the same cycle at once.
    pub fn abort(mut self) {
        let _t = metrics::span(modules::OBJECT_STORE);
        self.writes.clear();
        self.release();
        self.return_created();
        if let Some((id, blockers)) = self.victim_of.take() {
            self.store.locks.await_release(id, &blockers);
        }
    }

    /// Ends the transaction: releases every lock it holds.
    fn release(&mut self) {
        self.finished = true;
        self.store.locks.release_all(self.id);
    }

    /// Gives the chunk ids of the objects this transaction created back to
    /// their partitions, once it ends without committing them. A store
    /// that is no longer live keeps them; a reopen frees them.
    fn return_created(&mut self) {
        for id in std::mem::take(&mut self.created) {
            let _ = self.store.chunks.release_chunk(id.0);
        }
    }
}

impl Drop for Tx {
    fn drop(&mut self) {
        if !self.finished {
            // An abandoned transaction aborts implicitly.
            self.store.locks.release_all(self.id);
            self.return_created();
        }
    }
}
