//! Snapshot-isolation MVCC transactions over the object store.
//!
//! The paper's object layer serializes writers with two-phase locking (§7);
//! this module adds the many-writer alternative the ROADMAP names: each
//! transaction is pinned to the *commit sequence number* (csn) of the last
//! committed transaction at begin time and reads the newest version of
//! every object with csn ≤ its snapshot. Writers never block readers.
//!
//! **Versioning.** Committed versions form in-memory *version chains*
//! per object. A chain starts with a *base* entry (csn 0) capturing the
//! object's committed state before its first MVCC overwrite, so older
//! snapshots keep reading the pre-image; publishes append newer entries.
//! Objects with no chain are served from the shared cache / chunk store —
//! their committed state has not diverged from any live snapshot's view.
//! Chains are pruned against the oldest active snapshot and disappear
//! entirely once only the current version remains, so memory tracks write
//! activity, not database size. Chains are volatile: recovery rebuilds
//! nothing because the chunk store holds exactly the committed state.
//!
//! **Commit protocol (first-committer-wins).**
//! 1. *Prepare* (manager lock): every written object is checked — a write
//!    lock held by an in-flight committer, or a chain entry newer than the
//!    snapshot, is a [`ObjectError::WriteConflict`]. Passing objects are
//!    write-locked.
//! 2. *Base capture* (no lock): objects without a chain load their current
//!    committed value; the write locks keep it stable.
//! 3. *Chunk commit* (no lock): one atomic
//!    [`ChunkStore`](tdb_core::store::ChunkStore) commit — concurrent
//!    transactional commits batch and share flushes exactly like raw
//!    commits.
//! 4. *Publish* (manager lock): the csn is assigned (`committed_csn + 1`,
//!    so visibility advances contiguously), versions append to their
//!    chains, write locks release, the shared cache updates.
//!
//! Readers consult chains before the chunk store, and base entries are
//! installed *before* the chunk commit, so a reader can never observe a
//! committed-but-unpublished value: between steps 3 and 4 the chain still
//! serves the pre-image.
//!
//! **Verifiable reads.** [`MvccTx::get_with_proof`] returns the object
//! plus a [`VerifiedRead`] — the exact stored record and its Merkle path
//! ([`ReadProof`]) to the partition's root digest — whenever the snapshot's
//! version is still the current committed version (the tree can only prove
//! current state). A client holding the root digest from
//! [`crate::ObjectStore::snapshot_root`] verifies with no keys and no
//! store access.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;

use tdb_core::proof::{verify_read_proof, ReadProof};
use tdb_core::store::CommitOp;
use tdb_core::PartitionId;
use tdb_crypto::HashValue;

use crate::cache::ShardedObjectCache;
use crate::errors::{ObjectError, Result};
use crate::pickle::{downcast, StoredObject, TypeRegistry};
use crate::{buffer, ObjectId, ObjectStore, Transactional};

/// One committed version of an object. `value: None` records deletion (or
/// pre-creation absence), so chains distinguish "deleted at csn" from
/// "never chained".
struct ChainEntry {
    csn: u64,
    value: Option<Arc<dyn StoredObject>>,
}

/// Aggregate MVCC counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct MvccStats {
    /// Transactions committed with at least one write.
    pub committed: u64,
    /// Commits refused by first-committer-wins conflict detection.
    pub conflicts: u64,
    /// Snapshots opened (transactions begun).
    pub snapshots: u64,
    /// Objects currently carrying a version chain.
    pub chained_objects: u64,
    /// Proof requests served without a proof because the snapshot's
    /// version was superseded or a commit was in flight.
    pub proof_fallbacks: u64,
}

#[derive(Default)]
struct MvccState {
    /// Highest published csn; new snapshots pin here.
    committed_csn: u64,
    /// Active snapshot refcounts: snapshot csn → open transactions.
    active: BTreeMap<u64, usize>,
    /// Version chains, ascending csn. Invariant: every chain holds an
    /// entry with csn ≤ the oldest active snapshot.
    chains: HashMap<ObjectId, Vec<ChainEntry>>,
    /// Objects an in-flight committer has claimed (prepare → publish).
    write_locks: HashSet<ObjectId>,
    stats: MvccStats,
}

/// The MVCC coordinator: one per object store when `mvcc` is enabled.
pub(crate) struct MvccManager {
    state: Mutex<MvccState>,
}

enum ChainRead {
    /// The chain resolves the snapshot's view (`None` = absent).
    Hit(Option<Arc<dyn StoredObject>>),
    /// No chain: the committed store state is the snapshot's view.
    Miss,
}

impl MvccManager {
    pub(crate) fn new() -> MvccManager {
        MvccManager {
            state: Mutex::new(MvccState::default()),
        }
    }

    fn begin_snapshot(&self) -> u64 {
        let mut s = self.state.lock();
        let snap = s.committed_csn;
        *s.active.entry(snap).or_insert(0) += 1;
        s.stats.snapshots += 1;
        snap
    }

    fn end_snapshot(&self, snapshot: u64) {
        let mut s = self.state.lock();
        if let Some(count) = s.active.get_mut(&snapshot) {
            *count -= 1;
            if *count == 0 {
                s.active.remove(&snapshot);
            }
        }
        Self::prune(&mut s);
    }

    fn chain_read(&self, id: ObjectId, snapshot: u64) -> ChainRead {
        let s = self.state.lock();
        match s.chains.get(&id) {
            Some(chain) => {
                let entry = chain
                    .iter()
                    .rev()
                    .find(|e| e.csn <= snapshot)
                    .expect("chain invariant: an entry at or below every active snapshot");
                ChainRead::Hit(entry.value.clone())
            }
            None => ChainRead::Miss,
        }
    }

    /// True when the chunk store's current bytes for `id` *are* the
    /// snapshot's version: no newer chain entry, no in-flight committer.
    fn provable(&self, id: ObjectId, snapshot: u64) -> bool {
        let s = self.state.lock();
        if s.write_locks.contains(&id) {
            return false;
        }
        s.chains
            .get(&id)
            .and_then(|c| c.last())
            .is_none_or(|last| last.csn <= snapshot)
    }

    fn note_proof_fallback(&self) {
        self.state.lock().stats.proof_fallbacks += 1;
    }

    /// First-committer-wins check and write-lock acquisition. Returns the
    /// objects that need a base entry captured (no chain yet).
    fn prepare(
        &self,
        writes: &[(ObjectId, Option<Arc<dyn StoredObject>>)],
        created: &HashSet<ObjectId>,
        snapshot: u64,
    ) -> Result<Vec<ObjectId>> {
        let mut s = self.state.lock();
        for (id, _) in writes {
            if s.write_locks.contains(id) {
                s.stats.conflicts += 1;
                return Err(ObjectError::WriteConflict(*id));
            }
            if created.contains(id) {
                // Freshly allocated ranks cannot have been written by a
                // concurrent committer.
                continue;
            }
            if let Some(last) = s.chains.get(id).and_then(|c| c.last()) {
                if last.csn > snapshot {
                    s.stats.conflicts += 1;
                    return Err(ObjectError::WriteConflict(*id));
                }
            }
        }
        let mut need_base = Vec::new();
        for (id, _) in writes {
            s.write_locks.insert(*id);
            if !s.chains.contains_key(id) {
                need_base.push(*id);
            }
        }
        Ok(need_base)
    }

    /// Installs base entries (csn 0) for objects about to diverge, so
    /// readers keep resolving the pre-image while the chunk commit is in
    /// flight. The caller holds the write locks, so `bases` are stable.
    fn install_bases(&self, bases: Vec<(ObjectId, Option<Arc<dyn StoredObject>>)>) {
        let mut s = self.state.lock();
        for (id, value) in bases {
            s.chains
                .entry(id)
                .or_insert_with(|| vec![ChainEntry { csn: 0, value }]);
        }
        s.stats.chained_objects = s.chains.len() as u64;
    }

    /// Publishes a successful commit: assigns the next contiguous csn,
    /// appends versions, releases write locks, refreshes the shared cache.
    fn publish(
        &self,
        writes: Vec<(ObjectId, Option<Arc<dyn StoredObject>>)>,
        sizes: &[usize],
        cache: &ShardedObjectCache,
    ) {
        let mut s = self.state.lock();
        let csn = s.committed_csn + 1;
        s.committed_csn = csn;
        for ((id, value), size) in writes.into_iter().zip(sizes) {
            match &value {
                Some(obj) => cache.put(id, Arc::clone(obj), *size),
                None => cache.remove(id),
            }
            s.write_locks.remove(&id);
            s.chains
                .entry(id)
                .or_default()
                .push(ChainEntry { csn, value });
        }
        s.stats.committed += 1;
        Self::prune(&mut s);
    }

    /// Releases write locks after a failed or abandoned commit. Base
    /// entries installed for this commit stay: they mirror the committed
    /// state and pruning reclaims them.
    fn release(&self, writes: &[(ObjectId, Option<Arc<dyn StoredObject>>)]) {
        let mut s = self.state.lock();
        for (id, _) in writes {
            s.write_locks.remove(id);
        }
        Self::prune(&mut s);
    }

    /// Drops chain entries no active snapshot can reach, and whole chains
    /// that only mirror the current committed state.
    fn prune(s: &mut MvccState) {
        let oldest = s.active.keys().next().copied().unwrap_or(s.committed_csn);
        let MvccState {
            chains,
            write_locks,
            ..
        } = s;
        chains.retain(|id, chain| {
            let keep_from = chain.iter().rposition(|e| e.csn <= oldest).unwrap_or(0);
            chain.drain(..keep_from);
            chain.len() > 1 || write_locks.contains(id)
        });
        s.stats.chained_objects = s.chains.len() as u64;
    }

    pub(crate) fn stats(&self) -> MvccStats {
        self.state.lock().stats
    }
}

/// A proof-carrying read: the exact stored record plus its Merkle path.
///
/// Ship `record` and `proof` to a client that pinned the partition's root
/// digest; [`VerifiedRead::verify`] (or [`verify_read_proof`] directly)
/// checks membership with no keys and no store access.
#[derive(Debug, Clone)]
pub struct VerifiedRead {
    /// The stored record (type tag + pickle) the proof vouches for.
    pub record: Vec<u8>,
    /// Merkle path from the record to the partition root digest.
    pub proof: ReadProof,
}

impl VerifiedRead {
    /// Checks the record against a trusted root digest.
    pub fn verify(&self, root: &HashValue) -> bool {
        verify_read_proof(&self.proof, &self.record, root)
    }
}

/// A snapshot-isolation transaction.
///
/// Reads resolve against the snapshot pinned at [`ObjectStore::begin_mvcc`]
/// time; writes buffer locally and commit atomically with
/// first-committer-wins conflict detection. Unlike [`crate::Tx`], no locks
/// are taken during the transaction — conflicts surface at commit as
/// [`ObjectError::WriteConflict`], and the transaction should retry
/// ([`ObjectStore::run_mvcc`] does).
pub struct MvccTx {
    store: Arc<ObjectStore>,
    snapshot: u64,
    /// Buffered writes, one per object, in first-touch order; `None`
    /// deletes.
    writes: Vec<(ObjectId, Option<Arc<dyn StoredObject>>)>,
    /// Ids allocated by this transaction (exempt from conflict checks).
    created: HashSet<ObjectId>,
    /// Set when the transaction commits or aborts, so `Drop` knows its
    /// snapshot is already released.
    finished: bool,
}

impl MvccTx {
    pub(crate) fn begin(store: Arc<ObjectStore>) -> MvccTx {
        let snapshot = store
            .mvcc
            .as_ref()
            .expect("begin_mvcc checked the knob")
            .begin_snapshot();
        MvccTx {
            store,
            snapshot,
            writes: Vec::new(),
            created: HashSet::new(),
            finished: false,
        }
    }

    fn mgr(&self) -> &MvccManager {
        self.store
            .mvcc
            .as_ref()
            .expect("MvccTx exists only when mvcc is enabled")
    }

    fn local(&self, id: ObjectId) -> Option<&Option<Arc<dyn StoredObject>>> {
        self.writes.iter().find(|(i, _)| *i == id).map(|(_, w)| w)
    }

    /// The commit sequence number this transaction reads at.
    pub fn snapshot(&self) -> u64 {
        self.snapshot
    }

    /// Number of objects with a buffered write (repeated writes to one
    /// object count once).
    pub fn pending_writes(&self) -> usize {
        self.writes.len()
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
        let _t = tdb_core::metrics::span(tdb_core::metrics::modules::OBJECT_STORE);
        let chunk = self.store.chunks.allocate_chunk(partition)?;
        let id = ObjectId(chunk);
        self.created.insert(id);
        buffer(&mut self.writes, id, Some(object));
        Ok(id)
    }

    /// Reads an object at the transaction's snapshot, checking its type.
    ///
    /// # Errors
    ///
    /// Fails if the object is absent at the snapshot or the type differs.
    pub fn get<T: StoredObject>(&mut self, id: ObjectId) -> Result<Arc<T>> {
        downcast(self.get_dyn(id)?)
    }

    /// Reads an object at the transaction's snapshot, dynamically typed.
    ///
    /// # Errors
    ///
    /// Fails if the object is absent at the snapshot.
    pub fn get_dyn(&mut self, id: ObjectId) -> Result<Arc<dyn StoredObject>> {
        let _t = tdb_core::metrics::span(tdb_core::metrics::modules::OBJECT_STORE);
        if let Some(w) = self.local(id) {
            return w.clone().ok_or(ObjectError::NotFound(id));
        }
        match self.mgr().chain_read(id, self.snapshot) {
            ChainRead::Hit(Some(obj)) => Ok(obj),
            ChainRead::Hit(None) => Err(ObjectError::NotFound(id)),
            ChainRead::Miss => self.store.load(id),
        }
    }

    /// Reads an object and, when possible, a client-verifiable proof of
    /// its membership in the committed Merkle tree.
    ///
    /// Returns `None` for the proof when the snapshot's version has been
    /// superseded by a newer commit, a commit on the object is in flight,
    /// or the object carries uncommitted local writes — the tree can only
    /// prove *current* committed state. The read value is correct either
    /// way.
    ///
    /// # Errors
    ///
    /// Fails like [`MvccTx::get`].
    pub fn get_with_proof<T: StoredObject>(
        &mut self,
        id: ObjectId,
    ) -> Result<(Arc<T>, Option<VerifiedRead>)> {
        let (obj, proof) = self.get_with_proof_dyn(id)?;
        Ok((downcast(obj)?, proof))
    }

    /// Dynamically-typed [`MvccTx::get_with_proof`] — the form the
    /// command layer uses, where the record crosses a wire untyped.
    ///
    /// # Errors
    ///
    /// Fails like [`MvccTx::get_dyn`].
    pub fn get_with_proof_dyn(
        &mut self,
        id: ObjectId,
    ) -> Result<(Arc<dyn StoredObject>, Option<VerifiedRead>)> {
        let _t = tdb_core::metrics::span(tdb_core::metrics::modules::OBJECT_STORE);
        if self.local(id).is_none() && self.mgr().provable(id, self.snapshot) {
            match self.store.chunks.read_with_proof(id.0) {
                Ok((record, proof)) => {
                    // Re-check after the read: a commit may have published
                    // between the provability check and the store read, in
                    // which case the bytes are newer than the snapshot.
                    if self.mgr().provable(id, self.snapshot) {
                        let obj = self.store.registry.unpickle(&record)?;
                        return Ok((obj, Some(VerifiedRead { record, proof })));
                    }
                }
                Err(tdb_core::CoreError::NotAllocated(_))
                | Err(tdb_core::CoreError::NotWritten(_)) => {
                    // Fall through: the chain path reports absence with the
                    // canonical error.
                }
                Err(e) => return Err(e.into()),
            }
        }
        self.mgr().note_proof_fallback();
        Ok((self.get_dyn(id)?, None))
    }

    fn exists_at_snapshot(&mut self, id: ObjectId) -> Result<bool> {
        match self.get_dyn(id) {
            Ok(_) => Ok(true),
            Err(ObjectError::NotFound(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Replaces an object's state (buffered until commit).
    ///
    /// # Errors
    ///
    /// Fails if the object is absent at the snapshot.
    pub fn put(&mut self, id: ObjectId, object: Arc<dyn StoredObject>) -> Result<()> {
        let _t = tdb_core::metrics::span(tdb_core::metrics::modules::OBJECT_STORE);
        if !self.exists_at_snapshot(id)? {
            return Err(ObjectError::NotFound(id));
        }
        buffer(&mut self.writes, id, Some(object));
        Ok(())
    }

    /// Deletes an object (buffered until commit).
    ///
    /// # Errors
    ///
    /// Fails if the object is absent at the snapshot.
    pub fn delete(&mut self, id: ObjectId) -> Result<()> {
        let _t = tdb_core::metrics::span(tdb_core::metrics::modules::OBJECT_STORE);
        if !self.exists_at_snapshot(id)? {
            return Err(ObjectError::NotFound(id));
        }
        buffer(&mut self.writes, id, None);
        Ok(())
    }

    /// Commits under first-committer-wins snapshot isolation.
    ///
    /// # Errors
    ///
    /// [`ObjectError::WriteConflict`] when another transaction committed a
    /// written object after this one's snapshot (retry); chunk-store
    /// failures roll back with nothing applied.
    pub fn commit(mut self) -> Result<()> {
        let _t = tdb_core::metrics::span(tdb_core::metrics::modules::OBJECT_STORE);
        self.finished = true;
        let writes = std::mem::take(&mut self.writes);
        let mgr = self.mgr();
        if writes.is_empty() {
            mgr.end_snapshot(self.snapshot);
            return Ok(());
        }

        // 1. Conflict check + write locks.
        let need_base = match mgr.prepare(&writes, &self.created, self.snapshot) {
            Ok(need) => need,
            Err(e) => {
                mgr.end_snapshot(self.snapshot);
                return Err(e);
            }
        };

        // 2. Base capture: stable under our write locks.
        let mut bases = Vec::with_capacity(need_base.len());
        for id in need_base {
            let base = if self.created.contains(&id) {
                None
            } else {
                match self.store.load(id) {
                    Ok(obj) => Some(obj),
                    Err(ObjectError::NotFound(_)) => None,
                    Err(e) => {
                        mgr.release(&writes);
                        mgr.end_snapshot(self.snapshot);
                        return Err(e);
                    }
                }
            };
            bases.push((id, base));
        }
        mgr.install_bases(bases);

        // 3. One atomic chunk-store commit; concurrent transactional
        // commits batch through the group-commit leader.
        let mut ops = Vec::with_capacity(writes.len());
        let mut sizes = Vec::with_capacity(writes.len());
        for (id, w) in &writes {
            match w {
                Some(obj) => {
                    let record = TypeRegistry::pickle(obj.as_ref());
                    sizes.push(record.len());
                    ops.push(CommitOp::WriteChunk {
                        id: id.0,
                        bytes: record,
                    });
                }
                None => {
                    sizes.push(0);
                    ops.push(CommitOp::DeallocChunk { id: id.0 });
                }
            }
        }
        match self.store.chunks.commit(ops) {
            Ok(()) => {
                // 4. Publish: csn assignment and visibility, atomically.
                mgr.publish(writes, &sizes, &self.store.cache);
                mgr.end_snapshot(self.snapshot);
                Ok(())
            }
            Err(e) => {
                mgr.release(&writes);
                mgr.end_snapshot(self.snapshot);
                Err(e.into())
            }
        }
    }

    /// Aborts: drops buffered writes and releases the snapshot.
    pub fn abort(mut self) {
        self.finished = true;
        self.writes.clear();
        self.mgr().end_snapshot(self.snapshot);
    }
}

impl Drop for MvccTx {
    fn drop(&mut self) {
        if !self.finished {
            self.mgr().end_snapshot(self.snapshot);
        }
    }
}

impl Transactional for MvccTx {
    fn create(
        &mut self,
        partition: PartitionId,
        object: Arc<dyn StoredObject>,
    ) -> Result<ObjectId> {
        MvccTx::create(self, partition, object)
    }

    fn get_dyn(&mut self, id: ObjectId) -> Result<Arc<dyn StoredObject>> {
        MvccTx::get_dyn(self, id)
    }

    fn get_for_update<T: StoredObject>(&mut self, id: ObjectId) -> Result<Arc<T>> {
        // MVCC takes no read locks; write conflicts surface at commit.
        MvccTx::get(self, id)
    }

    fn put(&mut self, id: ObjectId, object: Arc<dyn StoredObject>) -> Result<()> {
        MvccTx::put(self, id, object)
    }

    fn delete(&mut self, id: ObjectId) -> Result<()> {
        MvccTx::delete(self, id)
    }
}
