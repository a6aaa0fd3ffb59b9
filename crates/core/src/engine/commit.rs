//! Commit processing (§4.6, §4.8.2): validation, the apply loop, commit
//! sealing, and group-commit batches.
//!
//! A commit appends the sealed versions of its op set to the log, installs
//! their descriptors in the chunk map, and seals the set per the validation
//! protocol — a signed, counted commit chunk (counter mode) or a chained
//! hash pushed to the tamper-resistant register (direct mode). Every
//! commit is a member of a batch: members apply independently (per-commit
//! atomicity) and share one durability point per batch.

use std::collections::HashSet;
use std::sync::Arc;

use tdb_crypto::HashValue;

use crate::codec::{Dec, Enc};
use crate::descriptor::{ChunkStatus, Descriptor};
use crate::engine::rollback::Savepoint;
use crate::errors::{CoreError, FaultClass, Result};
use crate::ids::{ChunkId, PartitionId};
use crate::leader::PartitionLeader;
use crate::metrics::{self, modules};
use crate::params::CryptoParams;
use crate::pipeline::{self, Presealed, Seals};
use crate::store::{Inner, TrustedBackend, ValidationMode};
use crate::version::{seal_version, CommitRecord, DeallocRecord, VersionHeader, VersionKind};

/// Conservative byte budget reserved for a commit chunk, so finalizing a
/// commit set never forces a segment switch after the set hash is taken.
pub(crate) const COMMIT_CHUNK_ROOM: u32 = 256;

/// One operation inside an atomic commit (§4.1, §5.1).
#[derive(Debug)]
pub enum CommitOp {
    /// Sets the state of an allocated chunk.
    WriteChunk {
        /// Target chunk (allocated via [`crate::store::ChunkStore::allocate_chunk`]).
        id: ChunkId,
        /// New state, of any size.
        bytes: Vec<u8>,
    },
    /// Deallocates a chunk.
    DeallocChunk {
        /// Target chunk.
        id: ChunkId,
    },
    /// Writes an empty partition with the given parameters
    /// (`Write(partitionId, secretKey, cipher, hashFunction)` of §5.1).
    CreatePartition {
        /// Target id (allocated via [`crate::store::ChunkStore::allocate_partition`]).
        id: PartitionId,
        /// Cryptographic parameters (cipher, hash, key).
        params: CryptoParams,
    },
    /// Copies the current state of `src` to `dst`
    /// (`Write(partitionId, sourcePId)` of §5.1). Cheap: copy-on-write.
    CopyPartition {
        /// Target id (allocated, unwritten).
        dst: PartitionId,
        /// Source partition.
        src: PartitionId,
    },
    /// Deallocates a partition, all of its copies, and all their chunks.
    DeallocPartition {
        /// Target partition.
        id: PartitionId,
    },
}

impl CommitOp {
    /// The chunk whose version this op writes under an id it names: a
    /// data chunk, or a new partition's leader.
    fn written_id(&self) -> Option<ChunkId> {
        match self {
            CommitOp::WriteChunk { id, .. } => Some(*id),
            CommitOp::CreatePartition { id, .. } | CommitOp::CopyPartition { dst: id, .. } => {
                Some(ChunkId::leader_chunk(*id))
            }
            CommitOp::DeallocChunk { .. } | CommitOp::DeallocPartition { .. } => None,
        }
    }
}

impl Inner {
    // -- Commit (§4.6) --------------------------------------------------------

    /// Validation is read-only: a failure here (including a transient read
    /// fault resolving a descriptor, or a bounded log at its cleaner
    /// reserve) leaves the store untouched and live.
    fn validate_ops(&mut self, ops: &[CommitOp]) -> Result<()> {
        self.check_reserve(0)?;
        // Validation runs against pre-commit state plus the effects of
        // earlier ops in the same set (e.g. create-then-write).
        let mut created: Vec<PartitionId> = Vec::new();
        let mut deallocated: Vec<PartitionId> = Vec::new();
        let mut freed: HashSet<ChunkId> = HashSet::new();
        for op in ops {
            match op {
                CommitOp::WriteChunk { id, bytes } => {
                    if id.partition.is_system() || !id.pos.is_data() {
                        return Err(CoreError::NotAllocated(*id));
                    }
                    if !created.contains(&id.partition)
                        && self.effective_status(*id)? == ChunkStatus::Unallocated
                    {
                        return Err(CoreError::NotAllocated(*id));
                    }
                    let max = self.log.max_version_len() as usize;
                    if bytes.len() + 512 > max {
                        return Err(CoreError::ChunkTooLarge {
                            size: bytes.len(),
                            max: max - 512,
                        });
                    }
                }
                CommitOp::DeallocChunk { id } => {
                    if id.partition.is_system() || !id.pos.is_data() || !freed.insert(*id) {
                        return Err(CoreError::NotAllocated(*id));
                    }
                    if self.effective_status(*id)? == ChunkStatus::Unallocated {
                        return Err(CoreError::NotAllocated(*id));
                    }
                }
                CommitOp::CreatePartition { id, params } => {
                    let exists = self.partition_exists(*id)? && !deallocated.contains(id);
                    if id.is_system() || exists {
                        return Err(CoreError::PartitionExists(*id));
                    }
                    params.runtime()?; // Key length check.
                    created.push(*id);
                }
                CommitOp::CopyPartition { dst, src } => {
                    let exists = self.partition_exists(*dst)? && !deallocated.contains(dst);
                    if dst.is_system() || exists {
                        return Err(CoreError::PartitionExists(*dst));
                    }
                    if !created.contains(src) {
                        self.leader_entry(*src)?;
                    }
                    created.push(*dst);
                }
                CommitOp::DeallocPartition { id } => {
                    if deallocated.contains(id) {
                        return Err(CoreError::NoSuchPartition(*id));
                    }
                    self.leader_entry(*id)?;
                    deallocated.push(*id);
                }
            }
        }
        Ok(())
    }

    /// Applies a validated op set: appends every version and installs the
    /// descriptors, consuming the seals its committer made where they still
    /// hold.
    ///
    /// The set's frees go into one dealloc record after its versions,
    /// unless an op reuses an id the set freed earlier: recovery replays a
    /// set's records in log order, so the frees pending so far are
    /// appended first, and the free replays before the reuse.
    fn apply_ops(&mut self, ops: Vec<CommitOp>, mut sealed: Seals) -> Result<()> {
        let mut dealloc_ids: Vec<ChunkId> = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            if op.written_id().is_some_and(|id| dealloc_ids.contains(&id)) {
                self.append_dealloc_chunk(&std::mem::take(&mut dealloc_ids))?;
            }
            let pre = sealed.get_mut(i).and_then(Option::take);
            self.apply_op(op, pre, &mut dealloc_ids)?;
        }
        if !dealloc_ids.is_empty() {
            self.append_dealloc_chunk(&dealloc_ids)?;
        }
        Ok(())
    }

    /// Hashes, seals and appends one named version outside any batch (a
    /// partition leader, a write its committer could not seal) and returns
    /// its descriptor.
    pub(crate) fn write_named(
        &mut self,
        kind: VersionKind,
        id: ChunkId,
        body: &[u8],
    ) -> Result<Descriptor> {
        let job = (id, self.crypto_for(id.partition)?, body);
        let pre = pipeline::seal_one(&self.system, kind, &job);
        self.append_presealed(pre)
    }

    /// Appends an already hashed and sealed version and returns its
    /// descriptor.
    pub(crate) fn append_presealed(&mut self, pre: Presealed) -> Result<Descriptor> {
        let location = self.append(&pre.sealed)?;
        Ok(Descriptor::written(
            location,
            pre.sealed.len() as u32,
            pre.body_len,
            pre.hash,
        ))
    }

    /// Appends sealed bytes to the log's run buffer; nothing reaches the
    /// device until [`Inner::flush_log`].
    pub(crate) fn append(&mut self, sealed: &[u8]) -> Result<u64> {
        self.check_reserve(sealed.len() as u32)?;
        let loc = self.log.append(
            &mut self.sys_leader.log,
            &mut self.undo,
            &self.system,
            &mut self.hashes,
            sealed,
        )?;
        self.stats.bytes_appended += sealed.len() as u64;
        Ok(loc)
    }

    /// Ensures `len` more bytes fit in the tail segment, switching to a
    /// fresh one if not (see [`crate::log::SegmentedLog::ensure_room`]).
    pub(crate) fn ensure_room(&mut self, len: u32) -> Result<()> {
        self.check_reserve(len)?;
        self.log.ensure_room(
            &mut self.sys_leader.log,
            &mut self.undo,
            &self.system,
            &mut self.hashes,
            len,
        )
    }

    /// Flushes the log, writing out the buffered runs first, and keeps the
    /// `wrote_log` rollback marker honest: it is set as soon as buffered
    /// bytes reach the device, whether or not the flush itself succeeds.
    /// A mutation that fails before this point left nothing on the device,
    /// so it rolls back and stays live.
    pub(crate) fn flush_log(&mut self) -> Result<()> {
        let runs_before = self.log.coalesce_counters().1;
        let result = self.log.flush();
        if self.log.coalesce_counters().1 > runs_before {
            self.wrote_log = true;
        }
        if result.is_ok() {
            self.stats.flushes += 1;
        }
        result
    }

    fn apply_op(
        &mut self,
        op: CommitOp,
        pre: Option<Presealed>,
        dealloc_ids: &mut Vec<ChunkId>,
    ) -> Result<()> {
        match op {
            CommitOp::WriteChunk { id, bytes } => {
                // A sealed version is location-independent (§4.9.1, §5.4):
                // the committer's seal stands if it was made under the very
                // crypto the partition has now. One that is missing, or was
                // made under a key a recreate has replaced, is made here.
                let crypto = self.crypto_for(id.partition)?;
                let desc = match pre {
                    Some(pre) if Arc::ptr_eq(&pre.crypto, &crypto) => self.append_presealed(pre)?,
                    _ => {
                        self.bodies_sealed_under_lock += 1;
                        self.write_named(VersionKind::Named, id, &bytes)?
                    }
                };
                self.install_chunk(id, desc)?;
            }
            CommitOp::DeallocChunk { id } => {
                // Deallocating a reserved-but-unwritten id is purely an
                // in-memory affair: there is no persistent state to undo.
                if self.get_descriptor(id)?.is_written() {
                    dealloc_ids.push(id);
                    self.free_chunk(id)?;
                } else {
                    self.release_chunk(id)?;
                }
            }
            CommitOp::CreatePartition { id, params } => {
                self.write_partition_leader(id, PartitionLeader::new(params))?;
            }
            CommitOp::CopyPartition { dst, src } => {
                let mut src_leader = self.leader_entry(src)?.leader.clone();
                let dst_leader = src_leader.copied(src);
                src_leader.copies.push(dst);
                // Persist the source's updated copies list.
                self.write_partition_leader(src, src_leader)?;
                self.write_partition_leader(dst, dst_leader)?;
            }
            CommitOp::DeallocPartition { id } => {
                self.dealloc_partition(id, dealloc_ids)?;
            }
        }
        Ok(())
    }

    fn append_dealloc_chunk(&mut self, ids: &[ChunkId]) -> Result<()> {
        // Encode straight from the borrowed id list; no owned record copy.
        let body = DeallocRecord::encode_ids(ids);
        let sealed = seal_version(
            &self.system,
            &self.system,
            VersionKind::Dealloc,
            VersionHeader::unnamed_id(),
            &body,
        );
        self.append(&sealed)?;
        Ok(())
    }

    /// The durability point every member appended since the last one
    /// shares: "a commit operation waits until the commit set is written
    /// to the untrusted store reliably" (§4.8.2.1). In direct mode the
    /// register write after the flush is "the real commit point"; in
    /// counter mode the counter moves once, after the flush, if the lag
    /// exceeds Δut − 1. Either covers every member at once.
    pub(crate) fn durable_point(&mut self) -> Result<()> {
        self.flush_log()?;
        match self.config.validation {
            ValidationMode::DirectHash => self.write_direct_record(),
            ValidationMode::Counter { delta_ut, .. }
                if self.commit_count - self.trusted_count > delta_ut.saturating_sub(1) =>
            {
                self.advance_counter(self.commit_count)
            }
            ValidationMode::Counter { .. } => Ok(()),
        }
    }

    /// Reaches a durable point before a counted commit set (a batch member,
    /// a checkpoint, a cleaning pass) whose commit chunk, once flushed,
    /// would pass recovery's ceiling `t + Δut + 1` should a crash take the
    /// counter advance (§4.8.2.2). Returns whether it did.
    pub(crate) fn durable_point_if_due(&mut self) -> Result<bool> {
        let due = matches!(self.config.validation, ValidationMode::Counter { delta_ut, .. }
            if self.commit_count - self.trusted_count > delta_ut);
        if due {
            self.durable_point()?;
        }
        Ok(due)
    }

    /// Ends the open commit set with its signed, counted commit chunk
    /// (§4.8.2.2) and returns the new commit count. The caller has reserved
    /// [`COMMIT_CHUNK_ROOM`], so the append never switches segments.
    pub(crate) fn append_commit_chunk(&mut self) -> Result<u64> {
        let set_hash = self.hashes.end_set();
        let count = self.commit_count + 1;
        let body = CommitRecord::encode_signed(&self.system, count, set_hash.as_bytes());
        let sealed = seal_version(
            &self.system,
            &self.system,
            VersionKind::Commit,
            VersionHeader::unnamed_id(),
            &body,
        );
        self.append(&sealed)?;
        self.commit_count = count;
        Ok(count)
    }

    /// Seals one member's commit set (§4.6, §4.8.2): in counter mode,
    /// appends its signed, counted commit chunk. The flush and any counter
    /// advance or register write wait for the batch's durable point.
    pub(crate) fn finish_commit_batched(&mut self) -> Result<()> {
        if matches!(self.config.validation, ValidationMode::Counter { .. }) {
            // Reserve room so the commit chunk follows its set in the same
            // segment (the set hash must cover any next-segment chunk, so
            // no switch may happen after end_set).
            self.ensure_room(COMMIT_CHUNK_ROOM)?;
            self.append_commit_chunk()?;
        }
        self.stats.commits += 1;
        Ok(())
    }

    /// Executes a group-commit batch: every member is validated, sealed,
    /// and applied independently (per-commit atomicity), their log appends
    /// coalesce in the log's run buffer, and one durable point at the end
    /// makes the whole batch durable; [`Inner::durable_point_if_due`] adds
    /// one only before a member that would outrun the counter window.
    ///
    /// Failure policy per member:
    /// - validation errors fail the member alone, before any state change;
    /// - apply errors roll just that member back (none of its bytes reached
    ///   the device) and the batch continues live;
    /// - integrity violations poison and abort the batch;
    /// - a failed durable point aborts the batch, and degrades the store if
    ///   bytes reached the device ([`Inner::abort_batch`]).
    ///
    /// No caller is ever acknowledged before its bytes are flushed and, in
    /// counter mode, while it is more than Δut − 1 past the counter.
    ///
    /// `sealed` holds what the members' committers sealed before the engine
    /// lock, per member and op.
    pub(crate) fn commit_batch(
        &mut self,
        sets: Vec<Vec<CommitOp>>,
        mut sealed: Vec<Seals>,
    ) -> Vec<Result<()>> {
        let n = sets.len();
        self.stats.commit_batches += 1;
        self.stats.batched_commits += n as u64;
        self.stats.batch_size_hist[batch_size_bucket(n)] += 1;
        sealed.resize_with(n, Vec::new);

        let mut results: Vec<Result<()>> = Vec::with_capacity(n);
        // Members in `results[..durable]` are covered by a device flush.
        // `durable_sp` is the savepoint of the first member applied since
        // that flush — the engine state at the durable point, since nothing
        // before that member changed it — and `None` while there is no
        // such member: then there is nothing to unwind. A durable point
        // closes the journals, which voids every earlier savepoint.
        let mut durable = 0usize;
        let mut durable_sp: Option<Savepoint> = None;
        let mut abort: Option<(String, FaultClass)> = None;

        for (ops, pre) in sets.into_iter().zip(sealed) {
            if let Some((reason, class)) = &abort {
                results.push(Err(CoreError::BatchAborted {
                    reason: reason.clone(),
                    class: *class,
                }));
                continue;
            }
            if ops.is_empty() {
                results.push(Ok(()));
                continue;
            }
            if let Err(e) = self.validate_ops(&ops) {
                // Read-only failure: the member dies alone, batch-mates
                // are untouched.
                results.push(Err(e));
                continue;
            }
            self.wrote_log = false;
            match self.durable_point_if_due() {
                Ok(false) => {}
                Ok(true) => {
                    durable = results.len();
                    durable_sp = None;
                    self.close_journals();
                }
                Err(e) => {
                    let sp = durable_sp.take().expect("applied since the durable point");
                    abort = Some(self.abort_batch(&e, &sp, &mut results, durable));
                    results.push(Err(e));
                    continue;
                }
            }
            let sp = self.savepoint();
            if durable_sp.is_none() {
                durable_sp = Some(sp.clone());
            }
            if matches!(self.config.validation, ValidationMode::Counter { .. }) {
                self.hashes.begin_set();
            }
            let result = self
                .apply_ops(ops, pre)
                .and_then(|()| self.finish_commit_batched());
            match result {
                Ok(()) => {
                    results.push(Ok(()));
                    // Automatic checkpoint. A successful checkpoint flushes
                    // and syncs the trusted store, so it is a durable point
                    // too.
                    match self.maybe_checkpoint() {
                        Ok(false) => {}
                        Ok(true) => {
                            durable = results.len();
                            durable_sp = None;
                            self.close_journals();
                        }
                        Err(e) => {
                            // The member was applied but its follow-on
                            // checkpoint failed (and did its own rollback
                            // and health transition) — surface the error
                            // as the member's result.
                            if !self.health.is_live() {
                                let sp = durable_sp.take().expect("this member applied");
                                abort = Some(self.abort_batch(&e, &sp, &mut results, durable));
                            }
                            *results.last_mut().expect("just pushed") = Err(e);
                        }
                    }
                }
                Err(e) if e.fault_class() == FaultClass::Integrity => {
                    // Integrity is in doubt: everything since the last
                    // durable point is unrecoverable in place.
                    let sp = durable_sp.take().expect("set with this member's savepoint");
                    abort = Some(self.abort_batch(&e, &sp, &mut results, durable));
                    results.push(Err(e));
                }
                Err(e) => {
                    // Nothing reached the device: this member rolls back
                    // clean and the batch continues live.
                    self.rollback(&sp);
                    results.push(Err(e));
                }
            }
        }

        // Finalize: one shared durability point for everything the batch
        // buffered since the last flush.
        if abort.is_none() && self.log.buffered_len() > 0 {
            self.wrote_log = false;
            if let Err(e) = self.durable_point() {
                let sp = durable_sp.take().expect("applied since the durable point");
                self.abort_batch(&e, &sp, &mut results, durable);
            }
        }
        self.close_journals();
        if let ValidationMode::Counter { delta_ut, .. } = self.config.validation {
            debug_assert!(self.commit_count - self.trusted_count <= delta_ut.saturating_sub(1));
        }
        results
    }

    /// Ends a batch at a failure no member can take back alone (an integrity
    /// violation, a failed durable point or checkpoint): unwinds to the last
    /// durable point that held, moves the health state machine unless a
    /// checkpoint already did, and demotes every member applied since to
    /// [`CoreError::BatchAborted`] of `e`'s class. Returns the reason and
    /// the class.
    fn abort_batch(
        &mut self,
        e: &CoreError,
        durable_sp: &Savepoint,
        results: &mut [Result<()>],
        durable: usize,
    ) -> (String, FaultClass) {
        if self.health.is_live() {
            self.end_mutation(durable_sp, Some(e), "batched commit");
        } else {
            self.rollback(durable_sp);
        }
        let (reason, class) = (e.to_string(), e.fault_class());
        for r in results.iter_mut().skip(durable).filter(|r| r.is_ok()) {
            *r = Err(CoreError::BatchAborted {
                reason: reason.clone(),
                class,
            });
        }
        (reason, class)
    }

    pub(crate) fn advance_counter(&mut self, count: u64) -> Result<()> {
        let _t = metrics::span(modules::TRUSTED_STORE);
        match &self.trusted {
            TrustedBackend::Counter(c) => c.advance_to(count)?,
            TrustedBackend::Register(_) => {
                return Err(CoreError::Corrupt(
                    "counter validation configured with a register backend".into(),
                ))
            }
        }
        self.trusted_count = count;
        Ok(())
    }

    /// Writes `{chain, tail}` to the tamper-resistant register — "the real
    /// commit point" of direct hash validation (§4.8.2.1).
    pub(crate) fn write_direct_record(&mut self) -> Result<()> {
        let record = DirectRecord {
            chain: self.hashes.chain,
            tail: self.log.tail_location(),
        };
        let _t = metrics::span(modules::TRUSTED_STORE);
        match &self.trusted {
            TrustedBackend::Register(r) => r.write(&record.encode())?,
            TrustedBackend::Counter(_) => {
                return Err(CoreError::Corrupt(
                    "direct validation configured with a counter backend".into(),
                ))
            }
        }
        Ok(())
    }

    /// Automatic checkpoint, when [`Inner::checkpoint_due`]. Returns
    /// whether it checkpointed.
    fn maybe_checkpoint(&mut self) -> Result<bool> {
        let due = self.checkpoint_due();
        if due {
            self.checkpoint()?;
        }
        Ok(due)
    }
}

/// Histogram bucket for a group-commit batch of `n` members: bucket `i`
/// covers sizes in `(2^(i-1), 2^i]` (1, 2, 3–4, 5–8, …), capped at 7.
fn batch_size_bucket(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        ((usize::BITS - (n - 1).leading_zeros()) as usize).min(7)
    }
}

/// The direct-validation record kept in the tamper-resistant register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DirectRecord {
    /// Chained hash over the residual log.
    pub chain: HashValue,
    /// Exact end of the validated log.
    pub tail: u64,
}

impl DirectRecord {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(self.chain.len() + 12);
        e.bytes(self.chain.as_bytes());
        e.u64(self.tail);
        e.finish()
    }

    pub(crate) fn decode(buf: &[u8]) -> Result<DirectRecord> {
        let mut d = Dec::new(buf);
        let chain = HashValue::new(d.bytes()?);
        let tail = d.u64()?;
        d.expect_done("trusted direct record")?;
        Ok(DirectRecord { chain, tail })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::PartitionCrypto;
    use crate::store::{ChunkStore, ChunkStoreConfig};
    use tdb_crypto::SecretKey;
    use tdb_storage::{CounterOverTrusted, MemStore, MemTrustedStore};

    /// A group-commit batch of one caller's sets is sealed on the caller's
    /// thread before the engine lock, all its members' writes in one
    /// pipeline pass: two 1000-byte autocommits (`kv-update`'s usual
    /// batch), and two bulk members whose 80 bodies go as lanes of one
    /// bitsliced call where the CPU has it. The engine seals none of them.
    #[test]
    fn group_commit_batch_is_sealed_before_the_engine_lock() {
        let counter = CounterOverTrusted::new(Arc::new(MemTrustedStore::new(16)));
        let store = ChunkStore::create(
            Arc::new(MemStore::new()),
            TrustedBackend::Counter(Arc::new(counter)),
            SecretKey::random(24),
            ChunkStoreConfig::default(),
        )
        .unwrap();
        let p = create(&store, CryptoParams::paper_default());
        let member = |writes: usize| -> Vec<CommitOp> {
            (0..writes)
                .map(|_| CommitOp::WriteChunk {
                    id: store.allocate_chunk(p).unwrap(),
                    bytes: vec![0x5A; 1000],
                })
                .collect()
        };

        let small = vec![member(1), member(1)];
        assert!(store.commit_many(small).iter().all(Result::is_ok));
        let bulk = vec![member(40), member(40)];
        let ids: Vec<ChunkId> = bulk
            .iter()
            .flatten()
            .map(|op| match op {
                CommitOp::WriteChunk { id, .. } => *id,
                _ => unreachable!(),
            })
            .collect();
        assert!(store.commit_many(bulk).iter().all(Result::is_ok));
        assert_eq!(store.stats().batched_commits, 5, "one create, four members");
        assert_eq!(store.debug_bodies_sealed_under_lock(), 0);
        for id in ids {
            assert_eq!(store.read(id).unwrap(), vec![0x5A; 1000]);
        }
    }

    /// A device, a trusted register and a key: what reopening needs.
    struct Platform {
        device: Arc<MemStore>,
        register: Arc<MemTrustedStore>,
        secret: SecretKey,
    }

    impl Platform {
        fn new() -> Platform {
            Platform {
                device: Arc::new(MemStore::new()),
                register: Arc::new(MemTrustedStore::new(16)),
                secret: SecretKey::random(24),
            }
        }

        fn backend(&self) -> TrustedBackend {
            let register = Arc::clone(&self.register) as Arc<dyn tdb_storage::TrustedStore>;
            TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(register)))
        }

        fn create(&self) -> ChunkStore {
            let device = Arc::clone(&self.device) as tdb_storage::SharedUntrusted;
            let config = ChunkStoreConfig::default();
            ChunkStore::create(device, self.backend(), self.secret.clone(), config).unwrap()
        }

        /// Reopens from the flushed bytes and checks every `(id, body)`
        /// reads back through recovery's validation.
        fn reopen_and_audit(&self, written: &[(ChunkId, Vec<u8>)]) {
            let image = Arc::new(MemStore::from_bytes(self.device.image()));
            let config = ChunkStoreConfig::default();
            let store = ChunkStore::open(image, self.backend(), self.secret.clone(), config)
                .expect("reopen audits clean");
            for (id, body) in written {
                assert_eq!(&store.read(*id).unwrap(), body, "{id:?} after reopen");
            }
        }
    }

    fn create(store: &ChunkStore, params: CryptoParams) -> PartitionId {
        let p = store.allocate_partition().unwrap();
        let create = CommitOp::CreatePartition { id: p, params };
        store.commit(vec![create]).unwrap();
        p
    }

    /// A version sealed as a committer would, under `crypto`.
    fn early_seal(
        store: &ChunkStore,
        id: ChunkId,
        crypto: &Arc<PartitionCrypto>,
        body: &[u8],
    ) -> Seals {
        let job = (id, Arc::clone(crypto), body);
        let system = Arc::clone(&store.inner.lock().system);
        vec![
            None,
            Some(pipeline::seal_one(&system, VersionKind::Named, &job)),
        ]
    }

    /// A committer seals under the partition's published crypto; the
    /// partition is deallocated and recreated under a new key before its
    /// batch runs. The leader reseals the body under the new key.
    #[test]
    fn early_seal_under_a_replaced_key_is_resealed_under_the_current_one() {
        let platform = Platform::new();
        let store = platform.create();
        let p = create(&store, CryptoParams::paper_default());
        let warm = store.allocate_chunk(p).unwrap();
        let first = vec![CommitOp::WriteChunk {
            id: warm,
            bytes: vec![1; 300],
        }];
        store.commit(first).unwrap();
        assert_eq!(
            store.debug_bodies_sealed_under_lock(),
            0,
            "published on create"
        );

        // The id this committer's write will carry once `p` is recreated.
        let id = ChunkId::data(p, 0);
        let body = vec![0xA5; 700];
        let set = || {
            vec![CommitOp::WriteChunk {
                id,
                bytes: body.clone(),
            }]
        };
        let sealed = store.seal_early(&[set()]);
        let stale = sealed[0][0]
            .as_ref()
            .expect("sealed under the published key");
        let old = Arc::clone(&stale.crypto);

        store
            .commit(vec![CommitOp::DeallocPartition { id: p }])
            .unwrap();
        assert_eq!(
            create(&store, CryptoParams::paper_default()),
            p,
            "id reused"
        );
        assert_eq!(store.allocate_chunk(p).unwrap(), id);
        let current = store.inner.lock().crypto_for(p).unwrap();
        assert!(!Arc::ptr_eq(&old, &current));

        let results = store.inner.lock().commit_batch(vec![set()], sealed);
        assert!(results.iter().all(Result::is_ok), "{results:?}");
        assert_eq!(store.read(id).unwrap(), body);
        assert_eq!(store.debug_bodies_sealed_under_lock(), 1);
        drop(store);
        platform.reopen_and_audit(&[(id, body)]);
    }

    /// A write into a copy's destination in the copy's own set: an early
    /// seal made under another crypto is dropped, and the body is sealed
    /// under the source's key, which the copy shares.
    #[test]
    fn early_seal_for_a_copy_destination_is_resealed_under_the_copy_key() {
        let platform = Platform::new();
        let store = platform.create();
        let p = create(&store, CryptoParams::paper_default());
        let src = store.allocate_chunk(p).unwrap();
        let kept = vec![3; 200];
        let first = vec![CommitOp::WriteChunk {
            id: src,
            bytes: kept.clone(),
        }];
        store.commit(first).unwrap();

        let q = store.allocate_partition().unwrap();
        let id = ChunkId::data(q, src.pos.rank);
        let body = vec![0x5C; 900];
        let foreign = Arc::new(CryptoParams::paper_default().runtime().unwrap());
        let set = vec![
            CommitOp::CopyPartition { dst: q, src: p },
            CommitOp::WriteChunk {
                id,
                bytes: body.clone(),
            },
        ];
        let sealed = early_seal(&store, id, &foreign, &body);
        let results = store.inner.lock().commit_batch(vec![set], vec![sealed]);
        assert!(results.iter().all(Result::is_ok), "{results:?}");
        assert_eq!(store.read(id).unwrap(), body);
        assert_eq!(store.read(src).unwrap(), kept, "the source is untouched");
        assert_eq!(store.debug_bodies_sealed_under_lock(), 1);
        drop(store);
        platform.reopen_and_audit(&[(id, body), (src, kept)]);
    }

    /// A set that creates a partition and writes into it: the committer
    /// seals nothing for it, and an early seal handed in anyway (made under
    /// a key other than the create's) is dropped. Both bodies are sealed
    /// under the created partition's key.
    #[test]
    fn writes_into_a_partition_created_in_their_set_are_sealed_under_its_key() {
        let platform = Platform::new();
        let store = platform.create();
        let q = store.allocate_partition().unwrap();
        let (a, b) = (ChunkId::data(q, 0), ChunkId::data(q, 1));
        let set = |bodies: [&Vec<u8>; 2]| {
            vec![
                CommitOp::CreatePartition {
                    id: q,
                    params: CryptoParams::paper_default(),
                },
                CommitOp::WriteChunk {
                    id: a,
                    bytes: bodies[0].clone(),
                },
                CommitOp::WriteChunk {
                    id: b,
                    bytes: bodies[1].clone(),
                },
            ]
        };
        let (body_a, body_b) = (vec![7; 400], vec![8; 1200]);
        let committer = store.seal_early(&[set([&body_a, &body_b])]);
        assert!(committer[0].iter().all(Option::is_none));

        let foreign = Arc::new(CryptoParams::paper_default().runtime().unwrap());
        let mut sealed = early_seal(&store, a, &foreign, &body_a);
        sealed.push(None);
        let results = store
            .inner
            .lock()
            .commit_batch(vec![set([&body_a, &body_b])], vec![sealed]);
        assert!(results.iter().all(Result::is_ok), "{results:?}");
        assert_eq!(store.read(a).unwrap(), body_a);
        assert_eq!(store.read(b).unwrap(), body_b);
        assert_eq!(store.debug_bodies_sealed_under_lock(), 2);
        drop(store);
        platform.reopen_and_audit(&[(a, body_a), (b, body_b)]);
    }
}
