//! Pre-durability rollback: savepoints over the undo journals.
//!
//! A mutation that fails before its durable point must leave the engine as
//! it found it. While a mutation scope is open, the map cache journals the
//! pre-image of every entry it changes ([`crate::cache`]) and the engine
//! journals the rest here — leader entries (each with its partition's
//! rank allocator, the system partition's included), segment utilization,
//! and segments taken and freed. A [`Savepoint`] is the two journal lengths
//! plus the engine's fixed-size scalars, so taking one costs the same on
//! any database, and what a mutation pays for rollback is proportional to
//! what it touches.
//!
//! One protocol serves every mutation. `checkpoint` and `clean` take a
//! savepoint and hand it to [`Inner::end_mutation`] with the outcome. A
//! group-commit batch takes one per member: a failed member unwinds to
//! its own, an abort unwinds to the first one taken since the last
//! durable point, and a durable point (a flush or a checkpoint) closes
//! the journals. Scopes nest — a checkpoint inside a batch marks the
//! journals the batch opened — and whoever opened them closes them.
//!
//! Device bytes written by a rolled-back mutation lie past the restored
//! log tail, where the next append overwrites them and recovery treats
//! them as a torn tail.

use tdb_crypto::HashValue;

use crate::engine::partitions::LeaderEntry;
use crate::errors::{CoreError, FaultClass};
use crate::ids::PartitionId;
use crate::log::{Superblock, TailState};
use crate::store::{ChunkStoreStats, Inner};
use crate::undo::UndoCounters;

/// One undoable change to engine state outside the map cache.
pub(crate) enum Undo {
    /// A cached leader entry as it was (`None`: it was not cached).
    Leader(PartitionId, Option<Box<LeaderEntry>>),
    /// The live-byte count of a segment as it was.
    Utilization(u32, u32),
    /// The log took `seg` for its tail: off the free list (`recycled`) or
    /// by growing the store.
    SegmentTaken { seg: u32, recycled: bool },
    /// The cleaner pushed a segment onto the free list.
    SegmentFreed,
    /// The cleaner pushed a segment onto `Inner::cleaned`.
    SegmentEmptied,
    /// A checkpoint moved this many emptied segments to the free list.
    SegmentsReleased(usize),
}

/// A point a failed mutation can return to: where the journals stood, and
/// the engine's fixed-size scalars.
#[derive(Clone)]
pub(crate) struct Savepoint {
    cache_mark: usize,
    undo_mark: usize,
    /// This savepoint opened the journals, so its mutation closes them.
    outermost: bool,
    checkpoint_seq: u64,
    chain: HashValue,
    tail: TailState,
    commit_count: u64,
    trusted_count: u64,
    leader_version: Option<(u64, u32)>,
    superblock: Superblock,
    stats: ChunkStoreStats,
}

impl Inner {
    /// Marks the start of a mutation (or of a member of one).
    pub(crate) fn savepoint(&mut self) -> Savepoint {
        let outermost = !self.undo.is_open();
        Savepoint {
            cache_mark: self.map_cache.savepoint(),
            undo_mark: self.undo.mark(),
            outermost,
            checkpoint_seq: self.sys_leader.checkpoint_seq,
            chain: self.hashes.chain,
            tail: self.log.tail_state(),
            commit_count: self.commit_count,
            trusted_count: self.trusted_count,
            leader_version: self.leader_version,
            superblock: self.superblock,
            stats: self.stats,
        }
    }

    /// Rolls the in-memory engine back to `sp`. The journals stay open.
    pub(crate) fn rollback(&mut self, sp: &Savepoint) {
        self.map_cache.rollback_to(sp.cache_mark);
        for record in self.undo.unwind(sp.undo_mark) {
            let log = &mut self.sys_leader.log;
            match record {
                Undo::Leader(p, Some(entry)) => {
                    self.leaders.insert(p, *entry);
                }
                Undo::Leader(p, None) => {
                    self.leaders.remove(&p);
                }
                Undo::Utilization(seg, live) => log.utilization[seg as usize] = live,
                Undo::SegmentTaken { seg, recycled } => {
                    self.log.unmark_residual(seg);
                    if recycled {
                        log.free_segments.push(seg);
                    } else {
                        log.num_segments -= 1;
                        log.utilization.pop();
                    }
                }
                Undo::SegmentFreed => {
                    log.free_segments.pop();
                }
                Undo::SegmentEmptied => {
                    self.cleaned.pop();
                }
                Undo::SegmentsReleased(n) => {
                    let at = log.free_segments.len() - n;
                    let released: Vec<u32> = log.free_segments.drain(at..).collect();
                    self.cleaned.splice(0..0, released);
                }
            }
        }
        self.sys_leader.checkpoint_seq = sp.checkpoint_seq;
        self.hashes.abort_set();
        self.hashes.chain = sp.chain;
        self.log.restore_tail_state(sp.tail);
        self.commit_count = sp.commit_count;
        self.trusted_count = sp.trusted_count;
        self.leader_version = sp.leader_version;
        self.superblock = sp.superblock;
        // Health events are monotone: a failure handler may have counted
        // one after the savepoint (a checkpoint that degraded the store
        // inside a batch), and unwinding past it must not forget it.
        let (degraded, poisons) = (self.stats.degraded_entries, self.stats.poison_events);
        self.stats = sp.stats;
        self.stats.degraded_entries = degraded;
        self.stats.poison_events = poisons;
    }

    /// Closes the journals: a durable point was reached (nothing before it
    /// can be undone any more) or the outermost mutation ended.
    pub(crate) fn close_journals(&mut self) {
        self.map_cache.end_scope();
        self.undo.close();
    }

    /// Ends the mutation `sp` opened. On `failure` the engine rolls back to
    /// `sp` and the health state machine moves: integrity violations
    /// poison; storage failures degrade only when log bytes had already
    /// been written.
    pub(crate) fn end_mutation(&mut self, sp: &Savepoint, failure: Option<&CoreError>, what: &str) {
        if let Some(e) = failure {
            let wrote = self.wrote_log;
            // On an integrity violation the rollback is for hygiene only:
            // no validated path may run again until a reopen revalidates.
            self.rollback(sp);
            if e.fault_class() == FaultClass::Integrity {
                self.enter_poisoned(format!("integrity violation during {what}: {e}"));
            } else if wrote {
                self.enter_degraded(format!(
                    "storage failure during {what} after log bytes were written: {e}"
                ));
            }
        }
        if sp.outermost {
            self.close_journals();
        }
    }

    // -- Journaled changes ------------------------------------------------------

    /// Sets the live-byte count of segment `seg` to `f(current)` (no-op for
    /// a segment the table does not cover).
    pub(crate) fn update_utilization(&mut self, seg: u32, f: impl FnOnce(u32) -> u32) {
        if let Some(live) = self.sys_leader.log.utilization.get_mut(seg as usize) {
            self.undo.push(Undo::Utilization(seg, *live), 8);
            *live = f(*live);
        }
    }

    /// What the journals have captured since the store was opened.
    pub(crate) fn undo_counters(&self) -> UndoCounters {
        let (cache, engine) = (self.map_cache.undo_counters(), self.undo.counters());
        UndoCounters {
            captures: engine.captures,
            preimages: cache.preimages + engine.preimages,
            bytes: cache.bytes + engine.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    //! Rollback equivalence at engine level. For every failing device-op
    //! index through a commit, a many-member batch, a checkpoint and a clean:
    //! the rolled-back engine equals the deep copy taken before the
    //! mutation (the capture this module replaced, kept here as the
    //! oracle), and — when it rolled back live and is retried — a twin
    //! that never saw the fault.

    use std::collections::{BTreeSet, HashMap};
    use std::sync::Arc;

    use tdb_crypto::{CipherKind, HashKind, SecretKey};
    use tdb_storage::{CounterOverTrusted, FaultKind, FaultPlan, SharedUntrusted, SimDevice};

    use super::*;
    use crate::cache::MapCache;
    use crate::engine::ranks::Ranks;
    use crate::ids::ChunkId;
    use crate::leader::SystemLeader;
    use crate::params::CryptoParams;
    use crate::store::{ChunkStore, ChunkStoreConfig, CommitOp, TrustedBackend};

    /// Everything a rollback must restore, copied whole.
    struct Oracle {
        map_cache: MapCache,
        leaders: HashMap<PartitionId, LeaderEntry>,
        sys_leader: SystemLeader,
        chain: HashValue,
        tail: u64,
        residual: BTreeSet<u32>,
        counts: (u64, u64, Option<(u64, u32)>, Superblock),
        stats: String,
    }

    fn leader_state(e: &LeaderEntry) -> (Vec<u8>, Ranks, bool) {
        (e.leader.encode(), e.ranks.clone(), e.dirty)
    }

    /// Stats a rollback restores: all but the monotone health counters and
    /// what a batch counts before its first savepoint.
    fn rolled_back_stats(inner: &Inner) -> String {
        let mut s = inner.stats;
        (s.degraded_entries, s.poison_events) = (0, 0);
        (s.commit_batches, s.batched_commits, s.batch_size_hist) = (0, 0, [0; 8]);
        format!("{s:?}")
    }

    impl Oracle {
        fn capture(inner: &Inner) -> Oracle {
            Oracle {
                map_cache: inner.map_cache.clone(),
                leaders: inner.leaders.clone(),
                sys_leader: inner.sys_leader.clone(),
                chain: inner.hashes.chain,
                tail: inner.log.tail_location(),
                residual: inner.log.residual_segments().clone(),
                counts: (
                    inner.commit_count,
                    inner.trusted_count,
                    inner.leader_version,
                    inner.superblock,
                ),
                stats: rolled_back_stats(inner),
            }
        }

        fn assert_restored(&self, inner: &Inner, ctx: &str) {
            // Validation runs before the savepoint and may have loaded
            // clean map chunks and leaders; nothing else may differ.
            let mut now = inner.map_cache.debug_entries();
            let before = self.map_cache.debug_entries();
            now.retain(|(key, dirty, _)| *dirty || self.map_cache.contains(key.0, key.1));
            assert_eq!(now, before, "{ctx}: map cache");
            assert_eq!(
                inner.map_cache.dirty_keys(),
                self.map_cache.dirty_keys(),
                "{ctx}"
            );
            for (p, e) in &self.leaders {
                let got = inner.leaders.get(p).map(leader_state);
                assert_eq!(got, Some(leader_state(e)), "{ctx}: leader {p}");
            }
            for (p, e) in &inner.leaders {
                assert!(
                    self.leaders.contains_key(p) || !e.dirty,
                    "{ctx}: stray leader {p}"
                );
            }
            assert_eq!(inner.sys_leader, self.sys_leader, "{ctx}: system leader");
            assert_eq!(inner.hashes.chain, self.chain, "{ctx}: chain");
            assert!(!inner.hashes.set_open(), "{ctx}: set hash left open");
            assert_eq!(inner.log.tail_location(), self.tail, "{ctx}: tail");
            assert_eq!(
                inner.log.residual_segments(),
                &self.residual,
                "{ctx}: residual"
            );
            assert_eq!(inner.log.buffered_len(), 0, "{ctx}: buffered bytes");
            let counts = (
                inner.commit_count,
                inner.trusted_count,
                inner.leader_version,
                inner.superblock,
            );
            assert_eq!(counts, self.counts, "{ctx}: counts");
            assert_eq!(rolled_back_stats(inner), self.stats, "{ctx}: stats");
            assert!(!inner.undo.is_open(), "{ctx}: journal left open");
        }
    }

    struct Rig {
        store: ChunkStore,
        device: Arc<SimDevice>,
        p: PartitionId,
        ids: Vec<ChunkId>,
        /// Ids allocated but not written, for the mutation under test.
        spare: Vec<ChunkId>,
        /// Partition ids allocated but not written.
        spare_parts: Vec<PartitionId>,
    }

    fn params(tag: u8) -> CryptoParams {
        CryptoParams {
            cipher: CipherKind::Des,
            hash: HashKind::Sha1,
            key: SecretKey::new(vec![tag; 8]),
        }
    }

    fn body(tag: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| tag.wrapping_add(i as u8)).collect()
    }

    /// Commits one op set as a batch of one, as `ChunkStore::commit` does.
    fn commit(inner: &mut Inner, ops: Vec<CommitOp>) -> Result<(), CoreError> {
        let mut results = inner.commit_batch(vec![ops], Vec::new());
        results.pop().expect("one result per set")
    }

    /// A deterministic store with history: two checkpoints' worth of
    /// writes, deallocated ranks on the free lists, obsolete versions for
    /// the cleaner, and dirty map chunks and leaders on top.
    fn build(checkpoint_threshold: usize) -> Rig {
        let device = SimDevice::new();
        let counter = CounterOverTrusted::new(device.register());
        let store = ChunkStore::create(
            Arc::clone(&device) as SharedUntrusted,
            TrustedBackend::Counter(Arc::new(counter)),
            SecretKey::new(vec![7; 24]),
            ChunkStoreConfig {
                fanout: 4,
                segment_size: 4096,
                checkpoint_threshold,
                ..ChunkStoreConfig::default()
            },
        )
        .unwrap();
        let p = store.allocate_partition().unwrap();
        let mut inner = store.inner.lock();
        commit(
            &mut inner,
            vec![CommitOp::CreatePartition {
                id: p,
                params: params(3),
            }],
        )
        .unwrap();
        let ids: Vec<ChunkId> = (0..24).map(|_| inner.allocate_chunk(p).unwrap()).collect();
        for (round, four) in ids.chunks(4).enumerate() {
            let ops = four
                .iter()
                .map(|id| CommitOp::WriteChunk {
                    id: *id,
                    bytes: body(round as u8, 300),
                })
                .collect();
            commit(&mut inner, ops).unwrap();
        }
        commit(
            &mut inner,
            vec![
                CommitOp::DeallocChunk { id: ids[3] },
                CommitOp::DeallocChunk { id: ids[7] },
            ],
        )
        .unwrap();
        inner.checkpoint().unwrap();
        for id in &ids[8..20] {
            commit(
                &mut inner,
                vec![CommitOp::WriteChunk {
                    id: *id,
                    bytes: body(0x40, 500),
                }],
            )
            .unwrap();
        }
        inner.checkpoint().unwrap();
        for id in &ids[0..3] {
            commit(
                &mut inner,
                vec![CommitOp::WriteChunk {
                    id: *id,
                    bytes: body(0x80, 200),
                }],
            )
            .unwrap();
        }
        let spare = (0..8).map(|_| inner.allocate_chunk(p).unwrap()).collect();
        drop(inner);
        let spare_parts = (0..2)
            .map(|_| store.allocate_partition().unwrap())
            .collect();
        Rig {
            store,
            device,
            p,
            ids,
            spare,
            spare_parts,
        }
    }

    impl Rig {
        /// Fails every device write and flush from the `n`-th next one on.
        fn fail_from(&self, n: u64) {
            let from = self.device.writes_and_flushes() + n;
            self.device
                .set_plan(FaultPlan::new().at(from, FaultKind::WritesFailFrom));
        }
    }

    /// What a twin must agree on (sealed bytes differ by IV, so neither
    /// the chain nor anything derived from ciphertext is in here).
    fn digest(rig: &Rig) -> String {
        let mut inner = rig.store.inner.lock();
        let mut out = String::new();
        let parts: Vec<PartitionId> = std::iter::once(rig.p)
            .chain(rig.spare_parts.iter().copied())
            .collect();
        for q in parts {
            let root = inner.effective_root_hash(q).ok();
            let leader = inner.leader_entry(q).ok().map(leader_state);
            let at = inner.get_descriptor(ChunkId::leader_chunk(q)).ok();
            out += &format!("{q}: root {root:?} leader {leader:?} at {at:?}\n");
            for id in rig.ids.iter().chain(&rig.spare) {
                let desc = inner.get_descriptor(ChunkId::new(q, id.pos)).ok();
                out += &format!("  {} {desc:?}\n", id.pos.rank);
            }
        }
        let mut dirty = inner.map_cache.debug_entries();
        dirty.retain(|(_, dirty, _)| *dirty);
        out += &format!("dirty {dirty:?}\nlog {:?}\n", inner.sys_leader.log);
        let sys = inner
            .leader_entry(PartitionId::SYSTEM)
            .ok()
            .map(leader_state);
        out += &format!(
            "sys {:?} {sys:?} tail {} residual {:?}\n",
            inner.sys_leader.encode(inner.system_map()),
            inner.log.tail_location(),
            inner.log.residual_segments(),
        );
        out += &format!(
            "counts {} {} {:?} {:?}\nstats {}\n",
            inner.commit_count,
            inner.trusted_count,
            inner.leader_version,
            inner.superblock,
            rolled_back_stats(&inner),
        );
        out
    }

    fn first_difference(a: &str, b: &str) -> String {
        match a.lines().zip(b.lines()).find(|(x, y)| x != y) {
            Some((x, y)) => format!("got:  {x}\ntwin: {y}"),
            None => "one digest is a prefix of the other".into(),
        }
    }

    /// Runs `mutate` against a fresh rig with the device failing from op
    /// `fail_at` on, for every `fail_at` until the mutation gets through;
    /// returns how many attempts rolled back live and how many degraded.
    fn sweep(
        what: &str,
        checkpoint_threshold: usize,
        mutate: impl Fn(&Rig, &mut Inner) -> Result<(), CoreError>,
    ) -> (usize, usize) {
        let twin = build(checkpoint_threshold);
        mutate(&twin, &mut twin.store.inner.lock()).unwrap();
        let expected = digest(&twin);
        let (mut live, mut degraded) = (0, 0);
        for fail_at in 0..200 {
            let ctx = format!("{what}, device fails at op {fail_at}");
            let rig = build(checkpoint_threshold);
            let oracle = Oracle::capture(&rig.store.inner.lock());
            rig.fail_from(fail_at);
            let result = mutate(&rig, &mut rig.store.inner.lock());
            rig.device.set_plan(FaultPlan::new());
            if result.is_ok() {
                assert!(
                    digest(&rig) == expected,
                    "{ctx}: unfaulted run differs from twin"
                );
                assert!(live + degraded > 0, "{what}: the sweep never failed");
                return (live, degraded);
            }
            oracle.assert_restored(&rig.store.inner.lock(), &ctx);
            assert!(!rig.store.health().is_poisoned(), "{ctx}");
            if !rig.store.health().is_live() {
                // Degraded is terminal until a reopen; the rollback
                // itself is all there is to compare.
                degraded += 1;
                continue;
            }
            live += 1;
            mutate(&rig, &mut rig.store.inner.lock()).expect(&ctx);
            let got = digest(&rig);
            assert!(
                got == expected,
                "{ctx}: retry differs from twin\n{}",
                first_difference(&got, &expected)
            );
        }
        panic!("{what}: still failing with 200 good device ops");
    }

    fn mixed_ops(rig: &Rig) -> Vec<CommitOp> {
        let (q, r) = (rig.spare_parts[0], rig.spare_parts[1]);
        vec![
            CommitOp::WriteChunk {
                id: rig.spare[0],
                bytes: body(1, 700),
            },
            CommitOp::WriteChunk {
                id: rig.ids[1],
                bytes: body(2, 900),
            },
            CommitOp::DeallocChunk { id: rig.ids[2] },
            CommitOp::DeallocChunk { id: rig.spare[1] },
            CommitOp::CreatePartition {
                id: q,
                params: params(9),
            },
            CommitOp::WriteChunk {
                id: ChunkId::data(q, 0),
                bytes: body(3, 100),
            },
            CommitOp::CopyPartition { dst: r, src: rig.p },
            CommitOp::WriteChunk {
                id: ChunkId::new(r, rig.ids[4].pos),
                bytes: body(4, 1200),
            },
            CommitOp::WriteChunk {
                id: rig.spare[2],
                bytes: body(5, 2500),
            },
        ]
    }

    #[test]
    fn commit_rolls_back_to_the_oracle_at_every_fault_index() {
        let (live, degraded) = sweep("commit", 1000, |rig, inner| commit(inner, mixed_ops(rig)));
        assert!(live > 0 && degraded > 0, "live {live} degraded {degraded}");
    }

    #[test]
    fn checkpoint_rolls_back_to_the_oracle_at_every_fault_index() {
        let (live, degraded) = sweep("checkpoint", 1000, |_, inner| inner.checkpoint());
        assert!(live > 0 && degraded > 0, "live {live} degraded {degraded}");
    }

    #[test]
    fn clean_rolls_back_to_the_oracle_at_every_fault_index() {
        sweep("clean", 1000, |_, inner| {
            let relocated = inner.stats.chunks_relocated;
            assert!(inner.clean(3)? > 0 && inner.stats.chunks_relocated > relocated);
            Ok(())
        });
    }

    /// A batch: per-member atomicity, a durable point mid-batch (forced
    /// before the member that would outrun the counter window, and with a
    /// low threshold a checkpoint), an abort that unwinds to it. Whatever
    /// the fault index, the engine equals a twin that ran exactly the
    /// acknowledged members.
    fn batch_sweep(checkpoint_threshold: usize) {
        let members = |rig: &Rig| -> Vec<Vec<CommitOp>> {
            let mut sets: Vec<Vec<CommitOp>> = (0..7)
                .map(|i| {
                    vec![
                        CommitOp::WriteChunk {
                            id: rig.spare[i],
                            bytes: body(i as u8, 400),
                        },
                        CommitOp::WriteChunk {
                            id: rig.ids[8 + i],
                            bytes: body(i as u8, 150),
                        },
                    ]
                })
                .collect();
            // One member that fails validation, one that does everything.
            sets.insert(
                2,
                vec![CommitOp::DeallocChunk {
                    id: ChunkId::data(rig.p, 999),
                }],
            );
            sets.insert(
                4,
                mixed_ops_without(rig, &[rig.spare[0], rig.spare[1], rig.spare[2]]),
            );
            sets
        };
        let mut seen_partial = false;
        for fail_at in 0..200 {
            let ctx =
                format!("batch (threshold {checkpoint_threshold}), device fails at op {fail_at}");
            let rig = build(checkpoint_threshold);
            rig.fail_from(fail_at);
            let results = rig
                .store
                .inner
                .lock()
                .commit_batch(members(&rig), Vec::new());
            rig.device.set_plan(FaultPlan::new());
            assert!(
                !rig.store.inner.lock().undo.is_open(),
                "{ctx}: journal left open"
            );
            assert!(!rig.store.health().is_poisoned(), "{ctx}");
            let acked: Vec<bool> = results.iter().map(Result::is_ok).collect();
            assert!(!acked[2], "{ctx}: the invalid member was acknowledged");
            // The twin keeps the invalid member: validating it loads map
            // chunks, and `dirty_map_levels_skipped` counts cached levels.
            let twin = build(checkpoint_threshold);
            let sets: Vec<Vec<CommitOp>> = members(&twin)
                .into_iter()
                .enumerate()
                .filter_map(|(i, ops)| (acked[i] || i == 2).then_some(ops))
                .collect();
            let twin_acked = twin.store.inner.lock().commit_batch(sets, Vec::new());
            assert_eq!(twin_acked.iter().filter(|r| r.is_err()).count(), 1, "{ctx}");
            assert!(
                digest(&rig) == digest(&twin),
                "{ctx}: acked {acked:?}\n{}",
                first_difference(&digest(&rig), &digest(&twin))
            );
            let n = acked.iter().filter(|ok| **ok).count();
            seen_partial |= n > 0 && n < 8;
            if n == 8 {
                assert!(
                    seen_partial,
                    "no fault index left the batch partly acknowledged"
                );
                return;
            }
        }
        panic!("batch still failing with 200 good device ops");
    }

    fn mixed_ops_without(rig: &Rig, taken: &[ChunkId]) -> Vec<CommitOp> {
        mixed_ops(rig)
            .into_iter()
            .filter(|op| match op {
                CommitOp::WriteChunk { id, .. } | CommitOp::DeallocChunk { id } => {
                    !taken.contains(id)
                }
                _ => true,
            })
            .collect()
    }

    #[test]
    fn batch_rolls_back_to_its_last_durable_point_at_every_fault_index() {
        batch_sweep(1000);
    }

    #[test]
    fn batch_with_checkpoints_inside_rolls_back_at_every_fault_index() {
        batch_sweep(4);
    }

    /// Satellite of the free-list fix: overwriting written chunks scans no
    /// free list and disturbs none — chunk ranks or partition-leader ranks.
    #[test]
    fn overwrite_after_many_deallocations_leaves_free_lists_intact() {
        let rig = build(1000);
        let mut inner = rig.store.inner.lock();
        let doomed: Vec<ChunkId> = (0..40)
            .map(|_| inner.allocate_chunk(rig.p).unwrap())
            .collect();
        let writes = doomed
            .iter()
            .map(|id| CommitOp::WriteChunk {
                id: *id,
                bytes: body(1, 64),
            })
            .collect();
        commit(&mut inner, writes).unwrap();
        commit(
            &mut inner,
            doomed
                .iter()
                .map(|id| CommitOp::DeallocChunk { id: *id })
                .collect(),
        )
        .unwrap();
        let q = rig.spare_parts[0];
        commit(
            &mut inner,
            vec![CommitOp::CreatePartition {
                id: q,
                params: params(9),
            }],
        )
        .unwrap();
        commit(&mut inner, vec![CommitOp::DeallocPartition { id: q }]).unwrap();
        let lists = |inner: &mut Inner| {
            let e = inner.leader_entry(rig.p).unwrap();
            let chunk_lists = (e.leader.free_ranks.clone(), e.ranks.session().1.to_vec());
            let e = inner.leader_entry(PartitionId::SYSTEM).unwrap();
            (
                chunk_lists,
                e.leader.free_ranks.clone(),
                e.ranks.session().1.to_vec(),
            )
        };
        let before = lists(&mut inner);
        assert_eq!(before.0 .0.len(), 42, "40 here, 2 from the rig's history");
        assert_eq!(before.1.len(), 1);
        // Overwrites, and a checkpoint that rewrites the dirty leader.
        commit(
            &mut inner,
            vec![CommitOp::WriteChunk {
                id: rig.ids[5],
                bytes: body(6, 64),
            }],
        )
        .unwrap();
        commit(
            &mut inner,
            vec![CommitOp::WriteChunk {
                id: rig.ids[9],
                bytes: body(7, 64),
            }],
        )
        .unwrap();
        inner.checkpoint().unwrap();
        assert_eq!(lists(&mut inner), before);
        // A first write of a freed rank still takes it off both lists.
        let reused = inner.allocate_chunk(rig.p).unwrap();
        assert!(before.0 .0.contains(&reused.pos.rank));
        commit(
            &mut inner,
            vec![CommitOp::WriteChunk {
                id: reused,
                bytes: body(8, 64),
            }],
        )
        .unwrap();
        let after = lists(&mut inner);
        assert!(!after.0 .0.contains(&reused.pos.rank) && !after.0 .1.contains(&reused.pos.rank));
        assert_eq!(after.0 .0.len(), 41);
    }
}
