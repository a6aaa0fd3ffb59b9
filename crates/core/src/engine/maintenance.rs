//! The log cleaner (§4.9.5, §5.5): reclaiming obsolete chunk versions.
//!
//! "The log cleaner reclaims the storage of obsolete chunk versions and
//! compacts the storage to create empty segments. It selects a segment to
//! clean and determines whether each chunk version is current by using the
//! chunk id in the header to find the current location in the chunk map. It
//! then commits the set of current chunks, which rewrites them to the end
//! of the log."
//!
//! Partition copies complicate currency: "even if the version is obsolete
//! in P, it may be current in some direct or indirect copy of P", so the
//! cleaner checks the copy closure and appends a *cleaner chunk* naming the
//! partitions where the relocated version is current, for recovery.
//!
//! The rewrite is the paper's implemented variant (§4.9.5): a regular
//! commit that decrypts and *revalidates* each chunk, so the cleaner cannot
//! launder an attacker's modifications, and seals it afresh. It does not
//! re-hash: validation has just compared the body's digest with the one
//! the map holds, and the body is unchanged, so hashing it again would
//! compute that same digest, which the new descriptor keeps. A segment's
//! versions are all validated before any is appended, so a tampered one
//! fails the pass with nothing appended, and are then sealed in one batch,
//! their chains as lanes of one kernel call per partition. The faster
//! variant the paper sketches, moving sealed bytes verbatim, is not built:
//! recovery pairs each cleaner record with a `Relocated` version.
//!
//! **Space management.** The cleaner can only compact a log it can still
//! write. A bounded log (`max_segments != 0`) therefore keeps a *cleaner
//! reserve*: its last R segments, R being what one cleaning slice can take
//! from a standing start ([`Inner::cleaner_reserve`], derived from the
//! segment size, the fanout, the system suite and the dirty map chunks).
//! Only a cleaning pass, and the checkpoint it may force, takes them: any
//! other writer that needs a new segment while free segments are at R or
//! below gets [`CoreError::OutOfSpace`]. Writers slow down before they
//! must stop: below R + `SLOWDOWN` free segments, the group-commit leader
//! first runs one slice of `SLICE_SEGMENTS` segments inline, under the
//! engine lock it already holds ([`Inner::slice_if_short`]). A pass takes
//! segments only while relocating them gains space ([`Inner::gains`]), so
//! passes never lose ground and a log full of live data is left alone.
//!
//! **Some emptied segments wait for a checkpoint.** Recovery starts at the
//! latest checkpoint and reads its map chunks and partition leaders where
//! it wrote them, and the cleaner relocates those like any other version.
//! So a segment from which a pass relocated one of them joins
//! [`Inner::cleaned`], not the free list, and is neither written nor
//! cleaned again until the next checkpoint is durable, which records where
//! its versions went. Recovery reads no data version where a checkpoint
//! left it, so a segment that held only data is free at once. A bounded
//! log cannot wait for the dirty threshold: a pass on it starts with that
//! checkpoint whenever an earlier pass left segments waiting, so R, which
//! already budgets a checkpoint, covers them.

use std::collections::{BTreeSet, HashSet};

use crate::descriptor::Descriptor;
use crate::engine::commit::COMMIT_CHUNK_ROOM;
use crate::engine::rollback::Undo;
use crate::errors::{CoreError, Result, TamperKind};
use crate::ids::{ChunkId, PartitionId, Position, LEADER_HEIGHT};
use crate::metrics::{self, modules};
use crate::pipeline::{self, SealJob};
use crate::store::{Inner, ValidationMode};
use crate::version::{
    parse_version, seal_version, sealed_version_len, validate_version, CleanerRecord,
    VersionHeader, VersionKind,
};

/// Segments one inline slice cleans.
const SLICE_SEGMENTS: usize = 2;

/// Free segments above the reserve below which a commit batch first runs
/// an inline slice.
const SLOWDOWN: u64 = 2;

/// A segment a pass may clean: its bytes; each current version's offset,
/// length and id with the partitions it is current in; and what
/// relocating them takes: their bytes with their cleaner records, and the
/// largest of them.
struct SegmentPlan {
    seg: u32,
    buf: Vec<u8>,
    live: Vec<(usize, usize, ChunkId, Vec<PartitionId>)>,
    need: usize,
    largest: usize,
}

impl Inner {
    /// Free segments of a bounded log — headroom to `max_segments` plus
    /// the free list — or `u64::MAX` when the log is unbounded.
    pub(crate) fn free_segments(&self) -> u64 {
        if self.config.max_segments == 0 {
            return u64::MAX;
        }
        let log = &self.sys_leader.log;
        u64::from(self.config.max_segments.saturating_sub(log.num_segments))
            + log.free_segments.len() as u64
    }

    /// The cleaner reserve R: the new segments one slice may take from a
    /// standing start. The segments it cleans take at most as many new ones
    /// ([`Inner::gains`]); one more is tail slack; and a checkpoint the
    /// slice forces takes [`Inner::checkpoint_segments`].
    pub(crate) fn cleaner_reserve(&self) -> u64 {
        SLICE_SEGMENTS as u64 + 1 + self.checkpoint_segments()
    }

    /// New segments a checkpoint taken now may fill. It writes the dirty
    /// map chunks and every ancestor up to their tree's root, the leader of
    /// each partition among them or marked dirty, the system map chunks
    /// above those leaders, and the system leader with its commit chunk.
    /// Every segment those appends leave behind holds more than its room
    /// minus the largest of them, and each starts with one of them.
    fn checkpoint_segments(&self) -> u64 {
        let fanout = self.fanout();
        let mut maps: BTreeSet<(PartitionId, Position)> = BTreeSet::new();
        let mut leaders: BTreeSet<PartitionId> = BTreeSet::new();
        let climb = |maps: &mut BTreeSet<_>, p: PartitionId, mut pos: Position, height: u8| {
            while maps.insert((p, pos)) && pos.height < height {
                pos = pos.parent(fanout);
            }
        };
        let sys_height = self.sys_leader.map.height;
        for (p, pos) in self.map_cache.dirty_keys() {
            if p.is_system() {
                climb(&mut maps, p, pos, sys_height);
            } else {
                let height = self.leaders.get(&p).map_or(pos.height, |e| e.leader.height);
                climb(&mut maps, p, pos, height);
                leaders.insert(p);
            }
        }
        for (p, entry) in &self.leaders {
            if entry.dirty {
                leaders.insert(*p);
            }
        }
        for p in &leaders {
            let pos = ChunkId::leader_chunk(*p).pos.parent(fanout);
            climb(&mut maps, PartitionId::SYSTEM, pos, sys_height);
        }

        let sys = &self.system;
        let (mut bytes, mut largest, mut count) = (0u64, 0u64, 0u64);
        let mut add = |len: usize| {
            bytes += len as u64;
            largest = largest.max(len as u64);
            count += 1;
        };
        for (p, _) in &maps {
            let crypto = self.leaders.get(p).map_or(&**sys, |entry| &*entry.crypto);
            let body = fanout as usize * Descriptor::encoded_len(crypto.hash_kind().digest_len());
            add(sealed_version_len(sys, crypto, body));
        }
        for p in &leaders {
            if let Some(entry) = self.leaders.get(p) {
                add(sealed_version_len(sys, sys, entry.leader.encode().len()));
            }
        }
        // The system leader as the checkpoint budgets it, the emptied
        // segments it frees and its commit chunk included.
        let leader = self.sys_leader.encode().len() + 4 * self.cleaned.len() + 64;
        add(sealed_version_len(sys, sys, leader) + COMMIT_CHUNK_ROOM as usize);
        let room = u64::from(self.log.max_version_len());
        count.min(bytes / (room + 1).saturating_sub(largest).max(1) + 1)
    }

    /// The reserve, outside a cleaning pass. Called with `len == 0` as a
    /// commit starts, it admits the commit only while free segments are at
    /// R or above, so no commit writes into a segment a pass took from the
    /// reserve; called before appending `len` bytes, it refuses a new
    /// segment while they are at R or below. A refusal makes the next
    /// batch run a slice whatever the margin: map chunks the refused commit
    /// dirtied may have raised R past it.
    pub(crate) fn check_reserve(&mut self, len: u32) -> Result<()> {
        if self.config.max_segments == 0 || self.cleaning || (len > 0 && self.log.room() >= len) {
            return Ok(());
        }
        if self.free_segments() < self.cleaner_reserve() + u64::from(len > 0) {
            self.reserve_refused = true;
            return Err(CoreError::OutOfSpace);
        }
        Ok(())
    }

    /// The inline slice: a live bounded log with fewer than R + `SLOWDOWN`
    /// free segments, or one that refused a writer since the last slice,
    /// cleans `SLICE_SEGMENTS` segments before the batch leader's batch. A
    /// slice that fails has rolled back and set the store's health like
    /// any mutation, which the batch then finds; it is counted all the
    /// same, after the rollback, since it ran.
    pub(crate) fn slice_if_short(&mut self) {
        if self.config.max_segments == 0
            || self.check_writable().is_err()
            || !std::mem::take(&mut self.reserve_refused)
                && self.free_segments() >= self.cleaner_reserve() + SLOWDOWN
        {
            return;
        }
        let _ = self.clean(SLICE_SEGMENTS);
        self.stats.clean_slices += 1;
    }

    /// Cleans up to `max_segments` segments, lowest utilization first, and
    /// stops at the first that would make the pass lose ground; returns
    /// how many were reclaimed. The pass may take the cleaner reserve.
    ///
    /// When nothing outside the residual log gains, it checkpoints once
    /// and tries again if that can help ([`Inner::checkpoint_helps`]).
    pub(crate) fn clean(&mut self, max_segments: usize) -> Result<usize> {
        self.cleaning = true;
        let bounded = self.config.max_segments != 0;
        let released = if bounded && !self.cleaned.is_empty() {
            self.checkpoint()
        } else {
            Ok(())
        };
        let result = released
            .and_then(|()| self.clean_pass(max_segments))
            .and_then(|reclaimed| {
                if reclaimed > 0 || !self.checkpoint_helps()? {
                    return Ok(reclaimed);
                }
                self.checkpoint()?;
                self.clean_pass(max_segments)
            });
        self.cleaning = false;
        result
    }

    /// Whether a checkpoint could let a pass gain: whether a residual
    /// segment other than the tail would gain once the checkpoint makes it
    /// cleanable — a hot set that never trips a checkpoint leaves every
    /// segment residual. Any other checkpoint would only turn map chunks
    /// into garbage for the next pass to chase.
    fn checkpoint_helps(&mut self) -> Result<bool> {
        let tail = self.log.tail_segment();
        let residual = self.log.residual_segments().iter().copied();
        let mut residual = self
            .by_utilization(residual.filter(|s| *s != tail))
            .into_iter();
        while let Some(plan) = self.plan_next(&mut residual)? {
            if self.gains(1, plan.need, plan.largest) {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn clean_pass(&mut self, max_segments: usize) -> Result<usize> {
        let sp = self.savepoint();
        self.wrote_log = false;
        let result = self.clean_segments(max_segments);
        self.end_mutation(&sp, result.as_ref().err(), "cleaning");
        result
    }

    /// Cleanable segments, lowest utilization first: the cleaner skips
    /// the residual log (§4.9.5), free segments and those already emptied.
    fn candidates(&self) -> Vec<u32> {
        let residual = self.log.residual_segments();
        let free: HashSet<u32> = (self.sys_leader.log.free_segments.iter())
            .chain(&self.cleaned)
            .copied()
            .collect();
        let segments = 0..self.sys_leader.log.utilization.len() as u32;
        self.by_utilization(segments.filter(|s| !residual.contains(s) && !free.contains(s)))
    }

    /// `segments`, lowest utilization first ("for performance reasons, the
    /// cleaner selects segments with low utilization").
    fn by_utilization(&self, segments: impl Iterator<Item = u32>) -> Vec<u32> {
        let utilization = &self.sys_leader.log.utilization;
        let mut keyed: Vec<(u32, u32)> = segments
            .map(|s| (utilization.get(s as usize).copied().unwrap_or(0), s))
            .collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|(_, s)| s).collect()
    }

    /// Whether relocating `k` segments gains space: the `need` bytes of
    /// their current versions and cleaner records, a commit chunk, and one
    /// `largest` version per segment — the most a segment switch wastes —
    /// must fit in `k` segments. Appends then take at most `k` new
    /// segments, and a segment whose garbage is only its commit chunks is
    /// never picked.
    fn gains(&self, k: usize, need: usize, largest: usize) -> bool {
        need + COMMIT_CHUNK_ROOM as usize + k * largest <= k * self.log.max_version_len() as usize
    }

    /// Plans the next candidate: reads it and finds the versions current in
    /// it. `None` once the candidates run out, or, on a bounded log, when
    /// fewer than two segments are free: one for the relocations, one for
    /// the commit chunk.
    fn plan_next(
        &mut self,
        candidates: &mut impl Iterator<Item = u32>,
    ) -> Result<Option<SegmentPlan>> {
        let Some(seg) = candidates.next().filter(|_| self.free_segments() >= 2) else {
            return Ok(None);
        };
        let buf = self.log.read_segment(seg)?;
        let base = self.log.segment_offset(seg);
        // The bytes of current versions the segment is charged with: each
        // version some partition points at once, plus a system leader's,
        // as `set_descriptor` and the checkpoint count them.
        let charged = self.sys_leader.log.utilization.get(seg as usize).copied();
        let charged = charged.unwrap_or(0) as usize;
        let (mut live, mut need, mut largest, mut found) = (Vec::new(), 0, 0, 0);
        let mut off = 0usize;
        while off < buf.len() {
            let location = base + off as u64;
            let parsed = {
                let _t = metrics::span(modules::ENCRYPTION);
                parse_version(&self.system, &buf[off..], location)
            };
            let Ok(Some(raw)) = parsed else {
                // Torn bytes at an old crash tail, or what an earlier use
                // of the segment left: garbage, never current, so the walk
                // may end here — but only once it has found every current
                // byte. Short of that, bytes before a current version were
                // altered, and ending here would free it.
                if found < charged {
                    return Err(CoreError::TamperDetected(TamperKind::UndecryptableChunk {
                        location,
                    }));
                }
                break;
            };
            let total = raw.total_len;
            let id = raw.header.id;
            if id.pos.height == LEADER_HEIGHT {
                // Only the current system leader is charged.
                if self.leader_version.is_some_and(|(at, _)| at == location) {
                    found += total;
                }
            } else if matches!(raw.header.kind, VersionKind::Named | VersionKind::Relocated) {
                let current_in = self.current_in(id, location)?;
                if !current_in.is_empty() {
                    let record = CleanerRecord::encoded_len(current_in.len());
                    need += total + sealed_version_len(&self.system, &self.system, record);
                    largest = largest.max(total);
                    found += total;
                    live.push((off, total, id, current_in));
                }
            }
            off += total;
        }
        Ok(Some(SegmentPlan {
            seg,
            buf,
            live,
            need,
            largest,
        }))
    }

    fn clean_segments(&mut self, max_segments: usize) -> Result<usize> {
        // Lowest utilization first, so the pass stops at the first segment
        // that would make it lose ground.
        let mut candidates = self.candidates().into_iter().take(max_segments);
        let mut plan = match self.plan_next(&mut candidates)? {
            Some(plan) if self.gains(1, plan.need, plan.largest) => plan,
            _ => return Ok(0),
        };
        let (mut need, mut largest) = (plan.need, plan.largest);
        self.durable_point_if_due()?;
        let counter_mode = matches!(self.config.validation, ValidationMode::Counter { .. });
        if counter_mode {
            self.hashes.begin_set();
        }
        let seg_size = self.log.segment_size();
        // Obsolete bytes per segment, captured before relocation shuffles
        // utilization: the live remainder is rewritten to the tail, so the
        // net space the pass reclaims is segment size minus live bytes.
        let mut obsolete = 0u64;
        let mut freed = Vec::new();
        let mut rewrote_any = false;
        loop {
            let utilization = &self.sys_leader.log.utilization;
            let live = utilization.get(plan.seg as usize).copied().unwrap_or(0);
            obsolete += u64::from(seg_size.saturating_sub(live));
            self.relocate(&plan)?;
            rewrote_any |= !plan.live.is_empty();
            let checkpointed = (plan.live.iter()).any(|(_, _, id, _)| {
                id.pos.is_map() || id.partition.is_system() && id.pos.is_data()
            });
            freed.push((plan.seg, checkpointed));
            let Some(next) = self.plan_next(&mut candidates)? else {
                break;
            };
            let (n, l) = (need + next.need, largest.max(next.largest));
            if !self.gains(freed.len() + 1, n, l) {
                break;
            }
            (need, largest, plan) = (n, l, next);
        }
        if rewrote_any || counter_mode {
            // The rewrites form one commit (§4.9.5: "then commits the set of
            // current chunks"), which reaches the device as one write per
            // contiguous run at its durable point.
            self.finish_commit_batched()?;
            self.durable_point()?;
        }
        // Only after the cleaning commit is durable may the segments be
        // recycled; those that held map chunks or partition leaders, once
        // the next checkpoint is.
        for &(seg, checkpointed) in &freed {
            if checkpointed {
                self.cleaned.push(seg);
                self.undo.push(Undo::SegmentEmptied, 4);
            } else {
                self.sys_leader.log.free_segments.push(seg);
                self.undo.push(Undo::SegmentFreed, 4);
            }
            self.update_utilization(seg, |_| 0);
        }
        self.stats.segments_cleaned += freed.len() as u64;
        self.stats.bytes_reclaimed += obsolete;
        Ok(freed.len())
    }

    /// Finds the partitions (header partition plus its copy family) in
    /// which the version at `location` is current. A deallocated header
    /// partition took its copies with it (§5.5): its versions are obsolete.
    fn current_in(&mut self, id: ChunkId, location: u64) -> Result<Vec<PartitionId>> {
        if !id.partition.is_system() && !self.partition_exists(id.partition)? {
            return Ok(Vec::new());
        }
        let mut family = self.copy_family(id.partition)?;
        family.insert(0, id.partition);
        let mut result = Vec::new();
        for q in family {
            let desc = self.get_descriptor(ChunkId::new(q, id.pos))?;
            if desc.is_written() && desc.location == location {
                result.push(q);
            }
        }
        Ok(result)
    }

    /// Rewrites the current versions of `plan`'s segment to the log tail,
    /// in segment order, each followed by its cleaner record, and repoints
    /// every partition each is current in at its new location.
    ///
    /// The paper's cleaner (§4.9.5): every version is first validated
    /// against the map — "otherwise, the cleaner might launder chunks
    /// modified by an attack" — before any is appended. Then all their
    /// bodies are sealed in one batch, which keeps the digests validation
    /// compared: the bodies are unchanged.
    fn relocate(&mut self, plan: &SegmentPlan) -> Result<()> {
        let base = self.log.segment_offset(plan.seg);
        let mut bodies = Vec::with_capacity(plan.live.len());
        let mut hashes = Vec::with_capacity(plan.live.len());
        for (off, len, id, current_in) in &plan.live {
            let owner = ChunkId::new(current_in[0], id.pos);
            let desc = self.get_descriptor(owner)?;
            let crypto = self.crypto_for(owner.partition)?;
            let sealed = &plan.buf[*off..*off + *len];
            bodies.push(validate_version(
                &self.system,
                &crypto,
                owner,
                &desc,
                sealed,
            )?);
            hashes.push(desc.hash);
        }
        let mut jobs: Vec<SealJob<'_>> = Vec::with_capacity(bodies.len());
        for ((_, _, id, _), body) in plan.live.iter().zip(&bodies) {
            jobs.push((*id, self.crypto_for(id.partition)?, body));
        }
        let sealed = pipeline::seal_hashed(&self.system, VersionKind::Relocated, &jobs, hashes);
        for ((off, _, id, current_in), pre) in plan.live.iter().zip(sealed) {
            let new_desc = self.append_presealed(pre)?;
            let record = CleanerRecord {
                pos: id.pos,
                new_location: new_desc.location,
                current_in: current_in.clone(),
            };
            let sealed = seal_version(
                &self.system,
                &self.system,
                VersionKind::Cleaner,
                VersionHeader::unnamed_id(),
                &record.encode(),
            );
            self.append(&sealed)?;
            let old_location = base + *off as u64;
            for &q in current_in {
                // Sanity: each partition still points at the old version.
                let d = self.get_descriptor(ChunkId::new(q, id.pos))?;
                if !d.is_written() || d.location != old_location {
                    return Err(CoreError::TamperDetected(TamperKind::MisdirectedChunk {
                        expected: ChunkId::new(q, id.pos),
                        location: old_location,
                    }));
                }
                self.set_descriptor(ChunkId::new(q, id.pos), new_desc)?;
            }
            self.stats.chunks_relocated += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use tdb_crypto::SecretKey;
    use tdb_storage::{CounterOverTrusted, MemStore, MemTrustedStore, UntrustedStore};

    use super::*;
    use crate::params::CryptoParams;
    use crate::store::{ChunkStore, ChunkStoreConfig, CommitOp, TrustedBackend};
    use crate::version::NextSegmentRecord;

    /// A store on `device` whose oldest segments, once checkpointed, hold
    /// current versions among garbage: 60 DES chunks of 300 bytes, every
    /// one but each fourth overwritten. Returns the chunks still current in
    /// their first version.
    fn fragmented(device: &Arc<MemStore>) -> (ChunkStore, Vec<ChunkId>) {
        let register = Arc::new(MemTrustedStore::new(16));
        let backend = TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(register)));
        let config = ChunkStoreConfig {
            fanout: 4,
            segment_size: 8192,
            checkpoint_threshold: 100_000,
            ..ChunkStoreConfig::default()
        };
        let device = Arc::clone(device) as tdb_storage::SharedUntrusted;
        let store = ChunkStore::create(device, backend, SecretKey::random(24), config).unwrap();
        let p = store.allocate_partition().unwrap();
        let params = CryptoParams::paper_default();
        store
            .commit(vec![CommitOp::CreatePartition { id: p, params }])
            .unwrap();
        let ids: Vec<ChunkId> = (0..60).map(|_| store.allocate_chunk(p).unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            let bytes = vec![i as u8; 300];
            store
                .commit(vec![CommitOp::WriteChunk { id: *id, bytes }])
                .unwrap();
        }
        for id in ids.iter().skip(1).step_by(4) {
            let bytes = vec![0xEE; 300];
            store
                .commit(vec![CommitOp::WriteChunk { id: *id, bytes }])
                .unwrap();
        }
        store.checkpoint().unwrap();
        let kept = ids
            .iter()
            .copied()
            .filter(|id| id.pos.rank % 4 != 1)
            .collect();
        (store, kept)
    }

    /// The next pass's segment and its current versions, as `plan_next`
    /// finds them, with the log's tail before the pass.
    fn next_plan(store: &ChunkStore) -> (SegmentPlan, u64) {
        store
            .with_inner(|inner| {
                let mut candidates = inner.candidates().into_iter();
                let plan = inner.plan_next(&mut candidates)?.expect("a candidate");
                Ok((plan, inner.log.tail_location()))
            })
            .unwrap()
    }

    /// `(id, kind, length)` of every version from `from` up to the next
    /// commit chunk, following next-segment records, which are left out.
    fn walk(store: &ChunkStore, from: u64) -> Vec<(ChunkId, VersionKind, usize)> {
        store
            .with_inner(|inner| {
                let mut seg = inner.log.segment_of(from);
                let mut at = (from - inner.log.segment_offset(seg)) as usize;
                let mut buf = inner.log.read_segment(seg)?;
                let mut out = Vec::new();
                loop {
                    let location = inner.log.segment_offset(seg) + at as u64;
                    let raw =
                        parse_version(&inner.system, &buf[at..], location)?.expect("a version");
                    match raw.header.kind {
                        VersionKind::Commit => return Ok(out),
                        VersionKind::NextSegment => {
                            let body = raw.open_body(&inner.system, location)?;
                            seg = NextSegmentRecord::decode(&body)?.next_segment;
                            (at, buf) = (0, inner.log.read_segment(seg)?);
                        }
                        kind => {
                            out.push((raw.header.id, kind, raw.total_len));
                            at += raw.total_len;
                        }
                    }
                }
            })
            .unwrap()
    }

    /// A pass appends, in segment order, each current version of the
    /// segment it cleans as a `Relocated` version of the same id and
    /// length, each followed by its cleaner record, then its commit chunk:
    /// the layout that sealing and appending them one at a time wrote.
    #[test]
    fn a_pass_appends_each_current_version_then_its_cleaner_record_in_segment_order() {
        let device = Arc::new(MemStore::new());
        let (store, kept) = fragmented(&device);
        let (plan, tail) = next_plan(&store);
        assert!(plan.live.len() >= 4, "{} current versions", plan.live.len());
        let system = Arc::clone(&store.inner.lock().system);
        let expected: Vec<(ChunkId, VersionKind, usize)> = (plan.live.iter())
            .flat_map(|(_, len, id, current_in)| {
                let record = CleanerRecord::encoded_len(current_in.len());
                [
                    (*id, VersionKind::Relocated, *len),
                    (
                        VersionHeader::unnamed_id(),
                        VersionKind::Cleaner,
                        sealed_version_len(&system, &system, record),
                    ),
                ]
            })
            .collect();
        assert_eq!(store.clean(1).unwrap(), 1);
        assert_eq!(walk(&store, tail), expected);
        assert_eq!(store.stats().chunks_relocated, plan.live.len() as u64);
        for id in kept {
            assert_eq!(store.read(id).unwrap(), vec![id.pos.rank as u8; 300]);
        }
    }

    /// A flipped byte in the body of the segment's last current version
    /// fails the pass before any version is appended: relocation alone,
    /// outside the pass's savepoint, leaves the log's tail where it was;
    /// the device keeps the bytes it had, and the store is poisoned.
    #[test]
    fn a_tampered_current_version_fails_the_pass_before_anything_is_appended() {
        let device = Arc::new(MemStore::new());
        let (store, _) = fragmented(&device);
        let (plan, tail) = next_plan(&store);
        let (off, len, _, _) = *plan.live.last().expect("current versions");
        let at = store.inner.lock().log.segment_offset(plan.seg) + (off + len - 20) as u64;
        let mut byte = [0u8];
        device.read_at(at, &mut byte).unwrap();
        device.write_at(at, &[byte[0] ^ 0x10]).unwrap();
        let (plan, _) = next_plan(&store);
        let (err, after) = store
            .with_inner(|inner| {
                let err = inner.relocate(&plan).unwrap_err();
                Ok((err, inner.log.tail_location()))
            })
            .unwrap();
        assert!(err.is_tamper(), "{err}");
        assert_eq!(after, tail, "relocation appended before it validated");
        let before = device.image();
        let err = store.clean(1).unwrap_err();
        assert!(err.is_tamper(), "{err}");
        assert_eq!(store.stats().chunks_relocated, 0);
        assert_eq!(
            device.image(),
            before,
            "the failed pass wrote to the device"
        );
        assert!(store.read(plan.live[0].2).is_err(), "poisoned");
    }
}
