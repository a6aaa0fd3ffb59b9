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
//! commit that decrypts, *revalidates*, and re-hashes each chunk, so the
//! cleaner cannot launder an attacker's modifications. The faster variant
//! the paper sketches, moving sealed bytes verbatim, is not built: recovery
//! pairs each cleaner record with a `Relocated` version.
//!
//! Each [`Inner::clean`] call is one bounded *slice*: the background
//! maintenance runtime ([`crate::maintenance`]) invokes it repeatedly with
//! a few segments per engine-lock hold, so committers interleave between
//! slices instead of stalling behind one long cleaning pass.

use std::collections::HashSet;

use crate::engine::rollback::Undo;
use crate::errors::{CoreError, Result, TamperKind};
use crate::ids::{ChunkId, PartitionId, LEADER_HEIGHT};
use crate::metrics::{self, modules};
use crate::store::{Inner, ValidationMode};
use crate::version::{
    parse_version, seal_version, validate_version, CleanerRecord, VersionHeader, VersionKind,
};

/// What one cleaning pass did, reported to the store facade so the read
/// path can invalidate exactly the published descriptors that went stale.
pub(crate) struct CleanOutcome {
    /// Segments reclaimed.
    pub reclaimed: usize,
    /// `(partition, position)` ids whose current version was relocated;
    /// every other published descriptor survived the pass untouched.
    pub relocated: Vec<ChunkId>,
}

impl Inner {
    /// Cleans up to `max_segments` low-utilization segments; returns how
    /// many were reclaimed and which chunk ids were relocated.
    ///
    /// When nothing outside the residual log is cleanable but the residual
    /// log spans more than the tail segment — a hot set that never trips a
    /// checkpoint leaves every segment residual — it checkpoints once
    /// first, so the segments behind the new leader become cleanable.
    pub(crate) fn clean(&mut self, max_segments: usize) -> Result<CleanOutcome> {
        let mut targets = self.pick_segments(max_segments);
        if targets.is_empty() && self.log.residual_segments().len() > 1 {
            self.checkpoint()?;
            targets = self.pick_segments(max_segments);
        }
        if targets.is_empty() {
            return Ok(CleanOutcome {
                reclaimed: 0,
                relocated: Vec::new(),
            });
        }
        let sp = self.savepoint();
        self.wrote_log = false;
        let result = self.clean_segments(&targets);
        self.end_mutation(&sp, result.as_ref().err(), "cleaning");
        result
    }

    /// Chooses cleanable segments, lowest utilization first ("for
    /// performance reasons, the cleaner selects segments with low
    /// utilization").
    fn pick_segments(&self, max_segments: usize) -> Vec<u32> {
        let residual = self.log.residual_segments();
        let free: HashSet<u32> = self.sys_leader.log.free_segments.iter().copied().collect();
        let mut candidates: Vec<(u32, u32)> = self
            .sys_leader
            .log
            .utilization
            .iter()
            .enumerate()
            .map(|(seg, util)| (*util, seg as u32))
            .filter(|(_, seg)| !residual.contains(seg) && !free.contains(seg))
            .collect();
        candidates.sort_unstable();
        candidates
            .into_iter()
            .take(max_segments)
            .map(|(_, seg)| seg)
            .collect()
    }

    fn clean_segments(&mut self, targets: &[u32]) -> Result<CleanOutcome> {
        self.durable_point_if_due()?;
        if matches!(self.config.validation, ValidationMode::Counter { .. }) {
            self.hashes.begin_set();
        }
        // Obsolete bytes per target, captured before relocation shuffles
        // utilization: the live remainder is rewritten to the tail, so the
        // net space the pass reclaims is segment size minus live bytes.
        let seg_size = self.log.segment_size();
        let obsolete: u64 = targets
            .iter()
            .map(|seg| {
                let live = self
                    .sys_leader
                    .log
                    .utilization
                    .get(*seg as usize)
                    .copied()
                    .unwrap_or(0);
                u64::from(seg_size.saturating_sub(live))
            })
            .sum();
        let mut freed = Vec::new();
        let mut relocated: Vec<ChunkId> = Vec::new();
        let mut rewrote_any = false;
        for &seg in targets {
            rewrote_any |= self.clean_one_segment(seg, &mut relocated)?;
            freed.push(seg);
        }
        if rewrote_any || matches!(self.config.validation, ValidationMode::Counter { .. }) {
            // The rewrites form one commit (§4.9.5: "then commits the set of
            // current chunks"), which reaches the device as one write per
            // contiguous run at its durable point.
            self.finish_commit_batched()?;
            self.durable_point()?;
        }
        // Only after the cleaning commit is durable may the segments be
        // recycled.
        for seg in &freed {
            self.sys_leader.log.free_segments.push(*seg);
            self.undo.push(Undo::SegmentFreed, 4);
            self.update_utilization(*seg, |_| 0);
        }
        self.stats.segments_cleaned += freed.len() as u64;
        self.stats.bytes_reclaimed += obsolete;
        Ok(CleanOutcome {
            reclaimed: freed.len(),
            relocated,
        })
    }

    fn clean_one_segment(&mut self, seg: u32, relocated: &mut Vec<ChunkId>) -> Result<bool> {
        let buf = self.log.read_segment(seg)?;
        let base = self.log.segment_offset(seg);
        let mut off = 0usize;
        let mut rewrote = false;
        while off < buf.len() {
            let location = base + off as u64;
            let parsed = {
                let _t = metrics::span(modules::ENCRYPTION);
                match parse_version(&self.system, &buf[off..], location) {
                    Ok(p) => p,
                    // Torn bytes at an old crash tail: everything beyond is
                    // garbage, and garbage is never current.
                    Err(_) => break,
                }
            };
            let Some(raw) = parsed else { break };
            let total = raw.total_len;
            if matches!(raw.header.kind, VersionKind::Named | VersionKind::Relocated)
                && raw.header.id.pos.height != LEADER_HEIGHT
            {
                let current_in = self.current_in(raw.header.id, location)?;
                if !current_in.is_empty() {
                    self.relocate(
                        raw.header.id,
                        &buf[off..off + total],
                        location,
                        &current_in,
                        relocated,
                    )?;
                    rewrote = true;
                }
            }
            off += total;
        }
        Ok(rewrote)
    }

    /// Finds the partitions (header partition plus its copy closure) in
    /// which the version at `location` is current.
    fn current_in(&mut self, id: ChunkId, location: u64) -> Result<Vec<PartitionId>> {
        let mut result = Vec::new();
        let mut queue = vec![id.partition];
        let mut seen: HashSet<PartitionId> = queue.iter().copied().collect();
        while let Some(q) = queue.pop() {
            if !q.is_system() {
                match self.leader_entry(q) {
                    Ok(entry) => {
                        // Walk down to copies and up to the source, so
                        // sibling copies are reached no matter which family
                        // member the version's header names.
                        let mut neighbors = entry.leader.copies.clone();
                        if let Some(src) = entry.leader.source {
                            neighbors.push(src);
                        }
                        for c in neighbors {
                            if seen.insert(c) {
                                queue.push(c);
                            }
                        }
                    }
                    // Deallocated partition: all its versions are obsolete
                    // (its copies were deallocated with it, §5.5).
                    Err(_) => continue,
                }
            }
            let desc = self.get_descriptor(ChunkId::new(q, id.pos))?;
            if desc.is_written() && desc.location == location {
                result.push(q);
            }
        }
        Ok(result)
    }

    /// Rewrites one current version to the log tail and repoints every
    /// partition in `current_in` at it.
    fn relocate(
        &mut self,
        original_id: ChunkId,
        sealed_old: &[u8],
        old_location: u64,
        current_in: &[PartitionId],
        relocated: &mut Vec<ChunkId>,
    ) -> Result<()> {
        let pos = original_id.pos;
        let owner = current_in[0];
        let old_desc = self.get_descriptor(ChunkId::new(owner, pos))?;
        // The paper's cleaner (§4.9.5): validate the bytes the segment read
        // already holds against the map, then run the regular (re-hashing,
        // re-encrypting) write path — "otherwise, the cleaner might launder
        // chunks modified by an attack".
        let crypto = self.crypto_for(owner)?;
        let (body, _) = validate_version(
            &self.system,
            &crypto,
            ChunkId::new(owner, pos),
            &old_desc,
            sealed_old,
        )?;
        let new_desc = self.write_named(VersionKind::Relocated, original_id, &body)?;
        let record = CleanerRecord {
            pos,
            new_location: new_desc.location,
            current_in: current_in.to_vec(),
        };
        let sealed = {
            let _t = metrics::span(modules::ENCRYPTION);
            seal_version(
                &self.system,
                &self.system,
                VersionKind::Cleaner,
                VersionHeader::unnamed_id(),
                &record.encode(),
            )
        };
        self.append(&sealed)?;
        for &q in current_in {
            // Sanity: each partition still points at the old version.
            let d = self.get_descriptor(ChunkId::new(q, pos))?;
            if !d.is_written() || d.location != old_location {
                return Err(CoreError::TamperDetected(TamperKind::MisdirectedChunk {
                    expected: ChunkId::new(q, pos),
                    location: old_location,
                }));
            }
            self.set_descriptor(ChunkId::new(q, pos), new_desc)?;
            relocated.push(ChunkId::new(q, pos));
        }
        self.stats.chunks_relocated += 1;
        Ok(())
    }
}
