//! Checkpointing (§4.7): consolidating buffered chunk-map updates.
//!
//! "When the cache becomes too large because of dirty descriptors, all map
//! chunks containing dirty descriptors and their ancestors up to the leader
//! are written to the log … The chunk store extends the optimization to
//! propagating hash values up the chunk map."
//!
//! Write order is strictly bottom-up: user-partition map chunks (heights
//! ascending), then dirty partition leaders (data chunks of the system
//! partition), then system map chunks (heights ascending), and the system
//! leader last. "The leader is written last during a checkpoint" — the log
//! before it is the checkpointed log, the leader and everything after is
//! the residual log.
//!
//! An automatic checkpoint is due ([`Inner::checkpoint_due`]) when either
//! the dirty map chunks reach `checkpoint_threshold` — §4.7's "when the
//! cache becomes too large because of dirty descriptors" — or the residual
//! log outgrows [`RESIDUAL_BUDGET`], which bounds what recovery replays and
//! what the cleaner may not touch.

use crate::engine::commit::COMMIT_CHUNK_ROOM;
use crate::engine::rollback::Undo;
use crate::errors::Result;
use crate::ids::{ChunkId, PartitionId, Position};
use crate::log::Superblock;
use crate::metrics::{self, modules};
use crate::pipeline::{self, SealJob};
use crate::slot_tree::chunk_digest;
use crate::store::{Inner, ValidationMode};
use crate::version::{seal_version, sealed_version_len, VersionKind};

/// Residual-log bytes past which a checkpoint is due, whatever the dirty
/// map count; counted in whole segments of the configured size.
///
/// Recovery replays the residual log at about 20 ms per MiB on the paper's
/// DES/SHA-1 (a full budget of 1000-byte single-chunk commits reopens in
/// 144 ms, of 300-byte ones in 171 ms; 50 ms on AES/SHA-256), so 8 MiB
/// bounds a reopen near 170 ms. Swept against write amplification (stored
/// bytes per user byte on the benchmark's three write workloads), 8 MiB is
/// the smallest budget that adds no checkpoint to a workload whose hot set
/// never reaches the dirty threshold, and within 4% of no budget at all on
/// the others:
///
/// | budget  | goods-txn | kv-update | net-update |
/// |---------|----------:|----------:|-----------:|
/// | 1 MiB   |      7.63 |      2.57 |       6.00 |
/// | 2 MiB   |      6.53 |      2.33 |       5.60 |
/// | 4 MiB   |      5.87 |      2.20 |       5.44 |
/// | 8 MiB   |      5.52 |      2.18 |       5.36 |
/// | none    |      5.33 |      2.20 |       5.36 |
const RESIDUAL_BUDGET: u64 = 8 << 20;

impl Inner {
    /// Whether an automatic checkpoint is due: the dirty map chunks reached
    /// `checkpoint_threshold`, or the residual log spans more segments
    /// than [`RESIDUAL_BUDGET`] holds. The commit path's one trigger.
    pub(crate) fn checkpoint_due(&self) -> bool {
        let budget = (RESIDUAL_BUDGET / u64::from(self.log.segment_size())).max(1);
        self.map_cache.dirty_count() >= self.config.checkpoint_threshold
            || self.log.residual_segments().len() as u64 > budget
    }

    /// Runs a full checkpoint. Safe to call with no dirty state (used to
    /// format a fresh store). Its map chunks, leaders and commit chunk
    /// reach the device as one write per contiguous run at its flush.
    ///
    /// # Errors
    ///
    /// On a storage failure the in-memory state rolls back to the savepoint
    /// taken here, discarding any runs still buffered; the store degrades
    /// to read-only if any log bytes had been written, stays live
    /// otherwise. Integrity violations poison (see `Inner::end_mutation`).
    pub(crate) fn checkpoint(&mut self) -> Result<()> {
        let sp = self.savepoint();
        self.wrote_log = false;
        let result = self.checkpoint_impl();
        self.end_mutation(&sp, result.as_ref().err(), "checkpoint");
        result
    }

    fn checkpoint_impl(&mut self) -> Result<()> {
        self.durable_point_if_due()?;
        // Incremental accounting: levels that are cached but hold no dirty
        // chunk are never visited below (the dirty index hands out only
        // dirty levels), so a lightly dirtied tree checkpoints in O(dirty).
        let (levels_present, levels_dirty) = self.map_cache.level_counts();
        let skipped = levels_present.saturating_sub(levels_dirty) as u64;
        self.stats.dirty_map_levels_skipped += skipped;

        // 1. User-partition map chunks, bottom-up. Writing a chunk at height
        //    h dirties its parent at h+1 (or the partition leader), so
        //    re-collect keys per height until only system chunks remain.
        self.write_dirty_maps(false)?;

        // 2. Dirty partition leaders become system data chunks, in id
        //    order so the log layout does not depend on hash-map order.
        //    The system partition's is the system leader, written last.
        let mut dirty_leaders: Vec<PartitionId> = self
            .leaders
            .iter()
            .filter(|(p, e)| e.dirty && !p.is_system())
            .map(|(p, _)| *p)
            .collect();
        dirty_leaders.sort_unstable();
        for p in dirty_leaders {
            let leader = self.leaders.get(&p).expect("listed above").leader.clone();
            self.write_partition_leader(p, leader)?;
        }

        // 3. System map chunks, bottom-up.
        self.write_dirty_maps(true)?;

        // 4. The system leader, last. Budget room for it plus the commit
        //    chunk so nothing after the hash boundary switches segments.
        self.sys_leader.checkpoint_seq += 1;
        let probe = self.leader_body();
        let budget = sealed_version_len(&self.system, &self.system, probe.len() + 64) as u32
            + COMMIT_CHUNK_ROOM;
        self.ensure_room(budget)?;

        let counter_mode = matches!(self.config.validation, ValidationMode::Counter { .. });
        if counter_mode {
            // The checkpoint's commit chunk covers the leader alone: "a
            // checkpoint is followed by a commit chunk containing the hash
            // of the leader chunk, as if the leader were the only chunk in
            // the commit set" (§4.8.2.2).
            self.hashes.begin_set();
        } else {
            // Direct validation: the chained hash restarts at the leader,
            // the head of the new residual log (§4.8.2.1).
            self.hashes.reset_chain();
        }

        // Utilization: retire the previous leader version and count this
        // one before the table is encoded, so the table a reopen reads
        // charges the leader it was read from. The room is ensured, so the
        // leader lands at the tail, and its length does not depend on the
        // table's values.
        let leader_loc = self.log.tail_location();
        let body_len = self.leader_body().len();
        let leader_len = sealed_version_len(&self.system, &self.system, body_len) as u32;
        if let Some((old_loc, old_vlen)) = self.leader_version {
            self.update_utilization(self.log.segment_of(old_loc), |live| {
                live.saturating_sub(old_vlen)
            });
        }
        self.update_utilization(self.log.segment_of(leader_loc), |live| live + leader_len);
        self.leader_version = Some((leader_loc, leader_len));

        // Re-encode after ensure_room (a segment switch changes log state).
        let body = self.leader_body();
        let sealed = seal_version(
            &self.system,
            &self.system,
            VersionKind::Named,
            ChunkId::system_leader(),
            &body,
        );
        debug_assert_eq!(sealed.len() as u32, leader_len);
        let appended = self.append(&sealed)?;
        debug_assert_eq!(appended, leader_loc);

        // 5. Seal the checkpoint per the validation protocol.
        match self.config.validation {
            ValidationMode::Counter { .. } => {
                let count = self.append_commit_chunk()?;
                self.flush_log()?;
                // A checkpoint always syncs the counter.
                self.advance_counter(count)?;
                self.write_superblock(leader_loc)?;
            }
            ValidationMode::DirectHash => {
                self.flush_log()?;
                // Superblock first, trusted record second: whichever leader
                // the register's chain matches is the one recovery accepts,
                // so both crash windows fall back cleanly (§4.9.2).
                self.write_superblock(leader_loc)?;
                self.write_direct_record()?;
            }
        }

        // 6. The residual log now starts at the leader, and the segments
        //    the cleaner emptied before it are free.
        self.log.reset_residual();
        if !self.cleaned.is_empty() {
            let released = self.cleaned.len();
            self.sys_leader.log.free_segments.append(&mut self.cleaned);
            self.undo.push(Undo::SegmentsReleased(released), 8);
        }
        self.stats.checkpoints += 1;
        self.stats.commits += 1;
        Ok(())
    }

    /// Writes every dirty map chunk of user partitions (`system == false`)
    /// or the system partition (`system == true`), heights ascending.
    ///
    /// Incremental: each pass pulls exactly the lowest dirty level from
    /// the cache's dirty index — clean levels are never scanned. Writing a
    /// chunk at height h only dirties chunks at heights > h (its
    /// ancestors), so one whole level can be written per pass.
    fn write_dirty_maps(&mut self, system: bool) -> Result<()> {
        while let Some((_, level_keys)) = self.map_cache.min_dirty_level(system) {
            self.write_map_level(&level_keys)?;
        }
        Ok(())
    }

    /// Writes one height level of dirty map chunks. Chunks at the same
    /// height are independent (they dirty only their ancestors), so the
    /// level is one batch for the crypto pipeline, which seals the bodies
    /// of one cipher as lanes; the log appends stay sequential, in key
    /// order.
    ///
    /// Every dirty chunk below this level is written already, so each
    /// chunk's effective body is its cached body, and its digest is the
    /// root of its cached slot tree: only leaves changed since the tree
    /// was last current are hashed.
    fn write_map_level(&mut self, keys: &[(PartitionId, Position)]) -> Result<()> {
        // Resolve cryptos, digests and bodies first (all may touch engine
        // caches), then seal the whole level.
        let mut cryptos = Vec::with_capacity(keys.len());
        let mut hashes = Vec::with_capacity(keys.len());
        let mut bodies = Vec::with_capacity(keys.len());
        for (p, pos) in keys {
            let crypto = self.crypto_for(*p)?;
            let kind = crypto.hash_kind();
            let body = self
                .map_cache
                .get(*p, *pos)
                .expect("dirty chunk must be cached")
                .encode(kind.digest_len());
            let hash = {
                let _t = metrics::span(modules::HASHING);
                self.map_cache.root_over(*p, *pos, kind, &body)
            };
            debug_assert_eq!(
                hash,
                chunk_digest(kind, *pos, &body),
                "cached slot tree of {p} at {pos} is stale"
            );
            hashes.push(hash);
            cryptos.push(crypto);
            bodies.push(body);
        }
        let jobs: Vec<SealJob<'_>> = keys
            .iter()
            .zip(cryptos)
            .zip(&bodies)
            .map(|(((p, pos), crypto), body)| (ChunkId::new(*p, *pos), crypto, body.as_slice()))
            .collect();
        let sealed = pipeline::seal_hashed(&self.system, VersionKind::Named, &jobs, hashes);
        for ((p, pos), pre) in keys.iter().zip(sealed) {
            let id = ChunkId::new(*p, *pos);
            let desc = self.append_presealed(pre)?;
            self.set_descriptor(id, desc)?;
            self.map_cache.mark_clean(*p, *pos);
        }
        Ok(())
    }

    /// The system leader's body as this checkpoint writes it: the segments
    /// the cleaner emptied are free in it, since once it is durable
    /// nothing recovery reads lies in them.
    pub(crate) fn leader_body(&mut self) -> Vec<u8> {
        let log = &mut self.sys_leader.log;
        let free = log.free_segments.len();
        log.free_segments.extend_from_slice(&self.cleaned);
        let body = self.sys_leader.encode(self.system_map());
        self.sys_leader.log.free_segments.truncate(free);
        body
    }

    pub(crate) fn write_superblock(&mut self, leader_loc: u64) -> Result<()> {
        let sb = Superblock {
            epoch: self.superblock.epoch + 1,
            current_leader: leader_loc,
            prev_leader: self.superblock.current_leader,
            suite: self.superblock.suite,
        };
        sb.write(self.log.store())?;
        self.superblock = sb;
        Ok(())
    }
}
