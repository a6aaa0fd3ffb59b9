//! Crash recovery (§4.8): rolling forward through the residual log.
//!
//! "A crash loses buffered updates to the chunk map, but they are recovered
//! upon system restart by rolling forward through the residual log. For
//! each chunk in the residual log, the recovery procedure computes the
//! descriptor based on its location and hash, and puts the descriptor in
//! the chunk-map cache."
//!
//! The procedure also redoes chunk deallocations (§4.8.1), applies cleaner
//! relocations (§5.5), and validates the log against the tamper-resistant
//! store per the configured protocol (§4.8.2): the chained hash and exact
//! tail for direct validation, or signed sequential commit chunks within
//! the (Δut, Δtu) window for counter-based validation.

use std::collections::HashMap;
use std::sync::Arc;

use tdb_crypto::SecretKey;
use tdb_storage::SharedUntrusted;

use crate::cache::MapCache;
use crate::descriptor::Descriptor;
use crate::errors::{CoreError, Result, TamperKind};
use crate::ids::{ChunkId, PartitionId};
use crate::leader::{PartitionLeader, SystemLeader};
use crate::log::{LogHashes, SegmentedLog, Superblock};
use crate::metrics::{self, modules};
use crate::params::CryptoParams;
use crate::store::{
    ChunkStoreConfig, ChunkStoreStats, DirectRecord, Inner, LeaderEntry, TrustedBackend,
    ValidationMode,
};
use crate::version::{
    parse_version, CleanerRecord, CommitRecord, DeallocRecord, NextSegmentRecord, RawVersion,
    VersionKind, UNNAMED_HEIGHT,
};

/// Opens an existing store: locate the leader via the superblock, roll the
/// residual log forward, and validate against the trusted store.
pub(crate) fn recover(
    store: SharedUntrusted,
    trusted: TrustedBackend,
    secret: SecretKey,
    config: ChunkStoreConfig,
) -> Result<Inner> {
    let superblock = Superblock::read(&store)?;
    let candidates =
        if superblock.prev_leader != 0 && superblock.prev_leader != superblock.current_leader {
            vec![superblock.current_leader, superblock.prev_leader]
        } else {
            vec![superblock.current_leader]
        };
    let mut first_err = None;
    for loc in candidates {
        match recover_from(
            Arc::clone(&store),
            trusted.clone(),
            secret.clone(),
            config.clone(),
            superblock,
            loc,
        ) {
            Ok(inner) => return Ok(inner),
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    Err(first_err.unwrap_or(CoreError::TamperDetected(TamperKind::NoValidLeader)))
}

/// One buffered replay action (counter mode applies a commit set only once
/// its commit chunk validates; a torn tail is discarded wholesale).
enum ReplayAction {
    Named { raw: RawVersion, location: u64 },
    Dealloc(DeallocRecord),
    Cleaner(CleanerRecord),
}

fn recover_from(
    store: SharedUntrusted,
    trusted: TrustedBackend,
    secret: SecretKey,
    config: ChunkStoreConfig,
    superblock: Superblock,
    leader_loc: u64,
) -> Result<Inner> {
    // Kept for restarting recovery at a mid-residual system leader (an
    // interrupted checkpoint; see the `Named` arm of the replay loop).
    let reopen = (
        Arc::clone(&store),
        trusted.clone(),
        secret.clone(),
        config.clone(),
    );
    let sys_params = CryptoParams {
        cipher: config.system_cipher,
        hash: config.system_hash,
        key: secret,
    };
    let system = Arc::new(sys_params.runtime()?);

    // Provisional log geometry to read the leader's segment.
    let seg_size = config.segment_size;
    let log = SegmentedLog::new(
        Arc::clone(&store),
        &system,
        seg_size,
        config.max_segments,
        0,
        0,
    );
    let mut hashes = LogHashes::new(
        config.system_hash,
        config.validation == ValidationMode::DirectHash,
    );

    // Read and identify the leader (§4.9.2: "the recovery procedure checks
    // that the chunk at the stored location is the leader").
    if leader_loc < crate::log::SEGMENT_BASE {
        return Err(CoreError::TamperDetected(TamperKind::NotALeader {
            location: leader_loc,
        }));
    }
    let leader_seg = log.segment_of(leader_loc);
    let mut seg_buf = log.read_segment(leader_seg)?;
    let mut off = (leader_loc - log.segment_offset(leader_seg)) as usize;
    if off >= seg_buf.len() {
        return Err(CoreError::TamperDetected(TamperKind::NotALeader {
            location: leader_loc,
        }));
    }
    let leader_raw = parse_version(&system, &seg_buf[off..], leader_loc)?.ok_or(
        CoreError::TamperDetected(TamperKind::NotALeader {
            location: leader_loc,
        }),
    )?;
    if leader_raw.header.kind != VersionKind::Named
        || leader_raw.header.id != ChunkId::system_leader()
    {
        return Err(CoreError::TamperDetected(TamperKind::NotALeader {
            location: leader_loc,
        }));
    }
    let leader_body = {
        let _t = metrics::span(modules::ENCRYPTION);
        leader_raw.open_body(&system, leader_loc)?
    };
    let sys_leader = SystemLeader::decode(&leader_body, &sys_params)?;
    if sys_leader.log.segment_size != seg_size {
        return Err(CoreError::Corrupt(format!(
            "configured segment size {seg_size} does not match stored {}",
            sys_leader.log.segment_size
        )));
    }

    // Direct validation: the chain restarts at the leader.
    let leader_bytes = seg_buf[off..off + leader_raw.total_len].to_vec();
    hashes.absorb(&leader_bytes);

    let mut inner = Inner {
        map_cache: MapCache::new(config.map_cache_capacity),
        lazy: crate::engine::dirty::DirtyTreeAccumulator::default(),
        system: Arc::clone(&system),
        trusted,
        log,
        hashes,
        sys_alloc_next: sys_leader.map.next_rank,
        sys_alloc_free: sys_leader.map.free_ranks.clone(),
        sys_reserved: std::collections::HashSet::new(),
        sys_leader,
        leaders: HashMap::new(),
        commit_count: 0,
        trusted_count: 0,
        leader_version: Some((leader_loc, leader_raw.total_len as u32)),
        superblock,
        stats: ChunkStoreStats::default(),
        health: crate::store::StoreHealth::Live,
        wrote_log: false,
        undo: crate::undo::Journal::new(),
        bodies_sealed_under_lock: 0,
        config,
    };
    inner.log.mark_residual(leader_seg);

    // Direct mode reads {chain, tail} up front to bound the scan.
    let direct_record = match (&inner.config.validation, &inner.trusted) {
        (ValidationMode::DirectHash, TrustedBackend::Register(r)) => {
            let _t = metrics::span(modules::TRUSTED_STORE);
            let bytes = r.read()?;
            if bytes.is_empty() {
                return Err(CoreError::TamperDetected(TamperKind::LogHashMismatch));
            }
            Some(DirectRecord::decode(&bytes)?)
        }
        (ValidationMode::DirectHash, TrustedBackend::Counter(_)) => {
            return Err(CoreError::Corrupt(
                "direct validation configured with a counter backend".into(),
            ))
        }
        (ValidationMode::Counter { .. }, TrustedBackend::Counter(_)) => None,
        (ValidationMode::Counter { .. }, TrustedBackend::Register(_)) => {
            return Err(CoreError::Corrupt(
                "counter validation configured with a register backend".into(),
            ))
        }
    };

    // ---- Roll forward -------------------------------------------------------
    let counter_mode = direct_record.is_none();
    off += leader_raw.total_len;
    let mut seg = leader_seg;
    let mut pending: Vec<ReplayAction> = Vec::new();
    // Descriptors computed for relocated versions in the current set.
    let mut relocated: HashMap<u64, RelocatedVersion> = HashMap::new();
    // Counter mode: hash of the current set and the count sequence.
    let mut set_hasher = inner.config.system_hash.hasher();
    // The first set is the checkpoint's own, covering the leader alone.
    set_hasher.update(&leader_bytes);
    let mut last_count: Option<u64> = None;
    // The validated tail (end of last accepted commit set / direct tail).
    let mut valid_tail = leader_loc + leader_raw.total_len as u64;

    'scan: loop {
        let location = inner.log.segment_offset(seg) + off as u64;
        if let Some(rec) = &direct_record {
            if location == rec.tail {
                break 'scan;
            }
            // Past the tail without landing on it. Only within the tail's
            // own segment: the residual log may run through recycled
            // segments, whose offsets say nothing about log order.
            if location > rec.tail && seg == inner.log.segment_of(rec.tail) {
                return Err(CoreError::TamperDetected(TamperKind::LogHashMismatch));
            }
        }
        let parsed = if off >= seg_buf.len() {
            None
        } else {
            match parse_version(&system, &seg_buf[off..], location) {
                Ok(p) => p,
                Err(_) if counter_mode => None, // Torn tail.
                Err(e) => return Err(e),
            }
        };
        let raw = match parsed {
            Some(r) => r,
            None => {
                if direct_record.is_some() {
                    // The validated range ended before the trusted tail.
                    return Err(CoreError::TamperDetected(TamperKind::LogHashMismatch));
                }
                break 'scan;
            }
        };
        let total_len = raw.total_len;
        let bytes = &seg_buf[off..off + total_len];
        inner.hashes.absorb(bytes);
        let next_off = off + total_len;

        match raw.header.kind {
            VersionKind::NextSegment => {
                set_hasher.update(bytes);
                let body = raw.open_body(&system, location)?;
                let rec = NextSegmentRecord::decode(&body)?;
                // Extend replayed log geometry for segments allocated after
                // the checkpoint.
                while inner.sys_leader.log.num_segments <= rec.next_segment {
                    inner.sys_leader.log.num_segments += 1;
                    inner.sys_leader.log.utilization.push(0);
                }
                inner
                    .sys_leader
                    .log
                    .free_segments
                    .retain(|s| *s != rec.next_segment);
                seg = rec.next_segment;
                seg_buf = inner.log.read_segment(seg)?;
                off = 0;
                inner.log.mark_residual(seg);
                continue 'scan;
            }
            VersionKind::Commit => {
                if !counter_mode {
                    return Err(CoreError::Corrupt(
                        "commit chunk found in a direct-validation log".into(),
                    ));
                }
                let body = match raw.open_body(&system, location) {
                    Ok(b) => b,
                    Err(_) => break 'scan, // Torn commit chunk.
                };
                let rec = match CommitRecord::decode(&body) {
                    Ok(r) => r,
                    Err(_) => break 'scan,
                };
                if !rec.verify(&system) {
                    return Err(CoreError::TamperDetected(TamperKind::BadCommitSignature {
                        location,
                    }));
                }
                let set_hash =
                    std::mem::replace(&mut set_hasher, inner.config.system_hash.hasher())
                        .finalize();
                if set_hash.as_bytes() != rec.set_hash.as_slice() {
                    // §4.9.3: "the recovery procedure stops when the hash of
                    // a commit set does not match" — a torn tail. Deleted or
                    // replayed *middle* sets surface as a count-window
                    // violation below.
                    pending.clear();
                    break 'scan;
                }
                if let Some(prev) = last_count {
                    if rec.count != prev + 1 {
                        return Err(CoreError::TamperDetected(
                            TamperKind::NonSequentialCommitCount {
                                expected: prev + 1,
                                got: rec.count,
                            },
                        ));
                    }
                }
                last_count = Some(rec.count);
                // The set is valid: apply its buffered actions in order.
                for action in pending.drain(..) {
                    apply_action(&mut inner, action, &mut relocated)?;
                }
                relocated.clear();
                valid_tail = location + total_len as u64;
                off = next_off;
                continue 'scan;
            }
            VersionKind::Dealloc => {
                set_hasher.update(bytes);
                let body = raw.open_body(&system, location)?;
                let rec = DeallocRecord::decode(&body)?;
                let action = ReplayAction::Dealloc(rec);
                if counter_mode {
                    pending.push(action);
                } else {
                    apply_action(&mut inner, action, &mut relocated)?;
                }
            }
            VersionKind::Cleaner => {
                set_hasher.update(bytes);
                let body = raw.open_body(&system, location)?;
                let rec = CleanerRecord::decode(&body)?;
                let action = ReplayAction::Cleaner(rec);
                if counter_mode {
                    pending.push(action);
                } else {
                    apply_action(&mut inner, action, &mut relocated)?;
                }
            }
            VersionKind::Named | VersionKind::Relocated => {
                if counter_mode
                    && raw.header.kind == VersionKind::Named
                    && raw.header.id == ChunkId::system_leader()
                {
                    // A mid-residual system leader: a checkpoint whose
                    // superblock update never landed, possibly with the
                    // trusted counter already advanced. Live checkpoints
                    // restart the commit set at the leader ("as if the
                    // leader were the only chunk in the commit set",
                    // §4.8.2.2), so the set accumulated here can never
                    // match — adopt the checkpoint by restarting recovery
                    // rooted at this leader, which replays exactly that
                    // set shape. If the interrupted checkpoint is itself
                    // torn (no valid commit chunk after the leader), fall
                    // back to treating it as a discarded torn tail.
                    match recover_from(
                        Arc::clone(&reopen.0),
                        reopen.1.clone(),
                        reopen.2.clone(),
                        reopen.3.clone(),
                        superblock,
                        location,
                    ) {
                        Ok(adopted) => return Ok(adopted),
                        Err(_) => {
                            pending.clear();
                            break 'scan;
                        }
                    }
                }
                set_hasher.update(bytes);
                if raw.header.id.pos.height == UNNAMED_HEIGHT {
                    return Err(CoreError::Corrupt(
                        "named version with reserved height".into(),
                    ));
                }
                let action = ReplayAction::Named { raw, location };
                if counter_mode {
                    pending.push(action);
                } else {
                    apply_action(&mut inner, action, &mut relocated)?;
                }
            }
        }
        off = next_off;
        if direct_record.is_some() {
            valid_tail = location + total_len as u64;
        }
    }

    // ---- Validate against the trusted store ---------------------------------
    match (direct_record, inner.config.validation) {
        (Some(rec), _) => {
            if valid_tail != rec.tail || !inner.hashes.chain.ct_eq(&rec.chain) {
                return Err(CoreError::TamperDetected(TamperKind::LogHashMismatch));
            }
        }
        // Direct mode read its record before the scan or returned; a
        // missing one reads as the empty record does.
        (None, ValidationMode::DirectHash) => {
            return Err(CoreError::TamperDetected(TamperKind::LogHashMismatch));
        }
        (None, ValidationMode::Counter { delta_ut, delta_tu }) => {
            let u = match last_count {
                Some(c) => c,
                // Not even the checkpoint's commit chunk validated: this
                // checkpoint never completed. The caller falls back to the
                // previous leader.
                None => {
                    return Err(CoreError::TamperDetected(
                        TamperKind::CommitSetHashMismatch {
                            location: leader_loc,
                        },
                    ))
                }
            };
            let t = match &inner.trusted {
                TrustedBackend::Counter(c) => {
                    let _t = metrics::span(modules::TRUSTED_STORE);
                    c.get()?
                }
                TrustedBackend::Register(_) => unreachable!("checked above"),
            };
            // Accept t - Δtu ≤ u ≤ t + Δut + 1 (the +1 covers a batch's last
            // member when the crash took the counter advance after its flush).
            let low_ok = u + delta_tu >= t;
            let high_ok = u <= t + delta_ut + 1;
            if !low_ok || !high_ok {
                return Err(CoreError::TamperDetected(
                    TamperKind::CounterWindowViolated { trusted: t, log: u },
                ));
            }
            inner.commit_count = u;
            inner.trusted_count = t;
            if u > t {
                inner.advance_counter(u)?;
            }
        }
    }

    // Position the append cursor at the validated tail.
    let tail_seg = inner.log.segment_of(valid_tail);
    let tail_off = (valid_tail - inner.log.segment_offset(tail_seg)) as u32;
    inner.log.set_tail(tail_seg, tail_off);
    Ok(inner)
}

/// A relocated version awaiting its cleaner record.
struct RelocatedVersion {
    desc: Descriptor,
}

fn apply_action(
    inner: &mut Inner,
    action: ReplayAction,
    relocated: &mut HashMap<u64, RelocatedVersion>,
) -> Result<()> {
    match action {
        ReplayAction::Named { raw, location } => apply_named(inner, raw, location, relocated),
        ReplayAction::Dealloc(rec) => {
            for id in rec.ids {
                if id.partition.is_system() && id.pos.is_data() {
                    // A partition leader was deallocated: the partition and
                    // its cached state go with it.
                    let p = PartitionId::from_leader_rank(id.pos.rank);
                    inner.leaders.remove(&p);
                    inner.map_cache.purge_partition(p);
                    inner.set_descriptor(id, Descriptor::unallocated())?;
                    inner.sys_leader.map.push_free(id.pos.rank);
                    inner.sys_alloc_free.push(id.pos.rank);
                } else {
                    inner.set_descriptor(id, Descriptor::unallocated())?;
                    if let Ok(entry) = inner.leader_entry_mut(id.partition) {
                        entry.leader.push_free(id.pos.rank);
                        entry.alloc_free.push(id.pos.rank);
                        entry.dirty = true;
                    }
                }
            }
            Ok(())
        }
        ReplayAction::Cleaner(rec) => {
            let Some(reloc) = relocated.get(&rec.new_location) else {
                return Err(CoreError::Corrupt(
                    "cleaner record references unknown relocated version".into(),
                ));
            };
            let desc = reloc.desc;
            for q in rec.current_in {
                inner.ensure_capacity_for_pos(q, rec.pos)?;
                inner.set_descriptor(ChunkId::new(q, rec.pos), desc)?;
            }
            Ok(())
        }
    }
}

fn apply_named(
    inner: &mut Inner,
    raw: RawVersion,
    location: u64,
    relocated: &mut HashMap<u64, RelocatedVersion>,
) -> Result<()> {
    let id = raw.header.id;

    // A mid-residual system leader: an interrupted checkpoint whose
    // superblock update never landed. Adopt its state and continue.
    if id == ChunkId::system_leader() {
        let body = raw.open_body(&inner.system, location)?;
        let sys_params = CryptoParams {
            cipher: inner.config.system_cipher,
            hash: inner.config.system_hash,
            key: inner.sys_leader.map.params.key.clone(),
        };
        let new_leader = SystemLeader::decode(&body, &sys_params)?;
        // Retire the previous leader version in utilization terms.
        if let Some((old_loc, old_vlen)) = inner.leader_version {
            let seg = inner.log.segment_of(old_loc) as usize;
            if let Some(u) = inner.sys_leader.log.utilization.get_mut(seg) {
                *u = u.saturating_sub(old_vlen);
            }
        }
        inner.sys_leader = new_leader;
        inner.sys_alloc_next = inner.sys_alloc_next.max(inner.sys_leader.map.next_rank);
        inner.leader_version = Some((location, raw.total_len as u32));
        let seg = inner.log.segment_of(location) as usize;
        if let Some(u) = inner.sys_leader.log.utilization.get_mut(seg) {
            *u += raw.total_len as u32;
        }
        return Ok(());
    }

    // Decrypt with the owning partition's cipher and compute the descriptor
    // ("the recovery procedure computes the descriptor based on its
    // location and hash", §4.8).
    let crypto = inner.crypto_for(id.partition)?;
    let body = {
        let _t = metrics::span(modules::ENCRYPTION);
        raw.open_body(&crypto, location)?
    };
    let hash = {
        let _t = metrics::span(modules::HASHING);
        crypto.hash(&body)
    };
    // The hash covers the stored bytes, but a descriptor's `size` is the
    // logical length: for a compressed envelope, read the declared length
    // from its header — bounded by the largest version the log accepts —
    // without ever running the decompressor during recovery.
    let size = if raw.header.compressed {
        let max = inner.log.max_version_len() as usize;
        crate::compress::declared_len(&body)
            .filter(|&n| n <= max)
            .ok_or(CoreError::TamperDetected(TamperKind::UndecryptableChunk {
                location,
            }))? as u32
    } else {
        body.len() as u32
    };
    let desc = Descriptor::written(location, raw.total_len as u32, size, hash);

    if raw.header.kind == VersionKind::Relocated {
        // Applied only through its cleaner record (§5.5), which names the
        // partitions where it is actually current.
        relocated.insert(location, RelocatedVersion { desc });
        return Ok(());
    }

    inner.ensure_capacity_for_pos(id.partition, id.pos)?;

    if id.partition.is_system() && id.pos.is_data() {
        // A partition leader write: decode and refresh the partition cache.
        let p = PartitionId::from_leader_rank(id.pos.rank);
        let was_written = inner.get_descriptor(id)?.is_written();
        let leader = PartitionLeader::decode(&body)?;
        let new_copy_of = leader.source.filter(|_| !was_written);
        inner.set_descriptor(id, desc)?;
        inner.sys_leader.map.next_rank = inner.sys_leader.map.next_rank.max(id.pos.rank + 1);
        inner.sys_alloc_next = inner.sys_alloc_next.max(inner.sys_leader.map.next_rank);
        inner.sys_leader.map.unfree(id.pos.rank);
        if let Some(src) = new_copy_of {
            // Reproduce the copy-time cache cloning (§5.3): the source's
            // buffered map overrides as of this point in the log.
            inner.map_cache.clone_dirty(src, p);
        }
        match inner.leaders.get_mut(&p) {
            Some(entry) => {
                let alloc_next = entry.alloc_next.max(leader.next_rank);
                entry.leader = leader;
                entry.alloc_next = alloc_next;
                entry.dirty = false;
            }
            None => {
                inner.leaders.insert(p, LeaderEntry::new(leader)?);
            }
        }
        return Ok(());
    }

    if id.pos.is_map() {
        // Map chunks in the residual log come from interrupted checkpoints.
        inner.set_descriptor(id, desc)?;
        // Cached content, if any, equals this version by construction.
        inner.map_cache.mark_clean(id.partition, id.pos);
        return Ok(());
    }

    // Ordinary data chunk.
    inner.set_descriptor(id, desc)?;
    if !id.partition.is_system() {
        let entry = inner.leader_entry_mut(id.partition)?;
        entry.leader.next_rank = entry.leader.next_rank.max(id.pos.rank + 1);
        entry.alloc_next = entry.alloc_next.max(entry.leader.next_rank);
        entry.leader.unfree(id.pos.rank);
        entry.alloc_free.retain(|r| *r != id.pos.rank);
        entry.dirty = true;
    }
    Ok(())
}
