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

use crate::descriptor::Descriptor;
use crate::errors::{CoreError, Result, TamperKind};
use crate::ids::{ChunkId, PartitionId};
use crate::leader::{PartitionLeader, SystemLeader};
use crate::log::{SegmentedLog, Superblock};
use crate::metrics::{self, modules};
use crate::slot_tree::chunk_digest;
use crate::store::{ChunkStoreConfig, DirectRecord, Inner, TrustedBackend, ValidationMode};
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
    // The suite record first: nothing is decrypted under a suite the
    // store was not created with.
    let superblock = Superblock::read(&store)?;
    superblock
        .suite
        .check(&secret, config.system_cipher, config.system_hash)?;
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
            None,
        ) {
            Ok(mut inner) => {
                complete_adopted_checkpoint(&mut inner, loc)?;
                return Ok(inner);
            }
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    Err(first_err.unwrap_or(CoreError::TamperDetected(TamperKind::NoValidLeader)))
}

/// Finishes a checkpoint that recovery adopted as a mid-residual leader:
/// its leader and commit chunk reached the log, but its superblock write
/// did not. The engine now treats the log before the adopted leader as no
/// longer residual, so the cleaner may recycle it; left unnamed, the next
/// open would scan from `started_from` into those recycled segments.
/// Flushes first, so the named leader is durable before the superblock
/// points at it.
fn complete_adopted_checkpoint(inner: &mut Inner, started_from: u64) -> Result<()> {
    match inner.leader_version {
        Some((adopted, _)) if adopted != started_from => {
            inner.log.store().flush()?;
            inner.write_superblock(adopted)
        }
        _ => Ok(()),
    }
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
    after_seq: Option<u64>,
) -> Result<Inner> {
    let sys_params = config.system_params(&secret);
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

    // Read and identify the leader (§4.9.2: "the recovery procedure checks
    // that the chunk at the stored location is the leader").
    let not_a_leader = || {
        CoreError::TamperDetected(TamperKind::NotALeader {
            location: leader_loc,
        })
    };
    if leader_loc < crate::log::SEGMENT_BASE {
        return Err(not_a_leader());
    }
    let leader_seg = log.segment_of(leader_loc);
    let mut seg_buf = log.read_segment(leader_seg)?;
    let mut off = (leader_loc - log.segment_offset(leader_seg)) as usize;
    if off >= seg_buf.len() {
        return Err(not_a_leader());
    }
    let leader_raw =
        parse_version(&system, &seg_buf[off..], leader_loc)?.ok_or_else(not_a_leader)?;
    if leader_raw.header.kind != VersionKind::Named
        || leader_raw.header.id != ChunkId::system_leader()
    {
        return Err(not_a_leader());
    }
    let leader_body = {
        let _t = metrics::span(modules::ENCRYPTION);
        leader_raw.open_body(&system, leader_loc)?
    };
    let sys_leader = SystemLeader::decode(&leader_body, &sys_params)?;
    // A restart adopts only a checkpoint newer than the leader the scan
    // started from. An older one is a stale version that a failed write
    // left exposed in a recycled segment past the tail; following it
    // could lead back around the log to the same leaders without end.
    if after_seq.is_some_and(|seq| sys_leader.checkpoint_seq <= seq) {
        return Err(not_a_leader());
    }
    let root_seq = sys_leader.checkpoint_seq;
    if sys_leader.log.segment_size != seg_size {
        return Err(CoreError::Corrupt(format!(
            "configured segment size {seg_size} does not match stored {}",
            sys_leader.log.segment_size
        )));
    }

    let mut inner = Inner::new(
        config,
        Arc::clone(&system),
        trusted,
        log,
        sys_leader,
        superblock,
    );
    inner.leader_version = Some((leader_loc, leader_raw.total_len as u32));
    // Direct validation: the chain restarts at the leader.
    let leader_bytes = seg_buf[off..off + leader_raw.total_len].to_vec();
    inner.hashes.absorb(&leader_bytes);
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
    // Descriptors computed for relocated versions in the current set, by
    // location, awaiting their cleaner records.
    let mut relocated: HashMap<u64, Descriptor> = HashMap::new();
    // Counter mode: hash of the current set and the count sequence.
    let mut set_hasher = inner.config.system_hash.hasher();
    // The first set is the checkpoint's own, covering the leader alone.
    set_hasher.update(&leader_bytes);
    let mut last_count: Option<u64> = None;
    // The validated tail (end of last accepted commit set / direct tail).
    let mut valid_tail = leader_loc + leader_raw.total_len as u64;

    // Bytes read before the protocol vouches for them: an error here ends
    // a counter-mode scan as a torn tail, which the count window then
    // judges, and is tamper in direct mode, where the register's chain
    // covers every byte up to its tail. Storage errors pass through.
    macro_rules! unvouched {
        ($scan:lifetime, $result:expr) => {
            match $result {
                Ok(v) => v,
                Err(e @ CoreError::Store(_)) => return Err(e),
                Err(_) if counter_mode => break $scan,
                Err(_) => return Err(CoreError::TamperDetected(TamperKind::LogHashMismatch)),
            }
        };
    }

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
            unvouched!('scan, parse_version(&system, &seg_buf[off..], location))
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
                let body = unvouched!('scan, raw.open_body(&system, location));
                let rec = unvouched!('scan, NextSegmentRecord::decode(&body));
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
                    // No direct-validation writer appends one.
                    return Err(CoreError::TamperDetected(TamperKind::LogHashMismatch));
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
                let body = unvouched!('scan, raw.open_body(&system, location));
                let rec = unvouched!('scan, DeallocRecord::decode(&body));
                pending.push(ReplayAction::Dealloc(rec));
            }
            VersionKind::Cleaner => {
                set_hasher.update(bytes);
                let body = unvouched!('scan, raw.open_body(&system, location));
                let rec = unvouched!('scan, CleanerRecord::decode(&body));
                pending.push(ReplayAction::Cleaner(rec));
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
                        Arc::clone(&store),
                        inner.trusted.clone(),
                        secret.clone(),
                        inner.config.clone(),
                        superblock,
                        location,
                        Some(root_seq),
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
                    let reserved = CoreError::Corrupt("named version with reserved height".into());
                    unvouched!('scan, Err::<(), _>(reserved));
                }
                pending.push(ReplayAction::Named { raw, location });
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
            // The chain vouches for the whole residual log: replay it.
            for action in pending.drain(..) {
                apply_action(&mut inner, action, &mut relocated)?;
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

fn apply_action(
    inner: &mut Inner,
    action: ReplayAction,
    relocated: &mut HashMap<u64, Descriptor>,
) -> Result<()> {
    match action {
        ReplayAction::Named { raw, location } => apply_named(inner, raw, location, relocated),
        ReplayAction::Dealloc(rec) => {
            let is_leader = |id: &ChunkId| id.partition.is_system() && id.pos.is_data();
            // The families of the partitions the record deallocates,
            // gathered while every link is in place, as the commit did.
            let mut others = Vec::new();
            for id in rec.ids.iter().filter(|id| is_leader(id)) {
                let p = PartitionId::from_leader_rank(id.pos.rank);
                for q in inner.copy_family(p)?.into_iter().chain([p]) {
                    if !others.contains(&q) {
                        others.push(q);
                    }
                }
            }
            for id in rec.ids {
                if is_leader(&id) {
                    let p = PartitionId::from_leader_rank(id.pos.rank);
                    inner.drop_partition(p, &mut others)?;
                } else {
                    inner.free_chunk(id)?;
                }
            }
            Ok(())
        }
        ReplayAction::Cleaner(rec) => {
            let Some(&desc) = relocated.get(&rec.new_location) else {
                return Err(CoreError::Corrupt(
                    "cleaner record references unknown relocated version".into(),
                ));
            };
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
    relocated: &mut HashMap<u64, Descriptor>,
) -> Result<()> {
    let id = raw.header.id;

    // A mid-residual system leader: an interrupted checkpoint whose
    // superblock update never landed. Adopt its state and continue.
    if id == ChunkId::system_leader() {
        let body = raw.open_body(&inner.system, location)?;
        let new_leader = SystemLeader::decode(&body, &inner.sys_leader.map.params)?;
        // Its utilization table already charges it and not its predecessor.
        inner.sys_ranks.refresh(&new_leader.map);
        inner.sys_leader = new_leader;
        inner.leader_version = Some((location, raw.total_len as u32));
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
        chunk_digest(crypto.hash_kind(), id.pos, &body)
    };
    // A valid commit set or the direct chain vouches for this version, so
    // only now is its format judged: a garbled header stays tamper.
    raw.header.check_format()?;
    let desc = Descriptor::written(location, raw.total_len as u32, body.len() as u32, hash);

    if raw.header.kind == VersionKind::Relocated {
        // Applied only through its cleaner record (§5.5), which names the
        // partitions where it is actually current.
        relocated.insert(location, desc);
        return Ok(());
    }

    if id.partition.is_system() && id.pos.is_data() {
        let p = PartitionId::from_leader_rank(id.pos.rank);
        return inner.install_leader(p, PartitionLeader::decode(&body)?, desc);
    }

    if id.pos.is_map() {
        // Map chunks in the residual log come from interrupted checkpoints.
        inner.ensure_capacity_for_pos(id.partition, id.pos)?;
        inner.set_descriptor(id, desc)?;
        // Cached content, if any, equals this version by construction.
        inner.map_cache.mark_clean(id.partition, id.pos);
        return Ok(());
    }

    inner.install_chunk(id, desc)
}
