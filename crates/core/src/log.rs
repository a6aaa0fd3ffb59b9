//! The segmented log (§4.9) and the superblock holding the leader location.
//!
//! "The untrusted store is divided into fixed-size segments to aid cleaning,
//! as in Sprite LFS … The log is represented as a sequence of potentially
//! non-adjacent segments", chained through unnamed next-segment chunks. The
//! head of the residual log (the leader's location) is "stored in a fixed
//! place" (§4.9.2) — the superblock at offset 0 — which "need not be kept in
//! tamper-resistant store" because validation catches a forged location.

use std::collections::BTreeSet;

use tdb_crypto::hmac::Hmac;
use tdb_crypto::{ct_eq, CipherKind, HashKind, HashValue, Hasher, SecretKey};
use tdb_storage::SharedUntrusted;

use crate::codec::{Dec, Enc};
use crate::engine::rollback::Undo;
use crate::errors::{CoreError, Result, TamperKind};
use crate::leader::LogState;
use crate::metrics::{self, modules};
use crate::params::PartitionCrypto;
use crate::undo::Journal;
use crate::version::{
    seal_version, sealed_version_len, NextSegmentRecord, VersionHeader, VersionKind,
};

/// Fixed byte budget for the superblock at offset 0.
pub const SUPERBLOCK_SIZE: u64 = 512;

/// Size of one superblock slot. The area holds two alternating slots
/// (selected by epoch parity) so a torn superblock write leaves the other
/// slot's record intact.
pub const SUPERBLOCK_SLOT: u64 = SUPERBLOCK_SIZE / 2;

/// Offset where segment 0 begins.
pub const SEGMENT_BASE: u64 = SUPERBLOCK_SIZE;

/// Magic of a format-v1 superblock, which this build refuses to open.
const SUPERBLOCK_MAGIC_V1: u64 = 0x5444_4253_5542_4c4b; // "TDBSUBLK"

/// Magic of a format-v2 superblock.
const SUPERBLOCK_MAGIC: u64 = 0x5444_4253_5542_4c32; // "TDBSUBL2"

/// The on-disk format this build writes and reads. Version 3 made a map
/// chunk's digest the root of a hash tree over its slots
/// ([`crate::slot_tree`]); version 4 seals every body as
/// [`tdb_crypto::cbc::CHAINS`] interleaved CBC chains. An older store's
/// bodies would not open, so it opens as [`CoreError::UnsupportedFormat`].
pub const FORMAT_VERSION: u16 = 4;

/// Derivation label of the suite record's MAC key.
const SUITE_KEY_LABEL: &[u8] = b"tdb v2 suite record";

/// Encoded length of one superblock slot's record: magic, suite record,
/// epoch and both leader locations, and the sum.
const RECORD_LEN: usize = 8 + SUITE_LEN + 24 + 8;

/// Encoded length of a suite record: version, tags and MAC.
const SUITE_LEN: usize = 2 + 2 + 32;

/// The suite record: the format version and the system cipher and hash a
/// store was created with, MACed under `K_suite = HMAC-SHA-256(secret,
/// "tdb v2 suite record")`, a key that does not depend on the suite.
/// Recovery verifies it before it decrypts anything
/// ([`SuiteRecord::check`]). Tags are kept raw, so an altered tag is
/// a MAC failure rather than a decode error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteRecord {
    /// On-disk format version.
    pub version: u16,
    /// [`CipherKind::tag`] of the system cipher.
    pub cipher: u8,
    /// [`HashKind::tag`] of the system hash.
    pub hash: u8,
    /// HMAC-SHA-256 of the magic and the fields above under `K_suite`.
    pub mac: [u8; 32],
}

impl SuiteRecord {
    /// The record for a store created now under `secret`.
    pub fn sealed(secret: &SecretKey, cipher: CipherKind, hash: HashKind) -> SuiteRecord {
        let mut record = SuiteRecord {
            version: FORMAT_VERSION,
            cipher: cipher.tag(),
            hash: hash.tag(),
            mac: [0; 32],
        };
        let mac = record.expected_mac(secret);
        record.mac.copy_from_slice(mac.as_bytes());
        record
    }

    fn expected_mac(&self, secret: &SecretKey) -> HashValue {
        let key = secret.derive(SUITE_KEY_LABEL, 32);
        let [v0, v1] = self.version.to_le_bytes();
        let fields = [v0, v1, self.cipher, self.hash];
        Hmac::mac_parts(
            HashKind::Sha256,
            key.as_bytes(),
            &[&SUPERBLOCK_MAGIC.to_le_bytes(), &fields],
        )
    }

    /// Checks the record against `secret` and the suite the store is
    /// opened with.
    ///
    /// # Errors
    ///
    /// A MAC that does not verify is [`TamperKind::BadSuiteRecord`]; a
    /// verified record of another format version is
    /// [`CoreError::UnsupportedFormat`]; one naming another suite is
    /// [`CoreError::SuiteMismatch`].
    pub fn check(&self, secret: &SecretKey, cipher: CipherKind, hash: HashKind) -> Result<()> {
        if !ct_eq(self.expected_mac(secret).as_bytes(), &self.mac) {
            return Err(CoreError::TamperDetected(TamperKind::BadSuiteRecord));
        }
        let stored = CipherKind::from_tag(self.cipher).zip(HashKind::from_tag(self.hash));
        let Some(stored) = stored.filter(|_| self.version == FORMAT_VERSION) else {
            return Err(CoreError::UnsupportedFormat {
                version: self.version,
            });
        };
        if stored != (cipher, hash) {
            return Err(CoreError::SuiteMismatch {
                stored,
                configured: (cipher, hash),
            });
        }
        Ok(())
    }
}

/// The fixed-location record pointing at the current (and previous) leader,
/// with the store's [`SuiteRecord`].
///
/// The previous location exists for the crash window during a checkpoint,
/// before the new leader becomes the validated head: "if there is a crash
/// before this update, the recovery procedure ignores the checkpoint at the
/// tail of the log" (§4.9.2) — we realize that by falling back to `prev`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Monotonic checkpoint epoch.
    pub epoch: u64,
    /// Location of the current leader version.
    pub current_leader: u64,
    /// Location of the previous checkpoint's leader version.
    pub prev_leader: u64,
    /// The store's format version and system suite.
    pub suite: SuiteRecord,
}

impl Superblock {
    fn sum(bytes: &[u8]) -> u64 {
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            acc ^= u64::from(b);
            acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
        }
        acc
    }

    /// Serializes the superblock:
    ///
    /// ```text
    /// [u64 magic][u16 version][u8 cipher][u8 hash][32 B MAC]
    /// [u64 epoch][u64 current_leader][u64 prev_leader][u64 sum]
    /// ```
    ///
    /// The sum covers the three locations a checkpoint rewrites and
    /// detects a torn write of them; tamper detection comes from
    /// validating the leader. Every write repeats the same suite record,
    /// whose own MAC protects it, so a flipped byte there is tamper, not
    /// a torn slot.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(RECORD_LEN);
        e.u64(SUPERBLOCK_MAGIC);
        e.u16(self.suite.version);
        e.u8(self.suite.cipher).u8(self.suite.hash);
        e.raw(&self.suite.mac);
        e.u64(self.epoch);
        e.u64(self.current_leader);
        e.u64(self.prev_leader);
        let mut out = e.finish();
        let sum = Self::sum(&out[8 + SUITE_LEN..]);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Reads and checks one slot. The suite record is only parsed here;
    /// recovery checks it with the secret ([`SuiteRecord::check`]).
    ///
    /// # Errors
    ///
    /// Returns `UnsupportedFormat` for a format-v1 slot, `Corrupt` for a
    /// bad magic or sum.
    pub fn decode(buf: &[u8]) -> Result<Superblock> {
        let mut d = Dec::new(buf);
        let magic = d.u64()?;
        if magic == SUPERBLOCK_MAGIC_V1 {
            return Err(CoreError::UnsupportedFormat { version: 1 });
        }
        if magic != SUPERBLOCK_MAGIC {
            return Err(CoreError::Corrupt("superblock magic mismatch".into()));
        }
        let Some(record) = buf.get(..RECORD_LEN) else {
            return Err(CoreError::Corrupt("superblock too short".into()));
        };
        let (fields, stored) = record.split_at(RECORD_LEN - 8);
        if Self::sum(&fields[8 + SUITE_LEN..]).to_le_bytes() != stored {
            return Err(CoreError::Corrupt("superblock checksum mismatch".into()));
        }
        let version = d.u16()?;
        let (cipher, hash) = (d.u8()?, d.u8()?);
        let mut mac = [0u8; 32];
        mac.copy_from_slice(d.raw(32)?);
        Ok(Superblock {
            suite: SuiteRecord {
                version,
                cipher,
                hash,
                mac,
            },
            epoch: d.u64()?,
            current_leader: d.u64()?,
            prev_leader: d.u64()?,
        })
    }

    /// Writes the superblock into the slot selected by its epoch's parity
    /// and flushes.
    ///
    /// The superblock area holds two slots so a torn superblock write (a
    /// crash or fault mid-checkpoint) can never destroy the only copy: the
    /// previous epoch's record lives in the other slot, and
    /// [`Superblock::read`] picks the highest *valid* epoch.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn write(&self, store: &SharedUntrusted) -> Result<()> {
        let _t = metrics::span(modules::UNTRUSTED_WRITE);
        let mut buf = self.encode();
        buf.resize(SUPERBLOCK_SLOT as usize, 0);
        let slot = self.epoch % 2;
        store.write_at(slot * SUPERBLOCK_SLOT, &buf)?;
        store.flush()?;
        Ok(())
    }

    /// Reads the superblock: decodes both slots and returns the valid one
    /// with the highest epoch.
    ///
    /// # Errors
    ///
    /// Returns `Corrupt` when absent or both slots are damaged, and
    /// `UnsupportedFormat` when neither is valid and one is format v1.
    pub fn read(store: &SharedUntrusted) -> Result<Superblock> {
        let _t = metrics::span(modules::UNTRUSTED_READ);
        let len = store.len()?;
        if len < RECORD_LEN as u64 {
            return Err(CoreError::Corrupt("store has no superblock".into()));
        }
        let take = SUPERBLOCK_SIZE.min(len);
        let mut buf = vec![0u8; take as usize];
        store.read_at(0, &mut buf)?;
        let slot0 = Superblock::decode(&buf);
        let slot1 = Superblock::decode(buf.get(SUPERBLOCK_SLOT as usize..).unwrap_or_default());
        match (slot0, slot1) {
            (Ok(a), Ok(b)) => Ok(if a.epoch >= b.epoch { a } else { b }),
            (Ok(a), Err(_)) | (Err(_), Ok(a)) => Ok(a),
            (Err(a), Err(b)) => Err(match b {
                CoreError::UnsupportedFormat { .. } => b,
                _ => a,
            }),
        }
    }
}

/// Running hashes over appended log bytes. Every append — commit,
/// checkpoint, cleaner, segment switch — and every version recovery replays
/// passes through [`LogHashes::absorb`], which hashes the bytes only into
/// what the configured validation scheme will read back:
///
/// - `chain` implements direct hash validation (§4.8.2.1): a sequential
///   hash of the residual log, chained as `chain = H(chain ‖ bytes)` per
///   appended version and reset at each checkpoint. It is maintained only
///   by hashes built with `chained = true`, which the store does under
///   [`crate::store::ValidationMode::DirectHash`] — the register record and
///   DirectHash recovery are its only readers. Under counter validation it
///   stays all-zero and costs nothing.
/// - `set` implements the per-commit-set hash stored in commit chunks
///   (§4.8.2.2), active between [`LogHashes::begin_set`] and
///   [`LogHashes::end_set`], which only counter validation opens.
pub struct LogHashes {
    kind: HashKind,
    chained: bool,
    /// Direct-validation chain over the residual log (zero when unchained).
    pub chain: HashValue,
    set: Option<Box<dyn Hasher>>,
}

impl LogHashes {
    /// Fresh hashes with an all-zero chain, maintained only if `chained`.
    pub fn new(kind: HashKind, chained: bool) -> LogHashes {
        LogHashes {
            kind,
            chained,
            chain: HashValue::zero(kind.digest_len()),
            set: None,
        }
    }

    /// Absorbs appended log bytes into the chain (if maintained) and any
    /// open set hash.
    pub fn absorb(&mut self, bytes: &[u8]) {
        if !self.chained && self.set.is_none() {
            return;
        }
        let _t = metrics::span(modules::HASHING);
        if self.chained {
            self.chain = self.kind.hash_parts(&[self.chain.as_bytes(), bytes]);
        }
        if let Some(h) = self.set.as_mut() {
            h.update(bytes);
        }
    }

    /// Resets the chain (checkpoint: the residual log restarts at the
    /// leader).
    pub fn reset_chain(&mut self) {
        self.chain = HashValue::zero(self.kind.digest_len());
    }

    /// Starts accumulating a commit-set hash.
    pub fn begin_set(&mut self) {
        self.set = Some(self.kind.hasher());
    }

    /// Finishes the commit-set hash.
    pub fn end_set(&mut self) -> HashValue {
        let _t = metrics::span(modules::HASHING);
        match self.set.take() {
            Some(h) => h.finalize(),
            None => HashValue::zero(self.kind.digest_len()),
        }
    }

    /// True when a set hash is being accumulated.
    pub fn set_open(&self) -> bool {
        self.set.is_some()
    }

    /// Discards an open set hash without finishing it (rollback of a
    /// failed mutation; the chain is restored separately from the savepoint).
    pub fn abort_set(&mut self) {
        self.set = None;
    }
}

/// A contiguous stretch of buffered log bytes awaiting write-out.
///
/// Runs break only at segment switches, so a run is always a whole number
/// of sealed versions laid out contiguously within one segment.
struct PendingRun {
    start: u64,
    buf: Vec<u8>,
}

/// The zero length marker that ends the used portion of a segment
/// ([`crate::version::parse_version`] reads it as "no more versions").
const END_MARKER: [u8; 2] = [0; 2];

/// Run buffers kept for reuse: a commit batch's appends span a few
/// segments, and a larger one's extra buffers are freed.
const SPARE_RUNS: usize = 4;

/// A captured append-cursor state for rolling back a failed mutation.
///
/// Besides the tail position this records the end-marker obligations and
/// a mark into the coalescing buffer, so a rollback also discards
/// buffered-but-unwritten bytes appended after the capture. Segments the
/// cursor took since then are not in here: each one is a record in the
/// engine's undo journal (`Undo::SegmentTaken`).
#[derive(Clone, Copy)]
pub struct TailState {
    segment: u32,
    offset: u32,
    pending_stamp: Option<u64>,
    tail_recycled: bool,
    /// (number of runs, length of the last run) at capture time.
    runs_mark: (usize, usize),
}

/// The append cursor over the segmented log.
pub struct SegmentedLog {
    store: SharedUntrusted,
    segment_size: u32,
    /// Segment currently being appended to.
    tail_segment: u32,
    /// Next free byte within the tail segment.
    tail_offset: u32,
    /// Segments belonging to the residual log; the cleaner must skip these
    /// (§4.9.5: "the cleaner does not clean segments in the residual log").
    residual: BTreeSet<u32>,
    /// On-log size of a sealed next-segment chunk, reserved at the end of
    /// every segment.
    nextseg_len: u32,
    /// Hard cap on segments (0 = unbounded).
    max_segments: u32,
    /// Appended bytes awaiting [`SegmentedLog::write_out`], which puts them
    /// on the device as one `write_at` per contiguous run.
    runs: Vec<PendingRun>,
    /// Emptied run buffers, each with a segment's capacity, for later runs:
    /// a run that grew from nothing reallocated its way past the
    /// allocator's mmap threshold on every commit, which made commit time
    /// depend on heap layout.
    spare: Vec<Vec<u8>>,
    /// Head offset of a freshly switched-to segment whose zero end-marker
    /// has not yet been covered by an append. The marker write is folded
    /// into the first append after the switch (which always lands at the
    /// segment head); this records the obligation so a write-out arriving
    /// first still stamps the head.
    pending_stamp: Option<u64>,
    /// The tail segment may hold stale bytes past the tail: it came off
    /// the free list, or recovery positioned the cursor and cannot tell.
    /// A recycled segment's old versions are validly sealed, and where an
    /// old commit set happens to start exactly at the tail, recovery would
    /// read it as a replayed commit. While this holds, every device write
    /// that ends at the tail carries a zero end-marker after it — folded
    /// into the same `write_at`, so no device op is added.
    tail_recycled: bool,
    /// Cumulative count of appends absorbed into the coalescing buffer.
    coalesced_appends: u64,
    /// Cumulative count of coalesced runs written to the device.
    coalesced_runs: u64,
    /// Cumulative bytes written through coalesced runs.
    coalesced_bytes: u64,
}

impl SegmentedLog {
    /// Creates a cursor positioned at `(tail_segment, tail_offset)`.
    pub fn new(
        store: SharedUntrusted,
        system: &PartitionCrypto,
        segment_size: u32,
        max_segments: u32,
        tail_segment: u32,
        tail_offset: u32,
    ) -> SegmentedLog {
        let nextseg_len = sealed_version_len(system, system, 4) as u32;
        let mut residual = BTreeSet::new();
        residual.insert(tail_segment);
        SegmentedLog {
            store,
            segment_size,
            tail_segment,
            tail_offset,
            residual,
            nextseg_len,
            max_segments,
            runs: Vec::new(),
            spare: Vec::new(),
            pending_stamp: None,
            tail_recycled: false,
            coalesced_appends: 0,
            coalesced_runs: 0,
            coalesced_bytes: 0,
        }
    }

    /// Absolute store offset of the start of `segment`.
    pub fn segment_offset(&self, segment: u32) -> u64 {
        SEGMENT_BASE + u64::from(segment) * u64::from(self.segment_size)
    }

    /// Segment index containing the absolute offset `location`.
    pub fn segment_of(&self, location: u64) -> u32 {
        ((location - SEGMENT_BASE) / u64::from(self.segment_size)) as u32
    }

    /// Absolute offset of the next append.
    pub fn tail_location(&self) -> u64 {
        self.segment_offset(self.tail_segment) + u64::from(self.tail_offset)
    }

    /// The segment currently being appended to.
    pub fn tail_segment(&self) -> u32 {
        self.tail_segment
    }

    /// The residual-log segment set.
    pub fn residual_segments(&self) -> &BTreeSet<u32> {
        &self.residual
    }

    /// Resets the residual set to just the tail segment (checkpoint done).
    pub fn reset_residual(&mut self) {
        self.residual.clear();
        self.residual.insert(self.tail_segment);
    }

    /// Marks a segment as part of the residual log (used by recovery).
    pub fn mark_residual(&mut self, segment: u32) {
        self.residual.insert(segment);
    }

    /// Takes a segment back out of the residual log (rollback of the
    /// segment switch that entered it).
    pub(crate) fn unmark_residual(&mut self, segment: u32) {
        self.residual.remove(&segment);
    }

    /// Repositions the append cursor (used by recovery after the residual
    /// log has been rolled forward). What lies past a recovered tail is
    /// unknown — a torn set, or a recycled segment's old versions — so the
    /// tail is treated as recycled.
    pub fn set_tail(&mut self, segment: u32, offset: u32) {
        self.tail_segment = segment;
        self.tail_offset = offset;
        self.tail_recycled = true;
        self.residual.insert(segment);
    }

    /// Captures the cursor (tail position, end-marker obligations,
    /// coalescing-buffer mark) so a failed mutation can be rolled back.
    pub fn tail_state(&self) -> TailState {
        TailState {
            segment: self.tail_segment,
            offset: self.tail_offset,
            pending_stamp: self.pending_stamp,
            tail_recycled: self.tail_recycled,
            runs_mark: (self.runs.len(), self.runs.last().map_or(0, |r| r.buf.len())),
        }
    }

    /// Restores a cursor captured by [`SegmentedLog::tail_state`]. Bytes
    /// appended past the restored tail become invisible: buffered bytes
    /// are truncated away, already-written bytes are overwritten by the
    /// next append, and recovery treats them as a torn tail.
    pub fn restore_tail_state(&mut self, state: TailState) {
        self.tail_segment = state.segment;
        self.tail_offset = state.offset;
        self.pending_stamp = state.pending_stamp;
        self.tail_recycled = state.tail_recycled;
        let (nruns, last_len) = state.runs_mark;
        // A write-out drains the buffer all-or-nothing, so either the runs
        // captured by the mark are still here (truncate back to the mark)
        // or they all reached the device (already invisible past the
        // restored tail) and anything buffered since is rolled-back suffix.
        if self.runs.len() >= nruns {
            self.runs.truncate(nruns);
            if let Some(last) = self.runs.last_mut() {
                last.buf.truncate(last_len);
            }
        } else {
            self.runs.clear();
        }
    }

    /// Largest body a version may carry, given segment geometry.
    pub fn max_version_len(&self) -> u32 {
        self.segment_size - self.nextseg_len
    }

    /// Bytes that still fit in the tail segment before a segment switch.
    pub(crate) fn room(&self) -> u32 {
        self.segment_size - self.nextseg_len - self.tail_offset
    }

    /// Ensures at least `len` bytes can be appended without switching
    /// segments mid-record (used before commit chunks so a commit chunk
    /// never straddles a set-hash boundary).
    ///
    /// # Errors
    ///
    /// Fails when the record cannot fit in a fresh segment, or on I/O error.
    pub(crate) fn ensure_room(
        &mut self,
        state: &mut LogState,
        undo: &mut Journal<Undo>,
        system: &PartitionCrypto,
        hashes: &mut LogHashes,
        len: u32,
    ) -> Result<()> {
        if len > self.max_version_len() {
            return Err(CoreError::ChunkTooLarge {
                size: len as usize,
                max: self.max_version_len() as usize,
            });
        }
        if self.room() < len {
            self.switch_segment(state, undo, system, hashes)?;
        }
        Ok(())
    }

    /// Buffers pre-sealed version bytes at the tail, switching segments as
    /// needed. Returns the version's absolute location.
    ///
    /// # Errors
    ///
    /// Fails when the version exceeds the segment capacity, or a bounded
    /// log has no segment left.
    pub(crate) fn append(
        &mut self,
        state: &mut LogState,
        undo: &mut Journal<Undo>,
        system: &PartitionCrypto,
        hashes: &mut LogHashes,
        bytes: &[u8],
    ) -> Result<u64> {
        self.ensure_room(state, undo, system, hashes, bytes.len() as u32)?;
        let location = self.tail_location();
        self.buffer_write(location, bytes);
        if self.pending_stamp == Some(location) {
            // This append lands at the head of a freshly switched-to
            // segment and covers the folded zero end-marker region (every
            // sealed version is longer than the 2-byte marker).
            self.pending_stamp = None;
        }
        hashes.absorb(bytes);
        self.tail_offset += bytes.len() as u32;
        Ok(location)
    }

    /// Accumulates `bytes` at `location` into the run buffer, extending the
    /// last run when contiguous.
    fn buffer_write(&mut self, location: u64, bytes: &[u8]) {
        self.coalesced_appends += 1;
        if let Some(run) = self.runs.last_mut() {
            if run.start + run.buf.len() as u64 == location {
                run.buf.extend_from_slice(bytes);
                return;
            }
        }
        let room = self.segment_size as usize + END_MARKER.len();
        let mut buf = self.spare.pop().unwrap_or_else(|| Vec::with_capacity(room));
        buf.extend_from_slice(bytes);
        self.runs.push(PendingRun {
            start: location,
            buf,
        });
    }

    /// Moves the cursor to a fresh segment, appending the chaining
    /// next-segment chunk to the old one.
    fn switch_segment(
        &mut self,
        state: &mut LogState,
        undo: &mut Journal<Undo>,
        system: &PartitionCrypto,
        hashes: &mut LogHashes,
    ) -> Result<()> {
        let (next, recycled) = self.allocate_segment(state, undo)?;
        let record = NextSegmentRecord { next_segment: next };
        let sealed = seal_version(
            system,
            system,
            VersionKind::NextSegment,
            VersionHeader::unnamed_id(),
            &record.encode(),
        );
        debug_assert!(sealed.len() as u32 <= self.nextseg_len);
        self.buffer_write(self.tail_location(), &sealed);
        hashes.absorb(&sealed);
        self.tail_segment = next;
        self.tail_offset = 0;
        self.tail_recycled = recycled;
        self.residual.insert(next);
        // The head of the new segment needs a zero end-marker: fresh store
        // bytes read as zero, but a recycled segment holds stale versions
        // that recovery must not parse past the tail. The marker write is
        // folded into the first append after the switch (which always
        // lands at the head); the recorded obligation makes a write-out
        // arriving before any such append stamp the head itself. Past the
        // head, `tail_recycled` keeps a recycled segment marked.
        self.pending_stamp = Some(self.segment_offset(next));
        Ok(())
    }

    /// Takes a free segment or extends the store; returns the segment and
    /// whether it came off the free list.
    fn allocate_segment(
        &mut self,
        state: &mut LogState,
        undo: &mut Journal<Undo>,
    ) -> Result<(u32, bool)> {
        let recycled = state.free_segments.pop();
        let seg = match recycled {
            Some(seg) => seg,
            None if self.max_segments != 0 && state.num_segments >= self.max_segments => {
                return Err(CoreError::OutOfSpace);
            }
            None => {
                state.num_segments += 1;
                state.utilization.push(0);
                state.num_segments - 1
            }
        };
        let recycled = recycled.is_some();
        undo.push(Undo::SegmentTaken { seg, recycled }, 8);
        Ok((seg, recycled))
    }

    /// Reads the raw contents of `segment` (for the cleaner and recovery).
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn read_segment(&self, segment: u32) -> Result<Vec<u8>> {
        let _t = metrics::span(modules::UNTRUSTED_READ);
        let start = self.segment_offset(segment);
        let available = self.store.len()?.saturating_sub(start);
        let take = u64::from(self.segment_size).min(available);
        let mut buf = vec![0u8; take as usize];
        if take > 0 {
            self.store.read_at(start, &mut buf)?;
        }
        Ok(buf)
    }

    /// Reads `len` bytes at absolute `location`.
    ///
    /// Buffered-but-unwritten bytes are served from the coalescing runs,
    /// so the buffer stays invisible to readers (a version never
    /// straddles a run boundary: runs break only at segment switches and
    /// versions never straddle segments).
    ///
    /// # Errors
    ///
    /// Propagates storage errors (including out-of-bounds reads, which
    /// indicate a forged descriptor).
    pub fn read_at(&self, location: u64, len: usize) -> Result<Vec<u8>> {
        for run in &self.runs {
            if location >= run.start {
                let off = (location - run.start) as usize;
                if off + len <= run.buf.len() {
                    return Ok(run.buf[off..off + len].to_vec());
                }
            }
        }
        let _t = metrics::span(modules::UNTRUSTED_READ);
        let mut buf = vec![0u8; len];
        self.store.read_at(location, &mut buf)?;
        Ok(buf)
    }

    /// Cumulative (buffered appends, runs written, bytes written) through
    /// the coalescing buffer.
    pub fn coalesce_counters(&self) -> (u64, u64, u64) {
        (
            self.coalesced_appends,
            self.coalesced_runs,
            self.coalesced_bytes,
        )
    }

    /// Bytes currently sitting in the coalescing buffer.
    pub fn buffered_len(&self) -> usize {
        self.runs.iter().map(|r| r.buf.len()).sum()
    }

    /// Writes buffered runs to the device — one `write_at` per contiguous
    /// run, the run ending at a recycled tail carrying the zero end-marker
    /// — and stamps a still-uncovered fresh-segment head with the marker.
    ///
    /// # Errors
    ///
    /// Propagates storage errors. On failure the buffer is left intact
    /// (rewriting an already-written run puts the same bytes at the same
    /// offsets, so a retry or rollback stays sound); the run counters
    /// still record how many runs reached the device, which is how
    /// callers detect that a rollback must degrade.
    pub fn write_out(&mut self) -> Result<()> {
        let tail = self.tail_location();
        for run in &mut self.runs {
            let _t = metrics::span(modules::UNTRUSTED_WRITE);
            let len = run.buf.len();
            let marked = self.tail_recycled && run.start + len as u64 == tail;
            if marked {
                run.buf.extend_from_slice(&END_MARKER);
            }
            let result = self.store.write_at(run.start, &run.buf);
            run.buf.truncate(len);
            result?;
            self.coalesced_runs += 1;
            self.coalesced_bytes += len as u64;
        }
        for mut run in self.runs.drain(..) {
            if self.spare.len() < SPARE_RUNS {
                run.buf.clear();
                self.spare.push(run.buf);
            }
        }
        if let Some(seg_start) = self.pending_stamp.take() {
            let _t = metrics::span(modules::UNTRUSTED_WRITE);
            self.store.write_at(seg_start, &END_MARKER)?;
        }
        Ok(())
    }

    /// Flushes the untrusted store (a commit's durability point), writing
    /// out any buffered runs first.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn flush(&mut self) -> Result<()> {
        self.write_out()?;
        let _t = metrics::span(modules::UNTRUSTED_WRITE);
        self.store.flush()?;
        Ok(())
    }

    /// The shared store handle.
    pub fn store(&self) -> &SharedUntrusted {
        &self.store
    }

    /// Segment size in bytes.
    pub fn segment_size(&self) -> u32 {
        self.segment_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CryptoParams;
    use std::sync::Arc;
    use tdb_storage::MemStore;

    fn setup() -> (SegmentedLog, LogState, PartitionCrypto, LogHashes) {
        let store: SharedUntrusted = Arc::new(MemStore::new());
        let system = CryptoParams::paper_system(SecretKey::random(24))
            .runtime()
            .unwrap();
        let mut state = LogState::new(1024);
        state.num_segments = 1;
        state.utilization.push(0);
        let log = SegmentedLog::new(store, &system, 1024, 0, 0, 0);
        let hashes = LogHashes::new(tdb_crypto::HashKind::Sha1, true);
        (log, state, system, hashes)
    }

    fn superblock(epoch: u64, secret: &SecretKey) -> Superblock {
        Superblock {
            epoch,
            current_leader: 4096,
            prev_leader: 512,
            suite: SuiteRecord::sealed(secret, CipherKind::Aes128, HashKind::Sha1),
        }
    }

    #[test]
    fn superblock_roundtrip() {
        let secret = SecretKey::random(32);
        let store: SharedUntrusted = Arc::new(MemStore::new());
        superblock(3, &secret).write(&store).unwrap();
        assert_eq!(Superblock::read(&store).unwrap(), superblock(3, &secret));
        superblock(4, &secret).write(&store).unwrap();
        assert_eq!(Superblock::read(&store).unwrap(), superblock(4, &secret));
        let sb = Superblock::read(&store).unwrap();
        assert!(sb
            .suite
            .check(&secret, CipherKind::Aes128, HashKind::Sha1)
            .is_ok());
    }

    #[test]
    fn superblock_detects_corruption() {
        let sb = superblock(1, &SecretKey::random(32));
        // The sum covers the locations a checkpoint rewrites.
        for at in 8 + SUITE_LEN..RECORD_LEN {
            let mut buf = sb.encode();
            buf[at] ^= 0x01;
            assert!(Superblock::decode(&buf).is_err(), "byte {at}");
        }
        let mut buf = sb.encode();
        buf[0] ^= 0xFF;
        assert!(matches!(
            Superblock::decode(&buf),
            Err(CoreError::Corrupt(_))
        ));
    }

    #[test]
    fn suite_record_flags_tamper_mismatch_and_format() {
        let secret = SecretKey::random(32);
        let sb = superblock(1, &secret);
        // A flipped byte anywhere in the suite record decodes, then fails
        // its MAC.
        for at in 8..8 + SUITE_LEN {
            let mut buf = sb.encode();
            buf[at] ^= 0x04;
            let flipped = Superblock::decode(&buf).unwrap();
            let err = (flipped.suite)
                .check(&secret, CipherKind::Aes128, HashKind::Sha1)
                .unwrap_err();
            assert!(err.is_tamper(), "byte {at}: {err:?}");
        }
        // Another secret cannot vouch for it either.
        let other = SecretKey::random(32);
        let err = sb.suite.check(&other, CipherKind::Aes128, HashKind::Sha1);
        assert!(err.unwrap_err().is_tamper());
        // A verified record naming another suite.
        assert!(matches!(
            sb.suite
                .check(&secret, CipherKind::TripleDes, HashKind::Sha1),
            Err(CoreError::SuiteMismatch {
                stored: (CipherKind::Aes128, HashKind::Sha1),
                configured: (CipherKind::TripleDes, HashKind::Sha1),
            })
        ));
        // A v1 slot: magic, epoch, locations, and a sum over those.
        let mut v1 = Enc::new();
        v1.u64(SUPERBLOCK_MAGIC_V1).u64(1).u64(4096).u64(0);
        let mut v1 = v1.finish();
        v1.extend_from_slice(&Superblock::sum(&v1).to_le_bytes());
        let store: SharedUntrusted = Arc::new(MemStore::new());
        store.write_at(0, &v1).unwrap();
        store.write_at(SUPERBLOCK_SIZE, &[0; 64]).unwrap();
        assert!(matches!(
            Superblock::read(&store),
            Err(CoreError::UnsupportedFormat { version: 1 })
        ));
    }

    #[test]
    fn append_advances_tail() {
        let (mut log, mut state, system, mut hashes) = setup();
        let loc1 = log
            .append(
                &mut state,
                &mut Journal::new(),
                &system,
                &mut hashes,
                &[1u8; 100],
            )
            .unwrap();
        let loc2 = log
            .append(
                &mut state,
                &mut Journal::new(),
                &system,
                &mut hashes,
                &[2u8; 100],
            )
            .unwrap();
        assert_eq!(loc1, SEGMENT_BASE);
        assert_eq!(loc2, SEGMENT_BASE + 100);
        assert_eq!(log.tail_location(), SEGMENT_BASE + 200);
    }

    #[test]
    fn segment_switch_links_and_extends() {
        let (mut log, mut state, system, mut hashes) = setup();
        // Fill most of segment 0, then overflow into segment 1.
        let big = vec![7u8; 900];
        log.append(&mut state, &mut Journal::new(), &system, &mut hashes, &big)
            .unwrap();
        let loc = log
            .append(&mut state, &mut Journal::new(), &system, &mut hashes, &big)
            .unwrap();
        assert_eq!(log.segment_of(loc), 1);
        assert_eq!(state.num_segments, 2);
        assert!(log.residual_segments().contains(&0));
        assert!(log.residual_segments().contains(&1));

        // Once written out, the next-segment chunk at the end of segment 0
        // parses and points to segment 1.
        log.write_out().unwrap();
        let seg0 = log.read_segment(0).unwrap();
        let raw = crate::version::parse_version(&system, &seg0[900..], 900)
            .unwrap()
            .expect("next-segment chunk present");
        assert_eq!(raw.header.kind, VersionKind::NextSegment);
        let body = raw.open_body(&system, 0).unwrap();
        assert_eq!(NextSegmentRecord::decode(&body).unwrap().next_segment, 1);
    }

    #[test]
    fn free_segments_reused_before_extending() {
        let (mut log, mut state, system, mut hashes) = setup();
        state.num_segments = 3;
        state.utilization = vec![0, 0, 0];
        state.free_segments.push(2);
        let big = vec![7u8; 900];
        log.append(&mut state, &mut Journal::new(), &system, &mut hashes, &big)
            .unwrap();
        let loc = log
            .append(&mut state, &mut Journal::new(), &system, &mut hashes, &big)
            .unwrap();
        assert_eq!(log.segment_of(loc), 2);
        assert_eq!(state.num_segments, 3);
    }

    #[test]
    fn recycled_tail_is_followed_by_an_end_marker() {
        let (mut log, mut state, system, mut hashes) = setup();
        state.num_segments = 3;
        state.utilization = vec![0, 0, 0];
        state.free_segments.push(2);
        // Segment 2 still holds its old contents.
        log.store()
            .write_at(log.segment_offset(2), &[0xA5; 1024])
            .unwrap();
        let mut append = |log: &mut SegmentedLog, bytes: &[u8]| {
            log.append(&mut state, &mut Journal::new(), &system, &mut hashes, bytes)
                .unwrap()
        };
        let after_tail = |log: &SegmentedLog| log.read_at(log.tail_location(), 2).unwrap();
        append(&mut log, &[7u8; 900]);
        // Into recycled segment 2: the run that ends at the tail carries
        // the marker...
        let loc = append(&mut log, &[8u8; 100]);
        assert_eq!(log.segment_of(loc), 2);
        log.write_out().unwrap();
        assert_eq!(after_tail(&log), END_MARKER);
        // ...and so does the next one, written over the old marker.
        append(&mut log, &[9u8; 100]);
        log.write_out().unwrap();
        assert_eq!(after_tail(&log), END_MARKER);
        assert_eq!(log.read_at(loc + 100, 100).unwrap(), vec![9u8; 100]);
    }

    #[test]
    fn max_segments_enforced() {
        let (mut log, mut state, system, mut hashes) = setup();
        log.max_segments = 1;
        let big = vec![7u8; 900];
        log.append(&mut state, &mut Journal::new(), &system, &mut hashes, &big)
            .unwrap();
        assert!(matches!(
            log.append(&mut state, &mut Journal::new(), &system, &mut hashes, &big),
            Err(CoreError::OutOfSpace)
        ));
    }

    #[test]
    fn oversized_version_rejected() {
        let (mut log, mut state, system, mut hashes) = setup();
        let too_big = vec![0u8; 1025];
        assert!(matches!(
            log.append(
                &mut state,
                &mut Journal::new(),
                &system,
                &mut hashes,
                &too_big
            ),
            Err(CoreError::ChunkTooLarge { .. })
        ));
    }

    #[test]
    fn hashes_chain_and_set() {
        let kind = tdb_crypto::HashKind::Sha1;
        let mut h = LogHashes::new(kind, true);
        let zero = h.chain;
        h.begin_set();
        h.absorb(b"version one");
        h.absorb(b"version two");
        let set = h.end_set();
        assert_eq!(set, kind.hash(b"version oneversion two"));
        assert_ne!(h.chain, zero);

        // The chain is order sensitive.
        let mut h2 = LogHashes::new(kind, true);
        h2.absorb(b"version two");
        h2.absorb(b"version one");
        assert_ne!(h2.chain, h.chain);

        h.reset_chain();
        assert_eq!(h.chain, zero);
    }

    #[test]
    fn unchained_hashes_keep_a_zero_chain_and_the_same_set_hash() {
        let kind = tdb_crypto::HashKind::Sha1;
        let mut h = LogHashes::new(kind, false);
        let zero = h.chain;
        h.absorb(b"outside any set");
        h.begin_set();
        h.absorb(b"version one");
        h.absorb(b"version two");
        assert_eq!(h.end_set(), kind.hash(b"version oneversion two"));
        assert_eq!(h.chain, zero);
    }

    #[test]
    fn reset_residual_keeps_tail_only() {
        let (mut log, mut state, system, mut hashes) = setup();
        let big = vec![7u8; 900];
        log.append(&mut state, &mut Journal::new(), &system, &mut hashes, &big)
            .unwrap();
        log.append(&mut state, &mut Journal::new(), &system, &mut hashes, &big)
            .unwrap();
        assert_eq!(log.residual_segments().len(), 2);
        log.reset_residual();
        assert_eq!(log.residual_segments().len(), 1);
        assert!(log.residual_segments().contains(&log.tail_segment()));
    }
}
