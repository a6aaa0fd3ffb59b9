//! Fault-injection wrappers over the untrusted store.
//!
//! TDB's whole point is surviving an adversarial or failing untrusted store:
//! crashes must be recoverable (§4.8) and any tampering must be *detected*
//! (§4.1). These wrappers let tests simulate both without real hardware:
//!
//! - [`CrashStore`] buffers unflushed writes like a volatile disk cache. A
//!   simulated crash discards (all or a torn prefix of) the unflushed
//!   writes, producing the on-disk image a fail-stop power loss would leave.
//! - [`ErrorStore`] starts failing reads or writes after a programmed
//!   count — the simplest transient-fault injector.
//! - [`PlannedFaultStore`] injects a seeded [`FaultPlan`]: read errors,
//!   write errors, torn sub-writes, dropped flushes, and transient windows
//!   at exact operation indices, so torture tests can sweep every fault
//!   point deterministically.
//! - [`FaultyTrustedStore`] injects write failures into the
//!   tamper-resistant register, exercising the §4.6 requirement that a
//!   commit whose counter bump failed is never acknowledged.
//! - [`TamperStore`] passes everything through but exposes byte-level
//!   mutation hooks, playing the role of the paper's hostile host.
//!
//! None of them overrides [`UntrustedStore::write_all_flush`]: its default
//! is a `write_at` per extent and then a `flush`, so every write of a
//! batched request stays a fault and crash point of its own.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::stats::StoreStats;
use crate::trusted::TrustedStore;
use crate::untrusted::UntrustedStore;
use crate::{Result, StoreError};

/// One buffered (not yet durable) write.
#[derive(Clone)]
struct PendingWrite {
    offset: u64,
    data: Vec<u8>,
}

/// A write-back cache simulation for crash testing.
///
/// Writes are applied to the inner store immediately (so reads see them) but
/// are *also* journaled; [`CrashStore::crash`] reconstructs the image that
/// would exist had the machine lost power: everything up to the last flush,
/// plus an arbitrary prefix of the writes after it.
pub struct CrashStore {
    inner: Arc<dyn UntrustedStore>,
    /// Image as of the last flush.
    flushed_image: Mutex<Vec<u8>>,
    /// Writes since the last flush, in order.
    pending: Mutex<Vec<PendingWrite>>,
    /// When set, all operations fail — the "machine" is down.
    halted: AtomicBool,
    /// Total writes observed (used by tests to pick crash points).
    write_count: AtomicU64,
}

impl CrashStore {
    /// Wraps `inner`, capturing its current contents as the flushed image.
    pub fn new(inner: Arc<dyn UntrustedStore>) -> Result<Self> {
        let len = inner.len()?;
        let mut image = vec![0u8; len as usize];
        if len > 0 {
            inner.read_at(0, &mut image)?;
        }
        Ok(CrashStore {
            inner,
            flushed_image: Mutex::new(image),
            pending: Mutex::new(Vec::new()),
            halted: AtomicBool::new(false),
            write_count: AtomicU64::new(0),
        })
    }

    /// Number of `write_at` calls so far.
    pub fn write_count(&self) -> u64 {
        self.write_count.load(Ordering::Relaxed)
    }

    /// Simulates a fail-stop crash, keeping only the first
    /// `surviving_pending` of the unflushed writes (a torn tail). Returns
    /// the post-crash disk image; the store halts and rejects further use.
    pub fn crash(&self, surviving_pending: usize) -> Vec<u8> {
        self.halted.store(true, Ordering::SeqCst);
        let mut image = self.flushed_image.lock().clone();
        let pending = self.pending.lock();
        for w in pending.iter().take(surviving_pending) {
            let end = w.offset as usize + w.data.len();
            if end > image.len() {
                image.resize(end, 0);
            }
            image[w.offset as usize..end].copy_from_slice(&w.data);
        }
        image
    }

    /// Simulates a crash where every unflushed write is lost.
    pub fn crash_lose_all(&self) -> Vec<u8> {
        self.crash(0)
    }

    /// Simulates a crash that tears *within* a single pending write: the
    /// first `complete` unflushed writes survive whole, then only the first
    /// `split_byte` bytes of the next one reach the platter (disks do not
    /// promise multi-sector atomicity). Returns the post-crash image; the
    /// store halts.
    pub fn crash_torn(&self, complete: usize, split_byte: usize) -> Vec<u8> {
        let mut image = self.crash(complete);
        let pending = self.pending.lock();
        if let Some(w) = pending.get(complete) {
            let keep = split_byte.min(w.data.len());
            let end = w.offset as usize + keep;
            if end > image.len() {
                image.resize(end, 0);
            }
            image[w.offset as usize..end].copy_from_slice(&w.data[..keep]);
        }
        image
    }

    /// Simulates a crash where every pending write survived (the crash
    /// happened after the device wrote its cache but before an explicit
    /// flush returned).
    pub fn crash_keep_all(&self) -> Vec<u8> {
        self.crash(usize::MAX)
    }

    /// Number of writes currently pending (not yet flushed).
    pub fn pending_writes(&self) -> usize {
        self.pending.lock().len()
    }

    /// `(offset, length)` of each pending write, in order: where a torn
    /// crash can split them.
    pub fn pending_extents(&self) -> Vec<(u64, usize)> {
        let pending = self.pending.lock();
        pending.iter().map(|w| (w.offset, w.data.len())).collect()
    }

    fn check_halted(&self) -> Result<()> {
        if self.halted.load(Ordering::SeqCst) {
            Err(StoreError::InjectedFault("store crashed"))
        } else {
            Ok(())
        }
    }
}

impl UntrustedStore for CrashStore {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_halted()?;
        self.inner.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.check_halted()?;
        self.write_count.fetch_add(1, Ordering::Relaxed);
        self.pending.lock().push(PendingWrite {
            offset,
            data: data.to_vec(),
        });
        self.inner.write_at(offset, data)
    }

    fn flush(&self) -> Result<()> {
        self.check_halted()?;
        self.inner.flush()?;
        // Promote the live image to "durable".
        let len = self.inner.len()?;
        let mut image = vec![0u8; len as usize];
        if len > 0 {
            self.inner.read_at(0, &mut image)?;
        }
        *self.flushed_image.lock() = image;
        self.pending.lock().clear();
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        self.check_halted()?;
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.check_halted()?;
        self.inner.set_len(len)
    }

    fn stats(&self) -> Arc<StoreStats> {
        self.inner.stats()
    }
}

/// A store that starts failing with I/O errors after a programmed number
/// of reads or writes — the simplest injector for verifying that a
/// mid-commit storage failure degrades the engine instead of corrupting it.
pub struct ErrorStore {
    inner: Arc<dyn UntrustedStore>,
    /// Writes remaining before failures begin (u64::MAX = never).
    writes_until_failure: AtomicU64,
    /// Reads remaining before failures begin (u64::MAX = never).
    reads_until_failure: AtomicU64,
    /// When set, failures stop again (for recovery-after-transient tests).
    healed: AtomicBool,
}

impl ErrorStore {
    /// Wraps `inner`; healthy until [`ErrorStore::fail_after_writes`] or
    /// [`ErrorStore::fail_after_reads`].
    pub fn new(inner: Arc<dyn UntrustedStore>) -> ErrorStore {
        ErrorStore {
            inner,
            writes_until_failure: AtomicU64::new(u64::MAX),
            reads_until_failure: AtomicU64::new(u64::MAX),
            healed: AtomicBool::new(false),
        }
    }

    /// Arms the injector: the next `n` writes succeed, then all writes and
    /// flushes fail until [`ErrorStore::heal`].
    pub fn fail_after_writes(&self, n: u64) {
        self.healed.store(false, Ordering::SeqCst);
        self.writes_until_failure.store(n, Ordering::SeqCst);
    }

    /// Arms the read-path injector: the next `n` reads succeed, then all
    /// reads fail until [`ErrorStore::heal`].
    pub fn fail_after_reads(&self, n: u64) {
        self.healed.store(false, Ordering::SeqCst);
        self.reads_until_failure.store(n, Ordering::SeqCst);
    }

    /// Stops injecting failures.
    pub fn heal(&self) {
        self.healed.store(true, Ordering::SeqCst);
    }

    fn check_write(&self) -> Result<()> {
        if self.healed.load(Ordering::SeqCst) {
            return Ok(());
        }
        if countdown(&self.writes_until_failure) {
            return Err(StoreError::InjectedFault("write failure"));
        }
        Ok(())
    }

    fn check_read(&self) -> Result<()> {
        if self.healed.load(Ordering::SeqCst) {
            return Ok(());
        }
        if countdown(&self.reads_until_failure) {
            return Err(StoreError::InjectedFault("read failure"));
        }
        Ok(())
    }
}

/// Atomically steps a fault countdown; returns `true` when the counter
/// has expired and the operation must fail. `u64::MAX` means "never
/// fail". A single `fetch_update` (rather than load-check-decrement)
/// keeps the countdown exact when many threads hit the store at once —
/// two threads seeing `1` must not both decrement and wrap past zero.
fn countdown(counter: &AtomicU64) -> bool {
    counter
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| match n {
            0 | u64::MAX => None,
            n => Some(n - 1),
        })
        .is_err_and(|n| n == 0)
}

impl UntrustedStore for ErrorStore {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_read()?;
        self.inner.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.check_write()?;
        self.inner.write_at(offset, data)
    }

    fn flush(&self) -> Result<()> {
        self.check_write()?;
        self.inner.flush()
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.inner.set_len(len)
    }

    fn stats(&self) -> Arc<StoreStats> {
        self.inner.stats()
    }
}

/// A pass-through store with explicit tampering hooks, playing the paper's
/// untrusted host that "has the opportunity to alter its state for
/// unauthorized benefits" (§1).
pub struct TamperStore {
    inner: Arc<dyn UntrustedStore>,
    tamper_count: AtomicU64,
}

impl TamperStore {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn UntrustedStore>) -> Self {
        TamperStore {
            inner,
            tamper_count: AtomicU64::new(0),
        }
    }

    /// XORs `mask` over the byte at `offset` (bypassing the trusted program,
    /// as an attacker with raw device access would).
    pub fn flip_byte(&self, offset: u64, mask: u8) -> Result<()> {
        let mut b = [0u8; 1];
        self.inner.read_at(offset, &mut b)?;
        b[0] ^= mask;
        self.inner.write_at(offset, &b)?;
        self.tamper_count.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Overwrites `len` bytes at `offset` with a copy of the bytes at
    /// `src_offset` — a splicing/replay primitive.
    pub fn splice(&self, src_offset: u64, offset: u64, len: usize) -> Result<()> {
        let mut buf = vec![0u8; len];
        self.inner.read_at(src_offset, &mut buf)?;
        self.inner.write_at(offset, &buf)?;
        self.tamper_count.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Reads raw bytes without any validation (the attacker's view).
    pub fn peek(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        self.inner.read_at(offset, &mut buf)?;
        Ok(buf)
    }

    /// Number of tampering actions performed.
    pub fn tamper_count(&self) -> u64 {
        self.tamper_count.load(Ordering::Relaxed)
    }
}

impl UntrustedStore for TamperStore {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.inner.write_at(offset, data)
    }

    fn flush(&self) -> Result<()> {
        self.inner.flush()
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.inner.set_len(len)
    }

    fn stats(&self) -> Arc<StoreStats> {
        self.inner.stats()
    }
}

/// One kind of injectable fault, scheduled by a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The read fails; no bytes are returned.
    ReadError,
    /// The write fails; no bytes reach the device.
    WriteError,
    /// The write tears: only the first `keep` bytes reach the device, then
    /// the operation fails (disks do not promise multi-sector atomicity).
    TornWrite {
        /// Bytes of the write that survive.
        keep: u32,
    },
    /// The flush does not happen; the operation fails (the device never
    /// lies by acknowledging a durability point it did not reach).
    DroppedFlush,
    /// Every operation in the next `len` global operations fails with a
    /// transient error, then the store heals itself — a passing condition
    /// such as a bus glitch or a briefly unreachable remote store.
    TransientWindow {
        /// Length of the window in operations.
        len: u64,
    },
}

/// A deterministic schedule of faults, keyed by per-class operation index.
///
/// Read/write/torn faults are keyed by the index of that *class* of
/// operation (the 0th read, the 3rd write, …); dropped flushes by flush
/// index; transient windows by the global operation index (reads, writes,
/// and flushes all advance it). Keying by class keeps sweeps simple: a
/// torture loop that arms `write_error_at(k)` for every `k` visits every
/// write the workload performs, regardless of how many reads interleave.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    read_errors: BTreeSet<u64>,
    write_errors: BTreeSet<u64>,
    torn_writes: BTreeMap<u64, u32>,
    dropped_flushes: BTreeSet<u64>,
    /// Half-open `[start, end)` ranges of global operation indices.
    windows: Vec<(u64, u64)>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Fails the `idx`-th read.
    pub fn read_error_at(mut self, idx: u64) -> FaultPlan {
        self.read_errors.insert(idx);
        self
    }

    /// Fails the `idx`-th write with nothing reaching the device.
    pub fn write_error_at(mut self, idx: u64) -> FaultPlan {
        self.write_errors.insert(idx);
        self
    }

    /// Tears the `idx`-th write after `keep` bytes.
    pub fn torn_write_at(mut self, idx: u64, keep: u32) -> FaultPlan {
        self.torn_writes.insert(idx, keep);
        self
    }

    /// Drops the `idx`-th flush (and fails it).
    pub fn dropped_flush_at(mut self, idx: u64) -> FaultPlan {
        self.dropped_flushes.insert(idx);
        self
    }

    /// Fails every operation in global-index range `[start, start + len)`
    /// with a transient error.
    pub fn transient_window(mut self, start: u64, len: u64) -> FaultPlan {
        self.windows.push((start, start.saturating_add(len)));
        self
    }

    /// Schedules `kind` at per-class (or, for windows, global) index `idx`.
    pub fn at(self, idx: u64, kind: FaultKind) -> FaultPlan {
        match kind {
            FaultKind::ReadError => self.read_error_at(idx),
            FaultKind::WriteError => self.write_error_at(idx),
            FaultKind::TornWrite { keep } => self.torn_write_at(idx, keep),
            FaultKind::DroppedFlush => self.dropped_flush_at(idx),
            FaultKind::TransientWindow { len } => self.transient_window(idx, len),
        }
    }

    /// A deterministic pseudo-random plan: `count` faults of mixed kinds,
    /// each scheduled below the per-class index `horizon`. Equal seeds give
    /// equal plans, so a failing torture run names its seed and reproduces.
    pub fn seeded(seed: u64, horizon: u64, count: usize) -> FaultPlan {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut plan = FaultPlan::new();
        let horizon = horizon.max(1);
        for _ in 0..count {
            let idx = splitmix64(&mut state) % horizon;
            let kind = match splitmix64(&mut state) % 4 {
                0 => FaultKind::ReadError,
                1 => FaultKind::WriteError,
                2 => FaultKind::TornWrite {
                    keep: (splitmix64(&mut state) % 512) as u32,
                },
                _ => FaultKind::TransientWindow {
                    len: 1 + splitmix64(&mut state) % 4,
                },
            };
            plan = plan.at(idx, kind);
        }
        plan
    }

    /// Number of scheduled faults (windows count once each).
    pub fn len(&self) -> usize {
        self.read_errors.len()
            + self.write_errors.len()
            + self.torn_writes.len()
            + self.dropped_flushes.len()
            + self.windows.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn in_window(&self, global_idx: u64) -> bool {
        self.windows
            .iter()
            .any(|&(start, end)| global_idx >= start && global_idx < end)
    }
}

/// SplitMix64: the standard 64-bit seed-sequence mixer.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An [`UntrustedStore`] that executes a [`FaultPlan`].
///
/// `len`/`set_len` pass through unfaulted: the engine only calls them
/// during open, and faulting them adds nothing the read/write faults do
/// not already cover.
pub struct PlannedFaultStore {
    inner: Arc<dyn UntrustedStore>,
    plan: Mutex<FaultPlan>,
    global_ops: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    flushes: AtomicU64,
    injected: AtomicU64,
}

impl PlannedFaultStore {
    /// Wraps `inner` with `plan`.
    pub fn new(inner: Arc<dyn UntrustedStore>, plan: FaultPlan) -> PlannedFaultStore {
        PlannedFaultStore {
            inner,
            plan: Mutex::new(plan),
            global_ops: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Replaces the plan (op counters keep running).
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.plan.lock() = plan;
    }

    /// Number of faults injected so far.
    pub fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Write operations observed so far (used by sweeps to size the next
    /// plan's horizon).
    pub fn write_ops(&self) -> u64 {
        self.writes.load(Ordering::SeqCst)
    }

    /// Flush operations observed so far.
    pub fn flush_ops(&self) -> u64 {
        self.flushes.load(Ordering::SeqCst)
    }

    /// All operations (reads + writes + flushes) observed so far.
    pub fn total_ops(&self) -> u64 {
        self.global_ops.load(Ordering::SeqCst)
    }

    fn inject(&self, what: &'static str) -> StoreError {
        self.injected.fetch_add(1, Ordering::SeqCst);
        StoreError::InjectedFault(what)
    }

    /// Advances the global counter; returns a transient error inside a
    /// window.
    fn check_window(&self) -> Result<()> {
        let g = self.global_ops.fetch_add(1, Ordering::SeqCst);
        if self.plan.lock().in_window(g) {
            return Err(self.inject("transient fault window"));
        }
        Ok(())
    }
}

impl UntrustedStore for PlannedFaultStore {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_window()?;
        let r = self.reads.fetch_add(1, Ordering::SeqCst);
        if self.plan.lock().read_errors.contains(&r) {
            return Err(self.inject("planned read error"));
        }
        self.inner.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.check_window()?;
        let w = self.writes.fetch_add(1, Ordering::SeqCst);
        let torn = {
            let plan = self.plan.lock();
            if plan.write_errors.contains(&w) {
                return Err(self.inject("planned write error"));
            }
            plan.torn_writes.get(&w).copied()
        };
        if let Some(keep) = torn {
            let keep = (keep as usize).min(data.len());
            if keep > 0 {
                self.inner.write_at(offset, &data[..keep])?;
            }
            return Err(self.inject("planned torn write"));
        }
        self.inner.write_at(offset, data)
    }

    fn flush(&self) -> Result<()> {
        self.check_window()?;
        let f = self.flushes.fetch_add(1, Ordering::SeqCst);
        if self.plan.lock().dropped_flushes.contains(&f) {
            // The flush is silently skipped on the device, but the caller
            // is told the truth: durability was not reached.
            return Err(self.inject("planned dropped flush"));
        }
        self.inner.flush()
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.inner.set_len(len)
    }

    fn stats(&self) -> Arc<StoreStats> {
        self.inner.stats()
    }
}

/// A [`TrustedStore`] wrapper with programmable write failures.
///
/// The register/counter is the root of trust, so its failure mode matters
/// most at commit time: §4.6 requires that a commit is acknowledged only
/// after the count is safely in the trusted store. Tests wrap the engine's
/// register in this and verify a failed counter bump is never acknowledged.
pub struct FaultyTrustedStore {
    inner: Arc<dyn TrustedStore>,
    /// Writes remaining before failures begin (u64::MAX = never).
    writes_until_failure: AtomicU64,
    /// When set, failures stop again.
    healed: AtomicBool,
    /// Number of injected failures.
    failures: AtomicU64,
}

impl FaultyTrustedStore {
    /// Wraps `inner`; healthy until [`FaultyTrustedStore::fail_after_writes`].
    pub fn new(inner: Arc<dyn TrustedStore>) -> FaultyTrustedStore {
        FaultyTrustedStore {
            inner,
            writes_until_failure: AtomicU64::new(u64::MAX),
            healed: AtomicBool::new(false),
            failures: AtomicU64::new(0),
        }
    }

    /// Arms the injector: the next `n` register writes succeed, then all
    /// writes fail (before touching the register — the paper's §2.1
    /// atomic-update assumption means a failed write leaves the old value)
    /// until [`FaultyTrustedStore::heal`].
    pub fn fail_after_writes(&self, n: u64) {
        self.healed.store(false, Ordering::SeqCst);
        self.writes_until_failure.store(n, Ordering::SeqCst);
    }

    /// Stops injecting failures.
    pub fn heal(&self) {
        self.healed.store(true, Ordering::SeqCst);
    }

    /// Number of injected write failures so far.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::SeqCst)
    }
}

impl TrustedStore for FaultyTrustedStore {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn read(&self) -> Result<Vec<u8>> {
        self.inner.read()
    }

    fn write(&self, data: &[u8]) -> Result<()> {
        if !self.healed.load(Ordering::SeqCst) && countdown(&self.writes_until_failure) {
            self.failures.fetch_add(1, Ordering::SeqCst);
            return Err(StoreError::InjectedFault("trusted store write failure"));
        }
        self.inner.write(data)
    }

    fn stats(&self) -> Arc<StoreStats> {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::untrusted::MemStore;

    #[test]
    fn crash_loses_unflushed_writes() {
        let mem = Arc::new(MemStore::new());
        let cs = CrashStore::new(mem).unwrap();
        cs.write_at(0, b"durable").unwrap();
        cs.flush().unwrap();
        cs.write_at(0, b"ephemer").unwrap();
        assert_eq!(cs.pending_writes(), 1);

        // Reads see the latest write before the crash.
        let mut buf = [0u8; 7];
        cs.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"ephemer");

        let image = cs.crash_lose_all();
        assert_eq!(&image[..7], b"durable");

        // The store is halted after a crash.
        assert!(matches!(
            cs.read_at(0, &mut buf),
            Err(StoreError::InjectedFault(_))
        ));
    }

    #[test]
    fn torn_crash_keeps_prefix_of_pending() {
        let mem = Arc::new(MemStore::new());
        let cs = CrashStore::new(mem).unwrap();
        cs.write_at(0, b"AAAA").unwrap();
        cs.flush().unwrap();
        cs.write_at(0, b"BBBB").unwrap();
        cs.write_at(4, b"CCCC").unwrap();
        let image = cs.crash(1);
        assert_eq!(&image, b"BBBB");
    }

    #[test]
    fn crash_keep_all_includes_every_pending_write() {
        let mem = Arc::new(MemStore::new());
        let cs = CrashStore::new(mem).unwrap();
        cs.write_at(0, b"XX").unwrap();
        cs.write_at(2, b"YY").unwrap();
        let image = cs.crash_keep_all();
        assert_eq!(&image, b"XXYY");
    }

    #[test]
    fn crash_store_captures_preexisting_content() {
        let mem = Arc::new(MemStore::new());
        mem.write_at(0, b"old").unwrap();
        let cs = CrashStore::new(Arc::clone(&mem) as Arc<dyn UntrustedStore>).unwrap();
        cs.write_at(0, b"new").unwrap();
        assert_eq!(cs.crash_lose_all(), b"old");
    }

    #[test]
    fn torn_crash_splits_within_one_write() {
        let mem = Arc::new(MemStore::new());
        let cs = CrashStore::new(mem).unwrap();
        cs.write_at(0, b"AAAA").unwrap();
        cs.flush().unwrap();
        cs.write_at(0, b"BBBB").unwrap();
        cs.write_at(4, b"CCCC").unwrap();
        // First pending write survives whole, second is cut after 2 bytes.
        let image = cs.crash_torn(1, 2);
        assert_eq!(&image, b"BBBBCC");
    }

    #[test]
    fn error_store_fails_reads_after_arming() {
        let mem = Arc::new(MemStore::new());
        let es = ErrorStore::new(mem);
        es.write_at(0, b"abcd").unwrap();
        let mut buf = [0u8; 4];
        es.read_at(0, &mut buf).unwrap();
        es.fail_after_reads(1);
        es.read_at(0, &mut buf).unwrap();
        assert!(matches!(
            es.read_at(0, &mut buf),
            Err(StoreError::InjectedFault("read failure"))
        ));
        es.heal();
        es.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"abcd");
    }

    #[test]
    fn planned_write_error_fires_at_exact_index() {
        let mem = Arc::new(MemStore::new());
        let pf = PlannedFaultStore::new(mem, FaultPlan::new().write_error_at(1));
        pf.write_at(0, b"ok").unwrap();
        assert!(pf.write_at(2, b"no").is_err());
        pf.write_at(4, b"ok").unwrap();
        assert_eq!(pf.injected_faults(), 1);
        let mut buf = [0u8; 2];
        pf.read_at(2, &mut buf).unwrap();
        // The faulted write never reached the device.
        assert_eq!(&buf, &[0, 0]);
    }

    #[test]
    fn batched_request_keeps_every_write_a_fault_point() {
        let mem = Arc::new(MemStore::new());
        let pf = PlannedFaultStore::new(
            Arc::clone(&mem) as Arc<dyn UntrustedStore>,
            FaultPlan::new().write_error_at(1),
        );
        assert!(pf
            .write_all_flush(&[(0, b"a"), (1, b"b"), (2, b"c")])
            .is_err());
        // The first write landed, the second faulted, nothing after it ran.
        assert_eq!(mem.image(), b"a");
        assert_eq!((pf.write_ops(), pf.flush_ops()), (2, 0));

        let cs = CrashStore::new(mem).unwrap();
        cs.write_all_flush(&[(0, b"x"), (4, b"y")]).unwrap();
        assert_eq!(cs.write_count(), 2);
        assert_eq!(cs.pending_writes(), 0);
    }

    #[test]
    fn planned_torn_write_keeps_prefix() {
        let mem = Arc::new(MemStore::new());
        let pf = PlannedFaultStore::new(mem, FaultPlan::new().torn_write_at(0, 3));
        assert!(pf.write_at(0, b"ABCDEF").is_err());
        // Only the kept prefix reached the device.
        assert_eq!(pf.len().unwrap(), 3);
        let mut buf = [0u8; 3];
        pf.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"ABC");
    }

    #[test]
    fn planned_dropped_flush_fails_without_flushing() {
        let mem = Arc::new(MemStore::new());
        let stats = mem.stats();
        let pf = PlannedFaultStore::new(mem, FaultPlan::new().dropped_flush_at(0));
        pf.write_at(0, b"x").unwrap();
        assert!(pf.flush().is_err());
        assert_eq!(stats.snapshot().flushes, 0);
        pf.flush().unwrap();
        assert_eq!(stats.snapshot().flushes, 1);
    }

    #[test]
    fn transient_window_heals_itself() {
        let mem = Arc::new(MemStore::new());
        let pf = PlannedFaultStore::new(mem, FaultPlan::new().transient_window(1, 2));
        let mut buf = [0u8; 1];
        pf.write_at(0, b"x").unwrap(); // op 0
        let e = pf.read_at(0, &mut buf).unwrap_err(); // op 1: in window
        assert!(e.is_transient());
        assert!(pf.write_at(0, b"y").is_err()); // op 2: in window
        pf.read_at(0, &mut buf).unwrap(); // op 3: healed
        assert_eq!(&buf, b"x");
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(42, 100, 5);
        let b = FaultPlan::seeded(42, 100, 5);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(!a.is_empty());
        let c = FaultPlan::seeded(43, 100, 5);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn faulty_trusted_store_fails_then_heals() {
        use crate::trusted::MemTrustedStore;
        let reg = Arc::new(MemTrustedStore::new(64));
        let ft = FaultyTrustedStore::new(reg);
        ft.write(b"one").unwrap();
        ft.fail_after_writes(0);
        assert!(ft.write(b"two").is_err());
        assert_eq!(ft.failures(), 1);
        // §2.1 atomicity: the failed write left the old value intact.
        assert_eq!(ft.read().unwrap(), b"one");
        ft.heal();
        ft.write(b"two").unwrap();
        assert_eq!(ft.read().unwrap(), b"two");
    }

    #[test]
    fn fault_injectors_are_sync() {
        // The concurrency stress suites share one injector across reader
        // and mutator threads; these bounds are load-bearing, not vacuous.
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<ErrorStore>();
        assert_sync::<PlannedFaultStore>();
        assert_sync::<FaultyTrustedStore>();
        assert_sync::<FaultPlan>();
    }

    #[test]
    fn error_store_countdown_is_exact_under_contention() {
        // With the load-check-decrement race, two threads both observing
        // `remaining == 1` would double-decrement and wrap the counter to
        // u64::MAX ("never fail"); the armed fault would silently vanish.
        // Hammer the countdown from many threads and demand exactly
        // `armed` successes before the permanent failure state.
        let mem = Arc::new(MemStore::new());
        let es = Arc::new(ErrorStore::new(mem));
        let armed = 64u64;
        es.fail_after_writes(armed);
        let successes = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let es = Arc::clone(&es);
                let successes = Arc::clone(&successes);
                s.spawn(move || {
                    for i in 0..64u64 {
                        if es.write_at(i * 8, b"payload!").is_ok() {
                            successes.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(successes.load(Ordering::SeqCst), armed);
        // Still failing: the counter pinned at zero rather than wrapping.
        assert!(es.write_at(0, b"x").is_err());
    }

    #[test]
    fn tamper_store_flip_and_splice() {
        let mem = Arc::new(MemStore::new());
        let ts = TamperStore::new(mem);
        ts.write_at(0, &[1, 2, 3, 4, 5, 6]).unwrap();
        ts.flip_byte(1, 0xF0).unwrap();
        assert_eq!(ts.peek(0, 6).unwrap(), vec![1, 2 ^ 0xF0, 3, 4, 5, 6]);
        ts.splice(0, 4, 2).unwrap();
        assert_eq!(ts.peek(4, 2).unwrap(), vec![1, 2 ^ 0xF0]);
        assert_eq!(ts.tamper_count(), 2);
    }
}
