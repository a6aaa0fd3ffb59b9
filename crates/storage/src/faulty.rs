//! A simulated platform for fault and crash tests: an untrusted image and
//! its tamper-resistant register, driven by one seeded [`FaultPlan`].
//!
//! TDB's whole point is surviving an adversarial or failing untrusted store:
//! crashes must be recoverable (§4.8) and any tampering must be *detected*
//! (§4.1). The paper's platform (§2.1) is that store beside a small
//! register, and every crash, fault or rollback moves both of them, so
//! [`SimDevice`] models them together:
//!
//! - Writes reach the live image at once (reads see them) and are also
//!   journaled until the next flush, like a volatile disk cache. A
//!   simulated crash keeps all, none, or a torn prefix of the journal,
//!   producing the image a fail-stop power loss would leave, and halts the
//!   device.
//! - A [`FaultPlan`] fails reads, writes, flushes and register writes at
//!   exact operation indices, so torture tests sweep every fault point
//!   deterministically.
//! - [`SimDevice::snapshot`] and [`SimDevice::restore`] capture and put
//!   back the image and the register as one state.
//!
//! The device does not override [`UntrustedStore::write_all_flush`]: its
//! default is a `write_at` per extent and then a `flush`, so every write of
//! a batched request stays a fault and crash point of its own.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::stats::StoreStats;
use crate::trusted::{MemTrustedStore, TrustedStore};
use crate::untrusted::{write_into, MemStore, UntrustedStore};
use crate::{Result, StoreError};

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
    /// Every read from this one on fails.
    ReadsFailFrom,
    /// Every write and flush from this one on fails. Writes and flushes
    /// share this one count ([`SimDevice::writes_and_flushes`]), so a flush
    /// can be the first operation to fail.
    WritesFailFrom,
    /// Every register write from this one on fails, leaving the old value:
    /// the register updates atomically (§2.1).
    RegisterFailsFrom,
}

/// A deterministic schedule of faults, keyed by per-class operation index.
///
/// Read and write faults are keyed by the index of that *class* of
/// operation (the 0th read, the 3rd write, …); dropped flushes by flush
/// index; [`FaultKind::WritesFailFrom`] by the count of writes and flushes
/// together; register faults by register-write index; transient windows by
/// the global operation index (reads, writes, and flushes all advance it).
/// Keying by class keeps sweeps simple: a torture loop that arms a
/// [`FaultKind::WriteError`] at every `k` visits every write the workload
/// performs, regardless of how many reads interleave.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<(u64, FaultKind)>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules `kind` at index `idx` of its class.
    pub fn at(mut self, idx: u64, kind: FaultKind) -> FaultPlan {
        self.faults.push((idx, kind));
        self
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

    /// The last scheduled fault that `hits` (a later entry replaces an
    /// earlier one).
    fn last(&self, hits: impl Fn(u64, FaultKind) -> bool) -> Option<FaultKind> {
        self.faults
            .iter()
            .rev()
            .find(|&&(idx, kind)| hits(idx, kind))
            .map(|&(_, kind)| kind)
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

/// The device image and the register value at one moment: what a machine
/// reboots from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceSnapshot {
    /// The untrusted store's bytes.
    pub image: Vec<u8>,
    /// The tamper-resistant register's record.
    pub register: Vec<u8>,
}

/// The simulated platform: an in-memory [`UntrustedStore`] whose
/// [`SimDevice::register`] is its [`TrustedStore`]. `len`/`set_len` are
/// never faulted: the engine only calls them during open, and faulting them
/// adds nothing the read/write faults do not already cover. Windows and the
/// global index count device operations only, never register writes.
#[derive(Default)]
pub struct SimDevice {
    live: MemStore,
    register: MemTrustedStore,
    /// The image as of the last flush.
    durable: Mutex<Vec<u8>>,
    /// Writes since the last flush, in order: `(offset, bytes)`.
    pending: Mutex<Vec<(u64, Vec<u8>)>>,
    /// Set by a crash: every device operation fails until a restore.
    halted: AtomicBool,
    plan: Mutex<FaultPlan>,
    global_ops: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    flushes: AtomicU64,
    writes_and_flushes: AtomicU64,
    register_writes: AtomicU64,
    injected: AtomicU64,
}

impl SimDevice {
    /// An empty device with an empty register and no plan.
    pub fn new() -> Arc<SimDevice> {
        Arc::new(SimDevice::default())
    }

    /// A device booted from `snapshot`, with durable contents and no plan.
    pub fn from_snapshot(snapshot: &DeviceSnapshot) -> Arc<SimDevice> {
        let device = SimDevice::new();
        device.restore(snapshot);
        device
    }

    /// The device's register, faulted by the same plan.
    pub fn register(self: &Arc<Self>) -> Arc<dyn TrustedStore> {
        Arc::new(Register(Arc::clone(self)))
    }

    /// Replaces the plan (op counters keep running).
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.plan.lock() = plan;
    }

    /// `plan` aimed at this device's future: each fault's index moves past
    /// the operations of its class that the device has already counted, so
    /// index `k` names the `k`-th such operation from now. A plan drawn for
    /// a workload that runs after set-up then lands in that workload.
    pub fn ahead(&self, plan: FaultPlan) -> FaultPlan {
        let faults = plan.faults.into_iter().map(|(idx, kind)| {
            let class = match kind {
                FaultKind::ReadError | FaultKind::ReadsFailFrom => &self.reads,
                FaultKind::WriteError | FaultKind::TornWrite { .. } => &self.writes,
                FaultKind::DroppedFlush => &self.flushes,
                FaultKind::TransientWindow { .. } => &self.global_ops,
                FaultKind::WritesFailFrom => &self.writes_and_flushes,
                FaultKind::RegisterFailsFrom => &self.register_writes,
            };
            (idx + class.load(Ordering::SeqCst), kind)
        });
        FaultPlan {
            faults: faults.collect(),
        }
    }

    /// The live image (what reads see) and the register.
    pub fn snapshot(&self) -> DeviceSnapshot {
        DeviceSnapshot {
            image: self.live.image(),
            register: self.register.image(),
        }
    }

    /// Puts back `snapshot` as the durable state of image and register,
    /// clears the journal, and brings a crashed device back up. The plan
    /// and the op counters are kept.
    pub fn restore(&self, snapshot: &DeviceSnapshot) {
        let mut durable = self.durable.lock();
        let mut pending = self.pending.lock();
        self.live.restore(snapshot.image.clone());
        durable.clone_from(&snapshot.image);
        pending.clear();
        self.register.restore(snapshot.register.clone());
        self.halted.store(false, Ordering::SeqCst);
    }

    /// Simulates a fail-stop crash, keeping only the first
    /// `surviving_pending` of the unflushed writes (a torn tail). Returns
    /// the post-crash state with the register as the crash left it; the
    /// device halts and rejects further use, and keeps its journal.
    pub fn crash(&self, surviving_pending: usize) -> DeviceSnapshot {
        self.halted.store(true, Ordering::SeqCst);
        let mut image = self.durable.lock().clone();
        for (offset, data) in self.pending.lock().iter().take(surviving_pending) {
            write_into(&mut image, *offset, data);
        }
        DeviceSnapshot {
            image,
            register: self.register.image(),
        }
    }

    /// Simulates a crash where every unflushed write is lost.
    pub fn crash_lose_all(&self) -> DeviceSnapshot {
        self.crash(0)
    }

    /// Simulates a crash where every pending write survived (the crash
    /// happened after the device wrote its cache but before an explicit
    /// flush returned).
    pub fn crash_keep_all(&self) -> DeviceSnapshot {
        self.crash(usize::MAX)
    }

    /// Simulates a crash that tears *within* a single pending write: the
    /// first `complete` unflushed writes survive whole, then only the first
    /// `split_byte` bytes of the next one reach the platter (disks do not
    /// promise multi-sector atomicity). The device halts.
    pub fn crash_torn(&self, complete: usize, split_byte: usize) -> DeviceSnapshot {
        let mut snapshot = self.crash(complete);
        if let Some((offset, data)) = self.pending.lock().get(complete) {
            let keep = split_byte.min(data.len());
            write_into(&mut snapshot.image, *offset, &data[..keep]);
        }
        snapshot
    }

    /// `(offset, length)` of each pending write, in order: where a torn
    /// crash can split them.
    pub fn pending_extents(&self) -> Vec<(u64, usize)> {
        let pending = self.pending.lock();
        pending
            .iter()
            .map(|(offset, data)| (*offset, data.len()))
            .collect()
    }

    /// Number of faults injected so far, register faults included.
    pub fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Read operations observed so far.
    pub fn read_ops(&self) -> u64 {
        self.reads.load(Ordering::SeqCst)
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

    /// Writes and flushes observed so far, the count
    /// [`FaultKind::WritesFailFrom`] is keyed by.
    pub fn writes_and_flushes(&self) -> u64 {
        self.writes_and_flushes.load(Ordering::SeqCst)
    }

    /// Register writes attempted so far.
    pub fn register_ops(&self) -> u64 {
        self.register_writes.load(Ordering::SeqCst)
    }

    /// All device operations (reads + writes + flushes) observed so far.
    pub fn total_ops(&self) -> u64 {
        self.global_ops.load(Ordering::SeqCst)
    }

    fn inject(&self, what: &'static str, transient: bool) -> StoreError {
        self.injected.fetch_add(1, Ordering::SeqCst);
        StoreError::InjectedFault { what, transient }
    }

    fn check_halted(&self) -> Result<()> {
        if self.halted.load(Ordering::SeqCst) {
            Err(StoreError::InjectedFault {
                what: "device halted by a crash",
                transient: false,
            })
        } else {
            Ok(())
        }
    }

    /// Admits one device operation: fails on a halted device, advances the
    /// global counter (failing inside a window), then returns the
    /// operation's index within `class`.
    fn admit(&self, class: &AtomicU64) -> Result<u64> {
        self.check_halted()?;
        let g = self.global_ops.fetch_add(1, Ordering::SeqCst);
        let windowed = self.plan.lock().last(|start, kind| {
            matches!(kind, FaultKind::TransientWindow { len } if g >= start && g - start < len)
        });
        if windowed.is_some() {
            return Err(self.inject("transient fault window", true));
        }
        Ok(class.fetch_add(1, Ordering::SeqCst))
    }

    /// Writes to the live image and journals the write, in one order.
    fn apply(&self, offset: u64, data: &[u8]) -> Result<()> {
        let mut pending = self.pending.lock();
        self.live.write_at(offset, data)?;
        pending.push((offset, data.to_vec()));
        Ok(())
    }
}

impl UntrustedStore for SimDevice {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let r = self.admit(&self.reads)?;
        let fails = self.plan.lock().last(|idx, kind| match kind {
            FaultKind::ReadError => idx == r,
            FaultKind::ReadsFailFrom => r >= idx,
            _ => false,
        });
        if fails.is_some() {
            return Err(self.inject("planned read error", false));
        }
        self.live.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let w = self.admit(&self.writes)?;
        let m = self.writes_and_flushes.fetch_add(1, Ordering::SeqCst);
        let (fails, torn) = {
            let plan = self.plan.lock();
            let fails = plan.last(|idx, kind| match kind {
                FaultKind::WriteError => idx == w,
                FaultKind::WritesFailFrom => m >= idx,
                _ => false,
            });
            let torn =
                plan.last(|idx, kind| matches!(kind, FaultKind::TornWrite { .. } if idx == w));
            (fails.is_some(), torn)
        };
        if fails {
            return Err(self.inject("planned write error", false));
        }
        if let Some(FaultKind::TornWrite { keep }) = torn {
            let keep = (keep as usize).min(data.len());
            if keep > 0 {
                self.apply(offset, &data[..keep])?;
            }
            return Err(self.inject("planned torn write", false));
        }
        self.apply(offset, data)
    }

    fn flush(&self) -> Result<()> {
        let f = self.admit(&self.flushes)?;
        let m = self.writes_and_flushes.fetch_add(1, Ordering::SeqCst);
        let dropped = self.plan.lock().last(|idx, kind| match kind {
            FaultKind::DroppedFlush => idx == f,
            FaultKind::WritesFailFrom => m >= idx,
            _ => false,
        });
        if dropped.is_some() {
            // The flush is skipped on the device, but the caller is told
            // the truth: durability was not reached.
            return Err(self.inject("planned dropped flush", false));
        }
        self.live.flush()?;
        // Promote the journal to durable: O(bytes written since the last
        // flush), and no read charged to the device.
        let mut durable = self.durable.lock();
        for (offset, data) in self.pending.lock().drain(..) {
            write_into(&mut durable, offset, &data);
        }
        durable.resize(self.live.len()? as usize, 0);
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        self.check_halted()?;
        self.live.len()
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.check_halted()?;
        self.live.set_len(len)
    }

    fn stats(&self) -> Arc<StoreStats> {
        self.live.stats()
    }
}

/// [`SimDevice::register`]'s handle.
struct Register(Arc<SimDevice>);

impl TrustedStore for Register {
    fn capacity(&self) -> usize {
        self.0.register.capacity()
    }

    fn read(&self) -> Result<Vec<u8>> {
        self.0.register.read()
    }

    fn write(&self, data: &[u8]) -> Result<()> {
        let device = &self.0;
        let i = device.register_writes.fetch_add(1, Ordering::SeqCst);
        let fails = device
            .plan
            .lock()
            .last(|idx, kind| matches!(kind, FaultKind::RegisterFailsFrom if i >= idx));
        if fails.is_some() {
            return Err(device.inject("planned register write error", false));
        }
        device.register.write(data)
    }

    fn stats(&self) -> Arc<StoreStats> {
        self.0.register.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_loses_unflushed_writes() {
        let dev = SimDevice::new();
        dev.write_at(0, b"durable").unwrap();
        dev.flush().unwrap();
        dev.write_at(0, b"ephemer").unwrap();
        assert_eq!(dev.pending_extents().len(), 1);

        // Reads see the latest write before the crash.
        let mut buf = [0u8; 7];
        dev.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"ephemer");

        let image = dev.crash_lose_all().image;
        assert_eq!(&image[..7], b"durable");

        // The device is halted after a crash.
        assert!(matches!(
            dev.read_at(0, &mut buf),
            Err(StoreError::InjectedFault { .. })
        ));
    }

    #[test]
    fn torn_crash_keeps_prefix_of_pending() {
        let dev = SimDevice::new();
        dev.write_at(0, b"AAAA").unwrap();
        dev.flush().unwrap();
        dev.write_at(0, b"BBBB").unwrap();
        dev.write_at(4, b"CCCC").unwrap();
        assert_eq!(dev.crash(1).image, b"BBBB");
    }

    #[test]
    fn crash_keep_all_includes_every_pending_write() {
        let dev = SimDevice::new();
        dev.write_at(0, b"XX").unwrap();
        dev.write_at(2, b"YY").unwrap();
        assert_eq!(dev.crash_keep_all().image, b"XXYY");
    }

    #[test]
    fn crash_store_captures_preexisting_content() {
        let dev = SimDevice::new();
        dev.restore(&DeviceSnapshot {
            image: b"old".to_vec(),
            register: Vec::new(),
        });
        dev.write_at(0, b"new").unwrap();
        assert_eq!(dev.crash_lose_all().image, b"old");
    }

    #[test]
    fn torn_crash_splits_within_one_write() {
        let dev = SimDevice::new();
        dev.write_at(0, b"AAAA").unwrap();
        dev.flush().unwrap();
        dev.write_at(0, b"BBBB").unwrap();
        dev.write_at(4, b"CCCC").unwrap();
        // First pending write survives whole, second is cut after 2 bytes.
        assert_eq!(dev.crash_torn(1, 2).image, b"BBBBCC");
    }

    #[test]
    fn error_store_fails_reads_after_arming() {
        let dev = SimDevice::new();
        dev.write_at(0, b"abcd").unwrap();
        let mut buf = [0u8; 4];
        dev.read_at(0, &mut buf).unwrap();
        dev.set_plan(FaultPlan::new().at(dev.read_ops() + 1, FaultKind::ReadsFailFrom));
        dev.read_at(0, &mut buf).unwrap();
        assert!(matches!(
            dev.read_at(0, &mut buf),
            Err(StoreError::InjectedFault {
                what: "planned read error",
                transient: false
            })
        ));
        dev.set_plan(FaultPlan::new());
        dev.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"abcd");
    }

    #[test]
    fn planned_write_error_fires_at_exact_index() {
        let dev = SimDevice::new();
        dev.set_plan(FaultPlan::new().at(1, FaultKind::WriteError));
        dev.write_at(0, b"ok").unwrap();
        assert!(dev.write_at(2, b"no").is_err());
        dev.write_at(4, b"ok").unwrap();
        assert_eq!(dev.injected_faults(), 1);
        let mut buf = [0u8; 2];
        dev.read_at(2, &mut buf).unwrap();
        // The faulted write never reached the device.
        assert_eq!(&buf, &[0, 0]);
    }

    #[test]
    fn batched_request_keeps_every_write_a_fault_point() {
        let dev = SimDevice::new();
        dev.set_plan(FaultPlan::new().at(1, FaultKind::WriteError));
        assert!(dev
            .write_all_flush(&[(0, b"a"), (1, b"b"), (2, b"c")])
            .is_err());
        // The first write landed, the second faulted, nothing after it ran.
        assert_eq!(dev.snapshot().image, b"a");
        assert_eq!((dev.write_ops(), dev.flush_ops()), (2, 0));

        dev.write_all_flush(&[(0, b"x"), (4, b"y")]).unwrap();
        assert_eq!(dev.write_ops(), 4);
        assert!(dev.pending_extents().is_empty());
    }

    #[test]
    fn planned_torn_write_keeps_prefix() {
        let dev = SimDevice::new();
        dev.set_plan(FaultPlan::new().at(0, FaultKind::TornWrite { keep: 3 }));
        assert!(dev.write_at(0, b"ABCDEF").is_err());
        // Only the kept prefix reached the device.
        assert_eq!(dev.len().unwrap(), 3);
        let mut buf = [0u8; 3];
        dev.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"ABC");
    }

    #[test]
    fn planned_dropped_flush_fails_without_flushing() {
        let dev = SimDevice::new();
        let stats = dev.stats();
        dev.set_plan(FaultPlan::new().at(0, FaultKind::DroppedFlush));
        dev.write_at(0, b"x").unwrap();
        assert!(dev.flush().is_err());
        assert_eq!(stats.snapshot().flushes, 0);
        assert_eq!(dev.pending_extents(), [(0, 1)]);
        dev.flush().unwrap();
        assert_eq!(stats.snapshot().flushes, 1);
    }

    #[test]
    fn flush_charges_no_read() {
        let dev = SimDevice::new();
        dev.write_at(0, &[7u8; 4096]).unwrap();
        dev.write_at(8192, b"tail").unwrap();
        dev.flush().unwrap();
        let io = dev.stats().snapshot();
        assert_eq!((io.reads, io.bytes_read, io.flushes), (0, 0, 1));
        assert_eq!(dev.crash_lose_all().image.len(), 8196);
    }

    #[test]
    fn transient_window_heals_itself() {
        let dev = SimDevice::new();
        dev.set_plan(FaultPlan::new().at(1, FaultKind::TransientWindow { len: 2 }));
        let mut buf = [0u8; 1];
        dev.write_at(0, b"x").unwrap(); // op 0
        let e = dev.read_at(0, &mut buf).unwrap_err(); // op 1: in window
        assert!(e.is_transient());
        assert!(dev.write_at(0, b"y").is_err()); // op 2: in window
        dev.read_at(0, &mut buf).unwrap(); // op 3: healed
        assert_eq!(&buf, b"x");
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(42, 100, 5);
        let b = FaultPlan::seeded(42, 100, 5);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(!a.faults.is_empty());
        let c = FaultPlan::seeded(43, 100, 5);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn a_plan_aimed_ahead_counts_from_the_device_now() {
        let dev = SimDevice::new();
        let mut buf = [0u8; 4];
        dev.write_at(0, b"abcd").unwrap();
        dev.read_at(0, &mut buf).unwrap();
        dev.read_at(0, &mut buf).unwrap();
        let plan = FaultPlan::new()
            .at(0, FaultKind::ReadError)
            .at(1, FaultKind::WriteError);
        dev.set_plan(dev.ahead(plan));
        assert!(dev.read_at(0, &mut buf).is_err());
        dev.read_at(0, &mut buf).unwrap();
        dev.write_at(0, b"efgh").unwrap();
        assert!(dev.write_at(0, b"ijkl").is_err());
        assert_eq!(dev.injected_faults(), 2);
    }

    #[test]
    fn faulty_trusted_store_fails_then_heals() {
        let dev = SimDevice::new();
        let reg = dev.register();
        reg.write(b"one").unwrap();
        dev.set_plan(FaultPlan::new().at(dev.register_ops(), FaultKind::RegisterFailsFrom));
        assert!(reg.write(b"two").is_err());
        assert_eq!(dev.injected_faults(), 1);
        // §2.1 atomicity: the failed write left the old value intact.
        assert_eq!(reg.read().unwrap(), b"one");
        dev.set_plan(FaultPlan::new());
        reg.write(b"two").unwrap();
        assert_eq!(reg.read().unwrap(), b"two");
        // Register writes are not device operations.
        assert_eq!(dev.total_ops(), 0);
    }

    #[test]
    fn snapshot_restore_moves_image_and_register_together() {
        let dev = SimDevice::new();
        let reg = dev.register();
        dev.write_at(0, b"v1").unwrap();
        dev.flush().unwrap();
        reg.write(b"count 1").unwrap();
        let before = dev.snapshot();
        assert_eq!(before.register, b"count 1");

        dev.write_at(0, b"v2").unwrap();
        reg.write(b"count 2").unwrap();
        assert!(dev.crash_keep_all().image.starts_with(b"v2"));
        assert!(dev.len().is_err(), "halted");
        dev.restore(&before);
        // Up again, journal empty, both halves back at the snapshot.
        let mut buf = [0u8; 2];
        dev.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"v1");
        assert!(dev.pending_extents().is_empty());
        assert_eq!(reg.read().unwrap(), b"count 1");
        assert_eq!(dev.snapshot(), before);
        // The restored image is durable: a crash keeps it whole.
        assert_eq!(dev.crash_lose_all(), before);
        assert_eq!(SimDevice::from_snapshot(&before).snapshot(), before);
    }

    #[test]
    fn fault_injectors_are_sync() {
        // The concurrency stress suites share one device across reader
        // and mutator threads; these bounds are load-bearing, not vacuous.
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<SimDevice>();
        assert_sync::<FaultPlan>();
    }

    #[test]
    fn error_store_countdown_is_exact_under_contention() {
        // With a load-check-decrement race, two threads could both take the
        // last good index and an armed fault would silently shift. Hammer
        // the device from many threads and demand exactly `armed`
        // successes before the permanent failure state.
        let dev = SimDevice::new();
        let armed = 64u64;
        dev.set_plan(FaultPlan::new().at(armed, FaultKind::WritesFailFrom));
        let successes = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..64u64 {
                        if dev.write_at(i * 8, b"payload!").is_ok() {
                            successes.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(successes.load(Ordering::SeqCst), armed);
        // Still failing, flushes too.
        assert!(dev.write_at(0, b"x").is_err());
        assert!(dev.flush().is_err());
    }
}
