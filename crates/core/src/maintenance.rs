//! The background maintenance runtime: sliced cleaning, automatic
//! checkpoints, and commit admission control.
//!
//! The paper runs the cleaner and checkpointer synchronously inside the
//! engine mutex, so log maintenance stalls every commit. With
//! `background_maintenance` enabled, a [`MaintenanceService`] thread owned
//! by the store takes that work off the foreground path:
//!
//! - **Sliced cleaning.** The cleaner runs in bounded slices of at most
//!   `SLICE_SEGMENTS` segments per engine-lock hold
//!   ([`crate::engine::maintenance`]), releasing the mutex and yielding to
//!   queued group-commit members between slices. Cleaning starts when the
//!   free-segment count of a bounded log falls below `HIGH_WATER`
//!   and stops once it is back at or above it. A slice that finds nothing
//!   outside the residual log checkpoints first (`Inner::clean`).
//! - **Automatic checkpoints.** When `Inner::checkpoint_due` holds, the
//!   maintenance thread checkpoints instead of the committing caller
//!   (`Inner::maybe_checkpoint` defers to it), so no commit pays a full
//!   checkpoint inline.
//! - **Admission control.** When free segments fall below
//!   `LOW_WATER`, committers wait (bounded) for the cleaner to make
//!   room before proceeding; if the log is still full they surface the
//!   existing [`crate::errors::CoreError::OutOfSpace`] from the append
//!   path rather than failing abruptly under transient pressure.
//!
//! Lock order is unchanged: the maintenance thread takes the engine mutex
//! exactly like a foreground caller and touches read shards only while
//! holding it. The wake/space condvars below are leaf locks — never held
//! across an engine-lock acquisition in a way that could invert.
//!
//! With `background_maintenance = false` (the default) none of this runs:
//! cleaning happens only via explicit [`crate::store::ChunkStore::clean`]
//! calls and checkpoints trigger inside commits, reproducing the paper's
//! caller-driven behavior exactly — which deterministic fault-injection
//! and crash suites rely on.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::errors::Result;
use crate::store::{ChunkStoreConfig, Inner, StoreCore};

/// How long the maintenance thread sleeps between polls when nothing
/// kicks it awake earlier.
const IDLE_TICK: Duration = Duration::from_millis(20);

/// Segments the cleaner processes per engine-lock hold (one *slice*);
/// between slices the lock is released so committers interleave.
const SLICE_SEGMENTS: usize = 2;

/// Free-segment low-water mark of a bounded log: below it, committers are
/// throttled (bounded wait) until the cleaner frees space.
const LOW_WATER: u64 = 2;

/// Free-segment high-water mark of a bounded log: the cleaner runs while
/// free segments are below it.
const HIGH_WATER: u64 = 4;

/// Longest a throttled committer waits for the cleaner to free space
/// before proceeding to the log's natural out-of-space error.
const THROTTLE_WAIT: Duration = Duration::from_millis(400);

/// State shared between the store facade, the engine, and the maintenance
/// thread. Mirrors of engine state (free segments, checkpoint due) are
/// updated under the engine lock and read lock-free by the gate and the
/// thread.
pub(crate) struct MaintenanceShared {
    /// Background maintenance on/off (from the config).
    pub(crate) enabled: bool,
    /// True when the log is bounded (`max_segments != 0`); segment
    /// pressure is meaningless on an unbounded log.
    bounded: bool,
    /// Wake latch for the maintenance thread.
    wake: Mutex<bool>,
    wake_cv: Condvar,
    /// Parked throttled committers wait here for freed space.
    space: Mutex<()>,
    space_cv: Condvar,
    /// Set once, on drop; the thread exits at its next wakeup.
    shutdown: AtomicBool,
    /// Mirror of the bounded log's free-segment count (headroom to
    /// `max_segments` plus the free list), updated under the engine lock.
    free_segments: AtomicU64,
    /// Mirror of `Inner::checkpoint_due`.
    checkpoint_due: AtomicBool,
    /// Times the maintenance thread woke and ran a pass.
    pub(crate) wakeups: AtomicU64,
    /// Commits that hit the low-water admission gate and waited.
    pub(crate) throttle_waits: AtomicU64,
}

impl MaintenanceShared {
    pub(crate) fn new(config: &ChunkStoreConfig) -> MaintenanceShared {
        MaintenanceShared {
            enabled: config.background_maintenance,
            bounded: config.max_segments != 0,
            wake: Mutex::new(false),
            wake_cv: Condvar::new(),
            space: Mutex::new(()),
            space_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            free_segments: AtomicU64::new(u64::MAX),
            checkpoint_due: AtomicBool::new(false),
            wakeups: AtomicU64::new(0),
            throttle_waits: AtomicU64::new(0),
        }
    }

    /// Wakes the maintenance thread (no-op without one running).
    pub(crate) fn kick(&self) {
        let mut flag = self.wake.lock();
        *flag = true;
        self.wake_cv.notify_one();
    }

    fn free_estimate(&self) -> u64 {
        self.free_segments.load(Ordering::Relaxed)
    }

    /// The free-segment estimate, or `None` on an unbounded log where
    /// segment pressure is meaningless.
    pub(crate) fn free_segments_if_bounded(&self) -> Option<u64> {
        self.bounded.then(|| self.free_estimate())
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }
}

impl StoreCore {
    /// Refreshes the lock-free mirrors of engine state the maintenance
    /// runtime steers by, wakes throttled committers when space appeared,
    /// and kicks the maintenance thread when there is work. Call with the
    /// engine lock held, after any mutation.
    pub(crate) fn note_engine_state(&self, inner: &Inner) {
        let m = &self.maint;
        let due = inner.checkpoint_due();
        m.checkpoint_due.store(due, Ordering::Relaxed);
        let mut pressured = false;
        if m.bounded {
            let log = &inner.sys_leader.log;
            let headroom = u64::from(inner.config.max_segments.saturating_sub(log.num_segments));
            let free = headroom + log.free_segments.len() as u64;
            m.free_segments.store(free, Ordering::Relaxed);
            if free >= LOW_WATER {
                let _guard = m.space.lock();
                m.space_cv.notify_all();
            }
            pressured = free < HIGH_WATER;
        }
        if m.enabled && (due || pressured) {
            m.kick();
        }
    }

    /// Admission control: with background maintenance on a bounded log,
    /// a committer that finds free segments below the low-water mark waits
    /// (bounded) for the cleaner instead of running the log into the wall.
    /// After the wait the commit proceeds regardless; a still-full log
    /// fails with the append path's usual out-of-space error.
    pub(crate) fn admission_gate(&self) {
        let m = &self.maint;
        if !m.enabled || !m.bounded || m.shutting_down() {
            return;
        }
        if m.free_estimate() >= LOW_WATER {
            return;
        }
        m.throttle_waits.fetch_add(1, Ordering::Relaxed);
        m.kick();
        let deadline = Instant::now() + THROTTLE_WAIT;
        let mut guard = m.space.lock();
        while m.free_estimate() < LOW_WATER && !m.shutting_down() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            m.space_cv
                .wait_for(&mut guard, (deadline - now).min(Duration::from_millis(50)));
        }
    }

    /// One engine-locked cleaning pass over up to `max_segments` segments,
    /// shared by the public `clean()` facade and the background slices.
    /// Invalidates exactly the relocated ids on success so hot readers
    /// keep their fast path; an error clears the shards wholesale (the
    /// rollback may have left published descriptors stale).
    pub(crate) fn clean_locked(&self, max_segments: usize, slice: bool) -> Result<usize> {
        let mut inner = self.inner.lock();
        inner.check_writable()?;
        let result = inner.clean(max_segments);
        match &result {
            Ok(outcome) => {
                if slice {
                    inner.stats.clean_slices += 1;
                }
                for id in &outcome.relocated {
                    self.reads.invalidate(*id);
                }
            }
            Err(_) => self.reads.clear_shards(),
        }
        self.reads.set_health(&inner.health);
        self.note_engine_state(&inner);
        result.map(|o| o.reclaimed)
    }

    /// One maintenance pass: a checkpoint if one is due, then cleaning
    /// slices while the bounded log is under segment pressure. Each slice
    /// is its own engine-lock hold; queued group-commit members get the
    /// core between slices.
    fn maintenance_pass(&self) {
        let m = &self.maint;
        if m.checkpoint_due.load(Ordering::Relaxed) {
            let mut inner = self.inner.lock();
            if inner.check_writable().is_ok() && inner.checkpoint_due() {
                // Failure handling (rollback, degrade, poison) lives in the
                // checkpoint path itself; the error needs no surfacing here.
                let _ = inner.checkpoint();
            }
            self.reads.set_health(&inner.health);
            self.note_engine_state(&inner);
        }
        if !m.bounded {
            return;
        }
        while !m.shutting_down() && m.free_estimate() < HIGH_WATER {
            if self.batcher.queued() > 0 {
                // Committers are parked on the engine: give them the core
                // before taking the lock for another slice.
                std::thread::yield_now();
            }
            match self.clean_locked(SLICE_SEGMENTS, true) {
                Ok(0) => break, // Nothing cleanable; wait for more traffic.
                Ok(_) => continue,
                Err(_) => break, // Unhealthy store; reads saw the health.
            }
        }
    }
}

/// The background maintenance thread, owned by a
/// [`crate::store::ChunkStore`] when `background_maintenance` is enabled.
/// Dropping the service (with the store) signals shutdown and joins.
pub(crate) struct MaintenanceService {
    core: Arc<StoreCore>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MaintenanceService {
    pub(crate) fn spawn(core: Arc<StoreCore>) -> MaintenanceService {
        let worker = Arc::clone(&core);
        let handle = std::thread::Builder::new()
            .name("tdb-maintenance".into())
            .spawn(move || run(&worker))
            .expect("spawn maintenance thread");
        MaintenanceService {
            core,
            handle: Some(handle),
        }
    }
}

impl Drop for MaintenanceService {
    fn drop(&mut self) {
        self.core.maint.shutdown.store(true, Ordering::SeqCst);
        self.core.maint.kick();
        // Unblock any committer still parked on the admission gate.
        {
            let _guard = self.core.maint.space.lock();
            self.core.maint.space_cv.notify_all();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn run(core: &StoreCore) {
    let m = &core.maint;
    loop {
        {
            let mut flag = m.wake.lock();
            if !*flag {
                m.wake_cv.wait_for(&mut flag, IDLE_TICK);
            }
            *flag = false;
        }
        if m.shutdown.load(Ordering::SeqCst) {
            return;
        }
        m.wakeups.fetch_add(1, Ordering::Relaxed);
        core.maintenance_pass();
    }
}
