//! Per-module runtime accounting for the Figure 12 breakdown.
//!
//! The paper's Figure 12 reports, for the release experiment, the time spent
//! in each module where "the time reported for each module *excludes* nested
//! calls to other reported modules". This module implements exactly that
//! semantics: a thread-local span stack where entering a child span pauses
//! the parent's clock.
//!
//! Spans are named with the paper's module names (see [`modules`]) so the
//! benchmark harness can print the same rows.
//!
//! Beyond durations, the module keeps always-on event [`counters`] for the
//! robustness machinery: transient-fault retries, degraded-mode entries,
//! poison events, and heal/recovery attempts. Durations are opt-in (they
//! cost a clock read per span) but counters are so rare and cheap that they
//! record unconditionally, so a production incident always has them.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// The module names used by Figure 12.
pub mod modules {
    /// The collection store (§8).
    pub const COLLECTION_STORE: &str = "collection store";
    /// The object store (§7).
    pub const OBJECT_STORE: &str = "object store";
    /// The chunk store proper (map/log bookkeeping, §4–§5).
    pub const CHUNK_STORE: &str = "chunk store";
    /// Cipher time (seal/open of headers and bodies).
    pub const ENCRYPTION: &str = "encryption";
    /// Hash time (chunk digests, log chains, commit sets).
    pub const HASHING: &str = "hashing";
    /// Untrusted-store read I/O.
    pub const UNTRUSTED_READ: &str = "untrusted store read";
    /// Untrusted-store write and flush I/O.
    pub const UNTRUSTED_WRITE: &str = "untrusted store write";
    /// Tamper-resistant store updates.
    pub const TRUSTED_STORE: &str = "tamper-resistant store";

    /// Figure 12's row order.
    pub const ALL: [&str; 8] = [
        COLLECTION_STORE,
        OBJECT_STORE,
        CHUNK_STORE,
        ENCRYPTION,
        HASHING,
        UNTRUSTED_READ,
        UNTRUSTED_WRITE,
        TRUSTED_STORE,
    ];
}

/// Names of the always-on fault/robustness event counters.
pub mod counters {
    /// Operations retried after a transient fault (from retry-wrapped
    /// stores via the engine's observer hook).
    pub const RETRIES: &str = "io retries";
    /// Times a store entered read-only degraded mode.
    pub const DEGRADED_ENTRIES: &str = "degraded-mode entries";
    /// Times a store hard-poisoned on an integrity violation.
    pub const POISON_EVENTS: &str = "poison events";
    /// `try_heal` attempts on degraded stores.
    pub const HEAL_ATTEMPTS: &str = "heal attempts";
    /// Successful heals (degraded back to live).
    pub const HEALS: &str = "heals";
    /// Recovery (reopen) attempts.
    pub const RECOVERY_ATTEMPTS: &str = "recovery attempts";
    /// Fast reads that found their shard write-locked and had to wait.
    pub const READ_SHARD_CONTENTION: &str = "read-shard contention";
    /// Commit/checkpoint batches sealed by the parallel crypto pipeline.
    pub const PARALLEL_CRYPTO_BATCHES: &str = "parallel-crypto batches";
    /// Chunks sealed by the parallel crypto pipeline.
    pub const PARALLEL_CRYPTO_CHUNKS: &str = "parallel-crypto chunks";
    /// Group-commit batches executed by a leader thread.
    pub const COMMIT_BATCHES: &str = "group-commit batches";
    /// Commits that rode in a group-commit batch.
    pub const BATCHED_COMMITS: &str = "group-commit batched commits";
    /// Device writes saved by log append coalescing.
    pub const LOG_WRITES_COALESCED: &str = "log writes coalesced";
    /// Map-tree levels a checkpoint skipped because none of their chunks
    /// were dirty.
    pub const DIRTY_MAP_LEVELS_SKIPPED: &str = "dirty map levels skipped";
    /// Segments reclaimed by the log cleaner.
    pub const SEGMENTS_CLEANED: &str = "segments cleaned";
    /// Current chunk versions the cleaner relocated to the log tail.
    pub const VERSIONS_RELOCATED: &str = "versions relocated";
    /// Obsolete bytes reclaimed by cleaning.
    pub const BYTES_RECLAIMED: &str = "bytes reclaimed by cleaning";
    /// Bounded cleaning slices run by the background maintenance thread.
    pub const CLEAN_SLICES: &str = "clean slices";
    /// Maintenance-thread wakeups that ran a pass.
    pub const MAINTENANCE_WAKEUPS: &str = "maintenance wakeups";
    /// Commits throttled at the low-water admission gate.
    pub const COMMIT_THROTTLE_WAITS: &str = "commit throttle waits";
    /// Bodies stored as compressed envelopes.
    pub const BODIES_COMPRESSED: &str = "bodies compressed";
    /// Bodies examined by the compression knob but stored raw.
    pub const BODIES_STORED_RAW: &str = "bodies stored raw";
    /// Sealed log bytes saved by compression.
    pub const LOG_BYTES_SAVED: &str = "log bytes saved by compression";
    /// Fast reads that failed to decompress a verified body and fell back
    /// to the engine-locked path.
    pub const DECOMPRESS_FALLBACKS: &str = "decompress fallbacks";
}

static ENABLED: AtomicBool = AtomicBool::new(false);

static TOTALS: Mutex<Option<HashMap<&'static str, Duration>>> = Mutex::new(None);

static COUNTERS: Mutex<Option<HashMap<&'static str, u64>>> = Mutex::new(None);

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

struct Frame {
    module: &'static str,
    resumed_at: Instant,
}

/// Turns accounting on and clears previous totals.
pub fn enable() {
    *TOTALS.lock() = Some(HashMap::new());
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns accounting off.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// True when spans are being recorded.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Adds `n` to the named event counter. Always on, independent of
/// [`enable`].
pub fn add(counter: &'static str, n: u64) {
    let mut guard = COUNTERS.lock();
    *guard
        .get_or_insert_with(HashMap::new)
        .entry(counter)
        .or_default() += n;
}

/// Increments the named event counter by one.
pub fn count(counter: &'static str) {
    add(counter, 1);
}

/// An observer for [`tdb_storage::RetryStore`] that records every retry in
/// the global [`counters::RETRIES`] counter, tying the storage layer's
/// retry loop into the engine's metrics:
///
/// ```ignore
/// let store = RetryStore::new(inner, IoPolicy::default())
///     .with_observer(metrics::retry_observer());
/// ```
pub fn retry_observer() -> tdb_storage::RetryObserver {
    Box::new(|_attempt| count(counters::RETRIES))
}

/// A point-in-time copy of accumulated self-times and event counters.
///
/// Indexing (`snap[module]`) and [`MetricsSnapshot::get`] look up module
/// durations, keeping the `HashMap`-shaped API the benchmark harness uses;
/// [`MetricsSnapshot::counter`] reads the event counters.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    durations: HashMap<&'static str, Duration>,
    counters: HashMap<&'static str, u64>,
}

impl MetricsSnapshot {
    /// The accumulated self-time for `module`, if any was recorded.
    pub fn get(&self, module: &str) -> Option<&Duration> {
        self.durations.get(module)
    }

    /// The value of the named event counter (0 when never incremented).
    pub fn counter(&self, counter: &str) -> u64 {
        self.counters.get(counter).copied().unwrap_or(0)
    }

    /// All recorded module durations.
    pub fn durations(&self) -> &HashMap<&'static str, Duration> {
        &self.durations
    }

    /// All recorded event counters.
    pub fn counters(&self) -> &HashMap<&'static str, u64> {
        &self.counters
    }
}

impl std::ops::Index<&str> for MetricsSnapshot {
    type Output = Duration;

    fn index(&self, module: &str) -> &Duration {
        &self.durations[module]
    }
}

/// Takes a snapshot of accumulated self-times and event counters.
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        durations: TOTALS.lock().clone().unwrap_or_default(),
        counters: COUNTERS.lock().clone().unwrap_or_default(),
    }
}

/// Clears accumulated totals and counters (keeps recording enabled).
pub fn reset() {
    if let Some(m) = TOTALS.lock().as_mut() {
        m.clear();
    }
    if let Some(m) = COUNTERS.lock().as_mut() {
        m.clear();
    }
}

fn charge(module: &'static str, d: Duration) {
    if let Some(m) = TOTALS.lock().as_mut() {
        *m.entry(module).or_default() += d;
    }
}

/// An RAII span. While alive, wall time accrues to `module`; entering a
/// nested span pauses this one.
pub struct Span {
    active: bool,
}

/// Opens a span for `module`. Cheap no-op unless [`enable`] was called.
pub fn span(module: &'static str) -> Span {
    if !is_enabled() {
        return Span { active: false };
    }
    let now = Instant::now();
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        if let Some(parent) = stack.last_mut() {
            charge(parent.module, now - parent.resumed_at);
            parent.resumed_at = now;
        }
        stack.push(Frame {
            module,
            resumed_at: now,
        });
    });
    Span { active: true }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let now = Instant::now();
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(frame) = stack.pop() {
                charge(frame.module, now - frame.resumed_at);
            }
            if let Some(parent) = stack.last_mut() {
                parent.resumed_at = now;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The span table and its enable flag are process-global, so a sibling
    /// test's `disable()`/`reset()` would land mid-span: every test here
    /// holds this lock for its whole body. Span names are private to these
    /// tests because the rest of the crate's tests run (and charge the real
    /// module names) while one of these has recording enabled.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn busy(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_exclude_children() {
        let _serial = SERIAL.lock();
        enable();
        reset();
        {
            let _outer = span("metrics-test-outer");
            busy(Duration::from_millis(10));
            {
                let _inner = span("metrics-test-inner");
                busy(Duration::from_millis(20));
            }
            busy(Duration::from_millis(5));
        }
        disable();
        let snap = snapshot();
        let outer = snap["metrics-test-outer"];
        let inner = snap["metrics-test-inner"];
        assert!(inner >= Duration::from_millis(19), "{inner:?}");
        // The outer span's self time excludes the inner 20 ms.
        assert!(outer >= Duration::from_millis(14), "{outer:?}");
        assert!(outer < Duration::from_millis(30), "{outer:?}");
    }

    #[test]
    fn disabled_spans_cost_nothing() {
        let _serial = SERIAL.lock();
        disable();
        reset();
        {
            let _s = span("metrics-test-disabled");
            busy(Duration::from_millis(2));
        }
        // Totals unchanged because recording was off.
        let snap = snapshot();
        assert!(
            snap.get("metrics-test-disabled")
                .copied()
                .unwrap_or_default()
                < Duration::from_millis(1)
        );
    }

    #[test]
    fn counters_accumulate_without_enable() {
        let _serial = SERIAL.lock();
        disable();
        // A name no production code uses; sibling tests call reset(), so
        // retry rather than assert an exact total.
        for _ in 0..100 {
            count("metrics-test-private-counter");
            if snapshot().counter("metrics-test-private-counter") >= 1 {
                assert_eq!(snapshot().counter("metrics-test-never-touched"), 0);
                return;
            }
        }
        panic!("counter never observed");
    }

    #[test]
    fn sibling_spans_accumulate() {
        let _serial = SERIAL.lock();
        enable();
        reset();
        for _ in 0..3 {
            let _s = span("metrics-test-sibling");
            busy(Duration::from_millis(3));
        }
        disable();
        let total = snapshot()["metrics-test-sibling"];
        assert!(total >= Duration::from_millis(8), "{total:?}");
    }
}
