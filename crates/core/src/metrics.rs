//! Per-module runtime accounting for the Figure 12 breakdown.
//!
//! The paper's Figure 12 reports, for the release experiment, the time spent
//! in each module where "the time reported for each module *excludes* nested
//! calls to other reported modules". This module implements exactly that
//! semantics: a thread-local span stack where entering a child span pauses
//! the parent's clock.
//!
//! Spans are named with the paper's module names (see [`modules`]) so the
//! benchmark harness can print the same rows. Recording is opt-in: a span
//! costs a clock read. Event counts live per store instance, in
//! `ChunkStoreStats` and the storage layer's `StoreStats`.

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

static ENABLED: AtomicBool = AtomicBool::new(false);

static TOTALS: Mutex<Option<HashMap<&'static str, Duration>>> = Mutex::new(None);

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

/// A point-in-time copy of accumulated self-times.
///
/// Indexing (`snap[module]`) and [`MetricsSnapshot::get`] look up module
/// durations, keeping the `HashMap`-shaped API the benchmark harness uses.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    durations: HashMap<&'static str, Duration>,
}

impl MetricsSnapshot {
    /// The accumulated self-time for `module`, if any was recorded.
    pub fn get(&self, module: &str) -> Option<&Duration> {
        self.durations.get(module)
    }

    /// All recorded module durations.
    pub fn durations(&self) -> &HashMap<&'static str, Duration> {
        &self.durations
    }
}

impl std::ops::Index<&str> for MetricsSnapshot {
    type Output = Duration;

    fn index(&self, module: &str) -> &Duration {
        &self.durations[module]
    }
}

/// Takes a snapshot of accumulated self-times.
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        durations: TOTALS.lock().clone().unwrap_or_default(),
    }
}

/// Clears accumulated totals (keeps recording enabled).
pub fn reset() {
    if let Some(m) = TOTALS.lock().as_mut() {
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
