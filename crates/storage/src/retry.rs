//! Bounded retry of transient faults over an [`UntrustedStore`].
//!
//! The chunk store validates everything it reads, so a transient I/O fault
//! (a bus glitch, a briefly unreachable remote store) is never a safety
//! problem — only an availability one. [`RetryStore`] wraps any untrusted
//! store and retries operations whose error is
//! [`transient`](crate::StoreError::is_transient) under a deterministic
//! [`IoPolicy`]: a bounded retry budget and an injectable backoff clock, so
//! tests can sweep fault plans without wall-clock sleeps and deployments
//! can use real exponential backoff.
//!
//! Retries are counted in the wrapped store's [`StoreStats::retries`] and
//! reported to an optional observer callback, which the engine layers use
//! to surface retry totals in their own metrics.

use std::sync::Arc;
use std::time::Duration;

use crate::stats::StoreStats;
use crate::untrusted::UntrustedStore;
use crate::Result;

/// Source of delay between retry attempts.
///
/// Injectable so tests stay deterministic: the default [`NoDelay`] clock
/// makes a retried operation sequence a pure function of the fault plan.
pub trait RetryClock: Send + Sync {
    /// Called before retry number `attempt` (1-based).
    fn backoff(&self, attempt: u32);
}

/// A clock that never sleeps; retries happen immediately.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoDelay;

impl RetryClock for NoDelay {
    fn backoff(&self, _attempt: u32) {}
}

/// Exponential backoff over real wall-clock sleeps: `base << (attempt - 1)`,
/// capped at `cap`.
#[derive(Debug, Clone, Copy)]
pub struct SleepBackoff {
    /// Delay before the first retry.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
}

impl SleepBackoff {
    /// A backoff starting at `base` and doubling up to `cap`.
    pub fn new(base: Duration, cap: Duration) -> SleepBackoff {
        SleepBackoff { base, cap }
    }
}

impl RetryClock for SleepBackoff {
    fn backoff(&self, attempt: u32) {
        let shift = attempt.saturating_sub(1).min(16);
        let delay = self
            .base
            .checked_mul(1 << shift)
            .map_or(self.cap, |d| d.min(self.cap));
        std::thread::sleep(delay);
    }
}

/// Retry policy: how many times to retry a transient fault, and how long to
/// wait between attempts.
#[derive(Clone)]
pub struct IoPolicy {
    /// Maximum retries per operation (0 = fail on first error).
    pub max_retries: u32,
    /// Delay source consulted between attempts.
    pub clock: Arc<dyn RetryClock>,
}

impl IoPolicy {
    /// No retries: every error propagates immediately.
    pub fn no_retry() -> IoPolicy {
        IoPolicy::retries(0)
    }

    /// Up to `max_retries` immediate retries (deterministic, no sleeping).
    pub fn retries(max_retries: u32) -> IoPolicy {
        IoPolicy {
            max_retries,
            clock: Arc::new(NoDelay),
        }
    }

    /// Replaces the backoff clock.
    pub fn with_clock(mut self, clock: Arc<dyn RetryClock>) -> IoPolicy {
        self.clock = clock;
        self
    }
}

impl Default for IoPolicy {
    fn default() -> IoPolicy {
        IoPolicy::retries(2)
    }
}

impl std::fmt::Debug for IoPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoPolicy")
            .field("max_retries", &self.max_retries)
            .finish_non_exhaustive()
    }
}

/// Observer invoked on every retry with the 1-based attempt number.
pub type RetryObserver = Box<dyn Fn(u32) + Send + Sync>;

/// An [`UntrustedStore`] wrapper that retries transient faults.
///
/// Write retries are safe because every operation in the chunk store's
/// protocol is idempotent at this layer: a retried `write_at` (or
/// `write_all_flush`) rewrites the same bytes at the same offsets, so a
/// torn first attempt is simply overwritten.
pub struct RetryStore {
    inner: Arc<dyn UntrustedStore>,
    policy: IoPolicy,
    on_retry: Option<RetryObserver>,
}

impl RetryStore {
    /// Wraps `inner` with retry `policy`.
    pub fn new(inner: Arc<dyn UntrustedStore>, policy: IoPolicy) -> RetryStore {
        RetryStore {
            inner,
            policy,
            on_retry: None,
        }
    }

    /// Registers a callback invoked on every retry (attempt number is
    /// 1-based). Used to bridge retry counts into engine-level metrics.
    pub fn with_observer(mut self, observer: RetryObserver) -> RetryStore {
        self.on_retry = Some(observer);
        self
    }

    /// The wrapped store.
    pub fn inner(&self) -> &Arc<dyn UntrustedStore> {
        &self.inner
    }

    fn run<T>(&self, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempt < self.policy.max_retries => {
                    attempt += 1;
                    self.inner.stats().record_retry();
                    if let Some(observer) = &self.on_retry {
                        observer(attempt);
                    }
                    self.policy.clock.backoff(attempt);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl UntrustedStore for RetryStore {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.run(|| self.inner.read_at(offset, buf))
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.run(|| self.inner.write_at(offset, data))
    }

    fn flush(&self) -> Result<()> {
        self.run(|| self.inner.flush())
    }

    /// Retries the whole request as one unit, so a store below that takes
    /// it as a single round trip still does on every attempt.
    fn write_all_flush(&self, extents: &[(u64, &[u8])]) -> Result<()> {
        self.run(|| self.inner.write_all_flush(extents))
    }

    fn len(&self) -> Result<u64> {
        self.run(|| self.inner.len())
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.run(|| self.inner.set_len(len))
    }

    fn stats(&self) -> Arc<StoreStats> {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faulty::{FaultKind, FaultPlan, SimDevice};
    use crate::untrusted::MemStore;
    use crate::StoreError;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn mem() -> Arc<dyn UntrustedStore> {
        Arc::new(MemStore::new())
    }

    #[test]
    fn passes_through_on_success() {
        let store = RetryStore::new(mem(), IoPolicy::no_retry());
        store.write_at(0, b"hello").unwrap();
        let mut buf = [0u8; 5];
        store.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        assert_eq!(store.stats().snapshot().retries, 0);
    }

    #[test]
    fn retries_transient_window_and_counts() {
        // Ops 1..4 (the first write and its first two retries) fail
        // transiently; the third retry lands after the window.
        let faulty = SimDevice::new();
        faulty.set_plan(FaultPlan::new().at(0, FaultKind::TransientWindow { len: 3 }));
        let store = RetryStore::new(faulty.clone(), IoPolicy::retries(5));
        store.write_at(0, b"x").unwrap();
        assert_eq!(store.stats().snapshot().retries, 3);
        assert_eq!(faulty.injected_faults(), 3);
    }

    #[test]
    fn gives_up_after_budget() {
        let faulty = SimDevice::new();
        faulty.set_plan(FaultPlan::new().at(0, FaultKind::TransientWindow { len: 10 }));
        let store = RetryStore::new(faulty, IoPolicy::retries(2));
        let err = store.write_at(0, b"x").unwrap_err();
        assert!(err.is_transient());
        assert_eq!(store.stats().snapshot().retries, 2);
    }

    #[test]
    fn permanent_errors_not_retried() {
        let faulty = SimDevice::new();
        faulty.set_plan(FaultPlan::new().at(0, FaultKind::WriteError));
        let store = RetryStore::new(faulty, IoPolicy::retries(5));
        let err = store.write_at(0, b"x").unwrap_err();
        assert!(matches!(
            err,
            StoreError::InjectedFault {
                transient: false,
                ..
            }
        ));
        assert_eq!(store.stats().snapshot().retries, 0);
    }

    #[test]
    fn write_all_flush_retries_as_one_request() {
        use crate::remote::RemoteStore;
        use crate::simdisk::SimClock;
        let clock = Arc::new(SimClock::new(false));
        let remote = Arc::new(RemoteStore::new(
            mem(),
            Duration::from_millis(1),
            Arc::clone(&clock),
        ));
        remote.drop_connections(1);
        let store = RetryStore::new(remote, IoPolicy::retries(2));
        store
            .write_all_flush(&[(0, b"a"), (8, b"b"), (16, b"c")])
            .unwrap();
        // One failed round trip and one that carried everything.
        assert_eq!(clock.elapsed(), Duration::from_millis(2));
        assert_eq!(store.stats().snapshot().retries, 1);
        assert_eq!(store.len().unwrap(), 17);
    }

    #[test]
    fn observer_sees_each_attempt() {
        let faulty = SimDevice::new();
        faulty.set_plan(FaultPlan::new().at(0, FaultKind::TransientWindow { len: 2 }));
        let seen = Arc::new(AtomicU32::new(0));
        let seen2 = Arc::clone(&seen);
        let store =
            RetryStore::new(faulty, IoPolicy::retries(4)).with_observer(Box::new(move |_| {
                seen2.fetch_add(1, Ordering::SeqCst);
            }));
        store.write_at(0, b"x").unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), 2);
    }
}
