//! I/O accounting shared by store implementations.
//!
//! The paper's Figure 12 breaks TDB's runtime down by module, with
//! "untrusted store read/write" and "tamper-resistant store" as the largest
//! rows. Every store implementation in this crate records its operation
//! counts and wall time into a [`StoreStats`] so the benchmark harness can
//! regenerate that breakdown.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Atomic counters describing traffic to one store.
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Number of read operations.
    pub reads: AtomicU64,
    /// Number of write operations.
    pub writes: AtomicU64,
    /// Number of flush (durability) operations.
    pub flushes: AtomicU64,
    /// Total bytes read.
    pub bytes_read: AtomicU64,
    /// Total bytes written.
    pub bytes_written: AtomicU64,
    /// Nanoseconds spent in read operations.
    pub read_ns: AtomicU64,
    /// Nanoseconds spent in write operations.
    pub write_ns: AtomicU64,
    /// Nanoseconds spent in flush operations.
    pub flush_ns: AtomicU64,
}

impl StoreStats {
    /// Creates zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one read of `bytes` taking `elapsed`.
    pub fn record_read(&self, bytes: usize, elapsed: Duration) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
        self.read_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records one write of `bytes` taking `elapsed`.
    pub fn record_write(&self, bytes: usize, elapsed: Duration) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.write_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records one flush taking `elapsed`.
    pub fn record_flush(&self, elapsed: Duration) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.flush_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for c in [
            &self.reads,
            &self.writes,
            &self.flushes,
            &self.bytes_read,
            &self.bytes_written,
            &self.read_ns,
            &self.write_ns,
            &self.flush_ns,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            read_ns: self.read_ns.load(Ordering::Relaxed),
            write_ns: self.write_ns.load(Ordering::Relaxed),
            flush_ns: self.flush_ns.load(Ordering::Relaxed),
        }
    }
}

/// A plain-value copy of [`StoreStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Read operations.
    pub reads: u64,
    /// Write operations.
    pub writes: u64,
    /// Flush operations.
    pub flushes: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Nanoseconds in reads.
    pub read_ns: u64,
    /// Nanoseconds in writes.
    pub write_ns: u64,
    /// Nanoseconds in flushes.
    pub flush_ns: u64,
}

impl StatsSnapshot {
    /// Difference of two snapshots (`self` taken after `earlier`).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            flushes: self.flushes - earlier.flushes,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            read_ns: self.read_ns - earlier.read_ns,
            write_ns: self.write_ns - earlier.write_ns,
            flush_ns: self.flush_ns - earlier.flush_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let s = StoreStats::new();
        s.record_read(10, Duration::from_nanos(100));
        s.record_write(20, Duration::from_nanos(200));
        s.record_write(5, Duration::from_nanos(50));
        s.record_flush(Duration::from_nanos(1000));
        let snap = s.snapshot();
        assert_eq!(snap.reads, 1);
        assert_eq!(snap.writes, 2);
        assert_eq!(snap.flushes, 1);
        assert_eq!(snap.bytes_read, 10);
        assert_eq!(snap.bytes_written, 25);
        assert_eq!(snap.write_ns, 250);
    }

    #[test]
    fn since_subtracts() {
        let s = StoreStats::new();
        s.record_read(10, Duration::from_nanos(100));
        let a = s.snapshot();
        s.record_read(30, Duration::from_nanos(300));
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.reads, 1);
        assert_eq!(d.bytes_read, 30);
    }

    #[test]
    fn reset_zeroes() {
        let s = StoreStats::new();
        s.record_flush(Duration::from_nanos(1));
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }
}
