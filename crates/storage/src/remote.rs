//! Remote untrusted storage and write batching (paper §10).
//!
//! "TDB may be used to protect a database stored at an untrusted server.
//! This application of TDB may benefit from additional optimizations for
//! reducing network round-trips to the untrusted server, such as batching
//! reads and writes."
//!
//! [`RemoteStore`] simulates a network-attached untrusted store: every
//! request pays a round-trip latency (virtual or real, via [`SimClock`]).
//! A request is one `read_at`, `write_at`, `flush` or `set_len` — or one
//! [`UntrustedStore::write_all_flush`], which carries any number of extents
//! plus the sync as a single message, the way a server would take "write
//! these and make them durable".
//! [`BatchingStore`] implements the suggested optimization: writes coalesce
//! in a client-side buffer (adjacent writes are merged), and a flush ships
//! the whole buffer and the sync as that one request, so a durable batch of
//! N extents costs one round trip rather than N + 1. Reads are served from
//! the buffer when possible. `tests/remote_batching.rs` pins the round
//! trips per commit and checkpoint; `report -- ablations` (`remote.*`)
//! measures the computational cost.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::simdisk::SimClock;
use crate::stats::StoreStats;
use crate::untrusted::UntrustedStore;
use crate::{Result, StoreError};

/// A latency wrapper charging one round trip per store request.
///
/// [`UntrustedStore::write_all_flush`] is one request: it charges a single
/// round trip for all its extents and the flush, then applies them to the
/// inner store in order. So in this device model a durable batch of N
/// extents costs one round trip, not N writes plus a flush; the bytes
/// written, their order and the durability point are the same as theirs.
/// A failed round trip fails the whole request before any extent is
/// applied, as it does for a single write.
///
/// Transport failures can be injected with [`RemoteStore::drop_connections`]:
/// the next `n` round trips fail with a `ConnectionReset` I/O error, the
/// canonical "network blinked" fault. Such errors classify as transient
/// through [`StoreError::is_transient`] (and therefore as
/// `FaultClass::Transient` through the core crate's `fault_class`), and
/// the wire's class byte carries that class to the client. Nothing here
/// retries: a commit the reset fails leaves the chunk store degraded, and
/// a reopen recovers it.
pub struct RemoteStore {
    inner: Arc<dyn UntrustedStore>,
    round_trip: Duration,
    clock: Arc<SimClock>,
    /// Round trips remaining that fail with a connection reset.
    drop_next: AtomicU64,
}

impl RemoteStore {
    /// Wraps `inner` behind a `round_trip` network latency, charged to
    /// `clock` (which may sleep or merely account).
    pub fn new(
        inner: Arc<dyn UntrustedStore>,
        round_trip: Duration,
        clock: Arc<SimClock>,
    ) -> RemoteStore {
        RemoteStore {
            inner,
            round_trip,
            clock,
            drop_next: AtomicU64::new(0),
        }
    }

    /// Makes the next `n` round trips fail with a `ConnectionReset` error
    /// (fault-injection hook; the latency is still charged, as a real
    /// client only learns of the reset after the round trip).
    pub fn drop_connections(&self, n: u64) {
        self.drop_next.store(n, Ordering::SeqCst);
    }

    /// Charges the round trip and injects a pending connection reset.
    fn round_trip(&self) -> Result<()> {
        self.clock.charge(self.round_trip);
        let mut remaining = self.drop_next.load(Ordering::SeqCst);
        while remaining > 0 {
            match self.drop_next.compare_exchange(
                remaining,
                remaining - 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    return Err(StoreError::Io(std::io::Error::new(
                        std::io::ErrorKind::ConnectionReset,
                        "remote store connection reset",
                    )))
                }
                Err(actual) => remaining = actual,
            }
        }
        Ok(())
    }
}

impl UntrustedStore for RemoteStore {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.round_trip()?;
        self.inner.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.round_trip()?;
        self.inner.write_at(offset, data)
    }

    fn flush(&self) -> Result<()> {
        self.round_trip()?;
        self.inner.flush()
    }

    fn write_all_flush(&self, extents: &[(u64, &[u8])]) -> Result<()> {
        self.round_trip()?;
        self.inner.write_all_flush(extents)
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.round_trip()?;
        self.inner.set_len(len)
    }

    fn stats(&self) -> Arc<StoreStats> {
        self.inner.stats()
    }
}

/// Client-side write batching over a (remote) untrusted store.
///
/// Writes buffer locally and coalesce (adjacent/overlapping extents are
/// merged); [`UntrustedStore::flush`] ships every buffered extent and the
/// flush to the inner store as one [`UntrustedStore::write_all_flush`] —
/// one round trip over a [`RemoteStore`]. If that request fails, the
/// extents go back into the buffer, so a retried flush still writes them.
/// Reads check the buffer first, so the log-structured append pattern of
/// the chunk store — write, then occasionally read back — stays correct.
pub struct BatchingStore {
    inner: Arc<dyn UntrustedStore>,
    /// Buffered extents keyed by offset; invariant: non-overlapping.
    pending: Mutex<BTreeMap<u64, Vec<u8>>>,
}

impl BatchingStore {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn UntrustedStore>) -> BatchingStore {
        BatchingStore {
            inner,
            pending: Mutex::new(BTreeMap::new()),
        }
    }

    /// Number of buffered extents awaiting the next flush.
    pub fn pending_extents(&self) -> usize {
        self.pending.lock().len()
    }

    /// Puts the extents a failed flush took back into the buffer. Writes
    /// buffered since the take are newer and win where they overlap.
    fn restore(&self, taken: BTreeMap<u64, Vec<u8>>) {
        let mut pending = self.pending.lock();
        let newer = std::mem::replace(&mut *pending, taken);
        for (offset, data) in newer {
            merge(&mut pending, offset, data);
        }
    }
}

/// Merges `bytes` at `start` into the extent map `pending`, keeping extents
/// disjoint and coalescing adjacency; the new bytes win where they overlap.
fn merge(pending: &mut BTreeMap<u64, Vec<u8>>, mut start: u64, mut bytes: Vec<u8>) {
    // Absorb any extent that overlaps or touches [start, end].
    loop {
        let end = start + bytes.len() as u64;
        // Candidate: the greatest extent starting at or before `end`.
        let candidate = pending
            .range(..=end)
            .next_back()
            .map(|(k, v)| (*k, v.len() as u64));
        match candidate {
            Some((k, klen)) if k + klen >= start => {
                let existing = pending.remove(&k).expect("present");
                let new_start = start.min(k);
                let new_end = end.max(k + klen);
                let mut merged = vec![0u8; (new_end - new_start) as usize];
                merged[(k - new_start) as usize..(k - new_start) as usize + existing.len()]
                    .copy_from_slice(&existing);
                merged[(start - new_start) as usize..(start - new_start) as usize + bytes.len()]
                    .copy_from_slice(&bytes);
                start = new_start;
                bytes = merged;
            }
            _ => break,
        }
    }
    pending.insert(start, bytes);
}

impl UntrustedStore for BatchingStore {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        // Serve from the buffer where possible; fall back per-byte-range to
        // the remote store for anything not buffered.
        let pending = self.pending.lock();
        // Fast path: fully contained in one extent.
        if let Some((k, v)) = pending.range(..=offset).next_back() {
            let rel = (offset - k) as usize;
            if rel + buf.len() <= v.len() {
                buf.copy_from_slice(&v[rel..rel + buf.len()]);
                return Ok(());
            }
        }
        // Slow path: read the remote base, then overlay buffered extents.
        let overlays: Vec<(u64, Vec<u8>)> = pending
            .range(..offset + buf.len() as u64)
            .filter(|(k, v)| *k + v.len() as u64 > offset)
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        drop(pending);
        // The remote may be shorter than the requested range if the tail
        // only exists in the buffer; read what exists and zero-fill.
        let remote_len = self.inner.len()?;
        let end = (offset + buf.len() as u64).min(remote_len);
        buf.fill(0);
        if end > offset {
            self.inner
                .read_at(offset, &mut buf[..(end - offset) as usize])?;
        }
        for (k, v) in overlays {
            let from = k.max(offset);
            let to = (k + v.len() as u64).min(offset + buf.len() as u64);
            if from < to {
                buf[(from - offset) as usize..(to - offset) as usize]
                    .copy_from_slice(&v[(from - k) as usize..(to - k) as usize]);
            }
        }
        Ok(())
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        merge(&mut self.pending.lock(), offset, data.to_vec());
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        let taken = std::mem::take(&mut *self.pending.lock());
        let extents: Vec<(u64, &[u8])> = taken.iter().map(|(k, v)| (*k, v.as_slice())).collect();
        let result = self.inner.write_all_flush(&extents);
        if result.is_err() {
            self.restore(taken);
        }
        result
    }

    fn len(&self) -> Result<u64> {
        let buffered_end = self
            .pending
            .lock()
            .iter()
            .next_back()
            .map(|(k, v)| k + v.len() as u64)
            .unwrap_or(0);
        Ok(self.inner.len()?.max(buffered_end))
    }

    fn set_len(&self, len: u64) -> Result<()> {
        let mut pending = self.pending.lock();
        pending.retain(|k, _| *k < len);
        // An extent straddling the new end must be truncated, or a later
        // flush would silently re-extend the store.
        if let Some((k, v)) = pending.iter_mut().next_back() {
            if k + v.len() as u64 > len {
                v.truncate((len - k) as usize);
            }
        }
        drop(pending);
        self.inner.set_len(len)
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
    fn remote_charges_round_trips() {
        let clock = Arc::new(SimClock::new(false));
        let remote = RemoteStore::new(
            Arc::new(MemStore::new()),
            Duration::from_millis(5),
            Arc::clone(&clock),
        );
        remote.write_at(0, b"x").unwrap();
        remote.write_at(1, b"y").unwrap();
        remote.flush().unwrap();
        assert_eq!(clock.elapsed(), Duration::from_millis(15));
    }

    #[test]
    fn transport_faults_classify_as_transient() {
        let clock = Arc::new(SimClock::new(false));
        let remote = RemoteStore::new(
            Arc::new(MemStore::new()),
            Duration::from_millis(1),
            Arc::clone(&clock),
        );
        remote.drop_connections(1);
        let err = remote.write_at(0, b"x").unwrap_err();
        assert!(
            err.is_transient(),
            "connection reset must be retryable: {err}"
        );
        // The fault is consumed; the retry succeeds.
        remote.write_at(0, b"x").unwrap();
    }

    #[test]
    fn batching_coalesces_adjacent_writes() {
        let clock = Arc::new(SimClock::new(false));
        let mem = Arc::new(MemStore::new());
        let remote = Arc::new(RemoteStore::new(
            Arc::clone(&mem) as Arc<dyn UntrustedStore>,
            Duration::from_millis(5),
            Arc::clone(&clock),
        ));
        let batching = BatchingStore::new(remote);
        // 10 adjacent writes coalesce into one extent, shipped with the
        // flush as one round trip instead of 11.
        for i in 0..10u64 {
            batching.write_at(i * 4, &[i as u8; 4]).unwrap();
        }
        assert_eq!(batching.pending_extents(), 1);
        batching.flush().unwrap();
        assert_eq!(clock.elapsed(), Duration::from_millis(5));
        let mut buf = [0u8; 40];
        mem.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf[36..], &[9, 9, 9, 9]);
    }

    #[test]
    fn write_all_flush_is_one_round_trip() {
        let clock = Arc::new(SimClock::new(false));
        let mem = Arc::new(MemStore::new());
        let remote = RemoteStore::new(
            Arc::clone(&mem) as Arc<dyn UntrustedStore>,
            Duration::from_millis(5),
            Arc::clone(&clock),
        );
        remote
            .write_all_flush(&[(0, b"ab"), (10, b"cd"), (20, b"ef")])
            .unwrap();
        assert_eq!(clock.elapsed(), Duration::from_millis(5));
        // The inner store saw every extent, in order, and one flush.
        let snap = mem.stats().snapshot();
        assert_eq!((snap.writes, snap.flushes), (3, 1));
        assert_eq!(&mem.image()[20..], b"ef");
    }

    #[test]
    fn dropped_connection_applies_no_extent() {
        let clock = Arc::new(SimClock::new(false));
        let mem = Arc::new(MemStore::new());
        let remote = RemoteStore::new(
            Arc::clone(&mem) as Arc<dyn UntrustedStore>,
            Duration::from_millis(1),
            Arc::clone(&clock),
        );
        remote.drop_connections(1);
        let err = remote
            .write_all_flush(&[(0, b"ab"), (10, b"cd")])
            .unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert_eq!(mem.len().unwrap(), 0);
        let snap = mem.stats().snapshot();
        assert_eq!((snap.writes, snap.flushes), (0, 0));
    }

    #[test]
    fn failed_flush_keeps_buffered_writes() {
        let clock = Arc::new(SimClock::new(false));
        let mem = Arc::new(MemStore::new());
        let remote = Arc::new(RemoteStore::new(
            Arc::clone(&mem) as Arc<dyn UntrustedStore>,
            Duration::from_millis(1),
            Arc::clone(&clock),
        ));
        let batching = BatchingStore::new(Arc::clone(&remote) as Arc<dyn UntrustedStore>);
        batching.write_at(0, &[1u8; 8]).unwrap();
        remote.drop_connections(1);
        assert!(batching.flush().is_err());
        // Nothing reached the server, and reads still see the write.
        assert_eq!(mem.len().unwrap(), 0);
        let mut buf = [0u8; 8];
        batching.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 8]);
        // A later write merges with the restored extent; the retry ships
        // both.
        batching.write_at(4, &[2u8; 2]).unwrap();
        batching.flush().unwrap();
        assert_eq!(batching.pending_extents(), 0);
        assert_eq!(mem.image(), [1, 1, 1, 1, 2, 2, 1, 1]);
    }

    /// Fails every flush request, after a write to the batching store above
    /// it has landed while the request was in flight.
    struct WriteDuringFlush(Mutex<std::sync::Weak<BatchingStore>>);

    impl UntrustedStore for WriteDuringFlush {
        fn read_at(&self, _offset: u64, buf: &mut [u8]) -> Result<()> {
            buf.fill(0);
            Ok(())
        }

        fn write_at(&self, _offset: u64, _data: &[u8]) -> Result<()> {
            unreachable!("the batching store sends whole requests")
        }

        fn flush(&self) -> Result<()> {
            unreachable!("the batching store sends whole requests")
        }

        fn write_all_flush(&self, _extents: &[(u64, &[u8])]) -> Result<()> {
            if let Some(above) = self.0.lock().upgrade() {
                above.write_at(2, &[9, 9])?;
            }
            Err(StoreError::InjectedFault {
                what: "request lost",
                transient: true,
            })
        }

        fn len(&self) -> Result<u64> {
            Ok(0)
        }

        fn set_len(&self, _len: u64) -> Result<()> {
            Ok(())
        }

        fn stats(&self) -> Arc<StoreStats> {
            Arc::new(StoreStats::new())
        }
    }

    #[test]
    fn failed_flush_yields_to_a_write_made_during_it() {
        let inner = Arc::new(WriteDuringFlush(Mutex::new(std::sync::Weak::new())));
        let batching = Arc::new(BatchingStore::new(
            Arc::clone(&inner) as Arc<dyn UntrustedStore>
        ));
        *inner.0.lock() = Arc::downgrade(&batching);
        batching.write_at(0, &[1u8; 8]).unwrap();
        assert!(batching.flush().is_err());
        assert_eq!(batching.pending_extents(), 1);
        let mut buf = [0u8; 8];
        batching.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [1, 1, 9, 9, 1, 1, 1, 1]);
    }

    #[test]
    fn retry_over_batching_survives_a_failed_flush() {
        let clock = Arc::new(SimClock::new(false));
        let mem = Arc::new(MemStore::new());
        let remote = Arc::new(RemoteStore::new(
            Arc::clone(&mem) as Arc<dyn UntrustedStore>,
            Duration::from_millis(1),
            Arc::clone(&clock),
        ));
        let store = BatchingStore::new(Arc::clone(&remote) as Arc<dyn UntrustedStore>);
        store.write_at(0, b"acked").unwrap();
        store.write_at(100, b"tail").unwrap();
        remote.drop_connections(2);
        // Two failed requests keep both extents buffered; flushing again
        // ships them.
        assert!(store.flush().unwrap_err().is_transient());
        assert!(store.flush().unwrap_err().is_transient());
        assert_eq!(store.pending_extents(), 2);
        store.flush().unwrap();
        assert_eq!(store.pending_extents(), 0);
        let image = mem.image();
        assert_eq!(&image[..5], b"acked");
        assert_eq!(&image[100..], b"tail");
        assert_eq!(clock.elapsed(), Duration::from_millis(3));
    }

    #[test]
    fn batching_read_your_writes() {
        let batching = BatchingStore::new(Arc::new(MemStore::new()));
        batching.write_at(100, b"buffered tail").unwrap();
        let mut buf = [0u8; 13];
        batching.read_at(100, &mut buf).unwrap();
        assert_eq!(&buf, b"buffered tail");
        assert_eq!(batching.len().unwrap(), 113);
        // Partially buffered read overlays correctly.
        let mut wide = [0xFFu8; 20];
        batching.read_at(95, &mut wide).unwrap();
        assert_eq!(&wide[..5], &[0u8; 5]);
        assert_eq!(&wide[5..18], b"buffered tail");
    }

    #[test]
    fn batching_overlapping_writes_last_wins() {
        let mem = Arc::new(MemStore::new());
        let batching = BatchingStore::new(Arc::clone(&mem) as Arc<dyn UntrustedStore>);
        batching.write_at(0, &[1u8; 8]).unwrap();
        batching.write_at(4, &[2u8; 8]).unwrap();
        batching.write_at(2, &[3u8; 2]).unwrap();
        batching.flush().unwrap();
        let mut buf = [0u8; 12];
        mem.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [1, 1, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2]);
    }

    #[test]
    fn chunk_store_works_over_batching_remote() {
        // Exercises the store contract; the full end-to-end test lives in
        // tests/remote_batching.rs at the workspace root.
        let clock = Arc::new(SimClock::new(false));
        let mem = Arc::new(MemStore::new());
        let remote = Arc::new(RemoteStore::new(
            Arc::clone(&mem) as Arc<dyn UntrustedStore>,
            Duration::from_millis(1),
            Arc::clone(&clock),
        ));
        let _ = clock;
        let batching = Arc::new(BatchingStore::new(remote));
        batching.write_at(0, b"segment").unwrap();
        batching.flush().unwrap();
        let mut buf = [0u8; 7];
        batching.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"segment");
    }
}
