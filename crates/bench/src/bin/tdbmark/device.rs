//! The benchmark's untrusted devices.
//!
//! [`DurableStore`] is the in-memory device every workload runs on. Besides
//! the live bytes it keeps the image a power cut would leave behind: writes
//! reach that image only at `flush`. The durability check reopens the
//! database from it, so an acknowledged write that was never flushed is
//! lost exactly as it would be on a disk with a write-back cache.
//! (`tdb_storage::CrashStore` gives the same guarantee but copies the whole
//! store on every flush — with a 16 MB database that copy, not the commit
//! path, would be what the write workloads measure.)
//!
//! [`TimedStore`] wraps a device in the traced run and clocks every call,
//! which is how `storage.busy_share` and `storage.sleep_overshoot_us` see
//! the time a `RemoteStore` really sleeps rather than the time it asked for.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use tdb_storage::{StoreError, StoreStats, UntrustedStore};

type StoreResult<T> = Result<T, StoreError>;

struct Images {
    live: Vec<u8>,
    durable: Vec<u8>,
    /// Extents written since the last flush.
    dirty: Vec<(usize, usize)>,
}

pub struct DurableStore {
    images: RwLock<Images>,
    stats: Arc<StoreStats>,
}

impl DurableStore {
    pub fn new() -> DurableStore {
        DurableStore {
            images: RwLock::new(Images {
                live: Vec::new(),
                durable: Vec::new(),
                dirty: Vec::new(),
            }),
            stats: Arc::new(StoreStats::new()),
        }
    }

    fn shared(&self) -> std::sync::RwLockReadGuard<'_, Images> {
        self.images
            .read()
            .expect("no device call panics while holding the lock")
    }

    fn exclusive(&self) -> std::sync::RwLockWriteGuard<'_, Images> {
        self.images
            .write()
            .expect("no device call panics while holding the lock")
    }

    /// The bytes that survive a crash now: everything flushed, nothing else.
    pub fn flushed_image(&self) -> Vec<u8> {
        self.shared().durable.clone()
    }
}

impl UntrustedStore for DurableStore {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> StoreResult<()> {
        let start = Instant::now();
        let images = self.shared();
        let from = offset as usize;
        let Some(src) = images.live.get(from..from + buf.len()) else {
            return Err(StoreError::OutOfBounds {
                offset,
                len: buf.len(),
                store_len: images.live.len() as u64,
            });
        };
        buf.copy_from_slice(src);
        drop(images);
        self.stats.record_read(buf.len(), start.elapsed());
        Ok(())
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> StoreResult<()> {
        let start = Instant::now();
        let mut images = self.exclusive();
        let (from, to) = (offset as usize, offset as usize + data.len());
        if to > images.live.len() {
            images.live.resize(to, 0);
        }
        images.live[from..to].copy_from_slice(data);
        images.dirty.push((from, to));
        drop(images);
        self.stats.record_write(data.len(), start.elapsed());
        Ok(())
    }

    fn flush(&self) -> StoreResult<()> {
        let start = Instant::now();
        let mut guard = self.exclusive();
        let images = &mut *guard;
        images.durable.resize(images.live.len(), 0);
        for (from, to) in images.dirty.drain(..) {
            // A later `set_len` may have cut an extent short.
            let to = to.min(images.live.len());
            if from < to {
                images.durable[from..to].copy_from_slice(&images.live[from..to]);
            }
        }
        drop(guard);
        self.stats.record_flush(start.elapsed());
        Ok(())
    }

    fn len(&self) -> StoreResult<u64> {
        Ok(self.shared().live.len() as u64)
    }

    fn set_len(&self, len: u64) -> StoreResult<()> {
        let mut images = self.exclusive();
        let old = images.live.len();
        images.live.resize(len as usize, 0);
        if (len as usize) > old {
            images.dirty.push((old, len as usize));
        }
        Ok(())
    }

    fn stats(&self) -> Arc<StoreStats> {
        Arc::clone(&self.stats)
    }
}

/// Clocks every data call of the wrapped device.
pub struct TimedStore {
    inner: Arc<dyn UntrustedStore>,
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl TimedStore {
    pub fn new(inner: Arc<dyn UntrustedStore>) -> TimedStore {
        TimedStore {
            inner,
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    /// `(calls, nanoseconds inside them)` so far.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.busy_ns.load(Ordering::Relaxed),
        )
    }

    fn timed<T>(&self, f: impl FnOnce() -> StoreResult<T>) -> StoreResult<T> {
        let start = Instant::now();
        let out = f();
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl UntrustedStore for TimedStore {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> StoreResult<()> {
        self.timed(|| self.inner.read_at(offset, buf))
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> StoreResult<()> {
        self.timed(|| self.inner.write_at(offset, data))
    }

    fn flush(&self) -> StoreResult<()> {
        self.timed(|| self.inner.flush())
    }

    fn len(&self) -> StoreResult<u64> {
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> StoreResult<()> {
        self.timed(|| self.inner.set_len(len))
    }

    fn stats(&self) -> Arc<StoreStats> {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unflushed_writes_do_not_reach_the_crash_image() {
        let store = DurableStore::new();
        store.write_at(0, b"aaaa").unwrap();
        store.flush().unwrap();
        store.write_at(2, b"bbbb").unwrap();
        let mut live = [0u8; 6];
        store.read_at(0, &mut live).unwrap();
        assert_eq!(&live, b"aabbbb");
        assert_eq!(store.flushed_image(), b"aaaa");
        store.flush().unwrap();
        assert_eq!(store.flushed_image(), b"aabbbb");
        assert!(store.read_at(4, &mut live).is_err());
    }

    #[test]
    fn timed_store_counts_calls() {
        let timed = TimedStore::new(Arc::new(DurableStore::new()));
        timed.write_at(0, b"x").unwrap();
        timed.flush().unwrap();
        assert_eq!(timed.totals().0, 2);
        assert_eq!(timed.stats().snapshot().writes, 1);
    }
}
