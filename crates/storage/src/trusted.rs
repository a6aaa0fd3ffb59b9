//! The tamper-resistant store and monotonic counter (§2.1, §4.8.2).
//!
//! The paper requires "a small amount (e.g., 16 bytes) of writable
//! persistent storage that can be written only by a trusted program …
//! updated atomically with respect to crashes", or alternatively a counter
//! that cannot be decremented. Direct hash validation stores the chained
//! residual-log hash (plus the log-tail location) here; counter-based
//! validation stores only the commit count.
//!
//! On a real platform this is battery-backed SRAM inside a secure
//! coprocessor or an EEPROM counter in a smartcard chip. Here it is modeled
//! by [`MemTrustedStore`] (tests) and [`FileTrustedStore`] (a two-slot,
//! sequence-numbered, checksummed file that survives crashes mid-write —
//! the paper emulated it with a file on a second disk, §9.1).

use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::stats::StoreStats;
use crate::{Result, StoreError};

/// A tiny, atomically updatable, tamper-resistant register.
pub trait TrustedStore: Send + Sync {
    /// Maximum number of bytes one record may hold.
    fn capacity(&self) -> usize;

    /// Reads the last atomically written record (empty if never written).
    fn read(&self) -> Result<Vec<u8>>;

    /// Atomically replaces the record with `data`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::CapacityExceeded`] when `data` is larger than
    /// [`TrustedStore::capacity`].
    fn write(&self, data: &[u8]) -> Result<()>;

    /// I/O accounting for this store.
    fn stats(&self) -> Arc<StoreStats>;
}

/// Default register capacity: enough for a 32-byte hash plus a 8-byte tail
/// location plus framing. The paper's "e.g., 16 bytes" assumed SHA-1
/// truncation; we keep full digests.
pub const DEFAULT_TRUSTED_CAPACITY: usize = 64;

/// An in-memory trusted store.
pub struct MemTrustedStore {
    capacity: usize,
    value: Mutex<Vec<u8>>,
    stats: Arc<StoreStats>,
}

impl MemTrustedStore {
    /// Creates an empty register of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        MemTrustedStore {
            capacity,
            value: Mutex::new(Vec::new()),
            stats: Arc::new(StoreStats::new()),
        }
    }

    /// Copies the current value out (for crash-simulation snapshots).
    pub fn image(&self) -> Vec<u8> {
        self.value.lock().clone()
    }

    /// Restores a previously captured value (crash-simulation).
    pub fn restore(&self, image: Vec<u8>) {
        *self.value.lock() = image;
    }
}

impl Default for MemTrustedStore {
    /// An empty register of the default capacity.
    fn default() -> Self {
        Self::new(DEFAULT_TRUSTED_CAPACITY)
    }
}

impl TrustedStore for MemTrustedStore {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn read(&self) -> Result<Vec<u8>> {
        let start = Instant::now();
        let v = self.value.lock().clone();
        self.stats.record_read(v.len(), start.elapsed());
        Ok(v)
    }

    fn write(&self, data: &[u8]) -> Result<()> {
        if data.len() > self.capacity {
            return Err(StoreError::CapacityExceeded {
                capacity: self.capacity,
                got: data.len(),
            });
        }
        let start = Instant::now();
        *self.value.lock() = data.to_vec();
        self.stats.record_write(data.len(), start.elapsed());
        self.stats.record_flush(std::time::Duration::ZERO);
        Ok(())
    }

    fn stats(&self) -> Arc<StoreStats> {
        Arc::clone(&self.stats)
    }
}

/// Magic marker for trusted-store slots.
const SLOT_MAGIC: u32 = 0x7D81_AA01;

/// A crash-atomic file-backed trusted store.
///
/// The file holds two fixed-size slots. A write goes to the slot *not*
/// holding the current record, with a sequence number and checksum, then the
/// file is synced. A crash mid-write leaves the previous slot intact;
/// [`TrustedStore::read`] picks the valid slot with the highest sequence
/// number. This realizes the paper's assumption that "the tamper-resistant
/// store can be updated atomically with respect to crashes" (§2.1).
pub struct FileTrustedStore {
    inner: Mutex<FileTrustedInner>,
    capacity: usize,
    stats: Arc<StoreStats>,
}

struct FileTrustedInner {
    file: File,
    seq: u64,
}

impl FileTrustedStore {
    /// Opens (or creates) the two-slot register at `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(path: &Path, capacity: usize) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let slot_size = Self::slot_size(capacity);
        file.set_len(2 * slot_size as u64)?;
        let store = FileTrustedStore {
            inner: Mutex::new(FileTrustedInner { file, seq: 0 }),
            capacity,
            stats: Arc::new(StoreStats::new()),
        };
        // Prime the sequence number from whatever is on disk.
        let (_, seq) = store.read_slots()?;
        store.inner.lock().seq = seq;
        Ok(store)
    }

    fn slot_size(capacity: usize) -> usize {
        // magic (4) + seq (8) + len (4) + data (capacity) + crc-ish sum (8).
        4 + 8 + 4 + capacity + 8
    }

    /// A weak integrity sum for torn-write detection only. Tamper detection
    /// is not this layer's job: the register is *assumed* tamper-resistant.
    fn sum(bytes: &[u8]) -> u64 {
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            acc ^= u64::from(b);
            acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
        }
        acc
    }

    fn encode_slot(&self, seq: u64, data: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(Self::slot_size(self.capacity));
        buf.extend_from_slice(&SLOT_MAGIC.to_le_bytes());
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.extend_from_slice(&(data.len() as u32).to_le_bytes());
        buf.extend_from_slice(data);
        buf.resize(4 + 8 + 4 + self.capacity, 0);
        let sum = Self::sum(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    fn decode_slot(&self, buf: &[u8]) -> Option<(u64, Vec<u8>)> {
        let body_len = 4 + 8 + 4 + self.capacity;
        if buf.len() != body_len + 8 {
            return None;
        }
        let magic = u32::from_le_bytes(buf[0..4].try_into().ok()?);
        if magic != SLOT_MAGIC {
            return None;
        }
        let stored_sum = u64::from_le_bytes(buf[body_len..].try_into().ok()?);
        if Self::sum(&buf[..body_len]) != stored_sum {
            return None;
        }
        let seq = u64::from_le_bytes(buf[4..12].try_into().ok()?);
        let len = u32::from_le_bytes(buf[12..16].try_into().ok()?) as usize;
        if len > self.capacity {
            return None;
        }
        Some((seq, buf[16..16 + len].to_vec()))
    }

    /// Reads both slots, returning the newest valid record and its sequence.
    fn read_slots(&self) -> Result<(Vec<u8>, u64)> {
        use std::os::unix::fs::FileExt;
        let slot_size = Self::slot_size(self.capacity);
        let inner = self.inner.lock();
        let mut best: Option<(u64, Vec<u8>)> = None;
        for i in 0..2u64 {
            let mut buf = vec![0u8; slot_size];
            if inner
                .file
                .read_exact_at(&mut buf, i * slot_size as u64)
                .is_err()
            {
                continue;
            }
            if let Some((seq, data)) = self.decode_slot(&buf) {
                if best.as_ref().is_none_or(|(s, _)| seq > *s) {
                    best = Some((seq, data));
                }
            }
        }
        match best {
            Some((seq, data)) => Ok((data, seq)),
            None => Ok((Vec::new(), 0)),
        }
    }
}

impl TrustedStore for FileTrustedStore {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn read(&self) -> Result<Vec<u8>> {
        let start = Instant::now();
        let (data, _) = self.read_slots()?;
        self.stats.record_read(data.len(), start.elapsed());
        Ok(data)
    }

    fn write(&self, data: &[u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        if data.len() > self.capacity {
            return Err(StoreError::CapacityExceeded {
                capacity: self.capacity,
                got: data.len(),
            });
        }
        let start = Instant::now();
        let mut inner = self.inner.lock();
        let seq = inner.seq + 1;
        let slot = self.encode_slot(seq, data);
        // Alternate slots so the previous record survives a torn write.
        let offset = (seq % 2) * Self::slot_size(self.capacity) as u64;
        inner.file.write_all_at(&slot, offset)?;
        inner.file.sync_data()?;
        inner.seq = seq;
        drop(inner);
        self.stats.record_write(data.len(), start.elapsed());
        self.stats.record_flush(std::time::Duration::ZERO);
        Ok(())
    }

    fn stats(&self) -> Arc<StoreStats> {
        Arc::clone(&self.stats)
    }
}

/// A persistent counter that can never move backwards (§4.8.2.2).
///
/// "Provided the counter cannot be decremented by *any* program, it does not
/// need additional protection against untrusted programs."
pub trait MonotonicCounter: Send + Sync {
    /// Current counter value (0 if never set).
    fn get(&self) -> Result<u64>;

    /// Advances the counter to `value`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotMonotonic`] if `value` is less than the
    /// current value. Equal values are idempotent no-ops.
    fn advance_to(&self, value: u64) -> Result<()>;

    /// I/O accounting.
    fn stats(&self) -> Arc<StoreStats>;
}

/// A [`MonotonicCounter`] layered over any [`TrustedStore`] register.
pub struct CounterOverTrusted {
    store: Arc<dyn TrustedStore>,
    /// Cache of the last known value, to enforce monotonicity cheaply.
    cached: Mutex<Option<u64>>,
}

impl CounterOverTrusted {
    /// Wraps a trusted register as a counter.
    pub fn new(store: Arc<dyn TrustedStore>) -> Self {
        CounterOverTrusted {
            store,
            cached: Mutex::new(None),
        }
    }

    fn load(&self) -> Result<u64> {
        let bytes = self.store.read()?;
        if bytes.is_empty() {
            return Ok(0);
        }
        let arr: [u8; 8] = bytes
            .as_slice()
            .try_into()
            .map_err(|_| StoreError::Corrupt("counter record is not 8 bytes".into()))?;
        Ok(u64::from_le_bytes(arr))
    }
}

impl MonotonicCounter for CounterOverTrusted {
    fn get(&self) -> Result<u64> {
        let mut cached = self.cached.lock();
        if let Some(v) = *cached {
            return Ok(v);
        }
        let v = self.load()?;
        *cached = Some(v);
        Ok(v)
    }

    fn advance_to(&self, value: u64) -> Result<()> {
        let mut cached = self.cached.lock();
        let current = match *cached {
            Some(v) => v,
            None => self.load()?,
        };
        if value < current {
            return Err(StoreError::NotMonotonic {
                current,
                attempted: value,
            });
        }
        if value > current {
            self.store.write(&value.to_le_bytes())?;
        }
        *cached = Some(value);
        Ok(())
    }

    fn stats(&self) -> Arc<StoreStats> {
        self.store.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_trusted_roundtrip_and_capacity() {
        let s = MemTrustedStore::new(16);
        assert_eq!(s.read().unwrap(), Vec::<u8>::new());
        s.write(b"0123456789abcdef").unwrap();
        assert_eq!(s.read().unwrap(), b"0123456789abcdef");
        assert!(matches!(
            s.write(b"0123456789abcdefX"),
            Err(StoreError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn file_trusted_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("tdb-trusted-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reg.bin");
        let _ = std::fs::remove_file(&path);
        {
            let s = FileTrustedStore::open(&path, 32).unwrap();
            assert!(s.read().unwrap().is_empty());
            s.write(b"first").unwrap();
            s.write(b"second").unwrap();
            assert_eq!(s.read().unwrap(), b"second");
        }
        let s = FileTrustedStore::open(&path, 32).unwrap();
        assert_eq!(s.read().unwrap(), b"second");
        // Sequence numbers keep rising across reopen: a new write is newest.
        s.write(b"third").unwrap();
        assert_eq!(s.read().unwrap(), b"third");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_trusted_survives_torn_slot() {
        let dir = std::env::temp_dir().join(format!("tdb-trusted2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.bin");
        let _ = std::fs::remove_file(&path);
        let s = FileTrustedStore::open(&path, 16).unwrap();
        s.write(b"stable").unwrap();
        // Corrupt the *other* slot (where the next write would land),
        // simulating a torn write of a subsequent update.
        {
            use std::os::unix::fs::FileExt;
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            let slot = FileTrustedStore::slot_size(16) as u64;
            f.write_all_at(&[0xFFu8; 8], slot * ((s.inner.lock().seq + 1) % 2))
                .unwrap();
        }
        drop(s);
        let s = FileTrustedStore::open(&path, 16).unwrap();
        assert_eq!(s.read().unwrap(), b"stable");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn counter_monotonicity() {
        let c = CounterOverTrusted::new(Arc::new(MemTrustedStore::new(8)));
        assert_eq!(c.get().unwrap(), 0);
        c.advance_to(5).unwrap();
        assert_eq!(c.get().unwrap(), 5);
        c.advance_to(5).unwrap(); // Idempotent.
        assert!(matches!(
            c.advance_to(4),
            Err(StoreError::NotMonotonic {
                current: 5,
                attempted: 4
            })
        ));
        c.advance_to(100).unwrap();
        assert_eq!(c.get().unwrap(), 100);
    }

    #[test]
    fn counter_persists_through_backing_store() {
        let reg = Arc::new(MemTrustedStore::new(8));
        {
            let c = CounterOverTrusted::new(Arc::clone(&reg) as Arc<dyn TrustedStore>);
            c.advance_to(42).unwrap();
        }
        let c = CounterOverTrusted::new(reg as Arc<dyn TrustedStore>);
        assert_eq!(c.get().unwrap(), 42);
    }

    #[test]
    fn mem_trusted_image_restore() {
        let s = MemTrustedStore::new(8);
        s.write(b"before").unwrap();
        let img = s.image();
        s.write(b"after").unwrap();
        s.restore(img);
        assert_eq!(s.read().unwrap(), b"before");
    }
}
