//! The untrusted bulk store (§2.1): persistent, random access, readable and
//! writable by any program.
//!
//! TDB never trusts anything read from here; the chunk store decrypts and
//! validates every byte against the hash-link chain rooted in the trusted
//! store. These implementations therefore make no integrity guarantees —
//! they are plain byte arrays with durability.

use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;

use crate::stats::StoreStats;
use crate::{Result, StoreError};

/// Random-access persistent storage with explicit durability points.
///
/// Implementations use interior mutability so a shared handle
/// (`Arc<dyn UntrustedStore>`) can be used concurrently.
pub trait UntrustedStore: Send + Sync {
    /// Reads exactly `buf.len()` bytes starting at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::OutOfBounds`] when the range extends past the
    /// end of the store.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// Writes `data` at `offset`, extending the store if needed. The write
    /// is durable only after a subsequent [`UntrustedStore::flush`].
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()>;

    /// Makes all preceding writes durable.
    fn flush(&self) -> Result<()>;

    /// Writes each `(offset, data)` extent in order, then makes every
    /// preceding write durable: exactly `write_at` per extent followed by
    /// [`UntrustedStore::flush`], which is what the default does. A store
    /// that can take "write these and sync" as one request (a remote
    /// server, §10) overrides it; the bytes, their order and the
    /// durability point stay the same.
    fn write_all_flush(&self, extents: &[(u64, &[u8])]) -> Result<()> {
        for (offset, data) in extents {
            self.write_at(*offset, data)?;
        }
        self.flush()
    }

    /// Current store length in bytes.
    fn len(&self) -> Result<u64>;

    /// True when the store holds no bytes.
    fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Truncates or extends (zero-filled) the store to `len` bytes.
    fn set_len(&self, len: u64) -> Result<()>;

    /// I/O accounting for this store.
    fn stats(&self) -> Arc<StoreStats>;
}

/// Writes `data` at `offset` into `image`, growing it as a device would.
pub(crate) fn write_into(image: &mut Vec<u8>, offset: u64, data: &[u8]) {
    let end = offset as usize + data.len();
    if end > image.len() {
        image.resize(end, 0);
    }
    image[offset as usize..end].copy_from_slice(data);
}

/// An in-memory untrusted store for tests and benchmarks.
pub struct MemStore {
    data: RwLock<Vec<u8>>,
    stats: Arc<StoreStats>,
}

impl Default for MemStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MemStore {
    /// Creates an empty in-memory store.
    pub fn new() -> Self {
        MemStore {
            data: RwLock::new(Vec::new()),
            stats: Arc::new(StoreStats::new()),
        }
    }

    /// Creates a store pre-filled with `data` (used to reopen "disk images"
    /// captured by the crash-injection tests).
    pub fn from_bytes(data: Vec<u8>) -> Self {
        MemStore {
            data: RwLock::new(data),
            stats: Arc::new(StoreStats::new()),
        }
    }

    /// A copy of the current contents (a simulated disk image).
    pub fn image(&self) -> Vec<u8> {
        self.data.read().clone()
    }

    /// Replaces the contents with `image`.
    pub(crate) fn restore(&self, image: Vec<u8>) {
        *self.data.write() = image;
    }

    /// Flips the bits selected by `mask` at `offset` — the test hook used to
    /// simulate an attacker writing to the untrusted store.
    pub fn tamper(&self, offset: u64, mask: u8) {
        let mut data = self.data.write();
        let i = offset as usize;
        if i < data.len() {
            data[i] ^= mask;
        }
    }
}

impl UntrustedStore for MemStore {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let start = Instant::now();
        let data = self.data.read();
        let end = offset as usize + buf.len();
        if end > data.len() {
            return Err(StoreError::OutOfBounds {
                offset,
                len: buf.len(),
                store_len: data.len() as u64,
            });
        }
        buf.copy_from_slice(&data[offset as usize..end]);
        drop(data);
        self.stats.record_read(buf.len(), start.elapsed());
        Ok(())
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let start = Instant::now();
        write_into(&mut self.data.write(), offset, data);
        self.stats.record_write(data.len(), start.elapsed());
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        let start = Instant::now();
        self.stats.record_flush(start.elapsed());
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        Ok(self.data.read().len() as u64)
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.data.write().resize(len as usize, 0);
        Ok(())
    }

    fn stats(&self) -> Arc<StoreStats> {
        Arc::clone(&self.stats)
    }
}

/// A file-backed untrusted store (the paper used an NTFS file, §9.1).
pub struct FileStore {
    file: File,
    stats: Arc<StoreStats>,
}

impl FileStore {
    /// Opens (or creates) the backing file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(path: &Path) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(FileStore {
            file,
            stats: Arc::new(StoreStats::new()),
        })
    }
}

impl UntrustedStore for FileStore {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        let start = Instant::now();
        let store_len = self.file.metadata()?.len();
        if offset + buf.len() as u64 > store_len {
            return Err(StoreError::OutOfBounds {
                offset,
                len: buf.len(),
                store_len,
            });
        }
        self.file.read_exact_at(buf, offset)?;
        self.stats.record_read(buf.len(), start.elapsed());
        Ok(())
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        let start = Instant::now();
        self.file.write_all_at(data, offset)?;
        self.stats.record_write(data.len(), start.elapsed());
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        let start = Instant::now();
        self.file.sync_data()?;
        self.stats.record_flush(start.elapsed());
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.file.set_len(len)?;
        Ok(())
    }

    fn stats(&self) -> Arc<StoreStats> {
        Arc::clone(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn UntrustedStore) {
        assert_eq!(store.len().unwrap(), 0);
        assert!(store.is_empty().unwrap());
        store.write_at(0, b"hello").unwrap();
        store.write_at(10, b"world").unwrap();
        assert_eq!(store.len().unwrap(), 15);

        let mut buf = [0u8; 5];
        store.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        store.read_at(10, &mut buf).unwrap();
        assert_eq!(&buf, b"world");

        // The gap is zero-filled.
        let mut gap = [9u8; 5];
        store.read_at(5, &mut gap).unwrap();
        assert_eq!(gap, [0u8; 5]);

        // Out-of-bounds read is rejected.
        let mut big = [0u8; 16];
        assert!(matches!(
            store.read_at(0, &mut big),
            Err(StoreError::OutOfBounds { .. })
        ));

        store.flush().unwrap();
        store.set_len(5).unwrap();
        assert_eq!(store.len().unwrap(), 5);

        let snap = store.stats().snapshot();
        assert_eq!(snap.writes, 2);
        assert_eq!(snap.bytes_written, 10);
        assert!(snap.reads >= 3);
        assert_eq!(snap.flushes, 1);
    }

    #[test]
    fn mem_store_semantics() {
        exercise(&MemStore::new());
    }

    #[test]
    fn file_store_semantics() {
        let dir = std::env::temp_dir().join(format!("tdb-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("untrusted.img");
        let _ = std::fs::remove_file(&path);
        exercise(&FileStore::open(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_store_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("tdb-store-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("persist.img");
        let _ = std::fs::remove_file(&path);
        {
            let s = FileStore::open(&path).unwrap();
            s.write_at(0, b"durable").unwrap();
            s.flush().unwrap();
        }
        let s = FileStore::open(&path).unwrap();
        let mut buf = [0u8; 7];
        s.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"durable");
        std::fs::remove_file(&path).unwrap();
    }

    /// Records every call, to pin the default `write_all_flush` sequence.
    #[derive(Default)]
    struct CallLog(parking_lot::Mutex<Vec<String>>);

    impl UntrustedStore for CallLog {
        fn read_at(&self, _offset: u64, _buf: &mut [u8]) -> Result<()> {
            unreachable!("not read")
        }

        fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
            self.0.lock().push(format!("write {offset}+{}", data.len()));
            Ok(())
        }

        fn flush(&self) -> Result<()> {
            self.0.lock().push("flush".into());
            Ok(())
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
    fn default_write_all_flush_writes_in_order_then_flushes_once() {
        let store = CallLog::default();
        store
            .write_all_flush(&[(40, b"ccc"), (0, b"a"), (10, b"bb")])
            .unwrap();
        assert_eq!(
            *store.0.lock(),
            ["write 40+3", "write 0+1", "write 10+2", "flush"]
        );
        // No extents: still exactly one flush.
        let empty = CallLog::default();
        empty.write_all_flush(&[]).unwrap();
        assert_eq!(*empty.0.lock(), ["flush"]);
    }

    #[test]
    fn mem_store_image_and_tamper() {
        let s = MemStore::new();
        s.write_at(0, &[1, 2, 3]).unwrap();
        assert_eq!(s.image(), vec![1, 2, 3]);
        s.tamper(1, 0xFF);
        assert_eq!(s.image(), vec![1, 2 ^ 0xFF, 3]);
        let reopened = MemStore::from_bytes(s.image());
        assert_eq!(reopened.len().unwrap(), 3);
    }
}
