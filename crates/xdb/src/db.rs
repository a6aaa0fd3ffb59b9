//! The XDB embedded key-value database API.
//!
//! Commit protocol (the conventional architecture TDB is compared against):
//! apply the batch to the B-tree in the buffer cache, write full images of
//! every dirtied page (plus the meta page) to the WAL, flush the WAL, and
//! lazily write pages back to the data file — forced out at checkpoints,
//! which the engine takes every `checkpoint_every` commits. Recovery
//! replays the WAL onto the data file.
//!
//! This is why "XDB performs multiple disk writes at commit" (§9.5.2): each
//! commit writes whole dirty pages to the log even for a few-byte logical
//! change, and periodically pays a full page write-back storm.

use parking_lot::Mutex;
use tdb_storage::SharedUntrusted;

use crate::btree::BTree;
use crate::pager::Pager;
use crate::wal::Wal;
use crate::Result;

/// One operation of an atomic batch.
#[derive(Debug, Clone)]
pub enum XdbOp {
    /// Insert or replace.
    Put {
        /// Record key.
        key: Vec<u8>,
        /// Record value.
        value: Vec<u8>,
    },
    /// Remove.
    Delete {
        /// Record key.
        key: Vec<u8>,
    },
}

/// XDB configuration.
#[derive(Debug, Clone)]
pub struct XdbConfig {
    /// Buffer-cache capacity in pages.
    pub cache_pages: usize,
    /// Checkpoint (page write-back + WAL reset) every this many commits.
    pub checkpoint_every: u64,
}

impl Default for XdbConfig {
    fn default() -> Self {
        XdbConfig {
            cache_pages: 1024,
            checkpoint_every: 64,
        }
    }
}

struct XdbInner {
    pager: Pager,
    wal: Wal,
    config: XdbConfig,
    commits_since_checkpoint: u64,
    stats: XdbStats,
}

/// Aggregate counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct XdbStats {
    /// Commits performed.
    pub commits: u64,
    /// Checkpoints performed.
    pub checkpoints: u64,
    /// Pages written to the WAL.
    pub pages_logged: u64,
}

/// The embedded database: a B-tree over pages with WAL durability.
pub struct Xdb {
    inner: Mutex<XdbInner>,
}

impl Xdb {
    /// Formats a fresh database over a data store and a WAL store.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn create(data: SharedUntrusted, wal: SharedUntrusted, config: XdbConfig) -> Result<Xdb> {
        let pager = Pager::create(data, config.cache_pages)?;
        let wal = Wal::create(wal)?;
        Ok(Xdb {
            inner: Mutex::new(XdbInner {
                pager,
                wal,
                config,
                commits_since_checkpoint: 0,
                stats: XdbStats::default(),
            }),
        })
    }

    /// Opens an existing database, replaying the WAL (crash recovery).
    ///
    /// # Errors
    ///
    /// Propagates storage failures and corruption.
    pub fn open(data: SharedUntrusted, wal: SharedUntrusted, config: XdbConfig) -> Result<Xdb> {
        let mut pager = Pager::open(data, config.cache_pages)?;
        let mut wal = Wal::open(wal)?;
        wal.replay(|page_no, image| pager.apply_redo(page_no, image))?;
        pager.flush_store()?;
        pager.invalidate_cache();
        // Reload the meta page after redo.
        let meta_page = pager.read(crate::pager::META_PAGE)?.to_vec();
        let _ = meta_page;
        Ok(Xdb {
            inner: Mutex::new(XdbInner {
                pager,
                wal,
                config,
                commits_since_checkpoint: 0,
                stats: XdbStats::default(),
            }),
        })
    }

    /// Point lookup.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut inner = self.inner.lock();
        BTree::get(&mut inner.pager, key)
    }

    /// Ordered range scan: `lo ≤ key < hi`.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn range(&self, lo: Option<&[u8]>, hi: Option<&[u8]>) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut inner = self.inner.lock();
        BTree::range(&mut inner.pager, lo, hi)
    }

    /// Atomically applies a batch and makes it durable (WAL flush).
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn commit(&self, ops: Vec<XdbOp>) -> Result<()> {
        let mut inner = self.inner.lock();
        for op in ops {
            match op {
                XdbOp::Put { key, value } => {
                    BTree::put(&mut inner.pager, &key, &value)?;
                }
                XdbOp::Delete { key } => {
                    BTree::delete(&mut inner.pager, &key)?;
                }
            }
        }
        inner.pager.meta.commit_seq += 1;
        let seq = inner.pager.meta.commit_seq;
        // Log full images of every dirtied page, plus the meta page.
        let dirty = inner.pager.dirty_pages();
        for (page_no, image) in &dirty {
            inner.wal.log_page(*page_no, image)?;
        }
        let meta_image = inner.pager.meta_image();
        inner.wal.log_page(crate::pager::META_PAGE, &meta_image)?;
        inner.stats.pages_logged += dirty.len() as u64 + 1;
        inner.wal.commit(seq)?;
        inner.stats.commits += 1;
        inner.commits_since_checkpoint += 1;
        if inner.commits_since_checkpoint >= inner.config.checkpoint_every {
            Self::checkpoint_locked(&mut inner)?;
        }
        Ok(())
    }

    /// Forces a checkpoint: dirty pages to the data file, WAL reset.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn checkpoint(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        Self::checkpoint_locked(&mut inner)
    }

    fn checkpoint_locked(inner: &mut XdbInner) -> Result<()> {
        inner.pager.flush_dirty()?;
        inner.pager.flush_store()?;
        inner.wal.reset()?;
        inner.commits_since_checkpoint = 0;
        inner.stats.checkpoints += 1;
        Ok(())
    }

    /// Aggregate counters.
    pub fn stats(&self) -> XdbStats {
        self.inner.lock().stats
    }

    /// Total stored size (data pages + live WAL), for space comparisons.
    pub fn stored_size(&self) -> u64 {
        let inner = self.inner.lock();
        u64::from(inner.pager.meta.n_pages) * crate::pager::PAGE_SIZE as u64 + inner.wal.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tdb_storage::{MemStore, SimDevice};

    fn mem() -> SharedUntrusted {
        Arc::new(MemStore::new())
    }

    fn put(key: &str, value: &str) -> XdbOp {
        XdbOp::Put {
            key: key.into(),
            value: value.into(),
        }
    }

    #[test]
    fn basic_crud_and_batch_atomicity() {
        let db = Xdb::create(mem(), mem(), XdbConfig::default()).unwrap();
        db.commit(vec![put("a", "1"), put("b", "2")]).unwrap();
        assert_eq!(db.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(b"b").unwrap(), Some(b"2".to_vec()));
        db.commit(vec![XdbOp::Delete { key: b"a".to_vec() }, put("c", "3")])
            .unwrap();
        assert_eq!(db.get(b"a").unwrap(), None);
        assert_eq!(db.get(b"c").unwrap(), Some(b"3".to_vec()));
    }

    #[test]
    fn survives_reopen_after_checkpoint() {
        let data = mem();
        let wal = mem();
        {
            let db =
                Xdb::create(Arc::clone(&data), Arc::clone(&wal), XdbConfig::default()).unwrap();
            for i in 0..200u32 {
                db.commit(vec![put(&format!("k{i}"), &format!("v{i}"))])
                    .unwrap();
            }
            db.checkpoint().unwrap();
        }
        let db = Xdb::open(data, wal, XdbConfig::default()).unwrap();
        for i in (0..200u32).step_by(13) {
            assert_eq!(
                db.get(format!("k{i}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes())
            );
        }
    }

    #[test]
    fn wal_recovery_without_checkpoint() {
        let data = mem();
        let wal = mem();
        {
            let db = Xdb::create(
                Arc::clone(&data),
                Arc::clone(&wal),
                XdbConfig {
                    checkpoint_every: 10_000,
                    ..XdbConfig::default()
                },
            )
            .unwrap();
            for i in 0..50u32 {
                db.commit(vec![put(&format!("k{i}"), "v")]).unwrap();
            }
            // No checkpoint: data pages were never forced.
        }
        let db = Xdb::open(data, wal, XdbConfig::default()).unwrap();
        for i in 0..50u32 {
            assert!(
                db.get(format!("k{i}").as_bytes()).unwrap().is_some(),
                "k{i}"
            );
        }
    }

    #[test]
    fn crash_loses_only_unflushed_tail() {
        let data = Arc::new(MemStore::new());
        let wal_crash = SimDevice::new();
        let db = Xdb::create(
            Arc::clone(&data) as SharedUntrusted,
            Arc::clone(&wal_crash) as SharedUntrusted,
            XdbConfig {
                checkpoint_every: 10_000,
                ..XdbConfig::default()
            },
        )
        .unwrap();
        db.commit(vec![put("durable", "yes")]).unwrap();
        // The WAL flushes on every commit, so everything committed is
        // durable; crash and reopen from the captured images.
        let wal_image = wal_crash.crash_keep_all().image;
        let data_image = data.image();
        let db = Xdb::open(
            Arc::new(MemStore::from_bytes(data_image)) as SharedUntrusted,
            Arc::new(MemStore::from_bytes(wal_image)) as SharedUntrusted,
            XdbConfig::default(),
        )
        .unwrap();
        assert_eq!(db.get(b"durable").unwrap(), Some(b"yes".to_vec()));
    }

    #[test]
    fn range_scan_ordered() {
        let db = Xdb::create(mem(), mem(), XdbConfig::default()).unwrap();
        let ops: Vec<XdbOp> = (0..100u32)
            .map(|i| put(&format!("k{:03}", 99 - i), "v"))
            .collect();
        db.commit(ops).unwrap();
        let hits = db.range(Some(b"k010"), Some(b"k015")).unwrap();
        assert_eq!(hits.len(), 5);
        assert!(hits.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn stats_count_commit_cost() {
        let db = Xdb::create(mem(), mem(), XdbConfig::default()).unwrap();
        db.commit(vec![put("a", "1")]).unwrap();
        let stats = db.stats();
        assert_eq!(stats.commits, 1);
        // At least the root page and the meta page were logged.
        assert!(
            stats.pages_logged >= 2,
            "pages logged: {}",
            stats.pages_logged
        );
    }
}
