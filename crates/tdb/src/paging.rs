//! Trusted paging (paper §10).
//!
//! "The current design assumes that the entire runtime, volatile state of a
//! trusted program is protected by the trusted processing environment. …
//! some volatile state may have to be paged out to untrusted storage. This
//! problem may be solved by using a page fault handler to store encrypted
//! and validated pages in the chunk store."
//!
//! A library cannot hook page faults portably, so [`TrustedPager`] provides
//! the mechanism as an explicit API: a trusted program pages volatile state
//! out to (and back in from) a dedicated chunk-store partition, gaining the
//! same secrecy and tamper detection as persistent data. Pages are
//! *volatile*: they are meaningless to any later session, and
//! [`TrustedPager::close`] reclaims the partition.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use tdb_core::store::{ChunkStore, CommitOp};
use tdb_core::{ChunkId, CoreError, CryptoParams, PartitionId};

use crate::Result;

/// An encrypted, validated swap area for a trusted program's volatile state.
pub struct TrustedPager {
    chunks: Arc<ChunkStore>,
    partition: PartitionId,
    /// Paged-out keys and their backing chunks.
    pages: Mutex<HashMap<u64, ChunkId>>,
    closed: std::sync::atomic::AtomicBool,
}

impl TrustedPager {
    /// Creates a pager with its own partition using `params` (volatile
    /// state often warrants a fast cipher and may skip validation — the
    /// per-partition parameters of §2.2 make that a local choice).
    ///
    /// # Errors
    ///
    /// Propagates chunk-store failures.
    pub fn new(chunks: Arc<ChunkStore>, params: CryptoParams) -> Result<TrustedPager> {
        let partition = chunks.allocate_partition()?;
        chunks.commit(vec![CommitOp::CreatePartition {
            id: partition,
            params,
        }])?;
        Ok(TrustedPager {
            chunks,
            partition,
            pages: Mutex::new(HashMap::new()),
            closed: std::sync::atomic::AtomicBool::new(false),
        })
    }

    fn check_open(&self) -> Result<()> {
        if self.closed.load(std::sync::atomic::Ordering::SeqCst) {
            return Err(CoreError::Corrupt("pager closed".into()).into());
        }
        Ok(())
    }

    /// Pages `bytes` out under `key`, replacing any previous page.
    ///
    /// # Errors
    ///
    /// Propagates chunk-store failures.
    pub fn page_out(&self, key: u64, bytes: &[u8]) -> Result<()> {
        self.check_open()?;
        let id = {
            let mut pages = self.pages.lock();
            match pages.get(&key) {
                Some(id) => *id,
                None => {
                    let id = self.chunks.allocate_chunk(self.partition)?;
                    pages.insert(key, id);
                    id
                }
            }
        };
        self.chunks
            .commit(vec![CommitOp::WriteChunk {
                id,
                bytes: bytes.to_vec(),
            }])
            .map_err(Into::into)
    }

    /// Pages `key` back in, decrypted and validated.
    ///
    /// # Errors
    ///
    /// Fails if the key was never paged out, or signals tamper detection if
    /// the untrusted bytes were modified.
    pub fn page_in(&self, key: u64) -> Result<Vec<u8>> {
        self.check_open()?;
        let id = *self
            .pages
            .lock()
            .get(&key)
            .ok_or_else(|| CoreError::Corrupt(format!("page {key} was never paged out")))?;
        self.chunks.read(id).map_err(Into::into)
    }

    /// Drops a page (its chunk is deallocated).
    ///
    /// # Errors
    ///
    /// Propagates chunk-store failures; unknown keys are a no-op.
    pub fn discard(&self, key: u64) -> Result<()> {
        self.check_open()?;
        let id = self.pages.lock().remove(&key);
        if let Some(id) = id {
            // The page may be allocated but never written (page_out failed
            // mid-way); dealloc handles both.
            self.chunks.commit(vec![CommitOp::DeallocChunk { id }])?;
        }
        Ok(())
    }

    /// Number of pages currently paged out.
    pub fn len(&self) -> usize {
        self.pages.lock().len()
    }

    /// True when nothing is paged out.
    pub fn is_empty(&self) -> bool {
        self.pages.lock().is_empty()
    }

    /// Reclaims the swap partition. Further use fails.
    ///
    /// # Errors
    ///
    /// Propagates chunk-store failures.
    pub fn close(&self) -> Result<()> {
        self.check_open()?;
        self.closed.store(true, std::sync::atomic::Ordering::SeqCst);
        self.pages.lock().clear();
        self.chunks
            .commit(vec![CommitOp::DeallocPartition { id: self.partition }])
            .map_err(Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_core::store::{ChunkStoreConfig, TrustedBackend};
    use tdb_crypto::{CipherKind, HashKind, SecretKey};
    use tdb_storage::{CounterOverTrusted, MemStore, MemTrustedStore};

    fn chunks() -> Arc<ChunkStore> {
        Arc::new(
            ChunkStore::create(
                Arc::new(MemStore::new()),
                TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(Arc::new(
                    MemTrustedStore::new(64),
                )))),
                SecretKey::random(24),
                ChunkStoreConfig::default(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn page_out_in_roundtrip() {
        let pager = TrustedPager::new(
            chunks(),
            CryptoParams::generate(CipherKind::Aes128, HashKind::Sha256),
        )
        .unwrap();
        pager
            .page_out(1, b"register file of the trusted interpreter")
            .unwrap();
        pager.page_out(2, &vec![0x5A; 4096]).unwrap();
        assert_eq!(pager.len(), 2);
        assert_eq!(
            pager.page_in(1).unwrap(),
            b"register file of the trusted interpreter"
        );
        assert_eq!(pager.page_in(2).unwrap(), vec![0x5A; 4096]);
        // Overwrite.
        pager.page_out(1, b"updated").unwrap();
        assert_eq!(pager.page_in(1).unwrap(), b"updated");
    }

    #[test]
    fn discard_and_missing_pages() {
        let pager = TrustedPager::new(chunks(), CryptoParams::paper_default()).unwrap();
        pager.page_out(9, b"spill").unwrap();
        pager.discard(9).unwrap();
        assert!(pager.is_empty());
        assert!(pager.page_in(9).is_err());
        pager.discard(123).unwrap(); // Unknown key: no-op.
    }

    #[test]
    fn close_reclaims_partition() {
        let store = chunks();
        let pager = TrustedPager::new(Arc::clone(&store), CryptoParams::paper_default()).unwrap();
        pager.page_out(1, b"x").unwrap();
        pager.close().unwrap();
        assert!(pager.page_out(1, b"y").is_err());
        assert!(pager.page_in(1).is_err());
    }

    #[test]
    fn paged_state_is_encrypted() {
        let untrusted = Arc::new(MemStore::new());
        let store = Arc::new(
            ChunkStore::create(
                Arc::clone(&untrusted) as tdb_storage::SharedUntrusted,
                TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(Arc::new(
                    MemTrustedStore::new(64),
                )))),
                SecretKey::random(24),
                ChunkStoreConfig::default(),
            )
            .unwrap(),
        );
        let pager = TrustedPager::new(store, CryptoParams::paper_default()).unwrap();
        let secret = b"volatile secrets: session keys, usage counters";
        pager.page_out(1, secret).unwrap();
        let image = untrusted.image();
        assert!(!image.windows(secret.len()).any(|w| w == secret));
    }
}
