//! The layered-cryptography strawman (§1.2, §9.5).
//!
//! "One might consider building a trusted database system by layering
//! cryptography on top of a conventional database system. This layer could
//! encrypt objects before storing them in the database and maintain a tree
//! of hash values over them. … Unfortunately, the layer would not protect
//! the metadata inside the database system. An attack could effectively
//! delete an object by modifying the indexes."
//!
//! [`SecureXdb`] implements exactly that layer over [`crate::Xdb`]:
//!
//! - record values are encrypted (fresh IV per write) under a secret key;
//! - a Merkle tree over record hashes is maintained *as ordinary database
//!   records* (`h/<level>/<bucket>`), so every update costs extra record
//!   reads and writes up the tree — the architectural overhead Figure 11
//!   measures;
//! - the root hash goes to the tamper-resistant store after each commit.
//!
//! The known, deliberate weakness (the paper's point): XDB's *own* pages —
//! B-tree structure, free lists — are not covered, and deletions of
//! records are only detectable via the hash-tree bookkeeping this layer
//! does itself.

use tdb_crypto::cbc::Cbc;
use tdb_crypto::{CipherKind, HashKind, SecretKey};
use tdb_storage::{SharedTrusted, SharedUntrusted};

use crate::db::{Xdb, XdbConfig, XdbOp};
use crate::{Result, XdbError};

/// Fanout of the layered hash tree.
const HASH_FANOUT: u64 = 64;
/// Levels in the fixed-depth hash tree (64³ = 262k record slots).
const HASH_LEVELS: u32 = 3;

/// Configuration for the secure wrapper.
pub struct SecureXdbConfig {
    /// Record cipher.
    pub cipher: CipherKind,
    /// Record and tree hash.
    pub hash: HashKind,
    /// The secret key (from the platform's secret store).
    pub key: SecretKey,
    /// Underlying XDB configuration.
    pub xdb: XdbConfig,
}

impl SecureXdbConfig {
    /// The paper's configuration: DES + SHA-1 for bulk data.
    pub fn paper_default(key: SecretKey) -> SecureXdbConfig {
        SecureXdbConfig {
            cipher: CipherKind::Des,
            hash: HashKind::Sha1,
            key,
            xdb: XdbConfig::default(),
        }
    }
}

/// A record id in the secure layer: a dense u64 the caller allocates (the
/// benchmark uses object ranks).
pub type RecordId = u64;

/// Cryptography layered on top of a conventional embedded database.
pub struct SecureXdb {
    db: Xdb,
    cbc: Cbc,
    hash: HashKind,
    trusted: SharedTrusted,
}

impl SecureXdb {
    /// Creates a fresh secure database.
    ///
    /// # Errors
    ///
    /// Propagates storage and key errors.
    pub fn create(
        data: SharedUntrusted,
        wal: SharedUntrusted,
        trusted: SharedTrusted,
        config: SecureXdbConfig,
    ) -> Result<SecureXdb> {
        let db = Xdb::create(data, wal, config.xdb)?;
        let cbc = Cbc::new(config.cipher, config.key.as_bytes())?;
        Ok(SecureXdb {
            db,
            cbc,
            hash: config.hash,
            trusted,
        })
    }

    /// Opens an existing secure database (WAL recovery included), then
    /// verifies the stored hash-tree root against the trusted store.
    ///
    /// # Errors
    ///
    /// Signals tamper detection when the root hash does not match.
    pub fn open(
        data: SharedUntrusted,
        wal: SharedUntrusted,
        trusted: SharedTrusted,
        config: SecureXdbConfig,
    ) -> Result<SecureXdb> {
        let db = Xdb::open(data, wal, config.xdb)?;
        let cbc = Cbc::new(config.cipher, config.key.as_bytes())?;
        let secure = SecureXdb {
            db,
            cbc,
            hash: config.hash,
            trusted,
        };
        let stored_root = secure.db.get(&root_key())?.unwrap_or_default();
        let trusted_root = secure.trusted.read().map_err(XdbError::Store)?;
        if stored_root != trusted_root {
            return Err(XdbError::TamperDetected(
                "hash-tree root does not match the tamper-resistant store".into(),
            ));
        }
        Ok(secure)
    }

    fn record_key(id: RecordId) -> Vec<u8> {
        let mut k = b"d/".to_vec();
        k.extend_from_slice(&id.to_be_bytes());
        k
    }

    fn node_key(level: u32, bucket: u64) -> Vec<u8> {
        let mut k = b"h/".to_vec();
        k.push(level as u8);
        k.extend_from_slice(&bucket.to_be_bytes());
        k
    }

    fn leaf_slot(&self, id: RecordId) -> (u64, usize) {
        (id / HASH_FANOUT, (id % HASH_FANOUT) as usize)
    }

    /// Reads and verifies a record.
    ///
    /// # Errors
    ///
    /// Signals tamper detection on hash mismatch or undecryptable data.
    pub fn get(&self, id: RecordId) -> Result<Option<Vec<u8>>> {
        let Some(sealed) = self.db.get(&Self::record_key(id))? else {
            // Absence must be corroborated by the hash tree, otherwise a
            // deleted-record attack would be invisible.
            if self.leaf_hash(id)?.is_some() {
                return Err(XdbError::TamperDetected(format!(
                    "record {id} missing but present in the hash tree"
                )));
            }
            return Ok(None);
        };
        let bs = self.cbc.block_size();
        if sealed.len() < bs {
            return Err(XdbError::TamperDetected(format!("record {id} truncated")));
        }
        let (iv, ct) = sealed.split_at(bs);
        let plain = self
            .cbc
            .decrypt(iv, ct)
            .map_err(|_| XdbError::TamperDetected(format!("record {id} does not decrypt")))?;
        let expected = self.leaf_hash(id)?.ok_or_else(|| {
            XdbError::TamperDetected(format!("record {id} present but absent from hash tree"))
        })?;
        let actual = self.hash.hash(&plain);
        if actual.as_bytes() != expected.as_slice() {
            return Err(XdbError::TamperDetected(format!(
                "record {id} hash mismatch"
            )));
        }
        Ok(Some(plain))
    }

    fn leaf_hash(&self, id: RecordId) -> Result<Option<Vec<u8>>> {
        let (bucket, slot) = self.leaf_slot(id);
        let Some(node) = self.db.get(&Self::node_key(0, bucket))? else {
            return Ok(None);
        };
        let hashes = decode_node(&node, self.hash.digest_len())?;
        Ok(hashes.get(slot).and_then(|h| {
            if h.iter().all(|&b| b == 0) {
                None
            } else {
                Some(h.clone())
            }
        }))
    }

    /// Atomically applies a batch of puts/deletes, maintains the hash
    /// tree, commits, and pushes the new root to the trusted store.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn commit(&self, ops: Vec<(RecordId, Option<Vec<u8>>)>) -> Result<()> {
        let digest_len = self.hash.digest_len();
        let mut db_ops: Vec<XdbOp> = Vec::new();
        // Group leaf-level hash updates per bucket to batch node rewrites.
        let mut touched_buckets: Vec<u64> = Vec::new();
        let mut node_cache: std::collections::HashMap<(u32, u64), Vec<Vec<u8>>> =
            std::collections::HashMap::new();

        for (id, value) in &ops {
            let (bucket, slot) = self.leaf_slot(*id);
            let node = match node_cache.entry((0, bucket)) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    let existing = self.db.get(&Self::node_key(0, bucket))?;
                    let decoded = match existing {
                        Some(bytes) => decode_node(&bytes, digest_len)?,
                        None => vec![vec![0u8; digest_len]; HASH_FANOUT as usize],
                    };
                    e.insert(decoded)
                }
            };
            match value {
                Some(plain) => {
                    node[slot] = self.hash.hash(plain).as_bytes().to_vec();
                    // Encrypt the record.
                    let iv = self.cbc.random_iv();
                    let ct = self.cbc.encrypt(&iv, plain)?;
                    let mut sealed = iv;
                    sealed.extend_from_slice(&ct);
                    db_ops.push(XdbOp::Put {
                        key: Self::record_key(*id),
                        value: sealed,
                    });
                }
                None => {
                    node[slot] = vec![0u8; digest_len];
                    db_ops.push(XdbOp::Delete {
                        key: Self::record_key(*id),
                    });
                }
            }
            if !touched_buckets.contains(&bucket) {
                touched_buckets.push(bucket);
            }
        }

        // Propagate up the fixed-depth tree: level L bucket B hashes into
        // level L+1 bucket B/FANOUT slot B%FANOUT.
        for level in 0..HASH_LEVELS {
            let mut parents: Vec<u64> = Vec::new();
            for &bucket in &touched_buckets {
                let node = node_cache
                    .get(&(level, bucket))
                    .expect("touched nodes are cached")
                    .clone();
                let encoded = encode_node(&node);
                let node_hash = self.hash.hash(&encoded).as_bytes().to_vec();
                db_ops.push(XdbOp::Put {
                    key: Self::node_key(level, bucket),
                    value: encoded,
                });
                let parent_bucket = bucket / HASH_FANOUT;
                let parent_slot = (bucket % HASH_FANOUT) as usize;
                let parent = match node_cache.entry((level + 1, parent_bucket)) {
                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        let existing = self.db.get(&Self::node_key(level + 1, parent_bucket))?;
                        let decoded = match existing {
                            Some(bytes) => decode_node(&bytes, digest_len)?,
                            None => vec![vec![0u8; digest_len]; HASH_FANOUT as usize],
                        };
                        e.insert(decoded)
                    }
                };
                parent[parent_slot] = node_hash;
                if !parents.contains(&parent_bucket) {
                    parents.push(parent_bucket);
                }
            }
            touched_buckets = parents;
        }
        // The single top node is the root.
        debug_assert!(touched_buckets.len() <= 1);
        let mut new_root = None;
        if let Some(&top) = touched_buckets.first() {
            let node = node_cache
                .get(&(HASH_LEVELS, top))
                .expect("top node cached")
                .clone();
            let encoded = encode_node(&node);
            let root_hash = self.hash.hash(&encoded).as_bytes().to_vec();
            db_ops.push(XdbOp::Put {
                key: Self::node_key(HASH_LEVELS, top),
                value: encoded,
            });
            db_ops.push(XdbOp::Put {
                key: root_key(),
                value: root_hash.clone(),
            });
            new_root = Some(root_hash);
        }

        self.db.commit(db_ops)?;
        if let Some(root) = new_root {
            self.trusted.write(&root).map_err(XdbError::Store)?;
        }
        Ok(())
    }

    /// Forces a checkpoint of the underlying database.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn checkpoint(&self) -> Result<()> {
        self.db.checkpoint()
    }

    /// Underlying database statistics.
    pub fn stats(&self) -> crate::db::XdbStats {
        self.db.stats()
    }

    /// Total stored size.
    pub fn stored_size(&self) -> u64 {
        self.db.stored_size()
    }
}

fn root_key() -> Vec<u8> {
    b"h/root".to_vec()
}

fn encode_node(hashes: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(hashes.len() * hashes.first().map_or(0, |h| h.len()));
    for h in hashes {
        out.extend_from_slice(h);
    }
    out
}

fn decode_node(bytes: &[u8], digest_len: usize) -> Result<Vec<Vec<u8>>> {
    if digest_len == 0 || bytes.len() != digest_len * HASH_FANOUT as usize {
        return Err(XdbError::Corrupt("bad hash-tree node size".into()));
    }
    Ok(bytes.chunks_exact(digest_len).map(|c| c.to_vec()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tdb_storage::{MemStore, MemTrustedStore, TrustedStore, UntrustedStore};

    struct Fx {
        data: Arc<MemStore>,
        wal: Arc<MemStore>,
        trusted: Arc<MemTrustedStore>,
        key: SecretKey,
    }

    impl Fx {
        fn new() -> Fx {
            Fx {
                data: Arc::new(MemStore::new()),
                wal: Arc::new(MemStore::new()),
                trusted: Arc::new(MemTrustedStore::new(64)),
                key: SecretKey::random(8),
            }
        }

        fn create(&self) -> SecureXdb {
            SecureXdb::create(
                Arc::clone(&self.data) as SharedUntrusted,
                Arc::clone(&self.wal) as SharedUntrusted,
                Arc::clone(&self.trusted) as SharedTrusted,
                SecureXdbConfig::paper_default(self.key.clone()),
            )
            .unwrap()
        }

        fn open(&self) -> Result<SecureXdb> {
            SecureXdb::open(
                Arc::clone(&self.data) as SharedUntrusted,
                Arc::clone(&self.wal) as SharedUntrusted,
                Arc::clone(&self.trusted) as SharedTrusted,
                SecureXdbConfig::paper_default(self.key.clone()),
            )
        }
    }

    #[test]
    fn put_get_roundtrip() {
        let fx = Fx::new();
        let db = fx.create();
        db.commit(vec![
            (1, Some(b"contract A".to_vec())),
            (2, Some(b"contract B".to_vec())),
        ])
        .unwrap();
        assert_eq!(db.get(1).unwrap(), Some(b"contract A".to_vec()));
        assert_eq!(db.get(2).unwrap(), Some(b"contract B".to_vec()));
        assert_eq!(db.get(3).unwrap(), None);
    }

    #[test]
    fn values_are_encrypted_on_disk() {
        let fx = Fx::new();
        let db = fx.create();
        let secret = b"very secret contract terms";
        db.commit(vec![(1, Some(secret.to_vec()))]).unwrap();
        db.checkpoint().unwrap();
        let image = fx.data.image();
        assert!(
            !image.windows(secret.len()).any(|w| w == secret),
            "plaintext leaked into the data file"
        );
    }

    #[test]
    fn delete_then_absent() {
        let fx = Fx::new();
        let db = fx.create();
        db.commit(vec![(5, Some(b"x".to_vec()))]).unwrap();
        db.commit(vec![(5, None)]).unwrap();
        assert_eq!(db.get(5).unwrap(), None);
    }

    #[test]
    fn persists_across_open() {
        let fx = Fx::new();
        {
            let db = fx.create();
            db.commit(vec![(1, Some(b"durable".to_vec()))]).unwrap();
            db.checkpoint().unwrap();
        }
        let db = fx.open().unwrap();
        assert_eq!(db.get(1).unwrap(), Some(b"durable".to_vec()));
    }

    #[test]
    fn tampered_record_detected() {
        let fx = Fx::new();
        let db = fx.create();
        db.commit(vec![(1, Some(vec![0x5Au8; 200]))]).unwrap();
        db.checkpoint().unwrap();
        drop(db);
        // Flip bytes throughout the data file; reads must never return
        // silently wrong data.
        let len = fx.data.len().unwrap();
        let mut detected = 0;
        for offset in (4096..len).step_by(509) {
            fx.data.tamper(offset, 0x80);
            let db = match fx.open() {
                Ok(db) => db,
                Err(_) => {
                    detected += 1;
                    fx.data.tamper(offset, 0x80);
                    continue;
                }
            };
            match db.get(1) {
                Ok(Some(v)) => assert_eq!(v, vec![0x5Au8; 200]),
                Ok(None) | Err(_) => detected += 1,
            }
            fx.data.tamper(offset, 0x80);
        }
        assert!(detected > 0, "no tampering detected anywhere");
    }

    #[test]
    fn replayed_image_detected_via_trusted_root() {
        let fx = Fx::new();
        let (old_data, old_wal) = {
            let db = fx.create();
            db.commit(vec![(1, Some(b"balance: 100".to_vec()))])
                .unwrap();
            db.checkpoint().unwrap();
            let images = (fx.data.image(), fx.wal.image());
            db.commit(vec![(1, Some(b"balance: 0".to_vec()))]).unwrap();
            db.checkpoint().unwrap();
            images
        };
        // Replay the old database image while the trusted root has moved on.
        let replayed = Fx {
            data: Arc::new(MemStore::from_bytes(old_data)),
            wal: Arc::new(MemStore::from_bytes(old_wal)),
            trusted: Arc::clone(&fx.trusted),
            key: fx.key.clone(),
        };
        let err = replayed.open().map(|_| ()).unwrap_err();
        assert!(matches!(err, XdbError::TamperDetected(_)), "got {err:?}");
    }

    #[test]
    fn missing_record_with_tree_entry_detected() {
        // The deleted-record attack: remove the record but leave the tree.
        // SecureXdb's own bookkeeping catches this one; the *unprotected*
        // surface is XDB's internal metadata, demonstrated in the
        // metadata_attack integration test.
        let fx = Fx::new();
        let db = fx.create();
        db.commit(vec![(1, Some(b"target".to_vec()))]).unwrap();
        // Bypass the secure layer: delete through the raw database.
        db.db
            .commit(vec![XdbOp::Delete {
                key: SecureXdb::record_key(1),
            }])
            .unwrap();
        let err = db.get(1).map(|_| ()).unwrap_err();
        assert!(matches!(err, XdbError::TamperDetected(_)));
    }

    #[test]
    fn trusted_root_updates_every_commit() {
        let fx = Fx::new();
        let db = fx.create();
        let before = fx.trusted.stats().snapshot().writes;
        db.commit(vec![(1, Some(b"a".to_vec()))]).unwrap();
        db.commit(vec![(2, Some(b"b".to_vec()))]).unwrap();
        let after = fx.trusted.stats().snapshot().writes;
        assert!(after >= before + 2);
    }
}
