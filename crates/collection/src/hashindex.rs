//! An unsorted (hash) index represented as objects (§8: "indexes may be
//! unsorted or sorted").
//!
//! A fixed directory of bucket objects; each bucket holds `(key, rank)`
//! entries. Exact-match only — range iterators need the sorted
//! [`crate::btree`] index.

use std::any::Any;
use std::sync::Arc;

use tdb_core::codec::{Dec, Enc};
use tdb_core::PartitionId;
use tdb_object::errors::Result;
use tdb_object::pickle::{StoredObject, TypeRegistry};
use tdb_object::{ObjectId, Tx};

use crate::btree::{get_entry, put_entry, Entry, ENTRY_MIN_LEN};
use crate::unpickle_with;

/// Reserved type tag for hash-index directory objects.
pub(crate) const HASH_DIR_TAG: u32 = 0xF000_0003;
/// Reserved type tag for hash-bucket objects.
pub(crate) const HASH_BUCKET_TAG: u32 = 0xF000_0004;

/// Buckets per index. Fixed at creation; adequate for the low-thousands of
/// entries a TDB collection index typically carries.
const BUCKETS: usize = 64;

/// The directory object: bucket ranks (0 = bucket not yet materialized).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HashDir {
    pub buckets: Vec<u64>,
}

impl StoredObject for HashDir {
    fn type_tag(&self) -> u32 {
        HASH_DIR_TAG
    }
    fn pickle(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(4 + self.buckets.len() * 8);
        e.list(&self.buckets, |e, b| {
            e.u64(*b);
        });
        e.finish()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn unpickle_dir(body: &[u8]) -> Result<Arc<dyn StoredObject>> {
    unpickle_with(body, "hash dir", |d| {
        Ok(HashDir {
            buckets: d.list(8, Dec::u64)?,
        })
    })
}

/// One bucket object.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct HashBucket {
    pub entries: Vec<Entry>,
}

impl StoredObject for HashBucket {
    fn type_tag(&self) -> u32 {
        HASH_BUCKET_TAG
    }
    fn pickle(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.list(&self.entries, put_entry);
        e.finish()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn unpickle_bucket(body: &[u8]) -> Result<Arc<dyn StoredObject>> {
    unpickle_with(body, "hash bucket", |d| {
        Ok(HashBucket {
            entries: d.list(ENTRY_MIN_LEN, get_entry)?,
        })
    })
}

/// Registers hash-index object types.
pub fn register_types(registry: &mut TypeRegistry) {
    registry.register(HASH_DIR_TAG, unpickle_dir);
    registry.register(HASH_BUCKET_TAG, unpickle_bucket);
}

/// FNV-1a, adequate for bucket spreading (integrity is the chunk store's
/// job, not the index's).
fn bucket_of(key: &[u8]) -> usize {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (acc % BUCKETS as u64) as usize
}

/// A handle over one persistent hash index.
pub(crate) struct HashIndex {
    pub partition: PartitionId,
    /// Rank of the directory object.
    pub root: u64,
}

impl HashIndex {
    fn oid(&self, rank: u64) -> ObjectId {
        ObjectId::from_parts(self.partition, rank)
    }

    /// Creates an empty index.
    pub fn create(tx: &mut Tx, partition: PartitionId) -> Result<HashIndex> {
        let dir = HashDir {
            buckets: vec![0; BUCKETS],
        };
        let id = tx.create(partition, Arc::new(dir))?;
        Ok(HashIndex {
            partition,
            root: id.rank(),
        })
    }

    /// Inserts `(key, value)` (idempotent on duplicates).
    pub fn insert(&self, tx: &mut Tx, key: &[u8], value: u64) -> Result<()> {
        let dir = tx.get::<HashDir>(self.oid(self.root))?;
        let slot = bucket_of(key);
        let bucket_rank = dir.buckets[slot];
        if bucket_rank == 0 {
            let bucket = HashBucket {
                entries: vec![(key.to_vec(), value)],
            };
            let bucket_id = tx.create(self.partition, Arc::new(bucket))?;
            let mut new_dir = (*dir).clone();
            new_dir.buckets[slot] = bucket_id.rank();
            tx.put(self.oid(self.root), Arc::new(new_dir))?;
            return Ok(());
        }
        let bucket = tx.get::<HashBucket>(self.oid(bucket_rank))?;
        if bucket.entries.iter().any(|(k, v)| k == key && *v == value) {
            return Ok(());
        }
        let mut new_bucket = (*bucket).clone();
        new_bucket.entries.push((key.to_vec(), value));
        tx.put(self.oid(bucket_rank), Arc::new(new_bucket))
    }

    /// Removes `(key, value)`; returns whether it was present.
    pub fn remove(&self, tx: &mut Tx, key: &[u8], value: u64) -> Result<bool> {
        let dir = tx.get::<HashDir>(self.oid(self.root))?;
        let bucket_rank = dir.buckets[bucket_of(key)];
        if bucket_rank == 0 {
            return Ok(false);
        }
        let bucket = tx.get::<HashBucket>(self.oid(bucket_rank))?;
        let Some(pos) = bucket
            .entries
            .iter()
            .position(|(k, v)| k == key && *v == value)
        else {
            return Ok(false);
        };
        let mut new_bucket = (*bucket).clone();
        new_bucket.entries.remove(pos);
        tx.put(self.oid(bucket_rank), Arc::new(new_bucket))?;
        Ok(true)
    }

    /// Every value stored under `key`.
    pub fn lookup(&self, tx: &mut Tx, key: &[u8]) -> Result<Vec<u64>> {
        let dir = tx.get::<HashDir>(self.oid(self.root))?;
        let bucket_rank = dir.buckets[bucket_of(key)];
        if bucket_rank == 0 {
            return Ok(Vec::new());
        }
        let bucket = tx.get::<HashBucket>(self.oid(bucket_rank))?;
        Ok(bucket
            .entries
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .collect())
    }

    /// Every `(key, value)` pair, in no particular order.
    pub fn scan(&self, tx: &mut Tx) -> Result<Vec<(Vec<u8>, u64)>> {
        let dir = tx.get::<HashDir>(self.oid(self.root))?;
        let buckets = dir.buckets.clone();
        let mut out = Vec::new();
        for rank in buckets {
            if rank != 0 {
                let bucket = tx.get::<HashBucket>(self.oid(rank))?;
                out.extend(bucket.entries.iter().cloned());
            }
        }
        Ok(out)
    }

    /// Deletes the directory and every bucket (index drop).
    pub fn destroy(&self, tx: &mut Tx) -> Result<()> {
        let dir = tx.get::<HashDir>(self.oid(self.root))?;
        let buckets = dir.buckets.clone();
        for rank in buckets {
            if rank != 0 {
                tx.delete(self.oid(rank))?;
            }
        }
        tx.delete(self.oid(self.root))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{check_golden, fixture};

    #[test]
    fn dir_and_bucket_pickles_are_golden() {
        let dir = HashDir {
            buckets: vec![0, 5, 0x0102_0304_0506_0708],
        };
        check_golden(
            &dir,
            unpickle_dir,
            "03000000000000000000000005000000000000000807060504030201",
            "hash dir",
        );
        let bucket = HashBucket {
            entries: vec![(b"k".to_vec(), 2), (Vec::new(), 3)],
        };
        check_golden(
            &bucket,
            unpickle_bucket,
            "02000000010000006b0200000000000000000000000300000000000000",
            "hash bucket",
        );
    }

    #[test]
    fn insert_lookup_remove() {
        let fx = fixture();
        let mut tx = fx.store.begin();
        let idx = HashIndex::create(&mut tx, fx.partition).unwrap();
        idx.insert(&mut tx, b"red", 1).unwrap();
        idx.insert(&mut tx, b"red", 2).unwrap();
        idx.insert(&mut tx, b"blue", 3).unwrap();
        idx.insert(&mut tx, b"red", 1).unwrap(); // Idempotent.

        let mut reds = idx.lookup(&mut tx, b"red").unwrap();
        reds.sort_unstable();
        assert_eq!(reds, vec![1, 2]);
        assert_eq!(idx.lookup(&mut tx, b"blue").unwrap(), vec![3]);
        assert!(idx.lookup(&mut tx, b"green").unwrap().is_empty());

        assert!(idx.remove(&mut tx, b"red", 1).unwrap());
        assert!(!idx.remove(&mut tx, b"red", 1).unwrap());
        assert_eq!(idx.lookup(&mut tx, b"red").unwrap(), vec![2]);
        tx.commit().unwrap();
    }

    #[test]
    fn many_keys_spread_and_scan() {
        let fx = fixture();
        let mut tx = fx.store.begin();
        let idx = HashIndex::create(&mut tx, fx.partition).unwrap();
        for i in 0..300u64 {
            idx.insert(&mut tx, format!("key-{i}").as_bytes(), i)
                .unwrap();
        }
        let scan = idx.scan(&mut tx).unwrap();
        assert_eq!(scan.len(), 300);
        for i in (0..300u64).step_by(17) {
            assert_eq!(
                idx.lookup(&mut tx, format!("key-{i}").as_bytes()).unwrap(),
                vec![i]
            );
        }
        tx.commit().unwrap();
    }

    #[test]
    fn persists_across_transactions() {
        let fx = fixture();
        let idx = {
            let mut tx = fx.store.begin();
            let idx = HashIndex::create(&mut tx, fx.partition).unwrap();
            idx.insert(&mut tx, b"durable", 42).unwrap();
            tx.commit().unwrap();
            idx
        };
        let mut tx = fx.store.begin();
        assert_eq!(idx.lookup(&mut tx, b"durable").unwrap(), vec![42]);
        tx.abort();
    }

    #[test]
    fn destroy_removes_objects() {
        let fx = fixture();
        let mut tx = fx.store.begin();
        let idx = HashIndex::create(&mut tx, fx.partition).unwrap();
        idx.insert(&mut tx, b"x", 1).unwrap();
        idx.destroy(&mut tx).unwrap();
        assert!(tx
            .get::<HashDir>(ObjectId::from_parts(fx.partition, idx.root))
            .is_err());
        tx.commit().unwrap();
    }
}
