#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tdb-collection — the TDB collection store (§8)
//!
//! "The *collection store* provides applications with indexes on
//! *collections* of objects. A collection is a set of objects sharing one
//! or more indexes. Indexes can be dynamically added and removed from each
//! collection. Collections and indexes are themselves represented as
//! objects."
//!
//! Indexes are **functional** (§8, citing \[Hwa94\]): a deterministic,
//! application-registered function extracts the key from each object, so no
//! separate data-definition language is needed. Index maintenance is
//! automatic as objects are inserted, updated, and removed through this
//! store; all index mutations ride in the caller's transaction and commit
//! atomically with the object change. Indexes may be sorted (B+-tree,
//! supporting scan / exact-match / range iterators) or unsorted (hash,
//! scan / exact-match) — sorting is possible "because the objects are
//! decrypted" when keys are extracted.

pub mod btree;
pub mod catalog;
pub mod hashindex;
pub mod keys;

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use tdb_core::codec::{Dec, Enc};
use tdb_core::metrics::{self, modules};
use tdb_core::{CoreError, PartitionId};
use tdb_object::errors::{ObjectError, Result};
use tdb_object::pickle::{StoredObject, TypeRegistry};
use tdb_object::{ObjectId, Tx};

use btree::BTree;
pub use catalog::Catalog;
use hashindex::HashIndex;
pub use keys::IndexKey;

/// Reserved type tag for collection objects.
pub const COLLECTION_TAG: u32 = 0xF000_0001;

/// A deterministic key-extraction function: returns the object's index key,
/// or `None` when the object should not appear in the index.
pub type KeyExtractor = fn(&dyn StoredObject) -> Option<Vec<u8>>;

/// Named key extractors. Names are stored in index metadata so indexes can
/// be rebuilt and maintained across sessions.
#[derive(Default, Clone)]
pub struct ExtractorRegistry {
    extractors: HashMap<String, KeyExtractor>,
}

impl ExtractorRegistry {
    /// An empty registry.
    pub fn new() -> ExtractorRegistry {
        ExtractorRegistry::default()
    }

    /// Registers `name`. Re-registration with the same function is a no-op.
    ///
    /// # Panics
    ///
    /// Panics on re-registration with a different function.
    pub fn register(&mut self, name: &str, extractor: KeyExtractor) {
        if let Some(existing) = self.extractors.get(name) {
            assert!(
                std::ptr::fn_addr_eq(*existing, extractor),
                "extractor {name} registered twice with different functions"
            );
            return;
        }
        self.extractors.insert(name.to_string(), extractor);
    }

    fn get(&self, name: &str) -> Result<KeyExtractor> {
        self.extractors
            .get(name)
            .copied()
            .ok_or_else(|| ObjectError::BadPickle(format!("unknown key extractor: {name}")))
    }
}

/// Whether an index is sorted (B+-tree) or unsorted (hash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Sorted: scan, exact-match, and range iterators.
    Sorted,
    /// Unsorted: scan and exact-match only.
    Unsorted,
}

/// Stored metadata for one index of a collection.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IndexMeta {
    name: String,
    extractor: String,
    kind: IndexKind,
    /// Rank of the index's root object.
    root: u64,
}

/// The collection object: name, membership root, and index metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CollectionObj {
    name: String,
    /// Root of the primary membership B-tree (keyed by object rank).
    members_root: u64,
    indexes: Vec<IndexMeta>,
}

impl StoredObject for CollectionObj {
    fn type_tag(&self) -> u32 {
        COLLECTION_TAG
    }

    fn pickle(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.str(&self.name).u64(self.members_root);
        e.list(&self.indexes, |e, idx| {
            let kind = match idx.kind {
                IndexKind::Sorted => 0,
                IndexKind::Unsorted => 1,
            };
            e.str(&idx.name).str(&idx.extractor).u8(kind).u64(idx.root);
        });
        e.finish()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn unpickle_collection(body: &[u8]) -> Result<Arc<dyn StoredObject>> {
    unpickle_with(body, "collection", |d| {
        Ok(CollectionObj {
            name: d.str()?,
            members_root: d.u64()?,
            // Two string length prefixes, the kind byte and the root.
            indexes: d.list(17, |d| {
                Ok(IndexMeta {
                    name: d.str()?,
                    extractor: d.str()?,
                    kind: match d.u8()? {
                        0 => IndexKind::Sorted,
                        1 => IndexKind::Unsorted,
                        k => return Err(CoreError::Corrupt(format!("index kind {k}"))),
                    },
                    root: d.u64()?,
                })
            })?,
        })
    })
}

/// Decodes a whole pickle with `f`. Any codec error (truncation, trailing
/// bytes, bad UTF-8, a count the bytes cannot hold) is `BadPickle(what)`.
pub(crate) fn unpickle_with<T: StoredObject>(
    body: &[u8],
    what: &str,
    f: impl FnOnce(&mut Dec) -> tdb_core::Result<T>,
) -> Result<Arc<dyn StoredObject>> {
    let obj = Dec::decode_all(body, f).map_err(|_| ObjectError::BadPickle(what.into()))?;
    Ok(Arc::new(obj))
}

/// Registers the collection store's internal object types (collection,
/// B-tree node, hash directory/bucket) into a type registry. Call this when
/// assembling the application's registry.
pub fn register_builtin_types(registry: &mut TypeRegistry) {
    registry.register(COLLECTION_TAG, unpickle_collection);
    btree::register_types(registry);
    hashindex::register_types(registry);
    catalog::register_types(registry);
}

/// Handle to a collection (the id of its collection object).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CollectionId(pub ObjectId);

/// The collection store: index maintenance over an object store.
///
/// Stateless apart from the extractor registry, so it is `Clone`: every
/// session gets its own handle over the shared object store.
#[derive(Clone)]
pub struct CollectionStore {
    extractors: ExtractorRegistry,
}

impl CollectionStore {
    /// Creates a collection store with the given extractor registry.
    pub fn new(extractors: ExtractorRegistry) -> CollectionStore {
        CollectionStore { extractors }
    }

    fn load(&self, tx: &mut Tx, coll: CollectionId) -> Result<Arc<CollectionObj>> {
        tx.get::<CollectionObj>(coll.0)
    }

    fn members(&self, partition: PartitionId, obj: &CollectionObj) -> BTree {
        BTree {
            partition,
            root: obj.members_root,
        }
    }

    fn member_key(rank: u64) -> Vec<u8> {
        IndexKey::new().u64(rank).into_bytes()
    }

    /// Creates an empty collection named `name` in `partition`.
    ///
    /// # Errors
    ///
    /// Propagates object-store failures.
    pub fn create_collection(
        &self,
        tx: &mut Tx,
        partition: PartitionId,
        name: &str,
    ) -> Result<CollectionId> {
        let _t = metrics::span(modules::COLLECTION_STORE);
        let members = BTree::create(tx, partition)?;
        let obj = CollectionObj {
            name: name.to_string(),
            members_root: members.root,
            indexes: Vec::new(),
        };
        Ok(CollectionId(tx.create(partition, Arc::new(obj))?))
    }

    /// The collection's name.
    ///
    /// # Errors
    ///
    /// Fails if the collection does not exist.
    pub fn name(&self, tx: &mut Tx, coll: CollectionId) -> Result<String> {
        Ok(self.load(tx, coll)?.name.clone())
    }

    /// Number of member objects, counted by scanning the membership tree:
    /// the cost grows with the member count, and the scan takes a shared
    /// lock on every node of the tree.
    ///
    /// # Errors
    ///
    /// Fails if the collection does not exist.
    pub fn len(&self, tx: &mut Tx, coll: CollectionId) -> Result<u64> {
        let meta = self.load(tx, coll)?;
        Ok(self.members(coll.0.partition(), &meta).scan(tx)?.len() as u64)
    }

    /// Creates a new object and adds it to the collection, maintaining all
    /// indexes.
    ///
    /// # Errors
    ///
    /// Propagates object-store failures.
    pub fn insert(
        &self,
        tx: &mut Tx,
        coll: CollectionId,
        object: Arc<dyn StoredObject>,
    ) -> Result<ObjectId> {
        let _t = metrics::span(modules::COLLECTION_STORE);
        let id = tx.create(coll.0.partition(), Arc::clone(&object))?;
        self.link(tx, coll, id, object.as_ref())?;
        Ok(id)
    }

    /// Adds an existing object to the collection.
    ///
    /// # Errors
    ///
    /// Fails if the object does not exist.
    pub fn add(&self, tx: &mut Tx, coll: CollectionId, id: ObjectId) -> Result<()> {
        let _t = metrics::span(modules::COLLECTION_STORE);
        let object = tx.get_dyn(id)?;
        self.link(tx, coll, id, object.as_ref())
    }

    fn link(
        &self,
        tx: &mut Tx,
        coll: CollectionId,
        id: ObjectId,
        object: &dyn StoredObject,
    ) -> Result<()> {
        // Only read: members live in the tree. The shared lock keeps the
        // index list stable against a concurrent `add_index` or `drop_index`.
        let meta = self.load(tx, coll)?;
        let members = self.members(coll.0.partition(), &meta);
        members.insert(tx, &Self::member_key(id.rank()), id.rank())?;
        for idx in &meta.indexes {
            let extractor = self.extractors.get(&idx.extractor)?;
            if let Some(key) = extractor(object) {
                self.index_insert(tx, coll.0.partition(), idx, &key, id.rank())?;
            }
        }
        Ok(())
    }

    /// Replaces a member object's state, updating every index whose key
    /// changed ("indexes are maintained automatically as objects are
    /// updated").
    ///
    /// # Errors
    ///
    /// Fails if the object is not a member.
    pub fn update(
        &self,
        tx: &mut Tx,
        coll: CollectionId,
        id: ObjectId,
        new_object: Arc<dyn StoredObject>,
    ) -> Result<()> {
        let _t = metrics::span(modules::COLLECTION_STORE);
        let meta = self.load(tx, coll)?;
        let members = self.members(coll.0.partition(), &meta);
        if members.lookup(tx, &Self::member_key(id.rank()))?.is_empty() {
            return Err(ObjectError::NotFound(id));
        }
        let old_object = tx.get_dyn(id)?;
        for idx in &meta.indexes {
            let extractor = self.extractors.get(&idx.extractor)?;
            let old_key = extractor(old_object.as_ref());
            let new_key = extractor(new_object.as_ref());
            if old_key != new_key {
                if let Some(k) = old_key {
                    self.index_remove(tx, coll.0.partition(), idx, &k, id.rank())?;
                }
                if let Some(k) = new_key {
                    self.index_insert(tx, coll.0.partition(), idx, &k, id.rank())?;
                }
            }
        }
        tx.put(id, new_object)
    }

    /// Removes an object from the collection (and its indexes) and deletes
    /// the object itself.
    ///
    /// # Errors
    ///
    /// Fails if the object is not a member.
    pub fn remove(&self, tx: &mut Tx, coll: CollectionId, id: ObjectId) -> Result<()> {
        let _t = metrics::span(modules::COLLECTION_STORE);
        self.unlink(tx, coll, id)?;
        tx.delete(id)
    }

    /// Removes an object from the collection without deleting the object.
    ///
    /// # Errors
    ///
    /// Fails if the object is not a member.
    pub fn unlink(&self, tx: &mut Tx, coll: CollectionId, id: ObjectId) -> Result<()> {
        let _t = metrics::span(modules::COLLECTION_STORE);
        let meta = self.load(tx, coll)?;
        let members = self.members(coll.0.partition(), &meta);
        if !members.remove(tx, &Self::member_key(id.rank()), id.rank())? {
            return Err(ObjectError::NotFound(id));
        }
        let object = tx.get_dyn(id)?;
        for idx in &meta.indexes {
            let extractor = self.extractors.get(&idx.extractor)?;
            if let Some(key) = extractor(object.as_ref()) {
                self.index_remove(tx, coll.0.partition(), idx, &key, id.rank())?;
            }
        }
        Ok(())
    }

    /// Adds an index over the collection, building it over existing
    /// members ("indexes can be dynamically added").
    ///
    /// # Errors
    ///
    /// Fails on a duplicate index name or unknown extractor.
    pub fn add_index(
        &self,
        tx: &mut Tx,
        coll: CollectionId,
        index_name: &str,
        extractor_name: &str,
        kind: IndexKind,
    ) -> Result<()> {
        let _t = metrics::span(modules::COLLECTION_STORE);
        let extractor = self.extractors.get(extractor_name)?;
        let meta = self.load(tx, coll)?;
        if meta.indexes.iter().any(|i| i.name == index_name) {
            return Err(ObjectError::BadPickle(format!(
                "index {index_name} already exists"
            )));
        }
        let partition = coll.0.partition();
        let root = match kind {
            IndexKind::Sorted => BTree::create(tx, partition)?.root,
            IndexKind::Unsorted => HashIndex::create(tx, partition)?.root,
        };
        let idx = IndexMeta {
            name: index_name.to_string(),
            extractor: extractor_name.to_string(),
            kind,
            root,
        };
        // Build over the existing members.
        let members = self.members(partition, &meta);
        for (_, rank) in members.scan(tx)? {
            let object = tx.get_dyn(ObjectId::from_parts(partition, rank))?;
            if let Some(key) = extractor(object.as_ref()) {
                self.index_insert(tx, partition, &idx, &key, rank)?;
            }
        }
        let mut updated = (*meta).clone();
        updated.indexes.push(idx);
        tx.put(coll.0, Arc::new(updated))
    }

    /// Drops an index, deleting its objects.
    ///
    /// # Errors
    ///
    /// Fails if the index does not exist.
    pub fn drop_index(&self, tx: &mut Tx, coll: CollectionId, index_name: &str) -> Result<()> {
        let _t = metrics::span(modules::COLLECTION_STORE);
        let meta = self.load(tx, coll)?;
        let Some(pos) = meta.indexes.iter().position(|i| i.name == index_name) else {
            return Err(ObjectError::BadPickle(format!(
                "no index named {index_name}"
            )));
        };
        let idx = &meta.indexes[pos];
        let partition = coll.0.partition();
        match idx.kind {
            IndexKind::Sorted => BTree {
                partition,
                root: idx.root,
            }
            .destroy(tx)?,
            IndexKind::Unsorted => HashIndex {
                partition,
                root: idx.root,
            }
            .destroy(tx)?,
        }
        let mut updated = (*meta).clone();
        updated.indexes.remove(pos);
        tx.put(coll.0, Arc::new(updated))
    }

    /// Names of the collection's indexes.
    ///
    /// # Errors
    ///
    /// Fails if the collection does not exist.
    pub fn index_names(&self, tx: &mut Tx, coll: CollectionId) -> Result<Vec<String>> {
        Ok(self
            .load(tx, coll)?
            .indexes
            .iter()
            .map(|i| i.name.clone())
            .collect())
    }

    /// Scan iterator: every member object id, in rank order.
    ///
    /// # Errors
    ///
    /// Fails if the collection does not exist.
    pub fn scan(&self, tx: &mut Tx, coll: CollectionId) -> Result<Vec<ObjectId>> {
        let _t = metrics::span(modules::COLLECTION_STORE);
        let meta = self.load(tx, coll)?;
        let members = self.members(coll.0.partition(), &meta);
        Ok(members
            .scan(tx)?
            .into_iter()
            .map(|(_, rank)| ObjectId::from_parts(coll.0.partition(), rank))
            .collect())
    }

    /// Exact-match iterator over an index.
    ///
    /// # Errors
    ///
    /// Fails on unknown index names.
    pub fn lookup(
        &self,
        tx: &mut Tx,
        coll: CollectionId,
        index_name: &str,
        key: &[u8],
    ) -> Result<Vec<ObjectId>> {
        let _t = metrics::span(modules::COLLECTION_STORE);
        let meta = self.load(tx, coll)?;
        let idx = Self::index_meta(&meta, index_name)?;
        let partition = coll.0.partition();
        let ranks = match idx.kind {
            IndexKind::Sorted => BTree {
                partition,
                root: idx.root,
            }
            .lookup(tx, key)?,
            IndexKind::Unsorted => HashIndex {
                partition,
                root: idx.root,
            }
            .lookup(tx, key)?,
        };
        Ok(ranks
            .into_iter()
            .map(|r| ObjectId::from_parts(partition, r))
            .collect())
    }

    /// Range iterator over a *sorted* index: members with `lo ≤ key < hi`.
    ///
    /// # Errors
    ///
    /// Fails on unknown or unsorted indexes.
    pub fn range(
        &self,
        tx: &mut Tx,
        coll: CollectionId,
        index_name: &str,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
    ) -> Result<Vec<ObjectId>> {
        let _t = metrics::span(modules::COLLECTION_STORE);
        let meta = self.load(tx, coll)?;
        let idx = Self::index_meta(&meta, index_name)?;
        if idx.kind != IndexKind::Sorted {
            return Err(ObjectError::BadPickle(format!(
                "index {index_name} is unsorted; range iterators need a sorted index"
            )));
        }
        let partition = coll.0.partition();
        let tree = BTree {
            partition,
            root: idx.root,
        };
        Ok(tree
            .range(tx, lo, hi)?
            .into_iter()
            .map(|(_, r)| ObjectId::from_parts(partition, r))
            .collect())
    }

    /// Scan iterator over an index: every `(key, member)` entry. Sorted
    /// indexes yield key order; unsorted indexes yield arbitrary order.
    ///
    /// # Errors
    ///
    /// Fails on unknown index names.
    pub fn scan_index(
        &self,
        tx: &mut Tx,
        coll: CollectionId,
        index_name: &str,
    ) -> Result<Vec<(Vec<u8>, ObjectId)>> {
        let _t = metrics::span(modules::COLLECTION_STORE);
        let meta = self.load(tx, coll)?;
        let idx = Self::index_meta(&meta, index_name)?;
        let partition = coll.0.partition();
        let entries = match idx.kind {
            IndexKind::Sorted => BTree {
                partition,
                root: idx.root,
            }
            .scan(tx)?,
            IndexKind::Unsorted => HashIndex {
                partition,
                root: idx.root,
            }
            .scan(tx)?,
        };
        Ok(entries
            .into_iter()
            .map(|(k, r)| (k, ObjectId::from_parts(partition, r)))
            .collect())
    }

    fn index_meta<'m>(meta: &'m CollectionObj, name: &str) -> Result<&'m IndexMeta> {
        meta.indexes
            .iter()
            .find(|i| i.name == name)
            .ok_or_else(|| ObjectError::BadPickle(format!("no index named {name}")))
    }

    fn index_insert(
        &self,
        tx: &mut Tx,
        partition: PartitionId,
        idx: &IndexMeta,
        key: &[u8],
        rank: u64,
    ) -> Result<()> {
        match idx.kind {
            IndexKind::Sorted => BTree {
                partition,
                root: idx.root,
            }
            .insert(tx, key, rank),
            IndexKind::Unsorted => HashIndex {
                partition,
                root: idx.root,
            }
            .insert(tx, key, rank),
        }
    }

    fn index_remove(
        &self,
        tx: &mut Tx,
        partition: PartitionId,
        idx: &IndexMeta,
        key: &[u8],
        rank: u64,
    ) -> Result<()> {
        match idx.kind {
            IndexKind::Sorted => BTree {
                partition,
                root: idx.root,
            }
            .remove(tx, key, rank)
            .map(|_| ()),
            IndexKind::Unsorted => HashIndex {
                partition,
                root: idx.root,
            }
            .remove(tx, key, rank)
            .map(|_| ()),
        }
    }
}

/// Test fixtures shared by this crate's unit tests.
#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use tdb_core::store::{ChunkStore, ChunkStoreConfig, CommitOp, TrustedBackend};
    use tdb_core::CryptoParams;
    use tdb_object::{ObjectStore, ObjectStoreConfig};

    pub(crate) struct Fixture {
        pub store: Arc<ObjectStore>,
        pub partition: PartitionId,
    }

    pub(crate) fn fixture() -> Fixture {
        use std::sync::Arc;
        let chunks = Arc::new(
            ChunkStore::create(
                Arc::new(tdb_storage::MemStore::new()) as tdb_storage::SharedUntrusted,
                TrustedBackend::Counter(Arc::new(tdb_storage::CounterOverTrusted::new(Arc::new(
                    tdb_storage::MemTrustedStore::new(64),
                )))),
                tdb_crypto::SecretKey::random(24),
                ChunkStoreConfig {
                    fanout: 8,
                    segment_size: 32768,
                    ..ChunkStoreConfig::default()
                },
            )
            .unwrap(),
        );
        let partition = chunks.allocate_partition().unwrap();
        chunks
            .commit(vec![CommitOp::CreatePartition {
                id: partition,
                params: CryptoParams::paper_default(),
            }])
            .unwrap();
        let mut registry = TypeRegistry::new();
        register_builtin_types(&mut registry);
        let store = ObjectStore::new(chunks, registry, ObjectStoreConfig::default());
        Fixture { store, partition }
    }

    /// Pins one object type's stored encoding: `obj` pickles to exactly
    /// `golden_hex` and unpickles back to itself, and every proper prefix
    /// of the pickle is rejected as `BadPickle(what)`.
    pub(crate) fn check_golden<T: StoredObject + PartialEq + std::fmt::Debug>(
        obj: &T,
        unpickle: tdb_object::pickle::Unpickler,
        golden_hex: &str,
        what: &str,
    ) {
        let pickle = obj.pickle();
        let hex: String = pickle.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, golden_hex, "{what}: stored encoding changed");
        let back = tdb_object::pickle::downcast::<T>(unpickle(&pickle).unwrap()).unwrap();
        assert_eq!(&*back, obj);
        for cut in 0..pickle.len() {
            match unpickle(&pickle[..cut]) {
                Err(ObjectError::BadPickle(m)) => assert_eq!(m, what, "cut {cut}"),
                Err(e) => panic!("{what}: prefix of {cut} bytes: {e:?}"),
                Ok(_) => panic!("{what}: prefix of {cut} bytes unpickled"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::check_golden;

    #[test]
    fn collection_pickle_is_golden() {
        let obj = CollectionObj {
            name: "goods".into(),
            members_root: 2,
            indexes: vec![
                IndexMeta {
                    name: "by_id".into(),
                    extractor: "id".into(),
                    kind: IndexKind::Sorted,
                    root: 4,
                },
                IndexMeta {
                    name: "by_tag".into(),
                    extractor: "tag".into(),
                    kind: IndexKind::Unsorted,
                    root: 0x0102_0304_0506_0708,
                },
            ],
        };
        check_golden(
            &obj,
            unpickle_collection,
            "05000000676f6f64730200000000000000020000000500000062795f69640200000069\
             640004000000000000000600000062795f746167030000007461670108070605040302\
             01",
            "collection",
        );
    }

    /// The encoding from before the collection stopped storing its member
    /// count (a `u64` after the membership root) has no migration.
    #[test]
    fn counted_collection_pickle_is_rejected() {
        let hex = "05000000676f6f64730200000000000000030000000000000002000000050000006279\
                   5f69640200000069640004000000000000000600000062795f74616703000000746167\
                   010807060504030201";
        let bytes: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect();
        match unpickle_collection(&bytes) {
            Err(ObjectError::BadPickle(what)) => assert_eq!(what, "collection"),
            Err(e) => panic!("{e:?}"),
            Ok(obj) => panic!(
                "unpickled {:?}",
                obj.as_any().downcast_ref::<CollectionObj>()
            ),
        }
    }
}
