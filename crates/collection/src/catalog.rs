//! A catalog object: a durable name → collection directory.
//!
//! The paper's collection store names collections but leaves discovery to
//! the application ("collections and indexes are themselves represented as
//! objects", §8). A catalog is exactly such an object: a small directory
//! mapping names to collection object ranks, so an application can find its
//! collections again after a restart from a single well-known [`ObjectId`].

use std::any::Any;
use std::sync::Arc;

use tdb_core::codec::Enc;
use tdb_object::errors::Result;
use tdb_object::pickle::{StoredObject, TypeRegistry};
use tdb_object::{ObjectId, Tx};

use crate::{unpickle_with, CollectionId};

/// Reserved type tag for catalog objects.
pub const CATALOG_TAG: u32 = 0xF000_0005;

/// The catalog object: sorted (name, collection rank) pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct CatalogObj {
    entries: Vec<(String, u64)>,
}

impl StoredObject for CatalogObj {
    fn type_tag(&self) -> u32 {
        CATALOG_TAG
    }

    fn pickle(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.list(&self.entries, |e, (name, rank)| {
            e.str(name).u64(*rank);
        });
        e.finish()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn unpickle_catalog(body: &[u8]) -> Result<Arc<dyn StoredObject>> {
    unpickle_with(body, "catalog", |d| {
        Ok(CatalogObj {
            // A name's length prefix and the rank: 12 bytes at least.
            entries: d.list(12, |d| Ok((d.str()?, d.u64()?)))?,
        })
    })
}

/// Registers the catalog type (called by
/// [`crate::register_builtin_types`]).
pub(crate) fn register_types(registry: &mut TypeRegistry) {
    registry.register(CATALOG_TAG, unpickle_catalog);
}

/// Handle to a catalog object.
///
/// A catalog resolves names to collections **in its own partition**: the
/// stored entries are bare ranks, reconstructed against
/// `self.0.partition()`. Keep a catalog and the collections it names in
/// the same partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Catalog(pub ObjectId);

impl Catalog {
    /// Creates an empty catalog in `partition`. Store the returned id (or
    /// its rank) in application configuration; it is the root of discovery.
    ///
    /// # Errors
    ///
    /// Propagates object-store failures.
    pub fn create(tx: &mut Tx, partition: tdb_core::PartitionId) -> Result<Catalog> {
        Ok(Catalog(
            tx.create(partition, Arc::new(CatalogObj::default()))?,
        ))
    }

    /// Opens an existing catalog by id (checks the type).
    ///
    /// # Errors
    ///
    /// Fails if the object is missing or not a catalog.
    pub fn open(tx: &mut Tx, id: ObjectId) -> Result<Catalog> {
        let _: Arc<CatalogObj> = tx.get(id)?;
        Ok(Catalog(id))
    }

    fn load(&self, tx: &mut Tx) -> Result<Arc<CatalogObj>> {
        tx.get(self.0)
    }

    /// Registers `name` → `collection`, replacing any previous binding.
    ///
    /// # Errors
    ///
    /// Propagates object-store failures.
    pub fn put(&self, tx: &mut Tx, name: &str, collection: CollectionId) -> Result<()> {
        let mut obj = (*self.load(tx)?).clone();
        match obj.entries.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => obj.entries[i].1 = collection.0.rank(),
            Err(i) => obj
                .entries
                .insert(i, (name.to_string(), collection.0.rank())),
        }
        tx.put(self.0, Arc::new(obj))
    }

    /// Looks a collection up by name.
    ///
    /// # Errors
    ///
    /// Propagates object-store failures.
    pub fn get(&self, tx: &mut Tx, name: &str) -> Result<Option<CollectionId>> {
        let obj = self.load(tx)?;
        Ok(obj
            .entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| CollectionId(ObjectId::from_parts(self.0.partition(), obj.entries[i].1))))
    }

    /// Removes a binding; returns whether it existed.
    ///
    /// # Errors
    ///
    /// Propagates object-store failures.
    pub fn remove(&self, tx: &mut Tx, name: &str) -> Result<bool> {
        let mut obj = (*self.load(tx)?).clone();
        match obj.entries.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => {
                obj.entries.remove(i);
                tx.put(self.0, Arc::new(obj))?;
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }

    /// All bound names, sorted.
    ///
    /// # Errors
    ///
    /// Propagates object-store failures.
    pub fn names(&self, tx: &mut Tx) -> Result<Vec<String>> {
        Ok(self
            .load(tx)?
            .entries
            .iter()
            .map(|(n, _)| n.clone())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{check_golden, fixture};
    use crate::CollectionStore;

    #[test]
    fn catalog_pickle_is_golden() {
        let obj = CatalogObj {
            entries: vec![
                ("accounts".into(), 4),
                ("goods".into(), 0x0102_0304_0506_0708),
            ],
        };
        check_golden(
            &obj,
            unpickle_catalog,
            "02000000080000006163636f756e7473040000000000000005000000676f6f64730807060504030201",
            "catalog",
        );
    }

    #[test]
    fn catalog_roundtrip_across_transactions() {
        let fx = fixture();
        let collections = CollectionStore::new(crate::ExtractorRegistry::new());
        let (catalog, coll_a, coll_b) = {
            let mut tx = fx.store.begin();
            let catalog = Catalog::create(&mut tx, fx.partition).unwrap();
            let a = collections
                .create_collection(&mut tx, fx.partition, "alpha")
                .unwrap();
            let b = collections
                .create_collection(&mut tx, fx.partition, "beta")
                .unwrap();
            catalog.put(&mut tx, "alpha", a).unwrap();
            catalog.put(&mut tx, "beta", b).unwrap();
            tx.commit().unwrap();
            (catalog, a, b)
        };
        let mut tx = fx.store.begin();
        let reopened = Catalog::open(&mut tx, catalog.0).unwrap();
        assert_eq!(reopened.get(&mut tx, "alpha").unwrap(), Some(coll_a));
        assert_eq!(reopened.get(&mut tx, "beta").unwrap(), Some(coll_b));
        assert_eq!(reopened.get(&mut tx, "gamma").unwrap(), None);
        assert_eq!(reopened.names(&mut tx).unwrap(), vec!["alpha", "beta"]);
        tx.abort();
    }

    #[test]
    fn rebind_and_remove() {
        let fx = fixture();
        let collections = CollectionStore::new(crate::ExtractorRegistry::new());
        let mut tx = fx.store.begin();
        let catalog = Catalog::create(&mut tx, fx.partition).unwrap();
        let a = collections
            .create_collection(&mut tx, fx.partition, "one")
            .unwrap();
        let b = collections
            .create_collection(&mut tx, fx.partition, "two")
            .unwrap();
        catalog.put(&mut tx, "slot", a).unwrap();
        catalog.put(&mut tx, "slot", b).unwrap(); // Rebind.
        assert_eq!(catalog.get(&mut tx, "slot").unwrap(), Some(b));
        assert!(catalog.remove(&mut tx, "slot").unwrap());
        assert!(!catalog.remove(&mut tx, "slot").unwrap());
        assert_eq!(catalog.get(&mut tx, "slot").unwrap(), None);
        tx.commit().unwrap();
    }

    #[test]
    fn open_rejects_non_catalog() {
        let fx = fixture();
        let collections = CollectionStore::new(crate::ExtractorRegistry::new());
        let mut tx = fx.store.begin();
        let coll = collections
            .create_collection(&mut tx, fx.partition, "not-a-catalog")
            .unwrap();
        assert!(Catalog::open(&mut tx, coll.0).is_err());
        tx.abort();
    }
}
