//! Integration tests for the collection store: functional indexes, scan /
//! exact-match / range iterators, dynamic index add/drop, and automatic
//! maintenance (§8).

use std::any::Any;
use std::sync::Arc;

use tdb_collection::{
    register_builtin_types, CollectionStore, ExtractorRegistry, IndexKey, IndexKind,
};
use tdb_core::store::{ChunkStore, ChunkStoreConfig, CommitOp, TrustedBackend};
use tdb_core::{CryptoParams, PartitionId};
use tdb_crypto::SecretKey;
use tdb_object::pickle::{downcast, StoredObject, TypeRegistry};
use tdb_object::{ObjectStore, ObjectStoreConfig};
use tdb_storage::{CounterOverTrusted, MemStore, MemTrustedStore, SharedUntrusted};

/// A digital good for sale, as in the paper's motivating DRM scenario.
#[derive(Debug, Clone, PartialEq)]
struct Good {
    title: String,
    vendor: String,
    price_cents: i64,
}

const GOOD_TAG: u32 = 100;

impl StoredObject for Good {
    fn type_tag(&self) -> u32 {
        GOOD_TAG
    }
    fn pickle(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for s in [&self.title, &self.vendor] {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        out.extend_from_slice(&self.price_cents.to_le_bytes());
        out
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn unpickle_good(body: &[u8]) -> tdb_object::errors::Result<Arc<dyn StoredObject>> {
    let mut off = 0usize;
    let mut get_str = || {
        let n = u32::from_le_bytes(body[off..off + 4].try_into().unwrap()) as usize;
        let s = String::from_utf8(body[off + 4..off + 4 + n].to_vec()).unwrap();
        off += 4 + n;
        s
    };
    let title = get_str();
    let vendor = get_str();
    let price_cents = i64::from_le_bytes(body[off..off + 8].try_into().unwrap());
    Ok(Arc::new(Good {
        title,
        vendor,
        price_cents,
    }))
}

fn by_title(obj: &dyn StoredObject) -> Option<Vec<u8>> {
    obj.as_any()
        .downcast_ref::<Good>()
        .map(|g| IndexKey::new().str(&g.title).into_bytes())
}

fn by_vendor(obj: &dyn StoredObject) -> Option<Vec<u8>> {
    obj.as_any()
        .downcast_ref::<Good>()
        .map(|g| IndexKey::new().str(&g.vendor).into_bytes())
}

fn by_price(obj: &dyn StoredObject) -> Option<Vec<u8>> {
    obj.as_any()
        .downcast_ref::<Good>()
        .map(|g| IndexKey::new().i64(g.price_cents).into_bytes())
}

/// Only paid goods are indexed: demonstrates extractors returning `None`.
fn by_paid_title(obj: &dyn StoredObject) -> Option<Vec<u8>> {
    let good = obj.as_any().downcast_ref::<Good>()?;
    if good.price_cents > 0 {
        Some(IndexKey::new().str(&good.title).into_bytes())
    } else {
        None
    }
}

struct Fixture {
    objects: Arc<ObjectStore>,
    collections: CollectionStore,
    partition: PartitionId,
}

fn fixture() -> Fixture {
    let chunks = Arc::new(
        ChunkStore::create(
            Arc::new(MemStore::new()) as SharedUntrusted,
            TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(Arc::new(
                MemTrustedStore::new(64),
            )))),
            SecretKey::random(24),
            ChunkStoreConfig::default(),
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
    registry.register(GOOD_TAG, unpickle_good);
    let objects = ObjectStore::new(chunks, registry, ObjectStoreConfig::default());
    let mut extractors = ExtractorRegistry::new();
    extractors.register("by_title", by_title);
    extractors.register("by_vendor", by_vendor);
    extractors.register("by_price", by_price);
    extractors.register("by_paid_title", by_paid_title);
    Fixture {
        objects,
        collections: CollectionStore::new(extractors),
        partition,
    }
}

fn good(title: &str, vendor: &str, price: i64) -> Arc<dyn StoredObject> {
    Arc::new(Good {
        title: title.into(),
        vendor: vendor.into(),
        price_cents: price,
    })
}

#[test]
fn insert_scan_and_count() {
    let fx = fixture();
    let mut tx = fx.objects.begin();
    let coll = fx
        .collections
        .create_collection(&mut tx, fx.partition, "goods")
        .unwrap();
    for i in 0..20 {
        fx.collections
            .insert(
                &mut tx,
                coll,
                good(&format!("song-{i:02}"), "acme", 100 + i),
            )
            .unwrap();
    }
    assert_eq!(fx.collections.len(&mut tx, coll).unwrap(), 20);
    assert_eq!(fx.collections.name(&mut tx, coll).unwrap(), "goods");
    let members = fx.collections.scan(&mut tx, coll).unwrap();
    assert_eq!(members.len(), 20);
    // Every member unpickles as a Good.
    for id in members {
        let obj = tx.get::<Good>(id).unwrap();
        assert_eq!(obj.vendor, "acme");
    }
    tx.commit().unwrap();
}

#[test]
fn exact_match_on_sorted_and_unsorted() {
    let fx = fixture();
    let mut tx = fx.objects.begin();
    let coll = fx
        .collections
        .create_collection(&mut tx, fx.partition, "goods")
        .unwrap();
    fx.collections
        .add_index(&mut tx, coll, "title", "by_title", IndexKind::Sorted)
        .unwrap();
    fx.collections
        .add_index(&mut tx, coll, "vendor", "by_vendor", IndexKind::Unsorted)
        .unwrap();

    let a = fx
        .collections
        .insert(&mut tx, coll, good("aria", "v1", 100))
        .unwrap();
    let b = fx
        .collections
        .insert(&mut tx, coll, good("ballad", "v1", 200))
        .unwrap();
    let c = fx
        .collections
        .insert(&mut tx, coll, good("chorale", "v2", 300))
        .unwrap();

    let key = IndexKey::new().str("ballad").into_bytes();
    assert_eq!(
        fx.collections.lookup(&mut tx, coll, "title", &key).unwrap(),
        vec![b]
    );

    let key = IndexKey::new().str("v1").into_bytes();
    let mut v1 = fx
        .collections
        .lookup(&mut tx, coll, "vendor", &key)
        .unwrap();
    v1.sort();
    let mut expected = vec![a, b];
    expected.sort();
    assert_eq!(v1, expected);

    let key = IndexKey::new().str("v2").into_bytes();
    assert_eq!(
        fx.collections
            .lookup(&mut tx, coll, "vendor", &key)
            .unwrap(),
        vec![c]
    );
    tx.commit().unwrap();
}

#[test]
fn range_queries_on_price() {
    let fx = fixture();
    let mut tx = fx.objects.begin();
    let coll = fx
        .collections
        .create_collection(&mut tx, fx.partition, "goods")
        .unwrap();
    fx.collections
        .add_index(&mut tx, coll, "price", "by_price", IndexKind::Sorted)
        .unwrap();
    for price in [500i64, 100, 300, 200, 400, -50] {
        fx.collections
            .insert(&mut tx, coll, good(&format!("g{price}"), "v", price))
            .unwrap();
    }
    let lo = IndexKey::new().i64(100).into_bytes();
    let hi = IndexKey::new().i64(400).into_bytes();
    let hits = fx
        .collections
        .range(&mut tx, coll, "price", Some(&lo), Some(&hi))
        .unwrap();
    let prices: Vec<i64> = hits
        .iter()
        .map(|id| tx.get::<Good>(*id).unwrap().price_cents)
        .collect();
    assert_eq!(prices, vec![100, 200, 300], "ordered and bounded");

    // Unbounded below picks up the negative price first.
    let all = fx
        .collections
        .range(&mut tx, coll, "price", None, None)
        .unwrap();
    let prices: Vec<i64> = all
        .iter()
        .map(|id| tx.get::<Good>(*id).unwrap().price_cents)
        .collect();
    assert_eq!(prices, vec![-50, 100, 200, 300, 400, 500]);

    // Range on an unsorted index is rejected.
    fx.collections
        .add_index(&mut tx, coll, "vendor", "by_vendor", IndexKind::Unsorted)
        .unwrap();
    assert!(fx
        .collections
        .range(&mut tx, coll, "vendor", None, None)
        .is_err());
    tx.commit().unwrap();
}

#[test]
fn update_maintains_indexes() {
    let fx = fixture();
    let mut tx = fx.objects.begin();
    let coll = fx
        .collections
        .create_collection(&mut tx, fx.partition, "goods")
        .unwrap();
    fx.collections
        .add_index(&mut tx, coll, "title", "by_title", IndexKind::Sorted)
        .unwrap();
    let id = fx
        .collections
        .insert(&mut tx, coll, good("draft", "v", 1))
        .unwrap();

    fx.collections
        .update(&mut tx, coll, id, good("final", "v", 1))
        .unwrap();

    let draft_key = IndexKey::new().str("draft").into_bytes();
    let final_key = IndexKey::new().str("final").into_bytes();
    assert!(fx
        .collections
        .lookup(&mut tx, coll, "title", &draft_key)
        .unwrap()
        .is_empty());
    assert_eq!(
        fx.collections
            .lookup(&mut tx, coll, "title", &final_key)
            .unwrap(),
        vec![id]
    );
    assert_eq!(tx.get::<Good>(id).unwrap().title, "final");
    tx.commit().unwrap();
}

#[test]
fn remove_cleans_indexes_and_object() {
    let fx = fixture();
    let mut tx = fx.objects.begin();
    let coll = fx
        .collections
        .create_collection(&mut tx, fx.partition, "goods")
        .unwrap();
    fx.collections
        .add_index(&mut tx, coll, "title", "by_title", IndexKind::Sorted)
        .unwrap();
    let id = fx
        .collections
        .insert(&mut tx, coll, good("deleteme", "v", 1))
        .unwrap();
    fx.collections.remove(&mut tx, coll, id).unwrap();

    assert_eq!(fx.collections.len(&mut tx, coll).unwrap(), 0);
    let key = IndexKey::new().str("deleteme").into_bytes();
    assert!(fx
        .collections
        .lookup(&mut tx, coll, "title", &key)
        .unwrap()
        .is_empty());
    assert!(tx.get::<Good>(id).is_err());
    // Removing again reports not-found.
    assert!(fx.collections.remove(&mut tx, coll, id).is_err());
    tx.commit().unwrap();
}

/// Members come and go without a new version of the collection object: a
/// commit of one insert and one remove leaves its descriptor as it was.
#[test]
fn insert_and_remove_leave_the_collection_object_unwritten() {
    let fx = fixture();
    let colls = &fx.collections;
    let (coll, old) = fx
        .objects
        .run(|tx| {
            let coll = colls.create_collection(tx, fx.partition, "goods")?;
            colls.add_index(tx, coll, "title", "by_title", IndexKind::Sorted)?;
            colls.add_index(tx, coll, "vendor", "by_vendor", IndexKind::Unsorted)?;
            Ok((coll, colls.insert(tx, coll, good("old", "v", 1))?))
        })
        .unwrap();
    let descriptor = || fx.objects.chunks().debug_descriptor(coll.0 .0).unwrap();
    let before = descriptor();
    fx.objects
        .run(|tx| {
            colls.insert(tx, coll, good("new", "v", 2))?;
            colls.remove(tx, coll, old)
        })
        .unwrap();
    assert_eq!(descriptor(), before);
    let mut tx = fx.objects.begin();
    assert_eq!(colls.len(&mut tx, coll).unwrap(), 1);
    tx.commit().unwrap();
}

#[test]
fn add_index_builds_over_existing_members() {
    let fx = fixture();
    let mut tx = fx.objects.begin();
    let coll = fx
        .collections
        .create_collection(&mut tx, fx.partition, "goods")
        .unwrap();
    for i in 0..30 {
        fx.collections
            .insert(&mut tx, coll, good(&format!("g{i:02}"), "v", i))
            .unwrap();
    }
    // Index added after the fact must cover everything.
    fx.collections
        .add_index(&mut tx, coll, "title", "by_title", IndexKind::Sorted)
        .unwrap();
    let key = IndexKey::new().str("g15").into_bytes();
    assert_eq!(
        fx.collections
            .lookup(&mut tx, coll, "title", &key)
            .unwrap()
            .len(),
        1
    );
    // Duplicate index name rejected.
    assert!(fx
        .collections
        .add_index(&mut tx, coll, "title", "by_title", IndexKind::Sorted)
        .is_err());
    tx.commit().unwrap();
}

#[test]
fn drop_index_then_lookup_fails() {
    let fx = fixture();
    let mut tx = fx.objects.begin();
    let coll = fx
        .collections
        .create_collection(&mut tx, fx.partition, "goods")
        .unwrap();
    fx.collections
        .add_index(&mut tx, coll, "title", "by_title", IndexKind::Sorted)
        .unwrap();
    fx.collections
        .insert(&mut tx, coll, good("x", "v", 1))
        .unwrap();
    assert_eq!(
        fx.collections.index_names(&mut tx, coll).unwrap(),
        vec!["title"]
    );
    fx.collections.drop_index(&mut tx, coll, "title").unwrap();
    assert!(fx
        .collections
        .index_names(&mut tx, coll)
        .unwrap()
        .is_empty());
    let key = IndexKey::new().str("x").into_bytes();
    assert!(fx.collections.lookup(&mut tx, coll, "title", &key).is_err());
    // Members are unaffected.
    assert_eq!(fx.collections.len(&mut tx, coll).unwrap(), 1);
    tx.commit().unwrap();
}

#[test]
fn partial_extractors_skip_objects() {
    let fx = fixture();
    let mut tx = fx.objects.begin();
    let coll = fx
        .collections
        .create_collection(&mut tx, fx.partition, "goods")
        .unwrap();
    fx.collections
        .add_index(&mut tx, coll, "paid", "by_paid_title", IndexKind::Sorted)
        .unwrap();
    let free = fx
        .collections
        .insert(&mut tx, coll, good("freebie", "v", 0))
        .unwrap();
    let paid = fx
        .collections
        .insert(&mut tx, coll, good("premium", "v", 999))
        .unwrap();

    let all = fx
        .collections
        .range(&mut tx, coll, "paid", None, None)
        .unwrap();
    assert_eq!(all, vec![paid], "unpaid goods are not indexed");

    // Updating the free good to paid adds it to the index.
    fx.collections
        .update(&mut tx, coll, free, good("freebie", "v", 100))
        .unwrap();
    let all = fx
        .collections
        .range(&mut tx, coll, "paid", None, None)
        .unwrap();
    assert_eq!(all.len(), 2);
    tx.commit().unwrap();
}

#[test]
fn collections_persist_across_sessions() {
    let fx = fixture();
    let coll = {
        let mut tx = fx.objects.begin();
        let coll = fx
            .collections
            .create_collection(&mut tx, fx.partition, "durable")
            .unwrap();
        fx.collections
            .add_index(&mut tx, coll, "title", "by_title", IndexKind::Sorted)
            .unwrap();
        fx.collections
            .insert(&mut tx, coll, good("persistent", "v", 5))
            .unwrap();
        tx.commit().unwrap();
        coll
    };
    // A fresh object store over the same chunks (cold cache, new session).
    let mut registry = TypeRegistry::new();
    register_builtin_types(&mut registry);
    registry.register(GOOD_TAG, unpickle_good);
    let fresh = ObjectStore::new(
        Arc::clone(fx.objects.chunks()),
        registry,
        ObjectStoreConfig::default(),
    );
    let mut extractors = ExtractorRegistry::new();
    extractors.register("by_title", by_title);
    let collections = CollectionStore::new(extractors);
    let mut tx = fresh.begin();
    assert_eq!(collections.len(&mut tx, coll).unwrap(), 1);
    let key = IndexKey::new().str("persistent").into_bytes();
    let hits = collections.lookup(&mut tx, coll, "title", &key).unwrap();
    assert_eq!(hits.len(), 1);
    let g = downcast::<Good>(tx.get_dyn(hits[0]).unwrap()).unwrap();
    assert_eq!(g.price_cents, 5);
    tx.abort();
}

#[test]
fn thirty_collections_with_indexes() {
    // The paper's benchmark "creates 30 collections for different object
    // types. Each collection has one to four indexes" (§9.5.1).
    let fx = fixture();
    let mut tx = fx.objects.begin();
    let mut colls = Vec::new();
    for i in 0..30 {
        let coll = fx
            .collections
            .create_collection(&mut tx, fx.partition, &format!("type-{i}"))
            .unwrap();
        let n_indexes = 1 + i % 4;
        for j in 0..n_indexes {
            let (name, extractor, kind) = match j {
                0 => ("title", "by_title", IndexKind::Sorted),
                1 => ("vendor", "by_vendor", IndexKind::Unsorted),
                2 => ("price", "by_price", IndexKind::Sorted),
                _ => ("paid", "by_paid_title", IndexKind::Sorted),
            };
            fx.collections
                .add_index(&mut tx, coll, name, extractor, kind)
                .unwrap();
        }
        colls.push(coll);
    }
    tx.commit().unwrap();

    let mut tx = fx.objects.begin();
    for (i, coll) in colls.iter().enumerate() {
        fx.collections
            .insert(&mut tx, *coll, good(&format!("g{i}"), "v", i as i64))
            .unwrap();
        assert_eq!(
            fx.collections.index_names(&mut tx, *coll).unwrap().len(),
            1 + i % 4
        );
    }
    tx.commit().unwrap();
}
