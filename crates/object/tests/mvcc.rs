//! Snapshot-isolation semantics of MVCC transactions: stable snapshots,
//! first-committer-wins conflicts, write skew (admitted by SI), deletes,
//! proof-carrying reads, and retry plumbing.

use std::any::Any;
use std::sync::Arc;

use tdb_core::store::{ChunkStore, ChunkStoreConfig, CommitOp, TrustedBackend, ValidationMode};
use tdb_core::{CryptoParams, PartitionId};
use tdb_crypto::{CipherKind, HashKind, SecretKey};
use tdb_object::errors::ObjectError;
use tdb_object::pickle::{StoredObject, TypeRegistry};
use tdb_object::{ObjectId, ObjectStore, ObjectStoreConfig};
use tdb_storage::{CounterOverTrusted, MemStore, MemTrustedStore, SharedUntrusted};

#[derive(Debug, PartialEq)]
struct Val(u64);

impl StoredObject for Val {
    fn type_tag(&self) -> u32 {
        7
    }
    fn pickle(&self) -> Vec<u8> {
        self.0.to_le_bytes().to_vec()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn registry() -> TypeRegistry {
    let mut reg = TypeRegistry::new();
    reg.register(7, |body| {
        Ok(Arc::new(Val(u64::from_le_bytes(
            body.try_into()
                .map_err(|_| ObjectError::BadPickle("val".into()))?,
        ))))
    });
    reg
}

fn fixture(mvcc: bool) -> (Arc<ObjectStore>, PartitionId) {
    let chunks = Arc::new(
        ChunkStore::create(
            Arc::new(MemStore::new()) as SharedUntrusted,
            TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(Arc::new(
                MemTrustedStore::new(64),
            )))),
            SecretKey::random(24),
            ChunkStoreConfig {
                fanout: 8,
                segment_size: 16384,
                validation: ValidationMode::Counter {
                    delta_ut: 5,
                    delta_tu: 0,
                },
                ..ChunkStoreConfig::default()
            },
        )
        .unwrap(),
    );
    let partition = chunks.allocate_partition().unwrap();
    chunks
        .commit(vec![CommitOp::CreatePartition {
            id: partition,
            params: CryptoParams::generate(CipherKind::Des, HashKind::Sha1),
        }])
        .unwrap();
    let store = ObjectStore::new(
        chunks,
        registry(),
        ObjectStoreConfig {
            mvcc,
            ..ObjectStoreConfig::default()
        },
    );
    (store, partition)
}

fn seed(store: &ObjectStore, p: PartitionId, v: u64) -> ObjectId {
    store.run_mvcc(|tx| tx.create(p, Arc::new(Val(v)))).unwrap()
}

#[test]
fn mvcc_disabled_by_default() {
    let (store, _) = fixture(false);
    assert!(!store.mvcc_enabled());
    assert!(matches!(
        store.begin_mvcc().map(|_| ()),
        Err(ObjectError::MvccDisabled)
    ));
    assert!(store.mvcc_stats().is_none());
}

#[test]
fn snapshots_read_a_frozen_view() {
    let (store, p) = fixture(true);
    let id = seed(&store, p, 1);

    let mut reader = store.begin_mvcc().unwrap();
    assert_eq!(reader.get::<Val>(id).unwrap().0, 1);

    // A concurrent writer commits v2 while the reader stays open.
    store.run_mvcc(|tx| tx.put(id, Arc::new(Val(2)))).unwrap();

    // The open snapshot still sees v1; a fresh one sees v2.
    assert_eq!(reader.get::<Val>(id).unwrap().0, 1);
    let mut fresh = store.begin_mvcc().unwrap();
    assert_eq!(fresh.get::<Val>(id).unwrap().0, 2);
    reader.abort();
    fresh.abort();
}

#[test]
fn lost_update_is_rejected() {
    let (store, p) = fixture(true);
    let id = seed(&store, p, 10);

    let mut t1 = store.begin_mvcc().unwrap();
    let mut t2 = store.begin_mvcc().unwrap();
    let v1 = t1.get::<Val>(id).unwrap().0;
    let v2 = t2.get::<Val>(id).unwrap().0;
    t1.put(id, Arc::new(Val(v1 + 1))).unwrap();
    t2.put(id, Arc::new(Val(v2 + 1))).unwrap();

    t1.commit().unwrap();
    // First committer won; the second must conflict, not overwrite.
    assert!(matches!(
        t2.commit(),
        Err(ObjectError::WriteConflict(c)) if c == id
    ));
    assert_eq!(
        store
            .get_committed(id, true)
            .unwrap()
            .as_any()
            .downcast_ref::<Val>()
            .unwrap()
            .0,
        11
    );
    assert_eq!(store.mvcc_stats().unwrap().conflicts, 1);
}

#[test]
fn write_skew_is_admitted() {
    // SI's documented anomaly: disjoint write sets never conflict even
    // when each transaction read what the other wrote.
    let (store, p) = fixture(true);
    let x = seed(&store, p, 1);
    let y = seed(&store, p, 1);

    let mut t1 = store.begin_mvcc().unwrap();
    let mut t2 = store.begin_mvcc().unwrap();
    let saw_y = t1.get::<Val>(y).unwrap().0;
    let saw_x = t2.get::<Val>(x).unwrap().0;
    t1.put(x, Arc::new(Val(saw_y + 10))).unwrap();
    t2.put(y, Arc::new(Val(saw_x + 20))).unwrap();
    t1.commit().unwrap();
    t2.commit().unwrap();

    let mut check = store.begin_mvcc().unwrap();
    assert_eq!(check.get::<Val>(x).unwrap().0, 11);
    assert_eq!(check.get::<Val>(y).unwrap().0, 21);
    check.abort();
}

#[test]
fn deletes_are_versioned() {
    let (store, p) = fixture(true);
    let id = seed(&store, p, 5);

    let mut old = store.begin_mvcc().unwrap();
    assert_eq!(old.get::<Val>(id).unwrap().0, 5);

    store.run_mvcc(|tx| tx.delete(id)).unwrap();

    // The pre-delete snapshot still resolves the object.
    assert_eq!(old.get::<Val>(id).unwrap().0, 5);
    old.abort();
    // New snapshots observe the deletion.
    let mut fresh = store.begin_mvcc().unwrap();
    assert!(matches!(
        fresh.get::<Val>(id),
        Err(ObjectError::NotFound(n)) if n == id
    ));
    fresh.abort();
}

#[test]
fn conflicting_commit_leaves_store_untouched() {
    let (store, p) = fixture(true);
    let id = seed(&store, p, 1);
    let other = seed(&store, p, 100);

    let mut loser = store.begin_mvcc().unwrap();
    loser.put(id, Arc::new(Val(2))).unwrap();
    loser.put(other, Arc::new(Val(200))).unwrap();
    store.run_mvcc(|tx| tx.put(id, Arc::new(Val(3)))).unwrap();
    assert!(loser.commit().is_err());

    // Neither of the loser's writes landed — not even the unconflicted one.
    let mut check = store.begin_mvcc().unwrap();
    assert_eq!(check.get::<Val>(id).unwrap().0, 3);
    assert_eq!(check.get::<Val>(other).unwrap().0, 100);
    check.abort();
}

#[test]
fn run_mvcc_retries_conflicts() {
    let (store, p) = fixture(true);
    let id = seed(&store, p, 0);

    // Interleave a conflicting commit on the first attempt only.
    let mut first = true;
    store
        .run_mvcc(|tx| {
            let v = tx.get::<Val>(id)?.0;
            if first {
                first = false;
                store.run_mvcc(|inner| inner.put(id, Arc::new(Val(v + 100))))?;
            }
            tx.put(id, Arc::new(Val(v + 1)))
        })
        .unwrap();

    // The retry re-read the committed 100 and incremented it.
    let mut check = store.begin_mvcc().unwrap();
    assert_eq!(check.get::<Val>(id).unwrap().0, 101);
    check.abort();
    assert!(store.mvcc_stats().unwrap().conflicts >= 1);
}

#[test]
fn one_write_per_object() {
    // Repeated writes to one object buffer and commit as one write: the
    // same op set, byte for byte, as a twin that writes each object's
    // final state once. Conflict detection still sees the object.
    let seeded = || {
        let (store, p) = fixture(true);
        let ids: Vec<ObjectId> = (0..3).map(|v| seed(&store, p, v)).collect();
        (store, ids)
    };
    let (busy, ids) = seeded();
    let (twin, twin_ids) = seeded();
    let (a, b, c) = (ids[0], ids[1], ids[2]);

    let mut rival = busy.begin_mvcc().unwrap();
    rival.put(a, Arc::new(Val(7))).unwrap();
    rival.put(a, Arc::new(Val(8))).unwrap();
    assert_eq!(rival.pending_writes(), 1);

    let before = busy.chunks().stats().bytes_appended;
    let mut tx = busy.begin_mvcc().unwrap();
    tx.put(a, Arc::new(Val(10))).unwrap();
    tx.put(b, Arc::new(Val(20))).unwrap();
    for i in 0..100 {
        tx.put(a, Arc::new(Val(100 + i))).unwrap();
    }
    tx.delete(c).unwrap();
    tx.put(b, Arc::new(Val(21))).unwrap();
    assert_eq!(tx.pending_writes(), 3);
    tx.commit().unwrap();
    let busy_appended = busy.chunks().stats().bytes_appended - before;
    assert!(matches!(
        rival.commit(),
        Err(ObjectError::WriteConflict(id)) if id == a
    ));

    let before = twin.chunks().stats().bytes_appended;
    let mut tx = twin.begin_mvcc().unwrap();
    tx.put(twin_ids[0], Arc::new(Val(199))).unwrap();
    tx.put(twin_ids[1], Arc::new(Val(21))).unwrap();
    tx.delete(twin_ids[2]).unwrap();
    assert_eq!(tx.pending_writes(), 3);
    tx.commit().unwrap();
    assert_eq!(busy_appended, twin.chunks().stats().bytes_appended - before);

    busy.invalidate_cache();
    let mut check = busy.begin_mvcc().unwrap();
    assert_eq!(check.get::<Val>(a).unwrap().0, 199);
    assert_eq!(check.get::<Val>(b).unwrap().0, 21);
    assert!(matches!(
        check.get::<Val>(c),
        Err(ObjectError::NotFound(n)) if n == c
    ));
    check.abort();
}

#[test]
fn proof_reads_verify_against_the_root() {
    let (store, p) = fixture(true);
    let id = seed(&store, p, 42);

    let root = store.snapshot_root(p).unwrap();
    let mut tx = store.begin_mvcc().unwrap();
    let (val, proof) = tx.get_with_proof::<Val>(id).unwrap();
    assert_eq!(val.0, 42);
    let proof = proof.expect("current version is provable");
    assert!(proof.verify(&root));
    // The proof is bound to the record: a different root refuses it.
    let other_root = tdb_crypto::HashValue::zero(root.as_bytes().len());
    assert!(!proof.verify(&other_root));
    tx.abort();
}

#[test]
fn superseded_snapshots_fall_back_to_unproofed_reads() {
    let (store, p) = fixture(true);
    let id = seed(&store, p, 1);

    let mut old = store.begin_mvcc().unwrap();
    assert_eq!(old.get::<Val>(id).unwrap().0, 1);
    store.run_mvcc(|tx| tx.put(id, Arc::new(Val(2)))).unwrap();

    // The old snapshot's version is no longer the tree's current state:
    // the value is still correct but cannot carry a proof.
    let (val, proof) = old.get_with_proof::<Val>(id).unwrap();
    assert_eq!(val.0, 1);
    assert!(proof.is_none());
    old.abort();
    assert!(store.mvcc_stats().unwrap().proof_fallbacks >= 1);

    // A fresh snapshot proves the new version against the new root.
    let root = store.snapshot_root(p).unwrap();
    let mut fresh = store.begin_mvcc().unwrap();
    let (val, proof) = fresh.get_with_proof::<Val>(id).unwrap();
    assert_eq!(val.0, 2);
    assert!(proof.unwrap().verify(&root));
    fresh.abort();
}

#[test]
fn own_writes_read_back_without_proof() {
    let (store, p) = fixture(true);
    let id = seed(&store, p, 1);
    let mut tx = store.begin_mvcc().unwrap();
    tx.put(id, Arc::new(Val(9))).unwrap();
    let (val, proof) = tx.get_with_proof::<Val>(id).unwrap();
    assert_eq!(val.0, 9);
    assert!(proof.is_none(), "uncommitted writes cannot be proven");
    tx.commit().unwrap();
}

#[test]
fn version_chains_prune_when_snapshots_close() {
    let (store, p) = fixture(true);
    let id = seed(&store, p, 0);
    {
        let mut old = store.begin_mvcc().unwrap();
        let _ = old.get::<Val>(id).unwrap();
        for i in 1..=4 {
            store.run_mvcc(|tx| tx.put(id, Arc::new(Val(i)))).unwrap();
        }
        assert!(store.mvcc_stats().unwrap().chained_objects >= 1);
        old.abort();
    }
    // No snapshot pins history: chains collapse to the store state.
    assert_eq!(store.mvcc_stats().unwrap().chained_objects, 0);
    let mut check = store.begin_mvcc().unwrap();
    assert_eq!(check.get::<Val>(id).unwrap().0, 4);
    check.abort();
}
