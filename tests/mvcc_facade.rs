//! MVCC through the `TrustedDb` facade: the builder knob, verifiable
//! reads with the pinned root digest, collections running unchanged under
//! snapshot isolation, and — the parity contract — `mvcc = off` leaving
//! the paper's single-writer device-op shape untouched.

use std::any::Any;
use std::sync::Arc;

use tdb::{
    IndexKey, IndexKind, ObjectStoreConfig, StoredObject, TrustedBackend, TrustedDb,
    TrustedDbBuilder, Tx,
};
use tdb_crypto::SecretKey;
use tdb_object::errors::ObjectError;
use tdb_storage::{
    CounterOverTrusted, MemArchive, MemStore, MemTrustedStore, StatsSnapshot, TrustedStore,
    UntrustedStore,
};

#[derive(Debug, Clone, PartialEq)]
struct Note {
    author: String,
    body: String,
}

const NOTE_TAG: u32 = 91;

impl StoredObject for Note {
    fn type_tag(&self) -> u32 {
        NOTE_TAG
    }
    fn pickle(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for s in [&self.author, &self.body] {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        out
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn unpickle_note(b: &[u8]) -> tdb_object::errors::Result<Arc<dyn StoredObject>> {
    let mut off = 0usize;
    let mut get_str = || {
        let n = u32::from_le_bytes(b[off..off + 4].try_into().unwrap()) as usize;
        let s = String::from_utf8(b[off + 4..off + 4 + n].to_vec()).unwrap();
        off += 4 + n;
        s
    };
    let author = get_str();
    let body = get_str();
    Ok(Arc::new(Note { author, body }))
}

fn note_by_author(o: &dyn StoredObject) -> Option<Vec<u8>> {
    o.as_any()
        .downcast_ref::<Note>()
        .map(|n| IndexKey::new().str(&n.author).into_bytes())
}

fn note(author: &str, i: usize) -> Arc<Note> {
    Arc::new(Note {
        author: author.to_string(),
        body: format!("note body {i}"),
    })
}

struct Rig {
    db: TrustedDb,
    untrusted: Arc<MemStore>,
}

fn build(mvcc: Option<bool>) -> Rig {
    let untrusted = Arc::new(MemStore::new());
    let counter = Arc::new(CounterOverTrusted::new(
        Arc::new(MemTrustedStore::new(64)) as Arc<dyn TrustedStore>
    ));
    let mut builder = TrustedDbBuilder::new()
        // A fixed key keeps two builds byte-comparable.
        .secret(SecretKey::new(vec![7u8; 24]))
        .register_type(NOTE_TAG, unpickle_note)
        .register_extractor("note_by_author", note_by_author);
    if let Some(on) = mvcc {
        builder = builder.object_config(ObjectStoreConfig {
            mvcc: on,
            ..ObjectStoreConfig::default()
        });
    }
    let db = builder
        .create(
            Arc::clone(&untrusted) as _,
            TrustedBackend::Counter(counter),
            Arc::new(MemArchive::new()),
        )
        .unwrap();
    Rig { db, untrusted }
}

/// The seed's single-writer workload: objects and an indexed collection
/// driven through legacy `Tx` transactions.
fn single_writer_workload(db: &TrustedDb) {
    let p = db.partition();
    let coll = db
        .run(|tx| {
            let coll = db.collections().create_collection(tx, p, "notes")?;
            db.collections().add_index(
                tx,
                coll,
                "by_author",
                "note_by_author",
                IndexKind::Sorted,
            )?;
            Ok(coll)
        })
        .unwrap();
    let ids: Vec<_> = (0..12)
        .map(|i| {
            db.run(|tx| {
                let id = tx.create(p, note(["ada", "bob", "eve"][i % 3], i))?;
                db.collections().add(tx, coll, id)?;
                Ok(id)
            })
            .unwrap()
        })
        .collect();
    db.run(|tx| {
        tx.put(ids[0], note("ada", 100))?;
        db.collections().remove(tx, coll, ids[5])
    })
    .unwrap();
    db.checkpoint().unwrap();
}

fn shape_of(rig: &Rig) -> StatsSnapshot {
    let mut snap = rig.untrusted.stats().snapshot();
    // Timings vary run to run; the *shape* is ops and bytes.
    snap.read_ns = 0;
    snap.write_ns = 0;
    snap.flush_ns = 0;
    snap
}

#[test]
fn mvcc_off_keeps_the_single_writer_device_op_shape() {
    // Baseline: the builder untouched (the seed's configuration).
    let baseline = build(None);
    single_writer_workload(&baseline.db);
    let expected = shape_of(&baseline);

    // Explicitly off: byte-for-byte the same device traffic.
    let off = build(Some(false));
    assert!(!off.db.objects().mvcc_enabled());
    single_writer_workload(&off.db);
    assert_eq!(shape_of(&off), expected);

    // On but unused: the knob adds no device traffic to the legacy path.
    let on = build(Some(true));
    assert!(on.db.objects().mvcc_enabled());
    single_writer_workload(&on.db);
    assert_eq!(shape_of(&on), expected);
}

#[test]
fn begin_mvcc_requires_the_knob() {
    let rig = build(None);
    assert!(matches!(
        rig.db.begin_mvcc().map(|_| ()),
        Err(tdb::TdbError::Object(ObjectError::MvccDisabled))
    ));
}

#[test]
fn facade_round_trip_with_verifiable_reads() {
    let rig = build(Some(true));
    let p = rig.db.partition();
    let id = rig.db.run_mvcc(|tx| tx.create(p, note("ada", 1))).unwrap();

    // The client pins the root digest, then verifies reads offline.
    let root = rig.db.snapshot_root().unwrap();
    let mut tx = rig.db.begin_mvcc().unwrap();
    let (read, proof) = tx.get_with_proof::<Note>(id).unwrap();
    assert_eq!(read.author, "ada");
    let proof = proof.expect("fresh snapshot reads prove");
    assert!(proof.verify(&root));
    assert!(tdb::verify_read_proof(&proof.proof, &proof.record, &root));
    tx.abort();

    // A later commit moves the root; the old digest rejects new proofs.
    rig.db.run_mvcc(|tx| tx.put(id, note("ada", 2))).unwrap();
    let new_root = rig.db.snapshot_root().unwrap();
    assert_ne!(root, new_root);
    let mut tx = rig.db.begin_mvcc().unwrap();
    let (_, proof) = tx.get_with_proof::<Note>(id).unwrap();
    let proof = proof.unwrap();
    assert!(proof.verify(&new_root));
    assert!(!proof.verify(&root));
    tx.abort();
}

#[test]
fn collections_run_unchanged_under_mvcc() {
    let rig = build(Some(true));
    let db = &rig.db;
    let p = db.partition();

    // The same collection code drives MvccTx through `Transactional`.
    let coll = db
        .run_mvcc(|tx| {
            let coll = db.collections().create_collection(tx, p, "notes")?;
            db.collections().add_index(
                tx,
                coll,
                "by_author",
                "note_by_author",
                IndexKind::Sorted,
            )?;
            Ok(coll)
        })
        .unwrap();
    for i in 0..9 {
        db.run_mvcc(|tx| {
            let id = tx.create(p, note(["ada", "bob", "eve"][i % 3], i))?;
            db.collections().add(tx, coll, id)
        })
        .unwrap();
    }

    let hits = db
        .run_mvcc(|tx| {
            db.collections().lookup(
                tx,
                coll,
                "by_author",
                &IndexKey::new().str("bob").into_bytes(),
            )
        })
        .unwrap();
    assert_eq!(hits.len(), 3);
    let len = db.run_mvcc(|tx| db.collections().len(tx, coll)).unwrap();
    assert_eq!(len, 9);

    // And the legacy Tx sees the same committed collection.
    let legacy_len = db
        .run(|tx: &mut Tx| db.collections().len(tx, coll))
        .unwrap();
    assert_eq!(legacy_len, 9);
}
