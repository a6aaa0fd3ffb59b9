//! Lazy integrity through the `TrustedDb` facade, on the default
//! configuration: root digests agree with the paper's eager recompute (the
//! same build forgetting its memo before every query), and the memo is
//! pure CPU-side work — it never changes what is read from or written to
//! the untrusted store.

use std::any::Any;
use std::sync::Arc;

use tdb::{StoredObject, TrustedBackend, TrustedDb, TrustedDbBuilder};
use tdb_crypto::SecretKey;
use tdb_storage::{
    CounterOverTrusted, MemArchive, MemStore, MemTrustedStore, StatsSnapshot, TrustedStore,
    UntrustedStore,
};

#[derive(Debug, Clone, PartialEq)]
struct Note {
    body: String,
}

const NOTE_TAG: u32 = 93;

impl StoredObject for Note {
    fn type_tag(&self) -> u32 {
        NOTE_TAG
    }
    fn pickle(&self) -> Vec<u8> {
        self.body.as_bytes().to_vec()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn unpickle_note(b: &[u8]) -> tdb_object::errors::Result<Arc<dyn StoredObject>> {
    Ok(Arc::new(Note {
        body: String::from_utf8(b.to_vec()).unwrap(),
    }))
}

fn note(i: usize) -> Arc<Note> {
    Arc::new(Note {
        body: format!("note body {i}"),
    })
}

struct Rig {
    db: TrustedDb,
    untrusted: Arc<MemStore>,
}

fn build() -> Rig {
    let untrusted = Arc::new(MemStore::new());
    let counter = Arc::new(CounterOverTrusted::new(
        Arc::new(MemTrustedStore::new(64)) as Arc<dyn TrustedStore>
    ));
    let db = TrustedDbBuilder::new()
        // A fixed key keeps two builds byte-comparable.
        .secret(SecretKey::new(vec![7u8; 24]))
        .register_type(NOTE_TAG, unpickle_note)
        .create(
            Arc::clone(&untrusted) as _,
            TrustedBackend::Counter(counter),
            Arc::new(MemArchive::new()),
        )
        .unwrap();
    Rig { db, untrusted }
}

/// A proof-heavy single-writer workload: batches of commits interleaved
/// with root queries (the path the accumulator memoizes), then a
/// checkpoint and more queries against the checkpointed tree. `eager`
/// forgets the memo before every query.
fn proof_heavy_workload(db: &TrustedDb, eager: bool) -> Vec<tdb_crypto::HashValue> {
    let p = db.partition();
    let root = || {
        if eager {
            db.chunks().debug_forget_integrity_memo();
        }
        db.snapshot_root().unwrap()
    };
    let mut roots = Vec::new();
    let mut ids = Vec::new();
    for batch in 0..4 {
        for i in 0..6 {
            let id = db.run(|tx| tx.create(p, note(batch * 6 + i))).unwrap();
            ids.push(id);
        }
        // Mid-batch root queries; the second one hits the memo.
        roots.push(root());
        roots.push(root());
    }
    db.run(|tx| tx.put(ids[0], note(100))).unwrap();
    db.run(|tx| tx.delete(ids[5])).unwrap();
    roots.push(root());
    db.checkpoint().unwrap();
    roots.push(root());
    db.run(|tx| tx.put(ids[1], note(200))).unwrap();
    roots.push(root());
    roots
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
fn lazy_integrity_keeps_the_device_op_shape_and_roots() {
    // The memo changes *when hashes are recomputed*, never what the device
    // sees — and every root digest matches the eager recompute.
    let lazy = build();
    let lazy_roots = proof_heavy_workload(&lazy.db, false);
    let eager = build();
    let eager_roots = proof_heavy_workload(&eager.db, true);
    assert_eq!(lazy_roots, eager_roots);
    assert_eq!(shape_of(&lazy), shape_of(&eager));
}

#[test]
fn lazy_mode_actually_memoizes() {
    let lazy = build();
    proof_heavy_workload(&lazy.db, false);
    let stats = lazy.db.chunks().stats();
    assert!(
        stats.lazy_hash_hits > 0,
        "repeated root queries should hit the memo: {stats:?}"
    );
    assert!(stats.lazy_hash_recomputes > 0);
    assert!(stats.lazy_invalidations > 0);
}
