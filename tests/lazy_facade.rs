//! Lazy integrity through the `TrustedDb` facade: the builder knob, root
//! digests agreeing with the eager paper path, and — the parity contract —
//! the knob (off *or* on) leaving the device-op shape byte-identical: the
//! accumulator is pure CPU-side memoization and never changes what is read
//! from or written to the untrusted store.

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

fn build(lazy: Option<bool>) -> Rig {
    let untrusted = Arc::new(MemStore::new());
    let counter = Arc::new(CounterOverTrusted::new(
        Arc::new(MemTrustedStore::new(64)) as Arc<dyn TrustedStore>
    ));
    let mut builder = TrustedDbBuilder::new()
        // A fixed key keeps two builds byte-comparable.
        .secret(SecretKey::new(vec![7u8; 24]))
        .register_type(NOTE_TAG, unpickle_note);
    if let Some(on) = lazy {
        builder = builder.lazy_integrity(on);
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

/// A proof-heavy single-writer workload: batches of commits interleaved
/// with root queries (the path the accumulator memoizes), then a
/// checkpoint and more queries against the checkpointed tree.
fn proof_heavy_workload(db: &TrustedDb) -> Vec<tdb_crypto::HashValue> {
    let p = db.partition();
    let mut roots = Vec::new();
    let mut ids = Vec::new();
    for batch in 0..4 {
        for i in 0..6 {
            let id = db.run(|tx| tx.create(p, note(batch * 6 + i))).unwrap();
            ids.push(id);
        }
        // Mid-batch root queries: correct (and identical) in both modes.
        roots.push(db.snapshot_root().unwrap());
        roots.push(db.snapshot_root().unwrap());
    }
    db.run(|tx| tx.put(ids[0], note(100))).unwrap();
    db.run(|tx| tx.delete(ids[5])).unwrap();
    roots.push(db.snapshot_root().unwrap());
    db.checkpoint().unwrap();
    roots.push(db.snapshot_root().unwrap());
    db.run(|tx| tx.put(ids[1], note(200))).unwrap();
    roots.push(db.snapshot_root().unwrap());
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
    // Baseline: the builder untouched (the default configuration).
    let baseline = build(None);
    let baseline_roots = proof_heavy_workload(&baseline.db);
    let expected = shape_of(&baseline);

    // Explicitly off: byte-for-byte the same device traffic.
    let off = build(Some(false));
    let off_roots = proof_heavy_workload(&off.db);
    assert_eq!(shape_of(&off), expected);
    assert_eq!(off_roots, baseline_roots);

    // On: the memo changes *when hashes are recomputed*, never what the
    // device sees — and every root digest matches the eager path.
    let on = build(Some(true));
    let on_roots = proof_heavy_workload(&on.db);
    assert_eq!(shape_of(&on), expected);
    assert_eq!(on_roots, baseline_roots);
}

#[test]
fn lazy_mode_actually_memoizes() {
    let on = build(Some(true));
    proof_heavy_workload(&on.db);
    let stats = on.db.chunks().stats();
    assert!(
        stats.lazy_hash_hits > 0,
        "repeated root queries should hit the memo: {stats:?}"
    );
    assert!(stats.lazy_hash_recomputes > 0);
    assert!(stats.lazy_invalidations > 0);

    // Eager stores never touch the accumulator.
    let off = build(Some(false));
    proof_heavy_workload(&off.db);
    let stats = off.db.chunks().stats();
    assert_eq!(stats.lazy_hash_hits, 0);
    assert_eq!(stats.lazy_hash_recomputes, 0);
    assert_eq!(stats.lazy_invalidations, 0);
}
