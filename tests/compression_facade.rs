//! Chunk-body compression through the facade and the chunk store (ISSUE 9):
//! the parity contract (knob off = byte-identical device-op shape to the
//! seed), knob-gated counters, flag-driven reads, verify-then-decompress
//! under a tamper sweep, and crash/fault torture with compression on.

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use tdb::{
    ChunkId, ChunkStore, ChunkStoreConfig, CommitOp, CryptoParams, PartitionId, StoredObject,
    TrustedBackend, TrustedDb, TrustedDbBuilder,
};
use tdb_core::proof::verify_read_proof;
use tdb_core::CoreError;
use tdb_crypto::SecretKey;
use tdb_storage::{
    CounterOverTrusted, CrashStore, FaultPlan, MemArchive, MemStore, MemTrustedStore,
    PlannedFaultStore, SharedUntrusted, StatsSnapshot, TrustedStore, UntrustedStore,
};

// ---------------------------------------------------------------------------
// Payload helpers: compressible and incompressible bodies.
// ---------------------------------------------------------------------------

/// Text-like, highly compressible body (the workload compression targets).
fn compressible(tag: usize, len: usize) -> Vec<u8> {
    let line = format!("record {tag}: the quick brown fox jumps over the lazy dog; ");
    line.as_bytes().iter().cycle().take(len).copied().collect()
}

/// Incompressible body: xorshift noise, always takes the stored-raw hatch.
fn incompressible(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Facade rig (mirrors tests/lazy_facade.rs so the parity story is shared).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
struct Doc {
    body: Vec<u8>,
}

const DOC_TAG: u32 = 94;

impl StoredObject for Doc {
    fn type_tag(&self) -> u32 {
        DOC_TAG
    }
    fn pickle(&self) -> Vec<u8> {
        self.body.clone()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn unpickle_doc(b: &[u8]) -> tdb_object::errors::Result<Arc<dyn StoredObject>> {
    Ok(Arc::new(Doc { body: b.to_vec() }))
}

struct Rig {
    db: TrustedDb,
    untrusted: Arc<MemStore>,
}

fn build(compression: Option<bool>) -> Rig {
    let untrusted = Arc::new(MemStore::new());
    let counter = Arc::new(CounterOverTrusted::new(
        Arc::new(MemTrustedStore::new(64)) as Arc<dyn TrustedStore>
    ));
    let mut builder = TrustedDbBuilder::new()
        // A fixed key keeps two builds byte-comparable.
        .secret(SecretKey::new(vec![7u8; 24]))
        .register_type(DOC_TAG, unpickle_doc);
    if let Some(on) = compression {
        builder = builder.chunk_config(ChunkStoreConfig {
            compression: on,
            ..ChunkStoreConfig::default()
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

/// Commits a mix of compressible documents, overwrites, a delete, and a
/// checkpoint — enough to touch the commit, checkpoint, and read paths.
fn doc_workload(db: &TrustedDb) -> Vec<Vec<u8>> {
    let p = db.partition();
    let mut ids = Vec::new();
    for i in 0..12 {
        let body = compressible(i, 900 + 37 * i);
        let id = db
            .run(|tx| tx.create(p, Arc::new(Doc { body: body.clone() })))
            .unwrap();
        ids.push(id);
    }
    db.run(|tx| {
        tx.put(
            ids[0],
            Arc::new(Doc {
                body: compressible(100, 1200),
            }),
        )
    })
    .unwrap();
    db.run(|tx| tx.delete(ids[11])).unwrap();
    ids.pop();
    db.checkpoint().unwrap();
    ids.iter()
        .map(|id| {
            let obj: Arc<Doc> = db.run(|tx| tx.get(*id)).unwrap();
            obj.body.clone()
        })
        .collect()
}

fn shape_of(rig: &Rig) -> StatsSnapshot {
    let mut snap = rig.untrusted.stats().snapshot();
    // Timings vary run to run; the *shape* is ops and bytes.
    snap.read_ns = 0;
    snap.write_ns = 0;
    snap.flush_ns = 0;
    snap
}

/// The parity contract: with the knob off (or left at its default) the
/// device-op shape is byte-identical to the seed's — compression must be
/// invisible until asked for. With the knob on, the same workload appends
/// strictly fewer bytes and every document reads back intact.
#[test]
fn compression_off_is_byte_identical_and_on_shrinks_the_log() {
    let baseline = build(None);
    let baseline_docs = doc_workload(&baseline.db);
    let expected = shape_of(&baseline);

    let off = build(Some(false));
    let off_docs = doc_workload(&off.db);
    assert_eq!(shape_of(&off), expected);
    assert_eq!(off_docs, baseline_docs);

    let on = build(Some(true));
    let on_docs = doc_workload(&on.db);
    assert_eq!(on_docs, baseline_docs, "compression must be transparent");
    let off_appended = off.db.chunks().stats().bytes_appended;
    let on_appended = on.db.chunks().stats().bytes_appended;
    assert!(
        on_appended < off_appended,
        "compressible workload must shrink the log: {on_appended} >= {off_appended}"
    );
}

// ---------------------------------------------------------------------------
// Chunk-store rig for knob, tamper, and torture tests.
// ---------------------------------------------------------------------------

fn store_config(compression: bool) -> ChunkStoreConfig {
    ChunkStoreConfig {
        fanout: 4,
        segment_size: 8192,
        compression,
        ..ChunkStoreConfig::default()
    }
}

struct StoreRig {
    secret: SecretKey,
    register: Arc<MemTrustedStore>,
    config: ChunkStoreConfig,
}

impl StoreRig {
    fn new(config: ChunkStoreConfig) -> StoreRig {
        StoreRig {
            secret: SecretKey::new(vec![9u8; 24]),
            register: Arc::new(MemTrustedStore::new(64)),
            config,
        }
    }

    fn backend(&self) -> TrustedBackend {
        TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(
            Arc::clone(&self.register) as Arc<dyn TrustedStore>,
        )))
    }

    fn create(&self, untrusted: SharedUntrusted) -> ChunkStore {
        ChunkStore::create(
            untrusted,
            self.backend(),
            self.secret.clone(),
            self.config.clone(),
        )
        .unwrap()
    }

    fn open_with(
        &self,
        untrusted: SharedUntrusted,
        config: ChunkStoreConfig,
    ) -> tdb_core::Result<ChunkStore> {
        ChunkStore::open(untrusted, self.backend(), self.secret.clone(), config)
    }
}

fn setup_partition(store: &ChunkStore) -> PartitionId {
    let p = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: CryptoParams::paper_default(),
        }])
        .unwrap();
    p
}

fn write(store: &ChunkStore, id: ChunkId, bytes: Vec<u8>) {
    store
        .commit(vec![CommitOp::WriteChunk { id, bytes }])
        .unwrap();
}

/// The four compression counters move only when the knob is on, and the
/// escape hatch shows up as `bodies_stored_raw` for incompressible input.
#[test]
fn counters_move_only_with_the_knob_on() {
    for on in [false, true] {
        let rig = StoreRig::new(store_config(on));
        let store = rig.create(Arc::new(MemStore::new()) as SharedUntrusted);
        let p = setup_partition(&store);
        for i in 0..6 {
            let id = store.allocate_chunk(p).unwrap();
            write(&store, id, compressible(i, 1000));
        }
        for i in 0..3 {
            let id = store.allocate_chunk(p).unwrap();
            write(&store, id, incompressible(i as u64 + 1, 1000));
        }
        store.checkpoint().unwrap();
        let stats = store.stats();
        if on {
            assert_eq!(stats.bodies_compressed, 6, "{stats:?}");
            assert_eq!(stats.bodies_stored_raw, 3, "{stats:?}");
            assert!(stats.log_bytes_saved > 0, "{stats:?}");
        } else {
            assert_eq!(stats.bodies_compressed, 0, "{stats:?}");
            assert_eq!(stats.bodies_stored_raw, 0, "{stats:?}");
            assert_eq!(stats.log_bytes_saved, 0, "{stats:?}");
        }
        assert_eq!(stats.decompress_fallbacks, 0, "{stats:?}");
    }
}

/// Reads are driven by the per-version flag, not the knob: an image
/// written with compression on recovers and reads back correctly under a
/// store opened with compression off (and vice versa, trivially).
#[test]
fn reads_are_flag_driven_not_knob_driven() {
    let rig = StoreRig::new(store_config(true));
    let mem = Arc::new(MemStore::new());
    let store = rig.create(Arc::clone(&mem) as SharedUntrusted);
    let p = setup_partition(&store);
    let mut expected = Vec::new();
    for i in 0..8 {
        let id = store.allocate_chunk(p).unwrap();
        let body = compressible(i, 700 + 91 * i);
        write(&store, id, body.clone());
        expected.push((id, body));
    }
    // Leave some versions only in the residual log (no checkpoint after),
    // so recovery's declared-length reconstruction is exercised too.
    store.checkpoint().unwrap();
    for (i, (id, body)) in expected.iter_mut().enumerate().take(4) {
        *body = compressible(50 + i, 1100);
        write(&store, *id, body.clone());
    }
    assert!(store.stats().bodies_compressed > 0);
    drop(store);

    let reopened = rig
        .open_with(
            Arc::new(MemStore::from_bytes(mem.image())) as SharedUntrusted,
            store_config(false),
        )
        .expect("recovery over compressed versions");
    for (id, body) in &expected {
        assert_eq!(&reopened.read(*id).unwrap(), body, "{id}");
    }
    // The knob is off on this handle: overwrites are stored raw.
    let (id0, _) = expected[0];
    write(&reopened, id0, compressible(999, 1500));
    assert_eq!(reopened.stats().bodies_compressed, 0);
}

/// Verify-then-decompress, end to end: flipping bytes anywhere in an
/// image holding compressed versions is either detected (a read error /
/// failed open) or harmless (an untouched read) — never a panic, never a
/// silently wrong body, because the descriptor hash over the *stored*
/// envelope is checked before the decompressor sees a single byte.
#[test]
fn tamper_sweep_over_compressed_image_never_corrupts_silently() {
    let rig = StoreRig::new(store_config(true));
    let mem = Arc::new(MemStore::new());
    let store = rig.create(Arc::clone(&mem) as SharedUntrusted);
    let p = setup_partition(&store);
    let mut expected = Vec::new();
    for i in 0..6 {
        let id = store.allocate_chunk(p).unwrap();
        let body = compressible(i, 800);
        write(&store, id, body.clone());
        expected.push((id, body));
    }
    store.checkpoint().unwrap();
    assert!(store.stats().bodies_compressed >= 6);
    drop(store);
    let image = mem.image();

    let mut detected = 0usize;
    for offset in (0..image.len()).step_by(131) {
        let mut tampered = image.clone();
        tampered[offset] ^= 0x10;
        let reopened = match rig.open_with(
            Arc::new(MemStore::from_bytes(tampered)) as SharedUntrusted,
            store_config(true),
        ) {
            Ok(s) => s,
            Err(_) => {
                detected += 1;
                continue;
            }
        };
        for (id, body) in &expected {
            match reopened.read(*id) {
                Ok(read) => assert_eq!(&read, body, "silent corruption at offset {offset}"),
                Err(_) => detected += 1,
            }
        }
    }
    assert!(detected > 0, "the sweep never hit a live byte");
}

/// Proofs over compressed chunks carry the stored envelope and stay
/// binding: the verifier demands the envelope hash AND that it decompress
/// to exactly the claimed plaintext.
#[test]
fn proofs_bind_the_stored_envelope() {
    let rig = StoreRig::new(store_config(true));
    let store = rig.create(Arc::new(MemStore::new()) as SharedUntrusted);
    let p = setup_partition(&store);
    let id = store.allocate_chunk(p).unwrap();
    let body = compressible(7, 1500);
    write(&store, id, body.clone());
    let raw_id = store.allocate_chunk(p).unwrap();
    let noise = incompressible(42, 1500);
    write(&store, raw_id, noise.clone());

    let root = store.snapshot_root(p).unwrap();
    let (got, proof) = store.read_with_proof(id).unwrap();
    assert_eq!(got, body);
    let stored = proof.stored_body.clone().expect("compressed leaf");
    assert!(stored.len() < body.len());
    assert!(verify_read_proof(&proof, &body, &root));

    // Dropping the envelope breaks the leaf hash (it covers stored bytes).
    let mut no_env = proof.clone();
    no_env.stored_body = None;
    assert!(!verify_read_proof(&no_env, &body, &root));
    // Tampering the envelope breaks either the hash or the decompression.
    let mut bad_env = proof.clone();
    bad_env.stored_body.as_mut().unwrap()[10] ^= 1;
    assert!(!verify_read_proof(&bad_env, &body, &root));
    // A proof cannot vouch for a different plaintext than its envelope.
    let mut other = body.clone();
    other[0] ^= 1;
    assert!(!verify_read_proof(&proof, &other, &root));
    // The wire format round-trips the envelope.
    let back = tdb::ReadProof::decode(&proof.encode()).unwrap();
    assert_eq!(back, proof);

    // Raw-stored chunks keep the seed's proof shape: no envelope at all.
    let (got, raw_proof) = store.read_with_proof(raw_id).unwrap();
    assert_eq!(got, noise);
    assert!(raw_proof.stored_body.is_none());
    assert!(verify_read_proof(&raw_proof, &noise, &root));
}

// ---------------------------------------------------------------------------
// Torture: crash and fault plans with compression on.
// ---------------------------------------------------------------------------

fn torture_config() -> ChunkStoreConfig {
    ChunkStoreConfig {
        fanout: 4,
        segment_size: 4096,
        max_segments: 24,
        checkpoint_threshold: 6,
        compression: true,
        ..ChunkStoreConfig::default()
    }
}

fn content(thread: usize, round: usize) -> Vec<u8> {
    // Compressible, like real records — so the crash/fault paths run over
    // compressed versions, not raw ones.
    compressible(thread * 31 + round, 300 + (thread * 37 + round * 53) % 400)
}

fn commit_patiently(store: &ChunkStore, id: ChunkId, bytes: &[u8]) -> bool {
    for _ in 0..200 {
        let ops = vec![CommitOp::WriteChunk {
            id,
            bytes: bytes.to_vec(),
        }];
        match store.commit(ops) {
            Ok(()) => return true,
            Err(CoreError::OutOfSpace) => std::thread::sleep(Duration::from_millis(5)),
            Err(CoreError::DegradedMode(_)) => {
                if store.try_heal().is_err() {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            Err(_) => return false,
        }
    }
    false
}

/// Acked commits of compressed versions survive a crash that loses every
/// unflushed write; recovery rebuilds descriptors (logical sizes included)
/// from the residual log.
#[test]
fn acked_compressed_commits_survive_crash() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 12;
    let rig = StoreRig::new(torture_config());
    let crash = Arc::new(CrashStore::new(Arc::new(MemStore::new())).unwrap());
    let store = rig.create(Arc::clone(&crash) as SharedUntrusted);
    let p = setup_partition(&store);
    let ids: Vec<Vec<ChunkId>> = (0..THREADS)
        .map(|_| (0..4).map(|_| store.allocate_chunk(p).unwrap()).collect())
        .collect();

    let acked: Mutex<HashMap<ChunkId, Vec<u8>>> = Mutex::new(HashMap::new());
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for (t, my_ids) in ids.iter().enumerate() {
            let (store, acked, barrier) = (&store, &acked, &barrier);
            s.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    let id = my_ids[round % my_ids.len()];
                    let bytes = content(t, round);
                    if commit_patiently(store, id, &bytes) {
                        acked.lock().unwrap().insert(id, bytes);
                    }
                }
            });
        }
    });
    assert!(store.stats().bodies_compressed > 0, "nothing compressed");
    let acked = acked.into_inner().unwrap();
    assert!(!acked.is_empty());
    drop(store);

    let image = crash.crash_lose_all();
    let reopened = rig
        .open_with(
            Arc::new(MemStore::from_bytes(image)) as SharedUntrusted,
            torture_config(),
        )
        .expect("recovery after losing all unflushed writes");
    for (id, bytes) in &acked {
        assert_eq!(
            &reopened.read(*id).unwrap(),
            bytes,
            "acked commit lost: {id}"
        );
    }
}

/// Seeded I/O faults with compression on never poison the store, and
/// every acknowledged commit survives recovery — the compressed write and
/// recovery paths inherit the seed's fault-isolation contract.
#[test]
#[ignore = "seeded fault sweep; run in the CI compression-torture step"]
fn seeded_faults_with_compression_never_poison() {
    const THREADS: usize = 4;
    for seed in [1u64, 2, 3, 4, 5] {
        let rig = StoreRig::new(torture_config());
        let mem = Arc::new(MemStore::new());
        let pf = Arc::new(PlannedFaultStore::new(
            Arc::clone(&mem) as SharedUntrusted,
            FaultPlan::new(),
        ));
        let store = rig.create(Arc::clone(&pf) as SharedUntrusted);
        let p = setup_partition(&store);
        let ids: Vec<Vec<ChunkId>> = (0..THREADS)
            .map(|_| (0..3).map(|_| store.allocate_chunk(p).unwrap()).collect())
            .collect();
        let horizon = pf.total_ops() + 300;
        pf.set_plan(FaultPlan::seeded(seed, horizon, 5));

        let acked: Mutex<Vec<(ChunkId, Vec<u8>)>> = Mutex::new(Vec::new());
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for (t, my_ids) in ids.iter().enumerate() {
                let (store, acked, barrier) = (&store, &acked, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for (round, id) in my_ids.iter().enumerate() {
                        let bytes = content(t, round);
                        if commit_patiently(store, *id, &bytes) {
                            acked.lock().unwrap().push((*id, bytes));
                        }
                    }
                });
            }
        });
        assert!(
            !store.health().is_poisoned(),
            "seed {seed}: an I/O fault must never poison"
        );
        let acked = acked.into_inner().unwrap();
        drop(store);

        pf.set_plan(FaultPlan::new());
        let reopened = rig
            .open_with(
                Arc::new(MemStore::from_bytes(mem.image())) as SharedUntrusted,
                torture_config(),
            )
            .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
        for (id, bytes) in &acked {
            assert_eq!(
                &reopened.read(*id).unwrap(),
                bytes,
                "seed {seed}: acknowledged commit lost: {id}"
            );
        }
    }
}
