//! Integration tests for the chunk store: the §4/§5 API contract, crash
//! recovery, tamper detection, partitions, snapshots, and cleaning.

use std::sync::Arc;

use tdb_core::store::{ChunkStore, ChunkStoreConfig, CommitOp, TrustedBackend, ValidationMode};
use tdb_core::{ChunkId, CoreError, CryptoParams, DiffChange, PartitionId, TamperKind};
use tdb_crypto::{CipherKind, HashKind, SecretKey};
use tdb_storage::{
    CounterOverTrusted, CrashStore, FaultPlan, MemStore, MemTrustedStore, MonotonicCounter,
    PlannedFaultStore, SharedUntrusted, TrustedStore, UntrustedStore,
};

/// A small-geometry config that exercises tree growth and segment
/// switching quickly.
fn small_config(validation: ValidationMode) -> ChunkStoreConfig {
    ChunkStoreConfig {
        fanout: 4,
        segment_size: 4096,
        map_cache_capacity: 64,
        checkpoint_threshold: 1000, // Explicit checkpoints only, by default.
        validation,
        ..ChunkStoreConfig::default()
    }
}

fn counter_mode() -> ValidationMode {
    ValidationMode::Counter {
        delta_ut: 5,
        delta_tu: 0,
    }
}

struct Fixture {
    secret: SecretKey,
    untrusted: Arc<MemStore>,
    register: Arc<MemTrustedStore>,
    config: ChunkStoreConfig,
}

impl Fixture {
    fn new(validation: ValidationMode) -> Fixture {
        Fixture {
            secret: SecretKey::random(24),
            untrusted: Arc::new(MemStore::new()),
            register: Arc::new(MemTrustedStore::new(64)),
            config: small_config(validation),
        }
    }

    fn backend(&self) -> TrustedBackend {
        match self.config.validation {
            ValidationMode::Counter { .. } => TrustedBackend::Counter(Arc::new(
                CounterOverTrusted::new(Arc::clone(&self.register) as Arc<dyn TrustedStore>),
            )),
            ValidationMode::DirectHash => {
                TrustedBackend::Register(Arc::clone(&self.register) as Arc<dyn TrustedStore>)
            }
        }
    }

    fn create(&self) -> ChunkStore {
        ChunkStore::create(
            Arc::clone(&self.untrusted) as SharedUntrusted,
            self.backend(),
            self.secret.clone(),
            self.config.clone(),
        )
        .expect("create store")
    }

    fn reopen(&self) -> tdb_core::Result<ChunkStore> {
        ChunkStore::open(
            Arc::clone(&self.untrusted) as SharedUntrusted,
            self.backend(),
            self.secret.clone(),
            self.config.clone(),
        )
    }

    /// Reopens against a crash image (a fresh MemStore holding `image`).
    fn reopen_image(&self, image: Vec<u8>) -> tdb_core::Result<ChunkStore> {
        ChunkStore::open(
            Arc::new(MemStore::from_bytes(image)) as SharedUntrusted,
            self.backend(),
            self.secret.clone(),
            self.config.clone(),
        )
    }
}

fn des_params() -> CryptoParams {
    CryptoParams::generate(CipherKind::Des, HashKind::Sha1)
}

/// Creates a partition and returns its id.
fn make_partition(store: &ChunkStore) -> PartitionId {
    let p = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: des_params(),
        }])
        .unwrap();
    p
}

fn write_one(store: &ChunkStore, p: PartitionId, data: &[u8]) -> ChunkId {
    let c = store.allocate_chunk(p).unwrap();
    store
        .commit(vec![CommitOp::WriteChunk {
            id: c,
            bytes: data.to_vec(),
        }])
        .unwrap();
    c
}

// ---------------------------------------------------------------------------
// Basic §4.1 contract.
// ---------------------------------------------------------------------------

#[test]
fn write_read_roundtrip() {
    let fx = Fixture::new(counter_mode());
    let store = fx.create();
    let p = make_partition(&store);
    let c = write_one(&store, p, b"hello trusted world");
    assert_eq!(store.read(c).unwrap(), b"hello trusted world");
}

#[test]
fn read_unwritten_and_unallocated_signal() {
    let fx = Fixture::new(counter_mode());
    let store = fx.create();
    let p = make_partition(&store);
    let c = store.allocate_chunk(p).unwrap();
    assert!(matches!(store.read(c), Err(CoreError::NotWritten(_))));
    let bogus = ChunkId::data(p, 999);
    assert!(matches!(store.read(bogus), Err(CoreError::NotAllocated(_))));
}

#[test]
fn overwrite_changes_state_and_size() {
    let fx = Fixture::new(counter_mode());
    let store = fx.create();
    let p = make_partition(&store);
    let c = write_one(&store, p, b"short");
    store
        .commit(vec![CommitOp::WriteChunk {
            id: c,
            bytes: vec![7u8; 3000],
        }])
        .unwrap();
    assert_eq!(store.read(c).unwrap(), vec![7u8; 3000]);
}

#[test]
fn dealloc_then_read_signals() {
    let fx = Fixture::new(counter_mode());
    let store = fx.create();
    let p = make_partition(&store);
    let c = write_one(&store, p, b"ephemeral");
    store
        .commit(vec![CommitOp::DeallocChunk { id: c }])
        .unwrap();
    assert!(matches!(store.read(c), Err(CoreError::NotAllocated(_))));
}

#[test]
fn dealloc_ids_are_reused() {
    let fx = Fixture::new(counter_mode());
    let store = fx.create();
    let p = make_partition(&store);
    let c = write_one(&store, p, b"first");
    store
        .commit(vec![CommitOp::DeallocChunk { id: c }])
        .unwrap();
    let c2 = store.allocate_chunk(p).unwrap();
    assert_eq!(c2, c, "deallocated id should be reused (§4.4)");
    store
        .commit(vec![CommitOp::WriteChunk {
            id: c2,
            bytes: b"second".to_vec(),
        }])
        .unwrap();
    assert_eq!(store.read(c2).unwrap(), b"second");
}

#[test]
fn multi_op_commit_is_visible_together() {
    let fx = Fixture::new(counter_mode());
    let store = fx.create();
    let p = make_partition(&store);
    let a = store.allocate_chunk(p).unwrap();
    let b = store.allocate_chunk(p).unwrap();
    // "Store a newly-allocated chunk id in another chunk during the same
    // commit" (§4.1).
    let pointer = b.pos.rank.to_le_bytes().to_vec();
    store
        .commit(vec![
            CommitOp::WriteChunk {
                id: a,
                bytes: pointer,
            },
            CommitOp::WriteChunk {
                id: b,
                bytes: b"pointee".to_vec(),
            },
        ])
        .unwrap();
    let stored = store.read(a).unwrap();
    let rank = u64::from_le_bytes(stored.as_slice().try_into().unwrap());
    assert_eq!(store.read(ChunkId::data(p, rank)).unwrap(), b"pointee");
}

#[test]
fn commit_validation_failure_leaves_store_usable() {
    let fx = Fixture::new(counter_mode());
    let store = fx.create();
    let p = make_partition(&store);
    let c = write_one(&store, p, b"ok");
    // Write to an unallocated id fails validation up front.
    let err = store
        .commit(vec![
            CommitOp::WriteChunk {
                id: c,
                bytes: b"x".to_vec(),
            },
            CommitOp::WriteChunk {
                id: ChunkId::data(p, 777),
                bytes: b"y".to_vec(),
            },
        ])
        .unwrap_err();
    assert!(matches!(err, CoreError::NotAllocated(_)));
    // Nothing applied; the store still works.
    assert_eq!(store.read(c).unwrap(), b"ok");
    write_one(&store, p, b"still alive");
}

#[test]
fn many_chunks_grow_the_tree() {
    let fx = Fixture::new(counter_mode());
    let store = fx.create();
    let p = make_partition(&store);
    // fanout 4 → 100 chunks forces height ≥ 4.
    let mut ids = Vec::new();
    for i in 0..100u32 {
        let c = store.allocate_chunk(p).unwrap();
        store
            .commit(vec![CommitOp::WriteChunk {
                id: c,
                bytes: format!("chunk number {i}").into_bytes(),
            }])
            .unwrap();
        ids.push(c);
    }
    for (i, c) in ids.iter().enumerate() {
        assert_eq!(
            store.read(*c).unwrap(),
            format!("chunk number {i}").as_bytes()
        );
    }
    assert_eq!(store.written_ranks(p).unwrap().len(), 100);
}

#[test]
fn variable_chunk_sizes_roundtrip() {
    let fx = Fixture::new(counter_mode());
    let store = fx.create();
    let p = make_partition(&store);
    for len in [0usize, 1, 100, 1000, 3000] {
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let c = write_one(&store, p, &data);
        assert_eq!(store.read(c).unwrap(), data, "len {len}");
    }
}

#[test]
fn oversized_chunk_rejected() {
    let fx = Fixture::new(counter_mode());
    let store = fx.create();
    let p = make_partition(&store);
    let c = store.allocate_chunk(p).unwrap();
    let err = store
        .commit(vec![CommitOp::WriteChunk {
            id: c,
            bytes: vec![0u8; 8192], // Exceeds the 4096-byte segment.
        }])
        .unwrap_err();
    assert!(matches!(err, CoreError::ChunkTooLarge { .. }));
}

// ---------------------------------------------------------------------------
// Persistence and recovery (§4.8).
// ---------------------------------------------------------------------------

#[test]
fn persists_across_clean_reopen() {
    let fx = Fixture::new(counter_mode());
    let (p, ids) = {
        let store = fx.create();
        let p = make_partition(&store);
        let ids: Vec<ChunkId> = (0..20)
            .map(|i| write_one(&store, p, format!("persistent {i}").as_bytes()))
            .collect();
        store.close().unwrap();
        (p, ids)
    };
    let store = fx.reopen().unwrap();
    for (i, c) in ids.iter().enumerate() {
        assert_eq!(
            store.read(*c).unwrap(),
            format!("persistent {i}").as_bytes()
        );
    }
    // The partition is still usable.
    write_one(&store, p, b"after reopen");
}

#[test]
fn recovers_residual_log_without_checkpoint() {
    let fx = Fixture::new(counter_mode());
    let (p, ids) = {
        let store = fx.create();
        let p = make_partition(&store);
        // No checkpoint after these commits: they live only in the
        // residual log.
        let ids: Vec<ChunkId> = (0..10)
            .map(|i| write_one(&store, p, format!("residual {i}").as_bytes()))
            .collect();
        (p, ids)
        // Dropped without close(): simulates a crash after the last commit
        // (all commits flushed the untrusted store).
    };
    let store = fx.reopen().unwrap();
    for (i, c) in ids.iter().enumerate() {
        assert_eq!(store.read(*c).unwrap(), format!("residual {i}").as_bytes());
    }
    write_one(&store, p, b"continues");
}

#[test]
fn recovers_deallocations_from_residual_log() {
    let fx = Fixture::new(counter_mode());
    let (c_kept, c_gone) = {
        let store = fx.create();
        let p = make_partition(&store);
        let kept = write_one(&store, p, b"kept");
        let gone = write_one(&store, p, b"gone");
        store
            .commit(vec![CommitOp::DeallocChunk { id: gone }])
            .unwrap();
        (kept, gone)
    };
    let store = fx.reopen().unwrap();
    assert_eq!(store.read(c_kept).unwrap(), b"kept");
    assert!(matches!(
        store.read(c_gone),
        Err(CoreError::NotAllocated(_))
    ));
}

#[test]
fn torn_tail_commit_is_discarded() {
    let fx = Fixture::new(counter_mode());
    let crash_store = {
        let crash =
            Arc::new(CrashStore::new(Arc::clone(&fx.untrusted) as SharedUntrusted).unwrap());
        let store = ChunkStore::create(
            Arc::clone(&crash) as SharedUntrusted,
            fx.backend(),
            fx.secret.clone(),
            fx.config.clone(),
        )
        .unwrap();
        let p = make_partition(&store);
        let c = write_one(&store, p, b"durable");
        // Write more, then crash losing the unflushed tail of the last
        // commit. CrashStore applies flushes, so committed state survives;
        // we simulate the torn write by capturing mid-commit state: commit
        // flushes internally, so instead corrupt the tail manually below.
        let _ = (p, c);
        crash
    };
    let _ = crash_store;
    // (The flush-every-commit design means torn tails only arise from
    // physical partial writes; that path is covered by
    // `torn_bytes_after_valid_tail_ignored` below.)
}

#[test]
fn torn_bytes_after_valid_tail_ignored() {
    let fx = Fixture::new(counter_mode());
    let (c, image) = {
        let store = fx.create();
        let p = make_partition(&store);
        let c = write_one(&store, p, b"acknowledged");
        (c, fx.untrusted.image())
    };
    // Append garbage beyond the valid tail, simulating a torn final write.
    let mut torn = image;
    torn.extend_from_slice(&[0xABu8; 97]);
    let store = fx.reopen_image(torn).unwrap();
    assert_eq!(store.read(c).unwrap(), b"acknowledged");
}

#[test]
fn recovery_across_checkpoint_and_more_commits() {
    let fx = Fixture::new(counter_mode());
    let ids = {
        let store = fx.create();
        let p = make_partition(&store);
        let mut ids = Vec::new();
        for i in 0..8 {
            ids.push(write_one(&store, p, format!("pre {i}").as_bytes()));
        }
        store.checkpoint().unwrap();
        for i in 0..8 {
            ids.push(write_one(&store, p, format!("post {i}").as_bytes()));
        }
        ids
    };
    let store = fx.reopen().unwrap();
    for (i, c) in ids.iter().enumerate().take(8) {
        assert_eq!(store.read(*c).unwrap(), format!("pre {i}").as_bytes());
    }
    for (i, c) in ids.iter().enumerate().skip(8) {
        assert_eq!(
            store.read(*c).unwrap(),
            format!("post {}", i - 8).as_bytes()
        );
    }
}

#[test]
fn automatic_checkpoint_by_threshold() {
    let fx = Fixture::new(counter_mode());
    let mut config = fx.config.clone();
    config.checkpoint_threshold = 4;
    let store = ChunkStore::create(
        Arc::clone(&fx.untrusted) as SharedUntrusted,
        fx.backend(),
        fx.secret.clone(),
        config,
    )
    .unwrap();
    let p = make_partition(&store);
    for i in 0..60u32 {
        write_one(&store, p, format!("auto {i}").as_bytes());
    }
    assert!(store.stats().checkpoints >= 2, "threshold checkpoints ran");
    // Everything still readable after the churn.
    for rank in store.written_ranks(p).unwrap() {
        store.read(ChunkId::data(p, rank)).unwrap();
    }
}

#[test]
fn explicit_checkpoint_writes_one_device_op_per_run() {
    let mut fx = Fixture::new(counter_mode());
    // One segment holds the whole checkpoint, so it is one or two runs.
    fx.config.segment_size = 1 << 16;
    let store = fx.create();
    let p = make_partition(&store);
    // Fanout 4: 200 chunks dirty 50 leaf map chunks and their ancestors.
    let ops = (0..200u32)
        .map(|i| CommitOp::WriteChunk {
            id: store.allocate_chunk(p).unwrap(),
            bytes: format!("leaf {i}").into_bytes(),
        })
        .collect();
    store.commit(ops).unwrap();
    let device = fx.untrusted.stats().snapshot();
    let engine = store.stats();
    store.checkpoint().unwrap();
    let device = fx.untrusted.stats().snapshot().since(&device);
    let appends = store.stats().log_writes_coalesced - engine.log_writes_coalesced;
    assert!(appends >= 60, "only {appends} appends coalesced");
    // At most two runs (one segment switch) and a fresh head's end-marker,
    // then the superblock; the log flush and the superblock's.
    assert!(
        device.writes <= 4,
        "{} device writes for the checkpoint",
        device.writes
    );
    assert_eq!(device.flushes, 2);
    // The coalesced checkpoint recovers like any other.
    drop(store);
    let store = fx.reopen().unwrap();
    assert_eq!(store.written_ranks(p).unwrap().len(), 200);
    assert_eq!(store.read(ChunkId::data(p, 199)).unwrap(), b"leaf 199");
}

#[test]
fn cleaning_pass_writes_one_device_op_per_run() {
    let mut fx = Fixture::new(counter_mode());
    // Segment 0 ends up holding only the keepers' live versions, and the
    // tail segment has room for all of them, so the pass is one run.
    fx.config.segment_size = 1 << 16;
    let planned = Arc::new(PlannedFaultStore::new(
        Arc::clone(&fx.untrusted) as SharedUntrusted,
        FaultPlan::new(),
    ));
    let store = ChunkStore::create(
        Arc::clone(&planned) as SharedUntrusted,
        fx.backend(),
        fx.secret.clone(),
        fx.config.clone(),
    )
    .unwrap();
    let p = make_partition(&store);
    let keepers: Vec<(ChunkId, Vec<u8>)> = (0..8u8)
        .map(|i| {
            let body = vec![i; 300];
            (write_one(&store, p, &body), body)
        })
        .collect();
    let churn = store.allocate_chunk(p).unwrap();
    for i in 0..80u8 {
        let ops = vec![CommitOp::WriteChunk {
            id: churn,
            bytes: vec![i; 1000],
        }];
        store.commit(ops).unwrap();
    }
    store.checkpoint().unwrap();

    // A write error on the pass's second device write: a pass that wrote
    // each relocation through would fail there, after bytes reached the
    // log, and degrade the store.
    planned.set_plan(FaultPlan::new().write_error_at(planned.write_ops() + 1));
    let device = fx.untrusted.stats().snapshot();
    let relocated = store.stats().chunks_relocated;
    assert_eq!(store.clean(1).unwrap(), 1);
    let device = fx.untrusted.stats().snapshot().since(&device);
    let relocated = store.stats().chunks_relocated - relocated;
    assert!(relocated >= 8, "only {relocated} versions relocated");
    assert_eq!(device.writes, 1, "one run for the whole pass");
    assert_eq!(device.flushes, 1);
    assert_eq!(planned.injected_faults(), 0);
    assert!(store.health().is_live());

    drop(store);
    let store = fx.reopen().unwrap();
    for (id, body) in &keepers {
        assert_eq!(&store.read(*id).unwrap(), body, "{id:?} after reopen");
    }
    assert_eq!(store.read(churn).unwrap(), vec![79u8; 1000]);
}

// ---------------------------------------------------------------------------
// Tamper detection (§4.1, §4.8.2).
// ---------------------------------------------------------------------------

#[test]
fn flipped_chunk_byte_detected_on_read() {
    let fx = Fixture::new(counter_mode());
    let store = fx.create();
    let p = make_partition(&store);
    let c = write_one(&store, p, b"precious licensing state");
    // Find the chunk's bytes in the raw image and corrupt one byte of
    // every candidate position after the superblock; the read must either
    // fail closed or return the right data (if we hit slack space).
    let len = fx.untrusted.len().unwrap();
    let mut detected = false;
    // Segments start right after the 512-byte superblock.
    for offset in (512..len).step_by(37) {
        fx.untrusted.tamper(offset, 0x40);
        // Drop the published descriptors so this read resolves its
        // descriptor on the locked path, which alone gives the verdict.
        store.drop_read_cache();
        match store.read(c) {
            Err(e) if e.is_tamper() => detected = true,
            Err(_) => detected = true,
            Ok(data) => assert_eq!(data, b"precious licensing state"),
        }
        fx.untrusted.tamper(offset, 0x40); // Undo.
    }
    assert!(detected, "no corruption was ever detected");
    assert_eq!(store.read(c).unwrap(), b"precious licensing state");
}

#[test]
fn replayed_database_image_rejected() {
    let fx = Fixture::new(counter_mode());
    let old_image = {
        let store = fx.create();
        let p = make_partition(&store);
        write_one(&store, p, b"balance: $100");
        store.close().unwrap();
        let old = fx.untrusted.image();
        // The consumer "purchases goods": more commits advance the counter
        // well past the replay window.
        let store = fx.reopen().unwrap();
        for i in 0..10 {
            write_one(&store, p, format!("purchase {i}").as_bytes());
        }
        store.close().unwrap();
        old
    };
    // Replay the saved image (§1: "a consumer could save a copy of the
    // local database, purchase some goods, then replay the saved copy").
    let err = fx.reopen_image(old_image).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::TamperDetected(TamperKind::CounterWindowViolated { .. })
        ),
        "got {err:?}"
    );
}

#[test]
fn wrong_secret_key_fails_validation() {
    let fx = Fixture::new(counter_mode());
    {
        let store = fx.create();
        let p = make_partition(&store);
        write_one(&store, p, b"sealed");
        store.close().unwrap();
    }
    let err = ChunkStore::open(
        Arc::clone(&fx.untrusted) as SharedUntrusted,
        fx.backend(),
        SecretKey::random(24),
        fx.config.clone(),
    )
    .map(|_| ())
    .unwrap_err();
    // The leader will not decrypt / identify under the wrong key.
    assert!(
        err.is_tamper() || matches!(err, CoreError::Corrupt(_)),
        "got {err:?}"
    );
}

#[test]
fn counter_rollback_is_detected() {
    // A fresh (zeroed) counter with an old database image means the
    // counter was rolled back or swapped — the log is "ahead" of it.
    let fx = Fixture::new(counter_mode());
    {
        let store = fx.create();
        let p = make_partition(&store);
        for i in 0..20 {
            write_one(&store, p, format!("c{i}").as_bytes());
        }
        store.close().unwrap();
    }
    let fresh_counter = TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(Arc::new(
        MemTrustedStore::new(64),
    ))));
    let err = ChunkStore::open(
        Arc::clone(&fx.untrusted) as SharedUntrusted,
        fresh_counter,
        fx.secret.clone(),
        fx.config.clone(),
    )
    .map(|_| ())
    .unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::TamperDetected(TamperKind::CounterWindowViolated { .. })
        ),
        "got {err:?}"
    );
}

// ---------------------------------------------------------------------------
// Direct hash validation (§4.8.2.1).
// ---------------------------------------------------------------------------

#[test]
fn direct_mode_roundtrip_and_reopen() {
    let fx = Fixture::new(ValidationMode::DirectHash);
    let ids = {
        let store = fx.create();
        let p = make_partition(&store);
        let ids: Vec<ChunkId> = (0..12)
            .map(|i| write_one(&store, p, format!("direct {i}").as_bytes()))
            .collect();
        ids
    };
    let store = fx.reopen().unwrap();
    for (i, c) in ids.iter().enumerate() {
        assert_eq!(store.read(*c).unwrap(), format!("direct {i}").as_bytes());
    }
}

#[test]
fn direct_mode_replay_rejected() {
    let fx = Fixture::new(ValidationMode::DirectHash);
    let old_image = {
        let store = fx.create();
        let p = make_partition(&store);
        write_one(&store, p, b"before");
        let old = fx.untrusted.image();
        write_one(&store, p, b"after");
        store.close().unwrap();
        old
    };
    let err = fx.reopen_image(old_image).unwrap_err();
    assert!(err.is_tamper(), "got {err:?}");
}

#[test]
fn direct_mode_unacknowledged_tail_ignored() {
    // Direct validation stores the exact tail: bytes past it (a commit
    // whose trusted-store update never happened) are ignored (§4.8.2.1:
    // "the last commit set in the untrusted store is ignored").
    let fx = Fixture::new(ValidationMode::DirectHash);
    let (c1, image, register_img) = {
        let store = fx.create();
        let p = make_partition(&store);
        let c1 = write_one(&store, p, b"acknowledged");
        let register_img = fx.register.image();
        // One more commit whose register update we roll back.
        write_one(&store, p, b"unacknowledged");
        (c1, fx.untrusted.image(), register_img)
    };
    fx.register.restore(register_img);
    let store = fx.reopen_image(image).unwrap();
    assert_eq!(store.read(c1).unwrap(), b"acknowledged");
}

// ---------------------------------------------------------------------------
// Partitions, copies, diffs (§5).
// ---------------------------------------------------------------------------

#[test]
fn partitions_are_isolated() {
    let fx = Fixture::new(counter_mode());
    let store = fx.create();
    let p = make_partition(&store);
    let q = make_partition(&store);
    let cp = write_one(&store, p, b"in p");
    let cq = write_one(&store, q, b"in q");
    assert_eq!(cp.pos, cq.pos, "same position in different partitions");
    assert_eq!(store.read(cp).unwrap(), b"in p");
    assert_eq!(store.read(cq).unwrap(), b"in q");
}

#[test]
fn partition_with_distinct_ciphers() {
    let fx = Fixture::new(counter_mode());
    let store = fx.create();
    for (cipher, hash) in [
        (CipherKind::Null, HashKind::Null),
        (CipherKind::Des, HashKind::Sha1),
        (CipherKind::TripleDes, HashKind::Sha1),
        (CipherKind::Aes128, HashKind::Sha256),
        (CipherKind::Aes256, HashKind::Sha256),
    ] {
        let p = store.allocate_partition().unwrap();
        store
            .commit(vec![CommitOp::CreatePartition {
                id: p,
                params: CryptoParams::generate(cipher, hash),
            }])
            .unwrap();
        let c = write_one(&store, p, b"parameterized");
        assert_eq!(store.read(c).unwrap(), b"parameterized", "{cipher:?}");
        assert_eq!(store.partition_kinds(p).unwrap(), (cipher, hash));
    }
}

#[test]
fn snapshot_preserves_state_under_updates() {
    let fx = Fixture::new(counter_mode());
    let store = fx.create();
    let p = make_partition(&store);
    let c = write_one(&store, p, b"v1");
    // Snapshot.
    let snap = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CopyPartition { dst: snap, src: p }])
        .unwrap();
    // Update the source; the snapshot must keep v1.
    store
        .commit(vec![CommitOp::WriteChunk {
            id: c,
            bytes: b"v2".to_vec(),
        }])
        .unwrap();
    assert_eq!(store.read(c).unwrap(), b"v2");
    assert_eq!(store.read(ChunkId::data(snap, c.pos.rank)).unwrap(), b"v1");
}

#[test]
fn snapshot_is_independently_writable() {
    let fx = Fixture::new(counter_mode());
    let store = fx.create();
    let p = make_partition(&store);
    let c = write_one(&store, p, b"shared");
    let snap = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CopyPartition { dst: snap, src: p }])
        .unwrap();
    // "The chunks of Q can also be modified independently of P" (§5.3).
    store
        .commit(vec![CommitOp::WriteChunk {
            id: ChunkId::data(snap, c.pos.rank),
            bytes: b"diverged".to_vec(),
        }])
        .unwrap();
    assert_eq!(store.read(c).unwrap(), b"shared");
    assert_eq!(
        store.read(ChunkId::data(snap, c.pos.rank)).unwrap(),
        b"diverged"
    );
}

#[test]
fn diff_reports_created_updated_deallocated() {
    let fx = Fixture::new(counter_mode());
    let store = fx.create();
    let p = make_partition(&store);
    let updated = write_one(&store, p, b"old");
    let gone = write_one(&store, p, b"to delete");
    let _stable = write_one(&store, p, b"unchanged");
    let snap1 = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CopyPartition { dst: snap1, src: p }])
        .unwrap();

    store
        .commit(vec![
            CommitOp::WriteChunk {
                id: updated,
                bytes: b"new".to_vec(),
            },
            CommitOp::DeallocChunk { id: gone },
        ])
        .unwrap();
    let created = write_one(&store, p, b"brand new");

    let snap2 = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CopyPartition { dst: snap2, src: p }])
        .unwrap();

    let mut diff = store.diff(snap1, snap2).unwrap();
    diff.sort_by_key(|e| e.pos.rank);
    let find = |rank: u64| diff.iter().find(|e| e.pos.rank == rank).map(|e| e.change);
    assert_eq!(find(updated.pos.rank), Some(DiffChange::Updated));
    if created.pos.rank == gone.pos.rank {
        // The deallocated id was reused (§4.4): written in both snapshots
        // with different content, so the diff reads as an update.
        assert_eq!(find(created.pos.rank), Some(DiffChange::Updated));
        assert_eq!(diff.len(), 2);
    } else {
        assert_eq!(find(created.pos.rank), Some(DiffChange::Created));
        assert_eq!(find(gone.pos.rank), Some(DiffChange::Deallocated));
        assert_eq!(diff.len(), 3);
    }
}

#[test]
fn dealloc_partition_removes_copies_too() {
    let fx = Fixture::new(counter_mode());
    let store = fx.create();
    let p = make_partition(&store);
    let c = write_one(&store, p, b"data");
    let snap = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CopyPartition { dst: snap, src: p }])
        .unwrap();
    store
        .commit(vec![CommitOp::DeallocPartition { id: p }])
        .unwrap();
    assert!(!store.partition_exists(p));
    assert!(
        !store.partition_exists(snap),
        "copies deallocated with source (§5.1)"
    );
    assert!(store.read(c).is_err());
    assert!(store.read(ChunkId::data(snap, 0)).is_err());
}

#[test]
fn partition_ids_reused_after_dealloc() {
    let fx = Fixture::new(counter_mode());
    let store = fx.create();
    let p = make_partition(&store);
    store
        .commit(vec![CommitOp::DeallocPartition { id: p }])
        .unwrap();
    let q = store.allocate_partition().unwrap();
    assert_eq!(q, p, "partition ids are reused");
}

#[test]
fn snapshots_survive_reopen() {
    let fx = Fixture::new(counter_mode());
    let (c, snap) = {
        let store = fx.create();
        let p = make_partition(&store);
        let c = write_one(&store, p, b"v1");
        let snap = store.allocate_partition().unwrap();
        store
            .commit(vec![CommitOp::CopyPartition { dst: snap, src: p }])
            .unwrap();
        store
            .commit(vec![CommitOp::WriteChunk {
                id: c,
                bytes: b"v2".to_vec(),
            }])
            .unwrap();
        (c, snap)
    };
    let store = fx.reopen().unwrap();
    assert_eq!(store.read(c).unwrap(), b"v2");
    assert_eq!(store.read(ChunkId::data(snap, c.pos.rank)).unwrap(), b"v1");
}

#[test]
fn copy_after_checkpoint_and_reopen() {
    let fx = Fixture::new(counter_mode());
    let store = fx.create();
    let p = make_partition(&store);
    let c = write_one(&store, p, b"base");
    store.checkpoint().unwrap();
    let snap = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CopyPartition { dst: snap, src: p }])
        .unwrap();
    store
        .commit(vec![CommitOp::WriteChunk {
            id: c,
            bytes: b"changed".to_vec(),
        }])
        .unwrap();
    drop(store);
    let store = fx.reopen().unwrap();
    assert_eq!(store.read(c).unwrap(), b"changed");
    assert_eq!(
        store.read(ChunkId::data(snap, c.pos.rank)).unwrap(),
        b"base"
    );
}

// ---------------------------------------------------------------------------
// Cleaning (§4.9.5, §5.5).
// ---------------------------------------------------------------------------

#[test]
fn cleaner_reclaims_and_preserves_data() {
    let fx = Fixture::new(counter_mode());
    let store = fx.create();
    let p = make_partition(&store);
    // Create churn: write and overwrite to fill several segments with
    // obsolete versions.
    let mut ids = Vec::new();
    for i in 0..20u32 {
        ids.push(write_one(&store, p, &vec![i as u8; 300]));
    }
    for round in 0..4u8 {
        for c in &ids {
            store
                .commit(vec![CommitOp::WriteChunk {
                    id: *c,
                    bytes: vec![round; 300],
                }])
                .unwrap();
        }
    }
    store.checkpoint().unwrap();
    let cleaned = store.clean(8).unwrap();
    assert!(cleaned > 0, "no segments cleaned");
    for c in &ids {
        assert_eq!(store.read(*c).unwrap(), vec![3u8; 300]);
    }
    // Cleaned space is reused by further writes.
    for i in 0..10u32 {
        write_one(&store, p, &[i as u8; 200]);
    }
}

#[test]
fn cleaner_respects_snapshots() {
    let fx = Fixture::new(counter_mode());
    let store = fx.create();
    let p = make_partition(&store);
    let c = write_one(&store, p, b"snapshot me");
    let snap = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CopyPartition { dst: snap, src: p }])
        .unwrap();
    // Obsolete the version in p but not in the snapshot.
    store
        .commit(vec![CommitOp::WriteChunk {
            id: c,
            bytes: b"newer".to_vec(),
        }])
        .unwrap();
    // Churn to fill segments, checkpoint, clean everything cleanable.
    for i in 0..30u32 {
        write_one(&store, p, &[i as u8; 200]);
    }
    store.checkpoint().unwrap();
    store.clean(100).unwrap();
    assert_eq!(
        store.read(ChunkId::data(snap, c.pos.rank)).unwrap(),
        b"snapshot me",
        "cleaner must keep versions current only in copies (§5.5)"
    );
    assert_eq!(store.read(c).unwrap(), b"newer");
}

#[test]
fn cleaner_state_survives_crash_recovery() {
    let fx = Fixture::new(counter_mode());
    let ids = {
        let store = fx.create();
        let p = make_partition(&store);
        let mut ids = Vec::new();
        for i in 0..15u32 {
            ids.push(write_one(&store, p, &vec![i as u8; 250]));
        }
        for c in &ids {
            store
                .commit(vec![CommitOp::WriteChunk {
                    id: *c,
                    bytes: vec![0xEE; 250],
                }])
                .unwrap();
        }
        store.checkpoint().unwrap();
        store.clean(4).unwrap();
        // Crash without checkpoint: cleaner records live in the residual
        // log only.
        ids
    };
    let store = fx.reopen().unwrap();
    for c in &ids {
        assert_eq!(store.read(*c).unwrap(), vec![0xEE; 250]);
    }
}

#[test]
fn non_revalidating_cleaner_works() {
    let fx = Fixture::new(counter_mode());
    let mut config = fx.config.clone();
    config.cleaner_revalidates = false;
    let store = ChunkStore::create(
        Arc::clone(&fx.untrusted) as SharedUntrusted,
        fx.backend(),
        fx.secret.clone(),
        config,
    )
    .unwrap();
    let p = make_partition(&store);
    let mut ids = Vec::new();
    for i in 0..12u32 {
        ids.push(write_one(&store, p, &vec![i as u8; 300]));
    }
    for c in &ids {
        store
            .commit(vec![CommitOp::WriteChunk {
                id: *c,
                bytes: vec![0x55; 300],
            }])
            .unwrap();
    }
    store.checkpoint().unwrap();
    store.clean(6).unwrap();
    for c in &ids {
        assert_eq!(store.read(*c).unwrap(), vec![0x55; 300]);
    }
}

/// A hot set too small to trip an automatic checkpoint leaves every
/// segment in the residual log, which the cleaner may not touch (§4.9.5).
/// `clean` then checkpoints first, so a caller cleaning a bounded log by
/// hand keeps it from filling: here 64 live KB cycle through a 6 MB log
/// more than once.
#[test]
fn caller_driven_clean_reclaims_a_hot_sets_garbage() {
    let fx = Fixture::new(counter_mode());
    let config = ChunkStoreConfig {
        max_segments: 48,
        ..ChunkStoreConfig::default()
    };
    let store = ChunkStore::create(
        Arc::clone(&fx.untrusted) as SharedUntrusted,
        fx.backend(),
        fx.secret.clone(),
        config.clone(),
    )
    .unwrap();
    let p = make_partition(&store);
    let hot: Vec<ChunkId> = (0..64).map(|_| store.allocate_chunk(p).unwrap()).collect();
    let rounds = 125u8;
    for round in 0..rounds {
        for (i, id) in hot.iter().enumerate() {
            store
                .commit(vec![CommitOp::WriteChunk {
                    id: *id,
                    bytes: vec![round; 1000],
                }])
                .unwrap_or_else(|e| panic!("round {round}, chunk {i}: {e}"));
            if (usize::from(round) * hot.len() + i) % 50 == 49 {
                store.clean(4).unwrap();
            }
        }
    }
    assert!(store.stats().segments_cleaned > 0);
    let log_bytes = u64::from(config.max_segments) * u64::from(config.segment_size);
    assert!(store.stored_size() <= tdb_core::log::SEGMENT_BASE + log_bytes);
    for id in &hot {
        assert_eq!(store.read(*id).unwrap(), vec![rounds - 1; 1000]);
    }
}

// ---------------------------------------------------------------------------
// Counter lag windows (§4.8.2.2).
// ---------------------------------------------------------------------------

#[test]
fn counter_lag_within_delta_recovers() {
    // With Δut = 5 the trusted counter is flushed every 5 commits; a crash
    // right before a flush leaves the log up to 5 ahead — accepted.
    let fx = Fixture::new(counter_mode());
    let counter = Arc::new(CounterOverTrusted::new(
        Arc::clone(&fx.register) as Arc<dyn TrustedStore>
    ));
    let ids = {
        let store = ChunkStore::create(
            Arc::clone(&fx.untrusted) as SharedUntrusted,
            TrustedBackend::Counter(Arc::clone(&counter) as Arc<dyn MonotonicCounter>),
            fx.secret.clone(),
            fx.config.clone(),
        )
        .unwrap();
        let p = make_partition(&store);
        let ids: Vec<ChunkId> = (0..7)
            .map(|i| write_one(&store, p, format!("lag {i}").as_bytes()))
            .collect();
        ids
    };
    let store = fx.reopen().unwrap();
    for (i, c) in ids.iter().enumerate() {
        assert_eq!(store.read(*c).unwrap(), format!("lag {i}").as_bytes());
    }
}

#[test]
fn strict_delta_zero_flushes_every_commit() {
    let fx = Fixture::new(ValidationMode::Counter {
        delta_ut: 0,
        delta_tu: 0,
    });
    let store = fx.create();
    let p = make_partition(&store);
    let before = fx.register.stats().snapshot().writes;
    write_one(&store, p, b"a");
    write_one(&store, p, b"b");
    let after = fx.register.stats().snapshot().writes;
    assert!(after >= before + 2, "counter must flush on every commit");
}
