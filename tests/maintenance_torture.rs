//! Maintenance-runtime torture: background cleaning and checkpointing
//! racing live committers over a bounded log.
//!
//! The properties under test (ISSUE: background maintenance):
//!
//! - No commit is acknowledged before its durability point while the
//!   maintenance thread cleans and checkpoints concurrently: a crash that
//!   loses every unflushed write must preserve every acknowledged commit.
//! - Seeded fault plans firing into background maintenance never poison
//!   the store, and acknowledged commits still survive recovery.
//! - Under sustained log pressure the background cleaner reclaims enough
//!   space that committers write several times the raw log capacity.
//! - `background_maintenance = false` (the default) runs no maintenance
//!   thread and records no background activity in the stats.

use std::collections::HashMap;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use tdb::{
    ChunkId, ChunkStore, ChunkStoreConfig, CommitOp, CryptoParams, PartitionId, TrustedBackend,
};
use tdb_core::CoreError;
use tdb_crypto::SecretKey;
use tdb_storage::{
    CounterOverTrusted, CrashStore, FaultPlan, MemStore, MemTrustedStore, PlannedFaultStore,
    SharedUntrusted, TrustedStore,
};

const THREADS: usize = 6;

/// A bounded log small enough that the workload laps it several times:
/// without reclamation the runs below would die on `OutOfSpace`.
fn bounded_config() -> ChunkStoreConfig {
    ChunkStoreConfig {
        fanout: 4,
        segment_size: 4096,
        max_segments: 24,
        checkpoint_threshold: 6,
        background_maintenance: true,
        ..ChunkStoreConfig::default()
    }
}

struct Rig {
    secret: SecretKey,
    register: Arc<MemTrustedStore>,
    config: ChunkStoreConfig,
}

impl Rig {
    fn new(config: ChunkStoreConfig) -> Rig {
        Rig {
            secret: SecretKey::random(24),
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

    /// Reopens with background maintenance off: recovery checks stay
    /// deterministic, with no thread racing the assertions.
    fn open_foreground(&self, untrusted: SharedUntrusted) -> tdb_core::Result<ChunkStore> {
        let config = ChunkStoreConfig {
            background_maintenance: false,
            ..self.config.clone()
        };
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

fn content(thread: usize, round: usize) -> Vec<u8> {
    vec![(thread * 29 + round * 13 + 1) as u8; 300 + (thread * 37 + round * 53) % 400]
}

/// Commits with bounded patience: `OutOfSpace` waits for the cleaner to
/// reclaim (the admission gate already throttled once), a transient
/// degrade gets one heal attempt. Returns whether the commit was
/// acknowledged.
fn commit_patiently(store: &ChunkStore, id: ChunkId, bytes: &[u8]) -> bool {
    for _ in 0..200 {
        let ops = vec![CommitOp::WriteChunk {
            id,
            bytes: bytes.to_vec(),
        }];
        match store.commit(ops) {
            Ok(()) => return true,
            Err(CoreError::OutOfSpace) => {
                std::thread::sleep(Duration::from_millis(5));
            }
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

// ---------------------------------------------------------------------------
// Durability before ack, with maintenance racing the committers.
// ---------------------------------------------------------------------------

/// Concurrent committers overwrite a shared working set over a write-back
/// cache while the maintenance thread cleans and checkpoints behind them.
/// A crash that loses *every* unflushed write must preserve the last
/// acknowledged value of every chunk — maintenance must never let a
/// commit be acknowledged before its durability point, and its own
/// relocations must never un-persist acknowledged data.
#[test]
fn acked_commits_survive_crash_during_background_maintenance() {
    const ROUNDS: usize = 20;
    let rig = Rig::new(bounded_config());
    let crash = Arc::new(CrashStore::new(Arc::new(MemStore::new())).unwrap());
    let store = rig.create(Arc::clone(&crash) as SharedUntrusted);
    assert!(store.background_maintenance());
    let p = setup_partition(&store);
    let ids: Vec<Vec<ChunkId>> = (0..THREADS)
        .map(|_| (0..4).map(|_| store.allocate_chunk(p).unwrap()).collect())
        .collect();

    // Per-chunk last acknowledged value; overwrites supersede in ack order.
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
                    // Threads own disjoint ids, so recording after the
                    // ack keeps per-chunk entries in ack order.
                    if commit_patiently(store, id, &bytes) {
                        acked.lock().unwrap().insert(id, bytes);
                    }
                }
            });
        }
    });
    let stats = store.stats();
    let acked = acked.into_inner().unwrap();
    assert!(
        acked.len() >= THREADS,
        "the run barely committed: {} acks",
        acked.len()
    );
    // The workload overwrote a 24-segment log many times over; background
    // maintenance is what kept it alive.
    assert!(
        stats.maintenance_wakeups >= 1,
        "maintenance thread never woke"
    );
    drop(store);

    let image = crash.crash_lose_all();
    let reopened = rig
        .open_foreground(Arc::new(MemStore::from_bytes(image)) as SharedUntrusted)
        .expect("recovery after losing all unflushed writes");
    for (id, bytes) in &acked {
        assert_eq!(
            &reopened.read(*id).unwrap(),
            bytes,
            "acknowledged commit lost in the crash: {id}"
        );
    }
}

// ---------------------------------------------------------------------------
// Seeded faults firing into background maintenance.
// ---------------------------------------------------------------------------

/// Mixed seeded faults land in whatever the store happens to be doing —
/// commits, background checkpoints, or clean slices. Background
/// maintenance consuming fault indices makes the interleaving adversarial
/// by construction; the invariants must hold anyway: plain I/O faults
/// never poison, and every acknowledged commit survives recovery.
#[test]
fn seeded_faults_with_background_maintenance_never_poison() {
    for seed in [1u64, 2, 3] {
        let rig = Rig::new(bounded_config());
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

        // Write-once ids: a failed commit is never durably superseded, so
        // "acknowledged implies readable after recovery" stays exact even
        // though recovery may also adopt unacknowledged durable commits.
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
            "seed {seed}: an I/O fault during maintenance must never poison"
        );
        let acked = acked.into_inner().unwrap();
        drop(store);

        pf.set_plan(FaultPlan::new());
        let reopened = rig
            .open_foreground(Arc::new(MemStore::from_bytes(mem.image())) as SharedUntrusted)
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

// ---------------------------------------------------------------------------
// The cleaner keeps a bounded log alive under sustained pressure.
// ---------------------------------------------------------------------------

/// Sustained overwrites push several times the raw log capacity through a
/// 24-segment store. Only background reclamation makes that possible, and
/// the stats must show it happened: segments reclaimed, versions
/// relocated, and the work done in bounded slices.
#[test]
fn background_cleaner_sustains_writes_past_raw_capacity() {
    const ROUNDS: usize = 60;
    let rig = Rig::new(bounded_config());
    let mem = Arc::new(MemStore::new());
    let store = rig.create(Arc::clone(&mem) as SharedUntrusted);
    let p = setup_partition(&store);
    let capacity = u64::from(rig.config.max_segments) * u64::from(rig.config.segment_size);

    let ids: Vec<Vec<ChunkId>> = (0..THREADS)
        .map(|_| (0..4).map(|_| store.allocate_chunk(p).unwrap()).collect())
        .collect();
    let committed: Mutex<u64> = Mutex::new(0);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for (t, my_ids) in ids.iter().enumerate() {
            let (store, committed, barrier) = (&store, &committed, &barrier);
            s.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    let id = my_ids[round % my_ids.len()];
                    let bytes = content(t, round);
                    let len = bytes.len() as u64;
                    assert!(
                        commit_patiently(store, id, &bytes),
                        "thread {t} round {round}: commit never admitted — \
                         the cleaner fell behind for good"
                    );
                    *committed.lock().unwrap() += len;
                }
            });
        }
    });

    let committed = committed.into_inner().unwrap();
    assert!(
        committed > capacity,
        "workload too small to prove reclamation: {committed} <= {capacity}"
    );
    let stats = store.stats();
    assert!(stats.segments_cleaned >= 1, "no segment was ever reclaimed");
    assert!(stats.bytes_reclaimed >= 1, "no bytes were ever reclaimed");
    assert!(
        stats.clean_slices >= 1,
        "cleaning never ran in background slices"
    );
    assert!(stats.maintenance_wakeups >= 1, "maintenance never woke");

    // Every chunk still serves its last value through the read path.
    for (t, my_ids) in ids.iter().enumerate() {
        for (i, id) in my_ids.iter().enumerate() {
            let last_round = (ROUNDS - 1) - ((ROUNDS - 1 - i) % my_ids.len());
            assert_eq!(
                store.read(*id).unwrap(),
                content(t, last_round),
                "thread {t} chunk {i}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Parity: the default runs no maintenance thread.
// ---------------------------------------------------------------------------

/// With `background_maintenance` off (the default), no thread is spawned
/// and no background activity ever lands in the stats — the engine is
/// caller-driven exactly as before.
#[test]
fn disabled_maintenance_runs_nothing_in_background() {
    let rig = Rig::new(ChunkStoreConfig {
        background_maintenance: false,
        ..bounded_config()
    });
    let store = rig.create(Arc::new(MemStore::new()) as SharedUntrusted);
    assert!(!store.background_maintenance());
    let p = setup_partition(&store);
    for round in 0..12 {
        let id = store.allocate_chunk(p).unwrap();
        store
            .commit(vec![CommitOp::WriteChunk {
                id,
                bytes: content(0, round),
            }])
            .unwrap();
    }
    // Give a stray thread (there must be none) time to wake and tick.
    std::thread::sleep(Duration::from_millis(100));
    let stats = store.stats();
    assert_eq!(stats.maintenance_wakeups, 0);
    assert_eq!(stats.clean_slices, 0);
    assert_eq!(stats.commit_throttle_waits, 0);
}
