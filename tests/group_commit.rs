//! Group-commit torture: durability-before-ack under concurrency, crash
//! all-or-nothing per batch member, fault plans with batching on, and the
//! batching stats/parity contracts.
//!
//! The properties under test (ISSUE: group commit):
//!
//! - A waiter is never acknowledged before its batch's durability point:
//!   crashing with every unflushed write lost must preserve every
//!   acknowledged commit.
//! - A fault mid-batch fails members without poisoning the store, and
//!   recovery serves each member all-or-nothing — a multi-op commit is
//!   never half-applied.
//! - N concurrent commits cost fewer than N device flushes (the whole
//!   point), visible in the batch-size histogram and flush counters.
//! - A lone single-chunk commit costs one device write and one flush.

use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use tdb::{
    ChunkId, ChunkStore, ChunkStoreConfig, CommitOp, CryptoParams, PartitionId, TrustedBackend,
};
use tdb_crypto::SecretKey;
use tdb_storage::{
    CounterOverTrusted, DeviceSnapshot, DiskModel, FaultKind, FaultPlan, SharedUntrusted, SimClock,
    SimDevice, SimDiskStore, UntrustedStore,
};

const THREADS: usize = 8;

fn config() -> ChunkStoreConfig {
    ChunkStoreConfig {
        // No auto-checkpoints: commits alone drive the flush counts.
        checkpoint_threshold: 100_000,
        ..ChunkStoreConfig::default()
    }
}

struct Rig {
    secret: SecretKey,
    config: ChunkStoreConfig,
}

fn backend(dev: &Arc<SimDevice>) -> TrustedBackend {
    TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(dev.register())))
}

impl Rig {
    fn new(config: ChunkStoreConfig) -> Rig {
        Rig {
            secret: SecretKey::random(24),
            config,
        }
    }

    fn create_over(&self, untrusted: SharedUntrusted, dev: &Arc<SimDevice>) -> ChunkStore {
        ChunkStore::create(
            untrusted,
            backend(dev),
            self.secret.clone(),
            self.config.clone(),
        )
        .unwrap()
    }

    fn create(&self, dev: &Arc<SimDevice>) -> ChunkStore {
        self.create_over(Arc::clone(dev) as SharedUntrusted, dev)
    }

    /// Reboots a machine from `snapshot`: its image and its register.
    fn open(&self, snapshot: &DeviceSnapshot) -> tdb_core::Result<ChunkStore> {
        let dev = SimDevice::from_snapshot(snapshot);
        ChunkStore::open(
            Arc::clone(&dev) as SharedUntrusted,
            backend(&dev),
            self.secret.clone(),
            self.config.clone(),
        )
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
    vec![(thread * 31 + round * 7 + 1) as u8; 120 + thread * 40 + round * 16]
}

// ---------------------------------------------------------------------------
// Durability before ack.
// ---------------------------------------------------------------------------

/// Concurrent committers over a write-back cache; after the run, a crash
/// that loses *every* unflushed write must preserve every acknowledged
/// commit — the leader flushes the batch before it wakes any waiter.
#[test]
fn acked_commits_survive_crash_losing_unflushed_writes() {
    const ROUNDS: usize = 4;
    let rig = Rig::new(config());
    let dev = SimDevice::new();
    let store = rig.create(&dev);
    let p = setup_partition(&store);
    let ids: Vec<Vec<ChunkId>> = (0..THREADS)
        .map(|_| {
            (0..ROUNDS)
                .map(|_| store.allocate_chunk(p).unwrap())
                .collect()
        })
        .collect();

    let acked: Mutex<Vec<(ChunkId, Vec<u8>)>> = Mutex::new(Vec::new());
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for (t, my_ids) in ids.iter().enumerate() {
            let (store, acked, barrier) = (&store, &acked, &barrier);
            s.spawn(move || {
                barrier.wait();
                for (round, id) in my_ids.iter().enumerate() {
                    let bytes = content(t, round);
                    store
                        .commit(vec![CommitOp::WriteChunk {
                            id: *id,
                            bytes: bytes.clone(),
                        }])
                        .unwrap();
                    // Acknowledged: from here on, this commit must survive
                    // any crash.
                    acked.lock().unwrap().push((*id, bytes));
                }
            });
        }
    });
    let acked = acked.into_inner().unwrap();
    assert_eq!(acked.len(), THREADS * ROUNDS);
    drop(store);

    let reopened = rig
        .open(&dev.crash_lose_all())
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
// Mid-batch faults: per-member atomicity across recovery.
// ---------------------------------------------------------------------------

/// Concurrent two-op commits with a write fault armed mid-run: failed
/// members never poison the store, and after recovery every member is
/// all-or-nothing — both of its chunks or neither.
#[test]
fn mid_batch_write_fault_is_all_or_nothing_per_member() {
    for fault_offset in [3u64, 11, 23] {
        let rig = Rig::new(config());
        let dev = SimDevice::new();
        let store = rig.create(&dev);
        let p = setup_partition(&store);
        let ids: Vec<(ChunkId, ChunkId)> = (0..THREADS)
            .map(|_| {
                (
                    store.allocate_chunk(p).unwrap(),
                    store.allocate_chunk(p).unwrap(),
                )
            })
            .collect();
        dev.set_plan(FaultPlan::new().at(dev.write_ops() + fault_offset, FaultKind::WriteError));

        let acked: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for (t, (a, b)) in ids.iter().enumerate() {
                let (store, acked, barrier) = (&store, &acked, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    // One atomic two-chunk commit per thread; under the
                    // armed fault it may fail, which is fine — it must then
                    // be invisible or fully adopted, never torn.
                    let result = store.commit(vec![
                        CommitOp::WriteChunk {
                            id: *a,
                            bytes: content(t, 0),
                        },
                        CommitOp::WriteChunk {
                            id: *b,
                            bytes: content(t, 1),
                        },
                    ]);
                    if result.is_ok() {
                        acked.lock().unwrap().push(t);
                    }
                });
            }
        });
        assert!(
            !store.health().is_poisoned(),
            "fault_offset {fault_offset}: a plain I/O fault must never poison"
        );
        let acked = acked.into_inner().unwrap();
        drop(store);

        let reopened = rig
            .open(&dev.snapshot())
            .unwrap_or_else(|e| panic!("fault_offset {fault_offset}: recovery failed: {e}"));
        for (t, (a, b)) in ids.iter().enumerate() {
            let got_a = reopened.read(*a).ok();
            let got_b = reopened.read(*b).ok();
            if acked.contains(&t) {
                assert_eq!(
                    got_a,
                    Some(content(t, 0)),
                    "fault_offset {fault_offset}: acknowledged member {t} lost chunk a"
                );
                assert_eq!(
                    got_b,
                    Some(content(t, 1)),
                    "fault_offset {fault_offset}: acknowledged member {t} lost chunk b"
                );
            } else {
                // Unacknowledged: recovery may adopt the durable set or drop
                // it, but never split it.
                let applied = (got_a == Some(content(t, 0)), got_b == Some(content(t, 1)));
                assert!(
                    applied == (true, true) || applied == (false, false),
                    "fault_offset {fault_offset}: member {t} recovered torn: {applied:?}"
                );
            }
        }
    }
}

/// The seeded-fault-plan torture of the fault_injection suite runs with
/// group commit ON by default; this variant drives it concurrently — mixed
/// faults firing into live batches must never poison and must keep every
/// acknowledged single-commit readable after recovery.
#[test]
fn seeded_fault_plans_with_concurrent_batching() {
    for seed in [1u64, 2, 3] {
        let rig = Rig::new(config());
        let dev = SimDevice::new();
        let store = rig.create(&dev);
        let p = setup_partition(&store);
        let ids: Vec<Vec<ChunkId>> = (0..THREADS)
            .map(|_| (0..3).map(|_| store.allocate_chunk(p).unwrap()).collect())
            .collect();
        // The faulted commits take about 20 device operations, fewer the
        // more of them share a batch: a horizon of 15 keeps every seed's
        // plan inside the most batched run.
        dev.set_plan(dev.ahead(FaultPlan::seeded(seed, 15, 5)));

        let acked: Mutex<Vec<(ChunkId, Vec<u8>)>> = Mutex::new(Vec::new());
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for (t, my_ids) in ids.iter().enumerate() {
                let (store, acked, barrier) = (&store, &acked, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for (round, id) in my_ids.iter().enumerate() {
                        let bytes = content(t, round);
                        if store
                            .commit(vec![CommitOp::WriteChunk {
                                id: *id,
                                bytes: bytes.clone(),
                            }])
                            .is_ok()
                        {
                            acked.lock().unwrap().push((*id, bytes));
                        }
                    }
                });
            }
        });
        assert!(!store.health().is_poisoned(), "seed {seed}: poisoned");
        assert!(dev.injected_faults() >= 1, "seed {seed}: no fault fired");
        let acked = acked.into_inner().unwrap();
        drop(store);

        let reopened = rig
            .open(&dev.snapshot())
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
// Stats: the batching actually batches, and flushes amortize.
// ---------------------------------------------------------------------------

/// N concurrent commits over a slow-flush device produce fewer than N
/// device flushes, at least one multi-member batch, and a batch-size
/// histogram that accounts for every batch. A slow flush keeps the leader
/// busy long enough for followers to enqueue, but scheduling is still
/// nondeterministic, so the flush inequality gets three attempts.
#[test]
fn concurrent_commits_flush_less_than_once_per_commit() {
    const ROUNDS: usize = 6;
    let slow_disk = DiskModel {
        seek: Duration::from_micros(20),
        rotational: Duration::from_micros(10),
        bandwidth: 512 * 1024 * 1024,
        flush: Duration::from_millis(1),
        flush_doubling_threshold: None,
    };
    let attempt = || -> bool {
        let rig = Rig::new(config());
        let dev = SimDevice::new();
        let disk: SharedUntrusted = Arc::new(SimDiskStore::new(
            Arc::clone(&dev) as SharedUntrusted,
            slow_disk,
            Arc::new(SimClock::new(true)),
        ));
        let store = rig.create_over(disk, &dev);
        let p = setup_partition(&store);
        let ids: Vec<ChunkId> = (0..THREADS)
            .map(|_| store.allocate_chunk(p).unwrap())
            .collect();
        let before = store.stats();

        let barrier = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for (t, id) in ids.iter().enumerate() {
                let (store, barrier) = (&store, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for round in 0..ROUNDS {
                        store
                            .commit(vec![CommitOp::WriteChunk {
                                id: *id,
                                bytes: content(t, round),
                            }])
                            .unwrap();
                    }
                });
            }
        });

        let after = store.stats();
        let commits = after.commits - before.commits;
        let flushes = after.flushes - before.flushes;
        let batches = after.commit_batches - before.commit_batches;
        assert_eq!(commits, (THREADS * ROUNDS) as u64);
        // Every commit rode in a batch, and every batch is in the
        // histogram.
        assert_eq!(after.batched_commits - before.batched_commits, commits);
        assert!(batches >= 1, "no batches recorded");
        let hist_delta: u64 = after
            .batch_size_hist
            .iter()
            .zip(before.batch_size_hist)
            .map(|(a, b)| a - b)
            .sum();
        assert_eq!(hist_delta, batches, "histogram misses batches");
        // The headline: amortization happened. Multi-member batches showed
        // up and the device flushed fewer times than it committed.
        let multi: u64 = after.batch_size_hist[1..]
            .iter()
            .zip(&before.batch_size_hist[1..])
            .map(|(a, b)| a - b)
            .sum();
        multi >= 1 && flushes < commits
    };
    assert!(
        (0..3).any(|_| attempt()),
        "three concurrent runs never amortized a flush"
    );
}

// ---------------------------------------------------------------------------
// A lone commit: the paper's durability rule, one device write.
// ---------------------------------------------------------------------------

/// A single-threaded workload: batches of one, whose data and commit
/// chunks coalesce into a single device write before the commit's one
/// flush — and the result recovers.
#[test]
fn group_commit_on_coalesces_single_commits() {
    const COMMITS: u64 = 6;
    let rig = Rig::new(config());
    let dev = SimDevice::new();
    let store = rig.create(&dev);
    let p = setup_partition(&store);
    let ids: Vec<ChunkId> = (0..COMMITS)
        .map(|_| store.allocate_chunk(p).unwrap())
        .collect();
    let io_before = dev.stats().snapshot();
    for (i, id) in ids.iter().enumerate() {
        store
            .commit(vec![CommitOp::WriteChunk {
                id: *id,
                bytes: content(i, 0),
            }])
            .unwrap();
    }
    let io = dev.stats().snapshot().since(&io_before);
    assert_eq!(io.writes, COMMITS, "coalesced: 1 write per commit");
    assert_eq!(io.flushes, COMMITS, "durability rule unchanged");
    let stats = store.stats();
    assert_eq!(stats.batched_commits, COMMITS + 1); // + CreatePartition.
    assert!(stats.log_writes_coalesced >= COMMITS);
    drop(store);
    let reopened = rig
        .open(&dev.snapshot())
        .expect("recovery of the coalesced log");
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(reopened.read(*id).unwrap(), content(i, 0));
    }
}

// ---------------------------------------------------------------------------
// Incremental checkpoints.
// ---------------------------------------------------------------------------

/// A checkpoint right after a clean one finds every cached map level clean
/// and skips them all; a single write dirties only one leaf level at
/// checkpoint start, so higher levels still count as skipped.
#[test]
fn clean_levels_are_skipped_by_incremental_checkpoints() {
    let rig = Rig::new(config());
    let store = rig.create(&SimDevice::new());
    let p = setup_partition(&store);
    for i in 0..24usize {
        let id = store.allocate_chunk(p).unwrap();
        store
            .commit(vec![CommitOp::WriteChunk {
                id,
                bytes: content(i, 2),
            }])
            .unwrap();
    }
    store.checkpoint().unwrap();
    let after_first = store.stats().dirty_map_levels_skipped;
    // Nothing dirtied since: the second checkpoint skips every cached
    // level.
    store.checkpoint().unwrap();
    let after_second = store.stats().dirty_map_levels_skipped;
    assert!(
        after_second > after_first,
        "clean checkpoint skipped no levels ({after_first} -> {after_second})"
    );
}
