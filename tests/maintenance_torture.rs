//! Bounded-log torture: a log capped at `max_segments` must stay writable
//! however its committers and cleaners race.
//!
//! The properties under test:
//!
//! - A bounded log never wedges. Commits may not take the cleaner reserve
//!   (the last R segments), and below R + 2 free segments each commit
//!   batch first cleans one slice inline, so overwriting a small live set
//!   commits indefinitely — with one committer, with six, and with a
//!   thread calling `clean` racing them — and a commit after the threads
//!   join still succeeds.
//! - The reserve covers the worst slice: a pass that starts with free
//!   segments exactly at R, must checkpoint first, and relocates segments
//!   as live as the net-gain rule lets it pick, never runs out of space.
//! - A log full of live data is left alone: its inline slices relocate
//!   nothing, `clean` answers `Ok(0)`, and the reserve stays free.
//! - No commit is acknowledged before its durability point while inline
//!   slices clean and checkpoint: a crash that loses every unflushed write,
//!   a crash at every device op and every counter write of a slice that
//!   takes the reserve, and seeded fault plans all keep every
//!   acknowledged commit, and the reopened store admits a commit.

use std::collections::HashMap;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use tdb::{
    ChunkId, ChunkStore, ChunkStoreConfig, CommitOp, CryptoParams, PartitionId, TrustedBackend,
};
use tdb_core::CoreError;
use tdb_crypto::SecretKey;
use tdb_storage::{
    CounterOverTrusted, DeviceSnapshot, FaultKind, FaultPlan, SharedUntrusted, SimDevice,
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

    fn create(&self, dev: &Arc<SimDevice>) -> ChunkStore {
        ChunkStore::create(
            Arc::clone(dev) as SharedUntrusted,
            backend(dev),
            self.secret.clone(),
            self.config.clone(),
        )
        .unwrap()
    }

    /// Reboots a machine from `snapshot`: its image and its register.
    fn open(&self, snapshot: &DeviceSnapshot) -> tdb_core::Result<ChunkStore> {
        self.reopen(&SimDevice::from_snapshot(snapshot))
    }

    /// Reopens the store on `dev` as it stands, keeping its op counters.
    fn reopen(&self, dev: &Arc<SimDevice>) -> tdb_core::Result<ChunkStore> {
        ChunkStore::open(
            Arc::clone(dev) as SharedUntrusted,
            backend(dev),
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
    vec![(thread * 29 + round * 13 + 1) as u8; 300 + (thread * 37 + round * 53) % 400]
}

/// Commits with bounded patience: `OutOfSpace` (a fault plan can leave
/// a slice unable to reclaim) is retried after a pause; any other error,
/// `DegradedMode` included, ends the attempt, since a degraded store takes
/// no commit until it is reopened. Returns whether the commit was
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
            Err(_) => return false,
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Durability before ack, with inline slices cleaning behind the committers.
// ---------------------------------------------------------------------------

/// Concurrent committers overwrite a shared working set over a write-back
/// cache while their batch leaders clean and checkpoint inline. A crash
/// that loses *every* unflushed write must preserve the last acknowledged
/// value of every chunk — a slice must never let a commit be acknowledged
/// before its durability point, and its relocations must never
/// un-persist acknowledged data.
#[test]
fn acked_commits_survive_crash_during_inline_cleaning() {
    const ROUNDS: usize = 20;
    let rig = Rig::new(bounded_config());
    let dev = SimDevice::new();
    let store = rig.create(&dev);
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
    // The workload overwrote a 24-segment log many times over; inline
    // slices are what kept it alive.
    assert!(stats.clean_slices >= 1, "no inline slice ran");
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
// Seeded faults firing into inline slices.
// ---------------------------------------------------------------------------

/// Mixed seeded faults land in whatever the store happens to be doing —
/// commits, checkpoints, or inline clean slices, whichever batch leader
/// runs them. The invariants must hold anyway: plain I/O faults never
/// poison, and every acknowledged commit survives recovery. A fault that
/// degrades the store ends a round; the next round reopens the same
/// device, so the writes left still meet the faults ahead of them.
#[test]
fn seeded_faults_with_inline_cleaning_never_poison() {
    const WRITES: usize = 3;
    let mut injected = 0;
    for seed in [1u64, 2, 3] {
        let rig = Rig::new(bounded_config());
        let dev = SimDevice::new();
        let mut store = rig.create(&dev);
        let p = setup_partition(&store);
        // Churn a scratch chunk until the log is below the slowdown mark,
        // so the first faulted commit runs an inline slice, whatever the
        // faults then do to the rounds after it.
        let scratch = store.allocate_chunk(p).unwrap();
        while {
            let (free, reserve) = store.debug_free_and_reserve();
            free > reserve + 1
        } {
            assert!(commit_patiently(&store, scratch, &[0x5C; 600]));
        }
        // The faulted writes take about 30 device operations.
        let plan = dev.ahead(FaultPlan::seeded(seed, 30, 5));

        // Write-once ids: a failed commit is never durably superseded, so
        // "acknowledged implies readable after recovery" stays exact even
        // though recovery may also adopt unacknowledged durable commits.
        let acked: Mutex<Vec<(ChunkId, Vec<u8>)>> = Mutex::new(Vec::new());
        let mut done = [0usize; THREADS];
        let mut slices = 0;
        loop {
            // Fresh ids for the writes left: a reopen drops reservations.
            let ids: Vec<Vec<ChunkId>> = done
                .iter()
                .map(|&d| {
                    (d..WRITES)
                        .map(|_| store.allocate_chunk(p).unwrap())
                        .collect()
                })
                .collect();
            dev.set_plan(plan.clone());
            let barrier = Barrier::new(THREADS);
            let ran: Vec<usize> = std::thread::scope(|s| {
                let handles: Vec<_> = ids
                    .iter()
                    .enumerate()
                    .map(|(t, my_ids)| {
                        let (store, acked, barrier, first) = (&store, &acked, &barrier, done[t]);
                        s.spawn(move || {
                            barrier.wait();
                            for (k, id) in my_ids.iter().enumerate() {
                                if !store.health().is_live() {
                                    return k;
                                }
                                let bytes = content(t, first + k);
                                if commit_patiently(store, *id, &bytes) {
                                    acked.lock().unwrap().push((*id, bytes));
                                }
                            }
                            my_ids.len()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            dev.set_plan(FaultPlan::new());
            assert!(
                !store.health().is_poisoned(),
                "seed {seed}: an I/O fault during cleaning must never poison"
            );
            slices += store.stats().clean_slices;
            for (d, n) in done.iter_mut().zip(ran) {
                *d += n;
            }
            if done.iter().all(|&d| d == WRITES) {
                break;
            }
            drop(store);
            store = rig
                .reopen(&dev)
                .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
        }
        assert!(slices >= 1, "seed {seed}: no slice ran");
        injected += dev.injected_faults();
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
    assert!(injected >= 1, "no seed injected a fault");
}

// ---------------------------------------------------------------------------
// The cleaner keeps a bounded log alive under sustained pressure.
// ---------------------------------------------------------------------------

/// Sustained overwrites push several times the raw log capacity through a
/// 24-segment store. Only reclamation makes that possible — no caller
/// cleans here, so it is the inline slices — and the stats must show it
/// happened: segments reclaimed and the work done in slices.
#[test]
fn background_cleaner_sustains_writes_past_raw_capacity() {
    const ROUNDS: usize = 60;
    let rig = Rig::new(bounded_config());
    let store = rig.create(&SimDevice::new());
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
    assert!(stats.clean_slices >= 1, "cleaning never ran in slices");

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
// A bounded log never wedges.
// ---------------------------------------------------------------------------

/// The default configuration on a 24-segment log of 4 KiB segments.
fn small_log_config() -> ChunkStoreConfig {
    ChunkStoreConfig {
        segment_size: 4096,
        max_segments: 24,
        ..ChunkStoreConfig::default()
    }
}

fn overwrite(store: &ChunkStore, id: ChunkId, round: usize) -> tdb_core::Result<()> {
    store.commit(vec![CommitOp::WriteChunk {
        id,
        bytes: vec![round as u8; 500],
    }])
}

/// `committers` threads each overwrite eight shared 500-byte chunks
/// round-robin, `rounds` times, while (with `racing_cleaner`) one more
/// thread calls `clean(4)` every 200 µs. Every commit must succeed, and so
/// must one more after the threads join.
fn never_wedges(committers: usize, rounds: usize, racing_cleaner: bool) {
    let rig = Rig::new(small_log_config());
    let store = rig.create(&SimDevice::new());
    let p = setup_partition(&store);
    let ids: Vec<ChunkId> = (0..8).map(|_| store.allocate_chunk(p).unwrap()).collect();
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let cleaner = racing_cleaner.then(|| {
            s.spawn(|| {
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    store.clean(4)?;
                    std::thread::sleep(Duration::from_micros(200));
                }
                Ok::<(), CoreError>(())
            })
        });
        let workers: Vec<_> = (0..committers)
            .map(|t| {
                let (store, ids) = (&store, &ids);
                s.spawn(move || {
                    for round in 0..rounds {
                        let id = ids[(t + round) % ids.len()];
                        if let Err(e) = overwrite(store, id, round) {
                            return Err(format!("committer {t}, round {round}: {e}"));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        let committed: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(c) = cleaner {
            c.join().unwrap().expect("a racing clean call failed");
        }
        for outcome in committed {
            outcome.unwrap();
        }
    });
    overwrite(&store, ids[0], 7).expect("the commit after the join");
    assert!(store.health().is_live());
    if !racing_cleaner {
        assert!(store.stats().clean_slices >= 1, "no inline slice ran");
    }
    let log_bytes = u64::from(rig.config.max_segments) * u64::from(rig.config.segment_size);
    assert!(store.stored_size() <= tdb_core::log::SEGMENT_BASE + log_bytes);
    assert_eq!(store.read(ids[0]).unwrap(), vec![7u8; 500]);
}

/// The single-committer stream: 3,000 overwrites of eight chunks through
/// a log that holds about 150 of them.
#[test]
fn one_committer_never_wedges_a_bounded_log() {
    never_wedges(1, 3000, false);
}

#[test]
fn one_committer_and_a_racing_cleaner_never_wedge_a_bounded_log() {
    never_wedges(1, 3000, true);
}

#[test]
fn six_committers_never_wedge_a_bounded_log() {
    never_wedges(6, 500, false);
}

#[test]
fn six_committers_and_a_racing_cleaner_never_wedge_a_bounded_log() {
    never_wedges(6, 500, true);
}

/// A log filled with live data until commits answer `OutOfSpace` has
/// nothing worth cleaning: the inline slice a further commit runs
/// relocates nothing, `clean` answers `Ok(0)` rather than `OutOfSpace`,
/// and the reserve is still free.
#[test]
fn a_log_full_of_live_data_is_left_alone() {
    let rig = Rig::new(ChunkStoreConfig {
        fanout: 4,
        ..small_log_config()
    });
    let store = rig.create(&SimDevice::new());
    let p = setup_partition(&store);
    let write_new = |round: usize| {
        let id = store.allocate_chunk(p).unwrap();
        overwrite(&store, id, round)
    };
    // Full: three commits in a row refused, each after its inline slice.
    let (mut round, mut refused) = (0, 0);
    while refused < 3 {
        match write_new(round) {
            Ok(()) => refused = 0,
            Err(CoreError::OutOfSpace) => refused += 1,
            Err(e) => panic!("round {round}: {e}"),
        }
        round += 1;
        assert!(round < 10_000, "a 24-segment log never filled");
    }
    let before = store.stats();
    assert!(matches!(write_new(round), Err(CoreError::OutOfSpace)));
    let after = store.stats();
    assert_eq!(after.clean_slices, before.clean_slices + 1, "no slice ran");
    assert_eq!(after.chunks_relocated, before.chunks_relocated, "churn");
    assert_eq!(store.clean(4).unwrap(), 0);
    assert_eq!(store.stats().chunks_relocated, before.chunks_relocated);
    let (free, reserve) = store.debug_free_and_reserve();
    assert!(
        free >= reserve,
        "{free} free segments under a reserve of {reserve}"
    );
    assert!(store.health().is_live());
}

/// The worst case one slice can meet. Each layout commits a new 600-byte
/// chunk — at every fourth rank, so each dirties map chunks of its own —
/// together with an overwrite of one scratch chunk, whose size sets how
/// much garbage each segment holds; nothing checkpoints, so every segment
/// stays in the residual log. The image is then reopened with
/// `max_segments` set so that free segments are exactly the reserve R the
/// reopened store derives. One `clean` over a slice's two segments must
/// checkpoint first (all those dirty map chunks), relocate what the
/// net-gain rule lets it pick — from the layouts whose segments it barely
/// picks to those with room to spare — and never answer `OutOfSpace`; the
/// next commit must be admitted.
#[test]
fn the_reserve_covers_the_worst_slice() {
    let mut relocated_any = false;
    for scratch in (0..=360).step_by(24) {
        let rig = Rig::new(ChunkStoreConfig {
            fanout: 4,
            segment_size: 4096,
            checkpoint_threshold: 100_000,
            ..ChunkStoreConfig::default()
        });
        let dev = SimDevice::new();
        let (p, x) = {
            let store = rig.create(&dev);
            let p = setup_partition(&store);
            let x = store.allocate_chunk(p).unwrap();
            for i in 0..120u32 {
                let ids: Vec<ChunkId> = (0..4).map(|_| store.allocate_chunk(p).unwrap()).collect();
                store
                    .commit(vec![
                        CommitOp::WriteChunk {
                            id: ids[0],
                            bytes: vec![i as u8; 600],
                        },
                        CommitOp::WriteChunk {
                            id: x,
                            bytes: vec![i as u8; scratch],
                        },
                    ])
                    .unwrap();
            }
            assert_eq!(store.stats().checkpoints, 1, "only the format checkpoint");
            (p, x)
        };
        let snapshot = dev.snapshot();
        let reopen = |max_segments: u32| {
            let rig = Rig {
                config: ChunkStoreConfig {
                    max_segments,
                    ..rig.config.clone()
                },
                secret: rig.secret.clone(),
            };
            rig.open(&snapshot).unwrap()
        };
        let segments =
            (snapshot.image.len() as u64 - tdb_core::log::SEGMENT_BASE).div_ceil(4096) as u32;
        let (_, reserve) = reopen(u32::MAX).debug_free_and_reserve();
        let store = reopen(segments + reserve as u32);
        let ctx = format!("scratch {scratch}");
        assert_eq!(store.debug_free_and_reserve(), (reserve, reserve), "{ctx}");
        assert!(store.debug_residual_segments() > 2, "{ctx}");
        let before = store.stats();
        let reclaimed = store
            .clean(2)
            .unwrap_or_else(|e| panic!("{ctx}: the slice ran out of space: {e}"));
        let after = store.stats();
        assert_eq!(
            after.checkpoints,
            before.checkpoints + 1,
            "{ctx}: no checkpoint"
        );
        if reclaimed > 0 {
            relocated_any |= after.chunks_relocated > before.chunks_relocated;
        }
        let id = store.allocate_chunk(p).unwrap();
        store
            .commit(vec![CommitOp::WriteChunk {
                id,
                bytes: vec![0xAA; 600],
            }])
            .unwrap_or_else(|e| panic!("{ctx}: the next commit was refused: {e}"));
        assert_eq!(store.read(x).unwrap(), vec![119u8; scratch], "{ctx}");
    }
    assert!(relocated_any, "no layout let the slice relocate anything");
}

// ---------------------------------------------------------------------------
// A crash sweep through a slice that takes the reserve.
// ---------------------------------------------------------------------------

/// A bounded store one commit short of its first inline slice.
struct SliceRig {
    rig: Rig,
    dev: Arc<SimDevice>,
    store: ChunkStore,
    /// Every chunk with its acknowledged content; the slice's commit
    /// overwrites chunk 0.
    acked: Vec<(ChunkId, Vec<u8>)>,
}

impl SliceRig {
    /// Overwrites eight hot chunks round-robin and writes a cold one every
    /// other round, nothing checkpointing, until free segments fall below
    /// R + 2: the next commit's batch leader runs a slice, which must
    /// checkpoint before it can clean anything.
    fn new() -> SliceRig {
        let rig = Rig::new(ChunkStoreConfig {
            fanout: 4,
            segment_size: 4096,
            max_segments: 16,
            checkpoint_threshold: 100_000,
            ..ChunkStoreConfig::default()
        });
        let dev = SimDevice::new();
        let store = rig.create(&dev);
        let p = setup_partition(&store);
        let mut acked: Vec<(ChunkId, Vec<u8>)> = (0..8)
            .map(|_| (store.allocate_chunk(p).unwrap(), Vec::new()))
            .collect();
        for round in 0.. {
            let (free, reserve) = store.debug_free_and_reserve();
            if free < reserve + 2 {
                break;
            }
            let i = round % 8;
            let bytes = vec![round as u8; 450];
            overwrite_with(&store, acked[i].0, &bytes).unwrap();
            acked[i].1 = bytes;
            if round % 2 == 0 {
                // A cold chunk every other round, at every fourth rank: each
                // segment keeps live data to relocate, and each cold chunk
                // dirties map chunks of its own for the checkpoint.
                let ids: Vec<ChunkId> = (0..4).map(|_| store.allocate_chunk(p).unwrap()).collect();
                let bytes = vec![round as u8; 300];
                overwrite_with(&store, ids[0], &bytes).unwrap();
                acked.push((ids[0], bytes));
            }
        }
        assert_eq!(store.stats().clean_slices, 0);
        SliceRig {
            rig,
            dev,
            store,
            acked,
        }
    }

    /// The commit whose batch runs the slice: an overwrite of chunk 0.
    fn commit(&self) -> tdb_core::Result<()> {
        overwrite_with(&self.store, self.acked[0].0, &[0xC5; 450])
    }

    /// Crashes keeping every write the device took, reopens against the
    /// register as the crash left it, and checks every acknowledged commit
    /// survived and the reopened store admits one more.
    fn crash_and_reopen(&self, result: &tdb_core::Result<()>, ctx: &str) {
        let store = self
            .rig
            .open(&self.dev.crash_keep_all())
            .unwrap_or_else(|e| panic!("{ctx}: recovery refused the image: {e}"));
        for (i, (id, old)) in self.acked.iter().enumerate() {
            let got = store
                .read(*id)
                .unwrap_or_else(|e| panic!("{ctx}: chunk {i}: {e}"));
            if i == 0 && result.is_ok() {
                assert_eq!(got, vec![0xC5; 450], "{ctx}: the acked commit was lost");
            } else if i == 0 {
                assert!(got == *old || got == vec![0xC5; 450], "{ctx}: chunk 0 torn");
            } else {
                assert_eq!(&got, old, "{ctx}: chunk {i}");
            }
        }
        overwrite_with(&store, self.acked[1].0, b"post-recovery")
            .unwrap_or_else(|e| panic!("{ctx}: the reopened store refused a commit: {e}"));
    }
}

fn overwrite_with(store: &ChunkStore, id: ChunkId, bytes: &[u8]) -> tdb_core::Result<()> {
    store.commit(vec![CommitOp::WriteChunk {
        id,
        bytes: bytes.to_vec(),
    }])
}

/// The slice run clean — it must take a segment out of the reserve — then
/// stopped at every device op, then with every trusted-counter write
/// failed in turn. Recovery keeps every acknowledged commit each time, and
/// the reopened store, which derives R afresh, admits a commit.
#[test]
fn crash_sweep_through_a_slice_that_takes_the_reserve() {
    let dry = SliceRig::new();
    let (free, reserve) = dry.store.debug_free_and_reserve();
    let (size, ops, advances) = (
        dry.store.stored_size(),
        dry.dev.total_ops(),
        dry.dev.register_ops(),
    );
    dry.commit().unwrap();
    assert_eq!(dry.store.stats().clean_slices, 1);
    // The free list was empty, so every segment the slice took extended
    // the log.
    let taken = (dry.store.stored_size() - size) / 4096;
    assert!(
        free - taken < reserve,
        "the slice took {taken} of {free} free segments, none of the {reserve} reserved"
    );
    let ops = dry.dev.total_ops() - ops;
    let advances = dry.dev.register_ops() - advances;
    dry.crash_and_reopen(&Ok(()), "crash after the slice");

    for halt in 0..ops {
        let rig = SliceRig::new();
        let start = rig.dev.total_ops() + halt;
        rig.dev
            .set_plan(FaultPlan::new().at(start, FaultKind::TransientWindow { len: u64::MAX }));
        let result = rig.commit();
        assert!(!rig.store.health().is_poisoned(), "device op {halt}");
        rig.crash_and_reopen(&result, &format!("stopped at device op {halt}"));
    }
    for fail in 0..advances {
        let rig = SliceRig::new();
        let from = rig.dev.register_ops() + fail;
        rig.dev
            .set_plan(FaultPlan::new().at(from, FaultKind::RegisterFailsFrom));
        let result = rig.commit();
        assert_eq!(rig.dev.injected_faults(), 1, "counter write {fail}");
        rig.crash_and_reopen(&result, &format!("counter write {fail} failed"));
    }
}
