//! Crash-recovery properties: for every possible crash point, the
//! recovered database equals a prefix of the committed history —
//! acknowledged commits are never lost, torn tails never surface.

use std::sync::Arc;

use tdb_core::store::{ChunkStore, ChunkStoreConfig, CommitOp, TrustedBackend, ValidationMode};
use tdb_core::version::parse_version;
use tdb_core::{ChunkId, CryptoParams};
use tdb_crypto::SecretKey;
use tdb_storage::{
    CounterOverTrusted, DeviceSnapshot, FaultKind, FaultPlan, SharedUntrusted, SimDevice,
};

fn config(validation: ValidationMode) -> ChunkStoreConfig {
    ChunkStoreConfig {
        fanout: 4,
        segment_size: 4096,
        checkpoint_threshold: 6, // Frequent checkpoints: exercise them.
        validation,
        ..ChunkStoreConfig::default()
    }
}

struct Platform {
    secret: SecretKey,
    config: ChunkStoreConfig,
}

impl Platform {
    fn new(validation: ValidationMode) -> Platform {
        Platform {
            secret: SecretKey::random(24),
            config: config(validation),
        }
    }

    fn backend(&self, dev: &Arc<SimDevice>) -> TrustedBackend {
        match self.config.validation {
            ValidationMode::Counter { .. } => {
                TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(dev.register())))
            }
            ValidationMode::DirectHash => TrustedBackend::Register(dev.register()),
        }
    }

    fn create(&self, dev: &Arc<SimDevice>) -> ChunkStore {
        ChunkStore::create(
            Arc::clone(dev) as SharedUntrusted,
            self.backend(dev),
            self.secret.clone(),
            self.config.clone(),
        )
        .unwrap()
    }

    /// Reboots a machine from `snapshot`: its image and its register.
    fn open(&self, snapshot: &DeviceSnapshot) -> tdb_core::Result<ChunkStore> {
        let dev = SimDevice::from_snapshot(snapshot);
        ChunkStore::open(
            Arc::clone(&dev) as SharedUntrusted,
            self.backend(&dev),
            self.secret.clone(),
            self.config.clone(),
        )
    }
}

/// Runs a scripted workload, capturing the untrusted image after every
/// commit; then, for each captured image, reopens and verifies the state
/// matches the history at that point.
fn crash_at_every_commit(validation: ValidationMode) {
    let platform = Platform::new(validation);
    let dev = SimDevice::new();
    let store = platform.create(&dev);
    let p = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: CryptoParams::paper_default(),
        }])
        .unwrap();

    // History: after step i, chunks 0..=i hold "v{step_of_last_write}".
    // (device snapshot, expected state per rank).
    type CrashPoint = (DeviceSnapshot, Vec<(u64, Option<String>)>);
    let mut images: Vec<CrashPoint> = Vec::new();
    let mut state: Vec<(u64, Option<String>)> = Vec::new();
    let mut ids: Vec<ChunkId> = Vec::new();

    for step in 0..30u32 {
        match step % 5 {
            // Mostly writes; occasionally dealloc or overwrite.
            0..=2 => {
                let c = store.allocate_chunk(p).unwrap();
                let value = format!("v{step}-{}", "d".repeat(step as usize % 7 * 30));
                store
                    .commit(vec![CommitOp::WriteChunk {
                        id: c,
                        bytes: value.clone().into_bytes(),
                    }])
                    .unwrap();
                if let Some(slot) = state.iter_mut().find(|(r, _)| *r == c.pos.rank) {
                    slot.1 = Some(value);
                } else {
                    state.push((c.pos.rank, Some(value)));
                }
                ids.push(c);
            }
            3 if !ids.is_empty() => {
                let c = ids[step as usize % ids.len()];
                let value = format!("over{step}");
                store
                    .commit(vec![CommitOp::WriteChunk {
                        id: c,
                        bytes: value.clone().into_bytes(),
                    }])
                    .unwrap();
                if let Some(slot) = state.iter_mut().find(|(r, _)| *r == c.pos.rank) {
                    slot.1 = Some(value);
                }
            }
            _ => {
                if let Some(pos) = state.iter().position(|(_, v)| v.is_some()) {
                    let rank = state[pos].0;
                    store
                        .commit(vec![CommitOp::DeallocChunk {
                            id: ChunkId::data(p, rank),
                        }])
                        .unwrap();
                    state[pos].1 = None;
                }
            }
        }
        images.push((dev.snapshot(), state.clone()));
    }

    // Replay every crash point.
    for (i, (snapshot, expected)) in images.iter().enumerate() {
        let store = platform
            .open(snapshot)
            .unwrap_or_else(|e| panic!("crash point {i}: recovery failed: {e}"));
        for (rank, value) in expected {
            let got = store.read(ChunkId::data(p, *rank));
            match value {
                Some(v) => assert_eq!(
                    got.unwrap_or_else(|e| panic!("crash point {i}, rank {rank}: {e}")),
                    v.as_bytes(),
                    "crash point {i}, rank {rank}"
                ),
                None => assert!(got.is_err(), "crash point {i}: rank {rank} should be gone"),
            }
        }
        // The recovered store remains fully usable.
        let c = store.allocate_chunk(p).unwrap();
        store
            .commit(vec![CommitOp::WriteChunk {
                id: c,
                bytes: b"post-recovery write".to_vec(),
            }])
            .unwrap();
    }
}

#[test]
fn counter_mode_crash_at_every_commit() {
    crash_at_every_commit(ValidationMode::Counter {
        delta_ut: 5,
        delta_tu: 0,
    });
}

#[test]
fn direct_mode_crash_at_every_commit() {
    crash_at_every_commit(ValidationMode::DirectHash);
}

#[test]
fn unflushed_writes_lost_are_harmless() {
    // A volatile write-back cache loses everything since the last flush.
    // The chunk store flushes at every commit, so a post-commit crash can
    // only lose nothing; a mid-commit crash loses the torn tail.
    let platform = Platform::new(ValidationMode::Counter {
        delta_ut: 5,
        delta_tu: 0,
    });
    let dev = SimDevice::new();
    let store = platform.create(&dev);
    let p = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: CryptoParams::paper_default(),
        }])
        .unwrap();
    let c = store.allocate_chunk(p).unwrap();
    store
        .commit(vec![CommitOp::WriteChunk {
            id: c,
            bytes: b"acknowledged".to_vec(),
        }])
        .unwrap();
    // Now simulate a crash that loses all writes since the last flush —
    // there are none pending, so the image equals the durable state.
    let store = platform.open(&dev.crash_lose_all()).unwrap();
    assert_eq!(store.read(c).unwrap(), b"acknowledged");
}

#[test]
fn torn_mid_commit_write_discarded() {
    // Crash *during* a commit: only a prefix of the commit's writes reach
    // the device and no flush happened. Recovery must fall back to the
    // previous acknowledged state.
    let platform = Platform::new(ValidationMode::Counter {
        delta_ut: 5,
        delta_tu: 0,
    });
    let dev = SimDevice::new();
    let store = platform.create(&dev);
    let p = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: CryptoParams::paper_default(),
        }])
        .unwrap();
    let c1 = store.allocate_chunk(p).unwrap();
    store
        .commit(vec![CommitOp::WriteChunk {
            id: c1,
            bytes: b"stable".to_vec(),
        }])
        .unwrap();
    let register_before = dev.snapshot().register;

    // Start another commit; capture images at every possible torn point.
    let writes_before = dev.write_ops();
    let c2 = store.allocate_chunk(p).unwrap();
    store
        .commit(vec![CommitOp::WriteChunk {
            id: c2,
            bytes: vec![0x77; 600],
        }])
        .unwrap();
    let writes_after = dev.write_ops();
    let torn_points = (writes_after - writes_before) as usize;

    // For each torn prefix of the final commit's device writes, recovery
    // must yield either the pre-commit or the post-commit state.
    for keep in 0..torn_points {
        // The final commit flushed, so the full image is durable; the
        // torn variant is approximated by truncating trailing bytes.
        let full = dev.snapshot().image;
        let cut = full.len().saturating_sub((torn_points - keep) * 50);
        let torn = DeviceSnapshot {
            image: full[..cut].to_vec(),
            register: register_before.clone(),
        };
        if let Ok(store) = platform.open(&torn) {
            assert_eq!(store.read(c1).unwrap(), b"stable");
            if let Ok(v) = store.read(c2) {
                assert_eq!(v, vec![0x77; 600]);
            }
        }
    }
}

/// The intra-write tear sweep: a commit's device writes are interrupted
/// *inside* write number `complete`, at byte `split`. Built by dropping the
/// commit's flush (so [`SimDevice`] retains the commit's writes as
/// pending), then asking [`SimDevice::crash_torn`] for every torn image.
///
/// For every such image, recovery must yield the pre-commit state or the
/// whole post-commit state — never a torn mixture — and the recovered
/// store must stay fully usable. The commit itself was never acknowledged
/// (the flush error surfaced), so losing it is sound.
#[test]
fn torn_within_single_write_sweep() {
    // One scenario run yields every torn image: crash_torn halts the store
    // but leaves the pending journal intact, so each (complete, split)
    // pair is just another view of the same crash.
    let platform = Platform::new(ValidationMode::Counter {
        delta_ut: 5,
        delta_tu: 0,
    });
    let dev = SimDevice::new();
    let store = platform.create(&dev);
    let p = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: CryptoParams::paper_default(),
        }])
        .unwrap();
    let c1 = store.allocate_chunk(p).unwrap();
    store
        .commit(vec![CommitOp::WriteChunk {
            id: c1,
            bytes: b"stable".to_vec(),
        }])
        .unwrap();

    // Drop the final commit's flush: the commit fails (unacknowledged) and
    // its writes stay pending in the crash journal.
    dev.set_plan(FaultPlan::new().at(dev.flush_ops(), FaultKind::DroppedFlush));
    let c2 = store.allocate_chunk(p).unwrap();
    let payload = vec![0x5A; 700];
    let result = store.commit(vec![CommitOp::WriteChunk {
        id: c2,
        bytes: payload.clone(),
    }]);
    assert!(result.is_err(), "a dropped flush means no acknowledgement");
    let pending = dev.pending_extents().len();
    // Group commit coalesces the data chunk and the commit chunk into one
    // contiguous device write; with batching off it stays two. Either way
    // the sweep below tears inside every pending write.
    assert!(pending >= 1, "the commit made at least one device write");

    let mut images = Vec::new();
    for complete in 0..pending {
        // Tear inside pending write `complete` at several byte offsets; the
        // splits are clamped to each write's length by crash_torn.
        for split in [0usize, 1, 5, 97, 512] {
            images.push((complete, split, dev.crash_torn(complete, split)));
        }
    }
    // And the whole-writes-survived boundary case.
    images.push((pending, 0, dev.crash_keep_all()));

    for (complete, split, image) in images {
        let ctx = format!("torn at write {complete}, byte {split}");
        let store = platform
            .open(&image)
            .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
        // Acknowledged state always survives.
        assert_eq!(store.read(c1).unwrap(), b"stable", "{ctx}");
        // The interrupted commit is all-or-nothing, never a torn mixture.
        if let Ok(v) = store.read(c2) {
            assert_eq!(v, payload, "{ctx}: torn bytes served");
        }
        // And the recovered store is fully usable.
        let c = store.allocate_chunk(p).unwrap();
        store
            .commit(vec![CommitOp::WriteChunk {
                id: c,
                bytes: b"post-recovery write".to_vec(),
            }])
            .unwrap_or_else(|e| panic!("{ctx}: recovered store rejects commits: {e}"));
    }
}

/// Builds a store whose early segments mix one current version with many
/// obsolete ones, so `clean()` must relocate live data and reclaim space.
/// Returns the chunk ids with their expected contents plus the one
/// deallocated id that must never resurrect.
#[allow(clippy::type_complexity)]
fn cleanable_workload(
    platform: &Platform,
    dev: &Arc<SimDevice>,
) -> (
    ChunkStore,
    tdb_core::PartitionId,
    Vec<(ChunkId, Vec<u8>)>,
    ChunkId,
) {
    let store = platform.create(dev);
    let p = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: CryptoParams::paper_default(),
        }])
        .unwrap();
    let mut ids = Vec::new();
    for i in 0..8u8 {
        let c = store.allocate_chunk(p).unwrap();
        store
            .commit(vec![CommitOp::WriteChunk {
                id: c,
                bytes: vec![0x10 + i; 500],
            }])
            .unwrap();
        ids.push(c);
    }
    // Overwrite everything but chunk 0: its original version stays current
    // inside a segment that is otherwise obsolete — a relocation target.
    let mut expected = vec![(ids[0], vec![0x10u8; 500])];
    for (i, &c) in ids.iter().enumerate().take(7).skip(1) {
        let bytes = vec![0xA0 + i as u8; 500];
        store
            .commit(vec![CommitOp::WriteChunk {
                id: c,
                bytes: bytes.clone(),
            }])
            .unwrap();
        expected.push((c, bytes));
    }
    let dead = ids[7];
    store
        .commit(vec![CommitOp::DeallocChunk { id: dead }])
        .unwrap();
    // Checkpoint so the early segments leave the residual log and become
    // cleanable.
    store.checkpoint().unwrap();
    (store, p, expected, dead)
}

/// Same tear sweep, but the interrupted operation is `clean()`: the torn
/// writes are the cleaner's relocated versions, its commit chunk, and the
/// leader update that reclaims segments. For every torn image, recovery
/// must serve every current version — from its old location when the
/// clean's writes were lost (reclaim is metadata-only, the bytes are still
/// there) or from its relocated one when they landed — and a version made
/// obsolete before the clean must never resurrect.
#[test]
fn torn_clean_write_sweep() {
    let mut platform = Platform::new(ValidationMode::Counter {
        delta_ut: 5,
        delta_tu: 0,
    });
    platform.config.segment_size = 2048;
    platform.config.checkpoint_threshold = 100; // Manual checkpoints only.
    let dev = SimDevice::new();
    let (store, p, expected, dead) = cleanable_workload(&platform, &dev);

    // Drop the clean's flush: the pass fails (never acknowledged) and its
    // device writes stay pending in the crash journal.
    dev.set_plan(FaultPlan::new().at(dev.flush_ops(), FaultKind::DroppedFlush));
    assert!(
        store.clean(8).is_err(),
        "a dropped flush means the clean never completed"
    );
    // The pass reaches the device as one write per contiguous run. Tear
    // each at every version boundary in it and one byte either side, then
    // keep every write whole.
    let whole = dev.crash_keep_all().image;
    let system = platform
        .config
        .system_params(&platform.secret)
        .runtime()
        .unwrap();
    let mut tears = Vec::new();
    let mut boundaries = 0;
    for (complete, (offset, len)) in dev.pending_extents().into_iter().enumerate() {
        let run = &whole[offset as usize..offset as usize + len];
        let mut at = 0;
        let mut bounds = vec![0];
        while let Ok(Some(version)) = parse_version(&system, &run[at..], offset + at as u64) {
            at += version.total_len;
            bounds.push(at);
        }
        boundaries += bounds.len();
        let mut splits: Vec<usize> = bounds
            .into_iter()
            .flat_map(|b| [b.saturating_sub(1), b, b + 1])
            .collect();
        splits.dedup();
        tears.extend(splits.into_iter().map(|split| (complete, split)));
    }
    assert!(
        boundaries >= 8,
        "cleaning appends relocated versions, cleaner records and a commit \
         chunk: only {boundaries} version boundaries"
    );
    tears.push((dev.pending_extents().len(), 0));

    for (complete, split) in tears {
        let ctx = format!("clean torn at write {complete}, byte {split}");
        let store = platform
            .open(&dev.crash_torn(complete, split))
            .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
        // No relocated current version is ever lost...
        for (c, bytes) in &expected {
            assert_eq!(&store.read(*c).unwrap(), bytes, "{ctx}");
        }
        // ...and no obsolete version is ever resurrected.
        assert!(
            store.read(dead).is_err(),
            "{ctx}: deallocated chunk resurfaced"
        );
        let c = store.allocate_chunk(p).unwrap();
        store
            .commit(vec![CommitOp::WriteChunk {
                id: c,
                bytes: b"post-recovery write".to_vec(),
            }])
            .unwrap_or_else(|e| panic!("{ctx}: recovered store rejects commits: {e}"));
    }
}

/// A completed `clean()` followed by a crash that loses the write-back
/// cache: the clean flushed at its durability point, so the reclaim and
/// every relocated version must survive the lost cache intact.
#[test]
fn completed_clean_survives_lost_cache() {
    let mut platform = Platform::new(ValidationMode::Counter {
        delta_ut: 5,
        delta_tu: 0,
    });
    platform.config.segment_size = 2048;
    platform.config.checkpoint_threshold = 100;
    let dev = SimDevice::new();
    let (store, p, expected, dead) = cleanable_workload(&platform, &dev);

    let reclaimed = store.clean(8).unwrap();
    assert!(reclaimed >= 1, "the workload left reclaimable segments");
    let stats = store.stats();
    assert!(
        stats.chunks_relocated >= 1,
        "the workload left a current version to relocate"
    );

    let store = platform.open(&dev.crash_lose_all()).unwrap();
    for (c, bytes) in &expected {
        assert_eq!(&store.read(*c).unwrap(), bytes);
    }
    assert!(store.read(dead).is_err(), "reclaimed version resurfaced");
    let c = store.allocate_chunk(p).unwrap();
    store
        .commit(vec![CommitOp::WriteChunk {
            id: c,
            bytes: b"post-recovery write".to_vec(),
        }])
        .unwrap();
}

/// Same tear sweep, but the interrupted operation is a checkpoint: its
/// leader, commit chunk, and superblock writes are the ones torn. The
/// superblock's two checksummed slots make a torn slot write safe (the
/// other slot wins), and recovery must always land on a consistent state.
#[test]
fn torn_checkpoint_write_sweep() {
    let platform = Platform::new(ValidationMode::Counter {
        delta_ut: 5,
        delta_tu: 0,
    });
    let dev = SimDevice::new();
    let store = platform.create(&dev);
    let p = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: CryptoParams::paper_default(),
        }])
        .unwrap();
    let mut expected = Vec::new();
    for i in 0..4u8 {
        let c = store.allocate_chunk(p).unwrap();
        let bytes = vec![i; 150];
        store
            .commit(vec![CommitOp::WriteChunk {
                id: c,
                bytes: bytes.clone(),
            }])
            .unwrap();
        expected.push((c, bytes));
    }

    // Drop the checkpoint's flush so its writes stay pending. The
    // checkpoint fails; nothing new was acknowledged by it.
    dev.set_plan(FaultPlan::new().at(dev.flush_ops(), FaultKind::DroppedFlush));
    assert!(store.checkpoint().is_err());
    let pending = dev.pending_extents().len();
    // Maps, leader and commit chunk coalesce into one write per
    // contiguous run, so the tears step through that run: inside the
    // first version, across version boundaries, and whole.
    assert!(
        pending >= 1,
        "a checkpoint writes maps, leader, commit chunk"
    );

    for complete in 0..=pending {
        for split in [0usize, 3, 64, 300, 700, 1200, 2000, 3000, 5000] {
            let ctx = format!("checkpoint torn at write {complete}, byte {split}");
            let store = platform
                .open(&dev.crash_torn(complete, split))
                .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
            for (c, bytes) in &expected {
                assert_eq!(&store.read(*c).unwrap(), bytes, "{ctx}");
            }
            let c = store.allocate_chunk(p).unwrap();
            store
                .commit(vec![CommitOp::WriteChunk {
                    id: c,
                    bytes: b"post-recovery write".to_vec(),
                }])
                .unwrap_or_else(|e| panic!("{ctx}: recovered store rejects commits: {e}"));
        }
    }
}

// ---------------------------------------------------------------------------
// The counter protocol (§4.8.2.2) under crashes: one group commit from every
// counter lag, stopped at every device op and every counter write.
// ---------------------------------------------------------------------------

fn write(id: ChunkId, bytes: Vec<u8>) -> Vec<CommitOp> {
    vec![CommitOp::WriteChunk { id, bytes }]
}

/// What batch member `i` writes over its chunk.
fn member_body(i: usize) -> Vec<u8> {
    vec![0xB0 + i as u8; 150]
}

/// A `members`-member `commit_many` run `lag` commits past the trusted
/// counter, under validation window `delta_ut` and `checkpoint_threshold`.
#[derive(Debug, Clone, Copy)]
struct LagCase {
    delta_ut: u64,
    lag: usize,
    members: usize,
    checkpoint_threshold: usize,
}

/// A store built for one [`LagCase`], just before its batch.
struct LagRig {
    platform: Platform,
    dev: Arc<SimDevice>,
    store: ChunkStore,
    /// Every chunk with its acknowledged content before the batch; member
    /// `i` overwrites chunk `i`.
    before: Vec<(ChunkId, Vec<u8>)>,
}

impl LagCase {
    /// Nine chunks written, a checkpoint (which levels the counter with the
    /// log), then `lag` overwrites of chunk 0. With the threshold at 2, a
    /// checkpoint falls inside any batch that reaches chunk 4.
    fn rig(&self) -> LagRig {
        let mut platform = Platform::new(ValidationMode::Counter {
            delta_ut: self.delta_ut,
            delta_tu: 0,
        });
        platform.config.checkpoint_threshold = self.checkpoint_threshold;
        let dev = SimDevice::new();
        let store = platform.create(&dev);
        let p = store.allocate_partition().unwrap();
        store
            .commit(vec![CommitOp::CreatePartition {
                id: p,
                params: CryptoParams::paper_default(),
            }])
            .unwrap();
        let mut before = Vec::new();
        for i in 0..9u8 {
            let id = store.allocate_chunk(p).unwrap();
            store.commit(write(id, vec![i; 120])).unwrap();
            before.push((id, vec![i; 120]));
        }
        store.checkpoint().unwrap();
        for k in 0..self.lag {
            let bytes = vec![0x40 + k as u8; 120];
            store.commit(write(before[0].0, bytes.clone())).unwrap();
            before[0].1 = bytes;
        }
        LagRig {
            platform,
            dev,
            store,
            before,
        }
    }
}

impl LagRig {
    fn batch(&self, members: usize) -> Vec<tdb_core::Result<()>> {
        let sets = (0..members)
            .map(|i| write(self.before[i].0, member_body(i)))
            .collect();
        self.store.commit_many(sets)
    }

    /// Crashes the device, keeping every write it took, and reopens against
    /// the register as the crash left it. Recovery must accept the image —
    /// never `CounterWindowViolated` — with every acknowledged member in
    /// it, every other member whole or absent, and the rest untouched.
    fn crash_and_reopen(&self, results: &[tdb_core::Result<()>], ctx: &str) {
        let store = self
            .platform
            .open(&self.dev.crash_keep_all())
            .unwrap_or_else(|e| panic!("{ctx}: recovery refused the image: {e}"));
        for (i, (id, old)) in self.before.iter().enumerate() {
            let got = store
                .read(*id)
                .unwrap_or_else(|e| panic!("{ctx}: chunk {i}: {e}"));
            match results.get(i) {
                Some(Ok(())) => assert_eq!(got, member_body(i), "{ctx}: acked member {i} lost"),
                Some(Err(_)) => assert!(
                    got == *old || got == member_body(i),
                    "{ctx}: member {i} torn"
                ),
                None => assert_eq!(&got, old, "{ctx}: chunk {i} outside the batch"),
            }
        }
        store
            .commit(write(self.before[8].0, b"post-recovery".to_vec()))
            .unwrap_or_else(|e| panic!("{ctx}: recovered store rejects commits: {e}"));
    }
}

/// For each case: the batch run clean, then once per device op with the
/// machine stopped at that op, then once per counter write with that write
/// failed. Returns how many crash points were checked.
fn counter_protocol_sweep(cases: &[LagCase]) -> usize {
    let mut points = 0;
    for case in cases {
        let dry = case.rig();
        let (ops, advances) = (dry.dev.total_ops(), dry.dev.register_ops());
        let results = dry.batch(case.members);
        assert!(results.iter().all(Result::is_ok), "{case:?}: {results:?}");
        let ops = dry.dev.total_ops() - ops;
        let advances = dry.dev.register_ops() - advances;
        dry.crash_and_reopen(&results, &format!("{case:?}, crash after the batch"));

        for halt in 0..ops {
            let rig = case.rig();
            let start = rig.dev.total_ops() + halt;
            rig.dev
                .set_plan(FaultPlan::new().at(start, FaultKind::TransientWindow { len: u64::MAX }));
            let results = rig.batch(case.members);
            assert!(!rig.store.health().is_poisoned(), "{case:?}");
            rig.crash_and_reopen(&results, &format!("{case:?}, stopped at device op {halt}"));
        }
        for fail in 0..advances {
            let rig = case.rig();
            let from = rig.dev.register_ops() + fail;
            rig.dev
                .set_plan(FaultPlan::new().at(from, FaultKind::RegisterFailsFrom));
            let results = rig.batch(case.members);
            assert_eq!(
                rig.dev.injected_faults(),
                1,
                "{case:?}, counter write {fail}"
            );
            rig.crash_and_reopen(&results, &format!("{case:?}, counter write {fail} failed"));
        }
        points += 1 + ops as usize + advances as usize;
    }
    points
}

/// The grid `lags` × `sizes`, each with and without a checkpoint inside the
/// batch. A batch starts at most Δut − 1 past the counter: that is the
/// most any published result leaves.
fn lag_cases(delta_ut: u64, lags: &[usize], sizes: &[usize]) -> Vec<LagCase> {
    let mut cases = Vec::new();
    for &lag in lags {
        for &members in sizes {
            for checkpoint_threshold in [1000, 2] {
                cases.push(LagCase {
                    delta_ut,
                    lag,
                    members,
                    checkpoint_threshold,
                });
            }
        }
    }
    cases
}

#[test]
fn counter_protocol_crash_sweep() {
    let mut cases = lag_cases(5, &[0, 1, 4], &[1, 3, 6, 8]);
    cases.extend(lag_cases(0, &[0], &[3]));
    assert!(counter_protocol_sweep(&cases) > 100);
}

#[test]
#[ignore = "exhaustive sweep; CI's fault-torture step runs it"]
fn counter_protocol_crash_sweep_full() {
    let sizes: Vec<usize> = (1..=8).collect();
    let mut cases = lag_cases(5, &[0, 1, 2, 3, 4], &sizes);
    cases.extend(lag_cases(1, &[0], &sizes));
    cases.extend(lag_cases(0, &[0], &sizes));
    counter_protocol_sweep(&cases);
}
