//! Commit cost is proportional to what changed, not to the database
//! (ISSUE 18): what a commit captures for pre-durability rollback — the
//! undo journal's pre-images — is the same on a 16384-record store and on
//! one four times the size, and bounded by the map spine it touches.
//!
//! The old capture deep-copied the whole map cache, every cached leader
//! and the utilization table, two to three times per batched commit; its
//! cost grew with the database, which the benchmark's frozen sizes cannot
//! show. This test can: the journal counts what it captures.
//!
//! `#[ignore]`d because loading 65536 records is slow in a debug build;
//! CI runs it in release
//! (`cargo test --release -p tdb-core --test commit_cost -- --include-ignored`).
//!
//! Nor does a commit pay, under the engine lock, for sealing what its
//! committer sealed before it: the store counts the bodies the engine had
//! to seal itself (`debug_bodies_sealed_under_lock`).
//!
//! Nor, in bytes, for map chunks it rewrites before they change again: a
//! checkpoint is due at 512 dirty map chunks or once the residual log
//! outgrows its 8 MiB budget, so the default configuration writes a leaf
//! map chunk once per many commits that dirty it, and a hot set that
//! never reaches the dirty threshold still never leaves recovery more than
//! the budget to replay.

use std::sync::Arc;
use std::time::Instant;

use tdb_core::params::CryptoParams;
use tdb_core::store::{ChunkStore, ChunkStoreConfig, CommitOp, TrustedBackend};
use tdb_core::undo::UndoCounters;
use tdb_core::{ChunkId, PartitionId};
use tdb_crypto::SecretKey;
use tdb_storage::{CounterOverTrusted, MemStore, MemTrustedStore, SharedUntrusted, TrustedStore};

const FANOUT: u64 = 64;

/// What reopening a store takes: its device, its trusted counter's
/// register and its key. Every store here runs the default configuration.
struct Platform {
    untrusted: Arc<MemStore>,
    register: Arc<MemTrustedStore>,
    secret: SecretKey,
}

impl Platform {
    fn new() -> Platform {
        Platform {
            untrusted: Arc::new(MemStore::new()),
            register: Arc::new(MemTrustedStore::new(16)),
            secret: SecretKey::random(24),
        }
    }

    fn backend(&self) -> TrustedBackend {
        let register = Arc::clone(&self.register) as Arc<dyn TrustedStore>;
        TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(register)))
    }

    fn create(&self) -> ChunkStore {
        let device = Arc::clone(&self.untrusted) as SharedUntrusted;
        let config = ChunkStoreConfig::default();
        ChunkStore::create(device, self.backend(), self.secret.clone(), config).unwrap()
    }

    fn open(&self) -> ChunkStore {
        let device = Arc::clone(&self.untrusted) as SharedUntrusted;
        let config = ChunkStoreConfig::default();
        ChunkStore::open(device, self.backend(), self.secret.clone(), config).unwrap()
    }
}

fn partition(store: &ChunkStore) -> PartitionId {
    let p = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: CryptoParams::paper_default(),
        }])
        .unwrap();
    p
}

fn loaded_store(records: u64) -> (ChunkStore, PartitionId) {
    let store = Platform::new().create();
    let p = partition(&store);
    let mut loaded = 0;
    while loaded < records {
        let ops = (0..256)
            .map(|_| CommitOp::WriteChunk {
                id: store.allocate_chunk(p).unwrap(),
                bytes: vec![0xAB; 100],
            })
            .collect();
        store.commit(ops).unwrap();
        loaded += 256;
    }
    store.checkpoint().unwrap();
    (store, p)
}

fn delta(after: UndoCounters, before: UndoCounters) -> UndoCounters {
    UndoCounters {
        captures: after.captures - before.captures,
        preimages: after.preimages - before.preimages,
        bytes: after.bytes - before.bytes,
    }
}

/// What one single-chunk autocommit (a group-commit batch of one) to a
/// warm, already-written chunk captures.
fn single_chunk_commit_capture(store: &ChunkStore, id: ChunkId) -> UndoCounters {
    store.read(id).unwrap(); // The map spine above `id` is now cached.
    let before = store.debug_undo_counters();
    store
        .commit(vec![CommitOp::WriteChunk {
            id,
            bytes: vec![0xCD; 100],
        }])
        .unwrap();
    delta(store.debug_undo_counters(), before)
}

#[test]
#[ignore = "loads 65536 records; run in release"]
fn single_chunk_commit_captures_the_same_on_a_store_four_times_the_size() {
    let (small, p_small) = loaded_store(16384);
    let (large, p_large) = loaded_store(65536);
    // 65536 records need 1024 + 16 + 1 map chunks: more than the map
    // cache holds, so the large store also commits under eviction.
    let height = 3; // 64^2 < 16384 <= 65536 <= 64^3.
    assert!(FANOUT.pow(height - 1) < 16384 && 65536 <= FANOUT.pow(height));

    for rank in [0, 4097, 16383] {
        let a = single_chunk_commit_capture(&small, ChunkId::data(p_small, rank));
        let b = single_chunk_commit_capture(&large, ChunkId::data(p_large, rank));
        assert_eq!(a, b, "rank {rank}: capture depends on database size");
        // A batch of one takes exactly one capture pass.
        assert_eq!(a.captures, 1, "rank {rank}");
        // One map chunk (the chunk's parent) is all an overwrite of a warm
        // chunk changes in the map; the bound leaves room for the rest of
        // the spine and two chunks of growth. Beside the map: the leader
        // entry and two utilization slots.
        assert!(
            a.preimages <= u64::from(height) + 2 + 3,
            "rank {rank}: {a:?}"
        );
        assert!(a.bytes < 16 * 1024, "rank {rank}: {a:?}");
    }
    // Far ranks of the large store only: still the same, still bounded.
    let far = single_chunk_commit_capture(&large, ChunkId::data(p_large, 65535));
    let near = single_chunk_commit_capture(&large, ChunkId::data(p_large, 1));
    assert_eq!(far, near);
}

/// Overwrites `ranks` of `p` in one commit, `len` bytes each.
fn overwrite(store: &ChunkStore, p: PartitionId, ranks: impl Iterator<Item = u64>, len: usize) {
    let ops = ranks
        .map(|rank| CommitOp::WriteChunk {
            id: ChunkId::data(p, rank),
            bytes: vec![0xEF; len],
        })
        .collect();
    store.commit(ops).unwrap();
}

/// Committers seal their own writes before the engine lock: two threads'
/// single-chunk autocommits into an existing partition leave the engine
/// nothing to seal under it. A write into a partition created in its own
/// set has no published crypto to seal under, so the engine seals it.
#[test]
fn committers_seal_their_own_writes_before_the_engine_lock() {
    const COMMITS: u64 = 200;
    let store = Platform::new().create();
    let p = partition(&store);
    let ids: Vec<ChunkId> = (0..2 * COMMITS)
        .map(|_| store.allocate_chunk(p).unwrap())
        .collect();
    overwrite(&store, p, ids.iter().map(|id| id.pos.rank), 100); // Warm-up.
    let before = store.debug_bodies_sealed_under_lock();
    assert_eq!(before, 0, "a create publishes the partition's crypto");
    std::thread::scope(|s| {
        for mine in ids.chunks(COMMITS as usize) {
            let store = &store;
            s.spawn(move || {
                for id in mine {
                    let bytes = vec![0x3C; 1000];
                    store
                        .commit(vec![CommitOp::WriteChunk { id: *id, bytes }])
                        .unwrap();
                }
            });
        }
    });
    assert_eq!(store.debug_bodies_sealed_under_lock(), before);

    let q = store.allocate_partition().unwrap();
    let id = ChunkId::data(q, 0);
    store
        .commit(vec![
            CommitOp::CreatePartition {
                id: q,
                params: CryptoParams::paper_default(),
            },
            CommitOp::WriteChunk {
                id,
                bytes: vec![0x11; 100],
            },
        ])
        .unwrap();
    assert!(store.debug_bodies_sealed_under_lock() > before);
    assert_eq!(store.read(id).unwrap(), vec![0x11; 100]);
}

/// Random single-chunk commits over 16384 records — 256 leaf map chunks —
/// write each leaf once per many commits that dirty it. A checkpoint at
/// 128 dirty chunks came every ~180 such commits, before any leaf had been
/// dirtied twice, and appended about 0.7 of a 2418-byte leaf per commit;
/// now the leaf level waits for the residual budget, one checkpoint per
/// ~7000 commits of 1000 bytes.
#[test]
#[ignore = "10000 commits over a loaded store; run in release"]
fn random_single_chunk_commits_amortise_their_map_writes() {
    const COMMITS: u64 = 10_000;
    let (store, p) = loaded_store(16384);
    let start = store.stats().bytes_appended;
    // What a commit appends of its own (version, commit chunk) is the
    // same every time: the smallest append any commit made.
    let mut own = u64::MAX;
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..COMMITS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let before = store.stats().bytes_appended;
        overwrite(&store, p, std::iter::once(x % 16384), 1000);
        own = own.min(store.stats().bytes_appended - before);
    }
    let checkpointed = store.stats().bytes_appended - start - COMMITS * own;
    let per_commit = checkpointed / COMMITS;
    eprintln!("checkpoint bytes per single-chunk commit: {per_commit} ({own} of its own)");
    assert!(
        per_commit <= 256,
        "{per_commit} checkpoint bytes per commit"
    );
}

/// Segments of the default 128 KiB the 8 MiB residual budget spans.
const BUDGET_SEGMENTS: usize = 64;

fn write_hot(store: &ChunkStore, hot: &[ChunkId], i: usize) {
    let id = hot[i % hot.len()];
    let bytes = vec![i as u8; 1000];
    store
        .commit(vec![CommitOp::WriteChunk { id, bytes }])
        .unwrap();
}

/// A 64-chunk hot set dirties one leaf map chunk and never reaches the
/// dirty threshold; the residual budget still checkpoints it, so recovery
/// never has more than the budget plus the tail segment to replay.
#[test]
#[ignore = "writes 17 MB through a store; run in release"]
fn hot_set_residual_log_stays_within_the_budget() {
    let platform = Platform::new();
    let store = platform.create();
    let p = partition(&store);
    let hot: Vec<ChunkId> = (0..64).map(|_| store.allocate_chunk(p).unwrap()).collect();
    let checkpoints = store.stats().checkpoints;
    let mut most = 0;
    for i in 0..10_000 {
        write_hot(&store, &hot, i);
        most = most.max(store.debug_residual_segments());
    }
    assert!(store.stats().checkpoints > checkpoints, "no checkpoint");
    assert!(most <= BUDGET_SEGMENTS + 1, "{most} residual segments");

    // Fill the budget, crash, and time what recovery replays at most.
    let mut i = 10_000;
    while store.debug_residual_segments() < BUDGET_SEGMENTS {
        write_hot(&store, &hot, i);
        i += 1;
    }
    drop(store);
    let started = Instant::now();
    let store = platform.open();
    eprintln!(
        "reopen over {BUDGET_SEGMENTS} residual segments: {:.1} ms",
        started.elapsed().as_secs_f64() * 1e3
    );
    for back in 1..=hot.len() {
        let j = i - back;
        assert_eq!(store.read(hot[j % hot.len()]).unwrap(), vec![j as u8; 1000]);
    }
}
