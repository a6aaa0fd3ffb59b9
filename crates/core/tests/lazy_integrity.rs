//! Lazy-vs-eager equivalence: a store whose map-cache entries keep their
//! chunks' slot trees is driven through arbitrary interleavings of
//! commits, overwrites, deallocations, checkpoints, partition copies and
//! drops, root queries, proof extractions, and crash/recovery reopens, in
//! lockstep with an eager twin — the same store that drops its slot trees
//! before every root or proof query, so each query recomputes the whole
//! dirty tree. After every step the two must agree on every live
//! partition's effective root digest, and every proof must be identical
//! across the twins and verify against the shared root.
//!
//! This pins the cached trees' invariant end to end: if any mutation path
//! leaves a tree that no longer matches its chunk, the lazy store serves a
//! stale hash and the roots diverge.

use std::sync::Arc;

use proptest::prelude::*;

use tdb_core::params::CryptoParams;
use tdb_core::proof::verify_read_proof;
use tdb_core::store::{ChunkStore, ChunkStoreConfig, CommitOp, TrustedBackend, ValidationMode};
use tdb_core::{ChunkId, PartitionId};
use tdb_crypto::{CipherKind, HashKind, SecretKey};
use tdb_storage::{CounterOverTrusted, MemStore, MemTrustedStore, TrustedStore};

fn config(fanout: u32) -> ChunkStoreConfig {
    ChunkStoreConfig {
        fanout,
        segment_size: 8192,
        validation: ValidationMode::Counter {
            delta_ut: 3,
            delta_tu: 0,
        },
        // Queries must exercise the dirty (effective) tree; checkpoints
        // happen only when the op sequence asks for one.
        checkpoint_threshold: 100_000,
        ..ChunkStoreConfig::default()
    }
}

/// One store plus the handles needed to crash-reopen it.
struct Twin {
    store: Option<ChunkStore>,
    untrusted: Arc<MemStore>,
    trusted: Arc<MemTrustedStore>,
    secret: SecretKey,
    /// The eager oracle: forget the slot trees before every query.
    eager: bool,
    config: ChunkStoreConfig,
    /// `lazy_hash_recomputes` of the incarnations before the open one.
    recomputes: u64,
}

impl Twin {
    fn create(eager: bool, config: ChunkStoreConfig) -> Twin {
        let untrusted = Arc::new(MemStore::new());
        let trusted = Arc::new(MemTrustedStore::new(16));
        let secret = SecretKey::new(vec![11u8; 24]);
        let counter = Arc::new(CounterOverTrusted::new(
            Arc::clone(&trusted) as Arc<dyn TrustedStore>
        ));
        let store = ChunkStore::create(
            Arc::clone(&untrusted) as _,
            TrustedBackend::Counter(counter),
            secret.clone(),
            config.clone(),
        )
        .unwrap();
        Twin {
            store: Some(store),
            untrusted,
            trusted,
            secret,
            eager,
            config,
            recomputes: 0,
        }
    }

    fn store(&self) -> &ChunkStore {
        self.store.as_ref().expect("store is open")
    }

    /// The store, ready for a root or proof query.
    fn query(&self) -> &ChunkStore {
        let store = self.store();
        if self.eager {
            store.debug_forget_integrity_memo();
        }
        store
    }

    /// Slot trees built, loaded or refreshed, over every incarnation.
    fn recomputes(&self) -> u64 {
        self.recomputes + self.store().stats().lazy_hash_recomputes
    }

    /// Crash (drop without close) and recover from the persisted state.
    fn reopen(&mut self) {
        self.recomputes = self.recomputes();
        self.store = None;
        let counter = Arc::new(CounterOverTrusted::new(
            Arc::clone(&self.trusted) as Arc<dyn TrustedStore>
        ));
        self.store = Some(
            ChunkStore::open(
                Arc::clone(&self.untrusted) as _,
                TrustedBackend::Counter(counter),
                self.secret.clone(),
                self.config.clone(),
            )
            .unwrap(),
        );
    }
}

#[derive(Debug, Clone)]
enum Step {
    /// Allocate a fresh chunk and write it.
    Write { payload: u8 },
    /// Overwrite an already-written chunk (picked by index, modulo).
    Overwrite { pick: usize, payload: u8 },
    /// Deallocate an already-written chunk.
    Dealloc { pick: usize },
    /// Explicit checkpoint on both twins.
    Checkpoint,
    /// Extract and cross-check a proof for a written chunk.
    Proof { pick: usize },
    /// Crash both twins and recover.
    Reopen,
    /// Copy the shared partition into a fresh one (§5.3), so its later
    /// descriptor writes look up the copy's map chunks too.
    Snapshot,
    /// Deallocate a copy (picked by index, modulo): the next `Snapshot`
    /// reuses its partition id.
    DropSnapshot { pick: usize },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        5 => any::<u8>().prop_map(|payload| Step::Write { payload }),
        3 => (0usize..64, any::<u8>())
            .prop_map(|(pick, payload)| Step::Overwrite { pick, payload }),
        2 => (0usize..64).prop_map(|pick| Step::Dealloc { pick }),
        1 => Just(Step::Checkpoint),
        3 => (0usize..64).prop_map(|pick| Step::Proof { pick }),
        1 => Just(Step::Reopen),
        1 => Just(Step::Snapshot),
        1 => (0usize..64).prop_map(|pick| Step::DropSnapshot { pick }),
    ]
}

fn run_steps(steps: Vec<Step>) {
    run_steps_at(4, steps);
}

fn run_steps_at(fanout: u32, steps: Vec<Step>) {
    run_steps_with(config(fanout), steps);
}

fn run_steps_with(config: ChunkStoreConfig, steps: Vec<Step>) {
    let mut eager = Twin::create(true, config.clone());
    let mut lazy = Twin::create(false, config);

    // A shared partition created identically on both twins. Fixed params:
    // CryptoParams::generate draws random keys, and the twins must match.
    let params = CryptoParams {
        cipher: CipherKind::Des,
        hash: HashKind::Sha1,
        key: SecretKey::new(vec![42u8; CipherKind::Des.key_len()]),
    };
    let mut p = PartitionId(0);
    for twin in [&eager, &lazy] {
        p = twin.store().allocate_partition().unwrap();
        twin.store()
            .commit(vec![CommitOp::CreatePartition {
                id: p,
                params: params.clone(),
            }])
            .unwrap();
    }

    let mut written: Vec<ChunkId> = Vec::new();
    let mut snapshots: Vec<PartitionId> = Vec::new();
    // Rank 1 does not fit a tree of height 0: a map level exists.
    let mut map_level = false;
    for step in steps {
        match step {
            Step::Write { payload } => {
                let a = eager.store().allocate_chunk(p).unwrap();
                let b = lazy.store().allocate_chunk(p).unwrap();
                assert_eq!(a, b, "twins diverged on allocation");
                for twin in [&eager, &lazy] {
                    twin.store()
                        .commit(vec![CommitOp::WriteChunk {
                            id: a,
                            bytes: vec![payload; 1 + usize::from(payload) % 48],
                        }])
                        .unwrap();
                }
                map_level |= a.pos.rank >= 1;
                written.push(a);
            }
            Step::Overwrite { pick, payload } => {
                if written.is_empty() {
                    continue;
                }
                let id = written[pick % written.len()];
                for twin in [&eager, &lazy] {
                    twin.store()
                        .commit(vec![CommitOp::WriteChunk {
                            id,
                            bytes: vec![payload; 1 + usize::from(payload) % 32],
                        }])
                        .unwrap();
                }
            }
            Step::Dealloc { pick } => {
                if written.is_empty() {
                    continue;
                }
                let id = written.remove(pick % written.len());
                for twin in [&eager, &lazy] {
                    twin.store()
                        .commit(vec![CommitOp::DeallocChunk { id }])
                        .unwrap();
                }
            }
            Step::Checkpoint => {
                eager.store().checkpoint().unwrap();
                lazy.store().checkpoint().unwrap();
            }
            Step::Proof { pick } => {
                if written.is_empty() {
                    continue;
                }
                let id = written[pick % written.len()];
                let root = eager.query().snapshot_root(p).unwrap();
                let (body_e, proof_e) = eager.query().read_with_proof(id).unwrap();
                let (body_l, proof_l) = lazy.query().read_with_proof(id).unwrap();
                assert_eq!(body_e, body_l);
                assert_eq!(proof_e, proof_l, "lazy proof differs for {id}");
                assert!(verify_read_proof(&proof_l, &body_l, &root));
            }
            Step::Reopen => {
                eager.reopen();
                lazy.reopen();
            }
            Step::Snapshot => {
                let a = eager.store().allocate_partition().unwrap();
                let b = lazy.store().allocate_partition().unwrap();
                assert_eq!(a, b, "twins diverged on allocation");
                for twin in [&eager, &lazy] {
                    twin.store()
                        .commit(vec![CommitOp::CopyPartition { dst: a, src: p }])
                        .unwrap();
                }
                snapshots.push(a);
            }
            Step::DropSnapshot { pick } => {
                if snapshots.is_empty() {
                    continue;
                }
                let id = snapshots.remove(pick % snapshots.len());
                for twin in [&eager, &lazy] {
                    twin.store()
                        .commit(vec![CommitOp::DeallocPartition { id }])
                        .unwrap();
                }
            }
        }
        // The invariant under test: after *every* step each live
        // partition's effective root on the lazy twin equals the eager
        // recompute.
        for q in std::iter::once(p).chain(snapshots.iter().copied()) {
            let root_e = eager.query().snapshot_root(q).unwrap();
            let root_l = lazy.query().snapshot_root(q).unwrap();
            assert_eq!(root_e, root_l, "roots of {q} diverged after {step:?}");
        }
    }
    // Every step queries the root above, so once the tree has a map level
    // the lazy twin has built, loaded or refreshed a slot tree.
    if map_level {
        assert!(lazy.recomputes() > 0, "lazy twin never built a slot tree");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    #[test]
    fn lazy_root_equals_eager_root(steps in proptest::collection::vec(step_strategy(), 1..40)) {
        run_steps(steps);
    }

    /// At fanout 5, not a power of two, a map chunk's slot tree has a
    /// leaf of four slots and a short one, six writes make a second map
    /// level and twenty-six a third: the cached trees mark and rehash
    /// single leaves of multi-leaf trees on every level.
    #[test]
    fn lazy_root_equals_eager_root_with_multi_leaf_trees(
        steps in proptest::collection::vec(step_strategy(), 20..90),
    ) {
        run_steps_at(5, steps);
    }
}

/// Deterministic smoke covering every step kind in one sequence, so the
/// equivalence holds even if the random sampler never lines them up.
#[test]
fn regression_all_steps_interleaved() {
    run_steps(vec![
        Step::Write { payload: 1 },
        Step::Write { payload: 2 },
        Step::Proof { pick: 0 },
        Step::Write { payload: 3 },
        Step::Overwrite {
            pick: 1,
            payload: 9,
        },
        Step::Checkpoint,
        Step::Proof { pick: 2 },
        Step::Dealloc { pick: 0 },
        Step::Reopen,
        Step::Write { payload: 4 },
        Step::Proof { pick: 1 },
        Step::Overwrite {
            pick: 0,
            payload: 7,
        },
        Step::Checkpoint,
        Step::Reopen,
        Step::Proof { pick: 0 },
    ]);
}

/// A map cache of eight chunks, nearly all of them dirty between
/// checkpoints, and a partition with copies: each overwrite's copy-family
/// lookups load the copies' map chunks and evict the partition's clean
/// ones, so the written chunk's parent is often reloaded on the way to
/// its slot write. The reload installs a fresh slot tree, and the memo
/// must still learn that the slot then changed.
#[test]
fn lazy_root_equals_eager_root_when_copies_evict_the_spine() {
    let config = ChunkStoreConfig {
        map_cache_capacity: 8,
        ..config(4)
    };
    let mut steps: Vec<Step> = (0..40).map(|i| Step::Write { payload: i }).collect();
    steps.extend([Step::Checkpoint, Step::Snapshot, Step::Snapshot]);
    for round in 0..3u8 {
        for i in 0..12 {
            steps.push(Step::Overwrite {
                pick: usize::from(i * 7 + round * 5),
                payload: i ^ round,
            });
            if i % 4 == 3 {
                steps.push(Step::Proof {
                    pick: usize::from(i + round),
                });
            }
        }
        steps.extend([Step::Checkpoint, Step::Snapshot]);
    }
    run_steps_with(config, steps);
}

/// Tree growth crosses a map level mid-sequence (fanout 4: ranks 0..=3 are
/// height-1, rank 4 forces height 2, rank 16 forces height 3) — the new
/// root starts without a tree, and the old root's tree stays current.
#[test]
fn regression_growth_across_levels() {
    let mut steps = Vec::new();
    for i in 0..20 {
        steps.push(Step::Write { payload: i });
        steps.push(Step::Proof { pick: 0 });
    }
    run_steps(steps);
}

/// Partitions P and S of 20 chunks each at fanout 4 and a checkpoint, then
/// P deallocated and S copied into P's reused id, and a crash: the store
/// reopened, P's id, P's (copied) chunks, and P's root before the crash.
fn copy_into_a_dropped_id_then_crash() -> (Twin, PartitionId, Vec<ChunkId>, tdb_crypto::HashValue) {
    let mut twin = Twin::create(false, config(4));
    let store = twin.store();
    let params = CryptoParams {
        cipher: CipherKind::Des,
        hash: HashKind::Sha1,
        key: SecretKey::new(vec![42u8; CipherKind::Des.key_len()]),
    };
    let mut parts = Vec::new();
    for marker in [1u8, 2] {
        let q = store.allocate_partition().unwrap();
        store
            .commit(vec![CommitOp::CreatePartition {
                id: q,
                params: params.clone(),
            }])
            .unwrap();
        for i in 0..20u8 {
            let id = store.allocate_chunk(q).unwrap();
            store
                .commit(vec![CommitOp::WriteChunk {
                    id,
                    bytes: vec![marker ^ i; 40],
                }])
                .unwrap();
        }
        parts.push(q);
    }
    let (p, s) = (parts[0], parts[1]);
    store.checkpoint().unwrap();
    store
        .commit(vec![CommitOp::DeallocPartition { id: p }])
        .unwrap();
    let dst = store.allocate_partition().unwrap();
    assert_eq!(dst, p, "the copy reuses the dropped id");
    store
        .commit(vec![CommitOp::CopyPartition { dst, src: s }])
        .unwrap();
    let before = store.snapshot_root(p).unwrap();
    twin.reopen();
    let ids = (0..20).map(|rank| ChunkId::data(p, rank)).collect();
    (twin, p, ids, before)
}

/// Replaying the dealloc loads P's old map chunks (to uncharge their
/// versions) and the copy gives P the source's tree: the reopened store
/// must serve the copy's root, not one built over P's old chunks, and
/// honest proofs must verify against it.
#[test]
fn recovery_serves_the_root_of_a_copy_into_a_dropped_id() {
    let (twin, p, ids, before) = copy_into_a_dropped_id_then_crash();
    let store = twin.store();
    let served = store.snapshot_root(p).unwrap();
    store.debug_forget_integrity_memo();
    assert_eq!(store.snapshot_root(p).unwrap(), before, "eager root");
    assert_eq!(served, before, "served a stale root after recovery");
    for id in ids {
        let (body, proof) = store.read_with_proof(id).unwrap();
        assert!(verify_read_proof(&proof, &body, &served), "{id}");
    }
}

/// The same history, then a checkpoint after the reopen: the digests it
/// stores are honest, so a second reopen validates every chunk of P and
/// serves the same root.
#[test]
fn a_checkpoint_after_that_recovery_stores_honest_digests() {
    let (mut twin, p, ids, before) = copy_into_a_dropped_id_then_crash();
    twin.store().checkpoint().unwrap();
    twin.reopen();
    let store = twin.store();
    assert_eq!(store.snapshot_root(p).unwrap(), before);
    for id in ids {
        let (body, proof) = store.read_with_proof(id).unwrap();
        assert!(verify_read_proof(&proof, &body, &before), "{id}");
    }
}
