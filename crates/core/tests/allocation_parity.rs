//! Commit/recovery parity for rank allocation (§4.4, §4.8, §5.1).
//!
//! Random histories of partition creates, copies and drops and of chunk
//! writes and deallocations, with checkpoints and crash reopens at commit
//! boundaries. Recovery redoes each commit by rolling forward through the
//! residual log, so after every reopen the recovered store must allocate
//! exactly as the store it replaced: the same `next_rank` and the same
//! free ranks, for partition ids and for every partition's chunk ids, as
//! the leaders persist them and as the session hands them out.
//!
//! Every id allocated is written in the same step, so no reservation is
//! outstanding at a reopen, and histories stay far below
//! `MAX_FREE_RANKS` frees: the session and persistent views then hold the
//! same ranks, and are compared as sets.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;

use tdb_core::params::CryptoParams;
use tdb_core::store::{ChunkStore, ChunkStoreConfig, CommitOp, TrustedBackend, ValidationMode};
use tdb_core::{ChunkId, PartitionId};
use tdb_crypto::{CipherKind, HashKind, SecretKey};
use tdb_storage::{CounterOverTrusted, MemStore, MemTrustedStore, TrustedStore};

#[derive(Debug, Clone)]
enum Step {
    /// Allocate a partition id and create an empty partition there.
    Create,
    /// Copy a live partition (picked modulo) into a fresh id.
    Copy {
        pick: usize,
    },
    /// Deallocate a live partition and its copies.
    Drop {
        pick: usize,
    },
    /// Allocate `n` chunks in a live partition and write them in one commit.
    Write {
        pick: usize,
        n: usize,
    },
    /// Deallocate up to two written chunks of a live partition in one commit.
    Dealloc {
        pick: usize,
        chunk: usize,
    },
    /// Free a written chunk of a live partition and write it again, in one
    /// commit.
    Rewrite {
        pick: usize,
        chunk: usize,
    },
    /// Deallocate a live partition and its copies and create it again
    /// under the same id, in one commit, as a restore over it does.
    Recreate {
        pick: usize,
    },
    Checkpoint,
    /// Crash (drop without close) and recover; then compare.
    Reopen,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        2 => Just(Step::Create),
        2 => (0usize..16).prop_map(|pick| Step::Copy { pick }),
        1 => (0usize..16).prop_map(|pick| Step::Drop { pick }),
        5 => (0usize..16, 1usize..4).prop_map(|(pick, n)| Step::Write { pick, n }),
        4 => (0usize..16, 0usize..64).prop_map(|(pick, chunk)| Step::Dealloc { pick, chunk }),
        2 => (0usize..16, 0usize..64).prop_map(|(pick, chunk)| Step::Rewrite { pick, chunk }),
        1 => (0usize..16).prop_map(|pick| Step::Recreate { pick }),
        1 => Just(Step::Checkpoint),
        2 => Just(Step::Reopen),
    ]
}

/// One partition's lowest rank never allocated and its free ranks, as its
/// leader persists them and as the session hands them out.
type Allocation = [(u64, BTreeSet<u64>); 2];

struct Rig {
    store: ChunkStore,
    untrusted: Arc<MemStore>,
    trusted: Arc<MemTrustedStore>,
    config: ChunkStoreConfig,
    /// Live partitions and the chunks written in each.
    written: BTreeMap<PartitionId, Vec<ChunkId>>,
}

fn secret() -> SecretKey {
    SecretKey::new(vec![5u8; 24])
}

impl Rig {
    fn backend(trusted: &Arc<MemTrustedStore>) -> TrustedBackend {
        TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(
            Arc::clone(trusted) as Arc<dyn TrustedStore>
        )))
    }

    fn create() -> Rig {
        let config = ChunkStoreConfig {
            fanout: 4,
            segment_size: 8192,
            validation: ValidationMode::Counter {
                delta_ut: 3,
                delta_tu: 0,
            },
            checkpoint_threshold: 100_000,
            ..ChunkStoreConfig::default()
        };
        let untrusted = Arc::new(MemStore::new());
        let trusted = Arc::new(MemTrustedStore::new(16));
        let store = ChunkStore::create(
            Arc::clone(&untrusted) as _,
            Rig::backend(&trusted),
            secret(),
            config.clone(),
        )
        .unwrap();
        Rig {
            store,
            untrusted,
            trusted,
            config,
            written: BTreeMap::new(),
        }
    }

    fn commit(&self, ops: Vec<CommitOp>) {
        self.store.commit(ops).unwrap();
    }

    fn pick(&self, pick: usize) -> Option<PartitionId> {
        let live: Vec<PartitionId> = self.written.keys().copied().collect();
        (!live.is_empty()).then(|| live[pick % live.len()])
    }

    /// Every allocator's state: the system partition's, then each live
    /// partition's.
    fn ranks(&self) -> Vec<(PartitionId, Allocation)> {
        std::iter::once(PartitionId::SYSTEM)
            .chain(self.written.keys().copied())
            .map(|p| (p, self.store.debug_ranks(p).unwrap()))
            .collect()
    }

    fn step(&mut self, step: &Step) {
        match *step {
            Step::Create => {
                let id = self.store.allocate_partition().unwrap();
                let params = CryptoParams {
                    cipher: CipherKind::Des,
                    hash: HashKind::Sha1,
                    key: SecretKey::new(vec![id.0 as u8; 8]),
                };
                self.commit(vec![CommitOp::CreatePartition { id, params }]);
                self.written.insert(id, Vec::new());
            }
            Step::Copy { pick } => {
                let Some(src) = self.pick(pick) else { return };
                let dst = self.store.allocate_partition().unwrap();
                self.commit(vec![CommitOp::CopyPartition { dst, src }]);
                let copied = self.written[&src]
                    .iter()
                    .map(|c| ChunkId::new(dst, c.pos))
                    .collect();
                self.written.insert(dst, copied);
            }
            Step::Drop { pick } => {
                let Some(id) = self.pick(pick) else { return };
                self.commit(vec![CommitOp::DeallocPartition { id }]);
                let store = &self.store;
                self.written
                    .retain(|p, _| store.partition_exists(*p).unwrap());
            }
            Step::Write { pick, n } => {
                let Some(p) = self.pick(pick) else { return };
                let ids: Vec<ChunkId> = (0..n)
                    .map(|_| self.store.allocate_chunk(p).unwrap())
                    .collect();
                self.commit(
                    ids.iter()
                        .map(|&id| CommitOp::WriteChunk {
                            id,
                            bytes: id.to_string().into_bytes(),
                        })
                        .collect(),
                );
                self.written.get_mut(&p).unwrap().extend(ids);
            }
            Step::Dealloc { pick, chunk } => {
                let Some(p) = self.pick(pick) else { return };
                let chunks = self.written.get_mut(&p).unwrap();
                let mut ops = Vec::new();
                for k in 0..2 {
                    if !chunks.is_empty() {
                        let id = chunks.swap_remove((chunk + k) % chunks.len());
                        ops.push(CommitOp::DeallocChunk { id });
                    }
                }
                if !ops.is_empty() {
                    self.commit(ops);
                }
            }
            Step::Rewrite { pick, chunk } => {
                let Some(p) = self.pick(pick) else { return };
                let chunks = &self.written[&p];
                if chunks.is_empty() {
                    return;
                }
                let id = chunks[chunk % chunks.len()];
                self.commit(vec![
                    CommitOp::DeallocChunk { id },
                    CommitOp::WriteChunk {
                        id,
                        bytes: b"written again".to_vec(),
                    },
                ]);
            }
            Step::Recreate { pick } => {
                let Some(id) = self.pick(pick) else { return };
                let params = CryptoParams {
                    cipher: CipherKind::Des,
                    hash: HashKind::Sha1,
                    key: SecretKey::new(vec![!(id.0 as u8); 8]),
                };
                self.commit(vec![
                    CommitOp::DeallocPartition { id },
                    CommitOp::CreatePartition { id, params },
                ]);
                let store = &self.store;
                self.written
                    .retain(|p, _| store.partition_exists(*p).unwrap());
                self.written.insert(id, Vec::new());
            }
            Step::Checkpoint => self.store.checkpoint().unwrap(),
            Step::Reopen => {
                let live = self.ranks();
                for (p, [persisted, session]) in &live {
                    assert_eq!(persisted, session, "{p}: session and leader disagree");
                }
                self.store = ChunkStore::open(
                    Arc::clone(&self.untrusted) as _,
                    Rig::backend(&self.trusted),
                    secret(),
                    self.config.clone(),
                )
                .unwrap();
                assert_eq!(self.ranks(), live, "recovery allocates unlike commit");
                for (p, chunks) in &self.written {
                    assert!(self.store.partition_exists(*p).unwrap(), "{p} lost");
                    for id in chunks {
                        self.store.read(*id).unwrap();
                    }
                }
            }
        }
    }
}

fn run(steps: &[Step]) {
    let mut rig = Rig::create();
    for step in steps {
        rig.step(step);
    }
    rig.step(&Step::Reopen);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn recovery_allocates_ranks_as_commit_did(
        steps in proptest::collection::vec(step_strategy(), 1..60),
    ) {
        run(&steps);
    }
}

/// Every step kind in one sequence: a drop of a partition with a copy,
/// reuse of the dropped ids, and frees on both sides of a checkpoint.
#[test]
fn regression_every_step_across_checkpoints_and_reopens() {
    use Step::*;
    run(&[
        Create,
        Write { pick: 0, n: 3 },
        Copy { pick: 0 },
        Write { pick: 1, n: 2 },
        Dealloc { pick: 0, chunk: 1 },
        Checkpoint,
        Dealloc { pick: 1, chunk: 0 },
        Reopen,
        Drop { pick: 0 },
        Create,
        Copy { pick: 0 },
        Write { pick: 1, n: 3 },
        Reopen,
        Checkpoint,
        Drop { pick: 1 },
        Write { pick: 0, n: 1 },
    ]);
}

/// A store with one DES partition holding chunk `c`, written once.
fn one_chunk() -> (Rig, PartitionId, ChunkId) {
    let mut rig = Rig::create();
    rig.step(&Step::Create);
    rig.step(&Step::Write { pick: 0, n: 1 });
    let (p, c) = rig.written.iter().map(|(p, c)| (*p, c[0])).next().unwrap();
    (rig, p, c)
}

/// Crashes the store (drop without close) and recovers it.
fn crash_reopen(rig: &mut Rig) {
    rig.store = ChunkStore::open(
        Arc::clone(&rig.untrusted) as _,
        Rig::backend(&rig.trusted),
        secret(),
        rig.config.clone(),
    )
    .unwrap();
}

/// A set that frees a chunk and then writes it again leaves it written
/// after a crash: recovery replays the free before the write.
#[test]
fn a_chunk_freed_and_written_again_in_one_set_survives_a_crash() {
    let (mut rig, _, c) = one_chunk();
    rig.commit(vec![
        CommitOp::DeallocChunk { id: c },
        CommitOp::WriteChunk {
            id: c,
            bytes: b"second life".to_vec(),
        },
    ]);
    assert_eq!(rig.store.read(c).unwrap(), b"second life");
    crash_reopen(&mut rig);
    assert_eq!(rig.store.read(c).unwrap(), b"second life");
}

/// The reverse order, a write and then a free of the same chunk, leaves it
/// free after a crash, as before it.
#[test]
fn a_chunk_written_and_then_freed_in_one_set_stays_free_after_a_crash() {
    let (mut rig, _, c) = one_chunk();
    rig.commit(vec![
        CommitOp::WriteChunk {
            id: c,
            bytes: b"short-lived".to_vec(),
        },
        CommitOp::DeallocChunk { id: c },
    ]);
    let not_allocated = |r: tdb_core::Result<Vec<u8>>| matches!(r, Err(tdb_core::CoreError::NotAllocated(id)) if id == c);
    assert!(not_allocated(rig.store.read(c)));
    crash_reopen(&mut rig);
    assert!(not_allocated(rig.store.read(c)));
}

/// A set that drops a partition, creates it again under the same id and
/// writes into it leaves the new partition after a crash.
#[test]
fn a_partition_dropped_and_created_again_in_one_set_survives_a_crash() {
    let (mut rig, p, _) = one_chunk();
    let fresh = ChunkId::data(p, 0);
    rig.commit(vec![
        CommitOp::DeallocPartition { id: p },
        CommitOp::CreatePartition {
            id: p,
            params: CryptoParams {
                cipher: CipherKind::Aes128,
                hash: HashKind::Sha256,
                key: SecretKey::new(vec![9; 16]),
            },
        },
        CommitOp::WriteChunk {
            id: fresh,
            bytes: b"reborn".to_vec(),
        },
    ]);
    assert_eq!(rig.store.read(fresh).unwrap(), b"reborn");
    crash_reopen(&mut rig);
    assert!(rig.store.partition_exists(p).unwrap());
    assert_eq!(rig.store.read(fresh).unwrap(), b"reborn");
}

/// Both reuse sets, drawn by the generator, then a crash.
#[test]
fn regression_rewrite_and_recreate_then_reopen() {
    use Step::*;
    run(&[
        Create,
        Write { pick: 0, n: 3 },
        Copy { pick: 0 },
        Rewrite { pick: 0, chunk: 1 },
        Reopen,
        Recreate { pick: 0 },
        Write { pick: 0, n: 2 },
        Rewrite { pick: 1, chunk: 0 },
        Reopen,
    ]);
}
