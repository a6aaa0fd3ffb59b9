//! The seal fan-out changes who seals a batch, never what is written
//! (ISSUE 20): a store that seals everything on the committing thread and
//! stores that share large batches between two or four threads lay out the
//! same log — same descriptors, same length, same tail, same Merkle root,
//! same recovered state — for commit sets on both sides of the fan-out
//! threshold. Ciphertext differs only by the random IVs.
//!
//! Also here: dropping the direct-validation chain under counter validation
//! left direct validation itself whole — `{chain, tail}` still round-trips
//! through commit, checkpoint, clean and reopen, and a flipped byte in the
//! residual log is still refused at recovery.

use std::sync::Arc;

use proptest::prelude::*;

use tdb_core::descriptor::Descriptor;
use tdb_core::store::{
    ChunkStore, ChunkStoreConfig, ChunkStoreStats, CommitOp, TrustedBackend, ValidationMode,
};
use tdb_core::{ChunkId, CryptoParams};
use tdb_crypto::{CipherKind, HashKind, HashValue, SecretKey};
use tdb_storage::{CounterOverTrusted, MemStore, MemTrustedStore, SharedUntrusted, TrustedStore};

/// `pipeline::FAN_OUT_MIN_BYTES`, which is private: the plaintext a batch
/// of two or more bodies needs before it fans out.
const FAN_OUT_MIN_BYTES: usize = 64 * 1024;

/// One commit of the script: `writes` bodies of `len` bytes, then perhaps
/// a checkpoint.
#[derive(Debug, Clone, Copy)]
struct Round {
    writes: usize,
    len: usize,
    checkpoint: bool,
}

/// Three to five rounds whose plaintext runs from a few hundred bytes to
/// 160 KB, so most scripts have commits on both sides of the threshold.
fn script(seed: u64) -> Vec<Round> {
    let mut state = seed | 1;
    let mut next = move |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    (0..3 + next(3))
        .map(|_| Round {
            writes: 2 + next(39) as usize,
            len: 100 + next(3900) as usize,
            checkpoint: next(3) == 0,
        })
        .collect()
}

fn body(round: usize, write: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (round * 31 + write * 7 + i) as u8)
        .collect()
}

/// Everything two stores that ran the same script must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    descriptors: Vec<Descriptor>,
    log_len: u64,
    bytes_appended: u64,
    root: HashValue,
    /// After a crash-reopen: the root again, and the descriptor of one
    /// more write, whose location is the recovered tail.
    reopened_root: HashValue,
    next_write: Descriptor,
}

fn run(
    rounds: &[Round],
    secret: &SecretKey,
    params: &CryptoParams,
    crypto_workers: usize,
) -> (Outcome, ChunkStoreStats) {
    let untrusted = Arc::new(MemStore::new());
    let register = Arc::new(MemTrustedStore::new(64));
    let backend = || {
        TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(
            Arc::clone(&register) as Arc<dyn TrustedStore>
        )))
    };
    let config = ChunkStoreConfig {
        crypto_workers,
        checkpoint_threshold: 1000, // Explicit checkpoints only.
        ..ChunkStoreConfig::default()
    };
    let store = ChunkStore::create(
        Arc::clone(&untrusted) as SharedUntrusted,
        backend(),
        secret.clone(),
        config.clone(),
    )
    .unwrap();
    let p = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: params.clone(),
        }])
        .unwrap();
    let mut written: Vec<(ChunkId, Vec<u8>)> = Vec::new();
    for (r, round) in rounds.iter().enumerate() {
        let ops = (0..round.writes)
            .map(|w| {
                let id = store.allocate_chunk(p).unwrap();
                let bytes = body(r, w, round.len);
                written.push((id, bytes.clone()));
                CommitOp::WriteChunk { id, bytes }
            })
            .collect();
        store.commit(ops).unwrap();
        if round.checkpoint {
            store.checkpoint().unwrap();
        }
    }
    let stats = store.stats();
    let descriptors = written
        .iter()
        .map(|(id, _)| store.debug_descriptor(*id).unwrap())
        .collect();
    let root = store.snapshot_root(p).unwrap();
    let log_len = store.stored_size();
    drop(store); // No close: recovery replays the residual log.

    let reopened = ChunkStore::open(
        Arc::new(MemStore::from_bytes(untrusted.image())) as SharedUntrusted,
        backend(),
        secret.clone(),
        config,
    )
    .unwrap();
    for (id, bytes) in &written {
        assert_eq!(&reopened.read(*id).unwrap(), bytes, "audit of {id:?}");
    }
    let reopened_root = reopened.snapshot_root(p).unwrap();
    let next = reopened.allocate_chunk(p).unwrap();
    reopened
        .commit(vec![CommitOp::WriteChunk {
            id: next,
            bytes: vec![0x11; 500],
        }])
        .unwrap();
    let outcome = Outcome {
        descriptors,
        log_len,
        bytes_appended: stats.bytes_appended,
        root,
        reopened_root,
        next_write: reopened.debug_descriptor(next).unwrap(),
    };
    (outcome, stats)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    #[test]
    fn fanned_out_stores_write_what_a_sequential_store_writes(seed in any::<u64>()) {
        let rounds = script(seed);
        let secret = SecretKey::random(24);
        let params = CryptoParams::generate(CipherKind::Des, HashKind::Sha1);
        let over_threshold = rounds
            .iter()
            .filter(|r| r.writes * r.len >= FAN_OUT_MIN_BYTES)
            .count() as u64;

        let (sequential, stats) = run(&rounds, &secret, &params, 1);
        prop_assert_eq!(stats.parallel_crypto_batches, 0);
        prop_assert_eq!(sequential.root, sequential.reopened_root);
        for workers in [2, 4] {
            let (fanned, stats) = run(&rounds, &secret, &params, workers);
            // Exactly the commits at or over the threshold fanned out; the
            // checkpoints' few map chunks never do.
            prop_assert_eq!(stats.parallel_crypto_batches, over_threshold, "{:?}", rounds);
            prop_assert_eq!(&fanned, &sequential, "{} workers, {:?}", workers, rounds);
        }
    }
}

/// A script with a commit just under, at, and well over the threshold, so
/// the boundary is covered on every build whatever seeds the property draws.
#[test]
fn regression_threshold_boundary() {
    let rounds = [
        Round {
            writes: 16,
            len: FAN_OUT_MIN_BYTES / 16 - 1,
            checkpoint: false,
        },
        Round {
            writes: 16,
            len: FAN_OUT_MIN_BYTES / 16,
            checkpoint: true,
        },
        Round {
            writes: 13,
            len: 285,
            checkpoint: false,
        },
        Round {
            writes: 40,
            len: 3999,
            checkpoint: false,
        },
    ];
    let secret = SecretKey::random(24);
    let params = CryptoParams::generate(CipherKind::Des, HashKind::Sha1);
    let (sequential, stats) = run(&rounds, &secret, &params, 1);
    assert_eq!(stats.parallel_crypto_batches, 0);
    let (fanned, stats) = run(&rounds, &secret, &params, 2);
    assert_eq!(stats.parallel_crypto_batches, 2);
    assert_eq!(stats.parallel_crypto_chunks, 16 + 40);
    assert_eq!(fanned, sequential);
}

// ---------------------------------------------------------------------------
// Direct hash validation still has its chain.
// ---------------------------------------------------------------------------

struct DirectFixture {
    secret: SecretKey,
    untrusted: Arc<MemStore>,
    register: Arc<MemTrustedStore>,
}

impl DirectFixture {
    fn config() -> ChunkStoreConfig {
        ChunkStoreConfig {
            fanout: 4,
            segment_size: 4096,
            checkpoint_threshold: 1000,
            validation: ValidationMode::DirectHash,
            ..ChunkStoreConfig::default()
        }
    }

    fn backend(&self) -> TrustedBackend {
        TrustedBackend::Register(Arc::clone(&self.register) as Arc<dyn TrustedStore>)
    }

    fn open(&self, untrusted: SharedUntrusted) -> tdb_core::Result<ChunkStore> {
        ChunkStore::open(
            untrusted,
            self.backend(),
            self.secret.clone(),
            Self::config(),
        )
    }
}

#[test]
fn direct_hash_chain_survives_commit_checkpoint_clean_reopen_and_catches_a_flipped_byte() {
    let fx = DirectFixture {
        secret: SecretKey::random(24),
        untrusted: Arc::new(MemStore::new()),
        register: Arc::new(MemTrustedStore::new(64)),
    };
    let store = ChunkStore::create(
        Arc::clone(&fx.untrusted) as SharedUntrusted,
        fx.backend(),
        fx.secret.clone(),
        DirectFixture::config(),
    )
    .unwrap();
    let p = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: CryptoParams::generate(CipherKind::Des, HashKind::Sha1),
        }])
        .unwrap();
    let ids: Vec<ChunkId> = (0..12).map(|_| store.allocate_chunk(p).unwrap()).collect();
    let write = |store: &ChunkStore, tag: u8| {
        for pair in ids.chunks(2) {
            let ops = pair
                .iter()
                .map(|id| CommitOp::WriteChunk {
                    id: *id,
                    bytes: vec![tag; 300],
                })
                .collect();
            store.commit(ops).unwrap();
        }
    };
    let audit = |store: &ChunkStore, tag: u8| {
        for id in &ids {
            assert_eq!(store.read(*id).unwrap(), vec![tag; 300]);
        }
    };

    // Commit, checkpoint (the chain restarts at the leader), overwrite
    // everything twice so whole segments go obsolete, clean them (cleaner
    // records and relocated versions join the chain), commit on top.
    write(&store, 1);
    store.checkpoint().unwrap();
    write(&store, 2);
    write(&store, 3);
    store.checkpoint().unwrap();
    assert!(store.clean(4).unwrap() > 0, "nothing to clean");
    write(&store, 4);
    audit(&store, 4);
    drop(store); // Crash: recovery replays the residual log against {chain, tail}.

    let store = fx
        .open(Arc::clone(&fx.untrusted) as SharedUntrusted)
        .unwrap();
    audit(&store, 4);
    // The recovered chain is the live one: commits made after the reopen
    // validate at the next recovery too.
    write(&store, 5);
    let last = store.debug_descriptor(ids[11]).unwrap();
    drop(store);
    audit(
        &fx.open(Arc::clone(&fx.untrusted) as SharedUntrusted)
            .unwrap(),
        5,
    );

    // One flipped byte inside the last committed version — residual log,
    // covered by nothing but the chain until the next checkpoint.
    let mut image = fx.untrusted.image();
    image[(last.location + u64::from(last.vlen) / 2) as usize] ^= 0x01;
    let err = fx
        .open(Arc::new(MemStore::from_bytes(image)) as SharedUntrusted)
        .map(|_| ())
        .unwrap_err();
    assert!(err.is_tamper(), "got {err:?}");
}
