//! Sealing a batch as lanes changes how its bodies are enciphered, never
//! what is written. Every body a store writes, whether its commit sealed
//! it alone, four at a time, or in a bitsliced group of up to 256, is the
//! serial CBC encryption of its plaintext under the IV its version
//! carries; its header names it; and no two versions carry the same body
//! IV. The layout — descriptors, log length, bytes appended, Merkle root,
//! recovered state — is a function of the script alone, so two stores
//! that run it agree on it although their IVs differ. (The file keeps the
//! name it had when a thread fan-out shared this work.)
//!
//! Also here: dropping the direct-validation chain under counter validation
//! left direct validation itself whole — `{chain, tail}` still round-trips
//! through commit, checkpoint, clean and reopen, and a flipped byte in the
//! residual log is still refused at recovery.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use tdb_core::descriptor::Descriptor;
use tdb_core::params::PartitionCrypto;
use tdb_core::store::{ChunkStore, ChunkStoreConfig, CommitOp, TrustedBackend, ValidationMode};
use tdb_core::version::{parse_version, VersionKind};
use tdb_core::{ChunkId, CryptoParams};
use tdb_crypto::{CipherKind, HashKind, HashValue, SecretKey};
use tdb_storage::{CounterOverTrusted, MemStore, MemTrustedStore, SharedUntrusted, TrustedStore};

/// One commit of the script: `writes` bodies of `len` bytes, then perhaps
/// a checkpoint.
#[derive(Debug, Clone, Copy)]
struct Round {
    writes: usize,
    len: usize,
    checkpoint: bool,
}

/// Three to five rounds of 1 to 80 writes of up to 4 KB: commits sealed
/// one at a time, four at a time and in bitsliced groups.
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
            writes: 1 + next(80) as usize,
            len: next(4000) as usize,
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

/// Runs `rounds` on a fresh store whose data partition has `params`,
/// checks every version it wrote against serial CBC, and returns what the
/// layout must agree on.
fn run(rounds: &[Round], secret: &SecretKey, params: &CryptoParams) -> Outcome {
    let untrusted = Arc::new(MemStore::new());
    let register = Arc::new(MemTrustedStore::new(64));
    let backend = || {
        TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(
            Arc::clone(&register) as Arc<dyn TrustedStore>
        )))
    };
    let config = ChunkStoreConfig {
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
    let descriptors: Vec<Descriptor> = written
        .iter()
        .map(|(id, _)| store.debug_descriptor(*id).unwrap())
        .collect();
    let system = config.system_params(secret).runtime().unwrap();
    let image = untrusted.image();
    let mut ivs = HashSet::new();
    for ((id, plaintext), desc) in written.iter().zip(&descriptors) {
        let iv = check_serial(
            &system,
            &params.runtime().unwrap(),
            &image,
            *id,
            plaintext,
            desc,
        );
        assert!(ivs.insert(iv), "{id:?} repeats a body IV");
    }
    let root = store.snapshot_root(p).unwrap();
    let log_len = store.stored_size();
    let bytes_appended = store.stats().bytes_appended;
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
    Outcome {
        descriptors,
        log_len,
        bytes_appended,
        root,
        reopened_root,
        next_write: reopened.debug_descriptor(next).unwrap(),
    }
}

/// Checks that the version `desc` locates in `image` names `id`, and that
/// its body is `plaintext` encrypted on its own, one block after another,
/// under the IV it carries. Returns that IV.
fn check_serial(
    system: &PartitionCrypto,
    part: &PartitionCrypto,
    image: &[u8],
    id: ChunkId,
    plaintext: &[u8],
    desc: &Descriptor,
) -> Vec<u8> {
    let at = desc.location as usize;
    let raw = parse_version(system, &image[at..at + desc.vlen as usize], desc.location)
        .unwrap()
        .expect("a version");
    assert_eq!(raw.header.kind, VersionKind::Named);
    assert_eq!(raw.header.id, id);
    assert_eq!(raw.header.body_len as usize, plaintext.len());
    let (iv, ciphertext) = raw.sealed_body.split_at(part.block_size());
    let mut expect = plaintext.to_vec();
    expect.resize(part.ciphertext_len(plaintext.len()), 0);
    part.encrypt_in_place(&part.chain_ivs(iv), &mut expect, plaintext.len());
    assert_eq!(ciphertext, &expect[..], "body of {id:?}");
    iv.to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    #[test]
    fn lane_sealed_stores_write_serial_cbc_in_one_layout(seed in any::<u64>()) {
        let rounds = script(seed);
        let secret = SecretKey::random(24);
        for cipher in [CipherKind::Des, CipherKind::TripleDes, CipherKind::Aes128] {
            let params = CryptoParams::generate(cipher, HashKind::Sha1);
            let first = run(&rounds, &secret, &params);
            prop_assert_eq!(first.root, first.reopened_root);
            prop_assert_eq!(&run(&rounds, &secret, &params), &first, "{:?}", rounds);
        }
    }
}

/// A script with a commit on each side of every dispatch threshold of
/// `Cbc::encrypt_many` — two and three bodies (one at a time, then four
/// lanes), 39 and 40 (four lanes, then bitsliced on AVX-512), 257 (a
/// bitsliced group and a four-lane rest) and 296 (two bitsliced groups) —
/// so every kernel is covered on every build whatever seeds the property
/// draws.
#[test]
fn regression_threshold_boundary() {
    let rounds = [
        (2, 300),
        (3, 300),
        (39, 1000),
        (40, 1000),
        (257, 100),
        (296, 8),
    ]
    .map(|(writes, len)| Round {
        writes,
        len,
        checkpoint: writes == 40,
    });
    let secret = SecretKey::random(24);
    for cipher in [CipherKind::Des, CipherKind::TripleDes] {
        let params = CryptoParams::generate(cipher, HashKind::Sha1);
        assert_eq!(
            run(&rounds, &secret, &params),
            run(&rounds, &secret, &params)
        );
    }
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
