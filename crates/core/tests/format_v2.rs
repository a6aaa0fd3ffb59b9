//! On-disk format v2: the suite record and the derived header IV.
//!
//! - A flipped byte anywhere in a version — prefix, header, the body IV the
//!   header's IV derives from, or body — is a typed tamper verdict, both
//!   for the first read that depends on it and for recovery, under both
//!   validation protocols.
//! - A flipped suite-record byte is tamper; a store opened under another
//!   system suite is `SuiteMismatch`; a format-v1 superblock is
//!   `UnsupportedFormat`.
//! - A null-cipher partition seals, opens, cleans and recovers, and a store
//!   created on the paper's 3DES suite reopens and serves reads.

use std::sync::Arc;

use tdb_core::descriptor::Descriptor;
use tdb_core::log::{SUPERBLOCK_SIZE, SUPERBLOCK_SLOT};
use tdb_core::store::{ChunkStore, ChunkStoreConfig, CommitOp, TrustedBackend, ValidationMode};
use tdb_core::version::parse_version;
use tdb_core::{ChunkId, CoreError, CryptoParams, PartitionId, TamperKind};
use tdb_crypto::{CipherKind, HashKind, SecretKey};
use tdb_storage::{
    CounterOverTrusted, MemStore, MemTrustedStore, SharedUntrusted, TrustedStore, UntrustedStore,
};

/// Counter validation that syncs the trusted counter at every commit, so
/// recovery may drop no acknowledged commit, and direct validation.
fn modes() -> [ValidationMode; 2] {
    [
        ValidationMode::Counter {
            delta_ut: 0,
            delta_tu: 0,
        },
        ValidationMode::DirectHash,
    ]
}

struct Rig {
    secret: SecretKey,
    register: Arc<MemTrustedStore>,
    config: ChunkStoreConfig,
    untrusted: Arc<MemStore>,
}

impl Rig {
    fn new(config: ChunkStoreConfig) -> Rig {
        Rig {
            secret: SecretKey::new(b"format v2 test secret".to_vec()),
            register: Arc::new(MemTrustedStore::new(64)),
            config: ChunkStoreConfig {
                fanout: 4,
                segment_size: 4096,
                checkpoint_threshold: 1000,
                ..config
            },
            untrusted: Arc::new(MemStore::new()),
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
        .unwrap()
    }

    fn open_image(&self, image: Vec<u8>, config: ChunkStoreConfig) -> tdb_core::Result<ChunkStore> {
        ChunkStore::open(
            Arc::new(MemStore::from_bytes(image)) as SharedUntrusted,
            self.backend(),
            self.secret.clone(),
            config,
        )
    }

    fn reopen(&self) -> tdb_core::Result<ChunkStore> {
        self.open_image(self.untrusted.image(), self.config.clone())
    }
}

fn partition(store: &ChunkStore, cipher: CipherKind, hash: HashKind) -> PartitionId {
    let p = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: CryptoParams::generate(cipher, hash),
        }])
        .unwrap();
    p
}

fn write(store: &ChunkStore, id: ChunkId, bytes: &[u8]) {
    store
        .commit(vec![CommitOp::WriteChunk {
            id,
            bytes: bytes.to_vec(),
        }])
        .unwrap();
}

fn flip(store: &MemStore, at: u64) {
    let mut byte = [0u8];
    store.read_at(at, &mut byte).unwrap();
    store.write_at(at, &[byte[0] ^ 0x20]).unwrap();
}

/// Every byte of `desc`'s version, its body IV included.
fn version_bytes(desc: &Descriptor) -> std::ops::Range<u64> {
    desc.location..desc.location + u64::from(desc.vlen)
}

#[test]
fn a_flipped_byte_anywhere_in_a_version_is_tamper_to_the_first_read() {
    for mode in modes() {
        let rig = Rig::new(ChunkStoreConfig {
            validation: mode,
            ..ChunkStoreConfig::default()
        });
        let store = rig.create();
        let p = partition(&store, CipherKind::Des, HashKind::Sha1);
        let ids: Vec<ChunkId> = (0..2).map(|_| store.allocate_chunk(p).unwrap()).collect();
        // One version behind a checkpoint, one in the residual log.
        write(&store, ids[0], b"checkpointed state of chunk zero");
        store.checkpoint().unwrap();
        write(&store, ids[1], b"residual state of chunk one");
        for id in &ids {
            let desc = store.debug_descriptor(*id).unwrap();
            let expect = store.read(*id).unwrap();
            for at in version_bytes(&desc) {
                flip(&rig.untrusted, at);
                match store.read(*id) {
                    Err(e) => assert!(e.is_tamper(), "{mode:?} {id:?} byte {at}: {e:?}"),
                    Ok(_) => panic!("{mode:?} {id:?}: byte {at} flipped unnoticed"),
                }
                flip(&rig.untrusted, at);
                assert_eq!(store.read(*id).unwrap(), expect);
            }
        }
    }
}

#[test]
fn a_flipped_byte_anywhere_in_a_residual_version_is_tamper_to_recovery() {
    for mode in modes() {
        let rig = Rig::new(ChunkStoreConfig {
            validation: mode,
            ..ChunkStoreConfig::default()
        });
        let store = rig.create();
        let p = partition(&store, CipherKind::Aes128, HashKind::Sha256);
        let ids: Vec<ChunkId> = (0..3).map(|_| store.allocate_chunk(p).unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            write(&store, *id, format!("residual record {i}").as_bytes());
        }
        let descs: Vec<Descriptor> = ids
            .iter()
            .map(|id| store.debug_descriptor(*id).unwrap())
            .collect();
        drop(store);
        let image = rig.untrusted.image();
        // The middle commit's version, and the last commit's version and,
        // in counter mode, its commit chunk.
        let system = rig.config.system_params(&rig.secret).runtime().unwrap();
        let last_end = descs[2].location + u64::from(descs[2].vlen);
        let commit_chunk = parse_version(&system, &image[last_end as usize..], last_end)
            .unwrap()
            .map_or(0, |v| v.total_len as u64);
        let targets = version_bytes(&descs[1])
            .chain(descs[2].location..last_end + commit_chunk)
            .collect::<Vec<_>>();
        assert_eq!(
            commit_chunk > 0,
            matches!(mode, ValidationMode::Counter { .. }),
            "{mode:?}"
        );
        for at in targets {
            let mut flipped = image.clone();
            flipped[at as usize] ^= 0x20;
            match rig.open_image(flipped, rig.config.clone()) {
                Err(e) => assert!(e.is_tamper(), "{mode:?} byte {at}: {e:?}"),
                Ok(_) => panic!("{mode:?}: byte {at} flipped unnoticed by recovery"),
            }
        }
    }
}

#[test]
fn a_flipped_suite_record_byte_is_tamper() {
    let rig = Rig::new(ChunkStoreConfig::default());
    let store = rig.create();
    store.close().unwrap(); // Both superblock slots now hold a record.
    drop(store);
    let image = rig.untrusted.image();
    // Magic (8 bytes), then version, cipher and hash tags and the MAC.
    for at in 8..44u64 {
        let mut flipped = image.clone();
        for slot in [0, SUPERBLOCK_SLOT] {
            flipped[(slot + at) as usize] ^= 0x01;
        }
        match rig.open_image(flipped, rig.config.clone()) {
            Err(CoreError::TamperDetected(TamperKind::BadSuiteRecord)) => {}
            other => panic!("suite byte {at}: {:?}", other.map(|_| ())),
        }
    }
    // Another secret cannot vouch for the record either.
    let stranger = Rig {
        secret: SecretKey::new(b"another secret".to_vec()),
        ..rig
    };
    assert!(matches!(
        stranger.open_image(image, stranger.config.clone()),
        Err(CoreError::TamperDetected(TamperKind::BadSuiteRecord))
    ));
}

#[test]
fn a_store_opened_under_another_suite_is_a_suite_mismatch() {
    for (created, opened) in [
        (CipherKind::Aes128, CipherKind::TripleDes),
        (CipherKind::TripleDes, CipherKind::Aes128),
    ] {
        let rig = Rig::new(ChunkStoreConfig {
            system_cipher: created,
            ..ChunkStoreConfig::default()
        });
        drop(rig.create());
        let config = ChunkStoreConfig {
            system_cipher: opened,
            ..rig.config.clone()
        };
        match rig.open_image(rig.untrusted.image(), config) {
            Err(CoreError::SuiteMismatch { stored, configured }) => {
                assert_eq!(stored, (created, HashKind::Sha1));
                assert_eq!(configured, (opened, HashKind::Sha1));
            }
            other => panic!("{created:?} opened as {opened:?}: {:?}", other.map(|_| ())),
        }
        let config = ChunkStoreConfig {
            system_hash: HashKind::Sha256,
            ..rig.config.clone()
        };
        assert!(matches!(
            rig.open_image(rig.untrusted.image(), config),
            Err(CoreError::SuiteMismatch { .. })
        ));
    }
}

#[test]
fn a_v1_superblock_is_an_unsupported_format() {
    let rig = Rig::new(ChunkStoreConfig::default());
    drop(rig.create());
    let mut image = rig.untrusted.image();
    // A format-v1 slot: "TDBSUBLK", epoch, current and previous leader,
    // and an FNV-1a sum over those 32 bytes.
    let mut v1 = Vec::new();
    for word in [0x5444_4253_5542_4c4b_u64, 1, SUPERBLOCK_SIZE, 0] {
        v1.extend_from_slice(&word.to_le_bytes());
    }
    let sum = v1.iter().fold(0xcbf2_9ce4_8422_2325_u64, |acc, &b| {
        (acc ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    v1.extend_from_slice(&sum.to_le_bytes());
    image[..SUPERBLOCK_SIZE as usize].fill(0);
    image[..v1.len()].copy_from_slice(&v1);
    assert!(matches!(
        rig.open_image(image, rig.config.clone()),
        Err(CoreError::UnsupportedFormat { version: 1 })
    ));
}

/// Writes, overwrites, checkpoints, cleans, crashes and reopens a store
/// whose one partition uses `cipher`/`hash`, then reads everything back.
fn seal_open_clean_recover(config: ChunkStoreConfig, cipher: CipherKind, hash: HashKind) {
    let rig = Rig::new(config);
    let store = rig.create();
    let p = partition(&store, cipher, hash);
    let ids: Vec<ChunkId> = (0..8).map(|_| store.allocate_chunk(p).unwrap()).collect();
    let body = |round: u8, i: usize| vec![round ^ i as u8; 300 + 40 * i];
    for round in 0..4u8 {
        for (i, id) in ids.iter().enumerate() {
            write(&store, *id, &body(round, i));
        }
        if round == 1 {
            store.checkpoint().unwrap();
        }
    }
    store.checkpoint().unwrap();
    assert!(store.clean(4).unwrap() > 0, "{cipher:?}: nothing cleaned");
    for (i, id) in ids.iter().enumerate().take(3) {
        write(&store, *id, &body(9, i));
    }
    let expect = |i: usize| if i < 3 { body(9, i) } else { body(3, i) };
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(store.read(*id).unwrap(), expect(i), "{cipher:?} chunk {i}");
    }
    drop(store);
    let store = rig.reopen().unwrap();
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(store.read(*id).unwrap(), expect(i), "{cipher:?} chunk {i}");
    }
}

#[test]
fn a_null_cipher_partition_seals_opens_cleans_and_recovers() {
    for mode in modes() {
        for hash in [HashKind::Sha1, HashKind::Null] {
            let config = ChunkStoreConfig {
                validation: mode,
                ..ChunkStoreConfig::default()
            };
            seal_open_clean_recover(config, CipherKind::Null, hash);
        }
    }
}

#[test]
fn a_store_on_the_paper_suite_reopens_and_serves_reads() {
    for mode in modes() {
        let config = ChunkStoreConfig {
            validation: mode,
            system_cipher: CipherKind::TripleDes,
            system_hash: HashKind::Sha1,
            ..ChunkStoreConfig::default()
        };
        seal_open_clean_recover(config, CipherKind::Des, HashKind::Sha1);
    }
}
