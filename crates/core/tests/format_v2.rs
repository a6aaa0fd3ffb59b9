//! On-disk format v2: the suite record and the derived header IV.
//!
//! - A flipped byte anywhere in a version — prefix, header, the body IV the
//!   header's IV derives from, or body — is a typed tamper verdict, both
//!   for the first read that depends on it and for recovery, under both
//!   validation protocols.
//! - A flipped suite-record byte is tamper; a store opened under another
//!   system suite is `SuiteMismatch`; a format-v1 superblock and a
//!   format-v2 or format-v3 suite record are `UnsupportedFormat`.
//! - A null-cipher partition seals, opens, cleans and recovers, and a store
//!   created on the paper's 3DES suite reopens and serves reads.

use std::sync::Arc;

use tdb::{Command, ObjectId, Response, TrustedDbBuilder};
use tdb_core::descriptor::Descriptor;
use tdb_core::log::{Superblock, FORMAT_VERSION, SUPERBLOCK_SIZE, SUPERBLOCK_SLOT};
use tdb_core::params::PartitionCrypto;
use tdb_core::store::{ChunkStore, ChunkStoreConfig, CommitOp, TrustedBackend, ValidationMode};
use tdb_core::version::{parse_version, seal_version, CommitRecord, VersionHeader, VersionKind};
use tdb_core::{ChunkId, CoreError, CryptoParams, PartitionId, TamperKind};
use tdb_crypto::hmac::Hmac;
use tdb_crypto::{CipherKind, HashKind, SecretKey};
use tdb_storage::{
    CounterOverTrusted, MemArchive, MemStore, MemTrustedStore, SharedUntrusted, TrustedStore,
    UntrustedStore,
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

/// Opens the store's image with every suite record rewritten to name
/// format `version`, validly MACed: the record a build of that format
/// wrote. `K_suite = HMAC-SHA-256(secret, "tdb v2 suite record")` MACs the
/// magic, version and tags.
fn open_as_format(version: u16) -> CoreError {
    let rig = Rig::new(ChunkStoreConfig::default());
    drop(rig.create());
    let mut image = rig.untrusted.image();
    let key = rig.secret.derive(b"tdb v2 suite record", 32);
    let mut rewritten = 0;
    for slot in [0, SUPERBLOCK_SLOT as usize] {
        let Ok(mut sb) = Superblock::decode(&image[slot..slot + SUPERBLOCK_SLOT as usize]) else {
            continue;
        };
        assert_eq!(sb.suite.version, FORMAT_VERSION);
        sb.suite.version = version;
        let [v0, v1] = version.to_le_bytes();
        let fields = [v0, v1, sb.suite.cipher, sb.suite.hash];
        let mac = Hmac::mac_parts(
            HashKind::Sha256,
            key.as_bytes(),
            &[&0x5444_4253_5542_4c32_u64.to_le_bytes(), &fields],
        );
        sb.suite.mac.copy_from_slice(mac.as_bytes());
        let bytes = sb.encode();
        image[slot..slot + bytes.len()].copy_from_slice(&bytes);
        rewritten += 1;
    }
    assert!(rewritten >= 1);
    rig.open_image(image, rig.config.clone())
        .map(|_| ())
        .unwrap_err()
}

/// A store whose verified suite record names format 2 — map chunks
/// digested in one pass, not as slot-tree roots — opens as
/// `UnsupportedFormat { version: 2 }`, which a client sees as code 16.
#[test]
fn a_v2_suite_record_is_an_unsupported_format_with_code_16() {
    let err = open_as_format(2);
    assert!(
        matches!(err, CoreError::UnsupportedFormat { version: 2 }),
        "{err}"
    );
    assert_eq!(tdb::TdbError::Core(err).code(), 16);
}

/// A store whose verified suite record names format 3 — every body one
/// CBC chain, not four interleaved — opens as
/// `UnsupportedFormat { version: 3 }`, code 16.
#[test]
fn a_v3_suite_record_is_an_unsupported_format_with_code_16() {
    let err = open_as_format(3);
    assert!(
        matches!(err, CoreError::UnsupportedFormat { version: 3 }),
        "{err}"
    );
    assert_eq!(tdb::TdbError::Core(err).code(), 16);
}

/// Plaintext length of a version header.
const HEADER_LEN: usize = 22;

/// Sets the kind byte's reserved bit in the header of the version at `at`,
/// re-encrypting the header under the IV its body's IV derives, so the
/// version stays validly sealed.
fn set_reserved_bit(system: &PartitionCrypto, image: &mut [u8], at: u64) {
    let start = at as usize;
    let iv_len = usize::from(u16::from_le_bytes([image[start], image[start + 1]]));
    let body_start = start + 2 + system.ciphertext_len(HEADER_LEN);
    let mut iv = vec![0; system.block_size()];
    system.derive_iv(&image[body_start..body_start + iv_len], &mut iv);
    let header = &mut image[start + 2..body_start];
    assert_eq!(
        system.decrypt_in_place(&iv, header, at).unwrap(),
        HEADER_LEN
    );
    assert_eq!(header[0] & 0x80, 0, "this build writes the bit clear");
    header[0] |= 0x80;
    system.encrypt_in_place(&iv, header, HEADER_LEN);
}

/// Vouches for the residual version `desc` locates, rewritten from `old`
/// to what `image` now holds, as the store vouched for `old`: counter
/// validation signs the version's commit set, of which it is the only
/// member, and direct validation chains it onto `register`, the
/// register's value from before the version was written.
fn vouch(
    rig: &Rig,
    system: &PartitionCrypto,
    image: &mut [u8],
    desc: &Descriptor,
    old: &[u8],
    register: &[u8],
) {
    let version = version_bytes(desc);
    let new = image[version.start as usize..version.end as usize].to_vec();
    match rig.config.validation {
        ValidationMode::Counter { .. } => {
            let at = version.end;
            let raw = parse_version(system, &image[at as usize..], at)
                .unwrap()
                .unwrap();
            assert_eq!(raw.header.kind, VersionKind::Commit);
            let record = CommitRecord::decode(&raw.open_body(system, at).unwrap()).unwrap();
            assert_eq!(record.set_hash, system.hash(old).as_bytes());
            let resigned = CommitRecord::signed(system, record.count, system.hash(&new).as_bytes());
            let sealed = seal_version(
                system,
                system,
                VersionKind::Commit,
                VersionHeader::unnamed_id(),
                &resigned.encode(),
            );
            assert_eq!(sealed.len(), raw.total_len);
            image[at as usize..at as usize + sealed.len()].copy_from_slice(&sealed);
        }
        ValidationMode::DirectHash => {
            // `[u32 length][chain][u64 tail]`.
            let chain = |record: &[u8]| record[4..record.len() - 8].to_vec();
            let mut record = rig.register.image();
            let before = chain(register);
            let hash = rig.config.system_hash;
            assert_eq!(chain(&record), hash.hash_parts(&[&before, old]).as_bytes());
            let end = record.len() - 8;
            record[4..end].copy_from_slice(hash.hash_parts(&[&before, &new]).as_bytes());
            rig.register.restore(record);
        }
    }
}

fn is_unsupported<T>(result: &tdb_core::Result<T>) -> bool {
    matches!(result, Err(CoreError::UnsupportedFormat { version: 2 }))
}

#[test]
fn a_version_with_the_reserved_kind_bit_is_an_unsupported_format() {
    for mode in modes() {
        let rig = Rig::new(ChunkStoreConfig {
            validation: mode,
            ..ChunkStoreConfig::default()
        });
        let system = rig.config.system_params(&rig.secret).runtime().unwrap();
        let store = rig.create();
        let p = partition(&store, CipherKind::Des, HashKind::Sha1);
        let ids: Vec<ChunkId> = (0..2).map(|_| store.allocate_chunk(p).unwrap()).collect();
        // One version behind a checkpoint, one in the residual log.
        write(&store, ids[0], b"checkpointed state of chunk zero");
        store.checkpoint().unwrap();
        let register_before = rig.register.image();
        write(&store, ids[1], b"residual state of chunk one");
        let descs: Vec<Descriptor> = ids
            .iter()
            .map(|id| store.debug_descriptor(*id).unwrap())
            .collect();
        let bytes = |image: &[u8], desc: &Descriptor| {
            let range = version_bytes(desc);
            image[range.start as usize..range.end as usize].to_vec()
        };

        // The first read of either version, rewritten under the live store.
        let image = rig.untrusted.image();
        for (id, desc) in ids.iter().zip(&descs) {
            let mut rewritten = image.clone();
            set_reserved_bit(&system, &mut rewritten, desc.location);
            let at = desc.location;
            rig.untrusted
                .write_at(at, &bytes(&rewritten, desc))
                .unwrap();
            assert!(is_unsupported(&store.read(*id)), "{mode:?} {id:?}");
            rig.untrusted.write_at(at, &bytes(&image, desc)).unwrap();
            assert!(store.read(*id).is_ok(), "{mode:?} {id:?}");
        }
        drop(store);
        let register_at_crash = rig.register.image();

        // Behind the checkpoint, recovery never reads the version: the
        // store opens, and its first read and a session's `Get` say so.
        let mut behind = image.clone();
        set_reserved_bit(&system, &mut behind, descs[0].location);
        let store = rig.open_image(behind.clone(), rig.config.clone()).unwrap();
        assert!(is_unsupported(&store.read(ids[0])), "{mode:?}");
        assert_eq!(store.read(ids[1]).unwrap(), b"residual state of chunk one");
        drop(store);
        rig.register.restore(register_at_crash.clone());
        let db = TrustedDbBuilder::new()
            .secret(rig.secret.clone())
            .chunk_config(rig.config.clone())
            .open(
                Arc::new(MemStore::from_bytes(behind)),
                rig.backend(),
                Arc::new(MemArchive::new()),
            )
            .unwrap();
        let get = Command::Get(ObjectId::from_parts(p, ids[0].pos.rank));
        match db.session("auditor").dispatch(&get) {
            Response::Error(e) => assert_eq!(e.code, 16, "{mode:?}: {e}"),
            other => panic!("{mode:?}: {other:?}"),
        }
        drop(db);

        // In the residual log, and vouched for, it fails recovery.
        rig.register.restore(register_at_crash);
        let mut residual = image.clone();
        set_reserved_bit(&system, &mut residual, descs[1].location);
        let old = bytes(&image, &descs[1]);
        vouch(
            &rig,
            &system,
            &mut residual,
            &descs[1],
            &old,
            &register_before,
        );
        let reopened = rig.open_image(residual, rig.config.clone());
        assert!(
            is_unsupported(&reopened),
            "{mode:?}: {:?}",
            reopened.map(|_| ())
        );
    }
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
