//! The tamper matrix: systematic attacks on the untrusted store under both
//! validation protocols. The invariant throughout: **no silent corruption**
//! — every read either returns exactly what the trusted program wrote or
//! fails (ideally with a tamper signal).

use std::sync::Arc;

use tdb_core::store::{ChunkStore, ChunkStoreConfig, CommitOp, TrustedBackend, ValidationMode};
use tdb_core::{ChunkId, CryptoParams, PartitionId};
use tdb_crypto::SecretKey;
use tdb_storage::{CounterOverTrusted, MemStore, MemTrustedStore, SharedUntrusted, TrustedStore};

struct World {
    secret: SecretKey,
    register: Arc<MemTrustedStore>,
    config: ChunkStoreConfig,
    /// Chunk contents written, by id.
    expected: Vec<(ChunkId, Vec<u8>)>,
    /// Clean image after close.
    image: Vec<u8>,
}

fn build_world(validation: ValidationMode) -> World {
    let secret = SecretKey::random(24);
    let register = Arc::new(MemTrustedStore::new(64));
    let config = ChunkStoreConfig {
        fanout: 4,
        segment_size: 4096,
        validation,
        ..ChunkStoreConfig::default()
    };
    let untrusted = Arc::new(MemStore::new());
    let store = ChunkStore::create(
        Arc::clone(&untrusted) as SharedUntrusted,
        backend_for(&config, &register),
        secret.clone(),
        config.clone(),
    )
    .unwrap();
    let p = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: CryptoParams::paper_default(),
        }])
        .unwrap();
    let mut expected = Vec::new();
    for i in 0..12u32 {
        let c = store.allocate_chunk(p).unwrap();
        let data = format!("protected record {i}: {}", "x".repeat(i as usize * 20)).into_bytes();
        store
            .commit(vec![CommitOp::WriteChunk {
                id: c,
                bytes: data.clone(),
            }])
            .unwrap();
        expected.push((c, data));
    }
    // Leave some state in the residual log (no checkpoint for half the
    // writes) to cover both checkpointed and residual validation paths.
    store.close().unwrap();
    for i in 12..16u32 {
        let c = store.allocate_chunk(p).unwrap();
        let data = format!("residual record {i}").into_bytes();
        store
            .commit(vec![CommitOp::WriteChunk {
                id: c,
                bytes: data.clone(),
            }])
            .unwrap();
        expected.push((c, data));
    }
    World {
        secret,
        register,
        config,
        expected,
        image: untrusted.image(),
    }
}

fn backend_for(config: &ChunkStoreConfig, register: &Arc<MemTrustedStore>) -> TrustedBackend {
    match config.validation {
        ValidationMode::Counter { .. } => TrustedBackend::Counter(Arc::new(
            CounterOverTrusted::new(Arc::clone(register) as Arc<dyn TrustedStore>),
        )),
        ValidationMode::DirectHash => {
            TrustedBackend::Register(Arc::clone(register) as Arc<dyn TrustedStore>)
        }
    }
}

impl World {
    fn open_image(&self, image: Vec<u8>) -> tdb_core::Result<ChunkStore> {
        ChunkStore::open(
            Arc::new(MemStore::from_bytes(image)) as SharedUntrusted,
            backend_for(&self.config, &self.register),
            self.secret.clone(),
            self.config.clone(),
        )
    }

    /// Opens a (possibly tampered) image and checks the no-silent-corruption
    /// invariant; returns how many reads failed.
    fn audit(&self, image: Vec<u8>) -> usize {
        let mut failures = 0;
        match self.open_image(image) {
            Err(_) => failures += self.expected.len(),
            Ok(store) => {
                for (id, data) in &self.expected {
                    match store.read(*id) {
                        Ok(got) => assert_eq!(&got, data, "SILENT CORRUPTION at {id}"),
                        Err(_) => failures += 1,
                    }
                }
            }
        }
        failures
    }
}

fn modes() -> [ValidationMode; 2] {
    [
        ValidationMode::Counter {
            delta_ut: 5,
            delta_tu: 0,
        },
        ValidationMode::DirectHash,
    ]
}

#[test]
fn clean_image_reads_perfectly() {
    for mode in modes() {
        let w = build_world(mode);
        assert_eq!(w.audit(w.image.clone()), 0, "{mode:?}");
    }
}

#[test]
fn single_bit_flips_never_corrupt_silently() {
    for mode in modes() {
        let w = build_world(mode);
        let mut total_detected = 0;
        // Sweep the image, including the superblock region.
        for offset in (0..w.image.len()).step_by(61) {
            let mut image = w.image.clone();
            image[offset] ^= 0x04;
            total_detected += w.audit(image);
        }
        assert!(total_detected > 0, "{mode:?}: nothing ever detected");
    }
}

#[test]
fn byte_zeroing_never_corrupts_silently() {
    for mode in modes() {
        let w = build_world(mode);
        for offset in (0..w.image.len()).step_by(247) {
            let mut image = w.image.clone();
            image[offset] = 0;
            let _ = w.audit(image);
        }
    }
}

#[test]
fn truncation_detected() {
    for mode in modes() {
        let w = build_world(mode);
        for keep in [
            w.image.len() / 2,
            w.image.len() - 1,
            w.image.len() - 100,
            600,
        ] {
            let image = w.image[..keep].to_vec();
            let failures = w.audit(image);
            assert!(failures > 0, "{mode:?}: truncation to {keep} undetected");
        }
    }
}

#[test]
fn splice_attack_never_corrupts_silently() {
    // Copy one region of the image over another (e.g. trying to duplicate
    // a version or transplant an old one).
    for mode in modes() {
        let w = build_world(mode);
        let len = w.image.len();
        for (src, dst, n) in [
            (512usize, 2048usize, 256usize),
            (2048, 512, 256),
            (len / 2, len / 4, 128),
            (600, 700, 64),
        ] {
            if src + n > len || dst + n > len {
                continue;
            }
            let mut image = w.image.clone();
            let chunk: Vec<u8> = image[src..src + n].to_vec();
            image[dst..dst + n].copy_from_slice(&chunk);
            let _ = w.audit(image);
        }
    }
}

#[test]
fn whole_image_replay_detected() {
    for mode in modes() {
        let w = build_world(mode);
        // Continue operating past the captured image, then replay it.
        let store = w.open_image(w.image.clone()).unwrap();
        let p = PartitionId(1);
        for i in 0..8u32 {
            let c = store.allocate_chunk(p).unwrap();
            store
                .commit(vec![CommitOp::WriteChunk {
                    id: c,
                    bytes: format!("later {i}").into_bytes(),
                }])
                .unwrap();
        }
        store.close().unwrap();
        drop(store);
        // The old image now fails validation against the advanced trusted
        // store.
        let failures = w.audit(w.image.clone());
        assert!(failures > 0, "{mode:?}: replay undetected");
    }
}

#[test]
fn cross_chunk_version_swap_detected() {
    // Swap the bodies of two same-size versions: both should fail their
    // hash checks (or the log validation).
    for mode in modes() {
        let w = build_world(mode);
        // Find two equal-length runs by brute force at fixed offsets.
        let mut image = w.image.clone();
        let a = 700usize;
        let b = 1500usize;
        let n = 128usize;
        if b + n < image.len() {
            let tmp: Vec<u8> = image[a..a + n].to_vec();
            let tmp2: Vec<u8> = image[b..b + n].to_vec();
            image[a..a + n].copy_from_slice(&tmp2);
            image[b..b + n].copy_from_slice(&tmp);
            let _ = w.audit(image);
        }
    }
}

#[test]
fn secrecy_plaintext_never_on_device() {
    for mode in modes() {
        let w = build_world(mode);
        for (_, data) in &w.expected {
            if data.len() < 8 {
                continue;
            }
            assert!(
                !w.image
                    .windows(data.len())
                    .any(|win| win == data.as_slice()),
                "{mode:?}: plaintext found in untrusted image"
            );
        }
    }
}

#[test]
fn superblock_corruption_fails_closed() {
    for mode in modes() {
        let w = build_world(mode);
        for offset in 0..48usize {
            let mut image = w.image.clone();
            image[offset] ^= 0xFF;
            match w.open_image(image) {
                Err(_) => {}
                Ok(store) => {
                    // A surviving open must still read everything correctly
                    // (the checksummed superblock either rejects or the
                    // recovery validates end-to-end).
                    for (id, data) in &w.expected {
                        if let Ok(got) = store.read(*id) {
                            assert_eq!(&got, data);
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The read-proof tamper matrix (ISSUE 7): a client holding only the root
// digest must reject every single-byte perturbation of a `ReadProof` — the
// record body, any path sibling (level body), the embedded root, and the
// pinned root itself.
// ---------------------------------------------------------------------------

mod proof_tamper {
    use super::*;
    use tdb_core::{verify_read_proof, ReadProof};
    use tdb_crypto::HashValue;

    struct Proven {
        body: Vec<u8>,
        proof: ReadProof,
        root: HashValue,
    }

    /// Writes a tree several levels deep and extracts a proof per chunk.
    fn proven_reads() -> Vec<Proven> {
        let register = Arc::new(MemTrustedStore::new(64));
        let config = ChunkStoreConfig {
            fanout: 4,
            segment_size: 4096,
            validation: ValidationMode::Counter {
                delta_ut: 5,
                delta_tu: 0,
            },
            ..ChunkStoreConfig::default()
        };
        let store = ChunkStore::create(
            Arc::new(MemStore::new()) as SharedUntrusted,
            backend_for(&config, &register),
            SecretKey::random(24),
            config,
        )
        .unwrap();
        let p = store.allocate_partition().unwrap();
        store
            .commit(vec![CommitOp::CreatePartition {
                id: p,
                params: CryptoParams::paper_default(),
            }])
            .unwrap();
        let mut ids = Vec::new();
        for i in 0..9u32 {
            let c = store.allocate_chunk(p).unwrap();
            store
                .commit(vec![CommitOp::WriteChunk {
                    id: c,
                    bytes: format!("proven record {i}: {}", "y".repeat(i as usize * 11))
                        .into_bytes(),
                }])
                .unwrap();
            ids.push(c);
        }
        let root = store.snapshot_root(p).unwrap();
        ids.into_iter()
            .map(|id| {
                let (body, proof) = store.read_with_proof(id).unwrap();
                Proven { body, proof, root }
            })
            .collect()
    }

    #[test]
    fn intact_proofs_verify() {
        for pr in proven_reads() {
            assert!(
                pr.proof.levels.len() >= 2,
                "tree too shallow to exercise paths"
            );
            assert!(verify_read_proof(&pr.proof, &pr.body, &pr.root));
        }
    }

    #[test]
    fn every_record_byte_flip_rejected() {
        for pr in proven_reads() {
            for i in 0..pr.body.len() {
                let mut body = pr.body.clone();
                body[i] ^= 0x01;
                assert!(
                    !verify_read_proof(&pr.proof, &body, &pr.root),
                    "flipped record byte {i} still verified"
                );
            }
            // Truncation and extension: the leaf descriptor pins the size.
            assert!(!verify_read_proof(
                &pr.proof,
                &pr.body[..pr.body.len() - 1],
                &pr.root
            ));
            let mut longer = pr.body.clone();
            longer.push(0);
            assert!(!verify_read_proof(&pr.proof, &longer, &pr.root));
        }
    }

    #[test]
    fn every_path_sibling_byte_flip_rejected() {
        for pr in proven_reads() {
            for level in 0..pr.proof.levels.len() {
                for i in 0..pr.proof.levels[level].leaf.len() {
                    let mut proof = pr.proof.clone();
                    proof.levels[level].leaf[i] ^= 0x01;
                    assert!(
                        !verify_read_proof(&proof, &pr.body, &pr.root),
                        "flipped byte {i} of level {level} leaf still verified"
                    );
                }
                for s in 0..pr.proof.levels[level].siblings.len() {
                    for i in 0..pr.proof.levels[level].siblings[s].len() {
                        let mut proof = pr.proof.clone();
                        let mut bytes = proof.levels[level].siblings[s].as_bytes().to_vec();
                        bytes[i] ^= 0x01;
                        proof.levels[level].siblings[s] = HashValue::new(&bytes);
                        assert!(
                            !verify_read_proof(&proof, &pr.body, &pr.root),
                            "flipped byte {i} of level {level} sibling {s} still verified"
                        );
                    }
                }
                // A redirected slot index must not verify either.
                let mut proof = pr.proof.clone();
                proof.levels[level].slot = (proof.levels[level].slot + 1) % 4;
                assert!(!verify_read_proof(&proof, &pr.body, &pr.root));
            }
        }
    }

    #[test]
    fn every_root_byte_flip_rejected() {
        for pr in proven_reads() {
            // The root embedded in the proof…
            for i in 0..pr.proof.root.as_bytes().len() {
                let mut bytes = pr.proof.root.as_bytes().to_vec();
                bytes[i] ^= 0x01;
                let mut proof = pr.proof.clone();
                proof.root = HashValue::new(&bytes);
                assert!(
                    !verify_read_proof(&proof, &pr.body, &pr.root),
                    "flipped embedded-root byte {i} still verified"
                );
            }
            // …and the digest the client pinned.
            for i in 0..pr.root.as_bytes().len() {
                let mut bytes = pr.root.as_bytes().to_vec();
                bytes[i] ^= 0x01;
                assert!(
                    !verify_read_proof(&pr.proof, &pr.body, &HashValue::new(&bytes)),
                    "flipped pinned-root byte {i} still verified"
                );
            }
        }
    }

    #[test]
    fn proof_cannot_vouch_for_an_aliased_rank() {
        // Slot indices are the rank's base-fanout digits, so rank
        // r + fanout^levels walks the same path; the verifier must reject
        // the alias by requiring the walk to end at the root.
        for pr in proven_reads() {
            let mut proof = pr.proof.clone();
            proof.id.pos.rank += 4u64.pow(proof.levels.len() as u32);
            assert!(
                !verify_read_proof(&proof, &pr.body, &pr.root),
                "out-of-range alias rank verified"
            );
        }
    }

    #[test]
    fn encoded_proof_byte_flips_never_vouch_for_the_claimed_id() {
        // Sweep the wire form: each flip must fail to decode, fail to
        // verify, or change the claimed id (which callers compare against
        // the id they requested).
        let pr = &proven_reads()[3];
        let encoded = pr.proof.encode();
        for i in 0..encoded.len() {
            let mut bytes = encoded.clone();
            bytes[i] ^= 0x01;
            let Ok(decoded) = ReadProof::decode(&bytes) else {
                continue;
            };
            if decoded.id != pr.proof.id {
                continue;
            }
            assert!(
                !verify_read_proof(&decoded, &pr.body, &pr.root),
                "flipped encoded byte {i} still verified for the claimed id"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The wire dimension: proofs and proof-carrying responses as a network
// client receives them. The serialized forms must round-trip losslessly,
// and no single-byte tampering of a framed response may make a verifying
// client accept a record other than the one the server committed.
// ---------------------------------------------------------------------------

mod framed_tamper {
    use super::*;
    use tdb::wire;
    use tdb_core::{verify_read_proof, ReadProof};
    use tdb_crypto::HashValue;

    const REC_TAG: u32 = 7003;

    #[derive(Debug)]
    struct Rec(Vec<u8>);

    impl tdb::StoredObject for Rec {
        fn type_tag(&self) -> u32 {
            REC_TAG
        }
        fn pickle(&self) -> Vec<u8> {
            self.0.clone()
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    fn unpickle_rec(body: &[u8]) -> tdb_object::errors::Result<Arc<dyn tdb::StoredObject>> {
        Ok(Arc::new(Rec(body.to_vec())))
    }

    /// A database, an object in it, and the pinned root of the committed
    /// state.
    fn populated_db() -> (tdb::TrustedDb, tdb::ObjectId, HashValue) {
        let db = tdb::TrustedDbBuilder::new()
            .register_type(REC_TAG, unpickle_rec)
            .chunk_config(ChunkStoreConfig {
                fanout: 4,
                segment_size: 4096,
                ..ChunkStoreConfig::default()
            })
            .build_in_memory()
            .unwrap();
        let partition = db.partition();
        let mut ids = Vec::new();
        let mut session = db.session("setup");
        for i in 0..10u32 {
            let mut record = REC_TAG.to_le_bytes().to_vec();
            record.extend_from_slice(format!("framed record {i}").as_bytes());
            match session.dispatch(&tdb::Command::Create { partition, record }) {
                tdb::Response::Id(id) => ids.push(id),
                other => panic!("create answered {other:?}"),
            }
        }
        drop(session);
        let root = db.snapshot_root().unwrap();
        (db, ids[4], root)
    }

    /// What a verifying client does with one framed response: strip the
    /// frame, decode the envelope, check the request id, decode the
    /// proof, verify the record against the pinned root. Returns the
    /// record only if every step accepts.
    fn client_accepts(
        frame: &[u8],
        expected_request: u64,
        pinned_root: &HashValue,
    ) -> Option<Vec<u8>> {
        let mut cursor = std::io::Cursor::new(frame);
        let payload = wire::read_frame(&mut cursor).ok()?;
        // Trailing bytes after the framed payload are a protocol error.
        if (cursor.position() as usize) != frame.len() {
            return None;
        }
        let envelope = wire::decode_response(&payload).ok()?;
        if envelope.request_id != expected_request {
            return None;
        }
        match envelope.response {
            tdb::Response::VerifiedRecord { record, proof, .. } => {
                let proof = ReadProof::decode(&proof?).ok()?;
                if verify_read_proof(&proof, &record, pinned_root) {
                    Some(record)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    #[test]
    fn read_proof_wire_round_trip_is_lossless() {
        let (db, id, root) = populated_db();
        let (body, proof) = db.chunks().read_with_proof(id.0).unwrap();
        assert!(proof.levels.len() >= 2, "tree too shallow");
        let encoded = proof.encode();
        let decoded = ReadProof::decode(&encoded).unwrap();
        assert_eq!(decoded, proof, "decode(encode(p)) must equal p");
        assert_eq!(decoded.encode(), encoded, "re-encoding must be stable");
        assert!(verify_read_proof(&decoded, &body, &root));
        // Every truncation of the wire form must fail to decode — a
        // shortened proof can never pass for a complete one.
        for len in 0..encoded.len() {
            assert!(
                ReadProof::decode(&encoded[..len]).is_err(),
                "truncation to {len} bytes decoded"
            );
        }
    }

    #[test]
    fn framed_response_single_byte_tamper_sweep() {
        let (db, id, root) = populated_db();
        let mut session = db.session("prover");
        let response = session.dispatch(&tdb::Command::GetWithProof(id));
        let envelope = wire::encode_response(42, wire::health::LIVE, "", &response);
        let mut frame = Vec::new();
        wire::write_frame(&mut frame, &envelope).unwrap();

        let original = client_accepts(&frame, 42, &root).expect("intact frame must verify");
        assert!(original.ends_with(b"framed record 4"));

        // Flip low, high, and all bits of every byte of the frame —
        // length prefix, request id, health stamp, record, proof, and
        // embedded root alike. The client must either reject the frame
        // outright or still extract the original record (flips confined
        // to advisory bytes it does not trust anyway).
        for i in 0..frame.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut tampered = frame.clone();
                tampered[i] ^= mask;
                if let Some(record) = client_accepts(&tampered, 42, &root) {
                    assert_eq!(
                        record, original,
                        "byte {i} flipped with {mask:#04x} yielded a different record"
                    );
                }
            }
        }
    }
}
