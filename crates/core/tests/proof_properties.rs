//! Read-proof properties at the chunk-store level: every proof verifies
//! against the snapshot root (dirty tree or not), proofs bind id and body,
//! and the effective root matches the persisted root right after a
//! checkpoint.

use std::sync::Arc;

use tdb_core::params::CryptoParams;
use tdb_core::proof::{verify_read_proof, ProofLevel, ReadProof};
use tdb_core::slot_tree;
use tdb_core::store::{ChunkStore, ChunkStoreConfig, CommitOp, TrustedBackend, ValidationMode};
use tdb_core::{ChunkId, PartitionId};
use tdb_crypto::{CipherKind, HashKind, HashValue, SecretKey};
use tdb_storage::{CounterOverTrusted, MemStore, MemTrustedStore};

fn config() -> ChunkStoreConfig {
    ChunkStoreConfig {
        fanout: 4,
        segment_size: 8192,
        validation: ValidationMode::Counter {
            delta_ut: 3,
            delta_tu: 0,
        },
        // Keep every map update buffered so proofs exercise the dirty
        // (effective) tree, not the checkpointed one.
        checkpoint_threshold: 100_000,
        ..ChunkStoreConfig::default()
    }
}

fn store() -> ChunkStore {
    let untrusted = Arc::new(MemStore::new());
    let counter = Arc::new(CounterOverTrusted::new(Arc::new(MemTrustedStore::new(16))));
    ChunkStore::create(
        untrusted,
        TrustedBackend::Counter(counter),
        SecretKey::random(24),
        config(),
    )
    .unwrap()
}

fn setup(store: &ChunkStore, chunks: usize) -> (PartitionId, Vec<ChunkId>) {
    let p = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: CryptoParams::generate(CipherKind::Des, HashKind::Sha1),
        }])
        .unwrap();
    let mut ids = Vec::new();
    for i in 0..chunks {
        let c = store.allocate_chunk(p).unwrap();
        store
            .commit(vec![CommitOp::WriteChunk {
                id: c,
                bytes: format!("chunk body {i}").into_bytes(),
            }])
            .unwrap();
        ids.push(c);
    }
    (p, ids)
}

#[test]
fn every_proof_verifies_against_snapshot_root() {
    let store = store();
    // 20 chunks at fanout 4: tree height ≥ 3, all map levels dirty.
    let (p, ids) = setup(&store, 20);
    let root = store.snapshot_root(p).unwrap();
    for id in &ids {
        let (body, proof) = store.read_with_proof(*id).unwrap();
        assert!(
            verify_read_proof(&proof, &body, &root),
            "proof for {id} failed against the snapshot root"
        );
        assert_eq!(proof.root, root, "proof embeds a different root for {id}");
    }
}

#[test]
fn proofs_survive_encode_decode() {
    let store = store();
    let (p, ids) = setup(&store, 6);
    let root = store.snapshot_root(p).unwrap();
    let (body, proof) = store.read_with_proof(ids[3]).unwrap();
    let wire = proof.encode();
    let back = ReadProof::decode(&wire).unwrap();
    assert_eq!(back, proof);
    assert!(verify_read_proof(&back, &body, &root));
}

#[test]
fn effective_root_matches_persisted_root_after_checkpoint() {
    let store = store();
    let (p, ids) = setup(&store, 9);
    let before = store.snapshot_root(p).unwrap();
    store.checkpoint().unwrap();
    let after = store.snapshot_root(p).unwrap();
    // A checkpoint relocates map chunks, so the digest changes…
    assert_ne!(before, after);
    // …but proofs extracted now verify against the new root, and the
    // clean tree needs no effective fix-ups.
    for id in &ids {
        let (body, proof) = store.read_with_proof(*id).unwrap();
        assert!(verify_read_proof(&proof, &body, &after));
    }
}

#[test]
fn proof_does_not_transfer_to_other_ids_or_bodies() {
    let store = store();
    let (p, ids) = setup(&store, 8);
    let root = store.snapshot_root(p).unwrap();
    let (body_a, proof_a) = store.read_with_proof(ids[0]).unwrap();
    let (body_b, mut proof_b) = store.read_with_proof(ids[1]).unwrap();
    // The right pairs verify.
    assert!(verify_read_proof(&proof_a, &body_a, &root));
    assert!(verify_read_proof(&proof_b, &body_b, &root));
    // A proof cannot vouch for another chunk's body.
    assert!(!verify_read_proof(&proof_a, &body_b, &root));
    // Re-labeling a proof with a different id fails the slot binding.
    proof_b.id = ids[0];
    assert!(!verify_read_proof(&proof_b, &body_b, &root));
    // A stale root rejects current proofs.
    store
        .commit(vec![CommitOp::WriteChunk {
            id: ids[0],
            bytes: b"updated".to_vec(),
        }])
        .unwrap();
    let new_root = store.snapshot_root(p).unwrap();
    assert_ne!(root, new_root);
    let (new_body, new_proof) = store.read_with_proof(ids[0]).unwrap();
    assert!(verify_read_proof(&new_proof, &new_body, &new_root));
    assert!(!verify_read_proof(&new_proof, &new_body, &root));
}

/// A proof is attacker-supplied bytes. Extreme `fanout`, `slot`, level
/// and sibling counts must make verification return `false`, never size
/// an allocation by the claim: a 75-byte proof with `fanout = u32::MAX`,
/// one 8-byte level and `slot` equal to the rank used to abort the
/// verifying process trying to reserve 240 GB for the map chunk it
/// claimed. Decoding refuses a level shorter than an honest one can be
/// (its slot, leaf length, sibling count and one descriptor).
#[test]
fn hostile_proof_shapes_fail_without_allocating_by_the_claim() {
    let store = store();
    let (p, ids) = setup(&store, 6);
    let root = store.snapshot_root(p).unwrap();
    let (body, honest) = store.read_with_proof(ids[5]).unwrap();
    assert!(verify_read_proof(&honest, &body, &root));
    let rank = honest.id.pos.rank as usize;
    let sibling = HashValue::new(&[0x42; 20]);
    for fanout in [1, 2, 3, 5, 1 << 16, u32::MAX / 2, u32::MAX - 1, u32::MAX] {
        for slot in [0, 1, rank, rank % fanout as usize, usize::MAX] {
            for count in [1, 2, 64, 65] {
                for len in [0, 8, 37 * fanout.min(8) as usize] {
                    for siblings in [0, 1, 6, 40] {
                        let proof = ReadProof {
                            fanout,
                            levels: vec![
                                ProofLevel {
                                    slot,
                                    leaf: vec![0; len],
                                    siblings: vec![sibling; siblings],
                                };
                                count
                            ],
                            ..honest.clone()
                        };
                        assert!(
                            !verify_read_proof(&proof, &body, &root),
                            "fanout {fanout} slot {slot} levels {count}x{len} B \
                             with {siblings} siblings verified"
                        );
                        match ReadProof::decode(&proof.encode()) {
                            Ok(wire) => assert!(!verify_read_proof(&wire, &body, &root)),
                            Err(_) => assert!(12 + len + 20 * siblings < 12 + 37),
                        }
                    }
                }
            }
        }
    }
    // The honest levels under a claimed fanout they do not have.
    for fanout in [2, 8, u32::MAX] {
        let proof = ReadProof {
            fanout,
            ..honest.clone()
        };
        assert!(!verify_read_proof(&proof, &body, &root), "fanout {fanout}");
    }
}

#[test]
fn single_chunk_tree_has_one_level() {
    let store = store();
    let (p, ids) = setup(&store, 1);
    let root = store.snapshot_root(p).unwrap();
    let (body, proof) = store.read_with_proof(ids[0]).unwrap();
    // Leaders keep tree height ≥ 1, so even one chunk sits under a root
    // map chunk and the digest is the root of that chunk's slot tree: its
    // one level's leaf folded with its siblings.
    assert_eq!(proof.levels.len(), 1);
    let level = &proof.levels[0];
    let leaf = level.slot / slot_tree::LEAF_SLOTS;
    let digest = slot_tree::leaf_digest(proof.hash, &level.leaf);
    let leaves = slot_tree::leaf_count(proof.fanout as usize);
    assert_eq!(
        slot_tree::fold(proof.hash, leaves, leaf, digest, &level.siblings),
        Some(root)
    );
    assert!(verify_read_proof(&proof, &body, &root));
}

#[test]
fn null_hash_partitions_refuse_proofs() {
    let store = store();
    let p = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: CryptoParams::generate(CipherKind::Null, HashKind::Null),
        }])
        .unwrap();
    let c = store.allocate_chunk(p).unwrap();
    store
        .commit(vec![CommitOp::WriteChunk {
            id: c,
            bytes: b"unprotected".to_vec(),
        }])
        .unwrap();
    let root = store.snapshot_root(p).unwrap();
    let (body, proof) = store.read_with_proof(c).unwrap();
    // Nothing to prove without a collision-resistant hash.
    assert!(!verify_read_proof(&proof, &body, &root));
}

/// A two-level proof at the default fanout (64) under SHA-256, the shape a
/// network client verifies: every flipped byte of the encoded proof and of
/// the record, and every leaf or sibling swapped in from another chunk's
/// proof, is rejected. A flip in the partition field decodes to a proof
/// for another chunk, which callers compare against the id they asked
/// for; every other flip fails to decode or to verify.
#[test]
fn a_two_level_proof_rejects_every_flip_and_every_swap() {
    let untrusted = Arc::new(MemStore::new());
    let counter = Arc::new(CounterOverTrusted::new(Arc::new(MemTrustedStore::new(16))));
    let store = ChunkStore::create(
        untrusted,
        TrustedBackend::Counter(counter),
        SecretKey::random(24),
        ChunkStoreConfig {
            checkpoint_threshold: 100_000,
            ..ChunkStoreConfig::default()
        },
    )
    .unwrap();
    let p = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: CryptoParams::generate(CipherKind::Aes128, HashKind::Sha256),
        }])
        .unwrap();
    let mut ids = Vec::new();
    for i in 0..80 {
        let c = store.allocate_chunk(p).unwrap();
        store
            .commit(vec![CommitOp::WriteChunk {
                id: c,
                bytes: format!("record {i} {}", "z".repeat(i)).into_bytes(),
            }])
            .unwrap();
        ids.push(c);
    }
    let root = store.snapshot_root(p).unwrap();
    let proven: Vec<(Vec<u8>, ReadProof)> = [3, 30, 70]
        .iter()
        .map(|&i| store.read_with_proof(ids[i]).unwrap())
        .collect();
    let (body, proof) = &proven[0];
    assert_eq!(proof.fanout, 64);
    assert_eq!(proof.levels.len(), 2);
    assert!(verify_read_proof(proof, body, &root));

    let encoded = proof.encode();
    for i in 0..encoded.len() {
        for flip in [0x01, 0x80, 0xFF] {
            let mut bytes = encoded.clone();
            bytes[i] ^= flip;
            let Ok(decoded) = ReadProof::decode(&bytes) else {
                continue;
            };
            if i < 4 {
                assert_ne!(decoded.id, proof.id, "partition byte {i}");
            } else {
                assert!(
                    !verify_read_proof(&decoded, body, &root),
                    "proof byte {i} ^ {flip:#x} verified"
                );
            }
        }
    }
    for i in 0..body.len() {
        let mut flipped = body.clone();
        flipped[i] ^= 0x01;
        assert!(
            !verify_read_proof(proof, &flipped, &root),
            "record byte {i}"
        );
    }

    // Leaves and siblings of the same level from the other proofs: one in
    // the same map chunk (a different leaf), one in the next.
    let mut swaps = 0;
    for (_, other) in &proven[1..] {
        for level in 0..2 {
            let (mine, theirs) = (&proof.levels[level], &other.levels[level]);
            if mine.leaf != theirs.leaf {
                let mut swapped = proof.clone();
                swapped.levels[level].leaf = theirs.leaf.clone();
                assert!(
                    !verify_read_proof(&swapped, body, &root),
                    "level {level} leaf"
                );
                swaps += 1;
            }
            for (k, sibling) in theirs.siblings.iter().enumerate() {
                if k < mine.siblings.len() && mine.siblings[k] != *sibling {
                    let mut swapped = proof.clone();
                    swapped.levels[level].siblings[k] = *sibling;
                    assert!(
                        !verify_read_proof(&swapped, body, &root),
                        "level {level} sibling {k}"
                    );
                    swaps += 1;
                }
            }
        }
    }
    assert!(swaps >= 4, "only {swaps} swaps changed a byte");
}
