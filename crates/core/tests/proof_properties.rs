//! Read-proof properties at the chunk-store level: every proof verifies
//! against the snapshot root (dirty tree or not), proofs bind id and body,
//! and the effective root matches the persisted root right after a
//! checkpoint.

use std::sync::Arc;

use tdb_core::params::CryptoParams;
use tdb_core::proof::{verify_read_proof, ProofLevel, ReadProof};
use tdb_core::store::{ChunkStore, ChunkStoreConfig, CommitOp, TrustedBackend, ValidationMode};
use tdb_core::{ChunkId, PartitionId};
use tdb_crypto::{CipherKind, HashKind, SecretKey};
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

/// A proof is attacker-supplied bytes. Extreme `fanout`, `slot` and level
/// counts must make verification return `false`, never size an allocation
/// by the claim: a 75-byte proof with `fanout = u32::MAX`, one 8-byte level
/// and `slot` equal to the rank used to abort the verifying process trying
/// to reserve 240 GB for the map chunk it claimed.
#[test]
fn hostile_proof_shapes_fail_without_allocating_by_the_claim() {
    let store = store();
    let (p, ids) = setup(&store, 6);
    let root = store.snapshot_root(p).unwrap();
    let (body, honest) = store.read_with_proof(ids[5]).unwrap();
    assert!(verify_read_proof(&honest, &body, &root));
    let rank = honest.id.pos.rank as usize;
    for fanout in [1, 2, 3, 5, 1 << 16, u32::MAX / 2, u32::MAX - 1, u32::MAX] {
        for slot in [0, 1, rank, rank % fanout as usize, usize::MAX] {
            for count in [1, 2, 64, 65] {
                for len in [0, 8, 37 * fanout.min(8) as usize] {
                    let proof = ReadProof {
                        fanout,
                        levels: vec![
                            ProofLevel {
                                body: vec![0; len],
                                slot
                            };
                            count
                        ],
                        ..honest.clone()
                    };
                    assert!(
                        !verify_read_proof(&proof, &body, &root),
                        "fanout {fanout} slot {slot} levels {count}x{len} B verified"
                    );
                    let wire = ReadProof::decode(&proof.encode()).unwrap();
                    assert!(!verify_read_proof(&wire, &body, &root));
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
    // map chunk and the digest is the root map body's hash.
    assert_eq!(proof.levels.len(), 1);
    assert_eq!(proof.hash.hash(&proof.levels[0].body), root);
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
