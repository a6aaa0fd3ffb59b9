//! Integration tests for the backup store (§6): snapshot-consistent
//! backups, incremental chains, restore constraints, and validation.

use std::sync::Arc;

use tdb_core::backup::{ApproveAll, BackupDescriptor, BackupSpec, BackupStore, RestorePolicy};
use tdb_core::store::{ChunkStore, ChunkStoreConfig, CommitOp, TrustedBackend, ValidationMode};
use tdb_core::{ChunkId, CoreError, CryptoParams, PartitionId};
use tdb_crypto::{CipherKind, HashKind, SecretKey};
use tdb_storage::{CounterOverTrusted, MemArchive, MemStore, MemTrustedStore, SharedUntrusted};

fn new_store() -> Arc<ChunkStore> {
    let config = ChunkStoreConfig {
        fanout: 4,
        segment_size: 8192,
        validation: ValidationMode::Counter {
            delta_ut: 5,
            delta_tu: 0,
        },
        ..ChunkStoreConfig::default()
    };
    Arc::new(
        ChunkStore::create(
            Arc::new(MemStore::new()) as SharedUntrusted,
            TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(Arc::new(
                MemTrustedStore::new(64),
            )))),
            SecretKey::random(24),
            config,
        )
        .unwrap(),
    )
}

fn make_partition(store: &ChunkStore) -> PartitionId {
    let p = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: CryptoParams::generate(CipherKind::Des, HashKind::Sha1),
        }])
        .unwrap();
    p
}

fn write_one(store: &ChunkStore, p: PartitionId, data: &[u8]) -> ChunkId {
    let c = store.allocate_chunk(p).unwrap();
    store
        .commit(vec![CommitOp::WriteChunk {
            id: c,
            bytes: data.to_vec(),
        }])
        .unwrap();
    c
}

#[test]
fn full_backup_restore_roundtrip() {
    let store = new_store();
    let archive = Arc::new(MemArchive::new());
    let backups = BackupStore::new(Arc::clone(&store), archive.clone());

    let p = make_partition(&store);
    let ids: Vec<ChunkId> = (0..10)
        .map(|i| write_one(&store, p, format!("record {i}").as_bytes()))
        .collect();

    let info = backups
        .backup(
            &[BackupSpec {
                source: p,
                base: None,
            }],
            "full-1",
        )
        .unwrap();
    assert_eq!(info.names, vec!["full-1.0"]);

    // Wreck the live partition, then restore.
    for c in &ids {
        store
            .commit(vec![CommitOp::WriteChunk {
                id: *c,
                bytes: b"corrupted by app bug".to_vec(),
            }])
            .unwrap();
    }
    let report = backups.restore(&["full-1.0"], &ApproveAll).unwrap();
    assert_eq!(report.restored, vec![p]);
    assert_eq!(report.chunks_written, 10);
    for (i, c) in ids.iter().enumerate() {
        assert_eq!(store.read(*c).unwrap(), format!("record {i}").as_bytes());
    }
}

#[test]
fn incremental_chain_roundtrip() {
    let store = new_store();
    let archive = Arc::new(MemArchive::new());
    let backups = BackupStore::new(Arc::clone(&store), archive.clone());

    let p = make_partition(&store);
    let a = write_one(&store, p, b"alpha v1");
    let b = write_one(&store, p, b"beta v1");

    // Full backup.
    let full = backups
        .backup(
            &[BackupSpec {
                source: p,
                base: None,
            }],
            "set-full",
        )
        .unwrap();
    let base1 = full.snapshots[0];

    // Mutate: update a, add c, then delete b. Allocating c first keeps its
    // rank distinct from b's (a later allocation would reuse b's freed id,
    // which is legitimate but would muddy this test's assertions).
    store
        .commit(vec![CommitOp::WriteChunk {
            id: a,
            bytes: b"alpha v2".to_vec(),
        }])
        .unwrap();
    let c = write_one(&store, p, b"gamma v1");
    store
        .commit(vec![CommitOp::DeallocChunk { id: b }])
        .unwrap();

    // Incremental against the full backup's snapshot.
    let incr1 = backups
        .backup(
            &[BackupSpec {
                source: p,
                base: Some(base1),
            }],
            "set-incr1",
        )
        .unwrap();
    let base2 = incr1.snapshots[0];

    // More mutations and a second incremental.
    store
        .commit(vec![CommitOp::WriteChunk {
            id: c,
            bytes: b"gamma v2".to_vec(),
        }])
        .unwrap();
    backups
        .backup(
            &[BackupSpec {
                source: p,
                base: Some(base2),
            }],
            "set-incr2",
        )
        .unwrap();

    // Destroy the live partition entirely.
    store
        .commit(vec![CommitOp::DeallocPartition { id: p }])
        .unwrap();
    assert!(!store.partition_exists(p).unwrap());

    // Restore the whole chain (order of names should not matter).
    let report = backups
        .restore(&["set-incr2.0", "set-full.0", "set-incr1.0"], &ApproveAll)
        .unwrap();
    assert_eq!(report.restored, vec![p]);
    assert_eq!(store.read(a).unwrap(), b"alpha v2");
    assert!(store.read(b).is_err(), "b was deallocated before incr1");
    assert_eq!(store.read(c).unwrap(), b"gamma v2");
}

#[test]
fn missing_link_rejected() {
    let store = new_store();
    let archive = Arc::new(MemArchive::new());
    let backups = BackupStore::new(Arc::clone(&store), archive.clone());

    let p = make_partition(&store);
    let a = write_one(&store, p, b"v1");

    let full = backups
        .backup(
            &[BackupSpec {
                source: p,
                base: None,
            }],
            "b-full",
        )
        .unwrap();
    store
        .commit(vec![CommitOp::WriteChunk {
            id: a,
            bytes: b"v2".to_vec(),
        }])
        .unwrap();
    let incr1 = backups
        .backup(
            &[BackupSpec {
                source: p,
                base: Some(full.snapshots[0]),
            }],
            "b-incr1",
        )
        .unwrap();
    store
        .commit(vec![CommitOp::WriteChunk {
            id: a,
            bytes: b"v3".to_vec(),
        }])
        .unwrap();
    backups
        .backup(
            &[BackupSpec {
                source: p,
                base: Some(incr1.snapshots[0]),
            }],
            "b-incr2",
        )
        .unwrap();

    // Restoring full + incr2 without incr1 violates "no missing links".
    let err = backups
        .restore(&["b-full.0", "b-incr2.0"], &ApproveAll)
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, CoreError::RestoreConstraint(_)),
        "got {err:?}"
    );

    // Incremental alone (no full) is also rejected.
    let err = backups
        .restore(&["b-incr1.0"], &ApproveAll)
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, CoreError::RestoreConstraint(_)));
}

#[test]
fn backup_set_completeness_enforced() {
    let store = new_store();
    let archive = Arc::new(MemArchive::new());
    let backups = BackupStore::new(Arc::clone(&store), archive.clone());

    let p = make_partition(&store);
    let q = make_partition(&store);
    write_one(&store, p, b"p data");
    write_one(&store, q, b"q data");

    backups
        .backup(
            &[
                BackupSpec {
                    source: p,
                    base: None,
                },
                BackupSpec {
                    source: q,
                    base: None,
                },
            ],
            "pair",
        )
        .unwrap();

    // Restoring only one member of the two-partition set is rejected
    // (§6.3: "the remaining partition backups in the same backup set must
    // also be restored").
    let err = backups
        .restore(&["pair.0"], &ApproveAll)
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, CoreError::RestoreConstraint(_)),
        "got {err:?}"
    );

    // Both together restore fine.
    backups.restore(&["pair.0", "pair.1"], &ApproveAll).unwrap();
}

#[test]
fn multi_partition_snapshot_is_consistent() {
    let store = new_store();
    let archive = Arc::new(MemArchive::new());
    let backups = BackupStore::new(Arc::clone(&store), archive.clone());

    let p = make_partition(&store);
    let q = make_partition(&store);
    let cp = write_one(&store, p, b"p v1");
    let cq = write_one(&store, q, b"q v1");

    backups
        .backup(
            &[
                BackupSpec {
                    source: p,
                    base: None,
                },
                BackupSpec {
                    source: q,
                    base: None,
                },
            ],
            "consistent",
        )
        .unwrap();

    store
        .commit(vec![
            CommitOp::WriteChunk {
                id: cp,
                bytes: b"p v2".to_vec(),
            },
            CommitOp::WriteChunk {
                id: cq,
                bytes: b"q v2".to_vec(),
            },
        ])
        .unwrap();

    backups
        .restore(&["consistent.0", "consistent.1"], &ApproveAll)
        .unwrap();
    assert_eq!(store.read(cp).unwrap(), b"p v1");
    assert_eq!(store.read(cq).unwrap(), b"q v1");
}

#[test]
fn tampered_backup_rejected() {
    let store = new_store();
    let archive = Arc::new(MemArchive::new());
    let backups = BackupStore::new(Arc::clone(&store), archive.clone());

    let p = make_partition(&store);
    write_one(&store, p, b"pristine");
    backups
        .backup(
            &[BackupSpec {
                source: p,
                base: None,
            }],
            "t",
        )
        .unwrap();

    let size = archive.size_of("t.0").unwrap();
    // Flip a byte somewhere in the middle (chunk data region).
    assert!(archive.tamper("t.0", size / 2, 0x80));
    let err = backups
        .restore(&["t.0"], &ApproveAll)
        .map(|_| ())
        .unwrap_err();
    assert!(err.is_tamper(), "got {err:?}");
}

#[test]
fn truncated_backup_rejected_by_checksum() {
    let store = new_store();
    let archive = Arc::new(MemArchive::new());
    let backups = BackupStore::new(Arc::clone(&store), archive.clone());

    let p = make_partition(&store);
    write_one(&store, p, b"whole");
    backups
        .backup(
            &[BackupSpec {
                source: p,
                base: None,
            }],
            "short",
        )
        .unwrap();

    let size = archive.size_of("short.0").unwrap();
    archive.truncate("short.0", size - 10);
    let err = backups
        .restore(&["short.0"], &ApproveAll)
        .map(|_| ())
        .unwrap_err();
    assert!(err.is_tamper(), "got {err:?}");
}

#[test]
fn restore_policy_can_deny() {
    struct DenyOld;
    impl RestorePolicy for DenyOld {
        fn approve(&self, descs: &[BackupDescriptor]) -> Result<(), String> {
            // A trusted program "may deny frequent restoring or restoring
            // of old backups" (§6.3).
            if descs.iter().any(|d| d.created_unix < u64::MAX) {
                Err("backup too old per policy".into())
            } else {
                Ok(())
            }
        }
    }

    let store = new_store();
    let archive = Arc::new(MemArchive::new());
    let backups = BackupStore::new(Arc::clone(&store), archive.clone());
    let p = make_partition(&store);
    let c = write_one(&store, p, b"current");
    backups
        .backup(
            &[BackupSpec {
                source: p,
                base: None,
            }],
            "denied",
        )
        .unwrap();
    store
        .commit(vec![CommitOp::WriteChunk {
            id: c,
            bytes: b"newer".to_vec(),
        }])
        .unwrap();

    let err = backups
        .restore(&["denied.0"], &DenyOld)
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, CoreError::RestoreDenied(_)));
    // Nothing was rolled back.
    assert_eq!(store.read(c).unwrap(), b"newer");
}

#[test]
fn incremental_backup_is_smaller_than_full() {
    let store = new_store();
    let archive = Arc::new(MemArchive::new());
    let backups = BackupStore::new(Arc::clone(&store), archive.clone());

    let p = make_partition(&store);
    let mut ids = Vec::new();
    for i in 0..50u32 {
        ids.push(write_one(&store, p, &vec![i as u8; 400]));
    }
    let full = backups
        .backup(
            &[BackupSpec {
                source: p,
                base: None,
            }],
            "size-full",
        )
        .unwrap();
    // Touch just one chunk.
    store
        .commit(vec![CommitOp::WriteChunk {
            id: ids[0],
            bytes: vec![0xFF; 400],
        }])
        .unwrap();
    backups
        .backup(
            &[BackupSpec {
                source: p,
                base: Some(full.snapshots[0]),
            }],
            "size-incr",
        )
        .unwrap();

    let full_size = archive.size_of("size-full.0").unwrap();
    let incr_size = archive.size_of("size-incr.0").unwrap();
    assert!(
        incr_size * 10 < full_size,
        "incremental ({incr_size} B) should be far smaller than full ({full_size} B)"
    );
}

#[test]
fn snapshots_reported_for_reuse_as_bases() {
    let store = new_store();
    let archive = Arc::new(MemArchive::new());
    let backups = BackupStore::new(Arc::clone(&store), archive.clone());
    let p = make_partition(&store);
    write_one(&store, p, b"x");
    let info = backups
        .backup(
            &[BackupSpec {
                source: p,
                base: None,
            }],
            "snaps",
        )
        .unwrap();
    assert_eq!(info.snapshots.len(), 1);
    // The snapshot exists and holds the backed-up state.
    assert!(store.partition_exists(info.snapshots[0]).unwrap());
    assert_eq!(
        store.read(ChunkId::data(info.snapshots[0], 0)).unwrap(),
        b"x"
    );
    // Old snapshots can be deallocated when no longer needed as bases.
    store
        .commit(vec![CommitOp::DeallocPartition {
            id: info.snapshots[0],
        }])
        .unwrap();
}

/// A restore over a live partition drops it and creates it again in one
/// commit set. After a crash, recovery leaves the restored partition, not
/// an absent one.
#[test]
fn a_restore_over_a_live_partition_survives_a_crash() {
    let config = ChunkStoreConfig {
        fanout: 4,
        segment_size: 8192,
        ..ChunkStoreConfig::default()
    };
    let untrusted = Arc::new(MemStore::new());
    let trusted = Arc::new(MemTrustedStore::new(64));
    let backend =
        || TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(Arc::clone(&trusted) as _)));
    let secret = SecretKey::new(vec![3; 24]);
    let store = Arc::new(
        ChunkStore::create(
            Arc::clone(&untrusted) as SharedUntrusted,
            backend(),
            secret.clone(),
            config.clone(),
        )
        .unwrap(),
    );
    let backups = BackupStore::new(Arc::clone(&store), Arc::new(MemArchive::new()));
    let p = make_partition(&store);
    let ids: Vec<ChunkId> = (0..5)
        .map(|i| write_one(&store, p, format!("record {i}").as_bytes()))
        .collect();
    let spec = BackupSpec {
        source: p,
        base: None,
    };
    backups.backup(&[spec], "live").unwrap();
    for c in &ids {
        store
            .commit(vec![CommitOp::WriteChunk {
                id: *c,
                bytes: b"overwritten".to_vec(),
            }])
            .unwrap();
    }
    backups.restore(&["live.0"], &ApproveAll).unwrap();
    drop(backups);
    drop(store);
    let reopened =
        ChunkStore::open(untrusted as SharedUntrusted, backend(), secret, config).unwrap();
    assert!(reopened.partition_exists(p).unwrap());
    for (i, c) in ids.iter().enumerate() {
        assert_eq!(reopened.read(*c).unwrap(), format!("record {i}").as_bytes());
    }
}
