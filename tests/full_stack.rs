//! Full-stack integration: collections + objects + chunk store + backups
//! working together through the `TrustedDb` facade, across restarts.

use std::any::Any;
use std::sync::Arc;

use tdb::{
    ApproveAll, BackupSpec, IndexKey, IndexKind, StoredObject, TrustedBackend, TrustedDb,
    TrustedDbBuilder,
};
use tdb_crypto::SecretKey;
use tdb_storage::{
    CounterOverTrusted, MemArchive, MemStore, MemTrustedStore, SharedUntrusted, TrustedStore,
};

#[derive(Debug, Clone, PartialEq)]
struct Note {
    author: String,
    body: String,
    revision: u32,
}

const NOTE_TAG: u32 = 77;

impl StoredObject for Note {
    fn type_tag(&self) -> u32 {
        NOTE_TAG
    }
    fn pickle(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for s in [&self.author, &self.body] {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        out.extend_from_slice(&self.revision.to_le_bytes());
        out
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn unpickle_note(b: &[u8]) -> tdb_object::errors::Result<Arc<dyn StoredObject>> {
    let mut off = 0usize;
    let mut get_str = || {
        let n = u32::from_le_bytes(b[off..off + 4].try_into().unwrap()) as usize;
        let s = String::from_utf8(b[off + 4..off + 4 + n].to_vec()).unwrap();
        off += 4 + n;
        s
    };
    let author = get_str();
    let body = get_str();
    let revision = u32::from_le_bytes(b[off..off + 4].try_into().unwrap());
    Ok(Arc::new(Note {
        author,
        body,
        revision,
    }))
}

fn note_by_author(o: &dyn StoredObject) -> Option<Vec<u8>> {
    o.as_any()
        .downcast_ref::<Note>()
        .map(|n| IndexKey::new().str(&n.author).into_bytes())
}

struct Platform {
    secret: SecretKey,
    untrusted: Arc<MemStore>,
    register: Arc<MemTrustedStore>,
    archive: Arc<MemArchive>,
}

impl Platform {
    fn new() -> Platform {
        Platform {
            secret: SecretKey::random(24),
            untrusted: Arc::new(MemStore::new()),
            register: Arc::new(MemTrustedStore::new(64)),
            archive: Arc::new(MemArchive::new()),
        }
    }

    fn builder(&self) -> TrustedDbBuilder {
        TrustedDbBuilder::new()
            .secret(self.secret.clone())
            .register_type(NOTE_TAG, unpickle_note)
            .register_extractor("note_by_author", note_by_author)
    }

    fn backend(&self) -> TrustedBackend {
        TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(
            Arc::clone(&self.register) as Arc<dyn TrustedStore>,
        )))
    }

    fn create(&self) -> TrustedDb {
        self.builder()
            .create(
                Arc::clone(&self.untrusted) as SharedUntrusted,
                self.backend(),
                self.archive.clone(),
            )
            .expect("create")
    }

    fn open(&self) -> tdb::Result<TrustedDb> {
        self.builder().open(
            Arc::clone(&self.untrusted) as SharedUntrusted,
            self.backend(),
            self.archive.clone(),
        )
    }
}

#[test]
fn collections_survive_restart_and_recovery() {
    let platform = Platform::new();
    let coll = {
        let db = platform.create();
        let coll = db
            .run(|tx| {
                let coll = db
                    .collections()
                    .create_collection(tx, db.partition(), "notes")?;
                db.collections().add_index(
                    tx,
                    coll,
                    "author",
                    "note_by_author",
                    IndexKind::Sorted,
                )?;
                Ok(coll)
            })
            .unwrap();
        for i in 0..40u32 {
            db.run(|tx| {
                db.collections().insert(
                    tx,
                    coll,
                    Arc::new(Note {
                        author: format!("author-{}", i % 4),
                        body: format!("body {i}"),
                        revision: 1,
                    }),
                )
            })
            .unwrap();
        }
        // No clean close: recovery must roll the residual log forward.
        coll
    };
    let db = platform.open().expect("recovery");
    db.run(|tx| {
        assert_eq!(db.collections().len(tx, coll)?, 40);
        let key = IndexKey::new().str("author-2").into_bytes();
        let hits = db.collections().lookup(tx, coll, "author", &key)?;
        assert_eq!(hits.len(), 10);
        for id in hits {
            let note = tx.get::<Note>(id)?;
            assert_eq!(note.author, "author-2");
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn backup_restore_through_facade_preserves_collections() {
    let platform = Platform::new();
    let db = platform.create();
    let coll = db
        .run(|tx| {
            let coll = db
                .collections()
                .create_collection(tx, db.partition(), "notes")?;
            db.collections()
                .add_index(tx, coll, "author", "note_by_author", IndexKind::Sorted)?;
            Ok(coll)
        })
        .unwrap();
    let ids: Vec<_> = (0..10u32)
        .map(|i| {
            db.run(|tx| {
                db.collections().insert(
                    tx,
                    coll,
                    Arc::new(Note {
                        author: "keeper".into(),
                        body: format!("precious {i}"),
                        revision: 1,
                    }),
                )
            })
            .unwrap()
        })
        .collect();

    let p = db.partition();
    db.backup(
        &[BackupSpec {
            source: p,
            base: None,
        }],
        "snap",
    )
    .unwrap();

    // Vandalize everything through the object store.
    for id in &ids {
        db.run(|tx| {
            tx.put(
                *id,
                Arc::new(Note {
                    author: "vandal".into(),
                    body: "gone".into(),
                    revision: 2,
                }),
            )
        })
        .unwrap();
    }

    db.restore(&["snap.0"], &ApproveAll).unwrap();

    // Collections, indexes, and objects all reflect the backup.
    db.run(|tx| {
        let key = IndexKey::new().str("keeper").into_bytes();
        let hits = db.collections().lookup(tx, coll, "author", &key)?;
        assert_eq!(hits.len(), 10);
        let vandal_key = IndexKey::new().str("vandal").into_bytes();
        assert!(db
            .collections()
            .lookup(tx, coll, "author", &vandal_key)?
            .is_empty());
        for id in &ids {
            assert_eq!(tx.get::<Note>(*id)?.revision, 1);
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn cleaner_runs_under_collection_workload() {
    let platform = Platform::new();
    let db = platform.create();
    let coll = db
        .run(|tx| {
            db.collections()
                .create_collection(tx, db.partition(), "churn")
        })
        .unwrap();
    // Heavy update churn to create obsolete versions.
    let id = db
        .run(|tx| {
            db.collections().insert(
                tx,
                coll,
                Arc::new(Note {
                    author: "a".into(),
                    body: "x".repeat(500),
                    revision: 0,
                }),
            )
        })
        .unwrap();
    for rev in 1..200u32 {
        db.run(|tx| {
            db.collections().update(
                tx,
                coll,
                id,
                Arc::new(Note {
                    author: "a".into(),
                    body: "y".repeat(500),
                    revision: rev,
                }),
            )
        })
        .unwrap();
    }
    db.checkpoint().unwrap();
    let cleaned = db.clean(50).unwrap();
    assert!(cleaned > 0, "churn should leave cleanable segments");
    db.run(|tx| {
        let note = tx.get::<Note>(id)?;
        assert_eq!(note.revision, 199);
        Ok(())
    })
    .unwrap();
    // And everything still recovers.
    drop(db);
    let db = platform.open().unwrap();
    db.run(|tx| {
        assert_eq!(tx.get::<Note>(id)?.revision, 199);
        Ok(())
    })
    .unwrap();
}

#[test]
fn secondary_partition_with_different_cipher() {
    let platform = Platform::new();
    let db = platform.create();
    let fast = db
        .create_partition(tdb::CryptoParams::generate(
            tdb_crypto::CipherKind::Aes128,
            tdb_crypto::HashKind::Sha256,
        ))
        .unwrap();
    let id = db
        .run(|tx| {
            tx.create(
                fast,
                Arc::new(Note {
                    author: "aes".into(),
                    body: "separate keys per partition".into(),
                    revision: 1,
                }),
            )
        })
        .unwrap();
    db.run(|tx| {
        assert_eq!(tx.get::<Note>(id)?.author, "aes");
        Ok(())
    })
    .unwrap();
    drop(db);
    let db = platform.open().unwrap();
    db.run(|tx| {
        assert_eq!(tx.get::<Note>(id)?.author, "aes");
        Ok(())
    })
    .unwrap();
}

/// The system partition holds the partition map (§5.2): wherever a caller
/// names a partition, it is refused with the error an absent or existing
/// partition gets, and the store stays live and usable afterwards.
#[test]
fn system_partition_is_refused_wherever_a_caller_names_it() {
    use tdb::{ChunkId, Command, CommitOp, PartitionId, Response};
    use tdb_core::CoreError;

    let platform = Platform::new();
    let db = platform.create();
    let chunks = Arc::clone(db.chunks());
    let system = PartitionId::SYSTEM;
    let p = db.partition();
    let no_such = |r: Result<(), CoreError>, what: &str| {
        assert!(
            matches!(r, Err(CoreError::NoSuchPartition(q)) if q == system),
            "{what}: {r:?}"
        );
    };
    no_such(chunks.allocate_chunk(system).map(drop), "allocate_chunk");
    no_such(
        chunks.release_chunk(ChunkId::data(system, 0)),
        "release_chunk",
    );
    no_such(chunks.partition_kinds(system).map(drop), "partition_kinds");
    no_such(chunks.written_ranks(system).map(drop), "written_ranks");
    no_such(chunks.diff(system, p).map(drop), "diff (old)");
    no_such(chunks.diff(p, system).map(drop), "diff (new)");
    assert!(!chunks.partition_exists(system).unwrap());
    no_such(
        chunks.commit(vec![CommitOp::DeallocPartition { id: system }]),
        "DeallocPartition",
    );
    let dst = chunks.allocate_partition().unwrap();
    no_such(
        chunks.commit(vec![CommitOp::CopyPartition { dst, src: system }]),
        "CopyPartition src",
    );
    let exists = |r: Result<(), CoreError>, what: &str| {
        assert!(
            matches!(r, Err(CoreError::PartitionExists(q)) if q == system),
            "{what}: {r:?}"
        );
    };
    exists(
        chunks.commit(vec![CommitOp::CreatePartition {
            id: system,
            params: tdb::CryptoParams::generate(
                tdb_crypto::CipherKind::Aes128,
                tdb_crypto::HashKind::Sha1,
            ),
        }]),
        "CreatePartition",
    );
    exists(
        chunks.commit(vec![CommitOp::CopyPartition {
            dst: system,
            src: p,
        }]),
        "CopyPartition dst",
    );

    let mut session = db.session("boundary");
    let note = Note {
        author: "a".into(),
        body: "b".into(),
        revision: 1,
    };
    let mut record = NOTE_TAG.to_le_bytes().to_vec();
    record.extend(note.pickle());
    for cmd in [
        Command::Create {
            partition: system,
            record: record.clone(),
        },
        Command::CollCreate {
            partition: system,
            name: "system".into(),
        },
    ] {
        let resp = session.dispatch(&cmd);
        assert!(matches!(resp, Response::Error(_)), "{cmd:?}: {resp:?}");
    }

    // Still live, and every refused call left the store usable.
    assert!(chunks.health().is_live());
    let resp = session.dispatch(&Command::Create {
        partition: p,
        record,
    });
    let Response::Id(id) = resp else {
        panic!("create after the refusals: {resp:?}");
    };
    chunks
        .commit(vec![CommitOp::CopyPartition { dst, src: p }])
        .unwrap();
    assert!(chunks.partition_exists(dst).unwrap());
    drop((session, chunks, db));
    let db = platform.open().unwrap();
    db.run(|tx| {
        assert_eq!(*tx.get::<Note>(id)?, note);
        Ok(())
    })
    .unwrap();
}
