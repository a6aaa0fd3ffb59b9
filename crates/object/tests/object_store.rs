//! Integration tests for the object store: typed transactional access,
//! no-steal buffering with one write per object, atomicity, isolation, and
//! cache behaviour.

use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tdb_core::store::{ChunkStore, ChunkStoreConfig, CommitOp, TrustedBackend, ValidationMode};
use tdb_core::{CryptoParams, PartitionId};
use tdb_crypto::{CipherKind, HashKind, SecretKey};
use tdb_object::errors::ObjectError;
use tdb_object::pickle::{StoredObject, TypeRegistry};
use tdb_object::{ObjectId, ObjectStore, ObjectStoreConfig, Tx};
use tdb_storage::{
    CounterOverTrusted, FaultKind, FaultPlan, MemStore, MemTrustedStore, SharedUntrusted, SimDevice,
};

// A tiny application schema: accounts and licenses.

#[derive(Debug, PartialEq)]
struct Account {
    owner: String,
    balance: i64,
}

impl StoredObject for Account {
    fn type_tag(&self) -> u32 {
        1
    }
    fn pickle(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.owner.len() as u32).to_le_bytes());
        out.extend_from_slice(self.owner.as_bytes());
        out.extend_from_slice(&self.balance.to_le_bytes());
        out
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn unpickle_account(body: &[u8]) -> tdb_object::errors::Result<Arc<dyn StoredObject>> {
    let n = u32::from_le_bytes(
        body.get(..4)
            .ok_or_else(|| ObjectError::BadPickle("account".into()))?
            .try_into()
            .unwrap(),
    ) as usize;
    let owner = String::from_utf8(body[4..4 + n].to_vec())
        .map_err(|_| ObjectError::BadPickle("owner".into()))?;
    let balance = i64::from_le_bytes(body[4 + n..4 + n + 8].try_into().unwrap());
    Ok(Arc::new(Account { owner, balance }))
}

/// An [`Account`] that counts how often it is pickled.
struct CountedAccount {
    account: Account,
    pickles: Arc<AtomicUsize>,
}

impl StoredObject for CountedAccount {
    fn type_tag(&self) -> u32 {
        self.account.type_tag()
    }
    fn pickle(&self) -> Vec<u8> {
        self.pickles.fetch_add(1, Ordering::Relaxed);
        self.account.pickle()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[derive(Debug, PartialEq)]
struct License {
    good: String,
    uses_left: u32,
}

impl StoredObject for License {
    fn type_tag(&self) -> u32 {
        2
    }
    fn pickle(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.good.len() as u32).to_le_bytes());
        out.extend_from_slice(self.good.as_bytes());
        out.extend_from_slice(&self.uses_left.to_le_bytes());
        out
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn unpickle_license(body: &[u8]) -> tdb_object::errors::Result<Arc<dyn StoredObject>> {
    let n = u32::from_le_bytes(body[..4].try_into().unwrap()) as usize;
    let good = String::from_utf8(body[4..4 + n].to_vec())
        .map_err(|_| ObjectError::BadPickle("good".into()))?;
    let uses_left = u32::from_le_bytes(body[4 + n..4 + n + 4].try_into().unwrap());
    Ok(Arc::new(License { good, uses_left }))
}

fn registry() -> TypeRegistry {
    let mut reg = TypeRegistry::new();
    reg.register(1, unpickle_account);
    reg.register(2, unpickle_license);
    reg
}

struct Fixture {
    store: Arc<ObjectStore>,
    partition: PartitionId,
}

fn fixture() -> Fixture {
    fixture_over(Arc::new(MemStore::new()))
}

fn fixture_over(untrusted: SharedUntrusted) -> Fixture {
    let chunks = Arc::new(
        ChunkStore::create(
            untrusted,
            TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(Arc::new(
                MemTrustedStore::new(64),
            )))),
            SecretKey::random(24),
            ChunkStoreConfig {
                fanout: 8,
                segment_size: 16384,
                validation: ValidationMode::Counter {
                    delta_ut: 5,
                    delta_tu: 0,
                },
                ..ChunkStoreConfig::default()
            },
        )
        .unwrap(),
    );
    let partition = chunks.allocate_partition().unwrap();
    chunks
        .commit(vec![CommitOp::CreatePartition {
            id: partition,
            params: CryptoParams::generate(CipherKind::Des, HashKind::Sha1),
        }])
        .unwrap();
    let store = ObjectStore::new(
        chunks,
        registry(),
        ObjectStoreConfig {
            cache_bytes: 64 * 1024,
            lock_timeout: Duration::from_millis(100),
        },
    );
    Fixture { store, partition }
}

#[test]
fn create_get_typed() {
    let fx = fixture();
    let mut tx = fx.store.begin();
    let id = tx
        .create(
            fx.partition,
            Arc::new(Account {
                owner: "alice".into(),
                balance: 100,
            }),
        )
        .unwrap();
    tx.commit().unwrap();

    let mut tx = fx.store.begin();
    let account = tx.get::<Account>(id).unwrap();
    assert_eq!(account.owner, "alice");
    assert_eq!(account.balance, 100);
    tx.commit().unwrap();
}

#[test]
fn type_mismatch_detected() {
    let fx = fixture();
    let mut tx = fx.store.begin();
    let id = tx
        .create(
            fx.partition,
            Arc::new(License {
                good: "song.mp3".into(),
                uses_left: 3,
            }),
        )
        .unwrap();
    tx.commit().unwrap();

    let mut tx = fx.store.begin();
    let err = tx.get::<Account>(id).unwrap_err();
    assert!(matches!(
        err,
        ObjectError::TypeMismatch { found_tag: 2, .. }
    ));
    tx.abort();
}

#[test]
fn update_and_delete() {
    let fx = fixture();
    let id = {
        let mut tx = fx.store.begin();
        let id = tx
            .create(
                fx.partition,
                Arc::new(Account {
                    owner: "bob".into(),
                    balance: 10,
                }),
            )
            .unwrap();
        tx.commit().unwrap();
        id
    };
    {
        let mut tx = fx.store.begin();
        let account = tx.get::<Account>(id).unwrap();
        tx.put(
            id,
            Arc::new(Account {
                owner: account.owner.clone(),
                balance: account.balance - 7,
            }),
        )
        .unwrap();
        tx.commit().unwrap();
    }
    {
        let mut tx = fx.store.begin();
        assert_eq!(tx.get::<Account>(id).unwrap().balance, 3);
        tx.delete(id).unwrap();
        tx.commit().unwrap();
    }
    let mut tx = fx.store.begin();
    assert!(matches!(
        tx.get::<Account>(id),
        Err(ObjectError::NotFound(_))
    ));
    tx.abort();
}

#[test]
fn abort_discards_buffered_writes() {
    let fx = fixture();
    let id = {
        let mut tx = fx.store.begin();
        let id = tx
            .create(
                fx.partition,
                Arc::new(Account {
                    owner: "carol".into(),
                    balance: 50,
                }),
            )
            .unwrap();
        tx.commit().unwrap();
        id
    };
    {
        let mut tx = fx.store.begin();
        tx.put(
            id,
            Arc::new(Account {
                owner: "carol".into(),
                balance: 0,
            }),
        )
        .unwrap();
        assert_eq!(tx.pending_writes(), 1);
        tx.abort();
    }
    let mut tx = fx.store.begin();
    assert_eq!(
        tx.get::<Account>(id).unwrap().balance,
        50,
        "abort rolled back"
    );
    tx.abort();
}

/// A transaction that ends without committing gives the chunk ids of the
/// objects it created back: the next creation in the partition reuses
/// them, whether the transaction aborted or was dropped.
#[test]
fn uncommitted_creations_give_their_ids_back() {
    let fx = fixture();
    let account = |balance| {
        Arc::new(Account {
            owner: "dora".into(),
            balance,
        })
    };
    let create_two = |tx: &mut Tx| -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = (0..2)
            .map(|i| tx.create(fx.partition, account(i)).unwrap())
            .collect();
        ids.sort_by_key(|id| id.0.pos.rank);
        ids
    };
    let mut tx = fx.store.begin();
    let first = create_two(&mut tx);
    tx.abort();

    let mut tx = fx.store.begin();
    assert_eq!(create_two(&mut tx), first, "reused after abort");
    drop(tx);

    let mut tx = fx.store.begin();
    assert_eq!(create_two(&mut tx), first, "reused after drop");
    tx.commit().unwrap();
    let mut tx = fx.store.begin();
    assert!(!create_two(&mut tx).contains(&first[0]), "not after commit");
}

#[test]
fn transaction_sees_own_writes() {
    let fx = fixture();
    let mut tx = fx.store.begin();
    let id = tx
        .create(
            fx.partition,
            Arc::new(Account {
                owner: "dave".into(),
                balance: 1,
            }),
        )
        .unwrap();
    // Uncommitted create is visible inside the transaction.
    assert_eq!(tx.get::<Account>(id).unwrap().balance, 1);
    tx.put(
        id,
        Arc::new(Account {
            owner: "dave".into(),
            balance: 2,
        }),
    )
    .unwrap();
    assert_eq!(tx.get::<Account>(id).unwrap().balance, 2);
    tx.delete(id).unwrap();
    assert!(matches!(
        tx.get::<Account>(id),
        Err(ObjectError::NotFound(_))
    ));
    tx.commit().unwrap();
}

#[test]
fn multi_object_commit_is_atomic_across_reopen() {
    // Transfer between two accounts, then verify both sides via a fresh
    // object store over the same chunks.
    let fx = fixture();
    let (a, b) = {
        let mut tx = fx.store.begin();
        let a = tx
            .create(
                fx.partition,
                Arc::new(Account {
                    owner: "a".into(),
                    balance: 100,
                }),
            )
            .unwrap();
        let b = tx
            .create(
                fx.partition,
                Arc::new(Account {
                    owner: "b".into(),
                    balance: 0,
                }),
            )
            .unwrap();
        tx.commit().unwrap();
        (a, b)
    };
    fx.store
        .run(|tx| {
            let av = tx.get::<Account>(a)?;
            let bv = tx.get::<Account>(b)?;
            tx.put(
                a,
                Arc::new(Account {
                    owner: "a".into(),
                    balance: av.balance - 30,
                }),
            )?;
            tx.put(
                b,
                Arc::new(Account {
                    owner: "b".into(),
                    balance: bv.balance + 30,
                }),
            )?;
            Ok(())
        })
        .unwrap();

    // A 13-object commit pickles each object exactly once, when the write
    // is buffered: the bytes travel on to the chunk store and their length
    // to the dirty-volume and cache accounting.
    let pickles = Arc::new(AtomicUsize::new(0));
    let mut tx = fx.store.begin();
    let counted: Vec<ObjectId> = (0..13)
        .map(|i| {
            let object = CountedAccount {
                account: Account {
                    owner: format!("counted-{i}"),
                    balance: i,
                },
                pickles: Arc::clone(&pickles),
            };
            tx.create(fx.partition, Arc::new(object)).unwrap()
        })
        .collect();
    assert_eq!(pickles.load(Ordering::Relaxed), 13, "one pickle per write");
    tx.commit().unwrap();
    assert_eq!(
        pickles.load(Ordering::Relaxed),
        13,
        "commit pickles nothing"
    );

    // A second object store over the same chunk store (cold cache).
    let fresh = ObjectStore::new(
        Arc::clone(fx.store.chunks()),
        registry(),
        ObjectStoreConfig::default(),
    );
    let mut tx = fresh.begin();
    assert_eq!(tx.get::<Account>(a).unwrap().balance, 70);
    assert_eq!(tx.get::<Account>(b).unwrap().balance, 30);
    assert_eq!(tx.get::<Account>(counted[0]).unwrap().balance, 0);
    assert_eq!(tx.get::<Account>(counted[12]).unwrap().balance, 12);
    tx.abort();
}

#[test]
fn conflicting_writers_serialize_or_timeout() {
    let fx = fixture();
    let id = {
        let mut tx = fx.store.begin();
        let id = tx
            .create(
                fx.partition,
                Arc::new(Account {
                    owner: "shared".into(),
                    balance: 0,
                }),
            )
            .unwrap();
        tx.commit().unwrap();
        id
    };
    // 8 concurrent increments; timeouts retried by `run`.
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let store = Arc::clone(&fx.store);
            std::thread::spawn(move || {
                store.run(|tx| {
                    let v = tx.get::<Account>(id)?;
                    tx.put(
                        id,
                        Arc::new(Account {
                            owner: "shared".into(),
                            balance: v.balance + 1,
                        }),
                    )
                })
            })
        })
        .collect();
    let mut succeeded = 0;
    for t in threads {
        if t.join().unwrap().is_ok() {
            succeeded += 1;
        }
    }
    let mut tx = fx.store.begin();
    let v = tx.get::<Account>(id).unwrap();
    tx.abort();
    assert_eq!(
        v.balance as usize, succeeded,
        "each successful transaction incremented exactly once"
    );
    assert!(succeeded >= 1);
}

#[test]
fn cache_serves_repeat_reads() {
    let fx = fixture();
    let id = {
        let mut tx = fx.store.begin();
        let id = tx
            .create(
                fx.partition,
                Arc::new(Account {
                    owner: "hot".into(),
                    balance: 9,
                }),
            )
            .unwrap();
        tx.commit().unwrap();
        id
    };
    for _ in 0..10 {
        let mut tx = fx.store.begin();
        let _ = tx.get::<Account>(id).unwrap();
        tx.abort();
    }
    let (hits, _misses) = fx.store.cache_stats();
    assert!(hits >= 9, "repeat reads served from cache, hits={hits}");
}

#[test]
fn untracked_read_and_invalidate() {
    let fx = fixture();
    let id = {
        let mut tx = fx.store.begin();
        let id = tx
            .create(
                fx.partition,
                Arc::new(License {
                    good: "movie".into(),
                    uses_left: 1,
                }),
            )
            .unwrap();
        tx.commit().unwrap();
        id
    };
    let obj = fx.store.get_committed(id, true).unwrap();
    assert_eq!(obj.type_tag(), 2);
    fx.store.invalidate_cache();
    let obj = fx.store.get_committed(id, true).unwrap();
    assert_eq!(obj.type_tag(), 2);
}

#[test]
fn object_id_parts_roundtrip() {
    let fx = fixture();
    let id = ObjectId::from_parts(fx.partition, 5);
    assert_eq!(id.partition(), fx.partition);
    assert_eq!(id.rank(), 5);
}

#[test]
fn put_on_missing_object_fails() {
    let fx = fixture();
    let mut tx = fx.store.begin();
    let bogus = ObjectId::from_parts(fx.partition, 424242);
    let err = tx
        .put(
            bogus,
            Arc::new(Account {
                owner: "ghost".into(),
                balance: 0,
            }),
        )
        .unwrap_err();
    assert!(matches!(err, ObjectError::NotFound(_)), "got {err:?}");
    tx.abort();
}

#[test]
fn failed_commit_releases_locks() {
    // A commit the device refuses must still end the transaction: its
    // locks are released, so a later transaction takes them without
    // waiting.
    let device = SimDevice::new();
    let fx = fixture_over(Arc::clone(&device) as SharedUntrusted);
    let store = ObjectStore::new(
        Arc::clone(fx.store.chunks()),
        registry(),
        ObjectStoreConfig {
            lock_timeout: Duration::from_secs(30),
            ..ObjectStoreConfig::default()
        },
    );
    let mut tx = store.begin();
    let ids: Vec<ObjectId> = (0..6u32)
        .map(|i| {
            tx.create(
                fx.partition,
                Arc::new(Account {
                    owner: format!("doomed-{i}"),
                    balance: i64::from(i),
                }),
            )
            .unwrap()
        })
        .collect();

    device.set_plan(FaultPlan::new().at(device.writes_and_flushes(), FaultKind::WritesFailFrom));
    assert!(tx.commit().is_err(), "the device refused the commit");
    device.set_plan(FaultPlan::new());

    let mut tx = store.begin();
    tx.set_lock_wait(false);
    for id in &ids {
        assert!(
            !matches!(tx.delete(*id), Err(ObjectError::LockTimeout(_))),
            "{id} still locked after the failed commit"
        );
    }
    tx.abort();
}

#[test]
fn one_write_per_object() {
    // A transaction that writes the same objects again and again buffers
    // and commits one write per object: the same op set, byte for byte,
    // as a twin that writes each object's final state once.
    let account = |balance: i64| -> Arc<dyn StoredObject> {
        Arc::new(Account {
            owner: "twin".into(),
            balance,
        })
    };
    let seeded = || {
        let fx = fixture();
        let ids: Vec<ObjectId> = fx
            .store
            .run(|tx| {
                (0..3)
                    .map(|i| tx.create(fx.partition, account(i)))
                    .collect()
            })
            .unwrap();
        (fx, ids)
    };
    let (busy, busy_ids) = seeded();
    let (twin, twin_ids) = seeded();

    let before = busy.store.chunks().stats().bytes_appended;
    let mut tx = busy.store.begin();
    let (a, b, c) = (busy_ids[0], busy_ids[1], busy_ids[2]);
    tx.put(a, account(10)).unwrap();
    tx.put(b, account(20)).unwrap();
    for i in 0..100 {
        tx.put(a, account(100 + i)).unwrap();
    }
    tx.delete(c).unwrap();
    tx.put(b, account(21)).unwrap();
    assert_eq!(tx.pending_writes(), 3);
    tx.commit().unwrap();
    let busy_appended = busy.store.chunks().stats().bytes_appended - before;

    let before = twin.store.chunks().stats().bytes_appended;
    let mut tx = twin.store.begin();
    tx.put(twin_ids[0], account(199)).unwrap();
    tx.put(twin_ids[1], account(21)).unwrap();
    tx.delete(twin_ids[2]).unwrap();
    assert_eq!(tx.pending_writes(), 3);
    tx.commit().unwrap();
    assert_eq!(
        busy_appended,
        twin.store.chunks().stats().bytes_appended - before
    );

    busy.store.invalidate_cache();
    let mut tx = busy.store.begin();
    assert_eq!(tx.get::<Account>(a).unwrap().balance, 199);
    assert_eq!(tx.get::<Account>(b).unwrap().balance, 21);
    assert!(matches!(
        tx.get::<Account>(c),
        Err(ObjectError::NotFound(_))
    ));
    tx.abort();
}

#[test]
fn commit_all_shares_one_batch_and_keeps_results_apart() {
    let fx = fixture();
    let base = fx.store.chunks().stats();
    let mut txs = Vec::new();
    let mut ids = Vec::new();
    for i in 0..5u32 {
        let mut tx = fx.store.begin();
        ids.push(
            tx.create(
                fx.partition,
                Arc::new(Account {
                    owner: format!("member-{i}"),
                    balance: i64::from(i),
                }),
            )
            .unwrap(),
        );
        txs.push(tx);
    }
    // A read-only member rides along without a chunk-store commit.
    txs.push(fx.store.begin());
    let results = Tx::commit_all(txs);
    assert_eq!(results.len(), 6);
    assert!(results.iter().all(Result::is_ok), "{results:?}");
    let stats = fx.store.chunks().stats();
    assert_eq!(stats.commit_batches - base.commit_batches, 1);
    assert_eq!(stats.batched_commits - base.batched_commits, 5);
    let mut tx = fx.store.begin();
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(tx.get::<Account>(*id).unwrap().balance, i as i64);
    }
    tx.abort();
    assert!(Tx::commit_all(Vec::new()).is_empty());
}

/// Races a committed read of an uncached ~4 KB record, started 0–60 µs
/// late, against a `put` + `commit` of value `r`, for `rounds` rounds, and
/// returns the rounds after whose ack a fresh transaction did not read
/// `r`. A read that loads the old version must not install it after the
/// writer installed the new one.
fn stale_installs(rounds: u32) -> Vec<u32> {
    let fx = fixture();
    let owner = "x".repeat(4000);
    let id = fx
        .store
        .run(|tx| {
            tx.create(
                fx.partition,
                Arc::new(Account {
                    owner: owner.clone(),
                    balance: 0,
                }),
            )
        })
        .unwrap();
    let start = std::sync::Barrier::new(2);
    let mut stale = Vec::new();
    for r in 1..=rounds {
        fx.store.invalidate_cache();
        let delay = Duration::from_micros(u64::from(r.wrapping_mul(37) % 61));
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                let t0 = std::time::Instant::now();
                while t0.elapsed() < delay {
                    std::hint::spin_loop();
                }
                fx.store.get_committed(id, true).unwrap();
            });
            start.wait();
            let value = Arc::new(Account {
                owner: owner.clone(),
                balance: i64::from(r),
            });
            let mut tx = fx.store.begin();
            tx.put(id, value).unwrap();
            tx.commit().unwrap();
        });
        let mut tx = fx.store.begin();
        let balance = tx.get::<Account>(id).unwrap().balance;
        tx.abort();
        if balance != i64::from(r) {
            stale.push(r);
        }
        // Keep the in-memory log small: reclaim the overwritten versions.
        if r.is_multiple_of(256) {
            fx.store.chunks().checkpoint().unwrap();
            fx.store.chunks().clean(usize::MAX).unwrap();
        }
    }
    stale
}

#[test]
fn committed_read_never_installs_an_overwritten_version() {
    let stale = stale_installs(3_000);
    assert!(stale.is_empty(), "stale after rounds {stale:?}");
}

#[test]
#[ignore = "30,000 rounds; run in release"]
fn committed_read_never_installs_an_overwritten_version_long() {
    let stale = stale_installs(30_000);
    assert!(stale.is_empty(), "stale after rounds {stale:?}");
}
