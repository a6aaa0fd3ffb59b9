//! Concurrency: serializability of concurrent transactions through the
//! object store's two-phase locking (§7), with lock-timeout retries.

use std::any::Any;
use std::sync::Arc;

use std::time::Duration;

use tdb::{ObjectStoreConfig, StoredObject, TrustedDbBuilder};
use tdb_crypto::SecretKey;

fn builder() -> TrustedDbBuilder {
    TrustedDbBuilder::new()
        .secret(SecretKey::random(24))
        .register_type(COUNTER_TAG, unpickle_counter)
        .object_config(ObjectStoreConfig {
            // Short timeouts keep deadlock-breaking cheap under the
            // deliberately contended workloads below.
            lock_timeout: Duration::from_millis(40),
            ..ObjectStoreConfig::default()
        })
}

#[derive(Debug)]
struct Counter {
    value: i64,
}

const COUNTER_TAG: u32 = 41;

impl StoredObject for Counter {
    fn type_tag(&self) -> u32 {
        COUNTER_TAG
    }
    fn pickle(&self) -> Vec<u8> {
        self.value.to_le_bytes().to_vec()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn unpickle_counter(b: &[u8]) -> tdb_object::errors::Result<Arc<dyn StoredObject>> {
    Ok(Arc::new(Counter {
        value: i64::from_le_bytes(
            b.try_into()
                .map_err(|_| tdb_object::errors::ObjectError::BadPickle("counter".into()))?,
        ),
    }))
}

#[test]
fn concurrent_transfers_conserve_total() {
    let db = Arc::new(builder().build_in_memory().unwrap());
    let n_accounts = 8usize;
    let initial = 1000i64;
    let accounts: Vec<_> = (0..n_accounts)
        .map(|_| {
            db.run(|tx| tx.create(db.partition(), Arc::new(Counter { value: initial })))
                .unwrap()
        })
        .collect();

    // Threads move money between random account pairs. 2PL + retries must
    // keep the total invariant.
    std::thread::scope(|scope| {
        for t in 0..4 {
            let db = Arc::clone(&db);
            let accounts = accounts.clone();
            scope.spawn(move || {
                let mut state = (t as u64 + 1) * 0x9E37_79B9;
                let mut rand = move |bound: usize| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % bound as u64) as usize
                };
                let mut done = 0;
                while done < 50 {
                    let from = accounts[rand(accounts.len())];
                    let to = accounts[rand(accounts.len())];
                    if from == to {
                        continue;
                    }
                    // Consistent lock order (by id) avoids most deadlocks;
                    // timeouts break the rest, and `run` retries.
                    let result = db.run(|tx| {
                        let (first, second) = if from < to { (from, to) } else { (to, from) };
                        let a = tx.get_for_update::<Counter>(first)?;
                        let b = tx.get_for_update::<Counter>(second)?;
                        tx.put(first, Arc::new(Counter { value: a.value - 7 }))?;
                        tx.put(second, Arc::new(Counter { value: b.value + 7 }))?;
                        Ok(())
                    });
                    if result.is_ok() {
                        done += 1;
                    }
                }
            });
        }
    });

    let total: i64 = accounts
        .iter()
        .map(|id| {
            db.run(|tx| tx.get::<Counter>(*id).map(|c| c.value))
                .unwrap()
        })
        .sum();
    assert_eq!(
        total,
        initial * n_accounts as i64,
        "money was created or destroyed"
    );
}

#[test]
fn concurrent_increments_on_one_object_serialize() {
    let db = Arc::new(builder().build_in_memory().unwrap());
    let id = db
        .run(|tx| tx.create(db.partition(), Arc::new(Counter { value: 0 })))
        .unwrap();

    let threads = 6;
    let per_thread = 25;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let db = Arc::clone(&db);
            scope.spawn(move || {
                let mut done = 0;
                while done < per_thread {
                    let result = db.run(|tx| {
                        let c = tx.get_for_update::<Counter>(id)?;
                        tx.put(id, Arc::new(Counter { value: c.value + 1 }))
                    });
                    if result.is_ok() {
                        done += 1;
                    }
                }
            });
        }
    });

    let value = db.run(|tx| tx.get::<Counter>(id).map(|c| c.value)).unwrap();
    assert_eq!(value, (threads * per_thread) as i64);
}

#[test]
fn readers_run_alongside_writer() {
    let db = Arc::new(builder().build_in_memory().unwrap());
    let ids: Vec<_> = (0..20)
        .map(|i| {
            db.run(|tx| tx.create(db.partition(), Arc::new(Counter { value: i })))
                .unwrap()
        })
        .collect();

    std::thread::scope(|scope| {
        // One writer bumps everything repeatedly.
        {
            let db = Arc::clone(&db);
            let ids = ids.clone();
            scope.spawn(move || {
                for _ in 0..10 {
                    for &id in &ids {
                        let _ = db.run(|tx| {
                            let c = tx.get_for_update::<Counter>(id)?;
                            tx.put(
                                id,
                                Arc::new(Counter {
                                    value: c.value + 100,
                                }),
                            )
                        });
                    }
                }
            });
        }
        // Readers continuously observe committed values only.
        for _ in 0..3 {
            let db = Arc::clone(&db);
            let ids = ids.clone();
            scope.spawn(move || {
                for _ in 0..200 {
                    let i = 7 % ids.len();
                    if let Ok(v) = db.run(|tx| tx.get::<Counter>(ids[i]).map(|c| c.value)) {
                        // Committed values are the initial value plus some
                        // whole number of increments.
                        assert_eq!((v - i as i64) % 100, 0, "torn read: {v}");
                    }
                }
            });
        }
    });
}

fn counter_by_value(o: &dyn StoredObject) -> Option<Vec<u8>> {
    o.as_any()
        .downcast_ref::<Counter>()
        .map(|c| tdb::IndexKey::new().u64(c.value as u64).into_bytes())
}

/// Two inserters into one collection with a sorted index: each insert
/// reads the collection object and a B-tree leaf under shared locks and
/// then rewrites both, so the two transactions' upgrades close a deadlock
/// cycle again and again. Each cycle must cost one victim's wait for the
/// winner's commit, not a lock timeout: the whole run finishes well inside
/// one 10 s timeout, and every insert lands once.
#[test]
fn two_inserters_into_one_indexed_collection_finish_well_inside_one_timeout() {
    let db = Arc::new(
        TrustedDbBuilder::new()
            .secret(SecretKey::random(24))
            .register_type(COUNTER_TAG, unpickle_counter)
            .register_extractor("by_value", counter_by_value)
            .object_config(ObjectStoreConfig {
                lock_timeout: Duration::from_secs(10),
                ..ObjectStoreConfig::default()
            })
            .build_in_memory()
            .unwrap(),
    );
    let coll = db
        .run(|tx| {
            let coll = db
                .collections()
                .create_collection(tx, db.partition(), "counters")?;
            db.collections()
                .add_index(tx, coll, "value", "by_value", tdb::IndexKind::Sorted)?;
            Ok(coll)
        })
        .unwrap();
    let per_thread = 60i64;
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for t in 0..2 {
            let db = Arc::clone(&db);
            scope.spawn(move || {
                for i in 0..per_thread {
                    let value = t * per_thread + i;
                    db.run(|tx| {
                        db.collections()
                            .insert(tx, coll, Arc::new(Counter { value }))
                    })
                    .expect("insert commits");
                }
            });
        }
    });
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "two inserters took {elapsed:?}: a deadlock waited out the timeout"
    );
    let (len, values) = db
        .run(|tx| {
            let len = db.collections().len(tx, coll)?;
            let values = db
                .collections()
                .range(tx, coll, "value", None, None)?
                .into_iter()
                .map(|id| tx.get::<Counter>(id).map(|c| c.value))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((len, values))
        })
        .unwrap();
    assert_eq!(len, 2 * per_thread as u64);
    assert_eq!(values, (0..2 * per_thread).collect::<Vec<_>>());
}

/// Two explicit session transactions read one object and then both write
/// it. The second writer closes a deadlock cycle: it is answered 205 at
/// once, long before the 10 s timeout, and its transaction stays open.
/// Its `Abort` releases its shared lock, which lets the first writer on,
/// and returns only after that writer has committed.
#[test]
fn session_cycle_victim_stays_open_and_its_abort_waits_for_the_winner() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use tdb::{Command, Response, TxMode, TypeRegistry};

    let db = TrustedDbBuilder::new()
        .secret(SecretKey::random(24))
        .register_type(COUNTER_TAG, unpickle_counter)
        .object_config(ObjectStoreConfig {
            lock_timeout: Duration::from_secs(10),
            ..ObjectStoreConfig::default()
        })
        .build_in_memory()
        .unwrap();
    let record = |value| TypeRegistry::pickle(&Counter { value });
    let id = db
        .run(|tx| tx.create(db.partition(), Arc::new(Counter { value: 0 })))
        .unwrap();
    let (mut winner, mut victim) = (db.session("winner"), db.session("victim"));
    for s in [&mut winner, &mut victim] {
        assert_eq!(s.dispatch(&Command::Begin(TxMode::Locking)), Response::Ok);
        assert_eq!(s.dispatch(&Command::Get(id)), Response::Record(record(0)));
    }
    let committing = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let committing = &committing;
        scope.spawn(move || {
            // Waits for the victim's shared lock.
            let put = winner.dispatch(&Command::Put {
                id,
                record: record(1),
            });
            assert_eq!(put, Response::Ok);
            std::thread::sleep(Duration::from_millis(200));
            committing.store(true, Ordering::SeqCst);
            assert_eq!(winner.dispatch(&Command::Commit), Response::Ok);
        });
        // The victim asks only once the winner waits, so that it is the
        // victim's request that closes the cycle.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while db.objects().debug_lock_waiters() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "the winner never waited"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let start = std::time::Instant::now();
        match victim.dispatch(&Command::Put {
            id,
            record: record(2),
        }) {
            Response::Error(e) => assert_eq!(e.code, 205, "{e:?}"),
            other => panic!("the cycle's victim answered {other:?}"),
        }
        assert!(start.elapsed() < Duration::from_secs(1));
        assert!(victim.in_tx(), "a refused lock leaves the transaction open");
        assert_eq!(victim.dispatch(&Command::Abort), Response::Ok);
        assert!(
            committing.load(Ordering::SeqCst),
            "the victim's abort returned before the winner's commit"
        );
    });
    assert_eq!(
        db.session("reader").dispatch(&Command::Get(id)),
        Response::Record(record(1))
    );
}
