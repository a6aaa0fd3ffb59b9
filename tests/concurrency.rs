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
