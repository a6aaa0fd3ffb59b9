//! §10 extension, end to end: TDB over a *remote* untrusted store, with
//! and without client-side write batching. The batched configuration must
//! be correct (recovery included), pay far fewer round trips — one per
//! durability point — and lose no acknowledged commit to a transport
//! reset: a reset degrades the store, and a reopen recovers it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tdb::{ChunkStore, ChunkStoreConfig, CommitOp, CryptoParams, FaultClass, TrustedBackend};
use tdb_core::CoreError;
use tdb_crypto::SecretKey;
use tdb_storage::{
    BatchingStore, CounterOverTrusted, MemStore, MemTrustedStore, RemoteStore, SharedUntrusted,
    SimClock, StoreStats, TrustedStore, UntrustedStore,
};

/// The remote's round trip (accounted on a [`SimClock`], never slept).
const RTT: Duration = Duration::from_millis(2);

struct Remote {
    mem: Arc<MemStore>,
    clock: Arc<SimClock>,
    store: SharedUntrusted,
}

fn remote(batched: bool) -> Remote {
    let mem = Arc::new(MemStore::new());
    let clock = Arc::new(SimClock::new(false)); // Account, don't sleep.
    let remote = Arc::new(RemoteStore::new(
        Arc::clone(&mem) as SharedUntrusted,
        RTT,
        Arc::clone(&clock),
    ));
    let store: SharedUntrusted = if batched {
        Arc::new(BatchingStore::new(remote))
    } else {
        remote
    };
    Remote { mem, clock, store }
}

fn backend(register: &Arc<MemTrustedStore>) -> TrustedBackend {
    TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(
        Arc::clone(register) as Arc<dyn tdb_storage::TrustedStore>
    )))
}

fn workload(store: &ChunkStore) -> Vec<(tdb::ChunkId, Vec<u8>)> {
    let p = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: CryptoParams::paper_default(),
        }])
        .unwrap();
    let mut written = Vec::new();
    for i in 0..30u64 {
        let id = store.allocate_chunk(p).unwrap();
        let data = vec![(i % 251) as u8; 200 + (i as usize % 5) * 100];
        store
            .commit(vec![CommitOp::WriteChunk {
                id,
                bytes: data.clone(),
            }])
            .unwrap();
        written.push((id, data));
    }
    store.checkpoint().unwrap();
    written
}

#[test]
fn batched_remote_is_correct_across_recovery() {
    let secret = SecretKey::random(24);
    let register = Arc::new(MemTrustedStore::new(64));
    let r = remote(true);
    let written = {
        let store = ChunkStore::create(
            Arc::clone(&r.store),
            backend(&register),
            secret.clone(),
            ChunkStoreConfig::default(),
        )
        .unwrap();
        workload(&store)
    };
    // Recover from the *server-side* bytes only (the batching layer's
    // buffer is gone — like a client restart).
    let fresh_client = Arc::new(BatchingStore::new(Arc::new(RemoteStore::new(
        Arc::new(MemStore::from_bytes(r.mem.image())) as SharedUntrusted,
        RTT,
        Arc::new(SimClock::new(false)),
    ))));
    let store = ChunkStore::open(
        fresh_client as SharedUntrusted,
        backend(&register),
        secret,
        ChunkStoreConfig::default(),
    )
    .unwrap();
    for (id, data) in &written {
        assert_eq!(&store.read(*id).unwrap(), data);
    }
}

/// A warm single-chunk commit appends its version and commit chunk as one
/// contiguous run. A bare remote pays a round trip for that run's write
/// and another for the flush; through `BatchingStore` both ship as one.
#[test]
fn batching_saves_round_trips() {
    for (batched, trips) in [(false, 2u32), (true, 1)] {
        let secret = SecretKey::random(24);
        let register = Arc::new(MemTrustedStore::new(64));
        let r = remote(batched);
        let store = ChunkStore::create(
            Arc::clone(&r.store),
            backend(&register),
            secret,
            ChunkStoreConfig::default(),
        )
        .unwrap();
        let written = workload(&store);
        for (i, (id, _)) in written.iter().enumerate() {
            let before = r.clock.elapsed();
            store
                .commit(vec![CommitOp::WriteChunk {
                    id: *id,
                    bytes: vec![i as u8; 300],
                }])
                .unwrap();
            let spent = r.clock.elapsed() - before;
            assert_eq!(spent, RTT * trips, "batched {batched}, commit {i}");
        }
    }
}

#[test]
fn batched_commit_costs_one_round_trip() {
    let secret = SecretKey::random(24);
    let register = Arc::new(MemTrustedStore::new(64));
    let r = remote(true);
    let store = ChunkStore::create(
        Arc::clone(&r.store),
        backend(&register),
        secret,
        ChunkStoreConfig::default(),
    )
    .unwrap();
    let written = workload(&store);
    // Warm single-chunk commits: every descriptor they touch is cached, so
    // the commit's only request is its durable batch — the version and the
    // commit chunk, written and flushed as one round trip.
    for (i, (id, _)) in written.iter().enumerate() {
        let before = r.clock.elapsed();
        store
            .commit(vec![CommitOp::WriteChunk {
                id: *id,
                bytes: vec![i as u8; 300],
            }])
            .unwrap();
        assert_eq!(r.clock.elapsed() - before, RTT, "commit {i}");
    }
    // A checkpoint has two durability points the protocol keeps apart: the
    // log (map chunks, leaders, commit chunk) and, after the trusted
    // counter, the superblock. Each is one round trip.
    let before = r.clock.elapsed();
    store.checkpoint().unwrap();
    assert_eq!(r.clock.elapsed() - before, 2 * RTT);
}

/// A warm `commit_many` from any counter lag below Δut costs one round trip
/// and at most one counter write, crossing the lag included: the batch
/// flushes once and the counter moves once, after that flush. Only a batch
/// whose last commit chunk would pass recovery's ceiling `t + Δut + 1`
/// reaches a durable point before that member too.
#[test]
fn batch_crossing_the_counter_lag_costs_one_round_trip() {
    const DELTA_UT: usize = 5; // The default configuration's.
    let secret = SecretKey::random(24);
    let register = Arc::new(MemTrustedStore::new(64));
    let r = remote(true);
    let store = ChunkStore::create(
        Arc::clone(&r.store),
        backend(&register),
        secret,
        ChunkStoreConfig::default(),
    )
    .unwrap();
    let written = workload(&store);
    let overwrite = |id: tdb::ChunkId, tag: usize| {
        vec![CommitOp::WriteChunk {
            id,
            bytes: vec![tag as u8; 300],
        }]
    };
    let mut crossings = 0;
    for lag in 0..DELTA_UT {
        for members in 2..=4 {
            let ctx = format!("lag {lag}, {members} members");
            // A checkpoint always brings the counter level with the log.
            store.checkpoint().unwrap();
            for (id, _) in &written[..lag] {
                store.commit(overwrite(*id, lag)).unwrap();
            }
            let sets = written[lag..lag + members]
                .iter()
                .map(|(id, _)| overwrite(*id, members))
                .collect();
            let (before, writes) = (r.clock.elapsed(), register.stats().snapshot().writes);
            let results = store.commit_many(sets);
            assert!(results.iter().all(Result::is_ok), "{ctx}: {results:?}");
            let trips = if lag + members <= DELTA_UT + 1 { 1 } else { 2 };
            assert_eq!(r.clock.elapsed() - before, RTT * trips, "{ctx}");
            let advances = register.stats().snapshot().writes - writes;
            let crossed = lag + members >= DELTA_UT;
            assert_eq!(advances, u64::from(crossed), "{ctx}");
            crossings += usize::from(crossed && trips == 1);
        }
    }
    assert_eq!(crossings, 6, "batches that cross the lag in one round trip");
}

/// Forwards every request to a [`RemoteStore`], resetting the connection
/// on every `k`-th round trip (the first at trip `k - 1 - phase`), and
/// counting neither trips nor resets while `paused`.
struct ResetEveryKth {
    remote: Arc<RemoteStore>,
    k: u64,
    trips: AtomicU64,
    paused: AtomicBool,
}

impl ResetEveryKth {
    fn trip(&self) {
        if self.paused.load(Ordering::SeqCst) {
            return;
        }
        if self.trips.fetch_add(1, Ordering::SeqCst) % self.k == self.k - 1 {
            self.remote.drop_connections(1);
        }
    }
}

impl UntrustedStore for ResetEveryKth {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> tdb_storage::Result<()> {
        self.trip();
        self.remote.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> tdb_storage::Result<()> {
        self.trip();
        self.remote.write_at(offset, data)
    }

    fn flush(&self) -> tdb_storage::Result<()> {
        self.trip();
        self.remote.flush()
    }

    fn write_all_flush(&self, extents: &[(u64, &[u8])]) -> tdb_storage::Result<()> {
        self.trip();
        self.remote.write_all_flush(extents)
    }

    fn len(&self) -> tdb_storage::Result<u64> {
        self.remote.len()
    }

    fn set_len(&self, len: u64) -> tdb_storage::Result<()> {
        self.trip();
        self.remote.set_len(len)
    }

    fn stats(&self) -> Arc<StoreStats> {
        self.remote.stats()
    }
}

/// A committer over `BatchingStore` over a remote that resets every
/// `k`-th round trip runs `commits` single-chunk commits (new chunks and
/// overwrites, a checkpoint every 16). A commit or checkpoint that a reset
/// fails leaves the store degraded; the committer then reopens over a
/// fresh `BatchingStore` on the same link, with resets paused so that
/// recovery reads the server's bytes, and goes on. At the end a reopen
/// from the server's bytes alone holds every acknowledged commit.
fn resets_keep_acked_commits(k: u64, phase: u64, commits: u64) {
    let ctx = format!("reset every {k}th round trip, phase {phase}");
    let secret = SecretKey::random(24);
    let register = Arc::new(MemTrustedStore::new(64));
    let mem = Arc::new(MemStore::new());
    let remote = Arc::new(RemoteStore::new(
        Arc::clone(&mem) as SharedUntrusted,
        RTT,
        Arc::new(SimClock::new(false)),
    ));
    let link = Arc::new(ResetEveryKth {
        remote,
        k,
        trips: AtomicU64::new(phase),
        paused: AtomicBool::new(true),
    });
    let client = || -> SharedUntrusted {
        Arc::new(BatchingStore::new(Arc::clone(&link) as SharedUntrusted))
    };
    let mut store = ChunkStore::create(
        client(),
        backend(&register),
        secret.clone(),
        ChunkStoreConfig::default(),
    )
    .expect(&ctx);
    let p = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: CryptoParams::paper_default(),
        }])
        .expect(&ctx);
    link.paused.store(false, Ordering::SeqCst);
    let mut acked: BTreeMap<tdb::ChunkId, Vec<u8>> = BTreeMap::new();
    let (mut acks, mut resets) = (0, 0);
    for i in 0..commits {
        let id = if i % 3 == 2 && !acked.is_empty() {
            *acked.keys().nth(i as usize * 7 % acked.len()).unwrap()
        } else {
            store.allocate_chunk(p).expect(&ctx)
        };
        let data = vec![(i % 251) as u8; 100 + (i as usize % 7) * 60];
        let mut result = store.commit(vec![CommitOp::WriteChunk {
            id,
            bytes: data.clone(),
        }]);
        if result.is_ok() {
            acks += 1;
            acked.insert(id, data.clone());
            if i % 16 == 15 {
                result = store.checkpoint();
            }
        }
        let Err(e) = result else { continue };
        assert!(
            matches!(&e, CoreError::BatchAborted { reason, .. } if reason.contains("connection reset"))
                || e.fault_class() == FaultClass::Transient,
            "{ctx}: commit {i}: {e}"
        );
        assert!(store.health().is_degraded(), "{ctx}: commit {i}: {e}");
        resets += 1;
        link.paused.store(true, Ordering::SeqCst);
        drop(store);
        store = ChunkStore::open(
            client(),
            backend(&register),
            secret.clone(),
            ChunkStoreConfig::default(),
        )
        .unwrap_or_else(|err| panic!("{ctx}: reopen after commit {i}: {err}"));
        // Recovery adopted the failed write if it was durable on the
        // server, and dropped it otherwise; nothing else is possible.
        match store.read(id) {
            Ok(got) if got == data => {
                acked.insert(id, data);
            }
            got => assert!(
                acked.get(&id) == got.as_ref().ok(),
                "{ctx}: commit {i} left {id} at {got:?}"
            ),
        }
        link.paused.store(false, Ordering::SeqCst);
    }
    assert!(resets > 0, "{ctx}: no reset hit");
    assert!(acks > 0, "{ctx}: no commit acknowledged");
    let image = mem.image();
    drop(store);
    let reopened = ChunkStore::open(
        Arc::new(MemStore::from_bytes(image)) as SharedUntrusted,
        backend(&register),
        secret,
        ChunkStoreConfig::default(),
    )
    .unwrap_or_else(|e| panic!("{ctx}: reopen: {e}"));
    for (id, data) in &acked {
        assert_eq!(&reopened.read(*id).expect(&ctx), data, "{ctx}: {id}");
    }
}

#[test]
fn transport_resets_never_lose_an_acked_commit() {
    for k in [2, 3, 5, 8, 13] {
        resets_keep_acked_commits(k, 0, 48);
    }
}

#[test]
#[ignore = "exhaustive sweep; CI's fault-torture step runs it"]
fn transport_resets_never_lose_an_acked_commit_full_sweep() {
    for k in 2..=40 {
        for phase in [0, k / 2, k - 1] {
            resets_keep_acked_commits(k, phase, 160);
        }
    }
}

#[test]
fn tamper_detection_survives_the_remote_path() {
    // The server is untrusted: server-side modifications must still be
    // detected through the batching client.
    let secret = SecretKey::random(24);
    let register = Arc::new(MemTrustedStore::new(64));
    let r = remote(true);
    let written = {
        let store = ChunkStore::create(
            Arc::clone(&r.store),
            backend(&register),
            secret.clone(),
            ChunkStoreConfig::default(),
        )
        .unwrap();
        workload(&store)
    };
    // The server flips bytes in its copy.
    let len = r.mem.len().unwrap();
    let mut detected = 0;
    for offset in (512..len).step_by(997) {
        let server_copy = Arc::new(MemStore::from_bytes(r.mem.image()));
        server_copy.tamper(offset, 0x10);
        let client = Arc::new(BatchingStore::new(Arc::new(RemoteStore::new(
            server_copy as SharedUntrusted,
            Duration::from_millis(1),
            Arc::new(SimClock::new(false)),
        ))));
        match ChunkStore::open(
            client as SharedUntrusted,
            backend(&register),
            secret.clone(),
            ChunkStoreConfig::default(),
        ) {
            Err(_) => detected += 1,
            Ok(store) => {
                for (id, data) in &written {
                    match store.read(*id) {
                        Ok(got) => assert_eq!(&got, data, "silent corruption at {id}"),
                        Err(_) => detected += 1,
                    }
                }
            }
        }
    }
    assert!(detected > 0);
}
