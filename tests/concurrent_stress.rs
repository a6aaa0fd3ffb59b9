//! Concurrent read/mutate stress over a shared [`ChunkStore`] (ISSUE 2).
//!
//! N reader threads read, validating off the engine lock, while one mutator
//! commits new versions, checkpoints, and cleans. The protocol proves
//! that every successful read returns a *fully committed* pre- or
//! post-state body, never torn or partially validated data:
//!
//! - Each chunk body is self-describing: `body(rank, version)` embeds
//!   both values and a length/fill derived from them, so any mix of two
//!   versions (or a torn buffer) fails the equality check. Every eighth
//!   version is a 9 KB body, and every sixteenth round the mutator moves
//!   all eight ranks to one at once: a 72 KB commit, whose eight bodies
//!   the committer enciphers as lanes of one kernel call.
//! - Per rank the mutator maintains two atomics: `pending[rank]` is
//!   bumped *before* the commit is issued, `committed[rank]` *after* it
//!   is acknowledged. A reader brackets its read with
//!   `lo = committed[rank]` (before) and `hi = pending[rank]` (after);
//!   the version decoded from the body must satisfy `lo <= v <= hi`.
//!   A stale cache hit would violate the lower bound, a torn or
//!   speculative read the body equality, a time-travel read the upper
//!   bound.
//!
//! The suites run at reader counts {1, 2, 4, 8}, and once more with a seeded
//! [`FaultPlan`] injecting transient storage faults (reads may then fail
//! with I/O or degraded-mode errors — but a read that *succeeds* must
//! still satisfy the same bounds). A faulted run goes in rounds: a round
//! ends when a failed mutation leaves the store degraded, and the next one
//! starts on a reopen of the same device. A separate suite deallocates and
//! recreates a partition id under two committers, whose writes are sealed
//! before the engine lock (see its section below). A third drives
//! sessions: committed reads racing an autocommit writer. Heavier torture
//! variants are `#[ignore]`d for the CI `--include-ignored` pass.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use tdb::{
    ChunkId, ChunkStore, ChunkStoreConfig, CommitOp, CryptoParams, PartitionId, TrustedBackend,
    ValidationMode,
};
use tdb_crypto::SecretKey;
use tdb_storage::{
    CounterOverTrusted, FaultPlan, MemStore, MemTrustedStore, SharedUntrusted, SimDevice,
    TrustedStore,
};

const RANKS: u64 = 8;

/// Versions divisible by this carry a bulk body (see [`body`]).
const BULK_EVERY: u64 = 8;

fn config() -> ChunkStoreConfig {
    ChunkStoreConfig {
        fanout: 4,
        segment_size: 1 << 16,
        checkpoint_threshold: 24,
        validation: ValidationMode::Counter {
            delta_ut: 5,
            delta_tu: 0,
        },
        ..ChunkStoreConfig::default()
    }
}

/// The self-describing body for `(rank, version)`: decodable header plus
/// a version-dependent fill and length, so two versions never agree on
/// any prefix longer than the header.
fn body(rank: u64, version: u64) -> Vec<u8> {
    let bulk = if version.is_multiple_of(BULK_EVERY) {
        9000
    } else {
        0
    };
    let len = bulk + 64 + ((rank * 131 + version * 17) % 512) as usize;
    let mut out = Vec::with_capacity(16 + len);
    out.extend_from_slice(&rank.to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    let fill = (rank as u8).wrapping_mul(31).wrapping_add(version as u8);
    out.resize(16 + len, fill);
    out
}

/// Decodes a body's version and checks full integrity against `rank`.
/// Panics on any torn or mixed buffer.
fn decode(rank: u64, got: &[u8]) -> u64 {
    assert!(got.len() >= 16, "body too short: {} bytes", got.len());
    let r = u64::from_le_bytes(got[..8].try_into().unwrap());
    let v = u64::from_le_bytes(got[8..16].try_into().unwrap());
    assert_eq!(r, rank, "body belongs to another rank");
    assert_eq!(
        got,
        body(rank, v),
        "torn or mixed body for rank {rank} version {v}"
    );
    v
}

struct Harness {
    store: Arc<ChunkStore>,
    /// What a reopen needs besides the device.
    register: Arc<dyn TrustedStore>,
    secret: SecretKey,
    partition: PartitionId,
    /// Last version whose commit was *issued*, per rank.
    pending: Vec<AtomicU64>,
    /// Last version whose commit was *acknowledged*, per rank.
    committed: Vec<AtomicU64>,
    done: AtomicBool,
}

fn backend(register: &Arc<dyn TrustedStore>) -> TrustedBackend {
    TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(Arc::clone(register))))
}

fn build(untrusted: SharedUntrusted) -> Harness {
    let register: Arc<dyn TrustedStore> = Arc::new(MemTrustedStore::new(64));
    let secret = SecretKey::random(24);
    let store =
        ChunkStore::create(untrusted, backend(&register), secret.clone(), config()).unwrap();
    let partition = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CreatePartition {
            id: partition,
            params: CryptoParams::paper_default(),
        }])
        .unwrap();
    // Write version 1 of every rank so readers never see NotWritten in
    // the fault-free runs.
    for rank in 0..RANKS {
        let id = store.allocate_chunk(partition).unwrap();
        assert_eq!(id.pos.rank, rank);
    }
    store
        .commit(
            (0..RANKS)
                .map(|rank| CommitOp::WriteChunk {
                    id: ChunkId::data(partition, rank),
                    bytes: body(rank, 1),
                })
                .collect(),
        )
        .unwrap();
    Harness {
        store: Arc::new(store),
        register,
        secret,
        partition,
        pending: (0..RANKS).map(|_| AtomicU64::new(1)).collect(),
        committed: (0..RANKS).map(|_| AtomicU64::new(1)).collect(),
        done: AtomicBool::new(false),
    }
}

/// One reader: loops over all ranks until the mutator finishes, checking
/// the commit-bound protocol on every successful read. Returns
/// (reads, errors).
fn reader(h: &Harness, seed: u64, faults_allowed: bool) -> (u64, u64) {
    let mut reads = 0u64;
    let mut errors = 0u64;
    let mut rank = seed % RANKS;
    while !h.done.load(Ordering::Acquire) {
        let lo = h.committed[rank as usize].load(Ordering::SeqCst);
        match h.store.read(ChunkId::data(h.partition, rank)) {
            Ok(got) => {
                let hi = h.pending[rank as usize].load(Ordering::SeqCst);
                let v = decode(rank, &got);
                assert!(
                    lo <= v && v <= hi,
                    "rank {rank}: read version {v} outside committed bounds [{lo}, {hi}]"
                );
                reads += 1;
            }
            Err(e) => {
                assert!(faults_allowed, "read failed with no faults injected: {e}");
                errors += 1;
            }
        }
        rank = (rank + 1) % RANKS;
    }
    (reads, errors)
}

/// The mutator: the rounds in `iters` of multi-chunk commits with occasional
/// checkpoints and cleans. Under faults, failed mutations are tolerated
/// (the pending counter stays as the upper bound — a failed commit may
/// still have durably applied), and the mutator stops early once one has
/// left the store degraded. Returns the first round it did not run.
fn mutator(h: &Harness, iters: Range<u64>, faults_allowed: bool) -> u64 {
    let mut next = iters.end;
    for i in iters {
        if !h.store.health().is_live() {
            next = i;
            break;
        }
        // Usually 2-3 chunks, a kilobyte or so; every sixteenth round all
        // ranks at their next bulk version, sealed as lanes of one call.
        let bulk = i % 16 == 5;
        let width = if bulk {
            RANKS as usize
        } else {
            2 + (i % 2) as usize
        };
        let mut ops = Vec::with_capacity(width);
        let mut versions = Vec::with_capacity(width);
        for k in 0..width as u64 {
            let rank = (i + k * 3) % RANKS;
            let pending = &h.pending[rank as usize];
            let v = if bulk {
                // The mutator is the only writer of `pending`.
                let v = (pending.load(Ordering::SeqCst) / BULK_EVERY + 1) * BULK_EVERY;
                pending.store(v, Ordering::SeqCst);
                v
            } else {
                pending.fetch_add(1, Ordering::SeqCst) + 1
            };
            versions.push((rank, v));
            ops.push(CommitOp::WriteChunk {
                id: ChunkId::data(h.partition, rank),
                bytes: body(rank, v),
            });
        }
        match h.store.commit(ops) {
            Ok(()) => {
                for (rank, v) in versions {
                    h.committed[rank as usize].fetch_max(v, Ordering::SeqCst);
                }
            }
            Err(e) => {
                assert!(faults_allowed, "commit failed with no faults injected: {e}");
                // The commit may or may not have applied durably; the
                // pending bump already covers the "applied" case.
            }
        }
        if i % 16 == 9 {
            let r = h.store.checkpoint();
            assert!(faults_allowed || r.is_ok(), "checkpoint failed: {r:?}");
        }
        if i % 32 == 21 {
            let r = h.store.clean(2);
            assert!(faults_allowed || r.is_ok(), "clean failed: {r:?}");
        }
    }
    h.done.store(true, Ordering::Release);
    next
}

fn run_stress(readers: usize, iters: u64) {
    let untrusted = Arc::new(MemStore::new()) as SharedUntrusted;
    let h = build(untrusted);
    let total_reads: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|t| {
                let h = &h;
                s.spawn(move || reader(h, t as u64, false))
            })
            .collect();
        mutator(&h, 0..iters, false);
        handles.into_iter().map(|j| j.join().unwrap().0).sum()
    });
    assert!(total_reads > 0, "readers never observed a chunk");
    // Post-run: the final committed state reads back exactly.
    for rank in 0..RANKS {
        let v = h.committed[rank as usize].load(Ordering::SeqCst);
        let hi = h.pending[rank as usize].load(Ordering::SeqCst);
        let got = h.store.read(ChunkId::data(h.partition, rank)).unwrap();
        let got_v = decode(rank, &got);
        assert!(v <= got_v && got_v <= hi);
    }
    h.store.close().unwrap();
}

fn run_faulted(readers: usize, iters: u64, seed: u64) {
    let dev = SimDevice::new();
    let mut h = build(Arc::clone(&dev) as SharedUntrusted);
    // Arm the plan only after setup so the store starts consistent; the
    // horizon covers the whole concurrent phase.
    let plan = FaultPlan::seeded(seed, 4000, 24);
    let mut next = 0;
    while next < iters {
        dev.set_plan(plan.clone());
        h.done.store(false, Ordering::Release);
        next = std::thread::scope(|s| {
            let handles: Vec<_> = (0..readers)
                .map(|t| {
                    let h = &h;
                    s.spawn(move || reader(h, t as u64, true))
                })
                .collect();
            let next = mutator(&h, next..iters, true);
            for j in handles {
                j.join().unwrap();
            }
            next
        });
        // Only integrity faults poison, and the plan injects none. Reopen
        // the same device with the plan disarmed: recovery adopts or drops
        // what a failed mutation left, and must keep every acknowledged
        // version. The plan's faults keep their device-op indices, so the
        // next round meets those still ahead.
        assert!(!h.store.health().is_poisoned(), "round ending at {next}");
        dev.set_plan(FaultPlan::new());
        h.store = Arc::new(
            ChunkStore::open(
                Arc::clone(&dev) as SharedUntrusted,
                backend(&h.register),
                h.secret.clone(),
                config(),
            )
            .unwrap_or_else(|e| panic!("reopen after round ending at {next}: {e}")),
        );
    }
    for rank in 0..RANKS {
        let lo = h.committed[rank as usize].load(Ordering::SeqCst);
        let hi = h.pending[rank as usize].load(Ordering::SeqCst);
        let got = h.store.read(ChunkId::data(h.partition, rank)).unwrap();
        let v = decode(rank, &got);
        assert!(
            lo <= v && v <= hi,
            "rank {rank}: post-fault version {v} outside [{lo}, {hi}]"
        );
    }
}

// -- Fault-free stress at 1/2/4/8 readers ----------------------------------

#[test]
fn stress_one_reader_sequential_crypto() {
    run_stress(1, 160);
}

#[test]
fn stress_two_readers() {
    run_stress(2, 160);
}

#[test]
fn stress_four_readers() {
    run_stress(4, 160);
}

#[test]
fn stress_eight_readers() {
    run_stress(8, 160);
}

// -- Seeded transient faults under concurrency -----------------------------

#[test]
fn faulted_stress_two_readers() {
    run_faulted(2, 120, 0xC0FFEE);
}

#[test]
fn faulted_stress_four_readers() {
    run_faulted(4, 120, 0xDECAF);
}

#[test]
fn faulted_stress_eight_readers() {
    run_faulted(8, 120, 0xBADC0DE);
}

// -- A partition id deallocated and recreated under its committers ---------
//
// Committers seal their writes before the engine lock, under the partition
// crypto last published to the store's crypto table, and the engine
// re-checks each seal against the partition's current crypto. Here one
// thread deallocates a partition and recreates the same id under a fresh
// key, again and again, while two others allocate chunks in it and commit
// writes — single
// autocommits, and now and then a 72 KB burst sealed early as one batch.
// An id names a rank, not an incarnation: a write whose chunk was
// allocated before a recycle still commits if the other committer has
// allocated that rank since, and its early seal is then under the old key.
// Such a seal reaching the log would read back as tampering. Instead the
// store stays live, every commit and read-back with no recycle around it
// succeeds, and the last incarnation holds, before and after a reopen,
// only bodies that were acknowledged for their chunk.

/// xorshift64: the seeded choices of one thread.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The self-describing body committer `t` writes as its `seq`-th write.
fn recycled_body(t: u64, seq: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + len);
    out.extend_from_slice(&t.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.resize(16 + len, (t * 97 + seq) as u8);
    out
}

/// Checks `got` is some committer's whole body, not a torn or foreign one.
fn assert_well_formed(got: &[u8]) {
    assert!(got.len() >= 16, "body too short: {} bytes", got.len());
    let t = u64::from_le_bytes(got[..8].try_into().unwrap());
    let seq = u64::from_le_bytes(got[8..16].try_into().unwrap());
    assert_eq!(got, recycled_body(t, seq, got.len() - 16), "torn body");
}

struct Recycled {
    store: ChunkStore,
    partition: PartitionId,
    /// Odd while a deallocate-and-recreate is in flight; bumped before the
    /// deallocation and after the recreation.
    generation: AtomicU64,
    done: AtomicBool,
}

/// An acknowledged write: the generation it was allocated in if no recycle
/// came between its allocation and its read-back, its chunk and its body.
type Acked = (Option<u64>, ChunkId, Vec<u8>);

/// One committer's loop; returns every write acknowledged to it.
fn recycled_committer(r: &Recycled, t: u64, seed: u64) -> Vec<Acked> {
    let mut rng = seed ^ (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut seq = 0;
    let mut acked = Vec::new();
    while !r.done.load(Ordering::Acquire) {
        let before = r.generation.load(Ordering::SeqCst);
        let burst = next(&mut rng).is_multiple_of(16);
        let count = if burst { 8 } else { 1 };
        let mut writes = Vec::with_capacity(count);
        for _ in 0..count {
            let Ok(id) = r.store.allocate_chunk(r.partition) else {
                break;
            };
            let len = if burst {
                9000
            } else {
                64 + (next(&mut rng) % 1500) as usize
            };
            seq += 1;
            writes.push((id, recycled_body(t, seq, len)));
        }
        // One set per write, adjacent members of one batch.
        let sets = writes
            .iter()
            .map(|(id, bytes)| {
                vec![CommitOp::WriteChunk {
                    id: *id,
                    bytes: bytes.clone(),
                }]
            })
            .collect();
        let results = r.store.commit_many(sets);
        let reads: Vec<_> = writes.iter().map(|(id, _)| r.store.read(*id)).collect();
        let quiet = before.is_multiple_of(2) && r.generation.load(Ordering::SeqCst) == before;
        for (((id, body), result), read) in writes.into_iter().zip(results).zip(reads) {
            match result {
                Ok(()) => acked.push((quiet.then_some(before), id, body)),
                Err(e) => {
                    assert!(!quiet, "commit failed with no recycle around it: {e}");
                    assert!(!e.is_tamper(), "commit: {e}");
                }
            }
            // The other committer may have overwritten the chunk since,
            // from an allocation made before a recycle.
            match read {
                Ok(got) => assert_well_formed(&got),
                Err(e) => {
                    assert!(!quiet, "read failed with no recycle around it: {e}");
                    assert!(!e.is_tamper(), "read: {e}");
                }
            }
        }
        assert!(r.store.health().is_live(), "{:?}", r.store.health());
    }
    acked
}

/// Every chunk of `p`'s last incarnation holds a body acknowledged for it,
/// and every write acknowledged there with no recycle around it is written.
fn audit_recycled(store: &ChunkStore, p: PartitionId, acked: &[Acked], last: u64) {
    let written = store.written_ranks(p).unwrap();
    for (generation, id, _) in acked {
        if *generation == Some(last) {
            assert!(written.contains(&id.pos.rank), "{id:?} lost");
        }
    }
    for rank in written {
        let id = ChunkId::data(p, rank);
        let got = store.read(id).unwrap();
        assert!(
            acked.iter().any(|(_, a, body)| *a == id && *body == got),
            "{id:?} holds a body never acknowledged for it"
        );
    }
}

/// Returns the bodies the engine sealed under its lock.
fn run_recycled(rounds: u64, seed: u64) -> u64 {
    let mem = Arc::new(MemStore::new());
    let register = Arc::new(MemTrustedStore::new(64));
    let backend = || {
        TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(
            Arc::clone(&register) as Arc<dyn TrustedStore>
        )))
    };
    let secret = SecretKey::random(24);
    let store = ChunkStore::create(
        Arc::clone(&mem) as SharedUntrusted,
        backend(),
        secret.clone(),
        config(),
    )
    .unwrap();
    let partition = store.allocate_partition().unwrap();
    let create = || CommitOp::CreatePartition {
        id: partition,
        params: CryptoParams::paper_default(),
    };
    store.commit(vec![create()]).unwrap();
    let r = Recycled {
        store,
        partition,
        generation: AtomicU64::new(0),
        done: AtomicBool::new(false),
    };
    let acked: Vec<Acked> = std::thread::scope(|s| {
        let committers: Vec<_> = (0..2)
            .map(|t| {
                let r = &r;
                s.spawn(move || recycled_committer(r, t, seed))
            })
            .collect();
        let mut rng = seed | 1;
        for _ in 0..rounds {
            std::thread::sleep(std::time::Duration::from_micros(100 + next(&mut rng) % 900));
            r.generation.fetch_add(1, Ordering::SeqCst);
            let dealloc = CommitOp::DeallocPartition { id: partition };
            r.store.commit(vec![dealloc]).unwrap();
            assert_eq!(r.store.allocate_partition().unwrap(), partition);
            r.store.commit(vec![create()]).unwrap();
            r.generation.fetch_add(1, Ordering::SeqCst);
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.done.store(true, Ordering::Release);
        committers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect()
    });
    let last = r.generation.load(Ordering::SeqCst);
    audit_recycled(&r.store, partition, &acked, last);
    let sealed_under_lock = r.store.debug_bodies_sealed_under_lock();
    drop(r); // No close: recovery replays the residual log.
    let reopened = ChunkStore::open(
        Arc::new(MemStore::from_bytes(mem.image())) as SharedUntrusted,
        backend(),
        secret,
        config(),
    )
    .unwrap();
    audit_recycled(&reopened, partition, &acked, last);
    sealed_under_lock
}

#[test]
fn recycled_partition_under_two_committers() {
    run_recycled(24, 0x5EED_0001);
}

// -- Committed reads through sessions --------------------------------------
//
// An autocommit `Get` answers a cache hit with no lock and takes a shared
// lock only to miss. One writer session makes autocommit `Put`s of
// increasing values to a few hot ids and publishes each value once it is
// acknowledged; reader sessions `Get` those ids, now and then through a
// proof read (which reads the chunk store, not the cache) or after
// emptying the object cache (so misses race the commits too). Every read
// must be at least the value acknowledged before it began, at most the
// value last issued, and never lower than that reader's previous read of
// the id: a stale hit breaks the first bound or the last.

const HOT_IDS: usize = 4;
const VAL_TAG: u32 = 4001;

struct Val(u64);

impl tdb::StoredObject for Val {
    fn type_tag(&self) -> u32 {
        VAL_TAG
    }
    fn pickle(&self) -> Vec<u8> {
        // Padded to a few hundred bytes, so a miss decrypts and hashes.
        let mut out = self.0.to_le_bytes().to_vec();
        out.resize(512, 0x5A);
        out
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

fn unpickle_val(b: &[u8]) -> tdb_object::errors::Result<Arc<dyn tdb::StoredObject>> {
    let v = b
        .get(..8)
        .and_then(|v| v.try_into().ok())
        .ok_or_else(|| tdb_object::errors::ObjectError::BadPickle("val".into()))?;
    Ok(Arc::new(Val(u64::from_le_bytes(v))))
}

/// The value in a `Get` or `GetWithProof` reply (type tag + pickle).
fn val_of(resp: &tdb::Response) -> u64 {
    let record = match resp {
        tdb::Response::Record(r) | tdb::Response::VerifiedRecord { record: r, .. } => r,
        other => panic!("read answered {other:?}"),
    };
    u64::from_le_bytes(record[4..12].try_into().unwrap())
}

fn run_committed_reads(readers: usize, puts: u64) {
    use tdb::Command;
    let db = tdb::TrustedDbBuilder::new()
        .secret(SecretKey::new(vec![0x42; 24]))
        .register_type(VAL_TAG, unpickle_val)
        .build_in_memory()
        .unwrap();
    let record = |v: u64| tdb::TypeRegistry::pickle(&Val(v));
    let mut writer = db.session("writer");
    let ids: Vec<tdb::ObjectId> = (0..HOT_IDS)
        .map(|_| {
            match writer.dispatch(&Command::Create {
                partition: db.partition(),
                record: record(0),
            }) {
                tdb::Response::Id(id) => id,
                other => panic!("create answered {other:?}"),
            }
        })
        .collect();
    let issued: Vec<AtomicU64> = (0..HOT_IDS).map(|_| AtomicU64::new(0)).collect();
    let acked: Vec<AtomicU64> = (0..HOT_IDS).map(|_| AtomicU64::new(0)).collect();
    let done = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    std::thread::scope(|s| {
        for r in 0..readers {
            let (db, ids, issued, acked, done, reads) = (&db, &ids, &issued, &acked, &done, &reads);
            s.spawn(move || {
                let mut session = db.session(&format!("reader-{r}"));
                let mut last = [0u64; HOT_IDS];
                let mut n = 0u64;
                while !done.load(Ordering::SeqCst) {
                    n += 1;
                    let i = (n as usize + r) % HOT_IDS;
                    let cmd = if n.is_multiple_of(7) {
                        Command::GetWithProof(ids[i])
                    } else {
                        Command::Get(ids[i])
                    };
                    if n.is_multiple_of(53) {
                        db.objects().invalidate_cache();
                    }
                    let lo = acked[i].load(Ordering::SeqCst);
                    let v = val_of(&session.dispatch(&cmd));
                    let hi = issued[i].load(Ordering::SeqCst);
                    assert!(v >= lo, "reader {r}: id {i} read {v} after {lo} was acked");
                    assert!(
                        v <= hi,
                        "reader {r}: id {i} read {v}, never issued (last {hi})"
                    );
                    assert!(
                        v >= last[i],
                        "reader {r}: id {i} read {v} after reading {}",
                        last[i]
                    );
                    last[i] = v;
                }
                reads.fetch_add(n, Ordering::Relaxed);
            });
        }
        for v in 1..=puts {
            let i = v as usize % HOT_IDS;
            issued[i].store(v, Ordering::SeqCst);
            let resp = writer.dispatch(&Command::Put {
                id: ids[i],
                record: record(v),
            });
            assert_eq!(resp, tdb::Response::Ok, "put {v}");
            acked[i].store(v, Ordering::SeqCst);
        }
        done.store(true, Ordering::SeqCst);
    });
    assert!(reads.load(Ordering::Relaxed) > 0, "the readers ran");
}

#[test]
fn committed_reads_are_strict_under_a_writer() {
    run_committed_reads(2, 2_000);
}

// -- Torture variants for the CI --include-ignored pass --------------------

#[test]
#[ignore = "torture: long fault-free stress"]
fn torture_stress() {
    for readers in [2, 4, 8] {
        run_stress(readers, 1200);
    }
}

#[test]
#[ignore = "torture: seeded fault sweep"]
fn torture_faulted_sweep() {
    for seed in 0..8u64 {
        run_faulted(4, 300, 0x5EED_0000 + seed);
    }
}

#[test]
#[ignore = "torture: seeded partition-recycling sweep"]
fn torture_recycled_partition_sweep() {
    let sealed_under_lock: u64 = (0..8u64)
        .map(|seed| run_recycled(400, 0x5EED_1000 + seed))
        .sum();
    eprintln!("bodies the engine sealed under its lock: {sealed_under_lock}");
}

#[test]
#[ignore = "torture: long committed-read run"]
fn torture_committed_reads() {
    run_committed_reads(2, 40_000);
}
