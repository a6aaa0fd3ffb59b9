//! Experiment runners regenerating every table and figure of §9, the
//! ablations of the paper's design choices, and the one harness that
//! repeats and summarises them.
//!
//! Each experiment measures one run and returns one row per metric,
//! carrying the paper's value where §9 states one. [`summarize`] repeats an
//! experiment and reduces each metric to its quartiles. Absolute times
//! differ (450 MHz Pentium vs today), so EXPERIMENTS.md compares *shapes*:
//! orderings, ratios, and linearity.

use std::fmt::Debug;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdb::{BackupSpec, ChunkId, ChunkStore, ChunkStoreConfig, CommitOp, CryptoParams};
use tdb::{PartitionId, ValidationMode};
use tdb_core::backup::BackupStore;
use tdb_core::metrics::{self, modules};
use tdb_crypto::cbc::Cbc;
use tdb_crypto::{CipherKind, HashKind, SecretKey};
use tdb_storage::{BatchingStore, MemArchive, MemStore, RemoteStore, SharedUntrusted, SimClock};

use crate::fixtures::{bytes, chunk_store_with_partition, paper_config, IoMode, Platform};
use crate::regress::{ols, r_squared};
use crate::workload::{generate_stream, paper_counts, Kind, TdbWorkload, XdbWorkload};
use crate::workload::{rec_by_prefix, unpickle_rec, Rec, REC_TAG};

/// One measured number of one run of an experiment.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    metric: String,
    unit: &'static str,
    /// The paper's value, where §9 states one.
    paper: Option<f64>,
    value: f64,
}

fn row(metric: impl Into<String>, unit: &'static str, value: f64) -> Row {
    Row {
        metric: metric.into(),
        unit,
        paper: None,
        value,
    }
}

impl Row {
    fn paper(self, paper: impl Into<Option<f64>>) -> Row {
        Row {
            paper: paper.into(),
            ..self
        }
    }
}

/// One experiment `report` can select.
pub struct Experiment {
    /// The names that select it: its own first, then its figure or
    /// `micro` (the raw-mode micro-benchmarks E1–E8).
    pub names: &'static [&'static str],
    /// The workload stream's seed. E11 and E12 draw a new stream per run
    /// (run `r` uses `seed + r`); E10 replays the same one.
    seed: Option<u64>,
    /// Measures one run; the argument is the run's index.
    run: fn(usize) -> Vec<Row>,
}

const fn exp(
    names: &'static [&'static str],
    seed: Option<u64>,
    run: fn(usize) -> Vec<Row>,
) -> Experiment {
    Experiment { names, seed, run }
}

const E10_SEED: u64 = 11;
const E11_SEED: u64 = 100;
const E12_SEED: u64 = 500;
const SESSIONS_SEED: u64 = 1;

/// Every experiment, in report order.
pub const EXPERIMENTS: [Experiment; 14] = [
    exp(&["e1", "micro"], None, e1_crypto),
    exp(&["e2", "micro"], None, e2_store),
    exp(&["e3", "micro"], None, e3_allocate),
    exp(&["e4", "micro"], None, e4_commit_regression),
    exp(&["e5", "micro"], None, e5_read_regression),
    exp(&["e6", "micro"], None, e6_partition_ops),
    exp(&["e7", "micro"], None, e7_backup_regression),
    exp(&["e8", "micro"], None, e8_space),
    exp(&["e9", "fig9"], None, e9_code_complexity),
    exp(&["e10", "fig10"], Some(E10_SEED), e10_op_counts),
    exp(&["e11", "fig11"], Some(E11_SEED), e11_comparison),
    exp(&["e12", "fig12"], Some(E12_SEED), e12_breakdown),
    exp(&["ablations"], None, ablations),
    exp(&["sessions"], Some(SESSIONS_SEED), sessions),
];

/// The quartiles of `values` as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default, exclusive method, which extrapolates
/// beyond the extremes for fewer than four values). One value gives
/// itself three times, as Python 3.13 does (older Pythons raise); no
/// values give NaN.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n < 2 {
        return [data.first().copied().unwrap_or(f64::NAN); 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (4 * j) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

/// Runs `exp` `runs` times and reduces each metric it reports, in the
/// order it first reports them, to one JSON object: `experiment, metric,
/// unit, paper, seed, runs`, and the quartiles `q1, median, q3`.
pub fn summarize(exp: &Experiment, runs: usize) -> Vec<String> {
    let mut metrics: Vec<(Row, Vec<f64>)> = Vec::new();
    for run in 0..runs {
        for row in (exp.run)(run) {
            match metrics
                .iter_mut()
                .find(|(first, _)| first.metric == row.metric)
            {
                Some((_, values)) => values.push(row.value),
                None => metrics.push((row.clone(), vec![row.value])),
            }
        }
    }
    let num = |v: Option<f64>| {
        v.filter(|v| v.is_finite())
            .map_or("null".into(), |v| v.to_string())
    };
    let seed = exp.seed.map_or("null".into(), |s| s.to_string());
    let line = |(row, values): (Row, Vec<f64>)| {
        let [q1, median, q3] = quartiles(&values).map(|q| num(Some(q)));
        format!(
            r#"{{"experiment":"{}","metric":"{}","unit":"{}","paper":{},"seed":{seed},"runs":{},"q1":{q1},"median":{median},"q3":{q3}}}"#,
            exp.names[0],
            row.metric,
            row.unit,
            num(row.paper),
            values.len(),
        )
    };
    metrics.into_iter().map(line).collect()
}

fn mbps(bytes_done: usize, elapsed: Duration) -> f64 {
    bytes_done as f64 / elapsed.as_secs_f64() / (1024.0 * 1024.0)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn time<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed(), r)
}

/// Repeats `f` until at least ~50 ms elapsed, returning per-iteration time.
fn per_iter(mut f: impl FnMut()) -> Duration {
    // Warm up.
    f();
    let mut iters = 1u32;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(50) {
            return elapsed / iters;
        }
        iters *= 4;
    }
}

/// `name` as a metric-name component: lower case, words joined by `_`.
fn metric_name(name: impl Debug) -> String {
    format!("{name:?}")
        .trim_matches('"')
        .to_lowercase()
        .replace([' ', '-', '+'], "_")
}

/// Commits `op` alone.
fn commit(store: &ChunkStore, op: CommitOp) {
    store.commit(vec![op]).expect("commit");
}

/// Allocates a chunk in `p` and commits `body` to it.
fn write_new(store: &ChunkStore, p: PartitionId, body: Vec<u8>) -> ChunkId {
    let id = store.allocate_chunk(p).expect("allocate");
    commit(store, CommitOp::WriteChunk { id, bytes: body });
    id
}

// ---------------------------------------------------------------------------
// E1: cryptographic bandwidths (§9.2.1).
// ---------------------------------------------------------------------------

/// Measures cipher and hash bandwidths, as §9.2.1 reports, and the cost of
/// one 1000-byte row: what `tdbmark`'s kv workloads seal on a commit and
/// open on a read miss (`crypto.{encrypt,decrypt}_us_per_record`). A
/// 300-byte row, `goods-txn`'s, opens below the bitsliced DES kernel's
/// threshold, so both DES decryption regimes have a number. A batch of 256
/// rows, the kv preload's commit, encrypts as lanes of one
/// `Cbc::encrypt_many` call (`encrypt_batch_us`, per batch). These rows are
/// one CBC chain per buffer; the `*_body_*` rows seal and open the same
/// row as a version body is sealed, through `PartitionCrypto`: `CHAINS`
/// interleaved chains under chain IVs derived from a fresh IV.
fn e1_crypto(_run: usize) -> Vec<Row> {
    let buf = bytes(1, 1 << 20);
    let record = &buf[..1000];
    let short_record = &buf[..300];
    let mut rows = Vec::new();
    for (cipher, paper) in [
        (CipherKind::TripleDes, Some(2.5)),
        (CipherKind::Des, Some(7.2)),
        (CipherKind::Aes128, None),
        (CipherKind::Aes256, None),
    ] {
        let key = vec![0x42u8; cipher.key_len()];
        let cbc = Cbc::new(cipher, &key).expect("key");
        let iv = cbc.random_iv();
        let encrypt = |plain: &[u8]| {
            per_iter(|| {
                black_box(cbc.encrypt(&iv, black_box(plain)).expect("encrypt"));
            })
        };
        let decrypt = |plain: &[u8]| {
            let sealed = cbc.encrypt(&iv, plain).expect("encrypt");
            per_iter(|| {
                black_box(cbc.decrypt(&iv, black_box(&sealed)).expect("decrypt"));
            })
        };
        let mut batch: Vec<Vec<u8>> = (0..256).map(|_| buf[..1008].to_vec()).collect();
        let encrypt_batch = per_iter(|| {
            let mut jobs: Vec<_> = batch
                .iter_mut()
                .map(|row| (iv.as_slice(), row.as_mut_slice(), record.len()))
                .collect();
            cbc.encrypt_many(black_box(&mut jobs)).expect("encrypt");
        });
        // The same rows as a version body is sealed (format v4): `CHAINS`
        // interleaved chains under chain IVs derived from a fresh IV.
        let body = CryptoParams {
            cipher,
            hash: HashKind::Sha1,
            key: SecretKey::new(key.clone()),
        }
        .runtime()
        .expect("key");
        let encrypt_body = per_iter(|| {
            black_box(body.encrypt(black_box(record)));
        });
        let sealed_body = body.encrypt(record);
        let decrypt_body = per_iter(|| {
            black_box(body.decrypt(black_box(&sealed_body), 0).expect("decrypt"));
        });
        let sealed_len = body.sealed_len(record.len());
        let mut body_batch: Vec<Vec<u8>> = (0..256).map(|_| buf[..sealed_len].to_vec()).collect();
        let encrypt_body_batch = per_iter(|| {
            let mut bufs: Vec<_> = body_batch
                .iter_mut()
                .map(|row| (row.as_mut_slice(), record.len()))
                .collect();
            body.encrypt_many(black_box(&mut bufs));
        });
        let name = metric_name(cipher);
        let (enc, dec) = (
            mbps(buf.len(), encrypt(&buf)),
            mbps(buf.len(), decrypt(&buf)),
        );
        rows.extend([
            row(format!("{name}.encrypt_mib_s"), "MiB/s", enc).paper(paper),
            row(format!("{name}.decrypt_mib_s"), "MiB/s", dec).paper(paper),
            row(format!("{name}.encrypt_row_us"), "us", us(encrypt(record))),
            row(format!("{name}.encrypt_batch_us"), "us", us(encrypt_batch)),
            row(format!("{name}.decrypt_row_us"), "us", us(decrypt(record))),
            row(
                format!("{name}.decrypt_short_row_us"),
                "us",
                us(decrypt(short_record)),
            ),
            row(
                format!("{name}.encrypt_body_row_us"),
                "us",
                us(encrypt_body),
            ),
            row(
                format!("{name}.decrypt_body_row_us"),
                "us",
                us(decrypt_body),
            ),
            row(
                format!("{name}.encrypt_body_batch_us"),
                "us",
                us(encrypt_body_batch),
            ),
        ]);
    }
    for (hash, paper_mbps, paper_final) in [
        (HashKind::Sha1, Some(21.1), Some(5.0)),
        (HashKind::Sha256, None, None),
    ] {
        let d = per_iter(|| {
            black_box(hash.hash(black_box(&buf)));
        });
        let d0 = per_iter(|| {
            black_box(hash.hash(&[]));
        });
        let name = metric_name(hash);
        rows.extend([
            row(format!("{name}.mib_s"), "MiB/s", mbps(buf.len(), d)).paper(paper_mbps),
            row(format!("{name}.finalization_us"), "us", us(d0)).paper(paper_final),
        ]);
    }
    rows
}

// ---------------------------------------------------------------------------
// E2: store latency and bandwidth (§9.2.1).
// ---------------------------------------------------------------------------

/// Measures raw and modeled store characteristics. The paper gives ranges
/// (untrusted ~3.5–4.7 MB/s, flush 10–40 ms), so no row carries one value.
fn e2_store(_run: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for mode in [IoMode::Raw, IoMode::SimulatedDisk] {
        let store = Platform::new(mode).untrusted;
        let chunk = bytes(7, 64 * 1024);
        let offsets = || (0..64u64).map(|i| i * chunk.len() as u64);
        let (d_w, ()) =
            time(|| offsets().for_each(|at| store.write_at(at, &chunk).expect("write")));
        let (d_f, ()) = time(|| store.flush().expect("flush"));
        let mut back = vec![0u8; chunk.len()];
        let (d_r, ()) =
            time(|| offsets().for_each(|at| store.read_at(at, &mut back).expect("read")));
        let (name, bw) = (metric_name(mode), |d| mbps(64 * chunk.len(), d));
        rows.extend([
            row(format!("{name}.write_mib_s"), "MiB/s", bw(d_w)),
            row(format!("{name}.read_mib_s"), "MiB/s", bw(d_r)),
            row(format!("{name}.flush_ms"), "ms", ms(d_f)),
        ]);
    }
    rows
}

// ---------------------------------------------------------------------------
// E3: allocate chunk id (§9.2.2).
// ---------------------------------------------------------------------------

/// Measures id allocation, "the average latency is 6 µs".
fn e3_allocate(_run: usize) -> Vec<Row> {
    let platform = Platform::new(IoMode::Raw);
    let (store, p) = chunk_store_with_partition(&platform, paper_config());
    let d = per_iter(|| {
        let _ = store.allocate_chunk(p).expect("allocate");
    });
    vec![row("allocate_us", "us", us(d)).paper(6.0)]
}

// ---------------------------------------------------------------------------
// E4: write chunks + commit (§9.2.2).
// ---------------------------------------------------------------------------

/// Fits commit latency = a + b·chunks + c·bytes over the paper's sweep
/// ("sets of 1 to 128 chunks of sizes 128 bytes to 16 KB"), and times a
/// commit of two 64 KiB chunks (`commit_2x64k_ms`), which the sweep does
/// not reach.
fn e4_commit_regression(_run: usize) -> Vec<Row> {
    let platform = Platform::new(IoMode::Raw);
    let mut config = paper_config();
    config.segment_size = 256 * 1024;
    config.checkpoint_threshold = usize::MAX;
    let (store, p) = chunk_store_with_partition(&platform, config);
    // Write once so overwrites dominate (steady state).
    let first = |_| write_new(&store, p, bytes(1, 256));
    let ids: Vec<ChunkId> = (0..128).map(first).collect();

    let mut obs: Vec<(Vec<f64>, f64)> = Vec::new();
    for &n_chunks in &[1usize, 2, 4, 8, 16, 32, 64, 128] {
        for &size in &[128usize, 512, 2048, 8192, 16384] {
            let reps = (256 / n_chunks).clamp(2, 32);
            let mut total = Duration::ZERO;
            for rep in 0..reps {
                let ops: Vec<CommitOp> = ids
                    .iter()
                    .take(n_chunks)
                    .map(|&id| CommitOp::WriteChunk {
                        id,
                        bytes: bytes(rep as u64, size),
                    })
                    .collect();
                let (d, ()) = time(|| store.commit(ops).expect("commit"));
                total += d;
            }
            let point = vec![n_chunks as f64, (n_chunks * size) as f64];
            obs.push((point, us(total) / reps as f64));
        }
    }
    let beta = ols(&obs).expect("fit");
    // Two 64 KiB chunks under one DES key: the batch shape with the
    // fewest buffers to run as lanes, eight chains in all.
    let large = |rep: u64| -> Vec<CommitOp> {
        (ids.iter().take(2))
            .map(|&id| CommitOp::WriteChunk {
                id,
                bytes: bytes(rep, 64 * 1024),
            })
            .collect()
    };
    let reps = 8;
    let sets: Vec<Vec<CommitOp>> = (0..reps).map(large).collect();
    let (d, ()) = time(|| {
        sets.into_iter()
            .for_each(|set| store.commit(set).expect("commit"))
    });
    vec![
        row("fixed_us", "us", beta[0]).paper(132.0),
        row("per_chunk_us", "us", beta[1]).paper(36.0),
        row("per_byte_us", "us", beta[2]).paper(0.24),
        row("r2", "ratio", r_squared(&obs, &beta)),
        row("commit_2x64k_ms", "ms", ms(d) / reps as f64),
    ]
}

// ---------------------------------------------------------------------------
// E5: read chunk (§9.2.2).
// ---------------------------------------------------------------------------

/// Fits read latency = a + b·bytes with a warm descriptor cache, and
/// reports the cold-descriptor (map-walk) cost.
fn e5_read_regression(_run: usize) -> Vec<Row> {
    let platform = Platform::new(IoMode::Raw);
    let (store, p) = chunk_store_with_partition(&platform, paper_config());
    let mut obs = Vec::new();
    for &size in &[128usize, 512, 2048, 8192, 16384] {
        let id = write_new(&store, p, bytes(3, size));
        let d = per_iter(|| {
            let _ = store.read(id).expect("read");
        });
        obs.push((vec![size as f64], us(d)));
    }
    let beta = ols(&obs).expect("fit");

    // Cold descriptors: load many chunks, checkpoint, reopen (empty cache),
    // then read — each first read walks parental map chunks.
    let n = 4096u64;
    for i in 0..n {
        write_new(&store, p, bytes(i, 128));
    }
    store.checkpoint().expect("checkpoint");
    drop(store);
    let store = ChunkStore::open(
        Arc::clone(&platform.untrusted),
        platform.counter_backend(),
        platform.secret.clone(),
        paper_config(),
    )
    .expect("reopen");
    let (d_cold, ()) = time(|| {
        for i in (0..n).step_by(61) {
            let _ = store.read(ChunkId::data(p, i)).expect("cold read");
        }
    });
    vec![
        row("warm_fixed_us", "us", beta[0]).paper(47.0),
        row("warm_per_byte_us", "us", beta[1]).paper(0.18),
        row("warm_r2", "ratio", r_squared(&obs, &beta)),
        row("cold_read_us", "us", us(d_cold) / n.div_ceil(61) as f64),
    ]
}

// ---------------------------------------------------------------------------
// E6: write/copy partition (§9.2.2).
// ---------------------------------------------------------------------------

/// Measures partition creation and copy; copy must be size-independent
/// ("386 µs regardless of the number of chunks … owing to copy-on-write").
/// The paper's 223 µs is creation alone, so the create+drop pair carries
/// no paper value.
fn e6_partition_ops(_run: usize) -> Vec<Row> {
    let platform = Platform::new(IoMode::Raw);
    let (store, _) = chunk_store_with_partition(&platform, paper_config());
    let create = |id| CommitOp::CreatePartition {
        id,
        params: CryptoParams::paper_default(),
    };
    let d_create = per_iter(|| {
        let q = store.allocate_partition().expect("allocate");
        commit(&store, create(q));
        commit(&store, CommitOp::DeallocPartition { id: q });
    });
    let mut rows = vec![row("create_drop_us", "us", us(d_create))];

    for &n_chunks in &[10u64, 100, 1000, 10_000] {
        let src = store.allocate_partition().expect("allocate");
        commit(&store, create(src));
        for i in 0..n_chunks {
            write_new(&store, src, bytes(i, 128));
        }
        store.checkpoint().expect("checkpoint");
        let dst = store.allocate_partition().expect("allocate");
        let (d, ()) = time(|| commit(&store, CommitOp::CopyPartition { dst, src }));
        rows.push(row(format!("copy_{n_chunks}_chunks_us"), "us", us(d)).paper(386.0));
        commit(&store, CommitOp::DeallocPartition { id: src });
    }
    rows
}

// ---------------------------------------------------------------------------
// E7: backup creation (§9.2.3).
// ---------------------------------------------------------------------------

/// Fits incremental-backup latency = a + b·(chunks in partition) +
/// c·(updated chunks), and sizes = a + b·(updated chunks), with the
/// paper's 512-byte chunks.
fn e7_backup_regression(_run: usize) -> Vec<Row> {
    let platform = Platform::new(IoMode::Raw);
    let (store, p) = chunk_store_with_partition(&platform, paper_config());
    let archive = Arc::new(MemArchive::new());
    let backups = BackupStore::new(Arc::clone(&store), archive.clone());
    let backup = |base, name: &str| {
        let spec = BackupSpec { source: p, base };
        backups.backup(&[spec], name).expect("backup")
    };
    let dealloc = |id| commit(&store, CommitOp::DeallocPartition { id });

    let mut lat_obs: Vec<(Vec<f64>, f64)> = Vec::new();
    let mut size_obs: Vec<(Vec<f64>, f64)> = Vec::new();
    for &population in &[200u64, 800, 2000] {
        // (Re)populate to `population` 512-byte chunks.
        while store.written_ranks(p).expect("ranks").len() < population as usize {
            let id = store.allocate_chunk(p).expect("allocate");
            let body = bytes(id.pos.rank, 512);
            commit(&store, CommitOp::WriteChunk { id, bytes: body });
        }
        let base = backup(None, &format!("base-{population}"));
        for &updated in &[1usize, 10, 50, 100] {
            for rank in 0..updated as u64 {
                let (id, body) = (ChunkId::data(p, rank), bytes(rank ^ 0x5555, 512));
                commit(&store, CommitOp::WriteChunk { id, bytes: body });
            }
            let name = format!("incr-{population}-{updated}");
            let (d, info) = time(|| backup(Some(base.snapshots[0]), &name));
            let size = archive.size_of(&info.names[0]).expect("size");
            lat_obs.push((vec![population as f64, updated as f64], us(d)));
            size_obs.push((vec![updated as f64], size as f64));
            // Drop the throwaway snapshot to keep state bounded.
            dealloc(info.snapshots[0]);
        }
        dealloc(base.snapshots[0]);
    }
    let beta = ols(&lat_obs).expect("fit");
    let sbeta = ols(&size_obs).expect("fit");
    vec![
        row("latency_fixed_us", "us", beta[0]).paper(675.0),
        row("latency_per_chunk_us", "us", beta[1]).paper(9.0),
        row("latency_per_updated_us", "us", beta[2]).paper(278.0),
        row("latency_r2", "ratio", r_squared(&lat_obs, &beta)),
        row("size_fixed_b", "B", sbeta[0]).paper(456.0),
        row("size_per_updated_b", "B", sbeta[1]).paper(528.0),
        row("size_r2", "ratio", r_squared(&size_obs, &sbeta)),
    ]
}

// ---------------------------------------------------------------------------
// E8: space overhead (§9.3).
// ---------------------------------------------------------------------------

/// Writes 2000 new 512-byte chunks and checkpoints; returns the store and
/// its stored bytes per chunk beyond the 512 the application wrote.
fn e8_store(platform: &Platform, config: ChunkStoreConfig) -> (Arc<ChunkStore>, u64, f64) {
    let (store, p) = chunk_store_with_partition(platform, config);
    let n = 2000u64;
    let size = 512usize;
    for i in 0..n {
        write_new(&store, p, bytes(i, size));
    }
    store.checkpoint().expect("checkpoint");
    // Live bytes vs logical bytes.
    let live: u64 = store.utilization().iter().map(|&u| u64::from(u)).sum();
    let overhead = live.saturating_sub(n * size as u64) as f64 / n as f64;
    (store, live, overhead)
}

/// Measures per-chunk stored overhead, on the paper's suite and on the
/// default one, and post-cleaning utilization.
fn e8_space(_run: usize) -> Vec<Row> {
    let platform = Platform::new(IoMode::Raw);
    let config = paper_config();
    let seg_size = config.segment_size as u64;
    let (store, live, overhead) = e8_store(&platform, config);
    let (_, _, default_overhead) =
        e8_store(&Platform::new(IoMode::Raw), ChunkStoreConfig::default());
    // Log utilization after cleaning to steady state.
    let mut passes = 0;
    while store.clean(4).expect("clean") > 0 && passes < 64 {
        passes += 1;
    }
    // Utilization = live bytes / occupied (non-free) log space, the metric
    // §9.3 speaks of ("the space utilization may be kept as high as 90%").
    let occupied_segments = store.utilization().iter().filter(|&&u| u > 0).count() as u64;
    let utilization = live as f64 * 100.0 / (occupied_segments * seg_size).max(1) as f64;
    vec![
        row("overhead_b_per_chunk", "B", overhead).paper(52.0),
        row("default_suite_overhead_b_per_chunk", "B", default_overhead),
        row("occupied_segments", "count", occupied_segments as f64),
        row("cleaning_passes", "count", f64::from(passes)),
        row("utilization_pct", "%", utilization).paper(90.0),
    ]
}

// ---------------------------------------------------------------------------
// E9: code complexity (Figure 9).
// ---------------------------------------------------------------------------

/// Counts semicolons per module, as Figure 9 does for the original C++.
/// The chunk row's paper value adds the backup store's 516; the total's
/// includes 1070 of utilities.
fn e9_code_complexity(_run: usize) -> Vec<Row> {
    let roots = [
        ("collection store", "crates/collection/src", Some(1388.0)),
        ("object store", "crates/object/src", Some(512.0)),
        ("chunk+backup store", "crates/core/src", Some(3086.0)),
        ("crypto", "crates/crypto/src", None),
        ("storage", "crates/storage/src", None),
        ("xdb baseline", "crates/xdb/src", None),
        ("facade", "crates/tdb/src", None),
        ("bench harness", "crates/bench/src", None),
    ];
    let base = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut rows: Vec<Row> = roots
        .into_iter()
        .map(|(label, dir, paper)| {
            let count = count_semicolons(&base.join(dir)) as f64;
            row(metric_name(label), "semicolons", count).paper(paper)
        })
        .collect();
    let total = rows.iter().map(|r| r.value).sum();
    rows.push(row("total", "semicolons", total).paper(6056.0));
    rows
}

fn count_semicolons(dir: &std::path::Path) -> usize {
    let mut count = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                count += count_semicolons(&path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                if let Ok(text) = std::fs::read_to_string(&path) {
                    count += text.bytes().filter(|&b| b == b';').count();
                }
            }
        }
    }
    count
}

// ---------------------------------------------------------------------------
// E10: workload operation counts (Figure 10).
// ---------------------------------------------------------------------------

/// Counts the database operations bind and release issue; each must equal
/// the paper's.
fn e10_op_counts(_run: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for kind in [Kind::Release, Kind::Bind] {
        let (paper, name) = (paper_counts(kind), metric_name(kind));
        let mut w = TdbWorkload::setup(IoMode::Raw, 200, paper_config());
        let c = w.run(&generate_stream(kind, 200, E10_SEED)).counts;
        for (op, paper, measured) in [
            ("reads", paper.reads, c.reads),
            ("updates", paper.updates, c.updates),
            ("deletes", paper.deletes, c.deletes),
            ("adds", paper.adds, c.adds),
            ("commits", paper.commits, c.commits),
        ] {
            rows.push(row(format!("{name}.{op}"), "count", measured as f64).paper(paper as f64));
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// E11: runtime comparison (Figure 11).
// ---------------------------------------------------------------------------

/// Runs release and bind on TDB and on the layered-crypto XDB: under the
/// simulated 1999 disks, the paper's shape, and raw, the computational
/// cost alone. Setup is excluded throughout.
fn e11_comparison(run: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for kind in [Kind::Release, Kind::Bind] {
        let stream = generate_stream(kind, 200, E11_SEED + run as u64);
        let tdb = |mode| TdbWorkload::setup(mode, 200, paper_config()).run(&stream);
        let xdb = |mode| XdbWorkload::setup(mode, 200).run(&stream);
        let (t, x) = (tdb(IoMode::SimulatedDisk), xdb(IoMode::SimulatedDisk));
        let (raw_t, raw_x) = (tdb(IoMode::Raw), xdb(IoMode::Raw));
        let (name, ratio) = (metric_name(kind), ms(x.elapsed) / ms(t.elapsed));
        rows.extend([
            row(format!("{name}.tdb_ms"), "ms", ms(t.elapsed)),
            row(format!("{name}.tdb_commit_ms"), "ms", ms(t.commit_time)),
            row(format!("{name}.xdb_ms"), "ms", ms(x.elapsed)),
            row(format!("{name}.xdb_commit_ms"), "ms", ms(x.commit_time)),
            row(format!("{name}.xdb_over_tdb"), "ratio", ratio),
            row(format!("{name}.raw_tdb_ms"), "ms", ms(raw_t.elapsed)),
            row(format!("{name}.raw_xdb_ms"), "ms", ms(raw_x.elapsed)),
        ]);
    }
    rows
}

// ---------------------------------------------------------------------------
// E12: TDB runtime breakdown (Figure 12).
// ---------------------------------------------------------------------------

/// Runs the release experiment under the simulated 1999 disks with
/// per-module accounting: the Figure 12 rows, nested-call time excluded.
fn e12_breakdown(run: usize) -> Vec<Row> {
    // Figure 12's shares, in `modules::ALL`'s order.
    let paper_pct = [4.0, 2.0, 1.0, 4.0, 2.0, 0.0, 81.0, 5.0];
    let stream = generate_stream(Kind::Release, 200, E12_SEED + run as u64);
    let mut w = TdbWorkload::setup(IoMode::SimulatedDisk, 200, paper_config());
    metrics::enable();
    let total = ms(w.run(&stream).elapsed);
    metrics::disable();
    let snap = metrics::snapshot();
    let mut rows = vec![row("total_ms", "ms", total).paper(4209.0)];
    for (module, paper) in modules::ALL.into_iter().zip(paper_pct) {
        let name = metric_name(module);
        let self_ms = ms(snap.get(module).copied().unwrap_or_default());
        rows.push(row(format!("{name}_ms"), "ms", self_ms));
        rows.push(row(format!("{name}_pct"), "%", self_ms * 100.0 / total).paper(paper));
    }
    rows
}

// ---------------------------------------------------------------------------
// Ablations of the design choices DESIGN.md calls out.
// ---------------------------------------------------------------------------

/// A fresh raw-mode store with a ready partition, over `untrusted` when
/// given.
fn ablation_store(
    config: ChunkStoreConfig,
    untrusted: Option<SharedUntrusted>,
) -> (Arc<ChunkStore>, PartitionId) {
    let mut platform = Platform::new(IoMode::Raw);
    if let Some(untrusted) = untrusted {
        platform.untrusted = untrusted;
    }
    chunk_store_with_partition(&platform, config)
}

/// Microseconds for `n` autocommitted 512-byte writes to a fresh store,
/// checkpointing after each one when `checkpoint_each`.
fn time_commits(
    config: ChunkStoreConfig,
    untrusted: Option<SharedUntrusted>,
    n: u64,
    checkpoint_each: bool,
) -> f64 {
    let (store, p) = ablation_store(config, untrusted);
    let (d, ()) = time(|| {
        for i in 0..n {
            write_new(&store, p, bytes(i, 512));
            if checkpoint_each {
                store.checkpoint().expect("checkpoint");
            }
        }
    });
    us(d)
}

/// The five ablations, raw mode, each timing only its measured phase:
/// 1. checkpoint deferral (§4.7): the paper's deferred hash propagation vs
///    a checkpoint after every commit, 50 commits;
/// 2. the counter lag Δut (§4.8.2.2), 50 commits;
/// 3. the validation protocol (§4.8.2): counter vs direct hash, 50 commits;
/// 4. the revalidating cleaner (§4.9.5), one pass over eight 16 KiB
///    segments of churned versions;
/// 5. §10's remote untrusted store: one round trip per store operation vs
///    `BatchingStore`, over a 50 µs `RemoteStore` whose round trips are
///    accounted, not slept, 30 commits.
fn ablations(_run: usize) -> Vec<Row> {
    let commits = |config, checkpoint_each| time_commits(config, None, 50, checkpoint_each);
    let with = |validation| ChunkStoreConfig {
        validation,
        ..paper_config()
    };
    let mut timings = vec![
        (
            "checkpoint.deferred".to_string(),
            commits(paper_config(), false),
        ),
        (
            "checkpoint.eager".to_string(),
            commits(paper_config(), true),
        ),
    ];
    for delta_ut in [0u64, 1, 5, 20] {
        let lag = with(ValidationMode::Counter {
            delta_ut,
            delta_tu: 0,
        });
        timings.push((format!("counter_lag.dut{delta_ut}"), commits(lag, false)));
    }
    let direct = with(ValidationMode::DirectHash);
    timings.push(("validation.counter".into(), commits(paper_config(), false)));
    timings.push(("validation.direct_hash".into(), commits(direct, false)));
    let config = ChunkStoreConfig {
        segment_size: 16 * 1024,
        ..paper_config()
    };
    let (store, p) = ablation_store(config, None);
    // Churn to create obsolete versions across segments.
    let first = |_| write_new(&store, p, bytes(0, 512));
    let ids: Vec<ChunkId> = (0..50).map(first).collect();
    for round in 1..4u64 {
        for &id in &ids {
            commit(
                &store,
                CommitOp::WriteChunk {
                    id,
                    bytes: bytes(round, 512),
                },
            );
        }
    }
    store.checkpoint().expect("checkpoint");
    let (d, _) = time(|| store.clean(8).expect("clean"));
    timings.push(("cleaner.revalidating".into(), us(d)));
    for (label, batched) in [("unbatched", false), ("batched", true)] {
        let (mem, clock) = (Arc::new(MemStore::new()), Arc::new(SimClock::new(false)));
        let remote: SharedUntrusted =
            Arc::new(RemoteStore::new(mem, Duration::from_micros(50), clock));
        let untrusted = if batched {
            Arc::new(BatchingStore::new(remote))
        } else {
            remote
        };
        let d = time_commits(paper_config(), Some(untrusted), 30, false);
        timings.push((format!("remote.{label}"), d));
    }
    timings
        .into_iter()
        .map(|(metric, d)| row(metric + "_us", "us", d))
        .collect()
}

const GOOD_LEN: usize = 300;
const GOODS_COLLECTIONS: usize = 8;
const GOODS_PER_COLLECTION: u64 = 2048;
const GOODS_CATEGORIES: u64 = 256;
const SESSIONS_RUN: Duration = Duration::from_secs(4);

/// A good of the `sessions` experiment: a 300-byte record whose payload
/// starts with its `sku` (8 bytes, the sorted `prefix` index) and its
/// `category` (2 bytes), both big-endian so that raw keys sort as numbers.
fn good(sku: u64, fill: u8) -> Rec {
    let mut payload = vec![fill; GOOD_LEN - 1];
    payload[..8].copy_from_slice(&sku.to_be_bytes());
    payload[8..10].copy_from_slice(&((sku % GOODS_CATEGORIES) as u16).to_be_bytes());
    Rec {
        collection: 0,
        payload,
    }
}

fn good_by_category(o: &dyn tdb::StoredObject) -> Option<Vec<u8>> {
    let good = o.as_any().downcast_ref::<Rec>()?;
    Some(tdb::IndexKey::new().raw(&good.payload[8..10]).into_bytes())
}

/// SplitMix64: a seeded stream per session.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// An in-memory database with DES+SHA-1 goods: `GOODS_COLLECTIONS`
/// collections of `GOODS_PER_COLLECTION`, each with a sorted `sku` index
/// and an unsorted `category` index.
fn goods_db() -> (tdb::TrustedDb, Vec<tdb::CollectionId>) {
    let db = tdb::TrustedDbBuilder::new()
        .partition_params(CryptoParams::generate(CipherKind::Des, HashKind::Sha1))
        .register_type(REC_TAG, unpickle_rec)
        .register_extractor("sku", rec_by_prefix)
        .register_extractor("category", good_by_category)
        .build_in_memory()
        .expect("goods db");
    let colls = (0..GOODS_COLLECTIONS)
        .map(|c| {
            let coll = db
                .run(|tx| {
                    let colls = db.collections();
                    let coll = colls.create_collection(tx, db.partition(), &format!("goods{c}"))?;
                    colls.add_index(tx, coll, "sku", "sku", tdb::IndexKind::Sorted)?;
                    colls.add_index(tx, coll, "category", "category", tdb::IndexKind::Unsorted)?;
                    Ok(coll)
                })
                .expect("collection");
            for batch in 0..GOODS_PER_COLLECTION / 64 {
                db.run(|tx| {
                    for sku in batch * 64..(batch + 1) * 64 {
                        let good = Arc::new(good(sku, c as u8));
                        db.collections().insert(tx, coll, good)?;
                    }
                    Ok(())
                })
                .expect("load goods");
            }
            coll
        })
        .collect();
    (db, colls)
}

/// One session's goods transactions for `SESSIONS_RUN`: each picks a
/// collection and runs a `sku` range of up to 16 members, two lookups per
/// index, a get of every hit, 4 puts of hits, 1 insert, and the removal of
/// this session's insert from five transactions before, through
/// `TrustedDb::run`. Returns committed transactions, failed ones, and
/// attempts.
fn goods_session(
    db: &tdb::TrustedDb,
    colls: &[tdb::CollectionId],
    session: u64,
    seed: u64,
) -> (u64, u64, u64) {
    let mut rng = Mix(seed.wrapping_mul(0x100_0000_01B3) ^ session);
    let mut inserted = std::collections::VecDeque::new();
    let (mut committed, mut failed, mut attempts) = (0, 0, 0);
    let mut next_sku = (session + 1) << 32;
    let start = Instant::now();
    while start.elapsed() < SESSIONS_RUN {
        let coll = colls[rng.below(colls.len() as u64) as usize];
        let lo = rng.below(GOODS_PER_COLLECTION);
        let skus = [
            rng.below(GOODS_PER_COLLECTION),
            rng.below(GOODS_PER_COLLECTION),
        ];
        let cats = [rng.below(GOODS_CATEGORIES), rng.below(GOODS_CATEGORIES)];
        let puts: Vec<u64> = (0..4).map(|_| rng.below(1 << 16)).collect();
        let sku = next_sku;
        next_sku += 1;
        let remove = (inserted.len() >= 5)
            .then(|| inserted.pop_front())
            .flatten();
        let result = db.run(|tx| {
            attempts += 1;
            let colls = db.collections();
            let key = |k: &[u8]| tdb::IndexKey::new().raw(k).into_bytes();
            let sku_key = |k: u64| key(&k.to_be_bytes());
            let (lo, hi) = (sku_key(lo), sku_key(lo + 16));
            let mut hits = colls.range(tx, coll, "sku", Some(&lo), Some(&hi))?;
            for k in skus {
                hits.extend(colls.lookup(tx, coll, "sku", &sku_key(k))?);
            }
            for k in cats {
                let k = key(&(k as u16).to_be_bytes());
                hits.extend(colls.lookup(tx, coll, "category", &k)?);
            }
            let mut goods = Vec::with_capacity(hits.len());
            for &id in &hits {
                goods.push((id, tx.get::<Rec>(id)?));
            }
            if !goods.is_empty() {
                for &pick in &puts {
                    let (id, good) = &goods[pick as usize % goods.len()];
                    let mut payload = good.payload.clone();
                    payload[GOOD_LEN - 2] = payload[GOOD_LEN - 2].wrapping_add(1);
                    let collection = good.collection;
                    tx.put(
                        *id,
                        Arc::new(Rec {
                            collection,
                            payload,
                        }),
                    )?;
                }
            }
            let id = colls.insert(tx, coll, Arc::new(good(sku, 0)))?;
            if let Some((from, old)) = remove {
                colls.remove(tx, from, old)?;
            }
            Ok(id)
        });
        match result {
            Ok(id) => {
                committed += 1;
                inserted.push_back((coll, id));
            }
            Err(_) => {
                failed += 1;
                // The removal did not happen; retry it next time.
                if let Some(r) = remove {
                    inserted.push_front(r);
                }
            }
        }
    }
    (committed, failed, attempts)
}

/// Concurrent sessions under two-phase locking: 1, 2 and 4 threads run
/// `goods_session` on one database at once. Per session count: committed
/// transactions per second, failed transactions, and retries (attempts
/// beyond one per transaction).
fn sessions(run: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for n in [1u64, 2, 4] {
        let (db, colls) = goods_db();
        let seed = SESSIONS_SEED + run as u64;
        let (d, per_session) = time(|| {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..n)
                    .map(|i| {
                        let (db, colls) = (&db, &colls);
                        s.spawn(move || goods_session(db, colls, i, seed))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("session"))
                    .collect::<Vec<_>>()
            })
        });
        let (committed, failed, attempts) = per_session
            .iter()
            .fold((0, 0, 0), |(c, f, a), &(c2, f2, a2)| {
                (c + c2, f + f2, a + a2)
            });
        rows.push(row(
            format!("s{n}.committed_txns_s"),
            "txns/s",
            committed as f64 / d.as_secs_f64(),
        ));
        rows.push(row(format!("s{n}.failed_txns"), "count", failed as f64));
        rows.push(row(
            format!("s{n}.retries"),
            "count",
            (attempts - committed - failed) as f64,
        ));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(data, n=4), worked by hand; fewer than four
        // values extrapolate past the extremes, as Python does.
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), [1.25, 2.5, 3.75]);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert!(quartiles(&[]).iter().all(|q| q.is_nan()));
    }

    #[test]
    fn summaries_print_one_json_object_per_metric() {
        let run = |run| {
            vec![
                row("a_us", "us", run as f64).paper(2.0),
                row("b", "count", 1.0),
            ]
        };
        assert_eq!(
            summarize(&exp(&["x"], Some(5), run), 4),
            [
                r#"{"experiment":"x","metric":"a_us","unit":"us","paper":2,"seed":5,"runs":4,"q1":0.25,"median":1.5,"q3":2.75}"#,
                r#"{"experiment":"x","metric":"b","unit":"count","paper":null,"seed":5,"runs":4,"q1":1,"median":1,"q3":1}"#,
            ]
        );
    }

    #[test]
    fn ablations_report_every_metric_with_a_positive_time() {
        let rows = ablations(0);
        let metrics: Vec<&str> = rows.iter().map(|r| r.metric.as_str()).collect();
        let expected = "checkpoint.deferred checkpoint.eager counter_lag.dut0 counter_lag.dut1 \
                        counter_lag.dut5 counter_lag.dut20 validation.counter \
                        validation.direct_hash cleaner.revalidating \
                        remote.unbatched remote.batched";
        let expected: Vec<String> = expected
            .split_whitespace()
            .map(|m| m.to_string() + "_us")
            .collect();
        assert_eq!(metrics, expected);
        assert!(
            rows.iter().all(|r| r.value.is_finite() && r.value > 0.0),
            "{rows:?}"
        );
    }
}
