//! Experiment runners regenerating every table and figure of §9.
//!
//! Each `eN` function prints the measured rows next to the paper's numbers.
//! Absolute times differ (450 MHz Pentium vs today), so EXPERIMENTS.md
//! compares *shapes*: orderings, ratios, and linearity.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdb::{BackupSpec, ChunkId, ChunkStore, ChunkStoreConfig, CommitOp, CryptoParams};
use tdb_core::backup::BackupStore;
use tdb_core::metrics::{self, modules};
use tdb_crypto::cbc::Cbc;
use tdb_crypto::{CipherKind, HashKind};
use tdb_storage::MemArchive;

use crate::fixtures::{bytes, chunk_store_with_partition, paper_config, IoMode, Platform};
use crate::regress::{ols, r_squared};
use crate::workload::{
    generate_stream, paper_counts, Kind, TdbWorkload, XdbWorkload, YcsbConfig, YcsbDriver,
    YcsbWorkload,
};

fn mbps(bytes_done: usize, elapsed: Duration) -> f64 {
    bytes_done as f64 / elapsed.as_secs_f64() / (1024.0 * 1024.0)
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

// ---------------------------------------------------------------------------
// E1: cryptographic bandwidths (§9.2.1).
// ---------------------------------------------------------------------------

/// Measures cipher and hash bandwidths, as §9.2.1 reports.
pub fn e1_crypto() {
    println!("== E1: cryptographic operations (§9.2.1) ==");
    println!("paper: 3DES-CBC 2.5 MB/s, DES-CBC 7.2 MB/s, SHA-1 21.1 MB/s + 5 µs finalization");
    let buf = bytes(1, 1 << 20);
    // A 1000-byte row is what `tdbmark`'s kv workloads seal on a commit and
    // open on a read miss (`crypto.{encrypt,decrypt}_us_per_record`).
    let row = &buf[..1000];
    for cipher in [
        CipherKind::TripleDes,
        CipherKind::Des,
        CipherKind::Aes128,
        CipherKind::Aes256,
    ] {
        let key = vec![0x42u8; cipher.key_len()];
        let cbc = Cbc::new(cipher, &key).expect("key");
        let iv = cbc.random_iv();
        let sealed = cbc.encrypt(&iv, &buf).expect("encrypt");
        let sealed_row = cbc.encrypt(&iv, row).expect("encrypt");
        let enc = per_iter(|| {
            black_box(cbc.encrypt(&iv, black_box(&buf)).expect("encrypt"));
        });
        let dec = per_iter(|| {
            black_box(cbc.decrypt(&iv, black_box(&sealed)).expect("decrypt"));
        });
        let enc_row = per_iter(|| {
            black_box(cbc.encrypt(&iv, black_box(row)).expect("encrypt"));
        });
        let dec_row = per_iter(|| {
            black_box(cbc.decrypt(&iv, black_box(&sealed_row)).expect("decrypt"));
        });
        println!(
            "  {:?}-CBC: encrypt {:7.2} MB/s, decrypt {:7.2} MB/s; 1000-byte row: encrypt {:6.2} µs, decrypt {:6.2} µs",
            cipher,
            mbps(buf.len(), enc),
            mbps(buf.len(), dec),
            enc_row.as_secs_f64() * 1e6,
            dec_row.as_secs_f64() * 1e6,
        );
    }
    for hash in [HashKind::Sha1, HashKind::Sha256] {
        let d = per_iter(|| {
            let _ = hash.hash(&buf);
        });
        let d0 = per_iter(|| {
            let _ = hash.hash(&[]);
        });
        println!(
            "  {:?} hash: {:7.2} MB/s, finalization {:.2} µs",
            hash,
            mbps(buf.len(), d),
            d0.as_secs_f64() * 1e6
        );
    }
}

// ---------------------------------------------------------------------------
// E2: store latency and bandwidth (§9.2.1).
// ---------------------------------------------------------------------------

/// Measures raw and modeled store characteristics.
pub fn e2_store() {
    println!("== E2: store latency/bandwidth (§9.2.1) ==");
    println!("paper: untrusted ~3.5–4.7 MB/s, flush 10–40 ms; tamper-resistant ~5–18 ms/write");
    for mode in [IoMode::Raw, IoMode::SimulatedDisk] {
        let platform = Platform::new(mode);
        let chunk = bytes(7, 64 * 1024);
        let (d_w, ()) = time(|| {
            for i in 0..64u64 {
                platform
                    .untrusted
                    .write_at(i * chunk.len() as u64, &chunk)
                    .expect("write");
            }
        });
        let (d_f, ()) = time(|| platform.untrusted.flush().expect("flush"));
        let mut back = vec![0u8; chunk.len()];
        let (d_r, ()) = time(|| {
            for i in 0..64u64 {
                platform
                    .untrusted
                    .read_at(i * chunk.len() as u64, &mut back)
                    .expect("read");
            }
        });
        println!(
            "  {:?}: write {:7.1} MB/s, read {:7.1} MB/s, flush {:6.2} ms",
            mode,
            mbps(64 * chunk.len(), d_w),
            mbps(64 * chunk.len(), d_r),
            d_f.as_secs_f64() * 1e3,
        );
    }
}

// ---------------------------------------------------------------------------
// E3: allocate chunk id (§9.2.2).
// ---------------------------------------------------------------------------

/// Measures id allocation, "the average latency is 6 µs".
pub fn e3_allocate() {
    println!("== E3: allocate chunk id (§9.2.2) ==");
    println!("paper: 6 µs (no persistent state change)");
    let platform = Platform::new(IoMode::Raw);
    let (store, p) = chunk_store_with_partition(&platform, paper_config());
    let d = per_iter(|| {
        let _ = store.allocate_chunk(p).expect("allocate");
    });
    println!("  measured: {:.2} µs", d.as_secs_f64() * 1e6);
}

// ---------------------------------------------------------------------------
// E4: write chunks + commit (§9.2.2).
// ---------------------------------------------------------------------------

/// Fits commit latency = a + b·chunks + c·bytes over the paper's sweep
/// ("sets of 1 to 128 chunks of sizes 128 bytes to 16 KB").
pub fn e4_commit_regression() {
    println!("== E4: write chunks + commit (§9.2.2) ==");
    println!("paper: 132 µs + 36 µs/chunk + 0.24 µs/byte (computational)");
    let platform = Platform::new(IoMode::Raw);
    let mut config = paper_config();
    config.segment_size = 256 * 1024;
    config.checkpoint_threshold = usize::MAX;
    let (store, p) = chunk_store_with_partition(&platform, config);

    let mut ids = Vec::new();
    for _ in 0..128 {
        ids.push(store.allocate_chunk(p).expect("allocate"));
    }
    // Write once so overwrites dominate (steady state).
    for &id in &ids {
        store
            .commit(vec![CommitOp::WriteChunk {
                id,
                bytes: bytes(1, 256),
            }])
            .expect("seed");
    }

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
            let per_commit = total.as_secs_f64() * 1e6 / reps as f64;
            obs.push((vec![n_chunks as f64, (n_chunks * size) as f64], per_commit));
        }
    }
    let beta = ols(&obs).expect("fit");
    println!(
        "  measured: {:.0} µs + {:.2} µs/chunk + {:.4} µs/byte   (R² = {:.3})",
        beta[0],
        beta[1],
        beta[2],
        r_squared(&obs, &beta)
    );
}

// ---------------------------------------------------------------------------
// E5: read chunk (§9.2.2).
// ---------------------------------------------------------------------------

/// Fits read latency = a + b·bytes with a warm descriptor cache, and
/// reports the cold-descriptor (map-walk) cost.
pub fn e5_read_regression() {
    println!("== E5: read chunk (§9.2.2) ==");
    println!("paper: 47 µs + 0.18 µs/byte (cached descriptor); map chunks of 64 descriptors");
    let platform = Platform::new(IoMode::Raw);
    let (store, p) = chunk_store_with_partition(&platform, paper_config());
    let mut obs = Vec::new();
    for &size in &[128usize, 512, 2048, 8192, 16384] {
        let id = store.allocate_chunk(p).expect("allocate");
        store
            .commit(vec![CommitOp::WriteChunk {
                id,
                bytes: bytes(3, size),
            }])
            .expect("write");
        let d = per_iter(|| {
            let _ = store.read(id).expect("read");
        });
        obs.push((vec![size as f64], d.as_secs_f64() * 1e6));
    }
    let beta = ols(&obs).expect("fit");
    println!(
        "  warm: {:.0} µs + {:.4} µs/byte   (R² = {:.3})",
        beta[0],
        beta[1],
        r_squared(&obs, &beta)
    );

    // Cold descriptors: load many chunks, checkpoint, reopen (empty cache),
    // then read — each first read walks parental map chunks.
    let n = 4096u64;
    for i in 0..n {
        let id = store.allocate_chunk(p).expect("allocate");
        store
            .commit(vec![CommitOp::WriteChunk {
                id,
                bytes: bytes(i, 128),
            }])
            .expect("write");
    }
    store.checkpoint().expect("checkpoint");
    let (d_cold, ()) = time(|| {
        for i in (0..n).step_by(61) {
            let _ = store.read(ChunkId::data(p, i)).expect("cold read");
        }
    });
    let cold_reads = n.div_ceil(61);
    println!(
        "  cold (map walk): {:.0} µs/read over {} reads",
        d_cold.as_secs_f64() * 1e6 / cold_reads as f64,
        cold_reads
    );
}

// ---------------------------------------------------------------------------
// E6: write/copy partition (§9.2.2).
// ---------------------------------------------------------------------------

/// Measures partition creation and copy; copy must be size-independent
/// ("386 µs regardless of the number of chunks … owing to copy-on-write").
pub fn e6_partition_ops() {
    println!("== E6: write/copy partition (§9.2.2) ==");
    println!("paper: create 223 µs; copy 386 µs regardless of source size");
    let platform = Platform::new(IoMode::Raw);
    let (store, _) = chunk_store_with_partition(&platform, paper_config());

    let d_create = per_iter(|| {
        let q = store.allocate_partition().expect("allocate");
        store
            .commit(vec![CommitOp::CreatePartition {
                id: q,
                params: CryptoParams::paper_default(),
            }])
            .expect("create");
        store
            .commit(vec![CommitOp::DeallocPartition { id: q }])
            .expect("drop");
    });
    println!("  create+drop pair: {:.0} µs", d_create.as_secs_f64() * 1e6);

    for &n_chunks in &[10u64, 100, 1000, 10_000] {
        let src = store.allocate_partition().expect("allocate");
        store
            .commit(vec![CommitOp::CreatePartition {
                id: src,
                params: CryptoParams::paper_default(),
            }])
            .expect("create");
        for i in 0..n_chunks {
            let id = store.allocate_chunk(src).expect("allocate");
            store
                .commit(vec![CommitOp::WriteChunk {
                    id,
                    bytes: bytes(i, 128),
                }])
                .expect("write");
        }
        store.checkpoint().expect("checkpoint");
        let snap = store.allocate_partition().expect("allocate");
        let (d, ()) = time(|| {
            store
                .commit(vec![CommitOp::CopyPartition { dst: snap, src }])
                .expect("copy");
        });
        println!(
            "  copy of {:>6}-chunk partition: {:.0} µs",
            n_chunks,
            d.as_secs_f64() * 1e6
        );
        store
            .commit(vec![CommitOp::DeallocPartition { id: src }])
            .expect("drop");
    }
}

// ---------------------------------------------------------------------------
// E7: backup creation (§9.2.3).
// ---------------------------------------------------------------------------

/// Fits incremental-backup latency = a + b·(chunks in partition) +
/// c·(updated chunks), and sizes = a + b·(updated chunks), with the
/// paper's 512-byte chunks.
pub fn e7_backup_regression() {
    println!("== E7: incremental backup (§9.2.3) ==");
    println!("paper: 675 µs + 9 µs/chunk + 278 µs/updated chunk; size 456 B + 528 B/updated chunk");
    let platform = Platform::new(IoMode::Raw);
    let (store, p) = chunk_store_with_partition(&platform, paper_config());
    let archive = Arc::new(MemArchive::new());
    let backups = BackupStore::new(Arc::clone(&store), archive.clone());

    let mut lat_obs: Vec<(Vec<f64>, f64)> = Vec::new();
    let mut size_obs: Vec<(Vec<f64>, f64)> = Vec::new();
    for &population in &[200u64, 800, 2000] {
        // (Re)populate to `population` 512-byte chunks.
        while store.written_ranks(p).expect("ranks").len() < population as usize {
            let id = store.allocate_chunk(p).expect("allocate");
            store
                .commit(vec![CommitOp::WriteChunk {
                    id,
                    bytes: bytes(id.pos.rank, 512),
                }])
                .expect("write");
        }
        let base = backups
            .backup(
                &[BackupSpec {
                    source: p,
                    base: None,
                }],
                &format!("base-{population}"),
            )
            .expect("full backup");
        for &updated in &[1usize, 10, 50, 100] {
            for rank in 0..updated as u64 {
                store
                    .commit(vec![CommitOp::WriteChunk {
                        id: ChunkId::data(p, rank),
                        bytes: bytes(rank ^ 0x5555, 512),
                    }])
                    .expect("update");
            }
            let name = format!("incr-{population}-{updated}");
            let (d, info) = time(|| {
                backups
                    .backup(
                        &[BackupSpec {
                            source: p,
                            base: Some(base.snapshots[0]),
                        }],
                        &name,
                    )
                    .expect("incremental")
            });
            let size = archive.size_of(&info.names[0]).expect("size");
            lat_obs.push((
                vec![population as f64, updated as f64],
                d.as_secs_f64() * 1e6,
            ));
            size_obs.push((vec![updated as f64], size as f64));
            // Drop the throwaway snapshot to keep state bounded.
            store
                .commit(vec![CommitOp::DeallocPartition {
                    id: info.snapshots[0],
                }])
                .expect("drop snapshot");
        }
        store
            .commit(vec![CommitOp::DeallocPartition {
                id: base.snapshots[0],
            }])
            .expect("drop base");
    }
    let beta = ols(&lat_obs).expect("fit");
    println!(
        "  latency: {:.0} µs + {:.2} µs/chunk-in-partition + {:.0} µs/updated chunk (R² = {:.3})",
        beta[0],
        beta[1],
        beta[2],
        r_squared(&lat_obs, &beta)
    );
    let sbeta = ols(&size_obs).expect("fit");
    println!(
        "  size: {:.0} B + {:.0} B/updated chunk (R² = {:.3})",
        sbeta[0],
        sbeta[1],
        r_squared(&size_obs, &sbeta)
    );
}

// ---------------------------------------------------------------------------
// E8: space overhead (§9.3).
// ---------------------------------------------------------------------------

/// Measures per-chunk stored overhead and post-cleaning utilization.
pub fn e8_space() {
    println!("== E8: space overhead (§9.3) ==");
    println!("paper: ~52 B/chunk (8-byte-block cipher); map amortized by fanout 64; ~90% utilization with idle cleaning");
    let platform = Platform::new(IoMode::Raw);
    let (store, p) = chunk_store_with_partition(&platform, paper_config());
    let n = 2000u64;
    let size = 512usize;
    for i in 0..n {
        let id = store.allocate_chunk(p).expect("allocate");
        store
            .commit(vec![CommitOp::WriteChunk {
                id,
                bytes: bytes(i, size),
            }])
            .expect("write");
    }
    store.checkpoint().expect("checkpoint");
    // Live bytes vs logical bytes.
    let live: u64 = store.utilization().iter().map(|&u| u64::from(u)).sum();
    let logical = n * size as u64;
    println!(
        "  live-version overhead: {:.1} B/chunk over {}-byte chunks (live {} B / logical {} B)",
        (live.saturating_sub(logical)) as f64 / n as f64,
        size,
        live,
        logical
    );
    // Log utilization after cleaning to steady state.
    let mut passes = 0;
    while store.clean(4).expect("clean") > 0 && passes < 64 {
        passes += 1;
    }
    // Utilization = live bytes / occupied (non-free) log space, the metric
    // §9.3 speaks of ("the space utilization may be kept as high as 90%").
    let seg_size = 128 * 1024u64;
    let occupied_segments = store.utilization().iter().filter(|&&u| u > 0).count() as u64;
    let occupied = occupied_segments * seg_size;
    println!(
        "  {} occupied segments for {} B live after {} cleaning passes ({}% utilization)",
        occupied_segments,
        live,
        passes,
        live * 100 / occupied.max(1)
    );
}

// ---------------------------------------------------------------------------
// E9: code complexity (Figure 9).
// ---------------------------------------------------------------------------

/// Counts semicolons per module, as Figure 9 does for the original C++.
pub fn e9_code_complexity() {
    println!("== E9: code complexity (Figure 9) ==");
    println!("paper (C++ semicolons): collection 1388, object 512, backup 516, chunk 2570, util 1070, total 6056");
    let roots = [
        ("collection store", "crates/collection/src"),
        ("object store", "crates/object/src"),
        ("chunk+backup store", "crates/core/src"),
        ("crypto", "crates/crypto/src"),
        ("storage", "crates/storage/src"),
        ("xdb baseline", "crates/xdb/src"),
        ("facade", "crates/tdb/src"),
        ("bench harness", "crates/bench/src"),
    ];
    let base = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut total = 0usize;
    for (label, dir) in roots {
        let count = count_semicolons(&base.join(dir));
        total += count;
        println!("  {label:20} {count:>6} semicolons");
    }
    println!("  {:20} {total:>6} semicolons", "TOTAL");
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

/// Prints measured database-operation counts for bind and release.
pub fn e10_op_counts() {
    println!("== E10: operation counts (Figure 10) ==");
    println!("           read  update  delete  add  commit");
    for kind in [Kind::Release, Kind::Bind] {
        let paper = paper_counts(kind);
        let mut w = TdbWorkload::setup(IoMode::Raw, 200, paper_config());
        let stream = generate_stream(kind, 200, 11);
        let result = w.run(&stream);
        let c = result.counts;
        println!(
            "  {kind:?} paper    {:>4}  {:>6}  {:>6}  {:>3}  {:>6}",
            paper.reads, paper.updates, paper.deletes, paper.adds, paper.commits
        );
        println!(
            "  {kind:?} measured {:>4}  {:>6}  {:>6}  {:>3}  {:>6}",
            c.reads, c.updates, c.deletes, c.adds, c.commits
        );
    }
}

// ---------------------------------------------------------------------------
// E11: runtime comparison (Figure 11).
// ---------------------------------------------------------------------------

/// Runs release and bind on TDB and on the layered-crypto XDB under the
/// simulated 1999 disks, printing means over `runs` repetitions.
pub fn e11_comparison(runs: usize) {
    println!("== E11: runtime comparison, TDB vs XDB (Figure 11) ==");
    println!("paper: TDB outperforms XDB on both, 'primarily because of faster commits'");
    println!("mode: simulated 1999 disks (sleeping latency model)");
    for kind in [Kind::Release, Kind::Bind] {
        let mut tdb_times = Vec::new();
        let mut tdb_commit = Vec::new();
        let mut xdb_times = Vec::new();
        let mut xdb_commit = Vec::new();
        for run in 0..runs {
            let stream = generate_stream(kind, 200, 100 + run as u64);
            let mut t = TdbWorkload::setup(IoMode::SimulatedDisk, 200, paper_config());
            let r = t.run(&stream);
            tdb_times.push(r.elapsed);
            tdb_commit.push(r.commit_time);
            let mut x = XdbWorkload::setup(IoMode::SimulatedDisk, 200);
            let r = x.run(&stream);
            xdb_times.push(r.elapsed);
            xdb_commit.push(r.commit_time);
        }
        let stats = |v: &[Duration]| {
            let mean = v.iter().sum::<Duration>().as_secs_f64() * 1e3 / v.len() as f64;
            let var = v
                .iter()
                .map(|d| (d.as_secs_f64() * 1e3 - mean).powi(2))
                .sum::<f64>()
                / v.len() as f64;
            (mean, var.sqrt())
        };
        let (tm, ts) = stats(&tdb_times);
        let (tc, _) = stats(&tdb_commit);
        let (xm, xs) = stats(&xdb_times);
        let (xc, _) = stats(&xdb_commit);
        println!(
            "  {kind:?}: TDB {tm:8.0} ms (σ {ts:5.0}, commit {tc:8.0} ms) | XDB {xm:8.0} ms (σ {xs:5.0}, commit {xc:8.0} ms) | XDB/TDB = {:.2}x",
            xm / tm
        );
    }
}

// ---------------------------------------------------------------------------
// E12: TDB runtime breakdown (Figure 12).
// ---------------------------------------------------------------------------

/// Runs the release experiment with per-module accounting, printing the
/// Figure 12 rows (µ, σ, %), nested-call time excluded.
pub fn e12_breakdown(runs: usize) {
    println!("== E12: TDB runtime analysis, release experiment (Figure 12) ==");
    println!("paper: untrusted store write 81%, tamper-resistant 5%, encryption 4%, hashing 2%");
    println!("mode: simulated 1999 disks (sleeping latency model)");
    let mut totals: Vec<f64> = Vec::new();
    let mut per_module: std::collections::HashMap<&'static str, Vec<f64>> =
        std::collections::HashMap::new();
    for run in 0..runs {
        let stream = generate_stream(Kind::Release, 200, 500 + run as u64);
        let mut w = TdbWorkload::setup(IoMode::SimulatedDisk, 200, paper_config());
        metrics::enable();
        let result = w.run(&stream);
        metrics::disable();
        let snap = metrics::snapshot();
        totals.push(result.elapsed.as_secs_f64() * 1e3);
        for module in modules::ALL {
            per_module
                .entry(module)
                .or_default()
                .push(snap.get(module).copied().unwrap_or_default().as_secs_f64() * 1e3);
        }
    }
    let stats = |v: &[f64]| {
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64;
        (mean, var.sqrt())
    };
    let (total_mean, total_sd) = stats(&totals);
    println!(
        "  {:24} {:>9} {:>8} {:>5}",
        "module", "µ (ms)", "σ (ms)", "%"
    );
    println!(
        "  {:24} {:>9.0} {:>8.0} {:>5}",
        "DB TOTAL", total_mean, total_sd, 100
    );
    for module in modules::ALL {
        let (mean, sd) = stats(&per_module[module]);
        println!(
            "  {:24} {:>9.0} {:>8.0} {:>5.0}",
            module,
            mean,
            sd,
            mean * 100.0 / total_mean
        );
    }
}

// ---------------------------------------------------------------------------
// E13: concurrent read scaling (sharded read path vs. single lock).
// ---------------------------------------------------------------------------

const E13_CHUNKS: u64 = 64;
const E13_CHUNK_BYTES: usize = 1024;
const E13_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Builds a store with `read_shards` shards, a partition, and
/// `E13_CHUNKS` committed chunks, checkpointed so reads hit stable state.
fn e13_store(read_shards: usize) -> (Arc<ChunkStore>, Vec<ChunkId>) {
    let platform = Platform::new(IoMode::Raw);
    let config = ChunkStoreConfig {
        read_shards,
        read_cache_chunks: 2 * E13_CHUNKS as usize,
        ..paper_config()
    };
    let (store, p) = chunk_store_with_partition(&platform, config);
    for _ in 0..E13_CHUNKS {
        store.allocate_chunk(p).expect("allocate");
    }
    let ops = (0..E13_CHUNKS)
        .map(|rank| CommitOp::WriteChunk {
            id: ChunkId::data(p, rank),
            bytes: bytes(rank, E13_CHUNK_BYTES),
        })
        .collect();
    store.commit(ops).expect("commit");
    store.checkpoint().expect("checkpoint");
    let ids = (0..E13_CHUNKS).map(|rank| ChunkId::data(p, rank)).collect();
    (store, ids)
}

/// Aggregate read throughput (reads/s) with `threads` readers looping
/// round-robin over `ids` for `window`.
fn e13_throughput(store: &ChunkStore, ids: &[ChunkId], threads: usize, window: Duration) -> f64 {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    // Warm up: every chunk read once (populates the validated-body cache
    // where one exists, and faults nothing in the single-lock baseline).
    for id in ids {
        store.read(*id).expect("warm-up read");
    }
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let (stop, total) = (&stop, &total);
            s.spawn(move || {
                let mut i = t * ids.len() / threads;
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    store.read(ids[i % ids.len()]).expect("read");
                    i += 1;
                    n += 1;
                }
                total.fetch_add(n, Ordering::Relaxed);
            });
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = start.elapsed();
    total.load(std::sync::atomic::Ordering::Relaxed) as f64 / elapsed.as_secs_f64()
}

/// Measures aggregate read throughput at 1/2/4/8 reader threads for the
/// single-lock baseline (`read_shards = 0`) and the sharded read path,
/// printing the scaling table and recording it in
/// `BENCH_concurrent_read.json`.
pub fn e13_concurrent_read() {
    println!("== E13: concurrent read scaling (sharded read path) ==");
    println!(
        "workload: {} chunks x {} B, round-robin readers, in-memory store",
        E13_CHUNKS, E13_CHUNK_BYTES
    );
    let window = Duration::from_millis(300);
    let mut results: Vec<(&str, usize, Vec<f64>)> =
        vec![("single-lock", 0, Vec::new()), ("sharded", 16, Vec::new())];
    for (name, shards, rates) in &mut results {
        let (store, ids) = e13_store(*shards);
        for threads in E13_THREADS {
            rates.push(e13_throughput(&store, &ids, threads, window));
        }
        let stats = store.stats();
        println!(
            "  {:12} reads/s at 1/2/4/8 threads: {:>9.0} {:>9.0} {:>9.0} {:>9.0}  \
             (fast hits {}, fallbacks {})",
            name,
            rates[0],
            rates[1],
            rates[2],
            rates[3],
            stats.read_fast_hits,
            stats.read_fallbacks
        );
        store.close().expect("close");
    }
    let base = &results[0].2;
    let sharded = &results[1].2;
    let speedup = sharded[3] / base[3];
    println!("  sharded/single-lock aggregate at 8 threads: {speedup:.2}x");
    let row = |rates: &[f64]| {
        E13_THREADS
            .iter()
            .zip(rates)
            .map(|(t, r)| format!("\"{t}\": {r:.0}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let json = format!(
        "{{\n  \"experiment\": \"concurrent_read\",\n  \"chunks\": {},\n  \
         \"chunk_bytes\": {},\n  \"window_ms\": {},\n  \
         \"reads_per_sec\": {{\n    \"single_lock\": {{ {} }},\n    \
         \"sharded_16\": {{ {} }}\n  }},\n  \"speedup_8_threads\": {:.2}\n}}\n",
        E13_CHUNKS,
        E13_CHUNK_BYTES,
        window.as_millis(),
        row(base),
        row(sharded),
        speedup
    );
    let path = "BENCH_concurrent_read.json";
    std::fs::write(path, json).expect("write benchmark artifact");
    println!("  wrote {path}");
}

// ---------------------------------------------------------------------------
// E14: group-commit write throughput (batched vs one flush per commit).
// ---------------------------------------------------------------------------

const E14_THREADS: [usize; 4] = [1, 2, 4, 8];
const E14_CHUNK_BYTES: usize = 512;

/// A fast but flush-dominated disk: commits still pay positioning per
/// write and a large flush cost (the shape group commit attacks), but the
/// benchmark finishes in seconds rather than reproducing 1999 latencies.
fn e14_disk() -> tdb_storage::DiskModel {
    tdb_storage::DiskModel {
        seek: Duration::from_micros(100),
        rotational: Duration::from_micros(50),
        bandwidth: 200 * 1024 * 1024,
        flush: Duration::from_millis(2),
        flush_doubling_threshold: None,
    }
}

/// Builds a store over the simulated disk with group commit on or off,
/// plus `E14_THREADS.len()` chunks (one per committer thread). Returns the
/// store, the disk's I/O stats handle, and the chunk ids.
fn e14_store(group_commit: bool) -> (Arc<ChunkStore>, Arc<tdb_storage::StoreStats>, Vec<ChunkId>) {
    use tdb_storage::{
        CounterOverTrusted, MemStore, MemTrustedStore, SharedUntrusted, SimClock, SimDiskStore,
        TrustedStore,
    };
    let disk: SharedUntrusted = Arc::new(SimDiskStore::new(
        Arc::new(MemStore::new()) as SharedUntrusted,
        e14_disk(),
        Arc::new(SimClock::new(true)),
    ));
    let stats = disk.stats();
    let backend = tdb::TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(Arc::new(
        MemTrustedStore::new(64),
    )
        as Arc<dyn TrustedStore>)));
    let config = ChunkStoreConfig {
        group_commit,
        ..paper_config()
    };
    let store = Arc::new(
        ChunkStore::create(disk, backend, tdb_crypto::SecretKey::random(24), config)
            .expect("create chunk store"),
    );
    let p = store.allocate_partition().expect("allocate partition");
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: CryptoParams::paper_default(),
        }])
        .expect("create partition");
    let max_threads = *E14_THREADS.iter().max().expect("non-empty");
    let mut ids = Vec::with_capacity(max_threads);
    for _ in 0..max_threads {
        ids.push(store.allocate_chunk(p).expect("allocate chunk"));
    }
    (store, stats, ids)
}

/// Aggregate commit throughput (commits/s) with `threads` committers each
/// rewriting their own chunk for `window`, plus the untrusted-store write
/// and flush counts per commit over the run.
fn e14_throughput(
    store: &ChunkStore,
    stats: &tdb_storage::StoreStats,
    ids: &[ChunkId],
    threads: usize,
    window: Duration,
) -> (f64, f64, f64) {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let before = stats.snapshot();
    let start = Instant::now();
    std::thread::scope(|s| {
        for (t, &id) in ids.iter().enumerate().take(threads) {
            let (stop, total) = (&stop, &total);
            s.spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    store
                        .commit(vec![CommitOp::WriteChunk {
                            id,
                            bytes: bytes(t as u64, E14_CHUNK_BYTES),
                        }])
                        .expect("commit");
                    n += 1;
                }
                total.fetch_add(n, Ordering::Relaxed);
            });
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = start.elapsed();
    let commits = total.load(std::sync::atomic::Ordering::Relaxed).max(1);
    let io = stats.snapshot().since(&before);
    (
        commits as f64 / elapsed.as_secs_f64(),
        io.writes as f64 / commits as f64,
        io.flushes as f64 / commits as f64,
    )
}

/// Measures aggregate commit throughput at 1/2/4/8 committer threads with
/// group commit off (the paper's one-flush-per-commit write path) and on
/// (batched, presealed, coalesced), printing the scaling table plus
/// untrusted-store writes/flushes per commit and recording everything in
/// `BENCH_commit_throughput.json`.
pub fn e14_commit_throughput() {
    println!("== E14: group-commit write throughput ==");
    println!(
        "workload: per-thread single-chunk commits of {E14_CHUNK_BYTES} B, \
         flush-dominated simulated disk"
    );
    /// (commits/s, untrusted writes per commit, flushes per commit).
    type Rates = (f64, f64, f64);
    let window = Duration::from_millis(300);
    let mut results: Vec<(&str, bool, Vec<Rates>)> = vec![
        ("per-commit flush", false, Vec::new()),
        ("group commit", true, Vec::new()),
    ];
    for (name, group_commit, rows) in &mut results {
        let (store, stats, ids) = e14_store(*group_commit);
        for threads in E14_THREADS {
            rows.push(e14_throughput(&store, &stats, &ids, threads, window));
        }
        let s = store.stats();
        println!(
            "  {:16} commits/s at 1/2/4/8 threads: {:>7.0} {:>7.0} {:>7.0} {:>7.0}  \
             (batches {}, batched commits {})",
            name, rows[0].0, rows[1].0, rows[2].0, rows[3].0, s.commit_batches, s.batched_commits
        );
        println!(
            "  {:16} per-commit I/O at 8 threads: {:.2} writes, {:.2} flushes",
            "", rows[3].1, rows[3].2
        );
        store.close().expect("close");
    }
    let base = &results[0].2;
    let grouped = &results[1].2;
    let speedup = grouped[3].0 / base[3].0;
    println!("  group-commit/per-commit-flush aggregate at 8 threads: {speedup:.2}x");
    let row = |rows: &[(f64, f64, f64)]| {
        E14_THREADS
            .iter()
            .zip(rows)
            .map(|(t, r)| format!("\"{t}\": {:.0}", r.0))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let io = |r: &(f64, f64, f64)| format!("{{ \"writes\": {:.2}, \"flushes\": {:.2} }}", r.1, r.2);
    let json = format!(
        "{{\n  \"experiment\": \"commit_throughput\",\n  \"chunk_bytes\": {},\n  \
         \"window_ms\": {},\n  \
         \"commits_per_sec\": {{\n    \"per_commit_flush\": {{ {} }},\n    \
         \"group_commit\": {{ {} }}\n  }},\n  \
         \"io_per_commit_8_threads\": {{\n    \"per_commit_flush\": {},\n    \
         \"group_commit\": {}\n  }},\n  \"speedup_8_threads\": {:.2}\n}}\n",
        E14_CHUNK_BYTES,
        window.as_millis(),
        row(base),
        row(grouped),
        io(&base[3]),
        io(&grouped[3]),
        speedup
    );
    let path = "BENCH_commit_throughput.json";
    std::fs::write(path, json).expect("write benchmark artifact");
    println!("  wrote {path}");
}

// ---------------------------------------------------------------------------
// E15: cleaning under log pressure (background slices vs foreground clean).
// ---------------------------------------------------------------------------

const E15_THREADS: usize = 4;
const E15_COMMITS_PER_THREAD: usize = 250;
const E15_CHUNK_BYTES: usize = 512;
const E15_IDS_PER_THREAD: usize = 8;
const E15_MAX_SEGMENTS: u32 = 24;
const E15_SEGMENT_SIZE: u32 = 4096;

/// A bounded log the workload overwrites many times over: every commit
/// obsoletes an earlier version, so the store lives or dies by cleaning.
fn e15_config(background: bool) -> ChunkStoreConfig {
    ChunkStoreConfig {
        segment_size: E15_SEGMENT_SIZE,
        max_segments: E15_MAX_SEGMENTS,
        checkpoint_threshold: 16,
        background_maintenance: background,
        clean_slice_segments: 1,
        clean_low_water: 3,
        clean_high_water: 8,
        ..paper_config()
    }
}

fn e15_store(background: bool) -> (Arc<ChunkStore>, Vec<Vec<ChunkId>>) {
    use tdb_storage::{
        CounterOverTrusted, MemStore, MemTrustedStore, SharedUntrusted, SimClock, SimDiskStore,
        TrustedStore,
    };
    let disk: SharedUntrusted = Arc::new(SimDiskStore::new(
        Arc::new(MemStore::new()) as SharedUntrusted,
        e14_disk(),
        Arc::new(SimClock::new(true)),
    ));
    let backend = tdb::TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(Arc::new(
        MemTrustedStore::new(64),
    )
        as Arc<dyn TrustedStore>)));
    let store = Arc::new(
        ChunkStore::create(
            disk,
            backend,
            tdb_crypto::SecretKey::random(24),
            e15_config(background),
        )
        .expect("create chunk store"),
    );
    let p = store.allocate_partition().expect("allocate partition");
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: CryptoParams::paper_default(),
        }])
        .expect("create partition");
    let ids = (0..E15_THREADS)
        .map(|_| {
            (0..E15_IDS_PER_THREAD)
                .map(|_| store.allocate_chunk(p).expect("allocate chunk"))
                .collect()
        })
        .collect();
    (store, ids)
}

/// Runs the overwrite workload, returning every commit's client-observed
/// latency (including any inline maintenance the caller had to do) plus
/// aggregate throughput. Foreground mode does what a caller-driven store
/// must: watch the free-segment estimate and, below a low-water mark,
/// checkpoint and clean the whole backlog inside the commit path — a full
/// log has no room left to relocate into, so reacting to `OutOfSpace`
/// alone wedges. Background mode just commits; the maintenance thread's
/// slices and admission gate do the pacing.
fn e15_run(store: &ChunkStore, ids: &[Vec<ChunkId>], background: bool) -> (Vec<Duration>, f64) {
    use tdb_core::CoreError;
    let latencies = std::sync::Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for (t, my_ids) in ids.iter().enumerate() {
            let latencies = &latencies;
            s.spawn(move || {
                let mut mine = Vec::with_capacity(E15_COMMITS_PER_THREAD);
                for round in 0..E15_COMMITS_PER_THREAD {
                    let id = my_ids[round % my_ids.len()];
                    let commit_start = Instant::now();
                    if !background && store.free_segment_estimate().is_some_and(|free| free < 8) {
                        // Clean only the garbage-heavy tail of the backlog:
                        // relocating fully-live segments reclaims nothing
                        // and burns the very headroom cleaning needs.
                        let _ = store.checkpoint();
                        let _ = store.clean(8);
                    }
                    let mut patience = 100u32;
                    loop {
                        let ops = vec![CommitOp::WriteChunk {
                            id,
                            bytes: bytes((t * 1000 + round) as u64, E15_CHUNK_BYTES),
                        }];
                        match store.commit(ops) {
                            Ok(()) => break,
                            Err(CoreError::OutOfSpace) if patience > 0 => {
                                patience -= 1;
                                if background {
                                    std::thread::sleep(Duration::from_millis(1));
                                } else {
                                    let _ = store.checkpoint();
                                    let _ = store.clean(8);
                                }
                            }
                            Err(CoreError::DegradedMode(_)) if patience > 0 => {
                                patience -= 1;
                                let _ = store.try_heal();
                            }
                            Err(e) => panic!("commit failed: {e}"),
                        }
                    }
                    mine.push(commit_start.elapsed());
                }
                latencies.lock().unwrap().append(&mut mine);
            });
        }
    });
    let elapsed = start.elapsed();
    let latencies = latencies.into_inner().unwrap();
    let rate = latencies.len() as f64 / elapsed.as_secs_f64();
    (latencies, rate)
}

fn e15_percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Measures steady-state commit throughput and latency percentiles under
/// log pressure with caller-driven foreground cleaning vs the background
/// maintenance runtime (bounded slices + admission control), printing the
/// comparison and recording it in `BENCH_cleaner.json`.
pub fn e15_cleaner() {
    println!("== E15: cleaning under log pressure (foreground vs background) ==");
    println!(
        "workload: {E15_THREADS} threads x {E15_COMMITS_PER_THREAD} overwrites of \
         {E15_CHUNK_BYTES} B, {E15_MAX_SEGMENTS}-segment bounded log, \
         flush-dominated simulated disk"
    );
    let mut rows: Vec<(&str, f64, Duration, Duration)> = Vec::new();
    let mut background_stats = None;
    for (name, background) in [("foreground clean", false), ("background slices", true)] {
        let (store, ids) = e15_store(background);
        let (mut latencies, rate) = e15_run(&store, &ids, background);
        latencies.sort_unstable();
        let p50 = e15_percentile(&latencies, 0.50);
        let p99 = e15_percentile(&latencies, 0.99);
        let s = store.stats();
        println!(
            "  {:17} {:>7.0} commits/s, p50 {:>7.0} us, p99 {:>7.0} us  \
             (segments cleaned {}, slices {}, throttle waits {})",
            name,
            rate,
            p50.as_secs_f64() * 1e6,
            p99.as_secs_f64() * 1e6,
            s.segments_cleaned,
            s.clean_slices,
            s.commit_throttle_waits
        );
        if background {
            background_stats = Some(s);
        }
        rows.push((name, rate, p50, p99));
        store.close().expect("close");
    }
    let p99_improvement = rows[0].3.as_secs_f64() / rows[1].3.as_secs_f64();
    println!("  foreground/background p99 commit latency: {p99_improvement:.2}x");
    let stats = background_stats.expect("background run recorded stats");
    let mode = |r: &(&str, f64, Duration, Duration)| {
        format!(
            "{{ \"commits_per_sec\": {:.0}, \"p50_us\": {:.0}, \"p99_us\": {:.0} }}",
            r.1,
            r.2.as_secs_f64() * 1e6,
            r.3.as_secs_f64() * 1e6
        )
    };
    let json = format!(
        "{{\n  \"experiment\": \"cleaner\",\n  \"threads\": {},\n  \
         \"commits\": {},\n  \"chunk_bytes\": {},\n  \"max_segments\": {},\n  \
         \"segment_size\": {},\n  \"foreground_clean\": {},\n  \
         \"background_slices\": {},\n  \"background_maintenance\": {{\n    \
         \"segments_cleaned\": {},\n    \"chunks_relocated\": {},\n    \
         \"bytes_reclaimed\": {},\n    \"clean_slices\": {},\n    \
         \"maintenance_wakeups\": {},\n    \"commit_throttle_waits\": {}\n  }},\n  \
         \"p99_improvement\": {:.2}\n}}\n",
        E15_THREADS,
        E15_THREADS * E15_COMMITS_PER_THREAD,
        E15_CHUNK_BYTES,
        E15_MAX_SEGMENTS,
        E15_SEGMENT_SIZE,
        mode(&rows[0]),
        mode(&rows[1]),
        stats.segments_cleaned,
        stats.chunks_relocated,
        stats.bytes_reclaimed,
        stats.clean_slices,
        stats.maintenance_wakeups,
        stats.commit_throttle_waits,
        p99_improvement
    );
    let path = "BENCH_cleaner.json";
    std::fs::write(path, json).expect("write benchmark artifact");
    println!("  wrote {path}");
}

// ---------------------------------------------------------------------------
// E16: shard scaling (fleet throughput and migration under load).
// ---------------------------------------------------------------------------

const E16_THREADS: usize = 8;
const E16_CHUNK_BYTES: usize = 512;
const E16_FLEETS: [usize; 3] = [1, 2, 4];

/// A flush-dominated disk per shard: each shard's commit path is bound by
/// its own device latency, so a fleet's aggregate throughput measures how
/// well independent fault domains overlap their I/O, not CPU parallelism.
fn e16_disk() -> tdb_storage::DiskModel {
    tdb_storage::DiskModel {
        seek: Duration::from_micros(50),
        rotational: Duration::from_micros(25),
        bandwidth: 200 * 1024 * 1024,
        flush: Duration::from_millis(1),
        flush_doubling_threshold: None,
    }
}

/// Builds a `shards`-wide fleet, each shard over its own simulated disk,
/// with one logical partition (and one pre-written chunk) per committer
/// thread. The manager's least-loaded placement spreads the partitions
/// evenly across shards.
fn e16_fleet(shards: usize) -> (tdb::ShardManager, Vec<(tdb::LogicalId, u64)>) {
    use tdb::{ShardManager, ShardOp, ShardSpec, TrustedBackend};
    use tdb_storage::{
        ArchivalStore, CounterOverTrusted, MemStore, MemTrustedStore, SharedUntrusted, SimClock,
        SimDiskStore, TrustedStore,
    };
    let specs = (0..shards)
        .map(|_| ShardSpec {
            untrusted: Arc::new(SimDiskStore::new(
                Arc::new(MemStore::new()) as SharedUntrusted,
                e16_disk(),
                Arc::new(SimClock::new(true)),
            )) as SharedUntrusted,
            trusted: TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(Arc::new(
                MemTrustedStore::new(64),
            )
                as Arc<dyn TrustedStore>))),
            // One flush per commit: the scaling signal is shard count, not
            // batching.
            config: ChunkStoreConfig {
                group_commit: false,
                ..paper_config()
            },
        })
        .collect();
    let mgr = ShardManager::create(
        specs,
        Arc::new(MemStore::new()) as SharedUntrusted,
        Arc::new(MemArchive::new()) as Arc<dyn ArchivalStore>,
        tdb_crypto::SecretKey::random(24),
    )
    .expect("create shard fleet");
    let mut slots = Vec::with_capacity(E16_THREADS);
    for t in 0..E16_THREADS {
        let logical = mgr
            .create_partition(CryptoParams::paper_default())
            .expect("create logical partition");
        let rank = mgr.allocate_chunk(logical).expect("allocate chunk");
        mgr.commit(
            logical,
            vec![ShardOp::Write {
                rank,
                bytes: bytes(t as u64, E16_CHUNK_BYTES),
            }],
        )
        .expect("seed chunk");
        slots.push((logical, rank));
    }
    (mgr, slots)
}

/// Aggregate fleet throughput: one committer thread per logical partition,
/// each rewriting its own chunk through the manager for `window`.
fn e16_throughput(
    mgr: &tdb::ShardManager,
    slots: &[(tdb::LogicalId, u64)],
    window: Duration,
) -> f64 {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for (t, &(logical, rank)) in slots.iter().enumerate() {
            let (stop, total) = (&stop, &total);
            s.spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    mgr.commit(
                        logical,
                        vec![tdb::ShardOp::Write {
                            rank,
                            bytes: bytes(t as u64, E16_CHUNK_BYTES),
                        }],
                    )
                    .expect("commit");
                    n += 1;
                }
                total.fetch_add(n, Ordering::Relaxed);
            });
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    let commits = total.load(std::sync::atomic::Ordering::Relaxed).max(1);
    commits as f64 / start.elapsed().as_secs_f64()
}

/// Commit latency while a partition migrates between shards under load:
/// four writers keep committing (retrying transient `Busy` from the
/// cutover pause) while the victim partition moves to the other shard.
/// Returns (p50, p99, busy retries, migration wall time, outcome).
fn e16_migration_under_load() -> (Duration, Duration, u64, Duration, &'static str) {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use tdb_core::FaultClass;
    let (mgr, slots) = e16_fleet(2);
    let victim = slots[0].0;
    let (src, _) = mgr.locate(victim).expect("locate victim");
    let dst = tdb::ShardId(1 - src.0);
    let stop = AtomicBool::new(false);
    let busy = AtomicU64::new(0);
    let latencies = std::sync::Mutex::new(Vec::new());
    let mut outcome = "Pending";
    let mut migration = Duration::ZERO;
    let mgr = &mgr;
    std::thread::scope(|s| {
        for (t, &(logical, rank)) in slots.iter().take(4).enumerate() {
            let (stop, busy, latencies) = (&stop, &busy, &latencies);
            s.spawn(move || {
                let mut mine = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let start = Instant::now();
                    match mgr.commit(
                        logical,
                        vec![tdb::ShardOp::Write {
                            rank,
                            bytes: bytes(t as u64, E16_CHUNK_BYTES),
                        }],
                    ) {
                        Ok(()) => mine.push(start.elapsed()),
                        Err(e) if e.fault_class() == FaultClass::Transient => {
                            busy.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_micros(100));
                        }
                        Err(e) => panic!("commit under migration: {e}"),
                    }
                }
                latencies.lock().expect("latencies").extend(mine);
            });
        }
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        let result = mgr.migrate(victim, dst).expect("migrate under load");
        migration = start.elapsed();
        outcome = match result {
            tdb::MigrationOutcome::Completed => "Completed",
            tdb::MigrationOutcome::RolledBack => "RolledBack",
            tdb::MigrationOutcome::Pending => "Pending",
        };
        std::thread::sleep(Duration::from_millis(50));
        stop.store(true, Ordering::Relaxed);
    });
    let mut sorted = latencies.into_inner().expect("latencies");
    sorted.sort();
    let p50 = e15_percentile(&sorted, 0.50);
    let p99 = e15_percentile(&sorted, 0.99);
    mgr.close().expect("close fleet");
    (p50, p99, busy.load(Ordering::Relaxed), migration, outcome)
}

/// Measures aggregate commit throughput at 1/2/4 shards (8 committer
/// threads round-robined over the fleet by least-loaded placement) and
/// commit latency during an online partition migration, recording
/// everything in `BENCH_shard_scaling.json`.
pub fn e16_shard_scaling() {
    println!("== E16: shard scaling ==");
    println!(
        "workload: {E16_THREADS} threads, per-thread single-chunk commits of \
         {E16_CHUNK_BYTES} B, flush-dominated simulated disk per shard"
    );
    let window = Duration::from_millis(300);
    let mut rates = Vec::new();
    for shards in E16_FLEETS {
        let (mgr, slots) = e16_fleet(shards);
        let rate = e16_throughput(&mgr, &slots, window);
        println!("  {shards} shard(s): {rate:>7.0} commits/s");
        mgr.close().expect("close fleet");
        rates.push(rate);
    }
    let speedup = rates[2] / rates[0];
    println!("  4-shard/1-shard aggregate: {speedup:.2}x");
    let (p50, p99, busy, migration, outcome) = e16_migration_under_load();
    println!(
        "  migration under load: commit p50 {:.0} us, p99 {:.0} us, \
         {busy} transient-busy retries, migration {:.0} ms ({outcome})",
        p50.as_secs_f64() * 1e6,
        p99.as_secs_f64() * 1e6,
        migration.as_secs_f64() * 1e3,
    );
    let rows = E16_FLEETS
        .iter()
        .zip(&rates)
        .map(|(s, r)| format!("\"{s}\": {r:.0}"))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"experiment\": \"shard_scaling\",\n  \"threads\": {},\n  \
         \"chunk_bytes\": {},\n  \"window_ms\": {},\n  \
         \"commits_per_sec\": {{ {} }},\n  \"speedup_4_shards\": {:.2},\n  \
         \"migration_under_load\": {{\n    \"writer_threads\": 4,\n    \
         \"commit_p50_us\": {:.0},\n    \"commit_p99_us\": {:.0},\n    \
         \"busy_retries\": {},\n    \"migration_ms\": {:.0},\n    \
         \"outcome\": \"{}\"\n  }}\n}}\n",
        E16_THREADS,
        E16_CHUNK_BYTES,
        window.as_millis(),
        rows,
        speedup,
        p50.as_secs_f64() * 1e6,
        p99.as_secs_f64() * 1e6,
        busy,
        migration.as_secs_f64() * 1e3,
        outcome
    );
    let path = "BENCH_shard_scaling.json";
    std::fs::write(path, json).expect("write benchmark artifact");
    println!("  wrote {path}");
}

// ---------------------------------------------------------------------------
// E17: MVCC snapshot-isolation transaction throughput vs the paper's
// single-writer object layer (§7 has one transaction at a time; MVCC lets
// non-conflicting transactions prepare concurrently and ride one group
// commit).
// ---------------------------------------------------------------------------

const E17_THREADS: [usize; 4] = [1, 2, 4, 8];
const E17_PAYLOAD: usize = 256;

/// An object store over the flush-dominated simulated disk, group commit
/// on, with one pre-committed object per potential committer thread.
fn e17_objects(mvcc: bool) -> (Arc<tdb::ObjectStore>, Vec<tdb::ObjectId>) {
    use tdb::{ObjectStore, ObjectStoreConfig, TypeRegistry};
    use tdb_storage::{
        CounterOverTrusted, MemStore, MemTrustedStore, SharedUntrusted, SimClock, SimDiskStore,
        TrustedStore,
    };

    use crate::workload::{unpickle_rec, Rec, REC_TAG};

    let disk: SharedUntrusted = Arc::new(SimDiskStore::new(
        Arc::new(MemStore::new()) as SharedUntrusted,
        e14_disk(),
        Arc::new(SimClock::new(true)),
    ));
    let backend = tdb::TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(Arc::new(
        MemTrustedStore::new(64),
    )
        as Arc<dyn TrustedStore>)));
    let chunks = Arc::new(
        ChunkStore::create(
            disk,
            backend,
            tdb_crypto::SecretKey::random(24),
            ChunkStoreConfig {
                group_commit: true,
                ..paper_config()
            },
        )
        .expect("create chunk store"),
    );
    let p = chunks.allocate_partition().expect("allocate partition");
    chunks
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: CryptoParams::paper_default(),
        }])
        .expect("create partition");
    let mut registry = TypeRegistry::new();
    registry.register(REC_TAG, unpickle_rec);
    let objects = ObjectStore::new(
        chunks,
        registry,
        ObjectStoreConfig {
            mvcc,
            ..ObjectStoreConfig::default()
        },
    );
    let max_threads = *E17_THREADS.iter().max().expect("non-empty");
    let mut ids = Vec::with_capacity(max_threads);
    for t in 0..max_threads {
        let rec = Arc::new(Rec {
            collection: t as u8,
            payload: bytes(t as u64, E17_PAYLOAD),
        });
        let id = objects
            .run(|tx| tx.create(p, Arc::clone(&rec) as _))
            .expect("seed object");
        ids.push(id);
    }
    (objects, ids)
}

/// Transactions/s with `threads` committers, each rewriting its own
/// object for `window`. `single_writer_lock` models the paper's §7
/// discipline: one transaction system-wide, serialized externally.
fn e17_throughput(
    objects: &tdb::ObjectStore,
    ids: &[tdb::ObjectId],
    threads: usize,
    window: Duration,
    single_writer_lock: Option<&std::sync::Mutex<()>>,
) -> f64 {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    use crate::workload::Rec;

    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for (t, &id) in ids.iter().enumerate().take(threads) {
            let (stop, total) = (&stop, &total);
            s.spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let rec = Arc::new(Rec {
                        collection: t as u8,
                        payload: bytes(n ^ (t as u64) << 32, E17_PAYLOAD),
                    });
                    match single_writer_lock {
                        Some(lock) => {
                            let _guard = lock.lock().expect("single-writer lock");
                            objects
                                .run(|tx| tx.put(id, Arc::clone(&rec) as _))
                                .expect("single-writer commit");
                        }
                        None => {
                            objects
                                .run_mvcc(|tx| tx.put(id, Arc::clone(&rec) as _))
                                .expect("mvcc commit");
                        }
                    }
                    n += 1;
                }
                total.fetch_add(n, Ordering::Relaxed);
            });
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = start.elapsed();
    total.load(std::sync::atomic::Ordering::Relaxed).max(1) as f64 / elapsed.as_secs_f64()
}

/// Measures transactions/s at 1/2/4/8 threads for the externally
/// serialized single-writer path and for concurrent MVCC transactions on
/// the same store shape, printing the scaling table and recording it in
/// `BENCH_mvcc.json`.
pub fn e17_mvcc() {
    println!("== E17: MVCC transaction throughput ==");
    println!(
        "workload: per-thread single-object transactions of {E17_PAYLOAD} B, \
         flush-dominated simulated disk, group commit on"
    );
    let window = Duration::from_millis(300);

    let (objects, ids) = e17_objects(false);
    let lock = std::sync::Mutex::new(());
    let single: Vec<f64> = E17_THREADS
        .iter()
        .map(|&t| e17_throughput(&objects, &ids, t, window, Some(&lock)))
        .collect();
    drop(objects);

    let (objects, ids) = e17_objects(true);
    let mvcc: Vec<f64> = E17_THREADS
        .iter()
        .map(|&t| e17_throughput(&objects, &ids, t, window, None))
        .collect();
    let stats = objects.mvcc_stats().expect("mvcc stats");
    drop(objects);

    for (name, rows) in [("single writer", &single), ("mvcc", &mvcc)] {
        println!(
            "  {:14} txns/s at 1/2/4/8 threads: {:>7.0} {:>7.0} {:>7.0} {:>7.0}",
            name, rows[0], rows[1], rows[2], rows[3]
        );
    }
    let speedup = mvcc[3] / single[3];
    println!(
        "  mvcc/single-writer aggregate at 8 threads: {speedup:.2}x \
         ({} commits, {} conflicts)",
        stats.committed, stats.conflicts
    );
    let row = |rows: &[f64]| {
        E17_THREADS
            .iter()
            .zip(rows)
            .map(|(t, r)| format!("\"{t}\": {r:.0}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let json = format!(
        "{{\n  \"experiment\": \"mvcc_throughput\",\n  \"payload_bytes\": {},\n  \
         \"window_ms\": {},\n  \
         \"txns_per_sec\": {{\n    \"single_writer\": {{ {} }},\n    \
         \"mvcc\": {{ {} }}\n  }},\n  \
         \"mvcc_commits\": {},\n  \"mvcc_conflicts\": {},\n  \
         \"speedup_8_threads\": {:.2}\n}}\n",
        E17_PAYLOAD,
        window.as_millis(),
        row(&single),
        row(&mvcc),
        stats.committed,
        stats.conflicts,
        speedup
    );
    let path = "BENCH_mvcc.json";
    std::fs::write(path, json).expect("write benchmark artifact");
    println!("  wrote {path}");
}

// ---------------------------------------------------------------------------
// E18: validation overhead — lazy vs eager Merkle materialization.
// ---------------------------------------------------------------------------

const E18_CHUNKS: u64 = 1024;
const E18_CHUNK_BYTES: usize = 128;
const E18_ITERS: usize = 30;
const E18_QUERIES: usize = 6;

/// Builds a store (lazy or eager) holding `E18_CHUNKS` committed,
/// *uncheckpointed* chunks, so every root/proof query walks a fully dirty
/// tree — the worst case the accumulator attacks.
fn e18_store(lazy: bool, sealed: bool) -> (Arc<ChunkStore>, tdb::PartitionId, Vec<ChunkId>) {
    let platform = Platform::new(IoMode::Raw);
    let config = ChunkStoreConfig {
        // Never checkpoint during the run: the dirty tree must persist.
        checkpoint_threshold: 10_000_000,
        lazy_integrity: lazy,
        ..paper_config()
    };
    let store = Arc::new(
        ChunkStore::create(
            Arc::clone(&platform.untrusted),
            platform.counter_backend(),
            platform.secret.clone(),
            config,
        )
        .expect("create chunk store"),
    );
    let p = store.allocate_partition().expect("allocate partition");
    let params = if sealed {
        CryptoParams::generate(CipherKind::Des, HashKind::Sha1)
    } else {
        CryptoParams::generate(CipherKind::Null, HashKind::Null)
    };
    store
        .commit(vec![CommitOp::CreatePartition { id: p, params }])
        .expect("create partition");
    for _ in 0..E18_CHUNKS {
        store.allocate_chunk(p).expect("allocate");
    }
    let ops = (0..E18_CHUNKS)
        .map(|rank| CommitOp::WriteChunk {
            id: ChunkId::data(p, rank),
            bytes: bytes(rank, E18_CHUNK_BYTES),
        })
        .collect();
    store.commit(ops).expect("commit");
    let ids = (0..E18_CHUNKS).map(|rank| ChunkId::data(p, rank)).collect();
    (store, p, ids)
}

/// Iterations/s of the proof-heavy loop: one small overwrite commit
/// followed by `E18_QUERIES` root + proof queries against the dirty tree.
fn e18_throughput(store: &ChunkStore, p: tdb::PartitionId, ids: &[ChunkId]) -> f64 {
    let run = |iters: usize, offset: usize| {
        for i in offset..offset + iters {
            store
                .commit(vec![CommitOp::WriteChunk {
                    id: ids[i % ids.len()],
                    bytes: bytes(i as u64, E18_CHUNK_BYTES),
                }])
                .expect("commit");
            for q in 0..E18_QUERIES {
                let root = store.snapshot_root(p).expect("root");
                let pair = store
                    .read_with_proof(ids[(i * E18_QUERIES + q) % ids.len()])
                    .expect("proof");
                std::hint::black_box((root, pair));
            }
        }
    };
    run(2, 0); // Warm caches (map chunks, memo) outside the window.
    let start = Instant::now();
    run(E18_ITERS, 2);
    E18_ITERS as f64 / start.elapsed().as_secs_f64()
}

/// Measures the sealed-vs-plaintext throughput gap of a proof-heavy
/// workload under eager and lazy integrity, printing the comparison and
/// recording it in `BENCH_validation_overhead.json`. The headline number
/// is `gap_eager / gap_lazy`: how much of the validation overhead the
/// accumulator makes disappear.
pub fn e18_validation_overhead() {
    println!("== E18: validation overhead (lazy Merkle materialization) ==");
    println!(
        "workload: {} chunks x {} B, {} iterations of 1 commit + {} root/proof \
         queries on a dirty tree, in-memory store",
        E18_CHUNKS, E18_CHUNK_BYTES, E18_ITERS, E18_QUERIES
    );
    let mut tput = std::collections::BTreeMap::new();
    let mut lazy_counters = (0u64, 0u64);
    for lazy in [false, true] {
        for sealed in [false, true] {
            let (store, p, ids) = e18_store(lazy, sealed);
            let rate = e18_throughput(&store, p, &ids);
            let mode = if lazy { "lazy" } else { "eager" };
            let prot = if sealed { "sealed" } else { "plain" };
            println!("  {mode:5} {prot:6} {rate:>8.1} iters/s");
            if lazy && sealed {
                let stats = store.stats();
                lazy_counters = (stats.lazy_hash_hits, stats.lazy_hash_recomputes);
            }
            tput.insert(format!("{mode}_{prot}"), rate);
            store.close().expect("close");
        }
    }
    let gap_eager = tput["eager_plain"] / tput["eager_sealed"];
    let gap_lazy = tput["lazy_plain"] / tput["lazy_sealed"];
    let improvement = gap_eager / gap_lazy;
    println!("  sealed-vs-plaintext gap: eager {gap_eager:.2}x, lazy {gap_lazy:.2}x");
    println!(
        "  validation-gap shrink (eager/lazy): {improvement:.2}x \
         (memo hits {}, recomputes {})",
        lazy_counters.0, lazy_counters.1
    );
    let json = format!(
        "{{\n  \"experiment\": \"validation_overhead\",\n  \"chunks\": {},\n  \
         \"chunk_bytes\": {},\n  \"iterations\": {},\n  \"queries_per_commit\": {},\n  \
         \"iters_per_sec\": {{\n    \"eager_plain\": {:.1},\n    \"eager_sealed\": {:.1},\n    \
         \"lazy_plain\": {:.1},\n    \"lazy_sealed\": {:.1}\n  }},\n  \
         \"gap_eager\": {:.3},\n  \"gap_lazy\": {:.3},\n  \
         \"gap_improvement\": {:.3},\n  \
         \"lazy_hash_hits\": {},\n  \"lazy_hash_recomputes\": {}\n}}\n",
        E18_CHUNKS,
        E18_CHUNK_BYTES,
        E18_ITERS,
        E18_QUERIES,
        tput["eager_plain"],
        tput["eager_sealed"],
        tput["lazy_plain"],
        tput["lazy_sealed"],
        gap_eager,
        gap_lazy,
        improvement,
        lazy_counters.0,
        lazy_counters.1
    );
    let path = "BENCH_validation_overhead.json";
    std::fs::write(path, json).expect("write benchmark artifact");
    println!("  wrote {path}");
}

// ---------------------------------------------------------------------------
// E19: YCSB-style workload suite and chunk-body compression (ISSUE 9).
// ---------------------------------------------------------------------------

const E19_THREADS: [usize; 4] = [1, 2, 4, 8];
const E19_WORKLOADS: [YcsbWorkload; 4] = [
    YcsbWorkload::A,
    YcsbWorkload::B,
    YcsbWorkload::C,
    YcsbWorkload::E,
];

fn e19_config() -> YcsbConfig {
    YcsbConfig::default()
}

/// Runs the A/B/C/E suite at 1/2/4/8 threads with the compression knob
/// off and on, printing the throughput tables, then measures compression
/// effectiveness (log bytes appended, ratio, counters) on the
/// update-heavy workload A, recording `BENCH_ycsb.json` and
/// `BENCH_compression.json`.
pub fn e19_ycsb(seed: u64) {
    let cfg = e19_config();
    println!("== E19: YCSB-style suite (chunk-body compression) ==");
    println!(
        "workload: {} keys x {} B zipfian(0.99) records, {} ops/thread, \
         in-memory store, seed {seed:#x}",
        cfg.population, cfg.record_bytes, cfg.ops_per_thread
    );

    // -- Part 1: throughput suite, knob off vs on -------------------------
    let mut rates: std::collections::BTreeMap<String, Vec<f64>> = std::collections::BTreeMap::new();
    for compression in [false, true] {
        let mode = if compression { "on" } else { "off" };
        let driver = YcsbDriver::setup(
            ChunkStoreConfig {
                compression,
                ..paper_config()
            },
            cfg.clone(),
        );
        for wl in E19_WORKLOADS {
            let mut row = Vec::new();
            for threads in E19_THREADS {
                let res = driver.run(wl, threads, seed);
                row.push(res.ops_per_sec());
            }
            println!(
                "  {} compression {:3}  ops/s at 1/2/4/8 threads: \
                 {:>9.0} {:>9.0} {:>9.0} {:>9.0}",
                wl.letter(),
                mode,
                row[0],
                row[1],
                row[2],
                row[3]
            );
            rates.insert(format!("{}_{}", wl.letter(), mode), row);
        }
    }

    let row_json = |rates: &[f64]| {
        E19_THREADS
            .iter()
            .zip(rates)
            .map(|(t, r)| format!("\"{t}\": {r:.0}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut suite_rows = Vec::new();
    for wl in E19_WORKLOADS {
        for mode in ["off", "on"] {
            let key = format!("{}_{}", wl.letter(), mode);
            suite_rows.push(format!("    \"{key}\": {{ {} }}", row_json(&rates[&key])));
        }
    }
    let suite_json = suite_rows.join(",\n");
    let json = format!(
        "{{\n  \"experiment\": \"ycsb\",\n  \"population\": {},\n  \
         \"record_bytes\": {},\n  \"ops_per_thread\": {},\n  \
         \"distribution\": \"zipfian-0.99\",\n  \"ops_per_sec\": {{\n{}\n  }}\n}}\n",
        cfg.population, cfg.record_bytes, cfg.ops_per_thread, suite_json
    );
    let path = "BENCH_ycsb.json";
    std::fs::write(path, json).expect("write benchmark artifact");
    println!("  wrote {path}");

    // -- Part 2: compression effectiveness on workload A ------------------
    // Fresh stores so bytes_appended isolates one load + one A run.
    let mut appended = [0u64; 2];
    let mut commit_rate = [0f64; 2];
    let mut counters = (0u64, 0u64, 0u64);
    for (i, compression) in [false, true].into_iter().enumerate() {
        let driver = YcsbDriver::setup(
            ChunkStoreConfig {
                compression,
                ..paper_config()
            },
            cfg.clone(),
        );
        let res = driver.run(YcsbWorkload::A, 4, seed);
        let stats = driver.store.stats();
        appended[i] = stats.bytes_appended;
        commit_rate[i] = res.updates as f64 / res.elapsed.as_secs_f64();
        if compression {
            counters = (
                stats.bodies_compressed,
                stats.bodies_stored_raw,
                stats.log_bytes_saved,
            );
        }
    }
    let ratio = appended[0] as f64 / appended[1] as f64;
    println!(
        "  workload A log bytes: off {} on {} ({ratio:.2}x fewer)",
        appended[0], appended[1]
    );
    println!(
        "  workload A updates/s: off {:.0} on {:.0}; bodies compressed {}, \
         stored raw {}, log bytes saved {}",
        commit_rate[0], commit_rate[1], counters.0, counters.1, counters.2
    );
    if ratio < 1.5 {
        println!("  WARNING: compression ratio below the 1.5x target");
    }
    let json = format!(
        "{{\n  \"experiment\": \"compression\",\n  \"workload\": \"A\",\n  \
         \"threads\": 4,\n  \"record_bytes\": {},\n  \
         \"log_bytes_appended\": {{ \"off\": {}, \"on\": {} }},\n  \
         \"log_bytes_ratio\": {:.3},\n  \
         \"updates_per_sec\": {{ \"off\": {:.0}, \"on\": {:.0} }},\n  \
         \"bodies_compressed\": {},\n  \"bodies_stored_raw\": {},\n  \
         \"log_bytes_saved\": {}\n}}\n",
        cfg.record_bytes,
        appended[0],
        appended[1],
        ratio,
        commit_rate[0],
        commit_rate[1],
        counters.0,
        counters.1,
        counters.2
    );
    let path = "BENCH_compression.json";
    std::fs::write(path, json).expect("write benchmark artifact");
    println!("  wrote {path}");
}

// ---------------------------------------------------------------------------
// E20: multi-client server throughput. The network stack exists to feed
// group commit from many connections at once — N pipelined connections
// must beat one strict request/response connection by a wide margin.
// ---------------------------------------------------------------------------

/// One phase's operation tallies.
#[derive(Debug, Default, Clone, Copy)]
struct LoadTally {
    reads: u64,
    commits: u64,
    conflicts: u64,
}

impl LoadTally {
    fn ops(&self) -> u64 {
        self.reads + self.commits
    }
}

fn e20_record(key: u64, version: u64, bytes: usize) -> Vec<u8> {
    let mut out = crate::workload::REC_TAG.to_le_bytes().to_vec();
    out.push((key % 30) as u8);
    out.extend_from_slice(&crate::workload::ycsb_record(key, version, bytes));
    out
}

/// Runs a YCSB-A-style 50/50 read/update mix, time-boxed. Each worker
/// updates only its own shard of the keyspace (write-write conflicts are
/// the object store's story, not the transport's) but reads uniformly,
/// so read/write lock collisions still occur and must surface as typed
/// errors, never failures.
fn e20_mix<Op>(
    ids: &[tdb::ObjectId],
    worker: usize,
    workers: usize,
    seed: u64,
    deadline: Instant,
    record_bytes: usize,
    mut op: Op,
) -> LoadTally
where
    Op: FnMut(tdb::Command, &mut LoadTally),
{
    let mut state = seed ^ (worker as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let shard = ids.len() / workers;
    let own = &ids[worker * shard..(worker + 1) * shard];
    let mut tally = LoadTally::default();
    let mut version = 0u64;
    while Instant::now() < deadline {
        // A small burst per clock check keeps the timer overhead down.
        for _ in 0..8 {
            if next() % 100 < 50 {
                let key = (next() as usize) % ids.len();
                op(tdb::Command::Get(ids[key]), &mut tally);
            } else {
                let key = (next() as usize) % own.len();
                version += 1;
                op(
                    tdb::Command::Put {
                        id: own[key],
                        record: e20_record(key as u64, version, record_bytes),
                    },
                    &mut tally,
                );
            }
        }
    }
    tally
}

fn e20_count(cmd: &tdb::Command, resp: &tdb::Response, tally: &mut LoadTally) {
    match resp {
        tdb::Response::Error(_) => tally.conflicts += 1,
        _ => match cmd {
            tdb::Command::Get(_) => tally.reads += 1,
            _ => tally.commits += 1,
        },
    }
}

/// Measures end-to-end server throughput: an embedded baseline (same
/// sessions, no network), one strict request/response TCP connection,
/// and `connections` pipelined TCP connections, all on the same
/// workload; records `BENCH_server.json`. The headline: pipelined
/// connections must sustain at least 2x the one-at-a-time commit rate —
/// that is the group-commit batcher being fed properly.
///
/// The store sits behind a simulated network round trip (§10's remote
/// untrusted server, real sleeps) so a commit costs device latency, as it
/// does on any real device. That is the regime the server exists for: one
/// strict request/response connection serializes commit latencies, while
/// pipelined connections let the batcher amortize one flush across many
/// committers.
pub fn e20_server(connections: usize, seed: u64, duration: Duration) {
    use tdb_client::TdbClient;
    use tdb_server::{ServerConfig, TdbServer};
    use tdb_storage::{
        BatchingStore, CounterOverTrusted, MemStore, MemTrustedStore, RemoteStore, SharedUntrusted,
        SimClock, TrustedStore,
    };

    const AUTH_KEY: &[u8] = b"e20-load-generator-key";
    const POPULATION: u64 = 512;
    const RECORD_BYTES: usize = 400;
    const PIPELINE_DEPTH: usize = 8;
    const ROUND_TRIP: Duration = Duration::from_micros(300);

    println!("== E20: multi-client server throughput ==");
    println!(
        "{POPULATION} keys x {RECORD_BYTES} B, 50/50 read/update, \
         {connections} connections, pipeline depth {PIPELINE_DEPTH}, \
         {:.1} s per phase, seed {seed:#x}, device round trip {} us",
        duration.as_secs_f64(),
        ROUND_TRIP.as_micros()
    );

    let device = Arc::new(BatchingStore::new(Arc::new(RemoteStore::new(
        Arc::new(MemStore::new()) as SharedUntrusted,
        ROUND_TRIP,
        Arc::new(SimClock::new(true)),
    )) as SharedUntrusted));
    let register = Arc::new(MemTrustedStore::new(64));
    let db = Arc::new(
        tdb::TrustedDbBuilder::new()
            .register_type(crate::workload::REC_TAG, crate::workload::unpickle_rec)
            .create(
                device as SharedUntrusted,
                tdb::TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(
                    register as Arc<dyn TrustedStore>,
                ))),
                Arc::new(MemArchive::new()),
            )
            .expect("build db"),
    );
    let mut ids = Vec::with_capacity(POPULATION as usize);
    {
        let mut session = db.session("loader");
        for key in 0..POPULATION {
            match session.dispatch(&tdb::Command::Create {
                partition: db.partition(),
                record: e20_record(key, 0, RECORD_BYTES),
            }) {
                tdb::Response::Id(id) => ids.push(id),
                other => panic!("preload answered {other:?}"),
            }
        }
    }
    db.checkpoint().expect("preload checkpoint");

    // -- Phase 1: embedded sessions, no network ---------------------------
    let embedded_tally;
    let embedded_elapsed;
    {
        let start = Instant::now();
        let deadline = start + duration;
        embedded_tally = std::thread::scope(|s| {
            let handles: Vec<_> = (0..connections)
                .map(|w| {
                    let db = Arc::clone(&db);
                    let ids = &ids;
                    s.spawn(move || {
                        let mut session = db.session(&format!("embedded-{w}"));
                        e20_mix(
                            ids,
                            w,
                            connections,
                            seed,
                            deadline,
                            RECORD_BYTES,
                            |cmd, tally| {
                                let resp = session.dispatch(&cmd);
                                e20_count(&cmd, &resp, tally);
                            },
                        )
                    })
                })
                .collect();
            handles.into_iter().fold(LoadTally::default(), |acc, h| {
                let t = h.join().expect("embedded worker");
                LoadTally {
                    reads: acc.reads + t.reads,
                    commits: acc.commits + t.commits,
                    conflicts: acc.conflicts + t.conflicts,
                }
            })
        });
        embedded_elapsed = start.elapsed();
    }

    let mut server = TdbServer::spawn(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig::new(tdb_crypto::SecretKey::new(AUTH_KEY.to_vec())),
    )
    .expect("spawn server");
    let addr = server.addr();

    // -- Phase 2: one connection, strict request/response -----------------
    let serial_tally;
    let serial_elapsed;
    {
        let mut client = TdbClient::connect(addr, "serial", AUTH_KEY).expect("connect");
        let start = Instant::now();
        let deadline = start + duration;
        serial_tally = e20_mix(&ids, 0, 1, seed, deadline, RECORD_BYTES, |cmd, tally| {
            client.send(&cmd).expect("send");
            let (_, resp) = client.recv().expect("recv");
            e20_count(&cmd, &resp, tally);
        });
        serial_elapsed = start.elapsed();
    }

    // -- Phase 3: many pipelined connections ------------------------------
    let pipelined_tally;
    let pipelined_elapsed;
    {
        let start = Instant::now();
        let deadline = start + duration;
        pipelined_tally = std::thread::scope(|s| {
            let handles: Vec<_> = (0..connections)
                .map(|w| {
                    let ids = &ids;
                    s.spawn(move || {
                        let mut client = TdbClient::connect(addr, &format!("load-{w}"), AUTH_KEY)
                            .expect("connect");
                        // Commands in flight, oldest first, so responses
                        // (strictly ordered) can be tallied against them.
                        let mut in_flight: std::collections::VecDeque<tdb::Command> =
                            std::collections::VecDeque::new();
                        let mut tally = e20_mix(
                            ids,
                            w,
                            connections,
                            seed ^ 0xE20,
                            deadline,
                            RECORD_BYTES,
                            |cmd, tally| {
                                if in_flight.len() >= PIPELINE_DEPTH {
                                    let (_, resp) = client.recv().expect("recv");
                                    let sent = in_flight.pop_front().expect("in flight");
                                    e20_count(&sent, &resp, tally);
                                }
                                client.send(&cmd).expect("send");
                                in_flight.push_back(cmd);
                            },
                        );
                        while let Some(sent) = in_flight.pop_front() {
                            let (_, resp) = client.recv().expect("drain");
                            e20_count(&sent, &resp, &mut tally);
                        }
                        tally
                    })
                })
                .collect();
            handles.into_iter().fold(LoadTally::default(), |acc, h| {
                let t = h.join().expect("pipelined worker");
                LoadTally {
                    reads: acc.reads + t.reads,
                    commits: acc.commits + t.commits,
                    conflicts: acc.conflicts + t.conflicts,
                }
            })
        });
        pipelined_elapsed = start.elapsed();
    }
    server.shutdown();

    let rate = |t: &LoadTally, e: Duration| {
        (
            t.ops() as f64 / e.as_secs_f64().max(1e-9),
            t.commits as f64 / e.as_secs_f64().max(1e-9),
        )
    };
    let (embedded_ops, embedded_commits) = rate(&embedded_tally, embedded_elapsed);
    let (serial_ops, serial_commits) = rate(&serial_tally, serial_elapsed);
    let (pipelined_ops, pipelined_commits) = rate(&pipelined_tally, pipelined_elapsed);
    let speedup = pipelined_commits / serial_commits.max(1e-9);
    println!(
        "  embedded  ({connections} sessions):    {embedded_ops:>9.0} ops/s  \
         {embedded_commits:>8.0} commits/s  ({} conflicts)",
        embedded_tally.conflicts
    );
    println!(
        "  serial    (1 conn, no pipeline): {serial_ops:>9.0} ops/s  \
         {serial_commits:>8.0} commits/s  ({} conflicts)",
        serial_tally.conflicts
    );
    println!(
        "  pipelined ({connections} conns, depth {PIPELINE_DEPTH}): {pipelined_ops:>9.0} ops/s  \
         {pipelined_commits:>8.0} commits/s  ({} conflicts)",
        pipelined_tally.conflicts
    );
    println!("  pipelined vs serial commit throughput: {speedup:.2}x");
    if speedup < 2.0 {
        println!("  WARNING: pipelined speedup below the 2x target");
    }

    let json = format!(
        "{{\n  \"experiment\": \"server_load\",\n  \"connections\": {connections},\n  \
         \"pipeline_depth\": {PIPELINE_DEPTH},\n  \"seed\": {seed},\n  \
         \"duration_secs\": {:.3},\n  \"population\": {POPULATION},\n  \
         \"record_bytes\": {RECORD_BYTES},\n  \"mix\": \"50r/50u\",\n  \
         \"embedded\": {{ \"ops_per_sec\": {embedded_ops:.0}, \"commits_per_sec\": {embedded_commits:.0}, \"conflicts\": {} }},\n  \
         \"serial\": {{ \"ops_per_sec\": {serial_ops:.0}, \"commits_per_sec\": {serial_commits:.0}, \"conflicts\": {} }},\n  \
         \"pipelined\": {{ \"ops_per_sec\": {pipelined_ops:.0}, \"commits_per_sec\": {pipelined_commits:.0}, \"conflicts\": {} }},\n  \
         \"pipelined_vs_serial_commit_speedup\": {speedup:.3}\n}}\n",
        duration.as_secs_f64(),
        embedded_tally.conflicts,
        serial_tally.conflicts,
        pipelined_tally.conflicts
    );
    let path = "BENCH_server.json";
    std::fs::write(path, json).expect("write benchmark artifact");
    println!("  wrote {path}");
}
