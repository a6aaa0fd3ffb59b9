//! Experiment runners regenerating every table and figure of §9.
//!
//! Each `eN` function prints the measured rows next to the paper's numbers.
//! Absolute times differ (450 MHz Pentium vs today), so EXPERIMENTS.md
//! compares *shapes*: orderings, ratios, and linearity.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdb::{BackupSpec, ChunkId, CommitOp, CryptoParams};
use tdb_core::backup::BackupStore;
use tdb_core::metrics::{self, modules};
use tdb_crypto::cbc::Cbc;
use tdb_crypto::{CipherKind, HashKind};
use tdb_storage::MemArchive;

use crate::fixtures::{bytes, chunk_store_with_partition, paper_config, IoMode, Platform};
use crate::regress::{ols, r_squared};
use crate::workload::{generate_stream, paper_counts, Kind, TdbWorkload, XdbWorkload};

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
