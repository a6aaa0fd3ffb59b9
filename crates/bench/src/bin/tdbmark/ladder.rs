//! The traced run of the key/value workloads: an entry-point ladder.
//!
//! A shortened op stream is replayed three ways: untraced through the
//! workload's own two-client loop (the throughput tracing is compared
//! with), traced through the same loop on a device that clocks every call,
//! and then by one thread at successive entry points of one more database —
//! chunk store, object store, session, wire codecs, `TdbClient::call` —
//! with a span around each call. A layer's *self* time for an op class is
//! its rung's median minus the median of the rung below; it stands in for
//! Figure 12's self time until the program records spans itself, and is
//! approximate: rungs run one after the other on a database that the
//! earlier rungs have already written to.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

use tdb::wire::{self, decode_request, decode_response, encode_request, encode_response};
use tdb::{verify_read_proof, Command, CommitOp, ReadProof, Response};
use tdb_storage::UntrustedStore;

use crate::gen::{fill_text, Rng};
use crate::kv::{
    self, clients, commands, embedded_client, epilogue, fill_window_metrics, plan, run_window,
    setup, Commands, Counters, Kind, KvSpec, KvWorld, Mix, Op, Plan, ANY_VERSION, TAIL_UPDATES,
};
use crate::spec::{RunCfg, RunResult, TRACE_FRACTION};
use crate::trace::{peak_rss_mb, timer_pair_ns, Span, SpanSummary, Tracer};
use crate::world::{system_params, Cipher, DeviceKind, REMOTE_ROUND_TRIP};

/// Calls per crypto primitive, pings, and ops replayed through the codecs.
const CRYPTO_REPS: usize = 300;
const PINGS: usize = 2000;
const WIRE_OPS: usize = 2000;
/// Explicit checkpoints the chunk-store rung times.
const CHECKPOINTS: usize = 3;

/// Whether the rung times an explicit checkpoint after op `i` of `n`:
/// `CHECKPOINTS` of them, spread evenly over the stream.
pub fn checkpoint_due(i: usize, n: usize) -> bool {
    (1..=CHECKPOINTS).any(|k| i + 1 == n * k / CHECKPOINTS)
}

pub fn call_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Get => "call_get",
        Kind::Verified => "call_verified_get",
        Kind::Put => "call_put",
        Kind::Clean => "call_clean",
    }
}

/// Times the partition's cipher and hash on one record, and — for
/// workloads that commit — the system cipher and the commit MAC.
pub fn crypto_rung(
    cipher: Cipher,
    record_size: usize,
    writes: bool,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let data = cipher
        .params()
        .runtime()
        .map_err(|e| format!("partition crypto: {e}"))?;
    let system = system_params()
        .runtime()
        .map_err(|e| format!("system crypto: {e}"))?;
    let mut body = vec![0u8; record_size.max(1024)];
    fill_text(&mut Rng::new(17), &mut body);
    let record = &body[..record_size];
    let sealed = data.encrypt(record);
    for i in 0..CRYPTO_REPS {
        tracer.time("crypto", "decrypt", i, || {
            black_box(data.decrypt(&sealed, 0)).is_ok()
        });
        tracer.time("crypto", "hash", i, || black_box(data.hash(record)));
        if writes {
            tracer.time("crypto", "encrypt", i, || black_box(data.encrypt(record)));
            tracer.time("crypto", "system_encrypt_kb", i, || {
                black_box(system.encrypt(&body[..1024]))
            });
            tracer.time("crypto", "mac", i, || {
                black_box(system.sign(&[&body[..64]]))
            });
        }
    }
    Ok(())
}

/// `ChunkStore::{read, read_with_proof, commit, clean, checkpoint}` on
/// client 0's stream. Returns the segments the cleaner reclaimed.
fn core_rung(world: &KvWorld, plan: &Plan, tracer: &mut Tracer) -> Result<u64, String> {
    let chunks = world.db.chunks();
    let device = world.device.base.stats();
    let reads_so_far = || device.reads.load(std::sync::atomic::Ordering::Relaxed);
    let mut records = plan.put_records.iter();
    let mut segments = 0u64;
    let has_puts = !plan.put_records.is_empty();
    for (i, op) in plan.ops.iter().enumerate() {
        let id = world.ids[op.key as usize].0;
        let measured = i >= plan.warm;
        let ok = match op.kind {
            Kind::Get => {
                let before = reads_so_far();
                let t0 = Instant::now();
                let body = chunks.read(id);
                let t1 = Instant::now();
                let name = if reads_so_far() > before {
                    "read_miss"
                } else {
                    "read_hit"
                };
                if measured {
                    tracer.record_between("core", name, i, t0, t1);
                }
                body.is_ok()
            }
            Kind::Verified => {
                let t0 = Instant::now();
                let out = chunks.read_with_proof(id);
                if measured {
                    tracer.record("core", "proof_read", i, t0);
                }
                out.is_ok()
            }
            Kind::Put => {
                let bytes = records.next().expect("one record per put").clone();
                let ops = vec![CommitOp::WriteChunk { id, bytes }];
                let t0 = Instant::now();
                let out = chunks.commit(ops);
                if measured {
                    tracer.record("core", "commit", i, t0);
                }
                out.is_ok()
            }
            Kind::Clean => {
                let t0 = Instant::now();
                let out = chunks.clean(4);
                if measured {
                    tracer.record("core", "clean", i, t0);
                }
                segments += *out.as_ref().unwrap_or(&0) as u64;
                out.is_ok()
            }
        };
        if !ok {
            return Err(format!("chunk-store rung: op {i} ({:?}) failed", op.kind));
        }
        if has_puts && checkpoint_due(i, plan.ops.len()) {
            let t0 = Instant::now();
            chunks
                .checkpoint()
                .map_err(|e| format!("chunk-store rung: checkpoint: {e}"))?;
            tracer.record("core", "checkpoint", i, t0);
        }
    }
    Ok(segments)
}

/// `ObjectStore::begin` → `Tx::{get_dyn, put, commit}`, the shape of the
/// session's autocommit. Proof reads bypass the object store.
fn object_rung(world: &KvWorld, plan: &Plan, tracer: &mut Tracer) -> Result<(), String> {
    let objects = world.db.objects();
    let mut records = plan.put_records.iter();
    for (i, op) in plan.ops.iter().enumerate() {
        let id = world.ids[op.key as usize];
        let measured = i >= plan.warm;
        let fail = |e: &dyn std::fmt::Display| format!("object-store rung: op {i}: {e}");
        match op.kind {
            Kind::Get => {
                let misses_before = objects.cache_stats().1;
                let t0 = Instant::now();
                let mut tx = objects.begin();
                let got = tx.get_dyn(id).map(black_box);
                let done = tx.commit();
                let t1 = Instant::now();
                got.map_err(|e| fail(&e))?;
                done.map_err(|e| fail(&e))?;
                let name = if objects.cache_stats().1 > misses_before {
                    "get_miss"
                } else {
                    "get_hit"
                };
                if measured {
                    tracer.record_between("object", name, i, t0, t1);
                }
            }
            Kind::Put => {
                let record = records.next().expect("one record per put");
                let t0 = Instant::now();
                let object = objects.unpickle_record(record).map_err(|e| fail(&e))?;
                let mut tx = objects.begin();
                tx.put(id, object).map_err(|e| fail(&e))?;
                tx.commit().map_err(|e| fail(&e))?;
                if measured {
                    tracer.record("object", "put_commit", i, t0);
                }
            }
            Kind::Verified | Kind::Clean => {}
        }
    }
    Ok(())
}

/// Mean payload sizes the codec rung saw.
#[derive(Default)]
struct WireBytes {
    ops: u64,
    request: u64,
    response: u64,
    proofs: u64,
    proof: u64,
}

/// The four envelope codecs on each op's real command and real response,
/// in-process, plus `verify_read_proof` on its own.
fn wire_rung(
    world: &KvWorld,
    plan: &Plan,
    cmds: &Commands,
    tracer: &mut Tracer,
) -> Result<WireBytes, String> {
    let mut session = world.db.session("tdbmark-wire");
    let mut bytes = WireBytes::default();
    let mut next_put = 0;
    for (i, op) in plan.ops.iter().enumerate().take(WIRE_OPS) {
        let cmd = match op.kind {
            Kind::Get | Kind::Verified => &cmds.reads[op.key as usize],
            Kind::Put => {
                next_put += 1;
                &cmds.puts[next_put - 1]
            }
            Kind::Clean => continue,
        };
        let resp = session.dispatch(cmd);
        if matches!(resp, Response::Error(_)) {
            return Err(format!("codec rung: op {i} answered {resp:?}"));
        }
        let t0 = Instant::now();
        let request = encode_request(i as u64, cmd);
        let decoded = decode_request(&request);
        let envelope = encode_response(i as u64, wire::health::LIVE, "", &resp);
        let back = decode_response(&envelope);
        tracer.record("wire", kv::op_name(op.kind), i, t0);
        if black_box(decoded).is_err() || black_box(back).is_err() {
            return Err(format!("codec rung: op {i} does not round-trip"));
        }
        bytes.ops += 1;
        bytes.request += request.len() as u64;
        bytes.response += envelope.len() as u64;
        if let (
            Response::VerifiedRecord {
                record,
                proof: Some(proof),
                ..
            },
            Some(pinned),
        ) = (&resp, &world.pinned)
        {
            let proof_len = proof.len() as u64;
            let proof = ReadProof::decode(proof).map_err(|e| format!("codec rung: {e}"))?;
            let t0 = Instant::now();
            let ok = verify_read_proof(&proof, record, pinned);
            tracer.record("client", "verify", i, t0);
            if !ok {
                return Err(format!("codec rung: proof of op {i} does not verify"));
            }
            bytes.proofs += 1;
            bytes.proof += proof_len;
        }
    }
    Ok(bytes)
}

/// `TdbClient::call` over loopback, one request at a time, with `Ping` as
/// the floor of a round trip through server and client.
fn call_rung(
    world: &mut KvWorld,
    plan: &Plan,
    cmds: &Commands,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let client = world.one_client().ok_or("call rung: no connection")?;
    for i in 0..PINGS {
        let t0 = Instant::now();
        client
            .call(&Command::Ping)
            .map_err(|e| format!("call rung: ping: {e}"))?;
        tracer.record("server", "ping", i, t0);
    }
    let mut next_put = 0;
    for (i, op) in plan.ops.iter().enumerate() {
        let cmd = match op.kind {
            Kind::Put => {
                next_put += 1;
                &cmds.puts[next_put - 1]
            }
            _ => &cmds.reads[op.key as usize],
        };
        let t0 = Instant::now();
        let resp = client.call(cmd);
        if i >= plan.warm {
            tracer.record("client", call_name(op.kind), i, t0);
        }
        black_box(resp).map_err(|e| format!("call rung: op {i}: {e}"))?;
    }
    Ok(())
}

/// Self time of a rung: its median less what the rung below accounts for,
/// and 0 for a rung the workload never enters.
fn self_us(rung: f64, below: f64) -> f64 {
    if rung > 0.0 {
        rung - below
    } else {
        0.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `storage.*`, the cache hit ratio and the server's counts, from the
/// counters read at the edges of a traced window that issued `reads` read
/// requests and `commits` commits carrying `user_bytes` of records.
pub fn storage_metrics(
    result: &mut RunResult,
    (b, a): (&Counters, &Counters),
    (reads, commits, user_bytes): (u64, u64, u64),
    wall_s: f64,
    remote: bool,
) {
    let untrusted = a.untrusted.since(&b.untrusted);
    let trusted = a.trusted.since(&b.trusted);
    let m = &mut result.metrics;
    m.insert("storage.reads_per_get", ratio(untrusted.reads, reads));
    m.insert(
        "storage.bytes_read_per_get",
        ratio(untrusted.bytes_read, reads),
    );
    m.insert(
        "storage.writes_per_commit",
        ratio(untrusted.writes, commits),
    );
    m.insert(
        "storage.flushes_per_commit",
        ratio(untrusted.flushes, commits),
    );
    m.insert(
        "storage.trusted_writes_per_commit",
        ratio(trusted.writes, commits),
    );
    m.insert(
        "storage.bytes_written_per_user_byte",
        ratio(untrusted.bytes_written, user_bytes),
    );
    let calls = a.device_calls - b.device_calls;
    let busy_ns = a.device_busy_ns - b.device_busy_ns;
    m.insert("storage.busy_share", busy_ns as f64 / (wall_s * 1e9));
    let overshoot = if remote && calls > 0 {
        busy_ns as f64 / calls as f64 / 1e3 - REMOTE_ROUND_TRIP.as_secs_f64() * 1e6
    } else {
        0.0
    };
    m.insert("storage.sleep_overshoot_us", overshoot);
    let (hits, misses) = (a.cache.0 - b.cache.0, a.cache.1 - b.cache.1);
    m.insert("object.cache_hit_ratio", ratio(hits, hits + misses));
    m.insert("server.requests", (a.server.0 - b.server.0) as f64);
    m.insert("server.errors", (a.server.1 - b.server.1) as f64);
}

/// The five `crypto.*` metrics from the crypto rung's spans.
pub fn crypto_metrics(result: &mut RunResult, s: &SpanSummary) {
    let m = &mut result.metrics;
    m.insert(
        "crypto.decrypt_us_per_record",
        s.p50_us("crypto", "decrypt"),
    );
    m.insert("crypto.hash_us_per_record", s.p50_us("crypto", "hash"));
    m.insert(
        "crypto.encrypt_us_per_record",
        s.p50_us("crypto", "encrypt"),
    );
    m.insert(
        "crypto.system_encrypt_us_per_kb",
        s.p50_us("crypto", "system_encrypt_kb"),
    );
    m.insert("crypto.mac_us", s.p50_us("crypto", "mac"));
}

/// Validity metrics of a traced run against its untraced pass.
pub fn harness_metrics(
    result: &mut RunResult,
    untraced_throughput: f64,
    traced_throughput: f64,
    spans: u64,
) {
    let m = &mut result.metrics;
    m.insert(
        "trace.overhead_pct",
        (untraced_throughput - traced_throughput) / untraced_throughput * 100.0,
    );
    m.insert("trace.spans", spans as f64);
    m.insert("trace.fraction", TRACE_FRACTION);
    m.insert("harness.timer_ns", timer_pair_ns());
    m.insert("process.peak_rss_mb", peak_rss_mb());
}

/// The traced run of a key/value workload. Returns the per-layer metrics
/// and every span recorded.
pub fn run_traced(spec: &KvSpec, cfg: &RunCfg) -> Result<(RunResult, Vec<Span>), String> {
    let ops = cfg.traced_ops(spec.ops_per_client_second);
    let plans = plan(spec, cfg.seed, clients(spec, cfg), ops);
    let read_only = matches!(spec.mix, Mix::ReadHotCold | Mix::VerifiedZipf);
    let mut result = RunResult::default();

    // The first database a process builds pays for the memory every later
    // one reuses; build one before the passes that are compared.
    drop(setup(spec, cfg, false)?);

    // Pass 1: the workload's own loop, tracing off.
    let mut plain = setup(spec, cfg, false)?;
    let untraced = run_window(spec, &mut plain, &plans, false)?;
    fill_window_metrics(&mut result, &untraced);

    // Pass 2: the same loop with spans on, over a device that clocks calls.
    let mut clocked = setup(spec, cfg, true)?;
    let traced = run_window(spec, &mut clocked, &plans, true)?;
    result.attempted += traced.attempted;
    result.absorb_failures(traced.failed, &traced.failures);
    storage_metrics(
        &mut result,
        (&traced.before, &traced.after),
        (traced.reads, traced.commits, traced.user_bytes),
        traced.wall_s,
        spec.device == DeviceKind::Remote,
    );
    let after = epilogue(spec, &mut clocked, &plans, false)?;
    result.absorb_failures(after.failed, &after.failures);
    result.metrics.insert("recovery_ms", after.recovery_ms);
    result.metrics.insert(
        "core.recovery_ms_per_1k_commits",
        after.recovery_ms / (TAIL_UPDATES as f64 / 1e3),
    );
    drop(clocked);

    // Pass 3: the ladder, one thread, client 0's stream. A read-only
    // workload left the first database as it was built, so reuse it.
    let mut world = if read_only {
        plain
    } else {
        drop(plain);
        setup(spec, cfg, false)?
    };
    // Every rung replays the same puts, so below the first one a read no
    // longer finds the version the stream predicts; only keys are checked.
    let stream = &Plan {
        ops: plans.clients[0]
            .ops
            .iter()
            .map(|op| Op {
                version: if op.kind == Kind::Put {
                    op.version
                } else {
                    ANY_VERSION
                },
                ..*op
            })
            .collect(),
        warm: plans.clients[0].warm,
        put_records: plans.clients[0].put_records.clone(),
    };
    let cmds = commands(spec, &world.ids, stream);
    let mut tracer = Tracer::new(true, 0, 4 * stream.ops.len() + 8 * CRYPTO_REPS + PINGS);
    crypto_rung(spec.cipher, spec.record_size, !read_only, &mut tracer)?;
    let segments = core_rung(&world, stream, &mut tracer)?;
    object_rung(&world, stream, &mut tracer)?;
    let mut session = world.db.session("tdbmark-ladder");
    let rung = embedded_client(
        &mut session,
        stream,
        &cmds,
        world.pinned.as_ref(),
        &Barrier::new(1),
        ("session", Tracer::new(true, 0, stream.ops.len())),
        spec.record_size,
    );
    drop(session);
    result.absorb_failures(rung.failed, &rung.failures);
    // Embedded workloads never encode a request: no codec or call rung.
    let net = spec.net_depth.is_some();
    let mut bytes = WireBytes::default();
    if net {
        bytes = wire_rung(&world, stream, &cmds, &mut tracer)?;
        call_rung(&mut world, stream, &cmds, &mut tracer)?;
    }
    drop(world);

    let mut s = SpanSummary::default();
    s.add(&tracer.spans);
    s.add(&rung.spans);
    crypto_metrics(&mut result, &s);
    let m = &mut result.metrics;
    let (decrypt, hash) = (s.p50_us("crypto", "decrypt"), s.p50_us("crypto", "hash"));
    let miss = s.p50_us("core", "read_miss");
    m.insert("core.read_hit_us", s.p50_us("core", "read_hit"));
    m.insert("core.read_miss_us", miss);
    m.insert("core.self_read_miss_us", self_us(miss, decrypt + hash));
    let commit = s.p50_us("core", "commit");
    let sealing = s.p50_us("crypto", "encrypt") + hash + s.p50_us("crypto", "mac");
    m.insert("core.commit_us", commit);
    m.insert("core.self_commit_us", self_us(commit, sealing));
    m.insert("core.checkpoint_ms", s.mean_us("core", "checkpoint") / 1e3);
    let clean_us = s.mean_us("core", "clean") * s.count("core", "clean") as f64;
    if segments > 0 {
        m.insert(
            "core.clean_ms_per_segment",
            clean_us / 1e3 / segments as f64,
        );
    }
    let proof_read = s.p50_us("core", "proof_read");
    m.insert("core.proof_read_us", proof_read);
    // A hit never enters the chunk store: all of it is the object store's.
    let get_hit = s.p50_us("object", "get_hit");
    m.insert("object.get_hit_us", get_hit);
    m.insert("object.self_get_hit_us", get_hit);
    m.insert("object.get_miss_us", s.p50_us("object", "get_miss"));
    let put_commit = s.p50_us("object", "put_commit");
    m.insert("object.put_commit_us", put_commit);
    m.insert("object.self_put_commit_us", self_us(put_commit, commit));
    // The rung below a session read: the object store for `Get`, the
    // chunk store's proof read for `GetWithProof`.
    let (read, below_read) = match spec.mix {
        Mix::VerifiedZipf => (Kind::Verified, proof_read),
        _ => (Kind::Get, get_hit),
    };
    let session_read = s.p50_us("session", kv::op_name(read));
    m.insert("session.self_get_us", session_read - below_read);
    m.insert(
        "session.self_put_us",
        self_us(s.p50_us("session", "put"), put_commit),
    );
    m.insert("wire.codec_us_per_get", s.p50_us("wire", "get"));
    m.insert("wire.codec_us_per_put", s.p50_us("wire", "put"));
    m.insert(
        "wire.codec_us_per_verified_get",
        s.p50_us("wire", "verified_get"),
    );
    m.insert("wire.request_bytes_per_op", ratio(bytes.request, bytes.ops));
    m.insert(
        "wire.response_bytes_per_op",
        ratio(bytes.response, bytes.ops),
    );
    m.insert(
        "wire.proof_bytes_per_verified_get",
        ratio(bytes.proof, bytes.proofs),
    );
    m.insert("server.ping_rtt_us", s.p50_us("server", "ping"));
    m.insert(
        "server.self_get_us",
        self_us(
            s.p50_us("client", call_name(read)),
            session_read + s.p50_us("wire", kv::op_name(read)),
        ),
    );
    m.insert("client.verify_us_per_get", s.p50_us("client", "verify"));
    let (plain_rate, traced_rate) = (untraced.throughput(), traced.throughput());
    let mut spans = traced.spans;
    spans.extend(tracer.spans);
    spans.extend(rung.spans);
    harness_metrics(&mut result, plain_rate, traced_rate, spans.len() as u64);
    Ok((result, spans))
}
