//! The four key/value workloads: `kv-read` and `kv-update` through embedded
//! sessions, `net-read-verified` and `net-update` through `TdbServer` and
//! pipelined `TdbClient` connections.
//!
//! One op stream per client is generated from the seed before anything is
//! built; the same closed loop then runs it untraced (the end-to-end
//! numbers) and, in the traced run, with a span around every request.

use std::collections::VecDeque;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use tdb::{verify_read_proof, Command, ObjectId, ReadProof, Response, Session, TrustedDb};
use tdb_client::TdbClient;
use tdb_crypto::{HashValue, SecretKey};
use tdb_server::{ServerConfig, TdbServer};
use tdb_storage::StatsSnapshot;

use crate::gen::{permutation, Rng, Zipf};
use crate::hist::Hist;
use crate::spec::{RunCfg, RunResult};
use crate::trace::{Span, Tracer};
use crate::world::{
    self, audit_kv, create_db, kv_header, kv_record, preload_kv, reopen_after_crash,
    setup_repeatedly, Cipher, Device, DeviceKind, Epilogue,
};

const AUTH_KEY: &[u8] = b"tdbmark-pre-shared-key";
const ZIPF_THETA: f64 = 0.99;
/// `kv-read`: hot keys, and the share of requests that go to them.
const HOT_KEYS: usize = 512;
const HOT_PERCENT: u64 = 90;
/// `kv-update`: client 0 runs the cleaner at every this-many-th op.
const CLEAN_EVERY: usize = 2048;
const CLEAN_SEGMENTS: u64 = 4;
/// Single-session updates between the post-window checkpoint and the crash:
/// the log every workload's recovery replays, and acked writes its reopened
/// database must still hold. Confined to `TAIL_KEYS` keys (64 map chunks) so
/// that no threshold checkpoint cuts the residual log short.
pub const TAIL_UPDATES: usize = 512;
const TAIL_KEYS: usize = 4096;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    /// 100% `Get`: 90% zipfian over a hot set, 10% uniform over all keys.
    ReadHotCold,
    /// 50% `Get` zipfian over all keys, 50% `Put` zipfian over own keys.
    UpdateZipf,
    /// 100% `GetWithProof`, zipfian over all keys.
    VerifiedZipf,
    /// 50% `Get` uniform over all keys, 50% `Put` uniform over own keys.
    UpdateUniform,
}

pub struct KvSpec {
    pub records: usize,
    pub record_size: usize,
    pub cipher: Cipher,
    pub device: DeviceKind,
    /// Load-generator threads (sessions or connections) on two or more
    /// cores; one is used where there is a single core.
    pub clients: usize,
    /// Pipeline depth over TCP; `None` runs embedded sessions.
    pub net_depth: Option<usize>,
    pub mix: Mix,
    /// Frozen calibration: ops per client and second of measured window at
    /// the commit that added the benchmark, on the 2-core sandbox.
    pub ops_per_client_second: f64,
}

pub const KV_READ: KvSpec = KvSpec {
    records: 16384,
    record_size: 1000,
    cipher: Cipher::PaperDes,
    device: DeviceKind::Memory,
    clients: 2,
    net_depth: None,
    mix: Mix::ReadHotCold,
    ops_per_client_second: 65_000.0,
};

pub const KV_UPDATE: KvSpec = KvSpec {
    records: 16384,
    record_size: 1000,
    cipher: Cipher::PaperDes,
    device: DeviceKind::Memory,
    clients: 2,
    net_depth: None,
    mix: Mix::UpdateZipf,
    ops_per_client_second: 1_350.0,
};

pub const NET_READ_VERIFIED: KvSpec = KvSpec {
    records: 4096,
    record_size: 1000,
    cipher: Cipher::Aes,
    device: DeviceKind::Memory,
    // One connection: its server thread is the second busy thread, and the
    // sandbox has two cores. A second connection makes four busy threads,
    // which lowered throughput (10k against 12.5k ops/s) and tripled the
    // run-to-run spread of every latency when the benchmark was calibrated.
    clients: 1,
    net_depth: Some(4),
    mix: Mix::VerifiedZipf,
    ops_per_client_second: 13_000.0,
};

pub const NET_UPDATE: KvSpec = KvSpec {
    records: 4096,
    record_size: 400,
    cipher: Cipher::Aes,
    device: DeviceKind::Remote,
    // One connection. With two, whether their commits shared a flush hung
    // on a race between a parked committer waking up and the other
    // connection's next `Put` arriving: whole runs fell into one of two
    // regimes, 2000 or 2600 ops/s, and which one depended on the host. A
    // connection is served in order, so every commit here flushes alone.
    clients: 1,
    net_depth: Some(4),
    mix: Mix::UpdateUniform,
    ops_per_client_second: 1_850.0,
};

/// Load-generator threads of a run: the workload's, or one on a single core.
pub fn clients(spec: &KvSpec, cfg: &RunCfg) -> usize {
    spec.clients.min(cfg.max_clients).max(1)
}

// ---------------------------------------------------------------------------
// Op streams
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Get,
    Verified,
    Put,
    Clean,
}

/// Version a read cannot predict: another client owns the key.
pub const ANY_VERSION: u32 = u32::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Op {
    pub kind: Kind,
    pub key: u32,
    /// `Put`: the version written. Reads: the version the record must
    /// carry, or [`ANY_VERSION`].
    pub version: u32,
}

/// One client's share of a run, fixed by the seed.
pub struct Plan {
    pub ops: Vec<Op>,
    /// Leading ops that run untimed.
    pub warm: usize,
    /// Record of every `Put`, in stream order.
    pub put_records: Vec<Vec<u8>>,
}

pub struct Plans {
    pub clients: Vec<Plan>,
    /// The post-checkpoint updates: `(key, record)`.
    pub tail: Vec<(u32, Vec<u8>)>,
    /// Version every key must carry once everything has run.
    pub final_versions: Vec<u64>,
}

fn owner(key: usize, clients: usize) -> usize {
    key % clients
}

/// Builds every client's stream of `measured` timed ops after a tenth as
/// many warm-up ops.
pub fn plan(spec: &KvSpec, seed: u64, clients: usize, measured: usize) -> Plans {
    let n = spec.records;
    let mut versions = vec![0u32; n];
    let popularity = permutation(&mut Rng::fork(seed, 1), n);
    let zipf_all = Zipf::new(n as u64, ZIPF_THETA);
    let zipf_hot = Zipf::new(HOT_KEYS as u64, ZIPF_THETA);
    let warm = measured / 10;
    let plans = (0..clients)
        .map(|c| {
            let mut rng = Rng::fork(seed, 100 + c as u64);
            let mut body_rng = Rng::fork(seed, 200 + c as u64);
            let own: Vec<u32> = popularity
                .iter()
                .copied()
                .filter(|k| owner(*k as usize, clients) == c)
                .collect();
            let zipf_own = Zipf::new(own.len() as u64, ZIPF_THETA);
            let mut ops = Vec::with_capacity(warm + measured + measured / CLEAN_EVERY + 1);
            let mut put_records = Vec::new();
            for i in 0..warm + measured {
                let write =
                    matches!(spec.mix, Mix::UpdateZipf | Mix::UpdateUniform) && rng.percent(50);
                let key = match (spec.mix, write) {
                    (Mix::ReadHotCold, _) if rng.percent(HOT_PERCENT) => {
                        popularity[zipf_hot.sample(&mut rng) as usize]
                    }
                    (Mix::ReadHotCold, _) => rng.below(n as u64) as u32,
                    (Mix::UpdateZipf, true) => own[zipf_own.sample(&mut rng) as usize],
                    (Mix::UpdateUniform, true) => own[rng.below(own.len() as u64) as usize],
                    (Mix::UpdateZipf | Mix::VerifiedZipf, false) => {
                        popularity[zipf_all.sample(&mut rng) as usize]
                    }
                    (Mix::UpdateUniform, false) => rng.below(n as u64) as u32,
                    (Mix::VerifiedZipf, true) => unreachable!("read-only mix"),
                };
                let k = key as usize;
                if write {
                    versions[k] += 1;
                    put_records.push(kv_record(
                        &mut body_rng,
                        spec.record_size,
                        u64::from(key),
                        u64::from(versions[k]),
                    ));
                }
                let read_only = matches!(spec.mix, Mix::ReadHotCold | Mix::VerifiedZipf);
                ops.push(Op {
                    kind: match (write, spec.mix) {
                        (true, _) => Kind::Put,
                        (false, Mix::VerifiedZipf) => Kind::Verified,
                        (false, _) => Kind::Get,
                    },
                    key,
                    version: if write || read_only || owner(k, clients) == c {
                        versions[k]
                    } else {
                        ANY_VERSION
                    },
                });
                if spec.mix == Mix::UpdateZipf && c == 0 && (i + 1) % CLEAN_EVERY == 0 {
                    ops.push(Op {
                        kind: Kind::Clean,
                        key: 0,
                        version: 0,
                    });
                }
            }
            Plan {
                ops,
                warm,
                put_records,
            }
        })
        .collect();
    let mut rng = Rng::fork(seed, 300);
    let tail = (0..TAIL_UPDATES)
        .map(|_| {
            let key = rng.below(TAIL_KEYS.min(n) as u64) as usize;
            versions[key] += 1;
            let version = u64::from(versions[key]);
            let record = kv_record(&mut rng, spec.record_size, key as u64, version);
            (key as u32, record)
        })
        .collect();
    Plans {
        clients: plans,
        tail,
        final_versions: versions.into_iter().map(u64::from).collect(),
    }
}

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

pub struct KvWorld {
    pub device: Device,
    pub db: Arc<TrustedDb>,
    pub ids: Vec<ObjectId>,
    server: Option<TdbServer>,
    clients: Vec<TdbClient>,
    /// Root digest the verifying clients pinned after the preload.
    pub pinned: Option<HashValue>,
}

/// Build + preload + checkpoint + server/connect: everything `setup_s`
/// covers.
pub fn setup(spec: &KvSpec, cfg: &RunCfg, timed: bool) -> Result<KvWorld, String> {
    let device = Device::new(spec.device, timed);
    let db = create_db(&device, spec.cipher)?;
    let ids = preload_kv(
        &db,
        &mut Rng::fork(cfg.seed, 2),
        spec.records,
        spec.record_size,
    )?;
    db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    let mut world = KvWorld {
        device,
        db,
        ids,
        server: None,
        clients: Vec::new(),
        pinned: None,
    };
    if spec.net_depth.is_some() {
        world.serve(clients(spec, cfg))?;
    }
    Ok(world)
}

impl KvWorld {
    fn serve(&mut self, clients: usize) -> Result<(), String> {
        let config = ServerConfig::new(SecretKey::new(AUTH_KEY.to_vec()));
        let server = TdbServer::spawn(Arc::clone(&self.db), "127.0.0.1:0", config)
            .map_err(|e| format!("spawn server: {e}"))?;
        for c in 0..clients {
            let client = TdbClient::connect(server.addr(), &format!("client-{c}"), AUTH_KEY)
                .map_err(|e| format!("connect: {e}"))?;
            self.clients.push(client);
        }
        if let Some(first) = self.clients.first_mut() {
            self.pinned = Some(
                first
                    .snapshot_root()
                    .map_err(|e| format!("pin root: {e}"))?,
            );
        }
        self.server = Some(server);
        Ok(())
    }

    /// Hangs up the clients and stops the server, joining its threads.
    pub fn hang_up(&mut self) {
        self.clients.clear();
        if let Some(mut server) = self.server.take() {
            server.shutdown();
        }
    }

    pub fn server_counts(&self) -> (u64, u64) {
        self.server.as_ref().map_or((0, 0), |s| {
            let stats = s.stats();
            (
                stats.requests.load(std::sync::atomic::Ordering::Relaxed),
                stats.errors.load(std::sync::atomic::Ordering::Relaxed),
            )
        })
    }

    pub fn one_client(&mut self) -> Option<&mut TdbClient> {
        self.clients.first_mut()
    }
}

impl Drop for KvWorld {
    fn drop(&mut self) {
        self.hang_up();
    }
}

/// The commands of one client's stream, built once the ids are known and
/// before the clock starts.
pub struct Commands {
    /// `Get` or `GetWithProof` per key.
    pub reads: Vec<Command>,
    /// One `Put` per put of the plan, in order.
    pub puts: Vec<Command>,
}

pub fn commands(spec: &KvSpec, ids: &[ObjectId], plan: &Plan) -> Commands {
    let reads = ids
        .iter()
        .map(|id| match spec.mix {
            Mix::VerifiedZipf => Command::GetWithProof(*id),
            _ => Command::Get(*id),
        })
        .collect();
    let mut records = plan.put_records.iter();
    let puts = plan
        .ops
        .iter()
        .filter(|op| op.kind == Kind::Put)
        .map(|op| Command::Put {
            id: ids[op.key as usize],
            record: records.next().expect("one record per put").clone(),
        })
        .collect();
    Commands { reads, puts }
}

// ---------------------------------------------------------------------------
// The closed loops
// ---------------------------------------------------------------------------

/// What one client measured.
#[derive(Default)]
pub struct ClientOut {
    pub read: Hist,
    pub write: Hist,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub reads: u64,
    pub commits: u64,
    pub user_bytes: u64,
    pub window: Option<(Instant, Instant)>,
    pub spans: Vec<Span>,
}

impl ClientOut {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 4 {
            self.failures.push(what);
        }
    }
}

/// Does `record` carry `op`'s key and, where the stream fixes it, version?
fn record_matches(record: &[u8], op: &Op) -> bool {
    match kv_header(record) {
        Some((key, version)) => {
            key == u64::from(op.key)
                && (op.version == ANY_VERSION || version == u64::from(op.version))
        }
        None => false,
    }
}

/// Checks a proof-carrying read the way a remote client must: against the
/// root it pinned, never the one in the message.
fn verified_matches(resp: &Response, op: &Op, pinned: &HashValue) -> bool {
    let Response::VerifiedRecord {
        record,
        proof: Some(proof),
        ..
    } = resp
    else {
        return false;
    };
    ReadProof::decode(proof).is_ok_and(|p| verify_read_proof(&p, record, pinned))
        && record_matches(record, op)
}

fn response_matches(resp: &Response, op: &Op, pinned: Option<&HashValue>) -> bool {
    match (op.kind, resp) {
        (Kind::Get, Response::Record(r)) => record_matches(r, op),
        (Kind::Verified, _) => pinned.is_some_and(|root| verified_matches(resp, op, root)),
        (Kind::Put, Response::Ok) => true,
        (Kind::Clean, Response::Count(_)) => true,
        _ => false,
    }
}

pub fn op_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Get => "get",
        Kind::Verified => "verified_get",
        Kind::Put => "put",
        Kind::Clean => "clean",
    }
}

/// Shared bookkeeping of both loops for one op of the measured window.
fn account(out: &mut ClientOut, op: &Op, ok: bool, ns: u64, size: usize) {
    out.attempted += 1;
    if !ok {
        out.fail(format!(
            "{} of key {} failed its check",
            op_name(op.kind),
            op.key
        ));
    }
    match op.kind {
        Kind::Get | Kind::Verified => {
            out.read.record(ns);
            out.reads += 1;
        }
        Kind::Put => {
            out.write.record(ns);
            out.commits += 1;
            out.user_bytes += size as u64;
        }
        Kind::Clean => {}
    }
}

/// One embedded client: `Session::dispatch`, one request at a time.
pub fn embedded_client(
    session: &mut Session,
    plan: &Plan,
    cmds: &Commands,
    pinned: Option<&HashValue>,
    barrier: &Barrier,
    (layer, mut tracer): (&'static str, Tracer),
    record_size: usize,
) -> ClientOut {
    let clean = Command::Clean(CLEAN_SEGMENTS);
    let mut out = ClientOut::default();
    let mut next_put = 0;
    let mut start = Instant::now();
    for (i, op) in plan.ops.iter().enumerate() {
        if i == plan.warm {
            barrier.wait();
            start = Instant::now();
        }
        let cmd = match op.kind {
            Kind::Get | Kind::Verified => &cmds.reads[op.key as usize],
            Kind::Put => {
                next_put += 1;
                &cmds.puts[next_put - 1]
            }
            Kind::Clean => &clean,
        };
        let measured = i >= plan.warm;
        let t0 = Instant::now();
        let resp = session.dispatch(cmd);
        let ns = t0.elapsed().as_nanos() as u64;
        if measured {
            tracer.record(layer, op_name(op.kind), i, t0);
        }
        let ok = response_matches(&resp, op, pinned);
        if measured {
            account(&mut out, op, ok, ns, record_size);
        }
    }
    out.window = Some((start, Instant::now()));
    out.spans = tracer.spans;
    out
}

/// One network client: a `depth`-deep pipeline over `send`/`recv`; the next
/// request goes out when the oldest reply has been checked. Latency runs
/// from `send` to the reply having been verified.
#[allow(clippy::too_many_arguments)]
pub fn net_client(
    client: &mut TdbClient,
    depth: usize,
    plan: &Plan,
    cmds: &Commands,
    pinned: Option<&HashValue>,
    barrier: &Barrier,
    (layer, mut tracer): (&'static str, Tracer),
    record_size: usize,
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut inflight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(depth);
    let mut next = 0;
    let mut next_put = 0;
    let mut start = Instant::now();
    let mut started = false;
    let total = plan.ops.len();
    while next < total || !inflight.is_empty() {
        // The warm-up drains completely before the clock starts, so no
        // timed request queues behind an untimed one.
        let limit = if started { total } else { plan.warm };
        while inflight.len() < depth && next < limit {
            let op = &plan.ops[next];
            let cmd = match op.kind {
                Kind::Put => {
                    next_put += 1;
                    &cmds.puts[next_put - 1]
                }
                _ => &cmds.reads[op.key as usize],
            };
            let t0 = Instant::now();
            if let Err(e) = client.send(cmd) {
                // A dead connection ends this client; the others must not
                // wait for it at the barrier.
                out.fail(format!("send: {e}"));
                if !started {
                    barrier.wait();
                }
                out.window = Some((start, Instant::now()));
                return out;
            }
            inflight.push_back((next, t0));
            next += 1;
        }
        let Some((i, t0)) = inflight.pop_front() else {
            continue;
        };
        let op = &plan.ops[i];
        let ok = match client.recv() {
            Ok((_, resp)) => response_matches(&resp, op, pinned),
            Err(e) => {
                out.fail(format!("recv: {e}"));
                false
            }
        };
        let ns = t0.elapsed().as_nanos() as u64;
        if i >= plan.warm {
            tracer.record(layer, op_name(op.kind), i, t0);
            account(&mut out, op, ok, ns, record_size);
        }
        if !started && inflight.is_empty() && next == plan.warm {
            barrier.wait();
            start = Instant::now();
            started = true;
        }
    }
    out.window = Some((start, Instant::now()));
    out.spans = tracer.spans;
    out
}

/// Counters sampled at the edges of the measured window.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub untrusted: StatsSnapshot,
    pub trusted: StatsSnapshot,
    pub cache: (u64, u64),
    pub device_calls: u64,
    pub device_busy_ns: u64,
    pub server: (u64, u64),
}

pub fn counters_of(device: &Device, db: &TrustedDb, server: (u64, u64)) -> Counters {
    let (device_calls, device_busy_ns) = device.timed.as_ref().map_or((0, 0), |t| t.totals());
    Counters {
        untrusted: device.untrusted_stats(),
        trusted: device.trusted_stats(),
        cache: db.objects().cache_stats(),
        device_calls,
        device_busy_ns,
        server,
    }
}

fn counters(world: &KvWorld) -> Counters {
    counters_of(&world.device, &world.db, world.server_counts())
}

/// The measured window of one run: all clients' results merged.
pub struct Window {
    pub read: Hist,
    pub write: Hist,
    pub reads: u64,
    pub commits: u64,
    pub user_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub wall_s: f64,
    pub before: Counters,
    pub after: Counters,
    pub spans: Vec<Span>,
}

impl Window {
    /// Ops completed and verified per second of wall time, from the first
    /// client starting its window to the last one finishing.
    pub fn throughput(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall_s
    }
}

/// Runs every client's stream against `world`, two closed loops side by
/// side, and merges what they measured.
pub fn run_window(
    spec: &KvSpec,
    world: &mut KvWorld,
    plans: &Plans,
    traced: bool,
) -> Result<Window, String> {
    let cmds: Vec<Commands> = plans
        .clients
        .iter()
        .map(|p| commands(spec, &world.ids, p))
        .collect();
    let barrier = Barrier::new(plans.clients.len() + 1);
    let pinned = world.pinned;
    let mut net_clients = std::mem::take(&mut world.clients);
    let db = Arc::clone(&world.db);
    let (outs, before) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut net = net_clients.iter_mut();
        for (c, (plan, cmds)) in plans.clients.iter().zip(&cmds).enumerate() {
            let tracer = ("top", Tracer::new(traced, c as u32, plan.ops.len()));
            let (barrier, pinned, db) = (&barrier, pinned.as_ref(), &db);
            let client = net.next();
            handles.push(scope.spawn(move || match (spec.net_depth, client) {
                (Some(depth), Some(client)) => net_client(
                    client,
                    depth,
                    plan,
                    cmds,
                    pinned,
                    barrier,
                    tracer,
                    spec.record_size,
                ),
                _ => {
                    let mut session = db.session("tdbmark-client");
                    embedded_client(
                        &mut session,
                        plan,
                        cmds,
                        pinned,
                        barrier,
                        tracer,
                        spec.record_size,
                    )
                }
            }));
        }
        // The main thread is the barrier's extra party: when it returns,
        // every client has finished warming up and none has started timing.
        barrier.wait();
        let before = counters(world);
        let outs: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect();
        (outs, before)
    });
    world.clients = net_clients;
    let after = counters(world);
    let mut window = Window {
        read: Hist::new(),
        write: Hist::new(),
        reads: 0,
        commits: 0,
        user_bytes: 0,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        wall_s: 0.0,
        before,
        after,
        spans: Vec::new(),
    };
    let mut first = None;
    let mut last = None;
    for out in outs {
        window.read.merge(&out.read);
        window.write.merge(&out.write);
        window.reads += out.reads;
        window.commits += out.commits;
        window.user_bytes += out.user_bytes;
        window.attempted += out.attempted;
        window.failed += out.failed;
        window.failures.extend(out.failures);
        window.spans.extend(out.spans);
        let (start, end) = out.window.ok_or("a client never started its window")?;
        first = Some(first.map_or(start, |f: Instant| f.min(start)));
        last = Some(last.map_or(end, |l: Instant| l.max(end)));
    }
    if let (Some(first), Some(last)) = (first, last) {
        window.wall_s = (last - first).as_secs_f64();
    }
    Ok(window)
}

// ---------------------------------------------------------------------------
// After the window: durability, recovery, space
// ---------------------------------------------------------------------------

/// A reply whose record or proof was altered in flight must be rejected.
fn corrupted_proof_is_rejected(world: &mut KvWorld) -> Result<bool, String> {
    let (id, pinned) = (world.ids[0], world.pinned);
    let (Some(client), Some(pinned)) = (world.one_client(), pinned) else {
        return Err("no verifying client".into());
    };
    let resp = client
        .call(&Command::GetWithProof(id))
        .map_err(|e| format!("proof read: {e}"))?;
    let Response::VerifiedRecord {
        record,
        proof: Some(proof),
        ..
    } = resp
    else {
        return Err("proof read returned no proof".into());
    };
    let verifies = |record: &[u8], proof: &[u8]| {
        ReadProof::decode(proof).is_ok_and(|p| verify_read_proof(&p, record, &pinned))
    };
    if !verifies(&record, &proof) {
        return Err("the untouched proof does not verify".into());
    }
    let mut bad_record = record.clone();
    bad_record[30] ^= 0x01;
    let mut bad_proof = proof.clone();
    let mid = bad_proof.len() / 2;
    bad_proof[mid] ^= 0x80;
    Ok(!verifies(&bad_record, &proof) && !verifies(&record, &bad_proof))
}

/// Everything after the measured window: the corrupted-proof check, the
/// post-checkpoint updates, the audit of every key, the crash and reopen
/// from flushed bytes only with a second audit, and the final checkpoint
/// that space amplification is read after.
pub fn epilogue(
    spec: &KvSpec,
    world: &mut KvWorld,
    plans: &Plans,
    audit: bool,
) -> Result<Epilogue, String> {
    let mut out = Epilogue::default();
    if spec.mix == Mix::VerifiedZipf {
        out.checks += 1;
        if !corrupted_proof_is_rejected(world)? {
            out.failed += 1;
            out.failures.push("a corrupted proof was accepted".into());
        }
    }
    world.hang_up();
    // Checkpoint, so that what recovery has to replay is the tail below and
    // nothing else: where a threshold checkpoint last fell inside the
    // window depends on the seed.
    let mut session = world.db.session("tdbmark-tail");
    world::expect_ok(&mut session, &Command::Checkpoint)?;
    for (key, record) in &plans.tail {
        let put = Command::Put {
            id: world.ids[*key as usize],
            record: record.clone(),
        };
        world::expect_ok(&mut session, &put)?;
    }
    drop(session);
    let threads = plans.clients.len();
    let check = |what: &str, db: &TrustedDb, out: &mut Epilogue| {
        if audit {
            let bad = audit_kv(db, &world.ids, &plans.final_versions, threads);
            out.checks += world.ids.len() as u64;
            out.failed += bad;
            if bad > 0 {
                out.failures
                    .push(format!("{what}: {bad} keys lost their last acked version"));
            }
        }
    };
    check("audit of the live database", &world.db, &mut out);
    let (reopened, recovery_ms) = reopen_after_crash(&world.device, spec.cipher)?;
    out.recovery_ms = recovery_ms;
    check("audit after crash and reopen", &reopened, &mut out);
    drop(reopened);
    let live_bytes = (spec.records * spec.record_size) as u64;
    out.stored_ratio = world::stored_bytes_per_user_byte(&world.db, live_bytes)?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// The untraced run
// ---------------------------------------------------------------------------

/// The window's end-to-end metrics.
pub fn fill_window_metrics(result: &mut RunResult, window: &Window) {
    result.attempted += window.attempted;
    result.absorb_failures(window.failed, &window.failures);
    let m = &mut result.metrics;
    m.insert("throughput_ops_s", window.throughput());
    m.insert("read_p50_us", window.read.quantile_us(0.5));
    m.insert("read_p99_us", window.read.quantile_us(0.99));
    result.counts.insert("read_samples", window.read.count());
    if window.write.count() > 0 {
        m.insert("write_p50_us", window.write.quantile_us(0.5));
        m.insert("write_p99_us", window.write.quantile_us(0.99));
        result.counts.insert("write_samples", window.write.count());
    }
    result.counts.insert("ops", window.attempted);
    result.window_s = window.wall_s;
}

/// The end-to-end run: tracing off, full op counts, full self-check.
pub fn run_untraced(spec: &KvSpec, cfg: &RunCfg) -> Result<RunResult, String> {
    let plans = plan(
        spec,
        cfg.seed,
        clients(spec, cfg),
        cfg.ops(spec.ops_per_client_second),
    );
    let (mut world, setup_s) = setup_repeatedly(|| setup(spec, cfg, false))?;
    let window = run_window(spec, &mut world, &plans, false)?;
    let epilogue = epilogue(spec, &mut world, &plans, true)?;
    let mut result = RunResult::default();
    result.metrics.insert("setup_s", setup_s);
    fill_window_metrics(&mut result, &window);
    epilogue.fill(&mut result);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(plans: &Plans) -> Vec<(Kind, u32, u32)> {
        plans
            .clients
            .iter()
            .flat_map(|p| p.ops.iter().map(|o| (o.kind, o.key, o.version)))
            .collect()
    }

    #[test]
    fn op_streams_repeat_per_seed_and_differ_across_seeds() {
        for spec in [&KV_READ, &KV_UPDATE, &NET_READ_VERIFIED, &NET_UPDATE] {
            let a = plan(spec, 5, 2, 600);
            let b = plan(spec, 5, 2, 600);
            let c = plan(spec, 6, 2, 600);
            assert_eq!(fingerprint(&a), fingerprint(&b), "{:?}", spec.mix);
            assert_ne!(fingerprint(&a), fingerprint(&c), "{:?}", spec.mix);
            assert_eq!(a.clients[0].put_records, b.clients[0].put_records);
            assert_eq!(a.final_versions, b.final_versions);
            assert_eq!(a.clients[0].warm, 60);
        }
    }

    #[test]
    fn writers_own_disjoint_keys_and_versions_count_up() {
        let plans = plan(&KV_UPDATE, 9, 2, 4000);
        let mut last = vec![0u32; KV_UPDATE.records];
        for (c, p) in plans.clients.iter().enumerate() {
            let puts = p.ops.iter().filter(|o| o.kind == Kind::Put).count();
            assert_eq!(puts, p.put_records.len());
            assert!(puts > 1500, "about half the ops are puts");
            for (op, record) in p
                .ops
                .iter()
                .filter(|o| o.kind == Kind::Put)
                .zip(&p.put_records)
            {
                assert_eq!(owner(op.key as usize, 2), c);
                assert_eq!(op.version, last[op.key as usize] + 1);
                last[op.key as usize] = op.version;
                assert_eq!(
                    kv_header(record),
                    Some((u64::from(op.key), u64::from(op.version)))
                );
                assert_eq!(record.len(), KV_UPDATE.record_size);
            }
        }
        assert_eq!(plans.tail.len(), TAIL_UPDATES);
        assert!(plans.clients[0].ops.iter().any(|o| o.kind == Kind::Clean));
        assert!(!plans.clients[1].ops.iter().any(|o| o.kind == Kind::Clean));
        for (key, record) in &plans.tail {
            last[*key as usize] += 1;
            assert_eq!(
                kv_header(record),
                Some((u64::from(*key), u64::from(last[*key as usize])))
            );
        }
        let expected: Vec<u64> = last.into_iter().map(u64::from).collect();
        assert_eq!(plans.final_versions, expected);
    }

    #[test]
    fn kv_read_keeps_most_requests_on_the_hot_set() {
        let plans = plan(&KV_READ, 3, 2, 20_000);
        let hot: std::collections::HashSet<u32> =
            permutation(&mut Rng::fork(3, 1), KV_READ.records)[..HOT_KEYS]
                .iter()
                .copied()
                .collect();
        let ops = &plans.clients[0].ops;
        let on_hot = ops.iter().filter(|o| hot.contains(&o.key)).count();
        let share = on_hot as f64 / ops.len() as f64;
        assert!((0.88..0.93).contains(&share), "hot share {share}");
        assert!(ops.iter().all(|o| o.kind == Kind::Get && o.version == 0));
    }
}
