//! Building, reopening and auditing the databases the workloads run on.
//!
//! Every database is `TrustedDbBuilder::new()` plus the three things a real
//! application must supply — its secret, its record types and (for two
//! workloads) its partition cipher — and nothing else: no knob setter is
//! called, so the numbers are those of the default configuration. Keys are
//! fixed so that stored sizes repeat from run to run.

use std::any::Any;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdb::{
    Command, CryptoParams, IndexKey, ObjectId, Response, Session, StoredObject, TrustedBackend,
    TrustedDb, TrustedDbBuilder, TxMode,
};
use tdb_crypto::{CipherKind, HashKind, SecretKey};
use tdb_storage::{
    BatchingStore, CounterOverTrusted, MemArchive, MemStore, MemTrustedStore, RemoteStore,
    SharedUntrusted, SimClock, StatsSnapshot, TrustedStore, UntrustedStore,
};

use crate::device::{DurableStore, TimedStore};
use crate::gen::{fill_text, Rng};
use crate::hist::median;
use crate::spec::RunResult;

/// Round trip of the simulated remote device (`net-update`).
pub const REMOTE_ROUND_TRIP: Duration = Duration::from_micros(300);

/// Recovery is timed at least this often, and again until `REOPEN_BUDGET`
/// is spent or `REOPENS_MAX` is reached: opening a checkpointed database
/// takes well under a millisecond and needs many repeats for a steady
/// median, replaying a long log takes a quarter of a second and gets few.
const REOPENS_MIN: usize = 5;
const REOPENS_MAX: usize = 41;
const REOPEN_BUDGET: Duration = Duration::from_millis(1000);

/// Likewise a run sets its database up at least `SETUPS_MIN` times and
/// reports the median: the network workloads' 0.1 s set-ups get more repeats
/// than the embedded ones' 1.5 s.
const SETUPS_MIN: usize = 3;
const SETUPS_MAX: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_millis(1000);

/// Records per preload transaction.
const PRELOAD_BATCH: usize = 256;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cipher {
    /// The paper's user-partition default, DES + SHA-1, under a fixed key.
    PaperDes,
    /// AES-128 + SHA-256: cheap enough that the network layers show.
    Aes,
}

impl Cipher {
    pub fn params(self) -> CryptoParams {
        match self {
            Cipher::PaperDes => CryptoParams {
                cipher: CipherKind::Des,
                hash: HashKind::Sha1,
                key: SecretKey::new(b"tdbmark1".to_vec()),
            },
            Cipher::Aes => CryptoParams {
                cipher: CipherKind::Aes128,
                hash: HashKind::Sha256,
                key: SecretKey::new(b"tdbmark-aes-128!".to_vec()),
            },
        }
    }
}

/// The system partition's 3DES parameters under the benchmark's secret.
pub fn system_params() -> CryptoParams {
    CryptoParams::paper_system(SecretKey::new(b"tdbmark-secret-store-key".to_vec()))
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeviceKind {
    /// Zero-latency memory: CPU savings show, device-op savings do not.
    Memory,
    /// Memory behind a sleeping 300 µs round trip with client-side write
    /// batching (paper §10): every device operation saved is a round trip.
    Remote,
}

/// The untrusted device stack of one database plus its trusted register.
pub struct Device {
    pub base: Arc<DurableStore>,
    pub top: SharedUntrusted,
    pub timed: Option<Arc<TimedStore>>,
    pub trusted: Arc<MemTrustedStore>,
}

impl Device {
    pub fn new(kind: DeviceKind, timed: bool) -> Device {
        let base = Arc::new(DurableStore::new());
        let mut top: SharedUntrusted = base.clone();
        if kind == DeviceKind::Remote {
            let clock = Arc::new(SimClock::new(true));
            top = Arc::new(RemoteStore::new(top, REMOTE_ROUND_TRIP, clock));
        }
        // Inside the batching layer, so one timed call is one round trip.
        let timed = timed.then(|| Arc::new(TimedStore::new(Arc::clone(&top))));
        if let Some(t) = &timed {
            top = t.clone();
        }
        if kind == DeviceKind::Remote {
            top = Arc::new(BatchingStore::new(top));
        }
        Device {
            base,
            top,
            timed,
            trusted: Arc::new(MemTrustedStore::new(64)),
        }
    }

    fn backend(&self) -> TrustedBackend {
        let register = Arc::clone(&self.trusted) as Arc<dyn TrustedStore>;
        TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(register)))
    }

    pub fn untrusted_stats(&self) -> StatsSnapshot {
        self.base.stats().snapshot()
    }

    pub fn trusted_stats(&self) -> StatsSnapshot {
        self.trusted.stats().snapshot()
    }
}

// ---------------------------------------------------------------------------
// Record types
// ---------------------------------------------------------------------------

/// Key/value record: `tag ‖ key u64 ‖ version u64 ‖ filler`.
pub const KV_TAG: u32 = 0x7DB0_0001;
/// Goods record: `tag ‖ sku u64 ‖ category u32 ‖ version u64 ‖ filler`.
pub const GOODS_TAG: u32 = 0x7DB0_0002;
/// Bytes of a goods record, tag included.
pub const GOODS_SIZE: usize = 300;

struct Blob {
    tag: u32,
    body: Vec<u8>,
}

impl StoredObject for Blob {
    fn type_tag(&self) -> u32 {
        self.tag
    }
    fn pickle(&self) -> Vec<u8> {
        self.body.clone()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn unpickle_kv(body: &[u8]) -> tdb_object::errors::Result<Arc<dyn StoredObject>> {
    Ok(Arc::new(Blob {
        tag: KV_TAG,
        body: body.to_vec(),
    }))
}

fn unpickle_goods(body: &[u8]) -> tdb_object::errors::Result<Arc<dyn StoredObject>> {
    Ok(Arc::new(Blob {
        tag: GOODS_TAG,
        body: body.to_vec(),
    }))
}

fn goods_body(obj: &dyn StoredObject) -> Option<&[u8]> {
    let blob = obj.as_any().downcast_ref::<Blob>()?;
    (blob.tag == GOODS_TAG && blob.body.len() >= 20).then_some(&blob.body[..])
}

fn extract_sku(obj: &dyn StoredObject) -> Option<Vec<u8>> {
    let body = goods_body(obj)?;
    Some(sku_key(u64::from_le_bytes(body[..8].try_into().ok()?)))
}

fn extract_category(obj: &dyn StoredObject) -> Option<Vec<u8>> {
    let body = goods_body(obj)?;
    Some(category_key(u32::from_le_bytes(
        body[8..12].try_into().ok()?,
    )))
}

pub fn sku_key(sku: u64) -> Vec<u8> {
    IndexKey::new().u64(sku).into_bytes()
}

pub fn category_key(category: u32) -> Vec<u8> {
    IndexKey::new().u64(u64::from(category)).into_bytes()
}

pub fn kv_record(rng: &mut Rng, size: usize, key: u64, version: u64) -> Vec<u8> {
    let mut rec = vec![0u8; size];
    rec[..4].copy_from_slice(&KV_TAG.to_le_bytes());
    rec[4..12].copy_from_slice(&key.to_le_bytes());
    rec[12..20].copy_from_slice(&version.to_le_bytes());
    fill_text(rng, &mut rec[20..]);
    rec
}

/// `(key, version)` of a key/value record, `None` if it is not one.
pub fn kv_header(record: &[u8]) -> Option<(u64, u64)> {
    if record.len() < 20 || record[..4] != KV_TAG.to_le_bytes() {
        return None;
    }
    Some((
        u64::from_le_bytes(record[4..12].try_into().ok()?),
        u64::from_le_bytes(record[12..20].try_into().ok()?),
    ))
}

pub fn goods_record(rng: &mut Rng, sku: u64, category: u32, version: u64) -> Vec<u8> {
    let mut rec = vec![0u8; GOODS_SIZE];
    rec[..4].copy_from_slice(&GOODS_TAG.to_le_bytes());
    rec[4..12].copy_from_slice(&sku.to_le_bytes());
    rec[12..16].copy_from_slice(&category.to_le_bytes());
    rec[16..24].copy_from_slice(&version.to_le_bytes());
    fill_text(rng, &mut rec[24..]);
    rec
}

/// `(sku, version)` of a goods record, `None` if it is not one.
pub fn goods_header(record: &[u8]) -> Option<(u64, u64)> {
    if record.len() < 24 || record[..4] != GOODS_TAG.to_le_bytes() {
        return None;
    }
    Some((
        u64::from_le_bytes(record[4..12].try_into().ok()?),
        u64::from_le_bytes(record[16..24].try_into().ok()?),
    ))
}

// ---------------------------------------------------------------------------
// Create, reopen
// ---------------------------------------------------------------------------

fn builder(cipher: Cipher) -> TrustedDbBuilder {
    TrustedDbBuilder::new()
        .secret(system_params().key)
        .partition_params(cipher.params())
        .register_type(KV_TAG, unpickle_kv)
        .register_type(GOODS_TAG, unpickle_goods)
        .register_extractor("sku", extract_sku)
        .register_extractor("category", extract_category)
}

pub fn create_db(device: &Device, cipher: Cipher) -> Result<Arc<TrustedDb>, String> {
    builder(cipher)
        .create(
            Arc::clone(&device.top),
            device.backend(),
            Arc::new(MemArchive::new()),
        )
        .map(Arc::new)
        .map_err(|e| format!("create database: {e}"))
}

/// Reopens the database from the bytes that were flushed — what a power cut
/// would leave — several times, and returns the last handle with the median
/// time of `TrustedDbBuilder::open` (recovery and validation included).
pub fn reopen_after_crash(device: &Device, cipher: Cipher) -> Result<(TrustedDb, f64), String> {
    let image = device.base.flushed_image();
    let register = device.trusted.image();
    let mut times = Vec::with_capacity(REOPENS_MAX);
    let mut last = None;
    let began = Instant::now();
    while times.len() < REOPENS_MIN
        || (times.len() < REOPENS_MAX && began.elapsed() < REOPEN_BUDGET)
    {
        // Opening must not depend on what an earlier open left behind.
        device.trusted.restore(register.clone());
        let disk: SharedUntrusted = Arc::new(MemStore::from_bytes(image.clone()));
        let start = Instant::now();
        let db = builder(cipher)
            .open(disk, device.backend(), Arc::new(MemArchive::new()))
            .map_err(|e| format!("reopen from the flushed image: {e}"))?;
        times.push(start.elapsed().as_secs_f64() * 1e3);
        last = Some(db);
    }
    Ok((last.expect("at least one reopen"), median(times)))
}

/// Sets a database up several times, keeping the last, and returns it with
/// the median set-up time in seconds.
pub fn setup_repeatedly<W>(
    mut setup: impl FnMut() -> Result<W, String>,
) -> Result<(W, f64), String> {
    let mut times = Vec::new();
    let mut world = None;
    let began = Instant::now();
    while times.len() < SETUPS_MIN || (times.len() < SETUPS_MAX && began.elapsed() < SETUP_BUDGET) {
        // One database at a time: the previous one goes before the clock
        // starts, so its teardown is not billed to the next set-up.
        drop(world.take());
        let start = Instant::now();
        world = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((world.expect("at least one set-up"), median(times)))
}

/// What a workload found after its measured window: recovery time, space
/// amplification, and the outcome of its audits.
#[derive(Default)]
pub struct Epilogue {
    pub recovery_ms: f64,
    pub stored_ratio: f64,
    pub checks: u64,
    /// One entry per failed check group; `failed` counts the single checks.
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Epilogue {
    /// Adds the epilogue's checks and its two end-to-end metrics to `result`.
    pub fn fill(&self, result: &mut RunResult) {
        result.attempted += self.checks;
        result.absorb_failures(self.failed, &self.failures);
        result.metrics.insert("recovery_ms", self.recovery_ms);
        result
            .metrics
            .insert("stored_bytes_per_user_byte", self.stored_ratio);
    }
}

// ---------------------------------------------------------------------------
// Session helpers
// ---------------------------------------------------------------------------

pub fn expect_ok(session: &mut Session, cmd: &Command) -> Result<(), String> {
    match session.dispatch(cmd) {
        Response::Ok => Ok(()),
        other => Err(format!("{cmd:?} answered {other:?}")),
    }
}

pub fn expect_ids(session: &mut Session, cmd: &Command) -> Result<Vec<ObjectId>, String> {
    match session.dispatch(cmd) {
        Response::Ids(ids) => Ok(ids),
        other => Err(format!("{cmd:?} answered {other:?}")),
    }
}

pub fn expect_id(session: &mut Session, cmd: &Command) -> Result<ObjectId, String> {
    match session.dispatch(cmd) {
        Response::Id(id) => Ok(id),
        other => Err(format!("command answered {other:?}, expected an id")),
    }
}

/// Runs `body` for successive batches of `0..n` inside one locking
/// transaction each; preloading record by record would make set-up a second
/// write workload.
pub fn in_batches(
    session: &mut Session,
    n: usize,
    mut body: impl FnMut(&mut Session, usize) -> Result<(), String>,
) -> Result<(), String> {
    let mut next = 0;
    while next < n {
        expect_ok(session, &Command::Begin(TxMode::Locking))?;
        for i in next..n.min(next + PRELOAD_BATCH) {
            body(session, i)?;
        }
        expect_ok(session, &Command::Commit)?;
        next += PRELOAD_BATCH;
    }
    Ok(())
}

/// Creates `n` key/value records of `size` bytes at version 0 and returns
/// their ids, indexed by key.
pub fn preload_kv(
    db: &TrustedDb,
    rng: &mut Rng,
    n: usize,
    size: usize,
) -> Result<Vec<ObjectId>, String> {
    let mut session = db.session("tdbmark-preload");
    let partition = db.partition();
    let mut ids = Vec::with_capacity(n);
    in_batches(&mut session, n, |session, key| {
        let record = kv_record(rng, size, key as u64, 0);
        ids.push(expect_id(session, &Command::Create { partition, record })?);
        Ok(())
    })?;
    Ok(ids)
}

/// Reads every key through `db` and counts the records that do not carry
/// their key and exactly the expected version.
pub fn audit_kv(db: &TrustedDb, ids: &[ObjectId], versions: &[u64], threads: usize) -> u64 {
    let per = ids.len().div_ceil(threads.max(1));
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..ids.len())
            .step_by(per.max(1))
            .map(|from| {
                scope.spawn(move || {
                    let mut session = db.session("tdbmark-audit");
                    let to = ids.len().min(from + per);
                    (from..to)
                        .filter(|&key| {
                            !matches!(
                                session.dispatch(&Command::Get(ids[key])),
                                Response::Record(r)
                                    if kv_header(&r) == Some((key as u64, versions[key]))
                            )
                        })
                        .count() as u64
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("audit thread does not panic"))
            .sum()
    })
}

/// Bytes the chunk store occupies after a final checkpoint, per byte of
/// live record data.
pub fn stored_bytes_per_user_byte(db: &TrustedDb, live_bytes: u64) -> Result<f64, String> {
    db.checkpoint()
        .map_err(|e| format!("final checkpoint: {e}"))?;
    Ok(db.chunks().stored_size() as f64 / live_bytes as f64)
}
