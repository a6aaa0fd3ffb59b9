//! `goods-txn`: the paper's digital-goods *release* transaction (§9.5,
//! Figure 10) — read-heavy, indexed, multi-chunk — through one session.
//!
//! Eight collections of 2048 goods records, each with a sorted index on
//! `sku` and an unsorted one on `category`. One transaction: `Begin`, one
//! range scan bounded to 16 members, four exact-match lookups, a `Get` of
//! every id those return, four `Put`s that leave the keys alone, one insert,
//! one remove, `Commit`. The op stream is generated against an in-memory
//! model of the collections, so every reply has a known answer.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use tdb::{
    CollectionId, CollectionStore, Command, IndexKind, ObjectId, ObjectStore, Response, Session,
    StoredObject, TrustedDb, Tx, TxMode, TypeRegistry,
};

use crate::gen::Rng;
use crate::hist::Hist;
use crate::kv::{counters_of, Counters, TAIL_UPDATES};
use crate::ladder::{
    checkpoint_due, crypto_metrics, crypto_rung, harness_metrics, storage_metrics,
};
use crate::spec::{RunCfg, RunResult};
use crate::trace::{Span, SpanSummary, Tracer};
use crate::world::{
    self, category_key, create_db, expect_id, expect_ids, expect_ok, goods_header, goods_record,
    reopen_after_crash, setup_repeatedly, sku_key, Cipher, Device, DeviceKind, Epilogue,
    GOODS_SIZE,
};

const COLLECTIONS: usize = 8;
const MEMBERS: usize = 2048;
const CATEGORIES: u32 = 512;
const RANGE_MAX: usize = 16;
/// Preloaded skus are multiples of this, leaving room for inserts between.
const SKU_STRIDE: u64 = 16;
const PUTS: usize = 4;
/// Frozen calibration: transactions per second of measured window at the
/// commit that added the benchmark, on the 2-core sandbox.
pub const TXNS_PER_SECOND: f64 = 315.0;

pub fn category_of(sku: u64) -> u32 {
    ((sku.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % u64::from(CATEGORIES)) as u32
}

/// One exact-match lookup with its known answer.
pub struct Lookup {
    /// Sorted `by_sku` index, or unsorted `by_category`.
    pub by_sku: bool,
    pub key: u64,
    pub expect: Vec<u64>,
}

impl Lookup {
    /// The index this lookup goes to and its encoded key.
    fn index_and_key(&self) -> (&'static str, Vec<u8>) {
        if self.by_sku {
            ("by_sku", sku_key(self.key))
        } else {
            ("by_category", category_key(self.key as u32))
        }
    }
}

/// One transaction of the stream, answers included.
pub struct Txn {
    pub coll: usize,
    pub range: (u64, u64),
    pub range_expect: Vec<u64>,
    pub lookups: Vec<Lookup>,
    /// `(sku, new version, new record)`.
    pub puts: Vec<(u64, u64, Vec<u8>)>,
    pub insert: (u64, Vec<u8>),
    pub remove: u64,
}

/// Membership of every collection: `sku → version`.
pub type Model = Vec<BTreeMap<u64, u64>>;

pub struct Plan {
    pub txns: Vec<Txn>,
    pub warm: usize,
    /// Autocommit updates of members of collection 0 between the
    /// post-window checkpoint and the crash, `(sku, version, record)`: the
    /// log recovery replays (see `kv::TAIL_UPDATES`).
    pub tail: Vec<(u64, u64, Vec<u8>)>,
    /// The model once every transaction and the tail have run.
    pub final_model: Model,
}

pub fn initial_model() -> Model {
    (0..COLLECTIONS)
        .map(|_| (1..=MEMBERS as u64).map(|i| (i * SKU_STRIDE, 0)).collect())
        .collect()
}

fn nth_sku(members: &BTreeMap<u64, u64>, rng: &mut Rng) -> u64 {
    *members
        .keys()
        .nth(rng.below(members.len() as u64) as usize)
        .expect("collections never run empty")
}

/// Generates `measured` transactions after a tenth as many warm-up ones,
/// simulating the collections so each carries its expected replies.
pub fn plan(seed: u64, measured: usize) -> Plan {
    let mut rng = Rng::fork(seed, 400);
    let mut body_rng = Rng::fork(seed, 401);
    let mut model = initial_model();
    let warm = measured / 10;
    let txns = (0..warm + measured)
        .map(|_| {
            let coll = rng.below(COLLECTIONS as u64) as usize;
            let members = &mut model[coll];
            let lo = nth_sku(members, &mut rng);
            let range_expect: Vec<u64> =
                members.range(lo..).take(RANGE_MAX).map(|e| *e.0).collect();
            let hi = range_expect.last().expect("lo is a member") + 1;
            let lookups = (0..4)
                .map(|k| {
                    let sku = nth_sku(members, &mut rng);
                    if k < 2 {
                        Lookup {
                            by_sku: true,
                            key: sku,
                            expect: vec![sku],
                        }
                    } else {
                        let category = category_of(sku);
                        Lookup {
                            by_sku: false,
                            key: u64::from(category),
                            expect: members
                                .keys()
                                .copied()
                                .filter(|s| category_of(*s) == category)
                                .collect(),
                        }
                    }
                })
                .collect::<Vec<_>>();
            let mut targets: Vec<u64> = Vec::new();
            for sku in range_expect
                .iter()
                .chain(lookups.iter().flat_map(|l| &l.expect))
            {
                if targets.len() < PUTS && !targets.contains(sku) {
                    targets.push(*sku);
                }
            }
            let puts = targets
                .iter()
                .map(|sku| {
                    let version = members[sku] + 1;
                    members.insert(*sku, version);
                    let record = goods_record(&mut body_rng, *sku, category_of(*sku), version);
                    (*sku, version, record)
                })
                .collect();
            let fresh = loop {
                let slot = 1 + rng.below(2 * MEMBERS as u64);
                let sku = slot * SKU_STRIDE + 1 + rng.below(SKU_STRIDE - 1);
                if !members.contains_key(&sku) {
                    break sku;
                }
            };
            let remove = loop {
                let sku = nth_sku(members, &mut rng);
                if !targets.contains(&sku) {
                    break sku;
                }
            };
            members.remove(&remove);
            members.insert(fresh, 0);
            Txn {
                coll,
                range: (lo, hi),
                range_expect,
                lookups,
                puts,
                insert: (
                    fresh,
                    goods_record(&mut body_rng, fresh, category_of(fresh), 0),
                ),
                remove,
            }
        })
        .collect();
    let tail = model[0]
        .iter_mut()
        .take(TAIL_UPDATES)
        .map(|(sku, version)| {
            *version += 1;
            let record = goods_record(&mut body_rng, *sku, category_of(*sku), *version);
            (*sku, *version, record)
        })
        .collect();
    Plan {
        txns,
        warm,
        tail,
        final_model: model,
    }
}

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

pub struct GoodsWorld {
    pub device: Device,
    pub db: std::sync::Arc<TrustedDb>,
    pub colls: Vec<CollectionId>,
    /// The harness's model of what the database holds: per collection,
    /// `sku → (id, version)`.
    pub live: Vec<HashMap<u64, (ObjectId, u64)>>,
}

/// Build, create and index the collections, insert the members, checkpoint.
pub fn setup(seed: u64, timed: bool) -> Result<GoodsWorld, String> {
    let device = Device::new(DeviceKind::Memory, timed);
    let db = create_db(&device, Cipher::PaperDes)?;
    let partition = db.partition();
    let mut session = db.session("tdbmark-preload");
    let mut rng = Rng::fork(seed, 402);
    let mut colls = Vec::new();
    let mut live = Vec::new();
    for c in 0..COLLECTIONS {
        let create = Command::CollCreate {
            partition,
            name: format!("goods-{c}"),
        };
        let coll = CollectionId(expect_id(&mut session, &create)?);
        for (name, extractor, kind) in [
            ("by_sku", "sku", IndexKind::Sorted),
            ("by_category", "category", IndexKind::Unsorted),
        ] {
            let add = Command::CollAddIndex {
                coll,
                name: name.into(),
                extractor: extractor.into(),
                kind,
            };
            expect_ok(&mut session, &add)?;
        }
        let mut members = HashMap::with_capacity(2 * MEMBERS);
        world::in_batches(&mut session, MEMBERS, |session, i| {
            let sku = (i as u64 + 1) * SKU_STRIDE;
            let record = goods_record(&mut rng, sku, category_of(sku), 0);
            let id = expect_id(session, &Command::CollInsert { coll, record })?;
            members.insert(sku, (id, 0));
            Ok(())
        })?;
        colls.push(coll);
        live.push(members);
    }
    drop(session);
    db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    Ok(GoodsWorld {
        device,
        db,
        colls,
        live,
    })
}

// ---------------------------------------------------------------------------
// Running transactions
// ---------------------------------------------------------------------------

/// The calls one transaction makes, at whichever entry point runs it.
trait Exec {
    /// Called before transaction `t`; `measured` is false during warm-up.
    fn start(&mut self, t: usize, measured: bool);
    /// Called after transaction `t` committed, with the time it began.
    fn finished(&mut self, t0: Instant);
    fn begin(&mut self) -> Result<(), String>;
    fn range(&mut self, t: usize) -> Result<Vec<ObjectId>, String>;
    fn lookup(&mut self, t: usize, k: usize) -> Result<Vec<ObjectId>, String>;
    fn get(&mut self, id: ObjectId) -> Result<Vec<u8>, String>;
    fn put(&mut self, id: ObjectId, record: Vec<u8>) -> Result<(), String>;
    fn insert(&mut self, t: usize) -> Result<ObjectId, String>;
    fn remove(&mut self, coll: CollectionId, id: ObjectId) -> Result<(), String>;
    fn commit(&mut self) -> Result<(), String>;
}

/// The range, lookup and insert commands of every transaction, built once
/// the collection ids are known and before the clock starts.
struct TxnCommands {
    range: Command,
    lookups: Vec<Command>,
    insert: Command,
}

fn txn_commands(colls: &[CollectionId], plan: &Plan) -> Vec<TxnCommands> {
    plan.txns
        .iter()
        .map(|t| {
            let coll = colls[t.coll];
            TxnCommands {
                range: Command::CollRange {
                    coll,
                    index: "by_sku".into(),
                    lo: Some(sku_key(t.range.0)),
                    hi: Some(sku_key(t.range.1)),
                },
                lookups: t
                    .lookups
                    .iter()
                    .map(|l| {
                        let (index, key) = l.index_and_key();
                        Command::CollLookup {
                            coll,
                            index: index.into(),
                            key,
                        }
                    })
                    .collect(),
                insert: Command::CollInsert {
                    coll,
                    record: t.insert.1.clone(),
                },
            }
        })
        .collect()
}

/// `Session::dispatch`: the workload as its users run it.
struct SessionExec<'a> {
    session: Session,
    cmds: &'a [TxnCommands],
    /// The transactions' inner `Get`s, counted for the per-get ratios.
    reads: u64,
    measured: bool,
    tracer: Tracer,
    op: usize,
}

impl Exec for SessionExec<'_> {
    fn start(&mut self, t: usize, measured: bool) {
        (self.op, self.measured) = (t, measured);
    }
    fn finished(&mut self, t0: Instant) {
        if self.measured {
            self.tracer.record("session", "txn", self.op, t0);
        }
    }
    fn begin(&mut self) -> Result<(), String> {
        expect_ok(&mut self.session, &Command::Begin(TxMode::Locking))
    }
    fn range(&mut self, t: usize) -> Result<Vec<ObjectId>, String> {
        expect_ids(&mut self.session, &self.cmds[t].range)
    }
    fn lookup(&mut self, t: usize, k: usize) -> Result<Vec<ObjectId>, String> {
        expect_ids(&mut self.session, &self.cmds[t].lookups[k])
    }
    fn get(&mut self, id: ObjectId) -> Result<Vec<u8>, String> {
        let cmd = Command::Get(id);
        let t0 = Instant::now();
        let resp = self.session.dispatch(&cmd);
        if self.measured {
            self.reads += 1;
            self.tracer.record("session", "get", self.op, t0);
        }
        match resp {
            Response::Record(record) => Ok(record),
            other => Err(format!("Get({id}) answered {other:?}")),
        }
    }
    fn put(&mut self, id: ObjectId, record: Vec<u8>) -> Result<(), String> {
        expect_ok(&mut self.session, &Command::Put { id, record })
    }
    fn insert(&mut self, t: usize) -> Result<ObjectId, String> {
        expect_id(&mut self.session, &self.cmds[t].insert)
    }
    fn remove(&mut self, coll: CollectionId, id: ObjectId) -> Result<(), String> {
        expect_ok(&mut self.session, &Command::CollRemove { coll, id })
    }
    fn commit(&mut self) -> Result<(), String> {
        expect_ok(&mut self.session, &Command::Commit)
    }
}

/// `CollectionStore` and `Tx` called directly, a span around each call.
struct DirectExec<'a> {
    objects: &'a ObjectStore,
    collections: &'a CollectionStore,
    colls: &'a [CollectionId],
    plan: &'a Plan,
    tx: Option<Tx>,
    tracer: Tracer,
    measured: bool,
    op: usize,
    range_members: u64,
}

impl DirectExec<'_> {
    fn tx(&mut self) -> Result<&mut Tx, String> {
        self.tx.as_mut().ok_or_else(|| "no open transaction".into())
    }

    fn span(&mut self, layer: &'static str, name: &'static str, t0: Instant) {
        if self.measured {
            self.tracer.record(layer, name, self.op, t0);
        }
    }
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Exec for DirectExec<'_> {
    fn start(&mut self, t: usize, measured: bool) {
        (self.op, self.measured) = (t, measured);
    }
    fn finished(&mut self, t0: Instant) {
        self.span("collection", "txn", t0);
        if checkpoint_due(self.op, self.plan.txns.len()) {
            let t0 = Instant::now();
            if self.objects.chunks().checkpoint().is_ok() {
                self.tracer.record("core", "checkpoint", self.op, t0);
            }
        }
    }
    fn begin(&mut self) -> Result<(), String> {
        self.tx = Some(self.objects.begin());
        Ok(())
    }
    fn range(&mut self, t: usize) -> Result<Vec<ObjectId>, String> {
        let txn = &self.plan.txns[t];
        let (collections, coll) = (self.collections, self.colls[txn.coll]);
        let (lo, hi) = (sku_key(txn.range.0), sku_key(txn.range.1));
        let t0 = Instant::now();
        let ids = collections
            .range(self.tx()?, coll, "by_sku", Some(&lo), Some(&hi))
            .map_err(text)?;
        self.span("collection", "range", t0);
        if self.measured {
            self.range_members += ids.len() as u64;
        }
        Ok(ids)
    }
    fn lookup(&mut self, t: usize, k: usize) -> Result<Vec<ObjectId>, String> {
        let txn = &self.plan.txns[t];
        let (collections, coll) = (self.collections, self.colls[txn.coll]);
        let (index, key) = txn.lookups[k].index_and_key();
        let t0 = Instant::now();
        let ids = collections
            .lookup(self.tx()?, coll, index, &key)
            .map_err(text)?;
        self.span("collection", "lookup", t0);
        Ok(ids)
    }
    fn get(&mut self, id: ObjectId) -> Result<Vec<u8>, String> {
        let t0 = Instant::now();
        let object = self.tx()?.get_dyn(id).map_err(text)?;
        self.span("object", "get", t0);
        Ok(TypeRegistry::pickle(object.as_ref()))
    }
    fn put(&mut self, id: ObjectId, record: Vec<u8>) -> Result<(), String> {
        let object = self.objects.unpickle_record(&record).map_err(text)?;
        let t0 = Instant::now();
        self.tx()?.put(id, object).map_err(text)?;
        self.span("object", "put", t0);
        Ok(())
    }
    fn insert(&mut self, t: usize) -> Result<ObjectId, String> {
        let txn = &self.plan.txns[t];
        let (collections, coll) = (self.collections, self.colls[txn.coll]);
        let object: std::sync::Arc<dyn StoredObject> =
            self.objects.unpickle_record(&txn.insert.1).map_err(text)?;
        let t0 = Instant::now();
        let id = collections.insert(self.tx()?, coll, object).map_err(text)?;
        self.span("collection", "insert", t0);
        Ok(id)
    }
    fn remove(&mut self, coll: CollectionId, id: ObjectId) -> Result<(), String> {
        let collections = self.collections;
        let t0 = Instant::now();
        collections.remove(self.tx()?, coll, id).map_err(text)?;
        self.span("collection", "remove", t0);
        Ok(())
    }
    fn commit(&mut self) -> Result<(), String> {
        let tx = self.tx.take().ok_or("no open transaction")?;
        let t0 = Instant::now();
        tx.commit().map_err(text)?;
        self.span("object", "commit", t0);
        Ok(())
    }
}

/// What running a stream of transactions measured.
#[derive(Default)]
pub struct TxnsOut {
    pub txn: Hist,
    /// The transactions' inner `Get`s (session executor only).
    pub reads: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub user_bytes: u64,
    pub wall_s: f64,
    pub before: Counters,
    pub after: Counters,
}

impl TxnsOut {
    /// Transactions completed and verified per second of wall time.
    pub fn throughput(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall_s
    }
}

/// Runs one transaction and returns its latency; then — after the commit,
/// so the checks are in no latency — compares every reply with the model
/// and applies the transaction to it. Also returns the mismatches found.
fn run_one<E: Exec>(
    exec: &mut E,
    world: &mut GoodsWorld,
    plan: &Plan,
    t: usize,
) -> Result<(u64, Vec<String>), String> {
    let txn = &plan.txns[t];
    let coll = world.colls[txn.coll];
    let live = &mut world.live[txn.coll];
    let id_of = |live: &HashMap<u64, (ObjectId, u64)>, sku: u64| {
        live.get(&sku)
            .map(|e| e.0)
            .ok_or_else(|| format!("sku {sku} is not in the model"))
    };
    // A `Put` command owns its record, so the copies are made here, before
    // the transaction's clock starts.
    let mut puts = Vec::with_capacity(txn.puts.len());
    for (sku, _, record) in &txn.puts {
        puts.push((id_of(live, *sku)?, record.clone()));
    }
    let remove_id = id_of(live, txn.remove)?;

    let t0 = Instant::now();
    exec.begin()?;
    let ranged = exec.range(t)?;
    let mut looked = Vec::with_capacity(txn.lookups.len());
    for k in 0..txn.lookups.len() {
        looked.push(exec.lookup(t, k)?);
    }
    let mut got = Vec::with_capacity(ranged.len() + 8);
    for id in ranged.iter().chain(looked.iter().flatten()) {
        got.push((*id, exec.get(*id)?));
    }
    for (id, record) in puts {
        exec.put(id, record)?;
    }
    let inserted = exec.insert(t)?;
    exec.remove(coll, remove_id)?;
    exec.commit()?;
    let ns = t0.elapsed().as_nanos() as u64;
    exec.finished(t0);

    // Checks, against the model as it stood before this transaction.
    let mut wrong = Vec::new();
    let ids_of = |skus: &[u64]| -> Vec<ObjectId> {
        skus.iter()
            .filter_map(|s| live.get(s).map(|e| e.0))
            .collect()
    };
    if ranged != ids_of(&txn.range_expect) {
        wrong.push(format!("txn {t}: range returned the wrong members"));
    }
    for (k, (l, ids)) in txn.lookups.iter().zip(&looked).enumerate() {
        let (mut want, mut have) = (ids_of(&l.expect), ids.clone());
        want.sort_unstable();
        have.sort_unstable();
        if want != have {
            wrong.push(format!("txn {t}: lookup {k} returned the wrong members"));
        }
    }
    for (id, record) in &got {
        let ok = goods_header(record)
            .is_some_and(|(sku, version)| live.get(&sku) == Some(&(*id, version)));
        if !ok {
            wrong.push(format!("txn {t}: Get({id}) returned the wrong record"));
        }
    }
    for (sku, version, _) in &txn.puts {
        if let Some(entry) = live.get_mut(sku) {
            entry.1 = *version;
        }
    }
    live.remove(&txn.remove);
    live.insert(txn.insert.0, (inserted, 0));
    Ok((ns, wrong))
}

/// Runs the whole stream through `exec`: warm-up untimed, then the window.
fn run_txns<E: Exec>(exec: &mut E, world: &mut GoodsWorld, plan: &Plan) -> Result<TxnsOut, String> {
    let mut out = TxnsOut::default();
    let mut start = Instant::now();
    for t in 0..plan.txns.len() {
        let measured = t >= plan.warm;
        if t == plan.warm {
            out.before = counters_of(&world.device, &world.db, (0, 0));
            start = Instant::now();
        }
        exec.start(t, measured);
        let (ns, wrong) = run_one(exec, world, plan, t)?;
        if measured {
            out.txn.record(ns);
            out.attempted += 1;
            out.user_bytes += ((PUTS + 1) * GOODS_SIZE) as u64;
            if !wrong.is_empty() {
                out.failed += 1;
                out.failures.extend(wrong.into_iter().take(2));
            }
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.after = counters_of(&world.device, &world.db, (0, 0));
    Ok(out)
}

/// The workload's own loop: one session, `Session::dispatch`. Returns what
/// it measured and the spans.
pub fn run_window(
    world: &mut GoodsWorld,
    plan: &Plan,
    traced: bool,
) -> Result<(TxnsOut, Vec<Span>), String> {
    let cmds = txn_commands(&world.colls, plan);
    let mut exec = SessionExec {
        session: world.db.session("tdbmark-client"),
        cmds: &cmds,
        reads: 0,
        measured: false,
        tracer: Tracer::new(traced, 0, plan.txns.len() * 32),
        op: 0,
    };
    let mut out = run_txns(&mut exec, world, plan)?;
    out.reads = exec.reads;
    Ok((out, exec.tracer.spans))
}

// ---------------------------------------------------------------------------
// After the window
// ---------------------------------------------------------------------------

/// Compares collection lengths, both indexes and every member with the
/// model. Returns `(checks, mismatches)`.
fn audit(db: &TrustedDb, world: &GoodsWorld, model: &Model) -> Result<(u64, Vec<String>), String> {
    let mut session = db.session("tdbmark-audit");
    let mut checks = 0u64;
    let mut wrong = Vec::new();
    for (c, (coll, members)) in world.colls.iter().zip(model).enumerate() {
        let live = &world.live[c];
        checks += 2;
        if session.dispatch(&Command::CollLen(*coll)) != Response::Count(members.len() as u64)
            || live.len() != members.len()
        {
            wrong.push(format!("collection {c}: length differs from the model"));
        }
        let all = Command::CollRange {
            coll: *coll,
            index: "by_sku".into(),
            lo: None,
            hi: None,
        };
        let want: Vec<ObjectId> = members
            .keys()
            .filter_map(|s| live.get(s).map(|e| e.0))
            .collect();
        if expect_ids(&mut session, &all)? != want {
            wrong.push(format!("collection {c}: by_sku differs from the model"));
        }
        let mut by_category: BTreeMap<u32, Vec<ObjectId>> = BTreeMap::new();
        for (sku, (id, _)) in live {
            by_category.entry(category_of(*sku)).or_default().push(*id);
        }
        for (category, mut want) in by_category {
            checks += 1;
            let lookup = Command::CollLookup {
                coll: *coll,
                index: "by_category".into(),
                key: category_key(category),
            };
            let mut have = expect_ids(&mut session, &lookup)?;
            want.sort_unstable();
            have.sort_unstable();
            if want != have {
                wrong.push(format!(
                    "collection {c}: by_category[{category}] differs from the model"
                ));
            }
        }
        for (sku, version) in members {
            checks += 1;
            let ok = live.get(sku).is_some_and(|(id, v)| {
                v == version
                    && matches!(
                        session.dispatch(&Command::Get(*id)),
                        Response::Record(r) if goods_header(&r) == Some((*sku, *version))
                    )
            });
            if !ok {
                wrong.push(format!("collection {c}: sku {sku} lost its last version"));
            }
        }
    }
    Ok((checks, wrong))
}

/// Checkpoint, the tail of updates, audit, crash and reopen from flushed
/// bytes only, audit again, final checkpoint and space amplification.
pub fn epilogue(world: &mut GoodsWorld, plan: &Plan, full_audit: bool) -> Result<Epilogue, String> {
    let mut out = Epilogue::default();
    // Checkpoint first: where the last threshold checkpoint fell inside the
    // window, and so how much log a reopen replays, depends on the seed.
    let mut session = world.db.session("tdbmark-tail");
    expect_ok(&mut session, &Command::Checkpoint)?;
    for (sku, version, record) in &plan.tail {
        let entry = world.live[0]
            .get_mut(sku)
            .ok_or_else(|| format!("sku {sku} is not in the model"))?;
        let put = Command::Put {
            id: entry.0,
            record: record.clone(),
        };
        expect_ok(&mut session, &put)?;
        entry.1 = *version;
    }
    drop(session);
    let world = &*world;
    let check = |db: &TrustedDb, out: &mut Epilogue| -> Result<(), String> {
        if full_audit {
            let (checks, wrong) = audit(db, world, &plan.final_model)?;
            out.checks += checks;
            out.failed += wrong.len() as u64;
            out.failures.extend(wrong);
        }
        Ok(())
    };
    check(&world.db, &mut out)?;
    let (reopened, recovery_ms) = reopen_after_crash(&world.device, Cipher::PaperDes)?;
    out.recovery_ms = recovery_ms;
    check(&reopened, &mut out)?;
    drop(reopened);
    let live_bytes = (COLLECTIONS * MEMBERS * GOODS_SIZE) as u64;
    out.stored_ratio = world::stored_bytes_per_user_byte(&world.db, live_bytes)?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// The two runs
// ---------------------------------------------------------------------------

/// The window's end-to-end metrics.
fn fill_window_metrics(result: &mut RunResult, out: &TxnsOut) {
    result.attempted += out.attempted;
    result.absorb_failures(out.failed, &out.failures);
    result.window_s = out.wall_s;
    let m = &mut result.metrics;
    m.insert("throughput_ops_s", out.throughput());
    m.insert("txn_p50_us", out.txn.quantile_us(0.5));
    m.insert("txn_p99_us", out.txn.quantile_us(0.99));
    result.counts.insert("txn_samples", out.txn.count());
    result.counts.insert("ops", out.attempted);
}

/// The end-to-end run: tracing off, full transaction count, full audit.
pub fn run_untraced(cfg: &RunCfg) -> Result<RunResult, String> {
    let plan = plan(cfg.seed, cfg.ops(TXNS_PER_SECOND));
    let (mut world, setup_s) = setup_repeatedly(|| setup(cfg.seed, false))?;
    let (out, _) = run_window(&mut world, &plan, false)?;
    let after = epilogue(&mut world, &plan, true)?;
    let mut result = RunResult::default();
    result.metrics.insert("setup_s", setup_s);
    fill_window_metrics(&mut result, &out);
    after.fill(&mut result);
    Ok(result)
}

/// The traced run: the session loop untraced and traced, then the same
/// transactions against `CollectionStore` and `Tx` directly.
pub fn run_traced(cfg: &RunCfg) -> Result<(RunResult, Vec<Span>), String> {
    let stream = plan(cfg.seed, cfg.traced_ops(TXNS_PER_SECOND));
    let mut result = RunResult::default();

    // The first database a process builds pays for the memory every later
    // one reuses; build one before the passes that are compared.
    drop(setup(cfg.seed, false)?);
    let mut world = setup(cfg.seed, false)?;
    let (untraced, _) = run_window(&mut world, &stream, false)?;
    fill_window_metrics(&mut result, &untraced);
    drop(world);

    let mut world = setup(cfg.seed, true)?;
    let (traced, mut spans) = run_window(&mut world, &stream, true)?;
    result.attempted += traced.attempted;
    result.absorb_failures(traced.failed, &traced.failures);
    storage_metrics(
        &mut result,
        (&traced.before, &traced.after),
        (traced.reads, traced.attempted, traced.user_bytes),
        traced.wall_s,
        false,
    );
    let after = epilogue(&mut world, &stream, false)?;
    result.metrics.insert("recovery_ms", after.recovery_ms);
    result.metrics.insert(
        "core.recovery_ms_per_1k_commits",
        after.recovery_ms / (TAIL_UPDATES as f64 / 1e3),
    );
    drop(world);

    let mut world = setup(cfg.seed, false)?;
    let db = std::sync::Arc::clone(&world.db);
    let colls = world.colls.clone();
    let mut exec = DirectExec {
        objects: db.objects(),
        collections: db.collections(),
        colls: &colls,
        plan: &stream,
        tx: None,
        tracer: Tracer::new(true, 0, stream.txns.len() * 40),
        measured: false,
        op: 0,
        range_members: 0,
    };
    let direct = run_txns(&mut exec, &mut world, &stream)?;
    result.absorb_failures(direct.failed, &direct.failures);
    let range_members = exec.range_members;
    let mut tracer = exec.tracer;
    drop(world);
    crypto_rung(Cipher::PaperDes, GOODS_SIZE, true, &mut tracer)?;

    let mut s = SpanSummary::default();
    s.add(&tracer.spans);
    s.add(&spans);
    crypto_metrics(&mut result, &s);
    let m = &mut result.metrics;
    m.insert("core.checkpoint_ms", s.mean_us("core", "checkpoint") / 1e3);
    // Inside a transaction nearly every Get finds its object cached.
    let get = s.p50_us("object", "get");
    m.insert("object.get_hit_us", get);
    m.insert("object.self_get_hit_us", get);
    m.insert("collection.lookup_us", s.p50_us("collection", "lookup"));
    let range_us = s.mean_us("collection", "range") * s.count("collection", "range") as f64;
    if range_members > 0 {
        m.insert(
            "collection.range_us_per_member",
            range_us / range_members as f64,
        );
    }
    m.insert("collection.insert_us", s.p50_us("collection", "insert"));
    m.insert("collection.remove_us", s.p50_us("collection", "remove"));
    m.insert("session.self_get_us", s.p50_us("session", "get") - get);
    // What a transaction costs above the collection and object stores:
    // its mean through the session minus the mean time one transaction
    // spends inside the calls of the rung below. Means, not medians: a
    // transaction makes some forty calls and their medians do not add up.
    let below = s.total_us(&["collection", "object"], "txn") / s.count("collection", "txn") as f64;
    m.insert("session.self_txn_us", s.mean_us("session", "txn") - below);
    spans.extend(tracer.spans);
    harness_metrics(
        &mut result,
        untraced.throughput(),
        traced.throughput(),
        spans.len() as u64,
    );
    Ok((result, spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transaction_streams_repeat_per_seed_and_track_their_model() {
        let a = plan(4, 300);
        let b = plan(4, 300);
        let c = plan(5, 300);
        let shape = |p: &Plan| {
            p.txns
                .iter()
                .map(|t| (t.coll, t.range, t.insert.0, t.remove, t.puts.len()))
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(&a), shape(&b));
        assert_ne!(shape(&a), shape(&c));
        assert_eq!(a.final_model, b.final_model);
        assert_eq!(a.warm, 30);
        let mut model = initial_model();
        for t in &a.txns {
            let members = &mut model[t.coll];
            assert!(!t.range_expect.is_empty() && t.range_expect.len() <= RANGE_MAX);
            let in_range: Vec<u64> = members.range(t.range.0..t.range.1).map(|e| *e.0).collect();
            assert_eq!(in_range, t.range_expect);
            assert_eq!(t.lookups.len(), 4);
            assert_eq!(t.puts.len(), PUTS);
            for (sku, version, record) in &t.puts {
                assert_eq!(*version, members[sku] + 1);
                assert_eq!(goods_header(record), Some((*sku, *version)));
                assert_eq!(record.len(), GOODS_SIZE);
                members.insert(*sku, *version);
            }
            assert!(members.remove(&t.remove).is_some());
            assert!(members.insert(t.insert.0, 0).is_none());
            assert_eq!(members.len(), MEMBERS);
        }
        assert_eq!(a.tail.len(), TAIL_UPDATES);
        for (sku, version, record) in &a.tail {
            assert_eq!(*version, model[0][sku] + 1);
            assert_eq!(goods_header(record), Some((*sku, *version)));
            model[0].insert(*sku, *version);
        }
        assert_eq!(model, a.final_model);
    }
}
