//! Server torture: kill the server mid-load, inject storage faults under
//! it, and feed it garbage frames. The invariants: clients always see
//! clean typed errors (never a hang, never a panic), the store reopens
//! and validates afterwards, and **no acknowledged commit is ever lost**
//! — an `Ok`/`Id` response means the write was flushed and survives any
//! crash that follows it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tdb::{Command, Response, TrustedBackend, TrustedDbBuilder};
use tdb_client::{ClientError, TdbClient};
use tdb_crypto::SecretKey;
use tdb_server::{ServerConfig, TdbServer};
use tdb_storage::{
    CounterOverTrusted, CrashStore, FaultPlan, MemArchive, MemStore, MemTrustedStore,
    PlannedFaultStore, SharedUntrusted, TrustedStore,
};

const AUTH_KEY: &[u8] = b"torture-pre-shared-key";

const REC_TAG: u32 = 7002;

fn record(payload: &str) -> Vec<u8> {
    let mut out = REC_TAG.to_le_bytes().to_vec();
    out.extend_from_slice(payload.as_bytes());
    out
}

#[derive(Debug)]
struct Rec(Vec<u8>);

impl tdb::StoredObject for Rec {
    fn type_tag(&self) -> u32 {
        REC_TAG
    }
    fn pickle(&self) -> Vec<u8> {
        self.0.clone()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

fn unpickle_rec(body: &[u8]) -> tdb_object::errors::Result<Arc<dyn tdb::StoredObject>> {
    Ok(Arc::new(Rec(body.to_vec())))
}

fn builder() -> TrustedDbBuilder {
    TrustedDbBuilder::new()
        .secret(SecretKey::new(vec![11u8; 24]))
        .register_type(REC_TAG, unpickle_rec)
}

fn backend_over(register: &Arc<MemTrustedStore>) -> TrustedBackend {
    TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(
        Arc::clone(register) as Arc<dyn TrustedStore>
    )))
}

/// Kill the server while many connections are writing; crash the device
/// (losing every unflushed write); reopen and verify every acknowledged
/// create survived.
#[test]
fn killed_mid_load_loses_no_acked_commit() {
    let inner = Arc::new(MemStore::new());
    let crash = Arc::new(CrashStore::new(Arc::clone(&inner) as SharedUntrusted).unwrap());
    let register = Arc::new(MemTrustedStore::new(64));
    let db = builder()
        .create(
            Arc::clone(&crash) as SharedUntrusted,
            backend_over(&register),
            Arc::new(MemArchive::new()),
        )
        .expect("create db");
    let partition = db.partition();
    let mut server = TdbServer::spawn(
        Arc::new(db),
        "127.0.0.1:0",
        ServerConfig::new(SecretKey::new(AUTH_KEY.to_vec())),
    )
    .expect("spawn server");
    let addr = server.addr();

    let acked_total = Arc::new(AtomicU64::new(0));
    let mut workers = Vec::new();
    for w in 0..4u32 {
        let acked_total = Arc::clone(&acked_total);
        workers.push(std::thread::spawn(move || {
            let mut client = match TdbClient::connect(addr, &format!("worker-{w}"), AUTH_KEY) {
                Ok(c) => c,
                Err(_) => return Vec::new(), // server died before we connected
            };
            let mut acked = Vec::new();
            for i in 0..10_000u32 {
                let payload = format!("worker {w} item {i}");
                match client.create(partition, record(&payload)) {
                    Ok(id) => {
                        acked.push((id, payload));
                        acked_total.fetch_add(1, Ordering::Relaxed);
                    }
                    // The kill must surface as a clean transport error.
                    Err(ClientError::Io(_)) => break,
                    Err(other) => panic!("expected a clean Io error on kill, got {other}"),
                }
            }
            acked
        }));
    }

    // Let the load run, then pull the plug mid-flight.
    while acked_total.load(Ordering::Relaxed) < 200 {
        std::thread::yield_now();
    }
    server.shutdown();
    let acked: Vec<(tdb::ObjectId, String)> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("worker panicked"))
        .collect();
    assert!(
        acked.len() >= 200,
        "load never ramped: {} acks",
        acked.len()
    );
    drop(server);

    // Crash the device: every write not yet flushed is gone.
    let image = crash.crash_lose_all();
    let reopened = builder()
        .open(
            Arc::new(MemStore::from_bytes(image)) as SharedUntrusted,
            backend_over(&register),
            Arc::new(MemArchive::new()),
        )
        .expect("reopen after kill must validate");
    let mut session = reopened.session("auditor");
    for (id, payload) in &acked {
        match session.dispatch(&Command::Get(*id)) {
            Response::Record(rec) => {
                assert_eq!(rec, record(payload), "acked record {id:?} corrupted")
            }
            other => panic!("acked commit lost: {id:?} ({payload}) answered {other:?}"),
        }
    }
}

/// A seeded fault plan under the live server: every client call either
/// succeeds (and survives reopen) or fails with a typed remote error;
/// the health stamp tells clients when the store degrades.
#[test]
fn seeded_faults_surface_as_typed_errors_and_reopen_verifies() {
    let inner = Arc::new(MemStore::new());
    let faulty = Arc::new(PlannedFaultStore::new(
        Arc::clone(&inner) as SharedUntrusted,
        FaultPlan::new(),
    ));
    let register = Arc::new(MemTrustedStore::new(64));
    let db = builder()
        .create(
            Arc::clone(&faulty) as SharedUntrusted,
            backend_over(&register),
            Arc::new(MemArchive::new()),
        )
        .expect("create db");
    let partition = db.partition();
    let mut server = TdbServer::spawn(
        Arc::new(db),
        "127.0.0.1:0",
        ServerConfig::new(SecretKey::new(AUTH_KEY.to_vec())),
    )
    .expect("spawn server");
    let mut client = TdbClient::connect(server.addr(), "fault-driver", AUTH_KEY).expect("connect");

    // A clean warm-up burst, then arm a seeded fault plan over the next
    // stretch of device operations.
    let mut acked = Vec::new();
    for i in 0..20u32 {
        let payload = format!("pre-fault {i}");
        let id = client.create(partition, record(&payload)).expect("warm-up");
        acked.push((id, payload));
    }
    let horizon = faulty.total_ops() + 40;
    faulty.set_plan(FaultPlan::seeded(0xF00D, horizon, 6));

    let mut remote_errors = 0u32;
    let mut degraded_seen = false;
    for i in 0..200u32 {
        let payload = format!("under-fire {i}");
        match client.create(partition, record(&payload)) {
            Ok(id) => acked.push((id, payload)),
            Err(ClientError::Remote(e)) => {
                // Typed, coded, in-band: the connection stays usable.
                assert!(e.code > 0);
                remote_errors += 1;
            }
            Err(other) => panic!("fault leaked as a non-remote error: {other}"),
        }
        if !client.last_health().is_live() {
            degraded_seen = true;
        }
    }
    assert!(
        faulty.injected_faults() > 0,
        "the plan never fired — widen the horizon"
    );
    // Injected faults either surfaced as typed errors or degraded the
    // store (both observable in-band on this same connection).
    assert!(
        remote_errors > 0 || degraded_seen,
        "faults fired but the client never observed them"
    );
    drop(client);
    server.shutdown();
    drop(server);

    // Reopen from the device image: recovery must validate, and every
    // acked create must read back intact.
    let reopened = builder()
        .open(
            Arc::new(MemStore::from_bytes(inner.image())) as SharedUntrusted,
            backend_over(&register),
            Arc::new(MemArchive::new()),
        )
        .expect("reopen after faults must validate");
    let mut session = reopened.session("auditor");
    for (id, payload) in &acked {
        match session.dispatch(&Command::Get(*id)) {
            Response::Record(rec) => {
                assert_eq!(rec, record(payload), "acked record {id:?} corrupted")
            }
            other => panic!("acked commit lost: {id:?} ({payload}) answered {other:?}"),
        }
    }
}

/// The pipelined twin of `killed_mid_load_loses_no_acked_commit`: each
/// worker keeps 8 `Create`/`Put`s in flight, so the server group-commits
/// them per connection. After the kill and a crash that loses every
/// unflushed write, every reply a client received must survive: a created
/// object reads back, and an object holds its last acknowledged version
/// or a later one that was sent (a write may be durable before its ack
/// is lost with the connection).
#[test]
#[ignore = "full size: run by CI's release server-torture step"]
fn pipelined_killed_mid_load_loses_no_acked_commit() {
    pipelined_kill(10_000);
}

#[test]
fn pipelined_killed_mid_load_loses_no_acked_commit_quick() {
    pipelined_kill(200);
}

fn pipelined_kill(acks_before_kill: u64) {
    let inner = Arc::new(MemStore::new());
    let crash = Arc::new(CrashStore::new(Arc::clone(&inner) as SharedUntrusted).unwrap());
    let register = Arc::new(MemTrustedStore::new(64));
    let db = builder()
        .create(
            Arc::clone(&crash) as SharedUntrusted,
            backend_over(&register),
            Arc::new(MemArchive::new()),
        )
        .expect("create db");
    let partition = db.partition();
    let mut server = TdbServer::spawn(
        Arc::new(db),
        "127.0.0.1:0",
        ServerConfig::new(SecretKey::new(AUTH_KEY.to_vec())),
    )
    .expect("spawn server");
    let addr = server.addr();

    let acked_total = Arc::new(AtomicU64::new(0));
    let mut workers = Vec::new();
    for w in 0..4u32 {
        let acked_total = Arc::clone(&acked_total);
        workers.push(std::thread::spawn(move || {
            let mut objects: Vec<Versions> = Vec::new();
            let Ok(mut client) = TdbClient::connect(addr, &format!("pipe-{w}"), AUTH_KEY) else {
                return objects; // server died before we connected
            };
            // In flight: (slot, version); a create is version 0.
            let mut in_flight: std::collections::VecDeque<(usize, u32)> = Default::default();
            let mut slots = 0usize;
            for step in 0..40_000u32 {
                while in_flight.len() < 8 {
                    let ready = objects.len();
                    let sent = if step % 2 == 0 || ready == 0 {
                        let slot = slots;
                        slots += 1;
                        client
                            .send(&Command::Create {
                                partition,
                                record: record(&format!("{w}:{slot}:0")),
                            })
                            .map(|_| (slot, 0))
                    } else {
                        let o = &mut objects[(step as usize * 7) % ready];
                        o.sent += 1;
                        client
                            .send(&Command::Put {
                                id: o.id,
                                record: record(&format!("{w}:{}:{}", o.slot, o.sent)),
                            })
                            .map(|_| (o.slot, o.sent))
                    };
                    match sent {
                        Ok(s) => in_flight.push_back(s),
                        Err(_) => return objects,
                    }
                }
                let (slot, version) = in_flight.pop_front().expect("filled above");
                match client.recv() {
                    Ok((_, Response::Id(id))) => objects.push(Versions {
                        id,
                        slot,
                        acked: 0,
                        sent: 0,
                    }),
                    Ok((_, Response::Ok)) => {
                        let o = objects.iter_mut().find(|o| o.slot == slot).expect("known");
                        o.acked = o.acked.max(version);
                    }
                    Ok((_, other)) => panic!("write answered {other:?}"),
                    // The kill must surface as a clean transport error.
                    Err(ClientError::Io(_)) => return objects,
                    Err(other) => panic!("expected a clean Io error on kill, got {other}"),
                }
                acked_total.fetch_add(1, Ordering::Relaxed);
            }
            objects
        }));
    }

    while acked_total.load(Ordering::Relaxed) < acks_before_kill {
        std::thread::yield_now();
    }
    server.shutdown();
    let objects: Vec<(u32, Vec<Versions>)> = workers
        .into_iter()
        .zip(0u32..)
        .map(|(w, n)| (n, w.join().expect("worker panicked")))
        .collect();
    drop(server);

    let image = crash.crash_lose_all();
    let reopened = builder()
        .open(
            Arc::new(MemStore::from_bytes(image)) as SharedUntrusted,
            backend_over(&register),
            Arc::new(MemArchive::new()),
        )
        .expect("reopen after kill must validate");
    let mut session = reopened.session("auditor");
    let mut audited = 0;
    for (w, objects) in &objects {
        for o in objects {
            let Response::Record(rec) = session.dispatch(&Command::Get(o.id)) else {
                panic!("acked create of {:?} lost", o.id);
            };
            let text = String::from_utf8(rec[4..].to_vec()).expect("utf8 payload");
            let version: u32 = text
                .strip_prefix(&format!("{w}:{}:", o.slot))
                .unwrap_or_else(|| panic!("{:?} holds another object's record {text}", o.id))
                .parse()
                .expect("version");
            assert!(
                (o.acked..=o.sent).contains(&version),
                "{:?} rolled back: version {version}, acked {}, sent {}",
                o.id,
                o.acked,
                o.sent
            );
            audited += 1;
        }
    }
    assert!(audited > 0, "no create was acked");
}

/// One object a pipelined worker created: its versions acknowledged and
/// sent so far.
struct Versions {
    id: tdb::ObjectId,
    slot: usize,
    acked: u32,
    sent: u32,
}

/// The pipelined twin of `seeded_faults_surface_as_typed_errors_and_reopen_verifies`:
/// bursts of 8 creates under a seeded fault plan. Every member is either
/// acknowledged (and survives reopen) or answered with a typed remote
/// error, and the last reply of each burst is stamped with the health the
/// store was left in by that burst.
#[test]
#[ignore = "full size: run by CI's release server-torture step"]
fn pipelined_seeded_faults_surface_as_typed_errors_and_reopen_verifies() {
    for seed in [0xF00D, 0xBEEF, 0xCAFE, 0xD00D] {
        pipelined_faults(seed);
    }
}

#[test]
fn pipelined_seeded_faults_surface_as_typed_errors_quick() {
    pipelined_faults(0xF00D);
}

fn pipelined_faults(seed: u64) {
    let inner = Arc::new(MemStore::new());
    let faulty = Arc::new(PlannedFaultStore::new(
        Arc::clone(&inner) as SharedUntrusted,
        FaultPlan::new(),
    ));
    let register = Arc::new(MemTrustedStore::new(64));
    let db = Arc::new(
        builder()
            .create(
                Arc::clone(&faulty) as SharedUntrusted,
                backend_over(&register),
                Arc::new(MemArchive::new()),
            )
            .expect("create db"),
    );
    let partition = db.partition();
    let mut server = TdbServer::spawn(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig::new(SecretKey::new(AUTH_KEY.to_vec())),
    )
    .expect("spawn server");
    let mut client = TdbClient::connect(server.addr(), "pipe-faults", AUTH_KEY).expect("connect");

    let mut acked = Vec::new();
    let horizon = faulty.total_ops() + 40;
    faulty.set_plan(FaultPlan::seeded(seed, horizon, 6));
    let mut remote_errors = 0u32;
    for burst in 0..40u32 {
        let payloads: Vec<String> = (0..8).map(|i| format!("burst {burst} item {i}")).collect();
        for payload in &payloads {
            client
                .send(&Command::Create {
                    partition,
                    record: record(payload),
                })
                .expect("send");
        }
        for payload in payloads {
            match client.recv().expect("recv").1 {
                Response::Id(id) => acked.push((id, payload)),
                Response::Error(e) => {
                    assert!(e.code > 0);
                    remote_errors += 1;
                }
                other => panic!("create answered {other:?}"),
            }
        }
        // Nothing else touches the store, so the burst's last reply must
        // carry the health the burst left behind.
        let expected = tdb::wire::health_stamp(&db.health()).0;
        assert_eq!(
            client.last_health().state,
            expected,
            "burst {burst}'s replies carry a stale health stamp"
        );
    }
    assert!(faulty.injected_faults() > 0, "the plan never fired");
    assert!(
        remote_errors > 0 || !db.health().is_live(),
        "faults fired but the client never observed them"
    );
    drop(client);
    server.shutdown();
    drop(server);
    drop(db);

    let reopened = builder()
        .open(
            Arc::new(MemStore::from_bytes(inner.image())) as SharedUntrusted,
            backend_over(&register),
            Arc::new(MemArchive::new()),
        )
        .expect("reopen after faults must validate");
    let mut session = reopened.session("auditor");
    for (id, payload) in &acked {
        match session.dispatch(&Command::Get(*id)) {
            Response::Record(rec) => {
                assert_eq!(rec, record(payload), "acked record {id:?} corrupted")
            }
            other => panic!("acked commit lost: {id:?} ({payload}) answered {other:?}"),
        }
    }
}

/// Batching adds no wait-for edge. Connection 2's open transaction holds
/// X(B) and then asks for A while connection 1 pipelines `[Put A, Put B]`.
/// Had connection 1 waited for B while its pending Put held A, the two
/// would deadlock until the lock timeout broke it; instead the busy lock
/// ends connection 1's batch (A commits and is released) before it waits.
/// The test forces that interleaving rather than sleeping for it.
#[test]
fn pipelined_writes_add_no_wait_for_edge() {
    let register = Arc::new(MemTrustedStore::new(64));
    let db = builder()
        .object_config(tdb::ObjectStoreConfig {
            lock_timeout: std::time::Duration::from_secs(20),
            ..tdb::ObjectStoreConfig::default()
        })
        .create(
            Arc::new(MemStore::new()) as SharedUntrusted,
            backend_over(&register),
            Arc::new(MemArchive::new()),
        )
        .expect("create db");
    let partition = db.partition();
    let mut server = TdbServer::spawn(
        Arc::new(db),
        "127.0.0.1:0",
        ServerConfig::new(SecretKey::new(AUTH_KEY.to_vec())),
    )
    .expect("spawn server");
    let mut one = TdbClient::connect(server.addr(), "one", AUTH_KEY).expect("connect");
    let mut two = TdbClient::connect(server.addr(), "two", AUTH_KEY).expect("connect");
    let a = one.create(partition, record("a0")).expect("create a");
    let b = one.create(partition, record("b0")).expect("create b");

    two.begin(tdb::TxMode::Locking).expect("begin");
    two.put(b, record("b-two")).expect("two takes X(B)");
    let start = std::time::Instant::now();
    one.send(&Command::Put {
        id: a,
        record: record("a-one"),
    })
    .expect("send");
    one.send(&Command::Put {
        id: b,
        record: record("b-one"),
    })
    .expect("send");
    one.flush().expect("flush");
    // Connection 1's burst commits A only once its Put B found B busy:
    // a third connection sees "a-one" (waiting out the pending write's
    // lock) exactly when that has happened.
    let mut three = TdbClient::connect(server.addr(), "three", AUTH_KEY).expect("connect");
    while three.get(a).expect("A is released, not held") != record("a-one") {
        std::thread::yield_now();
    }
    two.put(a, record("a-two"))
        .expect("two gets A without a LockTimeout");
    two.commit().expect("two commits");
    for _ in 0..2 {
        assert_eq!(one.recv().expect("recv").1, Response::Ok);
    }
    assert!(
        start.elapsed() < std::time::Duration::from_secs(10),
        "a lock timeout broke a deadlock"
    );
    // Connection 1's Put B waited for connection 2 and wrote last.
    assert_eq!(one.get(b).expect("get b"), record("b-one"));
    assert_eq!(one.get(a).expect("get a"), record("a-two"));
    server.shutdown();
}

/// Garbage on the wire: a well-framed request whose command bytes are
/// junk gets an in-band typed error on the same request id; the
/// connection keeps working.
#[test]
fn malformed_command_gets_in_band_typed_error() {
    use std::io::Write;

    let register = Arc::new(MemTrustedStore::new(64));
    let db = builder()
        .create(
            Arc::new(MemStore::new()) as SharedUntrusted,
            backend_over(&register),
            Arc::new(MemArchive::new()),
        )
        .expect("create db");
    let mut server = TdbServer::spawn(
        Arc::new(db),
        "127.0.0.1:0",
        ServerConfig::new(SecretKey::new(AUTH_KEY.to_vec())),
    )
    .expect("spawn server");

    // Speak the protocol by hand so we can inject a junk command.
    let stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let hello = tdb::wire::Hello::decode(&tdb::wire::read_frame(&mut reader).expect("hello"))
        .expect("decode hello");
    let nonce = [3u8; tdb::wire::NONCE_LEN];
    let auth = tdb::wire::ClientAuth {
        principal: "raw".into(),
        nonce,
        mac: tdb::wire::client_auth_mac(AUTH_KEY, &hello.nonce, &nonce, "raw"),
    };
    tdb::wire::write_frame(&mut writer, &auth.encode()).expect("auth");
    writer.flush().expect("flush");
    match tdb::wire::AuthResult::decode(&tdb::wire::read_frame(&mut reader).expect("verdict"))
        .expect("decode verdict")
    {
        tdb::wire::AuthResult::Welcome { .. } => {}
        tdb::wire::AuthResult::Reject { reason } => panic!("handshake rejected: {reason}"),
    }

    // Request id 77, opcode 0xFFFF (no such command), trailing junk.
    let mut junk = 77u64.to_le_bytes().to_vec();
    junk.extend_from_slice(&0xFFFFu16.to_le_bytes());
    junk.extend_from_slice(b"garbage");
    tdb::wire::write_frame(&mut writer, &junk).expect("send junk");
    writer.flush().expect("flush");
    let envelope =
        tdb::wire::decode_response(&tdb::wire::read_frame(&mut reader).expect("response"))
            .expect("decode envelope");
    assert_eq!(envelope.request_id, 77, "error must keep the request id");
    match envelope.response {
        Response::Error(err) => assert!(err.code > 0),
        other => panic!("junk command answered {other:?}"),
    }

    // The connection survived: a well-formed request still works.
    tdb::wire::write_frame(&mut writer, &tdb::wire::encode_request(78, &Command::Ping))
        .expect("send ping");
    writer.flush().expect("flush");
    let envelope =
        tdb::wire::decode_response(&tdb::wire::read_frame(&mut reader).expect("response"))
            .expect("decode envelope");
    assert_eq!(envelope.request_id, 78);
    assert_eq!(envelope.response, Response::Pong);
    server.shutdown();
}
