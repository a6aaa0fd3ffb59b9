//! Transport parity: the embedded session and the TCP server are the
//! same database surface. One deterministic command stream, two twin
//! databases (same fixed keys, same configuration) — one driven through
//! `Session::dispatch` in-process, the other through `tdb-client` over a
//! real TCP loopback connection. The response streams must be
//! **identical** (ids, records, proofs, roots, and typed errors alike),
//! and so must the device-op shape the untrusted store saw: the network
//! layer adds no reads, writes, or flushes.

use std::any::Any;
use std::sync::Arc;

use tdb::{
    Command, IndexKey, IndexKind, ObjectId, Response, Session, StoredObject, TrustedBackend,
    TrustedDb, TrustedDbBuilder, TxMode, WireError,
};
use tdb_client::{ClientError, TdbClient};
use tdb_crypto::{CipherKind, HashKind, SecretKey};
use tdb_server::{ServerConfig, TdbServer};
use tdb_storage::{
    CounterOverTrusted, MemArchive, MemStore, MemTrustedStore, SharedUntrusted, StatsSnapshot,
    TrustedStore, UntrustedStore,
};

const REC_TAG: u32 = 7001;
const AUTH_KEY: &[u8] = b"parity-pre-shared-key";

#[derive(Debug)]
struct Rec {
    payload: Vec<u8>,
}

impl StoredObject for Rec {
    fn type_tag(&self) -> u32 {
        REC_TAG
    }
    fn pickle(&self) -> Vec<u8> {
        self.payload.clone()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn unpickle_rec(body: &[u8]) -> tdb_object::errors::Result<Arc<dyn StoredObject>> {
    Ok(Arc::new(Rec {
        payload: body.to_vec(),
    }))
}

fn rec_by_prefix(o: &dyn StoredObject) -> Option<Vec<u8>> {
    o.as_any().downcast_ref::<Rec>().map(|r| {
        IndexKey::new()
            .raw(&r.payload[..r.payload.len().min(4)])
            .into_bytes()
    })
}

/// A wire record for `payload` (type tag + pickle), built exactly like
/// the server's registry does.
fn record(payload: &str) -> Vec<u8> {
    let mut out = REC_TAG.to_le_bytes().to_vec();
    out.extend_from_slice(payload.as_bytes());
    out
}

/// Twin databases must be byte-for-byte deterministic, so every key is
/// fixed: chunk hashes cover plaintext, making roots and device-op
/// counts a pure function of the command stream.
fn build_twin() -> (TrustedDb, Arc<MemStore>) {
    let untrusted = Arc::new(MemStore::new());
    let counter = Arc::new(CounterOverTrusted::new(
        Arc::new(MemTrustedStore::new(64)) as Arc<dyn TrustedStore>
    ));
    let db = TrustedDbBuilder::new()
        .secret(SecretKey::new(vec![7u8; 24]))
        .partition_params(tdb::CryptoParams {
            cipher: CipherKind::Des,
            hash: HashKind::Sha1,
            key: SecretKey::new(vec![9u8; 8]),
        })
        .mvcc(true)
        .register_type(REC_TAG, unpickle_rec)
        .register_extractor("prefix", rec_by_prefix)
        .create(
            Arc::clone(&untrusted) as SharedUntrusted,
            TrustedBackend::Counter(counter),
            Arc::new(MemArchive::new()),
        )
        .expect("create twin db");
    (db, untrusted)
}

/// The deterministic command stream. Built incrementally: later commands
/// reference ids returned by earlier ones, so the stream is constructed
/// against a scratch session first and then replayed verbatim.
fn build_script() -> Vec<Command> {
    let (db, _) = build_twin();
    let mut session = db.session("script-builder");
    let mut script: Vec<Command> = Vec::new();
    let mut run = |script: &mut Vec<Command>, cmd: Command| -> Response {
        let resp = session.dispatch(&cmd);
        script.push(cmd);
        resp
    };
    let id_of = |resp: Response| -> ObjectId {
        match resp {
            Response::Id(id) => id,
            other => panic!("expected an id, got {other:?}"),
        }
    };

    run(&mut script, Command::Ping);
    run(&mut script, Command::Health);
    let p = db.partition();
    let id0 = id_of(run(
        &mut script,
        Command::Create {
            partition: p,
            record: record("alpha"),
        },
    ));
    let id1 = id_of(run(
        &mut script,
        Command::Create {
            partition: p,
            record: record("bravo"),
        },
    ));
    run(&mut script, Command::Get(id0));
    run(
        &mut script,
        Command::Put {
            id: id0,
            record: record("alpha-rewritten"),
        },
    );
    run(&mut script, Command::Get(id0));
    // Committed proof-carrying read, outside any transaction.
    run(&mut script, Command::GetWithProof(id0));
    run(&mut script, Command::SnapshotRoot);

    // A multi-command locking transaction.
    run(&mut script, Command::Begin(TxMode::Locking));
    let id2 = id_of(run(
        &mut script,
        Command::Create {
            partition: p,
            record: record("charlie"),
        },
    ));
    run(&mut script, Command::Get(id2));
    // Buffered state: served without a proof.
    run(&mut script, Command::GetWithProof(id2));
    run(&mut script, Command::Commit);
    run(&mut script, Command::Get(id2));

    // Collections, with an index.
    let coll = tdb::CollectionId(id_of(run(
        &mut script,
        Command::CollCreate {
            partition: p,
            name: "goods".into(),
        },
    )));
    for name in ["delta", "echo", "foxtrot"] {
        run(
            &mut script,
            Command::CollInsert {
                coll,
                record: record(name),
            },
        );
    }
    run(&mut script, Command::CollLen(coll));
    run(&mut script, Command::CollScan(coll));
    run(
        &mut script,
        Command::CollAddIndex {
            coll,
            name: "by_prefix".into(),
            extractor: "prefix".into(),
            kind: IndexKind::Sorted,
        },
    );
    run(
        &mut script,
        Command::CollLookup {
            coll,
            index: "by_prefix".into(),
            key: IndexKey::new().raw(b"echo").into_bytes(),
        },
    );
    run(
        &mut script,
        Command::CollRange {
            coll,
            index: "by_prefix".into(),
            lo: Some(IndexKey::new().raw(b"d").into_bytes()),
            hi: Some(IndexKey::new().raw(b"f").into_bytes()),
        },
    );

    // Typed errors must round-trip identically too.
    run(&mut script, Command::Delete(id1));
    run(&mut script, Command::Get(id1)); // NotFound
    run(&mut script, Command::Begin(TxMode::Locking));
    run(&mut script, Command::Begin(TxMode::Locking)); // Busy
    run(&mut script, Command::Abort);
    run(&mut script, Command::Commit); // TxFinished: nothing open

    // An MVCC transaction with a proof-carrying snapshot read.
    run(&mut script, Command::Begin(TxMode::Mvcc));
    run(&mut script, Command::GetWithProof(id0));
    run(&mut script, Command::Commit);

    // Admin surface.
    run(&mut script, Command::Checkpoint);
    run(&mut script, Command::Clean(4));
    run(&mut script, Command::SnapshotRoot);
    script
}

/// Zeroes wall-clock fields: parity is about operation *shape*, not
/// timing.
fn shape(mut s: StatsSnapshot) -> StatsSnapshot {
    s.read_ns = 0;
    s.write_ns = 0;
    s.flush_ns = 0;
    s
}

#[test]
fn same_commands_same_responses_same_device_ops() {
    let script = build_script();

    // Embedded run.
    let (db_a, store_a) = build_twin();
    let mut session = db_a.session("embedded");
    let embedded: Vec<Response> = script.iter().map(|cmd| session.dispatch(cmd)).collect();
    drop(session);

    // Remote run over TCP loopback.
    let (db_b, store_b) = build_twin();
    let mut server = TdbServer::spawn(
        Arc::new(db_b),
        "127.0.0.1:0",
        ServerConfig::new(SecretKey::new(AUTH_KEY.to_vec())),
    )
    .expect("spawn server");
    let mut client = TdbClient::connect(server.addr(), "remote", AUTH_KEY).expect("connect");
    let mut remote: Vec<Response> = Vec::new();
    for cmd in &script {
        client.send(cmd).expect("send");
        let (_, resp) = client.recv().expect("recv");
        remote.push(resp);
    }
    drop(client);
    server.shutdown();

    assert_eq!(embedded.len(), remote.len());
    for (i, (e, r)) in embedded.iter().zip(&remote).enumerate() {
        assert_eq!(e, r, "command {i} ({:?}) diverged", script[i].opcode());
    }

    // Same device-op shape: the network layer added no storage traffic.
    assert_eq!(
        shape(store_a.stats().snapshot()),
        shape(store_b.stats().snapshot()),
        "embedded and TCP runs drove different device-op shapes"
    );
}

/// Depth-8 pipelining: the same script sent eight requests at a time
/// (send ×8, then recv ×8), so the server runs each burst as one
/// `dispatch_many` and group-commits its autocommit writes. The answers
/// are byte-identical to one-at-a-time embedded dispatch, the device saw
/// the same reads, and no more writes or flushes.
#[test]
fn pipelined_script_same_responses_no_more_device_ops() {
    let script = build_script();

    let (db_a, store_a) = build_twin();
    let mut session = db_a.session("embedded");
    let embedded: Vec<Response> = script.iter().map(|cmd| session.dispatch(cmd)).collect();
    drop(session);

    let (db_b, store_b) = build_twin();
    let db_b = Arc::new(db_b);
    let mut server = spawn(&db_b);
    let mut client = TdbClient::connect(server.addr(), "remote", AUTH_KEY).expect("connect");
    let mut remote: Vec<Response> = Vec::new();
    for burst in script.chunks(8) {
        remote.extend(pipeline(&mut client, burst));
    }
    drop(client);
    server.shutdown();

    assert_eq!(embedded.len(), remote.len());
    for (i, (e, r)) in embedded.iter().zip(&remote).enumerate() {
        assert_eq!(e, r, "command {i} ({:?}) diverged", script[i].opcode());
    }
    let (a, b) = (
        shape(store_a.stats().snapshot()),
        shape(store_b.stats().snapshot()),
    );
    assert_eq!(a.reads, b.reads, "device reads differ");
    assert_eq!(a.bytes_read, b.bytes_read, "device bytes read differ");
    assert!(b.writes <= a.writes, "writes {} > {}", b.writes, a.writes);
    assert!(
        b.flushes <= a.flushes,
        "flushes {} > {}",
        b.flushes,
        a.flushes
    );
    assert!(
        db_b.chunks().stats().batched_commits > db_b.chunks().stats().commit_batches,
        "no burst ever shared a batch"
    );
}

/// Each barrier of a burst keeps one-at-a-time semantics, checked against
/// the embedded twin command by command and on the specific outcome.
#[test]
fn burst_barriers_keep_sequential_semantics() {
    let (db_a, _) = build_twin();
    let (db_b, _) = build_twin();
    let p = db_a.partition();
    let mut session = db_a.session("embedded");
    let mut server = spawn(&Arc::new(db_b));
    let mut client = TdbClient::connect(server.addr(), "remote", AUTH_KEY).expect("connect");
    fn twin_bursts(
        session: &mut Session,
        client: &mut TdbClient,
        cmds: &[Command],
    ) -> Vec<Response> {
        let embedded: Vec<Response> = cmds.iter().map(|c| session.dispatch(c)).collect();
        let remote = pipeline(client, cmds);
        assert_eq!(embedded, remote, "burst {cmds:?}");
        remote
    }
    let mut both = |cmds: &[Command]| twin_bursts(&mut session, &mut client, cmds);
    let put = |id: ObjectId, v: &str| Command::Put {
        id,
        record: record(v),
    };
    let create = |v: &str| Command::Create {
        partition: p,
        record: record(v),
    };
    let ids: Vec<ObjectId> = both(&[create("a0"), create("b0"), create("c0")])
        .into_iter()
        .map(|r| match r {
            Response::Id(id) => id,
            other => panic!("create answered {other:?}"),
        })
        .collect();
    let (a, b, c) = (ids[0], ids[1], ids[2]);

    // A read of a pending id sees the write.
    let r = both(&[put(a, "a1"), Command::Get(a)]);
    assert_eq!(r[1], Response::Record(record("a1")));
    // Two writes of one id: the last writer wins.
    both(&[put(a, "a2"), put(a, "a3")]);
    assert_eq!(both(&[Command::Get(a)])[0], Response::Record(record("a3")));
    // A proof read returns a root that already covers the pending write.
    let r = both(&[put(a, "a4"), Command::GetWithProof(b)]);
    let Response::VerifiedRecord { root, .. } = &r[1] else {
        panic!("proof read answered {:?}", r[1]);
    };
    let pinned = tdb_crypto::HashValue::new(root);
    let r = both(&[Command::GetWithProof(a)]);
    let Response::VerifiedRecord {
        record: body,
        proof: Some(proof),
        root: now,
    } = &r[0]
    else {
        panic!("proof read answered {:?}", r[0]);
    };
    assert_eq!(now, root, "nothing committed in between");
    assert_eq!(body, &record("a4"));
    let proof = tdb::ReadProof::decode(proof).expect("proof decodes");
    assert!(
        tdb::verify_read_proof(&proof, body, &pinned),
        "a4 verifies against the pinned root"
    );
    // An explicit transaction inside a burst, between autocommit writes.
    let r = both(&[
        put(b, "b1"),
        Command::Begin(TxMode::Locking),
        put(c, "c1"),
        Command::Get(b),
        Command::Commit,
        put(a, "a5"),
        Command::Get(c),
    ]);
    assert_eq!(r[3], Response::Record(record("b1")));
    assert_eq!(r[6], Response::Record(record("c1")));
    // Reads of ids nothing pending touches run in place; a failing write
    // fails alone.
    let r = both(&[
        put(a, "a6"),
        Command::Get(b),
        Command::Put {
            id: c,
            record: b"\xff\xff\xff\xffno such type".to_vec(),
        },
        put(c, "c2"),
        Command::Get(a),
    ]);
    assert!(matches!(r[2], Response::Error(_)));
    assert_eq!(r[4], Response::Record(record("a6")));
    assert_eq!(both(&[Command::Get(c)])[0], Response::Record(record("c2")));
    drop(client);
    server.shutdown();
}

/// A malformed frame in the middle of a burst is a barrier: the writes
/// before it are committed, it gets its in-band error on its own request
/// id, and the rest of the burst runs normally.
#[test]
fn malformed_frame_mid_burst_is_answered_in_band() {
    use std::io::Write;

    let (db, _) = build_twin();
    let p = db.partition();
    let mut server = spawn(&Arc::new(db));
    let (mut reader, mut writer) = raw_connect(server.addr());
    let mut junk = 11u64.to_le_bytes().to_vec();
    junk.extend_from_slice(&0xFFFFu16.to_le_bytes());
    let frames = [
        tdb::wire::encode_request(
            10,
            &Command::Create {
                partition: p,
                record: record("before"),
            },
        ),
        junk,
        tdb::wire::encode_request(
            12,
            &Command::Create {
                partition: p,
                record: record("after"),
            },
        ),
        tdb::wire::encode_request(13, &Command::Ping),
    ];
    let mut bytes = Vec::new();
    for f in &frames {
        tdb::wire::write_frame(&mut bytes, f).expect("frame");
    }
    writer.write_all(&bytes).expect("send burst");
    writer.flush().expect("flush");
    let mut answers = Vec::new();
    for _ in 0..frames.len() {
        let payload = tdb::wire::read_frame(&mut reader).expect("response");
        answers.push(tdb::wire::decode_response(&payload).expect("envelope"));
    }
    let ids: Vec<u64> = answers.iter().map(|a| a.request_id).collect();
    assert_eq!(ids, [10, 11, 12, 13], "replies must keep request order");
    assert!(matches!(answers[0].response, Response::Id(_)));
    assert!(matches!(answers[1].response, Response::Error(_)));
    assert!(matches!(answers[2].response, Response::Id(_)));
    assert_eq!(answers[3].response, Response::Pong);
    for (answer, payload) in [(&answers[0], "before"), (&answers[2], "after")] {
        let Response::Id(id) = answer.response else {
            unreachable!()
        };
        let get = tdb::wire::encode_request(20, &Command::Get(id));
        tdb::wire::write_frame(&mut writer, &get).expect("send get");
        writer.flush().expect("flush");
        let payload_back =
            tdb::wire::decode_response(&tdb::wire::read_frame(&mut reader).expect("response"))
                .expect("envelope");
        assert_eq!(payload_back.response, Response::Record(record(payload)));
    }
    server.shutdown();
}

/// Sixteen distinct-id puts written in one client flush ride one group
/// commit and cost fewer device flushes than sixteen one-at-a-time calls.
#[test]
fn pipelined_puts_share_a_batch_and_save_flushes() {
    let (db, store) = build_twin();
    let db = Arc::new(db);
    let p = db.partition();
    let mut server = spawn(&db);
    let mut client = TdbClient::connect(server.addr(), "batcher", AUTH_KEY).expect("connect");
    let ids: Vec<ObjectId> = (0..16)
        .map(|i| {
            client
                .create(p, record(&format!("v0-{i}")))
                .expect("create")
        })
        .collect();

    let flushes = || store.stats().snapshot().flushes;
    let before = flushes();
    for (i, id) in ids.iter().enumerate() {
        client.put(*id, record(&format!("v1-{i}"))).expect("put");
    }
    let one_at_a_time = flushes() - before;

    let stats_before = db.chunks().stats();
    let before = flushes();
    let burst: Vec<Command> = ids
        .iter()
        .enumerate()
        .map(|(i, id)| Command::Put {
            id: *id,
            record: record(&format!("v2-{i}")),
        })
        .collect();
    for r in pipeline(&mut client, &burst) {
        assert_eq!(r, Response::Ok);
    }
    let pipelined = flushes() - before;
    let stats = db.chunks().stats();
    let shared = (stats.batched_commits - stats_before.batched_commits)
        - (stats.commit_batches - stats_before.commit_batches);
    assert!(shared > 0, "no put shared a batch");
    assert!(
        pipelined < one_at_a_time,
        "pipelined {pipelined} flushes, one at a time {one_at_a_time}"
    );
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(client.get(*id).expect("get"), record(&format!("v2-{i}")));
    }
    server.shutdown();
}

fn spawn(db: &Arc<TrustedDb>) -> TdbServer {
    TdbServer::spawn(
        Arc::clone(db),
        "127.0.0.1:0",
        ServerConfig::new(SecretKey::new(AUTH_KEY.to_vec())),
    )
    .expect("spawn server")
}

/// Sends every command before reading any response — one client flush —
/// then collects the responses in order.
fn pipeline(client: &mut TdbClient, cmds: &[Command]) -> Vec<Response> {
    for cmd in cmds {
        client.send(cmd).expect("send");
    }
    cmds.iter()
        .map(|_| client.recv().expect("recv").1)
        .collect()
}

/// An authenticated raw connection, for frames `TdbClient` will not send.
fn raw_connect(
    addr: std::net::SocketAddr,
) -> (std::io::BufReader<std::net::TcpStream>, std::net::TcpStream) {
    use std::io::Write;
    use tdb::wire;

    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let hello = wire::Hello::decode(&wire::read_frame(&mut reader).expect("hello")).expect("hello");
    let nonce = [5u8; wire::NONCE_LEN];
    let auth = wire::ClientAuth {
        principal: "raw".into(),
        nonce,
        mac: wire::client_auth_mac(AUTH_KEY, &hello.nonce, &nonce, "raw"),
    };
    wire::write_frame(&mut writer, &auth.encode()).expect("auth");
    writer.flush().expect("flush");
    match wire::AuthResult::decode(&wire::read_frame(&mut reader).expect("verdict")) {
        Ok(wire::AuthResult::Welcome { .. }) => {}
        other => panic!("handshake failed: {other:?}"),
    }
    (reader, writer)
}

#[test]
fn pipelined_burst_answers_in_order() {
    let (db, _) = build_twin();
    let p = db.partition();
    let mut server = TdbServer::spawn(
        Arc::new(db),
        "127.0.0.1:0",
        ServerConfig::new(SecretKey::new(AUTH_KEY.to_vec())),
    )
    .expect("spawn server");
    let mut client = TdbClient::connect(server.addr(), "burst", AUTH_KEY).expect("connect");

    // Queue a burst without reading a single response.
    let mut expected_ids = Vec::new();
    for i in 0..32u32 {
        let id = client
            .send(&Command::Create {
                partition: p,
                record: record(&format!("burst-{i}")),
            })
            .expect("send");
        expected_ids.push(id);
    }
    assert_eq!(client.outstanding(), 32);
    let mut created = Vec::new();
    for expect in expected_ids {
        let (req, resp) = client.recv().expect("recv");
        assert_eq!(req, expect, "responses must arrive in send order");
        match resp {
            Response::Id(id) => created.push(id),
            other => panic!("create answered {other:?}"),
        }
    }
    // The burst really committed: every object reads back.
    for (i, id) in created.iter().enumerate() {
        let rec = client.get(*id).expect("get");
        assert_eq!(rec, record(&format!("burst-{i}")));
    }
    server.shutdown();
}

#[test]
fn wrong_key_is_rejected_and_wrong_server_is_detected() {
    let (db, _) = build_twin();
    let mut server = TdbServer::spawn(
        Arc::new(db),
        "127.0.0.1:0",
        ServerConfig::new(SecretKey::new(AUTH_KEY.to_vec())),
    )
    .expect("spawn server");

    match TdbClient::connect(server.addr(), "mallory", b"wrong-key") {
        Err(ClientError::AuthRejected(reason)) => {
            assert!(reason.contains("authentication failed"), "reason: {reason}");
        }
        other => panic!("wrong key must be rejected, got {other:?}"),
    }
    assert_eq!(
        server
            .stats()
            .rejected
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );

    // The right key still works afterwards.
    let mut client = TdbClient::connect(server.addr(), "alice", AUTH_KEY).expect("connect");
    client.ping().expect("ping");
    server.shutdown();
}

#[test]
fn verified_reads_pass_over_the_wire_against_a_pinned_root() {
    let (db, _) = build_twin();
    let p = db.partition();
    let mut server = TdbServer::spawn(
        Arc::new(db),
        "127.0.0.1:0",
        ServerConfig::new(SecretKey::new(AUTH_KEY.to_vec())),
    )
    .expect("spawn server");
    let mut client = TdbClient::connect(server.addr(), "verifier", AUTH_KEY).expect("connect");

    let mut ids = Vec::new();
    for i in 0..8u32 {
        ids.push(
            client
                .create(p, record(&format!("pinned-{i}")))
                .expect("create"),
        );
    }
    // Pin the committed root, then verify every object against it with
    // proofs shipped over TCP — the server is out of the trusted base.
    let root = client.snapshot_root().expect("root");
    for (i, id) in ids.iter().enumerate() {
        let rec = client.get_verified(*id, &root).expect("verified read");
        assert_eq!(rec, record(&format!("pinned-{i}")));
    }
    // A root from *before* a later commit must reject reads of the new
    // state: the stale pin cannot vouch for it.
    let moved = client.create(p, record("post-pin")).expect("create");
    match client.get_verified(moved, &root) {
        Err(ClientError::ProofInvalid) => {}
        other => panic!("stale pinned root must reject, got {other:?}"),
    }
    // Re-pinning to the current root makes the same read verify.
    let fresh = client.snapshot_root().expect("root");
    assert_eq!(
        client.get_verified(moved, &fresh).expect("verified read"),
        record("post-pin")
    );
    server.shutdown();
}

/// A proof read of an object in another partition than the session's
/// returns that partition's root, the one its proof was extracted against,
/// both committed and inside a snapshot transaction, embedded and remote.
#[test]
fn verified_record_root_verifies_its_own_proof_in_any_partition() {
    let second = |db: &TrustedDb| {
        db.create_partition(tdb::CryptoParams {
            cipher: CipherKind::Aes128,
            hash: HashKind::Sha256,
            key: SecretKey::new(vec![5u8; 16]),
        })
        .expect("second partition")
    };
    let (db_a, _) = build_twin();
    let (db_b, _) = build_twin();
    let (q, q_b) = (second(&db_a), second(&db_b));
    assert_eq!(q, q_b);
    let mut session = db_a.session("embedded");
    let mut server = spawn(&Arc::new(db_b));
    let mut client = TdbClient::connect(server.addr(), "remote", AUTH_KEY).expect("connect");
    let mut both = |cmds: &[Command]| {
        let embedded: Vec<Response> = cmds.iter().map(|c| session.dispatch(c)).collect();
        assert_eq!(embedded, pipeline(&mut client, cmds), "{cmds:?}");
        embedded
    };
    let Response::Id(id) = both(&[Command::Create {
        partition: q,
        record: record("elsewhere"),
    }])[0] else {
        panic!("create in the second partition failed");
    };
    let read = both(&[
        Command::GetWithProof(id),
        Command::Begin(TxMode::Mvcc),
        Command::GetWithProof(id),
        Command::Commit,
    ]);
    for r in [&read[0], &read[2]] {
        let Response::VerifiedRecord {
            record: body,
            proof: Some(proof),
            root,
        } = r
        else {
            panic!("proof read answered {r:?}");
        };
        assert_eq!(body, &record("elsewhere"));
        let proof = tdb::ReadProof::decode(proof).expect("proof decodes");
        assert_eq!(proof.id.partition, q);
        let root = tdb_crypto::HashValue::new(root);
        assert!(
            tdb::verify_read_proof(&proof, body, &root),
            "the returned root verifies the returned proof"
        );
    }
    server.shutdown();
}

/// A second `Begin` on a session that already has a transaction open is
/// `Busy` (code 15), embedded and remote alike, and it is not transient:
/// retrying it fails the same way until the open transaction ends.
#[test]
fn second_begin_is_busy_and_not_transient() {
    let not_transient = |e: &WireError| {
        assert_eq!(e.code, 15, "expected Busy, got {e}");
        assert_eq!(e.class, Some(tdb::FaultClass::Permanent), "{e}");
    };

    let begin = Command::Begin(TxMode::Locking);
    let (db_a, _) = build_twin();
    let mut session = db_a.session("embedded");
    assert_eq!(session.dispatch(&begin), Response::Ok);
    for _ in 0..2 {
        match session.dispatch(&begin) {
            Response::Error(e) => not_transient(&e),
            other => panic!("second Begin answered {other:?}"),
        }
    }
    assert_eq!(session.dispatch(&Command::Abort), Response::Ok);
    assert_eq!(session.dispatch(&begin), Response::Ok);

    let (db_b, _) = build_twin();
    let mut server = spawn(&Arc::new(db_b));
    let mut client = TdbClient::connect(server.addr(), "remote", AUTH_KEY).expect("connect");
    client.begin(TxMode::Locking).expect("first begin");
    match client.begin(TxMode::Locking) {
        Err(ClientError::Remote(e)) => not_transient(&e),
        other => panic!("second Begin over the wire answered {other:?}"),
    }
    server.shutdown();
}

/// A tamper the object layer finds answers `Get` with its own tamper code
/// (100–110) and class `Integrity`, embedded and over TCP alike, not with
/// a code of the object layer.
#[test]
fn tampered_record_get_answers_a_tamper_code() {
    /// Creates one record, flips the last byte of its committed version
    /// on the device, and clears the object and read caches.
    fn tampered(db: &TrustedDb, store: &MemStore) -> ObjectId {
        let create = Command::Create {
            partition: db.partition(),
            record: record("tamper me"),
        };
        let Response::Id(id) = db.session("writer").dispatch(&create) else {
            panic!("create failed");
        };
        let version = db.chunks().debug_descriptor(id.0).expect("descriptor");
        store.tamper(version.location + u64::from(version.vlen) - 1, 0x01);
        db.objects().invalidate_cache();
        db.chunks().drop_read_cache();
        id
    }
    let is_tamper = |e: &WireError| {
        assert!((100..=110).contains(&e.code), "expected tamper, got {e:?}");
        assert_eq!(e.class, Some(tdb::FaultClass::Integrity), "{e}");
    };

    let (db_a, store_a) = build_twin();
    let id = tampered(&db_a, &store_a);
    match db_a.session("embedded").dispatch(&Command::Get(id)) {
        Response::Error(e) => is_tamper(&e),
        other => panic!("tampered Get answered {other:?}"),
    }

    let (db_b, store_b) = build_twin();
    let db_b = Arc::new(db_b);
    let id = tampered(&db_b, &store_b);
    let mut server = spawn(&db_b);
    let mut client = TdbClient::connect(server.addr(), "remote", AUTH_KEY).expect("connect");
    match client.get(id) {
        Err(ClientError::Remote(e)) => is_tamper(&e),
        other => panic!("tampered Get over the wire answered {other:?}"),
    }
    server.shutdown();
}

#[test]
fn session_transactions_are_isolated_per_connection() {
    let (db, _) = build_twin();
    let p = db.partition();
    let mut server = TdbServer::spawn(
        Arc::new(db),
        "127.0.0.1:0",
        ServerConfig::new(SecretKey::new(AUTH_KEY.to_vec())),
    )
    .expect("spawn server");

    let mut alice = TdbClient::connect(server.addr(), "alice", AUTH_KEY).expect("connect");
    let mut bob = TdbClient::connect(server.addr(), "bob", AUTH_KEY).expect("connect");

    // Alice opens a transaction and buffers a write; Bob's session has no
    // transaction, so his Begin succeeds independently.
    alice.begin(TxMode::Locking).expect("alice begin");
    let id = alice.create(p, record("private")).expect("alice create");
    bob.begin(TxMode::Locking).expect("bob begin");
    bob.abort().expect("bob abort");
    // Bob cannot see Alice's uncommitted object: her write lock makes his
    // autocommit read time out (two-phase locking, typed code 205).
    match bob.get(id) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, 205, "expected LockTimeout, got {e}"),
        other => panic!("uncommitted object must be invisible, got {other:?}"),
    }
    alice.commit().expect("alice commit");
    assert_eq!(
        bob.get(id).expect("visible after commit"),
        record("private")
    );

    // A dropped connection aborts its open transaction server-side.
    alice.begin(TxMode::Locking).expect("alice begin again");
    let doomed = alice.create(p, record("doomed")).expect("alice create");
    drop(alice);
    // Locks release once the server reaps the session; retry briefly.
    let mut gone = false;
    for _ in 0..100 {
        match bob.get(doomed) {
            Err(ClientError::Remote(e)) if e.code == 201 => {
                gone = true;
                break;
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
    assert!(gone, "dropped connection must abort its transaction");
    server.shutdown();
}
