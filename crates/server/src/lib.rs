#![forbid(unsafe_code)]
//! `tdb-server`: a multi-client TCP front end for a [`TrustedDb`].
//!
//! The paper's deployment model (§2) is a trusted *server* process that
//! many untrusted clients talk to over a network; this crate is that
//! process's network layer. It is deliberately thin: all semantics live
//! in the transport-agnostic session/command layer ([`tdb::Session`],
//! [`tdb::Command`]), which the embedded API uses too — the server only
//! adds sockets, frames, and authentication.
//!
//! Design:
//!
//! - **Thread per connection** over `std::net`. Each connection blocks
//!   reading one request frame, takes every complete frame already in its
//!   read buffer behind it (the buffer's capacity bounds the burst; there
//!   is no timer), runs the burst through one [`tdb::Session::dispatch_many`]
//!   call, and writes the replies strictly in request order. The burst's
//!   autocommit writes are one group commit — one batch, one device flush
//!   — and the session hands a reply over only once every write at or
//!   before it is durable (a read with no write pending before it is
//!   answered at once, as before). A burst is whatever the client wrote
//!   at once: `tdb-client` writes its queued requests only before it
//!   would block on a reply, so a pipelined round arrives, and commits,
//!   together. Concurrent connections still share the chunk store's
//!   group-commit batcher on top of that.
//! - **Challenge-response auth** ([`tdb::wire`]) over a pre-shared HMAC
//!   key before any command is accepted.
//! - **Degraded-mode signalling**: every response envelope carries the
//!   store's health byte, read after the command or group commit that
//!   produced the reply, so clients observe `Live → Degraded/Poisoned`
//!   transitions on the replies of the very burst that caused them.
//! - **Graceful shutdown**: [`TdbServer::shutdown`] stops the accept
//!   loop, shuts down every live socket (clients see a clean EOF, not a
//!   hung connection), and joins all threads.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use tdb::wire::{
    self, client_auth_mac, server_welcome_mac, AuthResult, ClientAuth, Hello, NONCE_LEN,
};
use tdb::{Response, Session, TrustedDb};
use tdb_crypto::SecretKey;

/// Server configuration.
pub struct ServerConfig {
    /// Pre-shared HMAC key clients must prove possession of.
    pub auth_key: SecretKey,
}

impl ServerConfig {
    /// Config with the given pre-shared key.
    pub fn new(auth_key: SecretKey) -> ServerConfig {
        ServerConfig { auth_key }
    }
}

/// Aggregate server counters (all monotonic).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Sessions that passed authentication.
    pub sessions: AtomicU64,
    /// Handshakes refused (bad MAC, bad frame).
    pub rejected: AtomicU64,
    /// Requests dispatched.
    pub requests: AtomicU64,
    /// Requests answered with an error response.
    pub errors: AtomicU64,
}

struct ServerShared {
    db: Arc<TrustedDb>,
    auth_key: SecretKey,
    shutdown: AtomicBool,
    next_session: AtomicU64,
    stats: ServerStats,
    /// Live connection sockets, for shutdown. Keyed by session id.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Finished-or-running connection threads, joined at shutdown.
    handles: Mutex<Vec<JoinHandle<()>>>,
}

/// A running TDB server. Dropping it shuts it down.
pub struct TdbServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    accept_handle: Option<JoinHandle<()>>,
}

impl TdbServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept loop.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn(
        db: Arc<TrustedDb>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<TdbServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            db,
            auth_key: config.auth_key,
            shutdown: AtomicBool::new(false),
            next_session: AtomicU64::new(1),
            stats: ServerStats::default(),
            conns: Mutex::new(HashMap::new()),
            handles: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("tdb-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(TdbServer {
            shared,
            addr: local,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address (with the real port when spawned on port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Stops accepting, closes every live connection, joins all threads.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        // Shut down live sockets: connection threads unblock from read
        // with EOF and exit their loops.
        for (_, conn) in self.shared.conns.lock().unwrap().drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        let handles = std::mem::take(&mut *self.shared.handles.lock().unwrap());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for TdbServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.stats.connections.fetch_add(1, Ordering::Relaxed);
        let conn_shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("tdb-conn".into())
            .spawn(move || {
                let _ = serve_connection(stream, &conn_shared);
            });
        if let Ok(handle) = handle {
            shared.handles.lock().unwrap().push(handle);
        }
    }
}

/// Runs the handshake; returns the authenticated principal and the
/// session id, or writes a Reject frame and errors out.
fn handshake<R: Read, W: Write>(
    reader: &mut R,
    writer: &mut W,
    shared: &ServerShared,
) -> io::Result<(String, u64)> {
    fn reject<W: Write>(writer: &mut W, reason: &str) -> io::Result<()> {
        wire::write_frame(
            writer,
            &AuthResult::Reject {
                reason: reason.to_string(),
            }
            .encode(),
        )?;
        writer.flush()
    }

    let mut server_nonce = [0u8; NONCE_LEN];
    server_nonce.copy_from_slice(SecretKey::random(NONCE_LEN).as_bytes());
    wire::write_frame(
        writer,
        &Hello {
            nonce: server_nonce,
        }
        .encode(),
    )?;
    writer.flush()?;

    let auth_payload = wire::read_frame(reader)?;
    let auth = match ClientAuth::decode(&auth_payload) {
        Ok(auth) => auth,
        Err(e) => {
            shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            reject(writer, &format!("malformed auth frame: {e}"))?;
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad auth frame"));
        }
    };
    let expected = client_auth_mac(
        shared.auth_key.as_bytes(),
        &server_nonce,
        &auth.nonce,
        &auth.principal,
    );
    if !expected.ct_eq(&auth.mac) {
        shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
        reject(writer, "authentication failed")?;
        return Err(io::Error::new(
            io::ErrorKind::PermissionDenied,
            "bad client MAC",
        ));
    }
    let session_id = shared.next_session.fetch_add(1, Ordering::Relaxed);
    let welcome = AuthResult::Welcome {
        mac: server_welcome_mac(shared.auth_key.as_bytes(), &auth.nonce, &server_nonce),
        session_id,
    };
    wire::write_frame(writer, &welcome.encode())?;
    writer.flush()?;
    shared.stats.sessions.fetch_add(1, Ordering::Relaxed);
    Ok((auth.principal, session_id))
}

fn serve_connection(stream: TcpStream, shared: &Arc<ServerShared>) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream.try_clone()?);

    let (principal, session_id) = handshake(&mut reader, &mut writer, shared)?;
    shared
        .conns
        .lock()
        .unwrap()
        .insert(session_id, stream.try_clone()?);
    // Dropping the session at any exit aborts its open transaction.
    let mut session = shared.db.session(&principal);

    let result = (|| -> io::Result<()> {
        let mut frames = Vec::new();
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            match wire::read_frame(&mut reader) {
                Ok(p) => frames.push(p),
                // Clean EOF between frames = client hung up.
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
                Err(e) => return Err(e),
            }
            // The burst: every complete frame that arrived behind it.
            while wire::frame_buffered(reader.buffer()) {
                frames.push(wire::read_frame(&mut reader)?);
            }
            serve_burst(&mut session, &frames, &mut writer, shared)?;
            frames.clear();
            // Flush only when no more requests are already queued: back-
            // to-back pipelined requests share one flush.
            if reader.buffer().is_empty() {
                writer.flush()?;
            }
        }
    })();
    shared.conns.lock().unwrap().remove(&session_id);
    result
}

/// Answers a burst of request frames in order. Each run of well-formed
/// requests is one `dispatch_many` call; a malformed frame is a barrier
/// between runs. The session hands over each reply once it is final — its
/// command done and every write at or before it durable — and the reply
/// is written then, stamped with the health read at that moment.
fn serve_burst(
    session: &mut Session,
    frames: &[Vec<u8>],
    writer: &mut impl Write,
    shared: &ServerShared,
) -> io::Result<()> {
    let mut written = Ok(());
    let mut write = |id: u64, reply: Response| {
        if matches!(reply, Response::Error(_)) {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        let (health, reason) = wire::health_stamp(&shared.db.health());
        if written.is_ok() {
            let envelope = wire::encode_response(id, health, &reason, &reply);
            written = wire::write_frame(writer, &envelope);
        }
    };
    let mut ids = Vec::with_capacity(frames.len());
    let mut cmds = Vec::with_capacity(frames.len());
    for payload in frames {
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        match wire::decode_request(payload) {
            Ok((id, cmd)) => {
                ids.push(id);
                cmds.push(cmd);
            }
            Err(e) => {
                let mut run = ids.drain(..);
                session.dispatch_many(&cmds, |reply| {
                    write(run.next().expect("one per request"), reply)
                });
                cmds.clear();
                // A malformed command still gets an in-band typed error
                // (request id 0 when the id itself was unreadable).
                let error = Response::Error(tdb::WireError::from(&tdb::TdbError::Core(e)));
                write(decoded_request_id(payload), error);
            }
        }
    }
    let mut run = ids.into_iter();
    session.dispatch_many(&cmds, |reply| {
        write(run.next().expect("one per request"), reply)
    });
    written
}

/// Salvages the request id from a frame whose command failed to decode,
/// so the error can still be matched to its request client-side.
fn decoded_request_id(payload: &[u8]) -> u64 {
    if payload.len() >= 8 {
        u64::from_le_bytes(payload[..8].try_into().expect("checked length"))
    } else {
        0
    }
}
