#![forbid(unsafe_code)]
//! `tdb-client`: connection handle for the tdb wire protocol.
//!
//! Counterpart to `tdb-server`, sharing the protocol definition in
//! [`tdb::wire`]. Two call styles:
//!
//! - [`TdbClient::call`]: one request, one response — simple, a round
//!   trip each.
//! - [`TdbClient::send`] / [`TdbClient::recv`]: **pipelining**. Queue
//!   any number of requests without waiting; responses arrive strictly
//!   in send order. Queued requests go out in one write when `recv` is
//!   about to block, so everything sent while a clump of responses was
//!   consumed reaches the server as one burst — one group commit. This
//!   is how a single connection keeps the server's group-commit batcher
//!   fed.
//!
//! Server-side faults arrive as [`ClientError::Remote`] carrying a
//! [`tdb::WireError`]: the stable numeric code from the one code table
//! ([`tdb::TdbError::code`]; tamper is 100–110), the fault class
//! (`Integrity` for tamper), and the server's `Display` text.
//!
//! The client also carries the trust side of the paper's story:
//! [`TdbClient::get_verified`] fetches a record with its Merkle proof
//! and verifies it **locally** with [`tdb::verify_read_proof`] against a
//! pinned root digest — the server (and the network) drop out of the
//! trusted base for reads.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use tdb::wire::{
    self, client_auth_mac, server_welcome_mac, AuthResult, ClientAuth, Hello, NONCE_LEN,
};
use tdb::{Command, ReadProof, Response, TxMode, WireError};
use tdb_core::PartitionId;
use tdb_crypto::{HashValue, SecretKey};

/// Errors a client call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connection reset, refused, EOF mid-frame).
    Io(io::Error),
    /// The peer spoke the protocol wrong (bad frame, bad envelope).
    Protocol(String),
    /// The server refused the handshake.
    AuthRejected(String),
    /// The server's welcome MAC did not verify: whatever answered the
    /// handshake does not hold the pre-shared key.
    ServerImpostor,
    /// The server executed the command and it failed.
    Remote(WireError),
    /// The response decoded fine but had the wrong shape for this call
    /// (e.g. a `Count` where an `Id` was expected).
    Unexpected(Response),
    /// A verified read came back without a proof (value superseded or a
    /// commit in flight — retry, or accept the unproven record).
    ProofUnavailable,
    /// A verified read's proof failed local verification: the record is
    /// NOT a member of the tree under the pinned root. Treat as tamper.
    ProofInvalid,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::AuthRejected(reason) => write!(f, "authentication rejected: {reason}"),
            ClientError::ServerImpostor => {
                write!(f, "server failed mutual authentication (bad welcome MAC)")
            }
            ClientError::Remote(e) => write!(f, "server error [{}]: {e}", e.code),
            ClientError::Unexpected(r) => write!(f, "unexpected response shape: {r:?}"),
            ClientError::ProofUnavailable => {
                write!(f, "no proof available for this read (version superseded)")
            }
            ClientError::ProofInvalid => {
                write!(f, "read proof failed verification against the pinned root")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ClientError>;

/// Store health as last stamped on a response envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteHealth {
    /// 0 live, 1 degraded, 2 poisoned ([`tdb::wire::health`]).
    pub state: u8,
    /// Reason when not live.
    pub reason: String,
}

impl RemoteHealth {
    /// True when the store was fully operational at the last response.
    pub fn is_live(&self) -> bool {
        self.state == wire::health::LIVE
    }
}

/// An authenticated connection to a tdb server.
pub struct TdbClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    session_id: u64,
    next_request: u64,
    /// Request ids sent but not yet answered, in send order.
    pending: VecDeque<u64>,
    last_health: RemoteHealth,
}

impl TdbClient {
    /// Connects, runs the mutual challenge-response handshake as
    /// `principal`, and returns a ready client.
    ///
    /// # Errors
    ///
    /// [`ClientError::AuthRejected`] when the server refuses the MAC;
    /// [`ClientError::ServerImpostor`] when the server's counter-MAC
    /// fails — the connection must not be used.
    pub fn connect(
        addr: impl ToSocketAddrs,
        principal: &str,
        auth_key: &[u8],
    ) -> Result<TdbClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);

        let hello_payload = wire::read_frame(&mut reader)?;
        let hello =
            Hello::decode(&hello_payload).map_err(|e| ClientError::Protocol(e.to_string()))?;

        let mut client_nonce = [0u8; NONCE_LEN];
        client_nonce.copy_from_slice(SecretKey::random(NONCE_LEN).as_bytes());
        let auth = ClientAuth {
            principal: principal.to_string(),
            nonce: client_nonce,
            mac: client_auth_mac(auth_key, &hello.nonce, &client_nonce, principal),
        };
        wire::write_frame(&mut writer, &auth.encode())?;
        writer.flush()?;

        let verdict_payload = wire::read_frame(&mut reader)?;
        let verdict = AuthResult::decode(&verdict_payload)
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        let session_id = match verdict {
            AuthResult::Reject { reason } => return Err(ClientError::AuthRejected(reason)),
            AuthResult::Welcome { mac, session_id } => {
                let expected = server_welcome_mac(auth_key, &client_nonce, &hello.nonce);
                if !expected.ct_eq(&mac) {
                    return Err(ClientError::ServerImpostor);
                }
                session_id
            }
        };
        Ok(TdbClient {
            reader,
            writer,
            session_id,
            next_request: 1,
            pending: VecDeque::new(),
            last_health: RemoteHealth {
                state: wire::health::LIVE,
                reason: String::new(),
            },
        })
    }

    /// The server-assigned session id.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Health as stamped on the most recent response.
    pub fn last_health(&self) -> &RemoteHealth {
        &self.last_health
    }

    /// Number of requests sent but not yet answered.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Queues one request without waiting for its response. Returns the
    /// request id; responses arrive in send order via [`TdbClient::recv`].
    /// Nothing is written until [`TdbClient::flush`], or until `recv`
    /// flushes before it would block.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn send(&mut self, cmd: &Command) -> Result<u64> {
        let id = self.next_request;
        self.next_request += 1;
        let payload = wire::encode_request(id, cmd);
        wire::write_frame(&mut self.writer, &payload)?;
        self.pending.push_back(id);
        Ok(id)
    }

    /// Flushes queued requests to the socket.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn flush(&mut self) -> Result<()> {
        self.writer.flush()?;
        Ok(())
    }

    /// Receives the next in-order response. Updates the health view from
    /// the envelope.
    ///
    /// Queued requests are flushed only before `recv` would block: a
    /// response already whole in the read buffer is returned without
    /// touching the socket, so the requests sent while a clump of responses
    /// is consumed leave together and reach the server as one burst.
    ///
    /// # Errors
    ///
    /// Errors on transport failure, envelope corruption, or a response
    /// id that does not match the oldest outstanding request.
    pub fn recv(&mut self) -> Result<(u64, Response)> {
        if !wire::frame_buffered(self.reader.buffer()) {
            self.flush()?;
        }
        let payload = wire::read_frame(&mut self.reader)?;
        let envelope =
            wire::decode_response(&payload).map_err(|e| ClientError::Protocol(e.to_string()))?;
        self.last_health = RemoteHealth {
            state: envelope.health,
            reason: envelope.health_reason,
        };
        match self.pending.pop_front() {
            Some(expected) if expected == envelope.request_id => {}
            Some(expected) => {
                return Err(ClientError::Protocol(format!(
                    "response for request {} while {} was oldest outstanding",
                    envelope.request_id, expected
                )))
            }
            None => {
                return Err(ClientError::Protocol(format!(
                    "unsolicited response for request {}",
                    envelope.request_id
                )))
            }
        }
        Ok((envelope.request_id, envelope.response))
    }

    /// One request, one response. Any remote error comes back as
    /// [`ClientError::Remote`].
    ///
    /// # Errors
    ///
    /// Transport, protocol, or remote failures.
    pub fn call(&mut self, cmd: &Command) -> Result<Response> {
        self.send(cmd)?;
        // Drain earlier pipelined responses so ordering stays intact;
        // their results are discarded (callers that care use recv).
        while self.pending.len() > 1 {
            self.recv()?;
        }
        let (_, response) = self.recv()?;
        match response {
            Response::Error(err) => Err(ClientError::Remote(err)),
            other => Ok(other),
        }
    }

    fn expect_ok(&mut self, cmd: &Command) -> Result<()> {
        match self.call(cmd)? {
            Response::Ok => Ok(()),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn ping(&mut self) -> Result<()> {
        match self.call(&Command::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// The store's health.
    ///
    /// # Errors
    ///
    /// Transport or remote failures.
    pub fn health(&mut self) -> Result<RemoteHealth> {
        match self.call(&Command::Health)? {
            Response::Health { state, reason } => Ok(RemoteHealth { state, reason }),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// The default partition's committed root digest — fetch once,
    /// **pin**, and verify every proof-carrying read against it.
    ///
    /// # Errors
    ///
    /// Transport or remote failures.
    pub fn snapshot_root(&mut self) -> Result<HashValue> {
        match self.call(&Command::SnapshotRoot)? {
            Response::Root(bytes) => Ok(HashValue::new(&bytes)),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Opens a transaction on the server-side session.
    ///
    /// # Errors
    ///
    /// Remote failure when one is already open.
    pub fn begin(&mut self, mode: TxMode) -> Result<()> {
        self.expect_ok(&Command::Begin(mode))
    }

    /// Commits the open transaction. `Ok` means the commit is durable.
    ///
    /// # Errors
    ///
    /// Remote failure (conflict, store fault) — nothing was applied.
    pub fn commit(&mut self) -> Result<()> {
        self.expect_ok(&Command::Commit)
    }

    /// Aborts the open transaction.
    ///
    /// # Errors
    ///
    /// Remote failure when none is open.
    pub fn abort(&mut self) -> Result<()> {
        self.expect_ok(&Command::Abort)
    }

    /// Creates an object from a raw record, returning its id.
    ///
    /// # Errors
    ///
    /// Remote failures (unknown type tag, bad pickle, store faults).
    pub fn create(&mut self, partition: PartitionId, record: Vec<u8>) -> Result<tdb::ObjectId> {
        match self.call(&Command::Create { partition, record })? {
            Response::Id(id) => Ok(id),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Reads an object as a raw record.
    ///
    /// # Errors
    ///
    /// Remote failures (not found, store faults).
    pub fn get(&mut self, id: tdb::ObjectId) -> Result<Vec<u8>> {
        match self.call(&Command::Get(id))? {
            Response::Record(record) => Ok(record),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Replaces an object's state from a raw record.
    ///
    /// # Errors
    ///
    /// Remote failures.
    pub fn put(&mut self, id: tdb::ObjectId, record: Vec<u8>) -> Result<()> {
        self.expect_ok(&Command::Put { id, record })
    }

    /// Deletes an object.
    ///
    /// # Errors
    ///
    /// Remote failures.
    pub fn delete(&mut self, id: tdb::ObjectId) -> Result<()> {
        self.expect_ok(&Command::Delete(id))
    }

    /// A **verified read**: fetches the record plus its Merkle proof and
    /// checks membership locally against `pinned_root` — the root this
    /// client fetched and pinned earlier. The server, the network, and
    /// the untrusted disk all drop out of the trusted base: if anything
    /// along the way altered the record (or the proof), verification
    /// fails.
    ///
    /// # Errors
    ///
    /// [`ClientError::ProofUnavailable`] when the server could not prove
    /// this version (superseded by a newer commit — refetch the root);
    /// [`ClientError::ProofInvalid`] when verification fails (tamper).
    pub fn get_verified(&mut self, id: tdb::ObjectId, pinned_root: &HashValue) -> Result<Vec<u8>> {
        match self.call(&Command::GetWithProof(id))? {
            Response::VerifiedRecord { record, proof, .. } => {
                let Some(proof_bytes) = proof else {
                    return Err(ClientError::ProofUnavailable);
                };
                let proof =
                    ReadProof::decode(&proof_bytes).map_err(|_| ClientError::ProofInvalid)?;
                if !tdb::verify_read_proof(&proof, &record, pinned_root) {
                    return Err(ClientError::ProofInvalid);
                }
                Ok(record)
            }
            other => Err(ClientError::Unexpected(other)),
        }
    }
}

impl fmt::Debug for TdbClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TdbClient")
            .field("session_id", &self.session_id)
            .field("outstanding", &self.pending.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::io::{ErrorKind, Read};
    use std::net::TcpListener;
    use std::sync::mpsc;

    use super::*;

    const KEY: &[u8] = b"coalescing test key";

    /// Accepts one connection and answers its handshake as a server would.
    fn accept_and_welcome(listener: &TcpListener) -> (TcpStream, BufReader<TcpStream>) {
        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let nonce = [7u8; NONCE_LEN];
        wire::write_frame(&mut stream, &Hello { nonce }.encode()).unwrap();
        let auth = ClientAuth::decode(&wire::read_frame(&mut reader).unwrap()).unwrap();
        let welcome = AuthResult::Welcome {
            mac: server_welcome_mac(KEY, &auth.nonce, &nonce),
            session_id: 1,
        };
        wire::write_frame(&mut stream, &welcome.encode()).unwrap();
        (stream, reader)
    }

    /// Reads `n` request frames, returning their ids.
    fn read_requests(reader: &mut BufReader<TcpStream>, n: usize) -> Vec<u64> {
        (0..n)
            .map(|_| {
                let frame = wire::read_frame(reader).unwrap();
                wire::decode_request(&frame).unwrap().0
            })
            .collect()
    }

    /// Answers every id with `Pong`, in one write: the replies arrive as
    /// one clump.
    fn answer(stream: &mut TcpStream, ids: &[u64]) {
        let mut clump = Vec::new();
        for id in ids {
            let envelope = wire::encode_response(*id, wire::health::LIVE, "", &Response::Pong);
            wire::write_frame(&mut clump, &envelope).unwrap();
        }
        stream.write_all(&clump).unwrap();
    }

    /// A `recv` answered from the read buffer writes nothing; the next
    /// `recv`, which would block, delivers every request queued meanwhile
    /// in one write.
    #[test]
    fn recv_flushes_only_before_it_would_block() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (probe_now, probe_rx) = mpsc::channel::<()>();
        let (probed, probed_rx) = mpsc::channel::<bool>();
        let peer = std::thread::spawn(move || {
            let (mut stream, mut reader) = accept_and_welcome(&listener);
            let first = read_requests(&mut reader, 2);
            answer(&mut stream, &first);
            probe_rx.recv().unwrap();
            assert!(reader.buffer().is_empty());
            stream.set_nonblocking(true).unwrap();
            let silent = matches!(
                reader.get_mut().read(&mut [0u8; 1]),
                Err(e) if e.kind() == ErrorKind::WouldBlock
            );
            stream.set_nonblocking(false).unwrap();
            probed.send(silent).unwrap();
            let second = read_requests(&mut reader, 2);
            answer(&mut stream, &second);
            second
        });

        let mut client = TdbClient::connect(addr, "alice", KEY).unwrap();
        let a = client.send(&Command::Ping).unwrap();
        let b = client.send(&Command::Ping).unwrap();
        assert_eq!(client.recv().unwrap().0, a, "flushes both, then blocks");
        let c = client.send(&Command::Ping).unwrap();
        let d = client.send(&Command::Ping).unwrap();
        assert_eq!(client.recv().unwrap().0, b, "served from the buffer");
        probe_now.send(()).unwrap();
        assert!(
            probed_rx.recv().unwrap(),
            "a recv answered from the buffer wrote to the socket"
        );
        assert_eq!(client.recv().unwrap().0, c);
        assert_eq!(client.recv().unwrap().0, d);
        assert_eq!(peer.join().unwrap(), vec![c, d]);
        assert_eq!(client.outstanding(), 0);
    }
}
