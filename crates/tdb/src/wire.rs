//! The network wire protocol: framing, request/response envelopes, and
//! the challenge-response auth handshake.
//!
//! Lives in the core `tdb` crate (next to [`crate::command`]) so the
//! server and client crates share one definition — the protocol cannot
//! drift between the two ends.
//!
//! # Frame format
//!
//! Every message after TCP connect is one length-prefixed frame:
//!
//! ```text
//! [u32 payload_len (LE)] [payload bytes]
//! ```
//!
//! Payloads are capped at [`MAX_FRAME`] to bound a malicious peer's
//! allocation. Inside a frame, payloads use the same little-endian
//! [`Enc`]/[`Dec`] codec as the on-disk log.
//!
//! # Handshake
//!
//! Mutual challenge-response over a pre-shared HMAC key (the session-key
//! distribution problem is out of scope, as in the paper's trusted-client
//! model):
//!
//! 1. **Server → Hello**: magic `"TDB1"`, protocol version, 32-byte
//!    nonce `Ns`.
//! 2. **Client → Auth**: principal name, 32-byte nonce `Nc`, and
//!    `HMAC(key, "tdb-auth" ‖ Ns ‖ Nc ‖ principal)`. Binding `Ns` proves
//!    freshness (no replay); binding the principal stops splicing.
//! 3. **Server → Welcome** with `HMAC(key, "tdb-serv" ‖ Nc ‖ Ns)` and a
//!    session id — proving the *server* holds the key too — or
//!    **Reject** with a reason.
//!
//! MACs are compared in constant time.
//!
//! # Request / response envelopes
//!
//! Requests: `[u64 request_id] [Command]`. Responses echo the id:
//! `[u64 request_id] [u8 health] [str reason] [Response]`. Clients may
//! pipeline arbitrarily many requests before reading; the server answers
//! strictly in order per connection. It serves a pipeline in bursts —
//! every complete frame already buffered behind the one it blocked on —
//! and a burst's autocommit writes share one group commit, so a reply is
//! sent only once every write at or before it is durable. The health
//! byte (0 live, 1 degraded, 2 poisoned) rides on **every** response,
//! read after the command (or group commit) that produced it, so a store
//! leaving `Live` reaches clients immediately instead of on the next
//! dedicated poll.

use std::io::{self, Read, Write};

use tdb_core::codec::{Dec, Enc};
use tdb_core::store::StoreHealth;
use tdb_core::CoreError;
use tdb_crypto::hmac::HmacKey;
use tdb_crypto::{HashKind, HashValue};

use crate::command::{Command, Response};

/// Protocol magic, first bytes of the server's Hello.
pub const MAGIC: [u8; 4] = *b"TDB1";

/// Protocol version in the Hello. Version 2 dropped the stored-body byte
/// from `ReadProof`'s encoding; version 3 made each proof level a slot-tree
/// leaf and its sibling digests instead of a whole map-chunk body. A peer
/// on an older version is refused here rather than mid-stream at its first
/// proof.
pub const VERSION: u8 = 3;

/// Nonce length for both handshake directions.
pub const NONCE_LEN: usize = 32;

/// Upper bound on a frame payload (16 MiB) — chunks are far smaller.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Bytes [`read_frame`] reserves before a payload arrives. A frame up to
/// this size lands in one exact allocation; a larger one grows with the
/// bytes received, so a length prefix alone never buys an allocation.
pub const FRAME_RESERVE: usize = 16 * 1024;

/// Domain-separation prefix for the client's auth MAC.
pub const CLIENT_MAC_CONTEXT: &[u8] = b"tdb-auth";

/// Domain-separation prefix for the server's welcome MAC.
pub const SERVER_MAC_CONTEXT: &[u8] = b"tdb-serv";

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O failures; callers flush separately (so pipelined
/// responses can share one flush).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame too large",
        ));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one length-prefixed frame.
///
/// # Errors
///
/// `UnexpectedEof` when the peer closed between frames or inside one;
/// `InvalidData` for oversized frames.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME} cap"),
        ));
    }
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(FRAME_RESERVE));
    r.by_ref().take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(payload)
}

/// True when `buf` starts with a whole frame, so [`read_frame`] over the
/// reader it was buffered from returns without touching the socket. A
/// length prefix over [`MAX_FRAME`] is left for that read to report.
pub fn frame_buffered(buf: &[u8]) -> bool {
    match buf {
        [a, b, c, d, payload @ ..] => {
            let len = u32::from_le_bytes([*a, *b, *c, *d]);
            len <= MAX_FRAME && payload.len() >= len as usize
        }
        _ => false,
    }
}

fn corrupt(what: &str) -> CoreError {
    CoreError::Corrupt(format!("wire envelope: {what}"))
}

/// The server's opening handshake message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Server challenge nonce (`Ns`).
    pub nonce: [u8; NONCE_LEN],
}

impl Hello {
    /// Encodes to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.raw(&MAGIC);
        e.u8(VERSION);
        e.raw(&self.nonce);
        e.finish()
    }

    /// Decodes from a frame payload, checking magic and version.
    ///
    /// # Errors
    ///
    /// Fails on wrong magic (not a TDB server) or version skew.
    pub fn decode(payload: &[u8]) -> Result<Hello, CoreError> {
        let mut d = Dec::new(payload);
        let magic = d.raw(4)?;
        if magic != MAGIC {
            return Err(corrupt("bad magic (not a tdb server)"));
        }
        let version = d.u8()?;
        if version != VERSION {
            return Err(corrupt(&format!(
                "protocol version {version}, expected {VERSION}"
            )));
        }
        let mut nonce = [0u8; NONCE_LEN];
        nonce.copy_from_slice(d.raw(NONCE_LEN)?);
        d.expect_done("hello")?;
        Ok(Hello { nonce })
    }
}

/// The client's authentication message.
#[derive(Debug, Clone)]
pub struct ClientAuth {
    /// The principal this session runs as.
    pub principal: String,
    /// Client nonce (`Nc`), bound into the server's welcome MAC.
    pub nonce: [u8; NONCE_LEN],
    /// `HMAC(key, "tdb-auth" ‖ Ns ‖ Nc ‖ principal)`.
    pub mac: HashValue,
}

impl ClientAuth {
    /// Encodes to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.str(&self.principal);
        e.raw(&self.nonce);
        e.bytes(self.mac.as_bytes());
        e.finish()
    }

    /// Decodes from a frame payload.
    ///
    /// # Errors
    ///
    /// Fails on truncated or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<ClientAuth, CoreError> {
        let mut d = Dec::new(payload);
        let principal = d.str()?;
        let mut nonce = [0u8; NONCE_LEN];
        nonce.copy_from_slice(d.raw(NONCE_LEN)?);
        let mac = HashValue::new(d.bytes()?);
        d.expect_done("client auth")?;
        Ok(ClientAuth {
            principal,
            nonce,
            mac,
        })
    }
}

/// The server's handshake verdict.
#[derive(Debug, Clone)]
pub enum AuthResult {
    /// Authenticated: the server's counter-MAC and the session id.
    Welcome {
        /// `HMAC(key, "tdb-serv" ‖ Nc ‖ Ns)` — proves the server holds
        /// the key (mutual authentication).
        mac: HashValue,
        /// Server-assigned session id (for logs and metrics labels).
        session_id: u64,
    },
    /// Refused; the connection closes after this frame.
    Reject {
        /// Human-readable reason (no secrets).
        reason: String,
    },
}

impl AuthResult {
    /// Encodes to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            AuthResult::Welcome { mac, session_id } => {
                e.u8(1);
                e.bytes(mac.as_bytes());
                e.u64(*session_id);
            }
            AuthResult::Reject { reason } => {
                e.u8(0);
                e.str(reason);
            }
        }
        e.finish()
    }

    /// Decodes from a frame payload.
    ///
    /// # Errors
    ///
    /// Fails on unknown tags or truncation.
    pub fn decode(payload: &[u8]) -> Result<AuthResult, CoreError> {
        let mut d = Dec::new(payload);
        let result = match d.u8()? {
            1 => AuthResult::Welcome {
                mac: HashValue::new(d.bytes()?),
                session_id: d.u64()?,
            },
            0 => AuthResult::Reject { reason: d.str()? },
            _ => return Err(corrupt("auth result tag")),
        };
        d.expect_done("auth result")?;
        Ok(result)
    }
}

/// The MAC a client sends to prove key possession, bound to both nonces
/// and the principal.
pub fn client_auth_mac(
    key: &[u8],
    server_nonce: &[u8; NONCE_LEN],
    client_nonce: &[u8; NONCE_LEN],
    principal: &str,
) -> HashValue {
    HmacKey::new(HashKind::Sha256, key).mac_parts(&[
        CLIENT_MAC_CONTEXT,
        server_nonce,
        client_nonce,
        principal.as_bytes(),
    ])
}

/// The MAC a server sends back to prove it also holds the key.
pub fn server_welcome_mac(
    key: &[u8],
    client_nonce: &[u8; NONCE_LEN],
    server_nonce: &[u8; NONCE_LEN],
) -> HashValue {
    HmacKey::new(HashKind::Sha256, key).mac_parts(&[SERVER_MAC_CONTEXT, client_nonce, server_nonce])
}

/// Health states stamped on every response envelope.
pub mod health {
    /// Fully operational.
    pub const LIVE: u8 = 0;
    /// Read-only (a mutation was interrupted); reads still validate.
    pub const DEGRADED: u8 = 1;
    /// Failed closed after an integrity violation.
    pub const POISONED: u8 = 2;
}

/// The stamp for `health`: one of the [`health`] constants and the
/// reason. The one mapping response envelopes and the answer to
/// [`Command::Health`] share.
pub fn health_stamp(h: &StoreHealth) -> (u8, String) {
    match h {
        StoreHealth::Live => (health::LIVE, String::new()),
        StoreHealth::Degraded { reason } => (health::DEGRADED, reason.clone()),
        StoreHealth::Poisoned { reason } => (health::POISONED, reason.clone()),
    }
}

/// Encodes a request envelope: id + command.
pub fn encode_request(request_id: u64, cmd: &Command) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(request_id);
    cmd.encode(&mut e);
    e.finish()
}

/// Decodes a request envelope.
///
/// # Errors
///
/// Fails with [`CoreError::Corrupt`] on malformed payloads.
pub fn decode_request(payload: &[u8]) -> Result<(u64, Command), CoreError> {
    let mut d = Dec::new(payload);
    let id = d.u64()?;
    let cmd = Command::decode(&mut d)?;
    d.expect_done("request")?;
    Ok((id, cmd))
}

/// A decoded response envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseEnvelope {
    /// Echo of the request id this answers.
    pub request_id: u64,
    /// One of the [`health`] constants.
    pub health: u8,
    /// Human-readable health reason (empty when live).
    pub health_reason: String,
    /// The command's result.
    pub response: Response,
}

/// Encodes a response envelope: id + health stamp + response.
pub fn encode_response(
    request_id: u64,
    health: u8,
    health_reason: &str,
    response: &Response,
) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(request_id);
    e.u8(health);
    e.str(health_reason);
    response.encode(&mut e);
    e.finish()
}

/// Decodes a response envelope.
///
/// # Errors
///
/// Fails with [`CoreError::Corrupt`] on malformed payloads.
pub fn decode_response(payload: &[u8]) -> Result<ResponseEnvelope, CoreError> {
    let mut d = Dec::new(payload);
    let request_id = d.u64()?;
    let health = d.u8()?;
    let health_reason = d.str()?;
    let response = Response::decode(&mut d)?;
    d.expect_done("response")?;
    Ok(ResponseEnvelope {
        request_id,
        health,
        health_reason,
        response,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert_eq!(
            read_frame(&mut &buf[..]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn frame_buffered_means_a_whole_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        assert!(frame_buffered(&buf));
        assert!(frame_buffered(&[0, 0, 0, 0]), "an empty frame is whole");
        for cut in 0..buf.len() {
            assert!(!frame_buffered(&buf[..cut]), "cut at {cut}");
        }
        let mut oversized = (MAX_FRAME + 1).to_le_bytes().to_vec();
        oversized.resize(oversized.len() + 16, 0);
        assert!(!frame_buffered(&oversized));
    }

    #[test]
    fn handshake_round_trip() {
        let hello = Hello { nonce: [7; 32] };
        assert_eq!(Hello::decode(&hello.encode()).unwrap(), hello);

        let mac = client_auth_mac(b"key", &[7; 32], &[9; 32], "alice");
        let auth = ClientAuth {
            principal: "alice".into(),
            nonce: [9; 32],
            mac,
        };
        let back = ClientAuth::decode(&auth.encode()).unwrap();
        assert_eq!(back.principal, "alice");
        assert_eq!(back.nonce, [9; 32]);
        assert!(back.mac.ct_eq(&auth.mac));

        let welcome = AuthResult::Welcome {
            mac: server_welcome_mac(b"key", &[9; 32], &[7; 32]),
            session_id: 3,
        };
        match AuthResult::decode(&welcome.encode()).unwrap() {
            AuthResult::Welcome { session_id, .. } => assert_eq!(session_id, 3),
            AuthResult::Reject { .. } => panic!("expected welcome"),
        }
    }

    #[test]
    fn hello_rejects_wrong_magic_and_version() {
        let mut payload = Hello { nonce: [0; 32] }.encode();
        payload[0] ^= 1;
        assert!(Hello::decode(&payload).is_err());
        for version in [VERSION - 1, VERSION + 1] {
            let mut payload = Hello { nonce: [0; 32] }.encode();
            payload[4] = version;
            assert!(Hello::decode(&payload).is_err());
        }
    }

    #[test]
    fn envelope_round_trip() {
        let payload = encode_request(42, &Command::Ping);
        let (id, cmd) = decode_request(&payload).unwrap();
        assert_eq!(id, 42);
        assert_eq!(cmd, Command::Ping);

        let payload = encode_response(42, health::DEGRADED, "write interrupted", &Response::Pong);
        let env = decode_response(&payload).unwrap();
        assert_eq!(env.request_id, 42);
        assert_eq!(env.health, health::DEGRADED);
        assert_eq!(env.health_reason, "write interrupted");
        assert_eq!(env.response, Response::Pong);
    }

    #[test]
    fn macs_are_domain_separated() {
        let a = client_auth_mac(b"key", &[1; 32], &[2; 32], "alice");
        let b = server_welcome_mac(b"key", &[1; 32], &[2; 32]);
        assert!(!a.ct_eq(&b));
        // Different principal, different MAC.
        let c = client_auth_mac(b"key", &[1; 32], &[2; 32], "mallory");
        assert!(!a.ct_eq(&c));
    }
}
