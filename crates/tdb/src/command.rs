//! The transport-agnostic command layer.
//!
//! Every operation a client can ask of the trusted database — object,
//! collection, transaction, proof, and admin surfaces — is one variant of
//! [`Command`]; every reply is one variant of [`Response`]. The embedded
//! API ([`crate::Session::dispatch`]) and the network server both execute
//! commands through this single layer, so the two paths cannot drift: a
//! parity test replays one command stream through both and compares the
//! responses byte for byte.
//!
//! Both enums carry a hand-rolled little-endian wire form (the same
//! [`Enc`]/[`Dec`] codec the chunk store uses on disk). Objects cross the
//! wire as **raw records** — the `type tag + pickle` bytes the object
//! store persists — so the server-side type registry stays the schema
//! authority and the client needs no Rust types to move data. Errors
//! cross as stable numeric codes ([`TdbError::encode_wire`]) and decode
//! back to the same typed error, `Display` and all.

use std::fmt;

use tdb_core::codec::{Dec, Enc};
use tdb_core::{CoreError, PartitionId};
use tdb_object::errors::ObjectError;
use tdb_object::ObjectId;

use crate::{CollectionId, IndexKind, TdbError};

/// Which concurrency-control scheme a `Begin` opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxMode {
    /// Two-phase locking ([`crate::Tx`]).
    Locking,
    /// Snapshot isolation ([`crate::MvccTx`]; needs the `mvcc` knob).
    Mvcc,
}

/// One request against the trusted database.
///
/// Wire form: `u16` opcode, then the variant's fields. Opcodes are part
/// of the protocol — never renumber an existing variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Liveness probe; answered from memory.
    Ping,
    /// The store's health state (live / degraded / poisoned).
    Health,
    /// The default partition's committed root digest — the trust anchor
    /// remote verifiers pin.
    SnapshotRoot,
    /// Force a chunk-store checkpoint.
    Checkpoint,
    /// Run the log cleaner over up to this many segments.
    Clean(u64),
    /// Open a transaction on the session. Fails if one is already open.
    Begin(TxMode),
    /// Commit the session's open transaction.
    Commit,
    /// Abort the session's open transaction.
    Abort,
    /// Create an object from a raw record in a partition.
    Create {
        /// Target partition.
        partition: PartitionId,
        /// Type tag + pickle, validated against the server registry.
        record: Vec<u8>,
    },
    /// Read an object as a raw record.
    Get(ObjectId),
    /// Read an object plus, when possible, a Merkle proof of membership
    /// in the committed tree (MVCC transactions only).
    GetWithProof(ObjectId),
    /// Replace an object's state from a raw record.
    Put {
        /// Object to overwrite.
        id: ObjectId,
        /// Type tag + pickle, validated against the server registry.
        record: Vec<u8>,
    },
    /// Delete an object.
    Delete(ObjectId),
    /// Create an empty collection.
    CollCreate {
        /// Target partition.
        partition: PartitionId,
        /// Collection name.
        name: String,
    },
    /// Number of members in a collection.
    CollLen(CollectionId),
    /// Create an object from a raw record and add it to a collection.
    CollInsert {
        /// Target collection.
        coll: CollectionId,
        /// Type tag + pickle of the new member.
        record: Vec<u8>,
    },
    /// Add an existing object to a collection.
    CollAdd {
        /// Target collection.
        coll: CollectionId,
        /// The member.
        id: ObjectId,
    },
    /// Remove a member from a collection and delete the object.
    CollRemove {
        /// Target collection.
        coll: CollectionId,
        /// The member.
        id: ObjectId,
    },
    /// Every member object id, in rank order.
    CollScan(CollectionId),
    /// Add an index over a collection (built over existing members).
    CollAddIndex {
        /// Target collection.
        coll: CollectionId,
        /// Index name.
        name: String,
        /// Named key extractor (must be registered server-side).
        extractor: String,
        /// Sorted (B+-tree) or unsorted (hash).
        kind: IndexKind,
    },
    /// Exact-match lookup in an index.
    CollLookup {
        /// Target collection.
        coll: CollectionId,
        /// Index name.
        index: String,
        /// Exact key.
        key: Vec<u8>,
    },
    /// Range scan over a sorted index: `lo ≤ key < hi`.
    CollRange {
        /// Target collection.
        coll: CollectionId,
        /// Index name.
        index: String,
        /// Inclusive lower bound (`None` = open).
        lo: Option<Vec<u8>>,
        /// Exclusive upper bound (`None` = open).
        hi: Option<Vec<u8>>,
    },
}

/// One reply from the trusted database.
///
/// Wire form: `u16` opcode, then the variant's fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The command succeeded with nothing to return.
    Ok,
    /// The command failed with a typed error.
    Error(WireError),
    /// Reply to [`Command::Ping`].
    Pong,
    /// Reply to [`Command::Health`].
    Health {
        /// 0 = live, 1 = degraded, 2 = poisoned.
        state: u8,
        /// Human-readable reason when not live.
        reason: String,
    },
    /// A root digest (raw digest bytes).
    Root(Vec<u8>),
    /// An object id.
    Id(ObjectId),
    /// A raw record (type tag + pickle).
    Record(Vec<u8>),
    /// A record with an optional Merkle proof and the root it was
    /// current against. Clients verify with [`crate::verify_read_proof`]
    /// against their **pinned** root, not the one in the message.
    VerifiedRecord {
        /// The stored record the proof vouches for.
        record: Vec<u8>,
        /// Encoded [`crate::ReadProof`]; `None` when the read fell back
        /// to a superseded version (value still correct, not provable).
        proof: Option<Vec<u8>>,
        /// The root `proof` was extracted against (raw digest bytes),
        /// read under the same lock hold; empty when `proof` is `None`.
        root: Vec<u8>,
    },
    /// A list of object ids.
    Ids(Vec<ObjectId>),
    /// A count.
    Count(u64),
}

/// A [`TdbError`] in decoded wire form.
///
/// Kept as its own type (rather than `TdbError` directly) so responses
/// stay `PartialEq`-comparable in parity tests and so decoding is
/// infallible to construct.
#[derive(Debug)]
pub struct WireError(pub TdbError);

impl Clone for WireError {
    fn clone(&self) -> Self {
        // `TdbError` holds non-`Clone` members (`std::io::Error`); the
        // wire form is lossless, so a round trip is an exact clone.
        let mut e = Enc::new();
        self.0.encode_wire(&mut e);
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        WireError(TdbError::decode_wire(&mut d).expect("encode_wire output always decodes"))
    }
}

impl PartialEq for WireError {
    fn eq(&self, other: &Self) -> bool {
        self.0.code() == other.0.code() && self.0.to_string() == other.0.to_string()
    }
}

impl Eq for WireError {}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl TdbError {
    /// The stable numeric code of this error (the inner layer's code:
    /// 1–199 core, 200–299 object).
    pub fn code(&self) -> u16 {
        match self {
            TdbError::Core(e) => e.code(),
            TdbError::Object(e) => e.code(),
        }
    }

    /// Appends the lossless wire form: a layer tag, then the inner
    /// error's own wire form.
    pub fn encode_wire(&self, e: &mut Enc) {
        match self {
            TdbError::Core(err) => {
                e.u8(0);
                err.encode_wire(e);
            }
            TdbError::Object(err) => {
                e.u8(1);
                err.encode_wire(e);
            }
        }
    }

    /// Decodes one error from its wire form.
    ///
    /// # Errors
    ///
    /// Fails with a decode-layer error on truncation or unknown tags.
    pub fn decode_wire(d: &mut Dec) -> Result<TdbError, TdbError> {
        match d.u8().map_err(TdbError::Core)? {
            0 => Ok(TdbError::Core(
                CoreError::decode_wire(d).map_err(TdbError::Core)?,
            )),
            1 => Ok(TdbError::Object(
                ObjectError::decode_wire(d).map_err(TdbError::Object)?,
            )),
            tag => Err(TdbError::Core(CoreError::Corrupt(format!(
                "unknown error layer tag {tag}"
            )))),
        }
    }
}

/// Decode failures surface as `CoreError::Corrupt`.
fn bad(what: &str) -> CoreError {
    CoreError::Corrupt(format!("command wire form: {what}"))
}

fn enc_object_id(e: &mut Enc, id: ObjectId) {
    e.u32(id.partition().0);
    e.u64(id.rank());
}

fn dec_object_id(d: &mut Dec) -> Result<ObjectId, CoreError> {
    let partition = PartitionId(d.u32()?);
    Ok(ObjectId::from_parts(partition, d.u64()?))
}

fn enc_opt_bytes(e: &mut Enc, v: &Option<Vec<u8>>) {
    match v {
        Some(b) => {
            e.u8(1);
            e.bytes(b);
        }
        None => {
            e.u8(0);
        }
    }
}

fn dec_opt_bytes(d: &mut Dec) -> Result<Option<Vec<u8>>, CoreError> {
    Ok(match d.u8()? {
        0 => None,
        1 => Some(d.bytes()?.to_vec()),
        _ => return Err(bad("option tag")),
    })
}

impl Command {
    /// The wire opcode of this command.
    pub fn opcode(&self) -> u16 {
        match self {
            Command::Ping => 1,
            Command::Health => 2,
            Command::SnapshotRoot => 3,
            Command::Checkpoint => 4,
            Command::Clean(_) => 5,
            Command::Begin(_) => 6,
            Command::Commit => 7,
            Command::Abort => 8,
            Command::Create { .. } => 9,
            Command::Get(_) => 10,
            Command::GetWithProof(_) => 11,
            Command::Put { .. } => 12,
            Command::Delete(_) => 13,
            Command::CollCreate { .. } => 14,
            Command::CollLen(_) => 15,
            Command::CollInsert { .. } => 16,
            Command::CollAdd { .. } => 17,
            Command::CollRemove { .. } => 18,
            Command::CollScan(_) => 19,
            Command::CollAddIndex { .. } => 20,
            Command::CollLookup { .. } => 21,
            Command::CollRange { .. } => 22,
        }
    }

    /// Appends the wire form of this command.
    pub fn encode(&self, e: &mut Enc) {
        e.u16(self.opcode());
        match self {
            Command::Ping
            | Command::Health
            | Command::SnapshotRoot
            | Command::Checkpoint
            | Command::Commit
            | Command::Abort => {}
            Command::Clean(n) => {
                e.u64(*n);
            }
            Command::Begin(mode) => {
                e.u8(match mode {
                    TxMode::Locking => 0,
                    TxMode::Mvcc => 1,
                });
            }
            Command::Create { partition, record } => {
                e.u32(partition.0);
                e.bytes(record);
            }
            Command::Get(id) | Command::GetWithProof(id) | Command::Delete(id) => {
                enc_object_id(e, *id);
            }
            Command::Put { id, record } => {
                enc_object_id(e, *id);
                e.bytes(record);
            }
            Command::CollCreate { partition, name } => {
                e.u32(partition.0);
                e.str(name);
            }
            Command::CollLen(coll) | Command::CollScan(coll) => {
                enc_object_id(e, coll.0);
            }
            Command::CollInsert { coll, record } => {
                enc_object_id(e, coll.0);
                e.bytes(record);
            }
            Command::CollAdd { coll, id } | Command::CollRemove { coll, id } => {
                enc_object_id(e, coll.0);
                enc_object_id(e, *id);
            }
            Command::CollAddIndex {
                coll,
                name,
                extractor,
                kind,
            } => {
                enc_object_id(e, coll.0);
                e.str(name);
                e.str(extractor);
                e.u8(match kind {
                    IndexKind::Sorted => 0,
                    IndexKind::Unsorted => 1,
                });
            }
            Command::CollLookup { coll, index, key } => {
                enc_object_id(e, coll.0);
                e.str(index);
                e.bytes(key);
            }
            Command::CollRange {
                coll,
                index,
                lo,
                hi,
            } => {
                enc_object_id(e, coll.0);
                e.str(index);
                enc_opt_bytes(e, lo);
                enc_opt_bytes(e, hi);
            }
        }
    }

    /// Decodes one command from its wire form.
    ///
    /// # Errors
    ///
    /// Fails with [`CoreError::Corrupt`] on truncation or unknown opcodes.
    pub fn decode(d: &mut Dec) -> Result<Command, CoreError> {
        Ok(match d.u16()? {
            1 => Command::Ping,
            2 => Command::Health,
            3 => Command::SnapshotRoot,
            4 => Command::Checkpoint,
            5 => Command::Clean(d.u64()?),
            6 => Command::Begin(match d.u8()? {
                0 => TxMode::Locking,
                1 => TxMode::Mvcc,
                _ => return Err(bad("tx mode")),
            }),
            7 => Command::Commit,
            8 => Command::Abort,
            9 => Command::Create {
                partition: PartitionId(d.u32()?),
                record: d.bytes()?.to_vec(),
            },
            10 => Command::Get(dec_object_id(d)?),
            11 => Command::GetWithProof(dec_object_id(d)?),
            12 => Command::Put {
                id: dec_object_id(d)?,
                record: d.bytes()?.to_vec(),
            },
            13 => Command::Delete(dec_object_id(d)?),
            14 => Command::CollCreate {
                partition: PartitionId(d.u32()?),
                name: d.str()?,
            },
            15 => Command::CollLen(CollectionId(dec_object_id(d)?)),
            16 => Command::CollInsert {
                coll: CollectionId(dec_object_id(d)?),
                record: d.bytes()?.to_vec(),
            },
            17 => Command::CollAdd {
                coll: CollectionId(dec_object_id(d)?),
                id: dec_object_id(d)?,
            },
            18 => Command::CollRemove {
                coll: CollectionId(dec_object_id(d)?),
                id: dec_object_id(d)?,
            },
            19 => Command::CollScan(CollectionId(dec_object_id(d)?)),
            20 => Command::CollAddIndex {
                coll: CollectionId(dec_object_id(d)?),
                name: d.str()?,
                extractor: d.str()?,
                kind: match d.u8()? {
                    0 => IndexKind::Sorted,
                    1 => IndexKind::Unsorted,
                    _ => return Err(bad("index kind")),
                },
            },
            21 => Command::CollLookup {
                coll: CollectionId(dec_object_id(d)?),
                index: d.str()?,
                key: d.bytes()?.to_vec(),
            },
            22 => Command::CollRange {
                coll: CollectionId(dec_object_id(d)?),
                index: d.str()?,
                lo: dec_opt_bytes(d)?,
                hi: dec_opt_bytes(d)?,
            },
            op => return Err(CoreError::Corrupt(format!("unknown command opcode {op}"))),
        })
    }
}

impl Response {
    /// The wire opcode of this response.
    pub fn opcode(&self) -> u16 {
        match self {
            Response::Ok => 1,
            Response::Error(_) => 2,
            Response::Pong => 3,
            Response::Health { .. } => 4,
            Response::Root(_) => 5,
            Response::Id(_) => 6,
            Response::Record(_) => 7,
            Response::VerifiedRecord { .. } => 8,
            Response::Ids(_) => 9,
            Response::Count(_) => 10,
        }
    }

    /// Appends the wire form of this response.
    pub fn encode(&self, e: &mut Enc) {
        e.u16(self.opcode());
        match self {
            Response::Ok | Response::Pong => {}
            Response::Error(err) => err.0.encode_wire(e),
            Response::Health { state, reason } => {
                e.u8(*state);
                e.str(reason);
            }
            Response::Root(root) => {
                e.bytes(root);
            }
            Response::Id(id) => enc_object_id(e, *id),
            Response::Record(record) => {
                e.bytes(record);
            }
            Response::VerifiedRecord {
                record,
                proof,
                root,
            } => {
                e.bytes(record);
                enc_opt_bytes(e, proof);
                e.bytes(root);
            }
            Response::Ids(ids) => {
                e.u32(ids.len() as u32);
                for id in ids {
                    enc_object_id(e, *id);
                }
            }
            Response::Count(n) => {
                e.u64(*n);
            }
        }
    }

    /// Encodes to a fresh buffer.
    pub fn encode_vec(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.encode(&mut e);
        e.finish()
    }

    /// Decodes one response from its wire form.
    ///
    /// # Errors
    ///
    /// Fails with [`CoreError::Corrupt`] on truncation or unknown opcodes.
    pub fn decode(d: &mut Dec) -> Result<Response, CoreError> {
        Ok(match d.u16()? {
            1 => Response::Ok,
            2 => Response::Error(WireError(
                TdbError::decode_wire(d).map_err(|e| bad(&e.to_string()))?,
            )),
            3 => Response::Pong,
            4 => Response::Health {
                state: d.u8()?,
                reason: d.str()?,
            },
            5 => Response::Root(d.bytes()?.to_vec()),
            6 => Response::Id(dec_object_id(d)?),
            7 => Response::Record(d.bytes()?.to_vec()),
            8 => Response::VerifiedRecord {
                record: d.bytes()?.to_vec(),
                proof: dec_opt_bytes(d)?,
                root: d.bytes()?.to_vec(),
            },
            9 => {
                let n = d.u32()? as usize;
                let mut ids = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    ids.push(dec_object_id(d)?);
                }
                Response::Ids(ids)
            }
            10 => Response::Count(d.u64()?),
            op => return Err(CoreError::Corrupt(format!("unknown response opcode {op}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_command(cmd: Command) {
        let mut e = Enc::new();
        cmd.encode(&mut e);
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        let back = Command::decode(&mut d).expect("decode");
        assert_eq!(d.remaining(), 0, "{cmd:?}");
        assert_eq!(back, cmd);
    }

    fn round_trip_response(resp: Response) {
        let buf = resp.encode_vec();
        let mut d = Dec::new(&buf);
        let back = Response::decode(&mut d).expect("decode");
        assert_eq!(d.remaining(), 0, "{resp:?}");
        assert_eq!(back, resp);
    }

    #[test]
    fn command_wire_round_trip() {
        let id = ObjectId::from_parts(PartitionId(1), 42);
        let coll = CollectionId(ObjectId::from_parts(PartitionId(1), 7));
        for cmd in [
            Command::Ping,
            Command::Health,
            Command::SnapshotRoot,
            Command::Checkpoint,
            Command::Clean(4),
            Command::Begin(TxMode::Locking),
            Command::Begin(TxMode::Mvcc),
            Command::Commit,
            Command::Abort,
            Command::Create {
                partition: PartitionId(1),
                record: vec![1, 2, 3],
            },
            Command::Get(id),
            Command::GetWithProof(id),
            Command::Put {
                id,
                record: vec![9; 40],
            },
            Command::Delete(id),
            Command::CollCreate {
                partition: PartitionId(1),
                name: "goods".into(),
            },
            Command::CollLen(coll),
            Command::CollInsert {
                coll,
                record: vec![5, 5],
            },
            Command::CollAdd { coll, id },
            Command::CollRemove { coll, id },
            Command::CollScan(coll),
            Command::CollAddIndex {
                coll,
                name: "by_title".into(),
                extractor: "title".into(),
                kind: IndexKind::Sorted,
            },
            Command::CollLookup {
                coll,
                index: "by_title".into(),
                key: b"k".to_vec(),
            },
            Command::CollRange {
                coll,
                index: "by_title".into(),
                lo: Some(b"a".to_vec()),
                hi: None,
            },
        ] {
            round_trip_command(cmd);
        }
    }

    #[test]
    fn response_wire_round_trip() {
        let id = ObjectId::from_parts(PartitionId(2), 3);
        for resp in [
            Response::Ok,
            Response::Pong,
            Response::Error(WireError(TdbError::Core(CoreError::OutOfSpace))),
            Response::Error(WireError(TdbError::Object(ObjectError::NotFound(id)))),
            Response::Health {
                state: 1,
                reason: "write interrupted".into(),
            },
            Response::Root(vec![0xAB; 32]),
            Response::Id(id),
            Response::Record(vec![1, 2, 3, 4]),
            Response::VerifiedRecord {
                record: vec![7; 12],
                proof: Some(vec![8; 64]),
                root: vec![0xCD; 32],
            },
            Response::VerifiedRecord {
                record: vec![7; 12],
                proof: None,
                root: vec![0xCD; 32],
            },
            Response::Ids(vec![id, ObjectId::from_parts(PartitionId(2), 9)]),
            Response::Count(17),
        ] {
            round_trip_response(resp);
        }
    }

    #[test]
    fn unknown_opcodes_rejected() {
        let mut e = Enc::new();
        e.u16(999);
        let buf = e.finish();
        assert!(Command::decode(&mut Dec::new(&buf)).is_err());
        assert!(Response::decode(&mut Dec::new(&buf)).is_err());
    }
}
