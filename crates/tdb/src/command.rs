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
//! cross as a [`WireError`]: the stable numeric code from the one code
//! table ([`TdbError::code`]), the fault class, and the `Display` text.

use std::fmt;

use tdb_core::codec::{Dec, Enc};
use tdb_core::{CoreError, FaultClass, PartitionId, TamperKind};
use tdb_object::errors::ObjectError;
use tdb_object::ObjectId;

use crate::{CollectionId, IndexKind, TdbError};

/// Which concurrency-control scheme a `Begin` opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxMode {
    /// Two-phase locking ([`crate::Tx`]), the store's one scheme: mode
    /// byte 0. Any other byte is refused as malformed.
    Locking,
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
    /// Read an object plus, outside a transaction, a Merkle proof of
    /// membership in the committed tree. Inside one the Merkle tree cannot
    /// vouch for buffered state, so the record comes without a proof.
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
    /// The command failed: the error's code, class and message.
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

/// A [`TdbError`] as it crosses the wire.
///
/// Wire form: `[u16 code][u8 class: 0 none / 1 transient / 2 permanent /
/// 3 integrity][str message]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The stable numeric code ([`TdbError::code`]).
    pub code: u16,
    /// The core cause's fault class, found directly or through
    /// [`ObjectError::Core`]; `None` for an object-layer error.
    pub class: Option<FaultClass>,
    /// The error's `Display` text.
    pub message: String,
}

impl From<&TdbError> for WireError {
    fn from(e: &TdbError) -> Self {
        let class = match e {
            TdbError::Core(core) | TdbError::Object(ObjectError::Core(core)) => {
                Some(core.fault_class())
            }
            TdbError::Object(_) => None,
        };
        WireError {
            code: e.code(),
            class,
            message: e.to_string(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl WireError {
    fn encode(&self, e: &mut Enc) {
        e.u16(self.code);
        e.u8(match self.class {
            None => 0,
            Some(FaultClass::Transient) => 1,
            Some(FaultClass::Permanent) => 2,
            Some(FaultClass::Integrity) => 3,
        });
        e.str(&self.message);
    }

    fn decode(d: &mut Dec) -> Result<WireError, CoreError> {
        let code = d.u16()?;
        let class = match d.u8()? {
            0 => None,
            1 => Some(FaultClass::Transient),
            2 => Some(FaultClass::Permanent),
            3 => Some(FaultClass::Integrity),
            _ => return Err(bad("fault class")),
        };
        Ok(WireError {
            code,
            class,
            message: d.str()?,
        })
    }
}

impl TdbError {
    /// The stable numeric code of this error: the one table that assigns
    /// error codes. `CoreError` 1–15, `TamperKind` 100–110, `ObjectError`
    /// 201–208 but 206 and 207. An [`ObjectError::Core`] has its cause's code, so a tamper
    /// found by the object layer reads as one. Codes are part of the wire
    /// protocol: never renumber one, and never reassign a retired one.
    pub fn code(&self) -> u16 {
        let core = match self {
            TdbError::Core(e) => e,
            TdbError::Object(e) => match e {
                // No code of its own: 200 is retired.
                ObjectError::Core(e) => e,
                ObjectError::NotFound(_) => return 201,
                ObjectError::UnknownType(_) => return 202,
                ObjectError::BadPickle(_) => return 203,
                ObjectError::TypeMismatch { .. } => return 204,
                ObjectError::LockTimeout(_) => return 205,
                // 206 and 207 are retired (a snapshot-isolation write
                // conflict, and a refused snapshot-isolation `Begin`).
                ObjectError::TxFinished => return 208,
            },
        };
        match core {
            CoreError::TamperDetected(kind) => match kind {
                TamperKind::ChunkHashMismatch(_) => 100,
                TamperKind::UndecryptableChunk { .. } => 101,
                TamperKind::MisdirectedChunk { .. } => 102,
                TamperKind::LogHashMismatch => 103,
                TamperKind::BadCommitSignature { .. } => 104,
                TamperKind::CommitSetHashMismatch { .. } => 105,
                TamperKind::NonSequentialCommitCount { .. } => 106,
                TamperKind::CounterWindowViolated { .. } => 107,
                TamperKind::NotALeader { .. } => 108,
                TamperKind::NoValidLeader => 109,
                TamperKind::BadBackup(_) => 110,
                // 111 is retired.
                TamperKind::BadSuiteRecord => 112,
            },
            CoreError::Store(_) => 1,
            CoreError::Crypto(_) => 2,
            CoreError::NotAllocated(_) => 3,
            CoreError::NotWritten(_) => 4,
            CoreError::NoSuchPartition(_) => 5,
            CoreError::PartitionExists(_) => 6,
            CoreError::ChunkTooLarge { .. } => 7,
            CoreError::OutOfSpace => 8,
            CoreError::Corrupt(_) => 9,
            CoreError::RestoreConstraint(_) => 10,
            CoreError::RestoreDenied(_) => 11,
            CoreError::BatchAborted { .. } => 12,
            CoreError::DegradedMode(_) => 13,
            CoreError::Poisoned(_) => 14,
            CoreError::Busy(_) => 15,
            CoreError::UnsupportedFormat { .. } => 16,
            CoreError::SuiteMismatch { .. } => 17,
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
    /// True for a command that writes nothing and neither begins, commits
    /// nor aborts a transaction: its reply is final as soon as it is
    /// computed, so a server may send it at once.
    pub fn is_read(&self) -> bool {
        matches!(
            self,
            Command::Ping
                | Command::Health
                | Command::SnapshotRoot
                | Command::Get(_)
                | Command::GetWithProof(_)
                | Command::CollLen(_)
                | Command::CollScan(_)
                | Command::CollLookup { .. }
                | Command::CollRange { .. }
        )
    }

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
            Response::Error(err) => err.encode(e),
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
            2 => Response::Error(WireError::decode(d)?),
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
            // An object id is a u32 partition and a u64 rank.
            9 => Response::Ids(d.list(12, dec_object_id)?),
            10 => Response::Count(d.u64()?),
            op => return Err(CoreError::Corrupt(format!("unknown response opcode {op}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::tests::{core_errors, object_errors};

    /// Round-trips `cmd`, and checks every proper prefix of its encoding
    /// decodes to an error rather than a panic.
    fn round_trip_command(cmd: Command) {
        let mut e = Enc::new();
        cmd.encode(&mut e);
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        let back = Command::decode(&mut d).expect("decode");
        assert_eq!(d.remaining(), 0, "{cmd:?}");
        assert_eq!(back, cmd);
        for len in 0..buf.len() {
            let prefix = Command::decode(&mut Dec::new(&buf[..len]));
            assert!(prefix.is_err(), "{cmd:?} decoded from {len} bytes");
        }
    }

    /// As [`round_trip_command`], for a response.
    fn round_trip_response(resp: Response) {
        let buf = resp.encode_vec();
        let mut d = Dec::new(&buf);
        let back = Response::decode(&mut d).expect("decode");
        assert_eq!(d.remaining(), 0, "{resp:?}");
        assert_eq!(back, resp);
        for len in 0..buf.len() {
            let prefix = Response::decode(&mut Dec::new(&buf[..len]));
            assert!(prefix.is_err(), "{resp:?} decoded from {len} bytes");
        }
    }

    fn wire(err: impl Into<TdbError>) -> WireError {
        WireError::from(&err.into())
    }

    /// The one code table: every variant has its own code in its range,
    /// retired codes stay retired, an `ObjectError::Core` reads as its
    /// cause, and the wire form keeps code, class and message.
    #[test]
    fn one_code_table_covers_every_variant() {
        let all: Vec<TdbError> = core_errors()
            .into_iter()
            .map(TdbError::Core)
            .chain(object_errors().into_iter().map(TdbError::Object))
            .collect();
        let codes: std::collections::BTreeSet<u16> = all.iter().map(TdbError::code).collect();
        assert_eq!(codes.len(), all.len(), "codes are not unique");
        let ranges: std::collections::BTreeSet<u16> = (1..=17)
            .chain(100..=110)
            .chain([112])
            .chain((201..=208).filter(|&c| c != 206 && c != 207))
            .collect();
        assert_eq!(codes, ranges);
        assert!([111, 200, 206, 207].iter().all(|c| !codes.contains(c)));

        for err in &all {
            let w = WireError::from(err);
            assert_eq!(w.code, err.code());
            assert_eq!(w.message, err.to_string());
            let integrity = matches!(
                err,
                TdbError::Core(CoreError::TamperDetected(_) | CoreError::Poisoned(_))
            );
            assert_eq!(w.class == Some(FaultClass::Integrity), integrity, "{err}");
            assert_eq!(w.class.is_none(), matches!(err, TdbError::Object(_)));
            let mut e = Enc::new();
            w.encode(&mut e);
            let buf = e.finish();
            let mut d = Dec::new(&buf);
            assert_eq!(WireError::decode(&mut d).expect("decode"), w);
            assert_eq!(d.remaining(), 0, "{err}");
        }

        for (direct, wrapped) in core_errors().into_iter().zip(core_errors()) {
            let (direct, wrapped) = (wire(direct), wire(ObjectError::Core(wrapped)));
            assert_eq!((wrapped.code, wrapped.class), (direct.code, direct.class));
        }
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
            // One error of each class: none, transient, permanent, integrity.
            Response::Error(wire(ObjectError::NotFound(id))),
            Response::Error(wire(CoreError::Store(tdb_storage::StoreError::Io(
                std::io::Error::new(std::io::ErrorKind::Interrupted, "interrupted"),
            )))),
            Response::Error(wire(CoreError::OutOfSpace)),
            Response::Error(wire(CoreError::TamperDetected(TamperKind::LogHashMismatch))),
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

        // Class byte 4 names no fault class.
        let mut e = Enc::new();
        e.u16(2);
        e.u16(15);
        e.u8(4);
        e.str("resource busy");
        assert!(Response::decode(&mut Dec::new(&e.finish())).is_err());
    }

    #[test]
    fn unknown_opcodes_rejected() {
        let mut e = Enc::new();
        e.u16(999);
        let buf = e.finish();
        assert!(Command::decode(&mut Dec::new(&buf)).is_err());
        assert!(Response::decode(&mut Dec::new(&buf)).is_err());
        // `Begin` knows one mode byte, 0; 1 (snapshot isolation, retired)
        // is as unknown as any other.
        for mode in [1, 2, 255] {
            let mut e = Enc::new();
            e.u16(6);
            e.u8(mode);
            assert!(Command::decode(&mut Dec::new(&e.finish())).is_err());
        }
    }
}
