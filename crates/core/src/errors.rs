//! Error types for the chunk and backup stores.
//!
//! Every error carries a **stable numeric code** ([`CoreError::code`],
//! [`TamperKind::code`]) and a lossless wire form
//! ([`CoreError::encode_wire`] / [`CoreError::decode_wire`]), so a fault
//! raised inside a TDB server crosses the network as the same typed error —
//! same variant, same `Display` — instead of a stringified debug dump. The
//! codes are part of the wire protocol: never renumber an existing variant.

use std::fmt;

use crate::codec::{Dec, Enc};
use crate::ids::{ChunkId, PartitionId, Position};

/// Why validation of untrusted bytes failed.
///
/// Any of these conditions means the untrusted store does not match the
/// state protected by the hash links rooted in the tamper-resistant store —
/// i.e. tampering, replay, or corruption was *detected* (§4.1: operations
/// "may signal tamper detection if the untrusted store is tampered with").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TamperKind {
    /// A chunk body's hash did not match the descriptor in the chunk map.
    ChunkHashMismatch(ChunkId),
    /// A chunk's ciphertext would not decrypt (corrupt padding/length).
    UndecryptableChunk {
        /// Log offset of the offending version.
        location: u64,
    },
    /// A chunk header names a different chunk than the map said lives there.
    MisdirectedChunk {
        /// The chunk the map pointed at.
        expected: ChunkId,
        /// Log offset read.
        location: u64,
    },
    /// The residual-log chained hash did not match the tamper-resistant
    /// store (direct hash validation, §4.8.2.1).
    LogHashMismatch,
    /// A commit chunk's signature (HMAC) was invalid (§4.8.2.2).
    BadCommitSignature {
        /// Log offset of the commit chunk.
        location: u64,
    },
    /// A commit chunk's hash of its commit set did not match the log.
    CommitSetHashMismatch {
        /// Log offset of the commit chunk.
        location: u64,
    },
    /// Commit counts in the residual log are not sequential (deleted or
    /// replayed commit sets).
    NonSequentialCommitCount {
        /// The count that should have come next.
        expected: u64,
        /// The count found.
        got: u64,
    },
    /// The final commit count in the log is outside the window allowed
    /// around the tamper-resistant counter (replay of an old database image
    /// or deletion of log tail beyond Δut/Δtu).
    CounterWindowViolated {
        /// Counter in the tamper-resistant store.
        trusted: u64,
        /// Last count found in the log.
        log: u64,
    },
    /// The chunk at the recorded leader location is not a leader (§4.9.2:
    /// "the recovery procedure checks that the chunk at the stored location
    /// is the leader").
    NotALeader {
        /// The recorded location.
        location: u64,
    },
    /// No valid leader could be found from the superblock.
    NoValidLeader,
    /// A backup stream failed signature or structure validation (§6.2).
    BadBackup(String),
}

impl fmt::Display for TamperKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TamperKind::ChunkHashMismatch(id) => write!(f, "chunk {id} hash mismatch"),
            TamperKind::UndecryptableChunk { location } => {
                write!(f, "chunk at {location} failed decryption")
            }
            TamperKind::MisdirectedChunk { expected, location } => {
                write!(f, "chunk at {location} does not identify as {expected}")
            }
            TamperKind::LogHashMismatch => write!(f, "residual log hash mismatch"),
            TamperKind::BadCommitSignature { location } => {
                write!(f, "invalid commit-chunk signature at {location}")
            }
            TamperKind::CommitSetHashMismatch { location } => {
                write!(f, "commit-set hash mismatch at commit chunk {location}")
            }
            TamperKind::NonSequentialCommitCount { expected, got } => {
                write!(
                    f,
                    "commit counts not sequential: expected {expected}, got {got}"
                )
            }
            TamperKind::CounterWindowViolated { trusted, log } => write!(
                f,
                "commit count window violated: trusted store {trusted}, log {log}"
            ),
            TamperKind::NotALeader { location } => {
                write!(
                    f,
                    "chunk at recorded leader location {location} is not the leader"
                )
            }
            TamperKind::NoValidLeader => write!(f, "no valid leader found"),
            TamperKind::BadBackup(msg) => write!(f, "backup validation failed: {msg}"),
        }
    }
}

/// Errors produced by the chunk and backup stores.
#[derive(Debug)]
pub enum CoreError {
    /// Tampering with untrusted storage was detected. The caller should
    /// treat the database as hostile (§2.1: "suitable steps are taken when
    /// tampering is detected").
    TamperDetected(TamperKind),
    /// The underlying storage failed.
    Store(tdb_storage::StoreError),
    /// A cryptographic parameter error (bad key length etc.).
    Crypto(tdb_crypto::CryptoError),
    /// Operation on a chunk id that is not allocated (§4.1 signals).
    NotAllocated(ChunkId),
    /// Read of a chunk that was allocated but never written (§4.1 signals).
    NotWritten(ChunkId),
    /// Operation on a partition id that is not written.
    NoSuchPartition(PartitionId),
    /// The partition id is already in use.
    PartitionExists(PartitionId),
    /// A chunk exceeds the maximum size storable in one segment.
    ChunkTooLarge {
        /// Offending chunk size.
        size: usize,
        /// Maximum storable size.
        max: usize,
    },
    /// The store ran out of space and cleaning could not free any.
    OutOfSpace,
    /// Data on disk could not be parsed (corruption that is not provably
    /// tampering, e.g. a torn tail in counter mode is *expected*; this is
    /// for structurally impossible states).
    Corrupt(String),
    /// A backup restore violated chain or set-completeness constraints (§6.3).
    RestoreConstraint(String),
    /// The restore policy (a trusted program) denied the restore (§6.3).
    RestoreDenied(String),
    /// The commit rode in a group-commit batch that was aborted before its
    /// shared durability point: a batch-mate hit a storage or integrity
    /// failure after bytes had reached the device. This commit itself was
    /// rolled back cleanly and was never acknowledged durable.
    BatchAborted(String),
    /// The store is serving validated reads only: a storage failure
    /// interrupted a mutation after bytes had reached the log, so further
    /// mutations are rejected until `ChunkStore::try_heal` or a reopen.
    DegradedMode(String),
    /// The store detected an integrity violation during a mutation and has
    /// failed closed; it must be reopened (revalidating from the trusted
    /// store) before any further use.
    Poisoned(String),
    /// The request conflicts with state the caller itself holds — e.g. a
    /// `Begin` on a session that already has a transaction open. Permanent:
    /// retrying the same request fails the same way until the caller ends
    /// what it holds.
    Busy(String),
}

/// Coarse classification of a failure, used by retry and degradation policy.
///
/// The distinction matters because the three classes demand different
/// responses: transient faults are worth retrying ([`crate::store`] keeps
/// serving), permanent faults end the operation but leave the protected
/// state trustworthy, and integrity faults mean the untrusted store no
/// longer matches the state protected by the tamper-resistant store — the
/// engine must fail closed (§2.1: "suitable steps are taken when tampering
/// is detected").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// The operation may succeed if retried: an I/O hiccup or an injected
    /// transient-window fault. Nothing about the protected state is suspect.
    Transient,
    /// Retrying will not help (bad arguments, out of space, structural
    /// corruption), but validation has not failed: reads remain trustworthy.
    Permanent,
    /// Validation failed: the untrusted store does not match the protected
    /// state. The engine must not serve or accept data on this path.
    Integrity,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::TamperDetected(kind) => write!(f, "TAMPER DETECTED: {kind}"),
            CoreError::Store(e) => write!(f, "storage error: {e}"),
            CoreError::Crypto(e) => write!(f, "crypto error: {e}"),
            CoreError::NotAllocated(id) => write!(f, "chunk {id} is not allocated"),
            CoreError::NotWritten(id) => write!(f, "chunk {id} is not written"),
            CoreError::NoSuchPartition(p) => write!(f, "no such partition: {p}"),
            CoreError::PartitionExists(p) => write!(f, "partition already exists: {p}"),
            CoreError::ChunkTooLarge { size, max } => {
                write!(f, "chunk of {size} bytes exceeds maximum {max}")
            }
            CoreError::OutOfSpace => write!(f, "untrusted store is out of space"),
            CoreError::Corrupt(msg) => write!(f, "store corrupt: {msg}"),
            CoreError::RestoreConstraint(msg) => {
                write!(f, "restore constraint violated: {msg}")
            }
            CoreError::RestoreDenied(msg) => write!(f, "restore denied by policy: {msg}"),
            CoreError::BatchAborted(msg) => {
                write!(f, "group-commit batch aborted: {msg}")
            }
            CoreError::DegradedMode(msg) => {
                write!(f, "store degraded to read-only: {msg}")
            }
            CoreError::Poisoned(msg) => write!(f, "store poisoned: {msg}"),
            CoreError::Busy(msg) => write!(f, "resource busy: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Store(e) => Some(e),
            CoreError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<tdb_storage::StoreError> for CoreError {
    fn from(e: tdb_storage::StoreError) -> Self {
        CoreError::Store(e)
    }
}

impl From<tdb_crypto::CryptoError> for CoreError {
    fn from(e: tdb_crypto::CryptoError) -> Self {
        CoreError::Crypto(e)
    }
}

impl CoreError {
    /// True when this error indicates detected tampering.
    pub fn is_tamper(&self) -> bool {
        matches!(self, CoreError::TamperDetected(_))
    }

    /// Classifies this error for retry and degradation policy.
    pub fn fault_class(&self) -> FaultClass {
        match self {
            CoreError::TamperDetected(_) | CoreError::Poisoned(_) => FaultClass::Integrity,
            CoreError::Store(e) if e.is_transient() => FaultClass::Transient,
            _ => FaultClass::Permanent,
        }
    }

    /// True when the operation may succeed if simply retried.
    pub fn is_transient(&self) -> bool {
        self.fault_class() == FaultClass::Transient
    }
}

/// Convenience alias used throughout the core crate.
pub type Result<T> = std::result::Result<T, CoreError>;

// ---------------------------------------------------------------------------
// Stable numeric codes and the wire form.
// ---------------------------------------------------------------------------

/// Injected-fault labels the `tdb-storage` fault wrappers use. The wire
/// decoder interns against this table so a `StoreError::InjectedFault`
/// survives a round trip with its `&'static str` intact.
const INJECTED_LABELS: [&str; 9] = [
    "store crashed",
    "write failure",
    "read failure",
    "trusted store write failure",
    "transient fault window",
    "planned read error",
    "planned write error",
    "planned torn write",
    "planned dropped flush",
];

fn enc_chunk_id(e: &mut Enc, id: &ChunkId) {
    e.u32(id.partition.0);
    e.u8(id.pos.height);
    e.u64(id.pos.rank);
}

fn dec_chunk_id(d: &mut Dec) -> Result<ChunkId> {
    let partition = PartitionId(d.u32()?);
    let height = d.u8()?;
    let rank = d.u64()?;
    Ok(ChunkId::new(partition, Position { height, rank }))
}

impl TamperKind {
    /// The stable numeric code of this tamper kind (offset into the
    /// `CoreError::TamperDetected` code range, 100–199).
    pub fn code(&self) -> u16 {
        match self {
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
            // 111 is retired: never reassign it.
        }
    }

    fn encode_body(&self, e: &mut Enc) {
        match self {
            TamperKind::ChunkHashMismatch(id) => enc_chunk_id(e, id),
            TamperKind::UndecryptableChunk { location } => {
                e.u64(*location);
            }
            TamperKind::MisdirectedChunk { expected, location } => {
                enc_chunk_id(e, expected);
                e.u64(*location);
            }
            TamperKind::LogHashMismatch | TamperKind::NoValidLeader => {}
            TamperKind::BadCommitSignature { location }
            | TamperKind::CommitSetHashMismatch { location }
            | TamperKind::NotALeader { location } => {
                e.u64(*location);
            }
            TamperKind::NonSequentialCommitCount { expected, got } => {
                e.u64(*expected);
                e.u64(*got);
            }
            TamperKind::CounterWindowViolated { trusted, log } => {
                e.u64(*trusted);
                e.u64(*log);
            }
            TamperKind::BadBackup(msg) => {
                e.str(msg);
            }
        }
    }

    fn decode_body(code: u16, d: &mut Dec) -> Result<TamperKind> {
        Ok(match code {
            100 => TamperKind::ChunkHashMismatch(dec_chunk_id(d)?),
            101 => TamperKind::UndecryptableChunk { location: d.u64()? },
            102 => TamperKind::MisdirectedChunk {
                expected: dec_chunk_id(d)?,
                location: d.u64()?,
            },
            103 => TamperKind::LogHashMismatch,
            104 => TamperKind::BadCommitSignature { location: d.u64()? },
            105 => TamperKind::CommitSetHashMismatch { location: d.u64()? },
            106 => TamperKind::NonSequentialCommitCount {
                expected: d.u64()?,
                got: d.u64()?,
            },
            107 => TamperKind::CounterWindowViolated {
                trusted: d.u64()?,
                log: d.u64()?,
            },
            108 => TamperKind::NotALeader { location: d.u64()? },
            109 => TamperKind::NoValidLeader,
            110 => TamperKind::BadBackup(d.str()?),
            code => {
                return Err(CoreError::Corrupt(format!(
                    "unknown tamper-kind wire code {code}"
                )))
            }
        })
    }
}

/// `std::io::ErrorKind`s that survive the wire (the transient set that
/// [`tdb_storage::StoreError::is_transient`] keys on, plus `Other`).
fn io_kind_tag(kind: std::io::ErrorKind) -> u8 {
    use std::io::ErrorKind as K;
    match kind {
        K::Interrupted => 1,
        K::TimedOut => 2,
        K::WouldBlock => 3,
        K::ConnectionReset => 4,
        K::ConnectionAborted => 5,
        K::NotConnected => 6,
        K::BrokenPipe => 7,
        K::NotFound => 8,
        K::PermissionDenied => 9,
        K::UnexpectedEof => 10,
        _ => 0,
    }
}

fn io_kind_from_tag(tag: u8) -> std::io::ErrorKind {
    use std::io::ErrorKind as K;
    match tag {
        1 => K::Interrupted,
        2 => K::TimedOut,
        3 => K::WouldBlock,
        4 => K::ConnectionReset,
        5 => K::ConnectionAborted,
        6 => K::NotConnected,
        7 => K::BrokenPipe,
        8 => K::NotFound,
        9 => K::PermissionDenied,
        10 => K::UnexpectedEof,
        _ => K::Other,
    }
}

fn encode_store_error(e: &mut Enc, err: &tdb_storage::StoreError) {
    use tdb_storage::StoreError as S;
    match err {
        S::Io(io) => {
            e.u8(0);
            e.u8(io_kind_tag(io.kind()));
            e.str(&io.to_string());
        }
        S::OutOfBounds {
            offset,
            len,
            store_len,
        } => {
            e.u8(1);
            e.u64(*offset);
            e.u64(*len as u64);
            e.u64(*store_len);
        }
        S::Corrupt(msg) => {
            e.u8(2);
            e.str(msg);
        }
        S::CapacityExceeded { capacity, got } => {
            e.u8(3);
            e.u64(*capacity as u64);
            e.u64(*got as u64);
        }
        S::NotMonotonic { current, attempted } => {
            e.u8(4);
            e.u64(*current);
            e.u64(*attempted);
        }
        S::NotFound(name) => {
            e.u8(5);
            e.str(name);
        }
        S::InjectedFault(what) => {
            e.u8(6);
            e.str(what);
        }
    }
}

fn decode_store_error(d: &mut Dec) -> Result<tdb_storage::StoreError> {
    use tdb_storage::StoreError as S;
    Ok(match d.u8()? {
        0 => {
            let kind = io_kind_from_tag(d.u8()?);
            S::Io(std::io::Error::new(kind, d.str()?))
        }
        1 => S::OutOfBounds {
            offset: d.u64()?,
            len: d.u64()? as usize,
            store_len: d.u64()?,
        },
        2 => S::Corrupt(d.str()?),
        3 => S::CapacityExceeded {
            capacity: d.u64()? as usize,
            got: d.u64()? as usize,
        },
        4 => S::NotMonotonic {
            current: d.u64()?,
            attempted: d.u64()?,
        },
        5 => S::NotFound(d.str()?),
        6 => {
            let label = d.str()?;
            match INJECTED_LABELS.iter().find(|l| **l == label) {
                Some(interned) => S::InjectedFault(interned),
                // An unknown label cannot be interned to 'static; surface
                // it as corruption with the label preserved in the message.
                None => S::Corrupt(format!("injected fault: {label}")),
            }
        }
        tag => {
            return Err(CoreError::Corrupt(format!(
                "unknown store-error wire tag {tag}"
            )))
        }
    })
}

fn encode_crypto_error(e: &mut Enc, err: &tdb_crypto::CryptoError) {
    use tdb_crypto::CryptoError as C;
    match err {
        C::BadKeyLength { expected, got } => {
            e.u8(0);
            e.u64(*expected as u64);
            e.u64(*got as u64);
        }
        C::BadCiphertextLength { block, got } => {
            e.u8(1);
            e.u64(*block as u64);
            e.u64(*got as u64);
        }
        C::BadPadding => {
            e.u8(2);
        }
        C::BadIvLength { expected, got } => {
            e.u8(3);
            e.u64(*expected as u64);
            e.u64(*got as u64);
        }
    }
}

fn decode_crypto_error(d: &mut Dec) -> Result<tdb_crypto::CryptoError> {
    use tdb_crypto::CryptoError as C;
    Ok(match d.u8()? {
        0 => C::BadKeyLength {
            expected: d.u64()? as usize,
            got: d.u64()? as usize,
        },
        1 => C::BadCiphertextLength {
            block: d.u64()? as usize,
            got: d.u64()? as usize,
        },
        2 => C::BadPadding,
        3 => C::BadIvLength {
            expected: d.u64()? as usize,
            got: d.u64()? as usize,
        },
        tag => {
            return Err(CoreError::Corrupt(format!(
                "unknown crypto-error wire tag {tag}"
            )))
        }
    })
}

impl CoreError {
    /// The stable numeric code of this error. Tamper variants live in
    /// 100–199 (one code per [`TamperKind`]); everything else below 100.
    pub fn code(&self) -> u16 {
        match self {
            CoreError::TamperDetected(kind) => kind.code(),
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
            CoreError::BatchAborted(_) => 12,
            CoreError::DegradedMode(_) => 13,
            CoreError::Poisoned(_) => 14,
            CoreError::Busy(_) => 15,
        }
    }

    /// Appends the lossless wire form of this error: stable code followed
    /// by the variant's fields. [`CoreError::decode_wire`] inverts it with
    /// the same variant, code, fault class, and `Display` rendering.
    pub fn encode_wire(&self, e: &mut Enc) {
        e.u16(self.code());
        match self {
            CoreError::TamperDetected(kind) => kind.encode_body(e),
            CoreError::Store(err) => encode_store_error(e, err),
            CoreError::Crypto(err) => encode_crypto_error(e, err),
            CoreError::NotAllocated(id) | CoreError::NotWritten(id) => enc_chunk_id(e, id),
            CoreError::NoSuchPartition(p) | CoreError::PartitionExists(p) => {
                e.u32(p.0);
            }
            CoreError::ChunkTooLarge { size, max } => {
                e.u64(*size as u64);
                e.u64(*max as u64);
            }
            CoreError::OutOfSpace => {}
            CoreError::Corrupt(msg)
            | CoreError::RestoreConstraint(msg)
            | CoreError::RestoreDenied(msg)
            | CoreError::BatchAborted(msg)
            | CoreError::DegradedMode(msg)
            | CoreError::Poisoned(msg)
            | CoreError::Busy(msg) => {
                e.str(msg);
            }
        }
    }

    /// Decodes one error from its wire form.
    ///
    /// # Errors
    ///
    /// Fails with [`CoreError::Corrupt`] on truncation or unknown codes.
    pub fn decode_wire(d: &mut Dec) -> Result<CoreError> {
        let code = d.u16()?;
        Ok(match code {
            100..=199 => CoreError::TamperDetected(TamperKind::decode_body(code, d)?),
            1 => CoreError::Store(decode_store_error(d)?),
            2 => CoreError::Crypto(decode_crypto_error(d)?),
            3 => CoreError::NotAllocated(dec_chunk_id(d)?),
            4 => CoreError::NotWritten(dec_chunk_id(d)?),
            5 => CoreError::NoSuchPartition(PartitionId(d.u32()?)),
            6 => CoreError::PartitionExists(PartitionId(d.u32()?)),
            7 => CoreError::ChunkTooLarge {
                size: d.u64()? as usize,
                max: d.u64()? as usize,
            },
            8 => CoreError::OutOfSpace,
            9 => CoreError::Corrupt(d.str()?),
            10 => CoreError::RestoreConstraint(d.str()?),
            11 => CoreError::RestoreDenied(d.str()?),
            12 => CoreError::BatchAborted(d.str()?),
            13 => CoreError::DegradedMode(d.str()?),
            14 => CoreError::Poisoned(d.str()?),
            15 => CoreError::Busy(d.str()?),
            code => {
                return Err(CoreError::Corrupt(format!(
                    "unknown core-error wire code {code}"
                )))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Vec<CoreError> {
        let id = ChunkId::data(PartitionId(3), 42);
        vec![
            CoreError::TamperDetected(TamperKind::ChunkHashMismatch(id)),
            CoreError::TamperDetected(TamperKind::UndecryptableChunk { location: 9000 }),
            CoreError::TamperDetected(TamperKind::MisdirectedChunk {
                expected: id,
                location: 77,
            }),
            CoreError::TamperDetected(TamperKind::LogHashMismatch),
            CoreError::TamperDetected(TamperKind::BadCommitSignature { location: 1 }),
            CoreError::TamperDetected(TamperKind::CommitSetHashMismatch { location: 2 }),
            CoreError::TamperDetected(TamperKind::NonSequentialCommitCount {
                expected: 5,
                got: 9,
            }),
            CoreError::TamperDetected(TamperKind::CounterWindowViolated { trusted: 8, log: 2 }),
            CoreError::TamperDetected(TamperKind::NotALeader { location: 512 }),
            CoreError::TamperDetected(TamperKind::NoValidLeader),
            CoreError::TamperDetected(TamperKind::BadBackup("set incomplete".into())),
            CoreError::Store(tdb_storage::StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "socket timed out",
            ))),
            CoreError::Store(tdb_storage::StoreError::OutOfBounds {
                offset: 10,
                len: 20,
                store_len: 15,
            }),
            CoreError::Store(tdb_storage::StoreError::Corrupt("bad slot".into())),
            CoreError::Store(tdb_storage::StoreError::CapacityExceeded {
                capacity: 64,
                got: 100,
            }),
            CoreError::Store(tdb_storage::StoreError::NotMonotonic {
                current: 7,
                attempted: 3,
            }),
            CoreError::Store(tdb_storage::StoreError::NotFound("backup-7".into())),
            CoreError::Store(tdb_storage::StoreError::InjectedFault(
                "transient fault window",
            )),
            CoreError::Crypto(tdb_crypto::CryptoError::BadKeyLength {
                expected: 24,
                got: 8,
            }),
            CoreError::Crypto(tdb_crypto::CryptoError::BadPadding),
            CoreError::NotAllocated(id),
            CoreError::NotWritten(id),
            CoreError::NoSuchPartition(PartitionId(9)),
            CoreError::PartitionExists(PartitionId(1)),
            CoreError::ChunkTooLarge {
                size: 70000,
                max: 65000,
            },
            CoreError::OutOfSpace,
            CoreError::Corrupt("zero-length record".into()),
            CoreError::RestoreConstraint("chain broken".into()),
            CoreError::RestoreDenied("policy".into()),
            CoreError::BatchAborted("batch-mate failed".into()),
            CoreError::DegradedMode("write interrupted".into()),
            CoreError::Poisoned("hash mismatch during commit".into()),
            CoreError::Busy("a transaction is already open on this session".into()),
        ]
    }

    #[test]
    fn wire_round_trip_preserves_code_display_and_class() {
        for err in catalog() {
            let mut e = Enc::new();
            err.encode_wire(&mut e);
            let buf = e.finish();
            let mut d = Dec::new(&buf);
            let back = CoreError::decode_wire(&mut d).expect("decode");
            d.expect_done("core error").expect("no trailing bytes");
            assert_eq!(back.code(), err.code(), "{err}");
            assert_eq!(back.to_string(), err.to_string());
            assert_eq!(back.fault_class(), err.fault_class(), "{err}");
            assert_eq!(back.is_tamper(), err.is_tamper(), "{err}");
        }
    }

    #[test]
    fn codes_are_unique_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for err in catalog() {
            seen.insert(err.code());
        }
        // One code per distinct variant/kind in the catalog.
        assert_eq!(seen.len(), 26);
        assert_eq!(CoreError::OutOfSpace.code(), 8);
        assert_eq!(
            CoreError::TamperDetected(TamperKind::NoValidLeader).code(),
            109
        );
    }

    #[test]
    fn truncated_and_unknown_codes_rejected() {
        let mut e = Enc::new();
        CoreError::OutOfSpace.encode_wire(&mut e);
        let buf = e.finish();
        let mut d = Dec::new(&buf[..1]);
        assert!(CoreError::decode_wire(&mut d).is_err());
        // 999 was never assigned; 111 is retired and must not decode.
        for code in [999, 111] {
            let mut e = Enc::new();
            e.u16(code);
            e.str("bad mac");
            let buf = e.finish();
            assert!(
                CoreError::decode_wire(&mut Dec::new(&buf)).is_err(),
                "{code}"
            );
        }
    }
}
