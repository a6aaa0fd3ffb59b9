//! Error types for the chunk and backup stores.
//!
//! Each variant has a stable numeric code on the wire (1–17, and 100–110
//! and 112 for the [`TamperKind`]s). The codes are assigned in one table,
//! `TdbError::code` in the `tdb` crate's command layer; an error crosses
//! the network as its code, its [`FaultClass`] and its `Display`.

use std::fmt;

use tdb_crypto::{CipherKind, HashKind};

use crate::ids::{ChunkId, PartitionId};

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
    /// The superblock's suite record failed its MAC: it was not written
    /// under this secret, or it was altered.
    BadSuiteRecord,
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
            TamperKind::BadSuiteRecord => write!(f, "superblock suite record failed its MAC"),
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
    BatchAborted {
        /// The batch's failure, as text.
        reason: String,
        /// The failure's class: a transient flush fault stays transient
        /// for every member it aborts.
        class: FaultClass,
    },
    /// The store is serving validated reads only: a storage failure
    /// interrupted a mutation after bytes had reached the log, so further
    /// mutations are rejected until the store is reopened: recovery then
    /// adopts or drops the durable suffix against the trusted store.
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
    /// The store is in an on-disk format this build does not read: a
    /// format-v1 superblock (`version: 1`), a format-v2 suite record
    /// (`version: 2`: its map chunks carry one-pass digests, not slot-tree
    /// roots), or a version whose header carries the kind byte's reserved
    /// bit, which earlier builds set on a body they stored compressed
    /// (`version: 2`, reported at the first read of that version or at
    /// recovery). There is no migration: a store is recreated, or restored
    /// from a backup.
    UnsupportedFormat {
        /// The format version found.
        version: u16,
    },
    /// The store's MAC-verified suite record names another system suite
    /// than the configuration: the store is intact, the caller opened it
    /// with the wrong `system_cipher`/`system_hash`.
    SuiteMismatch {
        /// The system cipher and hash the store was created with.
        stored: (CipherKind, HashKind),
        /// The system cipher and hash it was opened with.
        configured: (CipherKind, HashKind),
    },
}

/// Coarse classification of a failure, carried to clients in the wire's
/// class byte.
///
/// The distinction matters because the three classes demand different
/// responses: transient faults are worth retrying (once a reopen has
/// cleared any degraded state; [`crate::store`] keeps serving reads),
/// permanent faults end the operation but leave the protected
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
            CoreError::BatchAborted { reason, .. } => {
                write!(f, "group-commit batch aborted: {reason}")
            }
            CoreError::DegradedMode(msg) => {
                write!(f, "store degraded to read-only: {msg}")
            }
            CoreError::Poisoned(msg) => write!(f, "store poisoned: {msg}"),
            CoreError::Busy(msg) => write!(f, "resource busy: {msg}"),
            CoreError::UnsupportedFormat { version } => {
                write!(f, "unsupported on-disk format version {version}")
            }
            CoreError::SuiteMismatch { stored, configured } => write!(
                f,
                "store was created with system suite {stored:?}, opened with {configured:?}"
            ),
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

    /// Classifies this error (see [`FaultClass`]).
    pub fn fault_class(&self) -> FaultClass {
        match self {
            CoreError::TamperDetected(_) | CoreError::Poisoned(_) => FaultClass::Integrity,
            CoreError::Store(e) if e.is_transient() => FaultClass::Transient,
            CoreError::BatchAborted { class, .. } => *class,
            _ => FaultClass::Permanent,
        }
    }
}

/// Convenience alias used throughout the core crate.
pub type Result<T> = std::result::Result<T, CoreError>;
