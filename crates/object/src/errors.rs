//! Error types for the object store.
//!
//! Each object-layer variant has a stable numeric code on the wire
//! (201–205, 207, 208), assigned with the core codes in one table, `TdbError::code`
//! in the `tdb` crate's command layer. [`ObjectError::Core`] has no code of
//! its own: it crosses the wire as the wrapped [`tdb_core::CoreError`]'s
//! code and fault class, so a tamper found here reads as one.

use std::fmt;

use crate::ObjectId;

/// Errors produced by the object store.
#[derive(Debug)]
pub enum ObjectError {
    /// The chunk store failed (includes tamper detection).
    Core(tdb_core::CoreError),
    /// The object does not exist.
    NotFound(ObjectId),
    /// An unpickled record carried an unregistered type tag.
    UnknownType(u32),
    /// The record could not be unpickled.
    BadPickle(String),
    /// The stored object has a different type than the caller expected.
    TypeMismatch {
        /// The Rust type the caller asked for.
        expected: String,
        /// The stored type tag.
        found_tag: u32,
    },
    /// A lock was refused: waiting for it would have closed a deadlock
    /// cycle, or it was still held at the timeout, the paper's deadlock
    /// breaker (§7). The transaction should abort and retry.
    LockTimeout(ObjectId),
    /// A snapshot-isolation transaction was requested. The store runs
    /// two-phase locking only.
    MvccDisabled,
    /// The transaction was already finished.
    TxFinished,
}

impl fmt::Display for ObjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectError::Core(e) => write!(f, "chunk store error: {e}"),
            ObjectError::NotFound(id) => write!(f, "object {id} not found"),
            ObjectError::UnknownType(tag) => write!(f, "unknown type tag {tag}"),
            ObjectError::BadPickle(msg) => write!(f, "malformed pickle: {msg}"),
            ObjectError::TypeMismatch {
                expected,
                found_tag,
            } => {
                write!(
                    f,
                    "type mismatch: expected {expected}, stored tag {found_tag}"
                )
            }
            ObjectError::LockTimeout(id) => {
                write!(
                    f,
                    "lock refused on {id} (deadlock or timeout; abort and retry)"
                )
            }
            ObjectError::MvccDisabled => {
                write!(f, "mvcc transactions are disabled for this store")
            }
            ObjectError::TxFinished => write!(f, "transaction already committed or aborted"),
        }
    }
}

impl std::error::Error for ObjectError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ObjectError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<tdb_core::CoreError> for ObjectError {
    fn from(e: tdb_core::CoreError) -> Self {
        ObjectError::Core(e)
    }
}

impl ObjectError {
    /// True when the underlying cause is detected tampering.
    pub fn is_tamper(&self) -> bool {
        matches!(self, ObjectError::Core(e) if e.is_tamper())
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ObjectError>;
