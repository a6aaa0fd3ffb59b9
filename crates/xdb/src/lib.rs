#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tdb-xdb — the XDB baseline (paper §9.5)
//!
//! The paper compares TDB against "an off-the-shelf embedded database
//! system, which we shall call XDB. The XDB-based system layers
//! cryptography on top of XDB." No such system ships with this repository's
//! toolchain, so this crate builds one from scratch with the classic
//! conventional-database architecture:
//!
//! - [`pager`]: fixed-size pages over an untrusted store, with a buffer
//!   cache and a free-page list;
//! - [`wal`]: a physical (full-page-image) redo write-ahead log, flushed at
//!   every commit — the "multiple disk writes at commit" the paper blames
//!   for XDB's slower commits;
//! - [`btree`]: an on-page B+-tree keyed by byte strings;
//! - [`db`]: the embedded key-value API with batch commits, checkpoints,
//!   and crash recovery;
//! - [`secure`]: the strawman of §1.2 — encryption and a Merkle hash tree
//!   layered *on top* of the database as ordinary records. This protects
//!   record contents but, as the paper argues, cannot protect XDB's own
//!   metadata, and pays extra record reads/writes per update to maintain
//!   the hash tree.

pub mod btree;
pub mod db;
pub mod pager;
pub mod secure;
pub mod wal;

use std::fmt;

/// Errors produced by XDB.
#[derive(Debug)]
pub enum XdbError {
    /// Underlying storage failure.
    Store(tdb_storage::StoreError),
    /// Crypto failure in the secure wrapper.
    Crypto(tdb_crypto::CryptoError),
    /// A record failed validation in the secure wrapper (tampering or
    /// corruption detected).
    TamperDetected(String),
    /// Structural corruption of a page or WAL record.
    Corrupt(String),
    /// A key or value exceeds the page-imposed size limits.
    TooLarge {
        /// "key" or "value".
        what: &'static str,
        /// Offending size.
        size: usize,
        /// The limit.
        max: usize,
    },
}

impl fmt::Display for XdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XdbError::Store(e) => write!(f, "storage error: {e}"),
            XdbError::Crypto(e) => write!(f, "crypto error: {e}"),
            XdbError::TamperDetected(msg) => write!(f, "TAMPER DETECTED: {msg}"),
            XdbError::Corrupt(msg) => write!(f, "corrupt database: {msg}"),
            XdbError::TooLarge { what, size, max } => {
                write!(f, "{what} of {size} bytes exceeds maximum {max}")
            }
        }
    }
}

impl std::error::Error for XdbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            XdbError::Store(e) => Some(e),
            XdbError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<tdb_storage::StoreError> for XdbError {
    fn from(e: tdb_storage::StoreError) -> Self {
        XdbError::Store(e)
    }
}

impl From<tdb_crypto::CryptoError> for XdbError {
    fn from(e: tdb_crypto::CryptoError) -> Self {
        XdbError::Crypto(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, XdbError>;

pub use db::{Xdb, XdbConfig, XdbOp};
pub use secure::{SecureXdb, SecureXdbConfig};
