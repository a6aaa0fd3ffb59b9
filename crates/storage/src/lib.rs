#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Platform storage substrates for TDB.
//!
//! The TDB paper (§2.1) assumes a trusted platform offering four kinds of
//! storage, all modeled here as traits with multiple implementations:
//!
//! - [`UntrustedStore`] — bulk, persistent, random-access storage that *any*
//!   program can read and write (a disk, flash, or remote store). TDB's
//!   chunk store keeps its log here. Implementations: [`FileStore`],
//!   [`MemStore`], the test platform [`SimDevice`] (an image and its
//!   register under one seeded [`FaultPlan`]: faults, crashes, snapshots)
//!   and [`simdisk::SimDiskStore`] (a 1999-era disk latency model used to
//!   reproduce the paper's I/O-dominated cost shape).
//! - [`TrustedStore`] — a *small* (e.g. 16-byte) tamper-resistant register
//!   writable only by the trusted program and updated atomically with
//!   respect to crashes. Holds the database hash (direct validation) or the
//!   commit count (counter-based validation).
//! - [`MonotonicCounter`] — the weaker alternative the paper prefers
//!   (§4.8.2.2): a counter that no program can decrement.
//! - [`ArchivalStore`] — stream-oriented, untrusted archival storage (tape,
//!   ftp server) used by the backup store (§6).
//!
//! The *secret store* of the paper (a small read-only key) has no I/O
//! behaviour and is represented by `tdb_crypto::SecretKey` values held in
//! memory by the trusted program.

pub mod archival;
pub mod faulty;
pub mod remote;
pub mod simdisk;
pub mod stats;
pub mod trusted;
pub mod untrusted;

pub use archival::{ArchivalStore, DirArchive, MemArchive};
pub use faulty::{DeviceSnapshot, FaultKind, FaultPlan, SimDevice};
pub use remote::{BatchingStore, RemoteStore};
pub use simdisk::{DiskModel, SimClock, SimDiskStore};
pub use stats::{StatsSnapshot, StoreStats};
pub use trusted::{
    CounterOverTrusted, FileTrustedStore, MemTrustedStore, MonotonicCounter, TrustedStore,
};
pub use untrusted::{FileStore, MemStore, UntrustedStore};

use std::fmt;
use std::sync::Arc;

/// Errors produced by storage substrates.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A read past the end of the store.
    OutOfBounds {
        /// Requested start offset.
        offset: u64,
        /// Requested length.
        len: usize,
        /// Actual store length.
        store_len: u64,
    },
    /// Stored data failed an internal consistency check (e.g. both slots of
    /// a [`FileTrustedStore`] are corrupt).
    Corrupt(String),
    /// A value exceeding the trusted store's capacity was written.
    CapacityExceeded {
        /// Register capacity in bytes.
        capacity: usize,
        /// Attempted record size.
        got: usize,
    },
    /// An attempt to move a monotonic counter backwards.
    NotMonotonic {
        /// Current counter value.
        current: u64,
        /// Rejected smaller value.
        attempted: u64,
    },
    /// A named archival object does not exist.
    NotFound(String),
    /// An injected fault fired (from a [`SimDevice`], or a test's fake
    /// store).
    InjectedFault {
        /// What failed.
        what: &'static str,
        /// True for a passing condition that a retry may outlast, such as
        /// a [`FaultPlan`] transient window or a lost network request.
        transient: bool,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::OutOfBounds {
                offset,
                len,
                store_len,
            } => write!(
                f,
                "out-of-bounds access: offset {offset} + len {len} > store length {store_len}"
            ),
            StoreError::Corrupt(msg) => write!(f, "store corrupt: {msg}"),
            StoreError::CapacityExceeded { capacity, got } => {
                write!(
                    f,
                    "trusted store capacity {capacity} exceeded by {got}-byte write"
                )
            }
            StoreError::NotMonotonic { current, attempted } => write!(
                f,
                "monotonic counter cannot move from {current} back to {attempted}"
            ),
            StoreError::NotFound(name) => write!(f, "archival object not found: {name}"),
            StoreError::InjectedFault { what, .. } => write!(f, "injected fault: {what}"),
        }
    }
}

impl StoreError {
    /// True when the operation may succeed if simply retried.
    ///
    /// Transient by convention: interrupted/timed-out I/O, dropped network
    /// connections (a [`remote::RemoteStore`] transport hiccup: the
    /// connection can be re-established), and injected faults marked
    /// transient. Nothing below the engine retries; the class reaches a
    /// client as the wire's class byte, which tells it that the same
    /// request may succeed later.
    pub fn is_transient(&self) -> bool {
        match self {
            StoreError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::NotConnected
                    | std::io::ErrorKind::BrokenPipe
            ),
            StoreError::InjectedFault { transient, .. } => *transient,
            _ => false,
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Convenience alias used throughout the storage layer.
pub type Result<T> = std::result::Result<T, StoreError>;

/// A shared, dynamically dispatched untrusted store handle.
pub type SharedUntrusted = Arc<dyn UntrustedStore>;

/// A shared, dynamically dispatched trusted store handle.
pub type SharedTrusted = Arc<dyn TrustedStore>;
