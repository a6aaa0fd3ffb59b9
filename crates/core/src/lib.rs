#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tdb-core — the trusted chunk store and backup store
//!
//! This crate is the heart of the TDB reproduction (Maheshwari, Vingralek,
//! Shapiro: *How to Build a Trusted Database System on Untrusted Storage*,
//! OSDI 2000): a log-structured store of encrypted, hash-validated chunks
//! that extends a few bytes of trusted storage into a scalable trusted
//! database substrate.
//!
//! ## Architecture (paper §3–§6)
//!
//! - [`store::ChunkStore`] manages named chunks grouped into partitions,
//!   each with its own cipher/hash/key ([`params::CryptoParams`]). Chunks
//!   live in a segmented log ([`log`]); their current versions are located
//!   *and validated* through the chunk map — a tree of map chunks whose
//!   descriptors ([`descriptor`]) carry both location and expected hash,
//!   i.e. a Merkle tree embedded in the location map.
//! - Updates buffer in the map cache ([`cache`]) and are consolidated by
//!   checkpoints; crashes roll forward through the residual log, validated
//!   either by a chained hash in the tamper-resistant store or by signed,
//!   counted commit chunks ([`store::ValidationMode`]).
//! - The log cleaner reclaims obsolete versions, respecting partition
//!   copies (snapshots). A bounded log keeps a reserve of segments for it,
//!   and commits clean inline when free segments run low.
//! - The backup store ([`backup::BackupStore`]) streams full and
//!   incremental partition backups to an archival store and restores them
//!   under chain, completeness, and policy constraints.
//! - [`metrics`] reproduces Figure 12's per-module accounting.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use tdb_core::store::{ChunkStore, ChunkStoreConfig, CommitOp, TrustedBackend};
//! use tdb_core::params::CryptoParams;
//! use tdb_crypto::{CipherKind, HashKind, SecretKey};
//! use tdb_storage::{CounterOverTrusted, MemStore, MemTrustedStore};
//!
//! let untrusted = Arc::new(MemStore::new());
//! let counter = Arc::new(CounterOverTrusted::new(Arc::new(MemTrustedStore::new(16))));
//! let store = ChunkStore::create(
//!     untrusted,
//!     TrustedBackend::Counter(counter),
//!     SecretKey::random(24),
//!     ChunkStoreConfig::default(),
//! ).unwrap();
//!
//! // Create a partition and write a chunk atomically.
//! let p = store.allocate_partition().unwrap();
//! store.commit(vec![CommitOp::CreatePartition {
//!     id: p,
//!     params: CryptoParams::generate(CipherKind::Des, HashKind::Sha1),
//! }]).unwrap();
//! let c = store.allocate_chunk(p).unwrap();
//! store.commit(vec![CommitOp::WriteChunk { id: c, bytes: b"pay-per-use state".to_vec() }]).unwrap();
//! assert_eq!(store.read(c).unwrap(), b"pay-per-use state");
//! ```

pub mod backup;
mod batcher;
pub mod cache;
pub mod codec;
pub mod descriptor;
mod engine;
pub mod errors;
pub mod ids;
pub mod leader;
pub mod log;
pub mod metrics;
pub mod params;
mod pipeline;
pub mod proof;
mod recovery;
pub mod slot_tree;
pub mod store;
pub mod undo;
pub mod version;

pub use backup::{ApproveAll, BackupSetInfo, BackupSpec, BackupStore, RestorePolicy};
pub use errors::{CoreError, FaultClass, Result, TamperKind};
pub use ids::{ChunkId, PartitionId, Position};
pub use params::CryptoParams;
pub use proof::{verify_read_proof, ProofLevel, ReadProof};
pub use store::{
    ChunkStore, ChunkStoreConfig, ChunkStoreStats, CommitOp, DiffChange, DiffEntry, StoreHealth,
    TrustedBackend, ValidationMode,
};
