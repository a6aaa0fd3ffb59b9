//! The decomposed chunk-store engine.
//!
//! [`crate::store`] keeps the public facade, the health state machine, and
//! the lock/publication protocol; the engine logic behind the mutex lives
//! here, split by responsibility:
//!
//! - [`commit`] — atomic commits: validation, the apply loop (which checks
//!   each committer's early seal and seals what it missed), commit sealing
//!   (commit chunks / direct records), and group-commit batches.
//! - [`map`] — the chunk map: descriptor reads and writes, map-chunk
//!   caching, tree growth, and validated chunk reads (§4.3, §4.5).
//! - [`partitions`] — partition bookkeeping: leader cache, allocation,
//!   create/copy/dealloc, diffs, and written-rank scans (§5), and the
//!   install steps commit and recovery share.
//! - [`ranks`] — the one allocator of chunk and partition ids (§4.4).
//! - [`checkpoint`] — checkpointing (§4.7): consolidating buffered map
//!   updates bottom-up, leader last.
//! - [`maintenance`] — the log cleaner (§4.9.5, §5.5), and how a bounded
//!   log stays writable: the cleaner reserve and inline cleaning slices.
//! - [`rollback`] — savepoints over the undo journals: how a mutation that
//!   fails before its durable point leaves the engine as it found it.
//! - [`proof`] — client-verifiable read proofs: effective (dirty-aware)
//!   map bodies, root digests, and Merkle-path extraction.
//!
//! Every module extends the same `pub(crate) Inner` with `impl` blocks; no
//! on-disk format or locking change is implied by the decomposition.

pub(crate) mod checkpoint;
pub(crate) mod commit;
pub(crate) mod maintenance;
pub(crate) mod map;
pub(crate) mod partitions;
pub(crate) mod proof;
pub(crate) mod ranks;
pub(crate) mod rollback;
