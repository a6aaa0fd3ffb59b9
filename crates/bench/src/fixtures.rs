//! Shared constructors for benchmark stores and databases.

use std::sync::Arc;

use tdb::{
    ChunkStore, ChunkStoreConfig, CommitOp, CryptoParams, PartitionId, TrustedBackend,
    ValidationMode,
};
use tdb_crypto::{CipherKind, HashKind, SecretKey};
use tdb_storage::{
    CounterOverTrusted, DiskModel, MemStore, MemTrustedStore, SharedTrusted, SharedUntrusted,
    SimClock, SimDiskStore,
};

/// Whether stores run raw (in-memory speed) or behind the 1999-disk
/// latency model of §9.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoMode {
    /// No latency model: measures computational overhead (as §9.2's
    /// micro-benchmarks do).
    Raw,
    /// The paper's disks, with real sleeping: wall-clock reproduces the
    /// I/O-dominated shape of Figures 11–12.
    SimulatedDisk,
}

/// A benchmark platform: untrusted + trusted stores and their clocks.
pub struct Platform {
    pub untrusted: SharedUntrusted,
    pub trusted: SharedTrusted,
    pub clock: Arc<SimClock>,
    pub secret: SecretKey,
}

impl Platform {
    /// Builds platform stores for the given I/O mode.
    pub fn new(mode: IoMode) -> Platform {
        let untrusted: SharedUntrusted = Arc::new(MemStore::new());
        let trusted: SharedTrusted = Arc::new(MemTrustedStore::new(64));
        let clock = Arc::new(SimClock::new(mode == IoMode::SimulatedDisk));
        let (untrusted, trusted): (SharedUntrusted, SharedTrusted) = match mode {
            IoMode::Raw => (untrusted, trusted),
            IoMode::SimulatedDisk => (
                Arc::new(SimDiskStore::new(
                    untrusted,
                    DiskModel::untrusted_1999(),
                    Arc::clone(&clock),
                )),
                Arc::new(SimDiskStore::new(
                    trusted,
                    DiskModel::trusted_1999(),
                    Arc::clone(&clock),
                )),
            ),
        };
        Platform {
            untrusted,
            trusted,
            clock,
            secret: SecretKey::random(24),
        }
    }

    /// A counter backend over the trusted store (the paper's configuration:
    /// counter-based validation with Δut = 5, §9.1).
    pub fn counter_backend(&self) -> TrustedBackend {
        TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(Arc::clone(&self.trusted))))
    }

    /// A register backend (direct hash validation).
    pub fn register_backend(&self) -> TrustedBackend {
        TrustedBackend::Register(Arc::clone(&self.trusted))
    }
}

/// The paper's chunk store configuration (§9.1): counter validation with
/// Δut = 5, Δtu = 0, fanout 64, and the paper's system suite, 3DES +
/// SHA-1 (§5.2), where the default seals the system partition with AES.
pub fn paper_config() -> ChunkStoreConfig {
    ChunkStoreConfig {
        system_cipher: CipherKind::TripleDes,
        system_hash: HashKind::Sha1,
        ..ChunkStoreConfig::default()
    }
}

/// Creates a chunk store with a ready partition, returning both. The
/// trusted backend is the one `config.validation` needs.
pub fn chunk_store_with_partition(
    platform: &Platform,
    config: ChunkStoreConfig,
) -> (Arc<ChunkStore>, PartitionId) {
    let backend = match config.validation {
        ValidationMode::DirectHash => platform.register_backend(),
        ValidationMode::Counter { .. } => platform.counter_backend(),
    };
    let store = Arc::new(
        ChunkStore::create(
            Arc::clone(&platform.untrusted),
            backend,
            platform.secret.clone(),
            config,
        )
        .expect("create chunk store"),
    );
    let p = store.allocate_partition().expect("allocate partition");
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: CryptoParams::paper_default(),
        }])
        .expect("create partition");
    (store, p)
}

/// Deterministic pseudo-random bytes for workloads.
pub fn bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for _ in 0..len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.push(state as u8);
    }
    out
}
