//! Seeded-fault backup/restore roundtrips through the backup store's own
//! API (§6): `BackupStore::backup` and `BackupStore::restore`.
//!
//! Properties:
//!
//! - Restoring a backup into a *fresh* store under a seeded `FaultPlan`
//!   either installs contents that verify exactly, or fails cleanly — and
//!   a retry on a reopen of the working device restores bit-perfect state.
//!   Transient faults never corrupt the archived backup.
//! - A backup taken under seeded faults (its snapshot commit included)
//!   never ships a corrupt-but-installable object: restore of whatever
//!   reached the archive either fails or yields exactly the source
//!   contents.
//! - A full + incremental chain survives the same treatment, including a
//!   delta that writes ranks past the base snapshot's high-water mark.

use std::collections::BTreeMap;
use std::sync::Arc;

use tdb::{
    ChunkStore, ChunkStoreConfig, CommitOp, CryptoParams, PartitionId, TrustedBackend,
    ValidationMode,
};
use tdb_core::backup::{ApproveAll, BackupSpec, BackupStore};
use tdb_core::ChunkId;
use tdb_crypto::SecretKey;
use tdb_storage::{
    ArchivalStore, CounterOverTrusted, FaultPlan, MemArchive, SharedUntrusted, SimDevice,
};

fn config() -> ChunkStoreConfig {
    ChunkStoreConfig {
        fanout: 4,
        segment_size: 4096,
        checkpoint_threshold: 8,
        validation: ValidationMode::Counter {
            delta_ut: 5,
            delta_tu: 0,
        },
        ..ChunkStoreConfig::default()
    }
}

fn backend(dev: &Arc<SimDevice>) -> TrustedBackend {
    TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(dev.register())))
}

fn store_over(dev: &Arc<SimDevice>, secret: &SecretKey) -> Arc<ChunkStore> {
    Arc::new(
        ChunkStore::create(
            Arc::clone(dev) as SharedUntrusted,
            backend(dev),
            secret.clone(),
            config(),
        )
        .unwrap(),
    )
}

/// The store on `dev` after a restart: recovery against its register.
fn reopen(dev: &Arc<SimDevice>, secret: &SecretKey) -> Arc<ChunkStore> {
    Arc::new(
        ChunkStore::open(
            Arc::clone(dev) as SharedUntrusted,
            backend(dev),
            secret.clone(),
            config(),
        )
        .unwrap(),
    )
}

fn backups_of(store: &Arc<ChunkStore>, archive: &Arc<MemArchive>) -> BackupStore {
    BackupStore::new(
        Arc::clone(store),
        Arc::clone(archive) as Arc<dyn ArchivalStore>,
    )
}

/// A fresh store over a fault-plannable device, with no plan yet.
fn planned_store(secret: &SecretKey) -> (Arc<SimDevice>, Arc<ChunkStore>) {
    let planned = SimDevice::new();
    let store = store_over(&planned, secret);
    (planned, store)
}

type Model = BTreeMap<u64, Vec<u8>>;

fn new_partition(store: &ChunkStore) -> PartitionId {
    let p = store.allocate_partition().unwrap();
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: CryptoParams::paper_default(),
        }])
        .unwrap();
    p
}

fn fill_partition(store: &ChunkStore, p: PartitionId, n: u64) -> Model {
    let mut model = Model::new();
    for i in 0..n {
        let c = store.allocate_chunk(p).unwrap();
        let bytes = vec![(i % 240) as u8 + 7; 40 + (i as usize % 90)];
        store
            .commit(vec![CommitOp::WriteChunk {
                id: c,
                bytes: bytes.clone(),
            }])
            .unwrap();
        model.insert(c.pos.rank, bytes);
    }
    model
}

fn assert_partition(store: &ChunkStore, p: PartitionId, model: &Model, ctx: &str) {
    for (rank, bytes) in model {
        assert_eq!(
            &store
                .read(ChunkId::data(p, *rank))
                .unwrap_or_else(|e| panic!("{ctx}: read rank {rank}: {e}")),
            bytes,
            "{ctx}: rank {rank} content"
        );
    }
}

fn full(source: PartitionId) -> BackupSpec {
    BackupSpec { source, base: None }
}

#[test]
fn seeded_faults_on_restore_never_accept_corrupt_state() {
    let secret = SecretKey::random(24);
    let archive = Arc::new(MemArchive::new());

    // A clean source ships one pristine backup.
    let src = store_over(&SimDevice::new(), &secret);
    let p = new_partition(&src);
    let model = fill_partition(&src, p, 10);
    let info = backups_of(&src, &archive)
        .backup(&[full(p)], "snap-full")
        .unwrap();
    let name = info.names[0].as_str();
    let pristine = archive.size_of(name).unwrap();

    let mut injected = 0;
    for seed in 0..24u64 {
        let ctx = format!("restore seed {seed}");
        let (planned, mut dst) = planned_store(&secret);

        // The restore takes about 2 device operations.
        planned.set_plan(planned.ahead(FaultPlan::seeded(seed, 2, 3)));
        let result = backups_of(&dst, &archive).restore(&[name], &ApproveAll);
        planned.set_plan(FaultPlan::new());
        injected += planned.injected_faults();

        if result.is_err() {
            // Transient faults must leave a recoverable store and an
            // intact backup: on a reopen of the working device, the
            // restore is bit-perfect.
            if !dst.health().is_live() {
                dst = reopen(&planned, &secret);
            }
            backups_of(&dst, &archive)
                .restore(&[name], &ApproveAll)
                .unwrap_or_else(|e| panic!("{ctx}: retry after reopen: {e}"));
        }
        assert_partition(&dst, p, &model, &ctx);
        // Destination-side faults can never corrupt the archived backup.
        assert_eq!(archive.size_of(name), Some(pristine), "{ctx}");
    }
    assert!(injected >= 1, "no seed injected a fault");
}

#[test]
fn seeded_faults_on_backup_never_ship_a_corrupt_snapshot() {
    let secret = SecretKey::random(24);
    let mut injected = 0;
    for seed in 0..24u64 {
        let ctx = format!("backup seed {seed}");
        let archive = Arc::new(MemArchive::new());
        let (planned, src) = planned_store(&secret);
        let p = new_partition(&src);
        let model = fill_partition(&src, p, 8);

        // The snapshot commit and the stream both run under the plan, in
        // about 10 device operations.
        planned.set_plan(planned.ahead(FaultPlan::seeded(seed, 10, 3)));
        let shipped = backups_of(&src, &archive).backup(&[full(p)], "s");
        planned.set_plan(FaultPlan::new());
        injected += planned.injected_faults();

        // Whatever the fault did, the source still serves every
        // acknowledged byte, and so does its recovery.
        assert_partition(&src, p, &model, &ctx);
        drop(src);
        assert_partition(&reopen(&planned, &secret), p, &model, &ctx);

        let dst = store_over(&SimDevice::new(), &secret);
        match backups_of(&dst, &archive).restore(&["s.0"], &ApproveAll) {
            Ok(_) => {
                // An accepted stream is a correct stream, shipped under
                // faults or not.
                assert_partition(&dst, p, &model, &ctx);
            }
            Err(_) => {
                // A partial/absent object is rejected, never installed —
                // acceptable only when the backup itself failed.
                assert!(
                    shipped.is_err(),
                    "{ctx}: restore rejected a successfully shipped backup"
                );
            }
        }
    }
    assert!(injected >= 1, "no seed injected a fault");
}

#[test]
fn incremental_chain_survives_seeded_restore_faults() {
    let secret = SecretKey::random(24);
    let archive = Arc::new(MemArchive::new());

    let src = store_over(&SimDevice::new(), &secret);
    let src_backups = backups_of(&src, &archive);
    let p = new_partition(&src);
    let mut model = fill_partition(&src, p, 6);
    let base = src_backups.backup(&[full(p)], "chain-full").unwrap();
    // Mutate past the base, then ship the delta. Its new chunks sit at
    // ranks the base snapshot never allocated, so installing the delta
    // writes past the restored base's high-water mark.
    let base_high = model.keys().max().unwrap() + 1;
    let extra = fill_partition(&src, p, 4);
    assert!(extra.keys().all(|&rank| rank >= base_high), "{extra:?}");
    model.extend(extra);
    let delta = src_backups
        .backup(
            &[BackupSpec {
                source: p,
                base: Some(base.snapshots[0]),
            }],
            "chain-delta",
        )
        .unwrap();
    let (full_name, delta_name) = (base.names[0].as_str(), delta.names[0].as_str());

    let mut injected = 0;
    for seed in 0..12u64 {
        let ctx = format!("chain seed {seed}");
        let (planned, mut dst) = planned_store(&secret);
        let dst_backups = backups_of(&dst, &archive);

        // The full backup alone, then the whole chain over it: the second
        // restore replaces the partition the first one installed. The two
        // take about 4 device operations.
        planned.set_plan(planned.ahead(FaultPlan::seeded(seed, 4, 3)));
        let first = dst_backups.restore(&[full_name], &ApproveAll);
        let chain = match &first {
            Ok(_) => dst_backups.restore(&[full_name, delta_name], &ApproveAll),
            Err(_) => Err(tdb_core::CoreError::Corrupt("full restore failed".into())),
        };
        planned.set_plan(FaultPlan::new());
        injected += planned.injected_faults();

        if first.is_err() || chain.is_err() {
            if !dst.health().is_live() {
                dst = reopen(&planned, &secret);
            }
            backups_of(&dst, &archive)
                .restore(&[full_name, delta_name], &ApproveAll)
                .unwrap_or_else(|e| panic!("{ctx}: chain retry: {e}"));
        }
        assert_partition(&dst, p, &model, &ctx);
    }
    assert!(injected >= 1, "no seed injected a fault");
}
