//! A segment the cleaner empties is not reused before the next checkpoint
//! is durable.
//!
//! Recovery starts at the latest checkpoint and reads that checkpoint's
//! map chunks and partition leaders where the checkpoint put them. The
//! cleaner relocates such versions like any other, so the segments it
//! empties may still hold what recovery reads first. Were they recycled
//! at once, the log could overwrite them before a checkpoint recorded
//! where the versions moved, and the reopen below would read freed,
//! reused bytes and report tamper.
//!
//! The sweep: create, write N chunks in pairs, checkpoint; write twice,
//! checkpoint, clean; write once more, crash, reopen, read everything
//! back. Record sizes 100–700 B in steps of 4, N ∈ {8, 12, 16}, both
//! validation modes, fanout 4 and 4 KiB segments, so the versions land
//! across segment boundaries in every alignment.

use std::sync::Arc;

use tdb_core::store::{ChunkStore, ChunkStoreConfig, CommitOp, TrustedBackend, ValidationMode};
use tdb_core::{ChunkId, CryptoParams};
use tdb_crypto::{CipherKind, HashKind, SecretKey};
use tdb_storage::{CounterOverTrusted, MemStore, MemTrustedStore, SharedUntrusted, TrustedStore};

fn config(validation: ValidationMode) -> ChunkStoreConfig {
    ChunkStoreConfig {
        fanout: 4,
        segment_size: 4096,
        checkpoint_threshold: 1000,
        validation,
        ..ChunkStoreConfig::default()
    }
}

/// Runs the script once; `Err` names what the reopen or a read reported.
fn checkpoint_clean_commit_reopen(
    validation: ValidationMode,
    chunks: usize,
    len: usize,
) -> Result<(), String> {
    let secret = SecretKey::new(b"clean-reopen-secret-key!".to_vec());
    let untrusted = Arc::new(MemStore::new());
    let trusted = Arc::new(MemTrustedStore::new(64));
    let backend = || match validation {
        ValidationMode::DirectHash => {
            TrustedBackend::Register(Arc::clone(&trusted) as Arc<dyn TrustedStore>)
        }
        ValidationMode::Counter { .. } => TrustedBackend::Counter(Arc::new(
            CounterOverTrusted::new(Arc::clone(&trusted) as Arc<dyn TrustedStore>),
        )),
    };
    let store = ChunkStore::create(
        Arc::clone(&untrusted) as SharedUntrusted,
        backend(),
        secret.clone(),
        config(validation),
    )
    .map_err(|e| format!("create: {e}"))?;
    let p = store.allocate_partition().map_err(|e| e.to_string())?;
    store
        .commit(vec![CommitOp::CreatePartition {
            id: p,
            params: CryptoParams::generate(CipherKind::Des, HashKind::Sha1),
        }])
        .map_err(|e| e.to_string())?;
    let ids: Vec<ChunkId> = (0..chunks)
        .map(|_| store.allocate_chunk(p).unwrap())
        .collect();
    let write = |store: &ChunkStore, tag: u8| -> Result<(), String> {
        for pair in ids.chunks(2) {
            let ops = pair
                .iter()
                .map(|id| CommitOp::WriteChunk {
                    id: *id,
                    bytes: vec![tag; len],
                })
                .collect();
            store
                .commit(ops)
                .map_err(|e| format!("commit {tag}: {e}"))?;
        }
        Ok(())
    };

    write(&store, 1)?;
    store.checkpoint().map_err(|e| e.to_string())?;
    write(&store, 2)?;
    write(&store, 3)?;
    store.checkpoint().map_err(|e| e.to_string())?;
    store.clean(4).map_err(|e| format!("clean: {e}"))?;
    write(&store, 4)?;
    drop(store);

    let store = ChunkStore::open(
        Arc::clone(&untrusted) as SharedUntrusted,
        backend(),
        secret,
        config(validation),
    )
    .map_err(|e| format!("reopen: {e:?}"))?;
    for id in &ids {
        let body = store.read(*id).map_err(|e| format!("read {id:?}: {e:?}"))?;
        if body != vec![4; len] {
            return Err(format!("read {id:?}: stale body"));
        }
    }
    Ok(())
}

#[test]
fn checkpoint_clean_commit_reopen_never_reads_a_reused_segment() {
    let modes = [
        ValidationMode::Counter {
            delta_ut: 5,
            delta_tu: 0,
        },
        ValidationMode::DirectHash,
    ];
    let mut runs = 0;
    let mut failures = Vec::new();
    for validation in modes {
        for chunks in [8, 12, 16] {
            for len in (100..=700).step_by(4) {
                runs += 1;
                if let Err(e) = checkpoint_clean_commit_reopen(validation, chunks, len) {
                    failures.push(format!("{validation:?}, {chunks} chunks of {len} B: {e}"));
                }
            }
        }
    }
    assert_eq!(runs, 906);
    assert!(
        failures.is_empty(),
        "{} of {runs} reopens failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
