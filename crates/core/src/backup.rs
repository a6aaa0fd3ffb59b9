//! The backup store (§6): full and incremental partition backups.
//!
//! "The backup store creates backup sets by streaming backups of individual
//! partitions to the archival store and restores them by replacing
//! partitions with the backups read from the archival store." Consistency
//! comes from snapshots: "instead of locking each partition for the entire
//! duration of backup creation, the backup store creates a consistent
//! snapshot of the source partitions using a single commit operation"
//! (§6.1) — copy-on-write partition copies make this cheap.
//!
//! A partition backup is (§6.2):
//!
//! ```text
//! PartitionBackup ::= E_s(BackupDescriptor)
//!                     (E_s(ChunkHeader) E_p(ChunkBody))*
//!                     BackupSignature
//!                     Checksum
//! ```
//!
//! The signature binds the descriptor to the chunks; the *unencrypted*
//! CRC-32 trailer lets an untrusted archiver verify the stream completed.

use std::io::Read;
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use rand::RngCore;

use tdb_crypto::crc32::Crc32;
use tdb_crypto::HashValue;
use tdb_storage::ArchivalStore;

use crate::codec::{Dec, Enc};
use crate::errors::{CoreError, Result, TamperKind};
use crate::ids::{ChunkId, PartitionId};
use crate::params::CryptoParams;
use crate::store::{ChunkStore, CommitOp, DiffChange};
use crate::version::{parse_version, seal_version, DeallocRecord, VersionHeader, VersionKind};

/// What to back up for one source partition.
#[derive(Debug, Clone, Copy)]
pub struct BackupSpec {
    /// The live partition being backed up.
    pub source: PartitionId,
    /// For an incremental backup, the snapshot the previous backup of this
    /// source was taken from (§6.2: "an incremental backup of a partition
    /// is created with respect to a previous snapshot, the *base*").
    pub base: Option<PartitionId>,
}

/// The metadata at the head of each partition backup (§6.2).
#[derive(Debug, Clone)]
pub struct BackupDescriptor {
    /// Id of the source partition (*P* in Figure 8).
    pub source: PartitionId,
    /// Id of the snapshot used for this backup (*R*).
    pub snapshot: PartitionId,
    /// Id of the base snapshot (*Q*, if incremental).
    pub base: Option<PartitionId>,
    /// Random number assigned to the backup set.
    pub set_id: u64,
    /// Number of partition backups in the backup set.
    pub set_size: u32,
    /// Partition cipher, hasher, and key (sealed under the system cipher).
    pub params: CryptoParams,
    /// Time of backup creation (seconds since the Unix epoch).
    pub created_unix: u64,
    /// The source's `next_rank` at snapshot time.
    pub next_rank: u64,
}

impl BackupDescriptor {
    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(self.source.0);
        e.u32(self.snapshot.0);
        match self.base {
            Some(b) => {
                e.u8(1);
                e.u32(b.0);
            }
            None => {
                e.u8(0);
            }
        }
        e.u64(self.set_id);
        e.u32(self.set_size);
        self.params.encode(&mut e);
        e.u64(self.created_unix);
        e.u64(self.next_rank);
        e.finish()
    }

    fn decode(body: &[u8]) -> Result<BackupDescriptor> {
        let mut d = Dec::new(body);
        let source = PartitionId(d.u32()?);
        let snapshot = PartitionId(d.u32()?);
        let base = if d.u8()? == 1 {
            Some(PartitionId(d.u32()?))
        } else {
            None
        };
        let set_id = d.u64()?;
        let set_size = d.u32()?;
        let params = CryptoParams::decode(&mut d)?;
        let created_unix = d.u64()?;
        let next_rank = d.u64()?;
        d.expect_done("backup descriptor")?;
        Ok(BackupDescriptor {
            source,
            snapshot,
            base,
            set_id,
            set_size,
            params,
            created_unix,
            next_rank,
        })
    }
}

/// Result of creating a backup set.
#[derive(Debug, Clone)]
pub struct BackupSetInfo {
    /// Random set id recorded in every member's descriptor.
    pub set_id: u64,
    /// Archive object names, in spec order.
    pub names: Vec<String>,
    /// The snapshot created for each source, in spec order. Keep these to
    /// serve as bases for the next incremental backup; deallocate them when
    /// no longer needed.
    pub snapshots: Vec<PartitionId>,
}

/// The trusted program's approval hook for restores (§6.3: "backup restores
/// require approval from a trusted program, which may deny frequent
/// restoring or restoring of old backups").
pub trait RestorePolicy: Send + Sync {
    /// Inspects every validated descriptor about to be restored; returning
    /// an error aborts the restore before any state changes.
    fn approve(&self, descriptors: &[BackupDescriptor]) -> std::result::Result<(), String>;
}

/// A policy that approves everything (for tests and tooling).
pub struct ApproveAll;

impl RestorePolicy for ApproveAll {
    fn approve(&self, _descriptors: &[BackupDescriptor]) -> std::result::Result<(), String> {
        Ok(())
    }
}

/// Summary of a completed restore.
#[derive(Debug, Clone)]
pub struct RestoreReport {
    /// Source partitions replaced.
    pub restored: Vec<PartitionId>,
    /// Chunks written across all partitions.
    pub chunks_written: usize,
}

/// The backup store.
pub struct BackupStore {
    chunks: Arc<ChunkStore>,
    archive: Arc<dyn ArchivalStore>,
}

impl BackupStore {
    /// Couples a chunk store with an archival store.
    pub fn new(chunks: Arc<ChunkStore>, archive: Arc<dyn ArchivalStore>) -> BackupStore {
        BackupStore { chunks, archive }
    }

    /// Creates one backup set covering `specs`, writing archive objects
    /// named `"{set_name}.{i}"`.
    ///
    /// # Errors
    ///
    /// Fails on missing partitions, storage errors, or tampered source
    /// chunks (every chunk is validated as it is read).
    pub fn backup(&self, specs: &[BackupSpec], set_name: &str) -> Result<BackupSetInfo> {
        if specs.is_empty() {
            return Err(CoreError::RestoreConstraint("empty backup set".into()));
        }
        // 1. One commit snapshots every source consistently (§6.1).
        let mut snapshots = Vec::with_capacity(specs.len());
        let mut ops = Vec::with_capacity(specs.len());
        for spec in specs {
            let snap = self.chunks.allocate_partition()?;
            ops.push(CommitOp::CopyPartition {
                dst: snap,
                src: spec.source,
            });
            snapshots.push(snap);
        }
        self.chunks.commit(ops)?;

        // 2. Stream each partition backup (conceptually in the background;
        //    serialized here per the engine's single-lock model).
        let mut set_id_bytes = [0u8; 8];
        rand::thread_rng().fill_bytes(&mut set_id_bytes);
        let set_id = u64::from_le_bytes(set_id_bytes);
        let created_unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut names = Vec::with_capacity(specs.len());
        for (i, (spec, &snap)) in specs.iter().zip(snapshots.iter()).enumerate() {
            let name = format!("{set_name}.{i}");
            self.stream_partition_backup(
                spec,
                snap,
                set_id,
                specs.len() as u32,
                created_unix,
                &name,
            )?;
            names.push(name);
        }
        Ok(BackupSetInfo {
            set_id,
            names,
            snapshots,
        })
    }

    fn stream_partition_backup(
        &self,
        spec: &BackupSpec,
        snapshot: PartitionId,
        set_id: u64,
        set_size: u32,
        created_unix: u64,
        name: &str,
    ) -> Result<()> {
        // Gather what goes into the backup. Full: every written chunk.
        // Incremental: the diff against the base snapshot (§6.2).
        let (writes, deallocs): (Vec<u64>, Vec<u64>) = match spec.base {
            None => (self.chunks.written_ranks(snapshot)?, Vec::new()),
            Some(base) => {
                let mut writes = Vec::new();
                let mut deallocs = Vec::new();
                for entry in self.chunks.diff(base, snapshot)? {
                    match entry.change {
                        DiffChange::Created | DiffChange::Updated => writes.push(entry.pos.rank),
                        DiffChange::Deallocated => deallocs.push(entry.pos.rank),
                    }
                }
                (writes, deallocs)
            }
        };

        let (params, next_rank) = self.chunks.with_inner(|inner| {
            let entry = inner.leader_entry(snapshot)?;
            Ok((entry.leader.params.clone(), entry.leader.next_rank))
        })?;
        let descriptor = BackupDescriptor {
            source: spec.source,
            snapshot,
            base: spec.base,
            set_id,
            set_size,
            params,
            created_unix,
            next_rank,
        };

        let part_crypto = descriptor.params.runtime()?;
        let desc_plain = descriptor.encode();

        let mut out = CrcWriter::new(self.archive.create(name)?);
        // E_s(BackupDescriptor), length-prefixed.
        let (sealed_desc, system_sign): (Vec<u8>, _) = self.chunks.with_inner(|inner| {
            let sealed = inner.system.encrypt(&desc_plain);
            Ok((sealed, Arc::clone(&inner.system)))
        })?;
        out.put_u32(sealed_desc.len() as u32)?;
        out.put(&sealed_desc)?;

        // Chunk versions, hashed into the content hash as (rank ‖ body).
        let mut content = descriptor.params.hash.inline_hasher();
        for rank in writes {
            let body = self.chunks.read(ChunkId::data(snapshot, rank))?;
            content.update(&rank.to_le_bytes());
            content.update(&body);
            let sealed = self.chunks.with_inner(|inner| {
                Ok(seal_version(
                    &inner.system,
                    &part_crypto,
                    VersionKind::Named,
                    ChunkId::data(spec.source, rank),
                    &body,
                ))
            })?;
            out.put(&sealed)?;
        }
        if !deallocs.is_empty() {
            let rec = DeallocRecord {
                ids: deallocs
                    .iter()
                    .map(|&r| ChunkId::data(spec.source, r))
                    .collect(),
            };
            for &rank in &deallocs {
                content.update(b"D");
                content.update(&rank.to_le_bytes());
            }
            let sealed = self.chunks.with_inner(|inner| {
                Ok(seal_version(
                    &inner.system,
                    &inner.system.clone(),
                    VersionKind::Dealloc,
                    VersionHeader::unnamed_id(),
                    &rec.encode(),
                ))
            })?;
            out.put(&sealed)?;
        }
        // End-of-chunks marker.
        out.put(&[0u8, 0u8])?;

        // BackupSignature = E_s(HMAC_s(descriptor ‖ content hash)) (§6.2).
        let content_hash = content.finalize();
        let sig = system_sign.sign(&[&desc_plain, content_hash.as_bytes()]);
        let sealed_sig = system_sign.encrypt(sig.as_bytes());
        out.put_u32(sealed_sig.len() as u32)?;
        out.put(&sealed_sig)?;

        // Unencrypted CRC-32 trailer.
        let crc = out.crc();
        out.put(&crc.to_le_bytes())?;
        out.finish()
    }

    /// Restores the named backup objects, enforcing chain and
    /// set-completeness constraints (§6.3), then atomically replaces the
    /// restored partitions in one commit.
    ///
    /// # Errors
    ///
    /// Fails (without modifying the store) on validation failures,
    /// constraint violations, or policy denial.
    pub fn restore(&self, names: &[&str], policy: &dyn RestorePolicy) -> Result<RestoreReport> {
        // Parse and validate every object first.
        let mut parsed: Vec<ParsedBackup> = Vec::new();
        for name in names {
            parsed.push(self.read_backup(name)?);
        }

        // Set completeness: "if a partition backup is restored, the
        // remaining partition backups in the same backup set must also be
        // restored".
        let mut set_counts: std::collections::HashMap<u64, (u32, u32)> =
            std::collections::HashMap::new();
        for p in &parsed {
            let e = set_counts
                .entry(p.descriptor.set_id)
                .or_insert((0, p.descriptor.set_size));
            e.0 += 1;
            if e.1 != p.descriptor.set_size {
                return Err(CoreError::RestoreConstraint(format!(
                    "backup set {:x} has inconsistent recorded sizes",
                    p.descriptor.set_id
                )));
            }
        }
        for (set_id, (have, want)) in &set_counts {
            if have != want {
                return Err(CoreError::RestoreConstraint(format!(
                    "backup set {set_id:x} incomplete: {have} of {want} partition backups supplied"
                )));
            }
        }

        // Group by source partition and order each group into a full →
        // incremental chain ("incremental backups are restored in the same
        // order as they were created, with no missing links in between").
        let mut by_source: std::collections::BTreeMap<u32, Vec<ParsedBackup>> =
            std::collections::BTreeMap::new();
        for p in parsed {
            by_source.entry(p.descriptor.source.0).or_default().push(p);
        }
        let mut all_descriptors = Vec::new();
        let mut chains: Vec<(PartitionId, Vec<ParsedBackup>)> = Vec::new();
        for (source, group) in by_source {
            let chain = order_chain(PartitionId(source), group)?;
            all_descriptors.extend(chain.iter().map(|p| p.descriptor.clone()));
            chains.push((PartitionId(source), chain));
        }

        // Trusted-program approval gate.
        policy
            .approve(&all_descriptors)
            .map_err(CoreError::RestoreDenied)?;

        // Materialize final state per source and build one atomic commit.
        let mut ops: Vec<CommitOp> = Vec::new();
        let mut restored = Vec::new();
        let mut chunks_written = 0usize;
        for (source, chain) in chains {
            let params = chain
                .last()
                .expect("chain non-empty")
                .descriptor
                .params
                .clone();
            let mut state: std::collections::BTreeMap<u64, Vec<u8>> =
                std::collections::BTreeMap::new();
            for backup in &chain {
                for (rank, body) in &backup.writes {
                    state.insert(*rank, body.clone());
                }
                for rank in &backup.deallocs {
                    state.remove(rank);
                }
            }
            if self.chunks.partition_exists(source)? {
                ops.push(CommitOp::DeallocPartition { id: source });
            }
            ops.push(CommitOp::CreatePartition { id: source, params });
            for (rank, body) in state {
                ops.push(CommitOp::WriteChunk {
                    id: ChunkId::data(source, rank),
                    bytes: body,
                });
                chunks_written += 1;
            }
            restored.push(source);
        }
        // "After reading the entire backup stream, the restored partitions
        // are atomically committed to the chunk store" (§6.3).
        self.chunks.commit(ops)?;
        Ok(RestoreReport {
            restored,
            chunks_written,
        })
    }

    /// Reads, checksums, decrypts, and signature-verifies one backup object.
    fn read_backup(&self, name: &str) -> Result<ParsedBackup> {
        let mut reader = self.archive.open(name)?;
        let mut buf = Vec::new();
        reader
            .read_to_end(&mut buf)
            .map_err(|e| CoreError::Store(tdb_storage::StoreError::Io(e)))?;
        // CRC trailer first: it verifies the stream arrived complete.
        let Some((body, stored_crc)) = buf.split_last_chunk::<4>() else {
            return Err(bad_backup(name, "truncated stream"));
        };
        if Crc32::checksum(body) != u32::from_le_bytes(*stored_crc) {
            return Err(bad_backup(
                name,
                "checksum mismatch (incomplete or corrupt)",
            ));
        }

        self.chunks.with_inner(|inner| {
            let system = Arc::clone(&inner.system);
            let truncated = |_| bad_backup(name, "truncated stream");
            let mut d = Dec::new(body);

            // E_s(BackupDescriptor).
            let desc_ct = d.bytes().map_err(truncated)?;
            let desc_plain = system
                .decrypt(desc_ct, 0)
                .map_err(|_| bad_backup(name, "descriptor does not decrypt"))?;
            // A descriptor that decrypts but does not decode was sealed in
            // another form or altered: a backup this store cannot trust.
            let descriptor = BackupDescriptor::decode(&desc_plain)
                .map_err(|_| bad_backup(name, "descriptor does not decode"))?;
            let part_crypto = descriptor.params.runtime()?;

            // Chunk versions until the zero marker.
            let mut writes = Vec::new();
            let mut deallocs = Vec::new();
            let mut content = descriptor.params.hash.inline_hasher();
            loop {
                let parsed = parse_version(&system, d.rest(), d.position() as u64)
                    .map_err(|_| bad_backup(name, "chunk version does not parse"))?;
                let Some(raw) = parsed else {
                    d.raw(2).map_err(truncated)?; // The zero marker.
                    break;
                };
                match raw.header.kind {
                    VersionKind::Named => {
                        let chunk_body = raw
                            .open_body(&part_crypto, 0)
                            .map_err(|_| bad_backup(name, "chunk body does not decrypt"))?;
                        content.update(&raw.header.id.pos.rank.to_le_bytes());
                        content.update(&chunk_body);
                        writes.push((raw.header.id.pos.rank, chunk_body));
                    }
                    VersionKind::Dealloc => {
                        let rec_body = raw
                            .open_body(&system, 0)
                            .map_err(|_| bad_backup(name, "dealloc record does not decrypt"))?;
                        let rec = DeallocRecord::decode(&rec_body)?;
                        for id in rec.ids {
                            content.update(b"D");
                            content.update(&id.pos.rank.to_le_bytes());
                            deallocs.push(id.pos.rank);
                        }
                    }
                    other => {
                        return Err(bad_backup(
                            name,
                            &format!("unexpected version kind {other:?} in backup"),
                        ))
                    }
                }
                d.raw(raw.total_len)?;
            }

            // BackupSignature.
            let sig_ct = d.bytes().map_err(truncated)?;
            if !d.is_done() {
                return Err(bad_backup(name, "trailing bytes after signature"));
            }
            let sig_plain = system
                .decrypt(sig_ct, 0)
                .map_err(|_| bad_backup(name, "signature does not decrypt"))?;
            let content_hash: HashValue = content.finalize();
            let expected = system.sign(&[&desc_plain, content_hash.as_bytes()]);
            if !tdb_crypto::ct_eq(expected.as_bytes(), &sig_plain) {
                return Err(bad_backup(name, "signature verification failed"));
            }
            Ok(ParsedBackup {
                descriptor,
                writes,
                deallocs,
            })
        })
    }

    /// The archival store in use.
    pub fn archive(&self) -> &Arc<dyn ArchivalStore> {
        &self.archive
    }
}

fn bad_backup(name: &str, why: &str) -> CoreError {
    CoreError::TamperDetected(TamperKind::BadBackup(format!("{name}: {why}")))
}

/// An archive writer that tracks the running CRC-32 of everything written.
struct CrcWriter {
    inner: Box<dyn tdb_storage::archival::ArchiveWriter>,
    crc: Crc32,
}

impl CrcWriter {
    fn new(inner: Box<dyn tdb_storage::archival::ArchiveWriter>) -> CrcWriter {
        CrcWriter {
            inner,
            crc: Crc32::new(),
        }
    }

    fn put(&mut self, bytes: &[u8]) -> Result<()> {
        use std::io::Write;
        self.crc.update(bytes);
        self.inner
            .write_all(bytes)
            .map_err(|e| CoreError::Store(tdb_storage::StoreError::Io(e)))
    }

    fn put_u32(&mut self, v: u32) -> Result<()> {
        self.put(&v.to_le_bytes())
    }

    /// CRC of everything written so far.
    fn crc(&self) -> u32 {
        self.crc.finalize()
    }

    fn finish(self) -> Result<()> {
        self.inner.finish()?;
        Ok(())
    }
}

/// One parsed, validated partition backup.
struct ParsedBackup {
    descriptor: BackupDescriptor,
    writes: Vec<(u64, Vec<u8>)>,
    deallocs: Vec<u64>,
}

/// Orders a source's backups into full → incremental chain, verifying the
/// base links.
fn order_chain(source: PartitionId, group: Vec<ParsedBackup>) -> Result<Vec<ParsedBackup>> {
    let mut full: Vec<ParsedBackup> = Vec::new();
    let mut incrementals: Vec<ParsedBackup> = Vec::new();
    for p in group {
        if p.descriptor.base.is_none() {
            full.push(p);
        } else {
            incrementals.push(p);
        }
    }
    if full.len() != 1 {
        return Err(CoreError::RestoreConstraint(format!(
            "partition {source}: need exactly one full backup, found {}",
            full.len()
        )));
    }
    let mut chain = full;
    while !incrementals.is_empty() {
        let prev_snapshot = chain.last().expect("non-empty").descriptor.snapshot;
        let idx = incrementals
            .iter()
            .position(|p| p.descriptor.base == Some(prev_snapshot))
            .ok_or_else(|| {
                CoreError::RestoreConstraint(format!(
                    "partition {source}: missing link after snapshot {prev_snapshot}"
                ))
            })?;
        chain.push(incrementals.swap_remove(idx));
    }
    Ok(chain)
}

#[cfg(test)]
mod tests {
    use std::io::Write;

    use tdb_crypto::{CipherKind, HashKind, SecretKey};
    use tdb_storage::{CounterOverTrusted, MemArchive, MemStore, MemTrustedStore, SharedUntrusted};

    use super::*;
    use crate::params::PartitionCrypto;
    use crate::store::{ChunkStoreConfig, TrustedBackend, ValidationMode};

    fn new_store() -> Arc<ChunkStore> {
        let config = ChunkStoreConfig {
            segment_size: 8192,
            validation: ValidationMode::Counter {
                delta_ut: 5,
                delta_tu: 0,
            },
            ..ChunkStoreConfig::default()
        };
        let trusted = CounterOverTrusted::new(Arc::new(MemTrustedStore::new(64)));
        Arc::new(
            ChunkStore::create(
                Arc::new(MemStore::new()) as SharedUntrusted,
                TrustedBackend::Counter(Arc::new(trusted)),
                SecretKey::random(24),
                config,
            )
            .unwrap(),
        )
    }

    /// Re-seals `IV ‖ ciphertext`, a body-form piece, as one CBC chain
    /// under the same stored IV: the form every body had before format 4.
    /// Its length does not change.
    fn reseal_as_one_chain(crypto: &PartitionCrypto, sealed: &mut [u8]) {
        let plain = crypto.decrypt(sealed, 0).unwrap();
        let (iv, ct) = sealed.split_at_mut(crypto.block_size());
        ct[..plain.len()].copy_from_slice(&plain);
        crypto.encrypt_in_place(iv, ct, plain.len());
    }

    /// `stream` as a format-3 build wrote it: the descriptor, every version
    /// body and the signature one CBC chain each, under the IVs they are
    /// stored with, and the CRC trailer recomputed. Headers, one chain in
    /// both formats, and every length stay as they are.
    fn as_format_3(stream: &[u8], system: &PartitionCrypto) -> Vec<u8> {
        let mut out = stream[..stream.len() - 4].to_vec();
        let piece = |out: &[u8], at: usize| {
            let len = u32::from_le_bytes(out[at..at + 4].try_into().unwrap()) as usize;
            at + 4..at + 4 + len
        };
        let desc = piece(&out, 0);
        let plain = system.decrypt(&out[desc.clone()], 0).unwrap();
        let part = BackupDescriptor::decode(&plain)
            .unwrap()
            .params
            .runtime()
            .unwrap();
        reseal_as_one_chain(system, &mut out[desc.clone()]);
        let mut at = desc.end;
        while let Some(raw) = parse_version(system, &out[at..], at as u64).unwrap() {
            let body = at + raw.total_len - raw.sealed_body.len()..at + raw.total_len;
            let crypto = match raw.header.kind {
                VersionKind::Named => &part,
                _ => system,
            };
            reseal_as_one_chain(crypto, &mut out[body]);
            at += raw.total_len;
        }
        let sig = piece(&out, at + 2);
        reseal_as_one_chain(system, &mut out[sig.clone()]);
        assert_eq!(sig.end, out.len(), "the signature ends the stream");
        let crc = Crc32::checksum(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn a_format_3_backup_stream_is_refused_as_a_bad_backup() {
        // A backup carries no format number: a stream written before
        // format 4 sealed its bodies as one chain, and here its descriptor
        // no longer decrypts or decodes. It is refused as tampering, and
        // the store is left as it was.
        let store = new_store();
        let archive = Arc::new(MemArchive::new());
        let backups = BackupStore::new(Arc::clone(&store), archive.clone());
        let p = store.allocate_partition().unwrap();
        let params = CryptoParams::generate(CipherKind::Des, HashKind::Sha1);
        store
            .commit(vec![CommitOp::CreatePartition { id: p, params }])
            .unwrap();
        let mut ids = Vec::new();
        for i in 0..6u8 {
            let c = store.allocate_chunk(p).unwrap();
            let bytes = vec![i; 100 * usize::from(i)];
            store
                .commit(vec![CommitOp::WriteChunk { id: c, bytes }])
                .unwrap();
            ids.push(c);
        }
        store
            .commit(vec![CommitOp::DeallocChunk { id: ids[0] }])
            .unwrap();
        let base = backups
            .backup(
                &[BackupSpec {
                    source: p,
                    base: None,
                }],
                "full",
            )
            .unwrap();
        let c = store.allocate_chunk(p).unwrap();
        store
            .commit(vec![
                CommitOp::WriteChunk {
                    id: c,
                    bytes: b"after".to_vec(),
                },
                CommitOp::DeallocChunk { id: ids[1] },
            ])
            .unwrap();
        let spec = BackupSpec {
            source: p,
            base: Some(base.snapshots[0]),
        };
        backups.backup(&[spec], "incr").unwrap();

        let system = store
            .with_inner(|inner| Ok(Arc::clone(&inner.system)))
            .unwrap();
        for name in ["full.0", "incr.0"] {
            let mut stream = Vec::new();
            archive
                .open(name)
                .unwrap()
                .read_to_end(&mut stream)
                .unwrap();
            let old = as_format_3(&stream, &system);
            assert_eq!(old.len(), stream.len());
            let mut writer = archive.create(&format!("v3-{name}")).unwrap();
            writer.write_all(&old).unwrap();
            writer.finish().unwrap();
        }
        let before: Vec<_> = ids[1..].iter().map(|&id| store.read(id).ok()).collect();
        for names in [&["v3-full.0"][..], &["v3-full.0", "v3-incr.0"]] {
            match backups.restore(names, &ApproveAll) {
                Err(CoreError::TamperDetected(TamperKind::BadBackup(why))) => {
                    assert!(why.starts_with("v3-full.0: descriptor does not"), "{why}");
                }
                other => panic!("{names:?}: a format-3 stream restored as {other:?}"),
            }
        }
        let after: Vec<_> = ids[1..].iter().map(|&id| store.read(id).ok()).collect();
        assert_eq!(before, after);
        // The streams it came from restore.
        backups.restore(&["full.0", "incr.0"], &ApproveAll).unwrap();
    }
}
