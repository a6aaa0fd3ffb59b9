//! The bind/release digital-goods benchmark (§9.5).
//!
//! "We measured the performance on a benchmark that models two operations
//! related to vending digital goods: **Bind** (a vendor binds three
//! alternative contracts to a digital good) and **Release** (a consumer
//! releases the digital good selecting one of the three contracts
//! randomly). The benchmark first creates 30 collections for different
//! object types. Each collection has one to four indexes. … The experiment
//! consists of 10 consecutive bind or release operations."
//!
//! Figure 10 gives the database-operation counts per 10-op experiment:
//!
//! | | read | update | delete | add | commit |
//! |--|--|--|--|--|--|
//! | release | 781 | 181 | 10 | 4 | 10 |
//! | bind    | 722 | 733 | 10 | 220 | 20 |
//!
//! This module reproduces those counts exactly, driving either TDB's
//! object/collection stores or the layered-crypto XDB baseline with the
//! same logical operation stream.

use std::any::Any;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdb::{
    register_builtin_types, ChunkStoreConfig, CollectionId, CollectionStore, ExtractorRegistry,
    IndexKey, IndexKind, ObjectId, ObjectStore, ObjectStoreConfig, PartitionId, StoredObject,
    TypeRegistry,
};
use tdb_xdb::{SecureXdb, SecureXdbConfig};

use crate::fixtures::{bytes, chunk_store_with_partition, IoMode, Platform};

/// Which experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The consumer-side release experiment.
    Release,
    /// The vendor-side bind experiment.
    Bind,
}

/// Database-operation counts (the Figure 10 rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    pub reads: u64,
    pub updates: u64,
    pub deletes: u64,
    pub adds: u64,
    pub commits: u64,
}

/// The paper's counts for one experiment of 10 operations.
pub fn paper_counts(kind: Kind) -> OpCounts {
    match kind {
        Kind::Release => OpCounts {
            reads: 781,
            updates: 181,
            deletes: 10,
            adds: 4,
            commits: 10,
        },
        Kind::Bind => OpCounts {
            reads: 722,
            updates: 733,
            deletes: 10,
            adds: 220,
            commits: 20,
        },
    }
}

/// Splits `total` across `parts` as evenly as possible (earlier parts get
/// the remainder), so per-commit op counts sum exactly to Figure 10's.
fn split(total: u64, parts: u64) -> Vec<u64> {
    (0..parts)
        .map(|i| total / parts + u64::from(i < total % parts))
        .collect()
}

/// One commit group of the logical operation stream.
#[derive(Debug, Clone)]
pub struct CommitGroup {
    pub reads: Vec<u64>,
    pub updates: Vec<(u64, usize)>,
    pub deletes: Vec<u64>,
    pub adds: Vec<usize>,
}

/// Deterministically generates the logical operation stream for one
/// experiment over a preloaded population of `population` records.
pub fn generate_stream(kind: Kind, population: u64, seed: u64) -> Vec<CommitGroup> {
    let target = paper_counts(kind);
    let commits = target.commits;
    let reads = split(target.reads, commits);
    let updates = split(target.updates, commits);
    let deletes = split(target.deletes, commits);
    let adds = split(target.adds, commits);
    let mut state = seed | 1;
    let mut next = move |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    // Deletes target ids the generator itself added, so the population is
    // never exhausted and ids never collide with live reads.
    let mut groups = Vec::with_capacity(commits as usize);
    for c in 0..commits as usize {
        let group = CommitGroup {
            reads: (0..reads[c]).map(|_| next(population)).collect(),
            updates: (0..updates[c])
                .map(|_| (next(population), 100 + next(400) as usize))
                .collect(),
            deletes: (0..deletes[c]).map(|_| next(population)).collect(),
            adds: (0..adds[c]).map(|_| 100 + next(400) as usize).collect(),
        };
        groups.push(group);
    }
    groups
}

/// Measured result of one experiment.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Wall-clock time of the 10-operation experiment.
    pub elapsed: Duration,
    /// Operations actually issued (the Figure 10 analog).
    pub counts: OpCounts,
    /// Wall-clock time spent inside commits only.
    pub commit_time: Duration,
}

// ---------------------------------------------------------------------------
// The benchmark record type.
// ---------------------------------------------------------------------------

/// A generic benchmark object, standing in for the goods / contracts /
/// accounts / licenses of the paper's scenario.
#[derive(Debug)]
pub(crate) struct Rec {
    /// Which of the 30 collections (object types) this record belongs to.
    pub(crate) collection: u8,
    /// Opaque application payload.
    pub(crate) payload: Vec<u8>,
}

/// Type tag for [`Rec`].
pub(crate) const REC_TAG: u32 = 900;

impl StoredObject for Rec {
    fn type_tag(&self) -> u32 {
        REC_TAG
    }
    fn pickle(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + self.payload.len());
        out.push(self.collection);
        out.extend_from_slice(&self.payload);
        out
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Decodes a [`Rec`] body.
pub(crate) fn unpickle_rec(body: &[u8]) -> tdb_object::errors::Result<Arc<dyn StoredObject>> {
    if body.is_empty() {
        return Err(tdb_object::errors::ObjectError::BadPickle("rec".into()));
    }
    Ok(Arc::new(Rec {
        collection: body[0],
        payload: body[1..].to_vec(),
    }))
}

/// Sorted index on the first payload bytes.
pub(crate) fn rec_by_prefix(o: &dyn StoredObject) -> Option<Vec<u8>> {
    o.as_any().downcast_ref::<Rec>().map(|r| {
        IndexKey::new()
            .raw(&r.payload[..r.payload.len().min(8)])
            .into_bytes()
    })
}

/// Unsorted index on payload length.
fn rec_by_len(o: &dyn StoredObject) -> Option<Vec<u8>> {
    o.as_any()
        .downcast_ref::<Rec>()
        .map(|r| IndexKey::new().u64(r.payload.len() as u64).into_bytes())
}

/// Sorted index on a payload checksum.
fn rec_by_sum(o: &dyn StoredObject) -> Option<Vec<u8>> {
    o.as_any().downcast_ref::<Rec>().map(|r| {
        let sum: u64 = r.payload.iter().map(|&b| u64::from(b)).sum();
        IndexKey::new().u64(sum).into_bytes()
    })
}

/// Sorted index present only on large records.
fn rec_by_large(o: &dyn StoredObject) -> Option<Vec<u8>> {
    let r = o.as_any().downcast_ref::<Rec>()?;
    if r.payload.len() > 300 {
        Some(IndexKey::new().u64(r.payload.len() as u64).into_bytes())
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// The TDB side.
// ---------------------------------------------------------------------------

/// A fully assembled TDB workload instance.
pub struct TdbWorkload {
    pub platform: Platform,
    pub objects: Arc<ObjectStore>,
    pub collections: CollectionStore,
    pub partition: PartitionId,
    pub colls: Vec<CollectionId>,
    /// Logical id → object, for the preloaded population.
    pub ids: Vec<ObjectId>,
}

impl TdbWorkload {
    /// Builds the §9.5.1 setup: 30 collections with one to four indexes,
    /// preloaded with `population` records, cache warmed.
    pub fn setup(mode: IoMode, population: u64, config: ChunkStoreConfig) -> TdbWorkload {
        let platform = Platform::new(mode);
        let (chunks, partition) = chunk_store_with_partition(&platform, config);
        let mut registry = TypeRegistry::new();
        register_builtin_types(&mut registry);
        registry.register(REC_TAG, unpickle_rec);
        let mut extractors = ExtractorRegistry::new();
        extractors.register("prefix", rec_by_prefix);
        extractors.register("len", rec_by_len);
        extractors.register("sum", rec_by_sum);
        extractors.register("large", rec_by_large);
        let objects = ObjectStore::new(
            chunks,
            registry,
            ObjectStoreConfig {
                // "The total size of TDB caches … was set to 4 Mbytes."
                cache_bytes: 4 * 1024 * 1024,
                ..ObjectStoreConfig::default()
            },
        );
        let collections = CollectionStore::new(extractors);

        // 30 collections, 1–4 indexes each.
        let mut tx = objects.begin();
        let mut colls = Vec::with_capacity(30);
        for i in 0..30u8 {
            let coll = collections
                .create_collection(&mut tx, partition, &format!("type-{i}"))
                .expect("create collection");
            let n_indexes = 1 + usize::from(i) % 4;
            let specs = [
                ("prefix", "prefix", IndexKind::Sorted),
                ("len", "len", IndexKind::Unsorted),
                ("sum", "sum", IndexKind::Sorted),
                ("large", "large", IndexKind::Sorted),
            ];
            for (name, extractor, kind) in specs.iter().take(n_indexes) {
                collections
                    .add_index(&mut tx, coll, name, extractor, *kind)
                    .expect("add index");
            }
            colls.push(coll);
        }
        tx.commit().expect("setup commit");

        // Preload the population.
        let mut ids = Vec::with_capacity(population as usize);
        for logical in 0..population {
            let mut tx = objects.begin();
            let coll = colls[(logical % 30) as usize];
            let id = collections
                .insert(
                    &mut tx,
                    coll,
                    Arc::new(Rec {
                        collection: (logical % 30) as u8,
                        payload: bytes(logical, 100 + (logical as usize * 37) % 400),
                    }),
                )
                .expect("preload insert");
            tx.commit().expect("preload commit");
            ids.push(id);
        }
        objects.chunks().checkpoint().expect("preload checkpoint");

        // "The benchmark loads the cache before executing an experiment."
        let mut tx = objects.begin();
        for id in &ids {
            let _ = tx.get::<Rec>(*id).expect("warm");
        }
        tx.abort();

        TdbWorkload {
            platform,
            objects,
            collections,
            partition,
            colls,
            ids,
        }
    }

    /// Runs one experiment over a pre-generated stream.
    pub fn run(&mut self, stream: &[CommitGroup]) -> RunResult {
        let mut counts = OpCounts::default();
        let mut commit_time = Duration::ZERO;
        let start = Instant::now();
        for group in stream {
            let mut tx = self.objects.begin();
            for &logical in &group.reads {
                let id = self.ids[(logical as usize) % self.ids.len()];
                let _ = tx.get::<Rec>(id).expect("read");
                counts.reads += 1;
            }
            for &(logical, size) in &group.updates {
                let slot = (logical as usize) % self.ids.len();
                let id = self.ids[slot];
                let coll = self.colls[slot % 30];
                self.collections
                    .update(
                        &mut tx,
                        coll,
                        id,
                        Arc::new(Rec {
                            collection: (slot % 30) as u8,
                            payload: bytes(logical ^ 0xABCD, size),
                        }),
                    )
                    .expect("update");
                counts.updates += 1;
            }
            for &size in &group.adds {
                let coll_idx = counts.adds as usize % 30;
                let id = self
                    .collections
                    .insert(
                        &mut tx,
                        self.colls[coll_idx],
                        Arc::new(Rec {
                            collection: coll_idx as u8,
                            payload: bytes(size as u64, size),
                        }),
                    )
                    .expect("add");
                counts.adds += 1;
                // New records join the live set (deletes target them).
                self.ids.push(id);
            }
            for _ in &group.deletes {
                // Delete the most recently added record still alive, so the
                // preloaded population stays intact for reads.
                if self.ids.len() > 30 {
                    let id = self.ids.pop().expect("non-empty");
                    let slot = self.ids.len();
                    let coll = self.colls[slot % 30];
                    // Unlink from its collection when membership matches;
                    // the object itself is deleted either way.
                    let _ = self.collections.unlink(&mut tx, coll, id);
                    tx.delete(id).expect("delete");
                    counts.deletes += 1;
                }
            }
            let t0 = Instant::now();
            tx.commit().expect("workload commit");
            commit_time += t0.elapsed();
            counts.commits += 1;
        }
        RunResult {
            elapsed: start.elapsed(),
            counts,
            commit_time,
        }
    }
}

// ---------------------------------------------------------------------------
// The XDB side.
// ---------------------------------------------------------------------------

/// The layered-crypto XDB workload instance.
pub struct XdbWorkload {
    pub platform: Platform,
    pub db: SecureXdb,
    pub live: Vec<u64>,
    next_id: u64,
}

impl XdbWorkload {
    /// Builds the equivalent XDB-based system: same cryptographic
    /// parameters (DES + SHA-1), preloaded with the same population.
    pub fn setup(mode: IoMode, population: u64) -> XdbWorkload {
        let platform = Platform::new(mode);
        // XDB keeps its WAL in a second region of the same device class.
        let wal_mem = Arc::new(tdb_storage::MemStore::new());
        let wal: tdb_storage::SharedUntrusted = match mode {
            IoMode::Raw => wal_mem,
            IoMode::SimulatedDisk => Arc::new(tdb_storage::SimDiskStore::new(
                wal_mem as tdb_storage::SharedUntrusted,
                tdb_storage::DiskModel::untrusted_1999(),
                Arc::clone(&platform.clock),
            )),
        };
        let db = SecureXdb::create(
            Arc::clone(&platform.untrusted),
            wal,
            Arc::clone(&platform.trusted),
            SecureXdbConfig::paper_default(tdb_crypto::SecretKey::random(8)),
        )
        .expect("create secure xdb");
        let mut live = Vec::with_capacity(population as usize);
        for logical in 0..population {
            db.commit(vec![(
                logical,
                Some(bytes(logical, 100 + (logical as usize * 37) % 400)),
            )])
            .expect("preload");
            live.push(logical);
        }
        db.checkpoint().expect("preload checkpoint");
        // Warm reads.
        for &id in &live {
            let _ = db.get(id).expect("warm");
        }
        XdbWorkload {
            platform,
            db,
            next_id: population,
            live,
        }
    }

    /// Runs one experiment over the same logical stream.
    pub fn run(&mut self, stream: &[CommitGroup]) -> RunResult {
        let mut counts = OpCounts::default();
        let mut commit_time = Duration::ZERO;
        let start = Instant::now();
        for group in stream {
            for &logical in &group.reads {
                let id = self.live[(logical as usize) % self.live.len()];
                let _ = self.db.get(id).expect("read");
                counts.reads += 1;
            }
            let mut batch: Vec<(u64, Option<Vec<u8>>)> = Vec::new();
            for &(logical, size) in &group.updates {
                let id = self.live[(logical as usize) % self.live.len()];
                batch.push((id, Some(bytes(logical ^ 0xABCD, size))));
                counts.updates += 1;
            }
            for &size in &group.adds {
                let id = self.next_id;
                self.next_id += 1;
                batch.push((id, Some(bytes(size as u64, size))));
                self.live.push(id);
                counts.adds += 1;
            }
            for _ in &group.deletes {
                if self.live.len() > 30 {
                    let id = self.live.pop().expect("non-empty");
                    batch.push((id, None));
                    counts.deletes += 1;
                }
            }
            let t0 = Instant::now();
            self.db.commit(batch).expect("xdb commit");
            commit_time += t0.elapsed();
            counts.commits += 1;
        }
        RunResult {
            elapsed: start.elapsed(),
            counts,
            commit_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_matches_paper_counts() {
        for kind in [Kind::Release, Kind::Bind] {
            let target = paper_counts(kind);
            let stream = generate_stream(kind, 500, 42);
            assert_eq!(stream.len() as u64, target.commits);
            let reads: u64 = stream.iter().map(|g| g.reads.len() as u64).sum();
            let updates: u64 = stream.iter().map(|g| g.updates.len() as u64).sum();
            let deletes: u64 = stream.iter().map(|g| g.deletes.len() as u64).sum();
            let adds: u64 = stream.iter().map(|g| g.adds.len() as u64).sum();
            assert_eq!(
                (reads, updates, deletes, adds),
                (target.reads, target.updates, target.deletes, target.adds),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn tdb_workload_runs_release() {
        let mut w = TdbWorkload::setup(IoMode::Raw, 120, crate::fixtures::paper_config());
        let stream = generate_stream(Kind::Release, 120, 7);
        let result = w.run(&stream);
        let target = paper_counts(Kind::Release);
        assert_eq!(result.counts.reads, target.reads);
        assert_eq!(result.counts.updates, target.updates);
        assert_eq!(result.counts.commits, target.commits);
        assert!(result.elapsed > Duration::ZERO);
    }

    #[test]
    fn xdb_workload_runs_release() {
        let mut w = XdbWorkload::setup(IoMode::Raw, 120);
        let stream = generate_stream(Kind::Release, 120, 7);
        let result = w.run(&stream);
        assert_eq!(result.counts.commits, paper_counts(Kind::Release).commits);
    }

    #[test]
    fn deterministic_streams() {
        let a = generate_stream(Kind::Bind, 300, 9);
        let b = generate_stream(Kind::Bind, 300, 9);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.reads, y.reads);
            assert_eq!(x.updates, y.updates);
        }
    }
}
