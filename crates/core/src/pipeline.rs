//! The crypto pipeline: hash + seal a batch of chunk bodies ahead of their
//! log appends, on more than one core when the batch is worth it.
//!
//! The paper identifies cryptography as the dominant cost of the chunk
//! store (§9.3), and `seal_version` is location-independent: the sealed
//! bytes and the body hash of every `WriteChunk` in a commit set (and of
//! every dirty map chunk at one level of a checkpoint) can be computed
//! before any log offset is assigned. [`seal_batch`] does exactly that, and
//! the log append then serializes only the already-ciphered buffers,
//! preserving append order and therefore the log hashes.
//!
//! So a committer seals its own writes before it takes the engine lock, and
//! the engine seals only what the committer could not.
//!
//! Whether the batch fans out is decided by *work*, not by job count: below
//! [`FAN_OUT_MIN_BYTES`] of plaintext (or with `crypto_workers == 1`, or a
//! single job) everything is sealed inline on the caller's thread and no
//! thread is created. From there up the caller seals jobs itself beside
//! `workers - 1` scoped helper threads, all racing down a shared index
//! over the job list.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tdb_crypto::HashValue;

use crate::ids::ChunkId;
use crate::metrics::{self, modules};
use crate::params::PartitionCrypto;
use crate::version::{seal_version, VersionKind};

/// A chunk body hashed and sealed ahead of its log append.
pub(crate) struct Presealed {
    /// Hash of the body under the partition's hash function.
    pub hash: HashValue,
    /// The sealed version (header + body ciphertext), ready to append.
    pub sealed: Vec<u8>,
    /// Body length, which the descriptor's `size` records.
    pub body_len: u32,
    /// The partition crypto the body was sealed under, which the engine
    /// checks against the partition's current one before it appends.
    pub crypto: Arc<PartitionCrypto>,
}

/// The seals of one op set's writes, by op index.
pub(crate) type Seals = Vec<Option<Presealed>>;

/// One seal job: `(id, partition crypto, plaintext body)`.
pub(crate) type SealJob<'a> = (ChunkId, Arc<PartitionCrypto>, &'a [u8]);

/// Resolves the configured worker count: `0` means auto (available
/// parallelism, capped at 8), anything else is taken literally.
fn resolve_workers(configured: usize) -> usize {
    match configured {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8),
        n => n,
    }
}

/// Hashes and seals one body as a version of `kind`: the one place a named
/// version is made, whether a batch or a single write asked for it.
pub(crate) fn seal_one(
    system: &PartitionCrypto,
    kind: VersionKind,
    job: &SealJob<'_>,
) -> Presealed {
    let (id, crypto, body) = job;
    let hash = {
        let _t = metrics::span(modules::HASHING);
        crypto.hash(body)
    };
    let sealed = {
        let _t = metrics::span(modules::ENCRYPTION);
        seal_version(system, crypto, kind, *id, body)
    };
    Presealed {
        hash,
        sealed,
        body_len: body.len() as u32,
        crypto: Arc::clone(crypto),
    }
}

/// Plaintext bytes a batch must carry before it is sealed on more than one
/// core.
///
/// Fanning out costs one thread spawn + join per helper: 15–30 µs at the
/// median and 60–110 µs at the 99th percentile on the two-core reference
/// host, measured around an empty scoped thread with the other core idle,
/// as it is between the commits of a closed loop. With two workers it
/// saves half the batch's seal time, and EXPERIMENTS.md E1/E4 price sealing
/// at 0.017 µs/byte for DES + SHA-1 (67.5 and 299 MB/s) and 0.007 µs/byte
/// for AES-128 + SHA-1 (264 MB/s). Break-even against a 100 µs spawn is
/// therefore about 12 KB for the paper's cipher and 28 KB for the fastest
/// one; 64 KB is a little over twice the latter, so a batch that fans out
/// wins by at least the spawn's own cost under every cipher — at the
/// default, 1.1 ms of sealing becomes about 0.65 ms. In practice batches
/// are bimodal: a transaction's commit or a group-commit batch is a few
/// kilobytes, a bulk load or a full checkpoint level is 70 KB and up.
const FAN_OUT_MIN_BYTES: usize = 64 * 1024;

/// Hashes and seals every job and returns the results in job order, plus
/// whether the batch fanned out.
///
/// `configured_workers` is [`crate::store::ChunkStoreConfig::crypto_workers`]
/// unresolved; it is resolved only for a batch of at least two jobs and
/// [`FAN_OUT_MIN_BYTES`] of plaintext, so the common small batch never
/// asks the OS how many cores there are, let alone creates a thread. A
/// fanned-out batch is shared between the caller and `workers - 1` scoped
/// helpers; a panic in a helper propagates to the caller.
pub(crate) fn seal_batch(
    system: &PartitionCrypto,
    jobs: &[SealJob<'_>],
    configured_workers: usize,
) -> (Vec<Presealed>, bool) {
    let seal = |job: &SealJob<'_>| seal_one(system, VersionKind::Named, job);
    let n = jobs.len();
    let plaintext: usize = jobs.iter().map(|(_, _, body)| body.len()).sum();
    let workers = if n >= 2 && plaintext >= FAN_OUT_MIN_BYTES {
        resolve_workers(configured_workers).min(n)
    } else {
        1
    };
    if workers < 2 {
        let sealed = jobs.iter().map(seal).collect();
        return (sealed, false);
    }
    let next = AtomicUsize::new(0);
    let take_jobs = || {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return mine;
            }
            mine.push((i, seal(&jobs[i])));
        }
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(take_jobs)).collect();
        let mut done = take_jobs();
        for helper in helpers {
            done.extend(helper.join().expect("seal helpers do not panic"));
        }
        done
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    (done.into_iter().map(|(_, sealed)| sealed).collect(), true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CryptoParams;
    use tdb_crypto::{CipherKind, HashKind};

    fn crypto() -> Arc<PartitionCrypto> {
        Arc::new(
            CryptoParams::generate(CipherKind::Des, HashKind::Sha1)
                .runtime()
                .unwrap(),
        )
    }

    fn jobs<'a>(part: &Arc<PartitionCrypto>, bodies: &'a [Vec<u8>]) -> Vec<SealJob<'a>> {
        bodies
            .iter()
            .enumerate()
            .map(|(i, b)| {
                (
                    ChunkId::data(crate::ids::PartitionId(1), i as u64),
                    Arc::clone(part),
                    b.as_slice(),
                )
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_hashes() {
        let system = crypto();
        let part = crypto();
        let bodies: Vec<Vec<u8>> = (0u8..16).map(|i| vec![i; 5000 + usize::from(i)]).collect();
        let jobs = jobs(&part, &bodies);
        let (seq, seq_fanned) = seal_batch(&system, &jobs, 1);
        let (par, par_fanned) = seal_batch(&system, &jobs, 4);
        assert!(!seq_fanned && par_fanned);
        assert_eq!(seq.len(), par.len());
        for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
            // Hashes and lengths are deterministic; ciphertext differs
            // only by the random IVs.
            assert_eq!(s.hash, p.hash, "job {i}");
            assert_eq!(s.body_len, p.body_len, "job {i}");
            assert_eq!(s.sealed.len(), p.sealed.len(), "job {i}");
        }
    }

    #[test]
    fn fan_out_goes_by_plaintext_bytes_not_job_count() {
        let system = crypto();
        let part = crypto();
        // 13 jobs, 3.7 KB: a transaction's commit. Inline however many
        // workers are configured.
        let small: Vec<Vec<u8>> = (0u8..13).map(|i| vec![i; 285]).collect();
        assert!(!seal_batch(&system, &jobs(&part, &small), 4).1);
        // One job short of the threshold, then at it.
        let mut bodies = vec![vec![7u8; FAN_OUT_MIN_BYTES / 2]; 2];
        bodies[1].pop();
        assert!(!seal_batch(&system, &jobs(&part, &bodies), 2).1);
        bodies[1].push(7);
        assert!(seal_batch(&system, &jobs(&part, &bodies), 2).1);
        // A single job has nothing to share, whatever its size.
        let one = vec![vec![7u8; FAN_OUT_MIN_BYTES]];
        assert!(!seal_batch(&system, &jobs(&part, &one), 2).1);
        assert!(!seal_batch(&system, &jobs(&part, &bodies), 1).1);
    }

    #[test]
    fn worker_resolution() {
        assert!(resolve_workers(0) >= 1);
        assert!(resolve_workers(0) <= 8);
        assert_eq!(resolve_workers(1), 1);
        assert_eq!(resolve_workers(3), 3);
    }
}
