//! Crypto primitive microbenches (ISSUE 8): the monomorphic hash path,
//! multi-block compression throughput, cached-key HMAC, and the tree-hash
//! shape the Merkle pipeline pays per map chunk. These pin the sealing
//! path's primitive costs so regressions show up at the primitive, not
//! buried in an end-to-end number.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use tdb_bench::fixtures::bytes;
use tdb_crypto::hmac::{Hmac, HmacKey};
use tdb_crypto::HashKind;

fn bench_sha256(c: &mut Criterion) {
    // Bulk throughput (multi-block compression keeps state in locals) and
    // the small-input shape map-chunk hashing actually pays.
    let mut group = c.benchmark_group("sha256");
    for size in [64usize, 2048, 64 * 1024] {
        let buf = bytes(12, size);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(BenchmarkId::from_parameter(size), |b| {
            b.iter(|| HashKind::Sha256.hash(&buf))
        });
    }
    group.finish();

    // Multi-part hashing through the monomorphic inline hasher.
    let parts = [bytes(13, 512), bytes(14, 512), bytes(15, 512)];
    let slices: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
    c.bench_function("sha256_parts_3x512", |b| {
        b.iter(|| HashKind::Sha256.hash_parts(&slices))
    });
}

fn bench_hmac(c: &mut Criterion) {
    let buf = bytes(16, 2048);
    // One-shot: re-derives the ipad/opad midstates per call.
    c.bench_function("hmac_sha256_2k_oneshot", |b| {
        b.iter(|| Hmac::mac(HashKind::Sha256, b"commit-signing-key", &buf))
    });
    // Cached key: the commit path's shape — key absorbed once, MAC per call.
    let key = HmacKey::new(HashKind::Sha256, b"commit-signing-key");
    c.bench_function("hmac_sha256_2k_cached_key", |b| b.iter(|| key.mac(&buf)));
    // Commit-record shape: a handful of tiny parts under a cached key.
    let count = 42u64.to_le_bytes();
    let digest = bytes(17, 20);
    c.bench_function("hmac_sha1_commit_record_cached", |b| {
        let key = HmacKey::new(HashKind::Sha1, b"commit-signing-key");
        b.iter(|| key.mac_parts(&[&count, &digest]))
    });
}

fn bench_tree_hash(c: &mut Criterion) {
    // The Merkle pipeline's per-level unit: hash `fanout` child digests
    // concatenated into one map-chunk-sized body, then the parent link.
    // 64 slots x 37 B (written descriptor with a SHA-1 hash) ~ a fanout-64
    // map chunk body.
    let mut group = c.benchmark_group("tree_hash_level");
    for (hash, slot) in [(HashKind::Sha1, 37usize), (HashKind::Sha256, 49)] {
        let body = bytes(18, 64 * slot);
        group.throughput(Throughput::Bytes(body.len() as u64));
        group.bench_function(BenchmarkId::from_parameter(format!("{hash:?}")), |b| {
            b.iter(|| hash.hash(&body))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sha256, bench_hmac, bench_tree_hash);
criterion_main!(benches);
