//! E1 (§9.2.1): cipher and hash bandwidth benches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use tdb_bench::fixtures::bytes;
use tdb_crypto::cbc::Cbc;
use tdb_crypto::hmac::Hmac;
use tdb_crypto::{CipherKind, HashKind};

/// CBC in both directions at two sizes: a 64 KiB run for bandwidth, and the
/// 1000-byte row `tdbmark`'s kv workloads seal per commit and open per read
/// miss (`crypto.{encrypt,decrypt}_us_per_record`).
fn bench_ciphers(c: &mut Criterion) {
    let buf = bytes(1, 64 * 1024);
    for (size, plain) in [("64k", &buf[..]), ("row", &buf[..1000])] {
        let mut group = c.benchmark_group(format!("cipher_cbc_{size}"));
        group.throughput(Throughput::Bytes(plain.len() as u64));
        for cipher in [
            CipherKind::TripleDes,
            CipherKind::Des,
            CipherKind::Aes128,
            CipherKind::Aes256,
        ] {
            let key = vec![0x42u8; cipher.key_len()];
            let cbc = Cbc::new(cipher, &key).unwrap();
            let iv = cbc.random_iv();
            group.bench_function(BenchmarkId::new("encrypt", format!("{cipher:?}")), |b| {
                b.iter(|| cbc.encrypt(&iv, plain).unwrap())
            });
            let sealed = cbc.encrypt(&iv, plain).unwrap();
            group.bench_function(BenchmarkId::new("decrypt", format!("{cipher:?}")), |b| {
                b.iter(|| cbc.decrypt(&iv, &sealed).unwrap())
            });
        }
        group.finish();
    }
}

fn bench_hashes(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash");
    let buf = bytes(2, 64 * 1024);
    group.throughput(Throughput::Bytes(buf.len() as u64));
    for hash in [HashKind::Sha1, HashKind::Sha256] {
        group.bench_function(BenchmarkId::from_parameter(format!("{hash:?}")), |b| {
            b.iter(|| hash.hash(&buf))
        });
    }
    group.finish();

    // The fixed "finalization" overhead of §9.2.1 (5 µs in the paper).
    let mut group = c.benchmark_group("hash_finalization");
    for hash in [HashKind::Sha1, HashKind::Sha256] {
        group.bench_function(BenchmarkId::from_parameter(format!("{hash:?}")), |b| {
            b.iter(|| hash.hash(&[]))
        });
    }
    group.finish();
}

fn bench_hmac(c: &mut Criterion) {
    let buf = bytes(3, 4096);
    c.bench_function("hmac_sha1_4k", |b| {
        b.iter(|| Hmac::mac(HashKind::Sha1, b"commit-signing-key", &buf))
    });
}

criterion_group!(benches, bench_ciphers, bench_hashes, bench_hmac);
criterion_main!(benches);
