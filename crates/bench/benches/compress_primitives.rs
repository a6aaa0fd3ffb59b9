//! Compression codec microbenches: compress and decompress throughput
//! over the corpora the chunk store actually sees — text-like records,
//! binary structures, and incompressible noise — plus the achieved ratios.
//! These pin the codec's cost so a slow matcher or decoder regression
//! shows up here, not buried in an end-to-end run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use tdb_bench::fixtures::bytes;
use tdb_core::compress::{compress_block, compress_body, decompress_block};

/// A field-structured record (`fieldN=word word …;`) over an eight-word
/// vocabulary, compressible the way serialized records are; `seed` makes
/// records distinct.
fn record(seed: u64, len: usize) -> Vec<u8> {
    const WORDS: [&str; 8] = [
        "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    ];
    let noise = bytes(seed, len);
    let mut out = Vec::with_capacity(len + 64);
    for (field, draw) in noise.chunks(6).enumerate() {
        if out.len() >= len {
            break;
        }
        out.extend_from_slice(format!("field{field}=").as_bytes());
        for b in draw {
            out.extend_from_slice(WORDS[usize::from(b % 8)].as_bytes());
            out.push(b' ');
        }
        out.extend_from_slice(format!("s{seed};").as_bytes());
    }
    out.truncate(len);
    out
}

/// The three corpora: (name, 64 KiB body).
fn corpora() -> Vec<(&'static str, Vec<u8>)> {
    let len = 64 * 1024;
    // Text-like: field-structured prose.
    let text = record(7, len);
    // Binary: repeating little-endian counters with drifting values, the
    // shape of serialized structs and map encodings.
    let mut binary = Vec::with_capacity(len);
    let mut v = 0x1122_3344_5566_7788u64;
    while binary.len() < len {
        binary.extend_from_slice(&v.to_le_bytes());
        binary.extend_from_slice(&(v >> 5).to_le_bytes());
        v = v.wrapping_add(0x0101);
    }
    binary.truncate(len);
    // Incompressible: xorshift noise — the escape-hatch path.
    let noise = bytes(99, len);
    vec![("text", text), ("binary", binary), ("noise", noise)]
}

fn bench_compress(c: &mut Criterion) {
    let mut group = c.benchmark_group("compress_block");
    for (name, body) in corpora() {
        group.throughput(Throughput::Bytes(body.len() as u64));
        let stream = compress_block(&body);
        let ratio = body.len() as f64 / stream.len() as f64;
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| compress_block(&body))
        });
        println!(
            "  corpus {name}: {} -> {} bytes ({ratio:.2}x)",
            body.len(),
            stream.len()
        );
    }
    group.finish();
}

fn bench_decompress(c: &mut Criterion) {
    let mut group = c.benchmark_group("decompress_block");
    for (name, body) in corpora() {
        // Noise produces a literal-heavy stream; still worth timing, the
        // store only decompresses what it stored compressed.
        let stream = compress_block(&body);
        group.throughput(Throughput::Bytes(body.len() as u64));
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| decompress_block(&stream, body.len()).expect("valid stream"))
        });
    }
    group.finish();
}

fn bench_envelope(c: &mut Criterion) {
    // The seal path's actual call: envelope-or-raw decision included, at
    // a 1000-byte record.
    let text = record(3, 1000);
    let noise = bytes(42, 1000);
    c.bench_function("compress_body_1k_text", |b| {
        b.iter(|| compress_body(&text).expect("compressible"))
    });
    c.bench_function("compress_body_1k_noise_escape", |b| {
        b.iter(|| assert!(compress_body(&noise).is_none()))
    });
}

criterion_group!(benches, bench_compress, bench_decompress, bench_envelope);
criterion_main!(benches);
