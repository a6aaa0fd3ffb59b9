//! Mutational pass over the version decoder: validly sealed versions,
//! byte-flipped, truncated or with their IV-length prefix rewritten, go
//! through `parse_version` and `validate_version`, the one routine both the
//! lock-free and the engine-locked chunk read validate with. A flipped byte
//! anywhere, the body's IV included (the header's IV derives from it), is
//! a typed tamper verdict.
//!
//! Neither may panic, and neither may make an allocation larger than its
//! input or the descriptor's size, which the trusted map supplies, give or
//! take [`MESSAGE`] bytes for an error's formatted message. A version
//! that validates yields exactly the body that was sealed. The bodies
//! with count-prefixed lists — the system leader, the dealloc record and
//! the read proof — a whole sealed version, and the superblock with its
//! suite record get the same pass. This binary's allocator records
//! the largest allocation each thread makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use proptest::sample::Index;

use tdb_core::descriptor::Descriptor;
use tdb_core::leader::SystemLeader;
use tdb_core::log::{SuiteRecord, Superblock};
use tdb_core::params::PartitionCrypto;
use tdb_core::store::ChunkStoreConfig;
use tdb_core::version::{
    parse_version, seal_version, validate_version, DeallocRecord, VersionKind,
};
use tdb_core::{ChunkId, CoreError, CryptoParams, PartitionId, ProofLevel, ReadProof};
use tdb_crypto::{CipherKind, HashKind, HashValue, SecretKey};

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, recording each thread's largest request.
struct Recording;

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call forwards to `System` unchanged; `note` touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Recording = Recording;

/// Runs `f` and returns its result with the largest allocation it made.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

const LOCATION: u64 = 4096;

/// Allowance for the formatted message a `Corrupt` error carries.
const MESSAGE: usize = 128;

fn params(cipher: CipherKind, hash: HashKind, seed: u64) -> CryptoParams {
    let key = (0..cipher.key_len())
        .map(|i| (seed.rotate_left(7 * i as u32) as u8) ^ i as u8)
        .collect();
    CryptoParams {
        cipher,
        hash,
        key: SecretKey::new(key),
    }
}

fn crypto(cipher: CipherKind, hash: HashKind, seed: u64) -> PartitionCrypto {
    params(cipher, hash, seed).runtime().unwrap()
}

/// A pseudo-random body of `len` bytes.
fn body_for(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D) as u8
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn mutated_versions_never_panic_overallocate_or_validate_wrongly(
        seed in any::<u64>(),
        len in 0usize..=700,
        aes in any::<bool>(),
        paper_system in any::<bool>(),
        relocated in any::<bool>(),
        mutation in 0u8..4,
        at in any::<Index>(),
        value in any::<u32>(),
    ) {
        let system_cipher = if paper_system { CipherKind::TripleDes } else { CipherKind::Aes128 };
        let system = crypto(system_cipher, HashKind::Sha1, seed);
        let part = if aes {
            crypto(CipherKind::Aes128, HashKind::Sha256, !seed)
        } else {
            crypto(CipherKind::Des, HashKind::Sha1, !seed)
        };
        let kind = if relocated { VersionKind::Relocated } else { VersionKind::Named };
        let id = ChunkId::data(PartitionId(3), seed % 1000);
        let body = body_for(seed, len);
        let mut bytes = seal_version(&system, &part, kind, id, &body);
        let desc = Descriptor::written(LOCATION, bytes.len() as u32, len as u32, part.hash(&body));

        // The unmutated version validates to the sealed body.
        let plain = validate_version(&system, &part, id, &desc, &bytes)
            .expect("a sealed version validates");
        prop_assert_eq!(&plain, &body);
        match mutation {
            // A byte flip anywhere.
            0 => {
                let i = at.index(bytes.len());
                bytes[i] ^= (value as u8).max(1);
            }
            // A short read: any proper prefix.
            1 => bytes.truncate(at.index(bytes.len())),
            // The IV-length prefix rewritten.
            2 => bytes[..2].copy_from_slice(&(value as u16).to_le_bytes()),
            // A validly sealed header, with the body IV it was sealed
            // under, whose body lengths disagree with the body that
            // follows it.
            _ => {
                let forged_len = value as usize % 2048;
                let forged = seal_version(&system, &part, kind, id, &vec![0; forged_len]);
                let iv_end = 2 + system.ciphertext_len(22) + part.block_size();
                bytes.splice(..iv_end, forged[..iv_end].iter().copied());
            }
        }

        let (parsed, largest) = largest_allocation(|| parse_version(&system, &bytes, LOCATION));
        prop_assert!(largest <= bytes.len() + MESSAGE, "parse allocated {largest} for {} bytes", bytes.len());
        if let Ok(Some(raw)) = parsed {
            prop_assert!(raw.total_len <= bytes.len());
        }

        let (validated, largest) =
            largest_allocation(|| validate_version(&system, &part, id, &desc, &bytes));
        let bound = bytes.len().max(desc.size as usize) + MESSAGE;
        prop_assert!(largest <= bound, "validation allocated {largest}, bound {bound}");
        prop_assert!(mutation != 0 || validated.is_err(), "a flipped byte validated");
        match validated {
            Ok(plain) => prop_assert_eq!(&plain, &body),
            Err(e) if mutation == 0 => {
                prop_assert!(e.is_tamper(), "a flipped byte read as {e:?}");
            }
            Err(e) => {
                prop_assert!(e.is_tamper() || matches!(e, CoreError::Corrupt(_)), "{e:?}");
            }
        }
    }
}

/// Every flip of one byte, every proper prefix, and `u32::MAX` written over
/// one offset or two — which rewrites each count, and each count together
/// with the bound a decoder checks it against.
fn list_mutations(input: &[u8]) -> Vec<Vec<u8>> {
    let max = |bytes: &mut Vec<u8>, at: usize| bytes[at..at + 4].copy_from_slice(&[0xFF; 4]);
    let mut out = Vec::new();
    for i in 0..input.len() {
        let mut flipped = input.to_vec();
        flipped[i] ^= 0xA5;
        out.push(flipped);
        out.push(input[..i].to_vec());
        for j in (i + 4..input.len().saturating_sub(3)).chain([i]) {
            if i + 4 <= input.len() {
                let mut rewritten = input.to_vec();
                max(&mut rewritten, i);
                max(&mut rewritten, j);
                out.push(rewritten);
            }
        }
    }
    out
}

/// A system-leader body, sealed and opened again as recovery opens it, a
/// dealloc record, a read proof, the sealed leader version itself and a
/// superblock with its suite record, through [`list_mutations`]. Decoding
/// never panics and never makes an allocation larger than four times its
/// input, twice for a read proof, give or take [`MESSAGE`]: a rewritten
/// level count, leaf length or sibling count reserves nothing the bytes
/// do not hold.
#[test]
fn mutated_leaders_records_and_proofs_never_panic_or_overallocate() {
    let secret = SecretKey::new(b"mutation-pass secret".to_vec());
    let system_params = ChunkStoreConfig::default().system_params(&secret);
    let system = system_params.runtime().unwrap();
    let mut leader = SystemLeader::new(system_params.clone(), 4096);
    leader.map.free_ranks = vec![3, 9, 27];
    leader.map.copies = vec![PartitionId(5)];
    leader.log.num_segments = 6;
    leader.log.free_segments = vec![1, 4];
    leader.log.utilization = vec![100, 0, 4000, 3, 0, 12];
    let sealed = seal_version(
        &system,
        &system,
        VersionKind::Named,
        ChunkId::system_leader(),
        &leader.encode(),
    );
    let superblock = Superblock {
        epoch: 9,
        current_leader: 1 << 20,
        prev_leader: 4096,
        suite: SuiteRecord::sealed(&secret, CipherKind::Aes128, HashKind::Sha1),
    }
    .encode();
    let leader_body = parse_version(&system, &sealed, LOCATION)
        .unwrap()
        .unwrap()
        .open_body(&system, LOCATION)
        .unwrap();
    let dealloc = DeallocRecord {
        ids: vec![
            ChunkId::data(PartitionId(3), 17),
            ChunkId::data(PartitionId(4), 1 << 40),
        ],
    }
    .encode();
    let proof = ReadProof {
        id: ChunkId::data(PartitionId(3), 17),
        hash: HashKind::Sha1,
        fanout: 4,
        levels: vec![
            ProofLevel {
                slot: 1,
                leaf: vec![7; 37],
                siblings: vec![HashValue::new(&[2; 20]), HashValue::new(&[3; 20])],
            },
            ProofLevel {
                slot: 0,
                leaf: vec![9; 37],
                siblings: vec![HashValue::new(&[4; 20]), HashValue::new(&[5; 20])],
            },
        ],
        root: HashValue::new(&[1; 20]),
    }
    .encode();

    type Decoder<'a> = Box<dyn Fn(&[u8]) -> bool + 'a>;
    let decoders: [(&str, Vec<u8>, Decoder); 5] = [
        (
            "sealed leader version",
            sealed.clone(),
            Box::new(|b| parse_version(&system, b, LOCATION).is_ok_and(|v| v.is_some())),
        ),
        (
            "superblock",
            superblock,
            Box::new(|b| {
                Superblock::decode(b)
                    .and_then(|sb| sb.suite.check(&secret, CipherKind::Aes128, HashKind::Sha1))
                    .is_ok()
            }),
        ),
        (
            "system leader",
            leader_body,
            Box::new(|b| SystemLeader::decode(b, &system_params).is_ok()),
        ),
        (
            "dealloc record",
            dealloc,
            Box::new(|b| DeallocRecord::decode(b).is_ok()),
        ),
        (
            "read proof",
            proof,
            Box::new(|b| ReadProof::decode(b).is_ok()),
        ),
    ];
    for (name, input, decode) in &decoders {
        assert!(decode(input), "{name}: the unmutated body decodes");
        for mutated in list_mutations(input) {
            let (_, largest) = largest_allocation(|| decode(&mutated));
            // A read proof's records are at most 33 bytes per 20-byte
            // sibling digest and 56 per 49-byte level, so it stays within
            // twice its input.
            let factor = if *name == "read proof" { 2 } else { 4 };
            let bound = factor * mutated.len() + MESSAGE;
            assert!(
                largest <= bound,
                "{name}: allocated {largest} decoding {} bytes",
                mutated.len()
            );
        }
    }
}
