//! Mutational pass over the version decoder: validly sealed versions,
//! byte-flipped, truncated or with a length prefix rewritten, go through
//! `parse_version` and `validate_version`, the one routine both the
//! lock-free and the engine-locked chunk read validate with.
//!
//! Neither may panic, and neither may make an allocation larger than its
//! input (for a compressed version, larger than the input or the
//! descriptor's logical size, which the trusted map supplies), give or
//! take [`MESSAGE`] bytes for an error's formatted message. A version
//! that validates yields exactly the body that was sealed. This binary's
//! allocator records the largest allocation each thread makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use proptest::sample::Index;

use tdb_core::compress::compress_body;
use tdb_core::descriptor::Descriptor;
use tdb_core::params::PartitionCrypto;
use tdb_core::version::{
    parse_version, seal_version_flagged, validate_version, Rejected, VersionKind,
};
use tdb_core::{ChunkId, CoreError, CryptoParams, PartitionId};
use tdb_crypto::{CipherKind, HashKind, SecretKey};

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

fn crypto(cipher: CipherKind, hash: HashKind, seed: u64) -> PartitionCrypto {
    let key = (0..cipher.key_len())
        .map(|i| (seed.rotate_left(7 * i as u32) as u8) ^ i as u8)
        .collect();
    CryptoParams {
        cipher,
        hash,
        key: SecretKey::new(key),
    }
    .runtime()
    .unwrap()
}

/// A body that compresses (`repetitive`) or does not.
fn body_for(seed: u64, len: usize, repetitive: bool) -> Vec<u8> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D) as u8
    };
    if repetitive {
        let motif: Vec<u8> = (0..5 + seed as usize % 11).map(|_| next()).collect();
        (0..len).map(|i| motif[i % motif.len()]).collect()
    } else {
        (0..len).map(|_| next()).collect()
    }
}

/// One sealed version and the descriptor the chunk map would hold for it.
struct Sealed {
    bytes: Vec<u8>,
    desc: Descriptor,
    /// The bytes the body was sealed as: the envelope when compressed.
    stored: Vec<u8>,
}

fn seal(
    system: &PartitionCrypto,
    part: &PartitionCrypto,
    kind: VersionKind,
    id: ChunkId,
    stored: Vec<u8>,
    compressed: bool,
    size: usize,
) -> Sealed {
    let bytes = seal_version_flagged(system, part, kind, id, &stored, compressed);
    let desc = Descriptor::written(
        LOCATION,
        bytes.len() as u32,
        size as u32,
        part.hash(&stored),
    );
    Sealed {
        bytes,
        desc,
        stored,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn mutated_versions_never_panic_overallocate_or_validate_wrongly(
        seed in any::<u64>(),
        len in 0usize..=700,
        repetitive in any::<bool>(),
        try_compress in any::<bool>(),
        aes in any::<bool>(),
        relocated in any::<bool>(),
        mutation in 0u8..5,
        at in any::<Index>(),
        value in any::<u32>(),
    ) {
        let system = crypto(CipherKind::TripleDes, HashKind::Sha1, seed);
        let part = if aes {
            crypto(CipherKind::Aes128, HashKind::Sha256, !seed)
        } else {
            crypto(CipherKind::Des, HashKind::Sha1, !seed)
        };
        let kind = if relocated { VersionKind::Relocated } else { VersionKind::Named };
        let id = ChunkId::data(PartitionId(3), seed % 1000);
        let body = body_for(seed, len, repetitive);
        let (stored, compressed) = match compress_body(&body).filter(|_| try_compress) {
            Some(envelope) => (envelope, true),
            None => (body.clone(), false),
        };
        let Sealed { mut bytes, mut desc, mut stored } =
            seal(&system, &part, kind, id, stored, compressed, body.len());

        // The unmutated version validates to the sealed body.
        let (plain, envelope) = validate_version(&system, &part, id, &desc, &bytes)
            .expect("a sealed version validates");
        prop_assert_eq!(&plain, &body);
        prop_assert_eq!(envelope.is_some(), compressed);
        match mutation {
            // A byte flip anywhere.
            0 => {
                let i = at.index(bytes.len());
                bytes[i] ^= (value as u8).max(1);
            }
            // A short read: any proper prefix.
            1 => bytes.truncate(at.index(bytes.len())),
            // The header's ciphertext-length prefix rewritten.
            2 => bytes[..2].copy_from_slice(&(value as u16).to_le_bytes()),
            // A validly sealed header whose body lengths disagree with the
            // body that follows it.
            3 => {
                let forged_len = value as usize % 2048;
                let forged = seal_version_flagged(
                    &system, &part, kind, id, &vec![0; forged_len], compressed,
                );
                let header_end = 2 + usize::from(u16::from_le_bytes([bytes[0], bytes[1]]));
                bytes.splice(..header_end, forged[..header_end].iter().copied());
            }
            // A compressed envelope whose declared length is rewritten before
            // sealing, with the descriptor hashing the rewritten envelope:
            // a corrupted writer, which only decompression can catch.
            _ => {
                if !compressed {
                    return Ok(());
                }
                stored[..4].copy_from_slice(&value.to_le_bytes());
                let rewritten = seal(&system, &part, kind, id, stored.clone(), true, body.len());
                bytes = rewritten.bytes;
                desc = rewritten.desc;
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
        match validated {
            Ok((plain, envelope)) => {
                prop_assert_eq!(&plain, &body);
                prop_assert_eq!(envelope.is_some(), compressed);
                if let Some(envelope) = envelope {
                    prop_assert_eq!(&envelope, &stored);
                }
            }
            Err(Rejected::Undecompressible(rejected)) => {
                prop_assert_eq!(mutation, 4);
                prop_assert_eq!(rejected, id);
            }
            Err(Rejected::Invalid(e)) => {
                prop_assert!(e.is_tamper() || matches!(e, CoreError::Corrupt(_)), "{e:?}");
            }
        }
    }
}
