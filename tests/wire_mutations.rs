//! Mutational pass over the wire decoders: valid frames carrying a
//! handshake message, a request or a response, byte-flipped, truncated or
//! with a length prefix rewritten, go through `read_frame` and then through
//! every payload decoder a peer's bytes reach: the three handshake
//! decoders, `decode_request` and `decode_response`.
//!
//! None may panic. A payload decoder's largest allocation stays within
//! four thirds of its input (an id list decodes 12 wire bytes into a
//! 16-byte `ObjectId`), and `read_frame`'s within the larger of its
//! up-front reservation and twice the bytes that actually arrived; each
//! gives or takes [`MESSAGE`] bytes for an error's formatted message. A
//! truncated frame is `UnexpectedEof`. This binary's allocator records the
//! largest allocation each thread makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;

use proptest::prelude::*;
use proptest::sample::Index;

use tdb::wire::{
    self, decode_request, decode_response, encode_request, encode_response, AuthResult, ClientAuth,
    Hello, FRAME_RESERVE, MAX_FRAME,
};
use tdb::{
    ChunkId, CollectionId, Command, IndexKind, ObjectId, PartitionId, ReadProof, Response, TxMode,
    WireError,
};
use tdb_core::ProofLevel;
use tdb_crypto::{HashKind, HashValue};

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

/// Allowance for the formatted message an error carries.
const MESSAGE: usize = 128;

/// Deterministic filler bytes.
fn filler(seed: u64, len: usize) -> Vec<u8> {
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

fn text(seed: u64, len: usize) -> String {
    filler(seed, len)
        .into_iter()
        .map(|b| char::from(b'a' + b % 26))
        .collect()
}

/// An encoded read proof with one map level: a leaf of `len` bytes and
/// two sibling digests.
fn proof(seed: u64, len: usize) -> Vec<u8> {
    ReadProof {
        id: ChunkId::data(PartitionId(1), seed % 1000),
        hash: HashKind::Sha1,
        fanout: 4,
        levels: vec![ProofLevel {
            slot: (seed % 4) as usize,
            leaf: filler(!seed, len),
            siblings: vec![HashValue::new(&filler(seed ^ 1, 20)); 2],
        }],
        root: HashValue::new(&filler(seed, 20)),
    }
    .encode()
}

/// One valid frame payload: a handshake message, a request or a response,
/// chosen by `which`, its variable-length fields drawn from `seed`.
fn payload(which: usize, seed: u64, len: usize) -> Vec<u8> {
    let id = ObjectId::from_parts(PartitionId(1 + (seed % 7) as u32), seed % 1000);
    let coll = CollectionId(ObjectId::from_parts(PartitionId(1), seed % 64));
    let bytes = filler(seed, len);
    let mac = HashValue::new(&filler(!seed, 32));
    let command = |c: Command| encode_request(seed, &c);
    let response = |r: Response| encode_response(seed, (seed % 3) as u8, &text(seed, len % 40), &r);
    match which % 16 {
        0 => Hello {
            nonce: filler(seed, 32).try_into().unwrap(),
        }
        .encode(),
        1 => ClientAuth {
            principal: text(seed, len % 64),
            nonce: filler(!seed, 32).try_into().unwrap(),
            mac,
        }
        .encode(),
        2 => AuthResult::Welcome {
            mac,
            session_id: seed,
        }
        .encode(),
        3 => AuthResult::Reject {
            reason: text(seed, len % 64),
        }
        .encode(),
        4 => command(Command::Get(id)),
        5 => command(Command::Put { id, record: bytes }),
        6 => command(Command::Begin(TxMode::Locking)),
        7 => command(Command::CollAddIndex {
            coll,
            name: text(seed, 8),
            extractor: text(!seed, 5),
            kind: IndexKind::Sorted,
        }),
        8 => command(Command::CollRange {
            coll,
            index: text(seed, 6),
            lo: Some(bytes),
            hi: None,
        }),
        9 => response(Response::Ok),
        10 => response(Response::Record(bytes)),
        11 => response(Response::VerifiedRecord {
            record: bytes,
            proof: Some(proof(seed, len / 2)),
            root: filler(seed, 20),
        }),
        12 => response(Response::Ids(vec![id; len % 9])),
        13 => response(Response::Error(WireError {
            code: 101,
            class: None,
            message: text(seed, len % 80),
        })),
        14 => response(Response::Health {
            state: 1,
            reason: text(seed, 12),
        }),
        _ => response(Response::Count(seed)),
    }
}

/// A payload decoder, reporting only whether it accepted.
type Decoder = fn(&[u8]) -> bool;

/// Runs every payload decoder over `payload`, checking none allocates
/// beyond four thirds of it plus [`MESSAGE`].
fn decode_everything(payload: &[u8]) -> Result<(), TestCaseError> {
    let bound = payload.len() * 4 / 3 + MESSAGE;
    let decoders: [(&str, Decoder); 5] = [
        ("hello", |p| Hello::decode(p).is_ok()),
        ("client auth", |p| ClientAuth::decode(p).is_ok()),
        ("auth result", |p| AuthResult::decode(p).is_ok()),
        ("request", |p| decode_request(p).is_ok()),
        ("response", |p| decode_response(p).is_ok()),
    ];
    for (what, decode) in decoders {
        let (_, largest) = largest_allocation(|| decode(payload));
        prop_assert!(
            largest <= bound,
            "{what} allocated {largest} for {} bytes",
            payload.len()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn mutated_frames_never_panic_or_overallocate(
        which in 0usize..16,
        seed in any::<u64>(),
        len in 0usize..=600,
        mutation in 0u8..4,
        at in any::<Index>(),
        value in any::<u32>(),
    ) {
        let original = payload(which, seed, len);
        let mut frame = Vec::new();
        wire::write_frame(&mut frame, &original).unwrap();

        // The unmutated frame reads back whole.
        prop_assert_eq!(&wire::read_frame(&mut &frame[..]).unwrap(), &original);
        let mut truncated = false;
        match mutation {
            // A byte flip anywhere, length prefix included.
            0 => {
                let i = at.index(frame.len());
                frame[i] ^= (value as u8).max(1);
            }
            // A short stream: any proper prefix.
            1 => {
                frame.truncate(at.index(frame.len()));
                truncated = true;
            }
            // The frame's length prefix rewritten to anything up to the cap.
            2 => frame[..4].copy_from_slice(&(value % (MAX_FRAME + 1)).to_le_bytes()),
            // A u32 inside the payload rewritten: sometimes a length prefix
            // or a count, sometimes the fields around one.
            _ => {
                if original.len() < 4 {
                    return Ok(());
                }
                let i = 4 + at.index(original.len() - 3);
                frame[i..i + 4].copy_from_slice(&value.to_le_bytes());
            }
        }

        let (read, largest) = largest_allocation(|| wire::read_frame(&mut &frame[..]));
        let bound = FRAME_RESERVE.max(2 * frame.len()) + MESSAGE;
        prop_assert!(largest <= bound, "read_frame allocated {largest}, bound {bound}");
        match read {
            Ok(payload) => {
                prop_assert!(!truncated, "a truncated frame read whole");
                decode_everything(&payload)?;
            }
            Err(e) => prop_assert!(
                matches!(e.kind(), io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData),
                "{e:?}"
            ),
        }
        // The payload decoders see the mutated bytes directly as well,
        // whatever the frame's prefix now claims.
        decode_everything(frame.get(4..).unwrap_or_default())?;
    }
}
