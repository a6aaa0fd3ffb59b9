//! Chunk descriptors and map-chunk bodies (§4.3).
//!
//! "The chunk map maps a chunk id to a *chunk descriptor*, which contains
//! the following information: status of chunk id (unallocated, unwritten,
//! or written); if written, current location in the untrusted store; if
//! written, expected hash value of chunk."
//!
//! Each map chunk stores a fixed-size vector of descriptors; an arrow from
//! descriptor to chunk is simultaneously a *location* link and a *hash*
//! link, which is the paper's central trick: the Merkle tree is embedded in
//! the location map, so a chunk is validated as it is located.

use tdb_crypto::HashValue;

use crate::codec::{Dec, Enc};
use crate::errors::{CoreError, Result};

/// Zero padding written in place of the hash for non-written slots; sized
/// for the largest supported digest (SHA-256).
const ZERO_HASH: [u8; 32] = [0u8; 32];

/// Allocation status of a chunk id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkStatus {
    /// Never allocated, or deallocated.
    Unallocated,
    /// Allocated in this session but not yet written. Never persisted:
    /// "allocated but unwritten chunks are deallocated automatically upon
    /// system restart" (§4.1).
    Unwritten,
    /// Written; `location`, `vlen`, `size`, and `hash` are meaningful.
    Written,
}

/// A chunk descriptor: one slot of a map chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    /// Allocation status.
    pub status: ChunkStatus,
    /// Byte offset of the chunk's current version in the untrusted store.
    pub location: u64,
    /// Total length of the version in the log (header + body ciphertext),
    /// used by the cleaner's utilization accounting.
    pub vlen: u32,
    /// Plaintext body size in bytes.
    pub size: u32,
    /// Expected hash of the chunk state, under the partition's hash.
    pub hash: HashValue,
}

impl Descriptor {
    /// The descriptor of an unallocated id.
    pub fn unallocated() -> Descriptor {
        Descriptor {
            status: ChunkStatus::Unallocated,
            location: 0,
            vlen: 0,
            size: 0,
            hash: HashValue::zero(0),
        }
    }

    /// The descriptor of an allocated-but-unwritten id.
    pub fn unwritten() -> Descriptor {
        Descriptor {
            status: ChunkStatus::Unwritten,
            ..Descriptor::unallocated()
        }
    }

    /// A written descriptor.
    pub fn written(location: u64, vlen: u32, size: u32, hash: HashValue) -> Descriptor {
        Descriptor {
            status: ChunkStatus::Written,
            location,
            vlen,
            size,
            hash,
        }
    }

    /// True when the chunk has a current version in the log.
    pub fn is_written(&self) -> bool {
        self.status == ChunkStatus::Written
    }

    /// Logical-content equality, used by partition diffs (§5.3): two
    /// written descriptors describe the same state when size and hash agree
    /// *and* they point at the same version (copies share versions; the
    /// cleaner moves shared versions in all partitions at once).
    pub fn same_state(&self, other: &Descriptor) -> bool {
        match (self.status, other.status) {
            (ChunkStatus::Written, ChunkStatus::Written) => {
                self.location == other.location
                    && self.size == other.size
                    && self.hash == other.hash
            }
            // Unwritten ids have no state; treat them like unallocated for
            // diff purposes.
            (a, b) => {
                (a == ChunkStatus::Unallocated || a == ChunkStatus::Unwritten)
                    == (b == ChunkStatus::Unallocated || b == ChunkStatus::Unwritten)
                    && a == b
            }
        }
    }

    /// Encoded size of one slot for a partition whose digests are
    /// `hash_len` bytes.
    pub fn encoded_len(hash_len: usize) -> usize {
        1 + 8 + 4 + 4 + hash_len
    }

    /// Encodes one fixed-size slot. Unwritten ids are *persisted as
    /// unallocated* — allocation is not durable until the chunk is written
    /// (§4.4).
    pub fn encode(&self, e: &mut Enc, hash_len: usize) {
        let status = match self.status {
            ChunkStatus::Unallocated | ChunkStatus::Unwritten => 0u8,
            ChunkStatus::Written => 1,
        };
        e.u8(status);
        e.u64(self.location);
        e.u32(self.vlen);
        e.u32(self.size);
        if self.status == ChunkStatus::Written {
            debug_assert_eq!(self.hash.len(), hash_len);
            e.raw(self.hash.as_bytes());
        } else if hash_len <= ZERO_HASH.len() {
            // Every supported digest fits; no heap allocation per slot.
            e.raw(&ZERO_HASH[..hash_len]);
        } else {
            e.raw(&vec![0u8; hash_len]);
        }
    }

    /// Inverse of [`Descriptor::encode`].
    ///
    /// # Errors
    ///
    /// Fails on a truncated slot or unknown status byte.
    pub fn decode(d: &mut Dec<'_>, hash_len: usize) -> Result<Descriptor> {
        let status = d.u8()?;
        let location = d.u64()?;
        let vlen = d.u32()?;
        let size = d.u32()?;
        let hash_raw = d.raw(hash_len)?;
        match status {
            0 => Ok(Descriptor::unallocated()),
            1 => Ok(Descriptor::written(
                location,
                vlen,
                size,
                HashValue::new(hash_raw),
            )),
            other => Err(CoreError::Corrupt(format!(
                "unknown descriptor status byte {other}"
            ))),
        }
    }
}

/// The decoded body of a map chunk: a fixed vector of descriptors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapChunk {
    /// Exactly `fanout` slots.
    pub slots: Vec<Descriptor>,
}

impl MapChunk {
    /// A map chunk of `fanout` unallocated slots (the synthesized content
    /// of a map chunk that has never been written).
    pub fn empty(fanout: usize) -> MapChunk {
        MapChunk {
            slots: vec![Descriptor::unallocated(); fanout],
        }
    }

    /// Serializes the map chunk body.
    pub fn encode(&self, hash_len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.slots.len() * Descriptor::encoded_len(hash_len));
        self.encode_into(hash_len, &mut out);
        out
    }

    /// Serializes into `out` (cleared first), reusing its allocation — the
    /// checkpoint writer encodes thousands of map chunks back to back and
    /// keeps one scratch buffer across them.
    pub fn encode_into(&self, hash_len: usize, out: &mut Vec<u8>) {
        let mut e = Enc::reusing(std::mem::take(out));
        for slot in &self.slots {
            slot.encode(&mut e, hash_len);
        }
        *out = e.finish();
    }

    /// Inverse of [`MapChunk::encode`].
    ///
    /// # Errors
    ///
    /// Fails when the body does not hold exactly `fanout` slots.
    pub fn decode(body: &[u8], fanout: usize, hash_len: usize) -> Result<MapChunk> {
        let mut d = Dec::new(body);
        // A body shorter than `fanout` slots fails below; never reserve
        // more than it can hold.
        let mut slots =
            Vec::with_capacity(fanout.min(body.len() / Descriptor::encoded_len(hash_len)));
        for _ in 0..fanout {
            slots.push(Descriptor::decode(&mut d, hash_len)?);
        }
        d.expect_done("map chunk")?;
        Ok(MapChunk { slots })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_roundtrip_written() {
        let h = HashValue::new(&[7u8; 20]);
        let desc = Descriptor::written(12345, 100, 80, h);
        let mut e = Enc::new();
        desc.encode(&mut e, 20);
        let buf = e.finish();
        assert_eq!(buf.len(), Descriptor::encoded_len(20));
        let back = Descriptor::decode(&mut Dec::new(&buf), 20).unwrap();
        assert_eq!(back, desc);
    }

    #[test]
    fn unwritten_persists_as_unallocated() {
        let mut e = Enc::new();
        Descriptor::unwritten().encode(&mut e, 20);
        let buf = e.finish();
        let back = Descriptor::decode(&mut Dec::new(&buf), 20).unwrap();
        assert_eq!(back.status, ChunkStatus::Unallocated);
    }

    #[test]
    fn map_chunk_roundtrip() {
        let mut mc = MapChunk::empty(8);
        mc.slots[3] = Descriptor::written(1, 2, 3, HashValue::new(&[1u8; 20]));
        mc.slots[7] = Descriptor::written(9, 8, 7, HashValue::new(&[2u8; 20]));
        let body = mc.encode(20);
        let back = MapChunk::decode(&body, 8, 20).unwrap();
        assert_eq!(back, mc);
    }

    #[test]
    fn map_chunk_wrong_fanout_rejected() {
        let mc = MapChunk::empty(8);
        let body = mc.encode(20);
        assert!(MapChunk::decode(&body, 9, 20).is_err());
        assert!(MapChunk::decode(&body, 7, 20).is_err());
    }

    #[test]
    fn zero_length_hash_partitions() {
        // HashKind::Null partitions store zero-length digests.
        let desc = Descriptor::written(5, 6, 7, HashValue::zero(0));
        let mut e = Enc::new();
        desc.encode(&mut e, 0);
        let buf = e.finish();
        assert_eq!(buf.len(), Descriptor::encoded_len(0));
        let back = Descriptor::decode(&mut Dec::new(&buf), 0).unwrap();
        assert_eq!(back, desc);
    }

    #[test]
    fn same_state_semantics() {
        let h = HashValue::new(&[1u8; 20]);
        let a = Descriptor::written(10, 5, 5, h);
        let b = Descriptor::written(10, 5, 5, h);
        let moved = Descriptor::written(99, 5, 5, h);
        assert!(a.same_state(&b));
        assert!(!a.same_state(&moved));
        assert!(Descriptor::unallocated().same_state(&Descriptor::unallocated()));
        assert!(!a.same_state(&Descriptor::unallocated()));
    }
}
