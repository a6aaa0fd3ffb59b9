//! Chunk versions: the representation of chunks in the log (§4.9.1).
//!
//! "Each chunk version comprises a header followed by a body. The header
//! contains the chunk id and the size of the chunk state. The header of an
//! unnamed chunk contains a reserved id. Both the header and the body are
//! encrypted with the secret key." With multiple partitions, "chunk headers
//! are encrypted with the system key and cipher, so that cleaning and
//! recovery may decrypt the header without knowing the partition id of the
//! chunk" (§5.4); bodies use the partition cipher.
//!
//! On-log layout of one version (format v2):
//!
//! ```text
//! [u16 iv_len] [E_s(header) under IV_h] [IV_p ‖ E_p(body)]
//! ```
//!
//! One IV is stored per version: the body's, `IV_p`, `iv_len` bytes long
//! (the body cipher's block). The header's is derived from it and never
//! stored: `IV_h = E_s(IV_p ‖ 0…)`, `IV_p` truncated or zero-filled to one
//! system block and enciphered under the system key (NIST SP 800-38A,
//! Appendix C), so it is unpredictable to anyone without that key. The
//! system suite fixes the header's ciphertext length, so a reader that
//! knows only the system key finds `IV_p` from the prefix, then the header,
//! then the body: recovery and the cleaner parse every version without a
//! partition key (§5.4). A body sealed under the null cipher has a
//! one-byte IV, so its header IV takes one of 256 values and headers of
//! such a partition, which promises no secrecy, may repeat.
//!
//! An `iv_len` of zero marks the end of the used part of a segment (fresh
//! segments are zero-filled).

use tdb_crypto::HashValue;

use crate::codec::{Dec, Enc};
use crate::descriptor::Descriptor;
use crate::errors::{CoreError, Result, TamperKind};
use crate::ids::{ChunkId, PartitionId, Position};
use crate::metrics::{self, modules};
use crate::params::PartitionCrypto;
use crate::slot_tree::chunk_digest;

/// Plaintext length of a version header.
pub(crate) const HEADER_LEN: usize = 22;

/// The largest cipher block, and so the longest IV a body carries.
pub(crate) const MAX_BLOCK: usize = 16;

/// The longest header ciphertext: [`HEADER_LEN`] with PKCS#7 padding to
/// whole [`MAX_BLOCK`]s.
const MAX_HEADER_CT: usize = (HEADER_LEN / MAX_BLOCK + 1) * MAX_BLOCK;

/// The kind byte's reserved bit. An earlier build set it on a body it
/// stored compressed; this build writes it clear and reads no version that
/// has it set ([`VersionHeader::check_format`]).
const RESERVED_KIND_BIT: u8 = 0x80;

/// Reserved height stored in headers of unnamed chunks (§4.8.1: "they do
/// not have chunk ids or positions in the chunk map").
pub const UNNAMED_HEIGHT: u8 = 0xFE;

/// What a version in the log is (the `kind` header byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionKind {
    /// A named chunk: data, map chunk, or leader, per its id.
    Named,
    /// Unnamed *deallocate chunk* recording deallocations for recovery
    /// (§4.8.1).
    Dealloc,
    /// Unnamed *commit chunk*: signed hash and count of the commit set
    /// (§4.8.2.2).
    Commit,
    /// Unnamed *next-segment chunk* chaining residual-log segments (§4.9.4).
    NextSegment,
    /// Unnamed *cleaner chunk* recording where a relocated version is
    /// current (§5.5).
    Cleaner,
    /// A named chunk rewritten by the cleaner. Not applied to its header
    /// partition during recovery; the accompanying [`CleanerRecord`] says
    /// which partitions it is current in.
    Relocated,
}

impl VersionKind {
    fn tag(self) -> u8 {
        match self {
            VersionKind::Named => 0,
            VersionKind::Dealloc => 1,
            VersionKind::Commit => 2,
            VersionKind::NextSegment => 3,
            VersionKind::Cleaner => 4,
            VersionKind::Relocated => 5,
        }
    }

    fn from_tag(tag: u8) -> Option<VersionKind> {
        Some(match tag {
            0 => VersionKind::Named,
            1 => VersionKind::Dealloc,
            2 => VersionKind::Commit,
            3 => VersionKind::NextSegment,
            4 => VersionKind::Cleaner,
            5 => VersionKind::Relocated,
            _ => return None,
        })
    }

    /// True for unnamed chunks (no position in the chunk map).
    pub fn is_unnamed(self) -> bool {
        !matches!(self, VersionKind::Named | VersionKind::Relocated)
    }
}

/// The decrypted header of a chunk version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionHeader {
    /// Version kind.
    pub kind: VersionKind,
    /// Chunk id (reserved values for unnamed kinds).
    pub id: ChunkId,
    /// Plaintext body length.
    pub body_len: u32,
    /// Sealed body length (IV + ciphertext), so any reader can skip the
    /// body without knowing the partition's cipher.
    pub body_ct_len: u32,
    /// The kind byte's reserved bit (`0x80`) was set; this build writes it
    /// clear ([`VersionHeader::check_format`]).
    pub reserved_bit: bool,
}

impl VersionHeader {
    /// The reserved id carried by unnamed chunks.
    pub fn unnamed_id() -> ChunkId {
        ChunkId::new(
            PartitionId::SYSTEM,
            Position {
                height: UNNAMED_HEIGHT,
                rank: 0,
            },
        )
    }

    pub(crate) fn encode(&self) -> [u8; HEADER_LEN] {
        // Fixed 22-byte layout; a stack array keeps the (hot) seal path
        // free of a per-version heap allocation.
        let mut out = [0u8; HEADER_LEN];
        out[0] = self.kind.tag();
        out[1..5].copy_from_slice(&self.id.partition.0.to_le_bytes());
        out[5] = self.id.pos.height;
        out[6..14].copy_from_slice(&self.id.pos.rank.to_le_bytes());
        out[14..18].copy_from_slice(&self.body_len.to_le_bytes());
        out[18..22].copy_from_slice(&self.body_ct_len.to_le_bytes());
        out
    }

    fn decode(buf: &[u8]) -> Result<VersionHeader> {
        let mut d = Dec::new(buf);
        let tag = d.u8()?;
        let reserved_bit = tag & RESERVED_KIND_BIT != 0;
        let kind = VersionKind::from_tag(tag & !RESERVED_KIND_BIT)
            .ok_or_else(|| CoreError::Corrupt("unknown version kind".into()))?;
        let partition = PartitionId(d.u32()?);
        let height = d.u8()?;
        let rank = d.u64()?;
        let body_len = d.u32()?;
        let body_ct_len = d.u32()?;
        d.expect_done("version header")?;
        Ok(VersionHeader {
            kind,
            id: ChunkId::new(partition, Position { height, rank }),
            body_len,
            body_ct_len,
            reserved_bit,
        })
    }

    /// Fails with [`CoreError::UnsupportedFormat`] (format v2) when the
    /// reserved bit is set: the version was sealed by an earlier build with
    /// its body stored compressed, a form this build does not read.
    ///
    /// Callers check this only once the version is otherwise vouched for
    /// (it named the expected chunk and its body matched the descriptor's
    /// hash, or a valid commit set covers it), so a header garbled by
    /// tampering is still reported as tamper.
    pub fn check_format(&self) -> Result<()> {
        if self.reserved_bit {
            return Err(CoreError::UnsupportedFormat { version: 2 });
        }
        Ok(())
    }
}

/// Builds the full on-log bytes of one version: a batch of one for
/// `pipeline::seal_versions`, where every version is made.
///
/// `system` encrypts the header; `body_crypto` encrypts the body (the
/// partition's cipher for named versions, the system cipher for unnamed).
pub fn seal_version(
    system: &PartitionCrypto,
    body_crypto: &PartitionCrypto,
    kind: VersionKind,
    id: ChunkId,
    body: &[u8],
) -> Vec<u8> {
    crate::pipeline::seal_versions(system, kind, &[(id, body_crypto, body)])
        .pop()
        .expect("one job, one version")
}

/// Total on-log length a sealed version will occupy.
pub fn sealed_version_len(
    system: &PartitionCrypto,
    body_crypto: &PartitionCrypto,
    body_len: usize,
) -> usize {
    2 + system.ciphertext_len(HEADER_LEN) + body_crypto.sealed_len(body_len)
}

/// A parsed version: header plus the raw (still sealed) body bytes.
#[derive(Debug)]
pub struct RawVersion {
    /// Decrypted header.
    pub header: VersionHeader,
    /// Sealed body (IV + ciphertext).
    pub sealed_body: Vec<u8>,
    /// Total on-log length of this version.
    pub total_len: usize,
}

impl RawVersion {
    /// Decrypts the body with the appropriate partition crypto.
    ///
    /// # Errors
    ///
    /// Signals tamper detection when the body does not decrypt or its
    /// length disagrees with the header.
    pub fn open_body(&self, body_crypto: &PartitionCrypto, location: u64) -> Result<Vec<u8>> {
        let body = body_crypto.decrypt(&self.sealed_body, location)?;
        if body.len() != self.header.body_len as usize {
            return Err(CoreError::TamperDetected(TamperKind::UndecryptableChunk {
                location,
            }));
        }
        Ok(body)
    }
}

/// Parses the version starting at the beginning of `buf`.
///
/// Returns `Ok(None)` when `buf` starts with a zero length marker (end of
/// the used portion of a segment).
///
/// # Errors
///
/// Signals tamper detection when the header fails to decrypt or decode or
/// names a body longer than `buf`, and `Corrupt` when `buf` is too short to
/// hold a header.
pub fn parse_version(
    system: &PartitionCrypto,
    buf: &[u8],
    location: u64,
) -> Result<Option<RawVersion>> {
    let Some(prefix) = buf.first_chunk::<2>() else {
        return Ok(None);
    };
    let iv_len = u16::from_le_bytes(*prefix) as usize;
    if iv_len == 0 {
        return Ok(None);
    }
    let undecryptable = || CoreError::TamperDetected(TamperKind::UndecryptableChunk { location });
    if iv_len > MAX_BLOCK {
        return Err(undecryptable());
    }
    let body_start = 2 + system.ciphertext_len(HEADER_LEN);
    if body_start + iv_len > buf.len() {
        return Err(CoreError::Corrupt(format!(
            "version at {location} overruns segment"
        )));
    }
    let mut iv_h = [0u8; MAX_BLOCK];
    let iv_h = &mut iv_h[..system.block_size()];
    system.derive_iv(&buf[body_start..body_start + iv_len], iv_h);
    let mut header = [0u8; MAX_HEADER_CT];
    let header = &mut header[..body_start - 2];
    header.copy_from_slice(&buf[2..body_start]);
    let header_len = system.decrypt_in_place(iv_h, header, location)?;
    // A header that decrypts but does not decode was sealed under another
    // IV or key, or altered: both are tampering.
    let header = VersionHeader::decode(&header[..header_len]).map_err(|_| undecryptable())?;
    if (header.body_ct_len as usize) < iv_len {
        return Err(undecryptable());
    }
    // No writer lets a version run past its segment, or past the length
    // its descriptor gives it: a header that says so was altered.
    let body_end = body_start + header.body_ct_len as usize;
    if body_end > buf.len() {
        return Err(undecryptable());
    }
    Ok(Some(RawVersion {
        header,
        sealed_body: buf[body_start..body_end].to_vec(),
        total_len: body_end,
    }))
}

/// Validates `buf`, the bytes `desc` locates, as the current version of
/// `id` (§4.5): parses the header, checks that it names `id`'s position,
/// opens the body under `crypto` and compares its digest
/// ([`chunk_digest`]: a map chunk's slot-tree root) with `desc.hash`.
/// Returns the body.
///
/// The engine-locked read's verdict is the error; the lock-free read
/// falls back on any error, since a benign race with the cleaner or a
/// commit can cause one.
pub fn validate_version(
    system: &PartitionCrypto,
    crypto: &PartitionCrypto,
    id: ChunkId,
    desc: &Descriptor,
    buf: &[u8],
) -> Result<Vec<u8>> {
    validate_version_with(system, crypto, id, desc, buf, |body| {
        chunk_digest(crypto.hash_kind(), id.pos, body)
    })
}

/// [`validate_version`] with the body's digest computed by `digest`: a
/// map-chunk load keeps the slot tree it builds to compare the root.
pub(crate) fn validate_version_with(
    system: &PartitionCrypto,
    crypto: &PartitionCrypto,
    id: ChunkId,
    desc: &Descriptor,
    buf: &[u8],
    digest: impl FnOnce(&[u8]) -> HashValue,
) -> Result<Vec<u8>> {
    let location = desc.location;
    let raw = {
        let _t = metrics::span(modules::ENCRYPTION);
        parse_version(system, buf, location)?
    }
    .ok_or(CoreError::TamperDetected(TamperKind::UndecryptableChunk {
        location,
    }))?;
    if raw.header.kind.is_unnamed() || raw.header.id.pos != id.pos {
        return Err(CoreError::TamperDetected(TamperKind::MisdirectedChunk {
            expected: id,
            location,
        }));
    }
    let body = {
        let _t = metrics::span(modules::ENCRYPTION);
        raw.open_body(crypto, location)?
    };
    let hash = {
        let _t = metrics::span(modules::HASHING);
        digest(&body)
    };
    if hash != desc.hash {
        return Err(CoreError::TamperDetected(TamperKind::ChunkHashMismatch(id)));
    }
    raw.header.check_format()?;
    Ok(body)
}

// ---------------------------------------------------------------------------
// Unnamed chunk bodies.
// ---------------------------------------------------------------------------

/// Body of a deallocate chunk: the ids deallocated by one commit (§4.8.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeallocRecord {
    /// Deallocated chunk ids (whole-partition deallocations are recorded as
    /// the partition's leader chunk id).
    pub ids: Vec<ChunkId>,
}

impl DeallocRecord {
    /// Serializes the record.
    pub fn encode(&self) -> Vec<u8> {
        DeallocRecord::encode_ids(&self.ids)
    }

    /// Encodes a dealloc record straight from a borrowed id list — the
    /// same bytes as `DeallocRecord { ids: ids.to_vec() }.encode()` without
    /// materializing the owned record.
    pub fn encode_ids(ids: &[ChunkId]) -> Vec<u8> {
        let mut e = Enc::with_capacity(4 + ids.len() * 13);
        e.list(ids, |e, id| {
            e.u32(id.partition.0).u8(id.pos.height).u64(id.pos.rank);
        });
        e.finish()
    }

    /// Inverse of [`DeallocRecord::encode`].
    ///
    /// # Errors
    ///
    /// Fails on structural corruption.
    pub fn decode(body: &[u8]) -> Result<DeallocRecord> {
        let mut d = Dec::new(body);
        let ids = d.list(13, |d| {
            let partition = PartitionId(d.u32()?);
            let height = d.u8()?;
            let rank = d.u64()?;
            Ok(ChunkId::new(partition, Position { height, rank }))
        })?;
        d.expect_done("dealloc record")?;
        Ok(DeallocRecord { ids })
    }
}

/// Body of a commit chunk (§4.8.2.2): count, commit-set hash, signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitRecord {
    /// The commit count, incremented after every commit.
    pub count: u64,
    /// System hash of the commit set's log bytes.
    pub set_hash: Vec<u8>,
    /// HMAC over (count ‖ set_hash) under the system key.
    pub mac: Vec<u8>,
}

impl CommitRecord {
    /// Builds and signs a commit record.
    pub fn signed(system: &PartitionCrypto, count: u64, set_hash: &[u8]) -> CommitRecord {
        let mac = system.sign(&[&count.to_le_bytes(), set_hash]);
        CommitRecord {
            count,
            set_hash: set_hash.to_vec(),
            mac: mac.as_bytes().to_vec(),
        }
    }

    /// Verifies the signature (§4.8.2.2: "an attack cannot insert an
    /// arbitrary commit set into the residual log because it will be unable
    /// to create an appropriately signed commit chunk").
    pub fn verify(&self, system: &PartitionCrypto) -> bool {
        let expected = system.sign(&[&self.count.to_le_bytes(), &self.set_hash]);
        tdb_crypto::ct_eq(expected.as_bytes(), &self.mac)
    }

    /// Serializes the record.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.count);
        e.bytes(&self.set_hash);
        e.bytes(&self.mac);
        e.finish()
    }

    /// Builds, signs, and serializes in one pass — the same bytes as
    /// `CommitRecord::signed(system, count, set_hash).encode()` without the
    /// intermediate owned record (the commit hot path calls this once per
    /// commit).
    pub fn encode_signed(system: &PartitionCrypto, count: u64, set_hash: &[u8]) -> Vec<u8> {
        let mac = system.sign(&[&count.to_le_bytes(), set_hash]);
        let mut e = Enc::with_capacity(8 + 4 + set_hash.len() + 4 + mac.len());
        e.u64(count);
        e.bytes(set_hash);
        e.bytes(mac.as_bytes());
        e.finish()
    }

    /// Inverse of [`CommitRecord::encode`].
    ///
    /// # Errors
    ///
    /// Fails on structural corruption.
    pub fn decode(body: &[u8]) -> Result<CommitRecord> {
        let mut d = Dec::new(body);
        let count = d.u64()?;
        let set_hash = d.bytes()?.to_vec();
        let mac = d.bytes()?.to_vec();
        d.expect_done("commit record")?;
        Ok(CommitRecord {
            count,
            set_hash,
            mac,
        })
    }
}

/// Body of a next-segment chunk (§4.9.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextSegmentRecord {
    /// Index of the segment the residual log continues in.
    pub next_segment: u32,
}

impl NextSegmentRecord {
    /// Serializes the record.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(self.next_segment);
        e.finish()
    }

    /// Inverse of [`NextSegmentRecord::encode`].
    ///
    /// # Errors
    ///
    /// Fails on structural corruption.
    pub fn decode(body: &[u8]) -> Result<NextSegmentRecord> {
        let mut d = Dec::new(body);
        let next_segment = d.u32()?;
        d.expect_done("next-segment record")?;
        Ok(NextSegmentRecord { next_segment })
    }
}

/// Body of a cleaner chunk (§5.5): where a relocated version is current.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CleanerRecord {
    /// Position of the relocated chunk.
    pub pos: Position,
    /// Log offset of the relocated version this record describes.
    pub new_location: u64,
    /// Partitions in which that version is current.
    pub current_in: Vec<PartitionId>,
}

impl CleanerRecord {
    /// Encoded length of a record naming `partitions` partitions.
    pub fn encoded_len(partitions: usize) -> usize {
        19 + 4 * partitions
    }

    /// Serializes the record.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(self.pos.height);
        e.u64(self.pos.rank);
        e.u64(self.new_location);
        e.u16(self.current_in.len() as u16);
        for p in &self.current_in {
            e.u32(p.0);
        }
        e.finish()
    }

    /// Inverse of [`CleanerRecord::encode`].
    ///
    /// # Errors
    ///
    /// Fails on structural corruption.
    pub fn decode(body: &[u8]) -> Result<CleanerRecord> {
        let mut d = Dec::new(body);
        let height = d.u8()?;
        let rank = d.u64()?;
        let new_location = d.u64()?;
        let n = d.u16()? as usize;
        let mut current_in = Vec::with_capacity(n);
        for _ in 0..n {
            current_in.push(PartitionId(d.u32()?));
        }
        d.expect_done("cleaner record")?;
        Ok(CleanerRecord {
            pos: Position { height, rank },
            new_location,
            current_in,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CryptoParams;
    use tdb_crypto::{CipherKind, HashKind, SecretKey};

    fn system() -> PartitionCrypto {
        CryptoParams::paper_system(SecretKey::random(24))
            .runtime()
            .unwrap()
    }

    fn des_partition() -> PartitionCrypto {
        CryptoParams::generate(CipherKind::Des, HashKind::Sha1)
            .runtime()
            .unwrap()
    }

    #[test]
    fn seal_parse_roundtrip_named() {
        let sys = system();
        let part = des_partition();
        let id = ChunkId::data(PartitionId(3), 17);
        let body = b"the state of chunk P3:0.17".to_vec();
        let sealed = seal_version(&sys, &part, VersionKind::Named, id, &body);
        assert_eq!(sealed.len(), sealed_version_len(&sys, &part, body.len()));

        let raw = parse_version(&sys, &sealed, 0).unwrap().unwrap();
        assert_eq!(raw.header.kind, VersionKind::Named);
        assert_eq!(raw.header.id, id);
        assert_eq!(raw.header.body_len as usize, body.len());
        assert_eq!(raw.total_len, sealed.len());
        assert_eq!(raw.open_body(&part, 0).unwrap(), body);
    }

    #[test]
    fn zero_marker_is_end() {
        let sys = system();
        assert!(parse_version(&sys, &[0, 0, 1, 2, 3], 0).unwrap().is_none());
        assert!(parse_version(&sys, &[0], 0).unwrap().is_none());
        assert!(parse_version(&sys, &[7], 0).unwrap().is_none());
        assert!(parse_version(&sys, &[], 0).unwrap().is_none());
    }

    #[test]
    fn tampered_header_detected() {
        let sys = system();
        let part = des_partition();
        let id = ChunkId::data(PartitionId(1), 0);
        let mut sealed = seal_version(&sys, &part, VersionKind::Named, id, b"body");
        sealed[5] ^= 0xFF; // Inside the sealed header.
        let res = parse_version(&sys, &sealed, 7);
        match res {
            Err(e) => assert!(e.is_tamper()),
            // CBC corruption may still decrypt to garbage with valid
            // padding; then header decode fails structurally.
            Ok(Some(raw)) => assert_ne!(raw.header.id, id),
            Ok(None) => panic!("tampered version vanished"),
        }
    }

    #[test]
    fn tampered_body_detected_on_open() {
        let sys = system();
        let part = des_partition();
        let id = ChunkId::data(PartitionId(1), 0);
        let mut sealed = seal_version(&sys, &part, VersionKind::Named, id, b"sensitive state");
        let n = sealed.len();
        sealed[n - 1] ^= 0x01;
        let raw = parse_version(&sys, &sealed, 0).unwrap().unwrap();
        match raw.open_body(&part, 0) {
            Err(e) => assert!(e.is_tamper()),
            Ok(body) => assert_ne!(body, b"sensitive state"),
        }
    }

    #[test]
    fn wrong_partition_cipher_cannot_open_body() {
        let sys = system();
        let a = des_partition();
        let b = CryptoParams::generate(CipherKind::Aes128, HashKind::Sha1)
            .runtime()
            .unwrap();
        let sealed = seal_version(
            &sys,
            &a,
            VersionKind::Named,
            ChunkId::data(PartitionId(1), 0),
            b"partition-a secret",
        );
        let raw = parse_version(&sys, &sealed, 0).unwrap().unwrap();
        match raw.open_body(&b, 0) {
            Err(e) => assert!(e.is_tamper()),
            Ok(body) => assert_ne!(body, b"partition-a secret"),
        }
    }

    #[test]
    fn dealloc_record_roundtrip() {
        let rec = DeallocRecord {
            ids: vec![
                ChunkId::data(PartitionId(1), 5),
                ChunkId::new(PartitionId(2), Position::map(1, 0)),
            ],
        };
        assert_eq!(DeallocRecord::decode(&rec.encode()).unwrap(), rec);
        assert_eq!(DeallocRecord::encode_ids(&rec.ids), rec.encode());
        assert_eq!(
            DeallocRecord::encode_ids(&[]),
            (DeallocRecord { ids: vec![] }).encode()
        );
    }

    #[test]
    fn encode_signed_matches_two_step() {
        let sys = system();
        let set_hash = [0xABu8; 20];
        let direct = CommitRecord::encode_signed(&sys, 91, &set_hash);
        let two_step = CommitRecord::signed(&sys, 91, &set_hash).encode();
        assert_eq!(direct, two_step);
        assert!(CommitRecord::decode(&direct).unwrap().verify(&sys));
    }

    #[test]
    fn commit_record_sign_verify_roundtrip() {
        let sys = system();
        let rec = CommitRecord::signed(&sys, 42, b"commit set hash bytes");
        assert!(rec.verify(&sys));
        let back = CommitRecord::decode(&rec.encode()).unwrap();
        assert_eq!(back, rec);
        assert!(back.verify(&sys));

        // A different system key rejects the signature.
        let other = system();
        assert!(!back.verify(&other));

        // A tweaked count rejects.
        let mut forged = back.clone();
        forged.count += 1;
        assert!(!forged.verify(&sys));
    }

    #[test]
    fn next_segment_and_cleaner_roundtrip() {
        let ns = NextSegmentRecord { next_segment: 7 };
        assert_eq!(NextSegmentRecord::decode(&ns.encode()).unwrap(), ns);

        let cr = CleanerRecord {
            pos: Position::data(99),
            new_location: 1 << 33,
            current_in: vec![PartitionId(3), PartitionId(8)],
        };
        assert_eq!(CleanerRecord::decode(&cr.encode()).unwrap(), cr);
    }

    #[test]
    fn unnamed_versions_use_reserved_id() {
        let sys = system();
        let rec = NextSegmentRecord { next_segment: 1 };
        let sealed = seal_version(
            &sys,
            &sys,
            VersionKind::NextSegment,
            VersionHeader::unnamed_id(),
            &rec.encode(),
        );
        let raw = parse_version(&sys, &sealed, 0).unwrap().unwrap();
        assert!(raw.header.kind.is_unnamed());
        assert_eq!(raw.header.id.pos.height, UNNAMED_HEIGHT);
    }
}
