//! Transparent chunk-body compression (ISSUE 9).
//!
//! The log-structured layout pays for every body byte three times — sealed
//! into the log, re-hashed at checkpoint, re-copied by the cleaner — so
//! shrinking bodies before sealing attacks log bytes, clean pressure, and
//! crypto cost at once. This module is a from-scratch LZ77 block codec in
//! the lz4 family (greedy hash-table match finder, token = literal-run +
//! back-reference), written like `crates/crypto`: no external crates, the
//! format fully specified here.
//!
//! # Block format
//!
//! A compressed *body envelope* is
//!
//! ```text
//! [u32 raw_len LE] [token stream]
//! ```
//!
//! and the token stream is a sequence of:
//!
//! ```text
//! token byte: high nibble = literal run length  (15 ⇒ extension bytes)
//!             low  nibble = match length − 4    (15 ⇒ extension bytes)
//! [extension bytes for literals: 255s, then a final byte < 255]
//! [literal bytes]
//! [u16 match offset LE, 1 ..= 65535]            (absent in the last token)
//! [extension bytes for the match length]
//! ```
//!
//! The stream ends after the literals of the last token, whose match
//! nibble must be zero. Offsets reach backwards into the output produced
//! so far; overlapping copies are the run-length idiom (offset 1 repeats
//! the previous byte).
//!
//! # Safety invariants
//!
//! The decoder never trusts the input: every literal copy and match copy
//! is bounds-checked against the *caller-supplied* expected length, so a
//! tampered stream can neither over-allocate (allocation is exactly
//! `expected_len`, which callers cap by the descriptor's logical size or
//! the log's maximum version length) nor write out of bounds, and any
//! malformation — truncation, bad offset, wrong final length, a declared
//! length disagreeing with the descriptor — is an `Err`, never a panic.
//!
//! In the chunk store, envelopes are hashed and sealed *as stored*: the
//! descriptor hash covers the compressed bytes, so integrity verification
//! always runs before the decompressor sees a single byte
//! (verify-then-decompress; see `docs/ARCHITECTURE.md`).

/// Bodies smaller than this are never worth a compression attempt: the
/// 4-byte envelope header plus cipher-block padding eats the savings.
pub const MIN_COMPRESS_BODY: usize = 64;

/// Smallest match the encoder emits (the classic lz4 minimum).
const MIN_MATCH: usize = 4;

/// Farthest back a match offset can reach (u16 on the wire).
const MAX_OFFSET: usize = 65535;

/// Match-finder hash table size (log2). 4096 u32 slots = 16 KiB of
/// scratch per compressed body.
const HASH_BITS: u32 = 12;

/// Why a compressed stream failed to decode. All variants are reachable
/// only through tampering or truncation — the encoder never produces them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressError {
    /// The stream ended mid-token, mid-literal-run, or mid-offset.
    Truncated,
    /// A match offset of zero or reaching before the output start.
    BadOffset,
    /// The output overran the expected decompressed length.
    TooLong,
    /// The stream ended with the wrong total output length.
    WrongLength,
    /// The envelope is too short to hold its own length header, or its
    /// declared length exceeds the caller's cap.
    BadEnvelope,
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::Truncated => write!(f, "compressed stream truncated"),
            CompressError::BadOffset => write!(f, "compressed stream match offset out of range"),
            CompressError::TooLong => write!(f, "compressed stream longer than declared"),
            CompressError::WrongLength => write!(f, "compressed stream declared length mismatch"),
            CompressError::BadEnvelope => write!(f, "compressed body envelope malformed"),
        }
    }
}

fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Appends a literal-run / match token to `out`.
fn emit(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    let lit_len = literals.len();
    let match_code = m.map_or(0, |(_, len)| len - MIN_MATCH);
    let token = ((lit_len.min(15) as u8) << 4)
        | (if m.is_some() {
            match_code.min(15) as u8
        } else {
            0
        });
    out.push(token);
    if lit_len >= 15 {
        let mut rest = lit_len - 15;
        while rest >= 255 {
            out.push(255);
            rest -= 255;
        }
        out.push(rest as u8);
    }
    out.extend_from_slice(literals);
    if let Some((offset, _)) = m {
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if match_code >= 15 {
            let mut rest = match_code - 15;
            while rest >= 255 {
                out.push(255);
                rest -= 255;
            }
            out.push(rest as u8);
        }
    }
}

/// Compresses `src` into a raw token stream (no envelope). Deterministic:
/// the same input always yields the same bytes.
pub fn compress_block(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() / 2 + 16);
    if src.len() < MIN_MATCH + 1 {
        emit(&mut out, src, None);
        return out;
    }
    let mut table = [u32::MAX; 1 << HASH_BITS];
    let mut anchor = 0usize;
    let mut i = 0usize;
    // Greedy single-probe search with lz4-style acceleration: every 32
    // consecutive misses widen the stride, so incompressible input is
    // skimmed rather than probed byte by byte.
    let mut misses = 0usize;
    let limit = src.len() - MIN_MATCH;
    while i <= limit {
        let h = hash4(&src[i..]);
        let candidate = table[h] as usize;
        table[h] = i as u32;
        let ok = candidate != u32::MAX as usize
            && i - candidate <= MAX_OFFSET
            && src[candidate..candidate + MIN_MATCH] == src[i..i + MIN_MATCH];
        if !ok {
            misses += 1;
            i += 1 + (misses >> 5);
            continue;
        }
        misses = 0;
        let mut len = MIN_MATCH;
        while i + len < src.len() && src[candidate + len] == src[i + len] {
            len += 1;
        }
        emit(&mut out, &src[anchor..i], Some((i - candidate, len)));
        // Seed the table inside the span just covered so runs chain.
        let next = i + len;
        if next <= limit {
            table[hash4(&src[next - 1..])] = (next - 1) as u32;
        }
        i = next;
        anchor = next;
    }
    emit(&mut out, &src[anchor..], None);
    out
}

/// Decompresses a raw token stream into exactly `expected_len` bytes.
///
/// # Errors
///
/// Any malformation yields a [`CompressError`]; the output allocation
/// never exceeds `expected_len`.
pub fn decompress_block(src: &[u8], expected_len: usize) -> Result<Vec<u8>, CompressError> {
    let mut out: Vec<u8> = Vec::with_capacity(expected_len);
    let mut i = 0usize;
    loop {
        let token = *src.get(i).ok_or(CompressError::Truncated)?;
        i += 1;
        let mut lit_len = usize::from(token >> 4);
        if lit_len == 15 {
            loop {
                let b = *src.get(i).ok_or(CompressError::Truncated)?;
                i += 1;
                lit_len += usize::from(b);
                if b < 255 {
                    break;
                }
            }
        }
        let lit_end = i.checked_add(lit_len).ok_or(CompressError::Truncated)?;
        if lit_end > src.len() {
            return Err(CompressError::Truncated);
        }
        if out.len() + lit_len > expected_len {
            return Err(CompressError::TooLong);
        }
        out.extend_from_slice(&src[i..lit_end]);
        i = lit_end;
        if i == src.len() {
            // Last token: literals only; a nonzero match nibble means the
            // stream was cut mid-sequence.
            if token & 0x0F != 0 {
                return Err(CompressError::Truncated);
            }
            if out.len() != expected_len {
                return Err(CompressError::WrongLength);
            }
            return Ok(out);
        }
        if i + 2 > src.len() {
            return Err(CompressError::Truncated);
        }
        let offset = usize::from(u16::from_le_bytes([src[i], src[i + 1]]));
        i += 2;
        if offset == 0 || offset > out.len() {
            return Err(CompressError::BadOffset);
        }
        let mut match_len = MIN_MATCH + usize::from(token & 0x0F);
        if token & 0x0F == 15 {
            loop {
                let b = *src.get(i).ok_or(CompressError::Truncated)?;
                i += 1;
                match_len += usize::from(b);
                if b < 255 {
                    break;
                }
            }
        }
        if out.len() + match_len > expected_len {
            return Err(CompressError::TooLong);
        }
        // Byte-by-byte so overlapping copies (offset < match_len) replicate
        // the run, exactly as the encoder meant.
        let start = out.len() - offset;
        for k in 0..match_len {
            let b = out[start + k];
            out.push(b);
        }
    }
}

/// Compresses `body` into a `[u32 raw_len][stream]` envelope, or `None`
/// when the body is too small or the savings are below the store-raw
/// threshold — in that case the caller stores the body verbatim, with no
/// flag and no overhead, byte-identical to a store with the knob off.
///
/// The threshold demands at least `len/16 + 8` bytes saved: anything less
/// vanishes into cipher-block padding and is not worth a decompression on
/// every future read.
pub fn compress_body(body: &[u8]) -> Option<Vec<u8>> {
    if body.len() < MIN_COMPRESS_BODY || body.len() > u32::MAX as usize {
        return None;
    }
    let stream = compress_block(body);
    let envelope_len = 4 + stream.len();
    if envelope_len + body.len() / 16 + 8 > body.len() {
        return None;
    }
    let mut envelope = Vec::with_capacity(envelope_len);
    envelope.extend_from_slice(&(body.len() as u32).to_le_bytes());
    envelope.extend_from_slice(&stream);
    Some(envelope)
}

/// The decompressed length an envelope declares, without decompressing.
/// Recovery uses this to reconstruct a descriptor's logical size from the
/// stored bytes alone. `None` if the envelope cannot hold its own header.
pub fn declared_len(envelope: &[u8]) -> Option<usize> {
    let head = envelope.first_chunk::<4>()?;
    Some(u32::from_le_bytes(*head) as usize)
}

/// Decompresses an envelope into exactly `expected_len` bytes (the
/// descriptor's logical size). The declared length must agree with
/// `expected_len`, so a tampered header can never drive the allocation.
///
/// # Errors
///
/// [`CompressError`] on any malformation.
pub fn decompress_body(envelope: &[u8], expected_len: usize) -> Result<Vec<u8>, CompressError> {
    let declared = declared_len(envelope).ok_or(CompressError::BadEnvelope)?;
    if declared != expected_len {
        return Err(CompressError::BadEnvelope);
    }
    decompress_block(&envelope[4..], expected_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(src: &[u8]) {
        let stream = compress_block(src);
        let back = decompress_block(&stream, src.len()).expect("decompress");
        assert_eq!(back, src);
    }

    #[test]
    fn round_trips_basic_shapes() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abcd");
        round_trip(&[0u8; 10_000]);
        round_trip(b"the quick brown fox jumps over the lazy dog, the quick brown fox");
        let mut long_run = vec![7u8; 5000];
        long_run.extend_from_slice(b"tail");
        round_trip(&long_run);
    }

    #[test]
    fn round_trips_pseudo_random() {
        // Incompressible input must still round-trip (as literals).
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut buf = Vec::new();
        for _ in 0..4096 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            buf.push(state as u8);
        }
        round_trip(&buf);
    }

    #[test]
    fn compresses_repetitive_bodies_well() {
        let body: Vec<u8> = b"field=value;".iter().copied().cycle().take(4096).collect();
        let env = compress_body(&body).expect("worth compressing");
        assert!(env.len() < body.len() / 4, "envelope {} bytes", env.len());
        assert_eq!(decompress_body(&env, body.len()).unwrap(), body);
    }

    #[test]
    fn stores_raw_when_not_worth_it() {
        // Random bytes: no matches, envelope would be bigger.
        let mut state = 1u64;
        let body: Vec<u8> = (0..1024)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        assert!(compress_body(&body).is_none());
        // Too small to bother, however compressible.
        assert!(compress_body(&[0u8; MIN_COMPRESS_BODY - 1]).is_none());
    }

    #[test]
    fn tampered_declared_length_is_rejected_without_allocation() {
        let body = vec![9u8; 1024];
        let mut env = compress_body(&body).expect("compressible");
        // Declare an absurd length: the caller's expected_len disagrees.
        env[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decompress_body(&env, body.len()),
            Err(CompressError::BadEnvelope)
        );
        // And even decoding the raw stream against a huge cap cannot
        // overshoot: output is checked against the expectation, which the
        // stream no longer matches.
        assert_eq!(
            decompress_block(&env[4..], 2048),
            Err(CompressError::WrongLength)
        );
    }

    #[test]
    fn truncated_and_garbage_streams_error_not_panic() {
        let body: Vec<u8> = b"abcabcabcabc".iter().copied().cycle().take(600).collect();
        let env = compress_body(&body).expect("compressible");
        for cut in 0..env.len() {
            assert_eq!(declared_len(&env[..cut]).is_some(), cut >= 4, "cut {cut}");
            let _ = decompress_body(&env[..cut], body.len());
        }
        // Every single-byte flip either still decodes to the wrong bytes
        // or errors; none may panic or over-produce.
        for i in 0..env.len() {
            let mut bad = env.clone();
            bad[i] ^= 0xFF;
            if let Ok(out) = decompress_body(&bad, body.len()) {
                assert_eq!(out.len(), body.len());
            }
        }
        // Pure garbage.
        let garbage: Vec<u8> = (0..=255u8).cycle().take(700).collect();
        let _ = decompress_block(&garbage, 512);
    }

    #[test]
    fn zero_offset_rejected() {
        // token: 0 literals, match nibble 0 (len 4), offset 0.
        let stream = [0x00u8, 0, 0, 0x00];
        assert_eq!(decompress_block(&stream, 4), Err(CompressError::BadOffset));
    }
}
