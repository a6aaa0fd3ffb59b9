//! The Merkle–Damgård framing SHA-1 and SHA-256 share (FIPS 180-4 §5.1.1,
//! §6.1.2, §6.2.2): chaining state, 64-byte block buffer, message length,
//! and padding; each hash supplies its compression function.

use crate::HashValue;

/// An incremental hash over `N` chaining words, generic over its
/// compression function `compress(state, whole_blocks)`.
#[derive(Clone)]
pub(crate) struct Md<const N: usize> {
    state: [u32; N],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl<const N: usize> Md<N> {
    pub(crate) fn new(iv: [u32; N]) -> Self {
        Md {
            state: iv,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data`, compressing every whole block (the buffered one
    /// first) and keeping the remainder.
    pub(crate) fn absorb<C>(&mut self, mut data: &[u8], compress: C)
    where
        C: Fn(&mut [u32; N], &[u8]),
    {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let whole = data.len() & !63;
        if whole > 0 {
            compress(&mut self.state, &data[..whole]);
        }
        let rest = &data[whole..];
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// The digests of two messages, each the concatenation of its parts.
    /// Two messages that pad to as many blocks, four at most (the leaves
    /// and nodes of a map chunk's slot tree), are laid out with their
    /// padding on the stack and compressed in one `compress2` call, which
    /// interleaves their rounds; any other pair is hashed one by one.
    pub(crate) fn digest_pair<C, C2>(
        iv: [u32; N],
        messages: [&[&[u8]]; 2],
        compress: C,
        compress2: C2,
    ) -> [HashValue; 2]
    where
        C: Fn(&mut [u32; N], &[u8]),
        C2: Fn([&mut [u32; N]; 2], [&[u8]; 2]),
    {
        let mut blocks = [[0u8; 256]; 2];
        let [a, b] = &mut blocks;
        if let (Some(len), Some(other)) = (pad(messages[0], a), pad(messages[1], b)) {
            if len == other {
                let [mut sa, mut sb] = [iv; 2];
                compress2([&mut sa, &mut sb], [&a[..len], &b[..len]]);
                return [digest_of(sa), digest_of(sb)];
            }
        }
        messages.map(|parts| {
            let mut md = Md::new(iv);
            for part in parts {
                md.absorb(part, &compress);
            }
            md.finish(&compress)
        })
    }

    /// Pads (0x80, zeros up to 56 mod 64, the 64-bit big-endian bit
    /// length) and returns the state as big-endian bytes.
    pub(crate) fn finish<C>(mut self, compress: C) -> HashValue
    where
        C: Fn(&mut [u32; N], &[u8]),
    {
        let bit_len = self.len.wrapping_mul(8);
        let zeros = (64 + 55 - self.buf_len) % 64;
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        pad[1 + zeros..9 + zeros].copy_from_slice(&bit_len.to_be_bytes());
        self.absorb(&pad[..9 + zeros], compress);
        debug_assert_eq!(self.buf_len, 0);
        digest_of(self.state)
    }
}

/// Lays the concatenated `parts` and their padding into `blocks` and
/// returns the padded length, or `None` for a message longer than the
/// four blocks hold (247 bytes).
fn pad(parts: &[&[u8]], blocks: &mut [u8; 256]) -> Option<usize> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    if len > blocks.len() - 9 {
        return None;
    }
    let mut at = 0;
    for part in parts {
        blocks[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    blocks[len] = 0x80;
    let end = (len + 9).next_multiple_of(64);
    blocks[end - 8..end].copy_from_slice(&(len as u64 * 8).to_be_bytes());
    Some(end)
}

/// A final chaining state as its big-endian digest.
fn digest_of<const N: usize>(state: [u32; N]) -> HashValue {
    let mut out = [0u8; 32];
    for (bytes, w) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&w.to_be_bytes());
    }
    HashValue::new(&out[..4 * N])
}
