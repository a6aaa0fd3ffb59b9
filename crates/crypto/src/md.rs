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
        let mut out = [0u8; 32];
        for (bytes, w) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&w.to_be_bytes());
        }
        HashValue::new(&out[..4 * N])
    }
}
