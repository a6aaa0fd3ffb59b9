//! Little-endian wire-format helpers.
//!
//! All persistent metadata (chunk headers, descriptors, leaders, commit
//! chunks, backup streams, the collection store's objects) and every wire
//! message is hand-pickled through these helpers so the stored
//! representation is compact, portable, and independent of any
//! serialization framework — matching the paper's insistence on compact
//! pickled representations (§2.2). [`Dec`] is the one bounds-checked
//! decoder: a short, overlong or over-counted input is a `Corrupt` error,
//! never a panic or an allocation the input cannot back.

use crate::errors::{CoreError, Result};

/// An append-only byte encoder.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Creates an encoder with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(n),
        }
    }

    /// Creates an encoder that reuses `buf`'s allocation, clearing any
    /// existing contents.
    pub fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Enc { buf }
    }

    /// Finishes, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Raw bytes with no length prefix.
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Length-prefixed (u32) byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.raw(v)
    }

    /// Length-prefixed (u32) UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Count-prefixed (u32) list, each item written by `item`; the
    /// counterpart of [`Dec::list`].
    pub fn list<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) -> &mut Self {
        self.u32(items.len() as u32);
        for v in items {
            item(self, v);
        }
        self
    }
}

/// A sequential byte decoder with bounds checking.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Starts decoding `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Decodes all of `buf` with `f`, rejecting trailing bytes.
    pub fn decode_all<T>(buf: &'a [u8], f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let mut d = Dec::new(buf);
        let v = f(&mut d)?;
        d.expect_done("record")?;
        Ok(v)
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The bytes not yet consumed, left in place.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when all bytes have been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails unless every byte was consumed — catches format drift early.
    pub fn expect_done(&self, what: &str) -> Result<()> {
        if self.is_done() {
            Ok(())
        } else {
            Err(CoreError::Corrupt(format!(
                "{} has {} trailing bytes",
                what,
                self.remaining()
            )))
        }
    }

    fn truncated(&self, n: usize) -> CoreError {
        CoreError::Corrupt(format!(
            "truncated record: wanted {n} bytes, {} remain",
            self.remaining()
        ))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.truncated(n));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let Some((head, _)) = self.buf[self.pos..].split_first_chunk::<N>() else {
            return Err(self.truncated(N));
        };
        self.pos += N;
        Ok(*head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        self.take_array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        self.take_array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        self.take_array().map(u64::from_le_bytes)
    }

    /// Raw bytes of known length.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Length-prefixed (u32) byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Length-prefixed (u32) UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| CoreError::Corrupt("invalid UTF-8 in record".into()))
    }

    /// Count-prefixed (u32) list of items read by `item`, each at least
    /// `min_len` bytes (taken as 1 when 0). A count the remaining bytes
    /// cannot hold is refused before anything is reserved, so a forged
    /// count allocates nothing.
    pub fn list<T>(
        &mut self,
        min_len: usize,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let n = self.u32()? as usize;
        if n > self.remaining() / min_len.max(1) {
            return Err(CoreError::Corrupt(format!(
                "list of {n} items of at least {min_len} bytes overruns the {} remaining",
                self.remaining()
            )));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Enc::new();
        e.u8(7).u16(300).u32(70_000).u64(u64::MAX - 1);
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 300);
        assert_eq!(d.u32().unwrap(), 70_000);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert!(d.is_done());
        d.expect_done("test").unwrap();
    }

    #[test]
    fn bytes_and_str_roundtrip() {
        let mut e = Enc::with_capacity(64);
        e.bytes(b"payload").str("héllo").bytes(b"");
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        assert_eq!(d.bytes().unwrap(), b"payload");
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.bytes().unwrap(), b"");
        assert!(d.is_done());
    }

    #[test]
    fn truncation_detected() {
        let mut e = Enc::new();
        e.u64(42);
        let buf = e.finish();
        // Every proper prefix of each scalar width is an error, not a panic.
        for cut in 0..8 {
            let d = || Dec::new(&buf[..cut]);
            assert!(matches!(d().u64(), Err(CoreError::Corrupt(_))));
            assert_eq!(d().u32().is_err(), cut < 4, "cut {cut}");
            assert_eq!(d().u16().is_err(), cut < 2, "cut {cut}");
        }
        // A failed read consumes nothing.
        let mut d = Dec::new(&buf[..7]);
        assert!(d.u64().is_err());
        assert_eq!(d.u32().unwrap(), 42);
        assert_eq!(d.remaining(), 3);
    }

    #[test]
    fn trailing_bytes_detected() {
        let buf = [1u8, 2, 3];
        let mut d = Dec::new(&buf);
        let _ = d.u8().unwrap();
        assert!(matches!(d.expect_done("rec"), Err(CoreError::Corrupt(_))));
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut e = Enc::new();
        e.u32(1_000_000); // Claims a million bytes follow.
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        assert!(matches!(d.bytes(), Err(CoreError::Corrupt(_))));
    }

    #[test]
    fn list_roundtrip_and_whole_buffer() {
        let mut e = Enc::new();
        e.list(&[3u64, 5], |e, v| {
            e.u64(*v);
        });
        let buf = e.finish();
        let list = |d: &mut Dec| d.list(8, Dec::u64);
        assert_eq!(Dec::decode_all(&buf, list).unwrap(), [3, 5]);
        let mut longer = buf.clone();
        longer.push(0);
        assert!(matches!(
            Dec::decode_all(&longer, list),
            Err(CoreError::Corrupt(_))
        ));
    }

    #[test]
    fn list_count_beyond_the_input_is_refused_unreserved() {
        // Claims u32::MAX eight-byte items but carries one; the item reader
        // must never run, and nothing is reserved for the claimed count.
        let mut e = Enc::new();
        e.u32(u32::MAX).u64(7);
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        let r = d.list(8, |_| -> Result<u64> {
            panic!("item read past a refused count")
        });
        assert!(matches!(r, Err(CoreError::Corrupt(_))));
        // Two items of eight bytes do not fit in eight remaining bytes
        // either, while one does.
        let mut two = Enc::new();
        two.u32(2).u64(7);
        assert!(Dec::new(&two.finish()).list(8, Dec::u64).is_err());
        let mut one = Enc::new();
        one.u32(1).u64(7);
        assert_eq!(Dec::new(&one.finish()).list(8, Dec::u64).unwrap(), [7]);
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut e = Enc::new();
        e.bytes(&[0xFF, 0xFE]);
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        assert!(matches!(d.str(), Err(CoreError::Corrupt(_))));
    }
}
