//! Little-endian byte (de)serialization helpers shared by the WAL record
//! codec, snapshot files and the manifest.
//!
//! Everything is length-prefixed and bounds-checked: a reader never
//! panics on truncated or hostile input, it returns
//! [`StoreError::Corrupt`] with a position and reason.

use crate::error::StoreError;

/// Hard ceiling on any single length prefix (strings, vectors, embedded
/// payloads). Anything larger is treated as corruption rather than an
/// allocation request.
pub const MAX_LEN: usize = 1 << 30;

/// Append-only byte sink with the store's primitive encodings.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer with room for `bytes`, for payloads whose size is
    /// roughly known (a 130 MB checkpoint should not grow by doubling).
    pub fn with_capacity(bytes: usize) -> Self {
        Self { buf: Vec::with_capacity(bytes) }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a single byte.
    pub fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Appends a `u32` little-endian.
    pub fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends an `f64` little-endian (IEEE bits).
    pub fn f64(&mut self, x: f64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed block of raw bytes that `fill` writes
    /// straight into this writer's buffer; the length is patched in once
    /// it is known, so a large block is never built somewhere else first.
    pub fn block<E>(
        &mut self,
        fill: impl FnOnce(&mut Vec<u8>) -> Result<(), E>,
    ) -> Result<(), E> {
        let at = self.buf.len();
        self.u64(0);
        fill(&mut self.buf)?;
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
        Ok(())
    }

    /// Appends a length-prefixed list of `(u32, u32)` pairs.
    pub fn pairs(&mut self, ps: &[(u32, u32)]) {
        self.u32(ps.len() as u32);
        for &(a, b) in ps {
            self.u32(a);
            self.u32(b);
        }
    }

    /// Appends a length-prefixed list of strings.
    pub fn strs(&mut self, ss: &[String]) {
        self.u32(ss.len() as u32);
        for s in ss {
            self.str(s);
        }
    }
}

/// Bounds-checked reader over an encoded byte slice.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with a positioned corruption error.
    fn corrupt(&self, what: &str) -> StoreError {
        StoreError::Corrupt(format!("truncated or invalid {what} at byte {}", self.pos))
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(self.corrupt(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a `u32` little-endian.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    /// Reads a `u64` little-endian.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    /// Reads an `f64` little-endian.
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_le_bytes(self.take(8, "f64")?.try_into().unwrap()))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, StoreError> {
        let len = self.len_prefix32("string")?;
        let raw = self.take(len, "string body")?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| StoreError::Corrupt(format!("non-utf8 string at byte {}", self.pos)))
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let len = self.u64()? as usize;
        if len > MAX_LEN {
            return Err(self.corrupt("byte-block length"));
        }
        self.take(len, "byte block")
    }

    /// Reads a length-prefixed list of `(u32, u32)` pairs.
    pub fn pairs(&mut self) -> Result<Vec<(u32, u32)>, StoreError> {
        let len = self.len_prefix32("pair list")?;
        if len.checked_mul(8).is_none_or(|b| b > self.remaining()) {
            return Err(self.corrupt("pair list length"));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push((self.u32()?, self.u32()?));
        }
        Ok(out)
    }

    /// Reads a length-prefixed list of strings.
    pub fn strs(&mut self) -> Result<Vec<String>, StoreError> {
        let len = self.len_prefix32("string list")?;
        if len > self.remaining() {
            // Each entry costs at least its 4-byte length prefix.
            return Err(self.corrupt("string list length"));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.str()?);
        }
        Ok(out)
    }

    /// Asserts the reader consumed everything (records must not carry
    /// trailing garbage — it would mask versioning mistakes).
    pub fn finish(self, what: &str) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(StoreError::Corrupt(format!(
                "{} bytes of trailing garbage after {what}",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn len_prefix32(&mut self, what: &str) -> Result<usize, StoreError> {
        let len = self.u32()? as usize;
        if len > MAX_LEN {
            return Err(self.corrupt(what));
        }
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.f64(-1.5);
        w.str("héllo");
        w.block(|buf| {
            buf.extend_from_slice(b"raw");
            Ok::<(), ()>(())
        })
        .unwrap();
        w.pairs(&[(1, 2), (3, 4)]);
        w.strs(&["a".into(), "".into()]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap(), -1.5);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), b"raw");
        assert_eq!(r.pairs().unwrap(), vec![(1, 2), (3, 4)]);
        assert_eq!(r.strs().unwrap(), vec!["a".to_string(), String::new()]);
        r.finish("test").unwrap();
    }

    #[test]
    fn truncation_errors_not_panics() {
        let mut w = ByteWriter::new();
        w.str("hello");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(r.str().is_err(), "cut at {cut} must error");
        }
    }

    #[test]
    fn hostile_lengths_rejected() {
        // A pair list claiming 2^31 entries on a 12-byte buffer.
        let mut w = ByteWriter::new();
        w.u32(u32::MAX / 2);
        w.u64(0);
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes).pairs().is_err());
        assert!(ByteReader::new(&bytes).strs().is_err());
    }

    #[test]
    fn finish_rejects_trailing_garbage() {
        let mut w = ByteWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.u8().unwrap();
        assert!(r.finish("record").is_err());
    }
}
