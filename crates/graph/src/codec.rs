//! The workspace's one little-endian byte codec. Every on-disk format is
//! written with [`ByteWriter`] and read back with [`ByteReader`]: the
//! CXG1 graph snapshot ([`crate::io`]), the CL-tree's CXT2 snapshot, and
//! the durable store's WAL records, checkpoints, manifest and index
//! sidecars.
//!
//! Strings are `u32 len + UTF-8 bytes`, embedded blocks `u64 len +
//! bytes`. Reading is bounds-checked: a reader never panics on truncated
//! or hostile input, and every length taken from the input is checked
//! against the bytes that remain *before* anything is allocated for it,
//! so a hostile header costs a [`DecodeError`], not memory.
//!
//! There are two readers over the one encoding. [`ByteReader`] borrows
//! out of bytes already in memory. [`StreamReader`] decodes a stream as
//! it arrives, out of the stream's own buffer, so a large file is never
//! held whole beside what is decoded from it; over a slice it is the
//! same code with the slice as its one piece.

use std::fmt;
use std::io::BufRead;

/// The size of the pieces a file is read in by a [`StreamReader`]: small
/// enough to stay in cache between the checksum and the decode of a
/// piece, large enough that a 100 MB file is a few hundred reads.
pub const PIECE: usize = 1 << 18;

/// A decode failure: what was being read, and the byte it was read at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Offset into the input at which the read failed.
    pub at: usize,
    /// What was being read, and how it failed.
    pub what: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for DecodeError {}

/// The codec's encodings, appended to a byte buffer. Implemented for
/// `Vec<u8>`, so a format writes straight into the buffer it fills.
pub trait ByteWriter {
    /// Appends a single byte.
    fn u8(&mut self, x: u8);
    /// Appends a `u32`.
    fn u32(&mut self, x: u32);
    /// Appends a `u64`.
    fn u64(&mut self, x: u64);
    /// Appends an `f64` (IEEE bits).
    fn f64(&mut self, x: f64);
    /// Appends a whole column of `u32`s, without a length prefix.
    fn u32s(&mut self, col: impl IntoIterator<Item = u32>);
    /// Appends a length-prefixed UTF-8 string.
    fn str(&mut self, s: &str);
    /// Appends a length-prefixed list of strings.
    fn strs(&mut self, ss: &[String]);
    /// Appends a length-prefixed list of `(u32, u32)` pairs.
    fn pairs(&mut self, ps: &[(u32, u32)]);
    /// Appends a `u64`-length-prefixed block that `fill` writes straight
    /// into this buffer; the length is patched in once it is known, so a
    /// large block is never built somewhere else first.
    fn block(&mut self, fill: impl FnOnce(&mut Self));
}

impl ByteWriter for Vec<u8> {
    fn u8(&mut self, x: u8) {
        self.push(x);
    }

    fn u32(&mut self, x: u32) {
        self.extend_from_slice(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.extend_from_slice(&x.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.extend_from_slice(&x.to_le_bytes());
    }

    fn u32s(&mut self, col: impl IntoIterator<Item = u32>) {
        for x in col {
            self.u32(x);
        }
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.extend_from_slice(s.as_bytes());
    }

    fn strs(&mut self, ss: &[String]) {
        self.u32(ss.len() as u32);
        for s in ss {
            self.str(s);
        }
    }

    fn pairs(&mut self, ps: &[(u32, u32)]) {
        self.u32(ps.len() as u32);
        self.u32s(ps.iter().flat_map(|&(a, b)| [a, b]));
    }

    fn block(&mut self, fill: impl FnOnce(&mut Self)) {
        let at = self.len();
        self.u64(0);
        fill(self);
        let len = (self.len() - at - 8) as u64;
        self[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }
}

fn le32(raw: &[u8]) -> u32 {
    u32::from_le_bytes(raw.try_into().expect("four bytes"))
}

/// Bounds-checked reader over encoded bytes.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Where `buf` starts in the input errors are reported against.
    base: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self::starting_at(buf, 0)
    }

    /// A reader over `buf`, which begins `at` bytes into a longer input:
    /// errors name their offset in that input.
    pub fn starting_at(buf: &'a [u8], at: usize) -> Self {
        Self { buf, pos: 0, base: at }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn error(&self, what: impl Into<String>) -> DecodeError {
        DecodeError { at: self.base + self.pos, what: what.into() }
    }

    /// The next `len` bytes, borrowed.
    pub fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8], DecodeError> {
        if len > self.remaining() {
            return Err(self.error(truncated(what, len, self.remaining())));
        }
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    /// Checks that `len` items of at least `each` bytes apiece fit in
    /// what is left — run before allocating room for them.
    pub fn claim(&self, len: usize, each: usize, what: &str) -> Result<(), DecodeError> {
        if !fits(len, each, self.remaining()) {
            return Err(self.error(over_claimed(what, len)));
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.take(4, "u32").map(le32)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().expect("eight bytes")))
    }

    /// Reads an `f64`.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.take(8, "f64")?.try_into().expect("eight bytes")))
    }

    /// A column of `len` `u32`s, decoded in bulk as it is iterated.
    pub fn u32s(
        &mut self,
        len: usize,
        what: &str,
    ) -> Result<impl Iterator<Item = u32> + 'a, DecodeError> {
        self.claim(len, 4, what)?;
        Ok(self.take(4 * len, what)?.chunks_exact(4).map(le32))
    }

    /// Reads a length-prefixed UTF-8 string, borrowed.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.u32()? as usize;
        let raw = self.take(len, "string")?;
        std::str::from_utf8(raw).map_err(|_| self.error("non-utf8 string"))
    }

    /// Reads a length-prefixed list of strings.
    pub fn strs(&mut self) -> Result<Vec<String>, DecodeError> {
        let len = self.u32()? as usize;
        // Each entry costs at least its four-byte length prefix.
        self.claim(len, 4, "string")?;
        (0..len).map(|_| self.str().map(str::to_owned)).collect()
    }

    /// Reads a length-prefixed list of `(u32, u32)` pairs.
    pub fn pairs(&mut self) -> Result<Vec<(u32, u32)>, DecodeError> {
        let len = self.u32()? as usize;
        let raw = self.take(8 * len, "pair list")?;
        Ok(raw.chunks_exact(8).map(|c| (le32(&c[..4]), le32(&c[4..]))).collect())
    }

    /// Reads a `u64`-length-prefixed block, borrowed.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u64()?;
        self.take(usize::try_from(len).unwrap_or(usize::MAX), "byte block")
    }

    /// Asserts everything was consumed: trailing bytes would mask a
    /// versioning mistake.
    pub fn finish(self, what: &str) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(self.error(trailing(what, left))),
        }
    }
}

fn truncated(what: &str, len: usize, left: usize) -> String {
    format!("truncated {what} ({len} bytes wanted, {left} left)")
}

fn over_claimed(what: &str, len: usize) -> String {
    format!("truncated {what} list: {len} entries claimed")
}

fn trailing(what: &str, left: usize) -> String {
    format!("{left} trailing bytes after {what}")
}

/// Whether `len` items of `each` bytes fit in `left` bytes.
fn fits(len: usize, each: usize, left: usize) -> bool {
    len.checked_mul(each).is_some_and(|b| b <= left)
}

/// Bounds-checked reader over the next `len` bytes of a buffered
/// stream, decoded out of the stream's own buffer one piece at a time:
/// each byte is copied once, into the value decoded from it. Its
/// errors are [`ByteReader`]'s, word for word and at the same offsets,
/// and every length is likewise checked against the bytes left before
/// anything is allocated for it.
pub struct StreamReader<R> {
    src: R,
    /// Bytes this reader may still consume.
    left: usize,
    /// Bytes consumed so far: the offset errors name.
    at: usize,
}

impl<R: BufRead> StreamReader<R> {
    /// A reader over the next `len` bytes of `src`.
    pub fn new(src: R, len: usize) -> Self {
        Self { src, left: len, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.left
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.at
    }

    fn error(&self, what: impl Into<String>) -> DecodeError {
        DecodeError { at: self.at, what: what.into() }
    }

    /// Consumes the next `len` bytes, handing them to `each` piece by
    /// piece as the stream's buffer holds them.
    fn pieces(
        &mut self,
        len: usize,
        what: &str,
        mut each: impl FnMut(&[u8]),
    ) -> Result<(), DecodeError> {
        if len > self.left {
            return Err(self.error(truncated(what, len, self.left)));
        }
        let mut want = len;
        while want > 0 {
            let at = self.at;
            let piece = self
                .src
                .fill_buf()
                .map_err(|e| DecodeError { at, what: format!("reading {what}: {e}") })?;
            if piece.is_empty() {
                return Err(
                    self.error(format!("truncated {what}: the input ended {want} bytes early"))
                );
            }
            let k = piece.len().min(want);
            each(&piece[..k]);
            self.src.consume(k);
            (want, self.left, self.at) = (want - k, self.left - k, self.at + k);
        }
        Ok(())
    }

    /// The next `N` bytes, copied out.
    pub fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        let mut have = 0;
        self.pieces(N, what, |piece| {
            out[have..have + piece.len()].copy_from_slice(piece);
            have += piece.len();
        })?;
        Ok(out)
    }

    /// Checks that `len` items of at least `each` bytes apiece fit in
    /// what is left — run before allocating room for them.
    pub fn claim(&self, len: usize, each: usize, what: &str) -> Result<(), DecodeError> {
        if !fits(len, each, self.left) {
            return Err(self.error(over_claimed(what, len)));
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>("u8")?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array("u32").map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array("u64").map(u64::from_le_bytes)
    }

    /// Appends a column of `len` `u32`s to `out`, each mapped through
    /// `f`, after checking the column fits in what is left.
    pub fn u32s_into<T>(
        &mut self,
        len: usize,
        what: &str,
        out: &mut Vec<T>,
        mut f: impl FnMut(u32) -> T,
    ) -> Result<(), DecodeError> {
        self.claim(len, 4, what)?;
        out.reserve_exact(len);
        // A word split across two pieces waits here for its tail.
        let (mut split, mut have) = ([0u8; 4], 0);
        self.pieces(4 * len, what, |mut piece| {
            if have > 0 {
                let k = (4 - have).min(piece.len());
                split[have..have + k].copy_from_slice(&piece[..k]);
                (have, piece) = (have + k, &piece[k..]);
                if have < 4 {
                    return;
                }
                out.push(f(u32::from_le_bytes(split)));
                have = 0;
            }
            let words = piece.chunks_exact(4);
            let rest = words.remainder();
            out.extend(words.map(|w| f(le32(w))));
            split[..rest.len()].copy_from_slice(rest);
            have = rest.len();
        })
    }

    /// Reads a length-prefixed UTF-8 string and hands it to `with`,
    /// borrowed from the piece it lies in (or put back together, when
    /// it straddles two).
    pub fn str_with<T>(&mut self, with: impl FnOnce(&str) -> T) -> Result<T, DecodeError> {
        let len = self.u32()? as usize;
        if len > self.left {
            return Err(self.error(truncated("string", len, self.left)));
        }
        let at = self.at;
        let piece = self
            .src
            .fill_buf()
            .map_err(|e| DecodeError { at, what: format!("reading string: {e}") })?;
        let out = if piece.len() >= len {
            let out = std::str::from_utf8(&piece[..len]).map(with).ok();
            self.src.consume(len);
            (self.left, self.at) = (self.left - len, self.at + len);
            out
        } else {
            let joined = self.vec(len, "string")?;
            std::str::from_utf8(&joined).map(with).ok()
        };
        out.ok_or_else(|| self.error("non-utf8 string"))
    }

    /// Reads a length-prefixed list of strings.
    pub fn strs(&mut self) -> Result<Vec<String>, DecodeError> {
        let len = self.u32()? as usize;
        // Each entry costs at least its four-byte length prefix.
        self.claim(len, 4, "string")?;
        (0..len).map(|_| self.str_with(str::to_owned)).collect()
    }

    /// The next `len` bytes, copied out.
    pub fn vec(&mut self, len: usize, what: &str) -> Result<Vec<u8>, DecodeError> {
        if len > self.left {
            return Err(self.error(truncated(what, len, self.left)));
        }
        let mut out = Vec::with_capacity(len);
        self.pieces(len, what, |piece| out.extend_from_slice(piece))?;
        Ok(out)
    }

    /// Reads a `u64`-length-prefixed block with `read`, which gets a
    /// reader over exactly the block's bytes whose errors count from the
    /// block's start. The outer result is the block's framing, the inner
    /// one `read`'s.
    pub fn block<'s, T, E>(
        &'s mut self,
        read: impl FnOnce(&mut StreamReader<&'s mut R>) -> Result<T, E>,
    ) -> Result<Result<T, E>, DecodeError> {
        let len = usize::try_from(self.u64()?).unwrap_or(usize::MAX);
        if len > self.left {
            return Err(self.error(truncated("byte block", len, self.left)));
        }
        let mut inner = StreamReader::new(&mut self.src, len);
        let out = read(&mut inner);
        let used = len - inner.left;
        (self.left, self.at) = (self.left - used, self.at + used);
        Ok(out)
    }

    /// Asserts everything was consumed: trailing bytes would mask a
    /// versioning mistake.
    pub fn finish(&self, what: &str) -> Result<(), DecodeError> {
        match self.left {
            0 => Ok(()),
            left => Err(self.error(trailing(what, left))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = Vec::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.f64(-1.5);
        w.str("héllo");
        w.block(|buf| buf.extend_from_slice(b"raw"));
        w.pairs(&[(1, 2), (3, 4)]);
        w.strs(&["a".into(), "".into()]);
        w.u32s([5, 6]);
        let mut r = ByteReader::new(&w);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap(), -1.5);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), b"raw");
        assert_eq!(r.pairs().unwrap(), vec![(1, 2), (3, 4)]);
        assert_eq!(r.strs().unwrap(), vec!["a".to_string(), String::new()]);
        assert_eq!(r.u32s(2, "tail").unwrap().collect::<Vec<_>>(), [5, 6]);
        r.finish("test").unwrap();
    }

    #[test]
    fn truncation_errors_not_panics() {
        let mut w = Vec::new();
        w.str("hello");
        for cut in 0..w.len() {
            let mut r = ByteReader::new(&w[..cut]);
            assert!(r.str().is_err(), "cut at {cut} must error");
        }
    }

    #[test]
    fn hostile_lengths_rejected_before_allocating() {
        // Lists claiming 2^31 entries, and a block claiming 2^64 bytes,
        // over a 12-byte buffer.
        let mut w = Vec::new();
        w.u32(u32::MAX / 2);
        w.u64(0);
        assert!(ByteReader::new(&w).pairs().is_err());
        assert!(ByteReader::new(&w).strs().is_err());
        assert!(ByteReader::new(&w).u32s(usize::MAX, "column").is_err());
        let mut block = Vec::new();
        block.u64(u64::MAX);
        assert!(ByteReader::new(&block).bytes().is_err());
    }

    /// One sequence of reads, through either reader; the first error.
    fn read_all_bytes(buf: &[u8]) -> Result<(), DecodeError> {
        let mut r = ByteReader::new(buf);
        r.u8()?;
        r.u32()?;
        r.u64()?;
        r.str()?;
        r.strs()?;
        r.u32s(2, "column")?.for_each(drop);
        r.claim(1, 4, "tail")?;
        let mut b = ByteReader::new(r.bytes()?);
        b.take(b.remaining(), "block")?;
        b.finish("block")?;
        r.finish("test")
    }

    fn read_all_stream(buf: &[u8], piece: usize) -> Result<(), DecodeError> {
        let mut r = StreamReader::new(std::io::BufReader::with_capacity(piece, buf), buf.len());
        r.u8()?;
        r.u32()?;
        r.u64()?;
        r.str_with(|_| ())?;
        r.strs()?;
        r.u32s_into(2, "column", &mut Vec::new(), |x| x)?;
        r.claim(1, 4, "tail")?;
        r.block(|b| b.vec(b.remaining(), "block").and_then(|_| b.finish("block")))??;
        r.finish("test")
    }

    #[test]
    fn the_stream_reader_fails_like_the_byte_reader_at_every_cut() {
        let mut w = Vec::new();
        w.u8(7);
        w.u32(9);
        w.u64(11);
        w.str("héllo");
        w.strs(&["ab".into(), "".into(), "cde".into()]);
        w.u32s([5, 6]);
        w.block(|b| b.extend_from_slice(b"raw"));
        for piece in [1, 2, 3, 5, 64] {
            assert_eq!(read_all_stream(&w, piece), Ok(()), "pieces of {piece}");
        }
        assert_eq!(read_all_bytes(&w), Ok(()));
        let mut damaged: Vec<Vec<u8>> = (0..w.len()).map(|cut| w[..cut].to_vec()).collect();
        let mut bad_utf8 = w.clone();
        bad_utf8[18] = 0xFF; // inside "héllo"
        damaged.push(bad_utf8);
        let mut trailing = w.clone();
        trailing.push(0);
        damaged.push(trailing);
        for buf in &damaged {
            let want = read_all_bytes(buf);
            assert!(want.is_err(), "{buf:?}");
            for piece in [1, 2, 3, 5, 64] {
                assert_eq!(read_all_stream(buf, piece), want, "pieces of {piece}: {buf:?}");
            }
        }
    }

    #[test]
    fn errors_name_the_position_and_what_was_read() {
        let mut r = ByteReader::new(&[1, 2, 3, 4, 5]);
        r.u8().unwrap();
        let e = r.u64().unwrap_err();
        assert_eq!(e.at, 1);
        assert_eq!(e.to_string(), "truncated u64 (8 bytes wanted, 4 left) at byte 1");
        assert!(ByteReader::new(&[0xFF]).finish("record").unwrap_err().what.contains("trailing"));
    }
}
