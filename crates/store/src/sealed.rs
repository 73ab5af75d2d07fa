//! The envelope every store file but the WAL shares, and the one writer
//! that puts such a file on disk.
//!
//! ```text
//! [magic: 4 bytes] [word: u32 le] [body_len: u64 le] [crc32(body): u32 le] [body]
//! ```
//!
//! The MANIFEST (`CXMF`) and a checkpoint (`CXSS`) carry their format
//! version in the word; an index sidecar (`CXSI`) carries the body
//! checksum of the checkpoint it was written for. The checksum covers
//! the body; every header field is checked against what the reader
//! expects — the magic, the word, and the length against the bytes
//! actually present.
//!
//! Two readers check the envelope with the same errors: [`unseal`] over
//! a file already in memory (the manifest, a sidecar), and
//! [`read_sealed`], which streams a checkpoint's body in pieces through
//! a running checksum into its decoder.

use std::io::{BufReader, Read, Take, Write};
use std::path::Path;

use cx_graph::codec::{ByteReader, ByteWriter, StreamReader, PIECE};

use crate::crc::{crc32, Crc32};
use crate::error::StoreError;

/// The header that seals `body`, and the body's checksum.
pub(crate) fn seal(magic: &[u8; 4], word: u32, body: &[u8]) -> (Vec<u8>, u32) {
    let crc = crc32(body);
    let mut header = magic.to_vec();
    header.u32(word);
    header.u64(body.len() as u64);
    header.u32(crc);
    (header, crc)
}

/// The header's length: magic, word, body length and checksum.
const HEADER: usize = 20;

/// Checks the header at the start of `r` against `magic` and `word` and
/// returns the body length and checksum it records. A word other than
/// `word` is an [`StoreError::UnsupportedVersion`]; any other mismatch
/// is [`StoreError::Corrupt`].
fn read_header(
    r: &mut ByteReader<'_>,
    magic: &[u8; 4],
    word: u32,
) -> Result<(u64, u32), StoreError> {
    if r.take(magic.len(), "magic")? != magic {
        return Err(StoreError::Corrupt(format!("bad {} magic", kind(magic))));
    }
    let found = r.u32()?;
    if found != word {
        return Err(StoreError::UnsupportedVersion { found, supported: word });
    }
    Ok((r.u64()?, r.u32()?))
}

/// Checks the header's body length against the `body` bytes present.
fn check_len(magic: &[u8; 4], body: u64, len: u64) -> Result<(), StoreError> {
    if len != body {
        return Err(StoreError::Corrupt(format!(
            "{} body is {body} bytes, its header says {len}",
            kind(magic)
        )));
    }
    Ok(())
}

fn kind(magic: &[u8; 4]) -> std::borrow::Cow<'_, str> {
    String::from_utf8_lossy(magic)
}

fn checksum_mismatch(magic: &[u8; 4]) -> StoreError {
    StoreError::Corrupt(format!("{} checksum mismatch", kind(magic)))
}

/// The body of the sealed file `bytes`, borrowed, and its checksum. A
/// word other than `word` is an [`StoreError::UnsupportedVersion`]; any
/// other mismatch is [`StoreError::Corrupt`].
pub(crate) fn unseal<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    word: u32,
) -> Result<(&'a [u8], u32), StoreError> {
    let mut r = ByteReader::new(bytes);
    let (len, crc) = read_header(&mut r, magic, word)?;
    let body = r.take(r.remaining(), "body")?;
    check_len(magic, body.len() as u64, len)?;
    if crc32(body) != crc {
        return Err(checksum_mismatch(magic));
    }
    Ok((body, crc))
}

/// A reader that folds every byte it reads into a running checksum.
pub(crate) struct Summed<R> {
    src: R,
    crc: Crc32,
}

impl<R: Read> Read for Summed<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.src.read(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }
}

/// The body of a sealed file as [`read_sealed`] streams it.
pub(crate) type Body<R> = BufReader<Summed<Take<R>>>;

/// Reads the sealed file of `file_len` bytes that `src` yields, in
/// [`PIECE`]-sized pieces, with the errors [`unseal`] gives the same
/// bytes: the header first, its body length against the file's, then
/// `decode` over the body while each piece goes through the checksum.
/// The checksum is compared after the last byte — on a decode error
/// too, the rest of the body drained through it first — and a mismatch
/// wins over whatever `decode` said. Returns `decode`'s value and the
/// body's checksum.
pub(crate) fn read_sealed<R: Read, T>(
    mut src: R,
    file_len: u64,
    magic: &[u8; 4],
    word: u32,
    decode: impl FnOnce(&mut StreamReader<&mut Body<R>>) -> Result<T, StoreError>,
) -> Result<(T, u32), StoreError> {
    let mut head = [0u8; HEADER];
    let head = &mut head[..file_len.min(HEADER as u64) as usize];
    src.read_exact(head)?;
    let (len, crc) = read_header(&mut ByteReader::new(head), magic, word)?;
    check_len(magic, file_len - HEADER as u64, len)?;
    let summed = Summed { src: src.take(len), crc: Crc32::new() };
    let mut body = BufReader::with_capacity(PIECE, summed);
    let decoded =
        decode(&mut StreamReader::new(&mut body, usize::try_from(len).unwrap_or(usize::MAX)));
    std::io::copy(&mut body, &mut std::io::sink())?;
    if body.get_ref().crc.finish() != crc {
        return Err(checksum_mismatch(magic));
    }
    decoded.map(|value| (value, crc))
}

/// Writes `body` sealed to `path` atomically — header then body into
/// `<path>.tmp`, fsync, rename, fsync of the directory — so `path` only
/// ever holds a whole file, and the rename itself survives a power cut
/// (compaction truncates the WAL once the new manifest is in place).
/// Returns the body's checksum.
pub(crate) fn write_sealed(
    path: &Path,
    magic: &[u8; 4],
    word: u32,
    body: &[u8],
) -> Result<u32, StoreError> {
    let (header, crc) = seal(magic, word, body);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(&header)?;
    f.write_all(body)?;
    f.sync_all()?;
    std::fs::rename(&tmp, path)?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    Ok(crc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(word: u32, body: &[u8]) -> Vec<u8> {
        let (mut file, _) = seal(b"TEST", word, body);
        file.extend_from_slice(body);
        file
    }

    #[test]
    fn unseal_returns_the_body_and_its_checksum() {
        let file = sealed(3, b"body");
        assert_eq!(unseal(&file, b"TEST", 3).unwrap(), (&b"body"[..], crc32(b"body")));
        assert_eq!(unseal(&sealed(0, b""), b"TEST", 0).unwrap().0, b"");
    }

    #[test]
    fn every_header_field_is_checked() {
        let file = sealed(3, b"body");
        assert!(matches!(unseal(&file, b"ELSE", 3), Err(StoreError::Corrupt(_))));
        for word in [0, 2, 4] {
            match unseal(&file, b"TEST", word) {
                Err(StoreError::UnsupportedVersion { found: 3, supported }) => {
                    assert_eq!(supported, word)
                }
                other => panic!("word {word}: expected UnsupportedVersion, got {other:?}"),
            }
        }
        let mut longer = file.clone();
        longer.push(0);
        assert!(matches!(unseal(&longer, b"TEST", 3), Err(StoreError::Corrupt(_))));
        for cut in 0..file.len() {
            assert!(unseal(&file[..cut], b"TEST", 3).is_err(), "cut at {cut}");
        }
        for byte in 0..file.len() {
            let mut flipped = file.clone();
            flipped[byte] ^= 1;
            assert!(unseal(&flipped, b"TEST", 3).is_err(), "byte {byte} flipped");
        }
    }

    #[test]
    fn write_sealed_replaces_the_file_whole_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("cx-sealed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.cxs");
        std::fs::write(&path, b"a torn leftover").unwrap();
        let crc = write_sealed(&path, b"TEST", 7, b"payload").unwrap();
        assert_eq!(crc, crc32(b"payload"));
        assert_eq!(std::fs::read(&path).unwrap(), sealed(7, b"payload"));
        assert!(!dir.join("f.cxs.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
