//! WAL frame codec: length-prefixed, checksummed, self-delimiting.
//!
//! On-disk layout of one frame:
//!
//! ```text
//! [len: u32 le] [crc32(payload): u32 le] [payload: len bytes]
//! payload = [lsn: u64 le] [record bytes...]
//! ```
//!
//! The CRC covers the whole payload (LSN included), so a bit flip in
//! either the sequence number or the record body is detected. Frames are
//! self-delimiting: a scanner only needs the byte stream, no index. The
//! log sequence number (LSN) is global and strictly increasing across the
//! whole WAL; a non-monotone LSN marks the start of a torn/garbage tail.

use crate::crc::crc32;
use crate::error::StoreError;

/// Upper bound on a single frame's payload. Anything larger is corruption
/// (the largest legitimate payload is an embedded graph snapshot, far
/// below this).
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// Size of the `[len][crc]` frame header.
pub const FRAME_HEADER_LEN: usize = 8;

/// Encodes one frame: header + `[lsn][record]` payload.
pub fn encode_frame(lsn: u64, record: &[u8]) -> Vec<u8> {
    let payload_len = 8 + record.len();
    assert!(payload_len as u64 <= MAX_FRAME_LEN as u64, "record exceeds MAX_FRAME_LEN");
    let mut payload = Vec::with_capacity(payload_len);
    payload.extend_from_slice(&lsn.to_le_bytes());
    payload.extend_from_slice(record);
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload_len);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Why a scan stopped before the end of the buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailReason {
    /// Fewer than 8 bytes left — a torn frame header.
    ShortHeader,
    /// The header's length field is zero, undersized or over [`MAX_FRAME_LEN`].
    BadLength,
    /// The buffer ends mid-payload (torn append).
    ShortPayload,
    /// The payload checksum does not match the header.
    BadChecksum,
    /// The frame decoded but its LSN is not strictly greater than the
    /// previous frame's (stale bytes from a recycled region).
    NonMonotoneLsn,
}

impl std::fmt::Display for TailReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TailReason::ShortHeader => "short frame header",
            TailReason::BadLength => "invalid frame length",
            TailReason::ShortPayload => "frame payload truncated",
            TailReason::BadChecksum => "frame checksum mismatch",
            TailReason::NonMonotoneLsn => "non-monotone frame LSN",
        };
        f.write_str(s)
    }
}

/// A decoded frame.
#[derive(Debug)]
pub struct Frame<'a> {
    /// Global log sequence number.
    pub lsn: u64,
    /// Record bytes (payload minus the LSN).
    pub record: &'a [u8],
}

/// Result of scanning a WAL byte buffer.
#[derive(Debug, Default)]
pub struct ScanOutcome<'a> {
    /// Frames that decoded cleanly, in log order.
    pub frames: Vec<Frame<'a>>,
    /// Byte offset of the first undecodable frame; everything from here on
    /// is a torn tail to be truncated. Equals the buffer length when the
    /// whole log is clean.
    pub clean_len: usize,
    /// Why the scan stopped early, if it did.
    pub tail: Option<TailReason>,
}

/// Scans `buf` frame by frame, stopping at the first sign of a torn or
/// corrupt tail. Never fails: corruption terminates the scan rather than
/// erroring, because a torn tail is the *expected* crash artifact.
///
/// `last_lsn` seeds the monotonicity check (pass the LSN already covered
/// by a snapshot manifest, or 0 for a fresh log).
pub fn scan(buf: &[u8], mut last_lsn: u64) -> ScanOutcome<'_> {
    let mut out = ScanOutcome { frames: Vec::new(), clean_len: 0, tail: None };
    let mut pos = 0usize;
    while pos < buf.len() {
        let rest = &buf[pos..];
        if rest.len() < FRAME_HEADER_LEN {
            out.tail = Some(TailReason::ShortHeader);
            break;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap());
        if !(8..=MAX_FRAME_LEN).contains(&len) {
            out.tail = Some(TailReason::BadLength);
            break;
        }
        let len = len as usize;
        if rest.len() - FRAME_HEADER_LEN < len {
            out.tail = Some(TailReason::ShortPayload);
            break;
        }
        let want_crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        let payload = &rest[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
        if crc32(payload) != want_crc {
            out.tail = Some(TailReason::BadChecksum);
            break;
        }
        let lsn = u64::from_le_bytes(payload[0..8].try_into().unwrap());
        if lsn <= last_lsn {
            out.tail = Some(TailReason::NonMonotoneLsn);
            break;
        }
        last_lsn = lsn;
        out.frames.push(Frame { lsn, record: &payload[8..] });
        pos += FRAME_HEADER_LEN + len;
        out.clean_len = pos;
    }
    out
}

/// Like [`scan`] but treats any torn tail as a hard error. Used by tests
/// and by contexts where the log is known to be complete.
pub fn scan_strict(buf: &[u8], last_lsn: u64) -> Result<Vec<Frame<'_>>, StoreError> {
    let out = scan(buf, last_lsn);
    if let Some(reason) = out.tail {
        return Err(StoreError::Corrupt(format!(
            "{reason} at byte {} of {}",
            out.clean_len,
            buf.len()
        )));
    }
    Ok(out.frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_concatenated_frames() {
        let mut log = Vec::new();
        for (i, rec) in [b"alpha".as_slice(), b"", b"gamma-record"].iter().enumerate() {
            log.extend_from_slice(&encode_frame(i as u64 + 1, rec));
        }
        let out = scan(&log, 0);
        assert!(out.tail.is_none());
        assert_eq!(out.clean_len, log.len());
        assert_eq!(out.frames.len(), 3);
        assert_eq!(out.frames[0].record, b"alpha");
        assert_eq!(out.frames[2].lsn, 3);
        assert_eq!(out.frames[2].record, b"gamma-record");
    }

    #[test]
    fn every_truncation_point_stops_cleanly() {
        let mut log = Vec::new();
        log.extend_from_slice(&encode_frame(1, b"first"));
        log.extend_from_slice(&encode_frame(2, b"second"));
        let full = scan(&log, 0).frames.len();
        assert_eq!(full, 2);
        for cut in 0..log.len() {
            let out = scan(&log[..cut], 0);
            // Only complete frames survive, and clean_len points at a
            // frame boundary.
            assert!(out.frames.len() <= 2);
            assert!(out.clean_len <= cut);
            if cut < log.len() {
                assert!(out.frames.len() < 2 || cut == log.len());
            }
        }
    }

    #[test]
    fn bit_flip_detected() {
        let mut log = encode_frame(1, b"payload-bytes");
        let n = log.len();
        for byte in 0..n {
            let mut bad = log.clone();
            bad[byte] ^= 0x10;
            let out = scan(&bad, 0);
            // Either the frame is rejected, or the flip hit the length
            // field in a way that still fails (short payload).
            assert!(out.frames.is_empty(), "flip at byte {byte} accepted");
            assert!(out.tail.is_some());
        }
        // Untouched log still scans.
        log.extend_from_slice(&encode_frame(2, b"x"));
        assert_eq!(scan(&log, 0).frames.len(), 2);
    }

    #[test]
    fn non_monotone_lsn_is_a_tail() {
        let mut log = Vec::new();
        log.extend_from_slice(&encode_frame(5, b"a"));
        log.extend_from_slice(&encode_frame(5, b"b"));
        let out = scan(&log, 0);
        assert_eq!(out.frames.len(), 1);
        assert_eq!(out.tail, Some(TailReason::NonMonotoneLsn));
        // Seeding past the first frame rejects it too.
        let out = scan(&log, 5);
        assert!(out.frames.is_empty());
    }

    #[test]
    fn strict_scan_errors_on_torn_tail() {
        let mut log = encode_frame(1, b"ok");
        log.push(0x7F);
        assert!(scan_strict(&log, 0).is_err());
        assert_eq!(scan_strict(&log[..log.len() - 1], 0).unwrap().len(), 1);
    }
}
