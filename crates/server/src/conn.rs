//! Per-connection state for the event loop: incremental HTTP/1.1 request
//! parsing and the pipelined response outbox.
//!
//! A connection's life is a pair of state machines:
//!
//! * **Read side** — bytes accumulate in `rbuf`; [`ConnReader::drain`]
//!   peels off as many complete requests as are present (HTTP/1.1
//!   pipelining), each stamped with a monotonically increasing sequence
//!   number. Header blocks are bounded ([`MAX_HEADER_BYTES`]) and timed
//!   (the event loop closes connections whose first header block is not
//!   complete within the header deadline — the slow-loris defence).
//! * **Write side** — responses complete on worker threads in any order;
//!   each lands in its sequence slot of the shared [`Outbox`], and the
//!   event loop flushes slots strictly in sequence order so pipelined
//!   responses can never be reordered.

use std::collections::BTreeMap;

use crate::http::{parse_query, Request};

/// Upper bound on one request's header block (request line + headers).
pub const MAX_HEADER_BYTES: usize = 64 * 1024;
/// Upper bound on one request body (matches the historical upload cap).
pub const MAX_BODY_BYTES: usize = 64 << 20;

/// A request peeled off the read buffer, plus its connection semantics.
pub struct ParsedRequest {
    /// The parsed request (method, path, query, headers, body).
    pub request: Request,
    /// Whether the connection must close after this request's response
    /// (HTTP/1.0 without keep-alive, or `Connection: close`).
    pub close_after: bool,
}

/// Why [`ConnReader::drain`] stopped consuming.
pub enum ReadOutcome {
    /// Need more bytes for the next request.
    NeedMore,
    /// The peer sent something unrecoverable; respond (if possible) with
    /// the given status and close.
    Malformed(u16, &'static str),
}

/// Incremental request parser over an owned read buffer.
pub struct ConnReader {
    rbuf: Vec<u8>,
    /// Offset of the unconsumed region (compacted between drains).
    start: usize,
}

impl Default for ConnReader {
    fn default() -> Self {
        Self::new()
    }
}

impl ConnReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self { rbuf: Vec::new(), start: 0 }
    }

    /// Appends freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.rbuf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed (slow-loris accounting).
    pub fn pending_len(&self) -> usize {
        self.rbuf.len() - self.start
    }

    /// Peels complete requests off the buffer until it runs dry or an
    /// error is hit. Consumed bytes are discarded.
    pub fn drain(&mut self, out: &mut Vec<ParsedRequest>) -> ReadOutcome {
        loop {
            match self.parse_one() {
                Ok(Some(p)) => out.push(p),
                Ok(None) => {
                    self.compact();
                    return ReadOutcome::NeedMore;
                }
                Err(e) => return e,
            }
        }
    }

    fn compact(&mut self) {
        if self.start > 0 {
            self.rbuf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Tries to parse one request at `start`. `Ok(None)` = incomplete.
    fn parse_one(&mut self) -> Result<Option<ParsedRequest>, ReadOutcome> {
        let buf = &self.rbuf[self.start..];
        if buf.is_empty() {
            return Ok(None);
        }
        let Some(header_end) = find_header_end(buf) else {
            // An unterminated header block past the cap is fatal even
            // before the terminator shows up (a body in flight is framed
            // by Content-Length and may legitimately be much larger).
            if buf.len() > MAX_HEADER_BYTES {
                return Err(ReadOutcome::Malformed(400, "header block too large"));
            }
            return Ok(None);
        };
        if header_end > MAX_HEADER_BYTES {
            return Err(ReadOutcome::Malformed(400, "header block too large"));
        }
        let head = match std::str::from_utf8(&buf[..header_end]) {
            Ok(s) => s,
            Err(_) => return Err(ReadOutcome::Malformed(400, "headers are not UTF-8")),
        };
        let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split_whitespace();
        let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
            return Err(ReadOutcome::Malformed(400, "malformed request line"));
        };
        let version = parts.next().unwrap_or("HTTP/1.1");
        let http10 = version.eq_ignore_ascii_case("HTTP/1.0");

        let mut headers: Vec<(String, String)> = Vec::new();
        let mut content_length = 0usize;
        let mut close_after = http10;
        for line in lines {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("content-length") {
                content_length = match value.parse() {
                    Ok(n) => n,
                    Err(_) => return Err(ReadOutcome::Malformed(400, "bad Content-Length")),
                };
            }
            if name.eq_ignore_ascii_case("connection") {
                if value.eq_ignore_ascii_case("close") {
                    close_after = true;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    close_after = false;
                }
            }
            if name.eq_ignore_ascii_case("transfer-encoding") {
                // No chunked-request support: the API never needs it.
                return Err(ReadOutcome::Malformed(400, "chunked requests unsupported"));
            }
            headers.push((name.to_owned(), value.to_owned()));
        }
        if content_length > MAX_BODY_BYTES {
            return Err(ReadOutcome::Malformed(400, "request body too large"));
        }
        let body_start = header_end + header_terminator_len(buf, header_end);
        if buf.len() < body_start + content_length {
            return Ok(None); // body still arriving
        }
        let body = buf[body_start..body_start + content_length].to_vec();
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_owned(), parse_query(q)),
            None => (target.to_owned(), Default::default()),
        };
        let request = Request {
            method: method.to_owned(),
            path,
            query,
            body,
            headers,
        };
        self.start += body_start + content_length;
        Ok(Some(ParsedRequest { request, close_after }))
    }
}

/// Index of the first byte *past* the header lines (i.e. the start of the
/// blank-line terminator), or `None` if the terminator hasn't arrived.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    // Accept both CRLFCRLF and bare LFLF (lenient, like the old reader).
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            let next = buf.get(i + 1..);
            match next {
                Some([b'\r', b'\n', ..]) | Some([b'\n', ..]) => return Some(i + 1),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Length of the blank-line terminator at `header_end`.
fn header_terminator_len(buf: &[u8], header_end: usize) -> usize {
    if buf.get(header_end) == Some(&b'\r') {
        2
    } else {
        1
    }
}

/// One response slot in the pipelined outbox.
pub enum Slot {
    /// Dispatched to a worker; the response is still being computed.
    Pending,
    /// A fully serialized response, ready to flush.
    Ready(Vec<u8>),
}

/// The in-order response queue shared between the event loop and workers
/// (behind an `Arc<Mutex<_>>`).
#[derive(Default)]
pub struct Outbox {
    /// Sequence number of the next slot to flush.
    pub next_flush: u64,
    /// Sequence number to assign to the next parsed request.
    pub next_seq: u64,
    /// Outstanding slots by sequence number.
    pub slots: BTreeMap<u64, Slot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(r: &mut ConnReader) -> (Vec<ParsedRequest>, bool) {
        let mut out = Vec::new();
        let ok = matches!(r.drain(&mut out), ReadOutcome::NeedMore);
        (out, ok)
    }

    #[test]
    fn parses_pipelined_requests_in_order() {
        let mut r = ConnReader::new();
        r.push(b"GET /a HTTP/1.1\r\nHost: x\r\n\r\nGET /b?x=1 HTTP/1.1\r\n\r\n");
        let (reqs, ok) = drain_all(&mut r);
        assert!(ok);
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].request.path, "/a");
        assert!(!reqs[0].close_after);
        assert_eq!(reqs[1].request.path, "/b");
        assert_eq!(reqs[1].request.param("x"), Some("1"));
    }

    #[test]
    fn partial_request_waits_for_more_bytes() {
        let mut r = ConnReader::new();
        r.push(b"GET /slow HTT");
        let (reqs, ok) = drain_all(&mut r);
        assert!(ok && reqs.is_empty());
        r.push(b"P/1.1\r\nHost: x\r\n\r\n");
        let (reqs, _) = drain_all(&mut r);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].request.path, "/slow");
    }

    #[test]
    fn body_framed_by_content_length() {
        let mut r = ConnReader::new();
        r.push(b"POST /p HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel");
        let (reqs, ok) = drain_all(&mut r);
        assert!(ok && reqs.is_empty(), "body incomplete");
        r.push(b"lo");
        let (reqs, _) = drain_all(&mut r);
        assert_eq!(reqs[0].request.body, b"hello");
    }

    #[test]
    fn connection_close_and_http10_semantics() {
        let mut r = ConnReader::new();
        r.push(b"GET /a HTTP/1.1\r\nConnection: close\r\n\r\n");
        let (reqs, _) = drain_all(&mut r);
        assert!(reqs[0].close_after);

        let mut r = ConnReader::new();
        r.push(b"GET /a HTTP/1.0\r\n\r\n");
        let (reqs, _) = drain_all(&mut r);
        assert!(reqs[0].close_after, "HTTP/1.0 defaults to close");

        let mut r = ConnReader::new();
        r.push(b"GET /a HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        let (reqs, _) = drain_all(&mut r);
        assert!(!reqs[0].close_after);
    }

    #[test]
    fn headers_are_captured_for_auth() {
        let mut r = ConnReader::new();
        r.push(b"GET /a HTTP/1.1\r\nAuthorization: Bearer s3cret\r\nX-Other: 1\r\n\r\n");
        let (reqs, _) = drain_all(&mut r);
        assert_eq!(reqs[0].request.header("authorization"), Some("Bearer s3cret"));
        assert_eq!(reqs[0].request.header("x-other"), Some("1"));
        assert_eq!(reqs[0].request.header("missing"), None);
    }

    #[test]
    fn oversized_header_block_is_fatal() {
        let mut r = ConnReader::new();
        r.push(b"GET /a HTTP/1.1\r\n");
        r.push(&vec![b'a'; MAX_HEADER_BYTES + 16]);
        let mut out = Vec::new();
        assert!(matches!(r.drain(&mut out), ReadOutcome::Malformed(400, _)));
    }

    #[test]
    fn malformed_lines_rejected() {
        for bad in [
            &b"\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"POST /p HTTP/1.1\r\nContent-Length: wat\r\n\r\n",
            b"POST /p HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            let mut r = ConnReader::new();
            r.push(bad);
            let mut out = Vec::new();
            assert!(
                matches!(r.drain(&mut out), ReadOutcome::Malformed(400, _)),
                "{:?} should be malformed",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn lf_only_terminator_accepted() {
        let mut r = ConnReader::new();
        r.push(b"GET /a HTTP/1.1\nHost: x\n\n");
        let (reqs, _) = drain_all(&mut r);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].request.path, "/a");
    }
}
