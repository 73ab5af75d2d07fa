//! A minimal keep-alive HTTP/1.1 client: one request in flight per
//! connection, `Content-Length` framing only — exactly what the server's
//! transport emits for every non-streaming endpoint.
//!
//! The framing state machine ([`ResponseParser`]) is separate from the
//! socket so it can be unit-tested across arbitrary read splits.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Client socket timeout: a request that takes longer counts as failed.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Incremental parser for one `Content-Length`-framed response at a
/// time. Bytes past the end of a response are kept for the next one, so
/// back-to-back responses on a keep-alive connection frame correctly.
#[derive(Default)]
pub struct ResponseParser {
    buf: Vec<u8>,
    /// `(header_len, status, content_length)` once the header block of
    /// the response at the front of `buf` is complete.
    head: Option<(usize, u16, usize)>,
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

impl ResponseParser {
    /// Appends freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// If a complete response is buffered, moves its body into `body`
    /// (replacing the contents) and returns its status. `Err` on a
    /// response this client cannot frame.
    pub fn take(&mut self, body: &mut Vec<u8>) -> Result<Option<u16>, &'static str> {
        if self.head.is_none() {
            let Some(end) = find(&self.buf, b"\r\n\r\n") else {
                return Ok(None);
            };
            let head = std::str::from_utf8(&self.buf[..end]).map_err(|_| "non-UTF-8 header")?;
            let mut lines = head.split("\r\n");
            let status = lines
                .next()
                .and_then(|l| l.split(' ').nth(1))
                .and_then(|s| s.parse::<u16>().ok())
                .ok_or("bad status line")?;
            let len = lines
                .find_map(|l| {
                    let (name, value) = l.split_once(':')?;
                    name.eq_ignore_ascii_case("content-length").then(|| value.trim().parse().ok())
                })
                .flatten()
                .ok_or("missing Content-Length")?;
            self.head = Some((end + 4, status, len));
        }
        let (header_len, status, len) = self.head.expect("set above");
        if self.buf.len() < header_len + len {
            return Ok(None);
        }
        body.clear();
        body.extend_from_slice(&self.buf[header_len..header_len + len]);
        self.buf.drain(..header_len + len);
        self.head = None;
        Ok(Some(status))
    }
}

/// One keep-alive connection.
pub struct Client {
    stream: TcpStream,
    parser: ResponseParser,
    wbuf: Vec<u8>,
    rbuf: Box<[u8; 64 * 1024]>,
}

impl Client {
    /// Connects to `127.0.0.1:port` with `TCP_NODELAY` and the
    /// [`CLIENT_TIMEOUT`] read/write timeouts.
    pub fn connect(port: u16) -> std::io::Result<Self> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        Ok(Self {
            stream,
            parser: ResponseParser::default(),
            wbuf: Vec::with_capacity(1024),
            rbuf: Box::new([0u8; 64 * 1024]),
        })
    }

    /// Sends one request and reads its response into `body`. Returns the
    /// status and the instants bracketing the exchange: just before the
    /// first request byte is written, just after the last response byte
    /// is read.
    pub fn exchange(
        &mut self,
        method: &str,
        target: &str,
        req_body: &[u8],
        body: &mut Vec<u8>,
    ) -> std::io::Result<(u16, Instant, Instant)> {
        self.wbuf.clear();
        write!(self.wbuf, "{method} {target} HTTP/1.1\r\nHost: cxb\r\n")?;
        if method != "GET" {
            write!(self.wbuf, "Content-Length: {}\r\n", req_body.len())?;
        }
        self.wbuf.extend_from_slice(b"\r\n");
        self.wbuf.extend_from_slice(req_body);
        let invalid = |m: &'static str| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
        let t0 = Instant::now();
        self.stream.write_all(&self.wbuf)?;
        loop {
            if let Some(status) = self.parser.take(body).map_err(invalid)? {
                return Ok((status, t0, Instant::now()));
            }
            let n = self.stream.read(&mut self.rbuf[..])?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            self.parser.push(&self.rbuf[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    const TWO: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhelloHTTP/1.1 404 Not Found\r\ncontent-length: 2\r\n\r\nno";

    #[test]
    fn frames_across_every_split_point() {
        for cut in 0..=TWO.len() {
            let mut p = ResponseParser::default();
            let mut body = Vec::new();
            let mut got = Vec::new();
            for part in [&TWO[..cut], &TWO[cut..]] {
                p.push(part);
                while let Some(status) = p.take(&mut body).unwrap() {
                    got.push((status, body.clone()));
                }
            }
            assert_eq!(got, vec![(200, b"hello".to_vec()), (404, b"no".to_vec())], "cut {cut}");
        }
    }

    #[test]
    fn frames_byte_by_byte_and_rejects_unframed() {
        let mut p = ResponseParser::default();
        let mut body = Vec::new();
        let mut statuses = Vec::new();
        for b in TWO {
            p.push(&[*b]);
            if let Some(s) = p.take(&mut body).unwrap() {
                statuses.push(s);
            }
        }
        assert_eq!(statuses, vec![200, 404]);

        let mut p = ResponseParser::default();
        p.push(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert!(p.take(&mut body).is_err());
    }

    #[test]
    fn keep_alive_connection_is_reused() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        // One accept only: a client that reconnected per request would
        // hang here and fail the test by timeout.
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            let mut buf = [0u8; 1024];
            let mut answered = 0;
            while answered < 3 {
                let n = s.read(&mut buf).unwrap();
                assert!(n > 0, "client closed early");
                seen.extend_from_slice(&buf[..n]);
                while let Some(end) = find(&seen, b"\r\n\r\n") {
                    let head = String::from_utf8_lossy(&seen[..end]).to_string();
                    let need = if head.starts_with("POST") { 4 } else { 0 };
                    if seen.len() < end + 4 + need {
                        break;
                    }
                    seen.drain(..end + 4 + need);
                    answered += 1;
                    let body = format!("r{answered}");
                    // Split the write to force the client through a
                    // partial read.
                    let msg =
                        format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}", body.len());
                    let (a, b) = msg.as_bytes().split_at(9);
                    s.write_all(a).unwrap();
                    s.flush().unwrap();
                    std::thread::sleep(Duration::from_millis(2));
                    s.write_all(b).unwrap();
                }
            }
        });
        let mut c = Client::connect(port).unwrap();
        let mut body = Vec::new();
        for (i, (method, req)) in [("GET", ""), ("POST", "abcd"), ("GET", "")].iter().enumerate() {
            let (status, t0, t1) = c.exchange(method, "/x", req.as_bytes(), &mut body).unwrap();
            assert_eq!(status, 200);
            assert!(t1 > t0);
            assert_eq!(body, format!("r{}", i + 1).into_bytes());
        }
        server.join().unwrap();
    }
}
