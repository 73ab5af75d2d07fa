//! Minimal HTTP/1.1 server over `std::net`, with socket-free request and
//! response types so the routing layer is unit-testable.

use std::collections::HashMap;
use std::sync::Arc;

pub use crate::event_loop::{RequestHandler, ServerConfig, ServerHandle};

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path without the query string, e.g. `/api/v1/search`.
    pub path: String,
    /// Decoded query parameters.
    pub query: HashMap<String, String>,
    /// Request body (for `POST /api/v1/upload`).
    pub body: Vec<u8>,
    /// Request headers as received (names kept verbatim; lookup is
    /// case-insensitive via [`Request::header`]).
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// Builds a GET request for tests: `Request::get("/api/v1/search?k=4")`.
    pub fn get(target: &str) -> Self {
        let (path, query) = split_target(target);
        Self { method: "GET".into(), path, query, body: Vec::new(), headers: Vec::new() }
    }

    /// Builds a POST request with a body for tests.
    pub fn post(target: &str, body: impl Into<Vec<u8>>) -> Self {
        let (path, query) = split_target(target);
        Self { method: "POST".into(), path, query, body: body.into(), headers: Vec::new() }
    }

    /// Appends a request header (builder style, for tests).
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_owned(), value.to_owned()));
        self
    }

    /// The first header with this name (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// A query parameter by name.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.get(name).map(String::as_str)
    }

    /// A query parameter parsed to a type, with a default.
    pub fn param_as<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.param(name).and_then(|s| s.parse().ok()).unwrap_or(default)
    }
}

fn split_target(target: &str) -> (String, HashMap<String, String>) {
    match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), parse_query(q)),
        None => (target.to_owned(), HashMap::new()),
    }
}

/// Parses `a=1&b=two%20words` with percent- and plus-decoding.
pub fn parse_query(q: &str) -> HashMap<String, String> {
    let mut out = HashMap::new();
    for pair in q.split('&') {
        if pair.is_empty() {
            continue;
        }
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        out.insert(url_decode(k), url_decode(v));
    }
    out
}

/// Percent-decodes a URL component (`+` becomes space; bad escapes are
/// passed through literally).
pub fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                if let (Some(h), Some(l)) = (
                    bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)),
                    bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)),
                ) {
                    out.push((h * 16 + l) as u8);
                    i += 3;
                } else {
                    out.push(b'%');
                    i += 1;
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// An HTTP response ready to serialise.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code, e.g. 200.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Extra response headers (`X-Request-Id`, `Retry-After`, …), emitted
    /// after `Content-Type`/`Content-Length`. Names and values must be
    /// header-safe ASCII — the server only ever sets them from literals
    /// and internally generated ids.
    pub headers: Vec<(String, String)>,
}

impl Response {
    /// 200 with a JSON body, written into one buffer sized up front.
    pub fn json(v: &crate::json::Json) -> Self {
        let mut body = String::with_capacity(v.size_hint());
        v.write_into(&mut body);
        Self::with_body("application/json", body.into_bytes())
    }

    /// 200 with an HTML body.
    pub fn html(body: impl Into<String>) -> Self {
        Self::with_body("text/html; charset=utf-8", body.into().into_bytes())
    }

    /// 200 with an SVG body.
    pub fn svg(body: impl Into<String>) -> Self {
        Self::with_body("image/svg+xml", body.into().into_bytes())
    }

    /// 200 with an arbitrary content type (e.g. the Prometheus text
    /// exposition format for `GET /metrics`).
    pub fn with_body(content_type: &str, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status: 200,
            content_type: content_type.into(),
            body: body.into(),
            headers: Vec::new(),
        }
    }

    /// An error response with a JSON `{error}` body.
    pub fn error(status: u16, message: &str) -> Self {
        let mut r =
            Self::json(&crate::json::Json::obj([("error", crate::json::Json::str(message))]));
        r.status = status;
        r
    }

    /// Appends a response header (builder style).
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_owned(), value.to_owned()));
        self
    }

    /// The first header with this name (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (tests).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    fn status_line(&self) -> &'static str {
        match self.status {
            200 => "200 OK",
            400 => "400 Bad Request",
            401 => "401 Unauthorized",
            404 => "404 Not Found",
            405 => "405 Method Not Allowed",
            408 => "408 Request Timeout",
            429 => "429 Too Many Requests",
            503 => "503 Service Unavailable",
            _ => "500 Internal Server Error",
        }
    }

    /// Serialises the full response (status line, headers, body) for the
    /// wire. `keep_alive` selects the `Connection` header; the body is
    /// always `Content-Length`-framed, so keep-alive is safe whenever the
    /// client asked for it.
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 256);
        let length = self.body.len().to_string();
        for part in [
            "HTTP/1.1 ",
            self.status_line(),
            "\r\nContent-Type: ",
            self.content_type.as_str(),
            "\r\nContent-Length: ",
            length.as_str(),
            "\r\nConnection: ",
            if keep_alive { "keep-alive\r\n" } else { "close\r\n" },
        ] {
            out.extend_from_slice(part.as_bytes());
        }
        for (name, value) in &self.headers {
            for part in [name.as_str(), ": ", value, "\r\n"] {
                out.extend_from_slice(part.as_bytes());
            }
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

/// Binds `addr` and runs the event loop in the background, answering
/// every request with `handler`.
pub fn serve(
    addr: &str,
    config: ServerConfig,
    handler: Arc<RequestHandler>,
) -> std::io::Result<ServerHandle> {
    crate::event_loop::spawn(addr, config, handler)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builders_split_query() {
        let r = Request::get("/api/search?name=jim+gray&k=4&kw=a%2Cb");
        assert_eq!(r.path, "/api/search");
        assert_eq!(r.param("name"), Some("jim gray"));
        assert_eq!(r.param("kw"), Some("a,b"));
        assert_eq!(r.param_as::<u32>("k", 1), 4);
        assert_eq!(r.param_as::<u32>("missing", 7), 7);
        assert_eq!(r.param_as::<u32>("name", 9), 9); // unparseable → default
    }

    #[test]
    fn url_decode_handles_escapes() {
        assert_eq!(url_decode("a%20b"), "a b");
        assert_eq!(url_decode("a+b"), "a b");
        assert_eq!(url_decode("100%"), "100%"); // bad escape passes through
        assert_eq!(url_decode("%e4%bd%a0"), "你");
    }

    /// Percent-encoding every byte but the unreserved ones, then decoding,
    /// gives the text back; decoding arbitrary text never panics.
    #[test]
    fn url_decode_inverts_encoding_and_is_total() {
        const CHARS: &[char] =
            &['a', 'Z', '0', ' ', '/', '?', '=', '&', '-', '_', '.', '~', '%', '+', 'é', '你'];
        let mut rng = cx_par::rng::Rng64::seed_from_u64(5);
        for _ in 0..2_000 {
            let len = rng.gen_range(0..32usize);
            let s: String = (0..len).map(|_| CHARS[rng.gen_range(0..CHARS.len())]).collect();
            let encoded: String = s
                .bytes()
                .map(|b| match b {
                    b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                        char::from(b).to_string()
                    }
                    _ => format!("%{b:02X}"),
                })
                .collect();
            assert_eq!(url_decode(&encoded), s, "{encoded}");
            let _ = url_decode(&s);
        }
    }

    #[test]
    fn parse_query_skips_empty_pairs() {
        let q = parse_query("a=1&&b=&c");
        assert_eq!(q.get("a").unwrap(), "1");
        assert_eq!(q.get("b").unwrap(), "");
        assert_eq!(q.get("c").unwrap(), "");
    }

    #[test]
    fn response_builders() {
        let j = crate::json::Json::obj([("ok", crate::json::Json::Bool(true))]);
        let r = Response::json(&j);
        assert_eq!(r.status, 200);
        assert_eq!(r.text(), "{\"ok\":true}");
        let e = Response::error(404, "nope");
        assert_eq!(e.status, 404);
        assert!(e.text().contains("nope"));
        assert_eq!(Response::html("<p>").content_type, "text/html; charset=utf-8");
        assert_eq!(Response::svg("<svg/>").content_type, "image/svg+xml");
    }

    #[test]
    fn status_lines() {
        assert_eq!(Response::error(400, "x").status_line(), "400 Bad Request");
        assert_eq!(Response::error(401, "x").status_line(), "401 Unauthorized");
        assert_eq!(Response::error(405, "x").status_line(), "405 Method Not Allowed");
        assert_eq!(Response::error(408, "x").status_line(), "408 Request Timeout");
        assert_eq!(Response::error(429, "x").status_line(), "429 Too Many Requests");
        assert_eq!(Response::error(503, "x").status_line(), "503 Service Unavailable");
        assert_eq!(Response::error(418, "x").status_line(), "500 Internal Server Error");
    }

    #[test]
    fn to_bytes_marks_connection_intent() {
        let r = Response::html("x");
        let ka = String::from_utf8(r.to_bytes(true)).unwrap();
        assert!(ka.contains("Connection: keep-alive"), "{ka}");
        let cl = String::from_utf8(r.to_bytes(false)).unwrap();
        assert!(cl.contains("Connection: close"), "{cl}");
        assert!(cl.contains("Content-Length: 1"), "{cl}");
    }

    #[test]
    fn request_header_lookup_is_case_insensitive() {
        let r = Request::get("/x").with_header("Authorization", "Bearer t");
        assert_eq!(r.header("authorization"), Some("Bearer t"));
        assert_eq!(r.header("AUTHORIZATION"), Some("Bearer t"));
        assert_eq!(r.header("nope"), None);
    }

    /// [`serve`] on an OS-assigned port with one worker.
    fn serve_framed(
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> ServerHandle {
        let config = ServerConfig { workers: 1, ..ServerConfig::default() };
        serve("127.0.0.1:0", config, Arc::new(handler)).unwrap()
    }

    /// Full socket round-trip: serve, raw TCP client.
    #[test]
    fn end_to_end_socket_roundtrip() {
        use std::io::{Read, Write};
        let handle = serve_framed(|req| Response::html(format!("echo:{}", req.path)));
        let mut stream =
            std::net::TcpStream::connect(("127.0.0.1", handle.port())).unwrap();
        write!(stream, "GET /hello HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 200 OK"), "{buf}");
        assert!(buf.ends_with("echo:/hello"), "{buf}");
    }

    #[test]
    fn extra_headers_are_emitted_on_the_wire() {
        use std::io::{Read, Write};
        let handle = serve_framed(|_req| {
            Response::html("x")
                .with_header("X-Request-Id", "r0000002a")
                .with_header("Retry-After", "1")
        });
        let mut stream =
            std::net::TcpStream::connect(("127.0.0.1", handle.port())).unwrap();
        write!(stream, "GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.contains("X-Request-Id: r0000002a"), "{buf}");
        assert!(buf.contains("Retry-After: 1"), "{buf}");
        let r = Response::html("x").with_header("X-Request-Id", "abc");
        assert_eq!(r.header("x-request-id"), Some("abc"));
        assert_eq!(r.header("nope"), None);
    }

    #[test]
    fn post_body_is_delivered() {
        use std::io::{Read, Write};
        let handle = serve_framed(|req| Response::html(format!("len:{}", req.body.len())));
        let mut stream =
            std::net::TcpStream::connect(("127.0.0.1", handle.port())).unwrap();
        let body = "v\talice\t\n";
        write!(
            stream,
            "POST /api/upload HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
        .unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.contains(&format!("len:{}", body.len())), "{buf}");
    }
}
