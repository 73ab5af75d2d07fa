//! Transport-level conformance tests for the poll(2) event loop: HTTP
//! keep-alive and pipelining, slow-loris defense, per-request deadlines,
//! admission control, bearer auth over the wire, and graceful shutdown
//! drain.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cx_explorer::Engine;
use cx_server::http::serve;
use cx_server::{Json, Request, Response, Server, ServerConfig};

fn fig5_server() -> Server {
    Server::new(Engine::with_graph("fig5", cx_datagen::figure5_graph()))
}

/// Reads exactly one keep-alive response (headers + Content-Length body)
/// off an open connection, leaving it usable for the next one.
fn read_one_response(stream: &mut TcpStream) -> (u16, String, String) {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(0) => panic!("connection closed mid-headers: {:?}", String::from_utf8_lossy(&raw)),
            Ok(_) => raw.push(byte[0]),
            Err(e) => panic!("header read failed: {e}"),
        }
    }
    let head = String::from_utf8_lossy(&raw).to_string();
    let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    let content_length: usize = head
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(str::to_owned))
        .map(|v| v.trim().parse().unwrap())
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).unwrap();
    (status, head, String::from_utf8_lossy(&body).to_string())
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let server = fig5_server();
    let handle = server.serve_background().unwrap();
    let mut stream = TcpStream::connect(("127.0.0.1", handle.port())).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for i in 0..5 {
        write!(stream, "GET /api/v1/stats HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let (status, head, body) = read_one_response(&mut stream);
        assert_eq!(status, 200, "request {i}: {body}");
        assert!(
            head.to_ascii_lowercase().contains("connection: keep-alive"),
            "request {i} must keep the connection open:\n{head}"
        );
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    }
}

#[test]
fn pipelined_requests_come_back_in_order() {
    let server = fig5_server();
    let handle = server.serve_background().unwrap();
    let mut stream = TcpStream::connect(("127.0.0.1", handle.port())).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Three requests written back-to-back before reading anything. The
    // first is the most expensive, so out-of-order completion is likely —
    // responses must still come back in request order.
    let burst = concat!(
        "GET /api/v1/search?name=A&k=3&algo=acq HTTP/1.1\r\nHost: x\r\n\r\n",
        "GET /api/v1/graphs HTTP/1.1\r\nHost: x\r\n\r\n",
        "GET /api/v1/stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    stream.write_all(burst.as_bytes()).unwrap();
    let (s1, _, b1) = read_one_response(&mut stream);
    let (s2, _, b2) = read_one_response(&mut stream);
    let (s3, _, b3) = read_one_response(&mut stream);
    assert_eq!((s1, s2, s3), (200, 200, 200));
    assert!(b1.contains("communities"), "first response is the search: {b1}");
    assert!(b2.contains("graphs"), "second response lists graphs: {b2}");
    assert!(b3.contains("generation"), "third response is stats: {b3}");
    // The third carried Connection: close — the server hangs up after it.
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0, "connection must close");
}

#[test]
fn slow_loris_is_cut_off_by_the_header_deadline() {
    let server = fig5_server();
    let config = ServerConfig {
        workers: 1,
        header_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let handle = server.serve_background_with(config).unwrap();
    let mut stream = TcpStream::connect(("127.0.0.1", handle.port())).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // Drip a request one byte at a time, never completing the headers.
    let t0 = Instant::now();
    let mut closed = false;
    for b in "GET /api/v1/stats HTTP/1.1\r\n".bytes() {
        if stream.write_all(&[b]).is_err() {
            closed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(40));
        if t0.elapsed() > Duration::from_secs(4) {
            break;
        }
    }
    if !closed {
        // The write side may not notice the RST; the read side must see EOF.
        let mut buf = Vec::new();
        closed = matches!(stream.read_to_end(&mut buf), Ok(0) | Err(_)) && buf.is_empty();
    }
    assert!(closed, "loop must hang up on a connection that drips headers forever");
    assert!(
        t0.elapsed() < Duration::from_secs(4),
        "cutoff must come from the 150ms header deadline, not the client giving up"
    );
}

#[test]
fn tight_deadline_returns_typed_408_over_the_wire() {
    // Big enough that detection cannot finish inside 1ms.
    let (g, _) = cx_datagen::dblp_like(&cx_datagen::DblpParams::scaled(4000, 11));
    let server = Server::new(Engine::with_graph("dblp", g));
    let handle = server.serve_background().unwrap();
    let mut stream = TcpStream::connect(("127.0.0.1", handle.port())).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write!(
        stream,
        "GET /api/v1/detect?algo=louvain&timeout_ms=1 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 408"), "{raw}");
    let (_, body) = raw.split_once("\r\n\r\n").unwrap();
    let v = Json::parse(body).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    let code = v.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
    assert_eq!(code, Some("deadline_exceeded"), "{body}");
}

/// Bytes that do not parse as a request get a typed 400 in the plain
/// error shape, and the connection closes after it.
#[test]
fn malformed_request_gets_a_typed_400_and_a_close() {
    let server = fig5_server();
    let handle = server.serve_background().unwrap();
    let malformed = cx_obs::global().counter("cx_http_malformed_total");
    let before = malformed.get();
    let mut stream = TcpStream::connect(("127.0.0.1", handle.port())).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(stream, "POST /api/v1/edit HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
    let (head, body) = raw.split_once("\r\n\r\n").unwrap();
    assert!(head.lines().any(|l| l == "Connection: close"), "{head}");
    assert_eq!(body, r#"{"code":"bad_query","error":"chunked requests unsupported"}"#);
    assert_eq!(malformed.get(), before + 1);
}

#[test]
fn overload_sheds_with_503_and_retry_after() {
    let inflight = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));
    let handler: Arc<cx_server::http::RequestHandler> = {
        let (inflight, release) = (Arc::clone(&inflight), Arc::clone(&release));
        Arc::new(move |_req: &Request| {
            inflight.fetch_add(1, Ordering::SeqCst);
            // Hold the slot until the test has read every shed answer
            // (capped, so a failing test cannot wedge the worker).
            let t0 = Instant::now();
            while !release.load(Ordering::SeqCst) && t0.elapsed() < Duration::from_secs(20) {
                std::thread::sleep(Duration::from_millis(5));
            }
            Response::with_body("application/json", "\"slow but fine\"")
        })
    };
    let config = ServerConfig { workers: 2, max_inflight: 1, ..ServerConfig::default() };
    let handle = serve("127.0.0.1:0", config, handler).unwrap();
    let port = handle.port();

    // Occupy the single admission slot…
    let mut busy = TcpStream::connect(("127.0.0.1", port)).unwrap();
    busy.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write!(busy, "GET /slow HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
    let t0 = Instant::now();
    while inflight.load(Ordering::SeqCst) == 0 {
        assert!(t0.elapsed() < Duration::from_secs(5), "first request never dispatched");
        std::thread::sleep(Duration::from_millis(5));
    }

    // …then every further v1 request is shed on the loop thread: 16
    // excess connections at once, each answered in full, none reset.
    let excess: Vec<_> = (0..16)
        .map(|_| {
            std::thread::spawn(move || {
                let mut shed = TcpStream::connect(("127.0.0.1", port)).unwrap();
                shed.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                write!(shed, "GET /api/v1/stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
                    .unwrap();
                let mut raw = String::new();
                shed.read_to_string(&mut raw).expect("a shed connection is answered, not reset");
                raw
            })
        })
        .collect();
    for client in excess {
        let raw = client.join().unwrap();
        assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
        assert!(raw.to_ascii_lowercase().contains("retry-after: 1"), "{raw}");
        let (_, body) = raw.split_once("\r\n\r\n").unwrap();
        let v = Json::parse(body).unwrap();
        let code = v.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
        assert_eq!(code, Some("overloaded"), "{body}");
    }
    assert_eq!(inflight.load(Ordering::SeqCst), 1, "a shed request never reaches a worker");

    // The occupied slot still completes normally.
    release.store(true, Ordering::SeqCst);
    let mut raw = String::new();
    busy.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
}

#[test]
fn bearer_auth_is_enforced_over_the_wire() {
    let engine = Arc::new(Engine::with_graph("fig5", cx_datagen::figure5_graph()));
    let handler: Arc<cx_server::http::RequestHandler> = {
        let engine = Arc::clone(&engine);
        Arc::new(move |req: &Request| cx_server::routes::route(&engine, req, Some("sekrit")))
    };
    let handle = serve("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
    let port = handle.port();

    let get = |auth: Option<&str>| -> (u16, String) {
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let auth_line =
            auth.map(|t| format!("Authorization: Bearer {t}\r\n")).unwrap_or_default();
        write!(
            stream,
            "GET /api/v1/stats HTTP/1.1\r\nHost: x\r\n{auth_line}Connection: close\r\n\r\n"
        )
        .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status: u16 = raw.split_whitespace().nth(1).unwrap().parse().unwrap();
        let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
        (status, body)
    };

    let (status, body) = get(None);
    assert_eq!(status, 401, "{body}");
    let v = Json::parse(&body).unwrap();
    let code = v.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
    assert_eq!(code, Some("unauthorized"), "{body}");

    let (status, _) = get(Some("wrong"));
    assert_eq!(status, 401);

    let (status, body) = get(Some("sekrit"));
    assert_eq!(status, 200, "{body}");
}

#[test]
fn shutdown_drains_inflight_responses_then_refuses_connections() {
    let handler: Arc<cx_server::http::RequestHandler> =
        Arc::new(move |_req: &Request| {
            std::thread::sleep(Duration::from_millis(300));
            Response::with_body("application/json", "\"drained\"")
        });
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let mut handle = serve("127.0.0.1:0", config, handler).unwrap();
    let port = handle.port();

    let client = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write!(stream, "GET /work HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        raw
    });
    // Let the request go in-flight, then shut down while it's running.
    std::thread::sleep(Duration::from_millis(100));
    handle.shutdown();

    let raw = client.join().unwrap();
    assert!(raw.starts_with("HTTP/1.1 200"), "in-flight response must drain:\n{raw}");
    assert!(raw.contains("drained"), "{raw}");

    match TcpStream::connect(("127.0.0.1", port)) {
        Err(e) => assert!(
            matches!(e.kind(), ErrorKind::ConnectionRefused | ErrorKind::ConnectionReset),
            "unexpected connect error after shutdown: {e}"
        ),
        // A different process may have grabbed the port; reaching any
        // listener that isn't ours is still proof ours is gone — but a
        // fresh bind to the same port succeeding is the common case:
        Ok(_) => {
            // Tolerated: port reuse by another test. The drain assertion
            // above is the load-bearing part.
        }
    }
}
