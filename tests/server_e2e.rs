//! End-to-end browser–server test: a real TCP client drives the full
//! Figure 3 stack — upload, suggest, search, compare, profile, SVG —
//! against a background server instance.

use std::io::{Read, Write};
use std::net::TcpStream;

use c_explorer::prelude::*;
use cx_server::{Json, Server};

fn http_get(port: u16, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    write!(stream, "GET {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n").unwrap();
    read_response(stream)
}

fn http_post(port: u16, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    write!(
        stream,
        "POST {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    )
    .unwrap();
    read_response(stream)
}

fn read_response(mut stream: TcpStream) -> (u16, String) {
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw.split_whitespace().nth(1).unwrap().parse().unwrap();
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
    (status, body)
}

/// The `data` member of a successful envelope.
fn data_of(body: &str) -> Json {
    let v = Json::parse(body).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{body}");
    v.get("data").unwrap().clone()
}

fn start_server() -> cx_server::ServerHandle {
    let engine = Engine::with_graph("fig5", cx_datagen::figure5_graph());
    let server = Server::new(engine);
    server.serve_background().unwrap()
}

#[test]
fn full_stack_over_tcp() {
    let handle = start_server();
    let port = handle.port();

    // Landing page.
    let (status, html) = http_get(port, "/");
    assert_eq!(status, 200);
    assert!(html.contains("C-Explorer"));

    // Capability discovery.
    let (status, body) = http_get(port, "/api/v1/graphs");
    assert_eq!(status, 200);
    let v = data_of(&body);
    assert_eq!(v.get("default_graph").and_then(Json::as_str), Some("fig5"));

    // The paper's worked example through the wire.
    let (status, body) = http_get(port, "/api/v1/search?name=A&k=2&algo=acq");
    assert_eq!(status, 200);
    let v = data_of(&body);
    let comms = v.get("communities").and_then(Json::as_array).unwrap();
    assert_eq!(comms.len(), 1);
    assert_eq!(comms[0].get("size").and_then(Json::as_f64), Some(3.0));

    // Suggestions.
    let (status, body) = http_get(port, "/api/v1/suggest?q=a&limit=3");
    assert_eq!(status, 200);
    assert!(!data_of(&body).as_array().unwrap().is_empty());

    // Comparison analysis.
    let (status, body) = http_get(port, "/api/v1/compare?name=A&k=2&algos=global,acq");
    assert_eq!(status, 200);
    let v = data_of(&body);
    assert_eq!(v.get("rows").and_then(Json::as_array).map(|r| r.len()), Some(2));

    // SVG export.
    let (status, svg) = http_get(port, "/api/v1/svg?name=A&k=2");
    assert_eq!(status, 200);
    assert!(svg.starts_with("<svg"));

    // Upload a new graph, then query it.
    let upload_body = "v\tx\tdb\nv\ty\tdb\nv\tz\tdb\ne\t0\t1\ne\t1\t2\ne\t0\t2\n";
    let (status, body) = http_post(port, "/api/v1/upload?name=tiny", upload_body);
    assert_eq!(status, 200, "{body}");
    let (status, body) = http_get(port, "/api/v1/search?graph=tiny&name=x&k=2&algo=acq");
    assert_eq!(status, 200, "{body}");
    let v = data_of(&body);
    let comms = v.get("communities").and_then(Json::as_array).unwrap();
    assert_eq!(comms[0].get("size").and_then(Json::as_f64), Some(3.0));

    // Errors come back as JSON with useful statuses.
    let (status, body) = http_get(port, "/api/v1/search?name=nobody");
    assert_eq!(status, 404);
    let v = Json::parse(&body).unwrap();
    assert_eq!(
        v.get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
        Some("unknown_vertex")
    );
}

/// Durability end to end: mutate a store-backed server over HTTP, then
/// boot a second server on the same directory and require identical
/// search results and generations — the restart is invisible on the wire.
#[test]
fn durable_server_survives_restart() {
    let dir = std::env::temp_dir().join(format!("cx-e2e-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // First life: upload a graph and edit it, all over TCP.
    let upload_body = "v\tx\tdb\nv\ty\tdb\nv\tz\tdb\nv\tw\tdb\ne\t0\t1\ne\t1\t2\ne\t0\t2\n";
    let (first_search, first_graphs) = {
        let server = Server::open_durable(&dir).unwrap();
        let handle = server.serve_background().unwrap();
        let port = handle.port();
        let (status, body) = http_post(port, "/api/v1/upload?name=tiny", upload_body);
        assert_eq!(status, 200, "{body}");
        // Grow the triangle into a K4: generation 2.
        let edit = r#"{"add":[[0,3],[1,3],[2,3]]}"#;
        let (status, body) = http_post(port, "/api/v1/edit?graph=tiny", edit);
        assert_eq!(status, 200, "{body}");
        let v = data_of(&body);
        assert_eq!(v.get("generation").and_then(Json::as_f64), Some(2.0));
        assert_eq!(v.get("edges").and_then(Json::as_f64), Some(6.0));
        let (status, search) = http_get(port, "/api/v1/search?graph=tiny&name=x&k=3&algo=acq");
        assert_eq!(status, 200, "{search}");
        let (status, graphs) = http_get(port, "/api/v1/graphs");
        assert_eq!(status, 200);
        (data_of(&search), data_of(&graphs))
    };

    // Second life: a fresh server on the same directory recovers the
    // exact state — same generations, identical search `data`.
    let server = Server::open_durable(&dir).unwrap();
    let handle = server.serve_background().unwrap();
    let port = handle.port();
    let (status, graphs) = http_get(port, "/api/v1/graphs");
    assert_eq!(status, 200);
    let v = data_of(&graphs);
    assert_eq!(v, first_graphs, "recovered registry must match pre-restart registry");
    assert_eq!(v.get("default_graph").and_then(Json::as_str), Some("tiny"));
    assert_eq!(
        v.get("generations").and_then(|g| g.get("tiny")).and_then(Json::as_f64),
        Some(2.0),
        "recovery must land on the edited generation"
    );
    let (status, search) = http_get(port, "/api/v1/search?graph=tiny&name=x&k=3&algo=acq");
    assert_eq!(status, 200, "{search}");
    assert_eq!(data_of(&search), first_search, "search results must be identical after restart");

    // The recovered server is still writable: the next edit continues
    // the generation sequence instead of restarting it.
    let (status, body) = http_post(port, "/api/v1/edit?graph=tiny", r#"{"remove":[[0,3]]}"#);
    assert_eq!(status, 200, "{body}");
    let v = data_of(&body);
    assert_eq!(v.get("generation").and_then(Json::as_f64), Some(3.0));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_are_served() {
    let handle = start_server();
    let port = handle.port();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let target = if i % 2 == 0 {
                    "/api/v1/search?name=A&k=2&algo=acq"
                } else {
                    "/api/v1/compare?name=A&k=2&algos=global,acq"
                };
                let (status, _) = http_get(port, target);
                assert_eq!(status, 200);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}
