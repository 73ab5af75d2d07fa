//! End-to-end contract tests for `POST /api/v1/search_batch` over the
//! real HTTP stack: mixed valid/invalid members degrade per-slot, item
//! pagination follows the GET `search` clamp rules, and the batch-size
//! cap is enforced.

use std::io::{Read, Write};
use std::net::TcpStream;

use cx_explorer::Engine;
use cx_server::{Json, Server};

fn http_post(port: u16, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    write!(
        stream,
        "POST {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw.split_whitespace().nth(1).unwrap().parse().unwrap();
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
    (status, body)
}

fn serve_fig5() -> cx_server::ServerHandle {
    Server::new(Engine::with_graph("fig5", cx_datagen::figure5_graph()))
        .serve_background()
        .unwrap()
}

#[test]
fn mixed_batch_degrades_per_slot() {
    let handle = serve_fig5();
    let port = handle.port();
    let body = r#"{"queries":[
        {"name":"A","k":2,"keywords":["x"]},
        {"names":["A","D"],"k":2},
        {"id":0,"k":2},
        {"name":"ZZZ","k":2},
        {"algo":"acq"},
        {"name":"A","algo":"ghost"},
        {"name":"A","k":"three"}
    ]}"#;
    let (status, resp) = http_post(port, "/api/v1/search_batch", body);
    assert_eq!(status, 200, "{resp}");
    let v = Json::parse(&resp).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let d = v.get("data").unwrap();
    assert_eq!(d.get("count").and_then(Json::as_f64), Some(7.0));
    assert_eq!(d.get("succeeded").and_then(Json::as_f64), Some(3.0));
    let results = d.get("results").and_then(Json::as_array).unwrap();

    // The three well-formed selectors (label, multi-label, id) succeed
    // and report the spec they resolved.
    for (i, want_label) in [(0usize, "A"), (1, "A"), (2, "A")] {
        let item = &results[i];
        assert_eq!(item.get("ok").and_then(Json::as_bool), Some(true), "item {i}");
        let data = item.get("data").unwrap();
        let q = data.get("query").unwrap();
        assert_eq!(q.get("label").and_then(Json::as_str), Some(want_label));
        assert_eq!(q.get("algo").and_then(Json::as_str), Some("acq"));
    }
    // Item 0 constrained on keyword "x" — part of the paper example's
    // shared theme, so the community survives the filter and its theme
    // (serialised straight from the interner) still lists both words.
    let constrained = results[0].get("data").unwrap();
    assert_eq!(constrained.get("total_communities").and_then(Json::as_f64), Some(1.0));
    let comms = constrained.get("communities").and_then(Json::as_array).unwrap();
    let theme = comms[0].get("theme").and_then(Json::as_array).unwrap();
    assert!(theme.iter().any(|t| t.as_str() == Some("x")), "{resp}");

    // The failures each carry the right typed code.
    let code = |i: usize| {
        results[i]
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .map(str::to_owned)
    };
    assert_eq!(code(3).as_deref(), Some("unknown_vertex"), "unknown label");
    assert_eq!(code(4).as_deref(), Some("bad_query"), "no vertex selector");
    assert_eq!(code(5).as_deref(), Some("unknown_algorithm"), "bogus algo");
    assert_eq!(code(6).as_deref(), Some("bad_query"), "non-integer k");
}

#[test]
fn item_pagination_clamps_like_get_search() {
    let handle = serve_fig5();
    let port = handle.port();
    let body = r#"{"queries":[
        {"name":"A","k":2,"limit":999999},
        {"name":"A","k":2,"limit":-7,"offset":-1},
        {"name":"A","k":2,"limit":2.5},
        {"name":"A","k":2,"offset":5}
    ]}"#;
    let (status, resp) = http_post(port, "/api/v1/search_batch", body);
    assert_eq!(status, 200, "{resp}");
    let v = Json::parse(&resp).unwrap();
    let results = v.get("data").unwrap().get("results").and_then(Json::as_array).unwrap();
    let data = |i: usize| results[i].get("data").unwrap().clone();
    // Oversize clamps to the max, hostile values fall back to defaults.
    assert_eq!(data(0).get("limit").and_then(Json::as_f64), Some(100.0));
    assert_eq!(data(1).get("limit").and_then(Json::as_f64), Some(20.0));
    assert_eq!(data(1).get("offset").and_then(Json::as_f64), Some(0.0));
    assert_eq!(data(2).get("limit").and_then(Json::as_f64), Some(20.0));
    // Offset past the end: empty slice, total preserved.
    assert_eq!(data(3).get("total_communities").and_then(Json::as_f64), Some(1.0));
    assert_eq!(data(3).get("communities").and_then(Json::as_array).map(|a| a.len()), Some(0));
}

#[test]
fn batch_cap_and_malformed_bodies_are_rejected_whole() {
    let handle = serve_fig5();
    let port = handle.port();
    let items: Vec<String> = (0..65).map(|_| r#"{"name":"A"}"#.to_owned()).collect();
    let oversize = format!("{{\"queries\":[{}]}}", items.join(","));
    for (body, want_code) in [
        (oversize.as_str(), "bad_query"),
        (r#"{"queries":[]}"#, "bad_query"),
        ("{broken", "bad_json"),
        (r#"{"queries":"nope"}"#, "bad_json"),
    ] {
        let (status, resp) = http_post(port, "/api/v1/search_batch", body);
        assert_eq!(status, 400, "{resp}");
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            v.get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
            Some(want_code),
            "{resp}"
        );
    }
}
