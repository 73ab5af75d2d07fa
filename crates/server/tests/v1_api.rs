//! Integration tests for the versioned `/api/v1` surface: envelope shape
//! on every endpoint (success and each typed error code), pagination, and
//! the observability endpoints (`/healthz`, `/metrics`, `/api/v1/trace`).

use cx_explorer::Engine;
use cx_server::{Json, Request, Server};

fn server() -> Server {
    Server::new(Engine::with_graph("fig5", cx_datagen::figure5_graph()))
}

/// Parses a response body and asserts the envelope invariants, returning
/// `(data, error)`.
fn envelope_of(resp: &cx_server::Response) -> (Json, Json) {
    let v = Json::parse(&resp.text()).unwrap_or_else(|e| panic!("bad JSON ({e}): {}", resp.text()));
    let ok = v.get("ok").and_then(Json::as_bool).expect("ok must be a bool");
    assert_eq!(ok, resp.status < 400, "ok must mirror the status class");
    let id = v.get("request_id").and_then(Json::as_str).expect("request_id must be a string");
    assert!(!id.is_empty());
    assert_eq!(Some(id), resp.header("X-Request-Id"), "envelope and header ids must agree");
    assert!(v.get("elapsed_ms").and_then(Json::as_f64).is_some(), "elapsed_ms must be a number");
    let data = v.get("data").expect("data member must exist").clone();
    let error = v.get("error").expect("error member must exist").clone();
    if resp.status < 400 {
        assert_eq!(error, Json::Null, "success must carry error: null");
    } else {
        assert_eq!(data, Json::Null, "errors must carry data: null");
    }
    (data, error)
}

fn error_code(resp: &cx_server::Response) -> String {
    let (_, error) = envelope_of(resp);
    let code = error.get("code").and_then(Json::as_str).expect("error.code").to_owned();
    let msg = error.get("message").and_then(Json::as_str).expect("error.message");
    assert!(!msg.is_empty());
    code
}

#[test]
fn every_v1_endpoint_returns_a_well_formed_envelope_on_success() {
    let s = server();
    let success_targets = [
        "/api/v1/graphs",
        "/api/v1/stats",
        "/api/v1/suggest?q=A",
        "/api/v1/search?name=A&k=2&algo=acq",
        "/api/v1/compare?name=A&k=2&algos=global,acq",
        "/api/v1/detect?algo=codicil",
    ];
    for target in success_targets {
        let r = s.handle(&Request::get(target));
        assert_eq!(r.status, 200, "{target}: {}", r.text());
        let (data, _) = envelope_of(&r);
        assert_ne!(data, Json::Null, "{target}: data must be present");
    }
    // POST endpoints.
    let up = s.handle(&Request::post(
        "/api/v1/upload?name=mine",
        "v\ta\tx\nv\tb\tx\ne\t0\t1\n",
    ));
    assert_eq!(up.status, 200, "{}", up.text());
    let (data, _) = envelope_of(&up);
    assert_eq!(data.get("vertices").and_then(Json::as_f64), Some(2.0));
    let ed = s.handle(&Request::post("/api/v1/edit", "{}"));
    assert_eq!(ed.status, 200);
    envelope_of(&ed);
}

#[test]
fn every_typed_error_code_is_reachable() {
    let s = server();
    let cases: &[(&str, Request)] = &[
        ("bad_query", Request::get("/api/v1/search?k=2")),
        ("bad_query", Request::get("/api/v1/profile?id=x")),
        ("unknown_vertex", Request::get("/api/v1/search?name=ZZZ")),
        ("unknown_algorithm", Request::get("/api/v1/search?name=A&algo=ghost")),
        ("unknown_graph", Request::get("/api/v1/stats?graph=nope")),
        ("bad_json", Request::post("/api/v1/edit", "not json")),
        ("bad_json", Request::post("/api/v1/edit", r#"{"add":[[0]]}"#)),
        ("graph_error", Request::post("/api/v1/upload?name=bad", "q\tjunk")),
        ("not_found", Request::get("/api/v1/nope")),
        ("not_found", Request::get("/api/v1/svg?name=A&k=2&index=9")),
        ("method_not_allowed", Request::post("/api/v1/search?name=A", "")),
    ];
    for (want, req) in cases {
        let r = s.handle(req);
        assert!(r.status >= 400, "{} {} should fail", req.method, req.path);
        let got = error_code(&r);
        assert_eq!(&got, want, "{} {}", req.method, req.path);
    }
    // no_graph needs an engine with no graphs at all.
    let empty = Server::new(Engine::new());
    let r = empty.handle(&Request::get("/api/v1/stats"));
    assert_eq!(r.status, 400, "{}", r.text());
    assert_eq!(error_code(&r), "no_graph");
}

#[test]
fn v1_search_pagination() {
    let s = server();
    let r = s.handle(&Request::get("/api/v1/search?name=A&k=2&limit=1&offset=0"));
    let (data, _) = envelope_of(&r);
    assert_eq!(data.get("limit").and_then(Json::as_f64), Some(1.0));
    assert_eq!(data.get("total_communities").and_then(Json::as_f64), Some(1.0));
    assert_eq!(
        data.get("communities").and_then(Json::as_array).map(|a| a.len()),
        Some(1)
    );
    // Offset past the end: empty page, same total.
    let r = s.handle(&Request::get("/api/v1/search?name=A&k=2&limit=1&offset=5"));
    let (data, _) = envelope_of(&r);
    assert_eq!(data.get("total_communities").and_then(Json::as_f64), Some(1.0));
    assert_eq!(
        data.get("communities").and_then(Json::as_array).map(|a| a.len()),
        Some(0)
    );
}

#[test]
fn v1_suggest_pagination() {
    let s = server();
    let all = s.handle(&Request::get("/api/v1/suggest?q=&limit=10"));
    let (all, _) = envelope_of(&all);
    let all = all.as_array().unwrap().to_vec();
    assert!(all.len() >= 3);
    let page = s.handle(&Request::get("/api/v1/suggest?q=&limit=2&offset=2"));
    let (page, _) = envelope_of(&page);
    let page = page.as_array().unwrap();
    assert_eq!(page.len(), 2);
    assert_eq!(page[0], all[2]);
}

#[test]
fn healthz_reports_readiness() {
    let s = server();
    let r = s.handle(&Request::get("/healthz"));
    assert_eq!(r.status, 200);
    let v = Json::parse(&r.text()).unwrap();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(v.get("graph_loaded").and_then(Json::as_bool), Some(true));
    assert!(v.get("graphs").and_then(Json::as_f64).unwrap() >= 1.0);
    // Liveness without readiness: empty engine still answers 200.
    let empty = Server::new(Engine::new());
    let r = empty.handle(&Request::get("/healthz"));
    assert_eq!(r.status, 200);
    let v = Json::parse(&r.text()).unwrap();
    assert_eq!(v.get("graph_loaded").and_then(Json::as_bool), Some(false));
}

#[test]
fn metrics_expose_http_route_and_span_families() {
    let s = server();
    // Drive a couple of requests so the families exist.
    s.handle(&Request::get("/api/v1/search?name=A&k=2&algo=acq"));
    s.handle(&Request::get("/api/v1/graphs"));
    let r = s.handle(&Request::get("/metrics"));
    assert_eq!(r.status, 200);
    assert!(r.content_type.starts_with("text/plain"));
    let body = r.text();
    for needle in [
        "# TYPE cx_http_requests_total counter",
        "cx_http_requests_total{class=\"2xx\"}",
        "cx_http_bytes_out_total",
        "cx_http_request_duration_us_count",
        "cx_http_request_duration_us_p50",
        "cx_route_duration_us_bucket{endpoint=\"search\",le=",
        "cx_span_duration_us_bucket{span=\"engine.search\",le=",
        "cx_engine_cache_total{event=\"miss\"}",
        // The snapshot-engine families: publishes, live versions, and
        // how long the registry lock is actually held.
        "cx_snapshot_swap_total",
        "cx_snapshots_live",
        "cx_graphs_loaded",
        "cx_registry_lock_hold_us_count",
    ] {
        assert!(body.contains(needle), "missing {needle:?} in:\n{body}");
    }
}

#[test]
fn trace_endpoint_returns_the_span_tree_for_a_request() {
    let s = server();
    let search = s.handle(&Request::get("/api/v1/search?name=A&k=2&algo=acq"));
    assert_eq!(search.status, 200);
    let id = search.header("X-Request-Id").expect("request id header").to_owned();
    let r = s.handle(&Request::get(&format!("/api/v1/trace?request_id={id}")));
    assert_eq!(r.status, 200, "{}", r.text());
    let (data, _) = envelope_of(&r);
    assert_eq!(data.get("request_id").and_then(Json::as_str), Some(id.as_str()));
    let spans = data.get("spans").and_then(Json::as_array).unwrap();
    let names: Vec<&str> = spans.iter().filter_map(|s| s.get("name").and_then(Json::as_str)).collect();
    assert!(names.contains(&"http.request"), "{names:?}");
    assert!(names.contains(&"route.search"), "{names:?}");
    assert!(names.contains(&"engine.search"), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("algo.")), "{names:?}");
    // Root span has no parent; route.search nests under http.request.
    assert_eq!(spans[0].get("name").and_then(Json::as_str), Some("http.request"));
    assert_eq!(spans[0].get("parent"), Some(&Json::Null));
    let route_idx = names.iter().position(|n| *n == "route.search").unwrap();
    assert_eq!(spans[route_idx].get("parent").and_then(Json::as_f64), Some(0.0));
    // The nested tree mirrors the flat list.
    let tree = data.get("tree").and_then(Json::as_array).unwrap();
    assert_eq!(tree.len(), 1, "one root");
    assert_eq!(tree[0].get("name").and_then(Json::as_str), Some("http.request"));
    assert!(!tree[0].get("children").and_then(Json::as_array).unwrap().is_empty());

    // Error paths of the trace endpoint itself.
    let r = s.handle(&Request::get("/api/v1/trace"));
    assert_eq!(r.status, 400);
    assert_eq!(error_code(&r), "bad_query");
    let r = s.handle(&Request::get("/api/v1/trace?request_id=rffffffff"));
    assert_eq!(r.status, 404);
    assert_eq!(error_code(&r), "not_found");
}
