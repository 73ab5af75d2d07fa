//! API fuzz (cx-check driver): mutated requests — truncated bodies, type
//! swaps, huge/negative ids, unknown vertices/graphs/algorithms — must
//! never panic the handler, never produce a 5xx, and always return
//! well-formed JSON errors.

use cx_check::{fuzz_server, FuzzParams};
use cx_explorer::Engine;
use cx_server::{Json, Request, Server};

fn server() -> Server {
    let engine = Engine::with_graph("fig5", cx_datagen::figure5_graph());
    let (dblp, _) = cx_datagen::dblp_like(&cx_check::workload::check_params(90, 13));
    engine.add_graph("dblp", dblp);
    Server::new(engine)
}

#[test]
fn survives_500_mutated_requests() {
    let report = fuzz_server(&server(), &FuzzParams { requests: 500, seed: 0xFA11 });
    assert_eq!(report.total, 500);
    assert!(report.ok(), "{}\nfirst failures: {:?}", report.summary(), {
        let mut f = report.failures.clone();
        f.truncate(10);
        f
    });
    // The stream must actually exercise both success and error paths.
    assert!(report.status_counts.get(&200).copied().unwrap_or(0) > 0, "no 200s seen");
    assert!(
        report.status_counts.keys().any(|s| *s >= 400),
        "no error statuses seen"
    );
    // The stream follows the server's own table: every row was generated,
    // and the SSE row reached its real handler and streamed.
    for (row, n) in cx_server::routes::ENDPOINTS.iter().zip(&report.row_counts) {
        assert!(*n > 0, "{} {} was never generated", row.method, row.path);
    }
    assert!(report.streams > 0, "no detect_stream request actually streamed");
}

#[test]
fn fuzz_stream_is_deterministic() {
    let p = FuzzParams { requests: 120, seed: 42 };
    let a = fuzz_server(&server(), &p);
    let b = fuzz_server(&server(), &p);
    assert_eq!(a.status_counts, b.status_counts);
}

/// Directed regression cases distilled from the fuzzer's mutation
/// grammar — the handcrafted "worst of" each mutation class.
#[test]
fn directed_hostile_requests_get_json_errors() {
    let s = server();
    let cases = [
        Request::get("/api/v1/search?name=A&k=99999999999999999999"),
        Request::get("/api/v1/search?id=-5"),
        Request::get("/api/v1/search?name=%zz%1"),
        Request::get("/api/v1/svg?name=A&index=4294967296"),
        Request::get("/api/v1/compare?name=A&algos=,,,"),
        Request::get("/api/v1/detect?algo=<script>alert(1)</script>"),
        Request::get("/api/v1/profile?id=NaN"),
        Request::get("/api/v1/stats?graph=ghost-404"),
        Request::post("/api/v1/edit", &b"{\"add\":[[0,"[..]),
        Request::post("/api/v1/edit", &b"{\"add\":[[18446744073709551615,0]]}"[..]),
        Request::post("/api/v1/edit", [0xff, 0xfe, 0x80].as_slice()),
        Request::post("/api/v1/upload?name=x", &b"v\tonly-half"[..]),
    ];
    for req in cases {
        let resp = s.handle(&req);
        assert!(
            matches!(resp.status, 200 | 400 | 404 | 405),
            "{} {}: status {}",
            req.method,
            req.path,
            resp.status
        );
        if resp.status >= 400 {
            let v = Json::parse(&resp.text())
                .unwrap_or_else(|e| panic!("{} {}: bad JSON ({e})", req.method, req.path));
            let msg = v
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap_or("");
            assert!(!msg.is_empty(), "{} {}: empty error", req.method, req.path);
        }
    }
}
