//! The wire format, frozen: one representative request per endpoint plus
//! one error per error shape (envelope, `search_batch` item, plain), each
//! compared byte for byte with `tests/golden/wire.txt`. Only the fields
//! that carry wall-clock or process-global values are masked (see
//! [`MASKED`]).
//!
//! To re-bless after an intended wire change, delete the golden file and
//! run this test once: it writes the file and fails, asking for a rerun.

use cx_explorer::{Engine, Profile};
use cx_graph::VertexId;
use cx_server::{Request, Response, Server};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/wire.txt");

/// Fields whose scalar value is replaced by `0`: wall-clock durations, the
/// process-global request counter and the process-global trace count.
const MASKED: &[&str] = &["elapsed_ms", "request_id", "millis", "traces", "start_us", "dur_us"];

fn mask(body: &str) -> String {
    let mut out = body.to_owned();
    for key in MASKED {
        let pat = format!("\"{key}\":");
        let mut from = 0;
        while let Some(at) = out[from..].find(&pat) {
            let start = from + at + pat.len();
            let rest = &out[start..];
            let len = if let Some(s) = rest.strip_prefix('"') {
                s.find('"').map_or(rest.len(), |q| q + 2)
            } else {
                rest.find([',', '}', ']', '\n']).unwrap_or(rest.len())
            };
            out.replace_range(start..start + len, "0");
            from = start + 1;
        }
    }
    out
}

fn server() -> Server {
    let engine = Engine::with_graph("fig5", cx_datagen::figure5_graph());
    let profile = |name: &str, area: &str| Profile {
        name: name.into(),
        areas: vec![area.into()],
        institutes: vec!["HKU".into()],
        interests: vec!["community search".into(), "k-core".into()],
    };
    engine
        .set_profiles(
            None,
            [(VertexId(0), profile("A", "databases")), (VertexId(1), profile("B", "graphs"))],
        )
        .unwrap();
    // A second graph, so `graphs` lists more than one.
    let (big, _) = cx_datagen::dblp_like(&cx_datagen::DblpParams::scaled(4000, 11));
    engine.add_graph("dblp", big);
    Server::new(engine)
}

/// The response as the golden file records it.
fn record(resp: &Response) -> String {
    format!("{} {}\n{}", resp.status, resp.content_type, mask(&resp.text()))
}

/// Every case, in order, as `(name, recorded response)`. The order
/// matters: the engine's cache counters and generations evolve along it.
fn transcript() -> Vec<(&'static str, String)> {
    let s = server();
    let get = |target: &str| s.handle(&Request::get(target));
    let mut out: Vec<(&'static str, String)> = Vec::new();

    // Outside /api/v1.
    for (name, target) in [("index", "/"), ("index_html", "/index.html")] {
        let r = get(target);
        assert_eq!(r.text(), cx_server::ui::INDEX_HTML, "{target}");
        out.push((name, format!("{} {}\n<INDEX_HTML>", r.status, r.content_type)));
    }
    out.push(("healthz", record(&get("/healthz"))));
    let m = get("/metrics");
    assert!(m.text().contains("cx_http_requests_total{class=\"2xx\"}"), "{}", m.text());
    out.push(("metrics", format!("{} {}\n<EXPOSITION>", m.status, m.content_type)));

    // Reads.
    let graphs = get("/api/v1/graphs");
    let graphs_id = graphs.header("X-Request-Id").unwrap().to_owned();
    out.push(("graphs", record(&graphs)));
    out.push(("trace", record(&get(&format!("/api/v1/trace?request_id={graphs_id}")))));
    out.push(("stats", record(&get("/api/v1/stats?graph=fig5"))));
    out.push(("suggest", record(&get("/api/v1/suggest?q=&limit=3&offset=1"))));
    out.push(("search", record(&get("/api/v1/search?name=A&k=2&algo=acq"))));
    out.push((
        "search_names_keywords_page",
        record(&get(
            "/api/v1/search?names=A|D&k=2&keywords=x&layout=circular&limit=1&offset=0&timeout_ms=5000",
        )),
    ));
    out.push(("search_global", record(&get("/api/v1/search?id=4&k=1&algo=global&layout=shell"))));
    out.push((
        "search_batch",
        record(&s.handle(&Request::post(
            "/api/v1/search_batch?graph=fig5",
            r#"{"timeout_ms":5000,"queries":[
                {"name":"A","k":2,"keywords":["x"],"limit":5},
                {"names":["A","D"],"k":2,"algo":"global"},
                {"id":4,"k":1,"offset":1},
                {"name":"ZZZ","k":2},
                {"k":2},
                {"name":"A","algo":"ghost"},
                7
            ]}"#,
        ))),
    ));
    out.push(("svg", record(&get("/api/v1/svg?name=A&k=2&algo=acq&index=0&layout=kk"))));
    out.push(("svg_level", record(&get("/api/v1/svg?level=1&max_nodes=50"))));
    out.push(("svg_supernode", record(&get("/api/v1/svg?supernode=2&max_nodes=3"))));
    out.push(("compare", record(&get("/api/v1/compare?name=A&k=2&algos=global,local,acq"))));
    out.push(("detect", record(&get("/api/v1/detect?algo=codicil&limit=2"))));
    out.push(("profile", record(&get("/api/v1/profile?id=1"))));
    out.push(("hierarchy_level", record(&get("/api/v1/hierarchy?level=1&limit=5"))));
    out.push(("hierarchy_node", record(&get("/api/v1/hierarchy?node=2&limit=3"))));

    // The envelope error shape, one per way of getting there.
    out.push(("err_bad_query", record(&get("/api/v1/search?k=2"))));
    out.push(("err_unknown_vertex", record(&get("/api/v1/search?name=ZZZ"))));
    out.push(("err_unknown_algorithm", record(&get("/api/v1/detect?algo=ghost"))));
    out.push(("err_unknown_graph", record(&get("/api/v1/stats?graph=nope"))));
    out.push(("err_timeout_ms", record(&get("/api/v1/graphs?timeout_ms=0"))));
    out.push(("err_timeout_ms_unknown_endpoint", record(&get("/api/v1/nope?timeout_ms=x"))));
    out.push(("err_stale_node", record(&get("/api/v1/hierarchy?node=9999"))));
    out.push(("err_svg_index", record(&get("/api/v1/svg?name=A&k=2&index=9"))));
    out.push(("err_no_profile", record(&get("/api/v1/profile?id=5"))));
    out.push(("err_unknown_endpoint", record(&get("/api/v1/nope"))));
    out.push(("err_get_on_post_endpoint", record(&get("/api/v1/edit"))));
    out.push((
        "err_method",
        record(&s.handle(&Request::post("/api/v1/search?name=A", ""))),
    ));
    out.push((
        "err_bad_json",
        record(&s.handle(&Request::post("/api/v1/edit", r#"{"add":[[0]]}"#))),
    ));
    out.push((
        "err_batch_timeout_ms",
        record(&s.handle(&Request::post(
            "/api/v1/search_batch",
            r#"{"timeout_ms":"fast","queries":[{"name":"A"}]}"#,
        ))),
    ));
    out.push((
        "err_graph_text",
        record(&s.handle(&Request::post("/api/v1/upload?name=bad", "q\tjunk"))),
    ));

    // The plain error shape (anything outside /api/v1).
    out.push(("plain_unknown_path", record(&get("/nope"))));
    out.push(("plain_retired_namespace", record(&get("/api/search?name=A"))));
    out.push(("plain_method", record(&s.handle(&Request::post("/healthz", "")))));

    // Writes last: they move the generation.
    out.push((
        "upload",
        record(&s.handle(&Request::post(
            "/api/v1/upload?name=mine",
            "v\talice\tdb,ml\nv\tbob\tdb\nv\tcarol\tdb\ne\t0\t1\ne\t1\t2\ne\t0\t2\n",
        ))),
    ));
    out.push((
        "edit",
        record(&s.handle(&Request::post(
            "/api/v1/edit?graph=fig5",
            r#"{"add":[[4,5]],"remove":[[0,1]]}"#,
        ))),
    ));
    out.push(("stats_after_edit", record(&get("/api/v1/stats?graph=fig5"))));
    out
}

fn render(cases: &[(&'static str, String)]) -> String {
    cases.iter().map(|(name, body)| format!("=== {name}\n{body}\n")).collect()
}

#[test]
fn wire_format_is_frozen() {
    let cases = transcript();
    let Ok(golden) = std::fs::read_to_string(GOLDEN) else {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, render(&cases)).unwrap();
        panic!("{GOLDEN} was missing: wrote it from this run — review, commit and rerun");
    };
    let mut want = golden.split("=== ").skip(1);
    for (name, got) in &cases {
        let section = want.next().unwrap_or_else(|| panic!("golden file ends before {name}"));
        let (want_name, want_body) = section.split_once('\n').unwrap();
        assert_eq!(*name, want_name, "case order differs from the golden file");
        let want_body = want_body.strip_suffix('\n').unwrap();
        if got != want_body {
            let at = got.bytes().zip(want_body.bytes()).take_while(|(a, b)| a == b).count();
            let around = |s: &str| {
                let bytes = &s.as_bytes()[at.saturating_sub(60)..s.len().min(at + 60)];
                String::from_utf8_lossy(bytes).into_owned()
            };
            panic!(
                "{name}: wire bytes differ at offset {at} (got {} bytes, want {})\n got: …{}\nwant: …{}",
                got.len(),
                want_body.len(),
                around(got),
                around(want_body),
            );
        }
    }
    assert_eq!(want.next(), None, "golden file has cases this test no longer runs");
}
