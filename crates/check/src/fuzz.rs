//! Structure-aware fuzzing of the HTTP API.
//!
//! The driver takes its endpoint templates from the server's own table
//! ([`cx_server::routes::ENDPOINTS`]), so it cannot fall behind the
//! surface. It builds *valid* requests first (real labels, registered
//! algorithm names, well-formed bodies) and then mutates them:
//! truncation, type swaps, huge/negative numbers, unknown vertices,
//! graphs and keywords, junk percent-escapes, deep JSON nesting. The
//! contract it enforces on every response:
//!
//! * the handler never panics;
//! * the status is one of 200/400/401/404/405/408/429/503 — the client
//!   and operational-pushback codes; never a server-fault 5xx;
//! * the body is non-empty;
//! * JSON responses parse, and `/api/v1/*` JSON responses honour the
//!   envelope contract: `ok` mirrors the status class, `request_id` is a
//!   non-empty string, `elapsed_ms` is a number, and `error` is `null`
//!   on success or `{code, message}` (both non-empty) on failure.
//!
//! Everything is seeded, so a failing case replays deterministically.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use cx_par::rng::Rng64;
use cx_server::routes::{Body, ENDPOINTS};
use cx_server::{Json, Request, Response, Server};

/// Fuzzing knobs.
#[derive(Debug, Clone)]
pub struct FuzzParams {
    /// How many mutated requests to fire.
    pub requests: usize,
    /// RNG seed; same seed + same server setup → same request stream.
    pub seed: u64,
}

impl Default for FuzzParams {
    fn default() -> Self {
        Self { requests: 500, seed: 0xc0ffee }
    }
}

/// Outcome of a fuzzing run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Requests fired.
    pub total: usize,
    /// Requests whose handler panicked (must be 0).
    pub panics: usize,
    /// Contract violations, each with the offending request line.
    pub failures: Vec<String>,
    /// Responses seen per status code.
    pub status_counts: BTreeMap<u16, usize>,
    /// Requests generated from each [`ENDPOINTS`] row, by row index.
    pub row_counts: Vec<usize>,
}

impl FuzzReport {
    /// True when the run found no panics and no contract violations.
    pub fn ok(&self) -> bool {
        self.panics == 0 && self.failures.is_empty()
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        let statuses: Vec<String> =
            self.status_counts.iter().map(|(s, n)| format!("{s}×{n}")).collect();
        format!(
            "{} requests, {} panics, {} violations [{}]",
            self.total,
            self.panics,
            self.failures.len(),
            statuses.join(" ")
        )
    }
}

/// A pool of strings to draw valid and almost-valid values from.
struct ValuePool {
    labels: Vec<String>,
    algos: Vec<String>,
    graphs: Vec<String>,
    keywords: Vec<String>,
}

fn pool_from(server: &Server) -> ValuePool {
    let e = server.engine();
    let graphs: Vec<String> = e.graph_names();
    let mut algos: Vec<String> = e.cs_names().iter().map(|s| s.to_string()).collect();
    algos.extend(e.cd_names().iter().map(|s| s.to_string()));
    let (mut labels, mut keywords) = (Vec::new(), Vec::new());
    if let Ok(snap) = e.snapshot(None) {
        let g = &*snap.graph;
        labels = g.vertices().take(50).map(|v| g.label(v).to_owned()).collect();
        keywords = g
            .vertices()
            .take(10)
            .flat_map(|v| g.keyword_names(g.keywords(v)))
            .take(20)
            .collect();
    }
    ValuePool { labels, algos, graphs, keywords }
}

fn pick<'a>(rng: &mut Rng64, xs: &'a [String]) -> &'a str {
    if xs.is_empty() {
        return "";
    }
    &xs[(rng.next_u64() as usize) % xs.len()]
}

/// A hostile scalar: the classic boundary values plus junk.
fn hostile_value(rng: &mut Rng64) -> String {
    const CANNED: &[&str] = &[
        "-1",
        "0",
        "4294967295",
        "4294967296",
        "99999999999999999999",
        "1e309",
        "NaN",
        "",
        " ",
        "null",
        "true",
        "%zz%1",
        "%00",
        "a|b|c|||",
        "' OR 1=1 --",
        "<script>alert(1)</script>",
        "\u{202e}exe.tab",
        "名無しの権兵衛",
    ];
    match rng.next_u64() % 5 {
        0 => "x".repeat(1 + (rng.next_u64() % 2048) as usize),
        1 => format!("{}", rng.next_u64()),
        _ => CANNED[(rng.next_u64() as usize) % CANNED.len()].to_owned(),
    }
}

/// A valid-ish query-string value for the named parameter.
fn plausible_value(rng: &mut Rng64, pool: &ValuePool, param: &str) -> String {
    match param {
        "name" | "q" => pick(rng, &pool.labels).to_owned(),
        "names" => {
            let a = pick(rng, &pool.labels);
            let b = pick(rng, &pool.labels);
            format!("{a}|{b}")
        }
        "id" | "index" | "level" | "node" | "supernode" => format!("{}", rng.next_u64() % 64),
        "k" => format!("{}", rng.next_u64() % 6),
        "limit" | "max_nodes" => format!("{}", rng.next_u64() % 30),
        "offset" => format!("{}", rng.next_u64() % 10),
        // Plausible-looking ids in the format the server generates, but
        // from a range the process-global counter never reaches: whether
        // a low id hits depends on how many requests the whole test
        // binary has handled so far, which would make same-seed runs
        // disagree. The trace hit path has its own dedicated tests.
        "request_id" => format!("r{:08x}", 0xffff_0000u64 + rng.next_u64() % 600),
        "algo" => pick(rng, &pool.algos).to_owned(),
        "algos" => {
            let a = pick(rng, &pool.algos);
            let b = pick(rng, &pool.algos);
            format!("{a},{b}")
        }
        "graph" => pick(rng, &pool.graphs).to_owned(),
        "keywords" => {
            let a = pick(rng, &pool.keywords);
            let b = pick(rng, &pool.keywords);
            format!("{a},{b}")
        }
        "layout" => ["force", "circular", "shell", "kk"][(rng.next_u64() as usize) % 4].to_owned(),
        // Valid deadlines are kept comfortably above any in-process
        // handler's runtime: a tiny-but-valid value would expire (or not)
        // by wall clock, breaking the fuzz stream's determinism. Hostile
        // mutations still cover zero/negative/junk.
        "timeout_ms" => format!("{}", 60_000 + rng.next_u64() % 120_000),
        _ => hostile_value(rng),
    }
}

fn valid_edit_body(rng: &mut Rng64) -> String {
    let u = rng.next_u64() % 12;
    let v = rng.next_u64() % 12;
    format!("{{\"add\":[[{u},{v}]],\"remove\":[[{v},{u}]]}}")
}

fn valid_batch_body(rng: &mut Rng64, pool: &ValuePool) -> String {
    let n = 1 + rng.next_u64() % 3;
    let items: Vec<String> = (0..n)
        .map(|_| format!("{{\"name\":\"{}\",\"k\":{}}}", pick(rng, &pool.labels), rng.next_u64() % 4))
        .collect();
    format!("{{\"queries\":[{}]}}", items.join(","))
}

fn valid_upload_body(rng: &mut Rng64) -> String {
    let n = 2 + (rng.next_u64() % 5) as usize;
    let mut s = String::new();
    for i in 0..n {
        s.push_str(&format!("v\tu{i}\tkw{}\n", i % 3));
    }
    for i in 1..n {
        s.push_str(&format!("e\t0\t{i}\n"));
    }
    s
}

fn mutate_body(rng: &mut Rng64, body: &mut Vec<u8>) {
    match rng.next_u64() % 7 {
        0 => {
            // Truncate at a random byte.
            let at = (rng.next_u64() as usize) % (body.len() + 1);
            body.truncate(at);
        }
        1 => {
            // Replace a number with a string / float / negative.
            let swaps: &[&str] = &["\"zero\"", "-3", "1.5", "null", "1e400", "[]"];
            let s = String::from_utf8_lossy(body).replace(
                char::is_numeric,
                swaps[(rng.next_u64() as usize) % swaps.len()],
            );
            *body = s.into_bytes();
        }
        2 => {
            // Deep nesting (bounded well above the parser's depth cap).
            let depth = 70 + (rng.next_u64() % 60) as usize;
            *body = ("[".repeat(depth) + &"]".repeat(depth)).into_bytes();
        }
        3 => *body = hostile_value(rng).into_bytes(),
        4 => {
            // Invalid UTF-8.
            body.extend_from_slice(&[0xff, 0xfe, 0x80]);
        }
        5 => {
            // Huge vertex ids.
            *body = format!(
                "{{\"add\":[[{},{}]]}}",
                u64::MAX,
                rng.next_u64()
            )
            .into_bytes();
        }
        _ => {
            // Duplicate the body (garbage after valid JSON).
            let copy = body.clone();
            body.extend_from_slice(&copy);
        }
    }
}

/// Builds one request from row `row` of [`ENDPOINTS`]: a valid
/// instantiation of the row first, then 0–3 mutations.
fn generate(rng: &mut Rng64, pool: &ValuePool, row: usize) -> Request {
    let e = &ENDPOINTS[row];
    let (method, path) = (e.method, e.path);
    // The chokepoint reads `timeout_ms` on every /api/v1 row.
    let implied: &[&str] = if path.starts_with("/api/v1/") { &["timeout_ms"] } else { &[] };
    let mut pairs: Vec<(String, String)> = Vec::new();
    for &p in implied.iter().chain(e.params) {
        // `name`/`names`/`id` are alternatives; include each with 60%.
        if rng.next_u64() % 5 < 3 {
            pairs.push((p.to_owned(), plausible_value(rng, pool, p)));
        }
    }
    let mut body = match (e.body, path) {
        (Body::None, _) => String::new(),
        (Body::GraphText, _) => valid_upload_body(rng),
        (Body::Json, "/api/v1/edit") => valid_edit_body(rng),
        (Body::Json, _) => valid_batch_body(rng, pool),
    }
    .into_bytes();
    let mut method = method.to_owned();
    for _ in 0..rng.next_u64() % 4 {
        match rng.next_u64() % 6 {
            0 if !pairs.is_empty() => {
                // Swap one value for a hostile one.
                let i = (rng.next_u64() as usize) % pairs.len();
                pairs[i].1 = hostile_value(rng);
            }
            1 if !pairs.is_empty() => {
                // Drop a parameter.
                let i = (rng.next_u64() as usize) % pairs.len();
                pairs.remove(i);
            }
            2 => pairs.push((hostile_value(rng), hostile_value(rng))),
            3 if !body.is_empty() => mutate_body(rng, &mut body),
            4 => method = if method == "GET" { "POST".into() } else { "GET".into() },
            _ => {
                // Unknown graph / algo / vertex names.
                pairs.push((
                    ["graph", "algo", "name", "id"][(rng.next_u64() as usize) % 4].to_owned(),
                    format!("ghost-{}", rng.next_u64() % 1000),
                ));
            }
        }
    }
    let query: String = pairs
        .iter()
        .map(|(k, v)| format!("{}={}", url_encode(k), url_encode(v)))
        .collect::<Vec<_>>()
        .join("&");
    let target = if query.is_empty() { path.to_owned() } else { format!("{path}?{query}") };
    if method == "GET" {
        Request::get(&target)
    } else {
        Request::post(&target, body)
    }
}

fn url_encode(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' | b'|' | b','
            | b'%' => out.push(b as char),
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{b:02x}")),
        }
    }
    out
}

fn request_line(req: &Request) -> String {
    let mut q: Vec<String> = req.query.iter().map(|(k, v)| format!("{k}={v}")).collect();
    q.sort();
    format!("{} {}?{} body[{}B]", req.method, req.path, q.join("&"), req.body.len())
}

/// Checks the response contract for one request; returns a violation
/// message or `None`.
fn check_response(req: &Request, resp: &Response) -> Option<String> {
    let line = request_line(req);
    if !matches!(resp.status, 200 | 400 | 401 | 404 | 405 | 408 | 429 | 503) {
        return Some(format!("{line} → unexpected status {}", resp.status));
    }
    if resp.body.is_empty() {
        return Some(format!("{line} → empty body (status {})", resp.status));
    }
    if resp.content_type.starts_with("application/json") {
        let text = resp.text();
        let parsed = match Json::parse(&text) {
            Ok(v) => v,
            Err(e) => {
                return Some(format!(
                    "{line} → malformed JSON response ({e}): {}",
                    &text[..text.len().min(120)]
                ))
            }
        };
        // Canonical form: what a tree of the same value serialises to.
        // A hand-written fragment with a key out of order or a number in
        // another spelling parses fine and fails here.
        let canonical = parsed.to_string();
        if canonical != text {
            let at = canonical.bytes().zip(text.bytes()).take_while(|(a, b)| a == b).count();
            let near: String = text
                .char_indices()
                .filter(|&(i, _)| i + 40 >= at)
                .take(100)
                .map(|(_, c)| c)
                .collect();
            return Some(format!("{line} → JSON body is not canonical at byte {at}: …{near}"));
        }
        if req.path.starts_with("/api/v1/") {
            if let Some(v) = check_envelope(&line, resp.status, &parsed) {
                return Some(v);
            }
        }
    } else if resp.status >= 400 {
        return Some(format!(
            "{line} → error status {} with non-JSON content type {}",
            resp.status, resp.content_type
        ));
    }
    None
}

/// The `/api/v1` envelope contract for a parsed JSON response body.
fn check_envelope(line: &str, status: u16, parsed: &Json) -> Option<String> {
    let ok = match parsed.get("ok").and_then(Json::as_bool) {
        Some(b) => b,
        None => return Some(format!("{line} → v1 envelope missing boolean ok")),
    };
    if ok != (status < 400) {
        return Some(format!("{line} → v1 ok={ok} disagrees with status {status}"));
    }
    match parsed.get("request_id").and_then(Json::as_str) {
        Some(id) if !id.is_empty() => {}
        _ => return Some(format!("{line} → v1 envelope missing request_id")),
    }
    if parsed.get("elapsed_ms").and_then(Json::as_f64).is_none() {
        return Some(format!("{line} → v1 envelope missing numeric elapsed_ms"));
    }
    if parsed.get("data").is_none() {
        return Some(format!("{line} → v1 envelope missing data member"));
    }
    if status >= 400 {
        let Some(err) = parsed.get("error") else {
            return Some(format!("{line} → v1 error status without error object"));
        };
        let code = err.get("code").and_then(Json::as_str).unwrap_or("");
        let msg = err.get("message").and_then(Json::as_str).unwrap_or("");
        if code.is_empty() || msg.is_empty() {
            return Some(format!("{line} → v1 error without code/message"));
        }
    } else if parsed.get("error") != Some(&Json::Null) {
        return Some(format!("{line} → v1 success with non-null error"));
    }
    None
}

/// Fires `params.requests` mutated requests at the server and checks the
/// response contract on each. The engine behind the server is mutated by
/// successful `edit` / `upload` requests — by design, so the
/// fuzzer also exercises queries interleaved with churn.
pub fn fuzz_server(server: &Server, params: &FuzzParams) -> FuzzReport {
    let pool = pool_from(server);
    let mut rng = Rng64::seed_from_u64(params.seed);
    let mut report = FuzzReport { row_counts: vec![0; ENDPOINTS.len()], ..FuzzReport::default() };
    for _ in 0..params.requests {
        let row = (rng.next_u64() as usize) % ENDPOINTS.len();
        let req = generate(&mut rng, &pool, row);
        report.total += 1;
        report.row_counts[row] += 1;
        match catch_unwind(AssertUnwindSafe(|| server.handle(&req))) {
            Ok(resp) => {
                *report.status_counts.entry(resp.status).or_insert(0) += 1;
                if let Some(v) = check_response(&req, &resp) {
                    report.failures.push(v);
                }
            }
            Err(panic) => {
                report.panics += 1;
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic>".into());
                report.failures.push(format!("{} → PANIC: {msg}", request_line(&req)));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_explorer::Engine;

    fn server() -> Server {
        Server::new(Engine::with_graph("fig5", cx_datagen::figure5_graph()))
    }

    #[test]
    fn short_run_is_clean_and_deterministic() {
        let p = FuzzParams { requests: 80, seed: 11 };
        let r1 = fuzz_server(&server(), &p);
        assert!(r1.ok(), "{}\n{:#?}", r1.summary(), r1.failures);
        let r2 = fuzz_server(&server(), &p);
        assert_eq!(r1.status_counts, r2.status_counts, "fuzz stream must be deterministic");
    }

    #[test]
    fn contract_checker_flags_bad_responses() {
        let req = Request::get("/api/v1/search?name=A");
        let json = |status: u16, body: &str| Response {
            status,
            content_type: "application/json".into(),
            body: body.as_bytes().to_vec(),
            headers: Vec::new(),
        };
        // 500s are never acceptable.
        let bad = json(500, r#"{"error":"boom"}"#);
        assert!(check_response(&req, &bad).unwrap().contains("unexpected status"));
        // Error bodies must be the JSON envelope with a typed error.
        assert!(check_response(&req, &json(400, "{}")).unwrap().contains("missing boolean ok"));
        assert!(check_response(&req, &json(400, "{oops")).unwrap().contains("malformed"));
        let untyped = r#"{"data":null,"elapsed_ms":0,"error":{},"ok":false,"request_id":"r1"}"#;
        assert!(check_response(&req, &json(404, untyped)).unwrap().contains("code/message"));
        // Every JSON body is in the form its tree would serialise to.
        for spelled_otherwise in [
            r#"{"ok":true,"data":null,"error":null,"request_id":"r1","elapsed_ms":0}"#,
            r#"{"data":1.0,"elapsed_ms":0,"error":null,"ok":true,"request_id":"r1"}"#,
            r#"{"data":"a\/b","elapsed_ms":0,"error":null,"ok":true,"request_id":"r1"}"#,
            r#"{"data":[1, 2],"elapsed_ms":0,"error":null,"ok":true,"request_id":"r1"}"#,
        ] {
            let v = check_response(&req, &json(200, spelled_otherwise));
            assert!(v.as_deref().is_some_and(|v| v.contains("not canonical")), "{v:?}");
        }
        // A real error passes.
        let s = server();
        let real = s.handle(&Request::get("/api/v1/search?name=ZZZ"));
        assert_eq!(real.status, 404);
        assert!(check_response(&req, &real).is_none());
    }

    #[test]
    fn hostile_values_cover_boundaries() {
        let mut rng = Rng64::seed_from_u64(1);
        let mut seen_long = false;
        for _ in 0..200 {
            let v = hostile_value(&mut rng);
            if v.len() > 1000 {
                seen_long = true;
            }
        }
        assert!(seen_long, "long-string mutation must be reachable");
    }
}
