//! The REST API over the engine — the protocol the browser page speaks.
//!
//! [`ENDPOINTS`] is the one list of what the server answers: each row
//! names a method, a path, the query parameters its handler reads, the
//! body it expects, and the handler. [`route`] is the one way in — the
//! event loop, `Server::handle`, the fuzzer and the benchmark all call it
//! — and does the same things in the same order for every request:
//! request id → trace → auth → table lookup → `timeout_ms` → timed span →
//! handler → envelope → `cx_http_*` counters. cx-check builds its fuzz
//! templates from the table and a test holds API.md to it, so adding a
//! route is adding a row. This file is that chokepoint; the handlers live
//! by family in `ops`, `browse`, `search` and `write`, and each writes its
//! JSON once, in key order, with `crate::json::ObjectWriter`.
//!
//! The API lives under `/api/v1/*`. Every JSON response is wrapped in a
//! uniform envelope `{"ok", "data", "error", "request_id",
//! "elapsed_ms"}`; errors carry a typed code from [`ErrorCode`]. The
//! binary endpoint (`/api/v1/svg`) returns its payload raw on success and
//! the JSON envelope on error. Outside the API there are the
//! embedded page (`/`), `GET /metrics` (Prometheus text exposition of the
//! `cx-obs` registry) and `GET /healthz`; any other path — including the
//! retired unversioned `/api/*` names — is unknown and answers with the
//! plain `{"error", "code"}` shape.
//!
//! Concurrency: the engine is shared as a plain `&Engine` — no request
//! ever takes a server-wide lock. Read handlers pin one immutable
//! [`cx_explorer::GraphSnapshot`] up front and serve the entire response
//! from it, so every field of a response (counts, communities, layout,
//! generation) is consistent with exactly one published graph version
//! even while edits land concurrently. Write handlers (`edit`, `upload`)
//! publish a new snapshot atomically; in-flight readers are unaffected.

mod browse;
mod ops;
mod search;
mod write;

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use cx_explorer::{Engine, ExplorerError, GraphSnapshot};
use cx_par::task::CancelToken;

use crate::http::{Request, Response};
use crate::json::{object, Json, ObjectWriter};

/// Typed, stable error codes for the JSON API. The HTTP status of every
/// error is derived from its code in exactly one place ([`ErrorCode::status`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Query parameters are structurally invalid (missing/ill-typed).
    BadQuery,
    /// The request body is not valid UTF-8 JSON of the expected shape.
    BadJson,
    /// No graph has been uploaded yet.
    NoGraph,
    /// An underlying graph operation failed (parse, bounds).
    GraphError,
    /// The query vertex could not be resolved.
    UnknownVertex,
    /// The named graph is not registered.
    UnknownGraph,
    /// The named algorithm is not registered (or is of the wrong kind).
    UnknownAlgorithm,
    /// No such resource (endpoint, community index, profile, trace).
    NotFound,
    /// The endpoint exists, but not for this HTTP method.
    MethodNotAllowed,
    /// A server-side subsystem failed (durable store I/O). The request
    /// was valid; retrying may succeed.
    Internal,
    /// The request's `timeout_ms` deadline expired (or the client went
    /// away) before the algorithm finished; the partial result was
    /// discarded. Retrying with a larger `timeout_ms` may succeed.
    DeadlineExceeded,
    /// The server's in-flight budget is exhausted; the request was shed
    /// without being executed. The response carries `Retry-After`.
    Overloaded,
    /// `CX_AUTH_TOKEN` is set and the request carried no (or the wrong)
    /// `Authorization: Bearer …` header.
    Unauthorized,
}

impl ErrorCode {
    /// The wire identifier (`"bad_query"`, `"unknown_vertex"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadQuery => "bad_query",
            ErrorCode::BadJson => "bad_json",
            ErrorCode::NoGraph => "no_graph",
            ErrorCode::GraphError => "graph_error",
            ErrorCode::UnknownVertex => "unknown_vertex",
            ErrorCode::UnknownGraph => "unknown_graph",
            ErrorCode::UnknownAlgorithm => "unknown_algorithm",
            ErrorCode::NotFound => "not_found",
            ErrorCode::MethodNotAllowed => "method_not_allowed",
            ErrorCode::Internal => "internal",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Unauthorized => "unauthorized",
        }
    }

    /// The HTTP status the code maps to (same statuses the pre-v1 API used).
    pub fn status(self) -> u16 {
        match self {
            ErrorCode::BadQuery
            | ErrorCode::BadJson
            | ErrorCode::NoGraph
            | ErrorCode::GraphError => 400,
            ErrorCode::UnknownVertex
            | ErrorCode::UnknownGraph
            | ErrorCode::UnknownAlgorithm
            | ErrorCode::NotFound => 404,
            ErrorCode::MethodNotAllowed => 405,
            ErrorCode::Internal => 500,
            ErrorCode::DeadlineExceeded => 408,
            ErrorCode::Overloaded => 503,
            ErrorCode::Unauthorized => 401,
        }
    }
}

/// A typed API error: machine-readable code plus human-readable message.
#[derive(Debug, Clone)]
pub struct ApiError {
    /// The typed code (drives both the HTTP status and the wire `code`).
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
}

impl ApiError {
    fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ApiError { code, message: message.into() }
    }

    fn bad_query(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::BadQuery, message)
    }

    fn bad_json(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::BadJson, message)
    }

    fn not_found(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::NotFound, message)
    }

    /// Writes the error as it goes on the wire: `{"code", "message"}` in
    /// the envelope and a `search_batch` item; outside `/api/v1` the
    /// message sits under the historical `"error"` key instead.
    fn write_into(&self, out: &mut String, message_key: &'static str) {
        let mut o = ObjectWriter::new(out);
        o.str("code", self.code.as_str()).str(message_key, &self.message).close();
    }
}

/// The one place an engine error becomes an API error.
impl From<ExplorerError> for ApiError {
    fn from(e: ExplorerError) -> Self {
        let code = match &e {
            ExplorerError::UnknownAlgorithm(_) => ErrorCode::UnknownAlgorithm,
            ExplorerError::UnknownGraph(_) => ErrorCode::UnknownGraph,
            ExplorerError::UnknownVertex(_) => ErrorCode::UnknownVertex,
            ExplorerError::BadQuery(_) => ErrorCode::BadQuery,
            ExplorerError::NoGraph => ErrorCode::NoGraph,
            ExplorerError::Graph(_) => ErrorCode::GraphError,
            // Store failures are the server's fault, not the client's.
            // Fuzzed engines never attach a store, so the never-5xx fuzz
            // contract is unaffected.
            ExplorerError::Store(_) => ErrorCode::Internal,
            ExplorerError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
        };
        ApiError::new(code, e.to_string())
    }
}

// ---------------------------------------------------------------------------
// The endpoint table

/// What a handler produced.
enum Payload {
    /// A written JSON document, sent inside the envelope.
    Data(String),
    /// A finished response, sent as is (SVG, HTML, metrics text, and the
    /// unenveloped `/healthz`).
    Raw(Response),
}

type Handler = Result<Payload, ApiError>;

/// A `data` object: `members` writes its members in ascending key order.
fn data(members: impl FnOnce(&mut ObjectWriter<'_>)) -> Handler {
    Ok(Payload::Data(object(members)))
}

/// What an endpoint reads from the request body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Body {
    /// Nothing.
    None,
    /// A JSON document.
    Json,
    /// A graph in the text format (`v`/`e` lines).
    GraphText,
}

/// One row of [`ENDPOINTS`].
pub struct Endpoint {
    /// `GET` or `POST`.
    pub method: &'static str,
    /// The exact path.
    pub path: &'static str,
    /// Every query parameter the handler reads (its accessor,
    /// `Ctx::param`, refuses any other name). `timeout_ms` is implied on
    /// each `/api/v1` row: the chokepoint reads it, not the handler.
    pub params: &'static [&'static str],
    /// What the handler reads from the body.
    pub body: Body,
    handler: fn(&Ctx) -> Handler,
}

const fn row(
    method: &'static str,
    path: &'static str,
    params: &'static [&'static str],
    body: Body,
    handler: fn(&Ctx) -> Handler,
) -> Endpoint {
    Endpoint { method, path, params, body, handler }
}

/// Every `(method, path)` the server answers. Kept dumb on purpose:
/// handlers parse and clamp their own values; a row only *names* what its
/// handler reads.
#[rustfmt::skip]
pub const ENDPOINTS: &[Endpoint] = &[
    row("GET", "/", &[], Body::None, ops::index),
    row("GET", "/index.html", &[], Body::None, ops::index),
    row("GET", "/metrics", &[], Body::None, ops::metrics_text),
    row("GET", "/healthz", &[], Body::None, ops::healthz),
    row("GET", "/api/v1/graphs", &[], Body::None, browse::graphs),
    row("GET", "/api/v1/stats", &["graph"], Body::None, browse::stats),
    row("GET", "/api/v1/suggest", &["q", "limit", "offset", "graph"], Body::None, browse::suggest),
    row("GET", "/api/v1/hierarchy", &["level", "node", "limit", "graph"], Body::None, browse::hierarchy),
    row("GET", "/api/v1/search", &["name", "names", "id", "k", "keywords", "algo", "layout", "limit", "offset", "graph"], Body::None, search::search),
    row("POST", "/api/v1/search_batch", &["graph"], Body::Json, search::search_batch),
    row("GET", "/api/v1/detect", &["algo", "limit", "graph"], Body::None, search::detect),
    row("GET", "/api/v1/compare", &["name", "names", "id", "k", "keywords", "algos", "graph"], Body::None, search::compare),
    row("GET", "/api/v1/svg", &["name", "names", "id", "k", "keywords", "algo", "index", "layout", "level", "supernode", "max_nodes", "graph"], Body::None, search::svg),
    row("GET", "/api/v1/profile", &["id", "graph"], Body::None, browse::profile),
    row("POST", "/api/v1/upload", &["name"], Body::GraphText, write::upload),
    row("POST", "/api/v1/edit", &["graph"], Body::Json, write::edit),
    row("GET", "/api/v1/trace", &["request_id"], Body::None, ops::trace),
];

/// What a handler gets: the engine, the request, and what the chokepoint
/// already settled for it.
struct Ctx<'a> {
    engine: &'a Engine,
    req: &'a Request,
    /// The validated `timeout_ms` (the default outside `/api/v1`).
    timeout: Duration,
    /// The row's `params`.
    declared: &'static [&'static str],
}

impl Ctx<'_> {
    /// A query parameter the row declares. Reading an undeclared one is
    /// a bug: the fuzzer and API.md would not know about it.
    fn param(&self, name: &str) -> Option<&str> {
        debug_assert!(self.declared.contains(&name), "{name:?} is not declared on this row");
        self.req.param(name)
    }

    /// [`Ctx::param`] parsed to a type; absent or unparseable is `default`.
    fn param_as<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.param(name).and_then(|s| s.parse().ok()).unwrap_or(default)
    }

    /// Pins the snapshot `graph` names (or the default graph's).
    fn snapshot(&self) -> Result<Arc<GraphSnapshot>, ExplorerError> {
        self.engine.snapshot(self.param("graph"))
    }

    /// A cancel token that fires when the request's deadline does.
    fn token(&self) -> CancelToken {
        CancelToken::with_timeout(self.timeout)
    }

    /// The body as a JSON document.
    fn json_body(&self) -> Result<Json, ApiError> {
        let body = std::str::from_utf8(&self.req.body)
            .map_err(|_| ApiError::bad_json("body must be UTF-8 JSON"))?;
        Json::parse(body).map_err(|e| ApiError::bad_json(format!("bad JSON: {e}")))
    }
}

// ---------------------------------------------------------------------------
// The chokepoint

/// Default per-request deadline (ms) when the client sends no `timeout_ms`.
pub const DEFAULT_TIMEOUT_MS: u64 = 30_000;

/// Upper clamp for client-supplied `timeout_ms` values.
pub const MAX_TIMEOUT_MS: u64 = 300_000;

/// The `timeout_ms` rule, for the query string and the `search_batch`
/// body alike: a positive integer, clamped to [`MAX_TIMEOUT_MS`]; `None`
/// stands for anything else that was sent (zero, negative, fractional,
/// non-numeric) and is a typed `bad_query`.
fn timeout_ms(sent: Option<u64>) -> Result<Duration, ApiError> {
    match sent {
        Some(ms) if ms >= 1 => Ok(Duration::from_millis(ms.min(MAX_TIMEOUT_MS))),
        _ => Err(ApiError::bad_query("timeout_ms must be a positive integer (milliseconds)")),
    }
}

/// The bearer token required for `/api/*` requests, from `CX_AUTH_TOKEN`.
/// Read once: the deployment model is "set before start", and a per-request
/// `env::var` would make the auth decision racy with concurrent `set_var`.
pub(crate) fn env_auth_token() -> Option<&'static str> {
    static TOKEN: std::sync::OnceLock<Option<String>> = std::sync::OnceLock::new();
    TOKEN.get_or_init(|| std::env::var("CX_AUTH_TOKEN").ok().filter(|t| !t.is_empty())).as_deref()
}

/// Enforces bearer auth when a token is required. Only `/api/*` paths are
/// guarded — `/`, `/healthz` and `/metrics` stay open so probes and
/// scrapers work without credentials.
fn check_auth(req: &Request, required: Option<&str>) -> Result<(), ApiError> {
    let Some(required) = required else { return Ok(()) };
    if !req.path.starts_with("/api/") {
        return Ok(());
    }
    let presented =
        req.header("authorization").and_then(|v| v.strip_prefix("Bearer ")).map(str::trim);
    if presented == Some(required) {
        Ok(())
    } else {
        cx_obs::metrics::inc("cx_http_unauthorized_total");
        Err(ApiError::new(ErrorCode::Unauthorized, "missing or invalid bearer token"))
    }
}

/// Answers one request — the only way into the API. `auth` is the bearer
/// token `/api/*` requests must present, if any.
pub fn route(engine: &Engine, req: &Request, auth: Option<&str>) -> Response {
    let t0 = Instant::now();
    let request_id = cx_obs::trace::next_request_id();
    let mut resp = {
        let _trace = cx_obs::trace::begin_request(&request_id);
        let _span = cx_obs::span("http.request");
        match dispatch(engine, req, auth) {
            Ok(Payload::Data(data)) => {
                let mut body = String::with_capacity(data.len() + 128);
                write_outcome(&mut body, Ok(&data), Some((&request_id, t0)));
                Response::with_body("application/json", body)
            }
            Ok(Payload::Raw(resp)) => resp,
            Err(e) => error_response(e, req, &request_id, t0),
        }
    };
    cx_obs::metrics::inc(match resp.status {
        200..=299 => "cx_http_requests_total{class=\"2xx\"}",
        300..=399 => "cx_http_requests_total{class=\"3xx\"}",
        400..=499 => "cx_http_requests_total{class=\"4xx\"}",
        _ => "cx_http_requests_total{class=\"5xx\"}",
    });
    cx_obs::metrics::add("cx_http_bytes_in_total", req.body.len() as u64);
    cx_obs::metrics::add("cx_http_bytes_out_total", resp.body.len() as u64);
    cx_obs::metrics::observe_us("cx_http_request_duration_us", t0.elapsed().as_micros() as u64);
    resp.headers.push(("X-Request-Id".into(), request_id));
    resp
}

fn dispatch(engine: &Engine, req: &Request, auth: Option<&str>) -> Handler {
    check_auth(req, auth)?;
    let row = ENDPOINTS.iter().position(|e| e.method == req.method && e.path == req.path);
    // Nonsense in `timeout_ms` is a typed 400 on every `/api/v1` path,
    // known or not, so it is judged before a miss is reported.
    let v1 = req.path.starts_with("/api/v1/");
    let timeout = match req.param("timeout_ms") {
        Some(s) if v1 => timeout_ms(s.parse().ok())?,
        _ => Duration::from_millis(DEFAULT_TIMEOUT_MS),
    };
    let Some(i) = row else {
        return Err(if req.method == "GET" {
            ApiError::not_found("no such endpoint")
        } else {
            ApiError::new(ErrorCode::MethodNotAllowed, "method not allowed")
        });
    };
    let row = &ENDPOINTS[i];
    let ctx = Ctx { engine, req, timeout, declared: row.params };
    let Some((span, histogram)) = route_names(i) else {
        return (row.handler)(&ctx);
    };
    // Per-endpoint span + latency histogram. The label comes from the
    // table, so a hostile path can't explode metric cardinality.
    let _span = cx_obs::span(span);
    let t = Instant::now();
    let out = (row.handler)(&ctx);
    cx_obs::metrics::observe_us(histogram, t.elapsed().as_micros() as u64);
    out
}

/// The `route.<endpoint>` span and `cx_route_duration_us{endpoint=…}`
/// histogram names of `ENDPOINTS[i]` (`None` outside `/api/v1`), spelled
/// once per process so that a request formats neither.
fn route_names(i: usize) -> Option<(&'static str, &'static str)> {
    static NAMES: OnceLock<Vec<Option<(String, String)>>> = OnceLock::new();
    let names = NAMES.get_or_init(|| {
        ENDPOINTS
            .iter()
            .map(|e| {
                let label = e.path.strip_prefix("/api/v1/")?;
                let histogram = format!("cx_route_duration_us{{endpoint=\"{label}\"}}");
                Some((format!("route.{label}"), histogram))
            })
            .collect()
    });
    names[i].as_ref().map(|(span, histogram)| (span.as_str(), histogram.as_str()))
}

/// Writes `{data, error, ok}`, the whole of a `search_batch` item; with
/// a request id and the request's start, the v1 envelope, which adds
/// `elapsed_ms` and `request_id`.
fn write_outcome(
    out: &mut String,
    result: Result<&str, &ApiError>,
    envelope: Option<(&str, Instant)>,
) {
    let mut o = ObjectWriter::new(out);
    o.key("data").push_str(result.unwrap_or("null"));
    if let Some((_, t0)) = envelope {
        o.num("elapsed_ms", t0.elapsed().as_secs_f64() * 1e3);
    }
    match result {
        Ok(_) => o.key("error").push_str("null"),
        Err(e) => e.write_into(o.key("error"), "message"),
    }
    o.bool("ok", result.is_ok());
    if let Some((request_id, _)) = envelope {
        o.str("request_id", request_id);
    }
    o.close();
}

/// An error in the shape its path speaks: the envelope under `/api/v1`,
/// the plain `{"code", "error"}` object anywhere else.
fn error_response(e: ApiError, req: &Request, request_id: &str, t0: Instant) -> Response {
    let mut body = String::new();
    if req.path.starts_with("/api/v1/") {
        write_outcome(&mut body, Err(&e), Some((request_id, t0)));
    } else {
        e.write_into(&mut body, "error");
    }
    let r = Response { status: e.code.status(), ..Response::with_body("application/json", body) };
    if e.code == ErrorCode::Overloaded {
        return r.with_header("Retry-After", "1");
    }
    r
}

/// What the event loop sends for bytes that do not parse as a request,
/// just before it closes the connection: a `bad_query` in the plain shape.
pub(crate) fn malformed_response(status: u16, message: &str) -> Response {
    let mut body = String::new();
    ApiError::bad_query(message).write_into(&mut body, "error");
    Response { status, ..Response::with_body("application/json", body) }
}

/// The load-shed response the event loop sends without dispatching: a
/// typed `overloaded` 503 with `Retry-After`, enveloped for `/api/v1`
/// targets and plain otherwise.
pub fn shed_response(req: &Request) -> Response {
    let e = ApiError::new(
        ErrorCode::Overloaded,
        "server is at its in-flight request limit; retry shortly",
    );
    error_response(e, req, &cx_obs::trace::next_request_id(), Instant::now())
}

/// Resolves `limit`/`offset` pagination parameters with bounded defaults:
/// unparseable values fall back to the default (matching the API's
/// historical leniency), and `limit` is clamped to `1..=max_limit`.
fn page_params(ctx: &Ctx, default_limit: usize, max_limit: usize) -> (usize, usize) {
    let limit = ctx.param_as::<usize>("limit", default_limit).clamp(1, max_limit);
    let offset = ctx.param_as::<usize>("offset", 0);
    (limit, offset)
}

/// A JSON number that is a non-negative integer no larger than `max`.
fn uint(v: &Json, max: f64) -> Option<f64> {
    v.as_f64().filter(|x| x.fract() == 0.0 && *x >= 0.0 && *x <= max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_datagen::figure5_graph;
    use std::collections::BTreeMap;

    pub(super) fn server() -> crate::Server {
        crate::Server::new(Engine::with_graph("fig5", figure5_graph()))
    }

    /// Unwraps the v1 envelope, asserting it succeeded.
    pub(super) fn v1_data(r: &crate::Response) -> Json {
        let v = Json::parse(&r.text()).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{}", r.text());
        v.get("data").unwrap().clone()
    }

    /// API.md documents exactly the table: one `### \`METHOD /path…\``
    /// heading per row, each section naming every parameter the row
    /// declares (`timeout_ms` is documented once, for all of `/api/v1`).
    #[test]
    fn api_md_documents_exactly_the_table() {
        let doc = include_str!("../../../../API.md");
        let mut sections: BTreeMap<(&str, &str), &str> = BTreeMap::new();
        for section in doc.split("\n### `").skip(1) {
            let (heading, text) = section.split_once('\n').unwrap();
            let (method, rest) = heading.split_once(' ').unwrap();
            let path = rest.split(['?', '[', '`']).next().unwrap();
            let text = text.split("\n## ").next().unwrap();
            let old = sections.insert((method, path), &section[..heading.len() + 1 + text.len()]);
            assert!(old.is_none(), "API.md documents {method} {path} twice");
        }
        let rows: Vec<(&str, &str)> = ENDPOINTS.iter().map(|e| (e.method, e.path)).collect();
        assert_eq!(sections.keys().copied().collect::<Vec<_>>(), {
            let mut sorted = rows.clone();
            sorted.sort_unstable();
            sorted
        });
        let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
        for e in ENDPOINTS {
            let section = sections[&(e.method, e.path)];
            for name in e.params {
                let named = section.match_indices(name).any(|(at, _)| {
                    !section[..at].ends_with(word) && !section[at + name.len()..].starts_with(word)
                });
                assert!(named, "API.md's {} {} section never mentions `{name}`", e.method, e.path);
            }
        }
    }

    #[test]
    fn error_code_statuses_are_stable() {
        for (code, status, wire) in [
            (ErrorCode::BadQuery, 400, "bad_query"),
            (ErrorCode::BadJson, 400, "bad_json"),
            (ErrorCode::NoGraph, 400, "no_graph"),
            (ErrorCode::GraphError, 400, "graph_error"),
            (ErrorCode::UnknownVertex, 404, "unknown_vertex"),
            (ErrorCode::UnknownGraph, 404, "unknown_graph"),
            (ErrorCode::UnknownAlgorithm, 404, "unknown_algorithm"),
            (ErrorCode::NotFound, 404, "not_found"),
            (ErrorCode::MethodNotAllowed, 405, "method_not_allowed"),
            (ErrorCode::DeadlineExceeded, 408, "deadline_exceeded"),
            (ErrorCode::Overloaded, 503, "overloaded"),
            (ErrorCode::Unauthorized, 401, "unauthorized"),
        ] {
            assert_eq!(code.status(), status);
            assert_eq!(code.as_str(), wire);
        }
    }

    #[test]
    fn timeout_ms_validates_on_every_endpoint() {
        let s = server();
        // Nonsense values are a typed 400 even on cheap endpoints.
        for target in [
            "/api/v1/graphs?timeout_ms=banana",
            "/api/v1/stats?timeout_ms=0",
            "/api/v1/search?name=A&k=2&timeout_ms=-5",
            "/api/v1/detect?timeout_ms=1.5",
            "/api/v1/suggest?q=a&timeout_ms=",
        ] {
            let r = s.handle(&Request::get(target));
            assert_eq!(r.status, 400, "{target}: {}", r.text());
            let v = Json::parse(&r.text()).unwrap();
            assert_eq!(
                v.get("error").unwrap().get("code").and_then(Json::as_str),
                Some("bad_query"),
                "{target}"
            );
        }
        // Valid values (including beyond the clamp) are accepted.
        for target in [
            "/api/v1/search?name=A&k=2&timeout_ms=5000",
            "/api/v1/search?name=A&k=2&timeout_ms=999999999",
            "/api/v1/detect?algo=codicil&timeout_ms=60000",
        ] {
            let r = s.handle(&Request::get(target));
            assert_eq!(r.status, 200, "{target}: {}", r.text());
        }
        // Body-level timeout_ms on search_batch: valid accepted, junk 400.
        let ok = s.handle(&Request::post(
            "/api/v1/search_batch",
            r#"{"timeout_ms":5000,"queries":[{"name":"A","k":2}]}"#,
        ));
        assert_eq!(ok.status, 200, "{}", ok.text());
        let bad = s.handle(&Request::post(
            "/api/v1/search_batch",
            r#"{"timeout_ms":"fast","queries":[{"name":"A","k":2}]}"#,
        ));
        assert_eq!(bad.status, 400, "{}", bad.text());
    }

    #[test]
    fn overloaded_errors_carry_retry_after_everywhere() {
        let v1 = shed_response(&Request::get("/api/v1/search?name=A"));
        assert_eq!(v1.status, 503);
        assert_eq!(v1.header("Retry-After"), Some("1"));
        let v = Json::parse(&v1.text()).unwrap();
        assert_eq!(v.get("error").unwrap().get("code").and_then(Json::as_str), Some("overloaded"));
        let plain = shed_response(&Request::get("/healthz"));
        assert_eq!(plain.status, 503);
        assert_eq!(plain.header("Retry-After"), Some("1"));
        let v = Json::parse(&plain.text()).unwrap();
        assert_eq!(v.get("code").and_then(Json::as_str), Some("overloaded"));
    }

    #[test]
    fn bearer_auth_guards_api_but_not_operational_paths() {
        let s = server();
        let engine = s.engine();
        let auth = Some("sekrit");
        // No token → typed 401.
        let r = route(&engine, &Request::get("/api/v1/graphs"), auth);
        assert_eq!(r.status, 401);
        let v = Json::parse(&r.text()).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("code").and_then(Json::as_str),
            Some("unauthorized")
        );
        // Wrong token → 401; right token → through.
        let wrong = Request::get("/api/v1/graphs").with_header("Authorization", "Bearer nope");
        assert_eq!(route(&engine, &wrong, auth).status, 401);
        let right = Request::get("/api/v1/graphs").with_header("Authorization", "Bearer sekrit");
        assert_eq!(route(&engine, &right, auth).status, 200);
        // Operational endpoints stay open.
        for open in ["/", "/healthz", "/metrics"] {
            let r = route(&engine, &Request::get(open), auth);
            assert_eq!(r.status, 200, "{open}");
        }
        // No token required → everything passes as before.
        assert_eq!(route(&engine, &Request::get("/api/v1/graphs"), None).status, 200);
    }

    /// The unversioned `/api/*` names were retired: they are unknown
    /// paths like any other, but still sit behind the `/api/` auth prefix.
    #[test]
    fn retired_namespace_is_an_unknown_path() {
        let s = server();
        let engine = s.engine();
        let get = Request::get("/api/search?name=A");
        let r = s.handle(&get);
        assert_eq!(r.status, 404);
        assert_eq!(r.header("Deprecation"), None);
        let v = Json::parse(&r.text()).unwrap();
        assert_eq!(v.get("code").and_then(Json::as_str), Some("not_found"));
        assert!(!v.get("error").and_then(Json::as_str).unwrap().is_empty());
        assert!(v.get("ok").is_none(), "plain shape, not the envelope");
        let post = Request::post("/api/edit", r#"{"add":[[0,5]]}"#);
        assert_eq!(s.handle(&post).status, 405);
        for req in [&get, &post] {
            let r = route(&engine, req, Some("sekrit"));
            assert_eq!(r.status, 401);
            let v = Json::parse(&r.text()).unwrap();
            assert_eq!(v.get("code").and_then(Json::as_str), Some("unauthorized"));
        }
        let shed = shed_response(&get);
        assert_eq!(shed.status, 503);
        assert_eq!(shed.header("Retry-After"), Some("1"));
        assert_eq!(shed.header("Deprecation"), None);
        let v = Json::parse(&shed.text()).unwrap();
        assert_eq!(v.get("code").and_then(Json::as_str), Some("overloaded"));
    }
}

#[cfg(test)]
mod fragment_tests;
