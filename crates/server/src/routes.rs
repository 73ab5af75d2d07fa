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
//! route is adding a row.
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

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use cx_explorer::{
    Engine, ExplorerError, GraphSnapshot, Hierarchy, NodeId, QuerySpec,
};
use cx_graph::{AttributedGraph, Community, VertexId};
use cx_layout::{LayoutAlgorithm, Scene, KK_MAX_MEMBERS};
use cx_par::task::CancelToken;

use crate::http::{Request, Response};
use crate::json::{array_into, escape_into, number_into, raw_array, Json, ObjectWriter};

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

    /// The error on the wire: `{"code", "message"}` in the envelope and a
    /// `search_batch` item; outside `/api/v1`
    /// the message sits under the historical `"error"` key instead.
    fn into_json(self, message_key: &'static str) -> Json {
        Json::obj([
            ("code", Json::str(self.code.as_str())),
            (message_key, Json::str(self.message)),
        ])
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
    /// A JSON document, sent inside the envelope.
    Data(Json),
    /// A finished non-JSON response (SVG, HTML, metrics text), sent as is.
    Raw(Response),
}

type Handler = Result<Payload, ApiError>;

/// The members of a JSON object, before [`Json::obj`] sorts them.
type Members = Vec<(&'static str, Json)>;

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
    row("GET", "/", &[], Body::None, index),
    row("GET", "/index.html", &[], Body::None, index),
    row("GET", "/metrics", &[], Body::None, metrics_text),
    row("GET", "/healthz", &[], Body::None, healthz),
    row("GET", "/api/v1/graphs", &[], Body::None, graphs),
    row("GET", "/api/v1/stats", &["graph"], Body::None, stats),
    row("GET", "/api/v1/suggest", &["q", "limit", "offset", "graph"], Body::None, suggest),
    row("GET", "/api/v1/hierarchy", &["level", "node", "limit", "graph"], Body::None, hierarchy),
    row("GET", "/api/v1/search", &["name", "names", "id", "k", "keywords", "algo", "layout", "limit", "offset", "graph"], Body::None, search),
    row("POST", "/api/v1/search_batch", &["graph"], Body::Json, search_batch),
    row("GET", "/api/v1/detect", &["algo", "limit", "graph"], Body::None, detect),
    row("GET", "/api/v1/compare", &["name", "names", "id", "k", "keywords", "algos", "graph"], Body::None, compare),
    row("GET", "/api/v1/svg", &["name", "names", "id", "k", "keywords", "algo", "index", "layout", "level", "supernode", "max_nodes", "graph"], Body::None, svg),
    row("GET", "/api/v1/profile", &["id", "graph"], Body::None, profile),
    row("POST", "/api/v1/upload", &["name"], Body::GraphText, upload),
    row("POST", "/api/v1/edit", &["graph"], Body::Json, edit),
    row("GET", "/api/v1/trace", &["request_id"], Body::None, trace),
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
    TOKEN
        .get_or_init(|| std::env::var("CX_AUTH_TOKEN").ok().filter(|t| !t.is_empty()))
        .as_deref()
}

/// Enforces bearer auth when a token is required. Only `/api/*` paths are
/// guarded — `/`, `/healthz` and `/metrics` stay open so probes and
/// scrapers work without credentials.
fn check_auth(req: &Request, required: Option<&str>) -> Result<(), ApiError> {
    let Some(required) = required else { return Ok(()) };
    if !req.path.starts_with("/api/") {
        return Ok(());
    }
    let presented = req
        .header("authorization")
        .and_then(|v| v.strip_prefix("Bearer "))
        .map(str::trim);
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
            Ok(Payload::Data(data)) => envelope(Ok(data), &request_id, t0),
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

/// `{ok, data, error}`: the whole of a `search_batch` item and the core
/// of the envelope.
fn outcome(result: Result<Json, ApiError>) -> Members {
    let (ok, data, error) = match result {
        Ok(data) => (true, data, Json::Null),
        Err(e) => (false, Json::Null, e.into_json("message")),
    };
    vec![("ok", Json::Bool(ok)), ("data", data), ("error", error)]
}

/// Wraps a handler result in the v1 response envelope (status 200; an
/// error's status is set by [`error_response`]).
fn envelope(result: Result<Json, ApiError>, request_id: &str, t0: Instant) -> Response {
    let mut members = outcome(result);
    members.push(("request_id", Json::str(request_id)));
    members.push(("elapsed_ms", Json::num(t0.elapsed().as_secs_f64() * 1e3)));
    Response::json(&Json::obj(members))
}

/// An error in the shape its path speaks: the envelope under `/api/v1`,
/// the plain `{"error", "code"}` object anywhere else.
fn error_response(e: ApiError, req: &Request, request_id: &str, t0: Instant) -> Response {
    let code = e.code;
    let mut r = if req.path.starts_with("/api/v1/") {
        envelope(Err(e), request_id, t0)
    } else {
        Response::json(&e.into_json("error"))
    };
    r.status = code.status();
    if code == ErrorCode::Overloaded {
        r = r.with_header("Retry-After", "1");
    }
    r
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

// ---------------------------------------------------------------------------
// Handlers

fn index(_: &Ctx) -> Handler {
    Ok(Payload::Raw(Response::html(crate::ui::INDEX_HTML)))
}

/// GET /metrics — Prometheus text exposition of the cx-obs registry.
fn metrics_text(_: &Ctx) -> Handler {
    let mut body = cx_obs::global().prometheus_text();
    if body.is_empty() {
        // Cold registry (first-ever request, or CX_OBS=off): still a
        // valid, non-empty exposition.
        body.push_str("# no samples recorded yet\n");
    }
    Ok(Payload::Raw(Response::with_body("text/plain; version=0.0.4; charset=utf-8", body)))
}

/// GET /healthz — liveness (the process answers) plus readiness
/// (a graph is loaded and queryable). Served entirely from the O(1)
/// registry index: no snapshot is cloned, no graph data touched.
fn healthz(ctx: &Ctx) -> Handler {
    let idx = ctx.engine.registry_index();
    Ok(Payload::Raw(Response::json(&Json::obj([
        ("status", Json::str("ok")),
        ("graph_loaded", Json::Bool(!idx.graphs.is_empty())),
        ("graphs", Json::num(idx.graphs.len() as f64)),
        ("traces", Json::num(cx_obs::trace::trace_count() as f64)),
    ]))))
}

/// GET /api/v1/trace?request_id=… — the recorded span tree for a recent
/// request.
fn trace(ctx: &Ctx) -> Handler {
    let Some(id) = ctx.param("request_id") else {
        return Err(ApiError::bad_query("missing request_id parameter"));
    };
    let Some(t) = cx_obs::trace::get_trace(id) else {
        return Err(ApiError::not_found(format!("no trace recorded for request id {id:?}")));
    };
    let spans = Json::arr(t.spans.iter().map(|s| {
        Json::obj([
            ("name", Json::str(s.name)),
            ("parent", s.parent.map(|p| Json::num(p as f64)).unwrap_or(Json::Null)),
            ("start_us", Json::num(s.start_us as f64)),
            ("dur_us", Json::num(s.dur_us as f64)),
        ])
    }));
    Ok(Payload::Data(Json::obj([
        ("request_id", Json::str(t.request_id.clone())),
        ("span_count", Json::num(t.spans.len() as f64)),
        ("spans", spans),
        ("tree", span_tree(&t.spans)),
    ])))
}

/// Builds the nested span tree from the flat parent-index records.
/// Parents always precede children, so indices only point backwards.
fn span_tree(spans: &[cx_obs::trace::SpanRecord]) -> Json {
    fn node(spans: &[cx_obs::trace::SpanRecord], children: &[Vec<usize>], i: usize) -> Json {
        let s = &spans[i];
        Json::obj([
            ("name", Json::str(s.name)),
            ("start_us", Json::num(s.start_us as f64)),
            ("dur_us", Json::num(s.dur_us as f64)),
            ("children", Json::arr(children[i].iter().map(|&c| node(spans, children, c)))),
        ])
    }
    let mut children = vec![Vec::new(); spans.len()];
    let mut roots = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) => children[p as usize].push(i),
            None => roots.push(i),
        }
    }
    Json::arr(roots.into_iter().map(|r| node(spans, &children, r)))
}

/// GET /api/v1/graphs — the registry directory. Served from the O(1) index
/// (never clones a snapshot); `generations` maps each graph to its
/// currently published generation so clients can detect content changes.
fn graphs(ctx: &Ctx) -> Handler {
    let idx = ctx.engine.registry_index();
    let graphs = Json::arr(idx.graphs.iter().map(|g| Json::str(g.name.clone())));
    let generations: BTreeMap<String, Json> = idx
        .graphs
        .iter()
        .map(|g| (g.name.clone(), Json::num(g.generation as f64)))
        .collect();
    let cs = Json::arr(ctx.engine.cs_names().iter().map(|n| Json::str(*n)));
    let cd = Json::arr(ctx.engine.cd_names().iter().map(|n| Json::str(*n)));
    let default = idx.default_graph.map(Json::str).unwrap_or(Json::Null);
    Ok(Payload::Data(Json::obj([
        ("graphs", graphs),
        ("cs_algorithms", cs),
        ("cd_algorithms", cd),
        ("default_graph", default),
        ("generations", Json::Object(generations)),
    ])))
}

fn stats(ctx: &Ctx) -> Handler {
    let snap = ctx.snapshot()?;
    let s = snap.stats();
    let tree = &snap.tree;
    let cache = ctx.engine.cache_stats();
    Ok(Payload::Data(Json::obj([
        ("vertices", Json::num(s.vertices as f64)),
        ("edges", Json::num(s.edges as f64)),
        ("components", Json::num(s.components as f64)),
        ("keywords", Json::num(s.keywords as f64)),
        ("avg_keywords_per_vertex", Json::num(s.avg_keywords_per_vertex)),
        ("max_degree", Json::num(s.degrees.max as f64)),
        ("mean_degree", Json::num(s.degrees.mean)),
        ("degeneracy", Json::num(tree.max_core() as f64)),
        ("index_nodes", Json::num(tree.node_count() as f64)),
        ("index_bytes", Json::num(tree.memory_bytes() as f64)),
        ("generation", Json::num(snap.generation as f64)),
        (
            "query_cache",
            Json::obj([
                ("hits", Json::num(cache.hits as f64)),
                ("misses", Json::num(cache.misses as f64)),
                ("len", Json::num(cache.len as f64)),
                ("capacity", Json::num(cache.capacity as f64)),
            ]),
        ),
    ])))
}

/// POST /api/v1/edit?graph=g — body: JSON `{"add": [[u,v],…], "remove": [[u,v],…]}`.
///
/// Read-non-blocking: the new graph and CL-tree are built off-lock and
/// published as a fresh snapshot; concurrent searches keep answering from
/// the previous snapshot throughout.
fn edit(ctx: &Ctx) -> Handler {
    let v = ctx.json_body()?;
    let pairs = |key: &str| -> Result<Vec<(VertexId, VertexId)>, ApiError> {
        let Some(arr) = v.get(key).and_then(Json::as_array) else {
            return Ok(Vec::new());
        };
        arr.iter()
            .map(|p| {
                let xs = p.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                    ApiError::bad_json(format!("{key} entries must be [u, v] pairs"))
                })?;
                // An id past u32::MAX saturates and fails the engine's
                // bounds check like any other out-of-range vertex.
                let f = |j: &Json| {
                    uint(j, f64::MAX)
                        .map(|x| VertexId(x as u32))
                        .ok_or_else(|| ApiError::bad_json("vertex ids must be integers"))
                };
                Ok((f(&xs[0])?, f(&xs[1])?))
            })
            .collect()
    };
    let add = pairs("add")?;
    let remove = pairs("remove")?;
    ctx.engine.apply_edits(ctx.param("graph"), &add, &remove)?;
    let snap = ctx.snapshot()?;
    Ok(Payload::Data(Json::obj([
        ("ok", Json::Bool(true)),
        ("vertices", Json::num(snap.graph.vertex_count() as f64)),
        ("edges", Json::num(snap.graph.edge_count() as f64)),
        ("generation", Json::num(snap.generation as f64)),
    ])))
}

/// POST /api/v1/upload?name=g — body: the text graph format. Registers
/// and indexes the graph.
fn upload(ctx: &Ctx) -> Handler {
    let Some(name) = ctx.param("name") else {
        return Err(ApiError::bad_query("missing name parameter"));
    };
    let graph = cx_graph::io::read_text(&mut ctx.req.body.as_slice())
        .map_err(|e| ApiError::new(ErrorCode::GraphError, format!("parse failed: {e}")))?;
    let (v, m) = (graph.vertex_count(), graph.edge_count());
    ctx.engine.try_add_graph(name, graph)?;
    Ok(Payload::Data(Json::obj([
        ("ok", Json::Bool(true)),
        ("graph", Json::str(name)),
        ("vertices", Json::num(v as f64)),
        ("edges", Json::num(m as f64)),
    ])))
}

/// Resolves `limit`/`offset` pagination parameters with bounded defaults:
/// unparseable values fall back to the default (matching the API's
/// historical leniency), and `limit` is clamped to `1..=max_limit`.
fn page_params(ctx: &Ctx, default_limit: usize, max_limit: usize) -> (usize, usize) {
    let limit = ctx.param_as::<usize>("limit", default_limit).clamp(1, max_limit);
    let offset = ctx.param_as::<usize>("offset", 0);
    (limit, offset)
}

/// Hard ceiling on suggest pagination depth. The engine materialises the
/// best `offset + limit` candidates per request (bounded partial
/// selection), so an unbounded offset would let one request force a
/// near-full sort of a million-vertex hit list. Past this depth the
/// client should narrow the query instead.
const SUGGEST_MAX_OFFSET: usize = 10_000;

fn suggest(ctx: &Ctx) -> Handler {
    let q = ctx.param("q").unwrap_or("");
    let (limit, offset) = page_params(ctx, 8, 100);
    if offset > SUGGEST_MAX_OFFSET {
        return Err(ApiError::bad_query("suggest offset is capped at 10000; narrow the query"));
    }
    let (hits, _total) = ctx.engine.suggest_page(ctx.param("graph"), q, offset, limit)?;
    Ok(Payload::Data(raw_array(hits, |out, (v, label, degree)| {
        write_vertex(out, v, &label, degree);
    })))
}

/// A vertex as `suggest` and a hierarchy expansion list it.
fn write_vertex(out: &mut String, v: VertexId, label: &str, degree: usize) {
    ObjectWriter::new(out)
        .num("degree", degree as f64)
        .num("id", v.0 as f64)
        .str("label", label)
        .close();
}

/// Builds the query spec shared by `search`, `svg` and `compare`:
/// `name` (or `names=a|b` for multi-vertex, or `id`), `k`, `keywords=a,b`.
fn spec_from(ctx: &Ctx) -> Result<QuerySpec, ApiError> {
    let mut spec = if let Some(names) = ctx.param("names") {
        let labels: Vec<&str> = names.split('|').filter(|s| !s.is_empty()).collect();
        if labels.is_empty() {
            return Err(ApiError::bad_query("names parameter is empty"));
        }
        QuerySpec::by_labels(labels)
    } else if let Some(name) = ctx.param("name") {
        QuerySpec::by_label(name)
    } else if let Some(id) = ctx.param("id") {
        match id.parse::<u32>() {
            Ok(i) => QuerySpec::by_id(VertexId(i)),
            Err(_) => return Err(ApiError::bad_query("id must be an integer")),
        }
    } else {
        return Err(ApiError::bad_query("missing name/names/id parameter"));
    };
    spec = spec.k(ctx.param_as::<u32>("k", 1));
    if let Some(kws) = ctx.param("keywords") {
        spec = spec.with_keywords(kws.split(',').filter(|s| !s.is_empty()));
    }
    Ok(spec)
}

fn layout_from(ctx: &Ctx) -> LayoutAlgorithm {
    match ctx.param("layout").unwrap_or("force") {
        "circular" => LayoutAlgorithm::Circular,
        "shell" => LayoutAlgorithm::Shell,
        "kk" => LayoutAlgorithm::KamadaKawai { iterations: 80 },
        _ => LayoutAlgorithm::default_force(),
    }
}

/// Appends one community object to `buf`, straight from graph slices:
/// member labels from the CSR label column, theme words from the keyword
/// interner, no per-member `String`. GET `search` passes the community's
/// laid-out `scene`; `search_batch` items go without (clients wanting a
/// drawing fetch `/api/v1/svg` per community).
fn write_community(buf: &mut String, g: &AttributedGraph, c: &Community, scene: Option<&Scene>) {
    let mut o = ObjectWriter::new(buf);
    o.num("avg_degree", c.average_internal_degree(g)).num("edges", c.internal_edge_count(g) as f64);
    array_into(o.key("members"), c.vertices(), |out, &v| {
        ObjectWriter::new(out).num("id", v.0 as f64).str("label", g.label(v)).close();
    });
    if let Some(scene) = scene {
        write_scene(o.key("scene"), scene);
    }
    o.num("size", c.len() as f64);
    let interner = g.interner();
    let theme = c.shared_keywords().iter().filter_map(|&w| interner.name(w));
    array_into(o.key("theme"), theme, escape_into);
    o.close();
}

/// Appends a laid-out community as the page's canvas draws it:
/// `{edges, height, nodes: [{highlight, id, label, x, y}], theme, title,
/// width}`. Coordinates are rounded to one decimal — the text of `{:.1}`
/// read back as a number, so `600.0` is written `600` and `-0.0` is `0`.
/// The scene is decorative: a non-finite coordinate makes it `null`
/// rather than failing the response. A community scene has no radii,
/// supernode flags or edge weights; only the SVG of a hierarchy summary
/// draws those.
fn write_scene(out: &mut String, scene: &Scene) {
    let start = out.len();
    let mut text = String::new();
    let mut finite = true;
    // `{:.1}` of `x`, read back and written as a JSON number.
    let mut rounded = |out: &mut String, x: f64| {
        use std::fmt::Write as _;
        text.clear();
        let _ = write!(text, "{x:.1}");
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => number_into(out, x),
            _ => finite = false,
        }
    };
    let mut o = ObjectWriter::new(out);
    array_into(o.key("edges"), &scene.edges, |out, &(a, b)| {
        array_into(out, [a, b], |out, x| number_into(out, x as f64));
    });
    rounded(o.key("height"), scene.height);
    array_into(o.key("nodes"), scene.vertices.iter().enumerate(), |out, (i, &(v, p))| {
        let mut node = ObjectWriter::new(out);
        node.bool("highlight", scene.highlight == Some(i))
            .num("id", v.0 as f64)
            .str("label", &scene.labels[i]);
        rounded(node.key("x"), p.x);
        rounded(node.key("y"), p.y);
        node.close();
    });
    array_into(o.key("theme"), &scene.theme, |out, t| escape_into(out, t));
    o.str("title", &scene.title);
    rounded(o.key("width"), scene.width);
    o.close();
    if !finite {
        out.truncate(start);
        out.push_str("null");
    }
}

/// One search as the wire states it: the GET `search` parameters, or one
/// `search_batch` entry.
struct SearchItem {
    spec: QuerySpec,
    algo: String,
    limit: usize,
    offset: usize,
}

/// Searches the pinned snapshot (one query-cache pass) and names the
/// query vertex the results are about — the step `search`, every
/// `search_batch` item and `svg` share.
fn run_query(
    engine: &Engine,
    snap: &GraphSnapshot,
    spec: &QuerySpec,
    algo: &str,
    token: &CancelToken,
) -> Result<(VertexId, Vec<Community>), ApiError> {
    let communities = engine.search_snapshot_cancellable(snap, algo, spec, token)?;
    // The search resolved the same spec against the same graph, so this
    // succeeds, and a resolved spec is never empty.
    let q = spec.resolve(&snap.graph)?[0];
    Ok((q, communities))
}

/// A typed 408 once `token` has expired: the checkpoint between the
/// stages of a request, so an expired deadline stops the work instead of
/// answering late.
fn check_deadline(token: &CancelToken) -> Result<(), ApiError> {
    if token.is_cancelled() {
        return Err(ExplorerError::DeadlineExceeded.into());
    }
    Ok(())
}

/// Runs one search and renders its payload — query echo, quality metrics,
/// and the `offset..offset+limit` page of communities, each drawn with
/// `layout` when one is given. Returns the members of the `data` object
/// (GET `search` adds two more) and the query vertex. The deadline is
/// checked after the analysis and before each community is laid out. A
/// community too large for `layout=kk` is placed at NaN, which
/// [`write_scene`] writes as `"scene":null`.
fn search_data(
    engine: &Engine,
    snap: &GraphSnapshot,
    item: &SearchItem,
    token: &CancelToken,
    layout: Option<LayoutAlgorithm>,
) -> Result<(VertexId, Members), ApiError> {
    let (q, communities) = run_query(engine, snap, &item.spec, &item.algo, token)?;
    let g = &*snap.graph;
    let analysis = engine.analyze_snapshot(snap, &communities, q)?;
    check_deadline(token)?;
    let page: Vec<&Community> = communities.iter().skip(item.offset).take(item.limit).collect();
    let mut scenes = Vec::new();
    if let Some(l) = layout {
        for c in &page {
            check_deadline(token)?;
            scenes.push(engine.display_snapshot(snap, c, l, Some(q)));
        }
    }
    let list = raw_array(page.iter().enumerate(), |out, (i, c)| {
        write_community(out, g, c, scenes.get(i));
    });
    let data = vec![
        (
            "query",
            Json::obj([
                ("vertex", Json::num(q.0 as f64)),
                ("label", Json::str(g.label(q))),
                ("k", Json::num(item.spec.k as f64)),
                ("algo", Json::str(item.algo.clone())),
            ]),
        ),
        ("communities", list),
        ("total_communities", Json::num(communities.len() as f64)),
        ("limit", Json::num(item.limit as f64)),
        ("offset", Json::num(item.offset as f64)),
        ("cpj", Json::num(analysis.cpj)),
        ("cmf", Json::num(analysis.cmf)),
    ];
    Ok((q, data))
}

fn search(ctx: &Ctx) -> Handler {
    let spec = spec_from(ctx)?;
    let algo = ctx.param("algo").unwrap_or("acq").to_owned();
    let layout = layout_from(ctx);
    let (limit, offset) = page_params(ctx, 20, 100);
    // One snapshot for the whole request: results, analysis, labels and
    // the reported generation all describe the same graph version.
    let snap = ctx.snapshot()?;
    let item = SearchItem { spec, algo, limit, offset };
    let (q, mut data) = search_data(ctx.engine, &snap, &item, &ctx.token(), Some(layout))?;
    let g = &*snap.graph;
    data.push(("generation", Json::num(snap.generation as f64)));
    // The query author's keywords, so the UI can render the chips.
    data.push((
        "query_keywords",
        Json::arr(g.keyword_names(g.keywords(q)).into_iter().map(Json::str)),
    ));
    Ok(Payload::Data(Json::obj(data)))
}

/// Maximum number of query specs one `search_batch` request may carry.
const BATCH_MAX: usize = 64;

/// A JSON number that is a non-negative integer no larger than `max`.
fn uint(v: &Json, max: f64) -> Option<f64> {
    v.as_f64().filter(|x| x.fract() == 0.0 && *x >= 0.0 && *x <= max)
}

/// Reads an optional non-negative integer field with the API's historical
/// pagination leniency: wrong type / negative / fractional falls back to
/// the default (mirroring `page_params` on the GET routes).
fn usize_field(v: &Json, key: &str, default: usize) -> usize {
    v.get(key).and_then(|x| uint(x, 9e15 - 1.0)).map_or(default, |x| x as usize)
}

/// Parses one batch entry. Shapes mirror the GET `search` parameters:
/// `name` | `names` (array) | `id`, plus `k`, `keywords` (array), `algo`,
/// and `limit`/`offset` under exactly the GET routes' clamp rules
/// (limit default 20, clamped to 1..=100; offset default 0).
fn batch_item(v: &Json) -> Result<SearchItem, ApiError> {
    if !matches!(v, Json::Object(_)) {
        return Err(ApiError::bad_json("each batch entry must be an object"));
    }
    let mut spec = if let Some(names) = v.get("names").and_then(Json::as_array) {
        let labels: Vec<&str> = names.iter().filter_map(Json::as_str).collect();
        if labels.len() != names.len() {
            return Err(ApiError::bad_query("names entries must be strings"));
        }
        if labels.is_empty() {
            return Err(ApiError::bad_query("names is empty"));
        }
        QuerySpec::by_labels(labels)
    } else if let Some(name) = v.get("name").and_then(Json::as_str) {
        QuerySpec::by_label(name)
    } else if let Some(id) = v.get("id") {
        match uint(id, u32::MAX as f64) {
            Some(i) => QuerySpec::by_id(VertexId(i as u32)),
            None => return Err(ApiError::bad_query("id must be a non-negative integer")),
        }
    } else {
        return Err(ApiError::bad_query("missing name/names/id field"));
    };
    match v.get("k") {
        None => {}
        Some(k) => match uint(k, u32::MAX as f64) {
            Some(k) => spec = spec.k(k as u32),
            None => return Err(ApiError::bad_query("k must be a non-negative integer")),
        },
    }
    if let Some(kws) = v.get("keywords").and_then(Json::as_array) {
        let words: Vec<&str> = kws.iter().filter_map(Json::as_str).collect();
        if words.len() != kws.len() {
            return Err(ApiError::bad_query("keywords entries must be strings"));
        }
        spec = spec.with_keywords(words);
    }
    let algo = v.get("algo").and_then(Json::as_str).unwrap_or("acq").to_owned();
    let limit = usize_field(v, "limit", 20).clamp(1, 100);
    let offset = usize_field(v, "offset", 0);
    Ok(SearchItem { spec, algo, limit, offset })
}

/// POST /api/v1/search_batch — body:
/// `{"graph": "name"?, "queries": [{...}, ...]}` with at most
/// [`BATCH_MAX`] entries (see [`batch_item`] for the entry shape).
///
/// The whole batch pins **one** snapshot, so every member (results,
/// labels, quality metrics, the reported generation) describes the same
/// graph version even while edits land concurrently. Members execute in
/// parallel over the `cx-par` pool, each doing a single query-cache pass;
/// a member that fails comes back as `{ok: false, error: {code, message}}`
/// in its own slot while the batch itself stays a 200.
fn search_batch(ctx: &Ctx) -> Handler {
    let v = ctx.json_body()?;
    // A body-level `timeout_ms` overrides the query parameter, under the
    // same validation and clamp rules.
    let timeout = match v.get("timeout_ms") {
        None => ctx.timeout,
        Some(t) => timeout_ms(uint(t, f64::MAX).map(|x| x as u64))?,
    };
    let Some(items) = v.get("queries").and_then(Json::as_array) else {
        return Err(ApiError::bad_json("body must carry a \"queries\" array"));
    };
    if items.is_empty() {
        return Err(ApiError::bad_query("queries is empty"));
    }
    if items.len() > BATCH_MAX {
        return Err(ApiError::bad_query(format!(
            "batch of {} queries exceeds the limit of {BATCH_MAX}",
            items.len()
        )));
    }
    let graph = v.get("graph").and_then(Json::as_str).or_else(|| ctx.param("graph"));
    // One snapshot pin for the whole batch.
    let snap = ctx.engine.snapshot(graph)?;
    // One shared deadline across the whole batch: the token is an Arc'd
    // flag, so every member observes the same cutoff.
    let token = CancelToken::with_timeout(timeout);
    let parsed: Vec<Result<SearchItem, ApiError>> = items.iter().map(batch_item).collect();
    let engine = ctx.engine;
    let results: Vec<Json> = cx_par::par_map_tasks(parsed.len(), |i| {
        Json::obj(outcome(match &parsed[i] {
            Ok(item) => search_data(engine, &snap, item, &token, None).map(|(_, d)| Json::obj(d)),
            Err(e) => Err(e.clone()),
        }))
    });
    let succeeded = results
        .iter()
        .filter(|r| r.get("ok").and_then(Json::as_bool) == Some(true))
        .count();
    Ok(Payload::Data(Json::obj([
        ("graph", Json::str(snap.name())),
        ("generation", Json::num(snap.generation as f64)),
        ("count", Json::num(results.len() as f64)),
        ("succeeded", Json::num(succeeded as f64)),
        ("results", Json::arr(results)),
    ])))
}

/// Hard ceiling on nodes per hierarchy response — the multi-resolution
/// API's contract is that a client never receives more than this many
/// supernodes/vertices in one payload, at any graph scale.
const HIERARCHY_MAX_NODES: usize = 1_000;
/// Default nodes per hierarchy response ("a few hundred supernodes").
const HIERARCHY_DEFAULT_NODES: usize = 200;

fn no_such_supernode() -> ApiError {
    ApiError::not_found("no such supernode")
}

/// One supernode: identity, level, aggregates, top keywords.
fn write_supernode(out: &mut String, snap: &GraphSnapshot, h: &Hierarchy, id: NodeId) {
    let s = h.stats(id);
    let avg_degree = if s.subtree_vertices > 0 {
        s.sum_degree as f64 / s.subtree_vertices as f64
    } else {
        0.0
    };
    let mut o = ObjectWriter::new(out);
    o.num("avg_degree", avg_degree).num("edges", s.subtree_edges as f64).num("id", id.0 as f64);
    let interner = snap.graph.interner();
    let keywords = s.top_keywords.iter().filter_map(|&(w, c)| Some((interner.name(w)?, c)));
    array_into(o.key("keywords"), keywords, |out, (name, c)| {
        ObjectWriter::new(out).num("count", c as f64).str("keyword", name).close();
    });
    o.num("level", snap.tree.node(id).level as f64)
        .num("max_degree", s.max_degree as f64)
        .num("residents", s.residents as f64)
        .num("vertices", s.subtree_vertices as f64)
        .close();
}

/// GET /api/v1/hierarchy — the multi-resolution summary.
///
/// Without `node`: the level view. `level` (default 0) picks the
/// resolution; the response lists the connected components of the
/// k-core as supernodes, largest first, capped at `limit`
/// (default 200, max 1000) with `total`/`truncated` for paging-by
/// -drill-down.
///
/// With `node=<id>`: expands that supernode into its resident vertices,
/// child supernodes, resident–resident edges, and weighted
/// resident→child links, bounded to `limit` nodes by
/// [`Hierarchy::expand_bounded`], so the response stays bounded no matter
/// how large the supernode is.
fn hierarchy(ctx: &Ctx) -> Handler {
    let snap = ctx.snapshot()?;
    let h = snap.hierarchy();
    let g = &snap.graph;
    let limit = ctx
        .param_as::<usize>("limit", HIERARCHY_DEFAULT_NODES)
        .clamp(2, HIERARCHY_MAX_NODES);

    if let Some(node) = ctx.param("node") {
        let Ok(n) = node.parse::<u32>() else {
            return Err(ApiError::bad_query("node must be an integer supernode id"));
        };
        let ex = h.expand_bounded(g, &snap.tree, n, limit).ok_or_else(no_such_supernode)?;
        return Ok(Payload::Data(Json::obj([
            ("node", Json::num(n as f64)),
            ("level", Json::num(snap.tree.node(ex.node).level as f64)),
            (
                "residents",
                raw_array(&ex.residents, |out, &v| write_vertex(out, v, g.label(v), g.degree(v))),
            ),
            ("residents_truncated", Json::Bool(ex.truncated)),
            ("children", raw_array(&ex.children, |out, &c| write_supernode(out, &snap, &h, c))),
            ("children_total", Json::num(ex.children_total as f64)),
            ("children_truncated", Json::Bool(ex.children.len() < ex.children_total)),
            (
                "edges",
                raw_array(&ex.internal_edges, |out, &(u, v)| {
                    array_into(out, [u, v], |out, x| number_into(out, x.0 as f64));
                }),
            ),
            (
                "links",
                raw_array(&ex.child_links, |out, &(u, c, w)| {
                    ObjectWriter::new(out)
                        .num("from", u.0 as f64)
                        .num("to", c.0 as f64)
                        .num("weight", w as f64)
                        .close();
                }),
            ),
        ])));
    }

    let level = ctx.param_as::<u32>("level", 0);
    let nodes = h.level_nodes(&snap.tree, level);
    let shown = &nodes[..nodes.len().min(limit)];
    Ok(Payload::Data(Json::obj([
        ("level", Json::num(level as f64)),
        ("max_level", Json::num(h.max_level() as f64)),
        ("total", Json::num(nodes.len() as f64)),
        ("truncated", Json::Bool(shown.len() < nodes.len())),
        ("nodes", raw_array(shown, |out, &id| write_supernode(out, &snap, &h, id))),
    ])))
}

/// GET /api/v1/svg — one result community as raw SVG; or, with `level` /
/// `supernode`, a hierarchy viewport.
fn svg(ctx: &Ctx) -> Handler {
    // Hierarchy viewport mode: `?level=K` or `?supernode=ID` renders the
    // multi-resolution summary instead of a community. `max_nodes`
    // bounds the viewport exactly like `limit` bounds the JSON API.
    if ctx.param("level").is_some() || ctx.param("supernode").is_some() {
        let snap = ctx.snapshot()?;
        let max_nodes = ctx
            .param_as::<usize>("max_nodes", 400)
            .clamp(2, HIERARCHY_MAX_NODES);
        let scene = if let Some(node) = ctx.param("supernode") {
            let Ok(n) = node.parse::<u32>() else {
                return Err(ApiError::bad_query("supernode must be an integer id"));
            };
            snap.hierarchy_expand_scene(n, max_nodes).ok_or_else(no_such_supernode)?
        } else {
            snap.hierarchy_level_scene(ctx.param_as::<u32>("level", 0), max_nodes)
        };
        return Ok(Payload::Raw(Response::svg(scene.to_svg())));
    }
    let spec = spec_from(ctx)?;
    let algo = ctx.param("algo").unwrap_or("acq");
    let index = ctx.param_as::<usize>("index", 0);
    let snap = ctx.snapshot()?;
    let (q, communities) = run_query(ctx.engine, &snap, &spec, algo, &ctx.token())?;
    let Some(c) = communities.get(index) else {
        return Err(ApiError::not_found("community index out of range"));
    };
    let layout = layout_from(ctx);
    if !layout.accepts(c.len()) {
        return Err(ApiError::bad_query(format!(
            "layout=kk draws at most {KK_MAX_MEMBERS} members; this community has {}",
            c.len()
        )));
    }
    let scene = ctx
        .engine
        .display_snapshot(&snap, c, layout, Some(q))
        .titled(format!("Method: {algo} — community {} of {}", index + 1, communities.len()));
    Ok(Payload::Raw(Response::svg(scene.to_svg())))
}

/// GET /api/v1/compare — the per-algorithm statistics table (Figure 6(a))
/// with CPJ/CMF, plus the pairwise similarity matrix.
fn compare(ctx: &Ctx) -> Handler {
    let spec = spec_from(ctx)?;
    let algos_param = ctx.param("algos").unwrap_or("global,local,codicil,acq");
    let algos: Vec<&str> = algos_param.split(',').filter(|s| !s.is_empty()).collect();
    let report = ctx.engine.compare(ctx.param("graph"), &algos, &spec)?;
    let rows = Json::arr(report.rows.iter().map(|r| {
        Json::obj([
            ("method", Json::str(r.method.clone())),
            ("communities", Json::num(r.communities as f64)),
            ("avg_vertices", Json::num(r.avg_vertices)),
            ("avg_edges", Json::num(r.avg_edges)),
            ("avg_degree", Json::num(r.avg_degree)),
            ("cpj", Json::num(r.cpj)),
            ("cmf", Json::num(r.cmf)),
            ("millis", Json::num(r.millis)),
        ])
    }));
    let sim = Json::arr(
        report
            .similarity
            .iter()
            .map(|row| Json::arr(row.iter().map(|&x| Json::num(x)))),
    );
    Ok(Payload::Data(Json::obj([("rows", rows), ("similarity", sim)])))
}

/// GET /api/v1/detect — whole-graph detection: the first `limit`
/// communities' sizes, edge counts and average degrees.
fn detect(ctx: &Ctx) -> Handler {
    let algo = ctx.param("algo").unwrap_or("codicil");
    let limit = ctx.param_as::<usize>("limit", 20);
    let snap = ctx.snapshot()?;
    let communities = ctx.engine.detect_cancellable(&snap, algo, &ctx.token())?;
    let g = &snap.graph;
    let list = Json::arr(communities.iter().take(limit).map(|c| {
        Json::obj([
            ("size", Json::num(c.len() as f64)),
            ("edges", Json::num(c.internal_edge_count(g) as f64)),
            ("avg_degree", Json::num(c.average_internal_degree(g))),
        ])
    }));
    Ok(Payload::Data(Json::obj([
        ("algo", Json::str(algo)),
        ("total", Json::num(communities.len() as f64)),
        ("communities", list),
    ])))
}

fn profile(ctx: &Ctx) -> Handler {
    let Some(id) = ctx.param("id").and_then(|s| s.parse::<u32>().ok()) else {
        return Err(ApiError::bad_query("id must be an integer"));
    };
    match ctx.engine.profile(ctx.param("graph"), VertexId(id))? {
        Some(p) => Ok(Payload::Data(Json::obj([
            ("name", Json::str(p.name.clone())),
            ("areas", Json::arr(p.areas.iter().cloned().map(Json::str))),
            ("institutes", Json::arr(p.institutes.iter().cloned().map(Json::str))),
            ("interests", Json::arr(p.interests.iter().cloned().map(Json::str))),
        ]))),
        None => Err(ApiError::not_found("no profile for this vertex")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_datagen::figure5_graph;

    fn server() -> crate::Server {
        crate::Server::new(Engine::with_graph("fig5", figure5_graph()))
    }

    /// Unwraps the v1 envelope, asserting it succeeded.
    pub(super) fn v1_data(r: &crate::Response) -> Json {
        let v = Json::parse(&r.text()).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{}", r.text());
        v.get("data").unwrap().clone()
    }

    #[test]
    fn index_page_serves() {
        let s = server();
        let r = s.handle(&Request::get("/"));
        assert_eq!(r.status, 200);
        assert!(r.text().contains("C-Explorer"));
    }

    #[test]
    fn graphs_endpoint_lists_everything() {
        let s = server();
        let r = s.handle(&Request::get("/api/v1/graphs"));
        let v = v1_data(&r);
        assert_eq!(v.get("default_graph").and_then(Json::as_str), Some("fig5"));
        let cs = v.get("cs_algorithms").and_then(Json::as_array).unwrap();
        assert!(cs.iter().any(|a| a.as_str() == Some("acq")));
        // Per-graph generations ride along for cache-busting clients.
        let gens = v.get("generations").unwrap();
        assert_eq!(gens.get("fig5").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn search_returns_paper_example() {
        let s = server();
        let r = s.handle(&Request::get("/api/v1/search?name=A&k=2&algo=acq"));
        assert_eq!(r.status, 200, "{}", r.text());
        let v = v1_data(&r);
        let comms = v.get("communities").and_then(Json::as_array).unwrap();
        assert_eq!(comms.len(), 1);
        assert_eq!(comms[0].get("size").and_then(Json::as_f64), Some(3.0));
        let theme = comms[0].get("theme").and_then(Json::as_array).unwrap();
        assert_eq!(theme.len(), 2); // {x, y}
        // Scene is embedded with nodes.
        let scene = comms[0].get("scene").unwrap();
        assert_eq!(scene.get("nodes").and_then(Json::as_array).map(|a| a.len()), Some(3));
        assert!(v.get("cpj").and_then(Json::as_f64).unwrap() > 0.0);
        // The snapshot generation the response was computed against.
        assert_eq!(v.get("generation").and_then(Json::as_f64), Some(1.0));
        // Pagination metadata rides along.
        assert_eq!(v.get("total_communities").and_then(Json::as_f64), Some(1.0));
        assert_eq!(v.get("limit").and_then(Json::as_f64), Some(20.0));
        assert_eq!(v.get("offset").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn search_multi_vertex() {
        let s = server();
        let r = s.handle(&Request::get("/api/v1/search?names=A|D&k=2"));
        assert_eq!(r.status, 200, "{}", r.text());
        let v = v1_data(&r);
        let comms = v.get("communities").and_then(Json::as_array).unwrap();
        assert_eq!(comms[0].get("size").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn search_errors() {
        let s = server();
        assert_eq!(s.handle(&Request::get("/api/v1/search?k=2")).status, 400);
        assert_eq!(s.handle(&Request::get("/api/v1/search?name=ZZZ")).status, 404);
        assert_eq!(s.handle(&Request::get("/api/v1/search?name=A&algo=ghost")).status, 404);
        assert_eq!(s.handle(&Request::get("/api/v1/search?id=notanum")).status, 400);
        assert_eq!(s.handle(&Request::get("/api/v1/nope")).status, 404);
        assert_eq!(s.handle(&Request::post("/api/v1/search?name=A", "")).status, 405);
    }

    #[test]
    fn search_pagination_slices_results() {
        let s = server();
        // k=1 on fig5 yields several communities? If only one, offset=1
        // must yield an empty page while total stays put.
        let r = s.handle(&Request::get("/api/v1/search?name=A&k=2&limit=1&offset=1"));
        assert_eq!(r.status, 200, "{}", r.text());
        let v = v1_data(&r);
        let total = v.get("total_communities").and_then(Json::as_f64).unwrap();
        let comms = v.get("communities").and_then(Json::as_array).unwrap();
        assert_eq!(comms.len(), (total as usize).saturating_sub(1).min(1));
        assert_eq!(v.get("offset").and_then(Json::as_f64), Some(1.0));
        // Hostile limit values fall back to bounded defaults.
        let r = s.handle(&Request::get("/api/v1/search?name=A&k=2&limit=999999"));
        let v = v1_data(&r);
        assert_eq!(v.get("limit").and_then(Json::as_f64), Some(100.0));
        let r = s.handle(&Request::get("/api/v1/search?name=A&k=2&limit=-3"));
        let v = v1_data(&r);
        assert_eq!(v.get("limit").and_then(Json::as_f64), Some(20.0));
    }

    #[test]
    fn suggest_pagination_offsets() {
        let s = server();
        let all = s.handle(&Request::get("/api/v1/suggest?q=&limit=10"));
        let all = v1_data(&all);
        let all = all.as_array().unwrap();
        assert!(all.len() >= 3, "fig5 should suggest several vertices");
        let page = s.handle(&Request::get("/api/v1/suggest?q=&limit=2&offset=1"));
        let page = v1_data(&page);
        let page = page.as_array().unwrap();
        assert_eq!(page.len(), 2);
        assert_eq!(page[0], all[1], "offset=1 must skip the first suggestion");
    }

    #[test]
    fn suggest_ranks_exact_then_prefix_then_interior() {
        // "Joanna" contains "ann" inside and has the highest degree; it
        // still ranks after every label that starts with "ann".
        let mut b = cx_graph::GraphBuilder::new();
        let ids: Vec<VertexId> = ["Joanna", "Annie", "ann", "Annabel", "Bo", "Cy", "Di"]
            .iter()
            .map(|l| b.add_vertex(l, &[]))
            .collect();
        for &other in &ids[4..] {
            b.add_edge(ids[0], other);
        }
        b.add_edge(ids[1], ids[4]);
        let s = crate::Server::new(Engine::with_graph("names", b.build()));
        let hits = v1_data(&s.handle(&Request::get("/api/v1/suggest?q=ANN&limit=8")));
        let labels: Vec<&str> = hits
            .as_array()
            .unwrap()
            .iter()
            .map(|h| h.get("label").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(labels, ["ann", "Annie", "Annabel", "Joanna"]);
        // A page that the prefix tier fills never reaches the interior tier.
        let two = v1_data(&s.handle(&Request::get("/api/v1/suggest?q=ann&limit=2&offset=1")));
        let two: Vec<&str> =
            two.as_array().unwrap().iter().map(|h| h.get("label").and_then(Json::as_str).unwrap()).collect();
        assert_eq!(two, ["Annie", "Annabel"]);
    }

    #[test]
    fn suggest_deep_offset_is_rejected() {
        let s = server();
        let r = s.handle(&Request::get("/api/v1/suggest?q=&offset=10001"));
        assert_eq!(r.status, 400);
        assert!(r.text().contains("offset"));
    }

    #[test]
    fn hierarchy_level_view_lists_kcore_components() {
        let s = server();
        // Level 0: the root alone covers the whole graph.
        let d = v1_data(&s.handle(&Request::get("/api/v1/hierarchy")));
        assert_eq!(d.get("level").and_then(Json::as_f64), Some(0.0));
        assert_eq!(d.get("max_level").and_then(Json::as_f64), Some(3.0));
        let nodes = d.get("nodes").and_then(Json::as_array).unwrap();
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].get("vertices").and_then(Json::as_f64), Some(10.0));
        assert_eq!(nodes[0].get("edges").and_then(Json::as_f64), Some(11.0));
        // Level 1: the two components, largest first.
        let d1 = v1_data(&s.handle(&Request::get("/api/v1/hierarchy?level=1")));
        let n1 = d1.get("nodes").and_then(Json::as_array).unwrap();
        assert_eq!(n1.len(), 2);
        assert_eq!(n1[0].get("vertices").and_then(Json::as_f64), Some(7.0));
        assert_eq!(n1[1].get("vertices").and_then(Json::as_f64), Some(2.0));
        assert!(!n1[0].get("keywords").and_then(Json::as_array).unwrap().is_empty());
    }

    #[test]
    fn hierarchy_limit_caps_and_flags_truncation() {
        let s = server();
        let d = v1_data(&s.handle(&Request::get("/api/v1/hierarchy?level=1&limit=2")));
        // limit is clamped to ≥ 2; with exactly 2 components nothing is cut.
        assert_eq!(d.get("truncated").and_then(Json::as_bool), Some(false));
        let d = v1_data(&s.handle(&Request::get("/api/v1/hierarchy?level=1&limit=9999")));
        assert_eq!(d.get("total").and_then(Json::as_f64), Some(2.0));
        assert_eq!(d.get("nodes").and_then(Json::as_array).unwrap().len(), 2);
    }

    #[test]
    fn hierarchy_expansion_drills_down() {
        let s = server();
        // Find the level-0 root id, expand it, then walk one level down.
        let d = v1_data(&s.handle(&Request::get("/api/v1/hierarchy")));
        let root = d.get("nodes").and_then(Json::as_array).unwrap()[0]
            .get("id")
            .and_then(Json::as_f64)
            .unwrap() as u32;
        let ex = v1_data(&s.handle(&Request::get(&format!("/api/v1/hierarchy?node={root}"))));
        // Root residents: J alone; children: the two level-1 components.
        let residents = ex.get("residents").and_then(Json::as_array).unwrap();
        assert_eq!(residents.len(), 1);
        assert_eq!(residents[0].get("label").and_then(Json::as_str), Some("J"));
        let children = ex.get("children").and_then(Json::as_array).unwrap();
        assert_eq!(children.len(), 2);
        assert_eq!(ex.get("children_truncated").and_then(Json::as_bool), Some(false));
        // J is isolated: no internal edges, no links into the children.
        assert!(ex.get("edges").and_then(Json::as_array).unwrap().is_empty());
        assert!(ex.get("links").and_then(Json::as_array).unwrap().is_empty());
        // Drill into the larger child (the ABCDEFG component).
        let big = children[0].get("id").and_then(Json::as_f64).unwrap() as u32;
        let ex2 = v1_data(&s.handle(&Request::get(&format!("/api/v1/hierarchy?node={big}"))));
        let links = ex2.get("links").and_then(Json::as_array).unwrap();
        assert!(!links.is_empty(), "F/G connect into the 2-core");
        let weight_sum: f64 =
            links.iter().filter_map(|l| l.get("weight").and_then(Json::as_f64)).sum();
        assert!(weight_sum >= 1.0);
    }

    #[test]
    fn hierarchy_rejects_bad_node() {
        let s = server();
        assert_eq!(s.handle(&Request::get("/api/v1/hierarchy?node=abc")).status, 400);
        assert_eq!(s.handle(&Request::get("/api/v1/hierarchy?node=9999")).status, 404);
        // The JSON and the SVG endpoint agree on where the ids end: the
        // last node answers, the first stale id is a typed 404 on both.
        let n = s.engine().snapshot(None).unwrap().hierarchy().node_count();
        for param in ["hierarchy?node", "svg?supernode"] {
            let last = s.handle(&Request::get(&format!("/api/v1/{param}={}", n - 1)));
            assert_eq!(last.status, 200, "{param}: {}", last.text());
            let stale = s.handle(&Request::get(&format!("/api/v1/{param}={n}")));
            assert_eq!(stale.status, 404, "{param}: {}", stale.text());
            let v = Json::parse(&stale.text()).unwrap();
            assert_eq!(
                v.get("error").unwrap().get("code").and_then(Json::as_str),
                Some("not_found"),
                "{param}"
            );
        }
    }

    /// The contract that makes the hierarchy servable at any scale: no
    /// response lists more than 1000 nodes, whatever the client asks for.
    #[test]
    fn hierarchy_responses_never_exceed_1000_nodes() {
        // 1,200 disjoint triangles: 1,200 components of the 2-core.
        let mut b = cx_graph::GraphBuilder::with_capacity(3600, 3600);
        for i in 0..3600u32 {
            b.add_vertex(&format!("v{i}"), &["t"]);
        }
        for t in 0..1200u32 {
            let (a, c) = (VertexId(3 * t), VertexId(3 * t + 2));
            b.add_edge(a, VertexId(3 * t + 1));
            b.add_edge(VertexId(3 * t + 1), c);
            b.add_edge(a, c);
        }
        let s = crate::Server::new(Engine::with_graph("triangles", b.try_build().unwrap()));
        let d = v1_data(&s.handle(&Request::get("/api/v1/hierarchy?level=2&limit=99999")));
        assert_eq!(d.get("nodes").and_then(Json::as_array).unwrap().len(), 1000);
        assert_eq!(d.get("truncated").and_then(Json::as_bool), Some(true));
        assert_eq!(d.get("total").and_then(Json::as_f64), Some(1200.0));
        let r = s.handle(&Request::get("/api/v1/svg?level=2&max_nodes=99999"));
        assert_eq!(r.status, 200);
        assert_eq!(r.text().matches("<circle").count(), 1000);
    }

    #[test]
    fn svg_hierarchy_viewport_renders() {
        let s = server();
        let r = s.handle(&Request::get("/api/v1/svg?level=1"));
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, "image/svg+xml");
        assert!(r.text().contains("Hierarchy level 1"));
        // Expansion viewport for the root supernode.
        let d = v1_data(&s.handle(&Request::get("/api/v1/hierarchy")));
        let root = d.get("nodes").and_then(Json::as_array).unwrap()[0]
            .get("id")
            .and_then(Json::as_f64)
            .unwrap() as u32;
        let r2 = s.handle(&Request::get(&format!("/api/v1/svg?supernode={root}")));
        assert_eq!(r2.status, 200);
        assert!(r2.text().contains("residents"));
        // Nonsense supernode id is a typed error, not a panic.
        assert_eq!(s.handle(&Request::get("/api/v1/svg?supernode=xyz")).status, 400);
    }

    #[test]
    fn search_batch_mixes_success_and_typed_failure() {
        let s = server();
        let body = r#"{"queries":[
            {"name":"A","k":2},
            {"name":"ZZZ","k":2},
            {"k":2}
        ]}"#;
        let r = s.handle(&Request::post("/api/v1/search_batch", body));
        assert_eq!(r.status, 200, "{}", r.text());
        let data = v1_data(&r);
        assert_eq!(data.get("graph").and_then(Json::as_str), Some("fig5"));
        assert_eq!(data.get("generation").and_then(Json::as_f64), Some(1.0));
        assert_eq!(data.get("count").and_then(Json::as_f64), Some(3.0));
        assert_eq!(data.get("succeeded").and_then(Json::as_f64), Some(1.0));
        let results = data.get("results").and_then(Json::as_array).unwrap();
        // Item 0: the paper's example query, same shape as GET search
        // minus the scene.
        let ok = &results[0];
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
        let item = ok.get("data").unwrap();
        let comms = item.get("communities").and_then(Json::as_array).unwrap();
        assert_eq!(comms.len(), 1);
        assert_eq!(comms[0].get("size").and_then(Json::as_f64), Some(3.0));
        assert!(comms[0].get("scene").is_none());
        assert!(item.get("cpj").and_then(Json::as_f64).unwrap() > 0.0);
        // Item 1: unknown vertex fails just that slot, with a typed code.
        let missing = &results[1];
        assert_eq!(missing.get("ok").and_then(Json::as_bool), Some(false));
        assert!(matches!(missing.get("data"), Some(Json::Null)));
        let err = missing.get("error").unwrap();
        assert_eq!(err.get("code").and_then(Json::as_str), Some("unknown_vertex"));
        // Item 2: no vertex selector at all.
        let bad = &results[2];
        assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            bad.get("error").unwrap().get("code").and_then(Json::as_str),
            Some("bad_query")
        );
    }

    #[test]
    fn search_batch_rejects_oversize_empty_and_malformed() {
        let s = server();
        // Empty batch.
        let r = s.handle(&Request::post("/api/v1/search_batch", r#"{"queries":[]}"#));
        assert_eq!(r.status, 400);
        // Over the BATCH_MAX cap.
        let items: Vec<String> = (0..65).map(|_| r#"{"name":"A"}"#.to_owned()).collect();
        let body = format!("{{\"queries\":[{}]}}", items.join(","));
        let r = s.handle(&Request::post("/api/v1/search_batch", body));
        assert_eq!(r.status, 400, "{}", r.text());
        // Malformed JSON and a body without the queries array.
        for body in ["{not json", r#"{"graph":"fig5"}"#, r#"{"queries":42}"#] {
            let r = s.handle(&Request::post("/api/v1/search_batch", body));
            assert_eq!(r.status, 400, "{}", r.text());
            let v = Json::parse(&r.text()).unwrap();
            assert_eq!(
                v.get("error").unwrap().get("code").and_then(Json::as_str),
                Some("bad_json")
            );
        }
    }

    #[test]
    fn search_batch_items_clamp_pagination_like_get_search() {
        let s = server();
        let body = r#"{"queries":[
            {"name":"A","k":2,"limit":999999,"offset":0},
            {"name":"A","k":2,"limit":-3},
            {"name":"A","k":2,"limit":1,"offset":1}
        ]}"#;
        let r = s.handle(&Request::post("/api/v1/search_batch", body));
        assert_eq!(r.status, 200, "{}", r.text());
        let results = v1_data(&r);
        let results = results.get("results").and_then(Json::as_array).unwrap();
        let item = |i: usize| results[i].get("data").unwrap().clone();
        assert_eq!(item(0).get("limit").and_then(Json::as_f64), Some(100.0));
        assert_eq!(item(1).get("limit").and_then(Json::as_f64), Some(20.0));
        // Offset past the single result: empty page, total intact.
        assert_eq!(item(2).get("total_communities").and_then(Json::as_f64), Some(1.0));
        assert_eq!(item(2).get("communities").and_then(Json::as_array).map(|a| a.len()), Some(0));
    }

    #[test]
    fn svg_endpoint_renders() {
        let s = server();
        let r = s.handle(&Request::get("/api/v1/svg?name=A&k=2&algo=acq&index=0"));
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, "image/svg+xml");
        assert!(r.text().starts_with("<svg"));
        let out_of_range = s.handle(&Request::get("/api/v1/svg?name=A&k=2&index=9"));
        assert_eq!(out_of_range.status, 404);
    }

    /// One community of `KK_MAX_MEMBERS + 1` members: a ring is its own
    /// connected 2-core.
    fn ring_server() -> crate::Server {
        let n = KK_MAX_MEMBERS as u32 + 1;
        let mut b = cx_graph::GraphBuilder::new();
        for i in 0..n {
            b.add_vertex(&format!("r{i}"), &["ring"]);
        }
        for i in 0..n {
            b.add_edge(VertexId(i), VertexId((i + 1) % n));
        }
        crate::Server::new(Engine::with_graph("ring", b.build()))
    }

    #[test]
    fn search_writes_a_null_scene_above_the_kk_bound() {
        let s = ring_server();
        let scene = |layout: &str| {
            let target = format!("/api/v1/search?id=0&k=2&algo=global&layout={layout}");
            let v = v1_data(&s.handle(&Request::get(&target)));
            let comms = v.get("communities").and_then(Json::as_array).unwrap();
            let size = comms[0].get("size").and_then(Json::as_f64);
            assert_eq!(size, Some(KK_MAX_MEMBERS as f64 + 1.0));
            comms[0].get("scene").unwrap().clone()
        };
        assert_eq!(scene("kk"), Json::Null);
        assert!(matches!(scene("force"), Json::Object(_)));
    }

    #[test]
    fn svg_is_a_bad_query_above_the_kk_bound() {
        let s = ring_server();
        let r = s.handle(&Request::get("/api/v1/svg?id=0&k=2&algo=global&layout=kk"));
        assert_eq!(r.status, 400, "{}", r.text());
        let v = Json::parse(&r.text()).unwrap();
        assert_eq!(v.get("error").unwrap().get("code").and_then(Json::as_str), Some("bad_query"));
        let r = s.handle(&Request::get("/api/v1/svg?id=0&k=2&algo=global&layout=circular"));
        assert_eq!(r.status, 200);
    }

    /// A search whose answer is a giant community stops at the deadline
    /// checks after its analysis instead of laying the community out.
    #[test]
    fn search_of_a_giant_core_meets_its_deadline() {
        let (g, _) = cx_datagen::dblp_like(&cx_datagen::DblpParams::scaled(20_000, 42));
        let hub = g.vertices().max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v.0))).unwrap();
        let s = crate::Server::new(Engine::with_graph("dblp", g));
        // Cached, the search itself is instant, so only the later stages
        // can overrun the budget.
        let spec = QuerySpec::by_id(hub).k(2);
        let giant = s.engine().search("global", &spec).unwrap();
        assert!(giant[0].len() > 10_000, "{} members", giant[0].len());
        let target = format!("/api/v1/search?id={}&k=2&algo=global&timeout_ms=1", hub.0);
        let r = s.handle(&Request::get(&target));
        assert_eq!(r.status, 408, "{}", r.text());
        let v = Json::parse(&r.text()).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("code").and_then(Json::as_str),
            Some("deadline_exceeded")
        );
    }

    #[test]
    fn compare_endpoint_rows() {
        let s = server();
        let r = s.handle(&Request::get("/api/v1/compare?name=A&k=2&algos=global,acq"));
        assert_eq!(r.status, 200, "{}", r.text());
        let v = v1_data(&r);
        let rows = v.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("method").and_then(Json::as_str), Some("global"));
        let sim = v.get("similarity").and_then(Json::as_array).unwrap();
        assert_eq!(sim.len(), 2);
    }

    #[test]
    fn detect_endpoint() {
        let s = server();
        let r = s.handle(&Request::get("/api/v1/detect?algo=codicil"));
        assert_eq!(r.status, 200);
        let v = v1_data(&r);
        assert!(v.get("total").and_then(Json::as_f64).unwrap() >= 1.0);
    }

    #[test]
    fn profile_endpoint() {
        let s = server();
        {
            let engine = s.engine();
            let a = engine.snapshot(None).unwrap().vertex_by_label("A").unwrap();
            engine
                .set_profiles(
                    None,
                    [(
                        a,
                        cx_explorer::Profile {
                            name: "A".into(),
                            areas: vec!["CS".into()],
                            institutes: vec!["HKU".into()],
                            interests: vec!["db".into()],
                        },
                    )],
                )
                .unwrap();
        }
        let ok = s.handle(&Request::get("/api/v1/profile?id=0"));
        assert_eq!(ok.status, 200);
        assert!(ok.text().contains("HKU"));
        assert_eq!(s.handle(&Request::get("/api/v1/profile?id=5")).status, 404);
        assert_eq!(s.handle(&Request::get("/api/v1/profile?id=x")).status, 400);
    }

    #[test]
    fn upload_then_query_uploaded_graph() {
        let s = server();
        let body = "v\talice\tdb,ml\nv\tbob\tdb\nv\tcarol\tdb\ne\t0\t1\ne\t1\t2\ne\t0\t2\n";
        let up = s.handle(&Request::post("/api/v1/upload?name=mine", body));
        assert_eq!(up.status, 200, "{}", up.text());
        let v = v1_data(&up);
        assert_eq!(v.get("vertices").and_then(Json::as_f64), Some(3.0));
        let r = s.handle(&Request::get("/api/v1/search?graph=mine&name=alice&k=2&algo=acq"));
        assert_eq!(r.status, 200, "{}", r.text());
        let v = v1_data(&r);
        let comms = v.get("communities").and_then(Json::as_array).unwrap();
        assert_eq!(comms[0].get("size").and_then(Json::as_f64), Some(3.0));
        // Bad upload body.
        assert_eq!(s.handle(&Request::post("/api/v1/upload?name=bad", "q\tjunk")).status, 400);
        assert_eq!(s.handle(&Request::post("/api/v1/upload", "")).status, 400);
    }

    /// API.md documents exactly the table: one `### \`METHOD /path…\``
    /// heading per row, each section naming every parameter the row
    /// declares (`timeout_ms` is documented once, for all of `/api/v1`).
    #[test]
    fn api_md_documents_exactly_the_table() {
        let doc = include_str!("../../../API.md");
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
        assert_eq!(
            v.get("error").unwrap().get("code").and_then(Json::as_str),
            Some("overloaded")
        );
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
mod edit_endpoint_tests {
    use super::tests::v1_data;
    use super::*;
    use cx_datagen::figure5_graph;

    fn server() -> crate::Server {
        crate::Server::new(Engine::with_graph("fig5", figure5_graph()))
    }

    #[test]
    fn stats_endpoint_reports_graph_and_index() {
        let s = server();
        let r = s.handle(&Request::get("/api/v1/stats"));
        assert_eq!(r.status, 200);
        let v = v1_data(&r);
        assert_eq!(v.get("vertices").and_then(Json::as_f64), Some(10.0));
        assert_eq!(v.get("edges").and_then(Json::as_f64), Some(11.0));
        assert_eq!(v.get("degeneracy").and_then(Json::as_f64), Some(3.0));
        assert_eq!(v.get("index_nodes").and_then(Json::as_f64), Some(5.0));
        assert_eq!(v.get("generation").and_then(Json::as_f64), Some(1.0));
        assert_eq!(s.handle(&Request::get("/api/v1/stats?graph=nope")).status, 404);
    }

    #[test]
    fn edit_endpoint_applies_and_reindexes() {
        let s = server();
        // Remove an edge of the K4 (A=0, B=1): cores drop to 2.
        let r = s.handle(&Request::post("/api/v1/edit", r#"{"remove":[[0,1]]}"#));
        assert_eq!(r.status, 200, "{}", r.text());
        let v = v1_data(&r);
        assert_eq!(v.get("edges").and_then(Json::as_f64), Some(10.0));
        assert_eq!(v.get("generation").and_then(Json::as_f64), Some(2.0));
        let r = s.handle(&Request::get("/api/v1/stats"));
        let v = v1_data(&r);
        assert_eq!(v.get("degeneracy").and_then(Json::as_f64), Some(2.0));
        // A k=3 query now finds nothing.
        let r = s.handle(&Request::get("/api/v1/search?name=A&k=3&algo=acq"));
        let v = v1_data(&r);
        assert_eq!(
            v.get("communities").and_then(Json::as_array).map(|a| a.len()),
            Some(0)
        );
    }

    #[test]
    fn edit_endpoint_validates_payload() {
        let s = server();
        assert_eq!(s.handle(&Request::post("/api/v1/edit", "not json")).status, 400);
        assert_eq!(s.handle(&Request::post("/api/v1/edit", r#"{"add":[[0]]}"#)).status, 400);
        assert_eq!(s.handle(&Request::post("/api/v1/edit", r#"{"add":[[0,1.5]]}"#)).status, 400);
        assert_eq!(s.handle(&Request::post("/api/v1/edit", r#"{"add":[[0,99]]}"#)).status, 400);
        // Empty edit is a no-op success.
        assert_eq!(s.handle(&Request::post("/api/v1/edit", "{}")).status, 200);
    }
}

#[cfg(test)]
mod fragment_tests;
