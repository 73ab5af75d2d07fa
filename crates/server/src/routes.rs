//! The REST API over the engine — the protocol the browser page speaks.
//!
//! The API lives under `/api/v1/*`. Every JSON response is wrapped in a
//! uniform envelope `{"ok", "data", "error", "request_id",
//! "elapsed_ms"}`; errors carry a typed code from [`ErrorCode`]. Binary
//! endpoints (`/api/v1/svg`, `/api/v1/chart`) return their payload raw on
//! success and the JSON envelope on error. Any other path — including the
//! retired unversioned `/api/*` names — is an unknown path and answers
//! with the plain `{"error", "code"}` shape.
//!
//! Concurrency: the engine is shared as a plain `&Engine` — no request
//! ever takes a server-wide lock. Read handlers pin one immutable
//! [`cx_explorer::GraphSnapshot`] up front and serve the entire response
//! from it, so every field of a response (counts, communities, layout,
//! generation) is consistent with exactly one published graph version
//! even while edits land concurrently. Write handlers (`edit`, `upload`)
//! publish a new snapshot atomically; in-flight readers are unaffected.
//!
//! Outside the API there are three operational endpoints: `GET /metrics`
//! (Prometheus text exposition of the `cx-obs` registry), `GET /healthz`
//! (liveness + graph-loaded readiness, served from the O(1) registry
//! index) and `GET /api/v1/trace` (the span tree recorded for a recent
//! request id).
//!
//! [`route`] is the instrumented chokepoint: it assigns the request id,
//! records the request trace and the `cx_http_*` metrics, and stamps
//! `X-Request-Id` on every response. HTTP counters are bumped *after*
//! dispatch so a `/metrics` scrape never counts itself in its own body.

use std::collections::BTreeMap;
use std::time::Instant;

use cx_explorer::{Engine, ExplorerError, GraphSnapshot, Hierarchy, NodeId, QuerySpec};
use cx_graph::{AttributedGraph, Community, VertexId};
use cx_layout::LayoutAlgorithm;

use crate::http::{Request, Response};
use crate::json::{escape_into, number_into, Json};

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

/// What a handler produced: a JSON document (sent in the envelope) or a
/// raw non-JSON response passed through unchanged.
enum Payload {
    Data(Json),
    Raw(Response),
}

type Handler = Result<Payload, ApiError>;

/// Default per-request deadline (ms) when the client sends no `timeout_ms`.
pub const DEFAULT_TIMEOUT_MS: u64 = 30_000;

/// Upper clamp for client-supplied `timeout_ms` values.
pub const MAX_TIMEOUT_MS: u64 = 300_000;

/// Resolves the request deadline from `timeout_ms`: absent → the default,
/// present → a positive integer clamped to [`MAX_TIMEOUT_MS`]; anything
/// else (zero, negative, non-integer) is a typed `bad_query`.
fn timeout_from(req: &Request) -> Result<std::time::Duration, ApiError> {
    match req.param("timeout_ms") {
        None => Ok(std::time::Duration::from_millis(DEFAULT_TIMEOUT_MS)),
        Some(s) => match s.parse::<u64>() {
            Ok(ms) if ms >= 1 => {
                Ok(std::time::Duration::from_millis(ms.min(MAX_TIMEOUT_MS)))
            }
            _ => Err(ApiError::bad_query("timeout_ms must be a positive integer (milliseconds)")),
        },
    }
}

/// The bearer token required for `/api/*` requests, from `CX_AUTH_TOKEN`.
/// Read once: the deployment model is "set before start", and a per-request
/// `env::var` would make the auth decision racy with concurrent `set_var`.
fn env_auth_token() -> Option<&'static str> {
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
        Err(ApiError::new(ErrorCode::Unauthorized, "missing or invalid bearer token"))
    }
}

/// Dispatches one request. This is the instrumented chokepoint described
/// in the module docs. Auth comes from `CX_AUTH_TOKEN` (see
/// [`route_with_auth`] for an injectable variant used by tests).
pub fn route(engine: &Engine, req: &Request) -> Response {
    route_with_auth(engine, req, env_auth_token())
}

/// [`route`] with the required bearer token passed explicitly.
pub fn route_with_auth(engine: &Engine, req: &Request, auth: Option<&str>) -> Response {
    let t0 = Instant::now();
    let request_id = cx_obs::trace::next_request_id();
    let mut resp = {
        let _trace = cx_obs::trace::begin_request(&request_id);
        let _span = cx_obs::span("http.request");
        match check_auth(req, auth) {
            Ok(()) => dispatch(engine, req, &request_id, t0),
            Err(e) => {
                cx_obs::metrics::inc("cx_http_unauthorized_total");
                if req.path.starts_with("/api/v1/") {
                    envelope(Err(e), &request_id, t0)
                } else {
                    plain_error(&e)
                }
            }
        }
    };
    // Bumped after dispatch: a /metrics response must not count itself.
    let class = match resp.status {
        200..=299 => "2xx",
        300..=399 => "3xx",
        400..=499 => "4xx",
        _ => "5xx",
    };
    cx_obs::metrics::inc(&format!("cx_http_requests_total{{class=\"{class}\"}}"));
    cx_obs::metrics::add("cx_http_bytes_in_total", req.body.len() as u64);
    cx_obs::metrics::add("cx_http_bytes_out_total", resp.body.len() as u64);
    cx_obs::metrics::observe_us("cx_http_request_duration_us", t0.elapsed().as_micros() as u64);
    resp.headers.push(("X-Request-Id".into(), request_id));
    resp
}

fn dispatch(engine: &Engine, req: &Request, request_id: &str, t0: Instant) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/") | ("GET", "/index.html") => return Response::html(crate::ui::INDEX_HTML),
        ("GET", "/metrics") => return metrics_text(),
        ("GET", "/healthz") => return healthz(engine),
        _ => {}
    }
    let Some(endpoint) = req.path.strip_prefix("/api/v1/") else {
        let e = if req.method == "GET" {
            ApiError::not_found("no such endpoint")
        } else {
            ApiError::new(ErrorCode::MethodNotAllowed, "method not allowed")
        };
        return plain_error(&e);
    };

    // Per-endpoint span + latency histogram, with a *static* label so a
    // hostile path can't explode metric cardinality.
    fn timed(label: &'static str, f: impl FnOnce() -> Handler) -> Handler {
        let _span = cx_obs::span(&format!("route.{label}"));
        let t = Instant::now();
        let out = f();
        cx_obs::metrics::observe_us(
            &format!("cx_route_duration_us{{endpoint=\"{label}\"}}"),
            t.elapsed().as_micros() as u64,
        );
        out
    }

    // `timeout_ms` is validated once for every endpoint (nonsense is a
    // typed 400 everywhere); the long-running handlers additionally turn
    // it into a cancel token threaded into the engine.
    let result = match timeout_from(req) {
        Err(e) => Err(e),
        Ok(timeout) => match (req.method.as_str(), endpoint) {
            ("GET", "graphs") => timed("graphs", || graphs(engine)),
            ("GET", "stats") => timed("stats", || stats(engine, req)),
            ("GET", "suggest") => timed("suggest", || suggest(engine, req)),
            ("GET", "search") => timed("search", || search(engine, req, timeout)),
            ("GET", "svg") => timed("svg", || svg(engine, req, timeout)),
            ("GET", "compare") => timed("compare", || compare(engine, req)),
            ("GET", "chart") => timed("chart", || chart(engine, req)),
            ("GET", "detect") => timed("detect", || detect(engine, req, timeout)),
            ("GET", "profile") => timed("profile", || profile(engine, req)),
            ("POST", "upload") => timed("upload", || upload(engine, req)),
            ("POST", "edit") => timed("edit", || edit(engine, req)),
            ("POST", "search_batch") => {
                timed("search_batch", || search_batch(engine, req, timeout))
            }
            ("GET", "hierarchy") => timed("hierarchy", || hierarchy(engine, req)),
            ("GET", "trace") => timed("trace", || trace_endpoint(req)),
            // The SSE endpoint exists only on the event-loop transport
            // (route_sink); through the plain chokepoint it is a typed 404.
            ("GET", "detect_stream") => {
                Err(ApiError::not_found("detect_stream requires an SSE-capable transport"))
            }
            ("GET", _) => Err(ApiError::not_found("no such endpoint")),
            _ => Err(ApiError::new(ErrorCode::MethodNotAllowed, "method not allowed")),
        },
    };

    match result {
        Ok(Payload::Raw(r)) => r,
        Ok(Payload::Data(data)) => envelope(Ok(data), request_id, t0),
        Err(e) => envelope(Err(e), request_id, t0),
    }
}

/// The error shape outside `/api/v1`: `{"error": msg, "code": code}`.
fn plain_error(e: &ApiError) -> Response {
    let v = Json::obj([
        ("error", Json::str(e.message.clone())),
        ("code", Json::str(e.code.as_str())),
    ]);
    let mut r = Response::json(&v);
    r.status = e.code.status();
    if e.code == ErrorCode::Overloaded {
        r = r.with_header("Retry-After", "1");
    }
    r
}

/// Wraps a handler result in the v1 response envelope.
fn envelope(result: Result<Json, ApiError>, request_id: &str, t0: Instant) -> Response {
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (status, ok, data, error, overloaded) = match result {
        Ok(d) => (200, true, d, Json::Null, false),
        Err(e) => (
            e.code.status(),
            false,
            Json::Null,
            Json::obj([
                ("code", Json::str(e.code.as_str())),
                ("message", Json::str(e.message)),
            ]),
            e.code == ErrorCode::Overloaded,
        ),
    };
    let mut r = Response::json(&Json::obj([
        ("ok", Json::Bool(ok)),
        ("data", data),
        ("error", error),
        ("request_id", Json::str(request_id)),
        ("elapsed_ms", Json::num(elapsed_ms)),
    ]));
    r.status = status;
    if overloaded {
        r = r.with_header("Retry-After", "1");
    }
    r
}

/// GET /metrics — Prometheus text exposition of the cx-obs registry.
fn metrics_text() -> Response {
    let mut body = cx_obs::global().prometheus_text();
    if body.is_empty() {
        // Cold registry (first-ever request, or CX_OBS=off): still a
        // valid, non-empty exposition.
        body.push_str("# no samples recorded yet\n");
    }
    Response::with_body("text/plain; version=0.0.4; charset=utf-8", body)
}

/// GET /healthz — liveness (the process answers) plus readiness
/// (a graph is loaded and queryable). Served entirely from the O(1)
/// registry index: no snapshot is cloned, no graph data touched.
fn healthz(engine: &Engine) -> Response {
    let idx = engine.registry_index();
    Response::json(&Json::obj([
        ("status", Json::str("ok")),
        ("graph_loaded", Json::Bool(!idx.graphs.is_empty())),
        ("graphs", Json::num(idx.graphs.len() as f64)),
        ("traces", Json::num(cx_obs::trace::trace_count() as f64)),
    ]))
}

/// GET /api/v1/trace?request_id=… — the recorded span tree for a recent
/// request.
fn trace_endpoint(req: &Request) -> Handler {
    let Some(id) = req.param("request_id") else {
        return Err(ApiError::bad_query("missing request_id parameter"));
    };
    let Some(t) = cx_obs::trace::get_trace(id) else {
        return Err(ApiError::not_found(format!("no trace recorded for request id {id:?}")));
    };
    let spans = Json::arr(t.spans.iter().map(|s| {
        Json::obj([
            ("name", Json::str(s.name.clone())),
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
            ("name", Json::str(s.name.clone())),
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

/// Resolves `limit`/`offset` pagination parameters with bounded defaults:
/// unparseable values fall back to the default (matching the API's
/// historical leniency), and `limit` is clamped to `1..=max_limit`.
fn page_params(req: &Request, default_limit: usize, max_limit: usize) -> (usize, usize) {
    let limit = req.param_as::<usize>("limit", default_limit).clamp(1, max_limit);
    let offset = req.param_as::<usize>("offset", 0);
    (limit, offset)
}

/// GET /api/graphs — the registry directory. Served from the O(1) index
/// (never clones a snapshot); `generations` maps each graph to its
/// currently published generation so clients can detect content changes.
fn graphs(engine: &Engine) -> Handler {
    let idx = engine.registry_index();
    let graphs = Json::arr(idx.graphs.iter().map(|g| Json::str(g.name.clone())));
    let generations: BTreeMap<String, Json> = idx
        .graphs
        .iter()
        .map(|g| (g.name.clone(), Json::num(g.generation as f64)))
        .collect();
    let cs = Json::arr(engine.cs_names().iter().map(|n| Json::str(*n)));
    let cd = Json::arr(engine.cd_names().iter().map(|n| Json::str(*n)));
    let default = idx.default_graph.map(Json::str).unwrap_or(Json::Null);
    Ok(Payload::Data(Json::obj([
        ("graphs", graphs),
        ("cs_algorithms", cs),
        ("cd_algorithms", cd),
        ("default_graph", default),
        ("generations", Json::Object(generations)),
    ])))
}

fn stats(engine: &Engine, req: &Request) -> Handler {
    let snap = engine.snapshot(req.param("graph"))?;
    let s = cx_graph::stats::GraphStats::compute(&snap.graph);
    let tree = &snap.tree;
    let cache = engine.cache_stats();
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

/// POST /api/edit?graph=g — body: JSON `{"add": [[u,v],…], "remove": [[u,v],…]}`.
///
/// Read-non-blocking: the new graph and CL-tree are built off-lock and
/// published as a fresh snapshot; concurrent searches keep answering from
/// the previous snapshot throughout.
fn edit(engine: &Engine, req: &Request) -> Handler {
    let body = std::str::from_utf8(&req.body)
        .map_err(|_| ApiError::bad_json("body must be UTF-8 JSON"))?;
    let v = Json::parse(body).map_err(|e| ApiError::bad_json(format!("bad JSON: {e}")))?;
    let pairs = |key: &str| -> Result<Vec<(VertexId, VertexId)>, ApiError> {
        let Some(arr) = v.get(key).and_then(Json::as_array) else {
            return Ok(Vec::new());
        };
        arr.iter()
            .map(|p| {
                let xs = p.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                    ApiError::bad_json(format!("{key} entries must be [u, v] pairs"))
                })?;
                let f = |j: &Json| {
                    j.as_f64()
                        .filter(|x| x.fract() == 0.0 && *x >= 0.0)
                        .map(|x| VertexId(x as u32))
                        .ok_or_else(|| ApiError::bad_json("vertex ids must be integers"))
                };
                Ok((f(&xs[0])?, f(&xs[1])?))
            })
            .collect()
    };
    let add = pairs("add")?;
    let remove = pairs("remove")?;
    engine.apply_edits(req.param("graph"), &add, &remove)?;
    let snap = engine.snapshot(req.param("graph"))?;
    Ok(Payload::Data(Json::obj([
        ("ok", Json::Bool(true)),
        ("vertices", Json::num(snap.graph.vertex_count() as f64)),
        ("edges", Json::num(snap.graph.edge_count() as f64)),
        ("generation", Json::num(snap.generation as f64)),
    ])))
}

/// Hard ceiling on suggest pagination depth. The engine materialises the
/// best `offset + limit` candidates per request (bounded partial
/// selection), so an unbounded offset would let one request force a
/// near-full sort of a million-vertex hit list. Past this depth the
/// client should narrow the query instead.
const SUGGEST_MAX_OFFSET: usize = 10_000;

fn suggest(engine: &Engine, req: &Request) -> Handler {
    let q = req.param("q").unwrap_or("");
    let (limit, offset) = page_params(req, 8, 100);
    if offset > SUGGEST_MAX_OFFSET {
        return Err(ApiError::bad_query("suggest offset is capped at 10000; narrow the query"));
    }
    let (hits, _total) = engine.suggest_page(req.param("graph"), q, offset, limit)?;
    Ok(Payload::Data(Json::arr(hits.into_iter().map(|(v, label, degree)| {
        Json::obj([
            ("id", Json::num(v.0 as f64)),
            ("label", Json::str(label)),
            ("degree", Json::num(degree as f64)),
        ])
    }))))
}

/// Builds the query spec shared by `search` and `compare`:
/// `name` (or `names=a|b` for multi-vertex, or `id`), `k`, `keywords=a,b`.
fn spec_from(req: &Request) -> Result<QuerySpec, ApiError> {
    let mut spec = if let Some(names) = req.param("names") {
        let labels: Vec<&str> = names.split('|').filter(|s| !s.is_empty()).collect();
        if labels.is_empty() {
            return Err(ApiError::bad_query("names parameter is empty"));
        }
        QuerySpec::by_labels(labels)
    } else if let Some(name) = req.param("name") {
        QuerySpec::by_label(name)
    } else if let Some(id) = req.param("id") {
        match id.parse::<u32>() {
            Ok(i) => QuerySpec::by_id(VertexId(i)),
            Err(_) => return Err(ApiError::bad_query("id must be an integer")),
        }
    } else {
        return Err(ApiError::bad_query("missing name/names/id parameter"));
    };
    spec = spec.k(req.param_as::<u32>("k", 1));
    if let Some(kws) = req.param("keywords") {
        spec = spec.with_keywords(kws.split(',').filter(|s| !s.is_empty()));
    }
    Ok(spec)
}

fn layout_from(req: &Request) -> LayoutAlgorithm {
    match req.param("layout").unwrap_or("force") {
        "circular" => LayoutAlgorithm::Circular,
        "shell" => LayoutAlgorithm::Shell,
        "kk" => LayoutAlgorithm::KamadaKawai { iterations: 80 },
        _ => LayoutAlgorithm::default_force(),
    }
}

/// Appends the community's `theme` array straight from the keyword
/// interner: each shared-keyword name is escaped from its interned `&str`
/// slice into `buf` — no `Vec<String>` materialisation.
fn write_theme(buf: &mut String, g: &AttributedGraph, c: &Community) {
    buf.push('[');
    let interner = g.interner();
    let mut first = true;
    for &w in c.shared_keywords() {
        if let Some(name) = interner.name(w) {
            if !first {
                buf.push(',');
            }
            first = false;
            escape_into(buf, name);
        }
    }
    buf.push(']');
}

/// Appends the community's `members` array straight from the CSR label
/// column: each label is escaped from the graph-resident `&str` into
/// `buf` — no per-member `String` clone.
fn write_members(buf: &mut String, g: &AttributedGraph, c: &Community) {
    for (i, &v) in c.vertices().iter().enumerate() {
        buf.push_str(if i == 0 { "[{\"id\":" } else { ",{\"id\":" });
        number_into(buf, v.0 as f64);
        buf.push_str(",\"label\":");
        escape_into(buf, g.label(v));
        buf.push('}');
    }
    if c.vertices().is_empty() {
        buf.push('[');
    }
    buf.push(']');
}

/// Appends one full community object (everything but the scene) to `buf`,
/// serialised zero-copy from graph slices — what `search_batch` streams
/// per community.
fn write_community(buf: &mut String, g: &AttributedGraph, c: &Community) {
    buf.push_str("{\"avg_degree\":");
    number_into(buf, c.average_internal_degree(g));
    buf.push_str(",\"edges\":");
    number_into(buf, c.internal_edge_count(g) as f64);
    buf.push_str(",\"members\":");
    write_members(buf, g, c);
    buf.push_str(",\"size\":");
    number_into(buf, c.len() as f64);
    buf.push_str(",\"theme\":");
    write_theme(buf, g, c);
    buf.push('}');
}

fn community_json(
    e: &Engine,
    snap: &GraphSnapshot,
    c: &Community,
    layout: LayoutAlgorithm,
    highlight: Option<VertexId>,
) -> Json {
    let g = &*snap.graph;
    // The scene is decorative; if serialization fails (e.g. degenerate
    // coordinates), degrade to `scene: null` rather than failing the
    // whole response.
    let scene = Json::parse(&e.display_snapshot(snap, c, layout, highlight).to_json())
        .ok()
        .unwrap_or(Json::Null);
    // Members and theme are streamed zero-copy from graph slices into
    // raw fragments instead of cloning every label/keyword into owned
    // Json::String nodes.
    let mut members = String::new();
    write_members(&mut members, g, c);
    let mut theme = String::new();
    write_theme(&mut theme, g, c);
    Json::obj([
        ("size", Json::num(c.len() as f64)),
        ("edges", Json::num(c.internal_edge_count(g) as f64)),
        ("avg_degree", Json::num(c.average_internal_degree(g))),
        ("theme", Json::Raw(theme)),
        ("members", Json::Raw(members)),
        ("scene", scene),
    ])
}

fn search(engine: &Engine, req: &Request, timeout: std::time::Duration) -> Handler {
    let spec = spec_from(req)?;
    let algo = req.param("algo").unwrap_or("acq");
    let layout = layout_from(req);
    let (limit, offset) = page_params(req, 20, 100);
    // One snapshot for the whole request: results, analysis, labels and
    // the reported generation all describe the same graph version.
    let snap = engine.snapshot(req.param("graph"))?;
    let token = cx_par::task::CancelToken::with_timeout(timeout);
    let communities = engine.search_snapshot_cancellable(&snap, algo, &spec, &token)?;
    let g = &*snap.graph;
    let q = match spec.resolve(g) {
        Ok(qs) if !qs.is_empty() => qs[0],
        Ok(_) => return Err(ApiError::bad_query("query resolved to no vertices")),
        Err(err) => return Err(err.into()),
    };
    let analysis = engine.analyze_snapshot(&snap, &communities, q)?;
    let total = communities.len();
    let list = Json::arr(
        communities
            .iter()
            .skip(offset)
            .take(limit)
            .map(|c| community_json(engine, &snap, c, layout, Some(q))),
    );
    Ok(Payload::Data(Json::obj([
        ("query", Json::obj([
            ("vertex", Json::num(q.0 as f64)),
            ("label", Json::str(g.label(q))),
            ("k", Json::num(spec.k as f64)),
            ("algo", Json::str(algo)),
        ])),
        ("generation", Json::num(snap.generation as f64)),
        ("communities", list),
        ("total_communities", Json::num(total as f64)),
        ("limit", Json::num(limit as f64)),
        ("offset", Json::num(offset as f64)),
        ("cpj", Json::num(analysis.cpj)),
        ("cmf", Json::num(analysis.cmf)),
        // The query author's keywords, so the UI can render the chips.
        ("query_keywords", Json::arr(g.keyword_names(g.keywords(q)).into_iter().map(Json::str))),
    ])))
}

/// Maximum number of query specs one `search_batch` request may carry.
const BATCH_MAX: usize = 64;

/// One parsed member of a `search_batch` request.
struct BatchItem {
    spec: QuerySpec,
    algo: String,
    limit: usize,
    offset: usize,
}

/// Reads an optional non-negative integer field with the API's historical
/// pagination leniency: wrong type / negative / fractional falls back to
/// the default (mirroring `page_params` on the GET routes).
fn usize_field(v: &Json, key: &str, default: usize) -> usize {
    v.get(key)
        .and_then(Json::as_f64)
        .filter(|x| x.fract() == 0.0 && *x >= 0.0 && *x < 9e15)
        .map(|x| x as usize)
        .unwrap_or(default)
}

/// Parses one batch entry. Shapes mirror the GET `search` parameters:
/// `name` | `names` (array) | `id`, plus `k`, `keywords` (array), `algo`,
/// and `limit`/`offset` under exactly the GET routes' clamp rules
/// (limit default 20, clamped to 1..=100; offset default 0).
fn batch_item(v: &Json) -> Result<BatchItem, ApiError> {
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
        match id.as_f64().filter(|x| x.fract() == 0.0 && *x >= 0.0 && *x <= u32::MAX as f64) {
            Some(i) => QuerySpec::by_id(VertexId(i as u32)),
            None => return Err(ApiError::bad_query("id must be a non-negative integer")),
        }
    } else {
        return Err(ApiError::bad_query("missing name/names/id field"));
    };
    match v.get("k") {
        None => {}
        Some(k) => match k.as_f64().filter(|x| x.fract() == 0.0 && *x >= 0.0 && *x <= u32::MAX as f64) {
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
    Ok(BatchItem { spec, algo, limit, offset })
}

/// Executes one parsed batch member against the shared pinned snapshot:
/// one cache pass (get-or-compute) in `search_snapshot`, then zero-copy
/// community serialisation. The payload mirrors GET `search` minus the
/// decorative scene (batch clients wanting a drawing fetch `/api/v1/svg`
/// per community).
fn run_batch_item(
    engine: &Engine,
    snap: &GraphSnapshot,
    item: &BatchItem,
    token: &cx_par::task::CancelToken,
) -> Result<Json, ApiError> {
    let communities = engine.search_snapshot_cancellable(snap, &item.algo, &item.spec, token)?;
    let g = &*snap.graph;
    let q = match item.spec.resolve(g) {
        Ok(qs) if !qs.is_empty() => qs[0],
        Ok(_) => return Err(ApiError::bad_query("query resolved to no vertices")),
        Err(err) => return Err(err.into()),
    };
    let analysis = engine.analyze_snapshot(snap, &communities, q)?;
    let total = communities.len();
    let mut list = String::from("[");
    for (i, c) in communities.iter().skip(item.offset).take(item.limit).enumerate() {
        if i > 0 {
            list.push(',');
        }
        write_community(&mut list, g, c);
    }
    list.push(']');
    Ok(Json::obj([
        ("query", Json::obj([
            ("vertex", Json::num(q.0 as f64)),
            ("label", Json::str(g.label(q))),
            ("k", Json::num(item.spec.k as f64)),
            ("algo", Json::str(item.algo.clone())),
        ])),
        ("communities", Json::Raw(list)),
        ("total_communities", Json::num(total as f64)),
        ("limit", Json::num(item.limit as f64)),
        ("offset", Json::num(item.offset as f64)),
        ("cpj", Json::num(analysis.cpj)),
        ("cmf", Json::num(analysis.cmf)),
    ]))
}

/// The per-item envelope: success wraps the item payload, failure carries
/// the same typed `{code, message}` object the top-level envelope uses,
/// so one bad spec degrades exactly one slot of the batch.
fn batch_envelope(result: Result<Json, ApiError>) -> Json {
    match result {
        Ok(data) => Json::obj([
            ("ok", Json::Bool(true)),
            ("data", data),
            ("error", Json::Null),
        ]),
        Err(e) => Json::obj([
            ("ok", Json::Bool(false)),
            ("data", Json::Null),
            ("error", Json::obj([
                ("code", Json::str(e.code.as_str())),
                ("message", Json::str(e.message)),
            ])),
        ]),
    }
}

/// POST /api/v1/search_batch — body:
/// `{"graph": "name"?, "queries": [{...}, ...]}` with at most
/// [`BATCH_MAX`] entries (see [`batch_item`] for the entry shape).
///
/// The whole batch pins **one** snapshot, so every member (results,
/// labels, quality metrics, the reported generation) describes the same
/// graph version even while edits land concurrently. Members execute in
/// parallel over the `cx-par` pool, each doing a single query-cache pass;
/// per-member failures come back as typed per-item envelopes while the
/// batch itself stays a 200.
fn search_batch(engine: &Engine, req: &Request, timeout: std::time::Duration) -> Handler {
    let body = std::str::from_utf8(&req.body)
        .map_err(|_| ApiError::bad_json("body must be UTF-8 JSON"))?;
    let v = Json::parse(body).map_err(|e| ApiError::bad_json(format!("bad JSON: {e}")))?;
    // A body-level `timeout_ms` overrides the query parameter, under the
    // same validation and clamp rules.
    let timeout = match v.get("timeout_ms") {
        None => timeout,
        Some(t) => match t.as_f64().filter(|x| x.fract() == 0.0 && *x >= 1.0) {
            Some(ms) => {
                std::time::Duration::from_millis((ms as u64).min(MAX_TIMEOUT_MS))
            }
            None => {
                return Err(ApiError::bad_query(
                    "timeout_ms must be a positive integer (milliseconds)",
                ))
            }
        },
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
    let graph = v.get("graph").and_then(Json::as_str).or_else(|| req.param("graph"));
    // One snapshot pin for the whole batch.
    let snap = engine.snapshot(graph)?;
    // One shared deadline across the whole batch: the token is an Arc'd
    // flag, so every member observes the same cutoff.
    let token = cx_par::task::CancelToken::with_timeout(timeout);
    let parsed: Vec<Result<BatchItem, ApiError>> = items.iter().map(batch_item).collect();
    let results: Vec<Json> = cx_par::par_map_tasks(parsed.len(), |i| {
        batch_envelope(match &parsed[i] {
            Ok(item) => run_batch_item(engine, &snap, item, &token),
            Err(e) => Err(e.clone()),
        })
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

/// One supernode as JSON: identity, aggregates, top keywords.
fn supernode_json(g: &AttributedGraph, h: &Hierarchy, id: NodeId) -> Json {
    let s = h.stats(id);
    let avg_degree = if s.subtree_vertices > 0 {
        s.sum_degree as f64 / s.subtree_vertices as f64
    } else {
        0.0
    };
    Json::obj([
        ("id", Json::num(id.0 as f64)),
        ("level", Json::num(s.level as f64)),
        ("residents", Json::num(s.residents as f64)),
        ("vertices", Json::num(s.subtree_vertices as f64)),
        ("edges", Json::num(s.subtree_edges as f64)),
        ("avg_degree", Json::num(avg_degree)),
        ("max_degree", Json::num(s.max_degree as f64)),
        (
            "keywords",
            Json::arr(s.top_keywords.iter().filter_map(|&(w, c)| {
                let name = g.interner().name(w)?;
                Some(Json::obj([
                    ("keyword", Json::str(name.to_owned())),
                    ("count", Json::num(c as f64)),
                ]))
            })),
        ),
    ])
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
/// resident→child links. Residents and children split the `limit`
/// budget, so the response stays bounded no matter how large the
/// supernode is.
fn hierarchy(engine: &Engine, req: &Request) -> Handler {
    let snap = engine.snapshot(req.param("graph"))?;
    let h = snap.hierarchy();
    let g = &snap.graph;
    let limit = req
        .param_as::<usize>("limit", HIERARCHY_DEFAULT_NODES)
        .clamp(2, HIERARCHY_MAX_NODES);

    if let Some(node) = req.param("node") {
        let Ok(n) = node.parse::<u32>() else {
            return Err(ApiError::bad_query("node must be an integer supernode id"));
        };
        if n as usize >= h.node_count() {
            return Err(ApiError::not_found("no such supernode"));
        }
        let id = NodeId(n);
        let ex = h.expand(g, &snap.tree, id, limit / 2);
        let mut children = ex.children.clone();
        children.sort_unstable_by_key(|&c| (u32::MAX - h.stats(c).subtree_vertices, c.0));
        let children_total = children.len();
        children.truncate(limit.saturating_sub(ex.residents.len()).max(1));
        let kept: std::collections::HashSet<NodeId> = children.iter().copied().collect();
        let s = h.stats(id);
        return Ok(Payload::Data(Json::obj([
            ("node", Json::num(n as f64)),
            ("level", Json::num(s.level as f64)),
            (
                "residents",
                Json::arr(ex.residents.iter().map(|&v| {
                    Json::obj([
                        ("id", Json::num(v.0 as f64)),
                        ("label", Json::str(g.label(v).to_owned())),
                        ("degree", Json::num(g.degree(v) as f64)),
                    ])
                })),
            ),
            ("residents_truncated", Json::Bool(ex.truncated)),
            ("children", Json::arr(children.iter().map(|&c| supernode_json(g, &h, c)))),
            ("children_total", Json::num(children_total as f64)),
            ("children_truncated", Json::Bool(children.len() < children_total)),
            (
                "edges",
                Json::arr(ex.internal_edges.iter().map(|&(u, v)| {
                    Json::arr([Json::num(u.0 as f64), Json::num(v.0 as f64)])
                })),
            ),
            (
                "links",
                // Links to children dropped by the budget are dropped
                // with them; `children_truncated` flags the cut.
                Json::arr(ex.child_links.iter().filter(|(_, c, _)| kept.contains(c)).map(
                    |&(u, c, w)| {
                        Json::obj([
                            ("from", Json::num(u.0 as f64)),
                            ("to", Json::num(c.0 as f64)),
                            ("weight", Json::num(w as f64)),
                        ])
                    },
                )),
            ),
        ])));
    }

    let level = req.param_as::<u32>("level", 0);
    let nodes = h.level_nodes(level);
    let total = nodes.len();
    let shown: Vec<NodeId> = nodes.into_iter().take(limit).collect();
    Ok(Payload::Data(Json::obj([
        ("level", Json::num(level as f64)),
        ("max_level", Json::num(h.max_level() as f64)),
        ("total", Json::num(total as f64)),
        ("truncated", Json::Bool(shown.len() < total)),
        ("nodes", Json::arr(shown.iter().map(|&id| supernode_json(g, &h, id)))),
    ])))
}

fn svg(engine: &Engine, req: &Request, timeout: std::time::Duration) -> Handler {
    // Hierarchy viewport mode: `?level=K` or `?supernode=ID` renders the
    // multi-resolution summary instead of a community. `max_nodes`
    // bounds the viewport exactly like `limit` bounds the JSON API.
    if req.param("level").is_some() || req.param("supernode").is_some() {
        let snap = engine.snapshot(req.param("graph"))?;
        let max_nodes = req
            .param_as::<usize>("max_nodes", 400)
            .clamp(2, HIERARCHY_MAX_NODES);
        let scene = if let Some(node) = req.param("supernode") {
            let Ok(n) = node.parse::<u32>() else {
                return Err(ApiError::bad_query("supernode must be an integer id"));
            };
            engine.hierarchy_expand_scene(&snap, n, max_nodes)?
        } else {
            engine.hierarchy_level_scene(&snap, req.param_as::<u32>("level", 0), max_nodes)
        };
        return Ok(Payload::Raw(Response::svg(scene.to_svg())));
    }
    let spec = spec_from(req)?;
    let algo = req.param("algo").unwrap_or("acq");
    let index = req.param_as::<usize>("index", 0);
    let snap = engine.snapshot(req.param("graph"))?;
    let token = cx_par::task::CancelToken::with_timeout(timeout);
    let communities = engine.search_snapshot_cancellable(&snap, algo, &spec, &token)?;
    let Some(c) = communities.get(index) else {
        return Err(ApiError::not_found("community index out of range"));
    };
    let q = match spec.resolve(&snap.graph) {
        Ok(qs) if !qs.is_empty() => qs[0],
        Ok(_) => return Err(ApiError::bad_query("query resolved to no vertices")),
        Err(err) => return Err(err.into()),
    };
    let scene = engine.display_snapshot(&snap, c, layout_from(req), Some(q));
    let scene = scene
        .titled(format!("Method: {algo} — community {} of {}", index + 1, communities.len()));
    Ok(Payload::Raw(Response::svg(scene.to_svg())))
}

fn compare(engine: &Engine, req: &Request) -> Handler {
    let spec = spec_from(req)?;
    let algos_param = req.param("algos").unwrap_or("global,local,codicil,acq");
    let algos: Vec<&str> = algos_param.split(',').filter(|s| !s.is_empty()).collect();
    let report = engine.compare(req.param("graph"), &algos, &spec)?;
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

/// GET /api/chart — the comparison's CPJ/CMF bars as downloadable SVG.
fn chart(engine: &Engine, req: &Request) -> Handler {
    let spec = spec_from(req)?;
    let algos_param = req.param("algos").unwrap_or("global,local,codicil,acq");
    let algos: Vec<&str> = algos_param.split(',').filter(|s| !s.is_empty()).collect();
    let report = engine.compare(req.param("graph"), &algos, &spec)?;
    Ok(Payload::Raw(Response::svg(report.quality_charts_svg())))
}

fn detect(engine: &Engine, req: &Request, timeout: std::time::Duration) -> Handler {
    let algo = req.param("algo").unwrap_or("codicil");
    let limit = req.param_as::<usize>("limit", 20);
    let snap = engine.snapshot(req.param("graph"))?;
    let token = cx_par::task::CancelToken::with_timeout(timeout);
    let communities = engine.detect_snapshot_cancellable(&snap, algo, &token)?;
    let g = &*snap.graph;
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

fn profile(engine: &Engine, req: &Request) -> Handler {
    let Some(id) = req.param("id").and_then(|s| s.parse::<u32>().ok()) else {
        return Err(ApiError::bad_query("id must be an integer"));
    };
    match engine.profile(req.param("graph"), VertexId(id))? {
        Some(p) => Ok(Payload::Data(Json::obj([
            ("name", Json::str(p.name.clone())),
            ("areas", Json::arr(p.areas.iter().cloned().map(Json::str))),
            ("institutes", Json::arr(p.institutes.iter().cloned().map(Json::str))),
            ("interests", Json::arr(p.interests.iter().cloned().map(Json::str))),
        ]))),
        None => Err(ApiError::not_found("no profile for this vertex")),
    }
}

fn upload(engine: &Engine, req: &Request) -> Handler {
    let Some(name) = req.param("name").map(str::to_owned) else {
        return Err(ApiError::bad_query("missing name parameter"));
    };
    let graph = cx_graph::io::read_text(&mut req.body.as_slice())
        .map_err(|e| ApiError::new(ErrorCode::GraphError, format!("parse failed: {e}")))?;
    let (v, m) = (graph.vertex_count(), graph.edge_count());
    engine.add_graph(&name, graph);
    Ok(Payload::Data(Json::obj([
        ("ok", Json::Bool(true)),
        ("graph", Json::str(name)),
        ("vertices", Json::num(v as f64)),
        ("edges", Json::num(m as f64)),
    ])))
}

// ---------------------------------------------------------------------------
// Streaming (SSE) support

/// How the event-loop transport lets a handler stream its response.
///
/// A handler that wants to stream calls [`StreamSink::start`] once (which
/// commits the connection to an unframed `text/event-stream` response) and
/// then [`StreamSink::emit`] per SSE frame; returning `None` from the
/// handler tells the transport the slot is stream-terminated. A handler
/// that never calls `start` can still return a normal [`Response`].
pub trait StreamSink: Send + Sync {
    /// Sends the SSE response head (status line + standard stream headers
    /// + `extra_headers`). Call at most once.
    fn start(&self, extra_headers: &[(String, String)]);
    /// Appends one chunk of stream body. Returns `false` once the client
    /// is known to be gone (the caller should stop producing).
    fn emit(&self, chunk: &[u8]) -> bool;
    /// Registers a token the transport cancels when the client
    /// disconnects mid-stream.
    fn register_cancel(&self, token: &cx_par::task::CancelToken);
    /// Whether [`StreamSink::start`] has been called — after that point
    /// errors must be delivered as `event: error` frames, not status
    /// codes.
    fn streaming(&self) -> bool;
}

/// One SSE frame: `event: <name>\ndata: <json>\n\n`.
fn sse_frame(event: &str, data: &Json) -> Vec<u8> {
    format!("event: {event}\ndata: {data}\n\n").into_bytes()
}

/// The streaming-aware chokepoint the event-loop transport calls.
/// `Some(response)` means "send this framed response"; `None` means the
/// handler streamed through `sink` and the slot is complete.
pub fn route_sink(
    engine: &Engine,
    req: &Request,
    sink: &std::sync::Arc<dyn StreamSink>,
) -> Option<Response> {
    route_sink_with_auth(engine, req, sink, env_auth_token())
}

/// [`route_sink`] with the required bearer token passed explicitly.
pub fn route_sink_with_auth(
    engine: &Engine,
    req: &Request,
    sink: &std::sync::Arc<dyn StreamSink>,
    auth: Option<&str>,
) -> Option<Response> {
    if req.method == "GET" && req.path == "/api/v1/detect_stream" {
        let t0 = Instant::now();
        let request_id = cx_obs::trace::next_request_id();
        let _trace = cx_obs::trace::begin_request(&request_id);
        let _span = cx_obs::span("http.detect_stream");
        if let Err(e) = check_auth(req, auth) {
            cx_obs::metrics::inc("cx_http_unauthorized_total");
            return Some(envelope(Err(e), &request_id, t0));
        }
        return detect_stream(engine, req, sink, &request_id, t0);
    }
    Some(route_with_auth(engine, req, auth))
}

/// GET /api/v1/detect_stream — whole-graph detection as Server-Sent
/// Events: `progress` frames while the algorithm runs, then one terminal
/// `result` (or `error`) frame. Parameters are exactly GET `detect`'s
/// (`algo`, `limit`, `graph`, `timeout_ms`).
///
/// Error split: anything detected before the stream head is sent (bad
/// params, unknown graph/algorithm, auth) comes back as a normal enveloped
/// error response; once `start()` has committed the 200, failures become a
/// terminal `event: error` frame.
fn detect_stream(
    engine: &Engine,
    req: &Request,
    sink: &std::sync::Arc<dyn StreamSink>,
    request_id: &str,
    t0: Instant,
) -> Option<Response> {
    let pre = (|| -> Result<_, ApiError> {
        let timeout = timeout_from(req)?;
        let algo = req.param("algo").unwrap_or("codicil").to_owned();
        if !engine.cd_names().iter().any(|n| *n == algo) {
            return Err(ApiError::new(
                ErrorCode::UnknownAlgorithm,
                format!("unknown algorithm {algo:?}"),
            ));
        }
        let limit = req.param_as::<usize>("limit", 20);
        let snap = engine.snapshot(req.param("graph"))?;
        Ok((timeout, algo, limit, snap))
    })();
    let (timeout, algo, limit, snap) = match pre {
        Ok(x) => x,
        Err(e) => return Some(envelope(Err(e), request_id, t0)),
    };

    let token = cx_par::task::CancelToken::with_timeout(timeout);
    sink.register_cancel(&token);
    sink.start(&[("X-Request-Id".to_owned(), request_id.to_owned())]);
    cx_obs::metrics::inc("cx_http_sse_streams_total");

    // Progress frames ride the algorithm's own cx_par::task::progress
    // checkpoints; a failed emit means the client hung up, which cancels
    // the run at its next deadline checkpoint.
    let psink = std::sync::Arc::clone(sink);
    let ptoken = token.clone();
    let progress: std::sync::Arc<cx_par::task::ProgressFn> =
        std::sync::Arc::new(move |phase: &str, done: u64, total: u64| {
            let frame = sse_frame(
                "progress",
                &Json::obj([
                    ("phase", Json::str(phase)),
                    ("done", Json::num(done as f64)),
                    ("total", Json::num(total as f64)),
                ]),
            );
            if !psink.emit(&frame) {
                ptoken.cancel();
            }
        });

    match engine.detect_snapshot_streaming(&snap, &algo, &token, progress) {
        Ok(communities) => {
            let g = &*snap.graph;
            let list = Json::arr(communities.iter().take(limit).map(|c| {
                Json::obj([
                    ("size", Json::num(c.len() as f64)),
                    ("edges", Json::num(c.internal_edge_count(g) as f64)),
                    ("avg_degree", Json::num(c.average_internal_degree(g))),
                ])
            }));
            let data = Json::obj([
                ("algo", Json::str(algo)),
                ("total", Json::num(communities.len() as f64)),
                ("communities", list),
                ("elapsed_ms", Json::num(t0.elapsed().as_secs_f64() * 1e3)),
            ]);
            sink.emit(&sse_frame("result", &data));
        }
        Err(e) => {
            let e = ApiError::from(e);
            sink.emit(&sse_frame(
                "error",
                &Json::obj([
                    ("code", Json::str(e.code.as_str())),
                    ("message", Json::str(e.message)),
                ]),
            ));
        }
    }
    None
}

/// The load-shed response the event loop sends without dispatching: a
/// typed `overloaded` 503 with `Retry-After`, enveloped for `/api/v1`
/// targets and plain otherwise.
pub fn shed_response(req: &Request) -> Response {
    let e = ApiError::new(
        ErrorCode::Overloaded,
        "server is at its in-flight request limit; retry shortly",
    );
    if req.path.starts_with("/api/v1/") {
        envelope(Err(e), &cx_obs::trace::next_request_id(), Instant::now())
    } else {
        plain_error(&e)
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
    fn chart_endpoint_serves_svg() {
        let s = server();
        let r = s.handle(&Request::get("/api/v1/chart?name=A&k=2&algos=global,acq"));
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, "image/svg+xml");
        assert!(r.text().contains("CPJ"));
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
        let r = route_with_auth(&engine, &Request::get("/api/v1/graphs"), auth);
        assert_eq!(r.status, 401);
        let v = Json::parse(&r.text()).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("code").and_then(Json::as_str),
            Some("unauthorized")
        );
        // Wrong token → 401; right token → through.
        let wrong = Request::get("/api/v1/graphs").with_header("Authorization", "Bearer nope");
        assert_eq!(route_with_auth(&engine, &wrong, auth).status, 401);
        let right = Request::get("/api/v1/graphs").with_header("Authorization", "Bearer sekrit");
        assert_eq!(route_with_auth(&engine, &right, auth).status, 200);
        // Operational endpoints stay open.
        for open in ["/", "/healthz", "/metrics"] {
            let r = route_with_auth(&engine, &Request::get(open), auth);
            assert_eq!(r.status, 200, "{open}");
        }
        // No token required → everything passes as before.
        assert_eq!(route_with_auth(&engine, &Request::get("/api/v1/graphs"), None).status, 200);
    }

    #[test]
    fn detect_stream_needs_sse_transport() {
        let s = server();
        // Through the buffered chokepoint the endpoint is a typed 404 (it
        // needs the event-loop transport).
        let r = s.handle(&Request::get("/api/v1/detect_stream"));
        assert_eq!(r.status, 404, "{}", r.text());
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
            let r = route_with_auth(&engine, req, Some("sekrit"));
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
