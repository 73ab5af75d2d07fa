//! Community search and detection: `search`, `search_batch`, `svg`,
//! `compare` and `detect`, with the query-spec parsing and the community
//! and scene writers they share.

use cx_explorer::{Engine, ExplorerError, GraphSnapshot, QuerySpec};
use cx_graph::{AttributedGraph, Community, VertexId};
use cx_layout::{LayoutAlgorithm, Scene, KK_MAX_MEMBERS};
use cx_par::task::CancelToken;

use super::browse::{no_such_supernode, HIERARCHY_MAX_NODES};
use super::{data, page_params, timeout_ms, uint, write_outcome, ApiError, Ctx, Handler, Payload};
use crate::http::Response;
use crate::json::{array_into, escape_into, number_into, Json, ObjectWriter};

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
pub(super) fn write_community(
    buf: &mut String,
    g: &AttributedGraph,
    c: &Community,
    scene: Option<&Scene>,
) {
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
pub(super) fn write_scene(out: &mut String, scene: &Scene) {
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

/// Runs one search and writes its `data` object into `out`: query echo,
/// quality metrics, and the `offset..offset+limit` page of communities.
/// GET `search` passes its `layout`; each community is then drawn with
/// it, and the object also carries the snapshot `generation` and the
/// query vertex's `query_keywords`. A `search_batch` item passes `None`.
/// The deadline is checked after the analysis and before each community
/// is laid out, and nothing is written until every check has passed. A
/// community too large for `layout=kk` is placed at NaN, which
/// [`write_scene`] writes as `"scene":null`.
fn search_data(
    out: &mut String,
    engine: &Engine,
    snap: &GraphSnapshot,
    item: &SearchItem,
    token: &CancelToken,
    layout: Option<LayoutAlgorithm>,
) -> Result<(), ApiError> {
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
    let mut o = ObjectWriter::new(out);
    o.num("cmf", analysis.cmf);
    array_into(o.key("communities"), page.iter().enumerate(), |out, (i, c)| {
        write_community(out, g, c, scenes.get(i));
    });
    o.num("cpj", analysis.cpj);
    if layout.is_some() {
        o.num("generation", snap.generation as f64);
    }
    o.num("limit", item.limit as f64).num("offset", item.offset as f64);
    ObjectWriter::new(o.key("query"))
        .str("algo", &item.algo)
        .num("k", item.spec.k as f64)
        .str("label", g.label(q))
        .num("vertex", q.0 as f64)
        .close();
    if layout.is_some() {
        // The query author's keywords, so the UI can render the chips.
        array_into(o.key("query_keywords"), g.interner().names(g.keywords(q)), escape_into);
    }
    o.num("total_communities", communities.len() as f64).close();
    Ok(())
}

pub(super) fn search(ctx: &Ctx) -> Handler {
    let spec = spec_from(ctx)?;
    let algo = ctx.param("algo").unwrap_or("acq").to_owned();
    let layout = layout_from(ctx);
    let (limit, offset) = page_params(ctx, 20, 100);
    // One snapshot for the whole request: results, analysis, labels and
    // the reported generation all describe the same graph version.
    let snap = ctx.snapshot()?;
    let item = SearchItem { spec, algo, limit, offset };
    let mut out = String::new();
    search_data(&mut out, ctx.engine, &snap, &item, &ctx.token(), Some(layout))?;
    Ok(Payload::Data(out))
}

/// Maximum number of query specs one `search_batch` request may carry.
const BATCH_MAX: usize = 64;

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
pub(super) fn search_batch(ctx: &Ctx) -> Handler {
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
    let results: Vec<Result<String, ApiError>> = cx_par::par_map_tasks(parsed.len(), |i| {
        let item = parsed[i].as_ref().map_err(ApiError::clone)?;
        let mut out = String::new();
        search_data(&mut out, engine, &snap, item, &token, None)?;
        Ok(out)
    });
    let succeeded = results.iter().filter(|r| r.is_ok()).count();
    data(|o| {
        o.num("count", results.len() as f64)
            .num("generation", snap.generation as f64)
            .str("graph", snap.name());
        array_into(o.key("results"), &results, |out, r| write_outcome(out, r.as_deref(), None));
        o.num("succeeded", succeeded as f64);
    })
}

/// GET /api/v1/svg — one result community as raw SVG; or, with `level` /
/// `supernode`, a hierarchy viewport.
pub(super) fn svg(ctx: &Ctx) -> Handler {
    // Hierarchy viewport mode: `?level=K` or `?supernode=ID` renders the
    // multi-resolution summary instead of a community. `max_nodes`
    // bounds the viewport exactly like `limit` bounds the JSON API.
    if ctx.param("level").is_some() || ctx.param("supernode").is_some() {
        let snap = ctx.snapshot()?;
        let max_nodes = ctx.param_as::<usize>("max_nodes", 400).clamp(2, HIERARCHY_MAX_NODES);
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
    let title = format!("Method: {algo} — community {} of {}", index + 1, communities.len());
    let scene = ctx.engine.display_snapshot(&snap, c, layout, Some(q)).titled(title);
    Ok(Payload::Raw(Response::svg(scene.to_svg())))
}

/// GET /api/v1/compare — the per-algorithm statistics table (Figure 6(a))
/// with CPJ/CMF, plus the pairwise similarity matrix.
pub(super) fn compare(ctx: &Ctx) -> Handler {
    let spec = spec_from(ctx)?;
    let algos_param = ctx.param("algos").unwrap_or("global,local,codicil,acq");
    let algos: Vec<&str> = algos_param.split(',').filter(|s| !s.is_empty()).collect();
    let report = ctx.engine.compare(ctx.param("graph"), &algos, &spec)?;
    data(|o| {
        array_into(o.key("rows"), &report.rows, |out, r| {
            ObjectWriter::new(out)
                .num("avg_degree", r.avg_degree)
                .num("avg_edges", r.avg_edges)
                .num("avg_vertices", r.avg_vertices)
                .num("cmf", r.cmf)
                .num("communities", r.communities as f64)
                .num("cpj", r.cpj)
                .str("method", &r.method)
                .num("millis", r.millis)
                .close();
        });
        array_into(o.key("similarity"), &report.similarity, |out, row| {
            array_into(out, row, |out, &x| number_into(out, x));
        });
    })
}

/// GET /api/v1/detect — whole-graph detection: the first `limit`
/// communities' sizes, edge counts and average degrees.
pub(super) fn detect(ctx: &Ctx) -> Handler {
    let algo = ctx.param("algo").unwrap_or("codicil");
    let limit = ctx.param_as::<usize>("limit", 20);
    let snap = ctx.snapshot()?;
    let communities = ctx.engine.detect_cancellable(&snap, algo, &ctx.token())?;
    let g = &snap.graph;
    data(|o| {
        o.str("algo", algo);
        array_into(o.key("communities"), communities.iter().take(limit), |out, c| {
            ObjectWriter::new(out)
                .num("avg_degree", c.average_internal_degree(g))
                .num("edges", c.internal_edge_count(g) as f64)
                .num("size", c.len() as f64)
                .close();
        });
        o.num("total", communities.len() as f64);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Request;
    use crate::routes::tests::{server, v1_data};

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
        // The theme is {x, y}, and the scene is embedded with its nodes.
        assert_eq!(theme.len(), 2);
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
        assert_eq!(bad.get("error").unwrap().get("code").and_then(Json::as_str), Some("bad_query"));
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
}
