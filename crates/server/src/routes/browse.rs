//! Browsing a graph without searching it: the registry directory, graph
//! statistics, typeahead suggestions, the multi-resolution hierarchy and
//! author profiles.

use cx_explorer::{GraphSnapshot, Hierarchy, NodeId};
use cx_graph::VertexId;

use super::{data, page_params, ApiError, Ctx, Handler, Payload};
use crate::json::{array_into, escape_into, number_into, ObjectWriter};

/// GET /api/v1/graphs — the registry directory. Served from the O(1) index
/// (never clones a snapshot); `generations` maps each graph to its
/// currently published generation so clients can detect content changes.
pub(super) fn graphs(ctx: &Ctx) -> Handler {
    let idx = ctx.engine.registry_index();
    data(|o| {
        array_into(o.key("cd_algorithms"), ctx.engine.cd_names(), escape_into);
        array_into(o.key("cs_algorithms"), ctx.engine.cs_names(), escape_into);
        match idx.default_graph {
            Some(name) => escape_into(o.key("default_graph"), &name),
            None => o.key("default_graph").push_str("null"),
        }
        // The index lists the graphs by name, the order of the keys.
        let gens = o.key("generations");
        gens.push('{');
        for (i, g) in idx.graphs.iter().enumerate() {
            gens.push_str(if i == 0 { "" } else { "," });
            escape_into(gens, &g.name);
            gens.push(':');
            number_into(gens, g.generation as f64);
        }
        gens.push('}');
        array_into(o.key("graphs"), &idx.graphs, |out, g| escape_into(out, &g.name));
    })
}

pub(super) fn stats(ctx: &Ctx) -> Handler {
    let snap = ctx.snapshot()?;
    let s = snap.stats();
    let tree = &snap.tree;
    let cache = ctx.engine.cache_stats();
    data(|o| {
        o.num("avg_keywords_per_vertex", s.avg_keywords_per_vertex)
            .num("components", s.components as f64)
            .num("degeneracy", tree.max_core() as f64)
            .num("edges", s.edges as f64)
            .num("generation", snap.generation as f64)
            .num("index_bytes", tree.memory_bytes() as f64)
            .num("index_nodes", tree.node_count() as f64)
            .num("keywords", s.keywords as f64)
            .num("max_degree", s.degrees.max as f64)
            .num("mean_degree", s.degrees.mean);
        ObjectWriter::new(o.key("query_cache"))
            .num("capacity", cache.capacity as f64)
            .num("hits", cache.hits as f64)
            .num("len", cache.len as f64)
            .num("misses", cache.misses as f64)
            .close();
        o.num("vertices", s.vertices as f64);
    })
}

/// Hard ceiling on suggest pagination depth. The engine materialises the
/// best `offset + limit` candidates per request (bounded partial
/// selection), so an unbounded offset would let one request force a
/// near-full sort of a million-vertex hit list. Past this depth the
/// client should narrow the query instead.
const SUGGEST_MAX_OFFSET: usize = 10_000;

pub(super) fn suggest(ctx: &Ctx) -> Handler {
    let q = ctx.param("q").unwrap_or("");
    let (limit, offset) = page_params(ctx, 8, 100);
    if offset > SUGGEST_MAX_OFFSET {
        return Err(ApiError::bad_query("suggest offset is capped at 10000; narrow the query"));
    }
    let (hits, _total) = ctx.engine.suggest_page(ctx.param("graph"), q, offset, limit)?;
    let mut out = String::new();
    array_into(&mut out, hits, |out, (v, label, degree)| write_vertex(out, v, &label, degree));
    Ok(Payload::Data(out))
}

/// A vertex as `suggest` and a hierarchy expansion list it.
fn write_vertex(out: &mut String, v: VertexId, label: &str, degree: usize) {
    ObjectWriter::new(out)
        .num("degree", degree as f64)
        .num("id", v.0 as f64)
        .str("label", label)
        .close();
}

/// Hard ceiling on nodes per hierarchy response — the multi-resolution
/// API's contract is that a client never receives more than this many
/// supernodes/vertices in one payload, at any graph scale.
pub(super) const HIERARCHY_MAX_NODES: usize = 1_000;
/// Default nodes per hierarchy response ("a few hundred supernodes").
const HIERARCHY_DEFAULT_NODES: usize = 200;

pub(super) fn no_such_supernode() -> ApiError {
    ApiError::not_found("no such supernode")
}

/// One supernode: identity, level, aggregates, top keywords.
fn write_supernode(out: &mut String, snap: &GraphSnapshot, h: &Hierarchy, id: NodeId) {
    let s = h.stats(id);
    let avg_degree =
        if s.subtree_vertices > 0 { s.sum_degree as f64 / s.subtree_vertices as f64 } else { 0.0 };
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
pub(super) fn hierarchy(ctx: &Ctx) -> Handler {
    let snap = ctx.snapshot()?;
    let h = snap.hierarchy();
    let g = &snap.graph;
    let limit =
        ctx.param_as::<usize>("limit", HIERARCHY_DEFAULT_NODES).clamp(2, HIERARCHY_MAX_NODES);

    if let Some(node) = ctx.param("node") {
        let Ok(n) = node.parse::<u32>() else {
            return Err(ApiError::bad_query("node must be an integer supernode id"));
        };
        let ex = h.expand_bounded(g, &snap.tree, n, limit).ok_or_else(no_such_supernode)?;
        return data(|o| {
            array_into(o.key("children"), &ex.children, |out, &c| {
                write_supernode(out, &snap, &h, c);
            });
            o.num("children_total", ex.children_total as f64)
                .bool("children_truncated", ex.children.len() < ex.children_total);
            array_into(o.key("edges"), &ex.internal_edges, |out, &(u, v)| {
                array_into(out, [u, v], |out, x| number_into(out, x.0 as f64));
            });
            o.num("level", snap.tree.node(ex.node).level as f64);
            array_into(o.key("links"), &ex.child_links, |out, &(u, c, w)| {
                ObjectWriter::new(out)
                    .num("from", u.0 as f64)
                    .num("to", c.0 as f64)
                    .num("weight", w as f64)
                    .close();
            });
            o.num("node", n as f64);
            array_into(o.key("residents"), &ex.residents, |out, &v| {
                write_vertex(out, v, g.label(v), g.degree(v));
            });
            o.bool("residents_truncated", ex.truncated);
        });
    }

    let level = ctx.param_as::<u32>("level", 0);
    let nodes = h.level_nodes(&snap.tree, level);
    let shown = &nodes[..nodes.len().min(limit)];
    data(|o| {
        o.num("level", level as f64).num("max_level", h.max_level() as f64);
        array_into(o.key("nodes"), shown, |out, &id| write_supernode(out, &snap, &h, id));
        o.num("total", nodes.len() as f64).bool("truncated", shown.len() < nodes.len());
    })
}

pub(super) fn profile(ctx: &Ctx) -> Handler {
    let Some(id) = ctx.param("id").and_then(|s| s.parse::<u32>().ok()) else {
        return Err(ApiError::bad_query("id must be an integer"));
    };
    let Some(p) = ctx.engine.profile(ctx.param("graph"), VertexId(id))? else {
        return Err(ApiError::not_found("no profile for this vertex"));
    };
    data(|o| {
        array_into(o.key("areas"), &p.areas, |out, s| escape_into(out, s));
        array_into(o.key("institutes"), &p.institutes, |out, s| escape_into(out, s));
        array_into(o.key("interests"), &p.interests, |out, s| escape_into(out, s));
        o.str("name", &p.name);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Request;
    use crate::json::Json;
    use crate::routes::tests::{server, v1_data};
    use cx_explorer::Engine;

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
        let two: Vec<&str> = two
            .as_array()
            .unwrap()
            .iter()
            .map(|h| h.get("label").and_then(Json::as_str).unwrap())
            .collect();
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
}
