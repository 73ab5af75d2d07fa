//! The browse rows and the search scenes are written as fragments; here
//! the tree-building code they replaced lives on as the reference. Every
//! hierarchy level view, every supernode expansion, typeahead pages and a
//! set of search answers — on Figure 5 and on a 2,000-author DBLP-like
//! graph — must read byte for byte like the tree-built JSON.

use super::search::{write_community, write_scene};
use super::*;
use cx_datagen::{dblp_like, figure5_graph, DblpParams};
use cx_explorer::{Hierarchy, NodeId, QuerySpec};
use cx_graph::{AttributedGraph, Community, VertexId};
use cx_layout::{LayoutAlgorithm, Point, Scene};

/// A vertex row, as a tree.
fn vertex_tree(v: VertexId, label: &str, degree: usize) -> Json {
    Json::obj([
        ("id", Json::num(v.0 as f64)),
        ("label", Json::str(label)),
        ("degree", Json::num(degree as f64)),
    ])
}

/// A supernode row, as a tree.
fn supernode_tree(snap: &GraphSnapshot, h: &Hierarchy, id: NodeId) -> Json {
    let (g, s) = (&snap.graph, h.stats(id));
    let avg_degree =
        if s.subtree_vertices > 0 { s.sum_degree as f64 / s.subtree_vertices as f64 } else { 0.0 };
    Json::obj([
        ("id", Json::num(id.0 as f64)),
        ("level", Json::num(snap.tree.node(id).level as f64)),
        ("residents", Json::num(s.residents as f64)),
        ("vertices", Json::num(s.subtree_vertices as f64)),
        ("edges", Json::num(s.subtree_edges as f64)),
        ("avg_degree", Json::num(avg_degree)),
        ("max_degree", Json::num(s.max_degree as f64)),
        (
            "keywords",
            Json::arr(s.top_keywords.iter().filter_map(|&(w, c)| {
                Some(Json::obj([
                    ("keyword", Json::str(g.interner().name(w)?)),
                    ("count", Json::num(c as f64)),
                ]))
            })),
        ),
    ])
}

/// The scene as text, the way the layout crate used to print it.
fn scene_text(s: &Scene) -> String {
    let esc = |t: &str| {
        let quoted = Json::str(t).to_string();
        quoted[1..quoted.len() - 1].to_owned()
    };
    let mut out = format!("{{\"title\":\"{}\",\"theme\":[", esc(&s.title));
    let theme: Vec<String> = s.theme.iter().map(|t| format!("\"{}\"", esc(t))).collect();
    out += &theme.join(",");
    out += &format!("],\"width\":{:.1},\"height\":{:.1},\"nodes\":[", s.width, s.height);
    let nodes: Vec<String> = s
        .vertices
        .iter()
        .enumerate()
        .map(|(i, &(v, p))| {
            format!(
                "{{\"id\":{},\"label\":\"{}\",\"x\":{:.1},\"y\":{:.1},\"highlight\":{}}}",
                v.0,
                esc(&s.labels[i]),
                p.x,
                p.y,
                s.highlight == Some(i)
            )
        })
        .collect();
    out += &nodes.join(",");
    out += "],\"edges\":[";
    let edges: Vec<String> = s.edges.iter().map(|&(a, b)| format!("[{a},{b}]")).collect();
    out += &edges.join(",");
    out + "]}"
}

/// The scene as the route used to send it: that text parsed back, `null`
/// when it does not parse.
fn scene_tree(s: &Scene) -> Json {
    Json::parse(&scene_text(s)).unwrap_or(Json::Null)
}

/// A search community, as a tree.
fn community_tree(g: &AttributedGraph, c: &Community, scene: Option<&Scene>) -> Json {
    let members = c
        .vertices()
        .iter()
        .map(|&v| Json::obj([("id", Json::num(v.0 as f64)), ("label", Json::str(g.label(v)))]));
    let theme = c.shared_keywords().iter().filter_map(|&w| g.interner().name(w)).map(Json::str);
    let mut m: Vec<(&str, Json)> = vec![
        ("avg_degree", Json::num(c.average_internal_degree(g))),
        ("edges", Json::num(c.internal_edge_count(g) as f64)),
        ("members", Json::arr(members)),
        ("size", Json::num(c.len() as f64)),
        ("theme", Json::arr(theme)),
    ];
    m.extend(scene.map(|s| ("scene", scene_tree(s))));
    Json::obj(m)
}

/// A server over Figure 5, and one over a DBLP-like graph.
fn servers() -> [crate::Server; 2] {
    let (dblp, _) = dblp_like(&DblpParams::scaled(2_000, 5));
    [
        crate::Server::new(Engine::with_graph("fig5", figure5_graph())),
        crate::Server::new(Engine::with_graph("dblp", dblp)),
    ]
}

/// The `data` member of a successful envelope, as the bytes were sent.
fn data_of(r: &Response) -> String {
    assert_eq!(r.status, 200, "{}", r.text());
    let body = r.text();
    let rest = body.strip_prefix("{\"data\":").expect("data is the envelope's first key");
    let (data, _) = rest.rsplit_once(",\"elapsed_ms\":").expect("elapsed_ms follows data");
    data.to_owned()
}

#[test]
fn hierarchy_views_and_expansions_match_the_tree() {
    for s in servers() {
        let snap = s.engine().snapshot(None).unwrap();
        let (g, h) = (&*snap.graph, snap.hierarchy());
        for level in 0..=h.max_level() + 1 {
            for limit in [2, 5, 200, 1000] {
                let nodes = h.level_nodes(&snap.tree, level);
                let shown: Vec<NodeId> = nodes.iter().copied().take(limit).collect();
                let want = Json::obj([
                    ("level", Json::num(level as f64)),
                    ("max_level", Json::num(h.max_level() as f64)),
                    ("total", Json::num(nodes.len() as f64)),
                    ("truncated", Json::Bool(shown.len() < nodes.len())),
                    ("nodes", Json::arr(shown.iter().map(|&id| supernode_tree(&snap, &h, id)))),
                ]);
                let target = format!("/api/v1/hierarchy?level={level}&limit={limit}");
                assert_eq!(
                    data_of(&s.handle(&Request::get(&target))),
                    want.to_string(),
                    "{target}"
                );
            }
        }
        for n in 0..h.node_count() as u32 {
            for limit in [2, 7, 200] {
                let ex = h.expand_bounded(g, &snap.tree, n, limit).unwrap();
                let want = Json::obj([
                    ("node", Json::num(n as f64)),
                    ("level", Json::num(snap.tree.node(NodeId(n)).level as f64)),
                    (
                        "residents",
                        Json::arr(
                            ex.residents.iter().map(|&v| vertex_tree(v, g.label(v), g.degree(v))),
                        ),
                    ),
                    ("residents_truncated", Json::Bool(ex.truncated)),
                    (
                        "children",
                        Json::arr(ex.children.iter().map(|&c| supernode_tree(&snap, &h, c))),
                    ),
                    ("children_total", Json::num(ex.children_total as f64)),
                    ("children_truncated", Json::Bool(ex.children.len() < ex.children_total)),
                    (
                        "edges",
                        Json::arr(ex.internal_edges.iter().map(|&(u, v)| {
                            Json::arr([Json::num(u.0 as f64), Json::num(v.0 as f64)])
                        })),
                    ),
                    (
                        "links",
                        Json::arr(ex.child_links.iter().map(|&(u, c, w)| {
                            Json::obj([
                                ("from", Json::num(u.0 as f64)),
                                ("to", Json::num(c.0 as f64)),
                                ("weight", Json::num(w as f64)),
                            ])
                        })),
                    ),
                ]);
                let target = format!("/api/v1/hierarchy?node={n}&limit={limit}");
                assert_eq!(
                    data_of(&s.handle(&Request::get(&target))),
                    want.to_string(),
                    "{target}"
                );
            }
        }
    }
}

#[test]
fn typeahead_pages_match_the_tree() {
    for s in servers() {
        let engine = s.engine();
        for q in ["", "a", "author-1", "B", "zzz"] {
            let (hits, _) = engine.suggest_page(None, q, 0, 8).unwrap();
            let want = Json::arr(hits.iter().map(|(v, label, d)| vertex_tree(*v, label, *d)));
            let r = s.handle(&Request::get(&format!("/api/v1/suggest?q={q}")));
            assert_eq!(data_of(&r), want.to_string(), "q={q}");
        }
    }
}

#[test]
fn search_answers_with_scenes_match_the_tree() {
    for s in servers() {
        let engine = s.engine();
        let snap = engine.snapshot(None).unwrap();
        let g = &*snap.graph;
        let mut hubs: Vec<VertexId> = g.vertices().collect();
        hubs.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v.0));
        let mut compared = 0;
        for (i, &q) in hubs.iter().take(6).enumerate() {
            let (layout, param) = [
                (LayoutAlgorithm::default_force(), "force"),
                (LayoutAlgorithm::Circular, "circular"),
                (LayoutAlgorithm::Shell, "shell"),
            ][i % 3];
            for (algo, k) in [("acq", 2), ("acq", 4), ("local", 3)] {
                let target = format!("/api/v1/search?id={}&k={k}&algo={algo}&layout={param}", q.0);
                let r = s.handle(&Request::get(&target));
                if r.status != 200 {
                    continue;
                }
                let spec = QuerySpec::by_id(q).k(k);
                let communities = engine.search_snapshot(&snap, algo, &spec).unwrap();
                let analysis = engine.analyze_snapshot(&snap, &communities, q).unwrap();
                let list = communities.iter().take(20).map(|c| {
                    community_tree(g, c, Some(&engine.display_snapshot(&snap, c, layout, Some(q))))
                });
                let want = Json::obj([
                    (
                        "query",
                        Json::obj([
                            ("vertex", Json::num(q.0 as f64)),
                            ("label", Json::str(g.label(q))),
                            ("k", Json::num(k as f64)),
                            ("algo", Json::str(algo)),
                        ]),
                    ),
                    ("communities", Json::arr(list)),
                    ("total_communities", Json::num(communities.len() as f64)),
                    ("limit", Json::num(20.0)),
                    ("offset", Json::num(0.0)),
                    ("cpj", Json::num(analysis.cpj)),
                    ("cmf", Json::num(analysis.cmf)),
                    ("generation", Json::num(snap.generation as f64)),
                    (
                        "query_keywords",
                        Json::arr(g.keyword_names(g.keywords(q)).into_iter().map(Json::str)),
                    ),
                ]);
                assert_eq!(data_of(&r), want.to_string(), "{target}");
                compared += usize::from(!communities.is_empty());
            }
        }
        assert!(compared >= 3, "too few non-empty answers compared ({compared})");
    }
}

/// A community scene with a title, a theme and labels that need escaping.
fn community_scene() -> Scene {
    let g = figure5_graph();
    let c = Community::structural(g.vertices().take(6).collect());
    let circular = LayoutAlgorithm::Circular;
    let mut s = cx_layout::layout_community(&g, &c, circular, None, 800.0, 600.0, 1);
    for (i, label) in s.labels.iter_mut().enumerate() {
        *label = format!("s{i} \"q\"\\\n\u{1}\u{2028}é");
    }
    s.title = "T \"x\" \t".into();
    s.theme = vec!["db".into(), "a\"b".into()];
    s
}

#[test]
fn scene_writer_matches_the_printed_and_reparsed_scene() {
    let base = community_scene();
    assert!(!base.edges.is_empty());
    let mut variants = vec![base.clone()];
    // Coordinates that round to integers, to -0.0 and across a half.
    let mut edge = base;
    edge.vertices[0].1 = Point { x: 600.04, y: -0.04 };
    edge.vertices[1].1 = Point { x: 0.25, y: 0.35 };
    edge.vertices[2].1 = Point { x: 1e17, y: 123_456.789 };
    edge.highlight = Some(2);
    variants.push(edge);
    for (i, scene) in variants.iter().enumerate() {
        let mut got = String::new();
        write_scene(&mut got, scene);
        let want = scene_tree(scene);
        assert_ne!(want, Json::Null, "variant {i}");
        assert_eq!(got, want.to_string(), "variant {i}");
    }
}

#[test]
fn a_scene_with_one_non_finite_number_is_null() {
    let g = figure5_graph();
    let c = Community::structural(g.vertices().take(3).collect());
    let ok = community_scene();
    let mut nan_x = ok.clone();
    nan_x.vertices[4].1.x = f64::NAN;
    let mut inf_y = ok.clone();
    inf_y.vertices[1].1.y = f64::INFINITY;
    let mut nan_height = ok.clone();
    nan_height.height = f64::NAN;
    let mut inf_width = ok;
    inf_width.width = f64::NEG_INFINITY;
    for scene in [nan_x, inf_y, nan_height, inf_width] {
        assert_eq!(scene_tree(&scene), Json::Null);
        let mut buf = String::from("[");
        write_community(&mut buf, &g, &c, Some(&scene));
        assert!(buf.contains(",\"scene\":null,\"size\":"), "{buf}");
        assert_eq!(buf[1..], community_tree(&g, &c, Some(&scene)).to_string());
    }
}
