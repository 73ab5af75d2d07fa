//! Property-based tests for the graph substrate: builder invariants,
//! set-algebra laws, and persistence round-trips on random graphs.
//!
//! Gated behind the non-default `proptest` feature: the build environment
//! is offline, so the `proptest` dev-dependency is not in the manifest.
//! Restore it (and `rand`) before enabling the feature in a networked
//! environment — see DESIGN.md "Offline build policy".
#![cfg(feature = "proptest")]

use proptest::prelude::*;

use cx_graph::keywords::{contains_all, intersect_sorted, intersection_size, jaccard};
use cx_graph::traversal::{bfs, ConnectedComponents};
use cx_graph::{AttributedGraph, GraphBuilder, KeywordId, VertexId, VertexSet};

/// Strategy: a random attributed graph with up to `max_n` vertices.
fn arb_graph(max_n: usize) -> impl Strategy<Value = AttributedGraph> {
    (1..=max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..(4 * n));
        let kws = proptest::collection::vec(proptest::collection::vec(0u8..12, 0..6), n);
        (Just(n), edges, kws).prop_map(|(n, edges, kws)| {
            let mut b = GraphBuilder::new();
            for (i, ks) in kws.iter().enumerate() {
                let names: Vec<String> = ks.iter().map(|k| format!("kw{k}")).collect();
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                b.add_vertex(&format!("v{i}"), &refs);
            }
            for (u, v) in edges {
                b.add_edge(VertexId(u), VertexId(v));
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_produces_simple_symmetric_sorted_graph(g in arb_graph(40)) {
        for u in g.vertices() {
            let ns = g.neighbors(u);
            // strictly sorted => no duplicates
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]));
            // no self loops
            prop_assert!(!ns.contains(&u));
            // symmetry
            for &v in ns {
                prop_assert!(g.neighbors(v).contains(&u));
            }
        }
        // handshake lemma
        let degsum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degsum, 2 * g.edge_count());
    }

    #[test]
    fn keyword_sets_sorted_and_within_vocab(g in arb_graph(40)) {
        for v in g.vertices() {
            let ws = g.keywords(v);
            prop_assert!(ws.windows(2).all(|w| w[0] < w[1]));
            for &w in ws {
                prop_assert!(g.interner().name(w).is_some());
            }
        }
    }

    #[test]
    fn text_roundtrip_preserves_graph(g in arb_graph(30)) {
        let mut buf = Vec::new();
        cx_graph::io::write_text(&g, &mut buf).unwrap();
        let g2 = cx_graph::io::read_text(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(g.vertex_count(), g2.vertex_count());
        prop_assert_eq!(g.edge_count(), g2.edge_count());
        for v in g.vertices() {
            prop_assert_eq!(g.label(v), g2.label(v));
            prop_assert_eq!(g.neighbors(v), g2.neighbors(v));
            prop_assert_eq!(
                g.keyword_names(g.keywords(v)),
                g2.keyword_names(g2.keywords(v))
            );
        }
    }

    #[test]
    fn snapshot_roundtrip_preserves_graph(g in arb_graph(30)) {
        let mut buf = Vec::new();
        cx_graph::io::write_snapshot(&g, &mut buf);
        let g2 = cx_graph::io::read_snapshot_bytes(&buf).unwrap();
        prop_assert_eq!(g.vertex_count(), g2.vertex_count());
        prop_assert_eq!(g.edge_count(), g2.edge_count());
        for v in g.vertices() {
            prop_assert_eq!(g.neighbors(v), g2.neighbors(v));
        }
    }

    #[test]
    fn components_partition_vertices_and_agree_with_bfs(g in arb_graph(40)) {
        let cc = ConnectedComponents::compute(&g);
        let groups = cc.groups();
        let total: usize = groups.iter().map(Vec::len).sum();
        prop_assert_eq!(total, g.vertex_count());
        // BFS from any vertex reaches exactly its group.
        for grp in &groups {
            let reach = bfs(&g, grp[0]);
            let mut reach_sorted = reach.clone();
            reach_sorted.sort_unstable();
            prop_assert_eq!(&reach_sorted, grp);
        }
    }

    #[test]
    fn vertexset_models_hashset(ops in proptest::collection::vec((0u32..20, any::<bool>()), 0..100)) {
        let mut s = VertexSet::with_capacity(20);
        let mut model = std::collections::HashSet::new();
        for (v, add) in ops {
            let v = VertexId(v);
            if add {
                prop_assert_eq!(s.insert(v), model.insert(v));
            } else {
                prop_assert_eq!(s.remove(v), model.remove(&v));
            }
            prop_assert_eq!(s.len(), model.len());
        }
        let mut expect: Vec<_> = model.into_iter().collect();
        expect.sort_unstable();
        prop_assert_eq!(s.to_sorted_vec(), expect);
    }

    #[test]
    fn intersect_sorted_is_correct_set_intersection(
        a in proptest::collection::btree_set(0u32..30, 0..15),
        b in proptest::collection::btree_set(0u32..30, 0..15),
    ) {
        let av: Vec<KeywordId> = a.iter().map(|&x| KeywordId(x)).collect();
        let bv: Vec<KeywordId> = b.iter().map(|&x| KeywordId(x)).collect();
        let expect: Vec<KeywordId> = a.intersection(&b).map(|&x| KeywordId(x)).collect();
        prop_assert_eq!(intersect_sorted(&av, &bv), expect.clone());
        prop_assert_eq!(intersection_size(&av, &bv), expect.len());
        prop_assert_eq!(contains_all(&av, &bv), expect.len() == bv.len());
        // Jaccard symmetry and bounds.
        let j1 = jaccard(&av, &bv);
        let j2 = jaccard(&bv, &av);
        prop_assert!((j1 - j2).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&j1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The text parser is total: arbitrary input returns Ok or Err,
    /// never panics, and anything it accepts builds a valid graph.
    #[test]
    fn text_parser_is_total(input in "\\PC{0,120}") {
        if let Ok(g) = cx_graph::io::read_text(&mut input.as_bytes()) {
            // Accepted graphs satisfy the builder invariants.
            let degsum: usize = g.vertices().map(|v| g.degree(v)).sum();
            prop_assert_eq!(degsum, 2 * g.edge_count());
        }
    }

    /// Line-shaped garbage exercises the record parser specifically.
    #[test]
    fn text_parser_fuzzy_records(
        lines in proptest::collection::vec("(v|e|x)\\t[a-z0-9\\t,]{0,16}", 0..10)
    ) {
        let input = lines.join("\n");
        let _ = cx_graph::io::read_text(&mut input.as_bytes());
    }

    /// The binary snapshot reader is total on arbitrary bytes.
    #[test]
    fn snapshot_reader_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = cx_graph::io::read_snapshot_bytes(&bytes);
    }
}
