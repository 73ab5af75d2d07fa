//! Property tests: CL-tree answers must agree with direct (index-free)
//! computation for every query vertex and every k, on random graphs.
//!
//! Gated behind the non-default `proptest` feature: the build environment
//! is offline, so the `proptest` dev-dependency is not in the manifest.
//! Restore it (and `rand`) before enabling the feature in a networked
//! environment — see DESIGN.md "Offline build policy".
#![cfg(feature = "proptest")]

use proptest::prelude::*;

use cx_cltree::ClTree;
use cx_graph::{AttributedGraph, GraphBuilder, VertexId};
use cx_kcore::CoreDecomposition;

fn arb_graph(max_n: usize) -> impl Strategy<Value = AttributedGraph> {
    (2..=max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..(3 * n));
        let kws = proptest::collection::vec(proptest::collection::vec(0u8..8, 0..4), n);
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn connected_k_core_matches_decomposition(g in arb_graph(30)) {
        let cd = CoreDecomposition::compute(&g);
        let t = ClTree::build_with(&g, &cd);
        prop_assert_eq!(t.max_core(), cd.max_core());
        for q in g.vertices() {
            for k in 0..=cd.max_core() + 1 {
                let from_tree = t.connected_k_core(q, k);
                let direct = cd.connected_k_core(&g, q, k);
                prop_assert_eq!(
                    from_tree, direct,
                    "mismatch at q=v{} k={}", q.0, k
                );
            }
        }
    }

    #[test]
    fn tree_is_linear_space_vertices_partitioned(g in arb_graph(40)) {
        let t = ClTree::build(&g);
        let mut count = vec![0usize; g.vertex_count()];
        for (id, n) in t.iter_nodes() {
            for &v in t.residents(id) {
                count[v.index()] += 1;
            }
            // Children are strictly deeper levels.
            for &c in &n.children {
                prop_assert!(t.node(c).level > n.level);
            }
        }
        prop_assert!(count.iter().all(|&c| c == 1));
        // Node count can never exceed vertex count + 1 (synthetic root).
        prop_assert!(t.node_count() <= g.vertex_count() + 1);
    }

    #[test]
    fn inverted_lists_match_graph_keywords(g in arb_graph(30)) {
        let t = ClTree::build(&g);
        // For each keyword and k, the indexed k-core keyword vertices must
        // equal a direct scan.
        let cd = CoreDecomposition::compute(&g);
        for (w, _) in g.interner().iter() {
            for q in g.vertices() {
                let k = t.core(q);
                if k == 0 { continue; }
                let from_tree = t.keyword_vertices_in_k_core(q, k, w).unwrap();
                let core = cd.connected_k_core(&g, q, k).unwrap();
                let direct: Vec<VertexId> =
                    core.into_iter().filter(|&v| g.has_keyword(v, w)).collect();
                prop_assert_eq!(from_tree, direct);
            }
        }
    }

    #[test]
    fn parent_links_are_consistent(g in arb_graph(40)) {
        let t = ClTree::build(&g);
        for (id, n) in t.iter_nodes() {
            for &c in &n.children {
                prop_assert_eq!(t.node(c).parent, Some(id));
            }
            if let Some(p) = n.parent {
                prop_assert!(t.node(p).children.contains(&id));
            }
        }
        // Exactly one root.
        let roots = t.iter_nodes().filter(|(_, n)| n.parent.is_none()).count();
        prop_assert_eq!(roots, 1);
    }
}
