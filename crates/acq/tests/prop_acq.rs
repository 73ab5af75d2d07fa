//! Property tests for ACQ: all four strategies must return identical
//! answers on random attributed graphs, and those answers must satisfy
//! Problem 1's three conditions (connectivity, structure cohesiveness,
//! maximal keyword cohesiveness).
//!
//! Gated behind the non-default `proptest` feature: the build environment
//! is offline, so the `proptest` dev-dependency is not in the manifest.
//! Restore it (and `rand`) before enabling the feature in a networked
//! environment — see DESIGN.md "Offline build policy".
#![cfg(feature = "proptest")]

use proptest::prelude::*;

use cx_acq::{acq, AcqOptions, AcqStrategy};
use cx_cltree::ClTree;
use cx_graph::{AttributedGraph, GraphBuilder, VertexId};

fn arb_graph(max_n: usize) -> impl Strategy<Value = AttributedGraph> {
    (3..=max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..(3 * n));
        let kws = proptest::collection::vec(proptest::collection::vec(0u8..6, 0..5), n);
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
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn all_strategies_agree(g in arb_graph(18), qi in 0u32..18, k in 1u32..4) {
        let q = VertexId(qi % g.vertex_count() as u32);
        let tree = ClTree::build(&g);
        let opts = AcqOptions::with_k(k);
        let reference = acq(&g, &tree, q, &opts, AcqStrategy::Dec);
        for strat in [AcqStrategy::Basic, AcqStrategy::IncS, AcqStrategy::IncT] {
            let res = acq(&g, &tree, q, &opts, strat);
            prop_assert_eq!(
                res.shared_keyword_count, reference.shared_keyword_count,
                "L mismatch: {} vs Dec (q=v{}, k={})", strat.name(), q.0, k
            );
            prop_assert_eq!(
                &res.communities, &reference.communities,
                "community mismatch: {} vs Dec (q=v{}, k={})", strat.name(), q.0, k
            );
        }
    }

    #[test]
    fn answers_satisfy_problem_one(g in arb_graph(20), qi in 0u32..20, k in 1u32..4) {
        let q = VertexId(qi % g.vertex_count() as u32);
        let tree = ClTree::build(&g);
        let res = acq(&g, &tree, q, &AcqOptions::with_k(k), AcqStrategy::Dec);
        for c in &res.communities {
            // Contains q.
            prop_assert!(c.contains(q));
            // Structure cohesiveness: min internal degree ≥ k.
            prop_assert!(c.min_internal_degree(&g) >= k as usize,
                "min degree {} < {}", c.min_internal_degree(&g), k);
            // Connectivity.
            prop_assert!(
                cx_graph::traversal::induced_diameter(&g, c.vertices()).is_some(),
                "community disconnected"
            );
            // Keyword cohesiveness: every member carries every shared keyword.
            for &v in c.vertices() {
                for &w in c.shared_keywords() {
                    prop_assert!(g.has_keyword(v, w));
                }
            }
            prop_assert_eq!(c.shared_keywords().len(), res.shared_keyword_count);
        }
    }

    /// Maximality: no single extra keyword of W(q) could have been shared —
    /// i.e. for any keyword set strictly larger than the answer's, there is
    /// no valid community. Checked against brute force on tiny graphs.
    #[test]
    fn keyword_cohesiveness_is_maximal(g in arb_graph(12), qi in 0u32..12, k in 1u32..3) {
        let q = VertexId(qi % g.vertex_count() as u32);
        let tree = ClTree::build(&g);
        let res = acq(&g, &tree, q, &AcqOptions::with_k(k), AcqStrategy::Dec);
        // Brute force: try every subset of W(q), find the max size with a
        // verified keyword-core.
        let wq = g.keywords(q).to_vec();
        let mut best = 0usize;
        for mask in 1u32..(1 << wq.len().min(16)) {
            let subset: Vec<_> = wq
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &w)| w)
                .collect();
            let members: Vec<VertexId> = g
                .vertices()
                .filter(|&v| subset.iter().all(|&w| g.has_keyword(v, w)))
                .collect();
            if cx_check::invariants::reference_core_component(&g, &members, q, k).is_some() {
                best = best.max(subset.len());
            }
        }
        prop_assert_eq!(res.shared_keyword_count, best,
            "Dec found L of size {}, brute force says {}", res.shared_keyword_count, best);
    }
}
