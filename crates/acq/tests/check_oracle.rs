//! Differential + invariant sweep of the ACQ strategies via `cx-check`.
//!
//! Complements the crate's unit tests: instead of hand-picked fixtures,
//! this runs seeded workloads over generated graphs and demands that all
//! four strategies agree *and* that every answer satisfies the problem
//! definition (connectivity, min-degree, keyword maximality) checked by
//! naive reference algorithms.

use cx_acq::AcqOptions;
use cx_check::{
    acq_strategy_differential, check_acq_result, check_community, graph_matrix, query_workload,
};
use cx_cltree::ClTree;

#[test]
fn seeded_workloads_pass_differential_and_invariants() {
    for case in graph_matrix(&[60, 150], &[3, 11]) {
        let g = &case.graph;
        let tree = ClTree::build(g);
        for qc in query_workload(g, 6, 0xAC01) {
            let mut opts = AcqOptions::with_k(qc.k).max_candidates(2000);
            if !qc.keywords.is_empty() {
                opts = opts.keywords(qc.keywords.clone());
            }
            let qs = qc.qs();
            let (reference, mismatches) = acq_strategy_differential(g, &tree, &qs, &opts, 10);
            assert!(
                mismatches.is_empty(),
                "{} {}: {mismatches:?}",
                case.name,
                qc.describe(g)
            );
            let s: Vec<_> = if qc.keywords.is_empty() {
                g.keywords(qc.q).to_vec()
            } else {
                qc.keywords.clone()
            };
            let violations = match qc.companion {
                None => check_acq_result(g, qc.q, qc.k, &s, &reference),
                Some(_) => reference
                    .communities
                    .iter()
                    .flat_map(|c| check_community(g, c, &qs, qc.k))
                    .collect(),
            };
            assert!(
                violations.is_empty(),
                "{} {}: {violations:?}",
                case.name,
                qc.describe(g)
            );
        }
    }
}

#[test]
fn high_k_queries_return_empty_not_wrong() {
    // Far above the degeneracy of any workload graph: every strategy must
    // agree the answer is empty (the invariant checker verifies that no
    // core actually exists).
    for case in graph_matrix(&[60], &[5]) {
        let g = &case.graph;
        let tree = ClTree::build(g);
        for qc in query_workload(g, 3, 1) {
            let opts = AcqOptions::with_k(64);
            let (reference, mismatches) = acq_strategy_differential(g, &tree, &qc.qs(), &opts, 10);
            assert!(mismatches.is_empty(), "{mismatches:?}");
            assert!(reference.communities.is_empty());
            let violations =
                check_acq_result(g, qc.q, 64, g.keywords(qc.q), &reference);
            assert!(violations.is_empty(), "{violations:?}");
        }
    }
}

#[test]
fn more_than_64_keywords_takes_the_eager_peel_walk() {
    // |S| > 64 with k ≥ 1: the neighbour masks do not fit a word, so the
    // verifier peels singletons eagerly with the filter unarmed. q alone
    // carries 65 of its 68 keywords, which keeps the lattice at {x, y, z}.
    let unique: Vec<String> = (0..65).map(|i| format!("u{i}")).collect();
    let mut wq: Vec<&str> = unique.iter().map(String::as_str).collect();
    wq.extend(["x", "y", "z"]);
    let mut b = cx_graph::GraphBuilder::new();
    let q = b.add_vertex("q", &wq);
    let a = b.add_vertex("a", &["x", "y", "z"]);
    let c = b.add_vertex("c", &["x", "y"]);
    let d = b.add_vertex("d", &["x", "y"]);
    let e = b.add_vertex("e", &["x", "z"]);
    for (u, v) in [(q, a), (q, c), (q, d), (a, c), (a, d), (c, d), (q, e), (a, e)] {
        b.add_edge(u, v);
    }
    let g = b.build();
    assert!(g.keywords(q).len() > 64);
    let tree = ClTree::build(&g);
    let opts = AcqOptions::with_k(2);
    // 2^68 subsets: Basic sits this one out.
    let (reference, mismatches) = acq_strategy_differential(&g, &tree, &[q], &opts, 0);
    assert!(mismatches.is_empty(), "{mismatches:?}");
    // {x,y} on the K4 and {x,z} on the triangle; {x,y,z} leaves only q, a.
    assert_eq!(reference.shared_keyword_count, 2);
    let mut members: Vec<Vec<&str>> = reference
        .communities
        .iter()
        .map(|c| c.vertices().iter().map(|&v| g.label(v)).collect())
        .collect();
    members.sort();
    assert_eq!(members, vec![vec!["q", "a", "c", "d"], vec!["q", "a", "e"]]);
    let violations = check_acq_result(&g, q, 2, g.keywords(q), &reference);
    assert!(violations.is_empty(), "{violations:?}");
}
