//! Differential + invariant sweep of the ACQ strategies via `cx-check`.
//!
//! Complements the crate's unit tests: instead of hand-picked fixtures,
//! this runs seeded workloads over generated graphs and demands that all
//! four strategies agree *and* that every answer satisfies the problem
//! definition (connectivity, min-degree, keyword maximality) checked by
//! naive reference algorithms.

use std::collections::HashMap;

use cx_acq::{acq, AcqOptions, AcqStrategy};
use cx_check::invariants::reference_core_component;
use cx_check::{
    acq_strategy_differential, check_acq_result, check_community, graph_matrix, query_workload,
};
use cx_cltree::ClTree;
use cx_graph::{AttributedGraph, GraphBuilder, VertexId};
use cx_par::rng::Rng64;

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

/// A small dense graph whose vertices each carry 10–16 of a 20-word
/// vocabulary: neighbour masks overlap heavily, so Dec's lattice walk is
/// deep and its cuts are partial.
fn overlapping_keywords_graph(rng: &mut Rng64) -> AttributedGraph {
    let n = rng.gen_range(8..=14usize);
    let vocab: Vec<String> = (0..20).map(|i| format!("w{i}")).collect();
    let mut b = GraphBuilder::new();
    for v in 0..n {
        let mut words: Vec<&str> = vocab.iter().map(String::as_str).collect();
        let take = rng.gen_range(10..=16usize);
        for i in 0..take {
            let j = rng.gen_range(i..words.len());
            words.swap(i, j);
        }
        b.add_vertex(&format!("v{v}"), &words[..take]);
    }
    for _ in 0..3 * n {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        b.add_edge(VertexId(u), VertexId(v));
    }
    b.build()
}

/// The largest subset of W(q) whose carriers hold a connected k-core
/// containing q, by brute force over every subset (member sets repeat
/// across subsets, so each distinct one is peeled once).
fn brute_force_best(g: &AttributedGraph, q: VertexId, k: u32) -> usize {
    let wq = g.keywords(q);
    let carries: Vec<u32> = g
        .vertices()
        .map(|v| (0..wq.len()).filter(|&i| g.has_keyword(v, wq[i])).fold(0, |m, i| m | 1 << i))
        .collect();
    let mut verdicts: HashMap<Vec<VertexId>, bool> = HashMap::new();
    let mut best = 0;
    for subset in 1u32..1 << wq.len() {
        let size = subset.count_ones() as usize;
        if size <= best {
            continue;
        }
        let members: Vec<VertexId> =
            g.vertices().filter(|v| carries[v.0 as usize] & subset == subset).collect();
        let holds = *verdicts
            .entry(members)
            .or_insert_with_key(|m| reference_core_component(g, m, q, k).is_some());
        if holds {
            best = size;
        }
    }
    best
}

/// Maximality: no keyword set larger than the answer's admits a
/// community. Dec must find the brute-force optimum, and agree with the
/// index-free Basic on every community.
#[test]
fn keyword_cohesiveness_is_maximal() {
    let mut deep = 0;
    for seed in 0..24u64 {
        let mut rng = Rng64::seed_from_u64(seed);
        let g = overlapping_keywords_graph(&mut rng);
        let tree = ClTree::build(&g);
        let q = VertexId(rng.gen_range(0..g.vertex_count() as u32));
        for k in 1..=3 {
            let opts = AcqOptions::with_k(k);
            let dec = acq(&g, &tree, q, &opts, AcqStrategy::Dec);
            let basic = acq(&g, &tree, q, &opts, AcqStrategy::Basic);
            let best = brute_force_best(&g, q, k);
            assert_eq!(
                dec.shared_keyword_count, best,
                "seed {seed} q={q} k={k}: Dec found L of size {}, brute force says {best}",
                dec.shared_keyword_count
            );
            assert_eq!(
                basic.shared_keyword_count, best,
                "seed {seed} q={q} k={k}: Basic found L of size {}, brute force says {best}",
                basic.shared_keyword_count
            );
            assert_eq!(
                dec.communities, basic.communities,
                "seed {seed} q={q} k={k}: Dec and Basic communities differ"
            );
            deep += usize::from(best >= 4);
        }
    }
    assert!(deep > 0, "no query had an answer deep in its lattice");
}
