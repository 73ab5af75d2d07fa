//! The quality and similarity metrics over seeded random communities
//! drawn from cx-check's generated graphs.

use std::collections::HashMap;

use cx_check::workload::graph_matrix;
use cx_check::{cmf_all_members, cpj_all_pairs};
use cx_datagen::{dblp_like, figure5_graph, DblpParams};
use cx_explorer::{Engine, QuerySpec};
use cx_graph::{AttributedGraph, Community, GraphBuilder, VertexId};
use cx_metrics::{cmf, cpj, cpj_single, f1_score, pairwise_jaccard_matrix};
use cx_par::rng::Rng64;

/// Asserts that `cpj_single` and the all-pairs definition agree to the
/// bit on `c`, and returns the value.
fn assert_cpj_exact(g: &AttributedGraph, c: &Community, what: &str) -> f64 {
    let (got, want) = (cpj_single(g, c), cpj_all_pairs(g, c));
    assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got:e} vs all-pairs {want:e}");
    want
}

#[test]
fn cpj_is_the_all_pairs_sum_to_the_bit_on_every_figure5_subset() {
    let g = figure5_graph();
    let n = g.vertex_count();
    for mask in 0u32..1 << n {
        let members = (0..n as u32).filter(|&i| mask >> i & 1 == 1).map(VertexId).collect();
        assert_cpj_exact(&g, &Community::structural(members), &format!("subset {mask:#b}"));
    }
}

#[test]
fn cpj_is_the_all_pairs_sum_to_the_bit_on_hub_answers() {
    let (g, _) = dblp_like(&DblpParams::scaled(2_000, 7));
    let engine = Engine::with_graph("dblp", g.clone());
    let mut hubs: Vec<VertexId> = g.vertices().collect();
    hubs.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v.0));
    // Hubs share their Global answers, so each distinct community is
    // summed pair by pair once.
    let mut reference: HashMap<Vec<VertexId>, f64> = HashMap::new();
    for &q in &hubs[..8] {
        for algo in ["acq", "global"] {
            for k in 2..=5 {
                let what = format!("{algo} q={q:?} k={k}");
                let answer = engine.search(algo, &QuerySpec::by_id(q).k(k)).unwrap();
                let mut total = 0.0;
                for c in &answer {
                    total += *reference
                        .entry(c.vertices().to_vec())
                        .or_insert_with(|| assert_cpj_exact(&g, c, &what));
                }
                let mean = if answer.is_empty() { 0.0 } else { total / answer.len() as f64 };
                assert_eq!(cpj(&g, &answer).to_bits(), mean.to_bits(), "{what}");
                let want = cmf_all_members(&g, &answer, q);
                assert_eq!(cmf(&g, &answer, q).to_bits(), want.to_bits(), "{algo} q={q:?} k={k}");
            }
        }
    }
    let largest = reference.keys().map(Vec::len).max();
    assert!(largest >= Some(1_000), "largest answer {largest:?}");
}

#[test]
fn cpj_is_the_all_pairs_sum_to_the_bit_on_hand_cases() {
    let mut b = GraphBuilder::new();
    let sets: [&[&str]; 8] = [
        &[],
        &[],
        &["db", "graphs"],
        &["db", "graphs"],
        &["ml", "vision"],
        &["db", "ml", "nlp"],
        &["graphs"],
        &["db", "graphs", "ml", "nlp", "vision"],
    ];
    for (i, kws) in sets.iter().enumerate() {
        b.add_vertex(&format!("v{i}"), kws);
    }
    let g = b.build();
    let c = |ids: &[u32]| Community::structural(ids.iter().copied().map(VertexId).collect());
    for (ids, what) in [
        (&[][..], "no members"),
        (&[2], "one member"),
        (&[2, 6], "two members"),
        (&[0, 1], "two empty keyword sets"),
        (&[0, 2, 1], "empty sets beside a non-empty one"),
        (&[2, 3], "identical sets"),
        (&[2, 4], "disjoint sets"),
        (&[2, 4, 6], "disjoint and nested sets"),
        (&[0, 1, 2, 3, 4, 5, 6, 7], "everything"),
    ] {
        assert_cpj_exact(&g, &c(ids), what);
    }
    assert_eq!(cpj_single(&g, &c(&[2, 3])), 1.0);
    assert_eq!(cpj_single(&g, &c(&[2, 4])), 0.0);
    assert_eq!(cpj_single(&g, &c(&[0, 1])), 0.0);
}

/// Draws `count` random communities (2–10 members each) from `g`.
fn random_communities(
    g: &cx_graph::AttributedGraph,
    count: usize,
    rng: &mut Rng64,
) -> Vec<Community> {
    let n = g.vertex_count() as u64;
    (0..count)
        .map(|_| {
            let size = 2 + (rng.next_u64() % 9) as usize;
            let mut vs: Vec<VertexId> =
                (0..size).map(|_| VertexId((rng.next_u64() % n) as u32)).collect();
            vs.sort();
            vs.dedup();
            Community::structural(vs)
        })
        .collect()
}

#[test]
fn cpj_and_cmf_stay_in_unit_interval() {
    for case in graph_matrix(&[80, 160], &[3, 17]) {
        let g = &case.graph;
        let mut rng = Rng64::seed_from_u64(0xBEEF);
        for round in 0..20 {
            let comms = random_communities(g, 1 + round % 5, &mut rng);
            let p = cpj(g, &comms);
            assert!((0.0..=1.0).contains(&p), "{} cpj={p}", case.name);
            for c in &comms {
                let ps = cpj_single(g, c);
                assert!((0.0..=1.0).contains(&ps), "{} cpj_single={ps}", case.name);
            }
            let q = VertexId((rng.next_u64() % g.vertex_count() as u64) as u32);
            let m = cmf(g, &comms, q);
            assert!((0.0..=1.0).contains(&m), "{} cmf={m}", case.name);
        }
    }
}

#[test]
fn identical_communities_score_perfect() {
    let case = &graph_matrix(&[100], &[7])[1];
    let g = &case.graph;
    let mut rng = Rng64::seed_from_u64(0xFEED);
    let comms = random_communities(g, 6, &mut rng);
    for c in &comms {
        // A community is always identical to itself.
        assert_eq!(c.vertex_jaccard(c), 1.0);
    }
    // Comparing a result set against itself: diagonal of ones, perfect F1.
    let m = pairwise_jaccard_matrix(&comms, &comms);
    for (i, row) in m.iter().enumerate() {
        assert_eq!(row[i], 1.0, "diagonal at {i}");
    }
    assert!((f1_score(&comms, &comms) - 1.0).abs() < 1e-12);
    // A community of keyword-identical vertices has CPJ exactly 1.
    let mut b = cx_graph::GraphBuilder::new();
    let u = b.add_vertex("a", &["db", "graphs"]);
    let v = b.add_vertex("b", &["db", "graphs"]);
    b.add_edge(u, v);
    let tiny = b.build();
    let c = Community::structural(vec![VertexId(0), VertexId(1)]);
    assert_eq!(cpj_single(&tiny, &c), 1.0);
}

#[test]
fn jaccard_matrix_is_symmetric_under_swap() {
    let case = &graph_matrix(&[90], &[9])[1];
    let g = &case.graph;
    let mut rng = Rng64::seed_from_u64(0xABCD);
    let a = random_communities(g, 5, &mut rng);
    let b = random_communities(g, 7, &mut rng);
    let ab = pairwise_jaccard_matrix(&a, &b);
    let ba = pairwise_jaccard_matrix(&b, &a);
    assert_eq!(ab.len(), a.len());
    assert_eq!(ab[0].len(), b.len());
    for i in 0..a.len() {
        for j in 0..b.len() {
            assert_eq!(ab[i][j], ba[j][i], "J must be symmetric: m[{i}][{j}]");
            assert!((0.0..=1.0).contains(&ab[i][j]));
        }
    }
}

#[test]
fn cpj_of_empty_and_singleton_is_zero() {
    let case = &graph_matrix(&[60], &[2])[1];
    let g = &case.graph;
    assert_eq!(cpj(g, &[]), 0.0);
    let single = Community::structural(vec![VertexId(0)]);
    assert_eq!(cpj_single(g, &single), 0.0);
    assert_eq!(cmf(g, &[], VertexId(0)), 0.0);
}
