//! Property tests: the optimised decompositions agree with naive
//! reference implementations on random graphs.
//!
//! Gated behind the non-default `proptest` feature: the build environment
//! is offline, so the `proptest` dev-dependency is not in the manifest.
//! Restore it (and `rand`) before enabling the feature in a networked
//! environment — see DESIGN.md "Offline build policy".
#![cfg(feature = "proptest")]

use proptest::prelude::*;

use cx_graph::{AttributedGraph, GraphBuilder, VertexId};
use cx_kcore::{CoreDecomposition, PeelScratch, TrussDecomposition};

fn arb_graph(max_n: usize) -> impl Strategy<Value = AttributedGraph> {
    (2..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..(3 * n)).prop_map(
            move |edges| {
                let mut b = GraphBuilder::new();
                for i in 0..n {
                    b.add_vertex(&format!("v{i}"), &[]);
                }
                for (u, v) in edges {
                    b.add_edge(VertexId(u), VertexId(v));
                }
                b.build()
            },
        )
    })
}

/// Reference: repeatedly delete vertices with degree < k until stable; a
/// vertex's core number is the largest k for which it survives.
fn naive_core_numbers(g: &AttributedGraph) -> Vec<u32> {
    let n = g.vertex_count();
    let mut core = vec![0u32; n];
    let max_k = g.max_degree() as u32;
    for k in 1..=max_k {
        let mut alive = vec![true; n];
        loop {
            let mut changed = false;
            for v in g.vertices() {
                if alive[v.index()] {
                    let d = g.neighbors(v).iter().filter(|&&u| alive[u.index()]).count();
                    if (d as u32) < k {
                        alive[v.index()] = false;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for v in 0..n {
            if alive[v] {
                core[v] = k;
            }
        }
    }
    core
}

/// Reference truss: repeatedly delete edges in < (k-2) triangles.
fn naive_truss_of(g: &AttributedGraph, u: VertexId, v: VertexId) -> u32 {
    let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let mut k = 2u32;
    loop {
        // Try to sustain a (k+1)-truss: peel edges with < (k-1) triangles.
        let mut alive = edges.clone();
        loop {
            let has = |set: &[(VertexId, VertexId)], a: VertexId, b: VertexId| {
                let key = if a < b { (a, b) } else { (b, a) };
                set.contains(&key)
            };
            let before = alive.len();
            let snapshot = alive.clone();
            alive.retain(|&(a, b)| {
                let mut tri = 0;
                for w in g.vertices() {
                    if w != a && w != b && has(&snapshot, a, w) && has(&snapshot, b, w) {
                        tri += 1;
                    }
                }
                tri >= (k + 1).saturating_sub(2)
            });
            if alive.len() == before {
                break;
            }
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if alive.contains(&key) {
            k += 1;
            edges = alive;
        } else {
            return k;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn bz_matches_naive_core_numbers(g in arb_graph(20)) {
        let cd = CoreDecomposition::compute(&g);
        let expect = naive_core_numbers(&g);
        prop_assert_eq!(cd.core_numbers(), expect.as_slice());
    }

    #[test]
    fn k_core_vertices_have_min_degree_k_and_are_maximal(g in arb_graph(25)) {
        let cd = CoreDecomposition::compute(&g);
        for k in 0..=cd.max_core() {
            let core = cd.k_core_vertices(k);
            let inset: std::collections::HashSet<_> = core.iter().copied().collect();
            for &v in &core {
                let d = g.neighbors(v).iter().filter(|u| inset.contains(u)).count();
                prop_assert!(d >= k as usize, "v{} has degree {} < {} in H_{}", v.0, d, k, k);
            }
        }
        // Nesting: H_{k+1} ⊆ H_k.
        for k in 0..cd.max_core() {
            let hk: std::collections::HashSet<_> = cd.k_core_vertices(k).into_iter().collect();
            for v in cd.k_core_vertices(k + 1) {
                prop_assert!(hk.contains(&v));
            }
        }
    }

    #[test]
    fn scratch_peel_on_full_graph_matches_decomposition(g in arb_graph(25), k in 0u32..5) {
        let all: Vec<VertexId> = g.vertices().collect();
        let cd = CoreDecomposition::compute(&g);
        let mut s = PeelScratch::new();
        let mut out = Vec::new();
        for &q in &all {
            let found = s.connected_k_core_containing_into(&g, &all, &[q], k, &mut out);
            prop_assert_eq!(found.then(|| out.clone()), cd.connected_k_core(&g, q, k));
        }
    }

    #[test]
    fn truss_matches_naive_on_tiny_graphs(g in arb_graph(9)) {
        let td = TrussDecomposition::compute(&g);
        for (u, v) in g.edges() {
            let fast = td.truss_of(u, v).unwrap();
            let slow = naive_truss_of(&g, u, v);
            prop_assert_eq!(fast, slow, "edge ({},{})", u.0, v.0);
        }
    }

    #[test]
    fn truss_bounded_by_core_plus_one(g in arb_graph(20)) {
        // Classical bound: truss(e) ≤ min(core(u), core(v)) + 1... use the
        // weaker safe direction: truss(e) - 2 ≤ degree bound via cores.
        let cd = CoreDecomposition::compute(&g);
        let td = TrussDecomposition::compute(&g);
        for (u, v) in g.edges() {
            let t = td.truss_of(u, v).unwrap();
            let bound = cd.core(u).min(cd.core(v)) + 1;
            prop_assert!(t <= bound, "truss {} > core bound {}", t, bound);
        }
    }
}

/// Random edit scripts: after every insertion/deletion the incremental
/// core numbers must equal a from-scratch decomposition.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    #[test]
    fn dynamic_core_matches_recompute(
        n in 3usize..15,
        script in proptest::collection::vec((0u32..15, 0u32..15, any::<bool>()), 1..60),
    ) {
        use cx_kcore::DynamicCore;
        let mut dc = DynamicCore::with_vertices(n);
        for (a, b, insert) in script {
            let (a, b) = (VertexId(a % n as u32), VertexId(b % n as u32));
            if insert {
                dc.insert_edge(a, b);
            } else {
                dc.remove_edge(a, b);
            }
            // Reference recompute on the same edge set.
            let mut builder = GraphBuilder::new();
            for i in 0..n {
                builder.add_vertex(&format!("v{i}"), &[]);
            }
            for i in 0..n {
                for j in (i + 1)..n {
                    if dc.has_edge(VertexId(i as u32), VertexId(j as u32)) {
                        builder.add_edge(VertexId(i as u32), VertexId(j as u32));
                    }
                }
            }
            let expect = CoreDecomposition::compute(&builder.build());
            prop_assert_eq!(
                dc.core_numbers(),
                expect.core_numbers(),
                "divergence after {} ({}, {})",
                if insert { "insert" } else { "remove" }, a.0, b.0
            );
        }
    }
}
