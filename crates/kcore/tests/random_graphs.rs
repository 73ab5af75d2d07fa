//! Seeded random graphs (self-loops and repeated edges included) against
//! naive references: core numbers against cx-check's fixpoint peel, truss
//! numbers against repeated triangle-count peeling, and `DynamicCore`
//! against a from-scratch decomposition after every edit. Every assertion
//! names its seed. The subset peel has its own differential in
//! `peel_vs_reference.rs`.

use std::collections::HashSet;

use cx_check::invariants::check_core_numbers;
use cx_graph::{AttributedGraph, GraphBuilder, VertexId};
use cx_kcore::{CoreDecomposition, DynamicCore, TrussDecomposition};
use cx_par::rng::Rng64;

/// A graph on 2..=`max_n` vertices with up to 3n random vertex pairs.
fn random_graph(rng: &mut Rng64, max_n: u32) -> AttributedGraph {
    let n = rng.gen_range(2..=max_n);
    let mut b = GraphBuilder::new();
    for i in 0..n {
        b.add_vertex(&format!("v{i}"), &[]);
    }
    for _ in 0..rng.gen_range(0..3 * n) {
        b.add_edge(VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n)));
    }
    b.build()
}

/// The truss number of `{u, v}`: the largest k for which the edge survives
/// repeatedly deleting every edge that closes fewer than k − 2 triangles.
fn naive_truss_of(g: &AttributedGraph, u: VertexId, v: VertexId) -> u32 {
    let key = |a: VertexId, b: VertexId| if a < b { (a, b) } else { (b, a) };
    let mut alive: HashSet<(VertexId, VertexId)> = g.edges().collect();
    let mut k = 2;
    loop {
        // Peel down to the (k + 1)-truss.
        loop {
            let doomed: Vec<_> = alive
                .iter()
                .copied()
                .filter(|&(a, b)| {
                    let tri = g
                        .vertices()
                        .filter(|&w| w != a && w != b)
                        .filter(|&w| alive.contains(&key(a, w)) && alive.contains(&key(b, w)))
                        .count();
                    tri + 1 < k as usize
                })
                .collect();
            if doomed.is_empty() {
                break;
            }
            for e in doomed {
                alive.remove(&e);
            }
        }
        if !alive.contains(&key(u, v)) {
            return k;
        }
        k += 1;
    }
}

#[test]
fn core_numbers_match_naive_peel() {
    for seed in 0..40u64 {
        let g = random_graph(&mut Rng64::seed_from_u64(0xC0E ^ seed), 25);
        let cd = CoreDecomposition::compute(&g);
        let violations = check_core_numbers(&g, &|v| cd.core(v));
        assert!(violations.is_empty(), "seed={seed}: {violations:?}");
        // H_k has minimum degree k and H_{k+1} ⊆ H_k.
        for k in 0..=cd.max_core() {
            let hk: HashSet<VertexId> = cd.k_core_vertices(k).into_iter().collect();
            for &v in &hk {
                let d = g.neighbors(v).iter().filter(|u| hk.contains(u)).count();
                assert!(d >= k as usize, "seed={seed}: {v:?} has degree {d} in H_{k}");
            }
            for v in cd.k_core_vertices(k + 1) {
                assert!(hk.contains(&v), "seed={seed}: {v:?} in H_{} but not H_{k}", k + 1);
            }
        }
    }
}

#[test]
fn truss_numbers_match_naive_peel() {
    for seed in 0..40u64 {
        let g = random_graph(&mut Rng64::seed_from_u64(0x7255 ^ seed), 9);
        let td = TrussDecomposition::compute(&g);
        let cd = CoreDecomposition::compute(&g);
        for (u, v) in g.edges() {
            let t = td.truss_of(u, v).expect("every edge has a truss number");
            assert_eq!(t, naive_truss_of(&g, u, v), "seed={seed} edge ({u:?}, {v:?})");
            let bound = cd.core(u).min(cd.core(v)) + 1;
            assert!(t <= bound, "seed={seed}: truss {t} above the core bound {bound}");
        }
    }
}

#[test]
fn dynamic_core_matches_recompute_after_every_edit() {
    for seed in 0..30u64 {
        let mut rng = Rng64::seed_from_u64(0xD7C ^ seed);
        let n = rng.gen_range(3..15u32);
        let mut dc = DynamicCore::with_vertices(n as usize);
        for step in 0..rng.gen_range(1..60u32) {
            let (a, b) = (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n)));
            let insert = rng.gen_bool(0.5);
            if insert {
                dc.insert_edge(a, b);
            } else {
                dc.remove_edge(a, b);
            }
            let mut builder = GraphBuilder::new();
            for i in 0..n {
                builder.add_vertex(&format!("v{i}"), &[]);
            }
            for i in 0..n {
                for j in i + 1..n {
                    if dc.has_edge(VertexId(i), VertexId(j)) {
                        builder.add_edge(VertexId(i), VertexId(j));
                    }
                }
            }
            assert_eq!(
                dc.core_numbers(),
                CoreDecomposition::compute(&builder.build()).core_numbers(),
                "seed={seed} step={step}: {} ({a:?}, {b:?})",
                if insert { "insert" } else { "remove" }
            );
        }
    }
}
