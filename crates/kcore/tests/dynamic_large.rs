//! Large-graph property test for `DynamicCore`: a 10k+-vertex seeded
//! dblp_like graph run through 200-step insert/delete edit scripts,
//! cross-checked against a from-scratch peel.
//!
//! The small-graph counterpart, a recompute after every single edit, is
//! in `random_graphs.rs`. This one is sized so a debug build finishes in
//! seconds (the full recompute runs every few steps, not every step).

use cx_datagen::{dblp_like, DblpParams};
use cx_graph::{GraphBuilder, VertexId};
use cx_kcore::{CoreDecomposition, DynamicCore};
use cx_par::rng::Rng64;

const VERTICES: usize = 10_000;
const STEPS: usize = 200;
/// Full-recompute cadence: every step would be O(steps · (n + m)) in a
/// debug build; every 10th step still catches any drift within the
/// script while keeping the test under a few seconds.
const CHECK_EVERY: usize = 10;

/// Reference peel over the dynamic structure's current edge set.
fn recompute(dc: &DynamicCore, edges: &[(VertexId, VertexId)]) -> Vec<u32> {
    let mut b = GraphBuilder::with_capacity(dc.vertex_count(), edges.len());
    for i in 0..dc.vertex_count() {
        b.add_vertex(&format!("v{i}"), &[]);
    }
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    CoreDecomposition::compute(&b.build()).core_numbers().to_vec()
}

fn run_script(seed: u64) {
    let (g, _areas) = dblp_like(&DblpParams::scaled(VERTICES, seed));
    assert!(g.vertex_count() >= VERTICES, "scaled generator must hit the floor");
    let mut dc = DynamicCore::from_graph(&g);
    let n = g.vertex_count() as u32;
    let mut rng = Rng64::seed_from_u64(seed ^ 0xD1F);

    // Mutable mirror of the current edge set so deletes target real edges
    // and the reference rebuild is cheap to assemble.
    let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();

    for step in 0..STEPS {
        // ~60% inserts, ~40% removes, so the graph slowly densifies and
        // both cascade directions get exercised against the same regions.
        if rng.gen_bool(0.6) || edges.is_empty() {
            let u = VertexId(rng.gen_range(0..n));
            let v = VertexId(rng.gen_range(0..n));
            if dc.insert_edge(u, v) {
                edges.push(if u < v { (u, v) } else { (v, u) });
            }
        } else {
            let idx = rng.gen_range(0..edges.len());
            let (u, v) = edges.swap_remove(idx);
            assert!(dc.remove_edge(u, v), "mirror said edge {u}-{v} exists");
        }
        if step % CHECK_EVERY == CHECK_EVERY - 1 {
            assert_eq!(
                dc.core_numbers(),
                recompute(&dc, &edges).as_slice(),
                "core drift at step {step} (seed {seed})"
            );
        }
    }
    // Final exact check regardless of cadence.
    assert_eq!(dc.core_numbers(), recompute(&dc, &edges).as_slice(), "final (seed {seed})");
}

#[test]
fn dynamic_core_tracks_200_step_script_on_10k_graph_seed7() {
    run_script(7);
}

#[test]
fn dynamic_core_tracks_200_step_script_on_10k_graph_seed21() {
    run_script(21);
}
