//! Determinism contract of the parallel CL-tree build: the tree's
//! structure — per-node vertex sets, levels, core numbers, keyword
//! reachability — must be identical at every thread count, because the
//! per-component fan-out concatenates subtrees in the deterministic
//! component order and `cx_par` chunking depends only on input length.

use std::sync::{Mutex, MutexGuard};

use cx_cltree::{ClTree, NodeId};
use cx_datagen::{dblp_like, small_collab_graph, DblpParams};
use cx_graph::AttributedGraph;

/// Held by every test here: each one writes `CX_THREADS`, and the tests
/// run on parallel threads.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn env_lock() -> MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A structural summary of a tree that is independent of node-id
/// numbering: sorted (level, parent level, sorted vertex list) triples.
fn shape(tree: &ClTree, g: &AttributedGraph) -> Vec<(u32, Option<u32>, Vec<u32>)> {
    let mut out: Vec<(u32, Option<u32>, Vec<u32>)> = (0..tree.node_count())
        .map(|i| {
            let node = tree.node(NodeId(i as u32));
            let vs: Vec<u32> = tree.residents(NodeId(i as u32)).iter().map(|v| v.0).collect();
            (node.level, node.parent.map(|p| tree.node(p).level), vs)
        })
        .collect();
    out.sort();
    assert_eq!(tree.node_count() > 0, g.vertex_count() > 0);
    out
}

fn at_thread_counts(g: &AttributedGraph) {
    let _guard = env_lock();
    std::env::set_var("CX_THREADS", "1");
    cx_par::refresh_threads();
    let base_tree = ClTree::build(g);
    let base = shape(&base_tree, g);
    let base_cores: Vec<u32> = g.vertices().map(|v| base_tree.core(v)).collect();
    for threads in ["2", "8"] {
        std::env::set_var("CX_THREADS", threads);
        cx_par::refresh_threads();
        let tree = ClTree::build(g);
        assert_eq!(shape(&tree, g), base, "tree shape diverged at CX_THREADS={threads}");
        let cores: Vec<u32> = g.vertices().map(|v| tree.core(v)).collect();
        assert_eq!(cores, base_cores, "cores diverged at CX_THREADS={threads}");
    }
    std::env::remove_var("CX_THREADS");
    cx_par::refresh_threads();
}

#[test]
fn small_graph_tree_identical_across_thread_counts() {
    at_thread_counts(&small_collab_graph());
}

#[test]
fn seeded_workloads_identical_across_thread_counts() {
    for n in [1_000usize, 8_000, 25_000] {
        let (g, _) = dblp_like(&DblpParams::scaled(n, 11));
        at_thread_counts(&g);
    }
}

#[test]
fn keyword_queries_identical_across_thread_counts() {
    let (g, _) = dblp_like(&DblpParams::scaled(3_000, 5));
    // Pick a mid-frequency keyword from some vertex.
    let q = g
        .vertices()
        .find(|&v| !g.keywords(v).is_empty())
        .expect("workload has keywords");
    let w = g.keywords(q)[0];
    let probe = |t: &ClTree| -> Vec<Option<Vec<u32>>> {
        (1..=t.max_core())
            .map(|k| {
                t.keyword_vertices_in_k_core(q, k, w).map(|vs| {
                    let mut vs: Vec<u32> = vs.iter().map(|v| v.0).collect();
                    vs.sort_unstable();
                    vs
                })
            })
            .collect()
    };
    let _guard = env_lock();
    std::env::set_var("CX_THREADS", "1");
    cx_par::refresh_threads();
    let base = probe(&ClTree::build(&g));
    for threads in ["2", "8"] {
        std::env::set_var("CX_THREADS", threads);
        cx_par::refresh_threads();
        assert_eq!(
            probe(&ClTree::build(&g)),
            base,
            "keyword reachability diverged at CX_THREADS={threads}"
        );
    }
    std::env::remove_var("CX_THREADS");
    cx_par::refresh_threads();
}
