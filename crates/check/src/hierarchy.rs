//! The hierarchy reconstruction oracle.
//!
//! The multi-resolution summary (cx-cltree's [`Hierarchy`]) claims clean
//! drill-down semantics: a level-k view shows the connected components of
//! the k-core as supernodes, expanding a supernode reveals residents,
//! children and owned edges, and **fully expanding everything loses
//! nothing** — the union of residents is exactly the vertex set of the
//! k-core and the union of owned edges is exactly its induced edge
//! multiset, each edge appearing once. This module checks that claim
//! directly against the graph, never through the hierarchy's own
//! aggregate columns, at *every* level of the tree.

use std::collections::BTreeSet;

use cx_cltree::{ClTree, Hierarchy, NodeId};
use cx_graph::{AttributedGraph, VertexId};

/// Verifies, for every level `k` from 0 to `max_level`, that recursively
/// expanding the level-`k` supernodes reconstructs the exact vertex set
/// and edge multiset of the k-core, and that per-node aggregates agree
/// with the explicit expansions. Returns human-readable violations;
/// empty means the hierarchy is exact.
pub fn hierarchy_reconstruction(
    g: &AttributedGraph,
    tree: &ClTree,
    h: &Hierarchy,
) -> Vec<String> {
    let mut problems = Vec::new();
    if h.node_count() != tree.node_count() {
        // A hierarchy for a different tree shape: nothing below can be
        // trusted (node ids would not even index), so stop here.
        return vec![format!(
            "[hierarchy] {} supernodes for a tree of {} nodes",
            h.node_count(),
            tree.node_count()
        )];
    }

    for k in 0..=h.max_level() {
        // Ground truth, straight from the graph: the k-core's vertices
        // and induced edges (core numbers come from the tree, which the
        // core-number differential validates independently).
        let want_vertices: BTreeSet<VertexId> =
            g.vertices().filter(|&v| tree.core(v) >= k).collect();
        let mut want_edges: Vec<(VertexId, VertexId)> = Vec::new();
        for &v in &want_vertices {
            for &u in g.neighbors(v) {
                if v < u && tree.core(u) >= k {
                    want_edges.push((v, u));
                }
            }
        }
        want_edges.sort_unstable();

        // Full recursive expansion of every level-k root.
        let roots = h.level_nodes(k);
        let mut got_vertices: Vec<VertexId> = Vec::new();
        let mut got_edges: Vec<(VertexId, VertexId)> = Vec::new();
        let mut stack: Vec<NodeId> = roots.clone();
        while let Some(nid) = stack.pop() {
            let ex = h.expand(g, tree, nid, usize::MAX);
            if ex.truncated {
                problems.push(format!(
                    "[hierarchy] level {k}: unbounded expansion of {nid:?} reports truncation"
                ));
            }
            let owned = h.owned_edge_list(g, tree, nid);
            let stats = h.stats(nid);

            // Aggregate columns vs. the explicit lists.
            if ex.residents.len() != stats.residents as usize {
                problems.push(format!(
                    "[hierarchy] level {k}: {nid:?} lists {} residents, stats say {}",
                    ex.residents.len(),
                    stats.residents
                ));
            }
            if owned.len() as u64 != stats.owned_edges {
                problems.push(format!(
                    "[hierarchy] level {k}: {nid:?} owns {} edges, stats say {}",
                    owned.len(),
                    stats.owned_edges
                ));
            }
            // The expansion splits owned edges into resident–resident
            // edges and weighted resident→child links; together they must
            // account for every owned edge exactly once.
            let linked: u64 = ex.child_links.iter().map(|&(_, _, w)| w as u64).sum();
            if ex.internal_edges.len() as u64 + linked != stats.owned_edges {
                problems.push(format!(
                    "[hierarchy] level {k}: {nid:?} expansion covers {} + {} edges, owns {}",
                    ex.internal_edges.len(),
                    linked,
                    stats.owned_edges
                ));
            }
            let subtree: u64 = ex.residents.len() as u64
                + ex.children
                    .iter()
                    .map(|&c| h.stats(c).subtree_vertices as u64)
                    .sum::<u64>();
            if subtree != stats.subtree_vertices as u64 {
                problems.push(format!(
                    "[hierarchy] level {k}: {nid:?} residents+children cover {subtree} \
                     vertices, stats say {}",
                    stats.subtree_vertices
                ));
            }

            got_vertices.extend_from_slice(&ex.residents);
            got_edges.extend_from_slice(&owned);
            stack.extend_from_slice(&ex.children);
        }

        got_vertices.sort_unstable();
        if got_vertices.windows(2).any(|w| w[0] == w[1]) {
            problems.push(format!(
                "[hierarchy] level {k}: a vertex is resident in two supernodes"
            ));
            got_vertices.dedup();
        }
        if got_vertices.iter().copied().collect::<BTreeSet<_>>() != want_vertices {
            problems.push(format!(
                "[hierarchy] level {k}: expansion yields {} vertices, k-core has {}",
                got_vertices.len(),
                want_vertices.len()
            ));
        }
        got_edges.sort_unstable();
        if got_edges != want_edges {
            problems.push(format!(
                "[hierarchy] level {k}: expansion yields {} edges, k-core induces {} \
                 (or the multisets differ)",
                got_edges.len(),
                want_edges.len()
            ));
        }
    }

    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_datagen::{dblp_like, figure5_graph};

    #[test]
    fn figure5_reconstructs_exactly() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        let h = Hierarchy::build(&g, &tree);
        assert_eq!(hierarchy_reconstruction(&g, &tree, &h), Vec::<String>::new());
    }

    #[test]
    fn generated_graphs_reconstruct_exactly() {
        for seed in [3, 11] {
            let (g, _) = dblp_like(&crate::workload::check_params(250, seed));
            let tree = ClTree::build(&g);
            let h = Hierarchy::build(&g, &tree);
            let problems = hierarchy_reconstruction(&g, &tree, &h);
            assert!(problems.is_empty(), "seed {seed}: {problems:?}");
        }
    }

    #[test]
    fn tampered_hierarchy_is_caught() {
        // The oracle must actually bite: a hierarchy built for a different
        // edge set fails reconstruction against the edited graph.
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        let h = Hierarchy::build(&g, &tree);
        let a = g.vertex_by_label("A").unwrap();
        let hv = g.vertex_by_label("H").unwrap();
        let delta = g.edge_delta(&[(a, hv)], &[]).unwrap();
        let g2 = g.apply_delta(&delta);
        let cores2 = cx_kcore::CoreDecomposition::compute(&g2);
        let tree2 = ClTree::build_with(&g2, &cores2);
        // Stale hierarchy + fresh tree/graph: edge accounting must break.
        assert!(!hierarchy_reconstruction(&g2, &tree2, &h).is_empty());
    }
}
