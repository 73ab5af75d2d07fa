//! Peeling restricted to a vertex subset.
//!
//! ACQ verifies a candidate keyword set `S'` by taking the vertices that
//! carry all of `S'`, computing the maximal k-core of the *induced*
//! subgraph, and keeping q's connected component. `Local` uses the same
//! primitive on its candidate set. Both need peeling that never touches
//! vertices outside the subset — cost O(Σ_{v∈subset} deg_G(v)), independent
//! of graph size.

use std::collections::VecDeque;

use cx_graph::{AttributedGraph, VertexId, VertexSet};

/// The maximal k-core of the subgraph of `g` induced by `members`
/// (duplicates tolerated), as a sorted vertex list. Empty when no vertex
/// survives.
pub fn k_core_of_subset(g: &AttributedGraph, members: &[VertexId], k: u32) -> Vec<VertexId> {
    let mut alive = VertexSet::with_capacity(g.vertex_count());
    for &v in members {
        alive.insert(v);
    }
    peel_to_k_core(g, &mut alive, k);
    alive.to_sorted_vec()
}

/// In-place variant: removes vertices from `alive` until every remaining
/// vertex has ≥ k neighbours inside `alive`.
pub fn peel_to_k_core(g: &AttributedGraph, alive: &mut VertexSet, k: u32) {
    let k = k as usize;
    // Degree of each member within the subset.
    let members: Vec<VertexId> = alive.iter().collect();
    let mut deg = vec![0usize; g.vertex_count()];
    for &v in &members {
        deg[v.index()] = g.neighbors(v).iter().filter(|&&u| alive.contains(u)).count();
    }
    let mut queue: VecDeque<VertexId> =
        members.iter().copied().filter(|&v| deg[v.index()] < k).collect();
    while let Some(v) = queue.pop_front() {
        if !alive.remove(v) {
            continue; // already peeled via another path
        }
        for &u in g.neighbors(v) {
            if alive.contains(u) {
                deg[u.index()] -= 1;
                if deg[u.index()] + 1 == k {
                    queue.push_back(u);
                }
            }
        }
    }
}

/// The connected k-core containing `q` within the subgraph of `g` induced
/// by `members`: peel to the maximal k-core, then keep q's component.
/// Returns `None` when q itself is peeled away (or not in `members`).
pub fn connected_k_core_containing(
    g: &AttributedGraph,
    members: &[VertexId],
    q: VertexId,
    k: u32,
) -> Option<Vec<VertexId>> {
    let mut alive = VertexSet::with_capacity(g.vertex_count());
    for &v in members {
        alive.insert(v);
    }
    if !alive.contains(q) {
        return None;
    }
    peel_to_k_core(g, &mut alive, k);
    if !alive.contains(q) {
        return None;
    }
    let mut out = cx_graph::traversal::bfs_filtered(g, q, |v| alive.contains(v));
    out.sort_unstable();
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_graph::GraphBuilder;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// K4 on 0-3, pendant 4 attached to 0, plus disjoint triangle 5-7.
    fn fixture() -> AttributedGraph {
        let mut b = GraphBuilder::new();
        for i in 0..8 {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        for (a, c) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (5, 6), (6, 7), (5, 7)] {
            b.add_edge(v(a), v(c));
        }
        b.build()
    }

    #[test]
    fn subset_core_peels_pendant() {
        let g = fixture();
        let all: Vec<VertexId> = g.vertices().collect();
        assert_eq!(k_core_of_subset(&g, &all, 3), vec![v(0), v(1), v(2), v(3)]);
        assert_eq!(k_core_of_subset(&g, &all, 2).len(), 7); // K4 + triangle
        assert_eq!(k_core_of_subset(&g, &all, 4), Vec::<VertexId>::new());
    }

    #[test]
    fn subset_core_ignores_outside_edges() {
        let g = fixture();
        // Take only 3 of the K4's vertices: induced triangle → max core 2.
        let sub = [v(0), v(1), v(2)];
        assert_eq!(k_core_of_subset(&g, &sub, 2), vec![v(0), v(1), v(2)]);
        assert!(k_core_of_subset(&g, &sub, 3).is_empty());
    }

    #[test]
    fn cascade_peeling_removes_chains() {
        // Path 0-1-2-3: 2-core is empty; peeling must cascade fully.
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_vertex(&format!("p{i}"), &[]);
        }
        for i in 0..3u32 {
            b.add_edge(v(i), v(i + 1));
        }
        let g = b.build();
        let all: Vec<VertexId> = g.vertices().collect();
        assert!(k_core_of_subset(&g, &all, 2).is_empty());
        assert_eq!(k_core_of_subset(&g, &all, 1).len(), 4);
    }

    #[test]
    fn connected_core_keeps_only_query_component() {
        let g = fixture();
        let all: Vec<VertexId> = g.vertices().collect();
        // 2-core has two components (K4 and the triangle); q picks one.
        let c = connected_k_core_containing(&g, &all, v(6), 2).unwrap();
        assert_eq!(c, vec![v(5), v(6), v(7)]);
        let c = connected_k_core_containing(&g, &all, v(1), 2).unwrap();
        assert_eq!(c, vec![v(0), v(1), v(2), v(3)]);
    }

    #[test]
    fn query_vertex_peeled_returns_none() {
        let g = fixture();
        let all: Vec<VertexId> = g.vertices().collect();
        assert!(connected_k_core_containing(&g, &all, v(4), 2).is_none());
        assert!(connected_k_core_containing(&g, &all, v(0), 5).is_none());
        // q not even in the subset.
        assert!(connected_k_core_containing(&g, &[v(1), v(2)], v(0), 0).is_none());
    }

    #[test]
    fn k_zero_keeps_isolated_members() {
        let g = fixture();
        let got = k_core_of_subset(&g, &[v(4), v(6)], 0);
        assert_eq!(got, vec![v(4), v(6)]);
        // With k=0, q alone is its own component.
        assert_eq!(connected_k_core_containing(&g, &[v(4)], v(4), 0).unwrap(), vec![v(4)]);
    }
}
