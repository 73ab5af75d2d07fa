//! k-edge-connected community search.
//!
//! The paper's reference \[6\] (Hu et al., CIKM'16) searches communities
//! under *edge connectivity* — a strictly stronger cohesiveness notion
//! than minimum degree: a k-edge-connected subgraph survives the failure
//! of any k−1 relationships, whereas a k-core can fall apart at a single
//! cut vertex. This module implements the classic cut-based construction:
//!
//! 1. start from the connected k-core containing q, which the caller
//!    supplies (every k-edge-connected subgraph has minimum degree ≥ k, so
//!    nothing is lost and the working graph shrinks massively). The engine
//!    reads it off the CL-tree as one preorder interval; the tests peel;
//! 2. recursively split by global minimum cuts (Stoer–Wagner) until every
//!    part's min cut is ≥ k — the parts are the k-edge-connected
//!    components;
//! 3. return the part containing q.

use std::collections::BinaryHeap;

use cx_graph::{AttributedGraph, Community, Subgraph, VertexId};

/// The k-edge-connected community of `q`: the maximal subgraph containing
/// q in which every pair of vertices is joined by k edge-disjoint paths.
/// `core` is the connected k-core containing q (sorted); the search never
/// leaves it. `None` when q is not in `core` or ends up in a singleton
/// part (no such community).
pub fn kecc_community(
    g: &AttributedGraph,
    core: &[VertexId],
    q: VertexId,
    k: u32,
) -> Option<Community> {
    if k == 0 {
        return None;
    }
    let sub = Subgraph::induced(g, core);
    let lq = sub.local(q)?;
    let n = sub.vertex_count();
    let adj: Vec<Vec<(u32, u64)>> = (0..n as u32)
        .map(|u| sub.neighbors(u).iter().map(|&v| (v, 1u64)).collect())
        .collect();
    let members_local = kecc_part_containing(&adj, (0..n as u32).collect(), lq, k as u64)?;
    Some(Community::structural(sub.to_global(&members_local)))
}

/// Recursively splits `part` (local ids) by global min cuts until the part
/// containing `target` has min cut ≥ k; returns that part (`None` for a
/// singleton). A k-edge-connected subgraph never straddles a cut lighter
/// than k, so target's side of each cut, and target's component within
/// it, keeps all of it.
fn kecc_part_containing(
    adj: &[Vec<(u32, u64)>],
    mut part: Vec<u32>,
    target: u32,
    k: u64,
) -> Option<Vec<u32>> {
    let mut keep = vec![false; adj.len()];
    while part.len() > 1 {
        let (cut, side) = stoer_wagner(adj, &part);
        if cut >= k {
            return Some(part);
        }
        let target_side = side.binary_search(&target).is_ok();
        for &v in &part {
            keep[v as usize] = side.binary_search(&v).is_ok() == target_side;
        }
        let mut next = vec![target];
        keep[target as usize] = false;
        let mut i = 0;
        while let Some(&u) = next.get(i) {
            i += 1;
            for &(v, _) in &adj[u as usize] {
                if keep[v as usize] {
                    keep[v as usize] = false;
                    next.push(v);
                }
            }
        }
        for &v in &part {
            keep[v as usize] = false;
        }
        next.sort_unstable();
        part = next;
    }
    None
}

/// The super-vertex `v` was contracted into (path halving).
fn find(rep: &mut [u32], mut v: u32) -> u32 {
    while rep[v as usize] != v {
        let up = rep[rep[v as usize] as usize];
        rep[v as usize] = up;
        v = up;
    }
    v
}

/// Stoer–Wagner global minimum cut over the subgraph induced by `part`
/// (weighted, undirected). Returns `(cut weight, one side of the cut)`.
/// `part` must have ≥ 2 vertices; a disconnected input returns a 0-cut
/// with one component as the side.
///
/// Each maximum-adjacency phase runs with a lazy binary heap over flat
/// per-vertex arrays, giving O(n (n + m) log n) overall. Contracting t
/// into s moves t's edge list onto s and points t at s, so no list is
/// copied; an edge is read through `find` to its current super-vertex.
pub fn stoer_wagner(adj: &[Vec<(u32, u64)>], part: &[u32]) -> (u64, Vec<u32>) {
    let n = adj.len();
    let mut in_part = vec![false; n];
    for &v in part {
        in_part[v as usize] = true;
    }
    let mut edges: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
    let mut merged: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &v in part {
        edges[v as usize] =
            adj[v as usize].iter().copied().filter(|&(u, _)| in_part[u as usize]).collect();
        merged[v as usize] = vec![v];
    }
    let mut rep: Vec<u32> = (0..n as u32).collect();
    let (mut key, mut in_a) = (vec![0u64; n], vec![false; n]);
    let mut active: Vec<u32> = part.to_vec();
    let mut heap: BinaryHeap<(u64, u32)> = BinaryHeap::new();
    let mut order: Vec<u32> = Vec::with_capacity(part.len());
    let (mut best_cut, mut best_side) = (u64::MAX, Vec::new());

    while active.len() > 1 {
        for &v in &active {
            key[v as usize] = 0;
            in_a[v as usize] = false;
        }
        order.clear();
        heap.push((0, active[0]));
        while order.len() < active.len() {
            let v = match heap.pop() {
                Some((kv, v)) if in_a[v as usize] || key[v as usize] != kv => continue, // stale
                Some((_, v)) => v,
                // Disconnected: continue from any vertex outside A.
                None => {
                    *active.iter().find(|&&v| !in_a[v as usize]).expect("a vertex outside A")
                }
            };
            in_a[v as usize] = true;
            order.push(v);
            for &(u, weight) in &edges[v as usize] {
                let u = find(&mut rep, u) as usize;
                if !in_a[u] {
                    key[u] += weight;
                    heap.push((key[u], u as u32));
                }
            }
        }
        heap.clear();
        let [s, t] = [order[order.len() - 2], order[order.len() - 1]].map(|v| v as usize);
        if key[t] < best_cut {
            best_cut = key[t];
            best_side = merged[t].clone();
        }
        // Contract t into s.
        rep[t] = s as u32;
        let moved = std::mem::take(&mut edges[t]);
        edges[s].extend(moved);
        edges[s].retain(|&(u, _)| find(&mut rep, u) as usize != s);
        let moved = std::mem::take(&mut merged[t]);
        merged[s].extend(moved);
        active.retain(|&v| v as usize != t);
    }
    best_side.sort_unstable();
    (if best_cut == u64::MAX { 0 } else { best_cut }, best_side)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_graph::GraphBuilder;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn graph(n: u32, edges: &[(u32, u32)]) -> AttributedGraph {
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        for &(a, c) in edges {
            b.add_edge(v(a), v(c));
        }
        b.build()
    }

    /// The whole-graph reference: peel q's connected k-core, then search it.
    fn kecc_community(g: &AttributedGraph, q: VertexId, k: u32) -> Option<Community> {
        let core = crate::Global.fixed_k(g, q, k)?;
        super::kecc_community(g, core.vertices(), q, k)
    }

    fn local_adj(g: &AttributedGraph) -> Vec<Vec<(u32, u64)>> {
        g.vertices()
            .map(|u| g.neighbors(u).iter().map(|x| (x.0, 1u64)).collect())
            .collect()
    }

    #[test]
    fn stoer_wagner_finds_the_bridge() {
        // Two triangles joined by one edge: global min cut = 1.
        let g = graph(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        let part: Vec<u32> = (0..6).collect();
        let (cut, side) = stoer_wagner(&local_adj(&g), &part);
        assert_eq!(cut, 1);
        assert!(side.len() == 3, "side {side:?}");
    }

    #[test]
    fn stoer_wagner_on_k4_is_three() {
        let g = graph(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let part: Vec<u32> = (0..4).collect();
        let (cut, _) = stoer_wagner(&local_adj(&g), &part);
        assert_eq!(cut, 3);
    }

    #[test]
    fn stoer_wagner_on_cycle_is_two() {
        let g = graph(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let part: Vec<u32> = (0..5).collect();
        let (cut, _) = stoer_wagner(&local_adj(&g), &part);
        assert_eq!(cut, 2);
    }

    #[test]
    fn kecc_splits_triangles_k2() {
        // Two triangles joined by one edge: the bridge breaks 2-edge
        // connectivity, so the 2-ECC of vertex 0 is its own triangle.
        let g = graph(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        let c = kecc_community(&g, v(0), 2).unwrap();
        assert_eq!(c.vertices(), &[v(0), v(1), v(2)]);
        let c5 = kecc_community(&g, v(5), 2).unwrap();
        assert_eq!(c5.vertices(), &[v(3), v(4), v(5)]);
    }

    #[test]
    fn kecc_on_k4() {
        let g = graph(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let c = kecc_community(&g, v(0), 3).unwrap();
        assert_eq!(c.len(), 4);
        assert!(kecc_community(&g, v(0), 4).is_none());
    }

    #[test]
    fn shared_vertex_bowtie_is_still_3_edge_connected() {
        // Two K4s sharing a single vertex: vertex connectivity is 1 (cut
        // vertex) but *edge* connectivity is 3 (the three edges from one
        // clique into the shared vertex), so at k=3 the whole bowtie is
        // one k-ECC — a good reminder that the two notions differ.
        let mut edges = Vec::new();
        for quad in [[0u32, 1, 2, 3], [3, 4, 5, 6]] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((quad[i], quad[j]));
                }
            }
        }
        let g = graph(7, &edges);
        let c = kecc_community(&g, v(0), 3).unwrap();
        assert_eq!(c.len(), 7);
    }

    #[test]
    fn kecc_vs_kcore_distinguishes_bridged_cliques() {
        // Two K4s joined by a single bridge edge: every vertex has degree
        // ≥ 3, so the connected 3-core spans all 8 — but the bridge caps
        // edge connectivity at 1, so the 3-ECC of vertex 0 is its own K4.
        let mut edges = Vec::new();
        for quad in [[0u32, 1, 2, 3], [4, 5, 6, 7]] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((quad[i], quad[j]));
                }
            }
        }
        edges.push((3, 4)); // the bridge
        let g = graph(8, &edges);
        let c = kecc_community(&g, v(0), 3).unwrap();
        assert_eq!(c.vertices(), &[v(0), v(1), v(2), v(3)]);
        // Global's 3-core answer is all 8 — strictly weaker cohesion.
        let core = crate::Global.fixed_k(&g, v(0), 3).unwrap();
        assert_eq!(core.len(), 8);
    }

    #[test]
    fn kecc_invalid_inputs() {
        let g = graph(3, &[(0, 1), (1, 2), (0, 2)]);
        assert!(kecc_community(&g, VertexId(9), 2).is_none());
        assert!(kecc_community(&g, v(0), 0).is_none());
        assert!(kecc_community(&g, v(0), 5).is_none());
    }

    /// Brute-force check on small graphs: the returned community stays
    /// connected after removing any k-1 of its internal edges.
    #[test]
    fn kecc_survives_any_k_minus_1_edge_failures() {
        let g = graph(
            8,
            &[
                (0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3), // K4-ish
                (3, 4), (4, 5), (5, 6), (6, 4), (6, 7), (7, 5), // looser tail
            ],
        );
        for k in 2..=3u32 {
            let Some(c) = kecc_community(&g, v(0), k) else { continue };
            let members: Vec<VertexId> = c.vertices().to_vec();
            let internal: Vec<(VertexId, VertexId)> = g
                .edges()
                .filter(|&(a, b)| c.contains(a) && c.contains(b))
                .collect();
            // Remove every (k-1)-subset of internal edges; must stay connected.
            let removals: Vec<Vec<usize>> = if k == 2 {
                (0..internal.len()).map(|i| vec![i]).collect()
            } else {
                let mut out = Vec::new();
                for i in 0..internal.len() {
                    for j in (i + 1)..internal.len() {
                        out.push(vec![i, j]);
                    }
                }
                out
            };
            for removal in removals {
                let mut b = GraphBuilder::new();
                for i in 0..g.vertex_count() {
                    b.add_vertex(&format!("w{i}"), &[]);
                }
                for (idx, &(a, c2)) in internal.iter().enumerate() {
                    if !removal.contains(&idx) {
                        b.add_edge(a, c2);
                    }
                }
                let h = b.build();
                let reach = cx_graph::traversal::bfs_filtered(&h, members[0], |x| {
                    c.contains(x)
                });
                assert_eq!(
                    reach.len(),
                    members.len(),
                    "k={k}: community disconnected after removing {removal:?}"
                );
            }
        }
    }
}
