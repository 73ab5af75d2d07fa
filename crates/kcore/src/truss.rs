//! Triangle counting, truss decomposition and k-truss community search.
//!
//! The k-truss is the cohesiveness measure of Huang et al. (SIGMOD'14),
//! cited by the C-Explorer paper as an alternative to minimum degree: a
//! k-truss is a subgraph in which every edge closes at least k−2
//! triangles. A *k-truss community* of a query vertex q is a maximal set
//! of truss-≥k edges reachable from q through shared triangles
//! ("triangle connectivity"), which gives communities with strong local
//! overlap and no free-rider vertices.

use std::collections::HashMap;

use cx_graph::{AttributedGraph, Community, VertexId};

/// Truss numbers for every edge of a graph.
#[derive(Debug, Clone)]
pub struct TrussDecomposition {
    /// Edge list, each as `(u, v)` with `u < v`, in graph edge order.
    edges: Vec<(VertexId, VertexId)>,
    /// `truss[e]` for edge id `e` (≥ 2 for every edge).
    truss: Vec<u32>,
    /// Lookup from the ordered vertex pair to the edge id.
    index: HashMap<(u32, u32), u32>,
    max_truss: u32,
}

impl TrussDecomposition {
    /// Runs the decomposition on `g`. O(m^1.5) triangle enumeration plus
    /// bucket peeling over edges.
    pub fn compute(g: &AttributedGraph) -> Self {
        let _span = cx_obs::span("ktruss.peel");
        let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
        let m = edges.len();
        let mut index = HashMap::with_capacity(m);
        for (i, &(u, v)) in edges.iter().enumerate() {
            index.insert((u.0, v.0), i as u32);
        }
        // Support initialization: one sorted-merge intersection per edge.
        let support: Vec<u32> =
            edges.iter().map(|&(u, v)| common_neighbor_count(g, u, v)).collect();

        // Bucket peeling on edges by support.
        let max_sup = support.iter().copied().max().unwrap_or(0) as usize;
        let mut bin = vec![0usize; max_sup + 2];
        for &s in &support {
            bin[s as usize] += 1;
        }
        let mut start = 0usize;
        for b in bin.iter_mut() {
            let c = *b;
            *b = start;
            start += c;
        }
        let mut sorted = vec![0u32; m];
        let mut pos = vec![0usize; m];
        {
            let mut cursor = bin.clone();
            for e in 0..m {
                pos[e] = cursor[support[e] as usize];
                sorted[pos[e]] = e as u32;
                cursor[support[e] as usize] += 1;
            }
        }

        let mut truss = vec![2u32; m];
        let mut removed = vec![false; m];
        let mut cur_support = support.clone();
        let lookup = |index: &HashMap<(u32, u32), u32>, a: VertexId, b: VertexId| -> Option<u32> {
            let key = if a < b { (a.0, b.0) } else { (b.0, a.0) };
            index.get(&key).copied()
        };
        for i in 0..m {
            let e = sorted[i] as usize;
            let s = cur_support[e];
            truss[e] = s + 2;
            removed[e] = true;
            let (u, v) = edges[e];
            // Decrement the support of both other edges of each surviving
            // triangle through (u, v).
            let (a, b) = if g.degree(u) <= g.degree(v) { (u, v) } else { (v, u) };
            for &w in g.neighbors(a) {
                if w == b {
                    continue;
                }
                let (Some(e1), Some(e2)) = (lookup(&index, a, w), lookup(&index, b, w)) else {
                    continue;
                };
                let (e1, e2) = (e1 as usize, e2 as usize);
                if removed[e1] || removed[e2] {
                    continue;
                }
                for other in [e1, e2] {
                    if cur_support[other] > s {
                        // Move `other` down one support bucket (mirrors the
                        // Batagelj–Zaversnik vertex version, on edges).
                        let so = cur_support[other] as usize;
                        let po = pos[other];
                        let pw = bin[so].max(i + 1);
                        let w_e = sorted[pw] as usize;
                        if other != w_e {
                            sorted.swap(po, pw);
                            pos[other] = pw;
                            pos[w_e] = po;
                        }
                        bin[so] = pw + 1;
                        cur_support[other] -= 1;
                    }
                }
            }
        }
        let max_truss = truss.iter().copied().max().unwrap_or(2);
        Self { edges, truss, index, max_truss }
    }

    /// Truss number of the edge `{u, v}`, or `None` when absent.
    pub fn truss_of(&self, u: VertexId, v: VertexId) -> Option<u32> {
        let key = if u < v { (u.0, v.0) } else { (v.0, u.0) };
        self.index.get(&key).map(|&e| self.truss[e as usize])
    }

    /// Largest k with a non-empty k-truss (2 when the graph has edges but
    /// no triangles; 0 for an edgeless graph).
    pub fn max_truss(&self) -> u32 {
        if self.edges.is_empty() {
            0
        } else {
            self.max_truss
        }
    }

    /// Number of edges with truss number ≥ k.
    pub fn edges_at_least(&self, k: u32) -> usize {
        self.truss.iter().filter(|&&t| t >= k).count()
    }

    fn edge_id(&self, u: VertexId, v: VertexId) -> Option<u32> {
        let key = if u < v { (u.0, v.0) } else { (v.0, u.0) };
        self.index.get(&key).copied()
    }
}

/// Number of common neighbours of `u` and `v` (sorted-merge).
pub fn common_neighbor_count(g: &AttributedGraph, u: VertexId, v: VertexId) -> u32 {
    let (a, b) = (g.neighbors(u), g.neighbors(v));
    let (mut i, mut j, mut n) = (0, 0, 0u32);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Total number of triangles in `g`: every triangle is counted once per
/// edge, as a common neighbour of its endpoints.
pub fn triangle_count(g: &AttributedGraph) -> usize {
    g.edges().map(|(u, v)| common_neighbor_count(g, u, v) as usize).sum::<usize>() / 3
}

/// The k-truss communities of `q`: one [`Community`] per triangle-connected
/// component of truss-≥k edges that touches q. Sorted by size descending.
pub fn truss_communities(
    g: &AttributedGraph,
    td: &TrussDecomposition,
    q: VertexId,
    k: u32,
) -> Vec<Community> {
    if !g.contains(q) {
        return Vec::new();
    }
    let mut visited = vec![false; td.edges.len()];
    let mut out = Vec::new();
    for &v in g.neighbors(q) {
        let Some(seed) = td.edge_id(q, v) else { continue };
        let seed = seed as usize;
        if visited[seed] || td.truss[seed] < k {
            continue;
        }
        // BFS over triangle connectivity among truss-≥k edges.
        let mut stack = vec![seed];
        visited[seed] = true;
        let mut members = std::collections::BTreeSet::new();
        while let Some(e) = stack.pop() {
            let (a, b) = td.edges[e];
            members.insert(a);
            members.insert(b);
            let (x, y) = if g.degree(a) <= g.degree(b) { (a, b) } else { (b, a) };
            for &w in g.neighbors(x) {
                if w == y {
                    continue;
                }
                let (Some(e1), Some(e2)) = (td.edge_id(x, w), td.edge_id(y, w)) else {
                    continue;
                };
                let (e1, e2) = (e1 as usize, e2 as usize);
                if td.truss[e1] < k || td.truss[e2] < k {
                    continue;
                }
                for other in [e1, e2] {
                    if !visited[other] {
                        visited[other] = true;
                        stack.push(other);
                    }
                }
            }
        }
        out.push(Community::structural(members.into_iter().collect()));
    }
    out.sort_by_key(|c| std::cmp::Reverse(c.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_graph::GraphBuilder;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn k4() -> AttributedGraph {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                b.add_edge(v(i), v(j));
            }
        }
        b.build()
    }

    #[test]
    fn k4_every_edge_truss_4() {
        let g = k4();
        let td = TrussDecomposition::compute(&g);
        for (u, w) in g.edges() {
            assert_eq!(td.truss_of(u, w), Some(4));
        }
        assert_eq!(td.max_truss(), 4);
        assert_eq!(td.edges_at_least(4), 6);
        assert_eq!(triangle_count(&g), 4);
    }

    #[test]
    fn triangle_free_graph_truss_2() {
        // 4-cycle: no triangles, every edge truss 2.
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        for i in 0..4u32 {
            b.add_edge(v(i), v((i + 1) % 4));
        }
        let g = b.build();
        let td = TrussDecomposition::compute(&g);
        assert_eq!(td.max_truss(), 2);
        assert_eq!(triangle_count(&g), 0);
        assert_eq!(td.truss_of(v(0), v(1)), Some(2));
        assert_eq!(td.truss_of(v(0), v(2)), None);
    }

    #[test]
    fn pendant_triangle_on_k4() {
        // K4 plus triangle (3,4,5): K4 edges truss 4, triangle edges truss 3.
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                b.add_edge(v(i), v(j));
            }
        }
        b.add_edge(v(3), v(4));
        b.add_edge(v(4), v(5));
        b.add_edge(v(3), v(5));
        let g = b.build();
        let td = TrussDecomposition::compute(&g);
        assert_eq!(td.truss_of(v(0), v(1)), Some(4));
        assert_eq!(td.truss_of(v(4), v(5)), Some(3));
        assert_eq!(td.truss_of(v(3), v(4)), Some(3));
    }

    #[test]
    fn truss_community_separates_triangle_connected_parts() {
        // Two K4s sharing a single vertex 3 (bowtie of cliques): 4-truss
        // communities of vertex 3 are the two K4s separately (edges of one
        // K4 cannot reach the other through shared triangles).
        let mut b = GraphBuilder::new();
        for i in 0..7 {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        for quad in [[0u32, 1, 2, 3], [3, 4, 5, 6]] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_edge(v(quad[i]), v(quad[j]));
                }
            }
        }
        let g = b.build();
        let td = TrussDecomposition::compute(&g);
        let comms = truss_communities(&g, &td, v(3), 4);
        assert_eq!(comms.len(), 2);
        assert_eq!(comms[0].len(), 4);
        assert_eq!(comms[1].len(), 4);
        assert!(comms.iter().all(|c| c.contains(v(3))));
        // A non-cut vertex sees only its own clique.
        let comms0 = truss_communities(&g, &td, v(0), 4);
        assert_eq!(comms0.len(), 1);
        assert_eq!(comms0[0].vertices(), &[v(0), v(1), v(2), v(3)]);
    }

    #[test]
    fn no_community_when_k_exceeds_truss() {
        let g = k4();
        let td = TrussDecomposition::compute(&g);
        assert!(truss_communities(&g, &td, v(0), 5).is_empty());
        assert!(truss_communities(&g, &td, v(99), 3).is_empty());
    }

    #[test]
    fn a_vertex_without_triangles_has_no_truss_community() {
        // The fixture's loner has one edge and no triangle: that edge is
        // a 2-truss edge, so k = 3 finds nothing.
        let g = cx_datagen::small_collab_graph();
        let loner = g.vertex_by_label("loner").unwrap();
        let td = TrussDecomposition::compute(&g);
        assert_eq!(g.degree(loner), 1);
        assert!(truss_communities(&g, &td, loner, 3).is_empty());
        assert_eq!(truss_communities(&g, &td, loner, 2).len(), 1);
    }

    #[test]
    fn empty_graph_decomposition() {
        let g = GraphBuilder::new().build();
        let td = TrussDecomposition::compute(&g);
        assert_eq!(td.max_truss(), 0);
        assert_eq!(td.edges_at_least(2), 0);
    }
}
