//! Whole-graph core decomposition (Batagelj–Zaversnik, 2003): one
//! sequential O(n + m) bucket peel. Each removal changes the degrees the
//! next step sees, and on a 2-CPU host neither a parallel degree scan nor
//! a per-component fan-out beat the plain loop (DESIGN §7), so nothing
//! here reads `CX_THREADS`.

use cx_graph::{AttributedGraph, VertexId};

/// Core numbers for every vertex of a graph, plus derived queries.
///
/// The *core number* `core(v)` is the largest k such that v belongs to the
/// k-core `H_k`. Computed by bucket peeling in O(n + m).
#[derive(Debug, Clone)]
pub struct CoreDecomposition {
    core: Vec<u32>,
    max_core: u32,
}

impl CoreDecomposition {
    /// Runs the decomposition on `g`.
    pub fn compute(g: &AttributedGraph) -> Self {
        let _span = cx_obs::span("kcore.peel");
        let core = peel(g);
        let max_core = core.iter().copied().max().unwrap_or(0);
        Self { core, max_core }
    }

    /// The same as [`CoreDecomposition::compute`]. The name survives only
    /// because the benchmark's `kcore.decompose_ms` probe calls it; the
    /// next change to the benchmark moves that probe to `compute` and
    /// removes this alias.
    pub fn compute_par(g: &AttributedGraph) -> Self {
        Self::compute(g)
    }

    /// The core number of `v`.
    #[inline]
    pub fn core(&self, v: VertexId) -> u32 {
        self.core[v.index()]
    }

    /// Core numbers indexed by vertex id.
    #[inline]
    pub fn core_numbers(&self) -> &[u32] {
        &self.core
    }

    /// The degeneracy of the graph: the largest k with a non-empty k-core.
    #[inline]
    pub fn max_core(&self) -> u32 {
        self.max_core
    }

    /// All vertices of the k-core `H_k` (those with core number ≥ k),
    /// sorted by id. `H_0` is every vertex.
    pub fn k_core_vertices(&self, k: u32) -> Vec<VertexId> {
        (0..self.core.len())
            .filter(|&v| self.core[v] >= k)
            .map(|v| VertexId(v as u32))
            .collect()
    }

    /// The connected component of `q` inside `H_k`, or `None` when
    /// `core(q) < k`. This is exactly the k-ĉore containing q from
    /// Sozio–Gionis, and the subtree root lookup the CL-tree accelerates.
    pub fn connected_k_core(&self, g: &AttributedGraph, q: VertexId, k: u32) -> Option<Vec<VertexId>> {
        if q.index() >= self.core.len() || self.core[q.index()] < k {
            return None;
        }
        let mut out =
            cx_graph::traversal::bfs_filtered(g, q, |v| self.core[v.index()] >= k);
        out.sort_unstable();
        Some(out)
    }

    /// Histogram of core numbers: `hist[k]` = number of vertices with
    /// core number exactly k.
    pub fn histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.max_core as usize + 1];
        if self.core.is_empty() {
            return h;
        }
        for &c in &self.core {
            h[c as usize] += 1;
        }
        h
    }
}

/// The Batagelj–Zaversnik bucket peel: the core number of every vertex.
fn peel(g: &AttributedGraph) -> Vec<u32> {
    let mut deg: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
    let n = deg.len();
    let max_deg = deg.iter().copied().max().unwrap_or(0);
    // bin[d] = start of degree bucket d in `vert`, which lists the
    // vertices sorted by current degree; pos[v] = index of v in `vert`.
    let mut bin = vec![0usize; max_deg + 1];
    for &d in &deg {
        bin[d] += 1;
    }
    let mut start = 0usize;
    for b in bin.iter_mut() {
        let count = *b;
        *b = start;
        start += count;
    }
    let mut vert = vec![0u32; n];
    let mut pos = vec![0usize; n];
    {
        let mut cursor = bin.clone();
        for v in 0..n {
            pos[v] = cursor[deg[v]];
            vert[pos[v]] = v as u32;
            cursor[deg[v]] += 1;
        }
    }

    let mut core = vec![0u32; n];
    for i in 0..n {
        // Request-deadline checkpoint (see cx_par::task): a cancelled
        // run's partial core numbers never escape — the scope owner
        // discards the result — so bailing mid-peel is safe.
        if i & 0xFFF == 0 && i != 0 && cx_par::task::cancelled() {
            break;
        }
        let v = vert[i] as usize;
        core[v] = deg[v] as u32;
        for u in g.neighbors(VertexId(v as u32)).iter().map(|u| u.index()) {
            if deg[u] > deg[v] {
                // Move u to the front of its degree bucket, then shift
                // the bucket boundary: u's degree drops by one.
                let du = deg[u];
                let pu = pos[u];
                let pw = bin[du];
                let w = vert[pw] as usize;
                if u != w {
                    vert.swap(pu, pw);
                    pos[u] = pw;
                    pos[w] = pu;
                }
                bin[du] += 1;
                deg[u] -= 1;
            }
        }
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_graph::GraphBuilder;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// The paper's Figure 5(a) graph: vertices A..J (0..9), 11 edges.
    /// Core numbers: A,B,C,D → 3? No — Fig 5(b): level 3 holds {A,B,C,D},
    /// level 2 {E}, level 1 {F,G,H,I}, level 0 {J}.
    fn figure5_graph() -> AttributedGraph {
        let mut b = GraphBuilder::new();
        for name in ["A", "B", "C", "D", "E", "F", "G", "H", "I", "J"] {
            b.add_vertex(name, &[]);
        }
        // A,B,C,D form a 4-clique minus one edge? They must be a 3-core:
        // every vertex needs degree ≥ 3 inside, so it is the full K4.
        let edges = [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), // K4 on A,B,C,D
            (1, 4), (2, 4),                                 // E tied to B,C → 2-core
            (4, 5), (5, 6), (4, 6),                         // triangle E,F,G... see below
        ];
        for (a, c) in edges {
            b.add_edge(v(a), v(c));
        }
        b.build()
    }

    #[test]
    fn k4_with_appendages_core_numbers() {
        let g = figure5_graph();
        let cd = CoreDecomposition::compute(&g);
        for i in 0..4 {
            assert_eq!(cd.core(v(i)), 3, "K4 member {i}");
        }
        // E participates in K4-adjacent edges and the E,F,G triangle → 2.
        assert_eq!(cd.core(v(4)), 2);
        assert_eq!(cd.core(v(5)), 2);
        assert_eq!(cd.core(v(6)), 2);
        // H, I, J were never connected here → 0.
        assert_eq!(cd.core(v(9)), 0);
        assert_eq!(cd.max_core(), 3);
    }

    #[test]
    fn empty_and_singleton() {
        let g = GraphBuilder::new().build();
        let cd = CoreDecomposition::compute(&g);
        assert_eq!(cd.max_core(), 0);
        assert!(cd.k_core_vertices(0).is_empty());

        let mut b = GraphBuilder::new();
        b.add_vertex("x", &[]);
        let cd = CoreDecomposition::compute(&b.build());
        assert_eq!(cd.core(v(0)), 0);
        assert_eq!(cd.k_core_vertices(0), vec![v(0)]);
        assert!(cd.k_core_vertices(1).is_empty());
    }

    #[test]
    fn path_graph_is_1_core() {
        let mut b = GraphBuilder::new();
        for i in 0..5 {
            b.add_vertex(&format!("p{i}"), &[]);
        }
        for i in 0..4u32 {
            b.add_edge(v(i), v(i + 1));
        }
        let cd = CoreDecomposition::compute(&b.build());
        for i in 0..5 {
            assert_eq!(cd.core(v(i)), 1);
        }
        assert_eq!(cd.max_core(), 1);
        assert_eq!(cd.histogram(), vec![0, 5]);
    }

    #[test]
    fn cycle_is_2_core_pendant_is_1() {
        let mut b = GraphBuilder::new();
        for i in 0..5 {
            b.add_vertex(&format!("c{i}"), &[]);
        }
        for i in 0..4u32 {
            b.add_edge(v(i), v((i + 1) % 4));
        }
        b.add_edge(v(0), v(4)); // pendant
        let cd = CoreDecomposition::compute(&b.build());
        assert_eq!(cd.core(v(0)), 2);
        assert_eq!(cd.core(v(4)), 1);
        assert_eq!(cd.k_core_vertices(2), vec![v(0), v(1), v(2), v(3)]);
    }

    #[test]
    fn connected_k_core_respects_components() {
        // Two disjoint triangles.
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_vertex(&format!("t{i}"), &[]);
        }
        for (a, c) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(v(a), v(c));
        }
        let g = b.build();
        let cd = CoreDecomposition::compute(&g);
        let c0 = cd.connected_k_core(&g, v(0), 2).unwrap();
        assert_eq!(c0, vec![v(0), v(1), v(2)]);
        let c3 = cd.connected_k_core(&g, v(3), 2).unwrap();
        assert_eq!(c3, vec![v(3), v(4), v(5)]);
        assert!(cd.connected_k_core(&g, v(0), 3).is_none());
    }

    #[test]
    fn histogram_sums_to_vertex_count() {
        let g = figure5_graph();
        let cd = CoreDecomposition::compute(&g);
        assert_eq!(cd.histogram().iter().sum::<usize>(), g.vertex_count());
    }
}
