//! Whole-graph core decomposition (Batagelj–Zaversnik, 2003).
//!
//! The peel itself is inherently sequential (each removal changes the
//! degrees the next step sees), but the O(n) setup — degree scan and the
//! bucket histogram — runs on the cx-par pool, and [`CoreDecomposition::compute_par`]
//! peels independent connected components concurrently. Both variants
//! produce identical core numbers at any `CX_THREADS` value.

use cx_graph::traversal::ConnectedComponents;
use cx_graph::{AttributedGraph, VertexId};

/// Core numbers for every vertex of a graph, plus derived queries.
///
/// The *core number* `core(v)` is the largest k such that v belongs to the
/// k-core `H_k`. Computed by bucket peeling in O(n + m).
#[derive(Debug, Clone)]
pub struct CoreDecomposition {
    core: Vec<u32>,
    /// Vertices sorted by core number ascending — the peeling (degeneracy)
    /// order; `order[i]` was the i-th vertex removed.
    order: Vec<VertexId>,
    max_core: u32,
}

impl CoreDecomposition {
    /// Runs the decomposition on `g`.
    pub fn compute(g: &AttributedGraph) -> Self {
        let _span = cx_obs::span("kcore.peel");
        let n = g.vertex_count();
        if n == 0 {
            return Self { core: Vec::new(), order: Vec::new(), max_core: 0 };
        }
        // Degree scan in parallel; exact and order-free, so thread count
        // cannot change the result.
        let mut deg: Vec<usize> =
            cx_par::par_map_indexed(n, |v| g.degree(VertexId(v as u32)));
        let max_deg = cx_par::par_reduce(
            n,
            |r| r.clone().map(|v| deg[v]).max().unwrap_or(0),
            usize::max,
        )
        .unwrap();

        // Bucket sort vertices by degree: per-chunk histograms combined by
        // element-wise addition (exact for integers in any order).
        let mut bin = cx_par::par_reduce(
            n,
            |r| {
                let mut h = vec![0usize; max_deg + 2];
                for v in r {
                    h[deg[v]] += 1;
                }
                h
            },
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(&b) {
                    *x += y;
                }
                a
            },
        )
        .unwrap();
        let mut start = 0usize;
        for b in bin.iter_mut() {
            let count = *b;
            *b = start;
            start += count;
        }
        // pos[v] = index of v in vert; vert = vertices sorted by current degree.
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
        let mut order = Vec::with_capacity(n);
        for i in 0..n {
            // Request-deadline checkpoint (see cx_par::task): a cancelled
            // run's partial core numbers never escape — the scope owner
            // discards the result — so bailing mid-peel is safe.
            if i & 0xFFF == 0 && i != 0 && cx_par::task::cancelled() {
                break;
            }
            let v = vert[i] as usize;
            core[v] = deg[v] as u32;
            order.push(VertexId(v as u32));
            for &u in g.neighbors(VertexId(v as u32)) {
                let u = u.index();
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
        let max_core = core.iter().copied().max().unwrap_or(0);
        Self { core, order, max_core }
    }

    /// Parallel per-component decomposition: peels each connected component
    /// independently on the cx-par pool. Core numbers are identical to
    /// [`CoreDecomposition::compute`] (a k-core never spans components);
    /// the peeling order is a deterministic merge of the per-component
    /// orders by core number, so the monotonicity invariant holds and the
    /// result is independent of the thread count.
    pub fn compute_par(g: &AttributedGraph) -> Self {
        let _span = cx_obs::span("kcore.decompose-par");
        let n = g.vertex_count();
        if n == 0 {
            return Self { core: Vec::new(), order: Vec::new(), max_core: 0 };
        }
        let cc = ConnectedComponents::compute(g);
        if cc.count == 1 {
            return Self::compute(g);
        }
        let comps = cc.groups();
        // Global vertex id → index within its component.
        let mut local = vec![0u32; n];
        for comp in &comps {
            for (i, &v) in comp.iter().enumerate() {
                local[v.index()] = i as u32;
            }
        }
        let peeled: Vec<(Vec<u32>, Vec<VertexId>)> =
            cx_par::par_map_slice(&comps, |comp| peel_component(g, comp, &local));

        let mut core = vec![0u32; n];
        for (comp, (cores, _)) in comps.iter().zip(&peeled) {
            for (&v, &c) in comp.iter().zip(cores) {
                core[v.index()] = c;
            }
        }
        let max_core = core.iter().copied().max().unwrap_or(0);
        // Merge per-component peel orders into one globally monotone order:
        // bucket by core number, components in their deterministic order.
        let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); max_core as usize + 1];
        for (_, comp_order) in &peeled {
            for &v in comp_order {
                buckets[core[v.index()] as usize].push(v);
            }
        }
        let mut order = Vec::with_capacity(n);
        for b in buckets {
            order.extend(b);
        }
        Self { core, order, max_core }
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

    /// The peeling order (vertices sorted by core number ascending). The
    /// reverse of this order is a degeneracy ordering.
    #[inline]
    pub fn peeling_order(&self) -> &[VertexId] {
        &self.order
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

/// Batagelj–Zaversnik peel restricted to one connected component.
/// `local` maps global vertex ids to component-local indices. Returns the
/// core number per component-local index plus the component's peel order
/// (as global ids). Edges never leave a component, so the global degree is
/// also the within-component degree.
fn peel_component(
    g: &AttributedGraph,
    comp: &[VertexId],
    local: &[u32],
) -> (Vec<u32>, Vec<VertexId>) {
    let n = comp.len();
    let mut deg: Vec<usize> = comp.iter().map(|&v| g.degree(v)).collect();
    let max_deg = deg.iter().copied().max().unwrap_or(0);

    let mut bin = vec![0usize; max_deg + 2];
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
    let mut order = Vec::with_capacity(n);
    for i in 0..n {
        let v = vert[i] as usize;
        core[v] = deg[v] as u32;
        order.push(comp[v]);
        for &gu in g.neighbors(comp[v]) {
            let u = local[gu.index()] as usize;
            if deg[u] > deg[v] {
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
    (core, order)
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
    fn peeling_order_is_nondecreasing_in_core_number() {
        let g = figure5_graph();
        let cd = CoreDecomposition::compute(&g);
        let cores: Vec<u32> = cd.peeling_order().iter().map(|&u| cd.core(u)).collect();
        assert!(cores.windows(2).all(|w| w[0] <= w[1]), "order {cores:?} not monotone");
        assert_eq!(cd.peeling_order().len(), g.vertex_count());
    }

    #[test]
    fn compute_par_matches_sequential_on_multi_component_graph() {
        let _guard = crate::test_env_lock();
        let g = figure5_graph(); // 4 components: the big one, H, I, J
        let a = CoreDecomposition::compute(&g);
        let b = CoreDecomposition::compute_par(&g);
        assert_eq!(a.core_numbers(), b.core_numbers());
        assert_eq!(a.max_core(), b.max_core());
        assert_eq!(b.peeling_order().len(), g.vertex_count());
        let cores: Vec<u32> = b.peeling_order().iter().map(|&u| b.core(u)).collect();
        assert!(cores.windows(2).all(|w| w[0] <= w[1]), "par order not monotone");
        // Empty graph hits the early return.
        assert_eq!(CoreDecomposition::compute_par(&GraphBuilder::new().build()).max_core(), 0);
    }

    #[test]
    fn histogram_sums_to_vertex_count() {
        let g = figure5_graph();
        let cd = CoreDecomposition::compute(&g);
        assert_eq!(cd.histogram().iter().sum::<usize>(), g.vertex_count());
    }
}
