//! Incremental core-number maintenance under edge insertions/deletions —
//! the streaming k-core decomposition of Sariyüce et al. (PVLDB 2013).
//!
//! The demo paper positions C-Explorer over evolving social networks
//! (new co-authorships appear continuously) and cites dynamic community
//! maintenance as the motivation behind Huang et al.'s dynamic k-truss.
//! This module keeps the core numbers — the input to the CL-tree — up to
//! date in time proportional to the *affected subcore*, instead of
//! re-peeling the whole graph per edit.
//!
//! Key facts the algorithm rests on: inserting one edge can raise core
//! numbers by **at most 1**, and only for vertices in the *subcore* of the
//! edge's lower endpoint (vertices with the same core number K reachable
//! through core-K vertices); deleting one edge can lower core numbers by
//! at most 1, within the same region.

use std::collections::VecDeque;

use cx_graph::{AttributedGraph, VertexId};

/// A mutable graph whose core numbers are maintained incrementally.
///
/// Seed it from an [`AttributedGraph`] (or empty), then apply
/// [`DynamicCore::insert_edge`] / [`DynamicCore::remove_edge`];
/// [`DynamicCore::core`] is always equal to what a from-scratch
/// decomposition of the current edge set would produce; the seeded
/// `random_graphs.rs::dynamic_core_matches_recompute_after_every_edit`
/// holds it to exactly that.
#[derive(Debug, Clone)]
pub struct DynamicCore {
    adj: Vec<Vec<u32>>,
    core: Vec<u32>,
    marks: Marks,
}

/// Per-vertex scratch that every edit reuses instead of allocating:
/// vertex `x` carries the `seen` mark while `seen[x] == epoch` (and the
/// `queued` mark likewise), so one increment of `epoch` clears every
/// mark. `count[x]` is a per-vertex counter, meaningful only while `x`
/// is marked `seen`.
#[derive(Debug, Clone, Default)]
struct Marks {
    epoch: u32,
    seen: Vec<u32>,
    queued: Vec<u32>,
    count: Vec<u32>,
}

impl Marks {
    /// Starts an edit over `n` vertices with every mark clear; returns the
    /// epoch that sets a mark. Epoch 0 is never handed out, so writing 0
    /// clears one mark.
    fn begin(&mut self, n: usize) -> u32 {
        if self.seen.len() < n {
            self.seen.resize(n, 0);
            self.queued.resize(n, 0);
            self.count.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.queued.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }
}

impl DynamicCore {
    /// Seeds from an existing graph: adjacency copy + one full peel.
    pub fn from_graph(g: &AttributedGraph) -> Self {
        let adj: Vec<Vec<u32>> =
            g.vertices().map(|v| g.neighbors(v).iter().map(|u| u.0).collect()).collect();
        let core = crate::decomposition::CoreDecomposition::compute(g).core_numbers().to_vec();
        Self { adj, core, marks: Marks::default() }
    }

    /// Seeds from a graph whose core numbers are already known, skipping
    /// the peel. `cores` must be the exact core numbers of `g` (as
    /// produced by a prior decomposition of the same edge set) — the
    /// engine uses this to warm its per-graph maintenance state from a
    /// published snapshot without re-peeling.
    pub fn from_graph_with_cores(g: &AttributedGraph, cores: &[u32]) -> Self {
        assert_eq!(cores.len(), g.vertex_count(), "core vector must cover every vertex");
        let adj: Vec<Vec<u32>> =
            g.vertices().map(|v| g.neighbors(v).iter().map(|u| u.0).collect()).collect();
        Self { adj, core: cores.to_vec(), marks: Marks::default() }
    }

    /// An edgeless graph with `n` vertices (all cores 0).
    pub fn with_vertices(n: usize) -> Self {
        Self { adj: vec![Vec::new(); n], core: vec![0; n], marks: Marks::default() }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Current core number of `v`.
    pub fn core(&self, v: VertexId) -> u32 {
        self.core[v.index()]
    }

    /// All current core numbers, indexed by vertex.
    pub fn core_numbers(&self) -> &[u32] {
        &self.core
    }

    /// Adds a new isolated vertex, returning its id.
    pub fn add_vertex(&mut self) -> VertexId {
        self.adj.push(Vec::new());
        self.core.push(0);
        VertexId(self.adj.len() as u32 - 1)
    }

    /// Whether the undirected edge currently exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        u.index() < self.adj.len() && self.adj[u.index()].contains(&v.0)
    }

    /// Inserts the undirected edge `{u, v}` and updates core numbers.
    /// Returns true if the edge was new. Self-loops and duplicates are
    /// ignored.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || u.index() >= self.adj.len() || v.index() >= self.adj.len() {
            return false;
        }
        if self.has_edge(u, v) {
            return false;
        }
        self.adj[u.index()].push(v.0);
        self.adj[v.index()].push(u.0);

        // Only vertices with core == K (the smaller endpoint core) can rise.
        let Self { adj, core, marks } = self;
        let k = core[u.index()].min(core[v.index()]);
        let roots: Vec<u32> =
            [u, v].into_iter().filter(|w| core[w.index()] == k).map(|w| w.0).collect();

        // Candidate set: the subcore — core-K vertices reachable from the
        // root(s) through core-K vertices. Marked `seen` while a candidate.
        let e = marks.begin(adj.len());
        let in_sub = |seen: &[u32], x: u32| seen[x as usize] == e;
        let mut subcore = Vec::new();
        let mut queue: VecDeque<u32> = VecDeque::new();
        for r in roots {
            if !in_sub(&marks.seen, r) {
                marks.seen[r as usize] = e;
                queue.push_back(r);
            }
        }
        while let Some(w) = queue.pop_front() {
            subcore.push(w);
            for &x in &adj[w as usize] {
                if core[x as usize] == k && !in_sub(&marks.seen, x) {
                    marks.seen[x as usize] = e;
                    queue.push_back(x);
                }
            }
        }

        // cd(w), in `count`: neighbours that could support w at level K+1
        // — those with core > K, or core == K and still candidates.
        for &w in &subcore {
            marks.count[w as usize] = adj[w as usize]
                .iter()
                .filter(|&&x| core[x as usize] > k || in_sub(&marks.seen, x))
                .count() as u32;
        }
        // Peel candidates that cannot reach degree K+1.
        let mut evict: VecDeque<u32> =
            subcore.iter().copied().filter(|&w| marks.count[w as usize] <= k).collect();
        while let Some(w) = evict.pop_front() {
            if !in_sub(&marks.seen, w) {
                continue;
            }
            marks.seen[w as usize] = 0;
            for &x in &adj[w as usize] {
                if in_sub(&marks.seen, x) {
                    marks.count[x as usize] -= 1;
                    if marks.count[x as usize] == k {
                        evict.push_back(x);
                    }
                }
            }
        }
        // Survivors rise to K+1.
        for &w in &subcore {
            if in_sub(&marks.seen, w) {
                core[w as usize] = k + 1;
            }
        }
        true
    }

    /// Removes the undirected edge `{u, v}` and updates core numbers.
    /// Returns true if the edge existed.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || !self.has_edge(u, v) {
            return false;
        }
        self.adj[u.index()].retain(|&x| x != v.0);
        self.adj[v.index()].retain(|&x| x != u.0);

        let Self { adj, core, marks } = self;
        let k = core[u.index()].min(core[v.index()]);
        // Vertices with core == K near the affected endpoints may drop to
        // K-1. Start from the endpoints whose core is K and cascade: a
        // core-K vertex drops when fewer than K of its neighbours have
        // (effective) core ≥ K. cd(x) lives in `count` once x is marked
        // `seen` (computed lazily for visited core-K vertices).
        let e = marks.begin(adj.len());
        let support = |core: &[u32], x: u32| {
            adj[x as usize].iter().filter(|&&y| core[y as usize] >= k).count() as u32
        };

        let mut queue: VecDeque<u32> = VecDeque::new();
        for w in [u.0, v.0] {
            if core[w as usize] == k && marks.queued[w as usize] != e {
                marks.queued[w as usize] = e;
                queue.push_back(w);
            }
        }
        while let Some(w) = queue.pop_front() {
            if core[w as usize] != k {
                continue;
            }
            if marks.seen[w as usize] != e {
                marks.seen[w as usize] = e;
                marks.count[w as usize] = support(core, w);
            }
            if marks.count[w as usize] < k {
                // w drops; its core-K neighbours lose a supporter.
                core[w as usize] = k.saturating_sub(1);
                for &x in &adj[w as usize] {
                    if core[x as usize] == k {
                        if marks.seen[x as usize] != e {
                            marks.seen[x as usize] = e;
                            marks.count[x as usize] = support(core, x);
                        } else {
                            marks.count[x as usize] = marks.count[x as usize].saturating_sub(1);
                        }
                        if marks.queued[x as usize] != e || marks.count[x as usize] < k {
                            marks.queued[x as usize] = e;
                            queue.push_back(x);
                        }
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_graph::GraphBuilder;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Reference: full recompute on the current adjacency.
    fn recompute(dc: &DynamicCore) -> Vec<u32> {
        let mut b = GraphBuilder::new();
        for i in 0..dc.vertex_count() {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        for (i, ns) in dc.adj.iter().enumerate() {
            for &j in ns {
                if (i as u32) < j {
                    b.add_edge(v(i as u32), v(j));
                }
            }
        }
        crate::decomposition::CoreDecomposition::compute(&b.build()).core_numbers().to_vec()
    }

    #[test]
    fn building_a_triangle_incrementally() {
        let mut dc = DynamicCore::with_vertices(3);
        assert!(dc.insert_edge(v(0), v(1)));
        assert_eq!(dc.core_numbers(), &[1, 1, 0]);
        assert!(dc.insert_edge(v(1), v(2)));
        assert_eq!(dc.core_numbers(), &[1, 1, 1]);
        assert!(dc.insert_edge(v(0), v(2)));
        assert_eq!(dc.core_numbers(), &[2, 2, 2]);
        assert_eq!(dc.edge_count(), 3);
    }

    #[test]
    fn duplicate_and_self_edges_ignored() {
        let mut dc = DynamicCore::with_vertices(2);
        assert!(dc.insert_edge(v(0), v(1)));
        assert!(!dc.insert_edge(v(0), v(1)));
        assert!(!dc.insert_edge(v(1), v(0)));
        assert!(!dc.insert_edge(v(0), v(0)));
        assert!(!dc.insert_edge(v(0), v(9)));
        assert_eq!(dc.edge_count(), 1);
    }

    #[test]
    fn removing_a_clique_edge_drops_cores() {
        // K4: all cores 3; removing one edge drops everyone to 2.
        let mut dc = DynamicCore::with_vertices(4);
        for i in 0..4 {
            for j in (i + 1)..4 {
                dc.insert_edge(v(i), v(j));
            }
        }
        assert_eq!(dc.core_numbers(), &[3, 3, 3, 3]);
        assert!(dc.remove_edge(v(0), v(1)));
        assert_eq!(dc.core_numbers(), recompute(&dc).as_slice());
        assert_eq!(dc.core_numbers(), &[2, 2, 2, 2]);
        assert!(!dc.remove_edge(v(0), v(1)));
    }

    #[test]
    fn insertion_only_affects_subcore() {
        // Two triangles joined by a path; adding a chord to one triangle
        // must not disturb the other.
        let mut dc = DynamicCore::with_vertices(7);
        for (a, b) in [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6), (2, 3), (3, 4)] {
            dc.insert_edge(v(a), v(b));
        }
        assert_eq!(dc.core_numbers(), recompute(&dc).as_slice());
        let before_far = dc.core(v(5));
        dc.insert_edge(v(0), v(3));
        assert_eq!(dc.core_numbers(), recompute(&dc).as_slice());
        assert_eq!(dc.core(v(5)), before_far);
    }

    #[test]
    fn from_graph_matches_decomposition() {
        let g = cx_datagen::figure5_graph();
        let dc = DynamicCore::from_graph(&g);
        let cd = crate::decomposition::CoreDecomposition::compute(&g);
        assert_eq!(dc.core_numbers(), cd.core_numbers());
        assert_eq!(dc.edge_count(), g.edge_count());
    }

    #[test]
    fn from_graph_with_cores_skips_the_peel_but_behaves_identically() {
        let g = cx_datagen::figure5_graph();
        let cd = crate::decomposition::CoreDecomposition::compute(&g);
        let mut warm = DynamicCore::from_graph_with_cores(&g, cd.core_numbers());
        let mut cold = DynamicCore::from_graph(&g);
        assert_eq!(warm.core_numbers(), cold.core_numbers());
        assert_eq!(warm.edge_count(), cold.edge_count());
        // Both stay in lockstep (and correct) through the same edits.
        for (a, b) in [(0, 1), (4, 2), (5, 6)] {
            warm.remove_edge(v(a), v(b));
            cold.remove_edge(v(a), v(b));
            warm.insert_edge(v(a), v(b));
            cold.insert_edge(v(a), v(b));
            assert_eq!(warm.core_numbers(), cold.core_numbers());
            assert_eq!(warm.core_numbers(), recompute(&warm).as_slice());
        }
    }

    #[test]
    fn grow_figure5_from_scratch_and_tear_down() {
        let g = cx_datagen::figure5_graph();
        let mut dc = DynamicCore::with_vertices(g.vertex_count());
        let edges: Vec<_> = g.edges().collect();
        for &(a, b) in &edges {
            dc.insert_edge(a, b);
            assert_eq!(dc.core_numbers(), recompute(&dc).as_slice(), "after +({a},{b})");
        }
        let cd = crate::decomposition::CoreDecomposition::compute(&g);
        assert_eq!(dc.core_numbers(), cd.core_numbers());
        // Tear down in reverse.
        for &(a, b) in edges.iter().rev() {
            dc.remove_edge(a, b);
            assert_eq!(dc.core_numbers(), recompute(&dc).as_slice(), "after -({a},{b})");
        }
        assert!(dc.core_numbers().iter().all(|&c| c == 0));
    }

    #[test]
    fn add_vertex_extends_graph() {
        let mut dc = DynamicCore::with_vertices(1);
        let nv = dc.add_vertex();
        assert_eq!(nv, v(1));
        assert_eq!(dc.vertex_count(), 2);
        dc.insert_edge(v(0), nv);
        assert_eq!(dc.core_numbers(), &[1, 1]);
    }

    #[test]
    fn marks_stay_clear_when_the_epoch_wraps_around() {
        let mut marks = Marks::default();
        let e = marks.begin(4);
        marks.seen[1] = e;
        marks.queued[2] = e;
        marks.epoch = u32::MAX;
        let again = marks.begin(4);
        assert_eq!(again, e, "the wrap hands epoch {e} out again");
        assert!(marks.seen.iter().chain(&marks.queued).all(|&m| m != again), "and it starts clear");

        // The maintained cores do not notice a wrap in mid-script: the
        // first half of figure 5's edges leaves marks stamped with small
        // epochs, which the edits after the wrap hand out again.
        let g = cx_datagen::figure5_graph();
        let edges: Vec<_> = g.edges().collect();
        let (first, rest) = edges.split_at(edges.len() / 2);
        let mut dc = DynamicCore::with_vertices(g.vertex_count());
        for &(a, b) in first {
            dc.insert_edge(a, b);
        }
        dc.marks.epoch = u32::MAX - 2;
        for &(a, b) in rest {
            dc.insert_edge(a, b);
            assert_eq!(dc.core_numbers(), recompute(&dc).as_slice(), "after +({a},{b})");
        }
        for &(a, b) in edges.iter().rev() {
            dc.remove_edge(a, b);
            assert_eq!(dc.core_numbers(), recompute(&dc).as_slice(), "after -({a},{b})");
        }
        assert!(dc.marks.epoch < 100, "the epoch wrapped");
    }
}
