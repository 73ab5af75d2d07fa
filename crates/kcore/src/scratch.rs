//! Subset peeling against reusable, epoch-cleared buffers: the one
//! answer in the workspace to "which connected k-core inside this
//! vertex set contains q?".
//!
//! ACQ verifies dozens of candidate keyword sets per query, `Local`
//! re-checks its growing candidate set every few admissions, SAC
//! binary-searches disk prefixes and `Global` peels all n vertices once.
//! Each check needs three graph-sized buffers: the membership mask, the
//! induced-degree array and the BFS visited mask. [`PeelScratch`] keeps
//! all three alive across calls and clears them in O(1) by bumping an
//! epoch stamp instead of touching memory, so a steady-state check costs
//! O(|members| + induced edges) with zero heap allocations.
//!
//! The buffers are `AtomicU32` so the same storage serves both the
//! serial path (relaxed loads/stores compile to plain memory ops) and
//! the level-synchronous **frontier-parallel** path used for large
//! member sets: peeling claims a newly-dead vertex exactly once via
//! `fetch_sub` observing the old degree equal to `k`, and BFS claims a
//! newly-visited vertex via an atomic `swap` on its epoch stamp. Both
//! claims are unique regardless of thread interleaving and the final
//! vertex *set* of every phase is thread-count independent (the k-core
//! is unique and output is sorted), preserving the workspace determinism
//! contract.

use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

use cx_graph::{AttributedGraph, VertexId};

/// Member-set size below which the frontier loops stay serial: the
/// parallel path pays per-level `std::thread::scope` spawns (and their
/// allocations), which only amortise over jumbo member sets — whole-graph
/// subset peels, not per-query keyword cores. Keeping typical query
/// verifications serial also keeps them allocation-free at every
/// `CX_THREADS` setting, which `ci.sh` asserts.
pub const PAR_MEMBER_THRESHOLD: usize = 65_536;

/// Frontier size below which one level is processed serially even when
/// the overall peel runs in parallel mode.
const PAR_LEVEL_THRESHOLD: usize = 2048;

/// Reusable peel + BFS state, sized lazily to the largest graph seen.
///
/// Cleared per call by epoch bump (O(1)); allocates only when a larger
/// graph than any previous call requires growing the stamp arrays.
pub struct PeelScratch {
    /// Alive stamp: `mark[v] == epoch` ⇔ v currently alive.
    mark: Vec<AtomicU32>,
    /// Visited stamp for the component BFS.
    seen: Vec<AtomicU32>,
    /// Induced degree of each alive vertex.
    deg: Vec<AtomicU32>,
    /// Current epoch; stamps from earlier epochs read as "unset".
    epoch: u32,
    /// Current frontier (newly-dead vertices / current BFS level).
    frontier: Vec<VertexId>,
    /// Next frontier, swapped with `frontier` level by level.
    next: Vec<VertexId>,
}

impl Default for PeelScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl PeelScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            mark: Vec::new(),
            seen: Vec::new(),
            deg: Vec::new(),
            epoch: 0,
            frontier: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Starts a fresh call over a graph with `n` vertices: grows buffers
    /// if needed and advances the epoch (wrapping resets all stamps).
    fn begin(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize_with(n, || AtomicU32::new(0));
            self.seen.resize_with(n, || AtomicU32::new(0));
            self.deg.resize_with(n, || AtomicU32::new(0));
        }
        if self.epoch == u32::MAX {
            for m in &self.mark {
                m.store(0, Relaxed);
            }
            for s in &self.seen {
                s.store(0, Relaxed);
            }
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// The connected k-core containing every query vertex of `qs` within
    /// the subgraph induced by `members`, written sorted into `out`.
    /// Returns `false` (with `out` cleared) when `qs` is empty, or some
    /// `q ∈ qs` is not in `members`, is peeled away, or ends up in another
    /// component than `qs[0]`. A single query vertex is
    /// `std::slice::from_ref(&q)`.
    ///
    /// Allocation-free in steady state; duplicates in `members` and `qs`
    /// are tolerated. For member sets of at least [`PAR_MEMBER_THRESHOLD`]
    /// and `cx_par::num_threads() > 1`, the peel and BFS run as
    /// level-synchronous parallel frontier sweeps (that path allocates
    /// for thread scopes and per-chunk buffers).
    pub fn connected_k_core_containing_into(
        &mut self,
        g: &AttributedGraph,
        members: &[VertexId],
        qs: &[VertexId],
        k: u32,
        out: &mut Vec<VertexId>,
    ) -> bool {
        out.clear();
        let n = g.vertex_count();
        let Some(&q) = qs.first() else { return false };
        if qs.iter().any(|v| v.index() >= n) {
            return false;
        }
        // A k-core needs at least k+1 vertices (every member has k
        // neighbours inside), so undersized member sets cannot contain one.
        if k > 0 && members.len() <= k as usize {
            return false;
        }
        self.begin(n);
        let parallel = members.len() >= PAR_MEMBER_THRESHOLD && cx_par::num_threads() > 1;
        let epoch = self.epoch;

        // Mark membership, then induced degrees (idempotent stores, so
        // both phases parallelise over member chunks race-free).
        par_for(parallel, members.len(), |i| {
            self.mark[members[i].index()].store(epoch, Relaxed);
        });
        // Whether every query vertex carries this call's stamp.
        let all_stamped =
            |stamps: &[AtomicU32]| qs.iter().all(|v| stamps[v.index()].load(Relaxed) == epoch);
        if !all_stamped(&self.mark) {
            return false;
        }
        par_for(parallel, members.len(), |i| {
            let v = members[i];
            let d = g
                .neighbors(v)
                .iter()
                .filter(|u| self.mark[u.index()].load(Relaxed) == epoch)
                .count() as u32;
            self.deg[v.index()].store(d, Relaxed);
        });

        // Initial frontier: claim every under-degree member by killing
        // its mark (the claim dedups repeated `members` entries).
        let mut frontier = std::mem::take(&mut self.frontier);
        let mut next = std::mem::take(&mut self.next);
        frontier.clear();
        collect_level(parallel, members.len(), &mut frontier, |i, local| {
            let v = members[i];
            if self.deg[v.index()].load(Relaxed) < k
                && self.mark[v.index()].swap(0, Relaxed) == epoch
            {
                local.push(v);
            }
        });

        // Level-synchronous peel: each dead vertex decrements its alive
        // neighbours; the decrement observing `old == k` uniquely claims
        // the neighbour as newly dead.
        while !frontier.is_empty() {
            next.clear();
            let level = &frontier;
            collect_level(parallel, level.len(), &mut next, |i, local| {
                for &u in g.neighbors(level[i]) {
                    if self.mark[u.index()].load(Relaxed) == epoch
                        && self.deg[u.index()].fetch_sub(1, Relaxed) == k
                    {
                        self.mark[u.index()].store(0, Relaxed);
                        local.push(u);
                    }
                }
            });
            std::mem::swap(&mut frontier, &mut next);
        }

        let mut survived = all_stamped(&self.mark);
        if survived {
            // Component BFS from q: an atomic swap on the visited stamp
            // claims each vertex exactly once.
            self.seen[q.index()].store(epoch, Relaxed);
            frontier.clear();
            frontier.push(q);
            out.push(q);
            while !frontier.is_empty() {
                next.clear();
                let level = &frontier;
                collect_level(parallel, level.len(), &mut next, |i, local| {
                    for &u in g.neighbors(level[i]) {
                        if self.mark[u.index()].load(Relaxed) == epoch
                            && self.seen[u.index()].swap(epoch, Relaxed) != epoch
                        {
                            local.push(u);
                        }
                    }
                });
                out.extend_from_slice(&next);
                std::mem::swap(&mut frontier, &mut next);
            }
            // Every query vertex must be in q's component.
            survived = all_stamped(&self.seen);
            if survived {
                out.sort_unstable();
            } else {
                out.clear();
            }
        }
        self.frontier = frontier;
        self.next = next;
        survived
    }
}

/// Runs `f(i)` for `0..len`, on parallel chunk workers when `parallel`.
/// Side effects must be idempotent or per-index disjoint.
fn par_for(parallel: bool, len: usize, f: impl Fn(usize) + Sync) {
    if parallel && len >= PAR_LEVEL_THRESHOLD {
        cx_par::par_reduce(len, |r| r.for_each(&f), |(), ()| ());
    } else {
        (0..len).for_each(f);
    }
}

/// Runs `f(i, &mut local)` for `0..len` collecting pushed vertices into
/// `out` — serially in index order, or over parallel chunks combined in
/// ascending chunk order. `f` must claim each pushed vertex atomically
/// so the output *set* is deterministic; order within `out` may vary
/// across runs in parallel mode (consumers sort or treat it as a set).
fn collect_level(
    parallel: bool,
    len: usize,
    out: &mut Vec<VertexId>,
    f: impl Fn(usize, &mut Vec<VertexId>) + Sync,
) {
    if parallel && len >= PAR_LEVEL_THRESHOLD {
        let parts = cx_par::par_reduce(
            len,
            |r| {
                let mut local = Vec::new();
                r.for_each(|i| f(i, &mut local));
                vec![local]
            },
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        for part in parts.into_iter().flatten() {
            out.extend_from_slice(&part);
        }
    } else {
        for i in 0..len {
            f(i, out);
        }
    }
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
        for (a, c) in
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (5, 6), (6, 7), (5, 7)]
        {
            b.add_edge(v(a), v(c));
        }
        b.build()
    }

    #[test]
    fn scratch_reuse_across_calls_and_graphs() {
        let g = fixture();
        let all: Vec<VertexId> = g.vertices().collect();
        let mut s = PeelScratch::new();
        let mut out = Vec::new();
        // Repeated reuse on one graph must not leak state across epochs.
        for _ in 0..3 {
            assert!(s.connected_k_core_containing_into(&g, &all, &[v(1)], 2, &mut out));
            assert_eq!(out, vec![v(0), v(1), v(2), v(3)]);
            assert!(!s.connected_k_core_containing_into(&g, &all, &[v(4)], 2, &mut out));
            assert!(out.is_empty());
        }
        // A smaller graph after a bigger one reuses the same buffers.
        let mut b = GraphBuilder::new();
        for i in 0..3 {
            b.add_vertex(&format!("t{i}"), &[]);
        }
        b.add_edge(v(0), v(1));
        b.add_edge(v(1), v(2));
        b.add_edge(v(0), v(2));
        let t = b.build();
        let tri: Vec<VertexId> = t.vertices().collect();
        assert!(s.connected_k_core_containing_into(&t, &tri, &[v(0)], 2, &mut out));
        assert_eq!(out, tri);
    }

    #[test]
    fn duplicates_and_missing_query_vertex() {
        let g = fixture();
        let mut s = PeelScratch::new();
        let mut out = Vec::new();
        let dups = [v(0), v(1), v(2), v(3), v(0), v(3)];
        assert!(s.connected_k_core_containing_into(&g, &dups, &[v(0)], 3, &mut out));
        assert_eq!(out, vec![v(0), v(1), v(2), v(3)]);
        // q absent from members, or out of range entirely.
        assert!(!s.connected_k_core_containing_into(&g, &[v(1), v(2)], &[v(0)], 0, &mut out));
        assert!(!s.connected_k_core_containing_into(&g, &[v(1)], &[v(99)], 0, &mut out));
        // Query sets: both in the K4, one listed twice — its 2-core.
        let all: Vec<VertexId> = g.vertices().collect();
        assert!(s.connected_k_core_containing_into(&g, &all, &[v(3), v(0), v(3)], 2, &mut out));
        assert_eq!(out, vec![v(0), v(1), v(2), v(3)]);
        // Different 2-core components, at k = 0 too.
        assert!(!s.connected_k_core_containing_into(&g, &all, &[v(0), v(5)], 2, &mut out));
        assert!(out.is_empty());
        assert!(!s.connected_k_core_containing_into(&g, &all, &[v(0), v(5)], 0, &mut out));
        // The pendant is peeled at k = 2 but kept at k = 1.
        assert!(!s.connected_k_core_containing_into(&g, &all, &[v(0), v(4)], 2, &mut out));
        assert!(s.connected_k_core_containing_into(&g, &all, &[v(0), v(4)], 1, &mut out));
        assert_eq!(out, vec![v(0), v(1), v(2), v(3), v(4)]);
        // No query vertex at all.
        assert!(!s.connected_k_core_containing_into(&g, &all, &[], 2, &mut out));
    }
}
