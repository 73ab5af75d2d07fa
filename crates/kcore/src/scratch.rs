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
//! epoch stamp instead of touching memory, so a steady-state check
//! performs zero heap allocations.
//!
//! A serial check ([`PeelScratch::connected_k_core_in_seed_into`]) works
//! component first: it marks a *seed* set, grows q's component through
//! the marked vertices that pass a caller's test, and peels that
//! component while it grows, stopping as soon as a query vertex dies. It
//! costs O(|seed|) marks plus the adjacency of what it grows, however
//! much of the seed lies elsewhere. ACQ's verifier hands it a candidate's
//! shortest carrier list and a "carries every candidate keyword" test;
//! every other caller hands it a member set and admits all of it.
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

/// `deg` of a vertex admitted into q's component but not yet dequeued.
const UNCOUNTED: u32 = u32::MAX;

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
    /// See [`Self::admitted_total`].
    admitted_total: u64,
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
            admitted_total: 0,
        }
    }

    /// Starts a fresh call over a graph with `n` vertices: grows buffers
    /// if needed and advances the epoch by two, so a call owns the stamps
    /// `epoch` and `epoch + 1` (wrapping resets all stamps).
    fn begin(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize_with(n, || AtomicU32::new(0));
            self.seen.resize_with(n, || AtomicU32::new(0));
            self.deg.resize_with(n, || AtomicU32::new(0));
        }
        if self.epoch >= u32::MAX - 2 {
            for m in &self.mark {
                m.store(0, Relaxed);
            }
            for s in &self.seen {
                s.store(0, Relaxed);
            }
            self.epoch = 0;
        }
        self.epoch += 2;
    }

    /// The connected k-core containing every query vertex of `qs` within
    /// the subgraph induced by `members`, written sorted into `out`.
    /// Returns `false` (with `out` cleared) when `qs` is empty, or some
    /// `q ∈ qs` is not in `members`, is peeled away, or ends up in another
    /// component than `qs[0]`. A single query vertex is
    /// `std::slice::from_ref(&q)`.
    ///
    /// Allocation-free in steady state; duplicates in `members` and `qs`
    /// are tolerated. Serially this is [`Self::connected_k_core_in_seed_into`]
    /// with every member admitted. For member sets of at least
    /// [`PAR_MEMBER_THRESHOLD`] and `cx_par::num_threads() > 1`, the whole
    /// member set is peeled and searched by level-synchronous parallel
    /// frontier sweeps (that path allocates for thread scopes and
    /// per-chunk buffers).
    pub fn connected_k_core_containing_into(
        &mut self,
        g: &AttributedGraph,
        members: &[VertexId],
        qs: &[VertexId],
        k: u32,
        out: &mut Vec<VertexId>,
    ) -> bool {
        if members.len() < PAR_MEMBER_THRESHOLD || cx_par::num_threads() < 2 {
            return self.connected_k_core_in_seed_into(
                g,
                members.iter().copied(),
                |_| true,
                qs,
                k,
                out,
            );
        }
        out.clear();
        let n = g.vertex_count();
        let Some(&q) = qs.first() else { return false };
        if qs.iter().any(|v| v.index() >= n) {
            return false;
        }
        self.begin(n);
        let epoch = self.epoch;

        // Mark membership, then induced degrees (idempotent stores, so
        // both phases parallelise over member chunks race-free).
        par_for(members.len(), |i| {
            self.mark[members[i].index()].store(epoch, Relaxed);
        });
        // Whether every query vertex carries this call's stamp.
        let all_stamped =
            |stamps: &[AtomicU32]| qs.iter().all(|v| stamps[v.index()].load(Relaxed) == epoch);
        if !all_stamped(&self.mark) {
            return false;
        }
        par_for(members.len(), |i| {
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
        collect_level(members.len(), &mut frontier, |i, local| {
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
            collect_level(level.len(), &mut next, |i, local| {
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
                collect_level(level.len(), &mut next, |i, local| {
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

    /// The connected k-core containing every query vertex of `qs` within
    /// the subgraph induced by the vertices of `seed` that pass `admit`,
    /// written sorted into `out`; `false` (with `out` cleared) otherwise,
    /// as in [`Self::connected_k_core_containing_into`]. Serial and
    /// allocation-free in steady state; `admit` is asked at most once per
    /// vertex, and only about seed vertices next to q's component.
    ///
    /// Only q's component can hold the answer, so the routine never
    /// looks past it:
    /// 1. mark the seed;
    /// 2. grow q's component by BFS from `qs[0]` through marked vertices
    ///    that pass `admit`, counting each dequeued vertex's admitted
    ///    neighbours as its degree;
    /// 3. peel during the growth: a dequeued vertex below degree k dies
    ///    at once, with everything its death cascades to, and the call
    ///    returns as soon as a query vertex dies;
    /// 4. if anything died, search the survivors from q again (a peel
    ///    can split the component).
    ///
    /// A death near q is found before the far side of the component is
    /// grown at all. Every vertex step 2 admits is added to
    /// [`Self::admitted_total`].
    pub fn connected_k_core_in_seed_into(
        &mut self,
        g: &AttributedGraph,
        seed: impl ExactSizeIterator<Item = VertexId>,
        admit: impl Fn(VertexId) -> bool,
        qs: &[VertexId],
        k: u32,
        out: &mut Vec<VertexId>,
    ) -> bool {
        out.clear();
        let n = g.vertex_count();
        let Some(&q) = qs.first() else { return false };
        // A k-core needs at least k+1 vertices (every member has k
        // neighbours inside), so an undersized seed cannot contain one.
        if (k > 0 && seed.len() <= k as usize) || qs.iter().any(|v| v.index() >= n) {
            return false;
        }
        self.begin(n);
        // `mark[v]` is `seeded` for a seed vertex not yet tested, `alive`
        // for an admitted vertex the peel has not removed, and anything
        // else for the rest (failed the test, peeled, or never seeded).
        let (seeded, alive) = (self.epoch, self.epoch + 1);
        let mark = |v: VertexId| &self.mark[v.index()];
        let deg = |v: VertexId| &self.deg[v.index()];
        for v in seed {
            mark(v).store(seeded, Relaxed);
        }
        if !qs.iter().all(|&v| mark(v).load(Relaxed) == seeded && admit(v)) {
            return false;
        }

        // Grow q's component and peel it in the same pass; `out` is the
        // BFS queue. A vertex's degree is counted when it is dequeued,
        // over its admitted neighbours not yet peeled, so it is exact
        // from then on; the peel kills a dequeued vertex whose degree
        // drops below k and decrements only dequeued neighbours (a queued
        // one will not count the dead vertex when its turn comes).
        mark(q).store(alive, Relaxed);
        deg(q).store(UNCOUNTED, Relaxed);
        out.push(q);
        let mut dead = std::mem::take(&mut self.frontier);
        dead.clear();
        let (mut head, mut next) = (0, 0);
        'grow: while let Some(&v) = out.get(head) {
            head += 1;
            let mut d = 0;
            for &u in g.neighbors(v) {
                let m = mark(u).load(Relaxed);
                if m == seeded {
                    if !admit(u) {
                        mark(u).store(0, Relaxed);
                        continue;
                    }
                    mark(u).store(alive, Relaxed);
                    deg(u).store(UNCOUNTED, Relaxed);
                    out.push(u);
                } else if m != alive {
                    continue;
                }
                d += 1;
            }
            deg(v).store(d, Relaxed);
            if d >= k {
                continue;
            }
            mark(v).store(0, Relaxed);
            dead.push(v);
            if qs.contains(&v) {
                break;
            }
            while let Some(&x) = dead.get(next) {
                next += 1;
                for &u in g.neighbors(x) {
                    if mark(u).load(Relaxed) != alive {
                        continue;
                    }
                    let d = deg(u).load(Relaxed);
                    if d == UNCOUNTED {
                        continue;
                    }
                    deg(u).store(d - 1, Relaxed);
                    if d == k {
                        mark(u).store(0, Relaxed);
                        dead.push(u);
                        if qs.contains(&u) {
                            break 'grow;
                        }
                    }
                }
            }
        }
        self.admitted_total += out.len() as u64;
        let died = !dead.is_empty();
        self.frontier = dead;
        let fail = |out: &mut Vec<VertexId>| {
            out.clear();
            false
        };
        // A query vertex that died, or was never reached, fails the call.
        if !qs.iter().all(|&v| mark(v).load(Relaxed) == alive) {
            return fail(out);
        }

        if died {
            // The survivors of a peel may fall apart: keep q's component.
            out.clear();
            self.seen[q.index()].store(seeded, Relaxed);
            out.push(q);
            let mut head = 0;
            while let Some(&v) = out.get(head) {
                head += 1;
                for &u in g.neighbors(v) {
                    if mark(u).load(Relaxed) == alive
                        && self.seen[u.index()].swap(seeded, Relaxed) != seeded
                    {
                        out.push(u);
                    }
                }
            }
            if !qs.iter().all(|v| self.seen[v.index()].load(Relaxed) == seeded) {
                return fail(out);
            }
        }
        out.sort_unstable();
        true
    }

    /// Running count of the vertices [`Self::connected_k_core_in_seed_into`]
    /// has admitted into q's component over this scratch's lifetime; the
    /// difference across a query is the vertices its verifications touched.
    pub fn admitted_total(&self) -> u64 {
        self.admitted_total
    }
}

/// Runs `f(i)` for `0..len`, on parallel chunk workers unless `len` is
/// below [`PAR_LEVEL_THRESHOLD`]. Side effects must be idempotent or
/// per-index disjoint.
fn par_for(len: usize, f: impl Fn(usize) + Sync) {
    if len >= PAR_LEVEL_THRESHOLD {
        cx_par::par_reduce(len, |r| r.for_each(&f), |(), ()| ());
    } else {
        (0..len).for_each(f);
    }
}

/// Runs `f(i, &mut local)` for `0..len` collecting pushed vertices into
/// `out` — serially in index order below [`PAR_LEVEL_THRESHOLD`], else
/// over parallel chunks combined in ascending chunk order. `f` must
/// claim each pushed vertex atomically so the output *set* is
/// deterministic; order within `out` may vary across runs (consumers
/// sort or treat it as a set).
fn collect_level(
    len: usize,
    out: &mut Vec<VertexId>,
    f: impl Fn(usize, &mut Vec<VertexId>) + Sync,
) {
    if len >= PAR_LEVEL_THRESHOLD {
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

    /// The peel returns as soon as any query vertex dies, not only the
    /// first: with Q = {0, 4} the pendant 4 dies before the 2-core peel
    /// has eaten into the path 5..=15 hanging off the K4, so vertex 6 of
    /// the path is still seeded or alive afterwards.
    #[test]
    fn the_peel_stops_when_any_query_vertex_dies() {
        let mut b = GraphBuilder::new();
        for i in 0..16 {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        for (a, c) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (0, 5)] {
            b.add_edge(v(a), v(c));
        }
        for i in 5..15 {
            b.add_edge(v(i), v(i + 1));
        }
        let g = b.build();
        let all: Vec<VertexId> = g.vertices().collect();
        let mut s = PeelScratch::new();
        let mut out = Vec::new();
        let seed = all.iter().copied();
        assert!(!s.connected_k_core_in_seed_into(&g, seed, |_| true, &[v(0), v(4)], 2, &mut out));
        assert!(out.is_empty());
        assert!(s.mark[6].load(Relaxed) >= s.epoch, "the peel went on after q₂ died");
        // Without the second query vertex the whole path is peeled.
        let seed = all.iter().copied();
        assert!(s.connected_k_core_in_seed_into(&g, seed, |_| true, &[v(0)], 2, &mut out));
        assert_eq!(out, vec![v(0), v(1), v(2), v(3)]);
        assert_eq!(s.mark[6].load(Relaxed), 0);
    }
}
