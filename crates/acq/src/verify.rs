//! Keyword-core verification — the inner loop shared by every strategy.
//!
//! A candidate keyword set `S'` verifies iff the subgraph induced on
//! vertices carrying all of `S'` contains a connected k-core with every
//! query vertex q ∈ Q (one q for the single-vertex query). The carriers
//! of one keyword inside q's connected k-core are a slice of the
//! CL-tree's postings — ascending preorder *ranks*, read in place. Every
//! answer member lies in each of the candidate's lists and is connected
//! to q, so one traversal decides a candidate: seed with its *shortest*
//! list, grow q's component through the seed vertices that carry the
//! whole candidate (a keyword → alive-index table and a bitset of the
//! candidate's indices test a vertex), and peel that component alone
//! ([`cx_kcore::PeelScratch::connected_k_core_in_seed_into`]). No list
//! is intersected, and no vertex outside q's component is peeled.
//!
//! The verifier is a *view* over a [`VerifyScratch`]: all of its state —
//! the cached k-core, the keyword-list spans, the keyword table and the
//! peel buffers — lives in the scratch and is reused across queries, so
//! steady-state verification performs no heap allocation.

use std::ops::Range;

use cx_cltree::ClTree;
use cx_graph::{AttributedGraph, KeywordId, VertexId};

use crate::profile;
use crate::scratch::VerifyScratch;

/// Per-query verification context: the connected k-core holding the
/// query set as one CL-tree rank interval, and the spans of its
/// single-keyword rank lists, all resident in a borrowed [`VerifyScratch`].
pub(crate) struct Verifier<'a> {
    g: &'a AttributedGraph,
    tree: &'a ClTree,
    /// The query set Q; every verified community contains all of it.
    qs: &'a [VertexId],
    k: u32,
    /// Preorder ranks of the connected k-core containing `qs[0]` — and,
    /// checked at construction, every other q.
    ranks: Range<usize>,
    /// Whether `vs.core` has been materialized — the Dec fast path never
    /// copies the full subtree out.
    core_ready: bool,
    /// Whether the neighbour-mask exact-count filter is armed (k ≥ 1,
    /// |S| ≤ 64).
    filter_ready: bool,
    /// Deferred-peel mode: `vs.spans` address the tree's postings (raw
    /// carrier lists). Otherwise they address `vs.singleton_ranks` (peeled
    /// singleton cores).
    defer: bool,
    /// Upper bound on the size of any verifiable candidate keyword set —
    /// `alive_count()` when the filter is unarmed, else the largest `s`
    /// such that at least k core-resident neighbours of q carry `s` alive
    /// keywords (no community can share more; see
    /// [`Self::max_candidate_size`]).
    max_size: usize,
    vs: &'a mut VerifyScratch,
    /// Verification counter (keyword lookups + candidate traversals),
    /// reported in [`crate::AcqResult`]. Candidates the neighbour-mask
    /// filter refutes are *not* counted here — they reach no traversal.
    pub verified: usize,
    /// Budget meter: everything `verified` counts *plus* every candidate
    /// the filter refutes — one at a time in Inc-S, a whole pruned
    /// subtree at once in Dec — so strategies sweeping a filtered lattice
    /// still terminate under `max_candidates` even when almost nothing
    /// reaches a peel.
    pub examined: usize,
}

impl<'a> Verifier<'a> {
    /// Builds the context, or `None` when the query set shares no
    /// connected k-core: `qs[0]` has none, or some q's rank lies outside
    /// its interval. `qs` must be non-empty.
    ///
    /// `s` is the effective query keyword set, carried by every q ∈ Q;
    /// keywords that provably cannot appear in any answer are pruned
    /// immediately (anti-monotonicity: any superset would fail too). The
    /// neighbour masks and the size cap read `qs[0]` alone: a community
    /// holding all of Q holds `qs[0]`, so their necessary conditions hold
    /// for every Q.
    ///
    /// With the neighbour filter armed (or k = 0) the per-keyword
    /// singleton *peels* are skipped entirely: the verifier keeps the raw
    /// carrier lists — spans of the postings, nothing copied — and defers
    /// all peeling to the per-candidate step. That is sound because every
    /// answer community is contained in each of its keywords' carrier
    /// lists, so peeling q's component among the carriers of the whole
    /// candidate yields the identical community that peeled singleton
    /// cores would. `alive` then over-approximates the exact
    /// singleton-core test — the neighbour-mask filter and the
    /// [`Self::max_candidate_size`] cap keep the candidate lattice as
    /// small as the exact test would. With |S| > 64 and k ≥ 1 the masks do
    /// not fit a word, so singletons are peeled eagerly, their cores
    /// ranked into the scratch, and `alive` is exact.
    pub fn new(
        g: &'a AttributedGraph,
        tree: &'a ClTree,
        qs: &'a [VertexId],
        k: u32,
        s: &[KeywordId],
        vs: &'a mut VerifyScratch,
    ) -> Option<Self> {
        let q = qs[0];
        let ranks = tree.connected_k_core_ranks(q, k)?;
        if !qs.iter().all(|&v| ranks.contains(&(tree.rank_of(v) as usize))) {
            return None;
        }
        vs.core.clear();
        // The keyword table holds the previous query's alive keywords.
        for &w in &vs.alive {
            vs.kw_alive[w.index()] = NO_INDEX;
        }
        vs.alive.clear();
        vs.alive_spos.clear();
        vs.spans.clear();
        vs.singleton_ranks.clear();
        vs.nbr_mask.clear();
        // Exact-count neighbour filter: any verifying community keeps
        // deg(q) ≥ k inside itself, and every member carries the whole
        // candidate set and sits in a k-core — so q needs at least k
        // neighbours of core number ≥ k carrying it. One bitmask per such
        // neighbour over S (bit j ⇔ s[j] ∈ W(u)) turns that necessary
        // condition into a popcount-free AND per candidate.
        let filter_ready = k > 0 && s.len() <= 64;
        if filter_ready {
            for &u in g.neighbors(q) {
                if tree.core(u) < k {
                    continue;
                }
                let wu = g.keywords(u);
                let mut m = 0u64;
                let (mut i, mut j) = (0usize, 0usize);
                while i < s.len() && j < wu.len() {
                    match s[i].cmp(&wu[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            m |= 1 << i;
                            i += 1;
                            j += 1;
                        }
                    }
                }
                vs.nbr_mask.push(m);
            }
        }
        // Deferred-peel mode: keep raw carrier lists and let the
        // per-candidate peel do all the work. Requires the neighbour
        // filter (or k = 0, where every keyword of S — carried by all of
        // Q — already passes the singleton test) to keep the candidate
        // lattice in check.
        let defer = k == 0 || filter_ready;
        let mut v = Self {
            g,
            tree,
            qs,
            k,
            ranks: ranks.clone(),
            core_ready: false,
            filter_ready,
            defer,
            max_size: 0,
            vs,
            verified: 0,
            examined: 0,
        };
        for (spos, &w) in s.iter().enumerate() {
            v.verified += 1;
            v.examined += 1;
            // Fewer than k carrier neighbours → the singleton core cannot
            // exist; skip its lookup and peel outright.
            if v.filter_ready {
                let bit = 1u64 << spos;
                let carriers = v.vs.nbr_mask.iter().filter(|&&m| m & bit != 0).count();
                if carriers < k as usize {
                    continue;
                }
            }
            let t = profile::timer();
            let span = tree.carrier_span(ranks.clone(), w);
            profile::add_walk(t);
            // Exact-count short-circuit: a k-core needs at least k+1
            // vertices — too few carriers can never verify.
            if k > 0 && span.len() <= k as usize {
                continue;
            }
            let span = if defer {
                // The peel is deferred to the candidate step, which
                // grows q's component inside the shortest list.
                (span.start, span.end)
            } else {
                let t = profile::timer();
                let vs = &mut *v.vs;
                let seed = tree.postings()[span].iter().map(|&r| tree.order()[r as usize]);
                let ok =
                    vs.peel.connected_k_core_in_seed_into(g, seed, |_| true, qs, k, &mut vs.peeled);
                profile::add_verify(t);
                if !ok {
                    continue;
                }
                let start = vs.singleton_ranks.len();
                vs.singleton_ranks.extend(vs.peeled.iter().map(|&u| tree.rank_of(u)));
                vs.singleton_ranks[start..].sort_unstable();
                (start, vs.singleton_ranks.len())
            };
            // Every candidate community is contained in each of its
            // keywords' lists, so growing q's component inside any one of
            // them yields the exact answer — whether the lists are raw
            // carriers (deferred-peel mode) or peeled singleton cores
            // (eager mode).
            if v.vs.kw_alive.len() <= w.index() {
                v.vs.kw_alive.resize(w.index() + 1, NO_INDEX);
            }
            v.vs.kw_alive[w.index()] = v.vs.alive.len() as u32;
            v.vs.alive.push(w);
            v.vs.alive_spos.push(spos as u32);
            v.vs.spans.push(span);
        }
        // Candidate-size cap: a verifying S' of size s needs at least k
        // core-resident neighbours of q whose masks cover S' — so at
        // least k masks with popcount ≥ s over the alive bits. The k-th
        // largest such popcount bounds every candidate this query can
        // ever verify, which keeps the deferred-peel lattice as small as
        // the exact singleton test would (usually smaller).
        v.max_size = v.vs.alive.len();
        if v.filter_ready {
            let alive_mask: u64 = v.vs.alive_spos.iter().fold(0, |a, &p| a | (1 << p));
            let mut hist = [0u32; 65];
            for &m in &v.vs.nbr_mask {
                hist[(m & alive_mask).count_ones() as usize] += 1;
            }
            let mut cum = 0u64;
            let mut s_max = 0usize;
            for p in (1..=64usize).rev() {
                cum += u64::from(hist[p]);
                if cum >= u64::from(k) {
                    s_max = p;
                    break;
                }
            }
            v.max_size = v.max_size.min(s_max);
        }
        Some(v)
    }

    /// Largest candidate keyword-set size this query can possibly verify:
    /// `alive_count()` in eager mode, tightened by the neighbour-mask
    /// popcount bound when the filter is armed. Dec starts its downward
    /// sweep here — sizes above the cap are provably hitless.
    pub fn max_candidate_size(&self) -> usize {
        self.max_size
    }

    /// The neighbour-mask filter re-indexed over the alive keywords, for
    /// walks that prune whole subtrees of the lattice: appends one mask
    /// per core-resident neighbour of q (bit `i` set iff it carries
    /// `alive()[i]`) to `out` and returns how many of them must cover a
    /// candidate — k when the filter is armed; 0 when it is not, with
    /// nothing appended, so every candidate is admitted.
    pub fn alive_masks_into(&self, out: &mut Vec<u64>) -> usize {
        if !self.filter_ready {
            return 0;
        }
        let spos = &self.vs.alive_spos;
        out.extend(self.vs.nbr_mask.iter().map(|&m| {
            spos.iter().enumerate().fold(0u64, |acc, (i, &p)| acc | ((m >> p) & 1) << i)
        }));
        self.k as usize
    }

    /// The exact-count necessary condition for a candidate (indices into
    /// [`Self::alive`]): at least k neighbours of q must carry every
    /// candidate keyword, or no qualifying community can exist. Returns
    /// `true` when the candidate survives (or the filter is unarmed).
    fn neighbor_filter_passes(&self, idxs: &[usize]) -> bool {
        if !self.filter_ready {
            return true;
        }
        let m: u64 = idxs.iter().fold(0, |acc, &i| acc | (1 << self.vs.alive_spos[i]));
        let mut carriers = 0u32;
        for &b in &self.vs.nbr_mask {
            if b & m == m {
                carriers += 1;
                if carriers >= self.k {
                    return true;
                }
            }
        }
        false
    }

    /// Vertices of the connected k-core containing Q (sorted), copied out
    /// of its rank interval lazily on first use — the Dec fast path
    /// (top-size candidate verifies) never needs it.
    pub fn core(&mut self) -> &[VertexId] {
        if !self.core_ready {
            let t = profile::timer();
            self.tree.vertices_at_into(self.ranks.clone(), &mut self.vs.core);
            profile::add_walk(t);
            self.core_ready = true;
        }
        &self.vs.core
    }

    /// Surviving keywords of S, sorted by id. In eager mode these
    /// are exactly the keywords whose singleton keyword-core exists; in
    /// deferred-peel mode they are the keywords not refuted by the cheap
    /// necessary conditions (a sound over-approximation — candidates over
    /// dead keywords simply fail their peel).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn alive(&self) -> &[KeywordId] {
        &self.vs.alive
    }

    /// Number of surviving keywords.
    pub fn alive_count(&self) -> usize {
        self.vs.alive.len()
    }

    /// Output of the most recent successful verification.
    pub fn peeled(&self) -> &[VertexId] {
        &self.vs.peeled
    }

    /// Verifies a candidate keyword subset (indices into [`Self::alive`]):
    /// the neighbour filter, then the traversal. On success the community
    /// is in [`Self::peeled`].
    pub fn verify_idxs(&mut self, idxs: &[usize]) -> bool {
        // The exact-count reject still counts as one examined candidate,
        // so the budget meters work uniformly across filtered and peeled
        // candidates.
        if !self.neighbor_filter_passes(idxs) {
            self.examined += 1;
            return false;
        }
        self.verify_admitted(idxs)
    }

    /// Verifies a candidate the caller has already passed through the
    /// neighbour filter (Dec's walk prunes on the masks itself): grow q's
    /// component inside the candidate's shortest list through the
    /// vertices that carry all of it, then peel that component. `idxs`
    /// is not empty (the empty candidate is [`Self::core`]). On success
    /// the community is in [`Self::peeled`].
    pub fn verify_admitted(&mut self, idxs: &[usize]) -> bool {
        let t = profile::timer();
        self.count_verification();
        let VerifyScratch { peel, peeled, spans, singleton_ranks, kw_alive, want, .. } =
            &mut *self.vs;
        let s = idxs
            .iter()
            .copied()
            .min_by_key(|&i| spans[i].1 - spans[i].0)
            .expect("a candidate holds at least one keyword");
        // Every seed vertex carries keyword `s`; test the rest.
        let admit = carries_all(self.g, kw_alive, want, idxs.iter().filter(|&&i| i != s));
        let column = rank_column(self.defer, self.tree, singleton_ranks);
        let order = self.tree.order();
        let seed = column[spans[s].0..spans[s].1].iter().map(|&r| order[r as usize]);
        let ok = peel.connected_k_core_in_seed_into(self.g, seed, admit, self.qs, self.k, peeled);
        profile::add_verify(t);
        ok
    }

    /// Verifies an arbitrary candidate member list. On success the
    /// community is in [`Self::peeled`].
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn verify_members(&mut self, members: &[VertexId]) -> bool {
        self.count_verification();
        let vs = &mut *self.vs;
        vs.peel.connected_k_core_containing_into(self.g, members, self.qs, self.k, &mut vs.peeled)
    }

    /// Verifies the extension of a prefix core by keyword `i`: grow q's
    /// component inside the prefix through the members that carry
    /// `alive()[i]`, then peel it. On success the extended community is
    /// in [`Self::peeled`]. Inc-T's shared-prefix step.
    pub fn verify_prefix_extend(&mut self, prefix: &[VertexId], i: usize) -> bool {
        let t = profile::timer();
        self.count_verification();
        let VerifyScratch { peel, peeled, kw_alive, want, .. } = &mut *self.vs;
        let admit = carries_all(self.g, kw_alive, want, [i].iter());
        let seed = prefix.iter().copied();
        let ok = peel.connected_k_core_in_seed_into(self.g, seed, admit, self.qs, self.k, peeled);
        profile::add_verify(t);
        ok
    }

    /// Counts one traversal in both work meters.
    fn count_verification(&mut self) {
        self.verified += 1;
        self.examined += 1;
    }
}

/// `kw_alive` entry of a keyword that is not alive.
const NO_INDEX: u32 = u32::MAX;

/// The test a vertex passes to join a candidate's component: it carries
/// every alive keyword at `idxs`. Writes the candidate's bitset over alive
/// indices into `want`; `kw_alive` maps a keyword to its alive index. One
/// table lookup per keyword of the vertex, for any number of alive
/// keywords; none at all for an empty `idxs`.
fn carries_all<'b, 'i>(
    g: &'b AttributedGraph,
    kw_alive: &'b [u32],
    want: &'b mut Vec<u64>,
    idxs: impl Iterator<Item = &'i usize>,
) -> impl Fn(VertexId) -> bool + 'b {
    want.clear();
    let mut need = 0;
    for &i in idxs {
        if want.len() <= i / 64 {
            want.resize(i / 64 + 1, 0);
        }
        want[i / 64] |= 1 << (i % 64);
        need += 1;
    }
    let want: &'b [u64] = want;
    move |v| {
        if need == 0 {
            return true;
        }
        let mut have = 0;
        for &w in g.keywords(v) {
            // A keyword outside the table, or not alive, has no word.
            let i = kw_alive.get(w.index()).copied().unwrap_or(NO_INDEX) as usize;
            if want.get(i / 64).is_some_and(|&m| m >> (i % 64) & 1 != 0) {
                have += 1;
                if have == need {
                    return true;
                }
            }
        }
        false
    }
}

/// The column a verifier's spans address: the tree's postings in
/// deferred-peel mode, the scratch's ranked singleton cores otherwise.
fn rank_column<'b>(defer: bool, tree: &'b ClTree, singleton_ranks: &'b [u32]) -> &'b [u32] {
    if defer {
        tree.postings()
    } else {
        singleton_ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_datagen::figure5_graph;
    use std::slice::from_ref;

    #[test]
    fn verifier_prunes_dead_singletons() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        let a = g.vertex_by_label("A").unwrap();
        let s: Vec<KeywordId> =
            ["w", "x", "y"].iter().map(|n| g.interner().get(n).unwrap()).collect();
        let mut vs = crate::QueryScratch::new();
        let mut v = Verifier::new(&g, &tree, from_ref(&a), 2, &s, &mut vs.verify).unwrap();
        // w is only on A → its singleton core dies; x and y survive.
        let names: Vec<&str> =
            v.alive().iter().map(|&w| g.interner().name(w).unwrap()).collect();
        assert_eq!(names, vec!["x", "y"]);
        assert_eq!(v.core().len(), 5); // {A,B,C,D,E}
    }

    #[test]
    fn verify_peels_to_answer() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        let a = g.vertex_by_label("A").unwrap();
        let s: Vec<KeywordId> =
            ["w", "x", "y"].iter().map(|n| g.interner().get(n).unwrap()).collect();
        let mut vs = crate::QueryScratch::new();
        let mut v = Verifier::new(&g, &tree, from_ref(&a), 2, &s, &mut vs.verify).unwrap();
        // {x, y} (both surviving keywords): A, C, D carry both.
        assert!(v.verify_idxs(&[0, 1]));
        let labels: Vec<&str> = v.peeled().iter().map(|&u| g.label(u)).collect();
        assert_eq!(labels, vec!["A", "C", "D"]);
    }

    #[test]
    fn none_when_no_core() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        let a = g.vertex_by_label("A").unwrap();
        let mut vs = crate::QueryScratch::new();
        assert!(Verifier::new(&g, &tree, from_ref(&a), 4, &[], &mut vs.verify).is_none());
    }

    #[test]
    fn empty_candidate_fails_fast() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        let a = g.vertex_by_label("A").unwrap();
        let mut vs = crate::QueryScratch::new();
        let mut v = Verifier::new(&g, &tree, from_ref(&a), 2, &[], &mut vs.verify).unwrap();
        assert!(!v.verify_members(&[]));
        assert!(v.verified >= 1);
    }

    /// A reused verifier scratch must give identical answers to a fresh
    /// one, across queries and graphs.
    #[test]
    fn scratch_reuse_is_transparent() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        let mut pooled = crate::QueryScratch::new();
        for q in g.vertices() {
            for k in 1..=3 {
                let s = g.keywords(q).to_vec();
                let mut fresh = crate::QueryScratch::new();
                let a = Verifier::new(&g, &tree, from_ref(&q), k, &s, &mut pooled.verify);
                let b = Verifier::new(&g, &tree, from_ref(&q), k, &s, &mut fresh.verify);
                match (a, b) {
                    (None, None) => {}
                    (Some(mut a), Some(mut b)) => {
                        assert_eq!(a.core(), b.core(), "q={q} k={k}");
                        assert_eq!(a.alive(), b.alive(), "q={q} k={k}");
                        for i in 0..a.alive_count() {
                            let ra = a.verify_idxs(&[i]);
                            let rb = b.verify_idxs(&[i]);
                            assert_eq!(ra, rb, "q={q} k={k} i={i}");
                            if ra {
                                assert_eq!(a.peeled(), b.peeled(), "q={q} k={k} i={i}");
                            }
                        }
                    }
                    _ => panic!("fresh/pooled verifier existence diverged at q={q} k={k}"),
                }
            }
        }
    }
}
