//! Keyword-core verification — the inner loop shared by every strategy.
//!
//! A candidate keyword set `S'` verifies iff the subgraph induced on
//! vertices carrying all of `S'` contains a connected k-core with every
//! query vertex q ∈ Q (one q for the single-vertex query). The carriers
//! of one keyword inside q's connected k-core are a slice of the
//! CL-tree's postings — ascending preorder *ranks*, read in place — so a
//! candidate is intersected in rank space (any total order intersects),
//! only the usually tiny intersection is mapped back to vertex ids, and
//! one subset peel decides it.
//!
//! The verifier is a *view* over a [`VerifyScratch`]: all of its state —
//! the cached k-core, the keyword-list spans, the intersection
//! accumulators and the peel buffers — lives in the scratch and is reused
//! across queries, so steady-state verification performs no heap
//! allocation.

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
    /// Verification counter (keyword lookups + intersect/peel runs),
    /// reported in [`crate::AcqResult`]. Candidates the neighbour-mask
    /// filter refutes are *not* counted here — they reach no
    /// intersection or peel.
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
    /// lists, so intersecting raw lists and peeling the (tiny)
    /// intersection yields the identical community that peeled singleton
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
                // The peel is deferred to the candidate step, which works
                // on intersections.
                (span.start, span.end)
            } else {
                let t = profile::timer();
                let vs = &mut *v.vs;
                vs.kw_list.clear();
                vs.kw_list.extend(tree.postings()[span].iter().map(|&r| tree.order()[r as usize]));
                let ok =
                    vs.peel.connected_k_core_containing_into(g, &vs.kw_list, qs, k, &mut vs.peeled);
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
            // keywords' lists, so intersecting them and peeling the
            // intersection yields the exact answer — whether the lists are
            // raw carriers (deferred-peel mode) or peeled singleton cores
            // (eager mode).
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

    /// Intersects the rank lists of the keywords at `idxs` and writes the
    /// members into the scratch accumulator (in rank order — the peel
    /// takes a set). Empty `idxs` yields the whole k-core.
    ///
    /// Seeds from the *shortest* list, read in place — intersections
    /// only shrink, so the running result is always the short side of
    /// [`intersect_gallop`], and each step costs a gallop per surviving
    /// member rather than a pass over a carrier list.
    fn intersect_into_acc(&mut self, idxs: &[usize]) {
        let Some(&first) = idxs.first() else {
            self.core();
            let vs = &mut *self.vs;
            vs.acc.clear();
            vs.acc.extend_from_slice(&vs.core);
            return;
        };
        let VerifyScratch { spans, singleton_ranks, ranks, ranks_tmp, acc, .. } = &mut *self.vs;
        let column = rank_column(self.defer, self.tree, singleton_ranks);
        let list = |i: usize| &column[spans[i].0..spans[i].1];
        let mut smallest = first;
        for &i in &idxs[1..] {
            if list(i).len() < list(smallest).len() {
                smallest = i;
            }
        }
        let mut seeded = false;
        for &i in idxs {
            if i == smallest {
                continue;
            }
            if seeded {
                intersect_gallop(ranks, list(i), ranks_tmp);
                std::mem::swap(ranks, ranks_tmp);
            } else {
                intersect_gallop(list(smallest), list(i), ranks);
                seeded = true;
            }
            if ranks.is_empty() {
                break;
            }
        }
        let order = self.tree.order();
        let members: &[u32] = if seeded { ranks } else { list(smallest) };
        acc.clear();
        acc.extend(members.iter().map(|&r| order[r as usize]));
    }

    /// Peels the accumulator to the connected k-core containing Q; the
    /// result lands in [`Self::peeled`]. Increments the work counter. The
    /// peel itself rejects a member set of fewer than k+1 vertices or
    /// without some q before doing any work.
    fn peel_acc(&mut self) -> bool {
        self.verified += 1;
        self.examined += 1;
        let vs = &mut *self.vs;
        vs.peel.connected_k_core_containing_into(self.g, &vs.acc, self.qs, self.k, &mut vs.peeled)
    }

    /// Verifies a candidate keyword subset (indices into [`Self::alive`]):
    /// intersect the lists, then peel. On success the community is in
    /// [`Self::peeled`].
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
    /// neighbour filter (Dec's walk prunes on the masks itself): intersect
    /// the lists, then peel. On success the community is in
    /// [`Self::peeled`].
    pub fn verify_admitted(&mut self, idxs: &[usize]) -> bool {
        let t = profile::timer();
        self.intersect_into_acc(idxs);
        let ok = self.peel_acc();
        profile::add_verify(t);
        ok
    }

    /// Verifies an arbitrary candidate member list. On success the
    /// community is in [`Self::peeled`].
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn verify_members(&mut self, members: &[VertexId]) -> bool {
        self.vs.acc.clear();
        self.vs.acc.extend_from_slice(members);
        self.peel_acc()
    }

    /// Verifies the extension of a prefix core by keyword `i`: keep the
    /// prefix members whose rank is in `list(i)`, then peel. On success
    /// the extended community is in [`Self::peeled`]. Inc-T's
    /// shared-prefix step.
    pub fn verify_prefix_extend(&mut self, prefix: &[VertexId], i: usize) -> bool {
        let t = profile::timer();
        {
            let vs = &mut *self.vs;
            let column = rank_column(self.defer, self.tree, &vs.singleton_ranks);
            let list = &column[vs.spans[i].0..vs.spans[i].1];
            vs.acc.clear();
            vs.acc.extend(
                prefix.iter().filter(|&&v| list.binary_search(&self.tree.rank_of(v)).is_ok()),
            );
        }
        let ok = self.peel_acc();
        profile::add_verify(t);
        ok
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

/// Sorted intersection of two ascending lists into `out` (cleared first),
/// probing `big` once per element of `small`. Everything left of `lo` is
/// below the current element, so each probe gallops from the last match:
/// it doubles `step` until `big[lo + step]` reaches `x`, then
/// binary-searches only the bracket the last doubling skipped. A probe
/// costs O(log gap) and stays near the previous one in memory, instead
/// of bisecting the whole remainder of `big`.
fn intersect_gallop(small: &[u32], big: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let mut lo = 0usize;
    for &x in small {
        if lo >= big.len() {
            break;
        }
        let mut step = 1usize;
        while lo + step < big.len() && big[lo + step] < x {
            step *= 2;
        }
        // `big[lo + step / 2]` is below `x` once `step` has doubled, and
        // `big[lo + step]`, where it exists, is not.
        let (start, end) = (lo + step / 2, (lo + step + 1).min(big.len()));
        let p = start + big[start..end].partition_point(|&y| y < x);
        if p < end && big[p] == x {
            out.push(x);
            lo = p + 1;
        } else {
            lo = p;
        }
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

    /// `intersect_gallop` against a naive filter of one list by the
    /// other, on ascending `u32` lists: empty sides, identical and
    /// disjoint lists, singletons, matches exactly where a doubling step
    /// lands (`lo + 2^j`) and at `big`'s last element, and random lists
    /// skewed 1:1 to 1:10⁵.
    #[test]
    fn gallop_matches_a_naive_intersection() {
        use cx_par::rng::Rng64;
        let check = |small: &[u32], big: &[u32]| {
            let want: Vec<u32> =
                small.iter().copied().filter(|x| big.binary_search(x).is_ok()).collect();
            // A dirty buffer: the kernel clears it first.
            let mut out = vec![u32::MAX; 3];
            intersect_gallop(small, big, &mut out);
            assert_eq!(out, want, "small {} / big {} elements", small.len(), big.len());
            intersect_gallop(big, small, &mut out);
            assert_eq!(out, want, "swapped: small {} / big {}", big.len(), small.len());
        };
        let big: Vec<u32> = (0..5_000).map(|i| 3 * i + 1).collect();
        check(&[], &[]);
        check(&[], &big);
        check(&big, &big);
        check(&big.iter().map(|&x| x + 1).collect::<Vec<_>>(), &big);
        check(&[0], &big);
        check(&[u32::MAX], &big);
        check(&[7], &[7]);
        check(&[7], &[8]);
        check(&[*big.last().unwrap()], &big);
        check(&[big[0], big[big.len() - 1]], &big);
        for j in 0..12 {
            // One match exactly at `lo + 2^j` from the start and from a
            // previous match, then a chain of such matches to the end.
            let at = 1usize << j;
            check(&[big[at]], &big);
            check(&[big[0], big[at]], &big);
            check(&[big[5], big[5 + 1 + at]], &big);
            let mut chain = Vec::new();
            let mut lo = 0;
            while lo + at < big.len() {
                chain.push(big[lo + at]);
                lo += at + 1;
            }
            if chain.last() != big.last() {
                chain.push(*big.last().unwrap());
            }
            check(&chain, &big);
        }
        let mut rng = Rng64::seed_from_u64(44);
        for skew in [1usize, 2, 10, 100, 1_000, 10_000, 100_000] {
            for _ in 0..3 {
                // Strictly ascending: random gaps of 1..=4.
                let big: Vec<u32> = (0..100_000)
                    .scan(0u32, |at, _| {
                        *at += rng.gen_range(1..=4u32);
                        Some(*at)
                    })
                    .collect();
                // Half the short list is drawn from `big`, half at random.
                let mut small: Vec<u32> = (0..big.len() / skew)
                    .map(|i| {
                        if i % 2 == 0 {
                            big[rng.gen_range(0..big.len())]
                        } else {
                            rng.gen_range(0..=big[big.len() - 1] + 1)
                        }
                    })
                    .collect();
                small.sort_unstable();
                small.dedup();
                check(&small, &big);
            }
        }
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
