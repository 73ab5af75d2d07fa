//! The decremental query algorithm `Dec` — C-Explorer's engine default.
//!
//! After single-keyword pruning, candidate keyword sets are examined from
//! size `|S|` *downward*. The first size with a verified candidate is the
//! maximal keyword cohesiveness, so the search stops there; on realistic
//! queries (community members share most of the query author's keywords)
//! this touches only the top of the subset lattice, which is why the paper
//! picks Dec for the system.
//!
//! Each size is swept as a depth-first walk over the lexicographic
//! combination tree of the alive keywords. The walk carries the
//! neighbour masks (see [`Verifier::alive_masks_into`]) that cover the
//! current prefix and can still cover a full-size candidate, and cuts a
//! prefix off as soon as fewer than k of them remain: no candidate under
//! it can pass the exact-count filter (anti-monotonicity), so the cut
//! skips exactly the candidates a one-by-one sweep would have refuted.
//! Leaves are reached in lexicographic order, and a cut subtree is
//! metered as the number of candidates under it, so hits, the
//! `max_candidates` budget and both work counters match that sweep
//! candidate for candidate. With the filter unarmed (k = 0 or |S| > 64)
//! the same walk runs with every prefix admitted.
//!
//! Dec is the strategy the engine serves, so it is held to the strictest
//! hot-path contract: with a warmed [`crate::QueryScratch`] it performs **zero**
//! heap allocations per query (asserted by `tests/zero_alloc.rs`).

use cx_graph::AttributedGraph;

use crate::scratch::{finalize_into, QueryAnswer, StratScratch};
use crate::verify::Verifier;

/// Runs `Dec` over a built verifier into `out`, stopping after `budget`
/// examined candidates (0 = unlimited) or at the request deadline.
pub(crate) fn walk(
    g: &AttributedGraph,
    verifier: &mut Verifier<'_>,
    strat: &mut StratScratch,
    budget: usize,
    out: &mut QueryAnswer,
) {
    let (size, truncated) = sweep(verifier, strat, budget);
    out.candidates_verified = verifier.verified;
    out.truncated = truncated;
    if size > 0 {
        out.shared_keyword_count = size;
        let t = crate::profile::timer();
        finalize_into(g, strat, true, out);
        crate::profile::add_expand(t);
        return;
    }
    // No keyword subset verified: fall back to the plain connected k-core.
    crate::finalize_plain_core(g, verifier.core(), strat, out);
}

/// Sweeps candidate sizes downward and leaves the hits of the first size
/// that has any in `strat`. Returns that size (0 when nothing verified)
/// and whether the budget or the deadline cut the sweep short.
fn sweep(verifier: &mut Verifier<'_>, strat: &mut StratScratch, budget: usize) -> (usize, bool) {
    strat.support.clear();
    let need = verifier.alive_masks_into(&mut strat.support);
    let masks = strat.support.len();
    let mut walk = Walk { n: verifier.alive_count(), need, budget, size: 0, truncated: false };
    // Sizes above the neighbour-mask popcount bound are provably hitless
    // — start the downward sweep below them. With the filter unarmed the
    // cap equals `n`.
    for size in (1..=verifier.max_candidate_size()).rev() {
        strat.clear_hits();
        strat.idxs.clear();
        strat.support.truncate(masks);
        // The root's support: every mask wide enough for a size-`size`
        // candidate. The cap guarantees at least `need` of them.
        for j in 0..masks {
            let m = strat.support[j];
            if m.count_ones() as usize >= size {
                strat.support.push(m);
            }
        }
        walk.size = size;
        walk.descend(verifier, strat, masks, strat.support.len(), 0);
        if strat.hit_count() > 0 {
            return (size, walk.truncated);
        }
        if walk.truncated {
            break;
        }
    }
    (0, walk.truncated)
}

/// One size's depth-first walk over the combination tree.
struct Walk {
    /// Number of alive keywords (indices `0..n`).
    n: usize,
    /// Masks that must cover a candidate: k, or 0 with the filter unarmed.
    need: usize,
    budget: usize,
    /// Candidate size of this sweep.
    size: usize,
    truncated: bool,
}

impl Walk {
    /// Extends the prefix in `strat.idxs` by each index from `start` on,
    /// in lexicographic order. `strat.support[lo..hi]` holds the masks
    /// that cover the prefix and can still cover a size-`size` candidate;
    /// each child's masks are pushed above them and popped on return.
    fn descend(
        &mut self,
        verifier: &mut Verifier<'_>,
        strat: &mut StratScratch,
        lo: usize,
        hi: usize,
        start: usize,
    ) {
        // Indices still to choose after this level's.
        let rest = self.size - strat.idxs.len() - 1;
        for i in start..self.n - rest {
            // Prefix + i is covered by the masks carrying i that keep at
            // least `rest` bits above it for the remaining indices.
            let child_lo = strat.support.len();
            for j in lo..hi {
                let above = strat.support[j] >> i;
                if above & 1 != 0 && (above >> 1).count_ones() as usize >= rest {
                    strat.support.push(strat.support[j]);
                }
            }
            let child_hi = strat.support.len();
            if child_hi - child_lo < self.need {
                // Anti-monotone cut: no candidate under prefix + i can be
                // covered `need` times. Meter all of them as refuted.
                strat.support.truncate(child_lo);
                if !self.skip(verifier, binomial(self.n - 1 - i, rest)) {
                    return;
                }
                continue;
            }
            strat.idxs.push(i);
            if rest > 0 {
                self.descend(verifier, strat, child_lo, child_hi, i + 1);
            } else if self.open(verifier) && verifier.verify_admitted(&strat.idxs) {
                strat.push_hit(verifier.peeled());
            }
            strat.idxs.pop();
            strat.support.truncate(child_lo);
            if self.truncated {
                return;
            }
        }
    }

    /// Checkpoint before a candidate is examined: false, with `truncated`
    /// set, once the budget is spent or the request deadline has passed.
    /// Each leaf and each cut costs one check — never more than the
    /// candidates it stands for. Bailing reuses the budget-truncation
    /// path; the scope owner (the engine) discards the partial answer and
    /// reports `deadline_exceeded`.
    fn open(&mut self, verifier: &Verifier<'_>) -> bool {
        if (self.budget > 0 && verifier.examined >= self.budget) || cx_par::task::cancelled() {
            self.truncated = true;
            return false;
        }
        true
    }

    /// Meters a cut subtree of `count` refuted candidates. When the budget
    /// runs out inside it, stops exactly where a one-by-one sweep would:
    /// `examined` at the budget, `truncated` set.
    fn skip(&mut self, verifier: &mut Verifier<'_>, count: usize) -> bool {
        if !self.open(verifier) {
            return false;
        }
        let examined = verifier.examined.saturating_add(count);
        if self.budget > 0 && examined > self.budget {
            verifier.examined = self.budget;
            self.truncated = true;
            return false;
        }
        verifier.examined = examined;
        true
    }
}

/// `C(n, r)` for `n ≤ 64`: cuts only happen with the filter armed, where
/// the alive keywords fit one mask word.
fn binomial(n: usize, r: usize) -> usize {
    BINOMIAL[n][r] as usize
}

/// Pascal's triangle up to row 64; `C(64, 32)` < 2⁶¹ fits a word.
static BINOMIAL: [[u64; 65]; 65] = {
    let mut t = [[0u64; 65]; 65];
    let mut n = 0;
    while n < 65 {
        t[n][0] = 1;
        let mut r = 1;
        while r <= n {
            t[n][r] = t[n - 1][r - 1] + t[n - 1][r];
            r += 1;
        }
        n += 1;
    }
    t
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::next_combination;
    use crate::QueryScratch;
    use cx_cltree::ClTree;
    use cx_datagen::{dblp_like, DblpParams};
    use cx_graph::VertexId;
    use cx_par::rng::Rng64;

    /// The one-by-one sweep the walk replaced: every combination of every
    /// size in lexicographic order, refuted by the filter or peeled.
    fn reference_sweep(
        verifier: &mut Verifier<'_>,
        strat: &mut StratScratch,
        budget: usize,
    ) -> (usize, bool) {
        let n = verifier.alive_count();
        let mut truncated = false;
        for size in (1..=verifier.max_candidate_size()).rev() {
            strat.clear_hits();
            strat.idxs.clear();
            strat.idxs.extend(0..size);
            loop {
                if budget > 0 && verifier.examined >= budget {
                    truncated = true;
                    break;
                }
                if verifier.verify_idxs(&strat.idxs) {
                    strat.push_hit(verifier.peeled());
                }
                if !next_combination(&mut strat.idxs, n) {
                    break;
                }
            }
            if strat.hit_count() > 0 {
                return (size, truncated);
            }
            if truncated {
                break;
            }
        }
        (0, truncated)
    }

    /// The pruned walk reaches the same leaves in the same order as the
    /// one-by-one sweep and meters its cuts candidate for candidate: hits,
    /// both work counters and truncation agree at every budget.
    #[test]
    fn walk_matches_one_by_one_sweep() {
        let (g, _) = dblp_like(&DblpParams::scaled(3_000, 7));
        let tree = ClTree::build(&g);
        let mut by_degree: Vec<VertexId> = g.vertices().collect();
        by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v.0));
        let mut queries = by_degree[..3].to_vec();
        let mut rng = Rng64::seed_from_u64(0xDEC);
        while queries.len() < 10 {
            let v = VertexId(rng.gen_range(0..g.vertex_count() as u32));
            if g.degree(v) >= 2 {
                queries.push(v);
            }
        }
        let (mut cut, mut truncated_runs) = (0, 0);
        let (mut walked, mut reference) = (QueryScratch::new(), QueryScratch::new());
        for &q in &queries {
            let s = g.keywords(q);
            assert_eq!(s.len(), 20, "q={q}");
            for k in 1..=6 {
                for budget in [0, 1, 7, 50, 2000] {
                    let at = format!("q={q} deg={} k={k} budget={budget}", g.degree(q));
                    let qs = std::slice::from_ref(&q);
                    let Some(mut a) = Verifier::new(&g, &tree, qs, k, s, &mut walked.verify) else {
                        continue;
                    };
                    let got = sweep(&mut a, &mut walked.strat, budget);
                    let mut b = Verifier::new(&g, &tree, qs, k, s, &mut reference.verify).unwrap();
                    let want = reference_sweep(&mut b, &mut reference.strat, budget);
                    assert_eq!(got, want, "size and truncation at {at}");
                    assert_eq!(a.verified, b.verified, "verified at {at}");
                    assert_eq!(a.examined, b.examined, "examined at {at}");
                    let (w, r) = (&walked.strat, &reference.strat);
                    assert_eq!(w.hits_off, r.hits_off, "hit boundaries at {at}");
                    assert_eq!(w.hits_data, r.hits_data, "hit members at {at}");
                    cut += usize::from(a.examined > a.verified);
                    truncated_runs += usize::from(got.1);
                }
            }
        }
        assert!(cut > 0, "no run refuted a candidate: the masks were never exercised");
        assert!(truncated_runs > 0, "no budget cut a run short");
    }

    #[test]
    fn binomial_table_matches_pascal() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(20, 10), 184_756);
        assert_eq!(binomial(64, 32), 1_832_624_140_942_590_534);
        assert_eq!(binomial(3, 4), 0);
    }
}
