//! The decremental query algorithm `Dec` — C-Explorer's engine default.
//!
//! After single-keyword pruning, candidate keyword sets are examined from
//! size `|S|` *downward*. The first size with a verified candidate is the
//! maximal keyword cohesiveness, so the search stops there; on realistic
//! queries (community members share most of the query author's keywords)
//! this touches only the top of the subset lattice, which is why the paper
//! picks Dec for the system.
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
    let n = verifier.alive_count();
    // Sizes above the neighbour-mask popcount bound are provably hitless
    // — start the downward sweep below them. With the filter unarmed the
    // cap equals `n`.
    let top = verifier.max_candidate_size();
    let mut truncated = false;

    for size in (1..=top).rev() {
        strat.clear_hits();
        strat.idxs.clear();
        strat.idxs.extend(0..size);
        loop {
            if budget > 0 && verifier.examined >= budget {
                truncated = true;
                break;
            }
            // Request-deadline checkpoint: each iteration runs a full subset
            // peel, so one thread-local read per candidate is noise. Bailing
            // reuses the budget-truncation path; the scope owner (the engine)
            // discards the partial answer and reports `deadline_exceeded`.
            if cx_par::task::cancelled() {
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
            out.shared_keyword_count = size;
            out.candidates_verified = verifier.verified;
            out.truncated = truncated;
            let t = crate::profile::timer();
            finalize_into(g, strat, true, out);
            crate::profile::add_expand(t);
            return;
        }
        if truncated {
            break;
        }
    }

    // No keyword subset verified: fall back to the plain connected k-core.
    out.candidates_verified = verifier.verified;
    out.truncated = truncated;
    crate::finalize_plain_core(g, verifier.core(), strat, out);
}

/// Advances `idxs` to the next size-|idxs| combination of `0..n` in
/// lexicographic order; returns false after the last one.
pub(crate) fn next_combination(idxs: &mut [usize], n: usize) -> bool {
    let k = idxs.len();
    if k == 0 {
        return false;
    }
    let mut i = k;
    while i > 0 {
        i -= 1;
        if idxs[i] != i + n - k {
            idxs[i] += 1;
            for j in i + 1..k {
                idxs[j] = idxs[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combinations_enumerate_lexicographically() {
        let mut idxs = vec![0, 1];
        let mut all = vec![idxs.clone()];
        while next_combination(&mut idxs, 4) {
            all.push(idxs.clone());
        }
        assert_eq!(all, vec![
            vec![0, 1], vec![0, 2], vec![0, 3],
            vec![1, 2], vec![1, 3], vec![2, 3],
        ]);
    }

    #[test]
    fn single_element_combinations() {
        let mut idxs = vec![0];
        let mut count = 1;
        while next_combination(&mut idxs, 5) {
            count += 1;
        }
        assert_eq!(count, 5);
    }

    #[test]
    fn full_size_combination_is_unique() {
        let mut idxs = vec![0, 1, 2];
        assert!(!next_combination(&mut idxs, 3));
    }

    #[test]
    fn empty_combination_terminates() {
        let mut idxs: Vec<usize> = vec![];
        assert!(!next_combination(&mut idxs, 3));
    }
}
