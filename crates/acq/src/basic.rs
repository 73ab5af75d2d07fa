//! The index-free `Basic` baseline.
//!
//! Straight from Section 3.2's strawman: "first consider all the possible
//! keyword combinations of S, and then return the subgraphs which satisfy
//! the minimum degree constraint and have the most shared keywords". No
//! CL-tree, no single-keyword pruning — every subset of `S` (largest
//! first) is materialised from a whole-graph inverted index and peeled.
//! Complexity is exponential in `|S|`; it exists to be benchmarked against.
//!
//! Basic rebuilds its inverted index per query by design (it is the
//! no-index baseline), so it is not allocation-free; it does reuse the
//! scratch peel buffers for each candidate's verification.

use cx_graph::{AttributedGraph, InvertedIndex, VertexId};

use crate::scratch::{finalize_into, QueryAnswer, StratScratch, VerifyScratch};
use crate::AcqOptions;

/// Runs `Basic` for the query set `qs` into `out`, with `strat.s` already
/// resolved; only the peel buffers of `vs` are used.
pub(crate) fn walk(
    g: &AttributedGraph,
    qs: &[VertexId],
    opts: &AcqOptions,
    vs: &mut VerifyScratch,
    strat: &mut StratScratch,
    out: &mut QueryAnswer,
) {
    let idx = InvertedIndex::build(g);
    let n = strat.s.len();
    let budget = opts.max_candidates;
    let mut verified = 0usize;
    let mut truncated = false;

    for size in (1..=n).rev() {
        strat.clear_hits();
        strat.idxs.clear();
        strat.idxs.extend(0..size);
        loop {
            if budget > 0 && verified >= budget {
                truncated = true;
                break;
            }
            let subset: Vec<_> = strat.idxs.iter().map(|&i| strat.s[i]).collect();
            let members = idx.vertices_with_all(g, &subset);
            verified += 1;
            if vs.peel.connected_k_core_containing_into(g, &members, qs, opts.k, &mut vs.peeled) {
                strat.push_hit(&vs.peeled);
            }
            if !next_combination(&mut strat.idxs, n) {
                break;
            }
        }
        if strat.hit_count() > 0 {
            out.shared_keyword_count = size;
            out.candidates_verified = verified;
            out.truncated = truncated;
            finalize_into(g, strat, true, out);
            return;
        }
        if truncated {
            break;
        }
    }

    // Fallback: the plain connected k-core containing Q, peeled from the
    // whole graph without any index (this is the baseline, after all).
    out.candidates_verified = verified;
    out.truncated = truncated;
    let all: Vec<VertexId> = g.vertices().collect();
    if vs.peel.connected_k_core_containing_into(g, &all, qs, opts.k, &mut vs.peeled) {
        crate::finalize_plain_core(g, &vs.peeled, strat, out);
    }
    // else: out stays empty (Q shares no connected k-core).
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
    use super::next_combination;
    use crate::{acq, AcqOptions, AcqStrategy};
    use cx_cltree::ClTree;
    use cx_datagen::figure5_graph;

    #[test]
    fn basic_verifies_exponentially_many_candidates() {
        let g = figure5_graph();
        let q = g.vertex_by_label("A").unwrap();
        // |S| = |W(A)| = 3 and the answer is at size 2, so Basic checks
        // C(3,3) + C(3,2) = 4 candidates.
        let res = acq(&g, &ClTree::build(&g), q, &AcqOptions::with_k(2), AcqStrategy::Basic);
        assert_eq!(res.candidates_verified, 4);
        assert_eq!(res.shared_keyword_count, 2);
    }

    #[test]
    fn budget_stops_basic() {
        let g = figure5_graph();
        let q = g.vertex_by_label("A").unwrap();
        let opts = AcqOptions::with_k(2).max_candidates(1);
        let res = acq(&g, &ClTree::build(&g), q, &opts, AcqStrategy::Basic);
        assert!(res.truncated);
    }

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
