//! The incremental query algorithms `Inc-S` and `Inc-T`.
//!
//! Both examine candidate keyword sets from *small to large*. `Inc-S`
//! proceeds level by level with apriori candidate generation; `Inc-T`
//! walks a set-enumeration tree depth-first, sharing the peeled vertex
//! set of each verified prefix with all of its extensions, which seed
//! their traversal with it
//! (and pruning a failing prefix's entire subtree, which is sound because
//! keyword-cores shrink as keywords are added).
//!
//! Both run their peeling against the reusable scratch. `Inc-T` keeps its
//! prefix cores on a flattened stack in the scratch and is allocation-free
//! in steady state; `Inc-S` retains small per-level bookkeeping
//! allocations (the apriori join's candidate-set table), which is
//! acceptable because the engine's hot path is `Dec`.

use std::collections::HashSet;

use cx_graph::{AttributedGraph, VertexId};

use crate::scratch::{finalize_into, QueryAnswer, StratScratch};
use crate::verify::Verifier;

/// Runs `Inc-S` (level-wise apriori) over a built verifier into `out`,
/// stopping after `budget` examined candidates (0 = unlimited).
pub(crate) fn walk_inc_s(
    g: &AttributedGraph,
    verifier: &mut Verifier<'_>,
    strat: &mut StratScratch,
    budget: usize,
    out: &mut QueryAnswer,
) {
    let n = verifier.alive_count();
    let mut truncated = false;

    // Level 1: every surviving singleton, re-verified to capture its core.
    let mut level_sets: Vec<Vec<usize>> = Vec::new();
    strat.clear_hits();
    for i in 0..n {
        if truncated || (budget > 0 && verifier.examined >= budget) {
            truncated = true;
            break;
        }
        if verifier.verify_idxs(&[i]) {
            level_sets.push(vec![i]);
            strat.push_hit(verifier.peeled());
        }
    }

    if level_sets.is_empty() {
        out.candidates_verified = verifier.verified;
        out.truncated = truncated;
        crate::finalize_plain_core(g, verifier.core(), strat, out);
        return;
    }

    let mut size = 1usize;
    while !truncated {
        // Apriori join: combine sets sharing their first (size-1) elements.
        let prev: HashSet<Vec<usize>> = level_sets.iter().cloned().collect();
        let mut next_sets: Vec<Vec<usize>> = Vec::new();
        let mut next_hits: Vec<Vec<VertexId>> = Vec::new();
        'outer: for a in 0..level_sets.len() {
            for b in (a + 1)..level_sets.len() {
                if budget > 0 && verifier.examined >= budget {
                    truncated = true;
                    break 'outer;
                }
                let (sa, sb) = (&level_sets[a], &level_sets[b]);
                if sa[..size - 1] != sb[..size - 1] {
                    continue;
                }
                let mut cand = sa.clone();
                cand.push(sb[size - 1]);
                cand.sort_unstable();
                // All size-subsets must be verified successes.
                let mut sub = cand.clone();
                let all_present = (0..cand.len()).all(|drop| {
                    sub.clone_from(&cand);
                    sub.remove(drop);
                    prev.contains(&sub)
                });
                if !all_present {
                    continue;
                }
                if verifier.verify_idxs(&cand) {
                    next_sets.push(cand);
                    next_hits.push(verifier.peeled().to_vec());
                }
            }
        }
        if next_sets.is_empty() {
            break;
        }
        size += 1;
        level_sets = next_sets;
        strat.clear_hits();
        for hit in &next_hits {
            strat.push_hit(hit);
        }
    }

    out.shared_keyword_count = size;
    out.candidates_verified = verifier.verified;
    out.truncated = truncated;
    finalize_into(g, strat, true, out);
}

/// Depth-first state for `Inc-T`; best hits accumulate in the strategy
/// scratch's flattened hit buffers.
struct Dfs {
    best_size: usize,
    truncated: bool,
    budget: usize,
}

/// One set-enumeration-tree expansion: extend the prefix core stored at
/// `prefix_data[lo..hi]` on the scratch's flattened prefix stack with each
/// keyword `i ≥ start`, recursing on verified extensions.
fn dfs(
    verifier: &mut Verifier<'_>,
    strat: &mut StratScratch,
    lo: usize,
    hi: usize,
    start: usize,
    depth: usize,
    state: &mut Dfs,
) {
    for i in start..verifier.alive_count() {
        if state.budget > 0 && verifier.examined >= state.budget {
            state.truncated = true;
            return;
        }
        // Extend the prefix with keyword i: its keyword-core lies among
        // the members of the prefix's peeled core that carry i.
        if verifier.verify_prefix_extend(&strat.prefix_data[lo..hi], i) {
            let size = depth + 1;
            if size > state.best_size {
                state.best_size = size;
                strat.clear_hits();
            }
            if size == state.best_size {
                strat.push_hit(verifier.peeled());
            }
            // Push the peeled core onto the prefix stack and recurse.
            let child_lo = strat.prefix_data.len();
            strat.prefix_data.extend_from_slice(verifier.peeled());
            let child_hi = strat.prefix_data.len();
            dfs(verifier, strat, child_lo, child_hi, i + 1, size, state);
            strat.prefix_data.truncate(child_lo);
            if state.truncated {
                return;
            }
        }
        // A failing extension prunes its subtree (anti-monotone).
    }
}

/// Runs `Inc-T` (set-enumeration tree, shared prefix verification) over a
/// built verifier into `out`, stopping after `budget` examined candidates
/// (0 = unlimited).
pub(crate) fn walk_inc_t(
    g: &AttributedGraph,
    verifier: &mut Verifier<'_>,
    strat: &mut StratScratch,
    budget: usize,
    out: &mut QueryAnswer,
) {
    let mut state = Dfs { best_size: 0, truncated: false, budget };

    strat.clear_hits();
    // The DFS root: the plain connected k-core, at the bottom of the
    // prefix stack.
    strat.prefix_data.clear();
    strat.prefix_data.extend_from_slice(verifier.core());
    let root_hi = strat.prefix_data.len();
    dfs(verifier, strat, 0, root_hi, 0, 0, &mut state);

    out.candidates_verified = verifier.verified;
    out.truncated = state.truncated;
    if state.best_size == 0 {
        crate::finalize_plain_core(g, verifier.core(), strat, out);
        return;
    }
    out.shared_keyword_count = state.best_size;
    finalize_into(g, strat, true, out);
}

#[cfg(test)]
mod tests {
    use crate::{acq, AcqOptions, AcqStrategy};
    use cx_cltree::ClTree;
    use cx_datagen::small_collab_graph;

    /// Inc-S and Inc-T agree with each other on the collab fixture for a
    /// sweep of queries (full cross-strategy agreement is covered by the
    /// crate-level tests and `tests/check_oracle.rs`).
    #[test]
    fn inc_variants_agree_on_collab_graph() {
        let g = small_collab_graph();
        let tree = ClTree::build(&g);
        for q in g.vertices() {
            for k in 1..=4 {
                let opts = AcqOptions::with_k(k);
                let a = acq(&g, &tree, q, &opts, AcqStrategy::IncS);
                let b = acq(&g, &tree, q, &opts, AcqStrategy::IncT);
                assert_eq!(a.shared_keyword_count, b.shared_keyword_count, "q={q} k={k}");
                assert_eq!(a.communities, b.communities, "q={q} k={k}");
            }
        }
    }

    /// Inc-T explores at most as many candidates as Inc-S (shared prefixes
    /// + subtree pruning can only help).
    #[test]
    fn inc_t_verifies_no_more_than_inc_s() {
        let g = small_collab_graph();
        let tree = ClTree::build(&g);
        let q = g.vertex_by_label("db-author-0").unwrap();
        let opts = AcqOptions::with_k(3);
        let a = acq(&g, &tree, q, &opts, AcqStrategy::IncS);
        let b = acq(&g, &tree, q, &opts, AcqStrategy::IncT);
        assert!(
            b.candidates_verified <= a.candidates_verified,
            "Inc-T {} > Inc-S {}",
            b.candidates_verified,
            a.candidates_verified
        );
    }

    #[test]
    fn budget_truncates_cleanly() {
        let g = small_collab_graph();
        let tree = ClTree::build(&g);
        let q = g.vertex_by_label("db-author-0").unwrap();
        let opts = AcqOptions::with_k(2).max_candidates(3);
        for strat in [AcqStrategy::IncS, AcqStrategy::IncT] {
            let res = acq(&g, &tree, q, &opts, strat);
            assert!(res.truncated);
            assert!(res.candidates_verified <= 4); // 3 + the in-flight one
        }
    }
}
