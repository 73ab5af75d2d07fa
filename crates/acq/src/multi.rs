//! The multi-query-vertex ACQ variant (Section 3.2): given a *set* `Q` of
//! query vertices, find connected subgraphs containing all of `Q` with
//! minimum degree ≥ k and a maximal shared keyword set.
//!
//! The UI exposes this via the "+" icon next to the name box — e.g. query
//! two co-authors jointly to find the community they share.

use cx_cltree::ClTree;
use cx_graph::{AttributedGraph, KeywordId, VertexId};
use cx_kcore::subset::connected_k_core_containing_all;

use crate::dec::next_combination;
use crate::{AcqOptions, AcqResult};

/// Runs the multi-vertex query with a Dec-style (large→small) sweep.
///
/// The default keyword set is `∩_{q∈Q} W(q)` — a keyword can only be
/// shared by the whole community if every query vertex carries it.
/// Returns an empty result when `Q` is empty, any vertex is invalid, or
/// the query vertices do not share a connected k-core.
pub fn acq_multi(
    g: &AttributedGraph,
    tree: &ClTree,
    qs: &[VertexId],
    opts: &AcqOptions,
) -> AcqResult {
    if qs.is_empty() || qs.iter().any(|&q| !g.contains(q)) {
        return AcqResult::empty();
    }
    let _span = cx_obs::span("acq.multi");
    let q0 = qs[0];
    // All query vertices must live in the same connected k-core.
    let Some(subtree) = tree.subtree_root_for(q0, opts.k) else {
        return AcqResult::empty();
    };
    let core = tree.subtree_vertices(subtree);
    if qs.iter().any(|&q| core.binary_search(&q).is_err()) {
        return AcqResult::empty();
    }

    // S defaults to the common keywords of all query vertices; an explicit
    // S is filtered down to that intersection.
    let mut common: Vec<KeywordId> = g.keywords(q0).to_vec();
    for &q in &qs[1..] {
        common = cx_graph::keywords::intersect_sorted(&common, g.keywords(q));
    }
    let s: Vec<KeywordId> = if opts.keywords.is_empty() {
        common
    } else {
        let mut s: Vec<KeywordId> = opts
            .keywords
            .iter()
            .copied()
            .filter(|w| common.binary_search(w).is_ok())
            .collect();
        s.sort_unstable();
        s.dedup();
        s
    };

    let mut verified = 0usize;
    let mut truncated = false;
    let budget = opts.max_candidates;

    // Singleton pruning within the shared k-core. Carrier lists are
    // slices of the CL-tree's postings (ascending ranks); candidates are
    // intersected in rank space and mapped to vertices for the peel,
    // which takes its members as a set.
    let vertices = |ranks: &[u32]| -> Vec<VertexId> {
        ranks.iter().map(|&r| tree.order()[r as usize]).collect()
    };
    let mut lists: Vec<&[u32]> = Vec::new();
    for &w in &s {
        let ranks = tree.carriers(subtree, w);
        verified += 1;
        if connected_k_core_containing_all(g, &vertices(ranks), qs, opts.k).is_some() {
            lists.push(ranks);
        }
    }

    let n = lists.len();
    for size in (1..=n).rev() {
        let mut hits: Vec<Vec<VertexId>> = Vec::new();
        let mut idxs: Vec<usize> = (0..size).collect();
        loop {
            if budget > 0 && verified >= budget {
                truncated = true;
                break;
            }
            let (mut ranks, mut tmp) = (lists[idxs[0]].to_vec(), Vec::new());
            for &i in &idxs[1..] {
                crate::verify::intersect_sorted_into(&ranks, lists[i], &mut tmp);
                std::mem::swap(&mut ranks, &mut tmp);
            }
            verified += 1;
            if let Some(c) = connected_k_core_containing_all(g, &vertices(&ranks), qs, opts.k) {
                hits.push(c);
            }
            if !next_combination(&mut idxs, n) {
                break;
            }
        }
        if !hits.is_empty() {
            return AcqResult {
                communities: crate::finalize(g, &s, hits),
                shared_keyword_count: size,
                candidates_verified: verified,
                truncated,
            };
        }
        if truncated {
            break;
        }
    }

    // Fallback: the plain connected k-core containing all of Q.
    match connected_k_core_containing_all(g, &core, qs, opts.k) {
        Some(plain) => AcqResult {
            communities: crate::finalize(g, &[], vec![plain]),
            shared_keyword_count: 0,
            candidates_verified: verified,
            truncated,
        },
        None => AcqResult::empty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{acq, AcqStrategy};
    use cx_datagen::figure5_graph;

    #[test]
    fn multi_with_single_vertex_matches_dec() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        for q in g.vertices() {
            for k in 1..=3 {
                let opts = AcqOptions::with_k(k);
                let single = acq(&g, &tree, q, &opts, AcqStrategy::Dec);
                let multi = acq_multi(&g, &tree, &[q], &opts);
                assert_eq!(single.communities, multi.communities, "q={q} k={k}");
                assert_eq!(
                    single.shared_keyword_count, multi.shared_keyword_count,
                    "q={q} k={k}"
                );
            }
        }
    }

    #[test]
    fn joint_query_on_figure5() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        let a = g.vertex_by_label("A").unwrap();
        let d = g.vertex_by_label("D").unwrap();
        // W(A) ∩ W(D) = {x, y}; both are in the K4. The joint community is
        // {A, C, D} sharing {x, y}.
        let res = acq_multi(&g, &tree, &[a, d], &AcqOptions::with_k(2));
        assert_eq!(res.shared_keyword_count, 2);
        assert_eq!(res.communities.len(), 1);
        let labels: Vec<&str> =
            res.communities[0].vertices().iter().map(|&v| g.label(v)).collect();
        assert_eq!(labels, vec!["A", "C", "D"]);
    }

    #[test]
    fn disjoint_query_vertices_yield_empty() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        let a = g.vertex_by_label("A").unwrap();
        let h = g.vertex_by_label("H").unwrap();
        let res = acq_multi(&g, &tree, &[a, h], &AcqOptions::with_k(1));
        assert!(res.communities.is_empty());
    }

    #[test]
    fn no_common_keywords_falls_back_to_plain_core() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        let b = g.vertex_by_label("B").unwrap(); // W(B) = {x}
        let e = g.vertex_by_label("E").unwrap(); // W(E) = {y, z}
        // No common keyword, but B and E share the 2-core {A,B,C,D,E}.
        let res = acq_multi(&g, &tree, &[b, e], &AcqOptions::with_k(2));
        assert_eq!(res.shared_keyword_count, 0);
        assert_eq!(res.communities.len(), 1);
        assert_eq!(res.communities[0].len(), 5);
    }

    #[test]
    fn empty_and_invalid_queries() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        assert!(acq_multi(&g, &tree, &[], &AcqOptions::with_k(1)).communities.is_empty());
        assert!(acq_multi(&g, &tree, &[VertexId(99)], &AcqOptions::with_k(1))
            .communities
            .is_empty());
    }
}
