#![warn(missing_docs)]

//! # cx-acq — attributed community (ACQ) search
//!
//! Implements Problem 1 of the paper: given an attributed graph `G`, a
//! query vertex `q`, an integer `k` and a keyword set `S ⊆ W(q)`, return
//! the subgraphs `Gq` that (1) are connected and contain q, (2) have every
//! vertex with degree ≥ k inside `Gq` (structure cohesiveness), and
//! (3) maximise the number of keywords of `S` shared by *every* vertex
//! (keyword cohesiveness, `L(Gq, S)`).
//!
//! Four query strategies are provided, matching the paper's Section 3.2:
//!
//! * [`AcqStrategy::Basic`] — the strawman: enumerate every subset of `S`
//!   from largest to smallest with no index and no pruning; exponential in
//!   `|S|`, kept as the baseline the paper argues against.
//! * [`AcqStrategy::IncS`] — incremental small→large: verify singletons,
//!   then grow candidate sets level by level with apriori joins (a set is
//!   a candidate only if all its subsets verified).
//! * [`AcqStrategy::IncT`] — incremental with a set-enumeration tree:
//!   depth-first extension of verified prefixes, sharing the intersection
//!   and peeling work along the prefix (a failing prefix prunes its whole
//!   subtree by anti-monotonicity).
//! * [`AcqStrategy::Dec`] — decremental large→small: after single-keyword
//!   pruning, examine subsets from size `|S|` downward and stop at the
//!   first size with a hit. Generally the fastest (what C-Explorer runs in
//!   production), because realistic communities share most of the query's
//!   keywords so the answer sits near the top of the lattice.
//!
//! All strategies except `Basic` run against the [`cx_cltree::ClTree`]
//! index. A multi-query-vertex variant ([`multi::acq_multi`]) implements
//! the paper's `Q`-set extension.

pub mod basic;
pub mod dec;
pub mod inc;
pub mod multi;
pub mod profile;
pub mod scratch;
pub mod verify;

use cx_cltree::ClTree;
use cx_graph::{AttributedGraph, Community, KeywordId, VertexId};

pub use scratch::{QueryAnswer, QueryScratch};

/// Which ACQ query algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AcqStrategy {
    /// Index-free exhaustive enumeration (baseline).
    Basic,
    /// Incremental, small→large candidate sets (apriori joins).
    IncS,
    /// Incremental, set-enumeration tree with shared verification.
    IncT,
    /// Decremental, large→small candidate sets (the system default).
    Dec,
}

impl AcqStrategy {
    /// All strategies, in the order the paper lists them.
    pub const ALL: [AcqStrategy; 4] =
        [AcqStrategy::Basic, AcqStrategy::IncS, AcqStrategy::IncT, AcqStrategy::Dec];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            AcqStrategy::Basic => "Basic",
            AcqStrategy::IncS => "Inc-S",
            AcqStrategy::IncT => "Inc-T",
            AcqStrategy::Dec => "Dec",
        }
    }
}

/// Options for an ACQ query.
#[derive(Debug, Clone)]
pub struct AcqOptions {
    /// Minimum degree k every community member must have inside the
    /// community (the "Structure: degree ≥ k" box in the UI).
    pub k: u32,
    /// The query keyword set `S`. Keywords not in `W(q)` are dropped, per
    /// the problem definition (`S ⊆ W(q)`). When empty, all of `W(q)` is
    /// used — the UI's default of preselecting the author's keywords.
    pub keywords: Vec<KeywordId>,
    /// Safety valve: stop after this many candidate verifications
    /// (0 = unlimited). `Basic` on a large `S` needs this.
    pub max_candidates: usize,
}

impl AcqOptions {
    /// Options with minimum degree `k` and `S = W(q)`.
    pub fn with_k(k: u32) -> Self {
        Self { k, keywords: Vec::new(), max_candidates: 0 }
    }

    /// Sets an explicit keyword set `S`.
    pub fn keywords(mut self, kws: Vec<KeywordId>) -> Self {
        self.keywords = kws;
        self
    }

    /// Sets the candidate-verification budget.
    pub fn max_candidates(mut self, cap: usize) -> Self {
        self.max_candidates = cap;
        self
    }
}

/// Outcome of an ACQ query: the communities plus work counters used by the
/// efficiency experiments (E7).
#[derive(Debug, Clone)]
pub struct AcqResult {
    /// The attributed communities, each sharing the maximal keyword set;
    /// deduplicated by member set, largest first.
    pub communities: Vec<Community>,
    /// Size of the maximal shared keyword set (0 when the answer fell back
    /// to the plain k-core).
    pub shared_keyword_count: usize,
    /// Number of candidate keyword sets verified (keyword lookups plus
    /// intersect/peel runs; near-free neighbour-mask rejects excluded).
    pub candidates_verified: usize,
    /// True when the candidate budget was exhausted before completion.
    pub truncated: bool,
}

impl AcqResult {
    /// An empty result (q not in any k-core).
    pub fn empty() -> Self {
        Self {
            communities: Vec::new(),
            shared_keyword_count: 0,
            candidates_verified: 0,
            truncated: false,
        }
    }
}

/// Runs an ACQ query with the chosen strategy.
///
/// `tree` is consulted by every strategy except `Basic`. Returns an empty
/// result (not an error) when `q` does not belong to any connected k-core
/// — the paper's UI simply shows "no community".
pub fn acq(
    g: &AttributedGraph,
    tree: &ClTree,
    q: VertexId,
    opts: &AcqOptions,
    strategy: AcqStrategy,
) -> AcqResult {
    scratch::with_pooled(|scratch, answer| {
        acq_with_scratch(g, tree, q, opts, strategy, scratch, answer);
        answer.to_result()
    })
}

/// Runs an ACQ query against caller-managed execution state.
///
/// This is the allocation-free entry: with a warmed `scratch`/`out` pair
/// the `Dec` strategy performs no heap allocation, and the answer can be
/// read directly from `out` without materialising owned vectors. [`acq`]
/// wraps this with a per-thread pooled scratch; benchmarks and batch
/// executors call it directly.
pub fn acq_with_scratch(
    g: &AttributedGraph,
    tree: &ClTree,
    q: VertexId,
    opts: &AcqOptions,
    strategy: AcqStrategy,
    scratch: &mut QueryScratch,
    out: &mut QueryAnswer,
) {
    if !g.contains(q) {
        out.clear();
        return;
    }
    let _span = cx_obs::span(match strategy {
        AcqStrategy::Basic => "acq.basic",
        AcqStrategy::IncS => "acq.inc-s",
        AcqStrategy::IncT => "acq.inc-t",
        AcqStrategy::Dec => "acq.dec",
    });
    match strategy {
        AcqStrategy::Basic => basic::run_scratch(g, q, opts, scratch, out),
        AcqStrategy::IncS => inc::run_inc_s_scratch(g, tree, q, opts, scratch, out),
        AcqStrategy::IncT => inc::run_inc_t_scratch(g, tree, q, opts, scratch, out),
        AcqStrategy::Dec => dec::run_scratch(g, tree, q, opts, scratch, out),
    }
    cx_obs::metrics::observe_us("cx_acq_candidates_verified", out.candidates_verified as u64);
}

/// The effective query keyword set: explicit `S` filtered to `W(q)`, or
/// all of `W(q)` when no explicit set was given. Sorted, deduplicated.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn effective_keywords(
    g: &AttributedGraph,
    q: VertexId,
    opts: &AcqOptions,
) -> Vec<KeywordId> {
    let mut s = Vec::new();
    effective_keywords_into(g, q, opts, &mut s);
    s
}

/// [`effective_keywords`] into a reusable buffer (cleared first).
pub(crate) fn effective_keywords_into(
    g: &AttributedGraph,
    q: VertexId,
    opts: &AcqOptions,
    out: &mut Vec<KeywordId>,
) {
    out.clear();
    let wq = g.keywords(q);
    if opts.keywords.is_empty() {
        out.extend_from_slice(wq);
    } else {
        out.extend(opts.keywords.iter().copied().filter(|&w| wq.binary_search(&w).is_ok()));
        out.sort_unstable();
        out.dedup();
    }
}

/// Builds the final communities from verified raw answers: dedup by member
/// set and attach the *actual* shared keyword set `L(Gq, S)`.
pub(crate) fn finalize(
    g: &AttributedGraph,
    s: &[KeywordId],
    raw: Vec<Vec<VertexId>>,
) -> Vec<Community> {
    let mut seen: Vec<Vec<VertexId>> = Vec::new();
    let mut out = Vec::new();
    for members in raw {
        if seen.contains(&members) {
            continue;
        }
        // L = ∩_{v∈Gq} (W(v) ∩ S)
        let mut shared: Vec<KeywordId> = s.to_vec();
        for &v in &members {
            shared = cx_graph::keywords::intersect_sorted(&shared, g.keywords(v));
            if shared.is_empty() {
                break;
            }
        }
        out.push(Community::new(members.clone(), shared));
        seen.push(members);
    }
    out.sort_by_key(|c| std::cmp::Reverse(c.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_datagen::figure5_graph;

    /// The paper's worked example: q=A, k=2, S={w,x,y} → community
    /// {A, C, D} sharing {x, y} — for every strategy.
    #[test]
    fn paper_example_all_strategies() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        let q = g.vertex_by_label("A").unwrap();
        let s: Vec<KeywordId> =
            ["w", "x", "y"].iter().map(|n| g.interner().get(n).unwrap()).collect();
        for strat in AcqStrategy::ALL {
            let res = acq(&g, &tree, q, &AcqOptions::with_k(2).keywords(s.clone()), strat);
            assert_eq!(res.communities.len(), 1, "{}", strat.name());
            let c = &res.communities[0];
            let labels: Vec<&str> = c.vertices().iter().map(|&v| g.label(v)).collect();
            assert_eq!(labels, vec!["A", "C", "D"], "{}", strat.name());
            let mut theme = c.theme(&g);
            theme.sort();
            assert_eq!(theme, vec!["x", "y"], "{}", strat.name());
            assert_eq!(res.shared_keyword_count, 2, "{}", strat.name());
        }
    }

    #[test]
    fn default_s_is_wq() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        let q = g.vertex_by_label("A").unwrap();
        // W(A) = {w,x,y}: same answer as the explicit paper example.
        for strat in AcqStrategy::ALL {
            let res = acq(&g, &tree, q, &AcqOptions::with_k(2), strat);
            assert_eq!(res.communities.len(), 1);
            assert_eq!(res.communities[0].len(), 3);
        }
    }

    #[test]
    fn foreign_keywords_are_dropped_from_s() {
        let g = figure5_graph();
        let q = g.vertex_by_label("A").unwrap();
        let z = g.interner().get("z").unwrap(); // not in W(A)
        let x = g.interner().get("x").unwrap();
        let s = effective_keywords(&g, q, &AcqOptions::with_k(2).keywords(vec![z, x, x]));
        assert_eq!(s, vec![x]);
    }

    #[test]
    fn unreachable_query_vertex_gives_empty() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        let j = g.vertex_by_label("J").unwrap(); // isolated, core 0
        for strat in AcqStrategy::ALL {
            let res = acq(&g, &tree, j, &AcqOptions::with_k(1), strat);
            assert!(res.communities.is_empty(), "{}", strat.name());
        }
        // Out-of-range vertex id.
        let res = acq(&g, &tree, VertexId(99), &AcqOptions::with_k(1), AcqStrategy::Dec);
        assert!(res.communities.is_empty());
    }

    #[test]
    fn k_too_large_gives_empty() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        let q = g.vertex_by_label("A").unwrap();
        for strat in AcqStrategy::ALL {
            let res = acq(&g, &tree, q, &AcqOptions::with_k(4), strat);
            assert!(res.communities.is_empty(), "{}", strat.name());
        }
    }

    /// When no keyword subset survives, the answer degrades to the plain
    /// connected k-core (keyword cohesiveness 0) rather than nothing.
    #[test]
    fn fallback_to_plain_core_when_keywords_fail() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        // Query H with k=1: W(H)={y,z}; I (H's only neighbour) carries
        // neither y nor z, so no keyword subset yields a 1-core with H.
        let h = g.vertex_by_label("H").unwrap();
        for strat in AcqStrategy::ALL {
            let res = acq(&g, &tree, h, &AcqOptions::with_k(1), strat);
            assert_eq!(res.shared_keyword_count, 0, "{}", strat.name());
            assert_eq!(res.communities.len(), 1, "{}", strat.name());
            let labels: Vec<&str> =
                res.communities[0].vertices().iter().map(|&v| g.label(v)).collect();
            assert_eq!(labels, vec!["H", "I"], "{}", strat.name());
        }
    }

    /// All four strategies must agree on arbitrary queries over Figure 5.
    #[test]
    fn strategies_agree_on_figure5_everywhere() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        for q in g.vertices() {
            for k in 1..=3 {
                let opts = AcqOptions::with_k(k);
                let reference = acq(&g, &tree, q, &opts, AcqStrategy::Dec);
                for strat in [AcqStrategy::Basic, AcqStrategy::IncS, AcqStrategy::IncT] {
                    let res = acq(&g, &tree, q, &opts, strat);
                    assert_eq!(
                        res.shared_keyword_count, reference.shared_keyword_count,
                        "L size mismatch {} vs Dec at q={q} k={k}", strat.name()
                    );
                    assert_eq!(
                        res.communities, reference.communities,
                        "communities mismatch {} vs Dec at q={q} k={k}", strat.name()
                    );
                }
            }
        }
    }
}
