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
//!   depth-first extension of verified prefixes, each extension seeded
//!   with its prefix's peeled core (a failing prefix prunes its whole
//!   subtree by anti-monotonicity).
//! * [`AcqStrategy::Dec`] — decremental large→small: after single-keyword
//!   pruning, examine subsets from size `|S|` downward and stop at the
//!   first size with a hit. Generally the fastest (what C-Explorer runs in
//!   production), because realistic communities share most of the query's
//!   keywords so the answer sits near the top of the lattice.
//!
//! All strategies except `Basic` run against the [`cx_cltree::ClTree`]
//! index. Every strategy also answers the paper's multi-vertex variant
//! ([`acq_set`]): a query *set* `Q` is the same lattice search with
//! "contains q" read as "contains every q ∈ Q", so one query vertex is
//! simply a one-element set.

mod basic;
mod dec;
mod inc;
pub mod profile;
pub mod scratch;
mod verify;

use cx_cltree::ClTree;
use cx_graph::{AttributedGraph, Community, KeywordId, VertexId};

use scratch::StratScratch;
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
    /// The query keyword set `S`. Keywords not in `W(q)` — for a query
    /// set, not carried by every q ∈ Q — are dropped, per the problem
    /// definition (`S ⊆ W(q)`). When empty, all of `W(q)` (`⋂ W(q)` for a
    /// set) is used — the UI's default of preselecting the author's
    /// keywords.
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
    /// candidate traversals; candidates the neighbour masks refute are
    /// excluded — `/metrics` counts those in `cx_acq_lattice_examined`).
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
    acq_set(g, tree, std::slice::from_ref(&q), opts, strategy)
}

/// Runs an ACQ query for the query *set* `qs` (the UI's "+" button):
/// communities containing every q ∈ Q. Empty when `qs` is empty, holds an
/// invalid vertex, or its vertices share no connected k-core.
pub fn acq_set(
    g: &AttributedGraph,
    tree: &ClTree,
    qs: &[VertexId],
    opts: &AcqOptions,
    strategy: AcqStrategy,
) -> AcqResult {
    scratch::with_pooled(|scratch, answer| {
        run(g, tree, qs, opts, strategy, scratch, answer);
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
    run(g, tree, std::slice::from_ref(&q), opts, strategy, scratch, out);
}

/// The one ACQ walk behind every entry point and strategy: resolve `S`,
/// build the [`verify::Verifier`] over q's connected k-core (all but
/// `Basic`), and enumerate candidate keyword sets in the strategy's order.
fn run(
    g: &AttributedGraph,
    tree: &ClTree,
    qs: &[VertexId],
    opts: &AcqOptions,
    strategy: AcqStrategy,
    scratch: &mut QueryScratch,
    out: &mut QueryAnswer,
) {
    out.clear();
    if qs.is_empty() || qs.iter().any(|&q| !g.contains(q)) {
        return;
    }
    let _span = cx_obs::span(match strategy {
        AcqStrategy::Basic => "acq.basic",
        AcqStrategy::IncS => "acq.inc-s",
        AcqStrategy::IncT => "acq.inc-t",
        AcqStrategy::Dec => "acq.dec",
    });
    let QueryScratch { verify: vs, strat } = scratch;
    effective_keywords_into(g, qs, opts, &mut strat.s);
    // Candidates the lattice walk examined, refuted by the neighbour
    // masks or peeled; Basic peels every one it examines.
    let mut examined = 0;
    let admitted = vs.peel.admitted_total();
    if strategy == AcqStrategy::Basic {
        basic::walk(g, qs, opts, vs, strat, out);
        examined = out.candidates_verified;
    } else if let Some(mut verifier) = verify::Verifier::new(g, tree, qs, opts.k, &strat.s, vs) {
        let budget = opts.max_candidates;
        match strategy {
            AcqStrategy::IncS => inc::walk_inc_s(g, &mut verifier, strat, budget, out),
            AcqStrategy::IncT => inc::walk_inc_t(g, &mut verifier, strat, budget, out),
            _ => dec::walk(g, &mut verifier, strat, budget, out),
        }
        examined = verifier.examined;
    }
    cx_obs::metrics::observe_us("cx_acq_candidates_verified", out.candidates_verified as u64);
    cx_obs::metrics::observe_us("cx_acq_lattice_examined", examined as u64);
    // Vertices the verifications admitted into q's components: the
    // verify phase's work, which grows with the components, not the lists.
    let component = vs.peel.admitted_total() - admitted;
    cx_obs::metrics::observe_us("cx_acq_component_vertices", component);
}

/// The effective query keyword set into `out` (cleared first): explicit
/// `S` filtered to the keywords every query vertex carries
/// (`S ∩ ⋂ W(q)`), or `⋂ W(q)` when no explicit set was given. Sorted,
/// deduplicated. `qs` must be non-empty.
fn effective_keywords_into(
    g: &AttributedGraph,
    qs: &[VertexId],
    opts: &AcqOptions,
    out: &mut Vec<KeywordId>,
) {
    out.clear();
    let carried_by =
        |vs: &[VertexId], w: &KeywordId| vs.iter().all(|&v| g.keywords(v).binary_search(w).is_ok());
    if opts.keywords.is_empty() {
        out.extend(g.keywords(qs[0]).iter().copied().filter(|w| carried_by(&qs[1..], w)));
    } else {
        out.extend(opts.keywords.iter().copied().filter(|w| carried_by(qs, w)));
        out.sort_unstable();
        out.dedup();
    }
}

/// Records the plain connected k-core (`L = ∅`) as the only hit and
/// finalizes it: the answer when no keyword subset verifies.
fn finalize_plain_core(
    g: &AttributedGraph,
    core: &[VertexId],
    strat: &mut StratScratch,
    out: &mut QueryAnswer,
) {
    strat.clear_hits();
    strat.push_hit(core);
    out.shared_keyword_count = 0;
    let t = profile::timer();
    scratch::finalize_into(g, strat, false, out);
    profile::add_expand(t);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_datagen::figure5_graph;
    use cx_graph::keywords::intersection_size;

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
        let kw = |n: &str| g.interner().get(n).unwrap();
        let v = |l: &str| g.vertex_by_label(l).unwrap();
        let s = |qs: &[VertexId], explicit: Vec<KeywordId>| {
            let mut out = Vec::new();
            effective_keywords_into(&g, qs, &AcqOptions::with_k(2).keywords(explicit), &mut out);
            out
        };
        // z is not in W(A) = {w, x, y}.
        assert_eq!(s(&[v("A")], vec![kw("z"), kw("x"), kw("x")]), vec![kw("x")]);
        // A query set keeps what every vertex carries: W(A) ∩ W(D) = {x, y}.
        assert_eq!(s(&[v("A"), v("D")], vec![]), vec![kw("x"), kw("y")]);
        assert_eq!(s(&[v("A"), v("D")], vec![kw("y"), kw("w")]), vec![kw("y")]);
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

    /// All four strategies must agree on every query vertex and every
    /// pair over Figure 5, from k = 0 up.
    #[test]
    fn strategies_agree_on_figure5_everywhere() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        let pairs = g.vertices().flat_map(|a| g.vertices().map(move |b| vec![a, b]));
        for qs in g.vertices().map(|q| vec![q]).chain(pairs) {
            for k in 0..=3 {
                let opts = AcqOptions::with_k(k);
                let reference = acq_set(&g, &tree, &qs, &opts, AcqStrategy::Dec);
                for strat in [AcqStrategy::Basic, AcqStrategy::IncS, AcqStrategy::IncT] {
                    let res = acq_set(&g, &tree, &qs, &opts, strat);
                    assert_eq!(
                        res.shared_keyword_count, reference.shared_keyword_count,
                        "L size mismatch {} vs Dec at Q={qs:?} k={k}", strat.name()
                    );
                    assert_eq!(
                        res.communities, reference.communities,
                        "communities mismatch {} vs Dec at Q={qs:?} k={k}", strat.name()
                    );
                }
            }
        }
    }

    fn labels(g: &AttributedGraph, c: &Community) -> Vec<String> {
        c.vertices().iter().map(|&v| g.label(v).to_owned()).collect()
    }

    /// k = 0 keeps the answer connected: with no keyword of S carried
    /// (S ∩ W(q) = ∅) the fallback is q's component, not the whole graph.
    #[test]
    fn k_zero_fallback_is_the_component() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        let w = g.interner().get("w").unwrap();
        for (q, want) in [("H", vec!["H", "I"]), ("J", vec!["J"])] {
            let q = g.vertex_by_label(q).unwrap();
            for strat in AcqStrategy::ALL {
                let res = acq(&g, &tree, q, &AcqOptions::with_k(0).keywords(vec![w]), strat);
                assert_eq!(res.shared_keyword_count, 0, "{}", strat.name());
                assert_eq!(res.communities.len(), 1, "{}", strat.name());
                assert_eq!(labels(&g, &res.communities[0]), want, "{}", strat.name());
            }
        }
    }

    #[test]
    fn joint_query_on_figure5() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        let v = |l: &str| g.vertex_by_label(l).unwrap();
        for strat in AcqStrategy::ALL {
            // W(A) ∩ W(D) = {x, y}; the joint community is {A, C, D}.
            let res = acq_set(&g, &tree, &[v("A"), v("D")], &AcqOptions::with_k(2), strat);
            assert_eq!(res.shared_keyword_count, 2, "{}", strat.name());
            assert_eq!(res.communities.len(), 1, "{}", strat.name());
            assert_eq!(labels(&g, &res.communities[0]), ["A", "C", "D"], "{}", strat.name());
            // W(B) ∩ W(E) = ∅, but B and E share the 2-core {A,B,C,D,E}.
            let res = acq_set(&g, &tree, &[v("B"), v("E")], &AcqOptions::with_k(2), strat);
            assert_eq!(res.shared_keyword_count, 0, "{}", strat.name());
            assert_eq!(labels(&g, &res.communities[0]), ["A", "B", "C", "D", "E"]);
            // Different components, at k = 1 and at k = 0.
            for k in [0, 1] {
                let res = acq_set(&g, &tree, &[v("A"), v("H")], &AcqOptions::with_k(k), strat);
                assert!(res.communities.is_empty(), "{} k={k}", strat.name());
            }
            // Empty and invalid query sets.
            assert!(acq_set(&g, &tree, &[], &AcqOptions::with_k(1), strat).communities.is_empty());
            let bad = [v("A"), VertexId(99)];
            assert!(acq_set(&g, &tree, &bad, &AcqOptions::with_k(1), strat).communities.is_empty());
        }
    }

    /// A query set honours the request deadline like a single vertex: in
    /// a scope whose token has already cancelled, Dec bails at its first
    /// lattice candidate, having verified at most one past its keyword
    /// lookups.
    #[test]
    fn cancelled_query_set_stops_after_one_candidate() {
        let (g, _) = cx_datagen::dblp_like(&cx_datagen::DblpParams::scaled(3_000, 7));
        let tree = ClTree::build(&g);
        let k = 3;
        let hub = g.vertices().max_by_key(|&v| (g.degree(v), v.0)).unwrap();
        let common = |u: VertexId| intersection_size(g.keywords(u), g.keywords(hub));
        let mate = g
            .neighbors(hub)
            .iter()
            .copied()
            .filter(|&u| tree.core(u) >= k)
            .max_by_key(|&u| (common(u), u.0))
            .unwrap();
        let qs = [hub, mate];
        let shared = common(mate);
        assert!(shared > 1, "the pair must leave a keyword lattice to walk");
        let opts = AcqOptions::with_k(k);
        let full = acq_set(&g, &tree, &qs, &opts, AcqStrategy::Dec);
        assert!(!full.truncated && !full.communities.is_empty());
        let token = cx_par::task::CancelToken::manual();
        token.cancel();
        let cut =
            cx_par::task::scope(&token, || acq_set(&g, &tree, &qs, &opts, AcqStrategy::Dec));
        assert!(cut.truncated, "a cancelled query set must come back truncated");
        assert!(
            cut.candidates_verified <= shared + 1,
            "verified {} candidates after cancellation (|S| = {shared})",
            cut.candidates_verified
        );
    }
}
