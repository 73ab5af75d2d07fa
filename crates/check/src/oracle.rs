//! Differential oracles: run the same query through provably-equivalent
//! paths and diff the canonicalized answers.
//!
//! Three free oracles fall out of the system's design:
//!
//! * **Strategy equivalence** — ACQ's Basic/Inc-S/Inc-T/Dec all solve the
//!   same optimisation problem, and Basic does it without the CL-tree
//!   index, so a four-way agreement also covers index vs. index-free.
//! * **Cache transparency** — a warm [`cx_explorer::Engine`] query must be
//!   byte-identical to the cold computation, and to an engine with the
//!   cache disabled entirely; a CD name in `search` must answer exactly
//!   what detecting and selecting the query vertex's cluster would.
//! * **Thread independence** — every `cx-par` helper documents output
//!   independent of `CX_THREADS`; [`with_threads`] re-runs a closure under
//!   different counts so callers can fingerprint-compare.
//!
//! Beside them, [`analysis_vs_pairs`] holds the engine's CPJ and CMF to
//! the metrics' definitions, computed pair by pair, and
//! [`structural_vs_peel`] holds the structural searches the engine answers
//! from the CL-tree interval to their whole-graph-peel references.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use cx_acq::{acq, acq_set, AcqOptions, AcqResult, AcqStrategy};
use cx_algos::{kecc_community, sac_appinc, Global, Local};
use cx_cltree::ClTree;
use cx_explorer::{Engine, QuerySpec};
use cx_graph::keywords::{intersection_size, jaccard};
use cx_graph::{AttributedGraph, Community, VertexId};
use cx_kcore::CoreDecomposition;
use cx_par::rng::Rng64;

use crate::canonical::{diff_results, fingerprint, graph_fingerprint, tree_canonical};
use crate::invariants::{check_community, check_tree_columns};
use crate::workload::{EditStep, QueryCase};

/// One disagreement between two paths that must agree.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Which oracle produced this (e.g. `acq-strategies`, `cache`, `threads`).
    pub oracle: &'static str,
    /// The query / configuration under which the paths diverged.
    pub context: String,
    /// What differed.
    pub detail: String,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.oracle, self.context, self.detail)
    }
}

/// Runs one ACQ query — for the query set `qs`, one vertex or several —
/// through every strategy and diffs the results against the `Dec`
/// reference. `Basic` (the index-free exponential baseline) is included
/// only when the keyword set (the explicit one, else `W(qs[0])`) has at
/// most `basic_keyword_limit` keywords; pass ~10 for test-sized graphs, 0
/// to skip it. Returns the reference result plus any mismatches.
pub fn acq_strategy_differential(
    g: &AttributedGraph,
    tree: &ClTree,
    qs: &[VertexId],
    opts: &AcqOptions,
    basic_keyword_limit: usize,
) -> (AcqResult, Vec<Mismatch>) {
    let reference = acq_set(g, tree, qs, opts, AcqStrategy::Dec);
    let mut mismatches = Vec::new();
    let effective = if opts.keywords.is_empty() {
        qs.first().map_or(0, |&q| g.keywords(q).len())
    } else {
        opts.keywords.len()
    };
    let mut rivals = vec![AcqStrategy::IncS, AcqStrategy::IncT];
    if effective <= basic_keyword_limit {
        rivals.push(AcqStrategy::Basic);
    }
    let labels: Vec<&str> = qs.iter().map(|&q| g.label(q)).collect();
    for strat in rivals {
        let res = acq_set(g, tree, qs, opts, strat);
        let context = format!("Q={labels:?} ({qs:?}) k={}", opts.k);
        if res.shared_keyword_count != reference.shared_keyword_count {
            mismatches.push(Mismatch {
                oracle: "acq-strategies",
                context: context.clone(),
                detail: format!(
                    "{} found |L|={}, Dec found |L|={}",
                    strat.name(),
                    res.shared_keyword_count,
                    reference.shared_keyword_count
                ),
            });
        }
        if let Some(d) =
            diff_results(strat.name(), &res.communities, "Dec", &reference.communities)
        {
            mismatches.push(Mismatch { oracle: "acq-strategies", context, detail: d });
        }
    }
    (reference, mismatches)
}

/// Cache-transparency oracle for one engine query:
///
/// 1. a *cold* engine call (fresh engine, cache enabled),
/// 2. a *warm* repeat on the same engine (must be served by the cache),
/// 3. a call on a second engine with the cache disabled (capacity 0).
///
/// All three must produce identical fingerprints, and the warm call must
/// actually hit the cache. Builds its own engines so callers can't
/// accidentally share cache state with other oracles.
pub fn cached_vs_uncached(
    g: &AttributedGraph,
    algo: &str,
    spec: &QuerySpec,
) -> Vec<Mismatch> {
    let mut mismatches = Vec::new();
    let context = format!("algo={algo} spec={spec:?}");
    let cached = Engine::with_graph("check", g.clone());
    let cold = match cached.search_on(None, algo, spec) {
        Ok(c) => c,
        Err(e) => {
            return vec![Mismatch {
                oracle: "cache",
                context,
                detail: format!("cold query errored: {e}"),
            }]
        }
    };
    let hits_before = cached.cache_stats().hits;
    let warm = cached.search_on(None, algo, spec).expect("warm repeat of a successful query");
    if cached.cache_stats().hits != hits_before + 1 {
        mismatches.push(Mismatch {
            oracle: "cache",
            context: context.clone(),
            detail: "second identical query was not served by the cache".into(),
        });
    }
    if fingerprint(&cold) != fingerprint(&warm) {
        mismatches.push(Mismatch {
            oracle: "cache",
            context: context.clone(),
            detail: "cache hit returned a different result than the cold computation".into(),
        });
    }
    let uncached = Engine::with_graph("check", g.clone());
    uncached.set_cache_capacity(0);
    match uncached.search_on(None, algo, spec) {
        Ok(plain) => {
            if let Some(d) = diff_results("cached", &cold, "uncached", &plain) {
                mismatches.push(Mismatch { oracle: "cache", context, detail: d });
            }
        }
        Err(e) => mismatches.push(Mismatch {
            oracle: "cache",
            context,
            detail: format!("uncached engine errored where cached succeeded: {e}"),
        }),
    }
    mismatches
}

/// CD-search oracle: for every registered CD algorithm and every vertex
/// in `queries`, `search(cd, q)` on one engine must equal the first
/// community of a fresh engine's `detect(cd)` that contains `q` (nothing
/// when none does) — "detect, then select", the reference meaning of a CD
/// name in `search`. The searching engine answers from its per-snapshot
/// clustering memo, so this also pins that memo to a cold run.
pub fn cd_search_vs_detect(g: &AttributedGraph, queries: &[VertexId]) -> Vec<Mismatch> {
    let mut mismatches = Vec::new();
    let engine = Engine::with_graph("check", g.clone());
    for cd in engine.cd_names() {
        let reference = match Engine::with_graph("check", g.clone()).detect(cd) {
            Ok(r) => r,
            Err(e) => {
                mismatches.push(Mismatch {
                    oracle: "cd-search",
                    context: format!("algo={cd}"),
                    detail: format!("detect errored: {e}"),
                });
                continue;
            }
        };
        for &q in queries {
            let context = format!("algo={cd} q={q:?}");
            let want: Vec<_> = reference.iter().find(|c| c.contains(q)).cloned().into_iter().collect();
            let detail = match engine.search(cd, &QuerySpec::by_id(q)) {
                Ok(got) => diff_results("search", &got, "detect", &want),
                Err(e) => Some(format!("search errored: {e}")),
            };
            if let Some(detail) = detail {
                mismatches.push(Mismatch { oracle: "cd-search", context, detail });
            }
        }
    }
    mismatches
}

/// CPJ of one community as its definition reads: the keyword Jaccard of
/// every member pair, merged pair by pair and summed in `i < j` order,
/// over the number of pairs. The reference `cx_metrics::cpj_single` must
/// equal bit for bit.
pub fn cpj_all_pairs(g: &AttributedGraph, c: &Community) -> f64 {
    let vs = c.vertices();
    let n = vs.len();
    if n < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            total += jaccard(g.keywords(vs[i]), g.keywords(vs[j]));
        }
    }
    total / (n * (n - 1) / 2) as f64
}

/// CMF of a result set as its definition reads: per member of every
/// community, the fraction of `W(q)` it carries, averaged (0 when `W(q)`
/// or the member list is empty).
pub fn cmf_all_members(g: &AttributedGraph, communities: &[Community], q: VertexId) -> f64 {
    let wq = g.keywords(q);
    let fractions: Vec<f64> = communities
        .iter()
        .flat_map(|c| c.vertices())
        .map(|&v| intersection_size(g.keywords(v), wq) as f64 / wq.len() as f64)
        .collect();
    if wq.is_empty() || fractions.is_empty() {
        return 0.0;
    }
    fractions.iter().fold(0.0, |total, f| total + f) / fractions.len() as f64
}

/// Analysis oracle: for every registered CS algorithm and every query,
/// with the query's keyword selection, [`Engine::analyze_snapshot`]'s CPJ
/// (the mean of [`cpj_all_pairs`]) and CMF ([`cmf_all_members`]) must
/// equal the references bit for bit.
pub fn analysis_vs_pairs(g: &AttributedGraph, queries: &[QueryCase]) -> Vec<Mismatch> {
    let mut mismatches = Vec::new();
    let engine = Engine::with_graph("check", g.clone());
    let snap = engine.snapshot(None).expect("the engine was built with one graph");
    for algo in engine.cs_names() {
        for qc in queries {
            let context = format!("algo={algo} {}", qc.describe(g));
            let spec = QuerySpec::by_id(qc.q).k(qc.k).with_keywords(g.keyword_names(&qc.keywords));
            let report = engine
                .search_snapshot(&snap, algo, &spec)
                .and_then(|cs| Ok((engine.analyze_snapshot(&snap, &cs, qc.q)?, cs)));
            let (report, communities) = match report {
                Ok(r) => r,
                Err(e) => {
                    mismatches.push(Mismatch {
                        oracle: "analysis",
                        context,
                        detail: format!("search or analysis errored: {e}"),
                    });
                    continue;
                }
            };
            let cpj = if communities.is_empty() {
                0.0
            } else {
                communities.iter().map(|c| cpj_all_pairs(g, c)).sum::<f64>() / communities.len() as f64
            };
            let cmf = cmf_all_members(g, &communities, qc.q);
            for (metric, got, want) in [("cpj", report.cpj, cpj), ("cmf", report.cmf, cmf)] {
                if got.to_bits() != want.to_bits() {
                    mismatches.push(Mismatch {
                        oracle: "analysis",
                        context: context.clone(),
                        detail: format!("{metric} {got:e} != all-pairs {want:e}"),
                    });
                }
            }
        }
    }
    mismatches
}

/// Structural-search oracle: the engine's `global`, `kecc` and `sac` start
/// from q's connected k-core as one CL-tree interval, and must answer
/// exactly what their whole-graph references answer, for every distinct
/// vertex of `queries` and every k in `0..=core(q) + 1`:
///
/// * `global` — [`Global::fixed_k`], a peel of all n vertices;
/// * `kecc` — [`kecc_community`] inside that peeled core;
/// * `sac` — [`sac_appinc`] over all n vertices, on seeded coordinates
///   installed in the engine first.
///
/// On the same legs, [`Local::fixed_k`] is held to Global's answer: its
/// community must pass [`check_community`] and lie inside Global's, and
/// when q's component is smaller than Local's candidate cap (so Local
/// can always exhaust it) Local must find a community exactly when
/// Global does. Returns the mismatches and the number of Local legs run.
pub fn structural_vs_peel(g: &AttributedGraph, queries: &[VertexId]) -> (Vec<Mismatch>, usize) {
    let mut rng = Rng64::seed_from_u64(0x5AC ^ g.vertex_count() as u64);
    let coords: Vec<(f64, f64)> =
        g.vertices().map(|_| (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0))).collect();
    let engine = Engine::with_graph("check", g.clone());
    engine.set_coordinates(None, coords.clone()).expect("one coordinate per vertex");
    let snap = engine.snapshot(None).expect("the engine was built with one graph");
    let cores = CoreDecomposition::compute(g);
    let all: Vec<VertexId> = g.vertices().collect();
    let mut qs = queries.to_vec();
    qs.sort_unstable();
    qs.dedup();
    let mut mismatches = Vec::new();
    let mut local_legs = 0;
    let local = Local::new();
    for q in qs {
        let below_cap = cx_graph::traversal::bfs(g, q).len() < local.max_candidates;
        for k in 0..=cores.core(q) + 1 {
            let core = Global.fixed_k(g, q, k);
            let context = |algo: &str| format!("algo={algo} q={} ({q:?}) k={k}", g.label(q));
            let mut local_problems: Vec<String> = Vec::new();
            match (local.fixed_k(g, q, k), &core) {
                (Some(c), Some(global)) => {
                    let violations = check_community(g, &c, &[q], k);
                    local_problems.extend(violations.iter().map(ToString::to_string));
                    if let Some(v) = c.vertices().iter().find(|&&v| !global.contains(v)) {
                        local_problems.push(format!("member {v:?} lies outside Global's community"));
                    }
                }
                (Some(c), None) => local_problems
                    .push(format!("found {} members where Global finds no community", c.len())),
                (None, Some(global)) if below_cap => local_problems.push(format!(
                    "found nothing where Global finds {} members",
                    global.len()
                )),
                (None, _) => {}
            }
            local_legs += 1;
            for detail in local_problems {
                let context = context("local");
                mismatches.push(Mismatch { oracle: "structural", context, detail });
            }
            let kecc = core.as_ref().and_then(|c| kecc_community(g, c.vertices(), q, k));
            let sac = sac_appinc(g, &coords, &all, q, k).map(|s| s.community);
            for (algo, want) in [("global", core), ("kecc", kecc), ("sac", sac)] {
                let want: Vec<Community> = want.into_iter().collect();
                let detail = match engine.search_snapshot(&snap, algo, &QuerySpec::by_id(q).k(k)) {
                    Ok(got) => diff_results("index", &got, "peel", &want),
                    Err(e) => Some(format!("search errored: {e}")),
                };
                if let Some(detail) = detail {
                    let context = context(algo);
                    mismatches.push(Mismatch { oracle: "structural", context, detail });
                }
            }
        }
    }
    (mismatches, local_legs)
}

/// Snapshot-pinning oracle: a reader holding a pre-edit snapshot and the
/// post-edit snapshot must differ *only* per the applied edit.
///
/// 1. pin the current snapshot of a fresh engine,
/// 2. apply `add`/`remove` edits (publishing a new snapshot),
/// 3. the pinned snapshot must answer exactly like a fresh engine that
///    never saw the edit,
/// 4. the live snapshot must answer exactly like a fresh engine that
///    applied the same edit before its first query,
/// 5. the published generation must have advanced past the pinned one.
pub fn snapshot_pinning_differential(
    g: &AttributedGraph,
    algo: &str,
    spec: &QuerySpec,
    add: &[(VertexId, VertexId)],
    remove: &[(VertexId, VertexId)],
) -> Vec<Mismatch> {
    let mut mismatches = Vec::new();
    let context = format!("algo={algo} spec={spec:?} add={add:?} remove={remove:?}");
    let mismatch = |detail: String| Mismatch {
        oracle: "snapshot",
        context: context.clone(),
        detail,
    };

    let engine = Engine::with_graph("check", g.clone());
    let pinned = engine.snapshot(None).expect("graph was just added");
    if let Err(e) = engine.apply_edits(None, add, remove) {
        return vec![mismatch(format!("edit failed: {e}"))];
    }
    let live = engine.snapshot(None).expect("graph still registered");
    if live.generation <= pinned.generation {
        mismatches.push(mismatch(format!(
            "generation did not advance across an edit ({} -> {})",
            pinned.generation, live.generation
        )));
    }

    // The pinned reader must see the pre-edit world, byte for byte.
    let before = Engine::with_graph("check", g.clone());
    match (engine.search_snapshot(&pinned, algo, spec), before.search_on(None, algo, spec)) {
        (Ok(p), Ok(f)) => {
            if let Some(d) = diff_results("pinned", &p, "pre-edit", &f) {
                mismatches.push(mismatch(d));
            }
        }
        (Err(e), Ok(_)) => mismatches.push(mismatch(format!(
            "pinned snapshot errored where the pre-edit engine succeeded: {e}"
        ))),
        (Ok(_), Err(e)) => mismatches.push(mismatch(format!(
            "pre-edit engine errored where the pinned snapshot succeeded: {e}"
        ))),
        (Err(_), Err(_)) => {}
    }

    // The live snapshot must see the post-edit world, byte for byte.
    let after = Engine::with_graph("check", g.clone());
    if let Err(e) = after.apply_edits(None, add, remove) {
        return vec![mismatch(format!("reference edit failed: {e}"))];
    }
    match (engine.search_snapshot(&live, algo, spec), after.search_on(None, algo, spec)) {
        (Ok(l), Ok(f)) => {
            if let Some(d) = diff_results("live", &l, "post-edit", &f) {
                mismatches.push(mismatch(d));
            }
        }
        (Err(e), Ok(_)) => mismatches.push(mismatch(format!(
            "live snapshot errored where the post-edit engine succeeded: {e}"
        ))),
        (Ok(_), Err(e)) => mismatches.push(mismatch(format!(
            "post-edit engine errored where the live snapshot succeeded: {e}"
        ))),
        (Err(_), Err(_)) => {}
    }
    mismatches
}

/// Incremental-vs-scratch oracle for the engine's write path.
///
/// Replays a seeded [`EditStep`] script through ONE long-lived engine —
/// whose `apply_edits` patches the CSR, maintains core numbers with the
/// warm `DynamicCore`, and repairs the CL-tree incrementally — and after
/// EVERY step checks that the patched graph still shares `g`'s attribute
/// columns (keywords, label column, interner) by `Arc`, and compares
/// four views against a from-scratch world rebuilt from the coalesced
/// edge set:
///
/// 1. the graph fingerprint (full adjacency, CSR order),
/// 2. core numbers vs. a fresh [`CoreDecomposition`],
/// 3. the CL-tree's id-independent canonical form vs. a fresh
///    [`ClTree::build`] (every node's carriers read back through the
///    postings, so a column the update laid out wrong is caught),
/// 4. one community query answered by both engines.
///
/// A step that changed the graph either published the previous
/// snapshot's tree (`Arc::ptr_eq`: the engine proved the edit cannot
/// change it) or a repaired one, whose columns must then also pass
/// [`check_tree_columns`] — postings equal to a scatter over its own
/// order. The returned [`TreeBranches`] count the two, so a caller can
/// require that both were exercised.
///
/// The scratch side is constructed directly (builder + fresh index).
/// Stops at the first divergent step (later steps would only echo it).
pub fn incremental_vs_scratch(
    g: &AttributedGraph,
    script: &[EditStep],
    algo: &str,
    spec: &QuerySpec,
) -> (Vec<Mismatch>, TreeBranches) {
    let norm = |&(u, v): &(VertexId, VertexId)| if u < v { (u, v) } else { (v, u) };
    let mut mismatches = Vec::new();
    let mut branches = TreeBranches::default();
    let inc = Engine::with_graph("check", g.clone());
    let mut prev = inc.snapshot(None).expect("just registered");
    let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    for (step_no, step) in script.iter().enumerate() {
        let context = format!("step {step_no} (+{} -{})", step.add.len(), step.remove.len());
        let mismatch = |detail: String| Mismatch {
            oracle: "incremental",
            context: context.clone(),
            detail,
        };
        if let Err(e) = inc.apply_edits(None, &step.add, &step.remove) {
            return (vec![mismatch(format!("edit failed: {e}"))], branches);
        }
        // Mirror the engine's documented coalescing, E' = (E \ removed) ∪
        // added with add-wins on conflict, onto a plain edge list.
        let removed: HashSet<_> = step.remove.iter().map(norm).collect();
        let added: HashSet<_> = step.add.iter().map(norm).collect();
        edges.retain(|e| !removed.contains(e) || added.contains(e));
        let present: HashSet<_> = edges.iter().copied().collect();
        edges.extend(added.iter().filter(|e| !present.contains(*e)));
        edges.sort_unstable();

        let scratch_graph = rebuild_with_edges(g, &edges);
        let snap = inc.snapshot(None).expect("graph stays registered across edits");
        if !Arc::ptr_eq(&snap.graph, &prev.graph) {
            if Arc::ptr_eq(&snap.tree, &prev.tree) {
                branches.shared += 1;
            } else {
                branches.repaired += 1;
                for v in check_tree_columns(&snap.graph, &snap.tree) {
                    mismatches.push(mismatch(format!("repaired tree: {v}")));
                }
            }
        }
        if !snap.graph.shares_attributes_with(g) {
            mismatches.push(mismatch("the edit copied the attribute columns".into()));
        }
        if graph_fingerprint(&snap.graph) != graph_fingerprint(&scratch_graph) {
            mismatches.push(mismatch(format!(
                "graph fingerprints diverge (incremental m={}, scratch m={})",
                snap.graph.edge_count(),
                scratch_graph.edge_count()
            )));
        }
        let scratch_cores = CoreDecomposition::compute(&scratch_graph);
        if snap.tree.core_numbers() != scratch_cores.core_numbers() {
            mismatches.push(mismatch("maintained core numbers differ from a fresh peel".into()));
        }
        let scratch_tree = ClTree::build(&scratch_graph);
        if tree_canonical(&snap.tree) != tree_canonical(&scratch_tree) {
            mismatches.push(mismatch("CL-tree canonical forms diverge".into()));
        }
        let scratch_engine = Engine::with_graph("check", scratch_graph);
        match (inc.search_on(None, algo, spec), scratch_engine.search_on(None, algo, spec)) {
            (Ok(a), Ok(b)) => {
                if let Some(d) = diff_results("incremental", &a, "scratch", &b) {
                    mismatches.push(mismatch(d));
                }
            }
            (Err(e), Ok(_)) => mismatches.push(mismatch(format!(
                "incremental engine errored where scratch succeeded: {e}"
            ))),
            (Ok(_), Err(e)) => mismatches.push(mismatch(format!(
                "scratch engine errored where incremental succeeded: {e}"
            ))),
            (Err(_), Err(_)) => {}
        }
        if !mismatches.is_empty() {
            return (mismatches, branches);
        }
        prev = snap;
    }
    (mismatches, branches)
}

/// How the graph-changing steps of an [`incremental_vs_scratch`] run
/// published their CL-tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeBranches {
    /// Steps that published the previous snapshot's tree unchanged.
    pub shared: usize,
    /// Steps that published a repaired tree.
    pub repaired: usize,
}

/// Scratch-reuse oracle for the zero-alloc query path: a reused
/// [`QueryScratch`]/[`QueryAnswer`] pair must leave no residue between
/// queries, and the thread-pool gate must not change answers.
///
/// For each strategy, four executions of the same query must agree:
///
/// 1. the public [`acq`] entry (per-thread pooled scratch) at
///    `CX_THREADS=1` — the reference,
/// 2. an immediate pooled repeat (the pool is now warm and dirty),
/// 3. a caller-managed pair driven through [`acq_with_scratch`] twice —
///    the *second* answer is compared, so stale hits, counters or
///    candidate buffers left by the first run would surface,
/// 4. the same reused pair again at `CX_THREADS=8`, crossing the
///    parallel-expansion threshold gate.
pub fn scratch_reuse_differential(
    g: &AttributedGraph,
    tree: &ClTree,
    q: VertexId,
    opts: &AcqOptions,
) -> Vec<Mismatch> {
    use cx_acq::{acq_with_scratch, QueryAnswer, QueryScratch};

    let mut mismatches = Vec::new();
    for strat in [AcqStrategy::Dec, AcqStrategy::IncS, AcqStrategy::IncT] {
        let context = format!("{} q={} ({:?}) k={}", strat.name(), g.label(q), q, opts.k);
        let mismatch = |detail: String| Mismatch {
            oracle: "scratch",
            context: context.clone(),
            detail,
        };

        let reference = with_threads(1, || acq(g, tree, q, opts, strat));
        let repeat = with_threads(1, || acq(g, tree, q, opts, strat));

        let mut scratch = QueryScratch::new();
        let mut answer = QueryAnswer::new();
        let reused = with_threads(1, || {
            // First run dirties every buffer; the second answer is the
            // one under test.
            acq_with_scratch(g, tree, q, opts, strat, &mut scratch, &mut answer);
            acq_with_scratch(g, tree, q, opts, strat, &mut scratch, &mut answer);
            answer.to_result()
        });
        let reused_mt = with_threads(8, || {
            acq_with_scratch(g, tree, q, opts, strat, &mut scratch, &mut answer);
            answer.to_result()
        });

        let mut rivals = [
            ("pooled-repeat", &repeat),
            ("reused-scratch", &reused),
            ("reused-scratch-8t", &reused_mt),
        ];
        for (name, res) in &mut rivals {
            if res.shared_keyword_count != reference.shared_keyword_count {
                mismatches.push(mismatch(format!(
                    "{name} found |L|={}, pooled reference found |L|={}",
                    res.shared_keyword_count, reference.shared_keyword_count
                )));
            }
            if let Some(d) =
                diff_results(name, &res.communities, "pooled", &reference.communities)
            {
                mismatches.push(mismatch(d));
            }
        }
    }
    mismatches
}

/// Rebuilds `g` from scratch with a replacement edge set (same vertices,
/// labels and keywords, interned in the same order so ids line up).
fn rebuild_with_edges(g: &AttributedGraph, edges: &[(VertexId, VertexId)]) -> AttributedGraph {
    let mut b = cx_graph::GraphBuilder::with_capacity(g.vertex_count(), edges.len());
    for v in g.vertices() {
        let kws = g.keyword_names(g.keywords(v));
        let refs: Vec<&str> = kws.iter().map(String::as_str).collect();
        b.add_vertex(g.label(v), &refs);
    }
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.try_build().expect("scratch rebuild of a valid edge set")
}

/// Serialises `CX_THREADS` mutation across tests and oracles (environment
/// variables are process-global).
static THREAD_ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with `CX_THREADS` pinned to `n`, restoring the previous value
/// afterwards. Holds a global lock for the duration so concurrent callers
/// (e.g. parallel test threads) can't interleave env mutations.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = THREAD_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let old = std::env::var("CX_THREADS").ok();
    std::env::set_var("CX_THREADS", n.to_string());
    cx_par::refresh_threads();
    let out = f();
    match old {
        Some(v) => std::env::set_var("CX_THREADS", v),
        None => std::env::remove_var("CX_THREADS"),
    }
    cx_par::refresh_threads();
    out
}

/// Thread-independence oracle: evaluates `fingerprint_of()` under each
/// thread count and reports any divergence from the single-threaded run.
/// The closure should rebuild whatever is under test from scratch (e.g.
/// decompose + index + query) and return its fingerprint.
pub fn thread_differential(
    context: &str,
    counts: &[usize],
    fingerprint_of: impl Fn() -> String,
) -> Vec<Mismatch> {
    let base = with_threads(1, &fingerprint_of);
    counts
        .iter()
        .filter(|&&n| n != 1)
        .filter_map(|&n| {
            let got = with_threads(n, &fingerprint_of);
            (got != base).then(|| Mismatch {
                oracle: "threads",
                context: context.to_owned(),
                detail: format!("output at CX_THREADS={n} differs from CX_THREADS=1"),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_datagen::figure5_graph;

    #[test]
    fn strategies_agree_on_figure5() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        for q in g.vertices() {
            for k in 1..=3 {
                let (reference, mm) =
                    acq_strategy_differential(&g, &tree, &[q], &AcqOptions::with_k(k), 10);
                assert!(mm.is_empty(), "{mm:?}");
                // Reference passes its own invariants too.
                let s =
                    crate::invariants::check_acq_result(&g, q, k, g.keywords(q), &reference);
                assert!(s.is_empty(), "q={q:?} k={k}: {s:?}");
            }
        }
    }

    #[test]
    fn cache_oracle_is_clean_on_builtins() {
        let g = figure5_graph();
        for algo in ["acq", "global", "local", "ktruss"] {
            let mm = cached_vs_uncached(&g, algo, &QuerySpec::by_label("A").k(2));
            assert!(mm.is_empty(), "{algo}: {mm:?}");
        }
    }

    #[test]
    fn cd_search_oracle_is_clean_on_figure5() {
        let g = figure5_graph();
        let qs: Vec<VertexId> = g.vertices().collect();
        let mm = cd_search_vs_detect(&g, &qs);
        assert!(mm.is_empty(), "{mm:?}");
    }

    #[test]
    fn analysis_oracle_is_clean_on_figure5() {
        let g = figure5_graph();
        // Each vertex and k with the default S = W(q), then with S = the
        // first keyword of W(q) alone.
        let qs: Vec<QueryCase> = g
            .vertices()
            .flat_map(|q| (1..=3).map(move |k| (q, k)))
            .flat_map(|(q, k)| {
                let first = g.keywords(q).iter().take(1).copied().collect();
                [
                    QueryCase { q, companion: None, k, keywords: Vec::new() },
                    QueryCase { q, companion: None, k, keywords: first },
                ]
            })
            .collect();
        let mm = analysis_vs_pairs(&g, &qs);
        assert!(mm.is_empty(), "{mm:?}");
    }

    #[test]
    fn structural_oracle_is_clean_on_figure5() {
        let g = figure5_graph();
        let qs: Vec<VertexId> = g.vertices().collect();
        let (mm, local_legs) = structural_vs_peel(&g, &qs);
        assert!(mm.is_empty(), "{mm:?}");
        assert!(local_legs >= qs.len(), "{local_legs} Local legs");
    }

    #[test]
    fn cache_oracle_reports_errors_as_mismatch() {
        let g = figure5_graph();
        let mm = cached_vs_uncached(&g, "no-such-algo", &QuerySpec::by_label("A"));
        assert_eq!(mm.len(), 1);
        assert!(mm[0].detail.contains("errored"));
    }

    #[test]
    fn snapshot_oracle_is_clean_on_builtins() {
        let g = figure5_graph();
        // Removing a K4 edge changes the k=3 answer, so the pinned and
        // live snapshots genuinely diverge — the oracle must still pass.
        for algo in ["acq", "global", "local"] {
            for k in 1..=3 {
                let mm = snapshot_pinning_differential(
                    &g,
                    algo,
                    &QuerySpec::by_label("A").k(k),
                    &[],
                    &[(VertexId(0), VertexId(1))],
                );
                assert!(mm.is_empty(), "{algo} k={k}: {mm:?}");
            }
        }
    }

    #[test]
    fn snapshot_oracle_reports_bad_edits() {
        let g = figure5_graph();
        let mm = snapshot_pinning_differential(
            &g,
            "acq",
            &QuerySpec::by_label("A").k(2),
            &[(VertexId(0), VertexId(99))],
            &[],
        );
        assert_eq!(mm.len(), 1);
        assert!(mm[0].detail.contains("edit failed"));
    }

    #[test]
    fn incremental_oracle_is_clean_on_figure5() {
        let g = figure5_graph();
        let script = crate::workload::edit_script(&g, 25, 7);
        let (mm, branches) =
            incremental_vs_scratch(&g, &script, "acq", &QuerySpec::by_label("A").k(2));
        assert!(mm.is_empty(), "{mm:?}");
        assert!(branches.repaired > 0, "{branches:?}");
    }

    #[test]
    fn incremental_oracle_reports_bad_scripts() {
        let g = figure5_graph();
        let script = vec![crate::workload::EditStep {
            add: vec![(VertexId(0), VertexId(99))],
            remove: vec![],
        }];
        let (mm, _) = incremental_vs_scratch(&g, &script, "acq", &QuerySpec::by_label("A").k(2));
        assert_eq!(mm.len(), 1);
        assert!(mm[0].detail.contains("edit failed"), "{}", mm[0]);
    }

    #[test]
    fn scratch_reuse_oracle_is_clean_on_figure5() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        for q in g.vertices() {
            for k in 1..=3 {
                let mm = scratch_reuse_differential(&g, &tree, q, &AcqOptions::with_k(k));
                assert!(mm.is_empty(), "q={q:?} k={k}: {mm:?}");
            }
        }
    }

    #[test]
    fn with_threads_restores_environment() {
        // Read outside `with_threads` under its lock too, so no other
        // test's pinned value is seen in between.
        let read = || {
            let _guard = THREAD_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            std::env::var("CX_THREADS").ok()
        };
        let before = read();
        let seen = with_threads(3, || std::env::var("CX_THREADS").unwrap());
        assert_eq!(seen, "3");
        assert_eq!(read(), before);
    }

    #[test]
    fn thread_differential_flags_divergence() {
        // A closure that depends on the env var is (deliberately) not
        // thread-independent.
        let mm = thread_differential("selftest", &[1, 2], || {
            std::env::var("CX_THREADS").unwrap_or_default()
        });
        assert_eq!(mm.len(), 1);
        // A constant closure is clean.
        let mm = thread_differential("selftest", &[1, 2, 8], || "same".into());
        assert!(mm.is_empty());
    }
}
