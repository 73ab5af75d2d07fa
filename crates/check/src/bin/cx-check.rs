//! `cx-check` — the seeded correctness sweep run in CI.
//!
//! Runs the full battery over a graph/query seed matrix:
//!
//! 1. **Invariants** — every community returned by the ACQ reference
//!    passes connectivity / membership / min-degree / theme checks, and
//!    every ACQ result passes keyword-maximality; the CL-tree's preorder
//!    columns and postings, and the graph's label column, match their
//!    definitions.
//! 2. **Core-number differential** — `CoreDecomposition` vs. a naive
//!    fixpoint peel.
//!
//!    2b. **Hierarchy reconstruction** — at every level, fully expanding
//!    the multi-resolution summary's supernodes must reproduce the exact
//!    k-core vertex set and edge multiset.
//! 3. **Strategy differential** — Dec vs. Inc-S / Inc-T / Basic, for
//!    single query vertices and query pairs, from k = 0 up. At the
//!    default `--basic-limit` every workload query must take the
//!    index-free Basic leg; the summary line reports the count, and how
//!    many of those legs were query sets and k = 0 queries — neither may
//!    be zero.
//! 4. **Cache, analysis and structural differentials** — cold vs. warm
//!    vs. cache-disabled engines; for every registered CD algorithm,
//!    `search` on each workload query vertex vs. the first cluster of a
//!    fresh `detect` holding it; for every registered CS algorithm and
//!    workload query, the engine's CPJ and CMF vs. their all-pairs
//!    definitions, bit for bit; and for every workload query vertex and
//!    k in 0..=core(q)+1, the engine's `global` and `kecc` (which start
//!    from the CL-tree interval) vs. their whole-graph-peel references,
//!    `sac_appinc` over that interval vs. over all n vertices, with
//!    `local` on the same legs held to Global's answer (the summary line
//!    counts those Local legs; zero is a failure).
//! 5. **Snapshot differential** — a reader pinned to a pre-edit snapshot
//!    vs. the post-edit snapshot: each must match an engine that only
//!    ever saw that graph version, and generations must advance.
//! 6. **Incremental differential** — a seeded 48-step edit script
//!    replayed through the incremental write path: after every step the
//!    patched graph, maintained core numbers, published CL-tree and a
//!    live `acq` and `global` query must all match a from-scratch rebuild
//!    of the same edge set, and a repaired tree's columns must pass the
//!    column invariants. The summary line counts the steps that shared
//!    the previous tree and those that repaired it; zero of either is a
//!    failure.
//! 7. **Thread differential** — CODICIL's labels and a `par_map_tasks`
//!    batch of ACQ answers at CX_THREADS=1 vs. N, on every graph with
//!    more than 1,024 edges (below that CODICIL's pair-weight map runs
//!    serially). The summary line counts those graphs; with a thread
//!    count above 1, zero is a failure.
//! 8. **Scratch-reuse differential** — the pooled zero-alloc query path
//!    vs. a deliberately dirtied caller-managed scratch, at 1 and 8
//!    threads: reuse must leave no residue between queries.
//! 9. **API fuzz** — mutated requests must never panic or break the
//!    JSON error contract.
//! 10. **Kill-replay** — a durable engine crashed at seeded WAL byte
//!     offsets (truncations and bit flips), with its checkpoint's
//!     CL-tree index sidecar missing, cut, flipped or foreign, or
//!     mid-compaction (a torn copy of the next checkpoint left behind),
//!     must recover to a committed generation with byte-identical
//!     fingerprints (`--kill-replay N` crash cases, every eight of them
//!     one of each kind; 0 skips the sweep).
//!
//! Exit status 0 = clean; 1 = violations found; 2 = bad usage.

use cx_acq::AcqOptions;
use cx_algos::Codicil;
use cx_check::invariants::{check_core_numbers, check_label_column, check_tree_columns};
use cx_check::oracle::thread_differential;
use cx_check::{
    acq_strategy_differential, analysis_vs_pairs, cached_vs_uncached, cd_search_vs_detect,
    check_acq_result, check_community,
    edit_script, fingerprint, fuzz_server, graph_matrix, hierarchy_reconstruction,
    incremental_vs_scratch, kill_replay, query_workload, scratch_reuse_differential,
    snapshot_pinning_differential, structural_vs_peel, FuzzParams, KillReplayParams,
};
use cx_cltree::ClTree;
use cx_datagen::dblp_like;
use cx_explorer::{Engine, QuerySpec};
use cx_kcore::CoreDecomposition;
use cx_server::Server;

struct Args {
    sizes: Vec<usize>,
    seeds: Vec<u64>,
    queries: usize,
    fuzz: usize,
    threads: Vec<usize>,
    basic_limit: usize,
    kill_replay: usize,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            sizes: vec![60, 200, 800],
            seeds: vec![7, 21],
            queries: 4,
            fuzz: 600,
            threads: vec![1, 2, 8],
            basic_limit: 10,
            kill_replay: 15,
        }
    }
}

fn parse_list<T: std::str::FromStr>(s: &str, flag: &str) -> Result<Vec<T>, String> {
    s.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| p.trim().parse::<T>().map_err(|_| format!("bad value {p:?} for {flag}")))
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || -> Result<&str, String> {
            i += 1;
            argv.get(i).map(|s| s.as_str()).ok_or(format!("{flag} needs a value"))
        };
        match flag {
            "--sizes" => args.sizes = parse_list(value()?, flag)?,
            "--seeds" => args.seeds = parse_list(value()?, flag)?,
            "--queries" => args.queries = value()?.parse().map_err(|_| format!("bad {flag}"))?,
            "--fuzz" => args.fuzz = value()?.parse().map_err(|_| format!("bad {flag}"))?,
            "--threads" => args.threads = parse_list(value()?, flag)?,
            "--basic-limit" => {
                args.basic_limit = value()?.parse().map_err(|_| format!("bad {flag}"))?
            }
            "--kill-replay" => {
                args.kill_replay = value()?.parse().map_err(|_| format!("bad {flag}"))?
            }
            "--help" | "-h" => {
                println!(
                    "usage: cx-check [--sizes N,N,..] [--seeds S,S,..] [--queries N] \
                     [--fuzz N] [--threads N,N,..] [--basic-limit N] [--kill-replay N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cx-check: {e}");
            std::process::exit(2);
        }
    };

    let mut problems: Vec<String> = Vec::new();
    let mut queries_run = 0usize;
    let mut basic_legs = 0usize;
    let mut qset_basic = 0usize;
    let mut k0_basic = 0usize;
    let mut local_legs = 0usize;
    let mut tree_shared = 0usize;
    let mut tree_repaired = 0usize;
    let mut thread_graphs = 0usize;
    let matrix = graph_matrix(&args.sizes, &args.seeds);
    println!(
        "cx-check: {} graphs × {} queries, threads {:?}, fuzz {}",
        matrix.len(),
        args.queries,
        args.threads,
        args.fuzz
    );

    for case in &matrix {
        let g = &case.graph;
        let tree = ClTree::build(g);
        let decomp = CoreDecomposition::compute(g);

        // Core-number differential against the naive peel inside cx-check.
        for v in check_core_numbers(g, &|v| decomp.core(v)) {
            problems.push(format!("{} [core/seq] {v}", case.name));
        }

        // The index's preorder columns and keyword postings, by brute force.
        for v in check_tree_columns(g, &tree) {
            problems.push(format!("{} {v}", case.name));
        }

        // The label column's arena, folded twin and sorted order.
        for v in check_label_column(g) {
            problems.push(format!("{} {v}", case.name));
        }

        // Hierarchy reconstruction: recursively expanding every level's
        // supernodes must reproduce the exact k-core vertex set and edge
        // multiset, with aggregates matching the expansions.
        let hier = cx_cltree::Hierarchy::build(g, &tree);
        for v in hierarchy_reconstruction(g, &tree, &hier) {
            problems.push(format!("{} {v}", case.name));
        }

        let workload = query_workload(g, args.queries, 0xC0DE ^ g.vertex_count() as u64);
        for qc in &workload {
            queries_run += 1;
            let mut opts = AcqOptions::with_k(qc.k).max_candidates(2000);
            if !qc.keywords.is_empty() {
                opts = opts.keywords(qc.keywords.clone());
            }
            let qs = qc.qs();
            let (reference, mismatches) =
                acq_strategy_differential(g, &tree, &qs, &opts, args.basic_limit);
            for m in mismatches {
                problems.push(format!("{} {}", case.name, m));
            }
            let s: Vec<_> = if qc.keywords.is_empty() {
                g.keywords(qc.q).to_vec()
            } else {
                qc.keywords.clone()
            };
            // Same rule the differential applies to admit Basic.
            let basic = s.len() <= args.basic_limit;
            basic_legs += usize::from(basic);
            qset_basic += usize::from(basic && qc.companion.is_some());
            k0_basic += usize::from(basic && qc.k == 0);
            // Keyword maximality is checked for one query vertex; a query
            // set's communities get the structural checks against all of Q.
            let violations = match qc.companion {
                None => check_acq_result(g, qc.q, qc.k, &s, &reference),
                Some(_) => reference
                    .communities
                    .iter()
                    .flat_map(|c| check_community(g, c, &qs, qc.k))
                    .collect(),
            };
            for v in violations {
                problems.push(format!("{} {} {}", case.name, qc.describe(g), v));
            }
        }

        // Cache differential on a hub query, across engine algorithms.
        if let Some(qc) = workload.first() {
            let spec = QuerySpec::by_id(qc.q).k(qc.k);
            for algo in ["acq", "global", "local", "ktruss"] {
                for m in cached_vs_uncached(g, algo, &spec) {
                    problems.push(format!("{} {}", case.name, m));
                }
            }
        }

        // CD-search differential: every CD name, every workload vertex.
        let qs: Vec<_> = workload.iter().map(|qc| qc.q).collect();
        for m in cd_search_vs_detect(g, &qs) {
            problems.push(format!("{} {}", case.name, m));
        }

        // Analysis differential: every CS name, every workload query.
        for m in analysis_vs_pairs(g, &workload) {
            problems.push(format!("{} {}", case.name, m));
        }

        // Structural differential: the CL-tree interval vs. a whole-graph
        // peel, for every workload vertex and every k up to core(q) + 1.
        let (mismatches, legs) = structural_vs_peel(g, &qs);
        local_legs += legs;
        for m in mismatches {
            problems.push(format!("{} {}", case.name, m));
        }

        // Snapshot differential: a reader pinned to the pre-edit snapshot
        // and the post-edit snapshot must each match an engine that only
        // ever saw that graph version. The edit removes one of the hub's
        // incident edges, so pinned and live answers genuinely differ.
        if let Some(qc) = workload.first() {
            let spec = QuerySpec::by_id(qc.q).k(qc.k);
            if let Some(&u) = g.neighbors(qc.q).first() {
                for algo in ["acq", "global", "local"] {
                    for m in snapshot_pinning_differential(g, algo, &spec, &[], &[(qc.q, u)]) {
                        problems.push(format!("{} {}", case.name, m));
                    }
                }
            }
        }

        // Incremental differential: a seeded edit script replayed through
        // the incremental write path must match a from-scratch rebuild
        // after every single step, counting the steps that shared the
        // previous tree and those that repaired it.
        if let Some(qc) = workload.first() {
            let spec = QuerySpec::by_id(qc.q).k(qc.k);
            let script = edit_script(g, 48, 0xED17 ^ g.vertex_count() as u64);
            for algo in ["acq", "global"] {
                let (mismatches, branches) = incremental_vs_scratch(g, &script, algo, &spec);
                tree_shared += branches.shared;
                tree_repaired += branches.repaired;
                for m in mismatches {
                    problems.push(format!("{} {}", case.name, m));
                }
            }
        }

        // Thread differential: the parallel code a matrix graph reaches —
        // CODICIL's clustering and a batch of ACQ answers fanned out one
        // task per query — must be identical at every thread count.
        if g.edge_count() > 1_024 {
            thread_graphs += 1;
            for m in thread_differential(&case.name, &args.threads, || {
                let labels = Codicil::default().detect(g).labels;
                let answers = cx_par::par_map_tasks(workload.len(), |i| {
                    fingerprint(&acq(g, &tree, workload[i].q, workload[i].k))
                });
                format!("{labels:?};{}", answers.join(";"))
            }) {
                problems.push(format!("{} {}", case.name, m));
            }
        }
        // Scratch-reuse differential: the pooled path, a reused
        // caller-managed scratch, and the 8-thread gate must all agree
        // on every workload query.
        for qc in &workload {
            let mut opts = AcqOptions::with_k(qc.k).max_candidates(2000);
            if !qc.keywords.is_empty() {
                opts = opts.keywords(qc.keywords.clone());
            }
            for m in scratch_reuse_differential(g, &tree, qc.q, &opts) {
                problems.push(format!("{} {}", case.name, m));
            }
        }
        println!("  {} ok ({} vertices, {} edges)", case.name, g.vertex_count(), g.edge_count());
    }

    // API fuzz: one server seeded with the figure-5 fixture plus a small
    // generated graph, hammered with mutated requests.
    let engine = Engine::with_graph("fig5", cx_datagen::figure5_graph());
    let (dblp, _) = dblp_like(&cx_check::workload::check_params(120, 5));
    engine.add_graph("dblp", dblp);
    let server = Server::new(engine);
    let report = fuzz_server(&server, &FuzzParams { requests: args.fuzz, seed: 0xF022 });
    println!("  fuzz: {}", report.summary());
    problems.extend(report.failures.iter().map(|f| format!("fuzz {f}")));

    // Kill-replay: crash the durable store at seeded byte offsets and
    // require recovery to land on an exact committed state.
    let mut crashes = 0;
    if args.kill_replay > 0 {
        let kr = kill_replay(&KillReplayParams {
            cases: args.kill_replay,
            ..KillReplayParams::default()
        });
        crashes = kr.cases;
        println!(
            "  kill-replay: {} cases ({} truncations, {} bitflips, sidecar missing/cut/flipped/foreign {:?}, {} torn checkpoints), {} committed generations",
            kr.cases,
            kr.truncations,
            kr.bitflips,
            kr.sidecar_cases,
            kr.torn_checkpoints,
            kr.committed_generations
        );
        problems.extend(kr.failures.iter().map(|f| format!("kill-replay {f}")));
    }

    // Index-free Basic is the independent reference for the postings-
    // backed strategies, so at the default limit no query may skip it.
    if args.basic_limit == Args::default().basic_limit && basic_legs < queries_run {
        problems.push(format!(
            "only {basic_legs} of {queries_run} workload queries were compared against Basic"
        ));
    }
    if qset_basic == 0 || k0_basic == 0 {
        problems.push(format!(
            "Basic checked {qset_basic} query sets and {k0_basic} k = 0 queries; both must be \
             non-zero (raise --queries or --basic-limit)"
        ));
    }

    // Local's only answer oracle is the structural sweep.
    if local_legs == 0 {
        problems.push("no Local leg was checked against Global".to_string());
    }

    // Both ways an edit publishes its tree must have been checked.
    if tree_shared == 0 || tree_repaired == 0 {
        problems.push(format!(
            "edit steps shared {tree_shared} trees and repaired {tree_repaired}; both must be \
             non-zero"
        ));
    }

    // A thread differential over serial code proves nothing.
    if thread_graphs == 0 && args.threads.iter().any(|&n| n > 1) {
        problems.push(
            "no graph has more than 1,024 edges, so the thread differential reached no \
             parallel code (add a size of at least 800)"
                .to_string(),
        );
    }

    if problems.is_empty() {
        println!(
            "cx-check PASS: {} graphs ({} thread-checked), {} queries ({} vs Basic: {} query sets, {} at k = 0), {} Local legs, {} edit steps ({} shared trees, {} repaired), {} fuzz requests, {} crash cases — no violations",
            matrix.len(),
            thread_graphs,
            queries_run,
            basic_legs,
            qset_basic,
            k0_basic,
            local_legs,
            tree_shared + tree_repaired,
            tree_shared,
            tree_repaired,
            report.total,
            crashes
        );
    } else {
        eprintln!("cx-check FAIL: {} violations", problems.len());
        for p in problems.iter().take(50) {
            eprintln!("  {p}");
        }
        if problems.len() > 50 {
            eprintln!("  … and {} more", problems.len() - 50);
        }
        std::process::exit(1);
    }
}

/// Runs the Dec reference through `cx_acq::acq` with default keyword set.
fn acq(
    g: &cx_graph::AttributedGraph,
    tree: &ClTree,
    q: cx_graph::VertexId,
    k: u32,
) -> Vec<cx_graph::Community> {
    cx_acq::acq(g, tree, q, &AcqOptions::with_k(k), cx_acq::AcqStrategy::Dec).communities
}
