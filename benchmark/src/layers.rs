//! The traced run: per-layer numbers, taken from outside every crate.
//!
//! Nothing here adds a span, counter or flag to the program. Each layer
//! is timed around its public entry points: the route through
//! `Server::handle`, then — on the same inputs, against the same pinned
//! snapshot — the engine search, the bare ACQ query, analysis and
//! layout, each by a call of its own (see [`crate::span`]). The same
//! run also probes the layers a request never reaches (index build,
//! store recovery, the edit path) at the workload's scale.

use std::path::Path;
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};

use cx_acq::{AcqOptions, AcqStrategy, QueryAnswer, QueryScratch};
use cx_cltree::{ClTree, Hierarchy, NodeId};
use cx_explorer::{cache::DEFAULT_CAPACITY, Engine, QuerySpec};
use cx_graph::{Subgraph, VertexId};
use cx_kcore::{CoreDecomposition, DynamicCore};
use cx_layout::LayoutAlgorithm;
use cx_server::conn::{ConnReader, ReadOutcome};
use cx_server::{Json, Request, Server, ServerConfig};
use cx_store::{Record, Store};

use crate::alloc;
use crate::answer;
use crate::http::Client;
use crate::prep::{PrepInfo, GRAPH};
use crate::run::{self, Booted, Options, Outcome};
use crate::span::{SpanId, SpanLog};
use crate::stats;
use crate::util::{self, Metrics, WorkDir};
use crate::workload::{self, param, Kind, Query, Req, Workload, BURST, TRACE_EDITS, TRACE_REPLAY};

/// The per-layer metrics every traced run reports, whatever the
/// workload, in `BENCHMARK.json` order.
pub const PER_LAYER: [&str; 69] = [
    "server.conn.parse_us",
    "server.routes.self_us",
    "server.json.serialize_us",
    "server.json.parse_us",
    "server.json.resp_bytes",
    "server.event_loop.residual_us",
    "server.routes.search_hit_p50_ms",
    "server.routes.svg_p50_ms",
    "server.routes.suggest_p50_ms",
    "server.routes.profile_p50_ms",
    "server.routes.hierarchy_level_p50_ms",
    "server.routes.hierarchy_expand_p50_ms",
    "server.routes.graphs_p50_ms",
    "server.routes.stats_p50_ms",
    "server.shed_total",
    "server.malformed_total",
    "explorer.snapshot_pin_us",
    "explorer.search_miss_us",
    "explorer.search_hit_us",
    "explorer.self_us",
    "explorer.cache_hit_ratio",
    "explorer.analyze_us",
    "explorer.display_us",
    "explorer.suggest_us",
    "explorer.hierarchy_first_ms",
    "explorer.hierarchy_expand_us",
    "explorer.apply_edits_single_ms",
    "explorer.apply_edits_batch16_ms",
    "explorer.open_durable_ms",
    "explorer.read_under_write_p50_ms",
    "acq.query_us",
    "acq.walk_us",
    "acq.verify_us",
    "acq.expand_us",
    "acq.candidates_verified_per_query",
    "acq.subtrees_pruned_per_query",
    "acq.signature_hits_per_query",
    "acq.allocs_per_query",
    "cltree.build_ms",
    "cltree.build_allocs",
    "cltree.build_bytes",
    "cltree.update_single_ms",
    "cltree.update_batch16_ms",
    "cltree.hierarchy_build_ms",
    "cltree.hierarchy_update_ms",
    "cltree.node_count",
    "cltree.memory_mb",
    "kcore.decompose_ms",
    "kcore.dynamic_update_us",
    "graph.apply_delta_ms",
    "graph.memory_mb",
    "store.open_replay_ms",
    "store.append_p50_us",
    "store.append_p95_us",
    "store.wal_bytes_per_edit",
    "store.compact_ms",
    "store.checkpoint_bytes_per_vertex",
    "store.reboot_s",
    "layout.force_us_per_scene",
    "metrics.cpj_cmf_us",
    "datagen.generate_s",
    "bench.prep_s",
    "bench.queries_rejected",
    "par.tasks_per_req",
    "obs.trace_overhead_ratio",
    "proc.cpu_ms_per_req",
    "client.lat_max_ms",
    "client.samples",
    "trace.coverage",
];

/// Single and burst edits the in-process edit probe applies.
const PROBE_SINGLES: usize = 3;
const PROBE_BURSTS: usize = 1;
/// Time limit of the short HTTP churn (it exists to put a reader next
/// to a writer, not to measure the writer).
const CHURN_BUDGET: Duration = Duration::from_secs(3);

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Median duration of up to three runs of `f` (one when a run takes
/// more than half a second — at a million vertices once is enough).
fn median_of_runs<R>(mut f: impl FnMut() -> R) -> (R, Duration) {
    let (mut out, first) = timed(&mut f);
    let mut runs = vec![first.as_secs_f64()];
    while runs.len() < 3 && runs.iter().sum::<f64>() < 1.5 && first.as_secs_f64() < 0.5 {
        let (next, d) = timed(&mut f);
        out = next;
        runs.push(d.as_secs_f64());
    }
    (out, Duration::from_secs_f64(stats::median(&runs).expect("at least one run")))
}

/// Median of nanosecond samples, in units of `unit_ns` nanoseconds.
fn median_in(ns: &[u64], unit_ns: f64) -> Option<f64> {
    stats::median(&ns.iter().map(|&x| x as f64 / unit_ns).collect::<Vec<_>>())
}

const US: f64 = 1e3;
const MS: f64 = 1e6;

fn mean(xs: &[u64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<u64>() as f64 / xs.len() as f64)
}

/// Durations and self times of a log's spans, by span name.
struct ByName(std::collections::BTreeMap<&'static str, (Vec<u64>, Vec<u64>)>);

impl ByName {
    /// Median duration of the spans called `name`, in µs.
    fn dur_us(&self, name: &str) -> Option<f64> {
        median_in(&self.0.get(name)?.0, US)
    }

    /// Median self time of the spans called `name`, in µs.
    fn self_us(&self, name: &str) -> Option<f64> {
        median_in(&self.0.get(name)?.1, US)
    }

    /// Mean duration of the spans called `name`, in µs.
    fn mean_us(&self, name: &str) -> Option<f64> {
        mean(&self.0.get(name)?.0).map(|ns| ns / US)
    }
}

/// What a traced run accumulates: its metrics and its count of requests
/// and checks made and failed.
#[derive(Default)]
struct Trace {
    m: Metrics,
    attempted: usize,
    failed: usize,
}

impl Trace {
    /// Records `name` if the layer produced the number; a missing one
    /// fails the run when the contract line is assembled.
    fn put_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        if let Some(v) = value {
            self.m.put(name, v, unit);
        }
    }

    fn count_pass(&mut self, pass: &run::Pass) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
    }

    fn count_check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as usize;
    }
}

/// Cold probes on the prepared store, before any server exists: what a
/// boot is made of.
fn cold_probes(store_dir: &Path, m: &mut Metrics) -> Result<(), String> {
    let (opened, open) = timed(|| Store::open(store_dir));
    // The handle goes at once: the server opens the same files next.
    let (_, state) = opened.map_err(|e| e.to_string())?;
    m.put_dur("store.open_replay_ms", open, "ms");
    let g = std::sync::Arc::clone(&state.graphs.get(GRAPH).ok_or("store holds no graph")?.graph);
    drop(state);
    let (cd, d) = median_of_runs(|| CoreDecomposition::compute_par(&g));
    m.put_dur("kcore.decompose_ms", d, "ms");
    let ((tree, allocs, bytes), d) =
        median_of_runs(|| alloc::counted(|| ClTree::build_with_cores(&g, cd.core_numbers())));
    m.put_dur("cltree.build_ms", d, "ms");
    m.put("cltree.build_allocs", allocs as f64, "count");
    m.put("cltree.build_bytes", bytes as f64, "B");
    m.put("cltree.node_count", tree.node_count() as f64, "count");
    m.put("cltree.memory_mb", tree.memory_bytes() as f64 / (1 << 20) as f64, "MB");
    m.put("graph.memory_mb", g.memory_bytes() as f64 / (1 << 20) as f64, "MB");
    let (_, d) = median_of_runs(|| Hierarchy::build(&g, &tree));
    m.put_dur("cltree.hierarchy_build_ms", d, "ms");
    Ok(())
}

/// What the in-process replay learns besides its spans.
#[derive(Default)]
struct Side {
    attempted: usize,
    failed: usize,
    search_hit_ns: Vec<u64>,
    /// `explorer.search` minus the bare ACQ query on the same inputs,
    /// unclipped: two separate calls, so noise can make it negative.
    search_minus_acq_ns: Vec<f64>,
    candidates: Vec<u64>,
    pruned: Vec<u64>,
    signature_hits: Vec<u64>,
    allocs: Vec<u64>,
    force_ns: Vec<u64>,
    cpj_cmf_ns: Vec<u64>,
}

/// Replays `list` in process. Per request: the bytes go through
/// `ConnReader`, the parsed request through `Server::handle`, the
/// response through `Response::to_bytes` — timed in place — and then the
/// layers under the route are called one by one on the same inputs and
/// nested into the route's span.
fn replay_in_process(
    server: &Server,
    list: &[Req],
    log: &mut SpanLog,
    side: &mut Side,
) -> Result<(), String> {
    let engine = server.engine();
    let mut reader = ConnReader::new();
    let mut parsed = Vec::new();
    for (r, req) in list.iter().enumerate() {
        let raw = format!("GET {} HTTP/1.1\r\nHost: cxb\r\n\r\n", req.target);
        let hits0 = engine.cache_stats().hits;
        let t0 = Instant::now();
        reader.push(raw.as_bytes());
        let outcome = reader.drain(&mut parsed);
        let t1 = Instant::now();
        let request: Request = match (parsed.pop(), outcome) {
            (Some(p), ReadOutcome::NeedMore) if parsed.is_empty() => p.request,
            _ => {
                return Err(format!(
                    "ConnReader did not yield exactly one request for {}",
                    req.target
                ))
            }
        };
        let t2 = Instant::now();
        let resp = server.handle(&request);
        let t3 = Instant::now();
        let bytes = resp.to_bytes(true);
        let t4 = Instant::now();
        std::hint::black_box(&bytes);
        side.attempted += 1;
        if resp.status != 200
            || answer::digest(req.kind, &resp.body).map(|d| d.0) != Some(req.expect)
        {
            side.failed += 1;
            continue;
        }
        let was_hit = engine.cache_stats().hits > hits0;
        let root = log.push("request", None, r as u32, t0, t4);
        log.push("conn.parse", Some(root), r as u32, t0, t1);
        let handle = log.push("routes.handle", Some(root), r as u32, t2, t3);
        log.push("json.to_bytes", Some(root), r as u32, t3, t4);
        nest_layers(&engine, req, was_hit, handle, log, side)?;
    }
    Ok(())
}

/// The separate calls under one `routes.handle` span.
fn nest_layers(
    engine: &Engine,
    req: &Req,
    was_hit: bool,
    handle: SpanId,
    log: &mut SpanLog,
    side: &mut Side,
) -> Result<(), String> {
    let bad = |what: &str| format!("{}: {what}", req.target);
    match req.kind {
        Kind::Search | Kind::Svg => {
            let q = Query::parse(&req.target).ok_or_else(|| bad("no id/k"))?;
            let (snap, d) = timed(|| engine.snapshot(None));
            let snap = snap.map_err(|e| e.to_string())?;
            log.nest("explorer.snapshot", handle, d);
            if !was_hit {
                // The route's call left the answer in the cache; forget
                // it, so the repeat sees the cache the route saw.
                engine.set_cache_capacity(DEFAULT_CAPACITY);
            }
            let spec = QuerySpec::by_id(q.v).k(q.k);
            let (found, d) = timed(|| engine.search_snapshot(&snap, "acq", &spec));
            let communities = found.map_err(|e| e.to_string())?;
            let search = log.nest("explorer.search", handle, d);
            if !was_hit {
                let acq = acq_layer(&snap, q, search, log, side);
                side.search_minus_acq_ns.push(d.as_nanos() as f64 - acq.as_nanos() as f64);
                let (_, d) = timed(|| engine.search_snapshot(&snap, "acq", &spec));
                side.search_hit_ns.push(d.as_nanos() as u64);
            }
            let g = &snap.graph;
            if req.kind == Kind::Search {
                let (_, d) = timed(|| engine.analyze_snapshot(&snap, &communities, q.v));
                log.nest("explorer.analyze", handle, d);
                let (_, d) = timed(|| {
                    (cx_metrics::cpj(g, &communities), cx_metrics::cmf(g, &communities, q.v))
                });
                side.cpj_cmf_ns.push(d.as_nanos() as u64);
            }
            let shown = if req.kind == Kind::Search { 5 } else { 1 };
            let force = LayoutAlgorithm::default_force();
            let (_, d) = timed(|| {
                for c in communities.iter().take(shown) {
                    std::hint::black_box(engine.display_snapshot(&snap, c, force, Some(q.v)));
                }
            });
            log.nest("explorer.display", handle, d);
            if let Some(c) = communities.first() {
                let sub = Subgraph::induced(g, c.vertices());
                let (_, d) = timed(|| force.run(&sub, 42));
                side.force_ns.push(d.as_nanos() as u64);
            }
        }
        Kind::Suggest => {
            let typed = param(&req.target, "q").ok_or_else(|| bad("no q"))?;
            let (hits, d) = timed(|| engine.suggest_page(None, typed, 0, 8));
            hits.map_err(|e| e.to_string())?;
            log.nest("explorer.suggest", handle, d);
        }
        Kind::HierarchyExpand => {
            let node: u32 = param(&req.target, "node")
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| bad("no node"))?;
            let snap = engine.snapshot(None).map_err(|e| e.to_string())?;
            let h = snap.hierarchy();
            // The route expands with half its default limit of 200.
            let (_, d) = timed(|| h.expand(&snap.graph, &snap.tree, NodeId(node), 100));
            log.nest("hierarchy.expand", handle, d);
        }
        _ => {}
    }
    Ok(())
}

/// The bare ACQ query under an `explorer.search` miss: `acq_with_scratch`
/// with the crate's own phase profile switched on for the call, under
/// the counting allocator.
fn acq_layer(
    snap: &cx_explorer::GraphSnapshot,
    q: Query,
    search: SpanId,
    log: &mut SpanLog,
    side: &mut Side,
) -> Duration {
    thread_local! {
        static SCRATCH: std::cell::RefCell<(QueryScratch, QueryAnswer)> =
            std::cell::RefCell::new((QueryScratch::new(), QueryAnswer::new()));
    }
    let counter = |name: &str| cx_obs::global().counter(name).get();
    let opts = AcqOptions::with_k(q.k);
    SCRATCH.with_borrow_mut(|(scratch, out)| {
        let (p0, s0) =
            (counter("cx_acq_subtrees_pruned_total"), counter("cx_acq_signature_hits_total"));
        cx_acq::profile::reset();
        cx_acq::profile::set_enabled(true);
        let (((), allocs, _), d) = timed(|| {
            alloc::counted(|| {
                cx_acq::acq_with_scratch(
                    &snap.graph,
                    &snap.tree,
                    q.v,
                    &opts,
                    AcqStrategy::Dec,
                    scratch,
                    out,
                )
            })
        });
        cx_acq::profile::set_enabled(false);
        let phases = cx_acq::profile::totals();
        let acq = log.nest("acq.query", search, d);
        log.nest("acq.walk", acq, Duration::from_nanos(phases.walk_ns));
        log.nest("acq.verify", acq, Duration::from_nanos(phases.verify_ns));
        log.nest("acq.expand", acq, Duration::from_nanos(phases.expand_ns));
        side.candidates.push(out.candidates_verified as u64);
        side.pruned.push(counter("cx_acq_subtrees_pruned_total") - p0);
        side.signature_hits.push(counter("cx_acq_signature_hits_total") - s0);
        side.allocs.push(allocs);
        d
    })
}

type Pairs = Vec<(VertexId, VertexId)>;

/// The edit body's `add` and `remove` pairs, and how long `Json::parse`
/// took.
fn parse_edit(body: &str) -> Result<(Pairs, Pairs, Duration), String> {
    let (v, d) = timed(|| Json::parse(body));
    let v = v.map_err(|e| e.to_string())?;
    let pairs = |key: &str| -> Option<Pairs> {
        v.get(key)?
            .as_array()?
            .iter()
            .map(|p| {
                let p = p.as_array()?;
                Some((VertexId(p.first()?.as_f64()? as u32), VertexId(p.get(1)?.as_f64()? as u32)))
            })
            .collect()
    };
    Ok((pairs("add").ok_or("edit body: add")?, pairs("remove").ok_or("edit body: remove")?, d))
}

/// The edit path, on the served engine (this mutates it, so it runs
/// after every read probe): the WAL append probe on a scratch store, a
/// short HTTP churn, then the in-process edit probe with each stage of
/// `apply_edits` timed by a call of its own. Returns how many edits the
/// served engine applied.
fn edit_phase(
    b: &mut Booted,
    edits: &[Req],
    reads: &[Req],
    scratch_dir: &Path,
    log: &mut SpanLog,
    t: &mut Trace,
) -> Result<u64, String> {
    let engine = b.server.engine();
    let port = b.handle.port();
    let base = engine.snapshot(None).map_err(|e| e.to_string())?;

    // WAL appends of the whole script's deltas, to a store of their own.
    let (scratch, _) = Store::open(scratch_dir).map_err(|e| e.to_string())?;
    let (mut parse_ns, mut append_ns) = (Vec::new(), Vec::new());
    let wal0 = scratch.wal_bytes();
    for (i, e) in edits.iter().enumerate() {
        let (add, remove, parse) = parse_edit(&e.body)?;
        parse_ns.push(parse.as_nanos() as u64);
        let delta = base.graph.edge_delta(&add, &remove).map_err(|e| e.to_string())?;
        let record = Record::Edit { name: GRAPH.to_owned(), generation: i as u64 + 1, delta };
        let (lsn, d) = timed(|| scratch.append(&record));
        lsn.map_err(|e| e.to_string())?;
        append_ns.push(d.as_nanos() as u64);
    }
    let append_us: Vec<f64> = stats::sorted_ms(&append_ns).iter().map(|ms| ms * 1e3).collect();
    t.put_opt("server.json.parse_us", median_in(&parse_ns, US), "us");
    t.put_opt("store.append_p50_us", stats::percentile_guarded(&append_us, 0.50), "us");
    t.put_opt("store.append_p95_us", stats::percentile_guarded(&append_us, 0.95), "us");
    t.m.put(
        "store.wal_bytes_per_edit",
        (scratch.wal_bytes() - wal0) as f64 / edits.len() as f64,
        "B",
    );
    drop(base);

    // A writer and a paced reader over real sockets.
    let (http, probe) = edits.split_at(edits.len() / 2);
    let next_read = AtomicUsize::new(0);
    let (churn, advanced) = run::churn_pass(
        port,
        &mut b.clients,
        http,
        reads,
        &next_read,
        Some(Instant::now() + CHURN_BUDGET),
    );
    t.count_pass(&churn);
    t.put_opt(
        "explorer.read_under_write_p50_ms",
        stats::percentile_guarded(&stats::sorted_ms(&churn.reader_lat), 0.50),
        "ms",
    );
    let mut applied = advanced as u64;

    // The in-process probe: a fixed number of singles and bursts, in
    // script order. Every stage is timed on the inputs `apply_edits` is
    // about to see, then `apply_edits` itself.
    let snap = engine.snapshot(None).map_err(|e| e.to_string())?;
    let mut dc = DynamicCore::from_graph_with_cores(&snap.graph, snap.tree.core_numbers());
    drop(snap);
    let (mut singles, mut bursts) = (0, 0);
    let mut dynamic = (0u64, 0u64);
    let mut by_class: [Vec<(u64, u64)>; 2] = [Vec::new(), Vec::new()];
    let (mut delta_ns, mut hier_ns) = (Vec::new(), Vec::new());
    for (i, e) in probe.iter().enumerate() {
        let (add, remove, _) = parse_edit(&e.body)?;
        let burst = add.len() == BURST;
        let taken = if burst { &mut bursts } else { &mut singles };
        if *taken == if burst { PROBE_BURSTS } else { PROBE_SINGLES } {
            continue;
        }
        *taken += 1;
        let snap = engine.snapshot(None).map_err(|e| e.to_string())?;
        let prev_h = snap.hierarchy();
        let ((delta, next_graph), d_graph) = timed(|| {
            let delta = snap.graph.edge_delta(&add, &remove).expect("script edits are in range");
            let next = snap.graph.apply_delta(&delta);
            (delta, next)
        });
        let (_, d_core) = timed(|| {
            for &(u, v) in &delta.removed {
                dc.remove_edge(u, v);
            }
            for &(u, v) in &delta.added {
                dc.insert_edge(u, v);
            }
        });
        let (next_tree, d_tree) =
            timed(|| snap.tree.update(&next_graph, &delta, dc.core_numbers()));
        let (_, d_hier) = timed(|| Hierarchy::update(&next_graph, &next_tree, &snap.tree, &prev_h));
        let record = Record::Edit {
            name: GRAPH.to_owned(),
            generation: (edits.len() + i) as u64 + 1,
            delta: delta.clone(),
        };
        let (lsn, d_append) = timed(|| scratch.append(&record));
        lsn.map_err(|e| e.to_string())?;
        drop((next_graph, next_tree, prev_h, snap));

        let t0 = Instant::now();
        let outcome = engine.apply_edits(None, &add, &remove);
        let t1 = Instant::now();
        t.count_check(outcome.is_ok());
        if outcome.is_err() {
            continue;
        }
        applied += 1;
        let root = log.push("explorer.apply_edits", None, (TRACE_REPLAY + i) as u32, t0, t1);
        log.nest("store.append", root, d_append);
        log.nest("graph.apply_delta", root, d_graph);
        log.nest("kcore.dynamic", root, d_core);
        log.nest("cltree.update", root, d_tree);
        log.nest("hierarchy.update", root, d_hier);
        dynamic.0 += d_core.as_nanos() as u64;
        dynamic.1 += delta.len() as u64;
        by_class[burst as usize].push(((t1 - t0).as_nanos() as u64, d_tree.as_nanos() as u64));
        delta_ns.push(d_graph.as_nanos() as u64);
        hier_ns.push(d_hier.as_nanos() as u64);
    }
    for (class, name) in by_class.iter().zip(["single", "batch16"]) {
        let (apply, tree): (Vec<u64>, Vec<u64>) = class.iter().copied().unzip();
        t.put_opt(&format!("explorer.apply_edits_{name}_ms"), median_in(&apply, MS), "ms");
        t.put_opt(&format!("cltree.update_{name}_ms"), median_in(&tree, MS), "ms");
    }
    t.put_opt("graph.apply_delta_ms", median_in(&delta_ns, MS), "ms");
    t.put_opt("cltree.hierarchy_update_ms", median_in(&hier_ns, MS), "ms");
    if dynamic.1 > 0 {
        t.m.put("kcore.dynamic_update_us", dynamic.0 as f64 / US / dynamic.1 as f64, "us");
    }
    Ok(applied)
}

/// Runs the traced run of one workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let w = opts.workload;
    let work =
        WorkDir::create(&opts.out, &format!("{}-trace", w.name())).map_err(|e| e.to_string())?;
    util::progress("prep (child process)");
    let prep: PrepInfo = run::prepare(opts, w.trace_plan(), &work.0)?;
    let store_dir = work.0.join("store");
    let miss = workload::read_list(&work.0.join("miss.tsv"))?;
    let browse = workload::read_list(&work.0.join("browse.tsv"))?;
    let probe = workload::read_list(&work.0.join("probe.tsv"))?;
    let edits = workload::read_list(&work.0.join("edits.tsv"))?;
    let reads = workload::read_list(&work.0.join("reads.tsv"))?;
    // The replayed list is the head of the workload's own. The churn
    // workload's reads are its reader's searches; its writer is covered
    // by the edit phase, which every traced run goes through.
    let list: &[Req] = if w == Workload::BrowseHit100k { &browse } else { &miss };
    if list.len() < 2 * TRACE_REPLAY || miss.len() < TRACE_REPLAY || edits.len() != TRACE_EDITS {
        return Err("prep produced short lists".into());
    }
    let mut t = Trace { failed: prep.reference_failures as usize, ..Trace::default() };

    util::progress("prepared; cold probes (store open, core decomposition, index build)");
    cold_probes(&store_dir, &mut t.m)?;
    util::progress("booting the server");

    let (server, d) = timed(|| Server::open_durable(&store_dir));
    let server = server.map_err(|e| e.to_string())?;
    t.m.put_dur("explorer.open_durable_ms", d, "ms");
    let config = ServerConfig { workers: util::host_cpus(), ..ServerConfig::default() };
    let handle = server.serve_background_with(config).map_err(|e| e.to_string())?;
    let port = handle.port();
    let connect = || Client::connect(port).map_err(|e| format!("connect: {e}"));
    let mut booted = Booted { clients: vec![connect()?, connect()?], server, handle };
    let (server, clients) = (&booted.server, &mut booted.clients);
    let engine = server.engine();
    let counter = |name: &str| cx_obs::global().counter(name).get();
    let (shed0, malformed0) = (counter("cx_http_shed_total"), counter("cx_http_malformed_total"));

    // The first hierarchy request on a fresh snapshot pays for the build.
    let (resp, d) = timed(|| server.handle(&Request::get("/api/v1/hierarchy?level=0")));
    t.count_check(resp.status == 200);
    t.m.put_dur("explorer.hierarchy_first_ms", d, "ms");

    util::progress("HTTP replay (warm-up, pass A, pass B)");
    // Warm-up, discarded: everything after the head of the list, so that
    // what follows runs against touched memory (and, for a session over
    // a hot set, a filled cache) while the head — the part replayed both
    // ways — is not what a cache of distinct queries holds.
    let (head, tail) = list.split_at(TRACE_REPLAY);
    run::read_pass(port, &mut clients[..1], tail, None);

    // Pass A: the head over one connection, nothing switched on.
    let cache0 = engine.cache_stats();
    let tasks0 = counter("cx_par_tasks_total{state=\"submitted\"}");
    let cpu0 = util::cpu_time();
    let a = run::read_pass(port, &mut clients[..1], head, None);
    let cpu = util::cpu_time().zip(cpu0).map(|(a, b)| a - b);
    let cache1 = engine.cache_stats();
    t.count_pass(&a);
    let a_ms = a.sorted_ms(None);
    let per_request = |x: f64| x / a.attempted.max(1) as f64;
    t.m.put("server.json.resp_bytes", a.answer_bytes as f64 / a.lat.len().max(1) as f64, "B");
    let tasks = counter("cx_par_tasks_total{state=\"submitted\"}") - tasks0;
    t.m.put("par.tasks_per_req", per_request(tasks as f64), "count");
    t.put_opt("proc.cpu_ms_per_req", cpu.map(|c| per_request(c.as_secs_f64() * 1e3)), "ms");
    t.put_opt("client.lat_max_ms", a_ms.last().copied(), "ms");
    t.m.put("client.samples", a_ms.len() as f64, "count");
    let hit_ratio = run::hit_ratio(&cache0, &cache1).unwrap_or(0.0);
    t.m.put("explorer.cache_hit_ratio", hit_ratio, "ratio");
    // Pass A found the head uncached unless the list keeps asking for the
    // same few answers. Each later replay of the head must find what
    // pass A found, so a cache that pass A missed in is emptied first.
    let forget = || {
        if hit_ratio < 0.5 {
            engine.set_cache_capacity(DEFAULT_CAPACITY);
        }
    };

    // Pass B: the head again with the tracing the program does have
    // (the ACQ phase profile) switched on.
    forget();
    cx_acq::profile::set_enabled(true);
    let b = run::read_pass(port, &mut clients[..1], head, None);
    cx_acq::profile::set_enabled(false);
    t.count_pass(&b);
    if a.failed == 0 && b.failed == 0 {
        t.m.put("obs.trace_overhead_ratio", b.wall.as_secs_f64() / a.wall.as_secs_f64(), "ratio");
    }

    util::progress("in-process replay");
    // The same head in process, layer by layer.
    let mut log = SpanLog::default();
    let mut side = Side::default();
    forget();
    replay_in_process(server, head, &mut log, &mut side)?;
    let by_name = ByName(log.by_name());
    t.put_opt("server.conn.parse_us", by_name.dur_us("conn.parse"), "us");
    t.put_opt("server.routes.self_us", by_name.self_us("routes.handle"), "us");
    t.put_opt("server.json.serialize_us", by_name.dur_us("json.to_bytes"), "us");
    // One connection, one request at a time, so pass A's latencies are in
    // list order and pair up with the in-process replay request by
    // request: what the client waited against what the call chain cost
    // (the sum of its spans' self times). The difference is sockets, the
    // event loop and the worker hand-off.
    let paired: Vec<(f64, f64)> = if a.failed == 0 && side.failed == 0 {
        let accounted = log.accounted_by_request_ns();
        a.lat
            .iter()
            .zip(accounted.values())
            .map(|(c, &i)| (c.1 as f64 / US, i as f64 / US))
            .collect()
    } else {
        Vec::new()
    };
    let median_of =
        |f: &dyn Fn(&(f64, f64)) -> f64| stats::median(&paired.iter().map(f).collect::<Vec<_>>());
    t.put_opt(
        "server.event_loop.residual_us",
        median_of(&|(client, inproc)| client - inproc),
        "us",
    );

    // Engine and ACQ numbers come from searches that miss; the browse
    // list has none, so that workload replays the head of the miss list
    // as well.
    let mut miss_log = SpanLog::default();
    let by_name = if w == Workload::BrowseHit100k {
        replay_in_process(server, &miss[..TRACE_REPLAY / 2], &mut miss_log, &mut side)?;
        ByName(miss_log.by_name())
    } else {
        by_name
    };
    t.put_opt("explorer.snapshot_pin_us", by_name.dur_us("explorer.snapshot"), "us");
    t.put_opt("explorer.search_miss_us", by_name.dur_us("explorer.search"), "us");
    t.put_opt("explorer.search_hit_us", median_in(&side.search_hit_ns, US), "us");
    t.put_opt("explorer.self_us", stats::median(&side.search_minus_acq_ns).map(|ns| ns / US), "us");
    t.put_opt("explorer.analyze_us", by_name.dur_us("explorer.analyze"), "us");
    t.put_opt("explorer.display_us", by_name.dur_us("explorer.display"), "us");
    t.put_opt("acq.query_us", by_name.dur_us("acq.query"), "us");
    // The phase split is read the way the crate's profile is meant to
    // be: phase totals over queries (a mean — many queries never reach
    // the expand phase, so its median is a flat zero).
    t.put_opt("acq.walk_us", by_name.mean_us("acq.walk"), "us");
    t.put_opt("acq.verify_us", by_name.mean_us("acq.verify"), "us");
    t.put_opt("acq.expand_us", by_name.mean_us("acq.expand"), "us");
    t.put_opt("acq.candidates_verified_per_query", mean(&side.candidates), "count");
    t.put_opt("acq.subtrees_pruned_per_query", mean(&side.pruned), "count");
    t.put_opt("acq.signature_hits_per_query", mean(&side.signature_hits), "count");
    t.put_opt("acq.allocs_per_query", median_in(&side.allocs, 1.0), "count");
    t.put_opt("layout.force_us_per_scene", median_in(&side.force_ns, US), "us");
    t.put_opt("metrics.cpj_cmf_us", median_in(&side.cpj_cmf_ns, US), "us");
    t.attempted += side.attempted;
    t.failed += side.failed;

    util::progress("endpoint probe");
    // Every read endpoint over HTTP, aimed at the hot authors; their
    // searches first, unmeasured, so the measured ones are cache hits.
    let searches: Vec<Req> = probe.iter().filter(|r| r.kind == Kind::Search).cloned().collect();
    run::read_pass(port, &mut clients[..1], &searches, None);
    let p = run::read_pass(port, &mut clients[..1], &probe, None);
    t.count_pass(&p);
    let http_p50_ms = |kind: Kind| stats::percentile_guarded(&p.sorted_ms(Some(kind)), 0.50);
    for kind in Kind::READS {
        let name = if kind == Kind::Search { "search_hit" } else { kind.name() };
        t.put_opt(&format!("server.routes.{name}_p50_ms"), http_p50_ms(kind), "ms");
    }
    // In process, only the endpoints with a layer of their own below the
    // route, and `graphs` as the request that costs next to nothing.
    let layered: Vec<Req> = probe
        .iter()
        .filter(|r| matches!(r.kind, Kind::Suggest | Kind::HierarchyExpand | Kind::Graphs))
        .cloned()
        .collect();
    let mut probe_log = SpanLog::default();
    replay_in_process(server, &layered, &mut probe_log, &mut Side::default())?;
    let probed = ByName(probe_log.by_name());
    // Do the layers account for what the client waits? Per request, its
    // in-process cost plus the transport cost of a request that does next
    // to nothing (`graphs`: client p50 minus its in-process p50), over
    // what the client waited for it.
    let graphs_inproc_us = median_in(
        &probe_log
            .spans()
            .iter()
            .filter(|s| s.name == "request" && layered[s.req as usize].kind == Kind::Graphs)
            .map(|s| s.duration_ns())
            .collect::<Vec<_>>(),
        US,
    );
    if let (Some(http_ms), Some(inproc)) = (http_p50_ms(Kind::Graphs), graphs_inproc_us) {
        let transport = http_ms * 1e3 - inproc;
        t.put_opt(
            "trace.coverage",
            median_of(&|(client, cost)| (cost + transport) / client),
            "ratio",
        );
    }
    t.put_opt("explorer.suggest_us", probed.dur_us("explorer.suggest"), "us");
    t.put_opt("explorer.hierarchy_expand_us", probed.dur_us("hierarchy.expand"), "us");

    util::progress("edit phase");
    // Writes last: they change what every read above was checked against.
    let applied =
        edit_phase(&mut booted, &edits, &reads, &work.0.join("scratch-store"), &mut log, &mut t)?;
    t.m.put("server.shed_total", (counter("cx_http_shed_total") - shed0) as f64, "count");
    let malformed = counter("cx_http_malformed_total") - malformed0;
    t.m.put("server.malformed_total", malformed as f64, "count");

    util::progress("restart and recovery check, compaction");
    // Restart from the files alone — checkpoint plus the WAL the edits
    // left — and find every acknowledged edit.
    let served = run::Served::of(&engine)?;
    drop((engine, booted));
    let (reopened, reboot, intact) = run::recover(&store_dir, &served, prep.generation + applied)?;
    t.m.put_dur("store.reboot_s", reboot, "s");
    t.count_check(intact);
    let (compacted, d) = timed(|| reopened.compact_store());
    compacted.map_err(|e| e.to_string())?;
    t.m.put_dur("store.compact_ms", d, "ms");
    let bytes_per_vertex = util::dir_bytes(&store_dir) as f64 / prep.vertices as f64;
    t.m.put("store.checkpoint_bytes_per_vertex", bytes_per_vertex, "B");
    drop(reopened);

    t.m.put("datagen.generate_s", prep.generate_s, "s");
    t.m.put("bench.prep_s", prep.prep_s, "s");
    t.m.put("bench.queries_rejected", prep.queries_rejected as f64, "count");

    util::progress("done");
    // Spans go to disk only now, when nothing is being timed any more.
    for (name, l) in [("", &log), ("-miss", &miss_log), ("-probe", &probe_log)] {
        if !l.spans().is_empty() {
            l.write_jsonl(&opts.out.join(format!("trace-{}{name}.jsonl", w.name())))
                .map_err(|e| e.to_string())?;
        }
    }
    if let Some(missing) = PER_LAYER.iter().find(|n| t.m.get(n).is_none()) {
        return Err(format!("the traced run produced no {missing}"));
    }
    let Trace { m: metrics, attempted, failed } = t;
    Ok(Outcome { metrics, per_pass: Vec::new(), attempted, failed, passes: 1, prep })
}
