//! The end-to-end run: boot the real server from the prepared store,
//! drive it over real sockets in a closed loop, check every answer.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use cx_explorer::cache::CacheStats;
use cx_explorer::Engine;
use cx_server::{Json, Server, ServerConfig, ServerHandle};

use crate::answer;
use crate::http::Client;
use crate::prep::PrepInfo;
use crate::stats;
use crate::util::{self, Metrics, WorkDir};
use crate::workload::{self, Kind, Plan, Req, Workload, EDITS_PER_PASS, READER_RATE_HZ};

/// Upper bound on measured passes of one run (bounds the churn script
/// and the sample memory).
pub const MAX_PASSES: usize = 12;

/// The end-to-end metrics the driver gates on, in `BENCHMARK.json`
/// order. `lat_p95_ms` and `error_rate` are measured and printed by every
/// run as well, but are not in this list: see the README.
pub const END_TO_END: [&str; 4] = ["setup_s", "lat_p50_ms", "throughput_rps", "peak_rss_mb"];

/// Command-line options shared by the end-to-end and the traced run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generator and of every request stream.
    pub seed: u64,
    /// Measurement budget: passes start while less than this has elapsed.
    pub seconds: f64,
    /// Exactly this many measured passes instead of a time budget.
    pub passes: Option<usize>,
    /// Smoke scale (smaller graphs, same workload definitions).
    pub quick: bool,
    /// The benchmark's output directory (`benchmark/out`).
    pub out: PathBuf,
}

/// Runs prep in a child process of the same executable and waits for it.
pub fn prepare(opts: &Options, plan: Plan, dir: &Path) -> Result<PrepInfo, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("prep")
        .args(["--workload", opts.workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--dir", &dir.display().to_string()])
        .args(["--miss", &plan.miss.to_string()])
        .args(["--browse", &plan.browse.to_string()])
        .args(["--probe", &plan.probe_per_kind.to_string()])
        .args(["--edits", &plan.edits.to_string()]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let status = cmd.status().map_err(|e| format!("spawning prep: {e}"))?;
    if !status.success() {
        return Err(format!("prep exited with {status}"));
    }
    PrepInfo::load(dir)
}

/// A served engine with its open client connections.
pub struct Booted {
    /// The server (owns the engine).
    pub server: Server,
    /// The running transport; dropping it drains and joins.
    pub handle: ServerHandle,
    /// Keep-alive connections, one per client thread.
    pub clients: Vec<Client>,
}

/// A response that arrived.
struct Answered {
    /// [`answer::digest`] of a 200, `None` for anything else.
    digest: Option<(u64, usize)>,
    /// First request byte written → last response byte read.
    latency: Duration,
}

/// Sends `req` on `client` and digests the answer.
fn ask(client: &mut Client, req: &Req, body: &mut Vec<u8>) -> std::io::Result<Answered> {
    let (status, t0, t1) =
        client.exchange(req.kind.method(), &req.target, req.body.as_bytes(), body)?;
    let digest = if status == 200 { answer::digest(req.kind, body) } else { None };
    Ok(Answered { digest, latency: t1 - t0 })
}

/// Boots the server on the prepared store: `Server::open_durable` →
/// listener up → `first` answered correctly over a fresh connection.
/// The returned duration is the `setup_s` sample.
pub fn boot(store: &Path, first: &Req, conns: usize) -> Result<(Booted, Duration), String> {
    let t0 = Instant::now();
    let server = Server::open_durable(store).map_err(|e| format!("open_durable: {e}"))?;
    let config = ServerConfig { workers: util::host_cpus(), ..ServerConfig::default() };
    let handle = server.serve_background_with(config).map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::connect(handle.port()).map_err(|e| format!("connect: {e}"))?;
    let mut body = Vec::new();
    let answered = ask(&mut client, first, &mut body).map_err(|e| format!("first request: {e}"))?;
    let setup = t0.elapsed();
    if answered.digest.map(|d| d.0) != Some(first.expect) {
        return Err(format!("first request {} answered wrongly after boot", first.target));
    }
    let mut clients = vec![client];
    for _ in 1..conns {
        clients.push(Client::connect(handle.port()).map_err(|e| format!("connect: {e}"))?);
    }
    Ok((Booted { server, handle, clients }, setup))
}

/// What one pass observed.
#[derive(Default)]
pub struct Pass {
    /// `(endpoint, first byte written → last byte read)` per correct
    /// answer.
    pub lat: Vec<(Kind, u64)>,
    /// Requests sent.
    pub attempted: usize,
    /// Requests that were not answered correctly.
    pub failed: usize,
    /// Answer bytes received (see [`answer::digest`]).
    pub answer_bytes: u64,
    /// Barrier release → last client done.
    pub wall: Duration,
    /// Paced-reader latencies, due time → last byte (churn only).
    pub reader_lat: Vec<u64>,
    /// How late the paced reader issued its requests (churn only).
    pub reader_late: Vec<u64>,
}

impl Pass {
    /// Sorted latencies in ms, of one endpoint or (`None`) of all.
    pub fn sorted_ms(&self, kind: Option<Kind>) -> Vec<f64> {
        let ns: Vec<u64> =
            self.lat.iter().filter(|l| kind.is_none_or(|k| l.0 == k)).map(|l| l.1).collect();
        stats::sorted_ms(&ns)
    }

    fn absorb(&mut self, other: Pass) {
        self.wall += other.wall;
        self.lat.extend(other.lat);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.answer_bytes += other.answer_bytes;
        self.reader_lat.extend(other.reader_lat);
        self.reader_late.extend(other.reader_late);
    }
}

/// One closed-loop client: takes the next unclaimed request, waits for
/// its answer, checks it, repeats.
fn closed_loop(
    client: &mut Client,
    port: u16,
    list: &[Req],
    cursor: &AtomicUsize,
    deadline: Option<Instant>,
) -> Pass {
    let mut pass = Pass::default();
    let mut body = Vec::with_capacity(64 * 1024);
    loop {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(req) = list.get(i) else { break };
        pass.attempted += 1;
        match ask(client, req, &mut body) {
            Ok(Answered { digest: Some((digest, bytes)), latency }) if digest == req.expect => {
                pass.lat.push((req.kind, latency.as_nanos() as u64));
                pass.answer_bytes += bytes as u64;
            }
            Ok(Answered { digest, .. }) => {
                eprintln!(
                    "wrong answer to {} {}: digest {digest:x?}, expected {:x}",
                    req.kind.method(),
                    req.target,
                    req.expect
                );
                pass.failed += 1;
            }
            Err(e) => {
                // Timeout or reset: the connection's framing is lost.
                eprintln!("no answer to {} {}: {e}", req.kind.method(), req.target);
                pass.failed += 1;
                match Client::connect(port) {
                    Ok(c) => *client = c,
                    Err(_) => break,
                }
            }
        }
    }
    pass
}

/// One pass of a read workload: every connection runs [`closed_loop`]
/// over the shared list until it is exhausted (or `deadline` passes).
pub fn read_pass(
    port: u16,
    clients: &mut [Client],
    list: &[Req],
    deadline: Option<Instant>,
) -> Pass {
    let cursor = AtomicUsize::new(0);
    let barrier = Barrier::new(clients.len() + 1);
    let mut total = Pass::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (cursor, barrier) = (&cursor, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    closed_loop(client, port, list, cursor, deadline)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        for h in handles {
            total.absorb(h.join().expect("client thread panicked"));
        }
        total.wall = t0.elapsed();
    });
    total
}

/// The churn workload's reader: one search every `1 / READER_RATE_HZ`
/// seconds on a fixed schedule, timed from the moment each was due.
/// Answers change as the writer edits, so they are checked for success
/// and for a generation that never moves backwards.
fn paced_reader(client: &mut Client, reads: &[Req], next: &AtomicUsize, stop: &AtomicBool) -> Pass {
    let mut pass = Pass::default();
    let mut body = Vec::with_capacity(64 * 1024);
    let period = Duration::from_secs_f64(1.0 / READER_RATE_HZ);
    let start = Instant::now();
    let mut last_generation = 0u64;
    for n in 0u32.. {
        let due = start + period * n;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        let req = &reads[next.fetch_add(1, Ordering::Relaxed) % reads.len()];
        pass.attempted += 1;
        let (status, t0, t1) = match client.exchange("GET", &req.target, b"", &mut body) {
            Ok(answered) => answered,
            Err(e) => {
                eprintln!("reader: no answer to {}: {e}", req.target);
                pass.failed += 1;
                break;
            }
        };
        let generation = answer::data_slice(&body).and_then(answer::generation_of);
        match generation {
            Some(g) if status == 200 && g >= last_generation => {
                last_generation = g;
                pass.reader_lat.push((t1 - due).as_nanos() as u64);
                pass.reader_late.push((t0 - due).as_nanos() as u64);
            }
            _ => {
                eprintln!(
                    "reader: {} answered {status}, generation {generation:?} after {last_generation}",
                    req.target
                );
                pass.failed += 1;
            }
        }
    }
    pass
}

/// One pass of the churn workload: the writer applies `edits` in order
/// on the first connection while the paced reader runs on the second.
pub fn churn_pass(
    port: u16,
    clients: &mut [Client],
    edits: &[Req],
    reads: &[Req],
    next_read: &AtomicUsize,
    deadline: Option<Instant>,
) -> (Pass, usize) {
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let (writer_client, rest) = clients.split_first_mut().expect("churn needs two connections");
    let reader_client = &mut rest[0];
    let mut total = Pass::default();
    std::thread::scope(|s| {
        let reader = s.spawn(|| paced_reader(reader_client, reads, next_read, &stop));
        let t0 = Instant::now();
        total = closed_loop(writer_client, port, edits, &cursor, deadline);
        total.wall = t0.elapsed();
        stop.store(true, Ordering::Release);
        total.absorb(reader.join().expect("reader thread panicked"));
    });
    // Edits are not idempotent: report how far the script advanced.
    (total, cursor.load(Ordering::Relaxed).min(edits.len()))
}

/// Share of the query-cache lookups between two readings that hit;
/// `None` when there were none.
pub fn hit_ratio(before: &CacheStats, after: &CacheStats) -> Option<f64> {
    let hits = after.hits - before.hits;
    let lookups = hits + (after.misses - before.misses);
    (lookups > 0).then(|| hits as f64 / lookups as f64)
}

/// What a served engine held at the moment it is about to be dropped.
pub struct Served {
    generation: u64,
    fingerprint: u64,
}

impl Served {
    /// Generation and `cx_check::canonical::graph_fingerprint` of the
    /// engine's current snapshot.
    pub fn of(engine: &Engine) -> Result<Self, String> {
        let snap = engine.snapshot(None).map_err(|e| e.to_string())?;
        let fingerprint =
            answer::fnv(cx_check::canonical::graph_fingerprint(&snap.graph).as_bytes());
        Ok(Served { generation: snap.generation, fingerprint })
    }
}

/// The durability check: reopens the store from its files alone (the
/// caller has dropped the server) and looks for exactly what was served —
/// the generation that `acknowledged` edits add up to, and the same graph
/// edge for edge. Returns the reopened engine, how long reopening took,
/// and whether everything was there.
pub fn recover(
    store: &Path,
    served: &Served,
    acknowledged: u64,
) -> Result<(Engine, Duration, bool), String> {
    let t0 = Instant::now();
    let reopened = Engine::open_durable(store).map_err(|e| e.to_string())?;
    let reboot = t0.elapsed();
    let found = Served::of(&reopened)?;
    let intact = found.generation == served.generation
        && served.generation == acknowledged
        && found.fingerprint == served.fingerprint;
    if !intact {
        eprintln!(
            "recovery check failed: generation {} (served {}, acknowledged {acknowledged}), fingerprints {:x} / {:x}",
            found.generation, served.generation, served.fingerprint, found.fingerprint
        );
    }
    Ok((reopened, reboot, intact))
}

/// Per-pass statistics, one vector entry per measured pass.
#[derive(Default)]
struct PerPass {
    p50: Vec<f64>,
    p95: Vec<f64>,
    p99: Vec<f64>,
    max: Vec<f64>,
    rps: Vec<f64>,
    by_kind: std::collections::BTreeMap<&'static str, Vec<f64>>,
}

impl PerPass {
    fn record(&mut self, pass: &Pass) -> Result<(), String> {
        let all = pass.sorted_ms(None);
        let refused = |p: &str| {
            format!(
                "{p} refused: a pass of {} samples leaves fewer than {} beyond it",
                all.len(),
                stats::MIN_BEYOND
            )
        };
        self.p50.push(stats::percentile_guarded(&all, 0.50).ok_or_else(|| refused("p50"))?);
        self.p95.push(stats::percentile_guarded(&all, 0.95).ok_or_else(|| refused("p95"))?);
        if let Some(p99) = stats::percentile_guarded(&all, 0.99) {
            self.p99.push(p99);
        }
        self.max.push(*all.last().expect("guarded above"));
        self.rps.push(pass.lat.len() as f64 / pass.wall.as_secs_f64());
        for kind in Kind::READS {
            if let Some(p50) = stats::percentile_guarded(&pass.sorted_ms(Some(kind)), 0.50) {
                self.by_kind.entry(kind.name()).or_default().push(p50);
            }
        }
        Ok(())
    }
}

fn median(v: &[f64]) -> f64 {
    stats::median(v).expect("at least one measured pass")
}

/// The outcome of an end-to-end run.
pub struct Outcome {
    /// Every metric measured (the end-to-end ones first).
    pub metrics: Metrics,
    /// Per-pass values of the end-to-end metrics, for `compare`.
    pub per_pass: Vec<(&'static str, Vec<f64>)>,
    /// Requests sent during the measured passes and the final checks.
    pub attempted: usize,
    /// Requests or checks that failed.
    pub failed: usize,
    /// Measured passes.
    pub passes: usize,
    /// Prep facts (fingerprint, rejected queries, …).
    pub prep: PrepInfo,
}

/// Runs one workload end to end.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let w = opts.workload;
    let work = WorkDir::create(&opts.out, w.name()).map_err(|e| e.to_string())?;
    util::progress("prep (child process)");
    let prep = prepare(opts, w.plan(MAX_PASSES), &work.0)?;
    util::progress("set-up, repeated");
    let store = work.0.join("store");
    let list = workload::read_list(&work.0.join(w.list_file()))?;
    let edits = workload::read_list(&work.0.join("edits.tsv"))?;
    let reads = workload::read_list(&work.0.join("reads.tsv"))?;
    let churn = w == Workload::EditChurn100k;
    // The writer and the paced reader are one connection each whatever
    // the host; the read workloads scale their fleet with it.
    let conns = if churn { 2 } else { util::conns() };

    // Set-up, several times over: each boot opens the same prepared
    // store (reads never change it), and the last one is kept to serve.
    let reps = if w == Workload::AcqMiss1m { 3 } else { 5 };
    let mut setups = Vec::with_capacity(reps);
    let mut booted = None;
    for _ in 0..reps {
        drop(booted.take());
        let (b, setup) = boot(&store, &list[0], conns)?;
        setups.push(setup.as_secs_f64());
        booted = Some(b);
    }
    let mut b = booted.expect("at least one boot");
    let engine = b.server.engine();
    let port = b.handle.port();

    util::progress("warm-up pass");
    // Warm-up: one pass, discarded, cut short at a quarter of the budget.
    let warm_deadline = Some(Instant::now() + Duration::from_secs_f64(opts.seconds / 4.0));
    let next_read = AtomicUsize::new(0);
    let mut edit_pos = 0usize;
    if churn {
        edit_pos = churn_pass(
            port,
            &mut b.clients,
            &edits[..EDITS_PER_PASS],
            &reads,
            &next_read,
            warm_deadline,
        )
        .1;
    } else {
        // Back to front: whatever part of the list the deadline leaves
        // in the query cache, the measured passes reach it last, after
        // more distinct requests than the cache holds.
        let backwards: Vec<Req> = list.iter().rev().cloned().collect();
        read_pass(port, &mut b.clients, &backwards, warm_deadline);
    }

    util::progress("measured passes");
    let counter = |name: &str| cx_obs::global().counter(name).get();
    let cache0 = engine.cache_stats();
    let (shed0, malformed0) = (counter("cx_http_shed_total"), counter("cx_http_malformed_total"));
    let cpu0 = util::cpu_time();
    let mut per_pass = PerPass::default();
    let mut total = Pass::default();
    let t_measure = Instant::now();
    let mut passes = 0usize;
    while match opts.passes {
        Some(n) => passes < n,
        None => passes < MAX_PASSES && t_measure.elapsed().as_secs_f64() < opts.seconds,
    } {
        let pass = if churn {
            let segment = edits
                .get(edit_pos..edit_pos + EDITS_PER_PASS)
                .ok_or("churn script exhausted (raise MAX_PASSES)")?;
            let (pass, advanced) =
                churn_pass(port, &mut b.clients, segment, &reads, &next_read, None);
            edit_pos += advanced;
            pass
        } else {
            read_pass(port, &mut b.clients, &list, None)
        };
        if pass.failed == 0 {
            per_pass.record(&pass)?;
        }
        total.absorb(pass);
        passes += 1;
    }
    util::progress("done measuring");
    let cpu = util::cpu_time().zip(cpu0).map(|(a, b)| a - b);
    let cache1 = engine.cache_stats();
    let peak_rss = util::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    let (mut attempted, mut failed) = (total.attempted, total.failed);
    if per_pass.p50.is_empty() {
        return Err(format!("no pass completed without failures ({failed} of {attempted} failed)"));
    }

    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("lat_p50_ms", median(&per_pass.p50), "ms");
    m.put("lat_p95_ms", median(&per_pass.p95), "ms");
    m.put("throughput_rps", median(&per_pass.rps), "req/s");
    m.put("peak_rss_mb", peak_rss, "MB");

    // Diagnostics from the same run (not part of the contract line).
    if !per_pass.p99.is_empty() {
        m.put("client.lat_p99_ms", median(&per_pass.p99), "ms");
    }
    m.put("client.lat_max_ms", median(&per_pass.max), "ms");
    m.put("client.samples", total.lat.len() as f64, "count");
    if let Some(ratio) = hit_ratio(&cache0, &cache1) {
        m.put("explorer.cache_hit_ratio", ratio, "ratio");
    }
    if let Some(cpu) = cpu {
        m.put("proc.cpu_ms_per_req", cpu.as_secs_f64() * 1e3 / total.attempted.max(1) as f64, "ms");
    }
    m.put("server.json.resp_bytes", total.answer_bytes as f64 / total.lat.len().max(1) as f64, "B");
    m.put("server.shed_total", (counter("cx_http_shed_total") - shed0) as f64, "count");
    m.put(
        "server.malformed_total",
        (counter("cx_http_malformed_total") - malformed0) as f64,
        "count",
    );
    // Per-endpoint medians say something only for a session that mixes
    // endpoints; its searches go to a hot set, so they are cache hits.
    if per_pass.by_kind.len() > 1 {
        for (kind, p50s) in &per_pass.by_kind {
            let name = if *kind == "search" { "search_hit" } else { kind };
            m.put(&format!("server.routes.{name}_p50_ms"), median(p50s), "ms");
        }
    }
    if churn {
        let lat = stats::sorted_ms(&total.reader_lat);
        for (q, name) in [(0.50, "p50"), (0.95, "p95")] {
            if let Some(v) = stats::percentile_guarded(&lat, q) {
                m.put(&format!("explorer.read_under_write_{name}_ms"), v, "ms");
            }
        }
        m.put("client.reader_samples", lat.len() as f64, "count");
        if let Some(late) = stats::percentile(&stats::sorted_ms(&total.reader_late), 0.95) {
            m.put("client.reader_late_p95_ms", late, "ms");
        }
    }
    m.put("datagen.generate_s", prep.generate_s, "s");
    m.put("bench.prep_s", prep.prep_s, "s");
    m.put("bench.queries_rejected", prep.queries_rejected as f64, "count");
    failed += prep.reference_failures as usize;

    if churn {
        let served = Served::of(&engine)?;
        drop((engine, b));
        let (_, reboot, intact) = recover(&store, &served, prep.generation + edit_pos as u64)?;
        m.put_dur("store.reboot_s", reboot, "s");
        attempted += 1;
        failed += !intact as usize;
    }
    m.put("error_rate", failed as f64 / attempted.max(1) as f64, "ratio");

    let per_pass_values = vec![
        ("setup_s", setups),
        ("lat_p50_ms", per_pass.p50),
        ("lat_p95_ms", per_pass.p95),
        ("throughput_rps", per_pass.rps),
    ];
    Ok(Outcome { metrics: m, per_pass: per_pass_values, attempted, failed, passes, prep })
}

/// The result document written to `out/<workload>.json`.
pub fn result_json(opts: &Options, kind: &str, o: &Outcome) -> Json {
    Json::obj([
        ("workload", Json::str(opts.workload.name())),
        ("run", Json::str(kind)),
        ("context", util::run_context(opts.seed, opts.quick, o.passes)),
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::num(o.attempted as f64)),
        ("failed", Json::num(o.failed as f64)),
        ("answers_fingerprint", Json::str(format!("{:016x}", o.prep.answers_fingerprint))),
        ("metrics", o.metrics.to_json(None)),
        (
            "per_pass",
            Json::Object(
                o.per_pass
                    .iter()
                    .map(|(n, vs)| ((*n).to_owned(), Json::arr(vs.iter().map(|v| Json::num(*v)))))
                    .collect(),
            ),
        ),
    ])
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and the metrics named in `names`.
pub fn contract_line(o: &Outcome, names: &[&str]) -> String {
    Json::obj([
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::num(o.attempted.max(1) as f64)),
        ("failed", Json::num(o.failed as f64)),
        ("metrics", o.metrics.to_json(Some(names))),
    ])
    .to_string()
}
