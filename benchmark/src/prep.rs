//! The untimed prep phase: generate the graph, write the durable store
//! the measured server will boot from, and build the request lists with
//! their reference answers.
//!
//! Prep runs in a process of its own. The measuring process starts from
//! a clean heap, so its `peak_rss_mb` is the server's and the client's,
//! not the generator's.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cx_acq::{AcqOptions, AcqStrategy};
use cx_explorer::{Engine, GraphSnapshot, Profile, QuerySpec};
use cx_graph::Community;
use cx_server::{Json, Request, Server};

use crate::answer::{self, Fnv};
use crate::util;
use crate::workload::{self, HotItem, Kind, Plan, Query, Req, Workload, HOT_SET, MAX_COMMUNITY};

/// Name the graph is registered under.
pub const GRAPH: &str = "dblp";
/// Queries whose answers are also put through the naive-reference
/// invariant checker (fewer on very large graphs, see [`run`]).
const INVARIANT_SAMPLE: usize = 32;

/// What prep tells the measuring process (`prep.json`).
#[derive(Debug, Clone, Default)]
pub struct PrepInfo {
    /// `cx_datagen::dblp_like` wall time.
    pub generate_s: f64,
    /// Whole prep wall time.
    pub prep_s: f64,
    /// Search candidates refused admission (largest community over
    /// [`MAX_COMMUNITY`]).
    pub queries_rejected: u64,
    /// HTTP-shaped answers that disagreed with the `cx_acq::acq`
    /// reference, plus invariant violations on the sample. Must be 0.
    pub reference_failures: u64,
    /// Digest of the admitted queries and their reference member ids.
    pub answers_fingerprint: u64,
    /// Vertices of the prepared graph.
    pub vertices: u64,
    /// Edges of the prepared graph.
    pub edges: u64,
    /// Generation the store holds.
    pub generation: u64,
    /// Bytes of the store directory after compaction.
    pub store_bytes: u64,
}

impl PrepInfo {
    fn to_json(&self) -> Json {
        Json::obj([
            ("generate_s", Json::num(self.generate_s)),
            ("prep_s", Json::num(self.prep_s)),
            ("queries_rejected", Json::num(self.queries_rejected as f64)),
            ("reference_failures", Json::num(self.reference_failures as f64)),
            // As a string: a u64 does not survive a JSON number.
            ("answers_fingerprint", Json::str(format!("{:016x}", self.answers_fingerprint))),
            ("vertices", Json::num(self.vertices as f64)),
            ("edges", Json::num(self.edges as f64)),
            ("generation", Json::num(self.generation as f64)),
            ("store_bytes", Json::num(self.store_bytes as f64)),
        ])
    }

    /// Reads `prep.json` from a prepared directory.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(dir.join("prep.json")).map_err(|e| e.to_string())?;
        let v = Json::parse(&text).map_err(|e| e.to_string())?;
        let f = |k: &str| v.get(k).and_then(Json::as_f64).ok_or_else(|| format!("prep.json: {k}"));
        Ok(Self {
            generate_s: f("generate_s")?,
            prep_s: f("prep_s")?,
            queries_rejected: f("queries_rejected")? as u64,
            reference_failures: f("reference_failures")? as u64,
            answers_fingerprint: v
                .get("answers_fingerprint")
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or("prep.json: answers_fingerprint")?,
            vertices: f("vertices")? as u64,
            edges: f("edges")? as u64,
            generation: f("generation")? as u64,
            store_bytes: f("store_bytes")? as u64,
        })
    }
}

/// The reference answer to one query: `cx_acq::acq` (the engine's `acq`
/// algorithm is exactly that call) on the server's own pinned snapshot.
/// Going through the engine leaves the answer in its query cache, so the
/// route call that follows serialises this very result instead of
/// computing it a second time — at a million vertices that halves prep.
fn reference(engine: &Engine, snap: &GraphSnapshot, q: Query) -> Result<Vec<Community>, String> {
    engine
        .search_snapshot(snap, "acq", &QuerySpec::by_id(q.v).k(q.k))
        .map_err(|e| format!("reference for vertex {} k={}: {e}", q.v.0, q.k))
}

fn admitted(communities: &[Community]) -> bool {
    communities.iter().map(|c| c.len()).max().unwrap_or(0) <= MAX_COMMUNITY
}

/// Violations the naive-reference checker (connectivity, minimum degree,
/// keyword maximality) finds in a direct `cx_acq::acq` answer, plus one
/// if that answer differs from the engine's.
fn invariant_violations(snap: &GraphSnapshot, q: Query, engine_answer: &[Community]) -> usize {
    let direct =
        cx_acq::acq(&snap.graph, &snap.tree, q.v, &AcqOptions::with_k(q.k), AcqStrategy::Dec);
    let s = snap.graph.keywords(q.v);
    cx_check::invariants::check_acq_result(&snap.graph, q.v, q.k, s, &direct).len()
        + (direct.communities != engine_answer) as usize
}

/// `f` over `0..n` on every core, results in index order. Indices are
/// claimed one at a time: neighbouring queries differ in cost by orders
/// of magnitude.
fn par_map<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..util::host_cpus().min(n.max(1)))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= n {
                            return mine;
                        }
                        mine.push((i, f(i)));
                    }
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("prep worker panicked") {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter().map(|r| r.expect("every index computed")).collect()
}

/// The in-process answer to a GET and its digest.
fn reference_answer(server: &Server, kind: Kind, target: &str) -> Result<(Vec<u8>, u64), String> {
    let resp = server.handle(&Request::get(target));
    if resp.status != 200 {
        return Err(format!("{target}: in-process status {}", resp.status));
    }
    let (digest, _) = answer::digest(kind, &resp.body)
        .ok_or_else(|| format!("{target}: in-process answer is not a success envelope"))?;
    Ok((resp.body, digest))
}

struct Admitted {
    q: Query,
    /// A hub query with a non-empty answer: one whose answer stays small
    /// while the graph is edited (see `reads.tsv` in [`run`]).
    steady: bool,
    req: Req,
    /// Whether the route's listed members equal the reference's.
    agrees: bool,
    reference: Vec<Community>,
}

/// Computes the reference for `q`, decides admission, and — if admitted —
/// takes the in-process route answer and compares its member ids with
/// the reference.
fn admit(
    server: &Server,
    snap: &GraphSnapshot,
    (q, hub): (Query, bool),
) -> Result<Option<Admitted>, String> {
    let reference = reference(&server.engine(), snap, q)?;
    if !admitted(&reference) {
        return Ok(None);
    }
    let target = q.search_target();
    let (body, expect) = reference_answer(server, Kind::Search, &target)?;
    let want: Vec<Vec<u32>> =
        reference.iter().take(5).map(|c| c.vertices().iter().map(|v| v.0).collect()).collect();
    let agrees = answer::search_members(&body) == Some((want, reference.len()));
    let req = Req { kind: Kind::Search, target, body: String::new(), expect };
    Ok(Some(Admitted { q, steady: hub && !reference.is_empty(), req, agrees, reference }))
}

fn fingerprint_into(h: &mut Fnv, q: Query, communities: &[Community]) {
    h.write_u64(q.v.0 as u64);
    h.write_u64(q.k as u64);
    h.write_u64(communities.len() as u64);
    for c in communities {
        h.write_u64(c.len() as u64);
        for v in c.vertices() {
            h.write_u64(v.0 as u64);
        }
    }
}

/// Digests for a list of `(kind, target)` GETs, computing each distinct
/// target once.
fn resolve(server: &Server, reqs: Vec<(Kind, String)>) -> Result<Vec<Req>, String> {
    let mut distinct: Vec<(Kind, String)> = reqs.clone();
    distinct.sort_by(|a, b| a.1.cmp(&b.1));
    distinct.dedup();
    let digests = par_map(distinct.len(), |i| {
        reference_answer(server, distinct[i].0, &distinct[i].1).map(|(_, d)| d)
    });
    let mut by_target = std::collections::HashMap::new();
    for ((_, target), d) in distinct.iter().zip(digests) {
        by_target.insert(target.as_str(), d?);
    }
    Ok(reqs
        .iter()
        .map(|(kind, target)| Req {
            kind: *kind,
            target: target.clone(),
            body: String::new(),
            expect: by_target[target.as_str()],
        })
        .collect())
}

/// Runs prep for `workload` into `dir` (created empty by the caller):
/// `dir/store` plus `miss.tsv` (with `reads.tsv`, its edit-proof subset),
/// `browse.tsv`, `probe.tsv`, `edits.tsv` as the plan asks, and
/// `prep.json`.
pub fn run(
    workload: Workload,
    seed: u64,
    quick: bool,
    plan: Plan,
    dir: &Path,
) -> Result<PrepInfo, String> {
    let t_prep = Instant::now();
    let mut info = PrepInfo::default();

    let t = Instant::now();
    let (g, areas) = cx_datagen::dblp_like(&workload.graph_params(quick));
    info.generate_s = t.elapsed().as_secs_f64();
    let profiles = cx_datagen::generate_profiles(&g, &areas, 50);
    drop(areas);

    // The store is written through the engine's own write paths, then
    // folded into a checkpoint: the measured boot loads a checkpoint and
    // replays an empty WAL, the state a long-running server restarts in.
    let server = Server::open_durable(&dir.join("store")).map_err(|e| e.to_string())?;
    let engine = server.engine();
    engine.add_graph(GRAPH, g);
    engine
        .set_profiles(
            None,
            profiles.into_iter().map(|p| {
                let profile = Profile {
                    name: p.name,
                    areas: p.areas,
                    institutes: p.institutes,
                    interests: p.interests,
                };
                (p.vertex, profile)
            }),
        )
        .map_err(|e| e.to_string())?;
    engine.compact_store().map_err(|e| e.to_string())?;
    info.store_bytes = util::dir_bytes(&dir.join("store"));

    // References come from the server's own pinned snapshot: no second
    // copy of the graph exists in this process.
    let snap: Arc<GraphSnapshot> = engine.snapshot(None).map_err(|e| e.to_string())?;
    info.vertices = snap.graph.vertex_count() as u64;
    info.edges = snap.graph.edge_count() as u64;
    info.generation = snap.generation;
    let hubs = workload::hubs(&snap.graph);
    let mut fingerprint = Fnv::default();

    // Miss list: walk the candidate stream a batch at a time (admission
    // order is the stream's, whatever the thread count).
    let mut miss: Vec<Admitted> = Vec::with_capacity(plan.miss);
    let mut candidates = workload::miss_candidates(&snap.graph, &hubs, seed);
    while miss.len() < plan.miss {
        let batch: Vec<(Query, bool)> = candidates.by_ref().take(64).collect();
        if batch.is_empty() {
            return Err("candidate stream ran dry before the miss list filled".into());
        }
        for outcome in par_map(batch.len(), |i| admit(&server, &snap, batch[i])) {
            if miss.len() == plan.miss {
                break;
            }
            match outcome? {
                Some(a) => miss.push(a),
                None => info.queries_rejected += 1,
            }
        }
    }
    for a in &miss {
        info.reference_failures += !a.agrees as u64;
        fingerprint_into(&mut fingerprint, a.q, &a.reference);
    }
    // Independent check on an evenly spaced sample. The naive checker
    // scans every vertex once per query keyword, so the sample is thinned
    // where that would outweigh the rest of prep (8 queries at 1M).
    let sample_len = INVARIANT_SAMPLE.min((8_000_000 / snap.graph.vertex_count().max(1)).max(1));
    let sample: Vec<&Admitted> =
        miss.iter().step_by((miss.len() / sample_len).max(1)).take(sample_len).collect();
    let violations =
        par_map(sample.len(), |i| invariant_violations(&snap, sample[i].q, &sample[i].reference));
    info.reference_failures += violations.iter().sum::<usize>() as u64;
    let list = |keep: &dyn Fn(&Admitted) -> bool| -> Vec<Req> {
        miss.iter().filter(|a| keep(a)).map(|a| a.req.clone()).collect()
    };
    workload::write_list(&dir.join("miss.tsv"), &list(&|_| true)).map_err(|e| e.to_string())?;
    // What a reader may keep asking while a writer edits the graph. A
    // vertex outside every k-core answers with no community until some
    // edit pulls it into the giant plain k-core, and then with that —
    // tens of thousands of members, which the search route cannot lay
    // out in minutes (README, "Known exclusions"). A hub's communities
    // are pinned by the keywords its group shares and stay small.
    workload::write_list(&dir.join("reads.tsv"), &list(&|a| a.steady))
        .map_err(|e| e.to_string())?;

    if plan.browse > 0 || plan.probe_per_kind > 0 {
        // Hot set: the first hubs whose query is admitted and non-empty.
        let mut hot: Vec<HotItem> = Vec::with_capacity(HOT_SET);
        for (i, &v) in hubs.iter().enumerate() {
            if hot.len() == HOT_SET {
                break;
            }
            let q = Query { v, k: [3, 4, 6][i % 3] };
            let res = reference(&engine, &snap, q)?;
            if admitted(&res) && !res.is_empty() {
                fingerprint_into(&mut fingerprint, q, &res);
                hot.push(HotItem {
                    q,
                    label: snap.graph.label(v).to_owned(),
                    node: snap.tree.node_of(v).0,
                });
            } else {
                info.queries_rejected += 1;
            }
        }
        if hot.len() < HOT_SET {
            return Err(format!("only {} admissible hot queries", hot.len()));
        }
        let browse = resolve(&server, workload::browse_requests(&hot, plan.browse, seed))?;
        workload::write_list(&dir.join("browse.tsv"), &browse).map_err(|e| e.to_string())?;
        let probe = resolve(&server, workload::probe_requests(&hot, plan.probe_per_kind))?;
        workload::write_list(&dir.join("probe.tsv"), &probe).map_err(|e| e.to_string())?;
    }

    if plan.edits > 0 {
        let protected: std::collections::HashSet<u32> = miss
            .iter()
            .filter(|a| a.steady)
            .flat_map(|a| a.reference.iter().flat_map(|c| c.vertices().iter().map(|v| v.0)))
            .collect();
        let edits: Vec<Req> = workload::edit_script(&snap.graph, plan.edits, seed, &protected)
            .iter()
            .enumerate()
            .map(|(i, step)| Req {
                kind: Kind::Edit,
                target: "/api/v1/edit".to_owned(),
                body: step.body(),
                expect: answer::edit_digest(step.edges_after, info.generation + i as u64 + 1),
            })
            .collect();
        workload::write_list(&dir.join("edits.tsv"), &edits).map_err(|e| e.to_string())?;
    }

    info.answers_fingerprint = fingerprint.0;
    info.prep_s = t_prep.elapsed().as_secs_f64();
    std::fs::write(dir.join("prep.json"), info.to_json().to_string()).map_err(|e| e.to_string())?;
    Ok(info)
}
