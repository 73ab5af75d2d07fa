//! Workload definitions: the four named workloads, the seeded request
//! streams they draw from, and the on-disk request-list format prep
//! hands to the measuring process.
//!
//! Everything here is a pure function of `(graph, seed)`; answers and
//! admission (which need the engine) live in [`crate::prep`].

use std::collections::HashSet;
use std::path::Path;

use cx_datagen::DblpParams;
use cx_graph::{AttributedGraph, VertexId};

use crate::answer::Fnv;

/// Seed of the generated graphs.
pub const GRAPH_SEED: u64 = 42;
/// Largest community a search may return and still be admitted. See
/// "Known exclusions" in the README: beyond a few hundred members the
/// search route's per-community force layout dominates by orders of
/// magnitude and ignores `timeout_ms`.
pub const MAX_COMMUNITY: usize = 512;
/// Hot-set size of the browse workload (fits the 128-entry query cache).
pub const HOT_SET: usize = 48;
/// Edits per measured pass of the churn workload — the smallest pass
/// whose p95 keeps ten samples beyond it.
pub const EDITS_PER_PASS: usize = 200;
/// Searches per second the churn workload's paced reader issues.
pub const READER_RATE_HZ: f64 = 20.0;
/// Requests at the head of a workload's list that the traced run
/// replays — over HTTP, and again in process, where every request is
/// followed by separate calls into each layer below the route (about
/// three times the work of the request itself).
pub const TRACE_REPLAY: usize = 64;
/// Steps of the traced run's edit script: the first half feeds a short
/// HTTP churn, the second the in-process edit probe, and all of them the
/// WAL append probe (enough for its p95).
pub const TRACE_EDITS: usize = 256;

/// The four named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Distinct ACQ searches on the 100k graph; the cache never hits.
    AcqMiss100k,
    /// Distinct ACQ searches at the paper's scale (1M vertices).
    AcqMiss1m,
    /// A browse session over a hot set that fits the cache.
    BrowseHit100k,
    /// One closed-loop writer plus a paced reader.
    EditChurn100k,
}

/// How many requests of each stream prep must prepare.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Plan {
    /// Admitted distinct searches (`miss.tsv`).
    pub miss: usize,
    /// Browse-session requests (`browse.tsv`).
    pub browse: usize,
    /// Requests per endpoint in the endpoint probe (`probe.tsv`).
    pub probe_per_kind: usize,
    /// Edit-script steps (`edits.tsv`).
    pub edits: usize,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::AcqMiss100k,
        Workload::AcqMiss1m,
        Workload::BrowseHit100k,
        Workload::EditChurn100k,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AcqMiss100k => "acq_miss_100k",
            Workload::AcqMiss1m => "acq_miss_1m",
            Workload::BrowseHit100k => "browse_hit_100k",
            Workload::EditChurn100k => "edit_churn_100k",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Generator parameters. The graph is a fixed data set — the stand-in
    /// for the paper's DBLP sample — generated from [`GRAPH_SEED`] whatever
    /// `--seed` says; `--seed` drives every request stream over it (see
    /// the README, "Steadiness", for why). `quick` shrinks the graphs for
    /// smoke runs (20k vertices instead of 100k, 200k instead of 1M) and
    /// changes nothing else about the workload.
    pub fn graph_params(self, quick: bool) -> DblpParams {
        match (self, quick) {
            (Workload::AcqMiss1m, false) => DblpParams::paper_scale(GRAPH_SEED),
            (Workload::AcqMiss1m, true) => {
                DblpParams { authors: 200_000, ..DblpParams::paper_scale(GRAPH_SEED) }
            }
            (_, false) => DblpParams::scaled(100_000, GRAPH_SEED),
            (_, true) => DblpParams::scaled(20_000, GRAPH_SEED),
        }
    }

    /// The prepared list this workload's read requests come from.
    pub fn list_file(self) -> &'static str {
        if self == Workload::BrowseHit100k {
            "browse.tsv"
        } else {
            "miss.tsv"
        }
    }

    /// Length of the admitted miss list this workload is defined over.
    pub fn miss_len(self) -> usize {
        match self {
            Workload::AcqMiss100k => 2048,
            Workload::AcqMiss1m => 384,
            // The churn reader walks the hub half of the head of the
            // `acq_miss_100k` list (the stream is prefix-stable, so the
            // first 512 of 2048 are the same 512).
            Workload::EditChurn100k => 512,
            Workload::BrowseHit100k => 0,
        }
    }

    /// What the end-to-end run needs prepared. `max_passes` bounds the
    /// churn script (edits are not idempotent, so every pass — warm-up
    /// included — consumes a fresh segment).
    pub fn plan(self, max_passes: usize) -> Plan {
        match self {
            Workload::BrowseHit100k => Plan { browse: 6000, ..Plan::default() },
            Workload::EditChurn100k => Plan {
                miss: self.miss_len(),
                edits: EDITS_PER_PASS * (max_passes + 1),
                ..Plan::default()
            },
            _ => Plan { miss: self.miss_len(), ..Plan::default() },
        }
    }

    /// What the traced run needs prepared: the head of the workload's
    /// own list plus the fixed probes every traced run makes.
    pub fn trace_plan(self) -> Plan {
        Plan {
            // What follows the head is the warm-up: as many distinct
            // searches again, or enough of a browse session to visit the
            // whole hot set.
            miss: 2 * TRACE_REPLAY,
            browse: if self == Workload::BrowseHit100k { 16 * TRACE_REPLAY } else { 0 },
            // Enough for a guarded median per endpoint.
            probe_per_kind: 24,
            edits: TRACE_EDITS,
        }
    }
}

/// Endpoint a request exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `GET /api/v1/search`
    Search,
    /// `GET /api/v1/svg`
    Svg,
    /// `GET /api/v1/suggest`
    Suggest,
    /// `GET /api/v1/hierarchy?node=`
    HierarchyExpand,
    /// `GET /api/v1/profile`
    Profile,
    /// `GET /api/v1/hierarchy?level=`
    HierarchyLevel,
    /// `GET /api/v1/graphs`
    Graphs,
    /// `GET /api/v1/stats`
    Stats,
    /// `POST /api/v1/edit`
    Edit,
}

impl Kind {
    /// The read endpoints, in the order of the browse mix.
    pub const READS: [Kind; 8] = [
        Kind::Search,
        Kind::Svg,
        Kind::Suggest,
        Kind::HierarchyExpand,
        Kind::Profile,
        Kind::HierarchyLevel,
        Kind::Graphs,
        Kind::Stats,
    ];

    /// Stable name (list files, metric suffixes).
    pub fn name(self) -> &'static str {
        match self {
            Kind::Search => "search",
            Kind::Svg => "svg",
            Kind::Suggest => "suggest",
            Kind::HierarchyExpand => "hierarchy_expand",
            Kind::Profile => "profile",
            Kind::HierarchyLevel => "hierarchy_level",
            Kind::Graphs => "graphs",
            Kind::Stats => "stats",
            Kind::Edit => "edit",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::READS.into_iter().chain([Kind::Edit]).find(|k| k.name() == s)
    }

    /// HTTP method.
    pub fn method(self) -> &'static str {
        if self == Kind::Edit {
            "POST"
        } else {
            "GET"
        }
    }
}

/// One prepared request with the digest of its reference answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Req {
    /// Endpoint.
    pub kind: Kind,
    /// Request target (path + query).
    pub target: String,
    /// Request body (edits only).
    pub body: String,
    /// [`crate::answer::digest`] of the reference answer.
    pub expect: u64,
}

/// Writes a request list, one tab-separated line per request.
pub fn write_list(path: &Path, reqs: &[Req]) -> std::io::Result<()> {
    let mut out = String::new();
    for r in reqs {
        debug_assert!(!r.target.contains(['\t', '\n']) && !r.body.contains(['\t', '\n']));
        out.push_str(&format!("{}\t{}\t{}\t{:016x}\n", r.kind.name(), r.target, r.body, r.expect));
    }
    std::fs::write(path, out)
}

/// Reads a list written by [`write_list`]. A missing file is an empty
/// list (prep writes only the streams the plan asked for).
pub fn read_list(path: &Path) -> Result<Vec<Req>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    text.lines()
        .map(|line| {
            let mut f = line.split('\t');
            let (Some(kind), Some(target), Some(body), Some(expect), None) =
                (f.next(), f.next(), f.next(), f.next(), f.next())
            else {
                return Err(format!("{}: malformed line {line:?}", path.display()));
            };
            Ok(Req {
                kind: Kind::parse(kind).ok_or_else(|| format!("unknown kind {kind:?}"))?,
                target: target.to_owned(),
                body: body.to_owned(),
                expect: u64::from_str_radix(expect, 16).map_err(|e| e.to_string())?,
            })
        })
        .collect()
}

/// Digest of a request list (targets, bodies and expectations) — the
/// determinism tests and `answers_fingerprint` are built on it.
pub fn list_digest(reqs: &[Req]) -> u64 {
    let mut h = Fnv::default();
    for r in reqs {
        h.write(r.kind.name().as_bytes());
        h.write(r.target.as_bytes());
        h.write(r.body.as_bytes());
        h.write_u64(r.expect);
    }
    h.0
}

/// splitmix64: the benchmark's own generator, so its request streams do
/// not change if the repository's RNG does.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds a stream; `stream` separates the independent uses of one
    /// `--seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias at these `n` is below 2⁻⁴⁰).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A search query: vertex and minimum degree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Query {
    /// Query vertex.
    pub v: VertexId,
    /// Minimum degree `k`.
    pub k: u32,
}

/// The value of query parameter `name` in a request target.
pub fn param<'a>(target: &'a str, name: &str) -> Option<&'a str> {
    let (_, query) = target.split_once('?')?;
    query.split('&').find_map(|kv| kv.split_once('=').filter(|(k, _)| *k == name).map(|(_, v)| v))
}

impl Query {
    /// The query a search or svg target asks (`id=` and `k=`).
    pub fn parse(target: &str) -> Option<Self> {
        Some(Query {
            v: VertexId(param(target, "id")?.parse().ok()?),
            k: param(target, "k")?.parse().ok()?,
        })
    }

    /// The search request for this query.
    pub fn search_target(self) -> String {
        format!("/api/v1/search?id={}&k={}&algo=acq&limit=5&timeout_ms=5000", self.v.0, self.k)
    }
}

/// Vertices by descending degree, ties by id — the "renowned authors".
pub fn hubs(g: &AttributedGraph) -> Vec<VertexId> {
    let mut vs: Vec<VertexId> = g.vertices().collect();
    vs.sort_unstable_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v.0));
    vs
}

/// The candidate stream of the miss workloads: alternately the next hub
/// (k cycling 3, 4, 6) and a uniform vertex (k alternating 2, 3), never
/// repeating a `(vertex, k)` pair; the flag says which of the two a
/// candidate is. Prefix-stable: a longer list extends a shorter one.
pub fn miss_candidates<'a>(
    g: &'a AttributedGraph,
    hubs: &'a [VertexId],
    seed: u64,
) -> impl Iterator<Item = (Query, bool)> + 'a {
    let mut rng = Rng::new(seed, 1);
    let mut seen: HashSet<Query> = HashSet::new();
    let (mut i, mut hub_i, mut uni_i) = (0usize, 0usize, 0usize);
    let n = g.vertex_count();
    std::iter::from_fn(move || loop {
        let hub = i % 2 == 0 && hub_i < hubs.len();
        let q = if hub {
            hub_i += 1;
            Query { v: hubs[hub_i - 1], k: [3, 4, 6][(hub_i - 1) % 3] }
        } else {
            uni_i += 1;
            Query { v: VertexId(rng.below(n) as u32), k: [2, 3][(uni_i - 1) % 2] }
        };
        i += 1;
        if seen.insert(q) {
            return Some((q, hub));
        }
        if seen.len() >= 2 * n {
            return None;
        }
    })
}

/// One hot query of the browse session, with what the non-search
/// endpoints need to address the same author.
#[derive(Clone, Debug)]
pub struct HotItem {
    /// The (admitted, non-empty) hub query.
    pub q: Query,
    /// The hub's label.
    pub label: String,
    /// The CL-tree node the hub resides in.
    pub node: u32,
}

impl HotItem {
    /// The request of `kind` aimed at this hot author.
    pub fn target(&self, kind: Kind) -> String {
        let (v, k) = (self.q.v.0, self.q.k);
        match kind {
            Kind::Search => self.q.search_target(),
            Kind::Svg => format!("/api/v1/svg?id={v}&k={k}&algo=acq&index=0&timeout_ms=5000"),
            Kind::Suggest => {
                // What an analyst has typed just before the name box
                // narrows to this author. (The generator labels every
                // vertex `author-<id>`, so a fixed 3-letter prefix would
                // be the same `aut` for every request.)
                let typed = self.label.len().saturating_sub(2).max(3).min(self.label.len());
                format!("/api/v1/suggest?q={}&limit=8", &self.label[..typed])
            }
            Kind::HierarchyExpand => format!("/api/v1/hierarchy?node={}", self.node),
            Kind::Profile => format!("/api/v1/profile?id={v}"),
            Kind::HierarchyLevel => format!("/api/v1/hierarchy?level={k}"),
            Kind::Graphs => "/api/v1/graphs".to_owned(),
            Kind::Stats => "/api/v1/stats".to_owned(),
            Kind::Edit => unreachable!("edits are scripted, not aimed at an author"),
        }
    }
}

/// Zipf(1.0) sampler over `n` ranks.
struct Zipf(Vec<f64>);

impl Zipf {
    fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Zipf(cdf)
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.0.partition_point(|&c| c < u).min(self.0.len() - 1)
    }
}

/// The browse session: `n` requests, author drawn Zipf(1.0) from the hot
/// set, endpoint drawn from the fixed mix (search 40%, svg 15%, suggest
/// 15%, hierarchy expand 10%, profile 10%, hierarchy level 5%, graphs 3%,
/// stats 2%).
pub fn browse_requests(hot: &[HotItem], n: usize, seed: u64) -> Vec<(Kind, String)> {
    const CUM: [(u64, Kind); 8] = [
        (40, Kind::Search),
        (55, Kind::Svg),
        (70, Kind::Suggest),
        (80, Kind::HierarchyExpand),
        (90, Kind::Profile),
        (95, Kind::HierarchyLevel),
        (98, Kind::Graphs),
        (100, Kind::Stats),
    ];
    let mut rng = Rng::new(seed, 2);
    let zipf = Zipf::new(hot.len());
    (0..n)
        .map(|_| {
            let item = &hot[zipf.sample(&mut rng)];
            let u = rng.next_u64() % 100;
            let kind = CUM.iter().find(|(c, _)| u < *c).expect("mix sums to 100").1;
            (kind, item.target(kind))
        })
        .collect()
}

/// The endpoint probe: `per_kind` requests to each read endpoint,
/// cycling through the hot set.
pub fn probe_requests(hot: &[HotItem], per_kind: usize) -> Vec<(Kind, String)> {
    Kind::READS
        .into_iter()
        .flat_map(|kind| (0..per_kind).map(move |i| (kind, hot[i % hot.len()].target(kind))))
        .collect()
}

/// One step of the churn script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EditStep {
    /// Edges to add.
    pub add: Vec<(u32, u32)>,
    /// Edges to remove.
    pub remove: Vec<(u32, u32)>,
    /// Edge count of the graph once the step is applied.
    pub edges_after: u64,
}

impl EditStep {
    /// The `POST /api/v1/edit` body.
    pub fn body(&self) -> String {
        let pairs = |ps: &[(u32, u32)]| {
            ps.iter().map(|(u, v)| format!("[{u},{v}]")).collect::<Vec<_>>().join(",")
        };
        format!("{{\"add\":[{}],\"remove\":[{}]}}", pairs(&self.add), pairs(&self.remove))
    }
}

/// Edges added by a burst step.
pub const BURST: usize = 16;

/// The churn script: 70% single-edge add, 15% removal of an edge that
/// exists at that point, 15% [`BURST`]-edge add. Every step changes the
/// graph (no structural no-ops), so `edges_after` is exact.
///
/// No removal touches a vertex in `protected` — the members of the
/// communities the paced reader keeps asking for. Losing an edge can
/// strip such a community of the keywords that pin it, and the answer
/// then degrades to a community thousands strong, which the search
/// route cannot serve (README, "Known exclusions").
pub fn edit_script(
    g: &AttributedGraph,
    n: usize,
    seed: u64,
    protected: &HashSet<u32>,
) -> Vec<EditStep> {
    let mut rng = Rng::new(seed, 3);
    let nv = g.vertex_count();
    let norm = |u: u32, v: u32| if u < v { (u, v) } else { (v, u) };
    let mut added: HashSet<(u32, u32)> = HashSet::new();
    let mut removed: HashSet<(u32, u32)> = HashSet::new();
    let mut edges = g.edge_count() as u64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let roll = rng.next_u64() % 100;
        let mut step = EditStep { add: Vec::new(), remove: Vec::new(), edges_after: 0 };
        if (70..85).contains(&roll) {
            // An existing edge: a random vertex's random original
            // neighbour that no earlier step removed.
            loop {
                let u = VertexId(rng.below(nv) as u32);
                let ns = g.neighbors(u);
                if ns.is_empty() {
                    continue;
                }
                let e = norm(u.0, ns[rng.below(ns.len())].0);
                if protected.contains(&e.0) || protected.contains(&e.1) {
                    continue;
                }
                if removed.insert(e) {
                    step.remove.push(e);
                    edges -= 1;
                    break;
                }
            }
        } else {
            let want = if roll < 70 { 1 } else { BURST };
            while step.add.len() < want {
                let (u, v) = (rng.below(nv) as u32, rng.below(nv) as u32);
                let e = norm(u, v);
                // Never re-add a removed edge: "exists" stays decidable
                // from the original graph plus the two sets.
                if u == v || g.has_edge(VertexId(u), VertexId(v)) || !added.insert(e) {
                    continue;
                }
                step.add.push(e);
                edges += 1;
            }
        }
        step.edges_after = edges;
        out.push(step);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(seed: u64) -> AttributedGraph {
        cx_datagen::dblp_like(&DblpParams::scaled(2_000, seed)).0
    }

    /// Every seeded stream over the one graph, folded to a digest.
    fn streams_digest(seed: u64) -> u64 {
        let g = graph(GRAPH_SEED);
        let hubs = hubs(&g);
        let mut h = Fnv::default();
        let qs: Vec<Query> = miss_candidates(&g, &hubs, seed).take(300).map(|c| c.0).collect();
        for q in &qs {
            h.write(q.search_target().as_bytes());
        }
        let hot: Vec<HotItem> = qs
            .iter()
            .step_by(2)
            .take(HOT_SET)
            .map(|&q| HotItem { q, label: g.label(q.v).to_owned(), node: q.v.0 % 7 })
            .collect();
        for (kind, target) in browse_requests(&hot, 500, seed) {
            h.write(kind.name().as_bytes());
            h.write(target.as_bytes());
        }
        for step in edit_script(&g, 120, seed, &HashSet::new()) {
            h.write(step.body().as_bytes());
            h.write_u64(step.edges_after);
        }
        h.0
    }

    #[test]
    fn same_seed_same_requests_different_seed_different_requests() {
        assert_eq!(streams_digest(42), streams_digest(42));
        assert_ne!(streams_digest(42), streams_digest(43));
    }

    #[test]
    fn miss_stream_is_distinct_and_prefix_stable() {
        let g = graph(7);
        let hubs = hubs(&g);
        let long: Vec<Query> = miss_candidates(&g, &hubs, 7).take(400).map(|c| c.0).collect();
        let short: Vec<Query> = miss_candidates(&g, &hubs, 7).take(100).map(|c| c.0).collect();
        // Hubs and uniform picks alternate (but for the rare repeat that
        // is skipped), with the k values the workload states.
        let flagged: Vec<(Query, bool)> = miss_candidates(&g, &hubs, 7).take(400).collect();
        assert!(flagged.iter().all(|(q, hub)| if *hub {
            [3, 4, 6].contains(&q.k)
        } else {
            [2, 3].contains(&q.k)
        }));
        let hub_share = flagged.iter().filter(|c| c.1).count();
        assert!((195..=205).contains(&hub_share), "{hub_share} hubs of 400");
        assert_eq!(long[0], Query { v: hubs[0], k: 3 });
        assert_eq!(Query::parse(&long[1].search_target()), Some(long[1]));
        assert_eq!(param("/api/v1/suggest?q=author-1&limit=8", "q"), Some("author-1"));
        assert_eq!(&long[..100], &short[..]);
        assert_eq!(long.iter().collect::<HashSet<_>>().len(), long.len());
    }

    #[test]
    fn browse_mix_matches_its_stated_shares() {
        let g = graph(3);
        let hot: Vec<HotItem> = hubs(&g)
            .into_iter()
            .take(HOT_SET)
            .map(|v| HotItem { q: Query { v, k: 3 }, label: g.label(v).to_owned(), node: 1 })
            .collect();
        let reqs = browse_requests(&hot, 20_000, 3);
        let share =
            |k: Kind| reqs.iter().filter(|(x, _)| *x == k).count() as f64 / reqs.len() as f64;
        assert!((share(Kind::Search) - 0.40).abs() < 0.02);
        assert!((share(Kind::Svg) - 0.15).abs() < 0.02);
        assert!((share(Kind::Stats) - 0.02).abs() < 0.01);
        // Zipf(1.0): the top author draws about 1/H(48) ≈ 22% of clicks.
        let top = reqs
            .iter()
            .filter(|(k, t)| *k == Kind::Profile && *t == hot[0].target(Kind::Profile))
            .count() as f64
            / reqs.iter().filter(|(k, _)| *k == Kind::Profile).count() as f64;
        assert!((top - 0.224).abs() < 0.04, "top share {top}");
        assert_eq!(probe_requests(&hot, 5).len(), 40);
    }

    #[test]
    fn edit_script_counts_edges_exactly() {
        let g = graph(11);
        let protected: HashSet<u32> = hubs(&g).into_iter().take(50).map(|v| v.0).collect();
        let script = edit_script(&g, 400, 11, &protected);
        let mut edges: HashSet<(u32, u32)> = g.edges().map(|(u, v)| (u.0, v.0)).collect();
        let (mut single, mut burst, mut remove) = (0, 0, 0);
        for step in &script {
            for e in &step.remove {
                assert!(edges.remove(e), "removal of a missing edge");
                assert!(!protected.contains(&e.0) && !protected.contains(&e.1));
                remove += 1;
            }
            for e in &step.add {
                assert!(e.0 < e.1 && edges.insert(*e), "add of an existing edge");
            }
            match step.add.len() {
                0 => {}
                1 => single += 1,
                BURST => burst += 1,
                n => panic!("unexpected add batch of {n}"),
            }
            assert_eq!(step.edges_after, edges.len() as u64);
        }
        assert!(single > 240 && burst > 35 && remove > 35, "{single}/{burst}/{remove}");
    }

    #[test]
    fn request_lists_round_trip_through_the_file_format() {
        let reqs = vec![
            Req {
                kind: Kind::Search,
                target: "/api/v1/search?id=1&k=2".into(),
                body: String::new(),
                expect: 7,
            },
            Req {
                kind: Kind::Edit,
                target: "/api/v1/edit".into(),
                body: "{\"add\":[[1,2]],\"remove\":[]}".into(),
                expect: u64::MAX,
            },
        ];
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/work/list-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("l.tsv");
        write_list(&path, &reqs).unwrap();
        assert_eq!(read_list(&path).unwrap(), reqs);
        assert_eq!(read_list(&dir.join("absent.tsv")).unwrap(), Vec::new());
        assert_ne!(list_digest(&reqs), list_digest(&reqs[..1]));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
