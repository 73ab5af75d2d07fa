//! The engine: immutable per-graph snapshots + algorithm registry.
//!
//! # Snapshot concurrency model
//!
//! Every graph lives in the engine as one immutable [`GraphSnapshot`]
//! behind an `Arc`: the attributed graph, its CL-tree index, profiles and
//! a per-graph generation number, all frozen when the
//! snapshot is built. A lightweight registry (`Mutex<HashMap>`) maps graph
//! names to the *current* snapshot Arc.
//!
//! Readers ([`Engine::snapshot`] and everything built on it) hold the
//! registry lock only long enough to clone one `Arc` — microseconds — and
//! then run entirely lock-free off their pinned snapshot. Writers
//! ([`Engine::apply_edits`], [`Engine::add_graph`], [`Engine::upload`],
//! [`Engine::remove_graph`], …) serialize per graph on a write gate, build
//! the *next* snapshot completely off-lock (graph rebuild, CL-tree
//! reindex), and publish it with a single map insert under the registry
//! lock — an atomic pointer swap from every reader's point of view.
//! Readers in flight keep the old snapshot alive through their `Arc`;
//! new requests see the new one.
//!
//! Poisoning is impossible by construction: no lock is ever held across
//! algorithm or index-building code, so a panic mid-build unwinds with
//! only private data on the stack, and every lock acquisition recovers a
//! poisoned mutex anyway (`unwrap_or_else(PoisonError::into_inner)`) since
//! the guarded state is always internally consistent at release time.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use cx_graph::{AttributedGraph, Community, VertexId};
use cx_layout::{layout_community, LayoutAlgorithm, Scene};
use cx_par::task::CancelToken;

use crate::api::{
    AcqAlgorithm, CdAlgorithm, CodicilAlgorithm, CsAlgorithm, GlobalAlgorithm, KEccAlgorithm,
    KTrussAlgorithm, LocalAlgorithm, LouvainAlgorithm,
};
use crate::cache::{CacheStats, QueryKey, ShardedCache, DEFAULT_CAPACITY};
use crate::error::ExplorerError;
use crate::query::QuerySpec;
use crate::report::AnalysisReport;

mod durable;
mod snapshot;
mod write;

pub use snapshot::GraphSnapshot;
use snapshot::Clustering;
use write::WriteState;

/// A researcher profile record (Figure 2's popup content). The engine
/// stores one per vertex per graph; where they come from (Wikipedia in the
/// paper, the synthetic generator here) is the caller's business.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// Display name.
    pub name: String,
    /// Broad research areas.
    pub areas: Vec<String>,
    /// Institutions.
    pub institutes: Vec<String>,
    /// Research interests.
    pub interests: Vec<String>,
}

/// One graph's row in [`RegistryIndex`]: O(1) fields only, no snapshot
/// contents.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphIndexEntry {
    /// Graph name.
    pub name: String,
    /// Current published generation.
    pub generation: u64,
    /// Vertex count of the current snapshot.
    pub vertices: usize,
    /// Edge count of the current snapshot.
    pub edges: usize,
    /// Whether this graph is the engine default.
    pub is_default: bool,
}

/// A cheap directory listing of the registry — what `healthz` and the
/// `graphs` endpoint serve without ever cloning a snapshot `Arc`.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistryIndex {
    /// The default graph's name, if any graph is loaded.
    pub default_graph: Option<String>,
    /// One entry per loaded graph, sorted by name.
    pub graphs: Vec<GraphIndexEntry>,
}

/// The mutable heart of the engine: the name → current-snapshot map.
/// Only ever locked for map operations and O(1) field reads — never
/// across a graph build, an index build, or an algorithm run.
struct Registry {
    snapshots: HashMap<String, Arc<GraphSnapshot>>,
    default_graph: Option<String>,
    /// Per-graph generation counters. Survive removal and replacement so
    /// a graph's generations are monotone over the engine's lifetime and
    /// never restart (which would resurrect stale cache keys).
    generations: HashMap<String, u64>,
}

/// Registry lock guard that reports its hold time to the
/// `cx_registry_lock_hold_us` histogram on release — the refactor's
/// claim is that this stays in microseconds, so we measure it.
struct RegistryGuard<'a> {
    guard: MutexGuard<'a, Registry>,
    start: Instant,
}

impl Deref for RegistryGuard<'_> {
    type Target = Registry;
    fn deref(&self) -> &Registry {
        &self.guard
    }
}

impl DerefMut for RegistryGuard<'_> {
    fn deref_mut(&mut self) -> &mut Registry {
        &mut self.guard
    }
}

impl Drop for RegistryGuard<'_> {
    fn drop(&mut self) {
        cx_obs::metrics::observe_us(
            "cx_registry_lock_hold_us",
            self.start.elapsed().as_micros() as u64,
        );
    }
}

/// One name-box match: (vertex, label, degree).
pub type Suggestion = (VertexId, String, usize);

/// The C-Explorer engine. One instance serves many graphs and algorithms
/// and is shared across threads directly (`Arc<Engine>`, no outer lock):
/// reads pin an immutable [`GraphSnapshot`] and run lock-free; writes
/// build the next snapshot off-lock and publish it atomically (see the
/// module docs for the full concurrency model).
///
/// CS search results are memoised in a sharded LRU keyed by the resolved
/// query *and the snapshot generation*; everything else derived from a
/// graph version (hierarchy, stats, CD clusterings) lives on its
/// [`GraphSnapshot`] and dies with it.
pub struct Engine {
    registry: Mutex<Registry>,
    /// Per-graph writer serialization. Writers hold their graph's gate
    /// across read-modify-write (snapshot → rebuild → publish) so two
    /// concurrent edits can't lose updates; readers never touch gates.
    /// The gate also carries the writer-only incremental state (a warm
    /// [`cx_kcore::DynamicCore`]) so consecutive edits skip the peel.
    write_gates: Mutex<HashMap<String, Arc<Mutex<WriteState>>>>,
    cs: Vec<Plugin<dyn CsAlgorithm>>,
    cd: Vec<Plugin<dyn CdAlgorithm>>,
    cache: ShardedCache,
    /// Durable backing store, if this engine was opened with
    /// [`Engine::open_durable`]. Every write path appends its record
    /// *before* publishing, so a crash can lose the tail of the log but
    /// never admit an unlogged state.
    store: Option<Arc<cx_store::Store>>,
    /// Set while a background compaction is in flight (at most one).
    compacting: std::sync::atomic::AtomicBool,
}

/// A registered algorithm plus what registration derives from it once.
struct Plugin<A: ?Sized> {
    algo: Box<A>,
    /// `algo.<name>`, the span every run opens.
    span: &'static str,
    /// Unique per registration: tags a CD algorithm's snapshot memos, so
    /// re-registering the name orphans them.
    id: u64,
}

impl<A: ?Sized> Plugin<A> {
    fn new(algo: Box<A>, name: &str) -> Self {
        static REGISTRATIONS: AtomicU64 = AtomicU64::new(0);
        let id = REGISTRATIONS.fetch_add(1, Ordering::Relaxed);
        Self { algo, span: cx_obs::trace::intern(&format!("algo.{name}")), id }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An engine with the built-in algorithms registered and no graphs.
    pub fn new() -> Self {
        let mut e = Self {
            registry: Mutex::new(Registry {
                snapshots: HashMap::new(),
                default_graph: None,
                generations: HashMap::new(),
            }),
            write_gates: Mutex::new(HashMap::new()),
            cs: Vec::new(),
            cd: Vec::new(),
            cache: ShardedCache::new(DEFAULT_CAPACITY),
            store: None,
            compacting: std::sync::atomic::AtomicBool::new(false),
        };
        e.register_cs(Box::new(AcqAlgorithm));
        e.register_cs(Box::new(GlobalAlgorithm));
        e.register_cs(Box::new(LocalAlgorithm));
        e.register_cs(Box::new(KTrussAlgorithm));
        e.register_cs(Box::new(KEccAlgorithm));
        e.register_cd(Box::new(CodicilAlgorithm::default()));
        e.register_cd(Box::new(LouvainAlgorithm::default()));
        e
    }

    /// An engine preloaded with one graph (which becomes the default).
    pub fn with_graph(name: impl Into<String>, graph: AttributedGraph) -> Self {
        let e = Self::new();
        e.add_graph(name, graph);
        e
    }

    /// Locks the registry, timing the hold.
    fn registry(&self) -> RegistryGuard<'_> {
        RegistryGuard {
            start: Instant::now(),
            guard: self.registry.lock().unwrap_or_else(|p| p.into_inner()),
        }
    }

    /// Registers (or replaces, by name) a community-search algorithm.
    /// Clears the query cache — the name may now mean different code.
    /// Setup-time API: takes `&mut self`, so registration happens before
    /// the engine is shared.
    pub fn register_cs(&mut self, algo: Box<dyn CsAlgorithm>) {
        let name = algo.name().to_owned();
        self.cs.retain(|a| a.algo.name() != name);
        self.cs.push(Plugin::new(algo, &name));
        self.cache.clear();
    }

    /// Registers (or replaces, by name) a community-detection algorithm;
    /// clusterings the replaced code memoised are never served again.
    /// Setup-time API like [`Engine::register_cs`].
    pub fn register_cd(&mut self, algo: Box<dyn CdAlgorithm>) {
        let name = algo.name().to_owned();
        self.cd.retain(|a| a.algo.name() != name);
        self.cd.push(Plugin::new(algo, &name));
    }

    /// Names of the registered CS algorithms.
    pub fn cs_names(&self) -> Vec<&str> {
        self.cs.iter().map(|a| a.algo.name()).collect()
    }

    /// Names of the registered CD algorithms.
    pub fn cd_names(&self) -> Vec<&str> {
        self.cd.iter().map(|a| a.algo.name()).collect()
    }

    /// Names of the uploaded graphs (sorted).
    pub fn graph_names(&self) -> Vec<String> {
        let r = self.registry();
        let mut names: Vec<String> = r.snapshots.keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// The default graph's name.
    pub fn default_graph_name(&self) -> Option<String> {
        self.registry().default_graph.clone()
    }

    /// A cheap listing of every loaded graph (name, generation, sizes) —
    /// O(1) per graph, no snapshot clones. This is what `healthz` and the
    /// `graphs` endpoint should use.
    pub fn registry_index(&self) -> RegistryIndex {
        let r = self.registry();
        let default_graph = r.default_graph.clone();
        let mut graphs: Vec<GraphIndexEntry> = r
            .snapshots
            .iter()
            .map(|(name, s)| GraphIndexEntry {
                name: name.clone(),
                generation: s.generation,
                vertices: s.graph.vertex_count(),
                edges: s.graph.edge_count(),
                is_default: default_graph.as_deref() == Some(name.as_str()),
            })
            .collect();
        drop(r);
        graphs.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        RegistryIndex { default_graph, graphs }
    }

    /// Resolves `graph` (default when `None`) and other resolution errors.
    fn resolved_owned(&self, graph: Option<&str>) -> Result<String, ExplorerError> {
        match graph {
            Some(n) => Ok(n.to_owned()),
            None => self.registry().default_graph.clone().ok_or(ExplorerError::NoGraph),
        }
    }

    /// Pins the current snapshot of the (default or named) graph. This is
    /// the read-side entry point: the registry lock is held only for the
    /// lookup + `Arc` clone; everything after runs lock-free against the
    /// returned snapshot, unaffected by concurrent writers.
    pub fn snapshot(&self, graph: Option<&str>) -> Result<Arc<GraphSnapshot>, ExplorerError> {
        let r = self.registry();
        let name = match graph {
            Some(n) => n,
            None => r.default_graph.as_deref().ok_or(ExplorerError::NoGraph)?,
        };
        r.snapshots
            .get(name)
            .cloned()
            .ok_or_else(|| ExplorerError::UnknownGraph(name.to_owned()))
    }

    fn find_cs(&self, name: &str) -> Option<&Plugin<dyn CsAlgorithm>> {
        self.cs.iter().find(|a| a.algo.name() == name)
    }

    fn find_cd(&self, name: &str) -> Option<&Plugin<dyn CdAlgorithm>> {
        self.cd.iter().find(|a| a.algo.name() == name)
    }

    /// The paper's `search(CSAlgorithm, Query)` on the default graph.
    ///
    /// A CD algorithm name is accepted too: the answer is the first cluster
    /// of its memoised clustering that contains the query vertex (how
    /// CODICIL shows up alongside the CS methods in Figure 6(a)).
    pub fn search(&self, algo: &str, spec: &QuerySpec) -> Result<Vec<Community>, ExplorerError> {
        self.search_on(None, algo, spec)
    }

    /// `search` against a named graph: pins the current snapshot and
    /// delegates to [`Engine::search_snapshot`].
    pub fn search_on(
        &self,
        graph: Option<&str>,
        algo: &str,
        spec: &QuerySpec,
    ) -> Result<Vec<Community>, ExplorerError> {
        self.search_snapshot(&*self.snapshot(graph)?, algo, spec)
    }

    /// `search` against an already pinned snapshot — what a request
    /// handler uses to keep one consistent graph version across the
    /// whole request. Results are served from the query cache when the
    /// same resolved query was answered against the same snapshot
    /// generation before.
    pub fn search_snapshot(
        &self,
        snap: &GraphSnapshot,
        algo: &str,
        spec: &QuerySpec,
    ) -> Result<Vec<Community>, ExplorerError> {
        self.search_snapshot_cancellable(snap, algo, spec, &CancelToken::none())
    }

    /// [`Engine::search_snapshot`] under a cooperative cancellation token
    /// (the serving layer's `timeout_ms`). The algorithm runs inside a
    /// [`cx_par::task::scope`], so checkpointed hot loops bail early; the
    /// token is re-checked after the algorithm returns, and a cancelled run
    /// yields [`ExplorerError::DeadlineExceeded`] without inserting the
    /// (possibly partial) result into the query cache. An unarmed token
    /// takes the exact zero-alloc path of the plain entry point.
    pub fn search_snapshot_cancellable(
        &self,
        snap: &GraphSnapshot,
        algo: &str,
        spec: &QuerySpec,
        token: &CancelToken,
    ) -> Result<Vec<Community>, ExplorerError> {
        let _span = cx_obs::span("engine.search");
        let qs = spec.resolve(&snap.graph)?;
        let cs = self.find_cs(algo);
        if let (None, Some(cd)) = (cs, self.find_cd(algo)) {
            let clustering = self.clustering(snap, cd, token, "search")?;
            return Ok(clustering.cluster_of(qs[0]).cloned().into_iter().collect());
        }
        let key = QueryKey {
            graph: snap.name.clone(),
            generation: snap.generation,
            algo: algo.to_owned(),
            vertices: qs.clone(),
            k: spec.k,
            keywords: spec.keywords.clone(),
        };
        if let Some(hit) = self.cache.get(&key) {
            return Ok(hit);
        }
        let cs = cs.ok_or_else(|| ExplorerError::UnknownAlgorithm(algo.to_owned()));
        let ctx = snap.context();
        let out = run_cancellable(token, "search", || {
            let cs = cs?;
            let _algo_span = cx_obs::span(cs.span);
            Ok(cs.algo.search(&ctx, &qs, spec))
        })?;
        self.cache.insert(key, out.clone());
        Ok(out)
    }

    /// The paper's `detect(CDAlgorithm)` on the default graph.
    pub fn detect(&self, algo: &str) -> Result<Vec<Community>, ExplorerError> {
        self.detect_cancellable(&*self.snapshot(None)?, algo, &CancelToken::none())
    }

    /// `detect` against a pinned snapshot under `token` (the deadline, as
    /// in [`Engine::search_snapshot_cancellable`]). The clustering is
    /// memoised on the snapshot and shared with every CD-named `search`;
    /// a cancelled run memoises nothing.
    pub fn detect_cancellable(
        &self,
        snap: &GraphSnapshot,
        algo: &str,
        token: &CancelToken,
    ) -> Result<Vec<Community>, ExplorerError> {
        let _span = cx_obs::span("engine.detect");
        let cd = self
            .find_cd(algo)
            .ok_or_else(|| ExplorerError::UnknownAlgorithm(algo.to_owned()))?;
        Ok(self.clustering(snap, cd, token, "detect")?.communities.clone())
    }

    /// `cd`'s clustering of `snap`: the snapshot's memo, or one run of the
    /// algorithm. Lookups count as query-cache hits and misses; a deadline
    /// is counted under the calling `op`.
    fn clustering(
        &self,
        snap: &GraphSnapshot,
        cd: &Plugin<dyn CdAlgorithm>,
        token: &CancelToken,
        op: &str,
    ) -> Result<Arc<Clustering>, ExplorerError> {
        let memo = snap.clustering(cd.id);
        self.cache.record(memo.is_some());
        if let Some(c) = memo {
            return Ok(c);
        }
        let ctx = snap.context();
        let communities = run_cancellable(token, op, || {
            let _algo_span = cx_obs::span(cd.span);
            Ok(cd.algo.detect(&ctx))
        })?;
        let clustering = Clustering::new(communities, snap.graph.vertex_count());
        Ok(snap.keep_clustering(cd.id, clustering))
    }

    /// Query-cache counters (hits, misses, occupancy, capacity).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Resizes the query cache (0 disables caching). Rebuilds the shard
    /// layout, dropping cached entries.
    pub fn set_cache_capacity(&self, capacity: usize) {
        self.cache.set_capacity(capacity);
    }

    /// The paper's `analyze(Community)`: CPJ/CMF quality of a result set,
    /// w.r.t. query vertex `q`, on a pinned snapshot. One community's
    /// statistics are [`crate::CommunityReport::new`]'s.
    pub fn analyze_snapshot(
        &self,
        snap: &GraphSnapshot,
        communities: &[Community],
        q: VertexId,
    ) -> Result<AnalysisReport, ExplorerError> {
        snap.graph.check_vertex(q)?;
        Ok(AnalysisReport::new(&snap.graph, communities, q))
    }

    /// The paper's `display(Community)`: computes a layout scene for the
    /// browser (or SVG export). `highlight` is typically the query vertex.
    pub fn display(
        &self,
        graph: Option<&str>,
        community: &Community,
        algo: LayoutAlgorithm,
        highlight: Option<VertexId>,
    ) -> Result<Scene, ExplorerError> {
        Ok(self.display_snapshot(&*self.snapshot(graph)?, community, algo, highlight))
    }

    /// [`Engine::display`] against an already pinned snapshot.
    pub fn display_snapshot(
        &self,
        snap: &GraphSnapshot,
        community: &Community,
        algo: LayoutAlgorithm,
        highlight: Option<VertexId>,
    ) -> Scene {
        layout_community(&snap.graph, community, algo, highlight, 960.0, 600.0, 42)
    }

    /// The profile of a vertex (the Figure 2 popup), if one is installed.
    pub fn profile(&self, graph: Option<&str>, v: VertexId) -> Result<Option<Profile>, ExplorerError> {
        Ok(self.snapshot(graph)?.profiles.get(v))
    }

    /// Case-insensitive vertex search for the UI's name box; returns
    /// (vertex, label, degree) triples, best match first.
    pub fn suggest(
        &self,
        graph: Option<&str>,
        query: &str,
        limit: usize,
    ) -> Result<Vec<Suggestion>, ExplorerError> {
        Ok(self.suggest_page(graph, query, 0, limit)?.0)
    }

    /// Paged [`Engine::suggest`]: returns the `offset..offset+limit`
    /// slice of the ranked match list (exact ▸ prefix ▸ interior, each
    /// tier by degree then id) plus a match count. Only the best
    /// `offset + limit` candidates are ever materialised, so pages stay
    /// mutually consistent at any depth.
    ///
    /// The count is the exact size of the exact + prefix tiers, plus the
    /// interior matches whenever the interior pass ran — that is, when
    /// those tiers held fewer than `offset + limit` matches (see
    /// [`cx_graph::LabelColumn::search`]). The `suggest` route never
    /// serves it.
    pub fn suggest_page(
        &self,
        graph: Option<&str>,
        query: &str,
        offset: usize,
        limit: usize,
    ) -> Result<(Vec<Suggestion>, usize), ExplorerError> {
        let snap = self.snapshot(graph)?;
        let g = &snap.graph;
        let (hits, total) = g.search_label_top(query, offset.saturating_add(limit));
        let page = hits
            .into_iter()
            .skip(offset)
            .map(|v| (v, g.label(v).to_owned(), g.degree(v)))
            .collect();
        Ok((page, total))
    }
}

/// Runs `f` under `token` — inside a [`cx_par::task::scope`] when the
/// token is armed — and turns a cancellation seen
/// before or after the run into [`ExplorerError::DeadlineExceeded`],
/// counted under `op`.
fn run_cancellable<T>(
    token: &CancelToken,
    op: &str,
    f: impl FnOnce() -> Result<T, ExplorerError>,
) -> Result<T, ExplorerError> {
    let deadline = || {
        cx_obs::metrics::inc(&format!("cx_engine_deadline_total{{op=\"{op}\"}}"));
        Err(ExplorerError::DeadlineExceeded)
    };
    if token.is_cancelled() {
        return deadline();
    }
    let out = if token.is_armed() {
        cx_par::task::scope(token, f)?
    } else {
        f()?
    };
    if token.is_cancelled() {
        return deadline();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::GraphContext;
    use cx_datagen::{figure5_graph, small_collab_graph};

    fn engine() -> Engine {
        Engine::with_graph("fig5", figure5_graph())
    }

    #[test]
    fn builtins_are_registered() {
        let e = engine();
        assert_eq!(e.cs_names(), vec!["acq", "global", "local", "ktruss", "kecc"]);
        assert_eq!(e.cd_names(), vec!["codicil", "louvain"]);
        assert_eq!(e.graph_names(), vec!["fig5"]);
        assert_eq!(e.default_graph_name().as_deref(), Some("fig5"));
    }

    #[test]
    fn a_cancelled_search_is_a_deadline_error_and_caches_nothing() {
        let e = engine();
        let snap = e.snapshot(None).unwrap();
        let spec = QuerySpec::by_label("A").k(2);
        let token = CancelToken::manual();
        token.cancel();
        for algo in ["acq", "global"] {
            let out = e.search_snapshot_cancellable(&snap, algo, &spec, &token);
            assert!(matches!(out, Err(ExplorerError::DeadlineExceeded)), "{algo}: {out:?}");
        }
        assert_eq!(e.cache_stats().len, 0, "a cancelled answer must not be cached");
        // The same query under a live token computes, caches, and then hits.
        let live = CancelToken::manual();
        let first = e.search_snapshot_cancellable(&snap, "acq", &spec, &live).unwrap();
        assert_eq!(first[0].len(), 3);
        let (len, hits) = (e.cache_stats().len, e.cache_stats().hits);
        assert_eq!(len, 1);
        assert_eq!(e.search_snapshot_cancellable(&snap, "acq", &spec, &live).unwrap(), first);
        assert_eq!(e.cache_stats().hits, hits + 1);
    }

    #[test]
    fn search_paper_example_through_engine() {
        let e = engine();
        let out = e.search("acq", &QuerySpec::by_label("A").k(2)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 3);
        // Global on the same query returns the bigger plain core.
        let g = e.search("global", &QuerySpec::by_label("A").k(2)).unwrap();
        assert_eq!(g[0].len(), 5);
    }

    #[test]
    fn global_at_k0_is_the_query_component() {
        // The CL-tree's level-0 root spans the whole graph; at k = 0 Global
        // must still answer q's component: A–G for A (not the H–I pair, not
        // the isolated J), and J alone for J.
        let e = engine();
        let snap = e.snapshot(None).unwrap();
        let (a, j) = (snap.vertex_by_label("A").unwrap(), snap.vertex_by_label("J").unwrap());
        let got = e.search("global", &QuerySpec::by_id(a).k(0)).unwrap();
        assert_eq!(got.len(), 1);
        assert!(!got[0].contains(j));
        assert_eq!(Some(&got[0]), cx_algos::Global.fixed_k(&snap.graph, a, 0).as_ref());
        assert_eq!(got[0].len(), 7);
        let alone = e.search("global", &QuerySpec::by_id(j).k(0)).unwrap();
        assert_eq!(alone.len(), 1);
        assert_eq!(alone[0].vertices(), &[j]);
        assert!(e.search("global", &QuerySpec::by_id(j).k(1)).unwrap().is_empty());
    }

    #[test]
    fn search_with_cd_algorithm_returns_query_cluster() {
        let e = engine();
        let out = e.search("codicil", &QuerySpec::by_label("A")).unwrap();
        assert_eq!(out.len(), 1);
        let snap = e.snapshot(None).unwrap();
        assert!(out[0].contains(snap.vertex_by_label("A").unwrap()));
    }

    #[test]
    fn unknown_things_error() {
        let e = engine();
        assert!(matches!(
            e.search("nope", &QuerySpec::by_label("A")),
            Err(ExplorerError::UnknownAlgorithm(_))
        ));
        assert!(matches!(
            e.search_on(Some("nope"), "acq", &QuerySpec::by_label("A")),
            Err(ExplorerError::UnknownGraph(_))
        ));
        assert!(matches!(
            e.search("acq", &QuerySpec::by_label("nobody")),
            Err(ExplorerError::UnknownVertex(_))
        ));
        assert!(matches!(e.detect("global"), Err(ExplorerError::UnknownAlgorithm(_))));
        let empty = Engine::new();
        assert!(matches!(
            empty.search("acq", &QuerySpec::by_label("A")),
            Err(ExplorerError::NoGraph)
        ));
        assert!(matches!(empty.snapshot(None), Err(ExplorerError::NoGraph)));
    }

    #[test]
    fn multi_vertex_query_through_engine() {
        let e = engine();
        let out = e.search("acq", &QuerySpec::by_labels(["A", "D"]).k(2)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 3);
    }

    #[test]
    fn analyze_and_display_roundtrip() {
        let e = engine();
        let out = e.search("acq", &QuerySpec::by_label("A").k(2)).unwrap();
        let snap = e.snapshot(None).unwrap();
        let a = snap.vertex_by_label("A").unwrap();
        let report = e.analyze_snapshot(&snap, &out, a).unwrap();
        assert!(report.cpj > 0.5);
        assert!(report.cmf > 0.5);
        let scene = e
            .display(None, &out[0], LayoutAlgorithm::default_force(), Some(a))
            .unwrap();
        assert_eq!(scene.vertex_count(), 3);
        assert!(scene.in_bounds());
    }

    #[test]
    fn profiles_store_and_fetch() {
        let e = engine();
        let a = e.snapshot(None).unwrap().vertex_by_label("A").unwrap();
        let p = Profile {
            name: "A".into(),
            areas: vec!["Computer science".into()],
            institutes: vec!["HKU".into()],
            interests: vec!["databases".into()],
        };
        e.set_profiles(None, [(a, p.clone())]).unwrap();
        assert_eq!(e.profile(None, a).unwrap(), Some(p));
        assert_eq!(e.profile(None, VertexId(3)).unwrap(), None);
    }

    #[test]
    fn custom_algorithm_plugs_in() {
        struct Egocentric;
        impl crate::api::CsAlgorithm for Egocentric {
            fn name(&self) -> &str {
                "ego"
            }
            fn search(
                &self,
                ctx: &GraphContext<'_>,
                qs: &[VertexId],
                _spec: &QuerySpec,
            ) -> Vec<Community> {
                let q = qs[0];
                let mut members = vec![q];
                members.extend_from_slice(ctx.graph.neighbors(q));
                vec![Community::structural(members)]
            }
        }
        let mut e = engine();
        e.register_cs(Box::new(Egocentric));
        assert!(e.cs_names().contains(&"ego"));
        let out = e.search("ego", &QuerySpec::by_label("A")).unwrap();
        assert_eq!(out[0].len(), 4); // A + its 3 clique neighbours
    }

    #[test]
    fn suggest_ranks_matches() {
        let e = engine();
        let hits = e.suggest(None, "a", 10).unwrap();
        assert!(!hits.is_empty());
        assert_eq!(hits[0].1, "A");
    }

    #[test]
    fn suggest_pages_past_any_fixed_scan_cap() {
        // 300 matches for the prefix: pages past the old 256-candidate
        // scan window must still be populated and the total exact.
        let mut b = cx_graph::GraphBuilder::new();
        let hub = b.add_vertex("hub", &[]);
        for i in 0..300 {
            let v = b.add_vertex(&format!("author-{i:03}"), &[]);
            if i % 2 == 0 {
                b.add_edge(v, hub);
            }
        }
        let e = Engine::with_graph("wide", b.build());
        let (page, total) = e.suggest_page(None, "author", 260, 10).unwrap();
        assert_eq!(total, 300);
        assert_eq!(page.len(), 10);
        // The tail page exists too, and ranking stays degree-major there.
        let (tail, total) = e.suggest_page(None, "author", 290, 50).unwrap();
        assert_eq!(total, 300);
        assert_eq!(tail.len(), 10);
        assert!(tail.windows(2).all(|w| w[0].2 >= w[1].2), "tail not degree-sorted");
    }

    #[test]
    fn upload_text_file() {
        let dir = std::env::temp_dir().join("cx_engine_upload_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.graph");
        cx_graph::io::save_text_file(&figure5_graph(), &path).unwrap();
        let e = Engine::new();
        e.upload("uploaded", &path).unwrap();
        assert_eq!(e.snapshot(None).unwrap().vertex_count(), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn set_default_graph_switches() {
        let e = engine();
        e.add_graph("second", cx_datagen::small_collab_graph());
        assert_eq!(e.default_graph_name().as_deref(), Some("fig5"));
        e.set_default_graph("second").unwrap();
        assert_eq!(e.snapshot(None).unwrap().vertex_count(), 16);
        assert!(e.set_default_graph("ghost").is_err());
    }

    #[test]
    fn remove_graph_reassigns_default() {
        let e = engine();
        e.add_graph("collab", small_collab_graph());
        assert_eq!(e.default_graph_name().as_deref(), Some("fig5"));
        e.remove_graph("fig5").unwrap();
        assert_eq!(e.default_graph_name().as_deref(), Some("collab"));
        assert_eq!(e.graph_names(), vec!["collab"]);
        assert!(matches!(e.remove_graph("fig5"), Err(ExplorerError::UnknownGraph(_))));
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use crate::api::GraphContext;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use cx_datagen::{figure5_graph, small_collab_graph};

    /// A stub CS algorithm that counts how often its `search` actually
    /// runs — cache hits must not reach it.
    struct Counting {
        calls: Arc<AtomicUsize>,
    }
    impl crate::api::CsAlgorithm for Counting {
        fn name(&self) -> &str {
            "counting"
        }
        fn search(
            &self,
            _ctx: &GraphContext<'_>,
            qs: &[VertexId],
            _spec: &QuerySpec,
        ) -> Vec<Community> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            vec![Community::structural(vec![qs[0]])]
        }
    }

    fn counting_engine() -> (Engine, Arc<AtomicUsize>) {
        let mut e = Engine::with_graph("fig5", figure5_graph());
        let calls = Arc::new(AtomicUsize::new(0));
        e.register_cs(Box::new(Counting { calls: Arc::clone(&calls) }));
        (e, calls)
    }

    #[test]
    fn repeated_search_skips_the_algorithm() {
        let (e, calls) = counting_engine();
        let spec = QuerySpec::by_label("A").k(2);
        let first = e.search("counting", &spec).unwrap();
        let second = e.search("counting", &spec).unwrap();
        assert_eq!(first, second);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "second call must hit the cache");
        let s = e.cache_stats();
        assert_eq!(s.hits, 1);
        assert!(s.misses >= 1);
    }

    #[test]
    fn label_and_id_queries_share_a_slot() {
        let (e, calls) = counting_engine();
        let a = e.snapshot(None).unwrap().vertex_by_label("A").unwrap();
        e.search("counting", &QuerySpec::by_label("A").k(2)).unwrap();
        e.search("counting", &QuerySpec::by_id(a).k(2)).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1, "keys use resolved vertex ids");
    }

    #[test]
    fn different_parameters_miss() {
        let (e, calls) = counting_engine();
        e.search("counting", &QuerySpec::by_label("A").k(2)).unwrap();
        e.search("counting", &QuerySpec::by_label("A").k(3)).unwrap();
        e.search("counting", &QuerySpec::by_label("B").k(2)).unwrap();
        e.search("counting", &QuerySpec::by_label("A").k(2).with_keywords(["x"])).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn replacing_the_graph_invalidates() {
        let (e, calls) = counting_engine();
        let spec = QuerySpec::by_label("A").k(2);
        e.search("counting", &spec).unwrap();
        // Re-adding under the same name bumps the generation.
        e.add_graph("fig5", figure5_graph());
        e.search("counting", &spec).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 2, "stale generation must miss");
    }

    #[test]
    fn upload_invalidates() {
        let dir = std::env::temp_dir().join("cx_engine_cache_upload");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig5.graph");
        cx_graph::io::save_text_file(&figure5_graph(), &path).unwrap();
        let (e, calls) = counting_engine();
        let spec = QuerySpec::by_label("A").k(2);
        e.search("counting", &spec).unwrap();
        e.upload("fig5", &path).unwrap();
        e.search("counting", &spec).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn edits_invalidate_only_by_generation() {
        let (e, calls) = counting_engine();
        let spec = QuerySpec::by_label("A").k(2);
        e.search("counting", &spec).unwrap();
        let snap = e.snapshot(None).unwrap();
        let (a, b) = (snap.vertex_by_label("A").unwrap(), snap.vertex_by_label("B").unwrap());
        e.apply_edits(None, &[], &[(a, b)]).unwrap();
        e.search("counting", &spec).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn editing_one_graph_spares_the_others_cache() {
        let (e, calls) = counting_engine();
        e.add_graph("other", small_collab_graph());
        let spec = QuerySpec::by_id(VertexId(0)).k(2);
        e.search_on(Some("other"), "counting", &spec).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        // Edit fig5: other's generation and cache entries are untouched.
        let snap = e.snapshot(Some("fig5")).unwrap();
        let (a, b) = (snap.vertex_by_label("A").unwrap(), snap.vertex_by_label("B").unwrap());
        e.apply_edits(Some("fig5"), &[], &[(a, b)]).unwrap();
        e.search_on(Some("other"), "counting", &spec).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1, "other graph's cache survives fig5's edit");
    }

    #[test]
    fn registering_an_algorithm_clears_the_cache() {
        let (mut e, calls) = counting_engine();
        let spec = QuerySpec::by_label("A").k(2);
        e.search("counting", &spec).unwrap();
        // Replace the algorithm under the same name: must re-run.
        let calls2 = Arc::new(AtomicUsize::new(0));
        e.register_cs(Box::new(Counting { calls: Arc::clone(&calls2) }));
        e.search("counting", &spec).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(calls2.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn lru_eviction_at_capacity_one() {
        // Capacity 1 → a single shard with exact LRU semantics.
        let (e, calls) = counting_engine();
        e.set_cache_capacity(1);
        let qa = QuerySpec::by_label("A").k(2);
        let qb = QuerySpec::by_label("B").k(2);
        e.search("counting", &qa).unwrap(); // {A}
        e.search("counting", &qa).unwrap(); // hit
        e.search("counting", &qb).unwrap(); // evicts A → {B}
        e.search("counting", &qa).unwrap(); // miss → recompute
        assert_eq!(e.cache_stats().len, 1);
        assert_eq!(calls.load(Ordering::SeqCst), 3, "A, B, then A again");
    }

    #[test]
    fn capacity_bounds_hold_across_shards() {
        let (e, calls) = counting_engine();
        e.set_cache_capacity(2);
        let qa = QuerySpec::by_label("A").k(2);
        let qb = QuerySpec::by_label("B").k(2);
        let qc = QuerySpec::by_label("C").k(2);
        e.search("counting", &qa).unwrap();
        e.search("counting", &qb).unwrap();
        e.search("counting", &qc).unwrap();
        assert!(e.cache_stats().len <= 2, "total occupancy bounded by capacity");
        // The most recent insert is still resident in its shard.
        e.search("counting", &qc).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 3, "C was just inserted: must hit");
    }

    /// A stub CD algorithm that counts its `detect` runs and splits the
    /// graph by vertex-id parity,
    /// followed by one overlapping cluster of every vertex.
    /// When `trip` holds a token, the run cancels it (a deadline firing
    /// mid-run).
    struct CountingCd {
        calls: Arc<AtomicUsize>,
        trip: Arc<std::sync::Mutex<Option<CancelToken>>>,
    }
    impl crate::api::CdAlgorithm for CountingCd {
        fn name(&self) -> &str {
            "counting-cd"
        }
        fn detect(&self, ctx: &GraphContext<'_>) -> Vec<Community> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if let Some(token) = self.trip.lock().unwrap().take() {
                token.cancel();
            }
            let (even, odd): (Vec<VertexId>, Vec<VertexId>) =
                ctx.graph.vertices().partition(|v| v.0 % 2 == 0);
            let all = ctx.graph.vertices().collect();
            vec![Community::structural(even), Community::structural(odd), Community::structural(all)]
        }
    }

    fn counting_cd(e: &mut Engine) -> (Arc<AtomicUsize>, Arc<std::sync::Mutex<Option<CancelToken>>>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let trip = Arc::new(std::sync::Mutex::new(None));
        e.register_cd(Box::new(CountingCd { calls: Arc::clone(&calls), trip: Arc::clone(&trip) }));
        (calls, trip)
    }

    /// A 30-vertex path, so twenty distinct query vertices exist.
    fn path30() -> cx_graph::AttributedGraph {
        let mut b = cx_graph::GraphBuilder::new();
        let v: Vec<VertexId> = (0..30).map(|i| b.add_vertex(&format!("p{i}"), &[])).collect();
        for w in v.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        b.build()
    }

    #[test]
    fn detect_results_are_cached_per_graph() {
        let mut e = Engine::with_graph("fig5", figure5_graph());
        e.add_graph("collab", small_collab_graph());
        let (calls, _) = counting_cd(&mut e);
        let fig5 = e.snapshot(Some("fig5")).unwrap();
        let detect = |snap: &GraphSnapshot| {
            e.detect_cancellable(snap, "counting-cd", &CancelToken::none()).unwrap()
        };
        let a = detect(&fig5);
        let b = detect(&fig5);
        assert_eq!(a, b);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "the second detect reads the memo");
        // Another graph's snapshot has its own memo.
        let c = detect(&e.snapshot(Some("collab")).unwrap());
        assert_ne!(a, c);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_cd_algorithm_runs_once_per_snapshot() {
        let mut e = Engine::with_graph("path", path30());
        let (calls, _) = counting_cd(&mut e);
        let snap = e.snapshot(None).unwrap();
        for q in 0..20 {
            let out = e.search_snapshot(&snap, "counting-cd", &QuerySpec::by_id(VertexId(q))).unwrap();
            assert_eq!(out.len(), 1);
            assert!(out[0].contains(VertexId(q)));
            assert!(out[0].vertices().iter().all(|v| v.0 % 2 == q % 2), "q={q}: not the first cluster");
        }
        let all = e.detect("counting-cd").unwrap();
        assert_eq!(all.len(), 3);
        let armed = e.detect_cancellable(&snap, "counting-cd", &CancelToken::manual()).unwrap();
        assert_eq!(armed, all);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "20 searches + detect + armed detect");

        // An edit publishes a snapshot with an empty memo: one more run.
        e.apply_edits(None, &[(VertexId(0), VertexId(29))], &[]).unwrap();
        e.search("counting-cd", &QuerySpec::by_id(VertexId(3))).unwrap();
        e.detect("counting-cd").unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_cancelled_detect_memoises_nothing() {
        let mut e = Engine::with_graph("fig5", figure5_graph());
        let (calls, trip) = counting_cd(&mut e);
        let snap = e.snapshot(None).unwrap();
        // Cancelled before the run: the algorithm never starts.
        let cancelled = CancelToken::manual();
        cancelled.cancel();
        let out = e.detect_cancellable(&snap, "counting-cd", &cancelled);
        assert!(matches!(out, Err(ExplorerError::DeadlineExceeded)), "{out:?}");
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        // Cancelled mid-run: the run completes but its result is dropped.
        let mid = CancelToken::manual();
        *trip.lock().unwrap() = Some(mid.clone());
        let out = e.detect_cancellable(&snap, "counting-cd", &mid);
        assert!(matches!(out, Err(ExplorerError::DeadlineExceeded)), "{out:?}");
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        // So the next reader computes afresh.
        e.detect_cancellable(&snap, "counting-cd", &CancelToken::none()).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn re_registering_a_cd_name_invalidates_live_memos() {
        let mut e = Engine::with_graph("fig5", figure5_graph());
        let (calls, _) = counting_cd(&mut e);
        let snap = e.snapshot(None).unwrap();
        let spec = QuerySpec::by_label("A");
        e.search_snapshot(&snap, "counting-cd", &spec).unwrap();
        let (calls2, _) = counting_cd(&mut e);
        e.search_snapshot(&snap, "counting-cd", &spec).unwrap();
        e.detect("counting-cd").unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(calls2.load(Ordering::SeqCst), 1, "the new code ran once on the pinned snapshot");
    }

    #[test]
    fn errors_are_not_cached() {
        let (e, _) = counting_engine();
        assert!(e.search("counting", &QuerySpec::by_label("nobody")).is_err());
        assert!(e.search("nope", &QuerySpec::by_label("A")).is_err());
        let s = e.cache_stats();
        assert_eq!(s.len, 0);
    }
}
