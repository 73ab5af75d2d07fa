//! The engine: immutable per-graph snapshots + algorithm registry.
//!
//! # Snapshot concurrency model
//!
//! Every graph lives in the engine as one immutable [`GraphSnapshot`]
//! behind an `Arc`: the attributed graph, its CL-tree index, profiles,
//! coordinates, and a per-graph generation number, all frozen when the
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
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use cx_cltree::{ClTree, Hierarchy};
use cx_graph::{AttributedGraph, Community, GraphStats, VertexId};
use cx_layout::{layout_community, layout_summary, LayoutAlgorithm, Scene, SummaryItem};
use cx_par::task::{CancelToken, ProgressFn};

use crate::api::{
    AcqAlgorithm, CdAlgorithm, CodicilAlgorithm, CsAlgorithm, GlobalAlgorithm,
    GlobalMaxMinAlgorithm, GirvanNewmanAlgorithm, GraphContext, KEccAlgorithm, KTrussAlgorithm, LocalAlgorithm,
    SacAlgorithm,
    LouvainAlgorithm,
};
use crate::cache::{CacheStats, QueryKey, ShardedCache, DEFAULT_CAPACITY};
use crate::error::ExplorerError;
use crate::profile::ProfileStore;
use crate::query::QuerySpec;
use crate::report::AnalysisReport;

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

/// One immutable, internally consistent version of a graph: contents,
/// index, and decorations all frozen at publish time. Cheap to share
/// (`Arc`), never mutated after construction — a reader holding one can
/// answer queries indefinitely while the engine publishes newer versions.
///
/// Dereferences to the [`AttributedGraph`] for convenience.
pub struct GraphSnapshot {
    name: String,
    /// The graph contents.
    pub graph: Arc<AttributedGraph>,
    /// The CL-tree index built for exactly this graph version.
    pub tree: Arc<ClTree>,
    /// Vertex profiles (Figure 2 popups), in the compact interned column
    /// store. `Arc`-shared across snapshots: an edge edit republishes the
    /// same store, only `set_profiles` builds a new one.
    pub profiles: Arc<ProfileStore>,
    /// Vertex coordinates for spatial algorithms, if installed. Shared
    /// across snapshots like `profiles`.
    pub coords: Option<Arc<Vec<(f64, f64)>>>,
    /// Per-graph monotone version number; exactly one snapshot is ever
    /// published per (graph, generation) pair.
    pub generation: u64,
    /// The multi-resolution summary hierarchy, built on first use and
    /// cached for this snapshot's lifetime. Tree node ids change across
    /// generations, so per-snapshot caching is exactly the right scope;
    /// the edit path seeds the successor's cell incrementally when this
    /// one was populated.
    hierarchy: std::sync::OnceLock<Arc<Hierarchy>>,
    /// Whole-graph statistics, computed on first use. Never carried to a
    /// successor: an edit's snapshot starts empty and recomputes.
    stats: std::sync::OnceLock<GraphStats>,
    /// Whether this snapshot bumped the live-snapshot gauge when built
    /// (observability could be toggled between construction and drop).
    gauge_counted: bool,
}

impl GraphSnapshot {
    fn new(
        name: String,
        graph: Arc<AttributedGraph>,
        tree: Arc<ClTree>,
        profiles: Arc<ProfileStore>,
        coords: Option<Arc<Vec<(f64, f64)>>>,
        generation: u64,
    ) -> Self {
        let gauge_counted = cx_obs::enabled();
        if gauge_counted {
            cx_obs::global().gauge("cx_snapshots_live").add(1);
        }
        Self {
            name,
            graph,
            tree,
            profiles,
            coords,
            generation,
            hierarchy: std::sync::OnceLock::new(),
            stats: std::sync::OnceLock::new(),
            gauge_counted,
        }
    }

    /// The summary hierarchy over this snapshot's CL-tree (supernode
    /// aggregates, level views, expansion) — built on first call, then
    /// shared. Concurrent first calls may race to build; `OnceLock`
    /// keeps exactly one winner and the losers' work is discarded.
    pub fn hierarchy(&self) -> Arc<Hierarchy> {
        Arc::clone(
            self.hierarchy
                .get_or_init(|| Arc::new(Hierarchy::build(&self.graph, &self.tree))),
        )
    }

    /// The hierarchy if it was already built for this snapshot.
    pub fn hierarchy_cached(&self) -> Option<Arc<Hierarchy>> {
        self.hierarchy.get().map(Arc::clone)
    }

    /// [`GraphStats`] of this snapshot's graph (an O(n + m) pass with a
    /// BFS and a degree sort), computed on first call and then shared.
    pub fn stats(&self) -> &GraphStats {
        self.stats.get_or_init(|| GraphStats::compute(&self.graph))
    }

    /// Pre-populates the hierarchy cell (edit path). A no-op if built.
    fn seed_hierarchy(&self, h: Arc<Hierarchy>) {
        let _ = self.hierarchy.set(h);
    }

    /// The registry name this snapshot was published under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The algorithm-facing view of this snapshot.
    pub fn context(&self) -> GraphContext<'_> {
        GraphContext {
            graph: &self.graph,
            tree: &self.tree,
            coords: self.coords.as_ref().map(|c| c.as_slice()),
        }
    }
}

impl Deref for GraphSnapshot {
    type Target = AttributedGraph;
    fn deref(&self) -> &AttributedGraph {
        &self.graph
    }
}

impl Drop for GraphSnapshot {
    fn drop(&mut self) {
        if self.gauge_counted {
            // Bypass the enabled() gate: the increment happened, so the
            // decrement must too, even if CX_OBS was toggled since.
            cx_obs::global().gauge("cx_snapshots_live").add(-1);
        }
    }
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

/// Writer-only state protected by a graph's write gate. Holding the gate
/// *is* holding this state, so no extra synchronisation is needed.
///
/// `dyncore` is a warm [`cx_kcore::DynamicCore`] seeded from the snapshot
/// it was last advanced to; `dyncore_for` pins the identity of that graph
/// version. The cache is valid only when `dyncore_for` points at the graph
/// `Arc` currently published for this name — attribute-only republishes
/// (`set_profiles` / `set_coordinates`) keep the same graph `Arc` so the
/// cache survives them, while `add_graph` / `upload` replace the graph and
/// naturally invalidate it. Comparing via `Weak::as_ptr` is ABA-safe
/// because the `Weak` itself keeps the old allocation's address reserved.
#[derive(Default)]
struct WriteState {
    dyncore_for: std::sync::Weak<AttributedGraph>,
    dyncore: Option<cx_kcore::DynamicCore>,
}

/// The C-Explorer engine. One instance serves many graphs and algorithms
/// and is shared across threads directly (`Arc<Engine>`, no outer lock):
/// reads pin an immutable [`GraphSnapshot`] and run lock-free; writes
/// build the next snapshot off-lock and publish it atomically (see the
/// module docs for the full concurrency model).
///
/// Query results from [`Engine::search_on`] / [`Engine::detect_on`] are
/// memoised in a bounded, sharded LRU cache keyed by the resolved query
/// *and the snapshot generation*, so mutation can never serve stale
/// answers.
pub struct Engine {
    registry: Mutex<Registry>,
    /// Per-graph writer serialization. Writers hold their graph's gate
    /// across read-modify-write (snapshot → rebuild → publish) so two
    /// concurrent edits can't lose updates; readers never touch gates.
    /// The gate also carries the writer-only incremental state (a warm
    /// [`cx_kcore::DynamicCore`]) so consecutive edits skip the peel.
    write_gates: Mutex<HashMap<String, Arc<Mutex<WriteState>>>>,
    cs: Vec<Box<dyn CsAlgorithm>>,
    cd: Vec<Box<dyn CdAlgorithm>>,
    cache: ShardedCache,
    /// Durable backing store, if this engine was opened with
    /// [`Engine::open_durable`]. Every write path appends its record
    /// *before* publishing, so a crash can lose the tail of the log but
    /// never admit an unlogged state.
    store: Option<Arc<cx_store::Store>>,
    /// Set while a background compaction is in flight (at most one).
    compacting: std::sync::atomic::AtomicBool,
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
        e.register_cs(Box::new(AcqAlgorithm::dec()));
        e.register_cs(Box::new(AcqAlgorithm::with_strategy(cx_acq::AcqStrategy::IncS)));
        e.register_cs(Box::new(AcqAlgorithm::with_strategy(cx_acq::AcqStrategy::IncT)));
        e.register_cs(Box::new(AcqAlgorithm::with_strategy(cx_acq::AcqStrategy::Basic)));
        e.register_cs(Box::new(GlobalAlgorithm));
        e.register_cs(Box::new(GlobalMaxMinAlgorithm));
        e.register_cs(Box::new(LocalAlgorithm));
        e.register_cs(Box::new(KTrussAlgorithm));
        e.register_cs(Box::new(KEccAlgorithm));
        e.register_cs(Box::new(SacAlgorithm));
        e.register_cd(Box::new(CodicilAlgorithm::default()));
        e.register_cd(Box::new(LouvainAlgorithm::default()));
        e.register_cd(Box::new(GirvanNewmanAlgorithm::default()));
        e
    }

    /// An engine preloaded with one graph (which becomes the default).
    pub fn with_graph(name: impl Into<String>, graph: AttributedGraph) -> Self {
        let e = Self::new();
        e.add_graph(name, graph);
        e
    }

    /// An engine backed by the durable store at `dir`: recovers every
    /// graph to its exact pre-crash generation (manifest checkpoints plus
    /// WAL replay, see `cx-store`), loads each CL-tree index from the
    /// snapshot the last compaction stored beside the checkpoint —
    /// rebuilding it when there is none, the WAL has moved the graph past
    /// it, or it does not validate against the graph — and attaches the
    /// store so every subsequent write is logged before it is published.
    /// `cx_index_boot_total{source}` counts which of the two happened.
    pub fn open_durable(dir: &Path) -> Result<Self, ExplorerError> {
        let (store, state) = cx_store::Store::open(dir)?;
        let e = Self::new();
        for (name, rg) in &state.graphs {
            let loaded = rg
                .index
                .as_deref()
                .and_then(|mut index| ClTree::read_snapshot(&rg.graph, &mut index).ok());
            cx_obs::metrics::inc(match loaded {
                Some(_) => "cx_index_boot_total{source=\"loaded\"}",
                None => "cx_index_boot_total{source=\"rebuilt\"}",
            });
            let tree = loaded.unwrap_or_else(|| ClTree::build(&rg.graph));
            let profiles = ProfileStore::from_pairs(rg.profiles.iter().map(|p| {
                (
                    p.vertex,
                    Profile {
                        name: p.name.clone(),
                        areas: p.areas.clone(),
                        institutes: p.institutes.clone(),
                        interests: p.interests.clone(),
                    },
                )
            }));
            // Publishing with the store still unattached appends nothing
            // to the WAL; the recovered generation is installed as-is.
            e.publish(GraphSnapshot::new(
                name.clone(),
                Arc::clone(&rg.graph),
                Arc::new(tree),
                Arc::new(profiles),
                rg.coords.clone().map(Arc::new),
                rg.generation,
            ));
        }
        {
            let mut r = e.registry();
            r.generations = state.generations.iter().map(|(n, g)| (n.clone(), *g)).collect();
            r.default_graph = state.default_graph.clone();
        }
        let mut e = e;
        e.store = Some(Arc::new(store));
        Ok(e)
    }

    /// The durable store backing this engine, if any.
    pub fn store(&self) -> Option<&Arc<cx_store::Store>> {
        self.store.as_ref()
    }

    /// Appends `record` to the WAL when a store is attached. Called by
    /// every write path *before* its publish.
    fn log(&self, record: &cx_store::Record) -> Result<(), ExplorerError> {
        if let Some(store) = &self.store {
            store.append(record)?;
        }
        Ok(())
    }

    /// Locks the registry, timing the hold.
    fn registry(&self) -> RegistryGuard<'_> {
        RegistryGuard {
            start: Instant::now(),
            guard: self.registry.lock().unwrap_or_else(|p| p.into_inner()),
        }
    }

    /// The writer gate for `name` (created on first use, kept forever —
    /// an idle gate is a mutex plus an empty [`WriteState`], negligible
    /// to retain).
    fn write_gate(&self, name: &str) -> Arc<Mutex<WriteState>> {
        let mut gates = self.write_gates.lock().unwrap_or_else(|p| p.into_inner());
        gates.entry(name.to_owned()).or_default().clone()
    }

    /// Claims the next generation for `name`. Strictly monotone per graph
    /// for the engine's lifetime (counters survive graph removal).
    fn reserve_generation(&self, name: &str) -> u64 {
        let mut r = self.registry();
        let g = r.generations.entry(name.to_owned()).or_insert(0);
        *g += 1;
        *g
    }

    /// Publishes a finished snapshot: one map insert under the registry
    /// lock (the atomic swap), then cache maintenance off-lock. Readers
    /// holding the previous snapshot keep it alive through their `Arc`.
    fn publish(&self, snap: GraphSnapshot) {
        let name = snap.name.clone();
        let generation = snap.generation;
        {
            let mut r = self.registry();
            r.snapshots.insert(name.clone(), Arc::new(snap));
            if r.default_graph.is_none() {
                r.default_graph = Some(name.clone());
            }
            cx_obs::metrics::gauge_set("cx_graphs_loaded", r.snapshots.len() as i64);
        }
        cx_obs::metrics::inc("cx_snapshot_swap_total");
        self.cache.purge_older(&name, generation);
    }

    /// Adds (or replaces) a graph, building its CL-tree index — the paper's
    /// offline Indexing module. The first graph added becomes the default.
    ///
    /// Panics if the durable store fails to log the addition; use
    /// [`Engine::try_add_graph`] to handle that error.
    pub fn add_graph(&self, name: impl Into<String>, graph: AttributedGraph) {
        self.try_add_graph(name, graph).expect("durable store rejected add_graph");
    }

    /// [`Engine::add_graph`], surfacing store errors instead of panicking.
    /// On a non-durable engine this never fails.
    pub fn try_add_graph(
        &self,
        name: impl Into<String>,
        graph: AttributedGraph,
    ) -> Result<(), ExplorerError> {
        let name = name.into();
        let gate = self.write_gate(&name);
        let _writing = gate.lock().unwrap_or_else(|p| p.into_inner());
        let tree = ClTree::build(&graph);
        let graph = Arc::new(graph);
        let generation = self.reserve_generation(&name);
        self.log(&cx_store::Record::AddGraph {
            name: name.clone(),
            generation,
            graph: Arc::clone(&graph),
        })?;
        self.publish(GraphSnapshot::new(
            name,
            graph,
            Arc::new(tree),
            Arc::new(ProfileStore::default()),
            None,
            generation,
        ));
        Ok(())
    }

    /// Removes a graph from the registry. Readers already pinned to its
    /// snapshot finish unaffected; the default moves to the first
    /// remaining name (sorted) if the removed graph was the default.
    pub fn remove_graph(&self, name: &str) -> Result<(), ExplorerError> {
        let gate = self.write_gate(name);
        let _writing = gate.lock().unwrap_or_else(|p| p.into_inner());
        if !self.registry().snapshots.contains_key(name) {
            return Err(ExplorerError::UnknownGraph(name.to_owned()));
        }
        // Removal claims a generation of its own so the durable log can
        // order it against checkpoints: a snapshot taken before the
        // removal has a strictly older generation and can never
        // resurrect the graph on recovery.
        let generation = self.reserve_generation(name);
        self.log(&cx_store::Record::Remove { name: name.to_owned(), generation })?;
        {
            let mut r = self.registry();
            r.snapshots.remove(name);
            if r.default_graph.as_deref() == Some(name) {
                let mut names: Vec<String> = r.snapshots.keys().cloned().collect();
                names.sort_unstable();
                r.default_graph = names.into_iter().next();
            }
            cx_obs::metrics::gauge_set("cx_graphs_loaded", r.snapshots.len() as i64);
        }
        cx_obs::metrics::inc("cx_snapshot_swap_total");
        self.cache.purge_graph(name);
        Ok(())
    }

    /// The paper's `upload(filePath)`: loads a graph file (binary snapshot
    /// if the extension is `.bin`, text format otherwise) and indexes it
    /// under `name`.
    pub fn upload(&self, name: impl Into<String>, path: &Path) -> Result<(), ExplorerError> {
        let graph = if path.extension().is_some_and(|e| e == "bin") {
            cx_graph::io::load_snapshot_file(path)?
        } else {
            cx_graph::io::load_text_file(path)?
        };
        self.try_add_graph(name, graph)
    }

    /// Registers (or replaces, by name) a community-search algorithm.
    /// Clears the query cache — the name may now mean different code.
    /// Setup-time API: takes `&mut self`, so registration happens before
    /// the engine is shared.
    pub fn register_cs(&mut self, algo: Box<dyn CsAlgorithm>) {
        self.cs.retain(|a| a.name() != algo.name());
        self.cs.push(algo);
        self.cache.clear();
    }

    /// Registers (or replaces, by name) a community-detection algorithm.
    /// Clears the query cache — the name may now mean different code.
    /// Setup-time API like [`Engine::register_cs`].
    pub fn register_cd(&mut self, algo: Box<dyn CdAlgorithm>) {
        self.cd.retain(|a| a.name() != algo.name());
        self.cd.push(algo);
        self.cache.clear();
    }

    /// Names of the registered CS algorithms.
    pub fn cs_names(&self) -> Vec<&str> {
        self.cs.iter().map(|a| a.name()).collect()
    }

    /// Names of the registered CD algorithms.
    pub fn cd_names(&self) -> Vec<&str> {
        self.cd.iter().map(|a| a.name()).collect()
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

    /// Makes `name` the default graph.
    pub fn set_default_graph(&self, name: &str) -> Result<(), ExplorerError> {
        // The gate serializes against a concurrent remove/re-add of the
        // same name, so the existence check stays valid across the log
        // append below.
        let gate = self.write_gate(name);
        let _writing = gate.lock().unwrap_or_else(|p| p.into_inner());
        if !self.registry().snapshots.contains_key(name) {
            return Err(ExplorerError::UnknownGraph(name.to_owned()));
        }
        self.log(&cx_store::Record::SetDefault { default: Some(name.to_owned()) })?;
        self.registry().default_graph = Some(name.to_owned());
        Ok(())
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

    fn find_cs(&self, name: &str) -> Option<&dyn CsAlgorithm> {
        self.cs.iter().find(|a| a.name() == name).map(Box::as_ref)
    }

    fn find_cd(&self, name: &str) -> Option<&dyn CdAlgorithm> {
        self.cd.iter().find(|a| a.name() == name).map(Box::as_ref)
    }

    /// The paper's `search(CSAlgorithm, Query)` on the default graph.
    ///
    /// A CD algorithm name is accepted too: its clustering is computed and
    /// the query vertex's cluster returned (how CODICIL shows up alongside
    /// the CS methods in Figure 6(a)).
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
        let key = QueryKey {
            graph: snap.name.clone(),
            generation: snap.generation,
            algo: algo.to_owned(),
            vertices: qs.clone(),
            k: spec.k,
            keywords: spec.keywords.clone(),
        };
        if let Some(hit) = self.cache.get(&key) {
            cx_obs::metrics::inc("cx_engine_cache_total{event=\"hit\"}");
            return Ok(hit);
        }
        cx_obs::metrics::inc("cx_engine_cache_total{event=\"miss\"}");
        if token.is_cancelled() {
            cx_obs::metrics::inc("cx_engine_deadline_total{op=\"search\"}");
            return Err(ExplorerError::DeadlineExceeded);
        }
        let ctx = snap.context();
        let run = || {
            let _algo_span = cx_obs::span(&format!("algo.{algo}"));
            if let Some(a) = self.find_cs(algo) {
                Ok(a.search(&ctx, &qs, spec))
            } else if let Some(a) = self.find_cd(algo) {
                Ok(a.community_of(&ctx, qs[0]).into_iter().collect())
            } else {
                Err(ExplorerError::UnknownAlgorithm(algo.to_owned()))
            }
        };
        let out: Vec<Community> = if token.is_armed() {
            cx_par::task::scope(token, None, run)?
        } else {
            run()?
        };
        if token.is_cancelled() {
            cx_obs::metrics::inc("cx_engine_deadline_total{op=\"search\"}");
            return Err(ExplorerError::DeadlineExceeded);
        }
        self.cache.insert(key, out.clone());
        Ok(out)
    }

    /// The paper's `detect(CDAlgorithm)` on the default graph.
    pub fn detect(&self, algo: &str) -> Result<Vec<Community>, ExplorerError> {
        self.detect_on(None, algo)
    }

    /// `detect` against a named graph: pins the current snapshot and
    /// delegates to [`Engine::detect_snapshot`].
    pub fn detect_on(
        &self,
        graph: Option<&str>,
        algo: &str,
    ) -> Result<Vec<Community>, ExplorerError> {
        self.detect_snapshot(&*self.snapshot(graph)?, algo)
    }

    /// `detect` against an already pinned snapshot. Cached like
    /// [`Engine::search_snapshot`] (a detect key has no query vertices,
    /// so it never collides with a search key).
    pub fn detect_snapshot(
        &self,
        snap: &GraphSnapshot,
        algo: &str,
    ) -> Result<Vec<Community>, ExplorerError> {
        self.detect_snapshot_with(snap, algo, &CancelToken::none(), None)
    }

    /// [`Engine::detect_snapshot`] under a cooperative cancellation token —
    /// the deadline semantics of [`Engine::search_snapshot_cancellable`].
    pub fn detect_snapshot_cancellable(
        &self,
        snap: &GraphSnapshot,
        algo: &str,
        token: &CancelToken,
    ) -> Result<Vec<Community>, ExplorerError> {
        self.detect_snapshot_with(snap, algo, token, None)
    }

    /// Streaming `detect`: the algorithm's [`cx_par::task::progress`] calls
    /// reach `progress` (the SSE layer frames them as events), and `token`
    /// carries both the request deadline and client-disconnect abort. A
    /// cache hit short-circuits with the result and no progress events.
    pub fn detect_snapshot_streaming(
        &self,
        snap: &GraphSnapshot,
        algo: &str,
        token: &CancelToken,
        progress: Arc<ProgressFn>,
    ) -> Result<Vec<Community>, ExplorerError> {
        self.detect_snapshot_with(snap, algo, token, Some(progress))
    }

    fn detect_snapshot_with(
        &self,
        snap: &GraphSnapshot,
        algo: &str,
        token: &CancelToken,
        progress: Option<Arc<ProgressFn>>,
    ) -> Result<Vec<Community>, ExplorerError> {
        let _span = cx_obs::span("engine.detect");
        let a = self
            .find_cd(algo)
            .ok_or_else(|| ExplorerError::UnknownAlgorithm(algo.to_owned()))?;
        let key = QueryKey {
            graph: snap.name.clone(),
            generation: snap.generation,
            algo: algo.to_owned(),
            vertices: Vec::new(),
            k: 0,
            keywords: Vec::new(),
        };
        if let Some(hit) = self.cache.get(&key) {
            cx_obs::metrics::inc("cx_engine_cache_total{event=\"hit\"}");
            return Ok(hit);
        }
        cx_obs::metrics::inc("cx_engine_cache_total{event=\"miss\"}");
        if token.is_cancelled() {
            cx_obs::metrics::inc("cx_engine_deadline_total{op=\"detect\"}");
            return Err(ExplorerError::DeadlineExceeded);
        }
        let ctx = snap.context();
        let run = || {
            let _algo_span = cx_obs::span(&format!("algo.{algo}"));
            a.detect(&ctx)
        };
        let out = if token.is_armed() || progress.is_some() {
            cx_par::task::scope(token, progress, run)
        } else {
            run()
        };
        if token.is_cancelled() {
            cx_obs::metrics::inc("cx_engine_deadline_total{op=\"detect\"}");
            return Err(ExplorerError::DeadlineExceeded);
        }
        self.cache.insert(key, out.clone());
        Ok(out)
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

    /// The paper's `analyze(Community)`: CPJ/CMF quality plus per-community
    /// statistics for a result set, w.r.t. query vertex `q`.
    pub fn analyze(
        &self,
        graph: Option<&str>,
        communities: &[Community],
        q: VertexId,
    ) -> Result<AnalysisReport, ExplorerError> {
        self.analyze_snapshot(&*self.snapshot(graph)?, communities, q)
    }

    /// [`Engine::analyze`] against an already pinned snapshot.
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

    /// Scene for a multi-resolution level view: the level-`level`
    /// supernodes as disjoint bubbles (largest first, at most
    /// `max_nodes`). Level views have no inter-supernode edges by
    /// construction — see the hierarchy module docs.
    pub fn hierarchy_level_scene(
        &self,
        snap: &GraphSnapshot,
        level: u32,
        max_nodes: usize,
    ) -> Scene {
        let h = snap.hierarchy();
        let nodes = h.level_nodes(level);
        let shown = nodes.len().min(max_nodes.max(1));
        let items: Vec<SummaryItem> = nodes[..shown]
            .iter()
            .map(|&id| supernode_item(&snap.graph, &h, id))
            .collect();
        layout_summary(&items, &[], 960.0, 600.0).titled(format!(
            "Hierarchy level {level} — showing {shown} of {} supernodes",
            nodes.len()
        ))
    }

    /// Scene for one supernode's expansion: listed residents as plain
    /// vertices, child supernodes as bubbles, resident–resident edges,
    /// and weighted resident→child links, bounded to `max_nodes` by
    /// [`Hierarchy::expand_bounded`]. `None` when the snapshot's hierarchy
    /// has no supernode `node`.
    pub fn hierarchy_expand_scene(
        &self,
        snap: &GraphSnapshot,
        node: u32,
        max_nodes: usize,
    ) -> Option<Scene> {
        let h = snap.hierarchy();
        let g = &snap.graph;
        let ex = h.expand_bounded(g, &snap.tree, node, max_nodes)?;

        let mut items: Vec<SummaryItem> = ex
            .residents
            .iter()
            .map(|&v| SummaryItem {
                id: v.0,
                label: g.label(v).to_owned(),
                size: g.degree(v) as f64,
                is_super: false,
            })
            .collect();
        let vert_index: HashMap<VertexId, usize> =
            ex.residents.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let child_index: HashMap<cx_cltree::NodeId, usize> = ex
            .children
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, items.len() + i))
            .collect();
        items.extend(ex.children.iter().map(|&c| supernode_item(g, &h, c)));

        let mut links: Vec<(usize, usize, f64)> = ex
            .internal_edges
            .iter()
            .map(|&(u, v)| (vert_index[&u], vert_index[&v], 1.0))
            .collect();
        links.extend(
            ex.child_links.iter().map(|&(u, c, w)| (vert_index[&u], child_index[&c], w as f64)),
        );

        let s = h.stats(cx_cltree::NodeId(node));
        let truncated = ex.truncated || ex.children.len() < ex.children_total;
        Some(layout_summary(&items, &links, 960.0, 600.0).titled(format!(
            "Supernode {node} (level {}) — {} residents, {} children{}",
            s.level,
            ex.residents.len(),
            ex.children.len(),
            if truncated { ", truncated" } else { "" }
        )))
    }

    /// Installs profile records for a graph's vertices. Publishes a new
    /// snapshot (graph and index are shared with the previous one — only
    /// the profile map is rebuilt).
    pub fn set_profiles(
        &self,
        graph: Option<&str>,
        profiles: impl IntoIterator<Item = (VertexId, Profile)>,
    ) -> Result<(), ExplorerError> {
        let name = self.resolved_owned(graph)?;
        let gate = self.write_gate(&name);
        let _writing = gate.lock().unwrap_or_else(|p| p.into_inner());
        let snap = self.snapshot(Some(&name))?;
        let increment: Vec<(VertexId, Profile)> = profiles.into_iter().collect();
        let merged = snap.profiles.merged(&increment);
        let generation = self.reserve_generation(&name);
        // The log carries the increment, not the merged map; replay
        // re-merges it, mirroring this method.
        self.log(&cx_store::Record::SetProfiles {
            name: name.clone(),
            generation,
            profiles: increment
                .iter()
                .map(|(v, p)| cx_store::StoredProfile {
                    vertex: *v,
                    name: p.name.clone(),
                    areas: p.areas.clone(),
                    institutes: p.institutes.clone(),
                    interests: p.interests.clone(),
                })
                .collect(),
        })?;
        self.publish(GraphSnapshot::new(
            name,
            Arc::clone(&snap.graph),
            Arc::clone(&snap.tree),
            Arc::new(merged),
            snap.coords.clone(),
            generation,
        ));
        Ok(())
    }

    /// Installs vertex coordinates for a graph, enabling spatial-aware
    /// algorithms (`sac`). Must provide exactly one `(x, y)` per vertex.
    /// Coordinates change query answers, so this publishes a new
    /// generation (graph and index are shared with the previous snapshot).
    pub fn set_coordinates(
        &self,
        graph: Option<&str>,
        coords: Vec<(f64, f64)>,
    ) -> Result<(), ExplorerError> {
        let name = self.resolved_owned(graph)?;
        let gate = self.write_gate(&name);
        let _writing = gate.lock().unwrap_or_else(|p| p.into_inner());
        let snap = self.snapshot(Some(&name))?;
        if coords.len() != snap.graph.vertex_count() {
            return Err(ExplorerError::BadQuery(format!(
                "expected {} coordinates, got {}",
                snap.graph.vertex_count(),
                coords.len()
            )));
        }
        let generation = self.reserve_generation(&name);
        self.log(&cx_store::Record::SetCoords {
            name: name.clone(),
            generation,
            coords: coords.clone(),
        })?;
        self.publish(GraphSnapshot::new(
            name,
            Arc::clone(&snap.graph),
            Arc::clone(&snap.tree),
            Arc::clone(&snap.profiles),
            Some(Arc::new(coords)),
            generation,
        ));
        Ok(())
    }

    /// The profile of a vertex (the Figure 2 popup), if one is installed.
    pub fn profile(&self, graph: Option<&str>, v: VertexId) -> Result<Option<Profile>, ExplorerError> {
        Ok(self.snapshot(graph)?.profiles.get(v))
    }

    /// Applies a batch of edge edits to a graph — the evolving-network
    /// path (new co-authorships appear, stale ones are pruned).
    ///
    /// The edits are coalesced into an effective [`cx_graph::EdgeDelta`],
    /// the CSR adjacency is patched with [`AttributedGraph::apply_delta`]
    /// (attribute columns shared by `Arc`), core numbers are maintained
    /// subcore-locally by a warm [`cx_kcore::DynamicCore`] cached in the
    /// write gate, and the CL-tree is repaired with [`ClTree::update`]
    /// (which itself falls back to a full rebuild when too many core
    /// numbers changed).
    ///
    /// The work happens off the registry lock; concurrent
    /// readers keep answering from the previous snapshot until the
    /// publish, and every call — including a structural no-op — publishes
    /// a fresh generation. Wall time is recorded in the
    /// `cx_edit_apply_us` histogram.
    pub fn apply_edits(
        &self,
        graph: Option<&str>,
        add: &[(VertexId, VertexId)],
        remove: &[(VertexId, VertexId)],
    ) -> Result<(), ExplorerError> {
        let start = Instant::now();
        let name = self.resolved_owned(graph)?;
        let gate = self.write_gate(&name);
        let mut ws = gate.lock().unwrap_or_else(|p| p.into_inner());
        let snap = self.snapshot(Some(&name))?;
        let g = &snap.graph;
        // Validates every endpoint before any effect, so a bad edit
        // leaves the graph untouched.
        let delta = g.edge_delta(add, remove)?;
        let (new_graph, new_tree) = if delta.is_empty() {
            // Structural no-op: share graph and index wholesale but
            // still publish (callers observe a generation per edit).
            (Arc::clone(g), Arc::clone(&snap.tree))
        } else {
            let new_graph = Arc::new(g.apply_delta(&delta));
            let mut dc = match ws.dyncore.take() {
                Some(dc) if ws.dyncore_for.as_ptr() == Arc::as_ptr(g) => dc,
                _ => cx_kcore::DynamicCore::from_graph_with_cores(g, snap.tree.core_numbers()),
            };
            // Effective sets are disjoint (no edge is both added and
            // removed), so the order of the two loops is immaterial.
            for &(u, v) in &delta.removed {
                dc.remove_edge(u, v);
            }
            for &(u, v) in &delta.added {
                dc.insert_edge(u, v);
            }
            let tree = snap.tree.update(&new_graph, &delta, dc.core_numbers());
            ws.dyncore_for = Arc::downgrade(&new_graph);
            ws.dyncore = Some(dc);
            (new_graph, Arc::new(tree))
        };
        let generation = self.reserve_generation(&name);
        self.log(&cx_store::Record::Edit { name: name.clone(), generation, delta })?;
        let next = GraphSnapshot::new(
            name,
            new_graph,
            new_tree,
            Arc::clone(&snap.profiles),
            snap.coords.clone(),
            generation,
        );
        // Carry the summary hierarchy forward incrementally so a
        // browsing client doesn't pay a full rebuild after each edit.
        if let Some(prev_h) = snap.hierarchy_cached() {
            if Arc::ptr_eq(&next.tree, &snap.tree) {
                next.seed_hierarchy(prev_h);
            } else {
                next.seed_hierarchy(Arc::new(Hierarchy::update(
                    &next.graph,
                    &next.tree,
                    &snap.tree,
                    &prev_h,
                )));
            }
        }
        self.publish(next);
        cx_obs::metrics::observe_us("cx_edit_apply_us", start.elapsed().as_micros() as u64);
        Ok(())
    }

    /// Case-insensitive vertex search for the UI's name box; returns
    /// (vertex, label, degree) triples, best match first.
    pub fn suggest(
        &self,
        graph: Option<&str>,
        query: &str,
        limit: usize,
    ) -> Result<Vec<(VertexId, String, usize)>, ExplorerError> {
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
    ) -> Result<(Vec<(VertexId, String, usize)>, usize), ExplorerError> {
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

    /// Folds the WAL into fresh snapshot checkpoints and truncates it.
    /// No-op (returning `None`) on a non-durable engine.
    ///
    /// Writers are quiesced for the duration: the write-gate map lock is
    /// held (blocking any writer from even looking up its gate) and every
    /// existing gate is locked in sorted order (waiting out in-flight
    /// writes). Readers are unaffected — they run off pinned snapshots
    /// and never touch gates. The quiescence makes the (registry,
    /// generation counters, default) cut handed to the store consistent
    /// with the WAL truncation: no record can land between the cut and
    /// the truncate and be lost.
    pub fn compact_store(&self) -> Result<Option<cx_store::CompactionStats>, ExplorerError> {
        let Some(store) = &self.store else { return Ok(None) };

        // Quiesce: hold the gate map (blocks new writers incl. new graph
        // names) and then every gate (waits out in-flight writers).
        let gates_map = self.write_gates.lock().unwrap_or_else(|p| p.into_inner());
        let mut gates: Vec<(&String, &Arc<Mutex<WriteState>>)> = gates_map.iter().collect();
        gates.sort_unstable_by_key(|(name, _)| name.as_str());
        let _held: Vec<_> = gates
            .iter()
            .map(|(_, gate)| gate.lock().unwrap_or_else(|p| p.into_inner()))
            .collect();

        // A consistent cut of the registry.
        let (live, default_graph, counters) = {
            let r = self.registry();
            let mut live: Vec<cx_store::GraphCheckpoint> = r
                .snapshots
                .iter()
                .map(|(name, s)| {
                    // The column store iterates in vertex order, so the
                    // checkpoint's sorted-rows contract holds by
                    // construction.
                    let profiles: Vec<cx_store::StoredProfile> = s
                        .profiles
                        .iter()
                        .map(|(v, p)| cx_store::StoredProfile {
                            vertex: v,
                            name: p.name,
                            areas: p.areas,
                            institutes: p.institutes,
                            interests: p.interests,
                        })
                        .collect();
                    let mut index = Vec::new();
                    s.tree
                        .write_snapshot(&mut index)
                        .expect("writing to a Vec cannot fail");
                    cx_store::GraphCheckpoint {
                        name: name.clone(),
                        generation: s.generation,
                        graph: Arc::clone(&s.graph),
                        profiles,
                        coords: s.coords.as_ref().map(|c| (**c).clone()),
                        index: Some(index),
                    }
                })
                .collect();
            live.sort_unstable_by(|a, b| a.name.cmp(&b.name));
            let mut counters: Vec<(String, u64)> =
                r.generations.iter().map(|(n, g)| (n.clone(), *g)).collect();
            counters.sort_unstable();
            (live, r.default_graph.clone(), counters)
        };

        let stats = store.compact(&live, default_graph, &counters)?;
        Ok(Some(stats))
    }

    /// Kicks off [`Engine::compact_store`] on a background thread when
    /// the WAL has outgrown the `CX_COMPACT_BYTES` threshold (default
    /// 64 MiB) and no compaction is already running. Cheap enough to call
    /// after every write request.
    pub fn maybe_compact_in_background(self: &Arc<Self>) {
        use std::sync::atomic::Ordering;
        let Some(store) = &self.store else { return };
        if store.wal_bytes() < compact_threshold_bytes() {
            return;
        }
        if self.compacting.swap(true, Ordering::SeqCst) {
            return; // One at a time.
        }
        let me = Arc::clone(self);
        std::thread::spawn(move || {
            if let Err(e) = me.compact_store() {
                // Compaction failure is not fatal: the WAL keeps growing
                // and recovery still works; surface it via metrics.
                cx_obs::metrics::inc("cx_store_compaction_errors_total");
                eprintln!("background compaction failed: {e}");
            }
            me.compacting.store(false, Ordering::SeqCst);
        });
    }
}

/// Summary-scene item for one supernode: labelled with level, subtree
/// size, and the dominant keyword when it has one.
fn supernode_item(g: &AttributedGraph, h: &Hierarchy, id: cx_cltree::NodeId) -> SummaryItem {
    let s = h.stats(id);
    let kw = s.top_keywords.first().and_then(|&(w, _)| g.interner().name(w)).unwrap_or("");
    let label = if kw.is_empty() {
        format!("k{} | {}v", s.level, s.subtree_vertices)
    } else {
        format!("k{} | {}v | {kw}", s.level, s.subtree_vertices)
    };
    SummaryItem { id: id.0, label, size: s.subtree_vertices as f64, is_super: true }
}

/// WAL size that triggers a background compaction (`CX_COMPACT_BYTES`,
/// default 64 MiB).
fn compact_threshold_bytes() -> u64 {
    std::env::var("CX_COMPACT_BYTES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64 << 20)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_datagen::{figure5_graph, small_collab_graph};

    fn engine() -> Engine {
        Engine::with_graph("fig5", figure5_graph())
    }

    #[test]
    fn builtins_are_registered() {
        let e = engine();
        let cs = e.cs_names();
        for name in ["acq", "acq-inc-s", "acq-inc-t", "acq-basic", "global", "global-maxmin", "local", "ktruss", "kecc"] {
            assert!(cs.contains(&name), "missing {name}");
        }
        assert_eq!(e.cd_names(), vec!["codicil", "louvain", "girvan-newman"]);
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
        let report = e.analyze(None, &out, a).unwrap();
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
mod snapshot_tests {
    use super::*;
    use cx_datagen::figure5_graph;

    #[test]
    fn generations_are_per_graph_and_monotone() {
        let e = Engine::with_graph("a", figure5_graph());
        e.add_graph("b", figure5_graph());
        // Per-graph counters: both start at 1, not 1 and 2.
        assert_eq!(e.snapshot(Some("a")).unwrap().generation, 1);
        assert_eq!(e.snapshot(Some("b")).unwrap().generation, 1);

        let a_before = e.snapshot(Some("a")).unwrap();
        let gb = e.snapshot(Some("b")).unwrap();
        let (u, v) = (gb.vertex_by_label("A").unwrap(), gb.vertex_by_label("B").unwrap());
        e.apply_edits(Some("b"), &[], &[(u, v)]).unwrap();

        assert_eq!(e.snapshot(Some("b")).unwrap().generation, 2);
        let a_after = e.snapshot(Some("a")).unwrap();
        assert!(Arc::ptr_eq(&a_before, &a_after), "editing b must not republish a");
        assert_eq!(a_after.generation, 1);

        // Removal + re-add continues the counter — it never resets, so
        // old cache keys can never be resurrected. The removal claims a
        // generation of its own (3) so the durable log can order it
        // against checkpoints; the re-add lands on 4.
        e.remove_graph("b").unwrap();
        e.add_graph("b", figure5_graph());
        assert_eq!(e.snapshot(Some("b")).unwrap().generation, 4);
    }

    #[test]
    fn pinned_snapshot_survives_edits() {
        let e = Engine::with_graph("fig5", figure5_graph());
        let old = e.snapshot(None).unwrap();
        let (a, b) = (old.vertex_by_label("A").unwrap(), old.vertex_by_label("B").unwrap());
        e.apply_edits(None, &[], &[(a, b)]).unwrap();

        // The pinned reader still sees the pre-edit world, index included.
        assert_eq!(old.edge_count(), 11);
        assert_eq!(old.tree.max_core(), 3);
        let out = e.search_snapshot(&old, "global", &QuerySpec::by_id(a).k(3)).unwrap();
        assert_eq!(out[0].len(), 4, "K4 intact in the pinned snapshot");

        // New requests see the new world.
        let new = e.snapshot(None).unwrap();
        assert_eq!(new.edge_count(), 10);
        assert_eq!(new.tree.max_core(), 2);
        assert!(new.generation > old.generation);
    }

    #[test]
    fn registry_index_lists_without_cloning_snapshots() {
        let e = Engine::with_graph("fig5", figure5_graph());
        e.add_graph("zz", figure5_graph());
        let idx = e.registry_index();
        assert_eq!(idx.default_graph.as_deref(), Some("fig5"));
        assert_eq!(idx.graphs.len(), 2);
        assert_eq!(idx.graphs[0].name, "fig5");
        assert!(idx.graphs[0].is_default);
        assert_eq!(idx.graphs[0].vertices, 10);
        assert_eq!(idx.graphs[0].edges, 11);
        assert_eq!(idx.graphs[0].generation, 1);
        assert_eq!(idx.graphs[1].name, "zz");
        assert!(!idx.graphs[1].is_default);
    }

    #[test]
    fn concurrent_readers_and_writer_stay_consistent() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let e = Arc::new(Engine::with_graph("fig5", figure5_graph()));
        let snap = e.snapshot(None).unwrap();
        let (a, b) = (snap.vertex_by_label("A").unwrap(), snap.vertex_by_label("B").unwrap());
        drop(snap);

        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let e = Arc::clone(&e);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last_gen = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let s = e.snapshot(None).unwrap();
                        assert!(s.generation >= last_gen, "generation went backwards");
                        last_gen = s.generation;
                        // A snapshot is internally consistent: edge count
                        // and index agree (A-B present ⇔ 3-core exists).
                        let has_ab = s.neighbors(a).contains(&b);
                        assert_eq!(s.tree.max_core(), if has_ab { 3 } else { 2 });
                        assert_eq!(s.edge_count(), if has_ab { 11 } else { 10 });
                    }
                })
            })
            .collect();

        for i in 0..20 {
            if i % 2 == 0 {
                e.apply_edits(None, &[], &[(a, b)]).unwrap();
            } else {
                e.apply_edits(None, &[(a, b)], &[]).unwrap();
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(e.snapshot(None).unwrap().generation, 21);
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
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

    #[test]
    fn detect_results_are_cached_per_graph() {
        let e = Engine::with_graph("fig5", figure5_graph());
        e.add_graph("collab", small_collab_graph());
        let a = e.detect_on(Some("fig5"), "louvain").unwrap();
        let before = e.cache_stats();
        let b = e.detect_on(Some("fig5"), "louvain").unwrap();
        assert_eq!(a, b);
        assert_eq!(e.cache_stats().hits, before.hits + 1);
        // A different graph is a different key.
        let c = e.detect_on(Some("collab"), "louvain").unwrap();
        assert_ne!(a, c);
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

#[cfg(test)]
mod edit_tests {
    use super::*;
    use cx_datagen::figure5_graph;
    use crate::query::QuerySpec;

    #[test]
    fn adding_edges_grows_the_core() {
        let e = Engine::with_graph("fig5", figure5_graph());
        let snap = e.snapshot(None).unwrap();
        let (ee, f, gg) = (
            snap.vertex_by_label("E").unwrap(),
            snap.vertex_by_label("F").unwrap(),
            snap.vertex_by_label("G").unwrap(),
        );
        // Before: E is in the 2-core, F and G are only 1-core.
        assert_eq!(snap.tree.core(f), 1);
        // Close the E-F-G triangle fully against the K4: G-E edge already
        // exists? No — add G-E and F-C to densify.
        let c = snap.vertex_by_label("C").unwrap();
        e.apply_edits(None, &[(gg, ee), (f, c)], &[]).unwrap();
        let snap = e.snapshot(None).unwrap();
        assert!(snap.tree.core(f) >= 2, "F core {} after densifying", snap.tree.core(f));
        assert!(snap.tree.core(gg) >= 2);
        // Queries run against the updated graph.
        let out = e.search("acq", &QuerySpec::by_label("A").k(2)).unwrap();
        assert!(!out.is_empty());
    }

    #[test]
    fn removing_edges_shrinks_the_core() {
        let e = Engine::with_graph("fig5", figure5_graph());
        let snap = e.snapshot(None).unwrap();
        let (a, b) = (snap.vertex_by_label("A").unwrap(), snap.vertex_by_label("B").unwrap());
        e.apply_edits(None, &[], &[(a, b)]).unwrap();
        // K4 minus an edge: cores drop from 3 to 2.
        let snap = e.snapshot(None).unwrap();
        assert_eq!(snap.tree.core(a), 2);
        assert_eq!(snap.tree.max_core(), 2);
        assert_eq!(snap.edge_count(), 10);
    }

    #[test]
    fn edits_validate_vertices_and_keep_profiles() {
        let e = Engine::with_graph("fig5", figure5_graph());
        let a = e.snapshot(None).unwrap().vertex_by_label("A").unwrap();
        e.set_profiles(
            None,
            [(a, Profile {
                name: "A".into(),
                areas: vec![],
                institutes: vec![],
                interests: vec![],
            })],
        )
        .unwrap();
        assert!(e.apply_edits(None, &[(a, VertexId(99))], &[]).is_err());
        let b = e.snapshot(None).unwrap().vertex_by_label("B").unwrap();
        e.apply_edits(None, &[], &[(a, b)]).unwrap();
        // Profile survives the rebuild.
        assert!(e.profile(None, a).unwrap().is_some());
    }

    #[test]
    fn incremental_edits_share_attribute_columns_and_profiles() {
        let e = Engine::with_graph("fig5", figure5_graph());
        let before = e.snapshot(None).unwrap();
        let a = before.vertex_by_label("A").unwrap();
        let b = before.vertex_by_label("B").unwrap();
        e.set_profiles(
            None,
            [(a, Profile {
                name: "A".into(),
                areas: vec![],
                institutes: vec![],
                interests: vec![],
            })],
        )
        .unwrap();
        let coords: Vec<(f64, f64)> =
            (0..before.vertex_count()).map(|i| (i as f64, -(i as f64))).collect();
        e.set_coordinates(None, coords).unwrap();
        let before = e.snapshot(None).unwrap();
        e.apply_edits(None, &[], &[(a, b)]).unwrap();
        let after = e.snapshot(None).unwrap();
        // The edit must not deep-copy what it didn't touch: attribute
        // columns, the profile map, and the coordinate vector are all
        // carried by pointer into the successor snapshot.
        assert!(after.graph.shares_attributes_with(&before.graph));
        assert!(Arc::ptr_eq(&after.profiles, &before.profiles));
        assert!(Arc::ptr_eq(
            after.coords.as_ref().unwrap(),
            before.coords.as_ref().unwrap()
        ));
        assert_eq!(after.generation, before.generation + 1);
    }

    #[test]
    fn stats_after_an_edit_describe_the_edited_graph() {
        // The path a—b—c—d: cutting b—c splits it, adding a—d rejoins it.
        let mut b = cx_graph::GraphBuilder::new();
        let v: Vec<VertexId> = ["a", "b", "c", "d"].iter().map(|l| b.add_vertex(l, &[])).collect();
        for i in 0..3 {
            b.add_edge(v[i], v[i + 1]);
        }
        let e = Engine::with_graph("path", b.build());
        let first = e.snapshot(None).unwrap();
        assert_eq!((first.stats().edges, first.stats().components), (3, 1));

        e.apply_edits(None, &[], &[(v[1], v[2])]).unwrap();
        let cut = e.snapshot(None).unwrap();
        assert_eq!((cut.stats().edges, cut.stats().components), (2, 2));
        assert_eq!(cut.stats().degrees.max, 1);
        // A reader pinned to the old snapshot keeps its own statistics.
        assert_eq!((first.stats().edges, first.stats().components), (3, 1));

        e.apply_edits(None, &[(v[0], v[3])], &[]).unwrap();
        let rejoined = e.snapshot(None).unwrap();
        assert_eq!((rejoined.stats().edges, rejoined.stats().components), (3, 1));
    }

    #[test]
    fn no_op_edit_publishes_a_generation_sharing_graph_and_tree() {
        let e = Engine::with_graph("fig5", figure5_graph());
        let before = e.snapshot(None).unwrap();
        let a = before.vertex_by_label("A").unwrap();
        let b = before.vertex_by_label("B").unwrap();
        let h = before.vertex_by_label("H").unwrap();
        let i = before.vertex_by_label("I").unwrap();
        // A–B already exists and H–I is removed-then-re-added within the
        // same batch: structurally nothing changes.
        e.apply_edits(None, &[(a, b), (h, i)], &[(h, i)]).unwrap();
        let after = e.snapshot(None).unwrap();
        assert_eq!(after.generation, before.generation + 1);
        assert!(Arc::ptr_eq(&after.graph, &before.graph));
        assert!(Arc::ptr_eq(&after.tree, &before.tree));
    }

    #[test]
    fn chained_incremental_edits_match_a_from_scratch_engine() {
        let inc = Engine::with_graph("fig5", figure5_graph());
        let scratch = |edits: &dyn Fn(&Engine)| {
            let e = Engine::with_graph("fig5", figure5_graph());
            edits(&e);
            e
        };
        let snap = inc.snapshot(None).unwrap();
        let v = |l: &str| snap.vertex_by_label(l).unwrap();
        let (a, b, c, ee, f, gg, h, i, j) = (
            v("A"),
            v("B"),
            v("C"),
            v("E"),
            v("F"),
            v("G"),
            v("H"),
            v("I"),
            v("J"),
        );
        // A long script mixing inserts, deletes, batches, and a re-add,
        // exercising the warm DynamicCore across consecutive calls.
        let script: Vec<(Vec<(VertexId, VertexId)>, Vec<(VertexId, VertexId)>)> = vec![
            (vec![(gg, ee), (f, c)], vec![]),
            (vec![], vec![(a, b)]),
            (vec![(a, b), (j, i)], vec![(h, i)]),
            (vec![(h, i)], vec![(j, i)]),
            (vec![], vec![(0, 2), (1, 3)].iter().map(|&(x, y)| (VertexId(x), VertexId(y))).collect()),
            (vec![(VertexId(0), VertexId(2))], vec![]),
        ];
        for (step, (add, remove)) in script.iter().enumerate() {
            inc.apply_edits(None, add, remove).unwrap();
            let fresh = scratch(&|e| {
                for (add, remove) in &script[..=step] {
                    e.apply_edits(None, add, remove).unwrap();
                }
            });
            let got = inc.snapshot(None).unwrap();
            let want = fresh.snapshot(None).unwrap();
            assert_eq!(got.edge_count(), want.edge_count(), "step {step}");
            assert_eq!(got.tree.core_numbers(), want.tree.core_numbers(), "step {step}");
            assert_eq!(got.tree.max_core(), want.tree.max_core(), "step {step}");
            for q in ["A", "E", "H"] {
                let spec = QuerySpec::by_label(q).k(2);
                let gi = inc.search("acq", &spec).unwrap();
                let gf = fresh.search("acq", &spec).unwrap();
                assert_eq!(gi, gf, "step {step} query {q}");
            }
        }
    }
}

#[cfg(test)]
mod spatial_tests {
    use super::*;
    use crate::query::QuerySpec;
    use cx_datagen::figure5_graph;

    #[test]
    fn sac_requires_coordinates() {
        let e = Engine::with_graph("fig5", figure5_graph());
        // Without coordinates the sac algorithm returns nothing.
        let none = e.search("sac", &QuerySpec::by_label("A").k(2)).unwrap();
        assert!(none.is_empty());
        // Wrong coordinate count is rejected.
        assert!(matches!(
            e.set_coordinates(None, vec![(0.0, 0.0)]),
            Err(ExplorerError::BadQuery(_))
        ));
        // With coordinates the query answers: put the K4 near A and the
        // rest far away; the spatial community is the K4.
        let snap = e.snapshot(None).unwrap();
        let coords: Vec<(f64, f64)> = snap
            .vertices()
            .map(|v| if v.0 <= 3 { (v.0 as f64, 0.0) } else { (1000.0 + v.0 as f64, 0.0) })
            .collect();
        e.set_coordinates(None, coords).unwrap();
        let out = e.search("sac", &QuerySpec::by_label("A").k(2)).unwrap();
        assert_eq!(out.len(), 1);
        // The smallest disk around A with a 2-core is the A-B-C triangle
        // (the K4 minus its farthest vertex) — strictly tighter than the
        // full K4, and far from the distant vertices.
        assert_eq!(out[0].len(), 3);
        let snap = e.snapshot(None).unwrap();
        assert!(out[0].vertices().iter().all(|&v| v.0 <= 3), "{:?}", out[0].labels(&snap.graph));
        assert!(matches!(
            e.set_coordinates(Some("ghost"), vec![]),
            Err(ExplorerError::UnknownGraph(_))
        ));
    }
}
