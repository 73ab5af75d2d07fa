//! [`GraphSnapshot`]: one immutable, published version of a graph, and
//! the only owner of state derived from it — the [`Hierarchy`], the
//! [`GraphStats`] and the CD clusterings, each built lazily on first read,
//! kept for the snapshot's lifetime and never carried to a successor.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

use cx_cltree::{ClTree, Hierarchy, NodeId};
use cx_graph::{AttributedGraph, Community, GraphStats, VertexId};
use cx_layout::{layout_summary, Scene, SummaryItem};

use crate::api::GraphContext;
use crate::profile::ProfileStore;

/// One immutable, internally consistent version of a graph: contents,
/// index, and decorations all frozen at publish time. Cheap to share
/// (`Arc`), never mutated after construction — a reader holding one can
/// answer queries indefinitely while the engine publishes newer versions.
///
/// Dereferences to the [`AttributedGraph`] for convenience.
pub struct GraphSnapshot {
    pub(super) name: String,
    /// The graph contents.
    pub graph: Arc<AttributedGraph>,
    /// The CL-tree index built for exactly this graph version.
    pub tree: Arc<ClTree>,
    /// Vertex profiles (Figure 2 popups), in the compact interned column
    /// store. `Arc`-shared across snapshots: an edge edit republishes the
    /// same store, only `set_profiles` builds a new one.
    pub profiles: Arc<ProfileStore>,
    /// Per-graph monotone version number; exactly one snapshot is ever
    /// published per (graph, generation) pair.
    pub generation: u64,
    /// The multi-resolution summary hierarchy, built on first read. Tree
    /// node ids change across generations, so the snapshot is exactly
    /// its scope.
    hierarchy: OnceLock<Arc<Hierarchy>>,
    /// Whole-graph statistics, computed on first read.
    stats: OnceLock<GraphStats>,
    /// CD clusterings by the registration id of the algorithm that
    /// computed them. Re-registering a name issues a new id, so the
    /// replaced code's entries are never served again (they die with the
    /// snapshot). Filled by the engine's `detect`.
    clusterings: Mutex<HashMap<u64, Arc<Clustering>>>,
    /// Whether this snapshot bumped the live-snapshot gauge when built
    /// (observability could be toggled between construction and drop).
    gauge_counted: bool,
}

/// One CD algorithm's clustering of a snapshot: its communities plus,
/// per vertex, the index of the first community containing it
/// (`u32::MAX` for none), so "the cluster of `q`" is one lookup.
pub(crate) struct Clustering {
    pub(crate) communities: Vec<Community>,
    first: Vec<u32>,
}

impl Clustering {
    pub(crate) fn new(communities: Vec<Community>, vertex_count: usize) -> Self {
        let mut first = vec![u32::MAX; vertex_count];
        for (i, c) in communities.iter().enumerate().rev() {
            for &v in c.vertices() {
                first[v.index()] = i as u32;
            }
        }
        Self { communities, first }
    }

    /// The first community containing `v`, if any.
    pub(crate) fn cluster_of(&self, v: VertexId) -> Option<&Community> {
        self.communities.get(*self.first.get(v.index())? as usize)
    }
}

impl GraphSnapshot {
    pub(super) fn new(
        name: String,
        graph: Arc<AttributedGraph>,
        tree: Arc<ClTree>,
        profiles: Arc<ProfileStore>,
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
            generation,
            hierarchy: OnceLock::new(),
            stats: OnceLock::new(),
            clusterings: Mutex::default(),
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

    /// Whether the hierarchy slot has been filled (tests only).
    #[cfg(test)]
    pub(crate) fn hierarchy_is_built(&self) -> bool {
        self.hierarchy.get().is_some()
    }

    /// [`GraphStats`] of this snapshot's graph (an O(n + m) pass with a
    /// BFS and a degree sort), computed on first call and then shared.
    pub fn stats(&self) -> &GraphStats {
        self.stats.get_or_init(|| GraphStats::compute(&self.graph))
    }

    /// The clustering CD registration `id` computed for this snapshot,
    /// if it has.
    pub(crate) fn clustering(&self, id: u64) -> Option<Arc<Clustering>> {
        self.clusterings.lock().unwrap_or_else(|p| p.into_inner()).get(&id).cloned()
    }

    /// Memoises a freshly computed clustering and returns the one kept:
    /// when racing first builders both computed, the first to get here
    /// wins and the later result is dropped.
    pub(crate) fn keep_clustering(&self, id: u64, c: Clustering) -> Arc<Clustering> {
        let mut memo = self.clusterings.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(memo.entry(id).or_insert_with(|| Arc::new(c)))
    }

    /// The registry name this snapshot was published under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The algorithm-facing view of this snapshot.
    pub fn context(&self) -> GraphContext<'_> {
        GraphContext { graph: &self.graph, tree: &self.tree }
    }

    /// Scene for a multi-resolution level view: the level-`level`
    /// supernodes as disjoint bubbles (largest first, at most
    /// `max_nodes`). Level views have no inter-supernode edges by
    /// construction — see the hierarchy module docs.
    pub fn hierarchy_level_scene(&self, level: u32, max_nodes: usize) -> Scene {
        let h = self.hierarchy();
        let nodes = h.level_nodes(level);
        let shown = nodes.len().min(max_nodes.max(1));
        let items: Vec<SummaryItem> = nodes[..shown]
            .iter()
            .map(|&id| supernode_item(&self.graph, &h, id))
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
    pub fn hierarchy_expand_scene(&self, node: u32, max_nodes: usize) -> Option<Scene> {
        let h = self.hierarchy();
        let g = &self.graph;
        let ex = h.expand_bounded(g, &self.tree, node, max_nodes)?;

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
        let child_index: HashMap<NodeId, usize> = ex
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

        let s = h.stats(NodeId(node));
        let truncated = ex.truncated || ex.children.len() < ex.children_total;
        Some(layout_summary(&items, &links, 960.0, 600.0).titled(format!(
            "Supernode {node} (level {}) — {} residents, {} children{}",
            s.level,
            ex.residents.len(),
            ex.children.len(),
            if truncated { ", truncated" } else { "" }
        )))
    }
}

/// Summary-scene item for one supernode: labelled with level, subtree
/// size, and the dominant keyword when it has one.
fn supernode_item(g: &AttributedGraph, h: &Hierarchy, id: NodeId) -> SummaryItem {
    let s = h.stats(id);
    let kw = s.top_keywords.first().and_then(|&(w, _)| g.interner().name(w)).unwrap_or("");
    let label = if kw.is_empty() {
        format!("k{} | {}v", s.level, s.subtree_vertices)
    } else {
        format!("k{} | {}v | {kw}", s.level, s.subtree_vertices)
    };
    SummaryItem { id: id.0, label, size: s.subtree_vertices as f64, is_super: true }
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

#[cfg(test)]
mod snapshot_tests {
    use super::*;
    use crate::{Engine, QuerySpec};
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
