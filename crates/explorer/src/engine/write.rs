//! The write path: per-graph gates, generation reservation, publish,
//! and every mutation (add / remove / upload, profiles, edge edits).

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cx_cltree::ClTree;
use cx_graph::{AttributedGraph, VertexId};

use super::{Engine, GraphSnapshot, Profile};
use crate::error::ExplorerError;
use crate::profile::ProfileStore;

/// Writer-only state protected by a graph's write gate. Holding the gate
/// *is* holding this state, so no extra synchronisation is needed.
///
/// `dyncore` is a warm [`cx_kcore::DynamicCore`] seeded from the snapshot
/// it was last advanced to; `dyncore_for` pins the identity of that graph
/// version. The cache is valid only when `dyncore_for` points at the graph
/// `Arc` currently published for this name — attribute-only republishes
/// (`set_profiles`) keep the same graph `Arc` so the
/// cache survives them, while `add_graph` / `upload` replace the graph and
/// naturally invalidate it. Comparing via `Weak::as_ptr` is ABA-safe
/// because the `Weak` itself keeps the old allocation's address reserved.
#[derive(Default)]
pub(super) struct WriteState {
    dyncore_for: std::sync::Weak<AttributedGraph>,
    dyncore: Option<cx_kcore::DynamicCore>,
}

impl Engine {
    /// The writer gate for `name` (created on first use, kept forever —
    /// an idle gate is a mutex plus an empty [`WriteState`], negligible
    /// to retain).
    pub(super) fn write_gate(&self, name: &str) -> Arc<Mutex<WriteState>> {
        let mut gates = self.write_gates.lock().unwrap_or_else(|p| p.into_inner());
        gates.entry(name.to_owned()).or_default().clone()
    }

    /// Claims the next generation for `name`. Strictly monotone per graph
    /// for the engine's lifetime (counters survive graph removal).
    pub(super) fn reserve_generation(&self, name: &str) -> u64 {
        let mut r = self.registry();
        let g = r.generations.entry(name.to_owned()).or_insert(0);
        *g += 1;
        *g
    }

    /// Publishes a finished snapshot: one map insert under the registry
    /// lock (the atomic swap), then cache maintenance off-lock. Readers
    /// holding the previous snapshot keep it alive through their `Arc`.
    pub(super) fn publish(&self, snap: GraphSnapshot) {
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
            generation,
        ));
        Ok(())
    }

    /// Applies a batch of edge edits to a graph — the evolving-network
    /// path (new co-authorships appear, stale ones are pruned).
    ///
    /// The edits are coalesced into an effective [`cx_graph::EdgeDelta`],
    /// the CSR adjacency is patched with [`AttributedGraph::apply_delta`]
    /// (attribute columns shared by `Arc`), core numbers are maintained
    /// subcore-locally by a warm [`cx_kcore::DynamicCore`] cached in the
    /// write gate, and the CL-tree is shared when
    /// [`ClTree::unchanged_by`] proves the edit cannot change it (counted
    /// in `cx_edit_tree_shared_total`) and repaired with
    /// [`ClTree::update`] otherwise (which itself falls back to a full
    /// rebuild when too many core numbers changed).
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
            // An edit the old tree provably still indexes publishes that
            // tree's `Arc`; any other repairs a copy.
            let tree = if snap.tree.unchanged_by(&delta, dc.core_numbers()) {
                cx_obs::metrics::inc("cx_edit_tree_shared_total");
                Arc::clone(&snap.tree)
            } else {
                Arc::new(snap.tree.update(&new_graph, &delta, dc.core_numbers()))
            };
            ws.dyncore_for = Arc::downgrade(&new_graph);
            ws.dyncore = Some(dc);
            (new_graph, tree)
        };
        let generation = self.reserve_generation(&name);
        self.log(&cx_store::Record::Edit { name: name.clone(), generation, delta })?;
        // Derived state is not carried: the successor's slots start empty
        // and fill on first read.
        self.publish(GraphSnapshot::new(
            name,
            new_graph,
            new_tree,
            Arc::clone(&snap.profiles),
            generation,
        ));
        cx_obs::metrics::observe_us("cx_edit_apply_us", start.elapsed().as_micros() as u64);
        Ok(())
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
        let before = e.snapshot(None).unwrap();
        e.apply_edits(None, &[], &[(a, b)]).unwrap();
        let after = e.snapshot(None).unwrap();
        // The edit must not deep-copy what it didn't touch: attribute
        // columns and the profile map are carried by pointer into the
        // successor snapshot.
        assert!(after.graph.shares_attributes_with(&before.graph));
        assert!(Arc::ptr_eq(&after.profiles, &before.profiles));
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
    fn the_writer_never_builds_the_hierarchy() {
        let e = Engine::with_graph("fig5", figure5_graph());
        let before = e.snapshot(None).unwrap();
        // A client has the hierarchy view open on the current snapshot.
        before.hierarchy();
        let (a, b) = (before.vertex_by_label("A").unwrap(), before.vertex_by_label("B").unwrap());
        e.apply_edits(None, &[], &[(a, b)]).unwrap();
        let next = e.snapshot(None).unwrap();
        assert!(!next.hierarchy_is_built(), "the edit must leave the successor's slot empty");
        // The first reader builds exactly what a from-scratch build gives.
        let want = cx_cltree::Hierarchy::build(&next.graph, &next.tree);
        let got = next.hierarchy();
        assert!(next.hierarchy_is_built());
        assert_eq!(got.max_level(), want.max_level());
        assert_eq!(got.node_count(), want.node_count());
        for id in (0..want.node_count() as u32).map(cx_cltree::NodeId) {
            assert_eq!(got.stats(id), want.stats(id), "supernode {id:?}");
        }
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
    fn a_same_component_insert_shares_the_tree() {
        // A 6-cycle is one connected 2-core. The chord 0–3 joins two of
        // its vertices and leaves every core at 2: the old tree is the
        // new one. Removing the chord again repairs a copy.
        let mut b = cx_graph::GraphBuilder::new();
        let v: Vec<VertexId> = (0..6).map(|i| b.add_vertex(&format!("c{i}"), &["k"])).collect();
        for i in 0..6 {
            b.add_edge(v[i], v[(i + 1) % 6]);
        }
        let e = Engine::with_graph("ring", b.build());
        let before = e.snapshot(None).unwrap();
        e.apply_edits(None, &[(v[0], v[3])], &[]).unwrap();
        let chord = e.snapshot(None).unwrap();
        assert!(!Arc::ptr_eq(&chord.graph, &before.graph));
        assert!(Arc::ptr_eq(&chord.tree, &before.tree), "the chord changes no tree node");
        assert_eq!(chord.edge_count(), 7);
        e.apply_edits(None, &[], &[(v[0], v[3])]).unwrap();
        let after = e.snapshot(None).unwrap();
        assert!(!Arc::ptr_eq(&after.tree, &chord.tree), "a removal is always repaired");
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
