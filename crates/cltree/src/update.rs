//! Incremental CL-tree maintenance under edge edits.
//!
//! [`ClTree::update`] produces the index of the post-edit graph by
//! rebuilding only the *changed region* of the tree instead of repeating
//! the full bottom-up construction, and [`ClTree::unchanged_by`] says when
//! there is no changed region at all.
//!
//! ## When the tree cannot change
//!
//! A CL-tree is a function of the core numbers and, for every k, the
//! connected components of the k-core: its nodes are those components,
//! its residents the core numbers, its postings the (fixed) keyword sets
//! laid over the resulting preorder. Take an edit that removes no edge,
//! changes no core number, and adds only edges `(u, v)` whose endpoints
//! already share the connected k-core for `k = min(core u, core v)`. At
//! every level `k' ≤ k` both endpoints lie in one component already, so
//! the edge joins nothing; at every `k' > k` one endpoint is outside the
//! k'-core, so the edge is not in it. Every k-core keeps its vertex set
//! (the cores did not move) and its components, so the old tree *is* the
//! new one. Several added edges compose: cores only grow under insertion,
//! so if the final cores equal the old ones every intermediate graph's do
//! too, and each edge leaves the tree it is judged on unchanged. The
//! engine publishes such an edit with the old tree's `Arc`.
//!
//! ## The level threshold
//!
//! Let `L` be the maximum over:
//!
//! * `min(old_core(u), old_core(v))` for every effectively removed edge,
//! * `min(new_core(u), new_core(v))` for every effectively added edge,
//! * `max(old_core(v), new_core(v))` for every vertex whose core changed.
//!
//! For every `k > L` the old and new k-cores have identical vertex sets
//! (a vertex with a changed core has both cores ≤ L, so it is in neither
//! side's k-core; all others keep their membership) and identical induced
//! edge sets (every changed edge has an endpoint outside the k-core on
//! both sides). The bottom-up construction at levels above `L` therefore
//! makes exactly the same grouping, node-creation and chain-compression
//! decisions on both graphs — so every old node at level > `L` is carried
//! into the new tree verbatim, and only levels `L..=0` are re-swept.
//!
//! The sweep scans the edges of every vertex whose new core is ≤ `L`,
//! whether or not the edit came near it: O(vertices and edges at levels
//! ≤ L), not O(change).
//!
//! ## Laying out the repaired tree
//!
//! The repaired arena — carried nodes first, in their old order, then
//! the re-swept ones — is renumbered to preorder like a fresh build's
//! (`build::finish`), and the carried nodes' old child order is kept, as
//! their arena ids ascend in it. Numbering the ids and ranks stays a pass
//! over all nodes and vertices, and the new tree owns fresh copies of its
//! columns (`order`, `rank_of`, the postings): O(n + keyword occurrences)
//! of copying per edit. What no longer scales with the graph is the
//! *postings*: the old and new preorders agree outside one rank span, so
//! the old tree's postings are copied and only those inside the span are
//! moved, block by block (`build::patch_postings`) — O(postings in the
//! span + blocks + keywords), no scatter through the graph's keyword sets
//! and no sort.
//!
//! ## Fallback
//!
//! When an edit changes the core number of more than
//! [`ClTree::FALLBACK_CHANGED_FRACTION`] of all vertices, the carried
//! region is small and the sweep approaches a full build anyway — the
//! update falls back to [`ClTree::build_with_cores`] and bumps the
//! `cx_incremental_fallback_total` counter.

use std::collections::HashMap;

use cx_graph::delta::EdgeDelta;
use cx_graph::{AttributedGraph, VertexId};

use crate::build::{finish, sweep_levels};
use crate::node::{ClTreeNode, NodeId};
use crate::unionfind::UnionFind;
use crate::ClTree;

impl ClTree {
    /// Changed-core fraction above which [`ClTree::update`] abandons the
    /// incremental path and rebuilds from scratch.
    pub const FALLBACK_CHANGED_FRACTION: f64 = 0.25;

    /// True when `self` is provably also the CL-tree after `delta`, whose
    /// post-edit core numbers are `new_cores`: no edge is removed, no core
    /// number changes, and every added `(u, v)` already lies in one
    /// connected k-core for `k = min(core u, core v)` (see the module
    /// docs for the proof). Costs a core-vector comparison plus two walks
    /// up the tree per added edge; a caller that gets `true` can share
    /// `self` instead of calling [`ClTree::update`].
    pub fn unchanged_by(&self, delta: &EdgeDelta, new_cores: &[u32]) -> bool {
        delta.removed.is_empty()
            && self.core_numbers() == new_cores
            && delta.added.iter().all(|&(u, v)| {
                let k = self.core(u).min(self.core(v));
                self.subtree_root_for(u, k) == self.subtree_root_for(v, k)
            })
    }

    /// Builds the CL-tree of `g` — the post-edit graph `self` was indexed
    /// for, patched by `delta` — reusing every node of `self` at levels
    /// above the edit's reach. `new_cores` must be the core numbers of
    /// `g` (maintained by `cx_kcore::DynamicCore` in the engine).
    ///
    /// The result is structurally identical to `ClTree::build_with_cores
    /// (g, new_cores)` — same nodes, same nesting, same per-node residents
    /// and carriers. Its node ids are preorder positions too, but siblings
    /// may come in another order than a fresh build's, and with them ids
    /// and ranks. All query entry points are id-agnostic.
    pub fn update(&self, g: &AttributedGraph, delta: &EdgeDelta, new_cores: &[u32]) -> ClTree {
        let _span = cx_obs::span("cltree.update");
        let n = g.vertex_count();
        assert_eq!(self.core_numbers().len(), n, "edits are edge-only: vertex set fixed");
        assert_eq!(new_cores.len(), n, "core vector must cover every vertex");

        let old_cores = self.core_numbers();
        let changed = old_cores.iter().zip(new_cores).filter(|(o, n)| o != n).count();
        if n > 0 && changed as f64 / n as f64 > Self::FALLBACK_CHANGED_FRACTION {
            cx_obs::metrics::inc("cx_incremental_fallback_total");
            return Self::build_with_cores(g, new_cores);
        }

        // The level threshold L (see module docs). A non-empty delta always
        // yields L ≥ 1, because every effective edge has two endpoints of
        // core ≥ 1 on the side where it exists.
        let mut level = 0u32;
        for &(u, v) in &delta.removed {
            level = level.max(old_cores[u.index()].min(old_cores[v.index()]));
        }
        for &(u, v) in &delta.added {
            level = level.max(new_cores[u.index()].min(new_cores[v.index()]));
        }
        for (&o, &nc) in old_cores.iter().zip(new_cores) {
            if o != nc {
                level = level.max(o.max(nc));
            }
        }

        // Nothing preserved above L? The sweep would be a full rebuild —
        // use the from-scratch builder instead.
        if !self.iter_nodes().any(|(_, node)| node.level > level) {
            return Self::build_with_cores(g, new_cores);
        }

        // ---- Carry the untouched sub-forest (levels > L). ----
        // Preserved nodes open the arena in their old order; `remap`
        // translates old ids. Children of a preserved node are always at a
        // strictly higher level, hence preserved themselves, and so are
        // their residents: a vertex of new core > L kept its core and its
        // node. A preserved node whose parent is not gets one from the
        // sweep.
        let mut nodes: Vec<ClTreeNode> = Vec::new();
        let mut remap: Vec<Option<NodeId>> = vec![None; self.node_count()];
        for (old_id, node) in self.iter_nodes() {
            if node.level > level {
                remap[old_id.index()] = Some(NodeId(nodes.len() as u32));
                let parent = node.parent.and_then(|p| remap[p.index()]);
                nodes.push(ClTreeNode::new(node.level, parent));
            }
        }
        let mut node_of = vec![NodeId(u32::MAX); n];
        // Vertices whose node is being rebuilt, grouped by new core.
        let mut levels: Vec<Vec<VertexId>> = vec![Vec::new(); level as usize + 1];
        for v in g.vertices() {
            let c = new_cores[v.index()];
            if c <= level {
                levels[c as usize].push(v);
            } else {
                node_of[v.index()] = remap[self.node_of(v).index()].expect("node preserved");
            }
        }

        // ---- Re-sweep levels L..1 with a global anchored union-find. ----
        // Pre-union each carried top's subtree so the union-find starts in
        // exactly the state a fresh build reaches after processing the
        // levels above L: the components of the "min-core > L" edge
        // subgraph are precisely the carried subtrees. Each is one rank
        // interval of `self`; its smallest vertex leads the unions, which
        // makes it the representative and keeps node numbering what a
        // union over the sorted vertex list gives.
        let mut uf = UnionFind::new(n);
        let mut anchors: HashMap<u32, NodeId> = HashMap::new();
        for (old_id, node) in self.iter_nodes() {
            if node.level <= level || node.parent.is_some_and(|p| self.node(p).level > level) {
                continue;
            }
            let verts = &self.order()[self.subtree_ranks(old_id)];
            let lead = verts.iter().min().expect("a node above level 0 has residents").0;
            for &v in verts {
                uf.union(lead, v.0);
            }
            anchors.insert(uf.find(lead), remap[old_id.index()].expect("top preserved"));
        }
        sweep_levels(
            g,
            new_cores,
            &levels,
            |v| v.0,
            &mut uf,
            anchors,
            &mut nodes,
            |v, nid| node_of[v.index()] = nid,
        );
        finish(g, nodes, node_of, new_cores.to_vec(), Some(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_datagen::figure5_graph;
    use cx_graph::GraphBuilder;
    use cx_kcore::CoreDecomposition;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Applies a raw edit to `g`, recomputes cores from scratch (the
    /// engine uses DynamicCore; correctness there is tested separately),
    /// and returns (new graph, incrementally updated tree, fresh tree).
    fn step(
        g: &AttributedGraph,
        tree: &ClTree,
        add: &[(VertexId, VertexId)],
        remove: &[(VertexId, VertexId)],
    ) -> (AttributedGraph, ClTree, ClTree) {
        let delta = g.edge_delta(add, remove).unwrap();
        let g2 = g.apply_delta(&delta);
        let cores = CoreDecomposition::compute(&g2).core_numbers().to_vec();
        let updated = tree.update(&g2, &delta, &cores);
        let fresh = ClTree::build(&g2);
        (g2, updated, fresh)
    }

    /// Id-independent structural equality: recursive canonical encoding of
    /// (level, residents, children-as-multiset). Carriers are compared by
    /// `tests/columns.rs` and cx-check's `tree_canonical`.
    fn canon(t: &ClTree, id: NodeId) -> String {
        let node = t.node(id);
        let mut kids: Vec<String> = t.children(id).map(|c| canon(t, c)).collect();
        kids.sort();
        format!(
            "(l{} v{:?} [{}])",
            node.level,
            t.residents(id).iter().map(|x| x.0).collect::<Vec<_>>(),
            kids.join(",")
        )
    }

    fn assert_equivalent(updated: &ClTree, fresh: &ClTree) {
        assert_eq!(updated.core_numbers(), fresh.core_numbers());
        assert_eq!(updated.max_core(), fresh.max_core());
        assert_eq!(updated.node_count(), fresh.node_count());
        assert_eq!(canon(updated, updated.root()), canon(fresh, fresh.root()));
        // node_of is consistent with the arena.
        for vi in 0..updated.core_numbers().len() {
            let nid = updated.node_of(v(vi as u32));
            assert!(updated.residents(nid).contains(&v(vi as u32)));
        }
    }

    #[test]
    fn removing_a_clique_edge_updates_figure5() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        // Removing (A,B) collapses the 3-core: A..E all land at core 2.
        let (_, updated, fresh) = step(&g, &tree, &[], &[(v(0), v(1))]);
        assert_equivalent(&updated, &fresh);
        assert_eq!(updated.max_core(), 2);
    }

    #[test]
    fn adding_chords_updates_figure5() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        // (G,E) and (F,C) pull F and G into the 2-core.
        let ge = (v(6), v(4));
        let fc = (v(5), v(2));
        let (g2, updated, fresh) = step(&g, &tree, &[ge, fc], &[]);
        assert_equivalent(&updated, &fresh);
        assert_eq!(updated.core(v(5)), 2);
        assert_eq!(updated.core(v(6)), 2);

        // A second incremental step on top of the updated tree.
        let (_, updated2, fresh2) = step(&g2, &updated, &[(v(9), v(7))], &[ge]);
        assert_equivalent(&updated2, &fresh2);
    }

    #[test]
    fn carried_nodes_keep_their_residents_and_carriers() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        // Toggling H–I only reaches level 1: the {A,B,C,D} level-3 node
        // and the {E} level-2 node are carried.
        let delta = g.edge_delta(&[], &[(v(7), v(8))]).unwrap();
        let g2 = g.apply_delta(&delta);
        let cores = CoreDecomposition::compute(&g2).core_numbers().to_vec();
        let updated = tree.update(&g2, &delta, &cores);
        assert_equivalent(&updated, &ClTree::build(&g2));
        let x = g.interner().get("x").unwrap();
        for q in [v(0), v(4)] {
            let (old, new) = (tree.node_of(q), updated.node_of(q));
            assert_eq!(tree.residents(old), updated.residents(new));
            assert_eq!(tree.carrier_vertices(old, x), updated.carrier_vertices(new, x));
        }
    }

    #[test]
    fn merging_two_separate_cores_without_core_changes() {
        // Two disjoint triangles: connecting them by one edge changes no
        // core number, but the level-1 tree structure must merge — the
        // threshold rule (min new core of the added edge = 2... no: the
        // bridge endpoints keep core 2, so L = 2 and both triangle nodes
        // are rebuilt correctly).
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_vertex(&format!("v{i}"), &["k"]);
        }
        for (x, y) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(v(x), v(y));
        }
        let g = b.build();
        let tree = ClTree::build(&g);
        let (_, updated, fresh) = step(&g, &tree, &[(v(2), v(3))], &[]);
        assert_equivalent(&updated, &fresh);
        // And the reverse: splitting them again.
        let g2 = g.apply_delta(&g.edge_delta(&[(v(2), v(3))], &[]).unwrap());
        let cores2 = CoreDecomposition::compute(&g2).core_numbers().to_vec();
        let t2 = tree.update(&g2, &g.edge_delta(&[(v(2), v(3))], &[]).unwrap(), &cores2);
        let (_, updated3, fresh3) = step(&g2, &t2, &[], &[(v(2), v(3))]);
        assert_equivalent(&updated3, &fresh3);
    }

    #[test]
    fn isolating_and_reconnecting_a_vertex() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        // Strip H of its only edge: H and I join J at core 0.
        let (g2, updated, fresh) = step(&g, &tree, &[], &[(v(7), v(8))]);
        assert_equivalent(&updated, &fresh);
        assert_eq!(updated.core(v(7)), 0);
        // Reconnect J into the big component.
        let (_, updated2, fresh2) = step(&g2, &updated, &[(v(9), v(0))], &[]);
        assert_equivalent(&updated2, &fresh2);
    }

    #[test]
    fn fallback_rebuilds_and_counts() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        // Deleting the whole 4-clique changes 4+ cores out of 10 → > 25%.
        let before = cx_obs::global().counter("cx_incremental_fallback_total").get();
        let clique: Vec<_> =
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)].map(|(a, b)| (v(a), v(b))).into();
        let (_, updated, fresh) = step(&g, &tree, &[], &clique);
        assert_equivalent(&updated, &fresh);
        let after = cx_obs::global().counter("cx_incremental_fallback_total").get();
        assert_eq!(after, before + 1, "fallback must bump the counter");
    }

    #[test]
    fn long_random_script_stays_equivalent_to_fresh_builds() {
        let mut rng = cx_par::rng::Rng64::seed_from_u64(0xC1E);
        let n = 40u32;
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_vertex(&format!("v{i}"), if i % 3 == 0 { &["x", "y"][..] } else { &["y"][..] });
        }
        for _ in 0..70 {
            b.add_edge(v(rng.gen_range(0..n)), v(rng.gen_range(0..n)));
        }
        let mut g = b.build();
        let mut tree = ClTree::build(&g);
        for step_no in 0..120 {
            let mut add = Vec::new();
            let mut remove = Vec::new();
            for _ in 0..rng.gen_range(1..4u32) {
                let e = (v(rng.gen_range(0..n)), v(rng.gen_range(0..n)));
                if rng.gen_bool(0.5) {
                    add.push(e);
                } else {
                    remove.push(e);
                }
            }
            let delta = g.edge_delta(&add, &remove).unwrap();
            let g2 = g.apply_delta(&delta);
            let cores = CoreDecomposition::compute(&g2).core_numbers().to_vec();
            let updated = tree.update(&g2, &delta, &cores);
            let fresh = ClTree::build(&g2);
            assert_eq!(
                canon(&updated, updated.root()),
                canon(&fresh, fresh.root()),
                "divergence at script step {step_no}"
            );
            g = g2;
            tree = updated;
        }
    }
}
