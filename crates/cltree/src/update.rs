//! Incremental CL-tree maintenance under edge edits.
//!
//! [`ClTree::update`] produces the index of the post-edit graph by a
//! *contracted sweep*: the bottom-up construction of a fresh build, run
//! over the old tree's nodes instead of the graph's vertices wherever the
//! edit cannot have split a node. [`ClTree::unchanged_by`] says when there
//! is nothing to repair at all.
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
//! ## Which old nodes stay whole
//!
//! Write `S(X)` for the vertices of old node X's subtree: a connected
//! component of the old `level(X)`-core. A removed edge `(u, v)` with
//! `k = min(old core u, old core v)` lies inside `S(X)` exactly when X is
//! an ancestor-or-self of `u`'s node at a level ≤ k (then it holds `v`
//! too). Those nodes are *expanded*: the removal may split them. Every
//! other node is *intact*, and for an intact X:
//!
//! * no removed edge lies inside `S(X)`, so `S(X)` keeps every edge it
//!   had;
//! * no vertex of `S(X)` loses core: a vertex `w` of old core c keeps
//!   min degree ≥ c inside its old c-core component `S(node_of w)` unless
//!   a removed edge lies inside it, and then `node_of w` — and each of its
//!   ancestors, X among them — is expanded.
//!
//! So `S(X)` lies inside the new `level(X)`-core and is still connected
//! there. Inserts only merge components and raise cores, so an
//! insert-only edit expands nothing, and the expanded nodes of any edit
//! are closed under taking ancestors: an intact node's subtree is intact.
//!
//! ## The contracted sweep
//!
//! The union-find elements are every intact node, standing for its
//! residents whose core did not move, and every *individual* vertex: one
//! whose core changed, or a resident of an expanded node. Levels are
//! swept from the top down, as a build does; at level k:
//!
//! * each intact node of level k unions with its old children — its
//!   subtree is connected in the new k-core, which replaces every old
//!   edge inside it;
//! * each individual of new core k unions with its neighbours of new
//!   core ≥ k;
//! * two kinds of edge join at their lower endpoint's level, once the
//!   sweep reaches it: an edge from an individual to an intact neighbour
//!   of lower new core (found while sweeping the individual), and an
//!   added edge between two intact endpoints.
//!
//! Every edge of the new k-core is then accounted for at level k: an
//! edge with an individual endpoint by one of the last two rules, an old
//! edge between intact endpoints by the chain of child unions from its
//! lower endpoint's node (which holds the other endpoint in its subtree),
//! an added one by the bucket. Grouping, node creation and placement are
//! the build's own `build::sweep_levels`; an intact node counts as a
//! level-k resident only while one of its residents kept its core, so a
//! node whose every resident was promoted vanishes as a fresh build's
//! would. An insert sweeps one by one only the vertices whose core
//! moved, plus O(old nodes) of node work; a removal also sweeps every
//! resident of the nodes it expands, which are the big low-level nodes
//! near the root — the open half of ROADMAP item 10(a).
//!
//! ## Laying out the repaired tree
//!
//! The new arena is put in order of each node's smallest *old* rank over
//! its subtree before `build::finish` renumbers it to preorder, so
//! siblings keep their old order and the two preorders differ only
//! around the ranks that moved. Numbering the ids and ranks stays a pass
//! over all nodes and vertices, and the new tree owns fresh copies of its
//! columns (`order`, `rank_of`, the postings): O(n + keyword occurrences)
//! of copying per edit. The postings are the old tree's, copied list by
//! list with only the part inside the changed rank span moved block by
//! block (`build::patch_postings`) — no scatter through the graph's
//! keyword sets and no sort of postings.
//!
//! The number of individuals swept (core ≥ 1) is recorded per repair in
//! the `cx_edit_swept_vertices` histogram.
//!
//! ## No fallback
//!
//! The sweep is exact on any delta, however many core numbers it moves,
//! so `update` never hands over to [`ClTree::build_with_cores`]. An edit
//! that moves most cores sweeps most vertices one by one, which costs
//! about what a build does.

use cx_graph::delta::EdgeDelta;
use cx_graph::{AttributedGraph, VertexId};

use crate::build::{finish, sweep_levels};
use crate::node::{ClTreeNode, NodeId};
use crate::unionfind::UnionFind;
use crate::ClTree;

impl ClTree {
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
    /// for, patched by `delta` — by a contracted sweep over `self`'s
    /// nodes (see the module docs). `new_cores` must be the core numbers
    /// of `g` (maintained by `cx_kcore::DynamicCore` in the engine).
    ///
    /// The result is structurally identical to `ClTree::build_with_cores
    /// (g, new_cores)` — same nodes, same nesting, same per-node residents
    /// and carriers. Its node ids are preorder positions too, but siblings
    /// may come in another order than a fresh build's, and with them ids
    /// and ranks. All query entry points are id-agnostic.
    pub fn update(&self, g: &AttributedGraph, delta: &EdgeDelta, new_cores: &[u32]) -> ClTree {
        let _span = cx_obs::span("cltree.update");
        let n = g.vertex_count();
        let old_cores = self.core_numbers();
        assert_eq!(old_cores.len(), n, "edits are edge-only: vertex set fixed");
        assert_eq!(new_cores.len(), n, "core vector must cover every vertex");

        // The expanded nodes: for each removed edge, the ancestors-or-self
        // of its endpoints' nodes at levels ≤ min(old cores). A walk stops
        // at a node already marked, whose ancestors are marked too.
        let nn = self.node_count();
        let mut expanded = vec![false; nn];
        for &(u, v) in &delta.removed {
            let k = old_cores[u.index()].min(old_cores[v.index()]);
            for w in [u, v] {
                let mut at = Some(self.node_of(w));
                while let Some(x) = at {
                    let node = self.node(x);
                    if node.level <= k {
                        if expanded[x.index()] {
                            break;
                        }
                        expanded[x.index()] = true;
                    }
                    at = node.parent;
                }
            }
        }

        // One pass over the vertices. Union-find slots: intact node x is
        // slot x, individual vertex v is slot `nn + v`; `elem[v]` is v's
        // slot and new core, side by side for the sweep's neighbour scans.
        // `levels[k]` collects the elements holding level-k vertices —
        // here the individuals of new core k — and `promoted[x]` counts
        // node x's residents whose core moved.
        let mut levels: Vec<Vec<u32>> = vec![Vec::new(); self.max_core() as usize + 1];
        let mut promoted = vec![0u32; nn];
        let mut swept = 0u64;
        let mut elem: Vec<(u32, u32)> = Vec::with_capacity(n);
        for v in g.vertices() {
            let (x, c) = (self.node_of(v), new_cores[v.index()]);
            let moved = old_cores[v.index()] != c;
            if !moved && !expanded[x.index()] {
                elem.push((x.0, c));
                continue;
            }
            if moved {
                promoted[x.index()] += 1;
            }
            let s = (nn + v.index()) as u32;
            if c > 0 {
                if levels.len() <= c as usize {
                    levels.resize(c as usize + 1, Vec::new());
                }
                levels[c as usize].push(s);
                swept += 1;
            }
            elem.push((s, c));
        }
        cx_obs::metrics::observe_us("cx_edit_swept_vertices", swept);
        // The intact nodes per level, and among the level-k elements those
        // with a resident that kept its core.
        let top = levels.len() - 1;
        let mut intact: Vec<Vec<NodeId>> = vec![Vec::new(); top + 1];
        for (x, node) in self.iter_nodes() {
            if !expanded[x.index()] && node.level > 0 {
                intact[node.level as usize].push(x);
                if self.residents(x).len() as u32 > promoted[x.index()] {
                    levels[node.level as usize].push(x.0);
                }
            }
        }

        // Edges that join at their lower endpoint's level: added edges
        // between intact endpoints now, individual-to-intact edges as the
        // sweep finds them.
        let mut lower: Vec<Vec<(u32, u32)>> = vec![Vec::new(); top + 1];
        for &(a, b) in &delta.added {
            let ((sa, ca), (sb, cb)) = (elem[a.index()], elem[b.index()]);
            if (sa as usize) < nn && (sb as usize) < nn {
                lower[ca.min(cb) as usize].push((sa, sb));
            }
        }

        // The sweep. `node_of[v]` starts as v's old node and, for a placed
        // individual, becomes `nn +` its new node; `node_for[x]` is intact
        // node x's new node; `key[y]` the smallest old rank placed in new
        // node y.
        let mut nodes: Vec<ClTreeNode> = Vec::new();
        let mut node_of: Vec<NodeId> = g.vertices().map(|v| self.node_of(v)).collect();
        let mut node_for = vec![u32::MAX; nn];
        let mut key: Vec<u32> = Vec::new();
        sweep_levels(
            &levels,
            &mut UnionFind::new(nn + n),
            |k, uf| {
                for &x in &intact[k] {
                    for c in self.children(x) {
                        uf.union(x.0, c.0);
                    }
                }
                // An edge between two individuals of level k is scanned
                // from both ends; the one with the larger slot unions it.
                // (Every intact slot is below every individual's.)
                for &s in levels[k].iter().filter(|&&s| s as usize >= nn) {
                    for &u in g.neighbors(VertexId(s - nn as u32)) {
                        let (su, cu) = elem[u.index()];
                        if cu as usize > k || (cu as usize == k && su < s) {
                            uf.union(s, su);
                        } else if (cu as usize) < k && (su as usize) < nn {
                            lower[cu as usize].push((s, su));
                        }
                    }
                }
                for (a, b) in lower[k].drain(..) {
                    uf.union(a, b);
                }
            },
            &mut nodes,
            |s, nid| {
                let rank = if (s as usize) < nn {
                    node_for[s as usize] = nid.0;
                    let kept = |&r: &usize| {
                        let w = self.order()[r].index();
                        old_cores[w] == new_cores[w]
                    };
                    let mut ranks = self.node(NodeId(s)).resident_ranks();
                    ranks.find(kept).expect("a placed intact node kept a resident") as u32
                } else {
                    let v = VertexId(s - nn as u32);
                    node_of[v.index()] = NodeId(nn as u32 + nid.0);
                    self.rank_of(v)
                };
                if key.len() <= nid.index() {
                    key.resize(nid.index() + 1, u32::MAX);
                }
                key[nid.index()] = key[nid.index()].min(rank);
            },
        );

        // A parent is created after its children, so one ascending pass
        // carries every subtree's smallest old rank up to its root. The
        // arena is then put in key order: siblings have disjoint subtrees,
        // hence distinct keys, and `finish` orders them by arena id.
        key.resize(nodes.len(), u32::MAX);
        for x in 0..nodes.len() {
            if let Some(p) = nodes[x].parent {
                key[p.index()] = key[p.index()].min(key[x]);
            }
        }
        let mut by_key: Vec<u32> = (0..nodes.len() as u32).collect();
        by_key.sort_unstable_by_key(|&x| key[x as usize]);
        let mut pos = vec![0u32; nodes.len()];
        for (i, &x) in by_key.iter().enumerate() {
            pos[x as usize] = i as u32;
        }
        let arena: Vec<ClTreeNode> = by_key
            .iter()
            .map(|&x| {
                let node = &nodes[x as usize];
                ClTreeNode::new(node.level, node.parent.map(|p| NodeId(pos[p.index()])))
            })
            .collect();
        // Every vertex of core ≥ 1 to its final arena node: an individual
        // was placed itself, any other sits in its intact node's new node.
        // Core-0 vertices map to `u32::MAX`; `finish` places them.
        let to: Vec<u32> = node_for
            .iter()
            .map(|&y| pos.get(y as usize).copied().unwrap_or(u32::MAX))
            .chain(pos.iter().copied())
            .collect();
        for nid in &mut node_of {
            *nid = NodeId(to[nid.index()]);
        }
        finish(g, arena, node_of, new_cores.to_vec(), Some(self))
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
    fn deleting_a_clique_that_moves_most_cores_matches_a_fresh_build() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        // Deleting the whole 4-clique moves at least four of the ten core
        // numbers (A–D's): a large delta, swept like any other.
        let clique: Vec<_> =
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)].map(|(a, b)| (v(a), v(b))).into();
        let (_, updated, fresh) = step(&g, &tree, &[], &clique);
        assert_equivalent(&updated, &fresh);
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

    /// A graph of `n` keyword-free vertices and the given edges.
    fn graph(n: u32, edges: &[(u32, u32)]) -> AttributedGraph {
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_vertex(&format!("v{i}"), &["k"]);
        }
        for &(x, y) in edges {
            b.add_edge(v(x), v(y));
        }
        b.build()
    }

    /// Every edge among `ids`.
    fn clique(ids: &[u32]) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (i, &x) in ids.iter().enumerate() {
            out.extend(ids[i + 1..].iter().map(|&y| (x, y)));
        }
        out
    }

    #[test]
    fn a_two_level_batch_joins_an_intact_node_at_the_lower_level() {
        // C = K4 (0..4) and D = K5 (4..9) hang off m = 9 (core 2); x = 10
        // touches C twice (core 2). One batch joins x to four of D: x
        // rises to core 4 inside D, and C meets D ∪ {x} at level 3 only
        // through x's edges to C — edges from an individual (x) to an
        // intact node of lower core, which must join at level 3.
        let (m, x) = (9, 10);
        let mut edges = clique(&[0, 1, 2, 3]);
        edges.extend(clique(&[4, 5, 6, 7, 8]));
        edges.extend([(m, 0), (m, 4), (x, 2), (x, 3)]);
        let g = graph(11, &edges);
        let tree = ClTree::build(&g);
        assert_eq!((tree.core(v(m)), tree.core(v(x))), (2, 2));
        let add: Vec<_> = (4..8).map(|d| (v(x), v(d))).collect();
        let (_, updated, fresh) = step(&g, &tree, &add, &[]);
        assert_equivalent(&updated, &fresh);
        assert_eq!((updated.core(v(m)), updated.core(v(x))), (2, 4));
        let three_core = updated.connected_k_core(v(0), 3).unwrap();
        assert_eq!(three_core, (0..9).chain([x]).map(v).collect::<Vec<_>>());
    }

    #[test]
    fn a_node_whose_every_resident_is_promoted_vanishes() {
        // C = K4 (0..4) under x = 4 (core 2, touching c0 and c1) under a
        // pendant p = 5 (core 1): nodes at levels 1, 2, 3. Joining x to c2
        // lifts it into C's 3-core, so the level-2 node keeps no resident
        // and, with one child left, must not be rebuilt.
        let mut edges = clique(&[0, 1, 2, 3]);
        edges.extend([(4, 0), (4, 1), (5, 4)]);
        let g = graph(6, &edges);
        let tree = ClTree::build(&g);
        assert_eq!(tree.node_count(), 3);
        let (_, updated, fresh) = step(&g, &tree, &[(v(4), v(2))], &[]);
        assert_equivalent(&updated, &fresh);
        assert_eq!(updated.node_count(), 2);
        assert!(updated.iter_nodes().all(|(_, node)| node.level != 2));
    }

    #[test]
    fn a_mixed_batch_repairs_a_removal_and_a_promotion_in_another_component() {
        // A = K5 (0..5) and B = K4 (5..9) with y = 9 touching b0 and b1.
        // One batch drops an edge of A (all of A falls to core 3, so A's
        // nodes are expanded) and joins y to b2 (y rises into B's 3-core,
        // while B's nodes stay intact). Thirty vertices are isolated.
        let mut edges = clique(&[0, 1, 2, 3, 4]);
        edges.extend(clique(&[5, 6, 7, 8]));
        edges.extend([(9, 5), (9, 6)]);
        let g = graph(40, &edges);
        let tree = ClTree::build(&g);
        let (g2, updated, fresh) = step(&g, &tree, &[(v(9), v(7))], &[(v(0), v(1))]);
        assert_equivalent(&updated, &fresh);
        assert!((0..5).all(|a| updated.core(v(a)) == 3));
        assert_eq!(updated.core(v(9)), 3);
        assert_eq!(updated.connected_k_core(v(9), 3).unwrap().len(), 5);
        // And back: the removal half now sits in B, the promotion in A.
        let (_, updated2, fresh2) = step(&g2, &updated, &[(v(0), v(1))], &[(v(9), v(7))]);
        assert_equivalent(&updated2, &fresh2);
        assert_eq!(updated2.core(v(0)), 4);
    }
}
