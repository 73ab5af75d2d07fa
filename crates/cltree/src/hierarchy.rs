//! Multi-resolution hierarchy derived from the CL-tree.
//!
//! At paper scale (10⁶ vertices) no client can render the raw graph, and
//! even a single community can be too large for a first look. This module
//! turns the CL-tree into a browsable **summary hierarchy**: every tree
//! node doubles as a *supernode* standing for its whole subtree, carrying
//! aggregated statistics (subtree size, edge counts, degree stats, top
//! keywords), and a *level-k view* of the graph shows the connected
//! components of the k-core as at most one supernode each. Clients start
//! coarse and drill down by expanding one supernode at a time.
//!
//! ## Edge ownership
//!
//! The crucial structural fact (a direct consequence of core laminarity):
//! **two distinct supernodes of the same level never share an edge.** An
//! edge `{u, v}` with `core(u) ≤ core(v)` lies inside the
//! `core(u)`-core, so both endpoints sit in the *same* connected
//! component of it — which is exactly the CL-tree node of `u`. Hence
//! `node_of(u)` is an ancestor-or-self of `node_of(v)`, and we say the
//! edge is **owned** by the shallower node `node_of(u)`. Every owned edge
//! has at least one endpoint *resident* in its owner.
//!
//! This gives the hierarchy clean semantics with zero double counting:
//!
//! * a level-k view has no inter-supernode edges at all (components!);
//! * expanding a supernode `P` reveals its resident vertices, its child
//!   supernodes, the resident–resident edges owned by `P`, and weighted
//!   links from each resident into the child subtrees — nothing else;
//! * recursively expanding everything therefore reproduces the exact
//!   vertex set and edge multiset, which `cx-check` verifies as an
//!   oracle.

use std::collections::HashMap;

use cx_graph::{AttributedGraph, KeywordId, VertexId};

use crate::build::ClTree;
use crate::node::NodeId;

/// How many top keywords each supernode keeps.
pub const TOP_KEYWORDS: usize = 8;

/// Aggregated statistics for one supernode (one CL-tree node standing for
/// its whole subtree).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupernodeStats {
    /// The CL-tree level (k of the k-core component).
    pub level: u32,
    /// Parent supernode, `None` for the root.
    pub parent: Option<NodeId>,
    /// Vertices resident in this node (core number == level).
    pub residents: u32,
    /// Total vertices in the subtree (this supernode's "size").
    pub subtree_vertices: u32,
    /// Edges owned by this node (see module docs on ownership).
    pub owned_edges: u64,
    /// Total edges with both endpoints inside the subtree.
    pub subtree_edges: u64,
    /// Sum of graph degrees over subtree vertices.
    pub sum_degree: u64,
    /// Maximum graph degree over subtree vertices.
    pub max_degree: u32,
    /// Up to [`TOP_KEYWORDS`] most frequent keywords in the subtree,
    /// `(keyword, occurrence count)`, count-descending then id-ascending.
    pub top_keywords: Vec<(KeywordId, u32)>,
}

/// The expansion of one supernode: what a client sees after clicking it.
#[derive(Debug, Clone)]
pub struct Expansion {
    /// The expanded supernode.
    pub node: NodeId,
    /// Listed resident vertices, ascending by id. When the node has more
    /// residents than the cap, the highest-degree ones are listed.
    pub residents: Vec<VertexId>,
    /// True when residents were dropped to meet the cap.
    pub truncated: bool,
    /// Child supernodes: all of them in tree order from
    /// [`Hierarchy::expand`]; the largest that fit the budget, largest
    /// first, from [`Hierarchy::expand_bounded`].
    pub children: Vec<NodeId>,
    /// How many children the node has, whatever the budget kept.
    pub children_total: usize,
    /// Resident–resident edges among *listed* residents.
    pub internal_edges: Vec<(VertexId, VertexId)>,
    /// Weighted links `(resident, child supernode, #edges)` from listed
    /// residents into child subtrees, sorted by `(resident, child)`.
    pub child_links: Vec<(VertexId, NodeId, u32)>,
}

/// The summary hierarchy: per-supernode aggregates over one `(graph,
/// CL-tree)` pair. Node ids are the tree's [`NodeId`]s, so tree queries
/// and hierarchy stats compose directly.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    stats: Vec<SupernodeStats>,
    max_level: u32,
}

impl Hierarchy {
    /// Builds the hierarchy for `g` and its CL-tree: one O(m) edge
    ///-ownership scan, one post-order aggregation sweep, and each
    /// subtree's top keywords counted straight from the tree's columns.
    pub fn build(g: &AttributedGraph, tree: &ClTree) -> Self {
        let _span = cx_obs::span("cltree.hierarchy.build");
        let mut stats: Vec<SupernodeStats> = tree
            .iter_nodes()
            .map(|(id, n)| SupernodeStats {
                level: n.level,
                parent: n.parent,
                residents: tree.residents(id).len() as u32,
                subtree_vertices: tree.subtree_ranks(id).len() as u32,
                owned_edges: 0,
                subtree_edges: 0,
                sum_degree: 0,
                max_degree: 0,
                top_keywords: Vec::new(),
            })
            .collect();

        // Edge-ownership scan: every undirected edge counted once at the
        // node of its smaller-core endpoint (see module docs).
        for v in g.vertices() {
            let cv = tree.core(v);
            for &u in g.neighbors(v) {
                let cu = tree.core(u);
                // Count once: strictly smaller core owns outright; on a
                // core tie both endpoints share a node, so take v < u.
                if cv < cu || (cv == cu && v < u) {
                    stats[tree.node_of(v).index()].owned_edges += 1;
                }
            }
        }

        // One walk, children before parents (an explicit stack keeps us
        // safe on adversarially deep trees), aggregating the degree and
        // edge columns from the children's and counting keywords in a
        // dense per-vocabulary tally. A node's *largest* child is walked
        // last and leaves its counts in the tally; the node then adds only
        // what lies outside that child — its residents and its other
        // children's subtrees, two contiguous runs of `order` — so a
        // vertex is re-counted once per smaller-sibling step on its path
        // to the root (at most log n times) instead of once per ancestor.
        let order = tree.order();
        let mut tally = KeywordTally { counts: vec![0; tree.keyword_count()], present: Vec::new() };
        enum Step {
            Enter(NodeId, bool),
            Exit(NodeId, bool, Option<NodeId>),
        }
        let mut stack = vec![Step::Enter(tree.root(), false)];
        while let Some(step) = stack.pop() {
            let (nid, keep, largest) = match step {
                Step::Enter(nid, keep) => {
                    let kids = &tree.node(nid).children;
                    let largest =
                        kids.iter().copied().max_by_key(|&c| tree.subtree_ranks(c).len());
                    stack.push(Step::Exit(nid, keep, largest));
                    stack.extend(largest.map(|c| Step::Enter(c, true)));
                    stack.extend(
                        kids.iter().filter(|&&c| Some(c) != largest).map(|&c| Step::Enter(c, false)),
                    );
                    continue;
                }
                Step::Exit(nid, keep, largest) => (nid, keep, largest),
            };
            let i = nid.index();
            let mut sub_e = stats[i].owned_edges;
            let mut sum_d = 0u64;
            let mut max_d = 0u32;
            for &v in tree.residents(nid) {
                let d = g.degree(v) as u64;
                sum_d += d;
                max_d = max_d.max(d as u32);
            }
            for &c in &tree.node(nid).children {
                let cs = &stats[c.index()];
                sub_e += cs.subtree_edges;
                sum_d += cs.sum_degree;
                max_d = max_d.max(cs.max_degree);
            }
            stats[i].subtree_edges = sub_e;
            stats[i].sum_degree = sum_d;
            stats[i].max_degree = max_d;

            let span = tree.subtree_ranks(nid);
            let counted = largest.map_or(span.start..span.start, |c| tree.subtree_ranks(c));
            tally.add(g, &order[span.start..counted.start]);
            tally.add(g, &order[counted.end..span.end]);
            stats[i].top_keywords = tally.top();
            if !keep {
                tally.clear();
            }
        }

        Self { stats, max_level: tree.max_core() }
    }

    /// The hierarchy of the post-edit `(g, tree)`: exactly
    /// [`Hierarchy::build`] — the previous tree and hierarchy are unused.
    /// The engine no longer calls this (a snapshot builds its hierarchy
    /// lazily on first read); it stays because the `benchmark/` crate's
    /// `cltree.hierarchy_update_ms` probe calls it.
    pub fn update(
        g: &AttributedGraph,
        tree: &ClTree,
        _prev_tree: &ClTree,
        _prev: &Hierarchy,
    ) -> Self {
        Self::build(g, tree)
    }

    /// The deepest level at which any supernode exists.
    #[inline]
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Number of supernodes (== CL-tree nodes).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.stats.len()
    }

    /// Aggregates of one supernode.
    #[inline]
    pub fn stats(&self, id: NodeId) -> &SupernodeStats {
        &self.stats[id.index()]
    }

    /// The supernodes of the level-`k` view: the maximal subtrees of
    /// level ≥ k, i.e. the connected components of the k-core (for k = 0,
    /// the single root). Ordered by subtree size descending, then id —
    /// so callers can take a prefix as "the N largest communities".
    pub fn level_nodes(&self, k: u32) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .stats
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.level >= k
                    && match s.parent {
                        None => true,
                        Some(p) => self.stats[p.index()].level < k,
                    }
            })
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        out.sort_unstable_by_key(|&id| {
            (u32::MAX - self.stats[id.index()].subtree_vertices, id.0)
        });
        out
    }

    /// Expands supernode `id`: listed residents (all of them, or the
    /// `max_residents` highest-degree ones), child supernodes, owned
    /// resident–resident edges, and weighted resident→child links. See
    /// the module docs for why this is the complete edge picture.
    pub fn expand(
        &self,
        g: &AttributedGraph,
        tree: &ClTree,
        id: NodeId,
        max_residents: usize,
    ) -> Expansion {
        let node = tree.node(id);
        let level = node.level;

        let mut residents: Vec<VertexId> = tree.residents(id).to_vec();
        let truncated = residents.len() > max_residents;
        if truncated {
            residents.sort_unstable_by_key(|&v| (usize::MAX - g.degree(v), v.0));
            residents.truncate(max_residents);
            residents.sort_unstable();
        }

        let listed: std::collections::HashSet<VertexId> = residents.iter().copied().collect();
        let mut internal_edges = Vec::new();
        let mut links: HashMap<(VertexId, NodeId), u32> = HashMap::new();
        for &u in &residents {
            for &v in g.neighbors(u) {
                let cv = tree.core(v);
                if cv < level {
                    continue; // owned by an ancestor's view
                }
                if tree.node_of(v) == id {
                    if u < v && listed.contains(&v) {
                        internal_edges.push((u, v));
                    }
                    continue;
                }
                // v lives strictly below: attribute the edge to the child
                // subtree containing it.
                let child = child_containing(tree, id, v);
                *links.entry((u, child)).or_insert(0) += 1;
            }
        }
        internal_edges.sort_unstable();
        let mut child_links: Vec<(VertexId, NodeId, u32)> =
            links.into_iter().map(|((u, c), w)| (u, c, w)).collect();
        child_links.sort_unstable_by_key(|&(u, c, _)| (u, c));

        Expansion {
            node: id,
            residents,
            truncated,
            children: node.children.clone(),
            children_total: node.children.len(),
            internal_edges,
            child_links,
        }
    }

    /// [`Hierarchy::expand`] under one node budget — the drill-down
    /// policy every serving surface shares: residents take at most half
    /// of `budget`, the children are cut largest-first to what remains
    /// (never below one), and links to dropped children are dropped with
    /// them. `None` when `node` is not a node of this hierarchy (a stale
    /// id from another generation).
    pub fn expand_bounded(
        &self,
        g: &AttributedGraph,
        tree: &ClTree,
        node: u32,
        budget: usize,
    ) -> Option<Expansion> {
        if node as usize >= self.node_count() {
            return None;
        }
        let budget = budget.max(2);
        let mut ex = self.expand(g, tree, NodeId(node), budget / 2);
        ex.children
            .sort_unstable_by_key(|&c| (u32::MAX - self.stats(c).subtree_vertices, c.0));
        ex.children.truncate(budget.saturating_sub(ex.residents.len()).max(1));
        if ex.children.len() < ex.children_total {
            let kept: std::collections::HashSet<NodeId> = ex.children.iter().copied().collect();
            ex.child_links.retain(|(_, c, _)| kept.contains(c));
        }
        Some(ex)
    }

    /// All edges owned by supernode `id`, as explicit vertex pairs. Each
    /// graph edge is owned by exactly one node, so concatenating this
    /// over all nodes reproduces the exact edge multiset — the
    /// reconstruction oracle in `cx-check` relies on this.
    pub fn owned_edge_list(
        &self,
        g: &AttributedGraph,
        tree: &ClTree,
        id: NodeId,
    ) -> Vec<(VertexId, VertexId)> {
        let level = tree.node(id).level;
        let mut out = Vec::new();
        for &u in tree.residents(id) {
            for &v in g.neighbors(u) {
                let cv = tree.core(v);
                if cv > level || (cv == level && u < v) {
                    out.push((u.min(v), u.max(v)));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.stats.capacity() * size_of::<SupernodeStats>()
            + self
                .stats
                .iter()
                .map(|s| s.top_keywords.len() * size_of::<(KeywordId, u32)>())
                .sum::<usize>()
    }
}

/// The child of `p` whose subtree contains `v`. Panics if `p` is not a
/// proper ancestor of `v`'s node — callers establish that via the edge
/// -ownership argument.
fn child_containing(tree: &ClTree, p: NodeId, v: VertexId) -> NodeId {
    let mut cur = tree.node_of(v);
    loop {
        match tree.node(cur).parent {
            Some(parent) if parent == p => return cur,
            Some(parent) => cur = parent,
            None => panic!("vertex {v:?} is not below supernode {p:?}"),
        }
    }
}

/// Keyword occurrence counts of the vertices added so far: a dense
/// per-vocabulary counter plus the list of keywords it holds, so reading
/// and clearing cost what was counted, not the vocabulary.
struct KeywordTally {
    counts: Vec<u32>,
    present: Vec<KeywordId>,
}

impl KeywordTally {
    fn add(&mut self, g: &AttributedGraph, vertices: &[VertexId]) {
        for &v in vertices {
            for &w in g.keywords(v) {
                if self.counts[w.index()] == 0 {
                    self.present.push(w);
                }
                self.counts[w.index()] += 1;
            }
        }
    }

    /// The top-[`TOP_KEYWORDS`] entries by `(count desc, keyword id asc)`.
    fn top(&self) -> Vec<(KeywordId, u32)> {
        let mut all: Vec<(KeywordId, u32)> =
            self.present.iter().map(|&w| (w, self.counts[w.index()])).collect();
        let key = |&(w, c): &(KeywordId, u32)| (u32::MAX - c, w);
        if all.len() > TOP_KEYWORDS {
            all.select_nth_unstable_by_key(TOP_KEYWORDS, key);
            all.truncate(TOP_KEYWORDS);
        }
        all.sort_unstable_by_key(key);
        all
    }

    fn clear(&mut self) {
        for w in self.present.drain(..) {
            self.counts[w.index()] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_datagen::figure5_graph;
    use cx_graph::GraphBuilder;

    fn edge_multiset(g: &AttributedGraph) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::new();
        for v in g.vertices() {
            for &u in g.neighbors(v) {
                if v < u {
                    out.push((v, u));
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn figure5_aggregates() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        let h = Hierarchy::build(&g, &t);
        assert_eq!(h.node_count(), t.node_count());
        assert_eq!(h.max_level(), 3);

        // Root covers everything.
        let root = h.stats(t.root());
        assert_eq!(root.subtree_vertices as usize, g.vertex_count());
        assert_eq!(root.subtree_edges as usize, g.edge_count());

        // The {A,B,C,D} node is a K4: 4 vertices, 6 owned edges.
        let a = g.vertex_by_label("A").unwrap();
        let abcd = t.node_of(a);
        let s = h.stats(abcd);
        assert_eq!(s.level, 3);
        assert_eq!(s.residents, 4);
        assert_eq!(s.subtree_vertices, 4);
        assert_eq!(s.owned_edges, 6);
        assert_eq!(s.subtree_edges, 6);
        assert!(!s.top_keywords.is_empty());
        // x is carried by A,B,C,D — the top keyword of that subtree.
        let x = g.interner().get("x").unwrap();
        assert_eq!(s.top_keywords[0], (x, 4));
    }

    #[test]
    fn ownership_partitions_the_edge_multiset() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        let h = Hierarchy::build(&g, &t);
        let mut owned = Vec::new();
        let mut owned_total = 0u64;
        for (id, _) in t.iter_nodes() {
            owned.extend(h.owned_edge_list(&g, &t, id));
            owned_total += h.stats(id).owned_edges;
        }
        owned.sort_unstable();
        assert_eq!(owned, edge_multiset(&g));
        assert_eq!(owned_total as usize, g.edge_count());
    }

    #[test]
    fn level_views_are_kcore_components() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        let h = Hierarchy::build(&g, &t);

        // Level 0: exactly the root.
        assert_eq!(h.level_nodes(0), vec![t.root()]);
        // Level 1: two components — ABCDEFG (7 vertices) and HI (2).
        let l1 = h.level_nodes(1);
        assert_eq!(l1.len(), 2);
        let sizes: Vec<u32> = l1.iter().map(|&n| h.stats(n).subtree_vertices).collect();
        assert_eq!(sizes, vec![7, 2]); // size-descending order
        // Level 3: the K4 alone.
        let l3 = h.level_nodes(3);
        assert_eq!(l3.len(), 1);
        assert_eq!(h.stats(l3[0]).subtree_vertices, 4);
        // Beyond max level: nothing.
        assert!(h.level_nodes(4).is_empty());
    }

    #[test]
    fn expansion_reveals_residents_children_and_links() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        let h = Hierarchy::build(&g, &t);
        let label = |l: &str| g.vertex_by_label(l).unwrap();

        // Expand the level-2 node {E}: one resident, one child (K4), and
        // E's two edges into the K4 (E–C, E–D per Figure 5) as one
        // weighted link.
        let e_node = t.node_of(label("E"));
        let ex = h.expand(&g, &t, e_node, 100);
        assert_eq!(ex.residents, vec![label("E")]);
        assert!(!ex.truncated);
        assert_eq!(ex.children.len(), 1);
        assert!(ex.internal_edges.is_empty());
        assert_eq!(ex.child_links.len(), 1);
        let (u, c, w) = ex.child_links[0];
        assert_eq!(u, label("E"));
        assert_eq!(c, ex.children[0]);
        assert_eq!(w as usize, {
            // E's neighbours inside the K4.
            g.neighbors(label("E")).iter().filter(|&&v| t.core(v) == 3).count()
        });
    }

    #[test]
    fn expansion_truncates_by_degree() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        let h = Hierarchy::build(&g, &t);
        let a = g.vertex_by_label("A").unwrap();
        let abcd = t.node_of(a);
        let ex = h.expand(&g, &t, abcd, 2);
        assert!(ex.truncated);
        assert_eq!(ex.residents.len(), 2);
        // Internal edges only among listed residents.
        assert!(ex.internal_edges.iter().all(|(u, v)| {
            ex.residents.contains(u) && ex.residents.contains(v)
        }));
    }

    #[test]
    fn bounded_expansion_keeps_the_largest_children_and_rejects_stale_ids() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        let h = Hierarchy::build(&g, &t);
        // The root lists J and has two children; a budget of two leaves
        // room for J and the larger child only.
        let ex = h.expand_bounded(&g, &t, t.root().0, 2).unwrap();
        assert_eq!(ex.residents.len(), 1);
        assert_eq!(ex.children_total, 2);
        assert_eq!(ex.children.len(), 1);
        assert_eq!(h.stats(ex.children[0]).subtree_vertices, 7);
        assert!(ex.child_links.iter().all(|(_, c, _)| ex.children.contains(c)));
        // With room for everything, nothing is cut.
        assert_eq!(h.expand_bounded(&g, &t, t.root().0, 10).unwrap().children.len(), 2);
        // The last node id answers; the one after it does not exist.
        let n = h.node_count() as u32;
        assert!(h.expand_bounded(&g, &t, n - 1, 10).is_some());
        assert!(h.expand_bounded(&g, &t, n, 10).is_none());
    }

    #[test]
    fn update_on_an_updated_tree_matches_a_fresh_world() {
        // Supernode aggregates, node ids aside (an updated tree numbers
        // its nodes differently from a fresh build).
        fn columns(t: &ClTree, h: &Hierarchy) -> Vec<String> {
            let mut out: Vec<String> = t
                .iter_nodes()
                .map(|(id, _)| {
                    let s = SupernodeStats { parent: None, ..h.stats(id).clone() };
                    format!("{:?} {s:?}", t.residents(id))
                })
                .collect();
            out.sort();
            out
        }
        let g = figure5_graph();
        let t = ClTree::build(&g);
        let h = Hierarchy::build(&g, &t);
        let label = |l: &str| g.vertex_by_label(l).unwrap();
        // Dropping H–I sends both to the root and carries {A,B,C,D} and
        // {E} over; joining H to E instead reshapes level 1.
        for (add, remove) in [
            (vec![], vec![(label("H"), label("I"))]),
            (vec![(label("E"), label("H"))], vec![]),
            (vec![], vec![]),
        ] {
            let delta = g.edge_delta(&add, &remove).unwrap();
            let g2 = g.apply_delta(&delta);
            let cores = cx_kcore::CoreDecomposition::compute(&g2).core_numbers().to_vec();
            let t2 = t.update(&g2, &delta, &cores);
            let h2 = Hierarchy::update(&g2, &t2, &t, &h);
            let fresh = ClTree::build(&g2);
            assert_eq!(columns(&t2, &h2), columns(&fresh, &Hierarchy::build(&g2, &fresh)));
            let root = h2.stats(t2.root());
            assert_eq!(root.subtree_vertices as usize, g2.vertex_count());
            assert_eq!(root.subtree_edges as usize, g2.edge_count());
        }
    }

    #[test]
    fn top_keywords_match_a_per_subtree_count() {
        let (g, _) = cx_datagen::dblp_like(&cx_datagen::DblpParams::scaled(600, 5));
        let t = ClTree::build(&g);
        let h = Hierarchy::build(&g, &t);
        for (id, _) in t.iter_nodes() {
            let mut counts: HashMap<KeywordId, u32> = HashMap::new();
            for &v in &t.order()[t.subtree_ranks(id)] {
                for &w in g.keywords(v) {
                    *counts.entry(w).or_insert(0) += 1;
                }
            }
            let mut want: Vec<(KeywordId, u32)> = counts.into_iter().collect();
            want.sort_unstable_by_key(|&(w, c)| (u32::MAX - c, w));
            want.truncate(TOP_KEYWORDS);
            assert_eq!(h.stats(id).top_keywords, want, "{id:?}");
        }
    }

    #[test]
    fn isolated_vertices_live_at_the_root() {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_vertex(&format!("v{i}"), &["kw"]);
        }
        b.add_edge(VertexId(0), VertexId(1));
        // v2, v3 isolated.
        let g = b.build();
        let t = ClTree::build(&g);
        let h = Hierarchy::build(&g, &t);
        let root = h.stats(t.root());
        assert_eq!(root.subtree_vertices, 4);
        assert_eq!(root.subtree_edges, 1);
        let ex = h.expand(&g, &t, t.root(), 10);
        assert_eq!(ex.residents.len(), 2); // v2, v3 resident at level 0
        assert_eq!(h.max_level(), 1);
    }
}

