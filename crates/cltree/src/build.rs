//! CL-tree construction (bottom-up, anchored union-find), the preorder
//! layout every tree finishes through, and queries.
//!
//! Construction runs one connected component at a time: every component
//! owns an independent subtree, built into its own node arena, and the
//! arenas are concatenated in component order (smallest vertex id first),
//! which fixes the node numbering the `.cxi` sidecar stores. The build is
//! sequential; fanning the components out over threads did not pay on a
//! 2-CPU host (DESIGN §7).
//!
//! ## The vertex side, stored once
//!
//! A finished node list goes through `layout`, which writes every
//! vertex exactly once into `order` — each node's residents (ascending),
//! followed by its children's subtrees — so a subtree is one contiguous
//! *rank* interval. The keyword side is a single CSR postings column over
//! those ranks: keyword `w`'s list holds the rank of every carrier,
//! ascending. "Carriers of `w` below node `x`" is then the part of one
//! sorted list that falls inside one interval: two binary searches, no
//! traversal, no copy ([`ClTree::carriers`]).

use std::collections::HashMap;
use std::ops::Range;

use cx_graph::traversal::ConnectedComponents;
use cx_graph::{AttributedGraph, KeywordId, VertexId};
use cx_kcore::CoreDecomposition;

use crate::node::{ClTreeNode, NodeId};
use crate::unionfind::UnionFind;

/// The CL-tree index over one attributed graph. See the crate docs for the
/// structure; build with [`ClTree::build`], query with
/// [`ClTree::connected_k_core`] and [`ClTree::carriers`].
#[derive(Debug, Clone)]
pub struct ClTree {
    nodes: Vec<ClTreeNode>,
    root: NodeId,
    /// Vertex → the node whose level equals the vertex's core number.
    node_of: Vec<NodeId>,
    /// Core number per vertex (kept so queries need no separate decomposition).
    core: Vec<u32>,
    max_core: u32,
    /// Preorder rank → vertex.
    order: Vec<VertexId>,
    /// Vertex → preorder rank (the inverse of `order`).
    rank_of: Vec<u32>,
    /// Keyword `w`'s postings are `kw_ranks[kw_off[w]..kw_off[w + 1]]`.
    /// Depends only on the keyword sets, so edge edits never change it.
    kw_off: Vec<usize>,
    /// Ranks of each keyword's carriers, ascending per keyword.
    kw_ranks: Vec<u32>,
}

impl ClTree {
    /// Builds the index for `g`: core decomposition, then one bottom-up
    /// sweep over levels `k_max … 1` with an anchored union-find, then a
    /// root assembly step for level 0 (isolated vertices). Near-linear in
    /// `n + m`.
    pub fn build(g: &AttributedGraph) -> Self {
        let cd = CoreDecomposition::compute(g);
        Self::build_with(g, &cd)
    }

    /// Like [`ClTree::build`] but reuses an existing core decomposition.
    pub fn build_with(g: &AttributedGraph, cd: &CoreDecomposition) -> Self {
        Self::build_with_cores(g, cd.core_numbers())
    }

    /// Like [`ClTree::build_with`] but takes the bare core-number vector —
    /// the entry point for callers that maintain core numbers
    /// incrementally (see [`ClTree::update`]) and therefore have no
    /// `CoreDecomposition` to hand. `cores` must be the exact core
    /// numbers of `g`.
    pub fn build_with_cores(g: &AttributedGraph, cores: &[u32]) -> Self {
        let _span = cx_obs::span("cltree.build");
        let n = g.vertex_count();
        assert_eq!(cores.len(), n, "core vector must cover every vertex");

        let cc = ConnectedComponents::compute(g);
        let comps = cc.groups();
        // Global vertex id → index within its component.
        let mut local = vec![0u32; n];
        for comp in &comps {
            for (i, &v) in comp.iter().enumerate() {
                local[v.index()] = i as u32;
            }
        }
        let subtrees: Vec<ComponentSubtree> =
            comps.iter().map(|comp| build_component_subtree(g, comp, cores, &local)).collect();

        // Concatenate the local arenas in component order, offsetting ids.
        let total: usize = subtrees.iter().map(|s| s.nodes.len()).sum();
        let mut nodes: Vec<ClTreeNode> = Vec::with_capacity(total + 1);
        let mut node_of = vec![NodeId(u32::MAX); n];
        let mut tops: Vec<NodeId> = Vec::new();
        for (comp, sub) in comps.iter().zip(subtrees) {
            let offset = nodes.len() as u32;
            for mut node in sub.nodes {
                node.parent = node.parent.map(|p| NodeId(p.0 + offset));
                for c in &mut node.children {
                    *c = NodeId(c.0 + offset);
                }
                nodes.push(node);
            }
            for (&v, nid) in comp.iter().zip(sub.node_of) {
                node_of[v.index()] = NodeId(nid.0 + offset);
            }
            if let Some(top) = sub.top {
                tops.push(NodeId(top.0 + offset));
            }
        }
        finish(g, nodes, tops, node_of, cores.to_vec(), None)
    }

    /// The core number of `v`.
    #[inline]
    pub fn core(&self, v: VertexId) -> u32 {
        self.core[v.index()]
    }

    /// Core numbers of every vertex, indexed by vertex id.
    #[inline]
    pub fn core_numbers(&self) -> &[u32] {
        &self.core
    }

    /// The graph's degeneracy (largest non-empty core level).
    #[inline]
    pub fn max_core(&self) -> u32 {
        self.max_core
    }

    /// Number of tree nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Access a node.
    pub fn node(&self, id: NodeId) -> &ClTreeNode {
        &self.nodes[id.index()]
    }

    /// The node holding `v` (level == core(v)).
    pub fn node_of(&self, v: VertexId) -> NodeId {
        self.node_of[v.index()]
    }

    /// Every vertex in preorder: each node's residents (ascending), then
    /// its children's subtrees in child order. A permutation of `0..n`.
    #[inline]
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }

    /// The position of `v` in [`ClTree::order`].
    #[inline]
    pub fn rank_of(&self, v: VertexId) -> u32 {
        self.rank_of[v.index()]
    }

    /// The vertices resident in node `id` (core number == its level),
    /// ascending.
    #[inline]
    pub fn residents(&self, id: NodeId) -> &[VertexId] {
        &self.order[self.nodes[id.index()].resident_ranks()]
    }

    /// The ranks of the subtree rooted at `id`: `order()[subtree_ranks(id)]`
    /// is exactly its vertex set, residents of `id` first.
    #[inline]
    pub fn subtree_ranks(&self, id: NodeId) -> Range<usize> {
        self.nodes[id.index()].subtree_ranks()
    }

    /// Number of keywords the postings cover (the graph's vocabulary).
    #[inline]
    pub fn keyword_count(&self) -> usize {
        self.kw_off.len() - 1
    }

    /// Every keyword's carrier ranks back to back; [`ClTree::carrier_span`]
    /// addresses into it.
    #[inline]
    pub fn postings(&self) -> &[u32] {
        &self.kw_ranks
    }

    /// Where in [`ClTree::postings`] the carriers of `w` among the ranks
    /// `ranks` sit (a subtree's [`ClTree::subtree_ranks`], or a
    /// [`ClTree::connected_k_core_ranks`]): the part of `w`'s ascending
    /// rank list that falls in the interval, found by two binary searches.
    /// Empty for a keyword the graph does not know.
    pub fn carrier_span(&self, ranks: Range<usize>, w: KeywordId) -> Range<usize> {
        let w = w.0 as usize;
        if w + 1 >= self.kw_off.len() {
            return 0..0;
        }
        let base = self.kw_off[w];
        let list = &self.kw_ranks[base..self.kw_off[w + 1]];
        let lo = list.partition_point(|&r| (r as usize) < ranks.start);
        let hi = lo + list[lo..].partition_point(|&r| (r as usize) < ranks.end);
        base + lo..base + hi
    }

    /// Ranks (ascending) of the vertices in the subtree of `id` whose
    /// keyword set contains `w` — a zero-copy slice of the postings,
    /// answered without touching the graph or the tree below `id`. Map
    /// through [`ClTree::order`] for vertex ids.
    #[inline]
    pub fn carriers(&self, id: NodeId, w: KeywordId) -> &[u32] {
        &self.kw_ranks[self.carrier_span(self.subtree_ranks(id), w)]
    }

    /// [`ClTree::carriers`] as a sorted vertex list.
    pub fn carrier_vertices(&self, id: NodeId, w: KeywordId) -> Vec<VertexId> {
        self.carrier_vertices_at(self.subtree_ranks(id), w)
    }

    /// The carriers of `w` among the ranks `ranks`, as a sorted vertex list.
    fn carrier_vertices_at(&self, ranks: Range<usize>, w: KeywordId) -> Vec<VertexId> {
        let span = self.carrier_span(ranks, w);
        let mut out: Vec<VertexId> =
            self.kw_ranks[span].iter().map(|&r| self.order[r as usize]).collect();
        out.sort_unstable();
        out
    }

    /// The root of the subtree representing the connected k-core containing
    /// `q`: walk up from q's node while the parent still has level ≥ k.
    /// `None` when `core(q) < k` (q is not in any k-core).
    pub fn subtree_root_for(&self, q: VertexId, k: u32) -> Option<NodeId> {
        if q.index() >= self.core.len() || self.core[q.index()] < k {
            return None;
        }
        let mut cur = self.node_of(q);
        while let Some(p) = self.nodes[cur.index()].parent {
            if self.nodes[p.index()].level >= k {
                cur = p;
            } else {
                break;
            }
        }
        Some(cur)
    }

    /// All vertices in the subtree rooted at `id`, sorted.
    pub fn subtree_vertices(&self, id: NodeId) -> Vec<VertexId> {
        let mut out = Vec::new();
        self.vertices_at_into(self.subtree_ranks(id), &mut out);
        out
    }

    /// The vertices at preorder ranks `ranks`, sorted, written into a
    /// caller-provided buffer (cleared first) so the query hot path can
    /// reuse it.
    pub fn vertices_at_into(&self, ranks: Range<usize>, out: &mut Vec<VertexId>) {
        out.clear();
        out.extend_from_slice(&self.order[ranks]);
        out.sort_unstable();
    }

    /// The preorder ranks of the connected k-core containing `q`, or
    /// `None` when `core(q) < k`. For k ≥ 1 that is the interval of
    /// [`ClTree::subtree_root_for`]. At k = 0 it is q's connected
    /// component, not the level-0 root's interval (the whole graph): the
    /// k = 1 interval when q has an edge, and q's own rank alone when it
    /// has none.
    pub fn connected_k_core_ranks(&self, q: VertexId, k: u32) -> Option<Range<usize>> {
        if k == 0 && self.core.get(q.index()) == Some(&0) {
            let r = self.rank_of(q) as usize;
            return Some(r..r + 1);
        }
        self.subtree_root_for(q, k.max(1)).map(|r| self.subtree_ranks(r))
    }

    /// The connected k-core containing `q` (sorted vertices), via the index.
    pub fn connected_k_core(&self, q: VertexId, k: u32) -> Option<Vec<VertexId>> {
        let ranks = self.connected_k_core_ranks(q, k)?;
        let mut out = Vec::new();
        self.vertices_at_into(ranks, &mut out);
        Some(out)
    }

    /// Convenience: vertices carrying `w` within the connected k-core of `q`.
    pub fn keyword_vertices_in_k_core(
        &self,
        q: VertexId,
        k: u32,
        w: KeywordId,
    ) -> Option<Vec<VertexId>> {
        self.connected_k_core_ranks(q, k).map(|r| self.carrier_vertices_at(r, w))
    }

    /// Height of the tree (root counts as 1; 1 for a single-node tree).
    pub fn height(&self) -> usize {
        fn depth(nodes: &[ClTreeNode], id: NodeId) -> usize {
            1 + nodes[id.index()]
                .children
                .iter()
                .map(|&c| depth(nodes, c))
                .max()
                .unwrap_or(0)
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth(&self.nodes, self.root)
        }
    }

    /// Approximate heap footprint of the index in bytes — used by the
    /// linear-space experiment (E6).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.capacity() * size_of::<ClTreeNode>()
            + self.nodes.iter().map(|n| n.children.len()).sum::<usize>() * size_of::<NodeId>()
            + self.node_of.len() * size_of::<NodeId>()
            + self.core.len() * size_of::<u32>()
            + self.order.len() * size_of::<VertexId>()
            + self.rank_of.len() * size_of::<u32>()
            + self.kw_off.len() * size_of::<usize>()
            + self.kw_ranks.len() * size_of::<u32>()
    }

    /// Iterates all nodes with their ids.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &ClTreeNode)> + '_ {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i as u32), n))
    }
}

/// Level-0 root assembly, then [`layout`] — the common tail of
/// [`ClTree::build_with_cores`] and [`ClTree::update`]. Core-0 vertices
/// are exactly the isolated ones; a single root holds them, with every
/// component's top anchor as a child (matching Figure 5(b), where the
/// root contains J). `node_of` must already place every vertex of core
/// ≥ 1. `prior` is the tree an update repairs (see [`layout`]).
pub(crate) fn finish(
    g: &AttributedGraph,
    mut nodes: Vec<ClTreeNode>,
    mut tops: Vec<NodeId>,
    mut node_of: Vec<NodeId>,
    core: Vec<u32>,
    prior: Option<&ClTree>,
) -> ClTree {
    tops.sort_unstable();
    let has_isolated = core.contains(&0);
    let root = if !has_isolated && tops.len() == 1 {
        tops[0]
    } else {
        let nid = NodeId(nodes.len() as u32);
        for &kid in &tops {
            nodes[kid.index()].parent = Some(nid);
        }
        nodes.push(ClTreeNode::new(0, None, tops));
        for (slot, _) in node_of.iter_mut().zip(&core).filter(|(_, &c)| c == 0) {
            *slot = nid;
        }
        nid
    };
    layout(g, nodes, root, node_of, core, prior)
}

/// The one place the vertex side of a tree is laid out: given the
/// finished nodes and each vertex's node, computes the preorder `order`
/// and its inverse, every node's resident and subtree rank intervals, and
/// the keyword postings over ranks. Called by build and update (through
/// [`finish`]) and by snapshot load.
///
/// Build and load scatter the postings from the graph's keyword sets. An
/// update passes the tree it repairs as `prior` — same vertices, same
/// keyword sets — and [`patch_postings`] moves that tree's postings to
/// the new ranks instead.
///
/// The caller guarantees a tree: every node but `root` is the child of
/// exactly one node, and `node_of` names a node for every vertex.
pub(crate) fn layout(
    g: &AttributedGraph,
    mut nodes: Vec<ClTreeNode>,
    root: NodeId,
    node_of: Vec<NodeId>,
    core: Vec<u32>,
    prior: Option<&ClTree>,
) -> ClTree {
    let n = node_of.len();
    // Resident counts, then (below) each node's fill cursor.
    let mut cursor = vec![0u32; nodes.len()];
    for nid in &node_of {
        cursor[nid.index()] += 1;
    }
    // Preorder walk with an explicit stack of (node, next child): a node
    // claims its residents' ranks on entry and closes its subtree's
    // interval on exit.
    let mut next = 0u32;
    let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
    while let Some(&mut (nid, ref mut child)) = stack.last_mut() {
        let node = &mut nodes[nid.index()];
        if *child == 0 {
            node.first = next;
            next += cursor[nid.index()];
            node.residents_end = next;
        }
        if let Some(&c) = node.children.get(*child) {
            *child += 1;
            stack.push((c, 0));
        } else {
            node.subtree_end = next;
            stack.pop();
        }
    }
    assert_eq!(next as usize, n, "every vertex sits in a node under the root");

    // Ascending vertex id, so each node's residents come out sorted.
    for (c, node) in cursor.iter_mut().zip(&nodes) {
        *c = node.first;
    }
    let mut order = vec![VertexId(0); n];
    let mut rank_of = vec![0u32; n];
    for (v, nid) in node_of.iter().enumerate() {
        let rank = &mut cursor[nid.index()];
        order[*rank as usize] = VertexId(v as u32);
        rank_of[v] = *rank;
        *rank += 1;
    }

    let (kw_off, kw_ranks) = match prior {
        Some(old) => (old.kw_off.clone(), patch_postings(old, &order)),
        None => scatter_postings(g, &order),
    };
    let max_core = core.iter().copied().max().unwrap_or(0);
    ClTree { nodes, root, node_of, core, max_core, order, rank_of, kw_off, kw_ranks }
}

/// Postings by counting sort over the whole preorder: ranks are visited
/// in ascending order, so every keyword's list is born sorted.
fn scatter_postings(g: &AttributedGraph, order: &[VertexId]) -> (Vec<usize>, Vec<u32>) {
    let mut kw_off = vec![0usize; g.keyword_count() + 1];
    for v in g.vertices() {
        for w in g.keywords(v) {
            kw_off[w.0 as usize + 1] += 1;
        }
    }
    for w in 1..kw_off.len() {
        kw_off[w] += kw_off[w - 1];
    }
    let mut fill = kw_off.clone();
    let mut kw_ranks = vec![0u32; kw_off[kw_off.len() - 1]];
    for (rank, &v) in order.iter().enumerate() {
        for w in g.keywords(v) {
            let at = &mut fill[w.0 as usize];
            kw_ranks[*at] = rank as u32;
            *at += 1;
        }
    }
    (kw_off, kw_ranks)
}

/// `old`'s postings moved to the preorder `order` of a repaired tree over
/// the same vertices and keyword sets, without looking at the graph.
///
/// The two preorders agree outside one rank span `lo..hi`, so every
/// posting outside it is copied as is (and each list keeps its offsets,
/// since the same carriers sit before `lo` and after `hi`). Inside, the
/// new preorder is a sequence of *blocks*: maximal runs of new ranks
/// whose old ranks are consecutive. A posting moves by its block's shift,
/// so one list's postings in one block stay ascending — a *piece*. Blocks
/// map to disjoint new intervals, so a list is sorted once its pieces are
/// emitted in order of their block's new start: every piece is bucketed
/// by block, and the buckets are drained in block order. No comparison
/// sort; the cost is the copy plus O(postings in the span + blocks +
/// keywords).
fn patch_postings(old: &ClTree, order: &[VertexId]) -> Vec<u32> {
    let mut out = old.kw_ranks.clone();
    let Some(lo) = order.iter().zip(&old.order).position(|(a, b)| a != b) else {
        return out;
    };
    let same_tail = order.iter().rev().zip(old.order.iter().rev()).take_while(|(a, b)| a == b);
    let hi = order.len() - same_tail.count();

    // Blocks in new-rank order. Block `b` is a run of old ranks ending
    // before `old_end[b]`; `shift[b]` takes them to their new ranks
    // (wrapping, as a shift may be negative); `block_at[x − lo]` is the
    // block of old rank x.
    let (mut shift, mut old_end) = (Vec::new(), Vec::new());
    let mut block_at = vec![0u32; hi - lo];
    let mut r = lo;
    while r < hi {
        let (start, first) = (r, old.rank_of[order[r].index()]);
        while r < hi && old.rank_of[order[r].index()] == first + (r - start) as u32 {
            block_at[first as usize + (r - start) - lo] = shift.len() as u32;
            r += 1;
        }
        shift.push((start as u32).wrapping_sub(first));
        old_end.push(first + (r - start) as u32);
    }

    // Each list's postings in `lo..hi`, cut into pieces and bucketed by
    // block: (list's slot in `fill`, posting range in `old.kw_ranks`;
    // positions fit in u32, as the graph's keyword CSR offsets do). A
    // piece ends at the first posting past its block, a binary search.
    let mut buckets: Vec<Vec<(u32, Range<u32>)>> = vec![Vec::new(); shift.len()];
    let mut fill: Vec<usize> = Vec::new();
    for w in old.kw_off.windows(2) {
        let list = &old.kw_ranks[w[0]..w[1]];
        if list.first().is_none_or(|&x| x as usize >= hi)
            || list.last().is_some_and(|&x| (x as usize) < lo)
        {
            continue;
        }
        let mut i = list.partition_point(|&x| (x as usize) < lo);
        let end = list.partition_point(|&x| (x as usize) < hi);
        if i == end {
            continue;
        }
        let slot = fill.len() as u32;
        fill.push(w[0] + i);
        while i < end {
            let block = block_at[list[i] as usize - lo] as usize;
            let j = i + list[i..end].partition_point(|&x| x < old_end[block]);
            buckets[block].push((slot, (w[0] + i) as u32..(w[0] + j) as u32));
            i = j;
        }
    }

    // Draining the buckets in block order appends each list's pieces in
    // order of their block's new start.
    for (bucket, &s) in buckets.iter().zip(&shift) {
        for (slot, range) in bucket {
            let src = &old.kw_ranks[range.start as usize..range.end as usize];
            let to = &mut fill[*slot as usize];
            for (dst, &x) in out[*to..*to + src.len()].iter_mut().zip(src) {
                *dst = x.wrapping_add(s);
            }
            *to += src.len();
        }
    }
    out
}

/// One component's bottom-up subtree: a local node arena (ids local to the
/// arena), each component vertex's node in that arena, and the top anchor
/// — `None` for isolated (core-0) vertices, which the level-0 root
/// assembly picks up directly.
struct ComponentSubtree {
    nodes: Vec<ClTreeNode>,
    /// Parallel to the component's vertex list.
    node_of: Vec<NodeId>,
    top: Option<NodeId>,
}

/// The anchored union-find sweep restricted to one connected component.
/// `local` maps global vertex ids to component-local union-find slots.
/// Node numbering inside the arena is deterministic (levels descend;
/// roots sorted by local representative), so the caller's
/// component-ordered concatenation fixes every node id.
fn build_component_subtree(
    g: &AttributedGraph,
    comp: &[VertexId],
    core: &[u32],
    local: &[u32],
) -> ComponentSubtree {
    let comp_max = comp.iter().map(|&v| core[v.index()]).max().unwrap_or(0);
    if comp_max == 0 {
        // A lone isolated vertex: no arena, handled by the root assembly.
        return ComponentSubtree { nodes: Vec::new(), node_of: Vec::new(), top: None };
    }
    // Component vertices grouped by core number.
    let mut levels: Vec<Vec<VertexId>> = vec![Vec::new(); comp_max as usize + 1];
    for &v in comp {
        levels[core[v.index()] as usize].push(v);
    }
    let mut nodes: Vec<ClTreeNode> = Vec::new();
    let mut node_of = vec![NodeId(u32::MAX); comp.len()];
    let anchors = sweep_levels(
        g,
        core,
        &levels,
        |v| local[v.index()],
        &mut UnionFind::new(comp.len()),
        HashMap::new(),
        &mut nodes,
        |v, nid| node_of[local[v.index()] as usize] = nid,
    );
    // A connected component with any edge is fully joined at level 1.
    debug_assert_eq!(anchors.len(), 1, "component not fully anchored");
    let top = anchors.into_values().next();
    ComponentSubtree { nodes, node_of, top }
}

/// The bottom-up construction over `levels[1..]`, highest level first:
/// union every edge from a level-k vertex into the k-core, regroup the
/// anchors (union-find representative → node currently representing that
/// component) under their new representatives, and give every group that
/// gained level-k vertices or merged several anchors a new node in
/// `nodes`. `slot` maps a vertex to its union-find element; `place`
/// receives every swept vertex with its node. Returns the level-1 anchors.
///
/// [`ClTree::update`] enters with `anchors` (and `uf`) describing the
/// subtrees it carries over, so this is the only copy of the sweep.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_levels(
    g: &AttributedGraph,
    core: &[u32],
    levels: &[Vec<VertexId>],
    slot: impl Fn(VertexId) -> u32,
    uf: &mut UnionFind,
    mut anchors: HashMap<u32, NodeId>,
    nodes: &mut Vec<ClTreeNode>,
    mut place: impl FnMut(VertexId, NodeId),
) -> HashMap<u32, NodeId> {
    for k in (1..levels.len()).rev() {
        let residents = &levels[k];
        for &v in residents {
            for &u in g.neighbors(v) {
                if core[u.index()] >= k as u32 {
                    uf.union(slot(v), slot(u));
                }
            }
        }
        // New representative → (child anchors, gained level-k vertices).
        let mut groups: HashMap<u32, (Vec<NodeId>, bool)> = HashMap::new();
        for (rep, nid) in anchors.drain() {
            groups.entry(uf.find(rep)).or_default().0.push(nid);
        }
        for &v in residents {
            groups.entry(uf.find(slot(v))).or_default().1 = true;
        }
        // Deterministic node numbering regardless of hash order.
        let mut roots: Vec<u32> = groups.keys().copied().collect();
        roots.sort_unstable();
        for root in roots {
            let (mut kids, has_residents) = groups.remove(&root).expect("root came from groups");
            if !has_residents && kids.len() == 1 {
                // Component unchanged at this level: no node, carry forward.
                anchors.insert(root, kids[0]);
                continue;
            }
            kids.sort_unstable();
            let nid = NodeId(nodes.len() as u32);
            for &kid in &kids {
                nodes[kid.index()].parent = Some(nid);
            }
            nodes.push(ClTreeNode::new(k as u32, None, kids));
            anchors.insert(root, nid);
        }
        for &v in residents {
            place(v, anchors[&uf.find(slot(v))]);
        }
    }
    anchors
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_datagen::figure5_graph;
    use cx_graph::GraphBuilder;

    #[test]
    fn figure5_tree_matches_paper() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        assert_eq!(t.max_core(), 3);

        let label = |l: &str| g.vertex_by_label(l).unwrap();
        let names = |vs: &[VertexId]| -> Vec<&str> { vs.iter().map(|&v| g.label(v)).collect() };

        // Root is the level-0 node holding exactly J.
        let root = t.node(t.root());
        assert_eq!(root.level, 0);
        assert_eq!(names(t.residents(t.root())), vec!["J"]);
        // Root has two children: the ABCDEFG component (level 1, holding F,G)
        // and the H–I pair (level 1).
        assert_eq!(root.children.len(), 2);
        assert!(root.children.iter().all(|&c| t.node(c).level == 1));
        let mut kid_vertices: Vec<Vec<&str>> =
            root.children.iter().map(|&c| names(t.residents(c))).collect();
        kid_vertices.sort();
        assert_eq!(kid_vertices, vec![vec!["F", "G"], vec!["H", "I"]]);

        // Under {F,G}: level-2 node {E}; under it, level-3 node {A,B,C,D}.
        let fg = t.node(t.node_of(label("F")));
        assert_eq!(fg.children.len(), 1);
        let e_id = fg.children[0];
        assert_eq!(t.node(e_id).level, 2);
        assert_eq!(names(t.residents(e_id)), vec!["E"]);
        assert_eq!(t.node(e_id).children.len(), 1);
        let abcd_id = t.node(e_id).children[0];
        assert_eq!(t.node(abcd_id).level, 3);
        assert_eq!(names(t.residents(abcd_id)), vec!["A", "B", "C", "D"]);
        assert!(t.node(abcd_id).children.is_empty());

        // Five nodes total, height 4, exactly as in Figure 5(b).
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.height(), 4);

        // Core numbers per the figure's table.
        for (l, k) in [("A", 3), ("B", 3), ("C", 3), ("D", 3), ("E", 2), ("F", 1), ("G", 1), ("H", 1), ("I", 1), ("J", 0)] {
            assert_eq!(t.core(label(l)), k, "core of {l}");
        }
    }

    #[test]
    fn figure5_connected_k_cores() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        let label = |l: &str| g.vertex_by_label(l).unwrap();
        let names = |vs: Vec<VertexId>| -> Vec<String> {
            vs.into_iter().map(|v| g.label(v).to_owned()).collect()
        };

        assert_eq!(names(t.connected_k_core(label("A"), 3).unwrap()), ["A", "B", "C", "D"]);
        assert_eq!(
            names(t.connected_k_core(label("A"), 2).unwrap()),
            ["A", "B", "C", "D", "E"]
        );
        assert_eq!(
            names(t.connected_k_core(label("A"), 1).unwrap()),
            ["A", "B", "C", "D", "E", "F", "G"]
        );
        assert_eq!(names(t.connected_k_core(label("H"), 1).unwrap()), ["H", "I"]);
        assert!(t.connected_k_core(label("E"), 3).is_none());
        assert!(t.connected_k_core(label("J"), 1).is_none());
        // k = 0 is q's component, not the level-0 root's whole graph.
        assert_eq!(names(t.connected_k_core(label("H"), 0).unwrap()), ["H", "I"]);
        assert_eq!(names(t.connected_k_core(label("J"), 0).unwrap()), ["J"]);
        assert_eq!(t.connected_k_core(label("A"), 0), t.connected_k_core(label("A"), 1));
    }

    #[test]
    fn figure5_carriers() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        let a = g.vertex_by_label("A").unwrap();
        let x = g.interner().get("x").unwrap();
        let y = g.interner().get("y").unwrap();
        let w = g.interner().get("w").unwrap();

        // In the 2-core of A ({A,B,C,D,E}): x carried by A,B,C,D; w only by A.
        let xs = t.keyword_vertices_in_k_core(a, 2, x).unwrap();
        assert_eq!(xs.len(), 4);
        let ws = t.keyword_vertices_in_k_core(a, 2, w).unwrap();
        assert_eq!(ws, vec![a]);
        // Carrier counts over the 3-core subtree.
        let root3 = t.subtree_root_for(a, 3).unwrap();
        assert_eq!(t.carriers(root3, x).len(), 4);
        assert_eq!(t.carriers(root3, y).len(), 3); // A, C, D
    }

    #[test]
    fn two_disjoint_triangles_get_empty_root() {
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        for (x, y) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(VertexId(x), VertexId(y));
        }
        let t = ClTree::build(&b.build());
        let root = t.node(t.root());
        assert_eq!(root.level, 0);
        assert!(t.residents(t.root()).is_empty());
        assert_eq!(root.children.len(), 2);
        assert_eq!(t.node_count(), 3);
    }

    #[test]
    fn single_component_root_is_top_anchor() {
        // A triangle alone: one node at level 2, which IS the root.
        let mut b = GraphBuilder::new();
        for i in 0..3 {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        for (x, y) in [(0, 1), (1, 2), (0, 2)] {
            b.add_edge(VertexId(x), VertexId(y));
        }
        let t = ClTree::build(&b.build());
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.node(t.root()).level, 2);
        assert_eq!(t.height(), 1);
        assert_eq!(t.connected_k_core(VertexId(0), 2).unwrap().len(), 3);
        assert_eq!(t.connected_k_core(VertexId(0), 1).unwrap().len(), 3);
    }

    #[test]
    fn empty_graph_builds_a_root() {
        let t = ClTree::build(&GraphBuilder::new().build());
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.max_core(), 0);
        assert_eq!(t.height(), 1);
        assert!(t.residents(t.root()).is_empty());
        assert!(t.order().is_empty() && t.postings().is_empty());
    }

    #[test]
    fn level_skipping_chain_is_compressed() {
        // K5 (4-core) plus a path attached: levels 4 and 1 exist, 2-3 are
        // skipped — the walk-up still answers k=2 and k=3 correctly.
        let mut b = GraphBuilder::new();
        for i in 0..8 {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                b.add_edge(VertexId(i), VertexId(j));
            }
        }
        b.add_edge(VertexId(4), VertexId(5));
        b.add_edge(VertexId(5), VertexId(6));
        b.add_edge(VertexId(6), VertexId(7));
        let g = b.build();
        let t = ClTree::build(&g);
        let k5: Vec<VertexId> = (0..5).map(VertexId).collect();
        assert_eq!(t.connected_k_core(VertexId(0), 4).unwrap(), k5);
        assert_eq!(t.connected_k_core(VertexId(0), 3).unwrap(), k5);
        assert_eq!(t.connected_k_core(VertexId(0), 2).unwrap(), k5);
        assert_eq!(t.connected_k_core(VertexId(0), 1).unwrap().len(), 8);
        // No nodes exist at level 2 or 3.
        assert!(t.iter_nodes().all(|(_, n)| n.level != 2 && n.level != 3));
    }

    #[test]
    fn every_vertex_lives_in_exactly_one_node() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        let mut seen = vec![0usize; g.vertex_count()];
        for (id, _) in t.iter_nodes() {
            for &v in t.residents(id) {
                seen[v.index()] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "vertex node multiplicity {seen:?}");
        // node_of agrees with the node listing.
        for v in g.vertices() {
            let nid = t.node_of(v);
            assert!(t.residents(nid).contains(&v));
            assert_eq!(t.node(nid).level, t.core(v));
        }
    }

    #[test]
    fn memory_is_reported() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        assert!(t.memory_bytes() > 0);
    }

    #[test]
    fn carriers_are_cut_from_the_postings_by_subtree() {
        // Two K4s joined through a degree-2 middle vertex: the 3-core has
        // two components (the K4s), children of the level-2 {m} node.
        // Keyword "a" lives only in the left K4, so the right subtree's
        // slice of its postings is empty and the left's is all of it.
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_vertex(&format!("l{i}"), &["a", "common"]);
        }
        for i in 0..4 {
            b.add_vertex(&format!("r{i}"), &["b", "common"]);
        }
        b.add_vertex("m", &["common"]);
        for base in [0u32, 4] {
            for x in 0..4u32 {
                for y in (x + 1)..4 {
                    b.add_edge(VertexId(base + x), VertexId(base + y));
                }
            }
        }
        b.add_edge(VertexId(0), VertexId(8));
        b.add_edge(VertexId(4), VertexId(8));
        let g = b.build();
        let t = ClTree::build(&g);
        assert_eq!(t.core(VertexId(8)), 2);
        let top = t.subtree_root_for(VertexId(0), 1).unwrap();
        assert_eq!(t.node(top).children.len(), 2);
        let (left, right) = (t.node_of(VertexId(0)), t.node_of(VertexId(4)));
        let kw = |name: &str| g.interner().get(name).unwrap();
        let left_k4: Vec<VertexId> = (0..4).map(VertexId).collect();
        assert_eq!(t.carrier_vertices(top, kw("a")), left_k4);
        assert_eq!(t.carrier_vertices(left, kw("a")), left_k4);
        assert!(t.carriers(right, kw("a")).is_empty());
        assert!(t.carriers(left, kw("b")).is_empty());
        assert_eq!(t.carriers(top, kw("common")).len(), 9);
        assert_eq!(t.carriers(left, kw("common")).len(), 4);
        // A keyword id the graph never interned has no postings at all.
        assert!(t.carriers(top, KeywordId(g.keyword_count() as u32)).is_empty());
    }
}
