//! The immutable CSR attributed graph.

use std::sync::Arc;

use crate::error::GraphError;
use crate::keywords::{KeywordId, KeywordInterner};
use crate::labels::LabelColumn;

/// The integer type of CSR offsets: `u32` rather than `usize`, halving
/// the per-vertex offset columns on 64-bit hosts. A graph is limited to
/// `u32::MAX` directed adjacency slots (~2.1B undirected edges) and
/// `u32::MAX` keyword slots — far beyond the paper-scale workload (1M
/// vertices / 3.4M edges) this substrate is sized for.
pub type CsrOffset = u32;

/// A dense vertex identifier, valid for the graph that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The id as a usize, for indexing per-vertex arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for VertexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An immutable, undirected attributed graph `G(V, E)` in CSR form.
///
/// Every vertex `v` has:
/// * a display label (author name in the paper's DBLP deployment),
/// * a strictly sorted keyword set `W(v)` of interned [`KeywordId`]s,
/// * a strictly sorted neighbour list (no self-loops, no parallel edges).
///
/// Construct with [`crate::GraphBuilder`]; load/save with [`crate::io`].
#[derive(Debug, Clone)]
pub struct AttributedGraph {
    // CSR adjacency: neighbours of v are adj[adj_off[v] .. adj_off[v+1]].
    // These two are the only columns an edge edit touches, so they stay
    // plain vectors; everything below is `Arc`-shared so that
    // [`Self::apply_delta`] can produce a patched graph without copying
    // keywords, labels, or the interner.
    pub(crate) adj_off: Vec<CsrOffset>,
    pub(crate) adj: Vec<VertexId>,
    // CSR keyword sets: W(v) = kws[kw_off[v] .. kw_off[v+1]].
    pub(crate) kw_off: Arc<Vec<CsrOffset>>,
    pub(crate) kws: Arc<Vec<KeywordId>>,
    pub(crate) labels: Arc<LabelColumn>,
    pub(crate) interner: Arc<KeywordInterner>,
}

impl AttributedGraph {
    /// Number of vertices `|V|`.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.adj.len() / 2
    }

    /// Iterates all vertex ids `0..|V|`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertex_count() as u32).map(VertexId)
    }

    /// Returns true if `v` is a valid vertex of this graph.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        v.index() < self.vertex_count()
    }

    /// Validates a vertex id, returning a descriptive error when out of range.
    pub fn check_vertex(&self, v: VertexId) -> Result<(), GraphError> {
        if self.contains(v) {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange { vertex: v.0, vertex_count: self.vertex_count() })
        }
    }

    /// The sorted neighbour list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adj[self.adj_off[v.index()] as usize..self.adj_off[v.index() + 1] as usize]
    }

    /// Degree of `v` in the full graph (`deg_G(v)` in the paper).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.adj_off[v.index() + 1] - self.adj_off[v.index()]) as usize
    }

    /// Whether the undirected edge `{u, v}` exists (binary search, O(log d)).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v || !self.contains(u) || !self.contains(v) {
            return false;
        }
        // Search the smaller adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterates every undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u).iter().copied().filter(move |&v| u < v).map(move |v| (u, v))
        })
    }

    /// The keyword set `W(v)`, strictly sorted.
    #[inline]
    pub fn keywords(&self, v: VertexId) -> &[KeywordId] {
        &self.kws[self.kw_off[v.index()] as usize..self.kw_off[v.index() + 1] as usize]
    }

    /// Whether `W(v)` contains keyword `w` (binary search).
    pub fn has_keyword(&self, v: VertexId, w: KeywordId) -> bool {
        self.keywords(v).binary_search(&w).is_ok()
    }

    /// The display label of `v`.
    #[inline]
    pub fn label(&self, v: VertexId) -> &str {
        self.labels.get(v)
    }

    /// The label column: arena, case-folded twin and sorted order.
    pub fn labels(&self) -> &LabelColumn {
        &self.labels
    }

    /// Looks a vertex up by its exact label; the lowest id among
    /// duplicates (a binary search on the folded order).
    pub fn vertex_by_label(&self, label: &str) -> Option<VertexId> {
        self.labels.find(label)
    }

    /// Like [`Self::vertex_by_label`] but returns a descriptive error.
    pub fn require_label(&self, label: &str) -> Result<VertexId, GraphError> {
        self.vertex_by_label(label).ok_or_else(|| GraphError::UnknownLabel(label.to_owned()))
    }

    /// Case-insensitive label search for the UI's name box ("jim gray"
    /// finds "Jim Gray"): the `top` best matches, ranked exact ▸ prefix ▸
    /// interior and each tier by degree descending, then id, plus a match
    /// count — see [`LabelColumn::search`] for when the count includes
    /// the interior matches.
    pub fn search_label_top(&self, query: &str, top: usize) -> (Vec<VertexId>, usize) {
        self.labels.search(query, top, |v| self.degree(v))
    }

    /// The keyword interner mapping ids to strings.
    #[inline]
    pub fn interner(&self) -> &KeywordInterner {
        &self.interner
    }

    /// Resolves keyword ids to display strings (skipping foreign ids).
    pub fn keyword_names(&self, ids: &[KeywordId]) -> Vec<String> {
        self.interner.names(ids).map(str::to_owned).collect()
    }

    /// Total number of distinct keywords in the graph.
    pub fn keyword_count(&self) -> usize {
        self.interner.len()
    }

    /// Degrees of all vertices, as a vector indexed by vertex id.
    pub fn degrees(&self) -> Vec<usize> {
        self.vertices().map(|v| self.degree(v)).collect()
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Whether `self` and `other` share the same attribute columns
    /// (keywords, labels, interner) by pointer identity. True exactly when
    /// one graph was derived from the other via [`Self::apply_delta`];
    /// independently built graphs never share.
    pub fn shares_attributes_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.kw_off, &other.kw_off)
            && Arc::ptr_eq(&self.kws, &other.kws)
            && Arc::ptr_eq(&self.labels, &other.labels)
            && Arc::ptr_eq(&self.interner, &other.interner)
    }

    /// Approximate heap footprint in bytes (CSR arrays + the label
    /// column), used by the index-size experiments.
    pub fn memory_bytes(&self) -> usize {
        self.adj_off.len() * std::mem::size_of::<CsrOffset>()
            + self.adj.len() * std::mem::size_of::<VertexId>()
            + self.kw_off.len() * std::mem::size_of::<CsrOffset>()
            + self.kws.len() * std::mem::size_of::<KeywordId>()
            + self.labels.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    use super::*;

    /// Builds the small triangle-plus-pendant fixture:
    /// a—b, b—c, a—c, c—d.
    fn fixture() -> AttributedGraph {
        let mut b = GraphBuilder::new();
        let va = b.add_vertex("a", &["x", "y"]);
        let vb = b.add_vertex("b", &["x"]);
        let vc = b.add_vertex("c", &["y", "z"]);
        let vd = b.add_vertex("d", &[]);
        b.add_edge(va, vb);
        b.add_edge(vb, vc);
        b.add_edge(va, vc);
        b.add_edge(vc, vd);
        b.build()
    }

    #[test]
    fn counts_and_degrees() {
        let g = fixture();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(VertexId(0)), 2);
        assert_eq!(g.degree(VertexId(2)), 3);
        assert_eq!(g.degree(VertexId(3)), 1);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.degrees(), vec![2, 2, 3, 1]);
    }

    #[test]
    fn neighbors_are_sorted_and_symmetric() {
        let g = fixture();
        for u in g.vertices() {
            let ns = g.neighbors(u);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "unsorted adjacency for {u}");
            for &v in ns {
                assert!(g.neighbors(v).contains(&u), "missing reverse edge {v}->{u}");
            }
        }
    }

    #[test]
    fn has_edge_both_directions_and_misses() {
        let g = fixture();
        assert!(g.has_edge(VertexId(0), VertexId(1)));
        assert!(g.has_edge(VertexId(1), VertexId(0)));
        assert!(!g.has_edge(VertexId(0), VertexId(3)));
        assert!(!g.has_edge(VertexId(0), VertexId(0)));
        assert!(!g.has_edge(VertexId(0), VertexId(42)));
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = fixture();
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es.len(), g.edge_count());
        for (u, v) in &es {
            assert!(u < v);
        }
    }

    #[test]
    fn keyword_lookup() {
        let g = fixture();
        let x = g.interner().get("x").unwrap();
        let z = g.interner().get("z").unwrap();
        assert!(g.has_keyword(VertexId(0), x));
        assert!(!g.has_keyword(VertexId(0), z));
        assert!(g.keywords(VertexId(3)).is_empty());
        assert_eq!(g.keyword_count(), 3);
        assert_eq!(g.keyword_names(g.keywords(VertexId(0))), vec!["x", "y"]);
    }

    #[test]
    fn label_lookup_and_search() {
        let g = fixture();
        assert_eq!(g.vertex_by_label("c"), Some(VertexId(2)));
        assert_eq!(g.vertex_by_label("zz"), None);
        assert!(g.require_label("zz").is_err());
        assert_eq!(g.search_label_top("C", 10), (vec![VertexId(2)], 1));
    }

    #[test]
    fn search_label_top_ranks_exact_match_then_degree() {
        let mut b = GraphBuilder::new();
        let gray = b.add_vertex("Jim Gray", &[]);
        let grayson = b.add_vertex("Jim Grayson", &[]);
        let other = b.add_vertex("Hub", &[]);
        // Grayson gets higher degree than Gray.
        b.add_edge(grayson, other);
        let g = b.build();
        assert_eq!(g.search_label_top("jim gray", 10), (vec![gray, grayson], 2));
    }

    #[test]
    fn search_label_top_pages_are_prefixes_of_the_full_ranking() {
        let mut b = GraphBuilder::new();
        let hub = b.add_vertex("hub", &[]);
        for i in 0..40 {
            let v = b.add_vertex(&format!("author-{i}"), &[]);
            // Varying degrees so the rank order is nontrivial.
            if i % 3 == 0 {
                b.add_edge(v, hub);
            }
        }
        let g = b.build();
        let (full, _) = g.search_label_top("author-1", g.vertex_count());
        assert_eq!(full.len(), 11);
        for top in [0, 1, 3, full.len(), full.len() + 5] {
            let (best, total) = g.search_label_top("author-1", top);
            assert_eq!(total, full.len(), "total at top={top}");
            assert_eq!(best, full[..top.min(full.len())], "prefix at top={top}");
        }
        // Exact match outranks higher-degree prefix matches.
        let (best, _) = g.search_label_top("author-1", 1);
        assert_eq!(g.label(best[0]), "author-1");
    }

    #[test]
    fn check_vertex_bounds() {
        let g = fixture();
        assert!(g.check_vertex(VertexId(3)).is_ok());
        assert!(g.check_vertex(VertexId(4)).is_err());
    }

    #[test]
    fn memory_bytes_is_positive_and_monotone() {
        let g = fixture();
        let small = g.memory_bytes();
        assert!(small > 0);
        let mut b = GraphBuilder::new();
        for i in 0..100 {
            b.add_vertex(&format!("v{i}"), &["k"]);
        }
        for i in 0..99u32 {
            b.add_edge(VertexId(i), VertexId(i + 1));
        }
        assert!(b.build().memory_bytes() > small);
    }
}
