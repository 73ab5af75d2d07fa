//! Mutable construction of [`AttributedGraph`]s.

use std::sync::Arc;

use crate::graph::{AttributedGraph, VertexId};
use crate::keywords::KeywordInterner;
use crate::labels::LabelArena;
use crate::GraphError;

/// Accumulates vertices, keywords and edges, then packs them into an
/// immutable CSR [`AttributedGraph`].
///
/// The builder is forgiving: duplicate edges and self-loops are silently
/// dropped at [`GraphBuilder::build`] time, keyword lists are deduplicated
/// and sorted, and edges may reference vertices added later (they are
/// validated at build time). Duplicate labels are allowed; a lookup by
/// label answers with the first.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    labels: LabelArena,
    keyword_sets: Vec<Vec<crate::KeywordId>>,
    edges: Vec<(VertexId, VertexId)>,
    interner: KeywordInterner,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with capacity hints for vertices and edges.
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        Self {
            labels: LabelArena::with_capacity(vertices, 0),
            keyword_sets: Vec::with_capacity(vertices),
            edges: Vec::with_capacity(edges),
            ..Self::default()
        }
    }

    /// Adds a vertex with a label and keyword strings, returning its id.
    ///
    /// Panics only if more than `u32::MAX` vertices, or more than
    /// `u32::MAX` bytes of labels, are added.
    pub fn add_vertex(&mut self, label: &str, keywords: &[&str]) -> VertexId {
        let id = VertexId(u32::try_from(self.labels.len()).expect("vertex count exceeds u32"));
        self.labels.push(label).expect("label bytes exceed u32");
        let mut kws: Vec<_> = keywords.iter().map(|k| self.interner.intern(k)).collect();
        kws.sort_unstable();
        kws.dedup();
        self.keyword_sets.push(kws);
        id
    }

    /// Appends extra keywords to an existing vertex.
    pub fn add_keywords(&mut self, v: VertexId, keywords: &[&str]) -> Result<(), GraphError> {
        let set = self.keyword_sets.get_mut(v.index()).ok_or(GraphError::VertexOutOfRange {
            vertex: v.0,
            vertex_count: self.labels.len(),
        })?;
        for k in keywords {
            set.push(self.interner.intern(k));
        }
        set.sort_unstable();
        set.dedup();
        Ok(())
    }

    /// Records an undirected edge; order of endpoints is irrelevant.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        self.edges.push((u, v));
    }

    /// Number of vertices added so far.
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edge records added so far (before dedup).
    pub fn edge_records(&self) -> usize {
        self.edges.len()
    }

    /// Packs everything into an immutable graph.
    ///
    /// Panics if any recorded edge references a vertex that was never added;
    /// use [`Self::try_build`] for the checked form.
    pub fn build(self) -> AttributedGraph {
        self.try_build().expect("edge references unknown vertex")
    }

    /// Checked build: validates edge endpoints, deduplicates edges, drops
    /// self-loops, and sorts all adjacency and keyword lists.
    pub fn try_build(self) -> Result<AttributedGraph, GraphError> {
        let n = self.labels.len();
        for &(u, v) in &self.edges {
            for w in [u, v] {
                if w.index() >= n {
                    return Err(GraphError::VertexOutOfRange { vertex: w.0, vertex_count: n });
                }
            }
        }

        // Normalise, drop self-loops, dedup.
        let mut norm: Vec<(VertexId, VertexId)> = self
            .edges
            .iter()
            .filter(|&&(u, v)| u != v)
            .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        norm.sort_unstable();
        norm.dedup();

        // Degree counting then CSR fill (both directions). Offsets are
        // u32 (see [`crate::CsrOffset`]): reject graphs whose directed
        // slot count would overflow instead of silently wrapping.
        if norm.len() > (u32::MAX / 2) as usize {
            return Err(GraphError::Capacity(format!(
                "{} edges exceed the u32 CSR offset space",
                norm.len()
            )));
        }
        let mut deg = vec![0u32; n];
        for &(u, v) in &norm {
            deg[u.index()] += 1;
            deg[v.index()] += 1;
        }
        let mut adj_off: Vec<u32> = Vec::with_capacity(n + 1);
        adj_off.push(0);
        for d in &deg {
            adj_off.push(adj_off.last().unwrap() + d);
        }
        let mut cursor = adj_off[..n].to_vec();
        let mut adj = vec![VertexId(0); adj_off[n] as usize];
        for &(u, v) in &norm {
            adj[cursor[u.index()] as usize] = v;
            cursor[u.index()] += 1;
            adj[cursor[v.index()] as usize] = u;
            cursor[v.index()] += 1;
        }
        // Per-vertex adjacency sort (norm order already gives sorted lists for
        // the "forward" fills but not the reverse ones).
        for v in 0..n {
            adj[adj_off[v] as usize..adj_off[v + 1] as usize].sort_unstable();
        }

        // Keyword CSR.
        let mut kw_off: Vec<u32> = Vec::with_capacity(n + 1);
        kw_off.push(0);
        let mut kws = Vec::new();
        for set in &self.keyword_sets {
            kws.extend_from_slice(set);
            let end = u32::try_from(kws.len()).map_err(|_| {
                GraphError::Capacity("keyword slots exceed the u32 CSR offset space".into())
            })?;
            kw_off.push(end);
        }

        Ok(AttributedGraph {
            adj_off,
            adj,
            kw_off: Arc::new(kw_off),
            kws: Arc::new(kws),
            labels: Arc::new(self.labels.seal()?),
            interner: Arc::new(self.interner),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_edges_and_drops_self_loops() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex("u", &[]);
        let v = b.add_vertex("v", &[]);
        b.add_edge(u, v);
        b.add_edge(v, u);
        b.add_edge(u, v);
        b.add_edge(u, u);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(u), 1);
        assert_eq!(g.degree(v), 1);
    }

    #[test]
    fn keyword_sets_are_sorted_and_deduped() {
        let mut b = GraphBuilder::new();
        let v = b.add_vertex("v", &["z", "a", "z", "m"]);
        let g = b.build();
        let names = g.keyword_names(g.keywords(v));
        let mut sorted = names.clone();
        sorted.sort();
        // Ids are in intern order, but the set itself must be strictly sorted by id.
        assert_eq!(g.keywords(v).len(), 3);
        assert!(g.keywords(v).windows(2).all(|w| w[0] < w[1]));
        assert_eq!(names.len(), 3);
        assert_eq!(sorted, vec!["a", "m", "z"]);
    }

    #[test]
    fn add_keywords_extends_existing_vertex() {
        let mut b = GraphBuilder::new();
        let v = b.add_vertex("v", &["a"]);
        b.add_keywords(v, &["b", "a"]).unwrap();
        assert!(b.add_keywords(VertexId(9), &["x"]).is_err());
        let g = b.build();
        assert_eq!(g.keywords(v).len(), 2);
    }

    #[test]
    fn try_build_rejects_dangling_edges() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex("u", &[]);
        b.add_edge(u, VertexId(7));
        assert!(matches!(b.try_build(), Err(GraphError::VertexOutOfRange { vertex: 7, .. })));
    }

    #[test]
    fn duplicate_labels_allowed_by_default_first_wins() {
        let mut b = GraphBuilder::new();
        let first = b.add_vertex("dup", &[]);
        let _second = b.add_vertex("dup", &[]);
        let g = b.build();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.vertex_by_label("dup"), Some(first));
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.vertices().count(), 0);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut b = GraphBuilder::with_capacity(10, 10);
        let u = b.add_vertex("u", &["k"]);
        let v = b.add_vertex("v", &[]);
        b.add_edge(u, v);
        assert_eq!(b.vertex_count(), 2);
        assert_eq!(b.edge_records(), 1);
        assert_eq!(b.build().edge_count(), 1);
    }
}
