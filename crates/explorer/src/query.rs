//! Query specifications — what the browser's left panel sends.

use cx_graph::{AttributedGraph, VertexId};

use crate::error::ExplorerError;

/// How the query vertex (or vertices) is referenced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VertexRef {
    /// A single vertex by exact display label (case-insensitive fallback
    /// to the best `search_label_top` hit, as the UI's name box behaves).
    Label(String),
    /// A single vertex by id.
    Id(VertexId),
    /// Multiple query vertices by label (the "+" button in the UI —
    /// the multi-vertex ACQ variant).
    Labels(Vec<String>),
    /// Multiple query vertices by id.
    Ids(Vec<VertexId>),
}

/// A community-search query: vertex reference, minimum degree, and an
/// optional keyword selection (strings, resolved against the target
/// graph's vocabulary; unknown keywords are ignored).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    /// The query vertex (or vertices).
    pub vertex: VertexRef,
    /// Minimum internal degree k.
    pub k: u32,
    /// Selected keywords (empty = the algorithm's default, which for ACQ
    /// is all of `W(q)`).
    pub keywords: Vec<String>,
}

impl QuerySpec {
    /// Query by display label with `k = 1` and default keywords.
    pub fn by_label(label: impl Into<String>) -> Self {
        Self { vertex: VertexRef::Label(label.into()), k: 1, keywords: Vec::new() }
    }

    /// Query by vertex id with `k = 1` and default keywords.
    pub fn by_id(v: VertexId) -> Self {
        Self { vertex: VertexRef::Id(v), k: 1, keywords: Vec::new() }
    }

    /// Multi-vertex query by labels.
    pub fn by_labels<I: IntoIterator<Item = S>, S: Into<String>>(labels: I) -> Self {
        Self {
            vertex: VertexRef::Labels(labels.into_iter().map(Into::into).collect()),
            k: 1,
            keywords: Vec::new(),
        }
    }

    /// Sets the minimum degree (builder style).
    pub fn k(mut self, k: u32) -> Self {
        self.k = k;
        self
    }

    /// Sets the keyword selection (builder style).
    pub fn with_keywords<I: IntoIterator<Item = S>, S: Into<String>>(mut self, kws: I) -> Self {
        self.keywords = kws.into_iter().map(Into::into).collect();
        self
    }

    /// Resolves the query vertices against a graph. Single-vertex refs
    /// yield one element. Labels resolve exactly first, then through
    /// case-insensitive search (the top-ranked hit).
    pub fn resolve(&self, g: &AttributedGraph) -> Result<Vec<VertexId>, ExplorerError> {
        let resolve_label = |label: &str| -> Result<VertexId, ExplorerError> {
            if let Some(v) = g.vertex_by_label(label) {
                return Ok(v);
            }
            g.search_label_top(label, 1)
                .0
                .first()
                .copied()
                .ok_or_else(|| ExplorerError::UnknownVertex(label.to_owned()))
        };
        let out = match &self.vertex {
            VertexRef::Label(l) => vec![resolve_label(l)?],
            VertexRef::Id(v) => {
                g.check_vertex(*v)?;
                vec![*v]
            }
            VertexRef::Labels(ls) => {
                if ls.is_empty() {
                    return Err(ExplorerError::BadQuery("empty label list".into()));
                }
                ls.iter().map(|l| resolve_label(l)).collect::<Result<_, _>>()?
            }
            VertexRef::Ids(vs) => {
                if vs.is_empty() {
                    return Err(ExplorerError::BadQuery("empty vertex list".into()));
                }
                for &v in vs {
                    g.check_vertex(v)?;
                }
                vs.clone()
            }
        };
        Ok(out)
    }

    /// Resolves keyword strings to ids in `g`'s vocabulary, dropping
    /// unknown ones.
    pub fn resolve_keywords(&self, g: &AttributedGraph) -> Vec<cx_graph::KeywordId> {
        self.keywords.iter().filter_map(|k| g.interner().get(k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_datagen::figure5_graph;

    #[test]
    fn builders_compose() {
        let q = QuerySpec::by_label("jim gray").k(4).with_keywords(["data", "system"]);
        assert_eq!(q.k, 4);
        assert_eq!(q.keywords.len(), 2);
        assert!(matches!(q.vertex, VertexRef::Label(_)));
    }

    #[test]
    fn resolve_exact_and_fuzzy() {
        let g = figure5_graph();
        let exact = QuerySpec::by_label("A").resolve(&g).unwrap();
        assert_eq!(exact.len(), 1);
        assert_eq!(g.label(exact[0]), "A");
        // Case-insensitive fallback.
        let fuzzy = QuerySpec::by_label("a").resolve(&g).unwrap();
        assert_eq!(fuzzy, exact);
        assert!(QuerySpec::by_label("zzz").resolve(&g).is_err());
    }

    #[test]
    fn resolve_ids_validates_bounds() {
        let g = figure5_graph();
        assert!(QuerySpec::by_id(VertexId(0)).resolve(&g).is_ok());
        assert!(QuerySpec::by_id(VertexId(99)).resolve(&g).is_err());
    }

    #[test]
    fn multi_refs() {
        let g = figure5_graph();
        let q = QuerySpec::by_labels(["A", "D"]);
        assert_eq!(q.resolve(&g).unwrap().len(), 2);
        let empty = QuerySpec { vertex: VertexRef::Labels(vec![]), k: 1, keywords: vec![] };
        assert!(matches!(empty.resolve(&g), Err(ExplorerError::BadQuery(_))));
        let ids = QuerySpec { vertex: VertexRef::Ids(vec![]), k: 1, keywords: vec![] };
        assert!(ids.resolve(&g).is_err());
    }

    #[test]
    fn keyword_resolution_drops_unknown() {
        let g = figure5_graph();
        let q = QuerySpec::by_label("A").with_keywords(["x", "nope", "y"]);
        assert_eq!(q.resolve_keywords(&g).len(), 2);
    }
}
