//! The plug-in algorithm traits — the Rust rendering of the paper's Java
//! `CSAlgorithm` / `CDAlgorithm` interfaces.

use cx_cltree::ClTree;
use cx_graph::{AttributedGraph, Community, VertexId};
use cx_kcore::truss::{truss_communities, TrussDecomposition};

use crate::query::QuerySpec;

/// Everything an algorithm may consult about the target graph: the graph
/// itself and the engine's CL-tree index over it (built at upload time by
/// the Indexing module; algorithms that don't need it just ignore it).
pub struct GraphContext<'a> {
    /// The attributed graph.
    pub graph: &'a AttributedGraph,
    /// The CL-tree index over `graph`.
    pub tree: &'a ClTree,
}

/// A community-*search* algorithm: query-based, online.
///
/// Implement this and register with [`crate::Engine::register_cs`] to make
/// a new CS method available to `search` and comparison analysis.
pub trait CsAlgorithm: Send + Sync {
    /// Registry name (lower-case, stable; used in queries and reports).
    fn name(&self) -> &str;

    /// Retrieves the communities of the (already resolved) query vertices.
    /// Single-vertex algorithms may ignore everything past `qs[0]`.
    fn search(&self, ctx: &GraphContext<'_>, qs: &[VertexId], spec: &QuerySpec) -> Vec<Community>;
}

/// A community-*detection* algorithm: clusters the whole graph.
///
/// Register with [`crate::Engine::register_cd`] to appear in `detect`,
/// `search` and comparison analysis; the engine runs `detect` at most
/// once per graph snapshot and memoises the clustering.
pub trait CdAlgorithm: Send + Sync {
    /// Registry name.
    fn name(&self) -> &str;

    /// Detects all communities of the graph.
    fn detect(&self, ctx: &GraphContext<'_>) -> Vec<Community>;
}

// ---- Built-in algorithm adapters -------------------------------------

/// ACQ (the `Dec` strategy) behind the [`CsAlgorithm`] trait; several
/// query vertices ask for communities holding all of them.
pub struct AcqAlgorithm;

impl CsAlgorithm for AcqAlgorithm {
    fn name(&self) -> &str {
        "acq"
    }

    fn search(&self, ctx: &GraphContext<'_>, qs: &[VertexId], spec: &QuerySpec) -> Vec<Community> {
        let keywords = spec.resolve_keywords(ctx.graph);
        let opts = cx_acq::AcqOptions::with_k(spec.k).keywords(keywords);
        cx_acq::acq_set(ctx.graph, ctx.tree, qs, &opts, cx_acq::AcqStrategy::Dec).communities
    }
}

/// Global (fixed-k connected k-core) behind the trait, answered from the
/// CL-tree without a peel.
pub struct GlobalAlgorithm;

impl CsAlgorithm for GlobalAlgorithm {
    fn name(&self) -> &str {
        "global"
    }

    fn search(&self, ctx: &GraphContext<'_>, qs: &[VertexId], spec: &QuerySpec) -> Vec<Community> {
        qs.first()
            .and_then(|&q| ctx.tree.connected_k_core(q, spec.k))
            .map(Community::structural)
            .into_iter()
            .collect()
    }
}

/// Local expansion behind the trait.
pub struct LocalAlgorithm;

impl CsAlgorithm for LocalAlgorithm {
    fn name(&self) -> &str {
        "local"
    }

    fn search(&self, ctx: &GraphContext<'_>, qs: &[VertexId], spec: &QuerySpec) -> Vec<Community> {
        let Some(&q) = qs.first() else { return Vec::new() };
        cx_algos::Local::new().fixed_k(ctx.graph, q, spec.k).into_iter().collect()
    }
}

/// k-truss community search behind the trait (`k` is the truss parameter).
pub struct KTrussAlgorithm;

impl CsAlgorithm for KTrussAlgorithm {
    fn name(&self) -> &str {
        "ktruss"
    }

    fn search(&self, ctx: &GraphContext<'_>, qs: &[VertexId], spec: &QuerySpec) -> Vec<Community> {
        let Some(&q) = qs.first() else { return Vec::new() };
        let td = TrussDecomposition::compute(ctx.graph);
        truss_communities(ctx.graph, &td, q, spec.k.max(2))
    }
}

/// k-edge-connected community search behind the trait, run inside q's
/// connected k-core.
pub struct KEccAlgorithm;

impl CsAlgorithm for KEccAlgorithm {
    fn name(&self) -> &str {
        "kecc"
    }

    fn search(&self, ctx: &GraphContext<'_>, qs: &[VertexId], spec: &QuerySpec) -> Vec<Community> {
        let Some(&q) = qs.first() else { return Vec::new() };
        ctx.tree
            .connected_k_core(q, spec.k)
            .and_then(|core| cx_algos::kecc_community(ctx.graph, &core, q, spec.k))
            .into_iter()
            .collect()
    }
}

/// CODICIL behind the [`CdAlgorithm`] trait.
#[derive(Default)]
pub struct CodicilAlgorithm {
    /// Pipeline parameters.
    pub params: cx_algos::CodicilParams,
}

impl CdAlgorithm for CodicilAlgorithm {
    fn name(&self) -> &str {
        "codicil"
    }

    fn detect(&self, ctx: &GraphContext<'_>) -> Vec<Community> {
        cx_algos::Codicil::new(self.params.clone()).detect(ctx.graph).communities
    }
}

/// Louvain modularity detection behind the [`CdAlgorithm`] trait.
#[derive(Default)]
pub struct LouvainAlgorithm {
    /// Tuning parameters.
    pub params: cx_algos::LouvainParams,
}

impl CdAlgorithm for LouvainAlgorithm {
    fn name(&self) -> &str {
        "louvain"
    }

    fn detect(&self, ctx: &GraphContext<'_>) -> Vec<Community> {
        cx_algos::Louvain::new(self.params.clone()).detect(ctx.graph).communities
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_datagen::figure5_graph;

    #[test]
    fn acq_adapter_runs_paper_example() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        let ctx = GraphContext { graph: &g, tree: &tree };
        let q = g.vertex_by_label("A").unwrap();
        let spec = QuerySpec::by_label("A").k(2);
        let out = AcqAlgorithm.search(&ctx, &[q], &spec);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 3);
    }

    #[test]
    fn adapter_names_are_stable() {
        assert_eq!(AcqAlgorithm.name(), "acq");
        assert_eq!(GlobalAlgorithm.name(), "global");
        assert_eq!(LocalAlgorithm.name(), "local");
        assert_eq!(KTrussAlgorithm.name(), "ktruss");
        assert_eq!(CodicilAlgorithm::default().name(), "codicil");
    }

    #[test]
    fn empty_query_vector_is_harmless() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        let ctx = GraphContext { graph: &g, tree: &tree };
        let spec = QuerySpec::by_label("A");
        assert!(AcqAlgorithm.search(&ctx, &[], &spec).is_empty());
        assert!(GlobalAlgorithm.search(&ctx, &[], &spec).is_empty());
        assert!(LocalAlgorithm.search(&ctx, &[], &spec).is_empty());
        assert!(KTrussAlgorithm.search(&ctx, &[], &spec).is_empty());
    }
}
