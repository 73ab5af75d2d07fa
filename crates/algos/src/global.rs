//! `Global` — the community-search algorithm of Sozio & Gionis
//! ("The community-search problem and how to plan a successful cocktail
//! party", SIGKDD 2010), in the fixed-k form C-Explorer's UI drives
//! ("Structure: degree ≥ k"): the connected k-core containing q. This is
//! why Global's community in Figure 6(a) is an order of magnitude larger
//! than everyone else's — it is the *entire* connected k-core.
//!
//! The engine answers it from the CL-tree: the connected k-core of q is
//! one preorder interval of the index (`ClTree::connected_k_core`), so a
//! served query peels nothing. [`Global::fixed_k`] is the index-free
//! reference the tests, E11 and cx-check hold that lookup to.

use cx_graph::{AttributedGraph, Community, VertexId};
use cx_kcore::PeelScratch;

/// The Sozio–Gionis global peeling algorithm. Stateless; methods take the
/// graph explicitly so one instance can serve many graphs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Global;

impl Global {
    /// The connected k-core containing `q` (`None` if q is peeled away).
    ///
    /// Runs a whole-graph peel — O(n + m) regardless of the answer size,
    /// which is exactly the inefficiency `Local` was invented to avoid.
    /// It peels with [`PeelScratch`], not [`cx_kcore::CoreDecomposition`],
    /// so it shares no code with the CL-tree it is the reference for.
    pub fn fixed_k(&self, g: &AttributedGraph, q: VertexId, k: u32) -> Option<Community> {
        let all: Vec<VertexId> = g.vertices().collect();
        let mut core = Vec::new();
        PeelScratch::new()
            .connected_k_core_containing_into(g, &all, &[q], k, &mut core)
            .then(|| Community::structural(core))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_datagen::{figure5_graph, small_collab_graph};

    #[test]
    fn fixed_k_is_whole_connected_core() {
        let g = figure5_graph();
        let a = g.vertex_by_label("A").unwrap();
        let c = Global.fixed_k(&g, a, 2).unwrap();
        assert_eq!(c.len(), 5); // {A,B,C,D,E}
        assert!(c.min_internal_degree(&g) >= 2);
        let c3 = Global.fixed_k(&g, a, 3).unwrap();
        assert_eq!(c3.len(), 4); // the K4
        assert!(Global.fixed_k(&g, a, 4).is_none());
    }

    #[test]
    fn fixed_k_invalid_vertex() {
        let g = figure5_graph();
        assert!(Global.fixed_k(&g, VertexId(99), 1).is_none());
    }

    #[test]
    fn isolated_query_vertex() {
        let g = figure5_graph();
        let j = g.vertex_by_label("J").unwrap();
        assert_eq!(Global.fixed_k(&g, j, 0).unwrap().vertices(), &[j]);
        assert!(Global.fixed_k(&g, j, 1).is_none());
    }

    #[test]
    fn collab_bridge_gets_its_denser_side() {
        let g = small_collab_graph();
        let bridge = g.vertex_by_label("bridge").unwrap();
        let c = Global.fixed_k(&g, bridge, 3).unwrap();
        // At k=3 the bridge (degree 6, three into each clique) survives
        // only if its side groups do; the connected 3-core spans both
        // near-cliques plus the bridge.
        assert!(c.contains(bridge));
        assert!(c.min_internal_degree(&g) >= 3);
        assert!(c.len() >= 14);
    }
}
