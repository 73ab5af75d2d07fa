//! Spatial-aware community search (SAC) — the extension the paper cites
//! as reference \[3\] (Fang et al., "Effective community search over large
//! spatial graphs", PVLDB 10(6), 2017).
//!
//! Given vertex coordinates, a spatial-aware community is a connected
//! k-core containing q whose members are also *spatially close* — the
//! exact problem minimises the radius of a covering circle. We implement
//! the `AppInc`-style approximation from that paper: grow a disk centred
//! on the query vertex and binary-search the smallest radius whose
//! enclosed vertices contain a connected k-core with q. The result is a
//! 2-approximation of the optimal covering circle centred anywhere (the
//! optimal circle's radius is at least half the distance from q to its
//! farthest community member).
//!
//! Only the candidates the caller passes are sorted and probed. The
//! engine passes q's connected k-core, one preorder interval of the
//! CL-tree: a k-core found inside any disk lies inside that core, so
//! restricting to it changes no answer and bounds every probe by the
//! core's size instead of n.
//!
//! Coordinates live *beside* the attributed graph (a parallel slice), so
//! the substrate stays attribute-agnostic; generators in `cx-datagen`
//! produce area-clustered coordinates.

use cx_graph::{AttributedGraph, Community, VertexId};
use cx_kcore::connected_k_core_containing;

/// The result of a spatial community search.
#[derive(Debug, Clone)]
pub struct SpatialCommunity {
    /// The community (a connected k-core containing q).
    pub community: Community,
    /// Radius of the q-centred disk actually needed (max member distance).
    pub radius: f64,
}

/// Euclidean distance between two coordinate pairs.
pub fn distance(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

/// `AppInc`: the smallest q-centred disk containing a connected k-core
/// with q, by binary search over the distance-sorted prefixes of
/// `candidates`.
///
/// `coords[v]` is the position of vertex `v`; the slice must cover every
/// vertex. `candidates` must contain q's connected k-core (all vertices
/// will do). Returns `None` when no k-core containing q exists among them.
///
/// Cost: O(log |candidates|) subset-peel verifications over prefixes.
pub fn sac_appinc(
    g: &AttributedGraph,
    coords: &[(f64, f64)],
    candidates: &[VertexId],
    q: VertexId,
    k: u32,
) -> Option<SpatialCommunity> {
    assert_eq!(coords.len(), g.vertex_count(), "one coordinate per vertex");
    if !g.contains(q) {
        return None;
    }
    // Candidates sorted by distance from q (q itself first).
    let cq = coords[q.index()];
    let mut order: Vec<VertexId> = candidates.to_vec();
    order.sort_by(|&a, &b| {
        distance(coords[a.index()], cq)
            .partial_cmp(&distance(coords[b.index()], cq))
            .unwrap()
            .then(a.cmp(&b))
    });

    // Feasibility over all candidates first.
    connected_k_core_containing(g, &order, q, k)?;

    // Binary search the smallest feasible prefix length. Feasibility is
    // monotone in the prefix: more vertices can only help.
    let (mut lo, mut hi) = (k as usize + 1, order.len()); // need ≥ k+1 vertices
    let mut best: Option<Vec<VertexId>> = None;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match connected_k_core_containing(g, &order[..mid], q, k) {
            Some(core) => {
                best = Some(core);
                hi = mid;
            }
            None => lo = mid + 1,
        }
    }
    // `hi` is the minimal feasible prefix; make sure we hold its core.
    let core = match best {
        Some(c) if hi < order.len() => c,
        _ => connected_k_core_containing(g, &order[..hi.max(lo)], q, k)?,
    };
    let radius = core
        .iter()
        .map(|&v| distance(coords[v.index()], cq))
        .fold(0.0f64, f64::max);
    Some(SpatialCommunity { community: Community::structural(core), radius })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_graph::GraphBuilder;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// SAC over every vertex of `g`.
    fn sac_all(
        g: &AttributedGraph,
        coords: &[(f64, f64)],
        q: VertexId,
        k: u32,
    ) -> Option<SpatialCommunity> {
        let all: Vec<VertexId> = g.vertices().collect();
        sac_appinc(g, coords, &all, q, k)
    }

    /// Two triangles containing q=0: a near one (0,1,2) and a far one
    /// (0,3,4). SAC must pick the near one; plain Global would return the
    /// whole connected 2-core.
    fn two_triangles() -> (AttributedGraph, Vec<(f64, f64)>) {
        let mut b = GraphBuilder::new();
        for i in 0..5 {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        for (a, c) in [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)] {
            b.add_edge(v(a), v(c));
        }
        let coords = vec![(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (50.0, 0.0), (50.0, 1.0)];
        (b.build(), coords)
    }

    #[test]
    fn picks_the_spatially_close_core() {
        let (g, coords) = two_triangles();
        let sac = sac_all(&g, &coords, v(0), 2).unwrap();
        assert_eq!(sac.community.vertices(), &[v(0), v(1), v(2)]);
        assert!(sac.radius <= 1.0 + 1e-9, "radius {}", sac.radius);
        assert!(sac.community.min_internal_degree(&g) >= 2);
    }

    #[test]
    fn falls_back_to_far_vertices_when_needed() {
        // Remove the near triangle's closing edge: only the far triangle
        // remains a 2-core with q.
        let mut b = GraphBuilder::new();
        for i in 0..5 {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        for (a, c) in [(0, 1), (1, 2), (0, 3), (3, 4), (0, 4)] {
            b.add_edge(v(a), v(c));
        }
        let coords = vec![(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (50.0, 0.0), (50.0, 1.0)];
        let g = b.build();
        let sac = sac_all(&g, &coords, v(0), 2).unwrap();
        assert_eq!(sac.community.vertices(), &[v(0), v(3), v(4)]);
        assert!(sac.radius >= 50.0);
    }

    #[test]
    fn no_core_returns_none() {
        let (g, coords) = two_triangles();
        assert!(sac_all(&g, &coords, v(0), 3).is_none());
        assert!(sac_all(&g, &coords, v(99), 2).is_none());
    }

    #[test]
    fn radius_is_minimal_among_prefixes() {
        let (g, coords) = two_triangles();
        let sac = sac_all(&g, &coords, v(0), 2).unwrap();
        // Any strictly smaller q-centred disk must not contain a 2-core
        // with q: check the prefix just below the community's size.
        let cq = coords[0];
        let mut order: Vec<VertexId> = g.vertices().collect();
        order.sort_by(|&a, &b| {
            distance(coords[a.index()], cq)
                .partial_cmp(&distance(coords[b.index()], cq))
                .unwrap()
        });
        let within: Vec<VertexId> = order
            .iter()
            .copied()
            .filter(|&u| distance(coords[u.index()], cq) < sac.radius - 1e-9)
            .collect();
        assert!(
            cx_kcore::connected_k_core_containing(&g, &within, v(0), 2).is_none(),
            "a smaller disk should not suffice"
        );
    }

    #[test]
    #[should_panic(expected = "one coordinate per vertex")]
    fn coordinate_length_mismatch_panics() {
        let (g, _) = two_triangles();
        sac_all(&g, &[(0.0, 0.0)], v(0), 2);
    }
}
