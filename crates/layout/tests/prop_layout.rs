//! Property tests for the layout engine: every algorithm must place every
//! member finitely and inside the viewport after fitting, for arbitrary
//! community shapes.
//!
//! Gated behind the non-default `proptest` feature: the build environment
//! is offline, so the `proptest` dev-dependency is not in the manifest.
//! Restore it (and `rand`) before enabling the feature in a networked
//! environment — see DESIGN.md "Offline build policy".
#![cfg(feature = "proptest")]

use proptest::prelude::*;

use cx_graph::{AttributedGraph, Community, GraphBuilder, VertexId};
use cx_layout::{layout_community, LayoutAlgorithm};

fn arb_graph_and_members() -> impl Strategy<Value = (AttributedGraph, Vec<VertexId>)> {
    (2usize..25).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..(3 * n));
        let member_mask = proptest::collection::vec(any::<bool>(), n);
        (Just(n), edges, member_mask).prop_map(|(n, edges, mask)| {
            let mut b = GraphBuilder::new();
            for i in 0..n {
                b.add_vertex(&format!("v{i}"), &[]);
            }
            for (u, v) in edges {
                b.add_edge(VertexId(u), VertexId(v));
            }
            let mut members: Vec<VertexId> = mask
                .iter()
                .enumerate()
                .filter(|(_, &m)| m)
                .map(|(i, _)| VertexId(i as u32))
                .collect();
            if members.is_empty() {
                members.push(VertexId(0));
            }
            (b.build(), members)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_algorithms_fit_the_viewport(
        (g, members) in arb_graph_and_members(),
        seed in 0u64..50,
    ) {
        let c = Community::structural(members.clone());
        for algo in [
            LayoutAlgorithm::default_force(),
            LayoutAlgorithm::KamadaKawai { iterations: 20 },
            LayoutAlgorithm::Circular,
            LayoutAlgorithm::Shell,
        ] {
            let scene = layout_community(&g, &c, algo, members.first().copied(), 640.0, 480.0, seed);
            prop_assert_eq!(scene.vertex_count(), c.len());
            prop_assert!(scene.in_bounds(), "{:?} out of bounds", algo);
            for &(_, p) in &scene.vertices {
                prop_assert!(p.x.is_finite() && p.y.is_finite(), "{:?} produced NaN", algo);
            }
            // Edge indices are valid and reference actual graph edges.
            for &(i, j) in &scene.edges {
                prop_assert!(i < scene.vertex_count() && j < scene.vertex_count());
                let (u, v) = (scene.vertices[i].0, scene.vertices[j].0);
                prop_assert!(g.has_edge(u, v));
            }
            // The renderer never panics and stays structurally sane.
            let svg = scene.to_svg();
            prop_assert!(svg.starts_with("<svg"));
        }
    }

    #[test]
    fn layouts_are_deterministic(
        (g, members) in arb_graph_and_members(),
        seed in 0u64..20,
    ) {
        let c = Community::structural(members);
        for algo in [
            LayoutAlgorithm::default_force(),
            LayoutAlgorithm::KamadaKawai { iterations: 15 },
        ] {
            let a = layout_community(&g, &c, algo, None, 100.0, 100.0, seed);
            let b = layout_community(&g, &c, algo, None, 100.0, 100.0, seed);
            for (pa, pb) in a.vertices.iter().zip(&b.vertices) {
                prop_assert_eq!(pa.0, pb.0);
                prop_assert!((pa.1.x - pb.1.x).abs() < 1e-12);
                prop_assert!((pa.1.y - pb.1.y).abs() < 1e-12);
            }
        }
    }
}
