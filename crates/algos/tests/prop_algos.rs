//! Property tests for Global / Local / CODICIL on random graphs.
//!
//! Gated behind the non-default `proptest` feature: the build environment
//! is offline, so the `proptest` dev-dependency is not in the manifest.
//! Restore it (and `rand`) before enabling the feature in a networked
//! environment — see DESIGN.md "Offline build policy".
#![cfg(feature = "proptest")]

use proptest::prelude::*;

use cx_algos::{Codicil, Global, Local};
use cx_graph::{AttributedGraph, GraphBuilder, VertexId};
use cx_kcore::CoreDecomposition;

fn arb_graph(max_n: usize) -> impl Strategy<Value = AttributedGraph> {
    (3..=max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..(3 * n));
        let kws = proptest::collection::vec(proptest::collection::vec(0u8..6, 0..4), n);
        (Just(n), edges, kws).prop_map(|(n, edges, kws)| {
            let mut b = GraphBuilder::new();
            for (i, ks) in kws.iter().enumerate() {
                let names: Vec<String> = ks.iter().map(|k| format!("kw{k}")).collect();
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                b.add_vertex(&format!("v{i}"), &refs);
            }
            for (u, v) in edges {
                b.add_edge(VertexId(u), VertexId(v));
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn global_fixed_k_equals_decomposition(g in arb_graph(25), qi in 0u32..25, k in 1u32..4) {
        let q = VertexId(qi % g.vertex_count() as u32);
        let from_global = Global.fixed_k(&g, q, k).map(|c| c.vertices().to_vec());
        let cd = CoreDecomposition::compute(&g);
        let direct = cd.connected_k_core(&g, q, k);
        prop_assert_eq!(from_global, direct);
    }

    #[test]
    fn local_answer_is_valid_and_inside_global(g in arb_graph(25), qi in 0u32..25, k in 1u32..4) {
        let q = VertexId(qi % g.vertex_count() as u32);
        let local = Local { max_candidates: 0, check_every: 1 }.fixed_k(&g, q, k);
        let global = Global.fixed_k(&g, q, k);
        match (&local, &global) {
            (Some(l), Some(gl)) => {
                prop_assert!(l.contains(q));
                prop_assert!(l.min_internal_degree(&g) >= k as usize);
                for &v in l.vertices() {
                    prop_assert!(gl.contains(v));
                }
            }
            // With an unlimited budget Local must succeed iff Global does.
            (None, None) => {}
            (l, gl) => prop_assert!(false, "local={:?} global={:?}", l.is_some(), gl.is_some()),
        }
    }

    #[test]
    fn codicil_labels_are_a_partition(g in arb_graph(20)) {
        let clustering = Codicil::default().detect(&g);
        prop_assert_eq!(clustering.labels.len(), g.vertex_count());
        let member_total: usize = clustering.communities.iter().map(|c| c.len()).sum();
        prop_assert_eq!(member_total, g.vertex_count());
        // Labels are dense 0..count.
        let max = clustering.labels.iter().copied().max().unwrap_or(0);
        if !clustering.labels.is_empty() {
            prop_assert_eq!(max + 1, clustering.cluster_count());
        }
    }
}

/// Unit-capacity max-flow (BFS augmenting paths) between two vertices of
/// an induced subgraph — the reference for edge connectivity.
fn max_edge_disjoint_paths(
    g: &AttributedGraph,
    members: &[VertexId],
    s: VertexId,
    t: VertexId,
) -> usize {
    use std::collections::{HashMap, HashSet, VecDeque};
    let member_set: HashSet<VertexId> = members.iter().copied().collect();
    // Residual capacities on directed arcs (1 each way per undirected edge).
    let mut cap: HashMap<(u32, u32), i32> = HashMap::new();
    for &u in members {
        for &v in g.neighbors(u) {
            if member_set.contains(&v) {
                cap.insert((u.0, v.0), 1);
            }
        }
    }
    let mut flow = 0;
    loop {
        // BFS for an augmenting path.
        let mut prev: HashMap<u32, u32> = HashMap::new();
        let mut q = VecDeque::from([s.0]);
        let mut seen: HashSet<u32> = HashSet::from([s.0]);
        while let Some(u) = q.pop_front() {
            for &v in g.neighbors(VertexId(u)) {
                if member_set.contains(&v)
                    && !seen.contains(&v.0)
                    && cap.get(&(u, v.0)).copied().unwrap_or(0) > 0
                {
                    seen.insert(v.0);
                    prev.insert(v.0, u);
                    q.push_back(v.0);
                }
            }
        }
        if !seen.contains(&t.0) {
            return flow;
        }
        // Augment along the path.
        let mut v = t.0;
        while v != s.0 {
            let u = prev[&v];
            *cap.get_mut(&(u, v)).unwrap() -= 1;
            *cap.entry((v, u)).or_insert(0) += 1;
            v = u;
        }
        flow += 1;
    }
}

/// k-ECC search inside the peeled connected k-core of q.
fn kecc(g: &AttributedGraph, q: VertexId, k: u32) -> Option<cx_graph::Community> {
    let core = Global.fixed_k(g, q, k)?;
    cx_algos::kecc_community(g, core.vertices(), q, k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// The k-ECC answer really is k-edge-connected: max-flow between the
    /// query vertex and every other member is ≥ k (Menger's theorem).
    #[test]
    fn kecc_answer_is_k_edge_connected(g in arb_graph(14), qi in 0u32..14, k in 2u32..4) {
        let q = VertexId(qi % g.vertex_count() as u32);
        if let Some(c) = kecc(&g, q, k) {
            prop_assert!(c.contains(q));
            prop_assert!(c.len() >= 2);
            for &v in c.vertices() {
                if v != q {
                    let paths = max_edge_disjoint_paths(&g, c.vertices(), q, v);
                    prop_assert!(
                        paths >= k as usize,
                        "only {} edge-disjoint paths q={} v={} (k={})",
                        paths, q.0, v.0, k
                    );
                }
            }
        }
    }

    /// The k-ECC answer is contained in Global's connected k-core (edge
    /// connectivity implies min degree).
    #[test]
    fn kecc_within_k_core(g in arb_graph(16), qi in 0u32..16, k in 2u32..4) {
        let q = VertexId(qi % g.vertex_count() as u32);
        if let Some(c) = kecc(&g, q, k) {
            let core = Global.fixed_k(&g, q, k).expect("kECC implies k-core");
            for &v in c.vertices() {
                prop_assert!(core.contains(v));
            }
            prop_assert!(c.min_internal_degree(&g) >= k as usize);
        }
    }
}
