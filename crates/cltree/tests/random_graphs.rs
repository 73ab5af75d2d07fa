//! Seeded random graphs with random keyword sets (self-loops and repeated
//! edges included): the tree's shape, its connected k-cores and its
//! keyword lists against the decomposition and direct scans. Every
//! assertion names its seed.

use cx_cltree::ClTree;
use cx_graph::{AttributedGraph, GraphBuilder, KeywordId, VertexId};
use cx_kcore::CoreDecomposition;
use cx_par::rng::Rng64;

/// 2..=40 vertices carrying up to three of eight keywords, with up to 3n
/// random vertex pairs.
fn random_graph(seed: u64) -> AttributedGraph {
    let mut rng = Rng64::seed_from_u64(0xC17 ^ seed);
    let n = rng.gen_range(2..=40u32);
    let mut b = GraphBuilder::new();
    for i in 0..n {
        let kws: Vec<String> =
            (0..rng.gen_range(0..4u32)).map(|_| format!("kw{}", rng.gen_range(0..8u32))).collect();
        b.add_vertex(&format!("v{i}"), &kws.iter().map(String::as_str).collect::<Vec<_>>());
    }
    for _ in 0..rng.gen_range(0..3 * n) {
        b.add_edge(VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n)));
    }
    b.build()
}

#[test]
fn tree_shape_and_answers_match_direct_computation() {
    for seed in 0..48u64 {
        let g = random_graph(seed);
        let cd = CoreDecomposition::compute(&g);
        let t = ClTree::build_with(&g, &cd);
        assert_eq!(t.max_core(), cd.max_core(), "seed={seed}");

        // Every vertex lives in exactly one node; children sit strictly
        // deeper and point back at their parent; one root; linear space.
        let mut homes = vec![0usize; g.vertex_count()];
        for (id, node) in t.iter_nodes() {
            for &v in t.residents(id) {
                homes[v.index()] += 1;
            }
            for &c in &node.children {
                assert!(t.node(c).level > node.level, "seed={seed}: child {c:?} of {id:?}");
                assert_eq!(t.node(c).parent, Some(id), "seed={seed}: child {c:?} of {id:?}");
            }
            if let Some(p) = node.parent {
                assert!(t.node(p).children.contains(&id), "seed={seed}: parent of {id:?}");
            }
        }
        assert!(homes.iter().all(|&h| h == 1), "seed={seed}: homes {homes:?}");
        let roots = t.iter_nodes().filter(|(_, node)| node.parent.is_none()).count();
        assert_eq!(roots, 1, "seed={seed}");
        assert!(t.node_count() <= g.vertex_count() + 1, "seed={seed}");

        for q in g.vertices() {
            for k in 0..=cd.max_core() + 1 {
                assert_eq!(
                    t.connected_k_core(q, k),
                    cd.connected_k_core(&g, q, k),
                    "seed={seed} q={q:?} k={k}"
                );
            }
            let k = t.core(q);
            if k == 0 {
                continue;
            }
            let core = cd.connected_k_core(&g, q, k).expect("q lies in its own core");
            for w in (0..g.keyword_count() as u32).map(KeywordId) {
                let direct: Vec<VertexId> =
                    core.iter().copied().filter(|&v| g.has_keyword(v, w)).collect();
                assert_eq!(
                    t.keyword_vertices_in_k_core(q, k, w),
                    Some(direct),
                    "seed={seed} q={q:?} k={k} w={w:?}"
                );
            }
        }
    }
}
