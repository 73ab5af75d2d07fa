//! The CL-tree's preorder columns and keyword postings against brute
//! force, on seeded graphs: what `carriers` answers with two binary
//! searches must be what a scan of the subtree finds, and a tree repaired
//! by `update` must lay its columns out exactly as a fresh `build` does.

use cx_cltree::{ClTree, NodeId};
use cx_datagen::{dblp_like, figure5_graph, DblpParams};
use cx_graph::{AttributedGraph, KeywordId, VertexId};
use cx_kcore::CoreDecomposition;
use cx_par::rng::Rng64;

fn keywords(g: &AttributedGraph) -> impl Iterator<Item = KeywordId> {
    (0..g.keyword_count() as u32).map(KeywordId)
}

/// The brute-force column invariants live in cx-check (its matrix runs
/// them on every graph too): `order` a permutation with `rank_of` its
/// inverse, intervals nested and tiled by the children after the
/// residents, every posting list strictly ascending, and `carriers` equal
/// to a scan of the subtree for every node and keyword.
fn check_columns(g: &AttributedGraph, t: &ClTree) {
    assert_eq!(cx_check::invariants::check_tree_columns(g, t), Vec::new());
    for (id, _) in t.iter_nodes() {
        for w in keywords(g) {
            assert_eq!(t.carriers(id, w), &t.postings()[t.carrier_span(t.subtree_ranks(id), w)]);
        }
    }
}

/// Id-independent encoding of a subtree: level, residents, every keyword's
/// carriers, and the children's encodings as a multiset.
fn canon(g: &AttributedGraph, t: &ClTree, id: NodeId) -> String {
    let mut kids: Vec<String> = t.children(id).map(|c| canon(g, t, c)).collect();
    kids.sort();
    let carriers: Vec<(u32, Vec<u32>)> = keywords(g)
        .map(|w| (w.0, t.carrier_vertices(id, w).iter().map(|v| v.0).collect::<Vec<_>>()))
        .filter(|(_, vs)| !vs.is_empty())
        .collect();
    format!(
        "(l{} v{:?} c{:?} [{}])",
        t.node(id).level,
        t.residents(id).iter().map(|v| v.0).collect::<Vec<_>>(),
        carriers,
        kids.join(",")
    )
}

#[test]
fn columns_match_brute_force_on_figure5() {
    let g = figure5_graph();
    check_columns(&g, &ClTree::build(&g));
}

#[test]
fn columns_match_brute_force_on_seeded_dblp_graphs() {
    let mut rng = Rng64::seed_from_u64(0xC01);
    for seed in 0..20 {
        let authors = rng.gen_range(60..=800usize);
        let (g, _) = dblp_like(&DblpParams::scaled(authors, seed));
        check_columns(&g, &ClTree::build(&g));
    }
}

/// Every step either shares the old tree (`unchanged_by` holds, so a
/// fresh build must equal the *old* tree) or repairs it (`update` must
/// equal a fresh build, with postings that are a scatter over its own
/// order). Every fourth step inserts an edge inside one connected k-core,
/// the kind of edit the sharing rule is for; both branches must be taken.
#[test]
fn two_hundred_edits_keep_update_equal_to_build() {
    for (seed, authors) in [(3u64, 120usize), (4, 400)] {
        let (mut g, _) = dblp_like(&DblpParams::scaled(authors, seed));
        let n = g.vertex_count() as u32;
        let mut rng = Rng64::seed_from_u64(0xED17 ^ seed);
        let mut tree = ClTree::build(&g);
        let (mut shared, mut repaired) = (0, 0);
        for step in 0..200 {
            let (mut add, mut remove) = (Vec::new(), Vec::new());
            if step % 4 == 3 {
                // An insert inside u's connected k-core, k = core(u).
                let u = VertexId(rng.gen_range(0..n));
                let same = tree.connected_k_core(u, tree.core(u).max(1)).unwrap_or_default();
                if !same.is_empty() {
                    add.push((u, same[rng.gen_range(0..same.len() as u32) as usize]));
                }
            } else {
                for _ in 0..rng.gen_range(1..4u32) {
                    let u = VertexId(rng.gen_range(0..n));
                    if rng.gen_bool(0.5) || g.degree(u) == 0 {
                        add.push((u, VertexId(rng.gen_range(0..n))));
                    } else {
                        let nbrs = g.neighbors(u);
                        remove.push((u, nbrs[rng.gen_range(0..nbrs.len())]));
                    }
                }
            }
            add.retain(|(u, v)| u != v);
            let delta = g.edge_delta(&add, &remove).unwrap();
            let g2 = g.apply_delta(&delta);
            let cores = CoreDecomposition::compute(&g2).core_numbers().to_vec();
            let fresh = ClTree::build(&g2);
            let want = canon(&g2, &fresh, fresh.root());
            let next = if tree.unchanged_by(&delta, &cores) {
                shared += 1;
                assert_eq!(canon(&g2, &tree, tree.root()), want, "seed {seed} step {step}: shared");
                tree
            } else {
                repaired += 1;
                let updated = tree.update(&g2, &delta, &cores);
                assert_eq!(canon(&g2, &updated, updated.root()), want, "seed {seed} step {step}");
                assert_eq!(cx_check::invariants::check_tree_columns(&g2, &updated), Vec::new());
                updated
            };
            if step % 50 == 49 {
                check_columns(&g2, &next);
            }
            g = g2;
            tree = next;
        }
        assert!(shared > 0 && repaired > 0, "seed {seed}: {shared} shared, {repaired} repaired");
    }
}
