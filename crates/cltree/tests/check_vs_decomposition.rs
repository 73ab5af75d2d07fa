//! CL-tree vs. first principles: the index must report the same core
//! numbers as the decomposition it was built from, and every subtree it
//! serves for `(q, k)` must be the connected k-core containing `q` —
//! validated structurally by cx-check's naive invariant checker.

use cx_check::invariants::check_core_numbers;
use cx_check::workload::{graph_matrix, query_workload};
use cx_check::Violation;
use cx_cltree::ClTree;
use cx_graph::Community;
use cx_kcore::CoreDecomposition;

#[test]
fn tree_core_numbers_match_decomposition_and_naive_peel() {
    for case in graph_matrix(&[70, 220], &[6, 13]) {
        let g = &case.graph;
        let tree = ClTree::build(g);
        let decomp = CoreDecomposition::compute(g);
        for v in g.vertices() {
            assert_eq!(tree.core(v), decomp.core(v), "{} v={v:?}", case.name);
        }
        let violations: Vec<Violation> = check_core_numbers(g, &|v| tree.core(v));
        assert!(violations.is_empty(), "{}: {violations:?}", case.name);
        assert_eq!(tree.max_core(), decomp.max_core());
    }
}

#[test]
fn subtree_for_query_is_the_connected_k_core() {
    for case in graph_matrix(&[90], &[8]) {
        let g = &case.graph;
        let tree = ClTree::build(g);
        for qc in query_workload(g, 8, 0xC17) {
            for k in 1..=4 {
                match tree.subtree_root_for(qc.q, k) {
                    Some(node) => {
                        let members = tree.subtree_vertices(node);
                        // Structural invariants: connected, q inside,
                        // min internal degree ≥ k — checked naively.
                        let c = Community::structural(members);
                        let violations =
                            cx_check::check_community(g, &c, &[qc.q], k);
                        assert!(
                            violations.is_empty(),
                            "{} q={:?} k={k}: {violations:?}",
                            case.name,
                            qc.q
                        );
                        // And it matches the direct computation.
                        let direct = tree.connected_k_core(qc.q, k).unwrap();
                        let mut a = c.vertices().to_vec();
                        let mut b = direct;
                        a.sort();
                        b.sort();
                        assert_eq!(a, b, "{} q={:?} k={k}", case.name, qc.q);
                    }
                    None => {
                        // No subtree ⇒ q's core number is below k.
                        assert!(
                            tree.core(qc.q) < k,
                            "{} q={:?} has core {} ≥ {k} but no subtree",
                            case.name,
                            qc.q,
                            tree.core(qc.q)
                        );
                    }
                }
            }
        }
    }
}

/// Every vertex and every k from 0 (q's component, not the whole graph)
/// to one past the degeneracy: the index's connected k-core is the
/// decomposition's breadth-first one.
#[test]
fn connected_k_core_matches_decomposition_from_k_zero() {
    for case in graph_matrix(&[90], &[8]) {
        let g = &case.graph;
        let tree = ClTree::build(g);
        let decomp = CoreDecomposition::compute(g);
        for q in g.vertices() {
            for k in 0..=decomp.max_core() + 1 {
                assert_eq!(
                    tree.connected_k_core(q, k),
                    decomp.connected_k_core(g, q, k),
                    "{} q={q:?} k={k}",
                    case.name
                );
            }
        }
    }
}
