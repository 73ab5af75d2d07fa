//! Core-decomposition differential: the bucket peel in cx-kcore against
//! the naive fixpoint reference inside cx-check.

use cx_check::invariants::check_core_numbers;
use cx_check::workload::graph_matrix;
use cx_kcore::CoreDecomposition;

#[test]
fn decomposition_matches_naive_peel() {
    for case in graph_matrix(&[80, 250], &[2, 9]) {
        let g = &case.graph;
        let d = CoreDecomposition::compute(g);
        let violations = check_core_numbers(g, &|v| d.core(v));
        assert!(violations.is_empty(), "{}: {violations:?}", case.name);
    }
}
