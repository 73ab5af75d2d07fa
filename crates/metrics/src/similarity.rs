//! Similarity analysis between community result sets — the "Similarity
//! Analysis" panel — plus NMI for scoring detection against ground truth.

use cx_graph::{AttributedGraph, Community};

/// Newman modularity `Q` of a full vertex labeling:
/// `Q = Σ_c (e_c/m − (d_c/2m)²)` where `e_c` is the number of edges inside
/// community c and `d_c` the sum of its members' degrees. In [−0.5, 1];
/// higher means denser-than-chance communities. 0 for an edgeless graph.
///
/// # Panics
/// Panics if `labels` does not cover every vertex of `g`.
pub fn modularity(g: &AttributedGraph, labels: &[usize]) -> f64 {
    assert_eq!(labels.len(), g.vertex_count(), "one label per vertex");
    let m = g.edge_count() as f64;
    if m == 0.0 {
        return 0.0;
    }
    let k = labels.iter().copied().max().map_or(0, |x| x + 1);
    let mut internal = vec![0.0f64; k];
    let mut degree = vec![0.0f64; k];
    for (u, v) in g.edges() {
        if labels[u.index()] == labels[v.index()] {
            internal[labels[u.index()]] += 1.0;
        }
    }
    for v in g.vertices() {
        degree[labels[v.index()]] += g.degree(v) as f64;
    }
    (0..k)
        .map(|c| internal[c] / m - (degree[c] / (2.0 * m)).powi(2))
        .sum()
}

/// Pairwise vertex-set Jaccard matrix between two result sets:
/// `m[i][j] = J(a[i], b[j])`. Used by the UI to show which communities of
/// two algorithms correspond.
pub fn pairwise_jaccard_matrix(a: &[Community], b: &[Community]) -> Vec<Vec<f64>> {
    a.iter().map(|ca| b.iter().map(|cb| ca.vertex_jaccard(cb)).collect()).collect()
}

/// Best-match F1 between two result sets: for each community in `a`, take
/// the best F1 against any community of `b`, then average (asymmetric;
/// call twice and average for a symmetric score). 0 when `a` is empty.
pub fn f1_score(a: &[Community], b: &[Community]) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    let f1 = |x: &Community, y: &Community| -> f64 {
        let inter = x.vertices().iter().filter(|v| y.contains(**v)).count();
        if inter == 0 {
            return 0.0;
        }
        let p = inter as f64 / y.len() as f64;
        let r = inter as f64 / x.len() as f64;
        2.0 * p * r / (p + r)
    };
    let total: f64 = a
        .iter()
        .map(|ca| b.iter().map(|cb| f1(ca, cb)).fold(0.0f64, f64::max))
        .sum();
    total / a.len() as f64
}

/// Normalised mutual information between two full labelings of the same
/// vertex set (e.g. CODICIL's clustering vs the planted ground truth).
/// Returns a value in [0, 1]; 1 for identical partitions (up to renaming),
/// and by convention 1 when both partitions are single clusters.
///
/// # Panics
/// Panics if the labelings have different lengths.
pub fn nmi(a: &[usize], b: &[usize]) -> f64 {
    assert_eq!(a.len(), b.len(), "labelings must cover the same vertices");
    let n = a.len();
    if n == 0 {
        return 1.0;
    }
    let ka = a.iter().copied().max().unwrap() + 1;
    let kb = b.iter().copied().max().unwrap() + 1;
    let mut joint = vec![vec![0usize; kb]; ka];
    let mut ca = vec![0usize; ka];
    let mut cb = vec![0usize; kb];
    for i in 0..n {
        joint[a[i]][b[i]] += 1;
        ca[a[i]] += 1;
        cb[b[i]] += 1;
    }
    let nf = n as f64;
    let mut mi = 0.0;
    for i in 0..ka {
        for j in 0..kb {
            let nij = joint[i][j] as f64;
            if nij > 0.0 {
                mi += (nij / nf) * ((nij * nf) / (ca[i] as f64 * cb[j] as f64)).ln();
            }
        }
    }
    let h = |counts: &[usize]| -> f64 {
        counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / nf;
                -p * p.ln()
            })
            .sum()
    };
    let (ha, hb) = (h(&ca), h(&cb));
    if ha == 0.0 && hb == 0.0 {
        return 1.0; // both trivial partitions
    }
    if ha == 0.0 || hb == 0.0 {
        return 0.0; // one trivial, one not
    }
    (mi / (ha * hb).sqrt()).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_graph::VertexId;

    fn c(ids: &[u32]) -> Community {
        Community::structural(ids.iter().map(|&i| VertexId(i)).collect())
    }

    #[test]
    fn jaccard_matrix_shape_and_values() {
        let a = vec![c(&[0, 1, 2]), c(&[5])];
        let b = vec![c(&[1, 2, 3])];
        let m = pairwise_jaccard_matrix(&a, &b);
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].len(), 1);
        assert!((m[0][0] - 0.5).abs() < 1e-12);
        assert_eq!(m[1][0], 0.0);
    }

    #[test]
    fn f1_perfect_and_disjoint() {
        let a = vec![c(&[0, 1, 2])];
        assert!((f1_score(&a, &a) - 1.0).abs() < 1e-12);
        let b = vec![c(&[7, 8])];
        assert_eq!(f1_score(&a, &b), 0.0);
        assert_eq!(f1_score(&[], &a), 0.0);
    }

    #[test]
    fn f1_partial_overlap() {
        // a = {0,1}, b = {1,2}: inter 1, p = 1/2, r = 1/2, f1 = 1/2.
        let a = vec![c(&[0, 1])];
        let b = vec![c(&[1, 2])];
        assert!((f1_score(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nmi_identical_up_to_renaming() {
        let a = vec![0, 0, 1, 1, 2, 2];
        let b = vec![2, 2, 0, 0, 1, 1];
        assert!((nmi(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nmi_independent_partitions_low() {
        // Checkerboard: knowing a tells nothing about b.
        let a = vec![0, 0, 1, 1, 0, 0, 1, 1];
        let b = vec![0, 1, 0, 1, 0, 1, 0, 1];
        assert!(nmi(&a, &b) < 0.01);
    }

    /// NMI is symmetric, and a labelling against itself or any renaming
    /// of its labels scores 1.
    #[test]
    fn nmi_is_symmetric_and_blind_to_renaming() {
        for seed in 0..500u64 {
            let mut rng = cx_par::rng::Rng64::seed_from_u64(seed);
            let n = rng.gen_range(2..20usize);
            let mut draw = || (0..n).map(|_| rng.gen_range(0..4usize)).collect::<Vec<_>>();
            let (a, b) = (draw(), draw());
            let renamed: Vec<usize> = a.iter().map(|&x| (x + 1) % 4).collect();
            assert!((nmi(&a, &b) - nmi(&b, &a)).abs() < 1e-12, "seed {seed}: {a:?} {b:?}");
            assert!((nmi(&a, &a) - 1.0).abs() < 1e-9, "seed {seed}: {a:?}");
            assert!((nmi(&a, &renamed) - 1.0).abs() < 1e-9, "seed {seed}: {a:?}");
        }
    }

    #[test]
    fn nmi_trivial_cases() {
        assert_eq!(nmi(&[], &[]), 1.0);
        assert_eq!(nmi(&[0, 0, 0], &[0, 0, 0]), 1.0);
        assert_eq!(nmi(&[0, 0, 0], &[0, 1, 2]), 0.0);
    }

    #[test]
    #[should_panic(expected = "same vertices")]
    fn nmi_length_mismatch_panics() {
        nmi(&[0, 1], &[0]);
    }
}

#[cfg(test)]
mod modularity_tests {
    use super::*;
    use cx_graph::{GraphBuilder, VertexId};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Two disjoint triangles, perfectly partitioned: Q = 1/2 exactly
    /// (each community: e_c/m = 1/2, (d_c/2m)^2 = 1/4; 2·(1/2−1/4) = 1/2).
    #[test]
    fn two_triangles_perfect_partition() {
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        for (x, y) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(v(x), v(y));
        }
        let g = b.build();
        let q = modularity(&g, &[0, 0, 0, 1, 1, 1]);
        assert!((q - 0.5).abs() < 1e-12, "Q = {q}");
        // One big community scores 0; the mixed partition scores less.
        assert!(modularity(&g, &[0; 6]).abs() < 1e-12);
        assert!(modularity(&g, &[0, 1, 0, 1, 0, 1]) < q);
    }

    #[test]
    fn edgeless_graph_is_zero() {
        let mut b = GraphBuilder::new();
        b.add_vertex("a", &[]);
        b.add_vertex("b", &[]);
        let g = b.build();
        assert_eq!(modularity(&g, &[0, 1]), 0.0);
    }

    #[test]
    #[should_panic(expected = "one label per vertex")]
    fn label_length_mismatch_panics() {
        let mut b = GraphBuilder::new();
        b.add_vertex("a", &[]);
        let g = b.build();
        modularity(&g, &[]);
    }
}
