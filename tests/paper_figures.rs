//! Experiment E1 — the paper's figures as executable assertions, driven
//! through the public facade crate exactly as a downstream user would.

use c_explorer::prelude::*;

/// Figure 5(a)+(b): the example graph's CL-tree has the paper's exact
/// shape — root {J} at level 0, children {F,G} and {H,I} at level 1,
/// {E} at level 2 under {F,G}, {A,B,C,D} at level 3 under {E}.
#[test]
fn figure5_cltree_shape() {
    let g = cx_datagen::figure5_graph();
    let tree = ClTree::build(&g);
    assert_eq!(tree.node_count(), 5);
    assert_eq!(tree.height(), 4);
    let names = |vs: &[VertexId]| -> Vec<String> {
        vs.iter().map(|&v| g.label(v).to_owned()).collect()
    };
    let root = tree.node(tree.root());
    assert_eq!(root.level, 0);
    assert_eq!(names(tree.residents(tree.root())), ["J"]);
    // The core-number table of Figure 5(b).
    let expect = [
        ("A", 3), ("B", 3), ("C", 3), ("D", 3),
        ("E", 2),
        ("F", 1), ("G", 1), ("H", 1), ("I", 1),
        ("J", 0),
    ];
    for (label, core) in expect {
        assert_eq!(tree.core(g.vertex_by_label(label).unwrap()), core, "core({label})");
    }
}

/// Section 3.2's worked ACQ example: q=A, k=2, S={w,x,y} →
/// the subgraph {A, C, D} sharing exactly {x, y} — for all four
/// query strategies.
#[test]
fn figure5_acq_worked_example() {
    let g = cx_datagen::figure5_graph();
    let tree = ClTree::build(&g);
    let q = g.vertex_by_label("A").unwrap();
    let s: Vec<KeywordId> =
        ["w", "x", "y"].iter().map(|n| g.interner().get(n).unwrap()).collect();
    for strategy in AcqStrategy::ALL {
        let res = cx_acq::acq(&g, &tree, q, &AcqOptions::with_k(2).keywords(s.clone()), strategy);
        assert_eq!(res.communities.len(), 1, "{}", strategy.name());
        let c = &res.communities[0];
        let members: Vec<&str> = c.vertices().iter().map(|&v| g.label(v)).collect();
        assert_eq!(members, ["A", "C", "D"], "{}", strategy.name());
        let mut theme = c.theme(&g);
        theme.sort();
        assert_eq!(theme, ["x", "y"], "{}", strategy.name());
    }
}

/// Figure 6(a)'s qualitative shape on the DBLP-like workload:
/// Global returns one huge community; Local and ACQ return small ones;
/// ACQ may return several; ACQ wins CPJ and CMF against Global.
#[test]
fn figure6a_shape() {
    let (g, _) = dblp_like(&DblpParams::scaled(4000, 42));
    let hub = g.vertices().max_by_key(|&v| g.degree(v)).unwrap();
    let label = g.label(hub).to_owned();
    let engine = Engine::with_graph("dblp", g);
    let spec = QuerySpec::by_label(label).k(4);
    let report = engine.compare(None, &["global", "local", "acq"], &spec).unwrap();
    let row = |m: &str| report.rows.iter().find(|r| r.method == m).unwrap();

    assert!(row("global").communities == 1);
    assert!(
        row("global").avg_vertices >= 10.0 * row("acq").avg_vertices,
        "global {} not ≫ acq {}",
        row("global").avg_vertices,
        row("acq").avg_vertices
    );
    assert!(row("local").avg_vertices < row("global").avg_vertices);
    assert!(row("acq").cpj > row("global").cpj, "ACQ must win CPJ");
    assert!(row("acq").cmf > row("global").cmf, "ACQ must win CMF");
    // Every ACQ community satisfies the degree constraint.
    let snap = engine.snapshot(None).unwrap();
    let g = &*snap.graph;
    for c in &row("acq").results {
        assert!(c.min_internal_degree(g) >= 4);
    }
}

/// The "Dec is *generally* faster" claim (E7), measured as verification
/// work aggregated over hub queries (for an individual query whose answer
/// sits mid-lattice, Dec can examine more subsets — the paper's wording
/// is "generally" for exactly this reason).
#[test]
fn dec_generally_verifies_fewer_candidates_than_inc_s() {
    let (g, _) = dblp_like(&DblpParams::scaled(2000, 42));
    let tree = ClTree::build(&g);
    let mut hubs: Vec<VertexId> = g.vertices().collect();
    hubs.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    let (mut dec_total, mut inc_total) = (0usize, 0usize);
    for &q in hubs.iter().take(24) {
        let s: Vec<KeywordId> = g.keywords(q).iter().copied().take(8).collect();
        let opts = AcqOptions::with_k(4).keywords(s);
        let dec = cx_acq::acq(&g, &tree, q, &opts, AcqStrategy::Dec);
        let inc = cx_acq::acq(&g, &tree, q, &opts, AcqStrategy::IncS);
        assert_eq!(dec.communities, inc.communities, "answers must agree at q={q}");
        dec_total += dec.candidates_verified;
        inc_total += inc.candidates_verified;
    }
    assert!(
        dec_total <= inc_total,
        "aggregate: Dec {dec_total} > Inc-S {inc_total}"
    );
}

/// The CL-tree index is linear-size: bytes per vertex stay bounded as the
/// graph doubles (E6's space half).
#[test]
fn cltree_space_is_linear() {
    let mut per_vertex = Vec::new();
    for n in [2000usize, 4000, 8000] {
        let (g, _) = dblp_like(&DblpParams::scaled(n, 7));
        let tree = ClTree::build(&g);
        per_vertex.push(tree.memory_bytes() as f64 / n as f64);
    }
    let (min, max) = (
        per_vertex.iter().cloned().fold(f64::MAX, f64::min),
        per_vertex.iter().cloned().fold(0.0, f64::max),
    );
    assert!(
        max / min < 1.5,
        "bytes/vertex varies superlinearly: {per_vertex:?}"
    );
}
