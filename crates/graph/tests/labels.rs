//! The label column's lookups against brute force.
//!
//! `search_label_top` is held to an oracle that applies the documented
//! ranking to every vertex: label and query are folded with
//! `to_lowercase`; a match is *exact*, *prefix* or *interior* as the
//! folded label equals, starts with, or otherwise contains the folded
//! query; matches rank by tier, then degree descending, then id. The
//! count is the size of the exact and prefix tiers, plus the interior
//! matches when those tiers hold fewer than `top`. `vertex_by_label` is
//! held to a first-wins map.

use std::cmp::Reverse;
use std::collections::HashMap;

use cx_graph::{AttributedGraph, GraphBuilder, VertexId};
use cx_par::rng::Rng64;

/// What labels are glued from: mixed case, `ß` (its own fold), `İ` (folds
/// to two chars), `Σ` (folds to `ς` at the end of a word and to `σ`
/// elsewhere), and plain ASCII.
const PIECES: &[&str] = &[
    "al", "Al", "AL", "an", "Ann", "ß", "SS", "ss", "İ", "i", "Σ", "σ", "ς", "ΟΔΟΣ", "ο", " ", "-", "x",
    "Straße", "7",
];

/// `n` labels: some empty, some duplicates of an earlier label, some an
/// earlier label extended (so that one is a prefix of this), the rest one
/// to three pieces.
fn labels(rng: &mut Rng64, n: usize) -> Vec<String> {
    let mut out: Vec<String> = Vec::with_capacity(n);
    for _ in 0..n {
        let earlier = (!out.is_empty()).then(|| out[rng.gen_range(0..out.len())].clone());
        let piece = |rng: &mut Rng64| PIECES[rng.gen_range(0..PIECES.len())];
        let label = match (rng.gen_range(0..10u32), earlier) {
            (0, _) => String::new(),
            (1, Some(e)) => e,
            (2, Some(e)) => e + piece(rng),
            _ => (0..rng.gen_range(1..=3u32)).map(|_| piece(rng)).collect(),
        };
        out.push(label);
    }
    out
}

/// One case per seed; the second puts one prefix before every label, so
/// all the folds share it.
const CASES: [(u64, &str); 3] = [(3, ""), (17, "Au-"), (2024, "")];

fn graph(seed: u64, prefix: &str) -> AttributedGraph {
    let mut rng = Rng64::seed_from_u64(seed);
    let n = 160;
    let mut b = GraphBuilder::new();
    for l in labels(&mut rng, n) {
        b.add_vertex(&format!("{prefix}{l}"), &[]);
    }
    // Degrees from 0 up, with plenty of ties.
    for _ in 0..2 * n {
        let u = VertexId(rng.gen_range(0..n as u32));
        let v = VertexId(rng.gen_range(0..n as u32 / 3));
        b.add_edge(u, v);
    }
    b.build()
}

fn oracle(g: &AttributedGraph, query: &str, top: usize) -> (Vec<VertexId>, usize) {
    let q = query.to_lowercase();
    let mut hits: Vec<(u8, Reverse<usize>, VertexId)> = g
        .vertices()
        .filter_map(|v| {
            let f = g.label(v).to_lowercase();
            let tier = match () {
                _ if f == q => 0,
                _ if f.starts_with(&q) => 1,
                _ if f.contains(&q) => 2,
                _ => return None,
            };
            Some((tier, Reverse(g.degree(v)), v))
        })
        .collect();
    hits.sort();
    let prefix_tiers = hits.iter().filter(|h| h.0 < 2).count();
    let total = if prefix_tiers < top { hits.len() } else { prefix_tiers };
    (hits.iter().take(top).map(|h| h.2).collect(), total)
}

/// Every char prefix of the first 50 labels, interior fragments of one to
/// three chars, the same upper-cased, the empty query and misses.
fn queries(g: &AttributedGraph) -> Vec<String> {
    let mut qs = vec![String::new(), "zzz".into(), "Ω".into(), "al-al-al-al".into()];
    for v in g.vertices().take(50) {
        let label = g.label(v);
        let starts: Vec<usize> = label.char_indices().map(|(i, _)| i).chain([label.len()]).collect();
        qs.extend(starts.iter().map(|&i| label[..i].to_owned()));
        for (k, &from) in starts.iter().enumerate().skip(1) {
            for &to in starts.iter().skip(k + 1).take(3) {
                qs.push(label[from..to].to_owned());
            }
        }
    }
    let upper: Vec<String> = qs.iter().map(|q| q.to_uppercase()).collect();
    qs.extend(upper);
    qs.sort();
    qs.dedup();
    qs
}

#[test]
fn search_label_top_matches_the_tier_oracle() {
    for (seed, prefix) in CASES {
        let g = graph(seed, prefix);
        assert_eq!(cx_check::invariants::check_label_column(&g), Vec::new());
        let qs = queries(&g);
        assert!(qs.len() > 200, "seed {seed}: only {} queries", qs.len());
        let mut interior_ranked = 0;
        for q in &qs {
            for top in [0, 1, 8, 10, 100] {
                let want = oracle(&g, q, top);
                assert_eq!(g.search_label_top(q, top), want, "seed {seed}, query {q:?}, top {top}");
                interior_ranked += usize::from(
                    want.0.iter().any(|&v| !g.label(v).to_lowercase().starts_with(&q.to_lowercase())),
                );
            }
        }
        // The interior pass is exercised, not just the prefix range.
        assert!(interior_ranked > 50, "seed {seed}: {interior_ranked} answers with an interior match");
    }
}

#[test]
fn tricky_folds_are_exercised() {
    let g = graph(3, "");
    let has = |s: &str| g.vertices().any(|v| g.label(v).contains(s));
    for s in ["İ", "ß", "Σ"] {
        assert!(has(s), "no label holds {s}");
    }
    assert!(g.vertices().any(|v| g.label(v).is_empty()));
    // İ grows under folding, so the column needs its folded twin.
    assert!(g.labels().folded_twin().is_some());
}

#[test]
fn vertex_by_label_is_first_wins() {
    for (seed, prefix) in CASES {
        let g = graph(seed, prefix);
        let mut first: HashMap<&str, VertexId> = HashMap::new();
        for v in g.vertices() {
            first.entry(g.label(v)).or_insert(v);
        }
        assert!(first.len() < g.vertex_count(), "seed {seed}: no duplicate labels");
        for v in g.vertices() {
            let label = g.label(v);
            assert_eq!(g.vertex_by_label(label), first.get(label).copied(), "{label:?}");
            for variant in [label.to_uppercase(), label.to_lowercase(), format!("{label}#")] {
                assert_eq!(g.vertex_by_label(&variant), first.get(variant.as_str()).copied(), "{variant:?}");
            }
        }
        assert_eq!(g.vertex_by_label("nope"), None);
    }
}
