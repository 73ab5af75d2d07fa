//! CPJ and CMF — the keyword-cohesiveness quality metrics.

use cx_graph::keywords::intersection_size;
use cx_graph::{AttributedGraph, Community, VertexId};

/// CPJ of one community: the average Jaccard similarity of the keyword
/// sets over all unordered member pairs. 0 for communities with fewer
/// than two members.
///
/// Intersections come from member-local keyword postings instead of a
/// keyword-set merge per pair: for each member `i`, the later members on
/// each of `i`'s postings bump an overlap counter, and the terms
/// `inter / (|W_i| + |W_j| − inter)` are then added in `i < j` order. A
/// pair that shares no keyword adds `0 / union = +0.0` (`0 / 1` for two
/// empty sets, whose Jaccard is 0), which leaves the sum unchanged, so
/// the result is bit-identical to summing `jaccard` over every pair. The
/// cost is one sort of the `Σ|W_i|` postings, two binary searches per
/// posting, `|C|²/2` counter reads and one bump per shared keyword of each
/// pair.
pub fn cpj_single(g: &AttributedGraph, c: &Community) -> f64 {
    let vs = c.vertices();
    let n = vs.len();
    if n < 2 {
        return 0.0;
    }
    // `keyword << 32 | member index`, sorted: each keyword's run lists its
    // members in member order.
    let mut postings: Vec<u64> = vs
        .iter()
        .enumerate()
        .flat_map(|(i, &v)| g.keywords(v).iter().map(move |w| u64::from(w.0) << 32 | i as u64))
        .collect();
    postings.sort_unstable();
    let member = |e: u64| e as u32 as usize;
    let size: Vec<usize> = vs.iter().map(|&v| g.keywords(v).len()).collect();
    let mut overlap = vec![0u32; n];
    let mut total = 0.0;
    for (i, &v) in vs.iter().enumerate() {
        for w in g.keywords(v) {
            let w = u64::from(w.0);
            // The later members on w's run: after i's entry, up to the run's end.
            let from = postings.partition_point(|&e| e <= w << 32 | i as u64);
            let to = postings.partition_point(|&e| e >> 32 <= w);
            for &e in &postings[from..to] {
                overlap[member(e)] += 1;
            }
        }
        for j in i + 1..n {
            let inter = std::mem::take(&mut overlap[j]) as usize;
            let union = size[i] + size[j] - inter;
            total += inter as f64 / union.max(1) as f64;
        }
    }
    total / (n * (n - 1) / 2) as f64
}

/// CPJ over a result set: the mean of per-community CPJ values
/// (0 for an empty result).
pub fn cpj(g: &AttributedGraph, communities: &[Community]) -> f64 {
    if communities.is_empty() {
        return 0.0;
    }
    communities.iter().map(|c| cpj_single(g, c)).sum::<f64>() / communities.len() as f64
}

/// CMF of a result set w.r.t. the query vertex `q`: for every member `v`
/// of every community, the fraction of `W(q)` present in `W(v)`, averaged.
/// 0 when `W(q)` is empty or there are no members.
pub fn cmf(g: &AttributedGraph, communities: &[Community], q: VertexId) -> f64 {
    let wq = g.keywords(q);
    if wq.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    let mut count = 0usize;
    for c in communities {
        for &v in c.vertices() {
            total += intersection_size(g.keywords(v), wq) as f64 / wq.len() as f64;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_graph::GraphBuilder;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn graph() -> AttributedGraph {
        let mut b = GraphBuilder::new();
        b.add_vertex("q", &["a", "b", "c", "d"]);
        b.add_vertex("full", &["a", "b", "c", "d"]);
        b.add_vertex("half", &["a", "b"]);
        b.add_vertex("none", &["z"]);
        b.build()
    }

    #[test]
    fn cpj_identical_sets_is_one() {
        let g = graph();
        let c = Community::structural(vec![v(0), v(1)]);
        assert!((cpj_single(&g, &c) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cpj_hand_computed() {
        let g = graph();
        // Pairs: (q,full)=1, (q,half)=2/4=0.5, (full,half)=0.5 → mean 2/3.
        let c = Community::structural(vec![v(0), v(1), v(2)]);
        assert!((cpj_single(&g, &c) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cpj_degenerate_cases() {
        let g = graph();
        assert_eq!(cpj_single(&g, &Community::structural(vec![v(0)])), 0.0);
        assert_eq!(cpj_single(&g, &Community::structural(vec![])), 0.0);
        assert_eq!(cpj(&g, &[]), 0.0);
    }

    #[test]
    fn cpj_averages_over_communities() {
        let g = graph();
        let perfect = Community::structural(vec![v(0), v(1)]);
        let disjoint = Community::structural(vec![v(2), v(3)]);
        let avg = cpj(&g, &[perfect, disjoint]);
        assert!((avg - 0.5).abs() < 1e-12); // (1.0 + 0.0) / 2
    }

    #[test]
    fn cmf_hand_computed() {
        let g = graph();
        // Members: q (4/4), full (4/4), half (2/4), none (0/4) → mean 10/16.
        let c = Community::structural(vec![v(0), v(1), v(2), v(3)]);
        assert!((cmf(&g, &[c], v(0)) - 0.625).abs() < 1e-12);
    }

    #[test]
    fn cmf_empty_wq_or_members() {
        let mut b = GraphBuilder::new();
        b.add_vertex("bare", &[]);
        let g = b.build();
        let c = Community::structural(vec![v(0)]);
        assert_eq!(cmf(&g, &[c], v(0)), 0.0);
        let g2 = graph();
        assert_eq!(cmf(&g2, &[], v(0)), 0.0);
    }

    #[test]
    fn cmf_is_one_for_keyword_clones() {
        let g = graph();
        let c = Community::structural(vec![v(0), v(1)]);
        assert!((cmf(&g, &[c], v(0)) - 1.0).abs() < 1e-12);
    }
}

/// Conductance of one community: cut edges leaving the community divided
/// by the smaller of its volume and the complement's volume — the
/// standard external-cohesion measure (lower is better; 0 for a perfectly
/// isolated community). Returns 0 for empty or whole-graph communities.
pub fn conductance(g: &AttributedGraph, c: &Community) -> f64 {
    if c.is_empty() || c.len() >= g.vertex_count() {
        return 0.0;
    }
    let mut cut = 0usize;
    let mut volume = 0usize;
    for &u in c.vertices() {
        for &v in g.neighbors(u) {
            volume += 1;
            if !c.contains(v) {
                cut += 1;
            }
        }
    }
    let total_volume = 2 * g.edge_count();
    let denom = volume.min(total_volume - volume);
    if denom == 0 {
        0.0
    } else {
        cut as f64 / denom as f64
    }
}

#[cfg(test)]
mod conductance_tests {
    use super::*;
    use cx_graph::GraphBuilder;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn isolated_triangle_has_zero_conductance() {
        // Two disjoint triangles.
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        for (x, y) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(v(x), v(y));
        }
        let g = b.build();
        let c = Community::structural(vec![v(0), v(1), v(2)]);
        assert_eq!(conductance(&g, &c), 0.0);
    }

    #[test]
    fn bridged_triangle_conductance() {
        // Triangle {0,1,2} + bridge 2-3 + triangle {3,4,5}:
        // cut = 1, volume = 7 (2·3 internal + 1 bridge end), min side → 1/7.
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        for (x, y) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            b.add_edge(v(x), v(y));
        }
        let g = b.build();
        let c = Community::structural(vec![v(0), v(1), v(2)]);
        assert!((conductance(&g, &c) - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_communities() {
        let mut b = GraphBuilder::new();
        b.add_vertex("a", &[]);
        b.add_vertex("b", &[]);
        b.add_edge(v(0), v(1));
        let g = b.build();
        assert_eq!(conductance(&g, &Community::structural(vec![])), 0.0);
        assert_eq!(conductance(&g, &Community::structural(vec![v(0), v(1)])), 0.0);
        // A single endpoint of the only edge: cut 1 / volume 1.
        assert_eq!(conductance(&g, &Community::structural(vec![v(0)])), 1.0);
    }
}
