//! The DBLP-like co-authorship generator — the substitute for the paper's
//! private DBLP sample.
//!
//! What community-retrieval experiments need from DBLP is *shape*, not the
//! actual names. Real co-authorship networks are two-level: broad research
//! **areas** (databases, ML, …) that share vocabulary, made of many small
//! **collaboration groups** (labs / frequent co-author circles) that are
//! internally dense. This drives all the qualitative results in the
//! paper's Figure 6(a):
//!
//! * the k-core percolates across groups through well-connected authors,
//!   so `Global` returns a community orders of magnitude larger than
//!   anyone else's;
//! * groups are the natural granularity `Local` and `CODICIL` stop at;
//! * keywords come in three tiers — ubiquitous common terms ("data",
//!   "system"), area terms (Zipf-skewed), and group-specific terms — so
//!   ACQ's maximal shared keyword set pins the community to the query
//!   author's group(s) and scores highest on CPJ/CMF.
//!
//! Degrees inside a group follow preferential attachment (hub authors),
//! and a mixing fraction of edges crosses areas. Everything is
//! deterministic per seed.

use cx_par::rng::Rng64;

use cx_graph::{AttributedGraph, GraphBuilder, VertexId};

use crate::zipf::Zipf;

/// Parameters for [`dblp_like`].
#[derive(Debug, Clone)]
pub struct DblpParams {
    /// Number of authors (vertices).
    pub authors: usize,
    /// Number of research areas (keyword-sharing super-communities).
    pub areas: usize,
    /// Mean collaboration-group size (groups are Zipf-spread around this).
    pub group_size: usize,
    /// Intra-group edges added per joining author (preferential
    /// attachment); group hubs emerge automatically.
    pub edges_per_author: usize,
    /// Probability that an author gets one extra edge to another group of
    /// the same area (keeps areas connected).
    pub intra_area_bridges: f64,
    /// Probability that an author gets one random cross-area edge.
    pub mixing: f64,
    /// Keywords attached to each author (the paper used the 20 most
    /// frequent title terms).
    pub keywords_per_author: usize,
    /// Size of each area's keyword vocabulary.
    pub vocab_per_area: usize,
    /// Zipf exponent for keyword frequencies within an area.
    pub zipf_exponent: f64,
    /// RNG seed: identical parameters + seed → identical graph.
    pub seed: u64,
}

impl Default for DblpParams {
    fn default() -> Self {
        Self {
            authors: 2_000,
            areas: 8,
            group_size: 24,
            edges_per_author: 2,
            intra_area_bridges: 0.25,
            mixing: 0.03,
            keywords_per_author: 20,
            vocab_per_area: 60,
            zipf_exponent: 1.0,
            seed: 42,
        }
    }
}

impl DblpParams {
    /// Convenience: scale the default preset to `n` authors,
    /// with the area count growing so areas stay meaty.
    pub fn scaled(n: usize, seed: u64) -> Self {
        Self {
            authors: n,
            areas: (n / 250).clamp(4, 64),
            seed,
            ..Self::default()
        }
    }

    /// The committed paper-scale configuration: one million authors at a
    /// density of three intra-group edges per joining author, which lands
    /// at roughly 3.4M edges — the scale of the DBLP snapshot the paper
    /// demos against. The generator draws every value from one sequential
    /// RNG stream, so the graph is bit-identical for a given seed
    /// regardless of `CX_THREADS` or machine.
    pub fn paper_scale(seed: u64) -> Self {
        Self {
            authors: 1_000_000,
            areas: 64,
            edges_per_author: 3,
            seed,
            ..Self::default()
        }
    }
}

/// Generates a DBLP-like attributed co-authorship graph.
///
/// Vertices are labelled `author-<id>`. Keyword strings are
/// self-describing: `common:kw<r>` (global terms), `area<a>:kw<r>`
/// (area terms), `area<a>:g<g>:kw<r>` (group terms). Returns the graph
/// and the planted area of each author.
pub fn dblp_like(params: &DblpParams) -> (AttributedGraph, Vec<usize>) {
    assert!(params.areas > 0, "need at least one area");
    assert!(params.authors >= params.areas, "need at least one author per area");
    let mut rng = Rng64::seed_from_u64(params.seed);

    // Power-law-ish area sizes: weight area a by 1/(a+1), then scale.
    let weights: Vec<f64> = (0..params.areas).map(|a| 1.0 / (a + 1) as f64).collect();
    let wsum: f64 = weights.iter().sum();
    let mut sizes: Vec<usize> = weights
        .iter()
        .map(|w| ((w / wsum) * params.authors as f64).floor() as usize)
        .map(|s| s.max(1))
        .collect();
    let assigned: usize = sizes.iter().sum();
    if assigned < params.authors {
        sizes[0] += params.authors - assigned;
    } else {
        let mut extra = assigned - params.authors;
        for s in sizes.iter_mut() {
            let take = extra.min(s.saturating_sub(1));
            *s -= take;
            extra -= take;
            if extra == 0 {
                break;
            }
        }
    }

    // Assign authors to areas, then split each area into groups whose
    // sizes spread around `group_size` (between half and double).
    let mut area_of = Vec::with_capacity(params.authors);
    let mut group_of = Vec::with_capacity(params.authors); // global group id
    let mut group_area = Vec::new(); // group id → area
    let mut groups_in_area: Vec<Vec<usize>> = vec![Vec::new(); params.areas];
    for (a, &size) in sizes.iter().enumerate() {
        let mut remaining = size;
        while remaining > 0 {
            let lo = (params.group_size / 2).max(3);
            let hi = (params.group_size * 2).max(lo + 1);
            let gsize = rng.gen_range(lo..hi).min(remaining);
            let gid = group_area.len();
            group_area.push(a);
            groups_in_area[a].push(gid);
            for _ in 0..gsize {
                area_of.push(a);
                group_of.push(gid);
            }
            remaining -= gsize;
        }
    }

    // Keyword machinery: three tiers.
    let kw_zipf = Zipf::new(params.vocab_per_area, params.zipf_exponent);
    let common_zipf = Zipf::new(30, 1.1);
    let group_kw_count = 8usize;

    let mut b = GraphBuilder::with_capacity(
        params.authors,
        params.authors * (params.edges_per_author + 1),
    );
    for i in 0..params.authors {
        let a = area_of[i];
        let gid = group_of[i];
        let mut kws: Vec<String> = Vec::with_capacity(params.keywords_per_author);
        let quota = params.keywords_per_author;
        // ~25% common terms, ~25% group terms, rest area terms.
        let n_common = quota / 4;
        let n_group = quota / 4;
        let push_unique = |kws: &mut Vec<String>, name: String| {
            if !kws.contains(&name) {
                kws.push(name);
            }
        };
        let mut guard = 0;
        while kws.len() < n_common && guard < 200 {
            guard += 1;
            push_unique(&mut kws, format!("common:kw{}", common_zipf.sample(&mut rng)));
        }
        guard = 0;
        while kws.len() < n_common + n_group && guard < 200 {
            guard += 1;
            // Group vocabulary is tiny and head-heavy: members share it.
            let r = (rng.gen::<f64>() * rng.gen::<f64>() * group_kw_count as f64) as usize;
            push_unique(&mut kws, format!("area{a}:g{gid}:kw{}", r.min(group_kw_count - 1)));
        }
        guard = 0;
        while kws.len() < quota && guard < 400 {
            guard += 1;
            push_unique(&mut kws, format!("area{a}:kw{}", kw_zipf.sample(&mut rng)));
        }
        let refs: Vec<&str> = kws.iter().map(String::as_str).collect();
        b.add_vertex(&format!("author-{i}"), &refs);
    }

    // Intra-group structure: every group has a dense nucleus (its "lab
    // core" — a near-clique of the senior authors) that the rest of the
    // members attach to by preferential attachment. The nuclei are what
    // survive k-core peeling; the periphery is what makes it selective.
    let n_groups = group_area.len();
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); n_groups];
    for (i, &gid) in group_of.iter().enumerate() {
        members[gid].push(i as u32);
    }
    // Degree-weighted endpoint pool per group (each endpoint appears once
    // per incident edge — the classic Barabási–Albert trick).
    let mut pool: Vec<Vec<u32>> = vec![Vec::new(); n_groups];
    for gid in 0..n_groups {
        let ms = &members[gid];
        let nucleus = ms.len().min((ms.len() / 3).clamp(4, 10));
        // Near-clique on the nucleus.
        for x in 0..nucleus {
            for y in (x + 1)..nucleus {
                if rng.gen_bool(0.9) {
                    b.add_edge(VertexId(ms[x]), VertexId(ms[y]));
                    pool[gid].push(ms[x]);
                    pool[gid].push(ms[y]);
                }
            }
        }
        // Periphery: PA with `edges_per_author` edges each.
        for idx in nucleus..ms.len() {
            let v = ms[idx];
            let m = params.edges_per_author.min(idx);
            let mut targets: Vec<u32> = Vec::with_capacity(m);
            let mut guard = 0;
            while targets.len() < m && guard < 50 * (m + 1) {
                guard += 1;
                let t = if pool[gid].is_empty() || rng.gen_bool(0.2) {
                    ms[rng.gen_range(0..idx)]
                } else {
                    pool[gid][rng.gen_range(0..pool[gid].len())]
                };
                if t != v && !targets.contains(&t) {
                    targets.push(t);
                }
            }
            for &t in &targets {
                b.add_edge(VertexId(v), VertexId(t));
                pool[gid].push(v);
                pool[gid].push(t);
            }
        }
    }

    // Intra-area bridges between groups: famous (high-degree) authors
    // collaborate across labs, which is what lets the k-core percolate
    // area-wide and makes Global's community huge.
    let weighted_pick = |pool: &[u32], members: &[u32], rng: &mut Rng64| -> u32 {
        if pool.is_empty() || rng.gen_bool(0.2) {
            members[rng.gen_range(0..members.len())]
        } else {
            pool[rng.gen_range(0..pool.len())]
        }
    };
    for i in 0..params.authors {
        if rng.gen_bool(params.intra_area_bridges) {
            let a = area_of[i];
            if groups_in_area[a].len() > 1 {
                let gid = group_of[i];
                let other = groups_in_area[a][rng.gen_range(0..groups_in_area[a].len())];
                if other != gid && !members[other].is_empty() {
                    let s = weighted_pick(&pool[gid], &members[gid], &mut rng);
                    let t = weighted_pick(&pool[other], &members[other], &mut rng);
                    b.add_edge(VertexId(s), VertexId(t));
                }
            }
        }
    }

    // Cross-area mixing edges.
    for i in 0..params.authors {
        if rng.gen_bool(params.mixing) {
            let j = rng.gen_range(0..params.authors);
            if area_of[i] != area_of[j] {
                b.add_edge(VertexId(i as u32), VertexId(j as u32));
            }
        }
    }

    (b.build(), area_of)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let p = DblpParams { authors: 300, seed: 9, ..DblpParams::default() };
        let (g1, a1) = dblp_like(&p);
        let (g2, a2) = dblp_like(&p);
        assert_eq!(a1, a2);
        assert_eq!(g1.edge_count(), g2.edge_count());
        for v in g1.vertices() {
            assert_eq!(g1.neighbors(v), g2.neighbors(v));
        }
        let (g3, _) = dblp_like(&DblpParams { seed: 10, ..p });
        assert!(
            g1.edge_count() != g3.edge_count()
                || g1.vertices().any(|v| g1.neighbors(v) != g3.neighbors(v))
        );
    }

    #[test]
    fn sizes_and_labels() {
        let p = DblpParams { authors: 500, areas: 6, ..DblpParams::default() };
        let (g, areas) = dblp_like(&p);
        assert_eq!(g.vertex_count(), 500);
        assert_eq!(areas.len(), 500);
        assert!(areas.iter().all(|&a| a < 6));
        assert_eq!(g.label(VertexId(0)), "author-0");
        assert!(g.vertex_by_label("author-499").is_some());
        for a in 0..6 {
            assert!(areas.contains(&a), "area {a} empty");
        }
    }

    #[test]
    fn degree_is_heterogeneous_with_hubs() {
        let p = DblpParams { authors: 1000, ..DblpParams::default() };
        let (g, _) = dblp_like(&p);
        let stats = cx_graph::stats::DegreeStats::compute(&g);
        assert!(
            stats.max as f64 > 3.0 * stats.mean,
            "no hubs: max={} mean={}",
            stats.max,
            stats.mean
        );
        // Low-degree periphery exists too, so the k-core is selective.
        let low = g.vertices().filter(|&v| g.degree(v) < 4).count();
        assert!(low * 10 > g.vertex_count(), "periphery too small: {low}");
    }

    #[test]
    fn keywords_are_tiered_and_area_scoped() {
        let p = DblpParams { authors: 400, areas: 4, ..DblpParams::default() };
        let (g, areas) = dblp_like(&p);
        let mut saw_common = false;
        let mut saw_group = false;
        for v in g.vertices() {
            let a = areas[v.index()];
            for name in g.keyword_names(g.keywords(v)) {
                if name.starts_with("common:") {
                    saw_common = true;
                } else {
                    assert!(
                        name.starts_with(&format!("area{a}:")),
                        "author {} in area {a} has foreign keyword {name}",
                        v.0
                    );
                    if name.contains(":g") {
                        saw_group = true;
                    }
                }
            }
        }
        assert!(saw_common, "no common-tier keywords generated");
        assert!(saw_group, "no group-tier keywords generated");
    }

    #[test]
    fn group_members_share_group_keywords() {
        let p = DblpParams { authors: 300, areas: 2, ..DblpParams::default() };
        let (g, _) = dblp_like(&p);
        // Find the most popular group keyword and check it is carried by
        // several vertices (group cohesion exists for ACQ to find).
        let mut best = 0usize;
        for (w, name) in g.interner().iter() {
            if name.contains(":g") {
                let carriers = g.vertices().filter(|&v| g.has_keyword(v, w)).count();
                best = best.max(carriers);
            }
        }
        assert!(best >= 5, "group keywords too rare (best carrier count {best})");
    }

    #[test]
    fn mixing_creates_cross_area_edges_but_minority() {
        let p = DblpParams { authors: 800, mixing: 0.3, ..DblpParams::default() };
        let (g, areas) = dblp_like(&p);
        let cross = g.edges().filter(|&(u, v)| areas[u.index()] != areas[v.index()]).count();
        assert!(cross > 0, "no cross-area edges despite mixing");
        assert!(cross * 2 < g.edge_count());
    }

    #[test]
    fn zero_mixing_keeps_areas_separate() {
        let p = DblpParams { authors: 300, mixing: 0.0, ..DblpParams::default() };
        let (g, areas) = dblp_like(&p);
        assert!(g.edges().all(|(u, v)| areas[u.index()] == areas[v.index()]));
    }

    #[test]
    fn scaled_preset_is_sane() {
        let p = DblpParams::scaled(10_000, 1);
        assert_eq!(p.authors, 10_000);
        assert!(p.areas >= 4 && p.areas <= 64);
    }

    #[test]
    fn paper_scale_preset_is_committed() {
        let p = DblpParams::paper_scale(42);
        assert_eq!(p.authors, 1_000_000);
        assert_eq!(p.areas, 64);
        assert_eq!(p.edges_per_author, 3);
        assert_eq!(p.seed, 42);
    }

    /// FNV-1a over the full adjacency + keyword structure.
    fn fingerprint(g: &AttributedGraph) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x100000001b3);
        };
        mix(g.vertex_count() as u64);
        mix(g.edge_count() as u64);
        for v in g.vertices() {
            for &u in g.neighbors(v) {
                mix(u.0 as u64);
            }
            for w in g.keywords(v) {
                mix(w.0 as u64 | 1 << 40);
            }
        }
        h
    }

    #[test]
    fn paper_scale_shape_is_machine_independent() {
        // A scaled-down graph with the paper-scale density knobs, pinned to
        // a golden fingerprint. The generator is one sequential RNG stream
        // (no cx-par, no iteration over hash maps), so this must hold on
        // any machine and at any CX_THREADS — CI runs the suite at both
        // CX_THREADS=1 and CX_THREADS=8 to enforce exactly that.
        let p = DblpParams { authors: 4_000, ..DblpParams::paper_scale(42) };
        let (g, _) = dblp_like(&p);
        assert_eq!(fingerprint(&g), 0x2069f68bca084635, "paper-scale graph drifted");
    }

    #[test]
    fn kcore_is_selective_not_whole_graph() {
        // The property Figure 6(a)'s shape depends on: the 4-core is a
        // strict, substantial subset — neither empty nor the whole graph.
        let (g, _) = dblp_like(&DblpParams { authors: 2000, ..DblpParams::default() });
        let cd = cx_graph_core_check(&g, 4);
        assert!(cd > 0, "4-core empty");
        assert!(cd < g.vertex_count() / 2, "4-core covers most of the graph: {cd}");
    }

    /// Counts vertices surviving iterative k-core peeling (local helper to
    /// avoid a dev-dependency cycle on cx-kcore).
    fn cx_graph_core_check(g: &AttributedGraph, k: usize) -> usize {
        let n = g.vertex_count();
        let mut alive = vec![true; n];
        loop {
            let mut changed = false;
            for v in g.vertices() {
                if alive[v.index()] {
                    let d = g.neighbors(v).iter().filter(|u| alive[u.index()]).count();
                    if d < k {
                        alive[v.index()] = false;
                        changed = true;
                    }
                }
            }
            if !changed {
                return alive.iter().filter(|&&x| x).count();
            }
        }
    }
}
