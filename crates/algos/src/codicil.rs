//! `CODICIL` — content-and-links community detection, after Ruan, Fuhry &
//! Parthasarathy ("Efficient community detection in large networks using
//! content and links", WWW 2013).
//!
//! The pipeline, faithfully reproduced:
//!
//! 1. **Content edges** — each vertex is linked to its `content_neighbors`
//!    most content-similar vertices (cosine over TF-IDF-weighted keyword
//!    vectors, candidates generated through an inverted keyword index).
//! 2. **Edge union** — content edges are unioned with the topology edges.
//! 3. **Re-weighting** — every unioned edge gets weight
//!    `α · Jaccard(N(u), N(v)) + (1 − α) · cosine(u, v)`.
//! 4. **Local sparsification** — each vertex keeps only its top
//!    `⌈deg^sparsify_exponent⌉` edges by weight.
//! 5. **Clustering** — weighted label propagation over the sparsified
//!    graph (the original uses Metis/MLR-MCL; label propagation is the
//!    standard lightweight stand-in with the same input).
//!
//! `detect` returns all clusters; `search(q)` returns q's cluster, which
//! is how C-Explorer surfaces a CD algorithm behind a CS-style UI.

use std::collections::HashMap;

use cx_graph::{AttributedGraph, Community, InvertedIndex, VertexId};
use cx_par::rng::{Rng64, Shuffle};

/// Tuning parameters for [`Codicil`].
#[derive(Debug, Clone)]
pub struct CodicilParams {
    /// Content k-NN edges added per vertex.
    pub content_neighbors: usize,
    /// Blend between structural similarity (α) and content similarity (1−α).
    pub alpha: f64,
    /// Local sparsification keeps `⌈deg^e⌉` edges per vertex.
    pub sparsify_exponent: f64,
    /// Label-propagation sweeps.
    pub lp_iterations: usize,
    /// Candidate cap per keyword posting list during content k-NN
    /// generation (bounds worst-case cost on stop-word-like keywords).
    pub posting_cap: usize,
    /// Keywords carried by more than this fraction of all vertices are
    /// skipped during candidate generation (stop words carry no community
    /// signal and dominate the cost).
    pub stopword_fraction: f64,
    /// RNG seed for the label-propagation visit order.
    pub seed: u64,
}

impl Default for CodicilParams {
    fn default() -> Self {
        Self {
            content_neighbors: 10,
            alpha: 0.5,
            sparsify_exponent: 0.6,
            lp_iterations: 12,
            posting_cap: 64,
            stopword_fraction: 0.05,
            seed: 1,
        }
    }
}

/// A clustering of the whole graph: a label per vertex plus the clusters
/// as communities (singletons included), largest first.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Cluster label per vertex (dense, `0..cluster_count`).
    pub labels: Vec<usize>,
    /// Clusters as communities, sorted by size descending.
    pub communities: Vec<Community>,
}

impl Clustering {
    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.communities.len()
    }

    /// The community containing `v`, if the vertex is valid.
    pub fn community_of(&self, v: VertexId) -> Option<&Community> {
        let label = *self.labels.get(v.index())?;
        self.communities.iter().find(|c| {
            c.vertices().first().map(|&u| self.labels[u.index()]) == Some(label)
        })
    }
}

/// The CODICIL detector.
#[derive(Debug, Clone, Default)]
pub struct Codicil {
    /// Pipeline parameters.
    pub params: CodicilParams,
}

impl Codicil {
    /// Creates a detector with the given parameters.
    pub fn new(params: CodicilParams) -> Self {
        Self { params }
    }

    /// Runs the full pipeline and clusters the entire graph.
    pub fn detect(&self, g: &AttributedGraph) -> Clustering {
        let n = g.vertex_count();
        if n == 0 {
            return Clustering { labels: Vec::new(), communities: Vec::new() };
        }
        let weighted = self.build_fused_graph(g);
        let labels = label_propagation(&weighted, n, self.params.lp_iterations, self.params.seed);
        let labels = compact_labels(labels);
        let mut groups: HashMap<usize, Vec<VertexId>> = HashMap::new();
        for (i, &l) in labels.iter().enumerate() {
            groups.entry(l).or_default().push(VertexId(i as u32));
        }
        let mut communities: Vec<Community> =
            groups.into_values().map(Community::structural).collect();
        communities.sort_by_key(|c| (std::cmp::Reverse(c.len()), c.vertices()[0]));
        Clustering { labels, communities }
    }

    /// Community of a single query vertex (detect + select).
    pub fn search(&self, g: &AttributedGraph, q: VertexId) -> Option<Community> {
        if !g.contains(q) {
            return None;
        }
        let clustering = self.detect(g);
        clustering.community_of(q).cloned()
    }

    /// Steps 1–4: fused, re-weighted, sparsified adjacency
    /// (`fused[u] = Vec<(v, weight)>`).
    fn build_fused_graph(&self, g: &AttributedGraph) -> Vec<Vec<(u32, f64)>> {
        let n = g.vertex_count();
        let idx = InvertedIndex::build(g);
        // IDF per keyword: ln(n / df).
        let idf: Vec<f64> = (0..g.keyword_count())
            .map(|w| {
                let df = idx.frequency(cx_graph::KeywordId(w as u32)).max(1);
                (n as f64 / df as f64).ln().max(0.0)
            })
            .collect();
        // Vector norms.
        let sq = |v: VertexId| g.keywords(v).iter().map(|w| idf[w.index()] * idf[w.index()]);
        let norm: Vec<f64> = g.vertices().map(|v| sq(v).sum::<f64>().sqrt()).collect();

        let cosine = |u: VertexId, v: VertexId| -> f64 {
            let (nu, nv) = (norm[u.index()], norm[v.index()]);
            if nu == 0.0 || nv == 0.0 {
                return 0.0;
            }
            let dot: f64 = cx_graph::keywords::intersect_sorted(g.keywords(u), g.keywords(v))
                .iter()
                .map(|w| idf[w.index()] * idf[w.index()])
                .sum();
            dot / (nu * nv)
        };

        // Step 1: content k-NN per vertex. Scoring each vertex's candidates
        // is independent, so it runs on the cx-par pool; the symmetric
        // insertion into `fused` stays sequential (and therefore ordered).
        let mut fused: Vec<HashMap<u32, f64>> = vec![HashMap::new(); n];
        let t = self.params.content_neighbors;
        let stop_df = ((n as f64) * self.params.stopword_fraction).ceil() as usize;
        if t > 0 {
            let top: Vec<Vec<u32>> = cx_par::par_map_indexed(n, |ui| {
                let u = VertexId(ui as u32);
                let mut scores: HashMap<u32, f64> = HashMap::new();
                for &w in g.keywords(u) {
                    let posting = idx.posting(w);
                    if posting.len() > stop_df.max(self.params.posting_cap) {
                        continue; // stop word: no discriminative signal
                    }
                    for &v in posting.iter().take(self.params.posting_cap) {
                        if v != u {
                            *scores.entry(v.0).or_insert(0.0) += idf[w.index()];
                        }
                    }
                }
                let mut cands: Vec<(u32, f64)> = scores.into_iter().collect();
                cands.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
                cands.truncate(t);
                cands.into_iter().map(|(v, _)| v).collect()
            });
            for (ui, targets) in top.iter().enumerate() {
                for &v in targets {
                    fused[ui].insert(v, 0.0);
                    fused[v as usize].insert(ui as u32, 0.0);
                }
            }
        }
        // Step 2: union with topology edges.
        for (u, v) in g.edges() {
            fused[u.index()].insert(v.0, 0.0);
            fused[v.index()].insert(u.0, 0.0);
        }
        // Step 3: re-weight. Enumerate each pair once in a deterministic
        // order, score the pairs in parallel, then scatter sequentially.
        let alpha = self.params.alpha;
        let pairs: Vec<(u32, u32)> = {
            let mut ps = Vec::new();
            for (u, row) in fused.iter().enumerate() {
                let mut vs: Vec<u32> = row.keys().copied().filter(|&v| v > u as u32).collect();
                vs.sort_unstable();
                ps.extend(vs.into_iter().map(|v| (u as u32, v)));
            }
            ps
        };
        let pair_weights: Vec<f64> = cx_par::par_map_indexed(pairs.len(), |i| {
            let (u, v) = (VertexId(pairs[i].0), VertexId(pairs[i].1));
            alpha * neighborhood_jaccard(g, u, v) + (1.0 - alpha) * cosine(u, v)
        });
        let mut weighted: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for (&(u, v), &w) in pairs.iter().zip(&pair_weights) {
            weighted[u as usize].push((v, w));
            weighted[v as usize].push((u, w));
        }
        // Step 4: local sparsification — keep top ⌈deg^e⌉ per vertex; an
        // edge survives if either endpoint keeps it.
        let e = self.params.sparsify_exponent;
        let mut keep: Vec<std::collections::HashSet<(u32, u32)>> = vec![Default::default(); 1];
        let kept = &mut keep[0];
        for (u, wu) in weighted.iter().enumerate() {
            let d = wu.len();
            if d == 0 {
                continue;
            }
            let quota = (d as f64).powf(e).ceil() as usize;
            let mut edges = wu.clone();
            edges.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            for &(v, _) in edges.iter().take(quota.max(1)) {
                let key = if (u as u32) < v { (u as u32, v) } else { (v, u as u32) };
                kept.insert(key);
            }
        }
        let mut out: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for u in 0..n {
            for &(v, w) in &weighted[u] {
                let key = if (u as u32) < v { (u as u32, v) } else { (v, u as u32) };
                if kept.contains(&key) {
                    out[u].push((v, w));
                }
            }
        }
        out
    }
}

/// Jaccard similarity of the (closed) neighbourhoods of `u` and `v` — the
/// structural half of CODICIL's edge weight.
pub fn neighborhood_jaccard(g: &AttributedGraph, u: VertexId, v: VertexId) -> f64 {
    // Closed neighbourhoods so an edge (u,v) with no common neighbour
    // still scores: N[u] = N(u) ∪ {u}.
    let (a, b) = (g.neighbors(u), g.neighbors(v));
    let mut inter = 0usize;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    // Closed-neighbourhood corrections: u ∈ N[v]? v ∈ N[u]?
    let u_in_b = b.binary_search(&u).is_ok();
    let v_in_a = a.binary_search(&v).is_ok();
    let inter_closed = inter + usize::from(u_in_b) + usize::from(v_in_a);
    let union_closed = (a.len() + 1) + (b.len() + 1) - inter_closed;
    if union_closed == 0 {
        0.0
    } else {
        inter_closed as f64 / union_closed as f64
    }
}

/// Weighted label propagation: each sweep visits vertices in a seeded
/// random order and adopts the label with the highest incident weight
/// (ties to the smaller label for determinism). Stops early on a sweep
/// with no changes.
fn label_propagation(
    adj: &[Vec<(u32, f64)>],
    n: usize,
    iterations: usize,
    seed: u64,
) -> Vec<usize> {
    let mut labels: Vec<usize> = (0..n).collect();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng64::seed_from_u64(seed);
    for _ in 0..iterations {
        order.shuffle(&mut rng);
        let mut changed = false;
        for &u in &order {
            if adj[u].is_empty() {
                continue;
            }
            let mut tally: HashMap<usize, f64> = HashMap::new();
            for &(v, w) in &adj[u] {
                *tally.entry(labels[v as usize]).or_insert(0.0) += w.max(1e-9);
            }
            let best = tally
                .into_iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(b.0.cmp(&a.0)))
                .map(|(l, _)| l)
                .unwrap();
            if best != labels[u] {
                labels[u] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    labels
}

/// Renumbers labels densely in first-appearance order.
fn compact_labels(labels: Vec<usize>) -> Vec<usize> {
    let mut map: HashMap<usize, usize> = HashMap::new();
    labels
        .into_iter()
        .map(|l| {
            let next = map.len();
            *map.entry(l).or_insert(next)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_datagen::{planted_partition, small_collab_graph, PlantedParams};

    #[test]
    fn recovers_planted_partition() {
        let (g, truth) = planted_partition(&PlantedParams {
            vertices: 120,
            communities: 3,
            p_intra: 0.4,
            p_inter: 0.01,
            ..PlantedParams::default()
        });
        let clustering = Codicil::default().detect(&g);
        // Pairwise agreement (Rand-style): most same-community pairs should
        // share a cluster and most cross pairs should not.
        let (mut agree, mut total) = (0usize, 0usize);
        for i in 0..g.vertex_count() {
            for j in (i + 1)..g.vertex_count() {
                let same_truth = truth[i] == truth[j];
                let same_found = clustering.labels[i] == clustering.labels[j];
                total += 1;
                if same_truth == same_found {
                    agree += 1;
                }
            }
        }
        let rand_index = agree as f64 / total as f64;
        assert!(rand_index > 0.9, "rand index too low: {rand_index}");
    }

    #[test]
    fn splits_collab_graph_at_the_bridge() {
        let g = small_collab_graph();
        let clustering = Codicil::default().detect(&g);
        let db0 = g.vertex_by_label("db-author-0").unwrap();
        let db3 = g.vertex_by_label("db-author-3").unwrap();
        let ml0 = g.vertex_by_label("ml-author-0").unwrap();
        assert_eq!(clustering.labels[db0.index()], clustering.labels[db3.index()]);
        assert_ne!(clustering.labels[db0.index()], clustering.labels[ml0.index()]);
    }

    #[test]
    fn search_returns_query_cluster() {
        let g = small_collab_graph();
        let q = g.vertex_by_label("ml-author-2").unwrap();
        let c = Codicil::default().search(&g, q).unwrap();
        assert!(c.contains(q));
        assert!(c.len() >= 6, "ml cluster too small: {}", c.len());
        assert!(Codicil::default().search(&g, VertexId(999)).is_none());
    }

    /// On the collab graph and on seeded planted graphs of 4–40 vertices:
    /// labels are dense (`0..cluster_count`), the communities cover every
    /// vertex once, and `community_of` agrees with the labels.
    #[test]
    fn labels_partition_and_match_communities() {
        let planted = (0..24u64).map(|seed| {
            let mut rng = cx_par::rng::Rng64::seed_from_u64(seed);
            let params = PlantedParams {
                vertices: rng.gen_range(4..=40),
                communities: rng.gen_range(1..=4),
                p_inter: 0.05,
                seed,
                ..PlantedParams::default()
            };
            (format!("seed {seed}"), planted_partition(&params).0)
        });
        let collab = std::iter::once(("collab".to_owned(), small_collab_graph()));
        for (case, g) in collab.chain(planted) {
            let clustering = Codicil::default().detect(&g);
            assert_eq!(clustering.labels.len(), g.vertex_count(), "{case}");
            let total: usize = clustering.communities.iter().map(Community::len).sum();
            assert_eq!(total, g.vertex_count(), "{case}");
            let top = clustering.labels.iter().max().map(|&l| l + 1);
            assert_eq!(top, Some(clustering.cluster_count()), "{case}: labels not dense");
            for v in g.vertices() {
                let c = clustering.community_of(v).unwrap();
                assert!(c.contains(v), "{case}: {v} outside its community");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = small_collab_graph();
        let a = Codicil::default().detect(&g);
        let b = Codicil::default().detect(&g);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn empty_graph() {
        let g = cx_graph::GraphBuilder::new().build();
        let c = Codicil::default().detect(&g);
        assert!(c.labels.is_empty());
        assert_eq!(c.cluster_count(), 0);
    }

    #[test]
    fn neighborhood_jaccard_bounds() {
        let g = small_collab_graph();
        for (u, v) in g.edges().take(20) {
            let j = neighborhood_jaccard(&g, u, v);
            assert!((0.0..=1.0).contains(&j));
            assert!(j > 0.0, "adjacent vertices must have positive closed-neighbourhood overlap");
        }
    }
}
