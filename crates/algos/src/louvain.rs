//! Louvain modularity-based community detection.
//!
//! The paper's CD category (§2) is anchored on modularity methods
//! (Newman & Girvan \[9\], Fortunato's survey \[5\]); Louvain is the standard
//! scalable representative, and C-Explorer's plug-in API is exactly where
//! such a method is installed for comparison against the CS algorithms.
//!
//! Standard two-phase scheme: (1) local moving — greedily move vertices to
//! the neighbouring community with the best modularity gain until no move
//! helps; (2) aggregation — collapse communities into super-vertices and
//! repeat on the condensed graph. Deterministic for a given seed.

use std::collections::HashMap;

use cx_graph::{AttributedGraph, Community, VertexId};
use cx_par::rng::{Rng64, Shuffle};

use crate::codicil::Clustering;

/// Parameters for [`Louvain`].
#[derive(Debug, Clone)]
pub struct LouvainParams {
    /// Maximum local-moving + aggregation rounds.
    pub max_levels: usize,
    /// Maximum local-moving sweeps per level.
    pub max_sweeps: usize,
    /// Minimum modularity gain to keep iterating a level.
    pub min_gain: f64,
    /// RNG seed for the vertex visit order.
    pub seed: u64,
}

impl Default for LouvainParams {
    fn default() -> Self {
        Self { max_levels: 10, max_sweeps: 20, min_gain: 1e-6, seed: 1 }
    }
}

/// The Louvain detector.
#[derive(Debug, Clone, Default)]
pub struct Louvain {
    /// Tuning parameters.
    pub params: LouvainParams,
}

/// A weighted adjacency representation used across aggregation levels.
struct LevelGraph {
    /// adj[u] = (v, weight) pairs; self-loops allowed (from aggregation).
    adj: Vec<Vec<(usize, f64)>>,
    /// Total edge weight (each undirected edge counted once; self-loops once).
    total_weight: f64,
}

impl LevelGraph {
    fn weighted_degree(&self, u: usize) -> f64 {
        self.adj[u]
            .iter()
            .map(|&(v, w)| if v == u { 2.0 * w } else { w })
            .sum()
    }
}

impl Louvain {
    /// Creates a detector with the given parameters.
    pub fn new(params: LouvainParams) -> Self {
        Self { params }
    }

    /// Clusters the whole graph by modularity.
    pub fn detect(&self, g: &AttributedGraph) -> Clustering {
        let n = g.vertex_count();
        if n == 0 {
            return Clustering { labels: Vec::new(), communities: Vec::new() };
        }
        // Level-0 graph: unit weights.
        let mut level = LevelGraph {
            adj: g
                .vertices()
                .map(|u| g.neighbors(u).iter().map(|&v| (v.index(), 1.0)).collect())
                .collect(),
            total_weight: g.edge_count() as f64,
        };
        // membership[v] = community of original vertex v (composed across levels).
        let mut membership: Vec<usize> = (0..n).collect();
        let mut rng = Rng64::seed_from_u64(self.params.seed);

        for _ in 0..self.params.max_levels {
            // Deadline checkpoint (see cx_par::task): with no scope
            // installed it is a thread-local read.
            if cx_par::task::cancelled() {
                break;
            }
            let (assignment, improved) = self.local_moving(&level, &mut rng);
            if !improved {
                break;
            }
            // Compose with the running membership.
            for m in membership.iter_mut() {
                *m = assignment[*m];
            }
            let next = aggregate(&level, &assignment);
            if next.adj.len() == level.adj.len() {
                break;
            }
            level = next;
        }

        let labels = compact(membership);
        let mut groups: HashMap<usize, Vec<VertexId>> = HashMap::new();
        for (i, &l) in labels.iter().enumerate() {
            groups.entry(l).or_default().push(VertexId(i as u32));
        }
        let mut communities: Vec<Community> =
            groups.into_values().map(Community::structural).collect();
        communities.sort_by_key(|c| (std::cmp::Reverse(c.len()), c.vertices()[0]));
        Clustering { labels, communities }
    }

    /// Phase 1: greedy local moving. Returns (community per vertex,
    /// whether anything improved).
    fn local_moving(&self, lg: &LevelGraph, rng: &mut Rng64) -> (Vec<usize>, bool) {
        let n = lg.adj.len();
        let m2 = (2.0 * lg.total_weight).max(1e-12);
        let mut comm: Vec<usize> = (0..n).collect();
        // Weighted degree per vertex, which at the start of the level is
        // also the per-community total.
        let kdeg: Vec<f64> = (0..n).map(|u| lg.weighted_degree(u)).collect();
        let mut comm_tot: Vec<f64> = kdeg.clone();

        let mut order: Vec<usize> = (0..n).collect();
        let mut improved_any = false;
        for _ in 0..self.params.max_sweeps {
            order.shuffle(rng);
            let mut moved = false;
            for (step, &u) in order.iter().enumerate() {
                // In-sweep deadline checkpoint: one sweep over a million-vertex
                // level is seconds of work, far longer than any deadline
                // tolerance. The partial assignment is discarded by the caller.
                if step & 0x1FFF == 0 && step != 0 && cx_par::task::cancelled() {
                    return (compact(comm), improved_any);
                }
                let cu = comm[u];
                // Weight from u to each neighbouring community.
                let mut to_comm: HashMap<usize, f64> = HashMap::new();
                for &(v, w) in &lg.adj[u] {
                    if v != u {
                        *to_comm.entry(comm[v]).or_insert(0.0) += w;
                    }
                }
                // Remove u from its community.
                comm_tot[cu] -= kdeg[u];
                let base = to_comm.get(&cu).copied().unwrap_or(0.0);
                // Best gain: ΔQ ∝ (w_to_c - k_u * tot_c / 2m).
                let mut best_c = cu;
                let mut best_gain = base - kdeg[u] * comm_tot[cu] / m2;
                let mut cands: Vec<(usize, f64)> = to_comm.into_iter().collect();
                cands.sort_by_key(|c| c.0); // determinism
                for (c, w_to) in cands {
                    let gain = w_to - kdeg[u] * comm_tot[c] / m2;
                    if gain > best_gain + self.params.min_gain {
                        best_gain = gain;
                        best_c = c;
                    }
                }
                comm[u] = best_c;
                comm_tot[best_c] += kdeg[u];
                if best_c != cu {
                    moved = true;
                    improved_any = true;
                }
            }
            if !moved {
                break;
            }
        }
        (compact(comm), improved_any)
    }
}

/// Phase 2: collapse communities into super-vertices.
fn aggregate(lg: &LevelGraph, assignment: &[usize]) -> LevelGraph {
    let k = assignment.iter().copied().max().map_or(0, |m| m + 1);
    let mut weights: Vec<HashMap<usize, f64>> = vec![HashMap::new(); k];
    for (u, ns) in lg.adj.iter().enumerate() {
        for &(v, w) in ns {
            if v < u {
                continue; // each undirected edge once (self-loops have v == u)
            }
            let (cu, cv) = (assignment[u], assignment[v]);
            if cu == cv {
                *weights[cu].entry(cu).or_insert(0.0) += w;
            } else {
                *weights[cu].entry(cv).or_insert(0.0) += w;
                *weights[cv].entry(cu).or_insert(0.0) += w;
            }
        }
    }
    let total_weight = lg.total_weight;
    let adj = weights
        .into_iter()
        .map(|m| {
            let mut v: Vec<(usize, f64)> = m.into_iter().collect();
            v.sort_by_key(|e| e.0);
            v
        })
        .collect();
    LevelGraph { adj, total_weight }
}

/// Renumbers labels densely in first-appearance order.
fn compact(labels: Vec<usize>) -> Vec<usize> {
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
    use cx_metrics::{modularity, nmi};

    #[test]
    fn splits_collab_graph_into_two_groups() {
        let g = small_collab_graph();
        let c = Louvain::default().detect(&g);
        let db0 = g.vertex_by_label("db-author-0").unwrap();
        let db5 = g.vertex_by_label("db-author-5").unwrap();
        let ml0 = g.vertex_by_label("ml-author-0").unwrap();
        assert_eq!(c.labels[db0.index()], c.labels[db5.index()]);
        assert_ne!(c.labels[db0.index()], c.labels[ml0.index()]);
        // Modularity of the found partition beats the trivial one.
        assert!(modularity(&g, &c.labels) > 0.3);
    }

    #[test]
    fn recovers_planted_partition_with_high_nmi() {
        let (g, truth) = planted_partition(&PlantedParams {
            vertices: 160,
            communities: 4,
            p_intra: 0.3,
            p_inter: 0.01,
            ..PlantedParams::default()
        });
        let c = Louvain::default().detect(&g);
        let score = nmi(&c.labels, &truth);
        assert!(score > 0.9, "NMI too low: {score}");
    }

    #[test]
    fn labels_partition_the_graph() {
        let g = small_collab_graph();
        let c = Louvain::default().detect(&g);
        assert_eq!(c.labels.len(), g.vertex_count());
        let member_total: usize = c.communities.iter().map(Community::len).sum();
        assert_eq!(member_total, g.vertex_count());
        let max = c.labels.iter().copied().max().unwrap();
        assert_eq!(max + 1, c.cluster_count());
    }

    #[test]
    fn deterministic_per_seed_and_empty_graph() {
        let g = small_collab_graph();
        let a = Louvain::default().detect(&g);
        let b = Louvain::default().detect(&g);
        assert_eq!(a.labels, b.labels);
        let empty = cx_graph::GraphBuilder::new().build();
        assert!(Louvain::default().detect(&empty).labels.is_empty());
    }

    #[test]
    fn modularity_never_below_singletons() {
        // On a graph with clear structure, Louvain's modularity must beat
        // the all-singletons partition (which scores ≤ 0).
        let (g, _) = planted_partition(&PlantedParams::default());
        let c = Louvain::default().detect(&g);
        let singletons: Vec<usize> = (0..g.vertex_count()).collect();
        assert!(modularity(&g, &c.labels) > modularity(&g, &singletons));
    }
}
