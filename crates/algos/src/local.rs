//! `Local` — the local-expansion community search of Cui et al.
//! ("Local search of communities in large graphs", SIGMOD 2014).
//!
//! Where `Global` peels the entire graph, `Local` explores outward from
//! the query vertex: it keeps a candidate set `C` (initially `{q}`),
//! repeatedly admits the frontier vertex with the most connections into
//! `C`, and after each admission checks whether `C` already contains a
//! connected k-core with q. The first hit is returned (shrunk to that
//! core), so the community found is *a* k-core around q — typically much
//! smaller than Global's maximal one (Figure 6(a): 50 vs 305 vertices).
//!
//! Every check peels only the candidate set, on one [`PeelScratch`] the
//! query reuses: its graph-sized buffers are set up once per query and
//! cleared per check by an epoch bump, so a check costs
//! O(|C| + edges inside C) and the search's work is proportional to the
//! neighbourhood explored, not to the graph.

use std::collections::HashMap;

use cx_graph::{AttributedGraph, Community, VertexId, VertexSet};
use cx_kcore::PeelScratch;

/// The Cui et al. local-expansion algorithm.
#[derive(Debug, Clone, Copy)]
pub struct Local {
    /// Hard cap on the candidate-set size before giving up (0 = only
    /// bounded by the graph itself). Keeps worst-case latency bounded on
    /// adversarial inputs, as the original paper's budgeted variant does.
    pub max_candidates: usize,
    /// Check for a k-core every `check_every` admissions (1 = every step).
    /// Larger values amortise the subset peel on high-k queries.
    pub check_every: usize,
}

impl Default for Local {
    fn default() -> Self {
        Self { max_candidates: 4096, check_every: 4 }
    }
}

impl Local {
    /// Creates the default-tuned instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds a connected k-core containing `q` by local expansion, or
    /// `None` if the budget is exhausted or the frontier empties first.
    pub fn fixed_k(&self, g: &AttributedGraph, q: VertexId, k: u32) -> Option<Community> {
        if !g.contains(q) {
            return None;
        }
        // Cheap necessary condition: q itself needs ≥ k neighbours.
        if g.degree(q) < k as usize {
            return None;
        }
        let n = g.vertex_count();
        let mut in_c = VertexSet::with_capacity(n);
        in_c.insert(q);
        let mut members = vec![q];
        // connections[v] = edges from frontier vertex v into C.
        let mut connections: HashMap<VertexId, usize> = HashMap::new();
        for &u in g.neighbors(q) {
            *connections.entry(u).or_insert(0) += 1;
        }

        let cap = if self.max_candidates == 0 { usize::MAX } else { self.max_candidates };
        // The connected k-core with q inside the candidate set, if any.
        let mut scratch = PeelScratch::new();
        let mut core = Vec::new();
        let mut check = |members: &[VertexId]| {
            scratch
                .connected_k_core_containing_into(g, members, &[q], k, &mut core)
                .then(|| Community::structural(std::mem::take(&mut core)))
        };
        let mut since_check = 0usize;
        loop {
            // Admit the frontier vertex with the most connections into C;
            // ties broken by global degree (hubs first), then id.
            let pick = connections
                .iter()
                .map(|(&v, &c)| (c, g.degree(v), std::cmp::Reverse(v.0), v))
                .max()
                .map(|t| t.3);
            let Some(v) = pick else {
                // Frontier exhausted: one final check over everything seen.
                return check(&members);
            };
            connections.remove(&v);
            in_c.insert(v);
            members.push(v);
            for &u in g.neighbors(v) {
                if !in_c.contains(u) {
                    *connections.entry(u).or_insert(0) += 1;
                }
            }

            since_check += 1;
            // Only bother peeling once C could plausibly hold a k-core and
            // the admission cadence says so.
            if members.len() > k as usize && since_check >= self.check_every {
                since_check = 0;
                if let Some(c) = check(&members) {
                    return Some(c);
                }
            }
            if members.len() >= cap {
                // Final attempt at the cap before giving up.
                return check(&members);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::Global;
    use cx_datagen::{dblp_like, figure5_graph, DblpParams};

    #[test]
    fn finds_k_core_around_query() {
        let g = figure5_graph();
        let a = g.vertex_by_label("A").unwrap();
        let c = Local::new().fixed_k(&g, a, 3).unwrap();
        assert_eq!(c.len(), 4); // the K4
        assert!(c.contains(a));
        assert!(c.min_internal_degree(&g) >= 3);
    }

    #[test]
    fn degree_precheck_rejects_quickly() {
        let g = figure5_graph();
        let f = g.vertex_by_label("F").unwrap(); // degree 2
        assert!(Local::new().fixed_k(&g, f, 3).is_none());
        let j = g.vertex_by_label("J").unwrap(); // isolated
        assert!(Local::new().fixed_k(&g, j, 1).is_none());
        assert!(Local::new().fixed_k(&g, VertexId(99), 1).is_none());
    }

    #[test]
    fn exhausted_frontier_returns_none() {
        let g = figure5_graph();
        let h = g.vertex_by_label("H").unwrap(); // H–I pair only
        assert!(Local::new().fixed_k(&g, h, 2).is_none());
        // But k=1 succeeds with the pair.
        let c = Local::new().fixed_k(&g, h, 1).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn local_is_subset_of_global_core() {
        let (g, _) = dblp_like(&DblpParams { authors: 600, seed: 5, ..DblpParams::default() });
        // Query the highest-degree vertex.
        let q = g.vertices().max_by_key(|&v| g.degree(v)).unwrap();
        let k = 4;
        if let Some(local) = Local::new().fixed_k(&g, q, k) {
            let global = Global.fixed_k(&g, q, k).expect("global must exist if local does");
            assert!(local.min_internal_degree(&g) >= k as usize);
            // Every member of Local's community is in Global's (the maximal
            // connected k-core contains every k-core around q).
            for &v in local.vertices() {
                assert!(global.contains(v), "local member {v} outside global core");
            }
            // And Local's answer does not exceed Global's size.
            assert!(local.len() <= global.len());
        }
    }

    #[test]
    fn budget_cap_is_respected() {
        let (g, _) = dblp_like(&DblpParams { authors: 500, seed: 3, ..DblpParams::default() });
        let q = g.vertices().max_by_key(|&v| g.degree(v)).unwrap();
        let tiny = Local { max_candidates: 3, check_every: 1 };
        // With a 3-vertex budget a 5-core cannot appear.
        assert!(tiny.fixed_k(&g, q, 5).is_none());
    }
}
