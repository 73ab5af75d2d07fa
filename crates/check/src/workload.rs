//! Seeded graph/query matrices — the reproducible workloads the oracles
//! sweep.
//!
//! A *graph case* is a named, seeded [`cx_datagen`] graph; a *query case*
//! is one (vertex or vertex pair, k, keyword-selection) combination
//! against it. Both are
//! pure functions of their seeds, so a CI failure message like
//! `dblp-200/s7 q=author-63 k=2` reproduces exactly on any machine.

use std::collections::HashSet;

use cx_datagen::{dblp_like, DblpParams};
use cx_graph::{AttributedGraph, KeywordId, VertexId};
use cx_kcore::CoreDecomposition;
use cx_par::rng::Rng64;

/// One named, seeded workload graph.
pub struct GraphCase {
    /// Stable display name, e.g. `dblp-200/s7` or `figure5`.
    pub name: String,
    /// The generated graph.
    pub graph: AttributedGraph,
}

/// One generated query against a workload graph.
#[derive(Debug, Clone)]
pub struct QueryCase {
    /// The query vertex.
    pub q: VertexId,
    /// A second query vertex, making the case the multi-vertex query
    /// `Q = {q, companion}` (the UI's "+" button).
    pub companion: Option<VertexId>,
    /// Minimum internal degree.
    pub k: u32,
    /// Explicit keyword selection (empty = the ACQ default `S = W(q)`).
    pub keywords: Vec<KeywordId>,
}

impl QueryCase {
    /// The query set: `q`, then the companion when there is one.
    pub fn qs(&self) -> Vec<VertexId> {
        std::iter::once(self.q).chain(self.companion).collect()
    }

    /// Short reproducer string for failure messages.
    pub fn describe(&self, g: &AttributedGraph) -> String {
        let with = match self.companion {
            Some(c) => format!(" +{} ({c:?})", g.label(c)),
            None => String::new(),
        };
        format!(
            "q={} ({:?}){with} k={} |S|={}",
            g.label(self.q),
            self.q,
            self.k,
            if self.keywords.is_empty() { g.keywords(self.q).len() } else { self.keywords.len() }
        )
    }
}

/// DBLP-like parameters sized for correctness sweeps: smaller per-author
/// keyword sets than the benchmark preset, so the exponential `Basic`
/// baseline stays cheap enough to participate in every differential.
pub fn check_params(authors: usize, seed: u64) -> DblpParams {
    DblpParams {
        authors,
        areas: (authors / 60).clamp(2, 16),
        keywords_per_author: 6,
        vocab_per_area: 24,
        seed,
        ..DblpParams::default()
    }
}

/// The seed matrix: the Figure 5 fixture plus one DBLP-like graph per
/// (size, seed) pair. Sizes are author counts.
pub fn graph_matrix(sizes: &[usize], seeds: &[u64]) -> Vec<GraphCase> {
    let mut out = vec![GraphCase {
        name: "figure5".into(),
        graph: cx_datagen::figure5_graph(),
    }];
    for &n in sizes {
        for &seed in seeds {
            let (graph, _areas) = dblp_like(&check_params(n, seed));
            out.push(GraphCase { name: format!("dblp-{n}/s{seed}"), graph });
        }
    }
    out
}

/// Generates `count` query cases against `g`, seeded: a mix of hub
/// vertices (well-connected "renowned authors", what the paper queries),
/// uniform random vertices, and low-degree periphery; `k` cycles through
/// 0..=4 from a seeded offset (so any five consecutive cases cover every
/// k); every third query pins an explicit keyword subset of `W(q)`
/// (including occasionally a keyword `q` does not carry, which ACQ must
/// ignore); every second query carries a companion vertex — q's
/// lowest-degree neighbour of core number ≥ k (the one a keyword-restricted
/// peel most easily drops), or, one time in four (or when q has no such
/// neighbour), a vertex outside q's connected k-core, where the answer
/// must be empty.
pub fn query_workload(g: &AttributedGraph, count: usize, seed: u64) -> Vec<QueryCase> {
    let n = g.vertex_count();
    if n == 0 {
        return Vec::new();
    }
    let mut rng = Rng64::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut by_degree: Vec<VertexId> = g.vertices().collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v.0));
    let cores = CoreDecomposition::compute(g);
    let k_offset = rng.next_u64() as usize % 5;
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let q = match i % 3 {
            // Hubs: one of the 10 best-connected vertices.
            0 => by_degree[(rng.next_u64() as usize) % by_degree.len().min(10)],
            // Uniform random.
            1 => VertexId((rng.next_u64() % n as u64) as u32),
            // Periphery: one of the 25% lowest-degree vertices.
            _ => {
                let tail = (n / 4).max(1);
                by_degree[n - 1 - (rng.next_u64() as usize) % tail]
            }
        };
        let k = ((i + k_offset) % 5) as u32;
        let mut keywords = Vec::new();
        if i % 3 == 2 {
            // Explicit subset of W(q) (possibly empty), sometimes salted
            // with a keyword from elsewhere in the vocabulary — half of
            // those times alone, so S ∩ W(q) may be empty and ACQ must
            // fall back to the plain connected k-core.
            for &w in g.keywords(q) {
                if rng.next_u64().is_multiple_of(2) {
                    keywords.push(w);
                }
            }
            if g.keyword_count() > 0 && rng.next_u64().is_multiple_of(4) {
                if rng.next_u64().is_multiple_of(2) {
                    keywords.clear();
                }
                keywords.push(KeywordId((rng.next_u64() % g.keyword_count() as u64) as u32));
            }
        }
        let companion = (i % 2 == 1).then(|| {
            let mates: Vec<VertexId> =
                g.neighbors(q).iter().copied().filter(|&u| cores.core(u) >= k).collect();
            if !mates.is_empty() && !rng.next_u64().is_multiple_of(4) {
                return *mates.iter().min_by_key(|&&u| (g.degree(u), u.0)).unwrap();
            }
            let core = cores.connected_k_core(g, q, k).unwrap_or_default();
            let start = rng.next_u64() as usize % n;
            (0..n)
                .map(|j| VertexId(((start + j) % n) as u32))
                .find(|v| core.binary_search(v).is_err())
                .unwrap_or(q)
        });
        out.push(QueryCase { q, companion, k, keywords });
    }
    out
}

/// One step of a seeded edit script: a small batch of inserts and
/// deletes applied through a single `apply_edits` call.
#[derive(Debug, Clone, Default)]
pub struct EditStep {
    /// Edges to insert (normalized `u < v`).
    pub add: Vec<(VertexId, VertexId)>,
    /// Edges to delete (normalized `u < v`).
    pub remove: Vec<(VertexId, VertexId)>,
}

/// Generates a seeded, always-valid edit script against `g`: `steps`
/// batches of 1–3 edits each, ~40% deletes of currently-present edges and
/// the rest inserts of currently-absent pairs, with an occasional
/// structural no-op (re-adding an edge that already exists) thrown in.
/// The generator tracks the evolving edge set, so every delete targets an
/// existing edge and every insert a missing one — the interleavings that
/// exercise the incremental write path rather than its error handling.
pub fn edit_script(g: &AttributedGraph, steps: usize, seed: u64) -> Vec<EditStep> {
    let n = g.vertex_count() as u64;
    if n < 2 {
        return Vec::new();
    }
    let mut present: Vec<(VertexId, VertexId)> = g.edges().collect();
    let mut in_graph: HashSet<(VertexId, VertexId)> = present.iter().copied().collect();
    let mut rng = Rng64::seed_from_u64(seed ^ 0xED17_5C21_9B0D_4E63);
    let mut out = Vec::with_capacity(steps);
    for i in 0..steps {
        let batch = 1 + (rng.next_u64() % 3) as usize;
        let mut step = EditStep::default();
        let mut added_this_step: HashSet<(VertexId, VertexId)> = HashSet::new();
        for _ in 0..batch {
            if !present.is_empty() && rng.next_u64() % 5 < 2 {
                // Delete an edge present before this step (not one the
                // same batch adds — `apply_edits` coalesces with add-wins
                // semantics, which would turn the pair into a no-op).
                for _ in 0..8 {
                    let idx = (rng.next_u64() as usize) % present.len();
                    if added_this_step.contains(&present[idx]) {
                        continue;
                    }
                    let e = present.swap_remove(idx);
                    in_graph.remove(&e);
                    step.remove.push(e);
                    break;
                }
            } else {
                for _ in 0..8 {
                    let u = VertexId((rng.next_u64() % n) as u32);
                    let v = VertexId((rng.next_u64() % n) as u32);
                    if u == v {
                        continue;
                    }
                    let e = if u < v { (u, v) } else { (v, u) };
                    if in_graph.contains(&e) {
                        continue;
                    }
                    in_graph.insert(e);
                    present.push(e);
                    added_this_step.insert(e);
                    step.add.push(e);
                    break;
                }
            }
        }
        // Occasionally re-add an existing edge: a structural no-op the
        // incremental path must coalesce away.
        if i % 7 == 3 && !present.is_empty() {
            step.add.push(present[(rng.next_u64() as usize) % present.len()]);
        }
        out.push(step);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_deterministic() {
        let a = graph_matrix(&[80], &[7]);
        let b = graph_matrix(&[80], &[7]);
        assert_eq!(a.len(), 2); // figure5 + dblp-80/s7
        assert_eq!(a[1].name, "dblp-80/s7");
        assert_eq!(a[1].graph.vertex_count(), b[1].graph.vertex_count());
        assert_eq!(a[1].graph.edge_count(), b[1].graph.edge_count());
        let ea: Vec<_> = a[1].graph.edges().collect();
        let eb: Vec<_> = b[1].graph.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn workload_is_deterministic_and_in_bounds() {
        let g = cx_datagen::figure5_graph();
        let w1 = query_workload(&g, 12, 3);
        let w2 = query_workload(&g, 12, 3);
        assert_eq!(w1.len(), 12);
        for (a, b) in w1.iter().zip(&w2) {
            assert_eq!(a.q, b.q);
            assert_eq!(a.companion, b.companion);
            assert_eq!(a.k, b.k);
            assert_eq!(a.keywords, b.keywords);
            assert!(g.contains(a.q));
            assert!(a.companion.is_none_or(|c| g.contains(c)));
            assert!((0..=4).contains(&a.k));
        }
        // Every k, single vertices and pairs all occur.
        assert!((0..=4).all(|k| w1.iter().any(|c| c.k == k)));
        assert!(w1.iter().any(|c| c.companion.is_some()));
        assert!(w1.iter().any(|c| c.companion.is_none()));
        // Different seeds give different workloads.
        let w3 = query_workload(&g, 12, 4);
        assert!(w1.iter().zip(&w3).any(|(a, b)| a.q != b.q || a.k != b.k));
    }

    #[test]
    fn edit_scripts_are_deterministic_and_valid() {
        let g = cx_datagen::figure5_graph();
        let s1 = edit_script(&g, 30, 9);
        let s2 = edit_script(&g, 30, 9);
        assert_eq!(s1.len(), 30);
        for (a, b) in s1.iter().zip(&s2) {
            assert_eq!(a.add, b.add);
            assert_eq!(a.remove, b.remove);
        }
        assert!(s1.iter().zip(edit_script(&g, 30, 10)).any(|(a, b)| a.add != b.add));
        // Replaying the script through the real delta layer never errors:
        // every step is valid against the graph state it was generated for.
        let mut cur = g.clone();
        let mut deletes = 0;
        for step in &s1 {
            let delta = cur.edge_delta(&step.add, &step.remove).unwrap();
            deletes += delta.removed.len();
            cur = cur.apply_delta(&delta);
        }
        assert!(deletes > 0, "script never deleted anything");
    }

    #[test]
    fn check_params_keep_basic_feasible() {
        let p = check_params(120, 1);
        assert!(p.keywords_per_author <= 8, "Basic is 2^|S|; keep S small");
        let (g, _) = dblp_like(&p);
        assert_eq!(g.vertex_count(), 120);
    }
}
