//! Batch edge-delta application: patch the CSR adjacency of an
//! [`AttributedGraph`] without rebuilding its attribute columns.
//!
//! [`AttributedGraph::edge_delta`] validates and coalesces a raw batch of
//! insertions/deletions into an [`EdgeDelta`] whose `added`/`removed` sets
//! are disjoint and *effective* (every added edge is absent from the base
//! graph, every removed edge present). [`AttributedGraph::apply_delta`]
//! then produces the successor graph by splicing only the adjacency
//! arrays; keywords, labels and the interner are shared with the base
//! graph via `Arc`, so an edit costs O(n + m) memcpy for the adjacency
//! plus O(Δ log Δ) for the patch — never a re-intern or label re-parse.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::error::GraphError;
use crate::graph::{AttributedGraph, VertexId};

/// A coalesced, validated batch of edge edits against a specific base
/// graph. Produced by [`AttributedGraph::edge_delta`]; consumed by
/// [`AttributedGraph::apply_delta`].
///
/// Semantics: the successor edge set is `(E \ removed) ∪ added`. When the
/// same edge appears in both the raw add and remove lists, the addition
/// wins (the edit "ends with the edge present"), matching how the engine
/// coalesces a queued batch. Self-loops and duplicates in the raw lists
/// are dropped during coalescing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeDelta {
    /// Normalised `(u, v)` with `u < v`, strictly sorted, each absent
    /// from the base graph.
    pub added: Vec<(VertexId, VertexId)>,
    /// Normalised `(u, v)` with `u < v`, strictly sorted, each present
    /// in the base graph; disjoint from `added`.
    pub removed: Vec<(VertexId, VertexId)>,
}

impl EdgeDelta {
    /// True when the delta changes nothing (every requested edit was a
    /// structural no-op).
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Number of effective edge changes.
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Every distinct vertex incident to an effective change.
    pub fn touched_vertices(&self) -> Vec<VertexId> {
        let mut vs: Vec<VertexId> = self
            .added
            .iter()
            .chain(&self.removed)
            .flat_map(|&(u, v)| [u, v])
            .collect();
        vs.sort_unstable();
        vs.dedup();
        vs
    }
}

impl AttributedGraph {
    /// Validates and coalesces a raw edit batch into an [`EdgeDelta`].
    ///
    /// Errors (without any side effect) if any endpoint is out of range.
    /// Self-loops are dropped, endpoint order is normalised to `u < v`,
    /// duplicates are deduplicated, an edge in both lists resolves to
    /// "present afterwards" (add wins), and edits that would not change
    /// the edge set are filtered out.
    pub fn edge_delta(
        &self,
        add: &[(VertexId, VertexId)],
        remove: &[(VertexId, VertexId)],
    ) -> Result<EdgeDelta, GraphError> {
        for &(u, v) in add.iter().chain(remove) {
            self.check_vertex(u)?;
            self.check_vertex(v)?;
        }
        let norm = |(u, v): (VertexId, VertexId)| if u < v { (u, v) } else { (v, u) };
        let add_set: HashSet<_> =
            add.iter().copied().filter(|&(u, v)| u != v).map(norm).collect();
        let remove_set: HashSet<_> =
            remove.iter().copied().filter(|&(u, v)| u != v).map(norm).collect();
        let mut added: Vec<_> =
            add_set.iter().copied().filter(|&(u, v)| !self.has_edge(u, v)).collect();
        let mut removed: Vec<_> = remove_set
            .into_iter()
            .filter(|e| !add_set.contains(e))
            .filter(|&(u, v)| self.has_edge(u, v))
            .collect();
        added.sort_unstable();
        removed.sort_unstable();
        Ok(EdgeDelta { added, removed })
    }

    /// Produces the successor graph `(V, (E \ removed) ∪ added)` by
    /// patching the CSR adjacency. Attribute columns (keyword CSR,
    /// label column, interner) are shared with `self` by `Arc` —
    /// see [`Self::shares_attributes_with`].
    ///
    /// `delta` must come from [`Self::edge_delta`] on this same graph
    /// (checked with debug assertions).
    pub fn apply_delta(&self, delta: &EdgeDelta) -> AttributedGraph {
        let n = self.vertex_count();
        // Per-vertex patch lists; only touched vertices get an entry, so
        // untouched adjacency rows fall through to a straight memcpy.
        let mut ins_of: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
        let mut del_of: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
        for &(u, v) in &delta.added {
            debug_assert!(u < v, "delta edges must be normalised");
            debug_assert!(!self.has_edge(u, v), "added edge already present");
            ins_of.entry(u).or_default().push(v);
            ins_of.entry(v).or_default().push(u);
        }
        for &(u, v) in &delta.removed {
            debug_assert!(u < v, "delta edges must be normalised");
            debug_assert!(self.has_edge(u, v), "removed edge absent");
            del_of.entry(u).or_default().push(v);
            del_of.entry(v).or_default().push(u);
        }

        let new_len = self.adj.len() + 2 * delta.added.len() - 2 * delta.removed.len();
        let mut adj = Vec::with_capacity(new_len);
        let mut adj_off: Vec<u32> = Vec::with_capacity(n + 1);
        adj_off.push(0);
        for vi in 0..n {
            let v = VertexId(vi as u32);
            let old = self.neighbors(v);
            let del = del_of.get(&v).map_or(&[][..], Vec::as_slice);
            match ins_of.get_mut(&v) {
                None if del.is_empty() => adj.extend_from_slice(old),
                ins => {
                    let ins = ins.map_or(&[][..], |list| {
                        list.sort_unstable();
                        &list[..]
                    });
                    // Sorted merge of (old \ del) with the insertions.
                    let mut i = 0;
                    for &w in old {
                        if del.contains(&w) {
                            continue;
                        }
                        while i < ins.len() && ins[i] < w {
                            adj.push(ins[i]);
                            i += 1;
                        }
                        adj.push(w);
                    }
                    adj.extend_from_slice(&ins[i..]);
                }
            }
            adj_off.push(adj.len() as u32);
        }
        debug_assert_eq!(adj.len(), new_len);

        AttributedGraph {
            adj_off,
            adj,
            kw_off: Arc::clone(&self.kw_off),
            kws: Arc::clone(&self.kws),
            labels: Arc::clone(&self.labels),
            interner: Arc::clone(&self.interner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Triangle plus pendant: a—b, b—c, a—c, c—d.
    fn fixture() -> AttributedGraph {
        let mut b = GraphBuilder::new();
        let va = b.add_vertex("a", &["x", "y"]);
        let vb = b.add_vertex("b", &["x"]);
        let vc = b.add_vertex("c", &["y", "z"]);
        let vd = b.add_vertex("d", &[]);
        b.add_edge(va, vb);
        b.add_edge(vb, vc);
        b.add_edge(va, vc);
        b.add_edge(vc, vd);
        b.build()
    }

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Full invariant sweep: sorted symmetric adjacency, consistent offsets.
    fn assert_csr_invariants(g: &AttributedGraph) {
        assert_eq!(g.adj_off.len(), g.vertex_count() + 1);
        assert_eq!(*g.adj_off.last().unwrap() as usize, g.adj.len());
        for u in g.vertices() {
            let ns = g.neighbors(u);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "unsorted/duplicate adjacency at {u}");
            for &w in ns {
                assert_ne!(w, u, "self-loop at {u}");
                assert!(g.neighbors(w).contains(&u), "asymmetric edge {u}-{w}");
            }
        }
    }

    #[test]
    fn insert_and_remove_roundtrip() {
        let g = fixture();
        let d = g.edge_delta(&[(v(0), v(3))], &[(v(1), v(2))]).unwrap();
        assert_eq!(d.added, vec![(v(0), v(3))]);
        assert_eq!(d.removed, vec![(v(1), v(2))]);
        let g2 = g.apply_delta(&d);
        assert_csr_invariants(&g2);
        assert_eq!(g2.edge_count(), 4);
        assert!(g2.has_edge(v(0), v(3)));
        assert!(!g2.has_edge(v(1), v(2)));
        // Base graph untouched.
        assert!(!g.has_edge(v(0), v(3)));
        assert!(g.has_edge(v(1), v(2)));
    }

    #[test]
    fn attributes_are_shared_not_copied() {
        let g = fixture();
        let d = g.edge_delta(&[(v(0), v(3))], &[]).unwrap();
        let g2 = g.apply_delta(&d);
        assert!(g2.shares_attributes_with(&g));
        assert_eq!(g2.label(v(2)), "c");
        assert_eq!(g2.vertex_by_label("d"), Some(v(3)));
        assert_eq!(g2.keyword_names(g2.keywords(v(0))), vec!["x", "y"]);
        assert_eq!(g2.keyword_count(), g.keyword_count());
        // Independently built graphs never share.
        assert!(!fixture().shares_attributes_with(&g));
    }

    #[test]
    fn coalescing_add_wins_and_noops_are_filtered() {
        let g = fixture();
        // (0,1) exists: adding it is a no-op; removing AND adding keeps it.
        // (0,3) absent: removing it is a no-op.
        let d = g
            .edge_delta(
                &[(v(0), v(1)), (v(1), v(0)), (v(2), v(2))],
                &[(v(0), v(1)), (v(0), v(3))],
            )
            .unwrap();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        let g2 = g.apply_delta(&d);
        assert_eq!(g2.edge_count(), g.edge_count());
        assert!(g2.has_edge(v(0), v(1)));
    }

    #[test]
    fn add_wins_when_edge_absent_from_base() {
        let g = fixture();
        let d = g.edge_delta(&[(v(0), v(3))], &[(v(3), v(0))]).unwrap();
        assert_eq!(d.added, vec![(v(0), v(3))]);
        assert!(d.removed.is_empty());
        assert!(g.apply_delta(&d).has_edge(v(0), v(3)));
    }

    #[test]
    fn out_of_range_vertex_rejected_before_any_effect() {
        let g = fixture();
        assert!(g.edge_delta(&[(v(0), v(9))], &[]).is_err());
        assert!(g.edge_delta(&[], &[(v(9), v(0))]).is_err());
    }

    #[test]
    fn touched_vertices_dedup_sorted() {
        let g = fixture();
        let d = g.edge_delta(&[(v(3), v(0))], &[(v(2), v(0))]).unwrap();
        assert_eq!(d.touched_vertices(), vec![v(0), v(2), v(3)]);
    }

    #[test]
    fn delta_matches_from_scratch_rebuild_on_seeded_graphs() {
        // Deterministic xorshift so the test needs no rng dependency.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 60u32;
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_vertex(&format!("v{i}"), &["k"]);
        }
        let mut edges: HashSet<(VertexId, VertexId)> = HashSet::new();
        for _ in 0..150 {
            let (a, c) = (v(rng() as u32 % n), v(rng() as u32 % n));
            if a != c {
                let e = if a < c { (a, c) } else { (c, a) };
                if edges.insert(e) {
                    b.add_edge(e.0, e.1);
                }
            }
        }
        let mut g = b.build();

        for _ in 0..40 {
            // Random raw batch: up to 4 adds + 4 removes, may overlap.
            let mut add = Vec::new();
            let mut remove = Vec::new();
            for _ in 0..(rng() % 4 + 1) {
                add.push((v(rng() as u32 % n), v(rng() as u32 % n)));
            }
            let edge_list: Vec<_> = g.edges().collect();
            for _ in 0..(rng() % 4 + 1) {
                if !edge_list.is_empty() {
                    remove.push(edge_list[rng() as usize % edge_list.len()]);
                }
            }
            let d = g.edge_delta(&add, &remove).unwrap();
            let g2 = g.apply_delta(&d);
            assert_csr_invariants(&g2);

            // From-scratch rebuild with the same coalesced semantics.
            let removed: HashSet<_> = d.removed.iter().copied().collect();
            let mut fresh = GraphBuilder::new();
            for i in 0..n {
                fresh.add_vertex(&format!("v{i}"), &["k"]);
            }
            for e in g.edges().filter(|e| !removed.contains(e)).chain(d.added.iter().copied()) {
                fresh.add_edge(e.0, e.1);
            }
            let expect = fresh.build();
            assert_eq!(g2.edge_count(), expect.edge_count());
            for u in g2.vertices() {
                assert_eq!(g2.neighbors(u), expect.neighbors(u), "adjacency differs at {u}");
            }
            g = g2;
        }
    }
}
