//! Batch edge-delta application: patch the CSR adjacency of an
//! [`AttributedGraph`] without rebuilding its attribute columns.
//!
//! [`AttributedGraph::edge_delta`] validates and coalesces a raw batch of
//! insertions/deletions into an [`EdgeDelta`] whose `added`/`removed` sets
//! are disjoint and *effective* (every added edge is absent from the base
//! graph, every removed edge present). [`AttributedGraph::apply_delta`]
//! then produces the successor graph by splicing only the adjacency
//! arrays; keywords, labels and the interner are shared with the base
//! graph via `Arc`. The delta's per-row patches are sorted once; each run
//! of untouched rows between two patched rows is one `extend_from_slice`
//! plus shifted offsets, so an edit costs an O(n + m) memcpy for the
//! adjacency plus O(Δ log Δ) for the patch — no per-vertex lookup, and
//! never a re-intern or label re-parse.

use std::collections::HashSet;
use std::sync::Arc;

use crate::error::GraphError;
use crate::graph::{AttributedGraph, CsrOffset, VertexId};

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
        debug_assert!(
            delta.added.iter().all(|&(u, v)| u < v && !self.has_edge(u, v)),
            "added edges must be normalised and absent"
        );
        debug_assert!(
            delta.removed.iter().all(|&(u, v)| u < v && self.has_edge(u, v)),
            "removed edges must be normalised and present"
        );
        // Every change as two (row, neighbour) patches, sorted once: each
        // touched row's patches then form one run, ascending by neighbour,
        // and the rows between two runs are untouched.
        let mut patches: Vec<(VertexId, VertexId)> = delta
            .added
            .iter()
            .chain(&delta.removed)
            .flat_map(|&(u, v)| [(u, v), (v, u)])
            .collect();
        patches.sort_unstable();

        let new_len = self.adj.len() + 2 * delta.added.len() - 2 * delta.removed.len();
        let mut adj = Vec::with_capacity(new_len);
        let mut adj_off: Vec<CsrOffset> = Vec::with_capacity(n + 1);
        adj_off.push(0);
        // Rows `from..to` are untouched: one copy of their neighbours, and
        // their end offsets moved by how far the copy lands from where the
        // rows sat (a shift that may be negative, hence wrapping).
        let copy_rows =
            |adj: &mut Vec<VertexId>, adj_off: &mut Vec<CsrOffset>, from: usize, to: usize| {
                let (start, end) = (self.adj_off[from], self.adj_off[to]);
                let shift = (adj.len() as CsrOffset).wrapping_sub(start);
                adj.extend_from_slice(&self.adj[start as usize..end as usize]);
                adj_off.extend(self.adj_off[from + 1..=to].iter().map(|&o| o.wrapping_add(shift)));
            };
        let mut row = 0;
        for run in patches.chunk_by(|a, b| a.0 == b.0) {
            let r = run[0].0;
            copy_rows(&mut adj, &mut adj_off, row, r.index());
            // Sorted merge of the old row with its patches. The delta is
            // effective, so a patch equal to an old neighbour removes it
            // and any other patch is an insertion.
            let mut run = run.iter().map(|&(_, x)| x).peekable();
            for &w in self.neighbors(r) {
                while let Some(x) = run.next_if(|&x| x < w) {
                    adj.push(x);
                }
                if run.next_if_eq(&w).is_none() {
                    adj.push(w);
                }
            }
            adj.extend(run);
            adj_off.push(adj.len() as CsrOffset);
            row = r.index() + 1;
        }
        copy_rows(&mut adj, &mut adj_off, row, n);
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

    /// Applies `d` to `g` and checks the result against a graph built
    /// from scratch with the coalesced edge set `(E \ removed) ∪ added`.
    fn apply_and_check(g: &AttributedGraph, d: &EdgeDelta) -> AttributedGraph {
        let g2 = g.apply_delta(d);
        assert_csr_invariants(&g2);
        let removed: HashSet<_> = d.removed.iter().copied().collect();
        let mut fresh = GraphBuilder::new();
        for u in g.vertices() {
            let names = g.keyword_names(g.keywords(u));
            fresh.add_vertex(g.label(u), &names.iter().map(String::as_str).collect::<Vec<_>>());
        }
        for e in g.edges().filter(|e| !removed.contains(e)).chain(d.added.iter().copied()) {
            fresh.add_edge(e.0, e.1);
        }
        let expect = fresh.build();
        assert_eq!(g2.edge_count(), expect.edge_count());
        for u in g2.vertices() {
            assert_eq!(g2.neighbors(u), expect.neighbors(u), "adjacency differs at {u}");
        }
        g2
    }

    /// A 12-cycle with chords i—(i+3), so every row has neighbours on
    /// both sides and room for more.
    fn ring() -> AttributedGraph {
        let mut b = GraphBuilder::new();
        for i in 0..12 {
            b.add_vertex(&format!("r{i}"), &["k"]);
        }
        for i in 0..12 {
            b.add_edge(v(i), v((i + 1) % 12));
            b.add_edge(v(i), v((i + 3) % 12));
        }
        b.build()
    }

    #[test]
    fn untouched_runs_are_copied_around_every_patched_row() {
        let g = ring();
        // (0, 11) and (4, 5) are ring edges; (0, 5), (4, 9) and (5, 10)
        // are absent.
        type Edges<'a> = &'a [(VertexId, VertexId)];
        let cases: [(&str, Edges, Edges); 5] = [
            ("rows 0 and n-1 only", &[], &[(v(0), v(11))]),
            ("rows 0 and n-1 among others", &[(v(0), v(5))], &[(v(8), v(11))]),
            ("two adjacent rows only", &[], &[(v(4), v(5))]),
            ("two adjacent rows, each with a far end", &[(v(4), v(9)), (v(5), v(10))], &[]),
            ("every row of a batch adjacent", &[(v(4), v(9))], &[(v(3), v(4)), (v(5), v(6))]),
        ];
        for (what, add, remove) in cases {
            let d = g.edge_delta(add, remove).unwrap();
            assert_eq!(d.len(), add.len() + remove.len(), "{what}: every edit is effective");
            apply_and_check(&g, &d);
        }
    }

    #[test]
    fn a_row_can_lose_every_neighbour() {
        let g = ring();
        for row in [0u32, 6, 11] {
            let all: Vec<_> = g.neighbors(v(row)).iter().map(|&w| (v(row), w)).collect();
            let g2 = apply_and_check(&g, &g.edge_delta(&[], &all).unwrap());
            assert_eq!(g2.degree(v(row)), 0, "row {row}");
        }
    }

    #[test]
    fn sixteen_inserts_into_one_row() {
        let mut b = GraphBuilder::new();
        for i in 0..40 {
            b.add_vertex(&format!("s{i}"), &[]);
        }
        for i in 0..39 {
            b.add_edge(v(i), v(i + 1));
        }
        let g = b.build();
        // Row 20 gains 16 neighbours on both sides of its old two, and
        // loses one of them in the same batch.
        let add: Vec<_> =
            (0..40).step_by(2).filter(|&i| i != 20).take(16).map(|i| (v(20), v(i))).collect();
        assert_eq!(add.len(), 16);
        let d = g.edge_delta(&add, &[(v(20), v(21))]).unwrap();
        let g2 = apply_and_check(&g, &d);
        assert_eq!(g2.degree(v(20)), 2 + 16 - 1);
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
            g = apply_and_check(&g, &d);
        }
    }
}
