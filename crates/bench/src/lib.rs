#![warn(missing_docs)]

//! # cx-bench — shared workload helpers for the experiment harness
//!
//! Every table and figure of the paper is regenerated by a binary in
//! `src/bin/` (human-readable tables, see EXPERIMENTS.md for the index).
//! This library holds the common workload construction so every
//! experiment runs on the same graphs. Performance is not measured here:
//! `benchmark/` (cxb) is the repo's one timing harness.

use cx_datagen::{dblp_like, DblpParams};
use cx_graph::{AttributedGraph, VertexId};

/// The standard experiment workload: a DBLP-like graph with `n` authors,
/// seeded deterministically. Returns the graph and planted areas.
pub fn workload(n: usize, seed: u64) -> (AttributedGraph, Vec<usize>) {
    dblp_like(&DblpParams::scaled(n, seed))
}

/// The highest-degree vertex — the "Jim Gray" of the synthetic graph
/// (queries in the paper target renowned, i.e. well-connected, authors).
pub fn hub_vertex(g: &AttributedGraph) -> VertexId {
    g.vertices().max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v.0))).expect("non-empty graph")
}

/// The `count` highest-degree vertices, ties broken by id — a stable set
/// of "renowned author" queries.
pub fn top_hubs(g: &AttributedGraph, count: usize) -> Vec<VertexId> {
    let mut vs: Vec<VertexId> = g.vertices().collect();
    vs.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v.0));
    vs.truncate(count);
    vs
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1_000.0 {
        format!("{us:.0}µs")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1e3)
    } else {
        format!("{:.2}s", us / 1e6)
    }
}

/// Times a closure, returning (result, elapsed).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_sized() {
        let (g1, a1) = workload(500, 1);
        let (g2, _) = workload(500, 1);
        assert_eq!(g1.vertex_count(), 500);
        assert_eq!(g1.edge_count(), g2.edge_count());
        assert_eq!(a1.len(), 500);
    }

    #[test]
    fn hubs_are_high_degree() {
        let (g, _) = workload(400, 2);
        let hub = hub_vertex(&g);
        assert_eq!(g.degree(hub), g.max_degree());
        let tops = top_hubs(&g, 5);
        assert_eq!(tops.len(), 5);
        assert_eq!(tops[0], hub);
        assert!(g.degree(tops[0]) >= g.degree(tops[4]));
    }

    #[test]
    fn duration_formatting() {
        use std::time::Duration;
        assert!(fmt_duration(Duration::from_micros(500)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with('s'));
    }

    #[test]
    fn timed_returns_result() {
        let (x, d) = timed(|| 41 + 1);
        assert_eq!(x, 42);
        assert!(d.as_nanos() > 0);
    }
}
