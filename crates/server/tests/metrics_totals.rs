//! Concurrency test for the cx-obs HTTP counters. Lives in its own test
//! binary (one test, one process) because the metrics registry is
//! process-global: any other test issuing requests in parallel would
//! shift the totals.
//!
//! Counting order contract: `route()` bumps `cx_http_requests_total`
//! *after* dispatch builds the response, so a `/metrics` scrape never
//! counts itself in its own body. Hence: initial scrape (A), N worker
//! requests, final scrape (B) → B's body reports `initial + 1 + N`
//! (A counted, B not).

use std::sync::Arc;

use cx_explorer::Engine;
use cx_graph::VertexId;
use cx_server::{Request, Server};

/// Sums every `cx_http_requests_total{class=...}` sample in an
/// exposition body, and reads `cx_http_request_duration_us_count`.
fn totals(body: &str) -> (u64, u64) {
    let mut requests = 0u64;
    let mut duration_count = 0u64;
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("cx_http_requests_total{") {
            let v = rest.split_whitespace().next_back().unwrap_or("0");
            requests += v.parse::<u64>().unwrap_or(0);
        }
        if let Some(rest) = line.strip_prefix("cx_http_request_duration_us_count ") {
            duration_count = rest.trim().parse().unwrap_or(0);
        }
    }
    (requests, duration_count)
}

#[test]
fn metrics_totals_match_requests_issued_under_concurrency() {
    let s = Arc::new(Server::new(Engine::with_graph("fig5", cx_datagen::figure5_graph())));

    let initial = s.handle(&Request::get("/metrics"));
    assert_eq!(initial.status, 200);
    let (req0, dur0) = totals(&initial.text());

    const THREADS: usize = 8;
    const PER_THREAD: usize = 25;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let target = match (t + i) % 4 {
                        0 => "/api/v1/graphs".to_owned(),
                        1 => "/api/v1/search?name=A&k=2&algo=acq".to_owned(),
                        2 => "/api/v1/stats".to_owned(),
                        _ => format!("/api/v1/search?name=ZZZ{t}"),
                    };
                    let r = s.handle(&Request::get(&target));
                    assert!(matches!(r.status, 200 | 404), "{target}: {}", r.status);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let n = (THREADS * PER_THREAD) as u64;
    let fin = s.handle(&Request::get("/metrics"));
    let (req1, dur1) = totals(&fin.text());
    // +1: the initial scrape was counted after its own body was built;
    // the final scrape is not yet counted in its own body.
    assert_eq!(req1, req0 + n + 1, "request counter must match requests issued");
    assert_eq!(dur1, dur0 + n + 1, "duration histogram count must match");

    // A detect that answers, one that fails, and one refused with a 401
    // each count as exactly one request. Every scrape sees the previous
    // scrape plus the one request in between.
    let mut seen = (req1, dur1);
    let mut counted_once = |what: &str, status: u16, want: u16| {
        assert_eq!(status, want, "{what}");
        let now = totals(&s.handle(&Request::get("/metrics")).text());
        assert_eq!(
            now,
            (seen.0 + 2, seen.1 + 2),
            "{what}: one request and one duration sample (plus the previous scrape)"
        );
        seen = now;
    };
    let detect = Request::get("/api/v1/detect?algo=louvain");
    counted_once("answered", s.handle(&detect).status, 200);
    let unknown = s.handle(&Request::get("/api/v1/detect?algo=nope"));
    counted_once("4xx", unknown.status, 404);
    let refused = cx_server::routes::route(&s.engine(), &detect, Some("sekrit"));
    counted_once("401", refused.status, 401);
    let scrape = s.handle(&Request::get("/metrics")).text();
    assert!(
        scrape.contains("cx_route_duration_us_count{endpoint=\"detect\"}"),
        "detect requests must have a per-route latency series:\n{scrape}"
    );

    // The write-path metrics share the same process-global registry, so
    // they are asserted here too (HTTP counting is already settled).
    // Every edit records its wall time in the cx_edit_apply_us histogram…
    let edit_us = cx_obs::global().histogram("cx_edit_apply_us");
    let edits0 = edit_us.count();
    let e = Engine::with_graph("fig5", cx_datagen::figure5_graph());
    // Dropping H–I only zeroes two of ten core numbers…
    e.apply_edits(None, &[], &[(cx_graph::VertexId(7), cx_graph::VertexId(8))]).unwrap();
    assert_eq!(edit_us.count(), edits0 + 1, "an edit must record cx_edit_apply_us");

    // …and dropping the whole K4 (6 edges) moves far more.
    let k4: Vec<_> = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        .iter()
        .map(|&(u, v)| (cx_graph::VertexId(u), cx_graph::VertexId(v)))
        .collect();
    e.apply_edits(None, &[], &k4).unwrap();
    assert_eq!(edit_us.count(), edits0 + 2);

    // An insert inside one connected k-core that moves no core number
    // shares the old tree and counts; a removal never does. The chord
    // 0–3 of a 6-cycle is such an insert.
    let shared = cx_obs::global().counter("cx_edit_tree_shared_total");
    let mut ring = cx_graph::GraphBuilder::new();
    let c: Vec<_> = (0..6).map(|i| ring.add_vertex(&format!("c{i}"), &[])).collect();
    for i in 0..6 {
        ring.add_edge(c[i], c[(i + 1) % 6]);
    }
    let e = Engine::with_graph("ring", ring.build());
    let sh0 = shared.get();
    e.apply_edits(None, &[(c[0], c[3])], &[]).unwrap();
    assert_eq!(shared.get(), sh0 + 1, "a same-component insert must share the tree");
    e.apply_edits(None, &[], &[(c[0], c[3])]).unwrap();
    assert_eq!(shared.get(), sh0 + 1, "a removal must repair, not share");

    // A repair records how many vertices it swept one by one. An
    // insert-only edit expands no node, so that is exactly the vertices
    // whose core moved: (G,E) and (F,C) lift F and G into fig5's 2-core.
    let swept = cx_obs::global().histogram("cx_edit_swept_vertices");
    let (sw0, swsum0) = (swept.count(), swept.sum_us());
    let e = Engine::with_graph("fig5", cx_datagen::figure5_graph());
    let before = e.snapshot(None).unwrap().tree.core_numbers().to_vec();
    let (ge, fc) = ((VertexId(6), VertexId(4)), (VertexId(5), VertexId(2)));
    e.apply_edits(None, &[ge, fc], &[]).unwrap();
    let after = e.snapshot(None).unwrap().tree.core_numbers().to_vec();
    let moved = before.iter().zip(&after).filter(|(b, a)| b != a).count() as u64;
    assert_eq!(moved, 2, "F and G rise to core 2");
    assert_eq!(swept.count(), sw0 + 1, "one repair, one swept-vertices sample");
    assert_eq!(swept.sum_us() - swsum0, moved, "an insert sweeps only the moved vertices");

    // The series are visible on the exposition endpoint.
    let scrape = s.handle(&Request::get("/metrics")).text();
    assert!(scrape.contains("cx_edit_apply_us_count"), "histogram missing from /metrics");
    assert!(scrape.contains("cx_edit_swept_vertices_count"), "swept histogram missing");
    assert!(
        scrape.contains("cx_edit_tree_shared_total"),
        "shared-tree counter missing from /metrics"
    );

    // The ACQ work histogram shares the same registry: one query, one
    // sample of how many candidates it verified.
    let verified = cx_obs::global().histogram("cx_acq_candidates_verified");
    let v0 = verified.count();
    let g2 = cx_datagen::figure5_graph();
    let tree = cx_cltree::ClTree::build(&g2);
    let res = cx_acq::acq(
        &g2,
        &tree,
        cx_graph::VertexId(0),
        &cx_acq::AcqOptions::with_k(2),
        cx_acq::AcqStrategy::Dec,
    );
    assert!(!res.communities.is_empty(), "A's 2-core query must find a community");
    assert_eq!(verified.count(), v0 + 1, "one query → one verified-candidates sample");

    // …and is visible on the exposition endpoint.
    let scrape = s.handle(&Request::get("/metrics")).text();
    assert!(
        scrape.contains("cx_acq_candidates_verified_count"),
        "cx_acq_candidates_verified missing from /metrics:\n{scrape}"
    );

    // Beside it, one sample per query of the lattice Dec examined —
    // candidates the neighbour masks refute included, which the verified
    // count leaves out. A hub's lattice is mostly refuted.
    let examined = cx_obs::global().histogram("cx_acq_lattice_examined");
    let (e0, sum0) = (examined.count(), examined.sum_us());
    let component = cx_obs::global().histogram("cx_acq_component_vertices");
    let (c0, csum0) = (component.count(), component.sum_us());
    let (g3, _) = cx_datagen::dblp_like(&cx_datagen::DblpParams::scaled(3_000, 7));
    let tree3 = cx_cltree::ClTree::build(&g3);
    let hub = g3.vertices().max_by_key(|&v| (g3.degree(v), v.0)).unwrap();
    let res =
        cx_acq::acq(&g3, &tree3, hub, &cx_acq::AcqOptions::with_k(3), cx_acq::AcqStrategy::Dec);
    assert_eq!(examined.count(), e0 + 1, "one query → one lattice sample");
    let sample = examined.sum_us() - sum0;
    assert!(
        sample > res.candidates_verified as u64,
        "the hub's lattice sample ({sample}) must count refuted candidates beyond the {} verified",
        res.candidates_verified
    );
    // The same search adds one sample of the vertices its verifications
    // admitted into q's components; each community of the answer came
    // from a verification that admitted all of its members.
    assert_eq!(component.count(), c0 + 1, "one query → one component sample");
    let admitted = component.sum_us() - csum0;
    let members = res.communities.iter().map(|c| c.len() as u64).sum::<u64>();
    assert!(
        admitted >= members,
        "the hub's component sample ({admitted}) must cover its answer's {members} members"
    );
    let scrape = s.handle(&Request::get("/metrics")).text();
    assert!(
        scrape.contains("cx_acq_lattice_examined_count"),
        "cx_acq_lattice_examined missing from /metrics:\n{scrape}"
    );
    assert!(
        scrape.contains("cx_acq_component_vertices_count"),
        "cx_acq_component_vertices missing from /metrics:\n{scrape}"
    );
}
