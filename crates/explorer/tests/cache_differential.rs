//! Cache-transparency differential (cx-check oracle): a cache hit must be
//! byte-identical to the cold computation, including after interleaved
//! graph edits — the cache must never serve results for a stale graph.

use cx_check::{cached_vs_uncached, fingerprint};
use cx_datagen::{dblp_like, figure5_graph};
use cx_explorer::{Engine, QuerySpec};
use cx_graph::VertexId;

#[test]
fn cache_oracle_clean_across_algorithms() {
    let (g, _) = dblp_like(&cx_check::workload::check_params(120, 3));
    let hub = g.vertices().max_by_key(|&v| g.degree(v)).unwrap();
    for algo in Engine::new().cs_names() {
        for k in [1, 2, 3] {
            let mismatches =
                cached_vs_uncached(&g, algo, &QuerySpec::by_id(hub).k(k));
            assert!(mismatches.is_empty(), "{algo} k={k}: {mismatches:?}");
        }
    }
}

/// The satellite scenario: query → edit → query → edit → query, asserting
/// after every step that (a) a repeated query is served by the cache and
/// byte-identical to its cold run, and (b) the post-edit answer matches a
/// fresh engine built directly on the edited graph (no stale cache hits).
#[test]
fn cache_hits_stay_identical_through_interleaved_edits() {
    let engine = Engine::with_graph("fig5", figure5_graph());
    let spec = QuerySpec::by_label("A").k(2);

    // Edits: remove an edge of the K4, then add it back, then remove a
    // different one — each bumps the generation and invalidates the cache.
    let edit_script: &[(&[(VertexId, VertexId)], &[(VertexId, VertexId)])] = &[
        (&[], &[(VertexId(0), VertexId(1))]),
        (&[(VertexId(0), VertexId(1))], &[]),
        (&[], &[(VertexId(2), VertexId(3))]),
    ];

    for (step, (add, remove)) in edit_script.iter().enumerate() {
        let cold = engine.search_on(None, "acq", &spec).unwrap();
        let hits_before = engine.cache_stats().hits;
        let warm = engine.search_on(None, "acq", &spec).unwrap();
        assert_eq!(
            engine.cache_stats().hits,
            hits_before + 1,
            "step {step}: repeat query must hit the cache"
        );
        assert_eq!(
            fingerprint(&cold),
            fingerprint(&warm),
            "step {step}: cache hit differs from cold computation"
        );

        engine.apply_edits(None, add, remove).unwrap();

        // A brand-new engine on an identically-edited graph is the oracle
        // for "the cache did not leak a stale answer".
        let post = engine.search_on(None, "acq", &spec).unwrap();
        let reference_engine = {
            let e = Engine::with_graph("fig5", figure5_graph());
            // Replay the whole edit history from scratch.
            for (a, r) in edit_script.iter().take(step + 1) {
                e.apply_edits(None, a, r).unwrap();
            }
            e
        };
        let expected = reference_engine.search_on(None, "acq", &spec).unwrap();
        assert_eq!(
            fingerprint(&post),
            fingerprint(&expected),
            "step {step}: post-edit answer does not match a fresh engine"
        );
    }
}

/// Disabling the cache must not change any answer (capacity 0 vs default).
#[test]
fn capacity_zero_engine_agrees_with_cached_engine() {
    let (g, _) = dblp_like(&cx_check::workload::check_params(80, 11));
    let cached = Engine::with_graph("g", g.clone());
    let uncached = Engine::with_graph("g", g.clone());
    uncached.set_cache_capacity(0);
    for v in [0u32, 7, 23, 41] {
        let spec = QuerySpec::by_id(VertexId(v)).k(2);
        let a = cached.search_on(None, "acq", &spec).unwrap();
        let b = uncached.search_on(None, "acq", &spec).unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b), "v={v}");
    }
    // The cached engine must actually be caching (repeat queries hit).
    let before = cached.cache_stats().hits;
    cached.search_on(None, "acq", &QuerySpec::by_id(VertexId(0)).k(2)).unwrap();
    assert_eq!(cached.cache_stats().hits, before + 1);
    assert_eq!(uncached.cache_stats().hits, 0);
}
