//! End-to-end ACQ query hot-path latency and allocation census.
//!
//! Measures the steady-state cost of one ACQ query (the engine's default
//! `Dec` strategy) at three levels of the stack, with a counting global
//! allocator recording allocations per query:
//!
//! * `acq_scratch` — the scratch-resident algorithm path
//!   ([`cx_acq::acq_with_scratch`]): after warmup this must perform
//!   **zero** heap allocations per query (the contract `ci.sh` asserts
//!   in smoke mode at `CX_THREADS=1` and `8`);
//! * `acq_public` — the public [`cx_acq::acq`] entry, which copies the
//!   scratch-resident answer out into an owned `AcqResult`;
//! * `engine` — `Engine::search` with the result cache disabled (snapshot
//!   pin + spec resolution + cache-key construction + algorithm).
//!
//! Queries target the `top_hubs` of the seeded workload with `k = 4`,
//! matching the `query` phase of `par_scaling`. At 1M vertices and above
//! the committed paper-scale dataset (`DblpParams::paper_scale`, seed 42
//! — the same graph cxb's `acq_miss_1m` serves) replaces the scaled
//! workload, so the 1M row is measured on the graph the paper's numbers
//! anchor to.
//!
//! Usage: `query_hotpath [vertices] [samples] [--smoke] [--profile]
//! [--max-engine-ms MS]` (defaults 100000, 5).
//!
//! * `--smoke` additionally asserts the steady-state zero-alloc contract
//!   and exits non-zero on violation.
//! * `--profile` runs an extra profiled pass over the scratch path and
//!   emits a per-phase row (CL-tree walk / verify / member expansion).
//! * `--max-engine-ms MS` exits non-zero when the engine median exceeds
//!   the bound — the CI regression gate for the pruned path.

use std::time::Instant;

use cx_acq::{AcqOptions, AcqStrategy};
use cx_bench::alloc_counter;
use cx_bench::{peak_rss_kb, top_hubs, workload};
use cx_cltree::ClTree;
use cx_explorer::{Engine, QuerySpec};
use cx_graph::VertexId;

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

const K: u32 = 4;
const QUERY_COUNT: usize = 8;

/// Runs `f` once per query for `samples` rounds (after one warmup round)
/// and returns `(median ms per query, median allocs per query, median
/// bytes per query)`.
fn measure(
    samples: usize,
    queries: &[VertexId],
    mut f: impl FnMut(VertexId),
) -> (f64, u64, u64) {
    for &q in queries {
        f(q); // warmup: buffer capacities reach steady state
    }
    let mut times: Vec<f64> = Vec::new();
    let mut allocs: Vec<u64> = Vec::new();
    let mut bytes: Vec<u64> = Vec::new();
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        let ((), a, b) = alloc_counter::counted(|| {
            for &q in queries {
                f(q);
            }
        });
        times.push(start.elapsed().as_secs_f64() * 1e3 / queries.len() as f64);
        allocs.push(a / queries.len() as u64);
        bytes.push(b / queries.len() as u64);
    }
    times.sort_by(f64::total_cmp);
    allocs.sort_unstable();
    bytes.sort_unstable();
    (times[times.len() / 2], allocs[allocs.len() / 2], bytes[bytes.len() / 2])
}

fn report(phase: &str, n: usize, samples: usize, (ms, allocs, bytes): (f64, u64, u64)) {
    println!(
        "{{\"phase\":\"{phase}\",\"vertices\":{n},\"median_ms_per_query\":{ms:.3},\
         \"allocs_per_query\":{allocs},\"bytes_per_query\":{bytes},\"samples\":{samples}}}"
    );
}

fn main() {
    // Observability spans allocate their label when enabled; the contract
    // under test is the algorithm's, so measure with obs off.
    std::env::set_var("CX_OBS", "off");
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let profile = args.iter().any(|a| a == "--profile");
    args.retain(|a| a != "--profile");
    let max_engine_ms: Option<f64> = args
        .iter()
        .position(|a| a == "--max-engine-ms")
        .map(|i| args[i + 1].parse().expect("--max-engine-ms needs a number"));
    if let Some(i) = args.iter().position(|a| a == "--max-engine-ms") {
        args.drain(i..i + 2);
    }
    let n: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(100_000);
    let samples: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(5);

    // At paper scale, measure on the committed paper-scale graph (the one
    // cxb's acq_miss_1m serves) rather than the small-workload generator.
    let (g, _) = if n >= 1_000_000 {
        cx_bench::dblp_like(&cx_bench::DblpParams { authors: n, ..cx_bench::DblpParams::paper_scale(42) })
    } else {
        workload(n, 7)
    };
    let tree = ClTree::build(&g);
    let queries = top_hubs(&g, QUERY_COUNT);
    let opts = AcqOptions::with_k(K);

    // Scratch-resident path: the answer stays in reusable buffers, so a
    // steady-state query is alloc-free.
    let mut scratch = cx_acq::QueryScratch::new();
    let mut answer = cx_acq::QueryAnswer::new();
    let scratch_stats = measure(samples, &queries, |q| {
        cx_acq::acq_with_scratch(&g, &tree, q, &opts, AcqStrategy::Dec, &mut scratch, &mut answer);
        std::hint::black_box(answer.community_count());
    });
    report("acq_scratch", n, samples, scratch_stats);

    // Public API: same algorithm plus the owned `AcqResult` copy-out.
    let public_stats = measure(samples, &queries, |q| {
        std::hint::black_box(cx_acq::acq(&g, &tree, q, &opts, AcqStrategy::Dec));
    });
    report("acq_public", n, samples, public_stats);

    // Optional profiled pass: where does a scratch-path query spend its
    // time? (walk = CL-tree traversals, verify = peels + intersections,
    // expand = finalize/member expansion; the remainder is driver logic.)
    if profile {
        cx_acq::profile::set_enabled(true);
        cx_acq::profile::reset();
        let rounds = samples.max(1);
        for _ in 0..rounds {
            for &q in &queries {
                cx_acq::acq_with_scratch(
                    &g, &tree, q, &opts, AcqStrategy::Dec, &mut scratch, &mut answer,
                );
                std::hint::black_box(answer.community_count());
            }
        }
        cx_acq::profile::set_enabled(false);
        let t = cx_acq::profile::totals();
        let per = (rounds * queries.len()) as f64;
        println!(
            "{{\"phase\":\"profile\",\"vertices\":{n},\
             \"walk_ms_per_query\":{:.3},\"verify_ms_per_query\":{:.3},\
             \"expand_ms_per_query\":{:.3},\"samples\":{rounds}}}",
            t.walk_ns as f64 / per / 1e6,
            t.verify_ns as f64 / per / 1e6,
            t.expand_ns as f64 / per / 1e6,
        );
    }

    // Engine end to end, cache disabled so the algorithm is measured.
    let labels: Vec<String> = queries.iter().map(|&q| g.label(q).to_owned()).collect();
    let engine = Engine::with_graph("dblp", g);
    engine.set_cache_capacity(0);
    let mut li = 0usize;
    let engine_stats = measure(samples, &queries, |_| {
        let spec = QuerySpec::by_label(labels[li % labels.len()].clone()).k(K);
        li += 1;
        std::hint::black_box(engine.search("acq", &spec).expect("search failed"));
    });
    report("engine", n, samples, engine_stats);

    let threads = cx_par::num_threads();
    let rss = peak_rss_kb().unwrap_or(0);
    println!(
        "{{\"vertices\":{n},\"threads\":{threads},\"peak_rss_kb\":{rss},\
         \"zero_alloc_steady_state\":{}}}",
        scratch_stats.1 == 0
    );
    if smoke {
        assert_eq!(
            scratch_stats.1, 0,
            "steady-state zero-alloc contract violated: {} allocs/query on the scratch path",
            scratch_stats.1
        );
    }
    if let Some(bound) = max_engine_ms {
        assert!(
            engine_stats.0 <= bound,
            "engine median {:.3}ms exceeds the --max-engine-ms bound {bound}ms",
            engine_stats.0
        );
    }
}
