//! The zero-allocation contract of the `Dec` hot path: with a warmed
//! [`QueryScratch`] / [`QueryAnswer`], a query through
//! [`acq_with_scratch`] performs no heap allocation at all — with cx-obs
//! recording off, and with it on (the production default), where the
//! `acq.dec` span and its histogram are recorded by static name. The
//! recording-on figure is what cxb reports as `acq.allocs_per_query`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cx_acq::{acq_with_scratch, AcqOptions, AcqStrategy, QueryAnswer, QueryScratch};
use cx_cltree::ClTree;
use cx_datagen::{dblp_like, DblpParams};
use cx_graph::VertexId;

thread_local! {
    /// Allocations made by the calling thread. `const`-initialised, so
    /// reading it never allocates, and per thread, so the harness and
    /// any pool thread cannot pollute the test thread's count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread may allocate while its locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Forwards to [`System`], counting `alloc` / `alloc_zeroed` / `realloc`
/// per calling thread.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn warmed_dec_query_allocates_nothing() {
    let (g, _) = dblp_like(&DblpParams::scaled(20_000, 7));
    let tree = ClTree::build(&g);
    // The 8 highest-degree vertices, ties broken by id.
    let mut queries: Vec<VertexId> = g.vertices().collect();
    queries.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v.0));
    queries.truncate(8);
    let opts = AcqOptions::with_k(4);
    let mut scratch = QueryScratch::new();
    let mut answer = QueryAnswer::new();
    let mut communities = 0;
    let mut sweep = || {
        for &q in &queries {
            acq_with_scratch(&g, &tree, q, &opts, AcqStrategy::Dec, &mut scratch, &mut answer);
            communities += std::hint::black_box(answer.community_count());
        }
    };

    // One test, both settings in turn: the gate is process-wide.
    for recording in [false, true] {
        cx_obs::set_enabled(recording);
        // Warmup: buffer capacities reach their high-water mark, and with
        // recording on the span's histogram and the metrics are registered.
        sweep();
        let before = ALLOCS.with(Cell::get);
        sweep();
        let allocs = ALLOCS.with(Cell::get) - before;
        let n = queries.len();
        assert_eq!(
            allocs, 0,
            "steady-state Dec (recording {recording}) allocated {allocs} times over {n} queries"
        );
    }
    assert!(communities > 0, "the hub queries must find communities");
}
