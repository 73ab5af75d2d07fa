//! Determinism contract of the cx-par parallel paths: core numbers,
//! peeling-derived quantities, and triangle counts must be *identical*
//! at every thread count. The chunking in `cx_par` depends only on the
//! input length and partial results are combined in chunk order, so this
//! holds exactly (not just statistically).

use std::sync::{Mutex, MutexGuard};

use cx_datagen::{dblp_like, DblpParams};
use cx_graph::AttributedGraph;
use cx_kcore::truss::{triangle_count, TrussDecomposition};
use cx_kcore::CoreDecomposition;

fn graphs() -> Vec<AttributedGraph> {
    [1_000usize, 8_000, 25_000]
        .iter()
        .map(|&n| dblp_like(&DblpParams::scaled(n, 11)).0)
        .collect()
}

/// Held by every test here: each one reads `CX_THREADS` (through the
/// parallel paths) or writes it, and the tests run on parallel threads.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn env_lock() -> MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` once per thread count and asserts all outputs are equal.
fn at_thread_counts<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
    let _guard = env_lock();
    std::env::set_var("CX_THREADS", "1");
    cx_par::refresh_threads();
    let base = f();
    for threads in ["2", "8"] {
        std::env::set_var("CX_THREADS", threads);
        cx_par::refresh_threads();
        assert_eq!(f(), base, "diverged at CX_THREADS={threads}");
    }
    std::env::remove_var("CX_THREADS");
    cx_par::refresh_threads();
}

#[test]
fn core_numbers_identical_across_thread_counts() {
    for g in graphs() {
        at_thread_counts(|| CoreDecomposition::compute(&g).core_numbers().to_vec());
        at_thread_counts(|| CoreDecomposition::compute_par(&g).core_numbers().to_vec());
    }
}

#[test]
fn parallel_and_sequential_decompositions_agree() {
    let _guard = env_lock();
    for g in graphs() {
        let seq = CoreDecomposition::compute(&g);
        let par = CoreDecomposition::compute_par(&g);
        assert_eq!(seq.core_numbers(), par.core_numbers());
        assert_eq!(seq.max_core(), par.max_core());
        assert_eq!(seq.histogram(), par.histogram());
    }
}

#[test]
fn triangle_counts_identical_across_thread_counts() {
    for g in graphs() {
        at_thread_counts(|| triangle_count(&g));
    }
}

#[test]
fn truss_values_identical_across_thread_counts() {
    let (g, _) = dblp_like(&DblpParams::scaled(2_000, 11));
    at_thread_counts(|| {
        let t = TrussDecomposition::compute(&g);
        let per_edge: Vec<u32> = g
            .edges()
            .map(|(u, v)| t.truss_of(u, v).expect("edge has a truss value"))
            .collect();
        (t.max_truss(), per_edge)
    });
}
