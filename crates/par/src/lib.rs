#![warn(missing_docs)]

//! # cx-par — dependency-free parallel execution toolkit
//!
//! The build environment is offline, so this crate implements on plain
//! `std` what rayon/crossbeam would otherwise provide:
//!
//! * [`par_map_indexed`] — map an index range to a `Vec<R>` in input
//!   order (CODICIL's content k-NN and pair weights);
//! * [`par_map_tasks`] — the same with one task per index (the server's
//!   `search_batch`);
//! * [`par_reduce`] — the deterministic reduce-combine primitive: map
//!   fixed chunks to partials, combine partials in ascending chunk order
//!   (`PeelScratch`'s frontier sweeps over large member sets);
//! * [`queue`] — an MPMC channel plus [`queue::WorkerPool`] for the
//!   HTTP server's fixed worker pool;
//! * [`rng`] — the workspace's seeded PRNG (xoshiro256++), replacing the
//!   `rand` dependency;
//! * [`task`] — cooperative cancellation tokens (request deadlines) for
//!   long-running algorithm runs.
//!
//! ## Determinism contract
//!
//! Every helper here produces output that is **independent of the thread
//! count**:
//!
//! * chunk boundaries are a function of the input length only (never of
//!   `CX_THREADS` or `available_parallelism`), so the same partials are
//!   produced no matter how many workers exist;
//! * partials are combined in ascending chunk order, so even
//!   non-associative-in-practice operations (floating-point sums) give
//!   bit-identical results at any thread count;
//! * [`par_map_indexed`] assembles chunk outputs in index order.
//!
//! Threads come from [`std::thread::scope`], so closures may borrow from
//! the caller's stack. The worker count is `CX_THREADS` when set (any
//! value ≥ 1), else [`std::thread::available_parallelism`].

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

pub mod queue;
pub mod rng;
pub mod task;

/// The number of worker threads parallel helpers use: the `CX_THREADS`
/// environment variable when set to an integer ≥ 1, otherwise
/// [`std::thread::available_parallelism`] (1 if that fails).
///
/// The resolved value is cached (reading an env var allocates, and this
/// is called on query hot paths that must be allocation-free). Code that
/// changes `CX_THREADS` at runtime — tests, benchmarks, differential
/// oracles — must call [`refresh_threads`] afterwards for the change to
/// take effect.
pub fn num_threads() -> usize {
    match THREADS_CACHE.load(Ordering::Relaxed) {
        0 => {
            let n = read_env_threads();
            THREADS_CACHE.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Invalidates the [`num_threads`] cache so the next call re-reads
/// `CX_THREADS`. Call after setting or removing the variable in-process.
pub fn refresh_threads() {
    THREADS_CACHE.store(0, Ordering::Relaxed);
}

/// Cached worker count; 0 means "not yet resolved".
static THREADS_CACHE: AtomicUsize = AtomicUsize::new(0);

fn read_env_threads() -> usize {
    match std::env::var("CX_THREADS") {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Deterministic chunk size for an input of `len` items: a function of
/// `len` only (never of the thread count), so partial results and their
/// combine order are identical at any `CX_THREADS`.
///
/// Small inputs get one chunk (no threading overhead); large inputs get
/// enough chunks that dynamic scheduling load-balances well.
fn chunk_size(len: usize) -> usize {
    // ≥ 256 chunks for big inputs, chunks of ≥ 1024 items otherwise.
    (len / 256).max(1024)
}

/// The chunk ranges [`par_reduce`] iterates.
fn chunk_ranges(len: usize, chunk: usize) -> Vec<Range<usize>> {
    assert!(chunk > 0, "chunk size must be positive");
    let mut out = Vec::with_capacity(len.div_ceil(chunk));
    let mut start = 0;
    while start < len {
        let end = (start + chunk).min(len);
        out.push(start..end);
        start = end;
    }
    out
}

/// Runs `work(chunk_index)` for every chunk index in `0..chunks` on up to
/// [`num_threads`] scoped workers, collecting `(chunk_index, R)` pairs.
/// Returns the results sorted by chunk index.
fn run_chunked<R: Send>(
    chunks: usize,
    work: &(impl Fn(usize) -> R + Sync),
) -> Vec<(usize, R)> {
    let threads = num_threads().min(chunks).max(1);
    if threads == 1 {
        return (0..chunks).map(|c| (c, work(c))).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= chunks {
                            break;
                        }
                        local.push((c, work(c)));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("cx-par worker panicked")).collect()
    });
    let mut merged: Vec<(usize, R)> = results.drain(..).flatten().collect();
    merged.sort_by_key(|&(c, _)| c);
    merged
}

/// Maps `0..n` to a `Vec<R>` in index order, computing chunks of indices
/// on parallel workers. Equivalent to `(0..n).map(f).collect()` — and
/// bit-identical to it at every thread count.
pub fn par_map_indexed<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let map = |r: Range<usize>| r.map(&f).collect::<Vec<R>>();
    par_reduce(n, map, |mut a, b| {
        a.extend(b);
        a
    })
    .unwrap_or_default()
}

/// Maps `0..n` to a `Vec<R>` in index order with **one task per index**.
///
/// [`par_map_indexed`] batches indices into ≥1024-element chunks, which
/// deliberately serialises small inputs — the right call when each item
/// is cheap. This is the complement for *coarse-grained* items (e.g. one
/// community query each, as in the server's `search_batch`): every index
/// is its own unit of work, pulled dynamically by up to [`num_threads`]
/// scoped workers. Output is assembled in index order, so results are
/// independent of the thread count like every other helper here.
pub fn par_map_tasks<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if n <= 1 || num_threads() == 1 {
        return (0..n).map(f).collect();
    }
    run_chunked(n, &f).into_iter().map(|(_, r)| r).collect()
}

/// The deterministic reduce-combine primitive: maps every fixed-size chunk
/// range of `0..n` to a partial with `map`, then folds the partials in
/// ascending chunk order with `combine`. Returns `None` when `n == 0`.
///
/// Because the chunk partition depends only on `n` and the combine order
/// is fixed, the result is bit-identical at every thread count — even for
/// floating-point accumulation.
pub fn par_reduce<A: Send>(
    n: usize,
    map: impl Fn(Range<usize>) -> A + Sync,
    combine: impl Fn(A, A) -> A,
) -> Option<A> {
    if n == 0 {
        return None;
    }
    let ranges = chunk_ranges(n, chunk_size(n));
    if ranges.len() == 1 || num_threads() == 1 {
        return ranges.into_iter().map(map).reduce(combine);
    }
    let parts = run_chunked(ranges.len(), &|c| map(ranges[c].clone()));
    parts.into_iter().map(|(_, a)| a).reduce(combine)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every test that reads or writes `CX_THREADS`, directly or through
    /// a parallel helper, holds this lock.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_threads<R>(n: &str, f: impl FnOnce() -> R) -> R {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let old = std::env::var("CX_THREADS").ok();
        std::env::set_var("CX_THREADS", n);
        refresh_threads();
        let out = f();
        match old {
            Some(v) => std::env::set_var("CX_THREADS", v),
            None => std::env::remove_var("CX_THREADS"),
        }
        refresh_threads();
        out
    }

    #[test]
    fn num_threads_respects_env() {
        assert_eq!(with_threads("3", num_threads), 3);
        assert_eq!(with_threads("1", num_threads), 1);
        // Garbage falls back to the hardware default (≥ 1).
        assert!(with_threads("zero", num_threads) >= 1);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        let rs = chunk_ranges(10_000, 1024);
        assert_eq!(rs.first().unwrap().start, 0);
        assert_eq!(rs.last().unwrap().end, 10_000);
        let total: usize = rs.iter().map(|r| r.len()).sum();
        assert_eq!(total, 10_000);
        for w in rs.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert!(chunk_ranges(0, 16).is_empty());
    }

    #[test]
    fn map_indexed_matches_sequential_at_any_thread_count() {
        let n = 50_000;
        let expect: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(2654435761)).collect();
        for t in ["1", "2", "8"] {
            let got = with_threads(t, || {
                par_map_indexed(n, |i| (i as u64).wrapping_mul(2654435761))
            });
            assert_eq!(got, expect, "threads={t}");
        }
    }

    #[test]
    fn reduce_is_bit_identical_for_floats_across_thread_counts() {
        let n = 100_000;
        let val = |i: usize| ((i as f64) * 0.37).sin() / 7.0;
        let map = |r: Range<usize>| r.map(val).sum::<f64>();
        let r1 = with_threads("1", || par_reduce(n, map, |a, b| a + b)).unwrap();
        let r2 = with_threads("2", || par_reduce(n, map, |a, b| a + b)).unwrap();
        let r8 = with_threads("8", || par_reduce(n, map, |a, b| a + b)).unwrap();
        assert_eq!(r1.to_bits(), r2.to_bits());
        assert_eq!(r1.to_bits(), r8.to_bits());
    }

    #[test]
    fn reduce_empty_is_none() {
        assert!(par_reduce(0, |r| r.len(), |a, b| a + b).is_none());
    }

    #[test]
    fn map_tasks_orders_results_at_any_thread_count() {
        // Small n (below the chunking threshold) must still come back in
        // index order, and identically at every thread count.
        let expect: Vec<usize> = (0..37).map(|i| i * i).collect();
        for t in ["1", "2", "8"] {
            let got = with_threads(t, || par_map_tasks(37, |i| i * i));
            assert_eq!(got, expect, "threads={t}");
        }
        assert!(par_map_tasks(0, |i| i).is_empty());
    }
}
