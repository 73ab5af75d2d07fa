//! Opt-in per-phase wall-clock attribution for the ACQ hot path.
//!
//! cxb's traced run (`benchmark/`) enables this module, replays the
//! workload, and reads back how the query time splits across three phases
//! (`acq.walk_us` / `acq.verify_us` / `acq.expand_us`):
//!
//! * **walk** — CL-tree index reads: the per-keyword carrier lookups in the
//!   postings and, when a query needs it, copying q's k-core out of its
//!   rank interval (the name predates the postings, when both were tree
//!   traversals; cxb reports it as `acq.walk_us`);
//! * **verify** — candidate verification: one traversal per candidate
//!   that grows q's component inside the candidate's shortest carrier
//!   list and peels it, plus the eager mode's singleton peels;
//! * **expand** — member expansion / answer finalization.
//!
//! Disabled (the default), every instrumentation point is a single relaxed
//! atomic load and no clock is read, so the production hot path pays
//! nothing and stays allocation-free. Totals are process-wide atomics —
//! aggregate across threads, divide by query count for per-query figures.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static WALK_NS: AtomicU64 = AtomicU64::new(0);
static VERIFY_NS: AtomicU64 = AtomicU64::new(0);
static EXPAND_NS: AtomicU64 = AtomicU64::new(0);

/// Turns phase profiling on or off (off by default).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Zeroes all phase accumulators.
pub fn reset() {
    WALK_NS.store(0, Relaxed);
    VERIFY_NS.store(0, Relaxed);
    EXPAND_NS.store(0, Relaxed);
}

/// Accumulated per-phase wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTotals {
    /// CL-tree index-read nanoseconds.
    pub walk_ns: u64,
    /// Candidate-verification (traversal and peel) nanoseconds.
    pub verify_ns: u64,
    /// Finalize / member-expansion nanoseconds.
    pub expand_ns: u64,
}

/// Reads the current accumulated totals.
pub fn totals() -> PhaseTotals {
    PhaseTotals {
        walk_ns: WALK_NS.load(Relaxed),
        verify_ns: VERIFY_NS.load(Relaxed),
        expand_ns: EXPAND_NS.load(Relaxed),
    }
}

/// Starts a phase timer — `None` (free) unless profiling is enabled.
#[inline]
pub(crate) fn timer() -> Option<Instant> {
    if ENABLED.load(Relaxed) {
        Some(Instant::now())
    } else {
        None
    }
}

#[inline]
fn record(t: Option<Instant>, cell: &AtomicU64) {
    if let Some(t) = t {
        cell.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
    }
}

/// Credits the elapsed time since `t` to the walk phase.
#[inline]
pub(crate) fn add_walk(t: Option<Instant>) {
    record(t, &WALK_NS);
}

/// Credits the elapsed time since `t` to the verify phase.
#[inline]
pub(crate) fn add_verify(t: Option<Instant>) {
    record(t, &VERIFY_NS);
}

/// Credits the elapsed time since `t` to the expand phase.
#[inline]
pub(crate) fn add_expand(t: Option<Instant>) {
    record(t, &EXPAND_NS);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiling_records_nothing() {
        set_enabled(false);
        reset();
        let t = timer();
        assert!(t.is_none());
        add_walk(t);
        assert_eq!(totals(), PhaseTotals { walk_ns: 0, verify_ns: 0, expand_ns: 0 });
    }

    #[test]
    fn enabled_profiling_accumulates() {
        set_enabled(true);
        reset();
        let t = timer();
        assert!(t.is_some());
        std::thread::sleep(std::time::Duration::from_millis(1));
        add_verify(t);
        assert!(totals().verify_ns > 0);
        set_enabled(false);
        reset();
    }
}
