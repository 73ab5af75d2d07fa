#![warn(missing_docs)]

//! # cx-obs — dependency-free observability
//!
//! The production north star is a server that handles heavy traffic, and
//! that requires seeing inside it at runtime: request latency, cache hit
//! rates, pool utilisation, per-stage algorithm cost. This crate is the
//! workspace's observability layer, built on plain `std` like everything
//! else:
//!
//! * [`metrics`] — a process-wide registry of atomic [`metrics::Counter`]s,
//!   [`metrics::Gauge`]s and fixed-bucket latency [`metrics::Histogram`]s
//!   (with p50/p95/p99 export), serialised on demand into the Prometheus
//!   text exposition format for `GET /metrics`;
//! * [`trace`] — lightweight request tracing: each HTTP request gets a
//!   request id and an ordered span tree (`http.request` → `route.*` →
//!   `engine.*` → algorithm spans) with wall-clock timings, recorded into
//!   a bounded ring buffer and served by `GET /api/v1/trace`.
//!
//! ## Overhead and the kill switch
//!
//! Every recording helper is gated on [`enabled`], a single relaxed atomic
//! load. Setting `CX_OBS=off` (or `0` / `false`) before the first metric
//! is recorded turns the whole subsystem into no-ops. [`set_enabled`]
//! flips the gate at runtime (used by tests; traces and metrics recorded
//! earlier stay readable). What recording costs a search when it is on
//! has no trustworthy measurement yet (ROADMAP item 1(e)). It allocates
//! nothing in the steady state: span names are `&'static str` and a span
//! finds its histogram by that name ([`metrics::Registry::span_histogram`]),
//! which cxb's `acq.allocs_per_query` and `cx-acq`'s `zero_alloc` test
//! both hold to zero.
//!
//! ## Who depends on this
//!
//! `cx-obs` itself depends on nothing, so every crate on the query path —
//! `cx-kcore`, `cx-cltree`, `cx-acq`, `cx-explorer`, `cx-server`,
//! `cx-par` — can record into the same process-wide registry without
//! dependency cycles.

use std::sync::atomic::{AtomicU8, Ordering};

pub mod metrics;
pub mod trace;

pub use metrics::global;
pub use trace::span;

/// Tri-state gate: 0 = not yet resolved from the environment, 1 = on,
/// 2 = off.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether observability recording is active. Resolved lazily from the
/// `CX_OBS` environment variable (`off` / `0` / `false` disable it; the
/// default is on), then cached — the hot-path cost is one relaxed load.
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let off = matches!(
                std::env::var("CX_OBS").ok().as_deref().map(str::trim),
                Some("off") | Some("0") | Some("false")
            );
            STATE.store(if off { 2 } else { 1 }, Ordering::Relaxed);
            !off
        }
    }
}

/// Overrides the gate at runtime, bypassing `CX_OBS`. Used by tests, e.g.
/// `cx-acq`'s `zero_alloc` test, which holds the algorithm (not the
/// spans around it) to zero steady-state allocations.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Tests that flip the global gate or read global state must not
/// interleave; they all hold this lock.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_enabled_overrides() {
        let _l = test_lock();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }
}
