//! Request tracing: request id → ordered span tree with wall-clock
//! timings, recorded into a bounded ring buffer.
//!
//! The HTTP layer calls [`begin_request`] when a request arrives; every
//! instrumented layer below it (routing, engine, index, algorithms) opens
//! a [`span`] whose guard records the span's duration on drop. Spans
//! opened on the request's thread while its trace is active attach to the
//! trace as a tree (parent = the innermost open span); spans opened with
//! no active trace — engine calls from tests, index builds at startup,
//! work shipped to `cx-par` worker threads — still feed the per-span-name
//! latency histograms (`cx_span_duration_us{span="..."}`), they just don't
//! appear in a request's tree.
//!
//! Completed traces land in a process-wide ring buffer holding the most
//! recent [`TRACE_CAPACITY`] requests, queryable by request id via
//! [`get_trace`] (the `GET /api/v1/trace` endpoint).

use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// How many completed request traces the ring buffer retains.
pub const TRACE_CAPACITY: usize = 256;

/// One completed span within a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name, dot-namespaced by layer (`http.request`, `engine.search`,
    /// `acq.dec`, …).
    pub name: &'static str,
    /// Index of the parent span within the trace, `None` for the root.
    pub parent: Option<u32>,
    /// Start offset from the beginning of the request, in microseconds.
    pub start_us: u64,
    /// Wall-clock duration, in microseconds.
    pub dur_us: u64,
}

/// A completed request trace: the spans in creation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The request id the trace was recorded under.
    pub request_id: String,
    /// Spans in the order they were opened (parents before children).
    pub spans: Vec<SpanRecord>,
}

struct ActiveTrace {
    request_id: String,
    t0: Instant,
    spans: Vec<SpanRecord>,
    /// Indices of currently open spans, innermost last.
    stack: Vec<u32>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

fn ring() -> &'static Mutex<VecDeque<Trace>> {
    static RING: OnceLock<Mutex<VecDeque<Trace>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(TRACE_CAPACITY)))
}

/// A fresh process-unique request id (`r` + monotone hex counter).
pub fn next_request_id() -> String {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    format!("r{:08x}", NEXT.fetch_add(1, Ordering::Relaxed))
}

/// Starts recording a trace for `request_id` on this thread. The returned
/// guard finishes the trace on drop, moving it into the ring buffer. When
/// observability is disabled (or a trace is somehow already active on the
/// thread), the guard is inert.
pub fn begin_request(request_id: &str) -> RequestGuard {
    if !crate::enabled() {
        return RequestGuard { armed: false };
    }
    let armed = ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        if a.is_some() {
            return false; // nested begin: keep the outer trace
        }
        *a = Some(ActiveTrace {
            request_id: request_id.to_owned(),
            t0: Instant::now(),
            spans: Vec::with_capacity(8),
            stack: Vec::with_capacity(4),
        });
        true
    });
    RequestGuard { armed }
}

/// Guard returned by [`begin_request`]; completes the trace on drop.
pub struct RequestGuard {
    armed: bool,
}

impl Drop for RequestGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let done = ACTIVE.with(|a| a.borrow_mut().take());
        if let Some(t) = done {
            let trace = Trace { request_id: t.request_id, spans: t.spans };
            let mut ring = ring().lock().expect("trace ring poisoned");
            if ring.len() >= TRACE_CAPACITY {
                ring.pop_front();
            }
            ring.push_back(trace);
        }
    }
}

/// Opens a span named `name`. The guard records the duration on drop:
/// always into the `cx_span_duration_us{span="<name>"}` histogram, and —
/// when a trace is active on this thread — as a node in the trace's span
/// tree. A full no-op when observability is disabled. The name is
/// `'static` so recording never allocates: a name built at run time goes
/// through [`intern`] once, where it is registered.
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { name, start: None, idx: None };
    }
    let start = Instant::now();
    let idx = ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        let t = a.as_mut()?;
        let idx = t.spans.len() as u32;
        t.spans.push(SpanRecord {
            name,
            parent: t.stack.last().copied(),
            start_us: t.t0.elapsed().as_micros() as u64,
            dur_us: 0,
        });
        t.stack.push(idx);
        Some(idx)
    });
    SpanGuard { name, start: Some(start), idx }
}

/// The `'static` copy of a span name built at run time (an engine's
/// `algo.<name>`). Each distinct name is leaked once for the life of the
/// process, so the cost is bounded by how many names exist, not by how
/// often this is called — but call it where the name is registered, not
/// per span.
pub fn intern(name: &str) -> &'static str {
    static NAMES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut names = NAMES.lock().expect("span name set poisoned");
    if let Some(&known) = names.get(name) {
        return known;
    }
    let leaked: &'static str = Box::leak(name.into());
    names.insert(leaked);
    leaked
}

/// Guard for an open span; see [`span`].
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    idx: Option<u32>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_us = start.elapsed().as_micros() as u64;
        crate::global().span_histogram(self.name).observe_us(dur_us);
        if let Some(idx) = self.idx {
            ACTIVE.with(|a| {
                let mut a = a.borrow_mut();
                if let Some(t) = a.as_mut() {
                    if let Some(s) = t.spans.get_mut(idx as usize) {
                        s.dur_us = dur_us;
                    }
                    // Pop this span (and anything leaked above it).
                    while let Some(&top) = t.stack.last() {
                        t.stack.pop();
                        if top == idx {
                            break;
                        }
                    }
                }
            });
        }
    }
}

/// Looks up a completed trace by request id (most recent first).
pub fn get_trace(request_id: &str) -> Option<Trace> {
    let ring = ring().lock().expect("trace ring poisoned");
    ring.iter().rev().find(|t| t.request_id == request_id).cloned()
}

/// Number of traces currently retained.
pub fn trace_count() -> usize {
    ring().lock().expect("trace ring poisoned").len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_build_a_tree_and_land_in_the_ring() {
        let _l = crate::test_lock();
        crate::set_enabled(true);
        let id = next_request_id();
        {
            let _req = begin_request(&id);
            let _outer = span("http.request");
            {
                let _route = span("route./api/v1/search");
                let _engine = span("engine.search");
            }
            let _sibling = span("route.after");
        }
        let t = get_trace(&id).expect("trace must be recorded");
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[0].name, "http.request");
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].name, "route./api/v1/search");
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].name, "engine.search");
        assert_eq!(t.spans[2].parent, Some(1));
        // After the inner scope closed, the next span's parent is the root.
        assert_eq!(t.spans[3].parent, Some(0));
    }

    #[test]
    fn span_without_active_trace_is_harmless() {
        let _l = crate::test_lock();
        crate::set_enabled(true);
        let before = trace_count();
        {
            let _s = span("orphan.work");
        }
        assert_eq!(trace_count(), before, "no trace may be created by a bare span");
        // But the duration histogram did record it.
        assert!(
            crate::global()
                .histogram("cx_span_duration_us{span=\"orphan.work\"}")
                .count()
                >= 1
        );
    }

    #[test]
    fn interned_names_are_shared() {
        let a = intern(&format!("algo.{}", "x"));
        let b = intern("algo.x");
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "algo.x");
    }

    #[test]
    fn disabled_records_nothing() {
        let _l = crate::test_lock();
        crate::set_enabled(false);
        let id = next_request_id();
        {
            let _req = begin_request(&id);
            let _s = span("x");
        }
        crate::set_enabled(true);
        assert!(get_trace(&id).is_none());
    }

    #[test]
    fn ring_buffer_is_bounded_and_evicts_oldest() {
        let _l = crate::test_lock();
        crate::set_enabled(true);
        let first = next_request_id();
        {
            let _r = begin_request(&first);
        }
        for _ in 0..TRACE_CAPACITY {
            let id = next_request_id();
            let _r = begin_request(&id);
        }
        assert_eq!(trace_count(), TRACE_CAPACITY);
        assert!(get_trace(&first).is_none(), "oldest trace must have been evicted");
    }

    #[test]
    fn request_ids_are_unique() {
        let a = next_request_id();
        let b = next_request_id();
        assert_ne!(a, b);
        assert!(a.starts_with('r'));
    }
}
