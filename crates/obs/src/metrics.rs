//! Process-wide metrics registry: counters, gauges, fixed-bucket latency
//! histograms, and the Prometheus text exposition behind `GET /metrics`.
//!
//! Metric identity is the full sample name including any labels, e.g.
//! `cx_http_requests_total{class="2xx"}` — the registry is a flat map from
//! that string to an atomic cell, so recording never allocates beyond the
//! first registration of a name. Families (the part before `{`) group the
//! `# TYPE` lines in the exposition.
//!
//! Durations are recorded in **microseconds** (`*_us` names); this keeps
//! everything integer-atomic and dependency-free. Histograms use one fixed
//! log-spaced bound ladder from 10µs to 10s, wide enough for both a cache
//! hit and a cold Girvan–Newman detection.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (queue depth, pool occupancy).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Sets the value.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The shared bucket ladder (upper bounds, in microseconds). Log-spaced
/// 10µs … 10s; the final implicit bucket is +Inf.
pub const BUCKET_BOUNDS_US: &[u64] = &[
    10,
    25,
    50,
    100,
    250,
    500,
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
];

/// A fixed-bucket histogram of microsecond durations with quantile
/// estimation by linear interpolation inside the bucket.
#[derive(Debug)]
pub struct Histogram {
    /// `buckets[i]` counts observations ≤ `BUCKET_BOUNDS_US[i]`; the last
    /// extra slot is the +Inf bucket.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram over [`BUCKET_BOUNDS_US`].
    pub fn new() -> Self {
        Self {
            buckets: (0..=BUCKET_BOUNDS_US.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one duration in microseconds.
    pub fn observe_us(&self, us: u64) {
        let idx = BUCKET_BOUNDS_US.partition_point(|&b| b < us);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Estimates the `q`-quantile (0 < q ≤ 1) in microseconds by linear
    /// interpolation within the containing bucket. Returns `None` when
    /// empty. Observations beyond the last finite bound clamp to it.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let target = (q * count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let in_bucket = b.load(Ordering::Relaxed);
            if cum + in_bucket >= target {
                let lower = if i == 0 { 0 } else { BUCKET_BOUNDS_US[i - 1] } as f64;
                let upper = match BUCKET_BOUNDS_US.get(i) {
                    Some(&u) => u as f64,
                    None => return Some(lower), // +Inf bucket: clamp
                };
                let frac = (target - cum) as f64 / in_bucket as f64;
                return Some(lower + frac * (upper - lower));
            }
            cum += in_bucket;
        }
        Some(*BUCKET_BOUNDS_US.last().unwrap() as f64)
    }

    /// Cumulative bucket counts paired with their upper bounds, ending
    /// with the +Inf bucket (`None`). Used by the exposition.
    pub fn cumulative_buckets(&self) -> Vec<(Option<u64>, u64)> {
        let mut cum = 0u64;
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, b)| {
                cum += b.load(Ordering::Relaxed);
                (BUCKET_BOUNDS_US.get(i).copied(), cum)
            })
            .collect()
    }
}

/// The metrics registry: name → atomic cell, one map per kind.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    /// The `cx_span_duration_us{span="…"}` cells of `histograms` again,
    /// by span name, so a span finds its cell without spelling the key.
    spans: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
}

impl Registry {
    /// A fresh, empty registry (tests; production code uses [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.counters.lock().expect("metrics registry poisoned");
        match m.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::default());
                m.insert(name.to_owned(), Arc::clone(&c));
                c
            }
        }
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.gauges.lock().expect("metrics registry poisoned");
        match m.get(name) {
            Some(g) => Arc::clone(g),
            None => {
                let g = Arc::new(Gauge::default());
                m.insert(name.to_owned(), Arc::clone(&g));
                g
            }
        }
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.histograms.lock().expect("metrics registry poisoned");
        match m.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::new());
                m.insert(name.to_owned(), Arc::clone(&h));
                h
            }
        }
    }

    /// The `cx_span_duration_us{span="<span>"}` histogram — the cell
    /// [`Registry::histogram`] returns for that name. Only a span's first
    /// record formats the key; later ones find the cell by the name alone
    /// and allocate nothing.
    pub fn span_histogram(&self, span: &'static str) -> Arc<Histogram> {
        let mut m = self.spans.lock().expect("metrics registry poisoned");
        if let Some(h) = m.get(span) {
            return Arc::clone(h);
        }
        let h = self.histogram(&format!("cx_span_duration_us{{span=\"{span}\"}}"));
        m.insert(span, Arc::clone(&h));
        h
    }

    /// Serialises every metric into the Prometheus text exposition format
    /// (version 0.0.4). Counters and gauges emit one sample each;
    /// histograms emit `_bucket`/`_sum`/`_count` plus `_p50`/`_p95`/`_p99`
    /// gauge families with the estimated quantiles.
    pub fn prometheus_text(&self) -> String {
        fn type_line(out: &mut String, last_family: &mut String, name: &str, kind: &str) {
            let family = family_of(name);
            if family != last_family {
                out.push_str(&format!("# TYPE {family} {kind}\n"));
                *last_family = family.to_owned();
            }
        }
        let mut out = String::new();
        let mut last_family = String::new();
        {
            let counters = self.counters.lock().expect("metrics registry poisoned");
            for (name, c) in counters.iter() {
                type_line(&mut out, &mut last_family, name, "counter");
                out.push_str(&format!("{name} {}\n", c.get()));
            }
        }
        last_family.clear();
        {
            let gauges = self.gauges.lock().expect("metrics registry poisoned");
            for (name, g) in gauges.iter() {
                type_line(&mut out, &mut last_family, name, "gauge");
                out.push_str(&format!("{name} {}\n", g.get()));
            }
        }
        {
            let hists = self.histograms.lock().expect("metrics registry poisoned");
            for (name, h) in hists.iter() {
                let (family, labels) = split_labels(name);
                out.push_str(&format!("# TYPE {family} histogram\n"));
                for (bound, cum) in h.cumulative_buckets() {
                    let le = match bound {
                        Some(b) => b.to_string(),
                        None => "+Inf".to_owned(),
                    };
                    out.push_str(&format!(
                        "{family}_bucket{{{}le=\"{le}\"}} {cum}\n",
                        if labels.is_empty() { String::new() } else { format!("{labels},") }
                    ));
                }
                let suffix =
                    if labels.is_empty() { String::new() } else { format!("{{{labels}}}") };
                out.push_str(&format!("{family}_sum{suffix} {}\n", h.sum_us()));
                out.push_str(&format!("{family}_count{suffix} {}\n", h.count()));
                for (q, tag) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
                    if let Some(v) = h.quantile_us(q) {
                        out.push_str(&format!("{family}_{tag}{suffix} {v:.1}\n"));
                    }
                }
            }
        }
        out
    }
}

/// The family name: everything before the label block.
fn family_of(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Splits `family{labels}` into `(family, labels)` (labels without braces).
fn split_labels(name: &str) -> (&str, &str) {
    match name.split_once('{') {
        Some((f, rest)) => (f, rest.strip_suffix('}').unwrap_or(rest)),
        None => (name, ""),
    }
}

/// The process-wide registry every instrumented crate records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

// ---- gated convenience helpers (the instrumentation call sites) --------

/// Adds 1 to the global counter `name` (no-op when disabled).
pub fn inc(name: &str) {
    if crate::enabled() {
        global().counter(name).inc();
    }
}

/// Adds `n` to the global counter `name` (no-op when disabled).
pub fn add(name: &str, n: u64) {
    if crate::enabled() {
        global().counter(name).add(n);
    }
}

/// Adds `delta` to the global gauge `name` (no-op when disabled).
pub fn gauge_add(name: &str, delta: i64) {
    if crate::enabled() {
        global().gauge(name).add(delta);
    }
}

/// Sets the global gauge `name` (no-op when disabled).
pub fn gauge_set(name: &str, value: i64) {
    if crate::enabled() {
        global().gauge(name).set(value);
    }
}

/// Records `us` into the global histogram `name` (no-op when disabled).
pub fn observe_us(name: &str, us: u64) {
    if crate::enabled() {
        global().histogram(name).observe_us(us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        r.counter("c").inc();
        r.counter("c").add(4);
        assert_eq!(r.counter("c").get(), 5);
        r.gauge("g").add(3);
        r.gauge("g").add(-1);
        assert_eq!(r.gauge("g").get(), 2);
        r.gauge("g").set(-7);
        assert_eq!(r.gauge("g").get(), -7);
    }

    #[test]
    fn histogram_counts_into_correct_buckets() {
        let h = Histogram::new();
        h.observe_us(1); // ≤ 10
        h.observe_us(10); // ≤ 10 (bounds are inclusive)
        h.observe_us(11); // ≤ 25
        h.observe_us(20_000_000); // +Inf
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_us(), 20_000_022);
        let cum = h.cumulative_buckets();
        assert_eq!(cum[0], (Some(10), 2));
        assert_eq!(cum[1], (Some(25), 3));
        // Last (None) bucket is cumulative over everything.
        assert_eq!(cum.last().unwrap(), &(None, 4));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new();
        // 100 observations uniformly at 30µs: all land in the (25, 50]
        // bucket; every quantile interpolates inside it.
        for _ in 0..100 {
            h.observe_us(30);
        }
        let p50 = h.quantile_us(0.5).unwrap();
        let p95 = h.quantile_us(0.95).unwrap();
        let p99 = h.quantile_us(0.99).unwrap();
        assert!((25.0..=50.0).contains(&p50), "p50={p50}");
        assert!(p50 < p95 && p95 < p99, "p50={p50} p95={p95} p99={p99}");
        assert!((p50 - 37.5).abs() < 1.0, "midpoint-ish, got {p50}");
    }

    #[test]
    fn quantiles_across_buckets_are_monotone() {
        let h = Histogram::new();
        // Half fast (40µs), half slow (40ms): p50 in the fast bucket,
        // p95/p99 in the slow one.
        for _ in 0..50 {
            h.observe_us(40);
        }
        for _ in 0..50 {
            h.observe_us(40_000);
        }
        let p50 = h.quantile_us(0.5).unwrap();
        let p95 = h.quantile_us(0.95).unwrap();
        assert!(p50 <= 50.0, "p50={p50}");
        assert!(p95 > 25_000.0, "p95={p95}");
    }

    #[test]
    fn quantile_of_empty_is_none() {
        assert!(Histogram::new().quantile_us(0.5).is_none());
    }

    #[test]
    fn overflow_bucket_clamps_to_last_bound() {
        let h = Histogram::new();
        for _ in 0..10 {
            h.observe_us(99_000_000);
        }
        assert_eq!(h.quantile_us(0.5).unwrap(), 10_000_000.0);
    }

    #[test]
    fn exposition_is_prometheus_shaped() {
        let r = Registry::new();
        r.counter("cx_test_total{class=\"2xx\"}").add(3);
        r.counter("cx_test_total{class=\"4xx\"}").add(1);
        r.gauge("cx_test_depth").set(5);
        r.histogram("cx_test_duration_us").observe_us(120);
        let text = r.prometheus_text();
        assert!(text.contains("# TYPE cx_test_total counter"));
        // One TYPE line per family, not per labelled sample.
        assert_eq!(text.matches("# TYPE cx_test_total counter").count(), 1);
        assert!(text.contains("cx_test_total{class=\"2xx\"} 3"));
        assert!(text.contains("cx_test_total{class=\"4xx\"} 1"));
        assert!(text.contains("# TYPE cx_test_depth gauge"));
        assert!(text.contains("cx_test_depth 5"));
        assert!(text.contains("# TYPE cx_test_duration_us histogram"));
        assert!(text.contains("cx_test_duration_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("cx_test_duration_us_count 1"));
        assert!(text.contains("cx_test_duration_us_sum 120"));
        assert!(text.contains("cx_test_duration_us_p50"));
    }

    #[test]
    fn labelled_histogram_merges_labels_with_le() {
        let r = Registry::new();
        r.histogram("cx_route_us{route=\"/api/v1/search\"}").observe_us(100);
        let text = r.prometheus_text();
        assert!(
            text.contains("cx_route_us_bucket{route=\"/api/v1/search\",le=\"100\"} 1"),
            "{text}"
        );
        assert!(text.contains("cx_route_us_count{route=\"/api/v1/search\"} 1"));
    }

    #[test]
    fn span_histograms_are_the_named_cells() {
        let r = Registry::new();
        r.span_histogram("engine.search").observe_us(40);
        r.span_histogram("engine.search").observe_us(60);
        let named = r.histogram("cx_span_duration_us{span=\"engine.search\"}");
        assert_eq!((named.count(), named.sum_us()), (2, 100));
        let text = r.prometheus_text();
        assert_eq!(text.matches("# TYPE cx_span_duration_us histogram").count(), 1, "{text}");
        assert!(text.contains("cx_span_duration_us_count{span=\"engine.search\"} 2"), "{text}");
    }

    #[test]
    fn registry_returns_same_cell_for_same_name() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
    }
}
