//! Order statistics for latency samples.
//!
//! Every timing the benchmark reports is a per-pass statistic reduced by
//! a median over passes. Percentiles are nearest-rank (no interpolation:
//! the reported value is always a latency some request really had) and
//! are refused when fewer than [`MIN_BEYOND`] samples lie beyond them —
//! a p99 of 100 samples is the maximum by another name.

/// Samples that must lie strictly beyond a percentile's rank for the
/// percentile to be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest-rank of quantile `q` in a sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q·n` samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// [`percentile`], refused (`None`) unless at least [`MIN_BEYOND`]
/// samples lie beyond the rank on the tail side (above it for `q ≥ 0.5`,
/// below it otherwise).
pub fn percentile_guarded(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let r = rank(n, q);
    let beyond = if q >= 0.5 { n - r } else { r - 1 };
    (beyond >= MIN_BEYOND).then(|| sorted[r - 1])
}

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// Relative spread of a set of per-pass values: `(max − min) / median`.
/// With a handful of passes this is the honest statement of how far one
/// pass can sit from another; `compare` uses it to call a metric
/// `unresolved` when a run cannot resolve its own bound.
pub fn relative_spread(values: &[f64]) -> f64 {
    let Some(m) = median(values) else { return 0.0 };
    if m == 0.0 {
        return 0.0;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / m.abs()
}

/// Sorts nanosecond samples ascending and converts them to milliseconds.
pub fn sorted_ms(ns: &[u64]) -> Vec<f64> {
    let mut v: Vec<f64> = ns.iter().map(|&x| x as f64 / 1e6).collect();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|x| x as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.50), Some(50.0));
        assert_eq!(percentile(&s, 0.95), Some(95.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        // ceil(0.5 * 5) = 3rd of five.
        assert_eq!(percentile(&ramp(5), 0.5), Some(3.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn guard_refuses_a_percentile_with_too_thin_a_tail() {
        // p95 of 200: rank 190, ten beyond — the smallest accepted pass.
        assert_eq!(percentile_guarded(&ramp(200), 0.95), Some(190.0));
        assert_eq!(percentile_guarded(&ramp(199), 0.95), None);
        // p99 of 256 leaves two samples beyond: refused.
        assert_eq!(percentile_guarded(&ramp(256), 0.99), None);
        assert_eq!(percentile_guarded(&ramp(1000), 0.99), Some(990.0));
        // The median needs ten on its upper side too.
        assert_eq!(percentile_guarded(&ramp(19), 0.5), None);
        assert_eq!(percentile_guarded(&ramp(20), 0.5), Some(10.0));
        // Low quantiles are guarded on the lower side.
        assert_eq!(percentile_guarded(&ramp(100), 0.05), None);
        assert_eq!(percentile_guarded(&ramp(220), 0.05), Some(11.0));
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert!((relative_spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(relative_spread(&[5.0]), 0.0);
    }
}
