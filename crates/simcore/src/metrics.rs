//! Measurement primitives used by the experiment harness.
//!
//! The paper's evaluation reports throughputs (Figs. 7–8), recovery-time
//! means (§7.1), and crash-class breakdowns (§7.2). This module provides the
//! counters and histograms those reports are built from.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::digest::Md5;
use crate::time::SimDuration;

/// Sub-bucket resolution of [`LogHistogram`]: 2^5 = 32 sub-buckets per
/// octave bounds the relative quantile error at 1/32 ≈ 3.1%.
const LOG_SUB_BITS: u32 = 5;
const LOG_SUB: u64 = 1 << LOG_SUB_BITS;

/// A log-bucketed (HDR-style) histogram of `u64` samples: the one
/// histogram type, behind a handful of recovery times per campaign and
/// millions of request latencies alike. Count, sum, minimum and maximum
/// are exact; only a quantile is an estimate.
///
/// Values below 64 are recorded exactly; above that, buckets widen
/// geometrically with 32 sub-buckets per power of two, so any quantile
/// estimate is within ~3.1% of the true sample (and never below it —
/// estimates report the bucket's upper edge, clamped to the exact
/// observed maximum). Durations are recorded as microseconds.
///
/// Memory is O(occupied buckets) — at most ~60 octaves × 32 = a few
/// thousand entries regardless of sample count — and the sparse
/// `BTreeMap` keeps iteration (and thus any rendering) deterministic.
#[derive(Debug, Clone, Default)]
pub struct LogHistogram {
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// Bucket index for a value: identity below `2*LOG_SUB`, then
/// `(octave+1)*LOG_SUB + sub` where `sub` is the value's top
/// `LOG_SUB_BITS` bits after the leading one.
fn log_bucket_index(v: u64) -> u32 {
    if v < LOG_SUB {
        return v as u32;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - LOG_SUB_BITS;
    let sub = ((v >> shift) - LOG_SUB) as u32;
    (msb - LOG_SUB_BITS + 1) * LOG_SUB as u32 + sub
}

/// Largest value mapping to bucket `idx` (the bucket's upper edge).
/// Computed as lower-edge OR low-bits so the top bucket (which ends at
/// `u64::MAX`) doesn't overflow the shift.
fn log_bucket_upper(idx: u32) -> u64 {
    if u64::from(idx) < LOG_SUB {
        return u64::from(idx);
    }
    let oct = u64::from(idx) / LOG_SUB; // >= 1
    let sub = u64::from(idx) % LOG_SUB;
    let shift = (oct - 1) as u32;
    ((LOG_SUB + sub) << shift) | ((1u64 << shift) - 1)
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        *self.buckets.entry(log_bucket_index(v)).or_default() += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += u128::from(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact arithmetic mean, or `None` if empty (sum is tracked
    /// exactly even though individual samples are bucketed).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// `q`-quantile (0.0 ≤ q ≤ 1.0) by nearest rank over the bucket
    /// cumulative counts, or `None` if empty. The estimate is the
    /// containing bucket's upper edge clamped to the exact min/max, so
    /// it is never below the true sample and within ~3.1% above it.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((self.count as f64 - 1.0) * q).round() as u64;
        if rank == 0 {
            return Some(self.min); // p0 is tracked exactly
        }
        if rank == self.count - 1 {
            return Some(self.max); // p100 is tracked exactly
        }
        let mut seen = 0u64;
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen > rank {
                return Some(log_bucket_upper(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// `q`-quantile as a [`SimDuration`], for histograms recorded via
    /// [`MetricsRegistry::record_duration`].
    pub fn quantile_duration(&self, q: f64) -> Option<SimDuration> {
        self.quantile(q).map(SimDuration::from_micros)
    }

    /// Exact mean as a [`SimDuration`], to the nearest microsecond.
    pub fn mean_duration(&self) -> Option<SimDuration> {
        self.mean()
            .map(|us| SimDuration::from_micros(us.round() as u64))
    }
}

/// Runs `f` on the entry of a name-keyed table, creating the entry on
/// first touch. The lookup borrows `name`; the owned key is built only for
/// the insertion, so touching an entry that exists — every time but the
/// first — is one walk of the tree and stays off the heap.
pub fn with_named<V: Default, R>(
    table: &mut BTreeMap<String, V>,
    name: &str,
    f: impl FnOnce(&mut V) -> R,
) -> R {
    match table.get_mut(name) {
        Some(v) => f(v),
        None => {
            let key = name.to_string();
            f(table.entry(key).or_default())
        }
    }
}

/// A named collection of counters and histograms.
///
/// The registry is shared by the OS components and read out by the harness
/// after a run.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    log_histograms: BTreeMap<String, LogHistogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments the named counter, creating it at zero if absent.
    pub fn incr(&mut self, name: &str) {
        with_named(&mut self.counters, name, |c| *c += 1);
    }

    /// Adds `n` to the named counter.
    pub fn add(&mut self, name: &str, n: u64) {
        with_named(&mut self.counters, name, |c| *c += n);
    }

    /// Sets the named counter to an absolute value — the gauge escape
    /// hatch for quantities that can shrink (e.g. checkpoint-store
    /// occupancy). Gauges live in the counter map on purpose: they render
    /// into the same sorted dump and therefore into the campaign digest.
    pub fn set(&mut self, name: &str, v: u64) {
        with_named(&mut self.counters, name, |c| *c = v);
    }

    /// Value of a counter, zero if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records one sample into the named histogram, creating it if absent.
    pub fn record(&mut self, name: &str, v: u64) {
        with_named(&mut self.log_histograms, name, |h| h.record(v));
    }

    /// Records a duration sample as whole microseconds — the typed entry
    /// point, so call sites never hand-convert a [`SimDuration`].
    pub fn record_duration(&mut self, name: &str, d: SimDuration) {
        self.record(name, d.as_micros());
    }

    /// Read access to a histogram, if present.
    pub fn log_histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.log_histograms.get(name)
    }

    /// Iterates over histograms in name order.
    pub fn log_histograms(&self) -> impl Iterator<Item = (&str, &LogHistogram)> {
        self.log_histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates over counter `(name, value)` pairs in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Feeds every counter to `md5` as a `name=value` line, in name order:
    /// the determinism fingerprint campaigns and the fleet pin runs by.
    pub fn digest_counters(&self, md5: &mut Md5) {
        for (k, v) in &self.counters {
            // Writing into an `Md5` cannot fail.
            let _ = writeln!(md5, "{k}={v}");
        }
    }

    /// Renders all counters as a stable, sorted report (for logs and tests).
    pub fn render_counters(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("{k} = {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_counters_autocreate() {
        let mut m = MetricsRegistry::new();
        m.incr("rs.restarts");
        m.add("rs.restarts", 2);
        assert_eq!(m.counter("rs.restarts"), 3);
        assert_eq!(m.counter("absent"), 0);
        assert_eq!(m.render_counters(), "rs.restarts = 3\n");
    }

    #[test]
    fn digest_counters_feeds_name_value_lines_in_name_order() {
        let mut m = MetricsRegistry::new();
        m.add("b.second", 2);
        m.incr("a.first");
        let mut got = Md5::new();
        m.digest_counters(&mut got);
        let mut want = Md5::new();
        want.update(b"a.first=1\nb.second=2\n");
        assert_eq!(got.finish_hex(), want.finish_hex());
    }

    #[test]
    fn gauge_set_overwrites() {
        let mut m = MetricsRegistry::new();
        m.set("ckpt.store_size", 7);
        m.set("ckpt.store_size", 3);
        assert_eq!(m.counter("ckpt.store_size"), 3);
        assert!(m.render_counters().contains("ckpt.store_size = 3"));
    }

    #[test]
    fn log_histogram_small_values_exact() {
        // Below 64 every value has its own bucket, so quantiles are exact.
        let mut h = LogHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(63));
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(63));
        assert_eq!(h.quantile(0.5), Some(32)); // nearest rank 32 of 0..=63
        assert_eq!(h.mean(), Some(31.5));
    }

    #[test]
    fn log_histogram_bucket_boundaries_roundtrip() {
        // Red/green boundary check: the lower and upper edge of every
        // bucket must map back to that same bucket, and adjacent edges
        // must land in adjacent buckets — off-by-one here silently
        // shifts every percentile.
        // Index 1919 is the top bucket (contains u64::MAX), so every
        // index below it has a successor to check against.
        for idx in 0..1919u32 {
            let upper = log_bucket_upper(idx);
            assert_eq!(log_bucket_index(upper), idx, "upper edge of {idx}");
            assert_eq!(
                log_bucket_index(upper + 1),
                idx + 1,
                "first value past {idx}"
            );
        }
        assert_eq!(log_bucket_index(u64::MAX), 1919);
        assert_eq!(log_bucket_upper(1919), u64::MAX);
        // Powers of two are always a bucket's lower edge.
        for shift in 6..40u32 {
            let v = 1u64 << shift;
            assert_ne!(log_bucket_index(v - 1), log_bucket_index(v), "2^{shift}");
        }
    }

    #[test]
    fn log_histogram_quantile_error_bounded() {
        // Quantile estimates must never undershoot the true sample and
        // overshoot by at most one sub-bucket width (1/32 ≈ 3.2%).
        let mut h = LogHistogram::new();
        let mut exact = Vec::new();
        let mut x = 1u64;
        for i in 0..10_000u64 {
            // Deterministic spread across five decades.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = 1 + (x >> 32) % 10u64.pow(1 + (i % 5) as u32);
            h.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let est = h.quantile(q).unwrap() as f64;
            let truth = exact[((exact.len() as f64 - 1.0) * q).round() as usize] as f64;
            assert!(est >= truth, "q={q}: est {est} < true {truth}");
            assert!(
                est <= truth * (1.0 + 1.0 / 32.0) + 1.0,
                "q={q}: est {est} too far above true {truth}"
            );
        }
        assert_eq!(h.quantile(0.0), Some(h.min().unwrap()));
        assert_eq!(h.quantile(1.0), Some(h.max().unwrap()));
    }

    #[test]
    fn durations_are_recorded_as_whole_microseconds() {
        let mut m = MetricsRegistry::new();
        m.record_duration("recovery.phase.repair", SimDuration::from_millis(3));
        m.record_duration("recovery.phase.repair", SimDuration::from_millis(9));
        let a = m.log_histogram("recovery.phase.repair").unwrap();
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(3_000));
        assert_eq!(a.max(), Some(9_000));
        let p100 = a.quantile_duration(1.0).unwrap();
        assert_eq!(p100, SimDuration::from_millis(9), "max clamps to exact");
        assert_eq!(a.mean_duration(), Some(SimDuration::from_millis(6)));
        assert_eq!(LogHistogram::new().mean_duration(), None);
    }

    #[test]
    fn log_histogram_empty_is_none() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile_duration(0.5), None);
    }

    #[test]
    fn log_histogram_single_sample_quantiles() {
        // 7_500 sits inside a bucket (upper edge 7_551): every quantile of
        // one sample is that sample, not its bucket's edge.
        let mut h = LogHistogram::new();
        h.record(7_500);
        for q in [0.0, 0.5, 1.0, -3.0, 42.0, f64::NAN] {
            assert_eq!(h.quantile(q), Some(7_500), "q={q}");
        }
        assert_eq!(h.mean(), Some(7_500.0));
    }

    #[test]
    fn log_histogram_quantile_clamps_and_survives_nan() {
        let mut h = LogHistogram::new();
        for v in [1_000, 2_000, 3_000] {
            h.record(v);
        }
        assert_eq!(h.quantile(-0.5), Some(1_000), "q below range is p0");
        assert_eq!(h.quantile(1.5), Some(3_000), "q above range is p100");
        assert_eq!(h.quantile(f64::NAN), Some(1_000), "NaN q treated as p0");
        assert_eq!(h.quantile(f64::INFINITY), Some(3_000));
        assert_eq!(h.quantile(f64::NEG_INFINITY), Some(1_000));
    }

    #[test]
    fn registry_log_histograms() {
        let mut m = MetricsRegistry::new();
        m.record("slo.latency", 100);
        assert_eq!(m.log_histogram("slo.latency").unwrap().count(), 1);
        assert!(m.log_histogram("absent").is_none());
        let names: Vec<&str> = m.log_histograms().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["slo.latency"]);
    }
}
