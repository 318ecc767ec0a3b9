//! Counters, gauges, and log-bucketed histograms.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::collect::with_local;
use crate::{enabled, trace};

/// Adds `delta` to the named counter. No-op (one relaxed atomic load) when
/// telemetry is disabled; otherwise touches only the thread-local buffer.
/// When an ambient trace is in scope ([`crate::trace_scope`]), the
/// increment is additionally attributed to that trace (see
/// [`crate::trace_counters`]).
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    with_local(|l| {
        *l.counters.entry(name).or_insert(0) += delta;
        let trace = trace::current_trace_raw();
        if trace != 0 {
            *l.trace_counters.entry((trace, name)).or_insert(0) += delta;
        }
    });
}

/// Last-written-wins gauges. Unlike counters they represent *current*
/// state (queue depth, in-flight jobs), so they live in one small global
/// registry rather than per-thread buffers: writers are rare (admission
/// and completion paths, not solver loops) and readers want the latest
/// value, not a merge.
static GAUGES: Mutex<BTreeMap<&'static str, f64>> = Mutex::new(BTreeMap::new());

/// Sets the named gauge to `value`. No-op when telemetry is disabled.
pub fn gauge_set(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    let mut gauges = GAUGES.lock().unwrap_or_else(|e| e.into_inner());
    gauges.insert(name, value);
}

/// Adds `delta` (may be negative) to the named gauge, creating it at `0`.
/// No-op when telemetry is disabled.
pub fn gauge_add(name: &'static str, delta: f64) {
    if !enabled() {
        return;
    }
    let mut gauges = GAUGES.lock().unwrap_or_else(|e| e.into_inner());
    *gauges.entry(name).or_insert(0.0) += delta;
}

/// Current gauge values (copied; the registry keeps them).
pub(crate) fn gauges_snapshot() -> BTreeMap<String, f64> {
    let gauges = GAUGES.lock().unwrap_or_else(|e| e.into_inner());
    gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

/// Current gauge values, clearing the registry (for [`crate::drain`]).
pub(crate) fn gauges_take() -> BTreeMap<String, f64> {
    let mut gauges = GAUGES.lock().unwrap_or_else(|e| e.into_inner());
    std::mem::take(&mut *gauges)
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// Records `value` into the named histogram. No-op when disabled.
#[inline]
pub fn record_value(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    with_local(|l| {
        l.histograms
            .entry(name)
            .or_insert_with(Histogram::new)
            .record(value);
    });
}

const BUCKETS: usize = 65;

/// A histogram over `u64` values with power-of-two buckets: bucket 0 holds
/// exactly the value 0 and bucket `b ≥ 1` holds `[2^(b-1), 2^b - 1]`.
/// Quantiles are approximate (interpolated inside a bucket, see
/// [`Histogram::quantile`]); `min`/`max`/`sum` are exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as usize
        }
    }

    fn bucket_upper(bucket: usize) -> u64 {
        if bucket == 0 {
            0
        } else if bucket >= 64 {
            u64::MAX
        } else {
            (1u64 << bucket) - 1
        }
    }

    fn bucket_lower(bucket: usize) -> u64 {
        if bucket == 0 {
            0
        } else {
            1u64 << (bucket - 1)
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 if empty).
    #[inline]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Quantile `q ∈ [0, 1]`, interpolated linearly inside the containing
    /// bucket — the one estimator behind every printed percentile (the
    /// report's histograms and stage percentiles, `/metrics`): samples in
    /// a bucket are assumed evenly spread over
    /// `[bucket_lower, bucket_upper]`, and the `⌈q·count⌉`-th smallest
    /// sample's position within the bucket picks the point on that span.
    /// The result is clamped to the exact `[min, max]` so single-sample and
    /// tail quantiles stay truthful. Returns 0.0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                let lo = Self::bucket_lower(b) as f64;
                let hi = Self::bucket_upper(b).min(self.max) as f64;
                // Rank within the bucket, 1-based; map rank r of n to the
                // fraction (r - 1) / max(n - 1, 1) so the first sample sits
                // at the lower bound and the last at the upper bound.
                let rank = (target - seen) as f64;
                let frac = if n > 1 {
                    (rank - 1.0) / (n as f64 - 1.0)
                } else {
                    0.0
                };
                let v = lo + frac * (hi - lo).max(0.0);
                return v.clamp(self.min() as f64, self.max as f64);
            }
            seen += n;
        }
        self.max as f64
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the interpolation formula: on a dense uniform 1..=100 run the
    /// evenly-spread-within-bucket assumption is exact, so the interpolated
    /// percentiles land on the true order statistics (a bucket's upper
    /// bound would read 63/100/100 here).
    #[test]
    fn interpolated_percentiles_are_exact_on_uniform_data() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.95), 95.0);
        assert_eq!(h.quantile(0.99), 99.0);
        assert_eq!(h.quantile(1.0), 100.0);
        assert_eq!(h.quantile(0.0), 1.0);
    }

    #[test]
    fn quantile_clamps_to_observed_range() {
        let mut h = Histogram::new();
        h.record(7);
        // One sample in bucket [4, 7]: interpolation alone would report the
        // lower bound 4; the clamp to [min, max] restores the exact value.
        assert_eq!(h.quantile(0.5), 7.0);
        assert_eq!(h.quantile(1.0), 7.0);
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn quantile_spreads_within_bucket() {
        let mut h = Histogram::new();
        // Three samples in bucket [8, 15]: ranks map to lo / mid / hi.
        for v in [8u64, 12, 15] {
            h.record(v);
        }
        assert_eq!(h.quantile(1.0 / 3.0), 8.0);
        assert_eq!(h.quantile(2.0 / 3.0), 11.5);
        assert_eq!(h.quantile(1.0), 15.0);
    }
}
