//! Log-bucketed histogram with quantile readout.
//!
//! Values are assigned to geometrically spaced buckets: bucket 0 catches
//! everything below [`MIN_BOUND`] (including zero and negatives), buckets
//! `1..NUM_BUCKETS-1` each span a factor of `2^(1/SUB_PER_OCTAVE)` (≈19%),
//! and the last bucket is open-ended. With `MIN_BOUND = 1e-3` (one
//! microsecond when recording milliseconds) the layout covers five decades
//! up to roughly an hour before saturating.
//!
//! Quantile estimates return the geometric midpoint of the selected bucket
//! clamped to the observed min/max, so the relative error of any quantile
//! of positive data is bounded by one bucket width.

/// Number of buckets, including the underflow and overflow buckets.
pub const NUM_BUCKETS: usize = 128;

/// Upper bound (exclusive) of the underflow bucket.
pub const MIN_BOUND: f64 = 1e-3;

/// Sub-buckets per doubling of the value.
const SUB_PER_OCTAVE: f64 = 4.0;

/// A mergeable log-bucketed histogram of `f64` samples.
///
/// NaN samples are ignored; every other value (including zero and
/// negatives, which land in the underflow bucket) is counted.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket index a value falls into. Buckets are half-open
    /// `[lower, upper)` intervals, so exact bucket boundaries belong to the
    /// higher bucket.
    pub fn bucket_index(v: f64) -> usize {
        if v.is_nan() || v < MIN_BOUND {
            return 0; // below range, zero, negative, or NaN
        }
        let raw = ((v / MIN_BOUND).log2() * SUB_PER_OCTAVE).floor();
        1 + raw.min((NUM_BUCKETS - 2) as f64) as usize
    }

    /// The `[lower, upper)` value bounds of bucket `i`. Bucket 0 is
    /// `[-inf, MIN_BOUND)`; the last bucket is open-ended.
    pub fn bucket_bounds(i: usize) -> (f64, f64) {
        assert!(i < NUM_BUCKETS, "bucket index {i} out of range");
        if i == 0 {
            return (f64::NEG_INFINITY, MIN_BOUND);
        }
        let lo = MIN_BOUND * 2f64.powf((i as f64 - 1.0) / SUB_PER_OCTAVE);
        let hi = if i == NUM_BUCKETS - 1 {
            f64::INFINITY
        } else {
            MIN_BOUND * 2f64.powf(i as f64 / SUB_PER_OCTAVE)
        };
        (lo, hi)
    }

    /// Records one sample. NaN is ignored.
    pub fn record(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.counts[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another histogram into this one (same fixed bucket layout).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`): the value at
    /// rank `ceil(q·count)`. Returns 0.0 for an empty histogram. The
    /// estimate is the geometric midpoint of the rank's bucket, clamped to
    /// the observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = Self::bucket_bounds(i);
                let est = if i == 0 {
                    MIN_BOUND / 2.0
                } else if i == NUM_BUCKETS - 1 {
                    // The overflow bucket is unbounded, so its geometric
                    // midpoint is meaningless; the observed max is the
                    // only honest estimate (`lo` could undershoot by
                    // hundreds of decades).
                    self.max
                } else {
                    (lo * hi).sqrt()
                };
                return est.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One bucket spans a factor of 2^(1/4); the geometric-midpoint
    /// estimate is therefore within 2^(1/4) of the true order statistic
    /// for positive in-range data.
    const MAX_RATIO: f64 = 1.1893; // 2^(1/4) + fp slack

    fn oracle_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn quantiles_match_sorted_vector_oracle() {
        // Deterministic pseudo-random positive values across 6 decades.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut values: Vec<f64> = (0..5000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
                10f64.powf(-2.0 + 6.0 * u) // 1e-2 .. 1e4
            })
            .collect();
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_by(f64::total_cmp);
        for q in [0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0] {
            let est = h.quantile(q);
            let truth = oracle_quantile(&values, q);
            let ratio = (est / truth).max(truth / est);
            assert!(
                ratio <= MAX_RATIO,
                "q={q}: est {est} vs oracle {truth} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn quantile_extremes_and_empty() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        h.record(7.0);
        // A single sample is every quantile, exactly (clamped to min/max).
        assert_eq!(h.quantile(0.0), 7.0);
        assert_eq!(h.quantile(0.5), 7.0);
        assert_eq!(h.quantile(1.0), 7.0);
    }

    #[test]
    fn empty_histogram_every_quantile_is_zero() {
        let h = Histogram::new();
        for q in [-1.0, 0.0, 0.25, 0.5, 0.99, 1.0, 2.0, f64::NAN] {
            assert_eq!(h.quantile(q), 0.0, "q = {q}");
        }
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn single_sample_is_every_quantile_for_any_magnitude() {
        // One sample in the underflow, mid-range, and overflow regimes:
        // clamping to [min, max] must make it exact in all three.
        for v in [1e-9, 0.5, 3.25, 1e12] {
            let mut h = Histogram::new();
            h.record(v);
            for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
                assert_eq!(h.quantile(q), v, "v = {v}, q = {q}");
            }
            assert_eq!(h.min(), v);
            assert_eq!(h.max(), v);
            assert_eq!(h.count(), 1);
        }
    }

    #[test]
    fn overflow_bucket_does_not_misreport_max() {
        // Values far past the top log bucket must neither panic nor pull
        // high quantiles down to the last bucket's lower bound (~3e6 when
        // recording milliseconds).
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(1.0);
        }
        for _ in 0..10 {
            h.record(1e300);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), 1e300);
        assert_eq!(h.quantile(1.0), 1e300, "p100 must report the observed max");
        assert_eq!(h.quantile(0.95), 1e300, "rank 95 falls in the overflow bucket");
        // Low quantiles are untouched by the overflow samples.
        assert!(h.quantile(0.5) <= 2.0);
        // Infinity saturates the same bucket without panicking.
        h.record(f64::INFINITY);
        assert_eq!(h.max(), f64::INFINITY);
        assert_eq!(h.quantile(1.0), f64::INFINITY);
    }

    #[test]
    fn bucket_boundaries_are_half_open() {
        // Exact powers of two have exact log2, so boundary behaviour is
        // deterministic: a boundary value belongs to the *higher* bucket.
        for k in 0..10u32 {
            let v = MIN_BOUND * 2f64.powi(k as i32);
            let i = Histogram::bucket_index(v);
            assert_eq!(i, 1 + 4 * k as usize, "v = {v}");
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(lo <= v && v < hi, "v = {v} not in [{lo}, {hi})");
        }
        // Below the range, zero, and negatives land in the underflow bucket.
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(-3.0), 0);
        assert_eq!(Histogram::bucket_index(MIN_BOUND * 0.999), 0);
        assert_eq!(Histogram::bucket_index(f64::NAN), 0);
        // Far beyond the range saturates into the overflow bucket.
        assert_eq!(Histogram::bucket_index(f64::INFINITY), NUM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_index(1e300), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_tile_the_positive_axis() {
        for i in 1..NUM_BUCKETS - 1 {
            let (_, hi) = Histogram::bucket_bounds(i);
            let (lo_next, _) = Histogram::bucket_bounds(i + 1);
            assert!(
                (hi / lo_next - 1.0).abs() < 1e-12,
                "gap between buckets {i} and {}",
                i + 1
            );
        }
    }

    #[test]
    fn merge_equals_recording_the_union() {
        let values_a = [0.002, 0.5, 1.0, 30.0, 1e5];
        let values_b = [0.0001, 2.5, 2.5, 700.0];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut union = Histogram::new();
        for &v in &values_a {
            a.record(v);
            union.record(v);
        }
        for &v in &values_b {
            b.record(v);
            union.record(v);
        }
        a.merge(&b);
        assert_eq!(a, union);
        assert_eq!(a.count(), 9);
        assert!((a.sum() - union.sum()).abs() < 1e-12);
        for q in [0.1, 0.5, 0.9] {
            assert_eq!(a.quantile(q), union.quantile(q));
        }
    }

    #[test]
    fn merge_into_empty_copies_the_other_side() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        b.record(4.2);
        b.record(0.7);
        a.merge(&b);
        assert_eq!(a, b);
    }

    #[test]
    fn nan_samples_are_ignored() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        assert_eq!(h.count(), 0);
        h.record(1.0);
        h.record(f64::NAN);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), 1.0);
    }

    #[test]
    fn mean_min_max_track_samples() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0] {
            h.record(v);
        }
        assert!((h.mean() - 2.0).abs() < 1e-12);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 3.0);
    }
}
