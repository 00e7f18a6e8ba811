//! Exact percentiles and CDF points.

use serde::{Deserialize, Serialize};

/// Collects samples and answers percentile / CDF queries exactly.
///
/// Samples are stored (as `f64`); sorting happens lazily on the first query
/// after new samples arrive. The experiment harness deals with at most a few
/// million samples per run, for which exact quantiles are both affordable and
/// preferable to sketch error.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Quantiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Quantiles {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Quantiles {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Creates an empty collector with preallocated room for `capacity`
    /// samples.
    pub fn with_capacity(capacity: usize) -> Self {
        Quantiles {
            samples: Vec::with_capacity(capacity),
            sorted: true,
        }
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn record(&mut self, value: f64) {
        assert!(value.is_finite(), "samples must be finite, got {value}");
        self.samples.push(value);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_by(|a, b| a.total_cmp(b));
            self.sorted = true;
        }
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) using the nearest-rank method
    /// (`rank = ⌈q·n⌉`), or `None` if no samples were recorded.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = if q == 0.0 {
            0
        } else {
            ((q * n as f64).ceil() as usize).clamp(1, n) - 1
        };
        Some(self.samples[rank])
    }

    /// Median shortcut.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Arithmetic mean of the samples, or `None` if empty.
    ///
    /// The sum runs over the *sorted* samples so the result depends only on
    /// the sample multiset, never on insertion order: merged collectors
    /// give the same bits whatever order their samples arrived in, and
    /// every report's means are pinned to this summation order.
    pub fn mean(&mut self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            self.ensure_sorted();
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples.last().copied()
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples.first().copied()
    }

    /// The empirical CDF evaluated at `value`: fraction of samples `≤ value`.
    pub fn cdf_at(&mut self, value: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = self.samples.partition_point(|&s| s <= value);
        idx as f64 / self.samples.len() as f64
    }

    /// `points` evenly spaced points of the empirical CDF as
    /// `(value, cumulative_fraction)` pairs — the series plotted in the
    /// paper's Figures 5 and 7.
    ///
    /// # Panics
    ///
    /// Panics if `points` is zero.
    pub fn cdf_points(&mut self, points: usize) -> Vec<(f64, f64)> {
        assert!(points > 0, "need at least one CDF point");
        if self.samples.is_empty() {
            return Vec::new();
        }
        self.ensure_sorted();
        let n = self.samples.len();
        (1..=points)
            .map(|i| {
                let frac = i as f64 / points as f64;
                let rank = ((frac * n as f64).ceil() as usize).clamp(1, n) - 1;
                (self.samples[rank], frac)
            })
            .collect()
    }

    /// Merges another collector's samples into this one.
    pub fn merge(&mut self, other: &Quantiles) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_collector_has_no_quantiles() {
        let mut q = Quantiles::new();
        assert!(q.is_empty());
        assert_eq!(q.quantile(0.5), None);
        assert_eq!(q.mean(), None);
        assert_eq!(q.cdf_points(10), Vec::new());
        assert_eq!(q.cdf_at(1.0), 0.0);
    }

    #[test]
    fn quantiles_of_a_known_sequence() {
        let mut q = Quantiles::new();
        for v in 1..=100 {
            q.record(v as f64);
        }
        assert_eq!(q.quantile(0.0), Some(1.0));
        assert_eq!(q.quantile(1.0), Some(100.0));
        assert_eq!(q.median(), Some(50.0));
        assert_eq!(q.quantile(0.99), Some(99.0));
        assert_eq!(q.min(), Some(1.0));
        assert_eq!(q.max(), Some(100.0));
        assert_eq!(q.mean(), Some(50.5));
    }

    #[test]
    fn cdf_at_counts_fraction_below() {
        let mut q = Quantiles::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            q.record(v);
        }
        assert_eq!(q.cdf_at(0.5), 0.0);
        assert_eq!(q.cdf_at(2.0), 0.5);
        assert_eq!(q.cdf_at(10.0), 1.0);
    }

    #[test]
    fn cdf_points_are_monotone() {
        let mut q = Quantiles::new();
        for i in 0..500 {
            q.record(((i * 37) % 101) as f64);
        }
        let pts = q.cdf_points(20);
        assert_eq!(pts.len(), 20);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0, "values must not decrease");
            assert!(w[0].1 < w[1].1, "fractions must increase");
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn merge_combines_sample_sets() {
        let mut a = Quantiles::new();
        let mut b = Quantiles::new();
        for v in 1..=50 {
            a.record(v as f64);
        }
        for v in 51..=100 {
            b.record(v as f64);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.median(), Some(50.0));
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn quantile_range_checked() {
        let mut q = Quantiles::new();
        q.record(1.0);
        q.quantile(1.5);
    }

    #[test]
    fn mean_is_independent_of_insertion_order() {
        // Summed in arrival order these total 1.0 or 2.0 depending on where
        // the small terms land; the sorted sum pins one answer.
        let orders = [
            [1e16, 1.0, -1e16, 1.0],
            [1.0, 1.0, 1e16, -1e16],
            [-1e16, 1.0, 1e16, 1.0],
        ];
        let means: Vec<u64> = orders
            .iter()
            .map(|order| {
                let mut q = Quantiles::new();
                for &v in order {
                    q.record(v);
                }
                q.mean().unwrap().to_bits()
            })
            .collect();
        assert!(means.windows(2).all(|w| w[0] == w[1]), "{means:?}");
    }

    #[test]
    fn merged_mean_matches_a_single_collector_bitwise() {
        let values: Vec<f64> = (0..200).map(|i| ((i * 7919) % 211) as f64 * 0.1).collect();
        let mut whole = Quantiles::new();
        let mut left = Quantiles::new();
        let mut right = Quantiles::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            if i % 3 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        right.merge(&left);
        assert_eq!(
            right.mean().unwrap().to_bits(),
            whole.mean().unwrap().to_bits()
        );
        assert_eq!(right.quantile(0.95), whole.quantile(0.95));
    }

    #[test]
    fn min_and_max_of_an_empty_collector_are_none() {
        let mut q = Quantiles::with_capacity(16);
        assert!(q.is_empty());
        assert_eq!(q.count(), 0);
        assert_eq!(q.min(), None);
        assert_eq!(q.max(), None);
        assert_eq!(q.median(), None);
    }

    #[test]
    fn queries_see_samples_recorded_after_an_earlier_query() {
        let mut q = Quantiles::new();
        for v in [5.0, 6.0, 7.0] {
            q.record(v);
        }
        assert_eq!(q.min(), Some(5.0));
        q.record(1.0);
        q.record(9.0);
        assert_eq!(q.min(), Some(1.0));
        assert_eq!(q.max(), Some(9.0));
        assert_eq!(q.median(), Some(6.0));
        assert_eq!(q.cdf_at(5.0), 0.4);
    }

    #[test]
    #[should_panic(expected = "samples must be finite")]
    fn non_finite_samples_are_rejected() {
        Quantiles::new().record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "at least one CDF point")]
    fn zero_cdf_points_are_rejected() {
        let mut q = Quantiles::new();
        q.record(1.0);
        q.cdf_points(0);
    }

    proptest! {
        /// The mean does not depend on the order samples arrive in.
        #[test]
        fn prop_mean_is_order_independent(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut forward = Quantiles::new();
            let mut backward = Quantiles::new();
            for &v in &values {
                forward.record(v);
            }
            for &v in values.iter().rev() {
                backward.record(v);
            }
            prop_assert_eq!(forward.mean().unwrap().to_bits(), backward.mean().unwrap().to_bits());
        }
    }

    proptest! {
        /// Quantiles are monotone in q and bounded by min/max.
        #[test]
        fn prop_quantiles_monotone(values in proptest::collection::vec(-1e3f64..1e3, 1..300)) {
            let mut q = Quantiles::new();
            for &v in &values {
                q.record(v);
            }
            let lo = q.quantile(0.0).unwrap();
            let hi = q.quantile(1.0).unwrap();
            let mut prev = lo;
            for i in 0..=10 {
                let v = q.quantile(i as f64 / 10.0).unwrap();
                prop_assert!(v >= prev - 1e-12);
                prop_assert!(v >= lo && v <= hi);
                prev = v;
            }
        }
    }
}
