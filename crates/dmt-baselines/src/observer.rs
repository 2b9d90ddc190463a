//! Per-attribute sufficient statistics ("attribute observers") used by the
//! Hoeffding-tree family to propose binary split candidates.
//!
//! * [`GaussianObserver`] models each class's feature values as a Gaussian
//!   (the standard MOA/scikit-multiflow approach for numeric attributes) and
//!   evaluates a fixed number of equally spaced candidate thresholds.
//! * [`NominalObserver`] keeps a value × class count table and proposes
//!   one-vs-rest binary splits (the paper restricts all trees to binary
//!   splits, §VI-C).

use dmt_models::memory::vec_bytes;
use dmt_models::naive_bayes::RunningStats;
use dmt_models::MemoryUsage;

use crate::split_criterion::info_gain;

/// Number of candidate thresholds evaluated per numeric attribute.
pub const NUM_THRESHOLDS: usize = 10;

/// A proposed binary split.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitSuggestion {
    /// Feature index the split tests.
    pub feature: usize,
    /// Split test: numeric `x[feature] <= threshold` or nominal
    /// `x[feature] == value`.
    pub test: SplitTest,
    /// Information gain of the split.
    pub merit: f64,
    /// Class distributions of the two children `[left, right]`.
    pub children_dists: Vec<Vec<f64>>,
}

/// The binary test applied at an inner node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplitTest {
    /// Passes left when `x[feature] <= threshold`.
    NumericThreshold {
        /// Threshold value.
        threshold: f64,
    },
    /// Passes left when `x[feature] == value` (factorised nominal code).
    NominalEquals {
        /// Nominal value code.
        value: f64,
    },
}

impl SplitTest {
    /// Evaluate the test for a feature value; `true` routes to the left child.
    #[inline]
    pub fn goes_left(&self, feature_value: f64) -> bool {
        match self {
            SplitTest::NumericThreshold { threshold } => feature_value <= *threshold,
            SplitTest::NominalEquals { value } => (feature_value - *value).abs() < 1e-9,
        }
    }
}

/// Standard normal cumulative distribution function via the Abramowitz &
/// Stegun erf approximation (max error ≈ 1.5e-7).
pub fn normal_cdf(x: f64, mean: f64, std_dev: f64) -> f64 {
    if std_dev <= 0.0 {
        return if x < mean { 0.0 } else { 1.0 };
    }
    let z = (x - mean) / (std_dev * std::f64::consts::SQRT_2);
    0.5 * (1.0 + erf(z))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Gaussian observer for a numeric attribute: per-class running mean/variance
/// plus the global value range.
#[derive(Debug, Clone)]
pub struct GaussianObserver {
    per_class: Vec<RunningStats>,
    min: f64,
    max: f64,
}

impl MemoryUsage for GaussianObserver {
    /// Heap bytes of the per-class estimator vector (`RunningStats` owns no
    /// heap of its own).
    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.per_class)
    }
}

impl GaussianObserver {
    /// Create an observer for `num_classes` classes.
    pub fn new(num_classes: usize) -> Self {
        Self {
            per_class: vec![RunningStats::new(); num_classes],
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation of the attribute value for class `y`.
    pub fn update(&mut self, value: f64, y: usize) {
        if y < self.per_class.len() {
            self.per_class[y].update(value);
        }
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Estimated class distribution `[left, right]` if splitting at
    /// `threshold` (left = values ≤ threshold).
    pub fn split_distributions(&self, threshold: f64) -> Vec<Vec<f64>> {
        let c = self.per_class.len();
        let mut left = vec![0.0; c];
        let mut right = vec![0.0; c];
        for (class, stats) in self.per_class.iter().enumerate() {
            let n = stats.count() as f64;
            if n == 0.0 {
                continue;
            }
            let frac_left = normal_cdf(threshold, stats.mean(), stats.std_dev());
            left[class] = n * frac_left;
            right[class] = n * (1.0 - frac_left);
        }
        vec![left, right]
    }

    /// Best split for this attribute by information gain, or `None` if the
    /// attribute has not seen at least two distinct values.
    pub fn best_split(&self, feature: usize, pre_dist: &[f64]) -> Option<SplitSuggestion> {
        if !self.min.is_finite() || !self.max.is_finite() || self.max <= self.min {
            return None;
        }
        let mut best: Option<SplitSuggestion> = None;
        for i in 1..=NUM_THRESHOLDS {
            let threshold =
                self.min + (self.max - self.min) * i as f64 / (NUM_THRESHOLDS + 1) as f64;
            let dists = self.split_distributions(threshold);
            let merit = info_gain(pre_dist, &dists);
            if best.as_ref().is_none_or(|b| merit > b.merit) {
                best = Some(SplitSuggestion {
                    feature,
                    test: SplitTest::NumericThreshold { threshold },
                    merit,
                    children_dists: dists,
                });
            }
        }
        best
    }
}

/// Count-table observer for a nominal attribute.
#[derive(Debug, Clone)]
pub struct NominalObserver {
    /// `counts[value][class]`
    counts: Vec<Vec<f64>>,
    num_classes: usize,
}

impl MemoryUsage for NominalObserver {
    /// Heap bytes of the `value × class` count table — for high-cardinality
    /// nominal features this is the dominant per-leaf cost of the Hoeffding
    /// family, which is exactly what the `memory-budget` workload stresses.
    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.counts) + self.counts.iter().map(vec_bytes).sum::<usize>()
    }
}

impl NominalObserver {
    /// Create an observer for a nominal attribute with `cardinality` values.
    pub fn new(cardinality: usize, num_classes: usize) -> Self {
        Self {
            counts: vec![vec![0.0; num_classes]; cardinality.max(1)],
            num_classes,
        }
    }

    /// Record one observation.
    pub fn update(&mut self, value: f64, y: usize) {
        let v = value.round().max(0.0) as usize;
        if v >= self.counts.len() {
            // Grow the table to accommodate unseen codes.
            self.counts.resize(v + 1, vec![0.0; self.num_classes]);
        }
        if y < self.num_classes {
            self.counts[v][y] += 1.0;
        }
    }

    /// Best one-vs-rest binary split by information gain.
    pub fn best_split(&self, feature: usize, pre_dist: &[f64]) -> Option<SplitSuggestion> {
        let mut best: Option<SplitSuggestion> = None;
        for (value, value_counts) in self.counts.iter().enumerate() {
            let total: f64 = value_counts.iter().sum();
            if total == 0.0 {
                continue;
            }
            let left = value_counts.clone();
            let right: Vec<f64> = pre_dist
                .iter()
                .zip(value_counts.iter())
                .map(|(p, v)| (p - v).max(0.0))
                .collect();
            let dists = vec![left, right];
            let merit = info_gain(pre_dist, &dists);
            if best.as_ref().is_none_or(|b| merit > b.merit) {
                best = Some(SplitSuggestion {
                    feature,
                    test: SplitTest::NominalEquals {
                        value: value as f64,
                    },
                    merit,
                    children_dists: dists,
                });
            }
        }
        best
    }
}

/// An observer for either feature type.
#[derive(Debug, Clone)]
pub enum AttributeObserver {
    /// Gaussian observer for numeric features.
    Numeric(GaussianObserver),
    /// Count-table observer for nominal features.
    Nominal(NominalObserver),
}

impl MemoryUsage for AttributeObserver {
    fn memory_bytes(&self) -> usize {
        match self {
            AttributeObserver::Numeric(o) => o.memory_bytes(),
            AttributeObserver::Nominal(o) => o.memory_bytes(),
        }
    }
}

impl AttributeObserver {
    /// Create a numeric observer.
    pub fn numeric(num_classes: usize) -> Self {
        AttributeObserver::Numeric(GaussianObserver::new(num_classes))
    }

    /// Create a nominal observer.
    pub fn nominal(cardinality: usize, num_classes: usize) -> Self {
        AttributeObserver::Nominal(NominalObserver::new(cardinality, num_classes))
    }

    /// Record one observation.
    pub fn update(&mut self, value: f64, y: usize) {
        match self {
            AttributeObserver::Numeric(o) => o.update(value, y),
            AttributeObserver::Nominal(o) => o.update(value, y),
        }
    }

    /// Best split proposal for this attribute.
    pub fn best_split(&self, feature: usize, pre_dist: &[f64]) -> Option<SplitSuggestion> {
        match self {
            AttributeObserver::Numeric(o) => o.best_split(feature, pre_dist),
            AttributeObserver::Nominal(o) => o.best_split(feature, pre_dist),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_cdf_is_monotone_and_symmetric() {
        assert!((normal_cdf(0.0, 0.0, 1.0) - 0.5).abs() < 1e-6);
        assert!(normal_cdf(-3.0, 0.0, 1.0) < 0.01);
        assert!(normal_cdf(3.0, 0.0, 1.0) > 0.99);
        let a = normal_cdf(-1.0, 0.0, 1.0);
        let b = normal_cdf(1.0, 0.0, 1.0);
        assert!((a + b - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normal_cdf_with_zero_std_is_a_step() {
        assert_eq!(normal_cdf(0.9, 1.0, 0.0), 0.0);
        assert_eq!(normal_cdf(1.1, 1.0, 0.0), 1.0);
    }

    #[test]
    fn gaussian_observer_finds_a_separating_threshold() {
        let mut obs = GaussianObserver::new(2);
        // Class 0 clusters near 0.2, class 1 near 0.8.
        for i in 0..200 {
            let jitter = (i % 20) as f64 / 400.0;
            obs.update(0.2 + jitter, 0);
            obs.update(0.8 - jitter, 1);
        }
        let pre = vec![200.0, 200.0];
        let split = obs.best_split(3, &pre).unwrap();
        assert_eq!(split.feature, 3);
        match split.test {
            SplitTest::NumericThreshold { threshold } => {
                assert!(threshold > 0.3 && threshold < 0.7, "threshold {threshold}");
            }
            _ => panic!("expected numeric test"),
        }
        assert!(split.merit > 0.5, "merit {}", split.merit);
    }

    #[test]
    fn gaussian_observer_without_spread_returns_none() {
        let mut obs = GaussianObserver::new(2);
        for _ in 0..50 {
            obs.update(1.0, 0);
        }
        assert!(obs.best_split(0, &[50.0, 0.0]).is_none());
        let empty = GaussianObserver::new(2);
        assert!(empty.best_split(0, &[0.0, 0.0]).is_none());
    }

    #[test]
    fn gaussian_split_distributions_sum_to_class_counts() {
        let mut obs = GaussianObserver::new(2);
        for i in 0..100 {
            obs.update(i as f64 / 100.0, i % 2);
        }
        let dists = obs.split_distributions(0.5);
        let total: f64 = dists.iter().flatten().sum();
        assert!((total - 100.0).abs() < 1e-6);
    }

    #[test]
    fn nominal_observer_prefers_the_pure_value() {
        let mut obs = NominalObserver::new(3, 2);
        // value 0 -> always class 0; values 1, 2 -> mixed.
        for _ in 0..50 {
            obs.update(0.0, 0);
        }
        for i in 0..50 {
            obs.update(1.0, i % 2);
            obs.update(2.0, (i + 1) % 2);
        }
        let pre = vec![100.0, 50.0];
        let split = obs.best_split(1, &pre).unwrap();
        match split.test {
            SplitTest::NominalEquals { value } => assert_eq!(value, 0.0),
            _ => panic!("expected nominal test"),
        }
    }

    #[test]
    fn nominal_observer_grows_for_unseen_codes() {
        let mut obs = NominalObserver::new(2, 2);
        obs.update(7.0, 1);
        let pre = vec![0.0, 1.0];
        let split = obs.best_split(0, &pre);
        assert!(split.is_some());
    }

    #[test]
    fn split_test_routing() {
        let num = SplitTest::NumericThreshold { threshold: 0.5 };
        assert!(num.goes_left(0.5));
        assert!(num.goes_left(0.2));
        assert!(!num.goes_left(0.7));
        let nom = SplitTest::NominalEquals { value: 2.0 };
        assert!(nom.goes_left(2.0));
        assert!(!nom.goes_left(1.0));
    }

    #[test]
    fn attribute_observer_dispatches() {
        let mut num = AttributeObserver::numeric(2);
        let mut nom = AttributeObserver::nominal(3, 2);
        for i in 0..60 {
            num.update(i as f64 / 60.0, usize::from(i >= 30));
            nom.update((i % 3) as f64, usize::from(i % 3 == 0));
        }
        let pre = vec![30.0, 30.0];
        assert!(num.best_split(0, &pre).is_some());
        let pre_nom = vec![40.0, 20.0];
        assert!(nom.best_split(1, &pre_nom).is_some());
    }
}
