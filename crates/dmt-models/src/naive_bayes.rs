//! Incremental Gaussian Naive Bayes.
//!
//! Used by the VFDT (NBA) baseline: Hoeffding-tree leaves augmented with an
//! adaptive Naive Bayes classifier (Gama et al., 2003). Feature likelihoods
//! are modelled as per-class Gaussians whose mean and variance are maintained
//! incrementally with Welford's algorithm, which is numerically stable for
//! long streams.

use crate::linalg::clamp_proba;
use crate::{argmax, Rows, SimpleModel};

/// Welford running estimator of mean and variance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Create an empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Incorporate a new observation.
    pub fn update(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Gaussian log-density of `value` under the running estimate, with a
    /// variance floor for numerical safety.
    pub fn log_density(&self, value: f64) -> f64 {
        let var = self.variance().max(1e-6);
        let diff = value - self.mean;
        -0.5 * ((2.0 * std::f64::consts::PI * var).ln() + diff * diff / var)
    }

    /// Merge another estimator into this one (parallel-combine formula).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        let new_m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = new_mean;
        self.m2 = new_m2;
    }
}

/// Incremental Gaussian Naive Bayes classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianNaiveBayes {
    /// `stats[class][feature]`
    stats: Vec<Vec<RunningStats>>,
    /// Per-class observation counts (for the prior).
    class_counts: Vec<u64>,
    num_features: usize,
    seen: u64,
}

impl GaussianNaiveBayes {
    /// Heap bytes held by the per-class statistics tables (capacity-based;
    /// see [`crate::memory::MemoryUsage`]).
    pub(crate) fn heap_bytes(&self) -> usize {
        crate::memory::vec_bytes(&self.stats)
            + self
                .stats
                .iter()
                .map(crate::memory::vec_bytes)
                .sum::<usize>()
            + crate::memory::vec_bytes(&self.class_counts)
    }

    /// Create an empty model for `num_features` features and `num_classes`
    /// classes.
    pub fn new(num_features: usize, num_classes: usize) -> Self {
        assert!(num_classes >= 2, "a classifier needs at least two classes");
        Self {
            stats: vec![vec![RunningStats::new(); num_features]; num_classes],
            class_counts: vec![0; num_classes],
            num_features,
            seen: 0,
        }
    }

    /// Incorporate a whole labelled batch, row by row. Semantically identical
    /// to calling [`GaussianNaiveBayes::update`] per row in order (the Welford
    /// recurrences are inherently sequential); provided so batch-level
    /// callers that already hold a gathered matrix share the same contiguous
    /// [`crate::linalg::MatRef`] entry point as the GLM kernels.
    pub fn update_batch(&mut self, xs: crate::linalg::MatRef<'_>, ys: &[usize]) {
        debug_assert_eq!(xs.rows(), ys.len());
        for (x, &y) in xs.row_iter().zip(ys.iter()) {
            self.update(x, y);
        }
    }

    /// Incorporate a single labelled instance.
    pub fn update(&mut self, x: &[f64], y: usize) {
        debug_assert!(y < self.class_counts.len());
        debug_assert_eq!(x.len(), self.num_features);
        self.class_counts[y] += 1;
        for (stat, &value) in self.stats[y].iter_mut().zip(x.iter()) {
            stat.update(value);
        }
        self.seen += 1;
    }

    /// Per-class joint log-likelihood `log P(class) + Σ log P(x_i | class)`,
    /// with Laplace-smoothed priors.
    pub fn joint_log_likelihood(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.class_counts.len()];
        self.joint_log_likelihood_into(x, &mut out);
        out
    }

    /// [`GaussianNaiveBayes::joint_log_likelihood`] written into a
    /// caller-provided buffer.
    pub fn joint_log_likelihood_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(
            out.len(),
            self.class_counts.len(),
            "joint_log_likelihood_into: buffer length"
        );
        let total = self.seen as f64;
        let c = self.class_counts.len() as f64;
        for ((o, feature_stats), &count) in out
            .iter_mut()
            .zip(self.stats.iter())
            .zip(self.class_counts.iter())
        {
            let prior = (count as f64 + 1.0) / (total + c);
            let mut ll = prior.ln();
            if count > 0 {
                for (stat, &value) in feature_stats.iter().zip(x.iter()) {
                    ll += stat.log_density(value);
                }
            }
            *o = ll;
        }
    }

    /// Majority class observed so far (ties toward the lower index).
    pub fn majority_class(&self) -> usize {
        let counts: Vec<f64> = self.class_counts.iter().map(|&c| c as f64).collect();
        argmax(&counts)
    }

    /// Per-class observation counts.
    pub fn class_counts(&self) -> &[u64] {
        &self.class_counts
    }

    /// Number of features the model was built for.
    pub fn num_features(&self) -> usize {
        self.num_features
    }
}

impl SimpleModel for GaussianNaiveBayes {
    fn num_params(&self) -> usize {
        // Conditional mean + variance per (class, feature) pair plus the prior
        // counts; the paper's Table IV counts "m additional parameters" per NB
        // leaf, which corresponds to the per-feature conditionals of the
        // predicted class — we expose the full count here and let the
        // evaluation crate apply the paper's counting rule.
        self.stats.len() * self.num_features
    }

    fn num_classes(&self) -> usize {
        self.class_counts.len()
    }

    fn num_features(&self) -> usize {
        self.num_features
    }

    fn params(&self) -> &[f64] {
        &[]
    }

    fn params_mut(&mut self) -> &mut [f64] {
        &mut []
    }

    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        let c = self.class_counts.len();
        assert_eq!(out.len(), c, "predict_proba_into: buffer length");
        if self.seen == 0 {
            out.fill(1.0 / c as f64);
            return;
        }
        self.joint_log_likelihood_into(x, out);
        let max = out.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for p in out.iter_mut() {
            *p = (*p - max).exp();
            sum += *p;
        }
        if sum > 0.0 && sum.is_finite() {
            for p in out.iter_mut() {
                *p /= sum;
            }
        }
    }

    fn loss_and_gradient_into(
        &self,
        xs: Rows<'_>,
        ys: &[usize],
        grad: &mut [f64],
        class_buf: &mut [f64],
    ) -> f64 {
        // Naive Bayes has no gradient-trainable parameters; the loss is the
        // NLL of its probabilistic predictions and the gradient is zero.
        grad.fill(0.0);
        let mut loss = 0.0;
        for (x, &y) in xs.iter().zip(ys.iter()) {
            self.predict_proba_into(x, class_buf);
            loss += -clamp_proba(class_buf.get(y).copied().unwrap_or(0.0)).ln();
        }
        loss
    }

    fn sgd_step_into(
        &mut self,
        xs: Rows<'_>,
        ys: &[usize],
        _learning_rate: f64,
        grad_buf: &mut [f64],
        class_buf: &mut [f64],
    ) -> f64 {
        let loss = self.loss_and_gradient_into(xs, ys, grad_buf, class_buf);
        for (x, &y) in xs.iter().zip(ys.iter()) {
            self.update(x, y);
        }
        loss
    }

    fn observations_seen(&self) -> u64 {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_mean_and_variance() {
        let mut s = RunningStats::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.update(v);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance of the classic example is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-9);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn running_stats_single_value_has_zero_variance() {
        let mut s = RunningStats::new();
        s.update(3.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.mean(), 3.0);
    }

    #[test]
    fn running_stats_merge_equals_sequential() {
        let values: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 3.0 + 1.0).collect();
        let mut all = RunningStats::new();
        for &v in &values {
            all.update(v);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &v in &values[..20] {
            a.update(v);
        }
        for &v in &values[20..] {
            b.update(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.update(1.0);
        a.update(2.0);
        let before = a.clone();
        a.merge(&RunningStats::new());
        assert_eq!(a, before);

        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn log_density_peaks_at_mean() {
        let mut s = RunningStats::new();
        for v in [0.0, 1.0, 2.0, 3.0, 4.0] {
            s.update(v);
        }
        assert!(s.log_density(2.0) > s.log_density(4.5));
        assert!(s.log_density(2.0) > s.log_density(-1.0));
    }

    fn two_cluster_data(n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        // class 0 around (0, 0), class 1 around (3, 3) — deterministic jitter.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let jitter = ((i * 37) % 100) as f64 / 100.0 - 0.5;
            if i % 2 == 0 {
                xs.push(vec![0.0 + jitter, 0.0 - jitter]);
                ys.push(0);
            } else {
                xs.push(vec![3.0 + jitter, 3.0 - jitter]);
                ys.push(1);
            }
        }
        (xs, ys)
    }

    #[test]
    fn naive_bayes_learns_two_clusters() {
        let (xs, ys) = two_cluster_data(200);
        let mut nb = GaussianNaiveBayes::new(2, 2);
        for (x, &y) in xs.iter().zip(ys.iter()) {
            nb.update(x, y);
        }
        assert_eq!(nb.predict(&[0.1, -0.1]), 0);
        assert_eq!(nb.predict(&[3.1, 2.9]), 1);
        let p = nb.predict_proba(&[0.0, 0.0]);
        assert!(p[0] > 0.9);
    }

    #[test]
    fn untrained_model_predicts_uniform() {
        let nb = GaussianNaiveBayes::new(3, 4);
        let p = nb.predict_proba(&[1.0, 2.0, 3.0]);
        for &pi in &p {
            assert!((pi - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn majority_class_tracks_counts() {
        let mut nb = GaussianNaiveBayes::new(1, 3);
        nb.update(&[0.0], 2);
        nb.update(&[0.0], 2);
        nb.update(&[0.0], 1);
        assert_eq!(nb.majority_class(), 2);
        assert_eq!(nb.class_counts(), &[0, 1, 2]);
    }

    #[test]
    fn sgd_step_updates_counts_and_returns_pre_update_loss() {
        let mut nb = GaussianNaiveBayes::new(2, 2);
        let x0: &[f64] = &[0.0, 0.0];
        let x1: &[f64] = &[5.0, 5.0];
        let loss = nb.sgd_step(&[x0, x1], &[0, 1], 0.0);
        assert!(loss.is_finite());
        assert_eq!(nb.observations_seen(), 2);
    }

    #[test]
    fn proba_sums_to_one() {
        let (xs, ys) = two_cluster_data(50);
        let mut nb = GaussianNaiveBayes::new(2, 2);
        for (x, &y) in xs.iter().zip(ys.iter()) {
            nb.update(x, y);
        }
        let p = nb.predict_proba(&[1.5, 1.5]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
