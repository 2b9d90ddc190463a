//! Incremental Gaussian Naive Bayes.
//!
//! Used by the VFDT (NBA) baseline: Hoeffding-tree leaves augmented with an
//! adaptive Naive Bayes classifier (Gama et al., 2003). Feature likelihoods
//! are modelled as per-class Gaussians whose mean and variance are maintained
//! incrementally with Welford's algorithm, which is numerically stable for
//! long streams.

use crate::argmax;

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
    /// with Laplace-smoothed priors, written into `out`.
    fn joint_log_likelihood_into(&self, x: &[f64], out: &mut [f64]) {
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

    /// Class probabilities for `x`, written into `out` (one entry per
    /// class): the normalised joint likelihoods, or the uniform distribution
    /// before the first observation.
    pub fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
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

    /// Most probable class for `x` (ties toward the lower index).
    pub fn predict(&self, x: &[f64]) -> usize {
        let mut proba = vec![0.0; self.class_counts.len()];
        self.predict_proba_into(x, &mut proba);
        argmax(&proba)
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
    fn log_density_peaks_at_mean() {
        let mut s = RunningStats::new();
        for v in [0.0, 1.0, 2.0, 3.0, 4.0] {
            s.update(v);
        }
        assert!(s.log_density(2.0) > s.log_density(4.5));
        assert!(s.log_density(2.0) > s.log_density(-1.0));
    }

    fn proba(nb: &GaussianNaiveBayes, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; nb.class_counts.len()];
        nb.predict_proba_into(x, &mut out);
        out
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
        let p = proba(&nb, &[0.0, 0.0]);
        assert!(p[0] > 0.9);
    }

    #[test]
    fn untrained_model_predicts_uniform() {
        let nb = GaussianNaiveBayes::new(3, 4);
        let p = proba(&nb, &[1.0, 2.0, 3.0]);
        for &pi in &p {
            assert!((pi - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn proba_sums_to_one() {
        let (xs, ys) = two_cluster_data(50);
        let mut nb = GaussianNaiveBayes::new(2, 2);
        for (x, &y) in xs.iter().zip(ys.iter()) {
            nb.update(x, y);
        }
        let p = proba(&nb, &[1.5, 1.5]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
