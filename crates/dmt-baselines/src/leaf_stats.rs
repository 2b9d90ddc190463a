//! Per-leaf statistics and leaf prediction policies for the Hoeffding-tree
//! family.
//!
//! Every learning leaf keeps a class distribution, one attribute observer per
//! feature and (when the policy requires it) an incremental Gaussian Naive
//! Bayes model. The two policies correspond to the paper's baselines:
//!
//! * [`LeafPolicy::MajorityClass`] — VFDT (MC), HT-Ada and EFDT as configured
//!   in §VI-C (majority voting in the leaves).
//! * [`LeafPolicy::NaiveBayesAdaptive`] — VFDT (NBA): predicts with whichever
//!   of majority class / Naive Bayes has been more accurate at this leaf so
//!   far (Gama et al., 2003).

use dmt_models::memory::{slice_deep_bytes, vec_bytes};
use dmt_models::{GaussianNaiveBayes, MemoryUsage};
use dmt_stream::schema::{FeatureType, StreamSchema};

use crate::observer::{AttributeObserver, SplitSuggestion};

/// Leaf prediction policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafPolicy {
    /// Predict the majority class of the leaf.
    MajorityClass,
    /// Predict with majority class or Naive Bayes, whichever has the better
    /// running accuracy at this leaf ("adaptive", Gama et al. 2003).
    NaiveBayesAdaptive,
}

/// Statistics stored in a learning leaf.
#[derive(Debug, Clone)]
pub struct LeafStats {
    /// Per-class observation weights.
    pub class_counts: Vec<f64>,
    observers: Vec<AttributeObserver>,
    nb: Option<GaussianNaiveBayes>,
    policy: LeafPolicy,
    mc_correct: f64,
    nb_correct: f64,
    /// Weight seen at the time of the last split attempt (for grace periods).
    pub weight_at_last_eval: f64,
}

impl MemoryUsage for LeafStats {
    /// Heap bytes of the class counts, every attribute observer (Gaussian
    /// estimators or nominal count tables) and the optional Naive Bayes
    /// model.
    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.class_counts)
            + vec_bytes(&self.observers)
            + slice_deep_bytes(&self.observers)
            + self.nb.as_ref().map_or(0, MemoryUsage::memory_bytes)
    }
}

impl LeafStats {
    /// Create leaf statistics for the given schema and policy.
    pub fn new(schema: &StreamSchema, policy: LeafPolicy) -> Self {
        let c = schema.num_classes;
        let observers = schema
            .features
            .iter()
            .map(|f| match f.feature_type {
                FeatureType::Numeric => AttributeObserver::numeric(c),
                FeatureType::Nominal { cardinality } => AttributeObserver::nominal(cardinality, c),
            })
            .collect();
        let nb = if policy == LeafPolicy::MajorityClass {
            None
        } else {
            Some(GaussianNaiveBayes::new(schema.num_features(), c))
        };
        Self {
            class_counts: vec![0.0; c],
            observers,
            nb,
            policy,
            mc_correct: 0.0,
            nb_correct: 0.0,
            weight_at_last_eval: 0.0,
        }
    }

    /// Total observation weight at this leaf.
    pub fn total_weight(&self) -> f64 {
        self.class_counts.iter().sum()
    }

    /// Majority class (ties toward the lower index).
    pub fn majority_class(&self) -> usize {
        dmt_models::argmax(&self.class_counts)
    }

    /// Whether all observed weight belongs to a single class.
    pub fn is_pure(&self) -> bool {
        self.class_counts.iter().filter(|&&c| c > 0.0).count() <= 1
    }

    /// Incorporate one labelled instance.
    pub fn update(&mut self, x: &[f64], y: usize) {
        // Track which of MC / NB would have predicted correctly *before*
        // incorporating the instance (required by the adaptive policy).
        if self.policy == LeafPolicy::NaiveBayesAdaptive && self.total_weight() > 0.0 {
            if self.majority_class() == y {
                self.mc_correct += 1.0;
            }
            if let Some(nb) = &self.nb {
                if nb.predict(x) == y {
                    self.nb_correct += 1.0;
                }
            }
        }
        if y < self.class_counts.len() {
            self.class_counts[y] += 1.0;
        }
        for (observer, &value) in self.observers.iter_mut().zip(x.iter()) {
            observer.update(value, y);
        }
        if let Some(nb) = &mut self.nb {
            nb.update(x, y);
        }
    }

    /// Class-probability prediction according to the leaf policy, written
    /// into `out` (`out.len() == num_classes`). The allocation-free primitive
    /// behind [`LeafStats::predict_proba`]: ensemble batch prediction calls
    /// it once per member per row with one reused buffer instead of
    /// materialising a fresh `Vec<f64>` each time.
    pub fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        // Hard assert (not debug): a wrong-sized buffer would otherwise
        // silently leave stale tail values on the majority-class path while
        // the Naive Bayes path panics — fail loudly and consistently.
        assert_eq!(
            out.len(),
            self.class_counts.len(),
            "predict_proba_into: buffer length"
        );
        let total = self.total_weight();
        let mc_proba_into = |out: &mut [f64]| {
            if total == 0.0 {
                out.fill(1.0 / out.len() as f64);
            } else {
                for (o, &w) in out.iter_mut().zip(self.class_counts.iter()) {
                    *o = w / total;
                }
            }
        };
        match self.policy {
            LeafPolicy::MajorityClass => mc_proba_into(out),
            LeafPolicy::NaiveBayesAdaptive => {
                if self.nb_correct >= self.mc_correct {
                    match &self.nb {
                        Some(nb) if total > 0.0 => nb.predict_proba_into(x, out),
                        _ => mc_proba_into(out),
                    }
                } else {
                    mc_proba_into(out)
                }
            }
        }
    }

    /// Class-probability prediction according to the leaf policy.
    ///
    /// Allocates; hot paths use [`LeafStats::predict_proba_into`].
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.class_counts.len()];
        self.predict_proba_into(x, &mut out);
        out
    }

    /// Best split suggestion per attribute, sorted by descending merit.
    pub fn split_suggestions(&self) -> Vec<SplitSuggestion> {
        let mut suggestions: Vec<SplitSuggestion> = self
            .observers
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.best_split(i, &self.class_counts))
            .collect();
        suggestions.sort_by(|a, b| {
            b.merit
                .partial_cmp(&a.merit)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        suggestions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_stream::schema::StreamSchema;

    fn schema() -> StreamSchema {
        StreamSchema::numeric("toy", 2, 2)
    }

    fn fill_separable(stats: &mut LeafStats, n: usize) {
        for i in 0..n {
            let v = i as f64 / n as f64;
            // Class 1 when the first feature exceeds 0.5.
            stats.update(&[v, 1.0 - v], usize::from(v > 0.5));
        }
    }

    #[test]
    fn counts_and_majority() {
        let mut stats = LeafStats::new(&schema(), LeafPolicy::MajorityClass);
        stats.update(&[0.1, 0.2], 0);
        stats.update(&[0.3, 0.1], 0);
        stats.update(&[0.9, 0.8], 1);
        assert_eq!(stats.total_weight(), 3.0);
        assert_eq!(stats.majority_class(), 0);
        assert!(!stats.is_pure());
    }

    #[test]
    fn empty_leaf_predicts_uniform() {
        let stats = LeafStats::new(&schema(), LeafPolicy::MajorityClass);
        let p = stats.predict_proba(&[0.5, 0.5]);
        assert_eq!(p, vec![0.5, 0.5]);
        assert!(stats.is_pure());
    }

    #[test]
    fn majority_policy_returns_class_frequencies() {
        let mut stats = LeafStats::new(&schema(), LeafPolicy::MajorityClass);
        stats.update(&[0.1, 0.2], 0);
        stats.update(&[0.2, 0.2], 0);
        stats.update(&[0.9, 0.8], 1);
        let p = stats.predict_proba(&[0.5, 0.5]);
        assert!((p[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((p[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn adaptive_policy_tracks_both_accuracies() {
        let mut stats = LeafStats::new(&schema(), LeafPolicy::NaiveBayesAdaptive);
        fill_separable(&mut stats, 300);
        // On separable data NB should be at least as accurate as MC, so the
        // adaptive leaf behaves like NB and uses the features.
        let p_low = stats.predict_proba(&[0.05, 0.95]);
        assert!(p_low[0] > 0.5);
        assert!(stats.nb_correct >= 0.0 && stats.mc_correct >= 0.0);
    }

    #[test]
    fn split_suggestions_are_sorted_and_identify_the_informative_feature() {
        let mut stats = LeafStats::new(&schema(), LeafPolicy::MajorityClass);
        fill_separable(&mut stats, 400);
        let suggestions = stats.split_suggestions();
        assert!(!suggestions.is_empty());
        // Both features are informative here (x1 = 1 - x0), but merits must be
        // sorted in descending order.
        for pair in suggestions.windows(2) {
            assert!(pair[0].merit >= pair[1].merit);
        }
        assert!(suggestions[0].merit > 0.5);
    }

    #[test]
    fn pure_leaf_is_detected() {
        let mut stats = LeafStats::new(&schema(), LeafPolicy::MajorityClass);
        for i in 0..50 {
            stats.update(&[i as f64, 0.0], 1);
        }
        assert!(stats.is_pure());
        assert_eq!(stats.majority_class(), 1);
    }

    #[test]
    fn nominal_features_use_nominal_observers() {
        let schema = StreamSchema::new(
            "mixed",
            vec![
                dmt_stream::schema::FeatureSpec::nominal("color", 3),
                dmt_stream::schema::FeatureSpec::numeric("size"),
            ],
            2,
        );
        let mut stats = LeafStats::new(&schema, LeafPolicy::MajorityClass);
        for i in 0..120 {
            let color = (i % 3) as f64;
            let label = usize::from(color == 0.0);
            stats.update(&[color, i as f64 / 120.0], label);
        }
        let suggestions = stats.split_suggestions();
        assert_eq!(
            suggestions[0].feature, 0,
            "the nominal feature determines the label"
        );
    }
}
