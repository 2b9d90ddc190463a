//! Classification metrics.
//!
//! The paper reports the F1 measure because several of the evaluation streams
//! are strongly imbalanced (§VI-D1). For multiclass streams the macro-averaged
//! F1 over the classes present in the evaluation window is used; accuracy and
//! Cohen's kappa are provided for diagnostics and extension experiments.

/// An incrementally updatable confusion matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfusionMatrix {
    /// `counts[actual][predicted]`
    counts: Vec<Vec<u64>>,
    total: u64,
}

impl ConfusionMatrix {
    /// Create an empty matrix for `num_classes` classes.
    pub fn new(num_classes: usize) -> Self {
        assert!(num_classes >= 2, "need at least two classes");
        Self {
            counts: vec![vec![0; num_classes]; num_classes],
            total: 0,
        }
    }

    /// Record one prediction.
    pub fn update(&mut self, actual: usize, predicted: usize) {
        let c = self.counts.len();
        if actual < c && predicted < c {
            self.counts[actual][predicted] += 1;
            self.total += 1;
        }
    }

    /// Record a batch of predictions.
    pub fn update_batch(&mut self, actuals: &[usize], predictions: &[usize]) {
        for (&a, &p) in actuals.iter().zip(predictions.iter()) {
            self.update(a, p);
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.counts.len()
    }

    /// Total number of recorded predictions.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of observations whose true class is `class`.
    pub fn support(&self, class: usize) -> u64 {
        self.counts[class].iter().sum()
    }

    /// Overall accuracy (0 when empty).
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.counts.len()).map(|i| self.counts[i][i]).sum();
        correct as f64 / self.total as f64
    }

    /// Precision of one class (0 when the class was never predicted).
    pub fn precision(&self, class: usize) -> f64 {
        let predicted: u64 = self.counts.iter().map(|row| row[class]).sum();
        if predicted == 0 {
            0.0
        } else {
            self.counts[class][class] as f64 / predicted as f64
        }
    }

    /// Recall of one class (0 when the class never occurred).
    pub fn recall(&self, class: usize) -> f64 {
        let actual = self.support(class);
        if actual == 0 {
            0.0
        } else {
            self.counts[class][class] as f64 / actual as f64
        }
    }

    /// F1 of one class.
    pub fn f1(&self, class: usize) -> f64 {
        let p = self.precision(class);
        let r = self.recall(class);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Macro-averaged F1 over the classes that actually occur in the recorded
    /// data (classes without support are excluded so short evaluation windows
    /// of multiclass streams are not unfairly penalised).
    pub fn macro_f1(&self) -> f64 {
        let present: Vec<usize> = (0..self.counts.len())
            .filter(|&c| self.support(c) > 0)
            .collect();
        if present.is_empty() {
            return 0.0;
        }
        present.iter().map(|&c| self.f1(c)).sum::<f64>() / present.len() as f64
    }

    /// Support-weighted F1.
    pub fn weighted_f1(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (0..self.counts.len())
            .map(|c| self.f1(c) * self.support(c) as f64)
            .sum::<f64>()
            / self.total as f64
    }

    /// Cohen's kappa: agreement corrected for chance.
    pub fn kappa(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n = self.total as f64;
        let po = self.accuracy();
        let mut pe = 0.0;
        for c in 0..self.counts.len() {
            let actual = self.support(c) as f64;
            let predicted: u64 = self.counts.iter().map(|row| row[c]).sum();
            pe += (actual / n) * (predicted as f64 / n);
        }
        if (1.0 - pe).abs() < 1e-12 {
            0.0
        } else {
            (po - pe) / (1.0 - pe)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perfect_binary() -> ConfusionMatrix {
        let mut cm = ConfusionMatrix::new(2);
        cm.update_batch(&[0, 0, 1, 1], &[0, 0, 1, 1]);
        cm
    }

    #[test]
    fn perfect_predictions_score_one() {
        let cm = perfect_binary();
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.f1(1), 1.0);
        assert_eq!(cm.macro_f1(), 1.0);
        assert_eq!(cm.weighted_f1(), 1.0);
        assert_eq!(cm.kappa(), 1.0);
        assert_eq!(cm.total(), 4);
    }

    #[test]
    fn all_wrong_scores_zero() {
        let mut cm = ConfusionMatrix::new(2);
        cm.update_batch(&[0, 0, 1, 1], &[1, 1, 0, 0]);
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.f1(0), 0.0);
        assert_eq!(cm.f1(1), 0.0);
        assert!(cm.kappa() < 0.0);
    }

    #[test]
    fn known_f1_value() {
        // TP=2, FP=1, FN=1 for class 1 -> precision 2/3, recall 2/3, F1 = 2/3.
        let mut cm = ConfusionMatrix::new(2);
        cm.update_batch(&[1, 1, 1, 0, 0], &[1, 1, 0, 1, 0]);
        assert!((cm.precision(1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((cm.recall(1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((cm.f1(1) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn macro_f1_ignores_absent_classes() {
        let mut cm = ConfusionMatrix::new(5);
        // Only classes 0 and 1 occur.
        cm.update_batch(&[0, 0, 1, 1], &[0, 0, 1, 0]);
        let macro_f1 = cm.macro_f1();
        // class 0: p=2/3, r=1 -> f1=0.8 ; class 1: p=1, r=0.5 -> f1=2/3
        assert!((macro_f1 - (0.8 + 2.0 / 3.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_scores_zero_everywhere() {
        let cm = ConfusionMatrix::new(3);
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.macro_f1(), 0.0);
        assert_eq!(cm.weighted_f1(), 0.0);
        assert_eq!(cm.kappa(), 0.0);
    }

    #[test]
    fn out_of_range_labels_are_ignored() {
        let mut cm = ConfusionMatrix::new(2);
        cm.update(5, 1);
        cm.update(1, 7);
        assert_eq!(cm.total(), 0);
    }

    #[test]
    fn weighted_f1_respects_support() {
        let mut cm = ConfusionMatrix::new(2);
        // 90 correct negatives, 10 all-wrong positives.
        for _ in 0..90 {
            cm.update(0, 0);
        }
        for _ in 0..10 {
            cm.update(1, 0);
        }
        assert!(cm.weighted_f1() > cm.macro_f1());
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn single_class_matrix_panics() {
        let _ = ConfusionMatrix::new(1);
    }

    #[test]
    fn kappa_is_zero_for_chance_level_predictions() {
        let mut cm = ConfusionMatrix::new(2);
        // Predictions independent of the labels, both uniform.
        cm.update_batch(&[0, 0, 1, 1], &[0, 1, 0, 1]);
        assert!(cm.kappa().abs() < 1e-12);
    }
}
