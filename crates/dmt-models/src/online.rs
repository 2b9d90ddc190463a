//! The [`OnlineClassifier`] trait: the common contract of every streaming
//! classifier in this workspace (the Dynamic Model Tree, all baseline trees
//! and the ensembles).
//!
//! The paper evaluates classifiers prequentially on batches of 0.1 % of the
//! stream; accordingly the trait exposes batch-level `predict`/`learn`
//! operations plus the complexity accounting needed for Tables III and IV.

use crate::Rows;

/// Model-complexity measures following §VI-D2 of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Complexity {
    /// Number of splits: one per inner node, plus one per *binary* leaf
    /// classifier or `c` per multiclass leaf classifier; majority-class leaves
    /// contribute nothing.
    pub splits: f64,
    /// Number of parameters: one per inner node (the split value), plus one
    /// per majority-class leaf or `m` per simple-model leaf (per class for
    /// multinomial models).
    pub parameters: f64,
}

/// A streaming classifier that can be evaluated prequentially.
pub trait OnlineClassifier: Send {
    /// Human-readable model name used in result tables (e.g. `"DMT"`).
    fn name(&self) -> &str;

    /// Number of target classes.
    fn num_classes(&self) -> usize;

    /// Predict the class of a single instance.
    fn predict(&self, x: &[f64]) -> usize;

    /// Predict class probabilities for a single instance.
    fn predict_proba(&self, x: &[f64]) -> Vec<f64>;

    /// Incorporate a labelled batch (the "train" part of test-then-train).
    fn learn_batch(&mut self, xs: Rows<'_>, ys: &[usize]);

    /// Current model complexity (splits and parameters).
    fn complexity(&self) -> Complexity;

    /// Resident heap bytes this model keeps alive between batches
    /// (capacity-based; see [`crate::memory::MemoryUsage`] for the
    /// conventions). Every classifier in the workspace overrides this with a
    /// full accounting of its learning state; the benches report it as
    /// `bytes_per_model` and a model registry can budget or evict by it. The
    /// default of `0` exists only so external implementors of the trait are
    /// not forced to account — `0` means "unaccounted", never "free".
    fn memory_bytes(&self) -> usize {
        0
    }

    /// Predict a whole batch into a caller-provided buffer
    /// (`out.len() == xs.len()`), so evaluation loops can reuse one
    /// predictions buffer across batches instead of allocating per call.
    ///
    /// The default delegates to [`OnlineClassifier::predict`] per row;
    /// models with per-batch state override it (the ensembles reuse one
    /// vote buffer across rows).
    fn predict_batch_into(&self, xs: Rows<'_>, out: &mut [usize]) {
        debug_assert_eq!(xs.len(), out.len(), "predict_batch_into: buffer length");
        for (x, o) in xs.iter().zip(out.iter_mut()) {
            *o = self.predict(x);
        }
    }

    /// Predict a whole batch (convenience used by the evaluator). Allocates
    /// the result vector; hot loops should reuse a buffer through
    /// [`OnlineClassifier::predict_batch_into`].
    fn predict_batch(&self, xs: Rows<'_>) -> Vec<usize> {
        let mut out = vec![0usize; xs.len()];
        self.predict_batch_into(xs, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Glm, SimpleModel};

    /// A trivial wrapper proving the trait is object-safe and the default
    /// batch prediction works.
    struct GlmClassifier {
        glm: Glm,
        name: String,
    }

    impl OnlineClassifier for GlmClassifier {
        fn name(&self) -> &str {
            &self.name
        }
        fn num_classes(&self) -> usize {
            self.glm.num_classes()
        }
        fn predict(&self, x: &[f64]) -> usize {
            SimpleModel::predict(&self.glm, x)
        }
        fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
            self.glm.predict_proba(x)
        }
        fn learn_batch(&mut self, xs: Rows<'_>, ys: &[usize]) {
            self.glm.sgd_step(xs, ys, 0.05);
        }
        fn complexity(&self) -> Complexity {
            Complexity {
                splits: 1.0,
                parameters: self.glm.num_params() as f64,
            }
        }
    }

    #[test]
    fn trait_is_object_safe_and_batch_prediction_works() {
        let mut model: Box<dyn OnlineClassifier> = Box::new(GlmClassifier {
            glm: Glm::new_zeros(2, 2),
            name: "glm".to_string(),
        });
        let xs: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64 / 50.0, 1.0 - i as f64 / 50.0])
            .collect();
        let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.5)).collect();
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        for _ in 0..200 {
            model.learn_batch(&rows, &ys);
        }
        let preds = model.predict_batch(&rows);
        assert_eq!(preds.len(), 50);
        let mut into = vec![0usize; rows.len()];
        model.predict_batch_into(&rows, &mut into);
        assert_eq!(preds, into);
        let correct = preds.iter().zip(ys.iter()).filter(|(a, b)| a == b).count();
        assert!(correct > 40);
        assert_eq!(model.name(), "glm");
        assert_eq!(model.complexity().parameters, 3.0);
    }

    #[test]
    fn complexity_default_is_zero() {
        let c = Complexity::default();
        assert_eq!(c.splits, 0.0);
        assert_eq!(c.parameters, 0.0);
    }
}
