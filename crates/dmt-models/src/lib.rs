//! # dmt-models
//!
//! Simple predictive models used inside the Dynamic Model Tree (DMT) and the
//! baseline incremental decision trees.
//!
//! The crate provides:
//!
//! * [`linalg`] — small dense-vector helpers (dot products, axpy, norms).
//! * [`logit`] — a binary logistic-regression (logit) model trained by SGD.
//! * [`softmax`] — a multinomial logistic-regression (softmax) model.
//! * [`glm`] — [`glm::Glm`], a dispatcher that picks the logit model for binary
//!   targets and the softmax model otherwise, exactly as proposed in §V-A of
//!   the paper.
//! * [`naive_bayes`] — incremental Gaussian Naive Bayes, used by the
//!   VFDT (NBA) baseline leaves.
//! * [`perceptron`] — an averaged online perceptron, provided as an alternative
//!   leaf model (extension).
//! * [`mod@aic`] — Akaike Information Criterion helpers and the ε-threshold test of
//!   eq. (11).
//!
//! All models implement [`SimpleModel`], the contract the Dynamic Model Tree
//! relies on: incremental SGD updates, per-batch negative log-likelihood and
//! gradients evaluated *at the current parameters* (needed for the candidate
//! loss approximation of eq. (6)–(7)).
//!
//! ```
//! use dmt_models::{Glm, SimpleModel};
//!
//! // A binary logit GLM (the DMT's leaf model for two classes): class 1
//! // exactly when the first feature exceeds 0.5.
//! let mut model = Glm::new_zeros(2, 2);
//! let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0, 0.3]).collect();
//! let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.5)).collect();
//! let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
//!
//! // Constant-learning-rate SGD (§V-A); the returned loss is the batch's
//! // negative log-likelihood *before* the step, exactly what Algorithm 1
//! // accumulates per node.
//! let first_loss = model.sgd_step(&rows, &ys, 0.05);
//! let mut last_loss = first_loss;
//! for _ in 0..200 {
//!     last_loss = model.sgd_step(&rows, &ys, 0.05);
//! }
//! assert!(last_loss < first_loss, "training reduces the NLL");
//! assert_eq!(model.predict(&[0.9, 0.3]), 1);
//! assert_eq!(model.predict(&[0.1, 0.3]), 0);
//! assert_eq!(model.num_params(), 3); // two weights + intercept
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod aic;
pub mod glm;
pub mod linalg;
pub mod logit;
pub mod loss;
pub mod memory;
pub mod naive_bayes;
pub mod online;
pub mod perceptron;
pub mod softmax;
pub mod wire;

pub use aic::{aic, aic_split_threshold, AicTest};
pub use glm::Glm;
pub use logit::LogitModel;
pub use memory::MemoryUsage;
pub use naive_bayes::GaussianNaiveBayes;
pub use online::{Complexity, OnlineClassifier};
pub use perceptron::AveragedPerceptron;
pub use softmax::SoftmaxModel;
pub use wire::{WireError, Writer};

/// A batch of observations: one row per instance, dense `f64` features.
///
/// The Dynamic Model Tree operates batch-incrementally (the paper uses batches
/// of 0.1 % of the stream), so every model API accepts slices of rows.
pub type Rows<'a> = &'a [&'a [f64]];

/// How [`SimpleModel::learn_batch_into`] traverses a routed batch.
///
/// The Dynamic Model Tree historically performed one constant-rate SGD step
/// per instance. The batched kernel layer keeps that behaviour available as
/// the *deterministic* reference and adds a windowed mode that reads the
/// parameter vector once per window, accumulates the window's gradient sum
/// with the unrolled [`linalg`] kernels and applies a single step — the
/// first-order equivalent of the per-instance sweep (each scalar step is
/// `λ · ∇ℓ_i`, so one window step of `λ · Σ_i ∇ℓ_i` matches the sweep up to
/// O(λ²) curvature terms) at a fraction of the parameter traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchMode {
    /// One SGD step per instance, bit-identical to calling
    /// [`SimpleModel::sgd_step_into`] on every row in order.
    Deterministic,
    /// One summed-gradient SGD step per window of `window` instances
    /// (`window` is clamped to at least 1).
    Batched {
        /// Number of instances per SGD step.
        window: usize,
    },
}

impl Default for BatchMode {
    /// The hot-path default: windowed batched updates with an 8-instance
    /// window, matching the 8-lane unroll width of the [`linalg`] kernels.
    fn default() -> Self {
        BatchMode::Batched {
            window: linalg::LANES,
        }
    }
}

impl BatchMode {
    /// Instances per SGD step. The deterministic sweep is a window of one:
    /// one summed-gradient step over a single row is exactly that row's
    /// [`SimpleModel::sgd_step_into`] update, bit for bit.
    pub fn window(self) -> usize {
        match self {
            BatchMode::Deterministic => 1,
            BatchMode::Batched { window } => window.max(1),
        }
    }
}

/// Contract shared by all simple models that can live at a node of a
/// (Dynamic) Model Tree.
///
/// The three core operations mirror Algorithm 1 of the paper:
///
/// * [`SimpleModel::loss_and_gradient_into`] returns the *negative
///   log-likelihood* of a batch evaluated at the current parameters and writes
///   the gradient with respect to the flattened parameter vector into a
///   caller-provided buffer. The DMT accumulates both per node and per split
///   candidate.
/// * [`SimpleModel::sgd_step_into`] performs one stochastic-gradient step with
///   a constant learning rate (§V-A).
/// * [`SimpleModel::predict_proba_into`] yields class probabilities for
///   prediction and for the adaptive leaf policies of the baselines.
///
/// The `*_into` methods are the required primitives: they write into
/// caller-provided buffers so the per-instance tree update loop performs no
/// heap allocations (the buffers are owned by `dmt_core`'s `UpdateScratch`
/// and reused across instances and batches). The allocating variants
/// ([`SimpleModel::loss_and_gradient`], [`SimpleModel::predict_proba`],
/// [`SimpleModel::sgd_step`]) are provided conveniences defined in terms of
/// the `*_into` primitives, so both API families always agree bit-for-bit.
pub trait SimpleModel: Send + Sync {
    /// Number of free (estimated) parameters `k` of the model.
    ///
    /// Used by the AIC threshold of eq. (11) and by the parameter-count
    /// complexity measure of Table IV.
    fn num_params(&self) -> usize;

    /// Number of classes the model discriminates between.
    fn num_classes(&self) -> usize;

    /// Number of input features `m`.
    fn num_features(&self) -> usize;

    /// Flattened view of the current parameter vector.
    fn params(&self) -> &[f64];

    /// Mutable flattened view of the current parameter vector.
    fn params_mut(&mut self) -> &mut [f64];

    /// Class probabilities for a single instance, written into `out`
    /// (`out.len() == num_classes`).
    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]);

    /// Class-probability vector for a single instance (length = `num_classes`).
    ///
    /// Allocates; hot paths should use [`SimpleModel::predict_proba_into`].
    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.num_classes()];
        self.predict_proba_into(x, &mut out);
        out
    }

    /// Most probable class for a single instance.
    ///
    /// The default goes through [`SimpleModel::predict_proba`] (and therefore
    /// allocates); the GLM implementations override it with an allocation-free
    /// argmax over the linear scores.
    fn predict(&self, x: &[f64]) -> usize {
        let proba = self.predict_proba(x);
        argmax(&proba)
    }

    /// Negative log-likelihood of the batch evaluated at the *current*
    /// parameters; the gradient of that loss w.r.t. the flattened parameter
    /// vector is written into `grad` (`grad.len() == num_params`, fully
    /// overwritten).
    ///
    /// Both quantities are *sums* over the batch (not means), matching the
    /// additive accumulation of Algorithm 1 lines 1–2 and 8–9.
    ///
    /// `class_buf` is caller-provided scratch of length `num_classes`; models
    /// that need per-class intermediates (softmax probabilities) use it
    /// instead of allocating.
    fn loss_and_gradient_into(
        &self,
        xs: Rows<'_>,
        ys: &[usize],
        grad: &mut [f64],
        class_buf: &mut [f64],
    ) -> f64;

    /// Allocating convenience form of [`SimpleModel::loss_and_gradient_into`].
    fn loss_and_gradient(&self, xs: Rows<'_>, ys: &[usize]) -> (f64, Vec<f64>) {
        let mut grad = vec![0.0; self.num_params()];
        let mut class_buf = vec![0.0; self.num_classes()];
        let loss = self.loss_and_gradient_into(xs, ys, &mut grad, &mut class_buf);
        (loss, grad)
    }

    /// One constant-learning-rate SGD step on the batch, using the
    /// caller-provided gradient buffer (`grad_buf.len() == num_params`) and
    /// per-class scratch (`class_buf.len() == num_classes`).
    ///
    /// Returns the batch loss *before* the update so callers can reuse it
    /// (the DMT accumulates the pre-update loss, Algorithm 1 line 1).
    fn sgd_step_into(
        &mut self,
        xs: Rows<'_>,
        ys: &[usize],
        learning_rate: f64,
        grad_buf: &mut [f64],
        class_buf: &mut [f64],
    ) -> f64;

    /// Allocating convenience form of [`SimpleModel::sgd_step_into`].
    fn sgd_step(&mut self, xs: Rows<'_>, ys: &[usize], learning_rate: f64) -> f64 {
        let mut grad_buf = vec![0.0; self.num_params()];
        let mut class_buf = vec![0.0; self.num_classes()];
        self.sgd_step_into(xs, ys, learning_rate, &mut grad_buf, &mut class_buf)
    }

    /// Class probabilities for every row of a contiguous batch, written
    /// row-major into `out` (`out.len() == xs.rows() * num_classes`).
    ///
    /// Contract: bit-identical to calling
    /// [`SimpleModel::predict_proba_into`] on each row in order — batching
    /// only restructures the loops. The GLM implementations override the
    /// default per-row loop with `gemv`-style kernels over the contiguous
    /// rows.
    fn predict_proba_batch_into(&self, xs: linalg::MatRef<'_>, out: &mut [f64]) {
        let c = self.num_classes();
        debug_assert_eq!(
            out.len(),
            xs.rows() * c,
            "predict_proba_batch_into: buffer length"
        );
        for (row, out_row) in xs.row_iter().zip(out.chunks_exact_mut(c.max(1))) {
            self.predict_proba_into(row, out_row);
        }
    }

    /// Per-row loss and gradient of a contiguous batch, evaluated at the
    /// *current* parameters: `losses[i]` receives row `i`'s negative
    /// log-likelihood and `grads.row_mut(i)` its gradient
    /// (`grads` is `xs.rows() × num_params`, fully overwritten). Returns the
    /// loss sum over the batch.
    ///
    /// Contract: bit-identical to calling
    /// [`SimpleModel::loss_and_gradient_into`] on each single-row batch in
    /// order. The Dynamic Model Tree feeds both its node accumulators and its
    /// split-candidate accumulators from this gradient buffer, so one batched
    /// pass replaces one gradient evaluation per instance.
    fn loss_and_gradient_batch_into(
        &self,
        xs: linalg::MatRef<'_>,
        ys: &[usize],
        losses: &mut [f64],
        mut grads: linalg::MatMut<'_>,
        class_buf: &mut [f64],
    ) -> f64 {
        debug_assert_eq!(xs.rows(), ys.len());
        debug_assert_eq!(losses.len(), xs.rows());
        debug_assert_eq!(grads.rows(), xs.rows());
        let mut total = 0.0;
        for i in 0..xs.rows() {
            let loss =
                self.loss_and_gradient_into(&[xs.row(i)], &[ys[i]], grads.row_mut(i), class_buf);
            losses[i] = loss;
            total += loss;
        }
        total
    }

    /// Train on a whole contiguous batch with constant learning rate; `mode`
    /// selects the traversal (see [`BatchMode`]). Only the parameters
    /// change: no loss is computed, because the Dynamic Model Tree takes
    /// the pre-update loss of every row from its
    /// [`SimpleModel::loss_and_gradient_batch_into`] pass before it trains,
    /// so the GLM sweeps evaluate residuals (`σ(z) − y`, `p − onehot(y)`)
    /// and skip the log-likelihood.
    ///
    /// In [`BatchMode::Deterministic`] the parameters are bit-identical to
    /// calling [`SimpleModel::sgd_step_into`] on every row in order. The
    /// default implementation always performs that sweep (discarding each
    /// step's loss) — models without a batched kernel (Naive Bayes,
    /// perceptron) silently fall back to it; the GLM implementations
    /// override it with windowed summed-gradient steps over the contiguous
    /// rows, the deterministic sweep being a window of one.
    fn learn_batch_into(
        &mut self,
        xs: linalg::MatRef<'_>,
        ys: &[usize],
        learning_rate: f64,
        _mode: BatchMode,
        grad_buf: &mut [f64],
        class_buf: &mut [f64],
    ) {
        debug_assert_eq!(xs.rows(), ys.len());
        for (x, &y) in xs.row_iter().zip(ys.iter()) {
            self.sgd_step_into(&[x], &[y], learning_rate, grad_buf, class_buf);
        }
    }

    /// Total number of observations this model has been trained on.
    fn observations_seen(&self) -> u64;
}

/// Index of the maximum element; ties resolved towards the lower index.
///
/// Returns `0` for an empty slice, which is the conventional "no information"
/// prediction used throughout the workspace.
pub fn argmax(values: &[f64]) -> usize {
    let mut best = 0usize;
    let mut best_v = f64::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_picks_largest() {
        assert_eq!(argmax(&[0.1, 0.7, 0.2]), 1);
        assert_eq!(argmax(&[5.0, 1.0]), 0);
        assert_eq!(argmax(&[1.0, 2.0, 3.0, 4.0]), 3);
    }

    #[test]
    fn argmax_breaks_ties_toward_lower_index() {
        assert_eq!(argmax(&[0.5, 0.5]), 0);
        assert_eq!(argmax(&[0.2, 0.8, 0.8]), 1);
    }

    #[test]
    fn argmax_on_empty_slice_is_zero() {
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn argmax_handles_negative_values() {
        assert_eq!(argmax(&[-3.0, -1.0, -2.0]), 1);
    }
}
