//! Binary logistic regression (logit model) trained by constant-rate SGD.
//!
//! This is the simple model the paper proposes for binary targets (§V-A).
//! The parameter vector is laid out as `[w_1, ..., w_m, b]` (weights followed
//! by the intercept), so `num_params = m + 1`.

use rand::Rng;
use rand::SeedableRng;

use crate::linalg::{axpy, dot, log1p_exp_sigmoid, sigmoid, MatMut, MatRef};
use crate::wire::{self, Reader, WireError, Writer};
use crate::{BatchMode, Rows, SimpleModel};

/// Binary logistic-regression model with an intercept term.
#[derive(Debug, Clone, PartialEq)]
pub struct LogitModel {
    /// Flattened parameters: `m` weights followed by a single bias term.
    params: Vec<f64>,
    /// Number of input features.
    num_features: usize,
    /// Number of observations used for training so far.
    seen: u64,
}

impl LogitModel {
    /// Create a model with all parameters initialised to zero.
    pub fn new_zeros(num_features: usize) -> Self {
        Self {
            params: vec![0.0; num_features + 1],
            num_features,
            seen: 0,
        }
    }

    /// Heap bytes held by the parameter vector (capacity-based; see
    /// [`crate::memory::MemoryUsage`]).
    pub(crate) fn params_heap_bytes(&self) -> usize {
        crate::memory::vec_bytes(&self.params)
    }

    /// Create a model with small random initial weights drawn uniformly from
    /// `[-0.1, 0.1]`, matching the paper's "random initial weights" remark for
    /// the root node (§IV-E).
    pub fn new_random(num_features: usize, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let params = (0..num_features + 1)
            .map(|_| rng.gen_range(-0.1..0.1))
            .collect();
        Self {
            params,
            num_features,
            seen: 0,
        }
    }

    /// Create a zero-feature, zero-parameter placeholder model.
    ///
    /// Performs **no** heap allocation (the parameter vector is empty) — used
    /// by `dmt-core`'s arena to backfill node payloads that compaction moved
    /// out, and the free-listed slots of a decoded snapshot. A placeholder
    /// must never be asked to predict or learn.
    pub fn placeholder() -> Self {
        Self {
            params: Vec::new(),
            num_features: 0,
            seen: 0,
        }
    }

    /// Create a child model warm-started with the parameters of a parent model
    /// (all non-root nodes of a Dynamic Model Tree are initialised this way).
    pub fn warm_start_from(parent: &Self) -> Self {
        Self {
            params: parent.params.clone(),
            num_features: parent.num_features,
            seen: 0,
        }
    }

    /// Raw linear score `w·x + b` for one instance.
    #[inline]
    pub fn decision_function(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.num_features);
        dot(&self.params[..self.num_features], x) + self.params[self.num_features]
    }

    /// Probability of the positive class (class index 1).
    #[inline]
    pub fn proba_positive(&self, x: &[f64]) -> f64 {
        sigmoid(self.decision_function(x))
    }

    /// Weight vector (excluding the bias), useful for feature-based
    /// explanations of a leaf subgroup.
    pub fn weights(&self) -> &[f64] {
        &self.params[..self.num_features]
    }

    /// Intercept term.
    pub fn bias(&self) -> f64 {
        self.params[self.num_features]
    }

    /// Serialise the full model state (shape, observation counter, raw
    /// parameter bits) through `w`; the inverse of [`LogitModel::decode`].
    pub fn encode(&self, w: &mut Writer) {
        w.put_usize(self.num_features);
        w.put_u64(self.seen);
        w.put_f64_slice(&self.params);
    }

    /// Reconstruct a model from [`LogitModel::encode`] output, validating the
    /// parameter count against the announced feature count so a hostile
    /// buffer cannot build a model whose views go out of bounds.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let num_features = r.get_usize()?;
        let seen = r.get_u64()?;
        let params = r.get_f64_vec()?;
        if params.len() != num_features + 1 {
            return Err(wire::invalid(format!(
                "logit model with {num_features} features needs {} parameters, got {}",
                num_features + 1,
                params.len()
            )));
        }
        Ok(Self {
            params,
            num_features,
            seen,
        })
    }

    /// Per-row negative log-likelihood and residual `σ(z) − y` at the current
    /// parameters. Shared by the scalar and batched paths so that both stay
    /// bit-identical.
    #[inline]
    fn row_loss_residual(&self, x: &[f64], y: usize) -> (f64, f64) {
        let z = self.decision_function(x);
        let y_f = if y >= 1 { 1.0 } else { 0.0 };
        // NLL of the Bernoulli likelihood: log(1 + e^z) - y*z.
        let (softplus, p) = log1p_exp_sigmoid(z);
        (softplus - y_f * z, p - y_f)
    }

    /// The residual half of [`LogitModel::row_loss_residual`] alone, for the
    /// SGD sweep, which reads no loss.
    #[inline]
    fn row_residual(&self, x: &[f64], y: usize) -> f64 {
        let y_f = if y >= 1 { 1.0 } else { 0.0 };
        sigmoid(self.decision_function(x)) - y_f
    }
}

impl SimpleModel for LogitModel {
    fn num_params(&self) -> usize {
        self.params.len()
    }

    fn num_classes(&self) -> usize {
        2
    }

    fn num_features(&self) -> usize {
        self.num_features
    }

    fn params(&self) -> &[f64] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [f64] {
        &mut self.params
    }

    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), 2, "predict_proba_into: buffer length");
        let p = self.proba_positive(x);
        out[0] = 1.0 - p;
        out[1] = p;
    }

    fn predict(&self, x: &[f64]) -> usize {
        // argmax([1-p, p]) == 1 exactly when p > 0.5 (ties resolve toward
        // class 0); computing it through the same rounded sigmoid keeps this
        // bit-compatible with `predict_proba` while never allocating.
        usize::from(self.proba_positive(x) > 0.5)
    }

    fn loss_and_gradient_into(
        &self,
        xs: Rows<'_>,
        ys: &[usize],
        grad: &mut [f64],
        _class_buf: &mut [f64],
    ) -> f64 {
        debug_assert_eq!(xs.len(), ys.len());
        debug_assert_eq!(grad.len(), self.params.len());
        let m = self.num_features;
        let mut loss = 0.0;
        grad.fill(0.0);
        for (x, &y) in xs.iter().zip(ys.iter()) {
            let (row_loss, residual) = self.row_loss_residual(x, y);
            loss += row_loss;
            axpy(residual, x, &mut grad[..m]);
            grad[m] += residual;
        }
        loss
    }

    fn sgd_step_into(
        &mut self,
        xs: Rows<'_>,
        ys: &[usize],
        learning_rate: f64,
        grad_buf: &mut [f64],
        class_buf: &mut [f64],
    ) -> f64 {
        let n = xs.len();
        if n == 0 {
            return 0.0;
        }
        let loss = self.loss_and_gradient_into(xs, ys, grad_buf, class_buf);
        // Mean-gradient step: a constant learning rate over the batch mean
        // keeps the step size independent of the batch size (eq. 6 uses λ/|C|).
        let step = learning_rate / n as f64;
        for (p, g) in self.params.iter_mut().zip(grad_buf.iter()) {
            *p -= step * g;
        }
        self.seen += n as u64;
        loss
    }

    fn predict_proba_batch_into(&self, xs: MatRef<'_>, out: &mut [f64]) {
        debug_assert_eq!(out.len(), xs.rows() * 2, "batch buffer length");
        for (x, out_row) in xs.row_iter().zip(out.chunks_exact_mut(2)) {
            let p = self.proba_positive(x);
            out_row[0] = 1.0 - p;
            out_row[1] = p;
        }
    }

    fn loss_and_gradient_batch_into(
        &self,
        xs: MatRef<'_>,
        ys: &[usize],
        losses: &mut [f64],
        mut grads: MatMut<'_>,
        _class_buf: &mut [f64],
    ) -> f64 {
        debug_assert_eq!(xs.rows(), ys.len());
        debug_assert_eq!(losses.len(), xs.rows());
        debug_assert_eq!(grads.rows(), xs.rows());
        debug_assert_eq!(grads.cols(), self.params.len());
        let m = self.num_features;
        let mut total = 0.0;
        for i in 0..xs.rows() {
            let x = xs.row(i);
            let (row_loss, residual) = self.row_loss_residual(x, ys[i]);
            losses[i] = row_loss;
            total += row_loss;
            let g = grads.row_mut(i);
            for (gj, &xj) in g[..m].iter_mut().zip(x.iter()) {
                *gj = residual * xj;
            }
            g[m] = residual;
        }
        total
    }

    fn learn_batch_into(
        &mut self,
        xs: MatRef<'_>,
        ys: &[usize],
        learning_rate: f64,
        mode: BatchMode,
        grad_buf: &mut [f64],
        _class_buf: &mut [f64],
    ) {
        debug_assert_eq!(xs.rows(), ys.len());
        let b = xs.rows();
        let window = mode.window();
        let m = self.num_features;
        let mut start = 0;
        while start < b {
            let end = (start + window).min(b);
            grad_buf.fill(0.0);
            for (x, &y) in (start..end).map(|i| xs.row(i)).zip(ys[start..end].iter()) {
                let residual = self.row_residual(x, y);
                axpy(residual, x, &mut grad_buf[..m]);
                grad_buf[m] += residual;
            }
            // One summed-gradient step per window: the first-order
            // equivalent of `end - start` per-instance steps.
            axpy(-learning_rate, grad_buf, &mut self.params);
            start = end;
        }
        self.seen += b as u64;
    }

    fn observations_seen(&self) -> u64 {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a linearly separable 2-feature batch: class 1 iff x0 + x1 > 1.
    fn separable_batch(n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let a = (i % 17) as f64 / 17.0;
            let b = ((i * 7) % 13) as f64 / 13.0;
            xs.push(vec![a, b]);
            ys.push(usize::from(a + b > 1.0));
        }
        (xs, ys)
    }

    fn as_rows(xs: &[Vec<f64>]) -> Vec<&[f64]> {
        xs.iter().map(|v| v.as_slice()).collect()
    }

    #[test]
    fn zero_model_predicts_half() {
        let model = LogitModel::new_zeros(3);
        let p = model.predict_proba(&[0.2, 0.4, 0.6]);
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn random_init_is_deterministic_per_seed() {
        let a = LogitModel::new_random(5, 42);
        let b = LogitModel::new_random(5, 42);
        let c = LogitModel::new_random(5, 43);
        assert_eq!(a.params(), b.params());
        assert_ne!(a.params(), c.params());
    }

    #[test]
    fn warm_start_copies_parent_parameters() {
        let mut parent = LogitModel::new_random(4, 1);
        parent.params_mut()[0] = 3.5;
        let child = LogitModel::warm_start_from(&parent);
        assert_eq!(child.params(), parent.params());
        assert_eq!(child.observations_seen(), 0);
    }

    #[test]
    fn sgd_reduces_loss_on_separable_data() {
        let (xs, ys) = separable_batch(200);
        let rows = as_rows(&xs);
        let mut model = LogitModel::new_zeros(2);
        let (initial_loss, _) = model.loss_and_gradient(&rows, &ys);
        for _ in 0..300 {
            model.sgd_step(&rows, &ys, 0.5);
        }
        let (final_loss, _) = model.loss_and_gradient(&rows, &ys);
        assert!(
            final_loss < initial_loss * 0.5,
            "loss did not decrease: {initial_loss} -> {final_loss}"
        );
    }

    #[test]
    fn trained_model_classifies_separable_data_well() {
        let (xs, ys) = separable_batch(300);
        let rows = as_rows(&xs);
        let mut model = LogitModel::new_zeros(2);
        for _ in 0..500 {
            model.sgd_step(&rows, &ys, 0.5);
        }
        let correct = rows
            .iter()
            .zip(ys.iter())
            .filter(|(x, &y)| model.predict(x) == y)
            .count();
        assert!(
            correct as f64 / rows.len() as f64 > 0.9,
            "accuracy too low: {correct}/{}",
            rows.len()
        );
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (xs, ys) = separable_batch(20);
        let rows = as_rows(&xs);
        let mut model = LogitModel::new_random(2, 7);
        let (_, grad) = model.loss_and_gradient(&rows, &ys);
        let h = 1e-6;
        #[allow(clippy::needless_range_loop)] // `i` indexes params and grad in lockstep
        for i in 0..model.num_params() {
            let orig = model.params()[i];
            model.params_mut()[i] = orig + h;
            let (lp, _) = model.loss_and_gradient(&rows, &ys);
            model.params_mut()[i] = orig - h;
            let (lm, _) = model.loss_and_gradient(&rows, &ys);
            model.params_mut()[i] = orig;
            let numeric = (lp - lm) / (2.0 * h);
            assert!(
                (numeric - grad[i]).abs() < 1e-4,
                "param {i}: numeric {numeric} vs analytic {}",
                grad[i]
            );
        }
    }

    #[test]
    fn loss_is_sum_not_mean() {
        let (xs, ys) = separable_batch(10);
        let rows = as_rows(&xs);
        let model = LogitModel::new_random(2, 3);
        let (full, _) = model.loss_and_gradient(&rows, &ys);
        let mut acc = 0.0;
        for (x, &y) in rows.iter().zip(ys.iter()) {
            let (one, _) = model.loss_and_gradient(&[x], &[y]);
            acc += one;
        }
        assert!((full - acc).abs() < 1e-9);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut model = LogitModel::new_random(2, 5);
        let before = model.params().to_vec();
        let loss = model.sgd_step(&[], &[], 0.1);
        assert_eq!(loss, 0.0);
        assert_eq!(model.params(), before.as_slice());
        assert_eq!(model.observations_seen(), 0);
    }

    #[test]
    fn observations_seen_accumulates() {
        let (xs, ys) = separable_batch(30);
        let rows = as_rows(&xs);
        let mut model = LogitModel::new_zeros(2);
        model.sgd_step(&rows[..10], &ys[..10], 0.05);
        model.sgd_step(&rows[10..30], &ys[10..30], 0.05);
        assert_eq!(model.observations_seen(), 30);
    }

    #[test]
    fn weights_and_bias_views() {
        let mut model = LogitModel::new_zeros(2);
        model.params_mut()[0] = 1.0;
        model.params_mut()[1] = 2.0;
        model.params_mut()[2] = -0.5;
        assert_eq!(model.weights(), &[1.0, 2.0]);
        assert_eq!(model.bias(), -0.5);
        assert!((model.decision_function(&[1.0, 1.0]) - 2.5).abs() < 1e-12);
    }
}
