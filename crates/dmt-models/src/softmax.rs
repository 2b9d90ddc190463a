//! Multinomial logistic regression (softmax model) trained by constant-rate
//! SGD.
//!
//! This is the simple model the paper proposes for categorical targets with
//! more than two classes (§V-A). The parameter vector is laid out class-major:
//! `[w_{0,1}, ..., w_{0,m}, b_0, w_{1,1}, ..., w_{1,m}, b_1, ...]`, so
//! `num_params = c * (m + 1)`.

use rand::Rng;
use rand::SeedableRng;

use crate::linalg::{axpy, clamp_proba, dot, gemv_bias_into, softmax_in_place, MatMut, MatRef};
use crate::wire::{self, Reader, WireError, Writer};
use crate::{BatchMode, Rows, SimpleModel};

/// Multinomial logistic-regression model with per-class intercepts.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftmaxModel {
    /// Flattened class-major parameters, `c * (m + 1)` entries.
    params: Vec<f64>,
    num_features: usize,
    num_classes: usize,
    seen: u64,
}

impl SoftmaxModel {
    /// Create a model with all parameters initialised to zero.
    pub fn new_zeros(num_features: usize, num_classes: usize) -> Self {
        assert!(num_classes >= 2, "softmax needs at least two classes");
        Self {
            params: vec![0.0; num_classes * (num_features + 1)],
            num_features,
            num_classes,
            seen: 0,
        }
    }

    /// Heap bytes held by the parameter vector (capacity-based; see
    /// [`crate::memory::MemoryUsage`]).
    pub(crate) fn params_heap_bytes(&self) -> usize {
        crate::memory::vec_bytes(&self.params)
    }

    /// Create a model with small random initial weights in `[-0.1, 0.1]`.
    pub fn new_random(num_features: usize, num_classes: usize, seed: u64) -> Self {
        assert!(num_classes >= 2, "softmax needs at least two classes");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let params = (0..num_classes * (num_features + 1))
            .map(|_| rng.gen_range(-0.1..0.1))
            .collect();
        Self {
            params,
            num_features,
            num_classes,
            seen: 0,
        }
    }

    /// Create a child model warm-started with the parameters of a parent.
    pub fn warm_start_from(parent: &Self) -> Self {
        Self {
            params: parent.params.clone(),
            num_features: parent.num_features,
            num_classes: parent.num_classes,
            seen: 0,
        }
    }

    /// Per-class linear scores (logits) for one instance.
    pub fn logits(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.num_classes];
        self.logits_into(x, &mut out);
        out
    }

    /// Per-class linear scores written into a caller-provided buffer.
    ///
    /// # Panics
    /// Panics when `out.len() != num_classes` — a short buffer would silently
    /// drop classes, so the length contract is enforced in release builds too.
    pub fn logits_into(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.num_features);
        assert_eq!(out.len(), self.num_classes, "logits_into: buffer length");
        let stride = self.num_features + 1;
        gemv_bias_into(MatRef::new(&self.params, self.num_classes, stride), x, out);
    }

    /// Serialise the full model state (shape, observation counter, raw
    /// parameter bits) through `w`; the inverse of [`SoftmaxModel::decode`].
    pub fn encode(&self, w: &mut Writer) {
        w.put_usize(self.num_features);
        w.put_usize(self.num_classes);
        w.put_u64(self.seen);
        w.put_f64_slice(&self.params);
    }

    /// Reconstruct a model from [`SoftmaxModel::encode`] output, validating
    /// the class count and the parameter count against the announced shape.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let num_features = r.get_usize()?;
        let num_classes = r.get_usize()?;
        let seen = r.get_u64()?;
        let params = r.get_f64_vec()?;
        if num_classes < 2 {
            return Err(wire::invalid(format!(
                "softmax model needs at least two classes, got {num_classes}"
            )));
        }
        let expected = num_classes
            .checked_mul(num_features + 1)
            .ok_or_else(|| wire::invalid("softmax parameter count overflows"))?;
        if params.len() != expected {
            return Err(wire::invalid(format!(
                "softmax model of shape {num_classes}×({num_features}+1) needs {expected} \
                 parameters, got {}",
                params.len()
            )));
        }
        Ok(Self {
            params,
            num_features,
            num_classes,
            seen,
        })
    }

    /// Per-row softmax probabilities (written into `class_buf`) and negative
    /// log-likelihood at the current parameters. Shared by the scalar and
    /// batched gradient paths so that both stay bit-identical.
    #[inline]
    fn row_loss_probs(&self, x: &[f64], y: usize, class_buf: &mut [f64]) -> f64 {
        self.predict_proba_into(x, class_buf);
        let p_true = class_buf.get(y).copied().unwrap_or(0.0);
        -clamp_proba(p_true).ln()
    }

    /// Weight vector of a particular class (excluding the intercept).
    pub fn class_weights(&self, class: usize) -> &[f64] {
        let stride = self.num_features + 1;
        &self.params[class * stride..class * stride + self.num_features]
    }

    /// Intercept of a particular class.
    pub fn class_bias(&self, class: usize) -> f64 {
        let stride = self.num_features + 1;
        self.params[class * stride + self.num_features]
    }
}

impl SimpleModel for SoftmaxModel {
    fn num_params(&self) -> usize {
        self.params.len()
    }

    fn num_classes(&self) -> usize {
        self.num_classes
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
        self.logits_into(x, out);
        softmax_in_place(out);
    }

    fn predict(&self, x: &[f64]) -> usize {
        // Softmax is monotone in the logits, so the argmax over the raw
        // scores avoids both the exponentiation and any allocation. (In the
        // measure-zero case where two distinct logits round to bitwise-equal
        // probabilities after exp, this picks the truly larger score while
        // argmax-over-probabilities would pick the lower index.)
        debug_assert_eq!(x.len(), self.num_features);
        let stride = self.num_features + 1;
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for c in 0..self.num_classes {
            let block = &self.params[c * stride..(c + 1) * stride];
            let score = dot(&block[..self.num_features], x) + block[self.num_features];
            if score > best_score {
                best_score = score;
                best = c;
            }
        }
        best
    }

    fn loss_and_gradient_into(
        &self,
        xs: Rows<'_>,
        ys: &[usize],
        grad: &mut [f64],
        class_buf: &mut [f64],
    ) -> f64 {
        debug_assert_eq!(xs.len(), ys.len());
        debug_assert_eq!(grad.len(), self.params.len());
        let m = self.num_features;
        let stride = m + 1;
        let mut loss = 0.0;
        grad.fill(0.0);
        for (x, &y) in xs.iter().zip(ys.iter()) {
            loss += self.row_loss_probs(x, y, class_buf);
            for c in 0..self.num_classes {
                let target = if c == y { 1.0 } else { 0.0 };
                let residual = class_buf[c] - target;
                let block = &mut grad[c * stride..(c + 1) * stride];
                axpy(residual, x, &mut block[..m]);
                block[m] += residual;
            }
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
        let step = learning_rate / n as f64;
        for (p, g) in self.params.iter_mut().zip(grad_buf.iter()) {
            *p -= step * g;
        }
        self.seen += n as u64;
        loss
    }

    fn predict_proba_batch_into(&self, xs: MatRef<'_>, out: &mut [f64]) {
        let c = self.num_classes;
        debug_assert_eq!(out.len(), xs.rows() * c, "batch buffer length");
        let stride = self.num_features + 1;
        let w = MatRef::new(&self.params, c, stride);
        for (x, out_row) in xs.row_iter().zip(out.chunks_exact_mut(c)) {
            gemv_bias_into(w, x, out_row);
            softmax_in_place(out_row);
        }
    }

    fn loss_and_gradient_batch_into(
        &self,
        xs: MatRef<'_>,
        ys: &[usize],
        losses: &mut [f64],
        mut grads: MatMut<'_>,
        class_buf: &mut [f64],
    ) -> f64 {
        debug_assert_eq!(xs.rows(), ys.len());
        debug_assert_eq!(losses.len(), xs.rows());
        debug_assert_eq!(grads.rows(), xs.rows());
        debug_assert_eq!(grads.cols(), self.params.len());
        let m = self.num_features;
        let stride = m + 1;
        let mut total = 0.0;
        for i in 0..xs.rows() {
            let x = xs.row(i);
            let y = ys[i];
            let row_loss = self.row_loss_probs(x, y, class_buf);
            losses[i] = row_loss;
            total += row_loss;
            let g = grads.row_mut(i);
            for c in 0..self.num_classes {
                let target = if c == y { 1.0 } else { 0.0 };
                let residual = class_buf[c] - target;
                let block = &mut g[c * stride..(c + 1) * stride];
                for (gj, &xj) in block[..m].iter_mut().zip(x.iter()) {
                    *gj = residual * xj;
                }
                block[m] = residual;
            }
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
        class_buf: &mut [f64],
    ) {
        debug_assert_eq!(xs.rows(), ys.len());
        let b = xs.rows();
        let window = mode.window();
        let m = self.num_features;
        let stride = m + 1;
        let mut start = 0;
        while start < b {
            let end = (start + window).min(b);
            grad_buf.fill(0.0);
            for (x, &y) in (start..end).map(|i| xs.row(i)).zip(ys[start..end].iter()) {
                // Residuals only: the probabilities, without the NLL's log.
                self.predict_proba_into(x, class_buf);
                for c in 0..self.num_classes {
                    let target = if c == y { 1.0 } else { 0.0 };
                    let residual = class_buf[c] - target;
                    let block = &mut grad_buf[c * stride..(c + 1) * stride];
                    axpy(residual, x, &mut block[..m]);
                    block[m] += residual;
                }
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
    use crate::argmax;

    /// A 3-class problem with Gaussian-free deterministic structure:
    /// class = index of the largest of three feature values.
    fn three_class_batch(n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let a = ((i * 13) % 31) as f64 / 31.0;
            let b = ((i * 7) % 29) as f64 / 29.0;
            let c = ((i * 11) % 23) as f64 / 23.0;
            let x = vec![a, b, c];
            ys.push(argmax(&x));
            xs.push(x);
        }
        (xs, ys)
    }

    fn as_rows(xs: &[Vec<f64>]) -> Vec<&[f64]> {
        xs.iter().map(|v| v.as_slice()).collect()
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn rejects_single_class() {
        let _ = SoftmaxModel::new_zeros(3, 1);
    }

    #[test]
    fn zero_model_predicts_uniform() {
        let model = SoftmaxModel::new_zeros(4, 3);
        let p = model.predict_proba(&[0.1, 0.2, 0.3, 0.4]);
        for &pi in &p {
            assert!((pi - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn param_count_is_c_times_m_plus_one() {
        let model = SoftmaxModel::new_zeros(10, 4);
        assert_eq!(model.num_params(), 4 * 11);
        assert_eq!(model.num_classes(), 4);
        assert_eq!(model.num_features(), 10);
    }

    #[test]
    fn warm_start_copies_parent() {
        let parent = SoftmaxModel::new_random(3, 3, 11);
        let child = SoftmaxModel::warm_start_from(&parent);
        assert_eq!(child.params(), parent.params());
        assert_eq!(child.observations_seen(), 0);
    }

    #[test]
    fn sgd_reduces_loss_on_three_class_problem() {
        let (xs, ys) = three_class_batch(300);
        let rows = as_rows(&xs);
        let mut model = SoftmaxModel::new_zeros(3, 3);
        let (initial, _) = model.loss_and_gradient(&rows, &ys);
        for _ in 0..400 {
            model.sgd_step(&rows, &ys, 0.5);
        }
        let (fin, _) = model.loss_and_gradient(&rows, &ys);
        assert!(fin < initial * 0.7, "loss {initial} -> {fin}");
    }

    #[test]
    fn trained_model_beats_chance_substantially() {
        let (xs, ys) = three_class_batch(400);
        let rows = as_rows(&xs);
        let mut model = SoftmaxModel::new_zeros(3, 3);
        for _ in 0..600 {
            model.sgd_step(&rows, &ys, 0.5);
        }
        let correct = rows
            .iter()
            .zip(ys.iter())
            .filter(|(x, &y)| model.predict(x) == y)
            .count();
        let accuracy = correct as f64 / rows.len() as f64;
        assert!(accuracy > 0.7, "accuracy {accuracy}");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (xs, ys) = three_class_batch(15);
        let rows = as_rows(&xs);
        let mut model = SoftmaxModel::new_random(3, 3, 21);
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
    fn proba_sums_to_one_after_training() {
        let (xs, ys) = three_class_batch(100);
        let rows = as_rows(&xs);
        let mut model = SoftmaxModel::new_random(3, 3, 2);
        for _ in 0..50 {
            model.sgd_step(&rows, &ys, 0.1);
        }
        let p = model.predict_proba(&[0.9, 0.1, 0.2]);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut model = SoftmaxModel::new_random(3, 4, 9);
        let before = model.params().to_vec();
        assert_eq!(model.sgd_step(&[], &[], 0.1), 0.0);
        assert_eq!(model.params(), before.as_slice());
    }

    #[test]
    fn class_weight_views_have_correct_length() {
        let model = SoftmaxModel::new_random(5, 3, 1);
        for c in 0..3 {
            assert_eq!(model.class_weights(c).len(), 5);
            let _ = model.class_bias(c);
        }
    }

    #[test]
    fn out_of_range_label_is_finite_loss() {
        let model = SoftmaxModel::new_zeros(2, 2);
        let x: &[f64] = &[0.5, 0.5];
        let (loss, _) = model.loss_and_gradient(&[x], &[5]);
        assert!(loss.is_finite());
    }
}
