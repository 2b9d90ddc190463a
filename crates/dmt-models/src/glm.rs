//! [`Glm`] — the Generalized Linear Model at every node of the Dynamic Model
//! Tree, trained by constant-rate SGD.
//!
//! §V-A of the paper proposes a binary logit model for two-class problems and
//! a multinomial logit (softmax) model otherwise. [`Glm`] is that one model
//! family: each kernel branches once per call on `num_classes == 2`, so tree
//! code needs neither trait objects nor a second model type.
//!
//! The parameter vector of the binary logit is `[w_1, ..., w_m, b]` (weights
//! followed by the intercept), so `num_params = m + 1`. The multinomial logit
//! stores one such block per class, class-major:
//! `[w_{0,1}, ..., w_{0,m}, b_0, w_{1,1}, ..., w_{1,m}, b_1, ...]`, so
//! `num_params = c · (m + 1)`.

use rand::Rng;
use rand::SeedableRng;

use crate::linalg::{
    axpy, clamp_proba, dot, gemv_bias_into, log1p_exp_sigmoid, sigmoid, softmax_in_place, MatMut,
    MatRef,
};
use crate::memory::{vec_bytes, MemoryUsage};
use crate::wire::{self, Reader, WireError, Writer};
use crate::{BatchMode, Rows, SimpleModel};

/// A Generalized Linear Model: a binary logit for two classes, a multinomial
/// logit otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct Glm {
    /// Flattened parameters in the layout of the [module docs](self).
    params: Vec<f64>,
    /// Number of input features `m`.
    num_features: usize,
    /// Number of classes `c`; two selects the binary logit kernels.
    num_classes: usize,
    /// Number of observations used for training so far.
    seen: u64,
}

impl Glm {
    /// Create a GLM with zero-initialised parameters.
    pub fn new_zeros(num_features: usize, num_classes: usize) -> Self {
        assert!(num_classes >= 2, "a classifier needs at least two classes");
        let params = vec![0.0; param_count(num_features, num_classes)];
        Self::from_params(params, num_features, num_classes)
    }

    /// Create a GLM with small random initial weights drawn uniformly from
    /// `[-0.1, 0.1]`, matching the paper's "random initial weights" remark
    /// for the root node of a Dynamic Model Tree (§IV-E).
    pub fn new_random(num_features: usize, num_classes: usize, seed: u64) -> Self {
        assert!(num_classes >= 2, "a classifier needs at least two classes");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let params = (0..param_count(num_features, num_classes))
            .map(|_| rng.gen_range(-0.1..0.1))
            .collect();
        Self::from_params(params, num_features, num_classes)
    }

    /// Create a zero-feature, zero-parameter placeholder GLM without touching
    /// the allocator. Placeholders back-fill tree-node payloads that were
    /// moved out, freed or never restored (arena compaction, free-listed
    /// slots) and must never be asked to predict or learn.
    pub fn placeholder() -> Self {
        Self::from_params(Vec::new(), 0, 2)
    }

    fn from_params(params: Vec<f64>, num_features: usize, num_classes: usize) -> Self {
        Self {
            params,
            num_features,
            num_classes,
            seen: 0,
        }
    }

    /// Create a child GLM warm-started with the parameters of a parent GLM
    /// (all non-root nodes of a Dynamic Model Tree are initialised this way).
    pub fn warm_start_from(parent: &Self) -> Self {
        Self {
            seen: 0,
            ..parent.clone()
        }
    }

    /// Apply a single warm-start gradient step of eq. (6):
    /// `Θ_C ≈ Θ_S − (λ/|C|) ∇_{Θ_S} L(Θ_S, Y_C, X_C)` given a pre-computed
    /// gradient *sum* over the candidate subset and its count.
    pub fn warm_start_with_gradient(parent: &Self, grad_sum: &[f64], count: u64, lr: f64) -> Self {
        let mut child = Self::warm_start_from(parent);
        if count > 0 {
            let step = lr / count as f64;
            for (p, g) in child.params.iter_mut().zip(grad_sum.iter()) {
                *p -= step * g;
            }
        }
        child
    }

    /// Feature weights (without the intercept) behind the score of `class`,
    /// for feature-based explanations of a leaf subgroup. A binary logit has
    /// a single weight vector, where positive weights push towards class 1,
    /// and returns it for either class.
    pub fn class_weights(&self, class: usize) -> &[f64] {
        let start = self.block_start(class);
        &self.params[start..start + self.num_features]
    }

    /// Intercept behind the score of `class` (the single intercept of a
    /// binary logit).
    pub fn class_bias(&self, class: usize) -> f64 {
        self.params[self.block_start(class) + self.num_features]
    }

    fn block_start(&self, class: usize) -> usize {
        if self.is_binary() {
            0
        } else {
            class * (self.num_features + 1)
        }
    }

    #[inline]
    fn is_binary(&self) -> bool {
        self.num_classes == 2
    }

    /// Serialise the GLM through `w`: a variant tag (`0` binary logit, `1`
    /// multinomial logit), the feature count, the class count (multinomial
    /// only), the observation counter and the raw parameter bits. The
    /// inverse of [`Glm::decode`].
    pub fn encode(&self, w: &mut Writer) {
        if self.is_binary() {
            w.put_u8(0);
            w.put_usize(self.num_features);
        } else {
            w.put_u8(1);
            w.put_usize(self.num_features);
            w.put_usize(self.num_classes);
        }
        w.put_u64(self.seen);
        w.put_f64_slice(&self.params);
    }

    /// Reconstruct a GLM from [`Glm::encode`] output. Unknown tags, a
    /// multinomial record with fewer than three classes (two classes are
    /// always a binary record) and a parameter count that does not match
    /// the announced shape are typed errors, so a hostile buffer cannot
    /// build a model whose views go out of bounds.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.get_u8()?;
        if tag > 1 {
            return Err(wire::invalid(format!("unknown GLM variant tag {tag}")));
        }
        let num_features = r.get_usize()?;
        let num_classes = if tag == 0 { 2 } else { r.get_usize()? };
        let seen = r.get_u64()?;
        let params = r.get_f64_vec()?;
        if tag == 1 && num_classes < 3 {
            return Err(wire::invalid(format!(
                "multinomial GLM record needs at least three classes, got {num_classes}"
            )));
        }
        let blocks = if tag == 0 { 1 } else { num_classes };
        let expected = num_features
            .checked_add(1)
            .and_then(|stride| stride.checked_mul(blocks))
            .ok_or_else(|| wire::invalid("GLM parameter count overflows"))?;
        if params.len() != expected {
            return Err(wire::invalid(format!(
                "GLM with {num_features} features and {num_classes} classes needs {expected} \
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

    /// Raw linear score `w·x + b` of a binary logit for one instance.
    #[inline]
    fn decision_function(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.num_features);
        dot(&self.params[..self.num_features], x) + self.params[self.num_features]
    }

    /// Probability of the positive class (class index 1) of a binary logit.
    #[inline]
    fn proba_positive(&self, x: &[f64]) -> f64 {
        sigmoid(self.decision_function(x))
    }

    /// Binary logit: per-row negative log-likelihood and residual
    /// `σ(z) − y` at the current parameters. Shared by the scalar and
    /// batched paths so that both stay bit-identical.
    #[inline]
    fn row_loss_residual(&self, x: &[f64], y: usize) -> (f64, f64) {
        let z = self.decision_function(x);
        let y_f = if y >= 1 { 1.0 } else { 0.0 };
        // NLL of the Bernoulli likelihood: log(1 + e^z) - y*z.
        let (softplus, p) = log1p_exp_sigmoid(z);
        (softplus - y_f * z, p - y_f)
    }

    /// The residual half of [`Glm::row_loss_residual`] alone, for the SGD
    /// sweep, which reads no loss.
    #[inline]
    fn row_residual(&self, x: &[f64], y: usize) -> f64 {
        let y_f = if y >= 1 { 1.0 } else { 0.0 };
        sigmoid(self.decision_function(x)) - y_f
    }

    /// Multinomial logit: per-class linear scores written into `out`.
    ///
    /// # Panics
    /// Panics when `out.len() != num_classes` — a short buffer would silently
    /// drop classes, so the length contract is enforced in release builds too.
    fn logits_into(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.num_features);
        assert_eq!(out.len(), self.num_classes, "logits_into: buffer length");
        let stride = self.num_features + 1;
        gemv_bias_into(MatRef::new(&self.params, self.num_classes, stride), x, out);
    }

    /// Multinomial logit: class probabilities written into `out`.
    fn softmax_proba_into(&self, x: &[f64], out: &mut [f64]) {
        self.logits_into(x, out);
        softmax_in_place(out);
    }

    /// Multinomial logit: the class with the largest linear score.
    ///
    /// Softmax is monotone in the logits, so the argmax over the raw scores
    /// avoids both the exponentiation and any allocation. (In the
    /// measure-zero case where two distinct logits round to bitwise-equal
    /// probabilities after exp, this picks the truly larger score while
    /// argmax-over-probabilities would pick the lower index.)
    fn argmax_logits(&self, x: &[f64]) -> usize {
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

    /// Multinomial logit: per-row probabilities (written into `class_buf`)
    /// and negative log-likelihood at the current parameters, with the true
    /// class's probability clamped so the loss stays finite. Shared by the
    /// scalar and batched gradient paths so that both stay bit-identical.
    #[inline]
    fn row_loss_probs(&self, x: &[f64], y: usize, class_buf: &mut [f64]) -> f64 {
        self.softmax_proba_into(x, class_buf);
        let p_true = class_buf.get(y).copied().unwrap_or(0.0);
        -clamp_proba(p_true).ln()
    }

    /// Multinomial logit: add row `x`'s residuals `p_c − [c = y]` (the
    /// probabilities are read from `probs`) into the class blocks of `grad`.
    #[inline]
    fn add_softmax_residuals(&self, x: &[f64], y: usize, probs: &[f64], grad: &mut [f64]) {
        let m = self.num_features;
        let stride = m + 1;
        for c in 0..self.num_classes {
            let target = if c == y { 1.0 } else { 0.0 };
            let residual = probs[c] - target;
            let block = &mut grad[c * stride..(c + 1) * stride];
            axpy(residual, x, &mut block[..m]);
            block[m] += residual;
        }
    }
}

/// Parameter count of a GLM over `m` features and `c` classes.
fn param_count(m: usize, c: usize) -> usize {
    if c == 2 {
        m + 1
    } else {
        c * (m + 1)
    }
}

impl MemoryUsage for Glm {
    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.params)
    }
}

impl SimpleModel for Glm {
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

    // The per-row kernels keep the binary path small enough to inline into
    // the tree's descent loop; the multinomial path is a call.
    #[inline]
    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        if self.is_binary() {
            assert_eq!(out.len(), 2, "predict_proba_into: buffer length");
            let p = self.proba_positive(x);
            out[0] = 1.0 - p;
            out[1] = p;
        } else {
            self.softmax_proba_into(x, out);
        }
    }

    #[inline]
    fn predict(&self, x: &[f64]) -> usize {
        if self.is_binary() {
            // argmax([1-p, p]) == 1 exactly when p > 0.5 (ties resolve toward
            // class 0); computing it through the same rounded sigmoid keeps
            // this bit-compatible with `predict_proba` while never allocating.
            usize::from(self.proba_positive(x) > 0.5)
        } else {
            self.argmax_logits(x)
        }
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
        let mut loss = 0.0;
        grad.fill(0.0);
        if self.is_binary() {
            for (x, &y) in xs.iter().zip(ys.iter()) {
                let (row_loss, residual) = self.row_loss_residual(x, y);
                loss += row_loss;
                axpy(residual, x, &mut grad[..m]);
                grad[m] += residual;
            }
        } else {
            for (x, &y) in xs.iter().zip(ys.iter()) {
                loss += self.row_loss_probs(x, y, class_buf);
                self.add_softmax_residuals(x, y, class_buf, grad);
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
        let c = self.num_classes;
        debug_assert_eq!(out.len(), xs.rows() * c, "batch buffer length");
        if self.is_binary() {
            for (x, out_row) in xs.row_iter().zip(out.chunks_exact_mut(2)) {
                let p = self.proba_positive(x);
                out_row[0] = 1.0 - p;
                out_row[1] = p;
            }
        } else {
            let stride = self.num_features + 1;
            let w = MatRef::new(&self.params, c, stride);
            for (x, out_row) in xs.row_iter().zip(out.chunks_exact_mut(c)) {
                gemv_bias_into(w, x, out_row);
                softmax_in_place(out_row);
            }
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
        let mut total = 0.0;
        if self.is_binary() {
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
        } else {
            let stride = m + 1;
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
        let mut start = 0;
        // One summed-gradient step per window: the first-order equivalent of
        // `end - start` per-instance steps.
        if self.is_binary() {
            while start < b {
                let end = (start + window).min(b);
                grad_buf.fill(0.0);
                for (x, &y) in (start..end).map(|i| xs.row(i)).zip(ys[start..end].iter()) {
                    let residual = self.row_residual(x, y);
                    axpy(residual, x, &mut grad_buf[..m]);
                    grad_buf[m] += residual;
                }
                axpy(-learning_rate, grad_buf, &mut self.params);
                start = end;
            }
        } else {
            while start < b {
                let end = (start + window).min(b);
                grad_buf.fill(0.0);
                for (x, &y) in (start..end).map(|i| xs.row(i)).zip(ys[start..end].iter()) {
                    // Residuals only: the probabilities, without the NLL's log.
                    self.softmax_proba_into(x, class_buf);
                    self.add_softmax_residuals(x, y, class_buf, grad_buf);
                }
                axpy(-learning_rate, grad_buf, &mut self.params);
                start = end;
            }
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

    #[test]
    fn two_classes_selects_logit() {
        let glm = Glm::new_zeros(4, 2);
        assert_eq!(glm.num_classes(), 2);
        assert_eq!(glm.num_params(), 5);
    }

    #[test]
    fn many_classes_selects_softmax() {
        let glm = Glm::new_zeros(4, 6);
        assert_eq!(glm.num_classes(), 6);
        assert_eq!(glm.num_params(), 6 * 5);
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn single_class_panics() {
        let _ = Glm::new_zeros(4, 1);
    }

    #[test]
    fn warm_start_preserves_variant_and_params() {
        let parent = Glm::new_random(3, 5, 77);
        let child = Glm::warm_start_from(&parent);
        assert_eq!(child.num_classes(), 5);
        assert_eq!(child.params(), parent.params());
    }

    #[test]
    fn warm_start_with_gradient_moves_against_gradient() {
        let parent = Glm::new_zeros(2, 2);
        let grad_sum = vec![1.0, -2.0, 0.5];
        let child = Glm::warm_start_with_gradient(&parent, &grad_sum, 10, 0.05);
        // step = 0.05 / 10 = 0.005; params = 0 - 0.005 * grad.
        assert!((child.params()[0] + 0.005).abs() < 1e-12);
        assert!((child.params()[1] - 0.01).abs() < 1e-12);
        assert!((child.params()[2] + 0.0025).abs() < 1e-12);
    }

    #[test]
    fn warm_start_with_zero_count_is_plain_copy() {
        let parent = Glm::new_random(2, 2, 5);
        let child = Glm::warm_start_with_gradient(&parent, &[1.0, 1.0, 1.0], 0, 0.05);
        assert_eq!(child.params(), parent.params());
    }

    #[test]
    fn glm_trains_like_underlying_logit() {
        let xs: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 10) as f64 / 10.0, ((i * 3) % 7) as f64 / 7.0])
            .collect();
        let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.5)).collect();
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        let mut glm = Glm::new_zeros(2, 2);
        for _ in 0..300 {
            glm.sgd_step(&rows, &ys, 0.5);
        }
        let correct = rows
            .iter()
            .zip(ys.iter())
            .filter(|(x, &y)| glm.predict(x) == y)
            .count();
        assert!(correct as f64 / rows.len() as f64 > 0.9);
    }

    #[test]
    fn predict_proba_length_matches_classes() {
        let glm2 = Glm::new_zeros(3, 2);
        let glm7 = Glm::new_zeros(3, 7);
        assert_eq!(glm2.predict_proba(&[0.0, 0.0, 0.0]).len(), 2);
        assert_eq!(glm7.predict_proba(&[0.0, 0.0, 0.0]).len(), 7);
    }

    /// A binary and a 3-class GLM over one feature whose class-1 score
    /// exceeds every other class's by 5 at x = 1.
    fn confident_in_class_1() -> [Glm; 2] {
        let mut binary = Glm::new_zeros(1, 2);
        binary.params_mut().copy_from_slice(&[5.0, 0.0]);
        let mut multi = Glm::new_zeros(1, 3);
        multi
            .params_mut()
            .copy_from_slice(&[0.0, 0.0, 5.0, 0.0, 0.0, 0.0]);
        [binary, multi]
    }

    #[test]
    fn loss_of_a_confident_right_prediction_is_small() {
        let x: &[f64] = &[1.0];
        for glm in confident_in_class_1() {
            let (loss, _) = glm.loss_and_gradient(&[x], &[1]);
            assert!(loss < 0.02, "{loss}");
        }
    }

    #[test]
    fn loss_of_a_confident_wrong_prediction_is_large() {
        let x: &[f64] = &[1.0];
        for glm in confident_in_class_1() {
            let (loss, _) = glm.loss_and_gradient(&[x], &[0]);
            assert!(loss > 4.0, "{loss}");
        }
    }

    #[test]
    fn loss_is_finite_when_the_true_class_probability_underflows() {
        // p(class 2) = e^{-2000} rounds to 0; the clamp keeps the NLL finite.
        let mut glm = Glm::new_zeros(1, 3);
        glm.params_mut()
            .copy_from_slice(&[1000.0, 0.0, 0.0, 0.0, -1000.0, 0.0]);
        let x: &[f64] = &[1.0];
        assert_eq!(glm.predict_proba(x)[2], 0.0);
        let (loss, _) = glm.loss_and_gradient(&[x], &[2]);
        assert!(loss.is_finite() && loss > 30.0, "{loss}");
    }

    #[test]
    fn out_of_range_label_is_treated_as_zero_probability() {
        // A multinomial GLM has no probability for class 5: its loss is the
        // clamped NLL of probability 0.
        let glm = Glm::new_zeros(2, 3);
        let x: &[f64] = &[0.5, 0.5];
        let (loss, _) = glm.loss_and_gradient(&[x], &[5]);
        assert_eq!(loss, -clamp_proba(0.0).ln());
    }

    /// The bytes of one GLM record, built by hand: the variant tag, `m`,
    /// `c` (multiclass records only), `seen` and the length-prefixed
    /// parameter bits, every integer little-endian.
    fn glm_record(tag: u8, m: u64, c: Option<u64>, seen: u64, params: &[f64]) -> Vec<u8> {
        let mut buf = vec![tag];
        buf.extend_from_slice(&m.to_le_bytes());
        if let Some(c) = c {
            buf.extend_from_slice(&c.to_le_bytes());
        }
        buf.extend_from_slice(&seen.to_le_bytes());
        buf.extend_from_slice(&(params.len() as u64).to_le_bytes());
        for p in params {
            buf.extend_from_slice(&p.to_bits().to_le_bytes());
        }
        buf
    }

    /// Encode `glm`, check the bytes against `expected`, and decode them back
    /// bit for bit.
    fn assert_codec_round_trip(glm: &Glm, expected: &[u8]) {
        let mut w = Writer::new();
        glm.encode(&mut w);
        assert_eq!(w.as_bytes(), expected);
        let mut r = Reader::new(expected);
        let back = Glm::decode(&mut r).expect("a well-formed record decodes");
        assert!(r.is_empty(), "decode left {} bytes", r.remaining());
        let bits = |g: &Glm| g.params().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(glm));
        assert_eq!(back.num_features(), glm.num_features());
        assert_eq!(back.num_classes(), glm.num_classes());
        assert_eq!(back.observations_seen(), glm.observations_seen());
    }

    /// The message of the typed rejection `bytes` must decode to.
    fn codec_rejection(bytes: &[u8]) -> String {
        match Glm::decode(&mut Reader::new(bytes)) {
            Err(WireError::Invalid(msg)) => msg,
            other => panic!("expected an Invalid rejection, got {other:?}"),
        }
    }

    #[test]
    fn codec_binary_round_trip_matches_the_hand_built_record() {
        let mut glm = Glm::new_random(3, 2, 5);
        let x: &[f64] = &[0.1, -0.2, 0.3];
        glm.sgd_step(&[x, x], &[1, 0], 0.05);
        glm.params_mut()[1] = -0.0;
        let expected = glm_record(0, 3, None, 2, glm.params());
        assert_codec_round_trip(&glm, &expected);
    }

    #[test]
    fn codec_multiclass_round_trip_matches_the_hand_built_record() {
        let mut glm = Glm::new_random(2, 4, 9);
        let x: &[f64] = &[0.4, 0.7];
        glm.sgd_step(&[x, x, x], &[3, 0, 2], 0.05);
        glm.params_mut()[5] = -0.0;
        let expected = glm_record(1, 2, Some(4), 3, glm.params());
        assert_codec_round_trip(&glm, &expected);
    }

    #[test]
    fn codec_rejects_an_unknown_tag() {
        let msg = codec_rejection(&glm_record(2, 3, None, 0, &[0.0; 4]));
        assert!(msg.contains("tag"), "{msg}");
    }

    #[test]
    fn codec_rejects_a_logit_parameter_count_other_than_m_plus_one() {
        for n in [0, 3, 5] {
            let msg = codec_rejection(&glm_record(0, 3, None, 0, &vec![0.0; n]));
            assert!(msg.contains("parameters"), "{msg}");
        }
    }

    #[test]
    fn codec_rejects_a_softmax_record_with_fewer_than_two_classes() {
        for c in [0, 1] {
            let msg = codec_rejection(&glm_record(1, 3, Some(c), 0, &vec![0.0; 4 * c as usize]));
            assert!(msg.contains("classes"), "{msg}");
        }
    }

    #[test]
    fn codec_rejects_a_softmax_parameter_count_that_overflows() {
        let msg = codec_rejection(&glm_record(1, 1 << 62, Some(4), 0, &[]));
        assert!(msg.contains("overflow"), "{msg}");
    }

    #[test]
    fn codec_rejects_a_softmax_parameter_count_mismatch() {
        for n in [0, 15, 17] {
            let msg = codec_rejection(&glm_record(1, 3, Some(4), 0, &vec![0.0; n]));
            assert!(msg.contains("parameters"), "{msg}");
        }
    }

    #[test]
    fn codec_rejects_a_two_class_softmax_record() {
        let msg = codec_rejection(&glm_record(1, 3, Some(2), 0, &[0.0; 8]));
        assert!(msg.contains("classes"), "{msg}");
    }

    #[test]
    fn codec_rejects_a_feature_count_whose_logit_parameter_count_overflows() {
        let msg = codec_rejection(&glm_record(0, u64::MAX, None, 0, &[]));
        assert!(msg.contains("overflow"), "{msg}");
        let msg = codec_rejection(&glm_record(1, u64::MAX, Some(3), 0, &[]));
        assert!(msg.contains("overflow"), "{msg}");
    }
}
