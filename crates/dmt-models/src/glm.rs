//! [`Glm`] — the Generalized Linear Model dispatcher used by the Dynamic
//! Model Tree.
//!
//! §V-A of the paper proposes a binary logit model for two-class problems and
//! a multinomial logit (softmax) model otherwise. [`Glm`] hides that choice
//! behind one concrete type so that tree code does not need trait objects.

use crate::linalg::{MatMut, MatRef};
use crate::logit::LogitModel;
use crate::softmax::SoftmaxModel;
use crate::wire::{self, Reader, WireError, Writer};
use crate::{BatchMode, Rows, SimpleModel};

/// A Generalized Linear Model: binary logit or multinomial logit, selected by
/// the number of classes.
#[derive(Debug, Clone, PartialEq)]
pub enum Glm {
    /// Binary logistic regression (used when `num_classes == 2`).
    Logit(LogitModel),
    /// Multinomial logistic regression (used when `num_classes > 2`).
    Softmax(SoftmaxModel),
}

impl Glm {
    /// Create a GLM with zero-initialised parameters.
    pub fn new_zeros(num_features: usize, num_classes: usize) -> Self {
        assert!(num_classes >= 2, "a classifier needs at least two classes");
        if num_classes == 2 {
            Glm::Logit(LogitModel::new_zeros(num_features))
        } else {
            Glm::Softmax(SoftmaxModel::new_zeros(num_features, num_classes))
        }
    }

    /// Create a GLM with small random initial weights (paper default for the
    /// root node of a Dynamic Model Tree).
    pub fn new_random(num_features: usize, num_classes: usize, seed: u64) -> Self {
        assert!(num_classes >= 2, "a classifier needs at least two classes");
        if num_classes == 2 {
            Glm::Logit(LogitModel::new_random(num_features, seed))
        } else {
            Glm::Softmax(SoftmaxModel::new_random(num_features, num_classes, seed))
        }
    }

    /// Create a zero-parameter placeholder GLM without touching the
    /// allocator (see [`LogitModel::placeholder`]). Placeholders back-fill
    /// tree-node payloads that were moved out or never restored (arena
    /// compaction, free-listed snapshot slots) and must never be asked to
    /// predict or learn.
    pub fn placeholder() -> Self {
        Glm::Logit(LogitModel::placeholder())
    }

    /// Create a child GLM warm-started with the parameters of a parent GLM.
    pub fn warm_start_from(parent: &Self) -> Self {
        match parent {
            Glm::Logit(m) => Glm::Logit(LogitModel::warm_start_from(m)),
            Glm::Softmax(m) => Glm::Softmax(SoftmaxModel::warm_start_from(m)),
        }
    }

    /// Apply a single warm-start gradient step of eq. (6):
    /// `Θ_C ≈ Θ_S − (λ/|C|) ∇_{Θ_S} L(Θ_S, Y_C, X_C)` given a pre-computed
    /// gradient *sum* over the candidate subset and its count.
    pub fn warm_start_with_gradient(parent: &Self, grad_sum: &[f64], count: u64, lr: f64) -> Self {
        let mut child = Self::warm_start_from(parent);
        if count > 0 {
            let step = lr / count as f64;
            for (p, g) in child.params_mut().iter_mut().zip(grad_sum.iter()) {
                *p -= step * g;
            }
        }
        child
    }

    /// Serialise the GLM (variant tag plus the underlying model) through `w`;
    /// the inverse of [`Glm::decode`].
    pub fn encode(&self, w: &mut Writer) {
        match self {
            Glm::Logit(m) => {
                w.put_u8(0);
                m.encode(w);
            }
            Glm::Softmax(m) => {
                w.put_u8(1);
                m.encode(w);
            }
        }
    }

    /// Reconstruct a GLM from [`Glm::encode`] output, rejecting unknown
    /// variant tags.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(Glm::Logit(LogitModel::decode(r)?)),
            1 => Ok(Glm::Softmax(SoftmaxModel::decode(r)?)),
            tag => Err(wire::invalid(format!("unknown GLM variant tag {tag}"))),
        }
    }
}

impl SimpleModel for Glm {
    fn num_params(&self) -> usize {
        match self {
            Glm::Logit(m) => m.num_params(),
            Glm::Softmax(m) => m.num_params(),
        }
    }

    fn num_classes(&self) -> usize {
        match self {
            Glm::Logit(m) => m.num_classes(),
            Glm::Softmax(m) => m.num_classes(),
        }
    }

    fn num_features(&self) -> usize {
        match self {
            Glm::Logit(m) => m.num_features(),
            Glm::Softmax(m) => m.num_features(),
        }
    }

    fn params(&self) -> &[f64] {
        match self {
            Glm::Logit(m) => m.params(),
            Glm::Softmax(m) => m.params(),
        }
    }

    fn params_mut(&mut self) -> &mut [f64] {
        match self {
            Glm::Logit(m) => m.params_mut(),
            Glm::Softmax(m) => m.params_mut(),
        }
    }

    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        match self {
            Glm::Logit(m) => m.predict_proba_into(x, out),
            Glm::Softmax(m) => m.predict_proba_into(x, out),
        }
    }

    fn predict(&self, x: &[f64]) -> usize {
        match self {
            Glm::Logit(m) => m.predict(x),
            Glm::Softmax(m) => m.predict(x),
        }
    }

    fn loss_and_gradient_into(
        &self,
        xs: Rows<'_>,
        ys: &[usize],
        grad: &mut [f64],
        class_buf: &mut [f64],
    ) -> f64 {
        match self {
            Glm::Logit(m) => m.loss_and_gradient_into(xs, ys, grad, class_buf),
            Glm::Softmax(m) => m.loss_and_gradient_into(xs, ys, grad, class_buf),
        }
    }

    fn sgd_step_into(
        &mut self,
        xs: Rows<'_>,
        ys: &[usize],
        learning_rate: f64,
        grad_buf: &mut [f64],
        class_buf: &mut [f64],
    ) -> f64 {
        match self {
            Glm::Logit(m) => m.sgd_step_into(xs, ys, learning_rate, grad_buf, class_buf),
            Glm::Softmax(m) => m.sgd_step_into(xs, ys, learning_rate, grad_buf, class_buf),
        }
    }

    fn predict_proba_batch_into(&self, xs: MatRef<'_>, out: &mut [f64]) {
        match self {
            Glm::Logit(m) => m.predict_proba_batch_into(xs, out),
            Glm::Softmax(m) => m.predict_proba_batch_into(xs, out),
        }
    }

    fn loss_and_gradient_batch_into(
        &self,
        xs: MatRef<'_>,
        ys: &[usize],
        losses: &mut [f64],
        grads: MatMut<'_>,
        class_buf: &mut [f64],
    ) -> f64 {
        match self {
            Glm::Logit(m) => m.loss_and_gradient_batch_into(xs, ys, losses, grads, class_buf),
            Glm::Softmax(m) => m.loss_and_gradient_batch_into(xs, ys, losses, grads, class_buf),
        }
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
        match self {
            Glm::Logit(m) => m.learn_batch_into(xs, ys, learning_rate, mode, grad_buf, class_buf),
            Glm::Softmax(m) => m.learn_batch_into(xs, ys, learning_rate, mode, grad_buf, class_buf),
        }
    }

    fn observations_seen(&self) -> u64 {
        match self {
            Glm::Logit(m) => m.observations_seen(),
            Glm::Softmax(m) => m.observations_seen(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_classes_selects_logit() {
        let glm = Glm::new_zeros(4, 2);
        assert!(matches!(glm, Glm::Logit(_)));
        assert_eq!(glm.num_params(), 5);
    }

    #[test]
    fn many_classes_selects_softmax() {
        let glm = Glm::new_zeros(4, 6);
        assert!(matches!(glm, Glm::Softmax(_)));
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
        assert!(matches!(child, Glm::Softmax(_)));
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
}
