//! Loss functions for online learning.
//!
//! The Dynamic Model Tree uses the negative log-likelihood (NLL) as its loss
//! (§V-B of the paper): with a well-fitting simple model, the likelihood
//! `P(Y_t | X_t, θ_t)` approximates the active data concept, so changes in the
//! NLL-based gains (3)–(5) can be attributed to (real) concept drift.

use crate::linalg::clamp_proba;

/// Negative log-likelihood of a single categorical prediction.
///
/// `proba` is the predicted class-probability vector and `y` the true class
/// index. Probabilities are clamped so the result is always finite.
#[inline]
pub fn nll_single(proba: &[f64], y: usize) -> f64 {
    let p = proba.get(y).copied().unwrap_or(0.0);
    -clamp_proba(p).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nll_of_confident_correct_prediction_is_small() {
        let loss = nll_single(&[0.01, 0.99], 1);
        assert!(loss < 0.02);
    }

    #[test]
    fn nll_of_confident_wrong_prediction_is_large() {
        let loss = nll_single(&[0.99, 0.01], 1);
        assert!(loss > 4.0);
    }

    #[test]
    fn nll_is_finite_even_for_zero_probability() {
        let loss = nll_single(&[1.0, 0.0], 1);
        assert!(loss.is_finite());
        assert!(loss > 30.0);
    }

    #[test]
    fn nll_out_of_range_class_is_treated_as_zero_probability() {
        let loss = nll_single(&[0.5, 0.5], 7);
        assert!(loss.is_finite());
    }
}
