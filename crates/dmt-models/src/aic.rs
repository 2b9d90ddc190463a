//! Akaike Information Criterion (AIC) helpers and the ε-threshold test of
//! eq. (9)–(11) in the paper.
//!
//! The DMT uses the AIC to turn the raw loss-based gains into a *robust*
//! decision: a split (or prune/replacement) is only performed when the gain
//! exceeds `k_new − k_old − log(ε)`, where `k` counts free parameters and
//! `ε ∈ [0, 1]` bounds the tolerated probability that the more complex model
//! is not actually the information-optimal one. The tree only ever compares
//! two models' `AIC = 2k − 2ℓ(Θ)` (eq. 8), so the threshold on their
//! difference is all this module computes.

/// The gain threshold of eq. (11).
///
/// A candidate structural change replacing a model with `k_old` free
/// parameters by models totalling `k_new` free parameters is accepted when
/// the loss-based gain satisfies
///
/// ```text
/// G ≥ k_new − k_old − log(ε)
/// ```
///
/// For ε = 1 the test degenerates to a pure parameter-count penalty; smaller
/// ε demand proportionally larger gains (the paper default is ε = 1e-8).
#[inline]
pub fn aic_split_threshold(k_new: usize, k_old: usize, epsilon: f64) -> f64 {
    assert!(
        epsilon > 0.0 && epsilon <= 1.0,
        "epsilon must lie in (0, 1], got {epsilon}"
    );
    k_new as f64 - k_old as f64 - epsilon.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_grows_as_epsilon_shrinks() {
        let loose = aic_split_threshold(10, 5, 1.0);
        let strict = aic_split_threshold(10, 5, 1e-8);
        assert!(strict > loose);
        assert!((loose - 5.0).abs() < 1e-12); // ln(1) = 0
    }

    #[test]
    fn threshold_matches_paper_formula() {
        // G >= k_C + k_C̄ - k_S - log(eps); with equal model sizes k at every
        // node, splitting doubles the parameters: threshold = k - log(eps).
        let k = 7usize;
        let eps = 1e-8;
        let t = aic_split_threshold(2 * k, k, eps);
        assert!((t - (k as f64 - eps.ln())).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "epsilon must lie in (0, 1]")]
    fn zero_epsilon_is_rejected() {
        let _ = aic_split_threshold(2, 1, 0.0);
    }

    #[test]
    #[should_panic(expected = "epsilon must lie in (0, 1]")]
    fn epsilon_above_one_is_rejected() {
        let _ = aic_split_threshold(2, 1, 1.5);
    }

    #[test]
    fn aic_test_accepts_large_gains_only() {
        // Splitting a k=5 logit into two k=5 children: threshold = 5 - ln(1e-8) ≈ 23.4
        let t = aic_split_threshold(10, 5, 1e-8);
        assert!((t - (5.0 - 1e-8f64.ln())).abs() < 1e-9);
        assert!(10.0 < t);
        assert!(30.0 >= t);
    }

    #[test]
    fn pruning_direction_has_negative_parameter_delta() {
        // Collapsing a subtree (k_new < k_old) lowers the threshold, so even a
        // zero gain can justify pruning with epsilon = 1.
        assert!(0.0 >= aic_split_threshold(5, 15, 1.0));
        // With the strict paper epsilon the prune needs to overcome -log(eps).
        let strict = aic_split_threshold(5, 15, 1e-8);
        assert!(0.0 < strict);
        assert!(9.0 >= strict);
    }
}
