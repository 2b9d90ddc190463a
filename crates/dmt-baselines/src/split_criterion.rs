//! Split criteria (purity measures) and the Hoeffding bound.
//!
//! The Hoeffding-tree family selects splits by a heuristic purity measure and
//! decides *when* to split with Hoeffding's inequality — precisely the
//! mechanisms the Dynamic Model Tree replaces with loss-based gains. They are
//! implemented here for the baselines:
//!
//! * [`info_gain`] — information gain (entropy reduction), the criterion of
//!   VFDT, HT-Ada and EFDT, with [`info_gain_range`] for the Hoeffding bound.
//! * [`sdr`] — standard deviation reduction of a numeric target, used by
//!   FIMT-DD (applied to the class index, as in the authors' classification
//!   re-implementation).

/// Hoeffding bound: with probability `1 − delta` the true mean of a random
/// variable with range `range` lies within `epsilon` of the empirical mean of
/// `n` observations, where `epsilon = sqrt(range² ln(1/δ) / (2n))`.
pub fn hoeffding_bound(range: f64, delta: f64, n: f64) -> f64 {
    if n <= 0.0 {
        return f64::INFINITY;
    }
    ((range * range * (1.0 / delta).ln()) / (2.0 * n)).sqrt()
}

/// Shannon entropy of a class-count distribution (in bits).
pub fn entropy(dist: &[f64]) -> f64 {
    let total: f64 = dist.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0;
    for &count in dist {
        if count > 0.0 {
            let p = count / total;
            h -= p * p.log2();
        }
    }
    h
}

/// Information gain (entropy reduction) of splitting the `pre` class
/// distribution into the `post` distributions (children). Higher is better.
pub fn info_gain(pre: &[f64], post: &[Vec<f64>]) -> f64 {
    let total: f64 = pre.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut weighted = 0.0;
    for child in post {
        let child_total: f64 = child.iter().sum();
        if child_total > 0.0 {
            weighted += child_total / total * entropy(child);
        }
    }
    entropy(pre) - weighted
}

/// Range of [`info_gain`] over `pre` (needed by the Hoeffding bound):
/// `log2` of the number of observed classes, at least 1.
pub fn info_gain_range(pre: &[f64]) -> f64 {
    let classes = pre.iter().filter(|&&c| c > 0.0).count().max(2);
    (classes as f64).log2()
}

/// Standard deviation reduction (SDR) for a numeric target, the FIMT-DD split
/// criterion. Inputs are `(count, sum, sum of squares)` triples of the parent
/// and the two children.
pub fn sdr(parent: (f64, f64, f64), left: (f64, f64, f64), right: (f64, f64, f64)) -> f64 {
    let sd = |(n, s, ss): (f64, f64, f64)| -> f64 {
        if n <= 1.0 {
            return 0.0;
        }
        let var = (ss - s * s / n) / n;
        var.max(0.0).sqrt()
    };
    let n = parent.0;
    if n <= 0.0 {
        return 0.0;
    }
    sd(parent) - left.0 / n * sd(left) - right.0 / n * sd(right)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hoeffding_bound_shrinks_with_n() {
        let a = hoeffding_bound(1.0, 1e-7, 100.0);
        let b = hoeffding_bound(1.0, 1e-7, 10_000.0);
        assert!(b < a);
        assert!(hoeffding_bound(1.0, 1e-7, 0.0).is_infinite());
    }

    #[test]
    fn hoeffding_bound_known_value() {
        // range=1, delta=0.05, n=1000 -> sqrt(ln(20)/2000) ≈ 0.03871
        let eps = hoeffding_bound(1.0, 0.05, 1000.0);
        assert!((eps - 0.03871).abs() < 1e-4);
    }

    #[test]
    fn entropy_extremes() {
        assert_eq!(entropy(&[10.0, 0.0]), 0.0);
        assert!((entropy(&[5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert_eq!(entropy(&[]), 0.0);
        assert_eq!(entropy(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn entropy_of_uniform_k_classes_is_log2_k() {
        assert!((entropy(&[2.0, 2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn info_gain_of_perfect_split_is_parent_entropy() {
        let pre = vec![5.0, 5.0];
        let post = vec![vec![5.0, 0.0], vec![0.0, 5.0]];
        let ig = info_gain(&pre, &post);
        assert!((ig - 1.0).abs() < 1e-12);
    }

    #[test]
    fn info_gain_of_useless_split_is_zero() {
        let pre = vec![6.0, 6.0];
        let post = vec![vec![3.0, 3.0], vec![3.0, 3.0]];
        let ig = info_gain(&pre, &post);
        assert!(ig.abs() < 1e-12);
    }

    #[test]
    fn criterion_ranges() {
        assert!((info_gain_range(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((info_gain_range(&[1.0, 1.0, 1.0, 1.0]) - 2.0).abs() < 1e-12);
        // Fewer than two observed classes still count as two.
        assert!((info_gain_range(&[3.0, 0.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sdr_of_perfect_separation_equals_parent_sd() {
        // Parent: values {0,0,10,10}; children separate them exactly.
        let parent = (4.0, 20.0, 200.0);
        let left = (2.0, 0.0, 0.0);
        let right = (2.0, 20.0, 200.0);
        let parent_sd = ((200.0 - 20.0 * 20.0 / 4.0) / 4.0f64).sqrt();
        assert!((sdr(parent, left, right) - parent_sd).abs() < 1e-12);
    }

    #[test]
    fn sdr_of_no_separation_is_zero_or_negative() {
        let parent = (4.0, 20.0, 200.0);
        let left = (2.0, 10.0, 100.0);
        let right = (2.0, 10.0, 100.0);
        assert!(sdr(parent, left, right) <= 1e-9);
    }

    #[test]
    fn sdr_handles_empty_children() {
        let parent = (4.0, 20.0, 200.0);
        assert!(sdr(parent, (0.0, 0.0, 0.0), parent).abs() < 1e-9);
        assert_eq!(sdr((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)), 0.0);
    }
}
