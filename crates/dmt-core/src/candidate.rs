//! Split candidates and their accumulated statistics.
//!
//! A split candidate is a feature–value combination (§IV of the paper). For
//! every stored candidate the node accumulates, over the time steps since the
//! candidate was added,
//!
//! * the loss of the *node's own model* on the subset of observations routed
//!   to the candidate's **left** child,
//! * the gradient of that loss with respect to the node parameters, and
//! * the number of such observations.
//!
//! The right-child statistics are never stored: they are the difference
//! between the node statistics and the left-child statistics (Algorithm 1,
//! note before line 4), which halves memory.

use dmt_models::linalg::{self, MatRef};
use dmt_models::memory::vec_bytes;
use dmt_models::MemoryUsage;

/// Identity of a split candidate: which feature is tested and against what.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateKey {
    /// Feature index.
    pub feature: usize,
    /// Split value: numeric threshold (`x <= value` goes left) or nominal
    /// code (`x == value` goes left).
    pub value: f64,
    /// Whether the test is a nominal equality test.
    pub is_nominal: bool,
}

impl CandidateKey {
    /// Whether a raw feature value passes the split test (left routing).
    #[inline]
    pub fn test_value(&self, v: f64) -> bool {
        if self.is_nominal {
            (v - self.value).abs() < 1e-9
        } else {
            v <= self.value
        }
    }

    /// Whether an instance is routed to the left child by this candidate.
    #[inline]
    pub fn goes_left(&self, x: &[f64]) -> bool {
        self.test_value(x[self.feature])
    }

    /// Two keys are considered the same candidate when they test the same
    /// feature with (numerically) the same value and the same test type.
    pub fn same_as(&self, other: &CandidateKey) -> bool {
        self.feature == other.feature
            && self.is_nominal == other.is_nominal
            && (self.value - other.value).abs() < 1e-9
    }
}

/// A stored split candidate with its accumulated left-child statistics.
#[derive(Debug, Clone)]
pub struct SplitCandidate {
    /// The feature–value combination this candidate tests.
    pub key: CandidateKey,
    /// Accumulated loss of the node model on the left subset.
    pub loss_sum: f64,
    /// Accumulated gradient (w.r.t. the node parameters) on the left subset.
    pub grad_sum: Vec<f64>,
    /// Number of observations routed left since the candidate was stored.
    pub count: u64,
    /// Most recent gain estimate (used for pool management / replacement).
    pub last_gain: f64,
}

impl MemoryUsage for SplitCandidate {
    /// Heap bytes of the candidate's left-child gradient accumulator (the
    /// only heap allocation a candidate owns).
    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.grad_sum)
    }
}

impl SplitCandidate {
    /// Create an empty candidate for a node with `num_params` model
    /// parameters.
    pub fn new(key: CandidateKey, num_params: usize) -> Self {
        Self {
            key,
            loss_sum: 0.0,
            grad_sum: vec![0.0; num_params],
            count: 0,
            last_gain: f64::NEG_INFINITY,
        }
    }

    /// Accumulate the loss/gradient of one left-routed observation.
    pub fn accumulate(&mut self, loss: f64, grad: &[f64]) {
        self.loss_sum += loss;
        linalg::add_assign(&mut self.grad_sum, grad);
        self.count += 1;
    }

    /// Accumulate every left-routed row of a gathered batch in row order:
    /// `xs` holds the instances (row-major), `losses[i]`/`grads.row(i)` the
    /// per-row loss and gradient from a batched model pass.
    ///
    /// This is the *reference* per-row accumulation — the definition of which
    /// rows a candidate owns. The tree's hot path does **not** call it; it
    /// uses the per-feature passes in `dmt_core::node` (sorted prefix sums
    /// for numeric candidates, per-category buckets for nominal ones), which
    /// select the same row set (pinned by tests) while touching each
    /// gradient row once per feature instead of once per candidate.
    pub fn accumulate_batch(&mut self, xs: MatRef<'_>, losses: &[f64], grads: MatRef<'_>) {
        debug_assert_eq!(xs.rows(), losses.len());
        debug_assert_eq!(xs.rows(), grads.rows());
        let m = xs.cols();
        let data = xs.as_slice();
        for i in 0..xs.rows() {
            if self.key.test_value(data[i * m + self.key.feature]) {
                self.accumulate(losses[i], grads.row(i));
            }
        }
    }

    /// Reset the accumulated statistics (used after structural changes).
    pub fn reset(&mut self) {
        self.loss_sum = 0.0;
        self.grad_sum.iter_mut().for_each(|g| *g = 0.0);
        self.count = 0;
        self.last_gain = f64::NEG_INFINITY;
    }

    /// Re-initialise a recycled candidate for a fresh key, reusing the
    /// gradient buffer's allocation. The tree's proposal machinery keeps a
    /// pool of retired candidates so steady-state proposal generation
    /// performs no heap allocation.
    pub fn reset_for(&mut self, key: CandidateKey, num_params: usize) {
        self.key = key;
        self.loss_sum = 0.0;
        self.grad_sum.clear();
        self.grad_sum.resize(num_params, 0.0);
        self.count = 0;
        self.last_gain = f64::NEG_INFINITY;
    }
}

/// Propose candidate keys from the feature values observed in a batch.
///
/// For numeric features the 25 %, 50 % and 75 % quantiles of the batch values
/// are proposed; for nominal features every distinct value in the batch is
/// proposed. Proposals already present in `existing` are skipped.
///
/// This is the *standalone* form of the §V-D proposal rules. The tree's hot
/// path does **not** call it: `dmt_core::node` fuses proposal generation
/// into its combined per-feature accumulation pass (reusing the column sort
/// / category buckets it needs anyway) and is pinned by tests to produce
/// exactly the keys this function produces.
pub fn propose_from_batch(
    xs: &[&[f64]],
    nominal_features: &[bool],
    existing: &[SplitCandidate],
) -> Vec<CandidateKey> {
    let Some(first) = xs.first() else {
        return Vec::new();
    };
    let mut values = Vec::with_capacity(xs.len());
    let mut proposals = Vec::new();
    for feature in 0..first.len() {
        values.clear();
        values.extend(xs.iter().map(|x| x[feature]));
        push_feature_proposals(
            &mut values,
            feature,
            nominal_features,
            existing,
            &mut proposals,
        );
    }
    proposals
}

/// Total order over `f64` used by the proposal machinery (NaNs compare equal;
/// they are filtered out before any key is built).
#[inline]
fn cmp_f64(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
}

/// Replace `values` (arbitrary order) with the batch's 25 %, 50 % and 75 %
/// order statistics — the same three elements a full sort would pick at
/// `n/4`, `n/2` and `min(3n/4, n-1)` — using `select_nth_unstable` so the
/// per-batch cost is O(n) instead of O(n log n).
fn keep_batch_quantiles(values: &mut Vec<f64>) {
    let n = values.len();
    if n == 0 {
        return;
    }
    let i1 = n / 4;
    let i2 = n / 2;
    let i3 = (3 * n / 4).min(n - 1);
    let (lo, mid, hi) = values.select_nth_unstable_by(i2, cmp_f64);
    let q2 = *mid;
    let q1 = if i1 == i2 {
        q2
    } else {
        *lo.select_nth_unstable_by(i1, cmp_f64).1
    };
    let q3 = if i3 == i2 {
        q2
    } else {
        *hi.select_nth_unstable_by(i3 - i2 - 1, cmp_f64).1
    };
    values.clear();
    values.extend([q1, q2, q3]);
}

/// Shared per-feature proposal step: reduce the raw column `values` to the
/// candidate split values (distinct codes for nominal features, batch
/// quantiles for numeric ones) and append the keys not already stored.
fn push_feature_proposals(
    values: &mut Vec<f64>,
    feature: usize,
    nominal_features: &[bool],
    existing: &[SplitCandidate],
    proposals: &mut Vec<CandidateKey>,
) {
    let is_nominal = nominal_features.get(feature).copied().unwrap_or(false);
    if is_nominal {
        values.sort_by(cmp_f64);
        values.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    } else {
        keep_batch_quantiles(values);
        values.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    }
    values.retain(|v| v.is_finite());
    for &value in values.iter() {
        let key = CandidateKey {
            feature,
            value,
            is_nominal,
        };
        let already_stored = existing.iter().any(|c| c.key.same_as(&key))
            || proposals.iter().any(|p: &CandidateKey| p.same_as(&key));
        if !already_stored {
            proposals.push(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_key_routes_by_threshold() {
        let key = CandidateKey {
            feature: 1,
            value: 0.5,
            is_nominal: false,
        };
        assert!(key.goes_left(&[9.0, 0.5]));
        assert!(key.goes_left(&[9.0, 0.2]));
        assert!(!key.goes_left(&[9.0, 0.7]));
    }

    #[test]
    fn nominal_key_routes_by_equality() {
        let key = CandidateKey {
            feature: 0,
            value: 2.0,
            is_nominal: true,
        };
        assert!(key.goes_left(&[2.0]));
        assert!(!key.goes_left(&[1.0]));
        assert!(!key.goes_left(&[2.5]));
    }

    #[test]
    fn same_as_compares_all_fields() {
        let a = CandidateKey {
            feature: 0,
            value: 1.0,
            is_nominal: false,
        };
        let b = CandidateKey {
            feature: 0,
            value: 1.0 + 1e-12,
            is_nominal: false,
        };
        let c = CandidateKey {
            feature: 0,
            value: 1.0,
            is_nominal: true,
        };
        let d = CandidateKey {
            feature: 1,
            value: 1.0,
            is_nominal: false,
        };
        assert!(a.same_as(&b));
        assert!(!a.same_as(&c));
        assert!(!a.same_as(&d));
    }

    #[test]
    fn accumulate_and_reset() {
        let key = CandidateKey {
            feature: 0,
            value: 0.5,
            is_nominal: false,
        };
        let mut cand = SplitCandidate::new(key, 3);
        cand.accumulate(1.5, &[1.0, 0.0, -1.0]);
        cand.accumulate(0.5, &[1.0, 2.0, 0.0]);
        assert_eq!(cand.count, 2);
        assert!((cand.loss_sum - 2.0).abs() < 1e-12);
        assert_eq!(cand.grad_sum, vec![2.0, 2.0, -1.0]);
        cand.reset();
        assert_eq!(cand.count, 0);
        assert_eq!(cand.loss_sum, 0.0);
        assert_eq!(cand.grad_sum, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn proposals_cover_every_feature() {
        let xs: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64 / 40.0, (i % 4) as f64])
            .collect();
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        let proposals = propose_from_batch(&rows, &[false, true], &[]);
        assert!(proposals.iter().any(|p| p.feature == 0 && !p.is_nominal));
        assert!(proposals.iter().any(|p| p.feature == 1 && p.is_nominal));
        // The nominal feature has 4 distinct values.
        let nominal_count = proposals.iter().filter(|p| p.feature == 1).count();
        assert_eq!(nominal_count, 4);
        // The numeric feature proposes at most 3 quantiles.
        let numeric_count = proposals.iter().filter(|p| p.feature == 0).count();
        assert!((1..=3).contains(&numeric_count));
    }

    #[test]
    fn proposals_skip_existing_candidates() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        let first = propose_from_batch(&rows, &[false], &[]);
        let stored: Vec<SplitCandidate> = first
            .iter()
            .map(|&key| SplitCandidate::new(key, 2))
            .collect();
        let second = propose_from_batch(&rows, &[false], &stored);
        assert!(
            second.is_empty(),
            "identical batch should propose nothing new"
        );
    }

    #[test]
    fn empty_batch_proposes_nothing() {
        assert!(propose_from_batch(&[], &[false], &[]).is_empty());
    }

    #[test]
    fn quantile_selection_matches_full_sort() {
        for n in 1..60usize {
            let mut values: Vec<f64> = (0..n).map(|i| ((i * 31) % n) as f64 * 0.5).collect();
            let mut sorted = values.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let expected = [sorted[n / 4], sorted[n / 2], sorted[(3 * n / 4).min(n - 1)]];
            keep_batch_quantiles(&mut values);
            assert_eq!(values.len(), 3, "n={n}");
            for (a, b) in values.iter().zip(expected.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn accumulate_batch_matches_per_row_accumulation() {
        let key = CandidateKey {
            feature: 1,
            value: 0.5,
            is_nominal: false,
        };
        let flat: Vec<f64> = (0..20)
            .flat_map(|i| [i as f64 / 20.0, ((i * 3) % 20) as f64 / 20.0])
            .collect();
        let xs = MatRef::new(&flat, 20, 2);
        let losses: Vec<f64> = (0..20).map(|i| i as f64 * 0.1).collect();
        let grads_flat: Vec<f64> = (0..20 * 3).map(|i| i as f64 * 0.01).collect();
        let grads = MatRef::new(&grads_flat, 20, 3);

        let mut batched = SplitCandidate::new(key, 3);
        batched.accumulate_batch(xs, &losses, grads);

        let mut sequential = SplitCandidate::new(key, 3);
        for (i, &loss) in losses.iter().enumerate() {
            if key.goes_left(xs.row(i)) {
                sequential.accumulate(loss, grads.row(i));
            }
        }
        assert_eq!(batched.count, sequential.count);
        assert!(batched.count > 0);
        assert_eq!(batched.loss_sum.to_bits(), sequential.loss_sum.to_bits());
        for (a, b) in batched.grad_sum.iter().zip(sequential.grad_sum.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn constant_feature_proposes_single_threshold() {
        let xs: Vec<Vec<f64>> = (0..10).map(|_| vec![0.5]).collect();
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        let proposals = propose_from_batch(&rows, &[false], &[]);
        assert_eq!(proposals.len(), 1);
        assert_eq!(proposals[0].value, 0.5);
    }
}
