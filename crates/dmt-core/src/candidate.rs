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
//!
//! A node keeps its candidates in a [`CandidatePool`], two allocations
//! however many candidates it holds, so copying a node never costs an
//! allocation per candidate.

use std::ops::{Deref, Range};

use dmt_models::linalg;
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

/// The scalars of a stored split candidate. Its left-child gradient sum is
/// row `i` of the owning [`CandidatePool`]'s gradient slab, where `i` is the
/// candidate's position in the pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitCandidate {
    /// The feature–value combination this candidate tests.
    pub key: CandidateKey,
    /// Accumulated loss of the node model on the left subset.
    pub loss_sum: f64,
    /// Number of observations routed left since the candidate was stored.
    pub count: u64,
    /// Most recent gain estimate (used for pool management / replacement).
    pub last_gain: f64,
}

/// A node's split candidates in pool order, held in two allocations: the
/// candidates' scalars, and one row-major slab of their left-child gradient
/// sums with `num_params` entries per candidate. The pool reads as the slice
/// of scalars; [`CandidatePool::grad`] reads a candidate's gradient row.
///
/// A push grows each allocation by exactly one row when it is full, so a
/// pool's capacity is whatever its owner reserved (a node pool reserves
/// `max_candidates` rows on its first admission, or the lower pool cap of a
/// binding memory budget) or, for the scratch space's proposal pool, the
/// largest proposal count seen.
#[derive(Debug, Clone, Default)]
pub struct CandidatePool {
    num_params: usize,
    entries: Vec<SplitCandidate>,
    grads: Vec<f64>,
}

impl MemoryUsage for CandidatePool {
    /// Heap bytes of the scalar column and the gradient slab
    /// (capacity-based).
    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.entries) + vec_bytes(&self.grads)
    }
}

impl Deref for CandidatePool {
    type Target = [SplitCandidate];

    fn deref(&self) -> &[SplitCandidate] {
        &self.entries
    }
}

impl CandidatePool {
    /// An empty pool for a node model with `num_params` parameters.
    pub fn new(num_params: usize) -> Self {
        Self {
            num_params,
            ..Self::default()
        }
    }

    /// The accumulated left-child gradient of the candidate at `row`.
    pub fn grad(&self, row: usize) -> &[f64] {
        &self.grads[self.span(row)]
    }

    /// Where the gradient of the candidate at `row` sits in the slab.
    fn span(&self, row: usize) -> Range<usize> {
        row * self.num_params..(row + 1) * self.num_params
    }

    /// Drop every candidate, keeping the allocations, and take rows of
    /// `num_params` gradient entries from now on.
    pub(crate) fn clear(&mut self, num_params: usize) {
        self.num_params = num_params;
        self.entries.clear();
        self.grads.clear();
    }

    /// Make room for `rows` candidates in total, with no slack.
    pub(crate) fn reserve_rows(&mut self, rows: usize) {
        let extra = rows.saturating_sub(self.entries.len());
        self.entries.reserve_exact(extra);
        self.grads.reserve_exact(extra * self.num_params);
    }

    /// Append a fresh candidate for `key` with empty statistics.
    pub(crate) fn push(&mut self, key: CandidateKey) {
        self.reserve_rows(self.len() + 1);
        self.entries.push(SplitCandidate {
            key,
            loss_sum: 0.0,
            count: 0,
            last_gain: f64::NEG_INFINITY,
        });
        self.grads.resize(self.grads.len() + self.num_params, 0.0);
    }

    /// Append `candidate` with the left-child gradient `grad`.
    pub(crate) fn push_row(&mut self, candidate: SplitCandidate, grad: &[f64]) {
        debug_assert_eq!(grad.len(), self.num_params);
        self.reserve_rows(self.len() + 1);
        self.entries.push(candidate);
        self.grads.extend_from_slice(grad);
    }

    /// Overwrite the candidate at `row` with `candidate` and its left-child
    /// gradient `grad`.
    pub(crate) fn set_row(&mut self, row: usize, candidate: SplitCandidate, grad: &[f64]) {
        self.entries[row] = candidate;
        let span = self.span(row);
        self.grads[span].copy_from_slice(grad);
    }

    /// Add one batch's left-subset sums to the candidate at `row`: `loss`,
    /// `count` rows and the gradient sum `grad`.
    #[inline]
    pub(crate) fn add(&mut self, row: usize, loss: f64, count: u64, grad: &[f64]) {
        let entry = &mut self.entries[row];
        entry.loss_sum += loss;
        entry.count += count;
        let span = self.span(row);
        linalg::add_assign(&mut self.grads[span], grad);
    }

    /// Set every candidate's `last_gain` to `gain(candidate, gradient)`.
    pub(crate) fn refresh_gains(&mut self, gain: impl Fn(&SplitCandidate, &[f64]) -> f64) {
        let k = self.num_params;
        for (row, entry) in self.entries.iter_mut().enumerate() {
            entry.last_gain = gain(entry, &self.grads[row * k..(row + 1) * k]);
        }
    }

    /// Keep the `cap` candidates with the best `last_gain` (a NaN gain
    /// counts as the worst, and of equal gains the earlier in pool order is
    /// kept), in pool order, and shrink both allocations to `cap` rows.
    pub(crate) fn trim_to(&mut self, cap: usize) {
        let rank = |c: &SplitCandidate| {
            if c.last_gain.is_nan() {
                f64::NEG_INFINITY
            } else {
                c.last_gain
            }
        };
        while self.entries.len() > cap {
            let mut worst = 0;
            for (row, entry) in self.entries.iter().enumerate().skip(1) {
                if rank(entry) <= rank(&self.entries[worst]) {
                    worst = row;
                }
            }
            self.entries.remove(worst);
            let span = self.span(worst);
            self.grads.drain(span);
        }
        self.entries.shrink_to(cap);
        self.grads.shrink_to(cap * self.num_params);
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
        let mut stored = CandidatePool::new(2);
        for &key in &first {
            stored.push(key);
        }
        let second = propose_from_batch(&rows, &[false], &stored);
        assert!(
            second.is_empty(),
            "identical batch should propose nothing new"
        );
    }

    #[test]
    fn trim_keeps_the_best_candidates_in_pool_order() {
        // Gains by pool position; feature ids tag the rows, and each row's
        // gradient repeats its id.
        let gains = [0.5, f64::NAN, 2.0, 0.5, -1.0, 2.0, 0.5];
        let mut pool = CandidatePool::new(2);
        for (row, _) in gains.iter().enumerate() {
            pool.push(CandidateKey {
                feature: row,
                value: 0.0,
                is_nominal: false,
            });
            pool.add(row, 0.0, 0, &[row as f64, row as f64]);
        }
        pool.refresh_gains(|c, _| gains[c.key.feature]);
        let kept = |pool: &CandidatePool| pool.iter().map(|c| c.key.feature).collect::<Vec<_>>();
        let row_bytes = std::mem::size_of::<SplitCandidate>() + 2 * 8;

        // Of the three 0.5 gains the earliest two survive a cut to four;
        // NaN counts as the worst gain.
        pool.trim_to(4);
        assert_eq!(kept(&pool), [0, 2, 3, 5]);
        for (row, c) in pool.iter().enumerate() {
            let id = c.key.feature as f64;
            assert_eq!(pool.grad(row), [id, id]);
        }
        assert_eq!(pool.memory_bytes(), 4 * row_bytes);

        pool.trim_to(1);
        assert_eq!(kept(&pool), [2]);
        assert_eq!(pool.grad(0), [2.0, 2.0]);
        assert_eq!(pool.memory_bytes(), row_bytes);

        // A pool already within the cap keeps its rows and shrinks only
        // its allocation.
        let mut roomy = CandidatePool::new(2);
        roomy.reserve_rows(6);
        roomy.push(CandidateKey {
            feature: 9,
            value: 0.0,
            is_nominal: false,
        });
        roomy.trim_to(3);
        assert_eq!(kept(&roomy), [9]);
        assert_eq!(roomy.memory_bytes(), 3 * row_bytes);
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
    fn constant_feature_proposes_single_threshold() {
        let xs: Vec<Vec<f64>> = (0..10).map(|_| vec![0.5]).collect();
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        let proposals = propose_from_batch(&rows, &[false], &[]);
        assert_eq!(proposals.len(), 1);
        assert_eq!(proposals[0].value, 0.5);
    }
}
