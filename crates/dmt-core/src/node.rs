//! Node statistics, loss-based gains and the arena-based learning procedure
//! of the Dynamic Model Tree.
//!
//! The tree structure itself lives in [`crate::arena::NodeArena`]; this
//! module owns the per-node payload ([`NodeStats`]) and the crate-internal
//! recursive batch learning procedure (`learn_at`) that walks the arena by
//! [`NodeId`], routing each node's sub-batch with a stable in-place index
//! partition.
//!
//! Stored and proposed split candidates are rows of [`CandidatePool`]s:
//! admission copies rows, and a split reads the winner's row in place.

use std::collections::HashMap;

use dmt_models::linalg::{self, MatMut, MatRef};
use dmt_models::memory::vec_bytes;
use dmt_models::{Glm, MemoryUsage, SimpleModel as _};

use crate::arena::{NodeArena, NodeId};
use crate::candidate::{CandidateKey, CandidatePool, SplitCandidate};
use crate::scratch::UpdateScratch;
use crate::tree::DmtConfig;

/// Maximum number of distinct category codes per nominal column for which
/// the bucket pass resolves codes by linearly scanning the dense key vector.
/// Beyond this the remaining rows of the batch resolve through a pooled
/// hashed index instead: declared low-cardinality columns keep the scan's
/// cache-friendly O(categories) probe, while an id-like column (~unique
/// values per row) stays O(batch) instead of degrading to O(batch²).
pub(crate) const NOMINAL_LINEAR_SCAN_MAX: usize = 16;

/// The structural decision taken at a node after a batch (exposed for tests,
/// ablations and interpretability traces).
#[derive(Debug, Clone, PartialEq)]
pub enum GainDecision {
    /// No structural change.
    Keep,
    /// A leaf was split on the given candidate with the given gain.
    Split {
        /// The installed split.
        key: CandidateKey,
        /// The gain (eq. 3) that justified the split.
        gain: f64,
    },
    /// An inner node's subtree was replaced by a fresh split.
    Replace {
        /// The newly installed split.
        key: CandidateKey,
        /// The gain (eq. 4) that justified the replacement.
        gain: f64,
    },
    /// An inner node was collapsed back into a leaf.
    Prune {
        /// The gain (eq. 5) that justified the prune.
        gain: f64,
    },
}

/// Which value source feeds the inner-node routing test during learning.
///
/// Both variants select bit-identical row sets — the gathered matrix holds
/// exact copies of the instance rows — so the learned trees are pinned
/// bit-for-bit against each other by property tests. The per-instance form
/// exists purely as the reference the hot path is validated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Routing {
    /// Read the tested feature out of the contiguous matrix the node update
    /// just gathered (hot path: no pointer chase per instance), and hand
    /// the presorted numeric columns down to the children.
    Gathered,
    /// Re-read the tested feature through the original row pointer, exactly
    /// as a one-instance-at-a-time descent would, and sort every node's
    /// numeric columns afresh (reference path).
    PerInstance,
}

/// The budget ladder's two levers on the learn path (see
/// [`DmtConfig::memory_budget_bytes`]). An unbudgeted tree passes a pool
/// cap of `max_candidates(m)`, which caps nothing; a lone node's update
/// outside a tree passes [`Levers::UNBOUNDED`]'s.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Levers {
    /// The most candidates a node's pool may hold (rung 1). Pools hold at
    /// most `min(max_candidates(m), pool_cap)`.
    pub(crate) pool_cap: usize,
    /// `false` while growth is frozen (rung 5): no new splits and no
    /// replacements, the only structural moves that allocate.
    pub(crate) allow_growth: bool,
}

impl Levers {
    /// No cap below `max_candidates(m)` and growth allowed.
    pub(crate) const UNBOUNDED: Levers = Levers {
        pool_cap: usize::MAX,
        allow_growth: true,
    };
}

/// Per-node accumulated statistics: the simple model, the loss/gradient sums
/// over the node's current time window and the stored split candidates.
#[derive(Debug, Clone)]
pub struct NodeStats {
    /// The node's simple model (logit / softmax GLM), §V-A.
    pub model: Glm,
    /// Accumulated negative log-likelihood `L(Θ_St, Y_St, X_St)`.
    pub loss_sum: f64,
    /// Accumulated gradient `∇ L(Θ_St, Y_St, X_St)`.
    pub grad_sum: Vec<f64>,
    /// Number of observations in the current window `|S_t|`.
    pub count: u64,
    /// Stored split candidates: at most `3·m` by default, fewer while a
    /// binding memory budget holds the pool cap lower.
    pub candidates: CandidatePool,
}

impl MemoryUsage for NodeStats {
    /// Heap bytes of the leaf model parameters, the gradient accumulator and
    /// the candidate pool (capacity-based).
    fn memory_bytes(&self) -> usize {
        self.model.memory_bytes() + vec_bytes(&self.grad_sum) + self.candidates.memory_bytes()
    }
}

impl NodeStats {
    /// Create statistics around an existing simple model.
    pub fn new(model: Glm) -> Self {
        let params = model.num_params();
        Self {
            model,
            loss_sum: 0.0,
            grad_sum: vec![0.0; params],
            count: 0,
            candidates: CandidatePool::new(params),
        }
    }

    /// A zero-parameter placeholder payload that performs no heap allocation
    /// (empty model, empty gradient buffer). It fills every free-listed slot
    /// (freed by a prune or replace, or restored from a snapshot) and the
    /// slots whose payloads [`NodeArena::compact`] moves out; a placeholder
    /// is never read before being overwritten.
    pub(crate) fn placeholder() -> Self {
        Self::new(Glm::placeholder())
    }

    /// A payload that holds only `model`: an empty window and an empty
    /// candidate pool, neither allocated. What a leaf keeps in a
    /// predict-only view ([`crate::PredictView`]).
    pub(crate) fn model_only(model: Glm) -> Self {
        let params = model.num_params();
        Self {
            model,
            loss_sum: 0.0,
            grad_sum: Vec::new(),
            count: 0,
            candidates: CandidatePool::new(params),
        }
    }

    /// Reset the accumulation window (after a structural change) while
    /// keeping the trained model parameters.
    pub fn reset_window(&mut self) {
        self.loss_sum = 0.0;
        self.grad_sum.iter_mut().for_each(|g| *g = 0.0);
        self.count = 0;
        self.candidates.clear(self.model.num_params());
    }

    /// Number of free parameters `k` of the node's simple model.
    pub fn k(&self) -> usize {
        self.model.num_params()
    }

    /// Drop the stored candidate pool and return its backing allocations
    /// to the allocator. Second rung of the budget ladder, once the pool
    /// cap is at its floor: the next batch re-proposes the pool from
    /// scratch, so the node's split and replace checks restart from one
    /// batch of candidate statistics. That costs model quality as well as
    /// adaptation latency, which is why the cap comes first.
    pub(crate) fn shed_candidates(&mut self) {
        self.candidates = CandidatePool::new(self.k());
    }

    /// First-order candidate-loss approximation of eq. (7):
    /// `L(Θ_C) ≈ L(Θ_S on C) − (λ/|C|)·‖∇L(Θ_S on C)‖²`.
    pub fn child_loss_approx(loss_sum: f64, grad_sum: &[f64], count: u64, lr: f64) -> f64 {
        if count == 0 {
            return 0.0;
        }
        loss_sum - lr / count as f64 * linalg::norm_sq(grad_sum)
    }

    /// Gain (3) of splitting observations with statistics `(node_loss_sum,
    /// node_grad_sum, node_count)` on `candidate` with left-child gradient
    /// `grad`, measured against an arbitrary `reference_loss`. Free function
    /// form so callers can iterate the candidate pool mutably while
    /// borrowing the node accumulators.
    ///
    /// The right-child gradient norm is computed directly from the difference
    /// of the accumulators ([`linalg::sub_norm_sq`]), so no intermediate
    /// vector is materialised — this runs once per stored candidate per batch
    /// and must stay allocation-free.
    fn gain_against(
        node_loss_sum: f64,
        node_grad_sum: &[f64],
        node_count: u64,
        candidate: &SplitCandidate,
        grad: &[f64],
        reference_loss: f64,
        lr: f64,
    ) -> Option<f64> {
        if candidate.count == 0 || candidate.count >= node_count {
            return None;
        }
        let left_approx = Self::child_loss_approx(candidate.loss_sum, grad, candidate.count, lr);
        let right_loss = node_loss_sum - candidate.loss_sum;
        let right_count = node_count - candidate.count;
        let right_norm_sq = linalg::sub_norm_sq(node_grad_sum, grad);
        let right_approx = right_loss - lr / right_count as f64 * right_norm_sq;
        Some(reference_loss - left_approx - right_approx)
    }

    /// Index and gain (3) of the best stored candidate relative to
    /// `reference_loss` (the node's own loss for leaf splits, the subtree
    /// leaf-loss sum for inner-node replacements). A candidate that routes
    /// everything to one side has no gain.
    pub fn best_candidate(&self, reference_loss: f64, lr: f64) -> Option<(usize, f64)> {
        let (loss_sum, grad_sum, count) = (self.loss_sum, &self.grad_sum, self.count);
        let mut best: Option<(usize, f64)> = None;
        for (i, candidate) in self.candidates.iter().enumerate() {
            let grad = self.candidates.grad(i);
            let gain = Self::gain_against(
                loss_sum,
                grad_sum,
                count,
                candidate,
                grad,
                reference_loss,
                lr,
            );
            if let Some(gain) = gain {
                if best.is_none_or(|(_, g)| gain > g) {
                    best = Some((i, gain));
                }
            }
        }
        best
    }

    /// Incorporate a batch into this node: accumulate the node and candidate
    /// statistics, manage the candidate pool, and finally take one SGD step
    /// on the node model (Algorithm 1 lines 1–10 plus §V-D).
    ///
    /// Convenience wrapper over [`NodeStats::update_with_batch_indexed`] that
    /// allocates its own scratch space; the tree's hot path goes through the
    /// indexed form with a shared [`UpdateScratch`] instead.
    pub fn update_with_batch(
        &mut self,
        xs: &[&[f64]],
        ys: &[usize],
        nominal_features: &[bool],
        config: &DmtConfig,
    ) {
        let indices: Vec<usize> = (0..xs.len()).collect();
        let mut scratch = UpdateScratch::new();
        self.update_with_batch_indexed(xs, ys, &indices, nominal_features, config, &mut scratch);
    }

    /// [`NodeStats::update_with_batch`] over the sub-batch selected by `idx`
    /// (indices into `xs`/`ys`), with all intermediates written into the
    /// reusable `scratch` buffers — the steady-state path performs no heap
    /// allocation per instance.
    ///
    /// The routed sub-batch is gathered into the scratch space's contiguous
    /// row-major matrix once and its numeric columns are sorted; a single
    /// batched model pass then produces every per-row loss and gradient (one
    /// enum dispatch per node instead of one per instance), the node and
    /// candidate accumulators are fed from that shared gradient buffer, and
    /// the final SGD sweep runs through
    /// [`dmt_models::SimpleModel::learn_batch_into`] in the configured
    /// [`dmt_models::BatchMode`]. Inside the tree only the node that starts a
    /// descent sorts; the nodes below inherit their parent's sorted rows
    /// (the crate's `learn_at` recursion) and produce bit-identical
    /// statistics.
    pub fn update_with_batch_indexed(
        &mut self,
        xs: &[&[f64]],
        ys: &[usize],
        idx: &[usize],
        nominal_features: &[bool],
        config: &DmtConfig,
        scratch: &mut UpdateScratch,
    ) {
        if idx.is_empty() {
            return;
        }
        scratch.gather(xs, ys, idx);
        sort_columns(scratch, xs[idx[0]].len(), nominal_features);
        let pool_cap = Levers::UNBOUNDED.pool_cap;
        self.update_gathered(nominal_features, config, scratch, 0, pool_cap);
    }

    /// The node update over the non-empty sub-batch already gathered into
    /// `scratch.xbuf`/`scratch.ybuf`, whose rows sorted by every numeric
    /// column sit at `offset` of each `scratch.orders` stripe. The pool
    /// holds at most `pool_cap` candidates afterwards.
    fn update_gathered(
        &mut self,
        nominal_features: &[bool],
        config: &DmtConfig,
        scratch: &mut UpdateScratch,
        offset: usize,
        pool_cap: usize,
    ) {
        let k = self.model.num_params();
        let b = scratch.ybuf.len();
        let m = scratch.xbuf.len() / b;
        scratch.prepare_node(b, k, self.model.num_classes());
        // Split the scratch space into disjoint borrows: the gathered batch
        // is read through matrix views while the per-row outputs are written.
        let UpdateScratch {
            losses,
            grads,
            grad_buf,
            class_buf,
            values_buf,
            xbuf,
            ybuf,
            orders,
            order_stride,
            boundaries,
            acc_buf,
            proposals_buf,
            admit_order,
            bucket_keys,
            bucket_losses,
            bucket_counts,
            bucket_grads,
            bucket_lookup,
            cand_order,
            cand_start,
            ..
        } = scratch;
        let xmat = MatRef::new(xbuf, b, m);

        // Per-instance loss and gradient at the *current* parameters
        // (lines 1–3), one batched kernel pass: row `row` of the gradient
        // matrix belongs to instance `idx[row]`.
        self.model.loss_and_gradient_batch_into(
            xmat,
            ybuf,
            losses,
            MatMut::new(grads, b, k),
            class_buf,
        );
        let gradmat = MatRef::new(grads, b, k);
        for (row, &loss) in losses.iter().enumerate() {
            self.loss_sum += loss;
            linalg::add_assign(&mut self.grad_sum, gradmat.row(row));
        }
        self.count += b as u64;

        // Candidate proposal (§V-D) and accumulation (lines 6–10) in ONE
        // combined pass per feature, fed from the batched gradient buffer of
        // the model pass above: numeric features read their presorted rows
        // and serve both the quantile proposals and a boundary sweep that
        // hands every candidate its left-prefix sums; nominal features build
        // per-category bucket accumulators that serve both the distinct-code
        // proposals and the candidate sums. The proposals fill a pool of
        // their own in the scratch space, whose slab keeps its capacity, so
        // the whole pass is allocation-free in steady state.
        proposals_buf.clear(k);
        Self::group_candidates(&self.candidates, m, cand_order, cand_start);
        Self::propose_and_accumulate(
            &mut self.candidates,
            proposals_buf,
            xmat,
            nominal_features,
            losses,
            gradmat,
            Sorted {
                orders,
                stride: *order_stride,
                offset,
            },
            CandidateGroups {
                order: cand_order,
                start: cand_start,
            },
            values_buf,
            boundaries,
            acc_buf,
            bucket_keys,
            bucket_losses,
            bucket_counts,
            bucket_grads,
            bucket_lookup,
        );

        // Refresh the gain estimates of the stored candidates and the
        // proposals, both against the node's own loss. Borrowing the
        // accumulator fields directly lets the pool be updated in place.
        let lr = config.learning_rate;
        let (loss_sum, grad_sum, count) = (self.loss_sum, &self.grad_sum, self.count);
        let gain = |candidate: &SplitCandidate, grad: &[f64]| {
            Self::gain_against(loss_sum, grad_sum, count, candidate, grad, loss_sum, lr)
                .unwrap_or(f64::NEG_INFINITY)
        };
        self.candidates.refresh_gains(gain);
        proposals_buf.refresh_gains(gain);

        // Candidate pool management (§V-D): let the freshly proposed
        // candidates displace at most `replacement_rate` of the pool.
        self.manage_candidate_pool(m, config, pool_cap, proposals_buf, admit_order);

        // Finally, train the simple model with constant-learning-rate SGD
        // over the gathered batch (§V-A); `config.batch_mode` selects the
        // per-instance reference sweep or the windowed batched kernel. The
        // sweep computes residuals only: the pre-update losses Algorithm 1
        // accumulates came from the pass above.
        self.model.learn_batch_into(
            xmat,
            ybuf,
            config.learning_rate,
            config.batch_mode,
            grad_buf,
            class_buf,
        );
    }

    /// Group the stored candidates by feature with a counting sort of their
    /// indices that keeps pool order inside each group. Afterwards group `f`
    /// is `order[start[f]..start[f + 1]]`: the counts go to `start[f + 2]`,
    /// the prefix sum turns `start[f + 1]` into the first slot of group `f`,
    /// and using that entry as `f`'s fill cursor leaves it at the group's
    /// end, which is where group `f + 1` begins. Candidates testing a
    /// feature the batch does not have (`feature ≥ m`) join no group, just
    /// as the per-feature passes never reached them.
    fn group_candidates(
        candidates: &CandidatePool,
        m: usize,
        order: &mut Vec<u32>,
        start: &mut Vec<u32>,
    ) {
        start.clear();
        start.resize(m + 2, 0);
        for candidate in candidates.iter().filter(|c| c.key.feature < m) {
            start[candidate.key.feature + 2] += 1;
        }
        for f in 2..m + 2 {
            start[f] += start[f - 1];
        }
        order.clear();
        order.resize(start[m + 1] as usize, 0);
        for (i, candidate) in candidates.iter().enumerate() {
            if candidate.key.feature < m {
                let cursor = &mut start[candidate.key.feature + 1];
                order[*cursor as usize] = i as u32;
                *cursor += 1;
            }
        }
    }

    /// Whether `key` already exists among the stored candidates of its
    /// feature (`group`, indices into `candidates`) or among this feature's
    /// fresh `proposals` (within the [`CandidateKey::same_as`] tolerance,
    /// which never matches across features).
    fn already_stored(
        candidates: &CandidatePool,
        group: &[u32],
        proposals: &[SplitCandidate],
        key: &CandidateKey,
    ) -> bool {
        group
            .iter()
            .any(|&c| candidates[c as usize].key.same_as(key))
            || proposals.iter().any(|p| p.key.same_as(key))
    }

    /// Combined per-feature proposal + accumulation pass over the batched
    /// loss/gradient buffers, appending fresh proposals to `proposals`:
    ///
    /// * **Numeric features**: the node's rows sorted by
    ///   [`numeric_sort_key`] come out of the feature's presorted stripe
    ///   (`sorted`); the 25 %/50 %/75 % order statistics of that order
    ///   become the proposals (§V-D, same values a full sort or O(n)
    ///   selection picks), and one *boundary sweep* walks the sorted rows
    ///   with a running loss/gradient accumulator, handing every candidate
    ///   its left-prefix sums the moment the sweep crosses its threshold —
    ///   no prefix arrays are materialised and the sweep stops at the last
    ///   boundary.
    /// * **Nominal features**: per-category bucket accumulators — one scan
    ///   assigns every row's loss/gradient to its category's bucket
    ///   (categories matched by exact bit pattern), the sorted distinct
    ///   codes become the proposals, and each equality candidate sums the
    ///   buckets passing its [`CandidateKey::test_value`] tolerance.
    ///   O(batch · categories) index work instead of the former
    ///   O(batch log batch) float sort with an O(batch · k) prefix build —
    ///   the Agrawal hot spot. Codes resolve by a linear scan up to
    ///   [`NOMINAL_LINEAR_SCAN_MAX`] distinct values (the declared
    ///   low-cardinality regime) and through a pooled hashed index beyond
    ///   it, so even an id-like column with ~unique values stays O(batch)
    ///   per feature instead of degrading to O(batch²).
    ///
    /// Both paths visit only the stored candidates of the current feature
    /// (`groups`, built by [`Self::group_candidates`]) and select the
    /// identical row set as a per-row scan with [`CandidateKey::goes_left`]
    /// (pinned by tests); only the floating-point summation order differs.
    /// Every sum reaches a candidate or proposal through
    /// [`CandidatePool::add`].
    #[allow(clippy::too_many_arguments)] // threaded scratch buffers, not state
    fn propose_and_accumulate(
        candidates: &mut CandidatePool,
        proposals: &mut CandidatePool,
        xs: MatRef<'_>,
        nominal_features: &[bool],
        losses: &[f64],
        grads: MatRef<'_>,
        sorted: Sorted<'_>,
        groups: CandidateGroups<'_>,
        values_buf: &mut Vec<f64>,
        boundaries: &mut Vec<(u32, u32)>,
        acc_buf: &mut Vec<f64>,
        bucket_keys: &mut Vec<f64>,
        bucket_losses: &mut Vec<f64>,
        bucket_counts: &mut Vec<u64>,
        bucket_grads: &mut Vec<f64>,
        bucket_lookup: &mut HashMap<u64, u32>,
    ) {
        /// Tag bit marking a boundary that belongs to the proposal list.
        const PROPOSAL_TAG: u32 = 1 << 31;
        let b = xs.rows();
        let m = xs.cols();
        let k = grads.cols();
        let data = xs.as_slice();
        let cmp_f64 = |a: &f64, b: &f64| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal);
        let mut stripe = 0usize;
        for feature in 0..m {
            let proposal_start = proposals.len();
            let group = groups.of(feature);
            if nominal_features.get(feature).copied().unwrap_or(false) {
                // Bucket pass: one accumulator per distinct category code in
                // the batch, filled in row order. Categories are matched by
                // exact bit pattern (NaNs bucket together and never pass a
                // candidate's test), so a candidate owning a single category
                // accumulates in the exact order of the per-row reference.
                bucket_keys.clear();
                bucket_losses.clear();
                bucket_counts.clear();
                bucket_grads.clear();
                bucket_lookup.clear();
                for r in 0..b {
                    let v = data[r * m + feature];
                    let bits = v.to_bits();
                    // Codes resolve by a linear scan while the column looks
                    // low-cardinality; past NOMINAL_LINEAR_SCAN_MAX distinct
                    // codes the remaining rows go through the pooled hashed
                    // index (lazily topped up from the key vector, which the
                    // map always covers as an insertion-ordered prefix). The
                    // map is only looked up, never iterated, so the switch
                    // cannot change any accumulated value.
                    let existing = if bucket_lookup.is_empty()
                        && bucket_keys.len() <= NOMINAL_LINEAR_SCAN_MAX
                    {
                        bucket_keys.iter().position(|u| u.to_bits() == bits)
                    } else {
                        if bucket_lookup.len() < bucket_keys.len() {
                            for (j, key) in bucket_keys.iter().enumerate().skip(bucket_lookup.len())
                            {
                                bucket_lookup.insert(key.to_bits(), j as u32);
                            }
                        }
                        bucket_lookup.get(&bits).map(|&j| j as usize)
                    };
                    let j = match existing {
                        Some(j) => j,
                        None => {
                            bucket_keys.push(v);
                            bucket_losses.push(0.0);
                            bucket_counts.push(0);
                            bucket_grads.resize(bucket_keys.len() * k, 0.0);
                            bucket_keys.len() - 1
                        }
                    };
                    bucket_losses[j] += losses[r];
                    bucket_counts[j] += 1;
                    let row = grads.row(r);
                    let out = &mut bucket_grads[j * k..(j + 1) * k];
                    for (o, &g) in out.iter_mut().zip(row.iter()) {
                        *o += g;
                    }
                }
                // Proposals: every distinct category code seen in the batch
                // (§V-D), sorted with the same tolerance dedup the full-sort
                // path produced.
                values_buf.clear();
                values_buf.extend_from_slice(bucket_keys);
                values_buf.sort_by(cmp_f64);
                values_buf.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
                values_buf.retain(|v| v.is_finite());
                for &value in values_buf.iter() {
                    let key = CandidateKey {
                        feature,
                        value,
                        is_nominal: true,
                    };
                    let fresh = &proposals[proposal_start..];
                    if !Self::already_stored(candidates, group, fresh, &key) {
                        proposals.push(key);
                    }
                }
                for &ci in group {
                    Self::add_bucket_stats(
                        candidates,
                        ci as usize,
                        bucket_keys,
                        bucket_losses,
                        bucket_counts,
                        bucket_grads,
                        k,
                    );
                }
                for row in proposal_start..proposals.len() {
                    Self::add_bucket_stats(
                        proposals,
                        row,
                        bucket_keys,
                        bucket_losses,
                        bucket_counts,
                        bucket_grads,
                        k,
                    );
                }
            } else {
                // The node's rows ordered by this feature column, from the
                // presorted stripe (NaNs sort past +inf and are never
                // proposed as split values).
                let order = sorted.stripe(stripe, b);
                stripe += 1;
                let key_of = |r: u32| numeric_sort_key(data[r as usize * m + feature]);
                // Proposals: the 25 %/50 %/75 % order statistics of the batch
                // (§V-D), with the quantile-path dedup tolerances.
                let value_at = |i: usize| data[order[i] as usize * m + feature];
                values_buf.clear();
                values_buf.extend([
                    value_at(b / 4),
                    value_at(b / 2),
                    value_at((3 * b / 4).min(b - 1)),
                ]);
                values_buf.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
                values_buf.retain(|v| v.is_finite());
                for &value in values_buf.iter() {
                    let key = CandidateKey {
                        feature,
                        value,
                        is_nominal: false,
                    };
                    let fresh = &proposals[proposal_start..];
                    if !Self::already_stored(candidates, group, fresh, &key) {
                        proposals.push(key);
                    }
                }
                // Boundary sweep: every candidate's left subset is the sorted
                // prefix up to its threshold. Collect the prefix lengths,
                // then walk the sorted rows once with a running accumulator,
                // emitting at each boundary; the bound uses exactly the
                // arithmetic of `test_value`, so the selected row set matches
                // per-row routing bit-for-bit.
                boundaries.clear();
                for &ci in group {
                    let threshold = numeric_sort_key(candidates[ci as usize].key.value);
                    let hi = order.partition_point(|&r| key_of(r) <= threshold);
                    if hi > 0 {
                        boundaries.push((hi as u32, ci));
                    }
                }
                for row in proposal_start..proposals.len() {
                    let threshold = numeric_sort_key(proposals[row].key.value);
                    let hi = order.partition_point(|&r| key_of(r) <= threshold);
                    if hi > 0 {
                        boundaries.push((hi as u32, row as u32 | PROPOSAL_TAG));
                    }
                }
                boundaries.sort_unstable();
                acc_buf.clear();
                acc_buf.resize(k, 0.0);
                let mut acc_loss = 0.0;
                let mut swept = 0usize;
                for &(hi, tag) in boundaries.iter() {
                    for &r in &order[swept..hi as usize] {
                        acc_loss += losses[r as usize];
                        linalg::add_assign(acc_buf, grads.row(r as usize));
                    }
                    swept = hi as usize;
                    let (pool, row) = if tag & PROPOSAL_TAG != 0 {
                        (&mut *proposals, tag & !PROPOSAL_TAG)
                    } else {
                        (&mut *candidates, tag)
                    };
                    pool.add(row as usize, acc_loss, u64::from(hi), acc_buf);
                }
            }
        }
    }

    /// Add one batch's left-subset statistics to the *nominal* candidate at
    /// `row` of `pool` from the per-category buckets: every bucket whose
    /// category code passes [`CandidateKey::test_value`] contributes its
    /// sums.
    fn add_bucket_stats(
        pool: &mut CandidatePool,
        row: usize,
        bucket_keys: &[f64],
        bucket_losses: &[f64],
        bucket_counts: &[u64],
        bucket_grads: &[f64],
        k: usize,
    ) {
        let key = pool[row].key;
        debug_assert!(key.is_nominal, "numeric candidates use prefixes");
        for (j, &code) in bucket_keys.iter().enumerate() {
            if key.test_value(code) {
                let g = &bucket_grads[j * k..(j + 1) * k];
                pool.add(row, bucket_losses[j], bucket_counts[j], g);
            }
        }
    }

    /// Candidate pool management (§V-D): rank the gain-scored proposals and
    /// let them displace at most `replacement_rate` of the stored pool,
    /// whose size is `max_candidates(m)` or the lower `pool_cap`.
    /// `order` receives the proposal indices by descending gain; the sort is
    /// stable, so proposals of equal gain keep their proposal order.
    fn manage_candidate_pool(
        &mut self,
        num_features: usize,
        config: &DmtConfig,
        pool_cap: usize,
        proposals: &CandidatePool,
        order: &mut Vec<u32>,
    ) {
        let max_candidates = config.max_candidates(num_features).min(pool_cap);
        let max_replacements = ((max_candidates as f64) * config.replacement_rate).ceil() as usize;

        if proposals.is_empty() {
            return;
        }
        order.clear();
        order.extend(0..proposals.len() as u32);
        order.sort_by(|&a, &b| {
            proposals[b as usize]
                .last_gain
                .partial_cmp(&proposals[a as usize].last_gain)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        admit_proposals(
            &mut self.candidates,
            proposals,
            order,
            max_candidates,
            max_replacements,
        );
    }
}

/// The node's rows presorted by every numeric column: stripe `s` (the
/// `s`-th numeric feature) holds them at `orders[s · stride + offset..][..rows]`.
#[derive(Clone, Copy)]
struct Sorted<'a> {
    orders: &'a [u32],
    stride: usize,
    offset: usize,
}

impl<'a> Sorted<'a> {
    /// The node's `rows` rows in the order of numeric stripe `stripe`.
    fn stripe(self, stripe: usize, rows: usize) -> &'a [u32] {
        let start = stripe * self.stride + self.offset;
        &self.orders[start..start + rows]
    }
}

/// The stored candidates grouped by feature (see
/// [`NodeStats::group_candidates`]).
#[derive(Clone, Copy)]
struct CandidateGroups<'a> {
    order: &'a [u32],
    start: &'a [u32],
}

impl<'a> CandidateGroups<'a> {
    /// Pool indices of the stored candidates testing `feature`, in pool order.
    fn of(self, feature: usize) -> &'a [u32] {
        &self.order[self.start[feature] as usize..self.start[feature + 1] as usize]
    }
}

/// Order-preserving `u64` key of an `f64` feature value: the sort over
/// these keys is a branchless integer sort with the same value order as
/// `partial_cmp` on finite floats. `-0.0` is normalised onto `+0.0` (they
/// compare equal as floats), and every NaN — regardless of sign bit — maps
/// to `u64::MAX`, past `+inf`. Split thresholds are always finite
/// (proposals drop non-finite values), so the boundary search
/// `t(v) <= t(threshold)` selects exactly the rows with `v <= threshold` —
/// the arithmetic of [`CandidateKey::test_value`], which NaN rows never
/// pass.
#[inline]
fn numeric_sort_key(v: f64) -> u64 {
    if v.is_nan() {
        return u64::MAX;
    }
    let bits = (v + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 0x8000_0000_0000_0000
    }
}

/// The replacement loop of candidate pool management over the proposals
/// taken in `order` (descending gain): fill the pool up to `max_candidates`,
/// then let each proposal displace the worst stored candidate (the first one
/// with the least gain) if it beats it, at most `max_replacements` times.
/// Admission copies the proposal's row into the pool. The first admission
/// into a pool reserves it to exactly `max_candidates` rows (the pool cap
/// when a budget lowers it), so a shed pool regrows with two allocations.
///
/// The loop stops at the first proposal that cannot beat the worst stored
/// candidate: the pool is then unchanged, so the worst gain is too, and
/// every later proposal's gain is no larger (the sort puts no NaN gain
/// among them — with one, every proposal is tried). It also stops once the
/// replacements are used up. Both exits leave the pool exactly as the full
/// loop does, which saves one pool min-scan per remaining proposal.
fn admit_proposals(
    pool: &mut CandidatePool,
    proposals: &CandidatePool,
    order: &[u32],
    max_candidates: usize,
    max_replacements: usize,
) {
    let ordered = proposals.iter().all(|p| !p.last_gain.is_nan());
    let mut replacements_used = 0usize;
    for &p in order {
        let (proposal, grad) = (proposals[p as usize], proposals.grad(p as usize));
        if pool.len() < max_candidates {
            pool.reserve_rows(max_candidates);
            pool.push_row(proposal, grad);
            continue;
        }
        if replacements_used >= max_replacements {
            return;
        }
        // Find the currently worst stored candidate.
        let worst = pool.iter().enumerate().min_by(|(_, a), (_, b)| {
            a.last_gain
                .partial_cmp(&b.last_gain)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        match worst {
            Some((worst_idx, worst)) if proposal.last_gain > worst.last_gain => {
                pool.set_row(worst_idx, proposal, grad);
                replacements_used += 1;
            }
            _ if ordered => return,
            _ => {}
        }
    }
}

/// Build the two warm-started child models for a split on the stored
/// candidate at `row` (eq. 6: a single gradient step from the parent
/// parameters on each child's subset), reading its statistics in place. The
/// right-child gradient is materialised into the scratch gradient buffer
/// (structural changes are rare, but there is no reason to allocate here
/// either).
fn warm_started_children(
    stats: &NodeStats,
    row: usize,
    lr: f64,
    scratch: &mut UpdateScratch,
) -> (Glm, Glm) {
    let (count, grad) = (stats.candidates[row].count, stats.candidates.grad(row));
    let left = Glm::warm_start_with_gradient(&stats.model, grad, count, lr);
    scratch.grad_buf.clear();
    scratch.grad_buf.resize(stats.grad_sum.len(), 0.0);
    linalg::sub_into(&stats.grad_sum, grad, &mut scratch.grad_buf);
    let right_count = stats.count - count;
    let right = Glm::warm_start_with_gradient(&stats.model, &scratch.grad_buf, right_count, lr);
    (left, right)
}

/// Stable in-place partition of `idx` by the split key of the inner node
/// whose sub-batch was just gathered into `scratch`: left-routed indices form
/// the prefix (returned length), right-routed the suffix, both keeping their
/// relative order. In [`Routing::Gathered`] mode the tested feature is read
/// out of the contiguous matrix the node update just gathered (`xbuf` row
/// `pos` is `xs[idx[pos]]`), avoiding one pointer chase per instance; the
/// [`Routing::PerInstance`] reference re-reads the original row pointers.
///
/// Alongside, `scratch.dest` receives the destination map that
/// [`split_orders`] hands the presorted rows down with: row
/// `pos`'s number inside its child, tagged [`RIGHT_CHILD`] on the right.
fn partition_indices(
    key: &CandidateKey,
    xs: &[&[f64]],
    idx: &mut [usize],
    scratch: &mut UpdateScratch,
    routing: Routing,
    num_features: usize,
) -> usize {
    scratch.partition_buf.clear();
    scratch.dest.clear();
    scratch.dest.reserve_exact(idx.len());
    let mut write = 0usize;
    for pos in 0..idx.len() {
        let i = idx[pos];
        let value = match routing {
            Routing::Gathered => scratch.xbuf[pos * num_features + key.feature],
            Routing::PerInstance => xs[i][key.feature],
        };
        if key.test_value(value) {
            scratch.dest.push(write as u32);
            idx[write] = i;
            write += 1;
        } else {
            scratch
                .dest
                .push(scratch.partition_buf.len() as u32 | RIGHT_CHILD);
            scratch.partition_buf.push(i);
        }
    }
    idx[write..].copy_from_slice(&scratch.partition_buf);
    write
}

/// Tag bit of a destination-map entry whose row was routed to the right
/// child (the untagged rest is the row's number inside that child).
const RIGHT_CHILD: u32 = 1 << 31;

/// Sort every numeric column of the sub-batch gathered into `scratch`
/// (`num_features` columns) into the `orders` stripes, one stripe per
/// numeric feature in feature order, each holding the rows ordered by
/// `(numeric_sort_key, row)`. The pairs are distinct, so the unstable
/// integer sort has exactly one result.
fn sort_columns(scratch: &mut UpdateScratch, num_features: usize, nominal_features: &[bool]) {
    let rows = scratch.ybuf.len();
    let is_numeric = |f: usize| !nominal_features.get(f).copied().unwrap_or(false);
    let UpdateScratch {
        xbuf,
        sort_pairs,
        orders,
        order_stride,
        ..
    } = scratch;
    *order_stride = rows;
    orders.clear();
    orders.reserve_exact((0..num_features).filter(|&f| is_numeric(f)).count() * rows);
    for feature in (0..num_features).filter(|&f| is_numeric(f)) {
        sort_pairs.clear();
        sort_pairs.extend(
            (0..rows).map(|r| (numeric_sort_key(xbuf[r * num_features + feature]), r as u32)),
        );
        sort_pairs.sort_unstable();
        orders.extend(sort_pairs.iter().map(|&(_, r)| r));
    }
}

/// Split the sorted rows of a partitioned node — `rows` rows at `offset` of
/// every stripe, `left_rows` of them routed left — between its children
/// through the destination map [`partition_indices`] left in `scratch`.
/// One stable pass per stripe: right-routed rows are written in place, so
/// the right child keeps the parent's offset, and the left rows follow them
/// from `offset + rows − left_rows`. A stable split of a list sorted by
/// `(key, row)` whose row renumbering is monotone (the routing partition is
/// stable) is again sorted by `(key, row)`, so each child reads exactly the
/// order a sort of its own rows produces.
fn split_orders(scratch: &mut UpdateScratch, offset: usize, rows: usize, left_rows: usize) {
    let right_rows = rows - left_rows;
    let UpdateScratch {
        orders,
        order_stride,
        dest,
        order_pen,
        ..
    } = scratch;
    debug_assert_eq!(dest.len(), rows);
    order_pen.clear();
    order_pen.reserve_exact(left_rows);
    for stripe in orders.chunks_exact_mut((*order_stride).max(1)) {
        let list = &mut stripe[offset..offset + rows];
        order_pen.clear();
        let mut write = 0usize;
        for i in 0..rows {
            let d = dest[list[i] as usize];
            if d & RIGHT_CHILD != 0 {
                list[write] = d & !RIGHT_CHILD;
                write += 1;
            } else {
                order_pen.push(d);
            }
        }
        debug_assert_eq!(write, right_rows);
        list[right_rows..].copy_from_slice(order_pen);
    }
}

/// The structural checks of Algorithm 1 for an *inner* node whose children
/// have already consumed the batch: prune (gain (5)) and replace (gain (4)),
/// thresholded by the AIC test. `leaf_loss` and `num_leaves` are the sum of
/// the leaf losses and the leaf count of `id`'s subtree after the children's
/// own checks, which [`learn_at`] hands up from below. Returns the decision
/// taken at `id`. It runs at the tail of [`learn_at`], after both children's
/// subtrees have learned the batch, and only reads or mutates `id`'s own
/// subtree.
///
/// `allow_growth` is the budget ladder's hard floor: when `false`,
/// replacements are suppressed (they re-allocate child payloads) while prunes
/// — which only ever release memory — still run. Unbudgeted trees always
/// pass `true`, so the flag is inert unless a memory budget is armed.
fn structural_check_inner(
    arena: &mut NodeArena,
    id: NodeId,
    (leaf_loss, num_leaves): (f64, u64),
    config: &DmtConfig,
    scratch: &mut UpdateScratch,
    allow_growth: bool,
) -> GainDecision {
    // Debug builds re-walk the subtree: the handed-up sums must be the very
    // bits the walk produces.
    #[cfg(debug_assertions)]
    if let Some((left, right)) = arena.children(id) {
        let ((ll, lc), (rl, rc)) = (
            arena.subtree_leaf_loss(left),
            arena.subtree_leaf_loss(right),
        );
        debug_assert_eq!(
            (leaf_loss.to_bits(), num_leaves),
            ((ll + rl).to_bits(), lc + rc)
        );
    }
    if arena.stats(id).count < config.min_observations_split {
        return GainDecision::Keep;
    }
    let key = arena.split_key(id);
    let stats = arena.stats(id);
    let k = stats.k();
    let k_subtree = (num_leaves as usize) * k;

    // Gain (5): collapse the subtree into this node.
    let gain_prune = leaf_loss - stats.loss_sum;
    let prune_ok = config.accepts(gain_prune, k, k_subtree);

    // Gain (4): replace the subtree with a fresh split.
    let best_replacement = stats.best_candidate(leaf_loss, config.learning_rate);
    let (replace_ok, replace_gain, replace_idx) = match best_replacement {
        Some((idx, gain)) => (config.accepts(gain, 2 * k, k_subtree), gain, idx),
        None => (false, f64::NEG_INFINITY, 0),
    };

    if prune_ok && (!replace_ok || gain_prune >= replace_gain) {
        // Replace the inner node with a leaf (the smaller model); the
        // collapsed subtree's slots go onto the arena's free list.
        arena.stats_mut(id).reset_window();
        arena.collapse_to_leaf(id);
        return GainDecision::Prune { gain: gain_prune };
    }
    if replace_ok && allow_growth {
        let new_key = stats.candidates[replace_idx].key;
        // Ignore a "replacement" that would re-install the very same
        // split — it would only discard the children's progress without
        // changing the model structure.
        if !new_key.same_as(&key) {
            let (left_model, right_model) =
                warm_started_children(stats, replace_idx, config.learning_rate, scratch);
            arena.stats_mut(id).reset_window();
            // Retire the old subtree first so the fresh children reuse
            // its free-listed slots instead of growing the arena.
            arena.collapse_to_leaf(id);
            arena.install_split(
                id,
                new_key,
                NodeStats::new(left_model),
                NodeStats::new(right_model),
            );
            return GainDecision::Replace {
                key: new_key,
                gain: replace_gain,
            };
        }
    }
    GainDecision::Keep
}

/// Learn the sub-batch selected by `idx` at the arena node `id` and apply
/// the structural checks of Algorithm 1 to the subtree below it. Returns the
/// structural decision taken at `id` itself, and the subtree's leaf-loss sum
/// and leaf count after every check — the values
/// [`NodeArena::subtree_leaf_loss`] computes, from the same additions in the
/// same order — so the parent's checks read them without walking the
/// subtree again. A node the batch does not reach learns nothing and sums
/// its subtree recursively.
///
/// Inner nodes (which keep full statistics and keep training their model —
/// the key difference from FIMT-DD, §IV-D) route instances by stably
/// partitioning `idx` in place: left-routed indices form the prefix,
/// right-routed indices the suffix, so no per-node row batches are
/// materialised and the relative instance order every node observes is
/// identical to processing the original batch order one instance at a time.
/// `routing` selects where the split test reads its feature value from; see
/// [`Routing`].
///
/// `levers` carries the budget ladder's pool cap and its hard floor:
/// `allow_growth == false` suppresses new splits and replacements — the
/// only structural moves that allocate — while statistics keep accumulating
/// and prunes keep running, so a tree pinned at its floor still learns and
/// adapts. Unbudgeted trees never cap a pool below `max_candidates(m)` and
/// always allow growth.
///
/// `inherited` is the offset of this node's rows in the presorted stripes
/// of `scratch.orders`, or `None` when no order is inherited and the node
/// sorts its own numeric columns (the node a descent starts at). In
/// [`Routing::Gathered`] mode an inner node splits its sorted rows between
/// its children ([`split_orders`]), so one column sort per
/// batch serves the whole descent; the [`Routing::PerInstance`] reference
/// sorts at every node instead, which pins the inherited orders against
/// per-node sorts wherever the two paths are compared.
#[allow(clippy::too_many_arguments)] // one recursive hot path, threaded context
pub(crate) fn learn_at(
    arena: &mut NodeArena,
    id: NodeId,
    xs: &[&[f64]],
    ys: &[usize],
    idx: &mut [usize],
    nominal_features: &[bool],
    config: &DmtConfig,
    scratch: &mut UpdateScratch,
    routing: Routing,
    levers: Levers,
    inherited: Option<usize>,
) -> (GainDecision, (f64, u64)) {
    if idx.is_empty() {
        return (GainDecision::Keep, arena.subtree_leaf_loss(id));
    }
    let m = xs[idx[0]].len();
    scratch.gather(xs, ys, idx);
    let offset = match inherited {
        Some(offset) => offset,
        None => {
            sort_columns(scratch, m, nominal_features);
            0
        }
    };
    if arena.is_leaf(id) {
        let stats = arena.stats_mut(id);
        stats.update_gathered(nominal_features, config, scratch, offset, levers.pool_cap);
        // Split check (gain (3) against the AIC threshold).
        if stats.count < config.min_observations_split || !levers.allow_growth {
            return (GainDecision::Keep, (stats.loss_sum, 1));
        }
        if let Some((best_idx, gain)) = stats.best_candidate(stats.loss_sum, config.learning_rate) {
            let k = stats.k();
            if config.accepts(gain, 2 * k, k) {
                let key = stats.candidates[best_idx].key;
                let (left_model, right_model) =
                    warm_started_children(stats, best_idx, config.learning_rate, scratch);
                stats.reset_window();
                arena.install_split(
                    id,
                    key,
                    NodeStats::new(left_model),
                    NodeStats::new(right_model),
                );
                // Two fresh leaves with zeroed windows.
                return (GainDecision::Split { key, gain }, (0.0, 2));
            }
        }
        (GainDecision::Keep, (stats.loss_sum, 1))
    } else {
        // Update the inner node's own statistics and model with the full
        // sub-batch (DMT keeps training inner models, §IV-D). The node
        // update is independent of the children's, so doing it before
        // routing lets the children permute `idx` freely.
        arena.stats_mut(id).update_gathered(
            nominal_features,
            config,
            scratch,
            offset,
            levers.pool_cap,
        );

        // Route the sub-batch to the children: stable in-place partition of
        // the index slice (left prefix, right suffix) using the reusable
        // holding pen, then the same split of every presorted stripe (right
        // rows at this node's offset, left rows after them). Pen and
        // destination map are drained before the recursion, so child
        // partitions can reuse them.
        let key = arena.split_key(id);
        let rows = idx.len();
        let write = partition_indices(&key, xs, idx, scratch, routing, m);
        let (left_order, right_order) = match routing {
            Routing::Gathered => {
                split_orders(scratch, offset, rows, write);
                (Some(offset + rows - write), Some(offset))
            }
            Routing::PerInstance => (None, None),
        };

        let (left, right) = arena.children(id).expect("inner node has children");
        let (left_idx, right_idx) = idx.split_at_mut(write);
        let (_, (left_loss, left_leaves)) = learn_at(
            arena,
            left,
            xs,
            ys,
            left_idx,
            nominal_features,
            config,
            scratch,
            routing,
            levers,
            left_order,
        );
        let (_, (right_loss, right_leaves)) = learn_at(
            arena,
            right,
            xs,
            ys,
            right_idx,
            nominal_features,
            config,
            scratch,
            routing,
            levers,
            right_order,
        );
        let subtree = (left_loss + right_loss, left_leaves + right_leaves);
        let decision =
            structural_check_inner(arena, id, subtree, config, scratch, levers.allow_growth);
        // A prune leaves one reset leaf and a replace two fresh leaves, all
        // with zeroed windows.
        let subtree = match decision {
            GainDecision::Keep => subtree,
            GainDecision::Prune { .. } => (0.0, 1),
            GainDecision::Split { .. } | GainDecision::Replace { .. } => (0.0, 2),
        };
        (decision, subtree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> DmtConfig {
        DmtConfig::default()
    }

    fn separable_batch(n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64 / n as f64, ((i * 7) % n) as f64 / n as f64])
            .collect();
        let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.5)).collect();
        (xs, ys)
    }

    #[test]
    fn child_loss_approx_subtracts_gradient_norm() {
        let approx = NodeStats::child_loss_approx(10.0, &[3.0, 4.0], 5, 0.1);
        // 10 - 0.1/5 * 25 = 9.5
        assert!((approx - 9.5).abs() < 1e-12);
        assert_eq!(NodeStats::child_loss_approx(10.0, &[3.0], 0, 0.1), 0.0);
    }

    #[test]
    fn update_with_batch_accumulates_counts_and_loss() {
        let mut stats = NodeStats::new(Glm::new_zeros(2, 2));
        let (xs, ys) = separable_batch(50);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        stats.update_with_batch(&rows, &ys, &[false, false], &config());
        assert_eq!(stats.count, 50);
        assert!(stats.loss_sum > 0.0);
        assert!(!stats.candidates.is_empty());
        assert!(stats.candidates.len() <= config().max_candidates(2));
    }

    #[test]
    fn candidate_pool_respects_the_maximum() {
        let mut stats = NodeStats::new(Glm::new_zeros(2, 2));
        let cfg = config();
        for round in 0..20 {
            let xs: Vec<Vec<f64>> = (0..30)
                .map(|i| vec![(i + round * 30) as f64 / 600.0, (i % 7) as f64 / 7.0])
                .collect();
            let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.5)).collect();
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            stats.update_with_batch(&rows, &ys, &[false, false], &cfg);
            assert!(stats.candidates.len() <= cfg.max_candidates(2));
        }
    }

    #[test]
    fn candidate_pool_memory_is_exactly_max_candidates_rows() {
        // The first admission reserves the pool to `max_candidates` rows,
        // even when it admits fewer; the pool then never grows past them,
        // and a shed pool regrows to the same size.
        let cfg = config();
        let max = cfg.max_candidates(2);
        let mut stats = NodeStats::new(Glm::new_zeros(2, 2));
        let row_bytes = std::mem::size_of::<SplitCandidate>() + stats.k() * 8;
        let constant: Vec<&[f64]> = vec![&[0.5, 0.5]; 8];
        stats.update_with_batch(&constant, &[0, 1, 0, 1, 0, 1, 0, 1], &[false, false], &cfg);
        assert_eq!(
            stats.candidates.len(),
            2,
            "one threshold per constant column"
        );
        assert_eq!(stats.candidates.memory_bytes(), max * row_bytes);
        for round in 0..6 {
            if round == 3 {
                stats.shed_candidates();
                assert_eq!(stats.candidates.memory_bytes(), 0);
            }
            let xs: Vec<Vec<f64>> = (0..40)
                .map(|i| {
                    vec![
                        (i + round * 40) as f64 / 240.0,
                        ((i * 7) % 40) as f64 / 40.0,
                    ]
                })
                .collect();
            let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.5)).collect();
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            stats.update_with_batch(&rows, &ys, &[false, false], &cfg);
            assert_eq!(stats.candidates.len(), max, "round {round}");
            assert_eq!(stats.candidates.memory_bytes(), max * row_bytes);
            assert_eq!(stats.clone().candidates.memory_bytes(), max * row_bytes);
        }
    }

    #[test]
    fn gain_of_informative_candidate_is_positive_after_training() {
        let cfg = config();
        let mut stats = NodeStats::new(Glm::new_zeros(1, 2));
        // A hard step function that a single linear model cannot fit well:
        // y = 1 exactly when x > 0.75 (a split at 0.75 separates perfectly).
        for _ in 0..60 {
            let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
            let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.75)).collect();
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            stats.update_with_batch(&rows, &ys, &[false], &cfg);
        }
        let best = stats.best_candidate(stats.loss_sum, cfg.learning_rate);
        let (_, gain) = best.expect("a candidate must exist");
        assert!(gain > 0.0, "gain {gain}");
    }

    #[test]
    fn prefix_accumulation_matches_per_row_candidate_stats() {
        // One batch through a fresh node, then recompute every stored
        // candidate's statistics by scanning the batch per row with the
        // pre-update model. Counts and row sets must match exactly; the sums
        // may differ only by prefix-reassociation rounding.
        let cfg = config();
        let mut stats = NodeStats::new(Glm::new_random(2, 2, 7));
        let model_before = stats.model.clone();
        let (xs, ys) = separable_batch(80);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        stats.update_with_batch(&rows, &ys, &[false, false], &cfg);
        assert!(!stats.candidates.is_empty());
        for (row, candidate) in stats.candidates.iter().enumerate() {
            let mut count = 0u64;
            let mut loss_sum = 0.0;
            let mut grad_sum = vec![0.0; stats.k()];
            for (x, &y) in rows.iter().zip(ys.iter()) {
                if candidate.key.goes_left(x) {
                    let (loss, grad) = model_before.loss_and_gradient(&[x], &[y]);
                    count += 1;
                    loss_sum += loss;
                    linalg::add_assign(&mut grad_sum, &grad);
                }
            }
            assert_eq!(
                candidate.count, count,
                "row set diverged: {:?}",
                candidate.key
            );
            assert!(
                (candidate.loss_sum - loss_sum).abs() <= 1e-9 * loss_sum.abs().max(1.0),
                "loss sum diverged: {} vs {}",
                candidate.loss_sum,
                loss_sum
            );
            for (a, b) in stats.candidates.grad(row).iter().zip(grad_sum.iter()) {
                assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                    "gradient sum diverged: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn bucket_accumulation_matches_per_row_candidate_stats_on_nominal_features() {
        // Mixed numeric + nominal batch: nominal candidates run through the
        // per-category bucket pass and must select the exact row set of the
        // per-row reference, with sums matching bit-for-bit when a candidate
        // owns a single category (the bucket is filled in row order).
        let cfg = config();
        let mut stats = NodeStats::new(Glm::new_random(2, 2, 11));
        let model_before = stats.model.clone();
        let xs: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 5) as f64, ((i * 13) % 60) as f64 / 60.0])
            .collect();
        let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[1] > 0.5)).collect();
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        stats.update_with_batch(&rows, &ys, &[true, false], &cfg);
        let nominal_candidates = stats.candidates.iter().filter(|c| c.key.is_nominal).count();
        assert!(nominal_candidates > 0, "no nominal candidates proposed");
        for (row, candidate) in stats.candidates.iter().enumerate() {
            if !candidate.key.is_nominal {
                continue;
            }
            let mut count = 0u64;
            let mut loss_sum = 0.0;
            let mut grad_sum = vec![0.0; stats.k()];
            for (x, &y) in rows.iter().zip(ys.iter()) {
                if candidate.key.goes_left(x) {
                    let (loss, grad) = model_before.loss_and_gradient(&[x], &[y]);
                    count += 1;
                    loss_sum += loss;
                    linalg::add_assign(&mut grad_sum, &grad);
                }
            }
            assert_eq!(
                candidate.count, count,
                "row set diverged: {:?}",
                candidate.key
            );
            assert_eq!(
                candidate.loss_sum.to_bits(),
                loss_sum.to_bits(),
                "single-category bucket must accumulate in row order"
            );
            for (a, b) in stats.candidates.grad(row).iter().zip(grad_sum.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn high_cardinality_nominal_columns_switch_to_the_hashed_lookup() {
        // A nominal column with far more distinct codes than
        // NOMINAL_LINEAR_SCAN_MAX exercises the hashed bucket index. The
        // accumulated candidate statistics must stay bit-identical to the
        // per-row reference (the hashed path only changes *how* a row finds
        // its bucket, never what is accumulated or in which order).
        let cfg = config();
        let mut stats = NodeStats::new(Glm::new_random(2, 2, 23));
        let model_before = stats.model.clone();
        let n = 8 * (NOMINAL_LINEAR_SCAN_MAX + 4);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                // ~n/2 distinct codes — well past the linear-scan threshold —
                // plus a numeric column carrying the label signal.
                vec![(i % (n / 2)) as f64, ((i * 13) % n) as f64 / n as f64]
            })
            .collect();
        let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[1] > 0.5)).collect();
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        assert!(n / 2 > NOMINAL_LINEAR_SCAN_MAX);
        stats.update_with_batch(&rows, &ys, &[true, false], &cfg);
        let nominal_candidates = stats.candidates.iter().filter(|c| c.key.is_nominal).count();
        assert!(nominal_candidates > 0, "no nominal candidates proposed");
        for (row, candidate) in stats.candidates.iter().enumerate() {
            if !candidate.key.is_nominal {
                continue;
            }
            let mut count = 0u64;
            let mut loss_sum = 0.0;
            let mut grad_sum = vec![0.0; stats.k()];
            for (x, &y) in rows.iter().zip(ys.iter()) {
                if candidate.key.goes_left(x) {
                    let (loss, grad) = model_before.loss_and_gradient(&[x], &[y]);
                    count += 1;
                    loss_sum += loss;
                    linalg::add_assign(&mut grad_sum, &grad);
                }
            }
            assert_eq!(
                candidate.count, count,
                "row set diverged: {:?}",
                candidate.key
            );
            assert_eq!(
                candidate.loss_sum.to_bits(),
                loss_sum.to_bits(),
                "hashed bucket lookup changed the accumulation: {:?}",
                candidate.key
            );
            for (a, b) in stats.candidates.grad(row).iter().zip(grad_sum.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn hashed_and_linear_bucket_paths_agree_across_the_threshold() {
        // Two separate nodes fed batches whose nominal cardinality sits just
        // below and just above the threshold: both must reproduce the per-row
        // candidate counts exactly (the regression guard for the O(batch²)
        // id-like-column case named in the roadmap).
        let cfg = config();
        for distinct in [NOMINAL_LINEAR_SCAN_MAX - 1, 4 * NOMINAL_LINEAR_SCAN_MAX] {
            let mut stats = NodeStats::new(Glm::new_random(1, 2, 31));
            let n = distinct * 3;
            let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![(i % distinct) as f64]).collect();
            let ys: Vec<usize> = (0..n).map(|i| i % 2).collect();
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            stats.update_with_batch(&rows, &ys, &[true], &cfg);
            for candidate in stats.candidates.iter() {
                let expected = rows.iter().filter(|x| candidate.key.goes_left(x)).count() as u64;
                assert_eq!(
                    candidate.count, expected,
                    "cardinality {distinct}: {:?}",
                    candidate.key
                );
            }
        }
    }

    #[test]
    fn nan_rows_never_enter_candidate_statistics() {
        // NaN feature values (either sign bit) fail every split test, so no
        // candidate may absorb their loss/gradient — the sort-key boundary
        // must exclude them exactly like the per-row reference does.
        let cfg = config();
        let mut stats = NodeStats::new(Glm::new_random(1, 2, 3));
        let mut xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 20.0]).collect();
        xs.push(vec![f64::NAN]);
        xs.push(vec![f64::NAN.copysign(-1.0)]);
        let ys: Vec<usize> = (0..xs.len()).map(|i| i % 2).collect();
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        stats.update_with_batch(&rows, &ys, &[false], &cfg);
        assert!(!stats.candidates.is_empty());
        for (row, candidate) in stats.candidates.iter().enumerate() {
            let expected = rows.iter().filter(|x| candidate.key.goes_left(x)).count() as u64;
            assert_eq!(candidate.count, expected, "{:?}", candidate.key);
            assert!(
                candidate.loss_sum.is_finite(),
                "a NaN row leaked into candidate {:?}",
                candidate.key
            );
            assert!(stats.candidates.grad(row).iter().all(|g| g.is_finite()));
        }
    }

    #[test]
    fn combined_pass_proposes_the_same_keys_as_the_reference() {
        // First batch into a fresh node: the pool is empty and large enough,
        // so the stored candidates afterwards are exactly the batch's
        // proposals — which must match `propose_from_batch`, the standalone
        // reference implementation of the §V-D proposal rules.
        let cfg = config();
        let mut stats = NodeStats::new(Glm::new_random(2, 2, 5));
        let xs: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![((i * 17) % 40) as f64 / 40.0, (i % 3) as f64])
            .collect();
        let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.5)).collect();
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        let nominal = [false, true];
        let expected = crate::candidate::propose_from_batch(&rows, &nominal, &[]);
        assert!(expected.len() <= cfg.max_candidates(2));
        stats.update_with_batch(&rows, &ys, &nominal, &cfg);
        assert_eq!(stats.candidates.len(), expected.len());
        // Pool management reorders by gain, so compare as key sets.
        for key in &expected {
            assert!(
                stats.candidates.iter().any(|c| c.key.feature == key.feature
                    && c.key.is_nominal == key.is_nominal
                    && c.key.value.to_bits() == key.value.to_bits()),
                "missing proposal {key:?}"
            );
        }
    }

    #[test]
    fn reset_window_clears_accumulators_but_keeps_model() {
        let mut stats = NodeStats::new(Glm::new_zeros(2, 2));
        let (xs, ys) = separable_batch(100);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        let cfg = config();
        for _ in 0..5 {
            stats.update_with_batch(&rows, &ys, &[false, false], &cfg);
        }
        let params_before = stats.model.params().to_vec();
        stats.reset_window();
        assert_eq!(stats.count, 0);
        assert_eq!(stats.loss_sum, 0.0);
        assert!(stats.candidates.is_empty());
        assert_eq!(stats.model.params(), params_before.as_slice());
    }

    #[test]
    fn candidate_gain_is_none_for_degenerate_candidates() {
        let mut stats = NodeStats::new(Glm::new_zeros(1, 2));
        stats.count = 10;
        stats.loss_sum = 5.0;
        let key = |value| CandidateKey {
            feature: 0,
            value,
            is_nominal: false,
        };
        // One candidate takes every row to the left, the other none.
        stats.candidates.push(key(1e9));
        stats.candidates.add(0, 5.0, 10, &[0.0, 0.0]);
        stats.candidates.push(key(-1e9));
        assert!(stats.best_candidate(stats.loss_sum, 0.05).is_none());
    }

    #[test]
    fn leaf_splits_on_a_step_concept_and_builds_an_inner_node() {
        let cfg = config();
        let mut scratch = UpdateScratch::new();
        let (mut arena, root) = NodeArena::with_root(NodeStats::new(Glm::new_zeros(1, 2)));
        let mut split_seen = false;
        for _ in 0..300 {
            let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
            let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.75)).collect();
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            let mut idx: Vec<usize> = (0..rows.len()).collect();
            if let (GainDecision::Split { .. }, _) = learn_at(
                &mut arena,
                root,
                &rows,
                &ys,
                &mut idx,
                &[false],
                &cfg,
                &mut scratch,
                Routing::Gathered,
                Levers::UNBOUNDED,
                None,
            ) {
                split_seen = true;
                break;
            }
        }
        assert!(
            split_seen,
            "the leaf never split on an obviously splittable concept"
        );
        assert_eq!(arena.count_nodes(root), (1, 2));
        assert_eq!(arena.depth(root), 1);
        arena.validate(root).unwrap();
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let cfg = config();
        let mut scratch = UpdateScratch::new();
        let (mut arena, root) = NodeArena::with_root(NodeStats::new(Glm::new_zeros(2, 2)));
        assert_eq!(
            learn_at(
                &mut arena,
                root,
                &[],
                &[],
                &mut [],
                &[false, false],
                &cfg,
                &mut scratch,
                Routing::Gathered,
                Levers::UNBOUNDED,
                None,
            ),
            (GainDecision::Keep, (0.0, 1))
        );
        assert_eq!(arena.stats(root).count, 0);
    }

    /// Bit-level equality of two nodes' statistics, model and candidate pool.
    fn assert_stats_bit_equal(a: &NodeStats, b: &NodeStats, what: &str) {
        assert_eq!(a.count, b.count, "{what}: count");
        assert_eq!(a.loss_sum.to_bits(), b.loss_sum.to_bits(), "{what}: loss");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.grad_sum), bits(&b.grad_sum), "{what}: gradient");
        assert_eq!(
            bits(a.model.params()),
            bits(b.model.params()),
            "{what}: model"
        );
        assert_eq!(a.candidates.len(), b.candidates.len(), "{what}: pool size");
        for (row, (ca, cb)) in a.candidates.iter().zip(b.candidates.iter()).enumerate() {
            assert_eq!(ca.key.feature, cb.key.feature, "{what}");
            assert_eq!(ca.key.is_nominal, cb.key.is_nominal, "{what}");
            assert_eq!(ca.key.value.to_bits(), cb.key.value.to_bits(), "{what}");
            assert_eq!(ca.count, cb.count, "{what}: {:?} count", ca.key);
            assert_eq!(
                ca.loss_sum.to_bits(),
                cb.loss_sum.to_bits(),
                "{what}: {:?} loss",
                ca.key
            );
            assert_eq!(
                bits(a.candidates.grad(row)),
                bits(b.candidates.grad(row)),
                "{what}: {:?}",
                ca.key
            );
            assert_eq!(ca.last_gain.to_bits(), cb.last_gain.to_bits(), "{what}");
        }
    }

    #[test]
    fn inherited_orders_match_per_node_sorts_on_a_deep_tree() {
        // A fixed depth-3 tree fed batches full of tied and duplicate values
        // (five levels per numeric column, −0.0 beside +0.0, a nominal
        // column). One descent sorts once at the root and hands the sorted
        // rows down; the reference walk routes each row per instance and
        // runs every node's own `update_with_batch_indexed`, which sorts.
        // Structural checks are off, so both trees keep their shape and
        // every node's statistics must agree bit for bit.
        let cfg = DmtConfig {
            min_observations_split: u64::MAX,
            ..config()
        };
        let nominal = [false, false, true, false];
        let split = |feature, value, is_nominal| CandidateKey {
            feature,
            value,
            is_nominal,
        };
        let (mut arena, root) = NodeArena::with_root(NodeStats::new(Glm::new_random(4, 2, 9)));
        let child = |arena: &NodeArena, id| NodeStats::new(arena.stats(id).model.clone());
        let (l, r) = {
            let (lc, rc) = (child(&arena, root), child(&arena, root));
            arena.install_split(root, split(0, 0.5, false), lc, rc)
        };
        let (ll, _) = {
            let (lc, rc) = (child(&arena, l), child(&arena, l));
            arena.install_split(l, split(1, 0.0, false), lc, rc)
        };
        let (lc, rc) = (child(&arena, r), child(&arena, r));
        arena.install_split(r, split(2, 1.0, true), lc, rc);
        let (lc, rc) = (child(&arena, ll), child(&arena, ll));
        arena.install_split(ll, split(3, 0.5, false), lc, rc);
        assert!(arena.depth(root) >= 3);
        let mut reference = arena.clone();
        let mut order = Vec::new();
        arena.preorder_ids(root, &mut order);

        let mut scratch = UpdateScratch::new();
        let mut reference_scratch = UpdateScratch::new();
        for batch in 0..40usize {
            let n = 48 + batch % 5;
            let xs: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    let j = i + batch * 13;
                    let level = |step: usize| ((j * step) % 5) as f64 / 4.0;
                    let signed_zero = if j % 2 == 0 { -0.0 } else { 0.0 };
                    let x1 = if j % 3 == 0 {
                        signed_zero
                    } else {
                        level(3) - 0.5
                    };
                    vec![level(7), x1, (j % 3) as f64, level(11)]
                })
                .collect();
            let ys: Vec<usize> = xs
                .iter()
                .enumerate()
                .map(|(i, x)| usize::from(x[0] + x[3] > 0.8) ^ usize::from(i % 7 == 0))
                .collect();
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();

            let mut idx: Vec<usize> = (0..n).collect();
            learn_at(
                &mut arena,
                root,
                &rows,
                &ys,
                &mut idx,
                &nominal,
                &cfg,
                &mut scratch,
                Routing::Gathered,
                Levers::UNBOUNDED,
                None,
            );

            let mut routed = vec![Vec::new(); reference.num_slots()];
            for (i, x) in rows.iter().enumerate() {
                let mut at = root;
                routed[at.index()].push(i);
                while let Some((left, right)) = reference.children(at) {
                    at = if reference.split_key(at).goes_left(x) {
                        left
                    } else {
                        right
                    };
                    routed[at.index()].push(i);
                }
            }
            for &id in &order {
                reference.stats_mut(id).update_with_batch_indexed(
                    &rows,
                    &ys,
                    &routed[id.index()],
                    &nominal,
                    &cfg,
                    &mut reference_scratch,
                );
            }
        }
        for &id in &order {
            assert!(arena.stats(id).count > 0, "node {id:?} saw no rows");
            assert_stats_bit_equal(
                arena.stats(id),
                reference.stats(id),
                &format!("node {id:?}"),
            );
        }
    }

    /// The replacement loop before the early exit, as the reference.
    fn admit_proposals_full(
        pool: &mut CandidatePool,
        proposals: &CandidatePool,
        order: &[u32],
        max_candidates: usize,
        max_replacements: usize,
    ) {
        let mut replacements_used = 0usize;
        for &p in order {
            let (proposal, grad) = (proposals[p as usize], proposals.grad(p as usize));
            if pool.len() < max_candidates {
                pool.push_row(proposal, grad);
                continue;
            }
            if replacements_used >= max_replacements {
                continue;
            }
            let worst = pool.iter().enumerate().min_by(|(_, a), (_, b)| {
                a.last_gain
                    .partial_cmp(&b.last_gain)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            if let Some((worst_idx, worst)) = worst {
                if proposal.last_gain > worst.last_gain {
                    pool.set_row(worst_idx, proposal, grad);
                    replacements_used += 1;
                }
            }
        }
    }

    #[test]
    fn early_exit_admission_matches_the_full_loop() {
        // Random pools and gain-sorted proposals drawn from a handful of
        // gain levels (so ties are everywhere) plus −∞ for degenerate
        // candidates; the pools must match the full loop row for row, in
        // order, gradients included.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let levels = [f64::NEG_INFINITY, -1.0, 0.0, 0.5, 2.0];
        let mut id = 0usize;
        // A pool of `n` fresh candidates with random gains; each candidate's
        // feature is a unique id and its one gradient entry repeats it.
        let mut pool_of = |n: u64, next: &mut dyn FnMut(u64) -> u64| {
            let first = id + 1;
            let gains: Vec<f64> = (0..n).map(|_| levels[next(5) as usize]).collect();
            let mut pool = CandidatePool::new(1);
            for row in 0..n as usize {
                id += 1;
                pool.push(CandidateKey {
                    feature: id,
                    value: id as f64,
                    is_nominal: false,
                });
                pool.add(row, 0.0, 0, &[id as f64]);
            }
            pool.refresh_gains(|c, _| gains[c.key.feature - first]);
            pool
        };
        for _ in 0..2_000 {
            let max_candidates = 1 + next(8) as usize;
            let max_replacements = next(4) as usize;
            let stored = next(max_candidates as u64 + 1);
            let pool = pool_of(stored, &mut next);
            let proposal_count = next(10);
            let proposals = pool_of(proposal_count, &mut next);
            let mut order: Vec<u32> = (0..proposals.len() as u32).collect();
            order.sort_by(|&a, &b| {
                proposals[b as usize]
                    .last_gain
                    .partial_cmp(&proposals[a as usize].last_gain)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let (mut fast, mut full) = (pool.clone(), pool);
            admit_proposals(
                &mut fast,
                &proposals,
                &order,
                max_candidates,
                max_replacements,
            );
            admit_proposals_full(
                &mut full,
                &proposals,
                &order,
                max_candidates,
                max_replacements,
            );
            assert_eq!(fast[..], full[..]);
            for row in 0..fast.len() {
                assert_eq!(fast.grad(row), full.grad(row));
            }
        }
    }

    #[test]
    fn subtree_leaf_loss_sums_only_leaves() {
        let (mut arena, root) = NodeArena::with_root(NodeStats::new(Glm::new_zeros(1, 2)));
        arena.stats_mut(root).loss_sum = 100.0;
        let key = CandidateKey {
            feature: 0,
            value: 0.5,
            is_nominal: false,
        };
        let (l, r) = arena.install_split(
            root,
            key,
            NodeStats::new(Glm::new_zeros(1, 2)),
            NodeStats::new(Glm::new_zeros(1, 2)),
        );
        arena.stats_mut(l).loss_sum = 2.0;
        arena.stats_mut(r).loss_sum = 3.0;
        let (loss, leaves) = arena.subtree_leaf_loss(root);
        assert!((loss - 5.0).abs() < 1e-12);
        assert_eq!(leaves, 2);
    }
}
