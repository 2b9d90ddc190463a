//! The public [`DynamicModelTree`] classifier and its configuration.

use std::sync::{Arc, Mutex};

use dmt_models::memory::vec_bytes;
use dmt_models::online::{Complexity, OnlineClassifier};
use dmt_models::{AicTest, BatchMode, Glm, MemoryUsage, Rows};
use dmt_stream::schema::StreamSchema;

use crate::arena::{NodeArena, NodeId};
use crate::error::DmtError;
use crate::explain::{DecisionStep, LeafExplanation};
use crate::node::{
    learn_at, partition_indices, structural_check_inner, GainDecision, NodeStats, Routing,
};
use crate::parallel::{Parallelism, WorkerPool};
use crate::scratch::{ParallelScratch, PredictScratch, UpdateScratch, WorkerSlot};

/// Default for [`DmtConfig::predict_parallel_threshold`]: batches below this
/// row count predict serially even when a worker pool is available. Routing a
/// batch costs O(rows · depth) with tiny constants, so fan-out only pays once
/// a batch is comfortably larger than the dispatch hand-shake.
pub const PREDICT_PARALLEL_THRESHOLD: usize = 512;

/// Hyperparameters of the Dynamic Model Tree with the defaults proposed in
/// §V-D of the paper.
#[derive(Debug, Clone)]
pub struct DmtConfig {
    /// Constant SGD learning rate λ of the simple models (paper: 0.05).
    pub learning_rate: f64,
    /// Confidence ε of the AIC threshold test, eq. (11) (paper: 1e-8).
    pub epsilon: f64,
    /// Whether the AIC threshold is applied at all. Disabling it reverts to
    /// the bare Algorithm 1 rule "change structure whenever the gain is ≥ 0"
    /// (used by the ablation experiments).
    pub use_aic_threshold: bool,
    /// The number of stored split candidates per node is
    /// `candidate_factor × m` (paper default: 3).
    pub candidate_factor: usize,
    /// Fraction of the candidate pool that may be replaced per time step
    /// (paper default: 0.5).
    pub replacement_rate: f64,
    /// Minimum number of observations a node must accumulate in its current
    /// window before structural changes are considered. This guards the very
    /// first batches where the loss estimates are still dominated by the
    /// random initial weights (§IV-E).
    pub min_observations_split: u64,
    /// Seed for the random initial weights of the root model.
    pub seed: u64,
    /// How the node models traverse a routed batch during training:
    /// [`BatchMode::Deterministic`] reproduces the per-instance SGD sweep
    /// bit-for-bit, [`BatchMode::Batched`] (the default) applies one
    /// summed-gradient step per window through the SIMD-friendly kernels.
    /// The per-pass loss/gradient and prediction kernels are bit-identical
    /// *given identical parameters*; the modes differ only in SGD step
    /// granularity — but that difference compounds, so trained weights (and
    /// therefore downstream predictions) diverge between modes after the
    /// first window.
    pub batch_mode: BatchMode,
    /// How `learn_batch` distributes disjoint subtree workloads after the
    /// top-level index partition: [`Parallelism::Serial`] (the default) runs
    /// the recursive descent on the calling thread,
    /// [`Parallelism::Threads`]`(n)` dispatches detached subtrees to the
    /// tree's persistent [`WorkerPool`] and merges them deterministically in
    /// child order. Both settings produce **bit-identical** trees; only
    /// wall-clock time differs. `Threads(0)` and `Threads(1)` short-circuit
    /// to the serial path before any pool or queue machinery is touched (no
    /// pool is ever created). The default honours the `DMT_PARALLELISM`
    /// environment variable (see [`Parallelism::from_env`]) so CI can
    /// exercise the whole suite threaded.
    pub parallelism: Parallelism,
    /// Minimum batch size (rows) before `predict_batch_into` fans contiguous
    /// row chunks out over the worker pool; smaller batches always predict
    /// serially. Only relevant with [`Parallelism::Threads`]`(n ≥ 2)` once
    /// the pool exists (the first parallel `learn_batch` — or
    /// [`DynamicModelTree::set_worker_pool`] — creates it). Chunked and
    /// serial prediction are bit-identical: rows are independent and the
    /// batched GLM kernels are pinned to the scalar path per row.
    pub predict_parallel_threshold: usize,
    /// Optional resident-memory budget in bytes
    /// ([`DynamicModelTree::memory_bytes`] must not exceed it after a batch).
    /// `None` (the default) disables all budget machinery — the tree is
    /// bit-identical to an unbudgeted build. `Some(budget)` arms a
    /// four-rung degradation ladder that runs at the end of every learn
    /// batch while the tree is over budget:
    ///
    /// 1. retire split-candidate pools on the coldest nodes (re-proposed
    ///    from later batches — costs adaptation latency, no model quality),
    /// 2. compact the arena and drop pooled scratch caches (pure-cache
    ///    reclamation, no behavioural change at all),
    /// 3. merge subtrees back into model leaves, best prune gain first
    ///    (the paper's own gain (5) machinery, applied under duress),
    /// 4. freeze growth: new splits/replacements are deferred until the
    ///    tree is back under budget; learning, prediction and prunes
    ///    continue.
    ///
    /// The tree keeps answering predictions and consuming batches at every
    /// rung — degradation is graceful, never a panic or a stall.
    pub memory_budget_bytes: Option<usize>,
}

impl Default for DmtConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.05,
            epsilon: 1e-8,
            use_aic_threshold: true,
            candidate_factor: 3,
            replacement_rate: 0.5,
            min_observations_split: 50,
            seed: 42,
            batch_mode: BatchMode::default(),
            parallelism: Parallelism::from_env(),
            predict_parallel_threshold: PREDICT_PARALLEL_THRESHOLD,
            memory_budget_bytes: None,
        }
    }
}

impl DmtConfig {
    /// Maximum number of stored candidates for a node over `m` features.
    pub fn max_candidates(&self, num_features: usize) -> usize {
        (self.candidate_factor * num_features).max(1)
    }

    /// The AIC acceptance test of eq. (11): does `gain` justify moving from a
    /// structure with `k_old` parameters to one with `k_new` parameters?
    pub fn accepts(&self, gain: f64, k_new: usize, k_old: usize) -> bool {
        if !gain.is_finite() {
            return false;
        }
        if self.use_aic_threshold {
            AicTest::new(self.epsilon).accepts(gain, k_new, k_old)
        } else {
            gain >= 0.0
        }
    }
}

/// The Dynamic Model Tree classifier (see the crate-level documentation).
///
/// The tree structure lives in a flat [`NodeArena`] (struct-of-arrays split
/// keys, id-based links, free-list slot reuse on prune); both halves of the
/// test-then-train loop run batched over it: prediction routes the whole
/// batch level-by-level and runs one GLM kernel call per reached leaf, and
/// learning routes each node's sub-batch with the same stable in-place index
/// partition.
pub struct DynamicModelTree {
    config: DmtConfig,
    /// The parallelism setting that snapshots of this tree serialise.
    /// `config.parallelism` is host-local (the `DMT_PARALLELISM` environment
    /// variable overrides it on restore), but a snapshot must round-trip the
    /// *model's* bytes unchanged regardless of the restoring host's override,
    /// so the pre-override value is carried here and written back out by
    /// `to_snapshot_bytes`.
    persisted_parallelism: Parallelism,
    schema: StreamSchema,
    nominal_features: Vec<bool>,
    arena: NodeArena,
    root: NodeId,
    observations: u64,
    /// Structural decisions taken during the lifetime of the tree (splits,
    /// prunes, replacements), recorded for interpretability: every change can
    /// be reported and linked to the loss gain that caused it.
    decisions: Vec<(u64, GainDecision)>,
    /// Reusable buffers for the update loop; after the first batches the
    /// learn path performs no per-instance heap allocations.
    scratch: UpdateScratch,
    /// Pooled worker arenas/scratches of the parallel learn path; empty (and
    /// never grown) while `config.parallelism` is serial.
    par_scratch: ParallelScratch,
    /// Pool of reusable buffers for the batched prediction routing. Behind a
    /// `Mutex` because prediction is `&self` and may run concurrently (user
    /// threads sharing the tree, or the tree's own pool-chunked predict):
    /// each prediction call pops a scratch — creating a fresh one only when
    /// the pool is empty — and pushes it back when done, so concurrent and
    /// re-entrant predictions can never contend on one buffer (the `RefCell`
    /// this replaces panicked instead). `learn_batch` pre-grows the pooled
    /// buffers to the observed batch dimensions so a steady-state
    /// test-then-train loop predicts without allocating.
    predict_scratch: Mutex<Vec<PredictScratch>>,
    /// The persistent worker pool of the parallel learn/predict paths.
    /// Created lazily by the first parallel `learn_batch` (so serial trees
    /// never spawn a thread), or injected via
    /// [`DynamicModelTree::set_worker_pool`] to share one pool's resident
    /// threads between several models. Dropped (threads joined) when the
    /// last `Arc` owner goes away.
    pool: Option<Arc<WorkerPool>>,
    /// Rung 4 of the budget ladder: `true` while the last budget enforcement
    /// could not get under [`DmtConfig::memory_budget_bytes`] even after
    /// merging the tree down, so the next batch learns without growing.
    /// Always `false` on unbudgeted trees. Derived state — recomputed by
    /// every budget pass, deliberately not serialised (a restored tree
    /// re-evaluates its budget on the first batch it learns).
    growth_frozen: bool,
}

impl Clone for DynamicModelTree {
    /// Clones the model state (arena, configuration, decision log); the
    /// scratch spaces start empty and regrow on first use. A worker pool is
    /// **shared** with the clone (pools are reference-counted thread sets,
    /// not model state), so cloning a parallel tree never spawns threads.
    fn clone(&self) -> Self {
        Self {
            config: self.config.clone(),
            persisted_parallelism: self.persisted_parallelism,
            schema: self.schema.clone(),
            nominal_features: self.nominal_features.clone(),
            arena: self.arena.clone(),
            root: self.root,
            observations: self.observations,
            decisions: self.decisions.clone(),
            scratch: UpdateScratch::new(),
            par_scratch: ParallelScratch::new(),
            predict_scratch: Mutex::new(Vec::new()),
            pool: self.pool.clone(),
            growth_frozen: self.growth_frozen,
        }
    }
}

impl DynamicModelTree {
    /// Create a Dynamic Model Tree for the given stream schema.
    pub fn new(schema: StreamSchema, config: DmtConfig) -> Self {
        let nominal_features = schema
            .features
            .iter()
            .map(|f| f.feature_type.is_nominal())
            .collect();
        let root_model = Glm::new_random(schema.num_features(), schema.num_classes, config.seed);
        let (arena, root) = NodeArena::with_root(NodeStats::new(root_model));
        Self {
            persisted_parallelism: config.parallelism,
            config,
            schema,
            nominal_features,
            arena,
            root,
            observations: 0,
            decisions: Vec::new(),
            scratch: UpdateScratch::new(),
            par_scratch: ParallelScratch::new(),
            predict_scratch: Mutex::new(Vec::new()),
            pool: None,
            growth_frozen: false,
        }
    }

    /// Rebuild a tree from decoded snapshot state (`crate::snapshot`): the
    /// model state is taken verbatim, the caches (scratches, prediction
    /// pool, worker pool) start empty exactly like a fresh clone's.
    pub(crate) fn from_snapshot_parts(
        config: DmtConfig,
        persisted_parallelism: Parallelism,
        schema: StreamSchema,
        arena: NodeArena,
        root: NodeId,
        observations: u64,
        decisions: Vec<(u64, GainDecision)>,
    ) -> Self {
        let nominal_features = schema
            .features
            .iter()
            .map(|f| f.feature_type.is_nominal())
            .collect();
        Self {
            config,
            persisted_parallelism,
            schema,
            nominal_features,
            arena,
            root,
            observations,
            decisions,
            scratch: UpdateScratch::new(),
            par_scratch: ParallelScratch::new(),
            predict_scratch: Mutex::new(Vec::new()),
            pool: None,
            growth_frozen: false,
        }
    }

    /// Share a persistent [`WorkerPool`] with this tree: subsequent parallel
    /// learn/predict batches dispatch onto `pool`'s resident threads instead
    /// of lazily creating a private pool. Several models (trees, the
    /// `dmt-ensembles` learners) can hold the same `Arc`; dispatches
    /// serialise on the pool's job slot and results stay bit-identical
    /// regardless of who shares it.
    pub fn set_worker_pool(&mut self, pool: Arc<WorkerPool>) {
        self.pool = Some(pool);
    }

    /// The tree's current worker pool, if one exists (lazily created by the
    /// first parallel `learn_batch`, or injected via
    /// [`DynamicModelTree::set_worker_pool`]). Hand this to other models to
    /// share one set of resident threads.
    pub fn worker_pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_ref()
    }

    /// The configuration in use.
    pub fn config(&self) -> &DmtConfig {
        &self.config
    }

    /// The parallelism setting snapshots of this tree serialise: the value
    /// the tree was created with, or the snapshotted value it was restored
    /// from — *not* any `DMT_PARALLELISM` host override currently steering
    /// [`DmtConfig::parallelism`]. Save/restore/re-save round-trips the
    /// snapshot bytes unchanged because this value survives the override.
    pub fn persisted_parallelism(&self) -> Parallelism {
        self.persisted_parallelism
    }

    /// The stream schema the tree was built for.
    pub fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    /// Number of inner nodes (splits) in the tree.
    pub fn num_inner_nodes(&self) -> u64 {
        self.arena.count_nodes(self.root).0
    }

    /// Number of leaf nodes.
    pub fn num_leaves(&self) -> u64 {
        self.arena.count_nodes(self.root).1
    }

    /// Depth of the tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        self.arena.depth(self.root)
    }

    /// Total number of observations consumed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// The node arena holding the tree structure. Export, explanation and
    /// tests iterate the tree by [`NodeId`] through this view.
    pub fn arena(&self) -> &NodeArena {
        &self.arena
    }

    /// The id of the root node.
    pub fn root_id(&self) -> NodeId {
        self.root
    }

    /// The log of structural decisions `(observation count, decision)` taken
    /// at the **root node** so far. Only actual changes are recorded — this
    /// is the "why did you split this node at time u?" audit trail motivated
    /// in §I-A, currently limited to root-level events (deeper changes show
    /// up in [`DynamicModelTree::summary`] / the arena, not in this log).
    pub fn decision_log(&self) -> &[(u64, GainDecision)] {
        &self.decisions
    }

    /// Explain the prediction for `x`: the decision path plus the linear
    /// weights of the responsible leaf model.
    pub fn explain(&self, x: &[f64]) -> LeafExplanation {
        let mut id = self.root;
        let mut path = Vec::new();
        while let Some((left, right)) = self.arena.children(id) {
            let key = self.arena.split_key(id);
            let went_left = key.goes_left(x);
            path.push(DecisionStep {
                feature: key.feature,
                value: key.value,
                is_nominal: key.is_nominal,
                went_left,
            });
            id = if went_left { left } else { right };
        }
        LeafExplanation::from_model(path, &self.arena.stats(id).model, x)
    }

    /// Reject rows that would corrupt the update: wrong feature dimension
    /// (out-of-bounds routing) or non-finite values (NaN/Inf would poison
    /// every loss/gradient accumulator on the row's path).
    fn validate_rows(&self, xs: Rows<'_>) -> Result<(), DmtError> {
        let expected = self.schema.num_features();
        for (row, x) in xs.iter().enumerate() {
            if x.len() != expected {
                return Err(DmtError::FeatureDimension {
                    row,
                    got: x.len(),
                    expected,
                });
            }
            for (feature, &v) in x.iter().enumerate() {
                if !v.is_finite() {
                    return Err(DmtError::NonFiniteFeature { row, feature });
                }
            }
        }
        Ok(())
    }

    /// Checked form of [`OnlineClassifier::learn_batch`]: validate the whole
    /// batch **before** touching any statistic and report hostile input —
    /// mismatched lengths, an empty batch, wrong feature dimensions,
    /// non-finite features, out-of-range labels — as a typed [`DmtError`]
    /// instead of panicking (or worse, poisoning the candidate accumulators
    /// with NaNs mid-update). On `Err` the tree is exactly as it was, so a
    /// stream with occasional bad rows can drop them and keep learning.
    pub fn try_learn_batch(
        &mut self,
        xs: Rows<'_>,
        ys: &[usize],
    ) -> Result<GainDecision, DmtError> {
        if xs.len() != ys.len() {
            return Err(DmtError::LengthMismatch {
                xs: xs.len(),
                ys: ys.len(),
            });
        }
        if xs.is_empty() {
            return Err(DmtError::EmptyBatch);
        }
        self.validate_rows(xs)?;
        let num_classes = self.schema.num_classes;
        for (row, &label) in ys.iter().enumerate() {
            if label >= num_classes {
                return Err(DmtError::LabelOutOfRange {
                    row,
                    label,
                    num_classes,
                });
            }
        }
        Ok(self.learn_batch_inner(xs, ys, Routing::Gathered))
    }

    /// Checked form of [`DynamicModelTree::predict_batch_into`]: validate
    /// shapes and values before descending. An empty batch is fine here
    /// (there is nothing to predict and nothing to corrupt); mismatched
    /// output length, wrong feature dimensions and non-finite features are
    /// typed errors.
    pub fn try_predict_batch_into(&self, xs: Rows<'_>, out: &mut [usize]) -> Result<(), DmtError> {
        if xs.len() != out.len() {
            return Err(DmtError::LengthMismatch {
                xs: xs.len(),
                ys: out.len(),
            });
        }
        self.validate_rows(xs)?;
        self.predict_batch_into(xs, out);
        Ok(())
    }

    /// Learn a batch and return the structural decision taken at the **root
    /// node** (useful for monitoring). Only that root-level decision is
    /// appended to [`DynamicModelTree::decision_log`]; structural changes
    /// deeper in the tree are visible through the structure itself
    /// ([`DynamicModelTree::summary`], [`DynamicModelTree::arena`]) but are
    /// not individually logged.
    pub fn learn_batch_traced(&mut self, xs: Rows<'_>, ys: &[usize]) -> GainDecision {
        self.learn_batch_inner(xs, ys, Routing::Gathered)
    }

    /// Reference form of [`DynamicModelTree::learn_batch_traced`] whose
    /// inner-node routing re-reads every tested feature through the original
    /// per-instance row pointers — exactly the value source a
    /// one-instance-at-a-time descent would use — instead of the gathered
    /// contiguous matrix.
    ///
    /// Both forms are bit-identical (the gathered matrix holds exact copies
    /// of the rows); property tests pin the hot path against this reference
    /// so the gather/partition alignment can never drift silently. The
    /// reference also sorts every node's numeric columns afresh where the
    /// hot path hands the root's sort down to the children, so the same
    /// pins cover the inherited column orders.
    pub fn learn_batch_reference(&mut self, xs: Rows<'_>, ys: &[usize]) -> GainDecision {
        self.learn_batch_inner(xs, ys, Routing::PerInstance)
    }

    fn learn_batch_inner(&mut self, xs: Rows<'_>, ys: &[usize], routing: Routing) -> GainDecision {
        assert_eq!(xs.len(), ys.len(), "xs and ys must have the same length");
        self.observations += xs.len() as u64;
        // The index vector is owned by the scratch space and reused across
        // batches; it is taken out for the duration of the recursion because
        // the nodes partition it while also borrowing the scratch buffers.
        let mut indices = std::mem::take(&mut self.scratch.indices);
        indices.clear();
        indices.extend(0..xs.len());
        // The parallel path covers the hot gathered routing; the per-instance
        // reference (`learn_batch_reference`) always runs the serial
        // recursion, so bit-identity tests compare threaded-hot vs
        // serial-reference end to end. `workers == 1` — Serial, Threads(0),
        // Threads(1) — short-circuits here: no pool is created and no
        // dispatch machinery runs, so a "parallel" configuration with zero
        // concurrency pays zero overhead.
        let workers = self.config.parallelism.workers();
        let use_parallel = routing == Routing::Gathered
            && workers >= 2
            && !indices.is_empty()
            && !self.arena.is_leaf(self.root);
        if use_parallel && self.pool.is_none() {
            // Lazily spawn the persistent pool on the first batch that can
            // actually use it; it is reused for every later batch (and by
            // pool-chunked prediction) until the tree is dropped.
            self.pool = Some(Arc::new(WorkerPool::new(workers)));
        }
        let allow_growth = !self.growth_frozen;
        let decision = if use_parallel {
            self.learn_batch_parallel(xs, ys, &mut indices, workers, allow_growth)
        } else {
            learn_at(
                &mut self.arena,
                self.root,
                xs,
                ys,
                &mut indices,
                &self.nominal_features,
                &self.config,
                &mut self.scratch,
                routing,
                allow_growth,
                None,
            )
        };
        self.scratch.indices = indices;
        if decision != GainDecision::Keep {
            self.decisions.push((self.observations, decision.clone()));
        }
        // Pre-grow the pooled prediction scratches for batches of this shape
        // so the test-then-train loop's predictions are allocation-free.
        // A poisoned pool is not fatal: a panic inside an earlier prediction
        // may have left a buffer half-prepared, so the pooled buffers (pure
        // caches) are discarded and rebuilt.
        if self.predict_scratch.is_poisoned() {
            self.predict_scratch.clear_poison();
            self.predict_scratch
                .get_mut()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clear();
        }
        let scratches = self
            .predict_scratch
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if scratches.is_empty() {
            scratches.push(PredictScratch::new());
        }
        for scratch in scratches.iter_mut() {
            scratch.prepare(
                xs.len(),
                self.schema.num_features(),
                self.schema.num_classes,
                self.arena.num_slots(),
            );
        }
        // Enforcement is the *last* step of the batch so the budget covers
        // everything the batch left resident — the pre-grown prediction
        // scratches included. Anything earlier and a post-enforcement
        // allocation could leave the tree over budget at the boundary.
        self.enforce_budget();
        decision
    }

    /// The parallel form of the learn recursion (`Parallelism::Threads`),
    /// bit-identical to the serial [`learn_at`] descent:
    ///
    /// 1. **Spine descent** (serial): starting from the root, the largest
    ///    routable task is expanded — its node statistics are updated with
    ///    its routed sub-batch (inner nodes keep full statistics and keep
    ///    training, §IV-D) and its index range is partitioned in place with
    ///    the exact routing of the serial path — until there are at least
    ///    `workers` subtree tasks or nothing expandable is left. Expanded
    ///    nodes form the *spine*; the remaining tasks tile the index range in
    ///    left-to-right child order.
    /// 2. **Subtree workers** (parallel): every non-empty task's subtree is
    ///    detached into a pooled worker arena ([`NodeArena::detach_subtree`])
    ///    and updated — splits, prunes and replacements included — by
    ///    [`learn_at`] on a scoped worker thread with a per-worker
    ///    [`UpdateScratch`]. Subtrees are disjoint, so no worker ever
    ///    observes another's state; per-node arithmetic is identical to the
    ///    serial path because each node's update depends only on its own
    ///    routed rows.
    /// 3. **Deterministic merge** (serial): subtrees are re-attached in child
    ///    order, then the spine's structural checks (prune/replace, gains
    ///    (4)–(5)) run bottom-up exactly like the serial recursion's
    ///    post-order tail. The root's check is the returned decision.
    ///
    /// Only arena *slot numbering* may differ from a serial run (workers
    /// allocate in private arenas); the tree shape, all statistics, all model
    /// parameters and all decisions are pinned bit-identical by
    /// `tests/integration_parallel.rs`.
    fn learn_batch_parallel(
        &mut self,
        xs: Rows<'_>,
        ys: &[usize],
        indices: &mut [usize],
        workers: usize,
        allow_growth: bool,
    ) -> GainDecision {
        let m = self.schema.num_features();
        let mut tasks = std::mem::take(&mut self.par_scratch.tasks);
        let mut spine = std::mem::take(&mut self.par_scratch.spine);
        tasks.clear();
        spine.clear();
        tasks.push((self.root, 0, indices.len()));

        // 1. Spine descent: expand the largest inner-node task until the
        // frontier is wide enough to feed every worker.
        while tasks.len() < workers {
            let mut largest: Option<usize> = None;
            for (j, &(id, lo, hi)) in tasks.iter().enumerate() {
                if hi > lo && !self.arena.is_leaf(id) {
                    let bigger = match largest {
                        None => true,
                        Some(b) => {
                            let (_, blo, bhi) = tasks[b];
                            hi - lo > bhi - blo
                        }
                    };
                    if bigger {
                        largest = Some(j);
                    }
                }
            }
            let Some(j) = largest else { break };
            let (id, lo, hi) = tasks[j];
            self.arena.stats_mut(id).update_with_batch_indexed(
                xs,
                ys,
                &indices[lo..hi],
                &self.nominal_features,
                &self.config,
                &mut self.scratch,
            );
            let key = self.arena.split_key(id);
            let write = partition_indices(
                &key,
                xs,
                &mut indices[lo..hi],
                &mut self.scratch,
                Routing::Gathered,
                m,
            );
            let (left, right) = self.arena.children(id).expect("spine node is inner");
            spine.push(id);
            tasks[j] = (left, lo, lo + write);
            tasks.insert(j + 1, (right, lo + write, hi));
        }

        // 2. Detach every non-empty subtree into its pooled worker slot and
        // fan the tasks out. Empty sub-batches are skipped entirely, exactly
        // like the serial recursion's early return.
        self.par_scratch.ensure_slots(tasks.len());
        let mut items: Vec<(&mut WorkerSlot, &mut [usize])> = Vec::with_capacity(tasks.len());
        let mut remaining: &mut [usize] = indices;
        let mut slot_iter = self.par_scratch.slots.iter_mut();
        for &(id, lo, hi) in tasks.iter() {
            let (chunk, rest) = std::mem::take(&mut remaining).split_at_mut(hi - lo);
            remaining = rest;
            if hi == lo {
                continue;
            }
            let slot = slot_iter.next().expect("slot pool sized to task count");
            let droot = self.arena.detach_subtree(id, &mut slot.arena);
            debug_assert_eq!(droot, NodeArena::FIRST);
            items.push((slot, chunk));
        }
        let nominal_features = &self.nominal_features;
        let config = &self.config;
        let pool = Arc::clone(self.pool.as_ref().expect("parallel learn without a pool"));
        pool.run(items, |_, (slot, chunk)| {
            learn_at(
                &mut slot.arena,
                NodeArena::FIRST,
                xs,
                ys,
                chunk,
                nominal_features,
                config,
                &mut slot.scratch,
                Routing::Gathered,
                allow_growth,
                None,
            );
        });

        // 3. Deterministic merge: re-attach in child order, then run the
        // spine's structural checks bottom-up (children before parents — the
        // spine is expansion-ordered, so reversing it visits every node
        // after all its descendants).
        let mut slot_index = 0usize;
        for &(id, lo, hi) in tasks.iter() {
            if hi == lo {
                continue;
            }
            let slot = &mut self.par_scratch.slots[slot_index];
            slot_index += 1;
            self.arena
                .attach_subtree(id, &mut slot.arena, NodeArena::FIRST);
        }
        debug_assert_eq!(spine.first(), Some(&self.root));
        let mut decision = GainDecision::Keep;
        for &id in spine.iter().rev() {
            decision = structural_check_inner(
                &mut self.arena,
                id,
                &self.config,
                &mut self.scratch,
                allow_growth,
            );
        }
        self.par_scratch.tasks = tasks;
        self.par_scratch.spine = spine;
        decision
    }

    /// Class probabilities of the responsible leaf written into `out`
    /// (`out.len() == num_classes`); the allocation-free analogue of
    /// [`OnlineClassifier::predict_proba`].
    pub fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        use dmt_models::SimpleModel;
        let leaf = self.arena.leaf_for(self.root, x);
        self.arena.stats(leaf).model.predict_proba_into(x, out);
    }

    /// Predict the most probable class of every row of `xs` into `out`
    /// through the single-pass batched arena descent
    /// ([`NodeArena::predict_batch_into`]): the batch is routed
    /// level-by-level with one stable in-place index partition per inner
    /// node, then one batched GLM kernel call runs per reached leaf group.
    /// Bit-identical to per-instance descent, allocation-free in steady
    /// state.
    ///
    /// Once the tree has a worker pool (the first parallel `learn_batch`
    /// creates one; [`DynamicModelTree::set_worker_pool`] injects one) and
    /// the batch reaches [`DmtConfig::predict_parallel_threshold`] rows, the
    /// batch is split into contiguous row chunks — one per executor — and
    /// each chunk descends on its own pooled scratch. Rows are independent,
    /// so chunked prediction is bit-identical to the serial pass.
    ///
    /// Safe under concurrent and re-entrant calls: every call (and every
    /// pool chunk) checks a scratch buffer out of the tree's scratch pool
    /// and returns it afterwards — no shared mutable state.
    pub fn predict_batch_into(&self, xs: Rows<'_>, out: &mut [usize]) {
        let workers = self.config.parallelism.workers();
        if let Some(pool) = &self.pool {
            if workers >= 2
                && xs.len() >= self.config.predict_parallel_threshold.max(2)
                && !self.arena.is_leaf(self.root)
            {
                return self.predict_batch_parallel(pool, xs, out, workers);
            }
        }
        let mut scratch = self.checkout_predict_scratch();
        self.arena
            .predict_batch_into(self.root, xs, out, &mut scratch);
        self.return_predict_scratch(scratch);
    }

    /// The pool-chunked form of [`DynamicModelTree::predict_batch_into`]:
    /// split the batch into `workers` contiguous row chunks (sizes differ by
    /// at most one row, largest first — fully deterministic), fan them out
    /// over the pool, and let each chunk route level-by-level with its own
    /// checked-out scratch. The output slices are disjoint `split_at_mut`
    /// views, so workers never share mutable state.
    fn predict_batch_parallel(
        &self,
        pool: &Arc<WorkerPool>,
        xs: Rows<'_>,
        out: &mut [usize],
        workers: usize,
    ) {
        let n = xs.len();
        let chunks = workers.min(pool.executors()).min(n).max(1);
        let mut items: Vec<(Rows<'_>, &mut [usize])> = Vec::with_capacity(chunks);
        let mut rest_x: Rows<'_> = xs;
        let mut rest_out: &mut [usize] = out;
        for c in 0..chunks {
            let len = n / chunks + usize::from(c < n % chunks);
            let (chunk_x, rx) = rest_x.split_at(len);
            let (chunk_out, ro) = std::mem::take(&mut rest_out).split_at_mut(len);
            rest_x = rx;
            rest_out = ro;
            items.push((chunk_x, chunk_out));
        }
        pool.run(items, |_, (chunk_x, chunk_out)| {
            let mut scratch = self.checkout_predict_scratch();
            self.arena
                .predict_batch_into(self.root, chunk_x, chunk_out, &mut scratch);
            self.return_predict_scratch(scratch);
        });
    }

    /// Lock the prediction scratch pool, recovering from poisoning instead
    /// of panicking: prediction is `&self` and must keep working after some
    /// other call panicked while holding the lock (e.g. a caller-injected
    /// panic on a worker thread). The pooled buffers are pure caches, so on
    /// poison they are discarded — the pool refills on subsequent calls.
    fn lock_predict_pool(&self) -> std::sync::MutexGuard<'_, Vec<PredictScratch>> {
        match self.predict_scratch.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.predict_scratch.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.clear();
                guard
            }
        }
    }

    /// Pop a prediction scratch from the tree's pool, or create a fresh one
    /// when all pooled buffers are checked out (first use, or more
    /// concurrent predictions than ever before — the returned buffer joins
    /// the pool afterwards, so the pool's size converges on the peak
    /// concurrency and steady state never allocates).
    fn checkout_predict_scratch(&self) -> PredictScratch {
        self.lock_predict_pool().pop().unwrap_or_default()
    }

    /// Return a checked-out prediction scratch to the pool.
    fn return_predict_scratch(&self, scratch: PredictScratch) {
        self.lock_predict_pool().push(scratch);
    }

    /// Resident heap bytes of the whole model: the node arena (structure
    /// columns, leaf/inner model parameters, loss windows, candidate pools),
    /// the decision log, and every reusable cache the tree keeps warm
    /// (update scratch, parallel worker slots, pooled prediction buffers).
    /// Capacity-based and heap-only, following the
    /// [`dmt_models::memory::MemoryUsage`] conventions; this is the figure
    /// [`DmtConfig::memory_budget_bytes`] is enforced against and the benches
    /// report as `bytes_per_model`.
    pub fn memory_bytes(&self) -> usize {
        let predict_pool: usize = {
            let pool = self.lock_predict_pool();
            vec_bytes(&pool) + pool.iter().map(MemoryUsage::memory_bytes).sum::<usize>()
        };
        self.arena.memory_bytes()
            + self.scratch.memory_bytes()
            + self.par_scratch.memory_bytes()
            + predict_pool
            + vec_bytes(&self.nominal_features)
            + vec_bytes(&self.decisions)
    }

    /// Re-arm (or disarm, with `None`) the resident-memory budget of a live
    /// tree — see [`DmtConfig::memory_budget_bytes`] for the degradation
    /// ladder the budget drives.
    ///
    /// Used by the multi-tenant registry's fleet-budget arbitration: when
    /// tenants join or leave, every tree's share of the fleet-wide byte pool
    /// is recomputed and applied here. The new budget takes effect at the
    /// end of the next learn batch (the ladder runs at batch boundaries);
    /// disarming a budget also clears a standing growth freeze so the tree
    /// resumes splitting immediately.
    pub fn set_memory_budget(&mut self, budget: Option<usize>) {
        self.config.memory_budget_bytes = budget;
        if budget.is_none() {
            self.growth_frozen = false;
        }
    }

    /// Whether the budget ladder is currently sitting on its hard floor
    /// (rung 4): the last enforcement pass could not fit the tree under
    /// [`DmtConfig::memory_budget_bytes`], so new splits and replacements
    /// are deferred. Always `false` on unbudgeted trees.
    pub fn growth_frozen(&self) -> bool {
        self.growth_frozen
    }

    /// Budget-enforcement ladder, run at the end of every learn batch.
    /// A no-op (no arithmetic, no allocation, no flag changes beyond the
    /// early return) when [`DmtConfig::memory_budget_bytes`] is `None`, so
    /// unbudgeted trees stay bit-identical to builds without this machinery.
    ///
    /// While over budget the rungs escalate in order of increasing cost to
    /// model quality — see the [`DmtConfig::memory_budget_bytes`] docs for
    /// the ladder. The tree never refuses a batch and never panics under
    /// pressure; the worst case (rung 4) is a frozen structure that still
    /// trains its node models and still predicts.
    fn enforce_budget(&mut self) {
        let Some(budget) = self.config.memory_budget_bytes else {
            return;
        };
        self.growth_frozen = false;
        let mut bytes = self.memory_bytes();
        if bytes <= budget {
            return;
        }

        // Rung 1: retire split-candidate pools, coldest window first (ties
        // broken by preorder position — fully deterministic). The pools are
        // re-proposed from later batches, so this trades adaptation latency
        // on cold nodes for bytes.
        let mut order = Vec::new();
        self.arena.preorder_ids(self.root, &mut order);
        let mut by_cold: Vec<(u64, usize, NodeId)> = order
            .iter()
            .enumerate()
            .filter(|&(_, &id)| !self.arena.stats(id).candidates.is_empty())
            .map(|(pos, &id)| (self.arena.stats(id).count, pos, id))
            .collect();
        by_cold.sort_unstable_by_key(|&(count, pos, _)| (count, pos));
        for &(_, _, id) in &by_cold {
            if bytes <= budget {
                break;
            }
            let stats = self.arena.stats_mut(id);
            let freed = vec_bytes(&stats.candidates)
                + dmt_models::memory::slice_deep_bytes(&stats.candidates);
            stats.shed_candidates();
            bytes = bytes.saturating_sub(freed);
        }
        // The decremented counter above is only a stop heuristic; every exit
        // decision of the ladder is taken on a fresh measurement, so a drift
        // between `freed` and the real footprint can never end enforcement
        // while the tree is still over budget.
        bytes = self.memory_bytes();
        if bytes <= budget {
            return;
        }

        // Rung 2: compact the arena into a dense layout and drop the pooled
        // caches (pure reclamation — predictions and future learning are
        // unaffected; the caches regrow to what the workload actually needs).
        self.root = self.arena.compact(self.root);
        self.scratch = UpdateScratch::new();
        self.par_scratch = ParallelScratch::new();
        self.lock_predict_pool().clear();
        if self.memory_bytes() <= budget {
            return;
        }

        // Rung 3: merge subtrees back into model leaves, best prune gain
        // (eq. (5)) first, re-compacting after every merge so the freed
        // slots actually leave the resident set. This reuses the paper's own
        // prune machinery; when no merge is AIC-justified the smallest loss
        // increase goes first. Floor: a single-leaf tree.
        while !self.arena.is_leaf(self.root) && self.memory_bytes() > budget {
            let mut order = Vec::new();
            self.arena.preorder_ids(self.root, &mut order);
            let mut best: Option<(f64, usize, NodeId)> = None;
            for (pos, &id) in order.iter().enumerate() {
                if self.arena.is_leaf(id) {
                    continue;
                }
                let (leaf_loss, _) = self.arena.subtree_leaf_loss(id);
                let gain = leaf_loss - self.arena.stats(id).loss_sum;
                if best.is_none_or(|(bg, _, _)| gain > bg) {
                    best = Some((gain, pos, id));
                }
            }
            let Some((gain, _, id)) = best else { break };
            self.arena.stats_mut(id).reset_window();
            self.arena.collapse_to_leaf(id);
            self.root = self.arena.compact(self.root);
            self.decisions
                .push((self.observations, GainDecision::Prune { gain }));
        }
        if self.memory_bytes() <= budget {
            return;
        }

        // Rung 4: hard floor. Even a single leaf with shed candidates does
        // not fit — keep learning and predicting, defer all growth until a
        // later pass gets back under budget.
        self.growth_frozen = true;
    }
}

impl OnlineClassifier for DynamicModelTree {
    fn name(&self) -> &str {
        "DMT"
    }

    fn num_classes(&self) -> usize {
        self.schema.num_classes
    }

    fn predict(&self, x: &[f64]) -> usize {
        // Allocation-free: descend to the leaf and argmax its linear scores.
        use dmt_models::SimpleModel;
        let leaf = self.arena.leaf_for(self.root, x);
        self.arena.stats(leaf).model.predict(x)
    }

    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let leaf = self.arena.leaf_for(self.root, x);
        dmt_models::SimpleModel::predict_proba(&self.arena.stats(leaf).model, x)
    }

    /// Panicking wrapper over [`DynamicModelTree::try_learn_batch`] (the
    /// trait has no error channel): an empty batch is a no-op, every other
    /// rejection panics with the typed error's message. Streams that cannot
    /// guarantee clean input should call `try_learn_batch` directly.
    fn learn_batch(&mut self, xs: Rows<'_>, ys: &[usize]) {
        match self.try_learn_batch(xs, ys) {
            Ok(_) | Err(DmtError::EmptyBatch) => {}
            Err(e) => panic!("{e}"),
        }
    }

    fn predict_batch_into(&self, xs: Rows<'_>, out: &mut [usize]) {
        DynamicModelTree::predict_batch_into(self, xs, out);
    }

    fn complexity(&self) -> Complexity {
        let (inner, leaves) = self.arena.count_nodes(self.root);
        let c = self.schema.num_classes;
        let m = self.schema.num_features();
        // §VI-D2: inner nodes count one split and one parameter; linear leaf
        // models add one split (binary) or `c` splits (multiclass) and `m`
        // parameters per class.
        let splits_per_leaf = if c == 2 { 1.0 } else { c as f64 };
        let params_per_leaf = if c == 2 { m as f64 } else { (m * c) as f64 };
        Complexity {
            splits: inner as f64 + leaves as f64 * splits_per_leaf,
            parameters: inner as f64 + leaves as f64 * params_per_leaf,
        }
    }

    fn memory_bytes(&self) -> usize {
        DynamicModelTree::memory_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_stream::generators::sea::SeaGenerator;
    use dmt_stream::DataStream;

    fn sea_schema() -> StreamSchema {
        StreamSchema::numeric("SEA", 3, 2)
    }

    /// Train prequentially on SEA (normalised to [0,1]) and return the
    /// accuracy over the last `eval_window` instances.
    fn prequential_accuracy(
        tree: &mut DynamicModelTree,
        concept: usize,
        n_batches: usize,
        batch_size: usize,
        seed: u64,
    ) -> f64 {
        let mut gen = SeaGenerator::new(concept, 0.0, seed);
        let mut correct = 0u64;
        let mut total = 0u64;
        let eval_start = n_batches * 3 / 4;
        for b in 0..n_batches {
            let batch = gen.next_batch(batch_size).unwrap();
            let xs: Vec<Vec<f64>> = batch
                .xs
                .iter()
                .map(|row| row.iter().map(|v| v / 10.0).collect())
                .collect();
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            if b >= eval_start {
                for (x, &y) in rows.iter().zip(batch.ys.iter()) {
                    if tree.predict(x) == y {
                        correct += 1;
                    }
                    total += 1;
                }
            }
            tree.learn_batch(&rows, &batch.ys);
        }
        correct as f64 / total as f64
    }

    #[test]
    fn starts_as_a_single_leaf_with_zero_splits() {
        let tree = DynamicModelTree::new(sea_schema(), DmtConfig::default());
        assert_eq!(tree.num_inner_nodes(), 0);
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.name(), "DMT");
        let proba = tree.predict_proba(&[0.5, 0.5, 0.5]);
        assert_eq!(proba.len(), 2);
    }

    #[test]
    fn learns_the_sea_concept_prequentially() {
        let mut tree = DynamicModelTree::new(sea_schema(), DmtConfig::default());
        let acc = prequential_accuracy(&mut tree, 0, 60, 100, 1);
        assert!(acc > 0.85, "prequential accuracy {acc}");
    }

    #[test]
    fn stays_small_on_a_linearly_separable_concept() {
        // SEA is separable by a single hyperplane — the whole point of a
        // Model Tree is that it needs (almost) no splits here.
        let mut tree = DynamicModelTree::new(sea_schema(), DmtConfig::default());
        let _ = prequential_accuracy(&mut tree, 0, 60, 100, 3);
        assert!(
            tree.num_inner_nodes() <= 5,
            "DMT grew unexpectedly large: {} splits",
            tree.num_inner_nodes()
        );
    }

    #[test]
    fn adapts_to_abrupt_concept_drift() {
        let mut tree = DynamicModelTree::new(sea_schema(), DmtConfig::default());
        let _ = prequential_accuracy(&mut tree, 0, 50, 100, 5);
        // Switch to a different SEA concept; accuracy at the end of the second
        // phase must recover.
        let acc_after = prequential_accuracy(&mut tree, 3, 50, 100, 6);
        assert!(acc_after > 0.8, "post-drift accuracy {acc_after}");
    }

    #[test]
    fn complexity_accounting_for_binary_and_multiclass() {
        let binary = DynamicModelTree::new(sea_schema(), DmtConfig::default());
        let c = binary.complexity();
        assert_eq!(c.splits, 1.0); // one binary leaf model
        assert_eq!(c.parameters, 3.0); // m = 3

        let multi = DynamicModelTree::new(StreamSchema::numeric("m", 4, 5), DmtConfig::default());
        let c = multi.complexity();
        assert_eq!(c.splits, 5.0);
        assert_eq!(c.parameters, 20.0);
    }

    #[test]
    fn decision_log_records_structural_changes() {
        let mut tree =
            DynamicModelTree::new(StreamSchema::numeric("step", 1, 2), DmtConfig::default());
        // A step concept forces at least one split eventually.
        for _ in 0..400 {
            let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
            let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.75)).collect();
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            tree.learn_batch(&rows, &ys);
        }
        if tree.num_inner_nodes() > 0 {
            assert!(!tree.decision_log().is_empty());
            let (obs, decision) = &tree.decision_log()[0];
            assert!(*obs > 0);
            assert!(matches!(decision, GainDecision::Split { .. }));
        }
    }

    #[test]
    fn explain_returns_the_decision_path_and_weights() {
        let mut tree = DynamicModelTree::new(sea_schema(), DmtConfig::default());
        let _ = prequential_accuracy(&mut tree, 0, 30, 100, 9);
        let explanation = tree.explain(&[0.2, 0.9, 0.5]);
        assert_eq!(explanation.weights.len(), 3);
        assert_eq!(
            explanation.path.len(),
            tree.depth().min(explanation.path.len())
        );
        assert!(explanation.predicted_class < 2);
    }

    #[test]
    fn disabling_the_aic_threshold_makes_the_tree_more_eager() {
        let strict = DmtConfig::default();
        let eager = DmtConfig {
            use_aic_threshold: false,
            ..DmtConfig::default()
        };
        let mut strict_tree = DynamicModelTree::new(sea_schema(), strict);
        let mut eager_tree = DynamicModelTree::new(sea_schema(), eager);
        let _ = prequential_accuracy(&mut strict_tree, 0, 40, 100, 11);
        let _ = prequential_accuracy(&mut eager_tree, 0, 40, 100, 11);
        assert!(
            eager_tree.num_inner_nodes() >= strict_tree.num_inner_nodes(),
            "without the AIC threshold the tree should split at least as often \
             (eager {} vs strict {})",
            eager_tree.num_inner_nodes(),
            strict_tree.num_inner_nodes()
        );
    }

    #[test]
    fn multiclass_streams_use_softmax_leaves() {
        let schema = StreamSchema::numeric("mc", 3, 4);
        let mut tree = DynamicModelTree::new(schema, DmtConfig::default());
        for i in 0..200usize {
            let xs: Vec<Vec<f64>> = (0..20)
                .map(|j| {
                    let v = ((i * 20 + j) % 40) as f64 / 40.0;
                    vec![v, 1.0 - v, 0.5]
                })
                .collect();
            let ys: Vec<usize> = xs.iter().map(|x| ((x[0] * 4.0) as usize).min(3)).collect();
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            tree.learn_batch(&rows, &ys);
        }
        let p = tree.predict_proba(&[0.9, 0.1, 0.5]);
        assert_eq!(p.len(), 4);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!(tree.predict(&[0.9, 0.1, 0.5]) < 4);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn mismatched_batch_lengths_panic() {
        let mut tree = DynamicModelTree::new(sea_schema(), DmtConfig::default());
        let x: &[f64] = &[0.1, 0.2, 0.3];
        tree.learn_batch(&[x], &[0, 1]);
    }

    #[test]
    fn hostile_batches_are_typed_errors_and_leave_the_tree_untouched() {
        let mut tree = DynamicModelTree::new(sea_schema(), DmtConfig::default());
        let good: &[f64] = &[0.1, 0.2, 0.3];
        tree.learn_batch(&[good], &[1]);
        let before = tree.to_snapshot_bytes();

        assert_eq!(
            tree.try_learn_batch(&[good], &[0, 1]),
            Err(DmtError::LengthMismatch { xs: 1, ys: 2 })
        );
        assert_eq!(tree.try_learn_batch(&[], &[]), Err(DmtError::EmptyBatch));
        let short: &[f64] = &[0.1, 0.2];
        assert_eq!(
            tree.try_learn_batch(&[good, short], &[0, 1]),
            Err(DmtError::FeatureDimension {
                row: 1,
                got: 2,
                expected: 3
            })
        );
        let nan: &[f64] = &[0.1, f64::NAN, 0.3];
        assert_eq!(
            tree.try_learn_batch(&[nan], &[0]),
            Err(DmtError::NonFiniteFeature { row: 0, feature: 1 })
        );
        let inf: &[f64] = &[0.1, 0.2, f64::INFINITY];
        assert_eq!(
            tree.try_learn_batch(&[good, inf], &[0, 1]),
            Err(DmtError::NonFiniteFeature { row: 1, feature: 2 })
        );
        assert_eq!(
            tree.try_learn_batch(&[good], &[7]),
            Err(DmtError::LabelOutOfRange {
                row: 0,
                label: 7,
                num_classes: 2
            })
        );

        // None of the rejected batches may have touched any statistic.
        assert_eq!(tree.to_snapshot_bytes(), before);
        assert_eq!(tree.observations(), 1);
    }

    #[test]
    fn checked_predict_rejects_bad_shapes_and_values() {
        let tree = DynamicModelTree::new(sea_schema(), DmtConfig::default());
        let good: &[f64] = &[0.1, 0.2, 0.3];
        let mut out = [0usize; 2];
        assert_eq!(
            tree.try_predict_batch_into(&[good], &mut out),
            Err(DmtError::LengthMismatch { xs: 1, ys: 2 })
        );
        let nan: &[f64] = &[f64::NAN, 0.2, 0.3];
        assert_eq!(
            tree.try_predict_batch_into(&[good, nan], &mut out),
            Err(DmtError::NonFiniteFeature { row: 1, feature: 0 })
        );
        assert_eq!(tree.try_predict_batch_into(&[], &mut []), Ok(()));
        let mut one = [9usize];
        tree.try_predict_batch_into(&[good], &mut one).unwrap();
        assert_eq!(one[0], tree.predict(good));
    }

    #[test]
    fn empty_batch_through_the_trait_is_a_noop() {
        let mut tree = DynamicModelTree::new(sea_schema(), DmtConfig::default());
        tree.learn_batch(&[], &[]);
        assert_eq!(tree.observations(), 0);
    }

    #[test]
    fn prediction_recovers_from_a_poisoned_scratch_pool() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut tree = DynamicModelTree::new(sea_schema(), DmtConfig::default());
        let _ = prequential_accuracy(&mut tree, 0, 20, 100, 23);
        let probe: &[f64] = &[0.3, 0.8, 0.1];
        let expected = tree.predict(probe);

        // Poison the scratch pool the way a real incident would: a thread
        // panics while holding the lock.
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _guard = tree.predict_scratch.lock().unwrap();
            panic!("injected panic while holding the scratch pool");
        }));
        assert!(result.is_err());
        assert!(tree.predict_scratch.is_poisoned());

        // `&self` prediction must keep working (and agree with the
        // pre-poison prediction) instead of bricking on the poisoned lock.
        let mut out = [0usize];
        tree.predict_batch_into(&[probe], &mut out);
        assert_eq!(out[0], expected);
        assert!(!tree.predict_scratch.is_poisoned());

        // The learn path's `get_mut` site recovers too.
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _guard = tree.predict_scratch.lock().unwrap();
            panic!("poison it again");
        }));
        assert!(result.is_err());
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 8.0, 0.5, 0.2]).collect();
        let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.5)).collect();
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        tree.learn_batch(&rows, &ys);
        assert!(!tree.predict_scratch.is_poisoned());
    }

    #[test]
    fn observations_accumulate_across_batches() {
        let mut tree = DynamicModelTree::new(sea_schema(), DmtConfig::default());
        let x: &[f64] = &[0.1, 0.2, 0.3];
        tree.learn_batch(&[x, x], &[0, 1]);
        tree.learn_batch(&[x], &[1]);
        assert_eq!(tree.observations(), 3);
    }

    #[test]
    fn batched_predictions_match_per_instance_descent() {
        let mut tree = DynamicModelTree::new(sea_schema(), DmtConfig::default());
        let _ = prequential_accuracy(&mut tree, 0, 40, 100, 13);
        let mut gen = SeaGenerator::new(0, 0.0, 99);
        let batch = gen.next_batch(64).unwrap();
        let xs: Vec<Vec<f64>> = batch
            .xs
            .iter()
            .map(|row| row.iter().map(|v| v / 10.0).collect())
            .collect();
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        let batched = tree.predict_batch(&rows);
        for (x, &predicted) in rows.iter().zip(batched.iter()) {
            assert_eq!(predicted, tree.predict(x));
        }
    }

    #[test]
    fn cloned_tree_predicts_identically() {
        let mut tree = DynamicModelTree::new(sea_schema(), DmtConfig::default());
        let _ = prequential_accuracy(&mut tree, 0, 30, 100, 17);
        let clone = tree.clone();
        assert_eq!(clone.num_inner_nodes(), tree.num_inner_nodes());
        assert_eq!(clone.observations(), tree.observations());
        let probe = [0.3, 0.8, 0.1];
        assert_eq!(clone.predict(&probe), tree.predict(&probe));
        for (a, b) in clone
            .predict_proba(&probe)
            .iter()
            .zip(tree.predict_proba(&probe).iter())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
