//! The public [`DynamicModelTree`] classifier and its configuration.

use dmt_models::memory::vec_bytes;
use dmt_models::online::{Complexity, OnlineClassifier};
use dmt_models::{aic_split_threshold, BatchMode, Glm, MemoryUsage, Rows};
use dmt_stream::schema::StreamSchema;

use crate::arena::{NodeArena, NodeId};
use crate::candidate::SplitCandidate;
use crate::error::DmtError;
use crate::explain::{explain_at, LeafExplanation};
use crate::node::{learn_at, GainDecision, Levers, NodeStats, Routing};
use crate::scratch::UpdateScratch;
use crate::view::{predict_proba_row, predict_row, try_predict_rows, validate_rows, PredictView};

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
    /// Optional resident-memory budget in bytes
    /// ([`DynamicModelTree::memory_bytes`] must not exceed it after a batch).
    /// `None` (the default) disables all budget machinery — the tree is
    /// bit-identical to an unbudgeted build. `Some(budget)` arms a
    /// five-rung degradation ladder that runs at the end of every learn
    /// batch while the tree is over budget:
    ///
    /// 1. lower the pool cap, one candidate at a time, and trim every
    ///    candidate pool to its best candidates by last gain (the pool size
    ///    of §V-D, `n_saved_candidates` in the reference implementation,
    ///    turned into the budget's lever). The cap is derived state,
    ///    not a field here: it starts at [`DmtConfig::max_candidates`] and
    ///    climbs back one candidate at a time once every live node has
    ///    headroom for two more rows, so the byte footprint settles instead
    ///    of shedding and regrowing pools on every batch,
    /// 2. with the cap at its floor of one candidate, retire whole pools on
    ///    the coldest nodes (re-proposed from later batches, so their split
    ///    checks restart from one batch of statistics),
    /// 3. compact the arena and drop the update scratch (pure-cache
    ///    reclamation, no behavioural change at all),
    /// 4. merge subtrees back into model leaves, best prune gain first
    ///    (the paper's own gain (5) machinery, applied under duress),
    /// 5. freeze growth: new splits/replacements are deferred until the
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
            gain >= aic_split_threshold(k_new, k_old, self.epsilon)
        } else {
            gain >= 0.0
        }
    }
}

/// The Dynamic Model Tree classifier (see the crate-level documentation).
///
/// The tree structure lives in a flat [`NodeArena`] (struct-of-arrays split
/// keys, id-based links, free-list slot reuse on prune). Prediction descends
/// each row to its leaf ([`NodeArena::leaf_for`]) and asks that leaf's simple
/// model, as in §III of the paper; learning routes each node's sub-batch
/// with a stable in-place index partition.
pub struct DynamicModelTree {
    config: DmtConfig,
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
    /// Rung 5 of the budget ladder: `true` while the last budget enforcement
    /// could not get under [`DmtConfig::memory_budget_bytes`] even after
    /// merging the tree down, so the next batch learns without growing.
    /// Always `false` on unbudgeted trees. Derived state — recomputed by
    /// every budget pass, deliberately not serialised (a restored tree
    /// re-evaluates its budget on the first batch it learns).
    growth_frozen: bool,
    /// Rung 1 of the budget ladder: the most candidates a node's pool may
    /// hold. [`DmtConfig::max_candidates`] unless a budget binds. Derived
    /// state like `growth_frozen`: never serialised, so a restored tree
    /// starts at the maximum and derives the cap again.
    pool_cap: usize,
    /// How often each rung fired; kept with the writer, never serialised.
    budget_counters: BudgetCounters,
}

/// How often each rung of the budget ladder (see
/// [`DmtConfig::memory_budget_bytes`]) fired: the number of learn batches
/// on which it ran. Deterministic counters of the writer tree; snapshots
/// and the wire carry none of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetCounters {
    /// Batches that lowered the pool cap and trimmed the pools (rung 1).
    pub cap_lowered: u64,
    /// Batches that shed at least one whole candidate pool (rung 2).
    pub pools_shed: u64,
    /// Batches that compacted the arena and dropped the scratch (rung 3).
    pub compacted: u64,
    /// Batches that merged at least one subtree into a leaf (rung 4).
    pub merged: u64,
    /// Batches that ended with growth frozen (rung 5).
    pub frozen: u64,
}

impl Clone for DynamicModelTree {
    /// Clones the model state (arena, configuration, decision log); the
    /// update scratch starts empty and regrows on first use.
    fn clone(&self) -> Self {
        Self {
            config: self.config.clone(),
            schema: self.schema.clone(),
            nominal_features: self.nominal_features.clone(),
            arena: self.arena.clone(),
            root: self.root,
            observations: self.observations,
            decisions: self.decisions.clone(),
            scratch: UpdateScratch::new(),
            growth_frozen: self.growth_frozen,
            pool_cap: self.pool_cap,
            budget_counters: self.budget_counters,
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
            pool_cap: config.max_candidates(schema.num_features()),
            config,
            schema,
            nominal_features,
            arena,
            root,
            observations: 0,
            decisions: Vec::new(),
            scratch: UpdateScratch::new(),
            growth_frozen: false,
            budget_counters: BudgetCounters::default(),
        }
    }

    /// Rebuild a tree from decoded snapshot state (`crate::snapshot`): the
    /// model state is taken verbatim, the update scratch starts empty
    /// exactly like a fresh clone's.
    pub(crate) fn from_snapshot_parts(
        config: DmtConfig,
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
            pool_cap: config.max_candidates(schema.num_features()),
            config,
            schema,
            nominal_features,
            arena,
            root,
            observations,
            decisions,
            scratch: UpdateScratch::new(),
            growth_frozen: false,
            budget_counters: BudgetCounters::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DmtConfig {
        &self.config
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
    /// up in the arena, not in this log).
    pub fn decision_log(&self) -> &[(u64, GainDecision)] {
        &self.decisions
    }

    /// Explain the prediction for `x`: the decision path plus the linear
    /// weights of the responsible leaf model.
    pub fn explain(&self, x: &[f64]) -> LeafExplanation {
        explain_at(&self.arena, self.root, x)
    }

    /// A predict-only copy of the tree, the value a serving epoch holds:
    /// the same arena shape and split keys, a clone of every leaf model
    /// with an empty window and an empty pool, and placeholders everywhere
    /// else. It has no decision log, no scratch and no configuration. It
    /// descends and predicts through the same code as the tree, so its
    /// predictions are bit-identical to the tree's at the time of the call.
    pub fn predict_view(&self) -> PredictView {
        PredictView::new(
            self.arena.predict_only(),
            self.root,
            self.schema.num_features(),
        )
    }

    /// Checked form of [`OnlineClassifier::learn_batch`]: validate the whole
    /// batch **before** touching any statistic and report hostile input —
    /// mismatched lengths, an empty batch, wrong feature dimensions,
    /// non-finite features, out-of-range labels — as a typed [`DmtError`]
    /// instead of panicking (or worse, poisoning the candidate accumulators
    /// with NaNs mid-update). On `Err` the tree is exactly as it was, so a
    /// stream with occasional bad rows can drop them and keep learning. On
    /// `Ok` it returns the structural decision taken at the root node, the
    /// one [`DynamicModelTree::decision_log`] records.
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
        validate_rows(xs, self.schema.num_features())?;
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
        try_predict_rows(&self.arena, self.root, self.schema.num_features(), xs, out)
    }

    /// Reference form of [`DynamicModelTree::try_learn_batch`] whose
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
        let levers = Levers {
            pool_cap: self.pool_cap,
            allow_growth: !self.growth_frozen,
        };
        let (decision, _) = learn_at(
            &mut self.arena,
            self.root,
            xs,
            ys,
            &mut indices,
            &self.nominal_features,
            &self.config,
            &mut self.scratch,
            routing,
            levers,
            None,
        );
        self.scratch.indices = indices;
        if decision != GainDecision::Keep {
            self.decisions.push((self.observations, decision.clone()));
        }
        // Enforcement is the *last* step of the batch so the budget covers
        // everything the batch left resident. Anything earlier and a
        // post-enforcement allocation could leave the tree over budget at the
        // boundary.
        self.enforce_budget();
        decision
    }

    /// Class probabilities of the responsible leaf written into `out`
    /// (`out.len() == num_classes`); the allocation-free analogue of
    /// [`OnlineClassifier::predict_proba`].
    pub fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        predict_proba_row(&self.arena, self.root, x, out);
    }

    /// Predict the most probable class of every row of `xs` into `out`
    /// (`out.len() == xs.len()`) through [`OnlineClassifier::predict`]: each
    /// row descends to its leaf and takes that leaf model's argmax. Reads no
    /// shared mutable state and allocates nothing, so concurrent callers
    /// sharing the tree never contend and a read never changes what the
    /// tree learns next.
    pub fn predict_batch_into(&self, xs: Rows<'_>, out: &mut [usize]) {
        assert_eq!(xs.len(), out.len(), "xs and out must have the same length");
        for (x, o) in xs.iter().zip(out.iter_mut()) {
            *o = OnlineClassifier::predict(self, x);
        }
    }

    /// Resident heap bytes of the whole model: the node arena (structure
    /// columns, leaf/inner model parameters, loss windows, candidate pools),
    /// the decision log, and the update scratch the learn path keeps warm.
    /// Capacity-based and heap-only, following the
    /// [`dmt_models::memory::MemoryUsage`] conventions; this is the figure
    /// [`DmtConfig::memory_budget_bytes`] is enforced against and the benches
    /// report as `bytes_per_model`.
    pub fn memory_bytes(&self) -> usize {
        self.arena.memory_bytes()
            + self.scratch.memory_bytes()
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
    /// disarming a budget also clears a standing growth freeze and resets
    /// the pool cap, so the tree resumes splitting and refills its pools
    /// immediately.
    pub fn set_memory_budget(&mut self, budget: Option<usize>) {
        self.config.memory_budget_bytes = budget;
        if budget.is_none() {
            self.growth_frozen = false;
            self.pool_cap = self.max_candidates();
        }
    }

    /// Whether the budget ladder is currently sitting on its hard floor
    /// (rung 5): the last enforcement pass could not fit the tree under
    /// [`DmtConfig::memory_budget_bytes`], so new splits and replacements
    /// are deferred. Always `false` on unbudgeted trees.
    pub fn growth_frozen(&self) -> bool {
        self.growth_frozen
    }

    /// The most candidates a node's pool may hold right now (rung 1 of the
    /// budget ladder): [`DmtConfig::max_candidates`] unless a budget binds.
    pub fn pool_cap(&self) -> usize {
        self.pool_cap
    }

    /// How often each rung of the budget ladder fired so far.
    pub fn budget_counters(&self) -> BudgetCounters {
        self.budget_counters
    }

    /// [`DmtConfig::max_candidates`] for the tree's features.
    fn max_candidates(&self) -> usize {
        self.config.max_candidates(self.schema.num_features())
    }

    /// Heap bytes one more stored candidate adds to a node's pool.
    fn candidate_row_bytes(&self) -> usize {
        std::mem::size_of::<SplitCandidate>()
            + std::mem::size_of::<f64>() * self.arena.stats(self.root).k()
    }

    /// Budget-enforcement ladder, run at the end of every learn batch.
    /// A no-op (no arithmetic, no allocation, no flag changes beyond the
    /// early return) when [`DmtConfig::memory_budget_bytes`] is `None`, so
    /// unbudgeted trees stay bit-identical to builds without this machinery.
    ///
    /// While over budget the rungs escalate in order of increasing cost to
    /// model quality — see the [`DmtConfig::memory_budget_bytes`] docs for
    /// the ladder. The tree never refuses a batch and never panics under
    /// pressure; the worst case (rung 5) is a frozen structure that still
    /// trains its node models and still predicts.
    fn enforce_budget(&mut self) {
        let Some(budget) = self.config.memory_budget_bytes else {
            return;
        };
        self.growth_frozen = false;
        let bytes = self.memory_bytes();
        if bytes <= budget {
            // Raise the cap by one only when every live node could take two
            // more rows: one for the raise, one as the margin that keeps a
            // growing tree from crossing the budget on the next batch and
            // trimming straight back.
            let live = self.arena.live_count(self.root);
            let headroom = 2 * live * self.candidate_row_bytes();
            if self.pool_cap < self.max_candidates() && bytes + headroom <= budget {
                self.pool_cap += 1;
            }
            return;
        }

        // Rung 1: lower the pool cap one candidate at a time, trimming every
        // pool to its best candidates by last gain, until the tree fits or
        // the cap is at its floor of one. The stored candidates keep their
        // statistics, so the split checks keep their evidence.
        if self.pool_cap > 1 {
            self.budget_counters.cap_lowered += 1;
            while self.pool_cap > 1 {
                self.pool_cap -= 1;
                for stats in self.arena.stats_column_mut() {
                    stats.candidates.trim_to(self.pool_cap);
                }
                if self.memory_bytes() <= budget {
                    return;
                }
            }
        }

        // Rung 2: retire split-candidate pools, coldest window first (ties
        // broken by preorder position — fully deterministic). The pools are
        // re-proposed from later batches, so this trades adaptation latency
        // on cold nodes for bytes.
        let mut bytes = self.memory_bytes();
        let mut order = Vec::new();
        self.arena.preorder_ids(self.root, &mut order);
        let mut by_cold: Vec<(u64, usize, NodeId)> = order
            .iter()
            .enumerate()
            .filter(|&(_, &id)| !self.arena.stats(id).candidates.is_empty())
            .map(|(pos, &id)| (self.arena.stats(id).count, pos, id))
            .collect();
        by_cold.sort_unstable_by_key(|&(count, pos, _)| (count, pos));
        let mut shed = false;
        for &(_, _, id) in &by_cold {
            if bytes <= budget {
                break;
            }
            let stats = self.arena.stats_mut(id);
            let freed = stats.candidates.memory_bytes();
            stats.shed_candidates();
            bytes = bytes.saturating_sub(freed);
            shed = true;
        }
        if shed {
            self.budget_counters.pools_shed += 1;
        }
        // The decremented counter above is only a stop heuristic; every exit
        // decision of the ladder is taken on a fresh measurement, so a drift
        // between `freed` and the real footprint can never end enforcement
        // while the tree is still over budget.
        if self.memory_bytes() <= budget {
            return;
        }

        // Rung 3: compact the arena into a dense layout and drop the update
        // scratch (pure reclamation — predictions and future learning are
        // unaffected; the scratch regrows to what the workload actually needs).
        self.budget_counters.compacted += 1;
        self.root = self.arena.compact(self.root);
        self.scratch = UpdateScratch::new();
        if self.memory_bytes() <= budget {
            return;
        }

        // Rung 4: merge subtrees back into model leaves, best prune gain
        // (eq. (5)) first, re-compacting after every merge so the freed
        // slots actually leave the resident set. This reuses the paper's own
        // prune machinery; when no merge is AIC-justified the smallest loss
        // increase goes first. Floor: a single-leaf tree.
        let mut merged = false;
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
            merged = true;
        }
        if merged {
            self.budget_counters.merged += 1;
        }
        if self.memory_bytes() <= budget {
            return;
        }

        // Rung 5: hard floor. Even a single leaf with shed candidates does
        // not fit — keep learning and predicting, defer all growth until a
        // later pass gets back under budget.
        self.budget_counters.frozen += 1;
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
        predict_row(&self.arena, self.root, x)
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
    fn default_epsilon_matches_paper() {
        assert_eq!(DmtConfig::default().epsilon, 1e-8);
    }

    #[test]
    fn accepts_applies_the_aic_threshold_of_eq_11() {
        let config = DmtConfig::default();
        // A k = 5 leaf split into two k = 5 children needs a gain of at
        // least k_new − k_old − ln ε = 5 − ln 1e-8 ≈ 23.4.
        let split = 5.0 - 1e-8f64.ln();
        assert!((split - 23.42).abs() < 0.01);
        assert!(config.accepts(split, 10, 5));
        assert!(!config.accepts(split - 1e-9, 10, 5));
        assert!(!config.accepts(10.0, 10, 5));
        // Pruning (k_new < k_old) lowers the bar by the parameters it
        // frees: 5 − 15 − ln 1e-8 ≈ 8.4.
        assert!(!config.accepts(0.0, 5, 15));
        assert!(config.accepts(9.0, 5, 15));
        let loose = DmtConfig {
            epsilon: 1.0,
            ..DmtConfig::default()
        };
        assert!(loose.accepts(-10.0, 5, 15));
        assert!(!loose.accepts(-10.0 - 1e-9, 5, 15));
        // Non-finite gains never pass.
        for gain in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!config.accepts(gain, 10, 5), "gain {gain}");
            assert!(!config.accepts(gain, 5, 15), "gain {gain}");
        }
    }

    #[test]
    fn accepts_without_the_aic_threshold_takes_every_non_negative_gain() {
        let eager = DmtConfig {
            use_aic_threshold: false,
            ..DmtConfig::default()
        };
        for (k_new, k_old) in [(10, 5), (5, 15), (5, 5)] {
            assert!(eager.accepts(0.0, k_new, k_old));
            assert!(eager.accepts(1e-12, k_new, k_old));
            assert!(!eager.accepts(-1e-12, k_new, k_old));
            for gain in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert!(!eager.accepts(gain, k_new, k_old), "gain {gain}");
            }
        }
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
    fn the_pool_cap_is_derived_state() {
        // A split-eager tree over eight features under a budget that binds:
        // the first rung lowers the cap below `max_candidates` and trims
        // every pool to it.
        let config = DmtConfig {
            use_aic_threshold: false,
            min_observations_split: 40,
            memory_budget_bytes: Some(24 * 1024),
            ..DmtConfig::default()
        };
        let schema = StreamSchema::numeric("cap", 8, 2);
        let max = config.max_candidates(8);
        let mut tree = DynamicModelTree::new(schema.clone(), config);
        assert_eq!(tree.pool_cap(), max);
        for round in 0..60usize {
            let xs: Vec<Vec<f64>> = (0..64)
                .map(|i| {
                    (0..8)
                        .map(|f| ((i * (f + 3) + round * 7) % 97) as f64 / 97.0)
                        .collect()
                })
                .collect();
            let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] + x[1] > 1.0)).collect();
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            tree.learn_batch(&rows, &ys);
            assert!(tree.memory_bytes() <= 24 * 1024);
        }
        let cap = tree.pool_cap();
        assert!(cap < max, "the budget must bind");
        assert!(tree.budget_counters().cap_lowered > 0);
        let mut ids = Vec::new();
        tree.arena().preorder_ids(tree.root_id(), &mut ids);
        for &id in &ids {
            assert!(tree.arena().stats(id).candidates.len() <= cap);
        }
        // A clone is the same tree; a restored tree starts at the maximum
        // and derives the cap again; disarming the budget resets it.
        assert_eq!(tree.clone().pool_cap(), cap);
        assert_eq!(tree.clone().budget_counters(), tree.budget_counters());
        let restored = DynamicModelTree::from_snapshot_bytes(&tree.to_snapshot_bytes()).unwrap();
        assert_eq!(restored.pool_cap(), max);
        assert_eq!(restored.budget_counters(), BudgetCounters::default());
        tree.set_memory_budget(None);
        assert_eq!(tree.pool_cap(), max);
        // Unbudgeted trees never move the cap.
        let mut free = DynamicModelTree::new(schema, DmtConfig::default());
        let x: &[f64] = &[0.5; 8];
        free.learn_batch(&[x, x], &[0, 1]);
        assert_eq!(free.pool_cap(), max);
        assert_eq!(free.budget_counters(), BudgetCounters::default());
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
