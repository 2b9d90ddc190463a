//! Per-layer probes of the traced run that sit below the tree's public
//! calls: a GLM of the workload's shape (`dmt-models`), a root node fed every
//! batch (`dmt-core` `NodeStats`), and counts read from the public arena.

use std::hint::black_box;
use std::time::Instant;

use dmt_core::{DmtConfig, DynamicModelTree, NodeId, NodeStats, UpdateScratch};
use dmt_models::linalg::{MatMut, MatRef};
use dmt_models::{Glm, SimpleModel};
use dmt_stream::StreamSchema;

use crate::stats::quantile;
use crate::trace::{Tracer, ROOT};

/// Replays a workload's batches through the layers below the tree.
///
/// The GLM starts from the same seed as a fresh tree's root model, so it
/// does exactly the model work the root node does; the node's time minus the
/// GLM's is the candidate and pool self time.
pub struct LayerReplay {
    glm: Glm,
    node: NodeStats,
    nominal: Vec<bool>,
    config: DmtConfig,
    scratch: UpdateScratch,
    indices: Vec<usize>,
    xbuf: Vec<f64>,
    losses: Vec<f64>,
    grads: Vec<f64>,
    grad_buf: Vec<f64>,
    class_buf: Vec<f64>,
    probs: Vec<f64>,
}

impl LayerReplay {
    /// Layers of a tree over `schema` with paper defaults.
    pub fn new(schema: &StreamSchema) -> Self {
        let config = DmtConfig::default();
        let (m, c) = (schema.num_features(), schema.num_classes);
        let glm = Glm::new_random(m, c, config.seed);
        let k = glm.num_params();
        Self {
            node: NodeStats::new(glm.clone()),
            glm,
            nominal: schema
                .features
                .iter()
                .map(|f| f.feature_type.is_nominal())
                .collect(),
            config,
            scratch: UpdateScratch::new(),
            indices: Vec::new(),
            xbuf: Vec::new(),
            losses: Vec::new(),
            grads: Vec::new(),
            grad_buf: vec![0.0; k],
            class_buf: vec![0.0; c],
            probs: Vec::new(),
        }
    }

    /// Feed one batch to the GLM and the node; spans go to `tracer` when
    /// given (batches before the timed phase only advance the state).
    pub fn step(
        &mut self,
        rows: &[&[f64]],
        ys: &[usize],
        tracer: Option<&mut Tracer>,
        request: u64,
    ) {
        let (b, m) = (rows.len(), self.glm.num_features());
        let (k, c) = (self.glm.num_params(), self.glm.num_classes());
        self.xbuf.clear();
        for row in rows {
            self.xbuf.extend_from_slice(row);
        }
        self.losses.resize(b, 0.0);
        self.grads.resize(b * k, 0.0);
        self.probs.resize(b * c, 0.0);
        self.indices.clear();
        self.indices.extend(0..b);
        let x = MatRef::new(&self.xbuf, b, m);

        let t0 = Instant::now();
        black_box(self.glm.loss_and_gradient_batch_into(
            x,
            ys,
            &mut self.losses,
            MatMut::new(&mut self.grads, b, k),
            &mut self.class_buf,
        ));
        let t1 = Instant::now();
        self.glm.predict_proba_batch_into(x, &mut self.probs);
        black_box(&self.probs);
        let t2 = Instant::now();
        black_box(self.glm.learn_batch_into(
            x,
            ys,
            self.config.learning_rate,
            self.config.batch_mode,
            &mut self.grad_buf,
            &mut self.class_buf,
        ));
        let t3 = Instant::now();
        self.node.update_with_batch_indexed(
            rows,
            ys,
            &self.indices,
            &self.nominal,
            &self.config,
            &mut self.scratch,
        );
        let t4 = Instant::now();

        if let Some(tr) = tracer {
            let step = tr.record("replay.layers", t0, t4, ROOT, request);
            tr.record("models.glm_pass", t0, t1, step, request);
            tr.record("models.glm_predict", t1, t2, step, request);
            tr.record("models.glm_sgd", t2, t3, step, request);
            tr.record("core.node_update", t3, t4, step, request);
        }
    }
}

/// Per-row ns of the median `name` span over batches of `rows` rows.
pub fn ns_per_row(tracer: &Tracer, name: &str, rows: usize) -> f64 {
    quantile(&mut tracer.durations_us(name), 0.5) * 1e3 / rows as f64
}

/// FNV-1a hash of the tree's shape in preorder (leaf or split feature and
/// value per node). Arena compaction renumbers slots but keeps this hash, so
/// a change means a split, prune, replacement or budget merge.
pub fn shape_hash(tree: &DynamicModelTree, order: &mut Vec<NodeId>) -> u64 {
    let arena = tree.arena();
    order.clear();
    arena.preorder_ids(tree.root_id(), order);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        hash ^= v;
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    };
    for &id in order.iter() {
        if arena.is_leaf(id) {
            mix(u64::MAX);
        } else {
            let key = arena.split_key(id);
            mix(key.feature as u64);
            mix(key.value.to_bits());
        }
    }
    hash
}

/// Candidate-batch accumulations a batch is about to cause: the candidates
/// held by every node at least one of `rows` passes through.
pub fn candidate_accumulations(
    tree: &DynamicModelTree,
    rows: &[&[f64]],
    visited: &mut Vec<bool>,
) -> u64 {
    let arena = tree.arena();
    visited.clear();
    visited.resize(arena.num_slots(), false);
    let mut total = 0u64;
    for x in rows {
        let mut id = tree.root_id();
        loop {
            if !visited[id.index()] {
                visited[id.index()] = true;
                total += arena.stats(id).candidates.len() as u64;
            }
            match arena.children(id) {
                Some((left, right)) => {
                    id = if arena.split_key(id).goes_left(x) {
                        left
                    } else {
                        right
                    };
                }
                None => break,
            }
        }
    }
    total
}

/// Live nodes, depth and stored split candidates of the tree.
pub fn census(tree: &DynamicModelTree) -> (f64, f64, f64) {
    let arena = tree.arena();
    let mut order = Vec::new();
    arena.preorder_ids(tree.root_id(), &mut order);
    let candidates: usize = order
        .iter()
        .map(|&id| arena.stats(id).candidates.len())
        .sum();
    (order.len() as f64, tree.depth() as f64, candidates as f64)
}

/// Structure counts gathered while the traced pass learns.
#[derive(Default)]
pub struct CoreCounts {
    /// Timed batches after which the tree's shape differed.
    pub structural_batches: u64,
    /// Timed batches that ended with growth frozen by the budget ladder.
    pub frozen_batches: u64,
    /// Candidate-batch accumulations over the timed batches.
    pub accumulations: u64,
    /// Learn time of structural batches, µs.
    pub structural_us: Vec<f64>,
    /// Learn time of the other batches, µs.
    pub steady_us: Vec<f64>,
}

impl CoreCounts {
    /// Account one learned batch.
    pub fn batch(&mut self, learn_us: f64, structural: bool, frozen: bool) {
        if structural {
            self.structural_batches += 1;
            self.structural_us.push(learn_us);
        } else {
            self.steady_us.push(learn_us);
        }
        self.frozen_batches += u64::from(frozen);
    }

    /// Structural changes per 1,000 candidate-batch accumulations.
    pub fn candidate_yield(&self) -> f64 {
        1e3 * self.structural_batches as f64 / self.accumulations.max(1) as f64
    }
}
