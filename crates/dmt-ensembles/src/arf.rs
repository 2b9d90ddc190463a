//! Adaptive Random Forest (Gomes et al., 2017).
//!
//! Online random forest for evolving data streams:
//!
//! * each member is a Hoeffding tree restricted to a random **feature
//!   subspace** (√m features by default, re-drawn when the member is reset);
//! * instances are presented to each member `k ~ Poisson(6)` times (online
//!   bagging);
//! * each member carries an ADWIN **warning** and **drift** detector on its
//!   prequential error; a warning starts a background tree, a drift signal
//!   replaces the member with its background tree (or a fresh tree when no
//!   background tree exists yet);
//! * predictions are combined by probability-weighted voting.
//!
//! Following §VI-C of the paper the forest uses 3 weak learners configured
//! like the stand-alone VFDT.
//!
//! # Parallel member training
//!
//! Unlike Leveraging Bagging, the ARF update has **no** cross-member step at
//! all — warnings, background trees and drift replacements are decided and
//! applied per member. Each member owns a private deterministic RNG stream
//! (seeded from `config.seed` and the member index) feeding its Poisson
//! weighting *and* its subspace re-draws, so members never share mutable
//! state and `learn_batch` can fan them out over a persistent
//! [`WorkerPool`] ([`Parallelism::Threads`]`(n ≥ 2)`, pool shared via
//! [`AdaptiveRandomForest::set_worker_pool`] or created lazily) with results
//! **bit-identical** to the serial member-order loop — pinned by
//! `tests/integration_parallel.rs`.

use std::sync::Arc;

use dmt_drift::{Adwin, DriftDetector};
use dmt_models::memory::vec_bytes;
use dmt_models::online::{Complexity, OnlineClassifier};
use dmt_models::{MemoryUsage, Rows};
use dmt_stream::schema::StreamSchema;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_distr::{Distribution, Poisson};

use dmt_baselines::vfdt::{HoeffdingTreeClassifier, VfdtConfig};

use crate::member_stream_seed;
use crate::parallel::{Parallelism, WorkerPool};

/// Configuration of the Adaptive Random Forest.
#[derive(Debug, Clone)]
pub struct ArfConfig {
    /// Number of trees (the paper uses 3).
    pub ensemble_size: usize,
    /// Poisson λ for online bagging (canonical value 6).
    pub lambda: f64,
    /// Number of features per subspace; `None` uses `ceil(sqrt(m))`.
    pub subspace_size: Option<usize>,
    /// ADWIN confidence of the warning detectors.
    pub warning_delta: f64,
    /// ADWIN confidence of the drift detectors.
    pub drift_delta: f64,
    /// Configuration of the weak Hoeffding trees.
    pub base_config: VfdtConfig,
    /// Seed for subspace sampling and the per-member Poisson streams.
    pub seed: u64,
    /// How `learn_batch` trains the members: serially in member order, or
    /// fanned out over a persistent [`WorkerPool`] ([`Parallelism::Threads`]).
    /// Members are fully independent, so both settings are **bit-identical**;
    /// only wall-clock time differs. The default honours `DMT_PARALLELISM`
    /// (see [`Parallelism::from_env`]).
    pub parallelism: Parallelism,
}

impl Default for ArfConfig {
    fn default() -> Self {
        Self {
            ensemble_size: 3,
            lambda: 6.0,
            subspace_size: None,
            warning_delta: 0.01,
            drift_delta: 0.001,
            base_config: VfdtConfig::majority_class(),
            seed: 13,
            parallelism: Parallelism::from_env(),
        }
    }
}

/// One forest member: a tree over a feature subspace plus its detectors,
/// optional background tree and private RNG stream. Everything a member
/// touches during batch training lives here, which is what makes member
/// training embarrassingly parallel.
struct ForestMember {
    tree: HoeffdingTreeClassifier,
    subspace: Vec<usize>,
    warning: Adwin,
    drift: Adwin,
    background: Option<(HoeffdingTreeClassifier, Vec<usize>)>,
    /// Private stream feeding this member's Poisson weighting and subspace
    /// re-draws; deterministic per member, survives member resets.
    rng: StdRng,
}

impl ForestMember {
    fn project(&self, x: &[f64]) -> Vec<f64> {
        self.subspace.iter().map(|&i| x[i]).collect()
    }

    /// [`ForestMember::project`] into a reusable buffer (batch prediction
    /// reuses one projection buffer across rows and members).
    fn project_into(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.subspace.iter().map(|&i| x[i]));
    }

    /// Present every instance of the batch to this member: prequential error
    /// into both detectors, warning-triggered background tree, Poisson
    /// presentations and drift-triggered reset. Touches only member-local
    /// state (the subspace draws come from the member's own RNG).
    fn train_on_batch(
        &mut self,
        xs: Rows<'_>,
        ys: &[usize],
        schema: &StreamSchema,
        config: &ArfConfig,
    ) {
        let poisson = Poisson::new(config.lambda).expect("lambda > 0");
        for (x, &y) in xs.iter().zip(ys.iter()) {
            let projected = self.project(x);
            let error = if self.tree.predict(&projected) == y {
                0.0
            } else {
                1.0
            };
            let warning = self.warning.update(error);
            let drift = self.drift.update(error);

            if warning && self.background.is_none() {
                let subspace = AdaptiveRandomForest::draw_subspace(schema, config, &mut self.rng);
                let tree = HoeffdingTreeClassifier::new(
                    AdaptiveRandomForest::projected_schema(schema, &subspace),
                    config.base_config.clone(),
                );
                self.background = Some((tree, subspace));
            }

            let k = poisson.sample(&mut self.rng) as usize;
            for _ in 0..k {
                self.tree.learn_one(&projected, y);
                if let Some((background, subspace)) = self.background.as_mut() {
                    let projected_bg: Vec<f64> = subspace.iter().map(|&i| x[i]).collect();
                    background.learn_one(&projected_bg, y);
                }
            }

            if drift {
                if let Some((background, subspace)) = self.background.take() {
                    self.tree = background;
                    self.subspace = subspace;
                } else {
                    let subspace =
                        AdaptiveRandomForest::draw_subspace(schema, config, &mut self.rng);
                    self.tree = HoeffdingTreeClassifier::new(
                        AdaptiveRandomForest::projected_schema(schema, &subspace),
                        config.base_config.clone(),
                    );
                    self.subspace = subspace;
                }
                self.warning = Adwin::new(config.warning_delta);
                self.drift = Adwin::new(config.drift_delta);
            }
        }
    }
}

/// The Adaptive Random Forest classifier.
pub struct AdaptiveRandomForest {
    config: ArfConfig,
    schema: StreamSchema,
    members: Vec<ForestMember>,
    observations: u64,
    /// Persistent worker pool of the parallel member-training path; created
    /// lazily (or injected via [`AdaptiveRandomForest::set_worker_pool`]) and
    /// never materialised in serial mode.
    pool: Option<Arc<WorkerPool>>,
}

impl AdaptiveRandomForest {
    /// Create a forest for the given schema.
    pub fn new(schema: StreamSchema, config: ArfConfig) -> Self {
        assert!(config.ensemble_size >= 1, "need at least one member");
        // Initial subspaces come from one construction-time stream (drawn in
        // member order); each member then continues on its own stream.
        let mut init_rng = StdRng::seed_from_u64(config.seed);
        let members = (0..config.ensemble_size)
            .map(|i| {
                let subspace = Self::draw_subspace(&schema, &config, &mut init_rng);
                let tree = HoeffdingTreeClassifier::new(
                    Self::projected_schema(&schema, &subspace),
                    config.base_config.clone(),
                );
                ForestMember {
                    tree,
                    subspace,
                    warning: Adwin::new(config.warning_delta),
                    drift: Adwin::new(config.drift_delta),
                    background: None,
                    rng: StdRng::seed_from_u64(member_stream_seed(config.seed, i as u64)),
                }
            })
            .collect();
        Self {
            config,
            schema,
            members,
            observations: 0,
            pool: None,
        }
    }

    /// Share a persistent [`WorkerPool`] with this forest: parallel member
    /// training dispatches onto `pool`'s resident threads instead of lazily
    /// creating a private pool.
    pub fn set_worker_pool(&mut self, pool: Arc<WorkerPool>) {
        self.pool = Some(pool);
    }

    /// The forest's current worker pool, if one exists.
    pub fn worker_pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_ref()
    }

    fn subspace_size(schema: &StreamSchema, config: &ArfConfig) -> usize {
        config
            .subspace_size
            .unwrap_or_else(|| (schema.num_features() as f64).sqrt().ceil() as usize)
            .clamp(1, schema.num_features())
    }

    fn draw_subspace(schema: &StreamSchema, config: &ArfConfig, rng: &mut StdRng) -> Vec<usize> {
        let k = Self::subspace_size(schema, config);
        let mut indices: Vec<usize> = (0..schema.num_features()).collect();
        indices.shuffle(rng);
        indices.truncate(k);
        indices.sort_unstable();
        indices
    }

    fn projected_schema(schema: &StreamSchema, subspace: &[usize]) -> StreamSchema {
        let features = subspace
            .iter()
            .map(|&i| schema.features[i].clone())
            .collect();
        StreamSchema::new(
            format!("{}-subspace", schema.name),
            features,
            schema.num_classes,
        )
    }

    /// Number of ensemble members.
    pub fn ensemble_size(&self) -> usize {
        self.members.len()
    }

    /// Probability-weighted vote over the members, written into the
    /// caller-provided buffers (`votes.len() == proba.len() == num_classes`;
    /// `projected` is subspace-projection scratch) so batch prediction
    /// reuses three buffers across all rows and members: each member's
    /// probabilities land in `proba` through the trees' allocation-free
    /// [`HoeffdingTreeClassifier::predict_proba_into`] — no allocation per
    /// member per row.
    fn vote_into(&self, x: &[f64], votes: &mut [f64], proba: &mut [f64], projected: &mut Vec<f64>) {
        votes.fill(0.0);
        for member in &self.members {
            member.project_into(x, projected);
            member.tree.predict_proba_into(projected, proba);
            for (v, p) in votes.iter_mut().zip(proba.iter()) {
                *v += p;
            }
        }
        let total: f64 = votes.iter().sum();
        if total > 0.0 {
            for v in votes.iter_mut() {
                *v /= total;
            }
        } else {
            votes.fill(1.0 / votes.len() as f64);
        }
    }

    fn vote(&self, x: &[f64]) -> Vec<f64> {
        let mut votes = vec![0.0; self.schema.num_classes];
        let mut proba = vec![0.0; self.schema.num_classes];
        self.vote_into(x, &mut votes, &mut proba, &mut Vec::new());
        votes
    }

    /// Learn one instance (a batch of one; the ARF update is member-local, so
    /// batch and instance granularity coincide exactly).
    pub fn learn_one(&mut self, x: &[f64], y: usize) {
        self.learn_batch(&[x], &[y]);
    }

    /// Train every member on the batch — serially, or fanned out over the
    /// worker pool. The ARF update has no cross-member step, so both paths
    /// are bit-identical.
    fn train_members(&mut self, xs: Rows<'_>, ys: &[usize]) {
        let schema = &self.schema;
        let config = &self.config;
        // More executors than members would only spawn permanently idle
        // threads — one dispatch item exists per member. Tiny batches (the
        // per-instance `learn_one` loop above all) stay on the serial member
        // loop: their member work is cheaper than a dispatch hand-shake.
        let workers = config.parallelism.workers().min(self.members.len());
        if workers >= 2 && xs.len() >= crate::MEMBER_PARALLEL_MIN_ROWS {
            if self.pool.is_none() {
                self.pool = Some(Arc::new(WorkerPool::new(workers)));
            }
            let pool = Arc::clone(self.pool.as_ref().expect("pool just ensured"));
            let items: Vec<&mut ForestMember> = self.members.iter_mut().collect();
            pool.run(items, |_, member| {
                member.train_on_batch(xs, ys, schema, config)
            });
        } else {
            for member in self.members.iter_mut() {
                member.train_on_batch(xs, ys, schema, config);
            }
        }
    }
}

impl OnlineClassifier for AdaptiveRandomForest {
    fn name(&self) -> &str {
        "Forest Ens."
    }

    fn num_classes(&self) -> usize {
        self.schema.num_classes
    }

    fn predict(&self, x: &[f64]) -> usize {
        dmt_models::argmax(&self.vote(x))
    }

    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        self.vote(x)
    }

    fn learn_batch(&mut self, xs: Rows<'_>, ys: &[usize]) {
        assert_eq!(xs.len(), ys.len(), "xs and ys must have the same length");
        self.observations += xs.len() as u64;
        self.train_members(xs, ys);
    }

    fn predict_batch_into(&self, xs: Rows<'_>, out: &mut [usize]) {
        // Three buffers for the whole batch (votes, per-member
        // probabilities, subspace projection) instead of fresh `Vec<f64>`s
        // per row and member.
        let mut votes = vec![0.0; self.schema.num_classes];
        let mut proba = vec![0.0; self.schema.num_classes];
        let mut projected = Vec::new();
        for (x, o) in xs.iter().zip(out.iter_mut()) {
            self.vote_into(x, &mut votes, &mut proba, &mut projected);
            *o = dmt_models::argmax(&votes);
        }
    }

    fn complexity(&self) -> Complexity {
        let mut total = Complexity::default();
        for member in &self.members {
            let c = member.tree.complexity();
            total.splits += c.splits;
            total.parameters += c.parameters;
        }
        total
    }

    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.members)
            + self
                .members
                .iter()
                .map(|m| {
                    m.tree.memory_bytes()
                        + vec_bytes(&m.subspace)
                        + m.warning.memory_bytes()
                        + m.drift.memory_bytes()
                        + m.background.as_ref().map_or(0, |(tree, subspace)| {
                            tree.memory_bytes() + vec_bytes(subspace)
                        })
                })
                .sum::<usize>()
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

    #[test]
    fn subspaces_have_sqrt_m_features_by_default() {
        let schema = StreamSchema::numeric("wide", 49, 2);
        let forest = AdaptiveRandomForest::new(schema, ArfConfig::default());
        for member in &forest.members {
            assert_eq!(member.subspace.len(), 7);
            assert!(member.subspace.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn explicit_subspace_size_is_clamped() {
        let schema = StreamSchema::numeric("narrow", 3, 2);
        let config = ArfConfig {
            subspace_size: Some(10),
            ..ArfConfig::default()
        };
        let forest = AdaptiveRandomForest::new(schema, config);
        for member in &forest.members {
            assert_eq!(member.subspace.len(), 3);
        }
    }

    #[test]
    fn learns_sea_better_than_chance() {
        let mut forest = AdaptiveRandomForest::new(sea_schema(), ArfConfig::default());
        let mut gen = SeaGenerator::new(0, 0.0, 3);
        for _ in 0..8_000 {
            let inst = gen.next_instance().unwrap();
            forest.learn_one(&inst.x, inst.y);
        }
        let mut test_gen = SeaGenerator::new(0, 0.0, 41);
        let mut correct = 0;
        for _ in 0..1_000 {
            let inst = test_gen.next_instance().unwrap();
            if forest.predict(&inst.x) == inst.y {
                correct += 1;
            }
        }
        assert!(
            correct as f64 / 1_000.0 > 0.75,
            "accuracy {}",
            correct as f64 / 1_000.0
        );
    }

    #[test]
    fn prediction_is_a_distribution() {
        let forest = AdaptiveRandomForest::new(sea_schema(), ArfConfig::default());
        let p = forest.predict_proba(&[1.0, 2.0, 3.0]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(forest.name(), "Forest Ens.");
    }

    #[test]
    fn complexity_sums_over_members() {
        let forest = AdaptiveRandomForest::new(sea_schema(), ArfConfig::default());
        assert_eq!(forest.complexity().parameters, 3.0);
        assert_eq!(forest.complexity().splits, 0.0);
    }

    #[test]
    fn adapts_after_concept_switch() {
        let mut forest = AdaptiveRandomForest::new(sea_schema(), ArfConfig::default());
        let mut gen_a = SeaGenerator::new(0, 0.0, 9);
        for _ in 0..6_000 {
            let inst = gen_a.next_instance().unwrap();
            forest.learn_one(&inst.x, inst.y);
        }
        let mut gen_b = SeaGenerator::new(2, 0.0, 10);
        for _ in 0..6_000 {
            let inst = gen_b.next_instance().unwrap();
            forest.learn_one(&inst.x, inst.y);
        }
        let mut test_gen = SeaGenerator::new(2, 0.0, 11);
        let mut correct = 0;
        for _ in 0..1_000 {
            let inst = test_gen.next_instance().unwrap();
            if forest.predict(&inst.x) == inst.y {
                correct += 1;
            }
        }
        assert!(
            correct as f64 / 1_000.0 > 0.7,
            "post-drift accuracy {}",
            correct as f64 / 1_000.0
        );
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_members_panics() {
        let config = ArfConfig {
            ensemble_size: 0,
            ..ArfConfig::default()
        };
        let _ = AdaptiveRandomForest::new(sea_schema(), config);
    }

    #[test]
    fn learn_one_equals_a_batch_of_one() {
        // The ARF update is member-local with no batch-boundary step, so
        // feeding instances one by one must equal feeding them as
        // single-row batches bit-for-bit.
        let mut a = AdaptiveRandomForest::new(sea_schema(), ArfConfig::default());
        let mut b = AdaptiveRandomForest::new(sea_schema(), ArfConfig::default());
        let mut gen = SeaGenerator::new(0, 0.0, 23);
        for _ in 0..500 {
            let inst = gen.next_instance().unwrap();
            a.learn_one(&inst.x, inst.y);
            b.learn_batch(&[inst.x.as_slice()], &[inst.y]);
        }
        let mut probe_gen = SeaGenerator::new(0, 0.0, 24);
        for _ in 0..50 {
            let inst = probe_gen.next_instance().unwrap();
            let (pa, pb) = (a.predict_proba(&inst.x), b.predict_proba(&inst.x));
            for (va, vb) in pa.iter().zip(pb.iter()) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    }
}
