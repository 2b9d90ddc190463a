//! Leveraging Bagging (Bifet, Holmes & Pfahringer, 2010).
//!
//! Online bagging where each incoming instance is presented to every ensemble
//! member `k ~ Poisson(λ)` times with λ = 6 (more aggressive resampling than
//! Oza bagging's λ = 1). Every member carries an ADWIN detector on its
//! prequential error; when any detector fires, the *worst* member (highest
//! estimated error) is replaced by a fresh tree. Predictions are combined by
//! majority vote.
//!
//! # Batch semantics and parallel member training
//!
//! Members train **independently**: each member owns its tree, its ADWIN
//! detector and its *own* deterministic RNG stream (seeded from
//! `config.seed` and the member index), so presenting a batch to member A
//! never reads or advances member B's state. `learn_batch` therefore runs
//! member-major — each member consumes the whole batch instance-by-instance —
//! and the only cross-member step, the drift-triggered replacement of the
//! worst member, happens once at the **batch boundary** (for single-instance
//! batches this coincides with the classic per-instance rule). Member order
//! never matters, which is what makes the pooled mode bit-identical:
//! with [`Parallelism::Threads`]`(n ≥ 2)` the members fan out over a
//! persistent [`WorkerPool`] (shared with other models via
//! [`LeveragingBagging::set_worker_pool`], or created lazily) and the
//! resulting ensemble is **bit-identical** to a serial run — pinned by
//! `tests/integration_parallel.rs`.

use std::sync::Arc;

use dmt_drift::{Adwin, DriftDetector};
use dmt_models::memory::vec_bytes;
use dmt_models::online::{Complexity, OnlineClassifier};
use dmt_models::{MemoryUsage, Rows};
use dmt_stream::schema::StreamSchema;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Poisson};

use dmt_baselines::vfdt::{HoeffdingTreeClassifier, VfdtConfig};

use crate::member_stream_seed;
use crate::parallel::{Parallelism, WorkerPool};

/// Configuration of the Leveraging Bagging ensemble.
#[derive(Debug, Clone)]
pub struct LeveragingBaggingConfig {
    /// Number of weak learners (the paper uses 3).
    pub ensemble_size: usize,
    /// Poisson λ of the instance weighting (canonical value 6).
    pub lambda: f64,
    /// ADWIN confidence for the per-member drift detectors.
    pub adwin_delta: f64,
    /// Configuration of the weak Hoeffding trees.
    pub base_config: VfdtConfig,
    /// Seed for the per-member Poisson sampling streams.
    pub seed: u64,
    /// How `learn_batch` trains the members: serially in member order, or
    /// fanned out over a persistent [`WorkerPool`] ([`Parallelism::Threads`]).
    /// Members are independent given their private RNG streams, so both
    /// settings are **bit-identical**; only wall-clock time differs. The
    /// default honours `DMT_PARALLELISM` (see [`Parallelism::from_env`]).
    pub parallelism: Parallelism,
}

impl Default for LeveragingBaggingConfig {
    fn default() -> Self {
        Self {
            ensemble_size: 3,
            lambda: 6.0,
            adwin_delta: 0.002,
            base_config: VfdtConfig::majority_class(),
            seed: 7,
            parallelism: Parallelism::from_env(),
        }
    }
}

/// One ensemble member: its tree, its drift detector, its private RNG stream
/// and the batch-local drift flag. Everything a member touches during batch
/// training lives here, which is what makes member training embarrassingly
/// parallel.
struct BaggingMember {
    tree: HoeffdingTreeClassifier,
    detector: Adwin,
    /// Private Poisson sampling stream; deterministic per member, survives
    /// member replacement (the tree resets, the stream continues).
    rng: StdRng,
    /// Whether this member's detector fired during the current batch;
    /// consumed by the serial batch-boundary replacement step.
    drifted: bool,
}

impl BaggingMember {
    /// Present every instance of the batch to this member: prequential error
    /// into the detector, then `k ~ Poisson(λ)` training presentations.
    /// Touches only member-local state.
    fn train_on_batch(&mut self, xs: Rows<'_>, ys: &[usize], lambda: f64) {
        let poisson = Poisson::new(lambda).expect("lambda > 0");
        for (x, &y) in xs.iter().zip(ys.iter()) {
            let error = if self.tree.predict(x) == y { 0.0 } else { 1.0 };
            if self.detector.update(error) {
                self.drifted = true;
            }
            let k = poisson.sample(&mut self.rng) as usize;
            for _ in 0..k {
                self.tree.learn_one(x, y);
            }
        }
    }
}

/// The Leveraging Bagging ensemble classifier.
pub struct LeveragingBagging {
    config: LeveragingBaggingConfig,
    schema: StreamSchema,
    members: Vec<BaggingMember>,
    observations: u64,
    /// Persistent worker pool of the parallel member-training path; created
    /// lazily (or injected via [`LeveragingBagging::set_worker_pool`]) and
    /// never materialised in serial mode.
    pool: Option<Arc<WorkerPool>>,
}

impl LeveragingBagging {
    /// Create an ensemble for the given schema.
    pub fn new(schema: StreamSchema, config: LeveragingBaggingConfig) -> Self {
        assert!(config.ensemble_size >= 1, "need at least one member");
        let members = (0..config.ensemble_size)
            .map(|i| BaggingMember {
                tree: HoeffdingTreeClassifier::new(schema.clone(), config.base_config.clone()),
                detector: Adwin::new(config.adwin_delta),
                rng: StdRng::seed_from_u64(member_stream_seed(config.seed, i as u64)),
                drifted: false,
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

    /// Share a persistent [`WorkerPool`] with this ensemble: parallel member
    /// training dispatches onto `pool`'s resident threads instead of lazily
    /// creating a private pool.
    pub fn set_worker_pool(&mut self, pool: Arc<WorkerPool>) {
        self.pool = Some(pool);
    }

    /// The ensemble's current worker pool, if one exists.
    pub fn worker_pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_ref()
    }

    /// Number of ensemble members.
    pub fn ensemble_size(&self) -> usize {
        self.members.len()
    }

    /// Majority-vote class distribution over the members, written into the
    /// caller-provided buffers (`votes.len() == proba.len() == num_classes`)
    /// so batch prediction reuses two buffers across all rows and members:
    /// each member's probabilities land in `proba` through the trees'
    /// allocation-free [`HoeffdingTreeClassifier::predict_proba_into`] and
    /// are accumulated into `votes` — no allocation per member per row.
    fn vote_into(&self, x: &[f64], votes: &mut [f64], proba: &mut [f64]) {
        votes.fill(0.0);
        for member in &self.members {
            member.tree.predict_proba_into(x, proba);
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

    /// Majority-vote class distribution over the members.
    fn vote(&self, x: &[f64]) -> Vec<f64> {
        let mut votes = vec![0.0; self.schema.num_classes];
        let mut proba = vec![0.0; self.schema.num_classes];
        self.vote_into(x, &mut votes, &mut proba);
        votes
    }

    /// Learn one instance: Poisson-weighted presentation to every member plus
    /// the ADWIN-triggered worst-member replacement. Equivalent to a batch of
    /// one (see the module docs' batch semantics).
    pub fn learn_one(&mut self, x: &[f64], y: usize) {
        self.learn_batch(&[x], &[y]);
    }

    /// Train every member on the batch — serially, or fanned out over the
    /// worker pool. Member training is member-local, so both paths are
    /// bit-identical.
    fn train_members(&mut self, xs: Rows<'_>, ys: &[usize]) {
        let lambda = self.config.lambda;
        // More executors than members would only spawn permanently idle
        // threads — one dispatch item exists per member. Tiny batches (the
        // per-instance `learn_one` loop above all) stay on the serial member
        // loop: their member work is cheaper than a dispatch hand-shake.
        let workers = self.config.parallelism.workers().min(self.members.len());
        if workers >= 2 && xs.len() >= crate::MEMBER_PARALLEL_MIN_ROWS {
            if self.pool.is_none() {
                self.pool = Some(Arc::new(WorkerPool::new(workers)));
            }
            let pool = Arc::clone(self.pool.as_ref().expect("pool just ensured"));
            let items: Vec<&mut BaggingMember> = self.members.iter_mut().collect();
            pool.run(items, |_, member| member.train_on_batch(xs, ys, lambda));
        } else {
            for member in self.members.iter_mut() {
                member.train_on_batch(xs, ys, lambda);
            }
        }
    }

    /// The serial batch-boundary step: if any member's detector fired during
    /// the batch, replace the member with the highest estimated error by a
    /// fresh tree and detector (its RNG stream continues, keeping the
    /// replacement deterministic).
    fn replace_after_drift(&mut self) {
        let mut drifted = false;
        for member in self.members.iter_mut() {
            drifted |= member.drifted;
            member.drifted = false;
        }
        if !drifted {
            return;
        }
        let worst = self
            .members
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                a.detector
                    .mean()
                    .partial_cmp(&b.detector.mean())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.members[worst].tree =
            HoeffdingTreeClassifier::new(self.schema.clone(), self.config.base_config.clone());
        self.members[worst].detector = Adwin::new(self.config.adwin_delta);
    }
}

impl OnlineClassifier for LeveragingBagging {
    fn name(&self) -> &str {
        "Bagging Ens."
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
        self.replace_after_drift();
    }

    fn predict_batch_into(&self, xs: Rows<'_>, out: &mut [usize]) {
        // Two buffers for the whole batch (votes + per-member probabilities)
        // instead of a fresh `Vec<f64>` per row per member.
        let mut votes = vec![0.0; self.schema.num_classes];
        let mut proba = vec![0.0; self.schema.num_classes];
        for (x, o) in xs.iter().zip(out.iter_mut()) {
            self.vote_into(x, &mut votes, &mut proba);
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
                .map(|m| m.tree.memory_bytes() + m.detector.memory_bytes())
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
    fn builds_the_configured_number_of_members() {
        let ensemble = LeveragingBagging::new(sea_schema(), LeveragingBaggingConfig::default());
        assert_eq!(ensemble.ensemble_size(), 3);
        assert_eq!(ensemble.name(), "Bagging Ens.");
    }

    #[test]
    fn learns_sea_better_than_chance() {
        let mut ensemble = LeveragingBagging::new(sea_schema(), LeveragingBaggingConfig::default());
        let mut gen = SeaGenerator::new(0, 0.0, 3);
        for _ in 0..8_000 {
            let inst = gen.next_instance().unwrap();
            ensemble.learn_one(&inst.x, inst.y);
        }
        let mut test_gen = SeaGenerator::new(0, 0.0, 31);
        let mut correct = 0;
        for _ in 0..1_000 {
            let inst = test_gen.next_instance().unwrap();
            if ensemble.predict(&inst.x) == inst.y {
                correct += 1;
            }
        }
        assert!(
            correct as f64 / 1_000.0 > 0.85,
            "accuracy {}",
            correct as f64 / 1_000.0
        );
    }

    #[test]
    fn complexity_sums_members() {
        let ensemble = LeveragingBagging::new(sea_schema(), LeveragingBaggingConfig::default());
        let c = ensemble.complexity();
        // Three untrained MC trees: 0 splits, 1 parameter each.
        assert_eq!(c.splits, 0.0);
        assert_eq!(c.parameters, 3.0);
    }

    #[test]
    fn prediction_is_a_distribution() {
        let ensemble = LeveragingBagging::new(sea_schema(), LeveragingBaggingConfig::default());
        let p = ensemble.predict_proba(&[1.0, 2.0, 3.0]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_members_panics() {
        let config = LeveragingBaggingConfig {
            ensemble_size: 0,
            ..LeveragingBaggingConfig::default()
        };
        let _ = LeveragingBagging::new(sea_schema(), config);
    }

    #[test]
    fn batch_learning_counts_observations() {
        let mut ensemble = LeveragingBagging::new(sea_schema(), LeveragingBaggingConfig::default());
        let mut gen = SeaGenerator::new(0, 0.0, 5);
        let batch = gen.next_batch(100).unwrap();
        ensemble.learn_batch(&batch.rows(), &batch.ys);
        assert_eq!(ensemble.observations, 100);
    }

    #[test]
    fn learn_one_equals_a_batch_of_one() {
        // Two ensembles, one fed instance-by-instance, one fed the same
        // instances as single-row batches: identical by construction.
        let mut a = LeveragingBagging::new(sea_schema(), LeveragingBaggingConfig::default());
        let mut b = LeveragingBagging::new(sea_schema(), LeveragingBaggingConfig::default());
        let mut gen = SeaGenerator::new(0, 0.0, 17);
        for _ in 0..500 {
            let inst = gen.next_instance().unwrap();
            a.learn_one(&inst.x, inst.y);
            b.learn_batch(&[inst.x.as_slice()], &[inst.y]);
        }
        let mut probe_gen = SeaGenerator::new(0, 0.0, 18);
        for _ in 0..50 {
            let inst = probe_gen.next_instance().unwrap();
            let (pa, pb) = (a.predict_proba(&inst.x), b.predict_proba(&inst.x));
            for (va, vb) in pa.iter().zip(pb.iter()) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    }
}
