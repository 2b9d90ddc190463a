//! EFDT — the Extremely Fast Decision Tree / Hoeffding Anytime Tree
//! (Manapragada, Webb & Salehi, 2018).
//!
//! EFDT departs from the VFDT in two ways:
//!
//! 1. A leaf splits on an attribute as soon as the Hoeffding bound certifies
//!    that its merit exceeds the merit of *not splitting* (rather than the
//!    merit of the runner-up attribute), which makes splits happen much
//!    earlier.
//! 2. Inner nodes keep their statistics and periodically *re-evaluate* their
//!    split: if the currently installed attribute is no longer within the
//!    Hoeffding bound of the best attribute, the subtree is discarded and
//!    the node restarts as a leaf ("kill subtree"), giving a (crude) form of
//!    drift adaptation.
//!
//! Following §VI-C of the paper, the minimum number of observations between
//! re-evaluations is set to 1,000 and the leaves use majority voting.

use dmt_models::online::{Complexity, OnlineClassifier};
use dmt_models::{MemoryUsage, Rows};
use dmt_stream::schema::StreamSchema;

use crate::leaf_stats::{LeafPolicy, LeafStats};
use crate::observer::SplitTest;
use crate::split_criterion::{hoeffding_bound, info_gain_range};

/// Configuration of the EFDT.
#[derive(Debug, Clone)]
pub struct EfdtConfig {
    /// Minimum weight a leaf must accumulate between split attempts.
    pub grace_period: f64,
    /// Hoeffding-bound confidence δ.
    pub split_confidence: f64,
    /// Tie threshold τ.
    pub tie_threshold: f64,
    /// Minimum observations at an inner node between split re-evaluations
    /// (the paper uses 1,000).
    pub reevaluation_period: f64,
    /// Leaf prediction policy.
    pub leaf_policy: LeafPolicy,
}

impl Default for EfdtConfig {
    fn default() -> Self {
        Self {
            grace_period: 200.0,
            split_confidence: 1e-7,
            tie_threshold: 0.05,
            reevaluation_period: 1_000.0,
            leaf_policy: LeafPolicy::MajorityClass,
        }
    }
}

/// A node of the EFDT. Inner nodes keep full leaf statistics so their split
/// can be re-evaluated.
enum EfdtNode {
    Leaf {
        stats: LeafStats,
        depth: usize,
    },
    Inner {
        feature: usize,
        test: SplitTest,
        left: Box<EfdtNode>,
        right: Box<EfdtNode>,
        /// Statistics over all instances that reached this node since the
        /// split was installed (used for re-evaluation).
        stats: LeafStats,
        /// Weight seen at the last re-evaluation.
        weight_at_last_reevaluation: f64,
        depth: usize,
    },
}

impl EfdtNode {
    fn leaf(schema: &StreamSchema, config: &EfdtConfig, depth: usize) -> Self {
        EfdtNode::Leaf {
            stats: LeafStats::new(schema, config.leaf_policy),
            depth,
        }
    }

    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        match self {
            EfdtNode::Leaf { stats, .. } => stats.predict_proba_into(x, out),
            EfdtNode::Inner {
                feature,
                test,
                left,
                right,
                ..
            } => {
                if test.goes_left(x[*feature]) {
                    left.predict_proba_into(x, out)
                } else {
                    right.predict_proba_into(x, out)
                }
            }
        }
    }

    fn count_nodes(&self) -> (u64, u64) {
        match self {
            EfdtNode::Leaf { .. } => (0, 1),
            EfdtNode::Inner { left, right, .. } => {
                let (il, ll) = left.count_nodes();
                let (ir, lr) = right.count_nodes();
                (1 + il + ir, ll + lr)
            }
        }
    }

    /// Heap bytes of this subtree — EFDT inner nodes keep full leaf
    /// statistics for re-evaluation, so they count like leaves plus their
    /// boxed children.
    fn memory_bytes(&self) -> usize {
        match self {
            EfdtNode::Leaf { stats, .. } => stats.memory_bytes(),
            EfdtNode::Inner {
                left, right, stats, ..
            } => {
                2 * std::mem::size_of::<EfdtNode>()
                    + stats.memory_bytes()
                    + left.memory_bytes()
                    + right.memory_bytes()
            }
        }
    }

    fn learn(&mut self, x: &[f64], y: usize, schema: &StreamSchema, config: &EfdtConfig) {
        match self {
            EfdtNode::Leaf { stats, depth } => {
                stats.update(x, y);
                let weight = stats.total_weight();
                if !stats.is_pure() && weight - stats.weight_at_last_eval >= config.grace_period {
                    stats.weight_at_last_eval = weight;
                    let suggestions = stats.split_suggestions();
                    if let Some(best) = suggestions.first() {
                        let range = info_gain_range(&stats.class_counts);
                        let eps = hoeffding_bound(range, config.split_confidence, weight);
                        // HATT criterion: best attribute vs. the null split
                        // (merit 0 for information gain).
                        if best.merit - 0.0 > eps || eps < config.tie_threshold {
                            if best.merit <= 0.0 {
                                return;
                            }
                            let new_depth = *depth + 1;
                            let mut left_leaf = LeafStats::new(schema, config.leaf_policy);
                            let mut right_leaf = LeafStats::new(schema, config.leaf_policy);
                            left_leaf.class_counts = best.children_dists[0].clone();
                            right_leaf.class_counts = best.children_dists[1].clone();
                            let feature = best.feature;
                            let test = best.test;
                            *self = EfdtNode::Inner {
                                feature,
                                test,
                                left: Box::new(EfdtNode::Leaf {
                                    stats: left_leaf,
                                    depth: new_depth,
                                }),
                                right: Box::new(EfdtNode::Leaf {
                                    stats: right_leaf,
                                    depth: new_depth,
                                }),
                                stats: LeafStats::new(schema, config.leaf_policy),
                                weight_at_last_reevaluation: 0.0,
                                depth: new_depth - 1,
                            };
                        }
                    }
                }
            }
            EfdtNode::Inner {
                feature,
                test,
                left,
                right,
                stats,
                weight_at_last_reevaluation,
                depth,
            } => {
                stats.update(x, y);
                let weight = stats.total_weight();
                // Periodic re-evaluation of the installed split.
                if weight - *weight_at_last_reevaluation >= config.reevaluation_period {
                    *weight_at_last_reevaluation = weight;
                    let suggestions = stats.split_suggestions();
                    if let Some(best) = suggestions.first() {
                        let current_merit = suggestions
                            .iter()
                            .find(|s| s.feature == *feature)
                            .map_or(0.0, |s| s.merit);
                        let range = info_gain_range(&stats.class_counts);
                        let eps = hoeffding_bound(range, config.split_confidence, weight);
                        if best.feature != *feature && best.merit - current_merit > eps {
                            // The installed attribute lost: kill the subtree
                            // and restart from a leaf that immediately splits
                            // on the new best attribute.
                            let new_depth = *depth + 1;
                            let mut left_leaf = LeafStats::new(schema, config.leaf_policy);
                            let mut right_leaf = LeafStats::new(schema, config.leaf_policy);
                            left_leaf.class_counts = best.children_dists[0].clone();
                            right_leaf.class_counts = best.children_dists[1].clone();
                            let new_feature = best.feature;
                            let new_test = best.test;
                            *self = EfdtNode::Inner {
                                feature: new_feature,
                                test: new_test,
                                left: Box::new(EfdtNode::Leaf {
                                    stats: left_leaf,
                                    depth: new_depth,
                                }),
                                right: Box::new(EfdtNode::Leaf {
                                    stats: right_leaf,
                                    depth: new_depth,
                                }),
                                stats: LeafStats::new(schema, config.leaf_policy),
                                weight_at_last_reevaluation: 0.0,
                                depth: new_depth - 1,
                            };
                            // Route the instance into the fresh structure.
                            self.learn_route_only(x, y, schema, config);
                            return;
                        }
                    }
                }
                let child = if test.goes_left(x[*feature]) {
                    left
                } else {
                    right
                };
                child.learn(x, y, schema, config);
            }
        }
    }

    /// Route an instance to the child leaves without re-triggering the
    /// re-evaluation logic (used right after a subtree was rebuilt).
    fn learn_route_only(
        &mut self,
        x: &[f64],
        y: usize,
        schema: &StreamSchema,
        config: &EfdtConfig,
    ) {
        if let EfdtNode::Inner {
            feature,
            test,
            left,
            right,
            ..
        } = self
        {
            let child = if test.goes_left(x[*feature]) {
                left
            } else {
                right
            };
            child.learn(x, y, schema, config);
        }
    }
}

/// The Extremely Fast Decision Tree classifier.
pub struct EfdtClassifier {
    config: EfdtConfig,
    schema: StreamSchema,
    root: EfdtNode,
    observations: u64,
}

impl EfdtClassifier {
    /// Create an EFDT for the given schema.
    pub fn new(schema: StreamSchema, config: EfdtConfig) -> Self {
        let root = EfdtNode::leaf(&schema, &config, 0);
        Self {
            config,
            schema,
            root,
            observations: 0,
        }
    }

    /// Learn a single labelled instance.
    pub fn learn_one(&mut self, x: &[f64], y: usize) {
        self.observations += 1;
        self.root.learn(x, y, &self.schema, &self.config);
    }

    /// Number of inner nodes (splits).
    pub fn num_inner_nodes(&self) -> u64 {
        self.root.count_nodes().0
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> u64 {
        self.root.count_nodes().1
    }

    /// Class probabilities of the responsible leaf written into `out`
    /// (`out.len() == num_classes`); the allocation-free analogue of
    /// [`OnlineClassifier::predict_proba`].
    pub fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        self.root.predict_proba_into(x, out);
    }
}

impl OnlineClassifier for EfdtClassifier {
    fn name(&self) -> &str {
        "EFDT"
    }

    fn num_classes(&self) -> usize {
        self.schema.num_classes
    }

    fn predict(&self, x: &[f64]) -> usize {
        dmt_models::argmax(&self.predict_proba(x))
    }

    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.schema.num_classes];
        self.root.predict_proba_into(x, &mut out);
        out
    }

    fn learn_batch(&mut self, xs: Rows<'_>, ys: &[usize]) {
        for (x, &y) in xs.iter().zip(ys.iter()) {
            self.learn_one(x, y);
        }
    }

    fn complexity(&self) -> Complexity {
        let (inner, leaves) = self.root.count_nodes();
        crate::vfdt::HoeffdingTreeClassifier::complexity_for(
            inner,
            leaves,
            self.config.leaf_policy,
            self.schema.num_classes,
            self.schema.num_features(),
        )
    }

    fn memory_bytes(&self) -> usize {
        self.root.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfdt::{HoeffdingTreeClassifier, VfdtConfig};
    use dmt_stream::generators::sea::SeaGenerator;
    use dmt_stream::DataStream;

    fn sea_schema() -> StreamSchema {
        StreamSchema::numeric("SEA", 3, 2)
    }

    #[test]
    fn splits_earlier_than_vfdt() {
        let mut efdt = EfdtClassifier::new(sea_schema(), EfdtConfig::default());
        let mut vfdt = HoeffdingTreeClassifier::new(sea_schema(), VfdtConfig::default());
        let mut gen = SeaGenerator::new(0, 0.0, 1);
        let mut first_split_efdt = None;
        let mut first_split_vfdt = None;
        for t in 0..30_000u64 {
            let inst = gen.next_instance().unwrap();
            efdt.learn_one(&inst.x, inst.y);
            vfdt.learn_one(&inst.x, inst.y);
            if first_split_efdt.is_none() && efdt.num_inner_nodes() > 0 {
                first_split_efdt = Some(t);
            }
            if first_split_vfdt.is_none() && vfdt.num_inner_nodes() > 0 {
                first_split_vfdt = Some(t);
            }
            if first_split_efdt.is_some() && first_split_vfdt.is_some() {
                break;
            }
        }
        let e = first_split_efdt.expect("EFDT never split");
        if let Some(v) = first_split_vfdt {
            assert!(e <= v, "EFDT ({e}) should split no later than VFDT ({v})");
        }
    }

    #[test]
    fn learns_the_sea_concept() {
        let mut efdt = EfdtClassifier::new(sea_schema(), EfdtConfig::default());
        let mut gen = SeaGenerator::new(2, 0.0, 5);
        for _ in 0..20_000 {
            let inst = gen.next_instance().unwrap();
            efdt.learn_one(&inst.x, inst.y);
        }
        let mut test_gen = SeaGenerator::new(2, 0.0, 50);
        let mut correct = 0;
        for _ in 0..2_000 {
            let inst = test_gen.next_instance().unwrap();
            if efdt.predict(&inst.x) == inst.y {
                correct += 1;
            }
        }
        assert!(correct as f64 / 2_000.0 > 0.85);
    }

    #[test]
    fn reevaluation_can_replace_a_stale_split() {
        // Concept A depends on feature 0+1; concept B is designed so that a
        // completely different boundary applies. EFDT should keep working.
        let mut efdt = EfdtClassifier::new(sea_schema(), EfdtConfig::default());
        let mut gen_a = SeaGenerator::new(0, 0.0, 3);
        for _ in 0..15_000 {
            let inst = gen_a.next_instance().unwrap();
            efdt.learn_one(&inst.x, inst.y);
        }
        let mut gen_b = SeaGenerator::new(3, 0.0, 4);
        for _ in 0..15_000 {
            let inst = gen_b.next_instance().unwrap();
            efdt.learn_one(&inst.x, inst.y);
        }
        let mut test_gen = SeaGenerator::new(3, 0.0, 51);
        let mut correct = 0;
        for _ in 0..2_000 {
            let inst = test_gen.next_instance().unwrap();
            if efdt.predict(&inst.x) == inst.y {
                correct += 1;
            }
        }
        assert!(
            correct as f64 / 2_000.0 > 0.75,
            "post-drift accuracy {}",
            correct as f64 / 2_000.0
        );
    }

    #[test]
    fn complexity_and_name() {
        let efdt = EfdtClassifier::new(sea_schema(), EfdtConfig::default());
        assert_eq!(efdt.name(), "EFDT");
        assert_eq!(efdt.complexity().splits, 0.0);
        assert_eq!(efdt.num_leaves(), 1);
    }

    #[test]
    fn batch_learning_accumulates_observations() {
        let mut efdt = EfdtClassifier::new(sea_schema(), EfdtConfig::default());
        let mut gen = SeaGenerator::new(0, 0.0, 9);
        let batch = gen.next_batch(300).unwrap();
        efdt.learn_batch(&batch.rows(), &batch.ys);
        assert_eq!(efdt.observations, 300);
    }
}
