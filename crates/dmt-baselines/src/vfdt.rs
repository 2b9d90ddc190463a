//! VFDT — the Very Fast Decision Tree / Hoeffding Tree (Domingos & Hulten,
//! 2000), with the leaf policies evaluated in the paper:
//!
//! * `VFDT (MC)` — majority-class leaves,
//! * `VFDT (NBA)` — adaptive Naive Bayes leaves (Gama et al., 2003).
//!
//! The tree grows by splitting a leaf on the attribute with the highest
//! information gain once the Hoeffding bound guarantees (with confidence
//! `1 − δ`) that this attribute truly beats the runner-up, or once the bound
//! drops below the tie threshold. Only binary splits are produced (§VI-C of
//! the DMT paper). The basic VFDT never revisits a split — the behaviour the
//! Dynamic Model Tree is designed to fix.

use dmt_models::online::{Complexity, OnlineClassifier};
use dmt_models::{MemoryUsage, Rows};
use dmt_stream::schema::StreamSchema;

use crate::leaf_stats::{LeafPolicy, LeafStats};
use crate::observer::SplitTest;
use crate::split_criterion::{hoeffding_bound, info_gain_range};

/// Configuration of a Hoeffding tree.
#[derive(Debug, Clone)]
pub struct VfdtConfig {
    /// Minimum weight a leaf must accumulate between split attempts.
    pub grace_period: f64,
    /// Hoeffding-bound confidence δ (probability of a wrong split choice).
    pub split_confidence: f64,
    /// Tie threshold τ: split anyway once the bound is below this value.
    pub tie_threshold: f64,
    /// Leaf prediction policy.
    pub leaf_policy: LeafPolicy,
    /// Optional depth cap (`None` = unbounded, the VFDT default).
    pub max_depth: Option<usize>,
}

impl Default for VfdtConfig {
    /// scikit-multiflow defaults: grace 200, δ = 1e-7, τ = 0.05,
    /// majority-class leaves, unbounded depth.
    fn default() -> Self {
        Self {
            grace_period: 200.0,
            split_confidence: 1e-7,
            tie_threshold: 0.05,
            leaf_policy: LeafPolicy::MajorityClass,
            max_depth: None,
        }
    }
}

impl VfdtConfig {
    /// The `VFDT (MC)` configuration of the paper.
    pub fn majority_class() -> Self {
        Self::default()
    }

    /// The `VFDT (NBA)` configuration of the paper.
    pub fn naive_bayes_adaptive() -> Self {
        Self {
            leaf_policy: LeafPolicy::NaiveBayesAdaptive,
            ..Self::default()
        }
    }
}

/// A node of the Hoeffding tree.
pub(crate) enum Node {
    /// A learning leaf.
    Leaf {
        /// Leaf statistics (class counts, observers, NB model).
        stats: LeafStats,
        /// Depth of this node (root = 0).
        #[allow(dead_code)]
        depth: usize,
    },
    /// An internal binary split node.
    Inner {
        /// Feature tested by this node.
        feature: usize,
        /// The binary test.
        test: SplitTest,
        /// Child for instances where the test passes.
        left: Box<Node>,
        /// Child for instances where the test fails.
        right: Box<Node>,
        /// Depth of this node (root = 0).
        #[allow(dead_code)]
        depth: usize,
    },
}

impl Node {
    fn leaf(schema: &StreamSchema, policy: LeafPolicy, depth: usize) -> Self {
        Node::Leaf {
            stats: LeafStats::new(schema, policy),
            depth,
        }
    }

    /// Route an instance to its leaf and write the leaf's probabilities into
    /// `out` (`out.len() == num_classes`) without allocating.
    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        match self {
            Node::Leaf { stats, .. } => stats.predict_proba_into(x, out),
            Node::Inner {
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
            Node::Leaf { .. } => (0, 1),
            Node::Inner { left, right, .. } => {
                let (il, ll) = left.count_nodes();
                let (ir, lr) = right.count_nodes();
                (1 + il + ir, ll + lr)
            }
        }
    }

    /// Heap bytes of this subtree: each node's own boxed allocation plus the
    /// leaf statistics it owns.
    pub(crate) fn memory_bytes(&self) -> usize {
        match self {
            Node::Leaf { stats, .. } => stats.memory_bytes(),
            Node::Inner { left, right, .. } => {
                2 * std::mem::size_of::<Node>() + left.memory_bytes() + right.memory_bytes()
            }
        }
    }
}

/// The Hoeffding tree classifier.
pub struct HoeffdingTreeClassifier {
    config: VfdtConfig,
    schema: StreamSchema,
    root: Node,
    name: String,
    observations: u64,
}

impl HoeffdingTreeClassifier {
    /// Create a Hoeffding tree for the given stream schema.
    pub fn new(schema: StreamSchema, config: VfdtConfig) -> Self {
        let name = match config.leaf_policy {
            LeafPolicy::MajorityClass => "VFDT (MC)",
            LeafPolicy::NaiveBayesAdaptive => "VFDT (NBA)",
        }
        .to_string();
        let root = Node::leaf(&schema, config.leaf_policy, 0);
        Self {
            config,
            schema,
            root,
            name,
            observations: 0,
        }
    }

    /// Number of inner nodes (splits) in the tree.
    pub fn num_inner_nodes(&self) -> u64 {
        self.root.count_nodes().0
    }

    /// Number of leaves in the tree.
    pub fn num_leaves(&self) -> u64 {
        self.root.count_nodes().1
    }

    /// Total observations consumed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Class probabilities of the responsible leaf written into `out`
    /// (`out.len() == num_classes`); the allocation-free analogue of
    /// [`OnlineClassifier::predict_proba`]. The ensembles route their batch
    /// prediction through this with one reused buffer per batch.
    pub fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        self.root.predict_proba_into(x, out);
    }

    /// Learn a single labelled instance.
    pub fn learn_one(&mut self, x: &[f64], y: usize) {
        self.observations += 1;
        Self::learn_recursive(&mut self.root, x, y, &self.schema, &self.config);
    }

    fn learn_recursive(
        node: &mut Node,
        x: &[f64],
        y: usize,
        schema: &StreamSchema,
        config: &VfdtConfig,
    ) {
        match node {
            Node::Inner {
                feature,
                test,
                left,
                right,
                ..
            } => {
                let child = if test.goes_left(x[*feature]) {
                    left
                } else {
                    right
                };
                Self::learn_recursive(child, x, y, schema, config);
            }
            Node::Leaf { stats, depth } => {
                stats.update(x, y);
                let depth_ok = config.max_depth.is_none_or(|d| *depth < d);
                let weight = stats.total_weight();
                if depth_ok
                    && !stats.is_pure()
                    && weight - stats.weight_at_last_eval >= config.grace_period
                {
                    stats.weight_at_last_eval = weight;
                    if let Some((feature, test, left_dist, right_dist)) =
                        Self::try_split(stats, weight, config)
                    {
                        let new_depth = *depth + 1;
                        let mut left_leaf = LeafStats::new(schema, config.leaf_policy);
                        let mut right_leaf = LeafStats::new(schema, config.leaf_policy);
                        left_leaf.class_counts = left_dist;
                        right_leaf.class_counts = right_dist;
                        *node = Node::Inner {
                            feature,
                            test,
                            left: Box::new(Node::Leaf {
                                stats: left_leaf,
                                depth: new_depth,
                            }),
                            right: Box::new(Node::Leaf {
                                stats: right_leaf,
                                depth: new_depth,
                            }),
                            depth: new_depth - 1,
                        };
                    }
                }
            }
        }
    }

    /// Standard VFDT split attempt: best attribute must beat the runner-up by
    /// more than the Hoeffding bound (or the bound must be below τ).
    fn try_split(
        stats: &LeafStats,
        weight: f64,
        config: &VfdtConfig,
    ) -> Option<(usize, SplitTest, Vec<f64>, Vec<f64>)> {
        let suggestions = stats.split_suggestions();
        if suggestions.is_empty() {
            return None;
        }
        let best = &suggestions[0];
        let second_merit = suggestions.get(1).map_or(0.0, |s| s.merit);
        let range = info_gain_range(&stats.class_counts);
        let eps = hoeffding_bound(range, config.split_confidence, weight);
        let should_split = best.merit - second_merit > eps || eps < config.tie_threshold;
        if should_split && best.merit > 0.0 {
            Some((
                best.feature,
                best.test,
                best.children_dists[0].clone(),
                best.children_dists[1].clone(),
            ))
        } else {
            None
        }
    }

    /// Complexity accounting shared by all trees whose leaves follow a
    /// [`LeafPolicy`] (§VI-D2 of the paper).
    pub(crate) fn complexity_for(
        inner: u64,
        leaves: u64,
        policy: LeafPolicy,
        num_classes: usize,
        num_features: usize,
    ) -> Complexity {
        let (splits_per_leaf, params_per_leaf) = match policy {
            // Majority leaves: no extra split, one parameter (the class).
            LeafPolicy::MajorityClass => (0.0, 1.0),
            // Simple-model leaves: one extra split for binary targets, `c` for
            // multiclass; `m` parameters per class for the conditionals.
            LeafPolicy::NaiveBayesAdaptive => {
                let extra_splits = if num_classes == 2 {
                    1.0
                } else {
                    num_classes as f64
                };
                let params = if num_classes == 2 {
                    num_features as f64
                } else {
                    (num_features * num_classes) as f64
                };
                (extra_splits, params)
            }
        };
        Complexity {
            splits: inner as f64 + leaves as f64 * splits_per_leaf,
            parameters: inner as f64 + leaves as f64 * params_per_leaf,
        }
    }
}

impl OnlineClassifier for HoeffdingTreeClassifier {
    fn name(&self) -> &str {
        &self.name
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
        Self::complexity_for(
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
    use dmt_stream::generators::sea::SeaGenerator;
    use dmt_stream::DataStream;

    fn sea_schema() -> StreamSchema {
        StreamSchema::numeric("SEA", 3, 2)
    }

    fn train_on_sea(tree: &mut HoeffdingTreeClassifier, n: usize, seed: u64) {
        let mut gen = SeaGenerator::new(0, 0.0, seed);
        for _ in 0..n {
            let inst = gen.next_instance().unwrap();
            tree.learn_one(&inst.x, inst.y);
        }
    }

    fn accuracy_on_sea(tree: &HoeffdingTreeClassifier, n: usize, seed: u64) -> f64 {
        let mut gen = SeaGenerator::new(0, 0.0, seed);
        let mut correct = 0;
        for _ in 0..n {
            let inst = gen.next_instance().unwrap();
            if tree.predict(&inst.x) == inst.y {
                correct += 1;
            }
        }
        correct as f64 / n as f64
    }

    #[test]
    fn starts_as_a_single_leaf() {
        let tree = HoeffdingTreeClassifier::new(sea_schema(), VfdtConfig::default());
        assert_eq!(tree.num_inner_nodes(), 0);
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.predict_proba(&[1.0, 2.0, 3.0]), vec![0.5, 0.5]);
    }

    #[test]
    fn grows_and_learns_the_sea_concept() {
        let mut tree = HoeffdingTreeClassifier::new(sea_schema(), VfdtConfig::default());
        train_on_sea(&mut tree, 20_000, 1);
        assert!(tree.num_inner_nodes() >= 1, "tree never split");
        let acc = accuracy_on_sea(&tree, 2_000, 99);
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn nba_leaves_outperform_mc_early() {
        let mut mc = HoeffdingTreeClassifier::new(sea_schema(), VfdtConfig::majority_class());
        let mut nba =
            HoeffdingTreeClassifier::new(sea_schema(), VfdtConfig::naive_bayes_adaptive());
        train_on_sea(&mut mc, 500, 3);
        train_on_sea(&mut nba, 500, 3);
        let acc_mc = accuracy_on_sea(&mc, 2_000, 77);
        let acc_nba = accuracy_on_sea(&nba, 2_000, 77);
        assert!(
            acc_nba >= acc_mc - 0.02,
            "NBA ({acc_nba}) should not be much worse than MC ({acc_mc}) with little data"
        );
        assert!(acc_nba > 0.6);
    }

    #[test]
    fn grace_period_limits_split_attempts() {
        let config = VfdtConfig {
            grace_period: 1e9,
            ..VfdtConfig::default()
        };
        let mut tree = HoeffdingTreeClassifier::new(sea_schema(), config);
        train_on_sea(&mut tree, 5_000, 5);
        assert_eq!(tree.num_inner_nodes(), 0);
    }

    #[test]
    fn max_depth_caps_growth() {
        let config = VfdtConfig {
            max_depth: Some(1),
            tie_threshold: 0.5, // encourage splitting
            ..VfdtConfig::default()
        };
        let mut tree = HoeffdingTreeClassifier::new(sea_schema(), config);
        train_on_sea(&mut tree, 30_000, 7);
        assert!(tree.num_inner_nodes() <= 1);
    }

    #[test]
    fn learn_batch_matches_instance_updates() {
        let mut gen = SeaGenerator::new(0, 0.0, 11);
        let batch = gen.next_batch(1_000).unwrap();
        let rows = batch.rows();
        let mut a = HoeffdingTreeClassifier::new(sea_schema(), VfdtConfig::default());
        let mut b = HoeffdingTreeClassifier::new(sea_schema(), VfdtConfig::default());
        a.learn_batch(&rows, &batch.ys);
        for (x, &y) in rows.iter().zip(batch.ys.iter()) {
            b.learn_one(x, y);
        }
        assert_eq!(a.num_inner_nodes(), b.num_inner_nodes());
        assert_eq!(a.observations(), b.observations());
    }

    #[test]
    fn complexity_counts_follow_the_paper_rules() {
        // 3 inner nodes, 4 leaves.
        let mc = HoeffdingTreeClassifier::complexity_for(3, 4, LeafPolicy::MajorityClass, 2, 10);
        assert_eq!(mc.splits, 3.0);
        assert_eq!(mc.parameters, 3.0 + 4.0);

        let nba_binary =
            HoeffdingTreeClassifier::complexity_for(3, 4, LeafPolicy::NaiveBayesAdaptive, 2, 10);
        assert_eq!(nba_binary.splits, 3.0 + 4.0);
        assert_eq!(nba_binary.parameters, 3.0 + 4.0 * 10.0);

        let nba_multi =
            HoeffdingTreeClassifier::complexity_for(3, 4, LeafPolicy::NaiveBayesAdaptive, 5, 10);
        assert_eq!(nba_multi.splits, 3.0 + 4.0 * 5.0);
        assert_eq!(nba_multi.parameters, 3.0 + 4.0 * 50.0);
    }

    #[test]
    fn predictions_are_valid_class_indices() {
        let mut tree =
            HoeffdingTreeClassifier::new(StreamSchema::numeric("toy", 4, 6), VfdtConfig::default());
        for i in 0..500usize {
            let x = [
                (i % 10) as f64,
                (i % 7) as f64,
                (i % 3) as f64,
                (i % 2) as f64,
            ];
            tree.learn_one(&x, i % 6);
        }
        let pred = tree.predict(&[1.0, 2.0, 0.0, 1.0]);
        assert!(pred < 6);
        let proba = tree.predict_proba(&[1.0, 2.0, 0.0, 1.0]);
        assert_eq!(proba.len(), 6);
        assert!((proba.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn vfdt_keeps_growing_without_pruning() {
        // The basic VFDT never prunes: the number of inner nodes is
        // non-decreasing over time (this is the behaviour DMT addresses).
        let mut tree = HoeffdingTreeClassifier::new(sea_schema(), VfdtConfig::default());
        let mut last = 0;
        let mut gen = SeaGenerator::new(0, 0.0, 13);
        for _ in 0..10 {
            for _ in 0..3_000 {
                let inst = gen.next_instance().unwrap();
                tree.learn_one(&inst.x, inst.y);
            }
            let now = tree.num_inner_nodes();
            assert!(now >= last);
            last = now;
        }
    }
}
