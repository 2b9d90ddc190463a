//! Predict-only views of a Dynamic Model Tree: what a serving epoch holds.
//!
//! Only leaf models predict (§III of the paper). Inner-node models, loss
//! windows and candidate pools exist to compute the gains of eq. (3)–(5),
//! so a reader needs none of them. [`DynamicModelTree::predict_view`]
//! copies the arena's shape and split keys and the leaf models, and leaves
//! every other payload a placeholder: one allocation per leaf beside the
//! arena's seven columns, where a full `clone()` makes up to four per node.
//! VHT (Kourtellis et al.) makes the same cut between the routing tree with
//! its leaf models and the split statistics.
//!
//! The view and the tree share one descent and one prediction code path
//! (the functions below), so a view predicts bit-identically to the tree it
//! was taken from. A view cannot learn, cannot be checkpointed and cannot
//! be turned back into a tree.
//!
//! [`DynamicModelTree::predict_view`]: crate::DynamicModelTree::predict_view

use dmt_models::{MemoryUsage, Rows, SimpleModel};

use crate::arena::{NodeArena, NodeId};
use crate::error::DmtError;
use crate::explain::{explain_at, LeafExplanation};

/// The class the leaf responsible for `x` predicts: an allocation-free
/// descent to the leaf, then the argmax of its linear scores.
pub(crate) fn predict_row(arena: &NodeArena, root: NodeId, x: &[f64]) -> usize {
    arena.stats(arena.leaf_for(root, x)).model.predict(x)
}

/// The class probabilities of the leaf responsible for `x`, written into
/// `out` (`out.len() == num_classes`).
pub(crate) fn predict_proba_row(arena: &NodeArena, root: NodeId, x: &[f64], out: &mut [f64]) {
    arena
        .stats(arena.leaf_for(root, x))
        .model
        .predict_proba_into(x, out);
}

/// Reject rows that would corrupt an update or a descent: a feature count
/// other than `expected` (out-of-bounds routing) or non-finite values
/// (NaN/Inf would poison every loss/gradient accumulator on the row's path).
pub(crate) fn validate_rows(xs: Rows<'_>, expected: usize) -> Result<(), DmtError> {
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

/// Predict every row of `xs` into `out` from the tree rooted at `root`,
/// after checking that `out` has one slot per row and that every row has
/// `num_features` finite values: an empty batch is fine, anything else is
/// a typed error.
pub(crate) fn try_predict_rows(
    arena: &NodeArena,
    root: NodeId,
    num_features: usize,
    xs: Rows<'_>,
    out: &mut [usize],
) -> Result<(), DmtError> {
    if xs.len() != out.len() {
        return Err(DmtError::LengthMismatch {
            xs: xs.len(),
            ys: out.len(),
        });
    }
    validate_rows(xs, num_features)?;
    for (x, o) in xs.iter().zip(out.iter_mut()) {
        *o = predict_row(arena, root, x);
    }
    Ok(())
}

/// A predict-only copy of a [`DynamicModelTree`](crate::DynamicModelTree),
/// taken by [`DynamicModelTree::predict_view`](crate::DynamicModelTree::predict_view)
/// (see the [module docs](self)).
#[derive(Debug)]
pub struct PredictView {
    arena: NodeArena,
    root: NodeId,
    num_features: usize,
}

impl PredictView {
    /// A view over a predict-only arena rooted at `root`, for rows of
    /// `num_features` features.
    pub(crate) fn new(arena: NodeArena, root: NodeId, num_features: usize) -> Self {
        Self {
            arena,
            root,
            num_features,
        }
    }

    /// Predict every row of `xs` into `out` after validating shapes and
    /// values, exactly as
    /// [`DynamicModelTree::try_predict_batch_into`](crate::DynamicModelTree::try_predict_batch_into)
    /// does: an empty batch is fine, and a mismatched output length, a wrong
    /// feature count or a non-finite feature is a typed error.
    pub fn try_predict_batch_into(&self, xs: Rows<'_>, out: &mut [usize]) -> Result<(), DmtError> {
        try_predict_rows(&self.arena, self.root, self.num_features, xs, out)
    }

    /// The most probable class for `x`.
    pub fn predict(&self, x: &[f64]) -> usize {
        predict_row(&self.arena, self.root, x)
    }

    /// Class probabilities of the responsible leaf written into `out`
    /// (`out.len() == num_classes`).
    pub fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        predict_proba_row(&self.arena, self.root, x, out);
    }

    /// Explain the prediction for `x`: the decision path plus the linear
    /// weights of the responsible leaf model.
    pub fn explain(&self, x: &[f64]) -> LeafExplanation {
        explain_at(&self.arena, self.root, x)
    }

    /// Resident heap bytes of the view: the arena's columns and the leaf
    /// models (capacity-based, as [`MemoryUsage`] counts).
    pub fn memory_bytes(&self) -> usize {
        self.arena.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DmtConfig, DynamicModelTree};
    use dmt_models::OnlineClassifier;
    use dmt_stream::schema::StreamSchema;

    /// A striped two-feature concept that no single linear model fits, so
    /// the tree splits, prunes and replaces along the way.
    fn striped(n: usize, offset: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = ((i + offset) % 997) as f64 / 997.0;
                let u = ((i * 31 + offset * 7) % 613) as f64 / 613.0;
                vec![t, u]
            })
            .collect();
        let ys = xs
            .iter()
            .map(|x| ((x[0] * 4.0) as usize + usize::from(x[1] > 0.5)) % 2)
            .collect();
        (xs, ys)
    }

    fn rows(xs: &[Vec<f64>]) -> Vec<&[f64]> {
        xs.iter().map(Vec::as_slice).collect()
    }

    /// A split-eager tree: no AIC threshold and short windows.
    fn eager_tree(num_features: usize) -> DynamicModelTree {
        let config = DmtConfig {
            use_aic_threshold: false,
            min_observations_split: 40,
            ..DmtConfig::default()
        };
        DynamicModelTree::new(StreamSchema::numeric("view", num_features, 2), config)
    }

    #[test]
    fn epoch_view_predicts_and_explains_bit_identically_to_its_tree() {
        let mut tree = eager_tree(2);
        let (probe_xs, _) = striped(300, 5_000);
        let probes = rows(&probe_xs);
        let mut views = Vec::new();
        for round in 0..120 {
            let (xs, ys) = striped(64, round * 64);
            tree.learn_batch(&rows(&xs), &ys);
            if round % 20 == 19 {
                views.push((tree.predict_view(), tree.clone()));
            }
        }
        assert!(tree.depth() >= 2, "the concept must split the tree");
        let (mut a, mut b) = (vec![0.0; 2], vec![0.0; 2]);
        let (mut va, mut vb) = (vec![0; probes.len()], vec![0; probes.len()]);
        for (view, at_the_time) in &views {
            view.try_predict_batch_into(&probes, &mut va).unwrap();
            at_the_time
                .try_predict_batch_into(&probes, &mut vb)
                .unwrap();
            assert_eq!(va, vb);
            for &x in &probes {
                assert_eq!(view.predict(x), at_the_time.predict(x));
                view.predict_proba_into(x, &mut a);
                at_the_time.predict_proba_into(x, &mut b);
                assert_eq!(a[0].to_bits(), b[0].to_bits());
                assert_eq!(a[1].to_bits(), b[1].to_bits());
                assert_eq!(view.explain(x), at_the_time.explain(x));
            }
        }
    }

    #[test]
    fn epoch_view_keeps_only_the_leaf_models() {
        let mut tree = eager_tree(2);
        for round in 0..120 {
            let (xs, ys) = striped(64, round * 64);
            tree.learn_batch(&rows(&xs), &ys);
        }
        assert!(tree.depth() >= 2, "the concept must split the tree");
        let view = tree.predict_view();
        let arena = tree.arena();
        assert_eq!(view.arena.num_slots(), arena.num_slots());
        assert_eq!(view.arena.num_free(), arena.num_free());
        assert_eq!(view.root, tree.root_id());
        let mut live = Vec::new();
        arena.preorder_ids(tree.root_id(), &mut live);
        for &id in &live {
            let (theirs, ours) = (arena.stats(id), view.arena.stats(id));
            assert_eq!(arena.children(id), view.arena.children(id));
            assert!(ours.grad_sum.is_empty() && ours.candidates.is_empty());
            assert_eq!((ours.count, ours.loss_sum), (0, 0.0));
            if arena.is_leaf(id) {
                assert_eq!(ours.model.params(), theirs.model.params());
            } else {
                assert_eq!(ours.k(), 0, "an inner slot keeps no model");
                assert_eq!(arena.split_key(id), view.arena.split_key(id));
            }
        }
        assert!(view.memory_bytes() < tree.memory_bytes() / 2);
    }

    #[test]
    fn epoch_view_rejects_bad_shapes_and_values_like_its_tree() {
        let tree = eager_tree(3);
        let view = tree.predict_view();
        let good: &[f64] = &[0.1, 0.2, 0.3];
        let short: &[f64] = &[0.1, 0.2];
        let nan: &[f64] = &[0.1, f64::NAN, 0.3];
        let mut two = [0usize; 2];
        for batch in [vec![good], vec![good, short], vec![good, nan]] {
            assert_eq!(
                view.try_predict_batch_into(&batch, &mut two),
                tree.try_predict_batch_into(&batch, &mut two)
            );
        }
        assert_eq!(view.try_predict_batch_into(&[], &mut []), Ok(()));
    }
}
