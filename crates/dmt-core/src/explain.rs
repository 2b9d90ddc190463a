//! Interpretability helpers.
//!
//! One of the paper's central claims (§I-A, §III) is that a Model Tree is
//! easier to interpret than a Hoeffding tree of similar quality: the tree
//! stays shallow, every structural change is justified by a loss gain, and
//! the linear leaf models directly expose feature weights for the subgroup of
//! observations routed to the leaf. This module packages that information
//! into plain data structures that applications can log or display.

use dmt_models::{Glm, SimpleModel};

use crate::arena::{NodeArena, NodeId};

/// Explain the prediction for `x` of the tree rooted at `root`: the decision
/// path plus the linear weights of the responsible leaf model.
pub(crate) fn explain_at(arena: &NodeArena, root: NodeId, x: &[f64]) -> LeafExplanation {
    let mut id = root;
    let mut path = Vec::new();
    while let Some((left, right)) = arena.children(id) {
        let key = arena.split_key(id);
        let went_left = key.goes_left(x);
        path.push(DecisionStep {
            feature: key.feature,
            value: key.value,
            is_nominal: key.is_nominal,
            went_left,
        });
        id = if went_left { left } else { right };
    }
    LeafExplanation::from_model(path, &arena.stats(id).model, x)
}

/// One decision on the path from the root to a leaf.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionStep {
    /// Feature tested at the inner node.
    pub feature: usize,
    /// Split value (threshold or nominal code).
    pub value: f64,
    /// Whether the test is a nominal equality test.
    pub is_nominal: bool,
    /// Whether the explained instance went to the left child.
    pub went_left: bool,
}

impl DecisionStep {
    /// Human-readable rendering, e.g. `"x3 <= 0.25"` or `"x1 != 2"`.
    pub fn describe(&self) -> String {
        if self.is_nominal {
            if self.went_left {
                format!("x{} == {}", self.feature, self.value)
            } else {
                format!("x{} != {}", self.feature, self.value)
            }
        } else if self.went_left {
            format!("x{} <= {:.4}", self.feature, self.value)
        } else {
            format!("x{} > {:.4}", self.feature, self.value)
        }
    }
}

/// Explanation of a single prediction: the decision path and the linear
/// weights of the leaf model responsible for the prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafExplanation {
    /// Inner-node decisions from the root to the leaf.
    pub path: Vec<DecisionStep>,
    /// Per-feature weights of the leaf model for the predicted class. For a
    /// binary logit model these are the raw weights (positive pushes towards
    /// class 1); for a softmax model they are the weights of the predicted
    /// class.
    pub weights: Vec<f64>,
    /// Intercept of the leaf model (for the predicted class).
    pub bias: f64,
    /// The class predicted by the leaf model.
    pub predicted_class: usize,
    /// The class probabilities produced by the leaf model.
    pub probabilities: Vec<f64>,
    /// Per-feature contribution `weight_i * x_i` for the explained instance —
    /// a simple local feature attribution (§I-C notes this advantage of Model
    /// Trees over majority-vote leaves).
    pub contributions: Vec<f64>,
}

impl LeafExplanation {
    /// Build an explanation from a leaf GLM and the instance being explained.
    pub fn from_model(path: Vec<DecisionStep>, model: &Glm, x: &[f64]) -> Self {
        let probabilities = model.predict_proba(x);
        let predicted_class = dmt_models::argmax(&probabilities);
        let weights = model.class_weights(predicted_class).to_vec();
        let bias = model.class_bias(predicted_class);
        let contributions = weights.iter().zip(x.iter()).map(|(w, xi)| w * xi).collect();
        Self {
            path,
            weights,
            bias,
            predicted_class,
            probabilities,
            contributions,
        }
    }

    /// Indices of the `k` features with the largest absolute contribution.
    pub fn top_features(&self, k: usize) -> Vec<usize> {
        let mut indexed: Vec<(usize, f64)> = self
            .contributions
            .iter()
            .map(|c| c.abs())
            .enumerate()
            .collect();
        indexed.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        indexed.into_iter().take(k).map(|(i, _)| i).collect()
    }

    /// Human-readable rendering of the decision path.
    pub fn describe_path(&self) -> String {
        if self.path.is_empty() {
            "(root)".to_string()
        } else {
            self.path
                .iter()
                .map(DecisionStep::describe)
                .collect::<Vec<_>>()
                .join(" AND ")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_step_descriptions() {
        let numeric_left = DecisionStep {
            feature: 3,
            value: 0.25,
            is_nominal: false,
            went_left: true,
        };
        assert_eq!(numeric_left.describe(), "x3 <= 0.2500");
        let numeric_right = DecisionStep {
            went_left: false,
            ..numeric_left.clone()
        };
        assert_eq!(numeric_right.describe(), "x3 > 0.2500");
        let nominal = DecisionStep {
            feature: 1,
            value: 2.0,
            is_nominal: true,
            went_left: false,
        };
        assert_eq!(nominal.describe(), "x1 != 2");
    }

    #[test]
    fn explanation_from_binary_logit() {
        let mut model = Glm::new_zeros(2, 2);
        model.params_mut()[0] = 2.0;
        model.params_mut()[1] = -1.0;
        model.params_mut()[2] = 0.1;
        let x = [0.9, 0.1];
        let explanation = LeafExplanation::from_model(vec![], &model, &x);
        assert_eq!(explanation.weights, vec![2.0, -1.0]);
        assert!((explanation.bias - 0.1).abs() < 1e-12);
        assert_eq!(explanation.predicted_class, 1);
        assert!((explanation.contributions[0] - 1.8).abs() < 1e-12);
        assert_eq!(explanation.describe_path(), "(root)");
    }

    #[test]
    fn explanation_from_softmax_uses_predicted_class_weights() {
        let model = Glm::new_random(3, 4, 7);
        let x = [0.2, 0.5, 0.8];
        let explanation = LeafExplanation::from_model(vec![], &model, &x);
        assert_eq!(explanation.weights.len(), 3);
        assert_eq!(explanation.probabilities.len(), 4);
        assert!(explanation.predicted_class < 4);
    }

    #[test]
    fn top_features_orders_by_absolute_contribution() {
        let mut model = Glm::new_zeros(3, 2);
        model.params_mut()[0] = 0.1;
        model.params_mut()[1] = -5.0;
        model.params_mut()[2] = 1.0;
        let x = [1.0, 1.0, 1.0];
        let explanation = LeafExplanation::from_model(vec![], &model, &x);
        let top = explanation.top_features(2);
        assert_eq!(top[0], 1);
        assert_eq!(top[1], 2);
    }

    #[test]
    fn path_description_joins_steps() {
        let path = vec![
            DecisionStep {
                feature: 0,
                value: 0.5,
                is_nominal: false,
                went_left: true,
            },
            DecisionStep {
                feature: 2,
                value: 1.0,
                is_nominal: true,
                went_left: true,
            },
        ];
        let model = Glm::new_zeros(3, 2);
        let explanation = LeafExplanation::from_model(path, &model, &[0.1, 0.2, 1.0]);
        assert_eq!(explanation.describe_path(), "x0 <= 0.5000 AND x2 == 1");
    }
}
