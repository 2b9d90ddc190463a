//! The model zoo: build any classifier evaluated in the paper by name.
//!
//! The reproduction harness iterates over [`ALL_MODELS`] (or
//! [`STANDALONE_MODELS`] for the complexity tables, which exclude the
//! ensembles exactly like Tables III and IV do) and calls [`build_model`]
//! once per data set, so every run starts from a fresh, identically
//! configured classifier — mirroring §VI-C of the paper.
//!
//! Only the Dynamic Model Tree persists: its snapshot lives in
//! [`dmt_core::snapshot`], and the [`registry`](crate::registry) checkpoints
//! and hot-swaps it. The comparators are never saved or restored.

use dmt_baselines::{
    EfdtClassifier, EfdtConfig, FimtDdClassifier, FimtDdConfig, HatConfig, HoeffdingAdaptiveTree,
    HoeffdingTreeClassifier, VfdtConfig,
};
use dmt_core::{DmtConfig, DynamicModelTree};
use dmt_ensembles::{AdaptiveRandomForest, ArfConfig, LeveragingBagging, LeveragingBaggingConfig};
use dmt_models::OnlineClassifier;
use dmt_stream::StreamSchema;

/// The classifiers evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Dynamic Model Tree (the paper's contribution).
    Dmt,
    /// FIMT-DD re-implemented as a classifier.
    FimtDd,
    /// VFDT with majority-class leaves.
    VfdtMc,
    /// VFDT with adaptive Naive Bayes leaves.
    VfdtNba,
    /// Hoeffding Adaptive Tree.
    HtAda,
    /// Extremely Fast Decision Tree.
    Efdt,
    /// Adaptive Random Forest (3 weak learners).
    ForestEnsemble,
    /// Leveraging Bagging (3 weak learners).
    BaggingEnsemble,
}

impl ModelKind {
    /// The display name used in the paper's tables.
    pub fn display_name(&self) -> &'static str {
        match self {
            ModelKind::Dmt => "DMT (ours)",
            ModelKind::FimtDd => "FIMT-DD",
            ModelKind::VfdtMc => "VFDT (MC)",
            ModelKind::VfdtNba => "VFDT (NBA)",
            ModelKind::HtAda => "HT-ADA",
            ModelKind::Efdt => "EFDT",
            ModelKind::ForestEnsemble => "Forest Ens.",
            ModelKind::BaggingEnsemble => "Bagging Ens.",
        }
    }

    /// Whether this model is one of the ensemble reference rows (separated by
    /// a horizontal line in Table II).
    pub fn is_ensemble(&self) -> bool {
        matches!(self, ModelKind::ForestEnsemble | ModelKind::BaggingEnsemble)
    }
}

/// All models of Table II, in the paper's row order.
pub const ALL_MODELS: [ModelKind; 8] = [
    ModelKind::Dmt,
    ModelKind::FimtDd,
    ModelKind::VfdtMc,
    ModelKind::VfdtNba,
    ModelKind::HtAda,
    ModelKind::Efdt,
    ModelKind::ForestEnsemble,
    ModelKind::BaggingEnsemble,
];

/// The stand-alone models of Tables III–V (no ensembles).
pub const STANDALONE_MODELS: [ModelKind; 6] = [
    ModelKind::Dmt,
    ModelKind::FimtDd,
    ModelKind::VfdtMc,
    ModelKind::VfdtNba,
    ModelKind::HtAda,
    ModelKind::Efdt,
];

/// Build a freshly configured classifier of the given kind for a stream
/// schema, using the hyperparameters of §V-D / §VI-C of the paper.
pub fn build_model(kind: ModelKind, schema: &StreamSchema, seed: u64) -> Box<dyn OnlineClassifier> {
    build_zoo_model(kind, schema, seed).into_boxed()
}

/// Build a concretely typed zoo model — like [`build_model`], but keeping the
/// concrete type, which is what [`ModelRegistry::register`] takes.
///
/// [`ModelRegistry::register`]: crate::registry::ModelRegistry::register
pub fn build_zoo_model(kind: ModelKind, schema: &StreamSchema, seed: u64) -> ZooModel {
    match kind {
        ModelKind::Dmt => ZooModel::Dmt(DynamicModelTree::new(
            schema.clone(),
            DmtConfig {
                seed,
                ..DmtConfig::default()
            },
        )),
        ModelKind::FimtDd => ZooModel::FimtDd(FimtDdClassifier::new(
            schema.clone(),
            FimtDdConfig::default(),
        )),
        ModelKind::VfdtMc => ZooModel::VfdtMc(HoeffdingTreeClassifier::new(
            schema.clone(),
            VfdtConfig::majority_class(),
        )),
        ModelKind::VfdtNba => ZooModel::VfdtNba(HoeffdingTreeClassifier::new(
            schema.clone(),
            VfdtConfig::naive_bayes_adaptive(),
        )),
        ModelKind::HtAda => ZooModel::HtAda(HoeffdingAdaptiveTree::new(
            schema.clone(),
            HatConfig::default(),
        )),
        ModelKind::Efdt => {
            ZooModel::Efdt(EfdtClassifier::new(schema.clone(), EfdtConfig::default()))
        }
        ModelKind::ForestEnsemble => ZooModel::Forest(AdaptiveRandomForest::new(
            schema.clone(),
            ArfConfig {
                seed,
                ..ArfConfig::default()
            },
        )),
        ModelKind::BaggingEnsemble => ZooModel::Bagging(LeveragingBagging::new(
            schema.clone(),
            LeveragingBaggingConfig {
                seed,
                ..LeveragingBaggingConfig::default()
            },
        )),
    }
}

/// A concretely typed model from the zoo.
///
/// [`build_model`] erases the concrete type behind `Box<dyn
/// OnlineClassifier>`, which is all the evaluation harness needs; this enum
/// keeps the type so the registry can take the Dynamic Model Tree out of it.
#[allow(clippy::large_enum_variant)]
pub enum ZooModel {
    /// Dynamic Model Tree.
    Dmt(DynamicModelTree),
    /// FIMT-DD as a classifier.
    FimtDd(FimtDdClassifier),
    /// VFDT with majority-class leaves.
    VfdtMc(HoeffdingTreeClassifier),
    /// VFDT with adaptive Naive Bayes leaves.
    VfdtNba(HoeffdingTreeClassifier),
    /// Hoeffding Adaptive Tree.
    HtAda(HoeffdingAdaptiveTree),
    /// Extremely Fast Decision Tree.
    Efdt(EfdtClassifier),
    /// Adaptive Random Forest.
    Forest(AdaptiveRandomForest),
    /// Leveraging Bagging.
    Bagging(LeveragingBagging),
}

impl ZooModel {
    /// The kind this model was built as.
    pub fn kind(&self) -> ModelKind {
        match self {
            ZooModel::Dmt(_) => ModelKind::Dmt,
            ZooModel::FimtDd(_) => ModelKind::FimtDd,
            ZooModel::VfdtMc(_) => ModelKind::VfdtMc,
            ZooModel::VfdtNba(_) => ModelKind::VfdtNba,
            ZooModel::HtAda(_) => ModelKind::HtAda,
            ZooModel::Efdt(_) => ModelKind::Efdt,
            ZooModel::Forest(_) => ModelKind::ForestEnsemble,
            ZooModel::Bagging(_) => ModelKind::BaggingEnsemble,
        }
    }

    /// Box the model behind the classifier trait (what [`build_model`]
    /// returns).
    pub fn into_boxed(self) -> Box<dyn OnlineClassifier> {
        match self {
            ZooModel::Dmt(m) => Box::new(m),
            ZooModel::FimtDd(m) => Box::new(m),
            ZooModel::VfdtMc(m) | ZooModel::VfdtNba(m) => Box::new(m),
            ZooModel::HtAda(m) => Box::new(m),
            ZooModel::Efdt(m) => Box::new(m),
            ZooModel::Forest(m) => Box::new(m),
            ZooModel::Bagging(m) => Box::new(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_model_kind_builds_and_reports_a_name() {
        let schema = StreamSchema::numeric("toy", 4, 3);
        for kind in ALL_MODELS {
            let model = build_model(kind, &schema, 1);
            assert!(!model.name().is_empty());
            assert_eq!(model.num_classes(), 3);
            let proba = model.predict_proba(&[0.1, 0.2, 0.3, 0.4]);
            assert_eq!(proba.len(), 3);
        }
    }

    #[test]
    fn standalone_models_exclude_ensembles() {
        assert_eq!(STANDALONE_MODELS.len(), 6);
        assert!(STANDALONE_MODELS.iter().all(|k| !k.is_ensemble()));
        assert_eq!(ALL_MODELS.len(), 8);
        assert_eq!(ALL_MODELS.iter().filter(|k| k.is_ensemble()).count(), 2);
    }

    #[test]
    fn display_names_match_the_paper_rows() {
        assert_eq!(ModelKind::Dmt.display_name(), "DMT (ours)");
        assert_eq!(ModelKind::VfdtNba.display_name(), "VFDT (NBA)");
        assert_eq!(ModelKind::ForestEnsemble.display_name(), "Forest Ens.");
    }

    #[test]
    fn every_model_kind_accounts_its_memory() {
        let schema = StreamSchema::numeric("toy", 4, 3);
        let xs: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                let a = i as f64 / 200.0;
                vec![a, ((i * 7) % 200) as f64 / 200.0, 1.0 - a, 0.5]
            })
            .collect();
        let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.5)).collect();
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        for kind in ALL_MODELS {
            let mut model = build_model(kind, &schema, 7);
            let fresh = model.memory_bytes();
            assert!(fresh > 0, "{kind:?} reports zero bytes when fresh");
            model.learn_batch(&rows, &ys);
            let trained = model.memory_bytes();
            assert!(
                trained >= fresh,
                "{kind:?} shrank while learning: {fresh} -> {trained}"
            );
        }
    }

    #[test]
    fn every_model_can_learn_a_small_batch() {
        let schema = StreamSchema::numeric("toy", 2, 2);
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 30.0, 0.5]).collect();
        let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.5)).collect();
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        for kind in ALL_MODELS {
            let mut model = build_model(kind, &schema, 3);
            model.learn_batch(&rows, &ys);
            let pred = model.predict(&[0.9, 0.5]);
            assert!(pred < 2, "{:?} produced an invalid class", kind);
            let complexity = model.complexity();
            assert!(complexity.parameters >= 0.0);
        }
    }
}
