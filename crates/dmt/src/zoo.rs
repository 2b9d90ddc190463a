//! The model zoo: build any classifier evaluated in the paper by name.
//!
//! The reproduction harness iterates over [`ALL_MODELS`] (or
//! [`STANDALONE_MODELS`] for the complexity tables, which exclude the
//! ensembles exactly like Tables III and IV do) and calls [`build_model`]
//! once per data set, so every run starts from a fresh, identically
//! configured classifier — mirroring §VI-C of the paper.
//!
//! For long runs the zoo also offers crash-safe **checkpointing**:
//! [`build_zoo_model`] returns a concretely typed [`ZooModel`] whose
//! [`ZooModel::checkpoint`] / [`ZooModel::restore`] round-trip the full model
//! state through the sealed snapshot envelope of [`dmt_core::snapshot`]
//! (CRC-32-validated, atomically replaced on disk). The Dynamic Model Tree,
//! both VFDT variants and both ensembles restore **bit-identically** — the
//! restored model predicts and keeps learning exactly like the saved one.
//! Kinds without a snapshot codec yet (HT-Ada, EFDT, FIMT-DD) report a typed
//! [`CheckpointError::Unsupported`] instead of failing at some later point.

use std::path::Path;

use dmt_baselines::{
    EfdtClassifier, EfdtConfig, FimtDdClassifier, FimtDdConfig, HatConfig, HoeffdingAdaptiveTree,
    HoeffdingTreeClassifier, VfdtConfig,
};
use dmt_core::snapshot::{self as core_snapshot, SnapshotError};
use dmt_core::{DmtConfig, DynamicModelTree};
use dmt_ensembles::{AdaptiveRandomForest, ArfConfig, LeveragingBagging, LeveragingBaggingConfig};
use dmt_models::wire::{Reader, Writer};
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
/// concrete type so the model can be checkpointed and restored.
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

/// Why a zoo checkpoint or restore failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// The model kind has no snapshot codec yet (HT-Ada, EFDT, FIMT-DD).
    Unsupported(ModelKind),
    /// The underlying snapshot machinery failed (I/O, corruption, forged
    /// state, version skew).
    Snapshot(SnapshotError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Unsupported(kind) => write!(
                f,
                "{} does not support checkpointing yet",
                kind.display_name()
            ),
            CheckpointError::Snapshot(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Unsupported(_) => None,
            CheckpointError::Snapshot(e) => Some(e),
        }
    }
}

impl From<SnapshotError> for CheckpointError {
    fn from(e: SnapshotError) -> Self {
        CheckpointError::Snapshot(e)
    }
}

/// A concretely typed model from the zoo.
///
/// [`build_model`] erases the concrete type behind `Box<dyn
/// OnlineClassifier>`, which is all the evaluation harness needs; this enum
/// keeps the type so long runs can [`checkpoint`](ZooModel::checkpoint) the
/// model mid-stream and [`restore`](ZooModel::restore) it bit-identically
/// after a crash.
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

    /// Whether checkpoint/restore is implemented for this kind.
    pub fn supports_checkpoint(kind: ModelKind) -> bool {
        !matches!(kind, ModelKind::HtAda | ModelKind::Efdt | ModelKind::FimtDd)
    }

    /// Borrow the model as a classifier.
    pub fn as_classifier(&self) -> &dyn OnlineClassifier {
        match self {
            ZooModel::Dmt(m) => m,
            ZooModel::FimtDd(m) => m,
            ZooModel::VfdtMc(m) | ZooModel::VfdtNba(m) => m,
            ZooModel::HtAda(m) => m,
            ZooModel::Efdt(m) => m,
            ZooModel::Forest(m) => m,
            ZooModel::Bagging(m) => m,
        }
    }

    /// Mutably borrow the model as a classifier.
    pub fn as_classifier_mut(&mut self) -> &mut dyn OnlineClassifier {
        match self {
            ZooModel::Dmt(m) => m,
            ZooModel::FimtDd(m) => m,
            ZooModel::VfdtMc(m) | ZooModel::VfdtNba(m) => m,
            ZooModel::HtAda(m) => m,
            ZooModel::Efdt(m) => m,
            ZooModel::Forest(m) => m,
            ZooModel::Bagging(m) => m,
        }
    }

    /// Resident heap bytes of the model, via
    /// [`OnlineClassifier::memory_bytes`]. Every zoo kind implements the
    /// accounting, so this is never the trait's "unaccounted" zero.
    pub fn memory_bytes(&self) -> usize {
        self.as_classifier().memory_bytes()
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

    /// Atomically write a crash-safe checkpoint of the model to `path`.
    ///
    /// Kinds without a snapshot codec return
    /// [`CheckpointError::Unsupported`] without touching the filesystem.
    pub fn checkpoint<P: AsRef<Path>>(&self, path: P) -> Result<(), CheckpointError> {
        match self {
            ZooModel::Dmt(m) => m.save_snapshot(path)?,
            ZooModel::Forest(m) => m.save_snapshot(path)?,
            ZooModel::Bagging(m) => m.save_snapshot(path)?,
            ZooModel::VfdtMc(m) | ZooModel::VfdtNba(m) => {
                let mut w = Writer::new();
                m.encode(&mut w);
                core_snapshot::write_sealed(path.as_ref(), w.as_bytes())?;
            }
            ZooModel::HtAda(_) | ZooModel::Efdt(_) | ZooModel::FimtDd(_) => {
                return Err(CheckpointError::Unsupported(self.kind()))
            }
        }
        Ok(())
    }

    /// Restore a model of the given kind from a checkpoint written by
    /// [`ZooModel::checkpoint`].
    ///
    /// `schema` supplies the stream schema for kinds whose snapshot does not
    /// embed one (the VFDT variants); the DMT and ensemble snapshots carry
    /// their own schema. Corrupted, truncated or forged checkpoints yield a
    /// typed error — never a panic.
    pub fn restore<P: AsRef<Path>>(
        kind: ModelKind,
        schema: &StreamSchema,
        path: P,
    ) -> Result<Self, CheckpointError> {
        match kind {
            ModelKind::Dmt => Ok(ZooModel::Dmt(DynamicModelTree::load_snapshot(path)?)),
            ModelKind::ForestEnsemble => {
                Ok(ZooModel::Forest(AdaptiveRandomForest::load_snapshot(path)?))
            }
            ModelKind::BaggingEnsemble => {
                Ok(ZooModel::Bagging(LeveragingBagging::load_snapshot(path)?))
            }
            ModelKind::VfdtMc | ModelKind::VfdtNba => {
                let payload = core_snapshot::read_sealed(path.as_ref())?;
                let mut r = Reader::new(&payload);
                let tree =
                    HoeffdingTreeClassifier::decode(&mut r, schema).map_err(SnapshotError::from)?;
                r.expect_end().map_err(SnapshotError::from)?;
                if tree.name() != kind.display_name() {
                    return Err(CheckpointError::Snapshot(SnapshotError::Invalid(format!(
                        "checkpoint holds a {} model, expected {}",
                        tree.name(),
                        kind.display_name()
                    ))));
                }
                Ok(match kind {
                    ModelKind::VfdtMc => ZooModel::VfdtMc(tree),
                    _ => ZooModel::VfdtNba(tree),
                })
            }
            ModelKind::HtAda | ModelKind::Efdt | ModelKind::FimtDd => {
                Err(CheckpointError::Unsupported(kind))
            }
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

    fn training_batch(n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64 / n as f64, ((i * 7) % n) as f64 / n as f64])
            .collect();
        let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.5)).collect();
        (xs, ys)
    }

    #[test]
    fn supported_kinds_checkpoint_and_restore_bit_identically() {
        let schema = StreamSchema::numeric("toy", 2, 2);
        let (xs, ys) = training_batch(400);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        let dir = std::env::temp_dir().join("dmt-zoo-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        for kind in ALL_MODELS {
            if !ZooModel::supports_checkpoint(kind) {
                continue;
            }
            let mut model = build_zoo_model(kind, &schema, 11);
            for _ in 0..5 {
                model.as_classifier_mut().learn_batch(&rows, &ys);
            }
            let path = dir.join(format!("{kind:?}.dmt"));
            model.checkpoint(&path).expect("checkpoint");
            let mut restored = ZooModel::restore(kind, &schema, &path).expect("restore");
            assert_eq!(restored.kind(), kind);
            // Keep training both; predictions must stay bit-identical.
            model.as_classifier_mut().learn_batch(&rows, &ys);
            restored.as_classifier_mut().learn_batch(&rows, &ys);
            for x in xs.iter().take(50) {
                let pa = model.as_classifier().predict_proba(x);
                let pb = restored.as_classifier().predict_proba(x);
                for (va, vb) in pa.iter().zip(pb.iter()) {
                    assert_eq!(va.to_bits(), vb.to_bits(), "{kind:?} diverged");
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn unsupported_kinds_report_a_typed_error() {
        let schema = StreamSchema::numeric("toy", 2, 2);
        let dir = std::env::temp_dir().join("dmt-zoo-unsupported-test");
        std::fs::create_dir_all(&dir).unwrap();
        for kind in [ModelKind::HtAda, ModelKind::Efdt, ModelKind::FimtDd] {
            assert!(!ZooModel::supports_checkpoint(kind));
            let model = build_zoo_model(kind, &schema, 1);
            let path = dir.join("never-written.dmt");
            match model.checkpoint(&path) {
                Err(CheckpointError::Unsupported(k)) => assert_eq!(k, kind),
                other => panic!("{kind:?} checkpoint gave {other:?}"),
            }
            assert!(!path.exists(), "unsupported checkpoint must not write");
            match ZooModel::restore(kind, &schema, &path) {
                Err(CheckpointError::Unsupported(k)) => assert_eq!(k, kind),
                _ => panic!("{kind:?} restore must be unsupported"),
            }
        }
    }

    #[test]
    fn restoring_as_the_wrong_vfdt_variant_fails() {
        let schema = StreamSchema::numeric("toy", 2, 2);
        let (xs, ys) = training_batch(100);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        let mut model = build_zoo_model(ModelKind::VfdtMc, &schema, 1);
        model.as_classifier_mut().learn_batch(&rows, &ys);
        let dir = std::env::temp_dir().join("dmt-zoo-wrong-kind-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mc.dmt");
        model.checkpoint(&path).expect("checkpoint");
        match ZooModel::restore(ModelKind::VfdtNba, &schema, &path) {
            Ok(_) => panic!("an MC checkpoint must not restore as NBA"),
            Err(CheckpointError::Snapshot(_)) => {}
            Err(e) => panic!("unexpected error class: {e}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_model_kind_accounts_its_memory() {
        let schema = StreamSchema::numeric("toy", 4, 3);
        let (xs, ys) = training_batch(200);
        let xs: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| vec![x[0], x[1], 1.0 - x[0], 0.5])
            .collect();
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        for kind in ALL_MODELS {
            let mut model = build_zoo_model(kind, &schema, 7);
            let fresh = model.memory_bytes();
            assert!(fresh > 0, "{kind:?} reports zero bytes when fresh");
            model.as_classifier_mut().learn_batch(&rows, &ys);
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
