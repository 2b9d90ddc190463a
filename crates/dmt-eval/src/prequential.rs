//! Prequential (test-then-train) evaluation, §VI-A of the paper.
//!
//! The stream is processed in batches of 0.1 % of the (known or estimated)
//! stream length. Every batch is first used to *test* the classifier — the
//! batch F1 score, the model complexity and the wall-clock time of the
//! test/train iteration are recorded — and then to *train* it.
//!
//! The per-batch F1 is the support-weighted F1 over the classes present in
//! the batch, which reproduces the magnitude of the paper's Table II values
//! on the strongly imbalanced streams (e.g. Bank ≈ 0.88).

use std::time::Instant;

use dmt_models::online::OnlineClassifier;
use dmt_stream::stream::DataStream;

use crate::json::{self, FromJson, Json, JsonError, ToJson};
use crate::metrics::ConfusionMatrix;
use crate::stats::mean_std;

/// Configuration of a prequential run.
#[derive(Debug, Clone)]
pub struct PrequentialConfig {
    /// Batch size as a fraction of the stream length (paper: 0.001 = 0.1 %).
    pub batch_fraction: f64,
    /// Lower bound on the batch size (protects very small / scaled streams).
    pub min_batch_size: usize,
    /// Optional cap on the number of batches (for smoke tests).
    pub max_batches: Option<usize>,
}

impl Default for PrequentialConfig {
    fn default() -> Self {
        Self {
            batch_fraction: 0.001,
            min_batch_size: 10,
            max_batches: None,
        }
    }
}

impl PrequentialConfig {
    /// Resolve the batch size for a stream of `stream_len` instances.
    pub fn batch_size(&self, stream_len: u64) -> usize {
        let size = (stream_len as f64 * self.batch_fraction).round() as usize;
        size.max(self.min_batch_size)
    }
}

/// Per-batch measurements of one prequential run.
#[derive(Debug, Clone, Default)]
pub struct PrequentialResult {
    /// Name of the evaluated model.
    pub model: String,
    /// Name of the data stream.
    pub dataset: String,
    /// F1 score of each test batch (before training on it).
    pub f1_per_batch: Vec<f64>,
    /// Number of splits after each batch.
    pub splits_per_batch: Vec<f64>,
    /// Number of parameters after each batch.
    pub params_per_batch: Vec<f64>,
    /// Wall-clock seconds of each test/train iteration.
    pub seconds_per_batch: Vec<f64>,
    /// Overall accuracy across the whole run.
    pub overall_accuracy: f64,
    /// Overall (stream-level) F1 across the whole run.
    pub overall_f1: f64,
    /// Overall Cohen's kappa across the whole run. Chance-corrected, so an
    /// always-majority classifier scores ~0 even on strongly imbalanced
    /// streams — the accuracy-regression gate relies on this to catch models
    /// collapsing to the majority class, which raw accuracy can hide.
    pub overall_kappa: f64,
    /// Total number of instances processed.
    pub instances: u64,
}

impl PrequentialResult {
    /// Mean and standard deviation of the per-batch F1 (Table II format).
    pub fn f1_mean_std(&self) -> (f64, f64) {
        mean_std(&self.f1_per_batch)
    }

    /// Mean and standard deviation of the number of splits (Table III).
    pub fn splits_mean_std(&self) -> (f64, f64) {
        mean_std(&self.splits_per_batch)
    }

    /// Mean and standard deviation of the number of parameters (Table IV).
    pub fn params_mean_std(&self) -> (f64, f64) {
        mean_std(&self.params_per_batch)
    }

    /// Mean and standard deviation of the per-iteration time (Table V).
    pub fn time_mean_std(&self) -> (f64, f64) {
        mean_std(&self.seconds_per_batch)
    }

    /// Number of evaluation steps (batches).
    pub fn num_batches(&self) -> usize {
        self.f1_per_batch.len()
    }
}

impl ToJson for PrequentialResult {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("model".to_string(), self.model.to_json()),
            ("dataset".to_string(), self.dataset.to_json()),
            ("f1_per_batch".to_string(), self.f1_per_batch.to_json()),
            (
                "splits_per_batch".to_string(),
                self.splits_per_batch.to_json(),
            ),
            (
                "params_per_batch".to_string(),
                self.params_per_batch.to_json(),
            ),
            (
                "seconds_per_batch".to_string(),
                self.seconds_per_batch.to_json(),
            ),
            (
                "overall_accuracy".to_string(),
                self.overall_accuracy.to_json(),
            ),
            ("overall_f1".to_string(), self.overall_f1.to_json()),
            ("overall_kappa".to_string(), self.overall_kappa.to_json()),
            ("instances".to_string(), self.instances.to_json()),
        ])
    }
}

impl FromJson for PrequentialResult {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            model: json::member(value, "model")?,
            dataset: json::member(value, "dataset")?,
            f1_per_batch: json::member(value, "f1_per_batch")?,
            splits_per_batch: json::member(value, "splits_per_batch")?,
            params_per_batch: json::member(value, "params_per_batch")?,
            seconds_per_batch: json::member(value, "seconds_per_batch")?,
            overall_accuracy: json::member(value, "overall_accuracy")?,
            overall_f1: json::member(value, "overall_f1")?,
            // Absent in files written before the kappa field existed.
            overall_kappa: json::member(value, "overall_kappa").unwrap_or(0.0),
            instances: json::member(value, "instances")?,
        })
    }
}

/// Executes prequential runs.
#[derive(Debug, Clone, Default)]
pub struct PrequentialRun {
    config: PrequentialConfig,
}

impl PrequentialRun {
    /// Create a runner with the given configuration.
    pub fn new(config: PrequentialConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PrequentialConfig {
        &self.config
    }

    /// Evaluate `model` on `stream` prequentially.
    ///
    /// `stream_len_hint` overrides the stream's own length hint when given
    /// (needed for unbounded generators).
    pub fn evaluate(
        &self,
        model: &mut dyn OnlineClassifier,
        stream: &mut dyn DataStream,
        stream_len_hint: Option<u64>,
    ) -> PrequentialResult {
        let stream_len = stream_len_hint
            .or_else(|| stream.remaining_hint())
            .unwrap_or(100_000);
        let batch_size = self.config.batch_size(stream_len);
        let num_classes = model.num_classes();

        let mut result = PrequentialResult {
            model: model.name().to_string(),
            dataset: stream.schema().name.clone(),
            ..PrequentialResult::default()
        };
        let mut overall = ConfusionMatrix::new(num_classes);

        let mut batches = 0usize;
        // One predictions buffer reused across the whole run: every model
        // fills it through `predict_batch_into` without a per-batch result
        // allocation.
        let mut predictions: Vec<usize> = Vec::with_capacity(batch_size);
        while let Some(batch) = stream.next_batch(batch_size) {
            if let Some(max) = self.config.max_batches {
                if batches >= max {
                    break;
                }
            }
            let rows = batch.rows();
            let start = Instant::now();

            // Test.
            predictions.clear();
            predictions.resize(rows.len(), 0);
            model.predict_batch_into(&rows, &mut predictions);
            // Train.
            model.learn_batch(&rows, &batch.ys);

            let elapsed = start.elapsed().as_secs_f64();

            let mut cm = ConfusionMatrix::new(num_classes);
            cm.update_batch(&batch.ys, &predictions);
            overall.update_batch(&batch.ys, &predictions);

            let complexity = model.complexity();
            result.f1_per_batch.push(cm.weighted_f1());
            result.splits_per_batch.push(complexity.splits);
            result.params_per_batch.push(complexity.parameters);
            result.seconds_per_batch.push(elapsed);
            result.instances += batch.len() as u64;
            batches += 1;
        }
        result.overall_accuracy = overall.accuracy();
        result.overall_f1 = overall.weighted_f1();
        result.overall_kappa = overall.kappa();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_models::online::Complexity;
    use dmt_models::Rows;
    use dmt_stream::generators::sea::SeaGenerator;
    use dmt_stream::transform::TakeStream;

    /// A trivial majority-class learner used to exercise the evaluator
    /// without depending on the tree crates (which would be circular).
    struct MajorityLearner {
        counts: Vec<u64>,
        name: String,
    }

    impl MajorityLearner {
        fn new(num_classes: usize) -> Self {
            Self {
                counts: vec![0; num_classes],
                name: "Majority".to_string(),
            }
        }
    }

    impl OnlineClassifier for MajorityLearner {
        fn name(&self) -> &str {
            &self.name
        }
        fn num_classes(&self) -> usize {
            self.counts.len()
        }
        fn predict(&self, _x: &[f64]) -> usize {
            self.counts
                .iter()
                .enumerate()
                .max_by_key(|(_, &c)| c)
                .map(|(i, _)| i)
                .unwrap_or(0)
        }
        fn predict_proba(&self, _x: &[f64]) -> Vec<f64> {
            let total: u64 = self.counts.iter().sum();
            if total == 0 {
                vec![1.0 / self.counts.len() as f64; self.counts.len()]
            } else {
                self.counts
                    .iter()
                    .map(|&c| c as f64 / total as f64)
                    .collect()
            }
        }
        fn learn_batch(&mut self, _xs: Rows<'_>, ys: &[usize]) {
            for &y in ys {
                if y < self.counts.len() {
                    self.counts[y] += 1;
                }
            }
        }
        fn complexity(&self) -> Complexity {
            Complexity {
                splits: 0.0,
                parameters: 1.0,
            }
        }
    }

    #[test]
    fn batch_size_follows_the_paper_fraction() {
        let config = PrequentialConfig::default();
        assert_eq!(config.batch_size(45_312), 45);
        assert_eq!(config.batch_size(1_000_000), 1_000);
        // The floor protects tiny streams.
        assert_eq!(config.batch_size(1_000), 10);
    }

    #[test]
    fn evaluator_processes_the_whole_stream() {
        let stream = TakeStream::new(SeaGenerator::new(0, 0.0, 1), 5_000);
        let mut stream = stream;
        let mut model = MajorityLearner::new(2);
        let runner = PrequentialRun::new(PrequentialConfig::default());
        let result = runner.evaluate(&mut model, &mut stream, None);
        assert_eq!(result.instances, 5_000);
        assert_eq!(result.num_batches(), 5_000 / 10);
        assert_eq!(result.model, "Majority");
        assert_eq!(result.dataset, "SEA");
    }

    #[test]
    fn per_batch_series_have_equal_length() {
        let mut stream = TakeStream::new(SeaGenerator::new(0, 0.0, 2), 2_000);
        let mut model = MajorityLearner::new(2);
        let runner = PrequentialRun::new(PrequentialConfig::default());
        let result = runner.evaluate(&mut model, &mut stream, None);
        let n = result.num_batches();
        assert_eq!(result.splits_per_batch.len(), n);
        assert_eq!(result.params_per_batch.len(), n);
        assert_eq!(result.seconds_per_batch.len(), n);
        assert!(result.seconds_per_batch.iter().all(|&t| t >= 0.0));
    }

    #[test]
    fn max_batches_caps_the_run() {
        let mut stream = TakeStream::new(SeaGenerator::new(0, 0.0, 3), 100_000);
        let mut model = MajorityLearner::new(2);
        let config = PrequentialConfig {
            max_batches: Some(5),
            ..PrequentialConfig::default()
        };
        let runner = PrequentialRun::new(config);
        let result = runner.evaluate(&mut model, &mut stream, None);
        assert_eq!(result.num_batches(), 5);
    }

    #[test]
    fn majority_learner_gets_nontrivial_f1_on_sea() {
        // SEA with function 0 has ~2/3 negative instances; the majority
        // learner therefore reaches a decent (but not great) F1, which
        // exercises the metric plumbing end to end.
        let mut stream = TakeStream::new(SeaGenerator::new(0, 0.0, 5), 10_000);
        let mut model = MajorityLearner::new(2);
        let runner = PrequentialRun::new(PrequentialConfig::default());
        let result = runner.evaluate(&mut model, &mut stream, None);
        let (f1_mean, f1_std) = result.f1_mean_std();
        assert!(f1_mean > 0.0 && f1_mean < 1.0, "f1 {f1_mean}");
        assert!(f1_std >= 0.0);
        assert!(result.overall_accuracy > 0.5);
    }

    #[test]
    fn majority_learner_has_chance_level_kappa() {
        // SEA is ~2:1 imbalanced, so the majority learner reaches decent raw
        // accuracy — but its kappa must sit at chance level. This separation
        // is exactly why the accuracy gate tracks both.
        let mut stream = TakeStream::new(SeaGenerator::new(0, 0.0, 5), 10_000);
        let mut model = MajorityLearner::new(2);
        let runner = PrequentialRun::new(PrequentialConfig::default());
        let result = runner.evaluate(&mut model, &mut stream, None);
        assert!(result.overall_accuracy > 0.55);
        assert!(
            result.overall_kappa.abs() < 0.05,
            "kappa {}",
            result.overall_kappa
        );
    }

    #[test]
    fn kappa_round_trips_through_json_and_tolerates_old_files() {
        let result = PrequentialResult {
            overall_kappa: 0.625,
            ..PrequentialResult::default()
        };
        let json = result.to_json();
        let back = PrequentialResult::from_json(&json).unwrap();
        assert_eq!(back.overall_kappa, 0.625);
        // A file written before the field existed parses with kappa 0.
        let Json::Obj(members) = json else {
            panic!("expected object")
        };
        let old = Json::Obj(
            members
                .into_iter()
                .filter(|(k, _)| k != "overall_kappa")
                .collect(),
        );
        let back = PrequentialResult::from_json(&old).unwrap();
        assert_eq!(back.overall_kappa, 0.0);
    }

    #[test]
    fn summaries_are_consistent_with_series() {
        let mut stream = TakeStream::new(SeaGenerator::new(0, 0.0, 7), 3_000);
        let mut model = MajorityLearner::new(2);
        let runner = PrequentialRun::new(PrequentialConfig::default());
        let result = runner.evaluate(&mut model, &mut stream, None);
        let (m, _) = result.splits_mean_std();
        assert_eq!(m, 0.0);
        let (p, _) = result.params_mean_std();
        assert_eq!(p, 1.0);
        let (t, _) = result.time_mean_std();
        assert!(t >= 0.0);
    }
}
