//! Prequential accuracy tracking for the repository's *quality* trajectory:
//! the throughput suite (`bench_throughput`) catches perf regressions, this
//! suite catches silent quality regressions — a refactor that keeps the
//! trees fast but subtly breaks split selection, drift adaptation or the
//! nominal-feature path.
//!
//! Every stand-alone model of Table II runs test-then-train over the named
//! real-world-style workloads of [`dmt::stream::workload`] (electricity-like
//! series, covertype-like high-cardinality nominals, imbalanced sparse
//! fraud-like events, and an abrupt+gradual drift cocktail). The workloads
//! are deterministically synthesized CSV files (pinned seeds, byte-stable,
//! generated once into `results/datasets/`) loaded through the real
//! `load_csv` file path, so a run is reproducible on any machine without a
//! network. Batches are sized at 0.1 % of the stream like the paper's
//! protocol; per (model, workload) cell the suite records overall accuracy,
//! Cohen's kappa (chance-corrected — catches majority-class collapse that
//! raw accuracy hides on the imbalanced workload) and stream-level F1,
//! written to `BENCH_ACC.json`. CI re-runs this binary on the same pinned
//! configuration and gates regressions with `acc_compare`.
//!
//! Besides the workloads, the suite folds the paper-reproduction surface into
//! the same gate: every Table I data set of the catalog
//! ([`dmt::stream::catalog::TABLE1`]) runs at a pinned small scale
//! (`--paper-scale`, default 1 % of the published stream size; `--no-paper`
//! skips the grid) and is recorded under the `paper:<dataset>` workload name
//! — so a change that shifts the paper tables now fails `acc_compare` instead
//! of silently drifting until someone re-runs `table1`/`table2_to_6` by hand.
//!
//! ```bash
//! cargo run --release -p dmt-bench --bin bench_accuracy
//! cargo run --release -p dmt-bench --bin bench_accuracy -- \
//!     --out /tmp/acc_current.json --workloads elec-like --max-batches 5
//! ```

use std::path::PathBuf;

use dmt::eval::json::{Json, ToJson};
use dmt::eval::{PrequentialConfig, PrequentialRun};
use dmt::prelude::*;
use dmt::stream::catalog;
use dmt::stream::workload::{self, WORKLOADS};
use dmt_bench::bench_seed;

/// Stream scale of the paper-reproduction cells: every Table I data set is
/// truncated to this fraction of its published size, so the full paper grid
/// stays a seconds-scale CI job while still exercising each simulator's
/// schema (nominal cardinalities, class counts, drift profile).
const DEFAULT_PAPER_SCALE: f64 = 0.01;

struct Options {
    out: String,
    /// Directory the synthesized CSV files live in (created on demand).
    datasets_dir: PathBuf,
    /// Workload names to run (default: every catalog workload).
    workloads: Vec<String>,
    /// Model rows to run.
    models: Vec<ModelKind>,
    /// Optional cap on the number of prequential batches (smoke tests).
    max_batches: Option<usize>,
    /// Scale of the paper-reproduction (Table I) cells; `0` skips them
    /// entirely (`--paper-scale 0` or `--no-paper`).
    paper_scale: f64,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            out: "BENCH_ACC.json".to_string(),
            datasets_dir: workload::default_datasets_dir(),
            workloads: WORKLOADS.iter().map(|w| w.name.to_string()).collect(),
            models: STANDALONE_MODELS.to_vec(),
            max_batches: None,
            paper_scale: DEFAULT_PAPER_SCALE,
        }
    }
}

fn parse_options() -> Options {
    let mut options = Options::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match args[i].as_str() {
            "--out" => {
                if let Some(v) = value {
                    options.out = v.clone();
                    i += 1;
                }
            }
            "--datasets-dir" => {
                if let Some(v) = value {
                    options.datasets_dir = PathBuf::from(v);
                    i += 1;
                }
            }
            "--workloads" => {
                if let Some(v) = value {
                    options.workloads = v.split(',').map(|s| s.trim().to_string()).collect();
                    i += 1;
                }
            }
            "--models" => {
                if let Some(v) = value {
                    options.models = match v.as_str() {
                        "dmt" => vec![ModelKind::Dmt],
                        "all" => ALL_MODELS.to_vec(),
                        _ => STANDALONE_MODELS.to_vec(),
                    };
                    i += 1;
                }
            }
            "--max-batches" => {
                if let Some(v) = value.and_then(|v| v.parse().ok()) {
                    options.max_batches = Some(v);
                    i += 1;
                }
            }
            "--paper-scale" => {
                if let Some(v) = value.and_then(|v| v.parse().ok()) {
                    options.paper_scale = v;
                    i += 1;
                }
            }
            "--no-paper" => {
                options.paper_scale = 0.0;
            }
            _ => {}
        }
        i += 1;
    }
    options
}

struct CellResult {
    model: String,
    workload: String,
    instances: u64,
    batches: u64,
    accuracy: f64,
    kappa: f64,
    f1: f64,
    final_splits: f64,
    final_params: f64,
    /// Resident heap bytes of the finished model — deterministic for a
    /// pinned run, so the accuracy gate can put an absolute ceiling on it.
    bytes_per_model: u64,
}

impl ToJson for CellResult {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("model".to_string(), self.model.to_json()),
            ("workload".to_string(), self.workload.to_json()),
            ("instances".to_string(), self.instances.to_json()),
            ("batches".to_string(), self.batches.to_json()),
            ("accuracy".to_string(), self.accuracy.to_json()),
            ("kappa".to_string(), self.kappa.to_json()),
            ("f1".to_string(), self.f1.to_json()),
            ("final_splits".to_string(), self.final_splits.to_json()),
            ("final_params".to_string(), self.final_params.to_json()),
            (
                "bytes_per_model".to_string(),
                self.bytes_per_model.to_json(),
            ),
        ])
    }
}

fn run_cell(kind: ModelKind, workload_name: &str, options: &Options) -> CellResult {
    // Rebuilt from its pinned-seed file per cell, so every model row of one
    // run consumes the identical instance sequence.
    let stream = workload::build_workload(workload_name, &options.datasets_dir)
        .unwrap_or_else(|e| panic!("workload {workload_name}: {e}"))
        .unwrap_or_else(|| panic!("unknown workload {workload_name}"));
    evaluate_cell(kind, workload_name.to_string(), stream, options)
}

/// One paper-reproduction cell: a Table I stream at the pinned
/// `--paper-scale`, recorded under the `paper:<dataset>` workload name so the
/// `acc_compare` gate covers the paper grid with the same tolerances as the
/// real-world-style workloads.
fn run_paper_cell(kind: ModelKind, dataset: &str, options: &Options) -> CellResult {
    let stream = catalog::build_stream(dataset, options.paper_scale, bench_seed::STREAM)
        .unwrap_or_else(|| panic!("unknown Table I dataset {dataset}"));
    evaluate_cell(kind, format!("paper:{dataset}"), stream, options)
}

fn evaluate_cell(
    kind: ModelKind,
    workload_name: String,
    mut stream: Box<dyn DataStream>,
    options: &Options,
) -> CellResult {
    let schema = stream.schema().clone();
    let mut model = build_model(kind, &schema, bench_seed::MODEL);
    let runner = PrequentialRun::new(PrequentialConfig {
        max_batches: options.max_batches,
        ..PrequentialConfig::default()
    });
    let result = runner.evaluate(model.as_mut(), &mut stream, None);
    let complexity = model.complexity();
    let bytes_per_model = model.memory_bytes() as u64;
    CellResult {
        model: kind.display_name().to_string(),
        workload: workload_name,
        instances: result.instances,
        batches: result.num_batches() as u64,
        accuracy: result.overall_accuracy,
        kappa: result.overall_kappa,
        f1: result.overall_f1,
        final_splits: complexity.splits,
        final_params: complexity.parameters,
        bytes_per_model,
    }
}

fn main() {
    let options = parse_options();
    workload::ensure_all_datasets(&options.datasets_dir)
        .unwrap_or_else(|e| panic!("synthesize datasets into {:?}: {e}", options.datasets_dir));

    let mut results: Vec<CellResult> = Vec::new();
    println!(
        "{:<14}{:<16}{:>10}{:>10}{:>10}{:>10}{:>12}",
        "Model", "Workload", "accuracy", "kappa", "f1", "splits", "KiB"
    );
    for workload_name in &options.workloads {
        for &kind in &options.models {
            let cell = run_cell(kind, workload_name, &options);
            println!(
                "{:<14}{:<16}{:>10.4}{:>10.4}{:>10.4}{:>10.1}{:>12.1}",
                cell.model,
                cell.workload,
                cell.accuracy,
                cell.kappa,
                cell.f1,
                cell.final_splits,
                cell.bytes_per_model as f64 / 1024.0
            );
            results.push(cell);
        }
    }

    // Paper-reproduction grid: every Table I data set at the pinned scale,
    // same models, same gate. Cells are named `paper:<dataset>` so the
    // blessed file keeps the two surfaces distinguishable.
    if options.paper_scale > 0.0 {
        for info in &catalog::TABLE1 {
            for &kind in &options.models {
                let cell = run_paper_cell(kind, info.name, &options);
                println!(
                    "{:<14}{:<16}{:>10.4}{:>10.4}{:>10.4}{:>10.1}{:>12.1}",
                    cell.model,
                    cell.workload,
                    cell.accuracy,
                    cell.kappa,
                    cell.f1,
                    cell.final_splits,
                    cell.bytes_per_model as f64 / 1024.0
                );
                results.push(cell);
            }
        }
    }

    let config = PrequentialConfig::default();
    let doc = Json::Obj(vec![
        ("bench".to_string(), "accuracy_v1".to_json()),
        (
            "protocol".to_string(),
            "prequential test-then-train over deterministically synthesized workload files \
             (pinned seeds, batch = 0.1 % of the stream); accuracy/kappa/f1 are stream-level \
             over the whole run; DMT pinned to serial updates"
                .to_json(),
        ),
        (
            "config".to_string(),
            Json::Obj(vec![
                (
                    "batch_fraction".to_string(),
                    config.batch_fraction.to_json(),
                ),
                (
                    "min_batch_size".to_string(),
                    config.min_batch_size.to_json(),
                ),
                ("model_seed".to_string(), bench_seed::MODEL.to_json()),
                ("paper_scale".to_string(), options.paper_scale.to_json()),
            ]),
        ),
        ("results".to_string(), results.to_json()),
    ]);
    std::fs::write(&options.out, doc.to_pretty_string()).expect("write bench output");
    eprintln!("wrote {}", options.out);
}
