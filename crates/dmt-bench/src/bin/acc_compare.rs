//! CI accuracy-regression gate: compare a fresh `bench_accuracy` run against
//! the committed `BENCH_ACC.json` baseline and fail (exit code 1) when any
//! model's prequential quality on any workload drops beyond the tolerance.
//!
//! Four metrics are gated per (model, workload) cell. Overall accuracy,
//! Cohen's kappa and stream-level F1 each use an **absolute-delta**
//! tolerance ([`Tolerance::AbsoluteDelta`]): bounded `[0, 1]` scores make
//! ratio tolerances misbehave — near zero a ratio over-triggers (kappa 0.05 →
//! 0.04 is noise, not a 20 % loss) and near one it under-triggers. Kappa gets
//! a wider band than accuracy because chance correction amplifies small
//! count changes on imbalanced workloads. The fourth metric,
//! `bytes_per_model`, is lower-is-better and gated with an **absolute
//! ceiling** ([`Tolerance::AbsoluteCeiling`], `--tol-bytes`): resident bytes
//! may grow by at most the tolerance over the blessed value, so memory creep
//! fails CI like a quality loss does, while shrinking never trips the gate.
//!
//! Unlike the throughput gate there is no machine-speed control and no
//! advisory tier: the workloads are deterministically synthesized from
//! pinned seeds and the models are seeded, so a run produces the *same
//! numbers on every machine* — any delta beyond float noise is a real
//! behaviour change. For the same reason every (model, workload) cell of the
//! baseline is gated by default; `--models` narrows the gate when needed.
//!
//! ```bash
//! cargo run --release -p dmt-bench --bin acc_compare -- \
//!     --baseline BENCH_ACC.json --current /tmp/acc_current.json
//! ```
//!
//! Re-blessing after an intended quality change:
//!
//! ```bash
//! cargo run --release -p dmt-bench --bin bench_accuracy   # rewrites BENCH_ACC.json
//! ```

use std::process::ExitCode;

use dmt_bench::compare::{flag_pairs, load_rows, matched_rows, parse_tolerance, Tolerance};

struct Options {
    baseline: String,
    current: String,
    /// Models the gate applies to; empty = every baseline row.
    models: Vec<String>,
    /// Absolute tolerated drop in overall accuracy.
    tol_accuracy: f64,
    /// Absolute tolerated drop in Cohen's kappa.
    tol_kappa: f64,
    /// Absolute tolerated drop in stream-level F1.
    tol_f1: f64,
    /// Absolute tolerated *growth* in resident bytes per model
    /// ([`Tolerance::AbsoluteCeiling`]) — memory creep is a regression too.
    tol_bytes: f64,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            baseline: "BENCH_ACC.json".to_string(),
            current: "/tmp/acc_current.json".to_string(),
            models: Vec::new(),
            tol_accuracy: 0.02,
            tol_kappa: 0.04,
            tol_f1: 0.02,
            // Half a MiB of headroom: capacity-based accounting moves in
            // powers of two, so legitimate refactors jiggle the count by
            // whole allocation steps — but silent unbounded growth fails.
            tol_bytes: 512.0 * 1024.0,
        }
    }
}

fn parse_options() -> Result<Options, String> {
    let mut options = Options::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    for (flag, value) in flag_pairs(&args)? {
        match flag {
            "--baseline" => options.baseline = value.to_string(),
            "--current" => options.current = value.to_string(),
            "--models" => {
                options.models = value
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--tol-accuracy" => options.tol_accuracy = parse_tolerance(flag, value)?,
            "--tol-kappa" => options.tol_kappa = parse_tolerance(flag, value)?,
            "--tol-f1" => options.tol_f1 = parse_tolerance(flag, value)?,
            "--tol-bytes" => options.tol_bytes = parse_tolerance(flag, value)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(options)
}

fn run(options: &Options) -> Result<bool, String> {
    let baseline = load_rows(&options.baseline, "model", "workload")?;
    let current = load_rows(&options.current, "model", "workload")?;
    let metrics: [(&str, Tolerance); 4] = [
        ("accuracy", Tolerance::AbsoluteDelta(options.tol_accuracy)),
        ("kappa", Tolerance::AbsoluteDelta(options.tol_kappa)),
        ("f1", Tolerance::AbsoluteDelta(options.tol_f1)),
        (
            "bytes_per_model",
            Tolerance::AbsoluteCeiling(options.tol_bytes),
        ),
    ];

    // Wide enough for `paper:Insects-Incremental`, `bytes_per_model` and
    // seven-digit byte counts, so no two columns run together.
    println!(
        "{:<14}{:<27}{:<17}{:>15}{:>15}{:>15}  status",
        "Model", "Workload", "Metric", "baseline", "current", "delta"
    );
    let mut failed = false;
    let mut improved = 0usize;
    let mut compared = 0usize;
    for (model, workload, base, cur) in matched_rows(&baseline, &current, &options.models)? {
        for (metric, tolerance) in metrics {
            // Old baselines may predate a metric; but a metric the baseline
            // carries must not vanish from the current run — that is how a
            // gate silently stops gating.
            let Some(&base_value) = base.get(metric) else {
                continue;
            };
            let Some(&cur_value) = cur.get(metric) else {
                return Err(format!(
                    "current run misses metric {metric} on ({model}, {workload})"
                ));
            };
            let regressed = tolerance.regressed(base_value, cur_value);
            failed |= regressed;
            compared += 1;
            let status = if regressed {
                "REGRESSION"
            } else if tolerance.improved(base_value, cur_value) {
                improved += 1;
                "ok (improved)"
            } else {
                "ok"
            };
            println!(
                "{:<14}{:<27}{:<17}{:>15.4}{:>15.4}{:>+15.4}  {}",
                model,
                workload,
                metric,
                base_value,
                cur_value,
                cur_value - base_value,
                status
            );
        }
    }
    if compared == 0 {
        return Err(format!(
            "no cells of {:?} found in both files",
            options.models
        ));
    }
    if failed {
        eprintln!(
            "accuracy regression beyond tolerance (baseline {}); if the quality change is \
             intended, re-bless with `cargo run --release -p dmt-bench --bin bench_accuracy`",
            options.baseline
        );
    } else if improved > 0 {
        eprintln!(
            "{improved} metric(s) improved beyond the tolerance band — baseline {} is stale, \
             consider re-blessing to lock the gains in",
            options.baseline
        );
    }
    Ok(!failed)
}

fn main() -> ExitCode {
    match parse_options().and_then(|options| run(&options)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("acc_compare: {message}");
            ExitCode::FAILURE
        }
    }
}
