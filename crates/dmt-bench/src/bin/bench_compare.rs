//! CI throughput-regression gate: compare a fresh `bench_throughput` run
//! against a committed `BENCH_<n>.json` baseline and fail (exit code 1) when
//! a tracked model regresses beyond the tolerance band.
//!
//! Two metrics are gated per (model, stream) cell: the test-then-train
//! `instances_per_sec` and — when both files carry it — the predict-only
//! `predict_instances_per_sec`, so serving-path regressions cannot hide
//! behind learn-path wins (baselines blessed before the predict-only row
//! existed are compared on the train metric alone). `bench_throughput`
//! writes both as medians over repeated runs of the cell.
//!
//! Raw instances/sec depends on the machine, so the comparison is also
//! normalised by a *control* model: for every stream and metric, the ratio
//! `current/baseline` of the model under test is divided by the same ratio of
//! the control (`VFDT (MC)`, whose code path the perf-sensitive PRs do not
//! touch), cancelling a uniformly slower CI runner. A cell fails only when
//! *both* the raw and the control-normalised ratios fall below the tolerance
//! band — a true regression shows up in both views, while control-row jitter
//! or machine-speed changes alone show up in exactly one. Pass `--control ""`
//! to gate on the raw ratio only (e.g. for two runs on the same machine).
//!
//! File loading, row matching and the ratio-tolerance math are shared with
//! the accuracy gate (`acc_compare`) via [`dmt_bench::compare`]; this binary
//! keeps only the throughput-specific policy (control normalisation).
//!
//! ```bash
//! cargo run --release -p dmt-bench --bin bench_compare -- \
//!     --baseline BENCH_6.json --current /tmp/bench.json \
//!     --tolerance 0.15 --models "DMT (ours)"
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;

use dmt_bench::compare::{flag_pairs, load_rows, matched_rows, parse_tolerance, Tolerance};

struct Options {
    baseline: String,
    current: String,
    /// Maximum tolerated relative regression (0.15 = fail below 85 % of the
    /// baseline throughput).
    tolerance: f64,
    /// Control model used to cancel machine speed; empty = raw comparison.
    control: String,
    /// Models the gate applies to (comma-separated display names).
    models: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            baseline: "BENCH_6.json".to_string(),
            current: "/tmp/bench_current.json".to_string(),
            tolerance: 0.15,
            control: "VFDT (MC)".to_string(),
            models: vec!["DMT (ours)".to_string()],
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
            "--tolerance" => options.tolerance = parse_tolerance(flag, value)?,
            "--control" => options.control = value.to_string(),
            "--models" => {
                options.models = value.split(',').map(|s| s.trim().to_string()).collect();
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(options)
}

/// The per-cell metrics the gate iterates over: display label → JSON field.
const METRICS: [(&str, &str); 2] = [
    ("train", "instances_per_sec"),
    ("predict", "predict_instances_per_sec"),
];

fn run(options: &Options) -> Result<bool, String> {
    let baseline = load_rows(&options.baseline, "model", "stream")?;
    let current = load_rows(&options.current, "model", "stream")?;
    let tolerance = Tolerance::Ratio(options.tolerance);

    // Per-(stream, metric) machine-speed factor from the control model.
    let mut control_ratio: BTreeMap<(String, &str), f64> = BTreeMap::new();
    if !options.control.is_empty() {
        for ((model, stream), base) in &baseline.rows {
            if model == &options.control {
                if let Some(cur) = current.rows.get(&(model.clone(), stream.clone())) {
                    for (metric, field) in METRICS {
                        if let (Some(b), Some(c)) = (base.get(field), cur.get(field)) {
                            if *b > 0.0 {
                                control_ratio.insert((stream.clone(), metric), c / b);
                            }
                        }
                    }
                }
            }
        }
    }

    println!(
        "{:<14}{:<10}{:<9}{:>14}{:>14}{:>10}{:>12}  status",
        "Model", "Stream", "Metric", "base i/s", "cur i/s", "ratio", "normalised"
    );
    let mut failed = false;
    let mut compared = 0usize;
    for (model, stream, base, cur) in matched_rows(&baseline, &current, &options.models)? {
        for (metric, field) in METRICS {
            // A metric is gated only when both files carry it, so old
            // baselines without the predict-only row keep working.
            let (Some(&base_ips), Some(&cur_ips)) = (base.get(field), cur.get(field)) else {
                continue;
            };
            if base_ips <= 0.0 {
                continue;
            }
            let raw_ratio = cur_ips / base_ips;
            let machine = control_ratio
                .get(&(stream.to_string(), metric))
                .copied()
                .unwrap_or(1.0);
            let normalised = raw_ratio / machine;
            // A true regression shows up in both views: raw (same-machine
            // comparisons) and control-normalised (slower CI runners).
            // Requiring both keeps control-row jitter from failing an
            // unchanged model.
            let ok = !tolerance.regressed(base_ips, cur_ips) || normalised >= tolerance.floor(1.0);
            failed |= !ok;
            compared += 1;
            let status = if ok { "ok" } else { "REGRESSION" };
            println!(
                "{:<14}{:<10}{:<9}{:>14.0}{:>14.0}{:>10.3}{:>12.3}  {}",
                model, stream, metric, base_ips, cur_ips, raw_ratio, normalised, status
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
            "throughput regression beyond {:.0} % tolerance (baseline {})",
            options.tolerance * 100.0,
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
            eprintln!("bench_compare: {message}");
            ExitCode::FAILURE
        }
    }
}
