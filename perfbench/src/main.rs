//! `perfbench`: the end-to-end and per-layer benchmark of the Dynamic Model
//! Tree workspace (see `perfbench/README.md` for workloads and metrics).
//!
//! ```text
//! perfbench prepare [--data-dir DIR]
//! perfbench run --workload NAME --seed N --seconds S --trace 0|1
//!               [--data-dir DIR] [--trace-dir DIR]
//! ```
//!
//! `prepare` synthesises the serve-budget input file, so that one-time cost
//! never lands in a measured run. `run` measures one workload and prints, as
//! its last line, one JSON object with `correct`, `attempted`, `failed` and
//! the metrics: the end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`. A failed check or operation exits with code 1.

mod layers;
mod prequential;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;

/// The pass (or serve session) a traced run records spans in. Every run
/// makes at least as many passes as its workload has seeds, three or more,
/// so untraced passes remain to give the baseline of the tracing overhead.
pub const TRACED_REPEAT: usize = 1;

/// The seed of pass `pass` when a run cycles through `seeds` seeds derived
/// from `--seed`. A traced run repeats one seed, so its traced pass compares
/// with untraced passes over the same inputs.
pub fn pass_seed(seed: u64, pass: usize, seeds: usize, trace: bool) -> u64 {
    let k = if trace { 0 } else { pass % seeds };
    seed.wrapping_mul(seeds as u64).wrapping_add(k as u64)
}

/// End-to-end metrics and units, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 10] = [
    ("learn_inst_s", "inst/s"),
    ("predict_inst_s", "inst/s"),
    ("accuracy", "fraction"),
    ("splits", "count"),
    ("bytes_resident", "bytes"),
    ("setup_s", "s"),
    ("predict_p50_us", "us"),
    ("predict_p99_us", "us"),
    ("learn_p50_us", "us"),
    ("learn_p95_us", "us"),
];

/// Per-layer metrics and units, printed with `--trace 1`. A layer idle on a
/// workload reports 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("stream.load_ms", "ms"),
    ("stream.batch_us", "us"),
    ("models.glm_pass_ns_row", "ns/row"),
    ("models.glm_sgd_ns_row", "ns/row"),
    ("models.glm_predict_ns_row", "ns/row"),
    ("core.learn_batch_us.p50", "us"),
    ("core.learn_batch_us.p99", "us"),
    ("core.predict_batch_us.p50", "us"),
    ("core.node_update_us.p50", "us"),
    ("core.structural_batches", "count"),
    ("core.learn_us.structural", "us"),
    ("core.learn_us.steady", "us"),
    ("core.frozen_batches", "count"),
    ("core.nodes", "count"),
    ("core.depth", "count"),
    ("core.candidates", "count"),
    ("core.candidate_yield", "per_1000"),
    ("epoch.clone_us.p50", "us"),
    ("epoch.publish_us.p50", "us"),
    ("epoch.bytes", "bytes"),
    ("epoch.pin_ns.p50", "ns"),
    ("registry.learn_us.p50", "us"),
    ("registry.predict_us.p50", "us"),
    ("serve.codec_us.predict", "us"),
    ("serve.codec_us.learn", "us"),
    ("serve.transport_us.predict", "us"),
    ("serve.transport_us.learn", "us"),
    ("serve.frame_bytes.predict", "bytes"),
    ("serve.frame_bytes.learn", "bytes"),
    ("serve.ops.predict", "count"),
    ("serve.ops.learn", "count"),
    ("serve.ops.stats", "count"),
    ("serve.failed.predict", "count"),
    ("serve.failed.learn", "count"),
    ("serve.failed.stats", "count"),
    ("trace.overhead.learn_inst_s", "ratio"),
    ("trace.overhead.predict_p50_us", "ratio"),
];

/// Command-line options of `run`.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub data_dir: PathBuf,
    pub trace_dir: PathBuf,
}

/// What a run found: operation counts, failed checks, metrics and spans.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// The traced run's spans, written out at exit.
    pub spans: Option<Tracer>,
    trace: bool,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    fn declared(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Set a metric declared for this kind of run.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.declared().iter().find(|(n, _)| *n == name) {
            Some(&(name, unit)) => self.metrics.push((name, unit, value)),
            None => self.problem(&format!("metric {name} is not declared for this run")),
        }
    }

    /// Report 0 for every per-layer metric of layers this workload leaves
    /// idle.
    pub fn set_idle(&mut self, prefixes: &[&str]) {
        for (name, _) in PER_LAYER {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.set(name, 0.0);
            }
        }
    }

    /// A failed output check.
    pub fn problem(&mut self, what: &str) {
        self.problems.push(what.to_string());
    }

    /// A failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.problems.push(what.into());
    }

    /// Every declared metric exactly once, each a finite number.
    fn check_complete(&mut self) {
        for (name, _) in self.declared() {
            let count = self.metrics.iter().filter(|m| m.0 == *name).count();
            if count != 1 {
                self.problem(&format!("metric {name} reported {count} times"));
            }
        }
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.2.is_finite())
            .map(|m| format!("metric {} is {}", m.0, m.2))
            .collect();
        self.problems.extend(bad);
    }

    fn json(&self, correct: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn parse_run(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        data_dir: PathBuf::from("perfbench/data"),
        trace_dir: PathBuf::from("perfbench/traces"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--data-dir" => args.data_dir = PathBuf::from(value),
            "--trace-dir" => args.trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err(format!("--seconds must be positive, not {}", args.seconds));
    }
    Ok(args)
}

fn run(args: &Args, origin: Instant) -> ExitCode {
    let mut report = Report {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        spans: None,
        trace: args.trace,
        metrics: Vec::new(),
    };
    let prequential = [&prequential::SEA, &prequential::AGRAWAL]
        .into_iter()
        .find(|spec| spec.name == args.workload);
    if let Some(spec) = prequential {
        prequential::run(spec, args, origin, &mut report);
    } else if args.workload == serve::NAME {
        serve::run(args, origin, &mut report);
    } else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    }
    report.check_complete();
    if let Some(tracer) = &report.spans {
        if tracer.dropped() > 0 {
            eprintln!(
                "perfbench: {} spans did not fit the trace buffer",
                tracer.dropped()
            );
        }
        let path = args.trace_dir.join(format!("{}.tsv", args.workload));
        if let Err(e) = tracer.write_tsv(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let correct = report.problems.is_empty() && report.failed == 0;
    println!("{}", report.json(correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let origin = Instant::now();
    // Pin every learner serial before anything reads the variable, so a
    // shell or CI leg that exports it cannot turn a measured run threaded.
    std::env::remove_var("DMT_PARALLELISM");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => ("", &[][..]),
    };
    match command {
        "prepare" => {
            let dir = match rest {
                [flag, dir] if flag == "--data-dir" => PathBuf::from(dir),
                [] => PathBuf::from("perfbench/data"),
                _ => {
                    eprintln!("usage: perfbench prepare [--data-dir DIR]");
                    return ExitCode::from(2);
                }
            };
            match serve::prepare(&dir) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: prepare: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "run" => match parse_run(rest) {
            Ok(args) => run(&args, origin),
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("usage: perfbench prepare|run ... (see perfbench/README.md)");
            ExitCode::from(2)
        }
    }
}
