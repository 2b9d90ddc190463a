//! Throughput tracking for the repository's perf trajectory: test-then-train
//! instances/sec of the DMT and the stand-alone baseline trees on the SEA,
//! Agrawal and RBF generators, written to `BENCH_<n>.json`.
//!
//! The protocol mirrors the paper's evaluation loop (predict a batch, then
//! learn it) but times nothing except the models: all stream batches are
//! materialised before the clock starts. Table V of the paper reports this
//! cost per iteration; here it is normalised to instances/sec so successive
//! changes can be compared directly. A second, predict-only pass over the
//! same batches (model frozen at its final state, one reused predictions
//! buffer) isolates the descent/serving cost from training, so
//! inference-path regressions cannot hide behind learn-path wins.
//!
//! Every cell runs [`REPEATS`] times, each from a freshly built model, in
//! round-robin order over the cells, so a slow spell of the machine lands on
//! one repeat of many cells instead of every repeat of one. The JSON
//! `instances_per_sec` and `predict_instances_per_sec` fields hold the
//! median of the repeats and the `*_iqr` fields their interquartile range:
//! the CI gate reads medians, never a single timing window.
//!
//! A second table, written under the `micro` JSON key, times what the model
//! rows do not isolate: instance generation by the paper's generators and
//! simulators, drift-detector updates, and DMT explanations. Each of its
//! rows performs `--instances` operations per repeat.
//!
//! Streams and seeds come from the shared harness
//! ([`dmt_bench::throughput_stream`], [`dmt_bench::bench_seed`]): each stream
//! is materialised once and every model row consumes the identical instance
//! sequence. CI re-runs this binary on the same pinned configuration and
//! gates regressions with `bench_compare`.
//!
//! ```bash
//! cargo run -p dmt-bench --release --bin bench_throughput
//! cargo run -p dmt-bench --release --bin bench_throughput -- \
//!     --warmup 2000 --instances 40000 --batch 100 --out BENCH_6.json
//! ```

use std::hint::black_box;
use std::time::Instant;

use dmt::drift::{Adwin, DriftDetector, PageHinkley};
use dmt::eval::json::{Json, ToJson};
use dmt::prelude::*;
use dmt::stream::generators::{AgrawalGenerator, HyperplaneGenerator, SeaGenerator};
use dmt::stream::realworld::{covertype_sim, electricity_sim};
use dmt_bench::THROUGHPUT_STREAMS;
use dmt_bench::{bench_seed, throughput_stream};

/// Timed repeats of every model cell and micro row. One more than a
/// multiple of four, so the median and both quartiles are samples.
const REPEATS: usize = 5;
const _: () = assert!(REPEATS % 4 == 1);

/// Prediction is an order of magnitude faster than test-then-train, so the
/// predict-only pass sweeps the timed batches several times: a single sweep
/// finishes in a few milliseconds, too short a window for a stable gate.
const PREDICT_SWEEPS: usize = 10;

struct Options {
    warmup: usize,
    instances: usize,
    batch: usize,
    out: String,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            warmup: 2_000,
            instances: 40_000,
            batch: 100,
            out: "BENCH_6.json".to_string(),
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
            "--warmup" => {
                if let Some(v) = value.and_then(|v| v.parse().ok()) {
                    options.warmup = v;
                    i += 1;
                }
            }
            "--instances" => {
                if let Some(v) = value.and_then(|v| v.parse().ok()) {
                    options.instances = v;
                    i += 1;
                }
            }
            "--batch" => {
                if let Some(v) = value.and_then(|v| v.parse().ok()) {
                    options.batch = v;
                    i += 1;
                }
            }
            "--out" => {
                if let Some(v) = value {
                    options.out = v.clone();
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    options
}

/// Median and interquartile range of one metric over the repeats.
struct Spread {
    median: f64,
    iqr: f64,
}

impl Spread {
    fn of(samples: impl Iterator<Item = f64>) -> Self {
        let mut sorted: Vec<f64> = samples.collect();
        sorted.sort_by(f64::total_cmp);
        let quartile = |q: usize| sorted[q * (sorted.len() - 1) / 4];
        Self {
            median: quartile(2),
            iqr: quartile(3) - quartile(1),
        }
    }

    /// The interquartile range as a percentage of the median.
    fn iqr_percent(&self) -> f64 {
        100.0 * self.iqr / self.median
    }
}

/// One stream's batches, materialised once and shared by every model row.
struct StreamBatches {
    name: &'static str,
    schema: StreamSchema,
    warmup: Vec<Batch>,
    timed: Vec<Batch>,
}

impl StreamBatches {
    fn materialise(name: &'static str, options: &Options) -> Self {
        let mut stream = throughput_stream(name, bench_seed::STREAM)
            .unwrap_or_else(|| panic!("unknown bench stream {name}"));
        let mut take = |instances: usize| -> Vec<Batch> {
            (0..instances.div_ceil(options.batch))
                .filter_map(|_| stream.next_batch(options.batch))
                .collect()
        };
        let warmup = take(options.warmup);
        let timed = take(options.instances);
        Self {
            name,
            schema: stream.schema().clone(),
            warmup,
            timed,
        }
    }
}

/// One (model, stream) cell and the timings of its repeats so far.
struct Cell<'a> {
    kind: ModelKind,
    data: &'a StreamBatches,
    /// Test-then-train and predict-only seconds, one pair per repeat.
    seconds: Vec<(f64, f64)>,
    /// The finished model's shape. Every repeat ends in the same state: the
    /// model is seeded and the batches are identical.
    complexity: Complexity,
    bytes: usize,
}

impl<'a> Cell<'a> {
    fn new(kind: ModelKind, data: &'a StreamBatches) -> Self {
        Self {
            kind,
            data,
            seconds: Vec::with_capacity(REPEATS),
            complexity: Complexity::default(),
            bytes: 0,
        }
    }

    /// One repeat from a freshly built model.
    fn run_repeat(&mut self, batch_size: usize) {
        let mut model = build_model(self.kind, &self.data.schema, bench_seed::MODEL);
        for batch in &self.data.warmup {
            model.learn_batch(&batch.rows(), &batch.ys);
        }

        let start = Instant::now();
        for batch in &self.data.timed {
            let rows = batch.rows();
            black_box(model.predict_batch(&rows));
            model.learn_batch(&rows, &batch.ys);
        }
        let seconds = start.elapsed().as_secs_f64();

        // Predict-only sweeps with the model frozen at its final state,
        // reusing one predictions buffer.
        let mut predictions = vec![0usize; batch_size];
        let predict_start = Instant::now();
        for _ in 0..PREDICT_SWEEPS {
            for batch in &self.data.timed {
                let rows = batch.rows();
                predictions.clear();
                predictions.resize(rows.len(), 0);
                model.predict_batch_into(&rows, &mut predictions);
                black_box(&predictions);
            }
        }
        self.seconds
            .push((seconds, predict_start.elapsed().as_secs_f64()));
        self.complexity = model.complexity();
        self.bytes = model.memory_bytes();
    }

    fn instances(&self) -> u64 {
        self.data
            .timed
            .iter()
            .map(|batch| batch.ys.len() as u64)
            .sum()
    }

    /// Mean test-then-train microseconds per batch at the median rate.
    fn micros_per_batch(&self, train: &Spread) -> f64 {
        1e6 * self.instances() as f64 / train.median / self.data.timed.len().max(1) as f64
    }

    /// Test-then-train and predict-only instances/sec over the repeats.
    fn rates(&self) -> (Spread, Spread) {
        let train = self.instances() as f64;
        let predict = train * PREDICT_SWEEPS as f64;
        (
            Spread::of(self.seconds.iter().map(|&(t, _)| train / t)),
            Spread::of(self.seconds.iter().map(|&(_, p)| predict / p)),
        )
    }
}

impl ToJson for Cell<'_> {
    fn to_json(&self) -> Json {
        let (train, predict) = self.rates();
        let instances = self.instances();
        // The windows of the median repeat.
        let seconds = instances as f64 / train.median;
        let predict_seconds = (instances * PREDICT_SWEEPS as u64) as f64 / predict.median;
        obj([
            ("model", self.kind.display_name().to_json()),
            ("stream", self.data.name.to_json()),
            ("instances", instances.to_json()),
            ("seconds", seconds.to_json()),
            ("instances_per_sec", train.median.to_json()),
            ("instances_per_sec_iqr", train.iqr.to_json()),
            ("micros_per_batch", self.micros_per_batch(&train).to_json()),
            ("predict_seconds", predict_seconds.to_json()),
            ("predict_instances_per_sec", predict.median.to_json()),
            ("predict_instances_per_sec_iqr", predict.iqr.to_json()),
            ("final_splits", self.complexity.splits.to_json()),
            ("final_params", self.complexity.parameters.to_json()),
            // Resident heap bytes of the finished model (capacity-based;
            // informational here, the accuracy gate owns the ceiling).
            ("bytes_per_model", (self.bytes as u64).to_json()),
        ])
    }
}

/// A JSON object from `(key, value)` pairs, in order.
fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(
        members
            .map(|(key, value)| (key.to_string(), value))
            .to_vec(),
    )
}

/// Time `REPEATS` calls of `run`, each performing `ops` operations, then
/// print the row and return its JSON. A call builds its generator or
/// detector inside the window, a fixed cost spread over the `ops`.
fn micro(group: &str, name: &str, ops: usize, mut run: impl FnMut()) -> Json {
    let rate = Spread::of((0..REPEATS).map(|_| {
        let start = Instant::now();
        run();
        ops as f64 / start.elapsed().as_secs_f64()
    }));
    let ns_per_op = 1e9 / rate.median;
    println!(
        "{group:<24}{name:<20}{ops:>10}{:>16.0}{:>8.1}{ns_per_op:>10.1}",
        rate.median,
        rate.iqr_percent()
    );
    obj([
        ("group", group.to_json()),
        ("name", name.to_json()),
        ("ops", ops.to_json()),
        ("ops_per_sec", rate.median.to_json()),
        ("ops_per_sec_iqr", rate.iqr.to_json()),
        ("ns_per_op", ns_per_op.to_json()),
    ])
}

fn generate(mut stream: impl DataStream, ops: usize) {
    for _ in 0..ops {
        black_box(
            stream
                .next_instance()
                .expect("the stream outlasts the window"),
        );
    }
}

fn detect(mut detector: impl DriftDetector, errors: &[f64]) {
    for &error in errors {
        black_box(detector.update(error));
    }
}

/// A 0/1 error stream at a 10 % error rate, jumping to 60 % halfway through
/// when `drifting`.
fn error_stream(n: usize, drifting: bool) -> Vec<f64> {
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let rate = if drifting && i > n / 2 { 0.6 } else { 0.1 };
            f64::from(u8::from(next() < rate))
        })
        .collect()
}

fn run_micro(sea: &StreamBatches, n: usize) -> Vec<Json> {
    // The simulators stop after their scaled published row count, and
    // Electricity's 45,312 rows are the fewest, so scale past `n`.
    let scale = 1.0 + n as f64 / 45_312.0;
    let stationary = error_stream(n, false);
    let drifting = error_stream(n, true);

    // Explain every timed SEA instance on a DMT trained on the whole stream.
    let mut tree = DynamicModelTree::new(sea.schema.clone(), DmtConfig::default());
    for batch in sea.warmup.iter().chain(&sea.timed) {
        tree.learn_batch(&batch.rows(), &batch.ys);
    }
    let probes: Vec<&[f64]> = sea.timed.iter().flat_map(|batch| batch.rows()).collect();

    let (generators, detectors) = ("generate_instances", "drift_detector_updates");
    vec![
        micro(generators, "sea", n, || {
            generate(SeaGenerator::new(0, 0.1, 1), n)
        }),
        micro(generators, "agrawal", n, || {
            generate(AgrawalGenerator::new(5, 0.1, 1), n)
        }),
        micro(generators, "hyperplane_50d", n, || {
            generate(HyperplaneGenerator::paper_default(1), n)
        }),
        micro(generators, "electricity_sim", n, || {
            generate(electricity_sim(scale, 1), n)
        }),
        micro(generators, "covertype_sim_54d", n, || {
            generate(covertype_sim(scale, 1), n)
        }),
        micro(detectors, "adwin_stationary", n, || {
            detect(Adwin::default(), &stationary)
        }),
        micro(detectors, "adwin_drifting", n, || {
            detect(Adwin::default(), &drifting)
        }),
        micro(detectors, "page_hinkley", n, || {
            detect(PageHinkley::default(), &drifting)
        }),
        micro("dmt_explain", "single_instance", probes.len(), || {
            for x in &probes {
                black_box(tree.explain(x));
            }
        }),
    ]
}

fn main() {
    let options = parse_options();
    let streams: Vec<StreamBatches> = THROUGHPUT_STREAMS
        .iter()
        .map(|&name| StreamBatches::materialise(name, &options))
        .collect();
    let mut cells: Vec<Cell> = streams
        .iter()
        .flat_map(|data| {
            STANDALONE_MODELS
                .iter()
                .map(move |&kind| Cell::new(kind, data))
        })
        .collect();
    // Round-robin, so a slow spell of the machine lands on one repeat of
    // many cells instead of every repeat of one.
    for _ in 0..REPEATS {
        for cell in &mut cells {
            cell.run_repeat(options.batch);
        }
    }

    println!(
        "{:<14}{:<10}{:>14}{:>8}{:>12}{:>18}{:>8}{:>10}{:>10}",
        "Model",
        "Stream",
        "inst/sec",
        "IQR %",
        "µs/batch",
        "predict inst/sec",
        "IQR %",
        "splits",
        "KiB"
    );
    for cell in &cells {
        let (train, predict) = cell.rates();
        println!(
            "{:<14}{:<10}{:>14.0}{:>8.1}{:>12.1}{:>18.0}{:>8.1}{:>10.1}{:>10.1}",
            cell.kind.display_name(),
            cell.data.name,
            train.median,
            train.iqr_percent(),
            cell.micros_per_batch(&train),
            predict.median,
            predict.iqr_percent(),
            cell.complexity.splits,
            cell.bytes as f64 / 1024.0
        );
    }

    let sea = streams
        .iter()
        .find(|data| data.name == "SEA")
        .expect("SEA is a throughput stream");
    println!(
        "\n{:<24}{:<20}{:>10}{:>16}{:>8}{:>10}",
        "Group", "Row", "ops", "ops/sec", "IQR %", "ns/op"
    );
    let micro_results = run_micro(sea, options.instances);

    let doc = obj([
        ("bench", "throughput_v3".to_json()),
        (
            "protocol",
            "test-then-train; batches pre-materialised; wall clock covers predict_batch + learn_batch only; \
             predict_* fields re-run the batches predict-only on the final model; every cell runs \
             `repeats` times from a fresh model and its rates are medians with *_iqr interquartile \
             ranges; micro rows time --instances operations per repeat"
                .to_json(),
        ),
        (
            "config",
            obj([
                ("warmup_instances", options.warmup.to_json()),
                ("timed_instances", options.instances.to_json()),
                ("batch_size", options.batch.to_json()),
                ("repeats", REPEATS.to_json()),
                // Core count of the machine this file was produced on.
                (
                    "available_parallelism",
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                        .to_json(),
                ),
            ]),
        ),
        ("results", cells.to_json()),
        ("micro", Json::Arr(micro_results)),
    ]);
    std::fs::write(&options.out, doc.to_pretty_string()).expect("write bench output");
    eprintln!("wrote {}", options.out);
}
