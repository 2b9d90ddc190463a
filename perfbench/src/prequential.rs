//! The prequential workloads: a catalog paper stream, test-then-train in
//! batches of 100 rows, learned in process by one serial Dynamic Model Tree
//! on the paper's defaults.

use std::time::Instant;

use dmt_core::{DmtConfig, DynamicModelTree, NodeId};
use dmt_models::OnlineClassifier;
use dmt_stream::{catalog, Batch, DataStream};

use crate::layers::{
    candidate_accumulations, census, ns_per_row, shape_hash, CoreCounts, LayerReplay,
};
use crate::stats::{per_seed_mean, quantile, us};
use crate::trace::{Tracer, ROOT};
use crate::{pass_seed, Args, Report, TRACED_REPEAT};

/// A prequential workload. The stream length is part of the workload and
/// never varies between runs.
pub struct Spec {
    /// Workload name on the command line.
    pub name: &'static str,
    /// Table I catalog stream.
    catalog: &'static str,
    /// Catalog scale: the stream has `scale` × 1M rows.
    scale: f64,
    /// Rows learned test-then-train before the first timed call.
    warmup_rows: usize,
}

/// SEA: the tree stays at 1–7 splits with 9 candidates per node, so the GLM
/// pass and SGD are about half of learn time. `dmt-models` kernels and the
/// predict descent show here; the epoch and serve layers sit idle.
pub const SEA: Spec = Spec {
    name: "prequential-sea",
    catalog: "SEA",
    scale: 4.0,
    warmup_rows: 1_000_000,
};

/// Agrawal: the tree grows to tens of splits, so candidate propose and
/// accumulate plus pool management dominate learn time (the `dmt-core` node
/// layer); the 20-code nominal takes the hashed bucket path.
pub const AGRAWAL: Spec = Spec {
    name: "prequential-agrawal",
    catalog: "Agrawal",
    scale: 1.0,
    warmup_rows: 100_000,
};

const BATCH: usize = 100;
/// Probe rows of the snapshot round-trip check: a catalog scale of 0.001
/// gives the 1,000-row minimum.
const PROBE_SCALE: f64 = 0.001;
const PROBE_SEED: u64 = 0x5eed_9b0b;
/// Streams a run cycles its passes through. One stream's drift history moves
/// its split count, tree size and learn cost by 10–17 % from seed to seed, so
/// every figure averages over these streams, the timings over each stream's
/// median pass. Over ten seeds, SEA's mean split count kept an 18 % quartile
/// spread when averaging three streams, and 8 % with five.
const SEEDS: usize = 5;

/// One fresh tree run over the whole stream.
#[derive(Default)]
struct Pass {
    /// Stream seed.
    seed: u64,
    setup_s: f64,
    learn_us: Vec<f64>,
    predict_us: Vec<f64>,
    correct: u64,
    tested: u64,
    splits_sum: f64,
    bytes: usize,
}

impl Pass {
    fn learn_inst_s(&self) -> f64 {
        self.tested as f64 * 1e6 / self.learn_us.iter().sum::<f64>()
    }

    fn predict_inst_s(&self) -> f64 {
        self.tested as f64 * 1e6 / self.predict_us.iter().sum::<f64>()
    }

    fn latency(&self, predict: bool, q: f64) -> f64 {
        let samples = if predict {
            &self.predict_us
        } else {
            &self.learn_us
        };
        quantile(&mut samples.clone(), q)
    }

    /// The figures that must repeat exactly on every pass at one seed.
    fn fingerprint(&self) -> (u64, u64, u64, usize) {
        (
            self.correct,
            self.tested,
            self.splits_sum.to_bits(),
            self.bytes,
        )
    }
}

/// What the traced pass records besides the timings.
struct Traced {
    tracer: Tracer,
    core: CoreCounts,
    census: (f64, f64, f64),
    order: Vec<NodeId>,
    visited: Vec<bool>,
}

fn build_stream(spec: &Spec, scale: f64, seed: u64) -> Box<dyn DataStream> {
    catalog::build_stream(spec.catalog, scale, seed).expect("catalog streams exist")
}

/// Run `spec` for `args.seconds` (at least [`SEEDS`] passes) and fill
/// `report` with the end-to-end or, when tracing, the per-layer metrics.
pub fn run(spec: &Spec, args: &Args, origin: Instant, report: &mut Report) {
    let mut probe_stream = build_stream(spec, PROBE_SCALE, args.seed ^ PROBE_SEED);
    let probe = probe_stream.next_batch(1_000).expect("probe rows");
    let total = build_stream(spec, spec.scale, args.seed)
        .remaining_hint()
        .expect("catalog streams know their length") as usize;
    let steps = (total - spec.warmup_rows) / BATCH;

    // Spans: four per timed step of the traced pass, five per replayed step.
    let mut traced = args.trace.then(|| Traced {
        tracer: Tracer::new(origin, 9 * steps + 16),
        core: CoreCounts::default(),
        census: (0.0, 0.0, 0.0),
        order: Vec::new(),
        visited: Vec::new(),
    });
    let mut passes: Vec<Pass> = Vec::new();
    let mut start = origin;
    loop {
        let i = passes.len();
        let tr = if args.trace && i == TRACED_REPEAT {
            traced.as_mut()
        } else {
            None
        };
        let seed = pass_seed(args.seed, i, SEEDS, args.trace);
        let pass = run_pass(spec, seed, start, steps, &probe, tr, report);
        // A pass that replays an earlier pass's stream must repeat its figures.
        if let Some(earlier) = passes.iter().find(|p| p.seed == seed) {
            if earlier.fingerprint() != pass.fingerprint() {
                report.problem(&format!(
                    "passes over stream {seed} differ in accuracy, splits or bytes"
                ));
            }
        }
        passes.push(pass);
        if passes.len() >= SEEDS && origin.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        start = Instant::now();
    }

    let untraced: Vec<&Pass> = passes
        .iter()
        .enumerate()
        .filter(|&(i, _)| !(args.trace && i == TRACED_REPEAT))
        .map(|(_, p)| p)
        .collect();
    let med = |f: &dyn Fn(&Pass) -> f64| {
        per_seed_mean(&untraced.iter().map(|p| (p.seed, f(p))).collect::<Vec<_>>())
    };
    let Some(mut traced) = traced else {
        let distinct = &passes[..SEEDS];
        let mean = |f: &dyn Fn(&Pass) -> f64| distinct.iter().map(f).sum::<f64>() / SEEDS as f64;
        let correct: u64 = distinct.iter().map(|p| p.correct).sum();
        let tested: u64 = distinct.iter().map(|p| p.tested).sum();
        report.set("learn_inst_s", med(&Pass::learn_inst_s));
        report.set("predict_inst_s", med(&Pass::predict_inst_s));
        report.set("accuracy", correct as f64 / tested as f64);
        report.set("splits", mean(&|p| p.splits_sum / steps as f64));
        report.set("bytes_resident", mean(&|p| p.bytes as f64));
        report.set("setup_s", med(&|p| p.setup_s));
        report.set("predict_p50_us", med(&|p| p.latency(true, 0.5)));
        report.set("predict_p99_us", med(&|p| p.latency(true, 0.99)));
        report.set("learn_p50_us", med(&|p| p.latency(false, 0.5)));
        report.set("learn_p95_us", med(&|p| p.latency(false, 0.95)));
        return;
    };

    // Replay the same batches through a GLM and a root node; only the timed
    // part of the stream records spans.
    let mut stream = build_stream(spec, spec.scale, passes[TRACED_REPEAT].seed);
    let mut layers = LayerReplay::new(stream.schema());
    let warm_batches = spec.warmup_rows / BATCH;
    let mut i = 0usize;
    while let Some(batch) = stream.next_batch(BATCH) {
        let tr = (i >= warm_batches).then_some(&mut traced.tracer);
        layers.step(&batch.rows(), &batch.ys, tr, i as u64);
        i += 1;
    }

    let pass = &passes[TRACED_REPEAT];
    let t = &traced.tracer;
    let p50 = |name: &str| quantile(&mut t.durations_us(name), 0.5);
    report.set("stream.load_ms", p50("stream.load") / 1e3);
    report.set("stream.batch_us", p50("stream.batch"));
    report.set(
        "models.glm_pass_ns_row",
        ns_per_row(t, "models.glm_pass", BATCH),
    );
    report.set(
        "models.glm_sgd_ns_row",
        ns_per_row(t, "models.glm_sgd", BATCH),
    );
    report.set(
        "models.glm_predict_ns_row",
        ns_per_row(t, "models.glm_predict", BATCH),
    );
    report.set("core.learn_batch_us.p50", p50("core.learn_batch"));
    report.set(
        "core.learn_batch_us.p99",
        quantile(&mut t.durations_us("core.learn_batch"), 0.99),
    );
    report.set("core.predict_batch_us.p50", p50("core.predict_batch"));
    report.set("core.node_update_us.p50", p50("core.node_update"));
    let core = &mut traced.core;
    report.set("core.structural_batches", core.structural_batches as f64);
    report.set(
        "core.learn_us.structural",
        quantile(&mut core.structural_us, 0.5),
    );
    report.set("core.learn_us.steady", quantile(&mut core.steady_us, 0.5));
    report.set("core.frozen_batches", core.frozen_batches as f64);
    report.set("core.nodes", traced.census.0);
    report.set("core.depth", traced.census.1);
    report.set("core.candidates", traced.census.2);
    report.set("core.candidate_yield", core.candidate_yield());
    report.set_idle(&["epoch.", "registry.", "serve."]);
    report.set(
        "trace.overhead.learn_inst_s",
        med(&Pass::learn_inst_s) / pass.learn_inst_s(),
    );
    report.set(
        "trace.overhead.predict_p50_us",
        pass.latency(true, 0.5) / med(&|p| p.latency(true, 0.5)),
    );
    report.spans = Some(traced.tracer);
}

/// One pass: a fresh stream and tree, the warm-up prefix, then the timed
/// test-then-train steps. `start` is when set-up began.
fn run_pass(
    spec: &Spec,
    seed: u64,
    start: Instant,
    steps: usize,
    probe: &Batch,
    mut traced: Option<&mut Traced>,
    report: &mut Report,
) -> Pass {
    let t0 = Instant::now();
    let mut stream = build_stream(spec, spec.scale, seed);
    if let Some(tr) = traced.as_deref_mut() {
        tr.tracer.record("stream.load", t0, Instant::now(), ROOT, 0);
    }
    let mut tree = DynamicModelTree::new(stream.schema().clone(), DmtConfig::default());
    let mut out = vec![0usize; BATCH];
    let mut pass = Pass {
        seed,
        learn_us: Vec::with_capacity(steps),
        predict_us: Vec::with_capacity(steps),
        ..Pass::default()
    };

    for _ in 0..spec.warmup_rows / BATCH {
        let batch = stream
            .next_batch(BATCH)
            .expect("the stream outlasts its warm-up");
        let rows = batch.rows();
        tree.predict_batch_into(&rows, &mut out[..rows.len()]);
        report.attempted += 2;
        if let Err(e) = tree.try_learn_batch(&rows, &batch.ys) {
            report.fail(format!("warm-up learn: {e}"));
        }
    }
    pass.setup_s = start.elapsed().as_secs_f64();

    let mut shape = match traced.as_deref_mut() {
        Some(tr) => shape_hash(&tree, &mut tr.order),
        None => 0,
    };
    for step in 0..steps as u64 {
        let t0 = Instant::now();
        let Some(batch) = stream.next_batch(BATCH) else {
            report.problem("the stream ended before its timed steps");
            break;
        };
        let rows = batch.rows();
        let t1 = Instant::now();
        let t2 = match traced.as_deref_mut() {
            Some(tr) => {
                tr.core.accumulations += candidate_accumulations(&tree, &rows, &mut tr.visited);
                Instant::now()
            }
            None => t1,
        };
        let out = &mut out[..rows.len()];
        tree.predict_batch_into(&rows, out);
        let t3 = Instant::now();
        let learned = tree.try_learn_batch(&rows, &batch.ys);
        let t4 = Instant::now();

        report.attempted += 2;
        if let Err(e) = learned {
            report.fail(format!("learn: {e}"));
        }
        pass.predict_us.push(us(t2, t3));
        pass.learn_us.push(us(t3, t4));
        pass.tested += rows.len() as u64;
        pass.correct += out.iter().zip(&batch.ys).filter(|(p, y)| p == y).count() as u64;
        pass.splits_sum += tree.complexity().splits;
        if let Some(tr) = traced.as_deref_mut() {
            let id = tr.tracer.record("prequential.step", t0, t4, ROOT, step);
            tr.tracer.record("stream.batch", t0, t1, id, step);
            tr.tracer.record("core.predict_batch", t2, t3, id, step);
            tr.tracer.record("core.learn_batch", t3, t4, id, step);
            let now = shape_hash(&tree, &mut tr.order);
            tr.core
                .batch(us(t3, t4), now != shape, tree.growth_frozen());
            shape = now;
        }
    }
    pass.bytes = tree.memory_bytes();
    if let Some(tr) = traced {
        tr.census = census(&tree);
    }
    check_tree(&tree, probe, report);
    pass
}

/// The final tree is a valid arena, and a snapshot round trip predicts the
/// probe rows bit-identically.
fn check_tree(tree: &DynamicModelTree, probe: &Batch, report: &mut Report) {
    if let Err(e) = tree.arena().validate(tree.root_id()) {
        report.problem(&format!("arena invalid: {e}"));
    }
    let restored = match DynamicModelTree::from_snapshot_bytes(&tree.to_snapshot_bytes()) {
        Ok(restored) => restored,
        Err(e) => return report.problem(&format!("snapshot round trip: {e}")),
    };
    let rows = probe.rows();
    let c = tree.schema().num_classes;
    let (mut a, mut b) = (vec![0.0; c], vec![0.0; c]);
    let proba_equal = rows.iter().all(|x| {
        tree.predict_proba_into(x, &mut a);
        restored.predict_proba_into(x, &mut b);
        a.iter().zip(&b).all(|(p, q)| p.to_bits() == q.to_bits())
    });
    let (mut pa, mut pb) = (vec![0; rows.len()], vec![1; rows.len()]);
    tree.predict_batch_into(&rows, &mut pa);
    restored.predict_batch_into(&rows, &mut pb);
    if !proba_equal || pa != pb {
        report.problem("the restored snapshot predicts the probe rows differently");
    }
}
