//! The serve-budget workload: the `memory-budget` file learned and served
//! through `dmt-serve` on loopback. One DMT tenant sits in a serial
//! `ModelRegistry` under a fleet byte budget, behind a server with two
//! worker threads. A learner client sends 24-row batches back to back while
//! a predictor client sends 1-row requests back to back, each a closed loop
//! on its own connection: the only client blocks, and the
//! thread-per-connection server serves as many connections as it has
//! threads. Writes run beside reads on the epoch layer: every learn runs the
//! budget ladder, then clones and publishes the tree.
//!
//! The two loops run side by side rather than taking turns: with one
//! runnable thread, the other core halts, and waking a thread on it took a
//! 1-row predict from 16 µs to 38 µs and its p99 to milliseconds.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use dmt::registry::{ModelRegistry, RegistryConfig};
use dmt::zoo::{build_zoo_model, ModelKind};
use dmt_core::epoch::EpochCell;
use dmt_core::{DmtConfig, DynamicModelTree, NodeId};
use dmt_models::OnlineClassifier;
use dmt_serve::protocol::{read_frame, write_frame, FrameRead};
use dmt_serve::{ClientError, DmtServer, Request, Response, ServeClient, ServeConfig, WireMatrix};
use dmt_stream::{workload, DataStream, StreamSchema};

use crate::layers::{
    candidate_accumulations, census, ns_per_row, shape_hash, CoreCounts, LayerReplay,
};
use crate::stats::{per_seed_mean, quantile, us};
use crate::trace::{Tracer, ROOT};
use crate::{pass_seed, Args, Report, TRACED_REPEAT};

/// Workload name on the command line.
pub const NAME: &str = "serve-budget";
const TENANT: &str = "dmt";
const DATASET: &str = "memory_budget";
/// The registry's fleet byte pool; its one tenant gets all of it.
const FLEET_BUDGET: usize = 384 * 1024;
/// Rows per learn request: 0.1 % of the file.
const LEARN_ROWS: usize = 24;
const SERVER_THREADS: usize = 2;
/// Learn requests per session: two passes over the 24k-row file.
const HISTORY: usize = 2_000;
/// Learn requests made before timing starts.
const WARMUP: usize = 250;
/// Model seeds a run cycles its sessions through. A seed moves the budgeted
/// tree's figures by 2 % at most, while the host can slow a whole session,
/// so three seeds leave each about three sessions, whose median rejects one
/// disturbed session.
const SEEDS: usize = 3;
/// Rows whose final 1-row predictions must equal the twin's.
const PROBE_ROWS: usize = 256;
/// Predicts the traced replays re-issue per epoch at most, which bounds the
/// span buffers; the learn history is replayed in full.
const REPLAY_PREDICTS_PER_EPOCH: usize = 16;
/// Room for the predictor's timing samples and spans in one session.
const PREDICT_CAPACITY: usize = 1 << 19;
/// Spans of the main thread's traced work, per timed learn: five for the
/// twin's learn and four per replayed predict, one per registry call, and
/// five for the layer replay.
const MAIN_SPANS: usize = HISTORY * (11 + 5 * REPLAY_PREDICTS_PER_EPOCH) + 16;

const PREDICT: usize = 0;
const LEARN: usize = 1;
const STATS: usize = 2;
const OPS: [&str; 3] = ["predict", "learn", "stats"];

/// Synthesise the workload file once, before any measured run.
pub fn prepare(dir: &Path) -> Result<(), String> {
    workload::ensure_dataset(dir, DATASET)
        .map(drop)
        .map_err(|e| e.to_string())
}

/// The parsed file.
struct Data {
    schema: StreamSchema,
    xs: Vec<Vec<f64>>,
    ys: Vec<usize>,
}

impl Data {
    fn load(dir: &Path) -> Result<Self, String> {
        let file = dir.join(format!("{DATASET}.csv"));
        if !file.is_file() {
            return Err(format!(
                "{} is missing: run `perfbench prepare`",
                file.display()
            ));
        }
        let mut stream = workload::build_workload("memory-budget", dir)
            .map_err(|e| e.to_string())?
            .ok_or("the memory-budget workload is unknown")?;
        let schema = stream.schema().clone();
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        while let Some(instance) = stream.next_instance() {
            xs.push(instance.x);
            ys.push(instance.y);
        }
        if xs.is_empty() || xs.len() % LEARN_ROWS != 0 {
            return Err(format!("{} rows do not split into learn batches", xs.len()));
        }
        Ok(Self { schema, xs, ys })
    }

    /// Learn batch `i` of the history: the file replayed in order.
    fn batch(&self, i: usize) -> (Vec<&[f64]>, &[usize]) {
        let lo = i * LEARN_ROWS % self.xs.len();
        let rows = self.xs[lo..lo + LEARN_ROWS]
            .iter()
            .map(Vec::as_slice)
            .collect();
        (rows, &self.ys[lo..lo + LEARN_ROWS])
    }

    /// The row of predict `k`, in the seeded order `perm`.
    fn predict_row(&self, perm: &[usize], k: usize) -> &[f64] {
        &self.xs[perm[k % perm.len()]]
    }
}

/// A seeded permutation of `0..n`: the predictor's row order.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        // SplitMix64.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    perm
}

fn registry() -> ModelRegistry {
    ModelRegistry::new(RegistryConfig {
        fleet_budget_bytes: Some(FLEET_BUDGET),
        ..RegistryConfig::default()
    })
}

fn register(registry: &ModelRegistry, data: &Data, seed: u64) -> Result<(), String> {
    let model = build_zoo_model(ModelKind::Dmt, &data.schema, seed);
    registry
        .register(TENANT, data.schema.clone(), model)
        .map_err(|e| e.to_string())
}

/// Operations attempted and failed, per opcode.
#[derive(Default)]
struct Ops {
    attempted: [u64; 3],
    failed: [u64; 3],
}

/// Count one operation; a failure is recorded with its reason.
fn account(ops: &mut Ops, problems: &mut Vec<String>, op: usize, outcome: Result<(), String>) {
    ops.attempted[op] += 1;
    if let Err(e) = outcome {
        ops.failed[op] += 1;
        if problems.len() < 8 {
            problems.push(format!("{}: {e}", OPS[op]));
        }
    }
}

/// Sets the flag when dropped.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// One server lifetime: set-up, warm-up, then the timed closed loops.
struct Session {
    /// Model seed.
    seed: u64,
    setup_s: f64,
    learn_us: Vec<f64>,
    predict_us: Vec<f64>,
    /// Predict requests answered from each epoch while timed.
    epoch_counts: Vec<usize>,
    probe: Vec<usize>,
    memory_bytes: u64,
}

impl Session {
    fn learn_inst_s(&self) -> f64 {
        (self.learn_us.len() * LEARN_ROWS) as f64 * 1e6 / self.learn_us.iter().sum::<f64>()
    }

    fn latency(&self, predict: bool, q: f64) -> f64 {
        let samples = if predict {
            &self.predict_us
        } else {
            &self.learn_us
        };
        quantile(&mut samples.clone(), q)
    }
}

/// Learn `i` must publish epoch `i + 1` after `(i + 1) × 24` rows.
fn check_learned(outcome: Result<(Option<u64>, u64), String>, i: usize) -> Result<(), String> {
    match outcome {
        Ok((Some(epoch), rows))
            if epoch == i as u64 + 1 && rows == ((i + 1) * LEARN_ROWS) as u64 =>
        {
            Ok(())
        }
        Ok(other) => Err(format!("learn {i} answered {other:?}")),
        Err(e) => Err(e),
    }
}

/// A 1-row prediction from an epoch no older than `last`; returns the epoch
/// and the class.
fn check_predicted(
    outcome: Result<(Option<u64>, Vec<u32>), ClientError>,
    last: u64,
) -> Result<(u64, usize), String> {
    match outcome {
        Ok((Some(epoch), p)) if (last..=HISTORY as u64).contains(&epoch) && p.len() == 1 => {
            Ok((epoch, p[0] as usize))
        }
        Ok(other) => Err(format!("predict after epoch {last} answered {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_session(
    args: &Args,
    seed: u64,
    perm: &[usize],
    start: Instant,
    main_trace: Option<&mut Tracer>,
    learner_trace: Option<&mut Tracer>,
    predictor_trace: Option<&mut Tracer>,
    ops: &mut Ops,
    problems: &mut Vec<String>,
) -> Result<Session, String> {
    let t0 = Instant::now();
    let data = Data::load(&args.data_dir)?;
    if let Some(tr) = main_trace {
        tr.record("stream.load", t0, Instant::now(), ROOT, 0);
    }
    let registry = Arc::new(registry());
    register(&registry, &data, seed)?;
    // The warm-up prefix goes to the registry in process: the same learns
    // the server would run, without the loopback wake-ups that made an
    // RPC warm-up swing by 2× between identical sessions.
    for i in 0..WARMUP {
        let (rows, ys) = data.batch(i);
        let outcome = registry.learn(TENANT, &rows, ys);
        let outcome = check_learned(
            outcome
                .map(|o| (o.epoch, o.observations))
                .map_err(|e| e.to_string()),
            i,
        );
        account(ops, problems, LEARN, outcome);
    }
    let config = ServeConfig {
        threads: SERVER_THREADS,
        ..ServeConfig::default()
    };
    let mut server = DmtServer::start(config, Arc::clone(&registry)).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let mut learner = ServeClient::connect(addr).map_err(|e| e.to_string())?;
    let mut predictor = ServeClient::connect(addr).map_err(|e| e.to_string())?;
    // One predict before timing, so both connections are being served.
    let outcome = predictor.predict(TENANT, &[data.predict_row(perm, 0)]);
    account(
        ops,
        problems,
        PREDICT,
        check_predicted(outcome, WARMUP as u64).map(drop),
    );
    let setup_s = start.elapsed().as_secs_f64();

    let done = AtomicBool::new(false);
    let (data, done) = (&data, &done);
    let (learner_ref, predictor_ref) = (&mut learner, &mut predictor);
    let (learned, predicted) = thread::scope(|s| {
        let learner_thread = s.spawn(move || {
            // Stops the predictor even if this thread unwinds.
            let _done = SetOnDrop(done);
            let mut tracer = learner_trace;
            let (mut ops, mut problems) = (Ops::default(), Vec::new());
            let mut latencies = Vec::with_capacity(HISTORY - WARMUP);
            for i in WARMUP..HISTORY {
                let t0 = Instant::now();
                let (rows, ys) = data.batch(i);
                let t1 = Instant::now();
                let outcome = learner_ref.learn(TENANT, &rows, ys);
                let t2 = Instant::now();
                latencies.push(us(t1, t2));
                let outcome = check_learned(outcome.map_err(|e| e.to_string()), i);
                account(&mut ops, &mut problems, LEARN, outcome);
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.record("stream.batch", t0, t1, ROOT, i as u64);
                    tr.record("rpc.learn", t1, t2, ROOT, i as u64);
                }
            }
            (latencies, ops, problems)
        });
        let predictor_thread = s.spawn(move || {
            let mut tracer = predictor_trace;
            let (mut ops, mut problems) = (Ops::default(), Vec::new());
            let mut latencies = Vec::with_capacity(PREDICT_CAPACITY);
            let mut counts = vec![0; HISTORY + 1];
            let mut last = WARMUP as u64;
            let mut k = 0;
            while !done.load(Ordering::Acquire) {
                let x = data.predict_row(perm, k);
                let t0 = Instant::now();
                let outcome = predictor_ref.predict(TENANT, &[x]);
                let t1 = Instant::now();
                latencies.push(us(t0, t1));
                let outcome = check_predicted(outcome, last).map(|(epoch, _)| {
                    counts[epoch as usize] += 1;
                    last = epoch;
                });
                account(&mut ops, &mut problems, PREDICT, outcome);
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.record("rpc.predict", t0, t1, ROOT, k as u64);
                }
                k += 1;
            }
            (latencies, counts, ops, problems)
        });
        (learner_thread.join(), predictor_thread.join())
    });
    let (learn_us, learn_ops, learn_problems) = learned.map_err(|_| "the learner panicked")?;
    let (predict_us, epoch_counts, predict_ops, predict_problems) =
        predicted.map_err(|_| "the predictor panicked")?;
    for op in 0..OPS.len() {
        ops.attempted[op] += learn_ops.attempted[op] + predict_ops.attempted[op];
        ops.failed[op] += learn_ops.failed[op] + predict_ops.failed[op];
    }
    problems.extend(learn_problems);
    problems.extend(predict_problems);

    let mut probe = Vec::with_capacity(PROBE_ROWS);
    for &row in &perm[..PROBE_ROWS] {
        let outcome = predictor.predict(TENANT, &[data.xs[row].as_slice()]);
        let outcome = check_predicted(outcome, HISTORY as u64).map(|(_, p)| probe.push(p));
        account(ops, problems, PREDICT, outcome);
    }
    let mut memory_bytes = 0;
    let outcome = match learner.stats(TENANT) {
        Ok(s) if s.epoch == HISTORY as u64 && s.observations == (HISTORY * LEARN_ROWS) as u64 => {
            memory_bytes = s.memory_bytes;
            Ok(())
        }
        Ok(s) => Err(format!("stats after the history answered {s:?}")),
        Err(e) => Err(e.to_string()),
    };
    account(ops, problems, STATS, outcome);
    drop(learner);
    drop(predictor);
    server.shutdown();
    Ok(Session {
        seed,
        setup_s,
        learn_us,
        predict_us,
        epoch_counts,
        probe,
        memory_bytes,
    })
}

/// The writer's history replayed in process by a learn-only twin tree that
/// publishes its clones through a local `EpochCell`, as the registry does.
/// Its test-then-train accuracy, splits and predict throughput are the
/// workload's in-process figures, and its final clone must predict the probe
/// rows as the server did.
#[derive(Default)]
struct Twin {
    /// Model seed.
    seed: u64,
    correct: u64,
    tested: u64,
    /// Time inside the test half's `predict_batch_into` calls.
    predict_us: f64,
    splits_sum: f64,
    bytes: usize,
    probe: Vec<usize>,
    census: (f64, f64, f64),
    core: CoreCounts,
    epoch_bytes: Vec<f64>,
    frame_bytes: [usize; 2],
}

/// Encode `request` and `response` into sealed frames and decode them back,
/// as client and server do; returns the frame bytes moved.
fn codec_round_trip(
    request: &Request,
    response: &Response,
    buf: &mut Vec<u8>,
) -> Result<usize, String> {
    buf.clear();
    write_frame(buf, &request.encode()).map_err(|e| e.to_string())?;
    let sent = buf.len();
    let decoded = match read_frame(&mut buf.as_slice()) {
        Ok(FrameRead::Payload(p)) => Request::decode(&p).map_err(|e| e.to_string())?,
        _ => return Err("request frame did not decode".into()),
    };
    if let Request::Learn {
        features, labels, ..
    } = &decoded
    {
        std::hint::black_box((
            features.as_rows(),
            labels.iter().map(|&y| y as usize).collect::<Vec<_>>(),
        ));
    }
    buf.clear();
    write_frame(buf, &response.encode()).map_err(|e| e.to_string())?;
    let received = buf.len();
    match read_frame(&mut buf.as_slice()) {
        Ok(FrameRead::Payload(p)) => {
            std::hint::black_box(Response::decode(&p).map_err(|e| e.to_string())?)
        }
        _ => return Err("response frame did not decode".into()),
    };
    Ok(sent + received)
}

/// With `tracer`, the replay records spans and re-issues the predicts each
/// epoch answered in `epoch_counts`, up to [`REPLAY_PREDICTS_PER_EPOCH`].
fn replay_twin(
    data: &Data,
    seed: u64,
    perm: &[usize],
    mut tracer: Option<(&mut Tracer, &[usize])>,
) -> Result<Twin, String> {
    let mut twin = DynamicModelTree::new(
        data.schema.clone(),
        DmtConfig {
            seed,
            memory_budget_bytes: Some(FLEET_BUDGET),
            ..DmtConfig::default()
        },
    );
    let cell = EpochCell::new(twin.clone());
    let mut out = TwinScratch::default();
    let mut result = Twin {
        seed,
        ..Twin::default()
    };
    let mut shape = shape_hash(&twin, &mut out.order);
    let mut k = 0;
    for i in 0..=HISTORY {
        if let Some((tr, epoch_counts)) = tracer.as_mut() {
            for _ in 0..epoch_counts[i].min(REPLAY_PREDICTS_PER_EPOCH) {
                let x = data.predict_row(perm, k);
                let t0 = Instant::now();
                let pinned = cell.pin();
                let t1 = Instant::now();
                pinned.predict_batch_into(&[x], &mut out.one);
                let t2 = Instant::now();
                let request = Request::Predict {
                    tenant: TENANT.to_string(),
                    features: WireMatrix::from_rows(&[x]),
                };
                let response = Response::Predictions {
                    epoch: Some(pinned.seq()),
                    predictions: vec![out.one[0] as u32],
                };
                result.frame_bytes[PREDICT] =
                    codec_round_trip(&request, &response, &mut out.frame)?;
                let t3 = Instant::now();
                drop(pinned);
                let id = tr.record("replay.predict", t0, t3, ROOT, k as u64);
                tr.record("epoch.pin", t0, t1, id, k as u64);
                tr.record("core.predict_batch", t1, t2, id, k as u64);
                tr.record("serve.codec.predict", t2, t3, id, k as u64);
                k += 1;
            }
        }
        if i == HISTORY {
            break;
        }
        let (rows, ys) = data.batch(i);
        let timed = i >= WARMUP;
        if timed {
            // The test half of test-then-train, on the epoch a reader sees.
            let pinned = cell.pin();
            let t0 = Instant::now();
            pinned.predict_batch_into(&rows, &mut out.batch);
            result.predict_us += us(t0, Instant::now());
            result.tested += rows.len() as u64;
            result.correct += out.batch.iter().zip(ys).filter(|(p, y)| p == y).count() as u64;
        }
        let traced = timed && tracer.is_some();
        if traced {
            result.core.accumulations += candidate_accumulations(&twin, &rows, &mut out.visited);
        }
        let t0 = Instant::now();
        twin.try_learn_batch(&rows, ys)
            .map_err(|e| format!("twin learn {i}: {e}"))?;
        let t1 = Instant::now();
        let snapshot = twin.clone();
        let t2 = Instant::now();
        if traced {
            result.epoch_bytes.push(snapshot.memory_bytes() as f64);
        }
        let t3 = Instant::now();
        let epoch = cell.publish(snapshot);
        let t4 = Instant::now();
        if !timed {
            continue;
        }
        result.splits_sum += twin.complexity().splits;
        let Some((tr, _)) = tracer.as_mut() else {
            continue;
        };
        let request = Request::Learn {
            tenant: TENANT.to_string(),
            features: WireMatrix::from_rows(&rows),
            labels: ys.iter().map(|&y| y as u32).collect(),
        };
        let response = Response::Learned {
            epoch: Some(epoch),
            observations: twin.observations(),
        };
        let t5 = Instant::now();
        result.frame_bytes[LEARN] = codec_round_trip(&request, &response, &mut out.frame)?;
        let t6 = Instant::now();
        let id = tr.record("replay.learn", t0, t6, ROOT, i as u64);
        tr.record("core.learn_batch", t0, t1, id, i as u64);
        tr.record("epoch.clone", t1, t2, id, i as u64);
        tr.record("epoch.publish", t3, t4, id, i as u64);
        tr.record("serve.codec.learn", t5, t6, id, i as u64);
        let now = shape_hash(&twin, &mut out.order);
        result
            .core
            .batch(us(t0, t1), now != shape, twin.growth_frozen());
        shape = now;
    }
    for &row in &perm[..PROBE_ROWS] {
        cell.pin()
            .predict_batch_into(&[data.xs[row].as_slice()], &mut out.one);
        result.probe.push(out.one[0]);
    }
    twin.arena()
        .validate(twin.root_id())
        .map_err(|e| format!("twin arena invalid: {e}"))?;
    result.bytes = twin.memory_bytes();
    result.census = census(&twin);
    Ok(result)
}

struct TwinScratch {
    one: [usize; 1],
    batch: Vec<usize>,
    frame: Vec<u8>,
    order: Vec<NodeId>,
    visited: Vec<bool>,
}

impl Default for TwinScratch {
    fn default() -> Self {
        Self {
            one: [0],
            batch: vec![0; LEARN_ROWS],
            frame: Vec::new(),
            order: Vec::new(),
            visited: Vec::new(),
        }
    }
}

/// The session's op sequence replayed through an in-process registry, with
/// the predicts each epoch answered in `epoch_counts` re-issued up to
/// [`REPLAY_PREDICTS_PER_EPOCH`].
fn replay_registry(
    data: &Data,
    seed: u64,
    perm: &[usize],
    epoch_counts: &[usize],
    tracer: &mut Tracer,
) -> Result<(), String> {
    let registry = registry();
    register(&registry, data, seed)?;
    let mut k = 0;
    for (i, &count) in epoch_counts.iter().enumerate() {
        for _ in 0..count.min(REPLAY_PREDICTS_PER_EPOCH) {
            let x = data.predict_row(perm, k);
            let t0 = Instant::now();
            let outcome = registry.predict(TENANT, &[x]);
            let t1 = Instant::now();
            outcome.map_err(|e| e.to_string())?;
            tracer.record("registry.predict", t0, t1, ROOT, k as u64);
            k += 1;
        }
        if i == HISTORY {
            break;
        }
        let (rows, ys) = data.batch(i);
        let t0 = Instant::now();
        let outcome = registry.learn(TENANT, &rows, ys);
        let t1 = Instant::now();
        outcome.map_err(|e| e.to_string())?;
        if i >= WARMUP {
            tracer.record("registry.learn", t0, t1, ROOT, i as u64);
        }
    }
    Ok(())
}

/// Run the workload for `args.seconds` (at least [`SEEDS`] sessions)
/// and fill `report`.
pub fn run(args: &Args, origin: Instant, report: &mut Report) {
    let data = match Data::load(&args.data_dir) {
        Ok(data) => data,
        Err(e) => return report.problem(&e),
    };
    let perm = permutation(data.xs.len(), args.seed);
    let mut traces = args.trace.then(|| {
        (
            Tracer::new(origin, MAIN_SPANS),
            Tracer::new(origin, 2 * HISTORY),
            Tracer::new(origin, PREDICT_CAPACITY),
        )
    });
    let mut sessions: Vec<Session> = Vec::new();
    let mut twins: Vec<Twin> = Vec::new();
    let mut ops = Ops::default();
    let mut start = origin;
    loop {
        let i = sessions.len();
        let seed = pass_seed(args.seed, i, SEEDS, args.trace);
        let (main, learner, predictor) = match traces.as_mut() {
            Some((m, l, p)) if i == TRACED_REPEAT => (Some(m), Some(l), Some(p)),
            _ => (None, None, None),
        };
        let session = match run_session(
            args,
            seed,
            &perm,
            start,
            main,
            learner,
            predictor,
            &mut ops,
            &mut report.problems,
        ) {
            Ok(session) => session,
            Err(e) => return report.fail(e),
        };
        // The first session of each seed gets its twin here, inside the
        // run's time; later sessions of that seed reuse it.
        if !twins.iter().any(|t| t.seed == seed) {
            match replay_twin(&data, seed, &perm, None) {
                Ok(twin) => twins.push(twin),
                Err(e) => return report.problem(&e),
            }
        }
        let twin = twins
            .iter()
            .find(|t| t.seed == seed)
            .expect("replayed above");
        if session.probe != twin.probe {
            report.problem("the server's final predictions differ from the twin's");
        }
        if session.memory_bytes != twin.bytes as u64 {
            report.problem(&format!(
                "the writer holds {} bytes, the twin {}",
                session.memory_bytes, twin.bytes
            ));
        }
        sessions.push(session);
        if sessions.len() >= SEEDS && origin.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        start = Instant::now();
    }
    report.attempted += ops.attempted.iter().sum::<u64>();
    report.failed += ops.failed.iter().sum::<u64>();

    let untraced: Vec<&Session> = sessions
        .iter()
        .enumerate()
        .filter(|&(i, _)| !(args.trace && i == TRACED_REPEAT))
        .map(|(_, s)| s)
        .collect();
    let med = |f: &dyn Fn(&Session) -> f64| {
        per_seed_mean(&untraced.iter().map(|s| (s.seed, f(s))).collect::<Vec<_>>())
    };
    let Some((mut main, learner, predictor)) = traces else {
        let sum = |f: &dyn Fn(&Twin) -> f64| twins.iter().map(f).sum::<f64>();
        let timed_learns = (twins.len() * (HISTORY - WARMUP)) as f64;
        report.set("learn_inst_s", med(&Session::learn_inst_s));
        report.set(
            "predict_inst_s",
            sum(&|t| t.tested as f64) * 1e6 / sum(&|t| t.predict_us),
        );
        report.set(
            "accuracy",
            sum(&|t| t.correct as f64) / sum(&|t| t.tested as f64),
        );
        report.set("splits", sum(&|t| t.splits_sum) / timed_learns);
        report.set(
            "bytes_resident",
            sum(&|t| t.bytes as f64) / twins.len() as f64,
        );
        report.set("setup_s", med(&|s| s.setup_s));
        report.set("predict_p50_us", med(&|s| s.latency(true, 0.5)));
        report.set("predict_p99_us", med(&|s| s.latency(true, 0.99)));
        report.set("learn_p50_us", med(&|s| s.latency(false, 0.5)));
        report.set("learn_p95_us", med(&|s| s.latency(false, 0.95)));
        return;
    };

    // The traced session's ops once more, one layer down: through a twin
    // that records its spans, and through an in-process registry.
    let traced_session = &sessions[TRACED_REPEAT];
    let (seed, counts) = (traced_session.seed, &traced_session.epoch_counts);
    let mut twin = match replay_twin(&data, seed, &perm, Some((&mut main, counts))) {
        Ok(twin) => twin,
        Err(e) => return report.problem(&e),
    };
    if let Err(e) = replay_registry(&data, seed, &perm, counts, &mut main) {
        return report.problem(&e);
    }
    let mut layers = LayerReplay::new(&data.schema);
    for i in 0..HISTORY {
        let (rows, ys) = data.batch(i);
        layers.step(&rows, ys, (i >= WARMUP).then_some(&mut main), i as u64);
    }
    main.absorb(learner);
    main.absorb(predictor);

    let t = &main;
    let p50 = |name: &str| quantile(&mut t.durations_us(name), 0.5);
    report.set("stream.load_ms", p50("stream.load") / 1e3);
    report.set("stream.batch_us", p50("stream.batch"));
    report.set(
        "models.glm_pass_ns_row",
        ns_per_row(t, "models.glm_pass", LEARN_ROWS),
    );
    report.set(
        "models.glm_sgd_ns_row",
        ns_per_row(t, "models.glm_sgd", LEARN_ROWS),
    );
    report.set(
        "models.glm_predict_ns_row",
        ns_per_row(t, "models.glm_predict", LEARN_ROWS),
    );
    report.set("core.learn_batch_us.p50", p50("core.learn_batch"));
    report.set(
        "core.learn_batch_us.p99",
        quantile(&mut t.durations_us("core.learn_batch"), 0.99),
    );
    report.set("core.predict_batch_us.p50", p50("core.predict_batch"));
    report.set("core.node_update_us.p50", p50("core.node_update"));
    let core = &mut twin.core;
    report.set("core.structural_batches", core.structural_batches as f64);
    report.set(
        "core.learn_us.structural",
        quantile(&mut core.structural_us, 0.5),
    );
    report.set("core.learn_us.steady", quantile(&mut core.steady_us, 0.5));
    report.set("core.frozen_batches", core.frozen_batches as f64);
    report.set("core.nodes", twin.census.0);
    report.set("core.depth", twin.census.1);
    report.set("core.candidates", twin.census.2);
    report.set("core.candidate_yield", core.candidate_yield());
    report.set("epoch.clone_us.p50", p50("epoch.clone"));
    report.set("epoch.publish_us.p50", p50("epoch.publish"));
    report.set("epoch.bytes", quantile(&mut twin.epoch_bytes, 0.5));
    report.set("epoch.pin_ns.p50", p50("epoch.pin") * 1e3);
    let registry_learn = p50("registry.learn");
    let registry_predict = p50("registry.predict");
    report.set("registry.learn_us.p50", registry_learn);
    report.set("registry.predict_us.p50", registry_predict);
    let codec_predict = p50("serve.codec.predict");
    let codec_learn = p50("serve.codec.learn");
    report.set("serve.codec_us.predict", codec_predict);
    report.set("serve.codec_us.learn", codec_learn);
    report.set(
        "serve.transport_us.predict",
        p50("rpc.predict") - registry_predict - codec_predict,
    );
    report.set(
        "serve.transport_us.learn",
        p50("rpc.learn") - registry_learn - codec_learn,
    );
    report.set(
        "serve.frame_bytes.predict",
        twin.frame_bytes[PREDICT] as f64,
    );
    report.set("serve.frame_bytes.learn", twin.frame_bytes[LEARN] as f64);
    for (op, name) in OPS.iter().enumerate() {
        report.set(&format!("serve.ops.{name}"), ops.attempted[op] as f64);
        report.set(&format!("serve.failed.{name}"), ops.failed[op] as f64);
    }
    report.set(
        "trace.overhead.learn_inst_s",
        med(&Session::learn_inst_s) / traced_session.learn_inst_s(),
    );
    report.set(
        "trace.overhead.predict_p50_us",
        traced_session.latency(true, 0.5) / med(&|s| s.latency(true, 0.5)),
    );
    report.spans = Some(main);
}
