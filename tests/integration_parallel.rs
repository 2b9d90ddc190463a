//! Parallel contracts: with `Parallelism::Threads(n)` the pooled call sites
//! — bagging and ARF ensemble member training — must be **bit-identical** to
//! their serial member loop for every worker count and batch size, also when
//! several ensembles share one pool. The matrix pins workers 1/2/4 × batch
//! sizes 1/7/64 on a deterministic step-plus-drift stream with label noise
//! that makes the members' drift detectors fire.
//!
//! The Dynamic Model Tree has no thread of its own, but its `&self`
//! prediction is shared by concurrent readers (the serving plane's epoch
//! readers), so concurrent predictions on one tree are pinned here too.

use std::sync::Arc;

use dmt::core::{DmtConfig, DynamicModelTree};
use dmt::ensembles::{
    AdaptiveRandomForest, ArfConfig, LeveragingBagging, LeveragingBaggingConfig, Parallelism,
    WorkerPool,
};
use dmt::models::OnlineClassifier;
use dmt::stream::schema::StreamSchema;

/// The pinned batch sizes: the scalar edge case, a non-multiple of the
/// 8-lane kernel width, and a full window multiple.
const PINNED_BATCH_SIZES: [usize; 3] = [1, 7, 64];

/// The pinned worker counts: serial-equivalent, the CI configuration, and an
/// oversubscribed pool (more workers than cores on most CI machines).
const PINNED_WORKERS: [usize; 3] = [1, 2, 4];

/// A deterministic step-plus-drift stream over `m = 2` features: phase 0 is
/// a hard step on feature 0, phase 1 flips the step and phase 2 is a
/// constant concept.
fn step_batch(round: usize, phase: usize, n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let t = ((i * 7 + round * 13) % 101) as f64 / 101.0;
            let u = ((i * 31 + round * 3) % 67) as f64 / 67.0;
            vec![t, u]
        })
        .collect();
    let ys: Vec<usize> = xs
        .iter()
        .map(|x| match phase {
            0 => usize::from(x[0] > 0.75),
            1 => usize::from(x[0] <= 0.4),
            _ => 1,
        })
        .collect();
    (xs, ys)
}

fn eager_config() -> DmtConfig {
    // The eager configuration (no AIC threshold) restructures aggressively,
    // so the tree has grown splits before it is probed.
    DmtConfig {
        use_aic_threshold: false,
        min_observations_split: 40,
        ..DmtConfig::default()
    }
}

#[test]
fn concurrent_shared_tree_predictions_are_safe_and_identical() {
    // Concurrent `&self` prediction on one tree must neither panic nor
    // diverge: prediction only reads the tree, with no shared buffer to
    // contend on. Four threads predict the same batches simultaneously; all
    // must match the single-threaded answer bit-for-bit.
    let schema = StreamSchema::numeric("concurrent-predict", 2, 2);
    let mut tree = DynamicModelTree::new(schema, eager_config());
    for round in 0..150 {
        let (xs, ys) = step_batch(round, round / 75, 64);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        tree.learn_batch(&rows, &ys);
    }
    let (xs, _) = step_batch(4_242, 1, 512);
    let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
    let mut expected = vec![0usize; rows.len()];
    tree.predict_batch_into(&rows, &mut expected);

    let tree = &tree;
    let rows = &rows;
    let expected = &expected;
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(move || {
                for _ in 0..20 {
                    let mut out = vec![0usize; rows.len()];
                    tree.predict_batch_into(rows, &mut out);
                    assert_eq!(&out, expected, "concurrent prediction diverged");
                }
            });
        }
    });
}

/// A concept stream for the ensemble pins: two phases with flipped labels
/// plus label noise, so the members' ADWIN detectors accumulate error and
/// (with the loosened deltas below) actually fire mid-run.
fn ensemble_batch(round: usize, phase: usize, n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let (xs, mut ys) = step_batch(round, phase, n);
    for (i, y) in ys.iter_mut().enumerate() {
        if (i * 13 + round * 7).is_multiple_of(11) {
            *y = 1 - *y;
        }
    }
    (xs, ys)
}

#[test]
fn pooled_bagging_is_bit_identical_to_serial() {
    for &workers in &PINNED_WORKERS {
        for &batch_size in &PINNED_BATCH_SIZES {
            let schema = StreamSchema::numeric("pooled-bagging", 2, 2);
            let config = |parallelism| LeveragingBaggingConfig {
                adwin_delta: 0.4, // loosened so member replacement fires
                parallelism,
                ..LeveragingBaggingConfig::default()
            };
            let mut pooled =
                LeveragingBagging::new(schema.clone(), config(Parallelism::Threads(workers)));
            let mut serial = LeveragingBagging::new(schema, config(Parallelism::Serial));
            let rounds = (2_000 / batch_size).max(60);
            for round in 0..2 * rounds {
                let (xs, ys) = ensemble_batch(round, round / rounds, batch_size);
                let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
                pooled.learn_batch(&rows, &ys);
                serial.learn_batch(&rows, &ys);
            }
            assert_ensembles_bit_identical(&pooled, &serial, workers, batch_size);
        }
    }
}

#[test]
fn pooled_arf_is_bit_identical_to_serial() {
    for &workers in &PINNED_WORKERS {
        for &batch_size in &PINNED_BATCH_SIZES {
            let schema = StreamSchema::numeric("pooled-arf", 2, 2);
            let config = |parallelism| ArfConfig {
                warning_delta: 0.3, // loosened so background trees + resets fire
                drift_delta: 0.2,
                parallelism,
                ..ArfConfig::default()
            };
            let mut pooled =
                AdaptiveRandomForest::new(schema.clone(), config(Parallelism::Threads(workers)));
            let mut serial = AdaptiveRandomForest::new(schema, config(Parallelism::Serial));
            let rounds = (2_000 / batch_size).max(60);
            for round in 0..2 * rounds {
                let (xs, ys) = ensemble_batch(round, round / rounds, batch_size);
                let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
                pooled.learn_batch(&rows, &ys);
                serial.learn_batch(&rows, &ys);
            }
            assert_ensembles_bit_identical(&pooled, &serial, workers, batch_size);
        }
    }
}

/// Assert two trained ensembles are observably bit-identical: identical
/// complexity (member structure) and bit-identical vote distributions on a
/// probe sweep covering both concept phases.
fn assert_ensembles_bit_identical<M: OnlineClassifier>(
    a: &M,
    b: &M,
    workers: usize,
    batch_size: usize,
) {
    let (ca, cb) = (a.complexity(), b.complexity());
    assert_eq!(
        ca.splits.to_bits(),
        cb.splits.to_bits(),
        "workers {workers}, batch {batch_size}: member structures diverged"
    );
    assert_eq!(ca.parameters.to_bits(), cb.parameters.to_bits());
    for round in 0..4 {
        let (xs, _) = ensemble_batch(9_000 + round, round % 2, 32);
        for x in &xs {
            let (pa, pb) = (a.predict_proba(x), b.predict_proba(x));
            for (va, vb) in pa.iter().zip(pb.iter()) {
                assert_eq!(
                    va.to_bits(),
                    vb.to_bits(),
                    "workers {workers}, batch {batch_size}: votes diverged"
                );
            }
        }
    }
}

#[test]
fn models_share_one_worker_pool() {
    // One pool's resident threads serve both ensembles; results stay
    // bit-identical to serial runs.
    let schema = StreamSchema::numeric("shared-pool", 2, 2);
    let pool = Arc::new(WorkerPool::new(2));

    let bagging_config = |parallelism| LeveragingBaggingConfig {
        adwin_delta: 0.4,
        parallelism,
        ..LeveragingBaggingConfig::default()
    };
    let mut shared =
        LeveragingBagging::new(schema.clone(), bagging_config(Parallelism::Threads(2)));
    shared.set_worker_pool(Arc::clone(&pool));
    let mut serial = LeveragingBagging::new(schema.clone(), bagging_config(Parallelism::Serial));

    let arf_config = |parallelism| ArfConfig {
        parallelism,
        ..ArfConfig::default()
    };
    let mut shared_arf =
        AdaptiveRandomForest::new(schema.clone(), arf_config(Parallelism::Threads(2)));
    shared_arf.set_worker_pool(Arc::clone(&pool));
    let mut serial_arf = AdaptiveRandomForest::new(schema, arf_config(Parallelism::Serial));

    for round in 0..120 {
        let (xs, ys) = ensemble_batch(round, round / 60, 32);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        shared.learn_batch(&rows, &ys);
        serial.learn_batch(&rows, &ys);
        shared_arf.learn_batch(&rows, &ys);
        serial_arf.learn_batch(&rows, &ys);
    }
    assert!(Arc::ptr_eq(
        shared.worker_pool().expect("pool was injected"),
        &pool
    ));
    assert!(Arc::ptr_eq(
        shared_arf.worker_pool().expect("pool was injected"),
        &pool
    ));
    assert_ensembles_bit_identical(&shared, &serial, 2, 32);
    assert_ensembles_bit_identical(&shared_arf, &serial_arf, 2, 32);
}

#[test]
fn parallelism_parse_covers_the_env_edge_cases() {
    // The satellite contract for `DMT_PARALLELISM`: unset, empty, zero, one,
    // garbage and huge values must all resolve safely (the parser is pure —
    // mutating the process environment would race other tests).
    assert_eq!(Parallelism::parse(None), Parallelism::Serial);
    assert_eq!(Parallelism::parse(Some("")), Parallelism::Serial);
    assert_eq!(Parallelism::parse(Some("  ")), Parallelism::Serial);
    assert_eq!(Parallelism::parse(Some("0")), Parallelism::Serial);
    assert_eq!(Parallelism::parse(Some("1")), Parallelism::Serial);
    assert_eq!(Parallelism::parse(Some("serial")), Parallelism::Serial);
    assert_eq!(Parallelism::parse(Some("two")), Parallelism::Serial);
    assert_eq!(Parallelism::parse(Some("-2")), Parallelism::Serial);
    assert_eq!(Parallelism::parse(Some("3.5")), Parallelism::Serial);
    assert_eq!(Parallelism::parse(Some("2")), Parallelism::Threads(2));
    assert_eq!(Parallelism::parse(Some(" 8 ")), Parallelism::Threads(8));
    // Larger than usize: unparsable → serial, never a panic.
    assert_eq!(
        Parallelism::parse(Some("99999999999999999999999999")),
        Parallelism::Serial
    );
    // Huge but parsable: accepted, then clamped when resolved, so a stray
    // env value can never demand an absurd number of threads.
    let huge = Parallelism::parse(Some("1000000"));
    assert_eq!(huge, Parallelism::Threads(1_000_000));
    assert_eq!(huge.workers(), dmt::ensembles::MAX_WORKERS);
}
