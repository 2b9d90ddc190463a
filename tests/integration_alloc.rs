//! Enforces the allocation contract of the Dynamic Model Tree hot path: in
//! steady state (scratch buffers at their high-water mark, tree structure
//! stable), `learn_batch` performs no *per-instance* heap allocations — the
//! allocation count per batch is independent of the batch size — and
//! `predict_batch` allocates only its result vector.
//!
//! A counting global allocator makes this measurable. All measurements live
//! in a single `#[test]` so parallel test threads cannot pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dmt::prelude::*;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to the system allocator; the counter is a
// side-effect-free atomic increment.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A deterministic, pre-materialised batch (built outside the measured
/// region) with a step-plus-plane concept that keeps the tree small.
fn make_batch(n: usize, offset: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let t = ((i + offset) % 997) as f64 / 997.0;
            let u = ((i * 31 + offset * 7) % 613) as f64 / 613.0;
            vec![t, u, (t + u) / 2.0]
        })
        .collect();
    let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] + x[1] > 1.0)).collect();
    (xs, ys)
}

/// A deterministic batch of a striped concept — the label flips across
/// four bands of the first feature and two of the second — that no single
/// linear model fits, so the tree settles at depth ≥ 3 and every batch
/// routes through inner nodes that split their presorted rows.
fn make_deep_batch(n: usize, offset: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let t = ((i + offset) % 991) as f64 / 991.0;
            let u = ((i * 37 + offset * 11) % 617) as f64 / 617.0;
            vec![t, u, (t * 3.0 + u) % 1.0]
        })
        .collect();
    let ys: Vec<usize> = xs
        .iter()
        .map(|x| ((x[0] * 4.0) as usize + usize::from(x[1] > 0.5)) % 2)
        .collect();
    (xs, ys)
}

#[test]
fn steady_state_hot_path_is_allocation_free_per_instance() {
    // Both SGD traversals share the gather + batched-kernel plumbing; the
    // contract must hold for the batched default and the deterministic
    // reference alike. All measurements run inside this single #[test] —
    // concurrent test threads would pollute the global counter.
    for mode in [
        dmt::models::BatchMode::default(),
        dmt::models::BatchMode::Deterministic,
    ] {
        steady_state_measurement(mode);
    }
    deep_tree_measurement();
    parallel_learn_measurement();
    pooled_predict_measurement();
    ensemble_prediction_measurement();
    pooled_ensemble_learn_measurement();
}

/// The pooled learn path (`Parallelism::Threads(2)`) adds per-batch costs —
/// the pool dispatch hand-shake, the task queue, subtree detach/attach — but
/// nothing per *instance*: the allocation count per batch must stay
/// independent of the batch size, exactly like the serial contract. (The
/// pool's threads are spawned once, on the first parallel batch, not per
/// batch.)
fn parallel_learn_measurement() {
    use dmt::core::Parallelism;
    let schema = StreamSchema::numeric("alloc-par", 3, 2);
    let config = DmtConfig {
        parallelism: Parallelism::Threads(2),
        ..DmtConfig::default()
    };
    let mut tree = DynamicModelTree::new(schema, config);

    let (small_xs, small_ys) = make_batch(100, 0);
    let small_rows: Vec<&[f64]> = small_xs.iter().map(|v| v.as_slice()).collect();
    let (large_xs, large_ys) = make_batch(800, 0);
    let large_rows: Vec<&[f64]> = large_xs.iter().map(|v| v.as_slice()).collect();

    for round in 0..200 {
        let (xs, ys) = make_batch(800, round * 800);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        tree.learn_batch(&rows, &ys);
    }
    let structure_before = (tree.num_inner_nodes(), tree.num_leaves());

    const ROUNDS: u64 = 50;
    let before_small = allocations();
    for _ in 0..ROUNDS {
        tree.learn_batch(&small_rows, &small_ys);
    }
    let small_allocs = allocations() - before_small;

    let before_large = allocations();
    for _ in 0..ROUNDS {
        tree.learn_batch(&large_rows, &large_ys);
    }
    let large_allocs = allocations() - before_large;

    assert_eq!(
        structure_before,
        (tree.num_inner_nodes(), tree.num_leaves()),
        "tree restructured during the parallel measurement; lengthen the warm-up"
    );
    // 8× the instances must not mean more allocations: pool dispatch
    // bookkeeping is per batch, never per instance.
    assert!(
        large_allocs < small_allocs + ROUNDS * 100,
        "parallel learn_batch allocations scale with the batch size: \
         {small_allocs} allocs for {ROUNDS}×100 instances vs \
         {large_allocs} allocs for {ROUNDS}×800 instances"
    );
}

/// The pool-chunked predict path: with the parallel threshold forced to 1,
/// every `predict_batch_into` call fans contiguous row chunks out over the
/// pool. Dispatch bookkeeping (items/queue/result vectors) is a small
/// constant per call; the per-chunk scratches come from the tree's warmed
/// scratch pool — so the allocation count per call must stay independent of
/// the batch size.
fn pooled_predict_measurement() {
    use dmt::core::Parallelism;
    let schema = StreamSchema::numeric("alloc-ppredict", 3, 2);
    let config = DmtConfig {
        parallelism: Parallelism::Threads(2),
        predict_parallel_threshold: 1,
        ..DmtConfig::default()
    };
    let mut tree = DynamicModelTree::new(schema, config);

    let (small_xs, _) = make_batch(100, 3);
    let small_rows: Vec<&[f64]> = small_xs.iter().map(|v| v.as_slice()).collect();
    let (large_xs, _) = make_batch(800, 3);
    let large_rows: Vec<&[f64]> = large_xs.iter().map(|v| v.as_slice()).collect();

    for round in 0..60 {
        let (xs, ys) = make_batch(800, round * 800);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        tree.learn_batch(&rows, &ys);
    }
    let mut out = vec![0usize; large_rows.len()];
    // Warm the scratch pool up to the pool's concurrency (several pooled
    // predicts, so every executor has checked a scratch in and out at the
    // large-batch high-water mark).
    for _ in 0..8 {
        tree.predict_batch_into(&large_rows, &mut out);
        tree.predict_batch_into(&small_rows, &mut out[..small_rows.len()]);
    }

    const CALLS: u64 = 20;
    let before_small = allocations();
    for _ in 0..CALLS {
        tree.predict_batch_into(&small_rows, &mut out[..small_rows.len()]);
    }
    let small_allocs = allocations() - before_small;

    let before_large = allocations();
    for _ in 0..CALLS {
        tree.predict_batch_into(&large_rows, &mut out);
    }
    let large_allocs = allocations() - before_large;

    // 8× the rows must not mean more allocations — only the constant
    // dispatch bookkeeping per call (plus scratch-pool jitter when an
    // executor's first checkout of the measurement happens on a late-waking
    // thread).
    assert!(
        large_allocs <= small_allocs + CALLS * 4,
        "pooled predict_batch_into allocations scale with the batch size: \
         {small_allocs} allocs for {CALLS}×100 rows vs \
         {large_allocs} allocs for {CALLS}×800 rows"
    );
    // And the absolute per-call cost stays a small constant.
    assert!(
        large_allocs <= CALLS * 16,
        "unexpectedly many allocations per pooled predict call: {}",
        large_allocs as f64 / CALLS as f64
    );
}

/// Pooled ensemble member training adds only the per-batch dispatch
/// bookkeeping on top of the serial member-major loop: member work is
/// bit-identical (same trees, same RNG streams), so the allocation counts may
/// differ per *batch* (queue/result vectors) but never per instance or per
/// member beyond what the serial path does.
fn pooled_ensemble_learn_measurement() {
    use dmt::core::Parallelism;
    use dmt::ensembles::{
        AdaptiveRandomForest, ArfConfig, LeveragingBagging, LeveragingBaggingConfig,
    };

    let schema = StreamSchema::numeric("alloc-pens", 3, 2);
    let serial_config = LeveragingBaggingConfig {
        parallelism: Parallelism::Serial,
        ..LeveragingBaggingConfig::default()
    };
    let pooled_config = LeveragingBaggingConfig {
        parallelism: Parallelism::Threads(2),
        ..LeveragingBaggingConfig::default()
    };
    let mut serial: Box<dyn OnlineClassifier> =
        Box::new(LeveragingBagging::new(schema.clone(), serial_config));
    let mut pooled: Box<dyn OnlineClassifier> =
        Box::new(LeveragingBagging::new(schema.clone(), pooled_config));
    measure_ensemble_learn_pair(&mut serial, &mut pooled);

    let serial_config = ArfConfig {
        parallelism: Parallelism::Serial,
        ..ArfConfig::default()
    };
    let pooled_config = ArfConfig {
        parallelism: Parallelism::Threads(2),
        ..ArfConfig::default()
    };
    let mut serial: Box<dyn OnlineClassifier> =
        Box::new(AdaptiveRandomForest::new(schema.clone(), serial_config));
    let mut pooled: Box<dyn OnlineClassifier> =
        Box::new(AdaptiveRandomForest::new(schema, pooled_config));
    measure_ensemble_learn_pair(&mut serial, &mut pooled);
}

fn measure_ensemble_learn_pair(
    serial: &mut Box<dyn OnlineClassifier>,
    pooled: &mut Box<dyn OnlineClassifier>,
) {
    // Warm both (grows trees, spawns the pool, sizes every reused buffer).
    for round in 0..10 {
        let (xs, ys) = make_batch(200, round * 200);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        serial.learn_batch(&rows, &ys);
        pooled.learn_batch(&rows, &ys);
    }

    const ROUNDS: u64 = 10;
    let (xs, ys) = make_batch(200, 1);
    let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();

    let before_serial = allocations();
    for _ in 0..ROUNDS {
        serial.learn_batch(&rows, &ys);
    }
    let serial_allocs = allocations() - before_serial;

    let before_pooled = allocations();
    for _ in 0..ROUNDS {
        pooled.learn_batch(&rows, &ys);
    }
    let pooled_allocs = allocations() - before_pooled;

    // The pooled path does the identical member work (bit-identical trees,
    // same RNG streams) plus a constant dispatch cost per batch.
    assert!(
        pooled_allocs <= serial_allocs + ROUNDS * 64,
        "{}: pooled ensemble learn allocates beyond dispatch bookkeeping: \
         serial {serial_allocs} vs pooled {pooled_allocs} allocs over {ROUNDS} batches",
        pooled.name()
    );
}

/// Ensemble batch prediction goes through the baseline trees'
/// `predict_proba_into`, so in steady state it allocates a handful of reused
/// buffers per *call* — never per member per row.
fn ensemble_prediction_measurement() {
    use dmt::baselines::VfdtConfig;
    use dmt::ensembles::{
        AdaptiveRandomForest, ArfConfig, LeveragingBagging, LeveragingBaggingConfig,
    };

    let schema = StreamSchema::numeric("alloc-ens", 3, 2);
    // NBA leaves exercise the Naive-Bayes `predict_proba_into` path too.
    let bagging_config = LeveragingBaggingConfig {
        base_config: VfdtConfig::naive_bayes_adaptive(),
        ..LeveragingBaggingConfig::default()
    };
    let mut models: Vec<Box<dyn OnlineClassifier>> = vec![
        Box::new(LeveragingBagging::new(schema.clone(), bagging_config)),
        Box::new(AdaptiveRandomForest::new(schema, ArfConfig::default())),
    ];
    let (train_xs, train_ys) = make_batch(2_000, 7);
    let train_rows: Vec<&[f64]> = train_xs.iter().map(|v| v.as_slice()).collect();
    let (small_xs, _) = make_batch(100, 3);
    let small_rows: Vec<&[f64]> = small_xs.iter().map(|v| v.as_slice()).collect();
    let (large_xs, _) = make_batch(800, 3);
    let large_rows: Vec<&[f64]> = large_xs.iter().map(|v| v.as_slice()).collect();

    for model in models.iter_mut() {
        model.learn_batch(&train_rows, &train_ys);

        let mut out = vec![0usize; large_rows.len()];
        // Warm the projection buffers.
        model.predict_batch_into(&small_rows, &mut out[..small_rows.len()]);

        const CALLS: u64 = 20;
        let before_small = allocations();
        for _ in 0..CALLS {
            model.predict_batch_into(&small_rows, &mut out[..small_rows.len()]);
        }
        let small_allocs = allocations() - before_small;

        let before_large = allocations();
        for _ in 0..CALLS {
            model.predict_batch_into(&large_rows, &mut out);
        }
        let large_allocs = allocations() - before_large;

        assert!(
            large_allocs <= small_allocs,
            "{}: predict_batch_into allocations scale with the batch size \
             ({small_allocs} for {CALLS}×100 rows vs {large_allocs} for {CALLS}×800 rows)",
            model.name()
        );
        // A handful of reused buffers per call (votes, probabilities,
        // projection) — not one vector per member per row.
        assert!(
            large_allocs <= CALLS * 8,
            "{}: unexpectedly many allocations per predict_batch_into call: {}",
            model.name(),
            large_allocs as f64 / CALLS as f64
        );
    }
}

/// The serial contract on a tree held at depth ≥ 3: inner nodes below the
/// root inherit the root's column sort and split it for their children
/// inside the measured region, and that must allocate nothing per
/// instance either. On this concept the window's loss keeps buying the odd
/// extra split, so the shape is not frozen; a split allocates a bounded
/// number of buffers whatever the batch size, well inside the slack below.
fn deep_tree_measurement() {
    let schema = StreamSchema::numeric("alloc-deep", 3, 2);
    let mut tree = DynamicModelTree::new(schema, DmtConfig::default());

    let (small_xs, small_ys) = make_deep_batch(100, 0);
    let small_rows: Vec<&[f64]> = small_xs.iter().map(|v| v.as_slice()).collect();
    let (large_xs, large_ys) = make_deep_batch(800, 0);
    let large_rows: Vec<&[f64]> = large_xs.iter().map(|v| v.as_slice()).collect();

    for round in 0..400 {
        let (xs, ys) = make_deep_batch(800, round * 800);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        tree.learn_batch(&rows, &ys);
    }
    // Grow the scratch buffers at both batch shapes before measuring.
    tree.learn_batch(&small_rows, &small_ys);
    tree.learn_batch(&large_rows, &large_ys);
    assert!(
        tree.depth() >= 3,
        "the striped concept must hold the tree at depth ≥ 3, got {}",
        tree.depth()
    );

    const ROUNDS: u64 = 50;
    let before_small = allocations();
    for _ in 0..ROUNDS {
        tree.learn_batch(&small_rows, &small_ys);
    }
    let small_allocs = allocations() - before_small;

    let before_large = allocations();
    for _ in 0..ROUNDS {
        tree.learn_batch(&large_rows, &large_ys);
    }
    let large_allocs = allocations() - before_large;

    assert!(
        tree.depth() >= 3,
        "the deep tree collapsed during the measurement"
    );
    let node_count = tree.num_inner_nodes() + tree.num_leaves();
    assert!(
        large_allocs < small_allocs + ROUNDS * 100,
        "deep-tree learn_batch allocations scale with the batch size: \
         {small_allocs} allocs for {ROUNDS}×100 instances vs \
         {large_allocs} allocs for {ROUNDS}×800 instances ({node_count} nodes)"
    );
}

fn steady_state_measurement(batch_mode: dmt::models::BatchMode) {
    let schema = StreamSchema::numeric("alloc-probe", 3, 2);
    let config = DmtConfig {
        batch_mode,
        ..DmtConfig::default()
    };
    let mut tree = DynamicModelTree::new(schema, config);

    // Pre-materialise all data so the measured region only runs the tree.
    let (small_xs, small_ys) = make_batch(100, 0);
    let small_rows: Vec<&[f64]> = small_xs.iter().map(|v| v.as_slice()).collect();
    let (large_xs, large_ys) = make_batch(800, 0);
    let large_rows: Vec<&[f64]> = large_xs.iter().map(|v| v.as_slice()).collect();

    // Warm-up: grow the scratch buffers to their high-water mark and let the
    // tree structure settle on this stationary concept.
    for round in 0..200 {
        let (xs, ys) = make_batch(800, round * 800);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        tree.learn_batch(&rows, &ys);
    }
    let structure_before = (tree.num_inner_nodes(), tree.num_leaves());

    // Measure: the same number of batches at 100 vs 800 instances. Repeated
    // identical batches propose no new candidates, so the remaining per-batch
    // allocations are only the proposal bookkeeping — independent of n.
    const ROUNDS: u64 = 50;
    let before_small = allocations();
    for _ in 0..ROUNDS {
        tree.learn_batch(&small_rows, &small_ys);
    }
    let small_allocs = allocations() - before_small;

    let before_large = allocations();
    for _ in 0..ROUNDS {
        tree.learn_batch(&large_rows, &large_ys);
    }
    let large_allocs = allocations() - before_large;

    let structure_after = (tree.num_inner_nodes(), tree.num_leaves());
    assert_eq!(
        structure_before, structure_after,
        "tree restructured during the measurement; rerun with a longer warm-up"
    );

    // 8× the instances must not mean more allocations. A per-instance
    // allocation anywhere in the loop would add at least
    // ROUNDS × (800 − 100) = 35 000 allocations to the large runs; the
    // remaining per-batch cost is candidate-proposal bookkeeping, which is
    // O(features × nodes) and merely jitters with the batch quantiles.
    let node_count = tree.num_inner_nodes() + tree.num_leaves();
    assert!(
        large_allocs < small_allocs + ROUNDS * 100,
        "learn_batch allocations scale with the batch size: \
         {small_allocs} allocs for {ROUNDS}×100 instances vs \
         {large_allocs} allocs for {ROUNDS}×800 instances \
         ({node_count} nodes)"
    );

    // And the absolute per-batch count stays small: proposal bookkeeping for
    // a handful of nodes, not thousands of per-instance buffers.
    let per_batch = large_allocs as f64 / ROUNDS as f64;
    assert!(
        per_batch <= 64.0 * node_count.max(1) as f64,
        "unexpectedly many allocations per learned batch: {per_batch:.1} \
         for a tree with {node_count} nodes"
    );

    // predict_batch: exactly one allocation for the result vector (plus
    // nothing per instance). When the suite runs under DMT_PARALLELISM ≥ 2
    // (the CI pool legs), the 800-row batch crosses the parallel-predict
    // threshold and the pool dispatch adds its constant bookkeeping
    // (items/queue/result vectors) — still nothing per instance.
    let workers = dmt::core::Parallelism::from_env().workers() as u64;
    let predict_budget = if workers >= 2 { 2 + 8 + workers } else { 2 };
    // Warm the pooled scratches at this batch shape before measuring.
    let _ = tree.predict_batch(&large_rows);
    let before_predict = allocations();
    let predictions = tree.predict_batch(&large_rows);
    let predict_allocs = allocations() - before_predict;
    assert_eq!(predictions.len(), large_rows.len());
    assert!(
        predict_allocs <= predict_budget,
        "predict_batch should only allocate its result vector \
         (+ pool dispatch bookkeeping when threaded), got {predict_allocs} \
         (budget {predict_budget})"
    );

    // Single-instance predict is fully allocation-free.
    let before_single = allocations();
    let mut checksum = 0usize;
    for row in &large_rows {
        checksum += tree.predict(row);
    }
    let single_allocs = allocations() - before_single;
    assert!(checksum <= large_rows.len());
    assert_eq!(
        single_allocs, 0,
        "DynamicModelTree::predict must not allocate"
    );
}
