//! Enforces the allocation contract of the Dynamic Model Tree hot path: in
//! steady state (scratch buffers at their high-water mark, tree structure
//! stable), `learn_batch` performs no *per-instance* heap allocations — the
//! allocation count per batch is independent of the batch size. Under a
//! binding byte budget the pool cap lets the footprint settle, so a
//! budgeted learn stays under a constant number of allocations per batch
//! instead of shedding and regrowing candidate pools. Prediction keeps no
//! buffers at all: `predict_batch` allocates exactly its result vector, and
//! `predict_batch_into` and `predict` allocate nothing, on a fresh clone
//! and on a fresh predict-only view (a published serving epoch) too. A
//! clone makes a bounded number of allocations per node, independent of the
//! number of stored split candidates, and a view one per leaf.
//!
//! A counting global allocator makes this measurable. All measurements live
//! in a single `#[test]` so parallel test threads cannot pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dmt::prelude::*;
use dmt::stream::workload;

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
    budgeted_learn_measurement();
    ensemble_prediction_measurement();
    pooled_ensemble_learn_measurement();
}

/// Pooled ensemble member training adds only the per-batch dispatch
/// bookkeeping on top of the serial member-major loop: member work is
/// bit-identical (same trees, same RNG streams), so the allocation counts may
/// differ per *batch* (queue/result vectors) but never per instance or per
/// member beyond what the serial path does.
fn pooled_ensemble_learn_measurement() {
    use dmt::ensembles::{
        AdaptiveRandomForest, ArfConfig, LeveragingBagging, LeveragingBaggingConfig, Parallelism,
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

/// Cloning a trained tree makes at most four allocations per live node (its
/// model, its gradient window and the two of its candidate pool) plus a
/// constant for the schema (name, feature list, one name per feature), the
/// nominal mask, the seven arena columns and the decision log. The bound
/// does not depend on how many candidates the pools store.
fn clone_measurement(tree: &DynamicModelTree) {
    let nodes = tree.num_inner_nodes() + tree.num_leaves();
    let fixed = 2 + tree.schema().num_features() as u64 + 1 + 7 + 1;
    let arena = tree.arena();
    let mut ids = Vec::new();
    arena.preorder_ids(tree.root_id(), &mut ids);
    let candidates: usize = ids.iter().map(|&id| arena.stats(id).candidates.len()).sum();
    // One allocation per stored candidate would break the bound only if
    // the pools store more candidates than the tree has nodes.
    assert!(
        candidates as u64 > nodes,
        "{candidates} candidates in {nodes} nodes cannot tell the layouts apart"
    );
    let before = allocations();
    let epoch = tree.clone();
    let clone_allocs = allocations() - before;
    drop(epoch);
    assert!(
        clone_allocs <= 4 * nodes + fixed,
        "clone() made {clone_allocs} allocations for {nodes} nodes storing \
         {candidates} candidates (bound {})",
        4 * nodes + fixed
    );
}

/// A predict-only view, which is what the registry publishes as a serving
/// epoch, makes at most one allocation per leaf (its model) plus the seven
/// arena columns, and predicting from a fresh view allocates nothing and
/// matches the tree.
fn view_measurement(tree: &DynamicModelTree, rows: &[&[f64]]) {
    let leaves = tree.num_leaves();
    let before = allocations();
    let view = tree.predict_view();
    let view_allocs = allocations() - before;
    assert!(
        view_allocs <= leaves + 7,
        "predict_view() made {view_allocs} allocations for {leaves} leaves (bound {})",
        leaves + 7
    );
    let mut expected = vec![0usize; rows.len()];
    tree.predict_batch_into(rows, &mut expected);
    let mut out = vec![0usize; rows.len()];
    let before = allocations();
    view.try_predict_batch_into(rows, &mut out)
        .expect("valid rows");
    let predict_allocs = allocations() - before;
    assert_eq!(out, expected, "a view must predict as its tree");
    assert_eq!(
        predict_allocs, 0,
        "predicting from a fresh predict-only view must not allocate"
    );
}

/// The most allocations a budgeted learn may make per batch, on average,
/// once warm. A ladder that empties whole pools on almost every batch for
/// the next batch to refill makes 113–130 per learn here and fails it.
const BUDGETED_ALLOCS_PER_BATCH: f64 = 40.0;

/// serve-budget's configuration in process: the memory-budget file learned
/// twice in 24-row batches under a 384 KiB budget. After 250 warm-up
/// batches the pool cap has settled, so the remaining 1,750 batches stay
/// under a constant number of allocations each, whatever the tree grows
/// to. The trained tree then takes the view measurement.
fn budgeted_learn_measurement() {
    const BATCH: usize = 24;
    const WARMUP: usize = 250;
    const BATCHES: usize = 2_000;
    let dir = std::env::temp_dir().join(format!("dmt-alloc-budget-{}", std::process::id()));
    let mut stream = workload::build_workload("memory-budget", &dir)
        .expect("synthesize + load")
        .expect("known workload");
    let schema = stream.schema().clone();
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    while let Some(instance) = stream.next_instance() {
        xs.push(instance.x);
        ys.push(instance.y);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let batches: Vec<(Vec<&[f64]>, &[usize])> = xs
        .chunks_exact(BATCH)
        .zip(ys.chunks_exact(BATCH))
        .map(|(x, y)| (x.iter().map(Vec::as_slice).collect(), y))
        .collect();
    let mut tree = DynamicModelTree::new(
        schema,
        DmtConfig {
            memory_budget_bytes: Some(384 * 1024),
            ..DmtConfig::default()
        },
    );
    let mut before = 0;
    for i in 0..BATCHES {
        if i == WARMUP {
            before = allocations();
        }
        let (rows, ys) = &batches[i % batches.len()];
        tree.learn_batch(rows, ys);
    }
    let per_batch = (allocations() - before) as f64 / (BATCHES - WARMUP) as f64;
    assert!(
        tree.pool_cap() < DmtConfig::default().max_candidates(tree.schema().num_features()),
        "the budget must bind for the measurement to mean anything"
    );
    assert!(
        per_batch <= BUDGETED_ALLOCS_PER_BATCH,
        "a budgeted learn made {per_batch:.1} allocations per batch \
         (bound {BUDGETED_ALLOCS_PER_BATCH}, {} nodes, pool cap {})",
        tree.num_inner_nodes() + tree.num_leaves(),
        tree.pool_cap()
    );
    view_measurement(&tree, &batches[0].0);
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

    clone_measurement(&tree);
    view_measurement(&tree, &large_rows);

    // predict_batch: exactly the result vector, nothing per instance.
    const PREDICT_BUDGET: u64 = 1;
    let before_predict = allocations();
    let predictions = tree.predict_batch(&large_rows);
    let predict_allocs = allocations() - before_predict;
    assert_eq!(predictions.len(), large_rows.len());
    assert!(
        predict_allocs <= PREDICT_BUDGET,
        "predict_batch should only allocate its result vector, got \
         {predict_allocs} (budget {PREDICT_BUDGET})"
    );

    // A fresh clone is what the registry publishes as a serving epoch; its
    // first batch prediction into a caller's buffer allocates nothing.
    let epoch = tree.clone();
    let mut out = vec![0usize; large_rows.len()];
    let before_clone = allocations();
    epoch.predict_batch_into(&large_rows, &mut out);
    let clone_allocs = allocations() - before_clone;
    assert_eq!(out, predictions);
    assert_eq!(
        clone_allocs, 0,
        "predict_batch_into on a fresh clone must not allocate"
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
