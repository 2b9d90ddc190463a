//! Integration pins for memory accounting and the byte-budget degradation
//! ladder: a budgeted tree never exceeds its budget over a whole hostile
//! run, keeps ≥ 95 % of the unbudgeted accuracy while
//! doing so, settles through its pool cap instead of shedding whole pools,
//! a budget that never binds is bit-identical to no budget at all,
//! predicting never moves what a budgeted tree learns, and budget
//! enforcement (compaction included) leaves snapshots byte-stable.
//! These back the CI `memory-discipline` job.

use std::path::{Path, PathBuf};

use dmt::core::{DmtConfig, DynamicModelTree};
use dmt::models::MemoryUsage;
use dmt::prelude::*;
use dmt::stream::workload;

/// Fresh per-test dataset directory (same convention as the workload pins).
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dmt-memory-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Test-then-train one workload through a tree in batches of `batch`,
/// asserting `memory_bytes() <= budget` after every learned batch when a
/// budget is armed. Returns `(accuracy, final_memory_bytes)`.
fn soak(
    tree: &mut DynamicModelTree,
    workload_name: &str,
    dir: &Path,
    batch: usize,
) -> (f64, usize) {
    let mut stream = workload::build_workload(workload_name, dir)
        .expect("synthesize + load")
        .expect("known workload");
    let budget = tree.config().memory_budget_bytes;
    let mut correct = 0u64;
    let mut total = 0u64;
    let mut predictions = Vec::new();
    while let Some(b) = stream.next_batch(batch) {
        let rows = b.rows();
        predictions.clear();
        predictions.resize(rows.len(), 0);
        tree.predict_batch_into(&rows, &mut predictions);
        correct += predictions
            .iter()
            .zip(b.ys.iter())
            .filter(|(p, y)| p == y)
            .count() as u64;
        total += rows.len() as u64;
        tree.learn_batch(&rows, &b.ys);
        if let Some(budget) = budget {
            let bytes = tree.memory_bytes();
            assert!(
                bytes <= budget,
                "{workload_name}: {bytes} bytes over the {budget} budget after {total} instances \
                 (arena {}, leaves {}, frozen {})",
                tree.arena().memory_bytes(),
                tree.num_leaves(),
                tree.growth_frozen()
            );
        }
    }
    (correct as f64 / total as f64, tree.memory_bytes())
}

const SOAK_BUDGET: usize = 384 * 1024;

/// The tentpole acceptance pin: on the adversarial `memory-budget` workload
/// (high-cardinality nominals, geometry redrawn every 3k instances) a
/// budgeted tree stays under its byte budget for the *whole* run without
/// panicking, while an unbudgeted twin — fed the identical stream — grows
/// past the budget (proving the pressure is real) and scores at most
/// marginally better (the ladder costs ≤ 5 % accuracy).
#[test]
fn budget_soak_stays_bounded_on_the_memory_budget_workload() {
    let dir = scratch_dir("soak");
    let schema = workload::build_workload("memory-budget", &dir)
        .unwrap()
        .unwrap()
        .schema()
        .clone();
    let mut budgeted = DynamicModelTree::new(
        schema.clone(),
        DmtConfig {
            memory_budget_bytes: Some(SOAK_BUDGET),
            ..DmtConfig::default()
        },
    );
    let mut unbudgeted = DynamicModelTree::new(schema, DmtConfig::default());

    let (acc_budgeted, bytes_budgeted) = soak(&mut budgeted, "memory-budget", &dir, 64);
    let (acc_unbudgeted, bytes_unbudgeted) = soak(&mut unbudgeted, "memory-budget", &dir, 64);

    assert!(bytes_budgeted <= SOAK_BUDGET);
    assert!(
        bytes_unbudgeted > SOAK_BUDGET,
        "the workload must actually pressure the budget: unbudgeted tree \
         only reached {bytes_unbudgeted} bytes"
    );
    assert!(
        acc_budgeted >= 0.95 * acc_unbudgeted,
        "graceful degradation broke: budgeted {acc_budgeted:.4} vs \
         unbudgeted {acc_unbudgeted:.4}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// serve-budget's configuration in process: the memory-budget file learned
/// twice in 24-row batches under 384 KiB, at the default seed. The pool cap
/// is the ladder's first lever, so the budget settles: whole-pool shedding
/// fires on at most 10 % of the last 1,750 of 2,000 batches, where a ladder
/// without the cap sheds them on 1,739 of them.
#[test]
fn pool_cap_settles_the_budget_without_shedding_whole_pools() {
    const BATCH: usize = 24;
    const WARMUP: usize = 250;
    const BATCHES: usize = 2_000;
    let dir = scratch_dir("pool-cap");
    let mut stream = workload::build_workload("memory-budget", &dir)
        .expect("synthesize + load")
        .expect("known workload");
    let schema = stream.schema().clone();
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    while let Some(instance) = stream.next_instance() {
        xs.push(instance.x);
        ys.push(instance.y);
    }
    let max_candidates = DmtConfig::default().max_candidates(schema.num_features());
    let mut tree = DynamicModelTree::new(
        schema,
        DmtConfig {
            memory_budget_bytes: Some(SOAK_BUDGET),
            ..DmtConfig::default()
        },
    );
    let mut warm = tree.budget_counters();
    for i in 0..BATCHES {
        if i == WARMUP {
            warm = tree.budget_counters();
        }
        let lo = i * BATCH % xs.len();
        let rows: Vec<&[f64]> = xs[lo..lo + BATCH].iter().map(Vec::as_slice).collect();
        tree.learn_batch(&rows, &ys[lo..lo + BATCH]);
        assert!(
            tree.memory_bytes() <= SOAK_BUDGET,
            "over budget after batch {i}"
        );
    }
    let end = tree.budget_counters();
    let shed = end.pools_shed - warm.pools_shed;
    assert!(
        shed <= ((BATCHES - WARMUP) / 10) as u64,
        "whole pools were shed on {shed} of the last {} batches ({end:?})",
        BATCHES - WARMUP
    );
    assert!(end.cap_lowered > 0, "the budget must bind: {end:?}");
    assert!(tree.pool_cap() < max_candidates);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same soak on the drift cocktail: the ladder holds the bound through
/// abrupt and gradual drift, and a budget-enforced tree stays byte-stable
/// through the snapshot codec.
#[test]
fn budget_soak_stays_bounded_on_the_drift_cocktail() {
    let dir = scratch_dir("cocktail-soak");
    let schema = workload::build_workload("drift-cocktail", &dir)
        .unwrap()
        .unwrap()
        .schema()
        .clone();
    let mut tree = DynamicModelTree::new(
        schema,
        DmtConfig {
            memory_budget_bytes: Some(SOAK_BUDGET),
            ..DmtConfig::default()
        },
    );
    let (accuracy, bytes) = soak(&mut tree, "drift-cocktail", &dir, 64);
    assert!(bytes <= SOAK_BUDGET);
    assert!(accuracy > 0.5, "budgeted tree must still learn: {accuracy}");
    // Budget enforcement leaves the snapshot codec byte-stable: save → load
    // → save is the identity, and the restored twin predicts identically.
    let bytes = tree.to_snapshot_bytes();
    let restored = DynamicModelTree::from_snapshot_bytes(&bytes).expect("snapshot restores");
    assert_eq!(bytes, restored.to_snapshot_bytes());
    for probe in [[0.2f64; 8], [0.8f64; 8]] {
        let a = tree.predict_proba(&probe);
        let b = restored.predict_proba(&probe);
        for (va, vb) in a.iter().zip(b.iter()) {
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A budget that never binds must change nothing: a tree armed with an
/// absurdly large budget learns and predicts bit-identically to a tree with
/// no budget at all — at the pinned batch sizes (scalar edge, astride the
/// 8-lane unroll, full multiple).
#[test]
fn unbinding_budget_is_bit_identical_to_no_budget() {
    for &batch in &[1usize, 7, 64] {
        let schema = StreamSchema::numeric("budget-identity", 3, 2);
        let mut with_budget = DynamicModelTree::new(
            schema.clone(),
            DmtConfig {
                memory_budget_bytes: Some(1 << 40),
                ..DmtConfig::default()
            },
        );
        let mut without = DynamicModelTree::new(
            schema,
            DmtConfig {
                memory_budget_bytes: None,
                ..DmtConfig::default()
            },
        );
        let mut stream = dmt::stream::generators::SeaGenerator::new(3, 0.1, 42);
        for _ in 0..(2_000 / batch.max(1)).max(8) {
            let b = stream.next_batch(batch).expect("SEA is unbounded");
            let rows = b.rows();
            with_budget.learn_batch(&rows, &b.ys);
            without.learn_batch(&rows, &b.ys);
        }
        assert_eq!(with_budget.num_leaves(), without.num_leaves());
        assert_eq!(with_budget.observations(), without.observations());
        assert!(!with_budget.growth_frozen());
        let mut probe_stream = dmt::stream::generators::SeaGenerator::new(3, 0.1, 43);
        let probes = probe_stream.next_batch(200).unwrap();
        for row in probes.rows() {
            let a = with_budget.predict_proba(row);
            let b = without.predict_proba(row);
            for (va, vb) in a.iter().zip(b.iter()) {
                assert_eq!(va.to_bits(), vb.to_bits(), "batch {batch}: diverged");
            }
        }
    }
}

/// Three-phase step concept over 2 features: phase 0 forces splits, phase 1
/// forces replacements, phase 2 invites prunes.
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

/// A read must not move what a budgeted tree learns. Two split-eager trees
/// under a budget that binds learn the identical step stream; one of them
/// also predicts a 48-row batch, wider than its 32-row learn batches, before
/// every learn. The budget ladder enforces against `memory_bytes()`, so any
/// buffer a read left resident would make it shed differently; the two must
/// end byte-identical.
#[test]
fn predicting_never_moves_a_budgeted_tree() {
    const ROUNDS: usize = 150;
    const BUDGET: usize = 32 * 1024;
    let eager = DmtConfig {
        use_aic_threshold: false,
        min_observations_split: 40,
        ..DmtConfig::default()
    };
    let budgeted = DmtConfig {
        memory_budget_bytes: Some(BUDGET),
        ..eager.clone()
    };
    let schema = StreamSchema::numeric("budget-reads", 2, 2);
    let mut read = DynamicModelTree::new(schema.clone(), budgeted.clone());
    let mut unread = DynamicModelTree::new(schema.clone(), budgeted);
    let mut unbudgeted = DynamicModelTree::new(schema, eager);
    let mut probe_xs = Vec::new();
    for phase in 0..3 {
        probe_xs.extend(step_batch(9_000 + phase, phase, 16).0);
    }
    let probes: Vec<&[f64]> = probe_xs.iter().map(|v| v.as_slice()).collect();
    let mut out = vec![0usize; probes.len()];
    for round in 0..ROUNDS {
        let (xs, ys) = step_batch(round, round / (ROUNDS / 3), 32);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        read.predict_batch_into(&probes, &mut out);
        read.learn_batch(&rows, &ys);
        unread.learn_batch(&rows, &ys);
        unbudgeted.learn_batch(&rows, &ys);
    }
    assert!(
        unbudgeted.memory_bytes() > BUDGET,
        "the stream must pressure the budget (unbudgeted: {} bytes)",
        unbudgeted.memory_bytes()
    );
    assert_eq!(
        read.memory_bytes(),
        unread.memory_bytes(),
        "predicting moved the budgeted tree's bytes"
    );
    assert_eq!(
        read.to_snapshot_bytes(),
        unread.to_snapshot_bytes(),
        "predicting moved what the budgeted tree learned"
    );
}

/// Rung 5 (the hard floor): a budget below even a single leaf's footprint
/// (64 bytes buys one eight-slot `Vec<f64>` — less than the root model's
/// weights alone) collapses the tree to its root, freezes growth, and the
/// tree *still* learns and predicts without panicking — degraded, never dead.
#[test]
fn impossible_budget_freezes_growth_but_never_kills_the_tree() {
    let schema = StreamSchema::numeric("budget-floor", 3, 2);
    let mut tree = DynamicModelTree::new(
        schema,
        DmtConfig {
            memory_budget_bytes: Some(64),
            ..DmtConfig::default()
        },
    );
    let mut stream = dmt::stream::generators::SeaGenerator::new(3, 0.1, 7);
    for _ in 0..40 {
        let b = stream.next_batch(100).unwrap();
        let rows = b.rows();
        tree.learn_batch(&rows, &b.ys);
        assert_eq!(tree.num_leaves(), 1, "the floor keeps the tree merged");
        assert!(tree.growth_frozen(), "an impossible budget freezes growth");
    }
    assert_eq!(tree.observations(), 4_000);
    assert_eq!(tree.pool_cap(), 1, "the cap sits at its floor");
    assert_eq!(tree.budget_counters().frozen, 40, "every batch ends frozen");
    let proba = tree.predict_proba(&[0.5, 0.5, 0.5]);
    assert!((proba.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert!(proba.iter().all(|p| p.is_finite()));
}

/// The free-list canonicalisation satellite: after drift-driven prunes leave
/// holes in the arena, saving, restoring and re-saving a tree produces the
/// identical bytes — slot numbering and free-list order are part of the
/// canonical wire form, so snapshot diffing stays meaningful.
#[test]
fn pruned_trees_reserialize_to_identical_bytes() {
    let schema = StreamSchema::numeric("canonical", 3, 2);
    let mut tree = DynamicModelTree::new(schema, DmtConfig::default());
    let mut stream = dmt::stream::generators::SeaGenerator::new(3, 0.1, 11);
    // Learn one concept, then flip every label so structural checks prune.
    for flip in [false, true, false, true] {
        for _ in 0..10 {
            let b = stream.next_batch(100).unwrap();
            let rows = b.rows();
            let ys: Vec<usize> = if flip {
                b.ys.iter().map(|&y| 1 - y).collect()
            } else {
                b.ys.clone()
            };
            tree.learn_batch(&rows, &ys);
        }
    }
    let first = tree.to_snapshot_bytes();
    let restored = DynamicModelTree::from_snapshot_bytes(&first).expect("snapshot restores");
    let second = restored.to_snapshot_bytes();
    assert_eq!(first, second, "re-serialisation must be the identity");
}
