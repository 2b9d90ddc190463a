//! Arena-descent contracts of the Dynamic Model Tree:
//!
//! * the batch prediction entry points (`predict_batch` /
//!   `predict_batch_into`) answer bit-identically to **per-instance**
//!   `predict`, through splits, prunes and replacements,
//! * the batched learn routing (split tests read the gathered contiguous
//!   matrix) is bit-identical to the per-instance reference routing
//!   (`learn_batch_reference`, split tests read the original row pointers),
//! * and the arena's structural invariants hold across splits, prunes and
//!   replacements: free-listed slots are reused, no slot is orphaned or
//!   doubly owned.
//!
//! Random streams come from proptest; splits and prunes are exercised by a
//! deterministic step concept with an abrupt drift, at the pinned batch
//! sizes 1 / 7 / 64.

use dmt::core::{DmtConfig, DynamicModelTree};
use dmt::models::OnlineClassifier;
use dmt::stream::schema::StreamSchema;
use proptest::prelude::*;

/// The pinned batch sizes: the scalar edge case, a non-multiple of the
/// 8-lane kernel width, and a full window multiple.
const PINNED_BATCH_SIZES: [usize; 3] = [1, 7, 64];

/// A deterministic step-plus-drift stream over `m = 2` features: phase 0 is
/// a hard step on feature 0 (forces splits), phase 1 flips the step (forces
/// replacements) and phase 2 is a constant concept (invites prunes).
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

/// Rounds per concept phase so that every batch size feeds each phase enough
/// instances (~8k) to trigger structural changes.
fn rounds_per_phase(batch_size: usize) -> usize {
    (8_000 / batch_size).max(120)
}

/// Assert two trees are bit-identical: same structure (walked by id in
/// lockstep), same split keys, same model parameters, same window
/// accumulators and same candidate pools.
fn assert_trees_bit_identical(a: &DynamicModelTree, b: &DynamicModelTree) {
    use dmt::models::SimpleModel;
    assert_eq!(a.num_inner_nodes(), b.num_inner_nodes());
    assert_eq!(a.num_leaves(), b.num_leaves());
    assert_eq!(a.decision_log().len(), b.decision_log().len());
    let (arena_a, arena_b) = (a.arena(), b.arena());
    let mut stack = vec![(a.root_id(), b.root_id())];
    while let Some((ia, ib)) = stack.pop() {
        assert_eq!(arena_a.is_leaf(ia), arena_b.is_leaf(ib));
        let (sa, sb) = (arena_a.stats(ia), arena_b.stats(ib));
        assert_eq!(sa.count, sb.count);
        assert_eq!(sa.loss_sum.to_bits(), sb.loss_sum.to_bits());
        assert_eq!(sa.model.params().len(), sb.model.params().len());
        for (pa, pb) in sa.model.params().iter().zip(sb.model.params().iter()) {
            assert_eq!(pa.to_bits(), pb.to_bits());
        }
        for (ga, gb) in sa.grad_sum.iter().zip(sb.grad_sum.iter()) {
            assert_eq!(ga.to_bits(), gb.to_bits());
        }
        assert_eq!(sa.candidates.len(), sb.candidates.len());
        for (ca, cb) in sa.candidates.iter().zip(sb.candidates.iter()) {
            assert_eq!(ca.key.feature, cb.key.feature);
            assert_eq!(ca.key.value.to_bits(), cb.key.value.to_bits());
            assert_eq!(ca.key.is_nominal, cb.key.is_nominal);
            assert_eq!(ca.count, cb.count);
            assert_eq!(ca.loss_sum.to_bits(), cb.loss_sum.to_bits());
        }
        match (arena_a.children(ia), arena_b.children(ib)) {
            (None, None) => {}
            (Some((la, ra)), Some((lb, rb))) => {
                let (ka, kb) = (arena_a.split_key(ia), arena_b.split_key(ib));
                assert_eq!(ka.feature, kb.feature);
                assert_eq!(ka.value.to_bits(), kb.value.to_bits());
                assert_eq!(ka.is_nominal, kb.is_nominal);
                stack.push((la, lb));
                stack.push((ra, rb));
            }
            _ => panic!("tree structures diverged"),
        }
    }
}

/// Assert that `predict_batch` matches per-instance descent bit-for-bit.
fn assert_batched_predictions_match(tree: &DynamicModelTree, rows: &[&[f64]]) {
    let batched = tree.predict_batch(rows);
    let mut into = vec![0usize; rows.len()];
    tree.predict_batch_into(rows, &mut into);
    assert_eq!(batched, into, "predict_batch vs predict_batch_into");
    for (x, &predicted) in rows.iter().zip(batched.iter()) {
        assert_eq!(
            predicted,
            tree.predict(x),
            "batched vs per-instance descent"
        );
    }
}

#[test]
fn batched_descent_stays_bit_identical_through_splits_and_prunes() {
    // The eager configuration (no AIC threshold) restructures aggressively,
    // so splits, replacements *and* prunes all fire within the run.
    for &batch_size in &PINNED_BATCH_SIZES {
        let config = DmtConfig {
            use_aic_threshold: false,
            min_observations_split: 40,
            ..DmtConfig::default()
        };
        let schema = StreamSchema::numeric("arena-step", 2, 2);
        let mut hot = DynamicModelTree::new(schema.clone(), config.clone());
        let mut reference = DynamicModelTree::new(schema, config);
        let mut grew = false;
        let mut shrank = false;
        let phase_len = rounds_per_phase(batch_size);
        for round in 0..3 * phase_len {
            let (xs, ys) = step_batch(round, round / phase_len, batch_size);
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();

            // Test half: batch prediction == per-instance prediction, always.
            assert_batched_predictions_match(&hot, &rows);

            // Train half: gathered routing == per-instance routing.
            let nodes_before = hot.num_inner_nodes();
            let decision_hot = hot.try_learn_batch(&rows, &ys).expect("valid batch");
            let decision_ref = reference.learn_batch_reference(&rows, &ys);
            assert_eq!(decision_hot, decision_ref);
            grew |= hot.num_inner_nodes() > nodes_before;
            shrank |= hot.num_inner_nodes() < nodes_before;

            hot.arena().validate(hot.root_id()).unwrap();
        }
        assert_trees_bit_identical(&hot, &reference);
        assert!(grew, "batch size {batch_size}: the stream never split");
        assert!(
            shrank,
            "batch size {batch_size}: the stream never pruned/replaced a subtree"
        );
    }
}

#[test]
fn arena_reuses_free_slots_after_restructuring() {
    let config = DmtConfig {
        use_aic_threshold: false,
        min_observations_split: 40,
        ..DmtConfig::default()
    };
    let mut tree = DynamicModelTree::new(StreamSchema::numeric("arena-free", 2, 2), config);
    let mut max_slots_after_first_shrink = None;
    let phase_len = rounds_per_phase(64);
    for round in 0..3 * phase_len {
        let (xs, ys) = step_batch(round, round / phase_len, 64);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        let before = tree.num_inner_nodes();
        tree.learn_batch(&rows, &ys);
        let arena = tree.arena();
        arena.validate(tree.root_id()).unwrap();
        // Slot accounting: every slot is live or free-listed, never both.
        assert_eq!(
            arena.live_count(tree.root_id()) + arena.num_free(),
            arena.num_slots()
        );
        if tree.num_inner_nodes() < before && max_slots_after_first_shrink.is_none() {
            max_slots_after_first_shrink = Some(arena.num_slots());
            assert!(arena.num_free() > 0, "prune/replace must free-list slots");
        }
    }
    let high_water =
        max_slots_after_first_shrink.expect("the drifting stream never shrank the tree");
    // After the first shrink the arena may keep restructuring, but renewed
    // growth draws from the free list before allocating: the slot count can
    // only exceed the high-water mark by the *net* structural growth.
    let arena = tree.arena();
    let live = arena.live_count(tree.root_id());
    assert!(
        arena.num_slots() <= high_water.max(live),
        "arena grew past its high-water mark despite free slots: \
         {} slots, {} live, high water {}",
        arena.num_slots(),
        live,
        high_water
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_predict_matches_per_instance_on_random_streams(
        batches in proptest::collection::vec(
            proptest::collection::vec((proptest::collection::vec(0.0f64..1.0, 3), 0usize..3), 1..65),
            1..6,
        ),
    ) {
        let schema = StreamSchema::numeric("arena-prop", 3, 3);
        let mut tree = DynamicModelTree::new(schema, DmtConfig::default());
        for batch in &batches {
            let (xs, ys): (Vec<Vec<f64>>, Vec<usize>) = batch.iter().cloned().unzip();
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            // Predictions before training on the batch (test-then-train).
            let batched = tree.predict_batch(&rows);
            for (x, &predicted) in rows.iter().zip(batched.iter()) {
                prop_assert_eq!(predicted, tree.predict(x));
            }
            tree.learn_batch(&rows, &ys);
            prop_assert!(tree.arena().validate(tree.root_id()).is_ok());
        }
    }

    #[test]
    fn gathered_and_per_instance_learn_routing_are_bit_identical(
        batches in proptest::collection::vec(
            proptest::collection::vec((proptest::collection::vec(0.0f64..1.0, 2), 0usize..2), 1..65),
            1..5,
        ),
    ) {
        let schema = StreamSchema::numeric("arena-learn-prop", 2, 2);
        // Eager structure changes maximise the chance a routing bug shows up.
        let config = DmtConfig {
            use_aic_threshold: false,
            min_observations_split: 20,
            ..DmtConfig::default()
        };
        let mut hot = DynamicModelTree::new(schema.clone(), config.clone());
        let mut reference = DynamicModelTree::new(schema, config);
        for batch in &batches {
            let (xs, ys): (Vec<Vec<f64>>, Vec<usize>) = batch.iter().cloned().unzip();
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            let a = hot.try_learn_batch(&rows, &ys).expect("valid batch");
            let b = reference.learn_batch_reference(&rows, &ys);
            prop_assert_eq!(a, b);
        }
        assert_trees_bit_identical(&hot, &reference);
    }
}
