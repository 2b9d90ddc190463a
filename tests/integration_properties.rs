//! Property-based tests (proptest) on the workspace's core invariants:
//! probability outputs, metric ranges, drift-detector sanity, candidate gain
//! consistency and the DMT's structural bookkeeping.

use dmt::core::{CandidateKey, DmtConfig, DynamicModelTree, NodeArena, NodeStats};
use dmt::drift::{Adwin, DriftDetector, PageHinkley};
use dmt::eval::ConfusionMatrix;
use dmt::models::linalg::{MatMut, MatRef};
use dmt::models::{aic_split_threshold, BatchMode, Glm, OnlineClassifier, SimpleModel};
use dmt::stream::schema::StreamSchema;
use proptest::prelude::*;

/// The batch sizes the batched-kernel contracts are pinned at: the scalar
/// edge case, a non-multiple of the 8-lane unroll width, and a full window
/// multiple.
const PINNED_BATCH_SIZES: [usize; 3] = [1, 7, 64];

/// Flatten the first `n` generated rows into a contiguous row-major buffer.
fn flatten(xs: &[Vec<f64>], n: usize) -> Vec<f64> {
    xs[..n].iter().flat_map(|row| row.iter().copied()).collect()
}

/// Strategy: a feature vector of the given length with values in [0, 1].
fn unit_vector(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..1.0, len)
}

/// Strategy: a small labelled batch over `m` features and `c` classes.
fn labelled_batch(
    m: usize,
    c: usize,
    max_len: usize,
) -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<usize>)> {
    proptest::collection::vec((unit_vector(m), 0..c), 1..max_len)
        .prop_map(|rows| rows.into_iter().unzip())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn glm_probabilities_are_a_distribution(
        (xs, ys) in labelled_batch(4, 3, 40),
        probe in unit_vector(4),
    ) {
        let mut glm = Glm::new_zeros(4, 3);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        glm.sgd_step(&rows, &ys, 0.05);
        let proba = glm.predict_proba(&probe);
        prop_assert_eq!(proba.len(), 3);
        let sum: f64 = proba.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6);
        prop_assert!(proba.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn glm_loss_is_nonnegative_and_finite(
        (xs, ys) in labelled_batch(3, 2, 40),
    ) {
        let glm = Glm::new_random(3, 2, 7);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        let (loss, grad) = glm.loss_and_gradient(&rows, &ys);
        prop_assert!(loss >= 0.0);
        prop_assert!(loss.is_finite());
        prop_assert!(grad.iter().all(|g| g.is_finite()));
        prop_assert_eq!(grad.len(), glm.num_params());
    }

    #[test]
    fn confusion_matrix_metrics_stay_in_range(
        pairs in proptest::collection::vec((0usize..4, 0usize..4), 1..200),
    ) {
        let mut cm = ConfusionMatrix::new(4);
        for (actual, predicted) in &pairs {
            cm.update(*actual, *predicted);
        }
        prop_assert!((0.0..=1.0).contains(&cm.accuracy()));
        prop_assert!((0.0..=1.0).contains(&cm.macro_f1()));
        prop_assert!((0.0..=1.0).contains(&cm.weighted_f1()));
        prop_assert!(cm.kappa() <= 1.0);
        for class in 0..4 {
            prop_assert!((0.0..=1.0).contains(&cm.precision(class)));
            prop_assert!((0.0..=1.0).contains(&cm.recall(class)));
            prop_assert!((0.0..=1.0).contains(&cm.f1(class)));
        }
    }

    #[test]
    fn perfect_predictions_always_score_one(
        labels in proptest::collection::vec(0usize..3, 1..100),
    ) {
        let mut cm = ConfusionMatrix::new(3);
        cm.update_batch(&labels, &labels);
        prop_assert!((cm.accuracy() - 1.0).abs() < 1e-12);
        prop_assert!((cm.macro_f1() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn adwin_mean_matches_constant_input(value in 0.0f64..1.0, n in 50u32..400) {
        let mut adwin = Adwin::default();
        for _ in 0..n {
            adwin.update(value);
        }
        prop_assert!((adwin.mean() - value).abs() < 1e-9);
        prop_assert_eq!(adwin.width(), n as u64);
    }

    #[test]
    fn page_hinkley_never_fires_on_constant_input(value in 0.0f64..1.0, n in 50u32..500) {
        let mut ph = PageHinkley::default();
        let mut fired = false;
        for _ in 0..n {
            fired |= ph.update(value);
        }
        prop_assert!(!fired, "Page-Hinkley fired on a constant stream");
    }

    #[test]
    fn aic_threshold_is_monotone_in_epsilon(
        k_new in 1usize..100,
        k_old in 1usize..100,
        eps_exp in 1i32..12,
    ) {
        let strict = aic_split_threshold(k_new, k_old, 10f64.powi(-eps_exp));
        let loose = aic_split_threshold(k_new, k_old, 1.0);
        prop_assert!(strict >= loose);
        prop_assert!((loose - (k_new as f64 - k_old as f64)).abs() < 1e-9);
    }

    #[test]
    fn dmt_predictions_are_valid_after_arbitrary_batches(
        batches in proptest::collection::vec(labelled_batch(3, 3, 30), 1..6),
        probe in unit_vector(3),
    ) {
        let schema = StreamSchema::numeric("prop", 3, 3);
        let mut tree = DynamicModelTree::new(schema, DmtConfig::default());
        for (xs, ys) in &batches {
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            tree.learn_batch(&rows, ys);
        }
        let proba = tree.predict_proba(&probe);
        prop_assert_eq!(proba.len(), 3);
        let sum: f64 = proba.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6);
        prop_assert!(tree.predict(&probe) < 3);
        // Structural bookkeeping: an N-leaf binary tree has N-1 inner nodes.
        prop_assert_eq!(tree.num_inner_nodes() + 1, tree.num_leaves());
        // Complexity accounting is consistent with the structure.
        let complexity = tree.complexity();
        prop_assert!(complexity.splits >= tree.num_inner_nodes() as f64);
        prop_assert!(complexity.parameters > 0.0);
    }

    #[test]
    fn dmt_observation_count_matches_fed_instances(
        batches in proptest::collection::vec(labelled_batch(2, 2, 20), 1..5),
    ) {
        let schema = StreamSchema::numeric("prop", 2, 2);
        let mut tree = DynamicModelTree::new(schema, DmtConfig::default());
        let mut expected = 0u64;
        for (xs, ys) in &batches {
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            tree.learn_batch(&rows, ys);
            expected += xs.len() as u64;
        }
        prop_assert_eq!(tree.observations(), expected);
    }

    #[test]
    fn sliding_window_output_matches_input_length(
        series in proptest::collection::vec(0.0f64..1.0, 0..200),
        window in 1usize..50,
    ) {
        let agg = dmt::eval::sliding_window(&series, window);
        prop_assert_eq!(agg.len(), series.len());
        for point in &agg {
            prop_assert!(point.std >= 0.0);
            prop_assert!((0.0..=1.0).contains(&point.mean));
        }
    }

    #[test]
    fn candidate_keys_route_consistently(
        feature in 0usize..3,
        value in 0.0f64..1.0,
        x in unit_vector(3),
    ) {
        let key = dmt::core::CandidateKey { feature, value, is_nominal: false };
        let goes_left = key.goes_left(&x);
        prop_assert_eq!(goes_left, x[feature] <= value);
    }

    // ---- `*_into` / allocating API equivalence -----------------------------
    //
    // The allocation-free `*_into` methods are the hot-path primitives; the
    // allocating variants are defined in terms of them. These properties pin
    // the contract down to bit-identical results for both GLM variants
    // (binary logit via 2 classes, multinomial softmax via 3+), so the
    // scratch-buffer plumbing can never drift numerically.

    #[test]
    fn predict_proba_into_is_bit_identical(
        (xs, ys) in labelled_batch(4, 3, 30),
        probe in unit_vector(4),
        classes in 2usize..5,
    ) {
        let mut glm = Glm::new_random(4, classes, 11);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        let ys: Vec<usize> = ys.iter().map(|&y| y % classes).collect();
        glm.sgd_step(&rows, &ys, 0.1);
        let allocated = glm.predict_proba(&probe);
        let mut buffer = vec![0.0f64; classes];
        glm.predict_proba_into(&probe, &mut buffer);
        prop_assert_eq!(allocated.len(), buffer.len());
        for (a, b) in allocated.iter().zip(buffer.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        // The allocation-free predict agrees with the argmax convention.
        prop_assert_eq!(glm.predict(&probe), dmt::models::argmax(&allocated));
    }

    #[test]
    fn loss_and_gradient_into_is_bit_identical(
        (xs, ys) in labelled_batch(3, 4, 40),
        classes in 2usize..5,
    ) {
        let glm = Glm::new_random(3, classes, 7);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        let ys: Vec<usize> = ys.iter().map(|&y| y % classes).collect();
        let (loss_alloc, grad_alloc) = glm.loss_and_gradient(&rows, &ys);
        // Dirty buffers: `_into` must fully overwrite, not accumulate.
        let mut grad = vec![f64::NAN; glm.num_params()];
        let mut class_buf = vec![f64::NAN; classes];
        let loss_into = glm.loss_and_gradient_into(&rows, &ys, &mut grad, &mut class_buf);
        prop_assert_eq!(loss_alloc.to_bits(), loss_into.to_bits());
        prop_assert_eq!(grad_alloc.len(), grad.len());
        for (a, b) in grad_alloc.iter().zip(grad.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn sgd_step_into_is_bit_identical(
        (xs, ys) in labelled_batch(3, 3, 30),
        classes in 2usize..4,
        steps in 1usize..4,
    ) {
        let mut via_alloc = Glm::new_random(3, classes, 3);
        let mut via_into = via_alloc.clone();
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        let ys: Vec<usize> = ys.iter().map(|&y| y % classes).collect();
        let mut grad_buf = vec![0.0f64; via_into.num_params()];
        let mut class_buf = vec![0.0f64; classes];
        for _ in 0..steps {
            let loss_a = via_alloc.sgd_step(&rows, &ys, 0.05);
            let loss_b = via_into.sgd_step_into(&rows, &ys, 0.05, &mut grad_buf, &mut class_buf);
            prop_assert_eq!(loss_a.to_bits(), loss_b.to_bits());
        }
        prop_assert_eq!(via_alloc.params().len(), via_into.params().len());
        for (a, b) in via_alloc.params().iter().zip(via_into.params().iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(via_alloc.observations_seen(), via_into.observations_seen());
    }

    // ---- batched kernel layer / scalar path equivalence --------------------
    //
    // The batched primitives (`predict_proba_batch_into`,
    // `loss_and_gradient_batch_into`, `learn_batch_into`) are the hot-path
    // kernels of the DMT update loop. These properties pin them to
    // bit-identical results against the scalar `*_into` reference at batch
    // sizes 1, 7 and 64 (below, astride and at multiples of the 8-lane
    // unroll width), for both GLM variants.

    #[test]
    fn predict_proba_batch_into_is_bit_identical_to_scalar(
        (xs, ys) in labelled_batch(4, 3, 65),
        classes in 2usize..5,
    ) {
        let mut glm = Glm::new_random(4, classes, 19);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        let ys: Vec<usize> = ys.iter().map(|&y| y % classes).collect();
        glm.sgd_step(&rows, &ys, 0.1);
        for &size in &PINNED_BATCH_SIZES {
            let n = size.min(xs.len());
            let flat = flatten(&xs, n);
            let mat = MatRef::new(&flat, n, 4);
            let mut batch_out = vec![f64::NAN; n * classes];
            glm.predict_proba_batch_into(mat, &mut batch_out);
            let mut row_out = vec![f64::NAN; classes];
            for i in 0..n {
                glm.predict_proba_into(&xs[i], &mut row_out);
                for (a, b) in row_out.iter().zip(batch_out[i * classes..(i + 1) * classes].iter()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "batch size {}", n);
                }
            }
        }
    }

    #[test]
    fn loss_and_gradient_batch_into_is_bit_identical_to_scalar(
        (xs, ys) in labelled_batch(3, 4, 65),
        classes in 2usize..5,
    ) {
        let glm = Glm::new_random(3, classes, 23);
        let ys: Vec<usize> = ys.iter().map(|&y| y % classes).collect();
        let k = glm.num_params();
        for &size in &PINNED_BATCH_SIZES {
            let n = size.min(xs.len());
            let flat = flatten(&xs, n);
            let mat = MatRef::new(&flat, n, 3);
            let mut losses = vec![f64::NAN; n];
            let mut grads = vec![f64::NAN; n * k];
            let mut class_buf = vec![f64::NAN; classes];
            let total = glm.loss_and_gradient_batch_into(
                mat,
                &ys[..n],
                &mut losses,
                MatMut::new(&mut grads, n, k),
                &mut class_buf,
            );
            let mut expected_total = 0.0;
            let mut row_grad = vec![f64::NAN; k];
            for i in 0..n {
                let loss = glm.loss_and_gradient_into(
                    &[xs[i].as_slice()],
                    &[ys[i]],
                    &mut row_grad,
                    &mut class_buf,
                );
                expected_total += loss;
                prop_assert_eq!(loss.to_bits(), losses[i].to_bits(), "batch size {}", n);
                for (a, b) in row_grad.iter().zip(grads[i * k..(i + 1) * k].iter()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "batch size {}", n);
                }
            }
            prop_assert_eq!(expected_total.to_bits(), total.to_bits());
        }
    }

    #[test]
    fn learn_batch_into_deterministic_is_bit_identical_to_scalar_sweep(
        (xs, ys) in labelled_batch(3, 3, 65),
        classes in 2usize..4,
    ) {
        let ys: Vec<usize> = ys.iter().map(|&y| y % classes).collect();
        for &size in &PINNED_BATCH_SIZES {
            let n = size.min(xs.len());
            let flat = flatten(&xs, n);
            let mat = MatRef::new(&flat, n, 3);
            let mut via_scalar = Glm::new_random(3, classes, 29);
            let mut via_batch = via_scalar.clone();
            let k = via_scalar.num_params();
            let mut grad_buf = vec![0.0f64; k];
            let mut class_buf = vec![0.0f64; classes];
            for i in 0..n {
                via_scalar.sgd_step_into(
                    &[xs[i].as_slice()],
                    &[ys[i]],
                    0.05,
                    &mut grad_buf,
                    &mut class_buf,
                );
            }
            via_batch.learn_batch_into(
                mat,
                &ys[..n],
                0.05,
                BatchMode::Deterministic,
                &mut grad_buf,
                &mut class_buf,
            );
            for (a, b) in via_scalar.params().iter().zip(via_batch.params().iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "batch size {}", n);
            }
            prop_assert_eq!(via_scalar.observations_seen(), via_batch.observations_seen());
        }
    }

    #[test]
    fn learn_batch_into_window_one_equals_deterministic(
        (xs, ys) in labelled_batch(3, 3, 40),
        classes in 2usize..4,
    ) {
        // A window of 1 recomputes the gradient at every row, so the
        // summed-gradient step degenerates to the per-instance sweep exactly.
        let ys: Vec<usize> = ys.iter().map(|&y| y % classes).collect();
        let n = xs.len();
        let flat = flatten(&xs, n);
        let mat = MatRef::new(&flat, n, 3);
        let mut deterministic = Glm::new_random(3, classes, 31);
        let mut windowed = deterministic.clone();
        let k = deterministic.num_params();
        let mut grad_buf = vec![0.0f64; k];
        let mut class_buf = vec![0.0f64; classes];
        deterministic.learn_batch_into(
            mat, &ys, 0.05, BatchMode::Deterministic, &mut grad_buf, &mut class_buf,
        );
        windowed.learn_batch_into(
            mat, &ys, 0.05, BatchMode::Batched { window: 1 }, &mut grad_buf, &mut class_buf,
        );
        for (a, b) in deterministic.params().iter().zip(windowed.params().iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn batched_mode_trees_stay_valid_classifiers(
        batches in proptest::collection::vec(labelled_batch(3, 3, 30), 1..5),
        probe in unit_vector(3),
        window in 1usize..20,
    ) {
        // The windowed batched mode changes SGD step granularity but must
        // always produce a valid probabilistic classifier.
        let schema = StreamSchema::numeric("prop-batched", 3, 3);
        let config = DmtConfig {
            batch_mode: BatchMode::Batched { window },
            ..DmtConfig::default()
        };
        let mut tree = DynamicModelTree::new(schema, config);
        for (xs, ys) in &batches {
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            tree.learn_batch(&rows, ys);
        }
        let proba = tree.predict_proba(&probe);
        prop_assert_eq!(proba.len(), 3);
        let sum: f64 = proba.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6);
        prop_assert!(proba.iter().all(|p| p.is_finite()));
        prop_assert_eq!(tree.num_inner_nodes() + 1, tree.num_leaves());
    }

    #[test]
    fn tree_predict_proba_into_matches_allocating(
        batches in proptest::collection::vec(labelled_batch(3, 3, 30), 1..5),
        probe in unit_vector(3),
    ) {
        let schema = StreamSchema::numeric("prop-into", 3, 3);
        let mut tree = DynamicModelTree::new(schema, DmtConfig::default());
        for (xs, ys) in &batches {
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            tree.learn_batch(&rows, ys);
        }
        let allocated = tree.predict_proba(&probe);
        let mut buffer = [f64::NAN; 3];
        tree.predict_proba_into(&probe, &mut buffer);
        for (a, b) in allocated.iter().zip(buffer.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(tree.predict(&probe), dmt::models::argmax(&allocated));
        // The batch entry point agrees with the per-instance path even for
        // a single-row batch.
        prop_assert_eq!(tree.predict_batch(&[&probe])[0], tree.predict(&probe));
    }

    // ---- arena compaction / memory-budget invariants -----------------------
    //
    // Compaction renumbers the arena into dense preorder; the budget ladder
    // drives it (plus pool-cap trims, candidate shedding and subtree merges)
    // whenever a tree runs over its byte budget. These properties pin the
    // bookkeeping over *random* structural histories — arbitrary
    // interleavings of splits and prunes, which is exactly the state space
    // drift adaptation explores.

    #[test]
    fn arena_compaction_preserves_predictions_over_random_histories(
        ops in proptest::collection::vec((0usize..4, 0usize..64, 0.0f64..1.0), 1..40),
        probes in proptest::collection::vec(unit_vector(3), 4),
    ) {
        let mut seed = 100u64;
        let (mut arena, root) = NodeArena::with_root(NodeStats::new(Glm::new_random(3, 2, seed)));
        for &(op, target, value) in &ops {
            let mut ids = Vec::new();
            arena.preorder_ids(root, &mut ids);
            if op != 3 {
                // Split a random leaf (three times as likely as a prune, so
                // histories actually grow).
                let leaves: Vec<_> = ids.iter().copied().filter(|&id| arena.is_leaf(id)).collect();
                let id = leaves[target % leaves.len()];
                seed += 2;
                arena.install_split(
                    id,
                    CandidateKey { feature: target % 3, value, is_nominal: false },
                    NodeStats::new(Glm::new_random(3, 2, seed)),
                    NodeStats::new(Glm::new_random(3, 2, seed + 1)),
                );
            } else {
                // Prune a random inner node back into a leaf.
                let inners: Vec<_> = ids.iter().copied().filter(|&id| !arena.is_leaf(id)).collect();
                if !inners.is_empty() {
                    arena.collapse_to_leaf(inners[target % inners.len()]);
                }
            }
        }
        // Slot bookkeeping before compaction: every slot is live or free,
        // never both, never neither.
        let live = arena.live_count(root);
        prop_assert_eq!(arena.num_slots(), live + arena.num_free());
        prop_assert!(arena.validate(root).is_ok(), "{:?}", arena.validate(root));

        let before: Vec<Vec<f64>> = probes
            .iter()
            .map(|p| SimpleModel::predict_proba(&arena.stats(arena.leaf_for(root, p)).model, p))
            .collect();
        let root = arena.compact(root);
        // Compaction yields a dense preorder arena: no free slots, the root
        // at slot zero, the live set unchanged, the structure still valid.
        prop_assert_eq!(root.index(), 0);
        prop_assert_eq!(arena.num_free(), 0);
        prop_assert_eq!(arena.num_slots(), live);
        prop_assert!(arena.validate(root).is_ok(), "{:?}", arena.validate(root));
        // Renumbering slots must not move a single bit of any prediction.
        for (probe, expected) in probes.iter().zip(before.iter()) {
            let after = SimpleModel::predict_proba(&arena.stats(arena.leaf_for(root, probe)).model, probe);
            prop_assert_eq!(expected.len(), after.len());
            for (a, b) in expected.iter().zip(after.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn budgeted_trees_stay_bounded_and_snapshots_round_trip(
        batches in proptest::collection::vec(labelled_batch(3, 2, 40), 2..7),
        budget_kib in 64usize..256,
    ) {
        let budget = budget_kib * 1024;
        let config = DmtConfig {
            memory_budget_bytes: Some(budget),
            ..DmtConfig::default()
        };
        let schema = StreamSchema::numeric("prop-budget", 3, 2);
        let mut tree = DynamicModelTree::new(schema, config);
        for (i, (xs, ys)) in batches.iter().enumerate() {
            // Alternate the label polarity between batches: sustained drift
            // keeps the tree restructuring while the ladder holds the line.
            let ys: Vec<usize> = if i % 2 == 0 {
                ys.clone()
            } else {
                ys.iter().map(|&y| 1 - y).collect()
            };
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            tree.learn_batch(&rows, &ys);
            prop_assert!(
                tree.memory_bytes() <= budget,
                "batch {}: {} bytes over the {} budget", i, tree.memory_bytes(), budget
            );
            prop_assert_eq!(tree.num_inner_nodes() + 1, tree.num_leaves());
        }
        // Budget enforcement (compaction included) must leave the snapshot
        // codec bit-stable: save → load → save is the identity on bytes, and
        // the restored tree predicts bit-identically.
        let bytes = tree.to_snapshot_bytes();
        let restored = DynamicModelTree::from_snapshot_bytes(&bytes).expect("snapshot restores");
        let second = restored.to_snapshot_bytes();
        prop_assert_eq!(&bytes, &second);
        let refetched = DynamicModelTree::from_snapshot_bytes(&second).expect("snapshot restores");
        prop_assert_eq!(&second, &refetched.to_snapshot_bytes());
        for probe in [[0.1, 0.5, 0.9], [0.7, 0.2, 0.4]] {
            let a = tree.predict_proba(&probe);
            let b = restored.predict_proba(&probe);
            for (va, vb) in a.iter().zip(b.iter()) {
                prop_assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    }

    #[test]
    fn linalg_into_helpers_are_bit_identical(
        a in proptest::collection::vec(-10.0f64..10.0, 1..20),
        b_seed in 0.0f64..1.0,
    ) {
        use dmt::models::linalg;
        let b: Vec<f64> = a.iter().enumerate().map(|(i, v)| v * b_seed + i as f64).collect();
        let allocated = linalg::sub(&a, &b);
        let mut out = vec![f64::NAN; a.len()];
        linalg::sub_into(&a, &b, &mut out);
        for (x, y) in allocated.iter().zip(out.iter()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        let norm_direct = linalg::sub_norm_sq(&a, &b);
        prop_assert_eq!(norm_direct.to_bits(), linalg::norm_sq(&allocated).to_bits());

        let soft_alloc = linalg::softmax(&a);
        let mut soft_out = vec![f64::NAN; a.len()];
        linalg::softmax_into(&a, &mut soft_out);
        for (x, y) in soft_alloc.iter().zip(soft_out.iter()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

#[test]
fn proptest_regressions_directory_is_not_required() {
    // Plain sanity check so the file also contains a non-proptest test: the
    // DMT built from the default config starts with exactly one leaf.
    let schema = StreamSchema::numeric("plain", 2, 2);
    let tree = DynamicModelTree::new(schema, DmtConfig::default());
    assert_eq!(tree.num_leaves(), 1);
    assert_eq!(tree.name(), "DMT");
}
