//! Tests of [`Glm`]'s binary shape, the logit of §V-A: `m + 1` parameters
//! `[w_1, ..., w_m, b]` and `P(y = 1 | x) = σ(w·x + b)`.

use crate::linalg::sigmoid;
use crate::{Glm, SimpleModel};

/// Build a linearly separable 2-feature batch: class 1 iff x0 + x1 > 1.
fn separable_batch(n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let a = (i % 17) as f64 / 17.0;
        let b = ((i * 7) % 13) as f64 / 13.0;
        xs.push(vec![a, b]);
        ys.push(usize::from(a + b > 1.0));
    }
    (xs, ys)
}

fn as_rows(xs: &[Vec<f64>]) -> Vec<&[f64]> {
    xs.iter().map(|v| v.as_slice()).collect()
}

#[test]
fn zero_model_predicts_half() {
    let model = Glm::new_zeros(3, 2);
    let p = model.predict_proba(&[0.2, 0.4, 0.6]);
    assert!((p[0] - 0.5).abs() < 1e-12);
    assert!((p[1] - 0.5).abs() < 1e-12);
}

#[test]
fn random_init_is_deterministic_per_seed() {
    let a = Glm::new_random(5, 2, 42);
    let b = Glm::new_random(5, 2, 42);
    let c = Glm::new_random(5, 2, 43);
    assert_eq!(a.params(), b.params());
    assert_ne!(a.params(), c.params());
    assert!(a.params().iter().all(|p| (-0.1..0.1).contains(p)));
}

#[test]
fn warm_start_copies_parent_parameters() {
    let mut parent = Glm::new_random(4, 2, 1);
    parent.sgd_step(&[&[0.1, 0.2, 0.3, 0.4]], &[1], 0.05);
    parent.params_mut()[0] = 3.5;
    let child = Glm::warm_start_from(&parent);
    assert_eq!(child.params(), parent.params());
    assert_eq!(child.num_classes(), 2);
    assert_eq!(parent.observations_seen(), 1);
    assert_eq!(child.observations_seen(), 0);
}

#[test]
fn sgd_reduces_loss_on_separable_data() {
    let (xs, ys) = separable_batch(200);
    let rows = as_rows(&xs);
    let mut model = Glm::new_zeros(2, 2);
    let (initial_loss, _) = model.loss_and_gradient(&rows, &ys);
    for _ in 0..300 {
        model.sgd_step(&rows, &ys, 0.5);
    }
    let (final_loss, _) = model.loss_and_gradient(&rows, &ys);
    assert!(
        final_loss < initial_loss * 0.5,
        "loss did not decrease: {initial_loss} -> {final_loss}"
    );
}

#[test]
fn trained_model_classifies_separable_data_well() {
    let (xs, ys) = separable_batch(300);
    let rows = as_rows(&xs);
    let mut model = Glm::new_zeros(2, 2);
    for _ in 0..500 {
        model.sgd_step(&rows, &ys, 0.5);
    }
    let correct = rows
        .iter()
        .zip(ys.iter())
        .filter(|(x, &y)| model.predict(x) == y)
        .count();
    assert!(
        correct as f64 / rows.len() as f64 > 0.9,
        "accuracy too low: {correct}/{}",
        rows.len()
    );
}

#[test]
fn gradient_matches_finite_differences() {
    let (xs, ys) = separable_batch(20);
    let rows = as_rows(&xs);
    let mut model = Glm::new_random(2, 2, 7);
    let (_, grad) = model.loss_and_gradient(&rows, &ys);
    let h = 1e-6;
    #[allow(clippy::needless_range_loop)] // `i` indexes params and grad in lockstep
    for i in 0..model.num_params() {
        let orig = model.params()[i];
        model.params_mut()[i] = orig + h;
        let (lp, _) = model.loss_and_gradient(&rows, &ys);
        model.params_mut()[i] = orig - h;
        let (lm, _) = model.loss_and_gradient(&rows, &ys);
        model.params_mut()[i] = orig;
        let numeric = (lp - lm) / (2.0 * h);
        assert!(
            (numeric - grad[i]).abs() < 1e-4,
            "param {i}: numeric {numeric} vs analytic {}",
            grad[i]
        );
    }
}

#[test]
fn loss_is_sum_not_mean() {
    let (xs, ys) = separable_batch(10);
    let rows = as_rows(&xs);
    let model = Glm::new_random(2, 2, 3);
    let (full, _) = model.loss_and_gradient(&rows, &ys);
    let mut acc = 0.0;
    for (x, &y) in rows.iter().zip(ys.iter()) {
        let (one, _) = model.loss_and_gradient(&[x], &[y]);
        acc += one;
    }
    assert!((full - acc).abs() < 1e-9);
}

#[test]
fn empty_batch_is_a_no_op() {
    let mut model = Glm::new_random(2, 2, 5);
    let before = model.params().to_vec();
    let loss = model.sgd_step(&[], &[], 0.1);
    assert_eq!(loss, 0.0);
    assert_eq!(model.params(), before.as_slice());
    assert_eq!(model.observations_seen(), 0);
}

#[test]
fn observations_seen_accumulates() {
    let (xs, ys) = separable_batch(30);
    let rows = as_rows(&xs);
    let mut model = Glm::new_zeros(2, 2);
    model.sgd_step(&rows[..10], &ys[..10], 0.05);
    model.sgd_step(&rows[10..30], &ys[10..30], 0.05);
    assert_eq!(model.observations_seen(), 30);
}

#[test]
fn weights_and_bias_views() {
    // A binary logit has one weight vector, returned for either class.
    let mut model = Glm::new_zeros(2, 2);
    model.params_mut().copy_from_slice(&[1.0, 2.0, -0.5]);
    for class in 0..2 {
        assert_eq!(model.class_weights(class), &[1.0, 2.0]);
        assert_eq!(model.class_bias(class), -0.5);
    }
    // The score at (1, 1) is w·x + b = 2.5.
    let p = model.predict_proba(&[1.0, 1.0]);
    assert!((p[1] - sigmoid(2.5)).abs() < 1e-12);
}
