//! Tests of [`Glm`]'s multiclass shape, the multinomial logit (softmax) of
//! §V-A: one block of `m + 1` parameters per class, `c ≥ 3`.

use crate::{argmax, Glm, SimpleModel};

/// A 3-class problem with Gaussian-free deterministic structure:
/// class = index of the largest of three feature values.
fn three_class_batch(n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let a = ((i * 13) % 31) as f64 / 31.0;
        let b = ((i * 7) % 29) as f64 / 29.0;
        let c = ((i * 11) % 23) as f64 / 23.0;
        let x = vec![a, b, c];
        ys.push(argmax(&x));
        xs.push(x);
    }
    (xs, ys)
}

fn as_rows(xs: &[Vec<f64>]) -> Vec<&[f64]> {
    xs.iter().map(|v| v.as_slice()).collect()
}

#[test]
#[should_panic(expected = "at least two classes")]
fn rejects_single_class() {
    let _ = Glm::new_random(3, 1, 0);
}

#[test]
fn zero_model_predicts_uniform() {
    let model = Glm::new_zeros(4, 3);
    let p = model.predict_proba(&[0.1, 0.2, 0.3, 0.4]);
    for &pi in &p {
        assert!((pi - 1.0 / 3.0).abs() < 1e-12);
    }
}

#[test]
fn param_count_is_c_times_m_plus_one() {
    let model = Glm::new_zeros(10, 4);
    assert_eq!(model.num_params(), 4 * 11);
    assert_eq!(model.num_classes(), 4);
    assert_eq!(model.num_features(), 10);
}

#[test]
fn warm_start_copies_parent() {
    let mut parent = Glm::new_random(3, 3, 11);
    parent.sgd_step(&[&[0.1, 0.2, 0.3]], &[2], 0.05);
    let child = Glm::warm_start_from(&parent);
    assert_eq!(child.params(), parent.params());
    assert_eq!(child.num_classes(), 3);
    assert_eq!(parent.observations_seen(), 1);
    assert_eq!(child.observations_seen(), 0);
}

#[test]
fn sgd_reduces_loss_on_three_class_problem() {
    let (xs, ys) = three_class_batch(300);
    let rows = as_rows(&xs);
    let mut model = Glm::new_zeros(3, 3);
    let (initial, _) = model.loss_and_gradient(&rows, &ys);
    for _ in 0..400 {
        model.sgd_step(&rows, &ys, 0.5);
    }
    let (fin, _) = model.loss_and_gradient(&rows, &ys);
    assert!(fin < initial * 0.7, "loss {initial} -> {fin}");
}

#[test]
fn trained_model_beats_chance_substantially() {
    let (xs, ys) = three_class_batch(400);
    let rows = as_rows(&xs);
    let mut model = Glm::new_zeros(3, 3);
    for _ in 0..600 {
        model.sgd_step(&rows, &ys, 0.5);
    }
    let correct = rows
        .iter()
        .zip(ys.iter())
        .filter(|(x, &y)| model.predict(x) == y)
        .count();
    let accuracy = correct as f64 / rows.len() as f64;
    assert!(accuracy > 0.7, "accuracy {accuracy}");
}

#[test]
fn gradient_matches_finite_differences() {
    let (xs, ys) = three_class_batch(15);
    let rows = as_rows(&xs);
    let mut model = Glm::new_random(3, 3, 21);
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
fn proba_sums_to_one_after_training() {
    let (xs, ys) = three_class_batch(100);
    let rows = as_rows(&xs);
    let mut model = Glm::new_random(3, 3, 2);
    for _ in 0..50 {
        model.sgd_step(&rows, &ys, 0.1);
    }
    let p = model.predict_proba(&[0.9, 0.1, 0.2]);
    let sum: f64 = p.iter().sum();
    assert!((sum - 1.0).abs() < 1e-9);
}

#[test]
fn empty_batch_is_a_no_op() {
    let mut model = Glm::new_random(3, 4, 9);
    let before = model.params().to_vec();
    assert_eq!(model.sgd_step(&[], &[], 0.1), 0.0);
    assert_eq!(model.params(), before.as_slice());
    assert_eq!(model.observations_seen(), 0);
}

#[test]
fn class_weight_views_have_correct_length() {
    let model = Glm::new_random(5, 3, 1);
    for c in 0..3 {
        assert_eq!(model.class_weights(c).len(), 5);
        let _ = model.class_bias(c);
    }
    // Each class reads its own class-major block of `m + 1`.
    let mut model = Glm::new_zeros(2, 3);
    let params: Vec<f64> = (0..9).map(f64::from).collect();
    model.params_mut().copy_from_slice(&params);
    for c in 0..3 {
        assert_eq!(model.class_weights(c), &params[3 * c..3 * c + 2]);
        assert_eq!(model.class_bias(c), params[3 * c + 2]);
    }
}

#[test]
fn out_of_range_label_is_finite_loss() {
    let model = Glm::new_zeros(2, 3);
    let x: &[f64] = &[0.5, 0.5];
    let (loss, _) = model.loss_and_gradient(&[x], &[5]);
    assert!(loss.is_finite());
}
