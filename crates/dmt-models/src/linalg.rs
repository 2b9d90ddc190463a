//! Dense-vector and small dense-matrix kernels for the model layer.
//!
//! The models in this workspace are tiny (at most a few thousand parameters),
//! so hand-rolled kernels over `&[f64]` beat a full linear-algebra crate. The
//! hot reductions ([`dot`], [`axpy`], [`gemv_into`]) are written with a
//! fixed-width 8-lane unrolling: eight independent accumulators remove the
//! loop-carried floating-point dependency, which is what allows LLVM to
//! autovectorize `f64` sums without `-ffast-math`. All kernels are
//! deterministic — the lane split and the final pairwise reduction are fixed,
//! so results are reproducible across runs (they may differ from a naive
//! left-to-right sum by floating-point reassociation, but every caller in the
//! workspace goes through the same kernels, so the scalar and batched model
//! paths stay mutually bit-identical).
//!
//! Batched model updates view their row-major scratch buffers through
//! [`MatRef`]/[`MatMut`]: a contiguous `rows × cols` slice with zero-copy row
//! access. The Dynamic Model Tree gathers each node's routed sub-batch into
//! such a matrix once and then runs every per-row kernel over contiguous
//! memory.

/// Unroll width of the reduction kernels. Eight `f64` lanes fill two AVX2
/// registers (or one AVX-512 register) and are enough to hide FP add latency
/// on every x86-64 / aarch64 core the CI fleet uses.
pub const LANES: usize = 8;

/// An immutable row-major matrix view over a contiguous `f64` slice.
///
/// `data.len()` must equal `rows * cols`; rows are contiguous, so `row(i)` is
/// a plain sub-slice and iterating rows walks memory linearly.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
}

impl<'a> MatRef<'a> {
    /// Wrap a contiguous slice as a `rows × cols` row-major matrix.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    #[inline]
    pub fn new(data: &'a [f64], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "MatRef: shape mismatch");
        Self { data, rows, cols }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterator over the rows (contiguous slices, in order).
    #[inline]
    pub fn row_iter(&self) -> impl Iterator<Item = &'a [f64]> + '_ {
        // `chunks_exact(0)` would panic; a 0-column matrix has no data.
        self.data.chunks_exact(self.cols.max(1))
    }

    /// The underlying flat slice.
    #[inline]
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }
}

/// A mutable row-major matrix view over a contiguous `f64` slice.
#[derive(Debug)]
pub struct MatMut<'a> {
    data: &'a mut [f64],
    rows: usize,
    cols: usize,
}

impl<'a> MatMut<'a> {
    /// Wrap a contiguous mutable slice as a `rows × cols` row-major matrix.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    #[inline]
    pub fn new(data: &'a mut [f64], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "MatMut: shape mismatch");
        Self { data, rows, cols }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a contiguous mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a contiguous shared slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Reborrow as an immutable view.
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_> {
        MatRef {
            data: self.data,
            rows: self.rows,
            cols: self.cols,
        }
    }
}

/// Dot product `a · b`, 8-lane unrolled.
///
/// The reduction uses [`LANES`] independent accumulators over the unrollable
/// prefix, a scalar loop over the remainder and a fixed pairwise lane
/// reduction, so the result is deterministic for a given input length.
///
/// # Panics
/// Debug builds assert that both slices have the same length.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let split = a.len() - a.len() % LANES;
    let mut lanes = [0.0f64; LANES];
    for (ca, cb) in a[..split]
        .chunks_exact(LANES)
        .zip(b[..split].chunks_exact(LANES))
    {
        for l in 0..LANES {
            lanes[l] += ca[l] * cb[l];
        }
    }
    let mut tail = 0.0;
    for (x, y) in a[split..].iter().zip(b[split..].iter()) {
        tail += x * y;
    }
    let q0 = (lanes[0] + lanes[4]) + (lanes[1] + lanes[5]);
    let q1 = (lanes[2] + lanes[6]) + (lanes[3] + lanes[7]);
    (q0 + q1) + tail
}

/// In-place `y += alpha * x` (the BLAS "axpy" operation), 8-lane unrolled.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    let split = x.len() - x.len() % LANES;
    for (cy, cx) in y[..split]
        .chunks_exact_mut(LANES)
        .zip(x[..split].chunks_exact(LANES))
    {
        for l in 0..LANES {
            cy[l] += alpha * cx[l];
        }
    }
    for (yi, xi) in y[split..].iter_mut().zip(x[split..].iter()) {
        *yi += alpha * xi;
    }
}

/// In-place element-wise addition `y += x`.
#[inline]
pub fn add_assign(y: &mut [f64], x: &[f64]) {
    debug_assert_eq!(x.len(), y.len(), "add_assign: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += xi;
    }
}

/// Dense matrix–vector product written into `out`: `out[i] = a.row(i) · x`.
///
/// Each row product goes through the unrolled [`dot`] kernel, so a batched
/// caller gets bit-identical scores to per-row `dot` calls.
#[inline]
pub fn gemv_into(a: MatRef<'_>, x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.rows(), out.len(), "gemv_into: output length mismatch");
    for (o, row) in out.iter_mut().zip(a.row_iter()) {
        *o = dot(row, x);
    }
}

/// Affine matrix–vector product for class-major GLM parameter blocks:
/// `out[c] = w.row(c)[..m] · x + w.row(c)[m]` where `m = x.len()`.
///
/// This is the batched form of the per-class "weights · features + bias"
/// score used by the softmax model (`w` has `m + 1` columns, the last being
/// the intercept).
#[inline]
pub fn gemv_bias_into(w: MatRef<'_>, x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(w.cols(), x.len() + 1, "gemv_bias_into: column mismatch");
    debug_assert_eq!(w.rows(), out.len(), "gemv_bias_into: output mismatch");
    let m = x.len();
    for (o, row) in out.iter_mut().zip(w.row_iter()) {
        *o = dot(&row[..m], x) + row[m];
    }
}

/// Element-wise difference `a - b` as a new vector.
///
/// Allocation-free callers should prefer [`sub_into`].
#[inline]
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x - y).collect()
}

/// Element-wise difference written into a caller-provided buffer:
/// `out[i] = a[i] - b[i]`.
#[inline]
pub fn sub_into(a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len(), "sub_into: length mismatch");
    debug_assert_eq!(a.len(), out.len(), "sub_into: output length mismatch");
    for ((o, x), y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = x - y;
    }
}

/// Squared Euclidean norm of the element-wise difference `||a - b||²`,
/// computed without materialising the difference (8-lane unrolled).
#[inline]
pub fn sub_norm_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "sub_norm_sq: length mismatch");
    let split = a.len() - a.len() % LANES;
    let mut lanes = [0.0f64; LANES];
    for (ca, cb) in a[..split]
        .chunks_exact(LANES)
        .zip(b[..split].chunks_exact(LANES))
    {
        for l in 0..LANES {
            let d = ca[l] - cb[l];
            lanes[l] += d * d;
        }
    }
    let mut tail = 0.0;
    for (x, y) in a[split..].iter().zip(b[split..].iter()) {
        let d = x - y;
        tail += d * d;
    }
    let q0 = (lanes[0] + lanes[4]) + (lanes[1] + lanes[5]);
    let q1 = (lanes[2] + lanes[6]) + (lanes[3] + lanes[7]);
    (q0 + q1) + tail
}

/// Squared Euclidean norm `||v||²` (shares the [`sub_norm_sq`] lane layout
/// via `dot(v, v)`).
#[inline]
pub fn norm_sq(v: &[f64]) -> f64 {
    dot(v, v)
}

/// Euclidean norm `||v||`.
#[inline]
pub fn norm(v: &[f64]) -> f64 {
    norm_sq(v).sqrt()
}

/// Scale a vector in place: `v *= alpha`.
#[inline]
pub fn scale(v: &mut [f64], alpha: f64) {
    for x in v.iter_mut() {
        *x *= alpha;
    }
}

/// Exponent cutoff below which `exp` is treated as exactly zero. `exp(z)`
/// underflows to a *subnormal* for `z ∈ (−745, −708)`; subnormal arithmetic
/// traps into microcode on x86 (~100 cycles per op), which visibly stalls the
/// saturated-model hot path. `exp(−708) ≈ 3e−308` is already indistinguishable
/// from zero for every consumer in this workspace (probabilities are clamped
/// to `1e−15` before any logarithm).
const EXP_UNDERFLOW: f64 = -708.0;

/// Numerically stable logistic sigmoid `1 / (1 + e^{-z})`.
///
/// Uses the two-branch formulation to avoid overflow of `exp` for large
/// `|z|`, and flushes the subnormal underflow range of `exp` to zero (see
/// `EXP_UNDERFLOW`) so saturated models do not pay the denormal penalty.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        let e = if -z < EXP_UNDERFLOW { 0.0 } else { (-z).exp() };
        1.0 / (1.0 + e)
    } else {
        let e = if z < EXP_UNDERFLOW { 0.0 } else { z.exp() };
        e / (1.0 + e)
    }
}

/// Numerically stable softmax over the logits, returning a probability vector.
///
/// Subtracts the maximum logit before exponentiation. Returns the uniform
/// distribution for an empty input. Allocation-free callers should prefer
/// [`softmax_in_place`] (or [`softmax_into`] when the logits must survive).
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let mut out = logits.to_vec();
    softmax_in_place(&mut out);
    out
}

/// Numerically stable softmax computed in place: `values` holds logits on
/// entry and the corresponding probability vector on exit.
pub fn softmax_in_place(values: &mut [f64]) {
    if values.is_empty() {
        return;
    }
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in values.iter_mut() {
        let z = *v - max;
        *v = if z < EXP_UNDERFLOW { 0.0 } else { z.exp() };
        sum += *v;
    }
    if sum > 0.0 && sum.is_finite() {
        for v in values.iter_mut() {
            *v /= sum;
        }
    } else {
        let uniform = 1.0 / values.len() as f64;
        for v in values.iter_mut() {
            *v = uniform;
        }
    }
}

/// Numerically stable softmax written into a caller-provided buffer.
pub fn softmax_into(logits: &[f64], out: &mut [f64]) {
    debug_assert_eq!(logits.len(), out.len(), "softmax_into: length mismatch");
    out.copy_from_slice(logits);
    softmax_in_place(out);
}

/// Clamp a probability away from 0 and 1 so that `ln` stays finite.
///
/// The clamping constant (1e-15) matches common practice in streaming-ML
/// libraries and keeps per-instance negative log-likelihood below ~34.5.
#[inline]
pub fn clamp_proba(p: f64) -> f64 {
    p.clamp(1e-15, 1.0 - 1e-15)
}

/// Numerically stable `log(1 + e^{z})` (softplus), used by the binary logit
/// negative log-likelihood.
#[inline]
pub fn log1p_exp(z: f64) -> f64 {
    if z > 35.0 {
        // e^{-z} is negligible; log(1 + e^z) ≈ z.
        z
    } else if z < -35.0 {
        // e^{z} is negligible; log(1 + e^z) ≈ e^z ≈ 0.
        z.exp()
    } else {
        z.exp().ln_1p()
    }
}

/// `(log1p_exp(z), sigmoid(z))` in one call, bit-identical to the two
/// separate calls. For `z < 0` both of them read `e^z`, so it is computed
/// once; every other `z` (`±0`, positive, NaN) takes the separate calls,
/// which use `e^z` and `e^{−z}` respectively.
#[inline]
pub fn log1p_exp_sigmoid(z: f64) -> (f64, f64) {
    if z < 0.0 {
        let e = z.exp();
        let softplus = if z < -35.0 { e } else { e.ln_1p() };
        let p = if z < EXP_UNDERFLOW {
            0.0
        } else {
            e / (1.0 + e)
        };
        (softplus, p)
    } else {
        (log1p_exp(z), sigmoid(z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn dot_basic() {
        assert!((dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]) - 32.0).abs() < EPS);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_matches_naive_sum_across_lengths() {
        // Exercise every remainder class around the 8-lane unroll boundary.
        for n in 0..40usize {
            let a: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25 - 3.0).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.5 - (i as f64) * 0.125).collect();
            let naive: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - naive).abs() < 1e-9, "n={n}");
        }
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn axpy_matches_scalar_update_across_lengths() {
        for n in 0..40usize {
            let x: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 2.0).collect();
            let mut y: Vec<f64> = (0..n).map(|i| 1.0 - i as f64).collect();
            let mut expected = y.clone();
            for (e, xi) in expected.iter_mut().zip(x.iter()) {
                *e += -0.75 * xi;
            }
            axpy(-0.75, &x, &mut y);
            for (a, b) in y.iter().zip(expected.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn mat_ref_rows_are_contiguous_views() {
        let data: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let m = MatRef::new(&data, 3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(!m.is_empty());
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0, 7.0]);
        let collected: Vec<&[f64]> = m.row_iter().collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[2], &[8.0, 9.0, 10.0, 11.0]);
        assert_eq!(m.as_slice().len(), 12);
    }

    #[test]
    fn mat_mut_rows_are_writable() {
        let mut data = vec![0.0; 6];
        let mut m = MatMut::new(&mut data, 2, 3);
        m.row_mut(1).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
        assert_eq!(m.as_ref().row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(data[5], 3.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mat_ref_rejects_wrong_shape() {
        let data = vec![0.0; 5];
        let _ = MatRef::new(&data, 2, 3);
    }

    #[test]
    fn gemv_matches_per_row_dot() {
        let data: Vec<f64> = (0..20).map(|i| (i as f64) * 0.3 - 2.0).collect();
        let a = MatRef::new(&data, 4, 5);
        let x = [0.5, -1.0, 2.0, 0.25, -0.125];
        let mut out = [0.0; 4];
        gemv_into(a, &x, &mut out);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.to_bits(), dot(a.row(i), &x).to_bits());
        }
    }

    #[test]
    fn gemv_bias_adds_the_intercept_column() {
        // 2 classes over 3 features: rows are [w0 w1 w2 b].
        let w = [1.0, 0.0, 0.0, 10.0, 0.0, 1.0, 0.0, -10.0];
        let m = MatRef::new(&w, 2, 4);
        let x = [2.0, 3.0, 4.0];
        let mut out = [0.0; 2];
        gemv_bias_into(m, &x, &mut out);
        assert!((out[0] - 12.0).abs() < EPS);
        assert!((out[1] + 7.0).abs() < EPS);
    }

    #[test]
    fn add_assign_and_sub_are_inverses() {
        let a = vec![1.0, -2.0, 3.5];
        let b = vec![0.5, 0.25, -1.0];
        let mut c = a.clone();
        add_assign(&mut c, &b);
        let back = sub(&c, &b);
        for (x, y) in back.iter().zip(a.iter()) {
            assert!((x - y).abs() < EPS);
        }
    }

    #[test]
    fn norms() {
        assert!((norm_sq(&[3.0, 4.0]) - 25.0).abs() < EPS);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < EPS);
        assert_eq!(norm(&[]), 0.0);
    }

    #[test]
    fn norm_sq_agrees_with_sub_norm_sq() {
        let a: Vec<f64> = (0..23).map(|i| (i as f64) * 0.1).collect();
        let b: Vec<f64> = (0..23).map(|i| 2.0 - (i as f64) * 0.05).collect();
        let diff = sub(&a, &b);
        assert_eq!(sub_norm_sq(&a, &b).to_bits(), norm_sq(&diff).to_bits());
    }

    #[test]
    fn scale_in_place() {
        let mut v = vec![1.0, -2.0];
        scale(&mut v, -3.0);
        assert_eq!(v, vec![-3.0, 6.0]);
    }

    #[test]
    fn sigmoid_is_stable_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < EPS);
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(1000.0) > 0.999);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!(sigmoid(-1000.0) < 1e-3);
        // sigmoid(-z) = 1 - sigmoid(z)
        for &z in &[-3.0, -0.5, 0.0, 0.5, 3.0] {
            assert!((sigmoid(-z) - (1.0 - sigmoid(z))).abs() < 1e-12);
        }
    }

    #[test]
    fn sub_into_matches_sub_bit_for_bit() {
        let a = [1.0, -2.5, 3.125, 1e-300];
        let b = [0.5, 0.25, -1.0, 2e-300];
        let allocated = sub(&a, &b);
        let mut out = [0.0; 4];
        sub_into(&a, &b, &mut out);
        for (x, y) in allocated.iter().zip(out.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert!((sub_norm_sq(&a, &b) - norm_sq(&allocated)).abs() < 1e-12);
    }

    #[test]
    fn softmax_into_matches_softmax_bit_for_bit() {
        for logits in [vec![1.0, 2.0, 3.0], vec![0.0], vec![-1e6, 0.0, 1e6]] {
            let allocated = softmax(&logits);
            let mut out = vec![0.0; logits.len()];
            softmax_into(&logits, &mut out);
            for (x, y) in allocated.iter().zip(out.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn softmax_sums_to_one_and_orders_correctly() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_handles_extreme_logits() {
        let p = softmax(&[1e6, 0.0, -1e6]);
        assert!((p[0] - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&x| x.is_finite()));
    }

    #[test]
    fn softmax_of_empty_is_empty() {
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn softmax_of_equal_logits_is_uniform() {
        let p = softmax(&[2.0, 2.0, 2.0, 2.0]);
        for &x in &p {
            assert!((x - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn clamp_proba_keeps_ln_finite() {
        assert!(clamp_proba(0.0).ln().is_finite());
        assert!(clamp_proba(1.0).ln().is_finite());
        assert_eq!(clamp_proba(0.5), 0.5);
    }

    #[test]
    fn log1p_exp_matches_naive_in_safe_range() {
        for &z in &[-20.0f64, -1.0, 0.0, 1.0, 20.0] {
            let naive = (1.0 + z.exp()).ln();
            assert!((log1p_exp(z) - naive).abs() < 1e-9, "z={z}");
        }
    }

    #[test]
    fn log1p_exp_is_finite_for_extreme_inputs() {
        assert!(log1p_exp(1e4).is_finite());
        assert!(log1p_exp(-1e4).is_finite());
        assert!((log1p_exp(1e4) - 1e4).abs() < 1e-9);
        assert!(log1p_exp(-1e4).abs() < 1e-9);
    }

    #[test]
    fn fused_softplus_sigmoid_is_bit_identical_to_separate_calls() {
        use rand::{Rng, SeedableRng};
        // Every branch edge of both functions, one ulp either side.
        let edges = [0.0, 35.0, -35.0, EXP_UNDERFLOW, -745.0, 1.0];
        let mut zs = vec![
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            -5e-324,
        ];
        for edge in edges {
            zs.extend([edge.next_down(), edge, edge.next_up()]);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        zs.extend((0..10_000).map(|_| rng.gen_range(-800.0..800.0)));
        zs.extend((0..10_000).map(|_| rng.gen_range(-40.0..40.0)));
        for z in zs {
            let (softplus, p) = log1p_exp_sigmoid(z);
            assert_eq!(
                softplus.to_bits(),
                log1p_exp(z).to_bits(),
                "softplus at {z:e}"
            );
            assert_eq!(p.to_bits(), sigmoid(z).to_bits(), "sigmoid at {z:e}");
        }
    }
}
