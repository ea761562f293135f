//! Fused neural-network operations: batch normalization, training loss,
//! and the paper's attack objectives (Eq. 6, 7, 8).

use crate::tape::{Ix, Op, Tape, Value, Var};
use colper_tensor::{kernels, Act, Matrix};
use std::sync::Arc;

impl Tape {
    /// Batch normalization in training mode over the row (batch) axis.
    ///
    /// `x` is `[N,C]`, `gamma` and `beta` are `[1,C]`. Returns the
    /// normalized, scaled and shifted activations along with the batch mean
    /// and variance (so the caller can update running statistics).
    ///
    /// Gradients flow to `x`, `gamma` and `beta`.
    ///
    /// # Panics
    ///
    /// Panics when shapes are inconsistent or `x` has no rows.
    pub fn batch_norm_train(
        &mut self,
        x: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
    ) -> (Var, Matrix, Matrix) {
        let (n, c) = self.value(x).shape();
        assert!(n > 0, "batch_norm_train: empty batch");
        assert_eq!(self.value(gamma).shape(), (1, c), "batch_norm_train: gamma shape");
        assert_eq!(self.value(beta).shape(), (1, c), "batch_norm_train: beta shape");

        // Mean and variance escape the tape (the caller folds them into
        // running statistics), so they are plain allocations, not pooled.
        let mut var = Matrix::zeros(1, c);
        let mut diff = Matrix::zeros(1, c);
        let mean = {
            let xv = self.value(x);
            let mean = xv.mean_rows();
            kernels::count_dispatch(2 * n);
            for r in 0..n {
                kernels::sub(xv.row(r), mean.row(0), diff.row_mut(0));
                kernels::add_prod_assign(var.row_mut(0), diff.row(0), diff.row(0));
            }
            mean
        };
        var.map_inplace(|v| v / n as f32);
        let mut inv_std = self.alloc(1, c);
        var.map_into(&mut inv_std, |v| 1.0 / (v + eps).sqrt());

        let mut xhat = self.alloc(n, c);
        {
            let xv = self.value(x);
            kernels::count_dispatch(2 * n);
            for r in 0..n {
                let row = xhat.row_mut(r);
                kernels::sub(xv.row(r), mean.row(0), row);
                kernels::mul_assign(row, inv_std.row(0));
            }
        }
        let mut out = self.alloc(n, c);
        {
            let gammav = self.value(gamma);
            let betav = self.value(beta);
            kernels::count_dispatch(n);
            for r in 0..n {
                kernels::mul_add(xhat.row(r), gammav.row(0), betav.row(0), out.row_mut(r));
            }
        }
        let v = self.push(out, Op::BatchNorm { x, gamma, beta, xhat, inv_std });
        (v, mean, var)
    }

    /// Eval-mode batch normalization fused with its activation:
    /// `act(x * scale + shift)` for `[1,C]` rows `scale` and `shift`,
    /// recorded as one op.
    ///
    /// Per element this is exactly `mul_row(x, scale)`, `add_row(_, shift)`
    /// and the activation recorded one after another — a rounding after
    /// the product and another after the sum, never a fused multiply-add —
    /// and so is its backward: the input's gradient is
    /// `(gy * act'(y)) * scale`, and the rows' gradients (when they require
    /// one) reduce `gy * act'(y)` as the unfused arms do. One pass replaces
    /// three, forward and backward, and one output buffer replaces three.
    ///
    /// # Panics
    ///
    /// Panics when `scale` or `shift` is not a single row of `x`'s width,
    /// or a leaky slope is not positive (the backward tests the output
    /// `y > 0`, which matches the pre-activation test only for a positive
    /// slope).
    pub fn affine_act(&mut self, x: Var, scale: Var, shift: Var, act: Act) -> Var {
        let (rows, cols) = self.value(x).shape();
        assert_eq!(self.value(scale).shape(), (1, cols), "affine_act: scale must be one row");
        assert_eq!(self.value(shift).shape(), (1, cols), "affine_act: shift must be one row");
        if let Act::LeakyRelu(alpha) = act {
            assert!(alpha > 0.0, "affine_act: leaky slope must be positive, got {alpha}");
        }
        self.record((rows, cols), Op::AffineAct { x, scale, shift, act })
    }

    /// Mean softmax cross-entropy over rows: `logits` is `[N,C]`, `labels`
    /// holds one class index per row. Returns a `1x1` scalar.
    ///
    /// # Panics
    ///
    /// Panics when `labels.len() != N` or a label is out of range.
    pub fn softmax_cross_entropy(&mut self, logits: Var, labels: &[usize]) -> Var {
        let (n, c) = self.value(logits).shape();
        assert_eq!(labels.len(), n, "softmax_cross_entropy: {n} rows vs {} labels", labels.len());
        assert!(labels.iter().all(|&y| y < c), "softmax_cross_entropy: label out of range");

        let softmax = self.scratch(n, c);
        let labels = self.pooled_idx_copy(labels);
        self.record((1, 1), Op::SoftmaxCrossEntropy { logits, labels, softmax })
    }

    /// The paper's targeted adversarial loss (Eq. 7):
    /// `sum_i max(max_{j != y_i} Z_j - Z_{y_i}, 0)` over the rows where
    /// `mask` is true. Minimizing drives each masked point's prediction
    /// *toward* its target label `labels[i]`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or out-of-range labels.
    pub fn cw_targeted(&mut self, logits: Var, labels: &[usize], mask: &[bool]) -> Var {
        self.cw_hinge(logits, labels, mask, true)
    }

    /// The paper's non-targeted adversarial loss (Eq. 8):
    /// `sum_i max(Z_{y_i} - max_{j != y_i} Z_j, 0)` over the rows where
    /// `mask` is true. Minimizing drives each masked point's prediction
    /// *away from* its ground-truth label `labels[i]`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or out-of-range labels.
    pub fn cw_nontargeted(&mut self, logits: Var, labels: &[usize], mask: &[bool]) -> Var {
        self.cw_hinge(logits, labels, mask, false)
    }

    fn cw_hinge(&mut self, logits: Var, labels: &[usize], mask: &[bool], targeted: bool) -> Var {
        let (n, c) = self.value(logits).shape();
        assert_eq!(labels.len(), n, "cw_hinge: {n} rows vs {} labels", labels.len());
        assert_eq!(mask.len(), n, "cw_hinge: {n} rows vs {} mask entries", mask.len());
        assert!(labels.iter().all(|&y| y < c), "cw_hinge: label out of range");
        assert!(c >= 2, "cw_hinge: needs at least two classes");

        let labels = self.pooled_idx_copy(labels);
        let mask = self.pooled_mask_copy(mask);
        let active = self.take_tri();
        self.record((1, 1), Op::CwHinge { logits, labels, mask, targeted, active })
    }

    /// The paper's smoothness penalty (Eq. 6):
    /// `S(X') = sum_i sum_{j in NB(i, alpha)} ||x'_i - x'_j||_2`
    /// where each `x'` is the concatenation of its (fixed) coordinates and
    /// its (perturbed) colors. `neighbors` is a flattened `[N*k]` index
    /// list from a fixed k-NN graph over the coordinates; gradients flow to
    /// `colors` only.
    ///
    /// # Panics
    ///
    /// Panics when `coords.rows() != colors.rows()` or `neighbors.len() !=
    /// N*k`.
    pub fn smoothness(
        &mut self,
        colors: Var,
        coords: &Matrix,
        neighbors: &[usize],
        k: usize,
    ) -> Var {
        self.check_smoothness(colors, coords, neighbors, k);
        let coords = Value::Owned(self.alloc_copy(coords));
        let neighbors = Ix::Owned(self.pooled_idx_copy(neighbors));
        let lengths = self.take_w();
        self.record((1, 1), Op::Smoothness { colors, coords, neighbors, k, lengths })
    }

    /// [`Tape::smoothness`] with interned (`Arc`-shared) coordinates and
    /// neighbor list, as recorded once per cloud by an attack plan.
    ///
    /// # Panics
    ///
    /// Panics when `coords.rows() != colors.rows()` or `neighbors.len() !=
    /// N*k`.
    pub fn smoothness_shared(
        &mut self,
        colors: Var,
        coords: Arc<Matrix>,
        neighbors: Arc<[usize]>,
        k: usize,
    ) -> Var {
        self.check_smoothness(colors, &coords, &neighbors, k);
        let (coords, neighbors) = (Value::Shared(coords), Ix::Shared(neighbors));
        let lengths = self.take_w();
        self.record((1, 1), Op::Smoothness { colors, coords, neighbors, k, lengths })
    }

    fn check_smoothness(&self, colors: Var, coords: &Matrix, neighbors: &[usize], k: usize) {
        assert!(k > 0, "smoothness: k must be positive");
        let n = self.value(colors).rows();
        assert_eq!(coords.rows(), n, "smoothness: coords/colors row mismatch");
        assert_eq!(neighbors.len(), n * k, "smoothness: neighbor list must be N*k");
        assert!(neighbors.iter().all(|&i| i < n), "smoothness: neighbor index out of bounds");
    }
}

/// The smoothness penalty (Eq. 6): writes every edge's joint
/// xyz + color length into `lengths` (edge `i * k + j` joins point `i`
/// and its `j`-th neighbor) and returns their sum in edge order. Each
/// squared length adds the coordinate terms, then the color terms, in
/// ascending dimension order.
pub(crate) fn smoothness_forward(
    colors: &Matrix,
    coords: &Matrix,
    (neighbors, k): (&[usize], usize),
    lengths: &mut Vec<f32>,
) -> f32 {
    let (xs, cs) = (coords.as_slice(), colors.as_slice());
    let (xd, cd) = (coords.cols(), colors.cols());
    let add_sq_diffs = |acc: f32, a: &[f32], b: &[f32]| {
        a.iter().zip(b).fold(acc, |acc, (&u, &v)| {
            let d = u - v;
            acc + d * d
        })
    };
    lengths.clear();
    let mut total = 0.0f32;
    for (i, nbrs) in neighbors.chunks_exact(k).enumerate() {
        for &nb in nbrs {
            let d2 = add_sq_diffs(0.0, &xs[i * xd..i * xd + xd], &xs[nb * xd..nb * xd + xd]);
            let d2 = add_sq_diffs(d2, &cs[i * cd..i * cd + cd], &cs[nb * cd..nb * cd + cd]);
            let length = d2.sqrt();
            lengths.push(length);
            total += length;
        }
    }
    total
}

/// The smoothness penalty's backward into the colors: `g` (zeros on
/// entry) receives `s * (c_i - c_j) / max(length, 1e-8)` at point `i`
/// and its negation at neighbor `j`, edge by edge in the forward's
/// order, reading each length the forward saved.
pub(crate) fn smoothness_backward(
    colors: &Matrix,
    (neighbors, k): (&[usize], usize),
    lengths: &[f32],
    s: f32,
    g: &mut Matrix,
) {
    let cd = colors.cols();
    let (cs, gs) = (colors.as_slice(), g.as_mut_slice());
    let edges = neighbors.chunks_exact(k).zip(lengths.chunks_exact(k));
    for (i, (nbrs, lens)) in edges.enumerate() {
        for (&nb, &length) in nbrs.iter().zip(lens) {
            let dist = length.max(1e-8);
            for d in 0..cd {
                let (pi, pn) = (i * cd + d, nb * cd + d);
                let dd = (cs[pi] - cs[pn]) / dist;
                gs[pi] += s * dd;
                gs[pn] -= s * dd;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_gradient;

    fn mat(rows: &[&[f32]]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn batch_norm_normalizes() {
        let mut t = Tape::new();
        let x = t.leaf(mat(&[&[1.0, 10.0], &[3.0, 20.0], &[5.0, 30.0]]));
        let g = t.leaf(Matrix::ones(1, 2));
        let b = t.leaf(Matrix::zeros(1, 2));
        let (y, mean, var) = t.batch_norm_train(x, g, b, 1e-5);
        assert!((mean[(0, 0)] - 3.0).abs() < 1e-5);
        assert!((var[(0, 1)] - 200.0 / 3.0).abs() < 1e-3);
        let out = t.value(y);
        // Output is zero-mean, unit-variance per column.
        let m0 = (out[(0, 0)] + out[(1, 0)] + out[(2, 0)]) / 3.0;
        assert!(m0.abs() < 1e-5);
    }

    #[test]
    fn batch_norm_input_gradient_matches_numeric() {
        let x0 = mat(&[&[1.0, -2.0], &[0.5, 3.0], &[-1.5, 0.0], &[2.0, 1.0]]);
        let report = check_gradient(&x0, |t, x| {
            let g = t.constant(mat(&[&[1.5, 0.5]]));
            let b = t.constant(mat(&[&[0.1, -0.2]]));
            let (y, _, _) = t.batch_norm_train(x, g, b, 1e-5);
            let z = t.square(y);
            t.sum(z)
        });
        assert!(report.max_abs_err < 5e-2, "{report:?}");
    }

    #[test]
    fn batch_norm_gamma_beta_gradients_match_numeric() {
        let g0 = mat(&[&[1.5, 0.5]]);
        let report = check_gradient(&g0, |t, g| {
            let x = t.constant(mat(&[&[1.0, -2.0], &[0.5, 3.0], &[-1.5, 0.0]]));
            let b = t.constant(mat(&[&[0.1, -0.2]]));
            let (y, _, _) = t.batch_norm_train(x, g, b, 1e-5);
            let z = t.square(y);
            t.sum(z)
        });
        assert!(report.max_abs_err < 5e-2, "gamma: {report:?}");
    }

    #[test]
    fn cross_entropy_decreases_with_correct_logits() {
        let mut t = Tape::new();
        let good = t.leaf(mat(&[&[5.0, 0.0], &[0.0, 5.0]]));
        let l_good = t.softmax_cross_entropy(good, &[0, 1]);
        let bad = t.leaf(mat(&[&[0.0, 5.0], &[5.0, 0.0]]));
        let l_bad = t.softmax_cross_entropy(bad, &[0, 1]);
        assert!(t.value(l_good)[(0, 0)] < t.value(l_bad)[(0, 0)]);
    }

    #[test]
    fn cross_entropy_gradient_matches_numeric() {
        let x0 = mat(&[&[0.5, -1.0, 0.2], &[2.0, 0.0, -0.5]]);
        let report = check_gradient(&x0, |t, x| t.softmax_cross_entropy(x, &[2, 0]));
        assert!(report.max_abs_err < 2e-2, "{report:?}");
    }

    #[test]
    fn cw_targeted_zero_when_target_wins() {
        let mut t = Tape::new();
        let z = t.leaf(mat(&[&[5.0, 0.0, 0.0]]));
        let loss = t.cw_targeted(z, &[0], &[true]);
        assert_eq!(t.value(loss)[(0, 0)], 0.0);
    }

    #[test]
    fn cw_targeted_positive_and_decreasing_toward_target() {
        let mut t = Tape::new();
        let z = t.leaf(mat(&[&[0.0, 3.0, 1.0]]));
        let loss = t.cw_targeted(z, &[0], &[true]);
        assert_eq!(t.value(loss)[(0, 0)], 3.0);
        t.backward(loss);
        let g = t.grad(z).unwrap();
        // Gradient descent lowers the runner-up (col 1) and raises target (col 0).
        assert_eq!(g[(0, 1)], 1.0);
        assert_eq!(g[(0, 0)], -1.0);
        assert_eq!(g[(0, 2)], 0.0);
    }

    #[test]
    fn cw_nontargeted_pushes_away_from_truth() {
        let mut t = Tape::new();
        let z = t.leaf(mat(&[&[4.0, 1.0, 0.0]]));
        let loss = t.cw_nontargeted(z, &[0], &[true]);
        assert_eq!(t.value(loss)[(0, 0)], 3.0);
        t.backward(loss);
        let g = t.grad(z).unwrap();
        assert_eq!(g[(0, 0)], 1.0); // lower the true class
        assert_eq!(g[(0, 1)], -1.0); // raise the runner-up
    }

    #[test]
    fn cw_mask_excludes_rows() {
        let mut t = Tape::new();
        let z = t.leaf(mat(&[&[4.0, 0.0], &[4.0, 0.0]]));
        let loss = t.cw_nontargeted(z, &[0, 0], &[true, false]);
        assert_eq!(t.value(loss)[(0, 0)], 4.0);
    }

    #[test]
    fn smoothness_zero_for_identical_points_colors() {
        let mut t = Tape::new();
        let colors = t.leaf(mat(&[&[0.5, 0.5, 0.5], &[0.5, 0.5, 0.5]]));
        let coords = mat(&[&[0.0, 0.0, 0.0], &[0.0, 0.0, 0.0]]);
        let s = t.smoothness(colors, &coords, &[1, 0], 1);
        assert_eq!(t.value(s)[(0, 0)], 0.0);
    }

    #[test]
    fn smoothness_gradient_matches_numeric() {
        let c0 = mat(&[&[0.2, 0.4, 0.9], &[0.8, 0.1, 0.3], &[0.5, 0.5, 0.5]]);
        let coords = mat(&[&[0.0, 0.0, 0.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
        let neighbors = vec![1, 2, 0, 2, 0, 1]; // k = 2
        let report = check_gradient(&c0, |t, c| t.smoothness(c, &coords, &neighbors, 2));
        assert!(report.max_abs_err < 2e-2, "{report:?}");
    }

    #[test]
    fn smoothness_shared_matches_slice_variant() {
        let coords = mat(&[&[0.0, 0.0, 0.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
        let neighbors = vec![1, 2, 0, 2, 0, 1];
        let colors = mat(&[&[0.2, 0.4, 0.9], &[0.8, 0.1, 0.3], &[0.5, 0.5, 0.5]]);

        let mut t1 = Tape::new();
        let c1 = t1.leaf(colors.clone());
        let s1 = t1.smoothness(c1, &coords, &neighbors, 2);
        t1.backward(s1);

        let mut t2 = Tape::new();
        let c2 = t2.leaf(colors);
        let s2 = t2.smoothness_shared(c2, Arc::new(coords), Arc::from(&neighbors[..]), 2);
        t2.backward(s2);

        assert_eq!(t1.value(s1), t2.value(s2));
        assert_eq!(t1.grad(c1), t2.grad(c2));
    }

    #[test]
    fn smoothness_grows_with_color_contrast() {
        let coords = mat(&[&[0.0, 0.0, 0.0], &[0.1, 0.0, 0.0]]);
        let nb = vec![1, 0];
        let mut t1 = Tape::new();
        let c_same = t1.leaf(mat(&[&[0.5, 0.5, 0.5], &[0.5, 0.5, 0.5]]));
        let s_same = t1.smoothness(c_same, &coords, &nb, 1);
        let mut t2 = Tape::new();
        let c_diff = t2.leaf(mat(&[&[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0]]));
        let s_diff = t2.smoothness(c_diff, &coords, &nb, 1);
        assert!(t2.value(s_diff)[(0, 0)] > t1.value(s_same)[(0, 0)]);
    }
}
