//! Structural operations: gathers, grouped pooling, interpolation and
//! concatenation.
//!
//! These ops carry the neighborhood structure of point-cloud networks:
//! `gather_rows` pulls each point's neighbors into consecutive rows,
//! `group_max` / `group_mean` / `group_softmax` pool over each group of `k`
//! consecutive rows, and `weighted_gather` performs the inverse-distance
//! interpolation of PointNet++ feature propagation. `edge_features` builds
//! DeepGCN's `[x_i | x_j - x_i]` edge rows in one op, and `edge_conv` runs
//! DeepGCN's whole eval-mode edge convolution as one.
//!
//! Index payloads come in two flavors: slice arguments are copied into
//! pooled vectors (recycled on [`Tape::reset`]), while the `_shared`
//! variants take `Arc` payloads interned once per (model, cloud) plan and
//! shared across steps with no copy at all.

use crate::tape::{Ix, Op, Tape, Var, Wts};
use colper_tensor::{Act, GatherIndex};
use std::sync::Arc;

impl Tape {
    /// Gathers rows: `out[i] = x[idx[i]]`. Indices may repeat.
    ///
    /// # Panics
    ///
    /// Panics when any index is out of bounds.
    pub fn gather_rows(&mut self, x: Var, idx: &[usize]) -> Var {
        let shape = self.gather_shape(x, idx);
        let idx = Ix::Owned(self.pooled_idx_copy(idx));
        self.record(shape, Op::GatherRows(x, idx))
    }

    /// [`Tape::gather_rows`] with an interned (`Arc`-shared) index list.
    ///
    /// # Panics
    ///
    /// Panics when any index is out of bounds.
    pub fn gather_rows_shared(&mut self, x: Var, idx: Arc<[usize]>) -> Var {
        self.record(self.gather_shape(x, &idx), Op::GatherRows(x, Ix::Shared(idx)))
    }

    fn gather_shape(&self, x: Var, idx: &[usize]) -> (usize, usize) {
        let (bound, cols) = self.value(x).shape();
        assert!(idx.iter().all(|&i| i < bound), "gather_rows: index out of bounds (rows={bound})");
        (idx.len(), cols)
    }

    /// Max-pool over consecutive groups of `k` rows: `[G*k, C] -> [G, C]`.
    ///
    /// This is the symmetric aggregation of PointNet++ set abstraction and
    /// DeepGCN edge convolution.
    ///
    /// # Panics
    ///
    /// Panics when the row count is not a multiple of `k` or `k == 0`.
    pub fn group_max(&mut self, x: Var, k: usize) -> Var {
        assert!(k > 0, "group_max: k must be positive");
        let (rows, cols) = self.value(x).shape();
        assert_eq!(rows % k, 0, "group_max: {rows} rows not divisible by k={k}");
        let groups = rows / k;
        let mut argmax = self.take_idx();
        argmax.resize(groups * cols, 0);
        self.record((groups, cols), Op::GroupMax { x, k, argmax })
    }

    /// Mean-pool over consecutive groups of `k` rows: `[G*k, C] -> [G, C]`.
    ///
    /// # Panics
    ///
    /// Panics when the row count is not a multiple of `k` or `k == 0`.
    pub fn group_mean(&mut self, x: Var, k: usize) -> Var {
        assert!(k > 0, "group_mean: k must be positive");
        let (rows, cols) = self.value(x).shape();
        assert_eq!(rows % k, 0, "group_mean: {rows} rows not divisible by k={k}");
        self.record((rows / k, cols), Op::GroupMean(x, k))
    }

    /// Softmax over each consecutive group of `k` rows, computed per
    /// column: `[G*k, C] -> [G*k, C]`.
    ///
    /// This is RandLA-Net's attentive-pooling score normalization.
    ///
    /// # Panics
    ///
    /// Panics when the row count is not a multiple of `k` or `k == 0`.
    pub fn group_softmax(&mut self, x: Var, k: usize) -> Var {
        assert!(k > 0, "group_softmax: k must be positive");
        let (rows, cols) = self.value(x).shape();
        assert_eq!(rows % k, 0, "group_softmax: {rows} rows not divisible by k={k}");
        self.record((rows, cols), Op::GroupSoftmax(x, k))
    }

    /// Weighted interpolation: `out[i] = sum_{j<k} w[i*k+j] * x[idx[i*k+j]]`.
    ///
    /// Used for PointNet++ feature propagation (3-NN inverse-distance
    /// interpolation) and RandLA-Net nearest-neighbor upsampling (`k == 1`).
    ///
    /// # Panics
    ///
    /// Panics when `idx.len() != w.len()`, the length is not a multiple of
    /// `k`, or any index is out of bounds.
    pub fn weighted_gather(&mut self, x: Var, idx: &[usize], w: &[f32], k: usize) -> Var {
        let shape = self.weighted_gather_shape(x, idx, w, k);
        let idx = Ix::Owned(self.pooled_idx_copy(idx));
        let w = Wts::Owned(self.pooled_w_copy(w));
        self.record(shape, Op::WeightedGather { x, idx, w, k })
    }

    /// [`Tape::weighted_gather`] with interned (`Arc`-shared) index and
    /// weight lists.
    ///
    /// # Panics
    ///
    /// Panics when `idx.len() != w.len()`, the length is not a multiple of
    /// `k`, or any index is out of bounds.
    pub fn weighted_gather_shared(
        &mut self,
        x: Var,
        idx: Arc<[usize]>,
        w: Arc<[f32]>,
        k: usize,
    ) -> Var {
        let shape = self.weighted_gather_shape(x, &idx, &w, k);
        self.record(shape, Op::WeightedGather { x, idx: Ix::Shared(idx), w: Wts::Shared(w), k })
    }

    fn weighted_gather_shape(&self, x: Var, idx: &[usize], w: &[f32], k: usize) -> (usize, usize) {
        assert!(k > 0, "weighted_gather: k must be positive");
        assert_eq!(idx.len(), w.len(), "weighted_gather: idx and w must have equal length");
        assert_eq!(idx.len() % k, 0, "weighted_gather: length not divisible by k");
        let (bound, cols) = self.value(x).shape();
        assert!(idx.iter().all(|&i| i < bound), "weighted_gather: index out of bounds");
        (idx.len() / k, cols)
    }

    /// Edge features of a graph convolution: `[E, 2C]` rows
    /// `[x[c] | x[j] - x[c]]` for every edge `e` with `c = center[e]` and
    /// `j = nbr[e]`, recorded as one op.
    ///
    /// Element for element this is `concat_cols(x_i, sub(x_j, x_i))` over
    /// the gathers `x_i = gather_rows(x, center)` and
    /// `x_j = gather_rows(x, nbr)`, forward and backward: the backward
    /// reads the `[E, 2C]` gradient once per row of `x` at that row's
    /// in-edges and adds the center gather's scatter of
    /// `g_left - g_right`, then the neighbor gather's scatter of `g_right`,
    /// each summed into `+0.0` in ascending edge order. Both index lists
    /// are shared (`Arc`), with the inverses that scatter needs.
    ///
    /// # Panics
    ///
    /// Panics when either index was built for a row count other than
    /// `x`'s or the two lists differ in length.
    pub fn edge_features(
        &mut self,
        x: Var,
        center: Arc<GatherIndex>,
        nbr: Arc<GatherIndex>,
    ) -> Var {
        let (rows, cols) = self.value(x).shape();
        assert!(
            center.source_rows() == rows && nbr.source_rows() == rows,
            "edge_features: index built for another row count than {rows}"
        );
        assert_eq!(center.len(), nbr.len(), "edge_features: index length mismatch");
        self.record((center.len(), 2 * cols), Op::EdgeFeatures { x, center, nbr })
    }

    /// ResGCN's eval-mode edge convolution, recorded as one op:
    /// `group_max(act((edge_features(h, center, nbr) · w) * scale + shift), k)`
    /// for a `[2C, Co]` weight `w` and `[1, Co]` batch-norm rows `scale`
    /// and `shift`, giving `[E / k, Co]`.
    ///
    /// Its value and its gradient into `h` equal the unfused chain
    /// (`edge_features`, `matmul`, `affine_act`, `group_max`) bit for bit,
    /// into an empty gradient slot or an existing one, on every SIMD leg
    /// at any thread count (see [`colper_tensor::Matrix::edge_conv_into`]
    /// and [`colper_tensor::Matrix::edge_conv_grad_into`]). The op keeps
    /// only the pooled `[E / k, Co]` value and its argmax: the forward
    /// never writes the `[E, ·]` edge rows, products or activations, and
    /// the backward borrows one transient `[E, 2C]` edge gradient.
    ///
    /// `w`, `scale` and `shift` must not require a gradient: the backward
    /// computes none for them (evaluation-mode weights are constants, and
    /// training batch norm needs whole-batch statistics, so training
    /// records the unfused chain).
    ///
    /// # Panics
    ///
    /// Panics when `w`, `scale` or `shift` requires a gradient, either
    /// index was built for another row count than `h`'s, the lists differ
    /// in length or are not a multiple of `k` long, `w` is not `[2C, Co]`,
    /// `scale` or `shift` is not one `Co`-wide row, or a leaky slope is not
    /// positive and finite.
    #[allow(clippy::too_many_arguments)]
    pub fn edge_conv(
        &mut self,
        h: Var,
        center: Arc<GatherIndex>,
        nbr: Arc<GatherIndex>,
        w: Var,
        scale: Var,
        shift: Var,
        act: Act,
        k: usize,
    ) -> Var {
        assert!(
            !(self.requires_grad(w) || self.requires_grad(scale) || self.requires_grad(shift)),
            "edge_conv: the weight and batch-norm rows must not require a gradient"
        );
        let (rows, cols) = self.value(h).shape();
        assert!(
            center.source_rows() == rows && nbr.source_rows() == rows,
            "edge_conv: index built for another row count than {rows}"
        );
        let edges = center.len();
        assert_eq!(nbr.len(), edges, "edge_conv: index length mismatch");
        assert!(
            k > 0 && edges.is_multiple_of(k),
            "edge_conv: {edges} edges not divisible by k={k}"
        );
        let co = self.value(w).cols();
        assert_eq!(self.value(w).rows(), 2 * cols, "edge_conv: weight must be [2C, Co]");
        assert_eq!(self.value(scale).shape(), (1, co), "edge_conv: scale must be one row");
        assert_eq!(self.value(shift).shape(), (1, co), "edge_conv: shift must be one row");
        if let Act::LeakyRelu(alpha) = act {
            assert!(
                alpha > 0.0 && alpha.is_finite(),
                "edge_conv: leaky slope must be positive and finite, got {alpha}"
            );
        }
        let mut argmax = self.take_idx();
        argmax.resize(edges / k * co, 0);
        let op = Op::EdgeConv { h, center, nbr, w, scale, shift, act, k, argmax };
        self.record((edges / k, co), op)
    }

    /// Concatenates columns: `[N,C1] ++ [N,C2] -> [N,C1+C2]`.
    ///
    /// # Panics
    ///
    /// Panics when the row counts differ.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let ((rows, ca), (rb, cb)) = (self.value(a).shape(), self.value(b).shape());
        assert_eq!(rows, rb, "concat_cols: row count mismatch");
        self.record((rows, ca + cb), Op::ConcatCols(a, b))
    }

    /// Concatenates several column blocks left to right.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or row counts differ.
    pub fn concat_cols_all(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols_all: needs at least one part");
        let mut acc = parts[0];
        for &p in &parts[1..] {
            acc = self.concat_cols(acc, p);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_gradient;
    use colper_tensor::Matrix;

    fn mat(rows: &[&[f32]]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn gather_rows_forward() {
        let mut t = Tape::new();
        let x = t.leaf(mat(&[&[1.0], &[2.0], &[3.0]]));
        let y = t.gather_rows(x, &[2, 2, 0]);
        assert_eq!(t.value(y).as_slice(), &[3.0, 3.0, 1.0]);
    }

    #[test]
    fn gather_rows_backward_scatter_adds() {
        let mut t = Tape::new();
        let x = t.leaf(mat(&[&[1.0], &[2.0], &[3.0]]));
        let y = t.gather_rows(x, &[2, 2, 0]);
        let loss = t.sum(y);
        t.backward(loss);
        assert_eq!(t.grad(x).unwrap().as_slice(), &[1.0, 0.0, 2.0]);
    }

    #[test]
    fn gather_rows_shared_matches_slice_variant() {
        let idx: Arc<[usize]> = Arc::from(&[2usize, 2, 0][..]);
        let mut t1 = Tape::new();
        let x1 = t1.leaf(mat(&[&[1.0], &[2.0], &[3.0]]));
        let y1 = t1.gather_rows(x1, &idx);
        let l1 = t1.sum(y1);
        t1.backward(l1);

        let mut t2 = Tape::new();
        let x2 = t2.leaf(mat(&[&[1.0], &[2.0], &[3.0]]));
        let y2 = t2.gather_rows_shared(x2, idx);
        let l2 = t2.sum(y2);
        t2.backward(l2);

        assert_eq!(t1.value(y1), t2.value(y2));
        assert_eq!(t1.grad(x1), t2.grad(x2));
    }

    #[test]
    fn group_max_forward_and_backward() {
        let mut t = Tape::new();
        let x = t.leaf(mat(&[&[1.0, 5.0], &[3.0, 2.0], &[0.0, 0.0], &[4.0, 1.0]]));
        let y = t.group_max(x, 2);
        assert_eq!(t.value(y).as_slice(), &[3.0, 5.0, 4.0, 1.0]);
        let loss = t.sum(y);
        t.backward(loss);
        // Gradients flow only to the max entries.
        assert_eq!(t.grad(x).unwrap().as_slice(), &[0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn group_mean_matches_numeric() {
        let x0 = mat(&[&[1.0, 5.0], &[3.0, 2.0], &[0.5, -1.0], &[4.0, 1.0]]);
        let report = check_gradient(&x0, |t, x| {
            let y = t.group_mean(x, 2);
            let z = t.square(y);
            t.sum(z)
        });
        assert!(report.max_abs_err < 2e-2, "{report:?}");
    }

    #[test]
    fn group_softmax_rows_sum_to_one() {
        let mut t = Tape::new();
        let x = t.leaf(mat(&[&[1.0], &[2.0], &[3.0], &[-1.0]]));
        let y = t.group_softmax(x, 2);
        let v = t.value(y);
        assert!((v[(0, 0)] + v[(1, 0)] - 1.0).abs() < 1e-6);
        assert!((v[(2, 0)] + v[(3, 0)] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn group_softmax_matches_numeric() {
        let x0 = mat(&[&[1.0, 0.5], &[2.0, -0.5], &[0.2, 0.1], &[-1.0, 1.5]]);
        let report = check_gradient(&x0, |t, x| {
            let s = t.group_softmax(x, 2);
            let c = t.constant(mat(&[&[1.0, -1.0], &[0.5, 2.0], &[2.0, 0.0], &[0.0, 1.0]]));
            let y = t.mul(s, c);
            t.sum(y)
        });
        assert!(report.max_abs_err < 2e-2, "{report:?}");
    }

    #[test]
    fn weighted_gather_forward_and_backward() {
        let mut t = Tape::new();
        let x = t.leaf(mat(&[&[1.0], &[10.0], &[100.0]]));
        // out[0] = 0.5*x0 + 0.5*x1; out[1] = 1.0*x2 + 0.0*x0
        let y = t.weighted_gather(x, &[0, 1, 2, 0], &[0.5, 0.5, 1.0, 0.0], 2);
        assert_eq!(t.value(y).as_slice(), &[5.5, 100.0]);
        let loss = t.sum(y);
        t.backward(loss);
        assert_eq!(t.grad(x).unwrap().as_slice(), &[0.5, 0.5, 1.0]);
    }

    #[test]
    fn weighted_gather_matches_numeric() {
        let x0 = mat(&[&[1.0, 2.0], &[3.0, -1.0], &[0.5, 0.5]]);
        let report = check_gradient(&x0, |t, x| {
            let y = t.weighted_gather(x, &[0, 2, 1, 1], &[0.3, 0.7, 0.9, 0.1], 2);
            let z = t.square(y);
            t.sum(z)
        });
        assert!(report.max_abs_err < 2e-2, "{report:?}");
    }

    #[test]
    fn weighted_gather_shared_matches_slice_variant() {
        let idx: Arc<[usize]> = Arc::from(&[0usize, 1, 2, 0][..]);
        let w: Arc<[f32]> = Arc::from(&[0.5f32, 0.5, 1.0, 0.0][..]);
        let mut t1 = Tape::new();
        let x1 = t1.leaf(mat(&[&[1.0], &[10.0], &[100.0]]));
        let y1 = t1.weighted_gather(x1, &idx, &w, 2);
        let l1 = t1.sum(y1);
        t1.backward(l1);

        let mut t2 = Tape::new();
        let x2 = t2.leaf(mat(&[&[1.0], &[10.0], &[100.0]]));
        let y2 = t2.weighted_gather_shared(x2, idx, w, 2);
        let l2 = t2.sum(y2);
        t2.backward(l2);

        assert_eq!(t1.value(y1), t2.value(y2));
        assert_eq!(t1.grad(x1), t2.grad(x2));
    }

    #[test]
    fn concat_cols_splits_gradients_between_operands() {
        let mut t = Tape::new();
        let a = t.leaf(mat(&[&[1.0, 2.0]]));
        let b = t.leaf(mat(&[&[3.0]]));
        let y = t.concat_cols(a, b);
        assert_eq!(t.value(y).as_slice(), &[1.0, 2.0, 3.0]);
        let weights = t.constant(mat(&[&[0.0, 1.0, 2.0]]));
        let s = t.mul_row(y, weights);
        let loss = t.sum(s);
        t.backward(loss);
        assert_eq!(t.grad(a).unwrap().as_slice(), &[0.0, 1.0]);
        assert_eq!(t.grad(b).unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn concat_cols_all_chains() {
        let mut t = Tape::new();
        let a = t.leaf(mat(&[&[1.0]]));
        let b = t.leaf(mat(&[&[2.0]]));
        let c = t.leaf(mat(&[&[3.0]]));
        let y = t.concat_cols_all(&[a, b, c]);
        assert_eq!(t.value(y).as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_rows_rejects_bad_index() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::zeros(2, 1));
        let _ = t.gather_rows(x, &[2]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn group_max_rejects_ragged_groups() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::zeros(3, 1));
        let _ = t.group_max(x, 2);
    }
}
