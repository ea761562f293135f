//! Row-wise, runtime-parallel structural kernels: grouped max pooling and
//! softmax (forward and backward), row broadcasts, the gather's backward
//! scatter, the fused eval-batch-norm + activation and graph
//! edge-feature ops, and ResGCN's whole eval-mode edge convolution
//! (forward and backward).
//!
//! These carry the neighbourhood structure of the point-cloud networks
//! (`k` consecutive rows per point's neighbour group) and used to run as
//! serial, column-strided loops in the autodiff crate. Each kernel here
//! walks its rows contiguously and splits them across the ambient
//! runtime in bands of whole groups, while every output element keeps
//! the exact operation sequence of the serial loop it replaces — the
//! grouped loops survive as the pinned references in
//! [`crate::kernels::scalar`]. Results are therefore bit-identical at any
//! thread count and on either SIMD leg.

use crate::gemm::{self, MC};
use crate::kernels::{self, Act};
use crate::par::{
    for_each_row_band, for_each_row_band_pair, runtime_for, MIN_PAR_ELEMS, MIN_PAR_MACS,
};
use crate::Matrix;

/// Columns processed per pass of the grouped kernels: per-column running
/// state (maximum, denominator, dot) lives in a stack array this wide.
const COL_BLOCK: usize = 64;

impl Matrix {
    /// Max-pools each group of `k` consecutive rows: `out[g][c]` is the
    /// largest `self[g*k + j][c]` and `argmax[g*cols + c]` its row.
    ///
    /// Per element this is [`kernels::scalar::group_max`]: the running
    /// maximum starts at `-inf` at the group's first row and only a
    /// strictly greater element replaces it, so ties keep the earliest
    /// row, NaN never wins, and an all-NaN group column yields `-inf`.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`, the rows are not a multiple of `k`, `out` is
    /// not `[rows / k, cols]` or `argmax` is not `out.len()` long.
    pub fn group_max_into(&self, k: usize, out: &mut Matrix, argmax: &mut [usize]) {
        let (rows, cols) = self.shape();
        assert!(
            k > 0 && rows.is_multiple_of(k),
            "group_max_into: {rows} rows not divisible by k={k}"
        );
        assert!(u32::try_from(k).is_ok(), "group_max_into: k={k} exceeds the group index range");
        assert_eq!(out.shape(), (rows / k, cols), "group_max_into: output shape mismatch");
        assert_eq!(argmax.len(), out.len(), "group_max_into: argmax length mismatch");
        let x = self.as_slice();
        // Pass 1 records each group's winning rows.
        for_each_row_band(argmax, cols, 1, (self.len(), MIN_PAR_ELEMS), |g0, band| {
            for (gi, arg) in band.chunks_mut(cols).enumerate() {
                let r0 = (g0 + gi) * k;
                group_winners(&x[r0 * cols..(r0 + k) * cols], r0, arg);
            }
        });
        // Pass 2 reads the winners back.
        let argmax = &*argmax;
        for_each_row_band(out.as_mut_slice(), cols, 1, (self.len(), MIN_PAR_ELEMS), |g0, band| {
            for (gi, orow) in band.chunks_exact_mut(cols).enumerate() {
                let arg = &argmax[(g0 + gi) * cols..(g0 + gi + 1) * cols];
                for (c, (o, &r)) in orow.iter_mut().zip(arg).enumerate() {
                    *o = pooled_max(x[r * cols + c]);
                }
            }
        });
    }

    /// Backward scatter of [`Matrix::group_max_into`]: `self` is the
    /// upstream gradient `[groups, cols]`; `out` (`[groups * k, cols]`,
    /// fully overwritten) is zero except that every `self[g][c]` is added
    /// into `out[argmax[g*cols + c]][c]` — [`kernels::scalar::group_max_grad`]
    /// element for element.
    ///
    /// `argmax` must name, for every element, a row inside its own group,
    /// as [`Matrix::group_max_into`] records it.
    ///
    /// # Panics
    ///
    /// Panics when the shapes disagree, `argmax` is not `self.len()` long
    /// or an `argmax` row lies outside its parallel band.
    pub fn group_max_grad_into(&self, argmax: &[usize], out: &mut Matrix) {
        let (groups, cols) = self.shape();
        assert_eq!(out.cols(), cols, "group_max_grad_into: column mismatch");
        assert_eq!(argmax.len(), self.len(), "group_max_grad_into: argmax length mismatch");
        if groups == 0 {
            assert_eq!(out.rows(), 0, "group_max_grad_into: output shape mismatch");
            return;
        }
        let k = out.rows() / groups;
        assert_eq!(out.rows(), groups * k, "group_max_grad_into: output shape mismatch");
        let gy = self.as_slice();
        for_each_row_band(
            out.as_mut_slice(),
            cols,
            k,
            (self.len() * k, MIN_PAR_ELEMS),
            |r0, band| {
                band.fill(0.0);
                let g0 = r0 / k;
                for g in g0..g0 + band.len() / (k * cols) {
                    for c in 0..cols {
                        let src = argmax[g * cols + c] - r0;
                        band[src * cols + c] += gy[g * cols + c];
                    }
                }
            },
        );
    }

    /// Softmax over each group of `k` consecutive rows, per column, into
    /// `out` (same shape, fully overwritten) — per element exactly
    /// [`kernels::scalar::group_softmax`]: [`f32::max`] fold, then
    /// `exp(x - max)` summed in ascending row order, then the division.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`, the rows are not a multiple of `k` or `out`
    /// has a different shape.
    pub fn group_softmax_into(&self, k: usize, out: &mut Matrix) {
        let (rows, cols) = self.shape();
        assert!(
            k > 0 && rows.is_multiple_of(k),
            "group_softmax_into: {rows} rows not divisible by k={k}"
        );
        assert_eq!(out.shape(), self.shape(), "group_softmax_into: output shape mismatch");
        let x = self.as_slice();
        for_each_row_band(out.as_mut_slice(), cols, k, (self.len(), MIN_PAR_ELEMS), |r0, band| {
            let mut maxv = [0.0f32; COL_BLOCK];
            let mut denom = [0.0f32; COL_BLOCK];
            for (gi, group) in band.chunks_mut(k * cols).enumerate() {
                let gx = &x[(r0 + gi * k) * cols..(r0 + gi * k + k) * cols];
                for c0 in (0..cols).step_by(COL_BLOCK) {
                    let w = COL_BLOCK.min(cols - c0);
                    let (maxv, denom) = (&mut maxv[..w], &mut denom[..w]);
                    maxv.fill(f32::NEG_INFINITY);
                    for xr in gx.chunks_exact(cols) {
                        for (m, &v) in maxv.iter_mut().zip(&xr[c0..c0 + w]) {
                            *m = m.max(v);
                        }
                    }
                    denom.fill(0.0);
                    for (xr, or) in gx.chunks_exact(cols).zip(group.chunks_exact_mut(cols)) {
                        let terms = or[c0..c0 + w].iter_mut().zip(&xr[c0..c0 + w]);
                        for ((o, &v), (&m, d)) in terms.zip(maxv.iter().zip(denom.iter_mut())) {
                            let e = (v - m).exp();
                            *o = e;
                            *d += e;
                        }
                    }
                    for or in group.chunks_exact_mut(cols) {
                        for (o, &d) in or[c0..c0 + w].iter_mut().zip(denom.iter()) {
                            *o /= d;
                        }
                    }
                }
            }
        });
    }

    /// Backward pass of [`Matrix::group_softmax_into`]: `self` is the
    /// saved softmax, `gy` the upstream gradient; per group and column
    /// `out = s * (gy - sum_j gy * s)` — exactly
    /// [`kernels::scalar::group_softmax_grad`]. `out` is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`, the rows are not a multiple of `k` or the
    /// shapes differ.
    pub fn group_softmax_grad_into(&self, gy: &Matrix, k: usize, out: &mut Matrix) {
        let (rows, cols) = self.shape();
        assert!(
            k > 0 && rows.is_multiple_of(k),
            "group_softmax_grad_into: {rows} rows not divisible by k={k}"
        );
        assert_eq!(gy.shape(), self.shape(), "group_softmax_grad_into: gradient shape mismatch");
        assert_eq!(out.shape(), self.shape(), "group_softmax_grad_into: output shape mismatch");
        let (s, gy) = (self.as_slice(), gy.as_slice());
        for_each_row_band(out.as_mut_slice(), cols, k, (self.len(), MIN_PAR_ELEMS), |r0, band| {
            let mut dot = [0.0f32; COL_BLOCK];
            for (gi, group) in band.chunks_mut(k * cols).enumerate() {
                let span = (r0 + gi * k) * cols..(r0 + gi * k + k) * cols;
                let (gs, gg) = (&s[span.clone()], &gy[span]);
                for c0 in (0..cols).step_by(COL_BLOCK) {
                    let w = COL_BLOCK.min(cols - c0);
                    let dot = &mut dot[..w];
                    dot.fill(0.0);
                    for (sr, gr) in gs.chunks_exact(cols).zip(gg.chunks_exact(cols)) {
                        let terms = sr[c0..c0 + w].iter().zip(&gr[c0..c0 + w]);
                        for (d, (&sv, &gv)) in dot.iter_mut().zip(terms) {
                            *d += gv * sv;
                        }
                    }
                    let rows = gs.chunks_exact(cols).zip(gg.chunks_exact(cols));
                    for ((sr, gr), or) in rows.zip(group.chunks_exact_mut(cols)) {
                        let terms = sr[c0..c0 + w].iter().zip(&gr[c0..c0 + w]);
                        for ((o, (&sv, &gv)), &d) in
                            or[c0..c0 + w].iter_mut().zip(terms).zip(dot.iter())
                        {
                            *o = sv * (gv - d);
                        }
                    }
                }
            }
        });
    }

    /// Row broadcast `out[r] = op(self[r], row)` with a dispatched binary
    /// kernel (`kernels::add`, `sub`, `mul`, `div`), rows split across the
    /// ambient runtime.
    ///
    /// # Panics
    ///
    /// Panics when `row` or `out` does not match `self`'s width or shape.
    pub fn broadcast_row_into(
        &self,
        row: &[f32],
        op: fn(&[f32], &[f32], &mut [f32]),
        out: &mut Matrix,
    ) {
        let cols = self.cols();
        assert_eq!(row.len(), cols, "broadcast_row_into: row width mismatch");
        assert_eq!(out.shape(), self.shape(), "broadcast_row_into: output shape mismatch");
        kernels::count_dispatch(self.rows());
        for_each_row_band(out.as_mut_slice(), cols, 1, (self.len(), MIN_PAR_ELEMS), |r0, band| {
            for (r, o) in band.chunks_exact_mut(cols).enumerate() {
                op(self.row(r0 + r), row, o);
            }
        });
    }

    /// Backward scatter of a row gather: `out` (fully overwritten) is zero
    /// except that every row `self[d]` is added into `out[idx[d]]` with
    /// `kernels::add_assign`, in ascending `d`.
    ///
    /// Each parallel band owns a range of destination rows and scans the
    /// whole index list, applying only the contributions that land in its
    /// range — so every element still receives its terms in ascending `d`,
    /// bit-identical to the serial scatter at any thread count.
    ///
    /// # Panics
    ///
    /// Panics when an index is `>= out.rows()` or the widths disagree.
    pub fn scatter_add_rows_into(&self, idx: &[usize], out: &mut Matrix) {
        let cols = self.cols();
        assert_eq!(self.rows(), idx.len(), "scatter_add_rows_into: index length mismatch");
        assert_eq!(out.cols(), cols, "scatter_add_rows_into: column mismatch");
        let rows = out.rows();
        assert!(idx.iter().all(|&s| s < rows), "scatter_add_rows_into: index out of bounds");
        kernels::count_dispatch(idx.len());
        let scatter = |s0: usize, band: &mut [f32]| {
            band.fill(0.0);
            let s1 = s0 + band.len() / cols;
            for (d, &s) in idx.iter().enumerate() {
                if (s0..s1).contains(&s) {
                    let dst = &mut band[(s - s0) * cols..(s - s0 + 1) * cols];
                    kernels::add_assign(dst, self.row(d));
                }
            }
        };
        // Every band scans the whole index list, so use one band per
        // thread rather than the finer split of the other kernels.
        match runtime_for(self.len(), MIN_PAR_ELEMS) {
            Some(rt) if rows > 0 && cols > 0 => {
                let rows_per = rows.div_ceil(rt.threads());
                rt.par_chunks_mut(out.as_mut_slice(), rows_per * cols, |c, band| {
                    scatter(c * rows_per, band);
                });
            }
            _ => scatter(0, out.as_mut_slice()),
        }
    }

    /// Eval-mode batch norm and its activation in one pass:
    /// `out[r] = act(self[r] * scale + shift)` per
    /// [`kernels::scalar::affine_act_lane`] — per element exactly a
    /// row-broadcast multiply, a row-broadcast add and the activation run
    /// one after another. Rows split across the ambient runtime.
    ///
    /// # Panics
    ///
    /// Panics when `scale` or `shift` does not match `self`'s width or
    /// `out` has a different shape.
    pub fn affine_act_into(&self, scale: &[f32], shift: &[f32], act: Act, out: &mut Matrix) {
        let cols = self.cols();
        assert!(scale.len() == cols && shift.len() == cols, "affine_act_into: row width mismatch");
        assert_eq!(out.shape(), self.shape(), "affine_act_into: output shape mismatch");
        kernels::count_dispatch(1);
        let x = self.as_slice();
        for_each_row_band(out.as_mut_slice(), cols, 1, (self.len(), MIN_PAR_ELEMS), |r0, band| {
            kernels::affine_act(&x[r0 * cols..r0 * cols + band.len()], scale, shift, act, band);
        });
    }

    /// Backward of [`Matrix::affine_act_into`] into its input: `self` is
    /// the upstream gradient, `y` the op's output, and
    /// `out = (self * act'(y)) * scale` per
    /// [`kernels::scalar::affine_act_grad_lane`] — the activation backward
    /// and the row-broadcast multiply's backward in one pass. `out` is
    /// fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics when the shapes or the `scale` width disagree.
    pub fn affine_act_grad_into(&self, y: &Matrix, scale: &[f32], act: Act, out: &mut Matrix) {
        let cols = self.cols();
        assert_eq!(scale.len(), cols, "affine_act_grad_into: row width mismatch");
        assert_eq!(y.shape(), self.shape(), "affine_act_grad_into: output shape mismatch");
        assert_eq!(out.shape(), self.shape(), "affine_act_grad_into: gradient shape mismatch");
        kernels::count_dispatch(1);
        let (gy, y) = (self.as_slice(), y.as_slice());
        for_each_row_band(out.as_mut_slice(), cols, 1, (self.len(), MIN_PAR_ELEMS), |r0, band| {
            let span = r0 * cols..r0 * cols + band.len();
            kernels::affine_act_grad(&gy[span.clone()], &y[span], scale, act, band);
        });
    }

    /// Edge features of a graph convolution: row `e` of `out`
    /// (`[E, 2 * cols]`, fully overwritten) is
    /// `[self[c] | self[j] - self[c]]` for `c = center[e]`, `j = nbr[e]` —
    /// a copy and one `kernels::sub` per row, element for element the two
    /// gathers, the subtraction and the column concatenation they replace.
    ///
    /// # Panics
    ///
    /// Panics when either index list was built for another row count, the
    /// lists differ in length or `out` has the wrong shape.
    pub fn edge_features_into(&self, center: &GatherIndex, nbr: &GatherIndex, out: &mut Matrix) {
        let (rows, cols) = self.shape();
        assert!(
            center.source_rows() == rows && nbr.source_rows() == rows,
            "edge_features_into: index built for another row count"
        );
        assert_eq!(center.len(), nbr.len(), "edge_features_into: index length mismatch");
        assert_eq!(out.shape(), (center.len(), 2 * cols), "edge_features_into: output shape");
        kernels::count_dispatch(center.len());
        let (ci, ni) = (center.indices(), nbr.indices());
        let work = out.len();
        for_each_row_band(out.as_mut_slice(), 2 * cols, 1, (work, MIN_PAR_ELEMS), |e0, band| {
            for (e, o) in band.chunks_exact_mut(2 * cols).enumerate() {
                let c = self.row(ci[e0 + e]);
                let (left, right) = o.split_at_mut(cols);
                left.copy_from_slice(c);
                kernels::sub(self.row(ni[e0 + e]), c, right);
            }
        });
    }

    /// Backward of [`Matrix::edge_features_into`] into the source rows:
    /// `self` is the `[E, 2 * cols]` upstream gradient, read once per
    /// destination row at that row's in-edges ([`GatherIndex::readers`]).
    /// Per element this is the unfused backward exactly (see
    /// [`kernels::scalar::edge_grad_row`]): `out = (out + S_c) + S_n` when
    /// `accumulate`, else `out = S_c + S_n`, where `S_c` scatters
    /// `g_left - g_right` over the center edges and `S_n` scatters
    /// `g_right` over the neighbor edges, each summed into `+0.0` in
    /// ascending edge order. Destination rows split across the ambient
    /// runtime.
    ///
    /// # Panics
    ///
    /// Panics when the shapes or index lists disagree.
    pub fn edge_features_grad_into(
        &self,
        center: &GatherIndex,
        nbr: &GatherIndex,
        accumulate: bool,
        out: &mut Matrix,
    ) {
        let (rows, cols) = out.shape();
        assert!(
            center.source_rows() == rows && nbr.source_rows() == rows,
            "edge_features_grad_into: index built for another row count"
        );
        assert_eq!(center.len(), nbr.len(), "edge_features_grad_into: index length mismatch");
        assert_eq!(self.shape(), (center.len(), 2 * cols), "edge_features_grad_into: gradient");
        kernels::count_dispatch(rows);
        let g = self.as_slice();
        for_each_row_band(out.as_mut_slice(), cols, 1, (self.len(), MIN_PAR_ELEMS), |r0, band| {
            for (r, o) in band.chunks_exact_mut(cols).enumerate() {
                let (ce, ne) = (center.readers(r0 + r), nbr.readers(r0 + r));
                kernels::edge_grad_row(g, cols, ce, ne, accumulate, o);
            }
        });
    }

    /// ResGCN's eval-mode edge convolution in one pass: for every group
    /// `g` of `k` consecutive edges, `out[g][c]` is the maximum over the
    /// group's edges `e` of `act((f_e · w)[c] * scale[c] + shift[c])`,
    /// where `f_e = [self[center[e]] | self[nbr[e]] - self[center[e]]]`,
    /// and `argmax[g * cols + c]` is the winning edge.
    ///
    /// Element for element this is [`Matrix::edge_features_into`],
    /// [`Matrix::matmul_into`], [`Matrix::affine_act_into`] and
    /// [`Matrix::group_max_into`] run one after another, but no `[E, ·]`
    /// matrix is ever written. Output rows split into bands of whole
    /// slabs of up to [`MC`] edges (whole groups), across the ambient
    /// runtime. A slab gathers its edge rows into thread-local scratch,
    /// runs the GEMM slab body over them (each product element one
    /// ascending chain from `+0.0`, as every matmul route computes it),
    /// activates the slab in place and max-pools each group through the
    /// winner scan `group_max_into` uses. The bits do not depend on the
    /// thread count, the SIMD leg or `GemmMode`.
    ///
    /// # Panics
    ///
    /// Panics when either index list was built for another row count, the
    /// lists differ in length or are not a multiple of `conv.k` edges
    /// long, `conv` does not fit `self`'s width, `out` is not
    /// `[edges / k, w.cols()]` or `argmax` is not `out.len()` long.
    pub fn edge_conv_into(
        &self,
        center: &GatherIndex,
        nbr: &GatherIndex,
        conv: EdgeConv<'_>,
        out: &mut Matrix,
        argmax: &mut [usize],
    ) {
        let (rows, cols) = self.shape();
        let EdgeConv { w, scale, shift, act, k } = conv;
        let (width, co, edges) = (2 * cols, w.cols(), center.len());
        assert!(
            center.source_rows() == rows && nbr.source_rows() == rows,
            "edge_conv_into: index built for another row count"
        );
        assert_eq!(nbr.len(), edges, "edge_conv_into: index length mismatch");
        assert!(k > 0 && edges.is_multiple_of(k), "edge_conv_into: {edges} edges, k={k}");
        assert!(u32::try_from(k).is_ok(), "edge_conv_into: k={k} exceeds the group index range");
        assert_eq!(w.rows(), width, "edge_conv_into: weight rows must be twice the width");
        assert!(scale.len() == co && shift.len() == co, "edge_conv_into: row width mismatch");
        assert_eq!(out.shape(), (edges / k, co), "edge_conv_into: output shape mismatch");
        assert_eq!(argmax.len(), out.len(), "edge_conv_into: argmax length mismatch");
        kernels::count_dispatch(edges);
        let isa = kernels::gemm_isa();
        let slab_groups = (MC / k).max(1);
        let slab_rows = slab_groups * k;
        let (ci, ni, wv) = (center.indices(), nbr.indices(), w.as_slice());
        let pair = (out.as_mut_slice(), argmax);
        let work = (edges * width * co, MIN_PAR_MACS);
        for_each_row_band_pair(pair, co, slab_groups, work, |g0, pooled, arg| {
            let mut feats = gemm::pack_scratch(slab_rows, width);
            let mut y = gemm::pack_scratch(slab_rows, co);
            let slabs = pooled.chunks_mut(slab_groups * co).zip(arg.chunks_mut(slab_groups * co));
            for (s, (pooled, arg)) in slabs.enumerate() {
                let e0 = (g0 + s * slab_groups) * k;
                let n_edges = pooled.len() / co * k;
                let feats = &mut feats.as_mut_slice()[..n_edges * width];
                for (e, f) in (e0..).zip(feats.chunks_exact_mut(width.max(1))) {
                    let c = self.row(ci[e]);
                    let (left, right) = f.split_at_mut(cols);
                    left.copy_from_slice(c);
                    kernels::sub(self.row(ni[e]), c, right);
                }
                let y = &mut y.as_mut_slice()[..n_edges * co];
                gemm::gemm_slab(isa, (feats, width, 1), wv, (width, co), y);
                kernels::affine_act_assign(y, scale, shift, act);
                let groups = y.chunks_exact(k * co).zip(pooled.chunks_exact_mut(co));
                for ((gi, (group, prow)), arow) in groups.enumerate().zip(arg.chunks_exact_mut(co))
                {
                    let r0 = e0 + gi * k;
                    group_winners(group, r0, arow);
                    for (c, (p, &r)) in prow.iter_mut().zip(arow.iter()).enumerate() {
                        *p = pooled_max(group[(r - r0) * co + c]);
                    }
                }
            }
            gemm::pack_recycle(y);
            gemm::pack_recycle(feats);
        });
    }

    /// Backward of [`Matrix::edge_conv_into`] up to its edge rows: `self`
    /// is the upstream gradient `[groups, co]`, `pooled` and `argmax` the
    /// forward's outputs, and `out` (`[groups * k, 2 * cols]`, fully
    /// overwritten) receives the gradient of the edge-feature rows, which
    /// [`Matrix::edge_features_grad_into`] then scatters onto the source
    /// rows.
    ///
    /// The unfused chain's pre-activation gradient is
    /// `affine_act_grad_lane(0.0 + gy, y, s, act)` at each group's winning
    /// edge (the group max scatters `gy` into zeros) and
    /// `affine_act_grad_lane(0.0, y, s, act)` elsewhere. The derivative
    /// only tests `y > 0`, and the pooled value fails that test exactly
    /// when the winning `y` does (they differ only when that `y` is NaN
    /// or `-inf`), so the winner reads `pooled` instead of `y`; elsewhere
    /// the product with `+0.0` is the same for every `y` (the leaky slope
    /// is finite). So no `[E, co]` activation is kept: each slab of whole
    /// groups builds its pre-activation gradient in thread-local scratch
    /// from `gy`, `argmax`, `pooled` and `scale`, then runs
    /// [`kernels::matmul_nt_rows`] against `wᵀ` (packed once, on the
    /// calling thread) into its rows of `out` — element for element
    /// [`Matrix::matmul_nt_into`]. Bands split across the ambient runtime.
    ///
    /// # Panics
    ///
    /// Panics when the shapes disagree with `conv`, `pooled` or `argmax`.
    pub fn edge_conv_grad_into(
        &self,
        conv: EdgeConv<'_>,
        pooled: &Matrix,
        argmax: &[usize],
        out: &mut Matrix,
    ) {
        let EdgeConv { w, scale, act, k, .. } = conv;
        let (groups, co) = self.shape();
        let width = w.rows();
        assert_eq!(w.cols(), co, "edge_conv_grad_into: weight columns mismatch");
        assert_eq!(scale.len(), co, "edge_conv_grad_into: row width mismatch");
        assert_eq!(pooled.shape(), (groups, co), "edge_conv_grad_into: pooled shape mismatch");
        assert_eq!(argmax.len(), self.len(), "edge_conv_grad_into: argmax length mismatch");
        assert_eq!(out.shape(), (groups * k, width), "edge_conv_grad_into: output shape mismatch");
        if out.is_empty() {
            return;
        }
        kernels::count_dispatch(groups * k);
        let ldb = width.div_ceil(kernels::NT_PANEL_ALIGN) * kernels::NT_PANEL_ALIGN;
        let mut packed = gemm::pack_scratch(co, ldb);
        gemm::pack_transposed(w.as_slice(), width, co, ldb, packed.as_mut_slice());
        let bt = packed.as_slice();
        let (gy, pv) = (self.as_slice(), pooled.as_slice());
        let slab_rows = (MC / k).max(1) * k;
        let work = (out.len() * co, MIN_PAR_MACS);
        for_each_row_band(out.as_mut_slice(), width, slab_rows, work, |e0, band| {
            let mut gx = gemm::pack_scratch(slab_rows, co);
            for (s, slab) in band.chunks_mut(slab_rows * width).enumerate() {
                let s0 = e0 + s * slab_rows;
                let n_edges = slab.len() / width;
                let gx = &mut gx.as_mut_slice()[..n_edges * co];
                let (first, rest) = gx.split_at_mut(co);
                for (o, &sc) in first.iter_mut().zip(scale) {
                    *o = kernels::scalar::affine_act_grad_lane(0.0, 0.0, sc, act);
                }
                for row in rest.chunks_exact_mut(co.max(1)) {
                    row.copy_from_slice(first);
                }
                for g in s0 / k..(s0 + n_edges) / k {
                    let span = g * co..(g + 1) * co;
                    let terms = argmax[span.clone()].iter().zip(&gy[span.clone()]).zip(&pv[span]);
                    for (c, (((&e, &g), &p), &sc)) in terms.zip(scale).enumerate() {
                        let lane = kernels::scalar::affine_act_grad_lane(0.0 + g, p, sc, act);
                        gx[(e - s0) * co + c] = lane;
                    }
                }
                kernels::matmul_nt_rows(gx, co, bt, ldb, slab, width);
            }
            gemm::pack_recycle(gx);
        });
        gemm::pack_recycle(packed);
    }
}

/// A row-gather index list — position `d` reads source row `indices()[d]`
/// — together with its inverse: for every source row, the positions that
/// read it, in ascending order.
///
/// A gather's backward is a scatter. Through the inverse every destination
/// row collects its own terms, so the scatter splits destination rows
/// across threads while each element keeps the serial scatter's
/// ascending-position order. Built once per index list (a model's geometry
/// plan holds them) and shared by reference afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatherIndex {
    idx: Vec<usize>,
    starts: Vec<usize>,
    readers: Vec<usize>,
}

impl GatherIndex {
    /// Indexes `idx` over `rows` source rows (a stable counting sort).
    ///
    /// # Panics
    ///
    /// Panics when an index is `>= rows`.
    pub fn new(idx: Vec<usize>, rows: usize) -> Self {
        let mut starts = vec![0usize; rows + 1];
        for &s in &idx {
            assert!(s < rows, "GatherIndex: index {s} out of bounds (rows={rows})");
            starts[s + 1] += 1;
        }
        for r in 0..rows {
            starts[r + 1] += starts[r];
        }
        let mut next = starts[..rows].to_vec();
        let mut readers = vec![0usize; idx.len()];
        for (d, &s) in idx.iter().enumerate() {
            readers[next[s]] = d;
            next[s] += 1;
        }
        Self { idx, starts, readers }
    }

    /// The gather positions' source rows.
    pub fn indices(&self) -> &[usize] {
        &self.idx
    }

    /// Number of gather positions.
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// Whether the gather has no positions.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// Number of source rows the index was built over.
    pub fn source_rows(&self) -> usize {
        self.starts.len() - 1
    }

    /// The positions that read source row `row`, ascending.
    ///
    /// # Panics
    ///
    /// Panics when `row >= self.source_rows()`.
    pub fn readers(&self, row: usize) -> &[usize] {
        &self.readers[self.starts[row]..self.starts[row + 1]]
    }
}

/// The weights of ResGCN's eval-mode edge convolution
/// ([`Matrix::edge_conv_into`]): a `[2C, Co]` matrix applied to every
/// edge row `[h_i | h_j - h_i]`, eval batch norm folded into the `[Co]`
/// rows `scale` and `shift`, the activation, and the `k` consecutive
/// edges max-pooled into each output row.
#[derive(Debug, Clone, Copy)]
pub struct EdgeConv<'a> {
    /// The edge MLP's `[2C, Co]` weight.
    pub w: &'a Matrix,
    /// The `Co` batch-norm scales.
    pub scale: &'a [f32],
    /// The `Co` batch-norm shifts.
    pub shift: &'a [f32],
    /// The activation after the batch norm.
    pub act: Act,
    /// Edges per output row.
    pub k: usize,
}

/// Scans one group of rows (`group`, whose row width is `arg.len()`) the
/// way [`kernels::scalar::group_max`] does and writes, per column, the
/// winning row as `r0 + j` for the group's row `j`. The running maximum
/// starts at `-inf` and only a strictly greater element replaces it, so
/// ties keep the earliest row and NaN never wins; an all-NaN or all
/// `-inf` column names the group's first row.
///
/// The strict `>` test is written as a mask so the column loop
/// vectorizes. The running maximum only feeds that test, so it may
/// advance with `f32::max`: it differs from the serial loop's value only
/// on a tie between `-0.0` and `+0.0`, which compare equal, and it
/// ignores NaN exactly as `>` does.
fn group_winners(group: &[f32], r0: usize, arg: &mut [usize]) {
    let cols = arg.len();
    if cols == 0 {
        return;
    }
    let mut best = [0.0f32; COL_BLOCK];
    let mut win = [0u32; COL_BLOCK];
    for (cb, arg) in arg.chunks_mut(COL_BLOCK).enumerate() {
        let c0 = cb * COL_BLOCK;
        let (best, win) = (&mut best[..arg.len()], &mut win[..arg.len()]);
        best.fill(f32::NEG_INFINITY);
        win.fill(0);
        for (j, row) in group.chunks_exact(cols).enumerate() {
            let row = &row[c0..c0 + arg.len()];
            for ((b, w), &v) in best.iter_mut().zip(win.iter_mut()).zip(row) {
                let take = u32::from(v > *b).wrapping_neg();
                *w ^= (*w ^ j as u32) & take;
                *b = b.max(v);
            }
        }
        for (a, &w) in arg.iter_mut().zip(win.iter()) {
            *a = r0 + w as usize;
        }
    }
}

/// The serial group max's value at its winning element `v`: `v` itself
/// whenever it beat the initial `-inf`, and `-inf` otherwise (the
/// group's first row is then NaN or `-inf`).
#[inline]
fn pooled_max(v: f32) -> f32 {
    if v > f32::NEG_INFINITY {
        v
    } else {
        f32::NEG_INFINITY
    }
}
