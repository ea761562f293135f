//! Elementwise math, matrix multiplication and reductions on [`Matrix`].
//!
//! The matmul family and the large elementwise kernels consult the ambient
//! [`colper_runtime`] runtime and split their *output rows/elements* across
//! the worker pool. Each output element is produced by exactly one task
//! using the same operation order as the sequential loop, so parallel
//! results are bit-identical to sequential ones (see `par.rs`).
//!
//! All hot inner loops route through [`crate::kernels`], whose scalar and
//! AVX2 paths are bit-identical — so neither thread count nor SIMD
//! dispatch ever changes a result.

use crate::gemm::{self, GemmMode};
use crate::kernels;
use crate::par::{chunk_len, for_each_row_band, runtime_for, MIN_PAR_ELEMS, MIN_PAR_MACS};
use crate::{Matrix, ShapeError, TensorError};

impl Matrix {
    /// Elementwise sum with another matrix of the same shape.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix, TensorError> {
        self.zip_with("add", other, kernels::add)
    }

    /// Elementwise difference with another matrix of the same shape.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the shapes differ.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix, TensorError> {
        self.zip_with("sub", other, kernels::sub)
    }

    /// Elementwise (Hadamard) product with another matrix of the same shape.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the shapes differ.
    pub fn mul(&self, other: &Matrix) -> Result<Matrix, TensorError> {
        self.zip_with("mul", other, kernels::mul)
    }

    /// Elementwise quotient with another matrix of the same shape.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the shapes differ.
    pub fn div(&self, other: &Matrix) -> Result<Matrix, TensorError> {
        self.zip_with("div", other, kernels::div)
    }

    /// [`Matrix::add`] writing into a caller-provided matrix.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the operand shapes differ.
    pub fn add_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), TensorError> {
        self.zip_with_into("add", other, out, kernels::add)
    }

    /// [`Matrix::sub`] writing into a caller-provided matrix.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the operand shapes differ.
    pub fn sub_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), TensorError> {
        self.zip_with_into("sub", other, out, kernels::sub)
    }

    /// [`Matrix::mul`] writing into a caller-provided matrix.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the operand shapes differ.
    pub fn mul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), TensorError> {
        self.zip_with_into("mul", other, out, kernels::mul)
    }

    /// [`Matrix::div`] writing into a caller-provided matrix.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the operand shapes differ.
    pub fn div_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), TensorError> {
        self.zip_with_into("div", other, out, kernels::div)
    }

    fn zip_with(
        &self,
        op: &'static str,
        other: &Matrix,
        k: fn(&[f32], &[f32], &mut [f32]),
    ) -> Result<Matrix, TensorError> {
        let mut out = Matrix::zeros(self.rows(), self.cols());
        self.zip_with_into(op, other, &mut out, k)?;
        Ok(out)
    }

    /// Shared driver for the elementwise binary ops: shape checks plus the
    /// parallel chunk split, delegating the arithmetic to a dispatched
    /// [`kernels`] kernel. The kernels are elementwise, so the chunk
    /// boundaries cannot affect results; writing into a recycled buffer
    /// is bit-identical to the allocating path.
    fn zip_with_into(
        &self,
        op: &'static str,
        other: &Matrix,
        out: &mut Matrix,
        k: fn(&[f32], &[f32], &mut [f32]),
    ) -> Result<(), TensorError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new(op, self.shape(), other.shape()).into());
        }
        assert_eq!(out.shape(), self.shape(), "{op}_into: output shape mismatch");
        kernels::count_dispatch(1);
        let (a, b) = (self.as_slice(), other.as_slice());
        if let Some(rt) = runtime_for(self.len(), MIN_PAR_ELEMS) {
            let chunk = chunk_len(a.len(), &rt);
            rt.par_chunks_mut(out.as_mut_slice(), chunk, |c, sub| {
                let base = c * chunk;
                k(&a[base..base + sub.len()], &b[base..base + sub.len()], sub);
            });
            return Ok(());
        }
        k(a, b, out.as_mut_slice());
        Ok(())
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics when the shapes differ; in-place accumulation is an internal
    /// hot path where a shape mismatch is a programming error.
    pub fn add_assign(&mut self, other: &Matrix) {
        self.zip_assign("add_assign", other, kernels::add_assign);
    }

    /// Subtracts `other` from `self` in place.
    ///
    /// # Panics
    ///
    /// Panics when the shapes differ, like [`Matrix::add_assign`].
    pub fn sub_assign(&mut self, other: &Matrix) {
        self.zip_assign("sub_assign", other, kernels::sub_assign);
    }

    /// Shared driver for the in-place binary ops: the elementwise chunk
    /// split of [`Matrix::add`] over a dispatched assign kernel.
    fn zip_assign(&mut self, op: &'static str, other: &Matrix, k: fn(&mut [f32], &[f32])) {
        assert_eq!(self.shape(), other.shape(), "{op} requires equal shapes");
        kernels::count_dispatch(1);
        let b = other.as_slice();
        if let Some(rt) = runtime_for(self.len(), MIN_PAR_ELEMS) {
            let chunk = chunk_len(b.len(), &rt);
            rt.par_chunks_mut(self.as_mut_slice(), chunk, |c, sub| {
                let base = c * chunk;
                k(sub, &b[base..base + sub.len()]);
            });
            return;
        }
        k(self.as_mut_slice(), b);
    }

    /// Returns a new matrix with every element multiplied by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), self.cols());
        self.scale_into(s, &mut out);
        out
    }

    /// [`Matrix::scale`] writing into a caller-provided matrix.
    ///
    /// # Panics
    ///
    /// Panics when `out` has a different shape.
    pub fn scale_into(&self, s: f32, out: &mut Matrix) {
        assert_eq!(out.shape(), self.shape(), "scale_into: output shape mismatch");
        kernels::count_dispatch(1);
        let a = self.as_slice();
        if let Some(rt) = runtime_for(self.len(), MIN_PAR_ELEMS) {
            let chunk = chunk_len(a.len(), &rt);
            rt.par_chunks_mut(out.as_mut_slice(), chunk, |c, sub| {
                let base = c * chunk;
                kernels::scale(&a[base..base + sub.len()], s, sub);
            });
            return;
        }
        kernels::scale(a, s, out.as_mut_slice());
    }

    /// Elementwise hyperbolic tangent via the dispatched [`kernels::tanh`]
    /// (a clamp + rational approximation whose scalar and SIMD paths are
    /// bit-identical; accurate to a few ULP against `f32::tanh`).
    pub fn tanh(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), self.cols());
        self.tanh_into(&mut out);
        out
    }

    /// [`Matrix::tanh`] writing into a caller-provided matrix.
    ///
    /// # Panics
    ///
    /// Panics when `out` has a different shape.
    pub fn tanh_into(&self, out: &mut Matrix) {
        assert_eq!(out.shape(), self.shape(), "tanh_into: output shape mismatch");
        kernels::count_dispatch(1);
        let a = self.as_slice();
        if let Some(rt) = runtime_for(self.len(), MIN_PAR_ELEMS) {
            let chunk = chunk_len(a.len(), &rt);
            rt.par_chunks_mut(out.as_mut_slice(), chunk, |c, sub| {
                let base = c * chunk;
                kernels::tanh(&a[base..base + sub.len()], sub);
            });
            return;
        }
        kernels::tanh(a, out.as_mut_slice());
    }

    /// Returns a new matrix with `s` added to every element.
    pub fn add_scalar(&self, s: f32) -> Matrix {
        self.map(|v| v + s)
    }

    /// Applies `f` to every element, producing a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), self.cols());
        self.map_into(&mut out, f);
        out
    }

    /// [`Matrix::map`] writing into a caller-provided matrix of the same
    /// shape. Same parallel split as the allocating path, so results are
    /// bit-identical.
    ///
    /// # Panics
    ///
    /// Panics when `out` has a different shape.
    pub fn map_into(&self, out: &mut Matrix, f: impl Fn(f32) -> f32 + Sync) {
        assert_eq!(out.shape(), self.shape(), "map_into: output shape mismatch");
        let a = self.as_slice();
        if let Some(rt) = runtime_for(self.len(), MIN_PAR_ELEMS) {
            let chunk = chunk_len(a.len(), &rt);
            rt.par_chunks_mut(out.as_mut_slice(), chunk, |c, sub| {
                let base = c * chunk;
                for (off, o) in sub.iter_mut().enumerate() {
                    *o = f(a[base + off]);
                }
            });
            return;
        }
        for (o, &v) in out.as_mut_slice().iter_mut().zip(a) {
            *o = f(v);
        }
    }

    /// `out[i] = f(self[i], other[i])` for two same-shape matrices, with
    /// the parallel split of [`Matrix::map_into`]. One pass instead of a
    /// [`Matrix::map_into`] into a temporary followed by an elementwise
    /// product: when `f` performs the same operations per element, the
    /// result is bit-identical.
    ///
    /// # Panics
    ///
    /// Panics when `other` or `out` has a different shape.
    pub fn zip_map_into(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        f: impl Fn(f32, f32) -> f32 + Sync,
    ) {
        assert_eq!(other.shape(), self.shape(), "zip_map_into: operand shape mismatch");
        assert_eq!(out.shape(), self.shape(), "zip_map_into: output shape mismatch");
        let (a, b) = (self.as_slice(), other.as_slice());
        if let Some(rt) = runtime_for(self.len(), MIN_PAR_ELEMS) {
            let chunk = chunk_len(a.len(), &rt);
            rt.par_chunks_mut(out.as_mut_slice(), chunk, |c, sub| {
                let base = c * chunk;
                let (a, b) = (&a[base..base + sub.len()], &b[base..base + sub.len()]);
                for ((o, &x), &y) in sub.iter_mut().zip(a).zip(b) {
                    *o = f(x, y);
                }
            });
            return;
        }
        for ((o, &x), &y) in out.as_mut_slice().iter_mut().zip(a).zip(b) {
            *o = f(x, y);
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.as_mut_slice() {
            *v = f(*v);
        }
    }

    /// Matrix product `self * other` (`[m,k] x [k,n] -> [m,n]`).
    ///
    /// Uses an i-k-j loop order so the inner loop streams both operand rows,
    /// which is the cache-friendly layout for row-major storage. Large
    /// products split their output rows across the ambient runtime; each row
    /// keeps the sequential accumulation order, so results are bit-identical
    /// at any thread count.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, TensorError> {
        let mut out = Matrix::zeros(self.rows(), other.cols());
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matmul`] writing into a caller-provided matrix (every
    /// element is overwritten, so recycled buffers are safe).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `self.cols() != other.rows()`.
    ///
    /// # Panics
    ///
    /// Panics when `out` is not `[m, n]`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), TensorError> {
        if self.cols() != other.rows() {
            return Err(ShapeError::new("matmul", self.shape(), other.shape()).into());
        }
        let (m, k) = self.shape();
        let n = other.cols();
        assert_eq!(out.shape(), (m, n), "matmul_into: output shape mismatch");
        kernels::count_dispatch(m);
        if gemm::gemm_mode() != GemmMode::Row {
            let (a, b) = (self.as_slice(), other.as_slice());
            gemm::gemm_into((a, k, 1), b, (m, k, n), out.as_mut_slice());
            return Ok(());
        }
        let b = other.as_slice();
        for_each_row_band(out.as_mut_slice(), n, 1, (m * k * n, MIN_PAR_MACS), |r0, band| {
            for (j, out_row) in band.chunks_mut(n).enumerate() {
                out_row.fill(0.0);
                kernels::matmul_row(self.row(r0 + j), b, n, out_row);
            }
        });
        Ok(())
    }

    /// Matrix product `self^T * other` (`[k,m]^T x [k,n] -> [m,n]`) without
    /// materializing the transpose.
    ///
    /// The loop nest is output-row (`i`) outermost so rows can be split
    /// across the ambient runtime; every `out[i][j]` still accumulates its
    /// `k` terms in ascending-`k` order, exactly as the previous `k`-outer
    /// formulation did, so results are bit-identical (and thread-count
    /// independent).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `self.rows() != other.rows()`.
    pub fn matmul_tn(&self, other: &Matrix) -> Result<Matrix, TensorError> {
        let mut out = Matrix::zeros(self.cols(), other.cols());
        self.matmul_tn_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matmul_tn`] writing into a caller-provided matrix (every
    /// element is overwritten, so recycled buffers are safe). The
    /// micro-tiles read `self^T` in place; the row kernel reads a packed
    /// copy.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `self.rows() != other.rows()`.
    ///
    /// # Panics
    ///
    /// Panics when `out` is not `[m, n]`.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), TensorError> {
        if self.rows() != other.rows() {
            return Err(ShapeError::new("matmul_tn", self.shape(), other.shape()).into());
        }
        let (k, m) = self.shape();
        let n = other.cols();
        assert_eq!(out.shape(), (m, n), "matmul_tn_into: output shape mismatch");
        if m == 0 || n == 0 || k == 0 {
            out.as_mut_slice().fill(0.0);
            return Ok(());
        }
        kernels::count_dispatch(m);
        if gemm::gemm_mode() != GemmMode::Row {
            // The tiles read self^T in place: element (i, kk) is self[kk][i].
            let (a, b) = (self.as_slice(), other.as_slice());
            gemm::gemm_into((a, 1, m), b, (m, k, n), out.as_mut_slice());
            return Ok(());
        }
        // Pack self^T into a pooled panel so the row kernel reads
        // contiguous rows instead of stride-m columns. Packing happens on
        // the calling thread before the row split, so the panel contents —
        // and therefore the results — are independent of thread count.
        let mut packed = gemm::pack_scratch(m, k);
        self.transpose_into(&mut packed);
        let b = other.as_slice();
        let packed_ref = &packed;
        for_each_row_band(out.as_mut_slice(), n, 1, (m * k * n, MIN_PAR_MACS), |r0, band| {
            for (j, out_row) in band.chunks_mut(n).enumerate() {
                out_row.fill(0.0);
                kernels::matmul_row(packed_ref.row(r0 + j), b, n, out_row);
            }
        });
        gemm::pack_recycle(packed);
        Ok(())
    }

    /// Matrix product `self * other^T` (`[m,k] x [n,k]^T -> [m,n]`) without
    /// materializing the transpose.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `self.cols() != other.cols()`.
    pub fn matmul_nt(&self, other: &Matrix) -> Result<Matrix, TensorError> {
        let mut out = Matrix::zeros(self.rows(), other.rows());
        self.matmul_nt_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matmul_nt`] writing into a caller-provided matrix. Every
    /// output element is fully overwritten, so recycled buffers are safe
    /// without pre-zeroing.
    ///
    /// Every element is [`kernels::dot`] of a row of `self` with a row of
    /// `other`, lane for lane. The kernel packs `other^T` once, on the
    /// calling thread, into a zero-padded pooled panel and runs
    /// [`kernels::matmul_nt_rows`] over bands of output rows, which
    /// vectorizes across output columns (and, on AVX-512, runs three rows
    /// per pass) while keeping each element's eight lane partials and
    /// combine tree; the bands split across the ambient runtime.
    /// The result is bit-identical to the per-element `dot` loop at any
    /// thread count and on every SIMD leg.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `self.cols() != other.cols()`.
    ///
    /// # Panics
    ///
    /// Panics when `out` is not `[m, n]`.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), TensorError> {
        if self.cols() != other.cols() {
            return Err(ShapeError::new("matmul_nt", self.shape(), other.shape()).into());
        }
        let m = self.rows();
        let k = self.cols();
        let n = other.rows();
        assert_eq!(out.shape(), (m, n), "matmul_nt_into: output shape mismatch");
        if m == 0 || n == 0 {
            return Ok(());
        }
        kernels::count_dispatch(m);
        let ldb = n.div_ceil(kernels::NT_PANEL_ALIGN) * kernels::NT_PANEL_ALIGN;
        let mut packed = gemm::pack_scratch(k, ldb);
        gemm::pack_transposed(other.as_slice(), n, k, ldb, packed.as_mut_slice());
        let bt = packed.as_slice();
        let a = self.as_slice();
        for_each_row_band(out.as_mut_slice(), n, 1, (m * k * n, MIN_PAR_MACS), |r0, band| {
            let rows = band.len() / n;
            kernels::matmul_nt_rows(&a[r0 * k..(r0 + rows) * k], k, bt, ldb, band, n);
        });
        gemm::pack_recycle(packed);
        Ok(())
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols(), self.rows());
        self.transpose_into(&mut out);
        out
    }

    /// [`Matrix::transpose`] writing into a caller-provided `[c, r]`
    /// matrix. Every element is fully overwritten, so recycled (dirty)
    /// buffers are safe. Walks 32x32 blocks so both source reads and
    /// destination writes stay cache-resident.
    ///
    /// # Panics
    ///
    /// Panics when `out` is not `[cols, rows]`.
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.cols(), self.rows()),
            "transpose_into: output shape mismatch"
        );
        const BLOCK: usize = 32;
        let (r, c) = self.shape();
        let src = self.as_slice();
        let dst = out.as_mut_slice();
        for rb in (0..r).step_by(BLOCK) {
            for cb in (0..c).step_by(BLOCK) {
                for i in rb..(rb + BLOCK).min(r) {
                    for j in cb..(cb + BLOCK).min(c) {
                        dst[j * r + i] = src[i * c + j];
                    }
                }
            }
        }
    }

    /// Sum of all elements (dispatched lane-strided reduction; see
    /// [`kernels::sum`]).
    pub fn sum(&self) -> f32 {
        kernels::count_dispatch(1);
        kernels::sum(self.as_slice())
    }

    /// Arithmetic mean of all elements; `0.0` for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Column-wise sums (`[n, c] -> [1, c]`).
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols());
        self.sum_rows_into(&mut out);
        out
    }

    /// [`Matrix::sum_rows`] writing into a caller-provided `[1, c]` matrix
    /// (which is zeroed first, so recycled buffers are safe).
    ///
    /// # Panics
    ///
    /// Panics when `out` is not `[1, c]`.
    pub fn sum_rows_into(&self, out: &mut Matrix) {
        assert_eq!(out.shape(), (1, self.cols()), "sum_rows_into: output shape mismatch");
        kernels::count_dispatch(self.rows());
        out.as_mut_slice().fill(0.0);
        for row in self.iter_rows() {
            kernels::add_assign(out.as_mut_slice(), row);
        }
    }

    /// Column-wise means (`[n, c] -> [1, c]`); zeros for an empty matrix.
    pub fn mean_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols());
        self.mean_rows_into(&mut out);
        out
    }

    /// [`Matrix::mean_rows`] writing into a caller-provided `[1, c]` matrix.
    ///
    /// # Panics
    ///
    /// Panics when `out` is not `[1, c]`.
    pub fn mean_rows_into(&self, out: &mut Matrix) {
        if self.rows() == 0 {
            assert_eq!(out.shape(), (1, self.cols()), "mean_rows_into: output shape mismatch");
            out.as_mut_slice().fill(0.0);
            return;
        }
        self.sum_rows_into(out);
        kernels::count_dispatch(1);
        kernels::scale_assign(out.as_mut_slice(), 1.0 / self.rows() as f32);
    }

    /// Row-wise sums (`[n, c] -> [n, 1]`).
    pub fn sum_cols(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), 1);
        self.sum_cols_into(&mut out);
        out
    }

    /// [`Matrix::sum_cols`] writing into a caller-provided `[n, 1]` matrix.
    /// Every element is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics when `out` is not `[n, 1]`.
    pub fn sum_cols_into(&self, out: &mut Matrix) {
        assert_eq!(out.shape(), (self.rows(), 1), "sum_cols_into: output shape mismatch");
        kernels::count_dispatch(self.rows());
        for (o, r) in out.as_mut_slice().iter_mut().zip(self.iter_rows()) {
            *o = kernels::sum(r);
        }
    }

    /// Index of the maximum element in each row.
    ///
    /// Ties resolve to the smallest index; an empty row set yields an empty
    /// vector.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.argmax_rows_into(&mut out);
        out
    }

    /// [`Matrix::argmax_rows`] writing into a caller-provided vector, which
    /// is cleared first (its capacity is reused).
    pub fn argmax_rows_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.iter_rows().map(|row| {
            row.iter()
                .enumerate()
                .fold(
                    (0usize, f32::NEG_INFINITY),
                    |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    },
                )
                .0
        }));
    }

    /// The largest element, or `None` for an empty matrix.
    pub fn max(&self) -> Option<f32> {
        self.as_slice().iter().copied().fold(None, |acc, v| match acc {
            None => Some(v),
            Some(a) => Some(a.max(v)),
        })
    }

    /// The smallest element, or `None` for an empty matrix.
    pub fn min(&self) -> Option<f32> {
        self.as_slice().iter().copied().fold(None, |acc, v| match acc {
            None => Some(v),
            Some(a) => Some(a.min(v)),
        })
    }

    /// The squared Frobenius norm (dispatched lane-strided fused sum of
    /// squares; see [`kernels::sum_sq`]).
    pub fn frobenius_sq(&self) -> f32 {
        kernels::count_dispatch(1);
        kernels::sum_sq(self.as_slice())
    }

    /// The Frobenius norm.
    pub fn frobenius(&self) -> f32 {
        self.frobenius_sq().sqrt()
    }

    /// Clamps every element to `[lo, hi]`, producing a new matrix.
    pub fn clamp(&self, lo: f32, hi: f32) -> Matrix {
        self.map(|v| v.clamp(lo, hi))
    }

    /// Stacks `others` below `self`, producing a `[sum(rows), c]` matrix.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when any operand has a different column
    /// count.
    pub fn vstack(&self, others: &[&Matrix]) -> Result<Matrix, TensorError> {
        let total_rows = self.rows() + others.iter().map(|m| m.rows()).sum::<usize>();
        let mut data = Vec::with_capacity(total_rows * self.cols());
        data.extend_from_slice(self.as_slice());
        for m in others {
            if m.cols() != self.cols() {
                return Err(ShapeError::new("vstack", self.shape(), m.shape()).into());
            }
            data.extend_from_slice(m.as_slice());
        }
        Matrix::from_vec(total_rows, self.cols(), data)
    }

    /// Concatenates `other` to the right of `self`, producing `[n, c1+c2]`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix, TensorError> {
        let mut out = Matrix::zeros(self.rows(), self.cols() + other.cols());
        self.hstack_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::hstack`] writing into a caller-provided `[n, c1+c2]`
    /// matrix. Every element is fully overwritten; large copies split
    /// their rows across the ambient runtime.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the row counts differ.
    ///
    /// # Panics
    ///
    /// Panics when `out` is not `[n, c1+c2]`.
    pub fn hstack_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), TensorError> {
        if self.rows() != other.rows() {
            return Err(ShapeError::new("hstack", self.shape(), other.shape()).into());
        }
        assert_eq!(
            out.shape(),
            (self.rows(), self.cols() + other.cols()),
            "hstack_into: output shape mismatch"
        );
        let (c1, width, work) = (self.cols(), out.cols(), out.len());
        for_each_row_band(out.as_mut_slice(), width, 1, (work, MIN_PAR_ELEMS), |r0, band| {
            for (r, dst) in band.chunks_exact_mut(width).enumerate() {
                dst[..c1].copy_from_slice(self.row(r0 + r));
                dst[c1..].copy_from_slice(other.row(r0 + r));
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: &[&[f32]]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn add_sub_mul_div() {
        let a = m(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = m(&[&[4.0, 3.0], &[2.0, 1.0]]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(a.sub(&b).unwrap().as_slice(), &[-3.0, -1.0, 1.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 6.0, 6.0, 4.0]);
        assert_eq!(a.div(&b).unwrap().as_slice(), &[0.25, 2.0 / 3.0, 1.5, 4.0]);
    }

    #[test]
    fn elementwise_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(a.add(&b).is_err());
        assert!(a.mul(&b).is_err());
    }

    #[test]
    fn matmul_known_product() {
        let a = m(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = m(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_dimension_check() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = m(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = m(&[&[1.0, 0.5], &[2.0, 1.5], &[3.0, 2.5]]);
        let direct = a.transpose().matmul(&b).unwrap();
        let fused = a.matmul_tn(&b).unwrap();
        assert!(direct.max_abs_diff(&fused) < 1e-6);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = m(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = m(&[&[1.0, 0.0, 1.0], &[0.5, 0.5, 0.5]]);
        let direct = a.matmul(&b.transpose()).unwrap();
        let fused = a.matmul_nt(&b).unwrap();
        assert!(direct.max_abs_diff(&fused) < 1e-6);
    }

    #[test]
    fn transpose_round_trip() {
        let a = m(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn reductions() {
        let a = m(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.sum_rows().as_slice(), &[4.0, 6.0]);
        assert_eq!(a.mean_rows().as_slice(), &[2.0, 3.0]);
        assert_eq!(a.sum_cols().as_slice(), &[3.0, 7.0]);
        assert_eq!(a.max(), Some(4.0));
        assert_eq!(a.min(), Some(1.0));
    }

    #[test]
    fn argmax_rows_breaks_ties_low() {
        let a = m(&[&[1.0, 3.0, 3.0], &[5.0, 2.0, 1.0]]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn frobenius_norm() {
        let a = m(&[&[3.0, 4.0]]);
        assert_eq!(a.frobenius_sq(), 25.0);
        assert_eq!(a.frobenius(), 5.0);
    }

    #[test]
    fn clamp_bounds_values() {
        let a = m(&[&[-2.0, 0.5, 2.0]]);
        assert_eq!(a.clamp(0.0, 1.0).as_slice(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn stack_operations() {
        let a = m(&[&[1.0, 2.0]]);
        let b = m(&[&[3.0, 4.0]]);
        let v = a.vstack(&[&b]).unwrap();
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v.row(1), &[3.0, 4.0]);
        let h = a.hstack(&b).unwrap();
        assert_eq!(h.shape(), (1, 4));
        assert_eq!(h.row(0), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn stack_shape_errors() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(1, 3);
        assert!(a.vstack(&[&b]).is_err());
        let c = Matrix::zeros(2, 2);
        assert!(a.hstack(&c).is_err());
    }

    #[test]
    fn scale_and_map() {
        let a = m(&[&[1.0, -2.0]]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, -4.0]);
        assert_eq!(a.add_scalar(1.0).as_slice(), &[2.0, -1.0]);
        assert_eq!(a.map(f32::abs).as_slice(), &[1.0, 2.0]);
        let mut b = a.clone();
        b.map_inplace(|v| v * v);
        assert_eq!(b.as_slice(), &[1.0, 4.0]);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = Matrix::ones(2, 2);
        let b = Matrix::filled(2, 2, 0.5);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[1.5, 1.5, 1.5, 1.5]);
    }

    #[test]
    fn parallel_kernels_are_bit_identical_to_sequential() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // Big enough to cross every parallel threshold.
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::from_fn(96, 80, |_, _| rng.gen_range(-1.0f32..1.0));
        let b = Matrix::from_fn(80, 96, |_, _| rng.gen_range(-1.0f32..1.0));
        let seq = (
            a.matmul(&b).unwrap(),
            a.matmul_tn(&a).unwrap(),
            a.matmul_nt(&a).unwrap(),
            a.add(&a).unwrap(),
            a.map(|v| v * 1.7 + 0.3),
            a.select_rows(&vec![5usize; 500]),
        );
        let rt = colper_runtime::Runtime::new(4);
        let par = rt.install(|| {
            (
                a.matmul(&b).unwrap(),
                a.matmul_tn(&a).unwrap(),
                a.matmul_nt(&a).unwrap(),
                a.add(&a).unwrap(),
                a.map(|v| v * 1.7 + 0.3),
                a.select_rows(&vec![5usize; 500]),
            )
        });
        // PartialEq on Matrix is exact f32 equality, i.e. bit identity for
        // non-NaN data.
        assert_eq!(seq, par);
    }

    #[test]
    fn into_variants_match_allocating_variants() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let a = Matrix::from_fn(17, 9, |_, _| rng.gen_range(-2.0f32..2.0));
        let b = Matrix::from_fn(17, 9, |_, _| rng.gen_range(-2.0f32..2.0));
        let c = Matrix::from_fn(9, 6, |_, _| rng.gen_range(-2.0f32..2.0));

        // Deliberately dirty recycled buffers: every `_into` kernel must
        // fully define its output.
        let mut out = Matrix::filled(17, 9, f32::NAN);
        a.add_into(&b, &mut out).unwrap();
        assert_eq!(out, a.add(&b).unwrap());
        a.sub_into(&b, &mut out).unwrap();
        assert_eq!(out, a.sub(&b).unwrap());
        a.mul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.mul(&b).unwrap());
        a.div_into(&b, &mut out).unwrap();
        assert_eq!(out, a.div(&b).unwrap());
        a.map_into(&mut out, |v| v * 1.7 + 0.3);
        assert_eq!(out, a.map(|v| v * 1.7 + 0.3));
        a.scale_into(-0.35, &mut out);
        assert_eq!(out, a.scale(-0.35));
        a.tanh_into(&mut out);
        assert_eq!(out, a.tanh());

        let mut tr = Matrix::filled(9, 17, f32::NAN);
        a.transpose_into(&mut tr);
        assert_eq!(tr, a.transpose());

        let mut mm = Matrix::filled(17, 6, f32::NAN);
        a.matmul_into(&c, &mut mm).unwrap();
        assert_eq!(mm, a.matmul(&c).unwrap());
        let mut tn = Matrix::filled(9, 9, f32::NAN);
        a.matmul_tn_into(&b, &mut tn).unwrap();
        assert_eq!(tn, a.matmul_tn(&b).unwrap());
        let mut nt = Matrix::filled(17, 17, f32::NAN);
        a.matmul_nt_into(&b, &mut nt).unwrap();
        assert_eq!(nt, a.matmul_nt(&b).unwrap());

        let mut sr = Matrix::filled(1, 9, f32::NAN);
        a.sum_rows_into(&mut sr);
        assert_eq!(sr, a.sum_rows());
        a.mean_rows_into(&mut sr);
        assert_eq!(sr, a.mean_rows());
        let mut sc = Matrix::filled(17, 1, f32::NAN);
        a.sum_cols_into(&mut sc);
        assert_eq!(sc, a.sum_cols());

        let mut hs = Matrix::filled(17, 18, f32::NAN);
        a.hstack_into(&b, &mut hs).unwrap();
        assert_eq!(hs, a.hstack(&b).unwrap());

        let mut idx = vec![99usize; 3];
        a.argmax_rows_into(&mut idx);
        assert_eq!(idx, a.argmax_rows());
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn into_variant_rejects_wrong_output_shape() {
        let a = Matrix::zeros(2, 2);
        let mut out = Matrix::zeros(3, 3);
        let _ = a.add_into(&a, &mut out);
    }

    #[test]
    fn into_variant_propagates_operand_shape_error() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        let mut out = Matrix::zeros(2, 2);
        assert!(a.add_into(&b, &mut out).is_err());
        let mut mm = Matrix::zeros(2, 3);
        assert!(a.matmul_into(&b, &mut mm).is_ok());
        assert!(b.matmul_into(&a, &mut mm).is_err());
    }

    #[test]
    fn empty_matrix_reductions() {
        let e = Matrix::zeros(0, 3);
        assert_eq!(e.sum(), 0.0);
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.max(), None);
        assert_eq!(e.mean_rows().shape(), (1, 3));
    }
}
