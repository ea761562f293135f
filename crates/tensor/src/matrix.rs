//! The core [`Matrix`] type: a row-major 2-D `f32` tensor.

use crate::TensorError;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `rows x cols` matrix of `f32` values.
///
/// `Matrix` is the universal container of the workspace: point features
/// (`[N, C]`), network weights (`[C_in, C_out]`), logits (`[N, classes]`)
/// and gradients all live in this type.
///
/// # Example
///
/// ```
/// use colper_tensor::Matrix;
///
/// let m = Matrix::zeros(2, 3);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m[(1, 2)], 0.0);
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows x cols` matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::DataLength { got: data.len(), expected: rows * cols });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] when the rows have uneven
    /// lengths, and [`TensorError::Empty`] when `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self, TensorError> {
        let first = rows.first().ok_or(TensorError::Empty("from_rows"))?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(TensorError::DataLength { got: row.len(), expected: cols });
            }
            data.extend_from_slice(row);
        }
        Ok(Self { rows: rows.len(), cols, data })
    }

    /// Creates a single-row matrix (`1 x n`) from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self { rows: 1, cols: values.len(), data: values.to_vec() }
    }

    /// Creates a single-column matrix (`n x 1`) from a slice.
    pub fn col_vector(values: &[f32]) -> Self {
        Self { rows: values.len(), cols: 1, data: values.to_vec() }
    }

    /// Builds a `rows x cols` matrix by calling `f(r, c)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The shape as a `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements (`rows * cols`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix contains no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The underlying row-major buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the underlying row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns row `r` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics when `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index {r} out of bounds for {} rows", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns row `r` as a slice.
    ///
    /// The fallible counterpart of [`Matrix::row`], following the same
    /// convention as [`Matrix::get`] / [`Matrix::at`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when `r >= rows`.
    pub fn get_row(&self, r: usize) -> Result<&[f32], TensorError> {
        if r >= self.rows {
            return Err(TensorError::IndexOutOfBounds { index: r, bound: self.rows });
        }
        Ok(&self.data[r * self.cols..(r + 1) * self.cols])
    }

    /// Returns row `r` as a mutable slice.
    ///
    /// The fallible counterpart of [`Matrix::row_mut`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when `r >= rows`.
    pub fn get_row_mut(&mut self, r: usize) -> Result<&mut [f32], TensorError> {
        if r >= self.rows {
            return Err(TensorError::IndexOutOfBounds { index: r, bound: self.rows });
        }
        Ok(&mut self.data[r * self.cols..(r + 1) * self.cols])
    }

    /// Returns element `(r, c)`.
    ///
    /// The fallible counterpart of [`Matrix::at`]; matches [`Matrix::set`]
    /// so the read/write pair share one error contract.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when the index is outside
    /// the matrix.
    pub fn get(&self, r: usize, c: usize) -> Result<f32, TensorError> {
        if r >= self.rows {
            return Err(TensorError::IndexOutOfBounds { index: r, bound: self.rows });
        }
        if c >= self.cols {
            return Err(TensorError::IndexOutOfBounds { index: c, bound: self.cols });
        }
        Ok(self.data[r * self.cols + c])
    }

    /// Returns element `(r, c)`, panicking on out-of-bounds access.
    ///
    /// The by-value twin of `m[(r, c)]` for hot loops; prefer [`Matrix::get`]
    /// when the index is not known to be valid.
    ///
    /// # Panics
    ///
    /// Panics when `r >= rows` or `c >= cols`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c]
    }

    /// Returns a mutable reference to element `(r, c)`.
    ///
    /// The fallible counterpart of [`Matrix::at_mut`], completing the
    /// `get`/`at` convention for writes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when the index is outside
    /// the matrix.
    pub fn get_mut(&mut self, r: usize, c: usize) -> Result<&mut f32, TensorError> {
        if r >= self.rows {
            return Err(TensorError::IndexOutOfBounds { index: r, bound: self.rows });
        }
        if c >= self.cols {
            return Err(TensorError::IndexOutOfBounds { index: c, bound: self.cols });
        }
        Ok(&mut self.data[r * self.cols + c])
    }

    /// Returns a mutable reference to element `(r, c)`, panicking on
    /// out-of-bounds access.
    ///
    /// # Panics
    ///
    /// Panics when `r >= rows` or `c >= cols`.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when the index is outside
    /// the matrix.
    pub fn set(&mut self, r: usize, c: usize, value: f32) -> Result<(), TensorError> {
        if r >= self.rows {
            return Err(TensorError::IndexOutOfBounds { index: r, bound: self.rows });
        }
        if c >= self.cols {
            return Err(TensorError::IndexOutOfBounds { index: c, bound: self.cols });
        }
        self.data[r * self.cols + c] = value;
        Ok(())
    }

    /// Iterates over the rows of the matrix as slices, yielding exactly
    /// [`Matrix::rows`] items even for zero-column matrices (where every
    /// row is the empty slice).
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        (0..self.rows).map(move |r| &self.data[r * self.cols..(r + 1) * self.cols])
    }

    /// Copies a rectangular sub-block `[r0..r1) x [c0..c1)` into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics when the bounds are out of range or inverted.
    pub fn block(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        let mut out = Matrix::zeros(r1.saturating_sub(r0), c1.saturating_sub(c0));
        self.block_into(r0, r1, c0, c1, &mut out);
        out
    }

    /// [`Matrix::block`] writing into a caller-provided matrix. Large
    /// copies split their rows across the ambient runtime.
    ///
    /// # Panics
    ///
    /// Panics when the bounds are out of range or inverted, or when `out`
    /// has the wrong shape.
    pub fn block_into(&self, r0: usize, r1: usize, c0: usize, c1: usize, out: &mut Matrix) {
        assert!(r0 <= r1 && r1 <= self.rows, "row range {r0}..{r1} invalid for {} rows", self.rows);
        assert!(c0 <= c1 && c1 <= self.cols, "col range {c0}..{c1} invalid for {} cols", self.cols);
        assert_eq!(out.shape(), (r1 - r0, c1 - c0), "block_into: output shape mismatch");
        let width = c1 - c0;
        let work = (out.len(), crate::par::MIN_PAR_ELEMS);
        crate::par::for_each_row_band(out.as_mut_slice(), width, 1, work, |b0, band| {
            for (r, dst) in band.chunks_exact_mut(width).enumerate() {
                dst.copy_from_slice(&self.row(r0 + b0 + r)[c0..c1]);
            }
        });
    }

    /// Overwrites `self` with the contents of `src`.
    ///
    /// The in-place twin of `clone()` for recycled buffers: no allocation,
    /// every element is written.
    ///
    /// # Panics
    ///
    /// Panics when the shapes differ — a pooled buffer must never be
    /// silently reinterpreted as a different shape.
    pub fn fill_from(&mut self, src: &Matrix) {
        assert_eq!(
            self.shape(),
            src.shape(),
            "fill_from: shape mismatch (reusing a buffer across shapes is rejected)"
        );
        self.data.copy_from_slice(&src.data);
    }

    /// Selects the listed rows (allowing repetition) into a new matrix.
    ///
    /// Large gathers split the output rows across the ambient runtime; each
    /// output row is a plain copy, so results are identical at any thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics when an index is `>= rows`.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        self.select_rows_into(indices, &mut out);
        out
    }

    /// [`Matrix::select_rows`] writing into a caller-provided matrix.
    ///
    /// Uses the same parallel split (and therefore produces bit-identical
    /// results) as the allocating variant.
    ///
    /// # Panics
    ///
    /// Panics when an index is `>= rows` or `out` has the wrong shape.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (indices.len(), self.cols),
            "select_rows_into: output shape mismatch"
        );
        if self.cols == 0 {
            return;
        }
        if let Some(rt) = crate::par::runtime_for(out.len(), crate::par::MIN_PAR_ELEMS) {
            let rows_per = crate::par::chunk_len(indices.len(), &rt);
            let cols = self.cols;
            rt.par_chunks_mut(out.as_mut_slice(), rows_per * cols, |c, sub| {
                for (j, dst) in sub.chunks_mut(cols).enumerate() {
                    dst.copy_from_slice(self.row(indices[c * rows_per + j]));
                }
            });
            return;
        }
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
    }

    /// Reshape to `(rows, cols)` preserving row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] when the element count changes.
    pub fn reshaped(&self, rows: usize, cols: usize) -> Result<Matrix, TensorError> {
        if rows * cols != self.data.len() {
            return Err(TensorError::DataLength { got: self.data.len(), expected: rows * cols });
        }
        Ok(Matrix { rows, cols, data: self.data.clone() })
    }

    /// True when every element is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Maximum absolute difference to another matrix of the same shape.
    ///
    /// # Panics
    ///
    /// Panics when the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff requires equal shapes");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        const MAX_ROWS: usize = 8;
        for (i, row) in self.iter_rows().enumerate().take(MAX_ROWS) {
            write!(f, "  [")?;
            const MAX_COLS: usize = 12;
            for (j, v) in row.iter().enumerate().take(MAX_COLS) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.4}")?;
            }
            if row.len() > MAX_COLS {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
            if i + 1 == MAX_ROWS && self.rows > MAX_ROWS {
                writeln!(f, "  ... ({} more rows)", self.rows - MAX_ROWS)?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_diagonal() {
        let m = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(m[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn iter_rows_yields_exactly_rows_items() {
        let m = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let rows: Vec<&[f32]> = m.iter_rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], &[4.0, 5.0]);
    }

    #[test]
    fn iter_rows_zero_column_matrix_yields_empty_rows() {
        // Regression: chunks_exact(cols.max(1)) yielded zero rows for an
        // N x 0 matrix instead of N empty slices.
        let m = Matrix::zeros(4, 0);
        let rows: Vec<&[f32]> = m.iter_rows().collect();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.is_empty()));
        // And a 0 x N matrix yields no rows.
        assert_eq!(Matrix::zeros(0, 5).iter_rows().count(), 0);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(TensorError::DataLength { got: 3, expected: 4 })
        ));
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
        assert!(err.is_err());
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(matches!(Matrix::from_rows(&[]), Err(TensorError::Empty(_))));
    }

    #[test]
    fn indexing_round_trip() {
        let mut m = Matrix::zeros(2, 3);
        m[(1, 2)] = 7.0;
        assert_eq!(m[(1, 2)], 7.0);
        assert_eq!(m.at(1, 2), 7.0);
        assert_eq!(m.get(1, 2), Ok(7.0));
        *m.at_mut(0, 1) = 3.0;
        assert_eq!(m.at(0, 1), 3.0);
    }

    #[test]
    fn get_and_set_share_the_fallible_contract() {
        let mut m = Matrix::zeros(2, 2);
        assert!(m.set(0, 0, 1.0).is_ok());
        assert!(m.set(2, 0, 1.0).is_err());
        assert!(m.set(0, 2, 1.0).is_err());
        assert_eq!(m.get(0, 0), Ok(1.0));
        assert!(matches!(m.get(2, 0), Err(TensorError::IndexOutOfBounds { index: 2, bound: 2 })));
        assert!(m.get(0, 2).is_err());
    }

    #[test]
    fn get_mut_is_the_fallible_twin_of_at_mut() {
        let mut m = Matrix::zeros(2, 2);
        *m.get_mut(0, 1).unwrap() = 7.0;
        assert_eq!(m.at(0, 1), 7.0);
        assert!(matches!(
            m.get_mut(2, 0),
            Err(TensorError::IndexOutOfBounds { index: 2, bound: 2 })
        ));
        assert!(m.get_mut(0, 2).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn at_panics_out_of_bounds() {
        Matrix::zeros(2, 2).at(2, 0);
    }

    #[test]
    fn get_row_is_the_fallible_twin_of_row() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.get_row(1).unwrap(), m.row(1));
        assert!(matches!(m.get_row(2), Err(TensorError::IndexOutOfBounds { index: 2, bound: 2 })));
        m.get_row_mut(0).unwrap()[1] = 9.0;
        assert_eq!(m.row(0), &[1.0, 9.0]);
        assert!(m.get_row_mut(5).is_err());
    }

    #[test]
    fn rows_are_contiguous() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn block_extracts_sub_matrix() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let b = m.block(1, 3, 2, 4);
        assert_eq!(b.shape(), (2, 2));
        assert_eq!(b.row(0), &[6.0, 7.0]);
        assert_eq!(b.row(1), &[10.0, 11.0]);
    }

    #[test]
    fn fill_from_overwrites_every_element() {
        let mut dst = Matrix::filled(2, 2, 9.0);
        let src = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        dst.fill_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn fill_from_rejects_shape_mismatch() {
        let mut dst = Matrix::zeros(2, 2);
        dst.fill_from(&Matrix::zeros(4, 1));
    }

    #[test]
    fn select_rows_into_matches_allocating_variant() {
        let m = Matrix::from_fn(6, 3, |r, c| (r * 3 + c) as f32);
        let idx = [5, 0, 5, 2];
        let mut out = Matrix::filled(4, 3, -1.0);
        m.select_rows_into(&idx, &mut out);
        assert_eq!(out, m.select_rows(&idx));
    }

    #[test]
    fn select_rows_allows_repeats() {
        let m = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap();
        let s = m.select_rows(&[2, 0, 2]);
        assert_eq!(s.as_slice(), &[3.0, 1.0, 3.0]);
    }

    #[test]
    fn reshape_preserves_order() {
        let m = Matrix::from_vec(2, 3, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let r = m.reshaped(3, 2).unwrap();
        assert_eq!(r.row(1), &[2.0, 3.0]);
        assert!(m.reshaped(4, 2).is_err());
    }

    #[test]
    fn row_vector_and_col_vector() {
        let r = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(r.shape(), (1, 3));
        let c = Matrix::col_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(c.shape(), (3, 1));
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut m = Matrix::ones(2, 2);
        assert!(m.all_finite());
        m[(0, 1)] = f32::NAN;
        assert!(!m.all_finite());
    }

    #[test]
    fn max_abs_diff_measures_worst_entry() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[1.5, 1.0]]).unwrap();
        assert!((a.max_abs_diff(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn debug_output_is_nonempty_and_truncated() {
        let m = Matrix::zeros(20, 20);
        let s = format!("{m:?}");
        assert!(s.contains("20x20"));
        assert!(s.contains("more rows"));
    }
}
