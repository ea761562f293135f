//! Arithmetic, activation and reduction operations on the [`Tape`].
//!
//! Every op writes its output into storage drawn from the tape's buffer
//! pool ([`Tape::reset`] recycles it), so a reused tape allocates nothing
//! in steady state.

use crate::tape::{Op, Tape, Value, Var};
use colper_tensor::Matrix;
use std::sync::Arc;

impl Tape {
    /// Elementwise `a + b` (equal shapes).
    ///
    /// # Panics
    ///
    /// Panics when the shapes differ.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.record(self.same_shape("add", a, b), Op::Add(a, b))
    }

    /// Elementwise `a - b` (equal shapes).
    ///
    /// # Panics
    ///
    /// Panics when the shapes differ.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.record(self.same_shape("sub", a, b), Op::Sub(a, b))
    }

    /// Elementwise `a * b` (equal shapes).
    ///
    /// # Panics
    ///
    /// Panics when the shapes differ.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.record(self.same_shape("mul", a, b), Op::Mul(a, b))
    }

    fn same_shape(&self, name: &str, a: Var, b: Var) -> (usize, usize) {
        let shape = self.value(a).shape();
        assert_eq!(shape, self.value(b).shape(), "{name}: shape mismatch");
        shape
    }

    /// Row-broadcast `x + row` where `x` is `[N,C]` and `row` is `[1,C]`.
    ///
    /// # Panics
    ///
    /// Panics when `row` is not a single row of matching width.
    pub fn add_row(&mut self, x: Var, row: Var) -> Var {
        self.record(self.row_shape("add_row", x, row), Op::AddRow(x, row))
    }

    /// Row-broadcast `x * row`.
    ///
    /// # Panics
    ///
    /// Panics when `row` is not a single row of matching width.
    pub fn mul_row(&mut self, x: Var, row: Var) -> Var {
        self.record(self.row_shape("mul_row", x, row), Op::MulRow(x, row))
    }

    fn row_shape(&self, name: &str, x: Var, row: Var) -> (usize, usize) {
        let (shape, rv) = (self.value(x).shape(), self.value(row));
        assert_eq!(rv.rows(), 1, "{name}: broadcast operand must have one row");
        assert_eq!(shape.1, rv.cols(), "{name}: column mismatch {} vs {}", shape.1, rv.cols());
        shape
    }

    /// `x * s` for a scalar `s`.
    pub fn scale(&mut self, x: Var, s: f32) -> Var {
        self.record(self.value(x).shape(), Op::Scale(x, s))
    }

    /// `x + s` for a scalar `s`.
    pub fn add_scalar(&mut self, x: Var, s: f32) -> Var {
        self.record(self.value(x).shape(), Op::AddScalar(x, s))
    }

    /// Matrix product `a[m,k] * b[k,n]`.
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let ((m, k), (kb, n)) = (self.value(a).shape(), self.value(b).shape());
        assert_eq!(k, kb, "matmul: inner dimension mismatch");
        self.record((m, n), Op::Matmul(a, b))
    }

    /// Rectified linear unit, `max(x, 0)`.
    pub fn relu(&mut self, x: Var) -> Var {
        self.record(self.value(x).shape(), Op::Relu(x))
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&mut self, x: Var, alpha: f32) -> Var {
        self.record(self.value(x).shape(), Op::LeakyRelu(x, alpha))
    }

    /// Hyperbolic tangent (the reparameterization of Eq. 5 in the paper).
    ///
    /// Routed through the dispatched [`Matrix::tanh_into`] kernel, whose
    /// scalar and SIMD paths are bit-identical.
    pub fn tanh(&mut self, x: Var) -> Var {
        self.record(self.value(x).shape(), Op::Tanh(x))
    }

    /// Elementwise square root.
    pub fn sqrt(&mut self, x: Var) -> Var {
        self.record(self.value(x).shape(), Op::Sqrt(x))
    }

    /// Elementwise square.
    pub fn square(&mut self, x: Var) -> Var {
        self.record(self.value(x).shape(), Op::Square(x))
    }

    /// Elementwise product with a constant mask (dropout, fixed masks).
    ///
    /// # Panics
    ///
    /// Panics when the mask shape differs from `x`.
    pub fn mul_const(&mut self, x: Var, mask: Matrix) -> Var {
        self.mul_const_value(x, Value::Owned(mask))
    }

    /// [`Tape::mul_const`] with an interned (`Arc`-shared) mask — the mask
    /// is neither copied per step nor recycled on reset.
    ///
    /// # Panics
    ///
    /// Panics when the mask shape differs from `x`.
    pub fn mul_const_shared(&mut self, x: Var, mask: Arc<Matrix>) -> Var {
        self.mul_const_value(x, Value::Shared(mask))
    }

    fn mul_const_value(&mut self, x: Var, mask: Value) -> Var {
        let shape = self.value(x).shape();
        assert_eq!(shape, mask.shape(), "mul_const: shape mismatch");
        self.record(shape, Op::MulConst(x, mask))
    }

    /// Sum of all elements, producing a `1x1` scalar.
    pub fn sum(&mut self, x: Var) -> Var {
        self.record((1, 1), Op::Sum(x))
    }

    /// Column-wise means: `[N,C] -> [1,C]`.
    pub fn mean_rows(&mut self, x: Var) -> Var {
        self.record((1, self.value(x).cols()), Op::MeanRows(x))
    }

    /// Row-wise sums: `[N,C] -> [N,1]`.
    pub fn sum_cols(&mut self, x: Var) -> Var {
        self.record((self.value(x).rows(), 1), Op::SumCols(x))
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
    fn add_forward_and_backward() {
        let mut t = Tape::new();
        let a = t.leaf(mat(&[&[1.0, 2.0]]));
        let b = t.leaf(mat(&[&[3.0, 4.0]]));
        let y = t.add(a, b);
        assert_eq!(t.value(y).as_slice(), &[4.0, 6.0]);
        let loss = t.sum(y);
        t.backward(loss);
        assert_eq!(t.grad(a).unwrap().as_slice(), &[1.0, 1.0]);
        assert_eq!(t.grad(b).unwrap().as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn mul_backward_matches_numeric() {
        let x0 = mat(&[&[0.5, -1.5], &[2.0, 0.25]]);
        let report = check_gradient(&x0, |t, x| {
            let c = t.constant(mat(&[&[2.0, 3.0], &[-1.0, 0.5]]));
            let y = t.mul(x, c);
            t.sum(y)
        });
        assert!(report.max_abs_err < 1e-2, "{report:?}");
    }

    #[test]
    fn matmul_backward_matches_numeric() {
        let x0 = mat(&[&[0.5, -1.5, 0.2], &[2.0, 0.25, -0.7]]);
        let report = check_gradient(&x0, |t, x| {
            let w = t.constant(mat(&[&[1.0, 0.0], &[0.5, -0.5], &[0.25, 2.0]]));
            let y = t.matmul(x, w);
            let z = t.square(y);
            t.sum(z)
        });
        assert!(report.max_abs_err < 1e-1, "{report:?}");
    }

    #[test]
    fn activation_gradients_match_numeric() {
        let x0 = mat(&[&[0.5, -1.5, 0.2, 2.0]]);
        for op in ["relu", "leaky", "tanh", "square"] {
            let report = check_gradient(&x0, |t, x| {
                let y = match op {
                    "relu" => t.relu(x),
                    "leaky" => t.leaky_relu(x, 0.2),
                    "tanh" => t.tanh(x),
                    _ => t.square(x),
                };
                t.sum(y)
            });
            assert!(report.max_abs_err < 2e-2, "{op}: {report:?}");
        }
    }

    #[test]
    fn sqrt_gradient_on_positive_domain() {
        let x0 = mat(&[&[0.5, 1.5, 3.0]]);
        let report = check_gradient(&x0, |t, x| {
            let y = t.sqrt(x);
            t.sum(y)
        });
        assert!(report.max_abs_err < 2e-2, "{report:?}");
    }

    #[test]
    fn row_broadcast_ops_match_numeric() {
        let x0 = mat(&[&[0.5, -1.5], &[2.0, 0.25], &[1.0, 1.0]]);
        for op in ["add", "mul"] {
            let report = check_gradient(&x0, |t, x| {
                let row = t.constant(mat(&[&[2.0, 0.5]]));
                let y = if op == "add" { t.add_row(x, row) } else { t.mul_row(x, row) };
                t.sum(y)
            });
            assert!(report.max_abs_err < 2e-2, "{op}: {report:?}");
        }
    }

    #[test]
    fn row_broadcast_gradient_for_row_operand() {
        // Check the gradient flowing into the broadcast row itself.
        let row0 = mat(&[&[2.0, 0.5]]);
        let report = check_gradient(&row0, |t, row| {
            let x = t.constant(mat(&[&[0.5, -1.5], &[2.0, 0.25]]));
            let y = t.mul_row(x, row);
            let z = t.square(y);
            t.sum(z)
        });
        assert!(report.max_abs_err < 2e-2, "{report:?}");
    }

    #[test]
    fn reductions_match_numeric() {
        let x0 = mat(&[&[0.5, -1.5], &[2.0, 0.25]]);
        for op in ["sum", "mean_rows", "sum_cols"] {
            let report = check_gradient(&x0, |t, x| {
                let y = match op {
                    "sum" => t.sum(x),
                    "mean_rows" => t.mean_rows(x),
                    _ => t.sum_cols(x),
                };
                let sq = t.square(y);
                t.sum(sq)
            });
            assert!(report.max_abs_err < 5e-2, "{op}: {report:?}");
        }
    }

    #[test]
    fn mul_const_masks_gradient() {
        let mut t = Tape::new();
        let x = t.leaf(mat(&[&[1.0, 2.0]]));
        let y = t.mul_const(x, mat(&[&[0.0, 2.0]]));
        let loss = t.sum(y);
        t.backward(loss);
        assert_eq!(t.grad(x).unwrap().as_slice(), &[0.0, 2.0]);
    }

    #[test]
    fn mul_const_shared_matches_owned() {
        let mask = mat(&[&[0.0, 2.0]]);
        let mut t1 = Tape::new();
        let x1 = t1.leaf(mat(&[&[1.0, 2.0]]));
        let y1 = t1.mul_const(x1, mask.clone());
        let l1 = t1.sum(y1);
        t1.backward(l1);

        let shared = Arc::new(mask);
        let mut t2 = Tape::new();
        let x2 = t2.leaf(mat(&[&[1.0, 2.0]]));
        let y2 = t2.mul_const_shared(x2, shared);
        let l2 = t2.sum(y2);
        t2.backward(l2);

        assert_eq!(t1.value(y1), t2.value(y2));
        assert_eq!(t1.grad(x1), t2.grad(x2));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_panics_on_shape_mismatch() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::zeros(1, 2));
        let b = t.leaf(Matrix::zeros(2, 1));
        let _ = t.add(a, b);
    }
}
