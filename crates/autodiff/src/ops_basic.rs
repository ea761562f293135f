//! Arithmetic, activation and reduction operations on the [`Tape`].
//!
//! Every op writes its output into storage drawn from the tape's buffer
//! pool ([`Tape::reset`] recycles it), so a reused tape allocates nothing
//! in steady state.

use crate::tape::{Op, Tape, Value, Var};
use colper_tensor::{kernels, Matrix};
use std::sync::Arc;

impl Tape {
    /// Elementwise `a + b` (equal shapes).
    ///
    /// # Panics
    ///
    /// Panics when the shapes differ.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (r, c) = self.value(a).shape();
        let mut out = self.alloc(r, c);
        self.value(a).add_into(self.value(b), &mut out).expect("add: shape mismatch");
        let rg = self.any_requires_grad(&[a, b]);
        self.push(out, Op::Add(a, b), rg)
    }

    /// Elementwise `a - b` (equal shapes).
    ///
    /// # Panics
    ///
    /// Panics when the shapes differ.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let (r, c) = self.value(a).shape();
        let mut out = self.alloc(r, c);
        self.value(a).sub_into(self.value(b), &mut out).expect("sub: shape mismatch");
        let rg = self.any_requires_grad(&[a, b]);
        self.push(out, Op::Sub(a, b), rg)
    }

    /// Elementwise `a * b` (equal shapes).
    ///
    /// # Panics
    ///
    /// Panics when the shapes differ.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (r, c) = self.value(a).shape();
        let mut out = self.alloc(r, c);
        self.value(a).mul_into(self.value(b), &mut out).expect("mul: shape mismatch");
        let rg = self.any_requires_grad(&[a, b]);
        self.push(out, Op::Mul(a, b), rg)
    }

    /// Row-broadcast `x + row` where `x` is `[N,C]` and `row` is `[1,C]`.
    ///
    /// # Panics
    ///
    /// Panics when `row` is not a single row of matching width.
    pub fn add_row(&mut self, x: Var, row: Var) -> Var {
        self.row_broadcast("add_row", x, row, kernels::add, Op::AddRow(x, row))
    }

    /// Row-broadcast `x - row`.
    ///
    /// # Panics
    ///
    /// Panics when `row` is not a single row of matching width.
    pub fn sub_row(&mut self, x: Var, row: Var) -> Var {
        self.row_broadcast("sub_row", x, row, kernels::sub, Op::SubRow(x, row))
    }

    /// Row-broadcast `x * row`.
    ///
    /// # Panics
    ///
    /// Panics when `row` is not a single row of matching width.
    pub fn mul_row(&mut self, x: Var, row: Var) -> Var {
        self.row_broadcast("mul_row", x, row, kernels::mul, Op::MulRow(x, row))
    }

    /// Row-broadcast `x / row`.
    ///
    /// # Panics
    ///
    /// Panics when `row` is not a single row of matching width.
    pub fn div_row(&mut self, x: Var, row: Var) -> Var {
        self.row_broadcast("div_row", x, row, kernels::div, Op::DivRow(x, row))
    }

    fn row_broadcast(
        &mut self,
        name: &str,
        x: Var,
        row: Var,
        k: fn(&[f32], &[f32], &mut [f32]),
        op: Op,
    ) -> Var {
        let (xr, xc) = self.value(x).shape();
        {
            let rv = self.value(row);
            assert_eq!(rv.rows(), 1, "{name}: broadcast operand must have one row");
            assert_eq!(xc, rv.cols(), "{name}: column mismatch {} vs {}", xc, rv.cols());
        }
        let mut out = self.alloc(xr, xc);
        self.value(x).broadcast_row_into(self.value(row).row(0), k, &mut out);
        let rg = self.any_requires_grad(&[x, row]);
        self.push(out, op, rg)
    }

    /// `x * s` for a scalar `s`.
    pub fn scale(&mut self, x: Var, s: f32) -> Var {
        let (r, c) = self.value(x).shape();
        let mut out = self.alloc(r, c);
        self.value(x).scale_into(s, &mut out);
        let rg = self.node(x).requires_grad;
        self.push(out, Op::Scale(x, s), rg)
    }

    /// `x + s` for a scalar `s`.
    pub fn add_scalar(&mut self, x: Var, s: f32) -> Var {
        let v = self.unary_map(x, |t| t + s);
        let rg = self.node(x).requires_grad;
        self.push(v, Op::AddScalar(x, s), rg)
    }

    /// `-x`.
    pub fn neg(&mut self, x: Var) -> Var {
        self.scale(x, -1.0)
    }

    /// Matrix product `a[m,k] * b[k,n]`.
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let m = self.value(a).rows();
        let n = self.value(b).cols();
        let mut out = self.alloc(m, n);
        self.value(a)
            .matmul_into(self.value(b), &mut out)
            .expect("matmul: inner dimension mismatch");
        let rg = self.any_requires_grad(&[a, b]);
        self.push(out, Op::Matmul(a, b), rg)
    }

    /// Rectified linear unit, `max(x, 0)`.
    pub fn relu(&mut self, x: Var) -> Var {
        let v = self.unary_map(x, |t| t.max(0.0));
        let rg = self.node(x).requires_grad;
        self.push(v, Op::Relu(x), rg)
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&mut self, x: Var, alpha: f32) -> Var {
        let v = self.unary_map(x, |t| if t > 0.0 { t } else { alpha * t });
        let rg = self.node(x).requires_grad;
        self.push(v, Op::LeakyRelu(x, alpha), rg)
    }

    /// Hyperbolic tangent (the reparameterization of Eq. 5 in the paper).
    ///
    /// Routed through the dispatched [`Matrix::tanh_into`] kernel, whose
    /// scalar and SIMD paths are bit-identical.
    pub fn tanh(&mut self, x: Var) -> Var {
        let (r, c) = self.value(x).shape();
        let mut out = self.alloc(r, c);
        self.value(x).tanh_into(&mut out);
        let rg = self.node(x).requires_grad;
        self.push(out, Op::Tanh(x), rg)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        let v = self.unary_map(x, |t| 1.0 / (1.0 + (-t).exp()));
        let rg = self.node(x).requires_grad;
        self.push(v, Op::Sigmoid(x), rg)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, x: Var) -> Var {
        let v = self.unary_map(x, f32::exp);
        let rg = self.node(x).requires_grad;
        self.push(v, Op::Exp(x), rg)
    }

    /// Elementwise natural logarithm.
    ///
    /// The caller is responsible for keeping inputs positive.
    pub fn ln(&mut self, x: Var) -> Var {
        let v = self.unary_map(x, f32::ln);
        let rg = self.node(x).requires_grad;
        self.push(v, Op::Ln(x), rg)
    }

    /// Elementwise square root.
    pub fn sqrt(&mut self, x: Var) -> Var {
        let v = self.unary_map(x, f32::sqrt);
        let rg = self.node(x).requires_grad;
        self.push(v, Op::Sqrt(x), rg)
    }

    /// Elementwise square.
    pub fn square(&mut self, x: Var) -> Var {
        let v = self.unary_map(x, |t| t * t);
        let rg = self.node(x).requires_grad;
        self.push(v, Op::Square(x), rg)
    }

    /// `map(x, f)` in pooled storage: the shared body of the elementwise
    /// unary ops.
    fn unary_map(&mut self, x: Var, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let (r, c) = self.value(x).shape();
        let mut out = self.alloc(r, c);
        self.value(x).map_into(&mut out, f);
        out
    }

    /// Elementwise product with a constant mask (dropout, fixed masks).
    ///
    /// # Panics
    ///
    /// Panics when the mask shape differs from `x`.
    pub fn mul_const(&mut self, x: Var, mask: Matrix) -> Var {
        let (r, c) = self.value(x).shape();
        let mut out = self.alloc(r, c);
        self.value(x).mul_into(&mask, &mut out).expect("mul_const: shape mismatch");
        let rg = self.node(x).requires_grad;
        self.push(out, Op::MulConst(x, Value::Owned(mask)), rg)
    }

    /// [`Tape::mul_const`] with an interned (`Arc`-shared) mask — the mask
    /// is neither copied per step nor recycled on reset.
    ///
    /// # Panics
    ///
    /// Panics when the mask shape differs from `x`.
    pub fn mul_const_shared(&mut self, x: Var, mask: Arc<Matrix>) -> Var {
        let (r, c) = self.value(x).shape();
        let mut out = self.alloc(r, c);
        self.value(x).mul_into(&mask, &mut out).expect("mul_const: shape mismatch");
        let rg = self.node(x).requires_grad;
        self.push(out, Op::MulConst(x, Value::Shared(mask)), rg)
    }

    /// Sum of all elements, producing a `1x1` scalar.
    pub fn sum(&mut self, x: Var) -> Var {
        let s = self.value(x).sum();
        let mut v = self.alloc(1, 1);
        v[(0, 0)] = s;
        let rg = self.node(x).requires_grad;
        self.push(v, Op::Sum(x), rg)
    }

    /// Mean of all elements, producing a `1x1` scalar.
    pub fn mean(&mut self, x: Var) -> Var {
        let s = self.value(x).mean();
        let mut v = self.alloc(1, 1);
        v[(0, 0)] = s;
        let rg = self.node(x).requires_grad;
        self.push(v, Op::Mean(x), rg)
    }

    /// Column-wise sums: `[N,C] -> [1,C]`.
    pub fn sum_rows(&mut self, x: Var) -> Var {
        let c = self.value(x).cols();
        let mut out = self.alloc(1, c);
        self.value(x).sum_rows_into(&mut out);
        let rg = self.node(x).requires_grad;
        self.push(out, Op::SumRows(x), rg)
    }

    /// Column-wise means: `[N,C] -> [1,C]`.
    pub fn mean_rows(&mut self, x: Var) -> Var {
        let c = self.value(x).cols();
        let mut out = self.alloc(1, c);
        self.value(x).mean_rows_into(&mut out);
        let rg = self.node(x).requires_grad;
        self.push(out, Op::MeanRows(x), rg)
    }

    /// Row-wise sums: `[N,C] -> [N,1]`.
    pub fn sum_cols(&mut self, x: Var) -> Var {
        let r = self.value(x).rows();
        let mut out = self.alloc(r, 1);
        self.value(x).sum_cols_into(&mut out);
        let rg = self.node(x).requires_grad;
        self.push(out, Op::SumCols(x), rg)
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
        for op in ["relu", "leaky", "tanh", "sigmoid", "exp", "square"] {
            let report = check_gradient(&x0, |t, x| {
                let y = match op {
                    "relu" => t.relu(x),
                    "leaky" => t.leaky_relu(x, 0.2),
                    "tanh" => t.tanh(x),
                    "sigmoid" => t.sigmoid(x),
                    "exp" => t.exp(x),
                    _ => t.square(x),
                };
                t.sum(y)
            });
            assert!(report.max_abs_err < 2e-2, "{op}: {report:?}");
        }
    }

    #[test]
    fn ln_sqrt_gradients_on_positive_domain() {
        let x0 = mat(&[&[0.5, 1.5, 3.0]]);
        for op in ["ln", "sqrt"] {
            let report = check_gradient(&x0, |t, x| {
                let y = if op == "ln" { t.ln(x) } else { t.sqrt(x) };
                t.sum(y)
            });
            assert!(report.max_abs_err < 2e-2, "{op}: {report:?}");
        }
    }

    #[test]
    fn row_broadcast_ops_match_numeric() {
        let x0 = mat(&[&[0.5, -1.5], &[2.0, 0.25], &[1.0, 1.0]]);
        for op in ["add", "sub", "mul", "div"] {
            let report = check_gradient(&x0, |t, x| {
                let row = t.constant(mat(&[&[2.0, 0.5]]));
                let y = match op {
                    "add" => t.add_row(x, row),
                    "sub" => t.sub_row(x, row),
                    "mul" => t.mul_row(x, row),
                    _ => t.div_row(x, row),
                };
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
        for op in ["sum", "mean", "sum_rows", "mean_rows", "sum_cols"] {
            let report = check_gradient(&x0, |t, x| {
                let y = match op {
                    "sum" => t.sum(x),
                    "mean" => t.mean(x),
                    "sum_rows" => t.sum_rows(x),
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
    fn neg_is_scale_minus_one() {
        let mut t = Tape::new();
        let x = t.leaf(mat(&[&[3.0]]));
        let y = t.neg(x);
        assert_eq!(t.value(y)[(0, 0)], -3.0);
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
