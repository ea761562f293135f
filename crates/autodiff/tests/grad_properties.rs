//! Property-based gradient checking: random values through composed op
//! chains must match central finite differences.

use colper_autodiff::{check_gradient, Tape, Var};
use colper_tensor::Matrix;
use proptest::prelude::*;

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn chained_elementwise_ops(x0 in arb_matrix(3, 4)) {
        let report = check_gradient(&x0, |t, x| {
            let a = t.tanh(x);
            let b = t.scale(a, 1.5);
            let c = t.square(b);
            let d = t.add_scalar(c, 0.3);
            let e = t.sqrt(d);
            t.sum(e)
        });
        prop_assert!(report.max_abs_err < 5e-2, "{report:?}");
    }

    #[test]
    fn matmul_then_reduction(x0 in arb_matrix(4, 3)) {
        let report = check_gradient(&x0, |t, x| {
            let w = t.constant(Matrix::from_fn(3, 5, |r, c| ((r + 2 * c) as f32).sin() * 0.5));
            let h = t.matmul(x, w);
            let r = t.relu(h);
            let m = t.mean_rows(r);
            let s = t.square(m);
            t.sum(s)
        });
        prop_assert!(report.max_abs_err < 5e-2, "{report:?}");
    }

    #[test]
    fn gather_and_pool_pipeline(x0 in arb_matrix(6, 2)) {
        // Mean pooling keeps the objective smooth for arbitrary inputs;
        // max pooling's subgradient-at-ties behaviour is covered by
        // deterministic unit tests in `ops_struct`.
        let idx = vec![0, 1, 2, 3, 4, 5, 5, 4, 3, 2, 1, 0];
        let report = check_gradient(&x0, |t, x| {
            let g = t.gather_rows(x, &idx);
            let m = t.group_mean(g, 3);
            let sq = t.square(m);
            t.sum(sq)
        });
        prop_assert!(report.max_abs_err < 5e-2, "{report:?}");
    }

    #[test]
    fn softmax_attention_pipeline(x0 in arb_matrix(4, 3)) {
        let report = check_gradient(&x0, |t, x| {
            let s = t.group_softmax(x, 2);
            let w = t.mul(s, x);
            let m = t.group_mean(w, 2);
            t.sum(m)
        });
        prop_assert!(report.max_abs_err < 5e-2, "{report:?}");
    }

    #[test]
    fn concat_slice_roundtrip_grads(x0 in arb_matrix(3, 3)) {
        let report = check_gradient(&x0, |t, x| {
            // Zeroing every column outside 2..5 keeps one block that
            // straddles both halves of the concatenation.
            let doubled = t.concat_cols(x, x);
            let window = Matrix::from_rows(&[&[0.0, 0.0, 1.0, 1.0, 1.0, 0.0]]).unwrap();
            let window = t.constant(window);
            let right = t.mul_row(doubled, window);
            let sq = t.square(right);
            t.sum(sq)
        });
        prop_assert!(report.max_abs_err < 5e-2, "{report:?}");
    }

    #[test]
    fn cross_entropy_any_labels(x0 in arb_matrix(5, 4), labels in proptest::collection::vec(0usize..4, 5)) {
        let report = check_gradient(&x0, |t, x| t.softmax_cross_entropy(x, &labels));
        prop_assert!(report.max_abs_err < 5e-2, "{report:?}");
    }

    #[test]
    fn row_broadcast_chain(x0 in arb_matrix(4, 3)) {
        let report = check_gradient(&x0, |t, x| {
            let row = t.constant(Matrix::from_rows(&[&[0.5, 2.0, -1.0]]).unwrap());
            let a = t.mul_row(x, row);
            let b = t.add_row(a, row);
            let c = t.tanh(b);
            t.sum(c)
        });
        prop_assert!(report.max_abs_err < 5e-2, "{report:?}");
    }

    #[test]
    fn weighted_gather_pipeline(x0 in arb_matrix(5, 2)) {
        let idx = vec![0, 1, 2, 3, 4, 0];
        let w = vec![0.2, 0.8, 0.5, 0.5, 0.9, 0.1];
        let report = check_gradient(&x0, |t, x| {
            let up = t.weighted_gather(x, &idx, &w, 2);
            let sq = t.square(up);
            t.sum(sq)
        });
        prop_assert!(report.max_abs_err < 5e-2, "{report:?}");
    }

    #[test]
    fn backward_twice_is_stable(x0 in arb_matrix(3, 3)) {
        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let y = tape.square(x);
        let loss: Var = tape.sum(y);
        tape.backward(loss);
        let g1 = tape.grad(x).unwrap().clone();
        tape.backward(loss);
        let g2 = tape.grad(x).unwrap().clone();
        prop_assert_eq!(g1, g2);
    }

    #[test]
    fn gradients_are_finite_for_extreme_inputs(scale in 1.0f32..50.0) {
        let x0 = Matrix::from_fn(3, 3, |r, c| (r as f32 - c as f32) * scale);
        let report = check_gradient(&x0, |t, x| {
            let a = t.tanh(x);
            let b = t.scale(a, 3.0);
            let c = t.tanh(b);
            t.sum(c)
        });
        prop_assert!(report.analytic.all_finite());
    }
}
