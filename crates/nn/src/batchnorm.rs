//! The [`BatchNorm`] layer with running statistics.

use crate::{BnUpdate, BufferId, Forward, ParamId, ParamSet};
use colper_autodiff::Var;
use colper_tensor::{Act, Matrix};

/// Batch normalization over the point (row) axis.
///
/// In training mode, batch statistics are used and running statistics are
/// recorded for later commit (see [`crate::ParamSet::apply_bn_updates`]);
/// in evaluation mode the layer is the affine transform
/// `y = (x - running_mean) / sqrt(running_var + eps) * gamma + beta`,
/// through which input gradients (the attack's color gradients) flow
/// exactly.
#[derive(Debug, Clone, Copy)]
pub struct BatchNorm {
    gamma: ParamId,
    beta: ParamId,
    running_mean: BufferId,
    running_var: BufferId,
    momentum: f32,
    eps: f32,
    dim: usize,
}

impl BatchNorm {
    /// Registers a new layer normalizing `dim`-wide activations.
    pub fn new(params: &mut ParamSet, name: &str, dim: usize) -> Self {
        Self::with_hyper(params, name, dim, 0.1, 1e-5)
    }

    /// Registers a layer with explicit momentum and epsilon.
    pub fn with_hyper(
        params: &mut ParamSet,
        name: &str,
        dim: usize,
        momentum: f32,
        eps: f32,
    ) -> Self {
        let gamma = params.add_param(format!("{name}.gamma"), Matrix::ones(1, dim));
        let beta = params.add_param(format!("{name}.beta"), Matrix::zeros(1, dim));
        let running_mean = params.add_buffer(format!("{name}.running_mean"), Matrix::zeros(1, dim));
        let running_var = params.add_buffer(format!("{name}.running_var"), Matrix::ones(1, dim));
        Self { gamma, beta, running_mean, running_var, momentum, eps, dim }
    }

    /// The normalized feature width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Applies the layer to `[N, dim]` activations.
    ///
    /// # Panics
    ///
    /// Panics when `x` does not have `dim` columns.
    pub fn forward(&self, f: &mut Forward<'_>, x: Var) -> Var {
        self.forward_act(f, x, Act::Identity)
    }

    /// Applies the layer followed by `act`.
    ///
    /// In evaluation mode the layer and its activation record as one
    /// fused tape op, [`colper_autodiff::Tape::affine_act`], whose result
    /// and gradients are those of the unfused `mul_row → add_row →
    /// activation` chain bit for bit. Training mode normalizes with batch
    /// statistics and applies the activation as its own op.
    ///
    /// # Panics
    ///
    /// Panics when `x` does not have `dim` columns.
    pub(crate) fn forward_act(&self, f: &mut Forward<'_>, x: Var, act: Act) -> Var {
        assert_eq!(f.tape.value(x).cols(), self.dim, "BatchNorm: expected {} columns", self.dim);
        if f.training() {
            let gamma = f.param(self.gamma);
            let beta = f.param(self.beta);
            let (y, mean, var) = f.tape.batch_norm_train(x, gamma, beta, self.eps);
            f.record_bn_update(BnUpdate {
                mean_buf: self.running_mean,
                var_buf: self.running_var,
                mean,
                var,
                momentum: self.momentum,
            });
            crate::mlp::activate(f, y, act)
        } else {
            let (scale, shift) = self.eval_affine(f);
            f.tape.affine_act(x, scale, shift, act)
        }
    }

    /// The evaluation-mode layer as one affine row pair, recorded on the
    /// tape: `y = x * scale + shift` with `scale = gamma / sqrt(var + eps)`
    /// and `shift = beta - mean * scale`, both `[1, dim]`, from the
    /// running statistics.
    pub(crate) fn eval_affine(&self, f: &mut Forward<'_>) -> (Var, Var) {
        let eps = self.eps;
        let var = f.buffer_shared(self.running_var);
        let gamma = f.param(self.gamma);
        let beta = f.param(self.beta);
        let inv_std_row = f.tape.constant_map(&var, |v| 1.0 / (v + eps).sqrt());
        let mean_row = f.tape.constant_shared(f.buffer_shared(self.running_mean));
        let scale = f.tape.mul_row(inv_std_row, gamma);
        let ms = f.tape.mul(mean_row, scale);
        let shift = f.tape.sub(beta, ms);
        (scale, shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_affine_with_running_stats() {
        let mut ps = ParamSet::new();
        let bn = BatchNorm::new(&mut ps, "bn", 2);
        // running mean 1, var 4 -> y = (x-1)/2 (gamma=1, beta=0, eps tiny)
        *ps.buffer_mut(crate::BufferId(0)) = Matrix::filled(1, 2, 1.0);
        *ps.buffer_mut(crate::BufferId(1)) = Matrix::filled(1, 2, 4.0);
        let mut f = Forward::new(&ps, false);
        let x = f.tape.constant(Matrix::from_rows(&[&[3.0, 5.0]]).unwrap());
        let y = bn.forward(&mut f, x);
        let v = f.tape.value(y);
        assert!((v[(0, 0)] - 1.0).abs() < 1e-3);
        assert!((v[(0, 1)] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn train_mode_normalizes_batch() {
        let mut ps = ParamSet::new();
        let bn = BatchNorm::new(&mut ps, "bn", 1);
        let mut f = Forward::new(&ps, true);
        let x = f.tape.constant(Matrix::from_rows(&[&[1.0], &[3.0], &[5.0]]).unwrap());
        let y = bn.forward(&mut f, x);
        let v = f.tape.value(y);
        let mean = (v[(0, 0)] + v[(1, 0)] + v[(2, 0)]) / 3.0;
        assert!(mean.abs() < 1e-5);
        let updates = f.into_bn_updates();
        assert_eq!(updates.len(), 1);
        assert!((updates[0].mean[(0, 0)] - 3.0).abs() < 1e-5);
    }

    #[test]
    fn running_stats_converge_to_data_stats() {
        let mut ps = ParamSet::new();
        let bn = BatchNorm::new(&mut ps, "bn", 1);
        let data = Matrix::from_rows(&[&[9.0], &[11.0]]).unwrap(); // mean 10, var 1
        for _ in 0..100 {
            let mut f = Forward::new(&ps, true);
            let x = f.tape.constant(data.clone());
            let _ = bn.forward(&mut f, x);
            let ups = f.into_bn_updates();
            ps.apply_bn_updates(&ups);
        }
        let rm = ps.buffer(crate::BufferId(0))[(0, 0)];
        assert!((rm - 10.0).abs() < 0.1, "running mean {rm}");
    }

    #[test]
    fn eval_forward_act_matches_the_unfused_chain() {
        let mut ps = ParamSet::new();
        let bn = BatchNorm::new(&mut ps, "bn", 3);
        *ps.buffer_mut(crate::BufferId(0)) = Matrix::from_rows(&[&[0.5, -1.0, 2.0]]).unwrap();
        *ps.buffer_mut(crate::BufferId(1)) = Matrix::from_rows(&[&[4.0, 0.25, 1.5]]).unwrap();
        let x0 = Matrix::from_fn(5, 3, |r, c| (r as f32 - 2.0) * 0.7 + c as f32 * 0.3);
        for act in [Act::Identity, Act::Relu, Act::LeakyRelu(0.2)] {
            let mut fused = Forward::new(&ps, false);
            let x = fused.tape.leaf(x0.clone());
            let y = bn.forward_act(&mut fused, x, act);
            let loss = fused.tape.sum(y);
            fused.tape.backward(loss);

            // The unfused reference: multiply, add, then the activation.
            let mut plain = Forward::new(&ps, false);
            let xp = plain.tape.leaf(x0.clone());
            let var = plain.buffer_shared(crate::BufferId(1));
            let inv_std = plain.tape.constant_map(&var, |v| 1.0 / (v + 1e-5).sqrt());
            let mean = plain.tape.constant_shared(plain.buffer_shared(crate::BufferId(0)));
            let gamma = plain.param(crate::ParamId(0));
            let beta = plain.param(crate::ParamId(1));
            let scale = plain.tape.mul_row(inv_std, gamma);
            let ms = plain.tape.mul(mean, scale);
            let shift = plain.tape.sub(beta, ms);
            let scaled = plain.tape.mul_row(xp, scale);
            let t = plain.tape.add_row(scaled, shift);
            let yp = match act {
                Act::Identity => t,
                Act::Relu => plain.tape.relu(t),
                Act::LeakyRelu(a) => plain.tape.leaky_relu(t, a),
            };
            let lp = plain.tape.sum(yp);
            plain.tape.backward(lp);

            assert_eq!(fused.tape.value(y), plain.tape.value(yp), "{act:?} forward");
            assert_eq!(fused.tape.grad(x), plain.tape.grad(xp), "{act:?} backward");
        }
    }

    #[test]
    fn eval_mode_passes_input_gradient() {
        let mut ps = ParamSet::new();
        let bn = BatchNorm::new(&mut ps, "bn", 2);
        let mut f = Forward::new(&ps, false);
        let x = f.tape.leaf(Matrix::ones(2, 2));
        let y = bn.forward(&mut f, x);
        let s = f.tape.sum(y);
        f.tape.backward(s);
        assert!(f.tape.grad(x).is_some());
    }
}
