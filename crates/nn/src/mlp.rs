//! The [`SharedMlp`]: a stack of `Linear -> BatchNorm -> activation`
//! blocks applied point-wise — the workhorse of all three segmentation
//! networks.

use crate::{BatchNorm, Forward, Linear, ParamSet};
use colper_autodiff::Var;
use colper_tensor::{Act, GatherIndex};
use rand::Rng;
use std::sync::Arc;

/// Point-wise nonlinearities available to [`SharedMlp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// `max(x, 0)`.
    Relu,
    /// Leaky ReLU with slope 0.2 (DeepGCN's default).
    LeakyRelu,
    /// No nonlinearity (used for final logit layers).
    Identity,
}

impl Activation {
    /// The tape-level activation this nonlinearity records.
    pub(crate) fn act(self) -> Act {
        match self {
            Activation::Relu => Act::Relu,
            Activation::LeakyRelu => Act::LeakyRelu(0.2),
            Activation::Identity => Act::Identity,
        }
    }
}

/// Records `act` on its own (the unfused activation op).
pub(crate) fn activate(f: &mut Forward<'_>, x: Var, act: Act) -> Var {
    match act {
        Act::Relu => f.tape.relu(x),
        Act::LeakyRelu(alpha) => f.tape.leaky_relu(x, alpha),
        Act::Identity => x,
    }
}

/// A shared (per-point) MLP: `dims = [in, h1, ..., out]` produces
/// `dims.len() - 1` blocks of `Linear -> [BatchNorm] -> activation`.
/// The final block uses the same activation as the rest; build a second
/// one-layer MLP with [`Activation::Identity`] for logit heads.
#[derive(Debug, Clone)]
pub struct SharedMlp {
    blocks: Vec<(Linear, Option<BatchNorm>, Activation)>,
}

impl SharedMlp {
    /// Registers the MLP's parameters in `params`.
    ///
    /// # Panics
    ///
    /// Panics when `dims` has fewer than two entries.
    pub fn new<R: Rng + ?Sized>(
        params: &mut ParamSet,
        name: &str,
        dims: &[usize],
        activation: Activation,
        batch_norm: bool,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "SharedMlp needs at least [in, out] dims");
        let mut blocks = Vec::with_capacity(dims.len() - 1);
        for (i, pair) in dims.windows(2).enumerate() {
            let lin =
                Linear::new(params, &format!("{name}.{i}"), pair[0], pair[1], !batch_norm, rng);
            let bn = batch_norm.then(|| BatchNorm::new(params, &format!("{name}.{i}.bn"), pair[1]));
            blocks.push((lin, bn, activation));
        }
        Self { blocks }
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.blocks[0].0.in_dim()
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.blocks.last().expect("non-empty").0.out_dim()
    }

    /// Number of blocks.
    pub fn depth(&self) -> usize {
        self.blocks.len()
    }

    /// Applies the MLP to `[N, in_dim]` activations. In evaluation mode a
    /// batch-normed block's norm and activation record as one fused op,
    /// [`colper_autodiff::Tape::affine_act`].
    pub fn forward(&self, f: &mut Forward<'_>, x: Var) -> Var {
        let mut h = x;
        for (lin, bn, act) in &self.blocks {
            h = lin.forward(f, h);
            h = match bn {
                Some(bn) => bn.forward_act(f, h, act.act()),
                None => activate(f, h, act.act()),
            };
        }
        h
    }

    /// A graph edge convolution with this MLP as its edge function:
    /// `group_max(self(edge_features(h, center, nbr)), k)`, DeepGCN's
    /// block before the residual add.
    ///
    /// In evaluation mode a one-block batch-normed MLP (whose linear layer
    /// has no bias) records the whole block as one fused op,
    /// [`colper_autodiff::Tape::edge_conv`], with the same value and
    /// input gradient bit for bit. Training keeps the unfused chain,
    /// because training batch norm needs whole-batch statistics, and so
    /// does a deeper MLP.
    pub fn edge_conv(
        &self,
        f: &mut Forward<'_>,
        h: Var,
        center: Arc<GatherIndex>,
        nbr: Arc<GatherIndex>,
        k: usize,
    ) -> Var {
        if let ([(lin, Some(bn), act)], false) = (self.blocks.as_slice(), f.training()) {
            let w = f.param(lin.weight());
            let (scale, shift) = bn.eval_affine(f);
            return f.tape.edge_conv(h, center, nbr, w, scale, shift, act.act(), k);
        }
        let edge = f.tape.edge_features(h, center, nbr);
        let msg = self.forward(f, edge);
        f.tape.group_max(msg, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colper_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_through_stack() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamSet::new();
        let mlp = SharedMlp::new(&mut ps, "m", &[3, 8, 16, 4], Activation::Relu, true, &mut rng);
        assert_eq!(mlp.in_dim(), 3);
        assert_eq!(mlp.out_dim(), 4);
        assert_eq!(mlp.depth(), 3);
        let mut f = Forward::new(&ps, false);
        let x = f.tape.constant(Matrix::ones(10, 3));
        let y = mlp.forward(&mut f, x);
        assert_eq!(f.tape.value(y).shape(), (10, 4));
    }

    #[test]
    fn relu_output_nonnegative() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamSet::new();
        let mlp = SharedMlp::new(&mut ps, "m", &[2, 4], Activation::Relu, false, &mut rng);
        let mut f = Forward::new(&ps, false);
        let x = f.tape.constant(Matrix::from_fn(6, 2, |r, c| (r + c) as f32 - 3.0));
        let y = mlp.forward(&mut f, x);
        assert!(f.tape.value(y).min().unwrap() >= 0.0);
    }

    #[test]
    fn identity_activation_can_go_negative() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ps = ParamSet::new();
        let mlp = SharedMlp::new(&mut ps, "m", &[2, 4], Activation::Identity, false, &mut rng);
        let mut f = Forward::new(&ps, false);
        let x = f.tape.constant(Matrix::from_fn(6, 2, |r, c| (r * c) as f32 - 3.0));
        let y = mlp.forward(&mut f, x);
        assert!(f.tape.value(y).min().unwrap() < 0.0);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn rejects_single_dim() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamSet::new();
        let _ = SharedMlp::new(&mut ps, "m", &[3], Activation::Relu, false, &mut rng);
    }
}
