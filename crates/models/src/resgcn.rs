//! ResGCN (DeepGCN, Li et al., 2019): deep graph convolution with
//! residual connections and dilated k-NN.
//!
//! Each block is an edge convolution over a dilated k-NN graph:
//! for every point `i` and neighbor `j`, the edge feature
//! `[h_i, h_j - h_i]` passes through a shared MLP and is max-pooled over
//! the neighborhood; a residual connection adds the block input back.
//! Residuals are what let the original network reach 28 blocks — the
//! depth the paper's pre-trained ResGCN-28 uses, available here via
//! [`ResGcnConfig::paper`].

use crate::plan::{plan_resgcn, resolve_plan};
use crate::{GeometryPlan, ModelInput, SegmentationModel};
use colper_autodiff::Var;
use colper_geom::Point3;
use colper_nn::{Activation, Dropout, Forward, Linear, ParamSet, SharedMlp};
use rand::rngs::StdRng;
use rand::Rng;

/// Architecture hyper-parameters for [`ResGcn`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResGcnConfig {
    /// Number of output classes.
    pub num_classes: usize,
    /// Number of residual edge-convolution blocks.
    pub blocks: usize,
    /// Channel width of every block.
    pub channels: usize,
    /// Neighbors per point (the pre-trained model uses k = 16).
    pub k: usize,
    /// Cap on the dilation schedule (block `b` uses dilation
    /// `1 + b % max_dilation`).
    pub max_dilation: usize,
    /// Dropout probability in the head (the paper's model uses 0.3).
    pub dropout: f32,
}

impl ResGcnConfig {
    /// The paper's pre-trained configuration: 28 blocks, 64 channels,
    /// k = 16, 0.3 dropout (ResGCN-28).
    pub fn paper(num_classes: usize) -> Self {
        Self { num_classes, blocks: 28, channels: 64, k: 16, max_dilation: 4, dropout: 0.3 }
    }

    /// A CPU-friendly configuration used by the experiment harness.
    pub fn small(num_classes: usize) -> Self {
        Self { num_classes, blocks: 5, channels: 32, k: 8, max_dilation: 3, dropout: 0.3 }
    }

    /// A minimal configuration for unit tests.
    pub fn tiny(num_classes: usize) -> Self {
        Self { num_classes, blocks: 2, channels: 16, k: 6, max_dilation: 2, dropout: 0.2 }
    }

    fn validate(&self) {
        assert!(self.blocks >= 1, "ResGcnConfig: needs at least one block");
        assert!(self.channels >= 1, "ResGcnConfig: needs at least one channel");
        assert!(self.k >= 2, "ResGcnConfig: k must be at least 2");
        assert!(self.max_dilation >= 1, "ResGcnConfig: max_dilation must be positive");
        assert!(self.num_classes >= 2, "ResGcnConfig: needs >= 2 classes");
    }
}

/// The ResGCN (DeepGCN) segmentation network.
#[derive(Debug)]
pub struct ResGcn {
    config: ResGcnConfig,
    params: ParamSet,
    stem: SharedMlp,
    edge_mlps: Vec<SharedMlp>,
    head: SharedMlp,
    head_out: Linear,
    dropout: Dropout,
    display_name: String,
}

const INPUT_FEATURES: usize = 9;

impl ResGcn {
    /// Builds the network, registering all parameters.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is inconsistent.
    pub fn new<R: Rng + ?Sized>(config: ResGcnConfig, rng: &mut R) -> Self {
        config.validate();
        let mut params = ParamSet::new();
        let c = config.channels;
        let stem = SharedMlp::new(
            &mut params,
            "stem",
            &[INPUT_FEATURES, c],
            Activation::LeakyRelu,
            true,
            rng,
        );
        let edge_mlps = (0..config.blocks)
            .map(|b| {
                SharedMlp::new(
                    &mut params,
                    &format!("block{b}.edge"),
                    &[2 * c, c],
                    Activation::LeakyRelu,
                    true,
                    rng,
                )
            })
            .collect();
        // Head sees the final features plus a broadcast global context.
        let head =
            SharedMlp::new(&mut params, "head", &[2 * c, c], Activation::LeakyRelu, true, rng);
        let head_out = Linear::new(&mut params, "head.out", c, config.num_classes, true, rng);
        let dropout = Dropout::new(config.dropout);
        let display_name = format!("resgcn-{}", config.blocks);
        Self { config, params, stem, edge_mlps, head, head_out, dropout, display_name }
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &ResGcnConfig {
        &self.config
    }
}

impl SegmentationModel for ResGcn {
    fn name(&self) -> &str {
        &self.display_name
    }

    fn num_classes(&self) -> usize {
        self.config.num_classes
    }

    fn params(&self) -> &ParamSet {
        &self.params
    }

    fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    fn forward(&self, session: &mut Forward<'_>, input: &ModelInput<'_>, rng: &mut StdRng) -> Var {
        let _span = colper_obs::span!(FORWARD_RESGCN);
        let n = input.coords.len();
        assert!(n > 0, "ResGcn: empty input");
        let built;
        let plan =
            resolve_plan!(input, built, ResGcn, plan_resgcn(&self.config, input.coords), "ResGcn");
        let k = plan.k;

        let feats0 = session.tape.concat_cols_all(&[input.xyz, input.color, input.loc]);
        let mut h = self.stem.forward(session, feats0);

        for (b, edge_mlp) in self.edge_mlps.iter().enumerate() {
            let _span = colper_obs::span!(FORWARD_RESGCN_BLOCK);
            let nb = plan.graphs[plan.dilations[b]].as_ref().expect("graph precomputed");
            // The edge MLP over [h_i | h_j - h_i], max-pooled over each
            // point's k edges (one fused op in evaluation mode).
            let agg = edge_mlp.edge_conv(session, h, plan.center.clone(), nb.clone(), k);
            // Residual connection: the mechanism that makes 28 blocks
            // trainable.
            h = session.tape.add(h, agg);
        }

        // Global context: mean over points, broadcast back to each point.
        let global = session.tape.mean_rows(h);
        let global_rep = session.tape.gather_rows_shared(global, plan.global_rep.clone());
        let with_ctx = session.tape.concat_cols(h, global_rep);
        let hh = self.head.forward(session, with_ctx);
        let hh = self.dropout.forward(session, hh, rng);
        self.head_out.forward(session, hh)
    }

    fn plan(&self, coords: &[Point3]) -> GeometryPlan {
        GeometryPlan::ResGcn(plan_resgcn(&self.config, coords))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bind_input, CloudTensors, ColorBinding};
    use colper_scene::{normalize, IndoorSceneConfig, SceneGenerator};
    use rand::SeedableRng;

    fn sample_tensors(n: usize) -> CloudTensors {
        let cloud = SceneGenerator::indoor(IndoorSceneConfig::with_points(n)).generate(8);
        CloudTensors::from_cloud(&normalize::resgcn_view(&cloud))
    }

    #[test]
    fn forward_shape_and_finiteness() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = sample_tensors(128);
        let model = ResGcn::new(ResGcnConfig::tiny(13), &mut rng);
        assert_eq!(model.name(), "resgcn-2");
        let mut session = Forward::new(model.params(), false);
        let input = bind_input(&mut session.tape, &t, ColorBinding::Constant);
        let logits = model.forward(&mut session, &input, &mut rng);
        let v = session.tape.value(logits);
        assert_eq!(v.shape(), (128, 13));
        assert!(v.all_finite());
    }

    #[test]
    fn color_gradient_flows_to_input() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = sample_tensors(96);
        let model = ResGcn::new(ResGcnConfig::tiny(13), &mut rng);
        let mut session = Forward::new(model.params(), false);
        let input = bind_input(&mut session.tape, &t, ColorBinding::Leaf);
        let logits = model.forward(&mut session, &input, &mut rng);
        let loss = session.tape.softmax_cross_entropy(logits, &t.labels);
        session.tape.backward(loss);
        let g = session.tape.grad(input.color).expect("color gradient");
        assert!(g.frobenius() > 0.0);
    }

    #[test]
    fn paper_depth_constructs() {
        // 28 blocks must at least build and produce the right shapes
        // (kept small in N to stay fast).
        let mut rng = StdRng::seed_from_u64(2);
        let t = sample_tensors(64);
        let cfg = ResGcnConfig { channels: 8, k: 4, ..ResGcnConfig::paper(13) };
        let model = ResGcn::new(cfg, &mut rng);
        assert_eq!(model.name(), "resgcn-28");
        let mut session = Forward::new(model.params(), false);
        let input = bind_input(&mut session.tape, &t, ColorBinding::Constant);
        let logits = model.forward(&mut session, &input, &mut rng);
        assert_eq!(session.tape.value(logits).shape(), (64, 13));
        assert!(session.tape.value(logits).all_finite());
    }

    #[test]
    fn training_mode_produces_param_grads() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = sample_tensors(64);
        let model = ResGcn::new(ResGcnConfig::tiny(13), &mut rng);
        let mut session = Forward::new(model.params(), true);
        let input = bind_input(&mut session.tape, &t, ColorBinding::Constant);
        let logits = model.forward(&mut session, &input, &mut rng);
        let loss = session.tape.softmax_cross_entropy(logits, &t.labels);
        session.tape.backward(loss);
        assert!(!session.collect_grads().is_empty());
    }

    #[test]
    fn handles_tiny_clouds() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = sample_tensors(4); // fewer points than k
        let model = ResGcn::new(ResGcnConfig::tiny(13), &mut rng);
        let mut session = Forward::new(model.params(), false);
        let input = bind_input(&mut session.tape, &t, ColorBinding::Constant);
        let logits = model.forward(&mut session, &input, &mut rng);
        assert_eq!(session.tape.value(logits).rows(), 4);
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn config_validation() {
        let mut bad = ResGcnConfig::tiny(13);
        bad.k = 1;
        let _ = ResGcn::new(bad, &mut StdRng::seed_from_u64(0));
    }
}
