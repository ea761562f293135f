//! RandLA-Net (Hu et al., 2020): efficient large-scale segmentation via
//! random sampling, local spatial encoding and attentive pooling.
//!
//! Each encoder stage aggregates neighborhoods with an *attentive*
//! pooling (learned per-channel softmax weights over the k neighbors)
//! after encoding relative positions, then randomly downsamples —
//! random sampling being the mechanism that gives RandLA-Net its
//! reported 200x preprocessing speedup over FPS-based pipelines. The
//! decoder upsamples with nearest-neighbor interpolation and skip
//! connections.

use crate::plan::{plan_randlanet, resolve_plan};
use crate::{GeometryPlan, ModelInput, SegmentationModel};
use colper_autodiff::Var;
use colper_geom::{random_sample, subset_knn_graph, subset_nearest, Point3};
use colper_nn::{Activation, Dropout, Forward, Linear, ParamSet, SharedMlp};
use rand::rngs::StdRng;
use rand::Rng;

/// Architecture hyper-parameters for [`RandLaNet`].
#[derive(Debug, Clone, PartialEq)]
pub struct RandLaNetConfig {
    /// Number of output classes.
    pub num_classes: usize,
    /// Encoder stages as `(points_after_downsampling, channels)`.
    pub stages: Vec<(usize, usize)>,
    /// Neighbors per point for local spatial encoding.
    pub k: usize,
    /// Stem width before the first stage.
    pub stem: usize,
    /// Dropout probability in the head.
    pub dropout: f32,
}

impl RandLaNetConfig {
    /// A paper-scale configuration (four stages, as the pre-trained
    /// network; intended for large point budgets).
    pub fn paper(num_classes: usize) -> Self {
        Self {
            num_classes,
            stages: vec![(10240, 16), (2560, 64), (640, 128), (160, 256)],
            k: 16,
            stem: 8,
            dropout: 0.5,
        }
    }

    /// A CPU-friendly two-stage configuration used by the experiment
    /// harness (512-point clouds).
    pub fn small(num_classes: usize) -> Self {
        Self { num_classes, stages: vec![(128, 32), (32, 64)], k: 8, stem: 16, dropout: 0.3 }
    }

    /// A minimal configuration for unit tests.
    pub fn tiny(num_classes: usize) -> Self {
        Self { num_classes, stages: vec![(32, 16)], k: 6, stem: 8, dropout: 0.2 }
    }

    fn validate(&self) {
        assert!(!self.stages.is_empty(), "RandLaNetConfig: needs at least one stage");
        assert!(self.k >= 2, "RandLaNetConfig: k must be at least 2");
        assert!(self.stem >= 1, "RandLaNetConfig: stem width must be positive");
        assert!(self.num_classes >= 2, "RandLaNetConfig: needs >= 2 classes");
        for w in self.stages.iter().map(|s| s.1) {
            assert!(w >= 2 && w % 2 == 0, "RandLaNetConfig: stage channels must be even");
        }
    }
}

#[derive(Debug)]
struct Stage {
    /// Encodes the 10-dim relative-position block.
    locse: SharedMlp,
    /// Produces the per-channel attention scores.
    score: Linear,
    /// Post-aggregation transform to the stage width.
    out_mlp: SharedMlp,
    /// Residual shortcut from the stage input width.
    shortcut: Linear,
}

/// The RandLA-Net segmentation network.
#[derive(Debug)]
pub struct RandLaNet {
    config: RandLaNetConfig,
    params: ParamSet,
    stem: SharedMlp,
    stages: Vec<Stage>,
    dec_mlps: Vec<SharedMlp>,
    head: SharedMlp,
    head_out: Linear,
    dropout: Dropout,
}

const INPUT_FEATURES: usize = 9;
/// xyz_i, xyz_j, xyz_j - xyz_i, ||xyz_i - xyz_j||.
const RELPOS_FEATURES: usize = 10;

impl RandLaNet {
    /// Builds the network, registering all parameters.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is inconsistent.
    pub fn new<R: Rng + ?Sized>(config: RandLaNetConfig, rng: &mut R) -> Self {
        config.validate();
        let mut params = ParamSet::new();
        let stem = SharedMlp::new(
            &mut params,
            "stem",
            &[INPUT_FEATURES, config.stem],
            Activation::LeakyRelu,
            true,
            rng,
        );
        let mut stages = Vec::with_capacity(config.stages.len());
        let mut c_in = config.stem;
        for (i, &(_, c_out)) in config.stages.iter().enumerate() {
            let half = c_out / 2;
            let locse = SharedMlp::new(
                &mut params,
                &format!("stage{i}.locse"),
                &[RELPOS_FEATURES, half],
                Activation::LeakyRelu,
                true,
                rng,
            );
            let edge_dim = c_in + half;
            let score = Linear::new(
                &mut params,
                &format!("stage{i}.score"),
                edge_dim,
                edge_dim,
                false,
                rng,
            );
            let out_mlp = SharedMlp::new(
                &mut params,
                &format!("stage{i}.out"),
                &[edge_dim, c_out],
                Activation::LeakyRelu,
                true,
                rng,
            );
            let shortcut =
                Linear::new(&mut params, &format!("stage{i}.sc"), c_in, c_out, false, rng);
            stages.push(Stage { locse, score, out_mlp, shortcut });
            c_in = c_out;
        }
        // Decoder: from coarsest back up; at level i it sees the current
        // features plus the encoder skip of the finer level.
        let mut dec_mlps = Vec::with_capacity(config.stages.len());
        let mut cur_c = c_in;
        for j in 0..config.stages.len() {
            let fine_level = config.stages.len() - 1 - j;
            let skip_c =
                if fine_level == 0 { config.stem } else { config.stages[fine_level - 1].1 };
            let out_c = skip_c.max(16);
            dec_mlps.push(SharedMlp::new(
                &mut params,
                &format!("dec{j}"),
                &[cur_c + skip_c, out_c],
                Activation::LeakyRelu,
                true,
                rng,
            ));
            cur_c = out_c;
        }
        let head =
            SharedMlp::new(&mut params, "head", &[cur_c, cur_c], Activation::LeakyRelu, true, rng);
        let head_out = Linear::new(&mut params, "head.out", cur_c, config.num_classes, true, rng);
        let dropout = Dropout::new(config.dropout);
        Self { config, params, stem, stages, dec_mlps, head, head_out, dropout }
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &RandLaNetConfig {
        &self.config
    }

    /// One local-spatial-encoding + attentive-pooling aggregation at a
    /// fixed resolution, over pre-computed neighborhoods (`nb` and
    /// `center_flat` are flattened `[len * k]` level-local indices).
    #[allow(clippy::too_many_arguments)]
    fn aggregate(
        &self,
        session: &mut Forward<'_>,
        stage: &Stage,
        nb: &[usize],
        center_flat: &[usize],
        xyz: Var,
        h: Var,
        k: usize,
    ) -> Var {
        // Relative position encoding (Eq. 1 of RandLA-Net).
        let xyz_j = session.tape.gather_rows(xyz, nb);
        let xyz_i = session.tape.gather_rows(xyz, center_flat);
        let rel = session.tape.sub(xyz_j, xyz_i);
        let rel_sq = session.tape.square(rel);
        let d2 = session.tape.sum_cols(rel_sq);
        let d2e = session.tape.add_scalar(d2, 1e-6);
        let dist = session.tape.sqrt(d2e);
        let relpos = session.tape.concat_cols_all(&[xyz_i, xyz_j, rel, dist]);
        let pos_enc = stage.locse.forward(session, relpos);

        // Attentive pooling: learned per-channel softmax over neighbors.
        let feats_j = session.tape.gather_rows(h, nb);
        let edge = session.tape.concat_cols(feats_j, pos_enc);
        let scores = stage.score.forward(session, edge);
        let attn = session.tape.group_softmax(scores, k);
        let weighted = session.tape.mul(attn, edge);
        let mean = session.tape.group_mean(weighted, k);
        let summed = session.tape.scale(mean, k as f32);

        let out = stage.out_mlp.forward(session, summed);
        let sc = stage.shortcut.forward(session, h);
        let res = session.tape.add(out, sc);
        session.tape.leaky_relu(res, 0.2)
    }
}

impl SegmentationModel for RandLaNet {
    fn name(&self) -> &str {
        "randla-net"
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

    fn deterministic_eval(&self) -> bool {
        // Random downsampling draws from `rng` on every pass, even in
        // evaluation mode, so the recorded graph differs step to step.
        false
    }

    fn forward(&self, session: &mut Forward<'_>, input: &ModelInput<'_>, rng: &mut StdRng) -> Var {
        let _span = colper_obs::span!(FORWARD_RANDLA);
        let n = input.coords.len();
        assert!(n > 0, "RandLaNet: empty input");
        let built;
        let plan = resolve_plan!(
            input,
            built,
            RandLa,
            plan_randlanet(&self.config, input.coords),
            "RandLaNet"
        );
        let k = plan.k;

        let feats0 = session.tape.concat_cols_all(&[input.xyz, input.color, input.loc]);
        let mut h = self.stem.forward(session, feats0);

        // Random downsampling is per-pass state, so coarse levels track
        // which *original* indices survive; their neighborhoods come from
        // filtered queries against the cached full-resolution kd-tree.
        let mut orig_lv: Vec<Vec<usize>> = vec![(0..n).collect()];
        let mut xyz_lv: Vec<Var> = vec![input.xyz];
        let mut skip_feats: Vec<Var> = vec![h];

        // Encoder: aggregate then randomly downsample.
        for (s, stage) in self.stages.iter().enumerate() {
            let _span = colper_obs::span!(FORWARD_RANDLA_STAGE);
            let cur_len = orig_lv[s].len();
            let k_lv = k.min(cur_len);
            let nb_built: Vec<usize>;
            let center_built: Vec<usize>;
            let (nb, center_flat): (&[usize], &[usize]) = if s == 0 {
                (&plan.knn0[..], &plan.center_flat0[..])
            } else {
                nb_built = subset_knn_graph(&plan.tree, &orig_lv[s], k_lv);
                center_built = (0..cur_len).flat_map(|i| std::iter::repeat_n(i, k_lv)).collect();
                (&nb_built, &center_built)
            };
            let agg = self.aggregate(session, stage, nb, center_flat, xyz_lv[s], h, k_lv);
            let m = self.config.stages[s].0.min(cur_len);
            let keep = random_sample(cur_len, m, rng);
            let next_orig: Vec<usize> = keep.iter().map(|&i| orig_lv[s][i]).collect();
            let next_xyz = session.tape.gather_rows(xyz_lv[s], &keep);
            h = session.tape.gather_rows(agg, &keep);
            orig_lv.push(next_orig);
            xyz_lv.push(next_xyz);
            skip_feats.push(h);
        }

        // Decoder: nearest-neighbor upsampling with skip connections.
        for (j, dec) in self.dec_mlps.iter().enumerate() {
            let _span = colper_obs::span!(FORWARD_RANDLA_DECODER);
            let fine = self.config.stages.len() - 1 - j;
            let queries: Vec<Point3> = orig_lv[fine].iter().map(|&i| input.coords[i]).collect();
            let idx = subset_nearest(&plan.tree, &orig_lv[fine + 1], &queries);
            let w = vec![1.0f32; idx.len()];
            let up = session.tape.weighted_gather(h, &idx, &w, 1);
            let cat = session.tape.concat_cols(up, skip_feats[fine]);
            h = dec.forward(session, cat);
        }

        let hh = self.head.forward(session, h);
        let hh = self.dropout.forward(session, hh, rng);
        self.head_out.forward(session, hh)
    }

    fn plan(&self, coords: &[Point3]) -> GeometryPlan {
        GeometryPlan::RandLa(plan_randlanet(&self.config, coords))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bind_input, CloudTensors, ColorBinding};
    use colper_scene::{normalize, OutdoorSceneConfig, SceneGenerator};
    use rand::SeedableRng;

    fn sample_tensors(n: usize) -> CloudTensors {
        let cloud = SceneGenerator::outdoor(OutdoorSceneConfig::with_points(n)).generate(2);
        let mut rng = StdRng::seed_from_u64(99);
        CloudTensors::from_cloud(&normalize::randla_view(&cloud, n, &mut rng))
    }

    #[test]
    fn forward_shape_and_finiteness() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = sample_tensors(128);
        let model = RandLaNet::new(RandLaNetConfig::tiny(8), &mut rng);
        let mut session = Forward::new(model.params(), false);
        let input = bind_input(&mut session.tape, &t, ColorBinding::Constant);
        let logits = model.forward(&mut session, &input, &mut rng);
        let v = session.tape.value(logits);
        assert_eq!(v.shape(), (128, 8));
        assert!(v.all_finite());
    }

    #[test]
    fn color_gradient_flows_to_input() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = sample_tensors(96);
        let model = RandLaNet::new(RandLaNetConfig::tiny(8), &mut rng);
        let mut session = Forward::new(model.params(), false);
        let input = bind_input(&mut session.tape, &t, ColorBinding::Leaf);
        let logits = model.forward(&mut session, &input, &mut rng);
        let loss = session.tape.softmax_cross_entropy(logits, &t.labels);
        session.tape.backward(loss);
        let g = session.tape.grad(input.color).expect("color gradient");
        assert!(g.frobenius() > 0.0);
    }

    #[test]
    fn two_stage_config_works() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = sample_tensors(256);
        let model = RandLaNet::new(RandLaNetConfig::small(8), &mut rng);
        let mut session = Forward::new(model.params(), false);
        let input = bind_input(&mut session.tape, &t, ColorBinding::Constant);
        let logits = model.forward(&mut session, &input, &mut rng);
        assert_eq!(session.tape.value(logits).shape(), (256, 8));
    }

    #[test]
    fn training_mode_produces_param_grads() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = sample_tensors(64);
        let model = RandLaNet::new(RandLaNetConfig::tiny(8), &mut rng);
        let mut session = Forward::new(model.params(), true);
        let input = bind_input(&mut session.tape, &t, ColorBinding::Constant);
        let logits = model.forward(&mut session, &input, &mut rng);
        let loss = session.tape.softmax_cross_entropy(logits, &t.labels);
        session.tape.backward(loss);
        assert!(!session.collect_grads().is_empty());
    }

    #[test]
    fn random_sampling_makes_forward_stochastic() {
        let mut build_rng = StdRng::seed_from_u64(4);
        let t = sample_tensors(128);
        let model = RandLaNet::new(RandLaNetConfig::tiny(8), &mut build_rng);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            crate::logits_of(&model, &t, &mut rng)
        };
        assert_eq!(run(7), run(7), "same rng seed must reproduce");
        assert_ne!(run(7), run(8), "different sampling should change logits");
    }

    #[test]
    #[should_panic(expected = "channels must be even")]
    fn config_validation() {
        let mut bad = RandLaNetConfig::tiny(8);
        bad.stages[0].1 = 15;
        let _ = RandLaNet::new(bad, &mut StdRng::seed_from_u64(0));
    }
}
