//! Algorithm 2 of the paper: the L0-constrained attack used to compare
//! color against coordinate perturbation (Table 7).
//!
//! The attack alternates optimization rounds with *impactful-point
//! selection* (Eq. 9): after each round, the `restore_per_round` points
//! with the smallest `|gradient · perturbation|` score are restored to
//! their original values and frozen, shrinking the perturbed set until
//! it fits the L0 budget (10% of the points in the paper).

use crate::TanhReparam;
use colper_geom::Point3;
use colper_metrics::ConfusionMatrix;
use colper_models::{CloudTensors, GeometryPlan, ModelInput, SegmentationModel};
use colper_nn::{AdamState, Forward};
use colper_tensor::Matrix;
use rand::rngs::StdRng;

/// Which feature block the L0 attack perturbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerturbTarget {
    /// RGB color, box `[0, 1]` (COLPER under an L0 constraint).
    Color,
    /// Coordinates, box `[-1, 1]` (the prior-work style the paper
    /// compares against; use the ResGCN normalized view).
    Coordinate,
}

/// Hyper-parameters for [`L0Attack`].
#[derive(Debug, Clone, PartialEq)]
pub struct L0AttackConfig {
    /// Perturbed feature block.
    pub target: PerturbTarget,
    /// Optimization steps per restoration round.
    pub steps_per_round: usize,
    /// Points restored (frozen) per round — `N` in Eq. 9; the paper
    /// uses 100.
    pub restore_per_round: usize,
    /// Maximum fraction of points that may stay perturbed (the paper's
    /// L0 criterion is 10%).
    pub l0_budget: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Success threshold on masked accuracy (non-targeted): the sample
    /// "succeeds" when accuracy falls below it. `None` uses random
    /// guessing (`1/classes`).
    pub success_threshold: Option<f32>,
}

impl L0AttackConfig {
    /// Defaults matching the paper at reduced step counts.
    pub fn new(target: PerturbTarget) -> Self {
        Self {
            target,
            steps_per_round: 30,
            restore_per_round: 100,
            l0_budget: 0.10,
            lr: 0.01,
            success_threshold: None,
        }
    }
}

/// The outcome of one [`L0Attack::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct L0Result {
    /// The perturbed feature block (colors or coordinates, `[N, 3]`).
    pub adversarial: Matrix,
    /// Fraction of points still perturbed at the end.
    pub perturbed_fraction: f32,
    /// Whether the final perturbed set fits the L0 budget.
    pub meets_budget: bool,
    /// Whether the attack met its success threshold while fitting the
    /// budget (the event SSR counts).
    pub success: bool,
    /// Post-attack accuracy over all points.
    pub accuracy: f32,
    /// Post-attack aIoU over all points.
    pub miou: f32,
    /// Final predictions.
    pub predictions: Vec<usize>,
}

/// The L0-constrained color/coordinate attack.
#[derive(Debug, Clone, PartialEq)]
pub struct L0Attack {
    config: L0AttackConfig,
}

impl L0Attack {
    /// Creates the attack.
    pub fn new(config: L0AttackConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &L0AttackConfig {
        &self.config
    }

    /// Runs the attack on one cloud (all points initially perturbable).
    ///
    /// # Panics
    ///
    /// Panics when the cloud is empty.
    pub fn run<M: SegmentationModel + ?Sized>(
        &self,
        model: &M,
        tensors: &CloudTensors,
        rng: &mut StdRng,
    ) -> L0Result {
        let n = tensors.len();
        assert!(n > 0, "L0Attack: empty cloud");
        let cfg = &self.config;
        let classes = model.num_classes();
        let threshold = cfg.success_threshold.unwrap_or(1.0 / classes as f32);

        let (orig, reparam) = match cfg.target {
            PerturbTarget::Color => (tensors.colors.clone(), TanhReparam::color()),
            PerturbTarget::Coordinate => (tensors.xyz.clone(), TanhReparam::coordinate()),
        };

        let mut w = reparam.to_w(&orig);
        let w_orig = w.clone();
        let mut perturbable = vec![true; n];
        // During optimization the *graph* coordinates stay the original
        // ones even when xyz features are perturbed (input.coords is
        // never rebuilt mid-run), so one plan covers every step. Only the
        // final evaluation below re-derives geometry from moved points.
        let plan = model.plan(&tensors.coords);
        let budget_points = ((n as f32) * cfg.l0_budget).floor() as usize;

        let max_rounds = n / cfg.restore_per_round.max(1) + 2;
        let mut last_grad = Matrix::zeros(n, 3);
        for _ in 0..max_rounds {
            // Inner optimization over the currently perturbable set;
            // Algorithm 2 drops the D and S terms (gain = loss).
            let mut adam = AdamState::new(n, 3);
            for _ in 0..cfg.steps_per_round {
                let (grad, _) = self.step(model, tensors, &w, &perturbable, &reparam, &plan, rng);
                last_grad = grad.clone();
                adam.update(&mut w, &grad, cfg.lr);
            }
            let count = perturbable.iter().filter(|&&p| p).count();
            if count <= budget_points {
                // "The point cloud will be perturbed without restoration":
                // spend a longer final phase on the surviving set.
                let mut adam = AdamState::new(n, 3);
                for _ in 0..cfg.steps_per_round * 3 {
                    let (grad, _) =
                        self.step(model, tensors, &w, &perturbable, &reparam, &plan, rng);
                    adam.update(&mut w, &grad, cfg.lr * 2.0);
                }
                break;
            }
            // Eq. 9: restore the least impactful points.
            let perturb = reparam.to_features(&w).sub(&orig).expect("shape");
            let mut scores: Vec<(f32, usize)> = (0..n)
                .filter(|&i| perturbable[i])
                .map(|i| {
                    let s: f32 = (0..3).map(|c| (last_grad[(i, c)] * perturb[(i, c)]).abs()).sum();
                    (s, i)
                })
                .collect();
            restoration_order(&mut scores);
            let to_restore = cfg.restore_per_round.min(count.saturating_sub(budget_points).max(1));
            for &(_, i) in scores.iter().take(to_restore) {
                perturbable[i] = false;
                for c in 0..3 {
                    w[(i, c)] = w_orig[(i, c)];
                }
            }
        }

        // Final evaluation with the graph rebuilt when coordinates moved.
        // Restored points are reset to their *exact* original features:
        // the tanh round-trip is only accurate to ~1e-4 near the box
        // boundary, which would otherwise leak into the L0 count.
        let mut adversarial = reparam.to_features(&w);
        for (i, &p) in perturbable.iter().enumerate() {
            if !p {
                for c in 0..3 {
                    adversarial[(i, c)] = orig[(i, c)];
                }
            }
        }
        let mut final_tensors = tensors.clone();
        match cfg.target {
            PerturbTarget::Color => final_tensors.colors = adversarial.clone(),
            PerturbTarget::Coordinate => {
                final_tensors.xyz = adversarial.clone();
                final_tensors.coords = (0..n)
                    .map(|i| {
                        Point3::new(adversarial[(i, 0)], adversarial[(i, 1)], adversarial[(i, 2)])
                    })
                    .collect();
            }
        }
        let predictions = colper_models::predict(model, &final_tensors, rng);
        let mut cm = ConfusionMatrix::new(classes);
        cm.update(&predictions, &tensors.labels);
        let accuracy = cm.accuracy();
        let miou = cm.mean_iou();

        let perturbed = adversarial
            .sub(&orig)
            .expect("shape")
            .iter_rows()
            .filter(|row| row.iter().any(|v| v.abs() > 1e-4))
            .count();
        let perturbed_fraction = perturbed as f32 / n as f32;
        let meets_budget = perturbed <= budget_points;
        L0Result {
            adversarial,
            perturbed_fraction,
            meets_budget,
            success: meets_budget && accuracy < threshold.max(0.5),
            accuracy,
            miou,
            predictions,
        }
    }

    /// One gradient evaluation: returns `(grad_w, loss_value)`.
    #[allow(clippy::too_many_arguments)]
    fn step<M: SegmentationModel + ?Sized>(
        &self,
        model: &M,
        tensors: &CloudTensors,
        w: &Matrix,
        perturbable: &[bool],
        reparam: &TanhReparam,
        plan: &GeometryPlan,
        rng: &mut StdRng,
    ) -> (Matrix, f32) {
        let n = tensors.len();
        let mask_m = Matrix::from_fn(n, 3, |r, _| if perturbable[r] { 1.0 } else { 0.0 });
        let orig = match self.config.target {
            PerturbTarget::Color => &tensors.colors,
            PerturbTarget::Coordinate => &tensors.xyz,
        };
        let frozen = Matrix::from_fn(n, 3, |r, c| if perturbable[r] { 0.0 } else { orig[(r, c)] });

        let mut session = Forward::new(model.params(), false);
        let w_var = session.tape.leaf(w.clone());
        let feat_free = reparam.features_on_tape(&mut session.tape, w_var);
        let feat_masked = session.tape.mul_const(feat_free, mask_m);
        let frozen_var = session.tape.constant(frozen);
        let feat = session.tape.add(feat_masked, frozen_var);

        let (xyz, color) = match self.config.target {
            PerturbTarget::Color => (session.tape.constant(tensors.xyz.clone()), feat),
            PerturbTarget::Coordinate => (feat, session.tape.constant(tensors.colors.clone())),
        };
        let loc = session.tape.constant(tensors.loc01.clone());
        let input = ModelInput { coords: &tensors.coords, xyz, color, loc, plan: Some(plan) };
        let logits = model.forward(&mut session, &input, rng);
        // Algorithm 2 keeps the adversarial loss over the *whole* attacked
        // set X_t (all points here); only the perturbation support shrinks
        // via the mask. Perturbing 10% of the points must still be able
        // to flip their neighbors through the network's receptive field.
        // The loss is non-targeted (Eq. 8), as in the paper's Table 7.
        let full_mask = vec![true; n];
        let loss = session.tape.cw_nontargeted(logits, &tensors.labels, &full_mask);
        session.tape.backward(loss);
        let loss_v = session.tape.value(loss)[(0, 0)];
        let grad = session.tape.grad(w_var).cloned().unwrap_or_else(|| Matrix::zeros(n, 3));
        (grad, loss_v)
    }
}

/// Sorts Eq. 9 restoration candidates by ascending impact score with the
/// point index as tie-break. Uses [`f32::total_cmp`]: a non-finite score
/// (a diverged gradient, an overflowed perturbation product) must not
/// poison the ordering — NaN sorts after every finite score, so broken
/// points are restored *last* and the order stays a total, deterministic
/// function of the input.
fn restoration_order(scores: &mut [(f32, usize)]) {
    scores.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use colper_models::{train_model, PointNet2, PointNet2Config, TrainConfig};
    use colper_scene::{normalize, IndoorSceneConfig, RoomKind, SceneGenerator};
    use rand::SeedableRng;

    fn victim(
        rng: &mut StdRng,
        norm: fn(&colper_scene::PointCloud) -> colper_scene::PointCloud,
    ) -> (PointNet2, CloudTensors) {
        let clouds: Vec<CloudTensors> = (0..4)
            .map(|i| {
                let cfg = IndoorSceneConfig {
                    room_kind: Some(RoomKind::Office),
                    ..IndoorSceneConfig::with_points(160)
                };
                CloudTensors::from_cloud(&norm(&SceneGenerator::indoor(cfg).generate(700 + i)))
            })
            .collect();
        let mut model = PointNet2::new(PointNet2Config::tiny(13), rng);
        let tc = TrainConfig { epochs: 8, lr: 0.01, target_accuracy: 0.9 };
        train_model(&mut model, &clouds, &tc, rng);
        let t = clouds[0].clone();
        (model, t)
    }

    #[test]
    fn color_l0_attack_fits_budget() {
        let mut rng = StdRng::seed_from_u64(0);
        let (model, t) = victim(&mut rng, normalize::resgcn_view);
        let mut cfg = L0AttackConfig::new(PerturbTarget::Color);
        cfg.steps_per_round = 10;
        cfg.restore_per_round = 40;
        let result = L0Attack::new(cfg).run(&model, &t, &mut rng);
        assert!(result.meets_budget, "perturbed fraction {}", result.perturbed_fraction);
        assert!(result.perturbed_fraction <= 0.101);
        assert_eq!(result.predictions.len(), t.len());
    }

    #[test]
    fn coordinate_l0_attack_runs_and_reports() {
        let mut rng = StdRng::seed_from_u64(1);
        let (model, t) = victim(&mut rng, normalize::resgcn_view);
        let mut cfg = L0AttackConfig::new(PerturbTarget::Coordinate);
        cfg.steps_per_round = 8;
        cfg.restore_per_round = 40;
        let result = L0Attack::new(cfg).run(&model, &t, &mut rng);
        assert!((0.0..=1.0).contains(&result.accuracy));
        assert!((0.0..=1.0).contains(&result.miou));
        assert!(result.adversarial.all_finite());
        // Coordinates stay in the tanh box.
        assert!(result.adversarial.min().unwrap() >= -1.0 - 1e-4);
        assert!(result.adversarial.max().unwrap() <= 1.0 + 1e-4);
    }

    #[test]
    fn restored_points_keep_original_features() {
        let mut rng = StdRng::seed_from_u64(2);
        let (model, t) = victim(&mut rng, normalize::resgcn_view);
        let mut cfg = L0AttackConfig::new(PerturbTarget::Color);
        cfg.steps_per_round = 6;
        cfg.restore_per_round = 60;
        let result = L0Attack::new(cfg).run(&model, &t, &mut rng);
        // At most budget fraction of rows differ.
        let n = t.len();
        let changed = (0..n)
            .filter(|&i| {
                (0..3).any(|c| (result.adversarial[(i, c)] - t.colors[(i, c)]).abs() > 1e-3)
            })
            .count();
        assert!(changed as f32 / n as f32 <= 0.11, "{changed}/{n} changed");
    }

    #[test]
    fn restoration_order_is_total_under_nan_and_inf() {
        // The old `partial_cmp(..).unwrap_or(Equal)` comparator made NaN
        // compare equal to *everything*, which breaks transitivity and
        // lets the sort order depend on element layout. `total_cmp` plus
        // the index tie-break must produce one canonical order.
        let mut scores = vec![
            (f32::NAN, 0),
            (1.0, 1),
            (f32::NEG_INFINITY, 2),
            (0.0, 3),
            (f32::INFINITY, 4),
            (1.0, 5),
            (f32::NAN, 6),
        ];
        restoration_order(&mut scores);
        let order: Vec<usize> = scores.iter().map(|&(_, i)| i).collect();
        // -inf < 0 < 1 (ties by index) < +inf < NaN (ties by index).
        assert_eq!(order, vec![2, 3, 1, 5, 4, 0, 6]);

        // Any permutation of the same input sorts to the same order.
        let mut rotated = vec![
            (1.0, 5),
            (f32::NAN, 6),
            (f32::INFINITY, 4),
            (f32::NAN, 0),
            (0.0, 3),
            (1.0, 1),
            (f32::NEG_INFINITY, 2),
        ];
        restoration_order(&mut rotated);
        assert_eq!(rotated.iter().map(|&(_, i)| i).collect::<Vec<_>>(), order);
    }
}
