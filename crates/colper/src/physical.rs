//! Physical-realizability modeling.
//!
//! The paper motivates color-only perturbation by physical deployment —
//! "pasting carefully-printed stickers on the surface" (citing Eykholt
//! et al.) — and argues such attacks survive "surrounding illuminations,
//! viewing angle and distance". This module makes that claim testable:
//!
//! * [`PhysicalModel`] degrades an adversarial color block the way the
//!   physical pipeline would: printer quantization, scene-wide lighting
//!   multiplier, per-point sensor noise;
//! * [`survival`] replays a degraded adversarial sample many times and
//!   reports how much of the attack's effect survives;
//! * [`eot_config`] hardens the attack itself with expectation over
//!   lighting transforms (EoT) so the optimized perturbation holds up
//!   under the same degradations; the config runs through
//!   [`crate::AttackSession`] like any other.

use crate::{AttackConfig, Objective};
use colper_metrics::ConfusionMatrix;
use colper_models::{CloudTensors, SegmentationModel};
use colper_tensor::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

/// A model of the print-and-rescan pipeline between the attacker's
/// digital colors and what the victim's sensor sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalModel {
    /// Printer color depth in bits per channel (8 = ideal printer).
    pub print_bits: u32,
    /// Half-width of the scene-wide multiplicative lighting variation
    /// (0.2 ⇒ brightness varies in ±20%).
    pub lighting_jitter: f32,
    /// Standard deviation of additive per-point sensor noise.
    pub sensor_noise: f32,
}

impl Default for PhysicalModel {
    fn default() -> Self {
        Self { print_bits: 5, lighting_jitter: 0.15, sensor_noise: 0.02 }
    }
}

impl PhysicalModel {
    /// An ideal pipeline (no degradation), for control runs.
    pub fn ideal() -> Self {
        Self { print_bits: 8, lighting_jitter: 0.0, sensor_noise: 0.0 }
    }

    /// Applies one random realization of the pipeline to a color block.
    ///
    /// # Panics
    ///
    /// Panics when `print_bits` is outside 1–8.
    pub fn degrade(&self, colors: &Matrix, rng: &mut StdRng) -> Matrix {
        assert!((1..=8).contains(&self.print_bits), "print_bits must be 1-8");
        let levels = (1u32 << self.print_bits) as f32 - 1.0;
        let lighting = 1.0
            + if self.lighting_jitter > 0.0 {
                rng.gen_range(-self.lighting_jitter..=self.lighting_jitter)
            } else {
                0.0
            };
        Matrix::from_fn(colors.rows(), colors.cols(), |r, c| {
            let v = colors[(r, c)];
            let printed = (v * levels).round() / levels;
            let lit = printed * lighting;
            let noisy = if self.sensor_noise > 0.0 {
                lit + rng.gen_range(-self.sensor_noise..=self.sensor_noise)
            } else {
                lit
            };
            noisy.clamp(0.0, 1.0)
        })
    }
}

/// How well an adversarial sample survives the physical pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurvivalReport {
    /// Victim accuracy on the pristine digital adversarial sample.
    pub digital_accuracy: f32,
    /// Mean victim accuracy over `trials` degraded realizations.
    pub physical_accuracy: f32,
    /// Worst (highest) accuracy across realizations — the attacker's
    /// unlucky day.
    pub worst_accuracy: f32,
    /// Number of realizations evaluated.
    pub trials: usize,
}

/// Replays `adversarial_colors` through `trials` random realizations of
/// the physical pipeline and measures the victim's accuracy each time.
///
/// # Panics
///
/// Panics when `trials == 0` or the color shape mismatches the cloud.
pub fn survival<M: SegmentationModel + ?Sized>(
    model: &M,
    tensors: &CloudTensors,
    adversarial_colors: &Matrix,
    physical: &PhysicalModel,
    trials: usize,
    rng: &mut StdRng,
) -> SurvivalReport {
    assert!(trials > 0, "survival: trials must be positive");
    assert_eq!(adversarial_colors.shape(), (tensors.len(), 3), "survival: color shape mismatch");
    let classes = model.num_classes();
    let acc_of = |colors: Matrix, rng: &mut StdRng| -> f32 {
        let mut t = tensors.clone();
        t.colors = colors;
        let preds = colper_models::predict(model, &t, rng);
        let mut cm = ConfusionMatrix::new(classes);
        cm.update(&preds, &tensors.labels);
        cm.accuracy()
    };
    let digital_accuracy = acc_of(adversarial_colors.clone(), rng);
    let mut worst = 0.0f32;
    let mut total = 0.0f32;
    for _ in 0..trials {
        let degraded = physical.degrade(adversarial_colors, rng);
        let acc = acc_of(degraded, rng);
        worst = worst.max(acc);
        total += acc;
    }
    SurvivalReport {
        digital_accuracy,
        physical_accuracy: total / trials as f32,
        worst_accuracy: worst,
        trials,
    }
}

/// `config` hardened with expectation over lighting transforms: each
/// gradient sample shows the victim the colors under a random lighting
/// multiplier drawn from `physical.lighting_jitter`, so the optimizer
/// finds perturbations whose effect is lighting-invariant (the standard
/// EoT recipe for physically robust adversarial examples). Run it
/// through [`crate::AttackSession`].
///
/// `eot_samples` is the number of lighting draws averaged per
/// iteration.
///
/// # Panics
///
/// Panics when `eot_samples == 0`.
pub fn eot_config(
    mut config: AttackConfig,
    physical: &PhysicalModel,
    eot_samples: usize,
) -> AttackConfig {
    assert!(eot_samples > 0, "eot_config: eot_samples must be positive");
    config.gradient_samples = config.gradient_samples.max(eot_samples);
    config.lighting_eot = physical.lighting_jitter;
    // Convergence checks under EoT observe a random lighting draw; keep
    // optimizing the full budget instead of stopping on one lucky draw.
    config.convergence_threshold = Some(match config.objective {
        Objective::Targeted { .. } => 1.1,
        _ => 0.0,
    });
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use colper_models::{train_model, PointNet2, PointNet2Config, TrainConfig};
    use colper_scene::{normalize, IndoorSceneConfig, RoomKind, SceneGenerator};
    use rand::SeedableRng;

    fn victim(rng: &mut StdRng) -> (PointNet2, CloudTensors) {
        let clouds: Vec<CloudTensors> = (0..4)
            .map(|i| {
                let cfg = IndoorSceneConfig {
                    room_kind: Some(RoomKind::Office),
                    ..IndoorSceneConfig::with_points(144)
                };
                CloudTensors::from_cloud(&normalize::pointnet_view(
                    &SceneGenerator::indoor(cfg).generate(4000 + i),
                ))
            })
            .collect();
        let mut model = PointNet2::new(PointNet2Config::tiny(13), rng);
        train_model(
            &mut model,
            &clouds,
            &TrainConfig { epochs: 8, lr: 0.01, target_accuracy: 0.9 },
            rng,
        );
        let t = clouds[0].clone();
        (model, t)
    }

    #[test]
    fn degrade_stays_in_unit_box_and_quantizes() {
        let mut rng = StdRng::seed_from_u64(0);
        let colors = Matrix::from_fn(50, 3, |r, c| (r as f32 * 0.02 + c as f32 * 0.3).fract());
        let pm = PhysicalModel { print_bits: 2, lighting_jitter: 0.0, sensor_noise: 0.0 };
        let out = pm.degrade(&colors, &mut rng);
        assert!(out.min().unwrap() >= 0.0 && out.max().unwrap() <= 1.0);
        // 2 bits -> values in {0, 1/3, 2/3, 1}.
        for &v in out.as_slice() {
            let nearest = (v * 3.0).round() / 3.0;
            assert!((v - nearest).abs() < 1e-6, "{v}");
        }
    }

    #[test]
    fn ideal_pipeline_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let colors = Matrix::from_fn(20, 3, |r, c| ((r * 3 + c) as f32 / 255.0) * 4.0 % 1.0);
        let out = PhysicalModel::ideal().degrade(&colors, &mut rng);
        assert!(colors.max_abs_diff(&out) < 1e-2, "8-bit quantization is near-lossless");
    }

    #[test]
    fn survival_reports_bounded_and_ordered() {
        let mut rng = StdRng::seed_from_u64(2);
        let (model, t) = victim(&mut rng);
        let attack = crate::AttackSession::new(AttackConfig::non_targeted(25));
        let result = attack.run_with_rng(&model, &t, &mut rng);
        let report = survival(
            &model,
            &t,
            &result.adversarial_colors,
            &PhysicalModel::default(),
            5,
            &mut rng,
        );
        assert_eq!(report.trials, 5);
        assert!((0.0..=1.0).contains(&report.physical_accuracy));
        assert!(report.worst_accuracy + 1e-6 >= report.physical_accuracy);
        // Degradation can only help the victim (or leave it fooled).
        assert!(report.physical_accuracy + 0.35 >= report.digital_accuracy);
    }

    #[test]
    fn robust_attack_returns_feasible_colors() {
        let mut rng = StdRng::seed_from_u64(3);
        let (model, t) = victim(&mut rng);
        let config = eot_config(AttackConfig::non_targeted(10), &PhysicalModel::default(), 2);
        assert_eq!(config.gradient_samples, 2);
        assert_eq!(config.convergence_threshold, Some(0.0));
        let result = crate::AttackSession::new(config).run_with_rng(&model, &t, &mut rng);
        assert!(result.adversarial_colors.min().unwrap() >= 0.0);
        assert!(result.adversarial_colors.max().unwrap() <= 1.0);
    }
}
