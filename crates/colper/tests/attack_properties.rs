//! Property-based tests on attack invariants: feasibility, mask
//! discipline, metric bounds and reparameterization consistency — for
//! arbitrary scenes, masks and configurations.

use colper_attack::{random_color_noise, AttackConfig, AttackSession, Objective, TanhReparam};
use colper_models::{CloudTensors, PointNet2, PointNet2Config};
use colper_scene::{normalize, IndoorSceneConfig, SceneGenerator};
use colper_tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scene_tensors(seed: u64, points: usize) -> CloudTensors {
    let cloud = SceneGenerator::indoor(IndoorSceneConfig::with_points(points)).generate(seed);
    CloudTensors::from_cloud(&normalize::pointnet_view(&cloud))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The attack must always produce feasible colors and respect its
    /// mask, for any scene / mask density / goal.
    #[test]
    fn attack_invariants_hold(
        seed in 0u64..500,
        mask_density in 0.2f32..1.0,
        targeted in proptest::bool::ANY,
    ) {
        let t = scene_tensors(seed, 96);
        let mut rng = StdRng::seed_from_u64(seed);
        let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
        // Deterministic pseudo-random mask with at least one point.
        let mut mask: Vec<bool> = (0..t.len())
            .map(|i| ((i as f32 * 0.7543 + seed as f32).sin() + 1.0) / 2.0 < mask_density)
            .collect();
        mask[0] = true;

        let config = if targeted {
            AttackConfig::targeted(5, 2)
        } else {
            AttackConfig::non_targeted(5)
        };
        let mask_of = |_: &CloudTensors| mask.clone();
        let result =
            AttackSession::new(config).mask_with(&mask_of).run_with_rng(&model, &t, &mut rng);

        // Feasibility.
        prop_assert!(result.adversarial_colors.min().unwrap() >= 0.0);
        prop_assert!(result.adversarial_colors.max().unwrap() <= 1.0);
        prop_assert!(result.adversarial_colors.all_finite());
        // Mask discipline: unattacked points byte-identical.
        for (i, &m) in mask.iter().enumerate() {
            if !m {
                for c in 0..3 {
                    prop_assert_eq!(result.adversarial_colors[(i, c)], t.colors[(i, c)]);
                }
            }
        }
        // Reported L2 consistent with the returned colors.
        let recomputed = result
            .adversarial_colors
            .sub(&t.colors)
            .unwrap()
            .frobenius_sq();
        prop_assert!((recomputed - result.l2_sq).abs() <= 1e-3 * (1.0 + result.l2_sq));
        // Metric bounds.
        prop_assert!((0.0..=1.0).contains(&result.success_metric));
        prop_assert_eq!(result.attacked_points, mask.iter().filter(|&&m| m).count());
        prop_assert!(result.steps_run >= 1 && result.steps_run <= 5);
        prop_assert_eq!(result.gain_history.len(), result.steps_run);
    }

    /// Matched-L2 noise must hit its budget (within clamping slack) and
    /// never leave the unit box.
    #[test]
    fn noise_baseline_budget(
        seed in 0u64..1000,
        budget in 0.01f32..20.0,
    ) {
        let t = scene_tensors(seed, 128);
        let mut rng = StdRng::seed_from_u64(seed);
        let mask = vec![true; t.len()];
        let noisy = random_color_noise(&t.colors, &mask, budget, &mut rng);
        prop_assert!(noisy.min().unwrap() >= 0.0 && noisy.max().unwrap() <= 1.0);
        let achieved = noisy.sub(&t.colors).unwrap().frobenius_sq();
        // Large budgets saturate against the box; small budgets must be
        // matched tightly.
        if budget < 5.0 {
            prop_assert!((achieved - budget).abs() / budget < 0.15,
                "budget {budget}, achieved {achieved}");
        } else {
            prop_assert!(achieved <= budget * 1.05);
        }
    }

    /// tanh reparameterization: any box, any w — features inside the
    /// box; round-trip accurate away from the boundary.
    #[test]
    fn reparam_box_respected(
        lo in -3.0f32..0.9,
        width in 0.2f32..4.0,
        values in proptest::collection::vec(-6.0f32..6.0, 12),
    ) {
        let rp = TanhReparam::new(lo, lo + width);
        let w = Matrix::from_vec(4, 3, values).unwrap();
        let feats = rp.to_features(&w);
        prop_assert!(feats.min().unwrap() >= lo - 1e-5);
        prop_assert!(feats.max().unwrap() <= lo + width + 1e-5);
        // Round trip through w-space.
        let w2 = rp.to_w(&feats);
        let feats2 = rp.to_features(&w2);
        prop_assert!(feats.max_abs_diff(&feats2) < 1e-2);
    }

    /// Convergence thresholds: auto threshold is the paper's random-guess
    /// rate for non-targeted attacks, independent of other settings.
    #[test]
    fn auto_threshold_is_random_guessing(classes in 2usize..40) {
        let cfg = AttackConfig::non_targeted(10);
        prop_assert!((cfg.threshold(classes) - 1.0 / classes as f32).abs() < 1e-6);
        let t = AttackConfig::targeted(10, 0);
        prop_assert!((t.threshold(classes) - 0.95).abs() < 1e-6);
        prop_assert_eq!(t.objective, Objective::Targeted { target: 0 });
    }
}
