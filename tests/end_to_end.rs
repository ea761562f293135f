//! End-to-end integration: synthetic data -> trained victim -> attack ->
//! metrics, spanning every crate of the workspace.

use colper_repro::attack::{AttackConfig, AttackSession, Objective};
use colper_repro::metrics::success_rate;
use colper_repro::models::{
    evaluate_on, train_model, CloudTensors, PointNet2, PointNet2Config, SegmentationModel,
    TrainConfig,
};
use colper_repro::scene::{normalize, IndoorClass, IndoorSceneConfig, RoomKind, SceneGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn office_tensors(seed: u64, points: usize) -> CloudTensors {
    let cfg = IndoorSceneConfig {
        room_kind: Some(RoomKind::Office),
        ..IndoorSceneConfig::with_points(points)
    };
    let cloud = SceneGenerator::indoor(cfg).generate(seed);
    CloudTensors::from_cloud(&normalize::pointnet_view(&cloud))
}

fn trained_pointnet(rng: &mut StdRng) -> (PointNet2, Vec<CloudTensors>) {
    let clouds: Vec<CloudTensors> = (0..5).map(|i| office_tensors(500 + i, 192)).collect();
    let mut model = PointNet2::new(PointNet2Config::tiny(13), rng);
    let report = train_model(
        &mut model,
        &clouds,
        &TrainConfig { epochs: 12, lr: 0.01, target_accuracy: 0.93 },
        rng,
    );
    assert!(report.final_accuracy > 0.5, "victim failed to train: {report:?}");
    (model, clouds)
}

#[test]
fn full_pipeline_nontargeted_attack_beats_noise_baseline() {
    let mut rng = StdRng::seed_from_u64(0);
    let (model, clouds) = trained_pointnet(&mut rng);
    let victim = &clouds[0];

    let clean = evaluate_on(&model, victim, &mut rng);
    let attack = AttackSession::new(AttackConfig::non_targeted(60));
    let result = attack.run_with_rng(&model, victim, &mut rng);
    let noise = AttackConfig {
        objective: Objective::NoiseBaseline { l2_sq: result.l2_sq },
        ..AttackConfig::non_targeted(60)
    };
    let baseline = AttackSession::new(noise).run_with_rng(&model, victim, &mut rng);

    // The paper's core claim, in miniature: at matched L2, the optimized
    // color perturbation hurts far more than random noise.
    assert!(result.success_metric < clean, "attack should reduce accuracy");
    assert!(
        result.success_metric + 0.15 < baseline.success_metric,
        "COLPER ({:.3}) should clearly beat noise ({:.3}) at L2 {:.2}",
        result.success_metric,
        baseline.success_metric,
        result.l2()
    );
}

#[test]
fn full_pipeline_targeted_attack_confines_damage() {
    let mut rng = StdRng::seed_from_u64(1);
    let (model, clouds) = trained_pointnet(&mut rng);
    // Find a cloud with enough board points.
    let source = IndoorClass::Board.label();
    let target = IndoorClass::Wall.label();
    let extra: Vec<CloudTensors> = (0..10).map(|i| office_tensors(900 + i, 192)).collect();
    let victim = clouds
        .iter()
        .chain(extra.iter())
        .find(|t| t.labels.iter().filter(|&&l| l == source).count() >= 6)
        .expect("an office with a board");
    let mask: Vec<bool> = victim.labels.iter().map(|&l| l == source).collect();

    let clean_preds = colper_repro::models::predict(&model, victim, &mut rng);
    let targets = vec![target; victim.len()];
    let clean_sr = success_rate(&clean_preds, &targets, &mask);

    let attack = AttackSession::new(AttackConfig::targeted(60, target)).mask_source_class(source);
    let result = attack.run_with_rng(&model, victim, &mut rng);

    assert!(result.success_metric >= clean_sr, "SR should not decrease");
    // Out-of-band points keep their original colors byte-exact.
    for (i, &m) in mask.iter().enumerate() {
        if !m {
            for c in 0..3 {
                assert_eq!(result.adversarial_colors[(i, c)], victim.colors[(i, c)]);
            }
        }
    }
}

#[test]
fn attack_works_against_every_model_family() {
    use colper_repro::models::{RandLaNet, RandLaNetConfig, ResGcn, ResGcnConfig};

    let mut rng = StdRng::seed_from_u64(2);
    let clouds: Vec<CloudTensors> = (0..4)
        .map(|i| {
            let cfg = IndoorSceneConfig {
                room_kind: Some(RoomKind::Office),
                ..IndoorSceneConfig::with_points(160)
            };
            let cloud = SceneGenerator::indoor(cfg).generate(800 + i);
            CloudTensors::from_cloud(&normalize::resgcn_view(&cloud))
        })
        .collect();
    let tc = TrainConfig { epochs: 8, lr: 0.01, target_accuracy: 0.9 };

    let mut resgcn = ResGcn::new(ResGcnConfig::tiny(13), &mut rng);
    train_model(&mut resgcn, &clouds, &tc, &mut rng);
    let mut randla = RandLaNet::new(RandLaNetConfig::tiny(13), &mut rng);
    train_model(&mut randla, &clouds, &tc, &mut rng);

    let victim = &clouds[0];
    for (name, model) in [
        ("resgcn", &mut resgcn as &mut dyn SegmentationModel),
        ("randla", &mut randla as &mut dyn SegmentationModel),
    ] {
        let clean = evaluate_on(model, victim, &mut rng);
        let attack = AttackSession::new(AttackConfig::non_targeted(40));
        let result = attack.run_with_rng(model, victim, &mut rng);
        assert!(
            result.success_metric <= clean + 1e-6,
            "{name}: {:.3} should not exceed clean {clean:.3}",
            result.success_metric
        );
        assert!(result.adversarial_colors.all_finite(), "{name}");
    }
}

#[test]
fn attack_survives_degenerate_geometry() {
    use colper_repro::geom::Point3;
    use colper_repro::scene::PointCloud;
    // Coplanar floor-only cloud: the smoothness graph and ball queries
    // get extremely dense neighborhoods.
    let n = 80;
    let cloud = PointCloud::new(
        (0..n).map(|i| Point3::new((i % 10) as f32 * 0.3, (i / 10) as f32 * 0.3, 0.0)).collect(),
        vec![[0.5, 0.45, 0.4]; n],
        vec![1; n], // all floor
        13,
    );
    let t = CloudTensors::from_cloud(&normalize::pointnet_view(&cloud));
    let mut rng = StdRng::seed_from_u64(5);
    let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
    let result =
        AttackSession::new(AttackConfig::non_targeted(5)).run_with_rng(&model, &t, &mut rng);
    assert!(result.adversarial_colors.all_finite());
    assert!(result.gain_history.iter().all(|g| g.is_finite()));
}

#[test]
fn eot_gradient_sampling_runs_against_stochastic_victim() {
    use colper_repro::models::{RandLaNet, RandLaNetConfig};
    let mut rng = StdRng::seed_from_u64(6);
    let cloud = office_tensors(42, 128);
    let model = RandLaNet::new(RandLaNetConfig::tiny(13), &mut rng);
    let mut cfg = AttackConfig::non_targeted(4);
    cfg.gradient_samples = 3;
    cfg.record_trajectory = true;
    let result = AttackSession::new(cfg).run_with_rng(&model, &cloud, &mut rng);
    assert_eq!(result.metric_history.len(), result.steps_run);
    assert!(result.adversarial_colors.all_finite());
}

#[test]
fn attack_converges_with_paper_thresholds_given_enough_steps() {
    let mut rng = StdRng::seed_from_u64(3);
    let (model, clouds) = trained_pointnet(&mut rng);
    let victim = &clouds[1];
    // Generous threshold at 50% — the attack reliably reaches that fast.
    let mut cfg = AttackConfig::non_targeted(80);
    cfg.convergence_threshold = Some(0.5);
    let attack = AttackSession::new(cfg);
    let result = attack.run_with_rng(&model, victim, &mut rng);
    assert!(result.converged, "expected convergence, got {:.3}", result.success_metric);
    assert!(result.steps_run < 80, "early stop expected");
}
