//! The robustness matrix's reproducibility contract: the ranked report
//! is bit-identical across thread counts and SIMD legs, and any single
//! cell can be reproduced standalone by an [`AttackSession`] seeded from
//! the same stable cell ids.

use colper_repro::attack::{
    apply_adversarial_colors, AttackConfig, AttackPlan, AttackSession, Objective,
};
use colper_repro::defense::{Defense, DefensePipeline};
use colper_repro::matrix::{
    run, stable_seed, AttackEntry, MatrixConfig, ModelSet, Registry, SceneEntry,
};
use colper_repro::metrics::ConfusionMatrix;
use colper_repro::models::CloudTensors;
use colper_repro::runtime::Runtime;
use colper_repro::scene::{IndoorSceneConfig, SceneGenerator};
use colper_repro::tensor::kernels;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A reduced cross-product that still exercises every unit kind: a
/// white-box optimization, a surrogate-optimized transfer replay, the
/// closed-form noise floor, and a defense that actually perturbs.
fn registry() -> Registry {
    let parse = |s: &str| DefensePipeline::parse(s).unwrap();
    Registry {
        attacks: vec![
            AttackEntry::white_box(Objective::NonTargeted),
            AttackEntry::transfer(0.5, "pointnet", "resgcn"),
            AttackEntry::white_box(Objective::NoiseBaseline { l2_sq: 2.0 }),
        ],
        defenses: vec![parse("identity"), parse("quantize(3)")],
        models: vec!["pointnet".to_string(), "resgcn".to_string()],
        scenes: vec![SceneEntry { id: "s0".to_string(), seed: 5, points: 80 }],
    }
}

fn config() -> MatrixConfig {
    MatrixConfig {
        steps: 3,
        points: 80,
        train_points: 64,
        train_rooms_per_area: 1,
        train_epochs: 2,
        ..MatrixConfig::quick()
    }
}

#[test]
fn report_is_bit_identical_across_threads_and_simd_legs() {
    let registry = registry();
    let cfg = config();
    let was = kernels::simd_active();

    kernels::set_simd_enabled(false);
    let scalar_1 = run(&registry, &cfg, &Runtime::new(1)).unwrap().to_json();
    let scalar_4 = run(&registry, &cfg, &Runtime::new(4)).unwrap().to_json();
    assert_eq!(scalar_1, scalar_4, "thread count leaked into the report (scalar leg)");

    if kernels::simd_supported() {
        kernels::set_simd_enabled(true);
        let simd_4 = run(&registry, &cfg, &Runtime::new(4)).unwrap().to_json();
        assert_eq!(scalar_1, simd_4, "SIMD leg diverged from the scalar reference");
    }
    kernels::set_simd_enabled(was);
}

#[test]
fn a_cell_reproduces_from_a_standalone_attack_session() {
    let registry = registry();
    let cfg = config();
    let report = run(&registry, &cfg, &Runtime::new(2)).unwrap();
    let cell = report
        .cells
        .iter()
        .find(|c| c.attack == "non_targeted" && c.defense == "identity" && c.model == "pointnet")
        .expect("the cross-product covers this cell");

    // Rebuild the cell from scratch through the public API, seeding every
    // stream from the same stable cell ids the runner hashes. Nothing
    // here touches the runner: the same numbers must come out of a plain
    // AttackSession plus one defended evaluation.
    let set = ModelSet::train(&["pointnet".to_string()], &cfg);
    let model = set.get("pointnet");
    let scene = &registry.scenes[0];
    let raw =
        SceneGenerator::indoor(IndoorSceneConfig::with_points(scene.points)).generate(scene.seed);
    let view = set.view("pointnet", &raw, &scene.id);
    let tensors = CloudTensors::from_cloud(&view);

    let a_cfg = AttackConfig::non_targeted(cfg.steps);
    let plan = AttackPlan::build(model, &tensors, &a_cfg);
    let mut rng =
        StdRng::seed_from_u64(stable_seed(&["attack", "non_targeted", "pointnet", &scene.id]));
    let result = AttackSession::new(a_cfg).plan(&plan).run_with_rng(model, &tensors, &mut rng);
    let adv = apply_adversarial_colors(&view, &result.adversarial_colors);

    let identity = DefensePipeline::parse("identity").unwrap();
    let mut cell_rng = StdRng::seed_from_u64(stable_seed(&[
        "cell",
        "non_targeted",
        "identity",
        "pointnet",
        &scene.id,
    ]));
    let defended = identity.apply(&adv, &mut cell_rng);
    let defended_tensors = CloudTensors::from_cloud(&defended);
    let preds = colper_repro::models::predict(model, &defended_tensors, &mut cell_rng);
    let mut cm = ConfusionMatrix::new(defended_tensors.num_classes);
    cm.update(&preds, &defended_tensors.labels);

    assert_eq!(
        cm.accuracy().to_bits(),
        cell.scene_accuracies[0].to_bits(),
        "standalone replay must be bit-identical to the matrix cell"
    );
}
