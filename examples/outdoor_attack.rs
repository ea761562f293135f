//! Outdoor scenario (the paper's Semantic3D experiments): attack
//! RandLA-Net on synthetic terrestrial scans — non-targeted over the
//! whole scene, then targeted "hide the car as vegetation" (Table 4).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example outdoor_attack
//! ```

use colper_repro::attack::{AttackConfig, AttackSession, Objective};
use colper_repro::metrics::success_rate;
use colper_repro::models::{
    evaluate_on, train_model, CloudTensors, RandLaNet, RandLaNetConfig, TrainConfig,
};
use colper_repro::scene::{normalize, OutdoorClass, Semantic3dLikeDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(29);
    let dataset = Semantic3dLikeDataset::small();

    println!("training RandLA-Net on outdoor scenes...");
    let train: Vec<CloudTensors> = dataset
        .train_scenes()
        .iter()
        .take(10)
        .map(|c| CloudTensors::from_cloud(&normalize::randla_view(c, c.len(), &mut rng)))
        .collect();
    let mut model = RandLaNet::new(RandLaNetConfig::small(8), &mut rng);
    let report = train_model(
        &mut model,
        &train,
        &TrainConfig { epochs: 12, lr: 0.01, target_accuracy: 0.93 },
        &mut rng,
    );
    println!("  trained: {:.1}% accuracy", report.final_accuracy * 100.0);

    // Pick an evaluation scene containing a car.
    let scene = dataset
        .eval_scenes()
        .into_iter()
        .map(|c| CloudTensors::from_cloud(&normalize::randla_view(&c, c.len(), &mut rng)))
        .find(|t| t.labels.iter().filter(|&&l| l == OutdoorClass::Car.label()).count() >= 15)
        .expect("an evaluation scene with a car");

    let clean_acc = evaluate_on(&model, &scene, &mut rng);
    println!("clean accuracy on evaluation scene: {:.1}%", clean_acc * 100.0);

    // Non-targeted attack over the whole scene, plus the matched-L2
    // noise baseline of Table 3.
    println!("running non-targeted COLPER...");
    let outcome = AttackSession::new(AttackConfig::non_targeted(80))
        .seed(29)
        .run(&model, std::slice::from_ref(&scene));
    let result = &outcome.items[0].result;
    let noise = AttackConfig {
        objective: Objective::NoiseBaseline { l2_sq: result.l2_sq },
        ..AttackConfig::non_targeted(80)
    };
    let baseline = AttackSession::new(noise).run_with_rng(&model, &scene, &mut rng);
    println!("  COLPER:   L2 {:.2}, accuracy {:.1}%", result.l2(), result.success_metric * 100.0);
    println!(
        "  baseline: L2 {:.2}, accuracy {:.1}% (same noise budget, no optimization)",
        baseline.l2_sq.sqrt(),
        baseline.success_metric * 100.0
    );

    // Targeted: car -> high vegetation.
    let source = OutdoorClass::Car;
    let target = OutdoorClass::HighVegetation;
    println!("running targeted COLPER: {source} -> {target}...");
    let car_mask: Vec<bool> = scene.labels.iter().map(|&l| l == source.label()).collect();
    let outcome = AttackSession::new(AttackConfig::targeted(100, target.label()))
        .mask_source_class(source.label())
        .seed(30)
        .run(&model, std::slice::from_ref(&scene));
    let result = &outcome.items[0].result;
    let targets = vec![target.label(); scene.len()];
    println!(
        "  SR: {:.1}% of {} car points now predicted as {target} (L2 {:.2})",
        success_rate(&result.predictions, &targets, &car_mask) * 100.0,
        result.attacked_points,
        result.l2()
    );
}
