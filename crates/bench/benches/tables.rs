//! Criterion benches timing reduced end-to-end table pipelines: one
//! sample, short attack, untrained-but-architecturally-faithful models.
//! These track the cost of regenerating each paper artefact rather than
//! its numbers (use the `table*` binaries for the numbers).

use colper_attack::{
    AttackConfig, AttackSession, L0Attack, L0AttackConfig, Objective, PerturbTarget,
};
use colper_models::{CloudTensors, PointNet2, PointNet2Config, ResGcn, ResGcnConfig};
use colper_scene::{normalize, IndoorClass, IndoorSceneConfig, RoomKind, SceneGenerator};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

const POINTS: usize = 256;
const STEPS: usize = 8;

fn office(view: fn(&colper_scene::PointCloud) -> colper_scene::PointCloud) -> CloudTensors {
    let cfg = IndoorSceneConfig {
        room_kind: Some(RoomKind::Office),
        ..IndoorSceneConfig::with_points(POINTS)
    };
    CloudTensors::from_cloud(&view(&SceneGenerator::indoor(cfg).generate(5)))
}

fn bench_table_pipelines(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let pointnet = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
    let resgcn = ResGcn::new(ResGcnConfig::tiny(13), &mut rng);
    let pn_t = office(normalize::pointnet_view);
    let rg_t = office(normalize::resgcn_view);

    let mut group = c.benchmark_group("table_pipelines");
    group.sample_size(10);

    group.bench_function("table1_cell_nontargeted_plus_baseline", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            let attack = AttackSession::new(AttackConfig::non_targeted(STEPS));
            let result = attack.run_with_rng(&pointnet, &pn_t, &mut rng);
            let noise = AttackConfig {
                objective: Objective::NoiseBaseline { l2_sq: result.l2_sq },
                ..AttackConfig::non_targeted(STEPS)
            };
            let baseline = AttackSession::new(noise).run_with_rng(&pointnet, &pn_t, &mut rng);
            (result.success_metric, baseline.success_metric)
        });
    });

    group.bench_function("table2_cell_targeted_board_to_wall", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(2);
            let mask: Vec<bool> =
                pn_t.labels.iter().map(|&l| l == IndoorClass::Board.label()).collect();
            if !mask.iter().any(|&m| m) {
                return 0.0;
            }
            let attack =
                AttackSession::new(AttackConfig::targeted(STEPS, IndoorClass::Wall.label()))
                    .mask_source_class(IndoorClass::Board.label());
            attack.run_with_rng(&pointnet, &pn_t, &mut rng).success_metric
        });
    });

    group.bench_function("table7_cell_l0_color", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut cfg = L0AttackConfig::new(PerturbTarget::Color);
            cfg.steps_per_round = 3;
            cfg.restore_per_round = POINTS / 4;
            L0Attack::new(cfg).run(&resgcn, &rg_t, &mut rng).accuracy
        });
    });

    group.bench_function("table8_cell_transfer_eq10", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(4);
            let cloud = SceneGenerator::indoor(IndoorSceneConfig::with_points(POINTS)).generate(6);
            let view = normalize::resgcn_view(&cloud);
            let t = CloudTensors::from_cloud(&view);
            let attack = AttackSession::new(AttackConfig::non_targeted(STEPS));
            let result = attack.run_with_rng(&resgcn, &t, &mut rng);
            let adv = colper_attack::apply_adversarial_colors(&view, &result.adversarial_colors);
            let transferred = normalize::eq10_transform(&adv);
            colper_attack::evaluate_cloud(&pointnet, &transferred, &mut rng).accuracy
        });
    });

    group.finish();
}

criterion_group!(benches, bench_table_pipelines);
criterion_main!(benches);
