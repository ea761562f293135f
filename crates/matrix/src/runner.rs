//! The deterministic two-phase matrix runner.
//!
//! **Phase 1 — attack units.** One optimization per `(attack, model,
//! scene)` for white-box attacks, one per `(attack, scene)` on the
//! surrogate for transfer attacks. Units are scheduled over the shared
//! runtime as stealable tasks; within a unit, the scenes share a
//! [`WarmSeat`] (tape reuse) and each scene's [`AttackPlan`] serves the
//! clean prediction and every attack step.
//!
//! **Phase 2 — defense cells.** The frozen adversarial clouds are
//! replayed through every defense pipeline and re-evaluated; clean
//! scenes take the same trip to price each defense's cost.
//!
//! Every RNG seed derives from [`crate::stable_seed`] over the cell's
//! string ids — never from scheduling order — so the report is
//! bit-identical at any thread count, and any single cell can be
//! reproduced standalone by an [`AttackSession`] with the same seed.

use crate::registry::{AttackEntry, Registry};
use crate::report::{MatrixCell, MatrixReport, ModelSummary, TransferSummary};
use crate::{stable_seed, ModelSet};
use colper_attack::{apply_adversarial_colors, AttackConfig, AttackPlan, AttackSession, WarmSeat};
use colper_defense::Defense;
use colper_metrics::ConfusionMatrix;
use colper_models::{CloudTensors, SegmentationModel};
use colper_runtime::Runtime;
use colper_scene::{IndoorSceneConfig, PointCloud, SceneGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Scale knobs of a matrix run.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Scale label carried into the report (`"quick"` / `"standard"`).
    pub scale: &'static str,
    /// Points per evaluation scene.
    pub points: usize,
    /// COLPER iterations per optimization.
    pub steps: usize,
    /// Points per training room.
    pub train_points: usize,
    /// Training rooms per S3DIS-like area.
    pub train_rooms_per_area: usize,
    /// Training epoch cap.
    pub train_epochs: usize,
    /// `small` model configs instead of `tiny`.
    pub small_models: bool,
}

impl MatrixConfig {
    /// CI smoke scale: seconds, tiny models.
    pub fn quick() -> Self {
        Self {
            scale: "quick",
            points: 128,
            steps: 12,
            train_points: 128,
            train_rooms_per_area: 2,
            train_epochs: 6,
            small_models: false,
        }
    }

    /// Default (CPU-minutes) scale.
    pub fn standard() -> Self {
        Self {
            scale: "standard",
            points: 256,
            steps: 60,
            train_points: 256,
            train_rooms_per_area: 4,
            train_epochs: 12,
            small_models: true,
        }
    }
}

/// One phase-1 work item.
enum Unit {
    /// Optimize `attack` directly against `model` on every scene.
    WhiteBox { attack: usize, model: usize },
    /// Optimize `attack` once per scene on its surrogate; victims
    /// replay the colors later.
    Transfer { attack: usize },
}

/// A phase-1 result: per-scene adversarial clouds.
enum UnitOut {
    /// Adversarial clouds in the victim's own view space.
    WhiteBox { attack: usize, model: usize, advs: Vec<PointCloud> },
    /// Adversarial clouds in raw scene space (surrogate view preserves
    /// point order, so the colors map straight back).
    Transfer { attack: usize, raw_advs: Vec<PointCloud> },
}

/// Runs the full cross-product and assembles the ranked report.
///
/// Validates the registry, trains the [`ModelSet`], then executes both
/// phases on `runtime` (installed as the ambient pool for the duration,
/// so attack internals parallelize on it too).
pub fn run(
    registry: &Registry,
    cfg: &MatrixConfig,
    runtime: &Runtime,
) -> Result<MatrixReport, String> {
    registry.validate()?;
    Ok(runtime.install(|| run_validated(registry, cfg, runtime)))
}

fn run_validated(registry: &Registry, cfg: &MatrixConfig, runtime: &Runtime) -> MatrixReport {
    eprintln!("matrix: training {} models ({} scale)...", registry.models.len(), cfg.scale);
    let set = ModelSet::train(&registry.models, cfg);

    let raw_scenes: Vec<PointCloud> = registry
        .scenes
        .iter()
        .map(|s| SceneGenerator::indoor(IndoorSceneConfig::with_points(s.points)).generate(s.seed))
        .collect();

    // Each model's clean view of each scene, shared by both phases.
    // RandLA's resampling seed is keyed on (model, scene), so viewing
    // the adversarial counterpart later selects the same points.
    let clean_views: Vec<Vec<PointCloud>> = registry
        .models
        .iter()
        .map(|m| {
            registry
                .scenes
                .iter()
                .zip(&raw_scenes)
                .map(|(s, raw)| set.view(m, raw, &s.id))
                .collect()
        })
        .collect();

    // ---- Phase 1: attack units.
    let mut units = Vec::new();
    for (ai, attack) in registry.attacks.iter().enumerate() {
        if attack.is_transfer() {
            units.push(Unit::Transfer { attack: ai });
        } else {
            for mi in 0..registry.models.len() {
                units.push(Unit::WhiteBox { attack: ai, model: mi });
            }
        }
    }
    eprintln!(
        "matrix: phase 1 — {} attack units over {} scenes...",
        units.len(),
        registry.scenes.len()
    );
    let unit_outs: Vec<UnitOut> = runtime.par_map_grained(units.len(), 1, |ui| match units[ui] {
        Unit::WhiteBox { attack, model } => UnitOut::WhiteBox {
            attack,
            model,
            advs: run_white_box_unit(registry, cfg, &set, &clean_views, attack, model),
        },
        Unit::Transfer { attack } => UnitOut::Transfer {
            attack,
            raw_advs: run_transfer_unit(registry, cfg, &set, &clean_views, &raw_scenes, attack),
        },
    });

    // Adversarial clouds per (attack, model, scene), in the victim's
    // view space. Transfer units fan out to every victim here.
    let mut adv_views: Vec<Vec<Option<Vec<PointCloud>>>> =
        vec![vec![None; registry.models.len()]; registry.attacks.len()];
    for out in unit_outs {
        match out {
            UnitOut::WhiteBox { attack, model, advs } => {
                adv_views[attack][model] = Some(advs);
            }
            UnitOut::Transfer { attack, raw_advs } => {
                for (mi, m) in registry.models.iter().enumerate() {
                    let views = registry
                        .scenes
                        .iter()
                        .zip(&raw_advs)
                        .map(|(s, raw_adv)| set.view(m, raw_adv, &s.id))
                        .collect();
                    adv_views[attack][mi] = Some(views);
                }
            }
        }
    }

    // ---- Phase 2: defended clean references, then the cells.
    eprintln!(
        "matrix: phase 2 — {} cells...",
        registry.attacks.len() * registry.defenses.len() * registry.models.len()
    );
    let clean_pairs: Vec<(usize, usize)> = (0..registry.defenses.len())
        .flat_map(|di| (0..registry.models.len()).map(move |mi| (di, mi)))
        .collect();
    let clean_accs: Vec<Vec<f32>> = runtime.par_map_grained(clean_pairs.len(), 1, |pi| {
        let (di, mi) = clean_pairs[pi];
        let defense = &registry.defenses[di];
        let model = set.get(&registry.models[mi]);
        registry
            .scenes
            .iter()
            .enumerate()
            .map(|(si, scene)| {
                let seed = stable_seed(&["clean", &defense.id(), &registry.models[mi], &scene.id]);
                let mut rng = StdRng::seed_from_u64(seed);
                defended_accuracy(model, defense, &clean_views[mi][si], &mut rng)
            })
            .collect()
    });
    let clean_acc_of = |di: usize, mi: usize| -> &Vec<f32> {
        &clean_accs[clean_pairs.iter().position(|&p| p == (di, mi)).expect("pair enumerated")]
    };

    let cell_keys: Vec<(usize, usize, usize)> = (0..registry.attacks.len())
        .flat_map(|ai| {
            (0..registry.defenses.len())
                .flat_map(move |di| (0..registry.models.len()).map(move |mi| (ai, di, mi)))
        })
        .collect();
    let cells: Vec<MatrixCell> = runtime.par_map_grained(cell_keys.len(), 1, |ci| {
        let (ai, di, mi) = cell_keys[ci];
        let attack = &registry.attacks[ai];
        let defense = &registry.defenses[di];
        let model = set.get(&registry.models[mi]);
        let advs = adv_views[ai][mi].as_ref().expect("phase 1 covered every (attack, model)");
        let scene_accuracies: Vec<f32> = registry
            .scenes
            .iter()
            .enumerate()
            .map(|(si, scene)| {
                let seed = stable_seed(&[
                    "cell",
                    &attack.id,
                    &defense.id(),
                    &registry.models[mi],
                    &scene.id,
                ]);
                let mut rng = StdRng::seed_from_u64(seed);
                defended_accuracy(model, defense, &advs[si], &mut rng)
            })
            .collect();
        colper_obs::counters::MATRIX_CELLS.incr();
        let clean = mean(clean_acc_of(di, mi));
        let adv = mean(&scene_accuracies);
        MatrixCell {
            attack: attack.id.clone(),
            defense: defense.id(),
            model: registry.models[mi].clone(),
            clean_accuracy: clean,
            adversarial_accuracy: adv,
            accuracy_drop: clean - adv,
            scene_accuracies,
        }
    });

    // Undefended clean reference per model = identity-defense clean.
    let identity = registry
        .defenses
        .iter()
        .position(|d| d.id() == "identity")
        .expect("validate() requires identity");
    let models: Vec<ModelSummary> = registry
        .models
        .iter()
        .enumerate()
        .map(|(mi, id)| ModelSummary {
            id: id.clone(),
            clean_accuracy: mean(clean_acc_of(identity, mi)),
        })
        .collect();

    // Transfer rows: identity-defense cells of every victim other than
    // the surrogate.
    let transfer: Vec<TransferSummary> = registry
        .attacks
        .iter()
        .filter(|a| a.is_transfer())
        .flat_map(|a| {
            let surrogate = a.surrogate.clone().expect("validated");
            cells
                .iter()
                .filter(|c| c.attack == a.id && c.defense == "identity" && c.model != surrogate)
                .map(|c| TransferSummary {
                    attack: a.id.clone(),
                    surrogate: surrogate.clone(),
                    victim: c.model.clone(),
                    clean_accuracy: c.clean_accuracy,
                    adversarial_accuracy: c.adversarial_accuracy,
                    accuracy_drop: c.accuracy_drop,
                })
                .collect::<Vec<_>>()
        })
        .collect();

    MatrixReport::assemble(
        cfg.scale,
        cfg.points,
        cfg.steps,
        registry.scenes.iter().map(|s| (s.id.clone(), s.seed, s.points)).collect(),
        models,
        cells,
        transfer,
    )
}

/// The attack configuration an entry optimizes under.
fn attack_config(entry: &AttackEntry, cfg: &MatrixConfig) -> AttackConfig {
    AttackConfig { objective: entry.objective.clone(), ..AttackConfig::non_targeted(cfg.steps) }
}

/// Phase-1 white-box unit: optimize one attack against one model over
/// every scene, sharing a warm seat; per-scene plans serve every step.
fn run_white_box_unit(
    registry: &Registry,
    cfg: &MatrixConfig,
    set: &ModelSet,
    clean_views: &[Vec<PointCloud>],
    ai: usize,
    mi: usize,
) -> Vec<PointCloud> {
    let entry = &registry.attacks[ai];
    let model_id = &registry.models[mi];
    let model = set.get(model_id);
    let mut seat = WarmSeat::new();
    registry
        .scenes
        .iter()
        .enumerate()
        .map(|(si, scene)| {
            let view = &clean_views[mi][si];
            let tensors = CloudTensors::from_cloud(view);
            let a_cfg = attack_config(entry, cfg);
            let plan = AttackPlan::build(model, &tensors, &a_cfg);
            let seed = stable_seed(&["attack", &entry.id, model_id, &scene.id]);
            let mut rng = StdRng::seed_from_u64(seed);
            let result = AttackSession::new(a_cfg)
                .plan(&plan)
                .run_with_rng_seated(model, &tensors, &mut rng, &mut seat);
            colper_obs::counters::MATRIX_ATTACK_RUNS.incr();
            apply_adversarial_colors(view, &result.adversarial_colors)
        })
        .collect()
}

/// Phase-1 transfer unit: optimize on the surrogate (penalized by the
/// second network's hinge) and write the colors back onto the raw
/// scene — the surrogate view preserves point order, so the adversarial
/// color block is scene-order too.
fn run_transfer_unit(
    registry: &Registry,
    cfg: &MatrixConfig,
    set: &ModelSet,
    clean_views: &[Vec<PointCloud>],
    raw_scenes: &[PointCloud],
    ai: usize,
) -> Vec<PointCloud> {
    let entry = &registry.attacks[ai];
    let surrogate_id = entry.surrogate.as_deref().expect("validated");
    let penalty_id = entry.penalty.as_deref().expect("validated");
    let si_model = registry.models.iter().position(|m| m == surrogate_id).expect("validated");
    let pi_model = registry.models.iter().position(|m| m == penalty_id).expect("validated");
    let surrogate = set.get(surrogate_id);
    let penalty = set.get(penalty_id);
    let mut seat = WarmSeat::new();
    registry
        .scenes
        .iter()
        .enumerate()
        .map(|(si, scene)| {
            let view = &clean_views[si_model][si];
            let tensors = CloudTensors::from_cloud(view);
            let penalty_tensors = CloudTensors::from_cloud(&clean_views[pi_model][si]);
            let a_cfg = attack_config(entry, cfg);
            let plan = AttackPlan::build(surrogate, &tensors, &a_cfg);
            let seed = stable_seed(&["attack", &entry.id, surrogate_id, &scene.id]);
            let mut rng = StdRng::seed_from_u64(seed);
            let result = AttackSession::new(a_cfg)
                .plan(&plan)
                .penalty_model(penalty)
                .penalty_view(&penalty_tensors)
                .run_with_rng_seated(surrogate, &tensors, &mut rng, &mut seat);
            colper_obs::counters::MATRIX_ATTACK_RUNS.incr();
            apply_adversarial_colors(&raw_scenes[si], &result.adversarial_colors)
        })
        .collect()
}

/// Runs a cloud through a defense pipeline and scores the model on what
/// comes out. Point-dropping defenses shrink the cloud; accuracy is
/// against the surviving points' labels.
fn defended_accuracy(
    model: &dyn SegmentationModel,
    defense: &(impl Defense + ?Sized),
    cloud: &PointCloud,
    rng: &mut StdRng,
) -> f32 {
    let defended = defense.apply(cloud, rng);
    let tensors = CloudTensors::from_cloud(&defended);
    let predictions = colper_models::predict(model, &tensors, rng);
    let mut cm = ConfusionMatrix::new(tensors.num_classes);
    cm.update(&predictions, &tensors.labels);
    cm.accuracy()
}

fn mean(values: &[f32]) -> f32 {
    if values.is_empty() {
        f32::NAN
    } else {
        values.iter().sum::<f32>() / values.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SceneEntry;
    use colper_attack::Objective;

    /// A minimal registry that still exercises every unit kind.
    fn tiny_registry() -> Registry {
        let parse = |s: &str| colper_defense::DefensePipeline::parse(s).unwrap();
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

    fn tiny_cfg() -> MatrixConfig {
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
    fn matrix_is_bit_identical_across_thread_counts() {
        let registry = tiny_registry();
        let cfg = tiny_cfg();
        let one = run(&registry, &cfg, &Runtime::new(1)).unwrap().to_json();
        let four = run(&registry, &cfg, &Runtime::new(4)).unwrap().to_json();
        assert_eq!(one, four);
    }

    #[test]
    fn report_covers_the_full_cross_product() {
        let registry = tiny_registry();
        let report = run(&registry, &tiny_cfg(), &Runtime::new(2)).unwrap();
        assert_eq!(report.cells.len(), 3 * 2 * 2);
        assert_eq!(report.attack_ranking.len(), 3);
        assert_eq!(report.defense_ranking.len(), 2);
        assert_eq!(report.models.len(), 2);
        // Transfer reports the one victim that is not the surrogate.
        assert_eq!(report.transfer.len(), 1);
        assert_eq!(report.transfer[0].surrogate, "pointnet");
        assert_eq!(report.transfer[0].victim, "resgcn");
        for c in &report.cells {
            assert!(c.clean_accuracy.is_finite());
            assert!(c.adversarial_accuracy.is_finite());
        }
    }

    #[test]
    fn invalid_registry_is_rejected_before_training() {
        let mut registry = tiny_registry();
        registry.defenses.clear();
        assert!(run(&registry, &tiny_cfg(), &Runtime::new(1)).is_err());
    }
}
