//! Physical-realizability experiment: does the digital attack survive
//! the print-and-rescan pipeline the paper's sticker deployment implies?
//!
//! For each degradation severity the harness measures the victim's
//! accuracy on (a) the clean cloud through the pipeline, (b) the plain
//! COLPER sample through the pipeline, and (c) an EoT-hardened COLPER
//! sample through the pipeline.

use crate::{acc_miou, parallel_map, ModelZoo};
use colper_attack::physical::{eot_config, survival, PhysicalModel};
use colper_attack::{AttackConfig, AttackSession};
use colper_models::CloudTensors;
use colper_scene::normalize;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// One severity row.
#[derive(Debug, Clone)]
pub struct PhysicalRow {
    /// Severity label.
    pub condition: String,
    /// Mean clean accuracy through the pipeline.
    pub clean_acc: f32,
    /// Mean plain-attack accuracy through the pipeline (digital attack,
    /// physical replay).
    pub plain_attack_acc: f32,
    /// Mean EoT-hardened attack accuracy through the pipeline.
    pub robust_attack_acc: f32,
    /// Mean digital (no degradation) accuracy of the plain attack, for
    /// reference.
    pub digital_attack_acc: f32,
}

/// The physical-survival results.
#[derive(Debug, Clone)]
pub struct PhysicalReport {
    /// One row per degradation severity.
    pub rows: Vec<PhysicalRow>,
    /// Samples per row.
    pub samples: usize,
}

/// Runs the experiment on PointNet++.
pub fn run(zoo: &ModelZoo) -> PhysicalReport {
    let model = &zoo.pointnet;
    let steps = zoo.config.attack_steps;
    let n = zoo.config.eval_samples.clamp(2, 4);
    let pn = zoo.prepared_indoor(normalize::pointnet_view);
    let samples: Vec<CloudTensors> = pn.eval[..n.min(pn.eval.len())].to_vec();

    let severities = [
        ("ideal (8-bit, no jitter)", PhysicalModel::ideal()),
        (
            "mild (6-bit, ±10%, σ=0.01)",
            PhysicalModel { print_bits: 6, lighting_jitter: 0.10, sensor_noise: 0.01 },
        ),
        ("default (5-bit, ±15%, σ=0.02)", PhysicalModel::default()),
        (
            "harsh (4-bit, ±25%, σ=0.05)",
            PhysicalModel { print_bits: 4, lighting_jitter: 0.25, sensor_noise: 0.05 },
        ),
    ];

    let mut rows = Vec::new();
    for (label, pm) in severities {
        let outcomes = parallel_map(&zoo.runtime, &samples, |i, t| {
            let mut rng = StdRng::seed_from_u64(95_000 + i as u64);

            // Clean accuracy through the pipeline.
            let degraded_clean = pm.degrade(&t.colors, &mut rng);
            let mut tc = t.clone();
            tc.colors = degraded_clean;
            let preds = colper_models::predict(model, &tc, &mut rng);
            let (clean_acc, _) = acc_miou(&preds, &t.labels, 13);

            // Plain attack, then physical replay.
            let plain = AttackSession::new(AttackConfig::non_targeted(steps))
                .run_with_rng(model, t, &mut rng);
            let plain_report = survival(model, t, &plain.adversarial_colors, &pm, 4, &mut rng);

            // EoT-hardened attack, then physical replay.
            let robust = AttackSession::new(eot_config(AttackConfig::non_targeted(steps), &pm, 3))
                .run_with_rng(model, t, &mut rng);
            let robust_report = survival(model, t, &robust.adversarial_colors, &pm, 4, &mut rng);

            (clean_acc, plain_report, robust_report)
        });
        let len = outcomes.len() as f32;
        rows.push(PhysicalRow {
            condition: label.to_string(),
            clean_acc: outcomes.iter().map(|o| o.0).sum::<f32>() / len,
            plain_attack_acc: outcomes.iter().map(|o| o.1.physical_accuracy).sum::<f32>() / len,
            robust_attack_acc: outcomes.iter().map(|o| o.2.physical_accuracy).sum::<f32>() / len,
            digital_attack_acc: outcomes.iter().map(|o| o.1.digital_accuracy).sum::<f32>() / len,
        });
    }
    PhysicalReport { rows, samples: samples.len() }
}

impl fmt::Display for PhysicalReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Physical realizability: attack survival through print/lighting/sensor pipeline ==",
        )?;
        writeln!(f, "({} samples; victim accuracy, lower = attack survives)", self.samples)?;
        writeln!(
            f,
            "{:<30} {:>9} {:>12} {:>13} {:>14}",
            "condition", "clean", "digital adv", "physical adv", "EoT-hard adv"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<30} {:>8.2}% {:>11.2}% {:>12.2}% {:>13.2}%",
                r.condition,
                r.clean_acc * 100.0,
                r.digital_attack_acc * 100.0,
                r.plain_attack_acc * 100.0,
                r.robust_attack_acc * 100.0
            )?;
        }
        Ok(())
    }
}
