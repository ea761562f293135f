//! **Table 1**: non-targeted COLPER on S3DIS-like data against all three
//! models, compared to a random-noise baseline matched on L2.

use crate::{acc_miou, parallel_map, BenchConfig, ModelZoo};
use colper_attack::{AttackConfig, AttackSession, Objective};
use colper_metrics::Summary;
use colper_models::{CloudTensors, SegmentationModel};
use colper_runtime::Runtime;
use colper_scene::normalize;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Per-sample outcome, kept for the distribution figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleOutcome {
    /// COLPER perturbation L2.
    pub l2: f32,
    /// Clean accuracy / aIoU.
    pub clean_acc: f32,
    /// Clean aIoU.
    pub clean_miou: f32,
    /// Post-COLPER accuracy.
    pub adv_acc: f32,
    /// Post-COLPER aIoU.
    pub adv_miou: f32,
    /// Matched-noise baseline accuracy.
    pub base_acc: f32,
    /// Matched-noise baseline aIoU.
    pub base_miou: f32,
}

/// One model's row block of the table.
#[derive(Debug, Clone)]
pub struct ModelRows {
    /// Display name of the victim.
    pub model: String,
    /// Mean clean accuracy across samples.
    pub clean_acc: f32,
    /// Mean clean aIoU across samples.
    pub clean_miou: f32,
    /// Per-sample outcomes.
    pub samples: Vec<SampleOutcome>,
}

impl ModelRows {
    /// Summary of COLPER post-attack accuracy across samples.
    pub fn adv_acc(&self) -> Summary {
        Summary::of(&self.samples.iter().map(|s| s.adv_acc).collect::<Vec<_>>())
    }

    /// Summary of perturbation L2 across samples.
    pub fn l2(&self) -> Summary {
        Summary::of(&self.samples.iter().map(|s| s.l2).collect::<Vec<_>>())
    }
}

/// The whole table.
#[derive(Debug, Clone)]
pub struct Table1Report {
    /// One block per victim model.
    pub rows: Vec<ModelRows>,
}

/// Attacks every sample of one model (parallel across samples) and
/// reports per-sample outcomes.
pub fn attack_samples<M: SegmentationModel>(
    model: &M,
    samples: &[CloudTensors],
    steps: usize,
    runtime: &Runtime,
) -> Vec<SampleOutcome> {
    let classes = model.num_classes();
    parallel_map(runtime, samples, |i, t| {
        let mut rng = StdRng::seed_from_u64(9000 + i as u64);
        let clean_preds = colper_models::predict(model, t, &mut rng);
        let (clean_acc, clean_miou) = acc_miou(&clean_preds, &t.labels, classes);

        let attack = AttackSession::new(AttackConfig::non_targeted(steps));
        let result = attack.run_with_rng(model, t, &mut rng);
        let (adv_acc, adv_miou) = acc_miou(&result.predictions, &t.labels, classes);

        let noise = AttackConfig {
            objective: Objective::NoiseBaseline { l2_sq: result.l2_sq },
            ..AttackConfig::non_targeted(steps)
        };
        let baseline = AttackSession::new(noise).run_with_rng(model, t, &mut rng);
        let (base_acc, base_miou) = acc_miou(&baseline.predictions, &t.labels, classes);

        SampleOutcome {
            l2: result.l2(),
            clean_acc,
            clean_miou,
            adv_acc,
            adv_miou,
            base_acc,
            base_miou,
        }
    })
}

/// Runs the full Table 1 experiment.
pub fn run(zoo: &ModelZoo) -> Table1Report {
    let cfg: &BenchConfig = &zoo.config;
    let n = cfg.eval_samples;
    let mut rows = Vec::new();

    let pn = zoo.prepared_indoor(normalize::pointnet_view);
    rows.push(model_rows(&zoo.pointnet, &pn.eval[..n.min(pn.eval.len())], cfg, &zoo.runtime));
    let rg = zoo.prepared_indoor(normalize::resgcn_view);
    rows.push(model_rows(&zoo.resgcn, &rg.eval[..n.min(rg.eval.len())], cfg, &zoo.runtime));
    let rl = zoo.prepared_indoor(randla_indoor_view);
    rows.push(model_rows(&zoo.randla_indoor, &rl.eval[..n.min(rl.eval.len())], cfg, &zoo.runtime));

    Table1Report { rows }
}

fn randla_indoor_view(c: &colper_scene::PointCloud) -> colper_scene::PointCloud {
    // Deterministic RandLA-style re-sampling per cloud.
    let mut rng = StdRng::seed_from_u64(c.len() as u64 ^ 0x0AD1A);
    normalize::randla_view(c, c.len(), &mut rng)
}

fn model_rows<M: SegmentationModel>(
    model: &M,
    samples: &[CloudTensors],
    cfg: &BenchConfig,
    runtime: &Runtime,
) -> ModelRows {
    let outcomes = attack_samples(model, samples, cfg.attack_steps, runtime);
    let clean_acc = outcomes.iter().map(|s| s.clean_acc).sum::<f32>() / outcomes.len() as f32;
    let clean_miou = outcomes.iter().map(|s| s.clean_miou).sum::<f32>() / outcomes.len() as f32;
    ModelRows { model: model.name().to_string(), clean_acc, clean_miou, samples: outcomes }
}

impl fmt::Display for Table1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== Table 1: non-targeted attack on S3DIS-like data ==")?;
        writeln!(
            f,
            "{:<12} {:<8} | {:>7} {:>8} {:>8} | {:>8} {:>8}",
            "model", "case", "L2", "acc", "aIoU", "base acc", "base IoU"
        )?;
        for row in &self.rows {
            // Order samples by post-attack accuracy: best for the
            // attacker first, as in the paper's best/average/worst rows.
            let mut by_acc = row.samples.clone();
            by_acc.sort_by(|a, b| a.adv_acc.partial_cmp(&b.adv_acc).unwrap());
            let best = by_acc.first();
            let worst = by_acc.last();
            let avg_of = |get: fn(&SampleOutcome) -> f32| {
                row.samples.iter().map(get).sum::<f32>() / row.samples.len().max(1) as f32
            };
            writeln!(
                f,
                "{:<12} clean    | {:>7} {:>7.2}% {:>7.2}% | {:>8} {:>8}",
                row.model,
                "-",
                row.clean_acc * 100.0,
                row.clean_miou * 100.0,
                "-",
                "-"
            )?;
            if let Some(b) = best {
                writeln!(
                    f,
                    "{:<12} best     | {:>7.2} {:>7.2}% {:>7.2}% | {:>7.2}% {:>7.2}%",
                    row.model,
                    b.l2,
                    b.adv_acc * 100.0,
                    b.adv_miou * 100.0,
                    b.base_acc * 100.0,
                    b.base_miou * 100.0
                )?;
            }
            writeln!(
                f,
                "{:<12} average  | {:>7.2} {:>7.2}% {:>7.2}% | {:>7.2}% {:>7.2}%",
                row.model,
                avg_of(|s| s.l2),
                avg_of(|s| s.adv_acc) * 100.0,
                avg_of(|s| s.adv_miou) * 100.0,
                avg_of(|s| s.base_acc) * 100.0,
                avg_of(|s| s.base_miou) * 100.0
            )?;
            if let Some(w) = worst {
                writeln!(
                    f,
                    "{:<12} worst    | {:>7.2} {:>7.2}% {:>7.2}% | {:>7.2}% {:>7.2}%",
                    row.model,
                    w.l2,
                    w.adv_acc * 100.0,
                    w.adv_miou * 100.0,
                    w.base_acc * 100.0,
                    w.base_miou * 100.0
                )?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}
