//! `attack_4096`: COLPER on fresh 4096-point indoor blocks against the
//! three trained victims, each attack followed by the defended
//! re-evaluation. A closed loop with one caller on a 2-thread runtime;
//! victims rotate op by op so every victim's samples span the same
//! host-noise phases.

use crate::checks;
use crate::report::{peak_rss_mib, Metric, Outcome};
use crate::stats::{median, mix};
use crate::trace::Tracer;
use crate::Options;
use colper_repro::attack::{
    apply_adversarial_colors, AttackConfig, AttackPlan, AttackSession, WarmSeat,
};
use colper_repro::defense::{Defense, DefensePipeline};
use colper_repro::models::{
    bind_input_planned, predict_planned, train_model, CloudTensors, ColorBinding, PointNet2,
    PointNet2Config, RandLaNet, RandLaNetConfig, ResGcn, ResGcnConfig, SegmentationModel,
    TrainConfig,
};
use colper_repro::nn::Forward;
use colper_repro::runtime::Runtime;
use colper_repro::scene::{
    normalize, IndoorSceneConfig, PointCloud, S3disLikeDataset, SceneGenerator,
};
use colper_repro::tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

pub const VICTIMS: [&str; 3] = ["pointnet2", "resgcn", "randla"];
pub const POINTS: usize = 4096;
pub const STEPS: usize = 20;
pub const THREADS: usize = 2;
pub const DEFENSE: &str = "quantize(4)|smooth(4)";
const CLASSES: usize = 13;
const TRAIN_ROOMS: usize = 10;
const TRAIN_POINTS: usize = 512;
const TRAIN_EPOCHS: usize = 6;
/// Set-up repetitions behind the reported `setup_s` median.
const SETUP_REPS: usize = 3;
/// Steps of the warm-up op: enough to capture and replay a schedule.
const WARMUP_STEPS: usize = 2;
/// Rounds (one op per victim) every run completes; `adv_accuracy` is the
/// mean over exactly these, so it does not depend on timing.
const MIN_ROUNDS: u64 = 4;

/// The three victims, trained in-process at fixed seeds.
pub struct Victims {
    pub pointnet2: PointNet2,
    pub resgcn: ResGcn,
    pub randla: RandLaNet,
    /// Training wall time per victim, in [`VICTIMS`] order.
    pub train_s: [f64; 3],
}

impl Victims {
    /// Trains the harness `small` victims on 10 rooms of 512 points for
    /// 6 epochs each.
    pub fn train(rt: &Runtime) -> Victims {
        let rooms: Vec<PointCloud> =
            S3disLikeDataset::new(IndoorSceneConfig::with_points(TRAIN_POINTS), 2)
                .train_rooms()
                .into_iter()
                .take(TRAIN_ROOMS)
                .collect();
        let cfg = TrainConfig { epochs: TRAIN_EPOCHS, lr: 0.01, target_accuracy: 0.95 };
        let views = |victim: usize, seed: u64| -> Vec<CloudTensors> {
            rooms
                .iter()
                .enumerate()
                .map(|(i, r)| CloudTensors::from_cloud(&view(victim, r, mix(seed, 0, i as u64))))
                .collect()
        };
        rt.install(|| {
            let mut train_s = [0.0; 3];
            let mut timed = |victim: usize, model: &mut dyn SegmentationModel, seed: u64| {
                let started = Instant::now();
                let data = views(victim, seed);
                train_model(model, &data, &cfg, &mut StdRng::seed_from_u64(seed));
                train_s[victim] = started.elapsed().as_secs_f64();
            };
            let mut pointnet2 =
                PointNet2::new(PointNet2Config::small(CLASSES), &mut StdRng::seed_from_u64(11));
            timed(0, &mut pointnet2, 11);
            let mut resgcn =
                ResGcn::new(ResGcnConfig::small(CLASSES), &mut StdRng::seed_from_u64(22));
            timed(1, &mut resgcn, 22);
            let mut randla =
                RandLaNet::new(RandLaNetConfig::small(CLASSES), &mut StdRng::seed_from_u64(33));
            timed(2, &mut randla, 33);
            Victims { pointnet2, resgcn, randla, train_s }
        })
    }

    pub fn model(&self, victim: usize) -> &dyn SegmentationModel {
        match victim {
            0 => &self.pointnet2,
            1 => &self.resgcn,
            _ => &self.randla,
        }
    }
}

/// The victim's normalized view of a cloud.
pub fn view(victim: usize, cloud: &PointCloud, seed: u64) -> PointCloud {
    match victim {
        0 => normalize::pointnet_view(cloud),
        1 => normalize::resgcn_view(cloud),
        _ => normalize::randla_view(cloud, cloud.len(), &mut StdRng::seed_from_u64(seed)),
    }
}

/// The seed of op `op`'s block: the workload's block list.
pub fn block_seed(seed: u64, op: u64) -> u64 {
    mix(seed, 1, op)
}

/// A fresh 4096-point indoor block.
pub fn block(seed: u64) -> PointCloud {
    SceneGenerator::indoor(IndoorSceneConfig::with_points(POINTS)).generate(seed)
}

fn accuracy(predictions: &[usize], labels: &[usize]) -> f64 {
    let hits = predictions.iter().zip(labels).filter(|(p, l)| p == l).count();
    hits as f64 / labels.len().max(1) as f64
}

/// What one checked op produced.
pub struct OpResult {
    pub adv_accuracy: f64,
    pub defended_accuracy: f64,
}

/// Everything an op needs besides its victim and block.
pub struct OpContext<'a> {
    pub victims: &'a Victims,
    pub runtime: &'a Runtime,
    pub defense: &'a DefensePipeline,
}

/// One op: block and view, plan, clean prediction, seated attack, and
/// the defended re-evaluation of the adversarial cloud, then the checks.
pub fn run_op(
    cx: &OpContext<'_>,
    victim: usize,
    block_seed: u64,
    steps: usize,
    seat: &mut WarmSeat,
    tracer: &mut Tracer,
) -> Result<OpResult, String> {
    let checked = steps == STEPS;
    let model = cx.victims.model(victim);
    let config = AttackConfig { record_trajectory: true, ..AttackConfig::non_targeted(steps) };
    tracer.begin("op");
    let result = cx.runtime.install(|| {
        let (cloud, tensors) = tracer.span("scene.block", || {
            let cloud = view(victim, &block(block_seed), block_seed);
            let tensors = CloudTensors::from_cloud(&cloud);
            (cloud, tensors)
        });
        let plan = tracer.span("models.plan", || AttackPlan::build(model, &tensors, &config));
        let mut rng = StdRng::seed_from_u64(mix(block_seed, 2, 0));
        let clean = tracer
            .span("models.forward", || predict_planned(model, &tensors, plan.geometry(), &mut rng));
        let attacked = tracer.span("colper.attack", || {
            AttackSession::new(config.clone())
                .runtime(cx.runtime)
                .plan(&plan)
                .run_with_rng_seated(model, &tensors, &mut rng, seat)
        });
        let defended = tracer.span("defense.reeval", || {
            let adversarial = apply_adversarial_colors(&cloud, &attacked.adversarial_colors);
            let defended = CloudTensors::from_cloud(&cx.defense.apply(&adversarial, &mut rng));
            let predictions = predict_planned(model, &defended, plan.geometry(), &mut rng);
            accuracy(&predictions, &defended.labels)
        });
        let out = OpResult {
            adv_accuracy: accuracy(&attacked.predictions, &tensors.labels),
            defended_accuracy: defended,
        };
        // A warm-up op runs too few steps to be held to the attack's
        // accuracy guarantee.
        if !checked {
            checks::colors_in_unit_cube(&attacked.adversarial_colors)?;
            return Ok(out);
        }
        // RandLA-Net samples at random on every forward, so a clean
        // prediction made apart from the attack draws differently; it is
        // held to the clean accuracy the attack measured at its first
        // iterate, under the same draw as its own adversarial accuracy.
        let (clean_accuracy, adv_accuracy) = if model.deterministic_eval() {
            (accuracy(&clean, &tensors.labels), out.adv_accuracy)
        } else {
            let first = attacked.metric_history.first().ok_or("the attack measured nothing")?;
            (f64::from(*first), f64::from(attacked.success_metric))
        };
        checks::attack_op(
            &attacked.adversarial_colors,
            clean_accuracy,
            adv_accuracy,
            attacked.steps_run,
            steps,
        )?;
        Ok(out)
    });
    tracer.end();
    result
}

/// Trains the victims and warms one seat per victim.
fn set_up(
    runtime: &Runtime,
    defense: &DefensePipeline,
    seed: u64,
) -> Result<(Victims, Vec<WarmSeat>), String> {
    let victims = Victims::train(runtime);
    let mut seats: Vec<WarmSeat> = (0..VICTIMS.len()).map(|_| WarmSeat::new()).collect();
    let cx = OpContext { victims: &victims, runtime, defense };
    let mut off = Tracer::new(false);
    for (victim, seat) in seats.iter_mut().enumerate() {
        run_op(&cx, victim, mix(seed, 3, victim as u64), WARMUP_STEPS, seat, &mut off)
            .map_err(|e| format!("warm-up op on {}: {e}", VICTIMS[victim]))?;
    }
    Ok((victims, seats))
}

pub fn run(opts: &Options, tracer: &mut Tracer) -> Result<(Outcome, Victims), String> {
    let runtime = Runtime::new(THREADS);
    let defense = DefensePipeline::parse(DEFENSE)?;
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut state = None;
    let mut train_s: [Vec<f64>; 3] = Default::default();
    for _ in 0..reps {
        drop(state.take());
        let started = Instant::now();
        let (victims, seats) = set_up(&runtime, &defense, opts.seed)?;
        setup_s.push(started.elapsed().as_secs_f64());
        for (v, t) in victims.train_s.iter().enumerate() {
            train_s[v].push(*t);
        }
        state = Some((victims, seats));
    }
    let (mut victims, mut seats) = state.expect("at least one set-up");
    for (v, ts) in train_s.iter().enumerate() {
        victims.train_s[v] = median(ts).unwrap_or(f64::NAN);
    }
    let cx = OpContext { victims: &victims, runtime: &runtime, defense: &defense };

    let mut out = Outcome::default();
    let mut times: [Vec<f64>; 3] = Default::default();
    let mut traced_times: [Vec<f64>; 3] = Default::default();
    let mut adv_first_rounds = Vec::new();
    let mut defended = Vec::new();
    let budget = opts.seconds_f64();
    let started = Instant::now();
    let mut busy_s = 0.0;
    let mut op = 0u64;
    while op < MIN_ROUNDS * 3 || !op.is_multiple_of(3) || started.elapsed().as_secs_f64() < budget {
        let victim = (op % 3) as usize;
        // Traced runs alternate traced and untraced rounds, so the
        // tracing overhead is measured under the same host phases.
        let traced = opts.trace && (op / 3).is_multiple_of(2);
        tracer.set_enabled(traced);
        tracer.set_op(op);
        let op_started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_op(&cx, victim, block_seed(opts.seed, op), STEPS, &mut seats[victim], tracer)
        }));
        let dt = op_started.elapsed().as_secs_f64();
        busy_s += dt;
        out.attempted += 1;
        match result {
            Ok(Ok(r)) => {
                if traced { &mut traced_times[victim] } else { &mut times[victim] }.push(dt);
                if op < MIN_ROUNDS * 3 {
                    adv_first_rounds.push(r.adv_accuracy);
                }
                defended.push(r.defended_accuracy);
            }
            Ok(Err(e)) => out.fail(&format!("op {op} on {}", VICTIMS[victim]), &e),
            Err(_) => out.fail(&format!("op {op} on {}", VICTIMS[victim]), "panicked"),
        }
        op += 1;
    }
    let ok_ops = out.attempted - out.failed;

    let setup = median(&setup_s).unwrap_or(f64::NAN);
    let rss = peak_rss_mib(None).unwrap_or(f64::NAN);
    let adv = 100.0 * adv_first_rounds.iter().sum::<f64>() / adv_first_rounds.len().max(1) as f64;
    // One latency for three victims whose ops differ eightfold: the
    // geometric mean of their median op times, so a change to any one
    // victim moves it by the same share.
    let log_medians: f64 =
        times.iter().map(|t| median(t).map_or(f64::NAN, |m| (m * 1e3).ln())).sum::<f64>();
    let samples = times.iter().map(Vec::len).sum();
    out.gated = vec![
        Metric::new("setup_s", setup, "s", setup_s.len()),
        Metric::new("peak_rss_mib", rss, "MiB", 1),
        Metric::new("latency_p50_ms", (log_medians / VICTIMS.len() as f64).exp(), "ms", samples),
        Metric::new(
            "points_per_s",
            (ok_ops as usize * POINTS) as f64 / busy_s,
            "1/s",
            ok_ops as usize,
        ),
        Metric::new("adv_accuracy", adv, "%", adv_first_rounds.len()),
    ];
    out.workload = vec![
        Metric::new("setup_s", setup, "s", setup_s.len()),
        Metric::new("peak_rss_mib", rss, "MiB", 1),
        Metric::new(
            "fail_ratio",
            out.failed as f64 / out.attempted as f64,
            "1",
            out.attempted as usize,
        ),
    ];
    for (v, name) in VICTIMS.iter().enumerate() {
        out.workload.push(Metric::new(
            format!("attack_s.{name}"),
            median(&times[v]).unwrap_or(f64::NAN),
            "s",
            times[v].len(),
        ));
    }
    out.workload.push(Metric::new("adv_accuracy", adv, "%", adv_first_rounds.len()));
    out.notes.push(format!(
        "attack_4096: {} ops in {:.1}s, defended accuracy {:.2}% over {} ops, set-up reps {:?}",
        out.attempted,
        started.elapsed().as_secs_f64(),
        100.0 * defended.iter().sum::<f64>() / defended.len().max(1) as f64,
        defended.len(),
        setup_s.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>(),
    ));
    if opts.trace {
        let pcts: Vec<f64> = VICTIMS
            .iter()
            .enumerate()
            .map(|(v, name)| {
                out.overhead_pct(&format!("attack_s.{name} (s)"), &traced_times[v], &times[v])
            })
            .collect();
        let overhead = pcts.iter().sum::<f64>() / pcts.len() as f64;
        let samples = traced_times.iter().chain(&times).map(Vec::len).sum();
        out.layers.push(Metric::new("trace.overhead_pct", overhead, "%", samples));
    }
    Ok((out, victims))
}

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64() * 1e3)
}

fn median_ms(mut f: impl FnMut() -> f64, reps: usize) -> f64 {
    let xs: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&xs).unwrap_or(f64::NAN)
}

/// GF/s of `Matrix::matmul` at [m×k]·[k×n] on the ambient runtime.
fn gemm_gflops(m: usize, k: usize, n: usize) -> f64 {
    let a = Matrix::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 11) as f32 * 0.1 - 0.5);
    let b = Matrix::from_fn(k, n, |i, j| ((i * 5 + j * 13) % 7) as f32 * 0.1 - 0.3);
    let flops = 2.0 * (m * k * n) as f64;
    let _ = a.matmul(&b);
    let mut rates = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        let mut reps = 0;
        while reps == 0 || started.elapsed().as_secs_f64() < 0.04 {
            std::hint::black_box(a.matmul(&b).expect("matmul shapes"));
            reps += 1;
        }
        rates.push(flops * reps as f64 / started.elapsed().as_secs_f64() / 1e9);
    }
    median(&rates).unwrap_or(f64::NAN)
}

/// Each victim's largest matmul at 4096 points: PointNet++'s level-0
/// feature-propagation layer, ResGCN's edge MLP and RandLA-Net's
/// first-stage attention score over k = 8 neighbors.
pub const GEMM_SHAPES: [(usize, usize, usize); 3] =
    [(POINTS, 57, 48), (POINTS * 8, 64, 32), (POINTS * 8, 32, 32)];

/// The attack-side per-layer metrics, timed from outside through the
/// crates' public API on trained victims.
/// Also returns, per victim, the sum of the op's decomposed pieces in ms
/// with a line that spells the sum out.
pub fn layer_probe(victims: &Victims, seed: u64) -> (Vec<Metric>, Vec<(f64, String)>) {
    let runtime = Runtime::new(THREADS);
    let single = Runtime::new(1);
    let defense = DefensePipeline::parse(DEFENSE).expect("defense spec");
    let mut m = Vec::new();
    let mut notes = Vec::new();

    runtime.install(|| {
        for (v, name) in VICTIMS.iter().enumerate() {
            let (mm, kk, nn) = GEMM_SHAPES[v];
            m.push(Metric::new(
                format!("tensor.gemm_gflops.{name}"),
                gemm_gflops(mm, kk, nn),
                "GF/s",
                5,
            ));
        }
        m.push(Metric::new("tensor.gemm_ceiling_gflops", gemm_gflops(768, 768, 768), "GF/s", 5));
    });

    let block_ms = median_ms(|| time_ms(|| block(mix(seed, 4, 0))).1, 5);
    m.push(Metric::new("scene.block_ms", block_ms, "ms", 5));

    for (v, name) in VICTIMS.iter().enumerate() {
        let model = victims.model(v);
        let bseed = mix(seed, 4, 1 + v as u64);
        let cloud = view(v, &block(bseed), bseed);
        let tensors = CloudTensors::from_cloud(&cloud);
        let config = AttackConfig::non_targeted(STEPS);
        let seated = |steps: usize, rt: &Runtime, plan: &AttackPlan, seat: &mut WarmSeat| {
            let session =
                AttackSession::new(AttackConfig::non_targeted(steps)).runtime(rt).plan(plan);
            let mut rng = StdRng::seed_from_u64(bseed);
            time_ms(|| session.run_with_rng_seated(model, &tensors, &mut rng, seat)).1
        };
        runtime.install(|| {
            let plan_ms = median_ms(|| time_ms(|| AttackPlan::build(model, &tensors, &config)).1, 3);
            let plan = AttackPlan::build(model, &tensors, &config);
            let forward_ms = median_ms(
                || {
                    let mut rng = StdRng::seed_from_u64(bseed);
                    time_ms(|| predict_planned(model, &tensors, plan.geometry(), &mut rng)).1
                },
                3,
            );
            let mut fwd = Forward::new(model.params(), false);
            let dynamic_ms = median_ms(
                || {
                    fwd.reset();
                    let mut rng = StdRng::seed_from_u64(bseed);
                    time_ms(|| {
                        let input = bind_input_planned(
                            &mut fwd.tape,
                            &tensors,
                            ColorBinding::Leaf,
                            plan.geometry(),
                        );
                        let logits = model.forward(&mut fwd, &input, &mut rng);
                        let loss = fwd.tape.sum(logits);
                        fwd.tape.backward(loss);
                    })
                    .1
                },
                3,
            );
            let first_ms = median_ms(|| seated(1, &runtime, &plan, &mut WarmSeat::new()), 2);
            let mut seat = WarmSeat::new();
            seated(2, &runtime, &plan, &mut seat);
            let t1 = median_ms(|| seated(1, &runtime, &plan, &mut seat), 2);
            let t20 = seated(STEPS, &runtime, &plan, &mut seat);
            let step_ms = (t20 - t1) / (STEPS - 1) as f64;
            let reeval_ms = median_ms(
                || {
                    let mut rng = StdRng::seed_from_u64(bseed);
                    time_ms(|| {
                        let defended = CloudTensors::from_cloud(&defense.apply(&cloud, &mut rng));
                        predict_planned(model, &defended, plan.geometry(), &mut rng)
                    })
                    .1
                },
                2,
            );
            if v == 0 {
                let apply_ms = median_ms(
                    || time_ms(|| defense.apply(&cloud, &mut StdRng::seed_from_u64(bseed))).1,
                    5,
                );
                m.push(Metric::new("defense.apply_ms", apply_ms, "ms", 5));
            }
            // Runtime speedup: the same 5-step seated attack on 1 and on 2
            // threads, alternated.
            let mut one = Vec::new();
            let mut two = Vec::new();
            let mut seat1 = WarmSeat::new();
            seated(2, &single, &plan, &mut seat1);
            for _ in 0..2 {
                one.push(single.install(|| seated(5, &single, &plan, &mut seat1)));
                two.push(seated(5, &runtime, &plan, &mut seat));
            }
            let speedup = median(&one).unwrap_or(f64::NAN) / median(&two).unwrap_or(f64::NAN);

            m.push(Metric::new(format!("autodiff.dynamic_step_ms.{name}"), dynamic_ms, "ms", 3));
            m.push(Metric::new(format!("models.plan_ms.{name}"), plan_ms, "ms", 3));
            m.push(Metric::new(format!("models.forward_ms.{name}"), forward_ms, "ms", 3));
            m.push(Metric::new(format!("colper.first_step_ms.{name}"), first_ms, "ms", 2));
            m.push(Metric::new(format!("colper.step_ms.{name}"), step_ms, "ms", 1));
            m.push(Metric::new(format!("nn.train_s.{name}"), victims.train_s[v], "s", 1));
            m.push(Metric::new(format!("runtime.speedup.{name}"), speedup, "x", 2));
            let sum = block_ms
                + plan_ms
                + forward_ms
                + first_ms
                + (STEPS - 1) as f64 * step_ms
                + reeval_ms;
            notes.push((
                sum,
                format!(
                    "decomposition {name}: block {block_ms:.1} + plan {plan_ms:.1} + clean forward \
                     {forward_ms:.1} + first step {first_ms:.1} + 19 steady x {step_ms:.2} + defended \
                     re-evaluation {reeval_ms:.1} = {sum:.1} ms"
                ),
            ));
        });
    }
    (m, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_block_list() {
        let a: Vec<u64> = (0..6).map(|op| block_seed(9, op)).collect();
        let b: Vec<u64> = (0..6).map(|op| block_seed(9, op)).collect();
        assert_eq!(a, b);
        let c: Vec<u64> = (0..6).map(|op| block_seed(10, op)).collect();
        assert_ne!(a, c);
        let (x, y) = (block(a[0]), block(b[0]));
        assert_eq!(x.len(), POINTS);
        assert_eq!(x.coords, y.coords);
        assert_eq!(x.colors, y.colors);
        assert_eq!(x.labels, y.labels);
        assert_ne!(block(a[1]).coords, x.coords);
    }
}
