//! `colper` — command-line front end for the COLPER reproduction.
//!
//! ```text
//! colper scene   [--outdoor] [--points N] [--seed S]
//! colper train   [--model pointnet|resgcn|randla] [--points N] [--rooms R]
//!                [--epochs E] [--out FILE] [--threads N]
//! colper attack  [--model pointnet|resgcn|randla] [--steps S] [--points N]
//!                [--targeted CLASS] [--source CLASS] [--weights FILE]
//!                [--threads N]
//! colper stream  [--tiles N] [--points-per-tile N] [--steps S] [--window N]
//!                [--budget-mb MB] [--seed S] [--dir DIR] [--threads N]
//! colper matrix  [--quick] [--points N] [--steps S] [--out FILE] [--threads N]
//! colper serve   [--addr HOST:PORT] [--workers N] [--threads N] [--queue-cap N]
//! ```
//!
//! Everything runs on synthetic scenes; `train` writes a checkpoint that
//! `attack --weights` can reuse. `stream` materializes an out-of-core
//! tiled world as memory-mapped column shards and attacks it window by
//! window under a hard residency budget. `matrix` runs the attack ×
//! defense robustness cross-product and writes the ranked report to
//! `results/BENCH_matrix.json`. `--threads` sizes the shared compute
//! pool (default: `COLPER_THREADS`, else the host parallelism); every
//! thread count produces bit-identical results.

use colper_repro::attack::{AttackConfig, AttackSession, Objective};
use colper_repro::metrics::ConfusionMatrix;
use colper_repro::models::{
    train_model, CloudTensors, PointNet2, PointNet2Config, RandLaNet, RandLaNetConfig, ResGcn,
    ResGcnConfig, SegmentationModel, TrainConfig,
};
use colper_repro::nn::{load_params, save_params};
use colper_repro::obs::{Observer, TraceReport};
use colper_repro::runtime::Runtime;
use colper_repro::scene::{
    normalize, IndoorClass, IndoorSceneConfig, OutdoorSceneConfig, RoomKind, S3disLikeDataset,
    SceneGenerator,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match Flags::parse(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // One pool serves the whole command; every library layer picks it up
    // as the ambient runtime. Results are identical for any --threads.
    let runtime = match flags.get("threads").map(|v| v.parse::<usize>()) {
        None => Runtime::from_env(),
        Some(Ok(n)) if n >= 1 => Runtime::new(n),
        Some(_) => {
            eprintln!("error: --threads expects a positive integer\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = runtime.clone().install(|| match command.as_str() {
        "scene" => cmd_scene(&flags),
        "train" => cmd_train(&flags),
        "attack" => cmd_attack(&flags),
        "stream" => cmd_stream(&flags),
        "matrix" => cmd_matrix(&flags, &runtime),
        "serve" => cmd_serve(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  colper scene   [--outdoor] [--points N] [--seed S] [--map] [--ply FILE]
  colper train   [--model pointnet|resgcn|randla] [--points N] [--rooms R] [--epochs E] [--out FILE]
                 [--threads N]
  colper attack  [--model pointnet|resgcn|randla] [--steps S] [--points N] [--seed S]
                 [--targeted CLASS] [--source CLASS] [--weights FILE] [--map] [--ply FILE]
                 [--threads N] [--trace]
  colper stream  [--tiles N] [--points-per-tile N] [--extent M] [--steps S] [--window N]
                 [--budget-mb MB] [--windows-per-tile N] [--seed S] [--dir DIR] [--threads N]
  colper matrix  [--quick] [--points N] [--steps S] [--out FILE] [--threads N]
  colper serve   [--addr HOST:PORT] [--workers N] [--threads N] [--queue-cap N]";

/// Parsed `--flag value` / `--flag` command-line arguments with typed,
/// validated accessors — the one flag surface every subcommand shares
/// (model/points/steps/seed/threads handling used to be duplicated per
/// command as loose helper calls over a raw map).
struct Flags(HashMap<String, String>);

/// Flags that are present/absent switches rather than key-value pairs.
const BOOLEAN_FLAGS: [&str; 4] = ["outdoor", "map", "trace", "quick"];

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument '{arg}'"));
            };
            if BOOLEAN_FLAGS.contains(&name) {
                flags.insert(name.to_string(), "true".to_string());
                i += 1;
                continue;
            }
            let value = args.get(i + 1).ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
            i += 2;
        }
        Ok(Self(flags))
    }

    /// The raw value of `--name`, when given.
    fn get(&self, name: &str) -> Option<&String> {
        self.0.get(name)
    }

    /// Whether a boolean switch was given.
    fn is_set(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// String flag with a default.
    fn str<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.0.get(name).map_or(default, String::as_str)
    }

    /// Integer flag with a default.
    fn usize(&self, name: &str, default: usize) -> Result<usize, String> {
        self.parsed(name, default)
    }

    /// Positive integer flag with a default: point, step, room and epoch
    /// counts, where 0 would leave nothing to run.
    fn count(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.usize(name, default)? {
            0 => Err(format!("--{name} must be a positive integer, got 0")),
            n => Ok(n),
        }
    }

    /// Seed-sized integer flag with a default.
    fn u64(&self, name: &str, default: u64) -> Result<u64, String> {
        self.parsed(name, default)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} expects an integer, got '{v}'")),
        }
    }
}

fn indoor_class(name: &str) -> Result<IndoorClass, String> {
    IndoorClass::ALL.into_iter().find(|c| c.name() == name).ok_or_else(|| {
        let names: Vec<&str> = IndoorClass::ALL.iter().map(|c| c.name()).collect();
        format!("unknown class '{name}'; expected one of {}", names.join(", "))
    })
}

fn cmd_scene(flags: &Flags) -> Result<(), String> {
    let points = flags.count("points", 1024)?;
    let seed = flags.u64("seed", 0)?;
    let outdoor = flags.is_set("outdoor");
    let cloud = if outdoor {
        SceneGenerator::outdoor(OutdoorSceneConfig::with_points(points)).generate(seed)
    } else {
        SceneGenerator::indoor(IndoorSceneConfig::with_points(points)).generate(seed)
    };
    let bounds = cloud.bounds().expect("non-empty");
    println!(
        "{} scene: {} points, {} classes, extent {:.1} x {:.1} x {:.1} m",
        if outdoor { "outdoor" } else { "indoor" },
        cloud.len(),
        cloud.num_classes,
        bounds.size().x,
        bounds.size().y,
        bounds.size().z
    );
    println!("{:<18} {:>8} {:>8}", "class", "points", "share");
    for (label, count) in cloud.class_histogram().iter().enumerate() {
        if *count == 0 {
            continue;
        }
        let name = if outdoor {
            colper_repro::scene::OutdoorClass::from_label(label).name()
        } else {
            IndoorClass::from_label(label).name()
        };
        println!("{:<18} {:>8} {:>7.2}%", name, count, *count as f32 / cloud.len() as f32 * 100.0);
    }
    if flags.is_set("map") {
        println!("\ntop-down class map:");
        print!("{}", colper_repro::scene::viz::top_down_map(&cloud, &cloud.labels, 60, 22));
        let names: Vec<&str> = if outdoor {
            colper_repro::scene::OutdoorClass::ALL.iter().map(|c| c.name()).collect()
        } else {
            IndoorClass::ALL.iter().map(|c| c.name()).collect()
        };
        println!("{}", colper_repro::scene::viz::legend(&names));
    }
    if let Some(path) = flags.get("ply") {
        let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        colper_repro::scene::io::write_ply(&cloud, std::io::BufWriter::new(file))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("RGB point cloud written to {path}");
    }
    Ok(())
}

enum AnyModel {
    PointNet(PointNet2),
    ResGcn(ResGcn),
    RandLa(RandLaNet),
}

impl AnyModel {
    fn build(kind: &str, rng: &mut StdRng) -> Result<Self, String> {
        Ok(match kind {
            "pointnet" => AnyModel::PointNet(PointNet2::new(PointNet2Config::small(13), rng)),
            "resgcn" => AnyModel::ResGcn(ResGcn::new(ResGcnConfig::small(13), rng)),
            "randla" => AnyModel::RandLa(RandLaNet::new(RandLaNetConfig::small(13), rng)),
            other => return Err(format!("unknown model '{other}' (pointnet|resgcn|randla)")),
        })
    }

    fn as_dyn(&self) -> &dyn SegmentationModel {
        match self {
            AnyModel::PointNet(m) => m,
            AnyModel::ResGcn(m) => m,
            AnyModel::RandLa(m) => m,
        }
    }

    fn as_dyn_mut(&mut self) -> &mut dyn SegmentationModel {
        match self {
            AnyModel::PointNet(m) => m,
            AnyModel::ResGcn(m) => m,
            AnyModel::RandLa(m) => m,
        }
    }

    fn view(&self, cloud: &colper_repro::scene::PointCloud, rng: &mut StdRng) -> CloudTensors {
        let normalized = match self {
            AnyModel::PointNet(_) => normalize::pointnet_view(cloud),
            AnyModel::ResGcn(_) => normalize::resgcn_view(cloud),
            AnyModel::RandLa(_) => normalize::randla_view(cloud, cloud.len(), rng),
        };
        CloudTensors::from_cloud(&normalized)
    }
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    use colper_repro::serve::{ServeConfig, Server};
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: flags.get("addr").cloned().unwrap_or(defaults.addr),
        workers: flags.usize("workers", defaults.workers)?,
        threads: flags.usize("threads", defaults.threads)?,
        queue_capacity: flags.usize("queue-cap", defaults.queue_capacity)?,
        seat_cap: flags.usize("seat-cap", defaults.seat_cap)?,
    };
    let server = Server::start(&config).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    println!(
        "colperd listening on {} ({} workers, {} compute threads, queue capacity {})",
        server.local_addr(),
        config.workers,
        config.threads,
        config.queue_capacity
    );
    loop {
        std::thread::park();
    }
}

fn cmd_stream(flags: &Flags) -> Result<(), String> {
    use colper_repro::attack::{StreamConfig, StreamingAttack};
    use colper_repro::scene::tiled::{ShardStore, TiledWorld, TiledWorldConfig};
    use colper_repro::scene::OUTDOOR_CLASS_COUNT;

    let tiles = flags.usize("tiles", 4)?.max(1);
    let points_per_tile = flags.usize("points-per-tile", 4096)?.max(1);
    let steps = flags.count("steps", 12)?;
    let seed = flags.u64("seed", 7)?;

    let mut world_cfg = TiledWorldConfig::grid(tiles as u32, points_per_tile);
    world_cfg.world_seed = seed;
    if let Some(extent) = flags.get("extent") {
        world_cfg.tile_extent =
            extent.parse().map_err(|_| format!("--extent expects a number, got '{extent}'"))?;
    }

    // Budget: default to two resident tiles (core + one halo neighbor),
    // the minimum the streaming schedule needs.
    let tile_bytes = world_cfg.tile_bytes();
    let budget_bytes = match flags.get("budget-mb") {
        None => 2 * tile_bytes,
        Some(v) => {
            let mb: usize =
                v.parse().map_err(|_| format!("--budget-mb expects an integer, got '{v}'"))?;
            mb * (1 << 20)
        }
    };

    let (dir, ephemeral) = match flags.get("dir") {
        Some(d) => (std::path::PathBuf::from(d), false),
        None => (std::env::temp_dir().join(format!("colper-stream-{}", std::process::id())), true),
    };

    let total = world_cfg.total_points();
    println!(
        "world: {tiles}x{tiles} tiles x {points_per_tile} points = {total} points \
         ({:.1} MiB of shards), residency budget {:.1} MiB",
        (tiles * tiles * tile_bytes) as f64 / (1 << 20) as f64,
        budget_bytes as f64 / (1 << 20) as f64,
    );
    let world = if dir.join("world.meta").exists() {
        let world =
            TiledWorld::open(&dir).map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
        println!("reusing shards at {}", dir.display());
        world
    } else {
        let world = TiledWorld::create(&dir, &world_cfg)
            .map_err(|e| format!("cannot create world at {}: {e}", dir.display()))?;
        println!("shards written to {}", dir.display());
        world
    };
    let mut store = ShardStore::new(world, budget_bytes);

    let mut rng = StdRng::seed_from_u64(seed);
    let model = PointNet2::new(PointNet2Config::tiny(OUTDOOR_CLASS_COUNT), &mut rng);

    let mut cfg = StreamConfig::new(AttackConfig::non_targeted(steps));
    cfg.window_core = flags.usize("window", cfg.window_core)?.max(1);
    cfg.seed = seed;
    if let Some(v) = flags.get("windows-per-tile") {
        let n: usize =
            v.parse().map_err(|_| format!("--windows-per-tile expects an integer, got '{v}'"))?;
        cfg.windows_per_tile = Some(n.max(1));
    }

    println!(
        "streaming COLPER: {} windows/tile max, {} steps/window...",
        cfg.windows_per_tile.map_or("all".to_string(), |n| n.to_string()),
        steps
    );
    let start = std::time::Instant::now();
    let outcome = StreamingAttack::new(cfg).run(&model, &mut store).map_err(|e| e.to_string())?;
    let elapsed = start.elapsed().as_secs_f64();

    println!(
        "clean: accuracy {:.1}%, mIoU {:.1}%",
        outcome.clean.accuracy() * 100.0,
        outcome.clean.mean_iou() * 100.0
    );
    println!(
        "adversarial: accuracy {:.1}%, mIoU {:.1}%, attack success {:.1}%, total L2^2 {:.2}",
        outcome.adversarial.accuracy() * 100.0,
        outcome.adversarial.mean_iou() * 100.0,
        outcome.attack_success() * 100.0,
        outcome.total_l2_sq
    );
    println!(
        "{} points attacked in {} windows over {} tiles ({:.0} points/sec), {} halo points",
        outcome.points_attacked,
        outcome.windows,
        outcome.tiles,
        outcome.points_attacked as f64 / elapsed.max(1e-9),
        outcome.halo_points
    );
    println!(
        "residency: peak {:.2} MiB of {:.2} MiB budget ({} evictions); warm-seat hit rate {:.1}%",
        outcome.residency.peak_bytes as f64 / (1 << 20) as f64,
        outcome.residency.budget_bytes as f64 / (1 << 20) as f64,
        outcome.residency.evictions,
        outcome.warm_hit_rate() * 100.0
    );
    assert!(
        outcome.residency.peak_bytes <= budget_bytes,
        "residency peak exceeded the hard budget"
    );

    if ephemeral {
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
    Ok(())
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let kind = flags.str("model", "pointnet");
    let points = flags.count("points", 512)?;
    let rooms = flags.count("rooms", 4)?;
    let epochs = flags.count("epochs", 12)?;
    let default_out = format!("{kind}.clpr");
    let out = flags.str("out", &default_out);

    let mut rng = StdRng::seed_from_u64(flags.u64("seed", 11)?);
    let mut model = AnyModel::build(kind, &mut rng)?;
    let dataset = S3disLikeDataset::new(IndoorSceneConfig::with_points(points), rooms);
    let clouds: Vec<CloudTensors> =
        dataset.train_rooms().iter().map(|c| model.view(c, &mut rng)).collect();
    println!("training {kind} on {} rooms x {points} points...", clouds.len());
    let report = train_model(
        model.as_dyn_mut(),
        &clouds,
        &TrainConfig { epochs, lr: 0.01, target_accuracy: 0.95 },
        &mut rng,
    );
    println!(
        "trained to {:.1}% accuracy in {} epochs (final loss {:.4})",
        report.final_accuracy * 100.0,
        report.epochs_run,
        report.final_loss
    );
    let file = std::fs::File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    save_params(model.as_dyn().params(), std::io::BufWriter::new(file))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("weights written to {out}");
    Ok(())
}

fn cmd_attack(flags: &Flags) -> Result<(), String> {
    let kind = flags.str("model", "pointnet");
    let points = flags.count("points", 512)?;
    let steps = flags.count("steps", 120)?;
    let seed = flags.u64("seed", 5)?;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = AnyModel::build(kind, &mut rng)?;

    if let Some(path) = flags.get("weights") {
        let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        let params = load_params(std::io::BufReader::new(file))
            .map_err(|e| format!("cannot load {path}: {e}"))?;
        if params.param_count() != model.as_dyn().params().param_count() {
            return Err(format!(
                "checkpoint {path} has {} parameters, model expects {}",
                params.param_count(),
                model.as_dyn().params().param_count()
            ));
        }
        *model.as_dyn_mut().params_mut() = params;
        println!("loaded weights from {path}");
    } else {
        // No checkpoint: train briefly so the attack has a real victim.
        println!("no --weights given; training a fresh victim...");
        let dataset = S3disLikeDataset::new(IndoorSceneConfig::with_points(points), 4);
        let clouds: Vec<CloudTensors> =
            dataset.train_rooms().iter().map(|c| model.view(c, &mut rng)).collect();
        let report = train_model(
            model.as_dyn_mut(),
            &clouds,
            &TrainConfig { epochs: 12, lr: 0.01, target_accuracy: 0.95 },
            &mut rng,
        );
        println!("victim accuracy: {:.1}%", report.final_accuracy * 100.0);
    }

    // Victim cloud: a fresh office.
    let cfg = IndoorSceneConfig {
        room_kind: Some(RoomKind::Office),
        ..IndoorSceneConfig::with_points(points)
    };
    let cloud = SceneGenerator::indoor(cfg).generate(seed.wrapping_add(12345));
    let tensors = model.view(&cloud, &mut rng);

    let (config, mask, goal_desc) = match flags.get("targeted") {
        Some(target_name) => {
            let target = indoor_class(target_name)?;
            let source = indoor_class(flags.str("source", "board"))?;
            let mask: Vec<bool> = tensors.labels.iter().map(|&l| l == source.label()).collect();
            if !mask.iter().any(|&m| m) {
                return Err(format!(
                    "the generated scene has no '{source}' points; try another --seed"
                ));
            }
            (
                AttackConfig::targeted(steps, target.label()),
                mask,
                format!("targeted {source} -> {target}"),
            )
        }
        None => (
            AttackConfig::non_targeted(steps),
            vec![true; tensors.len()],
            "non-targeted (all points)".to_string(),
        ),
    };

    // `--trace` (or COLPER_TRACE=1 in the environment) switches on the
    // observability layer: per-step telemetry plus span/counter
    // aggregates written under `results/`.
    if flags.is_set("trace") {
        colper_repro::obs::set_enabled(true);
    }
    let observer = Observer::from_env();

    // One geometry plan serves the clean prediction and every attack
    // step. The session derives cloud 0's RNG from the seed and runs the
    // clean prediction first; replay that stream here so the printed
    // (and `--map`ped) clean segmentation is exactly what it saw.
    let plan = colper_repro::attack::AttackPlan::build(model.as_dyn(), &tensors, &config);
    let mut clean_rng = StdRng::seed_from_u64(seed);
    let clean_preds = colper_repro::models::predict_planned(
        model.as_dyn(),
        &tensors,
        plan.geometry(),
        &mut clean_rng,
    );
    let mut cm = ConfusionMatrix::new(13);
    cm.update(&clean_preds, &tensors.labels);
    println!("clean: accuracy {:.1}%, aIoU {:.1}%", cm.accuracy() * 100.0, cm.mean_iou() * 100.0);

    println!("running COLPER: {goal_desc}, {steps} steps...");
    let mask_of = |_: &CloudTensors| mask.clone();
    let outcome = AttackSession::new(config)
        .plan(&plan)
        .observer(&observer)
        .seed(seed)
        .mask_with(&mask_of)
        .run(model.as_dyn(), std::slice::from_ref(&tensors));
    let item = &outcome.items[0];
    let result = &item.result;
    println!(
        "adversarial: accuracy {:.1}%, aIoU {:.1}%, L2 {:.2}, {} steps, converged: {}",
        item.adversarial_accuracy * 100.0,
        item.adversarial_miou * 100.0,
        result.l2(),
        result.steps_run,
        result.converged
    );
    println!("attacker metric (acc on attacked pts / SR): {:.1}%", result.success_metric * 100.0);

    if observer.is_active() {
        let trace = TraceReport::capture(&observer);
        let (jsonl, summary) = trace
            .write(std::path::Path::new("results"), "TRACE_attack")
            .map_err(|e| format!("cannot write trace: {e}"))?;
        let reports: Vec<String> = outcome.reports(&observer).iter().map(|r| r.to_json()).collect();
        let report_path = "results/TRACE_attack_report.json";
        std::fs::write(report_path, format!("[{}]\n", reports.join(",")))
            .map_err(|e| format!("cannot write {report_path}: {e}"))?;
        println!("\n{}", trace.table());
        println!("trace: {} + {} + {report_path}", jsonl.display(), summary.display());
    }

    let noise = AttackConfig {
        objective: Objective::NoiseBaseline { l2_sq: result.l2_sq },
        ..AttackConfig::non_targeted(steps)
    };
    let baseline = AttackSession::new(noise).mask_with(&mask_of).run_with_rng(
        model.as_dyn(),
        &tensors,
        &mut rng,
    );
    let mut cm = ConfusionMatrix::new(13);
    cm.update(&baseline.predictions, &tensors.labels);
    println!(
        "matched-L2 noise baseline: accuracy {:.1}% (the drop is the optimization, not the noise)",
        cm.accuracy() * 100.0
    );

    if flags.is_set("map") {
        let mut map_cloud = cloud.clone();
        map_cloud.coords = tensors.coords.clone();
        println!("\nsegmentation before the attack:");
        print!("{}", colper_repro::scene::viz::top_down_map(&map_cloud, &clean_preds, 60, 20));
        println!("\nsegmentation after the attack:");
        print!(
            "{}",
            colper_repro::scene::viz::top_down_map(&map_cloud, &result.predictions, 60, 20)
        );
        let names: Vec<&str> = IndoorClass::ALL.iter().map(|c| c.name()).collect();
        println!("{}", colper_repro::scene::viz::legend(&names));
    }

    if let Some(path) = flags.get("ply") {
        // Export the adversarial cloud (RGB view) and the prediction view.
        let mut adv_cloud = cloud.clone();
        adv_cloud.set_colors_from_matrix(&result.adversarial_colors);
        let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        colper_repro::scene::io::write_ply(&adv_cloud, std::io::BufWriter::new(file))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let seg_path = format!("{path}.segmentation.ply");
        let file = std::fs::File::create(&seg_path)
            .map_err(|e| format!("cannot create {seg_path}: {e}"))?;
        colper_repro::scene::io::write_label_ply(
            &adv_cloud,
            Some(&result.predictions),
            std::io::BufWriter::new(file),
        )
        .map_err(|e| format!("cannot write {seg_path}: {e}"))?;
        println!("adversarial cloud written to {path} (+ {seg_path})");
    }
    Ok(())
}

fn cmd_matrix(flags: &Flags, runtime: &Runtime) -> Result<(), String> {
    use colper_repro::matrix::{run, MatrixConfig, Registry};

    let mut cfg =
        if flags.is_set("quick") { MatrixConfig::quick() } else { MatrixConfig::standard() };
    cfg.points = flags.count("points", cfg.points)?;
    cfg.steps = flags.count("steps", cfg.steps)?;
    let out = flags.str("out", "results/BENCH_matrix.json");

    let registry = Registry::defaults(&cfg);
    println!(
        "robustness matrix ({} scale): {} attacks x {} defenses x {} models x {} scenes, {} threads",
        cfg.scale,
        registry.attacks.len(),
        registry.defenses.len(),
        registry.models.len(),
        registry.scenes.len(),
        runtime.threads()
    );
    let report = run(&registry, &cfg, runtime)?;
    println!("\n{}", report.table());

    if let Some(dir) = std::path::Path::new(out).parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(out, report.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("report written to {out}");
    Ok(())
}
