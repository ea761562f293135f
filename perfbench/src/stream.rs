//! `stream_world`: a closed loop of bounded-memory `StreamingAttack`
//! passes over a sharded 16x16-tile outdoor world. Every pass attacks
//! the pristine world; the colors are restored between passes, outside
//! the timed region. The shards stay in the page cache, so tile IO here
//! is page-cache IO.

use crate::checks;
use crate::report::{peak_rss_mib, Metric, Outcome};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Options;
use colper_repro::attack::{
    AttackConfig, AttackPlan, AttackSession, StreamConfig, StreamOutcome, StreamingAttack, WarmSeat,
};
use colper_repro::models::{train_model, CloudTensors, PointNet2, PointNet2Config, TrainConfig};
use colper_repro::runtime::Runtime;
use colper_repro::scene::tiled::{ShardStore, TileId, TiledWorld, TiledWorldConfig};
use colper_repro::scene::{
    normalize, OutdoorSceneConfig, PointCloud, Semantic3dLikeDataset, OUTDOOR_CLASS_COUNT,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const TILES: u32 = 16;
pub const TILE_POINTS: usize = 4096;
pub const BUDGET_TILES: usize = 4;
pub const WINDOW: usize = 512;
pub const STEPS: usize = 4;
pub const THREADS: usize = 2;
/// Tiles per side of the small world behind `runtime.speedup.stream`.
const SPEEDUP_TILES: u32 = 4;
const SETUP_REPS: usize = 3;
const TRAIN_SCENES: usize = 30;
const TRAIN_POINTS: usize = 2048;
const TRAIN_EPOCHS: usize = 12;

/// Seed of the one world every run attacks.
const WORLD_SEED: u64 = 1;

/// The world: the same for every workload seed. Windows whose halo falls
/// short of its budget get shapes of their own, and the memory each
/// shape leaves resident made the peak RSS of a per-seed world move
/// between 30 and 61 MiB from seed to seed; a fixed world keeps that
/// cost in every run instead.
pub fn world_config(tiles: u32) -> TiledWorldConfig {
    let mut cfg = TiledWorldConfig::grid(tiles, TILE_POINTS);
    cfg.world_seed = WORLD_SEED;
    cfg
}

pub fn stream_config(seed: u64) -> StreamConfig {
    let mut cfg = StreamConfig::new(AttackConfig::non_targeted(STEPS));
    cfg.window_core = WINDOW;
    cfg.seed = seed;
    cfg
}

/// A sharded world on disk plus its pristine colors. The shard directory
/// is removed on drop.
pub struct World {
    pub dir: PathBuf,
    pub cfg: TiledWorldConfig,
    pristine: Vec<(TileId, Vec<[f32; 3]>)>,
    pub shard_s: f64,
}

impl World {
    pub fn create(dir: PathBuf, cfg: TiledWorldConfig, rt: &Runtime) -> Result<World, String> {
        std::fs::remove_dir_all(&dir).ok();
        let started = Instant::now();
        let world = rt
            .install(|| TiledWorld::create(&dir, &cfg))
            .map_err(|e| format!("shard world: {e}"))?;
        let shard_s = started.elapsed().as_secs_f64();
        let pristine = world
            .tile_ids()
            .into_iter()
            .map(|id| world.read_tile(id).map(|t| (id, t.colors)))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("read tile: {e}"))?;
        Ok(World { dir, cfg, pristine, shard_s })
    }

    pub fn budget_bytes(&self) -> usize {
        BUDGET_TILES * self.cfg.tile_bytes()
    }

    /// A fresh store over the shards under the residency budget.
    pub fn store(&self) -> Result<ShardStore, String> {
        let world = TiledWorld::open(&self.dir).map_err(|e| format!("open world: {e}"))?;
        Ok(ShardStore::new(world, self.budget_bytes()))
    }

    /// Writes the pristine colors back; returns per-tile write times in ms.
    pub fn restore(&self) -> Result<Vec<f64>, String> {
        let world = TiledWorld::open(&self.dir).map_err(|e| format!("open world: {e}"))?;
        self.pristine
            .iter()
            .map(|(id, colors)| {
                let started = Instant::now();
                world.write_colors(*id, colors).map_err(|e| format!("restore tile: {e}"))?;
                Ok(started.elapsed().as_secs_f64() * 1e3)
            })
            .collect()
    }

    /// Median time to map one tile's shards, over every tile, in ms.
    pub fn tile_map_ms(&self) -> Result<f64, String> {
        let world = TiledWorld::open(&self.dir).map_err(|e| format!("open world: {e}"))?;
        let mut times = Vec::new();
        for id in world.tile_ids() {
            let started = Instant::now();
            let tile = world.map_tile(id).map_err(|e| format!("map tile: {e}"))?;
            std::hint::black_box(tile.byte_len());
            times.push(started.elapsed().as_secs_f64() * 1e3);
        }
        Ok(median(&times).unwrap_or(f64::NAN))
    }

    /// The first `n` points of tile (0, 0), as a cloud.
    fn window_cloud(&self, n: usize) -> Result<PointCloud, String> {
        let world = TiledWorld::open(&self.dir).map_err(|e| format!("open world: {e}"))?;
        let tile = world.read_tile(TileId { x: 0, y: 0 }).map_err(|e| format!("read tile: {e}"))?;
        let keep: Vec<usize> = (0..n.min(tile.len())).collect();
        Ok(tile.select(&keep))
    }
}

impl Drop for World {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Trains the tiny outdoor PointNet++ at a fixed seed, so adversarial
/// accuracy means something; an untrained victim leaves colors unchanged.
pub fn train_victim(rt: &Runtime) -> (PointNet2, f64) {
    let started = Instant::now();
    let data: Vec<CloudTensors> =
        Semantic3dLikeDataset::new(OutdoorSceneConfig::with_points(TRAIN_POINTS), TRAIN_SCENES)
            .train_scenes()
            .iter()
            .map(|c| CloudTensors::from_cloud(&normalize::pointnet_view(c)))
            .collect();
    let mut model =
        PointNet2::new(PointNet2Config::tiny(OUTDOOR_CLASS_COUNT), &mut StdRng::seed_from_u64(55));
    let cfg = TrainConfig { epochs: TRAIN_EPOCHS, lr: 0.01, target_accuracy: 0.95 };
    rt.install(|| train_model(&mut model, &data, &cfg, &mut StdRng::seed_from_u64(55)));
    (model, started.elapsed().as_secs_f64())
}

/// The set-up state of the workload.
pub struct State {
    pub world: World,
    pub model: PointNet2,
    pub train_s: f64,
}

pub fn set_up(dir: &Path, rt: &Runtime) -> Result<State, String> {
    let world = World::create(dir.to_path_buf(), world_config(TILES), rt)?;
    let (model, train_s) = train_victim(rt);
    Ok(State { world, model, train_s })
}

/// One timed pass over a pristine world: returns the outcome and its
/// wall time in seconds.
pub fn pass(
    world: &World,
    model: &PointNet2,
    seed: u64,
    rt: &Runtime,
    tracer: &mut Tracer,
) -> Result<(StreamOutcome, f64), String> {
    let mut store = world.store()?;
    let started = Instant::now();
    let outcome = tracer
        .span("colper.stream_pass", || {
            StreamingAttack::new(stream_config(seed)).runtime(rt).run(model, &mut store)
        })
        .map_err(|e| format!("stream pass: {e}"))?;
    let dt = started.elapsed().as_secs_f64();
    checks::stream_pass(
        outcome.points_attacked,
        world.cfg.total_points(),
        outcome.residency.peak_bytes,
        world.budget_bytes(),
    )?;
    Ok((outcome, dt))
}

pub fn run(
    opts: &Options,
    tracer: &mut Tracer,
    dir: &Path,
) -> Result<(Outcome, State, Option<StreamOutcome>), String> {
    let runtime = Runtime::new(THREADS);
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut shard_s = Vec::new();
    let mut train_s = Vec::new();
    let mut state = None;
    for _ in 0..reps {
        drop(state.take());
        let started = Instant::now();
        let s = set_up(dir, &runtime)?;
        setup_s.push(started.elapsed().as_secs_f64());
        shard_s.push(s.world.shard_s);
        train_s.push(s.train_s);
        state = Some(s);
    }
    let mut state = state.expect("at least one set-up");
    let setup_rss = peak_rss_mib(None).unwrap_or(f64::NAN);
    state.world.shard_s = median(&shard_s).unwrap_or(f64::NAN);
    state.train_s = median(&train_s).unwrap_or(f64::NAN);

    let mut out = Outcome::default();
    let mut times = Vec::new();
    let mut traced_times = Vec::new();
    let mut first: Option<StreamOutcome> = None;
    let mut write_ms = Vec::new();
    let budget = opts.seconds_f64();
    let mut timed_s = 0.0;
    let mut attacked = 0u64;
    let mut n = 0u64;
    while n < 2 || timed_s < budget {
        let traced = opts.trace && n.is_multiple_of(2);
        tracer.set_enabled(traced);
        tracer.set_op(n);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pass(&state.world, &state.model, opts.seed, &runtime, tracer)
        }));
        out.attempted += 1;
        match result {
            Ok(Ok((outcome, dt))) => {
                timed_s += dt;
                if traced { &mut traced_times } else { &mut times }.push(dt);
                attacked += outcome.points_attacked as u64;
                // Every pass attacks the same pristine world, so every
                // pass must reproduce the first bit for bit.
                let same = first.as_ref().is_none_or(|f| {
                    f.adversarial.accuracy().to_bits() == outcome.adversarial.accuracy().to_bits()
                        && f.total_l2_sq.to_bits() == outcome.total_l2_sq.to_bits()
                });
                if !same {
                    out.fail(&format!("pass {n}"), "result differs from the first pass");
                }
                first.get_or_insert(outcome);
            }
            Ok(Err(e)) => out.fail(&format!("pass {n}"), &e),
            Err(_) => out.fail(&format!("pass {n}"), "panicked"),
        }
        write_ms.extend(state.world.restore()?);
        n += 1;
    }

    let setup = median(&setup_s).unwrap_or(f64::NAN);
    let rss = peak_rss_mib(None).unwrap_or(f64::NAN);
    let adv = first.as_ref().map_or(f64::NAN, |f| 100.0 * f.adversarial.accuracy() as f64);
    let clean = first.as_ref().map_or(f64::NAN, |f| 100.0 * f.clean.accuracy() as f64);
    // Windows whose halo falls short of its budget have shapes of their
    // own; how many there are moves the peak RSS from seed to seed.
    let halo = first.as_ref().map_or(0, |f| f.halo_points);
    let throughput = attacked as f64 / timed_s;
    let all_ms: Vec<f64> = times.iter().map(|t| t * 1e3).collect();
    out.gated = vec![
        Metric::new("setup_s", setup, "s", setup_s.len()),
        Metric::new("peak_rss_mib", rss, "MiB", 1),
        Metric::new("latency_p50_ms", median(&all_ms).unwrap_or(f64::NAN), "ms", all_ms.len()),
        Metric::new("points_per_s", throughput, "1/s", (out.attempted - out.failed) as usize),
        Metric::new("adv_accuracy", adv, "%", 1),
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
        Metric::new("adv_accuracy", adv, "%", 1),
        Metric::new("points_per_s", throughput, "1/s", (out.attempted - out.failed) as usize),
    ];
    out.notes.push(format!(
        "stream_world: {} passes, {timed_s:.2}s timed, clean accuracy {clean:.2}%, set-up reps {:?} \
         (IO is page-cache IO), peak RSS after set-up {setup_rss:.1} MiB, {halo} halo points",
        out.attempted,
        setup_s.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>(),
    ));
    if opts.trace {
        let overhead = out.overhead_pct("pass (s)", &traced_times, &times);
        out.layers.push(Metric::new(
            "trace.overhead_pct",
            overhead,
            "%",
            traced_times.len() + times.len(),
        ));
        out.layers.push(Metric::new(
            "scene.tile_write_ms",
            median(&write_ms).unwrap_or(f64::NAN),
            "ms",
            write_ms.len(),
        ));
    }
    Ok((out, state, first))
}

/// The stream-side per-layer metrics. `pass_outcome` is a pass already
/// run on `state`'s world; without one, a pass is run here.
pub fn layer_probe(
    state: &State,
    seed: u64,
    pass_outcome: Option<StreamOutcome>,
    dir: &Path,
) -> Result<Vec<Metric>, String> {
    let runtime = Runtime::new(THREADS);
    let single = Runtime::new(1);
    let mut m = Vec::new();
    let outcome = match pass_outcome {
        Some(o) => o,
        None => {
            let (o, _) = pass(&state.world, &state.model, seed, &runtime, &mut Tracer::new(false))?;
            let writes = state.world.restore()?;
            m.push(Metric::new(
                "scene.tile_write_ms",
                median(&writes).unwrap_or(f64::NAN),
                "ms",
                writes.len(),
            ));
            o
        }
    };
    m.push(Metric::new("scene.shard_create_s", state.world.shard_s, "s", 1));
    m.push(Metric::new(
        "scene.tile_map_ms",
        state.world.tile_map_ms()?,
        "ms",
        (TILES * TILES) as usize,
    ));
    m.push(Metric::new("scene.evictions", outcome.residency.evictions as f64, "count", 1));
    m.push(Metric::new("scene.residency_misses", outcome.residency.misses as f64, "count", 1));
    m.push(Metric::new(
        "colper.warm_seat_ratio",
        outcome.warm_starts as f64 / outcome.seat_runs.max(1) as f64,
        "1",
        outcome.seat_runs as usize,
    ));
    m.push(Metric::new("nn.train_s.stream", state.train_s, "s", 1));

    // One seated attack at the window's shape: core plus a full halo.
    let cfg = stream_config(seed);
    let cloud = state.world.window_cloud(cfg.window_core + cfg.halo_budget)?;
    let tensors = CloudTensors::from_cloud(&normalize::pointnet_view(&cloud));
    let window_ms = runtime.install(|| {
        let plan = AttackPlan::build(&state.model, &tensors, &cfg.attack);
        let session = AttackSession::new(cfg.attack.clone()).runtime(&runtime).plan(&plan);
        let mut seat = WarmSeat::new();
        let mut times = Vec::new();
        for i in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let started = Instant::now();
            session.run_with_rng_seated(&state.model, &tensors, &mut rng, &mut seat);
            if i > 0 {
                times.push(started.elapsed().as_secs_f64() * 1e3);
            }
        }
        median(&times).unwrap_or(f64::NAN)
    });
    m.push(Metric::new("colper.window_ms", window_ms, "ms", 5));

    // Pass time on 1 thread over pass time on 2, on a small world.
    let small = World::create(dir.join("speedup"), world_config(SPEEDUP_TILES), &runtime)?;
    let mut one = Vec::new();
    let mut two = Vec::new();
    for _ in 0..2 {
        for (rt, times) in [(&single, &mut one), (&runtime, &mut two)] {
            let (_, dt) =
                rt.install(|| pass(&small, &state.model, seed, rt, &mut Tracer::new(false)))?;
            small.restore()?;
            times.push(dt);
        }
    }
    let speedup = median(&one).unwrap_or(f64::NAN) / median(&two).unwrap_or(f64::NAN);
    m.push(Metric::new("runtime.speedup.stream", speedup, "x", 2));
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_attacks_the_same_world() {
        let world = world_config(TILES);
        assert_eq!(world.total_points(), 16 * 16 * 4096);
        assert_ne!(stream_config(5).seed, stream_config(6).seed);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/world-test");
        let rt = Runtime::new(1);
        let w1 = World::create(dir.join("a"), world_config(1), &rt).unwrap();
        let w2 = World::create(dir.join("b"), world_config(1), &rt).unwrap();
        assert_eq!(w1.pristine, w2.pristine);
    }
}
