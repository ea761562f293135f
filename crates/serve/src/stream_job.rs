//! The `POST /stream` heavyweight job class.
//!
//! A stream job materializes an out-of-core tiled outdoor world as
//! memory-mapped column shards in a scratch directory, slides the
//! bounded-memory [`colper_attack::StreamingAttack`] over it under a
//! hard residency budget, and answers with a summary object. Stream
//! jobs are always **batch** priority — they occupy a worker for far
//! longer than a single-cloud attack, so they must never overtake
//! interactive jobs — and they run under the same per-job thread
//! budget discipline as `POST /attack`.
//!
//! ```json
//! {
//!   "model": "pointnet",       // victim zoo entry, same as /attack
//!   "tiles": 2,                // world is tiles x tiles
//!   "points_per_tile": 512,
//!   "steps": 5,                // optimization iterations per window
//!   "window": 256,             // core points per attack window
//!   "windows_per_tile": 4,     // optional cap (default: cover the tile)
//!   "budget_tiles": 2,         // residency budget in tiles
//!   "threads": 1,              // per-job runtime budget
//!   "seed": 7
//! }
//! ```

use crate::json::Json;
use crate::pool::ModelKind;
use crate::proto::MAX_STEPS;
use colper_attack::{AttackConfig, StreamConfig, StreamOutcome, StreamingAttack};
use colper_models::SegmentationModel;
use colper_obs::jf;
use colper_runtime::Runtime;
use colper_scene::tiled::{ShardStore, TiledWorld, TiledWorldConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Widest world a stream job may request, in tiles per side.
pub const MAX_TILES: usize = 8;

/// Most points a stream job may attack across the whole world. Stream
/// jobs are heavyweight by design, but a service must still bound the
/// damage one request can do.
pub const MAX_STREAM_POINTS: usize = 65_536;

/// Fewest points per tile (a window needs a neighborhood).
pub const MIN_TILE_POINTS: usize = 64;

/// A validated streaming-attack job, ready to queue.
#[derive(Debug)]
pub struct StreamSpec {
    /// Victim model.
    pub model: ModelKind,
    /// World side length in tiles.
    pub tiles: usize,
    /// Points generated per tile.
    pub points_per_tile: usize,
    /// Optimization iterations per window.
    pub steps: usize,
    /// Core points per attack window.
    pub window: usize,
    /// Optional cap on windows per tile (default: cover every point).
    pub windows_per_tile: Option<usize>,
    /// Residency budget, in tiles.
    pub budget_tiles: usize,
    /// Requested per-job thread budget.
    pub threads: usize,
    /// World + attack seed.
    pub seed: u64,
}

impl StreamSpec {
    /// Total points in the requested world (saturating; a spec from
    /// [`StreamSpec::from_json`] holds at most [`MAX_STREAM_POINTS`]).
    pub fn total_points(&self) -> usize {
        world_points(self.tiles, self.points_per_tile).unwrap_or(usize::MAX)
    }

    /// Parses and validates a stream spec from a decoded JSON value.
    /// `Err` carries a client-readable reason and maps to `422`.
    pub fn from_json(value: &Json) -> Result<StreamSpec, String> {
        let Json::Obj(_) = value else {
            return Err("stream spec must be a JSON object".into());
        };
        let model = match value.get("model") {
            None => ModelKind::PointNet,
            Some(m) => {
                let name = m.as_str().ok_or("\"model\" must be a string")?;
                ModelKind::parse(name).ok_or_else(|| format!("unknown model {name:?}"))?
            }
        };
        let tiles = field_usize(value, "tiles", 2)?;
        if !(1..=MAX_TILES).contains(&tiles) {
            return Err(format!("\"tiles\" must be in 1..={MAX_TILES}, got {tiles}"));
        }
        let points_per_tile = field_usize(value, "points_per_tile", 512)?;
        if points_per_tile < MIN_TILE_POINTS {
            return Err(format!(
                "\"points_per_tile\" must be at least {MIN_TILE_POINTS}, got {points_per_tile}"
            ));
        }
        match world_points(tiles, points_per_tile) {
            Some(total) if total <= MAX_STREAM_POINTS => {}
            Some(total) => {
                return Err(format!(
                    "world of {total} points exceeds the stream cap of {MAX_STREAM_POINTS}"
                ))
            }
            None => {
                return Err(format!(
                    "world of {tiles}x{tiles} tiles of {points_per_tile} points overflows \
                     the stream cap of {MAX_STREAM_POINTS}"
                ))
            }
        }
        let steps = field_usize(value, "steps", 5)?;
        if steps == 0 || steps > MAX_STEPS {
            return Err(format!("\"steps\" must be in 1..={MAX_STEPS}, got {steps}"));
        }
        let window = field_usize(value, "window", 256)?;
        if window == 0 {
            return Err("\"window\" must be positive".into());
        }
        let windows_per_tile = match value.get("windows_per_tile") {
            None => None,
            Some(v) => {
                let n = v
                    .as_usize()
                    .ok_or("\"windows_per_tile\" must be a positive integer below 2^53")?;
                if n == 0 {
                    return Err("\"windows_per_tile\" must be positive".into());
                }
                Some(n)
            }
        };
        let budget_tiles = field_usize(value, "budget_tiles", 2)?;
        if budget_tiles == 0 || budget_tiles > tiles * tiles {
            return Err(format!(
                "\"budget_tiles\" must be in 1..={}, got {budget_tiles}",
                tiles * tiles
            ));
        }
        let threads = field_usize(value, "threads", 1)?.max(1);
        let seed = match value.get("seed") {
            None => 0,
            Some(s) => s.as_u64().ok_or("\"seed\" must be a non-negative integer below 2^53")?,
        };
        Ok(StreamSpec {
            model,
            tiles,
            points_per_tile,
            steps,
            window,
            windows_per_tile,
            budget_tiles,
            threads,
            seed,
        })
    }
}

fn field_usize(value: &Json, name: &str, default: usize) -> Result<usize, String> {
    match value.get(name) {
        None => Ok(default),
        Some(v) => v
            .as_usize()
            .ok_or_else(|| format!("{name:?} must be a non-negative integer below 2^53")),
    }
}

/// `tiles * tiles * points_per_tile`, or `None` when it overflows `usize`.
fn world_points(tiles: usize, points_per_tile: usize) -> Option<usize> {
    tiles.checked_mul(tiles)?.checked_mul(points_per_tile)
}

/// Serial for scratch directories, so concurrent stream jobs in one
/// process never collide.
static SCRATCH_SERIAL: AtomicU64 = AtomicU64::new(0);

/// Runs a validated stream job: shards a world under a scratch
/// directory, attacks it window by window on `runtime`, removes the
/// scratch, and renders the summary JSON the worker answers with.
pub fn run_stream(
    spec: &StreamSpec,
    model: &dyn SegmentationModel,
    runtime: &Runtime,
) -> Result<String, String> {
    let serial = SCRATCH_SERIAL.fetch_add(1, Ordering::Relaxed);
    let dir: PathBuf =
        std::env::temp_dir().join(format!("colperd-stream-{}-{serial}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let mut world_cfg = TiledWorldConfig::grid(spec.tiles as u32, spec.points_per_tile);
    world_cfg.world_seed = spec.seed;
    let budget_bytes = spec.budget_tiles * world_cfg.tile_bytes();

    let mut cfg = StreamConfig::new(AttackConfig::non_targeted(spec.steps));
    cfg.window_core = spec.window;
    cfg.windows_per_tile = spec.windows_per_tile;
    cfg.seed = spec.seed;

    let result = runtime.install(|| -> Result<StreamOutcome, String> {
        let world =
            TiledWorld::create(&dir, &world_cfg).map_err(|e| format!("cannot shard world: {e}"))?;
        let mut store = ShardStore::new(world, budget_bytes);
        StreamingAttack::new(cfg)
            .runtime(runtime)
            .run(model, &mut store)
            .map_err(|e| format!("stream attack failed: {e}"))
    });
    std::fs::remove_dir_all(&dir).ok();
    let outcome = result?;

    Ok(format!(
        concat!(
            "{{\"model\":\"{}\",\"priority\":\"batch\",\"total_points\":{},",
            "\"tiles\":{},\"windows\":{},\"points_attacked\":{},\"halo_points\":{},",
            "\"clean_accuracy\":{},\"clean_miou\":{},",
            "\"adversarial_accuracy\":{},\"adversarial_miou\":{},",
            "\"attack_success\":{},\"l2_sq\":{},",
            "\"peak_resident_bytes\":{},\"budget_bytes\":{},\"evictions\":{},",
            "\"warm_hit_rate\":{}}}"
        ),
        spec.model.name(),
        spec.total_points(),
        outcome.tiles,
        outcome.windows,
        outcome.points_attacked,
        outcome.halo_points,
        jf(outcome.clean.accuracy()),
        jf(outcome.clean.mean_iou()),
        jf(outcome.adversarial.accuracy()),
        jf(outcome.adversarial.mean_iou()),
        jf(outcome.attack_success()),
        jf(outcome.total_l2_sq),
        outcome.residency.peak_bytes,
        outcome.residency.budget_bytes,
        outcome.residency.evictions,
        jf(outcome.warm_hit_rate()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(body: &str) -> Result<StreamSpec, String> {
        StreamSpec::from_json(&Json::parse(body).expect("test bodies are valid JSON"))
    }

    #[test]
    fn defaults_fill_an_empty_object() {
        let job = spec("{}").unwrap();
        assert_eq!(job.model, ModelKind::PointNet);
        assert_eq!(job.tiles, 2);
        assert_eq!(job.points_per_tile, 512);
        assert_eq!(job.steps, 5);
        assert_eq!(job.window, 256);
        assert_eq!(job.windows_per_tile, None);
        assert_eq!(job.budget_tiles, 2);
        assert_eq!(job.threads, 1);
        assert_eq!(job.total_points(), 2048);
    }

    #[test]
    fn limits_are_enforced() {
        assert!(spec(r#"{"tiles":0}"#).unwrap_err().contains("tiles"));
        assert!(spec(r#"{"tiles":9}"#).unwrap_err().contains("tiles"));
        assert!(spec(r#"{"points_per_tile":8}"#).unwrap_err().contains("points_per_tile"));
        assert!(spec(r#"{"tiles":8,"points_per_tile":4096}"#).unwrap_err().contains("cap"));
        assert!(spec(r#"{"steps":0}"#).unwrap_err().contains("steps"));
        assert!(spec(r#"{"window":0}"#).unwrap_err().contains("window"));
        assert!(spec(r#"{"windows_per_tile":0}"#).unwrap_err().contains("windows_per_tile"));
        assert!(spec(r#"{"budget_tiles":0}"#).unwrap_err().contains("budget_tiles"));
        assert!(spec(r#"{"tiles":2,"budget_tiles":5}"#).unwrap_err().contains("budget_tiles"));
        assert!(spec(r#"{"model":"transformer"}"#).unwrap_err().contains("unknown model"));
        assert!(spec(r#"[]"#).unwrap_err().contains("object"));
    }

    #[test]
    fn oversized_worlds_are_rejected_not_wrapped() {
        // 2 * 2 * 2^62 wraps to 0 in unchecked release arithmetic, which
        // would pass the cap; 2^62 is also past the exact-integer range.
        let err = spec(r#"{"tiles":2,"points_per_tile":4611686018427387904}"#).unwrap_err();
        assert!(err.contains("points_per_tile") && err.contains("2^53"), "{err}");
        let err = spec(r#"{"tiles":8,"points_per_tile":9007199254740991}"#).unwrap_err();
        assert!(err.contains("cap"), "{err}");
        assert_eq!(world_points(2, usize::MAX / 2), None);
        assert_eq!(world_points(usize::MAX, 2), None);
        assert_eq!(world_points(3, 128), Some(1152));
        let huge = StreamSpec { points_per_tile: usize::MAX, ..spec("{}").unwrap() };
        assert_eq!(huge.total_points(), usize::MAX, "saturates instead of wrapping");
    }

    #[test]
    fn seeds_past_2_pow_53_are_rejected_not_rounded() {
        assert_eq!(spec(r#"{"seed":9007199254740991}"#).unwrap().seed, 9_007_199_254_740_991);
        let err = spec(r#"{"seed":9007199254740993}"#).unwrap_err();
        assert!(err.contains("seed") && err.contains("2^53"), "{err}");
    }

    #[test]
    fn explicit_fields_parse() {
        let job = spec(
            r#"{"model":"resgcn","tiles":3,"points_per_tile":128,"steps":9,
                "window":64,"windows_per_tile":2,"budget_tiles":4,"threads":2,"seed":11}"#,
        )
        .unwrap();
        assert_eq!(job.model, ModelKind::ResGcn);
        assert_eq!(job.tiles, 3);
        assert_eq!(job.points_per_tile, 128);
        assert_eq!(job.steps, 9);
        assert_eq!(job.window, 64);
        assert_eq!(job.windows_per_tile, Some(2));
        assert_eq!(job.budget_tiles, 4);
        assert_eq!(job.threads, 2);
        assert_eq!(job.seed, 11);
    }
}
