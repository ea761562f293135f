//! The `POST /attack` job vocabulary.
//!
//! A job spec is a small JSON object; every field is optional:
//!
//! ```json
//! {
//!   "model": "pointnet",          // or "resgcn"
//!   "points": 64,                 // synthetic-scene size when no cloud is inlined
//!   "seed": 7,                    // scene + attack seed
//!   "steps": 5,                   // optimization iterations (≤ 1000)
//!   "objective": "non_targeted",  // attack objective id: "targeted(3)",
//!                                 // "noise(4)", "transfer(0.5)", "boundary(4)"
//!   "priority": "interactive",    // or "batch"
//!   "threads": 1,                 // per-job runtime budget
//!   "stream": false,              // true → per-step JSONL instead of a result object
//!   "cloud": {                    // optional inline cloud (else a scene is generated)
//!     "xyz": [[x, y, z], ...],
//!     "colors": [[r, g, b], ...],
//!     "labels": [l, ...]
//!   }
//! }
//! ```
//!
//! Parsing distinguishes the two client-fault classes the HTTP layer
//! reports: bytes that are not JSON are a `400` (handled before this
//! module runs), while a well-formed object that names an unknown model,
//! blows a limit, or inlines an inconsistent cloud is a `422` — the
//! distinction tells a client whether to fix its encoder or its request.
//! The removed `"goal"`/`"target"` fields are a `422` naming
//! `"objective"`, so an old targeted request never runs as a
//! non-targeted job.

use crate::json::Json;
use crate::pool::ModelKind;
use crate::queue::Priority;
use colper_attack::{AttackConfig, Objective};
use colper_geom::Point3;
use colper_models::CloudTensors;
use colper_tensor::Matrix;

/// Class count of every zoo model (the S3DIS label set).
pub const NUM_CLASSES: usize = 13;

/// Most points a job may attack, inline or synthetic.
pub const MAX_POINTS: usize = 4096;

/// Fewest points a job may attack (the smoothness penalty needs a
/// neighborhood).
pub const MIN_POINTS: usize = 16;

/// Most optimization steps a job may request.
pub const MAX_STEPS: usize = 1000;

/// A validated attack job, ready to queue.
#[derive(Debug)]
pub struct JobSpec {
    /// Victim model.
    pub model: ModelKind,
    /// Synthetic-scene point count (ignored when `cloud` is inlined).
    pub points: usize,
    /// Scene + attack seed.
    pub seed: u64,
    /// The attack objective ([`Objective::id`] names it in responses).
    pub objective: Objective,
    /// Optimization iterations.
    pub steps: usize,
    /// Scheduling class.
    pub priority: Priority,
    /// Requested per-job thread budget (the server clamps this to its
    /// runtime's pool).
    pub threads: usize,
    /// Stream per-step JSONL instead of returning a result object.
    pub stream: bool,
    /// Inline cloud, already lifted to tensors.
    pub cloud: Option<CloudTensors>,
}

impl JobSpec {
    /// The point count this job will actually run with.
    pub fn effective_points(&self) -> usize {
        self.cloud.as_ref().map_or(self.points, CloudTensors::len)
    }

    /// The attack configuration this job resolves to.
    pub fn attack_config(&self) -> AttackConfig {
        AttackConfig { objective: self.objective.clone(), ..AttackConfig::non_targeted(self.steps) }
    }

    /// Parses and validates a job spec from a decoded JSON value.
    /// `Err` carries a client-readable reason and maps to `422`.
    pub fn from_json(value: &Json) -> Result<JobSpec, String> {
        let Json::Obj(_) = value else {
            return Err("job spec must be a JSON object".into());
        };

        let model = match value.get("model") {
            None => ModelKind::PointNet,
            Some(m) => {
                let name = m.as_str().ok_or("\"model\" must be a string")?;
                ModelKind::parse(name).ok_or_else(|| format!("unknown model {name:?}"))?
            }
        };
        let points = field_usize(value, "points", 64)?;
        let seed = match value.get("seed") {
            None => 0,
            Some(s) => s.as_u64().ok_or("\"seed\" must be a non-negative integer below 2^53")?,
        };
        let steps = field_usize(value, "steps", 5)?;
        if steps == 0 || steps > MAX_STEPS {
            return Err(format!("\"steps\" must be in 1..={MAX_STEPS}, got {steps}"));
        }
        if value.get("goal").is_some() || value.get("target").is_some() {
            return Err("\"goal\" and \"target\" were removed: name the attack with \
                        \"objective\", e.g. \"objective\":\"targeted(3)\""
                .to_string());
        }
        // The one vocabulary the matrix runner and service clients share:
        // an `Objective` id string, e.g. "targeted(3)" or "transfer(0.5)".
        // Unknown ids and malformed parameters map to 422 with the
        // parser's reason.
        let objective = match value.get("objective") {
            None => Objective::NonTargeted,
            Some(o) => Objective::parse(o.as_str().ok_or("\"objective\" must be a string")?)?,
        };
        if let Objective::Targeted { target } = objective {
            if target >= NUM_CLASSES {
                return Err(format!(
                    "\"target\" must name one of the {NUM_CLASSES} classes, got {target}"
                ));
            }
        }
        let priority = match value.get("priority") {
            None => Priority::Interactive,
            Some(p) => {
                let name = p.as_str().ok_or("\"priority\" must be a string")?;
                Priority::parse(name).ok_or_else(|| format!("unknown priority {name:?}"))?
            }
        };
        let threads = field_usize(value, "threads", 1)?.max(1);
        let stream = match value.get("stream") {
            None => false,
            Some(s) => s.as_bool().ok_or("\"stream\" must be a boolean")?,
        };
        let cloud = match value.get("cloud") {
            None => None,
            Some(c) => Some(cloud_from_json(c)?),
        };

        let effective = cloud.as_ref().map_or(points, CloudTensors::len);
        if !(MIN_POINTS..=MAX_POINTS).contains(&effective) {
            return Err(format!(
                "point count must be in {MIN_POINTS}..={MAX_POINTS}, got {effective}"
            ));
        }

        Ok(JobSpec { model, points, seed, objective, steps, priority, threads, stream, cloud })
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

fn triples(value: &Json, name: &str) -> Result<Vec<[f32; 3]>, String> {
    let rows = value
        .get(name)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("\"cloud\" requires an array {name:?}"))?;
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            let row = row
                .as_arr()
                .filter(|r| r.len() == 3)
                .ok_or_else(|| format!("{name:?}[{i}] must be an array of 3 numbers"))?;
            let mut out = [0.0f32; 3];
            for (slot, v) in out.iter_mut().zip(row) {
                *slot =
                    v.as_f64().ok_or_else(|| format!("{name:?}[{i}] holds a non-number"))? as f32;
            }
            Ok(out)
        })
        .collect()
}

/// Lifts an inline `{"xyz", "colors", "labels"}` object to tensors.
/// Value-level validation (finite coordinates, colors in `[0, 1]`,
/// labels below the class count) is the intake's job via
/// [`colper_attack::validate_clouds`]; this only checks shape.
fn cloud_from_json(value: &Json) -> Result<CloudTensors, String> {
    let xyz = triples(value, "xyz")?;
    let colors = triples(value, "colors")?;
    let labels: Vec<usize> = value
        .get("labels")
        .and_then(Json::as_arr)
        .ok_or("\"cloud\" requires an array \"labels\"")?
        .iter()
        .enumerate()
        .map(|(i, l)| {
            l.as_usize()
                .ok_or_else(|| format!("\"labels\"[{i}] must be a non-negative integer below 2^53"))
        })
        .collect::<Result<_, _>>()?;

    let n = xyz.len();
    if colors.len() != n || labels.len() != n {
        return Err(format!(
            "\"cloud\" arrays disagree on length: {} xyz, {} colors, {} labels",
            n,
            colors.len(),
            labels.len()
        ));
    }

    let coords: Vec<Point3> = xyz.iter().map(|&[x, y, z]| Point3::new(x, y, z)).collect();
    let flat = |rows: &[[f32; 3]]| rows.iter().flatten().copied().collect::<Vec<f32>>();
    let xyz_m = Matrix::from_vec(n, 3, flat(&xyz)).expect("shape checked above");
    let colors_m = Matrix::from_vec(n, 3, flat(&colors)).expect("shape checked above");

    // Normalized location within the cloud's bounding box — the same
    // convention as `colper_scene::normalize::location01`.
    let mut lo = [f32::INFINITY; 3];
    let mut hi = [f32::NEG_INFINITY; 3];
    for row in &xyz {
        for a in 0..3 {
            lo[a] = lo[a].min(row[a]);
            hi[a] = hi[a].max(row[a]);
        }
    }
    let loc01 = Matrix::from_fn(n, 3, |i, a| {
        let extent = hi[a] - lo[a];
        if extent > 0.0 {
            (xyz[i][a] - lo[a]) / extent
        } else {
            0.5
        }
    });

    Ok(CloudTensors {
        coords,
        xyz: xyz_m,
        colors: colors_m,
        loc01,
        labels,
        num_classes: NUM_CLASSES,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(body: &str) -> Result<JobSpec, String> {
        JobSpec::from_json(&Json::parse(body).expect("test bodies are valid JSON"))
    }

    #[test]
    fn defaults_fill_an_empty_object() {
        let job = spec("{}").unwrap();
        assert_eq!(job.model, ModelKind::PointNet);
        assert_eq!(job.points, 64);
        assert_eq!(job.steps, 5);
        assert_eq!(job.objective, Objective::NonTargeted);
        assert_eq!(job.priority, Priority::Interactive);
        assert_eq!(job.threads, 1);
        assert!(!job.stream);
        assert!(job.cloud.is_none());
    }

    #[test]
    fn explicit_fields_parse() {
        let job = spec(
            r#"{"model":"resgcn","points":128,"seed":9,"steps":20,
                "objective":"targeted(3)","priority":"batch","threads":4,"stream":true}"#,
        )
        .unwrap();
        assert_eq!(job.model, ModelKind::ResGcn);
        assert_eq!(job.points, 128);
        assert_eq!(job.seed, 9);
        assert_eq!(job.objective, Objective::Targeted { target: 3 });
        assert_eq!(job.priority, Priority::Batch);
        assert_eq!(job.threads, 4);
        assert!(job.stream);
        assert_eq!(job.attack_config().steps, 20);
    }

    #[test]
    fn limits_and_vocabulary_are_enforced() {
        assert!(spec(r#"{"model":"transformer"}"#).unwrap_err().contains("unknown model"));
        assert!(spec(r#"{"steps":0}"#).unwrap_err().contains("steps"));
        assert!(spec(r#"{"steps":5000}"#).unwrap_err().contains("steps"));
        assert!(spec(r#"{"points":4}"#).unwrap_err().contains("point count"));
        assert!(spec(r#"{"points":100000}"#).unwrap_err().contains("point count"));
        assert!(spec(r#"{"priority":"urgent"}"#).unwrap_err().contains("unknown priority"));
        assert!(spec(r#"{"seed":-1}"#).unwrap_err().contains("seed"));
        // Parsed through an f64, 2^53 + 1 would silently run seed 2^53.
        assert!(spec(r#"{"seed":9007199254740993}"#).unwrap_err().contains("below 2^53"));
        assert!(spec(r#"[1,2,3]"#).unwrap_err().contains("object"));
    }

    #[test]
    fn objective_ids_parse() {
        assert_eq!(
            spec(r#"{"objective":"targeted(3)"}"#).unwrap().objective,
            Objective::Targeted { target: 3 }
        );
        assert_eq!(
            spec(r#"{"objective":"transfer(0.5)"}"#).unwrap().objective,
            Objective::Transfer { gamma: 0.5 }
        );
        assert_eq!(
            spec(r#"{"objective":"boundary(4)"}"#).unwrap().objective,
            Objective::Boundary { k: 4 }
        );
        assert_eq!(
            spec(r#"{"objective":"noise(4)"}"#).unwrap().objective,
            Objective::NoiseBaseline { l2_sq: 4.0 }
        );
        // Targeted objectives hit the class-count guard, and
        // attack_config carries the objective through.
        assert!(spec(r#"{"objective":"targeted(99)"}"#).unwrap_err().contains("classes"));
        let cfg = spec(r#"{"objective":"targeted(3)","steps":7}"#).unwrap().attack_config();
        assert_eq!(cfg, AttackConfig::targeted(7, 3));
    }

    #[test]
    fn unknown_objectives_and_removed_goal_fields_are_422() {
        assert!(spec(r#"{"objective":"warp(2)"}"#).unwrap_err().contains("warp"));
        assert!(spec(r#"{"objective":"transfer("}"#).is_err());
        // The removed goal vocabulary never runs as a non-targeted job:
        // every body carrying it is refused with the field to use.
        for body in [
            r#"{"goal":"targeted","target":3}"#,
            r#"{"goal":"targeted"}"#,
            r#"{"goal":"non_targeted"}"#,
            r#"{"target":3}"#,
            r#"{"objective":"non_targeted","goal":"non_targeted"}"#,
        ] {
            assert!(spec(body).unwrap_err().contains("\"objective\""), "{body}");
        }
    }

    #[test]
    fn inline_cloud_lifts_to_tensors() {
        // 16 points on a line, alternating two colors.
        let xyz: Vec<String> = (0..16).map(|i| format!("[{}.0, 0.0, 0.0]", i)).collect();
        let colors: Vec<String> = (0..16).map(|i| format!("[{}.0, 0.5, 0.25]", i % 2)).collect();
        let labels: Vec<String> = (0..16).map(|i| format!("{}", i % 13)).collect();
        let body = format!(
            r#"{{"cloud":{{"xyz":[{}],"colors":[{}],"labels":[{}]}}}}"#,
            xyz.join(","),
            colors.join(","),
            labels.join(",")
        );
        let job = spec(&body).unwrap();
        let cloud = job.cloud.as_ref().unwrap();
        assert_eq!(job.effective_points(), 16);
        assert_eq!(cloud.coords[3], Point3::new(3.0, 0.0, 0.0));
        assert_eq!(cloud.colors[(1, 0)], 1.0);
        // loc01 spans [0, 1] on x, collapses to 0.5 on flat axes.
        assert_eq!(cloud.loc01[(0, 0)], 0.0);
        assert_eq!(cloud.loc01[(15, 0)], 1.0);
        assert_eq!(cloud.loc01[(7, 1)], 0.5);
        // Value-level validation is deferred to the intake.
        assert!(colper_attack::validate_clouds(std::slice::from_ref(cloud), NUM_CLASSES).is_ok());
    }

    #[test]
    fn inline_cloud_shape_mismatch_is_rejected() {
        let body = r#"{"cloud":{"xyz":[[0,0,0],[1,1,1]],"colors":[[0,0,0]],"labels":[1,2]}}"#;
        assert!(spec(body).unwrap_err().contains("disagree"));
        let body = r#"{"cloud":{"xyz":[[0,0]],"colors":[[0,0,0]],"labels":[1]}}"#;
        assert!(spec(body).unwrap_err().contains("3 numbers"));
    }
}
