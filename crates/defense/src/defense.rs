//! The composable [`Defense`] trait and the built-in defense stages.
//!
//! Every input-side defense is a value with a **stable string id** (the
//! registry key used by the robustness matrix and `colperd`) and an
//! `apply` that rewrites a cloud before the model sees it. Stages are
//! chainable through [`crate::DefensePipeline`]; randomized stages draw
//! from a caller-supplied `StdRng` so the whole chain is deterministic
//! under a fixed seed.
//!
//! The id grammar doubles as the parse grammar: `Defense::id()` of any
//! built-in stage round-trips through [`parse_defense`].
//!
//! | id | stage | family |
//! |----|-------|--------|
//! | `identity` | [`Identity`] | reference (no defense) |
//! | `quantize(BITS)` | [`Quantize`] | bit-depth reduction (1901.03006) |
//! | `smooth(K)` | [`Smooth`] | k-NN color denoising (DUP-Net idea) |
//! | `jitter(SIGMA)` | [`Jitter`] | uniform color noise |
//! | `grayscale` | [`Grayscale`] | chroma removal |
//! | `gauss(SIGMA)` | [`GaussianNoise`] | Gaussian preprocessing (1902.10899) |
//! | `sor(K,MULT)` | [`OutlierRemoval`] | statistical outlier removal (1901.03006) |
//! | `drop(RATIO)` | [`RandomDrop`] | random point dropping (1901.03006) |

use colper_geom::knn_graph;
use colper_scene::PointCloud;
use rand::rngs::StdRng;
use rand::Rng;

/// An input-side defense: a named, reusable transform applied to a cloud
/// before inference.
///
/// Implementations must be pure given `(cloud, rng)`: the same cloud and
/// the same RNG state produce a bit-identical output cloud. Deterministic
/// stages simply ignore `rng` (and must not draw from it, so pipelines
/// stay reproducible when stages are reordered).
pub trait Defense: Send + Sync {
    /// Stable registry id, e.g. `"quantize(3)"`. Round-trips through
    /// [`parse_defense`] for every built-in stage.
    fn id(&self) -> String;

    /// Applies the defense, returning the defended cloud.
    fn apply(&self, cloud: &PointCloud, rng: &mut StdRng) -> PointCloud;

    /// Whether the stage consumes randomness (randomized defenses give
    /// different outputs under different seeds).
    fn is_randomized(&self) -> bool {
        false
    }
}

/// The identity defense: returns the cloud unchanged. The undefended
/// reference column of every robustness matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Identity;

impl Defense for Identity {
    fn id(&self) -> String {
        "identity".to_string()
    }

    fn apply(&self, cloud: &PointCloud, _rng: &mut StdRng) -> PointCloud {
        cloud.clone()
    }
}

/// Quantizes every color channel to `bits` of depth (bit-depth
/// reduction, the feature-squeezing defense of 1901.03006).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantize {
    /// Bits per channel (1–8).
    pub bits: u32,
}

impl Quantize {
    /// Creates the stage.
    ///
    /// # Panics
    ///
    /// Panics when `bits` is 0 or above 8.
    pub fn new(bits: u32) -> Self {
        assert!((1..=8).contains(&bits), "Quantize: bits must be 1-8");
        Self { bits }
    }
}

impl Defense for Quantize {
    fn id(&self) -> String {
        format!("quantize({})", self.bits)
    }

    fn apply(&self, cloud: &PointCloud, _rng: &mut StdRng) -> PointCloud {
        assert!((1..=8).contains(&self.bits), "Quantize: bits must be 1-8");
        let levels = (1u32 << self.bits) as f32 - 1.0;
        let mut out = cloud.clone();
        for c in &mut out.colors {
            for v in c {
                *v = (*v * levels).round() / levels;
            }
        }
        out
    }
}

/// Replaces each color by the mean over the point's `k` nearest spatial
/// neighbors (self included) — a color-channel denoiser, the DUP-Net
/// idea restricted to the color block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Smooth {
    /// Neighborhood size.
    pub k: usize,
}

impl Smooth {
    /// Creates the stage.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "Smooth: k must be positive");
        Self { k }
    }
}

impl Defense for Smooth {
    fn id(&self) -> String {
        format!("smooth({})", self.k)
    }

    fn apply(&self, cloud: &PointCloud, _rng: &mut StdRng) -> PointCloud {
        assert!(!cloud.is_empty(), "Smooth: empty cloud");
        assert!(self.k > 0, "Smooth: k must be positive");
        let k = self.k.min(cloud.len());
        let graph = knn_graph(&cloud.coords, k);
        let mut out = cloud.clone();
        for i in 0..cloud.len() {
            let mut acc = [0.0f32; 3];
            for j in 0..k {
                let nb = graph[i * k + j];
                for (a, v) in acc.iter_mut().zip(&cloud.colors[nb]) {
                    *a += v;
                }
            }
            for (o, a) in out.colors[i].iter_mut().zip(acc) {
                *o = a / k as f32;
            }
        }
        out
    }
}

/// Adds uniform noise of half-width `sigma` to every channel, clamped to
/// `[0, 1]` (a randomized-smoothing style defense).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jitter {
    /// Noise half-width.
    pub sigma: f32,
}

impl Jitter {
    /// Creates the stage.
    pub fn new(sigma: f32) -> Self {
        assert!(sigma >= 0.0, "Jitter: sigma must be non-negative");
        Self { sigma }
    }
}

impl Defense for Jitter {
    fn id(&self) -> String {
        format!("jitter({})", self.sigma)
    }

    fn apply(&self, cloud: &PointCloud, rng: &mut StdRng) -> PointCloud {
        let sigma = self.sigma;
        let mut out = cloud.clone();
        for c in &mut out.colors {
            for v in c {
                *v = (*v + rng.gen_range(-sigma..=sigma)).clamp(0.0, 1.0);
            }
        }
        out
    }

    fn is_randomized(&self) -> bool {
        true
    }
}

/// Projects every color onto its luma (Rec. 601 weights), removing the
/// chroma channels an attacker manipulates most freely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Grayscale;

impl Defense for Grayscale {
    fn id(&self) -> String {
        "grayscale".to_string()
    }

    fn apply(&self, cloud: &PointCloud, _rng: &mut StdRng) -> PointCloud {
        let mut out = cloud.clone();
        for c in &mut out.colors {
            let y = 0.299 * c[0] + 0.587 * c[1] + 0.114 * c[2];
            *c = [y, y, y];
        }
        out
    }
}

/// Adds zero-mean Gaussian noise of standard deviation `sigma` to every
/// channel, clamped to `[0, 1]` — the Gaussian-preprocessing defense of
/// 1902.10899 applied to the color block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianNoise {
    /// Noise standard deviation.
    pub sigma: f32,
}

impl GaussianNoise {
    /// Creates the stage.
    pub fn new(sigma: f32) -> Self {
        assert!(sigma >= 0.0, "GaussianNoise: sigma must be non-negative");
        Self { sigma }
    }
}

impl Defense for GaussianNoise {
    fn id(&self) -> String {
        format!("gauss({})", self.sigma)
    }

    fn apply(&self, cloud: &PointCloud, rng: &mut StdRng) -> PointCloud {
        let mut out = cloud.clone();
        for c in &mut out.colors {
            for v in c {
                *v = (*v + self.sigma * standard_normal(rng)).clamp(0.0, 1.0);
            }
        }
        out
    }

    fn is_randomized(&self) -> bool {
        true
    }
}

/// One draw from N(0, 1) via Box-Muller (the rand shim carries no normal
/// distribution). Consumes exactly two uniforms per call.
fn standard_normal(rng: &mut StdRng) -> f32 {
    let u1 = 1.0 - rng.gen::<f32>(); // (0, 1]: keeps ln() finite
    let u2 = rng.gen::<f32>();
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

/// Statistical outlier removal adapted to the color-only threat model
/// (1901.03006's SOR): drops points whose **color** deviates anomalously
/// from their spatial neighborhood.
///
/// Geometric SOR is a no-op here — COLPER never moves a point — so the
/// statistic is color-space: each point's mean Euclidean color distance
/// to its `k` nearest spatial neighbors, with points above
/// `mean + sigma_mult * std` removed. Labels and coordinates of the
/// surviving points are preserved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutlierRemoval {
    /// Spatial neighborhood size for the color statistic.
    pub k: usize,
    /// Cut-off in standard deviations above the mean deviation.
    pub sigma_mult: f32,
}

impl OutlierRemoval {
    /// Creates the stage.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0` or `sigma_mult` is negative.
    pub fn new(k: usize, sigma_mult: f32) -> Self {
        assert!(k > 0, "OutlierRemoval: k must be positive");
        assert!(sigma_mult >= 0.0, "OutlierRemoval: sigma_mult must be non-negative");
        Self { k, sigma_mult }
    }
}

impl Defense for OutlierRemoval {
    fn id(&self) -> String {
        format!("sor({},{})", self.k, self.sigma_mult)
    }

    fn apply(&self, cloud: &PointCloud, _rng: &mut StdRng) -> PointCloud {
        if cloud.len() <= 1 {
            return cloud.clone();
        }
        let k = self.k.min(cloud.len());
        let graph = knn_graph(&cloud.coords, k);
        let mut deviation = vec![0.0f32; cloud.len()];
        for (i, d) in deviation.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for j in 0..k {
                let nb = graph[i * k + j];
                let mut dist_sq = 0.0f32;
                for ch in 0..3 {
                    let diff = cloud.colors[i][ch] - cloud.colors[nb][ch];
                    dist_sq += diff * diff;
                }
                acc += dist_sq.sqrt();
            }
            *d = acc / k as f32;
        }
        let n = deviation.len() as f32;
        let mean = deviation.iter().sum::<f32>() / n;
        let var = deviation.iter().map(|d| (d - mean) * (d - mean)).sum::<f32>() / n;
        let cutoff = mean + self.sigma_mult * var.sqrt();
        let kept: Vec<usize> = (0..cloud.len()).filter(|&i| deviation[i] <= cutoff).collect();
        if kept.is_empty() {
            // Unreachable for sigma_mult >= 0 (the minimum deviation is
            // never above mean + 0*std), but guard anyway: downstream
            // models reject empty clouds.
            return cloud.clone();
        }
        cloud.select(&kept)
    }
}

/// Randomly drops a fraction of the points (1901.03006's random point
/// dropping): each point survives independently with probability
/// `1 - ratio`. At least one point always survives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomDrop {
    /// Expected fraction of points dropped, in `[0, 1)`.
    pub ratio: f32,
}

impl RandomDrop {
    /// Creates the stage.
    ///
    /// # Panics
    ///
    /// Panics when `ratio` is outside `[0, 1)`.
    pub fn new(ratio: f32) -> Self {
        assert!((0.0..1.0).contains(&ratio), "RandomDrop: ratio must be in [0, 1)");
        Self { ratio }
    }
}

impl Defense for RandomDrop {
    fn id(&self) -> String {
        format!("drop({})", self.ratio)
    }

    fn apply(&self, cloud: &PointCloud, rng: &mut StdRng) -> PointCloud {
        let kept: Vec<usize> =
            (0..cloud.len()).filter(|_| rng.gen::<f32>() >= self.ratio).collect();
        if kept.is_empty() {
            return cloud.select(&[0]);
        }
        cloud.select(&kept)
    }

    fn is_randomized(&self) -> bool {
        true
    }
}

/// Parses a single defense stage from its stable id, e.g. `"quantize(3)"`
/// or `"sor(8,1.5)"`. The inverse of [`Defense::id`] for every built-in
/// stage. Pipelines (`"a|b"`) are parsed by
/// [`crate::DefensePipeline::parse`].
pub fn parse_defense(token: &str) -> Result<Box<dyn Defense>, String> {
    let token = token.trim();
    let (name, args) = match token.find('(') {
        Some(open) => {
            let close = token
                .rfind(')')
                .ok_or_else(|| format!("defense `{token}`: missing closing `)`"))?;
            if close != token.len() - 1 {
                return Err(format!("defense `{token}`: trailing text after `)`"));
            }
            (&token[..open], token[open + 1..close].split(',').collect::<Vec<_>>())
        }
        None => (token, Vec::new()),
    };
    let want = |n: usize| -> Result<(), String> {
        if args.len() == n && args.iter().all(|a| !a.trim().is_empty()) {
            Ok(())
        } else {
            Err(format!("defense `{name}`: expected {n} argument(s)"))
        }
    };
    let num = |i: usize| -> Result<f32, String> {
        args[i]
            .trim()
            .parse::<f32>()
            .map_err(|_| format!("defense `{name}`: bad number `{}`", args[i].trim()))
    };
    let int = |i: usize| -> Result<usize, String> {
        args[i]
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("defense `{name}`: bad integer `{}`", args[i].trim()))
    };
    match name {
        "identity" => {
            want(0)?;
            Ok(Box::new(Identity))
        }
        "quantize" => {
            want(1)?;
            let bits = u32::try_from(int(0)?).unwrap_or(0);
            if !(1..=8).contains(&bits) {
                return Err("defense `quantize`: bits must be 1-8".to_string());
            }
            Ok(Box::new(Quantize::new(bits)))
        }
        "smooth" => {
            want(1)?;
            let k = int(0)?;
            if k == 0 {
                return Err("defense `smooth`: k must be positive".to_string());
            }
            Ok(Box::new(Smooth::new(k)))
        }
        "jitter" => {
            want(1)?;
            let sigma = num(0)?;
            if !sigma.is_finite() || sigma < 0.0 {
                return Err("defense `jitter`: sigma must be non-negative".to_string());
            }
            Ok(Box::new(Jitter::new(sigma)))
        }
        "grayscale" => {
            want(0)?;
            Ok(Box::new(Grayscale))
        }
        "gauss" => {
            want(1)?;
            let sigma = num(0)?;
            if !sigma.is_finite() || sigma < 0.0 {
                return Err("defense `gauss`: sigma must be non-negative".to_string());
            }
            Ok(Box::new(GaussianNoise::new(sigma)))
        }
        "sor" => {
            want(2)?;
            let k = int(0)?;
            let mult = num(1)?;
            if k == 0 {
                return Err("defense `sor`: k must be positive".to_string());
            }
            if !mult.is_finite() || mult < 0.0 {
                return Err("defense `sor`: sigma_mult must be non-negative".to_string());
            }
            Ok(Box::new(OutlierRemoval::new(k, mult)))
        }
        "drop" => {
            want(1)?;
            let ratio = num(0)?;
            if !(0.0..1.0).contains(&ratio) {
                return Err("defense `drop`: ratio must be in [0, 1)".to_string());
            }
            Ok(Box::new(RandomDrop::new(ratio)))
        }
        other => Err(format!("unknown defense `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colper_scene::{IndoorSceneConfig, SceneGenerator};
    use rand::SeedableRng;

    fn sample() -> PointCloud {
        SceneGenerator::indoor(IndoorSceneConfig::with_points(128)).generate(1)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn identity_is_a_no_op() {
        let cloud = sample();
        let out = Identity.apply(&cloud, &mut rng());
        assert_eq!(out.colors, cloud.colors);
        assert_eq!(out.coords, cloud.coords);
        assert_eq!(out.labels, cloud.labels);
    }

    #[test]
    fn ids_round_trip_through_parse() {
        let stages: Vec<Box<dyn Defense>> = vec![
            Box::new(Identity),
            Box::new(Quantize::new(3)),
            Box::new(Smooth::new(8)),
            Box::new(Jitter::new(0.08)),
            Box::new(Grayscale),
            Box::new(GaussianNoise::new(0.05)),
            Box::new(OutlierRemoval::new(8, 1.5)),
            Box::new(RandomDrop::new(0.25)),
        ];
        for stage in stages {
            let reparsed = parse_defense(&stage.id()).expect("id should parse");
            assert_eq!(reparsed.id(), stage.id());
            assert_eq!(reparsed.is_randomized(), stage.is_randomized());
        }
    }

    #[test]
    fn parse_rejects_unknown_and_malformed() {
        for bad in [
            "fog",
            "quantize",
            "quantize()",
            "quantize(0)",
            "quantize(9)",
            // 2^32 + 1 must not narrow to `quantize(1)`.
            "quantize(4294967297)",
            "drop(1.0)",
            "sor(8)",
        ] {
            assert!(parse_defense(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn quantize_reduces_distinct_values() {
        let cloud = sample();
        let q = Quantize::new(2).apply(&cloud, &mut rng());
        let mut distinct: Vec<u32> =
            q.colors.iter().flatten().map(|v| (v * 1000.0).round() as u32).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() <= 4, "2 bits -> at most 4 levels, got {}", distinct.len());
    }

    #[test]
    fn quantize_is_idempotent() {
        let cloud = sample();
        let once = Quantize::new(3).apply(&cloud, &mut rng());
        let twice = Quantize::new(3).apply(&once, &mut rng());
        assert_eq!(once.colors, twice.colors);
    }

    #[test]
    fn smooth_reduces_neighborhood_contrast() {
        let cloud = sample();
        let smoothed = Smooth::new(8).apply(&cloud, &mut rng());
        let contrast = |c: &PointCloud| -> f32 {
            let g = knn_graph(&c.coords, 4);
            let mut total = 0.0;
            for i in 0..c.len() {
                for j in 0..4 {
                    let nb = g[i * 4 + j];
                    for ch in 0..3 {
                        total += (c.colors[i][ch] - c.colors[nb][ch]).abs();
                    }
                }
            }
            total
        };
        assert!(contrast(&smoothed) < contrast(&cloud));
    }

    #[test]
    fn jitter_stays_in_unit_box() {
        let cloud = sample();
        let j = Jitter::new(0.3).apply(&cloud, &mut rng());
        assert!(j.colors.iter().flatten().all(|&v| (0.0..=1.0).contains(&v)));
        assert_ne!(j.colors, cloud.colors);
    }

    #[test]
    fn grayscale_equalizes_channels() {
        let cloud = sample();
        for c in &Grayscale.apply(&cloud, &mut rng()).colors {
            assert_eq!(c[0], c[1]);
            assert_eq!(c[1], c[2]);
        }
    }

    #[test]
    fn transforms_preserve_geometry_and_labels() {
        let cloud = sample();
        let stages: Vec<Box<dyn Defense>> = vec![
            Box::new(Quantize::new(4)),
            Box::new(Smooth::new(5)),
            Box::new(Jitter::new(0.1)),
            Box::new(Grayscale),
        ];
        for stage in stages {
            let d = stage.apply(&cloud, &mut rng());
            assert_eq!(d.coords, cloud.coords, "{}", stage.id());
            assert_eq!(d.labels, cloud.labels, "{}", stage.id());
        }
    }

    #[test]
    fn labels_are_informative() {
        assert!(Quantize::new(3).id().contains('3'));
        assert!(Smooth::new(7).id().contains('7'));
    }

    #[test]
    fn gaussian_noise_stays_in_unit_box_and_is_seeded() {
        let cloud = sample();
        let a = GaussianNoise::new(0.1).apply(&cloud, &mut rng());
        let b = GaussianNoise::new(0.1).apply(&cloud, &mut rng());
        assert_eq!(a.colors, b.colors, "same seed, same output");
        assert!(a.colors.iter().flatten().all(|&v| (0.0..=1.0).contains(&v)));
        assert_ne!(a.colors, cloud.colors);
    }

    #[test]
    fn outlier_removal_drops_a_planted_color_outlier() {
        let mut cloud = sample();
        for c in &mut cloud.colors {
            *c = [0.5, 0.5, 0.5];
        }
        cloud.colors[13] = [1.0, 0.0, 1.0];
        let defended = OutlierRemoval::new(8, 2.0).apply(&cloud, &mut rng());
        assert_eq!(defended.len(), cloud.len() - 1, "exactly the outlier goes");
        assert!(defended.colors.iter().all(|c| *c == [0.5, 0.5, 0.5]));
    }

    #[test]
    fn outlier_removal_keeps_uniform_clouds_intact() {
        let mut cloud = sample();
        for c in &mut cloud.colors {
            *c = [0.25, 0.5, 0.75];
        }
        let defended = OutlierRemoval::new(8, 1.0).apply(&cloud, &mut rng());
        assert_eq!(defended.len(), cloud.len());
    }

    #[test]
    fn random_drop_removes_roughly_the_requested_fraction() {
        let cloud = sample();
        let defended = RandomDrop::new(0.5).apply(&cloud, &mut rng());
        assert!(defended.len() < cloud.len());
        assert!(!defended.is_empty());
        let frac = defended.len() as f32 / cloud.len() as f32;
        assert!((0.2..=0.8).contains(&frac), "kept fraction {frac} far from 0.5");
    }

    #[test]
    fn subset_defenses_preserve_label_alignment() {
        let cloud = sample();
        for defended in [
            OutlierRemoval::new(6, 1.0).apply(&cloud, &mut rng()),
            RandomDrop::new(0.3).apply(&cloud, &mut rng()),
        ] {
            for i in 0..defended.len() {
                let orig = cloud
                    .coords
                    .iter()
                    .position(|c| *c == defended.coords[i])
                    .expect("defended point must come from the original cloud");
                assert_eq!(defended.labels[i], cloud.labels[orig]);
                assert_eq!(defended.colors[i], cloud.colors[orig]);
            }
        }
    }
}
