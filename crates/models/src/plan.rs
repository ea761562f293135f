//! The geometry-plan cache layer.
//!
//! Every structure a forward pass derives from point *coordinates* alone
//! — FPS centroids, ball-query groupings and 3-NN interpolation weights
//! (PointNet++), dilated k-NN graphs (ResGCN), the full-resolution k-NN
//! graph and kd-tree (RandLA-Net) — is a pure function of the cloud's
//! coordinates and the model configuration. COLPER perturbs only colors,
//! so during an attack (hundreds of iterations × gradient samples over
//! one cloud) these structures never change; recomputing them every
//! forward pass dominated the step time.
//!
//! A [`GeometryPlan`] is computed once per (model, cloud) via
//! [`crate::SegmentationModel::plan`] and threaded through
//! [`crate::ModelInput`]. Forward passes *always* consume a plan —
//! building one on the fly when the caller did not supply one — so the
//! planned and plan-free paths execute identical code and produce
//! bit-identical logits.
//!
//! RandLA-Net's random downsampling is per-pass state and is **not**
//! cached; its coarse-level graphs are instead answered by filtered
//! queries against the cached full-resolution kd-tree
//! ([`colper_geom::subset_knn_graph`] / [`colper_geom::subset_nearest`]).

use crate::{PointNet2Config, RandLaNetConfig, ResGcnConfig};
use colper_geom::{
    ball_query, dilated_knn, farthest_point_sampling, knn_graph, three_nn_weights, KdTree, Point3,
};
use colper_tensor::GatherIndex;
use std::sync::Arc;

/// Pre-computed coordinate-only structures for one (model config, cloud)
/// pair. Obtain one from [`crate::SegmentationModel::plan`]; the variant
/// always matches the model that built it.
#[derive(Debug)]
pub enum GeometryPlan {
    /// Plan for [`crate::PointNet2`].
    PointNet2(PointNet2Plan),
    /// Plan for [`crate::ResGcn`].
    ResGcn(ResGcnPlan),
    /// Plan for [`crate::RandLaNet`].
    RandLa(RandLaPlan),
}

impl GeometryPlan {
    /// Number of points of the cloud the plan was built for.
    pub fn num_points(&self) -> usize {
        match self {
            GeometryPlan::PointNet2(p) => p.n,
            GeometryPlan::ResGcn(p) => p.n,
            GeometryPlan::RandLa(p) => p.n,
        }
    }

    /// The model family the plan was built for (for error messages).
    pub fn kind(&self) -> &'static str {
        match self {
            GeometryPlan::PointNet2(_) => "pointnet++",
            GeometryPlan::ResGcn(_) => "resgcn",
            GeometryPlan::RandLa(_) => "randla-net",
        }
    }
}

/// One feature-propagation level's interpolation payload: 3-NN indices
/// and matching inverse-distance weights, `Arc`-interned for sharing
/// with the tape.
pub(crate) type InterpLevel = (Arc<[usize]>, Arc<[f32]>);

/// One set-abstraction level of a [`PointNet2Plan`].
///
/// Index lists are `Arc`-interned so each forward pass shares them with
/// the tape instead of copying them into every recorded gather op.
#[derive(Debug)]
pub struct PointNet2SaLevel {
    /// FPS-selected centroid indices into the level's point set.
    pub(crate) centroid_idx: Arc<[usize]>,
    /// Flattened `[m * k]` ball-query neighbor indices.
    pub(crate) neighbors: Arc<[usize]>,
    /// Flattened `[m * k]` centroid index repeated per neighbor slot.
    pub(crate) center_flat: Arc<[usize]>,
    /// Neighbors per ball at this level.
    pub(crate) k: usize,
}

/// Cached geometry for a PointNet++ forward pass: per-SA-level FPS
/// centroids and ball-query groupings, per-FP-level 3-NN interpolation
/// indices and weights.
#[derive(Debug)]
pub struct PointNet2Plan {
    pub(crate) n: usize,
    pub(crate) sa: Vec<PointNet2SaLevel>,
    /// Per FP level (coarsest first): 3-NN indices and inverse-distance
    /// weights interpolating coarse features onto the finer level.
    pub(crate) fp: Vec<InterpLevel>,
}

pub(crate) fn plan_pointnet2(config: &PointNet2Config, coords: &[Point3]) -> PointNet2Plan {
    assert!(!coords.is_empty(), "PointNet2: empty input");
    let levels = config.sa_npoints.len();
    let mut coords_lv: Vec<Vec<Point3>> = vec![coords.to_vec()];
    let mut sa = Vec::with_capacity(levels);
    for i in 0..levels {
        let cur = &coords_lv[i];
        let m = config.sa_npoints[i].min(cur.len());
        let centroid_idx = farthest_point_sampling(cur, m, 0);
        let centroids: Vec<Point3> = centroid_idx.iter().map(|&j| cur[j]).collect();
        let k = config.sa_k[i];
        let neighbors = ball_query(cur, &centroids, config.sa_radii[i], k);
        let center_flat: Vec<usize> =
            centroid_idx.iter().flat_map(|&c| std::iter::repeat_n(c, k)).collect();
        sa.push(PointNet2SaLevel {
            centroid_idx: centroid_idx.into(),
            neighbors: neighbors.into(),
            center_flat: center_flat.into(),
            k,
        });
        coords_lv.push(centroids);
    }
    let mut fp = Vec::with_capacity(levels);
    for j in 0..levels {
        let fine = levels - 1 - j;
        let (idx, w) = three_nn_weights(&coords_lv[fine + 1], &coords_lv[fine]);
        fp.push((idx.into(), w.into()));
    }
    PointNet2Plan { n: coords.len(), sa, fp }
}

/// Cached geometry for a ResGCN forward pass: one dilated k-NN graph per
/// distinct dilation in the block schedule, each with the inverse the
/// edge-feature backward scatters through.
#[derive(Debug)]
pub struct ResGcnPlan {
    pub(crate) n: usize,
    /// Effective neighbor count (`config.k` capped at the cloud size).
    pub(crate) k: usize,
    /// Dilation used by each block (`1 + b % max_dilation`).
    pub(crate) dilations: Vec<usize>,
    /// `graphs[d]` is the dilated k-NN graph for dilation `d`: edge
    /// `i * k + j` reads point `i`'s `j`-th neighbor.
    pub(crate) graphs: Vec<Option<Arc<GatherIndex>>>,
    /// Flattened `[n * k]` center indices (`i` repeated `k` times).
    pub(crate) center: Arc<GatherIndex>,
    /// `[n]` zeros: gathers the global mean row back onto every point.
    pub(crate) global_rep: Arc<[usize]>,
}

pub(crate) fn plan_resgcn(config: &ResGcnConfig, coords: &[Point3]) -> ResGcnPlan {
    assert!(!coords.is_empty(), "ResGcn: empty input");
    let n = coords.len();
    let k = config.k.min(n);
    let dilations: Vec<usize> = (0..config.blocks).map(|b| 1 + b % config.max_dilation).collect();
    let mut graphs: Vec<Option<Arc<GatherIndex>>> = vec![None; config.max_dilation + 1];
    for &d in &dilations {
        if graphs[d].is_none() {
            graphs[d] = Some(Arc::new(GatherIndex::new(dilated_knn(coords, k, d), n)));
        }
    }
    let center: Vec<usize> = (0..n).flat_map(|i| std::iter::repeat_n(i, k)).collect();
    ResGcnPlan {
        n,
        k,
        dilations,
        graphs,
        center: Arc::new(GatherIndex::new(center, n)),
        global_rep: vec![0usize; n].into(),
    }
}

/// Cached geometry for a RandLA-Net forward pass: the full-resolution
/// kd-tree and k-NN graph. Coarse levels depend on the per-pass random
/// downsampling and are answered at forward time by filtered queries
/// against `tree`.
#[derive(Debug)]
pub struct RandLaPlan {
    pub(crate) n: usize,
    /// Effective neighbor count (`config.k` capped at the cloud size).
    pub(crate) k: usize,
    /// kd-tree over the full-resolution cloud, shared by every level.
    pub(crate) tree: KdTree,
    /// Full-resolution `[n * k]` k-NN graph (stage 0's neighborhoods).
    pub(crate) knn0: Arc<[usize]>,
    /// Flattened `[n * k]` center indices for stage 0.
    pub(crate) center_flat0: Arc<[usize]>,
}

pub(crate) fn plan_randlanet(config: &RandLaNetConfig, coords: &[Point3]) -> RandLaPlan {
    assert!(!coords.is_empty(), "RandLaNet: empty input");
    let n = coords.len();
    let k = config.k.min(n);
    let tree = KdTree::build(coords);
    let knn0 = knn_graph(coords, k);
    let center_flat0: Vec<usize> = (0..n).flat_map(|i| std::iter::repeat_n(i, k)).collect();
    RandLaPlan { n, k, tree, knn0: knn0.into(), center_flat0: center_flat0.into() }
}

/// Resolves the plan a forward pass will consume: the caller-supplied
/// one after a consistency check, or a freshly built fallback. Used by
/// every model so planned and plan-free passes share one code path.
macro_rules! resolve_plan {
    ($input:expr, $storage:ident, $variant:ident, $build:expr, $model:literal) => {
        match $input.plan {
            Some(crate::GeometryPlan::$variant(p)) => {
                assert_eq!(
                    p.n,
                    $input.coords.len(),
                    concat!($model, ": plan built for a different cloud size"),
                );
                p
            }
            Some(other) => {
                panic!(concat!($model, ": plan built for a different model ({})"), other.kind())
            }
            None => {
                $storage = $build;
                &$storage
            }
        }
    };
}
pub(crate) use resolve_plan;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_coords(n: usize, seed: u64) -> Vec<Point3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point3::new(
                    rng.gen_range(0.0..3.0),
                    rng.gen_range(0.0..3.0),
                    rng.gen_range(0.0..3.0),
                )
            })
            .collect()
    }

    #[test]
    fn pointnet2_plan_shapes() {
        let cfg = PointNet2Config::tiny(13);
        let coords = random_coords(96, 0);
        let p = plan_pointnet2(&cfg, &coords);
        assert_eq!(p.n, 96);
        assert_eq!(p.sa.len(), 1);
        assert_eq!(p.sa[0].centroid_idx.len(), 32);
        assert_eq!(p.sa[0].neighbors.len(), 32 * cfg.sa_k[0]);
        assert_eq!(p.sa[0].center_flat.len(), 32 * cfg.sa_k[0]);
        assert_eq!(p.fp.len(), 1);
        // 3-NN interpolation back to full resolution.
        assert_eq!(p.fp[0].0.len(), 96 * 3);
    }

    #[test]
    fn resgcn_plan_builds_one_graph_per_distinct_dilation() {
        let cfg = ResGcnConfig::tiny(13); // 2 blocks, max_dilation 2
        let coords = random_coords(64, 1);
        let p = plan_resgcn(&cfg, &coords);
        assert_eq!(p.dilations, vec![1, 2]);
        assert!(p.graphs[1].is_some() && p.graphs[2].is_some());
        assert_eq!(p.graphs[1].as_ref().unwrap().len(), 64 * p.k);
        assert_eq!(p.center.len(), 64 * p.k);
        assert_eq!(p.center.readers(5), (5 * p.k..6 * p.k).collect::<Vec<_>>());
    }

    #[test]
    fn randla_plan_caches_full_resolution_structures() {
        let cfg = RandLaNetConfig::tiny(8);
        let coords = random_coords(80, 2);
        let p = plan_randlanet(&cfg, &coords);
        assert_eq!(p.tree.len(), 80);
        assert_eq!(&p.knn0[..], &knn_graph(&coords, p.k)[..]);
        assert_eq!(p.center_flat0.len(), 80 * p.k);
    }

    #[test]
    fn plan_kind_and_points_roundtrip() {
        let coords = random_coords(32, 3);
        let plan = GeometryPlan::ResGcn(plan_resgcn(&ResGcnConfig::tiny(13), &coords));
        assert_eq!(plan.kind(), "resgcn");
        assert_eq!(plan.num_points(), 32);
    }
}
