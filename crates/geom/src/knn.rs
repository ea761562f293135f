//! k-nearest-neighbor graph construction, including the dilated variant
//! used by DeepGCN.
//!
//! Graph construction loops are embarrassingly parallel over query points:
//! each output row depends only on its own query and the (immutable) tree,
//! so the rows are split across the ambient [`colper_runtime`] runtime and
//! results are identical at any thread count.

use crate::{GeomError, KdTree, Neighbor, Point3};
use colper_runtime::Runtime;

/// Below this many queries the per-chunk scheduling overhead outweighs the
/// tree traversals.
const MIN_PAR_QUERIES: usize = 128;

/// The ambient runtime when `queries` crosses the parallel threshold and
/// workers exist; `None` means "run the plain sequential loop".
fn runtime_for(queries: usize) -> Option<Runtime> {
    if queries < MIN_PAR_QUERIES {
        return None;
    }
    let rt = colper_runtime::current();
    if rt.is_sequential() {
        None
    } else {
        Some(rt)
    }
}

/// Fills `out` (one row of `row_len` entries per query) by running
/// `fill(query_index, row)` for every row, in parallel when worthwhile.
fn fill_rows(
    out: &mut [usize],
    queries: usize,
    row_len: usize,
    fill: impl Fn(usize, &mut [usize]) + Sync,
) {
    debug_assert_eq!(out.len(), queries * row_len);
    match runtime_for(queries) {
        None => {
            for (i, row) in out.chunks_mut(row_len).enumerate() {
                fill(i, row);
            }
        }
        Some(rt) => {
            let rows_per = queries.div_ceil(4 * rt.threads()).max(1);
            rt.par_chunks_mut(out, rows_per * row_len, |c, sub| {
                for (j, row) in sub.chunks_mut(row_len).enumerate() {
                    fill(c * rows_per + j, row);
                }
            });
        }
    }
}

/// Brute-force k-NN of `query` within `points`, sorted ascending by
/// distance. Reference implementation used to differential-test the
/// kd-tree; also the fastest option for very small point sets.
pub fn brute_force_knn(points: &[Point3], query: Point3, k: usize) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> = points
        .iter()
        .enumerate()
        .map(|(i, &p)| Neighbor { index: i, sq_dist: p.sq_dist(query) })
        .collect();
    // `total_cmp` + index, the order `KdTree` keeps: a NaN distance (from
    // a non-finite point) sorts after every number instead of breaking
    // the comparator's total order, which `sort_by` may panic on.
    all.sort_by(|a, b| a.sq_dist.total_cmp(&b.sq_dist).then_with(|| a.index.cmp(&b.index)));
    all.truncate(k);
    all
}

/// Builds the full k-NN graph of a point set: a flattened `[N*k]` index
/// list where entry `i*k + j` is the j-th nearest neighbor of point `i`
/// (the point itself included, as in PointNet++ grouping and Eq. 6 of the
/// paper when `alpha` neighborhoods are formed).
///
/// When the set holds fewer than `k` points, neighbor lists are padded by
/// repeating the nearest available neighbor so every row has exactly `k`
/// entries.
///
/// # Panics
///
/// Panics when `points` is empty or `k == 0`; [`try_knn_graph`] is the
/// fallible twin.
pub fn knn_graph(points: &[Point3], k: usize) -> Vec<usize> {
    try_knn_graph(points, k).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible twin of [`knn_graph`], following the tensor crate's
/// `get`/`at` convention.
///
/// # Errors
///
/// Returns [`GeomError::EmptyPointSet`] when `points` is empty and
/// [`GeomError::NonPositiveK`] when `k == 0`.
pub fn try_knn_graph(points: &[Point3], k: usize) -> Result<Vec<usize>, GeomError> {
    if points.is_empty() {
        return Err(GeomError::EmptyPointSet("knn_graph"));
    }
    if k == 0 {
        return Err(GeomError::NonPositiveK("knn_graph"));
    }
    let tree = KdTree::build(points);
    let kq = k.min(points.len());
    let mut out = vec![0usize; points.len() * k];
    fill_rows(&mut out, points.len(), k, |i, row| {
        let nn = tree.knn(points[i], kq);
        let last = nn.last().expect("at least one neighbor").index;
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = nn.get(j).map_or(last, |n| n.index);
        }
    });
    Ok(out)
}

/// Builds a *dilated* k-NN graph as in DeepGCN: for each point the
/// `k * dilation` nearest neighbors are found and every `dilation`-th one
/// is kept, widening the receptive field without extra edges.
///
/// `dilation == 1` reduces to [`knn_graph`].
///
/// # Panics
///
/// Panics when `points` is empty, `k == 0`, or `dilation == 0`;
/// [`try_dilated_knn`] is the fallible twin.
pub fn dilated_knn(points: &[Point3], k: usize, dilation: usize) -> Vec<usize> {
    try_dilated_knn(points, k, dilation).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible twin of [`dilated_knn`].
///
/// # Errors
///
/// Returns [`GeomError::EmptyPointSet`] when `points` is empty,
/// [`GeomError::NonPositiveK`] when `k == 0`, and
/// [`GeomError::NonPositiveDilation`] when `dilation == 0`.
pub fn try_dilated_knn(
    points: &[Point3],
    k: usize,
    dilation: usize,
) -> Result<Vec<usize>, GeomError> {
    if points.is_empty() {
        return Err(GeomError::EmptyPointSet("dilated_knn"));
    }
    if k == 0 {
        return Err(GeomError::NonPositiveK("dilated_knn"));
    }
    if dilation == 0 {
        return Err(GeomError::NonPositiveDilation("dilated_knn"));
    }
    if dilation == 1 {
        // Both preconditions are already validated, so this cannot fail.
        return try_knn_graph(points, k);
    }
    let tree = KdTree::build(points);
    let wide = (k * dilation).min(points.len());
    let mut out = vec![0usize; points.len() * k];
    fill_rows(&mut out, points.len(), k, |i, row| {
        let nn = tree.knn(points[i], wide);
        let last = nn.last().expect("at least one neighbor").index;
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = nn.get(j * dilation).map_or(last, |n| n.index);
        }
    });
    Ok(out)
}

/// Builds the k-NN graph of the *subset* `subset` of a tree's points
/// without rebuilding a tree over the subset: entry `i*k + j` is the
/// subset-local index of the j-th nearest subset point to subset point
/// `i`. Padding follows [`knn_graph`]: when the subset holds fewer than
/// `k` points, rows repeat the farthest available neighbor.
///
/// This is how RandLA-Net's coarse encoder levels reuse the cached
/// full-resolution kd-tree after random downsampling.
///
/// # Panics
///
/// Panics when `subset` is empty, `k == 0`, or an index is out of
/// bounds for the tree; [`try_subset_knn_graph`] is the fallible twin.
pub fn subset_knn_graph(tree: &KdTree, subset: &[usize], k: usize) -> Vec<usize> {
    try_subset_knn_graph(tree, subset, k).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible twin of [`subset_knn_graph`], following the tensor crate's
/// `get`/`at` convention.
///
/// # Errors
///
/// Returns [`GeomError::EmptySubset`] when `subset` is empty,
/// [`GeomError::NonPositiveK`] when `k == 0`, and
/// [`GeomError::SubsetIndexOutOfBounds`] when a subset entry does not
/// index into the tree's point set.
pub fn try_subset_knn_graph(
    tree: &KdTree,
    subset: &[usize],
    k: usize,
) -> Result<Vec<usize>, GeomError> {
    if subset.is_empty() {
        return Err(GeomError::EmptySubset("subset_knn_graph"));
    }
    if k == 0 {
        return Err(GeomError::NonPositiveK("subset_knn_graph"));
    }
    let (mask, local) = subset_index(tree.len(), subset)?;
    let kq = k.min(subset.len());
    let mut out = vec![0usize; subset.len() * k];
    fill_rows(&mut out, subset.len(), k, |q, row| {
        let nn = tree.knn_filtered(tree.points()[subset[q]], kq, |i| mask[i]);
        let last = local[nn.last().expect("at least one neighbor").index];
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = nn.get(j).map_or(last, |n| local[n.index]);
        }
    });
    Ok(out)
}

/// For each query point, the subset-local index of its nearest neighbor
/// among `subset`, using the cached tree over the full point set
/// (RandLA-Net's decoder upsampling).
///
/// # Panics
///
/// Panics when `subset` is empty or an index is out of bounds for the
/// tree; [`try_subset_nearest`] is the fallible twin.
pub fn subset_nearest(tree: &KdTree, subset: &[usize], queries: &[Point3]) -> Vec<usize> {
    try_subset_nearest(tree, subset, queries).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible twin of [`subset_nearest`].
///
/// # Errors
///
/// Returns [`GeomError::EmptySubset`] when `subset` is empty and
/// [`GeomError::SubsetIndexOutOfBounds`] when a subset entry does not
/// index into the tree's point set.
pub fn try_subset_nearest(
    tree: &KdTree,
    subset: &[usize],
    queries: &[Point3],
) -> Result<Vec<usize>, GeomError> {
    if subset.is_empty() {
        return Err(GeomError::EmptySubset("subset_nearest"));
    }
    let (mask, local) = subset_index(tree.len(), subset)?;
    let mut out = vec![0usize; queries.len()];
    fill_rows(&mut out, queries.len(), 1, |q, row| {
        row[0] = local[tree.knn_filtered(queries[q], 1, |i| mask[i])[0].index];
    });
    Ok(out)
}

/// Membership mask and original-index -> subset-local-index map.
fn subset_index(len: usize, subset: &[usize]) -> Result<(Vec<bool>, Vec<usize>), GeomError> {
    let mut mask = vec![false; len];
    let mut local = vec![usize::MAX; len];
    for (l, &orig) in subset.iter().enumerate() {
        if orig >= len {
            return Err(GeomError::SubsetIndexOutOfBounds { index: orig, len });
        }
        mask[orig] = true;
        local[orig] = l;
    }
    Ok((mask, local))
}

/// Dense pairwise squared distances between two point sets,
/// `out[i * b.len() + j] = ||a[i] - b[j]||^2`.
pub fn pairwise_sq_dist(a: &[Point3], b: &[Point3]) -> Vec<f32> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for &pa in a {
        for &pb in b {
            out.push(pa.sq_dist(pb));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn brute_force_knn_orders_nan_distances_last_and_deterministically() {
        let mut pts = random_points(40, 17);
        pts[3] = Point3::new(f32::NAN, 0.0, 0.0);
        pts[11] = Point3::new(0.1, f32::NAN, f32::INFINITY);
        pts[29] = Point3::new(f32::NAN, f32::NAN, f32::NAN);
        let all = brute_force_knn(&pts, Point3::new(0.0, 0.0, 0.0), pts.len());
        assert_eq!(all.len(), pts.len());
        // Finite distances ascend; the NaN ones come last, by index.
        let nan: Vec<usize> = all.iter().filter(|n| n.sq_dist.is_nan()).map(|n| n.index).collect();
        assert_eq!(nan, vec![3, 11, 29]);
        assert!(all[..all.len() - 3].windows(2).all(|w| w[0].sq_dist <= w[1].sq_dist));
        // A NaN query point is a valid input too: every distance is NaN,
        // so the order falls back to the index.
        let q = brute_force_knn(&pts, Point3::new(f32::NAN, 0.0, 0.0), 5);
        assert_eq!(q.iter().map(|n| n.index).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point3::new(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                )
            })
            .collect()
    }

    #[test]
    fn knn_graph_self_is_first_neighbor() {
        let pts = random_points(64, 11);
        let g = knn_graph(&pts, 4);
        assert_eq!(g.len(), 64 * 4);
        for i in 0..64 {
            assert_eq!(g[i * 4], i, "point {i} should be its own nearest neighbor");
        }
    }

    #[test]
    fn knn_graph_matches_brute_force() {
        let pts = random_points(100, 3);
        let k = 5;
        let g = knn_graph(&pts, k);
        for (i, &p) in pts.iter().enumerate() {
            let brute = brute_force_knn(&pts, p, k);
            for j in 0..k {
                let d_tree = pts[g[i * k + j]].sq_dist(p);
                let d_brute = brute[j].sq_dist;
                assert!((d_tree - d_brute).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn knn_graph_pads_small_sets() {
        let pts = random_points(3, 4);
        let g = knn_graph(&pts, 8);
        assert_eq!(g.len(), 3 * 8);
        // All indices valid.
        assert!(g.iter().all(|&i| i < 3));
    }

    #[test]
    fn dilated_knn_skips_neighbors() {
        // Points on a line: neighbors of point 0 in order are 0,1,2,3,...
        let pts: Vec<Point3> = (0..20).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect();
        let g = dilated_knn(&pts, 3, 2);
        // For point 0: wide list is [0,1,2,3,4,5]; keep every 2nd -> [0,2,4].
        assert_eq!(&g[0..3], &[0, 2, 4]);
    }

    #[test]
    fn dilation_one_equals_plain_graph() {
        let pts = random_points(50, 8);
        assert_eq!(dilated_knn(&pts, 4, 1), knn_graph(&pts, 4));
    }

    #[test]
    fn pairwise_distances() {
        let a = vec![Point3::ORIGIN, Point3::new(1.0, 0.0, 0.0)];
        let b = vec![Point3::new(0.0, 2.0, 0.0)];
        let d = pairwise_sq_dist(&a, &b);
        assert_eq!(d, vec![4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn knn_graph_rejects_empty() {
        let _ = knn_graph(&[], 3);
    }

    #[test]
    fn subset_knn_graph_matches_fresh_graph_up_to_distance() {
        use crate::KdTree;
        let pts = random_points(120, 19);
        let tree = KdTree::build(&pts);
        // An arbitrary (unsorted) subset, as random_sample would produce.
        let subset: Vec<usize> = vec![97, 3, 55, 12, 80, 41, 7, 66, 23, 101, 5, 88];
        let sub_pts: Vec<Point3> = subset.iter().map(|&i| pts[i]).collect();
        let k = 4;
        let via_tree = subset_knn_graph(&tree, &subset, k);
        let fresh = knn_graph(&sub_pts, k);
        assert_eq!(via_tree.len(), fresh.len());
        // The points are in general position, so the neighbor sets must
        // agree exactly (both are subset-local indices).
        assert_eq!(via_tree, fresh);
    }

    #[test]
    fn subset_knn_graph_pads_small_subsets() {
        use crate::KdTree;
        let pts = random_points(50, 23);
        let tree = KdTree::build(&pts);
        let subset = vec![10, 30];
        let g = subset_knn_graph(&tree, &subset, 6);
        assert_eq!(g.len(), 2 * 6);
        assert!(g.iter().all(|&i| i < 2));
        // Self is always the nearest neighbor.
        assert_eq!(g[0], 0);
        assert_eq!(g[6], 1);
    }

    #[test]
    fn subset_nearest_finds_closest_survivor() {
        use crate::KdTree;
        let pts: Vec<Point3> = (0..10).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect();
        let tree = KdTree::build(&pts);
        let subset = vec![8, 2, 5]; // unsorted, as after random sampling
        let queries = vec![Point3::new(0.2, 0.0, 0.0), Point3::new(5.6, 0.0, 0.0)];
        let nearest = subset_nearest(&tree, &subset, &queries);
        assert_eq!(nearest, vec![1, 2]); // local indices of points 2 and 5
    }

    #[test]
    fn parallel_graphs_match_sequential_bit_for_bit() {
        let pts = random_points(600, 31);
        let tree = KdTree::build(&pts);
        let subset: Vec<usize> = (0..300).map(|i| i * 2).collect();
        let seq = (
            knn_graph(&pts, 8),
            dilated_knn(&pts, 4, 2),
            subset_knn_graph(&tree, &subset, 6),
            subset_nearest(&tree, &subset, &pts),
        );
        let rt = colper_runtime::Runtime::new(4);
        let par = rt.install(|| {
            // The tree itself is also rebuilt under the pool inside
            // knn_graph/dilated_knn, covering the parallel kd-tree build.
            (
                knn_graph(&pts, 8),
                dilated_knn(&pts, 4, 2),
                subset_knn_graph(&tree, &subset, 6),
                subset_nearest(&tree, &subset, &pts),
            )
        });
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_kdtree_build_matches_sequential_queries() {
        let pts = random_points(3000, 57); // above MIN_PAR_BUILD
        let seq_tree = KdTree::build(&pts);
        let rt = colper_runtime::Runtime::new(3);
        let par_tree = rt.install(|| KdTree::build(&pts));
        for (qi, &q) in pts.iter().enumerate().step_by(97) {
            assert_eq!(seq_tree.knn(q, 12), par_tree.knn(q, 12), "query {qi}");
        }
    }

    #[test]
    #[should_panic(expected = "empty subset")]
    fn subset_knn_graph_rejects_empty_subset() {
        use crate::KdTree;
        let pts = random_points(10, 1);
        let _ = subset_knn_graph(&KdTree::build(&pts), &[], 3);
    }

    #[test]
    fn try_variants_report_errors_instead_of_panicking() {
        use crate::KdTree;
        let pts = random_points(10, 1);
        let tree = KdTree::build(&pts);
        assert_eq!(
            try_subset_knn_graph(&tree, &[], 3),
            Err(GeomError::EmptySubset("subset_knn_graph"))
        );
        assert_eq!(
            try_subset_knn_graph(&tree, &[1, 2], 0),
            Err(GeomError::NonPositiveK("subset_knn_graph"))
        );
        assert_eq!(
            try_subset_knn_graph(&tree, &[1, 99], 2),
            Err(GeomError::SubsetIndexOutOfBounds { index: 99, len: 10 })
        );
        assert_eq!(
            try_subset_nearest(&tree, &[], &pts),
            Err(GeomError::EmptySubset("subset_nearest"))
        );
        assert_eq!(
            try_subset_nearest(&tree, &[42], &pts),
            Err(GeomError::SubsetIndexOutOfBounds { index: 42, len: 10 })
        );
    }

    #[test]
    fn try_graph_variants_report_errors_instead_of_panicking() {
        let pts = random_points(10, 2);
        assert_eq!(try_knn_graph(&[], 3), Err(GeomError::EmptyPointSet("knn_graph")));
        assert_eq!(try_knn_graph(&pts, 0), Err(GeomError::NonPositiveK("knn_graph")));
        assert_eq!(try_dilated_knn(&[], 3, 2), Err(GeomError::EmptyPointSet("dilated_knn")));
        assert_eq!(try_dilated_knn(&pts, 0, 2), Err(GeomError::NonPositiveK("dilated_knn")));
        assert_eq!(try_dilated_knn(&pts, 3, 0), Err(GeomError::NonPositiveDilation("dilated_knn")));
    }

    #[test]
    #[should_panic(expected = "dilated_knn: dilation must be positive")]
    fn dilated_knn_panics_with_the_historic_message() {
        let pts = random_points(10, 2);
        let _ = dilated_knn(&pts, 3, 0);
    }

    #[test]
    fn try_variants_agree_with_the_panicking_entry_points() {
        use crate::KdTree;
        let pts = random_points(60, 13);
        let tree = KdTree::build(&pts);
        let subset: Vec<usize> = (0..30).map(|i| i * 2).collect();
        assert_eq!(try_knn_graph(&pts, 5).unwrap(), knn_graph(&pts, 5));
        assert_eq!(try_dilated_knn(&pts, 4, 2).unwrap(), dilated_knn(&pts, 4, 2));
        assert_eq!(
            try_subset_knn_graph(&tree, &subset, 5).unwrap(),
            subset_knn_graph(&tree, &subset, 5)
        );
        assert_eq!(
            try_subset_nearest(&tree, &subset, &pts).unwrap(),
            subset_nearest(&tree, &subset, &pts)
        );
    }
}
