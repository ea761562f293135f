//! AVX2+FMA implementations of the kernels in [`super::scalar`].
//!
//! Each function mirrors its scalar reference *operation for operation*:
//! elementwise kernels run the identical per-lane expression (with
//! `vfmadd*ps` matching [`f32::mul_add`]), and reductions keep the same
//! eight lane-strided partial sums — the `ymm` accumulator *is* the scalar
//! reference's `[f32; 8]` partial array — combined with the same fixed
//! tree. Because every instruction used here is correctly rounded
//! (IEEE-754 add/sub/mul/div/fma/max/min), the results are bit-identical
//! to the scalar path for every input, NaN and signed zero included.
//!
//! This is the only module in the crate allowed to use `unsafe`: the
//! intrinsics require it, and every function is `#[target_feature]`-gated
//! so it must only be called after runtime detection (enforced by the
//! dispatch layer in [`super`]).
#![allow(unsafe_code)]

use super::{scalar, Act, TileStrides};
use core::arch::x86_64::{
    __m256i, _mm256_add_ps, _mm256_blendv_ps, _mm256_cmp_ps, _mm256_cmpgt_epi32, _mm256_div_ps,
    _mm256_fmadd_ps, _mm256_fnmadd_ps, _mm256_loadu_ps, _mm256_maskload_ps, _mm256_maskstore_ps,
    _mm256_max_ps, _mm256_min_ps, _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_ps,
    _mm256_setr_epi32, _mm256_setzero_ps, _mm256_storeu_ps, _mm256_sub_ps, _CMP_GT_OQ,
    _CMP_UNORD_Q,
};

const W: usize = 8;

macro_rules! zip_kernel {
    ($name:ident, $vop:expr, $sop:expr) => {
        /// AVX2 twin of the like-named scalar reference kernel.
        ///
        /// # Safety
        ///
        /// Requires AVX2+FMA, verified by the caller via runtime detection.
        #[target_feature(enable = "avx2", enable = "fma")]
        pub(super) unsafe fn $name(a: &[f32], b: &[f32], out: &mut [f32]) {
            let n = out.len();
            assert!(a.len() >= n && b.len() >= n);
            let mut i = 0;
            while i + W <= n {
                let va = _mm256_loadu_ps(a.as_ptr().add(i));
                let vb = _mm256_loadu_ps(b.as_ptr().add(i));
                _mm256_storeu_ps(out.as_mut_ptr().add(i), $vop(va, vb));
                i += W;
            }
            while i < n {
                out[i] = $sop(a[i], b[i]);
                i += 1;
            }
        }
    };
}

zip_kernel!(add, _mm256_add_ps, |x: f32, y: f32| x + y);
zip_kernel!(sub, _mm256_sub_ps, |x: f32, y: f32| x - y);
zip_kernel!(mul, _mm256_mul_ps, |x: f32, y: f32| x * y);
zip_kernel!(div, _mm256_div_ps, |x: f32, y: f32| x / y);

macro_rules! assign_kernel {
    ($name:ident, $vop:expr, $sop:expr) => {
        /// AVX2 twin of the like-named scalar reference kernel.
        ///
        /// # Safety
        ///
        /// Requires AVX2+FMA, verified by the caller via runtime detection.
        #[target_feature(enable = "avx2", enable = "fma")]
        pub(super) unsafe fn $name(dst: &mut [f32], src: &[f32]) {
            let n = dst.len();
            assert!(src.len() >= n);
            let mut i = 0;
            while i + W <= n {
                let vd = _mm256_loadu_ps(dst.as_ptr().add(i));
                let vs = _mm256_loadu_ps(src.as_ptr().add(i));
                _mm256_storeu_ps(dst.as_mut_ptr().add(i), $vop(vd, vs));
                i += W;
            }
            while i < n {
                dst[i] = $sop(dst[i], src[i]);
                i += 1;
            }
        }
    };
}

assign_kernel!(add_assign, _mm256_add_ps, |d: f32, s: f32| d + s);
assign_kernel!(sub_assign, _mm256_sub_ps, |d: f32, s: f32| d - s);
assign_kernel!(mul_assign, _mm256_mul_ps, |d: f32, s: f32| d * s);

/// AVX2 twin of [`scalar::axpy`].
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn axpy(dst: &mut [f32], alpha: f32, x: &[f32]) {
    let n = dst.len();
    assert!(x.len() >= n);
    let va = _mm256_set1_ps(alpha);
    let mut i = 0;
    while i + W <= n {
        let vd = _mm256_loadu_ps(dst.as_ptr().add(i));
        let vx = _mm256_loadu_ps(x.as_ptr().add(i));
        _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_fmadd_ps(va, vx, vd));
        i += W;
    }
    while i < n {
        dst[i] = alpha.mul_add(x[i], dst[i]);
        i += 1;
    }
}

/// AVX2 twin of [`scalar::add_prod_assign`].
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn add_prod_assign(dst: &mut [f32], a: &[f32], b: &[f32]) {
    let n = dst.len();
    assert!(a.len() >= n && b.len() >= n);
    let mut i = 0;
    while i + W <= n {
        let vd = _mm256_loadu_ps(dst.as_ptr().add(i));
        let va = _mm256_loadu_ps(a.as_ptr().add(i));
        let vb = _mm256_loadu_ps(b.as_ptr().add(i));
        _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_fmadd_ps(va, vb, vd));
        i += W;
    }
    while i < n {
        dst[i] = a[i].mul_add(b[i], dst[i]);
        i += 1;
    }
}

/// AVX2 twin of [`scalar::sub_prod_assign`] (`vfnmadd` computes the same
/// correctly-rounded `-a*b + dst` as the scalar `(-a).mul_add(b, dst)`).
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn sub_prod_assign(dst: &mut [f32], a: &[f32], b: &[f32]) {
    let n = dst.len();
    assert!(a.len() >= n && b.len() >= n);
    let mut i = 0;
    while i + W <= n {
        let vd = _mm256_loadu_ps(dst.as_ptr().add(i));
        let va = _mm256_loadu_ps(a.as_ptr().add(i));
        let vb = _mm256_loadu_ps(b.as_ptr().add(i));
        _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_fnmadd_ps(va, vb, vd));
        i += W;
    }
    while i < n {
        dst[i] = (-a[i]).mul_add(b[i], dst[i]);
        i += 1;
    }
}

/// AVX2 twin of [`scalar::mul_add`].
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn mul_add(a: &[f32], b: &[f32], c: &[f32], out: &mut [f32]) {
    let n = out.len();
    assert!(a.len() >= n && b.len() >= n && c.len() >= n);
    let mut i = 0;
    while i + W <= n {
        let va = _mm256_loadu_ps(a.as_ptr().add(i));
        let vb = _mm256_loadu_ps(b.as_ptr().add(i));
        let vc = _mm256_loadu_ps(c.as_ptr().add(i));
        _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_fmadd_ps(va, vb, vc));
        i += W;
    }
    while i < n {
        out[i] = a[i].mul_add(b[i], c[i]);
        i += 1;
    }
}

/// AVX2 twin of [`scalar::scale`].
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn scale(a: &[f32], s: f32, out: &mut [f32]) {
    let n = out.len();
    assert!(a.len() >= n);
    let vs = _mm256_set1_ps(s);
    let mut i = 0;
    while i + W <= n {
        let va = _mm256_loadu_ps(a.as_ptr().add(i));
        _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_mul_ps(va, vs));
        i += W;
    }
    while i < n {
        out[i] = a[i] * s;
        i += 1;
    }
}

/// AVX2 twin of [`scalar::scale_assign`].
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn scale_assign(dst: &mut [f32], s: f32) {
    let n = dst.len();
    let vs = _mm256_set1_ps(s);
    let mut i = 0;
    while i + W <= n {
        let vd = _mm256_loadu_ps(dst.as_ptr().add(i));
        _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_mul_ps(vd, vs));
        i += W;
    }
    while i < n {
        dst[i] *= s;
        i += 1;
    }
}

/// AVX2 twin of [`scalar::sum`]: the `ymm` accumulator is the scalar
/// reference's `[f32; 8]` partial array; tail elements fold into their
/// `i % 8` lanes after the store, then the shared fixed tree combines.
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn sum(a: &[f32]) -> f32 {
    let n = a.len();
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i + W <= n {
        acc = _mm256_add_ps(acc, _mm256_loadu_ps(a.as_ptr().add(i)));
        i += W;
    }
    let mut lanes = [0.0f32; W];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    for (l, &v) in lanes.iter_mut().zip(&a[i..]) {
        *l += v;
    }
    scalar::combine(&lanes)
}

/// AVX2 twin of [`scalar::dot`]; same lane-strided partials as [`sum`].
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i + W <= n {
        let va = _mm256_loadu_ps(a.as_ptr().add(i));
        let vb = _mm256_loadu_ps(b.as_ptr().add(i));
        acc = _mm256_fmadd_ps(va, vb, acc);
        i += W;
    }
    let mut lanes = [0.0f32; W];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    for (l, (&x, &y)) in lanes.iter_mut().zip(a[i..n].iter().zip(&b[i..n])) {
        *l = x.mul_add(y, *l);
    }
    scalar::combine(&lanes)
}

/// AVX2 twin of [`scalar::sum_sq`]; same lane-strided partials as [`sum`].
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn sum_sq(a: &[f32]) -> f32 {
    let n = a.len();
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i + W <= n {
        let va = _mm256_loadu_ps(a.as_ptr().add(i));
        acc = _mm256_fmadd_ps(va, va, acc);
        i += W;
    }
    let mut lanes = [0.0f32; W];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    for (l, &v) in lanes.iter_mut().zip(&a[i..]) {
        *l = v.mul_add(v, *l);
    }
    scalar::combine(&lanes)
}

/// AVX2 twin of [`scalar::matmul_row`].
///
/// Columns advance in blocks of 32 (four independent `ymm` accumulators to
/// hide FMA latency), then 8, then a scalar tail; every output element
/// still accumulates its `k` terms as one ascending-`k` fused chain
/// starting from its initial value, identical to the scalar reference.
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn matmul_row(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
    let k = a_row.len();
    assert!(b.len() >= k * n && out_row.len() >= n);
    if k == 0 {
        return;
    }
    let bp = b.as_ptr();
    let op = out_row.as_mut_ptr();
    let mut j = 0;
    while j + 4 * W <= n {
        let mut c0 = _mm256_loadu_ps(op.add(j));
        let mut c1 = _mm256_loadu_ps(op.add(j + W));
        let mut c2 = _mm256_loadu_ps(op.add(j + 2 * W));
        let mut c3 = _mm256_loadu_ps(op.add(j + 3 * W));
        for (kk, &a) in a_row.iter().enumerate() {
            let va = _mm256_set1_ps(a);
            let base = bp.add(kk * n + j);
            c0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(base), c0);
            c1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(base.add(W)), c1);
            c2 = _mm256_fmadd_ps(va, _mm256_loadu_ps(base.add(2 * W)), c2);
            c3 = _mm256_fmadd_ps(va, _mm256_loadu_ps(base.add(3 * W)), c3);
        }
        _mm256_storeu_ps(op.add(j), c0);
        _mm256_storeu_ps(op.add(j + W), c1);
        _mm256_storeu_ps(op.add(j + 2 * W), c2);
        _mm256_storeu_ps(op.add(j + 3 * W), c3);
        j += 4 * W;
    }
    while j + W <= n {
        let mut c0 = _mm256_loadu_ps(op.add(j));
        for (kk, &a) in a_row.iter().enumerate() {
            c0 = _mm256_fmadd_ps(_mm256_set1_ps(a), _mm256_loadu_ps(bp.add(kk * n + j)), c0);
        }
        _mm256_storeu_ps(op.add(j), c0);
        j += W;
    }
    while j < n {
        out_row[j] = scalar::fma_dot_chain(a_row, 1, &b[j..], n, k, out_row[j]);
        j += 1;
    }
}

/// AVX2 twin of [`scalar::matmul_nt_row`].
///
/// Each `ymm` accumulator holds one of [`scalar::dot`]'s eight lane
/// partials for eight adjacent output columns: term `kk` goes to
/// accumulator `kk % 8` as `fma(a[kk], bt[kk][j..j+8], acc)`, and the
/// vertical [`scalar::combine`] tree joins the eight accumulators. Per
/// column that is the scalar reference's operation sequence exactly.
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
/// `ldb` must be a multiple of 8 with `out_row.len() <= ldb` and
/// `bt.len() >= a_row.len() * ldb` (the packed panel is zero-padded to
/// whole vectors, so full-width loads stay in bounds).
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn matmul_nt_row(a_row: &[f32], bt: &[f32], ldb: usize, out_row: &mut [f32]) {
    let k = a_row.len();
    let n = out_row.len();
    assert!(ldb.is_multiple_of(W) && n <= ldb && bt.len() >= k * ldb);
    if k == 0 {
        out_row.fill(0.0);
        return;
    }
    let ap = a_row.as_ptr();
    let op = out_row.as_mut_ptr();
    let k8 = k - k % W;
    let mut j = 0;
    while j < n {
        let mut b = bt.as_ptr().add(j);
        let mut a = ap;
        let (mut c0, mut c1, mut c2, mut c3) =
            (_mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps());
        let (mut c4, mut c5, mut c6, mut c7) =
            (_mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps());
        let end = ap.add(k8);
        while a < end {
            c0 = _mm256_fmadd_ps(_mm256_set1_ps(*a), _mm256_loadu_ps(b), c0);
            c1 = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(1)), _mm256_loadu_ps(b.add(ldb)), c1);
            c2 = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(2)), _mm256_loadu_ps(b.add(2 * ldb)), c2);
            c3 = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(3)), _mm256_loadu_ps(b.add(3 * ldb)), c3);
            c4 = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(4)), _mm256_loadu_ps(b.add(4 * ldb)), c4);
            c5 = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(5)), _mm256_loadu_ps(b.add(5 * ldb)), c5);
            c6 = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(6)), _mm256_loadu_ps(b.add(6 * ldb)), c6);
            c7 = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(7)), _mm256_loadu_ps(b.add(7 * ldb)), c7);
            a = a.add(W);
            b = b.add(W * ldb);
        }
        // Remainder terms land in lanes 0..k%8, exactly as in `dot`.
        let mut acc = [c0, c1, c2, c3, c4, c5, c6, c7];
        for (l, c) in acc.iter_mut().enumerate().take(k - k8) {
            *c = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(l)), _mm256_loadu_ps(b.add(l * ldb)), *c);
        }
        let s = _mm256_add_ps(
            _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3])),
            _mm256_add_ps(_mm256_add_ps(acc[4], acc[5]), _mm256_add_ps(acc[6], acc[7])),
        );
        if j + W <= n {
            _mm256_storeu_ps(op.add(j), s);
        } else {
            _mm256_maskstore_ps(op.add(j), lane_mask(n - j), s);
        }
        j += W;
    }
}

/// Builds the lane mask selecting the first `lanes` of eight `f32` lanes
/// (for `maskload`/`maskstore` on a partially-covered tile edge).
///
/// # Safety
///
/// Requires AVX2, verified by the caller via runtime detection.
#[target_feature(enable = "avx2")]
unsafe fn lane_mask(lanes: usize) -> __m256i {
    _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
}

/// AVX2 twin of [`scalar::gemm_tile`] for the 6x16 micro-tile geometry:
/// six rows of two `ymm` accumulators, fed per `k` step by two B loads and
/// one broadcast per row, read in place through the strides `s`.
///
/// Accumulators start at `+0.0` (`init`) or at the tile's current C
/// values, and every element continues its ascending-`k` fused chain —
/// the same chain as the scalar reference and the row kernel, so results
/// stay bit-identical. Spare rows past `rows` re-read the last real row
/// and are never stored; columns past `cols` are masked on every B and C
/// access (masked lanes load zeros and are never stored), and a corner
/// at most eight columns wide runs six accumulators.
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection. `a`,
/// `b` and `c` must be valid for the `rows x kc`, `kc x cols` and
/// `rows x cols` blocks their strides in `s` address.
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn gemm_tile_6x16(
    a: *const f32,
    b: *const f32,
    s: TileStrides,
    kc: usize,
    rows: usize,
    cols: usize,
    init: bool,
    c: *mut f32,
) {
    const MR: usize = 6;
    debug_assert!(rows <= MR && cols <= 2 * W && rows > 0 && cols > 0);
    let full = cols == 2 * W;
    let m0 = lane_mask(cols.min(W));
    let m1 = lane_mask(cols.saturating_sub(W));
    // Row pointers wrap rather than offset: with `kc == 0` nothing is
    // read, and `a` may be shorter than its rows.
    let ar: [*const f32; MR] = core::array::from_fn(|r| a.wrapping_add(r.min(rows - 1) * s.a_row));
    // Every row loop runs all MR rows, so the accumulators stay in
    // registers. The second half of a corner at most eight wide has an
    // empty mask, so its address is never dereferenced and may lie past
    // `c`'s end.
    let mut acc = [[_mm256_setzero_ps(); 2]; MR];
    if !init {
        for (r, v) in acc.iter_mut().enumerate() {
            let p = c.add(r.min(rows - 1) * s.ldc);
            v[0] = _mm256_maskload_ps(p, m0);
            v[1] = _mm256_maskload_ps(p.wrapping_add(W), m1);
        }
    }
    // One `k` loop per B access pattern, chosen outside the loop.
    macro_rules! k_loop {
        (|$bk:ident| $b0:expr, $b1:expr) => {
            for kk in 0..kc {
                let $bk = b.add(kk * s.ldb);
                let (b0, b1) = ($b0, $b1);
                for (v, p) in acc.iter_mut().zip(&ar) {
                    let av = _mm256_set1_ps(*p.add(kk * s.a_k));
                    v[0] = _mm256_fmadd_ps(av, b0, v[0]);
                    v[1] = _mm256_fmadd_ps(av, b1, v[1]);
                }
            }
        };
        (|$bk:ident| $b0:expr) => {
            for kk in 0..kc {
                let $bk = b.add(kk * s.ldb);
                let b0 = $b0;
                for (v, p) in acc.iter_mut().zip(&ar) {
                    v[0] = _mm256_fmadd_ps(_mm256_set1_ps(*p.add(kk * s.a_k)), b0, v[0]);
                }
            }
        };
    }
    if full {
        k_loop!(|bk| _mm256_loadu_ps(bk), _mm256_loadu_ps(bk.add(W)));
    } else if cols > W {
        k_loop!(|bk| _mm256_loadu_ps(bk), _mm256_maskload_ps(bk.add(W), m1));
    } else {
        k_loop!(|bk| _mm256_maskload_ps(bk, m0));
    }
    for (r, v) in acc.iter().enumerate() {
        if r >= rows {
            break;
        }
        let p = c.add(r * s.ldc);
        if full {
            _mm256_storeu_ps(p, v[0]);
            _mm256_storeu_ps(p.add(W), v[1]);
        } else {
            _mm256_maskstore_ps(p, m0, v[0]);
            _mm256_maskstore_ps(p.wrapping_add(W), m1, v[1]);
        }
    }
}

/// Shared body of the two [`scalar::affine_act`] twins over whole rows
/// of width `scale.len()`: `out` may alias `x` (each vector is loaded
/// before it is stored), which is how the in-place variant runs through
/// the same loop.
///
/// # Safety
///
/// Requires AVX2+FMA; `x` and `out` must be valid for `n` elements, a whole number
/// of rows of width `scale.len() == shift.len()`.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn affine_act_ptr(
    x: *const f32,
    scale: &[f32],
    shift: &[f32],
    act: Act,
    out: *mut f32,
    n: usize,
) {
    let w = scale.len();
    assert!(shift.len() == w && (w > 0 || n == 0) && n.is_multiple_of(w.max(1)));
    let (sp, bp) = (scale.as_ptr(), shift.as_ptr());
    let zero = _mm256_setzero_ps();
    // One loop nest per activation, so the select is decided outside the
    // vector loop. Each lane: product, then sum (two roundings), then the
    // activation of `scalar::affine_act_lane`.
    macro_rules! sweep {
        (|$t:ident| $act:expr) => {
            for r in (0..n).step_by(w.max(1)) {
                let (xr, or) = (x.add(r), out.add(r));
                let mut i = 0;
                while i + W <= w {
                    let p = _mm256_mul_ps(_mm256_loadu_ps(xr.add(i)), _mm256_loadu_ps(sp.add(i)));
                    let $t = _mm256_add_ps(p, _mm256_loadu_ps(bp.add(i)));
                    _mm256_storeu_ps(or.add(i), $act);
                    i += W;
                }
                while i < w {
                    *or.add(i) = scalar::affine_act_lane(*xr.add(i), scale[i], shift[i], act);
                    i += 1;
                }
            }
        };
    }
    match act {
        Act::Identity => sweep!(|t| t),
        // `max(t, 0)` returns the second operand when `t` is NaN or a
        // zero, which is `f32::max`'s `+0.0` for both.
        Act::Relu => sweep!(|t| _mm256_max_ps(t, zero)),
        Act::LeakyRelu(alpha) => {
            let va = _mm256_set1_ps(alpha);
            sweep!(|t| _mm256_blendv_ps(
                _mm256_mul_ps(va, t),
                t,
                _mm256_cmp_ps::<_CMP_GT_OQ>(t, zero)
            ));
        }
    }
}

/// AVX2 twin of [`scalar::affine_act`].
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn affine_act(
    x: &[f32],
    scale: &[f32],
    shift: &[f32],
    act: Act,
    out: &mut [f32],
) {
    let n = out.len();
    assert!(x.len() >= n);
    affine_act_ptr(x.as_ptr(), scale, shift, act, out.as_mut_ptr(), n);
}

/// AVX2 twin of [`scalar::affine_act_assign`].
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn affine_act_assign(v: &mut [f32], scale: &[f32], shift: &[f32], act: Act) {
    let n = v.len();
    let p = v.as_mut_ptr();
    affine_act_ptr(p, scale, shift, act, p, n);
}

/// AVX2 twin of [`scalar::affine_act_grad`]: the derivative is selected
/// by `y > 0` and multiplied in, then the scale — two products per lane,
/// in the scalar reference's order.
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn affine_act_grad(
    gy: &[f32],
    y: &[f32],
    scale: &[f32],
    act: Act,
    out: &mut [f32],
) {
    let (n, w) = (out.len(), scale.len());
    assert!(gy.len() >= n && y.len() >= n && (w > 0 || n == 0) && n.is_multiple_of(w.max(1)));
    let (gp, yp, sp, op) = (gy.as_ptr(), y.as_ptr(), scale.as_ptr(), out.as_mut_ptr());
    let (zero, one) = (_mm256_setzero_ps(), _mm256_set1_ps(1.0));
    macro_rules! sweep {
        (|$g:ident, $y:ident| $gt:expr) => {
            for r in (0..n).step_by(w.max(1)) {
                let mut i = 0;
                while i + W <= w {
                    let $g = _mm256_loadu_ps(gp.add(r + i));
                    let $y = _mm256_loadu_ps(yp.add(r + i));
                    _mm256_storeu_ps(op.add(r + i), _mm256_mul_ps($gt, _mm256_loadu_ps(sp.add(i))));
                    i += W;
                }
                while i < w {
                    out[r + i] = scalar::affine_act_grad_lane(gy[r + i], y[r + i], scale[i], act);
                    i += 1;
                }
            }
        };
    }
    match act {
        Act::Identity => sweep!(|g, _y| g),
        Act::Relu => sweep!(|g, y| _mm256_mul_ps(
            g,
            _mm256_blendv_ps(zero, one, _mm256_cmp_ps::<_CMP_GT_OQ>(y, zero))
        )),
        Act::LeakyRelu(alpha) => {
            let va = _mm256_set1_ps(alpha);
            sweep!(|g, y| _mm256_mul_ps(
                g,
                _mm256_blendv_ps(va, one, _mm256_cmp_ps::<_CMP_GT_OQ>(y, zero))
            ));
        }
    }
}

/// AVX2 twin of [`scalar::edge_grad_row`]: eight columns per pass, each
/// lane running the scalar reference's two scatter sums (`+0.0` start,
/// ascending edges, `g_left - g_right` rounded before it is added) and
/// the final `(out + sc) + sn`; ragged tail columns finish in the
/// reference loop.
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn edge_grad_row(
    g: &[f32],
    cols: usize,
    center_edges: &[usize],
    nbr_edges: &[usize],
    accumulate: bool,
    out: &mut [f32],
) {
    let n = out.len();
    let w = 2 * cols;
    assert!(n <= cols);
    let op = out.as_mut_ptr();
    let mut j = 0;
    while j + W <= n {
        let mut sc = _mm256_setzero_ps();
        for &d in center_edges {
            let row = &g[d * w..d * w + w];
            let left = _mm256_loadu_ps(row.as_ptr().add(j));
            let right = _mm256_loadu_ps(row.as_ptr().add(cols + j));
            sc = _mm256_add_ps(sc, _mm256_sub_ps(left, right));
        }
        let mut sn = _mm256_setzero_ps();
        for &d in nbr_edges {
            let row = &g[d * w..d * w + w];
            sn = _mm256_add_ps(sn, _mm256_loadu_ps(row.as_ptr().add(cols + j)));
        }
        let r = if accumulate {
            _mm256_add_ps(_mm256_add_ps(_mm256_loadu_ps(op.add(j)), sc), sn)
        } else {
            _mm256_add_ps(sc, sn)
        };
        _mm256_storeu_ps(op.add(j), r);
        j += W;
    }
    scalar::edge_grad_cols(g, cols, center_edges, nbr_edges, accumulate, j, &mut out[j..]);
}

/// AVX2 twin of [`scalar::tanh`]: the same clamp, fused polynomial chain
/// and division on eight lanes at a time, with NaN inputs passed through
/// bit-for-bit via an unordered-compare blend.
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn tanh(a: &[f32], out: &mut [f32]) {
    let n = out.len();
    assert!(a.len() >= n);
    let clamp_hi = _mm256_set1_ps(scalar::CLAMP);
    let clamp_lo = _mm256_set1_ps(-scalar::CLAMP);
    let mut i = 0;
    while i + W <= n {
        let x = _mm256_loadu_ps(a.as_ptr().add(i));
        // max/min with the clamp constant in the second operand: NaN lanes
        // come out clamped here but are replaced by the original x below.
        let xc = _mm256_min_ps(_mm256_max_ps(x, clamp_lo), clamp_hi);
        let x2 = _mm256_mul_ps(xc, xc);
        let mut p = _mm256_set1_ps(scalar::A13);
        p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(scalar::A11));
        p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(scalar::A9));
        p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(scalar::A7));
        p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(scalar::A5));
        p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(scalar::A3));
        p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(scalar::A1));
        let num = _mm256_mul_ps(p, xc);
        let mut q = _mm256_set1_ps(scalar::B6);
        q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(scalar::B4));
        q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(scalar::B2));
        q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(scalar::B0));
        let t = _mm256_div_ps(num, q);
        let nan_mask = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
        _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_blendv_ps(t, x, nan_mask));
        i += W;
    }
    while i < n {
        out[i] = scalar::tanh_lane(a[i]);
        i += 1;
    }
}
