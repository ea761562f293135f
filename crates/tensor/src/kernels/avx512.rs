//! AVX-512F implementations of the GEMM micro-tile, the NT row kernel and
//! the fused row kernels.
//!
//! Same contract as [`super::avx2`]: every output element continues its
//! ascending-`k` fused-multiply-add chain exactly as the scalar reference
//! does, so the 512-bit tile is bit-identical to both the scalar and the
//! AVX2 legs — a chain's order depends only on `k` order, never on vector
//! width or tile geometry. The NT kernel keeps [`super::scalar::dot`]'s
//! eight lane partials per element across sixteen columns and three rows
//! per pass, and the fused eval-batch-norm epilogue and edge-feature
//! backward run the scalar references' per-lane sequences sixteen columns
//! at a time. The elementwise and reduction kernels have 256-bit legs
//! only. The row GEMM showed that 256 bits are not always enough: at the
//! victims' shapes it is bound by FMA latency, and this leg's 24-
//! accumulator tile runs those products at about twice its rate
//! (DESIGN.md, "GEMM micro-kernels").
//!
//! Like `avx2`, this module is a sanctioned `unsafe` island: intrinsics
//! require it, and every function is `#[target_feature]`-gated so it must
//! only be called after runtime detection (enforced by the dispatch layer
//! in [`super`]).
#![allow(unsafe_code)]

use super::{scalar, Act, TileStrides};
use core::arch::x86_64::{
    __mmask16, _mm512_add_ps, _mm512_cmp_ps_mask, _mm512_fmadd_ps, _mm512_loadu_ps,
    _mm512_mask_blend_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_max_ps,
    _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps, _mm512_sub_ps, _CMP_GT_OQ,
};

const W: usize = 16;

/// Mask selecting the first `lanes` of sixteen `f32` lanes.
#[inline]
fn lane_mask(lanes: usize) -> __mmask16 {
    debug_assert!(lanes <= W);
    ((1u32 << lanes) - 1) as __mmask16
}

/// AVX-512 twin of [`super::scalar::gemm_tile`] for the 12x32 micro-tile
/// geometry: twelve rows of two `zmm` accumulators, fed per `k` step by
/// two B loads and one broadcast per row, read in place through the
/// strides `s`.
///
/// Seeding, edge handling and the per-element chain order are exactly as
/// in [`super::avx2::gemm_tile_6x16`]. All B and C accesses use
/// `__mmask16` masks (a full mask on whole columns costs nothing extra),
/// and a corner at most sixteen columns wide runs twelve accumulators.
///
/// # Safety
///
/// Requires AVX-512F, verified by the caller via runtime detection. `a`,
/// `b` and `c` must be valid for the `rows x kc`, `kc x cols` and
/// `rows x cols` blocks their strides in `s` address.
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn gemm_tile_12x32(
    a: *const f32,
    b: *const f32,
    s: TileStrides,
    kc: usize,
    rows: usize,
    cols: usize,
    init: bool,
    c: *mut f32,
) {
    const MR: usize = 12;
    debug_assert!(rows <= MR && cols <= 2 * W && rows > 0 && cols > 0);
    let m0 = lane_mask(cols.min(W));
    let m1 = lane_mask(cols.saturating_sub(W));
    // Spare rows re-read the last real row, so A is never read past its
    // end; they are never stored. The pointers wrap rather than offset:
    // with `kc == 0` nothing is read, and `a` may be shorter than its rows.
    let ar: [*const f32; MR] = core::array::from_fn(|r| a.wrapping_add(r.min(rows - 1) * s.a_row));
    // Every row loop runs all MR rows, so the accumulators stay in
    // registers. The second half of a corner at most sixteen wide has an
    // empty mask, so its address is never dereferenced and may lie past
    // `c`'s end.
    let mut acc = [[_mm512_setzero_ps(); 2]; MR];
    if !init {
        for (r, v) in acc.iter_mut().enumerate() {
            let p = c.add(r.min(rows - 1) * s.ldc);
            v[0] = _mm512_maskz_loadu_ps(m0, p);
            v[1] = _mm512_maskz_loadu_ps(m1, p.wrapping_add(W));
        }
    }
    if cols > W {
        for kk in 0..kc {
            let bk = b.add(kk * s.ldb);
            let b0 = _mm512_maskz_loadu_ps(m0, bk);
            let b1 = _mm512_maskz_loadu_ps(m1, bk.add(W));
            for (v, p) in acc.iter_mut().zip(&ar) {
                let av = _mm512_set1_ps(*p.add(kk * s.a_k));
                v[0] = _mm512_fmadd_ps(av, b0, v[0]);
                v[1] = _mm512_fmadd_ps(av, b1, v[1]);
            }
        }
    } else {
        for kk in 0..kc {
            let b0 = _mm512_maskz_loadu_ps(m0, b.add(kk * s.ldb));
            for (v, p) in acc.iter_mut().zip(&ar) {
                v[0] = _mm512_fmadd_ps(_mm512_set1_ps(*p.add(kk * s.a_k)), b0, v[0]);
            }
        }
    }
    for (r, v) in acc.iter().enumerate() {
        if r < rows {
            let p = c.add(r * s.ldc);
            _mm512_mask_storeu_ps(p, m0, v[0]);
            _mm512_mask_storeu_ps(p.wrapping_add(W), m1, v[1]);
        }
    }
}

/// Rows per pass of [`matmul_nt_rows`]: each packed `Bᵀ` vector load
/// feeds this many rows, which hold eight `zmm` partials each.
const NT_ROWS: usize = 3;

/// AVX-512 leg of [`super::matmul_nt_rows`]: the layout of
/// [`super::avx2::matmul_nt_row`] with sixteen output columns per `zmm`
/// accumulator, run [`NT_ROWS`] rows at a time so each load of `bt` is
/// shared by every row of the pass. Term `kk` of each row goes to that
/// row's accumulator `kk % 8`, and the vertical [`super::scalar::combine`]
/// tree joins the eight accumulators, so every element sees the scalar
/// reference's operation sequence exactly. Rows left over at the end run
/// one at a time through the same body.
///
/// # Safety
///
/// Requires AVX-512F, verified by the caller via runtime detection.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn matmul_nt_rows(
    a: &[f32],
    k: usize,
    bt: &[f32],
    ldb: usize,
    out: &mut [f32],
    n: usize,
) {
    if n == 0 {
        return;
    }
    let m = out.len() / n;
    assert!(ldb.is_multiple_of(W) && n <= ldb && bt.len() >= k * ldb);
    assert!(out.len() == m * n && a.len() >= m * k);
    let (ap, op) = (a.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + NT_ROWS <= m {
        nt_pass::<NT_ROWS>(ap.add(i * k), k, bt.as_ptr(), ldb, op.add(i * n), n);
        i += NT_ROWS;
    }
    while i < m {
        nt_pass::<1>(ap.add(i * k), k, bt.as_ptr(), ldb, op.add(i * n), n);
        i += 1;
    }
}

/// `R` rows of [`matmul_nt_rows`] in one pass over `bt`.
///
/// # Safety
///
/// Requires AVX-512F; the bounds [`matmul_nt_rows`] asserts.
#[target_feature(enable = "avx512f")]
unsafe fn nt_pass<const R: usize>(
    a: *const f32,
    k: usize,
    bt: *const f32,
    ldb: usize,
    out: *mut f32,
    n: usize,
) {
    const L: usize = 8;
    let k8 = k - k % L;
    let mut j = 0;
    while j < n {
        let mut acc = [[_mm512_setzero_ps(); L]; R];
        let mut kk = 0;
        while kk < k8 {
            for l in 0..L {
                let bv = _mm512_loadu_ps(bt.add((kk + l) * ldb + j));
                for (r, v) in acc.iter_mut().enumerate() {
                    v[l] = _mm512_fmadd_ps(_mm512_set1_ps(*a.add(r * k + kk + l)), bv, v[l]);
                }
            }
            kk += L;
        }
        // Remainder terms land in lanes 0..k%8, exactly as in `dot`.
        for l in 0..k - k8 {
            let bv = _mm512_loadu_ps(bt.add((k8 + l) * ldb + j));
            for (r, v) in acc.iter_mut().enumerate() {
                v[l] = _mm512_fmadd_ps(_mm512_set1_ps(*a.add(r * k + k8 + l)), bv, v[l]);
            }
        }
        let mask = lane_mask((n - j).min(W));
        for (r, v) in acc.iter().enumerate() {
            let s = _mm512_add_ps(
                _mm512_add_ps(_mm512_add_ps(v[0], v[1]), _mm512_add_ps(v[2], v[3])),
                _mm512_add_ps(_mm512_add_ps(v[4], v[5]), _mm512_add_ps(v[6], v[7])),
            );
            _mm512_mask_storeu_ps(out.add(r * n + j), mask, s);
        }
        j += W;
    }
}

/// Shared body of the two [`scalar::affine_act`] twins over whole rows;
/// `out` may alias `x`, as in [`super::avx2`].
///
/// # Safety
///
/// Requires AVX-512F; `x` and `out` must be valid for `n` elements, a whole number
/// of rows of width `scale.len() == shift.len()`.
#[target_feature(enable = "avx512f")]
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
    let zero = _mm512_setzero_ps();
    // One loop nest per activation, so the select is decided outside the
    // vector loop. Each lane: product, then sum (two roundings), then the
    // activation of `scalar::affine_act_lane`.
    macro_rules! sweep {
        (|$t:ident| $act:expr) => {
            for r in (0..n).step_by(w.max(1)) {
                let (xr, or) = (x.add(r), out.add(r));
                let mut i = 0;
                while i + W <= w {
                    let p = _mm512_mul_ps(_mm512_loadu_ps(xr.add(i)), _mm512_loadu_ps(sp.add(i)));
                    let $t = _mm512_add_ps(p, _mm512_loadu_ps(bp.add(i)));
                    _mm512_storeu_ps(or.add(i), $act);
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
        Act::Relu => sweep!(|t| _mm512_max_ps(t, zero)),
        Act::LeakyRelu(alpha) => {
            let va = _mm512_set1_ps(alpha);
            sweep!(|t| _mm512_mask_blend_ps(
                _mm512_cmp_ps_mask::<_CMP_GT_OQ>(t, zero),
                _mm512_mul_ps(va, t),
                t
            ));
        }
    }
}

/// AVX-512 twin of [`scalar::affine_act`].
///
/// # Safety
///
/// Requires AVX-512F, verified by the caller via runtime detection.
#[target_feature(enable = "avx512f")]
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

/// AVX-512 twin of [`scalar::affine_act_assign`].
///
/// # Safety
///
/// Requires AVX-512F, verified by the caller via runtime detection.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn affine_act_assign(v: &mut [f32], scale: &[f32], shift: &[f32], act: Act) {
    let n = v.len();
    let p = v.as_mut_ptr();
    affine_act_ptr(p, scale, shift, act, p, n);
}

/// AVX-512 twin of [`scalar::affine_act_grad`].
///
/// # Safety
///
/// Requires AVX-512F, verified by the caller via runtime detection.
#[target_feature(enable = "avx512f")]
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
    let (zero, one) = (_mm512_setzero_ps(), _mm512_set1_ps(1.0));
    macro_rules! sweep {
        (|$g:ident, $y:ident| $gt:expr) => {
            for r in (0..n).step_by(w.max(1)) {
                let mut i = 0;
                while i + W <= w {
                    let $g = _mm512_loadu_ps(gp.add(r + i));
                    let $y = _mm512_loadu_ps(yp.add(r + i));
                    _mm512_storeu_ps(op.add(r + i), _mm512_mul_ps($gt, _mm512_loadu_ps(sp.add(i))));
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
        Act::Relu => sweep!(|g, y| _mm512_mul_ps(
            g,
            _mm512_mask_blend_ps(_mm512_cmp_ps_mask::<_CMP_GT_OQ>(y, zero), zero, one)
        )),
        Act::LeakyRelu(alpha) => {
            let va = _mm512_set1_ps(alpha);
            sweep!(|g, y| _mm512_mul_ps(
                g,
                _mm512_mask_blend_ps(_mm512_cmp_ps_mask::<_CMP_GT_OQ>(y, zero), va, one)
            ));
        }
    }
}

/// AVX-512 twin of [`scalar::edge_grad_row`]: the layout of
/// [`super::avx2::edge_grad_row`] with sixteen columns per pass.
///
/// # Safety
///
/// Requires AVX-512F, verified by the caller via runtime detection.
#[target_feature(enable = "avx512f")]
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
        let mut sc = _mm512_setzero_ps();
        for &d in center_edges {
            let row = &g[d * w..d * w + w];
            let left = _mm512_loadu_ps(row.as_ptr().add(j));
            let right = _mm512_loadu_ps(row.as_ptr().add(cols + j));
            sc = _mm512_add_ps(sc, _mm512_sub_ps(left, right));
        }
        let mut sn = _mm512_setzero_ps();
        for &d in nbr_edges {
            let row = &g[d * w..d * w + w];
            sn = _mm512_add_ps(sn, _mm512_loadu_ps(row.as_ptr().add(cols + j)));
        }
        let r = if accumulate {
            _mm512_add_ps(_mm512_add_ps(_mm512_loadu_ps(op.add(j)), sc), sn)
        } else {
            _mm512_add_ps(sc, sn)
        };
        _mm512_storeu_ps(op.add(j), r);
        j += W;
    }
    scalar::edge_grad_cols(g, cols, center_edges, nbr_edges, accumulate, j, &mut out[j..]);
}
