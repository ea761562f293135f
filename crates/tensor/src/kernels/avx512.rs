//! AVX-512F implementations of the GEMM micro-tile, the NT row kernel and
//! the fused row kernels.
//!
//! Same contract as [`super::avx2`]: every output element continues its
//! ascending-`k` fused-multiply-add chain exactly as the scalar reference
//! does, so the 512-bit tile is bit-identical to both the scalar and the
//! AVX2 legs — a chain's order depends only on `k` order, never on vector
//! width or tile geometry. The NT row kernel keeps [`super::scalar::dot`]'s
//! eight lane partials per element across sixteen columns, and the fused
//! eval-batch-norm epilogue and edge-feature backward run the scalar
//! references' per-lane sequences sixteen columns at a time. Every other
//! kernel family saturates with 256-bit vectors already.
//!
//! Like `avx2`, this module is a sanctioned `unsafe` island: intrinsics
//! require it, and every function is `#[target_feature]`-gated so it must
//! only be called after runtime detection (enforced by the dispatch layer
//! in [`super`]).
#![allow(unsafe_code)]

use super::{scalar, Act};
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
/// geometry: twelve rows of two `zmm` accumulators, fed by one broadcast
/// of the packed A panel and two loads of the packed B panel per `k` step.
///
/// Accumulator seeding, zero-padded edge handling and the deterministic
/// per-element chain order are exactly as in [`super::avx2::gemm_tile_6x16`];
/// partial columns use `__mmask16` masked C loads/stores.
///
/// # Safety
///
/// Requires AVX-512F, verified by the caller via runtime detection.
/// `ap`/`bp` must hold at least `kc*12` / `kc*32` elements and `c` the
/// `rows x cols` corner at row stride `ldc`.
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn gemm_tile_12x32(
    ap: *const f32,
    bp: *const f32,
    kc: usize,
    rows: usize,
    cols: usize,
    init: bool,
    c: *mut f32,
    ldc: usize,
) {
    const MR: usize = 12;
    debug_assert!(rows <= MR && cols <= 2 * W && rows > 0 && cols > 0);
    let full = cols == 2 * W;
    let m0 = lane_mask(cols.min(W));
    let m1 = lane_mask(cols.saturating_sub(W));
    let mut acc = [[_mm512_setzero_ps(); 2]; MR];
    if !init {
        for (r, a) in acc.iter_mut().enumerate().take(rows) {
            let p = c.add(r * ldc);
            if full {
                a[0] = _mm512_loadu_ps(p);
                a[1] = _mm512_loadu_ps(p.add(W));
            } else {
                a[0] = _mm512_maskz_loadu_ps(m0, p);
                if cols > W {
                    a[1] = _mm512_maskz_loadu_ps(m1, p.add(W));
                }
            }
        }
    }
    for kk in 0..kc {
        let b0 = _mm512_loadu_ps(bp.add(kk * 2 * W));
        let b1 = _mm512_loadu_ps(bp.add(kk * 2 * W + W));
        for (r, a) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*ap.add(kk * MR + r));
            a[0] = _mm512_fmadd_ps(av, b0, a[0]);
            a[1] = _mm512_fmadd_ps(av, b1, a[1]);
        }
    }
    for (r, a) in acc.iter().enumerate().take(rows) {
        let p = c.add(r * ldc);
        if full {
            _mm512_storeu_ps(p, a[0]);
            _mm512_storeu_ps(p.add(W), a[1]);
        } else {
            _mm512_mask_storeu_ps(p, m0, a[0]);
            if cols > W {
                _mm512_mask_storeu_ps(p.add(W), m1, a[1]);
            }
        }
    }
}

/// AVX-512 twin of [`super::scalar::matmul_nt_row`]: the layout of
/// [`super::avx2::matmul_nt_row`] with sixteen output columns per `zmm`
/// accumulator. Term `kk` goes to accumulator `kk % 8`, and the vertical
/// [`super::scalar::combine`] tree joins the eight accumulators, so every
/// column sees the scalar reference's operation sequence exactly.
///
/// # Safety
///
/// Requires AVX-512F, verified by the caller via runtime detection.
/// `ldb` must be a multiple of 16 with `out_row.len() <= ldb` and
/// `bt.len() >= a_row.len() * ldb`.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn matmul_nt_row(a_row: &[f32], bt: &[f32], ldb: usize, out_row: &mut [f32]) {
    const L: usize = 8;
    let k = a_row.len();
    let n = out_row.len();
    assert!(ldb.is_multiple_of(W) && n <= ldb && bt.len() >= k * ldb);
    if k == 0 {
        out_row.fill(0.0);
        return;
    }
    let ap = a_row.as_ptr();
    let op = out_row.as_mut_ptr();
    let k8 = k - k % L;
    let mut j = 0;
    while j < n {
        let mut b = bt.as_ptr().add(j);
        let mut a = ap;
        let mut acc = [_mm512_setzero_ps(); L];
        let end = ap.add(k8);
        while a < end {
            for (l, c) in acc.iter_mut().enumerate() {
                *c =
                    _mm512_fmadd_ps(_mm512_set1_ps(*a.add(l)), _mm512_loadu_ps(b.add(l * ldb)), *c);
            }
            a = a.add(L);
            b = b.add(L * ldb);
        }
        // Remainder terms land in lanes 0..k%8, exactly as in `dot`.
        for (l, c) in acc.iter_mut().enumerate().take(k - k8) {
            *c = _mm512_fmadd_ps(_mm512_set1_ps(*a.add(l)), _mm512_loadu_ps(b.add(l * ldb)), *c);
        }
        let s = _mm512_add_ps(
            _mm512_add_ps(_mm512_add_ps(acc[0], acc[1]), _mm512_add_ps(acc[2], acc[3])),
            _mm512_add_ps(_mm512_add_ps(acc[4], acc[5]), _mm512_add_ps(acc[6], acc[7])),
        );
        if j + W <= n {
            _mm512_storeu_ps(op.add(j), s);
        } else {
            _mm512_mask_storeu_ps(op.add(j), lane_mask(n - j), s);
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
