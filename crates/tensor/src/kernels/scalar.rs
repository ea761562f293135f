//! Pinned-order scalar reference kernels.
//!
//! Every kernel in this module is the *semantic definition* of the
//! corresponding dispatched kernel in [`super`]: the AVX2 implementations
//! must produce bit-identical results for every input, including NaN and
//! signed zero. Two rules make that possible:
//!
//! 1. **Elementwise and axpy-family kernels** perform an identical
//!    straight-line sequence of correctly-rounded IEEE-754 operations per
//!    output element (`+`, `-`, `*`, `/` and [`f32::mul_add`], which is the
//!    correctly-rounded fused multiply-add, matching `vfmadd*ps`).
//! 2. **Reduction kernels** accumulate into eight lane-strided partial sums
//!    (element `i` goes to lane `i % 8`, ascending `i` within each lane) and
//!    combine them with the fixed tree [`combine`]. An AVX2 `ymm`
//!    accumulator performs exactly the per-lane operation sequence, so
//!    storing it to memory and applying the same tree reproduces the scalar
//!    result bit for bit.
//!
//! These functions are public so property tests (and sceptical users) can
//! compare them directly against whatever `super`'s runtime dispatch picks.

use super::Act;

/// Number of strided partial sums used by every reduction kernel. Equal to
/// the AVX2 `f32` vector width so one `ymm` register holds all lanes.
pub const LANES: usize = 8;

/// Combines eight lane partials in the fixed order shared by the scalar and
/// SIMD reductions: `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
#[inline]
pub fn combine(l: &[f32; LANES]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// `out[i] = a[i] + b[i]`.
pub fn add(a: &[f32], b: &[f32], out: &mut [f32]) {
    for (o, (&x, &y)) in out.iter_mut().zip(a.iter().zip(b)) {
        *o = x + y;
    }
}

/// `out[i] = a[i] - b[i]`.
pub fn sub(a: &[f32], b: &[f32], out: &mut [f32]) {
    for (o, (&x, &y)) in out.iter_mut().zip(a.iter().zip(b)) {
        *o = x - y;
    }
}

/// `out[i] = a[i] * b[i]`.
pub fn mul(a: &[f32], b: &[f32], out: &mut [f32]) {
    for (o, (&x, &y)) in out.iter_mut().zip(a.iter().zip(b)) {
        *o = x * y;
    }
}

/// `out[i] = a[i] / b[i]`.
pub fn div(a: &[f32], b: &[f32], out: &mut [f32]) {
    for (o, (&x, &y)) in out.iter_mut().zip(a.iter().zip(b)) {
        *o = x / y;
    }
}

/// `dst[i] += src[i]`.
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `dst[i] -= src[i]`.
pub fn sub_assign(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d -= s;
    }
}

/// `dst[i] *= src[i]`.
pub fn mul_assign(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d *= s;
    }
}

/// `dst[i] = fma(alpha, x[i], dst[i])` — fused scaled accumulation.
pub fn axpy(dst: &mut [f32], alpha: f32, x: &[f32]) {
    for (d, &v) in dst.iter_mut().zip(x) {
        *d = alpha.mul_add(v, *d);
    }
}

/// `dst[i] = fma(a[i], b[i], dst[i])` — fused product accumulation.
pub fn add_prod_assign(dst: &mut [f32], a: &[f32], b: &[f32]) {
    for (d, (&x, &y)) in dst.iter_mut().zip(a.iter().zip(b)) {
        *d = x.mul_add(y, *d);
    }
}

/// `dst[i] = fma(-a[i], b[i], dst[i])` — fused product subtraction.
pub fn sub_prod_assign(dst: &mut [f32], a: &[f32], b: &[f32]) {
    for (d, (&x, &y)) in dst.iter_mut().zip(a.iter().zip(b)) {
        *d = (-x).mul_add(y, *d);
    }
}

/// `out[i] = fma(a[i], b[i], c[i])`.
pub fn mul_add(a: &[f32], b: &[f32], c: &[f32], out: &mut [f32]) {
    for (o, ((&x, &y), &z)) in out.iter_mut().zip(a.iter().zip(b).zip(c)) {
        *o = x.mul_add(y, z);
    }
}

/// `out[i] = a[i] * s`.
pub fn scale(a: &[f32], s: f32, out: &mut [f32]) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = x * s;
    }
}

/// `dst[i] *= s`.
pub fn scale_assign(dst: &mut [f32], s: f32) {
    for d in dst.iter_mut() {
        *d *= s;
    }
}

/// Sum of all elements via eight lane-strided partials and [`combine`].
pub fn sum(a: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut chunks = a.chunks_exact(LANES);
    for ch in &mut chunks {
        for (l, &v) in acc.iter_mut().zip(ch) {
            *l += v;
        }
    }
    for (l, &v) in acc.iter_mut().zip(chunks.remainder()) {
        *l += v;
    }
    combine(&acc)
}

/// Dot product via eight lane-strided fused partials and [`combine`].
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (x, y) in (&mut ca).zip(&mut cb) {
        for (l, (&xv, &yv)) in acc.iter_mut().zip(x.iter().zip(y)) {
            *l = xv.mul_add(yv, *l);
        }
    }
    for (l, (&xv, &yv)) in acc.iter_mut().zip(ca.remainder().iter().zip(cb.remainder())) {
        *l = xv.mul_add(yv, *l);
    }
    combine(&acc)
}

/// Sum of squares via eight lane-strided fused partials and [`combine`].
pub fn sum_sq(a: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut chunks = a.chunks_exact(LANES);
    for ch in &mut chunks {
        for (l, &v) in acc.iter_mut().zip(ch) {
            *l = v.mul_add(v, *l);
        }
    }
    for (l, &v) in acc.iter_mut().zip(chunks.remainder()) {
        *l = v.mul_add(v, *l);
    }
    combine(&acc)
}

/// The accumulation primitive every matmul-family kernel reduces to: one
/// output element's ascending-`k` chain of fused multiply-adds,
/// `init -> fma(a[0*sa], b[0*sb], init) -> fma(a[1*sa], b[1*sb], ..) -> ..`
/// for `len` steps with strided operand walks.
///
/// The row kernels call it with `sa = 1, sb = n` (a row against a column
/// of `b`); the tiled GEMM path calls it with the packed-panel strides
/// (`sa = MR, sb = NR`). Because a chain's order depends only on `k`
/// order — never on how elements are grouped into rows, tiles or vector
/// lanes — every caller produces bit-identical results for the same
/// logical element.
#[inline]
pub fn fma_dot_chain(a: &[f32], sa: usize, b: &[f32], sb: usize, len: usize, init: f32) -> f32 {
    let mut acc = init;
    for kk in 0..len {
        acc = a[kk * sa].mul_add(b[kk * sb], acc);
    }
    acc
}

/// One output row of a row-major matrix product:
/// `out_row[j] += sum_k a_row[k] * b[k*n + j]`, accumulated as an
/// ascending-`k` chain of fused multiply-adds per output element.
///
/// `b` is the full `k x n` row-major right-hand operand. Both matmul and
/// matmul-transposed route through this kernel (the latter after packing
/// its left operand), so every product shares one accumulation order.
///
/// Columns up to the last multiple of [`LANES`] run a `k`-outer loop (the
/// vector-friendly order); the ragged tail finishes element-wise through
/// [`fma_dot_chain`] — the same helper the AVX2 twin's tail uses, so the
/// tail logic lives in exactly one place. Per element both loops are the
/// same ascending-`k` chain, so the split never changes a result.
pub fn matmul_row(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
    debug_assert_eq!(a_row.len() * n, b.len());
    if a_row.is_empty() {
        return;
    }
    let n8 = n - n % LANES;
    for (kk, &a) in a_row.iter().enumerate() {
        let b_row = &b[kk * n..kk * n + n8];
        for (o, &bv) in out_row[..n8].iter_mut().zip(b_row) {
            *o = a.mul_add(bv, *o);
        }
    }
    for (j, o) in out_row.iter_mut().enumerate().take(n).skip(n8) {
        *o = fma_dot_chain(a_row, 1, &b[j..], n, a_row.len(), *o);
    }
}

/// One output row of `a * b^T` read through the packed transpose `bt`
/// (`[k, ldb]` row-major: `bt[kk * ldb + j] = b[j][kk]`):
/// `out_row[j] = dot(a_row, b[j])` with exactly [`dot`]'s semantics —
/// term `kk` folds into lane `kk % 8` as a fused multiply-add, lanes run
/// in ascending `kk`, and [`combine`] joins them.
///
/// Every output element is overwritten. The AVX2 twin keeps the same
/// eight lane partials per element but holds them across eight adjacent
/// columns in one vector, so it is bit-identical to this loop and to
/// [`dot`] against the untransposed rows.
pub fn matmul_nt_row(a_row: &[f32], bt: &[f32], ldb: usize, out_row: &mut [f32]) {
    debug_assert!(out_row.len() <= ldb && bt.len() >= a_row.len() * ldb);
    for (j, o) in out_row.iter_mut().enumerate() {
        let mut acc = [0.0f32; LANES];
        for (kk, &a) in a_row.iter().enumerate() {
            let l = &mut acc[kk % LANES];
            *l = a.mul_add(bt[kk * ldb + j], *l);
        }
        *o = combine(&acc);
    }
}

/// Pinned-order reference for one GEMM micro-tile: continues (or, when
/// `init` is set, starts at zero) the per-element ascending-`k` chain for
/// the `rows x cols` in-bounds corner of an `mr x nr` tile, reading the
/// packed panels `ap` (k-major, row-minor, stride `mr`) and `bp` (k-major,
/// column-minor, stride `nr`).
///
/// The SIMD twins compute the full padded `mr x nr` tile and store only
/// the in-bounds corner; padded panel entries are zero, so the in-bounds
/// chains are identical and this reference is bit-exact against them.
#[allow(clippy::too_many_arguments)]
pub fn gemm_tile(
    ap: &[f32],
    bp: &[f32],
    mr: usize,
    nr: usize,
    kc: usize,
    rows: usize,
    cols: usize,
    init: bool,
    c: &mut [f32],
    ldc: usize,
) {
    debug_assert!(rows <= mr && cols <= nr);
    debug_assert!(ap.len() >= kc * mr && bp.len() >= kc * nr);
    if kc == 0 {
        if init {
            for r in 0..rows {
                c[r * ldc..r * ldc + cols].fill(0.0);
            }
        }
        return;
    }
    for r in 0..rows {
        let c_row = &mut c[r * ldc..r * ldc + cols];
        for (j, o) in c_row.iter_mut().enumerate() {
            let seed = if init { 0.0 } else { *o };
            *o = fma_dot_chain(&ap[r..], mr, &bp[j..], nr, kc, seed);
        }
    }
}

/// Pinned serial reference for grouped max pooling over consecutive
/// groups of `k` rows of the row-major `x` (row width `cols`): for every
/// group and column, the running maximum starts at `-inf` at the group's
/// first row and is replaced only by a strictly greater element, in
/// ascending row order. `out` (`[groups, cols]`) receives the maximum and
/// `argmax` the row it came from. NaN never wins, so an all-NaN (or
/// all `-inf`) column yields `-inf` with the group's first row.
///
/// [`crate::Matrix::group_max_into`] computes the same elements row-wise
/// and in parallel; this column-strided loop is what it is tested
/// against.
pub fn group_max(x: &[f32], cols: usize, k: usize, out: &mut [f32], argmax: &mut [usize]) {
    let groups = out.len().checked_div(cols).unwrap_or(0);
    for g in 0..groups {
        for c in 0..cols {
            let mut best = f32::NEG_INFINITY;
            let mut best_row = g * k;
            for j in 0..k {
                let r = g * k + j;
                let v = x[r * cols + c];
                if v > best {
                    best = v;
                    best_row = r;
                }
            }
            out[g * cols + c] = best;
            argmax[g * cols + c] = best_row;
        }
    }
}

/// Pinned serial reference for the backward scatter of [`group_max`]:
/// zeroes `out` (`[groups * k, cols]`) and adds each upstream gradient
/// `gy[g][c]` into its source element `out[argmax[g*cols + c]][c]`, in
/// ascending `(g, c)` order.
pub fn group_max_grad(gy: &[f32], cols: usize, argmax: &[usize], out: &mut [f32]) {
    out.fill(0.0);
    let groups = gy.len().checked_div(cols).unwrap_or(0);
    for g in 0..groups {
        for c in 0..cols {
            let src = argmax[g * cols + c];
            out[src * cols + c] += gy[g * cols + c];
        }
    }
}

/// Pinned serial reference for the softmax over each group of `k`
/// consecutive rows, per column: the maximum folds with [`f32::max`] in
/// ascending row order, `exp(x - max)` is accumulated into the
/// denominator in the same order, and every element is finally divided
/// by its column's denominator.
pub fn group_softmax(x: &[f32], cols: usize, k: usize, out: &mut [f32]) {
    let groups = x.len().checked_div(cols * k).unwrap_or(0);
    for g in 0..groups {
        for c in 0..cols {
            let mut maxv = f32::NEG_INFINITY;
            for j in 0..k {
                maxv = maxv.max(x[(g * k + j) * cols + c]);
            }
            let mut denom = 0.0f32;
            for j in 0..k {
                let e = (x[(g * k + j) * cols + c] - maxv).exp();
                out[(g * k + j) * cols + c] = e;
                denom += e;
            }
            for j in 0..k {
                out[(g * k + j) * cols + c] /= denom;
            }
        }
    }
}

/// Pinned serial reference for the backward pass of [`group_softmax`]:
/// per group and column, `dot = sum_j gy * s` (unfused multiply, then
/// add, in ascending row order), then `out = s * (gy - dot)`.
pub fn group_softmax_grad(softmax: &[f32], gy: &[f32], cols: usize, k: usize, out: &mut [f32]) {
    let groups = softmax.len().checked_div(cols * k).unwrap_or(0);
    for g in 0..groups {
        for c in 0..cols {
            let mut dot = 0.0f32;
            for j in 0..k {
                let e = (g * k + j) * cols + c;
                dot += gy[e] * softmax[e];
            }
            for j in 0..k {
                let e = (g * k + j) * cols + c;
                out[e] = softmax[e] * (gy[e] - dot);
            }
        }
    }
}

/// One lane of [`affine_act`]: `act(x * s + b)`, rounded after the
/// product and again after the sum (never a fused multiply-add), with
/// the tape's activation expressions — `t.max(0.0)` for ReLU and
/// `if t > 0.0 { t } else { alpha * t }` for leaky ReLU. That is the
/// element a row-broadcast multiply, a row-broadcast add and the
/// activation compute one after another.
#[inline]
pub fn affine_act_lane(x: f32, s: f32, b: f32, act: Act) -> f32 {
    let t = x * s + b;
    match act {
        Act::Identity => t,
        Act::Relu => t.max(0.0),
        Act::LeakyRelu(alpha) => {
            if t > 0.0 {
                t
            } else {
                alpha * t
            }
        }
    }
}

/// `out = act(x * scale + shift)` via [`affine_act_lane`] over whole rows
/// of width `scale.len()` (`x` and `out` hold a whole number of rows):
/// eval-mode batch norm and its activation in one pass.
pub fn affine_act(x: &[f32], scale: &[f32], shift: &[f32], act: Act, out: &mut [f32]) {
    let w = scale.len();
    for (xr, or) in x.chunks(w.max(1)).zip(out.chunks_mut(w.max(1))) {
        for (o, ((&x, &s), &b)) in or.iter_mut().zip(xr.iter().zip(scale).zip(shift)) {
            *o = affine_act_lane(x, s, b, act);
        }
    }
}

/// In-place [`affine_act`]: `v = act(v * scale + shift)` over whole rows.
pub fn affine_act_assign(v: &mut [f32], scale: &[f32], shift: &[f32], act: Act) {
    for vr in v.chunks_mut(scale.len().max(1)) {
        for (o, (&s, &b)) in vr.iter_mut().zip(scale.iter().zip(shift)) {
            *o = affine_act_lane(*o, s, b, act);
        }
    }
}

/// One lane of [`affine_act_grad`]: `(g * act'(y)) * s`, the activation
/// backward followed by the row-broadcast multiply's backward. The
/// derivative tests the *output* `y > 0`, which for ReLU and for a
/// positive leaky slope holds exactly when the pre-activation does; the
/// product with the derivative is always performed (`g * 0.0` keeps the
/// sign of `g` and turns `±inf` into NaN, as the unfused arm does).
#[inline]
pub fn affine_act_grad_lane(g: f32, y: f32, s: f32, act: Act) -> f32 {
    let gt = match act {
        Act::Identity => g,
        Act::Relu => g * if y > 0.0 { 1.0 } else { 0.0 },
        Act::LeakyRelu(alpha) => g * if y > 0.0 { 1.0 } else { alpha },
    };
    gt * s
}

/// `out = (gy * act'(y)) * scale` via [`affine_act_grad_lane`] over whole
/// rows of width `scale.len()`.
pub fn affine_act_grad(gy: &[f32], y: &[f32], scale: &[f32], act: Act, out: &mut [f32]) {
    let w = scale.len().max(1);
    for ((gr, yr), or) in gy.chunks(w).zip(y.chunks(w)).zip(out.chunks_mut(w)) {
        for (o, ((&g, &y), &s)) in or.iter_mut().zip(gr.iter().zip(yr).zip(scale)) {
            *o = affine_act_grad_lane(g, y, s, act);
        }
    }
}

/// Pinned serial reference for one destination row of the edge-feature
/// backward. `g` is the `[E, 2 * cols]` upstream gradient of rows
/// `[h[c] | h[j] - h[c]]`; `center_edges` and `nbr_edges` list, in
/// ascending order, the edges whose center (resp. neighbor) is this row.
///
/// Per column this is the unfused backward exactly: the center gather's
/// scatter `sc` sums `g_left - g_right` (one rounding) into `+0.0` over
/// `center_edges`, the neighbor gather's scatter `sn` sums `g_right` the
/// same way over `nbr_edges`, and the row becomes `(out + sc) + sn` when
/// `accumulate` (a gradient slot already existed) or `sc + sn` when not.
pub fn edge_grad_row(
    g: &[f32],
    cols: usize,
    center_edges: &[usize],
    nbr_edges: &[usize],
    accumulate: bool,
    out: &mut [f32],
) {
    edge_grad_cols(g, cols, center_edges, nbr_edges, accumulate, 0, out);
}

/// [`edge_grad_row`] for the columns `from..from + out.len()` of the row;
/// the SIMD twins finish their ragged tail columns through it.
pub(super) fn edge_grad_cols(
    g: &[f32],
    cols: usize,
    center_edges: &[usize],
    nbr_edges: &[usize],
    accumulate: bool,
    from: usize,
    out: &mut [f32],
) {
    let w = 2 * cols;
    for (j, o) in (from..).zip(out.iter_mut()) {
        let mut sc = 0.0f32;
        for &d in center_edges {
            sc += g[d * w + j] - g[d * w + cols + j];
        }
        let mut sn = 0.0f32;
        for &d in nbr_edges {
            sn += g[d * w + cols + j];
        }
        *o = if accumulate { (*o + sc) + sn } else { sc + sn };
    }
}

// Coefficients of the rational tanh approximation (odd degree-13 numerator
// over even degree-6 denominator, evaluated in x^2). The full-precision
// decimals document the canonical coefficient set; they round to the f32
// values actually used.
#[allow(clippy::excessive_precision)]
mod tanh_coeffs {
    pub const CLAMP: f32 = 7.90531110763549805;
    pub const A1: f32 = 4.89352455891786e-03;
    pub const A3: f32 = 6.37261928875436e-04;
    pub const A5: f32 = 1.48572235717979e-05;
    pub const A7: f32 = 5.12229709037114e-08;
    pub const A9: f32 = -8.60467152213735e-11;
    pub const A11: f32 = 2.00018790482477e-13;
    pub const A13: f32 = -2.76076847742355e-16;
    pub const B0: f32 = 4.89352518554385e-03;
    pub const B2: f32 = 2.26843463243900e-03;
    pub const B4: f32 = 1.18534705686654e-04;
    pub const B6: f32 = 1.19825839466702e-06;
}
pub(super) use tanh_coeffs::*;

/// One lane of the shared tanh algorithm: clamp to `±CLAMP`, evaluate the
/// rational approximation with a fixed fused-multiply-add chain, pass NaN
/// through unchanged. Every operation is correctly rounded, so the AVX2
/// path (same operations on eight lanes) is bit-identical.
#[inline]
pub fn tanh_lane(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    // Written as max-then-min (not `clamp`) to mirror the AVX2 path's
    // `_mm256_min_ps(_mm256_max_ps(..))` sequence operation for operation.
    #[allow(clippy::manual_clamp)]
    let xc = x.max(-CLAMP).min(CLAMP);
    let x2 = xc * xc;
    let mut p = A13;
    p = p.mul_add(x2, A11);
    p = p.mul_add(x2, A9);
    p = p.mul_add(x2, A7);
    p = p.mul_add(x2, A5);
    p = p.mul_add(x2, A3);
    p = p.mul_add(x2, A1);
    let num = p * xc;
    let mut q = B6;
    q = q.mul_add(x2, B4);
    q = q.mul_add(x2, B2);
    q = q.mul_add(x2, B0);
    num / q
}

/// `out[i] = tanh(a[i])` via [`tanh_lane`].
pub fn tanh(a: &[f32], out: &mut [f32]) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = tanh_lane(x);
    }
}
