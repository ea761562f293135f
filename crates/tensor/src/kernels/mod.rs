//! Runtime-dispatched compute kernels with deterministic lane semantics.
//!
//! Every hot inner loop of the crate (matmul rows, elementwise arithmetic,
//! fused accumulation, reductions, tanh) routes through this module. Each
//! kernel has two implementations:
//!
//! - a **pinned-order scalar reference** ([`scalar`]) that fixes the exact
//!   sequence of correctly-rounded IEEE-754 operations per output element —
//!   reductions accumulate into eight lane-strided partial sums combined in
//!   a fixed tree, and fused operations use [`f32::mul_add`];
//! - an **AVX2+FMA implementation** (private `avx2` module) that performs
//!   the *same* per-element operation sequence eight lanes at a time
//!   (the GEMM micro-tile, [`matmul_nt_rows`] and the fused row kernels
//!   [`affine_act`], [`affine_act_assign`], [`affine_act_grad`] and
//!   [`edge_grad_row`] add an AVX-512F leg, selected by [`gemm_isa`]).
//!
//! Because both paths execute identical correctly-rounded operations in
//! identical order, their results are **bit-identical** for every input
//! (NaN and signed zero included). Switching the dispatch therefore never
//! perturbs the repo's determinism invariants: planned vs unplanned
//! attacks, thread-count independence and tape reuse all hold under either
//! path, and under either path they agree with each other.
//!
//! # Dispatch
//!
//! The first kernel call probes the environment once: if `COLPER_SIMD` is
//! set to `off`, `0` or `scalar` the scalar reference is pinned; otherwise
//! AVX2+FMA is used when `is_x86_feature_detected!` confirms both features
//! (always scalar off x86_64). Tests can flip the path at runtime with
//! [`set_simd_enabled`]; [`simd_active`] reports the current choice.

pub mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;

#[cfg(target_arch = "x86_64")]
mod avx512;

use std::sync::atomic::{AtomicU8, Ordering};

const MODE_UNINIT: u8 = 0;
const MODE_SCALAR: u8 = 1;
const MODE_SIMD: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);

/// Whether `COLPER_SIMD=avx2` pinned the GEMM micro-tile to the 256-bit
/// leg (`AVX512_OFF`) or AVX-512F may be used when detected. Separate
/// from [`MODE`] so the wide tile can be toggled without touching the
/// scalar/SIMD split the rest of the kernel inventory dispatches on.
static AVX512: AtomicU8 = AtomicU8::new(MODE_UNINIT);
const AVX512_OFF: u8 = 1;
const AVX512_ON: u8 = 2;

/// Whether the running CPU supports the AVX2+FMA kernel path.
pub fn simd_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the running CPU supports the AVX-512F micro-tile leg.
pub fn avx512_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn detect() -> u8 {
    if let Ok(v) = std::env::var("COLPER_SIMD") {
        let v = v.to_ascii_lowercase();
        if v == "off" || v == "0" || v == "scalar" {
            return MODE_SCALAR;
        }
    }
    if simd_supported() {
        MODE_SIMD
    } else {
        MODE_SCALAR
    }
}

fn detect_avx512() -> u8 {
    if let Ok(v) = std::env::var("COLPER_SIMD") {
        if v.eq_ignore_ascii_case("avx2") {
            return AVX512_OFF;
        }
    }
    if avx512_supported() {
        AVX512_ON
    } else {
        AVX512_OFF
    }
}

#[inline]
fn mode() -> u8 {
    let m = MODE.load(Ordering::Relaxed);
    if m != MODE_UNINIT {
        return m;
    }
    let d = detect();
    MODE.store(d, Ordering::Relaxed);
    d
}

/// True when kernel calls currently dispatch to the AVX2+FMA path.
#[inline]
pub fn simd_active() -> bool {
    mode() == MODE_SIMD
}

/// True when the GEMM micro-tile currently dispatches to the AVX-512 leg
/// (requires the SIMD path to be active as well).
#[inline]
pub fn avx512_active() -> bool {
    if !simd_active() {
        return false;
    }
    let s = AVX512.load(Ordering::Relaxed);
    if s != MODE_UNINIT {
        return s == AVX512_ON;
    }
    let d = detect_avx512();
    AVX512.store(d, Ordering::Relaxed);
    d == AVX512_ON
}

/// Forces the dispatch to the SIMD path (`true`, ignored when the CPU
/// lacks AVX2+FMA) or the scalar reference (`false`), overriding the
/// `COLPER_SIMD` environment probe.
///
/// Because the two paths are bit-identical, flipping this at any point —
/// even mid-computation, from another thread — changes performance only,
/// never results. Intended for tests and benchmarks that compare paths
/// within one process.
pub fn set_simd_enabled(enabled: bool) {
    let m = if enabled && simd_supported() { MODE_SIMD } else { MODE_SCALAR };
    MODE.store(m, Ordering::Relaxed);
}

/// Forces the GEMM micro-tile to the AVX-512 leg (`true`, ignored when
/// the CPU lacks AVX-512F) or pins it to the 256-bit tile (`false`),
/// overriding the `COLPER_SIMD=avx2` environment probe. Like
/// [`set_simd_enabled`], flipping this never changes results — all tile
/// legs are bit-identical.
pub fn set_avx512_enabled(enabled: bool) {
    let s = if enabled && avx512_supported() { AVX512_ON } else { AVX512_OFF };
    AVX512.store(s, Ordering::Relaxed);
}

/// Credits `calls` kernel invocations to the active dispatch path's
/// counter (`kernel.dispatch.simd` / `kernel.dispatch.scalar`).
///
/// Counting happens here, in bulk at the tensor-op boundary, rather than
/// inside the `dispatched!` wrappers: the innermost kernels run hundreds
/// of thousands of times per attack step, and even one relaxed atomic
/// increment per call costs ~30% of a step when tracing is on. Callers
/// pass the sequential-order invocation count (a matmul credits its `m`
/// row kernels, a loop its trip count), so the totals are independent of
/// thread count and chunking.
#[inline]
pub fn count_dispatch(calls: usize) {
    if calls == 0 || !colper_obs::enabled() {
        return;
    }
    let counter = if simd_active() {
        &colper_obs::counters::KERNEL_DISPATCH_SIMD
    } else {
        &colper_obs::counters::KERNEL_DISPATCH_SCALAR
    };
    counter.add(calls as u64);
}

/// Short description of the active kernel path for logs and bench reports.
pub fn features() -> &'static str {
    if simd_active() {
        "avx2+fma"
    } else {
        "scalar"
    }
}

/// The instruction set the GEMM micro-tile and [`matmul_nt_rows`]
/// dispatch to.
///
/// Each leg owns a fixed micro-tile geometry, but geometry never affects
/// results: every output element accumulates its `k` terms as one
/// ascending-`k` fused chain regardless of how elements are grouped into
/// tiles or vector lanes, so all three legs are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmIsa {
    /// Pinned-order scalar reference ([`scalar::gemm_tile`]).
    Scalar,
    /// 256-bit 6x16 tile (`avx2::gemm_tile_6x16`).
    Avx2,
    /// 512-bit 12x32 tile (`avx512::gemm_tile_12x32`).
    Avx512,
}

impl GemmIsa {
    /// `(MR, NR)` micro-tile geometry of this leg. The scalar reference
    /// uses the AVX2 geometry (tile shape is a grouping, not an order, so
    /// any choice is bit-identical — matching shapes keeps panel sizes
    /// comparable across legs).
    pub fn micro_tile(self) -> (usize, usize) {
        match self {
            GemmIsa::Scalar | GemmIsa::Avx2 => (6, 16),
            GemmIsa::Avx512 => (12, 32),
        }
    }

    /// Short name for bench reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            GemmIsa::Scalar => "scalar",
            GemmIsa::Avx2 => "avx2",
            GemmIsa::Avx512 => "avx512",
        }
    }
}

/// The GEMM micro-tile leg the current dispatch state selects.
#[inline]
pub fn gemm_isa() -> GemmIsa {
    if !simd_active() {
        GemmIsa::Scalar
    } else if avx512_active() {
        GemmIsa::Avx512
    } else {
        GemmIsa::Avx2
    }
}

/// Where one GEMM micro-tile reads its operands and writes its corner:
/// element `(r, kk)` of the A block sits at `a[r * a_row + kk * a_k]`,
/// element `(kk, j)` of the B block at `b[kk * ldb + j]`, and output
/// element `(r, j)` at `c[r * ldc + j]`.
///
/// One tile body per leg serves both layouts [`crate::gemm`] uses, a
/// row-major A (`a_row = k, a_k = 1`) and its transpose (`a_row = 1,
/// a_k = m`), each read in place against a row-major B (`ldb = n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileStrides {
    /// Distance between consecutive A rows.
    pub a_row: usize,
    /// Distance between consecutive `k` terms of one A row.
    pub a_k: usize,
    /// Distance between consecutive B rows (`k` terms).
    pub ldb: usize,
    /// Distance between consecutive output rows.
    pub ldc: usize,
}

/// One GEMM micro-tile: continues (or starts at `+0.0`, when `init`) the
/// ascending-`k` chains of the `rows x cols` corner of an `MR x NR` tile,
/// reading `a` and `b` through the strides `s` and writing into `c`.
/// Dispatches to `isa`'s leg; all legs are bit-identical. See
/// [`scalar::gemm_tile`] for the semantics.
///
/// # Panics
///
/// Panics when the corner exceeds `isa`'s tile or the operands or `c`
/// are too short for the blocks the strides address.
#[allow(unsafe_code)]
#[allow(clippy::too_many_arguments)]
pub fn gemm_tile(
    isa: GemmIsa,
    a: &[f32],
    b: &[f32],
    s: TileStrides,
    kc: usize,
    rows: usize,
    cols: usize,
    init: bool,
    c: &mut [f32],
) {
    let (mr, nr) = isa.micro_tile();
    assert!(rows > 0 && rows <= mr && cols > 0 && cols <= nr, "gemm_tile: corner out of tile");
    assert!(
        kc == 0
            || (a.len() > (rows - 1) * s.a_row + (kc - 1) * s.a_k
                && b.len() >= (kc - 1) * s.ldb + cols),
        "gemm_tile: operand too short"
    );
    assert!(c.len() >= (rows - 1) * s.ldc + cols, "gemm_tile: output slab too short");
    match isa {
        // SAFETY: each SIMD leg runs only after runtime feature detection
        // confirmed its instruction set on this CPU (an unsupported leg
        // falls through to the bit-identical scalar reference), and the
        // operand/output bounds the strides address are asserted above.
        #[cfg(target_arch = "x86_64")]
        GemmIsa::Avx2 if simd_supported() => unsafe {
            avx2::gemm_tile_6x16(a.as_ptr(), b.as_ptr(), s, kc, rows, cols, init, c.as_mut_ptr())
        },
        #[cfg(target_arch = "x86_64")]
        GemmIsa::Avx512 if avx512_supported() => unsafe {
            avx512::gemm_tile_12x32(a.as_ptr(), b.as_ptr(), s, kc, rows, cols, init, c.as_mut_ptr())
        },
        _ => scalar::gemm_tile(a, b, s, kc, rows, cols, init, c),
    }
}

macro_rules! dispatched {
    ($(#[$doc:meta])* $name:ident ( $($arg:ident : $ty:ty),* ) $(-> $ret:ty)?) => {
        $(#[$doc])*
        #[inline]
        // The one sanctioned use of `unsafe` in the crate: invoking the
        // feature-gated AVX2 twin after runtime detection.
        #[allow(unsafe_code)]
        pub fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if simd_active() {
                // SAFETY: `simd_active` is true only when runtime feature
                // detection confirmed AVX2+FMA on this CPU (or a test
                // explicitly enabled it through the same detection gate).
                return unsafe { avx2::$name($($arg),*) };
            }
            scalar::$name($($arg),*)
        }
    };
}

dispatched! {
    /// `out[i] = a[i] + b[i]`. See [`scalar::add`] for the exact semantics.
    add(a: &[f32], b: &[f32], out: &mut [f32])
}
dispatched! {
    /// `out[i] = a[i] - b[i]`. See [`scalar::sub`] for the exact semantics.
    sub(a: &[f32], b: &[f32], out: &mut [f32])
}
dispatched! {
    /// `out[i] = a[i] * b[i]`. See [`scalar::mul`] for the exact semantics.
    mul(a: &[f32], b: &[f32], out: &mut [f32])
}
dispatched! {
    /// `out[i] = a[i] / b[i]`. See [`scalar::div`] for the exact semantics.
    div(a: &[f32], b: &[f32], out: &mut [f32])
}
dispatched! {
    /// `dst[i] += src[i]`. See [`scalar::add_assign`].
    add_assign(dst: &mut [f32], src: &[f32])
}
dispatched! {
    /// `dst[i] -= src[i]`. See [`scalar::sub_assign`].
    sub_assign(dst: &mut [f32], src: &[f32])
}
dispatched! {
    /// `dst[i] *= src[i]`. See [`scalar::mul_assign`].
    mul_assign(dst: &mut [f32], src: &[f32])
}
dispatched! {
    /// `dst[i] = fma(alpha, x[i], dst[i])`. See [`scalar::axpy`].
    axpy(dst: &mut [f32], alpha: f32, x: &[f32])
}
dispatched! {
    /// `dst[i] = fma(a[i], b[i], dst[i])`. See [`scalar::add_prod_assign`].
    add_prod_assign(dst: &mut [f32], a: &[f32], b: &[f32])
}
dispatched! {
    /// `dst[i] = fma(-a[i], b[i], dst[i])`. See [`scalar::sub_prod_assign`].
    sub_prod_assign(dst: &mut [f32], a: &[f32], b: &[f32])
}
dispatched! {
    /// `out[i] = fma(a[i], b[i], c[i])`. See [`scalar::mul_add`].
    mul_add(a: &[f32], b: &[f32], c: &[f32], out: &mut [f32])
}
dispatched! {
    /// `out[i] = a[i] * s`. See [`scalar::scale`].
    scale(a: &[f32], s: f32, out: &mut [f32])
}
dispatched! {
    /// `dst[i] *= s`. See [`scalar::scale_assign`].
    scale_assign(dst: &mut [f32], s: f32)
}
dispatched! {
    /// `out[i] = tanh(a[i])` via the shared rational approximation.
    /// See [`scalar::tanh`] / [`scalar::tanh_lane`].
    tanh(a: &[f32], out: &mut [f32])
}
dispatched! {
    /// Lane-strided sum of all elements. See [`scalar::sum`].
    sum(a: &[f32]) -> f32
}
dispatched! {
    /// Lane-strided fused dot product. See [`scalar::dot`].
    dot(a: &[f32], b: &[f32]) -> f32
}
dispatched! {
    /// Lane-strided fused sum of squares. See [`scalar::sum_sq`].
    sum_sq(a: &[f32]) -> f32
}
dispatched! {
    /// One output row of a matrix product: `out_row += a_row * b` where
    /// `b` is `k x n` row-major. See [`scalar::matmul_row`].
    matmul_row(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32])
}

/// Column padding of the packed transpose [`matmul_nt_rows`] reads: one
/// AVX-512 vector, so every leg loads whole vectors in bounds.
pub const NT_PANEL_ALIGN: usize = 16;

/// Rows of `a * b^T` against the packed, zero-padded transpose `bt`
/// (`[k, ldb]`, `ldb` a multiple of [`NT_PANEL_ALIGN`]): `a` holds whole
/// rows of width `k` and `out` the matching output rows of width `n`, and
/// every element is [`dot`] of its `a` row with one row of `b`, lane for
/// lane ([`scalar::matmul_nt_row`]). Dispatches to the leg [`gemm_isa`]
/// selects: the AVX-512 leg runs several rows per pass over `bt`, the
/// AVX2 and scalar legs one row at a time (AVX2's eight `ymm` partials
/// already take half its sixteen registers, so a second row would
/// spill). All legs are bit-identical.
#[inline]
#[allow(unsafe_code)]
pub fn matmul_nt_rows(a: &[f32], k: usize, bt: &[f32], ldb: usize, out: &mut [f32], n: usize) {
    if n == 0 {
        return;
    }
    let isa = gemm_isa();
    #[cfg(target_arch = "x86_64")]
    if isa == GemmIsa::Avx512 {
        // SAFETY: `gemm_isa` names the AVX-512 leg only after runtime
        // feature detection confirmed AVX-512F on this CPU; the kernel
        // asserts its panel bounds.
        return unsafe { avx512::matmul_nt_rows(a, k, bt, ldb, out, n) };
    }
    for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
        let a_row = &a[i * k..i * k + k];
        match isa {
            // SAFETY: `gemm_isa` names the AVX2 leg only after runtime
            // feature detection confirmed AVX2+FMA on this CPU; the kernel
            // asserts its panel bounds.
            #[cfg(target_arch = "x86_64")]
            GemmIsa::Avx2 => unsafe { avx2::matmul_nt_row(a_row, bt, ldb, out_row) },
            _ => scalar::matmul_nt_row(a_row, bt, ldb, out_row),
        }
    }
}

/// The activation a fused affine row kernel ([`affine_act`]) applies and
/// its backward ([`affine_act_grad`]) differentiates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Act {
    /// No nonlinearity.
    Identity,
    /// `t.max(0.0)`: `t` when `t > 0`, `+0.0` otherwise (NaN included).
    Relu,
    /// `t` when `t > 0`, else `alpha * t`. The backward tests the output
    /// `y > 0`, which matches the pre-activation test only for a positive
    /// slope, so the slope must be positive.
    LeakyRelu(f32),
}

macro_rules! isa_dispatched {
    ($(#[$doc:meta])* $name:ident ( $($arg:ident : $ty:ty),* )) => {
        $(#[$doc])*
        #[inline]
        #[allow(unsafe_code)]
        pub fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            match gemm_isa() {
                // SAFETY: `gemm_isa` names a SIMD leg only after runtime
                // feature detection confirmed its instruction set on this
                // CPU; the kernels assert their slice bounds.
                GemmIsa::Avx512 => return unsafe { avx512::$name($($arg),*) },
                GemmIsa::Avx2 => return unsafe { avx2::$name($($arg),*) },
                GemmIsa::Scalar => {}
            }
            scalar::$name($($arg),*)
        }
    };
}

isa_dispatched! {
    /// `out = act(x * scale + shift)` over whole rows of width
    /// `scale.len()`: eval-mode batch norm and its activation in one pass,
    /// on the leg [`gemm_isa`] selects. See [`scalar::affine_act_lane`]
    /// for the per-element semantics.
    affine_act(x: &[f32], scale: &[f32], shift: &[f32], act: Act, out: &mut [f32])
}
isa_dispatched! {
    /// In-place [`affine_act`] — the epilogue a fused matmul runs over
    /// each slab of finished output rows. See [`scalar::affine_act_assign`].
    affine_act_assign(v: &mut [f32], scale: &[f32], shift: &[f32], act: Act)
}
isa_dispatched! {
    /// `out = (gy * act'(y)) * scale` over whole rows, the backward of
    /// [`affine_act`] into its input. See [`scalar::affine_act_grad_lane`].
    affine_act_grad(gy: &[f32], y: &[f32], scale: &[f32], act: Act, out: &mut [f32])
}
isa_dispatched! {
    /// One destination row of the edge-feature backward, reading the
    /// `[E, 2 * cols]` gradient `g` at the row's in-edges. See
    /// [`scalar::edge_grad_row`] for the exact accumulation order.
    edge_grad_row(
        g: &[f32],
        cols: usize,
        center_edges: &[usize],
        nbr_edges: &[usize],
        accumulate: bool,
        out: &mut [f32]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize, seed: f32) -> Vec<f32> {
        // Deterministic, sign-varied, includes exact zeros and subnormal-ish
        // magnitudes to exercise rounding paths.
        (0..n)
            .map(|i| {
                let x = ((i as f32) * 0.37 + seed).sin() * 3.0;
                if i % 17 == 0 {
                    0.0
                } else {
                    x
                }
            })
            .collect()
    }

    /// Serializes tests that flip the process-global dispatch state.
    static PATH_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Runs `f` once on each dispatch path and asserts bit identity.
    fn both_paths(f: impl Fn() -> Vec<u32>) {
        let _g = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let was = simd_active();
        set_simd_enabled(false);
        let scalar_bits = f();
        set_simd_enabled(true);
        let simd_bits = f();
        set_simd_enabled(was);
        if simd_supported() {
            assert_eq!(scalar_bits, simd_bits, "scalar and SIMD paths disagree");
        }
    }

    #[test]
    fn zip_and_fused_kernels_bit_identical_across_paths() {
        for n in [0usize, 1, 3, 7, 8, 9, 31, 32, 33, 100] {
            let a = data(n, 0.1);
            let b = data(n, 1.9);
            let c = data(n, 2.7);
            both_paths(|| {
                let mut bits = Vec::new();
                let mut out = vec![f32::NAN; n];
                add(&a, &b, &mut out);
                bits.extend(out.iter().map(|v| v.to_bits()));
                sub(&a, &b, &mut out);
                bits.extend(out.iter().map(|v| v.to_bits()));
                mul(&a, &b, &mut out);
                bits.extend(out.iter().map(|v| v.to_bits()));
                div(&a, &b, &mut out);
                bits.extend(out.iter().map(|v| v.to_bits()));
                mul_add(&a, &b, &c, &mut out);
                bits.extend(out.iter().map(|v| v.to_bits()));
                scale(&a, -1.75, &mut out);
                bits.extend(out.iter().map(|v| v.to_bits()));
                tanh(&a, &mut out);
                bits.extend(out.iter().map(|v| v.to_bits()));
                let mut d = c.clone();
                add_assign(&mut d, &a);
                sub_assign(&mut d, &b);
                mul_assign(&mut d, &a);
                axpy(&mut d, 0.37, &b);
                add_prod_assign(&mut d, &a, &b);
                sub_prod_assign(&mut d, &b, &c);
                scale_assign(&mut d, 1.0 / 3.0);
                bits.extend(d.iter().map(|v| v.to_bits()));
                bits.push(sum(&a).to_bits());
                bits.push(dot(&a, &b).to_bits());
                bits.push(sum_sq(&a).to_bits());
                bits
            });
        }
    }

    #[test]
    fn matmul_row_bit_identical_across_paths() {
        for (k, n) in [(0usize, 5usize), (5, 0), (1, 1), (3, 13), (8, 33), (17, 64), (64, 100)] {
            let a_row = data(k, 0.5);
            let b = data(k * n, 1.3);
            let seed_out = data(n, 4.2);
            both_paths(|| {
                let mut out = seed_out.clone();
                matmul_row(&a_row, &b, n, &mut out);
                out.iter().map(|v| v.to_bits()).collect()
            });
        }
    }

    #[test]
    fn tanh_matches_libm_closely_and_passes_nan() {
        for i in -1000..=1000 {
            let x = i as f32 * 0.01;
            let got = scalar::tanh_lane(x);
            let want = x.tanh();
            assert!((got - want).abs() <= 1e-6, "tanh({x}): got {got}, want {want}");
        }
        // Saturation (the clamp point is where true tanh is ~1 - 2.4e-7,
        // so the saturated value sits a few ULP below exactly 1) and NaN
        // behaviour.
        assert!((scalar::tanh_lane(30.0) - 1.0).abs() < 3e-7);
        assert!((scalar::tanh_lane(-30.0) + 1.0).abs() < 3e-7);
        assert!((scalar::tanh_lane(f32::INFINITY) - 1.0).abs() < 3e-7);
        assert!((scalar::tanh_lane(f32::NEG_INFINITY) + 1.0).abs() < 3e-7);
        assert!(scalar::tanh_lane(f32::NAN).is_nan());
        assert_eq!(scalar::tanh_lane(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(scalar::tanh_lane(-0.0).to_bits(), (-0.0f32).to_bits());
    }

    /// Every corner of every leg's tile, for a row-major A and a
    /// transposed one (both read in place and sized to end exactly at the
    /// corner's last element), at `kc = 13` and at `kc = 0`, where the
    /// operands are empty and must never be addressed.
    #[test]
    fn gemm_tile_legs_bit_identical_to_per_element_chains() {
        for isa in [GemmIsa::Scalar, GemmIsa::Avx2, GemmIsa::Avx512] {
            // Unsupported legs fall back to scalar inside the dispatcher,
            // which still exercises the requested geometry.
            let (mr, nr) = isa.micro_tile();
            let ldc = nr + 3;
            for kc in [13usize, 0] {
                for rows in [1usize, mr - 1, mr] {
                    for cols in [1usize, nr / 2 - 1, nr / 2, nr / 2 + 1, nr] {
                        let row_major = TileStrides { a_row: kc + 2, a_k: 1, ldb: cols + 5, ldc };
                        let transposed = TileStrides { a_row: 1, a_k: mr + 1, ldb: nr, ldc };
                        for s in [row_major, transposed] {
                            check_tile_corner(isa, s, kc, rows, cols);
                        }
                    }
                }
            }
        }
    }

    fn check_tile_corner(isa: GemmIsa, s: TileStrides, kc: usize, rows: usize, cols: usize) {
        let (mr, _) = isa.micro_tile();
        let (a, b) = if kc == 0 {
            (Vec::new(), Vec::new())
        } else {
            (
                data((rows - 1) * s.a_row + (kc - 1) * s.a_k + 1, 0.3),
                data((kc - 1) * s.ldb + cols, 1.1),
            )
        };
        let ldc = s.ldc;
        for init in [false, true] {
            let seed = data(mr * ldc, 2.2);
            let mut c = seed.clone();
            gemm_tile(isa, &a, &b, s, kc, rows, cols, init, &mut c);
            for r in 0..mr {
                for j in 0..ldc {
                    let want = if r < rows && j < cols {
                        let s0 = if init { 0.0 } else { seed[r * ldc + j] };
                        if kc == 0 {
                            s0
                        } else {
                            scalar::fma_dot_chain(&a[r * s.a_row..], s.a_k, &b[j..], s.ldb, kc, s0)
                        }
                    } else {
                        seed[r * ldc + j]
                    };
                    assert_eq!(
                        c[r * ldc + j].to_bits(),
                        want.to_bits(),
                        "{isa:?} {s:?} kc {kc} corner ({rows},{cols}) element ({r},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_isa_respects_dispatch_gates() {
        let _g = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let was_simd = simd_active();
        let was_512 = avx512_active();
        set_simd_enabled(false);
        assert_eq!(gemm_isa(), GemmIsa::Scalar);
        set_simd_enabled(true);
        set_avx512_enabled(false);
        if simd_supported() {
            assert_eq!(gemm_isa(), GemmIsa::Avx2);
        }
        set_avx512_enabled(true);
        if avx512_supported() && simd_supported() {
            assert_eq!(gemm_isa(), GemmIsa::Avx512);
        }
        set_simd_enabled(was_simd);
        set_avx512_enabled(was_512);
    }

    #[test]
    fn env_detection_reports_a_valid_mode() {
        let _g = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Whatever the environment says, the mode must resolve and the
        // feature string must match it.
        let active = simd_active();
        assert_eq!(features(), if active { "avx2+fma" } else { "scalar" });
        assert!(!active || simd_supported());
    }
}
