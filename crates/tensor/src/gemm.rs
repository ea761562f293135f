//! Register-blocked GEMM: every matmul outside `GemmMode::Row`
//! runs on the micro-tiles.
//!
//! The row-at-a-time kernel ([`crate::kernels::matmul_row`]) keeps four
//! FMA chains per output row. At the victims' shapes (very large `m`,
//! `k * n` of a few thousand) it is limited by FMA latency, not by
//! memory: each `k` step waits on the previous one, and `B` streams from
//! L1 once per row. A register tile keeps 12 (AVX2) or 24 (AVX-512)
//! independent accumulators in flight and reuses each `B` load across
//! its rows. This module runs every product on those tiles:
//!
//! * **Micro-tiles** — one body per instruction set computes an
//!   `MR x NR` register tile per call ([`crate::kernels::gemm_tile`]):
//!   6x16 AVX2, 12x32 AVX-512, and the scalar twin in the AVX2
//!   geometry. The body reads both operands in place through strides
//!   ([`TileStrides`]), so it serves a row-major `A` and its transpose
//!   alike (`matmul_tn` needs no transposed copy); ragged rows and
//!   columns run the same body with partial counts. Nothing is packed:
//!   packed panels paid at none of the measured shapes, from the
//!   victims' to 512³ (DESIGN.md, "GEMM micro-kernels").
//! * **`KC` blocking** — the `k` dimension runs in blocks of [`KC`];
//!   each output element's partial sum is stored between blocks and
//!   reloaded into the accumulator, so its chain of fused multiply-adds
//!   is *the same ascending-`k` chain from `+0.0`* the row kernel
//!   computes. That single invariant makes every route bit-identical to
//!   the row kernel, the scalar reference, and every micro-tile geometry.
//! * **Slab epilogue** — each slab of up to [`MC`] finished rows goes to
//!   the caller's epilogue (bias add, or eval batch norm and its
//!   activation) while it is still in cache, never as a second pass over
//!   the output.
//!
//! Parallelism splits the output into bands of whole slabs across the
//! shared work-stealing runtime; each band owns its rows exclusively,
//! and no element's chain depends on where a band starts, so results are
//! bit-identical at any thread count.

use crate::kernels::{self, TileStrides};
use crate::par::{for_each_row_band, MIN_PAR_MACS};
use crate::{BufferPool, Matrix};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

/// `k`-dimension block: the `KC x NR` block of `B` a slab's tiles share
/// stays in L1 while they sweep it.
pub const KC: usize = 256;

/// Rows of one slab: the unit a band runs its `k`-blocks and its
/// epilogue over, and the unit bands split on. Divisible by every
/// micro-tile `MR` (6 and 12), so tile boundaries line up on all
/// instruction-set legs.
pub const MC: usize = 96;

/// A matmul epilogue: runs over slabs of whole finished output rows.
pub(crate) type RowEpilogue<'a> = dyn Fn(&mut [f32]) + Sync + 'a;

const GM_UNINIT: u8 = 0;
const GM_ROW: u8 = 1;
const GM_AUTO: u8 = 2;
const GM_TILED: u8 = 3;

static GEMM_MODE: AtomicU8 = AtomicU8::new(GM_UNINIT);

/// How matmuls route between the row kernel and the micro-tiles.
///
/// Every choice is bit-identical to every other — the paths share one
/// per-element accumulation order — so the mode only moves performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmMode {
    /// Always the row-at-a-time kernel [`kernels::matmul_row`] (the
    /// pre-tiling behaviour, and the baseline the tiled floor measures).
    Row,
    /// The micro-tiles at every shape (the default).
    Auto,
    /// The same route as `Auto`. Kept so `COLPER_GEMM=tiled` and the
    /// tiled-over-row bench floor keep their meaning until the row kernel
    /// is retired.
    Tiled,
}

fn detect_mode() -> u8 {
    match std::env::var("COLPER_GEMM") {
        Ok(v) => {
            let v = v.to_ascii_lowercase();
            if v == "row" || v == "off" || v == "0" {
                GM_ROW
            } else if v == "tiled" {
                GM_TILED
            } else {
                GM_AUTO
            }
        }
        Err(_) => GM_AUTO,
    }
}

/// The active GEMM routing mode. The first call probes `COLPER_GEMM`
/// (`row`/`off`/`0` pin the row kernel, `tiled` names the tiles);
/// afterwards a relaxed atomic load.
pub fn gemm_mode() -> GemmMode {
    let m = GEMM_MODE.load(Ordering::Relaxed);
    let m = if m == GM_UNINIT {
        let d = detect_mode();
        GEMM_MODE.store(d, Ordering::Relaxed);
        d
    } else {
        m
    };
    match m {
        GM_ROW => GemmMode::Row,
        GM_TILED => GemmMode::Tiled,
        _ => GemmMode::Auto,
    }
}

/// Overrides the `COLPER_GEMM` probe. Safe to flip at any time from any
/// thread: the paths are bit-identical, so only performance changes.
pub fn set_gemm_mode(mode: GemmMode) {
    let m = match mode {
        GemmMode::Row => GM_ROW,
        GemmMode::Auto => GM_AUTO,
        GemmMode::Tiled => GM_TILED,
    };
    GEMM_MODE.store(m, Ordering::Relaxed);
}

thread_local! {
    /// Per-thread scratch for transposed operands (`matmul_nt`'s packed
    /// `B^T`, and the row kernel's copy of `matmul_tn`'s left operand).
    /// Thread-local so the hot loop
    /// stays allocation-free after warmup without threading a pool handle
    /// through every matmul call site; per-worker warmup is a bounded
    /// one-time cost because the runtime's workers are persistent.
    static PACK_POOL: RefCell<BufferPool> = RefCell::new(BufferPool::new());
}

/// A `rows x cols` panel with unspecified contents from the calling
/// thread's pack pool, crediting `gemm.pack.hit` / `gemm.pack.miss`.
pub(crate) fn pack_scratch(rows: usize, cols: usize) -> Matrix {
    PACK_POOL.with(|p| {
        let mut p = p.borrow_mut();
        let before = p.stats();
        let m = p.scratch(rows, cols);
        let after = p.stats();
        if after.0 > before.0 {
            colper_obs::counters::GEMM_PACK_HIT.incr();
        } else if after.1 > before.1 {
            colper_obs::counters::GEMM_PACK_MISS.incr();
        }
        m
    })
}

/// Hands a panel back to the calling thread's pack pool (dirty).
pub(crate) fn pack_recycle(m: Matrix) {
    PACK_POOL.with(|p| p.borrow_mut().recycle(m));
}

/// Packs the transpose of the row-major `[n, k]` matrix `b` into a
/// `[k, ldb]` panel (`panel[kk*ldb + j] = b[j*k + kk]`), zero-padding
/// columns `n..ldb` so row kernels can load whole vectors.
pub(crate) fn pack_transposed(b: &[f32], n: usize, k: usize, ldb: usize, panel: &mut [f32]) {
    debug_assert!(ldb >= n && panel.len() == k * ldb && b.len() >= n * k);
    for (kk, dst) in panel.chunks_exact_mut(ldb).enumerate() {
        for (j, d) in dst[..n].iter_mut().enumerate() {
            *d = b[j * k + kk];
        }
        dst[n..].fill(0.0);
    }
}

/// Credits the deterministic micro-tile invocation count of one product
/// to `gemm.tile.tasks` (computed arithmetically, so the total is
/// independent of thread count and chunking).
fn count_tile_tasks(m: usize, k: usize, n: usize, mr: usize, nr: usize) {
    let tiles = m.div_ceil(mr) * n.div_ceil(nr) * k.div_ceil(KC);
    colper_obs::counters::GEMM_TILE_TASKS.add(tiles as u64);
}

/// `[m,k] x [k,n] -> out` on the micro-tiles, with `out` fully
/// overwritten. Element `(i, kk)` of A sits at `a[i * a_row + kk * a_k]`
/// (row-major A, or its transpose read in place); B is row-major.
///
/// Output rows split into bands of whole [`MC`]-row slabs across the
/// ambient runtime. A slab runs its `k`-blocks of [`KC`] in order,
/// continuing every chain through the output between blocks, then hands
/// the finished slab to `epilogue` while it is still in cache. Every
/// element is one ascending-`k` chain from `+0.0`, so the result is
/// bit-identical to the row kernel for every input, leg and thread count.
pub(crate) fn gemm_into(
    (a, a_row, a_k): (&[f32], usize, usize),
    b: &[f32],
    (m, k, n): (usize, usize, usize),
    out: &mut [f32],
    epilogue: Option<&RowEpilogue<'_>>,
) {
    debug_assert!(b.len() >= k * n && out.len() == m * n);
    if m == 0 || n == 0 {
        return;
    }
    let isa = kernels::gemm_isa();
    let (mr, nr) = isa.micro_tile();
    count_tile_tasks(m, k, n, mr, nr);
    let slab_job = |row0: usize, slab: &mut [f32]| {
        let rows = slab.len() / n;
        if k == 0 {
            slab.fill(0.0);
        }
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            for j0 in (0..n).step_by(nr) {
                for r0 in (0..rows).step_by(mr) {
                    kernels::gemm_tile(
                        isa,
                        &a[(row0 + r0) * a_row + pc * a_k..],
                        &b[pc * n + j0..],
                        TileStrides { a_row, a_k, ldb: n, ldc: n },
                        kc,
                        mr.min(rows - r0),
                        nr.min(n - j0),
                        pc == 0,
                        &mut slab[r0 * n + j0..],
                    );
                }
            }
            pc += kc;
        }
        if let Some(epi) = epilogue {
            epi(slab);
        }
    };
    for_each_row_band(out, n, MC, (m * k * n, MIN_PAR_MACS), |row0, band| {
        for (s, slab) in band.chunks_mut(MC * n).enumerate() {
            slab_job(row0 + s * MC, slab);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that flip the process-global GEMM mode.
    static MODE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn mode_override_round_trips() {
        let _g = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let was = gemm_mode();
        for mode in [GemmMode::Row, GemmMode::Tiled, GemmMode::Auto] {
            set_gemm_mode(mode);
            assert_eq!(gemm_mode(), mode);
        }
        set_gemm_mode(was);
    }

    /// The micro-tiles read both operands in place under `Auto` and
    /// `Tiled` alike; the calling thread's pack pool hands out nothing.
    #[test]
    fn tile_routes_pack_nothing() {
        let _g = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let was = gemm_mode();
        let a = Matrix::from_fn(40, 57, |r, c| (r * 57 + c) as f32 * 0.01);
        let b = Matrix::from_fn(57, 48, |r, c| (r + c) as f32 * 0.02);
        let mut out = Matrix::zeros(40, 48);
        let taken = || {
            PACK_POOL.with(|p| {
                let (hits, misses) = p.borrow().stats();
                hits + misses
            })
        };
        let at = a.transpose();
        for mode in [GemmMode::Auto, GemmMode::Tiled] {
            set_gemm_mode(mode);
            let before = taken();
            a.matmul_into(&b, &mut out).expect("shape");
            at.matmul_tn_into(&b, &mut out).expect("shape");
            assert_eq!(taken(), before, "{mode:?} packs nothing");
        }
        set_gemm_mode(was);
    }
}
