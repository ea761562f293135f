//! Register-blocked, cache-tiled GEMM driver with pooled packing panels.
//!
//! The row-at-a-time kernel ([`crate::kernels::matmul_row`]) streams the
//! full `B` operand from memory once per output row, which is optimal
//! while `B` fits in L1/L2 but collapses once it does not. This module
//! adds the classic three-level blocking on top of the same arithmetic:
//!
//! * **`KC` blocking** — the `k` dimension is processed in blocks of
//!   [`KC`]; each output element's partial sum is stored to `C` between
//!   blocks and reloaded into the accumulator, so the per-element chain
//!   of fused multiply-adds is *the same ascending-`k` chain* the row
//!   kernel computes. That single invariant makes the tiled path
//!   bit-identical to the row kernel, the scalar reference, and every
//!   micro-tile geometry.
//! * **Packing** — within a block, `A` and `B` are repacked into
//!   k-major panels (`A`: row-minor stride `MR`; `B`: column-minor
//!   stride `NR`, both zero-padded to the tile edge) so the micro-kernel
//!   reads both operands contiguously. Panels come from a thread-local
//!   [`BufferPool`] with dirty hand-back, so the steady-state 0-alloc
//!   budget of the attack loop holds.
//! * **Micro-tiles** — the inner kernel computes an `MR x NR` register
//!   tile per call ([`crate::kernels::gemm_tile`]); the geometry is per
//!   instruction set (6x16 AVX2, 12x32 AVX-512, scalar twin in the AVX2
//!   geometry).
//!
//! Parallelism splits the output into fixed [`MC`]-row bands (boundaries
//! depend only on the shape, never on thread count) via the shared
//! work-stealing runtime; each band owns its rows exclusively, so
//! results are bit-identical at any thread count.

use crate::kernels::{self, GemmIsa};
use crate::par::{runtime_for, MIN_PAR_MACS};
use crate::{BufferPool, Matrix};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

/// `k`-dimension block: one packed `A` band (`MC x KC`) plus the live
/// `C` tile stay cache-resident while a `B` panel streams.
pub const KC: usize = 256;

/// Output row band processed by one parallel task. Divisible by every
/// micro-tile `MR` (6 and 12), so band-local tile boundaries line up
/// identically on all instruction-set legs.
pub const MC: usize = 96;

/// `Auto` routing: smallest `m`/`n` for which the tiled path may win.
pub const TILED_MIN_DIM: usize = 16;

/// `Auto` routing: smallest `k * n` (the `B` footprint in elements) for
/// which the tiled path may win; below this the row kernel keeps `B`
/// L1/L2-resident and is already near peak.
pub const TILED_MIN_KN: usize = 1 << 15;

const GM_UNINIT: u8 = 0;
const GM_ROW: u8 = 1;
const GM_AUTO: u8 = 2;
const GM_TILED: u8 = 3;

static GEMM_MODE: AtomicU8 = AtomicU8::new(GM_UNINIT);

/// How matmuls route between the row kernel and the tiled GEMM.
///
/// Every choice is bit-identical to every other — the paths share one
/// per-element accumulation order — so the mode only moves performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmMode {
    /// Always the row-at-a-time kernel (the pre-tiling behaviour).
    Row,
    /// Shape-based routing: tiled when `m >= 16 && n >= 16` and the `B`
    /// footprint `k * n` exceeds [`TILED_MIN_KN`], row kernel otherwise.
    Auto,
    /// Always the tiled GEMM (tests and benches; small shapes pay the
    /// packing overhead).
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
/// (`row`/`off`/`0` pin the row kernel, `tiled` forces the tiled path);
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

/// Whether an `[m,k] x [k,n]` product routes to the tiled driver under
/// the active [`gemm_mode`].
pub(crate) fn use_tiled(m: usize, k: usize, n: usize) -> bool {
    match gemm_mode() {
        GemmMode::Row => false,
        GemmMode::Tiled => true,
        GemmMode::Auto => m >= TILED_MIN_DIM && n >= TILED_MIN_DIM && k * n >= TILED_MIN_KN,
    }
}

thread_local! {
    /// Per-thread scratch for packing panels (GEMM `A`/`B` panels and the
    /// matmul-transposed left operand). Thread-local so the hot loop
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

/// Packs the `kc` wide `k`-block of `B` starting at `pc` into column
/// bands of `NR`: band `jb` holds `panel[jb*nr*kc + kk*nr + j] =
/// b[(pc+kk)*n + jb*nr + j]`, zero-padded past column `n`.
fn pack_b_block(b: &[f32], n: usize, pc: usize, kc: usize, nr: usize, panel: &mut [f32]) {
    let n_bands = n.div_ceil(nr);
    for jb in 0..n_bands {
        let base = jb * nr * kc;
        let col0 = jb * nr;
        let width = nr.min(n - col0);
        for kk in 0..kc {
            let src = (pc + kk) * n + col0;
            let dst = &mut panel[base + kk * nr..base + kk * nr + nr];
            dst[..width].copy_from_slice(&b[src..src + width]);
            dst[width..].fill(0.0);
        }
    }
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

/// Packs one `MC`-band of `A` rows (`row0..row0+band_rows`, `k`-block at
/// `pc`) into row tiles of `MR`: tile `t` holds `panel[t*mr*kc + kk*mr +
/// r] = a[(row0+t*mr+r)*k + pc + kk]`, zero-padded past the band's rows.
#[allow(clippy::too_many_arguments)]
fn pack_a_band(
    a: &[f32],
    k: usize,
    row0: usize,
    band_rows: usize,
    pc: usize,
    kc: usize,
    mr: usize,
    panel: &mut [f32],
) {
    let tiles = band_rows.div_ceil(mr);
    for t in 0..tiles {
        let base = t * mr * kc;
        let rows = mr.min(band_rows - t * mr);
        for kk in 0..kc {
            let dst = &mut panel[base + kk * mr..base + kk * mr + mr];
            for (r, d) in dst.iter_mut().enumerate() {
                *d = if r < rows { a[(row0 + t * mr + r) * k + pc + kk] } else { 0.0 };
            }
        }
    }
}

/// Credits the deterministic micro-tile invocation count of one product
/// to `gemm.tile.tasks` (computed arithmetically, so the total is
/// independent of thread count and chunking).
fn count_tile_tasks(m: usize, k: usize, n: usize, mr: usize, nr: usize) {
    let tiles = m.div_ceil(mr) * n.div_ceil(nr) * k.div_ceil(KC);
    colper_obs::counters::GEMM_TILE_TASKS.add(tiles as u64);
}

/// Runs the fixed-boundary `MC`-band loop of one `k`-block over `out`,
/// splitting bands across the ambient runtime when the block's work
/// clears the parallel threshold. Each band packs its own `A` panel from
/// the per-thread pack pool and owns its output rows exclusively, so the
/// result is bit-identical to the sequential band loop.
#[allow(clippy::too_many_arguments)]
fn run_bands(
    a: &[f32],
    m: usize,
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    init: bool,
    bpanel: &[f32],
    isa: GemmIsa,
    out: &mut [f32],
) {
    let (mr, nr) = isa.micro_tile();
    let n_bands = n.div_ceil(nr);
    let band_job = |band: usize, sub: &mut [f32]| {
        let row0 = band * MC;
        let band_rows = sub.len() / n;
        let tiles = band_rows.div_ceil(mr);
        let mut apanel = pack_scratch(1, tiles * mr * kc);
        pack_a_band(a, k, row0, band_rows, pc, kc, mr, apanel.as_mut_slice());
        let ap = apanel.as_slice();
        for jb in 0..n_bands {
            let cols = nr.min(n - jb * nr);
            for t in 0..tiles {
                let rows = mr.min(band_rows - t * mr);
                kernels::gemm_tile(
                    isa,
                    &ap[t * mr * kc..],
                    &bpanel[jb * nr * kc..],
                    kc,
                    rows,
                    cols,
                    init,
                    &mut sub[t * mr * n + jb * nr..],
                    n,
                );
            }
        }
        pack_recycle(apanel);
    };
    match runtime_for(m * kc * n, MIN_PAR_MACS) {
        None => {
            for (band, sub) in out.chunks_mut(MC * n).enumerate() {
                band_job(band, sub);
            }
        }
        Some(rt) => rt.par_chunks_mut(out, MC * n, band_job),
    }
}

/// Tiled `[m,k] x [k,n] -> [m,n]` into `out` (fully overwritten; `init`
/// semantics make pre-zeroing unnecessary). Bit-identical to the row
/// kernel path for every input, SIMD leg and thread count.
pub(crate) fn gemm_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert!(a.len() >= m * k && b.len() >= k * n && out.len() == m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let isa = kernels::gemm_isa();
    let (mr, nr) = isa.micro_tile();
    count_tile_tasks(m, k, n, mr, nr);
    let mut pc = 0;
    while pc < k {
        let kc = KC.min(k - pc);
        let mut bpanel = pack_scratch(1, n.div_ceil(nr) * nr * kc);
        pack_b_block(b, n, pc, kc, nr, bpanel.as_mut_slice());
        run_bands(a, m, k, n, pc, kc, pc == 0, bpanel.as_slice(), isa, out);
        pack_recycle(bpanel);
        pc += kc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_override_round_trips() {
        let was = gemm_mode();
        for mode in [GemmMode::Row, GemmMode::Tiled, GemmMode::Auto] {
            set_gemm_mode(mode);
            assert_eq!(gemm_mode(), mode);
        }
        set_gemm_mode(was);
    }

    #[test]
    fn auto_routing_thresholds() {
        let was = gemm_mode();
        set_gemm_mode(GemmMode::Auto);
        assert!(use_tiled(256, 256, 256));
        assert!(!use_tiled(8, 256, 256), "skinny m stays on the row kernel");
        assert!(!use_tiled(256, 256, 8), "skinny n stays on the row kernel");
        assert!(!use_tiled(96, 64, 64), "L1-resident B stays on the row kernel");
        set_gemm_mode(GemmMode::Row);
        assert!(!use_tiled(256, 256, 256));
        set_gemm_mode(GemmMode::Tiled);
        assert!(use_tiled(3, 3, 3));
        set_gemm_mode(was);
    }

    #[test]
    fn packing_layouts_zero_pad_edges() {
        // B: 2x5 with nr=4 -> 2 bands of 4 cols x kc=2.
        let b: Vec<f32> = (1..=10).map(|v| v as f32).collect();
        let mut panel = vec![f32::NAN; 2 * 4 * 2];
        pack_b_block(&b, 5, 0, 2, 4, &mut panel);
        assert_eq!(
            panel,
            vec![
                1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0, // band 0, kk=0..2
                5.0, 0.0, 0.0, 0.0, 10.0, 0.0, 0.0, 0.0, // band 1, zero-padded
            ]
        );
        // A: 3 rows, k=2, mr=2 -> 2 tiles, last row-padded.
        let a: Vec<f32> = (1..=6).map(|v| v as f32).collect();
        let mut panel = vec![f32::NAN; 2 * 2 * 2];
        pack_a_band(&a, 2, 0, 3, 0, 2, 2, &mut panel);
        assert_eq!(panel, vec![1.0, 3.0, 2.0, 4.0, 5.0, 0.0, 6.0, 0.0]);
    }
}
