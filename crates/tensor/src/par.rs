//! Ambient-runtime helpers for the parallel tensor kernels.
//!
//! Tensor ops sit at the bottom of the autodiff stack, far below any
//! signature a [`colper_runtime::Runtime`] handle could be threaded
//! through, so they consult the ambient runtime installed by
//! [`colper_runtime::Runtime::install`]. Every parallel kernel in this
//! crate partitions its *output* across threads (each element written by
//! exactly one task, with the same per-element operation order as the
//! sequential loop), so results are bit-identical to sequential execution
//! regardless of thread count.

use colper_runtime::Runtime;

/// Minimum multiply-accumulate count before a matmul goes parallel; below
/// this the scheduling overhead outweighs the arithmetic.
pub(crate) const MIN_PAR_MACS: usize = 1 << 15;

/// Minimum element count before an elementwise kernel goes parallel.
pub(crate) const MIN_PAR_ELEMS: usize = 1 << 15;

/// Returns the ambient runtime when `work` crosses `threshold` and the
/// runtime actually has workers; `None` means "run the sequential loop".
pub(crate) fn runtime_for(work: usize, threshold: usize) -> Option<Runtime> {
    if work < threshold {
        return None;
    }
    let rt = colper_runtime::current();
    if rt.is_sequential() {
        None
    } else {
        Some(rt)
    }
}

/// The per-thread slice length used to split `len` output elements.
pub(crate) fn chunk_len(len: usize, rt: &Runtime) -> usize {
    len.div_ceil(4 * rt.threads()).max(1)
}

/// Runs `job(first_row, band)` over bands of whole `align`-row units of
/// the row-major `out` (row width `cols`; the last unit may be short),
/// splitting the bands across the ambient runtime when `work` clears
/// `threshold`. Kernels whose rows come in groups (grouped pooling and
/// softmax over `k` consecutive rows) pass the group size as `align`, so
/// no group ever straddles two bands; the GEMM passes its slab height.
/// Every row is written by exactly one job with the sequential loop's
/// per-element operation order, so the result is bit-identical at any
/// thread count.
pub(crate) fn for_each_row_band<T: Send>(
    out: &mut [T],
    cols: usize,
    align: usize,
    (work, threshold): (usize, usize),
    job: impl Fn(usize, &mut [T]) + Sync,
) {
    if cols == 0 || out.is_empty() {
        return;
    }
    debug_assert!(align > 0 && out.len().is_multiple_of(cols));
    match runtime_for(work, threshold) {
        None => job(0, out),
        Some(rt) => {
            let units = (out.len() / cols).div_ceil(align);
            let rows_per = chunk_len(units, &rt) * align;
            rt.par_chunks_mut(out, rows_per * cols, |c, band| job(c * rows_per, band));
        }
    }
}

/// [`for_each_row_band`] over two outputs of one shape that a kernel
/// writes together (a pooled value and the row it came from): each
/// `job(first_row, a_band, b_band)` gets the same rows of both.
pub(crate) fn for_each_row_band_pair<A: Send, B: Send>(
    (a, b): (&mut [A], &mut [B]),
    cols: usize,
    align: usize,
    (work, threshold): (usize, usize),
    job: impl Fn(usize, &mut [A], &mut [B]) + Sync,
) {
    if cols == 0 || a.is_empty() {
        return;
    }
    debug_assert!(align > 0 && a.len().is_multiple_of(cols) && a.len() == b.len());
    match runtime_for(work, threshold) {
        None => job(0, a, b),
        Some(rt) => {
            let units = (a.len() / cols).div_ceil(align);
            let rows_per = chunk_len(units, &rt) * align;
            rt.par_chunks_mut_pair(a, b, rows_per * cols, |c, ba, bb| job(c * rows_per, ba, bb));
        }
    }
}
