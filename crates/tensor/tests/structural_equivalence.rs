//! Bit-identity contracts for the row-wise, runtime-parallel kernels:
//! the column-vectorized NT matmul and the structural kernels (grouped
//! max and softmax, forward and backward; row broadcasts; the gather's
//! backward scatter; concatenation and block copies; the one-pass
//! activation backward) and the fused ops that replace unfused tape
//! sequences (eval batch norm + activation, forward and backward; graph
//! edge features, forward and backward; ResGCN's whole eval-mode edge
//! convolution, forward and backward into its edge rows).
//!
//! Each kernel is compared with the serial loop it replaced — kept as the
//! pinned reference in [`kernels::scalar`] (or, for the per-row copies,
//! written out below), and for the fused ops the unfused sequence of
//! matrix ops the tape ran before — on every SIMD leg (scalar, AVX2, AVX-512) and on
//! a 1-thread against a 4-thread runtime, comparing raw `f32` bits so `-0.0` against `+0.0`
//! cannot hide. Inputs mix ties, NaN, `±inf` and signed zeros.
//!
//! NaN is compared as NaN-ness, not payload: IEEE-754 leaves the sign
//! and payload of a propagated NaN open, and the compiler may commute an
//! addition's operands (`inf - inf` yields a negative NaN on x86, and
//! `d + e` keeps whichever NaN operand comes first), so the same serial
//! loop compiled in two places can already disagree there.

use colper_runtime::Runtime;
use colper_tensor::kernels::{self, scalar};
use colper_tensor::{Act, EdgeConv, GatherIndex, Matrix};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes tests that flip the process-global dispatch mode.
static PATH_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Raw bits, with every NaN mapped to one canonical pattern.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
}

fn runtimes() -> &'static [(usize, Runtime); 2] {
    static RTS: OnceLock<[(usize, Runtime); 2]> = OnceLock::new();
    RTS.get_or_init(|| [(1, Runtime::new(1)), (4, Runtime::new(4))])
}

/// Runs `f` on every (SIMD leg, runtime) combination the host supports —
/// scalar, AVX2 and AVX-512, each at 1 and 4 threads — and returns the
/// labelled bit dumps.
fn on_all_legs(f: impl Fn() -> Vec<u32>) -> Vec<(String, Vec<u32>)> {
    let _guard = lock();
    let was_simd = kernels::simd_active();
    let was_512 = kernels::avx512_active();
    let mut runs = Vec::new();
    for (simd, avx512) in [(false, false), (true, false), (true, true)] {
        if (simd && !kernels::simd_supported()) || (avx512 && !kernels::avx512_supported()) {
            continue;
        }
        kernels::set_simd_enabled(simd);
        kernels::set_avx512_enabled(avx512);
        for (threads, rt) in runtimes() {
            let label = format!("simd={simd} avx512={avx512} threads={threads}");
            runs.push((label, rt.install(&f)));
        }
    }
    kernels::set_simd_enabled(was_simd);
    kernels::set_avx512_enabled(was_512);
    runs
}

/// Asserts every leg reproduces `reference` bit for bit.
fn assert_legs(reference: &[u32], runs: &[(String, Vec<u32>)]) -> Result<(), TestCaseError> {
    for (label, run) in runs {
        prop_assert_eq!(run.as_slice(), reference, "leg {} diverged from the reference", label);
    }
    Ok(())
}

/// A deterministic value stream over a palette of awkward inputs: signed
/// zeros, NaN, `±inf`, repeated values (ties) and ordinary numbers.
fn awkward(seed: u64, i: usize) -> f32 {
    let h =
        (seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let h = h ^ (h >> 31);
    match h % 12 {
        0 => 0.0,
        1 => -0.0,
        2 => f32::NAN,
        3 => f32::INFINITY,
        4 => f32::NEG_INFINITY,
        5 => 1.0,
        6 => -1.0,
        _ => ((h >> 20) % 2000) as f32 / 250.0 - 4.0,
    }
}

/// Finite values with signed zeros for the NT matmul.
fn finite(seed: u64, i: usize) -> f32 {
    let v = awkward(seed, i);
    if v.is_finite() {
        v
    } else {
        ((i as f32) * 0.37 + seed as f32).sin() * 3.0
    }
}

fn matrix(rows: usize, cols: usize, seed: u64, f: fn(u64, usize) -> f32) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| f(seed, r * cols + c))
}

/// A dispatched binary row kernel (`kernels::add`, `sub`, `mul`, `div`).
type BinaryKernel = fn(&[f32], &[f32], &mut [f32]);

const NT_K: [usize; 9] = [1, 3, 9, 10, 16, 32, 57, 64, 112];
const NT_N: [usize; 8] = [1, 3, 5, 9, 13, 17, 23, 57];
const NT_M: [usize; 3] = [0, 1, 97];
const GROUP_K: [usize; 4] = [1, 2, 3, 16];
const GROUP_COLS: [usize; 6] = [1, 3, 8, 13, 67, 130];

/// The old NT kernel: one lane-strided `dot` per output element.
fn nt_reference(a: &Matrix, b: &Matrix) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.rows() * b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            out.push(scalar::dot(a.row(i), b.row(j)).to_bits());
        }
    }
    out
}

proptest! {
    #[test]
    fn matmul_nt_matches_per_element_dot(
        ki in 0usize..NT_K.len(),
        ni in 0usize..NT_N.len(),
        mi in 0usize..NT_M.len(),
        seed in 0u64..1_000_000,
    ) {
        let (m, k, n) = (NT_M[mi], NT_K[ki], NT_N[ni]);
        let a = matrix(m, k, seed, finite);
        let b = matrix(n, k, seed + 1, finite);
        let reference = nt_reference(&a, &b);
        let runs = on_all_legs(|| {
            let mut out = Matrix::filled(m, n, f32::NAN);
            a.matmul_nt_into(&b, &mut out).unwrap();
            bits(out.as_slice())
        });
        assert_legs(&reference, &runs)?;
    }

    #[test]
    fn group_max_matches_serial_reference(
        groups in 0usize..48,
        ki in 0usize..GROUP_K.len(),
        ci in 0usize..GROUP_COLS.len(),
        seed in 0u64..1_000_000,
    ) {
        let (k, cols) = (GROUP_K[ki], GROUP_COLS[ci]);
        let x = matrix(groups * k, cols, seed, awkward);
        let gy = matrix(groups, cols, seed + 7, awkward);
        let mut out = vec![f32::NAN; groups * cols];
        let mut argmax = vec![usize::MAX; groups * cols];
        scalar::group_max(x.as_slice(), cols, k, &mut out, &mut argmax);
        let mut grad = vec![f32::NAN; groups * k * cols];
        scalar::group_max_grad(gy.as_slice(), cols, &argmax, &mut grad);
        let mut reference = bits(&out);
        reference.extend(argmax.iter().map(|&r| r as u32));
        reference.extend(bits(&grad));

        let runs = on_all_legs(|| {
            let mut out = Matrix::filled(groups, cols, f32::NAN);
            let mut argmax = vec![usize::MAX; groups * cols];
            x.group_max_into(k, &mut out, &mut argmax);
            let mut grad = Matrix::filled(groups * k, cols, f32::NAN);
            gy.group_max_grad_into(&argmax, &mut grad);
            let mut dump = bits(out.as_slice());
            dump.extend(argmax.iter().map(|&r| r as u32));
            dump.extend(bits(grad.as_slice()));
            dump
        });
        assert_legs(&reference, &runs)?;
    }

    #[test]
    fn group_softmax_matches_serial_reference(
        groups in 0usize..48,
        ki in 0usize..GROUP_K.len(),
        ci in 0usize..GROUP_COLS.len(),
        seed in 0u64..1_000_000,
    ) {
        let (k, cols) = (GROUP_K[ki], GROUP_COLS[ci]);
        let x = matrix(groups * k, cols, seed, awkward);
        let gy = matrix(groups * k, cols, seed + 3, awkward);
        let mut soft = vec![f32::NAN; groups * k * cols];
        scalar::group_softmax(x.as_slice(), cols, k, &mut soft);
        let mut grad = vec![f32::NAN; groups * k * cols];
        scalar::group_softmax_grad(&soft, gy.as_slice(), cols, k, &mut grad);
        let mut reference = bits(&soft);
        reference.extend(bits(&grad));

        let runs = on_all_legs(|| {
            let mut soft = Matrix::filled(groups * k, cols, f32::NAN);
            x.group_softmax_into(k, &mut soft);
            let mut grad = Matrix::filled(groups * k, cols, f32::NAN);
            soft.group_softmax_grad_into(&gy, k, &mut grad);
            let mut dump = bits(soft.as_slice());
            dump.extend(bits(grad.as_slice()));
            dump
        });
        assert_legs(&reference, &runs)?;
    }

    #[test]
    fn row_copies_and_broadcasts_match_serial_loops(
        rows in 0usize..700,
        ci in 0usize..GROUP_COLS.len(),
        c2 in 0usize..9,
        seed in 0u64..1_000_000,
    ) {
        let cols = GROUP_COLS[ci];
        let x = matrix(rows, cols, seed, awkward);
        let y = matrix(rows, cols, seed + 1, awkward);
        let z = matrix(rows, c2, seed + 2, awkward);
        let row = matrix(1, cols, seed + 3, awkward);
        let idx: Vec<usize> = (0..rows).map(|r| (r * 7 + seed as usize) % rows.max(1)).collect();
        let ops: [BinaryKernel; 4] = [kernels::add, kernels::sub, kernels::mul, kernels::div];
        let reference = {
            let mut dump = Vec::new();
            let mut out = vec![0.0f32; cols];
            for op in ops {
                for r in 0..rows {
                    op(x.row(r), row.row(0), &mut out);
                    dump.extend(bits(&out));
                }
            }
            for r in 0..rows {
                dump.extend(bits(x.row(r)));
                dump.extend(bits(z.row(r)));
            }
            for r in 0..rows {
                dump.extend(bits(&x.row(r)[cols / 3..cols]));
            }
            let mut scattered = Matrix::zeros(rows, cols);
            for (d, &s) in idx.iter().enumerate() {
                kernels::add_assign(scattered.row_mut(s), x.row(d));
            }
            dump.extend(bits(scattered.as_slice()));
            let mut tmp = vec![0.0f32; rows * cols];
            for (t, &v) in tmp.iter_mut().zip(y.as_slice()) {
                *t = if v > 0.0 { 1.0 } else { 0.2 };
            }
            let mut prod = vec![0.0f32; rows * cols];
            kernels::mul(x.as_slice(), &tmp, &mut prod);
            dump.extend(bits(&prod));
            dump
        };
        let runs = on_all_legs(|| {
            let mut dump = Vec::new();
            let mut out = Matrix::filled(rows, cols, f32::NAN);
            for op in ops {
                x.broadcast_row_into(row.row(0), op, &mut out);
                dump.extend(bits(out.as_slice()));
            }
            let mut cat = Matrix::filled(rows, cols + c2, f32::NAN);
            x.hstack_into(&z, &mut cat).unwrap();
            dump.extend(bits(cat.as_slice()));
            let mut blk = Matrix::filled(rows, cols - cols / 3, f32::NAN);
            x.block_into(0, rows, cols / 3, cols, &mut blk);
            dump.extend(bits(blk.as_slice()));
            x.scatter_add_rows_into(&idx, &mut out);
            dump.extend(bits(out.as_slice()));
            x.zip_map_into(&y, &mut out, |g, v| g * if v > 0.0 { 1.0 } else { 0.2 });
            dump.extend(bits(out.as_slice()));
            dump
        });
        assert_legs(&reference, &runs)?;
    }
}

/// Groups whose every element is NaN (or `-inf`) pool to `-inf` at the
/// group's first row, and an empty input has zero groups; one shape
/// large enough to split across the 4-thread runtime rides along.
#[test]
fn grouped_kernels_handle_degenerate_and_large_groups() {
    for (groups, k, cols, fill) in [
        (3usize, 4usize, 5usize, Some(f32::NAN)),
        (2, 3, 67, Some(f32::NEG_INFINITY)),
        (0, 5, 4, None),
        (300, 16, 67, None),
    ] {
        let x = match fill {
            Some(v) => Matrix::filled(groups * k, cols, v),
            None => matrix(groups * k, cols, 11, awkward),
        };
        let gy = matrix(groups, cols, 12, awkward);
        let mut out = vec![0.0f32; groups * cols];
        let mut argmax = vec![0usize; groups * cols];
        scalar::group_max(x.as_slice(), cols, k, &mut out, &mut argmax);
        if fill.is_some() {
            assert!(out.iter().all(|&v| v == f32::NEG_INFINITY));
            assert!(argmax.iter().enumerate().all(|(e, &r)| r == (e / cols) * k));
        }
        let mut grad = vec![0.0f32; groups * k * cols];
        scalar::group_max_grad(gy.as_slice(), cols, &argmax, &mut grad);
        let mut soft = vec![0.0f32; groups * k * cols];
        scalar::group_softmax(x.as_slice(), cols, k, &mut soft);
        let mut reference = bits(&out);
        reference.extend(argmax.iter().map(|&r| r as u32));
        reference.extend(bits(&grad));
        reference.extend(bits(&soft));
        let runs = on_all_legs(|| {
            let mut o = Matrix::filled(groups, cols, 1.0);
            let mut a = vec![usize::MAX; groups * cols];
            x.group_max_into(k, &mut o, &mut a);
            let mut g = Matrix::filled(groups * k, cols, 1.0);
            gy.group_max_grad_into(&a, &mut g);
            let mut s = Matrix::filled(groups * k, cols, 1.0);
            x.group_softmax_into(k, &mut s);
            let mut dump = bits(o.as_slice());
            dump.extend(a.iter().map(|&r| r as u32));
            dump.extend(bits(g.as_slice()));
            dump.extend(bits(s.as_slice()));
            dump
        });
        for (label, run) in &runs {
            assert_eq!(run, &reference, "{label}: groups={groups} k={k} cols={cols}");
        }
    }
}

/// The NT matmul at the attack's backward shape, large enough to split
/// its rows across the runtime and to cross every 8-column block edge.
#[test]
fn matmul_nt_matches_per_element_dot_at_attack_shape() {
    let a = matrix(2049, 32, 5, finite);
    let b = matrix(67, 32, 6, finite);
    let reference = nt_reference(&a, &b);
    let runs = on_all_legs(|| bits(a.matmul_nt(&b).unwrap().as_slice()));
    for (label, run) in &runs {
        assert_eq!(run, &reference, "{label}");
    }
}

const ACTS: [Act; 3] = [Act::Identity, Act::Relu, Act::LeakyRelu(0.2)];

/// The unfused eval batch norm + activation, forward and backward, as the
/// tape recorded it: a row-broadcast multiply, a row-broadcast add and the
/// activation; backward, the activation's derivative tested on the
/// pre-activation `t`, then the multiply's backward.
fn affine_act_reference(
    x: &Matrix,
    scale: &[f32],
    shift: &[f32],
    act: Act,
    gy: &Matrix,
) -> Vec<u32> {
    let (rows, cols) = x.shape();
    let mut s = Matrix::zeros(rows, cols);
    x.broadcast_row_into(scale, kernels::mul, &mut s);
    let mut t = Matrix::zeros(rows, cols);
    s.broadcast_row_into(shift, kernels::add, &mut t);
    let (y, g1) = match act {
        Act::Identity => (t.clone(), gy.clone()),
        Act::Relu => {
            let mut g1 = Matrix::zeros(rows, cols);
            gy.zip_map_into(&t, &mut g1, |d, v| d * if v > 0.0 { 1.0 } else { 0.0 });
            (t.map(|v| v.max(0.0)), g1)
        }
        Act::LeakyRelu(a) => {
            let mut g1 = Matrix::zeros(rows, cols);
            gy.zip_map_into(&t, &mut g1, |d, v| d * if v > 0.0 { 1.0 } else { a });
            (t.map(|v| if v > 0.0 { v } else { a * v }), g1)
        }
    };
    let mut gx = Matrix::zeros(rows, cols);
    g1.broadcast_row_into(scale, kernels::mul, &mut gx);
    let mut dump = bits(y.as_slice());
    dump.extend(bits(gx.as_slice()));
    dump
}

/// The unfused edge features as the tape recorded them — two gathers, a
/// subtraction and a column concatenation — and their backward into an
/// existing gradient slot `acc` (or none): the concat's two block copies,
/// the subtraction's in-place `g_left - g_right`, then the center
/// gather's scatter added into the slot before the neighbor gather's.
fn edge_reference(
    h: &Matrix,
    center: &[usize],
    nbr: &[usize],
    g: &Matrix,
    acc: Option<&Matrix>,
) -> Vec<u32> {
    let (n, c) = h.shape();
    let e = center.len();
    let x_j = h.select_rows(nbr);
    let x_i = h.select_rows(center);
    let diff = x_j.sub(&x_i).unwrap();
    let edge = x_i.hstack(&diff).unwrap();
    let mut g_left = g.block(0, e, 0, c);
    let g_right = g.block(0, e, c, 2 * c);
    g_left.sub_assign(&g_right);
    let mut s_c = Matrix::zeros(n, c);
    g_left.scatter_add_rows_into(center, &mut s_c);
    let mut s_n = Matrix::zeros(n, c);
    g_right.scatter_add_rows_into(nbr, &mut s_n);
    let mut slot = match acc {
        Some(a) => {
            let mut a = a.clone();
            a.add_assign(&s_c);
            a
        }
        None => s_c,
    };
    slot.add_assign(&s_n);
    let mut dump = bits(edge.as_slice());
    dump.extend(bits(slot.as_slice()));
    dump
}

fn edge_fused(
    h: &Matrix,
    center: &GatherIndex,
    nbr: &GatherIndex,
    g: &Matrix,
    acc: Option<&Matrix>,
) -> Vec<u32> {
    let (n, c) = h.shape();
    let mut edge = Matrix::filled(center.len(), 2 * c, f32::NAN);
    h.edge_features_into(center, nbr, &mut edge);
    let mut slot = match acc {
        Some(a) => a.clone(),
        None => Matrix::filled(n, c, f32::NAN),
    };
    g.edge_features_grad_into(center, nbr, acc.is_some(), &mut slot);
    let mut dump = bits(edge.as_slice());
    dump.extend(bits(slot.as_slice()));
    dump
}

/// A dilated-k-NN-like graph over `n` points: `k` edges per point (capped
/// at `n`), neighbors drawn from a hash so some rows have no in-edges.
fn graph(n: usize, k: usize, seed: u64, skew: bool) -> (Vec<usize>, Vec<usize>) {
    let k = k.min(n);
    let center: Vec<usize> = (0..n).flat_map(|i| std::iter::repeat_n(i, k)).collect();
    let nbr = (0..n * k)
        .map(|e| {
            let h = (seed ^ (e as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 17;
            // A skewed graph points every edge at the first third of the
            // rows, leaving the rest without neighbor in-edges.
            if skew {
                h as usize % n.div_ceil(3)
            } else {
                h as usize % n
            }
        })
        .collect();
    (center, nbr)
}

proptest! {
    #[test]
    fn affine_act_matches_unfused_sequence(
        rows in 0usize..400,
        ci in 0usize..GROUP_COLS.len(),
        ai in 0usize..ACTS.len(),
        seed in 0u64..1_000_000,
    ) {
        let (cols, act) = (GROUP_COLS[ci], ACTS[ai]);
        let x = matrix(rows, cols, seed, awkward);
        let gy = matrix(rows, cols, seed + 1, awkward);
        let scale = matrix(1, cols, seed + 2, awkward);
        let shift = matrix(1, cols, seed + 3, awkward);
        let reference = affine_act_reference(&x, scale.row(0), shift.row(0), act, &gy);
        let runs = on_all_legs(|| {
            let mut y = Matrix::filled(rows, cols, f32::NAN);
            x.affine_act_into(scale.row(0), shift.row(0), act, &mut y);
            let mut in_place = x.clone();
            kernels::affine_act_assign(in_place.as_mut_slice(), scale.row(0), shift.row(0), act);
            assert_eq!(bits(in_place.as_slice()), bits(y.as_slice()), "in-place epilogue");
            let mut gx = Matrix::filled(rows, cols, f32::NAN);
            gy.affine_act_grad_into(&y, scale.row(0), act, &mut gx);
            let mut dump = bits(y.as_slice());
            dump.extend(bits(gx.as_slice()));
            dump
        });
        assert_legs(&reference, &runs)?;
    }

    #[test]
    fn edge_features_match_unfused_sequence(
        n in 1usize..60,
        k in 1usize..10,
        ci in 0usize..GROUP_COLS.len(),
        skew in 0u8..2,
        accumulate in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let cols = GROUP_COLS[ci];
        let (center, nbr) = graph(n, k, seed, skew == 1);
        let h = matrix(n, cols, seed + 1, awkward);
        let g = matrix(center.len(), 2 * cols, seed + 2, awkward);
        let acc = matrix(n, cols, seed + 3, awkward);
        let acc = (accumulate == 1).then_some(&acc);
        let reference = edge_reference(&h, &center, &nbr, &g, acc);
        let (ci_, ni_) = (GatherIndex::new(center.clone(), n), GatherIndex::new(nbr.clone(), n));
        let runs = on_all_legs(|| edge_fused(&h, &ci_, &ni_, &g, acc));
        assert_legs(&reference, &runs)?;
        // The op is not tied to `e / k` centers: any center list works.
        let (center2, _) = graph(n, k, seed + 9, false);
        let shuffled: Vec<usize> = center2.iter().rev().copied().collect();
        let reference = edge_reference(&h, &shuffled, &nbr, &g, acc);
        let c2 = GatherIndex::new(shuffled, n);
        let runs = on_all_legs(|| edge_fused(&h, &c2, &ni_, &g, acc));
        assert_legs(&reference, &runs)?;
    }
}

/// The fused ops at the attack's shapes, large enough to split across the
/// 4-thread runtime, and eval batch norm + activation after a matmul at
/// ResGCN's edge shape and at a shape with two `k`-blocks.
#[test]
fn fused_ops_match_unfused_sequence_at_scale() {
    let (n, k, cols) = (700, 8, 32);
    let (center, nbr) = graph(n, k, 3, false);
    let h = matrix(n, cols, 4, awkward);
    let g = matrix(n * k, 2 * cols, 5, awkward);
    let acc = matrix(n, cols, 6, awkward);
    let (ci, ni) = (GatherIndex::new(center.clone(), n), GatherIndex::new(nbr.clone(), n));
    for acc in [Some(&acc), None] {
        let reference = edge_reference(&h, &center, &nbr, &g, acc);
        for (label, run) in &on_all_legs(|| edge_fused(&h, &ci, &ni, &g, acc)) {
            assert_eq!(run, &reference, "edge features {label}");
        }
    }
    for (m, kk, nn) in [(n * k, 2 * cols, cols), (300, 256, 128)] {
        let a = matrix(m, kk, 7, finite);
        let w = matrix(kk, nn, 8, finite);
        let scale = matrix(1, nn, 9, awkward);
        let shift = matrix(1, nn, 10, awkward);
        let gy = matrix(m, nn, 11, awkward);
        for act in ACTS {
            let x = a.matmul(&w).unwrap();
            let reference = affine_act_reference(&x, scale.row(0), shift.row(0), act, &gy);
            let runs = on_all_legs(|| {
                let mut prod = Matrix::filled(m, nn, f32::NAN);
                a.matmul_into(&w, &mut prod).unwrap();
                let mut y = Matrix::filled(m, nn, f32::NAN);
                prod.affine_act_into(scale.row(0), shift.row(0), act, &mut y);
                let mut gx = Matrix::filled(m, nn, f32::NAN);
                gy.affine_act_grad_into(&y, scale.row(0), act, &mut gx);
                let mut dump = bits(y.as_slice());
                dump.extend(bits(gx.as_slice()));
                dump
            });
            for (label, run) in &runs {
                assert_eq!(run, &reference, "[{m}x{kk}]x[{kk}x{nn}] {act:?} {label}");
            }
        }
    }
}

/// Edge widths `C` for the edge convolution: one, ragged against every
/// vector width, and `2C = 260 > 256`, so each product element runs two
/// `k`-blocks before the activation.
const CONV_C: [usize; 4] = [1, 3, 13, 130];
const CONV_CO: [usize; 4] = [1, 5, 17, 32];
const CONV_K: [usize; 6] = [1, 2, 6, 7, 8, 16];

/// `k` edges per point for all `n` points, neighbors drawn from a hash
/// over `0..n` — so with `n < k` every list repeats its neighbors, as the
/// padded k-NN lists of a cloud smaller than `k` do.
fn padded_graph(n: usize, k: usize, seed: u64) -> (GatherIndex, GatherIndex) {
    let center = (0..n).flat_map(|i| std::iter::repeat_n(i, k)).collect();
    let nbr = (0..n * k)
        .map(|e| ((seed ^ (e as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 17) as usize % n)
        .collect();
    (GatherIndex::new(center, n), GatherIndex::new(nbr, n))
}

/// ResGCN's edge convolution as the unfused ops compute it: edge
/// features, the matmul, eval batch norm + activation and the group max;
/// backward, the group max's scatter, the activation's backward and the
/// NT matmul into the edge rows. Dumps the pooled value, the winning
/// edges and the edge-row gradient.
fn edge_conv_reference(
    h: &Matrix,
    (center, nbr): (&GatherIndex, &GatherIndex),
    conv: EdgeConv<'_>,
    gy: &Matrix,
) -> Vec<u32> {
    let (e, co) = (center.len(), conv.w.cols());
    let mut edge = Matrix::zeros(e, 2 * h.cols());
    h.edge_features_into(center, nbr, &mut edge);
    let prod = edge.matmul(conv.w).unwrap();
    let mut y = Matrix::zeros(e, co);
    prod.affine_act_into(conv.scale, conv.shift, conv.act, &mut y);
    let mut pooled = Matrix::zeros(e / conv.k, co);
    let mut argmax = vec![0; pooled.len()];
    y.group_max_into(conv.k, &mut pooled, &mut argmax);
    let mut g_pool = Matrix::zeros(e, co);
    gy.group_max_grad_into(&argmax, &mut g_pool);
    let mut g_pre = Matrix::zeros(e, co);
    g_pool.affine_act_grad_into(&y, conv.scale, conv.act, &mut g_pre);
    let g_edge = g_pre.matmul_nt(conv.w).unwrap();
    let mut dump = bits(pooled.as_slice());
    dump.extend(argmax.iter().map(|&r| r as u32));
    dump.extend(bits(g_edge.as_slice()));
    dump
}

/// [`Matrix::edge_conv_into`] and [`Matrix::edge_conv_grad_into`] into
/// NaN-filled outputs, dumped like [`edge_conv_reference`].
fn edge_conv_fused(
    h: &Matrix,
    (center, nbr): (&GatherIndex, &GatherIndex),
    conv: EdgeConv<'_>,
    gy: &Matrix,
) -> Vec<u32> {
    let (e, co) = (center.len(), conv.w.cols());
    let mut pooled = Matrix::filled(e / conv.k, co, f32::NAN);
    let mut argmax = vec![usize::MAX; pooled.len()];
    h.edge_conv_into(center, nbr, conv, &mut pooled, &mut argmax);
    let mut g_edge = Matrix::filled(e, 2 * h.cols(), f32::NAN);
    gy.edge_conv_grad_into(conv, &pooled, &argmax, &mut g_edge);
    let mut dump = bits(pooled.as_slice());
    dump.extend(argmax.iter().map(|&r| r as u32));
    dump.extend(bits(g_edge.as_slice()));
    dump
}

/// One seeded edge-convolution case: awkward `h`, `scale`, `shift` and
/// upstream gradient (ties, `±0`, NaN, `±inf`; `scale` has negative
/// entries), finite weights, and one output column forced to an all-NaN
/// or all-`-inf` pre-activation through its shift.
fn check_edge_conv(
    (n, k, cols, co): (usize, usize, usize, usize),
    act: Act,
    seed: u64,
) -> Result<(), TestCaseError> {
    let (center, nbr) = padded_graph(n, k, seed);
    let h = matrix(n, cols, seed + 1, awkward);
    let w = matrix(2 * cols, co, seed + 2, finite);
    let scale = matrix(1, co, seed + 3, awkward);
    let mut shift = matrix(1, co, seed + 4, awkward);
    shift[(0, seed as usize % co)] =
        if seed.is_multiple_of(2) { f32::NAN } else { f32::NEG_INFINITY };
    let gy = matrix(n, co, seed + 5, awkward);
    let conv = EdgeConv { w: &w, scale: scale.row(0), shift: shift.row(0), act, k };
    let reference = edge_conv_reference(&h, (&center, &nbr), conv, &gy);
    let runs = on_all_legs(|| edge_conv_fused(&h, (&center, &nbr), conv, &gy));
    assert_legs(&reference, &runs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn edge_conv_matches_unfused_sequence(
        n in 1usize..24,
        ki in 0usize..CONV_K.len(),
        ci in 0usize..CONV_C.len(),
        oi in 0usize..CONV_CO.len(),
        ai in 0usize..ACTS.len(),
        seed in 0u64..1_000_000,
    ) {
        let shape = (n, CONV_K[ki], CONV_C[ci], CONV_CO[oi]);
        check_edge_conv(shape, ACTS[ai], seed)?;
    }
}

/// The edge convolution at ResGCN's shape (`k = 8`, 32 channels), large
/// enough that both passes split across the 4-thread runtime, and at
/// `k = 7`, whose slabs do not divide the 96-row GEMM slab height.
#[test]
fn edge_conv_matches_unfused_sequence_at_scale() {
    for (shape, seed) in [((700, 8, 32, 32), 12), ((300, 7, 13, 17), 13)] {
        for act in ACTS {
            check_edge_conv(shape, act, seed).unwrap();
        }
    }
}

#[test]
fn gather_index_lists_readers_in_ascending_order() {
    let idx = GatherIndex::new(vec![2, 0, 2, 2, 0], 4);
    assert_eq!(idx.len(), 5);
    assert_eq!(idx.source_rows(), 4);
    assert_eq!(idx.indices(), &[2, 0, 2, 2, 0]);
    assert_eq!(idx.readers(0), &[1, 4]);
    assert_eq!(idx.readers(1), &[] as &[usize]);
    assert_eq!(idx.readers(2), &[0, 2, 3]);
    assert_eq!(idx.readers(3), &[] as &[usize]);
    assert!(GatherIndex::new(Vec::new(), 0).is_empty());
}

#[test]
#[should_panic(expected = "out of bounds")]
fn gather_index_rejects_out_of_range_rows() {
    let _ = GatherIndex::new(vec![0, 3], 3);
}
