//! Bit-identity contracts for the row-wise, runtime-parallel kernels:
//! the column-vectorized NT matmul and the structural kernels (grouped
//! max and softmax, forward and backward; row broadcasts; gather-sub and
//! the gather's backward scatter; concatenation and block copies; the
//! one-pass activation backward).
//!
//! Each kernel is compared with the serial loop it replaced — kept as the
//! pinned reference in [`kernels::scalar`] (or, for the per-row copies,
//! written out below) — on every SIMD leg (scalar, AVX2, AVX-512) and on
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
use colper_tensor::Matrix;
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
                let mut d = x.row(r).to_vec();
                kernels::add_assign(&mut d, row.row(0));
                dump.extend(bits(&d));
            }
            for (r, &src) in idx.iter().enumerate() {
                kernels::sub(x.row(src), y.row(r), &mut out);
                dump.extend(bits(&out));
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
            let mut acc = x.clone();
            acc.broadcast_row_assign(row.row(0), kernels::add_assign);
            dump.extend(bits(acc.as_slice()));
            x.gather_sub_into(&idx, &y, &mut out);
            dump.extend(bits(out.as_slice()));
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
