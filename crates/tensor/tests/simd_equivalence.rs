//! Property tests pinning the kernel-dispatch contract: the dispatched
//! kernels must be **bit-identical** to the pinned-order scalar reference
//! on every shape — empty slices, single elements, non-multiples of the
//! 8-lane width, and matrices with zero rows or columns.
//!
//! Each case runs the dispatched entry point on both paths (scalar forced
//! via [`kernels::set_simd_enabled`], then SIMD when the host supports it)
//! and against a direct call into [`kernels::scalar`], comparing raw `f32`
//! bits rather than values so `-0.0` vs `0.0` and NaN payload differences
//! cannot hide.

use colper_tensor::kernels::{self, scalar};
use colper_tensor::{gemm_mode, set_gemm_mode, GemmMode, Matrix};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that flip the process-global dispatch mode.
static PATH_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `f` with SIMD forced off, then (when supported) forced on, and
/// returns both bit dumps; the caller asserts they agree with each other
/// and with the direct scalar-reference result.
fn on_both_paths(f: impl Fn() -> Vec<u32>) -> (Vec<u32>, Option<Vec<u32>>) {
    let _guard = lock();
    let was = kernels::simd_active();
    kernels::set_simd_enabled(false);
    let scalar_path = f();
    let simd_path = if kernels::simd_supported() {
        kernels::set_simd_enabled(true);
        Some(f())
    } else {
        None
    };
    kernels::set_simd_enabled(was);
    (scalar_path, simd_path)
}

fn arb_vec(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    (0..=max_len).prop_flat_map(|n| proptest::collection::vec(-100.0f32..100.0, n))
}

/// Runs `f` under every (SIMD leg, GEMM kernel) combination the host
/// supports — scalar / AVX2 / AVX-512, each with the row kernel forced and
/// with the tiled kernel forced — and returns the labelled bit dumps. The
/// first entry is always the scalar row-kernel reference; callers assert
/// every other leg matches it bit for bit.
fn on_all_gemm_legs(f: impl Fn() -> Vec<u32>) -> Vec<(String, Vec<u32>)> {
    let _guard = lock();
    let was_simd = kernels::simd_active();
    let was_512 = kernels::avx512_active();
    let was_mode = gemm_mode();
    let mut runs = Vec::new();
    for (simd, avx512) in [(false, false), (true, false), (true, true)] {
        if simd && !kernels::simd_supported() {
            continue;
        }
        if avx512 && !kernels::avx512_supported() {
            continue;
        }
        kernels::set_simd_enabled(simd);
        kernels::set_avx512_enabled(avx512);
        for mode in [GemmMode::Row, GemmMode::Tiled] {
            set_gemm_mode(mode);
            runs.push((format!("simd={simd} avx512={avx512} mode={mode:?}"), f()));
        }
    }
    kernels::set_simd_enabled(was_simd);
    kernels::set_avx512_enabled(was_512);
    set_gemm_mode(was_mode);
    runs
}

proptest! {
    #[test]
    fn zip_kernels_match_scalar_reference(a in arb_vec(70), b in arb_vec(70)) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let reference = {
            let mut bits_out = Vec::new();
            let mut out = vec![f32::NAN; n];
            scalar::add(a, b, &mut out);
            bits_out.extend(bits(&out));
            scalar::sub(a, b, &mut out);
            bits_out.extend(bits(&out));
            scalar::mul(a, b, &mut out);
            bits_out.extend(bits(&out));
            scalar::div(a, b, &mut out);
            bits_out.extend(bits(&out));
            scalar::mul_add(a, b, b, &mut out);
            bits_out.extend(bits(&out));
            scalar::scale(a, -2.625, &mut out);
            bits_out.extend(bits(&out));
            bits_out
        };
        let run = || {
            let mut bits_out = Vec::new();
            let mut out = vec![f32::NAN; n];
            kernels::add(a, b, &mut out);
            bits_out.extend(bits(&out));
            kernels::sub(a, b, &mut out);
            bits_out.extend(bits(&out));
            kernels::mul(a, b, &mut out);
            bits_out.extend(bits(&out));
            kernels::div(a, b, &mut out);
            bits_out.extend(bits(&out));
            kernels::mul_add(a, b, b, &mut out);
            bits_out.extend(bits(&out));
            kernels::scale(a, -2.625, &mut out);
            bits_out.extend(bits(&out));
            bits_out
        };
        let (scalar_path, simd_path) = on_both_paths(run);
        prop_assert_eq!(&scalar_path, &reference);
        if let Some(simd_path) = simd_path {
            prop_assert_eq!(&simd_path, &reference);
        }
    }

    #[test]
    fn accumulating_kernels_match_scalar_reference(a in arb_vec(70), b in arb_vec(70)) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let reference = {
            let mut d = a.to_vec();
            scalar::add_assign(&mut d, b);
            scalar::sub_assign(&mut d, a);
            scalar::mul_assign(&mut d, b);
            scalar::axpy(&mut d, 0.6875, a);
            scalar::add_prod_assign(&mut d, a, b);
            scalar::sub_prod_assign(&mut d, b, a);
            scalar::scale_assign(&mut d, -0.375);
            bits(&d)
        };
        let run = || {
            let mut d = a.to_vec();
            kernels::add_assign(&mut d, b);
            kernels::sub_assign(&mut d, a);
            kernels::mul_assign(&mut d, b);
            kernels::axpy(&mut d, 0.6875, a);
            kernels::add_prod_assign(&mut d, a, b);
            kernels::sub_prod_assign(&mut d, b, a);
            kernels::scale_assign(&mut d, -0.375);
            bits(&d)
        };
        let (scalar_path, simd_path) = on_both_paths(run);
        prop_assert_eq!(&scalar_path, &reference);
        if let Some(simd_path) = simd_path {
            prop_assert_eq!(&simd_path, &reference);
        }
    }

    #[test]
    fn reductions_match_scalar_reference(a in arb_vec(200), b in arb_vec(200)) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let reference =
            vec![scalar::sum(a).to_bits(), scalar::dot(a, b).to_bits(), scalar::sum_sq(a).to_bits()];
        let run =
            || vec![kernels::sum(a).to_bits(), kernels::dot(a, b).to_bits(), kernels::sum_sq(a).to_bits()];
        let (scalar_path, simd_path) = on_both_paths(run);
        prop_assert_eq!(&scalar_path, &reference);
        if let Some(simd_path) = simd_path {
            prop_assert_eq!(&simd_path, &reference);
        }
    }

    #[test]
    fn tanh_matches_scalar_reference(a in arb_vec(70)) {
        let reference = {
            let mut out = vec![f32::NAN; a.len()];
            scalar::tanh(&a, &mut out);
            bits(&out)
        };
        let run = || {
            let mut out = vec![f32::NAN; a.len()];
            kernels::tanh(&a, &mut out);
            bits(&out)
        };
        let (scalar_path, simd_path) = on_both_paths(run);
        prop_assert_eq!(&scalar_path, &reference);
        if let Some(simd_path) = simd_path {
            prop_assert_eq!(&simd_path, &reference);
        }
    }

    #[test]
    fn matmul_row_matches_scalar_reference(
        k in 0usize..24,
        n in 0usize..40,
        seed in -3.0f32..3.0,
    ) {
        let a_row: Vec<f32> = (0..k).map(|i| ((i as f32) * 0.71 + seed).sin() * 2.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i as f32) * 0.37 - seed).cos() * 1.5).collect();
        let reference = {
            let mut out = vec![0.25f32; n];
            scalar::matmul_row(&a_row, &b, n, &mut out);
            bits(&out)
        };
        let run = || {
            let mut out = vec![0.25f32; n];
            kernels::matmul_row(&a_row, &b, n, &mut out);
            bits(&out)
        };
        let (scalar_path, simd_path) = on_both_paths(run);
        prop_assert_eq!(&scalar_path, &reference);
        if let Some(simd_path) = simd_path {
            prop_assert_eq!(&simd_path, &reference);
        }
    }

    /// The three matmul variants, transpose and elementwise tanh at the
    /// `Matrix` level — including zero-row and zero-column operands — must
    /// not depend on which dispatch path ran them.
    #[test]
    fn matrix_ops_bit_identical_across_paths(
        m in 0usize..10,
        k in 0usize..10,
        n in 0usize..10,
        seed in -2.0f32..2.0,
    ) {
        let a = Matrix::from_fn(m, k, |r, c| ((r * 7 + c) as f32 * 0.43 + seed).sin());
        let b = Matrix::from_fn(k, n, |r, c| ((r * 5 + c) as f32 * 0.29 - seed).cos());
        let bt = b.transpose();
        let at = a.transpose();
        let run = || {
            let mut out = Vec::new();
            out.extend(bits(a.matmul(&b).unwrap().as_slice()));
            out.extend(bits(at.matmul_tn(&b).unwrap().as_slice()));
            out.extend(bits(a.matmul_nt(&bt).unwrap().as_slice()));
            out.extend(bits(a.tanh().as_slice()));
            out.extend(bits(a.transpose().as_slice()));
            out.push(a.sum().to_bits());
            out.push(a.frobenius_sq().to_bits());
            out
        };
        let (scalar_path, simd_path) = on_both_paths(run);
        if let Some(simd_path) = simd_path {
            prop_assert_eq!(&simd_path, &scalar_path);
        }
    }

    /// The tiled GEMM — on every ISA leg — must reproduce the scalar row
    /// kernel bit for bit on ragged shapes: dimensions that are not
    /// multiples of the 6x16 / 12x32 micro-tiles, zero-dimension operands,
    /// and single-row matrices. `matmul_tn` shares the packed-transpose
    /// path, so it rides along.
    #[test]
    fn tiled_gemm_bit_identical_to_row_kernel_on_ragged_shapes(
        m in 0usize..40,
        k in 0usize..48,
        n in 0usize..40,
        seed in -2.0f32..2.0,
    ) {
        let a = Matrix::from_fn(m, k, |r, c| ((r * 7 + c) as f32 * 0.43 + seed).sin());
        let b = Matrix::from_fn(k, n, |r, c| ((r * 5 + c) as f32 * 0.29 - seed).cos());
        let at = a.transpose();
        let runs = on_all_gemm_legs(|| {
            let mut out = Vec::new();
            out.extend(bits(a.matmul(&b).unwrap().as_slice()));
            out.extend(bits(at.matmul_tn(&b).unwrap().as_slice()));
            out
        });
        let (ref_label, reference) = &runs[0];
        prop_assert!(ref_label.contains("simd=false"));
        for (label, run) in &runs[1..] {
            prop_assert_eq!(run, reference, "leg {} diverged from {}", label, ref_label);
        }
    }
}

/// One deterministic shape that crosses every blocking boundary at once:
/// `m = 211` spans three `MC = 96` bands (the last one partial), `k = 519`
/// spans three `KC = 256` panels (exercising the accumulate-into-C reload
/// at `pc > 0`), and `n = 67` leaves partial-column micro-tiles on every
/// leg. All legs and both kernels must agree bit for bit.
#[test]
fn tiled_gemm_crosses_band_and_panel_boundaries() {
    let (m, k, n) = (211, 519, 67);
    let a = Matrix::from_fn(m, k, |r, c| ((r * 13 + c) as f32 * 0.017).sin());
    let b = Matrix::from_fn(k, n, |r, c| ((r * 3 + c) as f32 * 0.023).cos());
    let at = a.transpose();
    let runs = on_all_gemm_legs(|| {
        let mut out = Vec::new();
        out.extend(bits(a.matmul(&b).unwrap().as_slice()));
        out.extend(bits(at.matmul_tn(&b).unwrap().as_slice()));
        out
    });
    let (ref_label, reference) = &runs[0];
    for (label, run) in &runs[1..] {
        assert_eq!(run, reference, "leg {label} diverged from {ref_label}");
    }
}
