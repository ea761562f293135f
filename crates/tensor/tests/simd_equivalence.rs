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

use colper_runtime::Runtime;
use colper_tensor::kernels::{self, scalar};
use colper_tensor::{gemm_mode, set_gemm_mode, Act, GemmMode, Matrix};
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

/// Depths and widths the victims' layers run (PointNet++'s 57-deep,
/// 48-wide head, ResGCN's 64- and 32-wide edge convolutions) and every
/// lane, tile and `KC` edge around them.
const DEPTHS: [usize; 13] = [0, 1, 7, 8, 9, 31, 32, 33, 57, 64, 65, 128, 257];
const WIDTHS: [usize; 10] = [1, 9, 13, 16, 17, 32, 33, 48, 64, 100];

/// Seeded operand values: finite in `[-4, 4)` with one element in eight a
/// signed zero, and a few seeded positions overwritten with specials —
/// NaN when `nan`, otherwise `+inf` and `-inf`. A case never mixes the
/// two, so every NaN it produces has one payload (the input's quiet NaN,
/// or the default NaN of `inf - inf` and `0 * inf`), and payload choice
/// between two NaN operands, which no IEEE operation pins, cannot decide
/// a comparison.
fn operand(len: usize, seed: u64, nan: bool) -> Vec<f32> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut v: Vec<f32> = (0..len)
        .map(|_| {
            let r = next();
            match r % 16 {
                0 => 0.0,
                1 => -0.0,
                _ => ((r >> 40) as f32 / (1u64 << 24) as f32) * 8.0 - 4.0,
            }
        })
        .collect();
    for s in 0..len.min(2) {
        let at = (next() as usize) % len;
        v[at] = match (nan, s) {
            (true, _) => f32::NAN,
            (false, 0) => f32::INFINITY,
            (false, _) => f32::NEG_INFINITY,
        };
    }
    v
}

/// Runs `f` on every SIMD leg the host supports (scalar, AVX2, AVX-512),
/// under every [`GemmMode`], on 1 and 4 threads, and returns the labelled
/// bit dumps.
fn on_every_leg_mode_and_thread_count(f: impl Fn() -> Vec<u32>) -> Vec<(String, Vec<u32>)> {
    static POOL: std::sync::OnceLock<Runtime> = std::sync::OnceLock::new();
    let pool = POOL.get_or_init(|| Runtime::new(4));
    let seq = Runtime::sequential();
    let _guard = lock();
    let was_simd = kernels::simd_active();
    let was_512 = kernels::avx512_active();
    let was_mode = gemm_mode();
    let mut runs = Vec::new();
    for (simd, avx512) in [(false, false), (true, false), (true, true)] {
        if (simd && !kernels::simd_supported()) || (avx512 && !kernels::avx512_supported()) {
            continue;
        }
        kernels::set_simd_enabled(simd);
        kernels::set_avx512_enabled(avx512);
        for mode in [GemmMode::Row, GemmMode::Auto, GemmMode::Tiled] {
            set_gemm_mode(mode);
            for rt in [&seq, pool] {
                let label = format!("{:?} {mode:?} threads={}", kernels::gemm_isa(), rt.threads());
                runs.push((label, rt.install(&f)));
            }
        }
    }
    kernels::set_simd_enabled(was_simd);
    kernels::set_avx512_enabled(was_512);
    set_gemm_mode(was_mode);
    runs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every matmul entry point at the victims' shapes, on every leg,
    /// route and thread count, against the pinned-order scalar primitives
    /// computed element by element: the forward product and its two fused
    /// epilogues (bias add; eval batch norm with an activation) are one
    /// ascending-`k` chain from `+0.0` per element, `matmul_tn` the same
    /// chain through the transposed operand, and `matmul_nt` [`scalar::dot`].
    #[test]
    fn matmuls_bit_identical_at_model_shapes(
        m in 1usize..=200,
        k in 0usize..DEPTHS.len(),
        n in 0usize..WIDTHS.len(),
        seed in 0u64..u64::MAX,
        nan in proptest::bool::ANY,
        act in 0usize..3,
    ) {
        let (k, n) = (DEPTHS[k], WIDTHS[n]);
        let act = [Act::Identity, Act::Relu, Act::LeakyRelu(0.2)][act];
        let a = Matrix::from_vec(m, k, operand(m * k, seed, nan)).unwrap();
        let b = Matrix::from_vec(k, n, operand(k * n, seed ^ 0x5EED, nan)).unwrap();
        let row = operand(3 * n, seed ^ 0xB1A5, false)
            .into_iter()
            .map(|v| if v.is_finite() { v } else { 0.5 })
            .collect::<Vec<_>>();
        let (bias, scale, shift) = (&row[..n], &row[n..2 * n], &row[2 * n..]);
        let (at, bt) = (a.transpose(), b.transpose());

        let chain = |i: usize, j: usize| {
            if k == 0 { 0.0 } else { scalar::fma_dot_chain(a.row(i), 1, &b.as_slice()[j..], n, k, 0.0) }
        };
        let mut reference = Vec::new();
        for f in [
            &(|i, j| chain(i, j)) as &dyn Fn(usize, usize) -> f32,
            &|i, j| chain(i, j) + bias[j],
            &|i, j| scalar::affine_act_lane(chain(i, j), scale[j], shift[j], act),
            &|i, j| chain(i, j),
            &|i, j| scalar::dot(a.row(i), bt.row(j)),
        ] {
            reference.extend((0..m).flat_map(|i| (0..n).map(move |j| f(i, j).to_bits())));
        }

        let runs = on_every_leg_mode_and_thread_count(|| {
            let mut out = Matrix::from_vec(m, n, vec![f32::NAN; m * n]).unwrap();
            let mut bits = Vec::new();
            a.matmul_into(&b, &mut out).unwrap();
            bits.extend(out.as_slice().iter().map(|v| v.to_bits()));
            a.matmul_epilogue_into(&b, &mut out, |slab| {
                slab.chunks_exact_mut(n).for_each(|r| kernels::add_assign(r, bias))
            })
            .unwrap();
            bits.extend(out.as_slice().iter().map(|v| v.to_bits()));
            a.matmul_epilogue_into(&b, &mut out, |slab| {
                kernels::affine_act_assign(slab, scale, shift, act)
            })
            .unwrap();
            bits.extend(out.as_slice().iter().map(|v| v.to_bits()));
            at.matmul_tn_into(&b, &mut out).unwrap();
            bits.extend(out.as_slice().iter().map(|v| v.to_bits()));
            a.matmul_nt_into(&bt, &mut out).unwrap();
            bits.extend(out.as_slice().iter().map(|v| v.to_bits()));
            bits
        });
        for (label, run) in &runs {
            prop_assert!(run == &reference, "{} diverged at {}x{}x{} ({:?})", label, m, k, n, act);
        }
    }
}
