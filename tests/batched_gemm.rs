//! Workspace-level contract for N same-shape clouds multiplied by one
//! shared weight, the shape every victim's shared MLP runs: each cloud's
//! product must reproduce the scalar, row-kernel, sequential reference bit
//! for bit — on both SIMD legs, with the row kernel forced and with the
//! tiled kernel forced, and on a work-stealing pool of any size.

use colper_repro::runtime::Runtime;
use colper_repro::tensor::kernels::{set_simd_enabled, simd_active, simd_supported};
use colper_repro::tensor::{gemm_mode, set_gemm_mode, GemmMode, Matrix};

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Every cloud's product with the shared weight `b` on `rt`, as bits.
fn run_clouds(clouds: &[Matrix], b: &Matrix, rt: &Runtime) -> Vec<Vec<u32>> {
    rt.install(|| {
        let mut out = Matrix::zeros(clouds[0].rows(), b.cols());
        clouds
            .iter()
            .map(|cloud| {
                cloud.matmul_into(b, &mut out).unwrap();
                bits(&out)
            })
            .collect()
    })
}

/// The shape is chosen so the tiled path actually engages: `m >= 16`,
/// `n >= 16` and `k * n` past the routing threshold, with `m` not a
/// multiple of the band height so the last band is partial.
#[test]
fn batched_gemm_matches_per_cloud_loop_across_threads_and_legs() {
    let (count, m, k, n) = (4, 48, 128, 256);
    let clouds: Vec<Matrix> = (0..count)
        .map(|i| Matrix::from_fn(m, k, |r, c| ((r * 13 + c * 3 + i) as f32 * 0.017).sin()))
        .collect();
    let b = Matrix::from_fn(k, n, |r, c| ((r * 5 + c) as f32 * 0.011).cos());

    let was_simd = simd_active();
    let was_mode = gemm_mode();

    set_simd_enabled(false);
    set_gemm_mode(GemmMode::Row);
    let reference = run_clouds(&clouds, &b, &Runtime::sequential());

    for simd in [false, true] {
        if simd && !simd_supported() {
            continue;
        }
        set_simd_enabled(simd);
        for mode in [GemmMode::Row, GemmMode::Tiled] {
            set_gemm_mode(mode);
            for threads in [1, 4] {
                let run = run_clouds(&clouds, &b, &Runtime::new(threads));
                assert_eq!(
                    run, reference,
                    "simd={simd} mode={mode:?} threads={threads} diverged from the \
                     scalar sequential row-kernel reference"
                );
            }
        }
    }

    set_simd_enabled(was_simd);
    set_gemm_mode(was_mode);
}
