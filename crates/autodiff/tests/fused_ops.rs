//! Tape-level contracts of the fused ops: `affine_act` (eval batch norm +
//! activation), `edge_features` (DeepGCN's `[x_i | x_j - x_i]` rows) and
//! `edge_conv` (DeepGCN's whole eval-mode edge convolution) record the
//! same values and propagate the same gradients, bit for bit, as the
//! unfused op sequences they replace — on every SIMD leg (scalar, AVX2,
//! AVX-512) at 1 and 4 threads — and pass a numeric gradient check.
//!
//! The tape asserts finite node values in debug builds, so these graphs
//! run on finite inputs there; the edge convolution's non-finite cases
//! run in release builds only. NaN, `±inf` and signed zeros are covered
//! kernel by kernel in the tensor crate's `structural_equivalence` suite.

use colper_autodiff::{check_gradient, Tape, Var};
use colper_runtime::Runtime;
use colper_tensor::{kernels, Act, GatherIndex, Matrix};
use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Serializes tests that flip the process-global dispatch mode.
static PATH_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn runtimes() -> &'static [(usize, Runtime); 2] {
    static RTS: OnceLock<[(usize, Runtime); 2]> = OnceLock::new();
    RTS.get_or_init(|| [(1, Runtime::new(1)), (4, Runtime::new(4))])
}

/// Runs `f` on every (SIMD leg, runtime) combination the host supports.
fn on_all_legs<T>(f: impl Fn() -> T) -> Vec<(String, T)> {
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
            runs.push((format!("simd={simd} avx512={avx512} threads={threads}"), rt.install(&f)));
        }
    }
    kernels::set_simd_enabled(was_simd);
    kernels::set_avx512_enabled(was_512);
    runs
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
}

const ACTS: [Act; 3] = [Act::Identity, Act::Relu, Act::LeakyRelu(0.2)];

fn activation(t: &mut Tape, x: Var, act: Act) -> Var {
    match act {
        Act::Identity => x,
        Act::Relu => t.relu(x),
        Act::LeakyRelu(alpha) => t.leaky_relu(x, alpha),
    }
}

/// `x`, `scale` and `shift` are all leaves, and `x` feeds the loss twice
/// so its gradient slot already holds a contribution when the fused op's
/// backward adds into it. Returns the output and the three gradients.
fn affine_graph(x0: &Matrix, s0: &Matrix, b0: &Matrix, act: Act, fused: bool) -> Vec<Vec<u32>> {
    let mut t = Tape::new();
    let (x, s, b) = (t.leaf(x0.clone()), t.leaf(s0.clone()), t.leaf(b0.clone()));
    let y = if fused {
        t.affine_act(x, s, b, act)
    } else {
        let scaled = t.mul_row(x, s);
        let shifted = t.add_row(scaled, b);
        activation(&mut t, shifted, act)
    };
    let sq = t.square(y);
    let prod = t.mul(y, x);
    let both = t.add(sq, prod);
    let loss = t.sum(both);
    t.backward(loss);
    vec![
        bits(t.value(y)),
        bits(t.grad(x).unwrap()),
        bits(t.grad(s).unwrap()),
        bits(t.grad(b).unwrap()),
    ]
}

/// A ResGCN block over `h`: edge features, an edge MLP with eval batch
/// norm, max aggregation and (optionally) the residual add that fills
/// `h`'s gradient slot before the edge op's backward reaches it.
fn edge_block(
    h0: &Matrix,
    center: &[usize],
    nbr: &[usize],
    k: usize,
    residual: bool,
    fused: bool,
) -> Vec<Vec<u32>> {
    let (n, c) = h0.shape();
    let mut t = Tape::new();
    let h = t.leaf(h0.clone());
    let edge = if fused {
        let ci = Arc::new(GatherIndex::new(center.to_vec(), n));
        let ni = Arc::new(GatherIndex::new(nbr.to_vec(), n));
        t.edge_features(h, ci, ni)
    } else {
        let x_j = t.gather_rows(h, nbr);
        let x_i = t.gather_rows(h, center);
        let diff = t.sub(x_j, x_i);
        t.concat_cols(x_i, diff)
    };
    let w = t.constant(Matrix::from_fn(2 * c, c, |r, cc| ((r * 7 + cc * 3) as f32).sin() * 0.4));
    let scale = t.constant(Matrix::from_fn(1, c, |_, cc| 0.5 + cc as f32 * 0.1));
    let shift = t.constant(Matrix::from_fn(1, c, |_, cc| cc as f32 * 0.05 - 0.1));
    let m = t.matmul(edge, w);
    let msg = if fused {
        t.affine_act(m, scale, shift, Act::LeakyRelu(0.2))
    } else {
        let scaled = t.mul_row(m, scale);
        let shifted = t.add_row(scaled, shift);
        t.leaky_relu(shifted, 0.2)
    };
    let agg = t.group_max(msg, k);
    let out = if residual { t.add(h, agg) } else { agg };
    let sq = t.square(out);
    let loss = t.sum(sq);
    t.backward(loss);
    vec![bits(t.value(edge)), bits(t.value(out)), bits(t.grad(h).unwrap())]
}

/// `k` edges per point (capped at `n`, as the ResGCN plan caps it), with
/// neighbors drawn from a hash; `skew` points every edge at the first
/// third of the rows so the rest have no neighbor in-edges.
fn graph(n: usize, k: usize, seed: u64, skew: bool) -> (Vec<usize>, Vec<usize>, usize) {
    let k = k.min(n);
    let center = (0..n).flat_map(|i| std::iter::repeat_n(i, k)).collect();
    let nbr = (0..n * k)
        .map(|e| {
            let h = (seed ^ (e as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 17;
            h as usize % if skew { n.div_ceil(3) } else { n }
        })
        .collect();
    (center, nbr, k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn affine_act_matches_the_unfused_chain(
        x0 in arb_matrix(37, 13),
        s0 in arb_matrix(1, 13),
        b0 in arb_matrix(1, 13),
        ai in 0usize..ACTS.len(),
    ) {
        let act = ACTS[ai];
        let reference = affine_graph(&x0, &s0, &b0, act, false);
        for (label, run) in on_all_legs(|| affine_graph(&x0, &s0, &b0, act, true)) {
            prop_assert_eq!(&run, &reference, "{} {:?}", label, act);
        }
    }

    #[test]
    fn edge_features_match_the_unfused_block(
        n in 1usize..40,
        k in 1usize..10,
        seed in 0u64..1_000_000,
        skew in 0u8..2,
        residual in 0u8..2,
    ) {
        let (center, nbr, k) = graph(n, k, seed, skew == 1);
        let h0 = Matrix::from_fn(n, 8, |r, c| (((r * 31 + c * 17) as u64 ^ seed) % 1000) as f32 / 250.0 - 2.0);
        let reference = edge_block(&h0, &center, &nbr, k, residual == 1, false);
        for (label, run) in on_all_legs(|| edge_block(&h0, &center, &nbr, k, residual == 1, true)) {
            prop_assert_eq!(&run, &reference, "{}", label);
        }
    }
}

/// ResGCN's edge convolution on one tape: the fused `edge_conv`, or the
/// unfused chain `edge_features → matmul → affine_act → group_max`. The
/// pooled value meets the loss through a constant with `±0` entries (so
/// the upstream gradient carries signed zeros); with `fill`, `h` also
/// feeds a later op, so its gradient slot already holds a contribution
/// when the block's backward adds into it. Returns the pooled value and
/// `h`'s gradient, NaN mapped to one pattern.
fn conv_block(
    h0: &Matrix,
    (center, nbr): (&Arc<GatherIndex>, &Arc<GatherIndex>),
    (w0, s0, b0): (&Matrix, &Matrix, &Matrix),
    (act, k): (Act, usize),
    fill: bool,
    fused: bool,
) -> Vec<Vec<u32>> {
    let mut t = Tape::new();
    let h = t.leaf(h0.clone());
    let (w, s, b) = (t.constant(w0.clone()), t.constant(s0.clone()), t.constant(b0.clone()));
    let (center, nbr) = (Arc::clone(center), Arc::clone(nbr));
    let agg = if fused {
        t.edge_conv(h, center, nbr, w, s, b, act, k)
    } else {
        let edge = t.edge_features(h, center, nbr);
        let prod = t.matmul(edge, w);
        let y = t.affine_act(prod, s, b, act);
        t.group_max(y, k)
    };
    let (g, co) = t.value(agg).shape();
    let weights = Matrix::from_fn(g, co, |r, c| [0.5, -0.0, 1.25, 0.0, -0.75][(r * 3 + c) % 5]);
    let weighted = t.mul_const(agg, weights);
    let mut loss = t.sum(weighted);
    if fill {
        let sq = t.square(h);
        let extra = t.sum(sq);
        loss = t.add(loss, extra);
    }
    t.backward(loss);
    let canon = |m: &Matrix| -> Vec<u32> {
        let nan = f32::NAN.to_bits();
        m.as_slice().iter().map(|v| if v.is_nan() { nan } else { v.to_bits() }).collect()
    };
    vec![canon(t.value(agg)), canon(t.grad(h).unwrap())]
}

/// `k` edges per point for all `n` points (not capped at `n`: with
/// `n < k` each list repeats its neighbors, as a padded k-NN list does).
fn padded_indices(n: usize, k: usize, seed: u64) -> (Arc<GatherIndex>, Arc<GatherIndex>) {
    let center = (0..n).flat_map(|i| std::iter::repeat_n(i, k)).collect();
    let nbr = (0..n * k)
        .map(|e| ((seed ^ (e as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 17) as usize % n)
        .collect();
    (Arc::new(GatherIndex::new(center, n)), Arc::new(GatherIndex::new(nbr, n)))
}

/// A value from a small grid of quarters with both zeros, so products
/// and sums are exact and edges tie often.
fn quarter(seed: u64, i: usize) -> f32 {
    let h = (seed ^ (i as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)) >> 29;
    match h % 9 {
        0 => -0.0,
        1 => 0.0,
        v => (v as f32 - 4.5) * 0.25,
    }
}

/// Checks one seeded edge-convolution case on every leg, into an empty
/// gradient slot and into an existing one; `scale` has negative entries.
fn check_conv(
    (n, k, c, co): (usize, usize, usize, usize),
    act: Act,
    seed: u64,
    non_finite: bool,
) -> Result<(), TestCaseError> {
    let (center, nbr) = padded_indices(n, k, seed);
    let mut h0 = Matrix::from_fn(n, c, |r, cc| quarter(seed, r * c + cc));
    let w0 = Matrix::from_fn(2 * c, co, |r, cc| quarter(seed + 1, r * co + cc));
    let s0 = Matrix::from_fn(1, co, |_, cc| quarter(seed + 2, cc) * 2.0 + 0.125);
    let mut b0 = Matrix::from_fn(1, co, |_, cc| quarter(seed + 3, cc));
    if non_finite {
        h0[(seed as usize % n, seed as usize % c)] = f32::NAN;
        b0[(0, 0)] = f32::NAN;
        b0[(0, co - 1)] = f32::NEG_INFINITY;
    }
    for fill in [false, true] {
        let graph = (&center, &nbr);
        let reference = conv_block(&h0, graph, (&w0, &s0, &b0), (act, k), fill, false);
        let fused = || conv_block(&h0, graph, (&w0, &s0, &b0), (act, k), fill, true);
        for (label, run) in on_all_legs(fused) {
            prop_assert_eq!(&run, &reference, "{} {:?} fill={}", label, act, fill);
        }
    }
    Ok(())
}

const CONV_K: [usize; 6] = [1, 2, 6, 7, 8, 16];
/// Edge widths `C`: none a multiple of 16, and `2C = 260 > 256`.
const CONV_C: [usize; 5] = [1, 3, 7, 13, 130];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn edge_conv_matches_the_unfused_chain(
        n in 1usize..20,
        ki in 0usize..CONV_K.len(),
        ci in 0usize..CONV_C.len(),
        co in 1usize..20,
        ai in 0usize..ACTS.len(),
        seed in 0u64..1_000_000,
    ) {
        check_conv((n, CONV_K[ki], CONV_C[ci], co), ACTS[ai], seed, false)?;
    }
}

/// NaN in `h`, an all-NaN pre-activation column and an all-`-inf` one:
/// the pooled value is `-inf` where no edge beats the initial maximum,
/// and the gradient stays equal to the unfused chain's. Release builds
/// only, where the tape does not assert finite node values.
#[test]
fn edge_conv_matches_the_unfused_chain_on_non_finite_inputs() {
    if cfg!(debug_assertions) {
        return;
    }
    for (shape, seed) in [((5, 8, 3, 4), 1), ((40, 7, 13, 17), 2), ((9, 16, 130, 6), 3)] {
        for act in ACTS {
            check_conv(shape, act, seed, true).unwrap();
        }
    }
}

/// ResGCN's edge convolution at its attack shape (`k = 8`, 32 channels),
/// large enough that every kernel splits across the 4-thread runtime.
#[test]
fn edge_conv_matches_the_unfused_chain_at_scale() {
    for act in ACTS {
        check_conv((600, 8, 32, 32), act, 7, false).unwrap();
    }
}

#[test]
#[should_panic(expected = "must not require a gradient")]
fn edge_conv_rejects_a_weight_that_requires_a_gradient() {
    let mut t = Tape::new();
    let (center, nbr) = padded_indices(3, 2, 1);
    let h = t.leaf(Matrix::ones(3, 2));
    let w = t.leaf(Matrix::ones(4, 2));
    let r = t.constant(Matrix::ones(1, 2));
    let _ = t.edge_conv(h, center, nbr, w, r, r, Act::Relu, 2);
}

#[test]
#[should_panic(expected = "leaky slope must be positive and finite")]
fn edge_conv_rejects_an_infinite_slope() {
    let mut t = Tape::new();
    let (center, nbr) = padded_indices(3, 2, 1);
    let h = t.leaf(Matrix::ones(3, 2));
    let w = t.constant(Matrix::ones(4, 2));
    let r = t.constant(Matrix::ones(1, 2));
    let _ = t.edge_conv(h, center, nbr, w, r, r, Act::LeakyRelu(f32::INFINITY), 2);
}

/// The ResGCN block at an attack-like shape, large enough that every
/// kernel splits across the 4-thread runtime.
#[test]
fn edge_block_matches_at_scale() {
    let (center, nbr, k) = graph(1200, 8, 42, false);
    let h0 = Matrix::from_fn(1200, 32, |r, c| ((r * 13 + c * 7) as f32 * 0.37).sin() * 1.5);
    for residual in [true, false] {
        let reference = edge_block(&h0, &center, &nbr, k, residual, false);
        for (label, run) in on_all_legs(|| edge_block(&h0, &center, &nbr, k, residual, true)) {
            assert_eq!(run, reference, "{label} residual={residual}");
        }
    }
}

#[test]
fn affine_act_gradients_match_numeric() {
    let x0 = Matrix::from_fn(4, 3, |r, c| (r as f32 - 1.5) * 0.6 + c as f32 * 0.35);
    let row = Matrix::from_rows(&[&[1.5, -0.5, 0.75]]).unwrap();
    let shift = Matrix::from_rows(&[&[0.1, -0.2, 0.05]]).unwrap();
    for act in ACTS {
        let report = check_gradient(&x0, |t, x| {
            let (s, b) = (t.constant(row.clone()), t.constant(shift.clone()));
            let y = t.affine_act(x, s, b, act);
            let sq = t.square(y);
            t.sum(sq)
        });
        assert!(report.max_abs_err < 2e-2, "{act:?} input: {report:?}");
        let report = check_gradient(&row, |t, s| {
            let (x, b) = (t.constant(x0.clone()), t.constant(shift.clone()));
            let y = t.affine_act(x, s, b, act);
            let sq = t.square(y);
            t.sum(sq)
        });
        assert!(report.max_abs_err < 5e-2, "{act:?} scale: {report:?}");
        let report = check_gradient(&shift, |t, b| {
            let (x, s) = (t.constant(x0.clone()), t.constant(row.clone()));
            let y = t.affine_act(x, s, b, act);
            let sq = t.square(y);
            t.sum(sq)
        });
        assert!(report.max_abs_err < 5e-2, "{act:?} shift: {report:?}");
    }
}

#[test]
fn edge_features_gradient_matches_numeric() {
    let (center, nbr, _) = graph(5, 3, 9, false);
    let ci = Arc::new(GatherIndex::new(center, 5));
    let ni = Arc::new(GatherIndex::new(nbr, 5));
    let h0 = Matrix::from_fn(5, 2, |r, c| (r as f32 * 0.4 - 1.0) + c as f32 * 0.3);
    let report = check_gradient(&h0, |t, h| {
        let e = t.edge_features(h, ci.clone(), ni.clone());
        let w = t.constant(Matrix::from_fn(4, 1, |r, _| r as f32 * 0.5 - 0.7));
        let y = t.matmul(e, w);
        let sq = t.square(y);
        t.sum(sq)
    });
    assert!(report.max_abs_err < 2e-2, "{report:?}");
}

#[test]
#[should_panic(expected = "leaky slope must be positive")]
fn affine_act_rejects_a_non_positive_slope() {
    let mut t = Tape::new();
    let x = t.leaf(Matrix::ones(2, 2));
    let r = t.constant(Matrix::ones(1, 2));
    let _ = t.affine_act(x, r, r, Act::LeakyRelu(-0.5));
}
