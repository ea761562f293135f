//! Benches for the attack's building blocks (tanh reparameterization,
//! smoothness penalty, CW hinges) plus the headline comparison this
//! target exists for: one COLPER step with a cached [`AttackPlan`]
//! versus one step that rebuilds all static geometry from scratch.
//!
//! The comparison is emitted machine-readably to
//! `results/BENCH_attack_step.json`. An allocation-counting mode
//! (thread-local gauge around the system allocator) measures heap
//! allocations per steady-state attack step and emits
//! `results/BENCH_alloc.json`; it asserts the committed zero-allocation
//! budget, so running the bench doubles as the CI gate. A kernel-dispatch
//! comparison times the scalar reference against the runtime-dispatched
//! AVX2+FMA path and emits `results/BENCH_simd.json`, asserting the
//! committed >= 2x matmul speedup on hosts that support it. Pass
//! `--quick` (CI does) to skip the component benches and run every
//! comparison at smoke-test scale — one quick invocation refreshes all
//! four BENCH files; `--alloc-only` runs just the allocation gauge and
//! `--simd-only` just the kernel-dispatch/tiled-GEMM comparison.

use colper_attack::{AttackConfig, AttackPlan, AttackSession, TanhReparam};
use colper_autodiff::Tape;
use colper_bench::write_json;
use colper_geom::knn_graph;
use colper_models::{
    CloudTensors, ModelInput, PointNet2, PointNet2Config, ResGcn, ResGcnConfig, SegmentationModel,
};
use colper_nn::Forward;
use colper_runtime::Runtime;
use colper_scene::{normalize, IndoorSceneConfig, SceneGenerator};
use colper_tensor::Matrix;
use criterion::{black_box, criterion_group, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Heap allocations a steady-state attack step (step >= 2 on a planned
/// cloud, single gradient sample) is allowed to make. The tape arenas,
/// interned constants, and preallocated scratch make this exactly zero;
/// raising it requires a deliberate decision, not a silent regression.
const STEADY_STATE_ALLOC_BUDGET: u64 = 0;

/// Thread-local gauge around the system allocator. Counting is scoped to
/// the bench thread and toggled around measured regions only, so worker
/// threads and harness bookkeeping never pollute a measurement; measured
/// regions therefore run on the sequential runtime.
mod alloc_gauge {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// System-allocator wrapper feeding the thread-local counters.
    pub struct CountingAllocator;

    thread_local! {
        static ENABLED: Cell<bool> = const { Cell::new(false) };
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
        static BYTES: Cell<u64> = const { Cell::new(0) };
    }

    fn record(size: usize) {
        ENABLED.with(|e| {
            if e.get() {
                ALLOCS.with(|a| a.set(a.get() + 1));
                BYTES.with(|b| b.set(b.get() + size as u64));
            }
        });
    }

    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            record(layout.size());
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            record(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            record(new_size);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }
    }

    /// Runs `f` with the gauge on; returns `(result, allocations,
    /// bytes requested)` for the current thread during the call.
    pub fn measure<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
        ALLOCS.with(|a| a.set(0));
        BYTES.with(|b| b.set(0));
        ENABLED.with(|e| e.set(true));
        let out = f();
        ENABLED.with(|e| e.set(false));
        (out, ALLOCS.with(Cell::get), BYTES.with(Cell::get))
    }
}

#[global_allocator]
static GLOBAL: alloc_gauge::CountingAllocator = alloc_gauge::CountingAllocator;

const POINTS: usize = 512;

fn tensors(points: usize) -> CloudTensors {
    let cloud = SceneGenerator::indoor(IndoorSceneConfig::with_points(points)).generate(2);
    CloudTensors::from_cloud(&normalize::pointnet_view(&cloud))
}

fn bench_components(c: &mut Criterion) {
    let t = tensors(POINTS);
    let mut group = c.benchmark_group("attack_components");

    let reparam = TanhReparam::color();
    group.bench_function("tanh_to_w_512", |b| {
        b.iter(|| reparam.to_w(black_box(&t.colors)));
    });

    let nbrs = knn_graph(&t.coords, 10);
    group.bench_function("smoothness_alpha10_512", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let colors = tape.leaf(t.colors.clone());
            let s = tape.smoothness(colors, &t.xyz, &nbrs, 10);
            tape.backward(s);
            tape.grad(colors).unwrap().sum()
        });
    });

    let labels = t.labels.clone();
    let mask = vec![true; POINTS];
    group.bench_function("cw_hinge_512x13", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let logits = tape.leaf(Matrix::from_fn(POINTS, 13, |r, c| ((r * 13 + c) % 7) as f32));
            let l = tape.cw_nontargeted(logits, &labels, &mask);
            tape.backward(l);
            tape.grad(logits).unwrap().sum()
        });
    });
    group.finish();
}

criterion_group!(component_benches, bench_components);

/// Hardware threads on this host. Recorded alongside every speedup
/// block so a reader can tell an algorithmic regression from a run on
/// a core-starved container (a 1-core host cannot show pool speedups).
fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

fn median(samples: &mut [u128]) -> u128 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Times `routine` `samples` times (after one untimed warm-up) and
/// returns the median nanoseconds per call.
fn time_median_ns(samples: usize, mut routine: impl FnMut()) -> u128 {
    routine();
    let mut ns: Vec<u128> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            routine();
            t0.elapsed().as_nanos()
        })
        .collect();
    median(&mut ns)
}

/// One attack step with the plan rebuilt from scratch vs. reused from a
/// cache — the amortization the GeometryPlan layer buys per iteration.
fn bench_planned_vs_unplanned(points: usize, samples: usize, model_scale: &str) {
    let t = tensors(points);
    let mut rng = StdRng::seed_from_u64(0);
    let model = match model_scale {
        "tiny" => PointNet2::new(PointNet2Config::tiny(13), &mut rng),
        _ => PointNet2::new(PointNet2Config::small(13), &mut rng),
    };
    let config = AttackConfig::non_targeted(1);

    // Warm up everything the two timed closures share — the runtime's
    // thread pool, lazy statics, allocator arenas, page cache — before
    // either routine is timed, so neither side pays first-use costs
    // inside its measured region. The plan is built here too; both
    // warm-up runs double as a bit-identity check between the paths.
    let plan = AttackPlan::build(&model, &t, &config);
    let warm_unplanned = {
        let mut rng = StdRng::seed_from_u64(3);
        AttackSession::new(config.clone()).run_with_rng(&model, &t, &mut rng)
    };
    let warm_planned = {
        let mut rng = StdRng::seed_from_u64(3);
        AttackSession::new(config.clone()).plan(&plan).run_with_rng(&model, &t, &mut rng)
    };
    assert_eq!(
        warm_unplanned.adversarial_colors, warm_planned.adversarial_colors,
        "planned attack must be bit-identical to the plan-free attack"
    );

    let unplanned_ns = time_median_ns(samples, || {
        let mut rng = StdRng::seed_from_u64(3);
        // The plan-free path builds a fresh AttackPlan internally every
        // call — this is what every attack step paid before the cache
        // existed.
        black_box(AttackSession::new(config.clone()).run_with_rng(&model, &t, &mut rng).l2_sq);
    });

    let planned_ns = time_median_ns(samples, || {
        let mut rng = StdRng::seed_from_u64(3);
        black_box(
            AttackSession::new(config.clone()).plan(&plan).run_with_rng(&model, &t, &mut rng).l2_sq,
        );
    });

    // Trace overhead: the same planned attack through the session API,
    // tracing off vs on (the enabled path records one StepRecord per
    // step and keeps every span/counter live). A longer attack than the
    // 1-step headline comparison, so the per-step hooks — not setup —
    // dominate what the ratio measures. Committed ceiling: 5%.
    const TRACE_STEPS: usize = 6;
    let mut trace_cfg = AttackConfig::non_targeted(TRACE_STEPS);
    trace_cfg.convergence_threshold = Some(0.0); // never stop early
    let trace_plan = AttackPlan::build(&model, &t, &trace_cfg);
    let session_run = |observer: &colper_obs::Observer| {
        AttackSession::new(trace_cfg.clone())
            .plan(&trace_plan)
            .observer(observer)
            .seed(3)
            .run(&model, std::slice::from_ref(&t))
    };
    colper_obs::set_enabled(false);
    let trace_off_ns = time_median_ns(samples, || {
        black_box(session_run(&colper_obs::Observer::disabled()).items[0].result.l2_sq);
    });
    colper_obs::set_enabled(true);
    let trace_on_ns = time_median_ns(samples, || {
        black_box(session_run(&colper_obs::Observer::enabled()).items[0].result.l2_sq);
    });
    colper_obs::set_enabled(false);
    colper_obs::reset();
    let trace_overhead = trace_on_ns as f64 / trace_off_ns.max(1) as f64 - 1.0;

    let speedup = unplanned_ns as f64 / planned_ns.max(1) as f64;
    println!(
        "bench attack_step/planned_vs_unplanned: unplanned {unplanned_ns} ns, \
         planned {planned_ns} ns ({speedup:.2}x), {points} points, {samples} samples"
    );
    println!(
        "bench attack_step/trace_overhead: off {trace_off_ns} ns, on {trace_on_ns} ns \
         ({:+.2}%, {TRACE_STEPS} steps)",
        trace_overhead * 100.0
    );
    let json = format!(
        "{{\n  \"benchmark\": \"attack_step\",\n  \"model\": \"pointnet2_{model_scale}\",\n  \
         \"points\": {points},\n  \"samples\": {samples},\n  \
         \"host_parallelism\": {host},\n  \
         \"unplanned_median_ns\": {unplanned_ns},\n  \"planned_median_ns\": {planned_ns},\n  \
         \"speedup\": {speedup:.4},\n  \
         \"trace\": {{\n    \"steps\": {TRACE_STEPS},\n    \
         \"off_median_ns\": {trace_off_ns},\n    \"on_median_ns\": {trace_on_ns},\n    \
         \"overhead_fraction\": {trace_overhead:.4}\n  }}\n}}\n",
        host = host_parallelism(),
    );
    write_json("BENCH_attack_step", &json);
}

/// A COLPER attack on the work-stealing pool vs. the sequential runtime.
///
/// Beyond timing, this is the bit-identity gate for the runtime: the two
/// executions must produce the same adversarial sample down to the last
/// bit, and the emitted `results/BENCH_parallel.json` keeps the metric
/// block separate from the timing block so CI can diff metric blocks
/// across `--threads` values (timings legitimately differ; results may
/// not).
fn bench_parallel(points: usize, steps: usize, samples: usize, threads: usize, model_scale: &str) {
    let t = tensors(points);
    let mut rng = StdRng::seed_from_u64(0);
    let model = match model_scale {
        "tiny" => PointNet2::new(PointNet2Config::tiny(13), &mut rng),
        _ => PointNet2::new(PointNet2Config::small(13), &mut rng),
    };
    let mut config = AttackConfig::non_targeted(steps);
    // Two EoT samples per step so the sample-level fan-out is exercised
    // on top of the tensor/geometry kernels.
    config.gradient_samples = 2;
    config.convergence_threshold = Some(0.0); // never stop early
    let plan = AttackPlan::build(&model, &t, &config);

    let run_with = |rt: &Runtime| {
        let mut rng = StdRng::seed_from_u64(3);
        AttackSession::new(config.clone())
            .runtime(rt)
            .plan(&plan)
            .run_with_rng(&model, &t, &mut rng)
    };

    let sequential = Runtime::sequential();
    let pool = Runtime::new(threads);
    let sequential_ns = time_median_ns(samples, || {
        black_box(run_with(&sequential).l2_sq);
    });
    let pool_ns = time_median_ns(samples, || {
        black_box(run_with(&pool).l2_sq);
    });

    let seq_result = run_with(&sequential);
    let pool_result = run_with(&pool);
    assert_eq!(
        seq_result.adversarial_colors, pool_result.adversarial_colors,
        "pool attack must be bit-identical to sequential"
    );
    assert_eq!(seq_result.predictions, pool_result.predictions);
    assert_eq!(seq_result.gain_history, pool_result.gain_history);

    // Order-sensitive digest of the whole gain trajectory, in raw bits.
    let gain_digest =
        seq_result.gain_history.iter().fold(0u64, |h, g| h.rotate_left(7) ^ u64::from(g.to_bits()));
    let host = host_parallelism();

    let speedup = sequential_ns as f64 / pool_ns.max(1) as f64;
    println!(
        "bench attack_step/parallel: sequential {sequential_ns} ns, \
         pool({threads}) {pool_ns} ns ({speedup:.2}x), {points} points, host parallelism {host}"
    );
    let json = format!(
        "{{\n  \"benchmark\": \"attack_parallel\",\n  \"model\": \"pointnet2_{model_scale}\",\n  \
         \"points\": {points},\n  \"steps\": {steps},\n  \"samples\": {samples},\n  \
         \"threads\": {threads},\n  \"host_parallelism\": {host},\n  \
         \"timing\": {{\n    \"sequential_median_ns\": {sequential_ns},\n    \
         \"pool_median_ns\": {pool_ns},\n    \"speedup\": {speedup:.4}\n  }},\n  \
         \"metrics\": {{\n    \"l2_sq_bits\": {l2_bits},\n    \
         \"success_metric_bits\": {sm_bits},\n    \"steps_run\": {steps_run},\n    \
         \"gain_digest\": {gain_digest}\n  }}\n}}\n",
        l2_bits = seq_result.l2_sq.to_bits(),
        sm_bits = seq_result.success_metric.to_bits(),
        steps_run = seq_result.steps_run,
    );
    write_json("BENCH_parallel", &json);
}

/// Attack lengths whose allocation difference is the steady-state cost.
const SHORT: usize = 3;
const LONG: usize = 8;

/// Heap allocations per steady-state step of a planned single-sample
/// attack on `model`, as `(allocs, bytes)` per step. Runs the attack for
/// `LONG` and `SHORT` steps on the sequential runtime and divides the
/// difference by `LONG - SHORT`: startup and teardown allocations
/// cancel, leaving exactly the per-step cost of steps `SHORT..LONG` —
/// all of them steady-state (step >= 2).
fn steady_allocs_per_step<M: SegmentationModel>(model: &M, t: &CloudTensors) -> (u64, f64) {
    let seq = Runtime::sequential();
    let attack_allocs = |steps: usize| -> (u64, u64) {
        let mut config = AttackConfig::non_targeted(steps);
        config.convergence_threshold = Some(0.0); // never stop early
        let plan = AttackPlan::build(model, t, &config);
        let session = AttackSession::new(config).runtime(&seq).plan(&plan);
        let mut rng = StdRng::seed_from_u64(3);
        let ((), allocs, bytes) = alloc_gauge::measure(|| {
            black_box(session.run_with_rng(model, t, &mut rng).l2_sq);
        });
        (allocs, bytes)
    };
    let (long_allocs, long_bytes) = attack_allocs(LONG);
    let (short_allocs, short_bytes) = attack_allocs(SHORT);
    let steps_diff = (LONG - SHORT) as u64;
    (
        long_allocs.saturating_sub(short_allocs) / steps_diff,
        long_bytes.saturating_sub(short_bytes) as f64 / steps_diff as f64,
    )
}

/// Counts heap allocations per steady-state attack step, plus a
/// fresh-vs-reused session replica showing where the savings come from.
///
/// Both measurements run on the sequential runtime so the thread-local
/// gauge sees every allocation the step makes:
///
/// 1. **Attack marginal** — the production path, per
///    [`steady_allocs_per_step`], for the PointNet++ victim and for a
///    tiny ResGCN (whose edge convolutions run the fused `edge_conv` op,
///    with its slab scratch from the thread-local pack pool).
/// 2. **Session replica** — one forward+backward pass per step through
///    the public tape API, once with a fresh session per step (the old
///    regime) and once with a single session recycled via `reset` (the
///    new regime).
///
/// Asserts [`STEADY_STATE_ALLOC_BUDGET`] on every attack marginal and
/// the reused-session steady state, so `cargo bench` is the CI gate.
// The budget is a tunable constant that happens to be 0 today; the `<=`
// comparisons are kept so raising it never silently inverts the gate.
#[allow(clippy::absurd_extreme_comparisons)]
fn bench_alloc(points: usize, model_scale: &str) {
    const REPLICA_STEPS: usize = 6;
    let t = tensors(points);
    let mut rng = StdRng::seed_from_u64(0);
    let model = match model_scale {
        "tiny" => PointNet2::new(PointNet2Config::tiny(13), &mut rng),
        _ => PointNet2::new(PointNet2Config::small(13), &mut rng),
    };
    let resgcn = ResGcn::new(ResGcnConfig::tiny(13), &mut StdRng::seed_from_u64(1));

    // Warm up before measuring: the first attack in a process pays a
    // one-time burst of lazy initialization (counter registry, SIMD
    // dispatch, thread-local pools). Measuring LONG first would book
    // that burst against the extra steps and report phantom per-step
    // allocations.
    let _ = steady_allocs_per_step(&model, &t);
    let (allocs_per_step, bytes_per_step) = steady_allocs_per_step(&model, &t);
    let _ = steady_allocs_per_step(&resgcn, &t);
    let (resgcn_allocs_per_step, resgcn_bytes_per_step) = steady_allocs_per_step(&resgcn, &t);
    let steps_diff = LONG - SHORT;
    let seq = Runtime::sequential();

    // Replica: the same planned forward+backward each step, comparing a
    // fresh session per step against one session recycled with `reset`.
    let geometry = model.plan(&t.coords);
    let step_pass = |session: &mut Forward<'_>, step: usize| {
        let xyz = session.tape.constant_from(&t.xyz);
        let color = session.tape.leaf_from(&t.colors);
        let loc = session.tape.constant_from(&t.loc01);
        let input = ModelInput { coords: &t.coords, xyz, color, loc, plan: Some(&geometry) };
        let mut rng = StdRng::seed_from_u64(700 + step as u64);
        let logits = model.forward(session, &input, &mut rng);
        let loss = session.tape.softmax_cross_entropy(logits, &t.labels);
        session.tape.backward(loss);
        black_box(session.tape.value(loss)[(0, 0)]);
    };
    let fresh: Vec<(u64, u64)> = seq.install(|| {
        (0..REPLICA_STEPS)
            .map(|step| {
                let ((), a, b) = alloc_gauge::measure(|| {
                    let mut session = Forward::new(model.params(), false);
                    step_pass(&mut session, step);
                });
                (a, b)
            })
            .collect()
    });
    let reused: Vec<(u64, u64)> = seq.install(|| {
        let mut session = Forward::new(model.params(), false);
        (0..REPLICA_STEPS)
            .map(|step| {
                let ((), a, b) = alloc_gauge::measure(|| {
                    session.reset();
                    step_pass(&mut session, step);
                });
                (a, b)
            })
            .collect()
    });
    let (fresh_steady_allocs, fresh_steady_bytes) = fresh[REPLICA_STEPS - 1];
    let (reused_steady_allocs, reused_steady_bytes) = reused[REPLICA_STEPS - 1];

    println!(
        "bench attack_step/alloc: attack steady state {allocs_per_step} allocs/step \
         ({bytes_per_step:.1} bytes/step); resgcn_tiny {resgcn_allocs_per_step} allocs/step; \
         replica fresh {fresh_steady_allocs} allocs/pass \
         vs reused {reused_steady_allocs} allocs/pass, {points} points"
    );
    assert!(
        allocs_per_step <= STEADY_STATE_ALLOC_BUDGET,
        "steady-state attack step allocates ({allocs_per_step} allocs/step > budget \
         {STEADY_STATE_ALLOC_BUDGET}); the tape arena or scratch reuse regressed"
    );
    assert!(
        resgcn_allocs_per_step <= STEADY_STATE_ALLOC_BUDGET,
        "steady-state ResGCN attack step allocates ({resgcn_allocs_per_step} allocs/step > \
         budget {STEADY_STATE_ALLOC_BUDGET}); the tape arena or scratch reuse regressed"
    );
    assert!(
        reused_steady_allocs <= STEADY_STATE_ALLOC_BUDGET,
        "reused session still allocates ({reused_steady_allocs} allocs/pass > budget \
         {STEADY_STATE_ALLOC_BUDGET}); the tape arena or scratch reuse regressed"
    );

    let json = format!(
        "{{\n  \"benchmark\": \"attack_alloc\",\n  \"model\": \"pointnet2_{model_scale}\",\n  \
         \"points\": {points},\n  \"budget_allocs_per_step\": {STEADY_STATE_ALLOC_BUDGET},\n  \
         \"attack_steady_state\": {{\n    \"steps_measured\": {steps_diff},\n    \
         \"allocs_per_step\": {allocs_per_step},\n    \
         \"bytes_per_step\": {bytes_per_step:.1}\n  }},\n  \
         \"resgcn_steady_state\": {{\n    \"model\": \"resgcn_tiny\",\n    \
         \"steps_measured\": {steps_diff},\n    \
         \"allocs_per_step\": {resgcn_allocs_per_step},\n    \
         \"bytes_per_step\": {resgcn_bytes_per_step:.1}\n  }},\n  \
         \"session_replica\": {{\n    \"fresh_first_allocs\": {},\n    \
         \"fresh_steady_allocs\": {fresh_steady_allocs},\n    \
         \"fresh_steady_bytes\": {fresh_steady_bytes},\n    \
         \"reused_first_allocs\": {},\n    \
         \"reused_steady_allocs\": {reused_steady_allocs},\n    \
         \"reused_steady_bytes\": {reused_steady_bytes}\n  }}\n}}\n",
        fresh[0].0, reused[0].0,
    );
    write_json("BENCH_alloc", &json);
}

/// Scalar-reference vs dispatched-SIMD throughput on the hot kernels, at
/// the matrix shapes the network layers actually run (N points x 64-wide
/// feature blocks). Emits `results/BENCH_simd.json` with the detected
/// feature set, per-shape medians and GFLOP/s; asserts the committed 2x
/// matmul speedup floor on hosts where the AVX2+FMA path is active, and
/// verifies outputs are bit-identical across paths while it is at it.
///
/// A further block, `tiled`, times the register-blocked micro-tiles
/// against the row kernel at large shapes (single-threaded and on a
/// `--threads`-sized pool) and asserts the committed 2x single-threaded
/// floor. A last block, `model_shapes`, times the victims' own matmuls
/// under each GEMM mode single-threaded and under `Auto` on the pool,
/// with no floor. Every timed variant is bit-checked against the pinned
/// scalar reference.
fn bench_simd(samples: usize, threads: usize) {
    use colper_tensor::{gemm_mode, kernels, set_gemm_mode, GemmMode};

    let shapes: [(usize, usize, usize); 3] = [(64, 64, 64), (256, 64, 64), (512, 128, 64)];
    let seq = Runtime::sequential();
    let was = kernels::simd_active();
    let was_mode = gemm_mode();
    // The row block times the row kernel regardless of routing, so its
    // numbers stay comparable with the committed history.
    set_gemm_mode(GemmMode::Row);
    let mut rows = Vec::new();
    let mut headline_speedup = 0.0f64;

    for &(m, k, n) in &shapes {
        let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c) as f32 * 0.17).sin());
        let b = Matrix::from_fn(k, n, |r, c| ((r * 17 + c) as f32 * 0.23).cos());
        let mut out = Matrix::zeros(m, n);

        let mut run_path = |simd: bool| -> (u128, Vec<u32>) {
            kernels::set_simd_enabled(simd);
            let ns = seq.install(|| {
                time_median_ns(samples, || {
                    a.matmul_into(&b, &mut out).expect("shape");
                    black_box(out.as_slice().first().copied());
                })
            });
            (ns, out.as_slice().iter().map(|v| v.to_bits()).collect())
        };
        let (scalar_ns, scalar_bits) = run_path(false);
        let (simd_ns, simd_bits) = if kernels::simd_supported() {
            run_path(true)
        } else {
            (scalar_ns, scalar_bits.clone())
        };
        assert_eq!(scalar_bits, simd_bits, "matmul paths diverge at {m}x{k}x{n}");

        let flops = 2.0 * (m * k * n) as f64;
        let speedup = scalar_ns as f64 / simd_ns.max(1) as f64;
        headline_speedup = headline_speedup.max(speedup);
        let gflops = flops / simd_ns.max(1) as f64;
        println!(
            "bench attack_step/simd: matmul {m}x{k}x{n} scalar {scalar_ns} ns, \
             dispatched {simd_ns} ns ({speedup:.2}x, {gflops:.2} GFLOP/s)"
        );
        rows.push(format!(
            "    {{\n      \"m\": {m}, \"k\": {k}, \"n\": {n},\n      \
             \"scalar_median_ns\": {scalar_ns},\n      \
             \"dispatched_median_ns\": {simd_ns},\n      \
             \"speedup\": {speedup:.4},\n      \"dispatched_gflops\": {gflops:.4}\n    }}"
        ));
    }
    kernels::set_simd_enabled(was);

    if kernels::simd_supported() {
        assert!(
            headline_speedup >= 2.0,
            "AVX2+FMA matmul path is only {headline_speedup:.2}x over the scalar \
             reference (committed floor: 2x)"
        );
    }

    // Tiled GEMM vs the row kernel, at shapes where the row kernel's
    // B-matrix traffic falls out of cache. The multi-threaded run records
    // the tile-parallel scaling on this host (which may be a single
    // hardware thread — scaling is recorded, never asserted).
    let tiled_shapes: [(usize, usize, usize); 2] = [(256, 256, 256), (512, 512, 512)];
    let pool = Runtime::new(threads);
    let mut tiled_rows = Vec::new();
    let mut best_tiled_speedup = 0.0f64;
    for &(m, k, n) in &tiled_shapes {
        let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c) as f32 * 0.17).sin());
        let b = Matrix::from_fn(k, n, |r, c| ((r * 17 + c) as f32 * 0.23).cos());
        let mut out = Matrix::zeros(m, n);

        let mut run_leg = |mode: GemmMode, simd: bool, rt: &Runtime| -> (u128, Vec<u32>) {
            kernels::set_simd_enabled(simd);
            set_gemm_mode(mode);
            let ns = rt.install(|| {
                time_median_ns(samples, || {
                    a.matmul_into(&b, &mut out).expect("shape");
                    black_box(out.as_slice().first().copied());
                })
            });
            (ns, out.as_slice().iter().map(|v| v.to_bits()).collect())
        };
        let (row_ns, row_bits) = run_leg(GemmMode::Row, true, &seq);
        let (tiled_ns, tiled_bits) = run_leg(GemmMode::Tiled, true, &seq);
        let (tiled_mt_ns, tiled_mt_bits) = run_leg(GemmMode::Tiled, true, &pool);
        // The pinned scalar reference through the tiled driver: one call
        // is enough for the bit check.
        kernels::set_simd_enabled(false);
        set_gemm_mode(GemmMode::Tiled);
        a.matmul_into(&b, &mut out).expect("shape");
        let scalar_bits: Vec<u32> = out.as_slice().iter().map(|v| v.to_bits()).collect();
        kernels::set_simd_enabled(was);
        assert_eq!(row_bits, tiled_bits, "tiled GEMM diverges from row kernel at {m}x{k}x{n}");
        assert_eq!(tiled_bits, tiled_mt_bits, "tiled GEMM thread-count variance at {m}x{k}x{n}");
        assert_eq!(tiled_bits, scalar_bits, "tiled GEMM diverges from scalar at {m}x{k}x{n}");

        let flops = 2.0 * (m * k * n) as f64;
        let speedup = row_ns as f64 / tiled_ns.max(1) as f64;
        best_tiled_speedup = best_tiled_speedup.max(speedup);
        let row_gflops = flops / row_ns.max(1) as f64;
        let tiled_gflops = flops / tiled_ns.max(1) as f64;
        let tiled_mt_gflops = flops / tiled_mt_ns.max(1) as f64;
        println!(
            "bench attack_step/tiled: matmul {m}x{k}x{n} row {row_ns} ns ({row_gflops:.2} GF/s), \
             tiled {tiled_ns} ns ({tiled_gflops:.2} GF/s, {speedup:.2}x), \
             tiled x{threads} threads {tiled_mt_ns} ns ({tiled_mt_gflops:.2} GF/s)"
        );
        tiled_rows.push(format!(
            "      {{\n        \"m\": {m}, \"k\": {k}, \"n\": {n},\n        \
             \"row_median_ns\": {row_ns},\n        \"tiled_median_ns\": {tiled_ns},\n        \
             \"tiled_mt_median_ns\": {tiled_mt_ns},\n        \
             \"speedup\": {speedup:.4},\n        \"row_gflops\": {row_gflops:.4},\n        \
             \"tiled_gflops\": {tiled_gflops:.4},\n        \
             \"tiled_mt_gflops\": {tiled_mt_gflops:.4}\n      }}"
        ));
    }
    if kernels::simd_supported() {
        assert!(
            best_tiled_speedup >= 2.0,
            "tiled GEMM is only {best_tiled_speedup:.2}x over the row kernel \
             (committed floor: 2x single-threaded)"
        );
    }

    // The victims' own matmuls at 4096 points (the shapes perfbench's
    // `tensor.gemm_gflops.*` probes) and ResGCN's backward input-gradient
    // product, single-threaded under each GEMM mode on the active leg,
    // then under `Auto` on the pool, each bit-checked against the scalar
    // reference. `matmul_nt` does not route by mode, so its readings time
    // one kernel. No floor.
    let model_shapes: [(&str, usize, usize, usize); 4] = [
        ("matmul", 4096, 57, 48),
        ("matmul", 32768, 64, 32),
        ("matmul", 32768, 32, 32),
        ("matmul_nt", 32768, 32, 64),
    ];
    let mut model_rows = Vec::new();
    for &(op, m, k, n) in &model_shapes {
        let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c) as f32 * 0.17).sin());
        let b = if op == "matmul" {
            Matrix::from_fn(k, n, |r, c| ((r * 17 + c) as f32 * 0.23).cos())
        } else {
            Matrix::from_fn(n, k, |r, c| ((r * 17 + c) as f32 * 0.23).cos())
        };
        let mut out = Matrix::zeros(m, n);
        let product = |out: &mut Matrix| {
            if op == "matmul" {
                a.matmul_into(&b, out).expect("shape");
            } else {
                a.matmul_nt_into(&b, out).expect("shape");
            }
        };
        kernels::set_simd_enabled(false);
        set_gemm_mode(GemmMode::Row);
        product(&mut out);
        let scalar_bits: Vec<u32> = out.as_slice().iter().map(|v| v.to_bits()).collect();
        kernels::set_simd_enabled(was);
        let flops = 2.0 * (m * k * n) as f64;
        let mut gflops = Vec::new();
        for (mode, rt) in [
            (GemmMode::Row, &seq),
            (GemmMode::Auto, &seq),
            (GemmMode::Tiled, &seq),
            (GemmMode::Auto, &pool),
        ] {
            set_gemm_mode(mode);
            let ns = rt.install(|| {
                time_median_ns(samples, || {
                    product(&mut out);
                    black_box(out.as_slice().first().copied());
                })
            });
            let bits: Vec<u32> = out.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, scalar_bits, "{op} {mode:?} diverges from scalar at {m}x{k}x{n}");
            gflops.push(flops / ns.max(1) as f64);
        }
        let (row, auto, tiled, auto_mt) = (gflops[0], gflops[1], gflops[2], gflops[3]);
        println!(
            "bench attack_step/model_shapes: {op} {m}x{k}x{n} row {row:.2} GF/s, \
             auto {auto:.2} GF/s, tiled {tiled:.2} GF/s, \
             auto x{threads} threads {auto_mt:.2} GF/s"
        );
        model_rows.push(format!(
            "      {{\n        \"op\": \"{op}\", \"m\": {m}, \"k\": {k}, \"n\": {n},\n        \
             \"row_gflops\": {row:.4},\n        \"auto_gflops\": {auto:.4},\n        \
             \"tiled_gflops\": {tiled:.4},\n        \"auto_mt_gflops\": {auto_mt:.4}\n      }}"
        ));
    }

    set_gemm_mode(was_mode);

    let json = format!(
        "{{\n  \"benchmark\": \"simd_kernels\",\n  \"features\": \"{}\",\n  \
         \"simd_supported\": {},\n  \"samples\": {samples},\n  \
         \"host_parallelism\": {host},\n  \
         \"best_matmul_speedup\": {headline_speedup:.4},\n  \"matmul\": [\n{}\n  ],\n  \
         \"tiled\": {{\n    \"isa\": \"{}\",\n    \"threads\": {threads},\n    \
         \"best_tiled_speedup\": {best_tiled_speedup:.4},\n    \"shapes\": [\n{}\n    ]\n  }},\n  \
         \"model_shapes\": {{\n    \"isa\": \"{}\",\n    \"threads\": {threads},\n    \
         \"rows\": [\n{}\n    ]\n  }}\n}}\n",
        kernels::features(),
        kernels::simd_supported(),
        rows.join(",\n"),
        kernels::gemm_isa().name(),
        tiled_rows.join(",\n"),
        kernels::gemm_isa().name(),
        model_rows.join(",\n"),
        host = host_parallelism(),
    );
    write_json("BENCH_simd", &json);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let alloc_only = args.iter().any(|a| a == "--alloc-only");
    let simd_only = args.iter().any(|a| a == "--simd-only");
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(4);
    if alloc_only {
        bench_alloc(if quick { 128 } else { POINTS }, if quick { "tiny" } else { "small" });
    } else if simd_only {
        bench_simd(if quick { 9 } else { 25 }, threads);
    } else if quick {
        // 384 points (not 128): large enough that the cached geometry
        // dominates measurement noise, so the planned/unplanned speedup
        // is meaningful even at smoke-test scale.
        bench_planned_vs_unplanned(384, 7, "tiny");
        bench_parallel(128, 4, 3, threads, "tiny");
        bench_alloc(128, "tiny");
        bench_simd(9, threads);
    } else {
        component_benches();
        bench_planned_vs_unplanned(POINTS, 11, "small");
        bench_parallel(POINTS, 4, 3, threads, "small");
        bench_alloc(POINTS, "small");
        bench_simd(25, threads);
    }
}
