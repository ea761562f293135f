//! Observability for the COLPER reproduction: hierarchical timing spans,
//! monotonic counters and gauges, and per-attack-step telemetry — all
//! zero-cost when disabled.
//!
//! The stack underneath (work-stealing runtime, zero-alloc tape reuse,
//! SIMD kernel dispatch) was built for throughput, which makes it opaque:
//! a regression in BufferPool reuse or a dispatch falling back to the
//! scalar path changes wall-clock without changing results. This crate
//! gives every hot layer a cheap way to report what it is doing:
//!
//! * **Spans** ([`SpanStat`]) — wall-clock aggregates of named phases
//!   (`attack.step`, `forward.pointnet2.sa_level`, `tape.backward`).
//!   Hierarchy is encoded in dotted names; the inventory lives in
//!   [`spans`].
//! * **Counters / gauges** ([`Counter`], [`Gauge`]) — monotonic event
//!   counts (kernel dispatch path, BufferPool hits, Runtime steals,
//!   per-worker task counts) and level samples (tape nodes live). The
//!   inventory lives in [`counters`] and [`gauges`].
//! * **Step telemetry** ([`StepRecord`]) — one record per attack
//!   iteration: the gain's λ1/λ2 loss-term split, the CW hinge value,
//!   the gradient ∞-norm, flipped-point count and plateau state.
//!   Collected through an [`Observer`] handle into pre-sized buffers.
//!
//! # The overhead contract
//!
//! Recording is off unless `COLPER_TRACE` is set (or [`set_enabled`] is
//! called, e.g. by the CLI's `--trace`). Every instrumentation hook
//! checks [`enabled`] first — one relaxed atomic load and a predictable
//! branch — so the disabled path performs **no allocation, no syscall,
//! no clock read**, and the steady-state 0-alloc budget of the attack
//! loop holds. The enabled path allocates only at setup: step buffers
//! are pre-sized to the step budget ([`Observer::begin_attack`]) and
//! span/counter storage is `static`.
//!
//! Instrumentation must never perturb results: hooks only *read* program
//! state, never touch any RNG, and never reorder floating-point work —
//! attack trajectories are bit-identical with tracing on and off (see
//! `tests/obs_equivalence.rs` at the workspace root).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod record;
mod sink;

pub use record::{AttackTrace, Observer, StepRecord, StepSink, StepTraceBuffer};
pub use sink::{jf, TraceReport};

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

fn detect() -> u8 {
    match std::env::var("COLPER_TRACE") {
        Ok(v) if !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("off") => STATE_ON,
        _ => STATE_OFF,
    }
}

/// Whether recording is active. The first call probes `COLPER_TRACE`;
/// afterwards this is a single relaxed atomic load — the only cost every
/// instrumentation hook pays on the disabled path.
#[inline]
pub fn enabled() -> bool {
    let s = STATE.load(Ordering::Relaxed);
    if s != STATE_UNINIT {
        return s == STATE_ON;
    }
    let d = detect();
    STATE.store(d, Ordering::Relaxed);
    d == STATE_ON
}

/// Turns recording on or off, overriding the `COLPER_TRACE` probe.
/// Flipping this changes what gets *recorded*, never what gets
/// *computed* — results are bit-identical either way.
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Wall-clock aggregate of one named phase: how often it ran and for how
/// long. Statics in [`spans`] are the span taxonomy; enter one with
/// [`SpanStat::enter`] or the [`span!`] macro.
#[derive(Debug)]
pub struct SpanStat {
    name: &'static str,
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl SpanStat {
    /// A zeroed span aggregate (used by the [`spans`] inventory).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// The span's dotted name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Starts timing this span; the elapsed time is recorded when the
    /// returned guard drops. When recording is disabled the guard is
    /// inert and no clock is read.
    #[inline]
    pub fn enter(&'static self) -> SpanGuard {
        SpanGuard { inner: enabled().then(|| (self, Instant::now())) }
    }

    fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// `(count, total_ns, max_ns)` recorded so far.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.count.load(Ordering::Relaxed),
            self.total_ns.load(Ordering::Relaxed),
            self.max_ns.load(Ordering::Relaxed),
        )
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

/// RAII guard returned by [`SpanStat::enter`]; records the elapsed time
/// on drop (nothing when recording was disabled at entry).
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<(&'static SpanStat, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((stat, start)) = self.inner.take() {
            stat.record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Enters a span from the [`spans`] inventory by identifier:
/// `let _s = colper_obs::span!(ATTACK_STEP);`.
#[macro_export]
macro_rules! span {
    ($name:ident) => {
        $crate::spans::$name.enter()
    };
}

/// A monotonic event counter. Incrementing is a no-op while recording is
/// disabled, so hot paths can call [`Counter::incr`] unconditionally.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter (used by the [`counters`] inventory).
    pub const fn new(name: &'static str) -> Self {
        Self { name, value: AtomicU64::new(0) }
    }

    /// The counter's dotted name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` when recording is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one when recording is enabled.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The count recorded so far.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A sampled level: remembers the last and the maximum recorded value
/// (e.g. live tape nodes at backward time).
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    last: AtomicU64,
    max: AtomicU64,
    samples: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge (used by the [`gauges`] inventory).
    pub const fn new(name: &'static str) -> Self {
        Self { name, last: AtomicU64::new(0), max: AtomicU64::new(0), samples: AtomicU64::new(0) }
    }

    /// The gauge's dotted name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records a sample when recording is enabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.last.store(v, Ordering::Relaxed);
            self.max.fetch_max(v, Ordering::Relaxed);
            self.samples.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `(last, max, samples)` recorded so far.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.last.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
            self.samples.load(Ordering::Relaxed),
        )
    }

    fn reset(&self) {
        self.last.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        self.samples.store(0, Ordering::Relaxed);
    }
}

/// The span taxonomy. Dotted names encode the hierarchy:
/// `attack.step` contains `attack.step.build` (graph record + forward +
/// backward) and `attack.step.adam`; the model spans nest inside the
/// build phase; `batch.cloud` wraps one cloud's whole attack.
pub mod spans {
    use super::SpanStat;

    /// One full attack iteration (forward, backward, metric, Adam).
    pub static ATTACK_STEP: SpanStat = SpanStat::new("attack.step");
    /// Graph recording + forward + backward of one gradient sample.
    pub static ATTACK_BUILD: SpanStat = SpanStat::new("attack.step.build");
    /// The Adam parameter update of one iteration.
    pub static ATTACK_ADAM: SpanStat = SpanStat::new("attack.step.adam");
    /// One cloud's complete attack inside a batch run.
    pub static BATCH_CLOUD: SpanStat = SpanStat::new("batch.cloud");
    /// One PointNet++ forward pass.
    pub static FORWARD_POINTNET2: SpanStat = SpanStat::new("forward.pointnet2");
    /// One PointNet++ set-abstraction level.
    pub static FORWARD_POINTNET2_SA: SpanStat = SpanStat::new("forward.pointnet2.sa_level");
    /// One PointNet++ feature-propagation level.
    pub static FORWARD_POINTNET2_FP: SpanStat = SpanStat::new("forward.pointnet2.fp_level");
    /// One RandLA-Net forward pass.
    pub static FORWARD_RANDLA: SpanStat = SpanStat::new("forward.randla");
    /// One RandLA-Net encoder stage (aggregate + downsample).
    pub static FORWARD_RANDLA_STAGE: SpanStat = SpanStat::new("forward.randla.stage");
    /// One RandLA-Net decoder level (upsample + skip).
    pub static FORWARD_RANDLA_DECODER: SpanStat = SpanStat::new("forward.randla.decoder");
    /// One ResGCN forward pass.
    pub static FORWARD_RESGCN: SpanStat = SpanStat::new("forward.resgcn");
    /// One ResGCN edge-conv residual block.
    pub static FORWARD_RESGCN_BLOCK: SpanStat = SpanStat::new("forward.resgcn.block");
    /// One reverse pass over the tape.
    pub static TAPE_BACKWARD: SpanStat = SpanStat::new("tape.backward");

    /// Every span in the taxonomy, for snapshotting and reset.
    pub fn all() -> [&'static SpanStat; 13] {
        [
            &ATTACK_STEP,
            &ATTACK_BUILD,
            &ATTACK_ADAM,
            &BATCH_CLOUD,
            &FORWARD_POINTNET2,
            &FORWARD_POINTNET2_SA,
            &FORWARD_POINTNET2_FP,
            &FORWARD_RANDLA,
            &FORWARD_RANDLA_STAGE,
            &FORWARD_RANDLA_DECODER,
            &FORWARD_RESGCN,
            &FORWARD_RESGCN_BLOCK,
            &TAPE_BACKWARD,
        ]
    }
}

/// The counter inventory.
pub mod counters {
    use super::Counter;

    /// Kernel calls dispatched to the AVX2+FMA path.
    pub static KERNEL_DISPATCH_SIMD: Counter = Counter::new("kernel.dispatch.simd");
    /// Kernel calls dispatched to the pinned-order scalar reference.
    pub static KERNEL_DISPATCH_SCALAR: Counter = Counter::new("kernel.dispatch.scalar");
    /// BufferPool requests served from a shelf.
    pub static POOL_HIT: Counter = Counter::new("tensor.pool.hit");
    /// BufferPool requests that had to allocate.
    pub static POOL_MISS: Counter = Counter::new("tensor.pool.miss");
    /// Tasks a worker popped from another deque (or the submitting
    /// thread stole while waiting) — the work-stealing traffic.
    pub static RUNTIME_STEALS: Counter = Counter::new("runtime.steals");
    /// Tasks executed by the submitting thread itself.
    pub static RUNTIME_SUBMITTER_TASKS: Counter = Counter::new("runtime.submitter_tasks");
    /// Graph resets of a reused forward session.
    pub static TAPE_RESETS: Counter = Counter::new("tape.resets");
    /// Reverse passes run.
    pub static TAPE_BACKWARDS: Counter = Counter::new("tape.backwards");
    /// Clouds scheduled by the batch attack loop.
    pub static BATCH_CLOUDS: Counter = Counter::new("attack.batch.clouds");
    /// Plateau noise restarts injected by the attack loop.
    pub static ATTACK_RESTARTS: Counter = Counter::new("attack.restarts");
    /// Seated attacks that started on a donated warm tape.
    pub static SEAT_WARM: Counter = Counter::new("attack.seat.warm");
    /// Micro-tile kernel invocations scheduled by the tiled GEMM driver.
    pub static GEMM_TILE_TASKS: Counter = Counter::new("gemm.tile.tasks");
    /// GEMM packing-panel requests served from a pack pool shelf.
    pub static GEMM_PACK_HIT: Counter = Counter::new("gemm.pack.hit");
    /// GEMM packing-panel requests that had to allocate.
    pub static GEMM_PACK_MISS: Counter = Counter::new("gemm.pack.miss");
    /// Attack optimizations executed by the robustness matrix runner.
    pub static MATRIX_ATTACK_RUNS: Counter = Counter::new("matrix.attack_runs");
    /// Matrix cells (attack × defense × model) evaluated.
    pub static MATRIX_CELLS: Counter = Counter::new("matrix.cells");

    /// Every counter in the inventory, for snapshotting and reset.
    pub fn all() -> [&'static Counter; 16] {
        [
            &KERNEL_DISPATCH_SIMD,
            &KERNEL_DISPATCH_SCALAR,
            &POOL_HIT,
            &POOL_MISS,
            &RUNTIME_STEALS,
            &RUNTIME_SUBMITTER_TASKS,
            &TAPE_RESETS,
            &TAPE_BACKWARDS,
            &BATCH_CLOUDS,
            &ATTACK_RESTARTS,
            &SEAT_WARM,
            &GEMM_TILE_TASKS,
            &GEMM_PACK_HIT,
            &GEMM_PACK_MISS,
            &MATRIX_ATTACK_RUNS,
            &MATRIX_CELLS,
        ]
    }
}

/// The gauge inventory.
pub mod gauges {
    use super::Gauge;

    /// Live tape nodes observed at backward time.
    pub static TAPE_NODES: Gauge = Gauge::new("tape.nodes_live");

    /// Every gauge in the inventory, for snapshotting and reset.
    pub fn all() -> [&'static Gauge; 1] {
        [&TAPE_NODES]
    }
}

/// Upper bound on distinguishable worker slots in the per-worker task
/// table; workers past the last slot fold into it.
pub const MAX_WORKER_SLOTS: usize = 32;

static WORKER_TASKS: [AtomicU64; MAX_WORKER_SLOTS] =
    [const { AtomicU64::new(0) }; MAX_WORKER_SLOTS];

/// Records one task executed by pool worker `worker` (no-op while
/// recording is disabled).
#[inline]
pub fn worker_task(worker: usize) {
    if enabled() {
        WORKER_TASKS[worker.min(MAX_WORKER_SLOTS - 1)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Per-worker task counts, `(worker_index, tasks)` for workers that ran
/// at least one task.
pub fn worker_task_counts() -> Vec<(usize, u64)> {
    WORKER_TASKS
        .iter()
        .enumerate()
        .filter_map(|(i, c)| {
            let v = c.load(Ordering::Relaxed);
            (v > 0).then_some((i, v))
        })
        .collect()
}

/// Zeroes every span, counter, gauge and per-worker slot. Used by tests
/// and by the CLI to scope a trace to one command.
pub fn reset() {
    for s in spans::all() {
        s.reset();
    }
    for c in counters::all() {
        c.reset();
    }
    for g in gauges::all() {
        g.reset();
    }
    for w in &WORKER_TASKS {
        w.store(0, Ordering::Relaxed);
    }
}

// The enable flag and the aggregates are process-global; unit tests
// that flip or read them serialize on this lock.
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    use super::TEST_LOCK as LOCK;

    #[test]
    fn disabled_paths_record_nothing() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        reset();
        {
            let _s = span!(ATTACK_STEP);
            counters::POOL_HIT.incr();
            gauges::TAPE_NODES.record(42);
            worker_task(0);
        }
        assert_eq!(spans::ATTACK_STEP.snapshot(), (0, 0, 0));
        assert_eq!(counters::POOL_HIT.get(), 0);
        assert_eq!(gauges::TAPE_NODES.snapshot(), (0, 0, 0));
        assert!(worker_task_counts().is_empty());
    }

    #[test]
    fn enabled_paths_aggregate() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        reset();
        for _ in 0..3 {
            let _s = span!(TAPE_BACKWARD);
        }
        counters::RUNTIME_STEALS.add(5);
        gauges::TAPE_NODES.record(7);
        gauges::TAPE_NODES.record(3);
        worker_task(1);
        worker_task(1);
        worker_task(MAX_WORKER_SLOTS + 10); // clamps into the last slot

        let (count, total, max) = spans::TAPE_BACKWARD.snapshot();
        assert_eq!(count, 3);
        assert!(total >= max);
        assert_eq!(counters::RUNTIME_STEALS.get(), 5);
        assert_eq!(gauges::TAPE_NODES.snapshot(), (3, 7, 2));
        let workers = worker_task_counts();
        assert!(workers.contains(&(1, 2)));
        assert!(workers.contains(&(MAX_WORKER_SLOTS - 1, 1)));
        set_enabled(false);
        reset();
    }

    #[test]
    fn guard_outside_recording_survives_midway_enable() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        reset();
        let guard = span!(ATTACK_ADAM);
        // Turning recording on after the guard was created must not make
        // the inert guard record on drop.
        set_enabled(true);
        drop(guard);
        assert_eq!(spans::ATTACK_ADAM.snapshot(), (0, 0, 0));
        set_enabled(false);
    }
}
