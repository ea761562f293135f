//! Static-schedule contracts: an attack whose per-step graph is frozen
//! into a `TapeSchedule` and replayed must be bit-identical to the same
//! attack rebuilding the tape dynamically every step — for every victim
//! model, at any thread count, on both kernel dispatch paths. The
//! schedule is an amortization of graph construction, never a different
//! computation; and a pooled seat must carry the compiled schedule to
//! the next key-matching job.

use colper_repro::attack::{AttackConfig, AttackPlan, AttackResult, AttackSession, WarmSeat};
use colper_repro::autodiff::set_schedule_enabled;
use colper_repro::models::{
    CloudTensors, PointNet2, PointNet2Config, RandLaNet, RandLaNetConfig, ResGcn, ResGcnConfig,
    SegmentationModel,
};
use colper_repro::runtime::Runtime;
use colper_repro::scene::{normalize, IndoorSceneConfig, SceneGenerator};
use colper_repro::serve::{ModelKind, SeatPool};
use colper_repro::tensor::kernels::{set_simd_enabled, simd_active};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

/// Serializes every test in this file. `run_gated` flips the
/// process-global schedule gate, and sibling tests assert schedule
/// *state* (`seat.is_scheduled()`), which the gate does change — unlike
/// results, which stay bit-identical either way.
static GATE_LOCK: Mutex<()> = Mutex::new(());

fn gate_lock() -> MutexGuard<'static, ()> {
    GATE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tensors(points: usize, seed: u64) -> CloudTensors {
    let cloud = SceneGenerator::indoor(IndoorSceneConfig::with_points(points)).generate(seed);
    CloudTensors::from_cloud(&normalize::pointnet_view(&cloud))
}

/// One attack under an explicit schedule-gate setting, restoring the
/// previous setting afterwards. Toggling mid-suite is safe precisely
/// because of the invariant under test: results are bit-identical with
/// the gate on or off.
fn run_gated<M: SegmentationModel>(
    model: &M,
    cloud: &CloudTensors,
    cfg: &AttackConfig,
    rt: &Runtime,
    scheduled: bool,
) -> (AttackResult, StdRng) {
    set_schedule_enabled(scheduled);
    let mut rng = StdRng::seed_from_u64(17);
    let result = AttackSession::new(cfg.clone()).runtime(rt).run_with_rng(model, cloud, &mut rng);
    set_schedule_enabled(true);
    (result, rng)
}

/// Scheduled replay vs dynamic rebuild for one victim across thread
/// counts and both kernel dispatch paths.
fn assert_schedule_invisible<M: SegmentationModel>(model: &M, cloud: &CloudTensors) {
    let cfg = AttackConfig::non_targeted(4);
    let was_simd = simd_active();
    for simd in [false, true] {
        set_simd_enabled(simd);
        for threads in [1usize, 4] {
            let rt = Runtime::new(threads);
            let (dynamic, rng_dyn) = run_gated(model, cloud, &cfg, &rt, false);
            let (scheduled, rng_sched) = run_gated(model, cloud, &cfg, &rt, true);
            assert_eq!(
                scheduled, dynamic,
                "scheduled replay diverged (simd={simd}, threads={threads})"
            );
            // The replay must consume exactly the randomness the dynamic
            // rebuild consumes (none, on the deterministic-eval path).
            assert_eq!(
                rng_sched, rng_dyn,
                "schedule changed RNG consumption (simd={simd}, threads={threads})"
            );
        }
    }
    set_simd_enabled(was_simd);
}

#[test]
fn pointnet2_scheduled_replay_is_bit_identical() {
    let _gate = gate_lock();
    let mut rng = StdRng::seed_from_u64(0);
    let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
    assert_schedule_invisible(&model, &tensors(96, 1));
}

#[test]
fn resgcn_scheduled_replay_is_bit_identical() {
    let _gate = gate_lock();
    let mut rng = StdRng::seed_from_u64(1);
    let model = ResGcn::new(ResGcnConfig::tiny(13), &mut rng);
    assert_schedule_invisible(&model, &tensors(96, 2));
}

#[test]
fn randlanet_is_never_scheduled_and_unaffected_by_the_gate() {
    let _gate = gate_lock();
    // RandLA-Net's random downsampling draws from the RNG every forward
    // pass, so it reports `deterministic_eval() == false` and the attack
    // must never capture a schedule for it — the gate setting is inert.
    let mut rng = StdRng::seed_from_u64(2);
    let model = RandLaNet::new(RandLaNetConfig::tiny(13), &mut rng);
    assert!(!model.deterministic_eval());
    assert_schedule_invisible(&model, &tensors(96, 3));
}

#[test]
fn seat_pool_round_trip_keeps_the_schedule_warm() {
    let _gate = gate_lock();
    set_schedule_enabled(true);
    let mut rng = StdRng::seed_from_u64(4);
    let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
    let cloud = tensors(96, 5);
    let cfg = AttackConfig::non_targeted(3);
    // The schedule key pins the plan's interned tensors by address, so
    // adoption across runs requires sharing one plan — exactly how the
    // attack service holds a plan per victim cloud.
    let plan = AttackPlan::build(&model, &cloud, &cfg);
    let session = AttackSession::new(cfg.clone()).plan(&plan);

    let mut rng_fresh = StdRng::seed_from_u64(23);
    let reference = session.run_with_rng(&model, &cloud, &mut rng_fresh);

    let pool = SeatPool::new(2);
    for round in 0..3 {
        let mut seat = pool.checkout(ModelKind::PointNet, cloud.len());
        assert_eq!(
            seat.is_scheduled(),
            round > 0,
            "round {round}: the pooled seat must carry the previous run's schedule"
        );
        let mut rng = StdRng::seed_from_u64(23);
        let seated = session.run_with_rng_seated(&model, &cloud, &mut rng, &mut seat);
        assert_eq!(seated, reference, "pooled round {round} diverged");
        assert_eq!(rng, rng_fresh, "pooled round {round} consumed different randomness");
        pool.checkin(ModelKind::PointNet, cloud.len(), seat);
    }
}

#[test]
fn plan_change_invalidates_the_captured_schedule() {
    let _gate = gate_lock();
    set_schedule_enabled(true);
    let mut rng = StdRng::seed_from_u64(6);
    let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
    let cloud = tensors(96, 7);
    let cfg = AttackConfig::non_targeted(2);

    // First run captures under plan A; the second runs the same cloud
    // under a freshly built plan B (new interned tensors, new addresses).
    // The donated schedule must NOT be adopted — and the run must still
    // match a seatless reference exactly.
    let plan_a = AttackPlan::build(&model, &cloud, &cfg);
    let plan_b = AttackPlan::build(&model, &cloud, &cfg);
    let mut seat = WarmSeat::new();
    let _ = AttackSession::new(cfg.clone()).plan(&plan_a).run_with_rng_seated(
        &model,
        &cloud,
        &mut StdRng::seed_from_u64(31),
        &mut seat,
    );
    assert!(seat.is_scheduled(), "the first planned run must donate its schedule");

    let mut rng_fresh = StdRng::seed_from_u64(31);
    let reference =
        AttackSession::new(cfg.clone()).plan(&plan_b).run_with_rng(&model, &cloud, &mut rng_fresh);
    let mut rng_seated = StdRng::seed_from_u64(31);
    let seated = AttackSession::new(cfg).plan(&plan_b).run_with_rng_seated(
        &model,
        &cloud,
        &mut rng_seated,
        &mut seat,
    );
    assert_eq!(seated, reference, "a stale schedule leaked across a plan change");
    assert_eq!(rng_seated, rng_fresh);
    // The run under plan B captured its own schedule and donated it.
    assert!(seat.is_scheduled());
}

#[test]
fn eot_runs_never_capture_a_schedule() {
    let _gate = gate_lock();
    set_schedule_enabled(true);
    let mut rng = StdRng::seed_from_u64(8);
    let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
    let cloud = tensors(64, 9);
    let mut cfg = AttackConfig::non_targeted(2);
    cfg.gradient_samples = 2;

    let mut seat = WarmSeat::new();
    let _ = AttackSession::new(cfg).run_with_rng_seated(
        &model,
        &cloud,
        &mut StdRng::seed_from_u64(1),
        &mut seat,
    );
    assert!(!seat.is_warm(), "EoT fan-out must not donate a tape");
    assert!(!seat.is_scheduled(), "EoT fan-out must not capture a schedule");
}
