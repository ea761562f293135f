//! Warm-seat contracts: an attack run on a pooled [`WarmSeat`] — cold
//! or resuming another run's donated tape — must be bit-identical to a
//! seatless run, on every victim, across thread counts and repeated
//! reuse. The seat recycles arenas, never state; warmth is an
//! amortization, not an approximation.

use colper_repro::attack::{AttackConfig, AttackSession, WarmSeat};
use colper_repro::models::{
    CloudTensors, PointNet2, PointNet2Config, RandLaNet, RandLaNetConfig, ResGcn, ResGcnConfig,
    SegmentationModel,
};
use colper_repro::runtime::Runtime;
use colper_repro::scene::{normalize, IndoorSceneConfig, SceneGenerator};
use colper_repro::serve::{ModelKind, SeatPool};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tensors(points: usize, seed: u64) -> CloudTensors {
    let cloud = SceneGenerator::indoor(IndoorSceneConfig::with_points(points)).generate(seed);
    CloudTensors::from_cloud(&normalize::pointnet_view(&cloud))
}

/// Three runs on one seat, the first cold: clouds A, B, then A again, so
/// the later runs record over slots that still hold another cloud's
/// values. Each must equal a fresh run on the same RNG stream, on 1 and
/// on 4 threads.
fn assert_seated_runs_match_fresh_runs<M: SegmentationModel>(model: &M) {
    let clouds = [tensors(96, 1), tensors(96, 2)];
    let cfg = AttackConfig::non_targeted(3);
    let fresh: Vec<_> = clouds
        .iter()
        .map(|cloud| {
            let mut rng = StdRng::seed_from_u64(5);
            (AttackSession::new(cfg.clone()).run_with_rng(model, cloud, &mut rng), rng)
        })
        .collect();

    for threads in [1usize, 4] {
        let rt = Runtime::new(threads);
        let mut seat = WarmSeat::new();
        for (run, which) in [0usize, 1, 0].into_iter().enumerate() {
            let mut rng_seated = StdRng::seed_from_u64(5);
            let seated = AttackSession::new(cfg.clone()).runtime(&rt).run_with_rng_seated(
                model,
                &clouds[which],
                &mut rng_seated,
                &mut seat,
            );
            let (reference, rng_fresh) = &fresh[which];
            assert_eq!(
                &seated, reference,
                "seated run {run} on {threads} threads diverged from the fresh run"
            );
            assert_eq!(&rng_seated, rng_fresh, "seated runs must consume the same randomness");
        }
        assert_eq!(seat.runs(), 3);
        assert_eq!(seat.warm_starts(), 2, "all but the first run must start warm");
        assert!(seat.is_warm(), "the seat holds the donated tape after a run");
    }
}

#[test]
fn seated_runs_are_bit_identical_to_fresh_runs_across_threads() {
    let mut rng = StdRng::seed_from_u64(0);
    assert_seated_runs_match_fresh_runs(&PointNet2::new(PointNet2Config::tiny(13), &mut rng));
    assert_seated_runs_match_fresh_runs(&ResGcn::new(ResGcnConfig::tiny(13), &mut rng));
    assert_seated_runs_match_fresh_runs(&RandLaNet::new(RandLaNetConfig::tiny(13), &mut rng));
}

#[test]
fn seat_pool_round_trip_matches_and_reports_warmth() {
    let mut rng = StdRng::seed_from_u64(2);
    let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
    let cloud = tensors(96, 3);
    let cfg = AttackConfig::non_targeted(2);

    let mut rng_fresh = StdRng::seed_from_u64(9);
    let reference = AttackSession::new(cfg.clone()).run_with_rng(&model, &cloud, &mut rng_fresh);

    let pool = SeatPool::new(2);
    for round in 0..2 {
        let mut seat = pool.checkout(ModelKind::PointNet, cloud.len());
        assert_eq!(seat.is_warm(), round > 0, "round {round}: warmth follows pool reuse");
        let mut rng = StdRng::seed_from_u64(9);
        let seated = AttackSession::new(cfg.clone())
            .run_with_rng_seated(&model, &cloud, &mut rng, &mut seat);
        assert_eq!(seated, reference, "pooled round {round} diverged");
        pool.checkin(ModelKind::PointNet, cloud.len(), seat);
    }
    assert_eq!(pool.idle(), 1);
}

#[test]
fn multi_sample_attacks_leave_the_seat_untouched() {
    // EoT attacks (gradient_samples > 1) take the fresh-session path;
    // the seat must pass through unused rather than donate a stale tape.
    let mut rng = StdRng::seed_from_u64(4);
    let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
    let cloud = tensors(64, 7);
    let mut cfg = AttackConfig::non_targeted(2);
    cfg.gradient_samples = 2;

    let mut seat = WarmSeat::new();
    let mut rng_run = StdRng::seed_from_u64(1);
    let _ = AttackSession::new(cfg).run_with_rng_seated(&model, &cloud, &mut rng_run, &mut seat);
    assert!(!seat.is_warm(), "EoT runs must not donate a tape");
    assert_eq!(seat.warm_starts(), 0);
}
