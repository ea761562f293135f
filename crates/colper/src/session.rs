//! The attack entry point: [`AttackSession`].
//!
//! Every run of the COLPER engine (Algorithm 1) starts here: one builder
//! configures the attack once — an [`AttackConfig`] whose
//! [`Objective`] names the goal — plus runtime, plan, observer, seed and
//! mask selector, and runs over one cloud or many. A single-cloud attack
//! is the 1-element batch case, and the comparison runs built on the
//! same optimization go through the same door: the L2-matched noise
//! baseline as [`Objective::NoiseBaseline`], the lighting-EoT attack of
//! the physical study as a config from [`crate::physical::eot_config`].
//!
//! ```no_run
//! use colper_attack::{AttackConfig, AttackSession};
//! use colper_models::{CloudTensors, PointNet2, PointNet2Config};
//! use colper_obs::Observer;
//! use colper_runtime::Runtime;
//! use colper_scene::{normalize, IndoorSceneConfig, SceneGenerator};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let cloud = SceneGenerator::indoor(IndoorSceneConfig::with_points(256)).generate(1);
//! let tensors = CloudTensors::from_cloud(&normalize::pointnet_view(&cloud));
//! let model = PointNet2::new(PointNet2Config::small(13), &mut rng);
//! let rt = Runtime::new(4);
//! let obs = Observer::from_env();
//! let outcome = AttackSession::new(AttackConfig::non_targeted(64))
//!     .runtime(&rt)
//!     .observer(&obs)
//!     .seed(7)
//!     .run(&model, std::slice::from_ref(&tensors));
//! println!("adv accuracy: {}", outcome.adversarial_accuracy.mean);
//! ```

use crate::attack::PenaltyRun;
use crate::baseline::noise_baseline;
use crate::{
    AttackConfig, AttackPlan, AttackResult, BatchItem, BatchOutcome, Objective, SessionError,
    WarmSeat,
};
use colper_geom::knn_graph;
use colper_metrics::ConfusionMatrix;
use colper_models::{CloudTensors, SegmentationModel};
use colper_obs::Observer;
use colper_runtime::Runtime;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How the session derives each cloud's attacked-point mask.
enum MaskSelector<'a> {
    /// Attack every point (the paper's non-targeted setting).
    All,
    /// Attack the points whose ground-truth label equals the class (the
    /// paper's targeted setting).
    SourceClass(usize),
    /// Arbitrary per-cloud mask.
    Custom(&'a (dyn Fn(&CloudTensors) -> Vec<bool> + Sync)),
}

/// Builder for attack runs: configure once, run over one cloud or many.
///
/// Defaults: sequential [`Runtime`] (deferring to the ambient one inside
/// the optimizer), no pre-built plan, a disabled [`Observer`], seed 0,
/// and an all-points mask. What the attacker optimizes for is the
/// configuration's [`AttackConfig::objective`]:
/// [`Objective::Boundary`] intersects the mask selector with the
/// ground-truth label-boundary mask; [`Objective::NoiseBaseline`] skips
/// the optimization loop and draws one L2-matched noise sample;
/// [`Objective::Transfer`] requires a penalty model
/// ([`AttackSession::penalty_model`]).
///
/// Per-cloud RNGs derive from `seed + cloud_index`, so outcomes are
/// reproducible and independent of the runtime's thread count and
/// schedule.
pub struct AttackSession<'a> {
    config: AttackConfig,
    runtime: Runtime,
    plan: Option<&'a AttackPlan>,
    observer: Observer,
    base_seed: u64,
    mask: MaskSelector<'a>,
    penalty_model: Option<&'a dyn SegmentationModel>,
    penalty_view: Option<&'a CloudTensors>,
}

impl<'a> AttackSession<'a> {
    /// Starts a session with the given attack configuration.
    pub fn new(config: AttackConfig) -> Self {
        Self {
            config,
            runtime: Runtime::sequential(),
            plan: None,
            observer: Observer::disabled(),
            base_seed: 0,
            mask: MaskSelector::All,
            penalty_model: None,
            penalty_view: None,
        }
    }

    /// Attaches a compute runtime: clouds are scheduled over it as
    /// stealable tasks, one per cloud.
    #[must_use]
    pub fn runtime(mut self, runtime: &Runtime) -> Self {
        self.runtime = runtime.clone();
        self
    }

    /// Attaches a pre-built [`AttackPlan`]. Only valid for single-cloud
    /// runs ([`AttackSession::try_run`] rejects others) — a plan caches
    /// one cloud's geometry.
    #[must_use]
    pub fn plan(mut self, plan: &'a AttackPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Attaches an observer collecting per-step telemetry (records only
    /// while global tracing is on — see [`colper_obs::enabled`]).
    #[must_use]
    pub fn observer(mut self, observer: &Observer) -> Self {
        self.observer = observer.clone();
        self
    }

    /// Sets the base seed; cloud `i` draws from `seed + i`.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Attacks every point of every cloud (the default).
    #[must_use]
    pub fn mask_all(mut self) -> Self {
        self.mask = MaskSelector::All;
        self
    }

    /// Attacks the points labeled `source` in each cloud.
    #[must_use]
    pub fn mask_source_class(mut self, source: usize) -> Self {
        self.mask = MaskSelector::SourceClass(source);
        self
    }

    /// Derives each cloud's mask with `mask_of`.
    #[must_use]
    pub fn mask_with(mut self, mask_of: &'a (dyn Fn(&CloudTensors) -> Vec<bool> + Sync)) -> Self {
        self.mask = MaskSelector::Custom(mask_of);
        self
    }

    /// Attaches the second network of the [`Objective::Transfer`]
    /// objective (AdvPC's penalty network). Ignored by other objectives.
    #[must_use]
    pub fn penalty_model(mut self, model: &'a dyn SegmentationModel) -> Self {
        self.penalty_model = Some(model);
        self
    }

    /// Attaches the penalty network's own normalized view of the
    /// attacked cloud (same point order — views rescale coordinates
    /// only). Without it the penalty network sees the surrogate's view.
    /// Like a plan, a view describes one cloud, so only single-cloud
    /// runs accept it.
    #[must_use]
    pub fn penalty_view(mut self, tensors: &'a CloudTensors) -> Self {
        self.penalty_view = Some(tensors);
        self
    }

    /// The cloud's attacked-point mask: the session's selector,
    /// intersected with the label-boundary mask under
    /// [`Objective::Boundary`].
    fn mask_for(&self, t: &CloudTensors) -> Vec<bool> {
        let mut mask = match &self.mask {
            MaskSelector::All => vec![true; t.len()],
            MaskSelector::SourceClass(source) => t.labels.iter().map(|l| l == source).collect(),
            MaskSelector::Custom(mask_of) => mask_of(t),
        };
        if let Objective::Boundary { k } = self.config.objective {
            let boundary = boundary_mask(t, k);
            for (m, b) in mask.iter_mut().zip(boundary) {
                *m = *m && b;
            }
        }
        mask
    }

    /// The transfer penalty handed to the engine, when the objective
    /// asks for one.
    ///
    /// # Panics
    ///
    /// Panics when the transfer objective is set without a penalty
    /// model.
    fn penalty_run(&self) -> Option<PenaltyRun<'a>> {
        match self.config.objective {
            Objective::Transfer { gamma } => Some(PenaltyRun {
                model: self
                    .penalty_model
                    .expect("transfer objective requires a penalty model (penalty_model)"),
                tensors: self.penalty_view,
                gamma,
            }),
            _ => None,
        }
    }

    /// The one path into the engine, shared by every public entry point:
    /// derive the cloud's mask, dispatch the noise baseline (no plan and
    /// no draw before it), else use `plan` or build one and run
    /// Algorithm 1 on `runtime`, reporting telemetry as cloud `index`.
    #[allow(clippy::too_many_arguments)]
    fn attack_cloud<M: SegmentationModel + ?Sized>(
        &self,
        model: &M,
        cloud: &CloudTensors,
        plan: Option<&AttackPlan>,
        rng: &mut StdRng,
        runtime: &Runtime,
        index: usize,
        seat: Option<&mut WarmSeat>,
    ) -> AttackResult {
        let mask = self.mask_for(cloud);
        if let Objective::NoiseBaseline { l2_sq } = self.config.objective {
            return noise_baseline(model, cloud, &mask, l2_sq, rng);
        }
        let built;
        let plan = match plan {
            Some(plan) => plan,
            None => {
                built = AttackPlan::build(model, cloud, &self.config);
                &built
            }
        };
        crate::attack::run(
            &self.config,
            runtime,
            model,
            cloud,
            &mask,
            plan,
            rng,
            &self.observer,
            index,
            seat,
            self.penalty_run().as_ref(),
        )
    }

    /// Runs the attack on one cloud drawing noise from the caller's RNG,
    /// for callers that thread one RNG stream through a longer procedure
    /// (adversarial training interleaves attacks with weight updates and
    /// must not reseed per cloud). Uses the session's plan when attached,
    /// and its mask selector; the observer reports the cloud as index 0.
    ///
    /// Unlike [`AttackSession::run`], no clean prediction is made and no
    /// per-cloud seed is derived: the attack's first draw is the caller's
    /// next one.
    ///
    /// # Panics
    ///
    /// Panics when an attached plan was built for a different cloud, or
    /// when the configuration is invalid for the model's class count. A
    /// mask that selects no point returns the cloud unperturbed, with
    /// `attacked_points == 0` and `steps_run == 0`.
    pub fn run_with_rng<M: SegmentationModel + ?Sized>(
        &self,
        model: &M,
        cloud: &CloudTensors,
        rng: &mut StdRng,
    ) -> AttackResult {
        self.attack_cloud(model, cloud, self.plan, rng, &self.runtime, 0, None)
    }

    /// [`AttackSession::run_with_rng`] on a [`WarmSeat`]: the run resumes
    /// on the seat's donated tape (if any) and donates its own tape back
    /// when it finishes, so repeated attacks on same-shaped clouds skip
    /// the first-step allocation burst. Bit-identical to the seatless
    /// entry point — the seat recycles buffer pools, never state.
    pub fn run_with_rng_seated<M: SegmentationModel + ?Sized>(
        &self,
        model: &M,
        cloud: &CloudTensors,
        rng: &mut StdRng,
        seat: &mut WarmSeat,
    ) -> AttackResult {
        self.attack_cloud(model, cloud, self.plan, rng, &self.runtime, 0, Some(seat))
    }

    /// Runs the attack over `clouds`, one stealable task per cloud, and
    /// aggregates the outcome. Single-cloud attacks are the 1-element
    /// case: `session.run(&model, std::slice::from_ref(&tensors))`.
    ///
    /// # Panics
    ///
    /// Panics on any input [`AttackSession::try_run`] rejects, and when
    /// the configuration is invalid for the model's class count.
    pub fn run<M: SegmentationModel + ?Sized>(
        &self,
        model: &M,
        clouds: &[CloudTensors],
    ) -> BatchOutcome {
        match self.try_run(model, clouds) {
            Ok(outcome) => outcome,
            Err(err) => panic!("{err}"),
        }
    }

    /// Validates the batch and runs the attack, returning a typed
    /// [`SessionError`] instead of propagating garbage gradients when a
    /// cloud carries NaN/inf coordinates, colors outside `[0, 1]`, or
    /// out-of-range labels, or when a plan or penalty view (each
    /// describing one cloud) meets a batch of several. The service
    /// intake maps these errors to client faults.
    pub fn try_run<M: SegmentationModel + ?Sized>(
        &self,
        model: &M,
        clouds: &[CloudTensors],
    ) -> Result<BatchOutcome, SessionError> {
        crate::validate_clouds(clouds, model.num_classes())?;
        if clouds.len() != 1 {
            let attachment = if self.plan.is_some() {
                Some("plan")
            } else if self.penalty_view.is_some() {
                Some("penalty view")
            } else {
                None
            };
            if let Some(attachment) = attachment {
                return Err(SessionError::NeedsSingleCloud { attachment, clouds: clouds.len() });
            }
        }
        let classes = model.num_classes();

        let items: Vec<BatchItem> = self.runtime.par_map_grained(clouds.len(), 1, |index| {
            let _cloud_span = colper_obs::span!(BATCH_CLOUD);
            colper_obs::counters::BATCH_CLOUDS.incr();
            let t = &clouds[index];
            let mut rng = StdRng::seed_from_u64(self.base_seed.wrapping_add(index as u64));
            // One plan per cloud serves the clean prediction and every
            // attack iteration.
            let built;
            let plan = match self.plan {
                Some(plan) => plan,
                None => {
                    built = AttackPlan::build(model, t, &self.config);
                    &built
                }
            };
            let clean_preds = colper_models::predict_planned(model, t, plan.geometry(), &mut rng);
            let mut cm = ConfusionMatrix::new(classes);
            cm.update(&clean_preds, &t.labels);
            let clean_accuracy = cm.accuracy();

            // Inside the pool task the engine defers to the ambient
            // runtime the task runs on.
            let result = self.attack_cloud(
                model,
                t,
                Some(plan),
                &mut rng,
                &Runtime::sequential(),
                index,
                None,
            );
            let mut cm = ConfusionMatrix::new(classes);
            cm.update(&result.predictions, &t.labels);
            BatchItem {
                clean_accuracy,
                adversarial_accuracy: cm.accuracy(),
                adversarial_miou: cm.mean_iou(),
                result,
            }
        });
        Ok(BatchOutcome::aggregate(items))
    }
}

/// Points within `k` nearest neighbors of a ground-truth label boundary:
/// a point is boundary when any of its `k` nearest spatial neighbors
/// carries a different label (1908.06062's boundary regions, under the
/// color-only threat model).
fn boundary_mask(t: &CloudTensors, k: usize) -> Vec<bool> {
    let k = k.max(1).min(t.len());
    let graph = knn_graph(&t.coords, k);
    (0..t.len()).map(|i| (0..k).any(|j| t.labels[graph[i * k + j]] != t.labels[i])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttackResult;
    use colper_models::{PointNet2, PointNet2Config};
    use colper_scene::{normalize, IndoorSceneConfig, SceneGenerator};

    fn clouds(n: u64) -> Vec<CloudTensors> {
        (0..n)
            .map(|i| {
                let c = SceneGenerator::indoor(IndoorSceneConfig::with_points(96)).generate(i);
                CloudTensors::from_cloud(&normalize::pointnet_view(&c))
            })
            .collect()
    }

    #[test]
    fn custom_all_points_mask_matches_the_default() {
        let mut rng = StdRng::seed_from_u64(0);
        let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
        let data = clouds(3);
        let cfg = AttackConfig::non_targeted(3);
        let by_default =
            AttackSession::new(cfg.clone()).runtime(&Runtime::new(2)).seed(7).run(&model, &data);
        let all = |t: &CloudTensors| vec![true; t.len()];
        let by_closure = AttackSession::new(cfg)
            .runtime(&Runtime::new(2))
            .seed(7)
            .mask_with(&all)
            .run(&model, &data);
        assert_eq!(by_default, by_closure);
    }

    #[test]
    fn single_cloud_is_the_one_element_batch_and_matches_run_with_rng() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
        let data = clouds(1);
        let cfg = AttackConfig::non_targeted(4);
        let outcome = AttackSession::new(cfg.clone()).seed(11).run(&model, &data);
        assert_eq!(outcome.items.len(), 1);

        // The session seeds cloud 0 with `seed + 0` *and* uses the same
        // RNG for the clean prediction first — reproduce that stream.
        let mut rng2 = StdRng::seed_from_u64(11);
        let plan = AttackPlan::build(&model, &data[0], &cfg);
        let _clean = colper_models::predict_planned(&model, &data[0], plan.geometry(), &mut rng2);
        let direct: AttackResult =
            AttackSession::new(cfg).plan(&plan).run_with_rng(&model, &data[0], &mut rng2);
        assert_eq!(outcome.items[0].result, direct);
    }

    #[test]
    fn source_class_mask_matches_custom_closure() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
        let data = clouds(2);
        // Pick a label present in both clouds.
        let source = data[0].labels[0];
        if !data[1].labels.contains(&source) {
            return;
        }
        let cfg = AttackConfig::non_targeted(2);
        let by_variant =
            AttackSession::new(cfg.clone()).mask_source_class(source).run(&model, &data);
        let mask_of = move |t: &CloudTensors| -> Vec<bool> {
            t.labels.iter().map(|&l| l == source).collect()
        };
        let by_closure = AttackSession::new(cfg).mask_with(&mask_of).run(&model, &data);
        assert_eq!(by_variant, by_closure);
    }

    #[test]
    fn seated_runs_match_seatless_runs() {
        let mut rng = StdRng::seed_from_u64(9);
        let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
        let data = clouds(1);
        let cfg = AttackConfig::non_targeted(3);
        let session = AttackSession::new(cfg);
        let mut seat = crate::WarmSeat::new();
        // Two seated runs: the second resumes on the first one's donated
        // tape. Both must be bit-identical to seatless runs on the same
        // RNG streams.
        for seed in [5u64, 5u64] {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let a = session.run_with_rng(&model, &data[0], &mut rng_a);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let b = session.run_with_rng_seated(&model, &data[0], &mut rng_b, &mut seat);
            assert_eq!(a, b);
            // Both consume the same amount of randomness.
            assert_eq!(rng_a, rng_b);
        }
        assert!(seat.is_warm());
        assert_eq!(seat.warm_starts(), 1);
    }

    #[test]
    fn try_run_rejects_nan_coordinates_with_typed_error() {
        let mut rng = StdRng::seed_from_u64(5);
        let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
        let mut data = clouds(1);
        data[0].coords[3].x = f32::NAN;
        let err =
            AttackSession::new(AttackConfig::non_targeted(2)).try_run(&model, &data).unwrap_err();
        assert!(matches!(
            err,
            crate::SessionError::NonFiniteCoordinate { cloud: 0, point: 3, axis: 0, .. }
        ));
    }

    #[test]
    fn try_run_rejects_out_of_range_colors() {
        let mut rng = StdRng::seed_from_u64(6);
        let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
        let mut data = clouds(1);
        data[0].colors.as_mut_slice()[4] = -0.25;
        let err =
            AttackSession::new(AttackConfig::non_targeted(2)).try_run(&model, &data).unwrap_err();
        assert!(matches!(err, crate::SessionError::ColorOutOfRange { .. }));
    }

    #[test]
    fn try_run_matches_run_on_valid_input() {
        let mut rng = StdRng::seed_from_u64(7);
        let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
        let data = clouds(1);
        let cfg = AttackConfig::non_targeted(2);
        let a = AttackSession::new(cfg.clone()).seed(3).try_run(&model, &data).unwrap();
        let b = AttackSession::new(cfg).seed(3).run(&model, &data);
        assert_eq!(a, b);
    }

    /// A configuration whose objective is `objective`.
    fn config(objective: Objective, steps: usize) -> AttackConfig {
        AttackConfig { objective, ..AttackConfig::non_targeted(steps) }
    }

    #[test]
    fn noise_objective_runs_the_matched_baseline() {
        let mut rng = StdRng::seed_from_u64(21);
        let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
        let data = clouds(1);
        let by_objective = AttackSession::new(config(Objective::NoiseBaseline { l2_sq: 0.5 }, 4))
            .run_with_rng(&model, &data[0], &mut StdRng::seed_from_u64(8));
        let direct = crate::baseline::noise_baseline(
            &model,
            &data[0],
            &vec![true; data[0].len()],
            0.5,
            &mut StdRng::seed_from_u64(8),
        );
        assert_eq!(by_objective, direct);
        assert_eq!(by_objective.steps_run, 1);
        assert!(by_objective.l2_sq > 0.0);
    }

    /// On a cloud of one label no point has a differently-labelled
    /// neighbor, so the boundary mask is empty and the cloud comes back
    /// unperturbed.
    #[test]
    fn boundary_objective_on_a_one_label_cloud_returns_it_unperturbed() {
        let mut rng = StdRng::seed_from_u64(23);
        let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
        let mut t = clouds(1).remove(0);
        t.labels = vec![t.labels[0]; t.len()];
        let result = AttackSession::new(config(Objective::Boundary { k: 6 }, 3)).run_with_rng(
            &model,
            &t,
            &mut StdRng::seed_from_u64(1),
        );
        assert_eq!((result.attacked_points, result.steps_run), (0, 0));
        assert_eq!(result.adversarial_colors, t.colors);
        assert_eq!(result.predictions.len(), t.len());
    }

    #[test]
    fn boundary_objective_freezes_interior_points() {
        let mut rng = StdRng::seed_from_u64(22);
        let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
        let data = clouds(1);
        let t = &data[0];
        let result = AttackSession::new(config(Objective::Boundary { k: 6 }, 3)).run_with_rng(
            &model,
            t,
            &mut StdRng::seed_from_u64(1),
        );
        assert!(result.attacked_points < t.len(), "a boundary mask should exclude interior points");
        // The boundary mask is reproducible: points outside it keep
        // their exact colors.
        let boundary = super::boundary_mask(t, 6);
        assert_eq!(result.attacked_points, boundary.iter().filter(|&&b| b).count());
        for (i, &b) in boundary.iter().enumerate() {
            if !b {
                for c in 0..3 {
                    assert_eq!(result.adversarial_colors[(i, c)], t.colors[(i, c)]);
                }
            }
        }
    }

    #[test]
    fn transfer_objective_optimizes_against_both_networks() {
        use colper_models::{train_model, TrainConfig};
        // Untrained networks clamp the CW hinge to zero, which would
        // make the penalty invisible — train both briefly so the hinges
        // are live.
        let mut rng = StdRng::seed_from_u64(23);
        let data = clouds(1);
        let tc = TrainConfig { epochs: 8, lr: 0.01, target_accuracy: 0.9 };
        let mut surrogate = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
        train_model(&mut surrogate, &data, &tc, &mut rng);
        let mut penalty = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
        train_model(&mut penalty, &data, &tc, &mut rng);

        let mut cfg = AttackConfig::non_targeted(3);
        cfg.convergence_threshold = Some(0.0); // run all steps
        let plain = AttackSession::new(cfg.clone()).run_with_rng(
            &surrogate,
            &data[0],
            &mut StdRng::seed_from_u64(5),
        );
        let transfer_cfg =
            AttackConfig { objective: Objective::Transfer { gamma: 1.0 }, ..cfg.clone() };
        let transfer = AttackSession::new(transfer_cfg.clone())
            .penalty_model(&penalty)
            .run_with_rng(&surrogate, &data[0], &mut StdRng::seed_from_u64(5));
        // The penalty hinge joins the objective, so the gain trajectory
        // must differ from the surrogate-only run.
        assert_ne!(plain.gain_history, transfer.gain_history);
        assert!(transfer.l2_sq > 0.0);
        // Determinism holds run-to-run.
        let again = AttackSession::new(transfer_cfg).penalty_model(&penalty).run_with_rng(
            &surrogate,
            &data[0],
            &mut StdRng::seed_from_u64(5),
        );
        assert_eq!(transfer, again);
    }

    #[test]
    #[should_panic(expected = "requires a penalty model")]
    fn transfer_objective_without_penalty_model_rejected() {
        let mut rng = StdRng::seed_from_u64(24);
        let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
        let data = clouds(1);
        let _ = AttackSession::new(config(Objective::Transfer { gamma: 0.5 }, 2))
            .run_with_rng(&model, &data[0], &mut rng);
    }

    #[test]
    #[should_panic(expected = "no clouds")]
    fn empty_session_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
        let _ = AttackSession::new(AttackConfig::non_targeted(2)).run(&model, &[]);
    }

    #[test]
    #[should_panic(expected = "exactly one cloud")]
    fn plan_with_many_clouds_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
        let data = clouds(2);
        let cfg = AttackConfig::non_targeted(2);
        let plan = AttackPlan::build(&model, &data[0], &cfg);
        let _ = AttackSession::new(cfg).plan(&plan).run(&model, &data);
    }

    #[test]
    fn penalty_view_with_many_clouds_is_a_typed_error() {
        let mut rng = StdRng::seed_from_u64(25);
        let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
        let penalty = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
        let data = clouds(2);
        let session = AttackSession::new(config(Objective::Transfer { gamma: 0.5 }, 2))
            .penalty_model(&penalty)
            .penalty_view(&data[0]);
        // One view cannot serve two clouds: the batch is rejected before
        // any cloud runs, so the engine's point-order assertion never
        // fires.
        assert_eq!(
            session.try_run(&model, &data).unwrap_err(),
            SessionError::NeedsSingleCloud { attachment: "penalty view", clouds: 2 }
        );
        // The single-cloud case the view describes still runs.
        assert!(session.try_run(&model, &data[..1]).is_ok());
    }
}
