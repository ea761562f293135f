//! COLPER: color-only adversarial perturbation against point-cloud
//! semantic segmentation — the paper's primary contribution.
//!
//! The attack (Algorithm 1 of the paper) is a white-box, test-time,
//! gradient-based optimization over a tanh-reparameterized color
//! variable `w` (Eq. 5): each iteration runs the victim network forward,
//! computes the composite objective
//!
//! ```text
//! gain = D(r_color) + λ1 · L(X', Y) + λ2 · S(X')        (Eq. 2 / Eq. 3)
//! ```
//!
//! — squared-L2 perturbation magnitude (Eq. 4), a CW-style hinge on the
//! logits (Eq. 7 targeted / Eq. 8 non-targeted), and a k-NN smoothness
//! penalty (Eq. 6) — backpropagates to `w`, and applies one Adam step.
//! On a plateau, uniform noise restarts the search; optimization stops
//! early once the attacker's criterion is met (accuracy below random
//! guessing for non-targeted attacks, success rate ≥ 95% for targeted
//! ones).
//!
//! [`AttackSession`] is the only way to start a run of this engine. What
//! the attacker wants is an [`Objective`] in the [`AttackConfig`]: the
//! paper's non-targeted and targeted goals, the random-noise baseline
//! matched on L2 (Tables 1 and 3), AdvPC-style transfer and
//! boundary-focused perturbation; the lighting-EoT attack of the
//! physical study is a config from [`physical::eot_config`].
//!
//! Alongside it the crate ships the paper's other comparison apparatus,
//! separate algorithms with their own losses and projections: the
//! L0-constrained coordinate/color attack (Algorithm 2, with the
//! impactful-point selection of Eq. 9), the classic FGSM / I-FGSM / PGD
//! baselines, and the transferability helpers (Eq. 10).
//!
//! # Example
//!
//! ```no_run
//! use colper_attack::{AttackConfig, AttackSession};
//! use colper_models::{CloudTensors, PointNet2, PointNet2Config};
//! use colper_scene::{normalize, IndoorSceneConfig, SceneGenerator};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let cloud = SceneGenerator::indoor(IndoorSceneConfig::with_points(512)).generate(1);
//! let tensors = CloudTensors::from_cloud(&normalize::pointnet_view(&cloud));
//! let model = PointNet2::new(PointNet2Config::small(13), &mut rng);
//! let attack = AttackSession::new(AttackConfig::non_targeted(64));
//! let result = attack.run_with_rng(&model, &tensors, &mut rng);
//! println!("post-attack accuracy on attacked points: {}", result.success_metric);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attack;
mod baseline;
mod batch;
mod classic;
mod config;
mod coord;
mod objective;
pub mod physical;
mod reparam;
mod report;
mod seat;
mod session;
mod streaming;
mod transfer;
mod validate;

pub use attack::AttackPlan;
pub use baseline::random_color_noise;
pub use batch::{BatchItem, BatchOutcome};
pub use classic::{ClassicAttack, ClassicKind};
/// Re-exported so attack callers can build an [`Observer`] without
/// depending on `colper-obs` directly.
pub use colper_obs::Observer;
pub use config::AttackConfig;
pub use coord::{L0Attack, L0AttackConfig, L0Result, PerturbTarget};
pub use objective::Objective;
pub use reparam::TanhReparam;
pub use report::AttackResult;
pub use seat::WarmSeat;
pub use session::AttackSession;
pub use streaming::{StreamConfig, StreamOutcome, StreamingAttack};
pub use transfer::{apply_adversarial_colors, evaluate_cloud, TransferOutcome};
pub use validate::{validate_clouds, SessionError};
