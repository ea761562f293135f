//! Candidate defenses against color-only adversarial perturbation.
//!
//! The paper's "Defenses" section surveys three families that had been
//! tried on 3D *object recognition* and flags evaluating them on
//! *segmentation* as future work. This crate implements representatives
//! of each family, adapted to the color-only threat model, plus the
//! evaluation plumbing:
//!
//! * **Input transformation / gradient obfuscation** ([`defense`]): the
//!   composable [`Defense`] trait — color quantization, k-NN color
//!   smoothing (the denoiser idea of DUP-Net restricted to the color
//!   channels), uniform jitter, grayscale projection, Gaussian
//!   preprocessing (1902.10899), statistical outlier removal and random
//!   point dropping (1901.03006) — chainable through
//!   [`DefensePipeline`] with deterministic per-stage RNG streams and
//!   stable registry ids ([`parse_defense`]);
//! * **Adversarial training** ([`advtrain`]): augmenting the training
//!   stream with COLPER-perturbed clouds (the DeepSym-style robustness /
//!   cost trade-off);
//! * **Anomaly detection** ([`detect`]): a statistical detector over
//!   local color-smoothness features, flagging clouds whose neighborhood
//!   color contrast is anomalously high — adversarial colors must buy
//!   margin somewhere, and the smoothness penalty can only hide so much.
//!
//! Each defense exposes the measurements needed for a
//! robustness-vs-clean-accuracy table (regenerated by
//! `cargo run -p colper-bench --bin defenses`) and for the attack ×
//! defense robustness matrix (`colper matrix`).
//!
//! # Example
//!
//! ```
//! use colper_defense::{Defense, DefensePipeline, Quantize, Smooth};
//! use colper_scene::{IndoorSceneConfig, SceneGenerator};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let cloud = SceneGenerator::indoor(IndoorSceneConfig::with_points(64)).generate(0);
//! let pipeline = DefensePipeline::new().with(Smooth::new(4)).with(Quantize::new(3));
//! assert_eq!(pipeline.id(), "smooth(4)|quantize(3)");
//! let defended = pipeline.apply(&cloud, &mut StdRng::seed_from_u64(7));
//! assert_eq!(defended.len(), 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advtrain;
pub mod defense;
pub mod detect;
pub mod pipeline;

pub use advtrain::{adversarial_training, AdvTrainConfig, AdvTrainReport};
pub use defense::{
    parse_defense, Defense, GaussianNoise, Grayscale, Identity, Jitter, OutlierRemoval, Quantize,
    RandomDrop, Smooth,
};
pub use detect::{DetectorReport, SmoothnessDetector};
pub use pipeline::DefensePipeline;
