//! # COLPER reproduction — umbrella crate
//!
//! This crate re-exports the whole workspace behind one dependency, so a
//! downstream user can write `colper_repro::attack::AttackSession` instead of
//! depending on eight crates. See the README for a tour and `examples/`
//! for runnable end-to-end scenarios.
//!
//! The workspace reproduces *"On Adversarial Robustness of Point Cloud
//! Semantic Segmentation"* (DSN 2023): the COLPER color-only adversarial
//! perturbation attack, the three segmentation models it targets
//! (PointNet++, ResGCN/DeepGCN, RandLA-Net), the synthetic stand-ins for
//! the S3DIS and Semantic3D datasets, and the full evaluation harness.
//!
//! # Quickstart
//!
//! ```
//! use colper_repro::scene::{IndoorSceneConfig, SceneGenerator};
//!
//! // Generate a small labeled indoor point cloud (an S3DIS-like block).
//! let gen = SceneGenerator::indoor(IndoorSceneConfig::default());
//! let cloud = gen.generate(42);
//! assert!(cloud.len() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Observability: timing spans, counters, per-step attack telemetry
/// (re-export of `colper-obs`).
pub use colper_obs as obs;

/// The shared work-stealing compute pool every knob plumbs into
/// (re-export of `colper-runtime`).
pub use colper_runtime as runtime;

/// Dense 2-D tensor math (re-export of `colper-tensor`).
pub use colper_tensor as tensor;

/// Reverse-mode autodiff tape (re-export of `colper-autodiff`).
pub use colper_autodiff as autodiff;

/// Point-cloud geometry: kd-trees, k-NN, sampling (re-export of
/// `colper-geom`).
pub use colper_geom as geom;

/// Synthetic S3DIS-like / Semantic3D-like scene generators (re-export of
/// `colper-scene`).
pub use colper_scene as scene;

/// Neural-network layers, losses, optimizers (re-export of `colper-nn`).
pub use colper_nn as nn;

/// The three segmentation models (re-export of `colper-models`).
pub use colper_models as models;

/// The COLPER attack and its baselines (re-export of `colper-attack`).
pub use colper_attack as attack;

/// Segmentation and attack metrics (re-export of `colper-metrics`).
pub use colper_metrics as metrics;

/// Candidate defenses: input transforms, adversarial training, anomaly
/// detection (re-export of `colper-defense`).
pub use colper_defense as defense;

/// The attack × defense robustness matrix: registry, runner, ranked
/// report (re-export of `colper-matrix`).
pub use colper_matrix as matrix;

/// `colperd`: the pooled, backpressured attack service and its
/// load-test client (re-export of `colper-serve`).
pub use colper_serve as serve;
