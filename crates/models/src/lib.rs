//! Rust re-implementations of the three point-cloud semantic-segmentation
//! networks the COLPER paper attacks.
//!
//! | Model | Family | Defining mechanism reproduced here |
//! |---|---|---|
//! | [`PointNet2`] | hierarchical set CNN | farthest-point-sampled set abstraction (ball query + shared MLP + max pool) and 3-NN feature propagation |
//! | [`ResGcn`] | graph CNN (DeepGCN) | dilated k-NN edge convolution with residual connections, stackable to the paper's 28 blocks |
//! | [`RandLaNet`] | random-sampling aggregation | random downsampling, local spatial encoding and attentive pooling, nearest-neighbor upsampling |
//!
//! All three implement [`SegmentationModel`]: a pure forward pass over a
//! [`colper_nn::Forward`] session that maps per-point features (xyz +
//! RGB + normalized location — the nine S3DIS features) to per-point
//! class logits. Because inputs are tape variables, the same forward pass
//! serves training (parameter gradients), inference, and the attack
//! (input-color gradients).
//!
//! Widths and depths default to CPU-friendly values; the paper-scale
//! configurations are available via `Config::paper()` constructors.
//!
//! # Example
//!
//! ```
//! use colper_models::{CloudTensors, PointNet2, PointNet2Config, predict};
//! use colper_scene::{IndoorSceneConfig, SceneGenerator};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let cloud = SceneGenerator::indoor(IndoorSceneConfig::with_points(256)).generate(1);
//! let tensors = CloudTensors::from_cloud(&cloud);
//! let model = PointNet2::new(PointNet2Config::tiny(13), &mut rng);
//! let preds = predict(&model, &tensors, &mut rng);
//! assert_eq!(preds.len(), 256);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod input;
mod persist;
mod plan;
mod pointnet2;
mod randlanet;
mod resgcn;
mod train;
mod traits;

pub use input::{bind_input, bind_input_planned, CloudTensors, ColorBinding, ModelInput};
pub use persist::{load_model, save_pointnet2, save_randlanet, save_resgcn, LoadedModel};
pub use plan::{GeometryPlan, PointNet2Plan, RandLaPlan, ResGcnPlan};
pub use pointnet2::{PointNet2, PointNet2Config};
pub use randlanet::{RandLaNet, RandLaNetConfig};
pub use resgcn::{ResGcn, ResGcnConfig};
pub use train::{train_model, TrainConfig, TrainReport};
pub use traits::{
    evaluate_on, evaluate_on_planned, logits_of, logits_of_planned, predict, predict_planned,
    SegmentationModel,
};
