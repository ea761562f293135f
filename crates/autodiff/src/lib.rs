//! Tape-based reverse-mode automatic differentiation for the COLPER
//! reproduction.
//!
//! COLPER is a gradient-based, white-box, test-time attack: every iteration
//! needs the exact gradient of a composite objective
//! `D(r) + λ1·L(X', Y) + λ2·S(X')` with respect to the *input color
//! channels* of a point cloud. This crate provides exactly that: a [`Tape`]
//! records a computation over [`colper_tensor::Matrix`] values as a DAG of
//! primitive operations, [`Tape::backward`] replays it in reverse, and
//! [`Tape::grad`] exposes the accumulated gradient of any leaf — whether it
//! is a network weight (training) or the adversarial color variable `w`
//! (attacking).
//!
//! The op set is tailored to point-cloud segmentation networks: dense
//! matmul and batch-norm for the shared MLPs, gather / grouped max-pool /
//! grouped softmax for neighborhood aggregation (PointNet++ set
//! abstraction, DeepGCN edge convolution, RandLA-Net attentive pooling),
//! interpolation for feature propagation, and fused losses (softmax
//! cross-entropy for training, the paper's CW-style hinges Eq. 7/8 and the
//! smoothness penalty Eq. 6 for attacking).
//!
//! # Example
//!
//! ```
//! use colper_tensor::Matrix;
//! use colper_autodiff::Tape;
//!
//! let mut t = Tape::new();
//! let x = t.leaf(Matrix::from_rows(&[&[0.5_f32, -1.0]]).unwrap());
//! let y = t.tanh(x);
//! let loss = t.sum(y);
//! t.backward(loss);
//! let g = t.grad(x).unwrap();
//! // d tanh(x)/dx = 1 - tanh(x)^2
//! assert!((g[(0, 0)] - (1.0 - 0.5_f32.tanh().powi(2))).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grad_check;
mod ops_basic;
mod ops_nn;
mod ops_struct;
mod tape;

pub use grad_check::{check_gradient, GradCheckReport};
pub use tape::{Tape, Var};
