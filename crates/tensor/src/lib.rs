//! Dense 2-D `f32` tensor math for the COLPER reproduction.
//!
//! Every higher layer of the workspace (the autodiff tape, the neural
//! network layers, the segmentation models and the attack itself) stores its
//! numerical state in the [`Matrix`] type defined here: a row-major,
//! heap-allocated `rows x cols` matrix of `f32`.
//!
//! The crate deliberately stays two-dimensional. Point clouds are sets of
//! `N` points with `C` per-point features, so `[N, C]` matrices plus a small
//! family of gather/group operations (provided by `colper-autodiff`) cover
//! every computation in the paper without the complexity of full n-d
//! broadcasting.
//!
//! # Example
//!
//! ```
//! use colper_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b).unwrap();
//! assert_eq!(c, a);
//! ```

// `unsafe` is denied crate-wide and allowed back in exactly two places:
// the SIMD intrinsics inside `kernels::avx2` and `kernels::avx512`, which
// are gated behind runtime feature detection and mirror the safe scalar
// reference bit for bit.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod gemm;
mod init;
pub mod kernels;
mod matrix;
mod ops;
mod par;
mod pool;
mod structural;

pub use error::{ShapeError, TensorError};
pub use gemm::{gemm_mode, set_gemm_mode, GemmMode};
pub use init::Initializer;
pub use kernels::Act;
pub use matrix::Matrix;
pub use pool::BufferPool;
pub use structural::{EdgeConv, GatherIndex};
