//! Minimal dense-tensor substrate for the LightMamba reproduction.
//!
//! The paper's algorithms (Mamba2 inference, rotation-assisted quantization,
//! power-of-two SSM quantization) only require dense `f32` tensors with a
//! handful of kernels: matrix multiplication, element-wise arithmetic, the
//! SiLU/Softplus/exp activations, RMS normalization, depthwise causal conv1d,
//! and distribution statistics. This crate implements exactly that surface —
//! no autograd, no broadcasting zoo — so the numerics above it stay auditable.
//!
//! # Example
//!
//! ```
//! use lightmamba_tensor::Tensor;
//!
//! # fn main() -> Result<(), lightmamba_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok(())
//! # }
//! ```

mod error;
mod shape;
mod tensor;

pub mod activation;
pub mod conv;
pub mod isa;
pub mod norm;
pub mod ops;
pub mod rng;
pub mod stats;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, TensorError>;
