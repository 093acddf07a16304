//! Hadamard transforms for rotation-assisted quantization.
//!
//! LightMamba (Sec. IV-A / V-A of the paper) removes scattered activation
//! outliers by rotating activations and weights with orthonormal Hadamard
//! matrices. Two hardware variants exist on the accelerator:
//!
//! * a **power-of-two Fast Hadamard Transform** (128-point HTU, seven
//!   butterfly stages — [`fwht`]), and
//! * a **non-power-of-two matrix Hadamard** (40-point HTU implemented as a
//!   tiny MMU with a ±1 weight matrix — [`HadamardMatrix`]).
//!
//! Dimensions that are neither a power of two nor a constructible order are
//! handled by the Kronecker factorization `H_n = H_{2^k} ⊗ H_m`
//! ([`FactoredHadamard`]); e.g. Mamba2-2.7B's `d_inner = 5120 = 128 × 40`,
//! exactly the two HTU variants the paper instantiates.
//!
//! # Example
//!
//! ```
//! use lightmamba_hadamard::FactoredHadamard;
//!
//! # fn main() -> Result<(), lightmamba_hadamard::HadamardError> {
//! let h = FactoredHadamard::new(5120)?; // 2.7B d_inner = 128-pt FHT ⊗ 40-pt matrix
//! let mut x = vec![0.0; 5120];
//! x[0] = 1.0;
//! h.apply(&mut x);
//! // Orthonormal: the energy is preserved.
//! let energy: f32 = x.iter().map(|v| v * v).sum();
//! assert!((energy - 1.0).abs() < 1e-4);
//! # Ok(())
//! # }
//! ```

mod error;
mod factored;
mod fht;
mod matrix;
mod random;

pub use error::HadamardError;
pub use factored::FactoredHadamard;
pub use fht::{fwht, fwht_normalized, is_power_of_two};
pub use matrix::HadamardMatrix;
pub use random::RandomizedHadamard;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, HadamardError>;
