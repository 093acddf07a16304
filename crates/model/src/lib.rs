//! Mamba2 inference substrate for the LightMamba reproduction.
//!
//! Implements the architecture of the paper's Fig. 1: per block an input
//! projection producing `(z, x, B, C, Δ)`, a depthwise causal conv1d over
//! `(x, B, C)`, the SSM recurrence
//! `h_t = Ā ⊙ h_{t−1} + (Δ·B) ⊗ x`, `y = h_t·C + D ⊙ x`, a gated RMSNorm,
//! and an output projection — wrapped in a pre-norm residual stream with
//! tied embedding / LM head.
//!
//! Because pretrained checkpoints are unavailable in this environment, the
//! crate ships [`synth`]: structurally faithful synthetic weights whose
//! activation statistics reproduce the paper's key observation (Fig. 2) —
//! *scattered* activation outliers that change channels from token to token
//! — plus a synthetic corpus and fidelity metrics substituting for
//! lm-eval-harness (see README.md §"Reproducing the paper").
//!
//! # Example
//!
//! ```
//! use lightmamba_model::{MambaConfig, MambaModel};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), lightmamba_model::ModelError> {
//! let cfg = MambaConfig::tiny();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let model = MambaModel::synthetic(cfg, &mut rng)?;
//! let mut state = model.new_state();
//! let logits = model.forward_step(3, &mut state)?;
//! assert_eq!(logits.len(), model.config().vocab_size);
//! # Ok(())
//! # }
//! ```

pub mod batch;

mod block;
mod config;
mod error;
mod model;
mod state;

pub mod corpus;
pub mod eval;
pub mod sampler;
pub mod ssm;
pub mod synth;
pub mod transformer;
pub mod weights;

pub use batch::{DecodeKernels, DecodeWorkspace, LayerBatch, ParDecodeWorkspace, Workspace};
pub use block::{BlockCapture, BlockScratch, MambaBlock};
pub use config::{MambaConfig, ModelPreset};
pub use error::ModelError;
pub use model::{Capture, MambaModel};
pub use state::{LayerState, ModelState};
pub use weights::{BlockWeights, ModelWeights};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, ModelError>;
