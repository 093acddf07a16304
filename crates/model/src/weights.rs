//! Weight containers for a Mamba2 model.
//!
//! Layout conventions (all row-major):
//! * projections are stored `(in_features, out_features)` so a decode-step
//!   activation row-vector multiplies from the left (`y = x · W`);
//! * the input projection's output columns are ordered `z | x | B | C | Δ`;
//! * conv weights are `(conv_dim, d_conv)` with taps oldest→newest.

use lightmamba_tensor::Tensor;

use crate::{MambaConfig, ModelError, Result};

/// Weights of one Mamba block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockWeights {
    /// Pre-norm scale `γ`, length `d_model`.
    pub norm_gamma: Vec<f32>,
    /// Input projection `(d_model, d_in_proj)`.
    pub w_in: Tensor,
    /// Depthwise conv weights `(conv_dim, d_conv)`.
    pub conv_weight: Tensor,
    /// Conv bias, length `conv_dim`.
    pub conv_bias: Vec<f32>,
    /// `log A` per head (state decay is `exp(-exp(a_log)·Δ)`), length `nheads`.
    pub a_log: Vec<f32>,
    /// Bias added to `Δ` before softplus, length `nheads`.
    pub dt_bias: Vec<f32>,
    /// Skip coefficient `D` per head, length `nheads`.
    pub d_skip: Vec<f32>,
    /// Gated-RMSNorm scale before out_proj, length `d_inner`.
    pub gate_norm_gamma: Vec<f32>,
    /// Output projection `(d_inner, d_model)`.
    pub w_out: Tensor,
}

impl BlockWeights {
    /// Validates all shapes against `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] naming the first mismatching
    /// field.
    pub fn validate(&self, cfg: &MambaConfig) -> Result<()> {
        let check = |name: &str, ok: bool| -> Result<()> {
            if ok {
                Ok(())
            } else {
                Err(ModelError::InvalidConfig(format!(
                    "block weight {name} has wrong shape"
                )))
            }
        };
        check("norm_gamma", self.norm_gamma.len() == cfg.d_model)?;
        check("w_in", self.w_in.dims() == [cfg.d_model, cfg.d_in_proj()])?;
        check(
            "conv_weight",
            self.conv_weight.dims() == [cfg.conv_dim(), cfg.d_conv],
        )?;
        check("conv_bias", self.conv_bias.len() == cfg.conv_dim())?;
        check("a_log", self.a_log.len() == cfg.nheads())?;
        check("dt_bias", self.dt_bias.len() == cfg.nheads())?;
        check("d_skip", self.d_skip.len() == cfg.nheads())?;
        check(
            "gate_norm_gamma",
            self.gate_norm_gamma.len() == cfg.d_inner(),
        )?;
        check("w_out", self.w_out.dims() == [cfg.d_inner(), cfg.d_model])?;
        Ok(())
    }
}

/// Full model weights (embedding is tied to the LM head).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelWeights {
    /// Token embedding `(vocab_size, d_model)`; also the LM head.
    pub embedding: Tensor,
    /// One entry per layer.
    pub blocks: Vec<BlockWeights>,
    /// Final RMSNorm scale, length `d_model`.
    pub final_norm_gamma: Vec<f32>,
}

impl ModelWeights {
    /// Validates all shapes against `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] naming the first mismatching
    /// field.
    pub fn validate(&self, cfg: &MambaConfig) -> Result<()> {
        if self.embedding.dims() != [cfg.vocab_size, cfg.d_model] {
            return Err(ModelError::InvalidConfig(
                "embedding has wrong shape".into(),
            ));
        }
        if self.blocks.len() != cfg.n_layer {
            return Err(ModelError::InvalidConfig(format!(
                "expected {} blocks, got {}",
                cfg.n_layer,
                self.blocks.len()
            )));
        }
        if self.final_norm_gamma.len() != cfg.d_model {
            return Err(ModelError::InvalidConfig(
                "final_norm_gamma has wrong length".into(),
            ));
        }
        for b in &self.blocks {
            b.validate(cfg)?;
        }
        Ok(())
    }
}

/// Slices of the input-projection output, in column order `z|x|B|C|Δ`.
///
/// The computation-reordering optimization (paper Sec. V-B) permutes the
/// *generation order* of these slices on hardware; the logical layout here
/// stays fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InProjSplit {
    /// `[z_start, z_end)` — the SiLU gate.
    pub z: (usize, usize),
    /// `[x_start, x_end)` — the SSM input.
    pub x: (usize, usize),
    /// `[b_start, b_end)` — the input matrix `B` (per group).
    pub b: (usize, usize),
    /// `[c_start, c_end)` — the output matrix `C` (per group).
    pub c: (usize, usize),
    /// `[dt_start, dt_end)` — the timestep `Δ` (per head).
    pub dt: (usize, usize),
}

impl InProjSplit {
    /// Computes the split for a configuration.
    pub fn new(cfg: &MambaConfig) -> Self {
        let di = cfg.d_inner();
        let g = cfg.ngroups * cfg.d_state;
        let z = (0, di);
        let x = (di, 2 * di);
        let b = (2 * di, 2 * di + g);
        let c = (2 * di + g, 2 * di + 2 * g);
        let dt = (2 * di + 2 * g, 2 * di + 2 * g + cfg.nheads());
        InProjSplit { z, x, b, c, dt }
    }

    /// `[x_start, c_end)` — the conv input `x | B | C`, one contiguous
    /// run of the projection.
    pub fn xbc(&self) -> (usize, usize) {
        (self.x.0, self.c.1)
    }

    /// Total width (must equal `cfg.d_in_proj()`).
    pub fn width(&self) -> usize {
        self.dt.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn split_covers_d_in_proj() {
        let cfg = MambaConfig::tiny();
        let s = InProjSplit::new(&cfg);
        assert_eq!(s.width(), cfg.d_in_proj());
        assert_eq!(s.z.0, 0);
        assert_eq!(s.z.1, s.x.0);
        assert_eq!(s.x.1, s.b.0);
        assert_eq!(s.b.1, s.c.0);
        assert_eq!(s.c.1, s.dt.0);
    }

    #[test]
    fn synthetic_weights_validate() {
        let cfg = MambaConfig::tiny();
        let mut rng = StdRng::seed_from_u64(0);
        let w = synth::synthetic_weights(&cfg, &mut rng);
        w.validate(&cfg).unwrap();
    }

    #[test]
    fn validation_catches_block_count() {
        let cfg = MambaConfig::tiny();
        let mut rng = StdRng::seed_from_u64(0);
        let mut w = synth::synthetic_weights(&cfg, &mut rng);
        w.blocks.pop();
        assert!(w.validate(&cfg).is_err());
    }

    #[test]
    fn validation_catches_bad_shape() {
        let cfg = MambaConfig::tiny();
        let mut rng = StdRng::seed_from_u64(0);
        let mut w = synth::synthetic_weights(&cfg, &mut rng);
        w.blocks[0].a_log.pop();
        assert!(w.validate(&cfg).is_err());
        let mut w2 = synth::synthetic_weights(&cfg, &mut rng);
        w2.final_norm_gamma.push(0.0);
        assert!(w2.validate(&cfg).is_err());
    }
}
