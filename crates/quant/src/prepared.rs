//! A Mamba2 model "prepared" for quantization.
//!
//! All outlier-handling methods (SmoothQuant, OS+, rotation) are
//! *computationally invariant* weight rewrites: they change where numbers
//! live without changing the FP function. [`PreparedModel`] is the mutable
//! container those rewrites edit — an unpacked copy of the reference
//! weights with the extra degrees of freedom the methods need (untied LM
//! head, optional projection biases, optional online Hadamard before
//! out_proj).

use lightmamba_hadamard::FactoredHadamard;
use lightmamba_model::weights::InProjSplit;
use lightmamba_model::{MambaConfig, MambaModel};
use lightmamba_tensor::Tensor;

use crate::calib::CalibrationStats;
use crate::{QuantError, Result};

/// One block's prepared weights (see module docs).
#[derive(Debug, Clone)]
pub struct PreparedBlock {
    /// Pre-norm scale; all-ones after rotation fusion ②.
    pub norm_gamma: Vec<f32>,
    /// Input projection `(d_model, d_in_proj)`.
    pub w_in: Tensor,
    /// Optional input-projection bias (introduced by OS+ shifting).
    pub w_in_bias: Option<Vec<f32>>,
    /// Per-input-channel divisor applied to the in_proj input activation
    /// at run time (SmoothQuant/OS+ scaling; `None` = no scaling).
    pub in_act_scale: Option<Vec<f32>>,
    /// Per-input-channel shift subtracted from the in_proj input at run
    /// time (OS+; `None` = no shift).
    pub in_act_shift: Option<Vec<f32>>,
    /// Depthwise conv weights `(conv_dim, d_conv)` and bias.
    pub conv_weight: Tensor,
    /// Conv bias, length `conv_dim`.
    pub conv_bias: Vec<f32>,
    /// `log A` per head.
    pub a_log: Vec<f32>,
    /// Δ bias per head.
    pub dt_bias: Vec<f32>,
    /// Skip coefficient per head.
    pub d_skip: Vec<f32>,
    /// Gated-norm scale before out_proj (the paper keeps this *unfused*,
    /// Fig. 4b).
    pub gate_norm_gamma: Vec<f32>,
    /// Online Hadamard applied to the out_proj input (rotation ③).
    pub online_hadamard: Option<FactoredHadamard>,
    /// Per-input-channel divisor for the out_proj input (SmoothQuant/OS+).
    pub out_act_scale: Option<Vec<f32>>,
    /// Per-input-channel shift for the out_proj input (OS+).
    pub out_act_shift: Option<Vec<f32>>,
    /// Output projection `(d_inner, d_model)`.
    pub w_out: Tensor,
    /// Optional output-projection bias (introduced by OS+ shifting).
    pub w_out_bias: Option<Vec<f32>>,
}

/// A full prepared model with untied embedding / LM head.
#[derive(Debug, Clone)]
pub struct PreparedModel {
    /// Model configuration.
    pub cfg: MambaConfig,
    /// Token embedding `(vocab, d_model)` (rotated by fusion ①).
    pub embedding: Tensor,
    /// LM head `(d_model, vocab)` (rotated by fusion ⑤; starts as `Eᵀ`).
    pub lm_head: Tensor,
    /// Final RMSNorm scale; all-ones after fusion ⑤ splits it into the head.
    pub final_norm_gamma: Vec<f32>,
    /// Per-layer prepared blocks.
    pub blocks: Vec<PreparedBlock>,
}

impl PreparedModel {
    /// Unpacks a reference model into the prepared form (no rewrites yet).
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from the LM-head transpose.
    pub fn from_reference(model: &MambaModel) -> Result<Self> {
        let cfg = model.config().clone();
        let lm_head = model.embedding().transpose()?;
        let blocks = model
            .blocks()
            .iter()
            .map(|b| {
                let w = b.weights();
                PreparedBlock {
                    norm_gamma: w.norm_gamma.clone(),
                    w_in: w.w_in.clone(),
                    w_in_bias: None,
                    in_act_scale: None,
                    in_act_shift: None,
                    conv_weight: w.conv_weight.clone(),
                    conv_bias: w.conv_bias.clone(),
                    a_log: w.a_log.clone(),
                    dt_bias: w.dt_bias.clone(),
                    d_skip: w.d_skip.clone(),
                    gate_norm_gamma: w.gate_norm_gamma.clone(),
                    online_hadamard: None,
                    out_act_scale: None,
                    out_act_shift: None,
                    w_out: w.w_out.clone(),
                    w_out_bias: None,
                }
            })
            .collect();
        Ok(PreparedModel {
            final_norm_gamma: model.final_norm_gamma().to_vec(),
            cfg,
            embedding: model.embedding().clone(),
            lm_head,
            blocks,
        })
    }

    /// The input-projection column split for this configuration.
    pub fn split(&self) -> InProjSplit {
        InProjSplit::new(&self.cfg)
    }

    /// Checks that `stats` was collected on a model of this shape — the
    /// precondition of the calibrated rewrites (SmoothQuant, OS+).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidCalibration`] when the layer count or a
    /// layer's channel widths differ.
    pub(crate) fn check_calibration(&self, stats: &CalibrationStats) -> Result<()> {
        if stats.in_proj.len() != self.blocks.len() || stats.out_proj.len() != self.blocks.len() {
            return Err(QuantError::InvalidCalibration(format!(
                "calibration covers {} layers, model has {}",
                stats.in_proj.len(),
                self.blocks.len()
            )));
        }
        for (l, (in_stats, out_stats)) in stats.in_proj.iter().zip(&stats.out_proj).enumerate() {
            if in_stats.channels() != self.cfg.d_model || out_stats.channels() != self.cfg.d_inner()
            {
                return Err(QuantError::InvalidCalibration(format!(
                    "layer {l} calibration channel width mismatch"
                )));
            }
        }
        Ok(())
    }
}

/// Scales row `r` of the weight matrix `t` by `factors[r]` in place
/// (`W ← diag(f)·W`), the step every rewrite folds a per-input-channel
/// factor into a projection with.
pub(crate) fn scale_rows(t: &mut Tensor, factors: &[f32]) {
    let (rows, cols) = t.as_matrix_dims().expect("weight is a matrix");
    debug_assert_eq!(rows, factors.len());
    for (row, f) in t.data_mut().chunks_exact_mut(cols).zip(factors) {
        for v in row {
            *v *= f;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightmamba_model::MambaConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_reference_copies_everything() {
        let model =
            MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(0)).unwrap();
        let p = PreparedModel::from_reference(&model).unwrap();
        assert_eq!(p.blocks.len(), model.config().n_layer);
        assert_eq!(p.embedding, *model.embedding());
        assert_eq!(
            p.lm_head.dims(),
            &[model.config().d_model, model.config().vocab_size]
        );
        assert!(p.blocks[0].online_hadamard.is_none());
    }
}
