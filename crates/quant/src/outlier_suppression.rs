//! OutlierSuppression+ (Wei et al., 2023) re-implemented for Mamba2.
//!
//! OS+ conditions activations with *channel-wise shifting and scaling*
//! derived from calibration: `x' = (x − z) / s` with
//! `z_j = (max_j + min_j)/2` (centering asymmetric outliers) and `s_j`
//! equalizing post-shift ranges. Both are exact rewrites — the shift's
//! contribution is folded into a new projection bias, the scale into the
//! weight rows.
//!
//! On Mamba's *scattered* outliers the calibrated `z, s` fit channels that
//! were hot during calibration but not at evaluation (and vice versa); at
//! W4A4 the migrated weight ranges blow the 4-bit budget, reproducing the
//! collapse the paper reports in Table III (OS+ W4A4: ppl > 100).

use lightmamba_tensor::Tensor;

use crate::calib::ChannelStats;
use crate::prepared::{scale_rows, PreparedBlock};
use crate::Result;

/// Numerical floor for scale factors.
const EPS: f32 = 1e-5;

/// Channel-wise shift and scale derived from calibration ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftScale {
    /// Per-channel shift `z_j = (max_j + min_j)/2`.
    pub shift: Vec<f32>,
    /// Per-channel scale normalizing post-shift ranges.
    pub scale: Vec<f32>,
}

/// Computes OS+ factors from per-channel min/max.
pub fn shift_scale(min: &[f32], max: &[f32]) -> ShiftScale {
    let shift: Vec<f32> = min
        .iter()
        .zip(max.iter())
        .map(|(&lo, &hi)| (hi + lo) / 2.0)
        .collect();
    let half_range: Vec<f32> = min
        .iter()
        .zip(max.iter())
        .map(|(&lo, &hi)| ((hi - lo) / 2.0).max(EPS))
        .collect();
    let mean_range = (half_range.iter().sum::<f32>() / half_range.len().max(1) as f32).max(EPS);
    let scale = half_range
        .iter()
        .map(|&r| (r / mean_range).max(EPS))
        .collect();
    ShiftScale { shift, scale }
}

/// Conditions one projection's input from its calibration ranges:
/// `x' = (x − z)/s` at run time (the caller installs the returned factors),
/// `W' = diag(s)·W`, and `bias' = z·W` computed on the ORIGINAL weights.
fn condition(
    w: &mut Tensor,
    bias: &mut Option<Vec<f32>>,
    stats: &ChannelStats,
) -> Result<ShiftScale> {
    let ss = shift_scale(&stats.min, &stats.max);
    let mut folded = w.vecmat(&ss.shift)?;
    scale_rows(w, &ss.scale);
    if let Some(existing) = bias.take() {
        for (f, e) in folded.iter_mut().zip(existing) {
            *f += e;
        }
    }
    *bias = Some(folded);
    Ok(ss)
}

/// OS+ on one block, from its layer's in_proj and out_proj calibration
/// ranges. The method has nothing to rewrite outside the blocks.
///
/// # Errors
///
/// Propagates tensor shape errors.
pub(crate) fn apply_block(
    block: &mut PreparedBlock,
    in_stats: &ChannelStats,
    out_stats: &ChannelStats,
) -> Result<()> {
    let ss = condition(&mut block.w_in, &mut block.w_in_bias, in_stats)?;
    block.in_act_shift = Some(ss.shift);
    block.in_act_scale = Some(ss.scale);
    let ss = condition(&mut block.w_out, &mut block.w_out_bias, out_stats)?;
    block.out_act_shift = Some(ss.shift);
    block.out_act_scale = Some(ss.scale);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib;
    use crate::pipeline::{quantize_model, Method, QuantSpec};
    use lightmamba_model::corpus::SyntheticCorpus;
    use lightmamba_model::eval::{compare_models, ReferenceRunner};
    use lightmamba_model::{MambaConfig, MambaModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (MambaModel, Vec<Vec<u32>>) {
        let model =
            MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(8)).unwrap();
        let seqs =
            SyntheticCorpus::for_vocab(256).calibration_set(&mut StdRng::seed_from_u64(9), 3, 8);
        (model, seqs)
    }

    #[test]
    fn shift_centers_and_scale_normalizes() {
        let ss = shift_scale(&[-1.0, -8.0], &[3.0, 8.0]);
        assert_eq!(ss.shift, vec![1.0, 0.0]);
        // Half-ranges 2 and 8, mean 5 → scales 0.4 and 1.6.
        assert!((ss.scale[0] - 0.4).abs() < 1e-5);
        assert!((ss.scale[1] - 1.6).abs() < 1e-5);
    }

    #[test]
    fn degenerate_ranges_are_floored() {
        let ss = shift_scale(&[0.0], &[0.0]);
        assert!(ss.scale[0] >= EPS);
        assert_eq!(ss.shift[0], 0.0);
    }

    #[test]
    fn rewrite_preserves_fp_function() {
        let (model, seqs) = setup();
        let method = Method::OutlierSuppressionPlus;
        let mut q = quantize_model(&model, method, &QuantSpec::fp16(), &seqs).unwrap();
        let mut r = ReferenceRunner::new(model);
        let rep = compare_models(&mut r, &mut q, &seqs).unwrap();
        assert!(rep.mean_kl < 1e-3, "fp invariance broken: {}", rep.mean_kl);
        assert!(rep.agreement > 0.99);
    }

    #[test]
    fn biases_are_installed() {
        let (model, seqs) = setup();
        let stats = calib::collect(&model, &seqs).unwrap();
        let mut p = PreparedBlock::from_reference(&model.blocks()[0]);
        apply_block(&mut p, &stats.in_proj[0], &stats.out_proj[0]).unwrap();
        assert!(p.w_in_bias.is_some());
        assert!(p.w_out_bias.is_some());
        assert!(p.in_act_shift.is_some());
        assert!(p.out_act_scale.is_some());
    }
}
