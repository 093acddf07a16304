//! End-to-end PTQ pipeline: method selection → rewrite → quantize → model.
//!
//! This is the programmatic form of the paper's Table III rows: pick a
//! [`Method`], a [`QuantSpec`] (W8A8 / W4A4, with or without SSM
//! quantization), provide calibration sequences for the channel-wise
//! baselines, and get a runnable [`QuantizedMamba`].

use lightmamba_model::MambaModel;

use crate::calib;
use crate::prepared::PreparedModel;
use crate::qmodel::{Precision, QuantizedMamba};
use crate::rotation::{self, RotationConfig};
use crate::{outlier_suppression, smoothquant, Result};

/// Outlier-handling method (the rows of Tables II and III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Round-to-nearest, no conditioning.
    Rtn,
    /// SmoothQuant with migration strength α = 0.5.
    SmoothQuant,
    /// OutlierSuppression+ (channel-wise shift and scale).
    OutlierSuppressionPlus,
    /// LightMamba: rotation-assisted quantization, linear layers only.
    LightMamba,
    /// LightMamba*: rotation-assisted quantization plus PoT SSM
    /// quantization (the entire model).
    LightMambaStar,
}

impl Method {
    /// All methods in the paper's table order.
    pub const ALL: [Method; 5] = [
        Method::Rtn,
        Method::SmoothQuant,
        Method::OutlierSuppressionPlus,
        Method::LightMamba,
        Method::LightMambaStar,
    ];

    /// Display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Method::Rtn => "RTN",
            Method::SmoothQuant => "SQ",
            Method::OutlierSuppressionPlus => "OS+",
            Method::LightMamba => "LightMamba",
            Method::LightMambaStar => "LightMamba*",
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Precision recipe for the pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantSpec {
    /// Execution precision (weight/activation/SSM schemes).
    pub precision: Precision,
    /// Group size used by per-group schemes (paper: 128; scaled-down
    /// models use smaller groups).
    pub group: usize,
}

impl QuantSpec {
    /// Paper W8A8 recipe: per-channel weights, per-token activations.
    pub fn w8a8() -> Self {
        QuantSpec {
            precision: Precision::w8a8(),
            group: 128,
        }
    }

    /// Paper W4A4 recipe with group size 128.
    pub fn w4a4() -> Self {
        Self::w4a4_grouped(128)
    }

    /// W4A4 with an explicit group size (for scaled-down models).
    pub fn w4a4_grouped(group: usize) -> Self {
        QuantSpec {
            precision: Precision::w4a4(group),
            group,
        }
    }

    /// FP16-equivalent (no quantization) — the Table III baseline row.
    pub fn fp16() -> Self {
        QuantSpec {
            precision: Precision::fp(),
            group: 128,
        }
    }
}

/// Applies `method`'s weight rewrite to a prepared model.
///
/// `calibration` must be non-empty for calibration-based methods; rotation
/// methods ignore it.
///
/// # Errors
///
/// Propagates calibration, rotation, and shape errors.
pub fn rewrite(
    prepared: &mut PreparedModel,
    method: Method,
    reference: &MambaModel,
    calibration: &[Vec<u32>],
) -> Result<()> {
    match method {
        // Round-to-nearest is the no-conditioning baseline: nothing to rewrite.
        Method::Rtn => Ok(()),
        Method::SmoothQuant => {
            let stats = calib::collect(reference, calibration)?;
            smoothquant::apply(prepared, &stats, 0.5)
        }
        Method::OutlierSuppressionPlus => {
            let stats = calib::collect(reference, calibration)?;
            outlier_suppression::apply(prepared, &stats)
        }
        Method::LightMamba | Method::LightMambaStar => {
            rotation::apply(prepared, &RotationConfig::default())
        }
    }
}

fn finalize_precision(method: Method, spec: &QuantSpec) -> Precision {
    if method == Method::LightMambaStar {
        spec.precision.with_ssm_pot(spec.group)
    } else {
        spec.precision
    }
}

/// The pipeline: prepare the FP reference, rewrite it under `method`, and
/// quantize it under `spec`. For [`Method::LightMambaStar`] the SSM is
/// additionally quantized with the PoT INT8 scheme at `spec.group`
/// granularity.
///
/// # Errors
///
/// Propagates preparation, calibration, and quantization errors.
pub fn quantize_model(
    reference: &MambaModel,
    method: Method,
    spec: &QuantSpec,
    calibration: &[Vec<u32>],
) -> Result<QuantizedMamba> {
    let mut prepared = PreparedModel::from_reference(reference)?;
    rewrite(&mut prepared, method, reference, calibration)?;
    QuantizedMamba::new(prepared, finalize_precision(method, spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightmamba_model::corpus::SyntheticCorpus;
    use lightmamba_model::eval::{compare_models, ReferenceRunner};
    use lightmamba_model::MambaConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (MambaModel, Vec<Vec<u32>>) {
        let model =
            MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(31)).unwrap();
        let seqs =
            SyntheticCorpus::for_vocab(256).calibration_set(&mut StdRng::seed_from_u64(32), 3, 8);
        (model, seqs)
    }

    #[test]
    fn every_method_produces_a_runnable_model() {
        let (model, seqs) = setup();
        let spec = QuantSpec::w4a4_grouped(16);
        for method in Method::ALL {
            let mut q = quantize_model(&model, method, &spec, &seqs).unwrap();
            let mut r = ReferenceRunner::new(model.clone());
            let rep = compare_models(&mut r, &mut q, &seqs[..1]).unwrap();
            assert!(rep.mean_kl.is_finite(), "{method} produced NaN divergence");
        }
    }

    #[test]
    fn star_variant_quantizes_ssm() {
        let (model, seqs) = setup();
        let spec = QuantSpec::w8a8();
        let q = quantize_model(&model, Method::LightMambaStar, &spec, &seqs).unwrap();
        assert!(q.precision().ssm.is_some());
        let q2 = quantize_model(&model, Method::LightMamba, &spec, &seqs).unwrap();
        assert!(q2.precision().ssm.is_none());
    }

    #[test]
    fn rtn_rewrite_is_the_identity() {
        let (model, _) = setup();
        let mut p = PreparedModel::from_reference(&model).unwrap();
        let before = p.blocks[0].w_out.clone();
        rewrite(&mut p, Method::Rtn, &model, &[]).unwrap();
        assert_eq!(p.blocks[0].w_out, before);
        assert!(p.blocks[0].in_act_scale.is_none());
    }

    #[test]
    fn method_metadata() {
        assert_eq!(Method::ALL.len(), 5);
        assert_eq!(Method::OutlierSuppressionPlus.to_string(), "OS+");
    }

    #[test]
    fn w8a8_rotation_is_near_lossless_end_to_end() {
        let (model, seqs) = setup();
        let mut q = quantize_model(&model, Method::LightMamba, &QuantSpec::w8a8(), &seqs).unwrap();
        let mut r = ReferenceRunner::new(model);
        let rep = compare_models(&mut r, &mut q, &seqs).unwrap();
        assert!(rep.mean_kl < 0.1, "kl {}", rep.mean_kl);
        assert!(rep.agreement > 0.8, "agreement {}", rep.agreement);
    }
}
