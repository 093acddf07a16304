//! End-to-end PTQ pipeline: method selection → rewrite → quantize → model.
//!
//! This is the programmatic form of the paper's Table III rows: pick a
//! [`Method`], a [`QuantSpec`] (W8A8 / W4A4, with or without SSM
//! quantization), provide calibration sequences for the channel-wise
//! baselines, and get a runnable [`QuantizedMamba`].
//!
//! [`quantize_model`] is the one way a [`QuantizedMamba`] is built. It
//! works one block at a time, the way a checkpoint is read: each block
//! is prepared, rewritten, quantized and packed, and its f32 weights are
//! dropped before the next block is read. The model-level tensors
//! follow once the blocks are done (and the dense HTU rotation is
//! freed): the embedding, then the LM head, which is rewritten straight
//! into its packer one 32-output tile at a time. So the set-up never
//! holds a second f32 copy of the model: its high-water above the
//! reference is what it keeps plus one block's working set.

use lightmamba_model::MambaModel;
use lightmamba_pool::WorkerPool;
use lightmamba_tensor::Tensor;

use crate::calib::{self, CalibrationStats};
use crate::prepared::PreparedBlock;
use crate::qmodel::{Precision, QuantBuilder, QuantizedMamba};
use crate::rotation::{Rotation, RotationConfig};
use crate::{outlier_suppression, smoothquant, Result};

/// SmoothQuant's migration strength α.
const SMOOTHQUANT_ALPHA: f32 = 0.5;

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
}

impl QuantSpec {
    /// Paper W8A8 recipe: per-channel weights, per-token activations.
    pub fn w8a8() -> Self {
        QuantSpec {
            precision: Precision::w8a8(),
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
        }
    }

    /// FP16-equivalent (no quantization) — the Table III baseline row.
    pub fn fp16() -> Self {
        QuantSpec {
            precision: Precision::fp(),
        }
    }
}

fn finalize_precision(method: Method, spec: &QuantSpec) -> Precision {
    if method == Method::LightMambaStar {
        spec.precision.with_ssm_pot()
    } else {
        spec.precision
    }
}

/// The pipeline: prepare the FP reference, rewrite it under `method`, and
/// quantize it under `spec`, one block at a time (module docs). For
/// [`Method::LightMambaStar`] the SSM is additionally quantized with the
/// PoT INT8 scheme ([`Precision::with_ssm_pot`]).
///
/// # Errors
///
/// Returns [`crate::QuantError::InvalidScheme`] for an invalid precision
/// before any set-up work; otherwise propagates calibration, rotation
/// and quantization errors.
pub fn quantize_model(
    reference: &MambaModel,
    method: Method,
    spec: &QuantSpec,
    calibration: &[Vec<u32>],
) -> Result<QuantizedMamba> {
    let build = QuantBuilder::new(reference.config().clone(), finalize_precision(method, spec))?;
    let rewrite = Rewrite::new(method, reference, calibration)?;
    stream(reference, rewrite, build)
}

/// Streams `reference` through `rewrite` into `build`, one block at a
/// time, then the embedding and the LM head tile by tile (module docs).
///
/// # Errors
///
/// Propagates rewrite and quantization errors.
pub(crate) fn stream(
    reference: &MambaModel,
    mut rewrite: Rewrite,
    mut build: QuantBuilder,
) -> Result<QuantizedMamba> {
    let cfg = reference.config();
    for (l, block) in reference.blocks().iter().enumerate() {
        let mut prepared = PreparedBlock::from_reference(block);
        rewrite.block(l, &mut prepared)?;
        build.block(prepared)?;
    }
    rewrite.end_blocks();
    let embedding = rewrite.embedding(reference.embedding())?;
    let gamma = reference.final_norm_gamma();
    let (e, d_model) = (reference.embedding().data(), cfg.d_model);
    let final_norm_gamma = rewrite.final_norm_gamma(gamma);
    // The LM head starts as `Eᵀ`: output (token) `j`'s inputs are `E[j]`.
    build.finish(embedding, final_norm_gamma, |tokens, rows| {
        rewrite.head_rows(
            &e[tokens.start * d_model..tokens.end * d_model],
            gamma,
            rows,
        )
    })
}

/// One method's rewrite as [`quantize_model`] streams it: set up once,
/// applied block by block, then to the model-level tensors.
#[derive(Debug)]
pub(crate) enum Rewrite {
    /// Round-to-nearest: nothing to rewrite.
    None,
    SmoothQuant(CalibrationStats),
    OutlierSuppression(CalibrationStats),
    Rotation(Rotation),
}

impl Rewrite {
    fn new(method: Method, reference: &MambaModel, calibration: &[Vec<u32>]) -> Result<Self> {
        let calibrated = || calib::collect(reference, calibration);
        Ok(match method {
            Method::Rtn => Rewrite::None,
            Method::SmoothQuant => Rewrite::SmoothQuant(calibrated()?),
            Method::OutlierSuppressionPlus => Rewrite::OutlierSuppression(calibrated()?),
            Method::LightMamba | Method::LightMambaStar => Rewrite::Rotation(Rotation::new(
                &RotationConfig::default(),
                reference.config(),
                WorkerPool::per_cpu(),
            )?),
        })
    }

    /// Rewrites block `l`.
    fn block(&self, l: usize, block: &mut PreparedBlock) -> Result<()> {
        match self {
            Rewrite::None => Ok(()),
            Rewrite::SmoothQuant(stats) => {
                smoothquant::apply_block(
                    block,
                    &stats.in_proj[l],
                    &stats.out_proj[l],
                    SMOOTHQUANT_ALPHA,
                );
                Ok(())
            }
            Rewrite::OutlierSuppression(stats) => {
                outlier_suppression::apply_block(block, &stats.in_proj[l], &stats.out_proj[l])
            }
            Rewrite::Rotation(rotation) => rotation.block(block),
        }
    }

    /// Frees what only the blocks needed.
    fn end_blocks(&mut self) {
        if let Rewrite::Rotation(rotation) = self {
            rotation.end_blocks();
        }
    }

    /// The rewritten embedding.
    fn embedding(&self, embedding: &Tensor) -> Result<Tensor> {
        match self {
            Rewrite::Rotation(rotation) => rotation.embedding(embedding),
            _ => Ok(embedding.clone()),
        }
    }

    /// Rewrites some of the LM head's outputs, each a row of `d_model`
    /// `inputs`, into `rows` ([`Rotation::head_rows`]).
    fn head_rows(&self, inputs: &[f32], gamma: &[f32], rows: &mut [f32]) -> Result<()> {
        match self {
            Rewrite::Rotation(rotation) => rotation.head_rows(inputs, gamma, rows),
            _ => {
                rows.copy_from_slice(inputs);
                Ok(())
            }
        }
    }

    /// The final norm's scale after the rewrite.
    fn final_norm_gamma(&self, gamma: &[f32]) -> Vec<f32> {
        match self {
            Rewrite::Rotation(_) => vec![1.0; gamma.len()],
            _ => gamma.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuantError;
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
        let rewrite = Rewrite::new(Method::Rtn, &model, &[]).unwrap();
        let mut p = PreparedBlock::from_reference(&model.blocks()[0]);
        let before = p.w_out.clone();
        rewrite.block(0, &mut p).unwrap();
        assert_eq!(p.w_out, before);
        assert!(p.in_act_scale.is_none());
        let e = model.embedding();
        assert_eq!(&rewrite.embedding(e).unwrap(), e);
        let gamma = model.final_norm_gamma();
        assert_eq!(rewrite.final_norm_gamma(gamma), gamma);
        let mut rows = vec![0.0; e.data().len()];
        rewrite.head_rows(e.data(), gamma, &mut rows).unwrap();
        assert_eq!(rows, e.data());
    }

    #[test]
    fn an_invalid_precision_fails_before_any_set_up_work() {
        // SmoothQuant with no calibration set would fail to calibrate;
        // the precision is checked first.
        let (model, _) = setup();
        let err = quantize_model(
            &model,
            Method::SmoothQuant,
            &QuantSpec::w4a4_grouped(0),
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, QuantError::InvalidScheme(_)), "{err:?}");
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
