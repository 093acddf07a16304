//! End-to-end PTQ pipeline: method selection → rewrite → quantize → model.
//!
//! This is the programmatic form of the paper's Table III rows: pick a
//! [`Method`], a [`QuantSpec`] (W8A8 / W4A4, with or without SSM
//! quantization), provide calibration sequences for the channel-wise
//! baselines, and get a runnable [`QuantizedMamba`].
//!
//! [`quantize_model`] works one block at a time, the way a checkpoint
//! is read: each block is prepared, rewritten, quantized and packed, and
//! its f32 weights are dropped before the next block is read. The
//! model-level tensors follow once the blocks are done (and the dense
//! HTU rotation is freed): the embedding, then the LM head, which is
//! rewritten straight into its packer one 32-output tile at a time. So
//! the set-up never holds a second f32 copy of the model: its high-water
//! above the reference is what it keeps plus one block's working set.

use lightmamba_model::MambaModel;
use lightmamba_pool::WorkerPool;
use lightmamba_tensor::Tensor;

use crate::calib::{self, CalibrationStats};
use crate::prepared::{check_calibration, PreparedBlock, PreparedModel};
use crate::qmodel::{LmHead, Precision, QuantBuilder, QuantizedMamba};
use crate::rotation::{self, Rotation, RotationConfig};
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
            smoothquant::apply(prepared, &stats, SMOOTHQUANT_ALPHA)
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
/// quantize it under `spec`, one block at a time (module docs). For
/// [`Method::LightMambaStar`] the SSM is additionally quantized with the
/// PoT INT8 scheme at `spec.group` granularity.
///
/// The result is bit for bit `QuantizedMamba::new` of [`rewrite`] on
/// `PreparedModel::from_reference(reference)`: both run the same
/// per-block rewrites and the same packer.
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
    let cfg = reference.config();
    let mut rewrite = Rewrite::new(method, reference, calibration)?;
    let mut build = QuantBuilder::new(cfg.clone(), finalize_precision(method, spec))?;
    for (l, block) in reference.blocks().iter().enumerate() {
        let mut prepared = PreparedBlock::from_reference(block);
        rewrite.block(l, &mut prepared)?;
        build.block(prepared)?;
    }
    rewrite.end_blocks();
    let embedding = rewrite.embedding(reference.embedding())?;
    let gamma = reference.final_norm_gamma();
    let (e, d_model) = (reference.embedding().data(), cfg.d_model);
    // The LM head starts as `Eᵀ`: output (token) `j`'s inputs are `E[j]`.
    let mut head_rows = |tokens: std::ops::Range<usize>, rows: &mut [f32]| {
        rewrite.head_rows(
            &e[tokens.start * d_model..tokens.end * d_model],
            gamma,
            rows,
        )
    };
    build.finish(
        embedding,
        rewrite.final_norm_gamma(gamma),
        LmHead::Rows(&mut head_rows),
    )
}

/// One method's rewrite as [`quantize_model`] streams it: set up once,
/// applied block by block, then to the model-level tensors — through
/// the same per-block and model-level functions that the methods'
/// `apply` run over a whole [`PreparedModel`].
#[derive(Debug)]
enum Rewrite {
    /// Round-to-nearest: nothing to rewrite.
    None,
    SmoothQuant(CalibrationStats),
    OutlierSuppression(CalibrationStats),
    Rotation(Rotation),
}

impl Rewrite {
    fn new(method: Method, reference: &MambaModel, calibration: &[Vec<u32>]) -> Result<Self> {
        let calibrated = || -> Result<CalibrationStats> {
            let stats = calib::collect(reference, calibration)?;
            check_calibration(reference.config(), &stats)?;
            Ok(stats)
        };
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
