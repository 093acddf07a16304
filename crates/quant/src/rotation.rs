//! Rotation-assisted quantization (paper Sec. IV-A, Fig. 4a).
//!
//! A random orthonormal Hadamard `Q` rotates the residual stream; an
//! online orthonormal Hadamard `H` rotates the out_proj input. Because
//! rotations amortize outliers across channels while preserving every
//! inner product, the rewrites below leave the FP function bit-identical
//! (up to rounding) while making all linear-layer tensors quantization-
//! friendly. All but one rotation fuse into weights:
//!
//! * **①** embedding `E ← E·Q` (residual enters rotated space);
//! * **②** first-RMSNorm scale `γ` split out and
//!   `W_in ← Qᵀ·diag(γ)·W_in`, valid because *unscaled* RMSNorm commutes
//!   with orthogonal rotation;
//! * **③** online Hadamard `H` before out_proj — the only rotation
//!   computed at run time, by the accelerator's HTU;
//! * **④** `W_out ← H·W_out·Q`, with the second RMSNorm's scale left
//!   *unfused* (fusing it enlarges weight quantization error, Fig. 4b —
//!   [`RotationConfig::fuse_second_norm`] reproduces that study);
//! * **⑤** LM head `W_head ← Qᵀ·diag(γ_final)·W_head`.
//!
//! The SSM layer is **not** rotated: the element-wise recurrence does not
//! satisfy rotation equivalence (paper Eq. 1b–1d; verified numerically in
//! `lightmamba-model::ssm` tests). It is quantized with the PoT scheme
//! instead.

use rand::rngs::StdRng;
use rand::SeedableRng;

use lightmamba_hadamard::{FactoredHadamard, RandomizedHadamard};
use lightmamba_model::MambaConfig;
use lightmamba_tensor::Tensor;

use crate::prepared::{scale_rows, PreparedBlock, PreparedModel};
use crate::Result;

/// Configuration of the rotation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotationConfig {
    /// Seed of the random sign diagonal in `Q`.
    pub seed: u64,
    /// Fuse the second RMSNorm's scale into `W_out` (the paper measures
    /// this *increases* quantization error, Fig. 4b, and chooses `false`).
    pub fuse_second_norm: bool,
    /// Explicit `(power-of-two, remainder)` HTU factorization for the
    /// online Hadamard, e.g. `(128, 40)` for Mamba2-2.7B as built in the
    /// paper's hardware. `None` picks the largest power-of-two factor.
    pub htu_factors: Option<(usize, usize)>,
}

impl Default for RotationConfig {
    fn default() -> Self {
        RotationConfig {
            seed: 0x0001_1A77,
            fuse_second_norm: false,
            htu_factors: None,
        }
    }
}

/// Builds the rotated out_proj weight `H·(diag(γ?)·W_out)·Q`.
///
/// `gate_gamma = Some(γ)` is the fuse-and-rotate variant of Fig. 4b;
/// `None` is the paper's rotate-only choice.
///
/// # Errors
///
/// Propagates tensor shape errors.
pub fn rotate_out_proj(
    w_out: &Tensor,
    gate_gamma: Option<&[f32]>,
    h_dense: &Tensor,
    q_dense: &Tensor,
) -> Result<Tensor> {
    let mut scaled = w_out.clone();
    if let Some(g) = gate_gamma {
        scale_rows(&mut scaled, g);
    }
    Ok(h_dense.matmul(&scaled)?.matmul(q_dense)?)
}

/// Applies the full rotation-assisted rewrite to a prepared model: one
/// `Rotation`, applied to every block, the embedding and the LM head.
///
/// # Errors
///
/// Returns a rotation error when `d_model` or `d_inner` admits no Hadamard
/// construction, and propagates tensor shape errors.
pub fn apply(prepared: &mut PreparedModel, cfg: &RotationConfig) -> Result<()> {
    let rotation = Rotation::new(cfg, &prepared.cfg)?;
    for block in &mut prepared.blocks {
        rotation.block(block)?;
    }
    prepared.embedding = rotation.embedding(&prepared.embedding)?;
    let rows = prepared.lm_head.transpose()?;
    prepared.lm_head = rotation
        .head_rows(rows, &prepared.final_norm_gamma)?
        .transpose()?;
    prepared.final_norm_gamma = vec![1.0; prepared.cfg.d_model];
    Ok(())
}

/// The rotations of one rewrite in dense form, built once and applied
/// block by block ([`Rotation::block`]), then to the model-level
/// tensors ([`Rotation::embedding`], [`Rotation::head_rows`]) — by
/// [`apply`] on a whole prepared model, and by the pipeline one block at
/// a time.
#[derive(Debug)]
pub(crate) struct Rotation {
    /// The randomized Hadamard `Q`, `d_model` square.
    q: Tensor,
    /// `Qᵀ`.
    q_t: Tensor,
    /// The HTU's `H` in dense form, `d_inner` square; freed by
    /// [`Rotation::end_blocks`].
    h: Option<Tensor>,
    htu: FactoredHadamard,
    fuse_second_norm: bool,
}

impl Rotation {
    /// Builds `Q` from `cfg.seed` and the HTU's factorization of
    /// `model`'s `d_inner`.
    ///
    /// # Errors
    ///
    /// As [`apply`].
    pub(crate) fn new(cfg: &RotationConfig, model: &MambaConfig) -> Result<Self> {
        let d_inner = model.d_inner();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let q = RandomizedHadamard::new(model.d_model, &mut rng)?.to_tensor();
        let htu = match cfg.htu_factors {
            Some((pot, rem)) => FactoredHadamard::with_factors(pot, rem)?,
            None => FactoredHadamard::new(d_inner)?,
        };
        if htu.len() != d_inner {
            return Err(crate::QuantError::InvalidScheme(format!(
                "htu factorization covers {} channels, d_inner is {d_inner}",
                htu.len()
            )));
        }
        Ok(Rotation {
            q_t: q.transpose()?,
            q,
            h: Some(htu.to_tensor()),
            htu,
            fuse_second_norm: cfg.fuse_second_norm,
        })
    }

    /// Fusions ②–④ on one block.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    ///
    /// # Panics
    ///
    /// After [`Rotation::end_blocks`].
    pub(crate) fn block(&self, block: &mut PreparedBlock) -> Result<()> {
        let h = self
            .h
            .as_ref()
            .expect("blocks are rotated before end_blocks");
        // ② Split the pre-norm scale into W_in, then rotate its input side.
        scale_rows(&mut block.w_in, &block.norm_gamma);
        block.w_in = self.q_t.matmul(&block.w_in)?;
        block.norm_gamma = vec![1.0; block.norm_gamma.len()];

        // ③/④ Online Hadamard before out_proj; rotate W_out on both sides.
        let gate_gamma = if self.fuse_second_norm {
            let ones = vec![1.0; block.gate_norm_gamma.len()];
            Some(std::mem::replace(&mut block.gate_norm_gamma, ones))
        } else {
            None
        };
        block.w_out = rotate_out_proj(&block.w_out, gate_gamma.as_deref(), h, &self.q)?;
        block.online_hadamard = Some(self.htu.clone());
        Ok(())
    }

    /// Frees the dense `H` once every block is rotated.
    pub(crate) fn end_blocks(&mut self) {
        self.h = None;
    }

    /// Fusion ①: the embedding `E·Q`.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub(crate) fn embedding(&self, embedding: &Tensor) -> Result<Tensor> {
        Ok(embedding.matmul(&self.q)?)
    }

    /// Fusion ⑤ for some of the LM head's outputs: `rows` holds each
    /// output's inputs as a row (`Eᵀ`'s columns, i.e. `E`'s rows, before
    /// any rewrite) and becomes `(rows ⊙ γ_final)·Q`. Output `j`'s row is
    /// column `j` of `Qᵀ·diag(γ)·Eᵀ` bit for bit: each element is the same
    /// products `Q[p][p']·(E[j][p]·γ[p])` (a product does not depend on
    /// the order of its factors) added from `+0.0` in ascending `p`, and
    /// where `matmul` skips a zero of `rows` instead of adding the ±0
    /// product, the sum does not change: a sum that starts at `+0.0` is
    /// never `−0`. So the same rows come out one tile at a time or all
    /// at once.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub(crate) fn head_rows(&self, mut rows: Tensor, gamma: &[f32]) -> Result<Tensor> {
        let (_, d_model) = rows.as_matrix_dims()?;
        for row in rows.data_mut().chunks_exact_mut(d_model) {
            for (v, g) in row.iter_mut().zip(gamma) {
                *v *= g;
            }
        }
        Ok(rows.matmul(&self.q)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib;
    use crate::qmodel::{Precision, QuantizedMamba};
    use lightmamba_model::corpus::SyntheticCorpus;
    use lightmamba_model::eval::{compare_models, ReferenceRunner};
    use lightmamba_model::{MambaConfig, MambaModel};

    fn setup() -> (MambaModel, Vec<Vec<u32>>) {
        let model =
            MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(21)).unwrap();
        let seqs =
            SyntheticCorpus::for_vocab(256).calibration_set(&mut StdRng::seed_from_u64(22), 3, 8);
        (model, seqs)
    }

    #[test]
    fn rotation_preserves_fp_function() {
        // The critical invariance: rotated-then-FP-executed model must match
        // the reference exactly (within f32 rounding across 48-dim sums).
        let (model, seqs) = setup();
        let mut p = crate::PreparedModel::from_reference(&model).unwrap();
        apply(&mut p, &RotationConfig::default()).unwrap();
        let mut q = QuantizedMamba::new(p, Precision::fp()).unwrap();
        let mut r = ReferenceRunner::new(model);
        let rep = compare_models(&mut r, &mut q, &seqs).unwrap();
        assert!(
            rep.mean_kl < 1e-3,
            "rotation broke FP invariance: kl {}",
            rep.mean_kl
        );
        assert!(rep.agreement > 0.99, "agreement {}", rep.agreement);
    }

    #[test]
    fn fused_second_norm_also_preserves_fp_function() {
        let (model, seqs) = setup();
        let mut p = crate::PreparedModel::from_reference(&model).unwrap();
        apply(
            &mut p,
            &RotationConfig {
                fuse_second_norm: true,
                ..RotationConfig::default()
            },
        )
        .unwrap();
        let mut q = QuantizedMamba::new(p, Precision::fp()).unwrap();
        let mut r = ReferenceRunner::new(model);
        let rep = compare_models(&mut r, &mut q, &seqs).unwrap();
        assert!(rep.mean_kl < 1e-3, "kl {}", rep.mean_kl);
    }

    #[test]
    fn norm_scales_become_ones() {
        let (model, _) = setup();
        let mut p = crate::PreparedModel::from_reference(&model).unwrap();
        apply(&mut p, &RotationConfig::default()).unwrap();
        assert!(p.blocks[0].norm_gamma.iter().all(|&g| g == 1.0));
        assert!(p.final_norm_gamma.iter().all(|&g| g == 1.0));
        // Paper choice: second norm scale stays.
        assert!(p.blocks[0].gate_norm_gamma.iter().any(|&g| g != 1.0));
        assert!(p.blocks[0].online_hadamard.is_some());
    }

    #[test]
    fn rotation_reduces_activation_outliers() {
        // Calibrate the out_proj input before and after rotation: the
        // rotated activations must have a much smaller peak-to-rms ratio
        // (Fig. 2's before/after).
        let (model, seqs) = setup();
        let stats_before = calib::collect(&model, &seqs).unwrap();
        let mut p = crate::PreparedModel::from_reference(&model).unwrap();
        apply(&mut p, &RotationConfig::default()).unwrap();
        let mut q = QuantizedMamba::new(p, Precision::fp()).unwrap();
        // Drive the rotated model and capture the fake out_proj input via
        // its weight-side equivalence: compare per-channel absmax spread of
        // the *reference* capture against the H-rotated capture.
        use lightmamba_model::eval::StepModel;
        q.reset();
        for &t in &seqs[0] {
            q.step(t).unwrap();
        }
        let spread = |xs: &[f32]| {
            let mx = xs.iter().cloned().fold(0.0f32, f32::max);
            let mean = xs.iter().sum::<f32>() / xs.len() as f32;
            mx / mean.max(1e-9)
        };
        // Rotate the captured reference activations directly with the HTU.
        let htu = FactoredHadamard::new(model.config().d_inner()).unwrap();
        let raw = calib::collect_out_proj_activations(&model, &seqs, 0).unwrap();
        let (tokens, ch) = raw.as_matrix_dims().unwrap();
        let mut rotated_absmax = vec![0.0f32; ch];
        for t in 0..tokens {
            let mut row = raw.row(t).unwrap().to_vec();
            htu.apply(&mut row);
            for (c, v) in row.iter().enumerate() {
                rotated_absmax[c] = rotated_absmax[c].max(v.abs());
            }
        }
        let before = spread(&stats_before.out_proj[0].absmax);
        let after = spread(&rotated_absmax);
        assert!(
            after < before,
            "rotation should flatten channel ranges: {before} -> {after}"
        );
    }

    #[test]
    fn explicit_htu_factors_are_respected() {
        let (model, _) = setup();
        let mut p = crate::PreparedModel::from_reference(&model).unwrap();
        // d_inner = 96 = 8 × 12.
        apply(
            &mut p,
            &RotationConfig {
                htu_factors: Some((8, 12)),
                ..RotationConfig::default()
            },
        )
        .unwrap();
        let h = p.blocks[0].online_hadamard.as_ref().unwrap();
        assert_eq!(h.pot_order(), 8);
        assert_eq!(h.rem_order(), 12);
    }

    #[test]
    fn wrong_htu_factorization_rejected() {
        let (model, _) = setup();
        let mut p = crate::PreparedModel::from_reference(&model).unwrap();
        let err = apply(
            &mut p,
            &RotationConfig {
                htu_factors: Some((4, 12)), // 48 ≠ 96
                ..RotationConfig::default()
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn rotate_out_proj_orientations() {
        // Identity H and Q leave the weight unchanged.
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).unwrap();
        let h = Tensor::eye(3);
        let q = Tensor::eye(2);
        let r = rotate_out_proj(&w, None, &h, &q).unwrap();
        assert_eq!(r, w);
        let g = [2.0f32, 1.0, 0.5];
        let rf = rotate_out_proj(&w, Some(&g), &h, &q).unwrap();
        assert_eq!(rf.row(0).unwrap(), &[2.0, 4.0]);
        assert_eq!(rf.row(2).unwrap(), &[2.5, 3.0]);
    }
}
