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
use lightmamba_pool::WorkerPool;
use lightmamba_tensor::isa::detect;
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

/// Output rows per task of a sharded product are a multiple of this, so
/// every shard starts on a whole register block of each `matmul` form.
const SHARD_ROWS: usize = 8;

/// `a @ b` into `out` with its output rows sharded across `pool`'s
/// lanes: about four shards per lane, so a lane that falls behind
/// leaves its share to the others. Each shard is
/// [`Tensor::matmul_rows_into`] on the host's form, which gives every
/// row the bits of the whole product, so the result is the same on any
/// number of lanes.
fn sharded_matmul_into(pool: &WorkerPool, a: &Tensor, b: &Tensor, out: &mut [f32]) -> Result<()> {
    let isa = detect();
    let ((m, _), (_, n)) = (a.as_matrix_dims()?, b.as_matrix_dims()?);
    if m == 0 || n == 0 || out.len() != m * n {
        return Ok(a.matmul_rows_into(isa, b, 0..m, out)?);
    }
    let rows = m.div_ceil(4 * pool.threads()).next_multiple_of(SHARD_ROWS);
    let mut shards: Vec<_> = out.chunks_mut(rows * n).map(|o| (o, Ok(()))).collect();
    pool.run_over(&mut shards, |s, (out, done)| {
        let r0 = s * rows;
        *done = a.matmul_rows_into(isa, b, r0..r0 + out.len() / n, out);
    });
    shards.into_iter().try_for_each(|(_, done)| done)?;
    Ok(())
}

/// [`sharded_matmul_into`] into a new tensor.
fn sharded_matmul(pool: &WorkerPool, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let ((m, _), (_, n)) = (a.as_matrix_dims()?, b.as_matrix_dims()?);
    let mut out = Tensor::zeros(&[m, n]);
    sharded_matmul_into(pool, a, b, out.data_mut())?;
    Ok(out)
}

/// Builds the rotated out_proj weight `H·(diag(γ?)·W_out)·Q`, both
/// products sharded by output rows across `pool`'s lanes (the same bits
/// on any number of them).
///
/// `gate_gamma = Some(γ)` is the fuse-and-rotate variant of Fig. 4b;
/// `None` is the paper's rotate-only choice.
///
/// # Errors
///
/// Propagates tensor shape errors.
pub fn rotate_out_proj(
    pool: &WorkerPool,
    w_out: &Tensor,
    gate_gamma: Option<&[f32]>,
    h_dense: &Tensor,
    q_dense: &Tensor,
) -> Result<Tensor> {
    let mut scaled = w_out.clone();
    if let Some(g) = gate_gamma {
        scale_rows(&mut scaled, g);
    }
    let h_w = sharded_matmul(pool, h_dense, &scaled)?;
    sharded_matmul(pool, &h_w, q_dense)
}

/// Applies the full rotation-assisted rewrite to a prepared model: one
/// `Rotation`, applied to every block, the embedding and the LM head,
/// its dense products on one lane per CPU (the same bits on any number
/// of lanes).
///
/// # Errors
///
/// Returns a rotation error when `d_model` or `d_inner` admits no Hadamard
/// construction, and propagates tensor shape errors.
pub fn apply(prepared: &mut PreparedModel, cfg: &RotationConfig) -> Result<()> {
    apply_on(prepared, cfg, WorkerPool::per_cpu())
}

/// [`apply`] on `pool`'s lanes.
pub(crate) fn apply_on(
    prepared: &mut PreparedModel,
    cfg: &RotationConfig,
    pool: WorkerPool,
) -> Result<()> {
    /// LM-head outputs rotated per pass.
    const TILE: usize = 64;
    let mut rotation = Rotation::new(cfg, &prepared.cfg, pool)?;
    for block in &mut prepared.blocks {
        rotation.block(block)?;
    }
    rotation.end_blocks();
    prepared.embedding = rotation.embedding(&prepared.embedding)?;
    // The `(d_model, vocab)` head, one tile of outputs (columns) at a
    // time: gather their inputs as rows, rotate, scatter them back.
    let (d_model, vocab) = prepared.lm_head.as_matrix_dims()?;
    let head = prepared.lm_head.data_mut();
    let mut inputs = vec![0.0; TILE * d_model];
    let mut rows = vec![0.0; TILE * d_model];
    for j0 in (0..vocab).step_by(TILE) {
        let tile = TILE.min(vocab - j0);
        let (inputs, rows) = (&mut inputs[..tile * d_model], &mut rows[..tile * d_model]);
        for (p, column) in head.chunks_exact(vocab).enumerate() {
            for (t, &v) in column[j0..j0 + tile].iter().enumerate() {
                inputs[t * d_model + p] = v;
            }
        }
        rotation.head_rows(inputs, &prepared.final_norm_gamma, rows)?;
        for (p, column) in head.chunks_exact_mut(vocab).enumerate() {
            for (t, v) in column[j0..j0 + tile].iter_mut().enumerate() {
                *v = rows[t * d_model + p];
            }
        }
    }
    prepared.final_norm_gamma = vec![1.0; prepared.cfg.d_model];
    Ok(())
}

/// The rotations of one rewrite in dense form, built once and applied
/// block by block ([`Rotation::block`]), then to the model-level
/// tensors ([`Rotation::embedding`], [`Rotation::head_rows`]) — by
/// [`apply`] on a whole prepared model, and by the pipeline one block at
/// a time. Every dense product is sharded by output rows across the
/// rotation's pool.
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
    /// The lanes of the set-up's products, dropped with the rotation.
    pool: WorkerPool,
}

impl Rotation {
    /// Builds `Q` from `cfg.seed` and the HTU's factorization of
    /// `model`'s `d_inner`; the products run on `pool`.
    ///
    /// # Errors
    ///
    /// As [`apply`].
    pub(crate) fn new(cfg: &RotationConfig, model: &MambaConfig, pool: WorkerPool) -> Result<Self> {
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
            pool,
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
        block.w_in = sharded_matmul(&self.pool, &self.q_t, &block.w_in)?;
        block.norm_gamma = vec![1.0; block.norm_gamma.len()];

        // ③/④ Online Hadamard before out_proj; rotate W_out on both sides.
        let gate_gamma = if self.fuse_second_norm {
            let ones = vec![1.0; block.gate_norm_gamma.len()];
            Some(std::mem::replace(&mut block.gate_norm_gamma, ones))
        } else {
            None
        };
        block.w_out = rotate_out_proj(&self.pool, &block.w_out, gate_gamma.as_deref(), h, &self.q)?;
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
        sharded_matmul(&self.pool, embedding, &self.q)
    }

    /// Fusion ⑤ for some of the LM head's outputs: `inputs` holds each
    /// output's inputs as a row (`Eᵀ`'s columns, i.e. `E`'s rows, before
    /// any rewrite), and `rows` receives `(inputs ⊙ γ_final)·Q`. Output
    /// `j`'s row is column `j` of `Qᵀ·diag(γ)·Eᵀ` bit for bit: each
    /// element is the same products `Q[p][p']·(E[j][p]·γ[p])` (a product
    /// does not depend on the order of its factors) added from `+0.0` in
    /// ascending `p`, and where `matmul` skips a zero of the scaled
    /// inputs instead of adding the ±0 product, the sum does not change:
    /// a sum that starts at `+0.0` is never `−0`. So the same rows come
    /// out one tile at a time or all at once.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub(crate) fn head_rows(&self, inputs: &[f32], gamma: &[f32], rows: &mut [f32]) -> Result<()> {
        let d_model = gamma.len();
        let mut scaled = Tensor::from_vec(inputs.to_vec(), &[inputs.len() / d_model, d_model])?;
        for row in scaled.data_mut().chunks_exact_mut(d_model) {
            for (v, g) in row.iter_mut().zip(gamma) {
                *v *= g;
            }
        }
        sharded_matmul_into(&self.pool, &scaled, &self.q, rows)
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

    /// `apply` on pools of 1, 2, 3 and 5 lanes against the products
    /// written out serially with `Tensor::matmul` — the LM head as
    /// `Qᵀ·diag(γ)·Eᵀ`, the form the tiles of output rows replace — on
    /// a model whose every dimension is ragged against the shards: 20
    /// and 40 rows (8-row shards), 77 head outputs (64-output tiles).
    #[test]
    fn sharded_rotation_matches_the_serial_products_on_any_lane_count() {
        let cfg = MambaConfig {
            d_model: 20,
            n_layer: 2,
            d_state: 9,
            d_conv: 4,
            expand: 2,
            headdim: 10,
            ngroups: 1,
            vocab_size: 77,
        };
        let model = MambaModel::synthetic(cfg.clone(), &mut StdRng::seed_from_u64(3)).unwrap();
        let base = crate::PreparedModel::from_reference(&model).unwrap();
        let rcfg = RotationConfig::default();
        let q = RandomizedHadamard::new(cfg.d_model, &mut StdRng::seed_from_u64(rcfg.seed))
            .unwrap()
            .to_tensor();
        let q_t = q.transpose().unwrap();
        let h = FactoredHadamard::new(cfg.d_inner()).unwrap().to_tensor();
        let mut serial = base.clone();
        for b in &mut serial.blocks {
            scale_rows(&mut b.w_in, &b.norm_gamma);
            b.w_in = q_t.matmul(&b.w_in).unwrap();
            b.w_out = h.matmul(&b.w_out).unwrap().matmul(&q).unwrap();
        }
        serial.embedding = serial.embedding.matmul(&q).unwrap();
        scale_rows(&mut serial.lm_head, &serial.final_norm_gamma);
        serial.lm_head = q_t.matmul(&serial.lm_head).unwrap();

        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for lanes in [1, 2, 3, 5] {
            let mut p = base.clone();
            apply_on(&mut p, &rcfg, WorkerPool::new(lanes)).unwrap();
            for (l, (got, want)) in p.blocks.iter().zip(&serial.blocks).enumerate() {
                assert_eq!(bits(&got.w_in), bits(&want.w_in), "{lanes} lanes, w_in {l}");
                assert_eq!(
                    bits(&got.w_out),
                    bits(&want.w_out),
                    "{lanes} lanes, w_out {l}"
                );
            }
            assert_eq!(bits(&p.embedding), bits(&serial.embedding), "{lanes} lanes");
            assert_eq!(bits(&p.lm_head), bits(&serial.lm_head), "{lanes} lanes");
        }
    }

    #[test]
    fn rotate_out_proj_orientations() {
        // Identity H and Q leave the weight unchanged.
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).unwrap();
        let h = Tensor::eye(3);
        let q = Tensor::eye(2);
        let pool = WorkerPool::new(1);
        let r = rotate_out_proj(&pool, &w, None, &h, &q).unwrap();
        assert_eq!(r, w);
        let g = [2.0f32, 1.0, 0.5];
        let rf = rotate_out_proj(&pool, &w, Some(&g), &h, &q).unwrap();
        assert_eq!(rf.row(0).unwrap(), &[2.0, 4.0]);
        assert_eq!(rf.row(2).unwrap(), &[2.5, 3.0]);
    }
}
