//! One Mamba2 block: pre-norm, input projection, conv1d, SSM, gated norm,
//! output projection, residual add.

use lightmamba_tensor::conv::tap_major;
use lightmamba_tensor::isa::{detect, Isa};
use lightmamba_tensor::{norm, Tensor};

use crate::ssm::{ssm_step_into_on, SsmDims};
use crate::state::LayerState;
use crate::weights::{BlockWeights, InProjSplit};
use crate::{MambaConfig, Result};

/// Reusable per-step temporaries for [`MambaBlock::forward_step_into`].
///
/// One scratch serves every block of a model (all blocks share shapes)
/// and every sequence of a batch: buffers are resized on first use and
/// reused thereafter, so steady-state decode performs no heap
/// allocation. The default value is empty; it warms up on the first
/// step.
///
/// Buffers are public so other execution paths with the same block
/// pipeline (the quantized model in `lightmamba_quant`) can drive their
/// own kernels through one scratch instead of duplicating it.
#[derive(Debug, Clone, Default)]
pub struct BlockScratch {
    /// Pre-norm copy of the residual stream (`d_model`).
    pub normed: Vec<f32>,
    /// Input-projection output `z | x | B | C | Δ` (`d_in_proj`).
    pub proj: Vec<f32>,
    /// Concatenated `(x, B, C)` conv input (`conv_dim`), for callers that
    /// drive the unfused [`ConvState::step_into`] themselves; the block's
    /// own step reads `x | B | C` in place from `proj`.
    ///
    /// [`ConvState::step_into`]: lightmamba_tensor::conv::ConvState::step_into
    pub conv_in: Vec<f32>,
    /// Conv output, SiLU'd in place (`conv_dim`).
    pub conv_out: Vec<f32>,
    /// SSM output / gated-norm buffer (`d_inner`).
    pub y: Vec<f32>,
    /// Output-projection result (`d_model`).
    pub out: Vec<f32>,
}

impl BlockScratch {
    /// Ensures every buffer matches `cfg`'s shapes (allocates only when
    /// capacity grows, i.e. on the first step or a config change).
    pub fn prepare(&mut self, cfg: &MambaConfig) {
        self.normed.resize(cfg.d_model, 0.0);
        self.proj.resize(cfg.d_in_proj(), 0.0);
        self.conv_in.resize(cfg.conv_dim(), 0.0);
        self.conv_out.resize(cfg.conv_dim(), 0.0);
        self.y.resize(cfg.d_inner(), 0.0);
        self.out.resize(cfg.d_model, 0.0);
    }
}

/// Optional per-step activation taps used by quantization calibration and
/// the Fig. 2 distribution study.
#[derive(Debug, Clone, Default)]
pub struct BlockCapture {
    /// Input of the input projection (post pre-norm residual stream).
    pub in_proj_input: Option<Vec<f32>>,
    /// Input of the output projection (post gated norm) — the activation
    /// whose scattered outliers motivate the paper (Fig. 2).
    pub out_proj_input: Option<Vec<f32>>,
}

/// A Mamba2 block bound to its weights.
///
/// The block borrows nothing at rest; [`MambaBlock::forward_step_into`]
/// takes the residual-stream vector, the layer state and a scratch, and
/// updates the residual vector in place.
#[derive(Debug, Clone, PartialEq)]
pub struct MambaBlock {
    cfg: MambaConfig,
    split: InProjSplit,
    dims: SsmDims,
    weights: BlockWeights,
    /// `weights.conv_weight` tap-major, `(d_conv, conv_dim)`: the layout
    /// the fused conv + SiLU step streams.
    conv_taps: Tensor,
}

impl MambaBlock {
    /// Binds validated weights to a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ModelError::InvalidConfig`] when the weights do not
    /// match `cfg`.
    pub fn new(cfg: MambaConfig, weights: BlockWeights) -> Result<Self> {
        weights.validate(&cfg)?;
        let split = InProjSplit::new(&cfg);
        let dims = SsmDims::new(&cfg);
        let conv_taps = tap_major(weights.conv_weight.clone())?;
        Ok(MambaBlock {
            cfg,
            split,
            dims,
            weights,
            conv_taps,
        })
    }

    /// The block's weights.
    pub fn weights(&self) -> &BlockWeights {
        &self.weights
    }

    /// The configuration the block was built for.
    pub fn config(&self) -> &MambaConfig {
        &self.cfg
    }

    /// One decode step: updates the residual stream `x` (length
    /// `d_model`) in place, using `scratch` for every temporary, so a
    /// warm step allocates nothing. The capturing path of
    /// [`crate::MambaModel::forward_step_captured`] runs this same
    /// pipeline, so outputs are bit-for-bit identical.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying kernels; these indicate
    /// a state object built for a different configuration.
    pub fn forward_step_into(
        &self,
        x: &mut [f32],
        state: &mut LayerState,
        scratch: &mut BlockScratch,
    ) -> Result<()> {
        self.step_core(x, state, scratch, None)
    }

    /// The one block pipeline: pre-norm → in-proj → conv+SiLU → SSM →
    /// gated norm → out-proj → residual add, with optional activation
    /// taps (only the taps allocate, so the hot path stays
    /// allocation-free when `capture` is `None`).
    ///
    /// The host's tier is asked here, once per step, and handed down:
    /// on a vector host the same source runs compiled for it, and every
    /// kernel it calls runs the tier's form (`lightmamba_tensor::isa`:
    /// every copy computes the same bits).
    pub(crate) fn step_core(
        &self,
        x: &mut [f32],
        state: &mut LayerState,
        scratch: &mut BlockScratch,
        capture: Option<&mut BlockCapture>,
    ) -> Result<()> {
        self.step_core_on(detect(), x, state, scratch, capture)
    }

    /// [`MambaBlock::step_core`] on `isa`'s compilation and kernels.
    #[inline(always)]
    fn step_core_on(
        &self,
        isa: Isa,
        x: &mut [f32],
        state: &mut LayerState,
        scratch: &mut BlockScratch,
        capture: Option<&mut BlockCapture>,
    ) -> Result<()> {
        isa.compiled(
            #[inline(always)]
            |isa| self.step_body(isa, x, state, scratch, capture),
        )
    }

    #[inline(always)]
    fn step_body(
        &self,
        isa: Isa,
        x: &mut [f32],
        state: &mut LayerState,
        scratch: &mut BlockScratch,
        mut capture: Option<&mut BlockCapture>,
    ) -> Result<()> {
        let w = &self.weights;
        scratch.prepare(&self.cfg);

        // Pre-norm on a copy of the residual stream.
        scratch.normed.copy_from_slice(x);
        norm::rms_norm(&mut scratch.normed, &w.norm_gamma, 1e-5);
        if let Some(cap) = capture.as_deref_mut() {
            cap.in_proj_input = Some(scratch.normed.clone());
        }

        // Input projection: z | x | B | C | Δ.
        w.w_in.vecmat_into(&scratch.normed, &mut scratch.proj)?;
        let s = &self.split;

        // Causal conv over (x, B, C), read in place, SiLU as it stores.
        let di = self.cfg.d_inner();
        let g = self.cfg.ngroups * self.cfg.d_state;
        state.conv.step_silu_into_on(
            isa,
            &scratch.proj[s.xbc().0..s.xbc().1],
            &self.conv_taps,
            &w.conv_bias,
            &mut scratch.conv_out,
        )?;

        // SSM recurrence.
        ssm_step_into_on(
            isa,
            self.dims,
            &scratch.conv_out[0..di],
            &scratch.conv_out[di..di + g],
            &scratch.conv_out[di + g..di + 2 * g],
            &scratch.proj[s.dt.0..s.dt.1],
            &w.a_log,
            &w.dt_bias,
            &w.d_skip,
            &mut state.h,
            &mut scratch.y,
        )?;

        // Gated RMSNorm, then output projection and the residual add.
        norm::gated_rms_norm(
            &mut scratch.y,
            &scratch.proj[s.z.0..s.z.1],
            &w.gate_norm_gamma,
            1e-5,
        );
        if let Some(cap) = capture {
            cap.out_proj_input = Some(scratch.y.clone());
        }
        w.w_out.vecmat_into(&scratch.y, &mut scratch.out)?;
        for (xi, &oi) in x.iter_mut().zip(scratch.out.iter()) {
            *xi += oi;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_block() -> (MambaBlock, LayerState) {
        let cfg = MambaConfig::tiny();
        let mut rng = StdRng::seed_from_u64(1);
        let w = synth::synthetic_block(&cfg, &mut rng);
        let state = LayerState::new(&cfg);
        (MambaBlock::new(cfg, w).unwrap(), state)
    }

    /// One step of `block` from `x`, as a new residual vector.
    fn step(block: &MambaBlock, x: &[f32], state: &mut LayerState) -> Vec<f32> {
        let mut x = x.to_vec();
        block
            .forward_step_into(&mut x, state, &mut BlockScratch::default())
            .unwrap();
        x
    }

    #[test]
    fn forward_preserves_dimension() {
        let (block, mut state) = test_block();
        let x = vec![0.1f32; block.config().d_model];
        let y = step(&block, &x, &mut state);
        assert_eq!(y.len(), block.config().d_model);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn forward_is_deterministic() {
        let (block, mut s1) = test_block();
        let mut s2 = s1.clone();
        let x = vec![0.3f32; block.config().d_model];
        let y1 = step(&block, &x, &mut s1);
        let y2 = step(&block, &x, &mut s2);
        assert_eq!(y1, y2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn state_carries_history() {
        let (block, mut state) = test_block();
        let x = vec![0.5f32; block.config().d_model];
        let y1 = step(&block, &x, &mut state);
        let y2 = step(&block, &x, &mut state);
        // Same input, different state → different output.
        assert_ne!(y1, y2);
    }

    #[test]
    fn capture_records_taps() {
        let (block, mut state) = test_block();
        let mut x = vec![0.2f32; block.config().d_model];
        let mut cap = BlockCapture::default();
        block
            .step_core(
                &mut x,
                &mut state,
                &mut BlockScratch::default(),
                Some(&mut cap),
            )
            .unwrap();
        assert_eq!(
            cap.in_proj_input.as_ref().unwrap().len(),
            block.config().d_model
        );
        assert_eq!(
            cap.out_proj_input.as_ref().unwrap().len(),
            block.config().d_inner()
        );
    }

    #[test]
    fn residual_passes_through_zero_block() {
        // With a zero output projection the block must be the identity.
        let cfg = MambaConfig::tiny();
        let mut rng = StdRng::seed_from_u64(2);
        let mut w = synth::synthetic_block(&cfg, &mut rng);
        w.w_out = lightmamba_tensor::Tensor::zeros(&[cfg.d_inner(), cfg.d_model]);
        let block = MambaBlock::new(cfg.clone(), w).unwrap();
        let mut state = LayerState::new(&cfg);
        let x: Vec<f32> = (0..cfg.d_model).map(|i| i as f32 * 0.01).collect();
        let y = step(&block, &x, &mut state);
        assert_eq!(y, x);
    }

    #[test]
    fn new_rejects_mismatched_weights() {
        let cfg = MambaConfig::tiny();
        let mut rng = StdRng::seed_from_u64(3);
        let w = synth::synthetic_block(&MambaConfig::small(), &mut rng);
        assert!(MambaBlock::new(cfg, w).is_err());
    }

    /// `model`'s decode with every block on one tier's step copy and
    /// kernels, whatever the host's best.
    struct OnIsa<'a>(&'a crate::MambaModel, Isa);

    impl crate::DecodeKernels for OnIsa<'_> {
        type Scratch = BlockScratch;
        type Error = crate::ModelError;

        fn config(&self) -> &MambaConfig {
            self.0.config()
        }

        fn embed(&self, token: u32, x: &mut Vec<f32>) -> Result<()> {
            crate::DecodeKernels::embed(self.0, token, x)
        }

        fn layer_step(
            &self,
            layer: usize,
            xs: &mut [Vec<f32>],
            states: &mut crate::LayerBatch<'_>,
            scratch: &mut BlockScratch,
        ) -> Result<()> {
            for (k, x) in xs.iter_mut().enumerate() {
                self.0.blocks()[layer].step_core_on(
                    self.1,
                    x,
                    states.state_mut(k),
                    scratch,
                    None,
                )?;
            }
            Ok(())
        }

        fn finish(
            &self,
            xs: &mut [Vec<f32>],
            logits: &mut [Vec<f32>],
            scratch: &mut BlockScratch,
        ) -> Result<()> {
            crate::DecodeKernels::finish(self.0, xs, logits, scratch)
        }
    }

    #[test]
    fn every_step_copy_matches_the_baseline_bit_for_bit() {
        // The benchmark's call shape — a ragged 16-item advance, then 20
        // batch-16 steps — on every copy this host can run, each on its
        // own tier's conv and SSM forms, logits and states against the
        // baseline copy's bits on the scalar forms.
        let model =
            crate::MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(5))
                .unwrap();
        let vocab = model.config().vocab_size;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let run = |isa: Isa| {
            let on = OnIsa(&model, isa);
            let mut states: Vec<crate::ModelState> = (0..16)
                .map(|_| crate::ModelState::new(model.config()))
                .collect();
            let mut ws = crate::DecodeWorkspace::new();
            let token = |s: usize, i: usize| ((s * 31 + i * 7 + 3) % vocab) as u32;
            let prompts: Vec<Vec<u32>> = (0..16)
                .map(|s| (0..1 + s % 5).map(|i| token(s, i)).collect())
                .collect();
            let items: Vec<(usize, &[u32])> =
                prompts.iter().map(Vec::as_slice).enumerate().collect();
            let mut logits =
                crate::batch::advance(&on, &items, &mut states, None, &mut ws).unwrap();
            for t in 0..20 {
                let items: Vec<(usize, u32)> = (0..16).map(|s| (s, token(s, 5 + t))).collect();
                crate::batch::step(&on, &items, &mut states, None, &mut ws).unwrap();
                logits.extend(ws.logits().iter().cloned());
            }
            let logits: Vec<Vec<u32>> = logits.iter().map(|l| bits(l)).collect();
            let h: Vec<Vec<u32>> = (states.iter().flat_map(|s| &s.layers))
                .map(|l| bits(&l.h))
                .collect();
            (logits, h, states)
        };
        let (logits, h, states) = run(Isa::Scalar);
        for isa in Isa::tiers().skip(1) {
            let (got_logits, got_h, got_states) = run(isa);
            assert!(got_logits == logits, "{isa:?} copy: logits differ");
            assert!(got_h == h, "{isa:?} copy: SSM states differ");
            assert_eq!(got_states, states, "{isa:?} copy: conv windows differ");
        }
    }
}
