//! The full Mamba2 model: embedding, block stack, final norm, LM head.

use rand::Rng;

use lightmamba_tensor::norm;

use crate::block::{BlockCapture, BlockScratch, MambaBlock};
use crate::state::ModelState;
use crate::weights::ModelWeights;
use crate::{MambaConfig, ModelError, Result};

/// Per-step activation taps across all layers (calibration path).
#[derive(Debug, Clone, Default)]
pub struct Capture {
    /// One [`BlockCapture`] per layer, in layer order.
    pub blocks: Vec<BlockCapture>,
}

/// A Mamba2 model bound to its weights.
///
/// # Example
///
/// ```
/// use lightmamba_model::{MambaConfig, MambaModel};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), lightmamba_model::ModelError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let model = MambaModel::synthetic(MambaConfig::tiny(), &mut rng)?;
/// let mut state = model.new_state();
/// let prefill_logits = model.prefill(&[1, 2, 3], &mut state)?;
/// let next = MambaModel::argmax(&prefill_logits) as u32;
/// let _ = model.forward_step(next, &mut state)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MambaModel {
    cfg: MambaConfig,
    blocks: Vec<MambaBlock>,
    embedding: lightmamba_tensor::Tensor,
    final_norm_gamma: Vec<f32>,
}

impl MambaModel {
    /// Binds validated weights to a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when shapes do not match.
    pub fn new(cfg: MambaConfig, weights: ModelWeights) -> Result<Self> {
        cfg.validate()?;
        weights.validate(&cfg)?;
        let ModelWeights {
            embedding,
            blocks,
            final_norm_gamma,
        } = weights;
        let blocks = blocks
            .into_iter()
            .map(|bw| MambaBlock::new(cfg.clone(), bw))
            .collect::<Result<Vec<_>>>()?;
        Ok(MambaModel {
            cfg,
            blocks,
            embedding,
            final_norm_gamma,
        })
    }

    /// Builds a model with synthetic weights (see [`crate::synth`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when `cfg` is invalid.
    pub fn synthetic<R: Rng + ?Sized>(cfg: MambaConfig, rng: &mut R) -> Result<Self> {
        cfg.validate()?;
        let w = crate::synth::synthetic_weights(&cfg, rng);
        Self::new(cfg, w)
    }

    /// The model configuration.
    pub fn config(&self) -> &MambaConfig {
        &self.cfg
    }

    /// The per-layer blocks (read access for analysis).
    pub fn blocks(&self) -> &[MambaBlock] {
        &self.blocks
    }

    /// The tied embedding / LM-head matrix `(vocab, d_model)`.
    pub fn embedding(&self) -> &lightmamba_tensor::Tensor {
        &self.embedding
    }

    /// Mutable embedding access (rotation fusion ① / ⑤).
    pub fn embedding_mut(&mut self) -> &mut lightmamba_tensor::Tensor {
        &mut self.embedding
    }

    /// The final RMSNorm scale, length `d_model`.
    pub fn final_norm_gamma(&self) -> &[f32] {
        &self.final_norm_gamma
    }

    /// Fresh zero state for this model.
    pub fn new_state(&self) -> ModelState {
        ModelState::new(&self.cfg)
    }

    /// Embeds one token id.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TokenOutOfRange`] for invalid ids.
    pub fn embed(&self, token: u32) -> Result<Vec<f32>> {
        if token as usize >= self.cfg.vocab_size {
            return Err(ModelError::TokenOutOfRange {
                token,
                vocab: self.cfg.vocab_size,
            });
        }
        Ok(self.embedding.row(token as usize)?.to_vec())
    }

    /// One decode step: token in, next-token logits out. Advances `state`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TokenOutOfRange`] or a state-mismatch error.
    pub fn forward_step(&self, token: u32, state: &mut ModelState) -> Result<Vec<f32>> {
        self.forward_step_captured(token, state, None)
    }

    /// [`MambaModel::forward_step`] recording activation taps when
    /// `capture` is provided. Every block steps in place, over one
    /// [`BlockScratch`] per call.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MambaModel::forward_step`].
    pub fn forward_step_captured(
        &self,
        token: u32,
        state: &mut ModelState,
        capture: Option<&mut Capture>,
    ) -> Result<Vec<f32>> {
        if state.layers.len() != self.blocks.len() {
            return Err(ModelError::StateMismatch(format!(
                "state has {} layers, model has {}",
                state.layers.len(),
                self.blocks.len()
            )));
        }
        let mut x = self.embed(token)?;
        let mut taps = capture.map(|cap| {
            cap.blocks.clear();
            cap.blocks
                .resize_with(self.blocks.len(), BlockCapture::default);
            cap.blocks.iter_mut()
        });
        let mut scratch = BlockScratch::default();
        for (block, lstate) in self.blocks.iter().zip(state.layers.iter_mut()) {
            let tap = taps.as_mut().and_then(Iterator::next);
            block.step_core(&mut x, lstate, &mut scratch, tap)?;
        }
        norm::rms_norm(&mut x, &self.final_norm_gamma, 1e-5);
        // Tied LM head: logits = E · x.
        Ok(self.embedding.matvec(&x)?)
    }

    /// Prefill: consumes a prompt token-by-token (the recurrence makes the
    /// sequential form exact) and returns the logits after the final token.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for an empty prompt and
    /// propagates step errors.
    pub fn prefill(&self, tokens: &[u32], state: &mut ModelState) -> Result<Vec<f32>> {
        let (&last, head) = tokens
            .split_last()
            .ok_or_else(|| ModelError::InvalidConfig("prefill needs at least one token".into()))?;
        for &t in head {
            self.forward_step(t, state)?;
        }
        self.forward_step(last, state)
    }

    /// Greedy decode of `n` tokens after `prompt`, returning generated ids.
    ///
    /// # Errors
    ///
    /// Propagates prefill/step errors.
    pub fn generate(&self, prompt: &[u32], n: usize) -> Result<Vec<u32>> {
        let mut state = self.new_state();
        let mut logits = self.prefill(prompt, &mut state)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let next = Self::argmax(&logits) as u32;
            out.push(next);
            logits = self.forward_step(next, &mut state)?;
        }
        Ok(out)
    }

    /// Index of the maximum logit (greedy sampling): the last of equal
    /// maxima, 0 for no logits.
    pub fn argmax(logits: &[f32]) -> usize {
        crate::sampler::argmax(logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model() -> MambaModel {
        MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(9)).unwrap()
    }

    #[test]
    fn logits_have_vocab_length_and_are_finite() {
        let m = tiny_model();
        let mut st = m.new_state();
        let logits = m.forward_step(0, &mut st).unwrap();
        assert_eq!(logits.len(), m.config().vocab_size);
        assert!(logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn rejects_out_of_range_token() {
        let m = tiny_model();
        let mut st = m.new_state();
        let tok = m.config().vocab_size as u32;
        assert!(matches!(
            m.forward_step(tok, &mut st),
            Err(ModelError::TokenOutOfRange { .. })
        ));
    }

    #[test]
    fn prefill_equals_stepwise() {
        let m = tiny_model();
        let prompt = [5u32, 9, 2, 40];
        let mut s1 = m.new_state();
        let via_prefill = m.prefill(&prompt, &mut s1).unwrap();
        let mut s2 = m.new_state();
        let mut last = Vec::new();
        for &t in &prompt {
            last = m.forward_step(t, &mut s2).unwrap();
        }
        assert_eq!(via_prefill, last);
    }

    #[test]
    fn prefill_rejects_empty_prompt() {
        let m = tiny_model();
        let mut st = m.new_state();
        assert!(m.prefill(&[], &mut st).is_err());
    }

    #[test]
    fn generate_is_deterministic() {
        let m = tiny_model();
        let a = m.generate(&[1, 2, 3], 8).unwrap();
        let b = m.generate(&[1, 2, 3], 8).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert!(a.iter().all(|&t| (t as usize) < m.config().vocab_size));
    }

    #[test]
    fn different_prompts_diverge() {
        let m = tiny_model();
        let a = m.generate(&[1, 2, 3], 6).unwrap();
        let b = m.generate(&[200, 100, 7], 6).unwrap();
        assert_ne!(a, b, "different prompts should generally diverge");
    }

    #[test]
    fn capture_collects_every_layer() {
        let m = tiny_model();
        let mut st = m.new_state();
        let mut cap = Capture::default();
        m.forward_step_captured(3, &mut st, Some(&mut cap)).unwrap();
        assert_eq!(cap.blocks.len(), m.config().n_layer);
        assert!(cap.blocks[0].out_proj_input.is_some());
    }

    #[test]
    fn state_mismatch_detected() {
        let m = tiny_model();
        let other =
            MambaModel::synthetic(MambaConfig::small(), &mut StdRng::seed_from_u64(1)).unwrap();
        let mut wrong = other.new_state();
        assert!(matches!(
            m.forward_step(0, &mut wrong),
            Err(ModelError::StateMismatch(_))
        ));
    }

    #[test]
    fn argmax_picks_maximum() {
        assert_eq!(MambaModel::argmax(&[0.1, 5.0, -2.0]), 1);
        assert_eq!(MambaModel::argmax(&[]), 0);
    }
}
