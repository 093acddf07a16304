//! Batched decode over independent sequences.
//!
//! Mamba2 sequences share no cross-sequence state, so a batched step is
//! semantically just N independent [`MambaModel::forward_step`] calls.
//! The implementation reorders the loops — *layer outer* — and hands
//! each layer the whole sub-batch at once, so an execution path can run
//! a layer as phases over all resident sequences (the quantized model
//! runs one GEMM per linear layer; this FP model simply loops the
//! sequences). Either way each block's weights are touched once per step
//! no matter how many sequences are resident: the software analogue of
//! the accelerator's shared weight stream (`lightmamba_accel::batch`) and
//! the hot path `lightmamba_serve`'s continuous batcher drives.
//!
//! Per-sequence arithmetic is performed in exactly the same order as the
//! single-stream path, so batched logits are bit-for-bit identical to
//! sequential decode — a property the serve crate's tests pin down.
//!
//! The orchestration is generic and lives in two places, shared by every
//! execution path with the Mamba2 decode contract (the FP model here, the
//! quantized model in `lightmamba_quant`) so the guarantees cannot drift
//! between them: the one step loop
//! ([`drive_step_shard`], reached after
//! [`StepWorkspace::validate`] so no state is half-advanced on a bad
//! batch) and the ragged multi-token advance built on it
//! ([`drive_advance_batch_with`]).
//!
//! Every temporary a step needs — residual streams, logits, the
//! validation bitmap, the per-block kernel scratch — lives in a reusable
//! workspace, so decode performs **zero heap allocations** once warmed up
//! (pinned by a counting-allocator test). The allocating APIs remain as
//! convenience wrappers and are bit-identical.

use crate::block::BlockScratch;
use crate::par::{drive_step_shard, StateShards};
use crate::state::ModelState;
use crate::{MambaConfig, MambaModel, ModelError, Result};

/// Reusable buffers for one batched decode step: per-sequence residual
/// streams, per-sequence logits, and the validation bitmap. Buffers grow
/// to the largest batch seen and are never shrunk, so a steady-state
/// decode loop performs zero heap allocations after its first step.
///
/// This is the model-agnostic half of a decode workspace; execution
/// paths pair it with their own kernel scratch (the FP model's
/// [`DecodeWorkspace`], the quantized model's workspace in
/// `lightmamba_quant`).
#[derive(Debug, Clone, Default)]
pub struct StepWorkspace {
    pub(crate) xs: Vec<Vec<f32>>,
    pub(crate) logits: Vec<Vec<f32>>,
    seen: Vec<bool>,
    /// Number of logits the latest step produced (buffers may be longer).
    pub(crate) produced: usize,
}

impl StepWorkspace {
    /// An empty workspace; it warms up on the first step.
    pub fn new() -> Self {
        StepWorkspace::default()
    }

    /// Logits produced by the latest step: one per item whose logits
    /// were asked for (every item, for a plain decode step), in that
    /// step's `items` order.
    pub fn logits(&self) -> &[Vec<f32>] {
        &self.logits[..self.produced]
    }

    /// Moves the latest step's logits out (the workspace re-warms on the
    /// next step) — used by the allocating convenience wrappers.
    pub fn take_logits(&mut self) -> Vec<Vec<f32>> {
        let mut v = std::mem::take(&mut self.logits);
        v.truncate(self.produced);
        self.produced = 0;
        v
    }

    /// Validates a batch of `(state_index, token)` items against a model
    /// configuration, allocation-free once warm: indices in bounds and
    /// unique, states shaped for `cfg`, tokens within the vocabulary.
    /// Callers run this before touching any state so a rejected batch
    /// leaves every state untouched.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::StateMismatch`] / [`ModelError::TokenOutOfRange`]
    /// describing the first offending item.
    pub fn validate(
        &mut self,
        cfg: &MambaConfig,
        items: &[(usize, u32)],
        states: &[ModelState],
    ) -> std::result::Result<(), ModelError> {
        validate_batch_items_with(cfg, items, states, &mut self.seen)
    }

    pub(crate) fn prepare(&mut self, n: usize) {
        if self.xs.len() < n {
            self.xs.resize_with(n, Vec::new);
        }
        if self.logits.len() < n {
            self.logits.resize_with(n, Vec::new);
        }
        self.produced = 0;
    }
}

/// Batch validation with a caller-provided uniqueness bitmap (`seen` is
/// cleared and resized to `states.len()` in place) — see
/// [`StepWorkspace::validate`].
///
/// # Errors
///
/// Same conditions as [`StepWorkspace::validate`].
pub fn validate_batch_items_with(
    cfg: &MambaConfig,
    items: &[(usize, u32)],
    states: &[ModelState],
    seen: &mut Vec<bool>,
) -> std::result::Result<(), ModelError> {
    let dims = crate::ssm::SsmDims::new(cfg);
    let conv_dim = cfg.conv_dim();
    let d_conv = cfg.d_conv;
    seen.clear();
    seen.resize(states.len(), false);
    for &(slot, token) in items {
        let state = states.get(slot).ok_or_else(|| {
            ModelError::StateMismatch(format!(
                "batch references state {slot}, only {} exist",
                states.len()
            ))
        })?;
        if std::mem::replace(&mut seen[slot], true) {
            return Err(ModelError::StateMismatch(format!(
                "state {slot} appears twice in one batch step"
            )));
        }
        if state.layers.len() != cfg.n_layer {
            return Err(ModelError::StateMismatch(format!(
                "state {slot} has {} layers, model has {}",
                state.layers.len(),
                cfg.n_layer
            )));
        }
        for (li, layer) in state.layers.iter().enumerate() {
            if layer.h.len() != dims.state_len()
                || layer.conv.channels() != conv_dim
                || layer.conv.kernel() != d_conv
            {
                return Err(ModelError::StateMismatch(format!(
                    "state {slot} layer {li} shaped for a different config"
                )));
            }
        }
        if token as usize >= cfg.vocab_size {
            return Err(ModelError::TokenOutOfRange {
                token,
                vocab: cfg.vocab_size,
            });
        }
    }
    Ok(())
}

/// Drives a ragged multi-token advance generically — batched prefill, a
/// prefill chunk, or (one token each) a decode step. Each
/// `items[k] = (state_index, tokens)` feeds `tokens` into
/// `states[state_index]`; the result is each item's logits after its
/// *final* token, in `items` order. The recurrence is sequential per
/// token, so this runs `step(step_items, want, states, ws)` once per
/// token position over the items that still have a token there, reusing
/// `ws` across positions. `want[j]` marks the step items at their final
/// position: only those need logits, which is what spares prefill the
/// final norm and LM head at every other position. Afterwards
/// `logits_at(ws, m)` must yield the `m`-th wanted item's logits.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] when an item has no tokens;
/// propagates step errors.
pub fn drive_advance_batch_with<E, W, Step, Logit>(
    items: &[(usize, &[u32])],
    states: &mut [ModelState],
    ws: &mut W,
    mut step: Step,
    mut logits_at: Logit,
) -> std::result::Result<Vec<Vec<f32>>, E>
where
    E: From<ModelError>,
    Step: FnMut(&[(usize, u32)], &[bool], &mut [ModelState], &mut W) -> std::result::Result<(), E>,
    Logit: FnMut(&W, usize) -> Vec<f32>,
{
    if let Some((slot, _)) = items.iter().find(|(_, toks)| toks.is_empty()) {
        return Err(ModelError::InvalidConfig(format!(
            "advance of state {slot} was given no tokens"
        ))
        .into());
    }
    let max_len = items.iter().map(|(_, t)| t.len()).max().unwrap_or(0);
    let mut finals: Vec<Vec<f32>> = vec![Vec::new(); items.len()];
    let mut step_items: Vec<(usize, u32)> = Vec::with_capacity(items.len());
    let mut want: Vec<bool> = Vec::with_capacity(items.len());
    for pos in 0..max_len {
        step_items.clear();
        want.clear();
        for &(slot, toks) in items {
            if let Some(&token) = toks.get(pos) {
                step_items.push((slot, token));
                want.push(pos + 1 == toks.len());
            }
        }
        step(&step_items, &want, states, ws)?;
        let done = items.iter().zip(&mut finals);
        for (m, (_, last)) in done
            .filter(|((_, toks), _)| pos + 1 == toks.len())
            .enumerate()
        {
            *last = logits_at(ws, m);
        }
    }
    Ok(finals)
}

/// Pairs `prompts[k]` with `states[k]` for a ragged advance.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] when the slice lengths disagree.
pub fn prefill_items<'p>(
    prompts: &[&'p [u32]],
    states: &[ModelState],
) -> std::result::Result<Vec<(usize, &'p [u32])>, ModelError> {
    if prompts.len() != states.len() {
        return Err(ModelError::InvalidConfig(format!(
            "{} prompts for {} states",
            prompts.len(),
            states.len()
        )));
    }
    Ok(prompts.iter().copied().enumerate().collect())
}

/// The FP reference model's decode workspace: the batch-level buffers
/// plus the per-block kernel scratch. One workspace serves any batch
/// size; it grows to the largest batch seen and is then allocation-free.
#[derive(Debug, Clone, Default)]
pub struct DecodeWorkspace {
    pub(crate) step: StepWorkspace,
    pub(crate) scratch: BlockScratch,
}

impl DecodeWorkspace {
    /// An empty workspace; it warms up on the first step.
    pub fn new() -> Self {
        DecodeWorkspace::default()
    }

    /// Logits of the latest step, one per item whose logits were asked
    /// for (see [`StepWorkspace::logits`]).
    pub fn logits(&self) -> &[Vec<f32>] {
        self.step.logits()
    }
}

impl MambaModel {
    /// One shard's share of a step with this model's kernels: the FP
    /// closures of [`drive_step_shard`]. The layer closure loops the
    /// sub-batch's sequences through
    /// [`MambaBlock::forward_step_into`](crate::MambaBlock::forward_step_into),
    /// so FP arithmetic and loop order are those of sequential decode.
    ///
    /// # Safety
    ///
    /// The contract of [`drive_step_shard`].
    pub(crate) unsafe fn step_shard(
        &self,
        items: &[(usize, u32)],
        want: Option<&[bool]>,
        states: &StateShards<'_>,
        ws: &mut DecodeWorkspace,
    ) -> Result<()> {
        let scratch = &mut ws.scratch;
        let vocab = self.config().vocab_size;
        // SAFETY: forwarded from this function's contract.
        unsafe {
            drive_step_shard(
                self.config(),
                items,
                want,
                states,
                &mut ws.step,
                |token, buf| {
                    let row = self.embedding().row(token as usize)?;
                    buf.clear();
                    buf.extend_from_slice(row);
                    Ok(())
                },
                |layer, xs, lstates| {
                    for (k, x) in xs.iter_mut().enumerate() {
                        self.blocks()[layer].forward_step_into(x, lstates.state_mut(k), scratch)?;
                    }
                    Ok(())
                },
                |xs, logits| {
                    for (x, logits) in xs.iter_mut().zip(logits) {
                        lightmamba_tensor::norm::rms_norm(x, self.final_norm_gamma(), 1e-5);
                        logits.resize(vocab, 0.0);
                        self.embedding().matvec_into(x, logits)?;
                    }
                    Ok(())
                },
            )
        }
    }

    fn step_with(
        &self,
        items: &[(usize, u32)],
        want: Option<&[bool]>,
        states: &mut [ModelState],
        ws: &mut DecodeWorkspace,
    ) -> Result<()> {
        ws.step.validate(self.config(), items, states)?;
        // SAFETY: the batch was just validated (slots in bounds and
        // unique, states shaped for this model, tokens in range) and
        // this single shard is the only user of the view.
        unsafe { self.step_shard(items, want, &StateShards::new(states), ws) }
    }

    /// Workspace-threaded batched decode step: like
    /// [`MambaModel::forward_step_batch_indexed`], but every temporary
    /// lives in `ws`, so a steady-state decode loop performs zero heap
    /// allocations (pinned by the `no_alloc` integration test). Logits
    /// land in `ws.logits()`, index-aligned with `items`; outputs are
    /// bit-identical to the allocating path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MambaModel::forward_step_batch_indexed`].
    pub fn forward_step_batch_indexed_with(
        &self,
        items: &[(usize, u32)],
        states: &mut [ModelState],
        ws: &mut DecodeWorkspace,
    ) -> Result<()> {
        self.step_with(items, None, states, ws)
    }

    /// Workspace-threaded ragged advance (batched prefill, a prefill
    /// chunk, a decode step): feeds `items[k].1` into
    /// `states[items[k].0]` position by position, reusing `ws`, and
    /// returns each item's logits after its final token. The final norm
    /// and LM head run only at those final positions. Only the returned
    /// logits allocate.
    ///
    /// # Errors
    ///
    /// Rejects items without tokens, plus the conditions of
    /// [`MambaModel::forward_step_batch_indexed`] (checked before any
    /// state advances, for the first position).
    pub fn advance_batch_indexed_with(
        &self,
        items: &[(usize, &[u32])],
        states: &mut [ModelState],
        ws: &mut DecodeWorkspace,
    ) -> Result<Vec<Vec<f32>>> {
        drive_advance_batch_with(
            items,
            states,
            ws,
            |items, want, states, ws| self.step_with(items, Some(want), states, ws),
            |ws, m| ws.logits()[m].clone(),
        )
    }

    /// One decode step for a batch: `items[k] = (state_index, token)`
    /// advances `states[state_index]` by `token` and yields that
    /// sequence's next-token logits as `(state_index, logits)`.
    ///
    /// Indices select which resident sequences participate this step —
    /// exactly what a continuous batcher needs when sequences join and
    /// leave mid-flight. Results are returned in `items` order.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::StateMismatch`] when an index is out of
    /// bounds or repeated, and [`ModelError::TokenOutOfRange`] for
    /// invalid tokens. States are not advanced on error.
    pub fn forward_step_batch_indexed(
        &self,
        items: &[(usize, u32)],
        states: &mut [ModelState],
    ) -> Result<Vec<(usize, Vec<f32>)>> {
        let mut ws = DecodeWorkspace::new();
        self.forward_step_batch_indexed_with(items, states, &mut ws)?;
        Ok(items
            .iter()
            .map(|&(slot, _)| slot)
            .zip(ws.step.take_logits())
            .collect())
    }

    /// One decode step for every sequence: `tokens` and `states` are
    /// parallel slices. Returns one logits vector per sequence.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::StateMismatch`] when the slices disagree in
    /// length, plus the conditions of
    /// [`MambaModel::forward_step_batch_indexed`].
    pub fn forward_step_batch(
        &self,
        tokens: &[u32],
        states: &mut [ModelState],
    ) -> Result<Vec<Vec<f32>>> {
        if tokens.len() != states.len() {
            return Err(ModelError::StateMismatch(format!(
                "{} tokens for {} states",
                tokens.len(),
                states.len()
            )));
        }
        let items: Vec<(usize, u32)> = tokens.iter().copied().enumerate().collect();
        Ok(self
            .forward_step_batch_indexed(&items, states)?
            .into_iter()
            .map(|(_, logits)| logits)
            .collect())
    }

    /// Batched prefill over ragged prompts: consumes `prompts[k]` into
    /// `states[k]` position-by-position (all sequences advance together,
    /// sharing each layer's weights per position) and returns each
    /// sequence's logits after its final prompt token.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when any prompt is empty or
    /// the slice lengths disagree; propagates step errors.
    pub fn prefill_batch(
        &self,
        prompts: &[&[u32]],
        states: &mut [ModelState],
    ) -> Result<Vec<Vec<f32>>> {
        let items = prefill_items(prompts, states)?;
        self.advance_batch_indexed_with(&items, states, &mut DecodeWorkspace::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MambaConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model() -> MambaModel {
        MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(9)).unwrap()
    }

    #[test]
    fn batch_step_matches_sequential_bitwise() {
        let m = tiny_model();
        let prompts: [&[u32]; 3] = [&[5, 9, 2], &[40, 1], &[7, 7, 7, 7]];

        // Sequential reference.
        let mut seq_states: Vec<_> = (0..3).map(|_| m.new_state()).collect();
        let mut seq_logits = Vec::new();
        for (k, p) in prompts.iter().enumerate() {
            m.prefill(p, &mut seq_states[k]).unwrap();
            seq_logits.push(m.forward_step(0, &mut seq_states[k]).unwrap());
        }

        // Batched path.
        let mut states: Vec<_> = (0..3).map(|_| m.new_state()).collect();
        m.prefill_batch(&prompts, &mut states).unwrap();
        let batched = m.forward_step_batch(&[0, 0, 0], &mut states).unwrap();

        for k in 0..3 {
            assert_eq!(batched[k], seq_logits[k], "sequence {k} diverged");
            assert_eq!(states[k], seq_states[k], "state {k} diverged");
        }
    }

    #[test]
    fn prefill_batch_matches_prefill() {
        let m = tiny_model();
        let prompts: [&[u32]; 2] = [&[1, 2, 3, 4], &[200, 100]];
        let mut states: Vec<_> = (0..2).map(|_| m.new_state()).collect();
        let batched = m.prefill_batch(&prompts, &mut states).unwrap();
        for (k, p) in prompts.iter().enumerate() {
            let mut st = m.new_state();
            let single = m.prefill(p, &mut st).unwrap();
            assert_eq!(batched[k], single);
        }
    }

    #[test]
    fn indexed_step_advances_only_selected_slots() {
        let m = tiny_model();
        let mut states: Vec<_> = (0..3).map(|_| m.new_state()).collect();
        let untouched = states[1].clone();
        let out = m
            .forward_step_batch_indexed(&[(2, 4), (0, 9)], &mut states)
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, 2);
        assert_eq!(out[1].0, 0);
        assert_eq!(states[1], untouched);
        assert_ne!(states[0], untouched);
    }

    #[test]
    fn duplicate_slot_is_rejected_before_any_advance() {
        let m = tiny_model();
        let mut states: Vec<_> = (0..2).map(|_| m.new_state()).collect();
        let before = states.clone();
        let err = m.forward_step_batch_indexed(&[(0, 1), (0, 2)], &mut states);
        assert!(matches!(err, Err(ModelError::StateMismatch(_))));
        assert_eq!(states, before, "states must be untouched on error");
    }

    #[test]
    fn foreign_config_state_rejected_before_any_advance() {
        let m = tiny_model();
        // Same layer count as tiny(), different inner shapes.
        let mut other_cfg = MambaConfig::tiny();
        other_cfg.d_state = 32;
        let other = MambaModel::synthetic(other_cfg, &mut StdRng::seed_from_u64(2)).unwrap();
        let mut states = vec![m.new_state(), other.new_state()];
        let before = states.clone();
        let err = m.forward_step_batch_indexed(&[(0, 1), (1, 2)], &mut states);
        assert!(matches!(err, Err(ModelError::StateMismatch(_))));
        assert_eq!(states, before, "states must be untouched on error");
    }

    #[test]
    fn out_of_range_token_rejected_before_any_advance() {
        let m = tiny_model();
        let bad = m.config().vocab_size as u32;
        let mut states: Vec<_> = (0..2).map(|_| m.new_state()).collect();
        let before = states.clone();
        let err = m.forward_step_batch_indexed(&[(0, 1), (1, bad)], &mut states);
        assert!(matches!(err, Err(ModelError::TokenOutOfRange { .. })));
        assert_eq!(states, before);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let m = tiny_model();
        let mut states: Vec<ModelState> = Vec::new();
        let out = m.forward_step_batch(&[], &mut states).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn empty_prompt_in_batch_rejected() {
        let m = tiny_model();
        let prompts: [&[u32]; 2] = [&[1], &[]];
        let mut states: Vec<_> = (0..2).map(|_| m.new_state()).collect();
        assert!(m.prefill_batch(&prompts, &mut states).is_err());
    }
}
