//! The decode driver: one batched step, on one thread or many.
//!
//! Mamba2 sequences share no cross-sequence state, so a batched step is
//! semantically just N independent [`MambaModel::forward_step`] calls.
//! The driver reorders the loops — *layer outer* — and hands each layer
//! a whole sub-batch at once, so an execution path can run a layer as
//! phases over all resident sequences (the quantized model runs one GEMM
//! per linear layer; the FP model simply loops the sequences). Either
//! way each block's weights are touched once per step no matter how many
//! sequences are resident: the software analogue of the accelerator's
//! shared weight stream (`lightmamba_accel::batch`) and the hot path
//! `lightmamba_serve`'s continuous batcher drives.
//!
//! There is one of everything, shared by every execution path with the
//! Mamba2 decode contract (the FP model here, the quantized model in
//! `lightmamba_quant`) so the guarantees cannot drift between them:
//!
//! * [`DecodeKernels`] — what a model supplies: embed, one layer over a
//!   sub-batch, final norm + LM head, and its kernel scratch type.
//! * [`Workspace`] — every temporary of a step (validation bitmap, lane
//!   ranges, per-lane residual streams and kernel scratch, logits), so
//!   decode performs **zero heap allocations** once warm (pinned by
//!   counting-allocator tests).
//! * [`step`] / [`advance`] — one decode step, and the ragged
//!   multi-token advance built on it (batched prefill, a prefill chunk).
//!   Both validate the whole batch before touching any state.
//!
//! # Lanes
//!
//! A validated batch is cut into at most `pool.threads()` contiguous
//! *lanes* of items (sizes differ by at most one), and the one step loop
//! runs once per lane, each on its own thread with its own buffers.
//! Without a pool — or with a single item — that is one lane, run on the
//! caller's thread: the sequential step is not a second code path, it is
//! the one-lane cut.
//!
//! Per-sequence arithmetic is performed in exactly the order of the
//! single-stream path, sequences never interact, and a lane boundary
//! only splits the *iteration* (never a sequence). Logits and states are
//! therefore **bit-identical for any lane count**, however the OS
//! schedules the workers — pinned here, and by proptests in
//! `lightmamba_serve`.

use std::sync::{Mutex, PoisonError};

use lightmamba_pool::WorkerPool;

use crate::block::BlockScratch;
use crate::state::{LayerState, ModelState};
use crate::{MambaConfig, MambaModel, ModelError, Result};

/// The kernels of one execution path, as the decode driver calls them.
/// A model is `Sync` because every lane of a pooled step reads it.
pub trait DecodeKernels: Sync {
    /// Per-lane kernel scratch, reused across steps.
    type Scratch: Default + Send;
    /// The path's error type; validation errors convert into it.
    type Error: From<ModelError> + Send;

    /// The model configuration states are validated against.
    fn config(&self) -> &MambaConfig;

    /// Fills `x` with the embedding of `token` (already validated),
    /// reusing its capacity.
    ///
    /// # Errors
    ///
    /// Whatever the kernel raises.
    fn embed(&self, token: u32, x: &mut Vec<f32>) -> std::result::Result<(), Self::Error>;

    /// Advances every sequence of a lane through block `layer` in place
    /// — `xs[k]` with `states.state_mut(k)` — free to batch across
    /// sequences whatever does not depend on their recurrent state.
    ///
    /// # Errors
    ///
    /// Whatever the kernel raises.
    fn layer_step(
        &self,
        layer: usize,
        xs: &mut [Vec<f32>],
        states: &mut LayerBatch<'_>,
        scratch: &mut Self::Scratch,
    ) -> std::result::Result<(), Self::Error>;

    /// Turns each final residual stream `xs[m]` into `logits[m]` (final
    /// norm + LM head), reusing its capacity.
    ///
    /// # Errors
    ///
    /// Whatever the kernel raises.
    fn finish(
        &self,
        xs: &mut [Vec<f32>],
        logits: &mut [Vec<f32>],
        scratch: &mut Self::Scratch,
    ) -> std::result::Result<(), Self::Error>;
}

/// A raw view of `&mut [ModelState]` through which the lanes of one step
/// reach *disjoint* states from several threads — which the borrow
/// checker cannot express.
struct StateView<'a> {
    base: *mut ModelState,
    len: usize,
    _borrow: std::marker::PhantomData<&'a mut [ModelState]>,
}

// SAFETY: `base` and `len` describe a slice borrowed exclusively for
// `'a` (`_borrow` holds the borrow) of `ModelState`s, which are `Send`.
// The pointer is only dereferenced by `LayerBatch::state_mut`, under the
// contract of `StateView::new` — no slot is reached by two threads at
// once — so a view moved to, or shared with, other threads never hands
// one state to two of them.
unsafe impl Send for StateView<'_> {}
// SAFETY: as for `Send`; being shared by the lanes' threads is what the
// view is for.
unsafe impl Sync for StateView<'_> {}

impl<'a> StateView<'a> {
    /// Wraps a state slice; the exclusive borrow is held for the view's
    /// lifetime, so nothing outside the step can race it.
    ///
    /// # Safety
    ///
    /// Every [`LayerBatch`] built over the view must name slots that are
    /// in bounds, and no slot may be named by two batches that are live
    /// at once.
    unsafe fn new(states: &'a mut [ModelState]) -> Self {
        StateView {
            base: states.as_mut_ptr(),
            len: states.len(),
            _borrow: std::marker::PhantomData,
        }
    }
}

/// One layer's recurrent states for the sequences of a lane, handed to
/// [`DecodeKernels::layer_step`]: item `k`'s [`LayerState`] for the
/// layer being run, one exclusive borrow at a time.
pub struct LayerBatch<'a> {
    states: &'a StateView<'a>,
    items: &'a [(usize, u32)],
    layer: usize,
}

impl LayerBatch<'_> {
    /// The state of lane item `k` at this layer.
    ///
    /// # Panics
    ///
    /// If `k` is not an item index of the lane.
    pub fn state_mut(&mut self, k: usize) -> &mut LayerState {
        let slot = self.items[k].0;
        debug_assert!(slot < self.states.len, "state slot {slot} out of bounds");
        // SAFETY: the contract of `StateView::new` — `slot` is in bounds
        // and this lane is its only user; `&mut self` keeps the borrows
        // handed out here from overlapping one another.
        let state = unsafe { &mut *self.states.base.add(slot) };
        &mut state.layers[self.layer]
    }
}

/// One lane's buffers: its item range in the latest step, a residual
/// stream and a logits buffer per item, and the kernel scratch.
#[derive(Debug, Clone, Default)]
struct Lane<S> {
    range: (usize, usize),
    xs: Vec<Vec<f32>>,
    logits: Vec<Vec<f32>>,
    /// Logits the latest step left in `logits[..produced]`.
    produced: usize,
    scratch: S,
}

/// Every temporary of a decode step. One workspace serves any batch size
/// and any lane count, pooled or not: buffers grow to the largest shape
/// seen and are never shrunk, so a steady-state decode loop performs
/// zero heap allocations after its first steps.
#[derive(Debug, Clone, Default)]
pub struct Workspace<S> {
    seen: Vec<bool>,
    lanes: Vec<Lane<S>>,
    /// Lanes the latest step used (`lanes` may be longer).
    used: usize,
    logits: Vec<Vec<f32>>,
    /// Logits the latest step produced (`logits` may be longer).
    produced: usize,
}

/// The FP reference model's decode workspace.
pub type DecodeWorkspace = Workspace<BlockScratch>;
/// [`DecodeWorkspace`], as callers of
/// [`MambaModel::forward_step_batch_indexed_par_with`] name it.
pub type ParDecodeWorkspace = DecodeWorkspace;

impl<S: Default> Workspace<S> {
    /// An empty workspace; it warms up on the first step.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Logits of the latest step: one per item whose logits were asked
    /// for (every item, for a plain decode step), in that step's `items`
    /// order whatever the lane count.
    pub fn logits(&self) -> &[Vec<f32>] {
        &self.logits[..self.produced]
    }

    /// Consumes the workspace, keeping only [`Workspace::logits`].
    pub fn into_logits(mut self) -> Vec<Vec<f32>> {
        self.logits.truncate(self.produced);
        self.logits
    }

    /// Cuts `items` item indices into `min(threads, items)` balanced
    /// contiguous lanes (sizes differ by at most one).
    fn plan(&mut self, items: usize, threads: usize) {
        self.used = threads.min(items);
        if self.lanes.len() < self.used {
            self.lanes.resize_with(self.used, Lane::default);
        }
        let (base, rem) = (items / self.used.max(1), items % self.used.max(1));
        let mut lo = 0;
        for (k, lane) in self.lanes[..self.used].iter_mut().enumerate() {
            let hi = lo + base + usize::from(k < rem);
            lane.range = (lo, hi);
            lo = hi;
        }
        debug_assert_eq!(lo, items);
    }
}

/// Checks a batch before any state is touched, so a rejected batch
/// leaves every state as it was: slots in bounds and unique, states
/// shaped for `cfg`, at least one token per item and *every* token
/// within the vocabulary. Allocation-free once `seen` is warm.
fn validate<'t>(
    cfg: &MambaConfig,
    items: impl Iterator<Item = (usize, &'t [u32])>,
    states: &[ModelState],
    seen: &mut Vec<bool>,
) -> Result<()> {
    let dims = crate::ssm::SsmDims::new(cfg);
    seen.clear();
    seen.resize(states.len(), false);
    for (slot, tokens) in items {
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
        if let Some(li) = state.layers.iter().position(|layer| {
            layer.h.len() != dims.state_len()
                || layer.conv.channels() != cfg.conv_dim()
                || layer.conv.kernel() != cfg.d_conv
        }) {
            return Err(ModelError::StateMismatch(format!(
                "state {slot} layer {li} shaped for a different config"
            )));
        }
        if tokens.is_empty() {
            return Err(ModelError::InvalidConfig(format!(
                "advance of state {slot} was given no tokens"
            )));
        }
        if let Some(&token) = tokens.iter().find(|&&t| t as usize >= cfg.vocab_size) {
            return Err(ModelError::TokenOutOfRange {
                token,
                vocab: cfg.vocab_size,
            });
        }
    }
    Ok(())
}

/// The one step loop, over one lane: embed every token, run each layer
/// over the whole lane, then turn the wanted residual streams into
/// logits.
fn run_lane<M: DecodeKernels>(
    model: &M,
    items: &[(usize, u32)],
    want: Option<&[bool]>,
    states: &StateView<'_>,
    lane: &mut Lane<M::Scratch>,
) -> std::result::Result<(), M::Error> {
    let (lo, hi) = lane.range;
    let (items, want) = (&items[lo..hi], want.map(|w| &w[lo..hi]));
    let n = items.len();
    if lane.xs.len() < n {
        lane.xs.resize_with(n, Vec::new);
        lane.logits.resize_with(n, Vec::new);
    }
    for (x, &(_, token)) in lane.xs.iter_mut().zip(items) {
        model.embed(token, x)?;
    }
    for layer in 0..model.config().n_layer {
        let mut lstates = LayerBatch {
            states,
            items,
            layer,
        };
        model.layer_step(layer, &mut lane.xs[..n], &mut lstates, &mut lane.scratch)?;
    }
    // Gather the wanted residual streams at the front (the buffers are
    // interchangeable; the next step re-embeds into all of them).
    let mut wanted = n;
    if let Some(want) = want {
        wanted = 0;
        for k in (0..n).filter(|&k| want[k]) {
            lane.xs.swap(wanted, k);
            wanted += 1;
        }
    }
    model.finish(
        &mut lane.xs[..wanted],
        &mut lane.logits[..wanted],
        &mut lane.scratch,
    )?;
    lane.produced = wanted;
    Ok(())
}

/// One step over an already validated batch: plans the lanes, runs them
/// (on the pool when there is one and more than one lane, otherwise
/// right here) and gathers their logits in `items` order.
fn run_step<M: DecodeKernels>(
    model: &M,
    items: &[(usize, u32)],
    want: Option<&[bool]>,
    states: &mut [ModelState],
    pool: Option<&WorkerPool>,
    ws: &mut Workspace<M::Scratch>,
) -> std::result::Result<(), M::Error> {
    assert!(
        want.map_or(true, |w| w.len() == items.len()),
        "one flag per item"
    );
    ws.plan(items.len(), pool.map_or(1, WorkerPool::threads));
    ws.produced = 0;
    let lanes = &mut ws.lanes[..ws.used];
    // SAFETY: both callers ran `validate` over these slots first, so
    // they are in bounds and duplicate-free (and the states are shaped
    // for the model, the tokens in range), and `plan` just cut `items`
    // into disjoint contiguous lanes — so the `LayerBatch`es the lanes
    // build below never share a slot.
    let view = unsafe { StateView::new(states) };
    let first_err: Mutex<Option<(usize, M::Error)>> = Mutex::new(None);
    let run = |k: usize, lane: &mut Lane<M::Scratch>| {
        if let Err(e) = run_lane(model, items, want, &view, lane) {
            // Keep the lowest lane's error, so what is reported does not
            // depend on thread scheduling (MSRV 1.75: no `is_none_or`).
            let mut first = first_err.lock().unwrap_or_else(PoisonError::into_inner);
            if !matches!(first.as_ref(), Some(&(j, _)) if j < k) {
                *first = Some((k, e));
            }
        }
    };
    match pool {
        Some(pool) if lanes.len() > 1 => pool.run_over(lanes, run),
        _ => lanes
            .iter_mut()
            .enumerate()
            .for_each(|(k, lane)| run(k, lane)),
    }
    let failed = first_err.into_inner();
    if let Some((_, e)) = failed.unwrap_or_else(PoisonError::into_inner) {
        return Err(e);
    }
    // Lanes are contiguous, so chaining them restores batch order;
    // swapping (not copying) keeps every buffer's capacity in play.
    if ws.logits.len() < items.len() {
        ws.logits.resize_with(items.len(), Vec::new);
    }
    for lane in lanes {
        for logits in &mut lane.logits[..lane.produced] {
            std::mem::swap(&mut ws.logits[ws.produced], logits);
            ws.produced += 1;
        }
    }
    Ok(())
}

/// One decode step for a batch: `items[k] = (state_index, token)`
/// advances `states[state_index]` by `token`. Indices select which
/// resident sequences participate — what a continuous batcher needs when
/// sequences join and leave mid-flight; states not named are untouched.
/// Logits land in [`Workspace::logits`], in `items` order: one per item,
/// or with `want` one per item whose flag is set (the final norm and LM
/// head run only for those).
///
/// With a `pool` the batch runs as up to `pool.threads()` lanes, one per
/// thread; without one (or with one item) as a single lane on the
/// caller's thread. Outputs are bit-identical either way.
///
/// # Errors
///
/// Returns [`ModelError::StateMismatch`] when an index is out of bounds
/// or repeated or a state is shaped for another config, and
/// [`ModelError::TokenOutOfRange`] for invalid tokens — describing the
/// first offending item, with no state advanced. Kernel errors are
/// propagated (the lowest lane's, when several fail).
///
/// # Panics
///
/// If `want` is given and is not as long as `items`.
pub fn step<M: DecodeKernels>(
    model: &M,
    items: &[(usize, u32)],
    want: Option<&[bool]>,
    states: &mut [ModelState],
    pool: Option<&WorkerPool>,
    ws: &mut Workspace<M::Scratch>,
) -> std::result::Result<(), M::Error> {
    let tokens = items
        .iter()
        .map(|(slot, t)| (*slot, std::slice::from_ref(t)));
    validate(model.config(), tokens, states, &mut ws.seen)?;
    run_step(model, items, want, states, pool, ws)
}

/// A ragged multi-token advance — batched prefill, a prefill chunk, or
/// (one token each) a decode step. Each `items[k] = (state_index,
/// tokens)` feeds `tokens` into `states[state_index]`; the result is
/// each item's logits after its *final* token, in `items` order. The
/// recurrence is sequential per token, so this runs one step per token
/// position over the items that still have a token there, and only the
/// items at their final position pay for the final norm and LM head.
/// Only the returned logits (and two small index vectors) allocate.
///
/// # Errors
///
/// The conditions of [`step`], plus [`ModelError::InvalidConfig`] for an
/// item without tokens — all checked for every item and **every token**
/// before the first position runs, so a rejected advance leaves every
/// state untouched.
pub fn advance<M: DecodeKernels>(
    model: &M,
    items: &[(usize, &[u32])],
    states: &mut [ModelState],
    pool: Option<&WorkerPool>,
    ws: &mut Workspace<M::Scratch>,
) -> std::result::Result<Vec<Vec<f32>>, M::Error> {
    validate(model.config(), items.iter().copied(), states, &mut ws.seen)?;
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
        run_step(model, &step_items, Some(&want), states, pool, ws)?;
        let done = items.iter().zip(&mut finals);
        let done = done.filter(|((_, toks), _)| pos + 1 == toks.len());
        for ((_, last), logits) in done.zip(ws.logits()) {
            last.clone_from(logits);
        }
    }
    Ok(finals)
}

impl DecodeKernels for MambaModel {
    type Scratch = BlockScratch;
    type Error = ModelError;

    fn config(&self) -> &MambaConfig {
        MambaModel::config(self)
    }

    fn embed(&self, token: u32, x: &mut Vec<f32>) -> Result<()> {
        x.clear();
        x.extend_from_slice(self.embedding().row(token as usize)?);
        Ok(())
    }

    /// Loops the lane's sequences through
    /// [`MambaBlock::forward_step_into`](crate::MambaBlock::forward_step_into),
    /// so FP arithmetic and loop order are those of sequential decode.
    fn layer_step(
        &self,
        layer: usize,
        xs: &mut [Vec<f32>],
        states: &mut LayerBatch<'_>,
        scratch: &mut BlockScratch,
    ) -> Result<()> {
        for (k, x) in xs.iter_mut().enumerate() {
            self.blocks()[layer].forward_step_into(x, states.state_mut(k), scratch)?;
        }
        Ok(())
    }

    fn finish(
        &self,
        xs: &mut [Vec<f32>],
        logits: &mut [Vec<f32>],
        _scratch: &mut BlockScratch,
    ) -> Result<()> {
        for (x, logits) in xs.iter_mut().zip(logits) {
            lightmamba_tensor::norm::rms_norm(x, self.final_norm_gamma(), 1e-5);
            logits.resize(self.config().vocab_size, 0.0);
            self.embedding().matvec_into(x, logits)?;
        }
        Ok(())
    }
}

impl MambaModel {
    /// [`step`] over this model on the caller's thread, logits for every
    /// item (in `ws.logits()`, index-aligned with `items`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`step`].
    pub fn forward_step_batch_indexed_with(
        &self,
        items: &[(usize, u32)],
        states: &mut [ModelState],
        ws: &mut DecodeWorkspace,
    ) -> Result<()> {
        step(self, items, None, states, None, ws)
    }

    /// [`step`] over this model across `pool`, logits for every item.
    ///
    /// # Errors
    ///
    /// Same conditions as [`step`].
    pub fn forward_step_batch_indexed_par_with(
        &self,
        items: &[(usize, u32)],
        states: &mut [ModelState],
        pool: &WorkerPool,
        ws: &mut ParDecodeWorkspace,
    ) -> Result<()> {
        step(self, items, None, states, Some(pool), ws)
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

    /// The lane cuts every equivalence below is pinned under: no pool,
    /// then pools of 1, 3, 4 and 16 threads.
    fn pools() -> Vec<Option<WorkerPool>> {
        let mut pools = vec![None];
        pools.extend([1, 3, 4, 16].map(|t| Some(WorkerPool::new(t))));
        pools
    }

    #[test]
    fn shard_plan_is_balanced_and_contiguous() {
        let mut ws = DecodeWorkspace::new();
        for items in 0..40 {
            for threads in 1..9 {
                ws.plan(items, threads);
                let ranges: Vec<_> = ws.lanes[..ws.used].iter().map(|l| l.range).collect();
                assert_eq!(ranges.len(), threads.min(items));
                let mut lo = 0;
                for &(a, b) in &ranges {
                    assert_eq!(a, lo, "ranges are contiguous from zero");
                    assert!(b > a, "no empty lane");
                    lo = b;
                }
                assert_eq!(lo, items, "ranges cover all items");
                let sizes = ranges.iter().map(|&(a, b)| b - a);
                if let (Some(min), Some(max)) = (sizes.clone().min(), sizes.max()) {
                    assert!(max - min <= 1, "balanced to within one item");
                }
            }
        }
    }

    #[test]
    fn batch_step_matches_sequential_bitwise() {
        // Ragged prefill (`advance`), a decode `step`, then a `step`
        // with a ragged `want` — under every lane cut, including more
        // threads than items — against one sequence at a time through
        // `MambaModel::forward_step`. Logits and states, bit for bit.
        let m = tiny_model();
        let n = 7;
        let prompts: Vec<Vec<u32>> = (0..n as u32)
            .map(|k| {
                (0..1 + (k * 5) % 4)
                    .map(|i| (k * 31 + i * 7) % 256)
                    .collect()
            })
            .collect();
        let next = |k: usize, round: u32| (k as u32 * 13 + 3 + round * 29) % 256;
        let want: Vec<bool> = (0..n).map(|k| k % 3 != 1).collect();

        let mut oracle_states = Vec::new();
        let mut oracle = [Vec::new(), Vec::new(), Vec::new()];
        for (k, prompt) in prompts.iter().enumerate() {
            let mut state = m.new_state();
            let mut last = Vec::new();
            for &t in prompt {
                last = m.forward_step(t, &mut state).unwrap();
            }
            oracle[0].push(last);
            oracle[1].push(m.forward_step(next(k, 0), &mut state).unwrap());
            let ragged = m.forward_step(next(k, 1), &mut state).unwrap();
            if want[k] {
                oracle[2].push(ragged);
            }
            oracle_states.push(state);
        }

        let ragged: Vec<(usize, &[u32])> = prompts.iter().map(|p| &p[..]).enumerate().collect();
        let decode = |round| -> Vec<(usize, u32)> { (0..n).map(|k| (k, next(k, round))).collect() };
        for pool in pools() {
            let (pool, label) = (pool.as_ref(), format!("pool {pool:?}"));
            let mut states: Vec<_> = (0..n).map(|_| m.new_state()).collect();
            let mut ws = DecodeWorkspace::new();
            let prefill = advance(&m, &ragged, &mut states, pool, &mut ws).unwrap();
            assert_eq!(prefill, oracle[0], "{label}: prefill");
            step(&m, &decode(0), None, &mut states, pool, &mut ws).unwrap();
            assert_eq!(ws.logits(), &oracle[1][..], "{label}: decode");
            step(&m, &decode(1), Some(&want), &mut states, pool, &mut ws).unwrap();
            assert_eq!(ws.logits(), &oracle[2][..], "{label}: ragged want");
            assert_eq!(states, oracle_states, "{label}: states");
        }
    }

    #[test]
    fn indexed_step_advances_only_selected_slots() {
        let m = tiny_model();
        let mut states: Vec<_> = (0..3).map(|_| m.new_state()).collect();
        let untouched = states[1].clone();
        let mut ws = DecodeWorkspace::new();
        step(&m, &[(2, 4), (0, 9)], None, &mut states, None, &mut ws).unwrap();
        assert_eq!(ws.logits().len(), 2);
        assert_eq!(
            ws.logits()[0],
            m.forward_step(4, &mut m.new_state()).unwrap()
        );
        assert_eq!(states[1], untouched);
        assert_ne!(states[0], untouched);
    }

    /// One row of the rejection table: `items` must be refused — by
    /// `advance`, and by `step` when every item is a single token,
    /// pooled and not — with every state left bit-equal.
    fn assert_rejected(
        m: &MambaModel,
        states: &mut [ModelState],
        items: &[(usize, &[u32])],
        expected: fn(&ModelError) -> bool,
    ) {
        let before = states.to_vec();
        let single: Option<Vec<(usize, u32)>> = items
            .iter()
            .map(|&(slot, toks)| (toks.len() == 1).then(|| (slot, toks[0])))
            .collect();
        for pool in [None, Some(WorkerPool::new(4))] {
            let mut ws = DecodeWorkspace::new();
            let err = advance(m, items, states, pool.as_ref(), &mut ws).unwrap_err();
            assert!(expected(&err), "advance, pool {pool:?}: {err:?}");
            if let Some(single) = &single {
                let err = step(m, single, None, states, pool.as_ref(), &mut ws).unwrap_err();
                assert!(expected(&err), "step, pool {pool:?}: {err:?}");
            }
            assert_eq!(states, &before[..], "states must be untouched on error");
        }
    }

    #[test]
    fn duplicate_slot_is_rejected_before_any_advance() {
        let m = tiny_model();
        let mut states: Vec<_> = (0..2).map(|_| m.new_state()).collect();
        let mismatch = |e: &ModelError| matches!(e, ModelError::StateMismatch(_));
        assert_rejected(&m, &mut states, &[(0, &[1]), (0, &[2])], mismatch);
        // A slot past the end of `states` is refused the same way.
        assert_rejected(&m, &mut states, &[(0, &[1]), (2, &[2])], mismatch);
    }

    #[test]
    fn foreign_config_state_rejected_before_any_advance() {
        let m = tiny_model();
        // Same layer count as tiny(), different inner shapes.
        let mut other_cfg = MambaConfig::tiny();
        other_cfg.d_state = 32;
        let mut states = vec![m.new_state(), ModelState::new(&other_cfg)];
        assert_rejected(&m, &mut states, &[(0, &[1]), (1, &[2])], |e| {
            matches!(e, ModelError::StateMismatch(_))
        });
    }

    #[test]
    fn out_of_range_token_rejected_before_any_advance() {
        let m = tiny_model();
        let bad = m.config().vocab_size as u32;
        let mut states: Vec<_> = (0..2).map(|_| m.new_state()).collect();
        let out_of_range = |e: &ModelError| matches!(e, ModelError::TokenOutOfRange { .. });
        assert_rejected(&m, &mut states, &[(0, &[1]), (1, &[bad])], out_of_range);
        // Atomicity of a ragged advance: the bad token sits at a later
        // position of the second item, and still nothing may advance.
        let late: [(usize, &[u32]); 2] = [(0, &[1, 2, 3]), (1, &[4, 5, bad])];
        assert_rejected(&m, &mut states, &late, out_of_range);
    }

    #[test]
    fn empty_prompt_in_batch_rejected() {
        let m = tiny_model();
        let mut states: Vec<_> = (0..2).map(|_| m.new_state()).collect();
        assert_rejected(&m, &mut states, &[(0, &[1]), (1, &[])], |e| {
            matches!(e, ModelError::InvalidConfig(_))
        });
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let m = tiny_model();
        let mut states = vec![m.new_state()];
        let before = states.clone();
        for pool in [None, Some(WorkerPool::new(2))] {
            let mut ws = DecodeWorkspace::new();
            step(&m, &[(0, 1)], None, &mut states, pool.as_ref(), &mut ws).unwrap();
            states.clone_from(&before);
            step(&m, &[], None, &mut states, pool.as_ref(), &mut ws).unwrap();
            assert!(ws.logits().is_empty(), "no stale logits from the last step");
            let finals = advance(&m, &[], &mut states, pool.as_ref(), &mut ws).unwrap();
            assert!(finals.is_empty());
            assert_eq!(states, before);
        }
    }
}
