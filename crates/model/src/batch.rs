//! The decode driver: one batched advance, on one thread or many.
//!
//! Mamba2 sequences share no cross-sequence state, so a batched advance
//! is semantically just N independent runs of
//! [`MambaModel::forward_step`], one per fed token. The driver reorders
//! the loops — *layer outer* — and hands each layer every fed token at
//! once, as *rows*: each `(item, position)` is one row, ordered by item
//! and then by ascending position. An execution path can then run a
//! layer as phases over all rows (the quantized model runs one GEMM per
//! linear layer; the FP model simply loops the rows). Either way each
//! block's weights are touched once per advance, however many sequences
//! are resident and however many tokens each is fed: the software
//! analogue of the accelerator's shared weight stream
//! (`lightmamba_accel::batch`) and the hot path `lightmamba_serve`'s
//! continuous batcher drives. Only conv and the SSM scan carry state
//! from one position to the next, and a kernel runs that per-row work in
//! row order, so a prefill chunk is exact.
//!
//! There is one of everything, shared by every execution path with the
//! Mamba2 decode contract (the FP model here, the quantized model in
//! `lightmamba_quant`) so the guarantees cannot drift between them:
//!
//! * [`DecodeKernels`] — what a model supplies: embed, one layer over
//!   rows, final norm + LM head, and its kernel scratch type.
//! * [`Workspace`] — every temporary of an advance (validation bitmap,
//!   the rows, lane ranges, per-lane residual streams and kernel
//!   scratch, logits), so a decode step performs **zero heap
//!   allocations** once warm, and a warm [`advance`] only the vectors it
//!   returns (pinned by counting-allocator tests).
//! * [`advance`] / [`step`] — a ragged multi-token advance (batched
//!   prefill, a prefill chunk, decode), and its one-token-per-item case.
//!   Both validate the whole batch before touching any state, and only
//!   each item's last row pays for the final norm and LM head.
//!
//! # Lanes
//!
//! A validated batch is cut into at most `pool.threads()` contiguous
//! *lanes* of whole items (item counts differ by at most one; a lane owns
//! every row of its items, so no sequence is ever split across threads),
//! and the one lane loop runs once per lane, each on its own thread with
//! its own buffers. Without a pool — or with a single item — that is one
//! lane, run on the caller's thread: the sequential advance is not a
//! second code path, it is the one-lane cut.
//!
//! Per-sequence arithmetic is performed in exactly the order of the
//! single-stream path and sequences never interact. Logits and states
//! are therefore **bit-identical for any lane count**, however the OS
//! schedules the workers — pinned here, and by proptests in
//! `lightmamba_serve`.

use std::sync::{Mutex, PoisonError};

use lightmamba_pool::WorkerPool;

use crate::block::BlockScratch;
use crate::state::{LayerState, ModelState};
use crate::{MambaConfig, MambaModel, ModelError, Result};

/// The kernels of one execution path, as the decode driver calls them.
/// A model is `Sync` because every lane of a pooled advance reads it.
pub trait DecodeKernels: Sync {
    /// Per-lane kernel scratch, reused across advances.
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

    /// Advances every row of a lane through block `layer` in place —
    /// `xs[k]` with `states.state_mut(k)`. A row is one fed token of one
    /// sequence; one sequence's rows are consecutive and in position
    /// order, so a kernel must run its per-row recurrent work (whatever
    /// reads or writes the state) in row order. It is free to batch
    /// across rows whatever does not touch the state.
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

/// A raw view of `&mut [ModelState]` through which the lanes of one
/// advance reach *disjoint* states from several threads — which the
/// borrow checker cannot express.
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
    /// lifetime, so nothing outside the advance can race it.
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

/// One layer's recurrent states for the rows of a lane, handed to
/// [`DecodeKernels::layer_step`]: row `k`'s item's [`LayerState`] for the
/// layer being run, one exclusive borrow at a time.
pub struct LayerBatch<'a> {
    states: &'a StateView<'a>,
    rows: &'a [(usize, u32)],
    layer: usize,
}

impl LayerBatch<'_> {
    /// The state of lane row `k`'s item at this layer.
    ///
    /// # Panics
    ///
    /// If `k` is not a row index of the lane.
    pub fn state_mut(&mut self, k: usize) -> &mut LayerState {
        let slot = self.rows[k].0;
        debug_assert!(slot < self.states.len, "state slot {slot} out of bounds");
        // SAFETY: the contract of `StateView::new` — `slot` is in bounds
        // and this lane is its only user; `&mut self` keeps the borrows
        // handed out here from overlapping one another.
        let state = unsafe { &mut *self.states.base.add(slot) };
        &mut state.layers[self.layer]
    }
}

/// One lane's buffers: its row range in the latest advance, a residual
/// stream per row, a logits buffer per item, and the kernel scratch.
#[derive(Debug, Clone, Default)]
struct Lane<S> {
    range: (usize, usize),
    xs: Vec<Vec<f32>>,
    logits: Vec<Vec<f32>>,
    /// Logits the latest advance left in `logits[..produced]`.
    produced: usize,
    scratch: S,
}

/// Every temporary of an advance. One workspace serves any batch shape
/// and any lane count, pooled or not: buffers grow to the largest shape
/// seen and are never shrunk, so a steady-state decode loop performs
/// zero heap allocations after its first steps.
#[derive(Debug, Clone, Default)]
pub struct Workspace<S> {
    seen: Vec<bool>,
    /// The latest advance's rows, `(state_index, token)`, item by item
    /// and each item's tokens in order.
    rows: Vec<(usize, u32)>,
    /// Per row, whether it is its item's last (the one that pays for
    /// logits).
    last: Vec<bool>,
    lanes: Vec<Lane<S>>,
    /// Lanes the latest advance used (`lanes` may be longer).
    used: usize,
    logits: Vec<Vec<f32>>,
    /// Logits the latest advance produced (`logits` may be longer).
    produced: usize,
}

/// The FP reference model's decode workspace.
pub type DecodeWorkspace = Workspace<BlockScratch>;
/// [`DecodeWorkspace`], as callers of
/// [`MambaModel::forward_step_batch_indexed_par_with`] name it.
pub type ParDecodeWorkspace = DecodeWorkspace;

impl<S: Default> Workspace<S> {
    /// An empty workspace; it warms up on the first advance.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Logits of the latest advance: one per item, after its last token,
    /// in that advance's `items` order whatever the lane count.
    pub fn logits(&self) -> &[Vec<f32>] {
        &self.logits[..self.produced]
    }

    /// Consumes the workspace, keeping only [`Workspace::logits`].
    pub fn into_logits(mut self) -> Vec<Vec<f32>> {
        self.logits.truncate(self.produced);
        self.logits
    }

    /// Cuts the rows into `min(threads, items)` contiguous lanes of
    /// whole items, item counts differing by at most one.
    fn plan(&mut self, threads: usize) {
        let items = self.last.iter().filter(|&&last| last).count();
        self.used = threads.min(items);
        if self.lanes.len() < self.used {
            self.lanes.resize_with(self.used, Lane::default);
        }
        let (base, rem) = (items / self.used.max(1), items % self.used.max(1));
        let mut ends = (1..=self.last.len()).filter(|&r| self.last[r - 1]);
        let mut lo = 0;
        for (k, lane) in self.lanes[..self.used].iter_mut().enumerate() {
            let take = base + usize::from(k < rem);
            let hi = ends
                .nth(take - 1)
                .expect("`used <= items`: a lane has an item");
            lane.range = (lo, hi);
            lo = hi;
        }
        debug_assert_eq!(lo, self.rows.len());
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

/// The one lane loop: embed every row, run each layer over all of the
/// lane's rows, then turn each item's last residual stream into logits.
fn run_lane<M: DecodeKernels>(
    model: &M,
    rows: &[(usize, u32)],
    last: &[bool],
    states: &StateView<'_>,
    lane: &mut Lane<M::Scratch>,
) -> std::result::Result<(), M::Error> {
    let (lo, hi) = lane.range;
    let (rows, last) = (&rows[lo..hi], &last[lo..hi]);
    let n = rows.len();
    if lane.xs.len() < n {
        lane.xs.resize_with(n, Vec::new);
        lane.logits.resize_with(n, Vec::new);
    }
    for (x, &(_, token)) in lane.xs.iter_mut().zip(rows) {
        model.embed(token, x)?;
    }
    for layer in 0..model.config().n_layer {
        let mut lstates = LayerBatch {
            states,
            rows,
            layer,
        };
        model.layer_step(layer, &mut lane.xs[..n], &mut lstates, &mut lane.scratch)?;
    }
    // Gather each item's last residual stream at the front (the buffers
    // are interchangeable; the next advance re-embeds into all of them).
    let mut items = 0;
    for k in (0..n).filter(|&k| last[k]) {
        lane.xs.swap(items, k);
        items += 1;
    }
    model.finish(
        &mut lane.xs[..items],
        &mut lane.logits[..items],
        &mut lane.scratch,
    )?;
    lane.produced = items;
    Ok(())
}

/// Validates `items`, lays their tokens out as rows, plans the lanes,
/// runs them (on the pool when there is one and more than one lane,
/// otherwise right here) and gathers their logits in `items` order.
fn feed<'t, M: DecodeKernels>(
    model: &M,
    items: impl Iterator<Item = (usize, &'t [u32])> + Clone,
    states: &mut [ModelState],
    pool: Option<&WorkerPool>,
    ws: &mut Workspace<M::Scratch>,
) -> std::result::Result<(), M::Error> {
    validate(model.config(), items.clone(), states, &mut ws.seen)?;
    ws.rows.clear();
    ws.last.clear();
    for (slot, tokens) in items {
        ws.rows.extend(tokens.iter().map(|&token| (slot, token)));
        ws.last
            .extend((1..=tokens.len()).map(|i| i == tokens.len()));
    }
    ws.plan(pool.map_or(1, WorkerPool::threads));
    ws.produced = 0;
    let lanes = &mut ws.lanes[..ws.used];
    // SAFETY: `validate` just checked these slots, so they are in bounds
    // and no item repeats one (and the states are shaped for the model,
    // the tokens in range), and `plan` cut the rows into disjoint lanes
    // of whole items — so the `LayerBatch`es of two lanes never share a
    // slot.
    let view = unsafe { StateView::new(states) };
    let first_err: Mutex<Option<(usize, M::Error)>> = Mutex::new(None);
    let run = |k: usize, lane: &mut Lane<M::Scratch>| {
        if let Err(e) = run_lane(model, &ws.rows, &ws.last, &view, lane) {
            // Keep the lowest lane's error, so what is reported does not
            // depend on thread scheduling.
            let mut first = first_err.lock().unwrap_or_else(PoisonError::into_inner);
            if first.as_ref().is_none_or(|&(j, _)| j >= k) {
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
    let items = lanes.iter().map(|lane| lane.produced).sum();
    if ws.logits.len() < items {
        ws.logits.resize_with(items, Vec::new);
    }
    for lane in lanes {
        for logits in &mut lane.logits[..lane.produced] {
            std::mem::swap(&mut ws.logits[ws.produced], logits);
            ws.produced += 1;
        }
    }
    Ok(())
}

/// A ragged multi-token advance — batched prefill, a prefill chunk, or
/// (one token each) a decode step. Each `items[k] = (state_index,
/// tokens)` feeds `tokens` into `states[state_index]`; the result is
/// each item's logits after its *final* token, in `items` order. Indices
/// select which resident sequences participate — what a continuous
/// batcher needs when sequences join and leave mid-flight; states not
/// named are untouched.
///
/// Every token is one row, and each layer runs once over all rows, so a
/// linear layer's weights are streamed once per advance; only each
/// item's last row pays for the final norm and LM head. With a `pool`
/// the items run as up to `pool.threads()` lanes, one per thread;
/// without one (or with one item) as a single lane on the caller's
/// thread. Outputs are bit-identical either way, and bit-identical to
/// feeding each sequence one token at a time. Once warm, only the
/// returned vectors allocate.
///
/// # Errors
///
/// Returns [`ModelError::StateMismatch`] when an index is out of bounds
/// or repeated or a state is shaped for another config,
/// [`ModelError::InvalidConfig`] for an item without tokens and
/// [`ModelError::TokenOutOfRange`] for an invalid token — describing the
/// first offending item, checked for every item and **every token**
/// before any state advances. Kernel errors are propagated (the lowest
/// lane's, when several fail).
pub fn advance<M: DecodeKernels>(
    model: &M,
    items: &[(usize, &[u32])],
    states: &mut [ModelState],
    pool: Option<&WorkerPool>,
    ws: &mut Workspace<M::Scratch>,
) -> std::result::Result<Vec<Vec<f32>>, M::Error> {
    feed(model, items.iter().copied(), states, pool, ws)?;
    Ok(ws.logits().to_vec())
}

/// [`advance`] with one token per item, `items[k] = (state_index,
/// token)`: one decode step. Logits land in [`Workspace::logits`], so a
/// warm step allocates nothing.
///
/// # Errors
///
/// The conditions of [`advance`].
pub fn step<M: DecodeKernels>(
    model: &M,
    items: &[(usize, u32)],
    states: &mut [ModelState],
    pool: Option<&WorkerPool>,
    ws: &mut Workspace<M::Scratch>,
) -> std::result::Result<(), M::Error> {
    let items = items
        .iter()
        .map(|(slot, t)| (*slot, std::slice::from_ref(t)));
    feed(model, items, states, pool, ws)
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

    /// Loops the lane's rows through
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
        step(self, items, states, None, ws)
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
        step(self, items, states, Some(pool), ws)
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
        // Items of one to four rows: lanes cover the rows in order, each
        // holds whole items only (no lane splits a sequence across
        // threads), and their item counts differ by at most one.
        let mut ws = DecodeWorkspace::new();
        for items in 0..40 {
            ws.last.clear();
            for k in 0..items {
                let len = 1 + (k * 7) % 4;
                ws.last.extend((1..=len).map(|i| i == len));
            }
            ws.rows.resize(ws.last.len(), (0, 0));
            for threads in 1..9 {
                ws.plan(threads);
                let ranges: Vec<_> = ws.lanes[..ws.used].iter().map(|l| l.range).collect();
                assert_eq!(ranges.len(), threads.min(items));
                let mut lo = 0;
                let mut counts = Vec::new();
                for &(a, b) in &ranges {
                    assert_eq!(a, lo, "ranges are contiguous from zero");
                    assert!(b > a, "no empty lane");
                    assert!(ws.last[b - 1], "a lane ends on an item's last row");
                    counts.push(ws.last[a..b].iter().filter(|&&l| l).count());
                    lo = b;
                }
                assert_eq!(lo, ws.rows.len(), "ranges cover all rows");
                if let (Some(min), Some(max)) = (counts.iter().min(), counts.iter().max()) {
                    assert!(max - min <= 1, "balanced to within one item");
                }
            }
        }
    }

    /// The sequences the engine-shaped waves run over.
    const SLOTS: usize = 16;

    /// Engine-shaped waves of `(slot, tokens)` items over [`SLOTS`]
    /// sequences: a 16 × 4 first wave, 15 decoders beside one 4-token
    /// chunk, a one-token wave, a 1-token item before a 5-token one
    /// (slots out of order), then 1..=4 tokens over seven items.
    fn waves() -> Vec<Vec<(usize, Vec<u32>)>> {
        let shapes: [Vec<(usize, usize)>; 5] = [
            (0..SLOTS).map(|s| (s, 4)).collect(),
            (0..SLOTS)
                .map(|s| (s, if s == 5 { 4 } else { 1 }))
                .collect(),
            (0..SLOTS).map(|s| (s, 1)).collect(),
            vec![(9, 1), (2, 5), (14, 1)],
            (0..7).map(|k| (2 * k, 1 + (k * 5) % 4)).collect(),
        ];
        let token = |w: usize, s: usize, i: usize| ((w * 53 + s * 31 + i * 7 + 3) % 256) as u32;
        (shapes.iter().enumerate())
            .map(|(w, shape)| {
                let tokens = |&(s, len)| (s, (0..len).map(|i| token(w, s, i)).collect());
                shape.iter().map(tokens).collect()
            })
            .collect()
    }

    #[test]
    fn batch_step_matches_sequential_bitwise() {
        // Engine-shaped waves — one-token and multi-token items mixed in
        // one `advance`; an all-one-token wave through `step` — under
        // every lane cut, including more threads than items, against one
        // sequence at a time through `MambaModel::forward_step`. Logits
        // and states, bit for bit.
        let m = tiny_model();
        let waves = waves();
        let mut oracle_states: Vec<_> = (0..SLOTS).map(|_| m.new_state()).collect();
        let mut oracle = Vec::new();
        for wave in &waves {
            let mut finals = Vec::new();
            for (slot, tokens) in wave {
                let mut last = Vec::new();
                for &t in tokens {
                    last = m.forward_step(t, &mut oracle_states[*slot]).unwrap();
                }
                finals.push(last);
            }
            oracle.push(finals);
        }

        for pool in pools() {
            let (pool, label) = (pool.as_ref(), format!("pool {pool:?}"));
            let mut states: Vec<_> = (0..SLOTS).map(|_| m.new_state()).collect();
            let mut ws = DecodeWorkspace::new();
            for (w, (wave, want)) in waves.iter().zip(&oracle).enumerate() {
                let got = if wave.iter().all(|(_, tokens)| tokens.len() == 1) {
                    let single: Vec<(usize, u32)> = wave.iter().map(|(s, t)| (*s, t[0])).collect();
                    step(&m, &single, &mut states, pool, &mut ws).unwrap();
                    ws.logits().to_vec()
                } else {
                    let items: Vec<(usize, &[u32])> =
                        wave.iter().map(|(s, t)| (*s, &t[..])).collect();
                    advance(&m, &items, &mut states, pool, &mut ws).unwrap()
                };
                assert_eq!(&got, want, "{label}: wave {w}");
            }
            assert_eq!(states, oracle_states, "{label}: states");
        }
    }

    #[test]
    fn indexed_step_advances_only_selected_slots() {
        let m = tiny_model();
        let mut states: Vec<_> = (0..3).map(|_| m.new_state()).collect();
        let untouched = states[1].clone();
        let mut ws = DecodeWorkspace::new();
        step(&m, &[(2, 4), (0, 9)], &mut states, None, &mut ws).unwrap();
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
                let err = step(m, single, states, pool.as_ref(), &mut ws).unwrap_err();
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
            step(&m, &[(0, 1)], &mut states, pool.as_ref(), &mut ws).unwrap();
            states.clone_from(&before);
            step(&m, &[], &mut states, pool.as_ref(), &mut ws).unwrap();
            assert!(ws.logits().is_empty(), "no stale logits from the last step");
            let finals = advance(&m, &[], &mut states, pool.as_ref(), &mut ws).unwrap();
            assert!(finals.is_empty());
            assert_eq!(states, before);
        }
    }

    /// The token whose embedding panics in [`PanicsOnSentinel`].
    const SENTINEL: u32 = 77;

    /// The FP model, except that embedding [`SENTINEL`] panics: a fault
    /// raised inside one lane of a pooled step.
    struct PanicsOnSentinel<'m>(&'m MambaModel);

    impl DecodeKernels for PanicsOnSentinel<'_> {
        type Scratch = BlockScratch;
        type Error = ModelError;

        fn config(&self) -> &MambaConfig {
            DecodeKernels::config(self.0)
        }

        fn embed(&self, token: u32, x: &mut Vec<f32>) -> Result<()> {
            if token == SENTINEL {
                panic!("sentinel token embedded");
            }
            DecodeKernels::embed(self.0, token, x)
        }

        fn layer_step(
            &self,
            layer: usize,
            xs: &mut [Vec<f32>],
            states: &mut LayerBatch<'_>,
            scratch: &mut BlockScratch,
        ) -> Result<()> {
            DecodeKernels::layer_step(self.0, layer, xs, states, scratch)
        }

        fn finish(
            &self,
            xs: &mut [Vec<f32>],
            logits: &mut [Vec<f32>],
            scratch: &mut BlockScratch,
        ) -> Result<()> {
            DecodeKernels::finish(self.0, xs, logits, scratch)
        }
    }

    #[test]
    fn lane_panic_reaches_the_caller_and_the_pool_serves_on() {
        let m = tiny_model();
        let faulty = PanicsOnSentinel(&m);
        let pool = WorkerPool::new(4);
        let n = 8;
        let mut items: Vec<(usize, u32)> = (0..n).map(|k| (k, k as u32 * 9 + 1)).collect();
        items[5].1 = SENTINEL;
        let mut states: Vec<_> = (0..n).map(|_| m.new_state()).collect();
        let mut ws = DecodeWorkspace::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            step(&faulty, &items, &mut states, Some(&pool), &mut ws)
        }));
        let payload = caught.expect_err("the lane's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"sentinel token embedded"),
            "the task's own payload, not a re-formatted one"
        );

        // The same pool then runs a clean step, bit-equal to no pool.
        let clean: Vec<(usize, u32)> = (0..n).map(|k| (k, k as u32 * 9 + 2)).collect();
        let run = |pool: Option<&WorkerPool>| {
            let mut states: Vec<_> = (0..n).map(|_| m.new_state()).collect();
            let mut ws = DecodeWorkspace::new();
            step(&faulty, &clean, &mut states, pool, &mut ws).unwrap();
            ws.into_logits()
        };
        assert_eq!(run(Some(&pool)), run(None));
    }
}
