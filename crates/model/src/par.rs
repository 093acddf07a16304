//! Multi-core batched decode: sharding one step across a worker pool.
//!
//! Mamba2 sequences share no cross-sequence state, so after the up-front
//! batch validation (indices in bounds and *unique*, shapes checked) a
//! batched step decomposes into independent per-sequence sweeps. This
//! module shards the validated batch into contiguous ranges — one per
//! pool thread — and runs each shard's weight-stationary sweep on its
//! own thread with its own workspace.
//!
//! # Determinism
//!
//! Per-sequence arithmetic is untouched: each shard runs exactly the
//! step loop a single-threaded step runs ([`drive_step_shard`] — the
//! sequential path *is* the one-shard case) over its slice. Sequences
//! never interact, shard boundaries only split the *iteration* (never a
//! sequence), and every sequence writes its own state and logits slot.
//! Logits and states are therefore **bit-identical for any thread
//! count**, regardless of how the OS schedules the workers — pinned by
//! proptests in `lightmamba_serve`.
//!
//! # Send/Sync boundaries
//!
//! Shards need `&mut` access to *disjoint* elements of one
//! `&mut [ModelState]`, which the borrow checker cannot express across
//! threads. [`StateShards`] is the one escape hatch: a raw-pointer view
//! whose [`StateShards::state_mut`] is `unsafe` with the contract that
//! concurrent callers touch disjoint slots. The drivers here uphold it
//! by construction — batch validation rejects duplicate slots, and the
//! contiguous shard ranges partition the item list.

use std::sync::{Mutex, PoisonError};

use lightmamba_pool::WorkerPool;

use crate::batch::{
    drive_advance_batch_with, validate_batch_items_with, DecodeWorkspace, StepWorkspace,
};
use crate::state::{LayerState, ModelState};
use crate::{MambaConfig, MambaModel, ModelError, Result};

/// A shared view of `&mut [ModelState]` that hands out `&mut` access to
/// individual slots across threads.
///
/// This exists because one engine step mutates many states through one
/// exclusive borrow, but disjoint-slot access from multiple threads is
/// sound. Exclusivity is guaranteed by the caller (see
/// [`state_mut`](Self::state_mut)), not the type system.
pub struct StateShards<'a> {
    base: *mut ModelState,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [ModelState]>,
}

// SAFETY: the view only yields references through the `unsafe`
// `state_mut`, whose contract (disjoint slots across concurrent
// callers) is exactly what makes cross-thread sharing sound.
unsafe impl Send for StateShards<'_> {}
unsafe impl Sync for StateShards<'_> {}

impl<'a> StateShards<'a> {
    /// Wraps a state slice for sharded access. The borrow is held for
    /// the view's lifetime, so no other access to `states` can race it.
    pub fn new(states: &'a mut [ModelState]) -> Self {
        StateShards {
            base: states.as_mut_ptr(),
            len: states.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of states in the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Exclusive access to one state slot.
    ///
    /// # Safety
    ///
    /// `slot` must be in bounds, and for the lifetime of the returned
    /// reference no other call (on any thread) may borrow the same
    /// slot. The step drivers guarantee this by validating that batch
    /// items are duplicate-free and partitioning them into disjoint
    /// shards.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn state_mut(&self, slot: usize) -> &mut ModelState {
        debug_assert!(slot < self.len, "state slot {slot} out of bounds");
        // SAFETY: bounds and exclusivity per the function contract.
        unsafe { &mut *self.base.add(slot) }
    }
}

/// One layer's recurrent states for the sequences of a (shard's)
/// sub-batch, handed to the layer closure of [`drive_step_shard`]: item
/// `k`'s [`LayerState`] for the layer being run, one exclusive borrow at
/// a time.
pub struct LayerBatch<'a, 's> {
    states: &'a StateShards<'s>,
    items: &'a [(usize, u32)],
    layer: usize,
}

impl LayerBatch<'_, '_> {
    /// The state of sub-batch item `k` at this layer.
    ///
    /// # Panics
    ///
    /// If `k` is not an item index of the sub-batch.
    pub fn state_mut(&mut self, k: usize) -> &mut LayerState {
        let slot = self.items[k].0;
        // SAFETY: a `LayerBatch` is only built by `drive_step_shard`,
        // whose contract makes this shard the sole user of its (valid)
        // slots; `&mut self` keeps borrows handed out here from
        // overlapping one another.
        let state = unsafe { self.states.state_mut(slot) };
        &mut state.layers[self.layer]
    }
}

/// Reusable sharding bookkeeping for parallel steps: the validation
/// bitmap and the contiguous `(start, end)` item ranges of the latest
/// step. Lives inside the parallel workspaces so steady-state decode
/// plans shards without allocating.
#[derive(Debug, Clone, Default)]
pub struct ShardPlan {
    seen: Vec<bool>,
    ranges: Vec<(usize, usize)>,
    used: usize,
}

impl ShardPlan {
    /// An empty plan; it warms up on the first step.
    pub fn new() -> Self {
        ShardPlan::default()
    }

    /// Number of shards the latest step used.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Contiguous item ranges of the latest step, one per used shard.
    /// Range `k` covers `items[ranges()[k].0 .. ranges()[k].1]`.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges[..self.used]
    }

    /// Partitions `items` indices into at most `threads` balanced
    /// contiguous ranges (sizes differ by at most one).
    fn plan(&mut self, items: usize, threads: usize) {
        self.used = threads.min(items);
        if self.ranges.len() < self.used {
            self.ranges.resize(self.used, (0, 0));
        }
        if self.used == 0 {
            return;
        }
        let base = items / self.used;
        let rem = items % self.used;
        let mut lo = 0;
        for (k, range) in self.ranges[..self.used].iter_mut().enumerate() {
            let hi = lo + base + usize::from(k < rem);
            *range = (lo, hi);
            lo = hi;
        }
        debug_assert_eq!(lo, items);
    }
}

/// The one step loop: embed every token, run each layer over the whole
/// sub-batch, then turn the wanted residual streams into logits — minus
/// validation, with states reached through a [`StateShards`] view. A
/// single-threaded step is one call over the whole batch; a parallel
/// step is one call per shard. Every execution path (the FP model, the
/// quantized model) supplies its kernels as the three closures, so the
/// loop structure — and therefore bit-exact equivalence between
/// sequential, batched and sharded decode — cannot drift between them.
///
/// Closure contract: `embed(token, buf)` fills `buf` with the embedded
/// token (reusing its capacity); `layer_step(layer, xs, lstates)`
/// advances every sequence of the sub-batch through one block in place
/// (`xs[k]` with `lstates.state_mut(k)`), free to batch across sequences
/// whatever does not depend on their recurrent state;
/// `finish(xs, logits)` turns each final residual stream `xs[m]` into
/// `logits[m]`, reusing its capacity.
///
/// `want` marks the items whose logits are needed (`None`: all of them,
/// a decode step). `finish` sees only those, in `items` order, and
/// [`StepWorkspace::logits`] holds exactly its outputs.
///
/// # Safety
///
/// The caller must guarantee what validation + disjoint sharding
/// normally establish: every `(slot, token)` in `items` is in bounds
/// for `states`, slots are not repeated across *any* concurrent shard
/// call on the same view, states are shaped for `cfg`, and tokens are
/// within the vocabulary.
///
/// # Errors
///
/// Whatever the closures raise (validation errors cannot occur here —
/// they were raised before sharding).
///
/// # Panics
///
/// If `want` is given and is not as long as `items`.
#[allow(clippy::too_many_arguments)]
pub unsafe fn drive_step_shard<E, Emb, Lay, Fin>(
    cfg: &MambaConfig,
    items: &[(usize, u32)],
    want: Option<&[bool]>,
    states: &StateShards<'_>,
    ws: &mut StepWorkspace,
    mut embed: Emb,
    mut layer_step: Lay,
    mut finish: Fin,
) -> std::result::Result<(), E>
where
    E: From<ModelError>,
    Emb: FnMut(u32, &mut Vec<f32>) -> std::result::Result<(), E>,
    Lay: FnMut(usize, &mut [Vec<f32>], &mut LayerBatch<'_, '_>) -> std::result::Result<(), E>,
    Fin: FnMut(&mut [Vec<f32>], &mut [Vec<f32>]) -> std::result::Result<(), E>,
{
    let n = items.len();
    assert!(want.map_or(true, |w| w.len() == n), "one flag per item");
    ws.prepare(n);
    for (x, &(_, token)) in ws.xs.iter_mut().zip(items) {
        embed(token, x)?;
    }
    for layer in 0..cfg.n_layer {
        let mut lstates = LayerBatch {
            states,
            items,
            layer,
        };
        layer_step(layer, &mut ws.xs[..n], &mut lstates)?;
    }
    // Gather the wanted residual streams at the front (the buffers are
    // interchangeable; the next step re-embeds into all of them).
    let mut wanted = n;
    if let Some(want) = want {
        wanted = 0;
        for k in (0..n).filter(|&k| want[k]) {
            ws.xs.swap(wanted, k);
            wanted += 1;
        }
    }
    finish(&mut ws.xs[..wanted], &mut ws.logits[..wanted])?;
    ws.produced = wanted;
    Ok(())
}

/// The parallel step: validates the whole batch up front (no state is
/// half-advanced on a validation error), partitions it into contiguous
/// per-thread shards, and runs
/// `shard_fn(shard_items, shard_want, states, workspace)` for each shard
/// on the pool (`shard_want` is the shard's slice of `want`, see
/// [`drive_step_shard`]). `workspaces` grows to the shard count once and
/// is then reused, so steady-state parallel decode allocates nothing.
///
/// `shard_fn` is expected to wrap [`drive_step_shard`] with the
/// execution path's kernels; the disjoint contiguous ranges planned
/// here are what discharge that function's safety contract.
///
/// # Errors
///
/// The conditions of [`StepWorkspace::validate`], plus whatever
/// `shard_fn` raises. When several shards fail, the error of the
/// lowest-indexed shard is returned so the reported error does not
/// depend on thread scheduling.
#[allow(clippy::too_many_arguments)]
pub fn drive_step_batch_indexed_par<E, W, F>(
    cfg: &MambaConfig,
    items: &[(usize, u32)],
    want: Option<&[bool]>,
    states: &mut [ModelState],
    pool: &WorkerPool,
    plan: &mut ShardPlan,
    workspaces: &mut Vec<W>,
    shard_fn: F,
) -> std::result::Result<(), E>
where
    E: From<ModelError> + Send,
    W: Send + Default,
    F: Fn(&[(usize, u32)], Option<&[bool]>, &StateShards<'_>, &mut W) -> std::result::Result<(), E>
        + Sync,
{
    validate_batch_items_with(cfg, items, states, &mut plan.seen)?;
    plan.plan(items.len(), pool.threads());
    if plan.used == 0 {
        return Ok(());
    }
    if workspaces.len() < plan.used {
        workspaces.resize_with(plan.used, W::default);
    }
    let view = StateShards::new(states);
    let ranges = &plan.ranges[..plan.used];
    let first_err: Mutex<Option<(usize, E)>> = Mutex::new(None);
    pool.run_over(&mut workspaces[..plan.used], |k, ws| {
        let (lo, hi) = ranges[k];
        if let Err(e) = shard_fn(&items[lo..hi], want.map(|w| &w[lo..hi]), &view, ws) {
            let mut slot = first_err.lock().unwrap_or_else(PoisonError::into_inner);
            // Keep the lowest-shard error (MSRV 1.75: no `is_none_or`).
            let keep_existing = matches!(slot.as_ref(), Some(&(j, _)) if j < k);
            if !keep_existing {
                *slot = Some((k, e));
            }
        }
    });
    match first_err
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

/// Per-shard decode workspaces for the FP model's parallel step: one
/// [`DecodeWorkspace`] per pool thread plus the shard bookkeeping. Grows
/// to the pool width on the first step, then steady-state parallel
/// decode performs zero heap allocations (pinned by the threaded
/// `no_alloc` test).
#[derive(Debug, Clone, Default)]
pub struct ParDecodeWorkspace {
    plan: ShardPlan,
    shards: Vec<DecodeWorkspace>,
}

impl ParDecodeWorkspace {
    /// An empty workspace; it warms up on the first step.
    pub fn new() -> Self {
        ParDecodeWorkspace::default()
    }

    /// Logits of the latest parallel step — one per item whose logits
    /// were asked for — in `items` order (shard ranges are contiguous, so
    /// chaining shards restores batch order).
    pub fn logits(&self) -> impl Iterator<Item = &Vec<f32>> + '_ {
        self.shards[..self.plan.used]
            .iter()
            .flat_map(|ws| ws.logits().iter())
    }

    /// The `m`-th logits of the latest parallel step, i.e.
    /// `logits().nth(m)`.
    ///
    /// # Panics
    ///
    /// If the latest step produced `m` logits or fewer.
    pub fn logits_at(&self, m: usize) -> &Vec<f32> {
        self.logits()
            .nth(m)
            .unwrap_or_else(|| panic!("logit index {m} out of range for the latest step"))
    }
}

impl MambaModel {
    fn step_par_with(
        &self,
        items: &[(usize, u32)],
        want: Option<&[bool]>,
        states: &mut [ModelState],
        pool: &WorkerPool,
        ws: &mut ParDecodeWorkspace,
    ) -> Result<()> {
        drive_step_batch_indexed_par(
            self.config(),
            items,
            want,
            states,
            pool,
            &mut ws.plan,
            &mut ws.shards,
            // SAFETY: the batch was validated duplicate-free and the
            // planner hands each shard a disjoint contiguous range, so
            // each shard exclusively owns its slots.
            |items, want, view, dws: &mut DecodeWorkspace| unsafe {
                self.step_shard(items, want, view, dws)
            },
        )
    }

    /// Multi-core batched decode step: like
    /// [`forward_step_batch_indexed_with`](MambaModel::forward_step_batch_indexed_with),
    /// but the validated batch is sharded into contiguous ranges and
    /// each range's step loop runs on its own pool thread with its own
    /// workspace. Logits land in `ws` (see
    /// [`ParDecodeWorkspace::logits`]), index-aligned with `items`, and
    /// are bit-identical to the sequential path for any thread count.
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`forward_step_batch_indexed`](MambaModel::forward_step_batch_indexed).
    pub fn forward_step_batch_indexed_par_with(
        &self,
        items: &[(usize, u32)],
        states: &mut [ModelState],
        pool: &WorkerPool,
        ws: &mut ParDecodeWorkspace,
    ) -> Result<()> {
        self.step_par_with(items, None, states, pool, ws)
    }

    /// Multi-core ragged advance: the parallel twin of
    /// [`advance_batch_indexed_with`](MambaModel::advance_batch_indexed_with),
    /// driving the sharded step position-by-position. Only the returned
    /// logits allocate.
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`advance_batch_indexed_with`](MambaModel::advance_batch_indexed_with).
    pub fn advance_batch_indexed_par_with(
        &self,
        items: &[(usize, &[u32])],
        states: &mut [ModelState],
        pool: &WorkerPool,
        ws: &mut ParDecodeWorkspace,
    ) -> Result<Vec<Vec<f32>>> {
        drive_advance_batch_with(
            items,
            states,
            ws,
            |items, want, states, ws| self.step_par_with(items, Some(want), states, pool, ws),
            |ws, m| ws.logits_at(m).clone(),
        )
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
    fn shard_plan_is_balanced_and_contiguous() {
        let mut plan = ShardPlan::new();
        for items in 0..40 {
            for threads in 1..9 {
                plan.plan(items, threads);
                let ranges = plan.ranges().to_vec();
                assert_eq!(ranges.len(), threads.min(items));
                let mut lo = 0;
                for &(a, b) in &ranges {
                    assert_eq!(a, lo, "ranges are contiguous from zero");
                    assert!(b > a, "no empty shard");
                    lo = b;
                }
                assert_eq!(lo, items, "ranges cover all items");
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(|&(a, b)| b - a).min(),
                    ranges.iter().map(|&(a, b)| b - a).max(),
                ) {
                    assert!(max - min <= 1, "balanced to within one item");
                }
            }
        }
    }

    #[test]
    fn parallel_step_matches_sequential_bitwise() {
        let m = tiny_model();
        let pool = WorkerPool::new(4);
        let n = 7;

        let mut seq_states: Vec<_> = (0..n).map(|_| m.new_state()).collect();
        let mut par_states = seq_states.clone();
        let mut seq_ws = DecodeWorkspace::new();
        let mut par_ws = ParDecodeWorkspace::new();

        for step in 0..5u32 {
            let items: Vec<(usize, u32)> = (0..n).map(|k| (k, step * 31 + k as u32)).collect();
            m.forward_step_batch_indexed_with(&items, &mut seq_states, &mut seq_ws)
                .unwrap();
            m.forward_step_batch_indexed_par_with(&items, &mut par_states, &pool, &mut par_ws)
                .unwrap();
            let par_logits: Vec<&Vec<f32>> = par_ws.logits().collect();
            assert_eq!(par_logits.len(), n);
            for (k, seq_logits) in seq_ws.logits().iter().enumerate() {
                assert_eq!(par_logits[k], seq_logits, "sequence {k} diverged at {step}");
                assert_eq!(*par_ws.logits_at(k), *seq_logits);
            }
        }
        assert_eq!(par_states, seq_states, "states diverged");
    }

    #[test]
    fn parallel_prefill_matches_sequential() {
        let m = tiny_model();
        let pool = WorkerPool::new(3);
        let prompts: [&[u32]; 3] = [&[5, 9, 2], &[40, 1], &[7, 7, 7, 7]];

        let mut seq_states: Vec<_> = (0..3).map(|_| m.new_state()).collect();
        let seq = m.prefill_batch(&prompts, &mut seq_states).unwrap();

        let mut par_states: Vec<_> = (0..3).map(|_| m.new_state()).collect();
        let mut ws = ParDecodeWorkspace::new();
        let items = crate::batch::prefill_items(&prompts, &par_states).unwrap();
        let par = m
            .advance_batch_indexed_par_with(&items, &mut par_states, &pool, &mut ws)
            .unwrap();

        assert_eq!(par, seq);
        assert_eq!(par_states, seq_states);
    }

    #[test]
    fn parallel_step_rejects_duplicates_without_advancing() {
        let m = tiny_model();
        let pool = WorkerPool::new(2);
        let mut states: Vec<_> = (0..2).map(|_| m.new_state()).collect();
        let before = states.clone();
        let mut ws = ParDecodeWorkspace::new();
        let err =
            m.forward_step_batch_indexed_par_with(&[(0, 1), (0, 2)], &mut states, &pool, &mut ws);
        assert!(matches!(err, Err(ModelError::StateMismatch(_))));
        assert_eq!(states, before);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let m = tiny_model();
        let pool = WorkerPool::new(2);
        let mut states: Vec<ModelState> = Vec::new();
        let mut ws = ParDecodeWorkspace::new();
        m.forward_step_batch_indexed_par_with(&[], &mut states, &pool, &mut ws)
            .unwrap();
        assert_eq!(ws.logits().count(), 0);
    }
}
