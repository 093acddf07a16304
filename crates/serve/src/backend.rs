//! Pluggable execution backends for the serving engine.
//!
//! The engine (PR 1) drove the FP reference [`MambaModel`] directly; this
//! module is the seam that lets it drive *any* model with the Mamba2
//! decode contract. A [`DecodeBackend`] provides exactly what one engine
//! step needs — state allocation, batched ragged prefill, and an indexed
//! batched decode step — plus a [`CostProfile`] so the accelerator cost
//! model can price each backend's steps with its own weight-stream bytes.
//! One implementation ships, [`ModelBackend`], generic over any
//! [`ServedModel`] — a model with the decode driver's kernels
//! ([`lightmamba_model::DecodeKernels`]) plus a report name and a cost
//! profile — and it is known under two names:
//!
//! * [`FpBackend`] — the FP16 reference path over a borrowed
//!   [`MambaModel`];
//! * [`W4A4Backend`] — quantized execution over an owned
//!   [`QuantizedMamba`], closing the loop between the paper's W4A4
//!   quantization stack and the serving engine. For the W4A4 recipe the
//!   model serves from **packed 4-bit weights** on the true-integer
//!   kernel path, so the host really streams ~4× fewer weight bytes per
//!   step than FP16 (0.5 bytes per weight vs the dequantized path's 4) —
//!   the headline the paper's Fig. 9a makes for single-stream decode,
//!   extended to multi-tenant serving and measured on the host by the
//!   `bench_decode` bin.
//!
//! The backend reuses one decode workspace across engine steps, so the
//! batched forward allocates nothing in steady state (pinned by
//! counting-allocator tests in the model and quant crates).
//!
//! A backend can additionally be *pooled*
//! ([`DecodeBackend::attach_pool`]): the engine hands every registered
//! backend one shared [`WorkerPool`], and a pooled backend passes it to
//! the decode driver (`lightmamba_model::batch`), which cuts each batch
//! into one lane per thread. Each lane owns its buffers — handed out
//! `&mut`-disjoint by `WorkerPool::run_over`, so no `RefCell` ever
//! crosses a thread boundary — and the pooled step is **bit-identical**
//! to the unpooled one for any thread count (per-sequence arithmetic is
//! independent; lanes only partition the batch). Pinned by the
//! pooled-equivalence tests below and the engine-level 1-vs-N-thread
//! proptests.
//!
//! Backends are multiplexed over one slot pool by
//! [`crate::registry::ModelRegistry`]. To serve another model type,
//! implement [`ServedModel`] for it; to add a backend that is not a
//! host model at all (say a GPU path), implement [`DecodeBackend`] —
//! one required execution method — and register it. The engine,
//! scheduler, and cost model need no changes either way.

use std::borrow::Borrow;
use std::cell::RefCell;
use std::sync::Arc;

use lightmamba_accel::arch::{AcceleratorConfig, HwPrecision};
use lightmamba_accel::platform::Platform;
use lightmamba_model::batch::{self, DecodeKernels, Workspace};
use lightmamba_model::{MambaConfig, MambaModel, ModelError, ModelState};
use lightmamba_pool::WorkerPool;
use lightmamba_quant::QuantizedMamba;

use crate::error::ServeError;

/// How one backend's engine steps map onto accelerator hardware.
///
/// The decode cost model (`lightmamba_accel::batch`) prices a step as
/// `max(batch · compute, weight-stream DMA)` per layer; both terms depend
/// on the datapath precision, so this profile is all the cost model needs
/// to price a backend's sub-batches. Those same per-step prices feed the
/// *virtual-time* lane of the observability trace
/// ([`crate::observe::EngineObs::chrome_trace_with_virtual`]): the wall
/// lane shows what the host simulation spent, the virtual lane shows
/// what the modeled accelerator would have.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostProfile {
    /// Datapath precision the backend's arithmetic maps to.
    pub precision: HwPrecision,
    /// Mean stored bits per weight parameter (quantization scales
    /// included) — the weight-stream traffic per parameter per step.
    pub weight_bits: f64,
}

impl CostProfile {
    /// FP16 execution (the reference model's pricing).
    pub fn fp16() -> Self {
        CostProfile {
            precision: HwPrecision::Fp16,
            weight_bits: 16.0,
        }
    }

    /// The paper's W4A4 recipe (group-128 scale overhead ≈ 3%).
    pub fn w4a4() -> Self {
        CostProfile {
            precision: HwPrecision::W4A4,
            weight_bits: 4.0 * (1.0 + 16.0 / (128.0 * 4.0)),
        }
    }

    /// The paper's W8A8 recipe.
    pub fn w8a8() -> Self {
        CostProfile {
            precision: HwPrecision::W8A8,
            weight_bits: 8.0 * (1.0 + 16.0 / (128.0 * 8.0)),
        }
    }

    /// Weight-stream bytes per engine step for a `params`-parameter
    /// design-point model (streamed once per step, shared by the batch).
    pub fn weight_stream_bytes(&self, params: u64) -> f64 {
        params as f64 * self.weight_bits / 8.0
    }

    /// Accelerator configuration pricing this backend on `platform` for
    /// the `design_model` checkpoint: the paper's VCK190/U280 datapath
    /// geometry with this profile's precision swapped in, so FP and
    /// quantized backends are compared on the *same device* and differ
    /// only in stream width and per-DSP MAC packing.
    pub fn accelerator_config(
        &self,
        platform: &Platform,
        model: &MambaConfig,
    ) -> AcceleratorConfig {
        let mut cfg = AcceleratorConfig::lightmamba_w4a4(platform, model);
        cfg.precision = self.precision;
        if self.precision == HwPrecision::Fp16 {
            // No integer re-quantization stage exists on the FP path.
            cfg.pot_requant = false;
        }
        cfg
    }
}

/// The complete resident footprint of one paused sequence: Mamba2's
/// fixed-size recurrent state (per-layer conv windows plus SSM hidden
/// state), detached from the slot pool.
///
/// Because the state never grows with sequence length, this snapshot is
/// the *entire* cost of preempting a sequence — a few tens of KB moved
/// once, not a KV cache spilled page by page. The engine keeps paused
/// sequences in a side queue of these and the cost model prices each
/// pause/resume as one state transfer on the shared DMA stream.
#[derive(Debug, Clone)]
pub struct PausedState {
    state: ModelState,
}

impl PausedState {
    /// Wraps a snapshot of a sequence's decode state.
    pub fn new(state: ModelState) -> Self {
        PausedState { state }
    }

    /// The saved decode state.
    pub fn state(&self) -> &ModelState {
        &self.state
    }

    /// Bytes this paused sequence occupies off-chip at `bits` bits per
    /// state element — what one pause (or resume) moves across the
    /// memory stream.
    pub fn state_bytes(&self, bits: f64) -> f64 {
        self.state.total_state_bytes(bits)
    }
}

/// A model execution backend the serving engine can drive.
///
/// The contract mirrors the engine's step loop: every resident sequence
/// owns one fixed-size [`ModelState`] slot, and one engine step advances
/// a chosen subset of slots by one or more tokens each
/// ([`DecodeBackend::advance_batch_indexed`] — the one execution method
/// an implementation must supply; a decode step and a whole-prompt
/// prefill are provided special cases of it). Implementations must keep
/// batched decode bit-identical to their sequential decode so request
/// outputs are independent of batch composition — the invariant all
/// engine equivalence tests pin.
///
/// Backends also supply the preemption primitive pair
/// [`DecodeBackend::save_state`] / [`DecodeBackend::restore_state`]: a
/// paused sequence's slot state is snapshotted into a [`PausedState`],
/// the slot is handed to more urgent work, and restoring the snapshot
/// later continues the sequence **bit-identically** — pinned by the
/// pause/resume proptests for both shipped backends.
///
/// # Example
///
/// Pause a sequence mid-decode, reuse its slot, then resume it — the
/// continuation matches the uninterrupted run exactly:
///
/// ```
/// use lightmamba_model::{MambaConfig, MambaModel};
/// use lightmamba_serve::backend::{DecodeBackend, FpBackend};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), lightmamba_serve::ServeError> {
/// let model = MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(1))?;
/// let backend = FpBackend::new(&model);
/// let mut states = vec![backend.new_state()];
/// backend.prefill_batch(&[&[1, 2, 3][..]], &mut states)?;
///
/// // Preempt: snapshot the state, let another sequence rewind the slot.
/// let paused = backend.save_state(&states[0]);
/// backend.reset_state(&mut states[0]);
/// backend.prefill_batch(&[&[9, 9][..]], &mut states)?;
///
/// // Resume: restore the snapshot and continue where we left off.
/// backend.restore_state(&paused, &mut states[0]);
/// let resumed = backend.forward_step_batch_indexed(&[(0, 4)], &mut states)?;
///
/// // Reference: the same decode with no preemption in between.
/// let mut uninterrupted = vec![backend.new_state()];
/// backend.prefill_batch(&[&[1, 2, 3][..]], &mut uninterrupted)?;
/// let expect = backend.forward_step_batch_indexed(&[(0, 4)], &mut uninterrupted)?;
/// assert_eq!(resumed, expect);
/// # Ok(())
/// # }
/// ```
///
/// Backends are `Send` so an engine (and its registry) can move onto a
/// dedicated serving thread — the streaming frontend
/// ([`crate::frontend`]) drives steps off the caller's thread. They
/// need not be `Sync`: the engine serializes all backend calls.
pub trait DecodeBackend: Send {
    /// Short backend name (`"fp"`, `"w4a4"`, …) used in reports.
    fn name(&self) -> &str;

    /// The model configuration this backend executes.
    fn config(&self) -> &MambaConfig;

    /// Fresh zeroed decode state shaped for this backend's model.
    fn new_state(&self) -> ModelState;

    /// Resets a state for a new sequence (slot reuse).
    fn reset_state(&self, state: &mut ModelState) {
        state.reset();
    }

    /// Snapshots a resident sequence's state for preemption. The
    /// default clones the fixed-size [`ModelState`] — already the right
    /// implementation for any backend whose whole per-sequence residue
    /// lives in the slot (both shipped backends qualify; a backend with
    /// auxiliary per-sequence caches would fold them in here).
    fn save_state(&self, state: &ModelState) -> PausedState {
        PausedState::new(state.clone())
    }

    /// Restores a paused sequence into a (re)claimed slot,
    /// allocation-free ([`ModelState::copy_from`]). After this, feeding
    /// the sequence's next token continues decode bit-identically to a
    /// run that was never preempted.
    fn restore_state(&self, paused: &PausedState, into: &mut ModelState) {
        into.copy_from(paused.state());
    }

    /// Batched ragged advance — the engine's one execution call. Each
    /// `items[k] = (state_index, tokens)` feeds `tokens` (one or more)
    /// into `states[state_index]` and yields `(state_index, logits)`
    /// after the *final* fed token, in `items` order. A decode step is
    /// the one-token case; a prefill chunk feeds several prompt tokens
    /// without sampling in between. States not named in `items` must be
    /// untouched, and the result must be bit-identical to feeding each
    /// sequence alone, one token at a time.
    ///
    /// # Errors
    ///
    /// Empty token slices, invalid tokens (at any position),
    /// out-of-range or duplicated indices, and foreign-config states are
    /// rejected without advancing any state.
    fn advance_batch_indexed(
        &self,
        items: &[(usize, &[u32])],
        states: &mut [ModelState],
    ) -> Result<Vec<(usize, Vec<f32>)>, ServeError>;

    /// One batched decode step: `items[k] = (state_index, token)` —
    /// [`DecodeBackend::advance_batch_indexed`] with one token per item.
    ///
    /// # Errors
    ///
    /// Those of [`DecodeBackend::advance_batch_indexed`].
    fn forward_step_batch_indexed(
        &self,
        items: &[(usize, u32)],
        states: &mut [ModelState],
    ) -> Result<Vec<(usize, Vec<f32>)>, ServeError> {
        let single = items
            .iter()
            .map(|(slot, t)| (*slot, std::slice::from_ref(t)));
        self.advance_batch_indexed(&single.collect::<Vec<_>>(), states)
    }

    /// Batched ragged prefill: consumes `prompts[k]` into `states[k]`
    /// and returns each sequence's logits after its final prompt token —
    /// [`DecodeBackend::advance_batch_indexed`] with prompt `k` paired
    /// to state `k`.
    ///
    /// # Errors
    ///
    /// Rejects mismatched slice lengths, plus the conditions of
    /// [`DecodeBackend::advance_batch_indexed`].
    fn prefill_batch(
        &self,
        prompts: &[&[u32]],
        states: &mut [ModelState],
    ) -> Result<Vec<Vec<f32>>, ServeError> {
        if prompts.len() != states.len() {
            let (p, s) = (prompts.len(), states.len());
            return Err(ModelError::InvalidConfig(format!("{p} prompts for {s} states")).into());
        }
        let items: Vec<(usize, &[u32])> = prompts.iter().copied().enumerate().collect();
        let advanced = self.advance_batch_indexed(&items, states)?;
        Ok(advanced.into_iter().map(|(_, logits)| logits).collect())
    }

    /// Attaches a shared worker pool for multi-core engine steps. The
    /// default ignores it — a backend opts into parallel execution by
    /// storing the pool and handing it to the decode driver
    /// ([`ModelBackend`] does). Implementations must keep pooled output
    /// **bit-identical** to the single-thread path:
    /// attaching a pool may change how fast a step runs, never what a
    /// request generates.
    fn attach_pool(&mut self, _pool: &Arc<WorkerPool>) {}

    /// Threads this backend's batched calls execute on (1 = no pool
    /// attached, sequential execution).
    fn pool_threads(&self) -> usize {
        1
    }

    /// Engine-step heartbeat: called once per [`crate::engine::ServeEngine::step`]
    /// for *every* registered backend, whether or not the backend has
    /// work this step (quarantined backends included). The default is a
    /// no-op. Fault injectors ([`crate::chaos::ChaosBackend`]) use it to
    /// key their deterministic fault schedules to engine virtual time,
    /// so a quarantined backend's fault window still elapses while the
    /// engine routes around it.
    fn on_step(&self, _clock: u64) {}

    /// Post-fault recovery hook: called by the engine after an advance
    /// on this backend returned an error or panicked, before the
    /// backend is quarantined. Implementations discard any internal
    /// scratch that an unwind may have left torn ([`ModelBackend`]
    /// rebuilds its `RefCell` workspace — a `RefMut` releases its
    /// borrow during unwind, so the borrow itself is clean, but the
    /// workspace *contents* may hold a half-written step). This is the
    /// cold path; allocating here is fine.
    fn reset_after_fault(&self) {}

    /// Pricing profile for the accelerator cost model.
    fn cost_profile(&self) -> CostProfile;
}

/// What [`ModelBackend`] needs of a model beyond its decode kernels:
/// how reports name it and how the cost model prices it.
pub trait ServedModel: DecodeKernels {
    /// Short report name (`"fp"`, `"w4a4"`, …) and pricing profile.
    fn served_as(&self) -> (String, CostProfile);
}

impl ServedModel for MambaModel {
    fn served_as(&self) -> (String, CostProfile) {
        ("fp".to_string(), CostProfile::fp16())
    }
}

/// Any [`lightmamba_quant::qmodel::Precision`] is served; name and
/// profile are derived from the model: `weight_bits` is its actual mean
/// stored bits per parameter ([`QuantizedMamba::mean_weight_bits`] — for
/// the packed path, the packed nibble bytes plus scales actually held),
/// and the datapath maps to the narrowest [`HwPrecision`] that hosts the
/// declared widths (≤4-bit weights on the W4A4/W4A16 path, 5–8-bit on
/// W8A8, FP weights on FP16).
impl ServedModel for QuantizedMamba {
    fn served_as(&self) -> (String, CostProfile) {
        let precision = self.precision();
        let act_bits = precision.act.map_or(16, |s| s.bits);
        let (name, hw) = match precision.weight.map(|s| s.bits) {
            None => ("quant-fp".to_string(), HwPrecision::Fp16),
            Some(w) if w <= 4 && act_bits <= 4 => (format!("w{w}a{act_bits}"), HwPrecision::W4A4),
            Some(w) if w <= 4 => (format!("w{w}a{act_bits}"), HwPrecision::W4A16),
            Some(w) => (format!("w{w}a{act_bits}"), HwPrecision::W8A8),
        };
        let profile = CostProfile {
            precision: hw,
            weight_bits: self.mean_weight_bits(),
        };
        (name, profile)
    }
}

/// The backend over a host model `M`, held as `B` — owned (`B = M`) or
/// borrowed (`B = &M`).
///
/// The backend owns one reusable decode workspace (behind a `RefCell`
/// because the trait takes `&self` and the engine serializes all backend
/// calls, so the borrow is never contended): residual streams, kernel
/// scratch and the validation bitmap are reused across steps, and only
/// the returned logits vectors allocate. With a pool attached
/// ([`DecodeBackend::attach_pool`]) multi-sequence steps run as one lane
/// per pool thread — bit-identically to the unpooled step — and the
/// lanes' buffers are handed to the pool as disjoint `&mut`s, so the
/// `RefCell` itself never crosses a thread boundary.
#[derive(Debug, Clone)]
pub struct ModelBackend<M: ServedModel, B = M> {
    model: B,
    name: String,
    profile: CostProfile,
    ws: RefCell<Workspace<M::Scratch>>,
    pool: Option<Arc<WorkerPool>>,
}

/// The FP reference backend: [`ModelBackend`] over a borrowed
/// [`MambaModel`].
pub type FpBackend<'m> = ModelBackend<MambaModel, &'m MambaModel>;

/// Quantized execution backend: [`ModelBackend`] over an owned
/// [`QuantizedMamba`]. For packable precisions (the W4A4 recipe) the
/// model serves from **packed 4-bit weights** on the true-integer kernel
/// path ([`lightmamba_quant::kernels`]), not from dequantized f32
/// tensors. Despite the name (the paper's headline recipe) any precision
/// works — see [`ServedModel`]'s impl for how it is named and priced.
pub type W4A4Backend = ModelBackend<QuantizedMamba>;

impl<M: ServedModel, B: Borrow<M>> ModelBackend<M, B> {
    /// Wraps a model, taking its report name and cost profile.
    pub fn new(model: B) -> Self {
        let (name, profile) = model.borrow().served_as();
        ModelBackend {
            model,
            name,
            profile,
            ws: RefCell::new(Workspace::new()),
            pool: None,
        }
    }
}

impl<M, B> DecodeBackend for ModelBackend<M, B>
where
    M: ServedModel,
    ServeError: From<M::Error>,
    B: Borrow<M> + Send,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn config(&self) -> &MambaConfig {
        self.model.borrow().config()
    }

    fn new_state(&self) -> ModelState {
        ModelState::new(self.config())
    }

    fn advance_batch_indexed(
        &self,
        items: &[(usize, &[u32])],
        states: &mut [ModelState],
    ) -> Result<Vec<(usize, Vec<f32>)>, ServeError> {
        // The driver refuses this too, as a model error; callers of the
        // backend are promised the serve-level `InvalidConfig`.
        if let Some((slot, _)) = items.iter().find(|(_, toks)| toks.is_empty()) {
            return Err(ServeError::InvalidConfig(format!(
                "advance of state {slot} was given no tokens"
            )));
        }
        let (model, pool) = (self.model.borrow(), self.pool.as_deref());
        let logits = batch::advance(model, items, states, pool, &mut self.ws.borrow_mut())?;
        Ok(items.iter().map(|&(slot, _)| slot).zip(logits).collect())
    }

    fn attach_pool(&mut self, pool: &Arc<WorkerPool>) {
        self.pool = (pool.threads() > 1).then(|| Arc::clone(pool));
    }

    fn pool_threads(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.threads())
    }

    fn reset_after_fault(&self) {
        // A panic mid-step may have left half-written residual streams
        // or lane logits in the reusable workspace; rebuild it from
        // scratch (cold path, re-grown lazily by the next step).
        *self.ws.borrow_mut() = Workspace::new();
    }

    fn cost_profile(&self) -> CostProfile {
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightmamba_quant::pipeline::{quantize_model, Method, QuantSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model() -> MambaModel {
        MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(9)).unwrap()
    }

    #[test]
    fn fp_backend_delegates_to_reference_model() {
        let model = tiny_model();
        let backend = FpBackend::new(&model);
        assert_eq!(backend.name(), "fp");
        let mut states = vec![backend.new_state(), backend.new_state()];
        let prompts: [&[u32]; 2] = [&[1, 2, 3], &[9]];
        let batched = backend.prefill_batch(&prompts, &mut states).unwrap();
        let mut direct = model.new_state();
        let expect = model.prefill(&[1, 2, 3], &mut direct).unwrap();
        assert_eq!(batched[0], expect);
        let out = backend
            .forward_step_batch_indexed(&[(0, 4)], &mut states)
            .unwrap();
        assert_eq!(out[0].0, 0);
        assert_eq!(out[0].1, model.forward_step(4, &mut direct).unwrap());
    }

    #[test]
    fn ragged_advance_matches_whole_prompt_prefill() {
        // Feeding a prompt in uneven chunks through advance_batch_indexed
        // lands on exactly the logits one-shot prefill produces.
        let model = tiny_model();
        let backend = FpBackend::new(&model);
        let prompt: Vec<u32> = vec![4, 9, 1, 7, 3, 2, 8];
        let mut chunked = vec![backend.new_state(), backend.new_state()];
        // Sequence 0 takes the prompt in chunks of 3/3/1; sequence 1
        // (a shorter prompt) rides the same ragged batches.
        let out1 = backend
            .advance_batch_indexed(&[(0, &prompt[..3]), (1, &[5u32, 6][..])], &mut chunked)
            .unwrap();
        assert_eq!(out1.len(), 2);
        let out2 = backend
            .advance_batch_indexed(&[(0, &prompt[3..6])], &mut chunked)
            .unwrap();
        assert_eq!(out2[0].0, 0);
        let out3 = backend
            .advance_batch_indexed(&[(0, &prompt[6..])], &mut chunked)
            .unwrap();

        let mut reference = model.new_state();
        let expect = model.prefill(&prompt, &mut reference).unwrap();
        assert_eq!(out3[0].1, expect);
        let mut ref1 = model.new_state();
        let expect1 = model.prefill(&[5, 6], &mut ref1).unwrap();
        assert_eq!(out1[1].1, expect1);
    }

    #[test]
    fn ragged_advance_skips_only_logits_nobody_reads() {
        // The shipped backends run the LM head at final positions only;
        // logits and states must equal stepping one token at a time
        // (logits at every position), pooled or not.
        let model = tiny_model();
        let q = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
        let pool = Arc::new(WorkerPool::new(4));
        let mut backends: Vec<Box<dyn DecodeBackend + '_>> = vec![
            Box::new(FpBackend::new(&model)),
            Box::new(W4A4Backend::new(q.clone())),
            Box::new(FpBackend::new(&model)),
            Box::new(W4A4Backend::new(q)),
        ];
        for pooled in &mut backends[2..] {
            pooled.attach_pool(&pool);
        }
        let chunks: [&[u32]; 3] = [&[4, 9, 1, 7], &[3], &[2, 8, 6]];
        for backend in &backends {
            let items: Vec<(usize, &[u32])> = chunks.iter().copied().enumerate().collect();
            let mut advanced = vec![backend.new_state(); 3];
            let out = backend
                .advance_batch_indexed(&items, &mut advanced)
                .unwrap();
            let mut stepped = vec![backend.new_state(); 3];
            for (k, chunk) in chunks.iter().enumerate() {
                let mut last = Vec::new();
                for &t in *chunk {
                    last = backend
                        .forward_step_batch_indexed(&[(k, t)], &mut stepped)
                        .unwrap();
                }
                assert_eq!(out[k], last[0], "{} sequence {k}", backend.name());
            }
            assert_eq!(advanced, stepped, "{} states", backend.name());
        }
    }

    #[test]
    fn save_restore_round_trips_on_both_backends() {
        // Pause after a prefill, trash the slot with another sequence,
        // resume, and decode: logits must match the uninterrupted run
        // bit-for-bit on the FP and the quantized backend alike.
        let model = tiny_model();
        let q = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
        let fp = FpBackend::new(&model);
        let w4 = W4A4Backend::new(q);
        for backend in [&fp as &dyn DecodeBackend, &w4 as &dyn DecodeBackend] {
            let mut states = vec![backend.new_state()];
            backend
                .prefill_batch(&[&[3, 1, 4][..]], &mut states)
                .unwrap();
            let paused = backend.save_state(&states[0]);
            backend.reset_state(&mut states[0]);
            backend
                .prefill_batch(&[&[200, 200, 200, 200][..]], &mut states)
                .unwrap();
            backend.restore_state(&paused, &mut states[0]);
            let resumed = backend
                .forward_step_batch_indexed(&[(0, 7)], &mut states)
                .unwrap();

            let mut reference = vec![backend.new_state()];
            backend
                .prefill_batch(&[&[3, 1, 4][..]], &mut reference)
                .unwrap();
            let expect = backend
                .forward_step_batch_indexed(&[(0, 7)], &mut reference)
                .unwrap();
            assert_eq!(resumed, expect, "{} diverged after resume", backend.name());
        }
    }

    #[test]
    fn pooled_backends_match_sequential_bitwise() {
        // Attach a 4-thread pool to one copy of each backend and drive
        // the same multi-sequence prefill + decode through both copies:
        // outputs and final states must be bit-identical, because
        // sharding only partitions the batch.
        let model = tiny_model();
        let q = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
        let pool = Arc::new(WorkerPool::new(4));
        let mut fp_pooled = FpBackend::new(&model);
        let mut w4_pooled = W4A4Backend::new(q.clone());
        fp_pooled.attach_pool(&pool);
        w4_pooled.attach_pool(&pool);
        assert_eq!(fp_pooled.pool_threads(), 4);
        let fp_seq = FpBackend::new(&model);
        let w4_seq = W4A4Backend::new(q);
        assert_eq!(fp_seq.pool_threads(), 1);
        let pairs: [(&dyn DecodeBackend, &dyn DecodeBackend); 2] =
            [(&fp_pooled, &fp_seq), (&w4_pooled, &w4_seq)];
        for (pooled, seq) in pairs {
            let prompts: Vec<Vec<u32>> = (0..5).map(|k| vec![1 + k, 2 + k, 3]).collect();
            let prompt_refs: Vec<&[u32]> = prompts.iter().map(|p| &p[..]).collect();
            let mut sp = vec![pooled.new_state(); 5];
            let mut ss = vec![seq.new_state(); 5];
            let pre_p = pooled.prefill_batch(&prompt_refs, &mut sp).unwrap();
            let pre_s = seq.prefill_batch(&prompt_refs, &mut ss).unwrap();
            assert_eq!(pre_p, pre_s, "{} prefill diverged", pooled.name());
            for t in 0..4u32 {
                let items: Vec<(usize, u32)> = (0..5).map(|k| (k, 10 + t)).collect();
                let out_p = pooled.forward_step_batch_indexed(&items, &mut sp).unwrap();
                let out_s = seq.forward_step_batch_indexed(&items, &mut ss).unwrap();
                assert_eq!(out_p, out_s, "{} step {t} diverged", pooled.name());
            }
            for (a, b) in sp.iter().zip(&ss) {
                for (la, lb) in a.layers.iter().zip(&b.layers) {
                    assert_eq!(la.h, lb.h);
                }
            }
        }
    }

    #[test]
    fn reset_after_fault_preserves_decode_outputs() {
        // The recovery hook discards reusable scratch, never model or
        // sequence state: decode after a reset must stay bit-identical.
        let model = tiny_model();
        let q = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
        let fp = FpBackend::new(&model);
        let w4 = W4A4Backend::new(q);
        for backend in [&fp as &dyn DecodeBackend, &w4 as &dyn DecodeBackend] {
            let mut states = vec![backend.new_state()];
            backend
                .prefill_batch(&[&[3, 1, 4][..]], &mut states)
                .unwrap();
            backend.reset_after_fault();
            let after = backend
                .forward_step_batch_indexed(&[(0, 7)], &mut states)
                .unwrap();

            let mut reference = vec![backend.new_state()];
            backend
                .prefill_batch(&[&[3, 1, 4][..]], &mut reference)
                .unwrap();
            let expect = backend
                .forward_step_batch_indexed(&[(0, 7)], &mut reference)
                .unwrap();
            assert_eq!(after, expect, "{} diverged after reset", backend.name());
        }
    }

    #[test]
    fn paused_state_reports_its_transfer_bytes() {
        let model = tiny_model();
        let backend = FpBackend::new(&model);
        let state = backend.new_state();
        let paused = backend.save_state(&state);
        assert_eq!(
            paused.state_bytes(16.0),
            state.total_state_bytes(16.0),
            "pause must move exactly the resident state"
        );
        assert!(paused.state_bytes(16.0) > 0.0);
    }

    #[test]
    fn advance_rejects_empty_token_slices() {
        let model = tiny_model();
        let backend = FpBackend::new(&model);
        let mut states = vec![backend.new_state()];
        let err = backend
            .advance_batch_indexed(&[(0, &[][..])], &mut states)
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn ragged_advance_is_atomic() {
        // A bad token at a *later* position of the second item: the
        // advance is refused and no state has moved — FP and W4A4,
        // pooled and not.
        let model = tiny_model();
        let q = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
        let pool = Arc::new(WorkerPool::new(4));
        let mut backends: Vec<Box<dyn DecodeBackend + '_>> = vec![
            Box::new(FpBackend::new(&model)),
            Box::new(W4A4Backend::new(q.clone())),
            Box::new(FpBackend::new(&model)),
            Box::new(W4A4Backend::new(q)),
        ];
        for pooled in &mut backends[2..] {
            pooled.attach_pool(&pool);
        }
        let bad = model.config().vocab_size as u32;
        let items: [(usize, &[u32]); 2] = [(0, &[1, 2, 3]), (1, &[4, 5, bad])];
        for backend in &backends {
            let mut states = vec![backend.new_state(); 2];
            backend
                .advance_batch_indexed(&[(0, &[7]), (1, &[8])], &mut states)
                .unwrap();
            let before = states.clone();
            let err = backend
                .advance_batch_indexed(&items, &mut states)
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    ServeError::Model(ModelError::TokenOutOfRange { token, .. }) if token == bad
                ),
                "{}: {err:?}",
                backend.name()
            );
            assert_eq!(states, before, "{} advanced a state", backend.name());
        }
    }

    #[test]
    fn w4a4_backend_names_and_prices_by_precision() {
        let model = tiny_model();
        let q4 = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
        let b4 = W4A4Backend::new(q4);
        assert_eq!(b4.name(), "w4a4");
        assert_eq!(b4.cost_profile().precision, HwPrecision::W4A4);
        // weight_bits is the model's *actual* stored width: 4-bit codes
        // plus one 16-bit scale per group of 16 ≈ 5 bits/param, so the
        // stream is ~3.2× narrower than FP16's — not the idealized 4×.
        let wb = b4.cost_profile().weight_bits;
        assert!((4.5..5.5).contains(&wb), "stored bits/param {wb}");
        let params = 1_000_000u64;
        let ratio = CostProfile::fp16().weight_stream_bytes(params)
            / b4.cost_profile().weight_stream_bytes(params);
        assert!((2.9..4.1).contains(&ratio), "stream ratio {ratio}");
    }

    #[test]
    fn odd_precisions_map_to_hosting_datapath_not_fp16() {
        use lightmamba_quant::qmodel::Precision;
        use lightmamba_quant::quantizer::QuantScheme;
        use lightmamba_quant::{PreparedModel, QuantizedMamba};

        let model = tiny_model();
        let build = |wbits, abits| {
            let precision = Precision {
                weight: Some(QuantScheme::weight_per_group(wbits, 16)),
                act: Some(QuantScheme::act_per_token(abits)),
                ssm: None,
            };
            let prepared = PreparedModel::from_reference(&model).unwrap();
            W4A4Backend::new(QuantizedMamba::new(prepared, precision).unwrap())
        };
        // A 2-bit model rides the 4-bit datapath with its own (narrower)
        // stream width — it must not silently price as FP16.
        let b2 = build(2, 4);
        assert_eq!(b2.name(), "w2a4");
        assert_eq!(b2.cost_profile().precision, HwPrecision::W4A4);
        assert!(b2.cost_profile().weight_bits < 4.0);
        // 5–8-bit weights host on the W8A8 path.
        let b6 = build(6, 8);
        assert_eq!(b6.name(), "w6a8");
        assert_eq!(b6.cost_profile().precision, HwPrecision::W8A8);
        let wb = b6.cost_profile().weight_bits;
        assert!((6.0..8.0).contains(&wb), "stored bits/param {wb}");
    }

    #[test]
    fn backend_states_are_interchangeable_when_configs_match() {
        let model = tiny_model();
        let q = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
        let fp = FpBackend::new(&model);
        let w4 = W4A4Backend::new(q);
        let sf = fp.new_state();
        let sq = w4.new_state();
        assert_eq!(sf.layers.len(), sq.layers.len());
        assert_eq!(sf.layers[0].h.len(), sq.layers[0].h.len());
        assert_eq!(sf.layers[0].conv.channels(), sq.layers[0].conv.channels());
    }

    #[test]
    fn accelerator_config_swaps_precision_only() {
        let platform = Platform::vck190();
        let model = MambaConfig::tiny();
        let w4 = CostProfile::w4a4().accelerator_config(&platform, &model);
        let fp = CostProfile::fp16().accelerator_config(&platform, &model);
        assert_eq!(w4.precision, HwPrecision::W4A4);
        assert_eq!(fp.precision, HwPrecision::Fp16);
        assert!(!fp.pot_requant);
        assert_eq!(w4.mmu_din, fp.mmu_din);
        assert_eq!(w4.tiling, fp.tiling);
    }
}
