//! The serving engine: a virtual-time loop joining admission, batched
//! prefill/decode, sampling, and eviction.
//!
//! One engine *step* is one batched model invocation. A decoding
//! sequence advances by exactly one token per step; a *prefilling*
//! sequence consumes up to [`EngineConfig::prefill_chunk`] prompt
//! tokens per step. Chunking bounds how much of a step's work any one
//! prompt can claim, so a long prompt is spread across several steps
//! interleaved with its batch-mates' decode — it can never stall
//! already-running sequences for its whole prefill, yet still finishes
//! `chunk×` faster than the one-token-per-step loop. The recurrence
//! makes token-level prefill exact (no attention window to re-scan), so
//! any chunk size yields bit-identical outputs.
//!
//! Admission is policy-driven ([`crate::scheduler::Policy`]): each step
//! the policy sees the entire waiting queue and selects *which*
//! requests join, not merely how many — FIFO, earliest-deadline-first,
//! strict priority classes, or weighted fair queueing across models.
//! Deadline-aware policies additionally ask the engine to evict doomed
//! requests (deadline provably unmeetable) before admission, so a
//! guaranteed miss never burns a slot or a batched step.
//!
//! Residency is *preemptible*: a policy may pause resident sequences
//! ([`crate::scheduler::Policy::preempt`]) to hand their slots to more
//! urgent work. Because Mamba2's per-sequence state is fixed-size, a
//! pause is one state snapshot ([`crate::backend::PausedState`]) — no
//! KV cache to spill — and a later resume restores it bit-identically,
//! so preemption changes *when* a request runs, never *what* it
//! generates (pinned by the pause/resume equivalence proptests). Paused
//! sequences wait in a side queue, compete for slots through the same
//! policy admission as fresh arrivals, and still honor their deadlines
//! (expiry and doomed eviction apply while paused, judged on the work
//! they still owe). Pause/resume traffic is priced by the cost models
//! as state-transfer bytes on the shared stream.
//!
//! The engine is generic over execution backends: it drives a
//! [`ModelRegistry`] of named [`crate::backend::DecodeBackend`]s sharing
//! one slot pool, forming one sub-batch per model per step (each
//! sub-batch is one shared weight stream on the accelerator, so the cost
//! model prices them independently). A single-model engine is the
//! one-entry special case ([`ServeEngine::new`]).
//!
//! Sampling is per-request deterministic (each request carries its own
//! seeded RNG), so a request's output tokens are independent of the
//! admission policy, prefill chunking, batch composition, and which
//! other models are multiplexed — the engine's equivalence tests pin
//! batched-vs-sequential outputs bit-for-bit.

#![deny(clippy::too_many_lines)]

mod report;
mod seq;
mod step;

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use lightmamba_model::MambaModel;
use lightmamba_pool::WorkerPool;

use crate::backend::PausedState;
use crate::error::ServeError;
use crate::metrics::{RunTrace, ServeReport};
use crate::observe::{EngineObs, ObsConfig};
use crate::prefix::PrefixCache;
use crate::registry::{same_state_shape, ModelRegistry};
use crate::request::{Completion, GenRequest, RequestId};
use crate::resilience::{BackendHealth, DegradationController, HealthTracker, ResilienceConfig};
use crate::scheduler::{Policy, TokenBudget};
use crate::slots::SlotPool;
use seq::{ActiveSeq, PausedSeq};

/// The continuation record of a finished session turn: the final
/// fixed-size recurrent state plus the one token that was sampled but
/// never fed back through the model. The engine saves one at retirement
/// for every session-tagged request ([`GenRequest::session`]; drain via
/// [`ServeEngine::take_session_snapshots`]) and
/// [`ServeEngine::submit_with_state`] consumes one to serve the
/// session's next turn — a single state-transfer DMA instead of
/// re-prefilling the whole conversation, the serving payoff of Mamba's
/// constant-size state.
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    /// The final decode state, having consumed the turn's prompt plus
    /// all generated tokens except the last.
    pub state: PausedState,
    /// The turn's final sampled token. It was never fed through the
    /// model (sampling it retired the sequence), so the resume prepends
    /// it to the next turn's prompt — that is what makes the resumed
    /// decode bit-identical to re-prefilling the full history.
    pub pending_token: u32,
    /// Token-advances baked into the state (prompt plus generated minus
    /// the pending token) — the re-prefill work a resume avoids.
    pub consumed_tokens: usize,
}

/// One live notification recorded during a step when event recording is
/// on ([`ServeEngine::enable_events`]) — the feed the streaming
/// frontend fans out to per-request channels. Requests *leaving* the
/// engine are not events: every eviction path already records a
/// [`Completion`], so readers watch [`ServeEngine::completions`] grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// The request was admitted to a slot (its prefill starts this
    /// step). Emitted once per request — a preemption resume is not a
    /// new start.
    Started {
        /// The admitted request.
        id: RequestId,
        /// Admission step.
        step: u64,
    },
    /// The request sampled one token this step.
    Token {
        /// The sampling request.
        id: RequestId,
        /// The sampled token id.
        token: u32,
        /// The sampling step.
        step: u64,
    },
}

/// The optional observability layer and the single hook into it.
/// Boxed so the disabled engine pays one word and one branch per hook.
struct ObsSlot(Option<Box<EngineObs>>);

impl ObsSlot {
    /// Runs `f` against the layer when it is enabled.
    #[inline]
    fn with(&mut self, f: impl FnOnce(&mut EngineObs)) {
        if let Some(o) = self.0.as_deref_mut() {
            f(o);
        }
    }
}

/// Run-wide tallies, read back by the accessors and
/// [`ServeEngine::report`].
#[derive(Debug, Default)]
struct Totals {
    prefill_tokens: u64,
    decode_tokens: u64,
    /// Pause / resume events.
    preemptions: u64,
    resumes: u64,
    /// Requests evicted by client cancellation.
    cancellations: usize,
    /// Token-advances spent on requests that were later cancelled.
    wasted_advances: u64,
    /// Minimum remaining service (steps) of cancelled residents at the
    /// moment their slot was reclaimed.
    reclaimed_slot_steps: u64,
    /// Requests retired as `Failed` by backend faults.
    failed: usize,
    /// Arrivals shed as `Rejected`.
    rejected: usize,
    /// Backend faults contained (error returns plus caught panics).
    backend_faults: u64,
    /// Quarantine entries (first faults and half-open re-faults) and
    /// recoveries (half-open canary survived).
    quarantine_entries: u64,
    quarantine_recoveries: u64,
    /// Admissions the token budget deferred.
    budget_deferrals: u64,
    /// Peak resident-token footprint (Σ `prompt + max_new` over
    /// slot-holders).
    peak_resident_tokens: usize,
}

/// Engine limits.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Slot-pool capacity (maximum resident sequences).
    pub slots: usize,
    /// Step budget; `run` stops here even with work outstanding.
    pub max_steps: u64,
    /// Prompt tokens one prefilling sequence may consume per step
    /// (≥ 1). 1 reproduces the strict one-token-per-step loop; larger
    /// budgets speed prefill `chunk×` while bounding how long any one
    /// prompt can monopolize a step's work.
    pub prefill_chunk: usize,
    /// Host threads executing each batched model step (≥ 1). 1 runs
    /// every backend sequentially; larger values build one shared
    /// [`WorkerPool`] at construction and attach it to every registered
    /// backend, which then shard each per-model sub-batch across the
    /// pool. Outputs are **bit-identical** for any thread count (pinned
    /// by the engine equivalence proptests), so this knob trades host
    /// wall-clock only — never results.
    pub threads: usize,
    /// Token-level admission caps layered under every policy
    /// ([`TokenBudget`]); `None` (the default) keeps slot-only
    /// admission. Calibrate from the accelerator cost model with
    /// [`crate::accel_cost::calibrate_token_budget`].
    pub token_budget: Option<TokenBudget>,
    /// Shared-prefix state-cache capacity in snapshots
    /// ([`crate::prefix::PrefixCache`]); `None` (the default) disables
    /// the cache, making [`GenRequest::shared_prefix`] markers inert.
    /// `Some(0)` is rejected at construction.
    pub prefix_cache: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            slots: 16,
            max_steps: 100_000,
            prefill_chunk: 1,
            threads: 1,
            token_budget: None,
            prefix_cache: None,
        }
    }
}

/// The multi-tenant serving engine over a registry of model backends.
pub struct ServeEngine<'m> {
    registry: ModelRegistry<'m>,
    pool: SlotPool,
    /// The shared worker pool when [`EngineConfig::threads`] > 1; every
    /// registered backend holds a clone and shards its sub-batches over
    /// it. `None` means sequential execution.
    workers: Option<Arc<WorkerPool>>,
    cfg: EngineConfig,
    /// Vocabulary size per registered model — what
    /// [`ServeEngine::submit`] validates prompt tokens against.
    vocab_sizes: Vec<usize>,
    /// Future arrivals, sorted by `arrival_step` (then id).
    pending: VecDeque<GenRequest>,
    /// Arrived, unadmitted requests in arrival order. Policies select
    /// from the whole queue, so this is a plain vector, not a FIFO.
    waiting: Vec<GenRequest>,
    active: Vec<ActiveSeq>,
    /// Preempted sequences awaiting a slot, oldest pause first. They
    /// hold no slot — just their fixed-size saved state — and re-enter
    /// through the policy's admission picks.
    paused: Vec<PausedSeq>,
    clock: u64,
    completions: Vec<Completion>,
    trace: RunTrace,
    totals: Totals,
    /// Token-advances per model across all steps (Σ sub-batch tokens).
    processed_per_model: Vec<u64>,
    /// Steps between pause and resume, per completed episode.
    resume_latency: Vec<f64>,
    /// Requests whose clients asked for cancellation; honored at the
    /// top of the next step.
    cancels: HashSet<RequestId>,
    /// Saved states of submitted session resumes, restored into the
    /// slot at admission ([`ServeEngine::submit_with_state`]).
    resume_states: HashMap<RequestId, PausedState>,
    /// Session snapshots saved at retirement, awaiting
    /// [`ServeEngine::take_session_snapshots`].
    session_snapshots: Vec<(u64, SessionSnapshot)>,
    /// Whether steps record [`StepEvent`]s.
    events_enabled: bool,
    /// Events recorded since [`ServeEngine::take_events`].
    events: Vec<StepEvent>,
    /// The observability layer, when enabled
    /// ([`ServeEngine::enable_obs`]).
    obs: ObsSlot,
    /// Fault-tolerance knobs ([`ServeEngine::set_resilience`]); the
    /// default is inert on the fault-free path.
    resilience: ResilienceConfig,
    /// Per-model quarantine state machine.
    health: HealthTracker,
    /// Reusable admission mask (`true` = model accepts no admissions),
    /// refreshed in place each step so the hot path stays
    /// allocation-free.
    quarantine_mask: Vec<bool>,
    /// Sustained-overload ladder walker (inert unless
    /// [`ResilienceConfig::degradation`] is set).
    degradation: DegradationController,
    /// The shared-prefix state cache, when enabled
    /// ([`EngineConfig::prefix_cache`]).
    prefix: Option<PrefixCache>,
    /// Admissions the token budget deferred on the *previous* step —
    /// feeds the overload shed hint so budget-deferred congestion and
    /// queue depth report consistent retry semantics.
    budget_deferred_last_step: u64,
}

impl<'m> ServeEngine<'m> {
    /// Builds a single-model engine over the FP reference backend — the
    /// one-entry special case of [`ServeEngine::with_registry`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a zero-slot pool or a
    /// zero prefill chunk.
    pub fn new(model: &'m MambaModel, cfg: EngineConfig) -> Result<Self, ServeError> {
        Self::with_registry(ModelRegistry::single(model), cfg)
    }

    /// Builds an engine multiplexing every registered backend over one
    /// fresh slot pool.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a zero-slot pool, a
    /// zero prefill chunk, or an empty registry.
    pub fn with_registry(
        mut registry: ModelRegistry<'m>,
        cfg: EngineConfig,
    ) -> Result<Self, ServeError> {
        let invalid = [
            (cfg.slots == 0, "slot pool of size 0"),
            (cfg.prefill_chunk == 0, "prefill chunk of 0 tokens per step"),
            (cfg.threads == 0, "engine with 0 threads (1 = sequential)"),
            (
                registry.is_empty(),
                "engine needs at least one registered model",
            ),
            (
                cfg.prefix_cache == Some(0),
                "prefix cache of 0 entries (use None to disable)",
            ),
        ];
        if let Some((_, why)) = invalid.iter().find(|(bad, _)| *bad) {
            return Err(ServeError::InvalidConfig((*why).into()));
        }
        if let Some(budget) = cfg.token_budget {
            // Re-validate here so a literal-built budget can't smuggle a
            // zero cap past `TokenBudget::new`.
            TokenBudget::new(budget.max_prefill_tokens_per_step, budget.max_total_tokens)?;
        }
        let workers = (cfg.threads > 1).then(|| {
            let pool = Arc::new(WorkerPool::new(cfg.threads));
            registry.attach_pool(&pool);
            pool
        });
        let template = registry.new_state();
        let n_models = registry.len();
        let vocab_sizes = registry.vocab_sizes();
        Ok(ServeEngine {
            registry,
            pool: SlotPool::new(&template, cfg.slots),
            workers,
            cfg,
            vocab_sizes,
            pending: VecDeque::new(),
            waiting: Vec::new(),
            active: Vec::new(),
            paused: Vec::new(),
            clock: 0,
            completions: Vec::new(),
            trace: RunTrace::default(),
            totals: Totals::default(),
            processed_per_model: vec![0; n_models],
            resume_latency: Vec::new(),
            cancels: HashSet::new(),
            resume_states: HashMap::new(),
            session_snapshots: Vec::new(),
            events_enabled: false,
            events: Vec::new(),
            obs: ObsSlot(None),
            resilience: ResilienceConfig::default(),
            health: HealthTracker::new(n_models),
            quarantine_mask: vec![false; n_models],
            degradation: DegradationController::default(),
            prefix: cfg.prefix_cache.map(PrefixCache::new),
            budget_deferred_last_step: 0,
        })
    }

    /// Replaces the fault-tolerance configuration (quarantine shape,
    /// bounded admission queue, degradation ladder). The default
    /// [`ResilienceConfig`] is inert until a fault occurs, so an engine
    /// that never calls this behaves bit-identically to one predating
    /// the fault layer; [`ResilienceConfig::none`] is the no-mitigation
    /// baseline the chaos study compares against.
    pub fn set_resilience(&mut self, cfg: ResilienceConfig) {
        self.resilience = cfg;
    }

    /// The current fault-tolerance configuration.
    pub fn resilience(&self) -> &ResilienceConfig {
        &self.resilience
    }

    /// Quarantine state of model `id` (`None` for an unknown id).
    pub fn backend_health(&self, id: usize) -> Option<BackendHealth> {
        (id < self.registry.len()).then(|| self.health.get(id))
    }

    /// Current rung of the degradation ladder (0 = nominal; see
    /// [`crate::resilience`] for the ladder).
    pub fn degradation_level(&self) -> u8 {
        self.degradation.level()
    }

    /// Prompt tokens one prefilling sequence may consume per step right
    /// now: [`EngineConfig::prefill_chunk`], halved (never below 1)
    /// while the degradation ladder is at level ≥ 1. Chunked prefill is
    /// exact, so shrinking the chunk mid-run never changes outputs —
    /// only how work interleaves.
    pub fn effective_prefill_chunk(&self) -> usize {
        if self.degradation.level() >= 1 {
            (self.cfg.prefill_chunk / 2).max(1)
        } else {
            self.cfg.prefill_chunk
        }
    }

    /// Requests retired as [`crate::request::FinishReason::Failed`] by backend faults.
    pub fn failed_count(&self) -> usize {
        self.totals.failed
    }

    /// Arrivals shed as [`crate::request::FinishReason::Rejected`] by overload
    /// protection.
    pub fn rejected_count(&self) -> usize {
        self.totals.rejected
    }

    /// Backend faults contained so far (error returns plus caught
    /// panics, one per model per step at most).
    pub fn backend_fault_count(&self) -> u64 {
        self.totals.backend_faults
    }

    /// Quarantine transitions so far: `(entries, recoveries)`.
    pub fn quarantine_transitions(&self) -> (u64, u64) {
        (
            self.totals.quarantine_entries,
            self.totals.quarantine_recoveries,
        )
    }

    /// The registry of backends this engine multiplexes.
    pub fn registry(&self) -> &ModelRegistry<'m> {
        &self.registry
    }

    /// Threads executing each batched model step (1 = sequential; see
    /// [`EngineConfig::threads`]).
    pub fn worker_threads(&self) -> usize {
        self.workers.as_ref().map_or(1, |p| p.threads())
    }

    /// Submits requests; they enter the waiting queue at their
    /// `arrival_step`. Must be sorted by arrival step (generators
    /// produce them that way).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for empty prompts, prompt
    /// tokens outside the target model's vocabulary, or out-of-order
    /// arrivals, and [`ServeError::UnknownModel`] for a request naming a
    /// model the registry does not hold. A rejected request holds no
    /// slot and records no [`Completion`]; requests ahead of it in the
    /// same call stay submitted.
    pub fn submit(&mut self, requests: Vec<GenRequest>) -> Result<(), ServeError> {
        for r in requests {
            r.validate(&self.vocab_sizes)?;
            if let Some(back) = self.pending.back() {
                if r.arrival_step < back.arrival_step {
                    return Err(ServeError::InvalidConfig(
                        "submissions must be sorted by arrival step".into(),
                    ));
                }
            }
            self.pending.push_back(r);
        }
        Ok(())
    }

    /// Submits one request that *resumes* a stored session snapshot
    /// instead of starting from a zeroed state. The snapshot's pending
    /// token is prepended to the prompt (it was sampled last turn but
    /// never fed through the model), and on admission the saved state
    /// is restored into the claimed slot — one state-transfer move in
    /// the trace, priced like a preemption resume, in place of
    /// re-prefilling the whole conversation.
    ///
    /// # Errors
    ///
    /// Everything [`ServeEngine::submit`] rejects, plus
    /// [`ServeError::InvalidConfig`] for a snapshot whose state shape
    /// does not fit this engine's slot pool.
    pub fn submit_with_state(
        &mut self,
        mut req: GenRequest,
        snapshot: SessionSnapshot,
    ) -> Result<(), ServeError> {
        if !same_state_shape(snapshot.state.state(), &self.registry.new_state()) {
            return Err(ServeError::InvalidConfig(format!(
                "request {} resumes a session state whose shape does not fit this engine's \
                 slot pool",
                req.id
            )));
        }
        req.prompt.insert(0, snapshot.pending_token);
        let id = req.id;
        self.submit(vec![req])?;
        self.resume_states.insert(id, snapshot.state);
        Ok(())
    }

    /// Requests cancellation of `id` (client hang-up). At the top of
    /// the next step the request is evicted from wherever it sits —
    /// pending, waiting, resident, or paused — with
    /// [`crate::request::FinishReason::Cancelled`]; a cancelled *resident* frees its
    /// slot within that one step, and the freed capacity is offered to
    /// admission in the same step. Unknown or already-finished ids are
    /// ignored (the cancel raced with completion).
    pub fn cancel(&mut self, id: RequestId) {
        self.cancels.insert(id);
    }

    /// Turns on per-step [`StepEvent`] recording. Off by default so
    /// closed-loop benchmark runs don't pay for a feed nobody drains.
    pub fn enable_events(&mut self) {
        self.events_enabled = true;
    }

    /// Drains the [`StepEvent`]s recorded since the last call.
    pub fn take_events(&mut self) -> Vec<StepEvent> {
        std::mem::take(&mut self.events)
    }

    /// Drains the `(session id, snapshot)` pairs saved by retirements
    /// of session-tagged requests since the last call.
    pub fn take_session_snapshots(&mut self) -> Vec<(u64, SessionSnapshot)> {
        std::mem::take(&mut self.session_snapshots)
    }

    /// Turns on the observability layer: engine metrics (per-model
    /// series registered from this engine's registry), per-step phase
    /// spans, and the flight recorder. Off by default — a disabled
    /// engine pays one branch per hook. Enabling mid-run starts the
    /// wall-clock epoch at the call, replacing any prior layer.
    pub fn enable_obs(&mut self, cfg: ObsConfig) {
        let names: Vec<&str> = self.registry.iter().map(|(_, name, _)| name).collect();
        self.obs = ObsSlot(Some(Box::new(EngineObs::new(cfg, &names))));
    }

    /// The observability layer, when enabled.
    pub fn obs(&self) -> Option<&EngineObs> {
        self.obs.0.as_deref()
    }

    /// Mutable access to the observability layer, when enabled.
    pub fn obs_mut(&mut self) -> Option<&mut EngineObs> {
        self.obs.0.as_deref_mut()
    }

    /// Detaches and returns the observability layer (the engine keeps
    /// running un-instrumented). The frontend uses this to hand the
    /// final metrics/trace/flight state to the caller with the run
    /// report.
    pub fn take_obs(&mut self) -> Option<Box<EngineObs>> {
        self.obs.0.take()
    }

    /// Submitted session resumes whose saved state has not yet been
    /// restored into a slot (drops to zero once they are admitted or
    /// leave the engine — nothing leaks).
    pub fn pending_resumes(&self) -> usize {
        self.resume_states.len()
    }

    /// The limits this engine was built with.
    pub fn config(&self) -> EngineConfig {
        self.cfg
    }

    /// Completed/evicted requests so far.
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// Current virtual time in steps.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The shared-prefix state cache, when enabled
    /// ([`EngineConfig::prefix_cache`]) — hit/miss/eviction counters and
    /// occupancy for tests and reports.
    pub fn prefix_cache(&self) -> Option<&PrefixCache> {
        self.prefix.as_ref()
    }

    /// Admissions deferred by the token budget across the run
    /// ([`EngineConfig::token_budget`]); 0 with no budget set.
    pub fn budget_deferrals(&self) -> u64 {
        self.totals.budget_deferrals
    }

    /// Peak resident-token footprint (Σ `prompt + max_new` over
    /// slot-holders at the post-admission point) observed so far.
    pub fn peak_resident_tokens(&self) -> usize {
        self.totals.peak_resident_tokens
    }

    /// Slot-pool capacity.
    pub fn capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// Currently free slots.
    pub fn free_slots(&self) -> usize {
        self.pool.free_count()
    }

    /// Currently resident sequences.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Currently paused (preempted, slotless) sequences.
    pub fn paused_count(&self) -> usize {
        self.paused.len()
    }

    /// Whether any request is pending, waiting, paused, or resident.
    pub fn has_work(&self) -> bool {
        !self.pending.is_empty()
            || !self.waiting.is_empty()
            || !self.paused.is_empty()
            || !self.active.is_empty()
    }

    /// Runs until all submitted work drains or the step budget is hit,
    /// then returns the run report.
    ///
    /// # Errors
    ///
    /// None today — backend faults are contained per model, not
    /// returned (see [`ServeEngine::step`]).
    pub fn run(&mut self, policy: &mut dyn Policy) -> Result<ServeReport, ServeError> {
        while self.has_work() && self.clock < self.cfg.max_steps {
            self.step(policy)?;
        }
        Ok(self.report(&*policy))
    }

    /// Executes one engine step — one batched model invocation — as an
    /// ordered list of phases sharing one per-step `StepCtx`: arrivals →
    /// cancel / expiry / doomed eviction → policy preemption (pause
    /// residents for urgent work) → policy admission (fresh arrivals and
    /// resumes compete for the freed slots, under the quarantine and
    /// token-budget gates) → batched model advance (chunked prefill +
    /// decode, one fault domain per backend) → sampling and prefix
    /// harvest → retirement → degradation ladder → trace and
    /// observability close. ARCHITECTURE.md tabulates what each phase
    /// reads and writes.
    ///
    /// # Errors
    ///
    /// None today: a backend error or panic is *contained* — the faulted
    /// model's residents retire as [`crate::request::FinishReason::Failed`],
    /// the backend is quarantined, and the step still returns `Ok`. The
    /// `Result` is kept so callers written as `step(..)?` stay valid.
    pub fn step(&mut self, policy: &mut dyn Policy) -> Result<(), ServeError> {
        let mut ctx = self.open(policy.name());
        self.heartbeat();
        self.arrivals();
        self.phase("cancel", &mut ctx, |e, _| e.cancel_phase());
        self.phase("expire", &mut ctx, |e, _| e.expire());
        self.phase("doom", &mut ctx, |e, _| e.doom(&*policy));
        self.survey(&mut ctx);
        self.phase("preempt", &mut ctx, |e, ctx| e.preempt(ctx, &mut *policy));
        self.phase("admit", &mut ctx, |e, ctx| e.admit(ctx, &mut *policy));
        self.phase("advance", &mut ctx, Self::advance);
        self.phase("sample", &mut ctx, Self::sample);
        self.phase("retire", &mut ctx, Self::retire);
        self.degrade();
        self.close(ctx);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{FinishReason, Priority};
    use crate::scheduler::{
        AdmissionCtx, Edf, Fifo, PriorityClasses, StaticBatching, WeightedFair,
    };
    use lightmamba_model::MambaConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model() -> MambaModel {
        MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(9)).unwrap()
    }

    fn burst_requests(n: u64, prompt_len: usize, gen_len: usize) -> Vec<GenRequest> {
        (0..n)
            .map(|id| GenRequest::greedy(id, vec![(id % 200) as u32 + 1; prompt_len], gen_len))
            .collect()
    }

    fn sequential_reference(model: &MambaModel, req: &GenRequest) -> Vec<u32> {
        let mut state = model.new_state();
        let mut rng = StdRng::seed_from_u64(req.seed);
        let mut logits = model.prefill(&req.prompt, &mut state).unwrap();
        let mut expect = Vec::new();
        for _ in 0..req.max_new_tokens {
            let t = req.sampler.sample(&logits, &mut rng);
            expect.push(t);
            logits = model.forward_step(t, &mut state).unwrap();
        }
        expect
    }

    #[test]
    fn thread_knob_is_validated_and_reported() {
        let model = tiny_model();
        let cfg = |threads| EngineConfig {
            slots: 2,
            max_steps: 100,
            prefill_chunk: 1,
            threads,
            ..Default::default()
        };
        let err = ServeEngine::new(&model, cfg(0)).map(|_| ()).unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)));
        assert_eq!(
            ServeEngine::new(&model, cfg(1)).unwrap().worker_threads(),
            1
        );
        assert_eq!(
            ServeEngine::new(&model, cfg(4)).unwrap().worker_threads(),
            4
        );
    }

    #[test]
    fn threaded_engine_matches_single_thread_outputs() {
        // The same burst through a 1-thread and a 4-thread engine:
        // every completion's token stream must be bit-identical, because
        // sharding only partitions each step's batch.
        let model = tiny_model();
        let reqs = burst_requests(8, 5, 6);
        let run = |threads: usize| {
            let mut engine = ServeEngine::new(
                &model,
                EngineConfig {
                    slots: 4,
                    max_steps: 10_000,
                    prefill_chunk: 2,
                    threads,
                    ..Default::default()
                },
            )
            .unwrap();
            engine.submit(reqs.clone()).unwrap();
            engine.run(&mut Fifo).unwrap();
            let mut done = engine.completions().to_vec();
            done.sort_by_key(|c| c.id);
            done.into_iter().map(|c| c.tokens).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn drains_a_burst_and_matches_sequential_outputs() {
        let model = tiny_model();
        let reqs = burst_requests(6, 4, 5);
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 3,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(reqs.clone()).unwrap();
        let report = engine.run(&mut Fifo).unwrap();
        assert_eq!(report.completed, 6);
        assert_eq!(report.evicted, 0);

        for req in &reqs {
            let done = engine
                .completions()
                .iter()
                .find(|c| c.id == req.id)
                .unwrap();
            assert_eq!(
                done.tokens,
                sequential_reference(&model, req),
                "request {} diverged",
                req.id
            );
        }
    }

    #[test]
    fn chunked_prefill_is_bit_identical_and_cuts_steps() {
        // The pinned invariant: per-request outputs do not depend on
        // the prefill chunk size — and chunking actually speeds the
        // run up in steps on prompt-heavy work.
        let model = tiny_model();
        let reqs = burst_requests(6, 24, 4);
        let run = |chunk: usize| {
            let mut engine = ServeEngine::new(
                &model,
                EngineConfig {
                    slots: 3,
                    max_steps: 10_000,
                    prefill_chunk: chunk,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            engine.submit(reqs.clone()).unwrap();
            let report = engine.run(&mut Fifo).unwrap();
            let mut out: Vec<(u64, Vec<u32>)> = engine
                .completions()
                .iter()
                .map(|c| (c.id, c.tokens.clone()))
                .collect();
            out.sort();
            (report, out)
        };
        let (r1, out1) = run(1);
        let (r8, out8) = run(8);
        assert_eq!(out1, out8, "outputs depend on prefill chunk");
        for req in &reqs {
            let got = &out8.iter().find(|(id, _)| *id == req.id).unwrap().1;
            assert_eq!(got, &sequential_reference(&model, req));
        }
        assert!(
            r8.steps < r1.steps,
            "chunk 8 took {} steps vs {} with chunk 1",
            r8.steps,
            r1.steps
        );
        // Same total work, fewer steps: the per-step processed counts
        // must sum to the same token total.
        let p1: usize = r1.trace.processed_per_step.iter().sum();
        let p8: usize = r8.trace.processed_per_step.iter().sum();
        assert_eq!(p1, p8);
        assert_eq!(r1.prefill_tokens, r8.prefill_tokens);
        // And chunked steps really do carry more than one token per
        // resident sequence.
        assert!(r8
            .trace
            .processed_per_step
            .iter()
            .zip(&r8.trace.batch_per_step)
            .any(|(&p, &b)| p > b));
    }

    #[test]
    fn continuous_beats_static_on_ttft() {
        let model = tiny_model();
        // Mixed lengths: static batching strands short requests behind
        // long batch-mates and late arrivals behind the whole batch.
        let mut reqs = Vec::new();
        for id in 0..12u64 {
            let gen_len = if id % 3 == 0 { 24 } else { 4 };
            let mut r = GenRequest::greedy(id, vec![3; 4], gen_len);
            r.arrival_step = id; // staggered arrivals
            reqs.push(r);
        }
        let run = |policy: &mut dyn Policy| {
            let mut engine = ServeEngine::new(
                &model,
                EngineConfig {
                    slots: 4,
                    max_steps: 10_000,
                    prefill_chunk: 1,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            engine.submit(reqs.clone()).unwrap();
            engine.run(policy).unwrap()
        };
        let cont = run(&mut Fifo);
        let stat = run(&mut StaticBatching);
        assert_eq!(cont.completed, 12);
        assert_eq!(stat.completed, 12);
        assert!(
            cont.ttft_steps.mean < stat.ttft_steps.mean,
            "continuous {:?} vs static {:?}",
            cont.ttft_steps,
            stat.ttft_steps
        );
        assert!(cont.steps <= stat.steps);
    }

    #[test]
    fn outputs_do_not_depend_on_policy() {
        let model = tiny_model();
        let reqs = burst_requests(5, 3, 6);
        let run = |policy: &mut dyn Policy| {
            let mut engine = ServeEngine::new(
                &model,
                EngineConfig {
                    slots: 2,
                    max_steps: 10_000,
                    prefill_chunk: 2,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            engine.submit(reqs.clone()).unwrap();
            engine.run(policy).unwrap();
            let mut out: Vec<(u64, Vec<u32>)> = engine
                .completions()
                .iter()
                .map(|c| (c.id, c.tokens.clone()))
                .collect();
            out.sort();
            out
        };
        let fifo = run(&mut Fifo);
        assert_eq!(fifo, run(&mut StaticBatching));
        assert_eq!(fifo, run(&mut Edf::default()));
        assert_eq!(fifo, run(&mut PriorityClasses::default()));
        assert_eq!(fifo, run(&mut WeightedFair::equal()));
    }

    #[test]
    fn fifo_admission_order_holds() {
        let model = tiny_model();
        let reqs = burst_requests(9, 2, 3);
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(reqs).unwrap();
        engine.run(&mut Fifo).unwrap();
        let mut admissions: Vec<(u64, u64)> = engine
            .completions()
            .iter()
            .map(|c| (c.admitted_step.expect("completed implies admitted"), c.id))
            .collect();
        admissions.sort();
        let ids: Vec<u64> = admissions.iter().map(|&(_, id)| id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "later requests admitted before earlier ones");
    }

    #[test]
    fn priority_classes_jump_the_queue() {
        let model = tiny_model();
        // One slot, a burst: FIFO would admit in id order; the priority
        // policy admits the interactive stragglers first.
        let reqs: Vec<GenRequest> = (0..6u64)
            .map(|id| {
                let prio = if id >= 4 {
                    Priority::Interactive
                } else {
                    Priority::Batch
                };
                GenRequest::greedy(id, vec![2; 2], 2).with_priority(prio)
            })
            .collect();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 1,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(reqs).unwrap();
        let report = engine.run(&mut PriorityClasses::default()).unwrap();
        assert_eq!(report.completed, 6);
        let mut admissions: Vec<(u64, u64)> = engine
            .completions()
            .iter()
            .map(|c| (c.admitted_step.unwrap(), c.id))
            .collect();
        admissions.sort();
        let ids: Vec<u64> = admissions.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, vec![4, 5, 0, 1, 2, 3]);
        // The report slices by class.
        let interactive = &report.per_class[0];
        assert_eq!(interactive.priority, Priority::Interactive);
        assert_eq!(interactive.completed, 2);
        assert!(
            interactive.queue_steps.mean < report.per_class[2].queue_steps.mean,
            "interactive {:?} vs batch {:?}",
            interactive.queue_steps,
            report.per_class[2].queue_steps
        );
    }

    #[test]
    fn edf_beats_fifo_on_deadline_hits() {
        // The acceptance scenario in miniature: a deadline-free hog
        // arrives first, then tight-deadline requests. FIFO admits in
        // arrival order and lets the deadlines starve; EDF reorders the
        // queue and strictly wins on hit rate — outputs unchanged.
        let model = tiny_model();
        let mut reqs = vec![GenRequest::greedy(0, vec![1; 4], 30)];
        for id in 1..5u64 {
            reqs.push(GenRequest::greedy(id, vec![2; 2], 3).with_deadline(10));
        }
        let run = |policy: &mut dyn Policy| {
            let mut engine = ServeEngine::new(
                &model,
                EngineConfig {
                    slots: 2,
                    max_steps: 10_000,
                    prefill_chunk: 1,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            engine.submit(reqs.clone()).unwrap();
            engine.run(policy).unwrap()
        };
        let fifo = run(&mut Fifo);
        let edf = run(&mut Edf::default());
        assert_eq!(fifo.deadline_total, 4);
        assert_eq!(edf.deadline_total, 4);
        assert!(
            edf.deadline_hits > fifo.deadline_hits,
            "edf {}/{} vs fifo {}/{}",
            edf.deadline_hits,
            edf.deadline_total,
            fifo.deadline_hits,
            fifo.deadline_total
        );
        assert!(edf.deadline_hit_rate() > fifo.deadline_hit_rate());
    }

    #[test]
    fn doomed_requests_are_evicted_before_admission() {
        let model = tiny_model();
        // Needs 2 prefill + 9 decode steps but only has a 5-step budget:
        // under EDF it must be dropped at arrival, not at expiry, and
        // never occupy the (free!) slot.
        let doomed = GenRequest::greedy(0, vec![1; 2], 10).with_deadline(5);
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 100,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(vec![doomed.clone()]).unwrap();
        let report = engine.run(&mut Edf::default()).unwrap();
        assert_eq!(report.evicted, 1);
        let c = &engine.completions()[0];
        assert_eq!(c.finish, FinishReason::DeadlineExceeded);
        assert_eq!(c.admitted_step, None);
        assert_eq!(c.finished_step, 0, "evicted at arrival, not at expiry");
        // FIFO admits it and burns 5 steps discovering the miss.
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 100,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(vec![doomed]).unwrap();
        let report = engine.run(&mut Fifo).unwrap();
        assert_eq!(report.evicted, 1);
        assert_eq!(engine.completions()[0].admitted_step, Some(0));
        assert_eq!(engine.completions()[0].finished_step, 5);
    }

    #[test]
    fn a_feasible_deadline_survives_doomed_eviction() {
        let model = tiny_model();
        // 2 prefill + 2 decode steps in a 10-step budget: feasible, and
        // EDF must serve it to completion.
        let req = GenRequest::greedy(0, vec![1; 2], 3).with_deadline(10);
        let mut engine = ServeEngine::new(&model, EngineConfig::default()).unwrap();
        engine.submit(vec![req]).unwrap();
        let report = engine.run(&mut Edf::default()).unwrap();
        assert_eq!(report.completed, 1);
        assert_eq!(report.deadline_hits, 1);
    }

    #[test]
    fn wfq_shares_one_pool_by_weight() {
        use crate::backend::FpBackend;
        use crate::registry::ModelRegistry;

        let model = tiny_model();
        let mut reg = ModelRegistry::new();
        reg.register("a", Box::new(FpBackend::new(&model))).unwrap();
        reg.register("b", Box::new(FpBackend::new(&model))).unwrap();

        // Saturation: far more equal-shape work per model than the step
        // budget can finish, so shares reflect policy, not drain order.
        let reqs: Vec<GenRequest> = (0..400u64)
            .map(|id| GenRequest::greedy(id, vec![3; 2], 8).on_model((id % 2) as usize))
            .collect();
        let mut engine = ServeEngine::with_registry(
            reg,
            EngineConfig {
                slots: 8,
                max_steps: 150,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(reqs).unwrap();
        let mut wfq = WeightedFair::new(vec![3.0, 1.0]);
        let report = engine.run(&mut wfq).unwrap();
        assert!(engine.has_work(), "pool must stay saturated");
        let a = report.per_model[0].processed_tokens as f64;
        let b = report.per_model[1].processed_tokens as f64;
        let share = a / (a + b);
        assert!(
            (0.65..0.85).contains(&share),
            "weight-3 model took {share:.2} of the pool (want ≈ 0.75)"
        );
    }

    #[test]
    fn invalid_policy_picks_are_ignored() {
        struct Rogue;
        impl Policy for Rogue {
            fn select(&mut self, ctx: &AdmissionCtx<'_>) -> Vec<usize> {
                // Out-of-range, duplicated, and over-subscribed picks.
                let mut v: Vec<usize> = (0..ctx.waiting.len() + 4).collect();
                v.extend(0..ctx.waiting.len());
                v
            }
            fn name(&self) -> &'static str {
                "rogue"
            }
        }
        let model = tiny_model();
        let reqs = burst_requests(6, 2, 2);
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(reqs).unwrap();
        let report = engine.run(&mut Rogue).unwrap();
        // The engine clamps to free slots and unique indices: all six
        // requests complete exactly once.
        assert_eq!(report.completed, 6);
        assert_eq!(report.trace.peak_batch(), 2);
    }

    #[test]
    fn preemptive_priority_pauses_a_low_class_hog_and_resumes_it_bit_identically() {
        let model = tiny_model();
        // One slot: a long batch-class hog holds it, then an
        // interactive request arrives. Non-preemptive priority must
        // wait; preemptive priority pauses the hog, serves the
        // interactive request, then resumes the hog to completion with
        // exactly the tokens an undisturbed run produces.
        let hog = GenRequest::greedy(0, vec![1; 3], 12).with_priority(Priority::Batch);
        let mut urgent = GenRequest::greedy(1, vec![2; 2], 3).with_priority(Priority::Interactive);
        urgent.arrival_step = 5;
        let run = |policy: &mut dyn Policy| {
            let mut engine = ServeEngine::new(
                &model,
                EngineConfig {
                    slots: 1,
                    max_steps: 10_000,
                    prefill_chunk: 1,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            engine.submit(vec![hog.clone(), urgent.clone()]).unwrap();
            let report = engine.run(policy).unwrap();
            let done: Vec<Completion> = engine.completions().to_vec();
            (report, done)
        };
        let (plain, plain_done) = run(&mut PriorityClasses::default());
        let (pre, pre_done) = run(&mut PriorityClasses::preemptive());
        assert_eq!(plain.preemptions, 0);
        assert_eq!(pre.preemptions, 1);
        assert_eq!(pre.resumes, 1);
        assert_eq!(pre.preempted_requests, 1);
        assert!(pre.resume_latency_steps.n == 1 && pre.resume_latency_steps.mean > 0.0);

        // Bit-identity: pausing changed *when* the hog ran, not *what*
        // it generated.
        let tokens_of =
            |done: &[Completion], id: u64| done.iter().find(|c| c.id == id).unwrap().tokens.clone();
        assert_eq!(tokens_of(&pre_done, 0), tokens_of(&plain_done, 0));
        assert_eq!(tokens_of(&pre_done, 1), tokens_of(&plain_done, 1));

        // The interactive request's first token no longer waits for the
        // hog to drain.
        let urgent_fin =
            |done: &[Completion]| done.iter().find(|c| c.id == 1).unwrap().finished_step;
        assert!(
            urgent_fin(&pre_done) < urgent_fin(&plain_done),
            "preemption must serve the interactive request earlier ({} vs {})",
            urgent_fin(&pre_done),
            urgent_fin(&plain_done)
        );

        // Timestamp semantics: the hog's completion records its bench
        // time; paused steps count toward e2e but never toward TTFT.
        let hog_done = pre_done.iter().find(|c| c.id == 0).unwrap();
        assert_eq!(hog_done.preemptions, 1);
        assert!(hog_done.paused_steps > 0);
        // The hog had sampled its first token before being paused, so
        // its TTFT is untouched by the pause.
        assert_eq!(hog_done.paused_steps_before_first_token, 0);
        let plain_hog = plain_done.iter().find(|c| c.id == 0).unwrap();
        assert_eq!(hog_done.ttft_steps(), plain_hog.ttft_steps());
        assert!(hog_done.e2e_steps().unwrap() > plain_hog.e2e_steps().unwrap());
    }

    #[test]
    fn preemptive_edf_rescues_a_deadline_from_a_deadline_free_hog() {
        let model = tiny_model();
        // One slot again: a deadline-free hog is resident when a
        // tight-deadline request arrives. Plain EDF dooms the arrival
        // (the hog cannot be displaced); preemptive EDF pauses the hog
        // on the arrival's last feasible step and hits the deadline.
        let hog = GenRequest::greedy(0, vec![1; 3], 30);
        let mut urgent = GenRequest::greedy(1, vec![2; 2], 3).with_deadline(8);
        urgent.arrival_step = 2;
        let run = |policy: &mut dyn Policy| {
            let mut engine = ServeEngine::new(
                &model,
                EngineConfig {
                    slots: 1,
                    max_steps: 10_000,
                    prefill_chunk: 1,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            engine.submit(vec![hog.clone(), urgent.clone()]).unwrap();
            engine.run(policy).unwrap()
        };
        let plain = run(&mut Edf::default());
        let pre = run(&mut Edf::preemptive());
        assert_eq!(plain.deadline_hits, 0);
        assert_eq!(pre.deadline_hits, 1);
        assert_eq!(pre.preemptions, 1);
        assert_eq!(pre.completed, 2, "the paused hog still finishes");
    }

    #[test]
    fn invalid_preempt_picks_are_ignored() {
        // A policy returning garbage victim indices (out of range,
        // duplicated) must not crash the engine or lose sequences.
        struct RoguePreempt;
        impl Policy for RoguePreempt {
            fn select(&mut self, ctx: &AdmissionCtx<'_>) -> Vec<usize> {
                (0..ctx.n_candidates().min(ctx.free_slots)).collect()
            }
            fn preempt(&mut self, ctx: &AdmissionCtx<'_>) -> Vec<usize> {
                let mut v: Vec<usize> = (0..ctx.residents.len() + 3).collect();
                v.extend(0..ctx.residents.len());
                v
            }
            fn name(&self) -> &'static str {
                "rogue-preempt"
            }
        }
        let model = tiny_model();
        let reqs = burst_requests(5, 2, 3);
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(reqs.clone()).unwrap();
        let report = engine.run(&mut RoguePreempt).unwrap();
        // Everything completes exactly once, with the usual outputs —
        // pause/resume churn (all residents, every step) is harmless.
        assert_eq!(report.completed, 5);
        for req in &reqs {
            let done = engine
                .completions()
                .iter()
                .find(|c| c.id == req.id)
                .unwrap();
            assert_eq!(done.tokens, sequential_reference(&model, req));
        }
        // The trace accounts every pause and resume symmetrically.
        assert_eq!(report.preemptions, report.resumes);
        let moves: usize = report.trace.state_moves_per_step.iter().sum();
        assert_eq!(moves as u64, report.preemptions + report.resumes);
    }

    #[test]
    fn deadline_eviction_frees_the_slot() {
        let model = tiny_model();
        let mut hog = GenRequest::greedy(0, vec![1; 4], 500);
        hog.deadline_steps = Some(10);
        let quick = GenRequest::greedy(1, vec![2; 2], 2);
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 1,
                max_steps: 1_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(vec![hog, quick]).unwrap();
        let report = engine.run(&mut Fifo).unwrap();
        assert_eq!(report.evicted, 1);
        assert_eq!(report.completed, 1);
        let evicted = &engine.completions()[0];
        assert_eq!(evicted.id, 0);
        assert_eq!(evicted.finish, FinishReason::DeadlineExceeded);
    }

    #[test]
    fn queued_expiry_is_evicted_without_burning_a_slot_or_step() {
        let model = tiny_model();
        // One hog holds the only slot far past the quick request's
        // deadline; the quick request must expire in the queue, never
        // occupying the slot or joining a batched step.
        let hog = GenRequest::greedy(0, vec![1; 4], 40);
        let mut quick = GenRequest::greedy(1, vec![2; 2], 2);
        quick.deadline_steps = Some(5);
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 1,
                max_steps: 1_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(vec![hog, quick]).unwrap();
        let report = engine.run(&mut Fifo).unwrap();
        assert_eq!(report.evicted, 1);
        assert_eq!(report.completed, 1);
        let evicted = engine
            .completions()
            .iter()
            .find(|c| c.id == 1)
            .expect("quick request recorded");
        assert_eq!(evicted.finish, FinishReason::DeadlineExceeded);
        assert!(evicted.tokens.is_empty());
        assert_eq!(evicted.first_token_step, None);
        assert_eq!(evicted.finished_step, 5);
        // Every executed step ran batch 1 (the hog alone): the expired
        // request never inflated a batch.
        assert!(report.trace.batch_per_step.iter().all(|&b| b <= 1));
    }

    #[test]
    fn eos_token_stops_generation_early() {
        let model = tiny_model();
        // Find the greedy first token, then make it the EOS.
        let mut state = model.new_state();
        let logits = model.prefill(&[5, 6], &mut state).unwrap();
        let eos = MambaModel::argmax(&logits) as u32;
        let mut req = GenRequest::greedy(0, vec![5, 6], 50);
        req.eos_token = Some(eos);
        let mut engine = ServeEngine::new(&model, EngineConfig::default()).unwrap();
        engine.submit(vec![req]).unwrap();
        let report = engine.run(&mut Fifo).unwrap();
        assert_eq!(report.completed, 1);
        let c = &engine.completions()[0];
        assert_eq!(c.finish, FinishReason::Eos);
        assert_eq!(c.tokens, vec![eos]);
    }

    #[test]
    fn step_budget_stops_the_run() {
        let model = tiny_model();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 5,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(burst_requests(4, 8, 50)).unwrap();
        let report = engine.run(&mut Fifo).unwrap();
        assert_eq!(report.steps, 5);
        assert!(engine.has_work());
    }

    #[test]
    fn multiplexed_outputs_match_single_model_runs() {
        use crate::backend::{FpBackend, W4A4Backend};
        use crate::registry::ModelRegistry;
        use lightmamba_model::eval::StepModel;
        use lightmamba_quant::pipeline::{quantize_model, Method, QuantSpec};

        let model = tiny_model();
        let quantized =
            quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
        let mut reg = ModelRegistry::new();
        reg.register("fp", Box::new(FpBackend::new(&model)))
            .unwrap();
        reg.register("w4a4", Box::new(W4A4Backend::new(quantized.clone())))
            .unwrap();

        let mut engine = ServeEngine::with_registry(
            reg,
            EngineConfig {
                slots: 3,
                max_steps: 10_000,
                prefill_chunk: 2,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let reqs: Vec<GenRequest> = (0..8u64)
            .map(|id| {
                GenRequest::greedy(id, vec![(id % 200) as u32 + 1; 4], 5)
                    .on_model((id % 2) as usize)
            })
            .collect();
        engine.submit(reqs.clone()).unwrap();
        let report = engine.run(&mut Fifo).unwrap();
        assert_eq!(report.completed, 8);
        assert_eq!(report.per_model.len(), 2);
        assert_eq!(report.per_model[0].completed, 4);
        assert_eq!(report.per_model[1].completed, 4);
        // Sub-batches are recorded per model and sum to the step batch;
        // per-model processed tokens sum to the step's token-advances.
        for (sub, &total) in report
            .trace
            .sub_batches_per_step
            .iter()
            .zip(&report.trace.batch_per_step)
        {
            assert_eq!(sub.iter().sum::<usize>(), total);
        }
        for (sub, &total) in report
            .trace
            .sub_processed_per_step
            .iter()
            .zip(&report.trace.processed_per_step)
        {
            assert_eq!(sub.iter().sum::<usize>(), total);
        }

        // Every request's output equals its model's sequential decode,
        // no matter what the other backend's sequences were doing.
        let mut q = quantized;
        for req in &reqs {
            let done = engine
                .completions()
                .iter()
                .find(|c| c.id == req.id)
                .unwrap();
            assert_eq!(done.model, req.model);
            let mut rng = StdRng::seed_from_u64(req.seed);
            let expect = if req.model == 0 {
                sequential_reference(&model, req)
            } else {
                q.reset();
                let mut logits = Vec::new();
                for &t in &req.prompt {
                    logits = q.step(t).unwrap();
                }
                let mut out = Vec::new();
                for _ in 0..req.max_new_tokens {
                    let t = req.sampler.sample(&logits, &mut rng);
                    out.push(t);
                    logits = q.step(t).unwrap();
                }
                out
            };
            assert_eq!(done.tokens, expect, "request {} diverged", req.id);
        }
    }

    #[test]
    fn unknown_model_id_is_rejected_at_submit() {
        let model = tiny_model();
        let mut engine = ServeEngine::new(&model, EngineConfig::default()).unwrap();
        let err = engine
            .submit(vec![GenRequest::greedy(0, vec![1, 2], 3).on_model(5)])
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownModel(_)), "{err:?}");
    }

    #[test]
    fn rejects_empty_prompt_zero_slots_and_zero_chunk() {
        let model = tiny_model();
        assert!(ServeEngine::new(
            &model,
            EngineConfig {
                slots: 0,
                max_steps: 1,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            }
        )
        .is_err());
        assert!(ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 1,
                prefill_chunk: 0,
                threads: 1,
                ..Default::default()
            }
        )
        .is_err());
        let mut engine = ServeEngine::new(&model, EngineConfig::default()).unwrap();
        assert!(engine
            .submit(vec![GenRequest::greedy(0, vec![], 4)])
            .is_err());
    }

    #[test]
    fn cancelling_a_resident_frees_its_slot_within_one_step() {
        let model = tiny_model();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 1,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        // The hog holds the only slot; the waiter queues behind it.
        engine
            .submit(vec![
                GenRequest::greedy(0, vec![1, 2], 50),
                GenRequest::greedy(1, vec![3, 4], 3),
            ])
            .unwrap();
        let mut policy = Fifo;
        for _ in 0..5 {
            engine.step(&mut policy).unwrap();
        }
        assert_eq!(engine.active_count(), 1);
        assert_eq!(engine.free_slots(), 0);
        engine.cancel(0);
        engine.step(&mut policy).unwrap();
        // One step later the hog is out and the waiter holds the slot:
        // the freed capacity was re-offered within the same step.
        let hog = engine
            .completions()
            .iter()
            .find(|c| c.id == 0)
            .expect("cancelled hog retires immediately")
            .clone();
        assert_eq!(hog.finish, FinishReason::Cancelled);
        assert!(!hog.tokens.is_empty(), "pre-cancel tokens are kept");
        assert!(hog.tokens.len() < 50);
        assert_eq!(engine.active_count(), 1);
        let report = engine.run(&mut policy).unwrap();
        let waiter = engine
            .completions()
            .iter()
            .find(|c| c.id == 1)
            .expect("waiter runs after the cancel");
        assert_eq!(waiter.finish, FinishReason::MaxTokens);
        assert_eq!(
            waiter.admitted_step,
            Some(hog.finished_step),
            "waiter admitted in the very step the cancel landed"
        );
        assert_eq!(report.cancellations, 1);
        assert_eq!(report.completed, 1);
        assert_eq!(report.evicted, 0, "a cancel is not a deadline eviction");
        assert!(report.wasted_token_advances >= 3);
        assert!(report.reclaimed_slot_steps > 0);
        assert_eq!(report.trace.cancellations_per_step.iter().sum::<usize>(), 1);
        assert!(hog.deadline_hit().is_none());
    }

    #[test]
    fn cancelling_unadmitted_and_paused_requests_also_retires_them() {
        let model = tiny_model();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 1,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        // A batch hog that the preemptive policy will pause, an urgent
        // arrival to force the pause, and a waiter that never gets in
        // before its cancel.
        let hog = GenRequest::greedy(0, vec![1; 3], 30).with_priority(Priority::Batch);
        let mut urgent = GenRequest::greedy(1, vec![2; 2], 20).with_priority(Priority::Interactive);
        urgent.arrival_step = 5;
        let waiter = GenRequest::greedy(2, vec![3; 2], 4).with_priority(Priority::Batch);
        engine.submit(vec![hog, waiter, urgent]).unwrap();
        let mut policy = PriorityClasses::preemptive();
        for _ in 0..8 {
            engine.step(&mut policy).unwrap();
        }
        assert_eq!(engine.paused_count(), 1, "the hog was preempted");
        engine.cancel(0); // paused
        engine.cancel(2); // waiting, never admitted
        engine.step(&mut policy).unwrap();
        let by_id = |id: u64| {
            engine
                .completions()
                .iter()
                .find(|c| c.id == id)
                .cloned()
                .unwrap_or_else(|| panic!("request {id} retired"))
        };
        assert_eq!(by_id(0).finish, FinishReason::Cancelled);
        assert_eq!(by_id(2).finish, FinishReason::Cancelled);
        assert!(by_id(2).tokens.is_empty(), "never admitted, no tokens");
        assert_eq!(engine.paused_count(), 0, "paused state is released");
        let report = engine.run(&mut policy).unwrap();
        assert_eq!(report.cancellations, 2);
        assert_eq!(report.completed, 1, "only the urgent request finished");
    }

    #[test]
    fn session_resume_matches_reprefill_and_strictly_beats_its_ttft() {
        let model = tiny_model();
        let p1: Vec<u32> = (1..=12).collect();
        let p2: Vec<u32> = (30..36).collect();
        let cfg = EngineConfig {
            slots: 1,
            max_steps: 10_000,
            prefill_chunk: 1,
            threads: 1,
            ..Default::default()
        };

        // Turn 1 completes into a snapshot; turn 2 resumes it.
        let mut engine = ServeEngine::new(&model, cfg).unwrap();
        engine
            .submit(vec![GenRequest::greedy(0, p1.clone(), 8).with_session(1)])
            .unwrap();
        let mut policy = Fifo;
        engine.run(&mut policy).unwrap();
        let turn1 = engine.completions()[0].clone();
        let (sid, snap) = engine
            .take_session_snapshots()
            .pop()
            .expect("turn 1 parked its state");
        assert_eq!(sid, 1);
        assert_eq!(
            snap.consumed_tokens,
            p1.len() + 8 - 1,
            "everything but the pending token is baked into the state"
        );
        assert_eq!(snap.pending_token, *turn1.tokens.last().unwrap());
        let mut turn2 = GenRequest::greedy(1, p2.clone(), 6).with_session(1);
        turn2.arrival_step = engine.clock();
        engine.submit_with_state(turn2, snap).unwrap();
        engine.run(&mut policy).unwrap();
        let resumed = engine
            .completions()
            .iter()
            .find(|c| c.id == 1)
            .unwrap()
            .clone();

        // Reference: the same turn 2 as a cold request re-prefilling
        // the entire conversation history.
        let mut full_prompt = p1.clone();
        full_prompt.extend_from_slice(&turn1.tokens);
        full_prompt.extend_from_slice(&p2);
        let mut ref_engine = ServeEngine::new(&model, cfg).unwrap();
        ref_engine
            .submit(vec![GenRequest::greedy(1, full_prompt, 6)])
            .unwrap();
        ref_engine.run(&mut policy).unwrap();
        let reprefill = ref_engine.completions()[0].clone();

        // Same generation, bit for bit — the resume is exact.
        assert_eq!(resumed.tokens, reprefill.tokens);
        // The pinned win: TTFT drops by exactly the consumed tokens the
        // resume did not have to re-prefill.
        let resumed_ttft = resumed.ttft_steps().unwrap();
        let reprefill_ttft = reprefill.ttft_steps().unwrap();
        assert!(
            resumed_ttft < reprefill_ttft,
            "resume TTFT {resumed_ttft} must strictly beat re-prefill {reprefill_ttft}"
        );
        assert_eq!(
            reprefill_ttft - resumed_ttft,
            (p1.len() + 8 - 1) as u64,
            "the saved prefill is exactly the snapshot's consumed tokens"
        );
    }

    #[test]
    fn second_turn_timing_uses_its_own_arrival_stamps() {
        let model = tiny_model();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 100_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine
            .submit(vec![GenRequest::greedy(0, vec![1; 4], 4).with_session(9)])
            .unwrap();
        let mut policy = Fifo;
        engine.run(&mut policy).unwrap();
        let turn1_finished = engine.completions()[0].finished_step;
        let (_, snap) = engine.take_session_snapshots().pop().unwrap();
        // The user reads the reply and types: the next turn arrives
        // long after the first finished. Its stamps must all be its
        // own — inheriting turn 1's would make TTFT/queue look 100
        // steps long (or trip the checked_sub debug audits).
        let mut turn2 = GenRequest::greedy(1, vec![5, 6, 7], 4).with_session(9);
        turn2.arrival_step = turn1_finished + 100;
        engine.submit_with_state(turn2, snap).unwrap();
        engine.run(&mut policy).unwrap();
        let c2 = engine
            .completions()
            .iter()
            .find(|c| c.id == 1)
            .unwrap()
            .clone();
        assert_eq!(c2.arrival_step, turn1_finished + 100);
        assert!(c2.admitted_step.unwrap() >= c2.arrival_step);
        assert!(
            c2.queue_steps().unwrap() <= 1,
            "an idle engine admits the turn immediately"
        );
        let ttft = c2.ttft_steps().expect("turn 2 produced tokens");
        assert!(
            ttft <= 5,
            "TTFT is measured from turn 2's own arrival, not turn 1's: {ttft}"
        );
        assert!(c2.e2e_steps().unwrap() < 100);
    }

    #[test]
    fn mismatched_session_state_is_rejected_at_submit() {
        let model = tiny_model();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 1,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine
            .submit(vec![GenRequest::greedy(0, vec![1, 2], 3).with_session(4)])
            .unwrap();
        engine.run(&mut Fifo).unwrap();
        let (_, snap) = engine.take_session_snapshots().pop().unwrap();

        // A differently-shaped engine must refuse the snapshot.
        let mut other_cfg = MambaConfig::tiny();
        other_cfg.d_model *= 2;
        let other = MambaModel::synthetic(other_cfg, &mut StdRng::seed_from_u64(1)).unwrap();
        let mut wrong = ServeEngine::new(
            &other,
            EngineConfig {
                slots: 1,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let err = wrong
            .submit_with_state(GenRequest::greedy(1, vec![3], 2).with_session(4), snap)
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err:?}");
        assert_eq!(
            wrong.pending_resumes(),
            0,
            "rejected resume leaves no state"
        );
    }

    // ---- fault tolerance -------------------------------------------------

    use crate::chaos::{ChaosBackend, FaultKind as ChaosFault, FaultPlan, FaultWindow};
    use crate::resilience::DegradationConfig;

    fn chaos_registry<'m>(model: &'m MambaModel, plan: FaultPlan) -> ModelRegistry<'m> {
        use crate::backend::FpBackend;
        let mut reg = ModelRegistry::new();
        reg.register(
            "chaos-fp",
            Box::new(ChaosBackend::new(Box::new(FpBackend::new(model)), plan)),
        )
        .unwrap();
        reg
    }

    #[test]
    fn a_faulting_backend_is_contained_and_the_healthy_model_completes() {
        use crate::backend::FpBackend;

        let model = tiny_model();
        let mut reg = ModelRegistry::new();
        reg.register("healthy", Box::new(FpBackend::new(&model)))
            .unwrap();
        let plan = FaultPlan::from_windows(vec![FaultWindow {
            start: 1,
            len: 2,
            kind: ChaosFault::StepError,
        }]);
        reg.register(
            "flaky",
            Box::new(ChaosBackend::new(Box::new(FpBackend::new(&model)), plan)),
        )
        .unwrap();

        // Even ids run on the healthy model, odd ids on the flaky one;
        // all four are resident when the fault window opens.
        let reqs: Vec<GenRequest> = (0..4u64)
            .map(|id| GenRequest::greedy(id, vec![id as u32 + 1; 2], 4).on_model((id % 2) as usize))
            .collect();
        let expect: Vec<Vec<u32>> = reqs
            .iter()
            .map(|r| sequential_reference(&model, r))
            .collect();
        let mut engine = ServeEngine::with_registry(
            reg,
            EngineConfig {
                slots: 4,
                max_steps: 10_000,
                prefill_chunk: 4,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(reqs).unwrap();
        let report = engine.run(&mut Fifo).unwrap();

        // The fault stayed inside its domain: the healthy model's
        // requests finished bit-identically, the flaky one's residents
        // were retired as Failed, and the engine itself survived.
        assert_eq!(report.completed, 2);
        assert_eq!(report.failed, 2);
        assert!(report.backend_faults >= 1);
        for c in engine.completions() {
            match c.finish {
                FinishReason::MaxTokens | FinishReason::Eos => {
                    assert_eq!(c.tokens, expect[c.id as usize], "healthy output unchanged");
                }
                FinishReason::Failed => {
                    assert_eq!(c.id % 2, 1, "only the flaky model's requests failed");
                }
                other => panic!("unexpected finish {other:?}"),
            }
        }
        // Every slot the failed residents held was reclaimed.
        assert_eq!(engine.free_slots(), 4);
        assert!(!engine.has_work());
        assert_eq!(report.availability(), Some(0.5));
    }

    #[test]
    fn quarantine_backs_off_then_readmits_through_a_canary() {
        let model = tiny_model();
        let plan = FaultPlan::from_windows(vec![FaultWindow {
            start: 2,
            len: 2,
            kind: ChaosFault::StepError,
        }]);
        let reqs: Vec<GenRequest> = (0..4u64)
            .map(|id| GenRequest::greedy(id, vec![id as u32 + 1; 2], 3))
            .collect();
        let expect: Vec<Vec<u32>> = reqs
            .iter()
            .map(|r| sequential_reference(&model, r))
            .collect();
        let mut engine = ServeEngine::with_registry(
            chaos_registry(&model, plan),
            EngineConfig {
                slots: 2,
                max_steps: 10_000,
                prefill_chunk: 4,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(reqs).unwrap();
        let report = engine.run(&mut Fifo).unwrap();

        // The step-2 fault kills the two residents and quarantines the
        // backend; the backoff window (4 steps) outlives the fault
        // window, the half-open canary advances cleanly, and the two
        // waiting requests then complete bit-identically.
        assert_eq!(report.failed, 2);
        assert_eq!(report.completed, 2);
        assert_eq!(engine.quarantine_transitions(), (1, 1));
        assert_eq!(engine.backend_health(0), Some(BackendHealth::Healthy));
        for c in engine.completions() {
            if matches!(c.finish, FinishReason::MaxTokens | FinishReason::Eos) {
                assert_eq!(c.tokens, expect[c.id as usize], "survivor is bit-identical");
            }
        }
        assert_eq!(engine.free_slots(), 2);
    }

    #[test]
    fn a_bounded_queue_sheds_overload_with_a_retry_hint() {
        let model = tiny_model();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 1,
                max_steps: 10_000,
                prefill_chunk: 4,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.set_resilience(ResilienceConfig {
            queue_limit: Some(2),
            ..ResilienceConfig::default()
        });
        engine.submit(burst_requests(6, 1, 2)).unwrap();
        let report = engine.run(&mut Fifo).unwrap();

        // The first two arrivals fill the bounded queue; the remaining
        // four are shed at intake with a resubmission hint.
        assert_eq!(report.rejected, 4);
        assert_eq!(report.completed, 2);
        assert!((report.availability().unwrap() - 2.0 / 6.0).abs() < 1e-12);
        for c in engine.completions() {
            if c.finish == FinishReason::Rejected {
                assert!(c.tokens.is_empty(), "shed requests never ran");
                assert!(c.retry_after_steps.unwrap() >= 1);
            } else {
                assert!(c.retry_after_steps.is_none());
            }
        }
    }

    #[test]
    fn sustained_overload_walks_the_degradation_ladder() {
        let model = tiny_model();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 1,
                max_steps: 10_000,
                prefill_chunk: 4,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.set_resilience(ResilienceConfig {
            degradation: Some(DegradationConfig {
                queue_slo: 2,
                breach_steps: 2,
                recover_steps: 2,
            }),
            ..ResilienceConfig::default()
        });
        // One slot, ten long requests: the queue sits far over the SLO.
        engine.submit(burst_requests(10, 1, 40)).unwrap();
        assert_eq!(engine.degradation_level(), 0);
        assert_eq!(engine.effective_prefill_chunk(), 4);
        for _ in 0..4 {
            engine.step(&mut Fifo).unwrap();
        }
        // Two breached steps per rung: level 2 after four steps.
        assert_eq!(engine.degradation_level(), 2);
        assert_eq!(engine.effective_prefill_chunk(), 2, "L1 halves the chunk");

        // At level 2, Batch-class arrivals are shed; Interactive ones
        // still get in.
        let shed = GenRequest::greedy(100, vec![1], 2).with_priority(Priority::Batch);
        let kept = GenRequest::greedy(101, vec![1], 2).with_priority(Priority::Interactive);
        engine.submit(vec![shed, kept]).unwrap();
        engine.step(&mut Fifo).unwrap();
        assert_eq!(engine.rejected_count(), 1);
        assert!(engine
            .completions()
            .iter()
            .any(|c| c.id == 100 && c.finish == FinishReason::Rejected));

        let report = engine.run(&mut Fifo).unwrap();
        assert_eq!(report.completed, 11, "everything admitted still finishes");
        assert_eq!(report.rejected, 1);
    }

    #[test]
    fn fault_free_runs_are_bit_identical_with_the_chaos_layer_armed() {
        let model = tiny_model();
        let reqs = burst_requests(5, 3, 4);

        let mut plain = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 10_000,
                prefill_chunk: 2,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        plain.submit(reqs.clone()).unwrap();
        let plain_report = plain.run(&mut Fifo).unwrap();

        // Same engine, but every call routed through a ChaosBackend
        // with an empty plan and the resilience layer armed.
        let mut wrapped = ServeEngine::with_registry(
            chaos_registry(&model, FaultPlan::none()),
            EngineConfig {
                slots: 2,
                max_steps: 10_000,
                prefill_chunk: 2,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        wrapped.set_resilience(ResilienceConfig::default());
        wrapped.submit(reqs).unwrap();
        let wrapped_report = wrapped.run(&mut Fifo).unwrap();

        assert_eq!(plain_report.completed, wrapped_report.completed);
        assert_eq!(wrapped_report.backend_faults, 0);
        let tokens = |e: &ServeEngine<'_>| {
            let mut v: Vec<(RequestId, Vec<u32>)> = e
                .completions()
                .iter()
                .map(|c| (c.id, c.tokens.clone()))
                .collect();
            v.sort_by_key(|(id, _)| *id);
            v
        };
        assert_eq!(
            tokens(&plain),
            tokens(&wrapped),
            "outputs are bit-identical"
        );
    }

    #[test]
    fn quarantine_strictly_beats_no_mitigation_on_the_same_fault_schedule() {
        let model = tiny_model();
        let plan = FaultPlan::seeded(7, 300, 0.25);
        assert!(!plan.is_empty());

        let run = |resilience: ResilienceConfig| {
            let mut engine = ServeEngine::with_registry(
                chaos_registry(&model, plan.clone()),
                EngineConfig {
                    slots: 4,
                    max_steps: 300,
                    prefill_chunk: 4,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            engine.set_resilience(resilience);
            let reqs: Vec<GenRequest> = (0..30u64)
                .map(|id| {
                    let mut r = GenRequest::greedy(id, vec![(id % 7) as u32 + 1; 2], 4);
                    r.arrival_step = id * 3;
                    r
                })
                .collect();
            engine.submit(reqs).unwrap();
            engine.run(&mut Fifo).unwrap()
        };

        let mitigated = run(ResilienceConfig::default());
        let exposed = run(ResilienceConfig::none());

        // Identical fault schedule, identical workload: backing off the
        // faulting backend converts failures into completions. This pin
        // is the PR's headline claim — do not weaken it to >=.
        assert!(
            mitigated.completed > exposed.completed,
            "quarantine goodput {} must strictly beat no-mitigation {}",
            mitigated.completed,
            exposed.completed
        );
        assert!(
            mitigated.failed < exposed.failed,
            "quarantine failures {} must stay under no-mitigation {}",
            mitigated.failed,
            exposed.failed
        );
        assert!(mitigated.availability().unwrap() > exposed.availability().unwrap());
        assert!(mitigated.quarantine_entries >= 1);
    }

    #[test]
    fn an_injected_panic_is_contained_and_quarantined() {
        let model = tiny_model();
        let plan = FaultPlan::from_windows(vec![FaultWindow {
            start: 1,
            len: 1,
            kind: ChaosFault::Panic,
        }]);
        let mut engine = ServeEngine::with_registry(
            chaos_registry(&model, plan),
            EngineConfig {
                slots: 2,
                max_steps: 10_000,
                prefill_chunk: 4,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(burst_requests(3, 2, 3)).unwrap();
        let report = engine.run(&mut Fifo).unwrap();

        // The panic unwound out of the backend, was caught at the
        // domain boundary, and the engine went on to serve the queue.
        assert_eq!(report.failed, 2);
        assert_eq!(report.completed, 1);
        assert!(report.backend_faults >= 1);
        assert_eq!(engine.free_slots(), 2);
        assert!(!engine.has_work());
    }

    #[test]
    fn prefix_cache_hit_skips_prefill_and_pins_the_ttft_win() {
        let model = tiny_model();
        let prefix: Vec<u32> = (1..=10).collect();
        let k = prefix.len();
        let mut warm_prompt = prefix.clone();
        warm_prompt.extend_from_slice(&[40, 41, 42]);
        let mut hot_prompt = prefix.clone();
        hot_prompt.extend_from_slice(&[50, 51, 52, 53]);
        let cfg = EngineConfig {
            slots: 1,
            max_steps: 10_000,
            prefill_chunk: 1,
            threads: 1,
            prefix_cache: Some(4),
            ..Default::default()
        };

        // Warm the cache: the first bearer of the prefix misses and
        // harvests the post-prefix state at the boundary.
        let mut engine = ServeEngine::new(&model, cfg).unwrap();
        engine
            .submit(vec![
                GenRequest::greedy(0, warm_prompt, 4).with_shared_prefix(k)
            ])
            .unwrap();
        let mut policy = Fifo;
        engine.run(&mut policy).unwrap();
        {
            let cache = engine.prefix_cache().unwrap();
            assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 1, 1));
        }

        // The measured request arrives after the warmup drained, hits,
        // and restores the snapshot instead of re-prefilling the prefix.
        let mut hot = GenRequest::greedy(1, hot_prompt.clone(), 6).with_shared_prefix(k);
        hot.arrival_step = engine.clock();
        engine.submit(vec![hot]).unwrap();
        let report = engine.run(&mut policy).unwrap();
        assert_eq!(engine.prefix_cache().unwrap().hits(), 1);
        let hot_done = engine
            .completions()
            .iter()
            .find(|c| c.id == 1)
            .unwrap()
            .clone();

        // Cold reference: the identical request through a cache-less
        // engine re-prefills the whole prompt.
        let mut cold_engine = ServeEngine::new(
            &model,
            EngineConfig {
                prefix_cache: None,
                ..cfg
            },
        )
        .unwrap();
        cold_engine
            .submit(vec![
                GenRequest::greedy(1, hot_prompt, 6).with_shared_prefix(k)
            ])
            .unwrap();
        cold_engine.run(&mut policy).unwrap();
        let cold = cold_engine.completions()[0].clone();

        // The restored state is exact: decode is bit-identical.
        assert_eq!(hot_done.tokens, cold.tokens);
        // The pinned win: at chunk 1 the TTFT drops by exactly the k
        // prefill steps the restore skipped (the state move itself is
        // priced in accelerator seconds, not engine steps — see the
        // accel_cost test pinning `k*step_seconds(1) - state_move`).
        let hot_ttft = hot_done.ttft_steps().unwrap();
        let cold_ttft = cold.ttft_steps().unwrap();
        assert!(
            hot_ttft < cold_ttft,
            "cache-hit TTFT {hot_ttft} must strictly beat re-prefill {cold_ttft}"
        );
        assert_eq!(
            cold_ttft - hot_ttft,
            k as u64,
            "the win is exactly the skipped prefill steps"
        );
        // State accounting across both cached runs: one harvest save
        // plus one hit restore, each a fixed-size state move.
        let moves: usize = report.trace.state_moves_per_step.iter().sum();
        assert_eq!(moves, 2, "one harvest save + one hit restore");
        assert_eq!(report.prefix_hits, 1);
        assert_eq!(report.prefix_misses, 1);
    }

    #[test]
    fn prefix_markers_are_inert_with_the_cache_off_and_exact_with_it_on() {
        let model = tiny_model();
        let plain = burst_requests(6, 8, 5);
        let marked: Vec<GenRequest> = plain
            .iter()
            .cloned()
            .map(|r| r.with_shared_prefix(4))
            .collect();
        let run = |reqs: Vec<GenRequest>, cache: Option<usize>| {
            let mut engine = ServeEngine::new(
                &model,
                EngineConfig {
                    slots: 3,
                    max_steps: 10_000,
                    prefill_chunk: 2,
                    threads: 1,
                    prefix_cache: cache,
                    ..Default::default()
                },
            )
            .unwrap();
            engine.submit(reqs).unwrap();
            let report = engine.run(&mut Fifo).unwrap();
            let mut out: Vec<(u64, Vec<u32>)> = engine
                .completions()
                .iter()
                .map(|c| (c.id, c.tokens.clone()))
                .collect();
            out.sort();
            (report.steps, out)
        };
        // With the cache off, shared-prefix markers change nothing:
        // same outputs, same step count, token for token.
        let baseline = run(plain, None);
        assert_eq!(run(marked.clone(), None), baseline);
        // With the cache on, outputs stay bit-identical — harvests and
        // restores never alter what a request generates.
        let (_, out_on) = run(marked, Some(8));
        assert_eq!(out_on, baseline.1);
    }

    #[test]
    fn out_of_range_prefix_markers_never_touch_the_cache() {
        let model = tiny_model();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                prefix_cache: Some(4),
                ..Default::default()
            },
        )
        .unwrap();
        // k == prompt.len() would leave nothing to decode from; k == 0
        // is an empty prefix. Both are ignored, not errors.
        let whole = GenRequest::greedy(0, vec![7; 5], 4).with_shared_prefix(5);
        let zero = GenRequest::greedy(1, vec![8; 5], 4).with_shared_prefix(0);
        engine.submit(vec![whole.clone(), zero.clone()]).unwrap();
        engine.run(&mut Fifo).unwrap();
        let cache = engine.prefix_cache().unwrap();
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 0, 0));
        for req in [&whole, &zero] {
            let done = engine
                .completions()
                .iter()
                .find(|c| c.id == req.id)
                .unwrap();
            assert_eq!(done.tokens, sequential_reference(&model, req));
        }
    }

    #[test]
    fn harvest_survives_preemption_and_later_requests_hit() {
        let model = tiny_model();
        let prefix: Vec<u32> = (10..22).collect();
        let k = prefix.len();
        let mut hog_prompt = prefix.clone();
        hog_prompt.extend_from_slice(&[1, 2]);
        let hog = GenRequest::greedy(0, hog_prompt.clone(), 6)
            .with_priority(Priority::Batch)
            .with_shared_prefix(k);
        // Arrives mid-prefill of the hog, well before the prefix
        // boundary: the pause must carry the pending harvest marker.
        let mut urgent = GenRequest::greedy(1, vec![90; 2], 3).with_priority(Priority::Interactive);
        urgent.arrival_step = 3;
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 1,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                prefix_cache: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(vec![hog.clone(), urgent]).unwrap();
        let mut policy = PriorityClasses::preemptive();
        let report = engine.run(&mut policy).unwrap();
        assert!(report.preemptions >= 1, "the hog was never paused");
        assert_eq!(
            engine.prefix_cache().unwrap().len(),
            1,
            "the resumed hog still harvested its prefix"
        );
        let hog_done = engine
            .completions()
            .iter()
            .find(|c| c.id == 0)
            .unwrap()
            .clone();
        assert_eq!(hog_done.tokens, sequential_reference(&model, &hog));

        // A later bearer of the same prefix restores instead of
        // prefilling — and still decodes bit-identically.
        let mut third_prompt = prefix.clone();
        third_prompt.extend_from_slice(&[5, 6, 7]);
        let mut third = GenRequest::greedy(2, third_prompt, 4).with_shared_prefix(k);
        third.arrival_step = engine.clock();
        engine.submit(vec![third.clone()]).unwrap();
        engine.run(&mut policy).unwrap();
        assert_eq!(engine.prefix_cache().unwrap().hits(), 1);
        let done = engine
            .completions()
            .iter()
            .find(|c| c.id == 2)
            .unwrap()
            .clone();
        assert_eq!(done.tokens, sequential_reference(&model, &third));
    }

    #[test]
    fn token_budget_defers_but_every_request_completes() {
        let model = tiny_model();
        let budget = TokenBudget::new(6, 30).unwrap();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 4,
                max_steps: 100_000,
                prefill_chunk: 4,
                threads: 1,
                token_budget: Some(budget),
                ..Default::default()
            },
        )
        .unwrap();
        // Footprint 6+5 = 11 tokens each: the 30-token residency cap
        // holds two at a time even though four slots are free, and the
        // 6-token prefill cap admits at most one fresh 4-token chunk
        // alongside an in-flight prefill.
        engine.submit(burst_requests(8, 6, 5)).unwrap();
        let report = engine.run(&mut Fifo).unwrap();
        assert_eq!(report.completed, 8, "deferral is never starvation");
        assert!(report.budget_deferrals > 0, "the caps never bound");
        for (t, &fed) in report.trace.prefill_per_step.iter().enumerate() {
            assert!(fed <= 6, "step {t} fed {fed} prefill tokens past the cap");
        }
        for (t, &resident) in report.trace.resident_tokens_per_step.iter().enumerate() {
            assert!(resident <= 30, "step {t} held {resident} resident tokens");
        }
        assert_eq!(
            report.budget_deferrals,
            report
                .trace
                .budget_deferred_per_step
                .iter()
                .map(|&d| d as u64)
                .sum::<u64>()
        );
        assert!(engine.peak_resident_tokens() <= 30);
        let prefill_util = report.budget_prefill_utilization.unwrap();
        assert!(prefill_util > 0.0 && prefill_util <= 1.0);
        let resident_util = report.budget_resident_utilization.unwrap();
        assert!(resident_util > 0.0 && resident_util <= 1.0);
    }

    #[test]
    fn budget_valve_admits_an_oversized_request_alone() {
        let model = tiny_model();
        // Footprint 10+4 = 14 > 8 and first chunk 4 > 2: no cap ever
        // fits this request, so without the liveness valve it would
        // wait forever.
        let budget = TokenBudget::new(2, 8).unwrap();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 100_000,
                prefill_chunk: 4,
                threads: 1,
                token_budget: Some(budget),
                ..Default::default()
            },
        )
        .unwrap();
        let req = GenRequest::greedy(0, vec![3; 10], 4);
        engine.submit(vec![req.clone()]).unwrap();
        let report = engine.run(&mut Fifo).unwrap();
        assert_eq!(report.completed, 1);
        assert_eq!(
            engine.completions()[0].tokens,
            sequential_reference(&model, &req)
        );
    }

    #[test]
    fn token_budget_is_inert_when_generous() {
        // A budget wide enough for the whole workload admits exactly
        // what the unbudgeted engine admits: same outputs, same steps,
        // zero deferrals.
        let model = tiny_model();
        let reqs = burst_requests(6, 5, 4);
        let run = |budget: Option<TokenBudget>| {
            let mut engine = ServeEngine::new(
                &model,
                EngineConfig {
                    slots: 3,
                    max_steps: 10_000,
                    prefill_chunk: 2,
                    threads: 1,
                    token_budget: budget,
                    ..Default::default()
                },
            )
            .unwrap();
            engine.submit(reqs.clone()).unwrap();
            let report = engine.run(&mut Fifo).unwrap();
            let mut out: Vec<(u64, Vec<u32>)> = engine
                .completions()
                .iter()
                .map(|c| (c.id, c.tokens.clone()))
                .collect();
            out.sort();
            (report.steps, report.budget_deferrals, out)
        };
        let (steps_off, _, out_off) = run(None);
        let generous = TokenBudget::new(10_000, 100_000).unwrap();
        let (steps_on, deferrals, out_on) = run(Some(generous));
        assert_eq!(deferrals, 0);
        assert_eq!(steps_on, steps_off);
        assert_eq!(out_on, out_off);
    }

    #[test]
    fn out_of_vocabulary_prompt_tokens_are_rejected_at_submit_not_booked_as_backend_faults() {
        // One bad token used to reach the backend, whose range error was
        // booked as a *backend fault*: every co-resident request of the
        // model retired Failed and the backend was quarantined.
        let model = tiny_model();
        let vocab = model.config().vocab_size as u32;
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 4,
                max_steps: 10_000,
                ..Default::default()
            },
        )
        .unwrap();
        let good = GenRequest::greedy(0, vec![1, 2, 3], 5);
        let edge = GenRequest::greedy(2, vec![vocab - 1], 2);
        engine.submit(vec![good.clone(), edge.clone()]).unwrap();
        for bad_token in [vocab, vocab + 5, u32::MAX] {
            let bad = GenRequest::greedy(1, vec![1, bad_token], 5);
            let err = engine.submit(vec![bad]).unwrap_err();
            assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
        }
        // The token a session resume prepends is checked the same way,
        // and a rejected resume parks no state.
        let snapshot = SessionSnapshot {
            state: PausedState::new(model.new_state()),
            pending_token: vocab,
            consumed_tokens: 0,
        };
        let turn = GenRequest::greedy(3, vec![4], 2).with_session(9);
        let err = engine.submit_with_state(turn, snapshot).unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
        assert_eq!(engine.pending_resumes(), 0);

        let report = engine.run(&mut Fifo).unwrap();
        assert_eq!(report.completed, 2, "the co-resident requests finish");
        assert_eq!(
            (
                report.backend_faults,
                report.failed,
                report.quarantine_entries
            ),
            (0, 0, 0)
        );
        assert_eq!(engine.completions().len(), 2, "rejections record nothing");
        for c in engine.completions() {
            let req = if c.id == good.id { &good } else { &edge };
            assert_eq!(c.tokens, sequential_reference(&model, req));
        }
        assert_eq!(engine.free_slots(), engine.capacity());
    }

    // -- Pieces of the step pipeline, called in isolation ---------------

    #[test]
    fn budget_gate_fits_defers_and_opens_the_valve_only_when_nothing_runs() {
        use super::step::{budget_gate, Load};
        let budget = TokenBudget::new(8, 40).unwrap();
        let load = |feed, footprint| Load { feed, footprint };
        let gate = |resident: Load, loads: &[Load], mut picks: Vec<usize>| {
            let deferred = budget_gate(budget, resident, &mut picks, |i| loads[i]);
            (picks, deferred)
        };
        let small = [load(4, 12); 3];
        // Two picks fill the per-step prefill cap; the third waits.
        assert_eq!(
            gate(Load::default(), &small, vec![0, 1, 2]),
            (vec![0, 1], 1)
        );
        // The footprint cap defers on its own, with feed to spare.
        assert_eq!(gate(load(0, 30), &small, vec![0]), (vec![], 1));
        // A later, smaller pick may still fit behind a deferred one.
        let mixed = [load(4, 12), load(6, 12), load(2, 12)];
        assert_eq!(
            gate(Load::default(), &mixed, vec![0, 1, 2]),
            (vec![0, 2], 1)
        );
        // Valve: an oversized request runs when the engine is empty...
        let big = [load(9, 99), load(1, 1)];
        assert_eq!(gate(Load::default(), &big, vec![0, 1]), (vec![0], 1));
        // ...but not behind a resident (even a decoding one, feed 0)...
        assert_eq!(gate(load(0, 5), &big, vec![0]), (vec![], 1));
        // ...nor behind a pick admitted earlier this step.
        assert_eq!(gate(Load::default(), &big, vec![1, 0]), (vec![1], 1));

        // What a sequence is charged depends only on the chunk handed
        // in: mid-prompt the remainder, past the prompt nothing.
        let r = GenRequest::greedy(0, vec![1; 10], 4);
        assert_eq!(Load::of(&r, 0, 4), load(4, 14));
        assert_eq!(Load::of(&r, 8, 4), load(2, 14));
        assert_eq!(Load::of(&r, 10, 4), load(0, 14));
    }

    #[test]
    fn budget_accounting_uses_the_configured_chunk_under_degradation() {
        let model = tiny_model();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 1_000,
                prefill_chunk: 4,
                threads: 1,
                token_budget: Some(TokenBudget::new(4, 100).unwrap()),
                ..Default::default()
            },
        )
        .unwrap();
        // Walk the ladder to rung 1 by hand (the controller stays inert
        // afterwards: no degradation config is set on the engine).
        let dcfg = DegradationConfig {
            queue_slo: 0,
            breach_steps: 1,
            recover_steps: 1,
        };
        assert_eq!(engine.degradation.observe(1, &dcfg), Some(1));
        assert_eq!(engine.effective_prefill_chunk(), 2);
        engine.submit(burst_requests(2, 4, 2)).unwrap();
        engine.step(&mut Fifo).unwrap();
        // Charged at the degraded chunk both would fit (2 + 2 <= 4); at
        // the configured one the second is deferred (4 + 4 > 4) — while
        // the step itself still feeds the degraded chunk.
        assert_eq!(engine.active_count(), 1);
        assert_eq!(engine.budget_deferrals(), 1);
        assert_eq!(engine.trace.prefill_per_step, [2]);
    }

    #[test]
    fn quarantine_gate_drops_quarantined_picks_and_admits_one_canary_per_model() {
        use super::step::quarantine_gate;
        let cfg = ResilienceConfig::default();
        let mut health = HealthTracker::new(3);
        let models = [0usize, 1, 2, 2, 0, 1, 1];
        let gate = |health: &HealthTracker| {
            let mut picks: Vec<usize> = (0..models.len()).collect();
            quarantine_gate(&mut picks, health, 3, |i| models[i]);
            picks
        };
        assert_eq!(gate(&health).len(), models.len(), "healthy passes all");
        health.on_fault(1, 0, &cfg);
        health.on_fault(2, 1, &cfg);
        assert_eq!(gate(&health), [0, 4], "quarantined models admit nothing");
        // Model 1's backoff elapses first: exactly one canary, the
        // policy's first pick for it; model 2 is still shut.
        health.tick(cfg.backoff_base, |_, _| {});
        assert_eq!(gate(&health), [0, 1, 4]);
        health.tick(cfg.backoff_base + 1, |_, _| {});
        assert_eq!(gate(&health), [0, 1, 2, 4], "one canary per model");
    }

    #[test]
    fn completion_constructors_stamp_unadmitted_and_paused_exits() {
        use super::seq::{unadmitted, ActiveSeq, Progress};
        let mut req = GenRequest::greedy(7, vec![1, 2, 3], 4)
            .on_model(1)
            .with_priority(Priority::Batch)
            .with_deadline(9);
        req.arrival_step = 2;
        // Never admitted: no admission or first-token stamp, no tokens,
        // no pause bookkeeping; only a shed carries a retry hint.
        let c = unadmitted(&req, 5, FinishReason::Rejected, Some(3));
        assert_eq!(
            (c.id, c.model, c.priority, c.deadline_steps),
            (7, 1, Priority::Batch, Some(9))
        );
        assert_eq!((c.arrival_step, c.finished_step), (2, 5));
        assert_eq!((c.admitted_step, c.first_token_step), (None, None));
        assert!(c.tokens.is_empty());
        assert_eq!(
            (
                c.preemptions,
                c.paused_steps,
                c.paused_steps_before_first_token
            ),
            (0, 0, 0)
        );
        assert_eq!(c.retry_after_steps, Some(3));
        let c = unadmitted(&req, 5, FinishReason::Cancelled, None);
        assert_eq!(c.retry_after_steps, None);

        let state = PausedState::new(tiny_model().new_state());
        let seat = |run| ActiveSeq { run, slot: 0 };
        // Paused before its first token and never resumed: the final
        // episode counts as paused time, all of it pre-first-token.
        let paused = seat(Progress::admit(req.clone(), 0, None, 3)).pause(state.clone(), 4);
        let c = paused
            .run
            .finish(10, FinishReason::DeadlineExceeded, Some(4));
        assert_eq!((c.admitted_step, c.first_token_step), (Some(3), None));
        assert_eq!(
            (
                c.preemptions,
                c.paused_steps,
                c.paused_steps_before_first_token
            ),
            (1, 6, 6)
        );
        // Two episodes around the first token: resume books the first
        // (pre-first-token), leaving while paused books the second.
        let paused = seat(Progress::admit(req.clone(), 0, None, 3)).pause(state.clone(), 4);
        let (mut seq, pause_len) = paused.resume(1, 6);
        assert_eq!((pause_len, seq.slot), (2, 1));
        seq.run.first_token_step = Some(7);
        seq.run.generated.push(42);
        let c = seq
            .pause(state, 8)
            .run
            .finish(11, FinishReason::Cancelled, Some(8));
        assert_eq!(c.tokens, [42]);
        assert_eq!(
            (
                c.preemptions,
                c.paused_steps,
                c.paused_steps_before_first_token
            ),
            (2, 5, 2)
        );
        assert_eq!(c.ttft_steps(), Some(3), "7 - 2 arrival, minus 2 paused");
        // A resident leaving (no open episode) adds no paused time.
        let c = Progress::admit(req, 0, None, 3).finish(9, FinishReason::Failed, None);
        assert_eq!((c.paused_steps, c.admitted_step), (0, Some(3)));
    }
}
