//! The phases of one engine step, in the order [`ServeEngine::step`]
//! runs them, and the [`StepCtx`] they share.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use lightmamba_obs::recorder::{FaultKind, LifecyclePhase, StepRecord};

use super::seq::{unadmitted, ActiveSeq, PausedSeq, Progress};
use super::{ServeEngine, SessionSnapshot, StepEvent};
use crate::backend::DecodeBackend;
use crate::observe::Tally;
use crate::registry::{ModelId, ModelRegistry};
use crate::request::{Completion, FinishReason, GenRequest};
use crate::resilience::{BackendHealth, HealthTracker};
use crate::scheduler::{AdmissionCtx, Policy, SeqView, TokenBudget};

/// Everything one step accumulates between its phases: the scratch the
/// phases hand each other and the per-step counts [`ServeEngine::close`]
/// folds into the run tally, [`crate::metrics::RunTrace`] and the
/// observability layer's [`StepRecord`]. Built fresh each step;
/// per-model vectors are indexed by [`ModelId`] and sized by the phase
/// that first writes them.
#[derive(Default)]
pub(super) struct StepCtx {
    /// Span category of the step's phase spans ([`Policy::name`]).
    cat: &'static str,
    /// Wall-clock start; taken only when observability is on.
    wall_start: Option<Instant>,
    completions_at_entry: usize,
    /// Sessions parked this step, in retirement order.
    parked: Vec<u64>,
    /// Residents per model, kept current through preemption.
    active_per_model: Vec<usize>,
    /// Scheduling views the policy sees (batch order / oldest pause
    /// first); rebuilt only when a preemption changed them.
    resident_views: Vec<SeqView>,
    paused_views: Vec<SeqView>,
    preempted: usize,
    resumed: usize,
    admitted: usize,
    budget_deferred: u64,
    /// Resident-token footprint at the post-admission peak.
    resident_tokens: usize,
    /// Fixed-size states moved on the shared stream (pause, resume,
    /// session/prefix restore, harvest, session park), per model.
    sub_state_moves: Vec<usize>,
    /// Residents entering the advance.
    total_batch: usize,
    /// Token-advances of each model's clean sub-batch.
    sub_processed: Vec<usize>,
    /// Logits per resident, index-aligned with `active`.
    step_logits: Vec<Option<Vec<f32>>>,
    /// At most one fault per model per step; `true` marks a caught
    /// panic, `false` an error return.
    faulted: Vec<Option<bool>>,
    prefill_tokens: usize,
    decode_tokens: usize,
}

/// The queues a request can be evicted from, in the order
/// [`ServeEngine::evict`] is asked to walk them.
#[derive(Debug, Clone, Copy)]
enum Queue {
    Pending,
    Waiting,
    Active,
    Paused,
}

/// What a sequence commits against a [`TokenBudget`]: the prompt tokens
/// it feeds next step and its worst-case resident footprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct Load {
    pub(super) feed: usize,
    pub(super) footprint: usize,
}

impl Load {
    /// `self` plus `other`, saturating: a request may name any
    /// `max_new_tokens`.
    fn plus(self, other: Load) -> Load {
        Load {
            feed: self.feed.saturating_add(other.feed),
            footprint: self.footprint.saturating_add(other.footprint),
        }
    }

    /// The load of `req` at prompt position `pos` under a prefill chunk
    /// of `chunk` tokens.
    pub(super) fn of(req: &GenRequest, pos: usize, chunk: usize) -> Self {
        Load {
            feed: req.prompt.len().saturating_sub(pos).min(chunk),
            footprint: req.prompt.len().saturating_add(req.max_new_tokens),
        }
    }
}

/// Removes from `v`, and returns in order, the elements `hit` selects
/// (allocation-free when it selects none).
fn extract<T>(v: &mut Vec<T>, hit: impl Fn(&T) -> bool) -> Vec<T> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(k) = v[from..].iter().position(&hit) {
        from += k;
        out.push(v.remove(from));
    }
    out
}

/// Drops out-of-range and repeated indices, keeping first occurrences
/// in order — the engine-side guard that lets policies over-select.
fn dedupe_in_range(picks: &mut Vec<usize>, n: usize) {
    let mut seen = vec![false; n];
    picks.retain(|&i| i < n && !std::mem::replace(&mut seen[i], true));
}

fn backend_of<'r>(registry: &'r ModelRegistry<'_>, model: ModelId) -> &'r dyn DecodeBackend {
    registry
        .get(model)
        .expect("admitted requests name registered models")
}

/// Quarantine gate, enforced by the engine so no policy can leak work
/// into a faulted domain: picks naming a quarantined model are dropped;
/// a half-open model admits exactly one canary to probe it.
pub(super) fn quarantine_gate(
    picks: &mut Vec<usize>,
    health: &HealthTracker,
    n_models: usize,
    model_of: impl Fn(usize) -> ModelId,
) {
    let mut canary_used = vec![false; n_models];
    picks.retain(|&i| {
        let model = model_of(i);
        match health.get(model) {
            BackendHealth::Healthy => true,
            BackendHealth::Quarantined { .. } => false,
            BackendHealth::HalfOpen { .. } => !std::mem::replace(&mut canary_used[model], true),
        }
    });
}

/// Token-budget gate ([`TokenBudget`]), layered under every policy:
/// walks `picks` in policy order and defers (drops from `picks`; the
/// request stays queued or paused) any that would push this step's
/// prefill feed or the resident footprint past its cap. `resident` is
/// what the slot-holders already commit. Returns the deferral count.
///
/// Liveness valve: with nothing resident and nothing yet admitted, the
/// first pick runs even if it alone busts a cap — an oversized request
/// executes solo instead of starving behind a budget it can never fit.
pub(super) fn budget_gate(
    budget: TokenBudget,
    resident: Load,
    picks: &mut Vec<usize>,
    load_of: impl Fn(usize) -> Load,
) -> u64 {
    let mut run = resident;
    let mut deferred = 0;
    picks.retain(|&i| {
        let pick = load_of(i);
        let valve = run == Load::default();
        let next = run.plus(pick);
        let fits = next.feed <= budget.max_prefill_tokens_per_step
            && next.footprint <= budget.max_total_tokens;
        if fits || valve {
            run = next;
        } else {
            deferred += 1;
        }
        fits || valve
    });
    deferred
}

impl ServeEngine<'_> {
    /// Opens the step: entry cursors and the step span. Wall-clock
    /// timing and the span exist only when the observability layer is
    /// on.
    pub(super) fn open(&mut self, cat: &'static str) -> StepCtx {
        let ctx = StepCtx {
            cat,
            wall_start: self.obs.0.is_some().then(Instant::now),
            completions_at_entry: self.completions.len(),
            ..StepCtx::default()
        };
        self.obs.with(|o| o.spans.begin("step", cat, self.clock));
        ctx
    }

    /// Runs phase `f` inside a span named `name`.
    pub(super) fn phase(
        &mut self,
        name: &'static str,
        ctx: &mut StepCtx,
        f: impl FnOnce(&mut Self, &mut StepCtx),
    ) {
        self.obs.with(|o| o.spans.begin(name, ctx.cat, self.clock));
        f(self, ctx);
        self.obs.with(|o| o.spans.end());
    }

    /// The one way out of the engine: bumps the finish reason's count
    /// and records the completion.
    fn record(&mut self, c: Completion) {
        let t = &mut self.totals;
        *match c.finish {
            FinishReason::MaxTokens | FinishReason::Eos => &mut t.completed,
            FinishReason::DeadlineExceeded => &mut t.evicted,
            FinishReason::Cancelled => &mut t.cancellations,
            FinishReason::Failed => &mut t.failed,
            FinishReason::Rejected => &mut t.rejected,
        } += 1;
        self.completions.push(c);
    }

    /// A request that never held a slot leaves; only a shed carries a
    /// retry hint.
    fn turn_away(&mut self, req: &GenRequest, finish: FinishReason, retry_after: Option<u64>) {
        self.record(unadmitted(req, self.clock, finish, retry_after));
    }

    /// A sequence with progress leaves. A cancelled one books its sunk
    /// token-advances as wasted work.
    fn leave(&mut self, run: Progress, finish: FinishReason, paused_at: Option<u64>) {
        if finish == FinishReason::Cancelled {
            self.totals.wasted_advances += run.pos as u64;
        }
        self.record(run.finish(self.clock, finish, paused_at));
    }

    /// A resident leaves: its slot is released first. A cancelled one
    /// also books the minimum service it still owed as reclaimed.
    fn vacate(&mut self, seq: ActiveSeq, finish: FinishReason) {
        self.pool.release(seq.slot);
        if finish == FinishReason::Cancelled {
            let owed = seq.run.remaining_steps(self.cfg.prefill_chunk);
            self.totals.reclaimed_slot_steps =
                self.totals.reclaimed_slot_steps.saturating_add(owed);
        }
        self.leave(seq.run, finish, None);
    }

    /// Evicts, with `finish`, every request in `queues` (walked in the
    /// order given) that `hit` selects. `hit` sees the request and, for
    /// one that was admitted, its progress.
    fn evict(
        &mut self,
        queues: &[Queue],
        finish: FinishReason,
        hit: impl Fn(&GenRequest, Option<&Progress>) -> bool,
    ) {
        let on_run = |run: &Progress| hit(&run.req, Some(run));
        for &queue in queues {
            match queue {
                Queue::Pending => {
                    let mut pending: Vec<GenRequest> = std::mem::take(&mut self.pending).into();
                    for r in extract(&mut pending, |r| hit(r, None)) {
                        self.turn_away(&r, finish, None);
                    }
                    self.pending = VecDeque::from(pending);
                }
                Queue::Waiting => {
                    for r in extract(&mut self.waiting, |r| hit(r, None)) {
                        self.turn_away(&r, finish, None);
                    }
                }
                Queue::Active => {
                    for seq in extract(&mut self.active, |s| on_run(&s.run)) {
                        self.vacate(seq, finish);
                    }
                }
                Queue::Paused => {
                    for p in extract(&mut self.paused, |p| on_run(&p.run)) {
                        self.leave(p.run, finish, Some(p.paused_at));
                    }
                }
            }
        }
    }

    /// Fault-layer heartbeat. Every registered backend observes the
    /// step clock — quarantined ones included, so a fault injector's
    /// windows elapse in virtual time whether or not the engine routes
    /// work to it (like a real transient fault clearing on its own
    /// schedule). Then quarantine windows whose backoff elapsed open
    /// half-way: admission will offer each such backend one canary.
    pub(super) fn heartbeat(&mut self) {
        for (_, _, backend) in self.registry.iter() {
            backend.on_step(self.clock);
        }
        let (clock, obs) = (self.clock, &mut self.obs);
        self.health.tick(clock, |mid, _level| {
            obs.with(|o| o.fault_event(clock, mid as u32, FaultKind::HalfOpen));
        });
    }

    /// Arrivals whose time has come join the waiting queue — unless
    /// overload protection sheds them: with a bounded queue, arrivals
    /// beyond `queue_limit` are turned away. A shed request retires as
    /// `Rejected` with a retry hint scaled to queue pressure; it never
    /// holds a slot and does no model work.
    pub(super) fn arrivals(&mut self) {
        while self
            .pending
            .front()
            .is_some_and(|r| r.arrival_step <= self.clock)
        {
            let r = self.pending.pop_front().expect("front checked");
            let over_limit = self
                .resilience
                .queue_limit
                .is_some_and(|lim| self.waiting.len() >= lim);
            if over_limit {
                // Hint: the steps the backlog ahead needs to drain at
                // one slot-pool wave per step — crude, but
                // deterministic and monotone in pressure. Token-budget
                // deferrals slow the drain below one wave per step, so
                // last step's deferral count is added (saturating — the
                // hint is advisory, never a wrap).
                let hint = (1 + self.waiting.len() as u64 / self.pool.capacity().max(1) as u64)
                    .saturating_add(self.budget_deferred_last_step);
                self.turn_away(&r, FinishReason::Rejected, Some(hint));
                continue;
            }
            self.obs
                .with(|o| o.lifecycle(r.id, self.clock, LifecyclePhase::Queued));
            self.waiting.push(r);
        }
    }

    /// Client cancellations: a cancelled request leaves from wherever
    /// it sits. A cancelled *resident* frees its slot right here —
    /// before admission — so the capacity it hands back is re-offered
    /// this very step. Ids the engine no longer holds are dropped
    /// silently (the cancel raced with completion).
    pub(super) fn cancel_phase(&mut self) {
        if self.cancels.is_empty() {
            return;
        }
        let cancels = std::mem::take(&mut self.cancels);
        self.evict(
            &[Queue::Pending, Queue::Waiting, Queue::Active, Queue::Paused],
            FinishReason::Cancelled,
            |r, _| cancels.contains(&r.id),
        );
    }

    /// Deadline expiry, judged before the step runs: an expired request
    /// never burns a slot on admission, never joins another batched
    /// model step, and ends even while it is paused and holds no slot.
    pub(super) fn expire(&mut self) {
        let clock = self.clock;
        self.evict(
            &[Queue::Waiting, Queue::Active, Queue::Paused],
            FinishReason::DeadlineExceeded,
            |r, _| {
                r.deadline_steps
                    .is_some_and(|d| clock.saturating_sub(r.arrival_step) >= d)
            },
        );
    }

    /// Doomed eviction (deadline-aware policies only): a waiting or
    /// paused request whose minimal completion no longer fits its
    /// budget is a guaranteed miss — drop it *before* admission instead
    /// of wasting slot steps discovering that at expiry. Paused
    /// sequences are judged on their *remaining* work: partial progress
    /// buys real slack.
    pub(super) fn doom(&mut self, policy: &dyn Policy) {
        if !policy.evicts_doomed() {
            return;
        }
        let (clock, chunk) = (self.clock, self.cfg.prefill_chunk);
        self.evict(
            &[Queue::Waiting, Queue::Paused],
            FinishReason::DeadlineExceeded,
            |r, run| {
                let owed = run.map_or_else(
                    || r.min_steps_to_complete(chunk),
                    |run| run.remaining_steps(chunk),
                );
                r.absolute_deadline()
                    .is_some_and(|abs| clock.saturating_add(owed) > abs)
            },
        );
    }

    /// Refreshes what the policy is about to see, once the evictions
    /// have settled: the quarantine mask, residents per model, and the
    /// scheduling views.
    pub(super) fn survey(&mut self, ctx: &mut StepCtx) {
        self.health.fill_mask(&mut self.quarantine_mask);
        ctx.active_per_model = vec![0; self.registry.len()];
        ctx.sub_state_moves = vec![0; self.registry.len()];
        for seq in &self.active {
            ctx.active_per_model[seq.run.req.model] += 1;
        }
        self.refresh_views(ctx);
    }

    fn refresh_views(&self, ctx: &mut StepCtx) {
        let chunk = self.cfg.prefill_chunk;
        ctx.resident_views = self.active.iter().map(|s| s.run.view(chunk)).collect();
        ctx.paused_views = self.paused.iter().map(|p| p.run.view(chunk)).collect();
    }

    fn admission_ctx<'a>(&'a self, ctx: &'a StepCtx) -> AdmissionCtx<'a> {
        AdmissionCtx {
            waiting: &self.waiting,
            paused: &ctx.paused_views,
            residents: &ctx.resident_views,
            clock: self.clock,
            free_slots: self.pool.free_count(),
            active: self.active.len(),
            active_per_model: &ctx.active_per_model,
            prefill_chunk: self.cfg.prefill_chunk,
            quarantined: &self.quarantine_mask,
        }
    }

    /// Preemption: the policy may pause residents so that more urgent
    /// candidates can take their slots this very step. A victim's
    /// fixed-size state is snapshotted via its backend, the slot is
    /// released, and the sequence joins the paused queue (it re-enters
    /// through admission as a candidate). The engine enforces index
    /// validity, mirroring admission.
    pub(super) fn preempt(&mut self, ctx: &mut StepCtx, policy: &mut dyn Policy) {
        let mut victims = policy.preempt(&self.admission_ctx(ctx));
        dedupe_in_range(&mut victims, self.active.len());
        victims.sort_unstable();
        for &i in victims.iter().rev() {
            let seq = self.active.remove(i);
            let model = seq.run.req.model;
            let state = backend_of(&self.registry, model).save_state(&self.pool.states()[seq.slot]);
            self.pool.release(seq.slot);
            ctx.active_per_model[model] -= 1;
            ctx.sub_state_moves[model] += 1;
            ctx.preempted += 1;
            self.totals.preemptions += 1;
            self.obs
                .with(|o| o.lifecycle(seq.run.req.id, self.clock, LifecyclePhase::Preempted));
            self.paused.push(seq.pause(state, self.clock));
        }
        // The views only change when someone was actually paused — the
        // common (non-preempting) step reuses them for admission.
        if !victims.is_empty() {
            self.refresh_views(ctx);
        }
    }

    /// What the residents commit against a token budget this step: each
    /// prefilling sequence's next chunk, every slot-holder's worst-case
    /// footprint.
    fn resident_load(&self) -> Load {
        let chunk = self.cfg.prefill_chunk;
        self.active.iter().fold(Load::default(), |sum, s| {
            sum.plus(Load::of(&s.run.req, s.run.pos, chunk))
        })
    }

    /// The `i`-th admission candidate (waiting requests, then paused
    /// sequences) and its prompt position.
    fn candidate(&self, i: usize) -> (&GenRequest, usize) {
        match i.checked_sub(self.waiting.len()) {
            None => (&self.waiting[i], 0),
            Some(p) => (&self.paused[p].run.req, self.paused[p].run.pos),
        }
    }

    /// Admission: the policy selects *which* candidates — fresh
    /// arrivals and paused sequences alike — take the free slots, in
    /// what order. The engine enforces the invariants (bounds,
    /// uniqueness, quarantine, free slots, token budget) so policies
    /// stay simple, then seats the survivors. Deferred picks stay
    /// queued (or paused) — admission pressure, never a drop.
    pub(super) fn admit(&mut self, ctx: &mut StepCtx, policy: &mut dyn Policy) {
        let mut picks = policy.select(&self.admission_ctx(ctx));
        dedupe_in_range(&mut picks, self.waiting.len() + self.paused.len());
        // (Cold path — the gate runs only on steps where some backend
        // is unhealthy.)
        if self.health.any_unhealthy() {
            quarantine_gate(&mut picks, &self.health, self.registry.len(), |i| {
                self.candidate(i).0.model
            });
        }
        picks.truncate(self.pool.free_count());
        if let Some(budget) = self.cfg.token_budget {
            // A fresh admission is charged from position 0: a
            // prefix-cache hit would feed less, but the gate runs
            // before the lookup, so it charges the worst case (the
            // invariant stays an upper bound).
            let chunk = self.cfg.prefill_chunk;
            ctx.budget_deferred = budget_gate(budget, self.resident_load(), &mut picks, |i| {
                let (req, pos) = self.candidate(i);
                Load::of(req, pos, chunk)
            });
        }
        self.totals.budget_deferrals += ctx.budget_deferred;
        self.seat(ctx, &picks);
        // Resident-token footprint at its per-step peak
        // (post-admission, pre-retirement) — the quantity
        // [`TokenBudget::max_total_tokens`] bounds, recorded whether or
        // not a budget is set so utilization is always reportable.
        ctx.resident_tokens = self.resident_load().footprint;
    }

    /// Seats the surviving picks, each in a freshly allocated slot.
    fn seat(&mut self, ctx: &mut StepCtx, picks: &[usize]) {
        if picks.is_empty() {
            return;
        }
        let n_waiting = self.waiting.len();
        let mut waiting: Vec<Option<GenRequest>> = self.waiting.drain(..).map(Some).collect();
        let mut paused: Vec<Option<PausedSeq>> = self.paused.drain(..).map(Some).collect();
        for &i in picks {
            let slot = self.pool.alloc().expect("picks bounded by free slots");
            match i.checked_sub(n_waiting) {
                None => {
                    let req = waiting[i].take().expect("picks are unique and in range");
                    self.start(ctx, req, slot);
                }
                Some(p) => {
                    let seq = paused[p].take().expect("picks are unique and in range");
                    self.resume(ctx, seq, slot);
                }
            }
        }
        self.waiting = waiting.into_iter().flatten().collect();
        self.paused = paused.into_iter().flatten().collect();
    }

    /// Seats a fresh arrival. A session resume restores the prior
    /// turn's saved state into the slot instead of starting from zeros;
    /// otherwise a shared-prefix marker (at least one token must remain
    /// to feed) consults the prefix cache — a hit restores the
    /// post-prefix snapshot and prefill starts *after* the prefix, a
    /// miss marks the sequence for harvest. Either restore is one
    /// state-transfer move, priced exactly like a preemption resume.
    fn start(&mut self, ctx: &mut StepCtx, req: GenRequest, slot: usize) {
        let backend = backend_of(&self.registry, req.model);
        let prefix = req.shared_prefix.filter(|&k| k > 0 && k < req.prompt.len());
        let (mut pos, mut harvest) = (0, None);
        if let Some(prior) = self.resume_states.remove(&req.id) {
            backend.restore_state(&prior, &mut self.pool.states_mut()[slot]);
            ctx.sub_state_moves[req.model] += 1;
            self.totals.session_restores += 1;
        } else if let (Some(cache), Some(k)) = (self.prefix.as_mut(), prefix) {
            // The lookup counts its own hit or miss.
            if let Some(snap) = cache.lookup(req.model, &req.prompt[..k]) {
                backend.restore_state(snap, &mut self.pool.states_mut()[slot]);
                ctx.sub_state_moves[req.model] += 1;
                pos = k;
            } else {
                harvest = Some(k);
            }
        }
        ctx.admitted += 1;
        self.totals.admissions += 1;
        self.obs
            .with(|o| o.lifecycle(req.id, self.clock, LifecyclePhase::Admitted));
        if self.events_enabled {
            self.events.push(StepEvent::Started {
                id: req.id,
                step: self.clock,
            });
        }
        self.active.push(ActiveSeq {
            run: Progress::admit(req, pos, harvest, self.clock),
            slot,
        });
    }

    /// Seats a paused sequence: its saved state is restored into the
    /// newly claimed slot and its pause episode ends.
    fn resume(&mut self, ctx: &mut StepCtx, paused: PausedSeq, slot: usize) {
        let model = paused.run.req.model;
        backend_of(&self.registry, model)
            .restore_state(&paused.state, &mut self.pool.states_mut()[slot]);
        let (seq, pause_len) = paused.resume(slot, self.clock);
        ctx.sub_state_moves[model] += 1;
        ctx.resumed += 1;
        self.totals.resumes += 1;
        self.resume_latency.push(pause_len as f64);
        self.obs
            .with(|o| o.lifecycle(seq.run.req.id, self.clock, LifecyclePhase::Resumed));
        self.active.push(seq);
    }

    /// One batched advance per model: sequences are grouped into
    /// per-model sub-batches (each is one shared weight stream on the
    /// accelerator); a prefilling sequence feeds its next prompt chunk,
    /// a decoding one its previous sample. Outputs land per active
    /// sequence, so downstream bookkeeping is multiplexing- and
    /// chunking-agnostic.
    ///
    /// Each backend is one fault domain: its advance runs under a panic
    /// catch, so an error return or a panic fails only that model's
    /// sub-batch this step — every other domain's results land normally
    /// and the engine survives.
    pub(super) fn advance(&mut self, ctx: &mut StepCtx) {
        let (n_models, chunk) = (self.registry.len(), self.cfg.prefill_chunk);
        ctx.total_batch = self.active.len();
        ctx.sub_processed = vec![0; n_models];
        ctx.step_logits = vec![None; ctx.total_batch];
        ctx.faulted = vec![None; n_models];
        for (mid, _, backend) in self.registry.iter() {
            let idxs: Vec<usize> = (0..self.active.len())
                .filter(|&i| self.active[i].run.req.model == mid)
                .collect();
            if idxs.is_empty() {
                continue;
            }
            let items: Vec<(usize, &[u32])> = idxs
                .iter()
                .map(|&i| (self.active[i].slot, self.active[i].feed(chunk)))
                .collect();
            let fed: usize = items.iter().map(|(_, toks)| toks.len()).sum();
            self.obs
                .with(|o| o.spans.begin("sub_batch", ctx.cat, self.clock));
            // `AssertUnwindSafe` is justified the same way the worker
            // pool's is: on unwind the sub-batch's outputs are
            // discarded, its sequences retire as Failed with their
            // slots released, and `SlotPool::alloc` re-zeroes states on
            // reuse — torn state cannot reach a later request.
            let states = self.pool.states_mut();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                backend.advance_batch_indexed(&items, states)
            }));
            self.obs.with(|o| {
                o.spans
                    .end_with([("model", mid as f64), ("tokens", fed as f64)]);
            });
            let results = match outcome {
                Ok(Ok(results)) => results,
                // The error (or panic payload) stops here; the fault is
                // booked per domain in `contain_faults`.
                fault => {
                    ctx.faulted[mid] = Some(fault.is_err());
                    continue;
                }
            };
            ctx.sub_processed[mid] = fed;
            self.processed_per_model[mid] += fed as u64;
            // Worker shards this sub-batch ran on: the pool never uses
            // more shards than sequences (mirrors the backend's
            // contiguous shard plan); 1 on the sequential path.
            self.totals.par_shards += backend.pool_threads().min(idxs.len()) as u64;
            for (&i, (slot, logits)) in idxs.iter().zip(results) {
                debug_assert_eq!(self.active[i].slot, slot);
                ctx.step_logits[i] = Some(logits);
            }
            // A half-open backend whose canary advanced cleanly is
            // readmitted for full service.
            if self.health.on_clean_advance(mid) {
                self.totals.quarantine_recoveries += 1;
                self.obs
                    .with(|o| o.fault_event(self.clock, mid as u32, FaultKind::Recovered));
            }
        }
        self.contain_faults(ctx);
    }

    /// Fault containment: quarantine each faulted backend (with
    /// deterministic exponential backoff) and retire its residents as
    /// Failed — matching `step_logits` entries removed in tandem so the
    /// sample phase stays index-aligned. Paused sequences of the domain
    /// keep their pre-fault (intact) saved states and resume once the
    /// quarantine lifts; tokens generated before the fault ride out in
    /// the completion record.
    fn contain_faults(&mut self, ctx: &mut StepCtx) {
        if !ctx.faulted.iter().any(Option::is_some) {
            return;
        }
        let clock = self.clock;
        for (mid, fault) in ctx.faulted.iter().enumerate() {
            let Some(&was_panic) = fault.as_ref() else {
                continue;
            };
            self.totals.backend_faults += 1;
            // The unwound (or erroring) backend may hold torn internal
            // scratch: have it rebuild before it is ever called again.
            // The recovery hook is fault-isolated too — a panic here
            // stays contained.
            if let Some(backend) = self.registry.get(mid) {
                let _ = catch_unwind(AssertUnwindSafe(|| backend.reset_after_fault()));
            }
            let kind = if was_panic {
                FaultKind::BackendPanic
            } else {
                FaultKind::BackendError
            };
            self.obs.with(|o| o.fault_event(clock, mid as u32, kind));
            if self.resilience.quarantine {
                self.totals.quarantine_entries += 1;
                self.health.on_fault(mid, clock);
                self.obs
                    .with(|o| o.fault_event(clock, mid as u32, FaultKind::Quarantined));
            }
        }
        let mut i = 0;
        while i < self.active.len() {
            if ctx.faulted[self.active[i].run.req.model].is_none() {
                i += 1;
                continue;
            }
            let seq = self.active.remove(i);
            ctx.step_logits.remove(i);
            self.vacate(seq, FinishReason::Failed);
        }
    }

    /// Bookkeeping per sequence, in batch order. The step that consumes
    /// the final prompt chunk (or a decode step) yields the next
    /// sampled token.
    pub(super) fn sample(&mut self, ctx: &mut StepCtx) {
        for (seq, logits) in self.active.iter_mut().zip(&ctx.step_logits) {
            let logits = logits.as_ref().expect("every active sequence stepped");
            // Mirrors `feed` exactly (both derive from `feed_len`),
            // including the clip at a pending harvest boundary.
            let fed = seq.feed_len(self.cfg.prefill_chunk);
            let run = &mut seq.run;
            if run.pos < run.req.prompt.len() {
                ctx.prefill_tokens += fed;
            }
            run.pos += fed;
            if run.pos < run.req.prompt.len() {
                continue;
            }
            let token = run.req.sampler.sample(logits, &mut run.rng);
            if run.first_token_step.is_none() {
                run.first_token_step = Some(self.clock);
                self.obs
                    .with(|o| o.lifecycle(run.req.id, self.clock, LifecyclePhase::FirstToken));
            }
            run.generated.push(token);
            ctx.decode_tokens += 1;
            if self.events_enabled {
                self.events.push(StepEvent::Token {
                    id: run.req.id,
                    token,
                    step: self.clock,
                });
            }
        }
        self.harvest(ctx);
    }

    /// Prefix harvest: a sequence whose prefill just crossed its
    /// cache-miss prefix boundary has, in its slot, *exactly* the state
    /// of a run that prefilled the prefix alone — feeding clips there
    /// ([`ActiveSeq::feed_len`]). Snapshot it into the cache (one state
    /// save on the shared stream, counted with the step's other state
    /// moves) unless a concurrent miss already harvested the same
    /// prefix this wave.
    fn harvest(&mut self, ctx: &mut StepCtx) {
        let Some(cache) = self.prefix.as_mut() else {
            return;
        };
        for seq in &mut self.active {
            let run = &mut seq.run;
            let Some(h) = run.harvest.filter(|&h| run.pos >= h) else {
                continue;
            };
            debug_assert_eq!(run.pos, h, "feeding clips at the harvest boundary");
            run.harvest = None;
            if !cache.contains(run.req.model, &run.req.prompt[..h]) {
                let state = backend_of(&self.registry, run.req.model)
                    .save_state(&self.pool.states()[seq.slot]);
                cache.insert(run.req.model, &run.req.prompt[..h], state);
                ctx.sub_state_moves[run.req.model] += 1;
            }
        }
    }

    /// Retires finished sequences (deadline expiry is handled pre-step).
    /// Session turns park their final state for the next turn — one
    /// state save on the shared stream, counted with the step's other
    /// state moves. The last sampled token rides along: it was never
    /// fed through the model, so the resume feeds it first (see
    /// [`SessionSnapshot`]).
    pub(super) fn retire(&mut self, ctx: &mut StepCtx) {
        for seq in extract(&mut self.active, |s| s.run.finished().is_some()) {
            let run = &seq.run;
            let finish = run.finished().expect("extracted as finished");
            if let Some(sid) = run.req.session {
                let snapshot = SessionSnapshot {
                    state: backend_of(&self.registry, run.req.model)
                        .save_state(&self.pool.states()[seq.slot]),
                    pending_token: *run
                        .generated
                        .last()
                        .expect("finished implies a sampled token"),
                };
                self.sessions.insert(sid, snapshot);
                ctx.parked.push(sid);
                ctx.sub_state_moves[run.req.model] += 1;
                self.totals.session_parks += 1;
            }
            self.vacate(seq, finish);
        }
    }

    /// Closes the step: totals, the trace row for the cost models, the
    /// observability close, and the clock tick.
    ///
    /// In the trace, `batch_per_step` is residency (what URAM bounds);
    /// `processed_per_step` is token-advances (what the weight stream is
    /// shared across, hence what a step costs); `state_moves_per_step`
    /// is pause/resume traffic (each move is one fixed-size state on the
    /// shared memory stream).
    pub(super) fn close(&mut self, ctx: StepCtx) {
        let processed: usize = ctx.sub_processed.iter().sum();
        let state_moves: usize = ctx.sub_state_moves.iter().sum();
        let totals = &mut self.totals;
        totals.prefill_tokens += ctx.prefill_tokens as u64;
        totals.decode_tokens += ctx.decode_tokens as u64;
        for (total, &moves) in totals.state_moves.iter_mut().zip(&ctx.sub_state_moves) {
            *total += moves as u64;
        }
        self.budget_deferred_last_step = ctx.budget_deferred;

        // End the step span with the step's headline numbers, then bring
        // the metrics up to the run tally and fold the step — its
        // record, the requests that left the engine, its session parks —
        // into histograms and the flight recorder. All of it is
        // allocation-free in steady state.
        let tally = Tally {
            steps: self.clock + 1,
            threads: self.worker_threads(),
            totals: &self.totals,
            prefix: self.prefix.as_ref(),
            processed_per_model: &self.processed_per_model,
        };
        self.obs.with(|o| {
            o.spans.end_with([
                ("batch", ctx.total_batch as f64),
                ("processed", processed as f64),
            ]);
            let rec = StepRecord {
                step: self.clock,
                batch: ctx.total_batch as u32,
                processed: processed as u32,
                decode_tokens: ctx.decode_tokens as u32,
                prefill_tokens: ctx.prefill_tokens as u32,
                admitted: ctx.admitted as u32,
                preempted: ctx.preempted as u32,
                resumed: ctx.resumed as u32,
                // Filled by `close_step` from the completion delta.
                cancelled: 0,
                expired: 0,
                queue_depth: self.waiting.len() as u32,
                paused_depth: self.paused.len() as u32,
                free_slots: self.pool.free_count() as u32,
                state_moves: state_moves as u32,
                wall_ns: ctx.wall_start.map_or(0, |t| t.elapsed().as_nanos() as u64),
            };
            o.close_step(
                rec,
                &tally,
                &self.completions[ctx.completions_at_entry..],
                &ctx.parked,
                ctx.budget_deferred,
            );
        });

        let trace = &mut self.trace;
        trace.batch_per_step.push(ctx.total_batch);
        trace.processed_per_step.push(processed);
        trace.sub_processed_per_step.push(ctx.sub_processed);
        trace.state_moves_per_step.push(state_moves);
        trace.sub_state_moves_per_step.push(ctx.sub_state_moves);
        trace.prefill_per_step.push(ctx.prefill_tokens);
        trace.resident_tokens_per_step.push(ctx.resident_tokens);
        trace
            .budget_deferred_per_step
            .push(ctx.budget_deferred as usize);

        // A request that left the engine this step (completed, expired,
        // cancelled, shed or failed) can no longer claim its pending
        // session restore — drop the saved state so nothing leaks.
        if !self.resume_states.is_empty() {
            for c in &self.completions[ctx.completions_at_entry..] {
                self.resume_states.remove(&c.id);
            }
        }
        debug_assert_eq!(
            self.pool.free_count() + self.active.len(),
            self.pool.capacity(),
            "slot conservation violated"
        );
        self.clock += 1;
    }
}
