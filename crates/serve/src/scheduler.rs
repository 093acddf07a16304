//! Admission and preemption policies: *which* requests hold the slots,
//! and in what order.
//!
//! PR 1's scheduler only chose *how many* requests to admit from the
//! front of one FIFO; everything latency-shaped (deadlines, priorities,
//! per-model fairness) then had to be enforced after the fact by
//! eviction. A [`Policy`] instead selects *which* requests to admit by
//! returning indices into the full candidate list — fresh arrivals plus
//! paused (preempted) sequences awaiting resume — so ordering decisions
//! move where they belong, ahead of admission:
//!
//! * [`Fifo`] — arrival order, fill every free slot (PR 1's continuous
//!   batching);
//! * [`StaticBatching`] — arrival order, but only when the engine is
//!   idle (the static baseline every serving paper compares against);
//! * [`Edf`] — earliest absolute deadline first; requests whose deadline
//!   is provably unmeetable are evicted *before* admission
//!   ([`Policy::evicts_doomed`]) so they never burn a slot;
//! * [`PriorityClasses`] — strict [`crate::request::Priority`] classes,
//!   FIFO within a class;
//! * [`WeightedFair`] — weighted fair queueing across [`ModelId`]s
//!   sharing one slot pool: long-run slot shares converge to the
//!   configured weights while any backlogged model can always make
//!   progress.
//!
//! Policies may also *preempt*: [`Policy::preempt`] names resident
//! victims to pause back to the queue so a more urgent candidate can
//! take the slot this step — cheap for Mamba because the entire
//! resident footprint is one fixed-size state
//! ([`crate::backend::PausedState`]). [`Edf::preemptive`] pauses the
//! latest-deadline resident when an earlier-deadline candidate would
//! otherwise be doomed; [`PriorityClasses::preemptive`] lets a higher
//! class always displace a strictly lower one. Both default to
//! non-preemptive, and FIFO/WFQ never preempt.
//!
//! Policies only reorder *when* a request runs. Request *outputs* are
//! policy-independent (each request samples with its own seeded RNG,
//! and pause/resume restores the state bit-for-bit), which is the
//! bit-identity invariant the engine's equivalence tests pin.

use crate::error::ServeError;
use crate::registry::ModelId;
use crate::request::{GenRequest, Priority, RequestId};

/// Snapshot of one admission candidate or resident sequence — the
/// scheduling-relevant keys of a request plus how much work it still
/// owes. Policies rank candidates ([`AdmissionCtx::candidate`]) and
/// pick preemption victims ([`AdmissionCtx::residents`]) on these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqView {
    /// The request's id (ties break on it).
    pub id: RequestId,
    /// The registered model serving the request.
    pub model: ModelId,
    /// The request's strict priority class.
    pub priority: Priority,
    /// Step the request arrived.
    pub arrival_step: u64,
    /// Absolute deadline step, if the request carries a budget.
    pub absolute_deadline: Option<u64>,
    /// Fewest further engine steps to completion from the sequence's
    /// current progress ([`GenRequest::min_steps_remaining`]) — the
    /// slack math preemption decisions run on.
    pub remaining_steps: u64,
}

impl SeqView {
    /// Builds a view of `req` owing `remaining_steps` more steps.
    pub fn new(req: &GenRequest, remaining_steps: u64) -> Self {
        SeqView {
            id: req.id,
            model: req.model,
            priority: req.priority,
            arrival_step: req.arrival_step,
            absolute_deadline: req.absolute_deadline(),
            remaining_steps,
        }
    }

    /// Deadline key for EDF-style ordering (`None` sorts last).
    fn deadline_key(&self) -> u64 {
        self.absolute_deadline.unwrap_or(u64::MAX)
    }
}

/// What a policy sees when the engine asks it to admit: the entire
/// waiting queue in arrival order, the paused sequences awaiting
/// resume, the resident sequences (preemption victims), plus the engine
/// state a selection rule can key on.
#[derive(Debug)]
pub struct AdmissionCtx<'a> {
    /// Arrived, unadmitted requests in arrival order.
    pub waiting: &'a [GenRequest],
    /// Preempted sequences awaiting a slot, oldest pause first. They
    /// compete for slots alongside `waiting` as admission candidates
    /// with indices `waiting.len()..` (see [`AdmissionCtx::candidate`]).
    pub paused: &'a [SeqView],
    /// Resident sequences, in batch order — the only legal preemption
    /// victims ([`Policy::preempt`] returns indices into this slice).
    pub residents: &'a [SeqView],
    /// Current engine step.
    pub clock: u64,
    /// Free slots this step (an upper bound on admissions).
    pub free_slots: usize,
    /// Resident sequences.
    pub active: usize,
    /// Resident sequences per registered model ([`ModelId`]-indexed).
    pub active_per_model: &'a [usize],
    /// The engine's prefill-chunk budget (prompt tokens one sequence
    /// may consume per step) — feasibility math depends on it.
    pub prefill_chunk: usize,
    /// Per-model quarantine mask, indexed by model id (`true` = the
    /// model is quarantined after a backend fault and accepts no
    /// admissions this step). Advisory: the engine enforces the gate
    /// regardless, so a policy ignoring this stays correct — a
    /// quarantine-aware policy can use it to spend its picks on
    /// admittable work instead. Half-open (canary-probing) models read
    /// `false` here so policies still offer them candidates.
    pub quarantined: &'a [bool],
}

impl AdmissionCtx<'_> {
    /// Number of admission candidates: waiting requests followed by
    /// paused sequences.
    pub fn n_candidates(&self) -> usize {
        self.waiting.len() + self.paused.len()
    }

    /// The `i`-th admission candidate: indices `0..waiting.len()` are
    /// fresh arrivals, the rest are paused sequences (their views carry
    /// the *remaining* work, so deadline-slack math is progress-aware).
    /// `None` when out of range.
    pub fn candidate(&self, i: usize) -> Option<SeqView> {
        if let Some(r) = self.waiting.get(i) {
            Some(SeqView::new(r, r.min_steps_to_complete(self.prefill_chunk)))
        } else {
            self.paused.get(i - self.waiting.len()).copied()
        }
    }

    /// Candidate indices ordered by an EDF/priority-style key over the
    /// candidate views — the shared skeleton of the ordering policies.
    fn candidates_ordered_by<K: Ord>(&self, key: impl Fn(&SeqView) -> K) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.n_candidates()).collect();
        order.sort_by_key(|&i| key(&self.candidate(i).expect("index in range")));
        order
    }
}

/// An admission (and optionally preemption) policy: decides which
/// candidates take the free slots each step, and which residents to
/// pause for more urgent work.
///
/// # Example
///
/// A complete shortest-job-first policy, run on a live engine:
///
/// ```
/// use lightmamba_model::{MambaConfig, MambaModel};
/// use lightmamba_serve::engine::{EngineConfig, ServeEngine};
/// use lightmamba_serve::request::GenRequest;
/// use lightmamba_serve::scheduler::{AdmissionCtx, Policy};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// struct ShortestFirst;
///
/// impl Policy for ShortestFirst {
///     fn select(&mut self, ctx: &AdmissionCtx<'_>) -> Vec<usize> {
///         let mut order: Vec<usize> = (0..ctx.n_candidates()).collect();
///         order.sort_by_key(|&i| {
///             let c = ctx.candidate(i).expect("index in range");
///             (c.remaining_steps, c.id)
///         });
///         order.truncate(ctx.free_slots);
///         order
///     }
///     fn name(&self) -> &'static str {
///         "sjf"
///     }
/// }
///
/// # fn main() -> Result<(), lightmamba_serve::ServeError> {
/// let model = MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(1))?;
/// let mut engine = ServeEngine::new(
///     &model,
///     EngineConfig { slots: 1, max_steps: 10_000, prefill_chunk: 1, threads: 1, ..Default::default() },
/// )?;
/// // The long job arrives first; shortest-job-first runs it last.
/// engine.submit(vec![
///     GenRequest::greedy(0, vec![1, 2], 20),
///     GenRequest::greedy(1, vec![3], 2),
/// ])?;
/// let report = engine.run(&mut ShortestFirst)?;
/// assert_eq!(report.policy, "sjf");
/// assert_eq!(report.completed, 2);
/// let first_done = engine.completions().first().expect("two completions");
/// assert_eq!(first_done.id, 1, "the short request finishes first");
/// # Ok(())
/// # }
/// ```
///
/// Policies are `Send` so a boxed policy can drive an engine on a
/// dedicated serving thread (the streaming frontend,
/// [`crate::frontend`], moves one there). They need not be `Sync`:
/// the engine serializes all policy calls.
pub trait Policy: Send {
    /// Indices of the admission candidates ([`AdmissionCtx::candidate`]:
    /// waiting requests first, then paused sequences) to grant slots
    /// this step, in admission order. Picking a paused candidate
    /// *resumes* it (its saved state is restored into the new slot).
    /// The engine ignores out-of-range and duplicate indices and
    /// truncates to `ctx.free_slots`, so policies may over-select.
    fn select(&mut self, ctx: &AdmissionCtx<'_>) -> Vec<usize>;

    /// Policy name for reports. Doubles as the span *category* on the
    /// engine's per-step observability spans
    /// ([`crate::observe::EngineObs`]), so Chrome-trace consumers can
    /// filter a run by the policy that drove it.
    fn name(&self) -> &'static str;

    /// Indices into `ctx.residents` to preempt this step: each victim's
    /// fixed-size state is saved, its slot is freed before admission
    /// runs, and the sequence re-enters the candidate list as paused —
    /// to be resumed later bit-identically. The engine ignores
    /// out-of-range and duplicate indices. The default never preempts.
    fn preempt(&mut self, _ctx: &AdmissionCtx<'_>) -> Vec<usize> {
        Vec::new()
    }

    /// Whether the engine should evict waiting or paused requests whose
    /// deadline is provably unmeetable *before* admission (see
    /// [`GenRequest::min_steps_remaining`]). Deadline-aware policies
    /// return `true` so doomed requests never occupy a slot; FIFO keeps
    /// the PR 1 behavior of discovering the miss at expiry.
    fn evicts_doomed(&self) -> bool {
        false
    }
}

/// Every name [`policy_by_name`] accepts — the CLI policy vocabulary
/// (benches and demos validate flags against this, so the name list
/// lives in exactly one place).
pub const POLICY_NAMES: [&str; 7] = [
    "fifo",
    "static",
    "edf",
    "edf-preempt",
    "priority",
    "priority-preempt",
    "wfq",
];

/// Constructs a policy from its CLI name. `"wfq"` gets equal weights —
/// build [`WeightedFair::new`] directly for custom weights.
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] for an unknown name; the
/// message lists every name in [`POLICY_NAMES`], so CLI callers can
/// surface it verbatim.
pub fn policy_by_name(name: &str) -> Result<Box<dyn Policy>, ServeError> {
    match name {
        "fifo" => Ok(Box::new(Fifo)),
        "static" => Ok(Box::new(StaticBatching)),
        "edf" => Ok(Box::new(Edf::default())),
        "edf-preempt" => Ok(Box::new(Edf::preemptive())),
        "priority" => Ok(Box::new(PriorityClasses::default())),
        "priority-preempt" => Ok(Box::new(PriorityClasses::preemptive())),
        "wfq" => Ok(Box::new(WeightedFair::equal())),
        _ => Err(ServeError::InvalidConfig(format!(
            "unknown policy {name:?}; valid names: {}",
            POLICY_NAMES.join(", ")
        ))),
    }
}

/// Token-level admission caps layered *under* every [`Policy`] —
/// the TGI-style `max_batch_prefill_tokens` / `max_batch_total_tokens`
/// knobs. The policy still ranks candidates; the engine then walks the
/// picks in policy order and defers (keeps queued, never drops) any
/// pick that would push either running total past its cap:
///
/// - `max_prefill_tokens_per_step` bounds the prompt tokens *fed* in a
///   single batched step: the sum over prefilling residents of their
///   next chunk plus each admitted pick's first chunk.
/// - `max_total_tokens` bounds the resident footprint: the sum over
///   everything holding a slot of `prompt.len() + max_new_tokens`
///   (the worst-case tokens a sequence processes before retiring).
///
/// Liveness valve: when nothing is resident the engine admits the
/// policy's first pick even if it alone exceeds a cap — an oversized
/// request runs solo instead of starving, so every queued request
/// eventually completes. Deferred picks are counted in
/// [`crate::metrics::ServeReport::budget_deferrals`] and feed the shed
/// hint ([`crate::request::Completion::retry_after_steps`]).
///
/// Construct with [`TokenBudget::new`] (validates both caps are
/// non-zero) or calibrate from the accelerator cost model with
/// [`crate::accel_cost::calibrate_token_budget`], then set
/// [`crate::engine::EngineConfig::token_budget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenBudget {
    /// Cap on prompt tokens advanced (fed) per engine step.
    pub max_prefill_tokens_per_step: usize,
    /// Cap on the summed worst-case footprint
    /// (`prompt.len() + max_new_tokens`) of all slot-holding sequences.
    pub max_total_tokens: usize,
}

impl TokenBudget {
    /// Builds a budget, rejecting zero caps (a zero cap would defer
    /// every admission forever outside the liveness valve).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when either cap is 0.
    pub fn new(
        max_prefill_tokens_per_step: usize,
        max_total_tokens: usize,
    ) -> Result<Self, ServeError> {
        if max_prefill_tokens_per_step == 0 {
            return Err(ServeError::InvalidConfig(
                "token budget: max_prefill_tokens_per_step must be > 0".into(),
            ));
        }
        if max_total_tokens == 0 {
            return Err(ServeError::InvalidConfig(
                "token budget: max_total_tokens must be > 0".into(),
            ));
        }
        Ok(Self {
            max_prefill_tokens_per_step,
            max_total_tokens,
        })
    }
}

/// Arrival-order admission into every free slot — token-level
/// continuous batching over one FIFO (the PR 1 default). Candidate
/// order is already arrival order (waiting requests in arrival order,
/// then paused sequences — which FIFO itself never creates).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl Policy for Fifo {
    fn select(&mut self, ctx: &AdmissionCtx<'_>) -> Vec<usize> {
        (0..ctx.n_candidates().min(ctx.free_slots)).collect()
    }

    fn name(&self) -> &'static str {
        "fifo"
    }
}

/// Static batching: admit a full batch in arrival order only when the
/// engine is idle, so short sequences idle their slots while the
/// longest batch member finishes.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticBatching;

impl Policy for StaticBatching {
    fn select(&mut self, ctx: &AdmissionCtx<'_>) -> Vec<usize> {
        if ctx.active == 0 {
            (0..ctx.n_candidates().min(ctx.free_slots)).collect()
        } else {
            Vec::new()
        }
    }

    fn name(&self) -> &'static str {
        "static"
    }
}

/// Earliest-deadline-first admission. Candidates without a deadline
/// sort last (deadline = ∞); ties break on id, so deadline-free traffic
/// degenerates to FIFO. Pairs with pre-admission doomed eviction: a
/// request that can no longer meet its deadline even if admitted now is
/// dropped instead of wasting slot steps on a guaranteed miss.
///
/// The [`Edf::preemptive`] variant additionally rescues candidates on
/// their *last feasible step*: when an earlier-deadline candidate would
/// be doomed by waiting one more step and no slot is free, the resident
/// with the latest deadline (no deadline = latest of all) is paused for
/// it — never a resident at least as urgent as the one being rescued.
#[derive(Debug, Clone, Copy, Default)]
pub struct Edf {
    /// Whether to pause latest-deadline residents for earlier-deadline
    /// candidates that would otherwise be doomed.
    pub preemptive: bool,
}

impl Edf {
    /// The preemptive variant (`"edf-preempt"` on CLIs).
    pub fn preemptive() -> Self {
        Edf { preemptive: true }
    }
}

impl Policy for Edf {
    fn select(&mut self, ctx: &AdmissionCtx<'_>) -> Vec<usize> {
        let mut order = ctx.candidates_ordered_by(|c| (c.deadline_key(), c.id));
        order.truncate(ctx.free_slots);
        order
    }

    fn name(&self) -> &'static str {
        if self.preemptive {
            "edf-preempt"
        } else {
            "edf"
        }
    }

    fn preempt(&mut self, ctx: &AdmissionCtx<'_>) -> Vec<usize> {
        if !self.preemptive || ctx.residents.is_empty() {
            return Vec::new();
        }
        // A candidate on its last feasible step (zero slack) is doomed
        // unless admitted *now*. Admission grants freed slots in EDF
        // order, so rescuing the candidate at position `p` requires
        // slots for it AND everything ahead of it: `p + 1` in total —
        // pausing one victim per urgent candidate is not enough when
        // earlier-deadline (but slack-carrying) candidates would absorb
        // the freed slots first.
        let order = ctx.candidates_ordered_by(|c| (c.deadline_key(), c.id));
        // Victims latest-deadline-first (no deadline pauses first,
        // youngest breaks ties); a victim must hold a strictly later
        // deadline than the candidate it is paused for, so preemption
        // never sacrifices an equally or more urgent sequence.
        let mut victims: Vec<usize> = (0..ctx.residents.len()).collect();
        victims.sort_by_key(|&i| {
            let r = &ctx.residents[i];
            std::cmp::Reverse((r.deadline_key(), r.id))
        });
        let mut picks = Vec::new();
        let mut vi = 0;
        let mut available = ctx.free_slots;
        for (p, c) in order.iter().filter_map(|&i| ctx.candidate(i)).enumerate() {
            let urgent = c
                .absolute_deadline
                .is_some_and(|abs| ctx.clock.saturating_add(c.remaining_steps) >= abs);
            if !urgent {
                continue;
            }
            // Pause victims until this candidate's whole EDF prefix is
            // covered; commit only a complete rescue (a partial one
            // would hand the freed slots to the slack-carrying prefix
            // and still lose the deadline — pure churn).
            let mut tentative = Vec::new();
            while available + tentative.len() < p + 1 {
                let Some(&v) = victims.get(vi) else { break };
                if ctx.residents[v].deadline_key() > c.deadline_key() {
                    tentative.push(v);
                    vi += 1;
                } else {
                    break;
                }
            }
            if available + tentative.len() > p {
                available += tentative.len();
                picks.extend(tentative);
            } else {
                // Victims are sorted by urgency and deeper candidates
                // only need more of them: nothing further is rescuable.
                break;
            }
        }
        picks
    }

    fn evicts_doomed(&self) -> bool {
        true
    }
}

/// Strict priority classes: every [`crate::request::Priority::Interactive`]
/// request is admitted before any `Standard` one, and so on; FIFO
/// within a class.
///
/// The default is non-preemptive — a resident low-class sequence keeps
/// its slot. Under [`PriorityClasses::preemptive`] the classes are
/// strict in residency too: a candidate that cannot get a slot pauses a
/// resident of a *strictly lower* class (lowest class first, youngest
/// within a class), so interactive traffic never waits behind batch
/// work. Equal classes never preempt each other, which bounds churn.
#[derive(Debug, Clone, Copy, Default)]
pub struct PriorityClasses {
    /// Whether higher classes displace strictly lower-class residents.
    pub preemptive: bool,
}

impl PriorityClasses {
    /// The preemptive variant (`"priority-preempt"` on CLIs).
    pub fn preemptive() -> Self {
        PriorityClasses { preemptive: true }
    }
}

impl Policy for PriorityClasses {
    fn select(&mut self, ctx: &AdmissionCtx<'_>) -> Vec<usize> {
        let mut order = ctx.candidates_ordered_by(|c| (c.priority, c.id));
        order.truncate(ctx.free_slots);
        order
    }

    fn name(&self) -> &'static str {
        if self.preemptive {
            "priority-preempt"
        } else {
            "priority"
        }
    }

    fn preempt(&mut self, ctx: &AdmissionCtx<'_>) -> Vec<usize> {
        if !self.preemptive || ctx.residents.is_empty() {
            return Vec::new();
        }
        // Candidates that do not fit in the free slots, most urgent
        // first, each displacing the least urgent resident available —
        // provided that resident's class is strictly lower.
        let order = ctx.candidates_ordered_by(|c| (c.priority, c.id));
        let mut victims: Vec<usize> = (0..ctx.residents.len()).collect();
        victims.sort_by_key(|&i| {
            let r = &ctx.residents[i];
            std::cmp::Reverse((r.priority, r.id))
        });
        let mut picks = Vec::new();
        let mut vi = 0;
        for i in order.into_iter().skip(ctx.free_slots) {
            let Some(u) = ctx.candidate(i) else { break };
            let Some(&v) = victims.get(vi) else { break };
            if ctx.residents[v].priority > u.priority {
                picks.push(v);
                vi += 1;
            } else {
                break;
            }
        }
        picks
    }
}

/// Weighted fair queueing across models sharing one slot pool.
///
/// Each model accrues *service* — one unit per resident sequence per
/// step (slot-steps, the resource the pool actually rations). Free
/// slots go to the backlogged model with the smallest
/// `service / weight`, FIFO within a model, so long-run slot shares of
/// saturated models converge to `weight_m / Σ weights` while an idle
/// model's unused share flows to the others (work-conserving).
#[derive(Debug, Clone)]
pub struct WeightedFair {
    weights: Vec<f64>,
    service: Vec<f64>,
}

impl WeightedFair {
    /// One weight per [`ModelId`] in registry order. Models beyond the
    /// configured weights (or an empty list) weigh `1.0`.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive or non-finite weight — an unserviceable
    /// configuration.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "WFQ weights must be positive and finite: {weights:?}"
        );
        WeightedFair {
            weights,
            service: Vec::new(),
        }
    }

    /// Equal weights for every model — plain fair queueing.
    pub fn equal() -> Self {
        WeightedFair::new(Vec::new())
    }

    fn weight(&self, model: ModelId) -> f64 {
        self.weights.get(model).copied().unwrap_or(1.0)
    }

    /// Service accrued by `model` so far, in slot-steps.
    pub fn service(&self, model: ModelId) -> f64 {
        self.service.get(model).copied().unwrap_or(0.0)
    }
}

impl Policy for WeightedFair {
    fn select(&mut self, ctx: &AdmissionCtx<'_>) -> Vec<usize> {
        // Charge occupancy: every resident sequence consumed one
        // slot-step since the last admission round.
        if self.service.len() < ctx.active_per_model.len() {
            self.service.resize(ctx.active_per_model.len(), 0.0);
        }
        for (m, &a) in ctx.active_per_model.iter().enumerate() {
            self.service[m] += a as f64;
        }

        // Oldest-first candidate indices per model (waiting and paused
        // alike — a paused sequence competes for its slot back through
        // the same fairness accounting; while paused it accrues no
        // service, so preemption churn cannot skew the shares).
        let n_models = self.service.len().max(
            (0..ctx.n_candidates())
                .filter_map(|i| ctx.candidate(i))
                .map(|c| c.model + 1)
                .max()
                .unwrap_or(0),
        );
        if self.service.len() < n_models {
            self.service.resize(n_models, 0.0);
        }
        let mut queues: Vec<std::collections::VecDeque<usize>> =
            vec![std::collections::VecDeque::new(); n_models];
        for i in 0..ctx.n_candidates() {
            let c = ctx.candidate(i).expect("index in range");
            queues[c.model].push_back(i);
        }

        // Hand each free slot to the backlogged model with the least
        // normalized service, provisionally charging one slot-step per
        // grant so one round spreads slots instead of dumping them all
        // on the currently least-served model.
        let mut virt = self.service.clone();
        let mut picks = Vec::new();
        for _ in 0..ctx.free_slots {
            let Some(best) = (0..n_models)
                .filter(|&m| !queues[m].is_empty())
                .min_by(|&a, &b| {
                    let ka = virt[a] / self.weight(a);
                    let kb = virt[b] / self.weight(b);
                    ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
                })
            else {
                break;
            };
            picks.push(queues[best].pop_front().expect("model is backlogged"));
            virt[best] += 1.0;
        }
        picks
    }

    fn name(&self) -> &'static str {
        "wfq"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Priority;

    fn req(id: u64) -> GenRequest {
        GenRequest::greedy(id, vec![1, 2], 4)
    }

    fn ctx<'a>(
        waiting: &'a [GenRequest],
        free_slots: usize,
        active: usize,
        active_per_model: &'a [usize],
    ) -> AdmissionCtx<'a> {
        AdmissionCtx {
            waiting,
            paused: &[],
            residents: &[],
            clock: 0,
            free_slots,
            active,
            active_per_model,
            prefill_chunk: 1,
            quarantined: &[],
        }
    }

    #[test]
    fn fifo_fills_free_slots_in_arrival_order() {
        let waiting: Vec<GenRequest> = (0..5).map(req).collect();
        assert_eq!(Fifo.select(&ctx(&waiting, 3, 2, &[2])), vec![0, 1, 2]);
        assert_eq!(Fifo.select(&ctx(&waiting, 8, 0, &[0])), vec![0, 1, 2, 3, 4]);
        assert_eq!(Fifo.select(&ctx(&waiting, 0, 4, &[4])), Vec::<usize>::new());
    }

    #[test]
    fn static_waits_for_drain() {
        let waiting: Vec<GenRequest> = (0..4).map(req).collect();
        assert!(StaticBatching.select(&ctx(&waiting, 4, 1, &[1])).is_empty());
        assert_eq!(
            StaticBatching.select(&ctx(&waiting, 4, 0, &[0])),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn edf_orders_by_absolute_deadline_then_id() {
        let mut waiting: Vec<GenRequest> = (0..4).map(req).collect();
        waiting[0].deadline_steps = Some(50); // abs 50
        waiting[1].deadline_steps = None; // ∞
        waiting[2].arrival_step = 5;
        waiting[2].deadline_steps = Some(10); // abs 15
        waiting[3].deadline_steps = Some(50); // abs 50, later id
        assert_eq!(
            Edf::default().select(&ctx(&waiting, 4, 0, &[0])),
            vec![2, 0, 3, 1]
        );
        assert_eq!(
            Edf::default().select(&ctx(&waiting, 2, 0, &[0])),
            vec![2, 0]
        );
        assert!(Edf::default().evicts_doomed());
    }

    #[test]
    fn priority_is_strict_and_fifo_within_class() {
        let mut waiting: Vec<GenRequest> = (0..5).map(req).collect();
        waiting[0].priority = Priority::Batch;
        waiting[1].priority = Priority::Standard;
        waiting[2].priority = Priority::Interactive;
        waiting[3].priority = Priority::Interactive;
        waiting[4].priority = Priority::Standard;
        assert_eq!(
            PriorityClasses::default().select(&ctx(&waiting, 5, 0, &[0])),
            vec![2, 3, 1, 4, 0]
        );
    }

    fn view(id: u64, deadline: Option<u64>, remaining: u64) -> SeqView {
        SeqView {
            id,
            model: 0,
            priority: Priority::Standard,
            arrival_step: 0,
            absolute_deadline: deadline,
            remaining_steps: remaining,
        }
    }

    #[test]
    fn paused_sequences_compete_as_candidates() {
        // One waiting request (index 0, abs deadline 50) and two paused
        // ones (indices 1 and 2): EDF resumes the tightest deadline
        // first, regardless of which side of the split it sits on.
        let mut waiting: Vec<GenRequest> = vec![req(0)];
        waiting[0].deadline_steps = Some(50);
        let paused = [view(1, Some(20), 3), view(2, None, 4)];
        let c = AdmissionCtx {
            waiting: &waiting,
            paused: &paused,
            residents: &[],
            clock: 0,
            free_slots: 2,
            active: 0,
            active_per_model: &[0],
            prefill_chunk: 1,
            quarantined: &[],
        };
        assert_eq!(c.n_candidates(), 3);
        assert_eq!(c.candidate(1).unwrap().id, 1);
        assert_eq!(Edf::default().select(&c), vec![1, 0]);
    }

    #[test]
    fn preemptive_edf_pauses_the_latest_deadline_victim_for_a_doomed_arrival() {
        // Clock 10, no free slots. The waiting request needs 5 steps
        // with an absolute deadline of 15: zero slack — doomed unless
        // admitted this step. Residents: one deadline-free hog, one
        // with a later deadline, one *earlier* than the arrival's.
        let mut waiting: Vec<GenRequest> = vec![req(9)];
        waiting[0].deadline_steps = Some(15); // abs 15, min 5 steps (prompt 2 + gen 4 - 1)
        let residents = [
            view(0, None, 40),
            view(1, Some(60), 10),
            view(2, Some(12), 2),
        ];
        let c = AdmissionCtx {
            waiting: &waiting,
            paused: &[],
            residents: &residents,
            clock: 10,
            free_slots: 0,
            active: 3,
            active_per_model: &[3],
            prefill_chunk: 1,
            quarantined: &[],
        };
        // Non-preemptive EDF never pauses anyone.
        assert!(Edf::default().preempt(&c).is_empty());
        // Preemptive EDF pauses the deadline-free hog (latest deadline).
        assert_eq!(Edf::preemptive().preempt(&c), vec![0]);
        // With a free slot the arrival fits without preemption.
        let free = AdmissionCtx { free_slots: 1, ..c };
        assert!(Edf::preemptive().preempt(&free).is_empty());
    }

    #[test]
    fn preemptive_edf_covers_the_whole_edf_prefix_of_a_doomed_candidate() {
        // Waiting A (abs 20, 5 steps remaining at clock 10: has slack)
        // sits ahead of B (abs 22, 12 steps remaining: zero slack) in
        // EDF order. Freed slots go to A first, so rescuing B needs TWO
        // victims — one for A's position, one for B's.
        let mut waiting: Vec<GenRequest> = vec![req(8), GenRequest::greedy(9, vec![1, 2], 11)];
        waiting[0].deadline_steps = Some(20); // min 5 steps, slack 5
        waiting[1].deadline_steps = Some(22); // min 12 steps, slack 0
        let residents = [view(0, None, 40), view(1, None, 50)];
        let c = AdmissionCtx {
            waiting: &waiting,
            paused: &[],
            residents: &residents,
            clock: 10,
            free_slots: 0,
            active: 2,
            active_per_model: &[2],
            prefill_chunk: 1,
            quarantined: &[],
        };
        let mut picks = Edf::preemptive().preempt(&c);
        picks.sort_unstable();
        assert_eq!(picks, vec![0, 1], "both hogs must be paused");

        // With only one qualifying victim the rescue cannot complete
        // (A would absorb the lone freed slot and B still misses):
        // pausing anyone would be pure churn, so nobody is paused.
        let one = [view(0, None, 40)];
        let c1 = AdmissionCtx {
            waiting: &waiting,
            paused: &[],
            residents: &one,
            clock: 10,
            free_slots: 0,
            active: 1,
            active_per_model: &[1],
            prefill_chunk: 1,
            quarantined: &[],
        };
        assert!(Edf::preemptive().preempt(&c1).is_empty());
    }

    #[test]
    fn preemptive_edf_never_sacrifices_a_more_urgent_resident() {
        // Every resident's deadline is at or before the arrival's: no
        // victim qualifies, the arrival is simply lost.
        let mut waiting: Vec<GenRequest> = vec![req(9)];
        waiting[0].deadline_steps = Some(15);
        let residents = [view(0, Some(15), 3), view(1, Some(12), 2)];
        let c = AdmissionCtx {
            waiting: &waiting,
            paused: &[],
            residents: &residents,
            clock: 10,
            free_slots: 0,
            active: 2,
            active_per_model: &[2],
            prefill_chunk: 1,
            quarantined: &[],
        };
        assert!(Edf::preemptive().preempt(&c).is_empty());
    }

    #[test]
    fn preemptive_priority_displaces_strictly_lower_classes_only() {
        let mut waiting: Vec<GenRequest> = vec![req(9), req(10)];
        waiting[0].priority = Priority::Interactive;
        waiting[1].priority = Priority::Standard;
        let mut residents = [view(0, None, 10), view(1, None, 10), view(2, None, 10)];
        residents[0].priority = Priority::Batch;
        residents[1].priority = Priority::Standard;
        residents[2].priority = Priority::Batch;
        let c = AdmissionCtx {
            waiting: &waiting,
            paused: &[],
            residents: &residents,
            clock: 0,
            free_slots: 0,
            active: 3,
            active_per_model: &[3],
            prefill_chunk: 1,
            quarantined: &[],
        };
        assert!(PriorityClasses::default().preempt(&c).is_empty());
        // Interactive displaces the youngest Batch resident (2), then
        // Standard displaces the remaining Batch one (0). The Standard
        // resident (1) is never paused for the Standard arrival —
        // classes are strict, equals never churn each other.
        assert_eq!(PriorityClasses::preemptive().preempt(&c), vec![2, 0]);
    }

    #[test]
    fn wfq_grants_idle_capacity_to_the_backlogged_model() {
        // Only model 1 has waiting work: it gets every slot regardless
        // of weights (work conservation).
        let mut waiting: Vec<GenRequest> = (0..3).map(req).collect();
        for r in &mut waiting {
            r.model = 1;
        }
        let mut wfq = WeightedFair::new(vec![10.0, 1.0]);
        assert_eq!(wfq.select(&ctx(&waiting, 2, 0, &[0, 0])), vec![0, 1]);
    }

    #[test]
    fn wfq_splits_a_round_by_weight() {
        // Both models backlogged, equal starting service: a 2:1 weight
        // over 3 slots grants 2 to model 0 and 1 to model 1.
        let mut waiting: Vec<GenRequest> = (0..6).map(req).collect();
        for (i, r) in waiting.iter_mut().enumerate() {
            r.model = i % 2;
        }
        let mut wfq = WeightedFair::new(vec![2.0, 1.0]);
        let picks = wfq.select(&ctx(&waiting, 3, 0, &[0, 0]));
        let m0 = picks.iter().filter(|&&i| waiting[i].model == 0).count();
        assert_eq!((m0, picks.len() - m0), (2, 1));
    }

    #[test]
    fn wfq_catches_up_an_underserved_model() {
        // Model 1 has been starved (service imbalance): it is granted
        // first even at a lower weight.
        let mut waiting: Vec<GenRequest> = (0..2).map(req).collect();
        waiting[0].model = 0;
        waiting[1].model = 1;
        let mut wfq = WeightedFair::new(vec![1.0, 1.0]);
        // Accrue service for model 0 only: 10 steps of one resident seq.
        for _ in 0..10 {
            wfq.select(&ctx(&[], 0, 1, &[1, 0]));
        }
        let picks = wfq.select(&ctx(&waiting, 1, 0, &[0, 0]));
        assert_eq!(picks, vec![1]);
    }

    #[test]
    #[should_panic(expected = "WFQ weights must be positive")]
    fn wfq_rejects_non_positive_weights() {
        WeightedFair::new(vec![1.0, 0.0]);
    }

    #[test]
    fn every_listed_name_constructs_its_policy() {
        for name in POLICY_NAMES {
            let policy = policy_by_name(name).expect("listed name must construct");
            assert_eq!(policy.name(), name);
        }
        let msg = match policy_by_name("round-robin") {
            Ok(_) => panic!("unknown name must error"),
            Err(e) => e.to_string(),
        };
        for name in POLICY_NAMES {
            assert!(msg.contains(name), "error must list {name:?}: {msg}");
        }
    }
}
