//! Generation requests and their lifecycle records.

use lightmamba_model::sampler::Sampler;

use crate::error::ServeError;
use crate::registry::ModelId;

/// Unique id of a request within one engine run.
pub type RequestId = u64;

/// Strict priority class of a request. Lower classes are more urgent:
/// [`Priority::Interactive`] beats [`Priority::Standard`] which beats
/// [`Priority::Batch`], both in admission order and — under the
/// *preemptive* priority policy
/// ([`crate::scheduler::PriorityClasses::preemptive`]) — in residency:
/// a higher-class arrival may pause a strictly lower-class resident
/// sequence and take its slot. The default policies are non-preemptive
/// (classes affect admission order only), in which case starvation of
/// low classes is bounded by request service times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Latency-critical traffic (chat turns, autocompletions).
    Interactive,
    /// The default class.
    #[default]
    Standard,
    /// Throughput traffic that tolerates queueing (offline
    /// summarization, evals).
    Batch,
}

impl Priority {
    /// Every class, most urgent first (report order).
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Standard, Priority::Batch];

    /// Class name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Standard => "standard",
            Priority::Batch => "batch",
        }
    }
}

/// A user generation request as admitted by the engine.
#[derive(Debug, Clone)]
pub struct GenRequest {
    /// Unique id (admission ties break on it).
    pub id: RequestId,
    /// Which registered model serves this request (see
    /// [`crate::registry::ModelRegistry`]); 0 is the first-registered
    /// backend, so single-model engines need not set it.
    pub model: ModelId,
    /// Strict priority class (admission order under the priority
    /// policy; ignored by FIFO/EDF/WFQ).
    pub priority: Priority,
    /// Prompt token ids (must be non-empty).
    pub prompt: Vec<u32>,
    /// Number of tokens to generate after the prompt (≥ 1).
    pub max_new_tokens: usize,
    /// Decoding strategy.
    pub sampler: Sampler,
    /// Seed of the request's private sampling RNG. Keeping sampling
    /// per-request makes outputs independent of how the scheduler
    /// interleaves sequences — the property the equivalence tests pin.
    pub seed: u64,
    /// Engine step at which the request arrives.
    pub arrival_step: u64,
    /// Optional latency budget in engine steps from arrival; the engine
    /// evicts requests that exceed it.
    pub deadline_steps: Option<u64>,
    /// Optional stop token ending generation early.
    pub eos_token: Option<u32>,
    /// Optional multi-turn session this request belongs to. On normal
    /// completion (max-tokens or EOS) the engine parks the sequence's
    /// final fixed-size state under this id, and the session's next
    /// turn, submitted with the same id, resumes from it instead of
    /// re-prefilling the whole conversation
    /// ([`crate::engine::ServeEngine::submit`]) — the serving payoff of
    /// Mamba's constant-size state. `None` (the default) opts out.
    pub session: Option<u64>,
    /// Number of leading prompt tokens that form a *shared* prefix (a
    /// system prompt) other requests also carry. When the engine's
    /// prefix cache is on ([`crate::engine::EngineConfig::prefix_cache`])
    /// the post-prefix state is snapshotted once and every later request
    /// with the same prefix restores it — one state-transfer DMA instead
    /// of re-prefilling those tokens. Must be shorter than the prompt
    /// (at least one token must remain to feed); out-of-range markers
    /// are ignored. `None` (the default) opts out; with the cache off
    /// the marker is inert and outputs are bit-identical either way.
    pub shared_prefix: Option<usize>,
}

impl GenRequest {
    /// A greedy-decoded request with no deadline, arriving at step 0.
    pub fn greedy(id: RequestId, prompt: Vec<u32>, max_new_tokens: usize) -> Self {
        GenRequest {
            id,
            model: 0,
            priority: Priority::Standard,
            prompt,
            max_new_tokens,
            sampler: Sampler::Greedy,
            seed: id,
            arrival_step: 0,
            deadline_steps: None,
            eos_token: None,
            session: None,
            shared_prefix: None,
        }
    }

    /// Retargets the request at a registered model.
    pub fn on_model(mut self, model: ModelId) -> Self {
        self.model = model;
        self
    }

    /// Assigns a strict priority class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets a latency budget in engine steps from arrival.
    pub fn with_deadline(mut self, deadline_steps: u64) -> Self {
        self.deadline_steps = Some(deadline_steps);
        self
    }

    /// Tags the request as one turn of a multi-turn session: its final
    /// state will be kept for the session's next turn (see
    /// [`GenRequest::session`]).
    pub fn with_session(mut self, session: u64) -> Self {
        self.session = Some(session);
        self
    }

    /// Marks the first `len` prompt tokens as a shared prefix eligible
    /// for the engine's prefix cache (see [`GenRequest::shared_prefix`]).
    pub fn with_shared_prefix(mut self, len: usize) -> Self {
        self.shared_prefix = Some(len);
        self
    }

    /// Intake validation, shared by [`crate::engine::ServeEngine::submit`]
    /// and the streaming frontend's handle so the engine loop never
    /// meets a rejectable request. `vocab_sizes` is indexed by model id.
    /// A token outside the target model's vocabulary must stop here: fed
    /// to the backend it would surface as a *backend fault* and fail
    /// every co-resident request of that model.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for an empty prompt, a request for
    /// zero new tokens or an out-of-vocabulary prompt token,
    /// [`ServeError::UnknownModel`] for a model id the registry does not
    /// hold.
    pub(crate) fn validate(&self, vocab_sizes: &[usize]) -> Result<(), ServeError> {
        if self.prompt.is_empty() {
            return Err(ServeError::InvalidConfig(format!(
                "request {} has an empty prompt",
                self.id
            )));
        }
        if self.max_new_tokens == 0 {
            return Err(ServeError::InvalidConfig(format!(
                "request {} asks for zero new tokens",
                self.id
            )));
        }
        let Some(&vocab) = vocab_sizes.get(self.model) else {
            return Err(ServeError::UnknownModel(format!(
                "request {} names model id {} but only {} model(s) are registered",
                self.id,
                self.model,
                vocab_sizes.len()
            )));
        };
        if let Some(&bad) = self.prompt.iter().find(|&&t| t as usize >= vocab) {
            return Err(ServeError::InvalidConfig(format!(
                "request {} has prompt token {bad} outside model {}'s vocabulary of {vocab}",
                self.id, self.model
            )));
        }
        Ok(())
    }

    /// Absolute engine step at which the engine evicts this request
    /// (`None` when it carries no deadline). EDF orders the queue by it.
    pub fn absolute_deadline(&self) -> Option<u64> {
        self.deadline_steps
            .map(|d| self.arrival_step.saturating_add(d))
    }

    /// Fewest engine steps from admission to completion, given a
    /// prefill-chunk budget of `prefill_chunk` prompt tokens per step:
    /// `ceil(prompt / chunk)` prefill steps (the last of which samples
    /// the first token) plus one step per remaining token. A request
    /// with a stop token may finish after its first sample, so its
    /// minimum is the prefill alone.
    pub fn min_steps_to_complete(&self, prefill_chunk: usize) -> u64 {
        self.min_steps_remaining(0, 0, prefill_chunk)
    }

    /// [`GenRequest::min_steps_to_complete`] for a sequence with partial
    /// progress — `pos` prompt tokens already consumed and `generated`
    /// tokens already sampled. This is the feasibility math for paused
    /// sequences: a preempted request's deadline slack is judged on the
    /// work it still *owes*, not on its full length.
    pub fn min_steps_remaining(&self, pos: usize, generated: usize, prefill_chunk: usize) -> u64 {
        let chunk = prefill_chunk.max(1);
        let remaining_prompt = self.prompt.len().saturating_sub(pos);
        let min_new = if self.eos_token.is_some() {
            1
        } else {
            self.max_new_tokens.max(1)
        };
        let decode_needed = (min_new as u64).saturating_sub(generated as u64);
        if remaining_prompt > 0 {
            // The step consuming the final prompt chunk also samples
            // the first token, hence the `- 1`.
            (remaining_prompt.div_ceil(chunk) as u64).saturating_add(decode_needed.max(1) - 1)
        } else {
            // Mid-decode: one token per step, at least one more step
            // (an unfinished sequence always owes its next sample).
            decode_needed.max(1)
        }
    }
}

/// Why a request left the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishReason {
    /// Generated `max_new_tokens`.
    MaxTokens,
    /// Produced the request's stop token.
    Eos,
    /// Evicted after exceeding its deadline, or evicted early by a
    /// deadline-aware policy that proved the deadline unmeetable.
    DeadlineExceeded,
    /// Evicted because the client cancelled the request (or its stream
    /// handle was dropped mid-flight). Any tokens already generated are
    /// kept in the completion record, but the request counts as neither
    /// completed nor deadline-evicted, and any work it consumed is
    /// reported as wasted (see
    /// [`crate::metrics::ServeReport::wasted_token_advances`]).
    Cancelled,
    /// Retired because its backend faulted (an error return or a caught
    /// panic) while the request was resident. Tokens generated before
    /// the fault are kept in the completion record; the slot was
    /// reclaimed and its recurrent state discarded (slot states are
    /// re-zeroed on reuse, so torn state cannot leak). The request
    /// counts as neither completed nor deadline-evicted.
    Failed,
    /// Shed at admission by overload protection (the bounded queue) —
    /// the request never held a slot and did no work. [`Completion::retry_after_steps`] carries the engine's
    /// back-off hint.
    Rejected,
}

/// Completion record of one request, timestamped in engine steps.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The request's id.
    pub id: RequestId,
    /// The model that served (or would have served) the request.
    pub model: ModelId,
    /// The request's priority class.
    pub priority: Priority,
    /// Generated tokens (prompt excluded).
    pub tokens: Vec<u32>,
    /// Why generation ended.
    pub finish: FinishReason,
    /// Step the request arrived.
    pub arrival_step: u64,
    /// The request's latency budget, if it carried one (deadline-hit
    /// accounting keys on it).
    pub deadline_steps: Option<u64>,
    /// Step the request was admitted to a slot (`None` when it expired
    /// in the waiting queue without ever being admitted).
    pub admitted_step: Option<u64>,
    /// Step the first generated token appeared (`None` when evicted
    /// during prefill).
    pub first_token_step: Option<u64>,
    /// Step the request left the engine.
    pub finished_step: u64,
    /// Times the request was preempted (paused out of its slot) while
    /// resident.
    pub preemptions: u32,
    /// Engine steps spent paused across all preemption episodes
    /// (admitted but holding no slot). Counted inside
    /// [`Completion::e2e_steps`] — wall time is wall time — but
    /// excluded from TTFT, and reported separately so preemption cost
    /// is visible per request.
    pub paused_steps: u64,
    /// The subset of [`Completion::paused_steps`] accrued before the
    /// first token was sampled — excluded from
    /// [`Completion::ttft_steps`], since paused time is a scheduling
    /// decision, not time the request's first token was being computed.
    pub paused_steps_before_first_token: u64,
    /// For [`FinishReason::Rejected`] completions: the engine's hint
    /// for how many steps the client should wait before resubmitting
    /// (derived from queue pressure at shed time). `None` otherwise.
    pub retry_after_steps: Option<u64>,
}

impl Completion {
    /// Time-to-first-token in engine steps: arrival → first token,
    /// **minus** any steps the request spent paused in between
    /// (preemption before the first token postpones the stamp without
    /// doing first-token work, so counting it would charge scheduling
    /// decisions to model latency). Returns `None` when no token was
    /// produced, or when the stamps are inconsistent — a first-token
    /// step before the arrival, or paused time exceeding the wall time
    /// (both assert in debug builds instead of silently wrapping, the
    /// same audit as the arrival/admission stamps).
    pub fn ttft_steps(&self) -> Option<u64> {
        self.first_token_step.and_then(|t| {
            let wall = t.checked_sub(self.arrival_step);
            debug_assert!(
                wall.is_some(),
                "first_token_step {t} precedes arrival_step {}",
                self.arrival_step
            );
            let d = wall.and_then(|w| w.checked_sub(self.paused_steps_before_first_token));
            debug_assert!(
                d.is_some(),
                "paused_steps_before_first_token {} exceeds wall TTFT of request {}",
                self.paused_steps_before_first_token,
                self.id
            );
            d
        })
    }

    /// Queueing delay in engine steps: arrival → *first* admission
    /// (`None` when the request was never admitted or the admission
    /// stamp precedes the arrival — the latter asserts in debug
    /// builds). A resumed request keeps its original admission stamp:
    /// time spent paused is a service interruption, reported via
    /// [`Completion::paused_steps`], not queueing — so queue-time
    /// percentiles still measure pure admission pressure.
    pub fn queue_steps(&self) -> Option<u64> {
        self.admitted_step.and_then(|a| {
            let d = a.checked_sub(self.arrival_step);
            debug_assert!(
                d.is_some(),
                "admitted_step {a} precedes arrival_step {}",
                self.arrival_step
            );
            d
        })
    }

    /// End-to-end latency in engine steps — wall time from arrival to
    /// exit, paused episodes included (the user waited through them).
    /// Returns `None` when the exit stamp precedes the arrival stamp
    /// (asserts in debug builds instead of silently wrapping, the same
    /// audit as the TTFT and queueing accessors).
    pub fn e2e_steps(&self) -> Option<u64> {
        let d = self.finished_step.checked_sub(self.arrival_step);
        debug_assert!(
            d.is_some(),
            "finished_step {} precedes arrival_step {} on request {}",
            self.finished_step,
            self.arrival_step,
            self.id
        );
        d
    }

    /// Whether this request carried a deadline and met it (completed
    /// without eviction). A cancelled request yields `None` even with a
    /// deadline: the client withdrew it, so it neither hit nor missed —
    /// counting it either way would skew hit rates with client
    /// behavior. Failed and rejected requests likewise yield `None`:
    /// an infrastructure fault or admission shed is not a scheduling
    /// outcome, and charging it to the deadline hit rate would mix
    /// fault counts into latency metrics.
    pub fn deadline_hit(&self) -> Option<bool> {
        if matches!(
            self.finish,
            FinishReason::Cancelled | FinishReason::Failed | FinishReason::Rejected
        ) {
            return None;
        }
        self.deadline_steps
            .map(|_| self.finish != FinishReason::DeadlineExceeded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_steps_accounts_for_chunked_prefill() {
        let r = GenRequest::greedy(0, vec![1; 10], 4);
        // Chunk 1: 10 prefill steps + 3 more decode steps.
        assert_eq!(r.min_steps_to_complete(1), 13);
        // Chunk 4: ceil(10/4)=3 prefill steps + 3 decode steps.
        assert_eq!(r.min_steps_to_complete(4), 6);
        // Chunk larger than the prompt: one prefill step.
        assert_eq!(r.min_steps_to_complete(64), 4);
        // A stop token can end generation at the first sample.
        let mut early = r.clone();
        early.eos_token = Some(7);
        assert_eq!(early.min_steps_to_complete(64), 1);
    }

    #[test]
    fn absolute_deadline_is_arrival_plus_budget() {
        let mut r = GenRequest::greedy(0, vec![1], 1);
        assert_eq!(r.absolute_deadline(), None);
        r.arrival_step = 5;
        r.deadline_steps = Some(10);
        assert_eq!(r.absolute_deadline(), Some(15));
    }

    fn completion(arrival: u64, first: Option<u64>, admitted: Option<u64>) -> Completion {
        Completion {
            id: 0,
            model: 0,
            priority: Priority::Standard,
            tokens: vec![1],
            finish: FinishReason::MaxTokens,
            arrival_step: arrival,
            deadline_steps: None,
            admitted_step: admitted,
            first_token_step: first,
            finished_step: 20,
            preemptions: 0,
            paused_steps: 0,
            paused_steps_before_first_token: 0,
            retry_after_steps: None,
        }
    }

    #[test]
    fn latency_accessors_measure_from_arrival() {
        let c = completion(4, Some(9), Some(6));
        assert_eq!(c.ttft_steps(), Some(5));
        assert_eq!(c.queue_steps(), Some(2));
        assert_eq!(c.e2e_steps(), Some(16));
    }

    #[test]
    fn paused_time_is_excluded_from_ttft_but_not_e2e() {
        let mut c = completion(4, Some(9), Some(6));
        c.preemptions = 1;
        c.paused_steps = 3;
        c.paused_steps_before_first_token = 3;
        // 5 wall steps to first token, 3 of them paused: TTFT is 2.
        assert_eq!(c.ttft_steps(), Some(2));
        // Queueing still measures arrival → first admission only.
        assert_eq!(c.queue_steps(), Some(2));
        // End-to-end stays wall time: the user waited through the pause.
        assert_eq!(c.e2e_steps(), Some(16));
    }

    #[test]
    fn cancelled_requests_neither_hit_nor_miss_deadlines() {
        let mut c = completion(4, Some(9), Some(6));
        c.deadline_steps = Some(100);
        assert_eq!(c.deadline_hit(), Some(true));
        c.finish = FinishReason::Cancelled;
        assert_eq!(c.deadline_hit(), None);
    }

    #[test]
    fn failed_and_rejected_requests_are_excluded_from_deadline_accounting() {
        let mut c = completion(4, Some(9), Some(6));
        c.deadline_steps = Some(100);
        c.finish = FinishReason::Failed;
        assert_eq!(c.deadline_hit(), None);
        c.finish = FinishReason::Rejected;
        assert_eq!(c.deadline_hit(), None);
    }

    #[test]
    fn min_steps_remaining_tracks_partial_progress() {
        let r = GenRequest::greedy(0, vec![1; 10], 4);
        // No progress: identical to min_steps_to_complete.
        assert_eq!(r.min_steps_remaining(0, 0, 4), r.min_steps_to_complete(4));
        // Mid-prefill at pos 6 with chunk 4: 1 prefill step (samples the
        // first token) + 3 decode steps.
        assert_eq!(r.min_steps_remaining(6, 0, 4), 4);
        // Mid-decode with 1 of 4 tokens out: one step per missing token.
        assert_eq!(r.min_steps_remaining(10, 1, 4), 3);
        // All but the last token out: exactly one step left.
        assert_eq!(r.min_steps_remaining(10, 3, 4), 1);
        // A stop token can end any decode step.
        let mut early = r.clone();
        early.eos_token = Some(7);
        assert_eq!(early.min_steps_remaining(10, 2, 4), 1);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn inconsistent_stamps_yield_none_instead_of_wrapping() {
        // A backend reporting a first-token step before the arrival must
        // not underflow into a ~u64::MAX latency.
        let c = completion(10, Some(3), Some(2));
        assert_eq!(c.ttft_steps(), None);
        assert_eq!(c.queue_steps(), None);
        // Likewise, paused bookkeeping exceeding the wall TTFT (a
        // resume-stamp bug) must yield None, not wrap.
        let mut p = completion(4, Some(9), Some(6));
        p.paused_steps_before_first_token = 50;
        assert_eq!(p.ttft_steps(), None);
        // And an exit stamp before the arrival (a clock regression)
        // must yield None from the end-to-end accessor too.
        let mut e = completion(10, None, None);
        e.finished_step = 3;
        assert_eq!(e.e2e_steps(), None);
    }
}
