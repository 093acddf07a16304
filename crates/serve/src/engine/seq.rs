//! Sequence records: the generation progress of an admitted request,
//! the resident and paused wrappers around it, and the two
//! [`Completion`] constructors every exit path goes through.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::backend::PausedState;
use crate::request::{Completion, FinishReason, GenRequest};
use crate::scheduler::SeqView;

/// Sampled tokens a fresh sequence reserves room for up front; a longer
/// generation grows its buffer as it goes (a huge `max_new_tokens` is a
/// bound, not an allocation request).
const RESERVED_TOKENS: usize = 4096;

/// Generation progress of one admitted request: every piece of state
/// needed to continue it bit-identically — prompt position, sampled
/// tokens, and the request's private RNG (moved, never reseeded, so the
/// sampling stream continues exactly where it stopped). Resident and
/// paused sequences both embed one, so a pause or a resume is a move.
#[derive(Debug)]
pub(super) struct Progress {
    pub(super) req: GenRequest,
    /// Prompt tokens consumed so far; decode starts at `prompt.len()`.
    pub(super) pos: usize,
    pub(super) generated: Vec<u32>,
    pub(super) rng: StdRng,
    pub(super) admitted_step: u64,
    pub(super) first_token_step: Option<u64>,
    /// Times this sequence has been paused out of its slot.
    pub(super) preemptions: u32,
    /// Steps spent paused across all completed episodes.
    pub(super) paused_steps: u64,
    /// The subset of `paused_steps` accrued before the first token
    /// (excluded from TTFT).
    pub(super) paused_steps_pre_first: u64,
    /// `Some(k)`: the first `k` prompt tokens are a shared prefix the
    /// prefix cache missed on — snapshot the state when `pos` reaches
    /// `k` (the harvest phase), then clear. Feeding clips at `k` so the
    /// snapshot summarizes exactly the prefix.
    pub(super) harvest: Option<usize>,
}

impl Progress {
    /// A request admitted at `clock`, starting at prompt position `pos`
    /// (past a restored shared prefix, else 0).
    pub(super) fn admit(req: GenRequest, pos: usize, harvest: Option<usize>, clock: u64) -> Self {
        Progress {
            pos,
            generated: Vec::with_capacity(req.max_new_tokens.min(RESERVED_TOKENS)),
            rng: StdRng::seed_from_u64(req.seed),
            admitted_step: clock,
            first_token_step: None,
            preemptions: 0,
            paused_steps: 0,
            paused_steps_pre_first: 0,
            harvest,
            req,
        }
    }

    /// Fewest further engine steps to completion from here.
    pub(super) fn remaining_steps(&self, prefill_chunk: usize) -> u64 {
        self.req
            .min_steps_remaining(self.pos, self.generated.len(), prefill_chunk)
    }

    /// Scheduling view with progress-aware remaining work.
    pub(super) fn view(&self, prefill_chunk: usize) -> SeqView {
        SeqView::new(&self.req, self.remaining_steps(prefill_chunk))
    }

    /// Why the sequence is done, if it is: its stop token, or its token
    /// budget.
    pub(super) fn finished(&self) -> Option<FinishReason> {
        let eos = self.req.eos_token;
        if eos.is_some() && self.generated.last().copied() == eos {
            Some(FinishReason::Eos)
        } else if self.generated.len() >= self.req.max_new_tokens {
            Some(FinishReason::MaxTokens)
        } else {
            None
        }
    }

    /// Books the pause episode `paused_at..clock` and returns its
    /// length. The pre-first-token split is the TTFT-exclusion rule —
    /// one place, shared by resume and by leaving while paused.
    fn end_episode(&mut self, paused_at: u64, clock: u64) -> u64 {
        let pause_len = clock.checked_sub(paused_at);
        debug_assert!(
            pause_len.is_some(),
            "pause episode of request {} ends at step {clock}, before it began at {paused_at}",
            self.req.id
        );
        let pause_len = pause_len.unwrap_or(0);
        self.paused_steps += pause_len;
        if self.first_token_step.is_none() {
            self.paused_steps_pre_first += pause_len;
        }
        pause_len
    }

    /// Completion record of a sequence leaving at `clock`. `paused_at`
    /// is `Some` when it leaves from the paused queue: the final,
    /// never-resumed episode counts as paused time.
    pub(super) fn finish(
        mut self,
        clock: u64,
        finish: FinishReason,
        paused_at: Option<u64>,
    ) -> Completion {
        if let Some(at) = paused_at {
            self.end_episode(at, clock);
        }
        Completion {
            tokens: self.generated,
            admitted_step: Some(self.admitted_step),
            first_token_step: self.first_token_step,
            preemptions: self.preemptions,
            paused_steps: self.paused_steps,
            paused_steps_before_first_token: self.paused_steps_pre_first,
            ..unadmitted(&self.req, clock, finish, None)
        }
    }
}

/// Completion record of a request that never held a slot (still pending
/// or waiting): expired, cancelled, or shed with a retry hint.
pub(super) fn unadmitted(
    req: &GenRequest,
    clock: u64,
    finish: FinishReason,
    retry_after_steps: Option<u64>,
) -> Completion {
    Completion {
        id: req.id,
        model: req.model,
        priority: req.priority,
        tokens: Vec::new(),
        finish,
        arrival_step: req.arrival_step,
        deadline_steps: req.deadline_steps,
        admitted_step: None,
        first_token_step: None,
        finished_step: clock,
        preemptions: 0,
        paused_steps: 0,
        paused_steps_before_first_token: 0,
        retry_after_steps,
    }
}

/// One resident sequence.
#[derive(Debug)]
pub(super) struct ActiveSeq {
    pub(super) run: Progress,
    pub(super) slot: usize,
}

impl ActiveSeq {
    /// Tokens this sequence advances in the next batched step: a prompt
    /// chunk of at most `prefill_chunk` while prefilling (clipped at a
    /// pending harvest boundary so the post-prefix state is observable),
    /// exactly 1 while decoding. [`ActiveSeq::feed`] and the sample
    /// phase both derive from this, so they can never disagree.
    pub(super) fn feed_len(&self, prefill_chunk: usize) -> usize {
        let run = &self.run;
        if run.pos < run.req.prompt.len() {
            let mut end = (run.pos + prefill_chunk.max(1)).min(run.req.prompt.len());
            if let Some(h) = run.harvest {
                if run.pos < h {
                    end = end.min(h);
                }
            }
            end - run.pos
        } else {
            1
        }
    }

    /// Tokens this sequence feeds into the next batched step: a prompt
    /// chunk of at most `prefill_chunk` tokens while prefilling, the
    /// previously sampled token while decoding.
    pub(super) fn feed(&self, prefill_chunk: usize) -> &[u32] {
        let run = &self.run;
        if run.pos < run.req.prompt.len() {
            &run.req.prompt[run.pos..run.pos + self.feed_len(prefill_chunk)]
        } else {
            std::slice::from_ref(
                run.generated
                    .last()
                    .expect("decode implies a sampled token"),
            )
        }
    }

    /// Pauses the sequence out of its slot at `clock`; `state` is the
    /// slot's saved recurrent state.
    pub(super) fn pause(mut self, state: PausedState, clock: u64) -> PausedSeq {
        self.run.preemptions += 1;
        PausedSeq {
            run: self.run,
            state,
            paused_at: clock,
        }
    }
}

/// One preempted sequence: its progress plus the fixed-size saved state
/// a resume restores. It holds no slot.
#[derive(Debug)]
pub(super) struct PausedSeq {
    pub(super) run: Progress,
    pub(super) state: PausedState,
    /// Step at which this pause episode began.
    pub(super) paused_at: u64,
}

impl PausedSeq {
    /// Ends the pause episode at `clock` and seats the sequence in
    /// `slot` (whose state the caller has already restored from
    /// [`PausedSeq::state`]); also returns the episode's length.
    pub(super) fn resume(mut self, slot: usize, clock: u64) -> (ActiveSeq, u64) {
        let pause_len = self.run.end_episode(self.paused_at, clock);
        (
            ActiveSeq {
                run: self.run,
                slot,
            },
            pause_len,
        )
    }
}
