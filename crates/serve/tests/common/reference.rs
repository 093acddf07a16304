//! `RefEngine`: a deliberately naive model of the serve engine, the one
//! oracle the differential suite checks `ServeEngine` against.
//!
//! It runs the step phases in the order ARCHITECTURE.md's step table
//! lists them — arrivals (and queue-limit shedding) → cancel → expire →
//! doom → preempt → admit → advance → sample → retire — over a `Vec` of
//! resident sequences, a `Vec` of paused ones and a free-slot counter,
//! asking its own instance of the engine's `Policy` through the same
//! `AdmissionCtx`. There is no slot pool, batching, prefix cache,
//! session store, worker pool, fault handling or observability: each
//! sequence owns its model state and is fed one token at a time through
//! its model's own sequential decode. Session turns arrive with their
//! full history already in the prompt, so a resume is a re-prefill.

use std::collections::{HashSet, VecDeque};

use lightmamba_model::{MambaModel, ModelState};
use lightmamba_quant::QuantizedMamba;
use lightmamba_serve::engine::EngineConfig;
use lightmamba_serve::request::{Completion, FinishReason, GenRequest, RequestId};
use lightmamba_serve::scheduler::{AdmissionCtx, Policy, SeqView};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One registered model, decoded one token at a time.
#[derive(Clone, Copy)]
pub enum RefModel<'m> {
    Fp(&'m MambaModel),
    W4a4(&'m QuantizedMamba),
}

impl RefModel<'_> {
    fn new_state(self) -> ModelState {
        match self {
            RefModel::Fp(m) => m.new_state(),
            RefModel::W4a4(q) => q.new_state(),
        }
    }

    fn step(self, token: u32, state: &mut ModelState) -> Vec<f32> {
        match self {
            RefModel::Fp(m) => m.forward_step(token, state).unwrap(),
            RefModel::W4a4(q) => q.forward_step_with(token, state).unwrap(),
        }
    }
}

/// One admitted request: its own state, progress and stamps.
struct Seq {
    req: GenRequest,
    state: ModelState,
    /// Tokens fed so far (prompt, then one per decode step).
    pos: usize,
    generated: Vec<u32>,
    rng: StdRng,
    admitted: u64,
    first_token: Option<u64>,
    preemptions: u32,
    paused_steps: u64,
    paused_before_first: u64,
    /// The step this sequence was paused at, while it is paused.
    paused_at: Option<u64>,
}

impl Seq {
    fn admit(req: GenRequest, model: RefModel<'_>, clock: u64) -> Self {
        Seq {
            state: model.new_state(),
            pos: 0,
            generated: Vec::new(),
            rng: StdRng::seed_from_u64(req.seed),
            admitted: clock,
            first_token: None,
            preemptions: 0,
            paused_steps: 0,
            paused_before_first: 0,
            paused_at: None,
            req,
        }
    }

    fn prefilling(&self) -> bool {
        self.pos < self.req.prompt.len()
    }

    /// One engine step: a prompt chunk of at most `chunk` tokens, or the
    /// last sample, fed token by token; a sample once the prompt is in.
    fn advance(&mut self, model: RefModel<'_>, chunk: usize, clock: u64) {
        let feed: Vec<u32> = if self.prefilling() {
            let end = self.req.prompt.len().min(self.pos.saturating_add(chunk));
            self.req.prompt[self.pos..end].to_vec()
        } else {
            vec![*self.generated.last().expect("decoding after a sample")]
        };
        let mut logits = Vec::new();
        for &t in &feed {
            logits = model.step(t, &mut self.state);
        }
        self.pos += feed.len();
        if self.prefilling() {
            return;
        }
        let token = self.req.sampler.sample(&logits, &mut self.rng);
        self.first_token.get_or_insert(clock);
        self.generated.push(token);
    }

    fn finished(&self) -> Option<FinishReason> {
        let eos = self.req.eos_token;
        if eos.is_some() && self.generated.last().copied() == eos {
            Some(FinishReason::Eos)
        } else if self.generated.len() >= self.req.max_new_tokens {
            Some(FinishReason::MaxTokens)
        } else {
            None
        }
    }

    fn remaining(&self, chunk: usize) -> u64 {
        self.req
            .min_steps_remaining(self.pos, self.generated.len(), chunk)
    }

    /// Ends a pause episode at `clock`.
    fn unpause(&mut self, clock: u64) {
        if let Some(at) = self.paused_at.take() {
            self.paused_steps += clock - at;
            if self.first_token.is_none() {
                self.paused_before_first += clock - at;
            }
        }
    }
}

/// What a request at prompt position `pos` commits against a token
/// budget: (its next feed, its footprint). Footprints saturate, like
/// the engine's: a request may ask for `usize::MAX` tokens.
fn load(req: &GenRequest, pos: usize, chunk: usize) -> (usize, usize) {
    let feed = req.prompt.len().saturating_sub(pos).min(chunk);
    (feed, req.prompt.len().saturating_add(req.max_new_tokens))
}

fn unadmitted(req: &GenRequest, clock: u64, finish: FinishReason, hint: Option<u64>) -> Completion {
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
        retry_after_steps: hint,
    }
}

/// The queues a request can be evicted from.
enum Queue {
    Pending,
    Waiting,
    Active,
    Paused,
}

/// Removes and returns, in order, the elements `hit` selects.
fn take_hits<T, Q>(queue: &mut Q, hit: impl Fn(&T) -> bool) -> Vec<T>
where
    Q: Default + IntoIterator<Item = T> + FromIterator<T>,
{
    let (gone, kept): (Vec<T>, Vec<T>) = std::mem::take(queue).into_iter().partition(|x| hit(x));
    *queue = kept.into_iter().collect();
    gone
}

/// Drops out-of-range and repeated picks, keeping first occurrences.
fn dedupe(picks: &mut Vec<usize>, n: usize) {
    let mut seen = HashSet::new();
    picks.retain(|&i| i < n && seen.insert(i));
}

pub struct RefEngine<'m> {
    models: Vec<RefModel<'m>>,
    cfg: EngineConfig,
    queue_limit: Option<usize>,
    clock: u64,
    free: usize,
    pending: VecDeque<GenRequest>,
    waiting: Vec<GenRequest>,
    active: Vec<Seq>,
    paused: Vec<Seq>,
    cancels: HashSet<RequestId>,
    deferred_last_step: u64,
    completions: Vec<Completion>,
}

impl<'m> RefEngine<'m> {
    /// A reference over `models` (indexed by model id) honouring `cfg`'s
    /// slots, prefill chunk and token budget, and the resilience queue
    /// limit. Threads and the prefix cache change nothing here.
    pub fn new(models: Vec<RefModel<'m>>, cfg: EngineConfig, queue_limit: Option<usize>) -> Self {
        RefEngine {
            models,
            cfg,
            queue_limit,
            clock: 0,
            free: cfg.slots,
            pending: VecDeque::new(),
            waiting: Vec::new(),
            active: Vec::new(),
            paused: Vec::new(),
            cancels: HashSet::new(),
            deferred_last_step: 0,
            completions: Vec::new(),
        }
    }

    /// The tokens `req` generates decoded alone, until it finishes or
    /// has generated `limit` tokens.
    pub fn decode(&self, req: &GenRequest, limit: usize) -> Vec<u32> {
        let model = self.models[req.model];
        let mut seq = Seq::admit(req.clone(), model, 0);
        while seq.finished().is_none() && seq.generated.len() < limit {
            seq.advance(model, usize::MAX, 0);
        }
        seq.generated
    }

    pub fn submit(&mut self, requests: Vec<GenRequest>) {
        self.pending.extend(requests);
    }

    pub fn cancel(&mut self, id: RequestId) {
        self.cancels.insert(id);
    }

    pub fn clock(&self) -> u64 {
        self.clock
    }

    pub fn has_work(&self) -> bool {
        !(self.pending.is_empty()
            && self.waiting.is_empty()
            && self.active.is_empty()
            && self.paused.is_empty())
    }

    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    fn leave(&mut self, mut seq: Seq, finish: FinishReason) {
        seq.unpause(self.clock);
        self.completions.push(Completion {
            tokens: seq.generated,
            admitted_step: Some(seq.admitted),
            first_token_step: seq.first_token,
            preemptions: seq.preemptions,
            paused_steps: seq.paused_steps,
            paused_steps_before_first_token: seq.paused_before_first,
            ..unadmitted(&seq.req, self.clock, finish, None)
        });
    }

    /// Evicts with `finish` every request in `queues` that `hit`
    /// selects; `hit` sees an admitted sequence's remaining steps.
    fn evict(
        &mut self,
        queues: &[Queue],
        finish: FinishReason,
        hit: impl Fn(&GenRequest, Option<u64>) -> bool,
    ) {
        let (clock, chunk) = (self.clock, self.cfg.prefill_chunk);
        for queue in queues {
            let gone: Vec<GenRequest> = match queue {
                Queue::Pending => take_hits(&mut self.pending, |r| hit(r, None)),
                Queue::Waiting => take_hits(&mut self.waiting, |r| hit(r, None)),
                Queue::Active | Queue::Paused => {
                    let resident = matches!(queue, Queue::Active);
                    let seqs = if resident {
                        &mut self.active
                    } else {
                        &mut self.paused
                    };
                    for seq in take_hits(seqs, |s| hit(&s.req, Some(s.remaining(chunk)))) {
                        self.free += usize::from(resident);
                        self.leave(seq, finish);
                    }
                    continue;
                }
            };
            let out = gone.iter().map(|r| unadmitted(r, clock, finish, None));
            self.completions.extend(out);
        }
    }

    fn views(seqs: &[Seq], chunk: usize) -> Vec<SeqView> {
        seqs.iter()
            .map(|s| SeqView::new(&s.req, s.remaining(chunk)))
            .collect()
    }

    /// Asks `f` of the policy over the current queues.
    fn ask<T>(&self, f: impl FnOnce(&AdmissionCtx<'_>) -> T) -> T {
        let chunk = self.cfg.prefill_chunk;
        let mut per_model = vec![0; self.models.len()];
        for s in &self.active {
            per_model[s.req.model] += 1;
        }
        f(&AdmissionCtx {
            waiting: &self.waiting,
            paused: &Self::views(&self.paused, chunk),
            residents: &Self::views(&self.active, chunk),
            clock: self.clock,
            free_slots: self.free,
            active: self.active.len(),
            active_per_model: &per_model,
            prefill_chunk: chunk,
            quarantined: &vec![false; self.models.len()],
        })
    }

    pub fn step(&mut self, policy: &mut dyn Policy) {
        let (clock, chunk) = (self.clock, self.cfg.prefill_chunk);

        // Arrivals, shedding past the queue limit.
        while self
            .pending
            .front()
            .is_some_and(|r| r.arrival_step <= clock)
        {
            let r = self.pending.pop_front().unwrap();
            if self
                .queue_limit
                .is_some_and(|lim| self.waiting.len() >= lim)
            {
                let hint = (1 + (self.waiting.len() / self.cfg.slots) as u64)
                    .saturating_add(self.deferred_last_step);
                self.completions
                    .push(unadmitted(&r, clock, FinishReason::Rejected, Some(hint)));
            } else {
                self.waiting.push(r);
            }
        }

        use Queue::*;
        let cancels = std::mem::take(&mut self.cancels);
        self.evict(
            &[Pending, Waiting, Active, Paused],
            FinishReason::Cancelled,
            |r, _| cancels.contains(&r.id),
        );
        self.evict(
            &[Waiting, Active, Paused],
            FinishReason::DeadlineExceeded,
            |r, _| {
                r.deadline_steps
                    .is_some_and(|d| clock - r.arrival_step >= d)
            },
        );
        if policy.evicts_doomed() {
            self.evict(
                &[Waiting, Paused],
                FinishReason::DeadlineExceeded,
                |r, owed| {
                    let owed = owed.unwrap_or_else(|| r.min_steps_to_complete(chunk));
                    r.absolute_deadline()
                        .is_some_and(|abs| clock.saturating_add(owed) > abs)
                },
            );
        }

        // Preemption: victims move to the back of the paused queue,
        // highest batch index first.
        let mut victims = self.ask(|ctx| policy.preempt(ctx));
        dedupe(&mut victims, self.active.len());
        victims.sort_unstable();
        for &i in victims.iter().rev() {
            let mut seq = self.active.remove(i);
            seq.preemptions += 1;
            seq.paused_at = Some(clock);
            self.free += 1;
            self.paused.push(seq);
        }

        // Admission: the policy's picks, deduplicated, truncated to the
        // free slots, then through the token-budget gate in pick order.
        let mut picks = self.ask(|ctx| policy.select(ctx));
        let n_waiting = self.waiting.len();
        dedupe(&mut picks, n_waiting + self.paused.len());
        picks.truncate(self.free);
        let mut deferred = 0;
        if let Some(budget) = self.cfg.token_budget {
            let plus =
                |run: (usize, usize), (feed, total)| (run.0 + feed, run.1.saturating_add(total));
            let mut run = (0, 0);
            for s in &self.active {
                run = plus(run, load(&s.req, s.pos, chunk));
            }
            picks.retain(|&i| {
                let pick = match i.checked_sub(n_waiting) {
                    None => load(&self.waiting[i], 0, chunk),
                    Some(p) => load(&self.paused[p].req, self.paused[p].pos, chunk),
                };
                let next = plus(run, pick);
                let valve = run == (0, 0);
                let fits = next.0 <= budget.max_prefill_tokens_per_step
                    && next.1 <= budget.max_total_tokens;
                if fits || valve {
                    run = next;
                } else {
                    deferred += 1;
                }
                fits || valve
            });
        }
        let mut waiting: Vec<_> = std::mem::take(&mut self.waiting)
            .into_iter()
            .map(Some)
            .collect();
        let mut paused: Vec<_> = std::mem::take(&mut self.paused)
            .into_iter()
            .map(Some)
            .collect();
        for &i in &picks {
            self.free -= 1;
            let seq = match i.checked_sub(n_waiting) {
                None => {
                    let req = waiting[i].take().unwrap();
                    let model = self.models[req.model];
                    Seq::admit(req, model, clock)
                }
                Some(p) => {
                    let mut seq = paused[p].take().unwrap();
                    seq.unpause(clock);
                    seq
                }
            };
            self.active.push(seq);
        }
        self.waiting = waiting.into_iter().flatten().collect();
        self.paused = paused.into_iter().flatten().collect();
        self.deferred_last_step = deferred;

        // Advance and sample every resident, then retire the finished.
        for seq in &mut self.active {
            seq.advance(self.models[seq.req.model], chunk, clock);
        }
        let (done, kept) = std::mem::take(&mut self.active)
            .into_iter()
            .partition::<Vec<_>, _>(|s| s.finished().is_some());
        self.active = kept;
        for seq in done {
            self.free += 1;
            let finish = seq.finished().unwrap();
            self.leave(seq, finish);
        }
        self.clock += 1;
    }
}
