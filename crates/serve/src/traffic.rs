//! Synthetic multi-user traffic: Poisson arrivals over workload profiles.
//!
//! Real serving traffic mixes short chatty exchanges with long-document
//! summarization and bursty code completion. The profiles here bound
//! prompt/output lengths per class and a scenario mixes them with
//! weights; arrivals follow a Poisson process in engine steps. Token ids
//! are uniform over the model vocabulary — the engine's cost is length-
//! and batch-shaped, not content-shaped, so uniform tokens exercise the
//! same scheduling behavior as natural text.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lightmamba_model::sampler::Sampler;

use crate::request::{GenRequest, Priority};

/// Length bounds and arrival rate of one workload class.
#[derive(Debug, Clone)]
pub struct TrafficProfile {
    /// Class name (reports group by it).
    pub name: &'static str,
    /// Prompt length range in tokens.
    pub prompt_len: Range<usize>,
    /// Generation length range in tokens.
    pub gen_len: Range<usize>,
    /// Decoding strategy requests of this class use.
    pub sampler: Sampler,
    /// Priority class requests of this profile carry (the priority
    /// policy keys on it; others ignore it).
    pub priority: Priority,
    /// Latency budget range in engine steps (`None` = no deadline);
    /// sampled per request when set.
    pub deadline_steps: Option<Range<u64>>,
}

impl TrafficProfile {
    /// Chat turns: short prompts, short replies.
    pub fn chat() -> Self {
        TrafficProfile {
            name: "chat",
            prompt_len: 8..48,
            gen_len: 8..48,
            sampler: Sampler::TopK {
                k: 16,
                temperature: 0.8,
            },
            priority: Priority::Interactive,
            deadline_steps: None,
        }
    }

    /// Summarization: long prompts, short outputs.
    pub fn summarization() -> Self {
        TrafficProfile {
            name: "summarization",
            prompt_len: 96..256,
            gen_len: 8..32,
            sampler: Sampler::Greedy,
            priority: Priority::Batch,
            deadline_steps: None,
        }
    }

    /// A slot hog: moderate prompt, very long deadline-free generation
    /// at batch priority — the resident that preemptive policies exist
    /// to displace (offline eval sweeps, bulk translation).
    pub fn hog() -> Self {
        TrafficProfile {
            name: "hog",
            prompt_len: 16..64,
            gen_len: 96..192,
            sampler: Sampler::Greedy,
            priority: Priority::Batch,
            deadline_steps: None,
        }
    }

    /// Code completion: medium prompts, medium outputs, low temperature.
    pub fn code_completion() -> Self {
        TrafficProfile {
            name: "code",
            prompt_len: 32..128,
            gen_len: 16..64,
            sampler: Sampler::Temperature(0.2),
            priority: Priority::Standard,
            deadline_steps: None,
        }
    }

    /// Attaches a per-request latency budget, sampled from `range`.
    pub fn with_deadline(mut self, range: Range<u64>) -> Self {
        self.deadline_steps = Some(range);
        self
    }

    /// Overrides the profile's priority class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// How requests arrive over the run horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Open-loop Poisson arrivals at rate λ per engine step.
    Poisson(f64),
    /// Closed-loop burst: all `n` requests arrive at step 0 (the
    /// classic offline-throughput workload).
    BurstAtStart(usize),
}

/// A weighted mixture of profiles plus an arrival process.
#[derive(Debug, Clone)]
pub struct TrafficScenario {
    /// Scenario name.
    pub name: &'static str,
    /// Profiles with mixture weights (need not sum to 1).
    pub profiles: Vec<(f64, TrafficProfile)>,
    /// How requests arrive.
    pub arrivals: ArrivalProcess,
    /// When set, every request's prompt is prepended with the *same*
    /// `n`-token system prompt and tagged with
    /// [`crate::request::GenRequest::shared_prefix`], so an engine with
    /// the prefix cache on prefills it once and every later request
    /// restores the snapshot (see [`TrafficScenario::shared_system_prompt`]).
    pub shared_prefix_len: Option<usize>,
}

impl TrafficScenario {
    /// Pure chat traffic.
    pub fn chat(arrivals_per_step: f64) -> Self {
        TrafficScenario {
            name: "chat",
            profiles: vec![(1.0, TrafficProfile::chat())],
            arrivals: ArrivalProcess::Poisson(arrivals_per_step),
            shared_prefix_len: None,
        }
    }

    /// The mixed production-like scenario: mostly chat, some code, a
    /// trickle of long summarizations.
    pub fn mixed(arrivals_per_step: f64) -> Self {
        TrafficScenario {
            name: "mixed",
            profiles: vec![
                (0.6, TrafficProfile::chat()),
                (0.3, TrafficProfile::code_completion()),
                (0.1, TrafficProfile::summarization()),
            ],
            arrivals: ArrivalProcess::Poisson(arrivals_per_step),
            shared_prefix_len: None,
        }
    }

    /// Multi-turn chat sessions: first turns of `n` concurrent
    /// sessions, each a short opening prompt with a short reply
    /// (follow-up turns are shorter still — the conversation so far
    /// lives in the session's saved state, so a follow-up carries only
    /// the user's new message). Follow-up *arrival* is closed-loop — a
    /// session's next turn departs only after the prior reply — so the
    /// generator emits the openers and the session studies draw
    /// follow-ups live via [`TrafficGenerator::follow_up_turn`].
    pub fn chat_sessions(n: usize) -> Self {
        TrafficScenario {
            name: "chat_sessions",
            profiles: vec![(
                1.0,
                TrafficProfile {
                    name: "chat-turn",
                    prompt_len: 6..24,
                    gen_len: 6..16,
                    sampler: Sampler::TopK {
                        k: 16,
                        temperature: 0.8,
                    },
                    priority: Priority::Interactive,
                    deadline_steps: None,
                },
            )],
            arrivals: ArrivalProcess::BurstAtStart(n),
            shared_prefix_len: None,
        }
    }

    /// A closed-loop burst of `n` chat requests.
    pub fn burst(n: usize) -> Self {
        TrafficScenario {
            name: "burst",
            profiles: vec![(1.0, TrafficProfile::chat())],
            arrivals: ArrivalProcess::BurstAtStart(n),
            shared_prefix_len: None,
        }
    }

    /// The deadline-heavy scenario deadline-aware policies compete on:
    /// interactive chat with tight per-request budgets sharing the pool
    /// with deadline-free batch summarization. Under overload a FIFO
    /// queue strands the chat turns behind long batch prompts until
    /// their budgets lapse; EDF reorders admission around the budgets.
    pub fn deadline_heavy(arrivals_per_step: f64) -> Self {
        TrafficScenario {
            name: "deadline_heavy",
            profiles: vec![
                (0.7, TrafficProfile::chat().with_deadline(40..160)),
                (0.3, TrafficProfile::summarization()),
            ],
            arrivals: ArrivalProcess::Poisson(arrivals_per_step),
            shared_prefix_len: None,
        }
    }

    /// The preemption-heavy scenario preemptive policies compete on:
    /// deadline-free hogs that camp on slots for hundreds of steps
    /// ([`TrafficProfile::hog`]) mixed with short interactive turns on
    /// *tight* budgets. Admission-order tricks alone cannot save the
    /// tight deadlines once hogs are resident — EDF can only reorder
    /// the queue while every slot stays camped — so the gap between
    /// [`crate::scheduler::Edf::preemptive`] and plain EDF on
    /// `deadline_hit_rate()` is the scenario's headline (checked by
    /// `repro serve-preempt`).
    pub fn preemption_heavy(arrivals_per_step: f64) -> Self {
        TrafficScenario {
            name: "preemption_heavy",
            profiles: vec![
                (0.3, TrafficProfile::hog()),
                (
                    0.7,
                    TrafficProfile {
                        name: "urgent-chat",
                        prompt_len: 8..32,
                        gen_len: 4..16,
                        sampler: Sampler::TopK {
                            k: 16,
                            temperature: 0.8,
                        },
                        priority: Priority::Interactive,
                        deadline_steps: Some(24..64),
                    },
                ),
            ],
            arrivals: ArrivalProcess::Poisson(arrivals_per_step),
            shared_prefix_len: None,
        }
    }

    /// The shared-system-prompt scenario the prefix cache competes on:
    /// a closed-loop burst of `n` assistant turns, each carrying the
    /// *same* `prefix_len`-token system prompt ahead of a short user
    /// tail. Without the cache every request re-prefills the system
    /// prompt; with it the first request harvests one snapshot and the
    /// rest restore it for the price of a single state move each
    /// (pinned by test, checked by `repro serve-prefix`).
    ///
    /// Greedy sampling keeps the cache-on/cache-off comparison
    /// bit-identical on outputs, so the study isolates timing.
    pub fn shared_system_prompt(n: usize, prefix_len: usize) -> Self {
        TrafficScenario {
            name: "shared_system_prompt",
            profiles: vec![(
                1.0,
                TrafficProfile {
                    name: "assistant-turn",
                    prompt_len: 4..16,
                    gen_len: 8..24,
                    sampler: Sampler::Greedy,
                    priority: Priority::Interactive,
                    deadline_steps: None,
                },
            )],
            arrivals: ArrivalProcess::BurstAtStart(n),
            shared_prefix_len: Some(prefix_len.max(1)),
        }
    }
}

/// Deterministic request generator over a scenario.
#[derive(Debug)]
pub struct TrafficGenerator {
    scenario: TrafficScenario,
    vocab_size: usize,
    rng: StdRng,
    next_id: u64,
    /// Registered models requests are spread over (round-robin by id).
    models: usize,
    /// The scenario's shared system prompt, drawn once at construction
    /// (empty when [`TrafficScenario::shared_prefix_len`] is unset) —
    /// every emitted request carries these exact tokens first.
    shared_prefix: Vec<u32>,
}

impl TrafficGenerator {
    /// Builds a generator; `vocab_size` bounds sampled token ids.
    ///
    /// # Panics
    ///
    /// Panics when the scenario has no profiles or a zero vocabulary,
    /// when a profile's length or deadline range is empty or its weight
    /// is negative or not finite, when the weights sum to zero, or when
    /// the Poisson rate is negative or not finite — all unserviceable
    /// configurations.
    pub fn new(scenario: TrafficScenario, vocab_size: usize, seed: u64) -> Self {
        let name = scenario.name;
        assert!(
            !scenario.profiles.is_empty(),
            "traffic scenario {name:?} needs at least one profile"
        );
        for (weight, p) in &scenario.profiles {
            let deadline_empty = p.deadline_steps.as_ref().is_some_and(|d| d.is_empty());
            assert!(
                !(p.prompt_len.is_empty() || p.gen_len.is_empty() || deadline_empty),
                "traffic scenario {name:?}: profile {:?} has an empty range",
                p.name
            );
            assert!(
                weight.is_finite() && *weight >= 0.0,
                "traffic scenario {name:?}: profile {:?} has weight {weight}",
                p.name
            );
        }
        let total: f64 = scenario.profiles.iter().map(|(w, _)| w).sum();
        assert!(total > 0.0, "traffic scenario {name:?}: weights sum to 0");
        if let ArrivalProcess::Poisson(rate) = scenario.arrivals {
            assert!(
                rate.is_finite() && rate >= 0.0,
                "traffic scenario {name:?}: Poisson rate {rate}"
            );
        }
        assert!(vocab_size > 0, "vocab_size must be non-zero");
        let mut rng = StdRng::seed_from_u64(seed);
        // Drawn before any request so scenarios without a shared prefix
        // consume no extra randomness (their streams stay byte-stable).
        let shared_prefix = scenario
            .shared_prefix_len
            .map(|len| {
                (0..len.max(1))
                    .map(|_| rng.gen_range(0..vocab_size) as u32)
                    .collect()
            })
            .unwrap_or_default();
        TrafficGenerator {
            scenario,
            vocab_size,
            rng,
            next_id: 0,
            models: 1,
            shared_prefix,
        }
    }

    /// Spreads requests over `models` registered backends, round-robin
    /// by request id — symmetric load, so per-model serving metrics are
    /// directly comparable.
    ///
    /// # Panics
    ///
    /// Panics on zero models.
    pub fn with_models(mut self, models: usize) -> Self {
        assert!(models > 0, "traffic needs at least one model");
        self.models = models;
        self
    }

    /// Draws a Poisson count via inversion (rates here are ≲ a few
    /// arrivals per step, where this is exact and fast).
    fn poisson(&mut self, lambda: f64) -> usize {
        if lambda <= 0.0 {
            return 0;
        }
        let limit = (-lambda).exp();
        let mut product: f64 = self.rng.gen();
        let mut count = 0usize;
        while product > limit && count < 10_000 {
            count += 1;
            product *= self.rng.gen::<f64>();
        }
        count
    }

    fn sample_profile(&mut self) -> TrafficProfile {
        let total: f64 = self.scenario.profiles.iter().map(|(w, _)| w).sum();
        let mut pick = self.rng.gen::<f64>() * total;
        for (w, p) in &self.scenario.profiles {
            pick -= w;
            if pick <= 0.0 {
                return p.clone();
            }
        }
        self.scenario.profiles[0].1.clone()
    }

    fn make_request(&mut self, arrival_step: u64) -> GenRequest {
        let profile = self.sample_profile();
        let prompt_len = self.rng.gen_range(profile.prompt_len.clone());
        let gen_len = self.rng.gen_range(profile.gen_len.clone());
        let tail = (0..prompt_len.max(1)).map(|_| self.rng.gen_range(0..self.vocab_size) as u32);
        let (prompt, shared_prefix) = if self.shared_prefix.is_empty() {
            (tail.collect(), None)
        } else {
            let mut prompt = self.shared_prefix.clone();
            prompt.extend(tail);
            (prompt, Some(self.shared_prefix.len()))
        };
        let id = self.next_id;
        self.next_id += 1;
        let deadline_steps = profile
            .deadline_steps
            .clone()
            .map(|range| self.rng.gen_range(range));
        GenRequest {
            id,
            model: (id % self.models as u64) as usize,
            priority: profile.priority,
            prompt,
            max_new_tokens: gen_len.max(1),
            sampler: profile.sampler,
            seed: id.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            arrival_step,
            deadline_steps,
            eos_token: None,
            session: None,
            shared_prefix,
        }
    }

    /// Draws one *follow-up* chat turn: a short continuation prompt (the
    /// user's next message — history stays in the session state, so the
    /// follow-up carries only the new tokens) with the first profile's
    /// reply length. Used by the closed-loop session studies, which
    /// submit follow-ups only after the prior turn's reply lands — an
    /// arrival pattern the open-loop [`TrafficGenerator::generate`]
    /// cannot pre-compute.
    pub fn follow_up_turn(&mut self) -> (Vec<u32>, usize) {
        let profile = self.scenario.profiles[0].1.clone();
        let prompt_len = self.rng.gen_range(profile.prompt_len.clone());
        let gen_len = self.rng.gen_range(profile.gen_len.clone());
        let prompt = (0..prompt_len.max(1))
            .map(|_| self.rng.gen_range(0..self.vocab_size) as u32)
            .collect();
        (prompt, gen_len.max(1))
    }

    /// Generates all arrivals over `steps` engine steps
    /// ([`ArrivalProcess::BurstAtStart`] ignores the horizon and emits
    /// everything at step 0).
    pub fn generate(&mut self, steps: u64) -> Vec<GenRequest> {
        let mut out = Vec::new();
        match self.scenario.arrivals {
            ArrivalProcess::BurstAtStart(n) => {
                for _ in 0..n {
                    out.push(self.make_request(0));
                }
            }
            ArrivalProcess::Poisson(lambda) => {
                for step in 0..steps {
                    let n = self.poisson(lambda);
                    for _ in 0..n {
                        out.push(self.make_request(step));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = TrafficGenerator::new(TrafficScenario::mixed(0.5), 256, 7);
        let mut b = TrafficGenerator::new(TrafficScenario::mixed(0.5), 256, 7);
        let ra = a.generate(200);
        let rb = b.generate(200);
        assert_eq!(ra.len(), rb.len());
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.prompt, y.prompt);
            assert_eq!(x.arrival_step, y.arrival_step);
        }
    }

    #[test]
    fn poisson_rate_is_roughly_lambda() {
        let mut g = TrafficGenerator::new(TrafficScenario::chat(0.5), 256, 3);
        let reqs = g.generate(4000);
        let rate = reqs.len() as f64 / 4000.0;
        assert!((0.4..0.6).contains(&rate), "rate {rate}");
    }

    #[test]
    fn burst_arrives_all_at_once() {
        let mut g = TrafficGenerator::new(TrafficScenario::burst(64), 256, 1);
        let reqs = g.generate(10);
        assert_eq!(reqs.len(), 64);
        assert!(reqs.iter().all(|r| r.arrival_step == 0));
    }

    #[test]
    fn prompts_respect_vocab_and_lengths() {
        let mut g = TrafficGenerator::new(TrafficScenario::mixed(1.0), 512, 9);
        for r in g.generate(300) {
            assert!(!r.prompt.is_empty());
            assert!(r.max_new_tokens >= 1);
            assert!(r.prompt.iter().all(|&t| (t as usize) < 512));
        }
    }

    #[test]
    fn deadline_heavy_emits_budgets_and_priorities() {
        let mut g = TrafficGenerator::new(TrafficScenario::deadline_heavy(0.8), 256, 5);
        let reqs = g.generate(400);
        let with_deadline: Vec<_> = reqs.iter().filter(|r| r.deadline_steps.is_some()).collect();
        assert!(!with_deadline.is_empty());
        for r in &with_deadline {
            assert_eq!(r.priority, Priority::Interactive);
            assert!((40..160).contains(&r.deadline_steps.unwrap()));
        }
        // The summarization fraction runs deadline-free at batch priority.
        assert!(reqs
            .iter()
            .any(|r| r.deadline_steps.is_none() && r.priority == Priority::Batch));
        let frac = with_deadline.len() as f64 / reqs.len() as f64;
        assert!((0.5..0.9).contains(&frac), "deadline fraction {frac}");
    }

    #[test]
    fn preemption_heavy_mixes_hogs_with_tight_deadlines() {
        let mut g = TrafficGenerator::new(TrafficScenario::preemption_heavy(0.5), 256, 5);
        let reqs = g.generate(400);
        let hogs: Vec<_> = reqs.iter().filter(|r| r.deadline_steps.is_none()).collect();
        let urgent: Vec<_> = reqs.iter().filter(|r| r.deadline_steps.is_some()).collect();
        assert!(!hogs.is_empty() && !urgent.is_empty());
        for h in &hogs {
            assert_eq!(h.priority, Priority::Batch);
            assert!(h.max_new_tokens >= 96, "hogs must camp on their slot");
        }
        for u in &urgent {
            assert_eq!(u.priority, Priority::Interactive);
            assert!((24..64).contains(&u.deadline_steps.unwrap()));
            assert!(u.max_new_tokens < 16);
        }
        let frac = urgent.len() as f64 / reqs.len() as f64;
        assert!((0.5..0.9).contains(&frac), "urgent fraction {frac}");
    }

    #[test]
    fn chat_sessions_emit_openers_and_deterministic_follow_ups() {
        let mut g = TrafficGenerator::new(TrafficScenario::chat_sessions(6), 256, 21);
        let openers = g.generate(1);
        assert_eq!(openers.len(), 6);
        assert!(openers.iter().all(|r| r.arrival_step == 0));
        assert!(openers
            .iter()
            .all(|r| r.priority == Priority::Interactive && r.deadline_steps.is_none()));
        let (prompt, gen_len) = g.follow_up_turn();
        assert!((1..24).contains(&prompt.len()));
        assert!((1..16).contains(&gen_len));
        assert!(prompt.iter().all(|&t| (t as usize) < 256));
        // Same seed, same follow-up stream.
        let mut h = TrafficGenerator::new(TrafficScenario::chat_sessions(6), 256, 21);
        h.generate(1);
        assert_eq!(h.follow_up_turn(), (prompt, gen_len));
    }

    #[test]
    fn shared_system_prompt_carries_one_identical_prefix() {
        let mut g = TrafficGenerator::new(TrafficScenario::shared_system_prompt(8, 12), 256, 17);
        let reqs = g.generate(1);
        assert_eq!(reqs.len(), 8);
        let prefix = reqs[0].prompt[..12].to_vec();
        for r in &reqs {
            assert_eq!(r.shared_prefix, Some(12));
            assert_eq!(&r.prompt[..12], &prefix[..], "one shared system prompt");
            assert!(r.prompt.len() > 12, "a user tail must remain to feed");
        }
        // Same seed, same prefix and tails.
        let mut h = TrafficGenerator::new(TrafficScenario::shared_system_prompt(8, 12), 256, 17);
        let again = h.generate(1);
        for (a, b) in reqs.iter().zip(&again) {
            assert_eq!(a.prompt, b.prompt);
        }
        // Scenarios without a prefix never tag requests.
        let mut plain = TrafficGenerator::new(TrafficScenario::burst(4), 256, 17);
        assert!(plain.generate(1).iter().all(|r| r.shared_prefix.is_none()));
    }

    /// `new` over the chat scenario with `edit` applied.
    fn build(edit: impl FnOnce(&mut TrafficScenario)) -> TrafficGenerator {
        let mut scenario = TrafficScenario::chat(0.5);
        edit(&mut scenario);
        TrafficGenerator::new(scenario, 256, 1)
    }

    #[test]
    #[should_panic(expected = "scenario \"chat\": profile \"chat\" has an empty range")]
    fn an_empty_length_range_is_rejected_at_construction() {
        build(|s| s.profiles[0].1.gen_len = 8..8);
    }

    #[test]
    #[should_panic(expected = "profile \"chat\" has an empty range")]
    fn an_empty_deadline_range_is_rejected_at_construction() {
        build(|s| s.profiles[0].1.deadline_steps = Some(40..40));
    }

    #[test]
    #[should_panic(expected = "scenario \"chat\": profile \"chat\" has weight NaN")]
    fn a_nan_weight_is_rejected_at_construction() {
        build(|s| s.profiles[0].0 = f64::NAN);
    }

    #[test]
    #[should_panic(expected = "profile \"code\" has weight -1")]
    fn a_negative_weight_is_rejected_at_construction() {
        // Before the check, the mixture silently never drew "code".
        build(|s| {
            s.profiles
                .insert(0, (-1.0, TrafficProfile::code_completion()))
        });
    }

    #[test]
    #[should_panic(expected = "scenario \"chat\": weights sum to 0")]
    fn all_zero_weights_are_rejected_at_construction() {
        build(|s| s.profiles[0].0 = 0.0);
    }

    #[test]
    #[should_panic(expected = "scenario \"chat\": Poisson rate -0.5")]
    fn a_negative_poisson_rate_is_rejected_at_construction() {
        build(|s| s.arrivals = ArrivalProcess::Poisson(-0.5));
    }

    #[test]
    #[should_panic(expected = "scenario \"chat\": Poisson rate inf")]
    fn an_infinite_poisson_rate_is_rejected_at_construction() {
        build(|s| s.arrivals = ArrivalProcess::Poisson(f64::INFINITY));
    }

    #[test]
    fn ids_are_unique_and_ordered_by_arrival() {
        let mut g = TrafficGenerator::new(TrafficScenario::mixed(0.8), 256, 11);
        let reqs = g.generate(500);
        for w in reqs.windows(2) {
            assert!(w[0].id < w[1].id);
            assert!(w[0].arrival_step <= w[1].arrival_step);
        }
    }
}
