//! The differential suite: one generator of serving scenarios, each run
//! through `ServeEngine` and through the naive `RefEngine`
//! (`common/reference.rs`), with every invariant stated as engine ≡
//! reference.
//!
//! A scenario draws the models (FP, W4A4, or both on one pool), the
//! policy (every `POLICY_NAMES` entry plus `ChurnFifo`'s arbitrary
//! preemption schedules), slots, prefill chunk, token budget, shared-
//! prefix markers and prefix cache, session turns over up to three
//! waves (now and then a first wave of more session turns than the
//! engine parks, so later waves resume a mix of parked and evicted
//! sessions), a cancel schedule, a chaos plan with an optional queue
//! limit, and 1 or 4 worker threads. Requests include the degenerate
//! ones: deadline 0, out-of-range prefix markers, EOS at the first
//! token, and `usize::MAX` new tokens under a deadline.
//!
//! Always, for every scenario:
//! - every request leaves exactly once, the report's counts equal the
//!   completions' finish-reason, preemption and budget-deferral
//!   tallies, each step's per-model trace rows partition its totals,
//!   and only a bounded queue sheds, each shed request with a retry
//!   hint and no tokens;
//! - every completion not retired `Failed` carries the tokens of the
//!   reference's sequential decode (all of them when it finished, a
//!   prefix when it was cut short); for a session turn that is the
//!   decode of the session's full history, or of its own prompt alone
//!   when the session's state was evicted from the 64 parked ones;
//! - slots are conserved at every step, and nothing stays resident,
//!   paused or pending once the engine drains;
//! - the token budget's caps hold on every step but the liveness
//!   valve's (one oversized request running alone).
//!
//! Where no state is reused (no session resume, no prefix-cache lookup)
//! and no fault fires, the engine's completions — finish reasons and
//! every step stamp, in retirement order — also equal the reference's.

use std::collections::{HashMap, VecDeque};
use std::sync::OnceLock;

use lightmamba_model::sampler::Sampler;
use lightmamba_model::MambaModel;
use lightmamba_quant::QuantizedMamba;
use lightmamba_serve::backend::{DecodeBackend, FpBackend, W4A4Backend};
use lightmamba_serve::chaos::{ChaosBackend, FaultPlan};
use lightmamba_serve::engine::{EngineConfig, ServeEngine};
use lightmamba_serve::registry::ModelRegistry;
use lightmamba_serve::request::{Completion, FinishReason, GenRequest, Priority, RequestId};
use lightmamba_serve::resilience::ResilienceConfig;
use lightmamba_serve::scheduler::{policy_by_name, Policy, TokenBudget, POLICY_NAMES};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::reference::{RefEngine, RefModel};
use common::{tiny_model, tiny_w4a4, ChurnFifo};

/// Sessions the engine keeps parked, least recently parked evicted.
const SESSIONS: usize = 64;

/// The models a scenario registers, in model-id order.
#[derive(Clone, Copy)]
enum Models {
    Fp,
    W4a4,
    FpAndW4a4,
}

/// One generated scenario.
struct Case {
    models: Models,
    /// A `POLICY_NAMES` entry, or `None` for `ChurnFifo` over `churn`.
    policy: Option<&'static str>,
    churn: Vec<(usize, usize)>,
    cfg: EngineConfig,
    queue_limit: Option<usize>,
    /// Seed and rate of each backend's chaos plan.
    faults: Option<(u64, f64)>,
    /// Request waves, each submitted once the previous one drained;
    /// arrivals count from the wave's submission step.
    waves: Vec<Vec<GenRequest>>,
    /// (step, id): cancel `id` just before step `step`.
    cancels: Vec<(u64, RequestId)>,
}

impl Case {
    fn policy(&self) -> Box<dyn Policy> {
        match self.policy {
            Some(name) => policy_by_name(name).unwrap(),
            None => Box::new(ChurnFifo::new(self.churn.clone())),
        }
    }

    fn n_models(&self) -> usize {
        match self.models {
            Models::FpAndW4a4 => 2,
            _ => 1,
        }
    }
}

/// The generator: one scenario from `seed`. `reference` supplies the
/// first sampled token of the requests made to stop on it.
fn generate(models: Models, threads: usize, seed: u64, reference: &RefEngine<'_>) -> Case {
    let rng = &mut StdRng::seed_from_u64(seed);
    let mut case = Case {
        models,
        policy: POLICY_NAMES
            .get(rng.gen_range(0..POLICY_NAMES.len() + 1))
            .copied(),
        churn: (0..rng.gen_range(1..12))
            .map(|_| (rng.gen_range(0..4), rng.gen_range(0..8)))
            .collect(),
        cfg: EngineConfig {
            slots: rng.gen_range(1..5),
            max_steps: u64::MAX,
            prefill_chunk: [1, 2, 3, 4, 16][rng.gen_range(0..5)],
            threads,
            token_budget: rng
                .gen_bool(0.3)
                .then(|| TokenBudget::new(rng.gen_range(1..24), rng.gen_range(1..60)).unwrap()),
            prefix_cache: rng.gen_bool(0.25).then(|| rng.gen_range(1..4)),
        },
        queue_limit: rng.gen_bool(0.2).then(|| rng.gen_range(2..6)),
        faults: rng
            .gen_bool(0.25)
            .then(|| (rng.gen(), rng.gen_range(0.05..0.4))),
        waves: Vec::new(),
        cancels: Vec::new(),
    };
    let prefix: Vec<u32> = (0..rng.gen_range(2..6))
        .map(|_| rng.gen_range(0..256))
        .collect();
    let (marked, sessions) = (rng.gen_bool(0.5), rng.gen_bool(0.4));
    // Overflow the parked sessions: a first wave of a few more session
    // turns than the engine parks, so that the later waves' turns (all
    // session turns) resume the oldest-parked sessions around the
    // eviction boundary.
    let overflow = sessions && rng.gen_bool(0.08);
    if overflow {
        (case.queue_limit, case.faults) = (None, None);
    }
    let mut id = 0;
    for w in 0..rng.gen_range(1 + usize::from(overflow)..4) {
        let mut wave = Vec::new();
        let (mut arrival, mut next_session) = (0, 0);
        let big = overflow && w == 0;
        let n = if big {
            SESSIONS + rng.gen_range(2..6)
        } else {
            rng.gen_range(1..9)
        };
        for _ in 0..n {
            arrival += rng.gen_range(0..4);
            let prompt = (0..rng.gen_range(1..7))
                .map(|_| rng.gen_range(0..256))
                .collect();
            let mut r = GenRequest::greedy(id, prompt, rng.gen_range(1..7))
                .on_model(rng.gen_range(0..case.n_models()))
                .with_priority(Priority::ALL[rng.gen_range(0..3)]);
            id += 1;
            r.seed = rng.gen();
            r.arrival_step = arrival;
            r.sampler = [
                Sampler::Greedy,
                Sampler::Temperature(0.8),
                Sampler::TopK {
                    k: 8,
                    temperature: 0.9,
                },
            ][rng.gen_range(0..3)];
            r.deadline_steps = match rng.gen_range(0..8) {
                0 => Some(0),
                1 | 2 => Some(rng.gen_range(2..30)),
                _ => None,
            };
            if big {
                // No deadline: bar a cancel, every turn of the
                // overflowing wave finishes and parks.
                r.deadline_steps = None;
            } else if rng.gen_bool(0.05) {
                r.max_new_tokens = usize::MAX;
                r.deadline_steps = Some(rng.gen_range(0..30));
            }
            if sessions && (overflow || rng.gen_bool(0.5)) {
                // One turn per session per wave, always on one model.
                r.session = Some(next_session);
                r.model = next_session as usize % case.n_models();
                next_session += 1;
            }
            if marked && rng.gen_bool(0.6) {
                r.prompt = [prefix.clone(), r.prompt].concat();
                r.shared_prefix = Some(prefix.len());
            }
            if rng.gen_bool(0.1) {
                let len = r.prompt.len();
                r.shared_prefix = Some([0, len, len + 2][rng.gen_range(0..3)]);
            }
            r.eos_token = match rng.gen_range(0..10) {
                0 if r.session.is_none() => Some(reference.decode(&r, 1)[0]),
                1 => Some(rng.gen_range(0..256)),
                _ => None,
            };
            wave.push(r);
        }
        case.waves.push(wave);
    }
    case.cancels = (0..rng.gen_range(0..5))
        .map(|_| (rng.gen_range(0..40), rng.gen_range(0..id)))
        .collect();
    case
}

/// The scenario's registry: each backend wrapped in its own seeded
/// chaos plan when the scenario injects faults.
fn registry<'m>(case: &Case, fp: &'m MambaModel, q: &QuantizedMamba) -> ModelRegistry<'m> {
    let fp = || Box::new(FpBackend::new(fp)) as Box<dyn DecodeBackend + 'm>;
    let w4a4 = || Box::new(W4A4Backend::new(q.clone())) as Box<dyn DecodeBackend + 'm>;
    let backends = match case.models {
        Models::Fp => vec![("fp", fp())],
        Models::W4a4 => vec![("w4a4", w4a4())],
        Models::FpAndW4a4 => vec![("fp", fp()), ("w4a4", w4a4())],
    };
    let mut reg = ModelRegistry::new();
    for (k, (name, backend)) in backends.into_iter().enumerate() {
        let backend = match case.faults {
            Some((seed, rate)) => {
                let plan = FaultPlan::seeded(seed ^ k as u64, 400, rate);
                Box::new(ChaosBackend::new(backend, plan))
            }
            None => backend,
        };
        reg.register(name, backend).unwrap();
    }
    reg
}

fn finished(c: &Completion) -> bool {
    matches!(c.finish, FinishReason::MaxTokens | FinishReason::Eos)
}

/// The tiny FP model and its W4A4 quantization, built once per run.
fn tiny_pair() -> &'static (MambaModel, QuantizedMamba) {
    static PAIR: OnceLock<(MambaModel, QuantizedMamba)> = OnceLock::new();
    PAIR.get_or_init(|| {
        let fp = tiny_model();
        let q = tiny_w4a4(&fp);
        (fp, q)
    })
}

fn check(models: Models, seed: u64, threads: usize) -> Result<(), TestCaseError> {
    let (fp, q) = tiny_pair();
    let ref_models = match models {
        Models::Fp => vec![RefModel::Fp(fp)],
        Models::W4a4 => vec![RefModel::W4a4(q)],
        Models::FpAndW4a4 => vec![RefModel::Fp(fp), RefModel::W4a4(q)],
    };
    let probe = RefEngine::new(ref_models.clone(), EngineConfig::default(), None);
    let case = generate(models, threads, seed, &probe);
    let mut engine = ServeEngine::with_registry(registry(&case, fp, q), case.cfg).unwrap();
    engine.set_resilience(ResilienceConfig {
        queue_limit: case.queue_limit,
        ..ResilienceConfig::default()
    });
    let mut reference = RefEngine::new(ref_models, case.cfg, case.queue_limit);
    let (mut policy, mut ref_policy) = (case.policy(), case.policy());

    // Each request as the reference sees it: a session turn that
    // resumes carries the session's whole history in its prompt (the
    // reference ignores the session tag). `parked` models the engine's
    // session LRU: histories in park order, the oldest evicted.
    let mut effective: HashMap<RequestId, GenRequest> = HashMap::new();
    let mut parked: VecDeque<(u64, Vec<u32>)> = VecDeque::new();
    let mut resumed = false;
    for wave in &case.waves {
        let (start, retired) = (engine.clock(), engine.completions().len());
        let mut turns = Vec::new();
        for r in wave {
            let mut r = r.clone();
            r.arrival_step += start;
            let mut eff = r.clone();
            let at = r
                .session
                .and_then(|sid| parked.iter().position(|p| p.0 == sid));
            if let Some((_, past)) = at.and_then(|at| parked.remove(at)) {
                eff.prompt = [past, r.prompt.clone()].concat();
                resumed = true;
            }
            effective.insert(r.id, eff);
            turns.push(r);
        }
        reference.submit(turns.iter().map(|r| effective[&r.id].clone()).collect());
        engine.submit(turns).unwrap();
        let cancels_at = |clock| case.cancels.iter().filter(move |c| c.0 == clock);
        while engine.has_work() {
            prop_assert!(engine.clock() < 20_000, "the engine never drained");
            for &(_, id) in cancels_at(engine.clock()) {
                engine.cancel(id);
            }
            engine.step(policy.as_mut()).unwrap();
            let held = engine.free_slots() + engine.active_count();
            prop_assert_eq!(
                held,
                case.cfg.slots,
                "slots leaked by step {}",
                engine.clock()
            );
        }
        while reference.has_work() {
            for &(_, id) in cancels_at(reference.clock()) {
                reference.cancel(id);
            }
            reference.step(ref_policy.as_mut());
        }
        prop_assert_eq!(engine.paused_count(), 0);
        prop_assert_eq!(engine.pending_resumes(), 0);
        for c in &engine.completions()[retired..] {
            let turn = &effective[&c.id];
            if let (Some(sid), true) = (turn.session, finished(c)) {
                parked.push_back((sid, [turn.prompt.clone(), c.tokens.clone()].concat()));
                if parked.len() > SESSIONS {
                    parked.pop_front();
                }
            }
        }
    }

    // Exactly once, and the report agrees with the completions.
    let done = engine.completions();
    let mut ids: Vec<RequestId> = done.iter().map(|c| c.id).collect();
    ids.sort_unstable();
    prop_assert_eq!(ids, (0..effective.len() as u64).collect::<Vec<_>>());
    let report = engine.report(policy.as_ref());
    let of = |f: FinishReason| done.iter().filter(|c| c.finish == f).count();
    use FinishReason::*;
    let counts = (report.completed, report.evicted, report.cancellations);
    prop_assert_eq!(
        counts,
        (of(MaxTokens) + of(Eos), of(DeadlineExceeded), of(Cancelled))
    );
    prop_assert_eq!((report.failed, report.rejected), (of(Failed), of(Rejected)));
    prop_assert!(case.queue_limit.is_some() || report.rejected == 0);
    for c in done {
        let shed = c.finish == Rejected;
        prop_assert_eq!(c.retry_after_steps.is_some(), shed, "request {}", c.id);
        prop_assert!(!shed || c.tokens.is_empty());
    }
    let per_model: usize = report.per_model.iter().map(|m| m.completed).sum();
    prop_assert_eq!(per_model, report.completed);
    let paused: u64 = done.iter().map(|c| u64::from(c.preemptions)).sum();
    prop_assert_eq!(report.preemptions, paused);
    prop_assert!(report.resumes <= report.preemptions);
    let t = &report.trace;
    let deferred: usize = t.budget_deferred_per_step.iter().sum();
    prop_assert_eq!(report.budget_deferrals, deferred as u64);
    // Each step's per-model trace rows partition its totals.
    for (sub, &total) in t.sub_processed_per_step.iter().zip(&t.processed_per_step) {
        prop_assert_eq!(
            (sub.len(), sub.iter().sum::<usize>()),
            (case.n_models(), total)
        );
    }
    for (sub, &total) in t
        .sub_state_moves_per_step
        .iter()
        .zip(&t.state_moves_per_step)
    {
        prop_assert_eq!(
            (sub.len(), sub.iter().sum::<usize>()),
            (case.n_models(), total)
        );
    }

    // Token-budget caps, outside the valve's lone oversized resident.
    if let Some(budget) = case.cfg.token_budget {
        for (step, &batch) in t.batch_per_step.iter().enumerate() {
            let over = t.prefill_per_step[step] > budget.max_prefill_tokens_per_step
                || t.resident_tokens_per_step[step] > budget.max_total_tokens;
            prop_assert!(
                !over || batch == 1,
                "step {} broke the budget with {} residents",
                step,
                batch
            );
        }
    }

    // Without a chaos plan nothing faults; with the cache off, prefix
    // markers are inert.
    let lookups = report.prefix_hits + report.prefix_misses;
    prop_assert!(case.faults.is_some() || report.backend_faults == 0);
    prop_assert!(case.cfg.prefix_cache.is_some() || lookups == 0);
    let exact = !resumed && report.backend_faults == 0 && lookups == 0;
    if exact {
        // Same retirements, reasons, stamps and tokens, in order.
        prop_assert_eq!(done.len(), reference.completions().len());
        for (got, want) in done.iter().zip(reference.completions()) {
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
    } else {
        for c in done.iter().filter(|c| c.finish != FinishReason::Failed) {
            // One token past a finish shows a late stop.
            let limit = c.tokens.len() + usize::from(finished(c));
            let want = reference.decode(&effective[&c.id], limit);
            prop_assert_eq!(&c.tokens, &want, "request {} diverged", c.id);
        }
    }
    Ok(())
}

fn threads() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(4)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fp_engine_matches_the_reference(seed in any::<u64>(), threads in threads()) {
        check(Models::Fp, seed, threads)?;
    }

    #[test]
    fn w4a4_engine_matches_the_reference(seed in any::<u64>(), threads in threads()) {
        check(Models::W4a4, seed, threads)?;
    }

    #[test]
    fn fp_and_w4a4_engine_matches_the_reference(seed in any::<u64>(), threads in threads()) {
        check(Models::FpAndW4a4, seed, threads)?;
    }
}
