//! The serving extension of Fig. 9a: nine rows of the experiment table.
//!
//! The paper projects one decode stream (7.21 tokens/s W4A4 on VCK190).
//! These rows run `lightmamba_serve`'s continuous-batching engine on a
//! tiny synthetic model and price its step traces on the 2.7B design
//! point, where every resident sequence — and every backend multiplexed
//! on one slot pool, each priced with its own weight-stream width —
//! shares each weight stream. They check two consequences of the
//! paper's design: W4A4 out-serves FP because it streams ~4x fewer weight
//! bytes on the bandwidth-bound VCK190, and Mamba's fixed-size state
//! makes preemption, sessions and prefix reuse one state move each.
//!
//! Every row runs one configuration — prefill chunk [`PREFILL_CHUNK`],
//! one engine thread, the fp + w4a4 pool unless the row compares
//! backends, seeded traffic — so every printed digit is reproducible.

use std::collections::HashMap;

use lightmamba_accel::platform::Platform;
use lightmamba_model::{MambaConfig, MambaModel, ModelPreset};
use lightmamba_quant::pipeline::{quantize_model, Method, QuantSpec};
use lightmamba_quant::QuantizedMamba;
use lightmamba_serve::accel_cost::{calibrate_token_budget, MultiplexCostModel, MultiplexedRun};
use lightmamba_serve::backend::{DecodeBackend, FpBackend, W4A4Backend};
use lightmamba_serve::chaos::{ChaosBackend, FaultKind, FaultPlan};
use lightmamba_serve::engine::{EngineConfig, ServeEngine};
use lightmamba_serve::metrics::{Percentiles, ServeReport};
use lightmamba_serve::registry::ModelRegistry;
use lightmamba_serve::request::{FinishReason, GenRequest};
use lightmamba_serve::resilience::ResilienceConfig;
use lightmamba_serve::scheduler::{
    policy_by_name, Fifo, Policy, StaticBatching, TokenBudget, WeightedFair, POLICY_NAMES,
};
use lightmamba_serve::traffic::{TrafficGenerator, TrafficScenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::Outcome;

/// The substitution every serving row makes.
pub(super) const NOTE: &str = "engine runs a tiny synthetic model (prefill chunk 4, one thread); \
                                step traces are costed on the VCK190 2.7B design points";

/// Prompt tokens one prefilling sequence may consume per engine step.
const PREFILL_CHUNK: usize = 4;
/// Arrival horizon of the policy, preemption and chaos rows.
const HORIZON: u64 = 150;
/// Share of the session row's sessions whose client hangs up
/// mid-first-turn.
const CANCEL_RATE: f64 = 0.25;
/// Approximate share of engine steps a chaos fault window covers.
const FAULT_RATE: f64 = 0.05;
/// Seed of the chaos row's fault schedule.
const FAULT_SEED: u64 = 7;
/// The preemption row's policies: each plain policy, then its
/// preemptive twin.
const PREEMPT_POLICIES: [&str; 4] = ["edf", "edf-preempt", "priority", "priority-preempt"];

/// `hit% (hits/total)` of a run's deadline-carrying requests.
fn deadline_hits(r: &ServeReport) -> String {
    format!(
        "{:.0}% ({}/{})",
        hit_rate(r) * 100.0,
        r.deadline_hits,
        r.deadline_total
    )
}

fn hit_rate(r: &ServeReport) -> f64 {
    r.deadline_hit_rate().unwrap_or(0.0)
}

/// `p50 / mean` of a step-denominated latency.
fn p50_mean(p: &Percentiles) -> String {
    format!("{:.1} / {:.1}", p.p50, p.mean)
}

/// A one-backend run's processed-token rate over that backend's
/// single-stream decode rate.
fn vs_single_stream(run: &MultiplexedRun) -> f64 {
    run.processed_tokens_per_s / run.per_model[0].single_stream_tokens_per_s
}

/// Which of the tiny host model's two precisions a backend runs.
enum Kind {
    Fp,
    W4a4,
}

/// One registry entry: a backend kind under a name, optionally behind a
/// seeded fault plan.
struct Entry<'p> {
    name: &'static str,
    kind: Kind,
    faults: Option<&'p FaultPlan>,
}

const FP: Entry<'static> = Entry {
    name: "fp",
    kind: Kind::Fp,
    faults: None,
};
const W4A4: Entry<'static> = Entry {
    name: "w4a4",
    kind: Kind::W4a4,
    faults: None,
};

/// What one engine (and the cost model pricing it) is built from;
/// everything else is the one configuration ([`Ctx::engine`]).
#[derive(Default)]
struct Setup<'p> {
    pool: Vec<Entry<'p>>,
    slots: usize,
    prefix_cache: bool,
    token_budget: Option<TokenBudget>,
    resilience: ResilienceConfig,
}

impl<'p> Setup<'p> {
    fn new(pool: Vec<Entry<'p>>, slots: usize) -> Self {
        Setup {
            pool,
            slots,
            ..Setup::default()
        }
    }
}

/// Everything the rows share: the tiny host model in both precisions and
/// the design point its traces are priced on.
struct Ctx {
    model: MambaModel,
    quantized: QuantizedMamba,
    platform: Platform,
    big: MambaConfig,
}

impl Ctx {
    fn new() -> Self {
        let model = MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(42))
            .expect("tiny config is valid");
        let quantized = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[])
            .expect("tiny model quantizes");
        Ctx {
            model,
            quantized,
            platform: Platform::vck190(),
            big: MambaConfig::preset(ModelPreset::B2_7),
        }
    }

    fn registry(&self, pool: &[Entry<'_>]) -> ModelRegistry<'_> {
        let mut registry = ModelRegistry::new();
        for entry in pool {
            let mut backend: Box<dyn DecodeBackend + '_> = match entry.kind {
                Kind::W4a4 => Box::new(W4A4Backend::new(self.quantized.clone())),
                Kind::Fp => Box::new(FpBackend::new(&self.model)),
            };
            if let Some(plan) = entry.faults {
                backend = Box::new(ChaosBackend::new(backend, plan.clone()));
            }
            registry
                .register(entry.name, backend)
                .expect("pool names are unique");
        }
        registry
    }

    /// The one engine + cost-model builder: `setup`'s registry, priced
    /// on the design point, behind an engine with the one configuration.
    fn engine(&self, setup: &Setup<'_>) -> (ServeEngine<'_>, MultiplexCostModel) {
        let registry = self.registry(&setup.pool);
        let cost = MultiplexCostModel::for_registry(&registry, &self.platform, &self.big)
            .expect("non-empty registry");
        let mut engine = ServeEngine::with_registry(
            registry,
            EngineConfig {
                slots: setup.slots,
                max_steps: 1_000_000,
                prefill_chunk: PREFILL_CHUNK,
                threads: 1,
                prefix_cache: setup.prefix_cache.then_some(setup.slots),
                token_budget: setup.token_budget,
            },
        )
        .expect("valid config");
        engine.set_resilience(setup.resilience);
        (engine, cost)
    }

    /// Seeded open-loop traffic over `horizon` steps, dealt round-robin
    /// over `models` backends.
    fn requests(
        &self,
        scenario: TrafficScenario,
        seed: u64,
        models: usize,
        horizon: u64,
    ) -> Vec<GenRequest> {
        TrafficGenerator::new(scenario, self.model.config().vocab_size, seed)
            .with_models(models)
            .generate(horizon)
    }

    /// The deadline-heavy mix over the fp + w4a4 pool — the policy and
    /// chaos rows' shared trace.
    fn deadline_heavy(&self) -> Vec<GenRequest> {
        self.requests(TrafficScenario::deadline_heavy(0.5), 7, 2, HORIZON)
    }

    /// The one priced-run recipe: builds `setup`'s engine, drains
    /// `requests` under `policy`, and prices the trace on the design
    /// point.
    fn priced_run(
        &self,
        setup: &Setup<'_>,
        requests: Vec<GenRequest>,
        policy: &mut dyn Policy,
    ) -> (ServeReport, MultiplexedRun) {
        let (mut engine, mut cost) = self.engine(setup);
        engine.submit(requests).expect("generator output is sorted");
        let report = engine.run(policy).expect("run drains");
        let run = cost
            .cost_run(&report, engine.completions())
            .expect("trace matches registry");
        (report, run)
    }

    /// A burst of 64 served by one 16-slot `pool` under FIFO.
    fn burst(&self, pool: Vec<Entry<'_>>) -> MultiplexedRun {
        let models = pool.len();
        let requests = self.requests(TrafficScenario::burst(64), 7, models, 1);
        let (_, run) = self.priced_run(&Setup::new(pool, 16), requests, &mut Fifo);
        run
    }
}

/// The deadline-heavy mix under every continuous-batching admission
/// policy (static batching is the slot row's baseline) on the same trace.
pub(super) fn policy() -> Outcome {
    let ctx = Ctx::new();
    let mut rows = Vec::new();
    let mut rates = HashMap::new();
    for name in POLICY_NAMES.into_iter().filter(|n| *n != "static") {
        let mut policy: Box<dyn Policy> = match name {
            // Favor the fp backend 2:1 so WFQ's share split shows
            // (`policy_by_name`'s wfq weighs equal).
            "wfq" => Box::new(WeightedFair::new(vec![2.0, 1.0])),
            _ => policy_by_name(name).expect("POLICY_NAMES entry"),
        };
        let (report, run) = ctx.priced_run(
            &Setup::new(vec![FP, W4A4], 16),
            ctx.deadline_heavy(),
            policy.as_mut(),
        );
        rows.push(vec![
            name.to_string(),
            report.completed.to_string(),
            report.evicted.to_string(),
            report.preemptions.to_string(),
            deadline_hits(&report),
            format!("{:.1}", report.per_class[0].queue_steps.p90),
            format!("{:.1}", report.ttft_steps.p50),
            format!("{:.1}", run.seconds),
        ]);
        rates.insert(name, hit_rate(&report));
    }
    let mut out = Outcome::default();
    out.table(
        &[
            "policy",
            "completed",
            "evicted",
            "preempt",
            "deadline hits",
            "chat queue p90",
            "TTFT p50 (steps)",
            "run (s)",
        ],
        &rows,
    );
    let pct = |name: &str| format!("{name} {:.0}%", rates[name] * 100.0);
    out.check(
        "EDF hits strictly more deadlines than FIFO",
        rates["edf"] > rates["fifo"],
        format!("{} vs {}", pct("edf"), pct("fifo")),
    );
    out.check(
        "every deadline-aware policy hits at least as many deadlines as FIFO",
        PREEMPT_POLICIES.iter().all(|p| rates[p] >= rates["fifo"]),
        PREEMPT_POLICIES.map(pct).join(", ") + &format!(" vs {}", pct("fifo")),
    );
    out
}

/// The preemption-heavy scenario (deadline-free hogs camping on slots +
/// tight-deadline chat) under each plain policy and its preemptive twin;
/// pause/resume is priced as state transfers on the shared stream.
pub(super) fn preempt() -> Outcome {
    let ctx = Ctx::new();
    let runs = PREEMPT_POLICIES.map(|name| {
        ctx.priced_run(
            &Setup::new(vec![FP, W4A4], 8),
            ctx.requests(TrafficScenario::preemption_heavy(0.6), 7, 2, HORIZON),
            policy_by_name(name).expect("valid name").as_mut(),
        )
    });
    let rows: Vec<Vec<String>> = PREEMPT_POLICIES
        .iter()
        .zip(&runs)
        .map(|(name, (report, run))| {
            vec![
                name.to_string(),
                report.completed.to_string(),
                report.evicted.to_string(),
                deadline_hits(report),
                report.preemptions.to_string(),
                format!("{:.1}", report.resume_latency_steps.p50),
                format!("{:.2}", run.state_transfer_s * 1e3),
                format!("{:.1}", run.seconds),
            ]
        })
        .collect();
    let mut out = Outcome::default();
    out.table(
        &[
            "policy",
            "completed",
            "evicted",
            "deadline hits",
            "preempt",
            "resume p50",
            "state xfer (ms)",
            "run (s)",
        ],
        &rows,
    );
    let [(edf, _), (edf_pre, _), (prio, _), (prio_pre, _)] = &runs;
    out.check(
        "each preemptive policy hits strictly more deadlines than its plain twin",
        hit_rate(edf_pre) > hit_rate(edf) && hit_rate(prio_pre) > hit_rate(prio),
        format!(
            "{} vs {}, {} vs {}",
            deadline_hits(edf_pre),
            deadline_hits(edf),
            deadline_hits(prio_pre),
            deadline_hits(prio)
        ),
    );
    out.check(
        "the plain twins pause nobody",
        edf.preemptions == 0 && prio.preemptions == 0,
        format!("{} and {} preemptions", edf.preemptions, prio.preemptions),
    );
    let xfer = runs
        .iter()
        .map(|(_, run)| run.state_transfer_s / run.seconds)
        .fold(0.0, f64::max);
    out.check(
        "preemption is nearly free: state transfer stays below 1% of the run",
        xfer < 0.01,
        format!("at most {:.3}%", xfer * 100.0),
    );
    out
}

/// Outcome of one closed-loop chat run (either session path).
struct ChatRun {
    report: ServeReport,
    run: MultiplexedRun,
    follow_up_ttft_steps: Percentiles,
    /// Session-tagged follow-ups that found no parked state.
    cold_turns: usize,
    prefill_tokens_saved: u64,
}

/// Multi-turn chat sessions, closed-loop (a session's next turn departs
/// only after the prior reply lands). On the resume path every turn is
/// session-tagged, so the engine parks each turn's final Mamba state and
/// restores it for the follow-up — one fixed-size state transfer — and a
/// follow-up carries only the user's new message; the re-prefill
/// baseline replays the whole conversation as prompt every turn. A
/// deterministic [`CANCEL_RATE`] share of the sessions hangs up
/// mid-first-turn on both paths, so the cancellation waste is priced
/// identically.
pub(super) fn sessions() -> Outcome {
    const SESSIONS: usize = 8;
    const TURNS: usize = 3;
    let ctx = Ctx::new();
    let doomed = (CANCEL_RATE * SESSIONS as f64).floor() as u64;

    // Same conversation material for both paths: openers from the
    // chat_sessions scenario (session `sid` lives on backend `sid % 2`),
    // follow-up turns drawn up front.
    let vocab = ctx.model.config().vocab_size;
    let mut traffic =
        TrafficGenerator::new(TrafficScenario::chat_sessions(SESSIONS), vocab, 7).with_models(2);
    let openers = traffic.generate(1);
    let follow_ups: Vec<Vec<(Vec<u32>, usize)>> = (0..SESSIONS)
        .map(|_| (1..TURNS).map(|_| traffic.follow_up_turn()).collect())
        .collect();

    let resume = drive_chat(&ctx, true, &openers, &follow_ups, doomed);
    let reprefill = drive_chat(&ctx, false, &openers, &follow_ups, doomed);

    let rows: Vec<Vec<String>> = [("resume", &resume), ("re-prefill", &reprefill)]
        .into_iter()
        .map(|(name, chat)| {
            vec![
                name.to_string(),
                chat.report.completed.to_string(),
                chat.report.cancellations.to_string(),
                chat.report.prefill_tokens.to_string(),
                p50_mean(&chat.follow_up_ttft_steps),
                format!("{:.2}", chat.run.state_transfer_s * 1e3),
                format!("{:.3}", chat.run.wasted_work_s),
                format!("{:.1}", chat.run.seconds),
            ]
        })
        .collect();
    let mut out = Outcome::default();
    out.table(
        &[
            "path",
            "completed",
            "cancelled",
            "prefill toks",
            "turn-2+ TTFT p50/mean",
            "state xfer (ms)",
            "wasted (s)",
            "run (s)",
        ],
        &rows,
    );
    out.line(format!(
        "  resume skipped {} prefill token-advances across {} resumes ({} cold turns)",
        resume.prefill_tokens_saved, resume.report.session_restores, resume.cold_turns
    ));
    let (ttft, base_ttft) = (
        &resume.follow_up_ttft_steps,
        &reprefill.follow_up_ttft_steps,
    );
    out.check(
        "resuming a parked state reaches follow-up first tokens sooner than re-prefilling",
        ttft.mean < base_ttft.mean,
        format!("TTFT mean {:.2} vs {:.2} steps", ttft.mean, base_ttft.mean),
    );
    let (fed, base_fed) = (
        resume.report.prefill_tokens,
        reprefill.report.prefill_tokens,
    );
    out.check(
        "resume prefills fewer tokens",
        fed < base_fed,
        format!("{fed} vs {base_fed}"),
    );
    let (done, base_done) = (resume.report.completed, reprefill.report.completed);
    out.check(
        "both paths complete the same count",
        done == base_done,
        format!("{done} vs {base_done}"),
    );
    out
}

/// Drives one closed-loop chat run: openers up front, each follow-up
/// turn (one per entry of a session's `follow_ups`) submitted only once
/// the prior turn's reply completes. On the resume path follow-ups are
/// session-tagged and resume the state the engine parked; on the
/// baseline they re-prefill the full history. Sessions `0..doomed` are
/// cancelled a few steps in — the client hung up.
fn drive_chat(
    ctx: &Ctx,
    resume: bool,
    openers: &[GenRequest],
    follow_ups: &[Vec<(Vec<u32>, usize)>],
    doomed: u64,
) -> ChatRun {
    const CANCEL_AT: u64 = 4;
    let (mut engine, mut cost) = ctx.engine(&Setup::new(vec![FP, W4A4], 8));

    // Opener ids are 0..n (session id == opener id); follow-up turns
    // take fresh ids from n upward — always the count issued so far.
    let mut submit = openers.to_vec();
    for (sid, req) in submit.iter_mut().enumerate() {
        req.session = resume.then_some(sid as u64);
    }
    engine.submit(submit).expect("openers arrive together");

    let mut policy = Fifo;
    let mut history: Vec<Vec<u32>> = openers.iter().map(|r| r.prompt.clone()).collect();
    // Each id's session, turn, and prompt length as the engine feeds it.
    let mut turn_of: HashMap<u64, (usize, usize, usize)> = openers
        .iter()
        .enumerate()
        .map(|(sid, r)| (sid as u64, (sid, 0, r.prompt.len())))
        .collect();
    let mut cursor = 0usize;
    let mut follow_ttfts: Vec<f64> = Vec::new();
    let mut session_follow_ups = 0usize;
    let mut prefill_tokens_saved = 0u64;
    let mut cancels_sent = false;

    while engine.has_work() {
        if !cancels_sent && engine.clock() >= CANCEL_AT {
            for id in 0..doomed {
                engine.cancel(id);
            }
            cancels_sent = true;
        }
        engine.step(&mut policy).expect("step succeeds");
        while cursor < engine.completions().len() {
            let c = engine.completions()[cursor].clone();
            cursor += 1;
            let (sid, turn, fed) = turn_of[&c.id];
            follow_ttfts.extend(c.ttft_steps().filter(|_| turn > 0).map(|t| t as f64));
            if !matches!(c.finish, FinishReason::MaxTokens | FinishReason::Eos) {
                continue; // disconnected session: no further turns
            }
            history[sid].extend_from_slice(&c.tokens);
            let Some((fprompt, gen)) = follow_ups[sid].get(turn).cloned() else {
                continue;
            };
            let id = turn_of.len() as u64;
            let mut req = GenRequest::greedy(id, fprompt.clone(), gen).on_model(sid % 2);
            req.arrival_step = engine.clock();
            if resume {
                // The parked state holds this turn's prompt and all but
                // its last (pending) token, which the resume prepends.
                req.session = Some(sid as u64);
                session_follow_ups += 1;
                prefill_tokens_saved += (fed + c.tokens.len() - 1) as u64;
            } else {
                req.prompt = [history[sid].as_slice(), fprompt.as_slice()].concat();
            }
            turn_of.insert(id, (sid, turn + 1, req.prompt.len() + usize::from(resume)));
            engine
                .submit(vec![req])
                .expect("arrival stamps are monotone");
            history[sid].extend_from_slice(&fprompt);
        }
    }

    let report = engine.report(&policy);
    let run = cost
        .cost_run(&report, engine.completions())
        .expect("trace matches registry");
    ChatRun {
        cold_turns: session_follow_ups - report.session_restores as usize,
        report,
        run,
        follow_up_ttft_steps: Percentiles::of(&follow_ttfts),
        prefill_tokens_saved,
    }
}

/// The deadline-heavy mix with a seeded fault schedule — injected step
/// errors, backend panics, latency spikes and restore corruption on both
/// backends — run twice on the *identical* schedule: once with
/// quarantine + bounded-queue shedding, once with the fault layer
/// containing but never mitigating ([`ResilienceConfig::none`]). The
/// injected panics are caught by the engine; the default hook still
/// prints them to stderr.
pub(super) fn chaos() -> Outcome {
    let ctx = Ctx::new();
    // The schedule outlives the arrival window so faults also land on
    // the drain tail, exactly like a transient that ignores load.
    let plan_fp = FaultPlan::seeded(FAULT_SEED, HORIZON + 200, FAULT_RATE);
    let plan_w4 = FaultPlan::seeded(FAULT_SEED ^ 0x9e37_79b9, HORIZON + 200, FAULT_RATE);
    let panic_windows = [&plan_fp, &plan_w4]
        .iter()
        .flat_map(|p| p.windows())
        .filter(|w| w.kind == FaultKind::Panic)
        .count();

    let run = |resilience: ResilienceConfig| {
        let mut setup = Setup::new(vec![FP, W4A4], 16);
        setup.pool[0].faults = Some(&plan_fp);
        setup.pool[1].faults = Some(&plan_w4);
        setup.resilience = resilience;
        // Faults are contained: the engine itself must survive the
        // schedule, so the run still drains.
        ctx.priced_run(&setup, ctx.deadline_heavy(), &mut Fifo).0
    };
    let mitigated = run(ResilienceConfig {
        queue_limit: Some(48),
        ..ResilienceConfig::default()
    });
    let exposed = run(ResilienceConfig::none());

    let mut out = Outcome::default();
    out.line(format!(
        "fault schedule: {} windows on fp, {} on w4a4, {panic_windows} of them worker panics",
        plan_fp.windows().len(),
        plan_w4.windows().len(),
    ));
    let rows: Vec<Vec<String>> = [("mitigated", &mitigated), ("no mitigation", &exposed)]
        .into_iter()
        .map(|(name, r)| {
            vec![
                name.to_string(),
                r.completed.to_string(),
                r.failed.to_string(),
                r.rejected.to_string(),
                r.backend_faults.to_string(),
                format!("{}/{}", r.quarantine_entries, r.quarantine_recoveries),
                format!("{:.1}%", availability(r) * 100.0),
                deadline_hits(r),
            ]
        })
        .collect();
    out.table(
        &[
            "run",
            "completed",
            "failed",
            "shed",
            "faults",
            "quarantine in/out",
            "availability",
            "deadline hits",
        ],
        &rows,
    );
    out.line(format!(
        "  mitigation converted {} failures into {} extra completions on the identical schedule",
        exposed.failed.saturating_sub(mitigated.failed),
        mitigated.completed.saturating_sub(exposed.completed),
    ));
    out.check(
        "quarantine + shedding completes at least as many requests as no mitigation",
        mitigated.completed >= exposed.completed,
        format!("{} vs {}", mitigated.completed, exposed.completed),
    );
    let (avail, base_avail) = (availability(&mitigated), availability(&exposed));
    out.check(
        "quarantine + shedding is at least as available as no mitigation",
        avail >= base_avail,
        format!("{:.1}% vs {:.1}%", avail * 100.0, base_avail * 100.0),
    );
    out
}

fn availability(r: &ServeReport) -> f64 {
    r.availability().unwrap_or(1.0)
}

/// The shared-system-prompt burst with the prefix cache on versus off
/// (identical traffic), throttled by a budget calibrated against both
/// backends' cycle models. With the cache on the engine prefills the
/// shared prompt once per model, snapshots the post-prefix state, and
/// every later bearer restores it (one state-transfer DMA) instead of
/// re-prefilling.
pub(super) fn prefix() -> Outcome {
    const TURNS: usize = 24;
    const PREFIX_LEN: usize = 24;
    const SLOTS: usize = 8;
    let ctx = Ctx::new();
    // Calibrate once, against the same registry shape the runs use.
    let budget = calibrate_token_budget(&ctx.registry(&[FP, W4A4]), &ctx.platform, &ctx.big, SLOTS)
        .expect("probe registry is non-empty");

    // Identical traffic for both runs: the generator stamps every
    // request with the same system prompt and the shared-prefix marker;
    // with the cache off the marker is inert.
    let scenario = TrafficScenario::shared_system_prompt(TURNS, PREFIX_LEN);
    let requests = ctx.requests(scenario, 11, 2, 1);
    let drive = |prefix_cache: bool| {
        let setup = Setup {
            prefix_cache,
            token_budget: Some(budget),
            ..Setup::new(vec![FP, W4A4], SLOTS)
        };
        ctx.priced_run(&setup, requests.clone(), &mut Fifo)
    };
    let (cached, cached_run) = drive(true);
    let (cold, cold_run) = drive(false);

    let mut out = Outcome::default();
    out.line(format!(
        "  calibrated token budget: {} prefill token-advances/step, {} resident tokens",
        budget.max_prefill_tokens_per_step, budget.max_total_tokens
    ));
    let rows: Vec<Vec<String>> = [
        ("cache on", &cached, &cached_run),
        ("cache off", &cold, &cold_run),
    ]
    .into_iter()
    .map(|(name, report, run)| {
        vec![
            name.to_string(),
            report.completed.to_string(),
            format!("{} / {}", report.prefix_hits, report.prefix_misses),
            report.prefill_tokens.to_string(),
            p50_mean(&report.ttft_steps),
            report.budget_deferrals.to_string(),
            format!("{:.2}", run.state_transfer_s * 1e3),
            format!("{:.1}", run.seconds),
        ]
    })
    .collect();
    out.table(
        &[
            "path",
            "completed",
            "hits / misses",
            "prefill toks",
            "TTFT p50/mean",
            "deferrals",
            "state xfer (ms)",
            "run (s)",
        ],
        &rows,
    );
    out.line(format!(
        "  cache hits skipped {} prefill token-advances across {} restores",
        cold.prefill_tokens.saturating_sub(cached.prefill_tokens),
        cached.prefix_hits
    ));
    out.check(
        "the cache changes when work happens, never whether it completes",
        cached.completed == cold.completed,
        format!("{} vs {}", cached.completed, cold.completed),
    );
    out.check(
        "a shared-prefix burst wider than the slot pool produces hits",
        cached.prefix_hits > 0,
        format!("{} hits", cached.prefix_hits),
    );
    out.check(
        "every hit skips the shared prefix's token-advances",
        cached.prefill_tokens < cold.prefill_tokens,
        format!(
            "{} vs {} prefill tokens",
            cached.prefill_tokens, cold.prefill_tokens
        ),
    );
    out.check(
        "restoring a cached state starts decode earlier than re-prefilling",
        cached.ttft_steps.mean < cold.ttft_steps.mean,
        format!(
            "TTFT mean {:.2} vs {:.2} steps",
            cached.ttft_steps.mean, cold.ttft_steps.mean
        ),
    );
    out
}

/// Four traffic scenarios under FIFO continuous batching at 16 slots,
/// one W4A4 backend alone.
pub(super) fn scenarios() -> Outcome {
    let ctx = Ctx::new();
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for scenario in [
        TrafficScenario::burst(64),
        TrafficScenario::chat(0.4),
        TrafficScenario::mixed(0.25),
        TrafficScenario::deadline_heavy(0.25),
    ] {
        let name = scenario.name;
        let (report, run) = ctx.priced_run(
            &Setup::new(vec![W4A4], 16),
            ctx.requests(scenario, 7, 1, 600),
            &mut Fifo,
        );
        let ratio = vs_single_stream(&run);
        ratios.push(ratio);
        rows.push(vec![
            name.to_string(),
            report.completed.to_string(),
            format!("{:.0}%", report.mean_occupancy * 100.0),
            format!("{:.2}", run.tokens_per_s),
            format!("{:.2}", run.processed_tokens_per_s),
            format!("{ratio:.2}x"),
            format!("{:.1}", run.per_model[0].ttft_s.p99),
        ]);
    }
    let mut out = Outcome::default();
    out.table(
        &[
            "scenario",
            "completed",
            "occupancy",
            "tok/s gen",
            "tok/s all",
            "vs 1-stream",
            "TTFT p99 (s)",
        ],
        &rows,
    );
    out.check(
        "every scenario processes tokens at least as fast as one decode stream",
        ratios.iter().all(|&r| r >= 1.0),
        format!("{ratios:.2?} x one stream"),
    );
    out
}

/// The burst at 1, 4, 16 and 64 slots, FIFO against static batching,
/// one W4A4 backend alone.
pub(super) fn slots() -> Outcome {
    let ctx = Ctx::new();
    let mut rows = Vec::new();
    // Per slot count: (FIFO steps, static steps, whether the state fits).
    let mut sweep = Vec::new();
    for slots in [1, 4, 16, 64] {
        let mut steps = [0; 2];
        let mut fits = true;
        let policies: [&mut dyn Policy; 2] = [&mut Fifo, &mut StaticBatching];
        for (i, policy) in policies.into_iter().enumerate() {
            let (report, run) = ctx.priced_run(
                &Setup::new(vec![W4A4], slots),
                ctx.requests(TrafficScenario::burst(64), 7, 1, 1),
                policy,
            );
            let w4a4 = &run.per_model[0];
            steps[i] = report.steps;
            fits = run.residency_ok;
            rows.push(vec![
                slots.to_string(),
                report.policy.to_string(),
                report.steps.to_string(),
                format!("{:.2}", run.processed_tokens_per_s),
                format!("{:.2}x", vs_single_stream(&run)),
                format!("{:.1}", w4a4.ttft_s.p50),
                format!("{:.1}", w4a4.e2e_s.p99),
                match run.residency_ok {
                    true => "yes".into(),
                    false => format!("no (max {})", run.max_resident_batch),
                },
            ]);
        }
        sweep.push((slots, steps, fits));
    }
    let mut out = Outcome::default();
    out.table(
        &[
            "slots",
            "policy",
            "steps",
            "tok/s all",
            "vs 1-stream",
            "TTFT p50 (s)",
            "e2e p99 (s)",
            "state fits URAM",
        ],
        &rows,
    );
    out.check(
        "FIFO never takes more steps than static batching at the same slot count",
        sweep.iter().all(|(_, [fifo, stat], _)| fifo <= stat),
        sweep
            .iter()
            .map(|(slots, [fifo, stat], _)| format!("{slots}: {fifo} vs {stat}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    let fits = |n: usize| sweep.iter().any(|&(slots, _, fits)| slots == n && fits);
    out.check(
        "the URAM bound admits 4 resident states and rejects 16",
        fits(4) && !fits(16),
        format!("4 fit: {}, 16 fit: {}", fits(4), fits(16)),
    );
    out
}

/// The same burst served by each backend alone, each priced with its own
/// weight-stream width.
pub(super) fn backends() -> Outcome {
    let ctx = Ctx::new();
    let [fp, w4] = [FP, W4A4].map(|entry| ctx.burst(vec![entry]).per_model.remove(0));
    let rows: Vec<Vec<String>> = [&fp, &w4]
        .map(|m| {
            vec![
                m.model.clone(),
                m.completed.to_string(),
                format!("{:.2}", m.processed_tokens_per_s),
                format!("{:.2}", m.single_stream_tokens_per_s),
                format!("{:.2e}", m.weight_stream_bytes_per_step),
                format!("{:.1}", m.ttft_s.p99),
            ]
        })
        .to_vec();
    let mut out = Outcome::default();
    out.table(
        &[
            "backend",
            "completed",
            "tok/s all",
            "1-stream tok/s",
            "stream B/step",
            "TTFT p99 (s)",
        ],
        &rows,
    );
    out.check(
        "W4A4 decodes one stream faster than FP",
        w4.single_stream_tokens_per_s > fp.single_stream_tokens_per_s,
        format!(
            "{:.2} vs {:.2} tokens/s",
            w4.single_stream_tokens_per_s, fp.single_stream_tokens_per_s
        ),
    );
    out.check(
        "W4A4 streams fewer weight bytes per step than FP",
        w4.weight_stream_bytes_per_step < fp.weight_stream_bytes_per_step,
        format!(
            "{:.2e} vs {:.2e}",
            w4.weight_stream_bytes_per_step, fp.weight_stream_bytes_per_step
        ),
    );
    out.check(
        "W4A4 serves the burst at least as fast as FP",
        w4.processed_tokens_per_s >= fp.processed_tokens_per_s,
        format!(
            "{:.2} vs {:.2} tokens/s",
            w4.processed_tokens_per_s, fp.processed_tokens_per_s
        ),
    );
    out
}

/// An fp and a w4a4 backend multiplexed on one slot pool under
/// symmetric round-robin traffic.
pub(super) fn multiplex() -> Outcome {
    let ctx = Ctx::new();
    let pool = vec![
        Entry { name: "fp-0", ..FP },
        Entry {
            name: "w4a4-1",
            ..W4A4
        },
    ];
    let mux = ctx.burst(pool);
    let rows: Vec<Vec<String>> = mux
        .per_model
        .iter()
        .map(|m| {
            vec![
                m.model.clone(),
                m.completed.to_string(),
                m.processed_tokens.to_string(),
                format!("{:.2}", m.seconds),
                format!("{:.2}", m.processed_tokens_per_s),
                format!("{:.1}", m.ttft_s.p99),
            ]
        })
        .collect();
    let mut out = Outcome::default();
    out.table(
        &[
            "model",
            "completed",
            "processed",
            "attrib s",
            "tok/s all",
            "TTFT p99 (s)",
        ],
        &rows,
    );
    let [fp, w4] = [0, 1].map(|i| mux.per_model[i].processed_tokens_per_s);
    out.check(
        "on one pool the W4A4 backend serves at least as fast as FP",
        w4 >= fp,
        format!("{w4:.2} vs {fp:.2} tokens/s"),
    );
    out
}
