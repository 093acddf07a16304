//! Serving traffic study: aggregate throughput and tail latency of the
//! continuous-batching engine across traffic scenarios, batch sizes,
//! admission policies, and execution backends, costed on the paper's
//! accelerator design points.
//!
//! This is the batched-serving extension of Fig. 9a: where the paper
//! projects one decode stream (7.21 tokens/s W4A4 on VCK190), this bench
//! projects a multi-tenant engine sharing each weight stream across all
//! resident sequences — and several named backends multiplexed on one
//! slot pool, each priced with its own stream width.
//!
//! `serve_traffic [--smoke] [--metrics-dump PATH] [--trace-out PATH]`
//! runs every study of [`STUDIES`] in one configuration (prefill chunk
//! [`PREFILL_CHUNK`], one engine thread, an fp + w4a4 pool):
//! * `policy` — the deadline-heavy mix under every continuous-batching
//!   admission policy on the same trace;
//! * `obs` — that trace's FIFO run with the full observability layer on;
//!   `--metrics-dump PATH` writes its Prometheus-style metrics snapshot
//!   and `--trace-out PATH` its two-lane Chrome trace (host wall clock +
//!   accelerator-projected virtual time; open it in `chrome://tracing`
//!   or Perfetto);
//! * `preempt` — the preemption-heavy scenario under non-preemptive vs
//!   preemptive EDF and priority, pause/resume priced as state transfers;
//! * `sessions` — closed-loop multi-turn chat resuming a parked Mamba
//!   state versus re-prefilling the conversation, with a
//!   [`CANCEL_RATE`] share of the sessions hanging up mid-turn;
//! * `chaos` — the deadline-heavy mix under a seeded fault schedule,
//!   quarantine + bounded-queue shedding versus no mitigation;
//! * `prefix` — the shared-system-prompt scenario with the prefix cache
//!   on versus off, throttled by a calibrated [`TokenBudget`];
//! * `scenarios`, `slots`, `single`, `multiplex` (full mode only) — the
//!   scenario sweep, the slot sweep against static batching, each
//!   backend alone, and [`MODELS`] backends multiplexed on one pool.
//!
//! `--smoke` (CI) shortens the horizons and skips the full-only studies.
//! A final `BENCH_JSON` line carries each study's numbers under its name.
//! Everything printed is seeded and step-denominated, so two runs print
//! the same bytes — except the dump sizes `--metrics-dump` /
//! `--trace-out` report, since the dumps carry wall-clock times.

use lightmamba::report::render_table;
use lightmamba_accel::arch::AcceleratorConfig;
use lightmamba_accel::platform::Platform;
use lightmamba_accel::sim::DecodeSimulator;
use lightmamba_model::{MambaConfig, MambaModel, ModelPreset};
use lightmamba_quant::pipeline::{quantize_model, Method, QuantSpec};
use lightmamba_quant::QuantizedMamba;
use lightmamba_serve::accel_cost::{calibrate_token_budget, MultiplexCostModel, MultiplexedRun};
use lightmamba_serve::backend::{DecodeBackend, FpBackend, W4A4Backend};
use lightmamba_serve::chaos::{ChaosBackend, FaultKind, FaultPlan};
use lightmamba_serve::engine::{EngineConfig, ServeEngine};
use lightmamba_serve::frontend::SessionStore;
use lightmamba_serve::metrics::{Percentiles, ServeReport};
use lightmamba_serve::observe::ObsConfig;
use lightmamba_serve::registry::ModelRegistry;
use lightmamba_serve::request::{FinishReason, GenRequest};
use lightmamba_serve::resilience::ResilienceConfig;
use lightmamba_serve::scheduler::{
    policy_by_name, Fifo, Policy, StaticBatching, TokenBudget, WeightedFair, POLICY_NAMES,
};
use lightmamba_serve::traffic::{TrafficGenerator, TrafficScenario};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt;
use std::process::ExitCode;

/// Prompt tokens one prefilling sequence may consume per engine step.
const PREFILL_CHUNK: usize = 4;
/// Backends the multiplex study registers on one pool (fp, w4a4, …).
const MODELS: usize = 2;
/// Share of the session study's sessions whose client hangs up
/// mid-first-turn.
const CANCEL_RATE: f64 = 0.25;
/// Approximate share of engine steps a chaos-study fault window covers.
const FAULT_RATE: f64 = 0.05;
/// Seed of the chaos study's fault schedule.
const FAULT_SEED: u64 = 7;

const SLOT_SWEEP: [usize; 4] = [1, 4, 16, 64];

/// The policies the study compares — every [`POLICY_NAMES`] entry
/// except static batching, which the slot sweep covers instead.
fn study_policies() -> impl Iterator<Item = &'static str> {
    POLICY_NAMES.into_iter().filter(|n| *n != "static")
}
/// The pairs the preemption study compares on the preemption-heavy
/// scenario.
const PREEMPT_POLICIES: [&str; 4] = ["edf", "edf-preempt", "priority", "priority-preempt"];

const USAGE: &str = "usage: serve_traffic [--smoke] [--metrics-dump PATH] [--trace-out PATH]";

#[derive(Default)]
struct Args {
    smoke: bool,
    metrics_dump: Option<String>,
    trace_out: Option<String>,
}

/// Reads the command line (program name excluded); the error names the
/// argument at fault.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        let path = match arg.as_str() {
            "--smoke" => {
                args.smoke = true;
                continue;
            }
            "--metrics-dump" => &mut args.metrics_dump,
            "--trace-out" => &mut args.trace_out,
            _ => return Err(format!("unknown argument {arg:?}")),
        };
        *path = Some(argv.next().ok_or(format!("{arg} needs a PATH"))?);
    }
    Ok(args)
}

fn make_policy(name: &str) -> Box<dyn Policy> {
    if name == "wfq" {
        // Favor the fp backend 2:1 so the per-model table shows the
        // share split WFQ enforces (policy_by_name's wfq weighs equal).
        return Box::new(WeightedFair::new(vec![2.0, 1.0]));
    }
    policy_by_name(name).expect("study policies are POLICY_NAMES entries")
}

/// An ordered JSON object under construction; `Display` renders it, so
/// objects nest through [`Json::field`].
#[derive(Default)]
struct Json(Vec<String>);

impl Json {
    /// Adds a value that already prints as JSON: an integer or a nested
    /// object.
    fn field(mut self, key: &str, value: impl fmt::Display) -> Self {
        self.0.push(format!("{key:?}:{value}"));
        self
    }

    /// Adds a number at a fixed count of decimals.
    fn num(self, key: &str, value: f64, decimals: usize) -> Self {
        self.field(key, fixed(value, decimals))
    }

    /// Adds a string.
    fn text(self, key: &str, value: &str) -> Self {
        self.field(key, format_args!("{value:?}"))
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.0.join(","))
    }
}

/// A printed table built row by row; every cell carries its column
/// header, so headers and cells cannot drift apart.
#[derive(Default)]
struct Table {
    headers: Vec<&'static str>,
    rows: Vec<Vec<String>>,
}

impl Table {
    fn row<const N: usize>(&mut self, cells: [(&'static str, String); N]) {
        self.headers = cells.iter().map(|cell| cell.0).collect();
        self.rows
            .push(cells.into_iter().map(|cell| cell.1).collect());
    }

    fn print(&self) {
        print!("{}", render_table(&self.headers, &self.rows));
    }
}

/// `value` at a fixed count of decimals — how every table cell and JSON
/// number is printed.
fn fixed(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// `p50 / mean` of a step-denominated latency.
fn p50_mean(p: &Percentiles) -> String {
    format!("{:.1} / {:.1}", p.p50, p.mean)
}

/// A one-backend run's processed-token rate over that backend's
/// single-stream decode rate.
fn vs_single_stream(run: &MultiplexedRun) -> String {
    let single = run.per_model[0].single_stream_tokens_per_s;
    format!("{:.2}x", run.processed_tokens_per_s / single)
}

/// `hit% (hits/total)` of a run's deadline-carrying requests.
fn deadline_hits(r: &ServeReport) -> String {
    let pct = r.deadline_hit_rate().unwrap_or(0.0) * 100.0;
    format!("{pct:.0}% ({}/{})", r.deadline_hits, r.deadline_total)
}

/// Which of the tiny host model's two precisions a backend runs.
enum Kind {
    Fp,
    W4a4,
}

/// One registry entry: a backend kind under a name, optionally behind a
/// seeded fault plan.
struct Entry<'p> {
    name: String,
    kind: Kind,
    faults: Option<&'p FaultPlan>,
}

fn entry(name: impl Into<String>, kind: Kind) -> Entry<'static> {
    Entry {
        name: name.into(),
        kind,
        faults: None,
    }
}

/// The fp + w4a4 pool most studies serve.
fn fp_w4a4() -> Vec<Entry<'static>> {
    vec![entry("fp", Kind::Fp), entry("w4a4", Kind::W4a4)]
}

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

/// Everything the studies share: the command line, the tiny host model
/// in both precisions, and the design point its traces are priced on.
struct Ctx {
    args: Args,
    model: MambaModel,
    quantized: QuantizedMamba,
    platform: Platform,
    big: MambaConfig,
    /// Arrival horizon of the open-loop studies.
    horizon: u64,
}

impl Ctx {
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
                .register(entry.name.as_str(), backend)
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

    /// The deadline-heavy mix over the fp + w4a4 pool — the policy,
    /// observability and chaos studies' shared trace.
    fn deadline_heavy(&self) -> Vec<GenRequest> {
        self.requests(TrafficScenario::deadline_heavy(0.5), 7, 2, self.horizon)
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
}

/// One study: the `BENCH_JSON` key its block lands under and the run
/// (printing its tables as it goes). A study with nothing
/// machine-readable returns an empty object, which is left out of the
/// summary.
type Study = (&'static str, fn(&Ctx) -> Json);

/// Every study, in output order; a smoke run stops after the first
/// [`SMOKE_STUDIES`].
const STUDIES: [Study; 10] = [
    ("policy", policy_study),
    ("obs", obs_study),
    ("preempt", preemption_study),
    ("sessions", session_study),
    ("chaos", chaos_study),
    ("prefix", prefix_study),
    ("scenarios", scenario_sweep),
    ("slots", slot_sweep),
    ("single", backend_comparison),
    ("multiplex", multiplex_study),
];
const SMOKE_STUDIES: usize = 6;

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    lightmamba_bench::banner(
        "serve_traffic",
        "policy-aware continuous batching across execution backends under synthetic traffic",
        "engine runs a tiny synthetic model; step traces are costed on the 2.7B design points",
    );

    let model = MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(42))
        .expect("tiny config is valid");
    let quantized = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[])
        .expect("tiny model quantizes");
    let ctx = Ctx {
        horizon: if args.smoke { 150 } else { 400 },
        args,
        model,
        quantized,
        platform: Platform::vck190(),
        big: MambaConfig::preset(ModelPreset::B2_7),
    };

    let mut json = Json::default()
        .text("bench", "serve_traffic")
        .field("models", MODELS)
        .field("prefill_chunk", PREFILL_CHUNK);
    let studies = match ctx.args.smoke {
        true => &STUDIES[..SMOKE_STUDIES],
        false => &STUDIES[..],
    };
    for (name, run) in studies {
        let fragment = run(&ctx);
        if !fragment.0.is_empty() {
            json = json.field(name, fragment);
        }
    }
    if !ctx.args.smoke {
        let cfg = AcceleratorConfig::lightmamba_w4a4(&ctx.platform, &ctx.big);
        let baseline = DecodeSimulator::new(ctx.platform, ctx.big, cfg).decode_report();
        println!();
        println!(
            "single-stream W4A4 VCK190 baseline: {:.2} tokens/s (paper 7.21)",
            baseline.tokens_per_s
        );
    }

    // Machine-readable summary for the BENCH harness.
    println!("BENCH_JSON {json}");
    ExitCode::SUCCESS
}

/// Policy study: the deadline-heavy mix under every admission policy on
/// the same trace and fp+w4a4 registry, each policy's numbers under its
/// name.
fn policy_study(ctx: &Ctx) -> Json {
    println!();
    println!(
        "policy study: deadline_heavy traffic (0.5 req/step over {} steps, 16 slots, \
         fp+w4a4 pool, prefill chunk {PREFILL_CHUNK})",
        ctx.horizon
    );

    let mut table = Table::default();
    let mut json = Json::default();
    for name in study_policies() {
        let (report, run) = ctx.priced_run(
            &Setup::new(fp_w4a4(), 16),
            ctx.deadline_heavy(),
            make_policy(name).as_mut(),
        );
        table.row([
            ("policy", name.to_string()),
            ("completed", report.completed.to_string()),
            ("evicted", report.evicted.to_string()),
            ("preempt", report.preemptions.to_string()),
            ("deadline hits", deadline_hits(&report)),
            (
                "chat queue p90",
                fixed(report.per_class[0].queue_steps.p90, 1),
            ),
            ("TTFT p50 (steps)", fixed(report.ttft_steps.p50, 1)),
            ("run (s)", fixed(run.seconds, 1)),
        ]);
        let worst_ttft = run
            .per_model
            .iter()
            .map(|m| m.ttft_s.p99)
            .fold(0.0, f64::max);
        json = json.field(
            name,
            Json::default()
                .num(
                    "deadline_hit_rate",
                    report.deadline_hit_rate().unwrap_or(0.0),
                    4,
                )
                .field("completed", report.completed)
                .field("evicted", report.evicted)
                .num("worst_model_ttft_p99_s", worst_ttft, 3),
        );
    }
    table.print();
    json
}

/// Observability study: the policy study's FIFO run again with the full
/// observability layer on (metrics registry, per-phase spans, flight
/// recorder). Its Prometheus-style snapshot and two-lane Chrome trace
/// (wall + cost-model virtual time) are written to `--metrics-dump` /
/// `--trace-out` when given. What the layer costs in wall-clock time is
/// pinned by `tests/obs_overhead.rs`, not printed here.
fn obs_study(ctx: &Ctx) -> Json {
    println!();
    println!(
        "observability study: fifo on deadline_heavy traffic ({} steps), instrumented \
         (metrics + spans + flight recorder)",
        ctx.horizon
    );

    let (mut engine, mut cost) = ctx.engine(&Setup::new(fp_w4a4(), 16));
    engine
        .submit(ctx.deadline_heavy())
        .expect("generator output is sorted");
    engine.enable_obs(ObsConfig::default());
    let report = engine.run(&mut Fifo).expect("run drains");
    let obs = engine.take_obs().expect("obs was enabled");
    println!(
        "  recorded {} spans ({} dropped), {} step records ({} evicted), {} lifecycle events",
        obs.spans.spans().len(),
        obs.spans.dropped(),
        obs.flight.steps().len(),
        obs.flight.steps().evicted(),
        obs.flight.lifecycle().len(),
    );

    if let Some(path) = &ctx.args.metrics_dump {
        let text = obs.exposition();
        std::fs::write(path, &text).expect("--metrics-dump path is writable");
        println!("  wrote metrics snapshot ({} bytes) to {path}", text.len());
    }
    if let Some(path) = &ctx.args.trace_out {
        let step_seconds = cost
            .trace_step_seconds(&report.trace)
            .expect("trace matches registry");
        let trace = obs.chrome_trace_with_virtual(&step_seconds);
        lightmamba_obs::json::parse(&trace).expect("emitted Chrome trace is well-formed JSON");
        std::fs::write(path, &trace).expect("--trace-out path is writable");
        println!("  wrote Chrome trace ({} bytes) to {path}", trace.len());
    }

    Json::default()
        .field("steps", report.trace.steps())
        .field("spans", obs.spans.spans().len())
        .field("spans_dropped", obs.spans.dropped())
        .field("slo_violations", obs.slo_violations())
}

/// Preemption study: the preemption-heavy scenario (deadline-free hogs
/// camping on slots + tight-deadline chat) under each of
/// [`PREEMPT_POLICIES`] on the same traffic and fp+w4a4 registry. The
/// headline is the hit-rate gap between each policy and its preemptive
/// variant; pause/resume traffic is priced as state transfers on the
/// shared stream.
fn preemption_study(ctx: &Ctx) -> Json {
    println!();
    println!(
        "preemption study: preemption_heavy traffic (0.6 req/step over {} steps, 8 slots, \
         fp+w4a4 pool, prefill chunk {PREFILL_CHUNK})",
        ctx.horizon
    );

    let mut table = Table::default();
    let mut json = Json::default();
    for name in PREEMPT_POLICIES {
        let (report, run) = ctx.priced_run(
            &Setup::new(fp_w4a4(), 8),
            ctx.requests(TrafficScenario::preemption_heavy(0.6), 7, 2, ctx.horizon),
            policy_by_name(name)
                .expect("PREEMPT_POLICIES are valid names")
                .as_mut(),
        );
        let hit_rate = report.deadline_hit_rate().unwrap_or(0.0);
        table.row([
            ("policy", name.to_string()),
            ("completed", report.completed.to_string()),
            ("evicted", report.evicted.to_string()),
            ("deadline hits", deadline_hits(&report)),
            ("preempt", report.preemptions.to_string()),
            ("resume p50", fixed(report.resume_latency_steps.p50, 1)),
            ("state xfer (ms)", fixed(run.state_transfer_s * 1e3, 2)),
            ("run (s)", fixed(run.seconds, 1)),
        ]);
        json = json.field(
            name,
            Json::default()
                .num("deadline_hit_rate", hit_rate, 4)
                .field("preemptions", report.preemptions)
                .field("resumes", report.resumes)
                .num("resume_p50_steps", report.resume_latency_steps.p50, 1)
                .num("state_transfer_s", run.state_transfer_s, 6),
        );
    }
    table.print();
    json
}

/// Chaos study: the deadline-heavy mix with a seeded fault schedule —
/// injected step errors, backend panics, latency spikes, and restore
/// corruption on both backends — run twice on the *identical* schedule:
/// once with quarantine + bounded-queue shedding, once with the fault
/// layer containing but never mitigating ([`ResilienceConfig::none`]).
/// The headline is the availability/goodput gap mitigation buys.
fn chaos_study(ctx: &Ctx) -> Json {
    let horizon = ctx.horizon;
    // The schedule outlives the arrival window so faults also land on
    // the drain tail, exactly like a transient that ignores load.
    let plan_fp = FaultPlan::seeded(FAULT_SEED, horizon + 200, FAULT_RATE);
    let plan_w4 = FaultPlan::seeded(FAULT_SEED ^ 0x9e37_79b9, horizon + 200, FAULT_RATE);
    let panic_windows = [&plan_fp, &plan_w4]
        .iter()
        .flat_map(|p| p.windows())
        .filter(|w| w.kind == FaultKind::Panic)
        .count();
    println!();
    println!(
        "chaos study: deadline_heavy traffic (0.5 req/step over {horizon} steps, 16 slots, \
         fp+w4a4 pool) under a seeded fault schedule (seed {FAULT_SEED}, rate {FAULT_RATE:.2}: \
         {} windows on fp, {} on w4a4, {panic_windows} of them worker panics) — \
         quarantine+shedding vs no mitigation on the identical schedule",
        plan_fp.windows().len(),
        plan_w4.windows().len(),
    );

    let run = |resilience: ResilienceConfig| {
        let mut setup = Setup::new(fp_w4a4(), 16);
        setup.pool[0].faults = Some(&plan_fp);
        setup.pool[1].faults = Some(&plan_w4);
        setup.resilience = resilience;
        // Faults are contained: the engine itself must survive the
        // schedule, so the run still drains.
        ctx.priced_run(&setup, ctx.deadline_heavy(), &mut Fifo).0
    };

    // The injected worker panics are caught by the engine; silence the
    // default hook so they don't spray backtraces over the bench output.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mitigated = run(ResilienceConfig {
        queue_limit: Some(48),
        ..ResilienceConfig::default()
    });
    let exposed = run(ResilienceConfig::none());
    std::panic::set_hook(prev_hook);

    let mut table = Table::default();
    for (name, r) in [("mitigated", &mitigated), ("no mitigation", &exposed)] {
        let quarantine = format!("{}/{}", r.quarantine_entries, r.quarantine_recoveries);
        let availability = r.availability().unwrap_or(1.0) * 100.0;
        table.row([
            ("run", name.to_string()),
            ("completed", r.completed.to_string()),
            ("failed", r.failed.to_string()),
            ("shed", r.rejected.to_string()),
            ("faults", r.backend_faults.to_string()),
            ("quarantine in/out", quarantine),
            ("availability", format!("{availability:.1}%")),
            ("deadline hits", deadline_hits(r)),
        ]);
    }
    table.print();
    assert!(
        mitigated.completed >= exposed.completed,
        "quarantine+shedding must not lose goodput on the same fault schedule \
         (mitigated {} vs exposed {})",
        mitigated.completed,
        exposed.completed
    );
    println!(
        "  mitigation converted {} failures into {} extra completions on the identical schedule",
        exposed.failed.saturating_sub(mitigated.failed),
        mitigated.completed.saturating_sub(exposed.completed),
    );

    let fault_windows = plan_fp.windows().len() + plan_w4.windows().len();
    let fragment = |r: &ServeReport| {
        Json::default()
            .field("completed", r.completed)
            .field("failed", r.failed)
            .field("rejected", r.rejected)
            .field("backend_faults", r.backend_faults)
            .field("quarantine_entries", r.quarantine_entries)
            .field("quarantine_recoveries", r.quarantine_recoveries)
            .num("availability", r.availability().unwrap_or(1.0), 4)
    };
    Json::default()
        .field("seed", FAULT_SEED)
        .num("fault_rate", FAULT_RATE, 3)
        .field("fault_windows", fault_windows)
        .field("panic_windows", panic_windows)
        .field("mitigated", fragment(&mitigated))
        .field("unmitigated", fragment(&exposed))
}

/// Outcome of one closed-loop chat run (either session path).
struct ChatRun {
    report: ServeReport,
    run: MultiplexedRun,
    follow_up_ttft_steps: Percentiles,
    resumes: usize,
    misses: usize,
    prefill_tokens_saved: u64,
}

/// Session study: multi-turn chat sessions, closed-loop (a session's
/// next turn departs only after the prior reply lands). The resume
/// path parks each turn's final Mamba state in a [`SessionStore`] and
/// restores it for the follow-up — one fixed-size state transfer — so
/// a follow-up carries only the user's new message; the re-prefill
/// baseline replays the whole conversation as prompt every turn. A
/// deterministic [`CANCEL_RATE`] prefix of the sessions hangs up
/// mid-first-turn on both paths, so the cancellation waste is priced
/// identically.
fn session_study(ctx: &Ctx) -> Json {
    let n = if ctx.args.smoke { 8 } else { 24 };
    let turns = 3usize;
    let doomed = (CANCEL_RATE * n as f64).floor() as u64;
    println!();
    println!(
        "session study: {n} chat sessions x {turns} turns (closed-loop), 8 slots, fp+w4a4 \
         pool, prefill chunk {PREFILL_CHUNK}, {doomed} mid-turn disconnects (cancel rate \
         {CANCEL_RATE:.2}) — parked-state resume vs full-history re-prefill"
    );

    // Same conversation material for both paths: openers from the
    // chat_sessions scenario (session `sid` lives on backend `sid % 2`),
    // follow-up turns drawn up front.
    let vocab = ctx.model.config().vocab_size;
    let mut traffic =
        TrafficGenerator::new(TrafficScenario::chat_sessions(n), vocab, 7).with_models(2);
    let openers = traffic.generate(1);
    let follow_ups: Vec<Vec<(Vec<u32>, usize)>> = (0..n)
        .map(|_| (1..turns).map(|_| traffic.follow_up_turn()).collect())
        .collect();

    let resume = drive_chat(ctx, true, &openers, &follow_ups, doomed);
    let reprefill = drive_chat(ctx, false, &openers, &follow_ups, doomed);

    let mut table = Table::default();
    for (name, chat) in [("resume", &resume), ("re-prefill", &reprefill)] {
        table.row([
            ("path", name.to_string()),
            ("completed", chat.report.completed.to_string()),
            ("cancelled", chat.report.cancellations.to_string()),
            ("prefill toks", chat.report.prefill_tokens.to_string()),
            (
                "turn-2+ TTFT p50/mean",
                p50_mean(&chat.follow_up_ttft_steps),
            ),
            ("state xfer (ms)", fixed(chat.run.state_transfer_s * 1e3, 2)),
            ("wasted (s)", fixed(chat.run.wasted_work_s, 3)),
            ("run (s)", fixed(chat.run.seconds, 1)),
        ]);
    }
    table.print();
    println!(
        "  resume skipped {} prefill token-advances across {} resumes ({} cold turns)",
        resume.prefill_tokens_saved, resume.resumes, resume.misses
    );
    let resume_ttft = &resume.follow_up_ttft_steps;
    let reprefill_ttft = &reprefill.follow_up_ttft_steps;
    if resume.resumes > 0 {
        assert!(
            resume_ttft.mean < reprefill_ttft.mean,
            "parked-state resume must beat full-history re-prefill on follow-up TTFT"
        );
    }
    Json::default()
        .field("n", n)
        .field("turns", turns)
        .num("cancel_rate", CANCEL_RATE, 2)
        .field("resumes", resume.resumes)
        .field("prefill_tokens_saved", resume.prefill_tokens_saved)
        .num("resume_ttft_mean_steps", resume_ttft.mean, 2)
        .num("resume_ttft_p50_steps", resume_ttft.p50, 2)
        .num("reprefill_ttft_mean_steps", reprefill_ttft.mean, 2)
        .num("reprefill_ttft_p50_steps", reprefill_ttft.p50, 2)
        .field("cancellations", resume.report.cancellations)
        .field("wasted_token_advances", resume.report.wasted_token_advances)
        .num("resume_s", resume.run.seconds, 3)
        .num("reprefill_s", reprefill.run.seconds, 3)
        .num("state_transfer_s", resume.run.state_transfer_s, 6)
        .num("wasted_work_s", resume.run.wasted_work_s, 6)
}

/// Drives one closed-loop chat run: openers up front, each follow-up
/// turn (one per entry of a session's `follow_ups`) submitted only once
/// the prior turn's reply completes. On the resume path follow-ups
/// restore the parked state from the session store; on the baseline
/// they re-prefill the full history. Sessions `0..doomed` are cancelled
/// a few steps in — the client hung up.
fn drive_chat(
    ctx: &Ctx,
    resume: bool,
    openers: &[GenRequest],
    follow_ups: &[Vec<(Vec<u32>, usize)>],
    doomed: u64,
) -> ChatRun {
    const CANCEL_AT: u64 = 4;
    let n = openers.len();
    let (mut engine, mut cost) = ctx.engine(&Setup::new(fp_w4a4(), 8));

    // Opener ids are 0..n (session id == opener id); follow-up turns
    // take fresh ids from n upward — always the count issued so far.
    let mut submit = openers.to_vec();
    for (sid, req) in submit.iter_mut().enumerate() {
        req.session = resume.then_some(sid as u64);
    }
    engine.submit(submit).expect("openers arrive together");

    let mut store = SessionStore::new(n);
    let mut policy = Fifo;
    let mut history: Vec<Vec<u32>> = openers.iter().map(|r| r.prompt.clone()).collect();
    let mut turn_of: HashMap<u64, (usize, usize)> =
        (0..n).map(|sid| (sid as u64, (sid, 0))).collect();
    let mut cursor = 0usize;
    let mut follow_ttfts: Vec<f64> = Vec::new();
    let (mut resumes, mut misses) = (0usize, 0usize);
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
        // Only session-tagged requests (the resume path) leave snapshots.
        for (sid, snap) in engine.take_session_snapshots() {
            store.insert(sid, snap);
        }
        while cursor < engine.completions().len() {
            let c = engine.completions()[cursor].clone();
            cursor += 1;
            let (sid, turn) = turn_of[&c.id];
            follow_ttfts.extend(c.ttft_steps().filter(|_| turn > 0).map(|t| t as f64));
            if !matches!(c.finish, FinishReason::MaxTokens | FinishReason::Eos) {
                continue; // disconnected session: no further turns
            }
            history[sid].extend_from_slice(&c.tokens);
            let Some((fprompt, gen)) = follow_ups[sid].get(turn).cloned() else {
                continue;
            };
            let id = turn_of.len() as u64;
            turn_of.insert(id, (sid, turn + 1));
            let mut req = GenRequest::greedy(id, fprompt.clone(), gen).on_model(sid % 2);
            req.arrival_step = engine.clock();
            req.session = resume.then_some(sid as u64);
            let parked = if resume { store.take(sid as u64) } else { None };
            if let Some(snap) = parked {
                prefill_tokens_saved += snap.consumed_tokens as u64;
                resumes += 1;
                engine
                    .submit_with_state(req, snap)
                    .expect("snapshot matches its backend");
            } else {
                // Baseline, or a cold turn on the resume path:
                // re-prefill the full conversation.
                misses += resume as usize;
                req.prompt = [history[sid].as_slice(), fprompt.as_slice()].concat();
                engine
                    .submit(vec![req])
                    .expect("arrival stamps are monotone");
            }
            history[sid].extend_from_slice(&fprompt);
        }
    }

    let report = engine.report(&policy);
    let run = cost
        .cost_run(&report, engine.completions())
        .expect("trace matches registry");
    ChatRun {
        report,
        run,
        follow_up_ttft_steps: Percentiles::of(&follow_ttfts),
        resumes,
        misses,
        prefill_tokens_saved,
    }
}

/// Prefix study: the shared-system-prompt burst with the prefix cache on
/// versus off (identical traffic, fp+w4a4 registry), throttled by a
/// budget calibrated against both backends' cycle models. Every request carries the same system prompt: with the cache
/// on the engine prefills it once per model, snapshots the post-prefix
/// state, and every later bearer restores it (one state-transfer DMA)
/// instead of re-prefilling.
fn prefix_study(ctx: &Ctx) -> Json {
    let n = if ctx.args.smoke { 24 } else { 64 };
    let prefix_len = 24usize;
    let slots = 8usize;

    // Calibrate once, against the same registry shape the runs use.
    let budget = calibrate_token_budget(&ctx.registry(&fp_w4a4()), &ctx.platform, &ctx.big, slots)
        .expect("probe registry is non-empty");

    println!();
    println!(
        "prefix study: shared_system_prompt traffic ({n} turns behind one {prefix_len}-token \
         system prompt), {slots} slots, fp+w4a4 pool, prefill chunk {PREFILL_CHUNK} — \
         cached-state restore vs re-prefilling the shared prefix"
    );
    println!(
        "  calibrated token budget: {} prefill token-advances/step, {} resident tokens",
        budget.max_prefill_tokens_per_step, budget.max_total_tokens
    );

    // Identical traffic for both runs: the generator stamps every
    // request with the same system prompt and the shared-prefix marker;
    // with the cache off the marker is inert.
    let scenario = TrafficScenario::shared_system_prompt(n, prefix_len);
    let requests = ctx.requests(scenario, 11, 2, 1);
    let drive = |prefix_cache: bool| {
        let setup = Setup {
            prefix_cache,
            token_budget: Some(budget),
            ..Setup::new(fp_w4a4(), slots)
        };
        ctx.priced_run(&setup, requests.clone(), &mut Fifo)
    };
    let (cached, cached_run) = drive(true);
    let (cold, cold_run) = drive(false);

    let mut table = Table::default();
    for (name, report, run) in [
        ("cache on", &cached, &cached_run),
        ("cache off", &cold, &cold_run),
    ] {
        table.row([
            ("path", name.to_string()),
            ("completed", report.completed.to_string()),
            (
                "hits / misses",
                format!("{} / {}", report.prefix_hits, report.prefix_misses),
            ),
            ("prefill toks", report.prefill_tokens.to_string()),
            ("TTFT p50/mean", p50_mean(&report.ttft_steps)),
            ("deferrals", report.budget_deferrals.to_string()),
            ("state xfer (ms)", fixed(run.state_transfer_s * 1e3, 2)),
            ("run (s)", fixed(run.seconds, 1)),
        ]);
    }
    table.print();
    println!(
        "  cache hits skipped {} prefill token-advances across {} restores",
        cold.prefill_tokens - cached.prefill_tokens,
        cached.prefix_hits
    );

    assert_eq!(
        cached.completed, cold.completed,
        "the cache changes when work happens, never whether it completes"
    );
    assert!(
        cached.prefix_hits > 0,
        "a shared-prefix burst wider than the slot pool must produce hits"
    );
    assert!(
        cached.prefill_tokens < cold.prefill_tokens,
        "every hit must skip the shared prefix's token-advances"
    );
    assert!(
        cached.ttft_steps.mean < cold.ttft_steps.mean,
        "restoring a cached state must start decode earlier than re-prefilling"
    );

    let prefill_util = cached.budget_prefill_utilization;
    let resident_util = cached.budget_resident_utilization;
    Json::default()
        .field("n", n)
        .field("prefix_len", prefix_len)
        .field("hits", cached.prefix_hits)
        .field("misses", cached.prefix_misses)
        .field("prefill_tokens_cached", cached.prefill_tokens)
        .field("prefill_tokens_cold", cold.prefill_tokens)
        .num("cached_ttft_mean_steps", cached.ttft_steps.mean, 2)
        .num("cached_ttft_p50_steps", cached.ttft_steps.p50, 2)
        .num("cold_ttft_mean_steps", cold.ttft_steps.mean, 2)
        .num("cold_ttft_p50_steps", cold.ttft_steps.p50, 2)
        .num("cached_s", cached_run.seconds, 3)
        .num("cold_s", cold_run.seconds, 3)
        .num("state_transfer_s", cached_run.state_transfer_s, 6)
        .field(
            "budget",
            Json::default()
                .field(
                    "max_prefill_tokens_per_step",
                    budget.max_prefill_tokens_per_step,
                )
                .field("max_total_tokens", budget.max_total_tokens)
                .field("deferrals", cached.budget_deferrals)
                .num("prefill_utilization", prefill_util.unwrap_or(0.0), 4)
                .num("resident_utilization", resident_util.unwrap_or(0.0), 4),
        )
}

/// Scenario sweep under FIFO continuous batching at 16 slots, one W4A4
/// backend alone.
fn scenario_sweep(ctx: &Ctx) -> Json {
    println!();
    let mut table = Table::default();
    for scenario in [
        TrafficScenario::burst(64),
        TrafficScenario::chat(0.4),
        TrafficScenario::mixed(0.25),
        TrafficScenario::deadline_heavy(0.25),
    ] {
        let name = scenario.name;
        let (report, run) = ctx.priced_run(
            &Setup::new(vec![entry("w4a4", Kind::W4a4)], 16),
            ctx.requests(scenario, 7, 1, 600),
            &mut Fifo,
        );
        let w4a4 = &run.per_model[0];
        table.row([
            ("scenario", name.to_string()),
            ("completed", report.completed.to_string()),
            (
                "occupancy",
                format!("{:.0}%", report.mean_occupancy * 100.0),
            ),
            ("tok/s gen", fixed(run.tokens_per_s, 2)),
            ("tok/s all", fixed(run.processed_tokens_per_s, 2)),
            ("vs 1-stream", vs_single_stream(&run)),
            ("TTFT p99 (s)", fixed(w4a4.ttft_s.p99, 1)),
        ]);
    }
    table.print();
    Json::default()
}

/// Slot sweep, FIFO vs static batching, burst workload, one W4A4
/// backend alone.
fn slot_sweep(ctx: &Ctx) -> Json {
    println!();
    let mut table = Table::default();
    for slots in SLOT_SWEEP {
        for policy in [
            &mut Fifo as &mut dyn Policy,
            &mut StaticBatching as &mut dyn Policy,
        ] {
            let (report, run) = ctx.priced_run(
                &Setup::new(vec![entry("w4a4", Kind::W4a4)], slots),
                ctx.requests(TrafficScenario::burst(64), 7, 1, 1),
                policy,
            );
            let w4a4 = &run.per_model[0];
            let fits = match run.residency_ok {
                true => "yes".into(),
                false => format!("no (max {})", run.max_resident_batch),
            };
            table.row([
                ("slots", slots.to_string()),
                ("policy", report.policy.to_string()),
                ("steps", report.steps.to_string()),
                ("tok/s all", fixed(run.processed_tokens_per_s, 2)),
                ("vs 1-stream", vs_single_stream(&run)),
                ("TTFT p50 (s)", fixed(w4a4.ttft_s.p50, 1)),
                ("e2e p99 (s)", fixed(w4a4.e2e_s.p99, 1)),
                ("state fits URAM", fits),
            ]);
        }
    }
    table.print();
    Json::default()
}

/// Backend comparison: the same burst served by each backend alone,
/// each priced with its own weight-stream width.
fn backend_comparison(ctx: &Ctx) -> Json {
    println!();
    let mut table = Table::default();
    let mut json = Json::default();
    for backend in fp_w4a4() {
        let (_, run) = ctx.priced_run(
            &Setup::new(vec![backend], 16),
            ctx.requests(TrafficScenario::burst(64), 7, 1, 1),
            &mut Fifo,
        );
        let m = &run.per_model[0];
        json = json.field(
            &m.model,
            Json::default()
                .num("tok_s", m.processed_tokens_per_s, 3)
                .num("ttft_p99_s", m.ttft_s.p99, 3)
                .num("single_stream_tok_s", m.single_stream_tokens_per_s, 3),
        );
        table.row([
            ("backend", m.model.clone()),
            ("completed", m.completed.to_string()),
            ("tok/s all", fixed(m.processed_tokens_per_s, 2)),
            ("1-stream tok/s", fixed(m.single_stream_tokens_per_s, 2)),
            (
                "stream B/step",
                format!("{:.2e}", m.weight_stream_bytes_per_step),
            ),
            ("TTFT p99 (s)", fixed(m.ttft_s.p99, 1)),
        ]);
    }
    table.print();
    json
}

/// Multiplexed run: [`MODELS`] backends (alternating fp/w4a4) on one
/// slot pool, symmetric round-robin traffic.
fn multiplex_study(ctx: &Ctx) -> Json {
    println!();
    println!("multiplex: {MODELS} backends on one 16-slot pool (burst of 64)");
    let pool = (0..MODELS)
        .map(|k| match k % 2 {
            0 => entry(format!("fp-{k}"), Kind::Fp),
            _ => entry(format!("w4a4-{k}"), Kind::W4a4),
        })
        .collect();
    let (_, mux) = ctx.priced_run(
        &Setup::new(pool, 16),
        ctx.requests(TrafficScenario::burst(64), 7, MODELS, 1),
        &mut Fifo,
    );
    let mut table = Table::default();
    let mut json = Json::default();
    for m in &mux.per_model {
        json = json.field(
            &m.model,
            Json::default()
                .num("tok_s", m.processed_tokens_per_s, 3)
                .num("ttft_p99_s", m.ttft_s.p99, 3),
        );
        table.row([
            ("model", m.model.clone()),
            ("completed", m.completed.to_string()),
            ("processed", format!("{}", m.processed_tokens)),
            ("attrib s", fixed(m.seconds, 2)),
            ("tok/s all", fixed(m.processed_tokens_per_s, 2)),
            ("TTFT p99 (s)", fixed(m.ttft_s.p99, 1)),
        ]);
    }
    table.print();
    json
}
