//! Serving traffic study: aggregate throughput and tail latency of the
//! continuous-batching engine across traffic scenarios, batch sizes,
//! admission policies, and execution backends, costed on the paper's
//! accelerator design points.
//!
//! This is the batched-serving extension of Fig. 9a: where the paper
//! projects one decode stream (7.21 tokens/s W4A4 on VCK190), this bench
//! projects a multi-tenant engine sharing each weight stream across all
//! resident sequences — and, with `--models N`, several named backends
//! multiplexed on one slot pool, each priced with its own stream width.
//!
//! Flags:
//! * `--policy fifo|edf|edf-preempt|priority|priority-preempt|wfq`
//!   (default `fifo`) — which admission policy headlines the
//!   deadline-heavy policy study (the comparison table always shows
//!   every policy on the same trace);
//! * `--prefill-chunk K` (default 4) — prompt tokens one prefilling
//!   sequence may consume per engine step;
//! * `--threads N` (default 1) — worker-pool width the engine hands
//!   the decode driver (each step's sub-batches are cut into one lane
//!   per thread);
//! * `--backend fp|w4a4|both` (default `both`) — single-backend
//!   comparison runs;
//! * `--models N` (default 2) — size of the multiplexed registry
//!   (backends alternate fp/w4a4);
//! * `--preempt` — also run the preemption study: the preemption-heavy
//!   scenario (deadline-free hogs camping on slots + tight-deadline
//!   chat) under non-preemptive vs preemptive EDF and priority, with
//!   pause/resume priced as state transfers;
//! * `--sessions` — also run the multi-turn session study: closed-loop
//!   chat sessions whose follow-up turns resume a parked Mamba state
//!   (one state-transfer DMA) versus re-prefilling the full
//!   conversation, with `--cancel-rate R` disconnecting a deterministic
//!   fraction of the sessions mid-decode;
//! * `--cancel-rate R` (default 0) — fraction of sessions in the
//!   session study whose client hangs up mid-first-turn;
//! * `--chaos` — also run the chaos study: the same deadline-heavy
//!   traffic with a seeded fault schedule (injected step errors, backend
//!   panics, latency spikes, restore corruption) fired against both
//!   backends, under quarantine + bounded-queue shedding versus no
//!   mitigation on the identical schedule;
//! * `--prefix-cache` — also run the prefix study: the
//!   shared-system-prompt scenario (every request opens with one common
//!   prompt prefix) with the engine's prefix cache on versus off — a
//!   hit restores the harvested post-prefix state (one state-transfer
//!   DMA) instead of re-prefilling the shared prefix;
//! * `--token-budget` — calibrate a [`TokenBudget`] against both
//!   backends' cycle models ([`calibrate_token_budget`]) and apply it
//!   to the prefix study's engines, reporting deferrals and budget
//!   utilization (implies the prefix study runs);
//! * `--fault-rate R` (default 0.05) — approximate fraction of engine
//!   steps covered by a fault window in the chaos study;
//! * `--seed S` (default 7) — seed of the chaos study's fault schedule;
//! * `--metrics-dump PATH` — write the instrumented headline run's
//!   Prometheus-style metrics snapshot to `PATH`;
//! * `--trace-out PATH` — write the instrumented headline run's
//!   two-lane Chrome trace (host wall clock + accelerator-projected
//!   virtual time) to `PATH`; open it in `chrome://tracing` or
//!   Perfetto;
//! * `--smoke` — run only the policy study (plus any opted-in studies)
//!   on a reduced horizon (CI).
//!
//! A final `BENCH_JSON` line captures the selected policy's
//! deadline-hit-rate plus the observability study's bare-vs-
//! instrumented step-rate overhead, (full mode) the FP-vs-W4A4 serving
//! gap, (with `--preempt`) the preemption study's hit rates and pause
//! traffic, (with `--sessions`) the session study's resume-vs-
//! re-prefill TTFT gap and cancellation waste, (with `--chaos`) the
//! chaos study's availability and goodput with and without mitigation,
//! and (with `--prefix-cache` / `--token-budget`) the prefix study's
//! hit/miss counts, cached-vs-cold TTFT gap, and budget deferrals.

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
use std::time::Instant;

const SLOT_SWEEP: [usize; 4] = [1, 4, 16, 64];

/// The policies the study compares — every [`POLICY_NAMES`] entry
/// except static batching, which the slot sweep covers instead.
fn study_policies() -> impl Iterator<Item = &'static str> {
    POLICY_NAMES.into_iter().filter(|n| *n != "static")
}
/// The pairs the `--preempt` study compares on the preemption-heavy
/// scenario.
const PREEMPT_POLICIES: [&str; 4] = ["edf", "edf-preempt", "priority", "priority-preempt"];

#[derive(Default)]
struct Args {
    policy: String,
    prefill_chunk: usize,
    threads: usize,
    backend: String,
    models: usize,
    preempt: bool,
    sessions: bool,
    cancel_rate: f64,
    chaos: bool,
    prefix_cache: bool,
    token_budget: bool,
    fault_rate: f64,
    seed: u64,
    metrics_dump: Option<String>,
    trace_out: Option<String>,
    smoke: bool,
}

/// One command-line flag: whether a value follows it (a switch's
/// setter is handed `"true"`) and how it lands in [`Args`]; `set`
/// returns `false` for a value it cannot parse.
struct Flag {
    name: &'static str,
    takes_value: bool,
    set: fn(&mut Args, &str) -> bool,
}

const fn flag(name: &'static str, takes_value: bool, set: fn(&mut Args, &str) -> bool) -> Flag {
    Flag {
        name,
        takes_value,
        set,
    }
}

/// Parses `value` into `slot`; `false` when it does not parse.
fn put<T: std::str::FromStr>(slot: &mut T, value: &str) -> bool {
    value.parse().map(|v| *slot = v).is_ok()
}

/// Every flag the bench accepts, in the order the module docs list them.
const FLAGS: [Flag; 16] = [
    flag("--policy", true, |a, v| put(&mut a.policy, v)),
    flag("--prefill-chunk", true, |a, v| put(&mut a.prefill_chunk, v)),
    flag("--threads", true, |a, v| put(&mut a.threads, v)),
    flag("--backend", true, |a, v| put(&mut a.backend, v)),
    flag("--models", true, |a, v| put(&mut a.models, v)),
    flag("--preempt", false, |a, v| put(&mut a.preempt, v)),
    flag("--sessions", false, |a, v| put(&mut a.sessions, v)),
    flag("--cancel-rate", true, |a, v| put(&mut a.cancel_rate, v)),
    flag("--chaos", false, |a, v| put(&mut a.chaos, v)),
    flag("--prefix-cache", false, |a, v| put(&mut a.prefix_cache, v)),
    flag("--token-budget", false, |a, v| put(&mut a.token_budget, v)),
    flag("--fault-rate", true, |a, v| put(&mut a.fault_rate, v)),
    flag("--seed", true, |a, v| put(&mut a.seed, v)),
    flag("--metrics-dump", true, |a, v| {
        put(a.metrics_dump.insert(String::new()), v)
    }),
    flag("--trace-out", true, |a, v| {
        put(a.trace_out.insert(String::new()), v)
    }),
    flag("--smoke", false, |a, v| put(&mut a.smoke, v)),
];

fn parse_args() -> Args {
    let mut args = Args {
        policy: "fifo".into(),
        prefill_chunk: 4,
        threads: 1,
        backend: "both".into(),
        models: 2,
        fault_rate: 0.05,
        seed: 7,
        ..Args::default()
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let flag = FLAGS
            .iter()
            .find(|f| f.name == arg)
            .unwrap_or_else(|| panic!("unknown argument {arg:?}"));
        let value = match flag.takes_value {
            true => argv.next().unwrap_or_else(|| panic!("{arg} needs a value")),
            false => "true".into(),
        };
        assert!(
            (flag.set)(&mut args, &value),
            "{arg}: cannot parse {value:?}"
        );
    }
    assert!(
        ["fp", "w4a4", "both"].contains(&args.backend.as_str()),
        "--backend must be fp, w4a4, or both"
    );
    // policy_by_name's own error already lists every valid name.
    policy_by_name(&args.policy).unwrap_or_else(|e| panic!("{e}"));
    assert!(
        args.policy != "static",
        "static batching is covered by the slot sweep; pick a continuous-batching policy"
    );
    assert!(args.models > 0, "--models must be positive");
    assert!(args.prefill_chunk > 0, "--prefill-chunk must be positive");
    assert!(args.threads > 0, "--threads must be positive");
    assert!(
        (0.0..1.0).contains(&args.cancel_rate),
        "--cancel-rate must be in [0, 1)"
    );
    assert!(
        args.fault_rate > 0.0 && args.fault_rate <= 1.0,
        "--fault-rate must be in (0, 1]"
    );
    args
}

fn make_policy(name: &str) -> Box<dyn Policy> {
    if name == "wfq" {
        // Favor the fp backend 2:1 so the per-model table shows the
        // share split WFQ enforces (policy_by_name's wfq weighs equal).
        return Box::new(WeightedFair::new(vec![2.0, 1.0]));
    }
    policy_by_name(name).expect("--policy is validated against POLICY_NAMES")
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
/// everything else comes from the flags.
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

/// Everything the studies share: the flags, the tiny host model in both
/// precisions, and the design point its traces are priced on.
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
    /// on the design point, behind an engine configured from the flags.
    fn engine(&self, setup: &Setup<'_>) -> (ServeEngine<'_>, MultiplexCostModel) {
        let registry = self.registry(&setup.pool);
        let cost = MultiplexCostModel::for_registry(&registry, &self.platform, &self.big)
            .expect("non-empty registry");
        let mut engine = ServeEngine::with_registry(
            registry,
            EngineConfig {
                slots: setup.slots,
                max_steps: 1_000_000,
                prefill_chunk: self.args.prefill_chunk,
                threads: self.args.threads,
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

/// One study: the `BENCH_JSON` key its fragment lands under, the flags
/// that switch it on, and the run (printing its tables as it goes). A
/// study with nothing machine-readable returns an empty object, which
/// is left out of the summary.
struct Study {
    name: &'static str,
    gate: fn(&Args) -> bool,
    run: fn(&Ctx) -> Json,
}

const fn study(name: &'static str, gate: fn(&Args) -> bool, run: fn(&Ctx) -> Json) -> Study {
    Study { name, gate, run }
}

/// Every study, in output order.
const STUDIES: [Study; 10] = [
    study("policy", |_| true, policy_study),
    study("obs", |_| true, obs_study),
    study("preempt", |a| a.preempt, preemption_study),
    study("sessions", |a| a.sessions, session_study),
    study("chaos", |a| a.chaos, chaos_study),
    study("prefix", |a| a.prefix_cache || a.token_budget, prefix_study),
    study("scenarios", |a| !a.smoke, scenario_sweep),
    study("slots", |a| !a.smoke, slot_sweep),
    study("single", |a| !a.smoke, backend_comparison),
    study("multiplex", |a| !a.smoke, multiplex_study),
];

fn main() {
    let args = parse_args();
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
        .field("models", ctx.args.models)
        .field("prefill_chunk", ctx.args.prefill_chunk);
    for study in STUDIES.iter().filter(|s| (s.gate)(&ctx.args)) {
        let fragment = (study.run)(&ctx);
        if !fragment.0.is_empty() {
            json = json.field(study.name, fragment);
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
}

/// Policy study: the deadline-heavy mix under every admission policy on
/// the same trace and fp+w4a4 registry; `--policy` picks which run
/// headlines the JSON.
fn policy_study(ctx: &Ctx) -> Json {
    println!();
    println!(
        "policy study: deadline_heavy traffic (0.5 req/step over {} steps, 16 slots, \
         fp+w4a4 pool, prefill chunk {})",
        ctx.horizon, ctx.args.prefill_chunk
    );

    let mut table = Table::default();
    let mut headline = None;
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
        if name == ctx.args.policy {
            let hit_rate = report.deadline_hit_rate().unwrap_or(0.0);
            let worst_ttft = run
                .per_model
                .iter()
                .map(|m| m.ttft_s.p99)
                .fold(0.0, f64::max);
            headline = Some(
                Json::default()
                    .text("name", name)
                    .num("deadline_hit_rate", hit_rate, 4)
                    .field("completed", report.completed)
                    .field("evicted", report.evicted)
                    .num("worst_model_ttft_p99_s", worst_ttft, 3),
            );
        }
    }
    table.print();
    headline.expect("--policy is validated against POLICY_NAMES")
}

/// Observability study: the headline policy's deadline-heavy run twice
/// on identical traffic — once bare, once with the full observability
/// layer (metrics registry, per-phase spans, flight recorder) — to
/// measure the wall-clock overhead instrumentation adds to the engine
/// loop. The instrumented run's Prometheus-style snapshot and two-lane
/// Chrome trace (wall + cost-model virtual time) are written to
/// `--metrics-dump` / `--trace-out` when given.
fn obs_study(ctx: &Ctx) -> Json {
    let args = &ctx.args;
    println!();
    println!(
        "observability study: {} on deadline_heavy traffic ({} steps), bare vs \
         instrumented (metrics + spans + flight recorder)",
        args.policy, ctx.horizon
    );

    // Wall-clock seconds of one drained run, observability on or off.
    let timed = |obs: bool| {
        let (mut engine, cost) = ctx.engine(&Setup::new(fp_w4a4(), 16));
        engine
            .submit(ctx.deadline_heavy())
            .expect("generator output is sorted");
        if obs {
            engine.enable_obs(ObsConfig::default());
        }
        let mut policy = make_policy(&args.policy);
        let t0 = Instant::now();
        let report = engine.run(policy.as_mut()).expect("run drains");
        let steps_s = report.trace.steps() as f64 / t0.elapsed().as_secs_f64().max(1e-9);
        (report, steps_s, engine.take_obs(), cost)
    };
    let (bare_report, bare_steps_s, _, _) = timed(false);
    let (report, obs_steps_s, obs, mut cost) = timed(true);
    let obs = obs.expect("obs was enabled");

    assert_eq!(
        report.completed, bare_report.completed,
        "instrumentation must not change engine behavior"
    );
    let overhead_pct = (bare_steps_s / obs_steps_s - 1.0) * 100.0;
    println!(
        "  bare {bare_steps_s:.0} steps/s, instrumented {obs_steps_s:.0} steps/s \
         ({overhead_pct:+.2}% overhead, single run — see the pinned bench test for best-of-N)"
    );
    println!(
        "  recorded {} spans ({} dropped), {} step records ({} evicted), {} lifecycle events",
        obs.spans.spans().len(),
        obs.spans.dropped(),
        obs.flight.steps().len(),
        obs.flight.steps().evicted(),
        obs.flight.lifecycle().len(),
    );

    if let Some(path) = &args.metrics_dump {
        let text = obs.exposition();
        std::fs::write(path, &text).expect("--metrics-dump path is writable");
        println!("  wrote metrics snapshot ({} bytes) to {path}", text.len());
    }
    if let Some(path) = &args.trace_out {
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
        .num("bare_steps_per_s", bare_steps_s, 1)
        .num("instrumented_steps_per_s", obs_steps_s, 1)
        .num("overhead_pct", overhead_pct, 2)
        .field("spans", obs.spans.spans().len())
        .field("spans_dropped", obs.spans.dropped())
        .field("slo_violations", obs.slo_violations())
}

/// `--preempt`: the preemption-heavy scenario (deadline-free hogs
/// camping on slots + tight-deadline chat) under each of
/// [`PREEMPT_POLICIES`] on the same traffic and fp+w4a4 registry. The
/// headline is the hit-rate gap between each policy and its preemptive
/// variant; pause/resume traffic is priced as state transfers on the
/// shared stream.
fn preemption_study(ctx: &Ctx) -> Json {
    println!();
    println!(
        "preemption study: preemption_heavy traffic (0.6 req/step over {} steps, 8 slots, \
         fp+w4a4 pool, prefill chunk {})",
        ctx.horizon, ctx.args.prefill_chunk
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

/// `--chaos`: the deadline-heavy mix with a seeded fault schedule —
/// injected step errors, backend panics, latency spikes, and restore
/// corruption on both backends — run twice on the *identical* schedule:
/// once with quarantine + bounded-queue shedding, once with the fault
/// layer containing but never mitigating ([`ResilienceConfig::none`]).
/// The headline is the availability/goodput gap mitigation buys.
fn chaos_study(ctx: &Ctx) -> Json {
    let args = &ctx.args;
    let horizon = ctx.horizon;
    // The schedule outlives the arrival window so faults also land on
    // the drain tail, exactly like a transient that ignores load.
    let plan_fp = FaultPlan::seeded(args.seed, horizon + 200, args.fault_rate);
    let plan_w4 = FaultPlan::seeded(args.seed ^ 0x9e37_79b9, horizon + 200, args.fault_rate);
    let panic_windows = [&plan_fp, &plan_w4]
        .iter()
        .flat_map(|p| p.windows())
        .filter(|w| w.kind == FaultKind::Panic)
        .count();
    println!();
    println!(
        "chaos study: deadline_heavy traffic (0.5 req/step over {horizon} steps, 16 slots, \
         fp+w4a4 pool) under a seeded fault schedule (seed {}, rate {:.2}: {} windows on fp, \
         {} on w4a4, {panic_windows} of them worker panics) — quarantine+shedding vs no \
         mitigation on the identical schedule",
        args.seed,
        args.fault_rate,
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
        .field("seed", args.seed)
        .num("fault_rate", args.fault_rate, 3)
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

/// `--sessions`: multi-turn chat sessions, closed-loop (a session's
/// next turn departs only after the prior reply lands). The resume
/// path parks each turn's final Mamba state in a [`SessionStore`] and
/// restores it for the follow-up — one fixed-size state transfer — so
/// a follow-up carries only the user's new message; the re-prefill
/// baseline replays the whole conversation as prompt every turn. With
/// `--cancel-rate`, a deterministic prefix of the sessions hangs up
/// mid-first-turn on both paths, so the cancellation waste is priced
/// identically.
fn session_study(ctx: &Ctx) -> Json {
    let args = &ctx.args;
    let n = if args.smoke { 8 } else { 24 };
    let turns = 3usize;
    let doomed = (args.cancel_rate * n as f64).floor() as u64;
    println!();
    println!(
        "session study: {n} chat sessions x {turns} turns (closed-loop), 8 slots, fp+w4a4 \
         pool, prefill chunk {}, {doomed} mid-turn disconnects (cancel rate {:.2}) — \
         parked-state resume vs full-history re-prefill",
        args.prefill_chunk, args.cancel_rate
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
        .num("cancel_rate", args.cancel_rate, 2)
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
/// versus off (identical traffic, fp+w4a4 registry), optionally
/// throttled by a budget calibrated against both backends' cycle
/// models. Every request carries the same system prompt: with the cache
/// on the engine prefills it once per model, snapshots the post-prefix
/// state, and every later bearer restores it (one state-transfer DMA)
/// instead of re-prefilling.
fn prefix_study(ctx: &Ctx) -> Json {
    let args = &ctx.args;
    let n = if args.smoke { 24 } else { 64 };
    let prefix_len = 24usize;
    let slots = 8usize;

    // Calibrate once, against the same registry shape the runs use.
    let budget = args.token_budget.then(|| {
        calibrate_token_budget(&ctx.registry(&fp_w4a4()), &ctx.platform, &ctx.big, slots)
            .expect("probe registry is non-empty")
    });

    println!();
    println!(
        "prefix study: shared_system_prompt traffic ({n} turns behind one {prefix_len}-token \
         system prompt), {slots} slots, fp+w4a4 pool, prefill chunk {} — cached-state restore \
         vs re-prefilling the shared prefix",
        args.prefill_chunk
    );
    if let Some(b) = budget {
        println!(
            "  calibrated token budget: {} prefill token-advances/step, {} resident tokens",
            b.max_prefill_tokens_per_step, b.max_total_tokens
        );
    }

    // Identical traffic for both runs: the generator stamps every
    // request with the same system prompt and the shared-prefix marker;
    // with the cache off the marker is inert.
    let scenario = TrafficScenario::shared_system_prompt(n, prefix_len);
    let requests = ctx.requests(scenario, 11, 2, 1);
    let drive = |prefix_cache: bool| {
        let setup = Setup {
            prefix_cache,
            token_budget: budget,
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

    let mut json = Json::default()
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
        .num("state_transfer_s", cached_run.state_transfer_s, 6);
    if let Some(b) = budget {
        let prefill_util = cached.budget_prefill_utilization;
        let resident_util = cached.budget_resident_utilization;
        json = json.field(
            "budget",
            Json::default()
                .field("max_prefill_tokens_per_step", b.max_prefill_tokens_per_step)
                .field("max_total_tokens", b.max_total_tokens)
                .field("deferrals", cached.budget_deferrals)
                .num("prefill_utilization", prefill_util.unwrap_or(0.0), 4)
                .num("resident_utilization", resident_util.unwrap_or(0.0), 4),
        );
    }
    json
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
/// each priced with its own weight-stream width (`--backend` picks).
fn backend_comparison(ctx: &Ctx) -> Json {
    println!();
    let picks: Vec<&str> = match ctx.args.backend.as_str() {
        "both" => vec!["fp", "w4a4"],
        one => vec![one],
    };
    let mut table = Table::default();
    let mut json = Json::default();
    for pick in picks {
        let kind = if pick == "fp" { Kind::Fp } else { Kind::W4a4 };
        let (_, run) = ctx.priced_run(
            &Setup::new(vec![entry(pick, kind)], 16),
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

/// Multiplexed run: `--models N` backends (alternating fp/w4a4) on one
/// slot pool, symmetric round-robin traffic.
fn multiplex_study(ctx: &Ctx) -> Json {
    let models = ctx.args.models;
    println!();
    println!("multiplex: {models} backends on one 16-slot pool (burst of 64)");
    let pool = (0..models)
        .map(|k| match k % 2 {
            0 => entry(format!("fp-{k}"), Kind::Fp),
            _ => entry(format!("w4a4-{k}"), Kind::W4a4),
        })
        .collect();
    let (_, mux) = ctx.priced_run(
        &Setup::new(pool, 16),
        ctx.requests(TrafficScenario::burst(64), 7, models, 1),
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
