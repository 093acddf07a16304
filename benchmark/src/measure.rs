//! The schedule of a run — set-up, timed rounds interleaved round-robin
//! over the selected workloads, oracle, traced pass, layer replay — and
//! the reduction of its samples to the metrics of [`crate::spec`].

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use lightmamba_accel::platform::Platform;
use lightmamba_model::{MambaConfig, ModelPreset};
use lightmamba_obs::percentile::{nearest_rank, sort_samples};
use lightmamba_serve::accel_cost::MultiplexCostModel;
use lightmamba_serve::metrics::ServeReport;
use lightmamba_serve::request::{Completion, GenRequest};

use crate::anchors::{self, Anchors};
use crate::drive::{drive_direct, run_round, Round, Tracing};
use crate::env::Models;
use crate::host::{peak_rss_mb, HostInfo};
use crate::oracle::{self, Verdict};
use crate::replay;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{mean_of, median_of, Samples};
use crate::trace::Tracer;
use crate::workload::{digest, Size, Workload, PREFIX_LEN};
use crate::BenchError;

/// `run_seconds` of `BENCHMARK.json`: measured seconds of a run of one
/// workload when `--seconds` is not given. The reference host's phases
/// outlast a short run (README, "noise"), so this is as long as the
/// driver's time limit lets the listed workloads' runs be.
pub const RUN_SECONDS: f64 = 55.0;

/// Measured seconds per workload when several run in one process and
/// `--seconds` is not given: the overview, not the gate.
pub const OVERVIEW_SECONDS: f64 = 12.0;

/// Set-ups per workload; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Timed rounds every serving workload runs at least.
const MIN_ROUNDS: usize = 3;
/// Traced rounds per workload in the traced pass (one in smoke runs).
const TRACED_ROUNDS: usize = 2;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Derives every token and the dealing of lengths.
    pub seed: u64,
    /// Workloads, run round-robin in this order.
    pub workloads: Vec<Workload>,
    /// Measured seconds per workload (ignored by [`Size::Smoke`], which
    /// runs one round). A traced run spends half of them on its timed
    /// rounds: the traced pass and the layer replay take about the other
    /// half, so traced and untraced runs last about as long.
    pub seconds: f64,
    /// Full rounds or quarter-size ones.
    pub size: Size,
    /// Whether to add the traced pass and the layer replay.
    pub trace: bool,
    /// Where the result JSON and Chrome traces are written; `None`
    /// writes nothing.
    pub out_dir: Option<PathBuf>,
}

/// One reported number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The value; `None` when the sample count cannot support it.
    pub value: Option<f64>,
    /// Samples behind it: rounds or set-ups for wall-lane values, 1 for
    /// counts and single readings.
    pub n: usize,
    /// First and third quartile of the samples, where there are any.
    pub quartiles: Option<(f64, f64)>,
}

impl Value {
    fn exact(value: f64) -> Self {
        Value {
            value: Some(value),
            n: 1,
            quartiles: None,
        }
    }

    fn of_rounds(values: &[f64]) -> Self {
        let s = Samples::new(values.to_vec());
        Value {
            value: s.median(),
            n: s.n(),
            quartiles: s.quartiles(),
        }
    }
}

/// The nearest-rank `q`-quantile of each round's own samples — its
/// distinct requests, token gaps or steps — and the median of those over
/// the rounds. Every round runs the same list, so pooling rounds would
/// repeat each request, not add to the tail; the rounds take the timing
/// noise out of one list's quantile instead. Not applicable (no value)
/// without rounds.
fn per_round<'a>(
    rounds: impl IntoIterator<Item = &'a Round>,
    pick: fn(&Round) -> &Vec<f64>,
    q: f64,
) -> Value {
    let of_each: Vec<f64> = rounds
        .into_iter()
        .filter_map(|r| Samples::new(pick(r).clone()).rank(q))
        .collect();
    Value::of_rounds(&of_each)
}

/// Metric name → value, for one list of one workload.
pub type Metrics = BTreeMap<&'static str, Value>;

/// Everything measured on one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// Digest of the round's request list.
    pub digest: u64,
    /// Requests in one round's list, all distinct.
    pub requests: usize,
    /// The highest percentile that has ten of one round's TTFT samples
    /// beyond it (serving workloads).
    pub ttft_supported: Option<f64>,
    /// Output tokens per wall second of every timed round.
    pub round_log: Vec<f64>,
    /// Requests sent over the timed rounds, or anchor checks made.
    pub attempted: u64,
    /// Requests (or checks) that failed.
    pub failed: u64,
    /// What failed, and flags such as a process-wide RSS reading.
    pub notes: Vec<String>,
    /// Every end-to-end metric.
    pub end_to_end: Metrics,
    /// Every per-layer metric (empty unless the run was traced).
    pub per_layer: Metrics,
    /// The anchor pass (`paper_anchors`).
    pub anchors: Option<Anchors>,
}

impl WorkloadResult {
    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Host facts.
    pub host: HostInfo,
    /// The options the run was made with.
    pub options: Options,
    /// One entry per selected workload.
    pub workloads: Vec<WorkloadResult>,
    /// Wall seconds of the whole run.
    pub total_s: f64,
}

/// State of one workload while the run is in progress.
struct InFlight {
    workload: Workload,
    models: Models,
    requests: Vec<GenRequest>,
    setup_s: Vec<f64>,
    rounds: Vec<Round>,
    /// [`fingerprint`] of every timed round.
    fingerprints: Vec<Vec<u64>>,
    anchors: Option<Anchors>,
    /// Set-ups whose anchor pass differed from the one before.
    anchor_drift: u64,
}

impl InFlight {
    /// Whether another timed round is due; never on `paper_anchors`,
    /// whose work is its set-up.
    fn wants_round(&self, opts: &Options) -> bool {
        self.workload.is_serving()
            && match opts.size {
                Size::Smoke => self.rounds.is_empty(),
                Size::Full => {
                    let seconds = match opts.trace {
                        true => opts.seconds / 2.0,
                        false => opts.seconds,
                    };
                    self.rounds.len() < MIN_ROUNDS
                        || self.rounds.iter().map(|r| r.wall_s).sum::<f64>() < seconds
                }
            }
    }
}

/// Sets one workload up [`SETUP_REPS`] times and keeps the last; each
/// set-up's models are dropped before the next is built, so the peak
/// memory is one set-up's. A serving workload's set-up is model
/// synthesis, PTQ and packing, registry and engine construction, and a
/// quarter-size warm-up round; `paper_anchors`' is model synthesis and
/// the anchor pass.
fn set_up(workload: Workload, opts: &Options) -> Result<InFlight, BenchError> {
    let warm_up = workload.requests(Size::Smoke, opts.seed);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<(Models, Option<Anchors>)> = None;
    let mut anchor_drift = 0;
    let reps = if opts.size == Size::Smoke {
        1
    } else {
        SETUP_REPS
    };
    for _ in 0..reps {
        let prev = kept.take().map(|(_, anchors)| anchors);
        let t0 = Instant::now();
        let models = Models::build(workload, opts.seed)?;
        let anchors = if workload.is_serving() {
            run_round(&models, workload, &warm_up, Tracing::Off)?;
            None
        } else {
            Some(anchors::run(&models.fp, opts.seed)?)
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        anchor_drift += u64::from(prev.is_some_and(|prev| prev != anchors));
        kept = Some((models, anchors));
    }
    let (models, anchors) = kept.expect("at least one set-up");
    Ok(InFlight {
        workload,
        models,
        requests: workload.requests(opts.size, opts.seed),
        setup_s,
        rounds: Vec::new(),
        fingerprints: Vec::new(),
        anchors,
        anchor_drift,
    })
}

/// Runs the schedule.
pub fn run(opts: &Options) -> Result<RunResult, BenchError> {
    let start = Instant::now();
    let mut flights = Vec::with_capacity(opts.workloads.len());
    for &w in &opts.workloads {
        flights.push(set_up(w, opts)?);
    }

    // Timed rounds, round-robin, so a slow phase of the host spreads
    // over every workload instead of landing on one.
    loop {
        let mut ran = false;
        for f in &mut flights {
            if !f.wants_round(opts) {
                continue;
            }
            ran = true;
            let mut round = run_round(&f.models, f.workload, &f.requests, Tracing::Off)?;
            f.fingerprints.push(fingerprint(&round));
            // Only the first round's report is read again; a report holds
            // a vector per step, and thirty of them would be most of
            // `peak_rss_mb`.
            if !f.rounds.is_empty() {
                round.report = None;
            }
            f.rounds.push(round);
        }
        if !ran {
            break;
        }
    }

    // Before the traced pass, which is not the workload's own work.
    let peak_rss = peak_rss_mb();
    let replayed = match opts.trace {
        true => Some(Replayed::run(opts.seed)?),
        false => None,
    };
    let mut results = Vec::with_capacity(flights.len());
    for f in flights {
        results.push(finish(f, opts, peak_rss, replayed.as_ref())?);
    }
    Ok(RunResult {
        host: HostInfo::read(),
        options: opts.clone(),
        workloads: results,
        total_s: start.elapsed().as_secs_f64(),
    })
}

/// The workload-independent part of the traced pass, computed once per
/// run: the layer replay and the anchor pass. Every traced run carries
/// the anchors' exact values, so the driver, which lists the serving
/// workloads only, records them too.
struct Replayed {
    layers: Vec<(&'static str, f64)>,
    anchors: Anchors,
}

impl Replayed {
    fn run(seed: u64) -> Result<Self, BenchError> {
        let models = Models::build(Workload::MixedTraffic, seed)?;
        Ok(Replayed {
            layers: replay::run(&models.fp, models.w4a4(), seed)?,
            anchors: anchors::run(&models.fp, seed)?,
        })
    }
}

/// Exact-lane fingerprint of a round: everything that must repeat.
fn fingerprint(round: &Round) -> Vec<u64> {
    let mut f = vec![round.tokens, round.completions.len() as u64];
    if let Some(r) = &round.report {
        f.extend([
            r.steps,
            r.generated_tokens,
            r.prefill_tokens,
            r.preemptions,
            r.resumes,
            r.prefix_hits,
            r.prefix_misses,
            r.evicted as u64,
        ]);
    }
    f
}

/// Output tokens per wall second of every timed round.
fn round_tok_s(rounds: &[Round]) -> Vec<f64> {
    rounds.iter().map(|r| r.tokens as f64 / r.wall_s).collect()
}

/// Oracle, round-to-round and anchor checks: the verdict and what failed.
fn check(f: &InFlight, opts: &Options) -> (Verdict, Vec<String>) {
    let mut notes = Vec::new();
    let completions: Vec<&[Completion]> = f.rounds.iter().map(|r| &r.completions[..]).collect();
    let mut verdict = oracle::check(&f.models, f.workload, &f.requests, &completions, opts.seed);
    if verdict.failed > 0 {
        notes.push(format!(
            "{} of {} requests did not complete or differ from the sequential oracle",
            verdict.failed, verdict.attempted
        ));
    }
    if let Some(first) = f.fingerprints.first() {
        if f.fingerprints.iter().any(|p| p != first) {
            verdict.failed += 1;
            notes.push("timed rounds did not execute the same step sequence".into());
        }
    }
    if let Some(a) = &f.anchors {
        verdict.attempted += a.checks as u64;
        verdict.failed += a.failed_checks.len() as u64 + f.anchor_drift;
        notes.extend(
            a.failed_checks
                .iter()
                .map(|c| format!("shape check failed: {c}")),
        );
        if f.anchor_drift > 0 {
            notes.push("anchor pass did not repeat bit for bit".into());
        }
    }
    if opts.workloads.len() > 1 {
        notes.push(
            "peak_rss_mb is the peak of a process that ran every selected workload; \
             run one workload per process, as the driver and stability.sh do, for its own"
                .into(),
        );
    }
    (verdict, notes)
}

/// The end-to-end metrics: wall lane, as measured. The three that time
/// requests have no value on `paper_anchors`, which has no rounds.
fn end_to_end(f: &InFlight, peak_rss_mb: f64) -> Metrics {
    let metrics = Metrics::from([
        ("decode_tok_s", Value::of_rounds(&round_tok_s(&f.rounds))),
        ("ttft_ms_p50", per_round(&f.rounds, |r| &r.ttft_ms, 0.5)),
        ("itl_ms_p50", per_round(&f.rounds, |r| &r.itl_ms, 0.5)),
        ("setup_s", Value::of_rounds(&f.setup_s)),
        ("peak_rss_mb", Value::exact(peak_rss_mb)),
    ]);
    debug_assert!(END_TO_END.iter().all(|m| metrics.contains_key(m.name)));
    metrics
}

/// The per-layer metrics: the exact-lane end-to-end values, the replay,
/// the anchor pass, and — for serving workloads — the traced pass, which
/// runs here. Zero where the workload does not exercise a layer.
fn per_layer(
    f: &InFlight,
    opts: &Options,
    verdict: Verdict,
    replayed: &Replayed,
) -> Result<Metrics, BenchError> {
    let w = f.workload;
    let mut metrics = Metrics::new();
    let mut put = |name: &'static str, v: Value| {
        metrics.insert(name, v);
    };
    put(
        "fail_frac",
        Value::exact(verdict.failed as f64 / verdict.attempted.max(1) as f64),
    );
    let a = &replayed.anchors;
    for &(name, v) in replayed.layers.iter().chain(&a.cycle.accel) {
        put(name, Value::exact(v));
    }
    put(
        "paper_err_pct_max",
        Value::exact(anchors::err_pct_max(&a.cycle.table)),
    );
    put("w4a4_mean_kl", Value::exact(a.w4a4_mean_kl));
    put("w4a4_top1_agree", Value::exact(a.w4a4_top1_agree));

    if !w.is_serving() {
        // No round to price: the single-stream VCK190-W4A4 figure.
        put("accel_tok_s", Value::exact(a.cycle.table[0].model));
    } else {
        put("ttft_ms_p95", per_round(&f.rounds, |r| &r.ttft_ms, 0.95));
        // The frontend workload's list once more through the frontend and
        // once direct-drive, back to back so both see one host phase:
        // the channel hop is the token gap of the first minus the step
        // of the second, and the engine's own call timings come from
        // the second.
        let companion = match w {
            Workload::SingleStream => {
                let through = run_round(&f.models, w, &f.requests, Tracing::Off)?;
                let direct = drive_direct(&f.models, w, &f.requests, Tracing::Off)?;
                let gap = Samples::new(through.itl_ms).median();
                let step = Samples::new(direct.step_ms.clone()).median();
                put(
                    "serve.frontend.token_hop_us_p50",
                    Value::exact((gap.unwrap_or(0.0) - step.unwrap_or(0.0)) * 1e3),
                );
                Some(direct)
            }
            _ => None,
        };
        let direct = companion
            .as_ref()
            .map_or(&f.rounds[..], std::slice::from_ref);
        let traced_rounds = match opts.size {
            Size::Full => TRACED_ROUNDS,
            Size::Smoke => 1,
        };
        let mut traced = Vec::with_capacity(traced_rounds);
        for _ in 0..traced_rounds {
            traced.push(run_round(&f.models, w, &f.requests, Tracing::On)?);
        }
        serving_layers(f, direct, &traced, &mut put)?;
        if let (Some(dir), Some(tracer)) =
            (&opts.out_dir, traced.last().and_then(|r| r.tracer.as_ref()))
        {
            write_trace(dir, w, tracer)?;
        }
    }
    for m in &PER_LAYER {
        metrics.entry(m.name).or_insert(Value::exact(0.0));
    }
    Ok(metrics)
}

/// Checks and reduction for one workload.
fn finish(
    mut f: InFlight,
    opts: &Options,
    peak_rss_mb: f64,
    replayed: Option<&Replayed>,
) -> Result<WorkloadResult, BenchError> {
    // The traced pass ran the anchor pass once more: it must agree too.
    if let (Some(own), Some(replayed)) = (&f.anchors, replayed) {
        f.anchor_drift += u64::from(*own != replayed.anchors);
    }
    let (verdict, notes) = check(&f, opts);
    let per_layer = match replayed {
        Some(replayed) => per_layer(&f, opts, verdict, replayed)?,
        None => Metrics::new(),
    };
    Ok(WorkloadResult {
        workload: f.workload,
        digest: digest(&f.requests),
        requests: f.requests.len(),
        ttft_supported: f.rounds.first().and_then(|r| {
            Samples::new(r.ttft_ms.clone())
                .highest_supported()
                .map(|(q, _)| q)
        }),
        round_log: round_tok_s(&f.rounds),
        attempted: verdict.attempted,
        failed: verdict.failed,
        notes,
        end_to_end: end_to_end(&f, peak_rss_mb),
        per_layer,
        anchors: f.anchors,
    })
}

fn write_trace(dir: &std::path::Path, w: Workload, tracer: &Tracer) -> Result<(), BenchError> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("trace-{}.json", w.name())),
        tracer.chrome_trace(w.name()),
    )?;
    Ok(())
}

/// Nearest-rank percentile of step counts (exact lane: no sample rule).
fn rank(values: impl Iterator<Item = u64>, q: f64) -> f64 {
    let mut v: Vec<f64> = values.map(|x| x as f64).collect();
    sort_samples(&mut v);
    nearest_rank(&v, q).unwrap_or(0.0)
}

/// The `serve.*` and `obs.*` per-layer metrics of one serving workload.
fn serving_layers(
    f: &InFlight,
    direct: &[Round],
    traced: &[Round],
    put: &mut impl FnMut(&'static str, Value),
) -> Result<(), BenchError> {
    let w = f.workload;
    let round0 = &f.rounds[0];
    let report: &ServeReport = round0.report.as_ref().expect("serving rounds report");
    let trace = &report.trace;

    // serve::frontend — as the client thread sees it.
    if w == Workload::SingleStream {
        put(
            "serve.frontend.submit_us_p50",
            per_round(&f.rounds, |r| &r.submit_us, 0.5),
        );
        put(
            "serve.frontend.queued_us_p50",
            per_round(&f.rounds, |r| &r.queued_us, 0.5),
        );
    }

    // serve::engine — wall clock around each call, direct drive.
    for (name, q) in [
        ("serve.engine.step_ms_p50", 0.5),
        ("serve.engine.step_ms_p95", 0.95),
        ("serve.engine.step_ms_p99", 0.99),
    ] {
        put(name, per_round(direct, |r| &r.step_ms, q));
    }
    put(
        "serve.engine.submit_us_p50",
        per_round(direct, |r| &r.submit_us, 0.5),
    );
    put(
        "serve.engine.take_events_us_p50",
        per_round(direct, |r| &r.take_events_us, 0.5),
    );

    // serve::engine, serve::scheduler, serve::prefix — exact counts.
    let advances: u64 = trace.processed_per_step.iter().map(|&n| n as u64).sum();
    let moves: u64 = trace.state_moves_per_step.iter().map(|&n| n as u64).sum();
    let max_advances = trace.processed_per_step.iter().max().copied().unwrap_or(0);
    let done = &round0.completions;
    let lookups = report.prefix_hits + report.prefix_misses;
    for (name, v) in [
        ("serve.engine.steps", report.steps as f64),
        ("serve.engine.token_advances", advances as f64),
        ("serve.engine.prefill_tokens", report.prefill_tokens as f64),
        ("serve.engine.decode_tokens", report.generated_tokens as f64),
        ("serve.engine.batch_mean", trace.mean_batch()),
        ("serve.engine.max_step_token_advances", max_advances as f64),
        ("serve.engine.evicted", report.evicted as f64),
        ("serve.engine.state_moves", moves as f64),
        (
            "serve.scheduler.queue_steps_p50",
            rank(done.iter().filter_map(Completion::queue_steps), 0.5),
        ),
        (
            "serve.scheduler.queue_steps_p95",
            rank(done.iter().filter_map(Completion::queue_steps), 0.95),
        ),
        (
            "serve.scheduler.ttft_steps_p50",
            rank(done.iter().filter_map(Completion::ttft_steps), 0.5),
        ),
        (
            "serve.scheduler.ttft_steps_p95",
            rank(done.iter().filter_map(Completion::ttft_steps), 0.95),
        ),
        (
            "serve.scheduler.admissions",
            done.iter().filter(|c| c.admitted_step.is_some()).count() as f64,
        ),
        ("serve.scheduler.preemptions", report.preemptions as f64),
        ("serve.scheduler.resumes", report.resumes as f64),
        ("serve.prefix.hits", report.prefix_hits as f64),
        ("serve.prefix.misses", report.prefix_misses as f64),
        (
            "serve.prefix.hit_rate",
            report.prefix_hits as f64 / lookups.max(1) as f64,
        ),
        (
            "serve.prefix.prefill_tokens_skipped",
            (report.prefix_hits as usize * PREFIX_LEN) as f64,
        ),
    ] {
        put(name, Value::exact(v));
    }

    // serve::accel_cost — the round priced on VCK190 for Mamba2-2.7B.
    let registry = f.models.registry(w)?;
    let mut cost = MultiplexCostModel::for_registry(
        &registry,
        &Platform::vck190(),
        &MambaConfig::preset(ModelPreset::B2_7),
    )?;
    let costed = cost.cost_run(report, done)?;
    let step_s = cost.trace_step_seconds(trace)?;
    let mut at = Vec::with_capacity(step_s.len() + 1);
    at.push(0.0);
    for s in &step_s {
        at.push(at[at.len() - 1] + s);
    }
    let clamp = |i: u64| (i as usize).min(at.len() - 1);
    let mut ttft_s: Vec<f64> = done
        .iter()
        .filter_map(|c| Some(at[clamp(c.first_token_step? + 1)] - at[clamp(c.arrival_step)]))
        .collect();
    sort_samples(&mut ttft_s);
    put("accel_tok_s", Value::exact(costed.tokens_per_s));
    put(
        "accel_ttft_s_p95",
        Value::exact(nearest_rank(&ttft_s, 0.95).unwrap_or(0.0)),
    );
    put(
        "serve.accel_cost.residency_ok",
        Value::exact(f64::from(u8::from(costed.residency_ok))),
    );
    put(
        "serve.accel_cost.state_transfer_s",
        Value::exact(costed.state_transfer_s),
    );

    // serve::engine phases and obs — from the traced rounds' spans.
    let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut traced_steps = 0usize;
    for r in traced {
        let tracer = r.tracer.as_ref().expect("traced rounds carry a tracer");
        for s in tracer.spans() {
            *by_name.entry(s.name).or_default() += s.dur_ns as f64;
            traced_steps += usize::from(s.name == "engine.phase.step");
        }
    }
    let total = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    let step_ns = total("engine.phase.step");
    put(
        "serve.engine.overhead_frac",
        Value::exact(1.0 - total("engine.phase.advance") / step_ns.max(1.0)),
    );
    for (metric, span) in [
        ("serve.engine.phase.cancel_us", "engine.phase.cancel"),
        ("serve.engine.phase.expire_us", "engine.phase.expire"),
        ("serve.engine.phase.doom_us", "engine.phase.doom"),
        ("serve.engine.phase.preempt_us", "engine.phase.preempt"),
        ("serve.engine.phase.admit_us", "engine.phase.admit"),
        ("serve.engine.phase.advance_us", "engine.phase.advance"),
        ("serve.engine.phase.sample_us", "engine.phase.sample"),
        ("serve.engine.phase.retire_us", "engine.phase.retire"),
    ] {
        put(
            metric,
            Value::exact(total(span) / 1e3 / traced_steps.max(1) as f64),
        );
    }
    let untraced = median_of(&round_tok_s(&f.rounds));
    let with_trace = mean_of(
        &traced
            .iter()
            .map(|r| r.tokens as f64 / r.wall_s)
            .collect::<Vec<_>>(),
    );
    put(
        "obs.trace_overhead_frac",
        Value::exact((untraced - with_trace) / untraced),
    );
    put(
        "obs.spans_dropped",
        Value::exact(traced.iter().map(|r| r.spans_dropped).sum::<u64>() as f64),
    );
    Ok(())
}
