//! Engine-side observability: the metrics registry, step-phase span
//! tracing, and flight recorder wired into [`crate::engine::ServeEngine`].
//!
//! [`EngineObs`] bundles the three `lightmamba_obs` primitives and owns
//! every engine-specific registration: which counters exist, which
//! histogram buckets latency lands in, which lifecycle transitions the
//! flight recorder keeps. The engine carries an `Option<Box<EngineObs>>`
//! — `None` (the default) costs one branch per hook, and
//! [`crate::engine::ServeEngine::enable_obs`] turns the whole layer on.
//!
//! The `engine_*_total` counters count nothing themselves. Each is one
//! row of a table naming the engine tally it renders — the same counts
//! [`crate::engine::ServeEngine::report`] reads — and the step close
//! brings every row up to that tally, so the exposition and the report
//! cannot disagree.
//!
//! Everything the engine calls per step is allocation-free after
//! construction: counters and gauges are index-addressed, histograms
//! scan fixed buckets, spans and flight-recorder entries land in
//! pre-allocated bounded storage. The allocating operations —
//! [`EngineObs::exposition`], the Chrome-trace renderers, and
//! [`EngineObs::flight_dump`] — are explicit cold paths a caller invokes
//! after (or outside) the serving loop.
//!
//! Two clocks appear in the exported trace. The *wall-clock* lane is
//! what the host spent simulating each phase ([`std::time::Instant`]).
//! The *virtual* lane restates the same steps in accelerator-projected
//! seconds from the cost model
//! ([`crate::accel_cost::MultiplexCostModel::trace_step_seconds`]), so a
//! trace viewer shows host cost and modeled-hardware cost side by side
//! on one time axis each.

use lightmamba_obs::recorder::{FaultKind, FlightRecorder, LifecyclePhase, StepRecord};
use lightmamba_obs::registry::{CounterId, GaugeId, HistogramId, MetricsRegistry};
use lightmamba_obs::trace::{ChromeTraceBuilder, SpanRecorder};

use crate::engine::Totals;
use crate::prefix::PrefixCache;
use crate::request::{Completion, FinishReason};

/// Capacity knob of an [`EngineObs`]. The default suits the bench
/// harnesses: ~1.5k steps of spans. The flight recorder always keeps
/// the last 512 step records and 4k lifecycle events.
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Maximum spans retained (≈10 per step; beyond this, spans are
    /// counted as dropped, not stored).
    pub span_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            span_capacity: 16_384,
        }
    }
}

/// Step records the flight recorder retains.
const STEP_RECORDS: usize = 512;
/// Lifecycle events the flight recorder retains.
const LIFECYCLE_EVENTS: usize = 4_096;

/// The engine's run-wide counts at a step's close, and its worker-pool
/// width: everything the `engine_*_total` series and the pool gauge
/// read.
pub(crate) struct Tally<'a> {
    /// Steps executed, the closing one included.
    pub(crate) steps: u64,
    pub(crate) threads: usize,
    pub(crate) totals: &'a Totals,
    pub(crate) prefix: Option<&'a PrefixCache>,
    /// Token-advances per model, indexed by [`crate::registry::ModelId`].
    pub(crate) processed_per_model: &'a [u64],
}

/// Reads one count of the engine's tally.
type Read = fn(&Tally<'_>) -> u64;

/// Every unlabeled `engine_*_total` series: name, help text, and the
/// tally count it renders, in exposition order.
const COUNTERS: [(&str, &str, Read); 21] = [
    ("engine_steps_total", "Engine steps executed.", |t| t.steps),
    (
        "engine_decode_tokens_total",
        "Decode tokens sampled.",
        |t| t.totals.decode_tokens,
    ),
    (
        "engine_prefill_tokens_total",
        "Prompt tokens consumed by chunked prefill.",
        |t| t.totals.prefill_tokens,
    ),
    (
        "engine_admissions_total",
        "Requests admitted from the waiting queue (session resumes included).",
        |t| t.totals.admissions,
    ),
    (
        "engine_preemptions_total",
        "Residents paused out of their slot by the policy.",
        |t| t.totals.preemptions,
    ),
    (
        "engine_resumes_total",
        "Paused sequences restored into a slot.",
        |t| t.totals.resumes,
    ),
    (
        "engine_cancellations_total",
        "Requests evicted by client cancellation.",
        |t| t.totals.cancellations as u64,
    ),
    (
        "engine_expiries_total",
        "Requests evicted on deadline (doomed evictions included).",
        |t| t.totals.evicted as u64,
    ),
    (
        "engine_completions_total",
        "Requests completed normally (max-tokens or EOS).",
        |t| t.totals.completed as u64,
    ),
    (
        "engine_state_moves_total",
        "Fixed-size recurrent states moved (pause/resume/park/restore).",
        |t| t.totals.state_moves.iter().sum(),
    ),
    (
        "engine_session_parks_total",
        "Session turns whose final state was parked for the next turn.",
        |t| t.totals.session_parks,
    ),
    (
        "engine_session_restores_total",
        "Admissions that restored a parked session state.",
        |t| t.totals.session_restores,
    ),
    (
        "engine_requests_failed_total",
        "Requests retired by backend faults (contained errors/panics).",
        |t| t.totals.failed as u64,
    ),
    (
        "engine_requests_rejected_total",
        "Arrivals shed by overload protection.",
        |t| t.totals.rejected as u64,
    ),
    (
        "engine_backend_faults_total",
        "Backend faults contained (error returns plus caught panics).",
        |t| t.totals.backend_faults,
    ),
    (
        "engine_quarantine_entered_total",
        "Backend quarantine entries (first faults and half-open re-faults).",
        |t| t.totals.quarantine_entries,
    ),
    (
        "engine_quarantine_recovered_total",
        "Backend quarantine recoveries (half-open canary survived).",
        |t| t.totals.quarantine_recoveries,
    ),
    (
        "engine_par_shards_total",
        "Worker shards sub-batches were split across (1 per sub-batch when sequential).",
        |t| t.totals.par_shards,
    ),
    (
        "engine_prefix_hits_total",
        "Admissions that restored a cached shared-prefix state.",
        |t| t.prefix.map_or(0, PrefixCache::hits),
    ),
    (
        "engine_prefix_misses_total",
        "Shared-prefix admissions that found no cached state (harvested one).",
        |t| t.prefix.map_or(0, PrefixCache::misses),
    ),
    (
        "engine_budget_deferrals_total",
        "Admissions deferred by the token budget (kept queued).",
        |t| t.totals.budget_deferrals,
    ),
];

/// Pre-registered metric ids — resolved once at
/// [`EngineObs::new`], index-addressed ever after.
#[derive(Debug)]
struct Ids {
    /// One per [`COUNTERS`] row, same order.
    counters: [CounterId; COUNTERS.len()],
    /// Per-model token-advance counters, indexed by
    /// [`crate::registry::ModelId`].
    model_tokens: Vec<CounterId>,
    /// Per-model state-move counters, same index.
    model_state_moves: Vec<CounterId>,
    pool_threads: GaugeId,
    queue_depth: GaugeId,
    paused_depth: GaugeId,
    active_seqs: GaugeId,
    free_slots: GaugeId,
    step_wall_us: HistogramId,
    step_batch: HistogramId,
    ttft_steps: HistogramId,
    e2e_steps: HistogramId,
    queue_steps: HistogramId,
    budget_deferred: HistogramId,
}

/// Moves counter `id` up to `now`. Counters and the tally they read are
/// both monotone, so the difference is never negative.
fn sync(m: &mut MetricsRegistry, id: CounterId, now: u64) {
    m.add(id, now - m.counter_value(id));
}

/// The observability state of one engine run. Obtain via
/// [`crate::engine::ServeEngine::enable_obs`] /
/// [`crate::engine::ServeEngine::take_obs`].
#[derive(Debug)]
pub struct EngineObs {
    /// The metrics registry (counters/gauges/histograms; render with
    /// [`EngineObs::exposition`]).
    pub metrics: MetricsRegistry,
    /// Per-step phase spans (render with [`EngineObs::chrome_trace`]).
    pub spans: SpanRecorder,
    /// Recent steps and request lifecycle transitions.
    pub flight: FlightRecorder,
    ids: Ids,
}

impl EngineObs {
    /// Registers the full engine metric set. `model_names` are the
    /// registry's backend names, in [`crate::registry::ModelId`] order —
    /// each gets labeled per-model token and state-move counters.
    pub fn new(cfg: ObsConfig, model_names: &[&str]) -> Self {
        let mut m = MetricsRegistry::new();
        let counters = COUNTERS.map(|(name, help, _)| m.counter(name, help));
        let mut per_model = |name: &str, help: &str| -> Vec<CounterId> {
            model_names
                .iter()
                .map(|model| m.counter_labeled(name, ("model", model), help))
                .collect()
        };
        let model_tokens = per_model(
            "engine_model_tokens_total",
            "Token-advances processed, per backend.",
        );
        let model_state_moves = per_model(
            "engine_model_state_moves_total",
            "State moves attributed to a backend.",
        );
        let ids = Ids {
            counters,
            model_tokens,
            model_state_moves,
            pool_threads: m.gauge(
                "engine_pool_threads",
                "Worker threads executing batched model steps (1 = sequential).",
            ),
            queue_depth: m.gauge("engine_queue_depth", "Waiting requests at step close."),
            paused_depth: m.gauge("engine_paused_depth", "Paused sequences at step close."),
            active_seqs: m.gauge(
                "engine_active_sequences",
                "Resident sequences at step close.",
            ),
            free_slots: m.gauge("engine_free_slots", "Free slots at step close."),
            step_wall_us: m.histogram(
                "engine_step_wall_us",
                "Wall-clock engine step latency (microseconds).",
                &[
                    10.0, 50.0, 100.0, 500.0, 1_000.0, 5_000.0, 20_000.0, 100_000.0,
                ],
            ),
            step_batch: m.histogram(
                "engine_step_batch",
                "Resident batch size per step.",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
            ),
            ttft_steps: m.histogram(
                "engine_ttft_steps",
                "Time-to-first-token of completions (engine steps).",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0],
            ),
            e2e_steps: m.histogram(
                "engine_e2e_steps",
                "End-to-end latency of completions (engine steps).",
                &[4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1_024.0],
            ),
            queue_steps: m.histogram(
                "engine_queue_steps",
                "Queueing delay of completions (engine steps).",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
            ),
            budget_deferred: m.histogram(
                "engine_budget_deferred",
                "Admissions deferred by the token budget, per step.",
                &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
            ),
        };
        EngineObs {
            metrics: m,
            spans: SpanRecorder::with_capacity(cfg.span_capacity),
            flight: FlightRecorder::new(STEP_RECORDS, LIFECYCLE_EVENTS),
            ids,
        }
    }

    /// Records one request lifecycle transition (hot path).
    #[inline]
    pub(crate) fn lifecycle(&mut self, id: u64, step: u64, phase: LifecyclePhase) {
        self.flight.record_lifecycle(id, step, phase);
    }

    /// Lands one fault-domain transition in the flight recorder's fault
    /// ring (hot path, allocation-free — fault steps are rare but should
    /// never themselves allocate).
    #[inline]
    pub(crate) fn fault_event(&mut self, step: u64, model: u32, kind: FaultKind) {
        self.flight.record_fault(step, model, kind);
    }

    /// Closes one engine step: brings every counter up to the engine's
    /// `tally` — the one place a counter changes — then folds the step's
    /// record, the requests that left the engine this step, its session
    /// parks and its token-budget deferrals into gauges, histograms and
    /// the flight recorder. `rec.cancelled`/`rec.expired` are derived
    /// here from the completion delta. Allocation-free.
    pub(crate) fn close_step(
        &mut self,
        mut rec: StepRecord,
        tally: &Tally<'_>,
        finished: &[Completion],
        parks: &[u64],
        budget_deferred: u64,
    ) {
        let (m, ids) = (&mut self.metrics, &self.ids);
        for (&id, (_, _, read)) in ids.counters.iter().zip(&COUNTERS) {
            sync(m, id, read(tally));
        }
        for (&id, &n) in ids.model_tokens.iter().zip(tally.processed_per_model) {
            sync(m, id, n);
        }
        for (&id, &n) in ids.model_state_moves.iter().zip(&tally.totals.state_moves) {
            sync(m, id, n);
        }
        m.set(ids.pool_threads, tally.threads as f64);
        m.set(ids.queue_depth, rec.queue_depth as f64);
        m.set(ids.paused_depth, rec.paused_depth as f64);
        m.set(ids.active_seqs, rec.batch as f64);
        m.set(ids.free_slots, rec.free_slots as f64);
        m.observe(ids.step_wall_us, rec.wall_ns as f64 / 1e3);
        m.observe(ids.step_batch, rec.batch as f64);
        m.observe(ids.budget_deferred, budget_deferred as f64);

        for c in finished {
            let phase = match c.finish {
                FinishReason::MaxTokens | FinishReason::Eos => LifecyclePhase::Done,
                FinishReason::Cancelled => {
                    rec.cancelled += 1;
                    LifecyclePhase::Cancelled
                }
                FinishReason::DeadlineExceeded => {
                    rec.expired += 1;
                    LifecyclePhase::Expired
                }
                FinishReason::Failed => LifecyclePhase::Failed,
                FinishReason::Rejected => LifecyclePhase::Rejected,
            };
            self.flight.record_lifecycle(c.id, rec.step, phase);
            if phase != LifecyclePhase::Done {
                continue;
            }
            if let Some(t) = c.ttft_steps() {
                m.observe(ids.ttft_steps, t as f64);
            }
            if let Some(e) = c.e2e_steps() {
                m.observe(ids.e2e_steps, e as f64);
            }
            if let Some(q) = c.queue_steps() {
                m.observe(ids.queue_steps, q as f64);
            }
        }
        for &sid in parks {
            self.flight
                .record_lifecycle(sid, rec.step, LifecyclePhase::Parked);
        }
        self.flight.record_step(rec);
    }

    /// Renders the Prometheus-style text exposition snapshot (cold
    /// path).
    pub fn exposition(&self) -> String {
        self.metrics.expose()
    }

    /// Renders the current flight-recorder window as readable text
    /// (cold path).
    pub fn flight_dump(&self) -> String {
        self.flight.dump()
    }

    /// Renders the recorded phase spans as Chrome trace-event JSON, one
    /// wall-clock lane (cold path).
    pub fn chrome_trace(&self) -> String {
        self.spans.chrome_trace()
    }

    /// Renders a two-lane Chrome trace: the wall-clock phase spans plus
    /// a virtual-time lane in which step *i* lasts `step_seconds[i]`
    /// accelerator-projected seconds (from
    /// [`crate::accel_cost::MultiplexCostModel::trace_step_seconds`]),
    /// prefix-summed onto its own axis. Cold path.
    pub fn chrome_trace_with_virtual(&self, step_seconds: &[f64]) -> String {
        let mut b = ChromeTraceBuilder::new();
        b.process_name(1, "wall clock (host)");
        b.process_name(2, "virtual (accelerator-projected)");
        for s in self.spans.spans() {
            b.span(s, 1, 1);
        }
        let mut now_us = 0.0f64;
        for (i, &s) in step_seconds.iter().enumerate() {
            let dur_us = s * 1e6;
            // Idle steps are free on the accelerator; skip their
            // zero-width events so the lane stays readable.
            if dur_us > 0.0 {
                b.complete_event(
                    "step",
                    "virtual",
                    2,
                    1,
                    now_us,
                    dur_us,
                    &[("step", i as f64)],
                );
            }
            now_us += dur_us;
        }
        b.finish()
    }
}
