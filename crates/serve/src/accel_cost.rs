//! Projects an engine run onto accelerator time.
//!
//! The engine's clock counts batched model steps; this module prices
//! each step with `lightmamba_accel`'s cycle model
//! ([`DecodeSimulator::batch_report`]) — one shared weight stream plus
//! per-sequence compute — and converts the run's step timestamps into
//! seconds on a concrete platform. This is the serving analogue of the
//! paper's single-stream decode projection (Fig. 9a): where the paper
//! reports 7.21 tokens/s for one W4A4 stream on VCK190, costing a
//! batched trace shows how far dense continuous batching lifts aggregate
//! tokens/s before the platform's compute roofline bites.
//!
//! One pricing model lives here. [`MultiplexCostModel`] gives each
//! registered backend its own simulator (same device geometry, that
//! backend's [`HwPrecision`]), and a step
//! costs the *sum* of its per-model sub-batch costs — each sub-batch
//! streams its own model's weights once. A W4A4 sub-batch streams ~4×
//! fewer bytes than an FP16 one, so on a bandwidth-bound platform the
//! quantized backend's projected tokens/s beats FP at equal batch. A
//! single-model engine is the one-entry case: its trace's sub-batch
//! lanes are its flat lanes, and the run-level latencies are
//! `per_model[0]`'s.
//!
//! Preemption traffic is priced too: every pause writes one sequence's
//! fixed-size recurrent state off-chip and every resume reads one back,
//! on the same DMA stream the weights ride. The per-move cost is tiny
//! next to a weight stream — which is exactly the paper's point: with no
//! KV cache, preempting a Mamba sequence costs a state slab, not a
//! cache spill — and the reports carry the aggregate `state_transfer_s`
//! so the overhead stays visible.

use std::collections::HashMap;

use lightmamba_accel::arch::{AcceleratorConfig, HwPrecision};
use lightmamba_accel::platform::Platform;
use lightmamba_accel::sim::DecodeSimulator;
use lightmamba_model::MambaConfig;

use crate::error::ServeError;
use crate::metrics::{Percentiles, RunTrace, ServeReport};
use crate::registry::ModelRegistry;
use crate::request::{Completion, FinishReason};
use crate::scheduler::TokenBudget;

/// One simulator's unit prices, memoizing per-batch step costs (batch
/// sizes repeat constantly in steady state).
#[derive(Debug)]
struct StepCostModel {
    sim: DecodeSimulator,
    step_seconds: HashMap<usize, f64>,
}

impl StepCostModel {
    /// Projected duration of one engine step performing `tokens`
    /// token-advances. With a prefill chunk of 1 this is the batch size
    /// (one token per resident sequence); chunked-prefill steps carry
    /// more tokens and are priced accordingly — the weight stream is
    /// still shared once across all of a step's token-advances, whether
    /// they belong to different sequences or to consecutive positions
    /// of one prompt (the recurrence is evaluated layer-by-layer, so a
    /// layer's weights serve its whole chunk). Idle steps (0 tokens)
    /// are free: a real engine blocks on the arrival queue instead of
    /// spinning.
    fn step_seconds(&mut self, tokens: usize) -> f64 {
        if tokens == 0 {
            return 0.0;
        }
        let sim = &self.sim;
        *self
            .step_seconds
            .entry(tokens)
            .or_insert_with(|| sim.batch_report(tokens).cycles_per_step / sim.platform().freq_hz)
    }

    /// Projected seconds to move one paused sequence's full recurrent
    /// state across the platform DMA — the price of a single pause or
    /// resume. The byte count is the model's per-layer state at the
    /// on-chip INT16 convention times the layer count
    /// ([`DecodeSimulator::layer_state_bytes_per_seq`]), so the bound
    /// can never drift from the state the engine actually hosts; the
    /// transfer shares the weight stream, hence the platform's DMA
    /// efficiency applies.
    fn state_move_seconds(&self) -> f64 {
        let bytes = self.sim.layer_state_bytes_per_seq() * self.sim.model().n_layer as f64;
        self.sim.platform().dma_cycles(bytes) / self.sim.platform().freq_hz
    }
}

/// Calibrates a [`TokenBudget`] for an engine of `slots` slots by
/// probing each registered backend's cycle model — the warmup probe a
/// production router would run against real hardware, here answered by
/// the [`DecodeSimulator`].
///
/// The probe finds, per backend, the largest per-step token count whose
/// projected step time stays within 2× the backend's full-wave decode
/// step (`step_seconds(slots)`): below that knee the weight stream
/// still dominates and extra prefill tokens ride along nearly free;
/// past it per-token compute does, and admitting more prefill starts
/// delaying every resident's next token. The per-step prefill cap is
/// the *minimum* knee across backends (the budget is global, the
/// slowest backend sets the pace), floored at `slots` so decode alone
/// can never be throttled; `max_total_tokens` is that cap × `slots` —
/// each resident gets one cap's worth of lifetime footprint.
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] for an empty registry or
/// `slots == 0`.
pub fn calibrate_token_budget(
    registry: &ModelRegistry<'_>,
    platform: &Platform,
    design_model: &MambaConfig,
    slots: usize,
) -> Result<TokenBudget, ServeError> {
    if slots == 0 {
        return Err(ServeError::InvalidConfig(
            "token-budget calibration for a zero-slot engine".into(),
        ));
    }
    let mut probes = MultiplexCostModel::for_registry(registry, platform, design_model)?;
    let mut prefill_cap = usize::MAX;
    for (_, cost) in &mut probes.models {
        let wave = cost.step_seconds(slots);
        // Walk the probe upward from a full decode wave until the knee
        // (or a generous ceiling — the knee provably exists because
        // per-token compute grows without bound while the threshold is
        // fixed).
        let ceiling = slots.saturating_mul(256);
        let mut knee = slots;
        while knee < ceiling && cost.step_seconds(knee + 1) <= 2.0 * wave {
            knee += 1;
        }
        prefill_cap = prefill_cap.min(knee);
    }
    TokenBudget::new(prefill_cap, prefill_cap.saturating_mul(slots))
}

/// One model's slice of a multiplexed costed run.
#[derive(Debug, Clone)]
pub struct ModelCost {
    /// The model's registered name.
    pub model: String,
    /// Projected wall time attributed to this model's sub-batches.
    pub seconds: f64,
    /// Requests this model completed.
    pub completed: usize,
    /// Generated tokens of this model's finished requests.
    pub generated_tokens: u64,
    /// Token-advances this model processed (Σ of its sub-batch tokens).
    pub processed_tokens: u64,
    /// Processed tokens per attributed second — the throughput of this
    /// backend *while its weight stream runs*, the equal-batch basis for
    /// comparing backends in one multiplexed run.
    pub processed_tokens_per_s: f64,
    /// Single-stream decode tokens/s of this backend's simulator (the
    /// paper's per-precision figure).
    pub single_stream_tokens_per_s: f64,
    /// Weight bytes one of this model's sub-batches streams per step.
    pub weight_stream_bytes_per_step: f64,
    /// Projected seconds this model spent moving paused states on and
    /// off chip (included in `seconds`).
    pub state_transfer_s: f64,
    /// Time-to-first-token stats in projected seconds (on the shared
    /// multiplexed time axis, so cross-model interference is included).
    pub ttft_s: Percentiles,
    /// End-to-end latency stats in projected seconds.
    pub e2e_s: Percentiles,
}

/// A multiplexed engine run priced on one platform.
#[derive(Debug, Clone)]
pub struct MultiplexedRun {
    /// Platform name (from the simulators).
    pub platform: String,
    /// Admission policy that produced the trace.
    pub policy: &'static str,
    /// Projected wall time of the whole run.
    pub seconds: f64,
    /// Aggregate generated tokens/s across all models.
    pub tokens_per_s: f64,
    /// Aggregate processed tokens/s across all models.
    pub processed_tokens_per_s: f64,
    /// Projected seconds spent on pause/resume state transfers across
    /// all models (included in `seconds`).
    pub state_transfer_s: f64,
    /// Projected seconds spent advancing sequences later cancelled by
    /// their clients, across all models (included in `seconds`).
    pub wasted_work_s: f64,
    /// Per-model slices, in registry order. A single-model run's
    /// TTFT / end-to-end latencies and single-stream rate are
    /// `per_model[0]`'s.
    pub per_model: Vec<ModelCost>,
    /// Largest total batch any step ran.
    pub peak_batch: usize,
    /// Largest batch whose per-layer state fits the platform's URAM
    /// (state precision is backend-independent, so one bound covers all
    /// models sharing the pool).
    pub max_resident_batch: usize,
    /// Whether every step's resident state fit on-chip.
    pub residency_ok: bool,
}

/// One (step, model) cell of a priced trace.
struct Cell {
    /// Token-advances the model's sub-batch performed this step.
    tokens: usize,
    /// Projected seconds of the sub-batch, its state moves included.
    seconds: f64,
    /// The state moves' share of `seconds`.
    move_s: f64,
}

/// The shared time axis of a priced run: entry `t` is the projected
/// time when step `t` starts, so entry `t + 1` is when it completes.
/// Stamps past the trace clamp to its end.
struct TimeAxis(Vec<f64>);

impl TimeAxis {
    fn start_of(&self, step: u64) -> f64 {
        self.0[(step as usize).min(self.0.len() - 1)]
    }

    fn end_of(&self, step: u64) -> f64 {
        self.start_of(step.saturating_add(1))
    }
}

/// Prices engine traces: one simulator per registered backend, a step
/// costing the sum of its per-model sub-batch costs. A single model is
/// the one-entry case.
#[derive(Debug)]
pub struct MultiplexCostModel {
    models: Vec<(String, StepCostModel)>,
}

impl MultiplexCostModel {
    /// Wraps named per-model simulators (registry order).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when no simulator is given.
    pub fn new(models: Vec<(String, DecodeSimulator)>) -> Result<Self, ServeError> {
        if models.is_empty() {
            return Err(ServeError::InvalidConfig(
                "multiplex cost model needs at least one simulator".into(),
            ));
        }
        Ok(MultiplexCostModel {
            models: models
                .into_iter()
                .map(|(name, sim)| {
                    let step_seconds = HashMap::new();
                    (name, StepCostModel { sim, step_seconds })
                })
                .collect(),
        })
    }

    /// Builds one simulator per registered backend: the same `platform`
    /// and `design_model` checkpoint for all, each with that backend's
    /// [`DecodeBackend::hw_precision`](crate::backend::DecodeBackend::hw_precision)
    /// — so backends differ only in weight-stream width and MAC packing.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for an empty registry.
    pub fn for_registry(
        registry: &ModelRegistry<'_>,
        platform: &Platform,
        design_model: &MambaConfig,
    ) -> Result<Self, ServeError> {
        Self::new(
            registry
                .iter()
                .map(|(_, name, backend)| {
                    let cfg = accelerator_config(platform, design_model, backend.hw_precision());
                    (
                        name.to_string(),
                        DecodeSimulator::new(platform.clone(), design_model.clone(), cfg),
                    )
                })
                .collect(),
        )
    }

    /// The one pricing pass: checks the trace's sub-batch shape against
    /// the simulators and prices every (step, model) cell, step-major.
    /// Sub-batches are priced by their token-advances (chunked prefill
    /// included) plus one state transfer per pause/resume.
    fn price(&mut self, trace: &RunTrace) -> Result<Vec<Cell>, ServeError> {
        let n_models = self.models.len();
        if trace.sub_processed_per_step.len() != trace.batch_per_step.len()
            || trace
                .sub_processed_per_step
                .iter()
                .any(|s| s.len() != n_models)
        {
            return Err(ServeError::InvalidConfig(format!(
                "trace sub-batches do not match {n_models} priced model(s)"
            )));
        }
        let per_move_s: Vec<f64> = self
            .models
            .iter()
            .map(|(_, cost)| cost.state_move_seconds())
            .collect();
        let mut cells = Vec::with_capacity(trace.sub_processed_per_step.len() * n_models);
        for (t, sub) in trace.sub_processed_per_step.iter().enumerate() {
            let moves = trace.sub_state_moves_per_step.get(t);
            for (m, (&tokens, (_, cost))) in sub.iter().zip(&mut self.models).enumerate() {
                let moves = moves.and_then(|s| s.get(m)).copied().unwrap_or(0);
                let move_s = moves as f64 * per_move_s[m];
                cells.push(Cell {
                    tokens,
                    seconds: cost.step_seconds(tokens) + move_s,
                    move_s,
                });
            }
        }
        Ok(cells)
    }

    /// Projected duration of every step of a finished trace, in order —
    /// each step the sum of its per-model sub-batch costs plus their
    /// state moves, the same per-step pricing `cost_run` prefix-sums
    /// into its time axis. This is the virtual-time lane of the
    /// observability export: the engine's wall-clock spans say what a
    /// step *cost to simulate*, this says what it *would cost on the
    /// accelerator* (see
    /// [`crate::observe::EngineObs::chrome_trace_with_virtual`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when the trace's sub-batch
    /// shape disagrees with the number of simulators.
    pub fn trace_step_seconds(&mut self, trace: &RunTrace) -> Result<Vec<f64>, ServeError> {
        Ok(self
            .price(trace)?
            .chunks(self.models.len())
            .map(|step| step.iter().map(|cell| cell.seconds).sum())
            .collect())
    }

    /// Prices a finished run: each step costs the sum of its per-model
    /// sub-batch costs (sub-batches execute back-to-back on one device,
    /// each streaming its own model's weights), and every completion's
    /// latencies are restated on the shared time axis.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when the trace's sub-batch
    /// shape disagrees with the number of simulators (the report must
    /// come from an engine over the same registry).
    pub fn cost_run(
        &mut self,
        report: &ServeReport,
        completions: &[Completion],
    ) -> Result<MultiplexedRun, ServeError> {
        let cells = self.price(&report.trace)?;
        let n_models = self.models.len();

        // Per-model seconds are attributed as the sub-batch costs
        // accrue (the state precision is backend-independent, so every
        // model's move costs the same bytes).
        let mut time_at = Vec::with_capacity(cells.len() / n_models + 1);
        let mut attributed = vec![0.0f64; n_models];
        let mut processed = vec![0u64; n_models];
        let mut state_transfer = vec![0.0f64; n_models];
        let mut now = 0.0f64;
        time_at.push(0.0);
        for step in cells.chunks(n_models) {
            for (m, cell) in step.iter().enumerate() {
                attributed[m] += cell.seconds;
                state_transfer[m] += cell.move_s;
                processed[m] += cell.tokens as u64;
                now += cell.seconds;
            }
            time_at.push(now);
        }
        let axis = TimeAxis(time_at);

        let per_model: Vec<ModelCost> = self
            .models
            .iter()
            .enumerate()
            .map(|(m, (name, cost))| {
                // Latency stats describe requests that ran to
                // completion; deadline evictions and client
                // cancellations never produced a final token, so their
                // stamps would skew the percentiles.
                let mine: Vec<&Completion> = completions
                    .iter()
                    .filter(|c| {
                        c.model == m
                            && matches!(c.finish, FinishReason::MaxTokens | FinishReason::Eos)
                    })
                    .collect();
                let ttft: Vec<f64> = mine
                    .iter()
                    .filter_map(|c| {
                        c.first_token_step
                            .map(|f| axis.end_of(f) - axis.start_of(c.arrival_step))
                    })
                    .collect();
                let e2e: Vec<f64> = mine
                    .iter()
                    .map(|c| axis.end_of(c.finished_step) - axis.start_of(c.arrival_step))
                    .collect();
                ModelCost {
                    model: name.clone(),
                    seconds: attributed[m],
                    completed: mine.len(),
                    generated_tokens: mine.iter().map(|c| c.tokens.len() as u64).sum(),
                    processed_tokens: processed[m],
                    processed_tokens_per_s: if attributed[m] > 0.0 {
                        processed[m] as f64 / attributed[m]
                    } else {
                        0.0
                    },
                    single_stream_tokens_per_s: cost.sim.decode_report().tokens_per_s,
                    weight_stream_bytes_per_step: cost.sim.weight_bytes_per_token(),
                    state_transfer_s: state_transfer[m],
                    ttft_s: Percentiles::of(&ttft),
                    e2e_s: Percentiles::of(&e2e),
                }
            })
            .collect();

        let peak_batch = report.trace.peak_batch();
        // The on-chip state bound is precision-independent (the SSM state
        // is held at INT16 for every backend), so the first simulator
        // speaks for the shared pool.
        let first = &self.models[0].1.sim;
        let max_resident_batch = first.max_resident_batch();
        // Cancelled work is priced at the run's mean per-token rate:
        // those advances rode ordinary steps, so their share of the wall
        // clock is their share of the processed tokens.
        let total_processed: u64 = processed.iter().sum();
        let wasted_work_s = if total_processed > 0 {
            now * report.wasted_token_advances as f64 / total_processed as f64
        } else {
            0.0
        };
        Ok(MultiplexedRun {
            platform: first.platform().name.clone(),
            policy: report.policy,
            seconds: now,
            tokens_per_s: if now > 0.0 {
                report.generated_tokens as f64 / now
            } else {
                0.0
            },
            processed_tokens_per_s: if now > 0.0 {
                total_processed as f64 / now
            } else {
                0.0
            },
            state_transfer_s: state_transfer.iter().sum(),
            wasted_work_s,
            per_model,
            peak_batch,
            max_resident_batch,
            residency_ok: peak_batch <= max_resident_batch,
        })
    }
}

/// Accelerator configuration pricing a backend of datapath `precision`
/// on `platform` for the `design_model` checkpoint: the paper's VCK190
/// W4A4 datapath geometry with `precision` swapped in, so FP and
/// quantized backends are compared on the *same device* and differ only
/// in stream width and per-DSP MAC packing.
fn accelerator_config(
    platform: &Platform,
    design_model: &MambaConfig,
    precision: HwPrecision,
) -> AcceleratorConfig {
    let mut cfg = AcceleratorConfig::lightmamba_w4a4(platform, design_model);
    cfg.precision = precision;
    if precision == HwPrecision::Fp16 {
        // No integer re-quantization stage exists on the FP path.
        cfg.pot_requant = false;
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, ServeEngine};
    use crate::request::GenRequest;
    use crate::scheduler::Fifo;
    use lightmamba_model::MambaModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The paper's 2.7B / VCK190 W4A4 design point as a one-entry cost
    /// model: tiny-model traces are priced on it (the trace *shape* —
    /// batch sizes per step — is what is being costed).
    fn w4a4_cost() -> MultiplexCostModel {
        let platform = Platform::vck190();
        let big = MambaConfig::preset(lightmamba_model::ModelPreset::B2_7);
        let cfg = AcceleratorConfig::lightmamba_w4a4(&platform, &big);
        MultiplexCostModel::new(vec![(
            "w4a4".into(),
            DecodeSimulator::new(platform, big, cfg),
        )])
        .unwrap()
    }

    /// Processed-token speedup of a single-model run over its
    /// simulator's single-stream decode rate.
    fn speedup_vs_single_stream(run: &MultiplexedRun) -> f64 {
        run.processed_tokens_per_s / run.per_model[0].single_stream_tokens_per_s
    }

    fn costed_burst(n: u64, slots: usize) -> MultiplexedRun {
        costed_burst_chunk(n, slots, 1, 6)
    }

    fn costed_burst_chunk(
        n: u64,
        slots: usize,
        prefill_chunk: usize,
        prompt_len: usize,
    ) -> MultiplexedRun {
        let model =
            MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(9)).unwrap();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots,
                max_steps: 100_000,
                prefill_chunk,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let reqs: Vec<GenRequest> = (0..n)
            .map(|id| GenRequest::greedy(id, vec![(id % 100) as u32; prompt_len], 8))
            .collect();
        engine.submit(reqs).unwrap();
        let report = engine.run(&mut Fifo).unwrap();
        assert_eq!(report.completed as u64, n);

        w4a4_cost().cost_run(&report, engine.completions()).unwrap()
    }

    #[test]
    fn batched_run_beats_single_stream_throughput() {
        let run = costed_burst(16, 8);
        let single = run.per_model[0].single_stream_tokens_per_s;
        assert!(
            run.processed_tokens_per_s > single,
            "batched {} <= single {single}",
            run.processed_tokens_per_s,
        );
        assert!(speedup_vs_single_stream(&run) > 1.0);
        assert!(run.tokens_per_s < run.processed_tokens_per_s);
    }

    #[test]
    fn chunked_prefill_is_priced_and_cheaper_when_bandwidth_bound() {
        // Same prompt-heavy workload, chunk 1 vs chunk 8: identical
        // token-advances, but the chunked run folds each prompt into
        // fewer steps, each sharing one weight stream across more
        // tokens — so on the DMA-bound VCK190 the projected wall time
        // strictly drops and TTFT improves.
        let flat = costed_burst_chunk(12, 4, 1, 24);
        let chunked = costed_burst_chunk(12, 4, 8, 24);
        let work = |r: &MultiplexedRun| r.processed_tokens_per_s * r.seconds;
        assert!((work(&flat) - work(&chunked)).abs() < 1e-6 * work(&flat));
        assert!(
            chunked.seconds < flat.seconds,
            "chunked {} s >= flat {} s",
            chunked.seconds,
            flat.seconds
        );
        assert!(chunked.per_model[0].ttft_s.p50 < flat.per_model[0].ttft_s.p50);
        assert!(chunked.processed_tokens_per_s > flat.processed_tokens_per_s);
    }

    #[test]
    fn latencies_are_positive_and_ordered() {
        let run = costed_burst(12, 4);
        assert!(run.seconds > 0.0);
        let m = &run.per_model[0];
        assert!(m.ttft_s.p50 > 0.0);
        assert!(m.e2e_s.p50 >= m.ttft_s.p50);
        assert!(m.e2e_s.p99 >= m.e2e_s.p50);
    }

    #[test]
    fn preemption_is_priced_as_state_transfer() {
        use crate::request::Priority;
        use crate::scheduler::PriorityClasses;

        let model =
            MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(9)).unwrap();
        // One slot, a batch hog, then an interactive arrival: the
        // preemptive priority policy pauses and later resumes the hog —
        // exactly two state moves in the trace.
        let hog = GenRequest::greedy(0, vec![1; 3], 12).with_priority(Priority::Batch);
        let mut urgent = GenRequest::greedy(1, vec![2; 2], 3).with_priority(Priority::Interactive);
        urgent.arrival_step = 4;
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 1,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(vec![hog, urgent]).unwrap();
        let mut policy = PriorityClasses::preemptive();
        let report = engine.run(&mut policy).unwrap();
        assert_eq!(report.preemptions, 1);
        let moves: usize = report.trace.state_moves_per_step.iter().sum();
        assert_eq!(moves, 2, "one pause + one resume");

        let mut cost = w4a4_cost();
        let run = cost.cost_run(&report, engine.completions()).unwrap();
        // Each move costs a full 2.7B state transfer at the platform's
        // DMA rate, and the run total carries exactly both moves.
        let per_move = cost.models[0].1.state_move_seconds();
        assert!(per_move > 0.0);
        assert!((run.state_transfer_s - 2.0 * per_move).abs() < 1e-12);
        // The transfer is charged inside the run's wall clock: zeroing
        // the moves out of the trace prices strictly cheaper.
        let mut without = report.clone();
        without
            .trace
            .sub_state_moves_per_step
            .iter_mut()
            .for_each(|m| m[0] = 0);
        let cheaper = cost.cost_run(&without, engine.completions()).unwrap();
        assert_eq!(cheaper.state_transfer_s, 0.0);
        assert!((run.seconds - cheaper.seconds - 2.0 * per_move).abs() < 1e-12);
        // A state move is far cheaper than a weight-streaming step —
        // the paper's "preemption is nearly free" claim, quantified.
        assert!(per_move < cost.models[0].1.step_seconds(1) / 10.0);
    }

    #[test]
    fn cancellation_and_session_traffic_are_priced() {
        let model =
            MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(9)).unwrap();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        // One chat turn that parks its session state, one long
        // request the client abandons mid-decode.
        let keep = GenRequest::greedy(0, vec![1; 4], 6).with_session(7);
        let doomed = GenRequest::greedy(1, vec![2; 4], 32);
        engine.submit(vec![keep, doomed]).unwrap();
        let mut policy = Fifo;
        for _ in 0..6 {
            engine.step(&mut policy).unwrap();
        }
        engine.cancel(1);
        engine.run(&mut policy).unwrap();
        let mut turn2 = GenRequest::greedy(2, vec![3; 3], 4).with_session(7);
        turn2.arrival_step = engine.clock();
        engine.submit(vec![turn2]).unwrap();
        let report = engine.run(&mut policy).unwrap();
        assert_eq!(report.session_restores, 1);
        assert_eq!(report.cancellations, 1);
        assert!(report.wasted_token_advances > 0);
        let moves: usize = report.trace.state_moves_per_step.iter().sum();
        assert_eq!(moves, 3, "turn-1 save + turn-2 restore + turn-2 save");

        let mut cost = w4a4_cost();
        let run = cost.cost_run(&report, engine.completions()).unwrap();
        // Every session save/restore rides the DMA at the same price as
        // a preemption state move.
        let per_move = cost.models[0].1.state_move_seconds();
        assert!((run.state_transfer_s - 3.0 * per_move).abs() < 1e-12);
        // The abandoned request's advances are priced as wasted wall
        // time, proportional to their share of the processed tokens.
        assert!(run.wasted_work_s > 0.0);
        assert!(run.wasted_work_s < run.seconds);
        let processed: u64 = report
            .trace
            .processed_per_step
            .iter()
            .map(|&t| t as u64)
            .sum();
        let share = report.wasted_token_advances as f64 / processed as f64;
        assert!((run.wasted_work_s / run.seconds - share).abs() < 1e-12);
        // Cancelled completions carry no latency samples: only the two
        // finished requests contribute.
        assert_eq!(engine.completions().len(), 3);
    }

    #[test]
    fn multiplexed_state_moves_are_attributed_per_model() {
        use crate::backend::{FpBackend, W4A4Backend};
        use crate::registry::ModelRegistry;
        use crate::request::Priority;
        use crate::scheduler::PriorityClasses;
        use lightmamba_quant::pipeline::{quantize_model, Method, QuantSpec};

        let model =
            MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(9)).unwrap();
        let q = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
        let mut reg = ModelRegistry::new();
        reg.register("fp", Box::new(FpBackend::new(&model)))
            .unwrap();
        reg.register("w4a4", Box::new(W4A4Backend::new(q))).unwrap();
        let platform = Platform::vck190();
        let big = MambaConfig::preset(lightmamba_model::ModelPreset::B2_7);
        let mut cost = MultiplexCostModel::for_registry(&reg, &platform, &big).unwrap();

        // The hog lives on the w4a4 backend; preempting it must charge
        // the w4a4 slice, not fp's.
        let hog = GenRequest::greedy(0, vec![1; 3], 12)
            .with_priority(Priority::Batch)
            .on_model(1);
        let mut urgent = GenRequest::greedy(1, vec![2; 2], 3).with_priority(Priority::Interactive);
        urgent.arrival_step = 4;
        let mut engine = ServeEngine::with_registry(
            reg,
            EngineConfig {
                slots: 1,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(vec![hog, urgent]).unwrap();
        let mut policy = PriorityClasses::preemptive();
        let report = engine.run(&mut policy).unwrap();
        assert_eq!(report.preemptions, 1);
        let run = cost.cost_run(&report, engine.completions()).unwrap();
        assert_eq!(run.per_model[0].state_transfer_s, 0.0);
        assert!(run.per_model[1].state_transfer_s > 0.0);
        assert!((run.state_transfer_s - run.per_model[1].state_transfer_s).abs() < 1e-15);
        // Attribution still sums to the whole run.
        let sum: f64 = run.per_model.iter().map(|m| m.seconds).sum();
        assert!((sum - run.seconds).abs() < 1e-9 * run.seconds.max(1.0));
    }

    #[test]
    fn residency_bound_is_reported() {
        // 8 resident sequences fit VCK190's URAM comfortably…
        let small = costed_burst(16, 8);
        assert!(small.residency_ok, "{small:?}");
        assert_eq!(small.peak_batch, 8);
        // …but a slot pool larger than max_resident_batch flags the
        // projection as optimistic rather than reporting it silently.
        let over = costed_burst(128, 128);
        assert!(over.peak_batch > over.max_resident_batch, "{over:?}");
        assert!(!over.residency_ok);
    }

    #[test]
    fn single_slot_run_matches_single_stream_rate() {
        // With one slot the engine decodes one stream; decode tokens/s
        // must land on the simulator's single-stream figure (prefill
        // steps also stream weights, so aggregate is slightly below).
        let run = costed_burst(3, 1);
        let single = run.per_model[0].single_stream_tokens_per_s;
        assert!(run.tokens_per_s <= single * 1.001);
        assert!(run.tokens_per_s > single * 0.4);
    }

    fn multiplexed_run(n: u64, slots: usize) -> MultiplexedRun {
        use crate::backend::{FpBackend, W4A4Backend};
        use crate::registry::ModelRegistry;
        use lightmamba_quant::pipeline::{quantize_model, Method, QuantSpec};

        let model =
            MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(9)).unwrap();
        let q = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
        let mut reg = ModelRegistry::new();
        reg.register("fp", Box::new(FpBackend::new(&model)))
            .unwrap();
        reg.register("w4a4", Box::new(W4A4Backend::new(q))).unwrap();

        let platform = Platform::vck190();
        let big = MambaConfig::preset(lightmamba_model::ModelPreset::B2_7);
        let mut cost = MultiplexCostModel::for_registry(&reg, &platform, &big).unwrap();

        let mut engine = ServeEngine::with_registry(
            reg,
            EngineConfig {
                slots,
                max_steps: 100_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        // Symmetric load: even ids on fp, odd ids on w4a4, same shapes.
        let reqs: Vec<GenRequest> = (0..n)
            .map(|id| {
                GenRequest::greedy(id, vec![(id % 100) as u32; 6], 8).on_model((id % 2) as usize)
            })
            .collect();
        engine.submit(reqs).unwrap();
        let report = engine.run(&mut Fifo).unwrap();
        assert_eq!(report.completed as u64, n);
        cost.cost_run(&report, engine.completions()).unwrap()
    }

    #[test]
    fn w4a4_backend_beats_fp_at_equal_batch() {
        // The acceptance criterion: under symmetric multiplexed load the
        // W4A4 sub-batches stream ~4× fewer weight bytes, so projected
        // throughput-while-streaming beats FP on the bandwidth-bound
        // VCK190 at equal sub-batch sizes.
        let run = multiplexed_run(16, 8);
        let fp = &run.per_model[0];
        let w4 = &run.per_model[1];
        assert_eq!((fp.model.as_str(), w4.model.as_str()), ("fp", "w4a4"));
        assert_eq!(fp.completed, 8);
        assert_eq!(w4.completed, 8);
        // Round-robin over identical request shapes → equal batches.
        assert_eq!(fp.processed_tokens, w4.processed_tokens);
        assert!(
            w4.processed_tokens_per_s >= fp.processed_tokens_per_s,
            "w4a4 {} < fp {}",
            w4.processed_tokens_per_s,
            fp.processed_tokens_per_s
        );
        // The gap comes from the weight stream: 4-bit + group scales vs 16-bit.
        let stream_ratio = fp.weight_stream_bytes_per_step / w4.weight_stream_bytes_per_step;
        assert!((3.4..4.2).contains(&stream_ratio), "ratio {stream_ratio}");
        assert!(w4.single_stream_tokens_per_s > fp.single_stream_tokens_per_s);
        // Total time is the sum of the per-model attributions.
        let sum: f64 = run.per_model.iter().map(|m| m.seconds).sum();
        assert!((sum - run.seconds).abs() < 1e-9 * run.seconds.max(1.0));
        assert!(run.residency_ok);
    }

    #[test]
    fn multiplexed_latencies_share_one_time_axis() {
        let run = multiplexed_run(12, 4);
        for m in &run.per_model {
            assert!(m.ttft_s.p50 > 0.0, "{m:?}");
            assert!(m.e2e_s.p99 >= m.ttft_s.p50);
            // No per-model latency can exceed the whole run.
            assert!(m.e2e_s.max <= run.seconds * (1.0 + 1e-12));
        }
    }

    #[test]
    fn mismatched_registry_shape_is_rejected() {
        let model =
            MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(9)).unwrap();
        let mut engine = ServeEngine::new(&model, EngineConfig::default()).unwrap();
        engine
            .submit(vec![GenRequest::greedy(0, vec![1, 2], 3)])
            .unwrap();
        let report = engine.run(&mut Fifo).unwrap();
        // Two simulators priced against a one-model trace must error.
        let platform = Platform::vck190();
        let big = MambaConfig::preset(lightmamba_model::ModelPreset::B2_7);
        let sim = |p: &Platform| {
            DecodeSimulator::new(
                p.clone(),
                big.clone(),
                AcceleratorConfig::lightmamba_w4a4(p, &big),
            )
        };
        let mut cost = MultiplexCostModel::new(vec![
            ("a".into(), sim(&platform)),
            ("b".into(), sim(&platform)),
        ])
        .unwrap();
        assert!(cost.cost_run(&report, engine.completions()).is_err());
    }

    #[test]
    fn prefix_cache_win_is_skipped_steps_minus_one_state_move() {
        // The issue's pinned acceptance: on a shared-system-prompt hit,
        // the projected TTFT win equals the k skipped prefill steps
        // minus the one state move the restore costs.
        use crate::scheduler::Fifo;

        let model =
            MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(9)).unwrap();
        let prefix: Vec<u32> = (1..=10).collect();
        let k = prefix.len();
        let mut warm_prompt = prefix.clone();
        warm_prompt.extend_from_slice(&[40, 41, 42]);
        let mut hot_prompt = prefix.clone();
        hot_prompt.extend_from_slice(&[50, 51, 52, 53]);
        let cfg = EngineConfig {
            slots: 1,
            max_steps: 10_000,
            prefill_chunk: 1,
            threads: 1,
            prefix_cache: Some(2),
            ..Default::default()
        };

        let mut engine = ServeEngine::new(&model, cfg).unwrap();
        engine
            .submit(vec![
                GenRequest::greedy(0, warm_prompt, 4).with_shared_prefix(k)
            ])
            .unwrap();
        let mut policy = Fifo;
        engine.run(&mut policy).unwrap();
        let mut hot = GenRequest::greedy(1, hot_prompt.clone(), 6).with_shared_prefix(k);
        hot.arrival_step = engine.clock();
        engine.submit(vec![hot]).unwrap();
        let hot_report = engine.run(&mut policy).unwrap();
        assert_eq!(hot_report.prefix_hits, 1);
        let hot_done = engine
            .completions()
            .iter()
            .find(|c| c.id == 1)
            .unwrap()
            .clone();

        let mut cold_engine = ServeEngine::new(
            &model,
            EngineConfig {
                prefix_cache: None,
                ..cfg
            },
        )
        .unwrap();
        cold_engine
            .submit(vec![GenRequest::greedy(1, hot_prompt, 6)])
            .unwrap();
        let cold_report = cold_engine.run(&mut policy).unwrap();
        let cold_done = cold_engine.completions()[0].clone();

        let mut cost = w4a4_cost();
        let mut ttft_of = |report: &ServeReport, done: &Completion| {
            let run = cost.cost_run(report, std::slice::from_ref(done)).unwrap();
            run.per_model[0].ttft_s.p50
        };
        let hot_s = ttft_of(&hot_report, &hot_done);
        let cold_s = ttft_of(&cold_report, &cold_done);
        let unit = &mut cost.models[0].1;
        // At chunk 1 every step advances one token, so the restore
        // saves k one-token steps and spends exactly one state move.
        let expected = k as f64 * unit.step_seconds(1) - unit.state_move_seconds();
        assert!(expected > 0.0, "on this platform a restore must be a win");
        assert!(
            (cold_s - hot_s - expected).abs() < 1e-12,
            "costed TTFT win {} != k*step - move {}",
            cold_s - hot_s,
            expected
        );
    }

    #[test]
    fn calibrated_budget_takes_the_min_knee_and_floors_at_slots() {
        use crate::backend::{FpBackend, W4A4Backend};
        use crate::registry::ModelRegistry;
        use lightmamba_quant::pipeline::{quantize_model, Method, QuantSpec};

        let model =
            MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(9)).unwrap();
        let q = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
        let platform = Platform::vck190();
        let big = MambaConfig::preset(lightmamba_model::ModelPreset::B2_7);
        let slots = 4;

        let budget_of =
            |reg: &ModelRegistry<'_>| calibrate_token_budget(reg, &platform, &big, slots).unwrap();
        let fp_only = ModelRegistry::single(&model);
        let mut w4_only = ModelRegistry::new();
        w4_only
            .register("w4a4", Box::new(W4A4Backend::new(q.clone())))
            .unwrap();
        let mut both = ModelRegistry::new();
        both.register("fp", Box::new(FpBackend::new(&model)))
            .unwrap();
        both.register("w4a4", Box::new(W4A4Backend::new(q)))
            .unwrap();

        let fp = budget_of(&fp_only);
        let w4 = budget_of(&w4_only);
        let combined = budget_of(&both);
        // The shared budget is set by the slowest backend's knee.
        assert_eq!(
            combined.max_prefill_tokens_per_step,
            fp.max_prefill_tokens_per_step
                .min(w4.max_prefill_tokens_per_step)
        );
        for b in [fp, w4, combined] {
            assert!(
                b.max_prefill_tokens_per_step >= slots,
                "the floor guarantees a full decode wave always fits"
            );
            assert_eq!(
                b.max_total_tokens,
                b.max_prefill_tokens_per_step * slots,
                "each resident gets one cap of lifetime footprint"
            );
        }

        // Error paths: no slots, no backends.
        assert!(calibrate_token_budget(&fp_only, &platform, &big, 0).is_err());
        assert!(calibrate_token_budget(&ModelRegistry::new(), &platform, &big, slots).is_err());
    }

    #[test]
    fn single_model_run_equals_the_hand_summed_flat_trace() {
        use crate::request::Priority;
        use crate::scheduler::PriorityClasses;

        // A one-model run with chunked prefill and a pause + resume, so
        // both the token lane and the state-move lane are non-trivial.
        let model =
            MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(9)).unwrap();
        let hog = GenRequest::greedy(0, vec![1; 9], 12).with_priority(Priority::Batch);
        let mut urgent = GenRequest::greedy(1, vec![2; 5], 3).with_priority(Priority::Interactive);
        urgent.arrival_step = 4;
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 1,
                max_steps: 10_000,
                prefill_chunk: 4,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(vec![hog, urgent]).unwrap();
        let report = engine.run(&mut PriorityClasses::preemptive()).unwrap();
        assert_eq!(report.preemptions, 1);

        let urgent_done = &engine.completions()[0];
        assert_eq!(urgent_done.id, 1, "the interactive request finishes first");
        let mut cost = w4a4_cost();
        let run = cost.cost_run(&report, engine.completions()).unwrap();
        let urgent_only = cost
            .cost_run(&report, std::slice::from_ref(urgent_done))
            .unwrap();
        let step_seconds = cost.trace_step_seconds(&report.trace).unwrap();

        // The flat lanes are the N = 1 sub-batch lanes by construction,
        // so pricing them by hand lands on the same f64s, not nearby.
        let unit = &mut cost.models[0].1;
        let trace = &report.trace;
        let by_hand: Vec<f64> = (0..trace.steps())
            .map(|t| {
                unit.step_seconds(trace.processed_per_step[t])
                    + trace.state_moves_per_step[t] as f64 * unit.state_move_seconds()
            })
            .collect();
        assert_eq!(step_seconds, by_hand);
        let mut axis = vec![0.0f64];
        for s in &by_hand {
            axis.push(axis[axis.len() - 1] + s);
        }
        assert_eq!(run.seconds, axis[axis.len() - 1]);
        assert_eq!(run.state_transfer_s, 2.0 * unit.state_move_seconds());
        assert_eq!(run.per_model[0].seconds, run.seconds);
        assert_eq!(run.per_model[0].completed, 2);
        assert_eq!(
            urgent_only.per_model[0].ttft_s.p50,
            axis[urgent_done.first_token_step.unwrap() as usize + 1]
                - axis[urgent_done.arrival_step as usize]
        );
    }

    #[test]
    fn a_stamp_of_u64_max_clamps_to_the_end_of_the_axis() {
        assert_eq!(TimeAxis(vec![0.0, 1.0, 3.0]).end_of(u64::MAX), 3.0);
    }

    #[test]
    fn accelerator_config_swaps_precision_only() {
        let platform = Platform::vck190();
        let model = MambaConfig::tiny();
        let w4 = accelerator_config(&platform, &model, HwPrecision::W4A4);
        let fp = accelerator_config(&platform, &model, HwPrecision::Fp16);
        assert_eq!(w4.precision, HwPrecision::W4A4);
        assert_eq!(fp.precision, HwPrecision::Fp16);
        assert!(!fp.pot_requant);
        assert_eq!(w4.mmu_din, fp.mmu_din);
        assert_eq!(w4.tiling, fp.tiling);
    }
}
