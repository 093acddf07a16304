//! Latency/throughput aggregation for engine runs.
//!
//! All raw timestamps are in *engine steps* (one batched model step).
//! Steps map to wall time only through a cost model — engine-side
//! metrics stay hardware-free, and `crate::accel_cost` converts a run's
//! trace to projected seconds on a concrete accelerator.
//!
//! [`RunTrace`] keeps only the per-step series something prices or
//! bounds. With chunked prefill a step is no longer one token per
//! resident sequence, so it distinguishes *residency*
//! (`batch_per_step`, what the slot pool and URAM bound care about)
//! from *work* (`processed_per_step` and its per-model split, what the
//! cost model prices). Preemption, sessions and the prefix cache add a
//! third kind of traffic: every pause, resume, park or restore moves one
//! fixed-size recurrent state across the memory stream
//! (`state_moves_per_step`, also split per model). The token budget's
//! caps are checked against `prefill_per_step` and
//! `resident_tokens_per_step`. Run-level counts (preemptions, resumes,
//! cancellations, faults, …) are fields of [`ServeReport`], read from the
//! engine's one tally.

use lightmamba_obs::percentile::{nearest_rank, sort_samples};

use crate::request::Priority;

/// Summary statistics of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Percentiles {
    /// Computes stats over `samples` (returns zeros when empty).
    pub fn of(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Percentiles {
                n: 0,
                mean: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sort_samples(&mut sorted);
        // The empty case returned above, so every rank is present.
        let pick = |q: f64| -> f64 { nearest_rank(&sorted, q).expect("non-empty samples") };
        Percentiles {
            n: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: pick(0.50),
            p90: pick(0.90),
            p99: pick(0.99),
            max: *sorted.last().unwrap(),
        }
    }
}

/// Per-step observations the engine records (consumed by the cost model).
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    /// Batch size (resident sequences) of each executed step — what the
    /// slot pool hosts, hence what the URAM residency bound prices.
    pub batch_per_step: Vec<usize>,
    /// Token-advances of each executed step: one per decoding sequence
    /// plus up to `prefill_chunk` per prefilling sequence. Equal to
    /// `batch_per_step` when the chunk is 1; the cost model prices steps
    /// by this (the weight stream is shared across all of a step's
    /// token-advances).
    pub processed_per_step: Vec<usize>,
    /// Per-model *token-advances* of each executed step, indexed by
    /// [`crate::registry::ModelId`] (every inner vec has one entry per
    /// registered model; they sum to the step's `processed_per_step`
    /// entry). The multiplex cost model prices each sub-batch's tokens
    /// with that backend's own weight stream.
    pub sub_processed_per_step: Vec<Vec<usize>>,
    /// State transfers of each step: every pause writes one fixed-size
    /// recurrent state off-chip and every resume reads one back, on the
    /// same stream the weights ride — so the cost model prices each
    /// move as state bytes of DMA (`preemptions + resumes` that step).
    pub state_moves_per_step: Vec<usize>,
    /// Per-model state transfers of each step (same shape as
    /// `sub_processed_per_step`, summing to `state_moves_per_step`); the
    /// multiplex cost model attributes each move to its model.
    pub sub_state_moves_per_step: Vec<Vec<usize>>,
    /// Prompt (prefill) tokens fed by each step — the subset of
    /// `processed_per_step` that [`crate::scheduler::TokenBudget`]'s
    /// per-step prefill cap bounds (the budget proptests assert every
    /// entry stays under it).
    pub prefill_per_step: Vec<usize>,
    /// Resident-token footprint (Σ `prompt + max_new` over slot-holders)
    /// at each step's post-admission peak — what the budget's
    /// `max_total_tokens` bounds. Recorded whether or not a budget is
    /// set.
    pub resident_tokens_per_step: Vec<usize>,
    /// Admissions the token budget deferred at each step (kept queued,
    /// not dropped). All zeros when no budget is configured.
    pub budget_deferred_per_step: Vec<usize>,
}

impl RunTrace {
    /// Number of executed steps.
    pub fn steps(&self) -> usize {
        self.batch_per_step.len()
    }

    /// Largest batch any step ran.
    pub fn peak_batch(&self) -> usize {
        self.batch_per_step.iter().copied().max().unwrap_or(0)
    }

    /// Mean batch size over non-idle steps.
    pub fn mean_batch(&self) -> f64 {
        let busy: Vec<usize> = self
            .batch_per_step
            .iter()
            .copied()
            .filter(|&b| b > 0)
            .collect();
        if busy.is_empty() {
            0.0
        } else {
            busy.iter().sum::<usize>() as f64 / busy.len() as f64
        }
    }
}

/// Per-model slice of a run (finished requests of one registered model).
#[derive(Debug, Clone)]
pub struct ModelBreakdown {
    /// The model's registry id.
    pub model: usize,
    /// The model's registered name.
    pub name: String,
    /// Requests completed on this model (max-tokens or EOS).
    pub completed: usize,
    /// Requests evicted on deadline.
    pub evicted: usize,
    /// Tokens generated by this model's finished requests.
    pub generated_tokens: u64,
    /// Token-advances this model processed across all steps (Σ of its
    /// per-step token counts: prefill consumption plus decode,
    /// in-flight work included).
    pub processed_tokens: u64,
    /// Time-to-first-token stats in steps for this model's requests.
    pub ttft_steps: Percentiles,
    /// End-to-end latency stats in steps for this model's requests.
    pub e2e_steps: Percentiles,
}

/// Per-priority-class slice of a run.
#[derive(Debug, Clone)]
pub struct ClassBreakdown {
    /// The priority class.
    pub priority: Priority,
    /// Requests of this class that completed (max-tokens or EOS).
    pub completed: usize,
    /// Requests of this class evicted on deadline.
    pub evicted: usize,
    /// Deadline-carrying requests of this class observed so far.
    pub deadline_total: usize,
    /// Deadline-carrying requests of this class that completed.
    pub deadline_hits: usize,
    /// Time-to-first-token stats in steps for this class.
    pub ttft_steps: Percentiles,
    /// End-to-end latency stats in steps for this class.
    pub e2e_steps: Percentiles,
    /// Queueing delay stats in steps for this class.
    pub queue_steps: Percentiles,
}

/// Aggregate outcome of an engine run (step-denominated).
///
/// # Example
///
/// ```
/// use lightmamba_model::{MambaConfig, MambaModel};
/// use lightmamba_serve::engine::{EngineConfig, ServeEngine};
/// use lightmamba_serve::request::GenRequest;
/// use lightmamba_serve::scheduler::Fifo;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), lightmamba_serve::ServeError> {
/// let model = MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(1))?;
/// let mut engine = ServeEngine::new(
///     &model,
///     EngineConfig { slots: 2, max_steps: 10_000, prefill_chunk: 2, threads: 1, ..Default::default() },
/// )?;
/// engine.submit(vec![
///     GenRequest::greedy(0, vec![1, 2, 3], 4).with_deadline(100),
///     GenRequest::greedy(1, vec![4, 5], 3),
/// ])?;
/// let report = engine.run(&mut Fifo)?;
/// assert_eq!(report.completed, 2);
/// assert_eq!(report.generated_tokens, 7);
/// // One of the two requests carried a deadline and met it.
/// assert_eq!(report.deadline_hit_rate(), Some(1.0));
/// // FIFO never preempts: no pause traffic in the trace.
/// assert_eq!(report.preemptions, 0);
/// assert!(report.trace.state_moves_per_step.iter().all(|&m| m == 0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Admission policy that produced the run.
    pub policy: &'static str,
    /// Requests completed (max-tokens or EOS).
    pub completed: usize,
    /// Requests evicted on deadline.
    pub evicted: usize,
    /// Requests retired by backend faults
    /// ([`crate::request::FinishReason::Failed`]) — the blast radius of
    /// contained errors and panics.
    pub failed: usize,
    /// Arrivals shed by overload protection
    /// ([`crate::request::FinishReason::Rejected`]).
    pub rejected: usize,
    /// Backend faults contained across the run (error returns plus
    /// caught panics; at most one per model per step).
    pub backend_faults: u64,
    /// Quarantine entries (first faults and half-open re-faults).
    pub quarantine_entries: u64,
    /// Quarantine recoveries (a half-open canary survived and the
    /// backend was readmitted).
    pub quarantine_recoveries: u64,
    /// Steps executed.
    pub steps: u64,
    /// Generated (decode) tokens across all requests.
    pub generated_tokens: u64,
    /// Prompt tokens consumed across all requests.
    pub prefill_tokens: u64,
    /// Deadline-carrying requests that left the engine.
    pub deadline_total: usize,
    /// Deadline-carrying requests that completed within their budget.
    pub deadline_hits: usize,
    /// Requests evicted by client cancellation or stream disconnect.
    pub cancellations: usize,
    /// Token-advances the engine spent on requests that were later
    /// cancelled — prefill chunks consumed plus decode feeds that never
    /// reached a client. The cost model converts this into projected
    /// wasted seconds.
    pub wasted_token_advances: u64,
    /// Slot-steps handed back by cancellations of *resident* sequences:
    /// the minimum remaining service (in engine steps) each cancelled
    /// resident still owed when its slot was reclaimed — the capacity
    /// cancellation returned to the admission queue.
    pub reclaimed_slot_steps: u64,
    /// Pause events across the run (one request may be preempted more
    /// than once).
    pub preemptions: u64,
    /// Resume events — pause episodes that returned to a slot (the
    /// remainder ended in deadline eviction while paused).
    pub resumes: u64,
    /// Distinct requests preempted at least once.
    pub preempted_requests: usize,
    /// Steps between pause and resume, per completed pause episode —
    /// how long preemption benched its victims.
    pub resume_latency_steps: Percentiles,
    /// Time-to-first-token stats in steps (arrival → first token).
    pub ttft_steps: Percentiles,
    /// End-to-end latency stats in steps.
    pub e2e_steps: Percentiles,
    /// Queueing delay stats in steps (arrival → admission).
    pub queue_steps: Percentiles,
    /// Slot occupancy (mean batch / capacity).
    pub mean_occupancy: f64,
    /// Admissions the token budget deferred across the run (each kept
    /// queued and re-offered, never dropped). 0 with no budget.
    pub budget_deferrals: u64,
    /// Mean per-step prefill feed as a fraction of
    /// [`crate::scheduler::TokenBudget::max_prefill_tokens_per_step`];
    /// `None` when no budget is configured.
    pub budget_prefill_utilization: Option<f64>,
    /// Peak resident-token footprint as a fraction of
    /// [`crate::scheduler::TokenBudget::max_total_tokens`]; `None` when
    /// no budget is configured.
    pub budget_resident_utilization: Option<f64>,
    /// Prefix-cache lookups that restored a post-prefix snapshot
    /// (each one skipped that prefix's whole prefill for one state
    /// move). 0 with the cache off.
    pub prefix_hits: u64,
    /// Prefix-cache lookups that found no snapshot (the requester
    /// prefills and harvests it for its successors). 0 with the cache
    /// off.
    pub prefix_misses: u64,
    /// Admissions that resumed a parked session state (each one skipped
    /// re-prefilling the session's history for one state move).
    pub session_restores: u64,
    /// Per-model slices, indexed by registry id (one entry per
    /// registered model, including models that served no request).
    pub per_model: Vec<ModelBreakdown>,
    /// Per-priority-class slices, most urgent first (one entry per
    /// class in [`Priority::ALL`], including empty classes).
    pub per_class: Vec<ClassBreakdown>,
    /// Per-step observations for the cost model.
    pub trace: RunTrace,
}

impl ServeReport {
    /// Fraction of deadline-carrying requests that completed within
    /// their budget (`None` when the run had no deadline traffic) — the
    /// metric deadline-aware policies compete on.
    pub fn deadline_hit_rate(&self) -> Option<f64> {
        if self.deadline_total == 0 {
            None
        } else {
            Some(self.deadline_hits as f64 / self.deadline_total as f64)
        }
    }

    /// Fraction of requests that left the engine with a *service*
    /// outcome rather than an infrastructure one: everything except
    /// [`crate::request::FinishReason::Failed`] and
    /// [`crate::request::FinishReason::Rejected`] counts as available
    /// (a deadline eviction is the scheduler doing its job; a fault or
    /// a shed is the service failing the client). `None` before any
    /// request finishes. The chaos study's headline number.
    pub fn availability(&self) -> Option<f64> {
        let total =
            self.completed + self.evicted + self.cancellations + self.failed + self.rejected;
        if total == 0 {
            None
        } else {
            Some(1.0 - (self.failed + self.rejected) as f64 / total as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_set() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = Percentiles::of(&xs);
        assert_eq!(p.n, 100);
        assert!((p.mean - 50.5).abs() < 1e-9);
        assert!((p.p50 - 51.0).abs() <= 1.0);
        assert!((p.p90 - 90.0).abs() <= 1.0);
        assert!((p.p99 - 99.0).abs() <= 1.0);
        assert_eq!(p.max, 100.0);
    }

    #[test]
    fn empty_samples_yield_zeros() {
        let p = Percentiles::of(&[]);
        assert_eq!(p.n, 0);
        assert_eq!(p.max, 0.0);
    }

    #[test]
    fn trace_aggregates() {
        let t = RunTrace {
            batch_per_step: vec![0, 2, 4, 0, 6],
            processed_per_step: vec![0, 5, 7, 0, 6],
            ..Default::default()
        };
        assert_eq!(t.steps(), 5);
        assert_eq!(t.peak_batch(), 6);
        assert!((t.mean_batch() - 4.0).abs() < 1e-9);
    }
}
