//! `lightmamba-serve`: continuous-batching serving over the Mamba2
//! substrate, with accelerator-costed throughput projection.
//!
//! The paper's systems insight is that Mamba2's decode state is *fixed
//! size* — no KV cache growing with sequence length (the flat curve of
//! Fig. 9a). This crate builds the serving layer that insight makes
//! cheap: every resident sequence costs one statically-sized slot
//! ([`slots::SlotPool`]), so admission control is slot counting, and the
//! batched step ([`lightmamba_model::batch::step`], reached through
//! [`backend::DecodeBackend::advance_batch_indexed`])
//! shares each layer's weights across all resident sequences — the
//! software analogue of the accelerator's shared weight stream.
//!
//! * [`request`] — generation requests (priority classes, deadlines)
//!   and completion records;
//! * [`traffic`] — synthetic Poisson traffic over chat / summarization /
//!   code-completion profiles, including the deadline-heavy mix
//!   deadline-aware policies compete on;
//! * [`slots`] — the fixed pool of per-sequence recurrent states;
//! * [`backend`] — pluggable execution backends ([`backend::DecodeBackend`]):
//!   one generic [`backend::ModelBackend`] serving the FP reference and
//!   the W4A4 quantized model, each with a
//!   [`backend::CostProfile`] for accelerator pricing, plus the
//!   pause/resume primitives ([`backend::PausedState`]) preemptive
//!   scheduling is built on;
//! * [`registry`] — named backends multiplexed over one slot pool;
//! * [`scheduler`] — admission and preemption policies
//!   ([`scheduler::Policy`]) that select *which* candidates (fresh
//!   arrivals and paused sequences alike) hold the slots each step:
//!   FIFO continuous batching, the static-batching baseline,
//!   earliest-deadline-first, strict priority classes, and weighted
//!   fair queueing across models — EDF and priority each with a
//!   preemptive variant that pauses residents for urgent work;
//! * [`engine`] — the virtual-time serving loop (chunked prefill
//!   interleaved with decode, policy-ordered admission, doomed-request
//!   eviction, policy-driven pause/resume of resident sequences,
//!   join/evict per step, one sub-batch per model per step);
//! * [`metrics`] — TTFT / e2e / queueing percentiles, occupancy, traces,
//!   per-model and per-priority-class breakdowns, deadline-hit-rate,
//!   preemption/resume counters and resume-latency percentiles;
//! * [`accel_cost`] — projects a run onto VCK190/U280 seconds via
//!   `lightmamba_accel`'s batch-aware cycle model, pricing each step's
//!   token-advances (chunked prefill included) with that backend's
//!   weight-stream bytes, and each pause/resume as one fixed-size state
//!   transfer on the same stream;
//! * [`observe`] — the engine-side observability layer over
//!   `lightmamba_obs`: pre-registered engine metrics with
//!   Prometheus-style exposition, per-step phase spans exportable as a
//!   two-lane Chrome trace (host wall clock + accelerator-projected
//!   virtual time), and a flight recorder of recent steps and request
//!   lifecycle timelines with optional SLO capture;
//! * [`prefix`] — the shared-prefix state cache: because a whole
//!   prompt prefix compresses into one fixed-size state, requests
//!   carrying the same system prompt restore a cached post-prefix
//!   snapshot (one state transfer) instead of re-prefilling it, with
//!   token-budget admission ([`scheduler::TokenBudget`]) capping
//!   per-step prefill and resident-token totals under every policy;
//! * [`resilience`] — fault tolerance: each backend is one fault
//!   domain whose errors and panics the engine contains (the domain's
//!   requests retire as [`request::FinishReason::Failed`], nothing else
//!   is touched); faulting backends enter a deterministic
//!   exponential-backoff quarantine with a half-open canary probe,
//!   overload is shed at admission from a bounded queue, and a
//!   degradation controller walks a documented ladder under sustained
//!   SLO breach;
//! * [`chaos`] — the deterministic fault-injection harness: a seeded
//!   [`chaos::FaultPlan`] drives a [`chaos::ChaosBackend`] wrapper that
//!   injects step errors, panics, latency spikes, and restore
//!   corruption on a reproducible schedule, so every resilience test
//!   and the `serve_traffic --chaos` study replay exactly;
//! * [`frontend`] — the async streaming serving frontend: clients
//!   submit through a cloneable handle and read per-token
//!   [`frontend::StreamEvent`]s, dropping a stream cancels its request
//!   mid-decode, and completed turns park their fixed-size state in a
//!   capacity-bounded [`frontend::SessionStore`] so the next turn of a
//!   chat resumes with one state transfer instead of re-prefilling the
//!   whole history.
//!
//! # Example
//!
//! ```
//! use lightmamba_model::{MambaConfig, MambaModel};
//! use lightmamba_serve::engine::{EngineConfig, ServeEngine};
//! use lightmamba_serve::scheduler::Fifo;
//! use lightmamba_serve::traffic::{TrafficGenerator, TrafficScenario};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let model = MambaModel::synthetic(MambaConfig::tiny(), &mut rng)?;
//! let mut traffic =
//!     TrafficGenerator::new(TrafficScenario::burst(8), model.config().vocab_size, 1);
//! let mut engine = ServeEngine::new(
//!     &model,
//!     EngineConfig { slots: 4, max_steps: 50_000, prefill_chunk: 4, threads: 1, ..Default::default() },
//! )?;
//! engine.submit(traffic.generate(1))?;
//! let report = engine.run(&mut Fifo)?;
//! assert_eq!(report.completed, 8);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod error;

pub mod accel_cost;
pub mod backend;
pub mod chaos;
pub mod engine;
pub mod frontend;
pub mod metrics;
pub mod observe;
pub mod prefix;
pub mod registry;
pub mod request;
pub mod resilience;
pub mod scheduler;
pub mod slots;
pub mod traffic;

pub use error::ServeError;
pub use lightmamba_pool::WorkerPool;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, ServeError>;
