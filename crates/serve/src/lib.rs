//! `lightmamba-serve`: continuous-batching serving over the Mamba2
//! substrate, with accelerator-costed throughput projection.
//!
//! The paper's systems insight is that Mamba2's decode state is *fixed
//! size* — no KV cache growing with sequence length (the flat curve of
//! Fig. 9a). This crate builds the serving layer that insight makes
//! cheap: every resident sequence costs one statically-sized slot
//! ([`slots::SlotPool`]), so admission control is slot counting, and the
//! batched advance ([`lightmamba_model::batch::advance`], reached
//! through [`backend::DecodeBackend::advance_batch_indexed`]) shares each
//! layer's weights across every token fed to every resident sequence —
//! the software analogue of the accelerator's shared weight stream.
//!
//! * [`request`] — generation requests (priority classes, deadlines)
//!   and completion records;
//! * [`traffic`] — synthetic Poisson traffic over chat / summarization /
//!   code-completion profiles, including the deadline-heavy mix
//!   deadline-aware policies compete on;
//! * [`slots`] — the fixed pool of per-sequence recurrent states;
//! * [`backend`] — pluggable execution backends ([`backend::DecodeBackend`]):
//!   one generic [`backend::ModelBackend`] serving the FP reference and
//!   the W4A4 quantized model, each naming the datapath precision
//!   (`HwPrecision`) it is priced at, plus the pause/resume primitives ([`backend::PausedState`]) preemptive
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
//!   join/evict per step, one sub-batch per model per step). A finished
//!   turn of a multi-turn session ([`request::GenRequest::with_session`])
//!   parks its fixed-size state in the engine's LRU of the 64 most
//!   recently used sessions, and the session's next
//!   [`engine::ServeEngine::submit`] resumes it with one state transfer
//!   instead of re-prefilling the whole history;
//! * [`metrics`] — TTFT / e2e / queueing percentiles, occupancy, traces,
//!   per-model and per-priority-class breakdowns, deadline-hit-rate,
//!   preemption/resume counters and resume-latency percentiles;
//! * [`accel_cost`] — projects a run onto VCK190/U280 seconds via
//!   `lightmamba_accel`'s batch-aware cycle model, pricing each step's
//!   token-advances (chunked prefill included) at that backend's
//!   datapath precision, and each pause/resume as one fixed-size state
//!   transfer on the same stream;
//! * [`observe`] — the engine-side observability layer over
//!   `lightmamba_obs`: pre-registered engine metrics with
//!   Prometheus-style exposition (the counters read the engine's run
//!   tally), per-step phase spans exportable as a two-lane Chrome trace
//!   (host wall clock + accelerator-projected virtual time), and a
//!   flight recorder of recent steps and request lifecycle timelines;
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
//!   exponential-backoff quarantine with a half-open canary probe, and
//!   overload is shed at admission from a bounded queue;
//! * [`chaos`] — the deterministic fault-injection harness: a seeded
//!   [`chaos::FaultPlan`] drives a [`chaos::ChaosBackend`] wrapper that
//!   injects step errors, panics, latency spikes, and restore
//!   corruption on a reproducible schedule, so every resilience test
//!   and the `serve-chaos` experiment of `repro` replay exactly;
//! * [`frontend`] — the async streaming serving frontend: clients
//!   submit through a cloneable handle and read per-token
//!   [`frontend::StreamEvent`]s, dropping a stream cancels its request
//!   mid-decode, and a chat's turns are session-tagged requests like
//!   any other, resumed by the engine.
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
mod lru;
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
