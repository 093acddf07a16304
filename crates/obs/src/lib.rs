//! `lightmamba-obs`: the observability substrate of the serving stack.
//!
//! Production inference servers treat per-phase latency histograms,
//! counter/gauge exposition, and exportable request timelines as
//! load-bearing infrastructure; this crate provides those primitives
//! with one hard constraint: **zero steady-state allocations**. Every
//! structure pre-registers or pre-allocates at setup time and is
//! index-addressed afterwards, so instrumentation can ride the decode
//! hot path without perturbing the allocation-free contract the model
//! and quant crates pin with their counting-allocator tests.
//!
//! * [`registry`] — a metrics registry of counters, gauges, and
//!   fixed-bucket histograms. Metrics are registered up front and
//!   updated through copyable ids (plain `Vec` indices); a
//!   Prometheus-style text exposition snapshot is rendered on demand
//!   (the only allocating operation, off the hot path).
//! * [`trace`] — structured span recording ([`trace::SpanRecorder`])
//!   with wall-clock durations from [`std::time::Instant`], bounded
//!   pre-allocated storage (spans past capacity are counted, not
//!   stored), and a [`trace::ChromeTraceBuilder`] that renders spans as
//!   Chrome trace-event JSON (`chrome://tracing` / Perfetto "X"
//!   complete events, nesting by containment).
//! * [`recorder`] — a bounded [`recorder::Ring`] buffer (overwrite
//!   oldest, never reallocate) and the [`recorder::FlightRecorder`]
//!   built on it: recent per-step records plus per-request lifecycle
//!   events (queued → admitted → first-token → preempted/resumed →
//!   done/cancelled/expired), dumpable on demand.
//! * [`percentile`] — the one shared nearest-rank percentile helper,
//!   with explicit empty-input handling (callers decide what an empty
//!   sample set means instead of silently reading a zero).
//! * [`json`] — a minimal recursive-descent JSON parser and string
//!   escaper. The workspace has no serialization crate, so exposition
//!   and trace emitters hand-write their JSON and the test suite needs
//!   a real parser to validate it.
//!
//! The serving engine threads these together (see
//! `lightmamba_serve::observe`): a [`registry::MetricsRegistry`] of
//! engine counters, a [`trace::SpanRecorder`] of per-step phase spans,
//! and a [`recorder::FlightRecorder`] of recent steps and request
//! timelines, all updated inside the engine step with no allocation.
//!
//! # Example
//!
//! ```
//! use lightmamba_obs::registry::MetricsRegistry;
//!
//! let mut m = MetricsRegistry::new();
//! let steps = m.counter("engine_steps_total", "Engine steps executed.");
//! let depth = m.gauge("engine_queue_depth", "Waiting requests.");
//! let wall = m.histogram(
//!     "engine_step_wall_us",
//!     "Wall-clock step latency (microseconds).",
//!     &[50.0, 100.0, 500.0, 1000.0],
//! );
//! // Hot path: index-addressed, allocation-free.
//! m.inc(steps);
//! m.set(depth, 3.0);
//! m.observe(wall, 120.0);
//! // Cold path: render the Prometheus-style snapshot.
//! let text = m.expose();
//! assert!(text.contains("engine_steps_total 1"));
//! assert!(text.contains("engine_step_wall_us_bucket{le=\"500\"} 1"));
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod percentile;
pub mod recorder;
pub mod registry;
pub mod trace;

pub use percentile::nearest_rank;
pub use recorder::{FlightRecorder, LifecycleEvent, LifecyclePhase, Ring, StepRecord};
pub use registry::{CounterId, GaugeId, HistogramId, MetricsRegistry};
pub use trace::{ChromeTraceBuilder, Span, SpanRecorder};
