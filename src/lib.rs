//! Facade crate of the LightMamba reproduction workspace.
//!
//! Re-exports the member crates under stable names so the examples and
//! integration tests read like downstream code:
//!
//! * [`tensor`] — dense `f32` tensors and kernels;
//! * [`hadamard`] — FHT / Paley / factored Hadamard transforms;
//! * [`model`] — the Mamba2 inference substrate;
//! * [`quant`] — the LightMamba PTQ stack and its baselines;
//! * [`accel`] — the FPGA accelerator cycle/resource/power models;
//! * [`core`] — the co-design pipeline, the Fig. 10 ablation, and the
//!   checked experiment table the `repro` binary runs;
//! * [`serve`] — the continuous-batching serving engine with
//!   accelerator-costed throughput projection, plus the streaming
//!   frontend (per-token streams, cancellation, multi-turn sessions);
//! * [`obs`] — the observability substrate (metrics registry,
//!   step-phase span tracing, flight recorder) the engine reports
//!   through.
//!
//! # Example
//!
//! ```
//! use lightmamba_repro::prelude::*;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let reference = MambaModel::synthetic(MambaConfig::tiny(), &mut rng)?;
//! let quantized = quantize_model(
//!     &reference,
//!     Method::LightMamba,
//!     &QuantSpec::w4a4_grouped(16),
//!     &[],
//! )?;
//! assert!(quantized.precision().weight.is_some());
//! # Ok(())
//! # }
//! ```

pub use lightmamba as core;
pub use lightmamba_accel as accel;
pub use lightmamba_hadamard as hadamard;
pub use lightmamba_model as model;
pub use lightmamba_obs as obs;
pub use lightmamba_quant as quant;
pub use lightmamba_serve as serve;
pub use lightmamba_tensor as tensor;

/// The most commonly used items, one `use` away.
pub mod prelude {
    pub use lightmamba::ablation::{run_ablation, AblationStage};
    pub use lightmamba::codesign::{CoDesign, Target};
    pub use lightmamba_accel::arch::AcceleratorConfig;
    pub use lightmamba_accel::platform::{GpuDevice, Platform};
    pub use lightmamba_accel::sim::DecodeSimulator;
    pub use lightmamba_hadamard::{FactoredHadamard, RandomizedHadamard};
    pub use lightmamba_model::eval::{compare_models, ReferenceRunner, StepModel};
    pub use lightmamba_model::{MambaConfig, MambaModel, ModelPreset};
    pub use lightmamba_obs::{FlightRecorder, MetricsRegistry, SpanRecorder};
    pub use lightmamba_quant::pipeline::{quantize_model, Method, QuantSpec};
    pub use lightmamba_quant::qmodel::{Precision, QuantizedMamba};
    pub use lightmamba_serve::accel_cost::MultiplexCostModel;
    pub use lightmamba_serve::backend::{DecodeBackend, FpBackend, PausedState, W4A4Backend};
    pub use lightmamba_serve::engine::{EngineConfig, ServeEngine, StepEvent};
    pub use lightmamba_serve::frontend::{
        run_frontend, FrontendConfig, FrontendHandle, FrontendRun, StreamEvent, TokenStream,
    };
    pub use lightmamba_serve::observe::{EngineObs, ObsConfig};
    pub use lightmamba_serve::registry::{ModelId, ModelRegistry};
    pub use lightmamba_serve::request::{GenRequest, Priority};
    pub use lightmamba_serve::scheduler::{
        policy_by_name, AdmissionCtx, Edf, Fifo, Policy, PriorityClasses, SeqView, StaticBatching,
        WeightedFair, POLICY_NAMES,
    };
    pub use lightmamba_serve::traffic::{TrafficGenerator, TrafficScenario};
}
