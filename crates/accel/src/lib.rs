//! Cycle-level model of the LightMamba FPGA accelerator (paper Sec. V).
//!
//! The paper evaluates on two FPGAs: VCK190 is measured on board, and U280
//! through "a cycle-accurate simulator … verified through HLS emulation".
//! This crate is that simulator, rebuilt in Rust and extended to cover both
//! platforms, the GPU baselines, and the prior-accelerator baselines:
//!
//! * [`arch`] — the accelerator configuration (MMU/SSMU/HTU geometry,
//!   precision, pipeline mode, tiling);
//! * [`mmu`], [`ssmu`], [`htu`], [`emu`] — per-unit cycle and resource
//!   models mirroring Fig. 5;
//! * [`schedule`] — the three pipeline schemes of Fig. 6 (naive, coarse
//!   reordered, fine tiled) computed at head/tile granularity;
//! * [`tiling`] — on-chip buffer sizing and the 4× URAM reduction of
//!   Fig. 7;
//! * [`sim`] — the one decode-step formula: compute makespan scaled per
//!   resident sequence against one shared, double-buffered weight stream
//!   (single-stream decode is its batch-1 step);
//! * [`batch`] — the URAM bound on how many sequences' state a batched
//!   step can keep resident;
//! * [`resources`], [`power`] — LUT/FF/DSP/BRAM/URAM and power/energy
//!   reports calibrated against Table IV;
//! * [`gpu`], [`baselines`] — the RTX 2070/4090 roofline baselines and the
//!   FlightLLM/DFX analytic models of Fig. 9a.
//!
//! # Example
//!
//! ```
//! use lightmamba_accel::{arch::AcceleratorConfig, platform::Platform, sim::DecodeSimulator};
//! use lightmamba_model::{MambaConfig, ModelPreset};
//!
//! let platform = Platform::vck190();
//! let model = MambaConfig::preset(ModelPreset::B2_7);
//! let cfg = AcceleratorConfig::lightmamba_w4a4(&platform, &model);
//! let sim = DecodeSimulator::new(platform, model, cfg);
//! let report = sim.decode_report();
//! assert!(report.tokens_per_s > 1.0);
//! ```

mod error;

pub mod arch;
pub mod baselines;
pub mod batch;
pub mod emu;
pub mod events;
pub mod gpu;
pub mod htu;
pub mod mmu;
pub mod platform;
pub mod power;
pub mod resources;
pub mod schedule;
pub mod sim;
pub mod ssmu;
pub mod tiling;

pub use error::AccelError;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, AccelError>;
