//! LightMamba: quantization / FPGA-accelerator co-design for Mamba2.
//!
//! This crate ties the substrates together into the paper's contribution:
//! quantize a Mamba2 model with rotation-assisted PTQ and PoT SSM
//! quantization ([`lightmamba_quant`]), configure the partially-unfolded
//! spatial accelerator ([`lightmamba_accel`]), simulate decode, and report
//! accuracy, throughput, resources and energy together. [`experiments`]
//! is the paper's tables and figures and the serving studies
//! ([`lightmamba_serve`] on the paper's design points), regenerated and
//! checked.
//!
//! # Example
//!
//! ```
//! use lightmamba::codesign::{CoDesign, Target};
//! use lightmamba_model::ModelPreset;
//!
//! let design = CoDesign::new(Target::Vck190W4A4, ModelPreset::B2_7);
//! let report = design.hardware_report();
//! assert!(report.decode.tokens_per_s > 1.0);
//! assert!(report.power.tokens_per_joule > 0.3);
//! ```

pub mod ablation;
pub mod codesign;
pub mod experiments;
pub mod report;

pub use ablation::{run_ablation, AblationRow, AblationStage};
pub use codesign::{CoDesign, HardwareReport, Target};
