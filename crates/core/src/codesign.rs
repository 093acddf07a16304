//! The end-to-end co-design: pick a hardware target and a model, get the
//! combined hardware report (and, on laptop-scale models, the quantization
//! fidelity report).

use lightmamba_accel::arch::AcceleratorConfig;
use lightmamba_accel::platform::Platform;
use lightmamba_accel::power::{self, PowerReport};
use lightmamba_accel::resources::{self, ResourceReport};
use lightmamba_accel::sim::{DecodeReport, DecodeSimulator};
use lightmamba_model::corpus::SyntheticCorpus;
use lightmamba_model::eval::{compare_models, FidelityReport, ReferenceRunner};
use lightmamba_model::{MambaConfig, MambaModel, ModelPreset};
use lightmamba_quant::pipeline::{quantize_model, Method, QuantSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The three hardware design points of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// VCK190 at W4A4 (7.21 tokens/s in the paper).
    Vck190W4A4,
    /// VCK190 at W8A8 (3.61 tokens/s in the paper).
    Vck190W8A8,
    /// U280 at W4A4 (93 tokens/s in the paper).
    U280W4A4,
}

impl Target {
    /// All targets in Table IV order.
    pub const ALL: [Target; 3] = [Target::Vck190W4A4, Target::Vck190W8A8, Target::U280W4A4];

    /// The platform of this target.
    pub fn platform(self) -> Platform {
        match self {
            Target::Vck190W4A4 | Target::Vck190W8A8 => Platform::vck190(),
            Target::U280W4A4 => Platform::u280(),
        }
    }

    /// The accelerator configuration of this target for `model`.
    pub fn config(self, model: &MambaConfig) -> AcceleratorConfig {
        let p = self.platform();
        match self {
            Target::Vck190W4A4 => AcceleratorConfig::lightmamba_w4a4(&p, model),
            Target::Vck190W8A8 => AcceleratorConfig::lightmamba_w8a8(&p, model),
            Target::U280W4A4 => AcceleratorConfig::lightmamba_u280(&p, model),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Target::Vck190W4A4 => "VCK190 W4A4",
            Target::Vck190W8A8 => "VCK190 W8A8",
            Target::U280W4A4 => "U280 W4A4",
        }
    }
}

impl std::fmt::Display for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Combined hardware-side report for one design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareReport {
    /// Decode throughput and bottleneck analysis.
    pub decode: DecodeReport,
    /// FPGA resource utilization.
    pub resources: ResourceReport,
    /// Power and energy efficiency.
    pub power: PowerReport,
}

/// A co-design instance: target hardware + target model.
#[derive(Debug, Clone)]
pub struct CoDesign {
    target: Target,
    model: MambaConfig,
}

impl CoDesign {
    /// Creates the co-design for a published model preset.
    pub fn new(target: Target, preset: ModelPreset) -> Self {
        CoDesign {
            target,
            model: MambaConfig::preset(preset),
        }
    }

    /// Creates the co-design for an explicit configuration (scaled-down
    /// models for fidelity runs).
    pub fn with_config(target: Target, model: MambaConfig) -> Self {
        CoDesign { target, model }
    }

    /// The model configuration.
    pub fn model(&self) -> &MambaConfig {
        &self.model
    }

    /// Simulates the hardware side: decode throughput, resources, power.
    pub fn hardware_report(&self) -> HardwareReport {
        let platform = self.target.platform();
        let cfg = self.target.config(&self.model);
        let resources = resources::estimate(&self.model, &cfg);
        let decode =
            DecodeSimulator::new(platform.clone(), self.model.clone(), cfg).decode_report();
        let power = power::estimate(&platform, &resources, &decode);
        HardwareReport {
            decode,
            resources,
            power,
        }
    }

    /// Runs the algorithm side on a laptop-scale synthetic model: quantize
    /// with `method` under this target's precision and measure fidelity
    /// against the FP reference.
    ///
    /// # Errors
    ///
    /// Propagates quantization and evaluation errors (boxed, since they
    /// cross crate boundaries).
    pub fn fidelity_report(
        &self,
        method: Method,
        seed: u64,
    ) -> Result<FidelityReport, Box<dyn std::error::Error>> {
        let small = MambaConfig::tiny();
        let mut rng = StdRng::seed_from_u64(seed);
        let reference = MambaModel::synthetic(small.clone(), &mut rng)?;
        let corpus = SyntheticCorpus::for_vocab(small.vocab_size);
        let calib = corpus.calibration_set(&mut rng, 4, 12);
        let eval = corpus.calibration_set(&mut rng, 4, 16);
        let spec = match self.target {
            Target::Vck190W8A8 => QuantSpec::w8a8(),
            _ => QuantSpec::w4a4_grouped(16),
        };
        fidelity(&reference, method, &spec, &calib, &eval)
    }
}

/// Quantizes `reference` with `method` under `spec` (calibrating on
/// `calib` where the method needs it) and measures the result against the
/// FP reference over `eval` — the one quantize → compare recipe behind
/// Table III, Fig. 10's accuracy proxy and [`CoDesign::fidelity_report`].
///
/// # Errors
///
/// Propagates quantization and evaluation errors (boxed, since they
/// cross crate boundaries).
pub fn fidelity(
    reference: &MambaModel,
    method: Method,
    spec: &QuantSpec,
    calib: &[Vec<u32>],
    eval: &[Vec<u32>],
) -> Result<FidelityReport, Box<dyn std::error::Error>> {
    let mut quantized = quantize_model(reference, method, spec, calib)?;
    let mut runner = ReferenceRunner::new(reference.clone());
    Ok(compare_models(&mut runner, &mut quantized, eval)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_targets_report_sane_hardware() {
        for target in Target::ALL {
            let d = CoDesign::new(target, ModelPreset::B2_7);
            let r = d.hardware_report();
            assert!(r.decode.tokens_per_s > 1.0, "{target}");
            assert!(r.power.tokens_per_joule > 0.5, "{target}");
            r.resources.check_fits(&target.platform()).unwrap();
        }
    }

    #[test]
    fn u280_is_fastest_vck_w4a4_most_efficient() {
        let reports: Vec<(Target, HardwareReport)> = Target::ALL
            .iter()
            .map(|&t| (t, CoDesign::new(t, ModelPreset::B2_7).hardware_report()))
            .collect();
        let u280 = reports
            .iter()
            .find(|(t, _)| *t == Target::U280W4A4)
            .unwrap();
        for (t, r) in &reports {
            if *t != Target::U280W4A4 {
                assert!(u280.1.decode.tokens_per_s > r.decode.tokens_per_s);
            }
        }
    }

    #[test]
    fn fidelity_report_runs_for_rotation_method() {
        let d = CoDesign::new(Target::Vck190W4A4, ModelPreset::B2_7);
        let rep = d.fidelity_report(Method::LightMamba, 7).unwrap();
        assert!(rep.mean_kl.is_finite());
        assert!(rep.agreement > 0.0);
    }

    #[test]
    fn target_display_names() {
        assert_eq!(Target::U280W4A4.to_string(), "U280 W4A4");
        assert_eq!(Target::ALL.len(), 3);
    }
}
