//! Power and energy-efficiency model (Table IV's energy rows, Fig. 9b).
//!
//! FPGA power = static + datapath dynamic (per-resource activity) + DRAM
//! interface energy (pJ per byte streamed). The constants are calibrated
//! so the VCK190 design lands at the paper's 2.25 tokens/J (W4A4) and
//! 1.45 tokens/J (W8A8): the W8A8 point draws *less* power because the
//! longer DMA phase leaves the datapath idle more of the time — exactly
//! the activity-scaling the model captures.

use crate::platform::Platform;
use crate::resources::ResourceReport;
use crate::sim::DecodeReport;

/// Dynamic power per active DSP, in watts (switching at datapath rates).
const DSP_W: f64 = 2.0e-3;
/// Dynamic power per active LUT, in watts.
const LUT_W: f64 = 1.0e-5;
/// Dynamic power per active BRAM block, in watts.
const BRAM_W: f64 = 5.0e-4;
/// Dynamic power per active URAM block, in watts.
const URAM_W: f64 = 1.0e-3;
/// DRAM interface energy per byte streamed (LPDDR/HBM PHY + controller).
const DRAM_PJ_PER_BYTE: f64 = 60.0;
/// Calibration offset on static power (board-level rails).
const STATIC_SCALE: f64 = 0.75;

/// Power/energy report for a decode workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerReport {
    /// Average power during decode, in watts.
    pub avg_power_w: f64,
    /// Energy per decoded token, in joules.
    pub energy_per_token_j: f64,
    /// Energy efficiency in tokens per joule (the paper's headline metric).
    pub tokens_per_joule: f64,
}

/// Computes the power report from resources, decode behaviour and the
/// platform.
pub fn estimate(
    platform: &Platform,
    resources: &ResourceReport,
    decode: &DecodeReport,
) -> PowerReport {
    // Datapath activity: fraction of the token period the compute engines
    // are actually switching (compute cycles over total cycles).
    let activity = (decode.compute_cycles / decode.cycles_per_step).clamp(0.0, 1.0);
    let datapath_w = (resources.dsp as f64 * DSP_W
        + resources.lut as f64 * LUT_W
        + resources.bram as f64 * BRAM_W
        + resources.uram as f64 * URAM_W)
        * activity;
    // DRAM energy: bytes per token × pJ/byte × tokens/s = watts.
    let dram_w = decode.weight_bytes * DRAM_PJ_PER_BYTE * 1e-12 * decode.tokens_per_s;
    let avg_power_w = platform.static_power_w * STATIC_SCALE + datapath_w + dram_w;
    let energy_per_token_j = avg_power_w / decode.tokens_per_s;
    PowerReport {
        avg_power_w,
        energy_per_token_j,
        tokens_per_joule: 1.0 / energy_per_token_j,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::AcceleratorConfig;
    use crate::resources;
    use crate::sim::DecodeSimulator;
    use lightmamba_model::{MambaConfig, ModelPreset};

    fn report(precision_w8: bool) -> PowerReport {
        let platform = Platform::vck190();
        let model = MambaConfig::preset(ModelPreset::B2_7);
        let cfg = if precision_w8 {
            AcceleratorConfig::lightmamba_w8a8(&platform, &model)
        } else {
            AcceleratorConfig::lightmamba_w4a4(&platform, &model)
        };
        let res = resources::estimate(&model, &cfg);
        let dec = DecodeSimulator::new(platform.clone(), model, cfg).decode_report();
        estimate(&platform, &res, &dec)
    }

    #[test]
    fn vck190_w4a4_lands_near_2_25_tokens_per_joule() {
        let p = report(false);
        assert!(
            (1.5..3.2).contains(&p.tokens_per_joule),
            "W4A4 efficiency {} vs paper 2.25",
            p.tokens_per_joule
        );
        // Absolute power stays in the single-digit watts.
        assert!(
            p.avg_power_w > 1.0 && p.avg_power_w < 8.0,
            "{}",
            p.avg_power_w
        );
    }

    #[test]
    fn vck190_w8a8_lands_near_1_45_tokens_per_joule() {
        let p = report(true);
        assert!(
            (1.0..2.1).contains(&p.tokens_per_joule),
            "W8A8 efficiency {} vs paper 1.45",
            p.tokens_per_joule
        );
    }

    #[test]
    fn w4a4_is_more_efficient_than_w8a8() {
        assert!(report(false).tokens_per_joule > report(true).tokens_per_joule);
    }

    #[test]
    fn energy_identities_hold() {
        let p = report(false);
        assert!((p.tokens_per_joule * p.energy_per_token_j - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fpga_beats_gpu_efficiency_by_large_factor() {
        // Paper: 4.65–6.06× over RTX 4090/2070 (0.371 / 0.484 tokens/J).
        let p = report(false);
        let vs_2070 = p.tokens_per_joule / 0.371;
        let vs_4090 = p.tokens_per_joule / 0.484;
        assert!(vs_2070 > 3.0, "vs 2070 only {vs_2070:.2}x");
        assert!(vs_4090 > 2.5, "vs 4090 only {vs_4090:.2}x");
    }
}
