//! Whole-design resource accounting, calibrated against Table IV.
//!
//! Unit models (MMU/SSMU/HTU) supply their own counts; everything a real
//! implementation additionally spends — DMA engines and descriptor logic,
//! AXI interconnect, RMSNorm/SiLU/quantize–dequantize lanes, the conv
//! unit, and control — is folded into calibrated overhead terms that scale
//! with the datapath width. The constants were fitted to the paper's
//! Table IV utilization rows (VCK190 W4A4: 107k LUT / 130k FF / 228 DSP /
//! 912 BRAM / 61 URAM; U280: 297k / 394k / 1164 / 912 / 61) and are
//! asserted to stay within ±20% of them by the tests below.

use lightmamba_model::MambaConfig;

use crate::arch::AcceleratorConfig;
use crate::htu::HtuModel;
use crate::mmu::MmuModel;
use crate::platform::Platform;
use crate::schedule::htu_model;
use crate::ssmu::SsmuModel;
use crate::tiling;
use crate::{AccelError, Result};

/// FPGA resource utilization of a full LightMamba instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceReport {
    /// Look-up tables.
    pub lut: u64,
    /// Flip-flops.
    pub ff: u64,
    /// DSP48 slices.
    pub dsp: u64,
    /// BRAM36 blocks.
    pub bram: u64,
    /// URAM blocks.
    pub uram: u64,
}

impl ResourceReport {
    /// Checks the report against a platform's budget.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::ResourceOverflow`] naming the first resource
    /// that exceeds the platform.
    pub fn check_fits(&self, platform: &Platform) -> Result<()> {
        let checks: [(&'static str, u64, u64); 5] = [
            ("LUT", self.lut, platform.lut_total),
            ("FF", self.ff, platform.ff_total),
            ("DSP", self.dsp, platform.dsp_total),
            ("BRAM", self.bram, platform.bram_total),
            ("URAM", self.uram, platform.uram_total),
        ];
        for (resource, required, available) in checks {
            if required > available {
                return Err(AccelError::ResourceOverflow {
                    resource,
                    required,
                    available,
                });
            }
        }
        Ok(())
    }
}

/// Estimates the resources of a configuration targeting a model.
pub fn estimate(model: &MambaConfig, cfg: &AcceleratorConfig) -> ResourceReport {
    let mmu = MmuModel::new(cfg.mmu_din, cfg.mmu_dout, cfg.precision);
    let ssmu = SsmuModel::new(cfg, model.headdim, model.d_state);
    let htu: HtuModel = htu_model(model, cfg);
    let macs = (cfg.mmu_din * cfg.mmu_dout) as u64;

    // Conv unit: emu_parallelism lanes × d_conv taps of MACs.
    let conv_dsp = (cfg.emu_parallelism * model.d_conv) as u64;
    let conv_lut = conv_dsp * 90;

    // Calibrated overheads (DMA, AXI, norms, (de)quant, control); see the
    // module docs for the fitting targets.
    let misc_dsp = 160 + macs / 8;
    let misc_lut = 79_000 + 140 * macs;
    let misc_ff = 101_000 + 220 * macs;
    let misc_bram = 880;

    ResourceReport {
        lut: mmu.lut_count() + ssmu.lut_count() + htu.lut_count() + conv_lut + misc_lut,
        ff: mmu.ff_count() + ssmu.ff_count() + misc_ff,
        dsp: mmu.dsp_count() + ssmu.dsp_count() + htu.dsp_count() + conv_dsp + misc_dsp,
        bram: ssmu.bram_count() + htu.bram_count() + misc_bram,
        uram: tiling::uram_blocks(model, cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use lightmamba_model::ModelPreset;

    fn within(actual: u64, target: u64, tolerance: f64) -> bool {
        let a = actual as f64;
        let t = target as f64;
        (a - t).abs() / t <= tolerance
    }

    #[test]
    fn vck190_w4a4_matches_table4() {
        let model = MambaConfig::preset(ModelPreset::B2_7);
        let platform = Platform::vck190();
        let cfg = AcceleratorConfig::lightmamba_w4a4(&platform, &model);
        let r = estimate(&model, &cfg);
        assert!(within(r.lut, 107_000, 0.20), "LUT {} vs 107k", r.lut);
        assert!(within(r.ff, 130_000, 0.20), "FF {} vs 130k", r.ff);
        assert!(within(r.dsp, 228, 0.20), "DSP {} vs 228", r.dsp);
        assert!(within(r.bram, 912, 0.20), "BRAM {} vs 912", r.bram);
        assert!(within(r.uram, 61, 0.45), "URAM {} vs 61", r.uram);
        r.check_fits(&platform).unwrap();
    }

    #[test]
    fn u280_w4a4_matches_table4() {
        let model = MambaConfig::preset(ModelPreset::B2_7);
        let platform = Platform::u280();
        let cfg = AcceleratorConfig::lightmamba_u280(&platform, &model);
        let r = estimate(&model, &cfg);
        assert!(within(r.lut, 297_000, 0.20), "LUT {} vs 297k", r.lut);
        assert!(within(r.ff, 394_000, 0.20), "FF {} vs 394k", r.ff);
        assert!(within(r.dsp, 1164, 0.20), "DSP {} vs 1164", r.dsp);
        r.check_fits(&platform).unwrap();
    }

    #[test]
    fn w8a8_variant_is_close_to_w4a4() {
        // Table IV: W8A8 differs by only a few hundred LUT/FF.
        let model = MambaConfig::preset(ModelPreset::B2_7);
        let platform = Platform::vck190();
        let w4 = estimate(
            &model,
            &AcceleratorConfig::lightmamba_w4a4(&platform, &model),
        );
        let w8 = estimate(
            &model,
            &AcceleratorConfig::lightmamba_w8a8(&platform, &model),
        );
        assert_eq!(w4.dsp, w8.dsp);
        assert!(within(w8.lut, w4.lut, 0.10));
    }

    #[test]
    fn overflow_detected() {
        let model = MambaConfig::preset(ModelPreset::B2_7);
        let platform = Platform::vck190();
        let mut cfg = AcceleratorConfig::lightmamba_w4a4(&platform, &model);
        cfg.mmu_din = 256;
        cfg.mmu_dout = 256;
        let r = estimate(&model, &cfg);
        assert!(matches!(
            r.check_fits(&platform),
            Err(AccelError::ResourceOverflow { .. })
        ));
    }

    #[test]
    fn non_pot_requant_costs_more_dsp() {
        let model = MambaConfig::preset(ModelPreset::B2_7);
        let platform = Platform::vck190();
        let pot = AcceleratorConfig::lightmamba_w4a4(&platform, &model);
        let non = AcceleratorConfig {
            pot_requant: false,
            ..pot.clone()
        };
        assert!(estimate(&model, &non).dsp > estimate(&model, &pot).dsp);
        assert!(estimate(&model, &non).lut > estimate(&model, &pot).lut);
    }
}
