//! Accelerator configuration: the geometry of Fig. 5 plus the technique
//! knobs swept by the ablation of Fig. 10.

use lightmamba_model::MambaConfig;

use crate::platform::Platform;
use crate::{AccelError, Result};

/// Numeric precision the datapath is built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HwPrecision {
    /// FP16 weights and activations (the "Original Network" ablation row).
    Fp16,
    /// INT8 weights and activations (paper W8A8).
    W8A8,
    /// INT4 weights, FP16 activations (ablation "+4-bit W Quant" row).
    W4A16,
    /// INT4 weights and activations (paper W4A4).
    W4A4,
}

impl HwPrecision {
    /// Weight bits streamed from DRAM.
    pub fn weight_bits(self) -> u32 {
        match self {
            HwPrecision::Fp16 => 16,
            HwPrecision::W8A8 => 8,
            HwPrecision::W4A16 | HwPrecision::W4A4 => 4,
        }
    }

    /// Activation bits on chip.
    pub fn act_bits(self) -> u32 {
        match self {
            HwPrecision::Fp16 | HwPrecision::W4A16 => 16,
            HwPrecision::W8A8 => 8,
            HwPrecision::W4A4 => 4,
        }
    }

    /// Multiply–accumulates one DSP48 performs per cycle at this precision
    /// (the DSP packing of Fig. 5b packs two low-precision MACs per DSP;
    /// FP16 needs a full DSP per MAC plus LUT assist).
    pub fn macs_per_dsp(self) -> f64 {
        match self {
            HwPrecision::Fp16 => 0.5,
            HwPrecision::W8A8 => 2.0,
            HwPrecision::W4A16 => 1.0,
            HwPrecision::W4A4 => 2.0,
        }
    }

    /// Short display form.
    pub fn name(self) -> &'static str {
        match self {
            HwPrecision::Fp16 => "FP16",
            HwPrecision::W8A8 => "W8A8",
            HwPrecision::W4A16 => "W4A16",
            HwPrecision::W4A4 => "W4A4",
        }
    }
}

impl std::fmt::Display for HwPrecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How the online Hadamard rotation is executed (ablation rows
/// "+Rotation Quant" vs "+FHT").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HadamardImpl {
    /// No rotation in hardware.
    None,
    /// Matrix-multiply Hadamard on a tiny MMU (slow; the paper's Fig. 10
    /// shows throughput dropping 5.32 → 2.92 tokens/s with this variant).
    MatrixMultiply,
    /// Butterfly fast Hadamard transform pipeline (72% latency reduction
    /// at equal resources) with a matrix HTU for the non-PoT factor.
    Fht,
}

/// Pipeline schedule across the input projection and the SSM (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineMode {
    /// Sequential: in_proj fully drains before the SSM starts (Fig. 6a).
    Naive,
    /// Computation reordering: Δ,B,C generated first, X/Z streamed
    /// head-by-head so the SSMU overlaps the MMU (Fig. 6b).
    CoarseReordered,
    /// Reordering plus fine-grained tiling and fusion: out_proj consumes
    /// per-tile results, eliminating pipeline bubbles (Fig. 6c).
    FineTiled,
}

/// Fine-grained tile shape over (head, state) dimensions (Fig. 7b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileConfig {
    /// Tile extent along the per-head channel dimension `p`.
    pub pp: usize,
    /// Tile extent along the state dimension `n`.
    pub np: usize,
}

/// Full accelerator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorConfig {
    /// Datapath precision.
    pub precision: HwPrecision,
    /// MMU input-vector width `d_in` (MACs per lane per cycle).
    pub mmu_din: usize,
    /// MMU lane count `d_out`.
    pub mmu_dout: usize,
    /// Element-wise lanes per SSMU operator.
    pub emu_parallelism: usize,
    /// Whether SSM re-quantization uses PoT shifts (LUTs) or full
    /// multipliers (DSPs) — the Fig. 3 comparison.
    pub pot_requant: bool,
    /// Online Hadamard implementation.
    pub hadamard: HadamardImpl,
    /// Pipeline schedule.
    pub pipeline: PipelineMode,
    /// Fine tile shape; `None` buffers whole tensors (Fig. 7a).
    pub tiling: Option<TileConfig>,
}

impl AcceleratorConfig {
    /// The paper's VCK190 W4A4 design point: a modest MMU and 2-lane EMUs
    /// (the LPDDR bandwidth, not compute, bounds large-model decode once
    /// the pipeline is reordered), FHT rotation, full reordering and
    /// tiling. Unit sizes are calibrated so the naive→reordered ablation
    /// lands in the Fig. 10 regime and resources near Table IV.
    pub fn lightmamba_w4a4(_platform: &Platform, _model: &MambaConfig) -> Self {
        AcceleratorConfig {
            precision: HwPrecision::W4A4,
            mmu_din: 8,
            mmu_dout: 8,
            emu_parallelism: 2,
            pot_requant: true,
            hadamard: HadamardImpl::Fht,
            pipeline: PipelineMode::FineTiled,
            tiling: Some(TileConfig { pp: 16, np: 32 }),
        }
    }

    /// The paper's VCK190 W8A8 design point (same geometry, 8-bit path).
    pub fn lightmamba_w8a8(platform: &Platform, model: &MambaConfig) -> Self {
        AcceleratorConfig {
            precision: HwPrecision::W8A8,
            ..Self::lightmamba_w4a4(platform, model)
        }
    }

    /// The paper's U280 W4A4 design point: HBM removes the bandwidth wall,
    /// so the datapath is scaled up (≈5× the DSP budget of Table IV).
    pub fn lightmamba_u280(_platform: &Platform, _model: &MambaConfig) -> Self {
        AcceleratorConfig {
            precision: HwPrecision::W4A4,
            mmu_din: 32,
            mmu_dout: 32,
            emu_parallelism: 32,
            pot_requant: true,
            hadamard: HadamardImpl::Fht,
            pipeline: PipelineMode::FineTiled,
            tiling: Some(TileConfig { pp: 16, np: 32 }),
        }
    }

    /// Validates structural constraints against a model.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] for zero-sized units or tiles
    /// that exceed the dimensions they tile.
    pub fn validate(&self, model: &MambaConfig) -> Result<()> {
        if self.mmu_din == 0 || self.mmu_dout == 0 || self.emu_parallelism == 0 {
            return Err(AccelError::InvalidConfig(
                "unit parallelism must be non-zero".into(),
            ));
        }
        if let Some(t) = self.tiling {
            if t.pp == 0 || t.np == 0 {
                return Err(AccelError::InvalidConfig(
                    "tile extents must be non-zero".into(),
                ));
            }
            if t.pp > model.headdim || t.np > model.d_state {
                return Err(AccelError::InvalidConfig(format!(
                    "tile {}x{} exceeds head {}x{}",
                    t.pp, t.np, model.headdim, model.d_state
                )));
            }
        }
        if self.pipeline == PipelineMode::FineTiled && self.tiling.is_none() {
            return Err(AccelError::InvalidConfig(
                "fine-tiled pipeline requires a tile configuration".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightmamba_model::ModelPreset;

    #[test]
    fn precision_bit_widths() {
        assert_eq!(HwPrecision::W4A4.weight_bits(), 4);
        assert_eq!(HwPrecision::W4A4.act_bits(), 4);
        assert_eq!(HwPrecision::W4A16.act_bits(), 16);
        assert_eq!(HwPrecision::Fp16.weight_bits(), 16);
        assert_eq!(HwPrecision::W8A8.macs_per_dsp(), 2.0);
        assert!(HwPrecision::Fp16.macs_per_dsp() < 1.0);
    }

    #[test]
    fn presets_validate() {
        let model = MambaConfig::preset(ModelPreset::B2_7);
        let v = Platform::vck190();
        let u = Platform::u280();
        AcceleratorConfig::lightmamba_w4a4(&v, &model)
            .validate(&model)
            .unwrap();
        AcceleratorConfig::lightmamba_w8a8(&v, &model)
            .validate(&model)
            .unwrap();
        AcceleratorConfig::lightmamba_u280(&u, &model)
            .validate(&model)
            .unwrap();
    }

    #[test]
    fn validation_catches_bad_tiles() {
        let model = MambaConfig::preset(ModelPreset::B2_7);
        let v = Platform::vck190();
        let mut cfg = AcceleratorConfig::lightmamba_w4a4(&v, &model);
        cfg.tiling = Some(TileConfig { pp: 1000, np: 32 });
        assert!(cfg.validate(&model).is_err());
        cfg.tiling = None;
        // FineTiled without tiling is inconsistent.
        assert!(cfg.validate(&model).is_err());
        cfg.pipeline = PipelineMode::Naive;
        cfg.validate(&model).unwrap();
    }

    #[test]
    fn validation_catches_zero_parallelism() {
        let model = MambaConfig::preset(ModelPreset::B2_7);
        let v = Platform::vck190();
        let mut cfg = AcceleratorConfig::lightmamba_w4a4(&v, &model);
        cfg.mmu_din = 0;
        assert!(cfg.validate(&model).is_err());
    }

    #[test]
    fn display_names() {
        assert_eq!(HwPrecision::W4A4.to_string(), "W4A4");
        assert_eq!(HwPrecision::Fp16.to_string(), "FP16");
    }
}
