//! SSM Unit model (Fig. 5c): a fully pipelined chain of per-operator EMUs
//! connected by FIFOs.
//!
//! Because every operator owns a dedicated unit and the units are
//! FIFO-coupled, the steady-state throughput of the chain is set by the
//! widest operators — the `(headdim × d_state)` slab ops `B̄⊙x`, `Ā⊙h`
//! and `h⊙C` — at `emu_parallelism` elements per cycle. A head therefore
//! drains in `headdim·d_state / parallelism` cycles plus a pipeline fill.

use crate::arch::AcceleratorConfig;
use crate::emu::{self, SsmOp};

/// Cycle/resource model of the SSMU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsmuModel {
    /// Per-head channel count.
    pub headdim: usize,
    /// State dimension.
    pub d_state: usize,
    /// Lanes per EMU.
    pub parallelism: usize,
    /// PoT re-quantization (shift) vs full multipliers.
    pub pot_requant: bool,
}

/// Fixed pipeline-fill latency of the EMU chain (seven units plus the
/// softplus/exp lookup stages).
const PIPELINE_FILL: u64 = 24;

impl SsmuModel {
    /// Builds the model from an accelerator configuration and model dims.
    pub fn new(cfg: &AcceleratorConfig, headdim: usize, d_state: usize) -> Self {
        SsmuModel {
            headdim,
            d_state,
            parallelism: cfg.emu_parallelism,
            pot_requant: cfg.pot_requant,
        }
    }

    /// Steady-state cycles to process one head (excluding fill): the slab
    /// element count over the lane width.
    pub fn head_cycles(&self) -> u64 {
        emu::emu_cycles(self.headdim * self.d_state, self.parallelism)
    }

    /// Cycles for all `nheads` heads processed back-to-back through the
    /// pipeline (one fill, then streaming).
    pub fn all_heads_cycles(&self, nheads: usize) -> u64 {
        self.head_cycles() * nheads as u64 + PIPELINE_FILL
    }

    /// Pipeline fill latency (first result delay after inputs arrive).
    pub fn fill_latency(&self) -> u64 {
        PIPELINE_FILL
    }

    /// Total DSP count across the seven EMUs (lanes × per-lane DSP cost).
    pub fn dsp_count(&self) -> u64 {
        let lane = emu::lane_cost(self.pot_requant);
        SsmOp::ALL.len() as u64 * self.parallelism as u64 * lane.dsp
    }

    /// Total LUT count across EMUs plus the softplus/exp lookup tables and
    /// the accumulator tree (calibrated constants; see `emu::lane_cost`).
    pub fn lut_count(&self) -> u64 {
        let lane = emu::lane_cost(self.pot_requant);
        let emus = SsmOp::ALL.len() as u64 * self.parallelism as u64 * lane.lut;
        let special_fns = 2 * 1800; // softplus + exp piecewise tables
        let accumulator = self.parallelism as u64 * 120;
        emus + special_fns + accumulator
    }

    /// Total FF count.
    pub fn ff_count(&self) -> u64 {
        let lane = emu::lane_cost(self.pot_requant);
        SsmOp::ALL.len() as u64 * self.parallelism as u64 * lane.ff + 2400
    }

    /// FIFO BRAMs: one FIFO pair between consecutive units.
    pub fn bram_count(&self) -> u64 {
        (SsmOp::ALL.len() as u64 - 1) * 2
    }

    /// Per-operator DSP cost for one decode step across all heads — the
    /// data behind Fig. 3 (hardware cost per SSM operation).
    pub fn per_op_dsp(&self) -> Vec<(SsmOp, u64)> {
        let lane = emu::lane_cost(self.pot_requant);
        SsmOp::ALL
            .iter()
            .map(|&op| (op, self.parallelism as u64 * lane.dsp))
            .collect()
    }

    /// Per-operator LUT cost (Fig. 3's second axis).
    pub fn per_op_lut(&self) -> Vec<(SsmOp, u64)> {
        let lane = emu::lane_cost(self.pot_requant);
        SsmOp::ALL
            .iter()
            .map(|&op| (op, self.parallelism as u64 * lane.lut))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::HwPrecision;
    use crate::platform::Platform;
    use lightmamba_model::{MambaConfig, ModelPreset};

    fn model_2p7b() -> SsmuModel {
        let platform = Platform::vck190();
        let model = MambaConfig::preset(ModelPreset::B2_7);
        let cfg = AcceleratorConfig::lightmamba_w4a4(&platform, &model);
        SsmuModel::new(&cfg, model.headdim, model.d_state)
    }

    #[test]
    fn head_cycles_are_slab_over_lanes() {
        let m = model_2p7b();
        assert_eq!(m.head_cycles(), (64 * 128 / 2) as u64);
    }

    #[test]
    fn all_heads_amortize_fill() {
        let m = model_2p7b();
        let per_head = m.head_cycles();
        let all = m.all_heads_cycles(80);
        assert_eq!(all, per_head * 80 + m.fill_latency());
    }

    #[test]
    fn tiling_divides_head_work() {
        let m = model_2p7b();
        // A 16 × 32 tile of the 64 × 128 head slab.
        let per_tile = emu::emu_cycles(16 * 32, m.parallelism);
        let tiles_per_head = ((64 / 16) * (128 / 32)) as u64;
        assert_eq!(per_tile * tiles_per_head, m.head_cycles());
    }

    #[test]
    fn pot_requant_saves_dsp_and_lut() {
        let mut pot = model_2p7b();
        pot.pot_requant = true;
        let mut non = model_2p7b();
        non.pot_requant = false;
        assert!(pot.dsp_count() < non.dsp_count());
        assert!(pot.lut_count() < non.lut_count());
        // Fig. 3 regime: the difference is the per-element requant cost.
        assert_eq!(non.dsp_count(), 2 * pot.dsp_count());
    }

    #[test]
    fn per_op_reports_cover_all_ops() {
        let m = model_2p7b();
        assert_eq!(m.per_op_dsp().len(), 7);
        assert_eq!(m.per_op_lut().len(), 7);
        let total: u64 = m.per_op_dsp().iter().map(|(_, d)| d).sum();
        assert_eq!(total, m.dsp_count());
    }

    #[test]
    fn more_lanes_fewer_cycles() {
        let platform = Platform::u280();
        let model = MambaConfig::preset(ModelPreset::B2_7);
        let cfg = AcceleratorConfig::lightmamba_u280(&platform, &model);
        let wide = SsmuModel::new(&cfg, model.headdim, model.d_state);
        let narrow = model_2p7b();
        assert!(wide.head_cycles() < narrow.head_cycles());
        let _ = HwPrecision::W4A4;
    }
}
