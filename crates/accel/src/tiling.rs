//! Fine-grained tiling and fusion: on-chip buffer sizing (Fig. 7).
//!
//! Without tiling, the SSMU buffers every intermediate tensor whole —
//! `B̄X`, `Āh_{t−1}`, `h_t`, plus the SSM inputs — which the paper measures
//! at >70% of total URAM. With operator fusion the intermediates between
//! EMUs collapse to FIFO depth, and with `pp × np` tiling the working set
//! shrinks to a tile per operator; the paper reports 4× URAM reduction
//! (246 → 61 blocks on VCK190).

use lightmamba_model::MambaConfig;

use crate::arch::{AcceleratorConfig, TileConfig};

/// Bytes one URAM block stores (288 Kb = 36 KB on UltraScale+/Versal).
pub const URAM_BYTES: f64 = 36_864.0;

/// On-chip buffer inventory of the SSMU path, in bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferReport {
    /// Named buffers with their sizes in bytes.
    pub buffers: Vec<(String, f64)>,
}

impl BufferReport {
    /// Total bytes across buffers.
    pub fn total_bytes(&self) -> f64 {
        self.buffers.iter().map(|(_, b)| b).sum()
    }

    /// URAM blocks needed (each buffer rounds up separately, as each is a
    /// physically distinct memory).
    pub fn uram_blocks(&self) -> u64 {
        self.buffers
            .iter()
            .map(|(_, b)| (b / URAM_BYTES).ceil() as u64)
            .sum()
    }
}

/// Buffer inventory without tiling: whole-tensor intermediates (Fig. 7a).
pub fn untiled_buffers(model: &MambaConfig, cfg: &AcceleratorConfig) -> BufferReport {
    let act_bytes = f64::from(cfg.precision.act_bits()) / 8.0;
    // The hidden state is held at wider precision (INT16 accumulate).
    let state_bytes = 2.0;
    // Un-fused intermediates sit *before* re-quantization, i.e. at the
    // wide accumulator width (INT32) — this is exactly why they dominate
    // URAM in the paper's Fig. 7a analysis.
    let wide_bytes = 4.0;
    let slab = (model.nheads() * model.headdim * model.d_state) as f64;
    let di = model.d_inner() as f64;
    let g = (model.ngroups * model.d_state) as f64;
    let h = model.nheads() as f64;
    BufferReport {
        buffers: vec![
            ("h_state".into(), slab * state_bytes),
            ("BX".into(), slab * wide_bytes),
            ("Ah_prev".into(), slab * wide_bytes),
            ("hC_partial".into(), slab * wide_bytes),
            ("ssm_in_X".into(), di * act_bytes),
            ("ssm_in_Z".into(), di * act_bytes),
            ("ssm_in_BC".into(), 2.0 * g * act_bytes),
            ("ssm_in_dt".into(), h * act_bytes),
            ("Y".into(), di * act_bytes),
        ],
    }
}

/// Buffer inventory with fine-grained tiling and fusion (Fig. 7b): fused
/// intermediates shrink to tile-sized ping-pong buffers; only the hidden
/// state (which must persist across tokens) stays whole.
pub fn tiled_buffers(
    model: &MambaConfig,
    cfg: &AcceleratorConfig,
    tile: TileConfig,
) -> BufferReport {
    let act_bytes = f64::from(cfg.precision.act_bits()) / 8.0;
    let state_bytes = 2.0;
    let wide_bytes = 4.0;
    let slab = (model.nheads() * model.headdim * model.d_state) as f64;
    let tile_elems = (tile.pp * tile.np) as f64;
    let g = (model.ngroups * model.d_state) as f64;
    let h = model.nheads() as f64;
    BufferReport {
        buffers: vec![
            ("h_state".into(), slab * state_bytes),
            // Fused EMU chain: double-buffered wide tile between stages.
            ("tile_ping_pong".into(), 2.0 * tile_elems * wide_bytes),
            ("ssm_in_BC".into(), 2.0 * g * act_bytes),
            ("ssm_in_dt".into(), h * act_bytes),
            // X/Z arrive head-by-head: one head's slice is enough.
            ("head_X".into(), model.headdim as f64 * act_bytes),
            ("head_Z".into(), model.headdim as f64 * act_bytes),
            ("head_Y".into(), model.headdim as f64 * act_bytes),
        ],
    }
}

/// URAM blocks for the configured buffer strategy.
pub fn uram_blocks(model: &MambaConfig, cfg: &AcceleratorConfig) -> u64 {
    match cfg.tiling {
        Some(tile) => tiled_buffers(model, cfg, tile).uram_blocks(),
        None => untiled_buffers(model, cfg).uram_blocks(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use lightmamba_model::ModelPreset;

    fn setup() -> (MambaConfig, AcceleratorConfig) {
        let model = MambaConfig::preset(ModelPreset::B2_7);
        let cfg = AcceleratorConfig::lightmamba_w4a4(&Platform::vck190(), &model);
        (model, cfg)
    }

    #[test]
    fn tiling_reduces_uram_about_4x() {
        // Paper Fig. 10: 246 → 61 URAM blocks.
        let (model, cfg) = setup();
        let untiled = untiled_buffers(&model, &cfg).uram_blocks();
        let tiled = uram_blocks(&model, &cfg);
        let ratio = untiled as f64 / tiled as f64;
        assert!(
            (2.5..7.5).contains(&ratio),
            "URAM reduction {ratio:.1}x ({untiled} -> {tiled})"
        );
    }

    #[test]
    fn uram_counts_land_near_table4() {
        // Paper: 246 untiled, 61 tiled on VCK190 W4A4.
        let (model, cfg) = setup();
        let untiled = untiled_buffers(&model, &cfg).uram_blocks();
        let tiled = uram_blocks(&model, &cfg);
        assert!(
            (180..320).contains(&untiled),
            "untiled URAM {untiled} far from 246"
        );
        assert!((40..90).contains(&tiled), "tiled URAM {tiled} far from 61");
    }

    #[test]
    fn intermediates_dominate_untiled_budget() {
        // Paper: SSM intermediates are >70% of URAM before tiling.
        let (model, cfg) = setup();
        let rep = untiled_buffers(&model, &cfg);
        let total = rep.total_bytes();
        let intermediates: f64 = rep
            .buffers
            .iter()
            .filter(|(n, _)| n == "BX" || n == "Ah_prev" || n == "hC_partial" || n == "h_state")
            .map(|(_, b)| b)
            .sum();
        assert!(intermediates / total > 0.7);
    }

    #[test]
    fn hidden_state_survives_tiling() {
        let (model, cfg) = setup();
        let tiled = tiled_buffers(&model, &cfg, cfg.tiling.unwrap());
        let h = tiled
            .buffers
            .iter()
            .find(|(n, _)| n == "h_state")
            .map(|(_, b)| *b)
            .unwrap();
        let slab = (model.nheads() * model.headdim * model.d_state) as f64 * 2.0;
        assert_eq!(h, slab);
    }

    #[test]
    fn smaller_tiles_use_less_buffer() {
        let (model, cfg) = setup();
        let small = tiled_buffers(&model, &cfg, TileConfig { pp: 8, np: 16 });
        let big = tiled_buffers(&model, &cfg, TileConfig { pp: 32, np: 64 });
        assert!(small.total_bytes() < big.total_bytes());
    }

    #[test]
    fn w8a8_needs_more_buffer_than_w4a4() {
        let (model, mut cfg) = setup();
        let w4 = untiled_buffers(&model, &cfg).total_bytes();
        cfg.precision = crate::arch::HwPrecision::W8A8;
        let w8 = untiled_buffers(&model, &cfg).total_bytes();
        assert!(w8 > w4);
    }
}
