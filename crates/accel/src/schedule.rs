//! Pipeline scheduling of one Mamba block (Fig. 6).
//!
//! Three schemes:
//!
//! * **Naive** — in_proj, conv, SSM, rotation, out_proj run strictly in
//!   sequence (Fig. 6a); hardware utilization suffers because the MMU
//!   idles during the whole SSM phase and vice versa.
//! * **Coarse reordered** — the input projection's *generation order* is
//!   changed (paper Sec. V-B): `Δ, B, C` first, then `X`/`Z`
//!   head-by-head, so SSM head `h` starts as soon as its slice lands
//!   (Fig. 6b). The paper reports 32% latency reduction and 58% → 96%
//!   utilization.
//! * **Fine tiled** — additionally, out_proj consumes the rotated `Y`
//!   head-by-head, removing the drain bubble and the full-tensor buffers
//!   (Fig. 6c, with the tiling of Fig. 7).

use lightmamba_model::MambaConfig;

use crate::arch::{AcceleratorConfig, PipelineMode};
use crate::htu::HtuModel;
use crate::mmu::MmuModel;
use crate::ssmu::SsmuModel;

/// Cycle accounting for one Mamba block's decode step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerSchedule {
    /// End-to-end cycles for the block.
    pub makespan: u64,
    /// Cycles the MMU spent computing.
    pub mmu_busy: u64,
    /// Cycles the SSMU spent computing.
    pub ssmu_busy: u64,
    /// Cycles the HTU spent computing.
    pub htu_busy: u64,
    /// Scheme that produced this schedule.
    pub mode: PipelineMode,
}

impl LayerSchedule {
    /// MMU utilization: busy cycles of the main GEMM engine over the
    /// block makespan (the paper's 58% → 96% metric tracks the MMU, the
    /// engine that owns most of the datapath).
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.mmu_busy as f64 / self.makespan as f64
    }
}

/// Computes the per-unit work quantities for one block.
#[derive(Debug, Clone, Copy)]
struct BlockWork {
    inproj_all: u64,
    inproj_dbc: u64,
    inproj_xz_per_head: u64,
    conv: u64,
    ssm_per_head: u64,
    ssm_fill: u64,
    htu_full: u64,
    outproj_all: u64,
    outproj_per_head: u64,
    nheads: usize,
}

fn block_work(model: &MambaConfig, cfg: &AcceleratorConfig) -> BlockWork {
    let mmu = MmuModel::new(cfg.mmu_din, cfg.mmu_dout, cfg.precision);
    let ssmu = SsmuModel::new(cfg, model.headdim, model.d_state);
    let htu = htu_model(model, cfg);
    let d = model.d_model;
    let di = model.d_inner();
    let g = model.ngroups * model.d_state;
    let nheads = model.nheads();
    BlockWork {
        inproj_all: mmu.matvec_cycles(d, model.d_in_proj()),
        inproj_dbc: mmu.matvec_cycles(d, 2 * g + nheads),
        inproj_xz_per_head: mmu.matvec_cycles(d, 2 * model.headdim),
        conv: (model.conv_dim() * model.d_conv).div_ceil(cfg.emu_parallelism) as u64,
        ssm_per_head: ssmu.head_cycles(),
        ssm_fill: ssmu.fill_latency(),
        htu_full: htu.transform_cycles(di),
        outproj_all: mmu.matvec_cycles(di, d),
        outproj_per_head: mmu.matvec_cycles(model.headdim, d),
        nheads,
    }
}

/// The HTU geometry used for a model under a configuration: the largest
/// power-of-two factor of `d_inner` with the remainder on the matrix HTU
/// (capped at 128 FHT points as built in the paper).
pub fn htu_model(model: &MambaConfig, cfg: &AcceleratorConfig) -> HtuModel {
    let di = model.d_inner();
    let mut pot = 1usize;
    while pot * 2 <= 128 && di.is_multiple_of(pot * 2) {
        pot *= 2;
    }
    let rem = di / pot;
    HtuModel::new(pot, rem, cfg.hadamard)
}

/// Schedules one block under the configuration's pipeline mode.
pub fn schedule_block(model: &MambaConfig, cfg: &AcceleratorConfig) -> LayerSchedule {
    let w = block_work(model, cfg);
    match cfg.pipeline {
        PipelineMode::Naive => naive(&w),
        PipelineMode::CoarseReordered => coarse(&w),
        PipelineMode::FineTiled => fine(
            &w,
            cfg.hadamard != crate::arch::HadamardImpl::MatrixMultiply,
        ),
    }
}

fn naive(w: &BlockWork) -> LayerSchedule {
    let ssm_all = w.ssm_per_head * w.nheads as u64 + w.ssm_fill;
    let mmu_busy = w.inproj_all + w.outproj_all;
    let makespan = w.inproj_all + w.conv + ssm_all + w.htu_full + w.outproj_all;
    LayerSchedule {
        makespan,
        mmu_busy,
        ssmu_busy: ssm_all,
        htu_busy: w.htu_full,
        mode: PipelineMode::Naive,
    }
}

fn coarse(w: &BlockWork) -> LayerSchedule {
    // MMU: ΔBC first, then per-head X/Z chunks back-to-back.
    let mut xz_done = vec![0u64; w.nheads];
    let mut t_mmu = w.inproj_dbc;
    for slot in xz_done.iter_mut() {
        t_mmu += w.inproj_xz_per_head;
        *slot = t_mmu;
    }
    // Conv is a short pipelined stage between MMU and SSMU; model as a
    // fixed fill added to each head's readiness.
    let conv_fill = 8u64;
    // SSMU: serial over heads, head h starts when its X/Z is ready.
    let mut t_ssm = 0u64;
    for &ready in xz_done.iter() {
        t_ssm = t_ssm.max(ready + conv_fill) + w.ssm_per_head;
    }
    let y_done = t_ssm + w.ssm_fill;
    // Coarse mode still buffers the whole Y: rotate all of it, then run
    // out_proj as one matvec.
    let makespan = y_done + w.htu_full + w.outproj_all;
    LayerSchedule {
        makespan,
        mmu_busy: w.inproj_all + w.outproj_all,
        ssmu_busy: w.ssm_per_head * w.nheads as u64,
        htu_busy: w.htu_full,
        mode: PipelineMode::CoarseReordered,
    }
}

fn fine(w: &BlockWork, streaming_htu: bool) -> LayerSchedule {
    let mut xz_done = vec![0u64; w.nheads];
    let mut t_mmu = w.inproj_dbc;
    for slot in xz_done.iter_mut() {
        t_mmu += w.inproj_xz_per_head;
        *slot = t_mmu;
    }
    let conv_fill = 8u64;
    let mut t_ssm = 0u64;
    let mut y_head_done = vec![0u64; w.nheads];
    for (h, &ready) in xz_done.iter().enumerate() {
        t_ssm = t_ssm.max(ready + conv_fill) + w.ssm_per_head;
        y_head_done[h] = t_ssm + w.ssm_fill;
    }
    // A butterfly-pipeline HTU streams: each head's rotated chunk emerges
    // a fixed fill after the head's Y. An MM-based HTU processes the full
    // vector as one monolithic block, so every out_proj chunk waits for
    // the last head plus the whole transform — the Fig. 10 "+Rotation
    // Quant" throughput dip.
    let htu_fill = (w.htu_full / w.nheads as u64).max(16);
    let rotated_ready = |h: usize, yd: u64| -> u64 {
        if streaming_htu {
            yd + htu_fill
        } else {
            let _ = h;
            y_head_done[w.nheads - 1] + w.htu_full
        }
    };
    // MMU interleaves remaining X/Z generation with per-head out_proj
    // chunks; since all X/Z is issued first, out_proj chunks queue behind
    // t_mmu and behind their data readiness.
    let mut mmu_free = t_mmu;
    let mut finish = 0u64;
    for (h, &yd) in y_head_done.iter().enumerate() {
        let start = mmu_free.max(rotated_ready(h, yd));
        mmu_free = start + w.outproj_per_head;
        finish = mmu_free;
    }
    LayerSchedule {
        makespan: finish,
        mmu_busy: w.inproj_all + w.outproj_per_head * w.nheads as u64,
        ssmu_busy: w.ssm_per_head * w.nheads as u64,
        htu_busy: w.htu_full,
        mode: PipelineMode::FineTiled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{HadamardImpl, PipelineMode};
    use crate::platform::Platform;
    use lightmamba_model::ModelPreset;

    fn setup() -> (MambaConfig, AcceleratorConfig) {
        let model = MambaConfig::preset(ModelPreset::B2_7);
        let platform = Platform::vck190();
        let cfg = AcceleratorConfig::lightmamba_w4a4(&platform, &model);
        (model, cfg)
    }

    fn with_mode(cfg: &AcceleratorConfig, mode: PipelineMode) -> AcceleratorConfig {
        AcceleratorConfig {
            pipeline: mode,
            ..cfg.clone()
        }
    }

    #[test]
    fn fine_beats_coarse_beats_naive() {
        let (model, cfg) = setup();
        let naive = schedule_block(&model, &with_mode(&cfg, PipelineMode::Naive));
        let coarse = schedule_block(&model, &with_mode(&cfg, PipelineMode::CoarseReordered));
        let fine = schedule_block(&model, &with_mode(&cfg, PipelineMode::FineTiled));
        assert!(coarse.makespan < naive.makespan, "{coarse:?} vs {naive:?}");
        assert!(fine.makespan <= coarse.makespan, "{fine:?} vs {coarse:?}");
    }

    #[test]
    fn reordering_reduces_latency_about_a_third() {
        // Paper: "reduces the total computation time of the network by 32%".
        let (model, cfg) = setup();
        let naive = schedule_block(&model, &with_mode(&cfg, PipelineMode::Naive));
        let fine = schedule_block(&model, &with_mode(&cfg, PipelineMode::FineTiled));
        let reduction = 1.0 - fine.makespan as f64 / naive.makespan as f64;
        assert!(
            (0.2..0.55).contains(&reduction),
            "latency reduction {reduction:.2} outside the paper's regime"
        );
    }

    #[test]
    fn utilization_improves_with_reordering() {
        // Paper: utilization 58% → 96%.
        let (model, cfg) = setup();
        let naive = schedule_block(&model, &with_mode(&cfg, PipelineMode::Naive));
        let fine = schedule_block(&model, &with_mode(&cfg, PipelineMode::FineTiled));
        assert!(naive.utilization() < 0.75, "naive {}", naive.utilization());
        assert!(fine.utilization() > 0.90, "fine {}", fine.utilization());
        assert!(fine.utilization() > naive.utilization() + 0.15);
    }

    #[test]
    fn mm_hadamard_slows_everything_down() {
        // The Fig. 10 "+Rotation Quant" (MM-based) vs "+FHT" contrast.
        let (model, cfg) = setup();
        let mm = AcceleratorConfig {
            hadamard: HadamardImpl::MatrixMultiply,
            ..cfg.clone()
        };
        let fht = schedule_block(&model, &cfg);
        let slow = schedule_block(&model, &mm);
        assert!(
            slow.makespan as f64 > fht.makespan as f64 * 1.2,
            "mm {slow:?} vs fht {fht:?}"
        );
    }

    #[test]
    fn busy_cycles_never_exceed_makespan() {
        let (model, cfg) = setup();
        for mode in [
            PipelineMode::Naive,
            PipelineMode::CoarseReordered,
            PipelineMode::FineTiled,
        ] {
            let s = schedule_block(&model, &with_mode(&cfg, mode));
            assert!(s.mmu_busy <= s.makespan, "{mode:?}");
            assert!(s.ssmu_busy <= s.makespan, "{mode:?}");
            assert!(s.utilization() <= 1.0);
        }
    }

    #[test]
    fn htu_factorization_for_2p7b_is_128x40() {
        let (model, cfg) = setup();
        let h = htu_model(&model, &cfg);
        assert_eq!(h.pot_points, 128);
        assert_eq!(h.rem_points, 40);
    }

    #[test]
    fn schedule_scales_with_model_size() {
        let platform = Platform::vck190();
        let small = MambaConfig::preset(ModelPreset::M130);
        let big = MambaConfig::preset(ModelPreset::B2_7);
        let cfg_s = AcceleratorConfig::lightmamba_w4a4(&platform, &small);
        let cfg_b = AcceleratorConfig::lightmamba_w4a4(&platform, &big);
        let s = schedule_block(&small, &cfg_s);
        let b = schedule_block(&big, &cfg_b);
        assert!(b.makespan > 3 * s.makespan);
    }
}
