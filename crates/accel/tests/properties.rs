//! Property-based tests for the accelerator model: scheduler invariants,
//! resource monotonicity, and simulator consistency.

use lightmamba_accel::arch::{
    AcceleratorConfig, HadamardImpl, HwPrecision, PipelineMode, TileConfig,
};
use lightmamba_accel::platform::Platform;
use lightmamba_accel::resources;
use lightmamba_accel::schedule::schedule_block;
use lightmamba_accel::sim::DecodeSimulator;
use lightmamba_model::{MambaConfig, ModelPreset};
use proptest::prelude::*;

fn any_config() -> impl Strategy<Value = AcceleratorConfig> {
    (
        prop::sample::select(vec![
            HwPrecision::Fp16,
            HwPrecision::W8A8,
            HwPrecision::W4A16,
            HwPrecision::W4A4,
        ]),
        prop::sample::select(vec![4usize, 8, 16, 32]),
        prop::sample::select(vec![4usize, 8, 16, 32]),
        prop::sample::select(vec![1usize, 2, 8, 32]),
        any::<bool>(),
        prop::sample::select(vec![
            HadamardImpl::None,
            HadamardImpl::MatrixMultiply,
            HadamardImpl::Fht,
        ]),
    )
        .prop_map(
            |(precision, din, dout, emu, pot, hadamard)| AcceleratorConfig {
                precision,
                mmu_din: din,
                mmu_dout: dout,
                emu_parallelism: emu,
                pot_requant: pot,
                hadamard,
                pipeline: PipelineMode::Naive,
                tiling: Some(TileConfig { pp: 16, np: 32 }),
            },
        )
}

fn model() -> MambaConfig {
    MambaConfig::preset(ModelPreset::B2_7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pipeline_ordering_always_holds(cfg in any_config()) {
        // fine <= coarse <= naive for every architecture point.
        let m = model();
        let naive = schedule_block(&m, &AcceleratorConfig { pipeline: PipelineMode::Naive, ..cfg.clone() });
        let coarse = schedule_block(&m, &AcceleratorConfig { pipeline: PipelineMode::CoarseReordered, ..cfg.clone() });
        let fine = schedule_block(&m, &AcceleratorConfig { pipeline: PipelineMode::FineTiled, ..cfg });
        prop_assert!(coarse.makespan <= naive.makespan, "{coarse:?} vs {naive:?}");
        prop_assert!(fine.makespan <= coarse.makespan + coarse.makespan / 10, "{fine:?} vs {coarse:?}");
    }

    #[test]
    fn busy_cycles_bounded_by_makespan(cfg in any_config()) {
        let m = model();
        for mode in [PipelineMode::Naive, PipelineMode::CoarseReordered, PipelineMode::FineTiled] {
            let s = schedule_block(&m, &AcceleratorConfig { pipeline: mode, ..cfg.clone() });
            prop_assert!(s.mmu_busy <= s.makespan);
            prop_assert!(s.ssmu_busy <= s.makespan);
            prop_assert!(s.utilization() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn resources_monotone_in_mmu_size(cfg in any_config()) {
        let m = model();
        let small = resources::estimate(&m, &cfg);
        let big_cfg = AcceleratorConfig {
            mmu_din: cfg.mmu_din * 2,
            mmu_dout: cfg.mmu_dout * 2,
            ..cfg
        };
        let big = resources::estimate(&m, &big_cfg);
        prop_assert!(big.dsp >= small.dsp);
        prop_assert!(big.lut >= small.lut);
        prop_assert!(big.ff >= small.ff);
    }

    #[test]
    fn throughput_improves_or_holds_with_bigger_mmu(cfg in any_config()) {
        let m = model();
        let p = Platform::u280(); // compute-bound platform shows the effect
        let base = DecodeSimulator::new(p.clone(), m.clone(), cfg.clone()).decode_report();
        let big_cfg = AcceleratorConfig {
            mmu_din: cfg.mmu_din * 2,
            mmu_dout: cfg.mmu_dout * 2,
            ..cfg
        };
        let big = DecodeSimulator::new(p, m, big_cfg).decode_report();
        prop_assert!(big.tokens_per_s + 1e-9 >= base.tokens_per_s);
    }

    #[test]
    fn decode_report_internally_consistent(cfg in any_config()) {
        let m = model();
        for platform in [Platform::vck190(), Platform::u280()] {
            let freq = platform.freq_hz;
            let r = DecodeSimulator::new(platform, m.clone(), cfg.clone()).decode_report();
            prop_assert!((freq / r.cycles_per_step - r.tokens_per_s).abs() / r.tokens_per_s < 1e-9);
            // Overlap: total cycles at least the max of compute/dma parts,
            // at most their sum.
            prop_assert!(r.cycles_per_step + 1e-6 >= r.compute_cycles.max(r.dma_cycles));
            prop_assert!(r.cycles_per_step <= r.compute_cycles + r.dma_cycles + 1e-6);
        }
    }
}
