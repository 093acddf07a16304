//! Decode-step simulation: compute makespan vs DMA weight streaming.
//!
//! Autoregressive decode of a bandwidth-resident model streams every
//! weight once per step. With double-buffered weight tiles the DMA
//! overlaps compute, so each layer costs
//! `max(batch · compute_makespan, dma_cycles)`; the LM head (tied
//! embedding, by far the widest single matrix) is handled the same way.
//! [`DecodeSimulator::batch_report`] is the one formula; the paper's
//! single-stream decode is its batch-1 step
//! ([`DecodeSimulator::decode_report`]). On VCK190's 12 GB/s LPDDR the
//! DMA term dominates at batch 1 (the paper's 7.21 tokens/s W4A4); on
//! U280's HBM compute dominates (93 tokens/s). Serving many sequences at
//! once amortizes the shared weight stream until the step crosses from
//! memory-bound to compute-bound; [`crate::batch`] bounds how many
//! sequences' state fits on-chip.

use lightmamba_model::MambaConfig;

use crate::arch::AcceleratorConfig;
use crate::mmu::MmuModel;
use crate::platform::Platform;
use crate::schedule::{schedule_block, LayerSchedule};

/// Fractional storage overhead of quantization scales (FP16 scale per
/// group of 128 at 4-bit ≈ 3%; per-channel at 8-bit is negligible but we
/// keep one constant for both, matching the paper's group-128 recipe).
fn scale_overhead(weight_bits: u32) -> f64 {
    match weight_bits {
        4 => 16.0 / (128.0 * 4.0),
        8 => 16.0 / (128.0 * 8.0),
        _ => 0.0,
    }
}

/// Decode performance of one engine step that advances `batch` resident
/// sequences by one token each; at batch 1 a step is one token of the
/// paper's single-stream decode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeReport {
    /// Sustained decode throughput across the batch.
    pub tokens_per_s: f64,
    /// Total cycles of one step.
    pub cycles_per_step: f64,
    /// Compute-only cycles per step (no DMA stalls).
    pub compute_cycles: f64,
    /// DMA-only cycles per step (independent of the batch: weights are
    /// streamed once and shared).
    pub dma_cycles: f64,
    /// Whether the DMA (memory bandwidth) is the bottleneck.
    pub memory_bound: bool,
    /// MMU+SSMU utilization of the per-layer schedule.
    pub utilization: f64,
    /// Weight traffic per step in bytes.
    pub weight_bytes: f64,
}

/// Cycle-level decode simulator.
#[derive(Debug, Clone)]
pub struct DecodeSimulator {
    platform: Platform,
    model: MambaConfig,
    cfg: AcceleratorConfig,
}

impl DecodeSimulator {
    /// Builds a simulator; the configuration should already be validated.
    pub fn new(platform: Platform, model: MambaConfig, cfg: AcceleratorConfig) -> Self {
        DecodeSimulator {
            platform,
            model,
            cfg,
        }
    }

    /// The platform being simulated.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The model being decoded.
    pub fn model(&self) -> &MambaConfig {
        &self.model
    }

    /// The accelerator configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.cfg
    }

    /// Weight bytes streamed per token (all layers + LM head + scales).
    pub fn weight_bytes_per_token(&self) -> f64 {
        let bits = f64::from(self.cfg.precision.weight_bits());
        let params = self.model.param_count() as f64;
        params * bits / 8.0 * (1.0 + scale_overhead(self.cfg.precision.weight_bits()))
    }

    /// The per-layer schedule under the configured pipeline mode.
    pub fn layer_schedule(&self) -> LayerSchedule {
        schedule_block(&self.model, &self.cfg)
    }

    /// LM-head cycles (tied embedding matvec `d_model → vocab`).
    pub fn lm_head_cycles(&self) -> u64 {
        let mmu = MmuModel::new(self.cfg.mmu_din, self.cfg.mmu_dout, self.cfg.precision);
        mmu.matvec_cycles(self.model.d_model, self.model.vocab_size)
    }

    /// DMA cycles to stream one layer's weights (scale overhead included).
    pub fn layer_dma_cycles(&self) -> f64 {
        let layer_weights = self.model.params_per_layer() as f64
            * f64::from(self.cfg.precision.weight_bits())
            / 8.0
            * (1.0 + scale_overhead(self.cfg.precision.weight_bits()));
        self.platform.dma_cycles(layer_weights)
    }

    /// DMA cycles to stream the LM-head (tied embedding) weights.
    pub fn head_dma_cycles(&self) -> f64 {
        let head_weights = (self.model.vocab_size * self.model.d_model) as f64
            * f64::from(self.cfg.precision.weight_bits())
            / 8.0;
        self.platform.dma_cycles(head_weights)
    }

    /// Decode report for one token of single-stream decode: the batch-1
    /// engine step.
    pub fn decode_report(&self) -> DecodeReport {
        self.batch_report(1)
    }

    /// Decode report for an engine step advancing `batch` sequences.
    ///
    /// Weights are streamed once per step and shared across the batch
    /// (double-buffered against compute); compute scales linearly with
    /// the number of resident sequences, so each layer costs
    /// `max(batch · compute, dma)`.
    ///
    /// # Panics
    ///
    /// Panics when `batch` is zero.
    pub fn batch_report(&self, batch: usize) -> DecodeReport {
        assert!(batch > 0, "batch must be at least 1");
        let layer = self.layer_schedule();
        let n_layer = self.model.n_layer as f64;
        let b = batch as f64;
        let layer_compute = layer.makespan as f64;
        let head_compute = self.lm_head_cycles() as f64;
        let layer_dma = self.layer_dma_cycles();
        let head_dma = self.head_dma_cycles();

        let cycles =
            n_layer * (b * layer_compute).max(layer_dma) + (b * head_compute).max(head_dma);
        DecodeReport {
            tokens_per_s: b * self.platform.freq_hz / cycles,
            cycles_per_step: cycles,
            compute_cycles: b * (n_layer * layer_compute + head_compute),
            dma_cycles: n_layer * layer_dma + head_dma,
            memory_bound: layer_dma > b * layer_compute,
            utilization: layer.utilization(),
            weight_bytes: self.weight_bytes_per_token(),
        }
    }

    /// Throughput as a function of output sequence length. Mamba keeps a
    /// fixed-size state, so the curve is flat — the defining contrast with
    /// the KV-cache baselines of Fig. 9a.
    pub fn throughput_vs_length(&self, lengths: &[usize]) -> Vec<(usize, f64)> {
        let t = self.decode_report().tokens_per_s;
        lengths.iter().map(|&l| (l, t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{HwPrecision, PipelineMode};
    use lightmamba_model::ModelPreset;

    fn vck190_w4a4() -> DecodeSimulator {
        let platform = Platform::vck190();
        let model = MambaConfig::preset(ModelPreset::B2_7);
        let cfg = AcceleratorConfig::lightmamba_w4a4(&platform, &model);
        DecodeSimulator::new(platform, model, cfg)
    }

    #[test]
    fn vck190_w4a4_lands_near_7_21_tokens_per_s() {
        let r = vck190_w4a4().decode_report();
        assert!(
            (5.5..9.0).contains(&r.tokens_per_s),
            "VCK190 W4A4 throughput {} vs paper 7.21",
            r.tokens_per_s
        );
        assert!(r.memory_bound, "VCK190 decode should be bandwidth-bound");
    }

    #[test]
    fn vck190_w8a8_lands_near_3_61_tokens_per_s() {
        let platform = Platform::vck190();
        let model = MambaConfig::preset(ModelPreset::B2_7);
        let cfg = AcceleratorConfig::lightmamba_w8a8(&platform, &model);
        let r = DecodeSimulator::new(platform, model, cfg).decode_report();
        assert!(
            (2.8..4.5).contains(&r.tokens_per_s),
            "VCK190 W8A8 throughput {} vs paper 3.61",
            r.tokens_per_s
        );
    }

    #[test]
    fn u280_lands_near_93_tokens_per_s() {
        let platform = Platform::u280();
        let model = MambaConfig::preset(ModelPreset::B2_7);
        let cfg = AcceleratorConfig::lightmamba_u280(&platform, &model);
        let r = DecodeSimulator::new(platform, model, cfg).decode_report();
        assert!(
            (65.0..125.0).contains(&r.tokens_per_s),
            "U280 throughput {} vs paper 93",
            r.tokens_per_s
        );
        assert!(!r.memory_bound, "U280 decode should be compute-bound");
    }

    #[test]
    fn w4a4_roughly_doubles_w8a8_on_bandwidth_bound_platform() {
        let platform = Platform::vck190();
        let model = MambaConfig::preset(ModelPreset::B2_7);
        let w4 = DecodeSimulator::new(
            platform.clone(),
            model.clone(),
            AcceleratorConfig::lightmamba_w4a4(&platform, &model),
        )
        .decode_report();
        let w8_cfg = AcceleratorConfig::lightmamba_w8a8(&platform, &model);
        let w8 = DecodeSimulator::new(platform.clone(), model, w8_cfg).decode_report();
        let ratio = w4.tokens_per_s / w8.tokens_per_s;
        assert!((1.6..2.3).contains(&ratio), "W4A4/W8A8 ratio {ratio}");
    }

    #[test]
    fn throughput_is_flat_in_sequence_length() {
        let sim = vck190_w4a4();
        let pts = sim.throughput_vs_length(&[128, 1024, 8192]);
        assert_eq!(pts.len(), 3);
        assert!((pts[0].1 - pts[2].1).abs() < 1e-9);
    }

    #[test]
    fn fp16_is_much_slower() {
        // Fig. 10 "Original Network": 2.23 tokens/s.
        let platform = Platform::vck190();
        let model = MambaConfig::preset(ModelPreset::B2_7);
        let mut cfg = AcceleratorConfig::lightmamba_w4a4(&platform, &model);
        cfg.precision = HwPrecision::Fp16;
        cfg.hadamard = crate::arch::HadamardImpl::None;
        cfg.pipeline = PipelineMode::Naive;
        cfg.tiling = None;
        let r = DecodeSimulator::new(platform, model, cfg).decode_report();
        assert!(
            (1.2..3.2).contains(&r.tokens_per_s),
            "FP16 throughput {} vs paper 2.23",
            r.tokens_per_s
        );
    }

    #[test]
    fn weight_bytes_track_precision() {
        let sim = vck190_w4a4();
        let b4 = sim.weight_bytes_per_token();
        // ~2.7B params at 4 bits ≈ 1.4 GB.
        assert!((1.2e9..1.6e9).contains(&b4), "weight bytes {b4}");
    }

    #[test]
    fn smaller_models_decode_faster() {
        let platform = Platform::vck190();
        let mut last = 0.0;
        for preset in [ModelPreset::B2_7, ModelPreset::B1_3, ModelPreset::M130] {
            let model = MambaConfig::preset(preset);
            let cfg = AcceleratorConfig::lightmamba_w4a4(&platform, &model);
            let r = DecodeSimulator::new(platform.clone(), model, cfg).decode_report();
            assert!(r.tokens_per_s > last, "{preset:?} not faster");
            last = r.tokens_per_s;
        }
    }
}
