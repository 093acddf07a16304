//! GPU decode baseline: a roofline with per-token launch overhead.
//!
//! Mamba decode on a GPU is a chain of small GEMV/scan kernels. Time per
//! token = max(weight-streaming time, FLOP time) + fixed per-token kernel
//! launch/host overhead. The overhead term dominates for small models,
//! which is why the paper's Fig. 9b shows the FPGA's energy advantage
//! *growing* as models shrink.

use lightmamba_model::MambaConfig;

use crate::platform::GpuDevice;

/// GPU decode performance/energy report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuReport {
    /// Decode throughput.
    pub tokens_per_s: f64,
    /// Seconds per token.
    pub latency_s: f64,
    /// Energy efficiency in tokens per joule.
    pub tokens_per_joule: f64,
}

/// Roofline decode model of a Mamba model on a GPU device at FP16.
#[derive(Debug, Clone)]
pub struct GpuModel {
    device: GpuDevice,
}

impl GpuModel {
    /// Wraps a device.
    pub fn new(device: GpuDevice) -> Self {
        GpuModel { device }
    }

    /// The device being modelled.
    pub fn device(&self) -> &GpuDevice {
        &self.device
    }

    /// Seconds to decode one token of `model` at FP16.
    pub fn token_latency_s(&self, model: &MambaConfig) -> f64 {
        let bytes = model.param_count() as f64 * 2.0; // FP16
        let stream_s =
            bytes / (self.device.bandwidth_bytes_per_s * self.device.bandwidth_efficiency);
        // Decode FLOPs ≈ 2 × params (each weight enters one MAC).
        let flops = 2.0 * model.param_count() as f64;
        let compute_s = flops / self.device.peak_fp16_flops;
        stream_s.max(compute_s) + self.device.per_token_overhead_s
    }

    /// Full decode report for `model`.
    pub fn decode_report(&self, model: &MambaConfig) -> GpuReport {
        let latency_s = self.token_latency_s(model);
        let tokens_per_s = 1.0 / latency_s;
        GpuReport {
            tokens_per_s,
            latency_s,
            tokens_per_joule: tokens_per_s / self.device.decode_power_w,
        }
    }

    /// Throughput vs output length: flat for Mamba (fixed-size state).
    pub fn throughput_vs_length(
        &self,
        model: &MambaConfig,
        lengths: &[usize],
    ) -> Vec<(usize, f64)> {
        let t = self.decode_report(model).tokens_per_s;
        lengths.iter().map(|&l| (l, t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightmamba_model::ModelPreset;

    #[test]
    fn rtx2070_lands_near_65_tokens_per_s() {
        let m = GpuModel::new(GpuDevice::rtx2070());
        let r = m.decode_report(&MambaConfig::preset(ModelPreset::B2_7));
        assert!(
            (50.0..80.0).contains(&r.tokens_per_s),
            "RTX 2070 throughput {} vs paper 65",
            r.tokens_per_s
        );
    }

    #[test]
    fn rtx4090_lands_near_138_tokens_per_s() {
        let m = GpuModel::new(GpuDevice::rtx4090());
        let r = m.decode_report(&MambaConfig::preset(ModelPreset::B2_7));
        assert!(
            (110.0..170.0).contains(&r.tokens_per_s),
            "RTX 4090 throughput {} vs paper 138",
            r.tokens_per_s
        );
    }

    #[test]
    fn energy_efficiency_matches_table4() {
        // Paper: 0.371 (2070) and 0.484 (4090) tokens/J.
        let e2070 = GpuModel::new(GpuDevice::rtx2070())
            .decode_report(&MambaConfig::preset(ModelPreset::B2_7))
            .tokens_per_joule;
        let e4090 = GpuModel::new(GpuDevice::rtx4090())
            .decode_report(&MambaConfig::preset(ModelPreset::B2_7))
            .tokens_per_joule;
        assert!((0.25..0.55).contains(&e2070), "2070 {e2070}");
        assert!((0.33..0.70).contains(&e4090), "4090 {e4090}");
        assert!(e4090 > e2070);
    }

    #[test]
    fn overhead_dominates_small_models() {
        let m = GpuModel::new(GpuDevice::rtx2070());
        let small = m.token_latency_s(&MambaConfig::preset(ModelPreset::M130));
        // Streaming 130M params at FP16 ≈ 0.7 ms; overhead is 1.5 ms.
        let overhead_fraction = m.device().per_token_overhead_s / small;
        assert!(
            overhead_fraction > 0.5,
            "overhead fraction {overhead_fraction} should dominate small models"
        );
    }

    #[test]
    fn gpu_throughput_flat_in_length() {
        let m = GpuModel::new(GpuDevice::rtx2070());
        let pts = m.throughput_vs_length(&MambaConfig::preset(ModelPreset::B2_7), &[128, 4096]);
        assert!((pts[0].1 - pts[1].1).abs() < 1e-9);
    }
}
