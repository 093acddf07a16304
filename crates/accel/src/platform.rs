//! Hardware platforms: the two FPGAs of the paper plus the GPU baselines
//! (Table IV's platform rows).

use serde::{Deserialize, Serialize};

/// An FPGA platform with its memory system and resource budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    /// Human-readable name.
    pub name: String,
    /// Accelerator clock in Hz.
    pub freq_hz: f64,
    /// Off-chip memory bandwidth in bytes/s (LPDDR on VCK190, HBM on U280).
    pub bandwidth_bytes_per_s: f64,
    /// Sustained fraction of peak bandwidth the DMA engine achieves.
    /// LPDDR with small bursts sits near 0.85; HBM with wide bursts near
    /// 0.9 (calibration constants of the cycle model; Table IV in
    /// README.md §"Reproducing the paper" shows where they land it).
    pub dma_efficiency: f64,
    /// DSP slices available.
    pub dsp_total: u64,
    /// LUTs available.
    pub lut_total: u64,
    /// Flip-flops available.
    pub ff_total: u64,
    /// BRAM36 blocks available.
    pub bram_total: u64,
    /// URAM blocks available.
    pub uram_total: u64,
    /// Static (idle) power draw of the configured device in watts.
    pub static_power_w: f64,
}

impl Platform {
    /// Xilinx Versal VCK190: 400 MHz, 12 GB/s LPDDR (Table IV).
    pub fn vck190() -> Self {
        Platform {
            name: "VCK190".into(),
            freq_hz: 400e6,
            bandwidth_bytes_per_s: 12e9,
            dma_efficiency: 0.85,
            dsp_total: 1968,
            lut_total: 899_840,
            ff_total: 1_799_680,
            bram_total: 967,
            uram_total: 463,
            static_power_w: 1.2,
        }
    }

    /// Xilinx Alveo U280: 200 MHz design, 460 GB/s HBM (Table IV).
    pub fn u280() -> Self {
        Platform {
            name: "U280".into(),
            freq_hz: 200e6,
            bandwidth_bytes_per_s: 460e9,
            dma_efficiency: 0.90,
            dsp_total: 9024,
            lut_total: 1_304_000,
            ff_total: 2_607_000,
            bram_total: 2016,
            uram_total: 960,
            static_power_w: 2.5,
        }
    }

    /// Cycles needed to stream `bytes` from off-chip memory at sustained
    /// bandwidth, in accelerator clock cycles.
    pub fn dma_cycles(&self, bytes: f64) -> f64 {
        let sustained = self.bandwidth_bytes_per_s * self.dma_efficiency;
        bytes / sustained * self.freq_hz
    }
}

/// A GPU baseline device (decode modelled by `gpu::GpuModel`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuDevice {
    /// Human-readable name.
    pub name: String,
    /// Memory bandwidth in bytes/s.
    pub bandwidth_bytes_per_s: f64,
    /// Sustained fraction of peak bandwidth during decode GEMV.
    pub bandwidth_efficiency: f64,
    /// Peak FP16 throughput in FLOP/s.
    pub peak_fp16_flops: f64,
    /// Fixed host/launch overhead per decoded token in seconds (kernel
    /// launches across layers; dominates small models).
    pub per_token_overhead_s: f64,
    /// Average board power during decode in watts.
    pub decode_power_w: f64,
}

impl GpuDevice {
    /// NVIDIA RTX 2070: 468 GB/s, FP16 (Table IV).
    pub fn rtx2070() -> Self {
        GpuDevice {
            name: "RTX 2070".into(),
            bandwidth_bytes_per_s: 448e9,
            bandwidth_efficiency: 0.75,
            peak_fp16_flops: 15.0e12,
            per_token_overhead_s: 1.5e-3,
            decode_power_w: 175.0,
        }
    }

    /// NVIDIA RTX 4090: 1008 GB/s, FP16 (Table IV).
    pub fn rtx4090() -> Self {
        GpuDevice {
            name: "RTX 4090".into(),
            bandwidth_bytes_per_s: 1008e9,
            bandwidth_efficiency: 0.8,
            peak_fp16_flops: 82.6e12,
            per_token_overhead_s: 1.2e-3,
            decode_power_w: 285.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_parameters_match_table4() {
        let v = Platform::vck190();
        assert_eq!(v.freq_hz, 400e6);
        assert_eq!(v.bandwidth_bytes_per_s, 12e9);
        let u = Platform::u280();
        assert_eq!(u.freq_hz, 200e6);
        assert_eq!(u.bandwidth_bytes_per_s, 460e9);
        assert!(u.bandwidth_bytes_per_s > 30.0 * v.bandwidth_bytes_per_s);
    }

    #[test]
    fn dma_cycles_scale_linearly() {
        let v = Platform::vck190();
        let one_mb = v.dma_cycles(1e6);
        let two_mb = v.dma_cycles(2e6);
        assert!((two_mb / one_mb - 2.0).abs() < 1e-9);
        // 1 MB at ~10.2 GB/s sustained and 400 MHz ≈ 39k cycles.
        assert!((30_000.0..50_000.0).contains(&one_mb), "{one_mb}");
    }

    #[test]
    fn gpu_devices_are_ordered() {
        let a = GpuDevice::rtx2070();
        let b = GpuDevice::rtx4090();
        assert!(b.bandwidth_bytes_per_s > a.bandwidth_bytes_per_s);
        assert!(b.peak_fp16_flops > a.peak_fp16_flops);
        assert!(b.decode_power_w > a.decode_power_w);
    }
}
