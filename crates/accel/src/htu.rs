//! Hadamard Transform Unit model (Fig. 5d/5e).
//!
//! Two variants, matching the paper:
//!
//! * **FHT pipeline** (power-of-two factor): `log2(n)` butterfly stages,
//!   each a Butterfly Core with two FIFOs. The pipeline accepts two
//!   elements per cycle once full, so a block of `n` points streams in
//!   `n/2` cycles plus a fill latency of `n/2 + stages` cycles. Compared
//!   to an MM-based transform at equal resources this is the ~72% latency
//!   reduction the paper reports.
//! * **Matrix HTU** (non-power-of-two factor, e.g. 40-point): a tiny MMU
//!   with one operand fixed to the ±1 Hadamard matrix; ±1 "multiplies"
//!   are add/subtract, so it costs LUTs, not DSPs.

use crate::arch::HadamardImpl;

/// Cycle/resource model of the rotation hardware for a `d_inner`-wide
/// online Hadamard factored as `pot × rem`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HtuModel {
    /// Power-of-two FHT block size (e.g. 128).
    pub pot_points: usize,
    /// Matrix-HTU block size (e.g. 40; 1 disables the matrix stage).
    pub rem_points: usize,
    /// Implementation style.
    pub style: HadamardImpl,
}

impl HtuModel {
    /// Model for a `d_inner`-wide rotation with the given factorization.
    pub fn new(pot_points: usize, rem_points: usize, style: HadamardImpl) -> Self {
        HtuModel {
            pot_points,
            rem_points,
            style,
        }
    }

    /// Cycles to rotate a `d_inner`-long vector.
    pub fn transform_cycles(&self, d_inner: usize) -> u64 {
        match self.style {
            HadamardImpl::None => 0,
            HadamardImpl::Fht => {
                // Row pass: d_inner/pot blocks stream through the butterfly
                // pipeline at 2 elem/cycle; column pass through the matrix
                // stage at rem adds/cycle per output (LUT adder array wide
                // enough for one output per cycle).
                let stages = (self.pot_points.max(2) as f64).log2().ceil() as u64;
                let fht = (d_inner as u64) / 2 + self.pot_points as u64 / 2 + stages;
                let mm = if self.rem_points > 1 {
                    d_inner as u64
                } else {
                    0
                };
                fht + mm
            }
            HadamardImpl::MatrixMultiply => {
                // Dense transform per (pot·rem)-point block on the tiny
                // matrix MMU, which is only `rem` add/sub lanes wide (it
                // is the 40-point HTU of Fig. 5e pressed into service for
                // the whole transform) — each block needs block²/rem
                // cycles. This is the slow variant the Fig. 10
                // "+Rotation Quant" row measures.
                let block = (self.pot_points * self.rem_points.max(1)) as u64;
                let blocks = (d_inner as u64).div_ceil(block);
                let lanes = self.rem_points.max(8) as u64;
                blocks * block * block / lanes
            }
        }
    }

    /// DSP cost: zero — butterflies and ±1 matrix lanes are add/subtract.
    pub fn dsp_count(&self) -> u64 {
        0
    }

    /// LUT cost: butterfly adders per stage plus the ±1 adder array.
    pub fn lut_count(&self) -> u64 {
        match self.style {
            HadamardImpl::None => 0,
            HadamardImpl::Fht => {
                let stages = (self.pot_points.max(2) as f64).log2().ceil() as u64;
                // One 16-bit add/sub pair (~64 LUT) per stage + FIFO glue,
                // plus rem_points add/sub lanes for the matrix stage.
                stages * 150 + self.rem_points as u64 * 64
            }
            HadamardImpl::MatrixMultiply => self.rem_points.max(8) as u64 * 64,
        }
    }

    /// BRAM cost of the stage FIFOs (two per butterfly stage).
    pub fn bram_count(&self) -> u64 {
        match self.style {
            HadamardImpl::None => 0,
            HadamardImpl::Fht => {
                let stages = (self.pot_points.max(2) as f64).log2().ceil() as u64;
                2 * stages
            }
            HadamardImpl::MatrixMultiply => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fht_beats_matrix_multiply_by_a_wide_margin() {
        // The paper reports 72% latency reduction at equal resources
        // (Mamba2-2.7B: 128-point FHT × 40-point matrix stage).
        let fht = HtuModel::new(128, 40, HadamardImpl::Fht);
        let mm = HtuModel::new(128, 40, HadamardImpl::MatrixMultiply);
        let d_inner = 5120;
        let f = fht.transform_cycles(d_inner) as f64;
        let m = mm.transform_cycles(d_inner) as f64;
        let reduction = 1.0 - f / m;
        assert!(
            reduction > 0.6,
            "fht should cut latency by >60%, got {reduction:.2}"
        );
    }

    #[test]
    fn none_style_is_free() {
        let h = HtuModel::new(128, 40, HadamardImpl::None);
        assert_eq!(h.transform_cycles(5120), 0);
        assert_eq!(h.lut_count(), 0);
        assert_eq!(h.bram_count(), 0);
    }

    #[test]
    fn fht_cycles_scale_with_width() {
        let h = HtuModel::new(128, 1, HadamardImpl::Fht);
        let small = h.transform_cycles(128);
        let big = h.transform_cycles(1280);
        assert!(big > small);
        // Streaming: throughput-dominated term is d_inner/2.
        assert!(big < 10 * small);
    }

    #[test]
    fn seven_stages_for_128_points() {
        let h = HtuModel::new(128, 40, HadamardImpl::Fht);
        // Fill latency includes 7 stages; FIFO count is 2 per stage.
        assert_eq!(h.bram_count(), 14);
    }

    #[test]
    fn htu_uses_no_dsp() {
        for style in [HadamardImpl::Fht, HadamardImpl::MatrixMultiply] {
            assert_eq!(HtuModel::new(128, 40, style).dsp_count(), 0);
        }
    }
}
