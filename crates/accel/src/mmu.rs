//! Matrix Multiplication Unit model (Fig. 5b).
//!
//! The MMU is a tree of multiply–accumulators consuming a `d_in`-wide
//! input vector across `d_out` lanes: `d_in × d_out` MACs per cycle,
//! implemented in `d_in × d_out / macs_per_dsp` DSP48s via the DSP-packing
//! technique (two INT8/INT4 MACs share one DSP). Decode-time linear layers
//! are matrix–vector products, so a `(K → N)` projection takes
//! `ceil(K/d_in) · ceil(N/d_out)` cycles.

use crate::arch::HwPrecision;

/// Cycle and resource model of one MMU instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmuModel {
    /// Input-vector width consumed per cycle.
    pub din: usize,
    /// Output lanes computed in parallel.
    pub dout: usize,
    /// Datapath precision.
    pub precision: HwPrecision,
}

impl MmuModel {
    /// Creates the model.
    pub fn new(din: usize, dout: usize, precision: HwPrecision) -> Self {
        MmuModel {
            din,
            dout,
            precision,
        }
    }

    /// Cycles for a `(K → N)` matrix–vector product (decode step of a
    /// linear layer with `K` inputs and `N` outputs).
    pub fn matvec_cycles(&self, k: usize, n: usize) -> u64 {
        (k.div_ceil(self.din) as u64) * (n.div_ceil(self.dout) as u64)
    }

    /// DSP48 count: `din·dout / macs_per_dsp`.
    pub fn dsp_count(&self) -> u64 {
        let macs = (self.din * self.dout) as f64;
        (macs / self.precision.macs_per_dsp()).ceil() as u64
    }

    /// LUT estimate: the adder tree plus input muxing. Calibrated at 30
    /// LUT/MAC lane for the low-precision tree of Fig. 5b.
    pub fn lut_count(&self) -> u64 {
        (self.din * self.dout * 30) as u64
    }

    /// FF estimate: pipeline registers across the tree (~1.25× LUT).
    pub fn ff_count(&self) -> u64 {
        self.lut_count() * 5 / 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_cycles_closed_form() {
        let m = MmuModel::new(8, 16, HwPrecision::W4A4);
        // K=2560, N=10576: ceil(2560/8)=320, ceil(10576/16)=661.
        assert_eq!(m.matvec_cycles(2560, 10576), 320 * 661);
        // Non-divisible K rounds up.
        assert_eq!(m.matvec_cycles(9, 16), 2);
    }

    #[test]
    fn column_range_work() {
        // A column split of one product costs exactly the whole.
        let m = MmuModel::new(8, 16, HwPrecision::W4A4);
        assert_eq!(m.matvec_cycles(64, 16), 8);
        assert_eq!(m.matvec_cycles(64, 0), 0);
        assert_eq!(2 * m.matvec_cycles(64, 16), m.matvec_cycles(64, 32));
    }

    #[test]
    fn dsp_packing_halves_low_precision() {
        let int4 = MmuModel::new(16, 16, HwPrecision::W4A4);
        let fp16 = MmuModel::new(16, 16, HwPrecision::Fp16);
        assert_eq!(int4.dsp_count(), 128); // 256 MACs / 2 per DSP
        assert_eq!(fp16.dsp_count(), 512); // 256 MACs × 2 DSPs each
    }

    #[test]
    fn bigger_mmu_is_faster_but_costlier() {
        let small = MmuModel::new(8, 8, HwPrecision::W4A4);
        let big = MmuModel::new(32, 32, HwPrecision::W4A4);
        assert!(big.matvec_cycles(2560, 2560) < small.matvec_cycles(2560, 2560));
        assert!(big.dsp_count() > small.dsp_count());
        assert!(big.lut_count() > small.lut_count());
        assert!(big.ff_count() > big.lut_count());
    }
}
