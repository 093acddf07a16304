//! Element-wise Multiplication Unit model (the EMUs of Fig. 5c).
//!
//! An EMU multiplies two streams lane-by-lane. The multiply itself is one
//! DSP per lane; the cost difference the paper highlights (Fig. 3) is in
//! **re-quantization**: bringing the wide product back to INT8 needs a
//! per-element scale multiply (another DSP plus control LUTs) under
//! arbitrary scales, but only an arithmetic shifter (LUTs, no DSP) under
//! PoT scales. Element-wise ops have no reduction to amortize this over,
//! which is why the paper's Fig. 3 shows re-quantization dominating.

/// The seven element-wise operators of the SSM dataflow (Fig. 3's x-axis
/// plus the exp/softplus special functions kept in LUT form).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SsmOp {
    /// `Δ ⊙ A` (per-head decay pre-product).
    DeltaA,
    /// `Δ ⊙ B` (input-matrix scaling).
    DeltaB,
    /// `B̄ ⊙ x` (state injection).
    BX,
    /// `Ā ⊙ h_{t−1}` (state decay).
    AH,
    /// `h_t ⊙ C` (state readout, feeds the accumulator).
    HC,
    /// `x ⊙ D` (skip connection).
    XD,
    /// `y ⊙ silu(z)` (output gate).
    YZ,
}

impl SsmOp {
    /// All operators in dataflow order.
    pub const ALL: [SsmOp; 7] = [
        SsmOp::DeltaA,
        SsmOp::DeltaB,
        SsmOp::BX,
        SsmOp::AH,
        SsmOp::HC,
        SsmOp::XD,
        SsmOp::YZ,
    ];

    /// Display label matching Fig. 3.
    pub fn label(self) -> &'static str {
        match self {
            SsmOp::DeltaA => "Δ⊙A",
            SsmOp::DeltaB => "Δ⊙B",
            SsmOp::BX => "B̄⊙x",
            SsmOp::AH => "Ā⊙h(t-1)",
            SsmOp::HC => "h⊙C",
            SsmOp::XD => "x⊙D",
            SsmOp::YZ => "y⊙z",
        }
    }
}

/// Resource cost of one EMU lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmuLaneCost {
    /// DSP48s per lane.
    pub dsp: u64,
    /// LUTs per lane.
    pub lut: u64,
    /// FFs per lane.
    pub ff: u64,
}

/// Cost of one EMU lane: multiply (1 DSP) plus re-quantization.
///
/// * non-PoT: scale multiply costs a second DSP and ~220 LUTs of rounding
///   and saturation control;
/// * PoT: a barrel shifter at ~70 LUTs, no DSP.
///
/// Constants are calibrated so a full SSMU at 8 lanes/op lands in the
/// Fig. 3 regime (tens of DSPs and ~20k LUTs difference between schemes).
pub fn lane_cost(pot_requant: bool) -> EmuLaneCost {
    if pot_requant {
        EmuLaneCost {
            dsp: 1,
            lut: 70 + 90,
            ff: 180,
        }
    } else {
        EmuLaneCost {
            dsp: 2,
            lut: 220 + 90,
            ff: 260,
        }
    }
}

/// Cycles for an EMU with `lanes` lanes to process `elements` elements.
pub fn emu_cycles(elements: usize, lanes: usize) -> u64 {
    elements.div_ceil(lanes.max(1)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pot_removes_requant_dsp() {
        let pot = lane_cost(true);
        let non = lane_cost(false);
        assert_eq!(pot.dsp, 1);
        assert_eq!(non.dsp, 2);
        assert!(pot.lut < non.lut);
        assert!(pot.ff < non.ff);
    }

    #[test]
    fn cycles_round_up() {
        assert_eq!(emu_cycles(8192, 8), 1024);
        assert_eq!(emu_cycles(10, 8), 2);
        assert_eq!(emu_cycles(0, 8), 0);
        assert_eq!(emu_cycles(5, 0), 5);
    }

    #[test]
    fn all_ops_have_labels() {
        for op in SsmOp::ALL {
            assert!(!op.label().is_empty());
        }
        assert_eq!(SsmOp::ALL.len(), 7);
    }
}
