//! Power-of-two (PoT) scale arithmetic (paper Sec. IV-B).
//!
//! Element-wise multiplications dominate the SSM layer, and unlike matrix
//! multiplications they have *no reduction* to amortize re-quantization
//! over: every output element needs its own rescale
//! `q_out = q_a · q_b · (s_a·s_b/s_out)`. With arbitrary scales that factor
//! is a floating-point multiply per element (a DSP on the FPGA, Fig. 3);
//! with scales constrained to `2^k` it collapses to an arithmetic shift by
//! `k_a + k_b − k_out` (LUTs only). This module provides the PoT scale
//! rounding and the integer shift-based re-quantization the SSMU model
//! charges for.

/// Whether `s` is an exact (positive) power of two.
pub fn is_pot(s: f32) -> bool {
    s > 0.0 && s.is_finite() && s.log2().fract() == 0.0
}

/// Rounds a positive scale *up* to the next power of two (conservative:
/// never clips harder than the unconstrained scale would).
///
/// Returns 1.0 for non-positive input, matching the quantizer's degenerate
/// all-zero block behaviour.
pub fn round_scale_up(s: f32) -> f32 {
    if s <= 0.0 || !s.is_finite() {
        return 1.0;
    }
    // Straight from the bits: `log2` rounds the exponent of a float just
    // above `2^k` down to `k`, and `2f32.powi(k)` is `1 / 2^-k`, which
    // is 0 once `2^-k` overflows (k ≤ −128). A subnormal power of two is
    // a single mantissa bit; a normal one has an empty mantissa.
    let bits = s.to_bits();
    let up = if bits <= MANTISSA {
        bits.next_power_of_two()
    } else if bits & MANTISSA == 0 {
        bits
    } else {
        ((bits >> 23) + 1) << 23
    };
    // Above 2¹²⁷ the next power of two is not a finite f32.
    f32::from_bits(up.min(MAX_POT_BITS))
}

/// The mantissa field of an f32.
const MANTISSA: u32 = (1 << 23) - 1;

/// Bits of 2¹²⁷, the largest finite power of two.
const MAX_POT_BITS: u32 = 254 << 23;

/// The exponent `k` of a PoT scale `s = 2^k`.
///
/// # Panics
///
/// Panics when `s` is not an exact power of two.
pub fn exponent(s: f32) -> i32 {
    assert!(is_pot(s), "scale {s} is not a power of two");
    s.log2() as i32
}

/// Shift amount for re-quantizing an element-wise product: inputs at
/// scales `2^ka`, `2^kb`, output at `2^kout`. Positive means left shift.
pub fn requant_shift(ka: i32, kb: i32, kout: i32) -> i32 {
    ka + kb - kout
}

/// Applies a shift-based re-quantization to an integer product, with
/// symmetric rounding on right shifts and saturation to `[-qmax, qmax]`.
///
/// This is bit-exact with what the FPGA shifter produces, so tests can
/// assert that PoT re-quantization equals the float path within one LSB.
pub fn shift_requantize(product: i64, shift: i32, qmax: i32) -> i32 {
    let shifted = if shift >= 0 {
        product.saturating_mul(1i64 << shift.min(62))
    } else {
        let s = (-shift).min(62);
        // Round-half-away-from-zero before truncating.
        let bias = 1i64 << (s - 1);
        if product >= 0 {
            (product + bias) >> s
        } else {
            -((-product + bias) >> s)
        }
    };
    shifted.clamp(-(qmax as i64), qmax as i64) as i32
}

/// Full PoT element-wise multiply: integer codes `qa`, `qb` at exponents
/// `ka`, `kb`, re-quantized to exponent `kout`.
pub fn pot_elementwise_mul(qa: i32, qb: i32, ka: i32, kb: i32, kout: i32, qmax: i32) -> i32 {
    let product = qa as i64 * qb as i64;
    shift_requantize(product, requant_shift(ka, kb, kout), qmax)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pot_detection() {
        assert!(is_pot(1.0));
        assert!(is_pot(0.25));
        assert!(is_pot(1024.0));
        assert!(!is_pot(3.0));
        assert!(!is_pot(0.0));
        assert!(!is_pot(-2.0));
        assert!(!is_pot(f32::INFINITY));
    }

    #[test]
    fn round_up_is_conservative() {
        assert_eq!(round_scale_up(0.3), 0.5);
        assert_eq!(round_scale_up(0.5), 0.5);
        assert_eq!(round_scale_up(0.6), 1.0);
        assert_eq!(round_scale_up(5.0), 8.0);
        assert_eq!(round_scale_up(0.0), 1.0);
        assert_eq!(round_scale_up(-1.0), 1.0);
        // Never smaller than the input: quantization never clips harder.
        for &s in &[0.001f32, 0.7, 1.3, 100.0] {
            assert!(round_scale_up(s) >= s);
            assert!(round_scale_up(s) < 2.0 * s);
        }
        // Every power of two, subnormal ones included, and the floats on
        // both sides of each: a power of two at least `s` and below `2s`
        // (2¹²⁷ is the largest there is, so above it the result is `≤ s`).
        let is_exact_pot = |r: f32| {
            let b = r.to_bits();
            let pot_bits = if b <= MANTISSA {
                b.is_power_of_two()
            } else {
                b & MANTISSA == 0
            };
            r > 0.0 && r.is_finite() && pot_bits
        };
        for k in -149..=127 {
            let p = f32::from_bits(if k < -126 {
                1 << (k + 149)
            } else {
                ((k + 127) as u32) << 23
            });
            let b = p.to_bits();
            for s in [b - 1, b, b + 1]
                .map(f32::from_bits)
                .into_iter()
                .filter(|&s| s > 0.0)
            {
                let r = round_scale_up(s);
                assert!(is_exact_pot(r), "{s:e} -> {r:e} is not a power of two");
                if k == 127 && s > p {
                    assert_eq!(r, p, "{s:e}");
                } else {
                    assert!(r >= s && r < 2.0 * s, "{s:e} -> {r:e}");
                }
                assert_eq!(2f64.powi(exponent(r)), r as f64, "{s:e}");
            }
        }
        assert_eq!(round_scale_up(f32::MAX), f32::from_bits(MAX_POT_BITS));
    }

    #[test]
    fn exponent_extraction() {
        assert_eq!(exponent(1.0), 0);
        assert_eq!(exponent(0.25), -2);
        assert_eq!(exponent(8.0), 3);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn exponent_rejects_non_pot() {
        exponent(3.0);
    }

    #[test]
    fn shift_requant_matches_float_path() {
        // q_a·2^ka × q_b·2^kb requantized to 2^kout must equal the float
        // computation within one output LSB.
        let (ka, kb, kout) = (-6, -4, -7);
        let qmax = 127;
        for qa in [-100i32, -3, 0, 5, 127] {
            for qb in [-127i32, -10, 0, 7, 99] {
                let float_val = (qa as f32 * 2f32.powi(ka)) * (qb as f32 * 2f32.powi(kb));
                let q = pot_elementwise_mul(qa, qb, ka, kb, kout, qmax);
                let reconstructed = q as f32 * 2f32.powi(kout);
                let lsb = 2f32.powi(kout);
                let clipped = float_val.clamp(-(qmax as f32) * lsb, qmax as f32 * lsb);
                assert!(
                    (reconstructed - clipped).abs() <= lsb,
                    "qa={qa} qb={qb}: {reconstructed} vs {clipped}"
                );
            }
        }
    }

    #[test]
    fn shift_requant_saturates() {
        assert_eq!(shift_requantize(1_000_000, 0, 127), 127);
        assert_eq!(shift_requantize(-1_000_000, 0, 127), -127);
    }

    #[test]
    fn rounding_is_symmetric() {
        // +3 and -3 shifted right by 1 must round away from zero equally.
        assert_eq!(shift_requantize(3, -1, 127), 2);
        assert_eq!(shift_requantize(-3, -1, 127), -2);
        assert_eq!(shift_requantize(1, -1, 127), 1);
        assert_eq!(shift_requantize(-1, -1, 127), -1);
    }

    #[test]
    fn left_shift_path() {
        assert_eq!(shift_requantize(3, 2, 127), 12);
        assert_eq!(requant_shift(-4, -4, -10), 2);
    }
}
