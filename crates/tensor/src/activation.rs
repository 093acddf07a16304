//! Activation functions used by Mamba2.
//!
//! The SSM layer (paper Fig. 1) uses `SiLU` on the conv output and on the
//! gate `z`, `Softplus` on the timestep `Δ`, and `exp` for the state decay
//! `Ā = exp(Δ·A)`. Each is a scalar function plus, where a decode step
//! applies it to a whole row, a slice helper, shared by the FP32 reference
//! and the quantized paths.
//!
//! [`sigmoid`] and [`silu`] run on this module's [`exp`]: branch-free
//! straight-line code of IEEE basic operations (separate `mul` and `add`,
//! no fused multiply-add, no reassociation), so LLVM vectorises
//! [`silu_slice`] and the gate loops of [`crate::norm`] on baseline
//! x86-64 while every lane gets the scalar function's bits. [`softplus`]
//! and the SSM decay keep the standard library's `exp`: they run once per
//! head, and `softplus` also draws the synthetic models' timestep biases.
//! So do [`softmax`] and [`log_softmax`], which the sampler and the
//! evaluation call once per token.

/// Smallest input [`exp`] evaluates: `ln(f32::MIN_POSITIVE)` rounded up,
/// so every result from here up is a normal `f32`.
pub const EXP_LO: f32 = -87.336_54;

/// Largest input [`exp`] evaluates: the largest `f32` whose exponent
/// `round(x·log₂e)` is 127, so `2ⁿ` still fits the exponent field.
pub const EXP_HI: f32 = 88.376_26;

/// `1.5·2²³`: an `f32` at this magnitude has no fraction bits, so adding
/// it rounds to the nearest integer and leaves that integer in the low
/// mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// `ln 2` split for the range reduction (Cody–Waite): `LN2_HI` has nine
/// significant bits, so `n·LN2_HI` is exact for every `|n| ≤ 127`.
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;

/// Cephes `expf` coefficients, highest degree first:
/// `e^r ≈ 1 + r + r²·P(r)` on `|r| ≤ ln2 / 2`.
const EXP_P: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    0.166_666_66,
    0.5,
];

/// `e^x`, branch-free, within 1 ulp of [`f32::exp`] on
/// [`EXP_LO`]`..=`[`EXP_HI`].
///
/// The input is clamped to that range, `n = round(x·log₂e)` comes from
/// the magic-number add, `r = x − n·ln2` from a two-step reduction, `e^r`
/// from a fixed degree-5 polynomial evaluated with separate `mul` / `add`,
/// and `2ⁿ` from the exponent bits. Outside the range and at the limits:
///
/// | `x` | result |
/// |---|---|
/// | `±0.0` | `1.0` |
/// | below [`EXP_LO`], `−∞` | `+0.0` (`f32::exp` is subnormal down to −103.97) |
/// | above [`EXP_HI`], `+∞` | `+∞` (`f32::exp` overflows from 88.722 on) |
/// | NaN | NaN |
///
/// # Example
///
/// ```
/// use lightmamba_tensor::activation::exp;
/// assert_eq!(exp(0.0), 1.0);
/// assert_eq!(exp(f32::NEG_INFINITY), 0.0);
/// assert!((exp(1.0) - std::f32::consts::E).abs() <= f32::EPSILON * 3.0);
/// ```
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    let xc = x.clamp(EXP_LO, EXP_HI);
    let t = xc * std::f32::consts::LOG2_E + ROUND_MAGIC;
    let n = t - ROUND_MAGIC;
    let r = xc - n * LN2_HI - n * LN2_LO;
    let [p0, p1, p2, p3, p4, p5] = EXP_P;
    let p = ((((p0 * r + p1) * r + p2) * r + p3) * r + p4) * r + p5;
    let y = p * (r * r) + r + 1.0;
    // `t`'s bits are `0x4B40_0000 + n`; the shift keeps the low nine bits
    // of `n + 127`, which for `n ∈ [−126, 127]` are the biased exponent
    // and a clear sign bit.
    let two_n = f32::from_bits((t.to_bits() + 127) << 23);
    let e = y * two_n;
    if x < EXP_LO {
        0.0
    } else if x > EXP_HI {
        f32::INFINITY
    } else {
        e
    }
}

/// Logistic sigmoid `1 / (1 + e^(-x))` on [`exp`]: `+0.0` below
/// `−`[`EXP_HI`] (so at `−∞`), `1.0` from about 17 up (so at `+∞`), NaN
/// for NaN.
///
/// # Example
///
/// ```
/// let y = lightmamba_tensor::activation::sigmoid(0.0);
/// assert!((y - 0.5).abs() < 1e-6);
/// ```
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// SiLU (a.k.a. swish): `x * sigmoid(x)` — the `σ` gate of the Mamba block.
///
/// `silu(±0.0) = ±0.0` and `silu(+∞) = +∞`. Below `−`[`EXP_HI`] the
/// sigmoid is exactly `+0.0` and the result is `−0.0`, which is also
/// `silu(−∞)` (not `−∞·0 = NaN`). NaN maps to NaN.
#[inline(always)]
pub fn silu(x: f32) -> f32 {
    if x < -EXP_HI {
        -0.0
    } else {
        x * sigmoid(x)
    }
}

/// Softplus `ln(1 + e^x)`, numerically stable for large `|x|`.
///
/// Applied to the timestep projection `Δ` before the SSM recurrence.
pub fn softplus(x: f32) -> f32 {
    if x > 20.0 {
        // e^-x underflows the addend; softplus(x) = x + ln(1+e^-x) ≈ x.
        x
    } else if x < -20.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Applies [`silu`] to every element of a slice in place.
#[inline(always)]
pub fn silu_slice(xs: &mut [f32]) {
    for x in xs {
        *x = silu(*x);
    }
}

/// Numerically stable softmax over a slice, returning a new vector.
///
/// Used by the LM-head evaluation to turn logits into next-token
/// distributions for the KL-based perplexity proxy.
pub fn softmax(xs: &[f32]) -> Vec<f32> {
    if xs.is_empty() {
        return Vec::new();
    }
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = xs.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Log-softmax over a slice, returning a new vector.
pub fn log_softmax(xs: &[f32]) -> Vec<f32> {
    if xs.is_empty() {
        return Vec::new();
    }
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = xs.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
    xs.iter().map(|&x| x - max - log_sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stated accuracy of [`exp`] on `EXP_LO..=EXP_HI`, in ulps of
    /// `f32::exp`'s result.
    const EXP_MAX_ULPS: u32 = 1;

    /// Largest distance from `f32::exp`, in ulps, over every `step`-th
    /// `f32` of `EXP_LO..=EXP_HI` (both edges included). All results
    /// there are positive, so ulps are differences of bit patterns.
    fn exp_max_ulps(step: usize) -> u32 {
        // Positive and negative halves on two threads, each in batches
        // so the `exp` loop vectorises as it does in use.
        let half = |bits: std::ops::RangeInclusive<u32>| {
            let edge = *bits.end();
            let mut bits = bits.step_by(step).chain([edge]);
            let (mut xs, mut ys) = (vec![0.0f32; 4096], vec![0.0f32; 4096]);
            let mut worst = 0;
            loop {
                let n = xs
                    .iter_mut()
                    .zip(&mut bits)
                    .map(|(x, b)| *x = f32::from_bits(b))
                    .count();
                if n == 0 {
                    return worst;
                }
                for (y, x) in ys.iter_mut().zip(&xs[..n]) {
                    *y = exp(*x);
                }
                for (x, y) in xs[..n].iter().zip(&ys) {
                    worst = worst.max(y.to_bits().abs_diff(x.exp().to_bits()));
                }
            }
        };
        std::thread::scope(|s| {
            let negative = s.spawn(|| half((-0.0f32).to_bits()..=EXP_LO.to_bits()));
            let positive = half(0..=EXP_HI.to_bits());
            positive.max(negative.join().expect("the sweep does not panic"))
        })
    }

    #[test]
    fn exp_is_within_its_ulp_bound_on_a_dense_sweep() {
        // Every 4093rd f32 (≈ 550k points, tiny magnitudes included).
        let worst = exp_max_ulps(4093);
        assert!(worst <= EXP_MAX_ULPS, "{worst} ulps");
    }

    /// Every `f32` of `EXP_LO..=EXP_HI` (≈ 2.2 billion): too slow for a
    /// debug build, ≈ 16 s in release on two cores.
    #[cfg(not(debug_assertions))]
    #[test]
    fn exp_is_within_its_ulp_bound_on_every_f32_of_its_range() {
        let worst = exp_max_ulps(1);
        assert!(worst <= EXP_MAX_ULPS, "{worst} ulps");
    }

    #[test]
    fn exp_limits_and_clamp_edges() {
        // The next f32 away from zero.
        let beyond = |x: f32| f32::from_bits(x.to_bits() + 1);
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        assert!(exp(f32::NAN).is_nan());
        assert!(exp(EXP_LO).is_normal());
        assert_eq!(exp(beyond(EXP_LO)).to_bits(), 0.0f32.to_bits());
        assert!(exp(EXP_HI).is_finite());
        assert_eq!(exp(beyond(EXP_HI)), f32::INFINITY);
        assert_eq!(exp(f32::MAX), f32::INFINITY);
        assert_eq!(exp(f32::MIN).to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn sigmoid_and_silu_limits() {
        let beyond = f32::from_bits((-EXP_HI).to_bits() + 1);
        assert_eq!(sigmoid(f32::INFINITY), 1.0);
        assert_eq!(sigmoid(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        assert!(sigmoid(f32::NAN).is_nan());
        assert_eq!(silu(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(silu(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(silu(f32::INFINITY), f32::INFINITY);
        assert_eq!(silu(f32::NEG_INFINITY).to_bits(), (-0.0f32).to_bits());
        assert_eq!(silu(beyond).to_bits(), (-0.0f32).to_bits());
        assert!(silu(-EXP_HI) < 0.0);
        assert!(silu(f32::NAN).is_nan());
    }

    #[test]
    fn silu_slice_is_elementwise_silu_bit_for_bit() {
        // Odd length, so a vectorised body and its scalar tail both run.
        let mut xs: Vec<f32> = (0..2000).map(|i| (i as f32 - 1000.0) * 0.097).collect();
        xs.extend([
            0.0,
            -0.0,
            EXP_LO,
            EXP_HI,
            -EXP_HI,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
        ]);
        let mut got = xs.clone();
        silu_slice(&mut got);
        for (x, y) in xs.iter().zip(&got) {
            assert_eq!(y.to_bits(), silu(*x).to_bits(), "silu({x})");
        }
    }

    #[test]
    fn sigmoid_symmetry_and_range() {
        for &x in &[-10.0f32, -1.0, 0.0, 1.0, 10.0] {
            let s = sigmoid(x);
            assert!((0.0..=1.0).contains(&s));
            assert!((s + sigmoid(-x) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn sigmoid_stable_for_extremes() {
        assert!(sigmoid(-100.0).is_finite());
        assert!(sigmoid(100.0).is_finite());
        assert!(sigmoid(-100.0) < 1e-20);
        assert!((sigmoid(100.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn silu_known_values() {
        assert_eq!(silu(0.0), 0.0);
        assert!((silu(1.0) - 0.731_058_6).abs() < 1e-5);
        // SiLU is bounded below by roughly -0.2785.
        assert!(silu(-1.278_46) > -0.3);
    }

    #[test]
    fn softplus_known_values_and_stability() {
        assert!((softplus(0.0) - std::f32::consts::LN_2).abs() < 1e-6);
        assert!((softplus(50.0) - 50.0).abs() < 1e-4);
        assert!(softplus(-50.0) >= 0.0);
        assert!(softplus(-50.0) < 1e-20);
    }

    #[test]
    fn softplus_is_monotone() {
        let mut prev = softplus(-30.0);
        let mut x = -30.0f32;
        while x < 30.0 {
            x += 0.5;
            let y = softplus(x);
            assert!(y >= prev);
            prev = y;
        }
    }

    #[test]
    fn slice_helpers_apply_elementwise() {
        let mut xs = [0.0f32, 1.0];
        silu_slice(&mut xs);
        assert_eq!(xs[0], 0.0);
        assert!((xs[1] - silu(1.0)).abs() < 1e-7);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_invariant_to_shift() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[1001.0, 1002.0, 1003.0]);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let xs = [0.3f32, -1.2, 2.0, 0.0];
        let p = softmax(&xs);
        let lp = log_softmax(&xs);
        for (pi, lpi) in p.iter().zip(lp.iter()) {
            assert!((pi.ln() - lpi).abs() < 1e-5);
        }
    }

    #[test]
    fn empty_slices_are_fine() {
        assert!(softmax(&[]).is_empty());
        assert!(log_softmax(&[]).is_empty());
    }
}
