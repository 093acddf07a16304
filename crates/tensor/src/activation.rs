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
//!
//! On an AVX-512 host the fused conv step runs an explicit 16-lane form
//! of [`silu`] with the same bits ([`crate::isa`]).

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
/// `silu(−∞)` (not `−∞·0 = NaN`). A NaN is returned as it came, through a
/// select: the product of two NaNs would keep whichever operand the
/// compiled code happens to put first, so its sign could differ between
/// compilations.
#[inline(always)]
pub fn silu(x: f32) -> f32 {
    if x.is_nan() {
        x
    } else if x < -EXP_HI {
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

/// The SiLU gate of the gated norm: `x_i *= silu(z_i)`, in place.
///
/// # Panics
///
/// Panics when `xs.len() != z.len()`.
#[inline(always)]
pub fn silu_gate(xs: &mut [f32], z: &[f32]) {
    assert_eq!(xs.len(), z.len(), "silu gate length mismatch");
    for (x, &zi) in xs.iter_mut().zip(z) {
        *x *= silu(zi);
    }
}

/// The 16-lane forms of [`exp`], [`sigmoid`] and [`silu`]: each lane
/// sees the scalar function's operations in its order — the clamp that
/// lets NaN through, the magic-number round, the two-step reduction,
/// Horner with separate `mul` / `add`, the `2ⁿ` bits, the edge selects
/// and a true division — so every lane gets the scalar bits.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512 {
    use std::arch::x86_64::*;

    use super::{EXP_HI, EXP_LO, EXP_P, LN2_HI, LN2_LO, ROUND_MAGIC};

    /// [`super::exp`] on 16 lanes. `max(lo, x)` and `min(hi, ·)` return
    /// their second operand when either is NaN, so NaN passes the clamp
    /// as it does `f32::clamp`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(crate) fn exp(x: __m512) -> __m512 {
        let (lo, hi) = (_mm512_set1_ps(EXP_LO), _mm512_set1_ps(EXP_HI));
        let xc = _mm512_min_ps(hi, _mm512_max_ps(lo, x));
        let magic = _mm512_set1_ps(ROUND_MAGIC);
        let t = _mm512_add_ps(
            _mm512_mul_ps(xc, _mm512_set1_ps(std::f32::consts::LOG2_E)),
            magic,
        );
        let n = _mm512_sub_ps(t, magic);
        let r = _mm512_sub_ps(
            _mm512_sub_ps(xc, _mm512_mul_ps(n, _mm512_set1_ps(LN2_HI))),
            _mm512_mul_ps(n, _mm512_set1_ps(LN2_LO)),
        );
        let mut p = _mm512_set1_ps(EXP_P[0]);
        for &c in &EXP_P[1..] {
            p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(c));
        }
        let y = _mm512_add_ps(
            _mm512_add_ps(_mm512_mul_ps(p, _mm512_mul_ps(r, r)), r),
            _mm512_set1_ps(1.0),
        );
        let two_n = _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_add_epi32(
            _mm512_castps_si512(t),
            _mm512_set1_epi32(127),
        )));
        let e = _mm512_mul_ps(y, two_n);
        let below = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(x, lo);
        let above = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(x, hi);
        let e = _mm512_mask_mov_ps(e, below, _mm512_setzero_ps());
        _mm512_mask_mov_ps(e, above, _mm512_set1_ps(f32::INFINITY))
    }

    /// [`super::sigmoid`] on 16 lanes: `−x` flips the sign bit, as the
    /// scalar negation does.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(crate) fn sigmoid(x: __m512) -> __m512 {
        let neg = _mm512_castsi512_ps(_mm512_xor_si512(
            _mm512_castps_si512(x),
            _mm512_set1_epi32(i32::MIN),
        ));
        let one = _mm512_set1_ps(1.0);
        _mm512_div_ps(one, _mm512_add_ps(one, exp(neg)))
    }

    /// [`super::silu`] on 16 lanes, a NaN lane selected back unchanged.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(crate) fn silu(x: __m512) -> __m512 {
        let y = _mm512_mul_ps(x, sigmoid(x));
        let under = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(x, _mm512_set1_ps(-EXP_HI));
        let y = _mm512_mask_mov_ps(y, under, _mm512_set1_ps(-0.0));
        _mm512_mask_mov_ps(y, _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(x, x), x)
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
pub(crate) mod tests {
    use super::*;
    use crate::isa::Isa;

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

    /// Lengths whose strips of 16 and tails split differently.
    pub(crate) const LENGTHS: [usize; 14] =
        [1, 7, 15, 16, 17, 31, 33, 127, 128, 129, 256, 512, 768, 0];

    /// `n` values: every fourth an edge case (signed zeros, infinities,
    /// NaN, subnormals, the `exp` limits and the floats beside them),
    /// the rest a seeded spread over ±24.
    pub(crate) fn edge_values(n: usize, seed: u32) -> Vec<f32> {
        let beside = |x: f32| {
            [
                f32::from_bits(x.to_bits() - 1),
                x,
                f32::from_bits(x.to_bits() + 1),
            ]
        };
        let edges: Vec<f32> = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ]
        .into_iter()
        .chain([
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE / 3.0,
        ])
        .chain(
            [EXP_LO, EXP_HI, -EXP_LO, -EXP_HI]
                .into_iter()
                .flat_map(beside),
        )
        .chain([f32::MAX, f32::MIN, 1e30, -1e30, 0.5, -0.5])
        .collect();
        let mut h = seed.wrapping_mul(0x9E37_79B9) | 1;
        (0..n)
            .map(|i| {
                h ^= h << 13;
                h ^= h >> 17;
                h ^= h << 5;
                if i % 4 == 0 {
                    edges[(i / 4 + seed as usize) % edges.len()]
                } else {
                    (h >> 8) as f32 / (1u32 << 24) as f32 * 48.0 - 24.0
                }
            })
            .collect()
    }

    /// Whether two runs agree bit for bit, but for NaN payloads: where
    /// both operands of an operation are NaN, x86 keeps the first, and
    /// the compiler may commute a multiply or an add in one compilation
    /// of the scalar source and not in another.
    pub(crate) fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || x.is_nan() && y.is_nan())
    }

    /// [`silu`] on every element through `isa`'s form: the 16-lane one
    /// on an AVX-512 tier, the scalar function otherwise.
    fn silu_on(isa: Isa, xs: &[f32]) -> Vec<f32> {
        match isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 { .. } => xs
                .chunks(16)
                .flat_map(|c| {
                    let mut lanes = [0.0f32; 16];
                    lanes[..c.len()].copy_from_slice(c);
                    // SAFETY: `Isa::tiers` yields `Avx512` only where
                    // `detect` verified AVX512F; the 16 lanes lie in `lanes`.
                    unsafe {
                        use std::arch::x86_64::{_mm512_loadu_ps, _mm512_storeu_ps};
                        let y = avx512::silu(_mm512_loadu_ps(lanes.as_ptr()));
                        _mm512_storeu_ps(lanes.as_mut_ptr(), y);
                    }
                    lanes[..c.len()].to_vec()
                })
                .collect(),
            _ => xs.iter().map(|&x| silu(x)).collect(),
        }
    }

    #[test]
    fn every_silu_form_matches_scalar_silu_bit_for_bit() {
        for isa in Isa::tiers() {
            for (k, &n) in LENGTHS.iter().enumerate() {
                let xs = edge_values(n, k as u32);
                let want: Vec<f32> = xs.iter().map(|&x| silu(x)).collect();
                assert!(same_bits(&silu_on(isa, &xs), &want), "{isa:?} silu, n {n}");
            }
            // Bit patterns across the whole f32 range.
            let mut h = 0x2545_F491u32;
            let xs: Vec<f32> = (0..1 << 18)
                .map(|_| {
                    h ^= h << 13;
                    h ^= h >> 17;
                    h ^= h << 5;
                    f32::from_bits(h)
                })
                .collect();
            let want: Vec<f32> = xs.iter().map(|&x| silu(x)).collect();
            assert!(
                same_bits(&silu_on(isa, &xs), &want),
                "{isa:?}: silu differs on a random bit pattern"
            );
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
