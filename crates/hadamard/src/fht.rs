//! Fast Walsh–Hadamard transform (power-of-two orders).
//!
//! This is the software model of the paper's 128-point HTU: a `log2(n)`-stage
//! butterfly network (seven stages for 128 points). Each stage performs
//! `n/2` add/subtract pairs, which is what the hardware's Butterfly Core +
//! FIFO pipeline implements; the cycle model in `lightmamba-accel::htu`
//! charges latency per stage accordingly.
//!
//! # Schedule
//!
//! Stage `h` pairs element `i` with `i + h` (`i & h == 0`) and writes
//! `(a + b, a − b)`. Any schedule that feeds each butterfly the outputs of
//! the same two butterflies of the stage before computes the same bits,
//! so the network is run in the order that is cheapest to stream:
//!
//! * stages 1, 2 and 4 never leave an aligned block of 8 elements, so all
//!   three run per block while it sits in registers;
//! * every later stage pairs two contiguous runs of `h ≥ 8` elements,
//!   which vectorises as it stands;
//! * the orthonormal form's `1/√n` multiplies each output of the last
//!   stage as it is stored, the `s · scale` a separate pass would do.
//!
//! On an AVX-512 host stages 1, 2, 4 and 8 run per aligned block of 16
//! inside one register (a lane permute, an add, a subtract and a blend
//! per stage), and every later stage on whole registers.
//!
//! [`FactoredHadamard`](crate::FactoredHadamard) runs its column
//! transform through the same stages with rows of `m` elements in place
//! of single ones — every butterfly then pairs two contiguous rows, so
//! no column is ever gathered.

use lightmamba_tensor::isa::{detect, Isa};

/// Whether `n` is a (positive) power of two.
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

/// In-place unnormalized fast Walsh–Hadamard transform.
///
/// After the call, `x` holds `H_n · x` where `H_n` is the Sylvester
/// Hadamard matrix with entries ±1 (so applying twice scales by `n`).
///
/// # Panics
///
/// Panics when `x.len()` is not a power of two.
///
/// # Example
///
/// ```
/// let mut x = vec![1.0, 0.0, 0.0, 0.0];
/// lightmamba_hadamard::fwht(&mut x);
/// assert_eq!(x, vec![1.0, 1.0, 1.0, 1.0]);
/// ```
#[inline(always)]
pub fn fwht(x: &mut [f32]) {
    transform_on(detect(), x, None);
}

/// In-place orthonormal fast Walsh–Hadamard transform (`H_n / √n`).
///
/// The orthonormal form is its own inverse, which is the property the
/// rotation-assisted quantization relies on (`X H · Hᵀ W = X W`).
///
/// # Panics
///
/// Panics when `x.len()` is not a power of two.
#[inline(always)]
pub fn fwht_normalized(x: &mut [f32]) {
    fwht_normalized_on(detect(), x);
}

/// [`fwht_normalized`] on `isa`'s form.
#[inline(always)]
pub(crate) fn fwht_normalized_on(isa: Isa, x: &mut [f32]) {
    let scale = 1.0 / (x.len() as f32).sqrt();
    transform_on(isa, x, Some(scale));
}

/// The transform of `x` (module docs, "Schedule") on `isa`'s form, each
/// output of the last stage multiplied by `scale` when one is given.
#[inline(always)]
fn transform_on(isa: Isa, x: &mut [f32], scale: Option<f32>) {
    let n = x.len();
    assert!(
        is_power_of_two(n),
        "fwht requires a power-of-two length, got {n}"
    );
    match isa {
        // SAFETY: only `detect` and `Isa::supported` build an
        // `Isa::Avx512`, and only where AVX512F is present.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 { .. } if n >= 16 => unsafe { avx512::transform(x, scale) },
        _ if n >= 8 => {
            for block in x.chunks_exact_mut(8) {
                let block: &mut [f32; 8] = block.try_into().expect("chunks of 8");
                stages_in_8(block);
            }
            stages_scalar(x, 1, 8, scale);
        }
        // Fewer than 8 elements: the same network, stage by stage.
        _ => stages_scalar(x, 1, 1, scale),
    }
}

/// Stages 1, 2 and 4 of one aligned block of 8, in registers.
#[inline(always)]
fn stages_in_8(v: &mut [f32; 8]) {
    let mut r = *v;
    for h in [1, 2, 4] {
        for i in (0..8).filter(|i| i & h == 0) {
            let (a, b) = (r[i], r[i + h]);
            r[i] = a + b;
            r[i + h] = a - b;
        }
    }
    *v = r;
}

/// The butterfly stages `h = from, 2·from, …` below `x.len() / m`, over
/// `x` viewed as rows of `m` elements, on `isa`'s form: stage `h` pairs
/// row `i` with row `i + h`, element by element. With `scale`, each
/// output of the last stage is multiplied by it as it is stored — or,
/// when no stage is left to run, in a pass of its own. 16 lanes at a
/// time on [`Isa::Avx512`].
#[inline(always)]
pub(crate) fn stages_on(isa: Isa, x: &mut [f32], m: usize, from: usize, scale: Option<f32>) {
    match isa {
        // SAFETY: as in `transform_on`.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 { .. } => unsafe { avx512::stages(x, m, from, scale) },
        _ => stages_scalar(x, m, from, scale),
    }
}

/// [`stages_on`]'s scalar form.
#[inline(always)]
fn stages_scalar(x: &mut [f32], m: usize, from: usize, scale: Option<f32>) {
    let rows = x.len() / m;
    let mut h = from;
    if h >= rows {
        if let Some(scale) = scale {
            x.iter_mut().for_each(|v| *v *= scale);
        }
        return;
    }
    while h < rows {
        let last = 2 * h == rows;
        for block in x.chunks_exact_mut(2 * h * m) {
            let (lo, hi) = block.split_at_mut(h * m);
            match scale.filter(|_| last) {
                Some(scale) => {
                    for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                        let (s, d) = (*a + *b, *a - *b);
                        *a = s * scale;
                        *b = d * scale;
                    }
                }
                None => {
                    for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                        let (s, d) = (*a + *b, *a - *b);
                        *a = s;
                        *b = d;
                    }
                }
            }
        }
        h *= 2;
    }
}

/// The 16-lane forms of [`transform`] and [`stages`]: the same
/// butterflies fed the same operands, so the same bits.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    use lightmamba_tensor::isa::lanes16::{load, mask16, store};

    /// [`super::transform`] for `x.len() ≥ 16`: stages 1, 2, 4 and 8 of
    /// each aligned block of 16 inside one register, then the later
    /// stages on whole registers, `scale` on the last stage's stores.
    #[target_feature(enable = "avx512f")]
    pub(super) fn transform(x: &mut [f32], scale: Option<f32>) {
        let n = x.len();
        assert!(n >= 16 && n.is_power_of_two());
        let last = scale.filter(|_| n == 16);
        for block in x.chunks_exact_mut(16) {
            // SAFETY: `block` holds exactly 16 elements.
            unsafe {
                let mut v = _mm512_loadu_ps(block.as_ptr());
                v = stage::<0xB1, 0xAAAA, false>(v);
                v = stage::<0x4E, 0xCCCC, false>(v);
                v = stage::<0xB1, 0xF0F0, true>(v);
                v = stage::<0x4E, 0xFF00, true>(v);
                if let Some(s) = last {
                    v = _mm512_mul_ps(v, _mm512_set1_ps(s));
                }
                _mm512_storeu_ps(block.as_mut_ptr(), v);
            }
        }
        if n > 16 {
            stages(x, 1, 16, scale);
        }
    }

    /// One in-register stage: every lane meets its partner `h` lanes
    /// away — within 128-bit lanes (`permute`, `h = 1, 2`) or across them
    /// (`shuffle_f32x4`, `h = 4, 8`) by the selector `SEL` — and the
    /// lanes of `UPPER` (index bit `h` set) keep `a − b`, the rest
    /// `a + b`, `a` being the lower partner.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn stage<const SEL: i32, const UPPER: u16, const ACROSS: bool>(v: __m512) -> __m512 {
        let p = if ACROSS {
            _mm512_shuffle_f32x4::<SEL>(v, v)
        } else {
            _mm512_permute_ps::<SEL>(v)
        };
        _mm512_mask_blend_ps(UPPER, _mm512_add_ps(v, p), _mm512_sub_ps(p, v))
    }

    /// [`super::stages`] on whole registers: each stage pairs two runs of
    /// `h·m` elements, 16 at a time, masked at a run's end.
    #[target_feature(enable = "avx512f")]
    pub(super) fn stages(x: &mut [f32], m: usize, from: usize, scale: Option<f32>) {
        let rows = x.len() / m;
        let mut h = from;
        if h >= rows {
            if let Some(s) = scale {
                let (n, p, s) = (x.len(), x.as_mut_ptr(), _mm512_set1_ps(s));
                let mut i = 0;
                // SAFETY (both calls): the strip's lanes lie inside `x`.
                while i + 16 <= n {
                    unsafe { scale_strip::<true>(p.add(i), !0, s) };
                    i += 16;
                }
                if i < n {
                    unsafe { scale_strip::<false>(p.add(i), mask16(n - i), s) };
                }
            }
            return;
        }
        while h < rows {
            let run = h * m;
            let s = scale.filter(|_| 2 * h == rows).map(|s| _mm512_set1_ps(s));
            for block in x.chunks_exact_mut(2 * run) {
                let (lo, hi) = block.split_at_mut(run);
                let (lo, hi) = (lo.as_mut_ptr(), hi.as_mut_ptr());
                let mut j = 0;
                // SAFETY (both calls): the strip's lanes lie inside `lo`
                // and `hi`, both `run` long.
                while j + 16 <= run {
                    unsafe { butterfly_strip::<true>(lo.add(j), hi.add(j), !0, s) };
                    j += 16;
                }
                if j < run {
                    unsafe { butterfly_strip::<false>(lo.add(j), hi.add(j), mask16(run - j), s) };
                }
            }
            h *= 2;
        }
    }

    /// One strip of butterflies: `(a + b, a − b)`, each times `s` when
    /// given.
    ///
    /// # Safety
    ///
    /// AVX512F, and the strip's lanes must lie inside both runs.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn butterfly_strip<const FULL: bool>(
        pa: *mut f32,
        pb: *mut f32,
        k: __mmask16,
        s: Option<__m512>,
    ) {
        // SAFETY: the caller's contract.
        unsafe {
            let (a, b) = (load::<FULL>(k, pa), load::<FULL>(k, pb));
            let (mut sum, mut diff) = (_mm512_add_ps(a, b), _mm512_sub_ps(a, b));
            if let Some(s) = s {
                sum = _mm512_mul_ps(sum, s);
                diff = _mm512_mul_ps(diff, s);
            }
            store::<FULL>(pa, k, sum);
            store::<FULL>(pb, k, diff);
        }
    }

    /// One strip of the lone scale pass.
    ///
    /// # Safety
    ///
    /// AVX512F, and the strip's lanes must be valid.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn scale_strip<const FULL: bool>(p: *mut f32, k: __mmask16, s: __m512) {
        // SAFETY: the caller's contract.
        unsafe { store::<FULL>(p, k, _mm512_mul_ps(load::<FULL>(k, p), s)) }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn power_of_two_detection() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(128));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(40));
        assert!(!is_power_of_two(5120 / 40 * 40));
    }

    #[test]
    fn impulse_becomes_constant() {
        let mut x = vec![0.0f32; 8];
        x[0] = 1.0;
        fwht(&mut x);
        assert_eq!(x, vec![1.0; 8]);
    }

    #[test]
    fn matches_explicit_h4() {
        // H4 rows: ++++, +-+-, ++--, +--+
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        fwht(&mut x);
        assert_eq!(x, vec![10.0, -2.0, -4.0, 0.0]);
    }

    #[test]
    fn unnormalized_twice_scales_by_n() {
        let orig = vec![0.5f32, -1.0, 2.0, 3.0, -0.25, 1.5, 0.0, 7.0];
        let mut x = orig.clone();
        fwht(&mut x);
        fwht(&mut x);
        for (a, b) in x.iter().zip(orig.iter()) {
            assert!((a - b * 8.0).abs() < 1e-4);
        }
    }

    #[test]
    fn normalized_is_involution() {
        let orig = vec![0.5f32, -1.0, 2.0, 3.0];
        let mut x = orig.clone();
        fwht_normalized(&mut x);
        fwht_normalized(&mut x);
        for (a, b) in x.iter().zip(orig.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn normalized_preserves_energy() {
        let mut x = vec![3.0f32, -4.0, 1.0, 2.0, 0.0, 0.5, -0.5, 1.5];
        let before: f32 = x.iter().map(|v| v * v).sum();
        fwht_normalized(&mut x);
        let after: f32 = x.iter().map(|v| v * v).sum();
        assert!((before - after).abs() < 1e-3);
    }

    #[test]
    fn length_one_is_identity() {
        let mut x = vec![5.0f32];
        fwht_normalized(&mut x);
        assert_eq!(x, vec![5.0]);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_power_of_two() {
        let mut x = vec![0.0f32; 6];
        fwht(&mut x);
    }

    /// `n` seeded values over ±8, every seventh a signed zero or a
    /// subnormal.
    pub(crate) fn values(n: usize, seed: u32) -> Vec<f32> {
        let mut h = seed.wrapping_mul(0x9E37_79B9) | 1;
        let edges = [0.0, -0.0, f32::from_bits(1), -f32::MIN_POSITIVE / 4.0];
        (0..n)
            .map(|i| {
                h ^= h << 13;
                h ^= h >> 17;
                h ^= h << 5;
                if i % 7 == 3 {
                    edges[i % edges.len()]
                } else {
                    (h >> 8) as f32 / (1u32 << 24) as f32 * 16.0 - 8.0
                }
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn every_transform_form_matches_the_scalar_form_bit_for_bit() {
        for isa in Isa::tiers() {
            for log in 0..=10 {
                let n = 1usize << log;
                for scale in [None, Some(1.0 / (n as f32).sqrt())] {
                    for x in [values(n, log), vec![0.0; n]] {
                        let (mut want, mut got) = (x.clone(), x);
                        transform_on(Isa::Scalar, &mut want, scale);
                        transform_on(isa, &mut got, scale);
                        assert_eq!(bits(&got), bits(&want), "{isa:?} n {n} scale {scale:?}");
                    }
                }
            }
            // The factored column stages: rows of 12 (768 = 64 × 12) and
            // 40 (5120 = 128 × 40), short rows, and the lone scale pass.
            for (pot, m, from) in [(64, 12, 1), (128, 40, 1), (4, 3, 1), (16, 5, 2), (8, 12, 8)] {
                let x = values(pot * m, m as u32);
                let scale = Some(1.0 / (pot as f32).sqrt());
                let (mut want, mut got) = (x.clone(), x);
                stages_on(Isa::Scalar, &mut want, m, from, scale);
                stages_on(isa, &mut got, m, from, scale);
                assert_eq!(bits(&got), bits(&want), "{isa:?} {pot} × {m} from {from}");
            }
        }
    }

    #[test]
    fn all_zero_input_stays_positive_zero() {
        for log in 0..=10 {
            let mut x = vec![0.0f32; 1 << log];
            fwht_normalized(&mut x);
            assert!(x.iter().all(|v| v.to_bits() == 0), "n {}", 1 << log);
        }
    }

    #[test]
    fn amortizes_outliers() {
        // A single huge outlier spreads across all positions: this is the
        // mechanism by which rotation removes activation outliers (Fig. 2).
        let mut x = vec![0.1f32; 128];
        x[7] = 100.0;
        fwht_normalized(&mut x);
        let max = x.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(
            max < 100.0 / 8.0,
            "outlier should shrink by ~sqrt(n): {max}"
        );
    }
}
