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
//! [`FactoredHadamard`](crate::FactoredHadamard) runs its column
//! transform through the same stages with rows of `m` elements in place
//! of single ones — every butterfly then pairs two contiguous rows, so
//! no column is ever gathered.

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
    transform(x, None);
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
    let scale = 1.0 / (x.len() as f32).sqrt();
    transform(x, Some(scale));
}

/// The transform of `x` (module docs, "Schedule"), each output of the
/// last stage multiplied by `scale` when one is given.
#[inline(always)]
fn transform(x: &mut [f32], scale: Option<f32>) {
    let n = x.len();
    assert!(
        is_power_of_two(n),
        "fwht requires a power-of-two length, got {n}"
    );
    if n >= 8 {
        for block in x.chunks_exact_mut(8) {
            let block: &mut [f32; 8] = block.try_into().expect("chunks of 8");
            stages_in_8(block);
        }
        stages(x, 1, 8, scale);
    } else {
        // Fewer than 8 elements: the same network, stage by stage.
        stages(x, 1, 1, scale);
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
/// `x` viewed as rows of `m` elements: stage `h` pairs row `i` with row
/// `i + h`, element by element. With `scale`, each output of the last
/// stage is multiplied by it as it is stored — or, when no stage is
/// left to run, in a pass of its own.
#[inline(always)]
pub(crate) fn stages(x: &mut [f32], m: usize, from: usize, scale: Option<f32>) {
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

#[cfg(test)]
mod tests {
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
