//! RMS normalization, plain and gated.
//!
//! The paper's fusion ② (Fig. 4a) relies on the identity
//! `RMSNorm_γ(x) = RMSNorm(x) ⊙ γ`: the *unscaled* RMSNorm commutes with an
//! orthogonal rotation of the residual stream, so the per-channel scale `γ`
//! must be split out and folded into the downstream projection weights
//! before the rotation can be fused. The rotation folds `γ` into the
//! weights itself, so only the scaled forms are kept here; the unscaled
//! norm is [`rms_norm`] with a unit `γ`. [`rms_norm_rows`] is
//! [`rms_norm`] over a lane of rows, their serial sums interleaved.

/// Root-mean-square of a slice with numerical floor `eps`.
#[inline(always)]
pub fn rms(xs: &[f32], eps: f32) -> f32 {
    rms_of_sum(xs.iter().map(|v| v * v).sum::<f32>(), xs.len(), eps)
}

/// [`rms`] from the sum of squares of `len` values.
#[inline(always)]
fn rms_of_sum(sum: f32, len: usize, eps: f32) -> f32 {
    if len == 0 {
        return eps.sqrt();
    }
    let ms = sum / len as f32;
    (ms + eps).sqrt()
}

/// `y_i = x_i / r * gamma_i`, in place — the scaling half of
/// [`rms_norm`].
#[inline(always)]
fn scale_by_rms(xs: &mut [f32], r: f32, gamma: &[f32]) {
    let inv = 1.0 / r;
    for (x, &g) in xs.iter_mut().zip(gamma.iter()) {
        *x = *x * inv * g;
    }
}

/// Scaled RMSNorm: `y_i = x_i / rms(x) * gamma_i`, in place.
///
/// # Panics
///
/// Panics when `xs.len() != gamma.len()`.
#[inline(always)]
pub fn rms_norm(xs: &mut [f32], gamma: &[f32], eps: f32) {
    assert_eq!(xs.len(), gamma.len(), "rmsnorm scale length mismatch");
    let r = rms(xs, eps);
    scale_by_rms(xs, r, gamma);
}

/// The most rows whose sums of squares [`rms_norm_rows`] runs side by
/// side: enough independent add chains to hide an add's latency, few
/// enough that they and their row pointers stay in registers.
const INTERLEAVE: usize = 8;

/// [`rms_norm`] of every row `row(item)` of `items`, bit for bit, with
/// the rows' sums of squares computed together.
///
/// [`rms`] is one serial chain of dependent adds, so a lone row costs
/// an add's latency per element. Here up to eight rows advance their
/// chains in the same loop: each row still adds its squares in
/// ascending index order from the initial value `Iterator::sum` uses,
/// and the rows together cost about one chain's latency.
///
/// # Panics
///
/// Panics when a row's length differs from `gamma.len()`.
#[inline(always)]
pub fn rms_norm_rows<T>(
    items: &mut [T],
    row: impl Fn(&mut T) -> &mut [f32],
    gamma: &[f32],
    eps: f32,
) {
    for chunk in items.chunks_mut(INTERLEAVE) {
        match chunk.len() {
            1 => rms_norm_chunk::<T, 1>(chunk, &row, gamma, eps),
            2 => rms_norm_chunk::<T, 2>(chunk, &row, gamma, eps),
            3 | 4 => rms_norm_chunk::<T, 4>(chunk, &row, gamma, eps),
            _ => rms_norm_chunk::<T, INTERLEAVE>(chunk, &row, gamma, eps),
        }
    }
}

/// [`rms_norm_rows`] of one chunk of at most `R` rows in `R` chains; a
/// short chunk repeats its first row in the chains it leaves over.
#[inline(always)]
fn rms_norm_chunk<T, const R: usize>(
    chunk: &mut [T],
    row: &impl Fn(&mut T) -> &mut [f32],
    gamma: &[f32],
    eps: f32,
) {
    let len = gamma.len();
    let mut rows = chunk.iter_mut().map(|t| {
        let r = &*row(t);
        assert_eq!(r.len(), len, "rmsnorm scale length mismatch");
        r
    });
    let rows: [Option<&[f32]>; R] = std::array::from_fn(|_| rows.next());
    let first = rows[0].unwrap_or(&[]);
    let sums = sums_of_squares(rows.map(|r| r.unwrap_or(first)), len);
    for (t, &sum) in chunk.iter_mut().zip(&sums) {
        scale_by_rms(row(t), rms_of_sum(sum, len, eps), gamma);
    }
}

/// `Σ v²` over the first `len` values of each of `R` rows, in ascending
/// index order from `Iterator::sum`'s initial value, the rows' chains
/// interleaved.
#[inline(always)]
fn sums_of_squares<const R: usize>(rows: [&[f32]; R], len: usize) -> [f32; R] {
    let rows = rows.map(|r| &r[..len]);
    let mut acc = [std::iter::empty::<f32>().sum::<f32>(); R];
    for i in 0..len {
        for (a, r) in acc.iter_mut().zip(&rows) {
            // SAFETY: every row was just sliced to `len` elements, and
            // `i < len` (the checked index costs as much as the add).
            let v = unsafe { *r.get_unchecked(i) };
            *a += v * v;
        }
    }
    acc
}

/// Gated RMSNorm used by Mamba2 before the output projection:
/// `y = RMSNorm(x ⊙ silu(z)) ⊙ gamma`, in place on `xs`.
///
/// # Panics
///
/// Panics when slice lengths disagree.
#[inline(always)]
pub fn gated_rms_norm(xs: &mut [f32], z: &[f32], gamma: &[f32], eps: f32) {
    assert_eq!(xs.len(), z.len(), "gated rmsnorm gate length mismatch");
    crate::activation::silu_gate(xs, z);
    rms_norm(xs, gamma, eps);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unscaled norm: [`rms_norm`] with a unit scale.
    fn rms_norm_unit(xs: &mut [f32], eps: f32) {
        rms_norm(xs, &vec![1.0; xs.len()], eps);
    }

    #[test]
    fn rms_of_unit_vector() {
        let xs = [1.0f32, 1.0, 1.0, 1.0];
        assert!((rms(&xs, 0.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rms_empty_slice_uses_eps() {
        assert!((rms(&[], 1e-6) - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn scaled_norm_equals_unscaled_times_gamma() {
        let orig = [0.5f32, -2.0, 3.0, 1.0];
        let gamma = [2.0f32, 0.5, 1.0, -1.0];
        let mut a = orig;
        rms_norm(&mut a, &gamma, 1e-6);
        let mut b = orig;
        rms_norm_unit(&mut b, 1e-6);
        for ((ai, bi), gi) in a.iter().zip(b.iter()).zip(gamma.iter()) {
            assert!((ai - bi * gi).abs() < 1e-6);
        }
    }

    #[test]
    fn unscaled_norm_output_has_unit_rms() {
        let mut xs = [3.0f32, -4.0, 12.0, 0.5];
        rms_norm_unit(&mut xs, 0.0);
        assert!((rms(&xs, 0.0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn norm_is_scale_invariant() {
        let mut a = [1.0f32, 2.0, 3.0];
        let mut b = [10.0f32, 20.0, 30.0];
        rms_norm_unit(&mut a, 0.0);
        rms_norm_unit(&mut b, 0.0);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn gated_norm_matches_manual_composition() {
        let orig = [1.0f32, -0.5, 2.0];
        let z = [0.3f32, 1.5, -0.7];
        let gamma = [1.0f32, 2.0, 0.5];
        let mut got = orig;
        gated_rms_norm(&mut got, &z, &gamma, 1e-6);

        let mut manual = orig;
        for (x, &zi) in manual.iter_mut().zip(z.iter()) {
            *x *= crate::activation::silu(zi);
        }
        rms_norm(&mut manual, &gamma, 1e-6);
        assert_eq!(got, manual);
    }

    #[test]
    fn gated_unscaled_plus_gamma_fold_equals_gated_scaled() {
        let orig = [1.0f32, -0.5, 2.0, 0.1];
        let z = [0.3f32, 1.5, -0.7, 0.0];
        let gamma = [1.0f32, 2.0, 0.5, -1.5];
        let mut scaled = orig;
        gated_rms_norm(&mut scaled, &z, &gamma, 1e-6);
        let mut split = orig;
        gated_rms_norm(&mut split, &z, &[1.0; 4], 1e-6);
        for (s, (u, g)) in scaled.iter().zip(split.iter().zip(gamma.iter())) {
            assert!((s - u * g).abs() < 1e-6);
        }
    }

    #[test]
    fn interleaved_rows_match_the_per_row_norm_bit_for_bit() {
        use crate::activation::tests::{edge_values, same_bits, LENGTHS};
        for (k, &len) in LENGTHS.iter().enumerate() {
            let gamma = edge_values(len, 7 * k as u32);
            for n in 1..=17 {
                // Finite rows, and rows with every edge case.
                for edges in [false, true] {
                    let rows: Vec<Vec<f32>> = (0..n)
                        .map(|r| {
                            let v = edge_values(len, (100 * n + r) as u32);
                            v.into_iter()
                                .map(|x| if edges || x.is_finite() { x } else { 1.5 })
                                .collect()
                        })
                        .collect();
                    let mut want = rows.clone();
                    want.iter_mut().for_each(|r| rms_norm(r, &gamma, 1e-5));
                    let mut got = rows;
                    rms_norm_rows(&mut got, |r| &mut r[..], &gamma, 1e-5);
                    let (got, want): (Vec<f32>, Vec<f32>) = (got.concat(), want.concat());
                    let all_same = same_bits(&got, &want);
                    assert!(all_same, "len {len}, {n} rows, edge cases {edges}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn scaled_norm_panics_on_gamma_mismatch() {
        let mut xs = [1.0f32, 2.0];
        rms_norm(&mut xs, &[1.0], 1e-6);
    }
}
