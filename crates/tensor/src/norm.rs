//! RMS normalization, plain and gated.
//!
//! The paper's fusion ② (Fig. 4a) relies on the identity
//! `RMSNorm_γ(x) = RMSNorm(x) ⊙ γ`: the *unscaled* RMSNorm commutes with an
//! orthogonal rotation of the residual stream, so the per-channel scale `γ`
//! must be split out and folded into the downstream projection weights
//! before the rotation can be fused. The rotation folds `γ` into the
//! weights itself, so only the scaled forms are kept here; the unscaled
//! norm is [`rms_norm`] with a unit `γ`.

/// Root-mean-square of a slice with numerical floor `eps`.
#[inline(always)]
pub fn rms(xs: &[f32], eps: f32) -> f32 {
    if xs.is_empty() {
        return eps.sqrt();
    }
    let ms = xs.iter().map(|v| v * v).sum::<f32>() / xs.len() as f32;
    (ms + eps).sqrt()
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
    let inv = 1.0 / r;
    for (x, &g) in xs.iter_mut().zip(gamma.iter()) {
        *x = *x * inv * g;
    }
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
    for (x, &zi) in xs.iter_mut().zip(z.iter()) {
        *x *= crate::activation::silu(zi);
    }
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
    #[should_panic(expected = "length mismatch")]
    fn scaled_norm_panics_on_gamma_mismatch() {
        let mut xs = [1.0f32, 2.0];
        rms_norm(&mut xs, &[1.0], 1e-6);
    }
}
