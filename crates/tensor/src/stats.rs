//! Distribution statistics and fidelity metrics.
//!
//! These back the paper's quantitative claims: quantization error (Table II,
//! Fig. 4b), outlier characterization (Fig. 2), and the KL-based perplexity
//! proxy that substitutes for the lm-eval-harness numbers in Table III.

use crate::Tensor;

/// Maximum absolute value of a slice (0 for empty input).
pub fn absmax(xs: &[f32]) -> f32 {
    xs.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
}

/// Arithmetic mean (0 for empty input).
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f32>() / xs.len() as f32
}

/// Population variance (0 for empty input).
pub fn variance(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&v| (v - m) * (v - m)).sum::<f32>() / xs.len() as f32
}

/// Pearson kurtosis `E[(x-μ)⁴]/σ⁴` (3 for a Gaussian; higher means heavier
/// tails, the signature of activation outliers).
pub fn kurtosis(xs: &[f32]) -> f32 {
    let m = mean(xs);
    let var = variance(xs);
    if var == 0.0 || xs.is_empty() {
        return 0.0;
    }
    let m4 = xs.iter().map(|&v| (v - m).powi(4)).sum::<f32>() / xs.len() as f32;
    m4 / (var * var)
}

/// Sum of squared errors between two equal-length slices — the
/// "quantization error" metric of the paper's Table II and Fig. 4b.
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn sse(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "sse length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum::<f32>()
}

/// Cosine similarity (0 when either vector is zero).
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine length mismatch");
    let dot: f32 = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
    let na: f32 = a.iter().map(|&x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|&y| y * y).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na * nb)
}

/// KL divergence `KL(p ‖ q)` between two probability vectors, in nats.
///
/// Entries of `q` are floored at `1e-10` to keep the result finite; `p`
/// entries of zero contribute nothing.
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn kl_divergence(p: &[f32], q: &[f32]) -> f32 {
    assert_eq!(p.len(), q.len(), "kl length mismatch");
    p.iter()
        .zip(q.iter())
        .map(|(&pi, &qi)| {
            if pi <= 0.0 {
                0.0
            } else {
                pi * (pi / qi.max(1e-10)).ln()
            }
        })
        .sum()
}

/// Per-column maximum absolute value of a `(rows, cols)` matrix — the
/// per-channel outlier profile plotted in Fig. 2.
///
/// # Panics
///
/// Panics when the tensor is not rank 2.
pub fn per_channel_absmax(t: &Tensor) -> Vec<f32> {
    let (rows, cols) = t
        .as_matrix_dims()
        .expect("per_channel_absmax requires a matrix");
    let d = t.data();
    let mut out = vec![0.0f32; cols];
    for r in 0..rows {
        for (c, o) in out.iter_mut().enumerate() {
            *o = o.max(d[r * cols + c].abs());
        }
    }
    out
}

/// Per-row maximum absolute value of a `(rows, cols)` matrix (per-token
/// profile).
///
/// # Panics
///
/// Panics when the tensor is not rank 2.
pub fn per_token_absmax(t: &Tensor) -> Vec<f32> {
    let (rows, _) = t
        .as_matrix_dims()
        .expect("per_token_absmax requires a matrix");
    (0..rows)
        .map(|r| absmax(t.row(r).expect("row in range")))
        .collect()
}

/// Fraction of entries whose magnitude exceeds `threshold` times the
/// root-mean-square of the slice. A scattered-outlier diagnostic: in
/// Transformer activations these concentrate in a few channels, in Mamba
/// they spread across channels and tokens.
pub fn outlier_fraction(xs: &[f32], threshold: f32) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    let r = crate::norm::rms(xs, 0.0);
    if r == 0.0 {
        return 0.0;
    }
    let count = xs.iter().filter(|&&v| v.abs() > threshold * r).count();
    count as f32 / xs.len() as f32
}

/// Histogram of `xs` over `bins` equal-width buckets spanning `[lo, hi)`;
/// values outside the range are clamped into the end buckets. Used to render
/// the Fig. 2 distribution plots in text form.
pub fn histogram(xs: &[f32], lo: f32, hi: f32, bins: usize) -> Vec<usize> {
    let mut h = vec![0usize; bins.max(1)];
    if xs.is_empty() || hi <= lo {
        return h;
    }
    let width = (hi - lo) / bins as f32;
    for &x in xs {
        let idx = (((x - lo) / width) as isize).clamp(0, bins as isize - 1) as usize;
        h[idx] += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absmax_mean_variance() {
        let xs = [1.0f32, -3.0, 2.0];
        assert_eq!(absmax(&xs), 3.0);
        assert!((mean(&xs) - 0.0).abs() < 1e-6);
        assert!((variance(&xs) - (1.0 + 9.0 + 4.0) / 3.0).abs() < 1e-6);
        assert_eq!(absmax(&[]), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn kurtosis_gaussian_vs_spiky() {
        // Constant-magnitude signal has kurtosis 1 (sub-Gaussian).
        let flat = [1.0f32, -1.0, 1.0, -1.0];
        assert!((kurtosis(&flat) - 1.0).abs() < 1e-5);
        // A single large spike drives kurtosis far above 3.
        let mut spiky = vec![0.1f32; 99];
        spiky.push(100.0);
        assert!(kurtosis(&spiky) > 50.0);
    }

    #[test]
    fn mse_and_sse() {
        let a = [1.0f32, 2.0];
        let b = [2.0f32, 4.0];
        assert!((sse(&a, &b) - 5.0).abs() < 1e-6);
        assert_eq!(sse(&[], &[]), 0.0);
    }

    #[test]
    fn cosine_similarity_basics() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn kl_zero_for_identical_distributions() {
        let p = [0.2f32, 0.3, 0.5];
        assert!(kl_divergence(&p, &p).abs() < 1e-7);
        let q = [0.5f32, 0.3, 0.2];
        assert!(kl_divergence(&p, &q) > 0.0);
    }

    #[test]
    fn channel_and_token_profiles() {
        let t = Tensor::from_vec(vec![1.0, -5.0, 2.0, 3.0], &[2, 2]).unwrap();
        assert_eq!(per_channel_absmax(&t), vec![2.0, 5.0]);
        assert_eq!(per_token_absmax(&t), vec![5.0, 3.0]);
    }

    #[test]
    fn outlier_fraction_detects_spikes() {
        let mut xs = vec![1.0f32; 99];
        xs.push(50.0);
        let f = outlier_fraction(&xs, 5.0);
        assert!((f - 0.01).abs() < 1e-6);
        assert_eq!(outlier_fraction(&[], 5.0), 0.0);
        assert_eq!(outlier_fraction(&[0.0, 0.0], 5.0), 0.0);
    }

    #[test]
    fn histogram_counts_and_clamps() {
        let h = histogram(&[-10.0, 0.1, 0.2, 0.9, 10.0], 0.0, 1.0, 2);
        assert_eq!(h.iter().sum::<usize>(), 5);
        assert_eq!(h, vec![3, 2]);
        assert_eq!(histogram(&[], 0.0, 1.0, 3), vec![0, 0, 0]);
    }
}
