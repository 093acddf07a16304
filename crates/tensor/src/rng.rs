//! Deterministic random sampling used for synthetic weights/activations.
//!
//! The reproduction substitutes pretrained checkpoints with structurally
//! faithful synthetic tensors (see README.md §"Reproducing the paper"), so
//! all randomness must be
//! seedable and dependency-light. Gaussian samples come from a Box–Muller
//! transform over `rand`'s uniform source; heavy-tailed samples come from a
//! Student-t-like mixture that matches the kurtosis regime of LLM
//! activations.

use rand::Rng;

use crate::Tensor;

/// Draws one standard-normal sample via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    // Guard u1 away from 0 so ln(u1) is finite.
    let u1: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
    let u2: f32 = rng.gen::<f32>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Draws a normal sample with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f32, std: f32) -> f32 {
    mean + std * standard_normal(rng)
}

/// Draws a heavy-tailed sample: standard normal with probability
/// `1 - tail_prob`, otherwise normal with `tail_scale`× the deviation.
///
/// This Gaussian scale-mixture has excess kurtosis controlled by
/// `tail_prob`/`tail_scale` and is the building block for the scattered
/// activation outliers of the paper's Fig. 2.
pub fn heavy_tailed<R: Rng + ?Sized>(rng: &mut R, tail_prob: f64, tail_scale: f32) -> f32 {
    if rng.gen_bool(tail_prob) {
        tail_scale * standard_normal(rng)
    } else {
        standard_normal(rng)
    }
}

impl Tensor {
    /// Creates a tensor of i.i.d. normal samples.
    pub fn randn<R: Rng + ?Sized>(rng: &mut R, dims: &[usize], mean: f32, std: f32) -> Self {
        Tensor::from_fn(dims, |_| normal(rng, mean, std))
    }

    /// Creates a tensor of i.i.d. uniform samples in `[lo, hi)`.
    pub fn rand_uniform<R: Rng + ?Sized>(rng: &mut R, dims: &[usize], lo: f32, hi: f32) -> Self {
        Tensor::from_fn(dims, |_| rng.gen_range(lo..hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments_are_close() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn normal_respects_mean_and_std() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| normal(&mut rng, 3.0, 0.5)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn heavy_tailed_has_excess_kurtosis() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 40_000;
        let samples: Vec<f32> = (0..n).map(|_| heavy_tailed(&mut rng, 0.01, 10.0)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n as f32;
        let m4 = samples.iter().map(|v| (v - mean).powi(4)).sum::<f32>() / n as f32;
        let kurtosis = m4 / (var * var);
        assert!(
            kurtosis > 5.0,
            "kurtosis {kurtosis} should exceed gaussian 3"
        );
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        let a = Tensor::randn(&mut StdRng::seed_from_u64(42), &[8], 0.0, 1.0);
        let b = Tensor::randn(&mut StdRng::seed_from_u64(42), &[8], 0.0, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        let t = Tensor::rand_uniform(&mut rng, &[1000], -2.0, 3.0);
        assert!(t.data().iter().all(|&v| (-2.0..3.0).contains(&v)));
    }
}
