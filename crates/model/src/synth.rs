//! Synthetic, structurally faithful Mamba2 weights and activations.
//!
//! Pretrained checkpoints are unavailable in this environment (README.md
//! §"Reproducing the paper" lists every substitution), so experiments run
//! on synthetic weights engineered to reproduce the
//! *distributional* phenomena the paper studies:
//!
//! 1. heavy-tailed weights and activations (LLM-typical kurtosis ≫ 3);
//! 2. **scattered activation outliers** at the out_proj input — outliers
//!    that appear in *different channels for different tokens* (Fig. 2c),
//!    which is precisely what breaks SmoothQuant/OS+ channel-wise factors
//!    while leaving rotation effective;
//! 3. Transformer-style **fixed-channel** outliers, as a control, so the
//!    baselines' original success case can be demonstrated too.
//!
//! Weight generation keeps the published initialization structure of
//! Mamba2 (`A ∈ [1, 16]` via `a_log`, `Δ_bias` from softplus-inverse of
//! `[1e-3, 1e-1]`, orthogonal-ish projections at `1/√fan_in` scale).

use rand::Rng;

use lightmamba_tensor::rng::{heavy_tailed, normal};
use lightmamba_tensor::Tensor;

use crate::weights::{BlockWeights, ModelWeights};
use crate::MambaConfig;

/// Scale used for projection weights (`1/√fan_in` Xavier-style).
fn proj_std(fan_in: usize) -> f32 {
    1.0 / (fan_in as f32).sqrt()
}

/// Generates one block of synthetic weights.
pub fn synthetic_block<R: Rng + ?Sized>(cfg: &MambaConfig, rng: &mut R) -> BlockWeights {
    let d = cfg.d_model;
    let di = cfg.d_inner();
    let h = cfg.nheads();

    // Projections: mostly Gaussian with a sprinkle of heavy tails, matching
    // the weight kurtosis regime of trained LLMs.
    let std_in = proj_std(d);
    let w_in = Tensor::from_fn(&[d, cfg.d_in_proj()], |_| {
        std_in * heavy_tailed(rng, 0.002, 8.0)
    });
    let std_out = proj_std(di);
    let w_out = Tensor::from_fn(&[di, d], |_| std_out * heavy_tailed(rng, 0.002, 8.0));

    // Conv taps small and centered; bias near zero.
    let conv_weight = Tensor::from_fn(&[cfg.conv_dim(), cfg.d_conv], |_| normal(rng, 0.0, 0.35));
    let conv_bias = (0..cfg.conv_dim())
        .map(|_| normal(rng, 0.0, 0.02))
        .collect();

    // A ∈ [1, 16] uniformly (Mamba2 init), stored as log.
    let a_log = (0..h).map(|_| rng.gen_range(1.0f32..16.0).ln()).collect();
    // Δ bias: softplus^{-1}(u) for u ∈ [1e-3, 1e-1] log-uniform.
    let dt_bias = (0..h)
        .map(|_| {
            let u = 10f32.powf(rng.gen_range(-3.0f32..-1.0));
            // softplus^{-1}(u) = ln(e^u - 1)
            (u.exp() - 1.0).max(1e-9).ln()
        })
        .collect();
    let d_skip = (0..h).map(|_| normal(rng, 1.0, 0.2)).collect();

    // Norm scales around 1 with heavy right tail — amplitude structure that
    // shapes (but does not fix) outlier channels.
    let norm_gamma = (0..d)
        .map(|_| 1.0 + 0.15 * heavy_tailed(rng, 0.02, 6.0).abs())
        .collect();
    let gate_norm_gamma = (0..di)
        .map(|_| 1.0 + 0.15 * heavy_tailed(rng, 0.02, 6.0).abs())
        .collect();

    BlockWeights {
        norm_gamma,
        w_in,
        conv_weight,
        conv_bias,
        a_log,
        dt_bias,
        d_skip,
        gate_norm_gamma,
        w_out,
    }
}

/// Generates full synthetic model weights for `cfg`.
pub fn synthetic_weights<R: Rng + ?Sized>(cfg: &MambaConfig, rng: &mut R) -> ModelWeights {
    let embedding = Tensor::from_fn(&[cfg.vocab_size, cfg.d_model], |_| {
        0.02 * heavy_tailed(rng, 0.005, 6.0)
    });
    let blocks = (0..cfg.n_layer)
        .map(|_| synthetic_block(cfg, rng))
        .collect();
    let final_norm_gamma = (0..cfg.d_model).map(|_| normal(rng, 1.0, 0.05)).collect();
    ModelWeights {
        embedding,
        blocks,
        final_norm_gamma,
    }
}

/// How synthetic activation outliers are placed across channels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OutlierPattern {
    /// Transformer-style: a fixed set of channels is hot for every token.
    /// Channel-wise scaling (SmoothQuant/OS+) handles this well.
    FixedChannels {
        /// Number of persistent outlier channels.
        channels: usize,
        /// Outlier magnitude multiplier over the base scale.
        magnitude: f32,
    },
    /// Mamba-style (paper Fig. 2c): each token draws a *fresh* set of
    /// outlier channels, so no per-channel factor fits all tokens.
    Scattered {
        /// Outlier channels re-drawn per token.
        channels_per_token: usize,
        /// Outlier magnitude multiplier over the base scale.
        magnitude: f32,
    },
    /// No injected outliers (Gaussian control).
    None,
}

/// Generates a `(tokens, channels)` activation matrix with the requested
/// outlier structure at unit base scale.
///
/// This is the direct synthetic stand-in for the out_proj input
/// activations used by the Table II quantization-error study and the
/// Fig. 2 distribution plots.
pub fn synthetic_activations<R: Rng + ?Sized>(
    rng: &mut R,
    tokens: usize,
    channels: usize,
    pattern: OutlierPattern,
) -> Tensor {
    let mut t = Tensor::from_fn(&[tokens, channels], |_| normal(rng, 0.0, 1.0));
    match pattern {
        OutlierPattern::None => t,
        OutlierPattern::FixedChannels {
            channels: k,
            magnitude,
        } => {
            let hot: Vec<usize> = (0..k.min(channels))
                .map(|_| rng.gen_range(0..channels))
                .collect();
            let data = t.data_mut();
            for row in 0..tokens {
                for &c in &hot {
                    let sign = normal(rng, 0.0, 1.0).signum();
                    data[row * channels + c] = sign * magnitude * (0.5 + 0.5 * rng.gen::<f32>());
                }
            }
            t
        }
        OutlierPattern::Scattered {
            channels_per_token,
            magnitude,
        } => {
            let data = t.data_mut();
            for row in 0..tokens {
                for _ in 0..channels_per_token.min(channels) {
                    let c = rng.gen_range(0..channels);
                    let sign = normal(rng, 0.0, 1.0).signum();
                    data[row * channels + c] = sign * magnitude * (0.5 + 0.5 * rng.gen::<f32>());
                }
            }
            t
        }
    }
}

/// Measures how *persistent* outlier channels are across tokens: the mean
/// Jaccard overlap between the top-`k` channel sets of consecutive tokens.
/// Near 1 for fixed-channel outliers, near 0 for scattered ones.
pub fn channel_persistence(acts: &Tensor, k: usize) -> f32 {
    let (tokens, channels) = acts.as_matrix_dims().expect("activations are a matrix");
    if tokens < 2 || k == 0 {
        return 0.0;
    }
    let topk = |row: &[f32]| -> Vec<usize> {
        let mut idx: Vec<usize> = (0..channels).collect();
        idx.sort_by(|&a, &b| row[b].abs().partial_cmp(&row[a].abs()).unwrap());
        idx.truncate(k);
        idx.sort_unstable();
        idx
    };
    let mut total = 0.0f32;
    let mut prev = topk(acts.row(0).expect("row 0"));
    for t in 1..tokens {
        let cur = topk(acts.row(t).expect("row in range"));
        let inter = prev.iter().filter(|c| cur.binary_search(c).is_ok()).count();
        let union = 2 * k - inter;
        total += inter as f32 / union as f32;
        prev = cur;
    }
    total / (tokens - 1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightmamba_tensor::stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn block_weights_have_published_init_structure() {
        let cfg = MambaConfig::tiny();
        let mut rng = StdRng::seed_from_u64(0);
        let w = synthetic_block(&cfg, &mut rng);
        w.validate(&cfg).unwrap();
        // A = exp(a_log) in [1, 16].
        for &al in &w.a_log {
            let a = al.exp();
            assert!((1.0..=16.0).contains(&a), "A = {a}");
        }
        // softplus(dt_bias) lands in [1e-3, 1e-1].
        for &b in &w.dt_bias {
            let u = lightmamba_tensor::activation::softplus(b);
            assert!((5e-4..=2e-1).contains(&u), "dt = {u}");
        }
    }

    #[test]
    fn scattered_outliers_are_not_persistent() {
        let mut rng = StdRng::seed_from_u64(7);
        let scattered = synthetic_activations(
            &mut rng,
            64,
            256,
            OutlierPattern::Scattered {
                channels_per_token: 4,
                magnitude: 40.0,
            },
        );
        let fixed = synthetic_activations(
            &mut rng,
            64,
            256,
            OutlierPattern::FixedChannels {
                channels: 4,
                magnitude: 40.0,
            },
        );
        let ps = channel_persistence(&scattered, 4);
        let pf = channel_persistence(&fixed, 4);
        assert!(ps < 0.2, "scattered persistence should be low, got {ps}");
        assert!(pf > 0.6, "fixed persistence should be high, got {pf}");
    }

    #[test]
    fn outlier_patterns_raise_kurtosis() {
        let mut rng = StdRng::seed_from_u64(3);
        let none = synthetic_activations(&mut rng, 32, 128, OutlierPattern::None);
        let scattered = synthetic_activations(
            &mut rng,
            32,
            128,
            OutlierPattern::Scattered {
                channels_per_token: 3,
                magnitude: 30.0,
            },
        );
        assert!(stats::kurtosis(none.data()) < 4.0);
        assert!(stats::kurtosis(scattered.data()) > 10.0);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = MambaConfig::tiny();
        let a = synthetic_weights(&cfg, &mut StdRng::seed_from_u64(5));
        let b = synthetic_weights(&cfg, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn persistence_edge_cases() {
        let t = Tensor::zeros(&[1, 8]);
        assert_eq!(channel_persistence(&t, 2), 0.0);
        let t2 = Tensor::zeros(&[4, 8]);
        assert_eq!(channel_persistence(&t2, 0), 0.0);
    }
}
