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

use lightmamba_pool::WorkerPool;
use lightmamba_tensor::rng::{heavy_tailed, normal, HeavyDraw};
use lightmamba_tensor::Tensor;

use crate::weights::{BlockWeights, ModelWeights};
use crate::MambaConfig;

/// Heavy-tailed samples per pipeline step of [`Sampler::heavy`]: one
/// draw buffer is 8192 × 12 B = 96 KiB.
const CHUNK: usize = 8192;
/// Samples per transform task: a chunk is eight tasks for the lanes.
const PIECE: usize = 1024;

/// Scale used for projection weights (`1/√fan_in` Xavier-style).
fn proj_std(fan_in: usize) -> f32 {
    1.0 / (fan_in as f32).sqrt()
}

/// Makes the heavy-tailed tensors — the embedding and every `w_in` and
/// `w_out`, nearly all of the model's samples — on a set-up's lanes.
/// The caller's thread draws each chunk's coins and uniforms from the
/// generator, in the order [`heavy_tailed`] draws them, into one of two
/// reused buffers, while the lanes turn the previous chunk's draws into
/// samples ([`HeavyDraw::sample`]: the Box–Muller `ln`, `sqrt` and `cos`,
/// which cost most of a sample). So the generator's stream and every
/// sample's operations are those of the serial loop, whatever the lane
/// count; a one-lane pool draws a chunk, then transforms the previous one.
struct Sampler<'p> {
    pool: &'p WorkerPool,
    draws: [Vec<HeavyDraw>; 2],
}

impl<'p> Sampler<'p> {
    fn new(pool: &'p WorkerPool) -> Self {
        Sampler {
            pool,
            draws: std::array::from_fn(|_| vec![HeavyDraw::default(); CHUNK]),
        }
    }

    /// A `dims` tensor of `scale · heavy_tailed(rng, tail_prob,
    /// tail_scale)`, element by element in row-major order.
    fn heavy<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        dims: &[usize],
        scale: f32,
        tail_prob: f64,
        tail_scale: f32,
    ) -> Tensor {
        let fill = |rng: &mut R, draws: &mut [HeavyDraw]| {
            for d in draws {
                *d = HeavyDraw::draw(rng, tail_prob);
            }
        };
        let mut t = Tensor::zeros(dims);
        let [cur, next] = &mut self.draws;
        let mut chunks = t.data_mut().chunks_mut(CHUNK);
        let mut out = chunks.next();
        if let Some(out) = &out {
            fill(rng, &mut cur[..out.len()]);
        }
        while let Some(samples) = out {
            let following = chunks.next();
            let mut pieces: Vec<_> = samples.chunks_mut(PIECE).zip(cur.chunks(PIECE)).collect();
            self.pool.run_over_beside(
                &mut pieces,
                |_, (samples, draws)| {
                    for (v, d) in samples.iter_mut().zip(draws.iter()) {
                        *v = scale * d.sample(tail_scale);
                    }
                },
                || {
                    if let Some(f) = &following {
                        fill(rng, &mut next[..f.len()]);
                    }
                },
            );
            std::mem::swap(cur, next);
            out = following;
        }
        t
    }
}

/// Generates one block of synthetic weights.
pub fn synthetic_block<R: Rng + ?Sized>(cfg: &MambaConfig, rng: &mut R) -> BlockWeights {
    block(cfg, rng, &mut Sampler::new(&WorkerPool::per_cpu()))
}

/// [`synthetic_block`] with its heavy-tailed tensors from `sampler`.
fn block<R: Rng + ?Sized>(cfg: &MambaConfig, rng: &mut R, sampler: &mut Sampler) -> BlockWeights {
    let d = cfg.d_model;
    let di = cfg.d_inner();
    let h = cfg.nheads();

    // Projections: mostly Gaussian with a sprinkle of heavy tails, matching
    // the weight kurtosis regime of trained LLMs.
    let w_in = sampler.heavy(rng, &[d, cfg.d_in_proj()], proj_std(d), 0.002, 8.0);
    let w_out = sampler.heavy(rng, &[di, d], proj_std(di), 0.002, 8.0);

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

/// Generates full synthetic model weights for `cfg`, the heavy-tailed
/// tensors on one lane per CPU (`Sampler`): the weights are the same
/// bits on any number of lanes.
pub fn synthetic_weights<R: Rng + ?Sized>(cfg: &MambaConfig, rng: &mut R) -> ModelWeights {
    weights_on(cfg, rng, &WorkerPool::per_cpu())
}

/// [`synthetic_weights`] on `pool`'s lanes.
pub(crate) fn weights_on<R: Rng + ?Sized>(
    cfg: &MambaConfig,
    rng: &mut R,
    pool: &WorkerPool,
) -> ModelWeights {
    let mut sampler = Sampler::new(pool);
    let embedding = sampler.heavy(rng, &[cfg.vocab_size, cfg.d_model], 0.02, 0.005, 6.0);
    let blocks = (0..cfg.n_layer)
        .map(|_| block(cfg, rng, &mut sampler))
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

    /// FNV-1a over the bits of every weight `weights_on(pool)` makes for
    /// `cfg` under `seed`, in declaration order.
    fn synth_digest(cfg: &MambaConfig, seed: u64, pool: &WorkerPool) -> u64 {
        let w = weights_on(cfg, &mut StdRng::seed_from_u64(seed), pool);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |xs: &[f32]| {
            for x in xs {
                for b in x.to_bits().to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                }
            }
        };
        eat(w.embedding.data());
        for b in &w.blocks {
            eat(&b.norm_gamma);
            eat(b.w_in.data());
            eat(b.conv_weight.data());
            eat(&b.conv_bias);
            eat(&b.a_log);
            eat(&b.dt_bias);
            eat(&b.d_skip);
            eat(&b.gate_norm_gamma);
            eat(b.w_out.data());
        }
        eat(&w.final_norm_gamma);
        h
    }

    /// The benchmark's model (`benchmark/src/workload.rs`).
    #[cfg(not(debug_assertions))]
    fn bench_config() -> MambaConfig {
        MambaConfig {
            d_model: 256,
            n_layer: 4,
            d_state: 64,
            d_conv: 4,
            expand: 2,
            headdim: 64,
            ngroups: 1,
            vocab_size: 2048,
        }
    }

    /// No heavy-tailed tensor is a multiple of 1024 elements: embedding
    /// 301 × 72 = 21672, `w_in` 72 × 313 = 22536, `w_out` 144 × 72 = 10368.
    fn ragged_config() -> MambaConfig {
        MambaConfig {
            d_model: 72,
            n_layer: 2,
            d_state: 8,
            d_conv: 4,
            expand: 2,
            headdim: 16,
            ngroups: 1,
            vocab_size: 301,
        }
    }

    /// Recorded before synthesis ran on more than one lane; every lane
    /// count must give the same bits.
    #[test]
    fn synth_digest_of_a_ragged_model_is_pinned_on_any_lane_count() {
        for lanes in [1, 2, 3] {
            let pool = WorkerPool::new(lanes);
            let got = synth_digest(&ragged_config(), 3, &pool);
            assert_eq!(got, 0xb11a_0ca1_e8bf_a98a, "{lanes} lanes");
        }
    }

    /// The benchmark's model (release only: 2.2 M Box–Muller samples are
    /// slow in debug).
    #[cfg(not(debug_assertions))]
    #[test]
    fn synth_digest_of_the_benchmark_model_is_pinned_on_any_lane_count() {
        for lanes in [1, 2, 3] {
            let pool = WorkerPool::new(lanes);
            let got = synth_digest(&bench_config(), 7, &pool);
            assert_eq!(got, 0xe60c_092d_f53c_5288, "{lanes} lanes");
        }
        assert_eq!(
            synthetic_weights(&bench_config(), &mut StdRng::seed_from_u64(7)),
            weights_on(
                &bench_config(),
                &mut StdRng::seed_from_u64(7),
                &WorkerPool::new(1)
            )
        );
    }

    #[test]
    fn persistence_edge_cases() {
        let t = Tensor::zeros(&[1, 8]);
        assert_eq!(channel_persistence(&t, 2), 0.0);
        let t2 = Tensor::zeros(&[4, 8]);
        assert_eq!(channel_persistence(&t2, 0), 0.0);
    }
}
