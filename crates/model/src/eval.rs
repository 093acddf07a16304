//! Fidelity evaluation of a (possibly quantized) model against the FP32
//! reference — the substitute for lm-eval-harness (README.md
//! §"Reproducing the paper").
//!
//! Table III of the paper ranks PTQ methods by WikiText2/LAMBADA perplexity
//! and zero-shot accuracy. With synthetic weights the absolute task scores
//! are meaningless, but the *quantization-induced degradation* is exactly
//! measurable: run the reference and the quantized model on the same token
//! streams and compare their next-token distributions.
//!
//! * [`FidelityReport::ppl_factor`] — `exp(mean KL(ref ‖ quant))`, the
//!   multiplicative perplexity-degradation factor (1.0 = lossless). This is
//!   the proxy for the paper's "ppl ↓" column.
//! * [`FidelityReport::agreement`] — top-1 next-token agreement with the
//!   reference (1.0 = lossless), the proxy for "acc ↑".

use lightmamba_tensor::activation::softmax;
use lightmamba_tensor::stats::{cosine_similarity, kl_divergence};

use crate::{MambaModel, Result};

/// A model that can be evaluated step-by-step against the reference.
///
/// Implemented by [`MambaModel`] and by the quantized model in
/// `lightmamba-quant`. The trait is object-safe so harnesses can hold a
/// heterogeneous list of candidates.
pub trait StepModel {
    /// Resets all recurrent state (start of a fresh sequence).
    fn reset(&mut self);

    /// One decode step: token id in, next-token logits out.
    ///
    /// # Errors
    ///
    /// Implementations return their crate's error for invalid tokens or
    /// state mismatches.
    fn step(&mut self, token: u32) -> Result<Vec<f32>>;
}

/// Reference model + owned state packaged as a [`StepModel`].
#[derive(Debug, Clone)]
pub struct ReferenceRunner {
    model: MambaModel,
    state: crate::ModelState,
}

impl ReferenceRunner {
    /// Wraps a model with a fresh state.
    pub fn new(model: MambaModel) -> Self {
        let state = model.new_state();
        ReferenceRunner { model, state }
    }

    /// The wrapped model.
    pub fn model(&self) -> &MambaModel {
        &self.model
    }
}

impl StepModel for ReferenceRunner {
    fn reset(&mut self) {
        self.state.reset();
    }

    fn step(&mut self, token: u32) -> Result<Vec<f32>> {
        self.model.forward_step(token, &mut self.state)
    }
}

/// Fidelity of a candidate model relative to the FP reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FidelityReport {
    /// Mean `KL(ref ‖ candidate)` over all evaluated positions, in nats.
    pub mean_kl: f32,
    /// `exp(mean_kl)`: multiplicative perplexity-degradation factor.
    pub ppl_factor: f32,
    /// Fraction of positions where the candidate's argmax matches the
    /// reference's argmax.
    pub agreement: f32,
    /// Mean cosine similarity between logit vectors.
    pub logit_cosine: f32,
    /// Number of positions evaluated.
    pub positions: usize,
}

/// Runs `reference` and `candidate` over the same token streams and
/// reports divergence statistics.
///
/// # Errors
///
/// Propagates step errors from either model.
pub fn compare_models(
    reference: &mut dyn StepModel,
    candidate: &mut dyn StepModel,
    sequences: &[Vec<u32>],
) -> Result<FidelityReport> {
    let mut total_kl = 0.0f64;
    let mut agree = 0usize;
    let mut cos = 0.0f64;
    let mut positions = 0usize;
    for seq in sequences {
        reference.reset();
        candidate.reset();
        for &tok in seq {
            let ref_logits = reference.step(tok)?;
            let cand_logits = candidate.step(tok)?;
            let p = softmax(&ref_logits);
            let q = softmax(&cand_logits);
            total_kl += kl_divergence(&p, &q) as f64;
            if MambaModel::argmax(&ref_logits) == MambaModel::argmax(&cand_logits) {
                agree += 1;
            }
            cos += cosine_similarity(&ref_logits, &cand_logits) as f64;
            positions += 1;
        }
    }
    let n = positions.max(1) as f64;
    let mean_kl = (total_kl / n) as f32;
    Ok(FidelityReport {
        mean_kl,
        ppl_factor: mean_kl.exp(),
        agreement: (agree as f64 / n) as f32,
        logit_cosine: (cos / n) as f32,
        positions,
    })
}

/// Negative log-likelihood perplexity of a model on token streams
/// (self-perplexity; used to sanity-check the synthetic corpus/model pair).
///
/// # Errors
///
/// Propagates step errors from the model.
pub fn self_perplexity(model: &mut dyn StepModel, sequences: &[Vec<u32>]) -> Result<f64> {
    let mut nll = 0.0f64;
    let mut count = 0usize;
    for seq in sequences {
        model.reset();
        for w in seq.windows(2) {
            let logits = model.step(w[0])?;
            let logp = lightmamba_tensor::activation::log_softmax(&logits);
            nll -= logp[w[1] as usize] as f64;
            count += 1;
        }
    }
    Ok((nll / count.max(1) as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MambaConfig, MambaModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_runner(seed: u64) -> ReferenceRunner {
        let model =
            MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(seed)).unwrap();
        ReferenceRunner::new(model)
    }

    fn sequences() -> Vec<Vec<u32>> {
        let corpus = crate::corpus::SyntheticCorpus::for_vocab(256);
        corpus.calibration_set(&mut StdRng::seed_from_u64(0), 3, 12)
    }

    #[test]
    fn model_vs_itself_is_lossless() {
        let mut a = tiny_runner(1);
        let mut b = tiny_runner(1);
        let rep = compare_models(&mut a, &mut b, &sequences()).unwrap();
        assert!(rep.mean_kl < 1e-5);
        assert!((rep.ppl_factor - 1.0).abs() < 1e-4);
        assert!((rep.agreement - 1.0).abs() < 1e-6);
        assert!(rep.logit_cosine > 0.999);
        assert_eq!(rep.positions, 36);
    }

    #[test]
    fn different_models_diverge() {
        let mut a = tiny_runner(1);
        let mut b = tiny_runner(2);
        let rep = compare_models(&mut a, &mut b, &sequences()).unwrap();
        assert!(rep.mean_kl > 0.01);
        assert!(rep.agreement < 1.0);
    }

    #[test]
    fn perturbation_degrades_monotonically() {
        // Adding noise to the embedding should raise KL as noise grows —
        // the ordering property Table III depends on.
        let mut reference = tiny_runner(3);
        let mut kls = Vec::new();
        for noise in [0.001f32, 0.01, 0.05] {
            let mut model = reference.model().clone();
            let mut rng = StdRng::seed_from_u64(7);
            let emb = model.embedding_mut();
            let d = emb.data_mut();
            for v in d.iter_mut() {
                *v += noise * lightmamba_tensor::rng::standard_normal(&mut rng);
            }
            let mut cand = ReferenceRunner::new(model);
            let rep = compare_models(&mut reference, &mut cand, &sequences()).unwrap();
            kls.push(rep.mean_kl);
        }
        assert!(kls[0] < kls[1] && kls[1] < kls[2], "kls {kls:?}");
    }

    #[test]
    fn self_perplexity_is_bounded_by_vocab() {
        let mut a = tiny_runner(4);
        let ppl = self_perplexity(&mut a, &sequences()).unwrap();
        assert!(ppl > 1.0);
        assert!(ppl < 10_000.0, "ppl {ppl}");
    }
}
