//! The correctness oracle inside the command: a seeded sample of every
//! serving round's requests is replayed through the sequential
//! single-request path and must match the engine's completions token
//! for token; every request must have finished by generating its
//! tokens.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lightmamba_serve::request::{Completion, FinishReason, GenRequest};

use crate::env::Models;
use crate::workload::{Backends, Workload};

/// Requests replayed per backend.
pub const SAMPLE_PER_BACKEND: usize = 8;

/// Requests checked and requests that failed the check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Requests sent (every request of every timed round).
    pub attempted: u64,
    /// Requests that did not complete, diverged from the first round,
    /// or differ from the sequential oracle.
    pub failed: u64,
}

/// Sequential decode of one request: `step` feeds one token and returns
/// the next-token logits; the request's sampler draws from its own
/// seeded RNG, exactly as the engine does. The last sampled token is
/// not fed back.
fn sequential(req: &GenRequest, mut step: impl FnMut(u32) -> Vec<f32>) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(req.seed);
    let mut logits = Vec::new();
    for &t in &req.prompt {
        logits = step(t);
    }
    let mut out = Vec::with_capacity(req.max_new_tokens);
    loop {
        let next = req.sampler.sample(&logits, &mut rng);
        out.push(next);
        if out.len() >= req.max_new_tokens {
            return out;
        }
        logits = step(next);
    }
}

/// The oracle's tokens for `req`: `MambaModel::forward_step` on the FP
/// model, `QuantizedMamba::forward_step_with` on the W4A4 one.
fn expected(models: &Models, w4a4: bool, req: &GenRequest) -> Vec<u32> {
    const VALID: &str = "generated tokens are in range and the state is this model's";
    if w4a4 {
        let q = models.w4a4();
        let mut state = q.new_state();
        sequential(req, |t| q.forward_step_with(t, &mut state).expect(VALID))
    } else {
        let mut state = models.fp.new_state();
        sequential(req, |t| models.fp.forward_step(t, &mut state).expect(VALID))
    }
}

/// Which model index serves W4A4 in `workload`'s registry.
fn is_w4a4(workload: Workload, model: usize) -> bool {
    match workload.backends() {
        Backends::Fp => false,
        Backends::W4a4 => true,
        Backends::Both => model == 1,
    }
}

/// Checks the rounds of one workload. `rounds` holds each timed
/// round's completions; all rounds ran `requests`.
pub fn check(
    models: &Models,
    workload: Workload,
    requests: &[GenRequest],
    rounds: &[&[Completion]],
    seed: u64,
) -> Verdict {
    let mut verdict = Verdict::default();
    let Some(first) = rounds.first() else {
        return verdict;
    };
    let completed =
        |c: &Completion| matches!(c.finish, FinishReason::MaxTokens | FinishReason::Eos);
    let reference: HashMap<u64, &Completion> = first.iter().map(|c| (c.id, c)).collect();

    // Every request of every round: finished by generating, and equal
    // to its first-round self (fixed work means fixed outputs).
    for round in rounds {
        verdict.attempted += requests.len() as u64;
        let seen: HashMap<u64, &Completion> = round.iter().map(|c| (c.id, c)).collect();
        for req in requests {
            let ok = seen.get(&req.id).is_some_and(|c| {
                completed(c) && reference.get(&req.id).is_some_and(|r| r.tokens == c.tokens)
            });
            verdict.failed += u64::from(!ok);
        }
    }

    // A seeded sample per backend against the sequential path. A request
    // that did not complete is already counted above.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0c0f_fee0);
    let n_models = if workload.backends() == Backends::Both {
        2
    } else {
        1
    };
    for model in 0..n_models {
        let mut pool: Vec<&GenRequest> = requests.iter().filter(|r| r.model == model).collect();
        for _ in 0..SAMPLE_PER_BACKEND.min(pool.len()) {
            let req = pool.swap_remove(rng.gen_range(0..pool.len()));
            let expect = expected(models, is_w4a4(workload, model), req);
            let wrong = reference
                .get(&req.id)
                .is_some_and(|c| completed(c) && c.tokens != expect);
            verdict.failed += u64::from(wrong);
        }
    }
    verdict
}
