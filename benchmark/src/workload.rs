//! The five workloads: their sizes, engine settings and seeded request
//! lists. `paper_anchors` does no serving: it has no requests, engine or
//! rounds, and its work is the anchor pass of [`crate::anchors`].
//!
//! Work per round is fixed. `--seed` derives every token id, and on the
//! closed-loop workloads the order in which a fixed multiset of prompt
//! and output lengths is dealt to each block of [`DEAL_BLOCK`] requests,
//! so ten seeds run ten different schedules of the same total work.
//! Serving cost is shaped by lengths, not by token values; pinning the
//! multiset — per block, so that the first wave of a 16-slot pool, which
//! sets the TTFT tail, always holds the same lengths — keeps
//! seed-to-seed differences out of the run-to-run spread the regression
//! bounds are read against. `mixed_traffic` takes its arrival process
//! and lengths from [`TrafficGenerator`] under [`SHAPE_SEED`] and
//! re-draws the tokens from `--seed`, because near saturation its
//! queueing differs several-fold between arrival patterns.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lightmamba_model::MambaConfig;
use lightmamba_serve::engine::EngineConfig;
use lightmamba_serve::request::GenRequest;
use lightmamba_serve::scheduler::{Fifo, Policy, PriorityClasses};
use lightmamba_serve::traffic::{TrafficGenerator, TrafficScenario};

use crate::spec::WORKLOADS;

/// Seed of `mixed_traffic`'s arrival pattern and lengths.
pub const SHAPE_SEED: u64 = 7;

/// Shared system-prompt length of `shared_prefix`, in tokens.
pub const PREFIX_LEN: usize = 192;

/// Requests per block of the dealing: the largest slot pool.
const DEAL_BLOCK: usize = 16;

/// Distinct system prompts of `shared_prefix`.
const N_PREFIXES: usize = 3;

/// The benchmark model: the `bench_decode` configuration (~9 MB of FP32
/// weights, 1.1 MB packed), small enough to synthesize and quantize in
/// a fraction of a second, wide enough that a step streams weights.
pub fn model_config() -> MambaConfig {
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

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Workload {
    /// One client through the streaming frontend, W4A4, concurrency 1.
    SingleStream,
    /// Direct-drive closed loop, W4A4, 16 in flight.
    BatchDecode,
    /// Direct-drive closed loop, FP, shared system prompts, prefix cache.
    SharedPrefix,
    /// Open loop on the step clock, FP + W4A4, preemptive priorities.
    MixedTraffic,
    /// No serving: PTQ, fidelity, cycle model against the paper.
    PaperAnchors,
}

/// Work size: the full rounds `BENCHMARK.json` measures, or a quarter
/// of them for `--smoke`, the warm-up round and the package's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// About a quarter of the work.
    Smoke,
}

/// Which registered backends a workload serves from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backends {
    /// The FP reference only.
    Fp,
    /// The integer W4A4 model only.
    W4a4,
    /// Both on one slot pool: model 0 is FP, model 1 is W4A4.
    Both,
}

impl Workload {
    /// Every workload, in round-robin order (the order of
    /// [`crate::spec::WORKLOADS`]).
    pub const ALL: [Workload; 5] = [
        Workload::SingleStream,
        Workload::BatchDecode,
        Workload::SharedPrefix,
        Workload::MixedTraffic,
        Workload::PaperAnchors,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].name
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether requests go through `serve::engine` at all.
    pub fn is_serving(self) -> bool {
        self != Workload::PaperAnchors
    }

    /// The models the workload needs built: its registry's backends, or
    /// the FP reference the anchor pass quantizes itself.
    pub fn backends(self) -> Backends {
        match self {
            Workload::SingleStream | Workload::BatchDecode => Backends::W4a4,
            Workload::SharedPrefix | Workload::PaperAnchors => Backends::Fp,
            Workload::MixedTraffic => Backends::Both,
        }
    }

    /// Requests held in flight by the closed loop; `None` submits the
    /// whole list up front (open loop on the engine's step clock).
    pub fn concurrency(self) -> Option<usize> {
        match self {
            Workload::SingleStream => Some(1),
            Workload::BatchDecode => Some(16),
            Workload::SharedPrefix => Some(4),
            Workload::MixedTraffic | Workload::PaperAnchors => None,
        }
    }

    /// Engine limits of a serving workload. One host thread everywhere:
    /// engine thread plus at most one client thread is the 2-core
    /// reference host.
    pub fn engine_config(self) -> EngineConfig {
        let (slots, prefill_chunk, prefix_cache) = match self {
            Workload::PaperAnchors => unreachable!("paper_anchors builds no engine"),
            Workload::SingleStream => (1, 4, None),
            Workload::BatchDecode => (16, 4, None),
            Workload::SharedPrefix => (4, 8, Some(4)),
            Workload::MixedTraffic => (16, 4, Some(4)),
        };
        EngineConfig {
            slots,
            max_steps: 10_000_000,
            prefill_chunk,
            threads: 1,
            token_budget: None,
            prefix_cache,
        }
    }

    /// A fresh admission policy for one round.
    pub fn policy(self) -> Box<dyn Policy> {
        match self {
            Workload::MixedTraffic => Box::new(PriorityClasses::preemptive()),
            _ => Box::new(Fifo),
        }
    }

    /// The round's request list, a pure function of `(self, size, seed)`;
    /// empty on `paper_anchors`.
    pub fn requests(self, size: Size, seed: u64) -> Vec<GenRequest> {
        let vocab = model_config().vocab_size;
        let mut rng = StdRng::seed_from_u64(seed ^ (0x9e37_79b9 * (self as u64 + 1)));
        let quarter = |full: usize| match size {
            Size::Full => full,
            Size::Smoke => full / 4,
        };
        let mut tokens =
            |n: usize| -> Vec<u32> { (0..n).map(|_| rng.gen_range(0..vocab) as u32).collect() };
        match self {
            Workload::PaperAnchors => Vec::new(),
            // Fixed lengths: the paper's single-stream decode.
            Workload::SingleStream => (0..quarter(64))
                .map(|id| GenRequest::greedy(id as u64, tokens(16), 64))
                .collect(),
            // Four waves of the 16 slots: the first, which prefills 16
            // prompts at once, is a quarter of the list, so the median
            // TTFT sits among the requests admitted one at a time.
            Workload::BatchDecode => {
                let n = quarter(64);
                let prompts = dealt(&tokens(n), 8, 24);
                let outputs = dealt(&tokens(n), 48, 80);
                (0..n)
                    .map(|id| GenRequest::greedy(id as u64, tokens(prompts[id]), outputs[id]))
                    .collect()
            }
            Workload::SharedPrefix => {
                let n = quarter(128);
                let prefixes: Vec<Vec<u32>> = (0..N_PREFIXES).map(|_| tokens(PREFIX_LEN)).collect();
                let tails = dealt(&tokens(n), 4, 12);
                let outputs = dealt(&tokens(n), 4, 12);
                (0..n)
                    .map(|id| {
                        // Round-robin prefixes: the first wave covers all
                        // three, so exactly one wave of cold misses.
                        let mut prompt = prefixes[id % N_PREFIXES].clone();
                        prompt.extend(tokens(tails[id]));
                        GenRequest::greedy(id as u64, prompt, outputs[id])
                            .with_shared_prefix(PREFIX_LEN)
                    })
                    .collect()
            }
            Workload::MixedTraffic => {
                // Half the horizon in smoke rounds, not a quarter: the
                // first steps are ramp-up, and a quarter would end before
                // the pool fills and anything is preempted.
                let horizon = match size {
                    Size::Full => 120,
                    Size::Smoke => 60,
                };
                let mut reqs =
                    TrafficGenerator::new(TrafficScenario::mixed(0.35), vocab, SHAPE_SEED)
                        .with_models(2)
                        .generate(horizon);
                for r in &mut reqs {
                    r.prompt = tokens(r.prompt.len());
                    r.seed ^= seed;
                }
                reqs
            }
        }
    }
}

/// Deals to each block of [`DEAL_BLOCK`] keys that many lengths evenly
/// spaced over `lo..=hi`, in the order of the block's keys (seeded random
/// draws): a fixed multiset per block, a seeded order within it.
fn dealt(keys: &[u32], lo: usize, hi: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(keys.len());
    for block in keys.chunks(DEAL_BLOCK) {
        let n = block.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (block[i], i));
        let mut lengths = vec![0; n];
        for (rank, &i) in order.iter().enumerate() {
            lengths[i] = lo + rank * (hi - lo) / (n - 1).max(1);
        }
        out.extend(lengths);
    }
    out
}

/// FNV-1a digest of a request list: ids, models, lengths and tokens.
pub fn digest(requests: &[GenRequest]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in requests {
        eat(r.id);
        eat(r.model as u64);
        eat(r.arrival_step);
        eat(r.max_new_tokens as u64);
        eat(r.seed);
        eat(r.prompt.len() as u64);
        r.prompt.iter().for_each(|&t| eat(t as u64));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dealt_lengths_are_a_fixed_multiset_in_a_seeded_order() {
        let mut a = dealt(&[5, 1, 9, 3], 8, 24);
        let mut b = dealt(&[1, 9, 3, 5], 8, 24);
        assert_ne!(a, b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!((a[0], a[3]), (8, 24));
        // Every block of 16 holds the whole range.
        let keys: Vec<u32> = (0..40).map(|i| i * 7 % 11).collect();
        let two_and_a_half = dealt(&keys, 8, 24);
        for block in two_and_a_half.chunks(DEAL_BLOCK) {
            assert_eq!(block.iter().min(), Some(&8));
            assert_eq!(block.iter().max(), Some(&24));
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn total_work_is_the_same_for_every_seed() {
        for w in Workload::ALL.into_iter().filter(|w| w.is_serving()) {
            let work = |seed| -> (usize, usize) {
                let r = w.requests(Size::Full, seed);
                (
                    r.iter().map(|r| r.prompt.len()).sum(),
                    r.iter().map(|r| r.max_new_tokens).sum(),
                )
            };
            assert_eq!(work(1), work(2), "{}", w.name());
            assert_ne!(
                digest(&w.requests(Size::Full, 1)),
                digest(&w.requests(Size::Full, 2))
            );
        }
    }
}
