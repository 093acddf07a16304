//! Fixtures shared by the serve crate's integration suites: the tiny FP
//! / W4A4 model pair, random request workloads, a FIFO policy driven by
//! an arbitrary preemption schedule, and the reference engine the
//! differential suite checks against. Each suite uses a subset.

#![allow(dead_code)]

pub mod reference;

use lightmamba_model::{MambaConfig, MambaModel};
use lightmamba_quant::pipeline::{quantize_model, Method, QuantSpec};
use lightmamba_quant::QuantizedMamba;
use lightmamba_serve::engine::EngineConfig;
use lightmamba_serve::request::GenRequest;
use lightmamba_serve::scheduler::{AdmissionCtx, Policy};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn tiny_model() -> MambaModel {
    MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(9)).unwrap()
}

pub fn tiny_w4a4(model: &MambaModel) -> QuantizedMamba {
    quantize_model(model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap()
}

/// `slots` slots and a prefill chunk of `chunk`, otherwise defaults.
pub fn cfg(slots: usize, chunk: usize) -> EngineConfig {
    EngineConfig {
        slots,
        prefill_chunk: chunk,
        ..Default::default()
    }
}

/// Random request workloads: (arrival gap, prompt len, gen len, seed).
pub fn workload() -> impl Strategy<Value = Vec<(u64, Vec<u32>, usize, u64)>> {
    proptest::collection::vec(
        (
            0u64..4,
            proptest::collection::vec(0u32..256, 1..6),
            1usize..6,
            0u64..1_000_000,
        ),
        1..14,
    )
}

pub fn build_requests(spec: &[(u64, Vec<u32>, usize, u64)]) -> Vec<GenRequest> {
    let mut arrival = 0u64;
    spec.iter()
        .enumerate()
        .map(|(id, (gap, prompt, gen_len, seed))| {
            arrival += gap;
            let mut r = GenRequest::greedy(id as u64, prompt.clone(), *gen_len);
            r.arrival_step = arrival;
            r.seed = *seed;
            r
        })
        .collect()
}

/// FIFO admission plus an arbitrary preemption schedule: each step
/// pauses `count` residents starting at a rotating `offset` (both taken
/// from the generated schedule, cycled). Used to pin that *no*
/// pause/resume interleaving can change outputs or leak slots.
pub struct ChurnFifo {
    schedule: Vec<(usize, usize)>,
    step: usize,
}

impl ChurnFifo {
    pub fn new(schedule: Vec<(usize, usize)>) -> Self {
        ChurnFifo {
            schedule: if schedule.is_empty() {
                vec![(0, 0)]
            } else {
                schedule
            },
            step: 0,
        }
    }
}

impl Policy for ChurnFifo {
    fn select(&mut self, ctx: &AdmissionCtx<'_>) -> Vec<usize> {
        (0..ctx.n_candidates().min(ctx.free_slots)).collect()
    }

    fn preempt(&mut self, ctx: &AdmissionCtx<'_>) -> Vec<usize> {
        let (count, offset) = self.schedule[self.step % self.schedule.len()];
        self.step += 1;
        let n = ctx.residents.len();
        if n == 0 {
            return Vec::new();
        }
        (0..count.min(n)).map(|k| (offset + k) % n).collect()
    }

    fn name(&self) -> &'static str {
        "churn-fifo"
    }
}
