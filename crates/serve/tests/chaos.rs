//! Chaos across thread counts: the fault schedule is keyed to virtual
//! time, so a seeded storm fails, quarantines and completes exactly the
//! same requests at 1 and 4 worker threads. That every request retires
//! once, nothing leaks, and requests that dodge the faults are
//! bit-identical to a fault-free run is pinned by `differential.rs`.

use lightmamba_model::MambaModel;
use lightmamba_quant::QuantizedMamba;
use lightmamba_serve::backend::{FpBackend, W4A4Backend};
use lightmamba_serve::chaos::{ChaosBackend, FaultPlan};
use lightmamba_serve::engine::{EngineConfig, ServeEngine};
use lightmamba_serve::registry::ModelRegistry;
use lightmamba_serve::request::GenRequest;
use lightmamba_serve::resilience::ResilienceConfig;
use proptest::prelude::*;

mod common;
use common::{cfg, tiny_model, tiny_w4a4, workload};

/// The shared workload, its requests alternating between the two
/// registered models.
fn build_requests(spec: &[(u64, Vec<u32>, usize, u64)]) -> Vec<GenRequest> {
    let mut requests = common::build_requests(spec);
    for r in &mut requests {
        r.model = r.id as usize % 2;
    }
    requests
}

/// Two chaos-wrapped backends (FP and W4A4) firing independent seeded
/// schedules — faults land on either fault domain, never on the engine.
fn chaos_registry<'m>(
    model: &'m MambaModel,
    q: &QuantizedMamba,
    fault_seed: u64,
    rate: f64,
) -> ModelRegistry<'m> {
    let mut reg = ModelRegistry::new();
    reg.register(
        "fp",
        Box::new(ChaosBackend::new(
            Box::new(FpBackend::new(model)),
            FaultPlan::seeded(fault_seed, 400, rate),
        )),
    )
    .unwrap();
    reg.register(
        "w4a4",
        Box::new(ChaosBackend::new(
            Box::new(W4A4Backend::new(q.clone())),
            FaultPlan::seeded(fault_seed ^ 0x9e37_79b9, 400, rate),
        )),
    )
    .unwrap();
    reg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn thread_count_never_changes_chaos_outcomes(
        spec in workload(),
        slots in 2usize..5,
        fault_seed in 0u64..1_000,
        rate in 0.05f64..0.5,
    ) {
        // The fault schedule is keyed to virtual time, not wall clock:
        // a 4-thread engine must fail, quarantine, and complete exactly
        // what the sequential one does, token for token.
        let model = tiny_model();
        let q = tiny_w4a4(&model);
        let requests = build_requests(&spec);
        let run = |threads: usize| {
            let mut engine = ServeEngine::with_registry(
                chaos_registry(&model, &q, fault_seed, rate),
                EngineConfig { threads, ..cfg(slots, 2) },
            ).unwrap();
            engine.set_resilience(ResilienceConfig::default());
            engine.submit(requests.clone()).unwrap();
            let report = engine.run(&mut lightmamba_serve::scheduler::Fifo).unwrap();
            let mut done: Vec<_> = engine
                .completions()
                .iter()
                .map(|c| (c.id, c.finish, c.tokens.clone()))
                .collect();
            done.sort_by_key(|&(id, ..)| id);
            (report.failed, report.backend_faults, done)
        };
        let sequential = run(1);
        let threaded = run(4);
        prop_assert_eq!(sequential, threaded);
    }
}
