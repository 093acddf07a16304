//! Chaos proptests: seeded fault injection crossed with preemption
//! churn, client cancellation, session turns, bounded-queue shedding,
//! and worker-thread counts. The pins: the engine never dies, every
//! submitted request retires exactly once with a terminal reason, no
//! slot / paused state / parked resume survives the drain, requests
//! that dodge the faults are bit-identical to a fault-free run, and
//! the thread count changes no outcome.

use std::collections::HashMap;

use lightmamba_model::MambaModel;
use lightmamba_quant::QuantizedMamba;
use lightmamba_serve::backend::{FpBackend, W4A4Backend};
use lightmamba_serve::chaos::{ChaosBackend, FaultPlan};
use lightmamba_serve::engine::{EngineConfig, ServeEngine};
use lightmamba_serve::registry::ModelRegistry;
use lightmamba_serve::request::{FinishReason, GenRequest};
use lightmamba_serve::resilience::ResilienceConfig;
use proptest::prelude::*;

mod common;
use common::{cfg, churn_schedule, tiny_model, tiny_w4a4, workload, ChurnFifo};

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

fn terminal_sum(report: &lightmamba_serve::metrics::ServeReport) -> usize {
    report.completed + report.cancellations + report.evicted + report.failed + report.rejected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chaos_schedules_leak_nothing_and_retire_every_request_exactly_once(
        spec in workload(),
        slots in 1usize..5,
        schedule in churn_schedule(),
        cancel_mask in proptest::collection::vec(any::<bool>(), 14),
        cancel_gap in 1u64..6,
        fault_seed in 0u64..1_000,
        rate in 0.05f64..0.5,
        threads in prop_oneof![Just(1usize), Just(4usize)],
        queue_limit_raw in 0usize..8,
    ) {
        // 0 and 1 mean "unbounded"; anything else bounds the queue.
        let queue_limit = (queue_limit_raw >= 2).then_some(queue_limit_raw);
        // The full storm at once: injected errors, panics, latency
        // spikes and restore corruption on both backends, crossed with
        // preemption churn, mid-flight cancellation, session turns, an
        // optionally bounded queue, and 1 vs 4 worker threads.
        let model = tiny_model();
        let q = tiny_w4a4(&model);
        let mut requests = build_requests(&spec);
        for r in &mut requests {
            if r.id % 3 == 0 {
                r.session = Some(r.id / 3);
            }
        }
        let n = requests.len();
        let mut engine = ServeEngine::with_registry(
            chaos_registry(&model, &q, fault_seed, rate),
            EngineConfig { threads, ..cfg(slots, 2) },
        ).unwrap();
        engine.set_resilience(ResilienceConfig {
            queue_limit,
            ..ResilienceConfig::default()
        });
        engine.submit(requests).unwrap();
        let mut policy = ChurnFifo::new(schedule);
        let mut steps = 0u64;
        let mut next_cancel = 0usize;
        while engine.has_work() && steps < 10_000 {
            if steps % cancel_gap == 0 && next_cancel < cancel_mask.len() {
                if cancel_mask[next_cancel] {
                    engine.cancel(next_cancel as u64);
                }
                next_cancel += 1;
            }
            engine.step(&mut policy).unwrap();
            steps += 1;
            // No hang and no leak at any step boundary, faults or not.
            prop_assert_eq!(
                engine.free_slots() + engine.active_count(),
                engine.capacity()
            );
            prop_assert!(engine.active_count() <= slots);
        }
        // The engine survived the whole schedule and drained: the
        // fault horizon (400) and the deepest quarantine backoff (64)
        // are both far under the step cap.
        prop_assert!(!engine.has_work(), "chaos run must drain, not hang");
        prop_assert_eq!(engine.free_slots(), engine.capacity());
        prop_assert_eq!(engine.paused_count(), 0);
        prop_assert_eq!(engine.pending_resumes(), 0);

        // Exactly-once reporting: every submitted id retires exactly
        // once, with a terminal reason, and the report's terminal
        // counters partition the request set.
        prop_assert_eq!(engine.completions().len(), n);
        let mut ids: Vec<u64> = engine.completions().iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), n, "an id retired more than once");
        for c in engine.completions() {
            match c.finish {
                FinishReason::Rejected => {
                    prop_assert!(c.tokens.is_empty(), "shed requests never ran");
                    prop_assert!(c.retry_after_steps.is_some());
                }
                FinishReason::MaxTokens | FinishReason::Eos => {
                    prop_assert!(c.retry_after_steps.is_none());
                }
                _ => {}
            }
        }
        let report = engine.report(&policy);
        prop_assert_eq!(terminal_sum(&report), n);
        if queue_limit.is_none() {
            prop_assert_eq!(report.rejected, 0, "an unbounded queue never sheds");
        }
    }

    #[test]
    fn requests_that_dodge_the_faults_are_bit_identical_to_a_fault_free_run(
        spec in workload(),
        slots in 1usize..5,
        fault_seed in 0u64..1_000,
        rate in 0.0f64..0.4,
    ) {
        // Fault injection may fail a request or delay it behind a
        // quarantine — it must never *alter* one. Every request the
        // chaotic run completes carries exactly the tokens the
        // fault-free run produces (rate 0 degenerates to full equality,
        // pinning that the armed chaos layer is transparent).
        let model = tiny_model();
        let q = tiny_w4a4(&model);
        let requests = build_requests(&spec);
        let n = requests.len();
        let run = |plan_rate: f64| {
            let mut engine = ServeEngine::with_registry(
                chaos_registry(&model, &q, fault_seed, plan_rate),
                cfg(slots, 2),
            ).unwrap();
            engine.set_resilience(ResilienceConfig::default());
            engine.submit(requests.clone()).unwrap();
            let report = engine.run(&mut lightmamba_serve::scheduler::Fifo).unwrap();
            let out: Vec<_> = engine.completions().to_vec();
            (report, out)
        };
        let (clean_report, clean) = run(0.0);
        prop_assert_eq!(clean_report.completed, n, "fault-free run completes everything");
        prop_assert_eq!(clean_report.backend_faults, 0);
        let reference: HashMap<u64, &Vec<u32>> =
            clean.iter().map(|c| (c.id, &c.tokens)).collect();

        let (chaos_report, chaotic) = run(rate);
        prop_assert_eq!(terminal_sum(&chaos_report), n);
        for c in &chaotic {
            if matches!(c.finish, FinishReason::MaxTokens | FinishReason::Eos) {
                prop_assert_eq!(
                    &&c.tokens,
                    reference.get(&c.id).expect("same id space"),
                    "request {} diverged under fault injection", c.id
                );
            }
        }
    }

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
