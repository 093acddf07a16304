//! Property-based pins of the serving policies' quality: EDF never hits
//! fewer deadlines than FIFO on equal-length jobs and strictly beats it
//! on the deadline-heavy scenario, preemptive EDF strictly beats plain
//! EDF on the preemption-heavy one, WFQ slot shares converge to their
//! weights (also under preemption churn and cancellation), and every
//! policy keeps token-budget caps without starving a request. Outputs,
//! slot conservation and the step stamps every policy must produce are
//! checked against the reference engine in `differential.rs`.

use lightmamba_serve::backend::{FpBackend, W4A4Backend};
use lightmamba_serve::engine::{EngineConfig, ServeEngine};
use lightmamba_serve::registry::ModelRegistry;
use lightmamba_serve::request::GenRequest;
use lightmamba_serve::scheduler::{Edf, Fifo, Policy, WeightedFair};
use lightmamba_serve::traffic::{TrafficGenerator, TrafficScenario};
use proptest::prelude::*;

mod common;
use common::{build_requests, cfg, tiny_model, tiny_w4a4, workload};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn edf_never_completes_fewer_within_deadline_than_fifo(
        spec in proptest::collection::vec((0u64..3, 0u64..60), 1..16),
        slots in 1usize..4,
        chunk in 1usize..4,
    ) {
        // Equal-length jobs (same prompt and generation length for
        // every request): admitting the feasible earliest-deadline
        // request first is then an exchange-argument optimum, so EDF
        // (with pre-admission doomed eviction) can never hit fewer
        // deadlines than arrival-order admission on the same trace.
        // Deadlines under 8 steps encode "no deadline".
        let model = tiny_model();
        let mut arrival = 0u64;
        let requests: Vec<GenRequest> = spec
            .iter()
            .enumerate()
            .map(|(id, &(gap, deadline))| {
                arrival += gap;
                let mut r = GenRequest::greedy(id as u64, vec![(id % 100) as u32 + 1; 3], 4);
                r.arrival_step = arrival;
                r.deadline_steps = (deadline >= 8).then_some(deadline);
                r
            })
            .collect();
        let run = |policy: &mut dyn Policy| {
            let mut engine = ServeEngine::new(&model, cfg(slots, chunk)).unwrap();
            engine.submit(requests.clone()).unwrap();
            engine.run(policy).unwrap()
        };
        let fifo = run(&mut Fifo);
        let edf = run(&mut Edf::default());
        prop_assert_eq!(edf.deadline_total, fifo.deadline_total);
        prop_assert!(
            edf.deadline_hits >= fifo.deadline_hits,
            "edf hit {}/{} but fifo hit {}/{}",
            edf.deadline_hits,
            edf.deadline_total,
            fifo.deadline_hits,
            fifo.deadline_total
        );
    }

    #[test]
    fn wfq_slot_shares_converge_to_weights(weight in 1usize..5) {
        // Two identically-shaped models saturate one pool far beyond
        // the step budget; long-run processed-token shares must land on
        // weight / (weight + 1) — the WFQ contract.
        let model = tiny_model();
        let mut reg = ModelRegistry::new();
        reg.register("a", Box::new(FpBackend::new(&model))).unwrap();
        reg.register("b", Box::new(FpBackend::new(&model))).unwrap();
        let requests: Vec<GenRequest> = (0..600u64)
            .map(|id| GenRequest::greedy(id, vec![3; 2], 6).on_model((id % 2) as usize))
            .collect();
        let saturated = EngineConfig { max_steps: 400, ..cfg(6, 1) };
        let mut engine = ServeEngine::with_registry(reg, saturated).unwrap();
        engine.submit(requests).unwrap();
        let mut wfq = WeightedFair::new(vec![weight as f64, 1.0]);
        let report = engine.run(&mut wfq).unwrap();
        prop_assert!(engine.has_work(), "pool must stay saturated for shares to mean anything");
        let a = report.per_model[0].processed_tokens as f64;
        let b = report.per_model[1].processed_tokens as f64;
        let share = a / (a + b);
        let want = weight as f64 / (weight as f64 + 1.0);
        prop_assert!(
            (share - want).abs() < 0.1,
            "weight {} model took {:.3} of the pool, want {:.3}",
            weight,
            share,
            want
        );
    }

    #[test]
    fn wfq_accounting_stays_consistent_under_cancellation(
        spec in workload(),
        slots in 1usize..5,
        cancel_mask in proptest::collection::vec(any::<bool>(), 14),
    ) {
        // Cancelled requests vanish mid-service; WFQ's virtual-time
        // accounting must neither starve the survivors nor double-count
        // the departed: the run drains, every request retires exactly
        // once, and per-step sub-batch traces still partition the batch.
        let model = tiny_model();
        let mut reg = ModelRegistry::new();
        reg.register("a", Box::new(FpBackend::new(&model))).unwrap();
        reg.register("b", Box::new(FpBackend::new(&model))).unwrap();
        let mut requests = build_requests(&spec);
        for r in &mut requests {
            r.model = (r.id % 2) as usize;
        }
        let n = requests.len();
        let mut engine = ServeEngine::with_registry(reg, cfg(slots, 1)).unwrap();
        engine.submit(requests).unwrap();
        let mut wfq = WeightedFair::equal();
        let mut steps = 0u64;
        let mut next_cancel = 0usize;
        while engine.has_work() && steps < 200_000 {
            if steps % 2 == 0 && next_cancel < cancel_mask.len() {
                if cancel_mask[next_cancel] {
                    engine.cancel(next_cancel as u64);
                }
                next_cancel += 1;
            }
            engine.step(&mut wfq).unwrap();
            steps += 1;
        }
        prop_assert!(!engine.has_work(), "WFQ must drain despite cancellations");
        let report = engine.report(&wfq);
        prop_assert_eq!(report.completed + report.cancellations + report.evicted, n);
        for (sub, &total) in report
            .trace
            .sub_processed_per_step
            .iter()
            .zip(&report.trace.processed_per_step)
        {
            prop_assert_eq!(sub.iter().sum::<usize>(), total);
        }
    }

    #[test]
    fn wfq_shares_still_converge_under_preemption_churn(churn_every in 2usize..6) {
        // WFQ charges service to slot-holders only, so a steady drip of
        // pause/resume churn (which never changes *who* is entitled to
        // slots, only bounces residents through the paused queue) must
        // leave the long-run 3:1 share intact.
        struct ChurnWfq {
            wfq: WeightedFair,
            every: usize,
            step: usize,
        }
        impl Policy for ChurnWfq {
            fn select(&mut self, ctx: &lightmamba_serve::scheduler::AdmissionCtx<'_>) -> Vec<usize> {
                self.wfq.select(ctx)
            }
            fn preempt(&mut self, ctx: &lightmamba_serve::scheduler::AdmissionCtx<'_>) -> Vec<usize> {
                self.step += 1;
                if self.step % self.every == 0 && !ctx.residents.is_empty() {
                    vec![self.step % ctx.residents.len()]
                } else {
                    Vec::new()
                }
            }
            fn name(&self) -> &'static str {
                "churn-wfq"
            }
        }
        let model = tiny_model();
        let mut reg = ModelRegistry::new();
        reg.register("a", Box::new(FpBackend::new(&model))).unwrap();
        reg.register("b", Box::new(FpBackend::new(&model))).unwrap();
        let requests: Vec<GenRequest> = (0..600u64)
            .map(|id| GenRequest::greedy(id, vec![3; 2], 6).on_model((id % 2) as usize))
            .collect();
        let saturated = EngineConfig { max_steps: 400, ..cfg(6, 1) };
        let mut engine = ServeEngine::with_registry(reg, saturated).unwrap();
        engine.submit(requests).unwrap();
        let mut policy = ChurnWfq {
            wfq: WeightedFair::new(vec![3.0, 1.0]),
            every: churn_every,
            step: 0,
        };
        let report = engine.run(&mut policy).unwrap();
        prop_assert!(engine.has_work(), "pool must stay saturated");
        prop_assert!(report.preemptions > 0, "churn must actually preempt");
        let a = report.per_model[0].processed_tokens as f64;
        let b = report.per_model[1].processed_tokens as f64;
        let share = a / (a + b);
        prop_assert!(
            (share - 0.75).abs() < 0.12,
            "weight-3 model took {:.3} of the pool under churn (want ≈ 0.75, {} preemptions)",
            share,
            report.preemptions
        );
    }

    #[test]
    fn token_budget_caps_hold_and_no_request_starves_under_every_policy(
        spec in workload(),
        slots in 1usize..5,
        prefill_cap in 5usize..24,
        total_cap in 12usize..60,
        chunk in 1usize..5,
    ) {
        // For every admission policy and an arbitrary budget at least as
        // wide as one request (the valve covers narrower ones): no step
        // ever feeds more prefill tokens than the cap, no step ever
        // holds more resident footprint than the total cap, the deferral
        // counters reconcile, and every request still completes —
        // deferral is backpressure, never starvation.
        use lightmamba_serve::scheduler::{policy_by_name, TokenBudget, POLICY_NAMES};
        let model = tiny_model();
        let requests = build_requests(&spec);
        let n = requests.len();
        let budget = TokenBudget::new(prefill_cap, total_cap).unwrap();
        for name in POLICY_NAMES {
            let mut policy = policy_by_name(name).unwrap();
            let mut engine = ServeEngine::new(
                &model,
                EngineConfig {
                    token_budget: Some(budget),
                    ..cfg(slots, chunk)
                },
            ).unwrap();
            engine.submit(requests.clone()).unwrap();
            let report = engine.run(policy.as_mut()).unwrap();

            prop_assert_eq!(report.completed, n, "{}: a request starved", name);
            for (t, &fed) in report.trace.prefill_per_step.iter().enumerate() {
                prop_assert!(
                    fed <= prefill_cap,
                    "{}: step {} fed {} prefill tokens past the {} cap",
                    name, t, fed, prefill_cap
                );
            }
            for (t, &resident) in report.trace.resident_tokens_per_step.iter().enumerate() {
                prop_assert!(
                    resident <= total_cap,
                    "{}: step {} held {} resident tokens past the {} cap",
                    name, t, resident, total_cap
                );
            }
            prop_assert_eq!(
                report.budget_deferrals,
                report
                    .trace
                    .budget_deferred_per_step
                    .iter()
                    .map(|&d| d as u64)
                    .sum::<u64>()
            );
        }
    }
}

/// The bench acceptance pin: on the deadline-heavy scenario (the exact
/// workload the `serve-policy` experiment runs, shortened), EDF's
/// deadline-hit-rate strictly beats FIFO's, under chunked prefill.
#[test]
fn edf_strictly_beats_fifo_on_the_deadline_heavy_scenario() {
    let model = tiny_model();
    let q = tiny_w4a4(&model);
    let run = |policy: &mut dyn Policy| {
        let mut reg = ModelRegistry::new();
        reg.register("fp", Box::new(FpBackend::new(&model)))
            .unwrap();
        reg.register("w4a4", Box::new(W4A4Backend::new(q.clone())))
            .unwrap();
        let mut traffic = TrafficGenerator::new(
            TrafficScenario::deadline_heavy(0.5),
            model.config().vocab_size,
            7,
        )
        .with_models(2);
        let mut engine = ServeEngine::with_registry(reg, cfg(16, 4)).unwrap();
        engine.submit(traffic.generate(150)).unwrap();
        engine.run(policy).unwrap()
    };
    let fifo = run(&mut Fifo);
    let edf = run(&mut Edf::default());
    assert_eq!(fifo.deadline_total, edf.deadline_total);
    assert!(fifo.deadline_total > 0);
    assert!(
        edf.deadline_hit_rate() > fifo.deadline_hit_rate(),
        "edf {:?} must strictly beat fifo {:?}",
        edf.deadline_hit_rate(),
        fifo.deadline_hit_rate()
    );
}

/// The preemption acceptance pin: on the preemption-heavy scenario (the
/// exact workload the `serve-preempt` experiment runs, shortened), EDF with
/// pause/resume strictly beats non-preemptive EDF on deadline hit rate
/// — reordering the queue cannot save a tight deadline while
/// deadline-free hogs camp on every slot; pausing one can.
#[test]
fn preemptive_edf_strictly_beats_plain_edf_on_the_preemption_heavy_scenario() {
    let model = tiny_model();
    let q = tiny_w4a4(&model);
    let run = |policy: &mut dyn Policy| {
        let mut reg = ModelRegistry::new();
        reg.register("fp", Box::new(FpBackend::new(&model)))
            .unwrap();
        reg.register("w4a4", Box::new(W4A4Backend::new(q.clone())))
            .unwrap();
        let mut traffic = TrafficGenerator::new(
            TrafficScenario::preemption_heavy(0.6),
            model.config().vocab_size,
            7,
        )
        .with_models(2);
        let mut engine = ServeEngine::with_registry(reg, cfg(8, 4)).unwrap();
        engine.submit(traffic.generate(200)).unwrap();
        engine.run(policy).unwrap()
    };
    let plain = run(&mut Edf::default());
    let pre = run(&mut Edf::preemptive());
    assert_eq!(plain.deadline_total, pre.deadline_total);
    assert!(plain.deadline_total > 0);
    assert_eq!(plain.preemptions, 0, "plain EDF must never pause anyone");
    assert!(pre.preemptions > 0, "the scenario must actually preempt");
    assert!(
        pre.deadline_hit_rate() > plain.deadline_hit_rate(),
        "preemptive {:?} must strictly beat plain {:?} ({} preemptions, resume p50 {:.1})",
        pre.deadline_hit_rate(),
        plain.deadline_hit_rate(),
        pre.preemptions,
        pre.resume_latency_steps.p50,
    );
}
