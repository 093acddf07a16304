//! Property-based pins of the serving policies' quality: EDF never hits
//! fewer deadlines than FIFO on equal-length jobs, and WFQ slot shares
//! converge to their weights (also under preemption churn and
//! cancellation). That EDF and preemptive EDF strictly win on the
//! deadline- and preemption-heavy scenarios is checked by `repro
//! serve-policy` / `serve-preempt` (asserted by the workspace's
//! `tests/experiment_shapes.rs`); outputs, slot conservation, token-
//! budget caps and the step stamps every policy must produce are
//! checked against the reference engine in `differential.rs`.

use lightmamba_serve::backend::FpBackend;
use lightmamba_serve::engine::{EngineConfig, ServeEngine};
use lightmamba_serve::registry::ModelRegistry;
use lightmamba_serve::request::GenRequest;
use lightmamba_serve::scheduler::{Edf, Fifo, Policy, WeightedFair};
use proptest::prelude::*;

mod common;
use common::{build_requests, cfg, tiny_model, workload};

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
            if steps.is_multiple_of(2) && next_cancel < cancel_mask.len() {
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
                if self.step.is_multiple_of(self.every) && !ctx.residents.is_empty() {
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

}
