//! Property-based invariants of the serving subsystem: FIFO liveness,
//! slot conservation (single- and multi-model, with and without
//! preemption churn), batched/sequential equivalence for both the FP
//! and the W4A4 quantized backends, pause/resume bit-identity under
//! arbitrary preemption schedules, EDF deadline dominance over FIFO,
//! preemptive-EDF dominance over plain EDF on the preemption-heavy
//! scenario, WFQ slot-share convergence, session-resume bit-identity
//! with full-history re-prefill on both backends, and slot/state
//! conservation under arbitrary interleavings of cancellation,
//! preemption churn, and session resume.

use lightmamba_model::eval::StepModel;
use lightmamba_model::{batch, DecodeWorkspace, MambaModel};
use lightmamba_serve::backend::{DecodeBackend, FpBackend, W4A4Backend};
use lightmamba_serve::engine::{EngineConfig, ServeEngine};
use lightmamba_serve::registry::ModelRegistry;
use lightmamba_serve::request::{FinishReason, GenRequest};
use lightmamba_serve::scheduler::{
    Edf, Fifo, Policy, PriorityClasses, StaticBatching, WeightedFair,
};
use lightmamba_serve::traffic::{TrafficGenerator, TrafficScenario};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::{build_requests, churn_schedule, tiny_model, tiny_w4a4, workload, ChurnFifo};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn no_request_starves_under_fifo(spec in workload(), slots in 1usize..5) {
        let model = tiny_model();
        let requests = build_requests(&spec);
        let n = requests.len();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig { slots, max_steps: 200_000, prefill_chunk: 1, threads: 1 ,
..Default::default()
},
        ).unwrap();
        engine.submit(requests).unwrap();
        let report = engine.run(&mut Fifo).unwrap();

        // Liveness: every submitted request completes.
        prop_assert_eq!(report.completed, n);
        prop_assert_eq!(report.evicted, 0);
        prop_assert!(!engine.has_work());

        // FIFO: requests are admitted in id order (ids are arrival-sorted).
        let mut admissions: Vec<(u64, u64)> = engine
            .completions()
            .iter()
            .map(|c| (c.admitted_step.expect("completed implies admitted"), c.id))
            .collect();
        admissions.sort();
        let ids: Vec<u64> = admissions.iter().map(|&(_, id)| id).collect();
        let mut sorted_ids = ids.clone();
        sorted_ids.sort();
        prop_assert_eq!(ids, sorted_ids);
    }

    #[test]
    fn slots_are_conserved_across_join_and_evict(spec in workload(), slots in 1usize..5) {
        let model = tiny_model();
        let requests = build_requests(&spec);
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig { slots, max_steps: 200_000, prefill_chunk: 1, threads: 1 ,
..Default::default()
},
        ).unwrap();
        engine.submit(requests).unwrap();
        let mut sched = Fifo;
        let mut steps = 0u64;
        while engine.has_work() && steps < 200_000 {
            engine.step(&mut sched).unwrap();
            steps += 1;
            // Conservation at every step boundary, while sequences join
            // and leave mid-flight.
            prop_assert_eq!(
                engine.free_slots() + engine.active_count(),
                engine.capacity()
            );
            prop_assert!(engine.active_count() <= slots);
        }
        // Drained: every slot is back in the pool.
        prop_assert_eq!(engine.free_slots(), engine.capacity());
    }

    #[test]
    fn batched_step_matches_sequential_bit_for_bit(
        prompts in proptest::collection::vec(
            proptest::collection::vec(0u32..256, 1..8),
            1..6,
        ),
        gen_len in 1usize..6,
    ) {
        let model = tiny_model();

        // Sequential single-stream reference.
        let mut expected = Vec::new();
        for p in &prompts {
            let mut state = model.new_state();
            let mut logits = model.prefill(p, &mut state).unwrap();
            let mut toks = Vec::new();
            for _ in 0..gen_len {
                let t = MambaModel::argmax(&logits) as u32;
                toks.push(t);
                logits = model.forward_step(t, &mut state).unwrap();
            }
            expected.push(toks);
        }

        // Batched decode of all sequences together.
        let mut states: Vec<_> = prompts.iter().map(|_| model.new_state()).collect();
        let ragged: Vec<(usize, &[u32])> =
            prompts.iter().map(|p| p.as_slice()).enumerate().collect();
        let mut ws = DecodeWorkspace::new();
        let mut logits = batch::advance(&model, &ragged, &mut states, None, &mut ws).unwrap();
        let mut got: Vec<Vec<u32>> = vec![Vec::new(); prompts.len()];
        for _ in 0..gen_len {
            let items: Vec<(usize, u32)> = logits
                .iter()
                .enumerate()
                .map(|(k, l)| (k, MambaModel::argmax(l) as u32))
                .collect();
            for &(k, t) in &items {
                got[k].push(t);
            }
            batch::step(&model, &items, None, &mut states, None, &mut ws).unwrap();
            logits = ws.logits().to_vec();
        }

        prop_assert_eq!(got, expected);
    }

    #[test]
    fn w4a4_batched_decode_matches_sequential_bit_for_bit(
        prompts in proptest::collection::vec(
            proptest::collection::vec(0u32..256, 1..8),
            1..5,
        ),
        gen_len in 1usize..5,
    ) {
        let model = tiny_model();
        let mut q = tiny_w4a4(&model);
        let backend = W4A4Backend::new(q.clone());

        // Sequential reference: QuantizedMamba's own StepModel decode.
        let mut expected = Vec::new();
        for p in &prompts {
            q.reset();
            let mut logits = Vec::new();
            for &t in p {
                logits = q.step(t).unwrap();
            }
            let mut toks = Vec::new();
            for _ in 0..gen_len {
                let t = MambaModel::argmax(&logits) as u32;
                toks.push(t);
                logits = q.step(t).unwrap();
            }
            expected.push(toks);
        }

        // Batched decode through the backend trait over external states.
        let mut states: Vec<_> = prompts.iter().map(|_| backend.new_state()).collect();
        let slices: Vec<(usize, &[u32])> =
            prompts.iter().map(|p| p.as_slice()).enumerate().collect();
        let mut logits = backend.advance_batch_indexed(&slices, &mut states).unwrap();
        let mut got: Vec<Vec<u32>> = vec![Vec::new(); prompts.len()];
        for _ in 0..gen_len {
            let next: Vec<u32> = logits
                .iter()
                .map(|(_, l)| MambaModel::argmax(l) as u32)
                .collect();
            for (k, &t) in next.iter().enumerate() {
                got[k].push(t);
            }
            let items: Vec<(usize, &[u32])> = next
                .iter()
                .enumerate()
                .map(|(k, t)| (k, std::slice::from_ref(t)))
                .collect();
            logits = backend.advance_batch_indexed(&items, &mut states).unwrap();
        }

        prop_assert_eq!(got, expected);
    }

    #[test]
    fn slots_are_conserved_when_two_models_multiplex(
        spec in workload(),
        slots in 1usize..5,
    ) {
        let model = tiny_model();
        let q = tiny_w4a4(&model);
        let mut reg = ModelRegistry::new();
        reg.register("fp", Box::new(FpBackend::new(&model))).unwrap();
        reg.register("w4a4", Box::new(W4A4Backend::new(q))).unwrap();

        let mut requests = build_requests(&spec);
        for r in &mut requests {
            r.model = (r.id % 2) as usize; // interleave the two backends
        }
        let n = requests.len();
        let mut engine = ServeEngine::with_registry(
            reg,
            EngineConfig { slots, max_steps: 200_000, prefill_chunk: 1, threads: 1 ,
..Default::default()
},
        ).unwrap();
        engine.submit(requests).unwrap();
        let mut sched = Fifo;
        let mut steps = 0u64;
        while engine.has_work() && steps < 200_000 {
            engine.step(&mut sched).unwrap();
            steps += 1;
            // Conservation at every step boundary while two models'
            // sequences join and leave one shared pool.
            prop_assert_eq!(
                engine.free_slots() + engine.active_count(),
                engine.capacity()
            );
            prop_assert!(engine.active_count() <= slots);
        }
        prop_assert_eq!(engine.free_slots(), engine.capacity());
        let report = engine.report(&sched);
        prop_assert_eq!(report.completed, n);
        // Per-model accounting covers every request exactly once.
        prop_assert_eq!(
            report.per_model.iter().map(|m| m.completed).sum::<usize>(),
            n
        );
        // Sub-batch traces partition each step's token-advances.
        for (sub, &total) in report
            .trace
            .sub_processed_per_step
            .iter()
            .zip(&report.trace.processed_per_step)
        {
            prop_assert_eq!(sub.len(), 2);
            prop_assert_eq!(sub.iter().sum::<usize>(), total);
        }
    }

    #[test]
    fn policy_choice_never_changes_outputs(spec in workload(), slots in 1usize..5) {
        let model = tiny_model();
        let requests = build_requests(&spec);
        let run = |sched: &mut dyn Policy| {
            let mut engine = ServeEngine::new(
                &model,
                EngineConfig { slots, max_steps: 200_000, prefill_chunk: 1, threads: 1 ,
..Default::default()
},
            ).unwrap();
            engine.submit(requests.clone()).unwrap();
            engine.run(sched).unwrap();
            let mut out: Vec<(u64, Vec<u32>)> = engine
                .completions()
                .iter()
                .map(|c| (c.id, c.tokens.clone()))
                .collect();
            out.sort();
            out
        };
        let fifo = run(&mut Fifo);
        prop_assert_eq!(&fifo, &run(&mut StaticBatching));
        prop_assert_eq!(&fifo, &run(&mut Edf::default()));
        prop_assert_eq!(&fifo, &run(&mut PriorityClasses::default()));
        prop_assert_eq!(&fifo, &run(&mut WeightedFair::equal()));
    }

    #[test]
    fn chunked_prefill_never_changes_outputs(spec in workload(), slots in 1usize..5) {
        // The pinned invariant under the chunked-prefill rework:
        // per-request outputs are bit-identical for every chunk size.
        let model = tiny_model();
        let requests = build_requests(&spec);
        let run = |chunk: usize| {
            let mut engine = ServeEngine::new(
                &model,
                EngineConfig { slots, max_steps: 200_000, prefill_chunk: chunk, threads: 1 ,
..Default::default()
},
            ).unwrap();
            engine.submit(requests.clone()).unwrap();
            engine.run(&mut Fifo).unwrap();
            let mut out: Vec<(u64, Vec<u32>)> = engine
                .completions()
                .iter()
                .map(|c| (c.id, c.tokens.clone()))
                .collect();
            out.sort();
            out
        };
        let flat = run(1);
        prop_assert_eq!(&flat, &run(3));
        prop_assert_eq!(&flat, &run(16));
    }

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
            let mut engine = ServeEngine::new(
                &model,
                EngineConfig { slots, max_steps: 50_000, prefill_chunk: chunk, threads: 1 ,
..Default::default()
},
            ).unwrap();
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
        let mut engine = ServeEngine::with_registry(
            reg,
            EngineConfig { slots: 6, max_steps: 400, prefill_chunk: 1, threads: 1 ,
..Default::default()
},
        ).unwrap();
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
    fn pause_resume_never_changes_outputs_on_either_backend(
        spec in workload(),
        slots in 1usize..5,
        schedule in churn_schedule(),
        chunk in 1usize..4,
    ) {
        // The tentpole pin: under an *arbitrary* preemption schedule —
        // any victims, any step, including pause-then-resume within one
        // step — every request's tokens equal its model's uninterrupted
        // sequential decode, for the FP and the W4A4 backend alike.
        let model = tiny_model();
        let q = tiny_w4a4(&model);
        let mut reg = ModelRegistry::new();
        reg.register("fp", Box::new(FpBackend::new(&model))).unwrap();
        reg.register("w4a4", Box::new(W4A4Backend::new(q.clone()))).unwrap();
        let mut requests = build_requests(&spec);
        for r in &mut requests {
            r.model = (r.id % 2) as usize;
        }
        let n = requests.len();
        let mut engine = ServeEngine::with_registry(
            reg,
            EngineConfig { slots, max_steps: 200_000, prefill_chunk: chunk, threads: 1 ,
..Default::default()
},
        ).unwrap();
        engine.submit(requests.clone()).unwrap();
        let report = engine.run(&mut ChurnFifo::new(schedule)).unwrap();
        prop_assert_eq!(report.completed, n);

        let mut q_seq = q.clone();
        for req in &requests {
            let done = engine
                .completions()
                .iter()
                .find(|c| c.id == req.id)
                .expect("every request completes");
            let mut rng = StdRng::seed_from_u64(req.seed);
            let expect = if req.model == 0 {
                let mut state = model.new_state();
                let mut logits = model.prefill(&req.prompt, &mut state).unwrap();
                let mut toks = Vec::new();
                for _ in 0..req.max_new_tokens {
                    let t = req.sampler.sample(&logits, &mut rng);
                    toks.push(t);
                    logits = model.forward_step(t, &mut state).unwrap();
                }
                toks
            } else {
                q_seq.reset();
                let mut logits = Vec::new();
                for &t in &req.prompt {
                    logits = q_seq.step(t).unwrap();
                }
                let mut toks = Vec::new();
                for _ in 0..req.max_new_tokens {
                    let t = req.sampler.sample(&logits, &mut rng);
                    toks.push(t);
                    logits = q_seq.step(t).unwrap();
                }
                toks
            };
            prop_assert_eq!(
                &done.tokens,
                &expect,
                "request {} (model {}) diverged under preemption churn",
                req.id,
                req.model
            );
        }
    }

    #[test]
    fn slots_are_conserved_under_arbitrary_pause_resume_interleavings(
        spec in workload(),
        slots in 1usize..5,
        schedule in churn_schedule(),
    ) {
        // No slot leaked, no sequence lost, every request accounted for
        // exactly once — while sequences bounce between resident and
        // paused at the schedule's whim, across two multiplexed models.
        let model = tiny_model();
        let q = tiny_w4a4(&model);
        let mut reg = ModelRegistry::new();
        reg.register("fp", Box::new(FpBackend::new(&model))).unwrap();
        reg.register("w4a4", Box::new(W4A4Backend::new(q))).unwrap();
        let mut requests = build_requests(&spec);
        for r in &mut requests {
            r.model = (r.id % 2) as usize;
        }
        let n = requests.len();
        let mut engine = ServeEngine::with_registry(
            reg,
            EngineConfig { slots, max_steps: 200_000, prefill_chunk: 1, threads: 1 ,
..Default::default()
},
        ).unwrap();
        engine.submit(requests).unwrap();
        let mut policy = ChurnFifo::new(schedule);
        let mut steps = 0u64;
        while engine.has_work() && steps < 200_000 {
            engine.step(&mut policy).unwrap();
            steps += 1;
            // Paused sequences hold no slot: residency alone must
            // account for the pool at every step boundary.
            prop_assert_eq!(
                engine.free_slots() + engine.active_count(),
                engine.capacity()
            );
            prop_assert!(engine.active_count() <= slots);
            // No sequence lost: everything is exactly one of finished,
            // resident, paused, or not-yet-admitted.
            prop_assert!(
                engine.completions().len() + engine.active_count() + engine.paused_count() <= n
            );
        }
        prop_assert_eq!(engine.free_slots(), engine.capacity());
        prop_assert_eq!(engine.paused_count(), 0);
        let report = engine.report(&policy);
        prop_assert_eq!(report.completed, n);
        // Pause/resume bookkeeping balances once the engine drains.
        prop_assert_eq!(report.preemptions, report.resumes);
        let moves: usize = report.trace.state_moves_per_step.iter().sum();
        prop_assert_eq!(moves as u64, report.preemptions + report.resumes);
        for (sub, &total) in report
            .trace
            .sub_state_moves_per_step
            .iter()
            .zip(&report.trace.state_moves_per_step)
        {
            prop_assert_eq!(sub.iter().sum::<usize>(), total);
        }
        // Per-model accounting still covers every request exactly once.
        prop_assert_eq!(
            report.per_model.iter().map(|m| m.completed).sum::<usize>(),
            n
        );
    }

    #[test]
    fn session_resume_is_bit_identical_to_full_history_reprefill(
        p1 in proptest::collection::vec(0u32..256, 1..8),
        gen1 in 1usize..6,
        p2 in proptest::collection::vec(0u32..256, 1..6),
        gen2 in 1usize..6,
        chunk in 1usize..4,
    ) {
        // The tentpole pin: for an arbitrary two-turn chat, decoding
        // turn 2 from the parked session state (pending token prepended)
        // equals decoding it from a cold engine that re-prefills the
        // entire history — bit for bit, for the FP and the W4A4
        // backend, at every prefill chunking.
        let model = tiny_model();
        let q = tiny_w4a4(&model);
        for quantized in [false, true] {
            let make_reg = || {
                let mut reg = ModelRegistry::new();
                if quantized {
                    reg.register("w4a4", Box::new(W4A4Backend::new(q.clone()))).unwrap();
                } else {
                    reg.register("fp", Box::new(FpBackend::new(&model))).unwrap();
                }
                reg
            };
            let cfg = EngineConfig { slots: 1, max_steps: 200_000, prefill_chunk: chunk, threads: 1 ,
..Default::default()
};

            // Turn 1 parks its state; turn 2 resumes it.
            let mut engine = ServeEngine::with_registry(make_reg(), cfg).unwrap();
            engine
                .submit(vec![GenRequest::greedy(0, p1.clone(), gen1).with_session(1)])
                .unwrap();
            engine.run(&mut Fifo).unwrap();
            let turn1_tokens = engine.completions()[0].tokens.clone();
            let mut turn2 = GenRequest::greedy(1, p2.clone(), gen2).with_session(1);
            turn2.arrival_step = engine.clock();
            engine.submit(vec![turn2]).unwrap();
            let report = engine.run(&mut Fifo).unwrap();
            prop_assert_eq!(report.session_restores, 1);
            let resumed = engine
                .completions()
                .iter()
                .find(|c| c.id == 1)
                .expect("turn 2 completes")
                .tokens
                .clone();
            prop_assert_eq!(engine.pending_resumes(), 0);

            // Cold reference: one request whose prompt is the whole
            // conversation so far.
            let mut full = p1.clone();
            full.extend_from_slice(&turn1_tokens);
            full.extend_from_slice(&p2);
            let mut reference = ServeEngine::with_registry(make_reg(), cfg).unwrap();
            reference.submit(vec![GenRequest::greedy(1, full, gen2)]).unwrap();
            reference.run(&mut Fifo).unwrap();
            prop_assert_eq!(
                &resumed,
                &reference.completions()[0].tokens,
                "resumed turn diverged from re-prefill (quantized: {})",
                quantized
            );
        }
    }

    #[test]
    fn cancellation_churn_and_sessions_conserve_slots_and_leak_no_state(
        spec in workload(),
        slots in 1usize..5,
        schedule in churn_schedule(),
        cancel_mask in proptest::collection::vec(any::<bool>(), 14),
        cancel_gap in 1u64..6,
    ) {
        // Arbitrary interleavings of client cancellation, preemption
        // churn, and session retirement/resume: slots are conserved at
        // every step boundary, every request retires exactly once, and
        // no paused or resume state survives the drain.
        let model = tiny_model();
        let q = tiny_w4a4(&model);
        let mut reg = ModelRegistry::new();
        reg.register("fp", Box::new(FpBackend::new(&model))).unwrap();
        reg.register("w4a4", Box::new(W4A4Backend::new(q))).unwrap();
        let mut requests = build_requests(&spec);
        for r in &mut requests {
            r.model = (r.id % 2) as usize;
            if r.id % 3 == 0 {
                r.session = Some(r.id / 3);
            }
        }
        let n = requests.len();
        let mut engine = ServeEngine::with_registry(
            reg,
            EngineConfig { slots, max_steps: 200_000, prefill_chunk: 1, threads: 1 ,
..Default::default()
},
        ).unwrap();
        engine.submit(requests).unwrap();
        let mut policy = ChurnFifo::new(schedule);
        let mut steps = 0u64;
        let mut next_cancel = 0usize;
        while engine.has_work() && steps < 200_000 {
            if steps % cancel_gap == 0 && next_cancel < cancel_mask.len() {
                if cancel_mask[next_cancel] {
                    engine.cancel(next_cancel as u64);
                }
                next_cancel += 1;
            }
            engine.step(&mut policy).unwrap();
            steps += 1;
            prop_assert_eq!(
                engine.free_slots() + engine.active_count(),
                engine.capacity()
            );
            prop_assert!(engine.active_count() <= slots);
        }
        prop_assert_eq!(engine.free_slots(), engine.capacity());
        prop_assert_eq!(engine.paused_count(), 0);
        prop_assert_eq!(engine.pending_resumes(), 0);
        prop_assert_eq!(engine.completions().len(), n, "each request retires exactly once");
        let report = engine.report(&policy);
        prop_assert_eq!(report.completed + report.cancellations + report.evicted, n);
        // A cancelled paused sequence pauses without ever resuming, so
        // resumes can trail preemptions but never exceed them.
        prop_assert!(report.resumes <= report.preemptions);
        prop_assert_eq!(
            report.per_model.iter().map(|m| m.completed).sum::<usize>(),
            report.completed
        );

        // Turn 2: every session whose turn finished parked its state;
        // resume them all, then cancel every other resume before it is
        // admitted — cancelled resume states must be released, not
        // leaked.
        let parked: Vec<u64> = engine
            .completions()
            .iter()
            .filter(|c| c.id % 3 == 0)
            .filter(|c| matches!(c.finish, FinishReason::MaxTokens | FinishReason::Eos))
            .map(|c| c.id / 3)
            .collect();
        let mut resumed_ids = Vec::new();
        for (k, &sid) in parked.iter().enumerate() {
            let id = (n + k) as u64;
            let mut r = GenRequest::greedy(id, vec![7, 8], 2).with_session(sid);
            r.model = ((sid * 3) % 2) as usize;
            r.arrival_step = engine.clock();
            engine.submit(vec![r]).unwrap();
            resumed_ids.push(id);
        }
        prop_assert_eq!(engine.pending_resumes(), resumed_ids.len());
        for (k, &id) in resumed_ids.iter().enumerate() {
            if k % 2 == 0 {
                engine.cancel(id);
            }
        }
        let mut steps2 = 0u64;
        while engine.has_work() && steps2 < 200_000 {
            engine.step(&mut policy).unwrap();
            steps2 += 1;
            prop_assert_eq!(
                engine.free_slots() + engine.active_count(),
                engine.capacity()
            );
        }
        prop_assert_eq!(engine.free_slots(), engine.capacity());
        prop_assert_eq!(engine.paused_count(), 0);
        prop_assert_eq!(
            engine.pending_resumes(),
            0,
            "no resume state leaks, whether served or cancelled first"
        );
        prop_assert_eq!(engine.completions().len(), n + resumed_ids.len());
    }

    #[test]
    fn thread_count_never_changes_outputs_under_churn(
        spec in workload(),
        slots in 2usize..5,
        schedule in churn_schedule(),
        cancel_mask in proptest::collection::vec(any::<bool>(), 14),
        cancel_gap in 1u64..6,
    ) {
        // The worker pool shards each sub-batch across threads but keeps
        // per-sequence arithmetic untouched, so a 4-thread engine must be
        // bit-identical to the sequential one under *any* interleaving of
        // preemption churn, client cancellation, and session retirement —
        // on both the FP and the packed-integer backends.
        let model = tiny_model();
        let q = tiny_w4a4(&model);
        let run = |threads: usize| {
            let mut reg = ModelRegistry::new();
            reg.register("fp", Box::new(FpBackend::new(&model))).unwrap();
            reg.register("w4a4", Box::new(W4A4Backend::new(q.clone()))).unwrap();
            let mut requests = build_requests(&spec);
            for r in &mut requests {
                r.model = (r.id % 2) as usize;
                if r.id % 3 == 0 {
                    r.session = Some(r.id / 3);
                }
            }
            let mut engine = ServeEngine::with_registry(
                reg,
                EngineConfig { slots, max_steps: 200_000, prefill_chunk: 2, threads,
..Default::default()
},
            ).unwrap();
            engine.submit(requests).unwrap();
            let mut policy = ChurnFifo::new(schedule.clone());
            let mut steps = 0u64;
            let mut next_cancel = 0usize;
            while engine.has_work() && steps < 200_000 {
                if steps % cancel_gap == 0 && next_cancel < cancel_mask.len() {
                    if cancel_mask[next_cancel] {
                        engine.cancel(next_cancel as u64);
                    }
                    next_cancel += 1;
                }
                engine.step(&mut policy).unwrap();
                steps += 1;
            }
            let mut done: Vec<_> = engine
                .completions()
                .iter()
                .map(|c| (c.id, c.finish, c.tokens.clone()))
                .collect();
            done.sort_by_key(|&(id, ..)| id);
            done
        };
        let sequential = run(1);
        let threaded = run(4);
        prop_assert_eq!(sequential, threaded);
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
        let mut engine = ServeEngine::with_registry(
            reg,
            EngineConfig { slots, max_steps: 200_000, prefill_chunk: 1, threads: 1 ,
..Default::default()
},
        ).unwrap();
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
        let mut engine = ServeEngine::with_registry(
            reg,
            EngineConfig { slots: 6, max_steps: 400, prefill_chunk: 1, threads: 1 ,
..Default::default()
},
        ).unwrap();
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
    fn prefix_cache_is_inert_off_and_bit_identical_on(
        spec in workload(),
        prefix in proptest::collection::vec(0u32..256, 2..6),
        mark_mask in proptest::collection::vec(any::<bool>(), 14),
        slots in 1usize..5,
        schedule in churn_schedule(),
        chunk in 1usize..4,
        cancel_mask in proptest::collection::vec(any::<bool>(), 14),
        cancel_gap in 1u64..6,
    ) {
        // The tentpole pin, three ways, on both backends under
        // preemption churn, client cancellation, and session traffic:
        //   1. shared-prefix markers with the cache *off* change nothing
        //      at all — same retirements, same finishes, same tokens;
        //   2. with the cache *on*, every request that ran to completion
        //      decodes bit-identically to the cache-less run (restored
        //      states are exact, harvests are invisible);
        //   3. the cache-on engine is thread-count invariant.
        let model = tiny_model();
        let q = tiny_w4a4(&model);
        // Same prompts everywhere: a marked request's prompt carries
        // the common prefix in *all* runs; only the marker differs.
        let mut base = build_requests(&spec);
        for r in &mut base {
            r.model = (r.id % 2) as usize;
            if r.id % 3 == 0 {
                r.session = Some(r.id / 3);
            }
            if mark_mask[r.id as usize % mark_mask.len()] {
                let mut p = prefix.clone();
                p.extend_from_slice(&r.prompt);
                r.prompt = p;
            }
        }
        let marked: Vec<GenRequest> = base
            .iter()
            .cloned()
            .map(|r| {
                if mark_mask[r.id as usize % mark_mask.len()] {
                    let k = prefix.len();
                    r.with_shared_prefix(k)
                } else {
                    r
                }
            })
            .collect();
        let n = base.len();

        let run = |requests: &[GenRequest], cache: Option<usize>, threads: usize| {
            let mut reg = ModelRegistry::new();
            reg.register("fp", Box::new(FpBackend::new(&model))).unwrap();
            reg.register("w4a4", Box::new(W4A4Backend::new(q.clone()))).unwrap();
            let mut engine = ServeEngine::with_registry(
                reg,
                EngineConfig {
                    slots,
                    max_steps: 200_000,
                    prefill_chunk: chunk,
                    threads,
                    prefix_cache: cache,
                    ..Default::default()
                },
            ).unwrap();
            engine.submit(requests.to_vec()).unwrap();
            let mut policy = ChurnFifo::new(schedule.clone());
            let mut steps = 0u64;
            let mut next_cancel = 0usize;
            while engine.has_work() && steps < 200_000 {
                if steps % cancel_gap == 0 && next_cancel < cancel_mask.len() {
                    if cancel_mask[next_cancel] {
                        engine.cancel(next_cancel as u64);
                    }
                    next_cancel += 1;
                }
                engine.step(&mut policy).unwrap();
                steps += 1;
            }
            let mut done: Vec<_> = engine
                .completions()
                .iter()
                .map(|c| (c.id, c.finish, c.tokens.clone()))
                .collect();
            done.sort_by_key(|&(id, ..)| id);
            done
        };

        // 1. Cache off: the marker is completely inert — identical
        //    retirement stream, cancellations included.
        let baseline = run(&base, None, 1);
        prop_assert_eq!(baseline.len(), n);
        let marked_off = run(&marked, None, 1);
        prop_assert_eq!(&baseline, &marked_off);

        // 2. Cache on: restores shift *when* work happens (so a
        //    mid-flight cancel may land differently), but every request
        //    that ran to completion in both runs is bit-identical.
        let cached = run(&marked, Some(4), 1);
        prop_assert_eq!(cached.len(), n, "every request still retires exactly once");
        let finished = |f: FinishReason| {
            matches!(f, FinishReason::MaxTokens | FinishReason::Eos)
        };
        for ((id_a, fin_a, toks_a), (id_b, fin_b, toks_b)) in baseline.iter().zip(&cached) {
            prop_assert_eq!(id_a, id_b);
            if finished(*fin_a) && finished(*fin_b) {
                prop_assert_eq!(
                    toks_a,
                    toks_b,
                    "request {} diverged with the prefix cache on",
                    id_a
                );
            }
        }

        // 3. Thread-count invariance with the cache on.
        prop_assert_eq!(&cached, &run(&marked, Some(4), 4));
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
        // deferral is backpressure, never starvation. Outputs stay
        // policy- and budget-independent.
        use lightmamba_serve::scheduler::{policy_by_name, TokenBudget, POLICY_NAMES};
        let model = tiny_model();
        let requests = build_requests(&spec);
        let n = requests.len();
        let budget = TokenBudget::new(prefill_cap, total_cap).unwrap();
        let mut reference: Option<Vec<(u64, Vec<u32>)>> = None;
        for name in POLICY_NAMES {
            let mut policy = policy_by_name(name).unwrap();
            let mut engine = ServeEngine::new(
                &model,
                EngineConfig {
                    slots,
                    max_steps: 200_000,
                    prefill_chunk: chunk,
                    threads: 1,
                    token_budget: Some(budget),
                    ..Default::default()
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
            let mut out: Vec<(u64, Vec<u32>)> = engine
                .completions()
                .iter()
                .map(|c| (c.id, c.tokens.clone()))
                .collect();
            out.sort();
            match &reference {
                None => reference = Some(out),
                Some(want) => prop_assert_eq!(
                    &out, want,
                    "{}: outputs changed under the budget", name
                ),
            }
        }
    }
}

/// The bench acceptance pin: on the deadline-heavy scenario (the exact
/// workload the `serve-policy` experiment runs, shortened), EDF's
/// deadline-hit-rate strictly beats FIFO's, under chunked prefill, with
/// outputs still bit-identical between the two runs.
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
        let mut engine = ServeEngine::with_registry(
            reg,
            EngineConfig {
                slots: 16,
                max_steps: 1_000_000,
                prefill_chunk: 4,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(traffic.generate(150)).unwrap();
        let report = engine.run(policy).unwrap();
        let mut outputs: Vec<(u64, Vec<u32>)> = engine
            .completions()
            .iter()
            .filter(|c| c.finish != lightmamba_serve::request::FinishReason::DeadlineExceeded)
            .map(|c| (c.id, c.tokens.clone()))
            .collect();
        outputs.sort();
        (report, outputs)
    };
    let (fifo, fifo_out) = run(&mut Fifo);
    let (edf, edf_out) = run(&mut Edf::default());
    assert_eq!(fifo.deadline_total, edf.deadline_total);
    assert!(fifo.deadline_total > 0);
    assert!(
        edf.deadline_hit_rate() > fifo.deadline_hit_rate(),
        "edf {:?} must strictly beat fifo {:?}",
        edf.deadline_hit_rate(),
        fifo.deadline_hit_rate()
    );
    // Bit-identity across policies: every request both policies
    // completed produced the same tokens.
    let edf_map: std::collections::HashMap<u64, &Vec<u32>> =
        edf_out.iter().map(|(id, t)| (*id, t)).collect();
    let mut compared = 0usize;
    for (id, tokens) in &fifo_out {
        if let Some(other) = edf_map.get(id) {
            assert_eq!(&tokens, other, "request {id} diverged across policies");
            compared += 1;
        }
    }
    assert!(compared > 0);
}

/// The preemption acceptance pin: on the preemption-heavy scenario (the
/// exact workload the `serve-preempt` experiment runs, shortened), EDF with
/// pause/resume strictly beats non-preemptive EDF on deadline hit rate
/// — reordering the queue cannot save a tight deadline while
/// deadline-free hogs camp on every slot; pausing one can — with
/// outputs still bit-identical between the two runs.
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
        let mut engine = ServeEngine::with_registry(
            reg,
            EngineConfig {
                slots: 8,
                max_steps: 1_000_000,
                prefill_chunk: 4,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(traffic.generate(200)).unwrap();
        let report = engine.run(policy).unwrap();
        let mut outputs: Vec<(u64, Vec<u32>)> = engine
            .completions()
            .iter()
            .filter(|c| c.finish != lightmamba_serve::request::FinishReason::DeadlineExceeded)
            .map(|c| (c.id, c.tokens.clone()))
            .collect();
        outputs.sort();
        (report, outputs)
    };
    let (plain, plain_out) = run(&mut Edf::default());
    let (pre, pre_out) = run(&mut Edf::preemptive());
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
    // Preemption reshuffles *when* requests run, never *what* they
    // produce: every request both runs completed emitted identical
    // tokens.
    let pre_map: std::collections::HashMap<u64, &Vec<u32>> =
        pre_out.iter().map(|(id, t)| (*id, t)).collect();
    let mut compared = 0usize;
    for (id, tokens) in &plain_out {
        if let Some(other) = pre_map.get(id) {
            assert_eq!(&tokens, other, "request {id} diverged under preemption");
            compared += 1;
        }
    }
    assert!(compared > 0);
}
