//! Golden step transcript: two fixed, seeded scenarios that between them
//! enter every phase of `ServeEngine::step` — including the ones the
//! benchmark workloads never reach — folded into one FNV-1a digest each
//! over the `Debug` of every `Completion` (in `completions()` order),
//! every `StepEvent` (in `take_events()` order), the phase spans (name,
//! category, step, depth, args — no wall-clock fields) and the final
//! `ServeReport`, trace included.
//!
//! The constants were recorded on the commit *before* `step()` was
//! decomposed into a phase pipeline; a refactor of the engine must leave
//! them bit-equal at 1 and 4 worker threads. A deliberate behaviour
//! change re-records them and says so in CHANGES.md.

use std::fmt::Debug;

use lightmamba_model::sampler::Sampler;
use lightmamba_model::{MambaConfig, MambaModel};
use lightmamba_quant::pipeline::{quantize_model, Method, QuantSpec};
use lightmamba_serve::backend::{FpBackend, W4A4Backend};
use lightmamba_serve::chaos::{ChaosBackend, FaultKind, FaultPlan, FaultWindow};
use lightmamba_serve::engine::{EngineConfig, ServeEngine};
use lightmamba_serve::metrics::ServeReport;
use lightmamba_serve::observe::ObsConfig;
use lightmamba_serve::registry::ModelRegistry;
use lightmamba_serve::request::{Completion, FinishReason, GenRequest, Priority};
use lightmamba_serve::resilience::{DegradationConfig, ResilienceConfig};
use lightmamba_serve::scheduler::{Edf, Policy, PriorityClasses, TokenBudget};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PRIORITY_CHAOS_GOLDEN: u64 = 0x829a_a352_63ac_9e9e;
const EDF_BUDGET_GOLDEN: u64 = 0xbff9_13f9_2075_ca6d;

/// FNV-1a (64-bit) over the `Debug` rendering of each pushed item.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, item: &impl Debug) {
        for b in format!("{item:?}\n").bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// What one scenario run leaves behind: the digest plus the records the
/// coverage assertions read.
struct Transcript {
    digest: u64,
    report: ServeReport,
    completions: Vec<Completion>,
}

impl Transcript {
    fn count(&self, f: impl Fn(&Completion) -> bool) -> usize {
        self.completions.iter().filter(|c| f(c)).count()
    }
}

fn tiny_model() -> MambaModel {
    MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(9)).unwrap()
}

/// A request with an id-derived prompt of `len` tokens, optionally led
/// by a `prefix` of `k` copies of one tag token (marked shareable).
fn req(
    id: u64,
    model: usize,
    arrival: u64,
    prefix: Option<(u32, usize)>,
    len: usize,
) -> GenRequest {
    let mut prompt = Vec::new();
    if let Some((tag, k)) = prefix {
        prompt.extend(std::iter::repeat(tag).take(k));
    }
    prompt.extend((0..len as u64).map(|j| ((id * 31 + j * 7) % 250 + 1) as u32));
    let mut r = GenRequest::greedy(id, prompt, 4).on_model(model);
    r.arrival_step = arrival;
    r.shared_prefix = prefix.map(|(_, k)| k);
    if id % 3 == 1 {
        r.sampler = Sampler::TopK {
            k: 8,
            temperature: 0.9,
        };
    }
    r
}

fn gen(mut r: GenRequest, n: usize) -> GenRequest {
    r.max_new_tokens = n;
    r
}

fn two_model_registry<'m>(
    model: &'m MambaModel,
    fp_windows: Vec<FaultWindow>,
    w4a4_windows: Vec<FaultWindow>,
) -> ModelRegistry<'m> {
    let q = quantize_model(model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
    let mut reg = ModelRegistry::new();
    reg.register(
        "fp",
        Box::new(ChaosBackend::new(
            Box::new(FpBackend::new(model)),
            FaultPlan::from_windows(fp_windows),
        )),
    )
    .unwrap();
    reg.register(
        "w4a4",
        Box::new(ChaosBackend::new(
            Box::new(W4A4Backend::new(q)),
            FaultPlan::from_windows(w4a4_windows),
        )),
    )
    .unwrap();
    reg
}

/// Steps `engine` until it drains, firing `cancels` (`(step, id)`) at
/// the top of their step and folding each step's events.
fn drive(
    engine: &mut ServeEngine<'_>,
    policy: &mut dyn Policy,
    cancels: &[(u64, u64)],
    fold: &mut Fold,
) {
    while engine.has_work() && engine.clock() < engine.config().max_steps {
        for &(step, id) in cancels {
            if step == engine.clock() {
                engine.cancel(id);
            }
        }
        engine.step(policy).unwrap();
        for ev in engine.take_events() {
            fold.push(&ev);
        }
        assert_eq!(
            engine.free_slots() + engine.active_count(),
            engine.capacity()
        );
    }
    assert!(!engine.has_work(), "scenario must drain inside max_steps");
}

fn finish(mut engine: ServeEngine<'_>, policy: &dyn Policy, mut fold: Fold) -> Transcript {
    for c in engine.completions() {
        fold.push(c);
    }
    let obs = engine.take_obs().expect("obs was enabled");
    assert_eq!(obs.spans.dropped(), 0);
    for s in obs.spans.spans() {
        fold.push(&(s.name, s.cat, s.step, s.depth, s.args));
    }
    let report = engine.report(policy);
    fold.push(&report);
    assert_eq!(engine.free_slots(), engine.capacity());
    assert_eq!(engine.paused_count(), 0);
    assert_eq!(engine.pending_resumes(), 0);
    Transcript {
        digest: fold.0,
        report,
        completions: engine.completions().to_vec(),
    }
}

/// Scenario 1 — preemptive priority classes over chaos-wrapped FP and
/// W4A4 backends: fault windows (error, panic, restore corruption) with
/// quarantine + canary recovery, a bounded queue that sheds, the
/// degradation ladder, cancels landing on pending / waiting / resident /
/// paused requests, deadlines lapsing queued / resident / paused, and a
/// shared prefix that misses, harvests across a preemption, then hits.
fn priority_chaos(threads: usize) -> Transcript {
    let model = tiny_model();
    let window = |start, len, kind| FaultWindow { start, len, kind };
    let registry = two_model_registry(
        &model,
        vec![
            window(16, 2, FaultKind::StepError),
            window(44, 3, FaultKind::RestoreCorruption),
        ],
        vec![window(27, 1, FaultKind::Panic)],
    );
    let mut engine = ServeEngine::with_registry(
        registry,
        EngineConfig {
            slots: 3,
            max_steps: 2_000,
            prefill_chunk: 4,
            threads,
            prefix_cache: Some(2),
            ..Default::default()
        },
    )
    .unwrap();
    engine.set_resilience(ResilienceConfig {
        backoff_base: 2,
        backoff_max: 8,
        queue_limit: Some(5),
        degradation: Some(DegradationConfig {
            queue_slo: 1,
            breach_steps: 2,
            recover_steps: 3,
        }),
        ..ResilienceConfig::default()
    });
    engine.enable_events();
    engine.enable_obs(ObsConfig::default());

    const A: Option<(u32, usize)> = Some((201, 10));
    const B: Option<(u32, usize)> = Some((202, 5));
    let batch = |r: GenRequest| r.with_priority(Priority::Batch);
    let inter = |r: GenRequest| r.with_priority(Priority::Interactive);
    let mut requests = vec![
        // Batch hogs admitted at step 0; the fp one misses prefix A and
        // is preempted at step 1, before its harvest boundary.
        batch(gen(req(0, 0, 0, None, 6), 20)),
        batch(gen(req(1, 1, 0, B, 3), 8)).with_deadline(14),
        batch(gen(req(2, 0, 0, A, 3), 6)),
        // Interactive arrivals pause the hogs.
        inter(gen(req(3, 0, 1, None, 3), 5)),
        inter(gen(req(4, 1, 1, None, 9), 6)),
        inter(gen(req(5, 0, 2, None, 5), 30)).with_deadline(9),
        // Prefix A again (hit once 0 has harvested) and a queued expiry.
        gen(req(6, 0, 3, A, 2), 4),
        gen(req(7, 1, 3, None, 4), 3).with_deadline(2),
    ];
    // A burst that overflows the bounded queue and trips the ladder.
    requests.extend((8..18).map(|id| gen(req(id, (id % 2) as usize, 8, None, 5), 6)));
    // Traffic across the fault windows and quarantine recoveries.
    requests.extend((18..34).map(|id| {
        let r = gen(
            req(
                id,
                (id % 2) as usize,
                10 + (id - 18) * 3,
                None,
                3 + (id % 4) as usize,
            ),
            4 + (id % 5) as usize,
        );
        match id % 4 {
            0 => inter(r),
            1 => batch(r),
            _ => r,
        }
    }));
    requests.push(gen(req(34, 0, 60, A, 3), 3));
    requests.push(gen(req(35, 1, 60, B, 2), 3).with_session(7));
    // Never arrives: cancelled while still pending.
    requests.push(gen(req(36, 0, 500, None, 2), 2));
    // Arrives at ladder rung 3: rerouted to the cheapest backend.
    requests.push(gen(req(38, 0, 15, None, 4), 5));
    // Restores prefix A inside the corruption window.
    requests.push(gen(req(37, 0, 44, A, 2), 3));
    requests.sort_by_key(|r| (r.arrival_step, r.id));
    engine.submit(requests).unwrap();

    let mut policy = PriorityClasses::preemptive();
    let mut fold = Fold::new();
    let cancels = [(3, 0), (4, 36), (5, 4), (9, 12), (30, 999)];
    drive(&mut engine, &mut policy, &cancels, &mut fold);
    finish(engine, &policy, fold)
}

/// Scenario 2 — preemptive EDF with doomed eviction under a tight token
/// budget: admissions deferred, the liveness valve run by an oversized
/// request, doomed evictions of waiting and of paused requests, then a
/// second session turn resumed through `submit_with_state` (one kept,
/// one cancelled before it restores).
fn edf_budget(threads: usize) -> Transcript {
    let model = tiny_model();
    let registry = two_model_registry(
        &model,
        Vec::new(),
        vec![FaultWindow {
            start: 5,
            len: 2,
            kind: FaultKind::LatencySpike,
        }],
    );
    let mut engine = ServeEngine::with_registry(
        registry,
        EngineConfig {
            slots: 2,
            max_steps: 2_000,
            prefill_chunk: 4,
            threads,
            token_budget: Some(TokenBudget::new(6, 64).unwrap()),
            prefix_cache: Some(1),
        },
    )
    .unwrap();
    engine.enable_events();
    engine.enable_obs(ObsConfig::default());

    const P: Option<(u32, usize)> = Some((210, 5));
    let mut turn1 = vec![
        // A deadline-free hog (session 100) and a relaxed-deadline peer.
        gen(req(0, 0, 0, P, 3), 16).with_session(100),
        gen(req(1, 1, 0, None, 2), 16).with_deadline(17),
        // Footprint 70 > 64: only the liveness valve ever admits it.
        gen(req(2, 0, 0, None, 30), 40),
        // Urgent arrivals: EDF pauses later-deadline residents for them.
        gen(req(3, 0, 2, None, 4), 3).with_deadline(5),
        // Infeasible on arrival (needs 12 steps, has 6): doomed waiting.
        gen(req(4, 1, 2, None, 10), 10).with_deadline(6),
        gen(req(5, 1, 3, None, 6), 12).with_deadline(30),
        gen(req(6, 0, 4, None, 3), 2).with_deadline(4),
        gen(req(7, 1, 5, P, 2), 3)
            .with_deadline(10)
            .with_session(101),
        gen(req(8, 0, 6, P, 4), 8).with_deadline(22),
        gen(req(9, 1, 7, None, 7), 4).with_deadline(9),
        gen(req(10, 0, 9, None, 2), 5).with_deadline(7),
        gen(req(11, 1, 11, None, 5), 9).with_deadline(16),
    ];
    // Request 8's third greedy token: it retires on EOS, not length.
    turn1[8].eos_token = Some(131);
    engine.submit(turn1).unwrap();

    let mut policy = Edf::preemptive();
    let mut fold = Fold::new();
    drive(&mut engine, &mut policy, &[(8, 9)], &mut fold);

    // Turn 2: both parked sessions come back; 101's resume is cancelled
    // before admission, so its saved state must be dropped, not leaked.
    let mut snaps = engine.take_session_snapshots();
    snaps.sort_by_key(|(sid, _)| *sid);
    for (sid, snap) in &snaps {
        fold.push(&(sid, snap.pending_token, snap.consumed_tokens));
    }
    let now = engine.clock();
    for (i, (sid, snap)) in snaps.into_iter().enumerate() {
        let turn = gen(req(50 + i as u64, (sid - 100) as usize, now, None, 3), 4).with_session(sid);
        engine.submit_with_state(turn, snap).unwrap();
    }
    assert_eq!(engine.pending_resumes(), 2);
    engine.submit(vec![gen(req(52, 0, now, P, 2), 3)]).unwrap();
    drive(&mut engine, &mut policy, &[(now, 51)], &mut fold);
    finish(engine, &policy, fold)
}

#[test]
fn priority_chaos_transcript_is_golden_at_one_and_four_threads() {
    let t = priority_chaos(1);
    let r = &t.report;
    // Coverage: the scenario really enters the phases it claims to.
    assert!(r.preemptions > 0 && r.resumes > 0, "preempt + resume");
    assert!(r.backend_faults >= 3, "error, panic and corruption windows");
    assert!(r.quarantine_entries > 0 && r.quarantine_recoveries > 0);
    assert!(r.failed > 0 && r.rejected > 0, "containment + shedding");
    assert!(r.prefix_hits > 0 && r.prefix_misses > 0);
    assert!(r.reclaimed_slot_steps > 0, "a resident was cancelled");
    let cancelled = |c: &Completion| c.finish == FinishReason::Cancelled;
    assert_eq!(r.cancellations, 4, "pending, waiting, resident, paused");
    assert!(t.count(|c| cancelled(c) && c.finished_step < c.arrival_step) == 1);
    assert!(t.count(|c| cancelled(c) && c.paused_steps > 0) >= 1);
    let expired = |c: &Completion| c.finish == FinishReason::DeadlineExceeded;
    assert!(t.count(|c| expired(c) && c.admitted_step.is_none()) >= 1);
    assert!(t.count(|c| expired(c) && c.admitted_step.is_some()) >= 2);
    assert_eq!(t.digest, PRIORITY_CHAOS_GOLDEN, "digest {:#018x}", t.digest);
    assert_eq!(priority_chaos(4).digest, PRIORITY_CHAOS_GOLDEN);
}

#[test]
fn edf_budget_transcript_is_golden_at_one_and_four_threads() {
    let t = edf_budget(1);
    let r = &t.report;
    assert!(r.budget_deferrals > 0, "the budget deferred admissions");
    assert!(
        r.budget_resident_utilization.unwrap() > 1.0,
        "the liveness valve ran the oversized request"
    );
    assert!(r.preemptions > 0 && r.resumes > 0);
    assert!(r.prefix_hits > 0 && r.prefix_misses > 0);
    let doomed = |c: &Completion| {
        c.finish == FinishReason::DeadlineExceeded
            && c.finished_step < c.arrival_step + c.deadline_steps.unwrap()
    };
    assert!(t.count(|c| doomed(c) && c.admitted_step.is_none()) >= 1);
    assert!(t.count(|c| doomed(c) && c.admitted_step.is_some()) >= 1);
    assert!(t.count(|c| c.finish == FinishReason::Eos) >= 1);
    assert_eq!(r.cancellations, 2);
    assert_eq!(t.digest, EDF_BUDGET_GOLDEN, "digest {:#018x}", t.digest);
    assert_eq!(edf_budget(4).digest, EDF_BUDGET_GOLDEN);
}
