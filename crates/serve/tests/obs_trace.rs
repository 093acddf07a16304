//! End-to-end observability checks on a churny serving run: the engine
//! drives preemption, cancellation, deadline expiry, and session
//! parking under an instrumented run, then the emitted Chrome trace
//! must parse, phase spans must nest inside their step spans, the
//! flight recorder must stay bounded, and the metrics snapshot must
//! agree with the engine's own [`ServeReport`].

use lightmamba_model::{MambaConfig, MambaModel};
use lightmamba_obs::json::{parse, JsonValue};
use lightmamba_quant::pipeline::{quantize_model, Method, QuantSpec};
use lightmamba_serve::backend::{FpBackend, W4A4Backend};
use lightmamba_serve::engine::{EngineConfig, ServeEngine};
use lightmamba_serve::metrics::ServeReport;
use lightmamba_serve::observe::{EngineObs, ObsConfig};
use lightmamba_serve::registry::ModelRegistry;
use lightmamba_serve::scheduler::policy_by_name;
use lightmamba_serve::traffic::{TrafficGenerator, TrafficScenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs the preemption-heavy mix under preemptive EDF with a couple of
/// mid-run cancellations and session-tagged requests, observability on.
fn churny_run(cfg: ObsConfig) -> (ServeReport, Box<EngineObs>) {
    let mut rng = StdRng::seed_from_u64(11);
    let model = MambaModel::synthetic(MambaConfig::tiny(), &mut rng).unwrap();
    let quantized = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
    let mut registry = ModelRegistry::new();
    registry
        .register("fp", Box::new(FpBackend::new(&model)))
        .unwrap();
    registry
        .register("w4a4", Box::new(W4A4Backend::new(quantized)))
        .unwrap();
    let mut engine = ServeEngine::with_registry(
        registry,
        EngineConfig {
            slots: 4,
            max_steps: 100_000,
            prefill_chunk: 4,
            threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    engine.enable_obs(cfg);

    let mut traffic = TrafficGenerator::new(
        TrafficScenario::preemption_heavy(0.6),
        model.config().vocab_size,
        7,
    )
    .with_models(2);
    let mut requests = traffic.generate(60);
    // A few session-tagged turns so retirement parks their states.
    for req in requests.iter_mut().take(3) {
        req.session = Some(req.id);
    }
    engine.submit(requests).unwrap();

    let mut policy = policy_by_name("edf-preempt").unwrap();
    let mut cancelled = false;
    while engine.has_work() {
        if !cancelled && engine.clock() >= 6 {
            engine.cancel(1);
            engine.cancel(2);
            cancelled = true;
        }
        engine.step(policy.as_mut()).unwrap();
    }
    let report = engine.report(policy.as_ref());
    let obs = engine.take_obs().expect("obs was enabled");
    (report, obs)
}

/// Extracts `(name, ts, dur, pid)` of every complete event.
fn complete_events(trace: &JsonValue) -> Vec<(String, f64, f64, f64)> {
    trace
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .map(|e| {
            (
                e.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string(),
                e.get("ts").and_then(JsonValue::as_f64).unwrap(),
                e.get("dur").and_then(JsonValue::as_f64).unwrap(),
                e.get("pid").and_then(JsonValue::as_f64).unwrap(),
            )
        })
        .collect()
}

#[test]
fn chrome_trace_parses_and_phase_spans_nest_within_steps() {
    let (report, obs) = churny_run(ObsConfig::default());
    assert!(report.preemptions > 0, "workload must preempt");
    assert!(report.cancellations > 0, "workload must cancel");

    let step_seconds = vec![2e-3; report.trace.steps()];
    let text = obs.chrome_trace_with_virtual(&step_seconds);
    let trace = parse(&text).expect("emitted trace is well-formed JSON");
    let events = complete_events(&trace);
    assert!(!events.is_empty());

    // Both lanes are populated: pid 1 wall spans, pid 2 virtual steps.
    assert!(events.iter().any(|e| e.3 == 1.0));
    assert!(events.iter().any(|e| e.3 == 2.0));

    // Every wall-lane phase span sits inside some step span (μs are
    // rounded to 3 decimals on write, hence the epsilon).
    let steps: Vec<&(String, f64, f64, f64)> = events
        .iter()
        .filter(|e| e.0 == "step" && e.3 == 1.0)
        .collect();
    assert!(!steps.is_empty(), "step spans on the wall lane");
    let eps = 2e-3;
    let mut phases = 0usize;
    for ev in events.iter().filter(|e| e.0 != "step" && e.3 == 1.0) {
        phases += 1;
        assert!(
            steps
                .iter()
                .any(|s| s.1 - eps <= ev.1 && ev.1 + ev.2 <= s.1 + s.2 + eps),
            "phase span {:?} at ts {} dur {} is not contained in any step span",
            ev.0,
            ev.1,
            ev.2
        );
    }
    assert!(phases > 0, "phase spans were emitted");
    // The churny run exercised the preempt and cancel phases.
    for name in ["advance", "sample", "admit", "preempt", "cancel", "retire"] {
        assert!(
            events.iter().any(|e| e.0 == name),
            "expected a {name:?} span"
        );
    }
}

#[test]
fn flight_recorder_stays_bounded_and_metrics_match_the_report() {
    let (report, obs) = churny_run(ObsConfig::default());

    // The engine's fixed bounds: 512 step records, 4096 lifecycle
    // events. The ring held its bound and evicted exactly the overflow.
    assert_eq!(obs.flight.steps().capacity(), 512);
    assert!(obs.flight.steps().len() <= 512);
    let total = report.trace.steps() as u64;
    assert!(total > 512, "run long enough to wrap the ring");
    assert_eq!(obs.flight.steps().evicted(), total - 512);
    assert_eq!(obs.flight.lifecycle().capacity(), 4_096);
    assert!(obs.flight.lifecycle().len() <= 4_096);

    // Retained step records are the newest ones, in step order.
    let recorded: Vec<u64> = obs.flight.steps().iter().map(|r| r.step).collect();
    let mut sorted = recorded.clone();
    sorted.sort_unstable();
    assert_eq!(recorded, sorted, "step records drain oldest-first");

    // The metrics snapshot agrees with the engine's own report.
    let text = obs.exposition();
    for (name, value) in [
        ("engine_steps_total", total),
        ("engine_completions_total", report.completed as u64),
        ("engine_cancellations_total", report.cancellations as u64),
        ("engine_expiries_total", report.evicted as u64),
        ("engine_preemptions_total", report.preemptions),
        ("engine_resumes_total", report.resumes),
        ("engine_prefill_tokens_total", report.prefill_tokens),
        ("engine_decode_tokens_total", report.generated_tokens),
    ] {
        assert!(
            text.contains(&format!("{name} {value}")),
            "{name} should read {value}:\n{text}"
        );
    }
    // The flight dump is renderable and names its own bounds.
    let dump = obs.flight_dump();
    assert!(dump.contains("512 steps retained"), "{dump}");
}

#[test]
fn model_label_values_are_escaped_in_the_exposition() {
    let model = MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(3)).unwrap();
    let mut registry = ModelRegistry::new();
    registry
        .register("fp \"q\"\\x", Box::new(FpBackend::new(&model)))
        .unwrap();
    let mut engine = ServeEngine::with_registry(registry, EngineConfig::default()).unwrap();
    engine.enable_obs(ObsConfig::default());
    let text = engine.take_obs().unwrap().exposition();
    assert!(
        text.contains("engine_model_tokens_total{model=\"fp \\\"q\\\"\\\\x\"} 0\n"),
        "{text}"
    );
}
