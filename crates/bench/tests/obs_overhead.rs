//! Pins the observability layer's cost on the serving hot loop: full
//! instrumentation (metrics registry + per-phase spans + flight
//! recorder) must cost at most 5% of decode throughput.
//!
//! The workload is an 8-slot FIFO closed batch of decode-heavy requests,
//! best-of-N timed runs on each side so scheduler noise cancels. The pin
//! only means anything at optimizer settings — debug builds measure
//! debug_assert and bounds-check overhead, not the instrumentation — so
//! the assertion is release-only, mirroring the serving hot-path pins
//! elsewhere in the workspace.

use std::time::Instant;

use lightmamba_model::{MambaConfig, MambaModel};
use lightmamba_serve::engine::{EngineConfig, ServeEngine};
use lightmamba_serve::observe::ObsConfig;
use lightmamba_serve::request::GenRequest;
use lightmamba_serve::scheduler::Fifo;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Times the serving engine on a decode-heavy closed batch, bare vs
/// fully instrumented, best of `reps` runs each. Returns
/// `(bare_tok_s, instrumented_tok_s)`.
fn engine_obs_overhead(model: &MambaModel, gen_tokens: usize, reps: usize) -> (f64, f64) {
    let slots = 8usize;
    let run = |with_obs: bool| -> f64 {
        let mut best = 0.0f64;
        for _ in 0..reps {
            let mut engine = ServeEngine::new(
                model,
                EngineConfig {
                    slots,
                    max_steps: 1_000_000,
                    prefill_chunk: 4,
                    threads: 1,
                    ..Default::default()
                },
            )
            .expect("non-zero slots");
            if with_obs {
                engine.enable_obs(ObsConfig::default());
            }
            let reqs: Vec<GenRequest> = (0..slots)
                .map(|k| GenRequest::greedy(k as u64, vec![k as u32 + 1, 2], gen_tokens))
                .collect();
            engine.submit(reqs).expect("arrivals are sorted");
            let start = Instant::now();
            let report = engine.run(&mut Fifo).expect("run drains");
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            assert_eq!(report.completed, slots, "closed batch drains");
            best = best.max((slots * gen_tokens) as f64 / secs);
        }
        best
    };
    (run(false), run(true))
}

#[test]
fn instrumentation_costs_at_most_five_percent() {
    let mut rng = StdRng::seed_from_u64(7);
    // Realistic channel widths so each step does real kernel work; a
    // toy model would make the fixed per-step obs cost look relatively
    // larger than any deployment would see.
    let cfg = MambaConfig {
        d_model: 192,
        n_layer: 2,
        d_state: 64,
        d_conv: 4,
        expand: 2,
        headdim: 64,
        ngroups: 1,
        vocab_size: 1024,
    };
    let model = MambaModel::synthetic(cfg, &mut rng).expect("synthetic model");
    let (bare, instrumented) = engine_obs_overhead(&model, 64, 5);
    assert!(bare > 0.0 && instrumented > 0.0);
    let overhead = bare / instrumented - 1.0;
    // Always printed so CI logs show the measured margin.
    println!(
        "bare {bare:.1} tok/s, instrumented {instrumented:.1} tok/s, overhead {:+.2}%",
        overhead * 100.0
    );
    #[cfg(not(debug_assertions))]
    assert!(
        overhead <= 0.05,
        "observability layer costs {:.2}% of decode throughput (bare {bare:.1} tok/s, \
         instrumented {instrumented:.1} tok/s); the budget is 5%",
        overhead * 100.0
    );
}
