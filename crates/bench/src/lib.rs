//! Shared helpers of the three binaries in `src/bin/`: `repro` (the
//! paper's tables and figures from `lightmamba::experiments`, checked —
//! README.md §"Reproducing the paper" is the index), `serve_traffic` (the
//! serving studies) and `bench_decode` (measured host decode throughput).

use std::time::Instant;

use lightmamba_model::ModelState;

/// Prints the standard experiment banner.
pub fn banner(id: &str, title: &str, substitution_note: &str) {
    println!("==========================================================================");
    println!("LightMamba reproduction — {id}: {title}");
    if !substitution_note.is_empty() {
        println!("note: {substitution_note}");
    }
    println!("==========================================================================");
}

/// Formats a paper-vs-measured pair.
pub fn paper_vs(paper: &str, measured: &str) -> String {
    format!("paper {paper} | measured {measured}")
}

/// Times the serving engine on a decode-heavy closed batch, bare vs
/// fully instrumented (metrics registry + per-phase spans + flight
/// recorder), best of `reps` runs each. Returns
/// `(bare_tok_s, instrumented_tok_s)`. Shared by `bench_decode` and
/// the `obs_overhead` regression test so both pin the same workload.
pub fn engine_obs_overhead(
    model: &lightmamba_model::MambaModel,
    gen_tokens: usize,
    reps: usize,
) -> (f64, f64) {
    use lightmamba_serve::engine::{EngineConfig, ServeEngine};
    use lightmamba_serve::observe::ObsConfig;
    use lightmamba_serve::request::GenRequest;
    use lightmamba_serve::scheduler::Fifo;

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

/// One timed batched-decode loop — `warmup` untimed steps, then `steps`
/// timed ones over `batch` sequences fed a fixed token pattern — in
/// tokens per second. Shared by `bench_decode` and the
/// `parallel_scaling` pin so the ≥ 2.5× floor and the bench it
/// headlines measure the same loop.
pub fn time_decode<F: FnMut(&[(usize, u32)], &mut [ModelState])>(
    vocab: usize,
    batch: usize,
    warmup: usize,
    steps: usize,
    states: &mut [ModelState],
    mut step: F,
) -> f64 {
    for st in states.iter_mut() {
        st.reset();
    }
    let mut items: Vec<(usize, u32)> = (0..batch).map(|k| (k, 0u32)).collect();
    let mut tick = |t: usize, states: &mut [ModelState]| {
        for (k, item) in items.iter_mut().enumerate() {
            item.1 = ((t * 7 + k * 13) % vocab) as u32;
        }
        step(&items, states);
    };
    for t in 0..warmup {
        tick(t, states);
    }
    let start = Instant::now();
    for t in 0..steps {
        tick(warmup + t, states);
    }
    let secs = start.elapsed().as_secs_f64();
    (batch * steps) as f64 / secs
}

#[cfg(test)]
mod tests {
    #[test]
    fn paper_vs_format() {
        assert_eq!(
            super::paper_vs("7.21", "7.33"),
            "paper 7.21 | measured 7.33"
        );
    }
}
