//! Release-only pin of the worker-pool scaling claim: cutting a
//! batch-16 integer-W4A4 decode into 4 lanes, one per thread, must reach
//! ≥2.5× the single-thread tokens/s. (`benchmark/` reports the 2-thread
//! ratio as `pool.scaling_t2`; this is the floor CI enforces.)
//!
//! The pin self-skips on debug builds (kernel timings there measure
//! bounds checks, not weight streaming) and on hosts with fewer than 4
//! cores (the pool would just time-slice one core) — so `cargo test`
//! stays green everywhere while `cargo test --release` on a multi-core
//! box enforces the scaling floor.

use std::time::Instant;

use lightmamba_model::{batch, MambaConfig, MambaModel, ModelState};
use lightmamba_pool::WorkerPool;
use lightmamba_quant::pipeline::{quantize_model, Method, QuantSpec};
use lightmamba_quant::qmodel::{ExecMode, QuantWorkspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

const BATCH: usize = 16;
const WARMUP: usize = 6;
const STEPS: usize = 24;

/// One timed batched-decode loop — `WARMUP` untimed steps, then `STEPS`
/// timed ones over every state fed a fixed token pattern — in tokens
/// per second.
fn time_decode<F: FnMut(&[(usize, u32)], &mut [ModelState])>(
    vocab: usize,
    states: &mut [ModelState],
    mut step: F,
) -> f64 {
    for st in states.iter_mut() {
        st.reset();
    }
    let mut items: Vec<(usize, u32)> = (0..states.len()).map(|k| (k, 0u32)).collect();
    let mut tick = |t: usize, states: &mut [ModelState]| {
        for (k, item) in items.iter_mut().enumerate() {
            item.1 = ((t * 7 + k * 13) % vocab) as u32;
        }
        step(&items, states);
    };
    for t in 0..WARMUP {
        tick(t, states);
    }
    let start = Instant::now();
    for t in 0..STEPS {
        tick(WARMUP + t, states);
    }
    let secs = start.elapsed().as_secs_f64();
    (states.len() * STEPS) as f64 / secs
}

#[test]
fn four_thread_integer_decode_reaches_2_5x() {
    if cfg!(debug_assertions) {
        eprintln!("skipping scaling pin: debug build");
        return;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("skipping scaling pin: host has {cores} core(s), need 4");
        return;
    }

    // Big enough that per-step weight streaming dominates, small enough
    // to run in seconds.
    let cfg = MambaConfig {
        d_model: 256,
        n_layer: 4,
        d_state: 64,
        d_conv: 4,
        expand: 2,
        headdim: 64,
        ngroups: 1,
        vocab_size: 2048,
    };
    let model = MambaModel::synthetic(cfg.clone(), &mut StdRng::seed_from_u64(7)).unwrap();
    let q = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(128), &[]).unwrap();
    assert_eq!(q.exec_mode(), ExecMode::Integer);

    let mut states: Vec<ModelState> = (0..BATCH).map(|_| q.new_state()).collect();
    let mut ws = QuantWorkspace::new();
    let mut run = |pool: Option<&WorkerPool>| {
        time_decode(cfg.vocab_size, &mut states, |items, states| {
            batch::step(&q, items, states, pool, &mut ws).unwrap();
        })
    };
    let seq = run(None);

    let pool = WorkerPool::new(4);
    // Best of 3: one scheduler hiccup on a shared runner must not fail
    // the floor.
    let par = (0..3).map(|_| run(Some(&pool))).fold(0.0f64, f64::max);

    let scaling = par / seq;
    assert!(
        scaling >= 2.5,
        "4-thread integer decode reached only {scaling:.2}x single-thread \
         ({par:.0} vs {seq:.0} tok/s) at batch {BATCH}"
    );
}
