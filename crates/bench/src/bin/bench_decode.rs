//! Measured **host** decode throughput: FP16 reference vs fake-quant
//! W4A4 vs true-integer W4A4 over packed weights, across batch sizes.
//!
//! Every other bench in this crate projects *accelerator* time from the
//! cycle model; this one runs the real kernels on the host CPU and
//! reports wall-clock tokens/s, seeding the measured perf trajectory
//! (BENCH_*). The comparison isolates exactly the paper's claim on host
//! hardware: the fake-quant path computes f32 GEMVs over dequantized
//! weights (4 bytes streamed per weight), the integer path computes
//! i8×u4-packed GEMVs (0.5 bytes per weight) with i32 accumulation and
//! one f32 rescale per group. Decode is weight-bandwidth-bound, so the
//! packed path wins on the host too — by how much is what this bench
//! measures.
//!
//! All three variants run the allocation-free workspace decode
//! (`forward_step_batch_indexed_with`), so the comparison is kernels
//! only, not allocator noise.
//!
//! A second section times the *serving engine* on the FP model — the
//! same decode-heavy run bare and with the full observability layer
//! (metrics registry, per-phase spans, flight recorder) enabled — to
//! measure what instrumentation costs on the engine hot loop (pinned
//! ≤5% by `tests/obs_overhead.rs`).
//!
//! A third section sweeps the worker-pool width: the same batched
//! decode cut into 1, 2, … `--threads` lanes by the decode driver
//! (`lightmamba_model::batch`), one per core, on the FP and the
//! integer-W4A4 path. Output is bit-identical for every lane count
//! (pinned by the driver's tests), so the sweep measures pure
//! host-scaling, and the per-width tokens/s land in BENCH_JSON
//! alongside the active SIMD ISA.
//!
//! Flags:
//! * `--smoke` — tiny config and short loops (CI);
//! * `--steps N` — timed decode steps per (variant, batch) cell;
//! * `--threads N` — top of the thread sweep (default 1 = sweep off).
//!
//! A final `BENCH_JSON` line captures tokens/s per variant per batch,
//! the integer-over-fake speedup, the thread sweep, and the engine
//! instrumentation overhead.

use lightmamba::report::render_table;
use lightmamba_bench::{engine_obs_overhead, time_decode};
use lightmamba_model::{batch, DecodeWorkspace, MambaConfig, MambaModel, ModelState};
use lightmamba_pool::WorkerPool;
use lightmamba_quant::qmodel::{ExecMode, Precision, QuantWorkspace};
use lightmamba_quant::{PreparedModel, QuantizedMamba};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Args {
    smoke: bool,
    steps: usize,
    threads: usize,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        smoke: false,
        steps: 0,
        threads: 1,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--smoke" => args.smoke = true,
            "--steps" => {
                i += 1;
                args.steps = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--steps needs an integer"));
            }
            "--threads" => {
                i += 1;
                args.threads = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&t| t > 0)
                    .unwrap_or_else(|| panic!("--threads needs a positive integer"));
            }
            other => panic!("unknown flag {other:?} (supported: --smoke, --steps N, --threads N)"),
        }
        i += 1;
    }
    if args.steps == 0 {
        args.steps = if args.smoke { 12 } else { 48 };
    }
    args
}

/// Pool widths the sweep measures: powers of two up to `max`, plus
/// `max` itself (so `--threads 6` measures 1, 2, 4, 6).
fn thread_sweep(max: usize) -> Vec<usize> {
    let mut v = vec![1];
    let mut t = 2;
    while t < max {
        v.push(t);
        t *= 2;
    }
    if max > 1 {
        v.push(max);
    }
    v
}

/// Host-bench model: large enough that per-step weight streaming
/// dominates (several MB of FP32 weights), small enough to build and
/// run in seconds. The smoke variant shrinks depth and vocab but keeps
/// realistic channel widths — on toy widths (d_model < ~100) every
/// weight sits in L1 and the comparison measures loop overhead, not
/// weight streaming.
fn bench_config(smoke: bool) -> MambaConfig {
    MambaConfig {
        d_model: if smoke { 192 } else { 256 },
        n_layer: if smoke { 2 } else { 4 },
        d_state: 64,
        d_conv: 4,
        expand: 2,
        headdim: 64,
        ngroups: 1,
        vocab_size: if smoke { 1024 } else { 2048 },
    }
}

fn main() {
    let args = parse_args();
    let cfg = bench_config(args.smoke);
    let group = if args.smoke { 64 } else { 128 };
    let batches: &[usize] = if args.smoke { &[1, 4] } else { &[1, 4, 16] };
    let warmup = (args.steps / 4).max(2);

    println!(
        "bench_decode: host tokens/s, d_model {}, {} layers, vocab {}, \
         W4A4 group {group}, {} timed steps per cell",
        cfg.d_model, cfg.n_layer, cfg.vocab_size, args.steps
    );

    let mut rng = StdRng::seed_from_u64(7);
    let model = MambaModel::synthetic(cfg.clone(), &mut rng).expect("synthetic model");
    let prepared = PreparedModel::from_reference(&model).expect("prepare");
    let q_int = QuantizedMamba::new(prepared, Precision::w4a4(group)).expect("quantize");
    assert_eq!(q_int.exec_mode(), ExecMode::Integer);
    let q_fake = q_int
        .clone()
        .with_exec_mode(ExecMode::FakeQuant)
        .expect("fake-quant oracle mode");
    println!(
        "weights: fp16 streams {:.2} bits/param, packed W4A4 streams {:.2} bits/param",
        16.0,
        q_int.mean_weight_bits()
    );

    let mut fp_ws = DecodeWorkspace::new();
    let mut fake_ws = QuantWorkspace::new();
    let mut int_ws = QuantWorkspace::new();

    let mut rows = Vec::new();
    let mut fp_tps = Vec::new();
    let mut fake_tps = Vec::new();
    let mut int_tps = Vec::new();
    for &batch in batches {
        let mut states: Vec<ModelState> = (0..batch).map(|_| model.new_state()).collect();
        let fp = time_decode(
            cfg.vocab_size,
            batch,
            warmup,
            args.steps,
            &mut states,
            |items, states| {
                model
                    .forward_step_batch_indexed_with(items, states, &mut fp_ws)
                    .expect("fp step");
            },
        );
        let fake = time_decode(
            cfg.vocab_size,
            batch,
            warmup,
            args.steps,
            &mut states,
            |items, states| {
                q_fake
                    .forward_step_batch_indexed_with(items, states, &mut fake_ws)
                    .expect("fake-quant step");
            },
        );
        let int = time_decode(
            cfg.vocab_size,
            batch,
            warmup,
            args.steps,
            &mut states,
            |items, states| {
                q_int
                    .forward_step_batch_indexed_with(items, states, &mut int_ws)
                    .expect("integer step");
            },
        );
        rows.push(vec![
            batch.to_string(),
            format!("{fp:.1}"),
            format!("{fake:.1}"),
            format!("{int:.1}"),
            format!("{:.2}x", int / fake),
            format!("{:.2}x", int / fp),
        ]);
        fp_tps.push(fp);
        fake_tps.push(fake);
        int_tps.push(int);
    }

    println!();
    println!(
        "{}",
        render_table(
            &[
                "batch",
                "fp tok/s",
                "fake-w4a4 tok/s",
                "int-w4a4 tok/s",
                "int/fake",
                "int/fp",
            ],
            &rows,
        )
    );

    // Worker-pool scaling: the same batched decode at the largest
    // batch, cut into one lane per thread across the sweep's pool
    // widths. Width 1 passes no pool (the one-lane cut on this thread,
    // the true single-thread baseline) — bit-identical output at every
    // width, so this isolates host scaling.
    let sweep = thread_sweep(args.threads);
    let par_batch = *batches.last().unwrap();
    let mut fp_par_tps: Vec<f64> = Vec::new();
    let mut int_par_tps: Vec<f64> = Vec::new();
    if args.threads > 1 {
        for &t in &sweep {
            let mut states: Vec<ModelState> = (0..par_batch).map(|_| model.new_state()).collect();
            let pool = (t > 1).then(|| WorkerPool::new(t));
            let pool = pool.as_ref();
            let fp = time_decode(
                cfg.vocab_size,
                par_batch,
                warmup,
                args.steps,
                &mut states,
                |items, states| {
                    batch::step(&model, items, None, states, pool, &mut fp_ws).expect("fp step");
                },
            );
            let int = time_decode(
                cfg.vocab_size,
                par_batch,
                warmup,
                args.steps,
                &mut states,
                |items, states| {
                    batch::step(&q_int, items, None, states, pool, &mut int_ws)
                        .expect("integer step");
                },
            );
            fp_par_tps.push(fp);
            int_par_tps.push(int);
        }
        let rows: Vec<Vec<String>> = sweep
            .iter()
            .zip(fp_par_tps.iter().zip(&int_par_tps))
            .map(|(&t, (&fp, &int))| {
                vec![
                    t.to_string(),
                    format!("{fp:.1}"),
                    format!("{int:.1}"),
                    format!("{:.2}x", fp / fp_par_tps[0]),
                    format!("{:.2}x", int / int_par_tps[0]),
                ]
            })
            .collect();
        println!();
        println!(
            "thread sweep at batch {par_batch} (quant kernels: {} ISA):",
            lightmamba_quant::simd::active_isa()
        );
        println!(
            "{}",
            render_table(
                &[
                    "threads",
                    "fp tok/s",
                    "int-w4a4 tok/s",
                    "fp scaling",
                    "int scaling",
                ],
                &rows,
            )
        );
    }

    // Engine-level instrumentation cost: the serving engine on the FP
    // model, bare vs full observability, best of 3 runs each.
    let gen_tokens = if args.smoke { 48 } else { 192 };
    let (engine_bare, engine_obs) = engine_obs_overhead(&model, gen_tokens, 3);
    let obs_overhead_pct = (engine_bare / engine_obs - 1.0) * 100.0;
    println!();
    println!(
        "serving engine (8-slot FIFO, {gen_tokens}-token decodes): bare {engine_bare:.1} tok/s, \
         instrumented {engine_obs:.1} tok/s ({obs_overhead_pct:+.2}% observability overhead)"
    );

    let fmt = |v: &[f64]| {
        v.iter()
            .map(|t| format!("{t:.1}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    let speedups: Vec<String> = int_tps
        .iter()
        .zip(&fake_tps)
        .map(|(i, f)| format!("{:.3}", i / f))
        .collect();
    let par_threads: Vec<String> = if args.threads > 1 {
        sweep.iter().map(|t| t.to_string()).collect()
    } else {
        Vec::new()
    };
    // Machine-readable summary for the BENCH harness.
    println!(
        "BENCH_JSON {{\"bench\":\"decode_host\",\"smoke\":{},\"d_model\":{},\"n_layer\":{},\
         \"group\":{group},\"batches\":[{}],\"fp_tok_s\":[{}],\"fake_w4a4_tok_s\":[{}],\
         \"int_w4a4_tok_s\":[{}],\"int_over_fake\":[{}],\"packed_bits_per_param\":{:.3},\
         \"isa\":\"{}\",\"par_batch\":{par_batch},\"threads\":[{}],\"fp_par_tok_s\":[{}],\
         \"int_par_tok_s\":[{}],\
         \"engine_bare_tok_s\":{engine_bare:.1},\"engine_obs_tok_s\":{engine_obs:.1},\
         \"obs_overhead_pct\":{obs_overhead_pct:.2}}}",
        args.smoke,
        cfg.d_model,
        cfg.n_layer,
        batches
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(","),
        fmt(&fp_tps),
        fmt(&fake_tps),
        fmt(&int_tps),
        speedups.join(","),
        q_int.mean_weight_bits(),
        lightmamba_quant::simd::active_isa(),
        par_threads.join(","),
        fmt(&fp_par_tps),
        fmt(&int_par_tps),
    );
}
