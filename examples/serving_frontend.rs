//! Streaming frontend demo: concurrent clients over one serving engine
//! — per-token streams, a mid-stream disconnect, and multi-turn chat
//! sessions resuming from parked Mamba states.
//!
//! Run with: `cargo run --release --example serving_frontend
//! [-- --policy fifo|edf|priority|... --clients N
//!  --metrics-dump metrics.prom --trace-out trace.json]`
//!
//! `--metrics-dump` writes the engine's Prometheus-style metrics
//! snapshot; `--trace-out` writes a two-lane Chrome trace (host wall
//! clock + VCK190-projected virtual time) viewable in
//! `chrome://tracing` or Perfetto. Either flag enables the engine's
//! observability layer for the run.
//!
//! Three client populations share one engine thread through cloned
//! handles: plain streaming clients that read to completion, an
//! impatient client that drops its stream after a few tokens (the
//! engine reclaims the slot within one step), and chat sessions whose
//! turns resume from the engine's parked states — each resume is one
//! fixed-size state transfer instead of re-prefilling the whole
//! conversation, which is exactly what Mamba2's constant-size state
//! buys a serving stack. The run is then priced on the paper's VCK190 design point so
//! the cancelled work and session state traffic show up in projected
//! seconds.

use lightmamba_repro::accel::platform::Platform;
use lightmamba_repro::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut policy_name = "fifo".to_string();
    let mut clients = 6usize;
    let mut metrics_dump: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--policy" => {
                policy_name = argv.get(i + 1).ok_or("--policy needs a name")?.clone();
                i += 2;
            }
            "--clients" => {
                clients = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--clients needs a positive integer")?;
                i += 2;
            }
            "--metrics-dump" => {
                metrics_dump = Some(
                    argv.get(i + 1)
                        .ok_or("--metrics-dump needs an output path")?
                        .clone(),
                );
                i += 2;
            }
            "--trace-out" => {
                trace_out = Some(
                    argv.get(i + 1)
                        .ok_or("--trace-out needs an output path")?
                        .clone(),
                );
                i += 2;
            }
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }
    // The scheduler crate's own error already lists every valid name.
    let policy = policy_by_name(&policy_name).map_err(|e| e.to_string())?;

    // FP reference and its W4A4 quantization multiplexed on one pool.
    let mut rng = StdRng::seed_from_u64(42);
    let cfg = MambaConfig::tiny();
    let model = MambaModel::synthetic(cfg.clone(), &mut rng)?;
    let quantized = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[])?;
    let mut registry = ModelRegistry::new();
    registry.register("fp", Box::new(FpBackend::new(&model)))?;
    registry.register("w4a4", Box::new(W4A4Backend::new(quantized)))?;
    let platform = Platform::vck190();
    let big = MambaConfig::preset(ModelPreset::B2_7);
    let mut cost = MultiplexCostModel::for_registry(&registry, &platform, &big)?;
    let engine = ServeEngine::with_registry(
        registry,
        EngineConfig {
            slots: 8,
            max_steps: 1_000_000,
            prefill_chunk: 4,
            threads: 1,
            ..Default::default()
        },
    )?;

    println!(
        "policy: {policy_name} | {clients} streaming clients + 1 disconnect + 2 chat sessions"
    );
    let frontend_cfg = FrontendConfig {
        obs: (metrics_dump.is_some() || trace_out.is_some()).then(ObsConfig::default),
    };
    let ((), run) = run_frontend(engine, policy, frontend_cfg, |handle| {
        // Population 1: plain streaming clients, one thread each,
        // reading their streams to the terminal event.
        let streamers: Vec<_> = (0..clients)
            .map(|k| {
                let h = handle.clone();
                std::thread::spawn(move || {
                    let prompt: Vec<u32> = (1..=(4 + (k as u32 % 5))).collect();
                    let req = GenRequest::greedy(0, prompt, 8 + k % 7).on_model(k % 2);
                    let mut stream = h.submit(req).expect("valid request");
                    let mut tokens = 0usize;
                    let mut completion = None;
                    for ev in &mut stream {
                        match ev {
                            StreamEvent::Token { .. } => tokens += 1,
                            StreamEvent::Done(c) => completion = Some(*c),
                            _ => {}
                        }
                    }
                    let c = completion.expect("streamer runs to completion");
                    (tokens, c.id, c.tokens.len())
                })
            })
            .collect();

        // Population 2: an impatient client that hangs up after three
        // tokens — dropping the stream is the disconnect.
        let impatient = {
            let h = handle.clone();
            std::thread::spawn(move || {
                let mut stream = h
                    .submit(GenRequest::greedy(0, vec![9, 9, 9], 300))
                    .expect("valid request");
                let mut seen = 0;
                while let Some(ev) = stream.recv() {
                    if matches!(ev, StreamEvent::Token { .. }) {
                        seen += 1;
                        if seen == 3 {
                            break;
                        }
                    }
                }
                seen
                // `stream` drops here: the engine cancels the request
                // and reclaims the slot within one step.
            })
        };

        // Population 3: two chat sessions, three turns each. Turns of
        // one session are sequential (a user reads, then replies); the
        // sessions themselves run concurrently with everything else.
        let chats: Vec<_> = (0..2u64)
            .map(|sid| {
                let h = handle.clone();
                std::thread::spawn(move || {
                    let mut ttfts = Vec::new();
                    for turn in 0..3u32 {
                        let prompt: Vec<u32> =
                            (0..4).map(|t| 100 + sid as u32 * 10 + turn + t).collect();
                        let req = GenRequest::greedy(0, prompt, 6).with_session(sid);
                        let stream = h.submit(req).expect("valid request");
                        let c = stream.wait().expect("turn completes");
                        ttfts.push(c.ttft_steps().expect("turn produced tokens"));
                    }
                    ttfts
                })
            })
            .collect();

        for s in streamers {
            let (streamed, id, recorded) = s.join().expect("streamer thread");
            assert_eq!(streamed, recorded);
            println!("  client {id:>2}: streamed {streamed} tokens");
        }
        let seen = impatient.join().expect("impatient thread");
        println!("  impatient client: hung up after {seen} tokens");
        for (sid, chat) in chats.into_iter().enumerate() {
            let ttfts = chat.join().expect("chat thread");
            println!(
                "  chat session {sid}: TTFT per turn (steps) = {ttfts:?} \
                 (later turns resume a parked state)"
            );
        }
    })?;

    println!();
    println!(
        "engine: {} completed, {} cancelled ({} token-advances wasted, {} slot-steps reclaimed)",
        run.report.completed,
        run.report.cancellations,
        run.report.wasted_token_advances,
        run.report.reclaimed_slot_steps,
    );
    println!(
        "sessions: {} turns resumed a parked state",
        run.report.session_restores
    );

    let priced = cost.cost_run(&run.report, &run.completions)?;
    println!(
        "priced on {}: {:.3} s total | {:.6} s state transfers (preemption + session moves) | \
         {:.6} s wasted on cancelled work",
        priced.platform, priced.seconds, priced.state_transfer_s, priced.wasted_work_s,
    );

    if let Some(obs) = &run.obs {
        if let Some(path) = &metrics_dump {
            std::fs::write(path, obs.exposition())?;
            println!("wrote metrics snapshot to {path}");
        }
        if let Some(path) = &trace_out {
            let step_seconds = cost.trace_step_seconds(&run.report.trace)?;
            std::fs::write(path, obs.chrome_trace_with_virtual(&step_seconds))?;
            println!("wrote Chrome trace to {path} (open in chrome://tracing or Perfetto)");
        }
    }

    assert!(
        run.report.cancellations >= 1,
        "the disconnect must register"
    );
    assert_eq!(
        run.report.session_restores, 4,
        "two sessions x two follow-up turns"
    );
    assert!(priced.wasted_work_s > 0.0);
    println!("OK");
    Ok(())
}
