//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics, and for each layer the
//! end-to-end metric and workload its metrics should move. `BENCHMARK.json`
//! at the repository root mirrors the first three (pinned by the schema
//! test); its entries may carry no lane and no map, so every result file
//! carries them instead ([`crate::report::result_json`]).

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// One line: the mechanism it exercises and the one it bypasses.
    pub why: &'static str,
    /// Whether `BENCHMARK.json` lists it, so that the driver gates on it.
    pub listed: bool,
}

/// One metric of either list.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Metric name (`[A-Za-z0-9_.-]+`, unique across both lists).
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change is rejected; `None` on per-layer metrics.
    pub bound: Option<f64>,
    /// Exact lane: a count, a computed size or a simulated figure, which
    /// must repeat bit for bit. Otherwise wall lane: host time.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        exact,
    }
}

/// Wall-lane per-layer metric, lower is better.
const fn lo(name: &'static str, unit: &'static str) -> MetricSpec {
    layer(name, unit, Better::Lower, false)
}

/// Wall-lane per-layer metric, higher is better.
const fn hi(name: &'static str, unit: &'static str) -> MetricSpec {
    layer(name, unit, Better::Higher, false)
}

/// Exact-lane per-layer metric, lower is better.
const fn xlo(name: &'static str, unit: &'static str) -> MetricSpec {
    layer(name, unit, Better::Lower, true)
}

/// Exact-lane per-layer metric, higher is better.
const fn xhi(name: &'static str, unit: &'static str) -> MetricSpec {
    layer(name, unit, Better::Higher, true)
}

/// The five workloads, in round-robin order. `BENCHMARK.json` lists two:
/// the reference host's speed wanders over minutes, so the driver's time
/// limit goes into long runs of the pair the next changes are judged on
/// — the paper's batch-1 decode and the batch-16 throughput batched GEMM
/// must raise — not into short runs of four (README, "noise"). The
/// others run in the command, the tests and `stability.sh`.
/// `paper_anchors` could not be listed at all: the end-to-end metrics
/// must be numbers on every listed workload, and it times no request.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "single_stream",
        why: "batch-1 W4A4 decode through serve::frontend (the paper's setting): GEMV, LM head, per-step engine cost and the channel hop dominate; batching, scheduler and prefix cache are bypassed",
        listed: true,
    },
    WorkloadSpec {
        name: "batch_decode",
        why: "16 W4A4 sequences in flight, direct-drive closed loop: throughput at batch 16, the number batched GEMM must raise; frontend, queueing and prefix cache are bypassed",
        listed: true,
    },
    WorkloadSpec {
        name: "shared_prefix",
        why: "FP requests sharing 3 system prompts with the prefix cache on: lookup, harvest and state restore set TTFT; covers the FP path alone; W4A4 kernels and frontend are bypassed",
        listed: false,
    },
    WorkloadSpec {
        name: "mixed_traffic",
        why: "open-loop Poisson mix on FP+W4A4 under preemptive priorities: scheduler, admission, preemption, chunked prefill and sampling do real work; prefix cache and frontend are bypassed",
        listed: false,
    },
    WorkloadSpec {
        name: "paper_anchors",
        why: "no serving: five PTQ methods, W4A4 fidelity, and the cycle model against the paper's tok/s and tok/J; exact lane apart from setup_s and peak_rss_mb",
        listed: false,
    },
];

/// Bound of the wall-clock timing metrics. The reference host's runs
/// differ by this much on their own (README, "noise"); tighter claims
/// are settled by the exact lane and by alternating pairs.
const WALL: f64 = 0.25;

/// End-to-end metrics, all wall-lane, as measured: never zero, and
/// defined on every serving workload (`paper_anchors` has `setup_s` and
/// `peak_rss_mb` only). The exact-lane end-to-end metrics (`fail_frac`,
/// `accel_tok_s`, …) head the per-layer list instead, because several
/// are zero or constant by design (README, "two lanes").
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("decode_tok_s", "tok/s", Better::Higher, WALL),
    e2e("ttft_ms_p50", "ms", Better::Lower, WALL),
    e2e("itl_ms_p50", "ms", Better::Lower, WALL),
    e2e("setup_s", "s", Better::Lower, WALL),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.1),
];

/// Per-layer metrics, grouped by the module they measure. Zero means
/// the workload does not exercise that layer.
pub const PER_LAYER: [MetricSpec; 107] = [
    // Exact-lane end-to-end metrics (must repeat bit for bit).
    xlo("fail_frac", "ratio"),
    xhi("accel_tok_s", "sim_tok/s"),
    xlo("accel_ttft_s_p95", "sim_s"),
    xlo("paper_err_pct_max", "%"),
    xlo("w4a4_mean_kl", "nats"),
    xhi("w4a4_top1_agree", "ratio"),
    // Wall-lane end-to-end metric the reference host cannot hold within
    // a bound (README, "noise"): reported, not gated.
    lo("ttft_ms_p95", "ms"),
    // serve::frontend
    lo("serve.frontend.token_hop_us_p50", "us"),
    lo("serve.frontend.submit_us_p50", "us"),
    lo("serve.frontend.queued_us_p50", "us"),
    // serve::engine
    lo("serve.engine.step_ms_p50", "ms"),
    lo("serve.engine.step_ms_p95", "ms"),
    lo("serve.engine.step_ms_p99", "ms"),
    lo("serve.engine.submit_us_p50", "us"),
    lo("serve.engine.take_events_us_p50", "us"),
    xlo("serve.engine.steps", "count"),
    xlo("serve.engine.token_advances", "count"),
    xlo("serve.engine.prefill_tokens", "count"),
    xlo("serve.engine.decode_tokens", "count"),
    xhi("serve.engine.batch_mean", "count"),
    xlo("serve.engine.max_step_token_advances", "count"),
    xlo("serve.engine.evicted", "count"),
    xlo("serve.engine.state_moves", "count"),
    lo("serve.engine.overhead_frac", "ratio"),
    // serve::engine step phases (EngineObs spans, mean per step)
    lo("serve.engine.phase.cancel_us", "us"),
    lo("serve.engine.phase.expire_us", "us"),
    lo("serve.engine.phase.doom_us", "us"),
    lo("serve.engine.phase.preempt_us", "us"),
    lo("serve.engine.phase.admit_us", "us"),
    lo("serve.engine.phase.advance_us", "us"),
    lo("serve.engine.phase.sample_us", "us"),
    lo("serve.engine.phase.retire_us", "us"),
    // serve::scheduler
    xlo("serve.scheduler.queue_steps_p50", "steps"),
    xlo("serve.scheduler.queue_steps_p95", "steps"),
    xlo("serve.scheduler.ttft_steps_p50", "steps"),
    xlo("serve.scheduler.ttft_steps_p95", "steps"),
    xlo("serve.scheduler.admissions", "count"),
    xlo("serve.scheduler.preemptions", "count"),
    xlo("serve.scheduler.resumes", "count"),
    // serve::prefix
    xhi("serve.prefix.hits", "count"),
    xlo("serve.prefix.misses", "count"),
    xhi("serve.prefix.hit_rate", "ratio"),
    xhi("serve.prefix.prefill_tokens_skipped", "count"),
    lo("serve.prefix.lookup_ns", "ns"),
    // serve::backend
    lo("serve.backend.fp.advance_us_b1", "us"),
    lo("serve.backend.fp.advance_us_b16", "us"),
    lo("serve.backend.w4a4.advance_us_b1", "us"),
    lo("serve.backend.w4a4.advance_us_b16", "us"),
    hi("serve.backend.fp.batch_scaling_b16", "ratio"),
    hi("serve.backend.w4a4.batch_scaling_b16", "ratio"),
    lo("serve.backend.save_state_us", "us"),
    lo("serve.backend.restore_state_us", "us"),
    // serve::accel_cost
    xhi("serve.accel_cost.residency_ok", "bool"),
    xlo("serve.accel_cost.state_transfer_s", "sim_s"),
    // model
    lo("model.embed_ns", "ns"),
    lo("model.block.forward_step_ns", "ns"),
    lo("model.ssm.step_ns", "ns"),
    lo("model.lm_head_ns", "ns"),
    lo("model.sampler.greedy_ns", "ns"),
    lo("model.sampler.topk_ns", "ns"),
    lo("model.step_b1_us", "us"),
    lo("model.step_b16_us", "us"),
    hi("model.replay_coverage", "ratio"),
    // tensor
    lo("tensor.ops.vecmat_in_proj_ns", "ns"),
    lo("tensor.ops.vecmat_out_proj_ns", "ns"),
    lo("tensor.conv.step_ns", "ns"),
    lo("tensor.norm.rms_norm_ns", "ns"),
    lo("tensor.norm.gated_rms_norm_ns", "ns"),
    lo("tensor.activation.silu_ns", "ns"),
    // quant
    lo("quant.kernels.act_quant_ns", "ns"),
    lo("quant.kernels.gemv_in_proj_ns", "ns"),
    lo("quant.kernels.gemv_out_proj_ns", "ns"),
    lo("quant.kernels.gemv_lm_head_ns", "ns"),
    lo("quant.kernels.gemm_in_proj_b16_ns", "ns"),
    lo("quant.quantizer.fake_quant_slice_ns", "ns"),
    lo("quant.qmodel.step_b1_us", "us"),
    lo("quant.qmodel.step_b16_us", "us"),
    hi("quant.qmodel.replay_coverage", "ratio"),
    xlo("quant.kernels.weight_bytes_per_token", "bytes"),
    lo("quant.pipeline.quantize_model_ms", "ms"),
    lo("quant.rotation.apply_ms", "ms"),
    lo("quant.kernels.pack_ms", "ms"),
    // hadamard
    lo("hadamard.factored.apply_ns", "ns"),
    lo("hadamard.fwht_ns", "ns"),
    // pool
    lo("pool.dispatch_us", "us"),
    lo("pool.par_step_b16_t2_us", "us"),
    hi("pool.scaling_t2", "ratio"),
    // accel (simulated; must repeat bit for bit)
    xhi("accel.sim.vck190_w4a4_tok_s", "sim_tok/s"),
    xhi("accel.sim.vck190_w8a8_tok_s", "sim_tok/s"),
    xhi("accel.sim.u280_w4a4_tok_s", "sim_tok/s"),
    xhi("accel.sim.vck190_w4a4_tok_per_j", "sim_tok/J"),
    xlo("accel.sim.vck190_compute_cycles", "cycles"),
    xlo("accel.sim.vck190_dma_cycles", "cycles"),
    xhi("accel.sim.utilization", "ratio"),
    xlo("accel.mmu.in_proj_cycles", "cycles"),
    xlo("accel.ssmu.all_heads_cycles", "cycles"),
    xlo("accel.htu.transform_cycles", "cycles"),
    xhi("accel.batch.tok_s_b16", "sim_tok/s"),
    xhi("accel.gpu.rtx2070_tok_s", "sim_tok/s"),
    xlo("accel.err_pct.vck190_w4a4", "%"),
    xlo("accel.err_pct.vck190_w8a8", "%"),
    xlo("accel.err_pct.u280_w4a4", "%"),
    xlo("accel.err_pct.energy_vck190_w4a4", "%"),
    // core
    lo("core.codesign.hardware_report_us", "us"),
    lo("core.ablation.run_ms", "ms"),
    // obs
    lo("obs.trace_overhead_frac", "ratio"),
    xlo("obs.spans_dropped", "count"),
];

/// For each layer (a prefix of per-layer metric names; the longest match
/// wins), the end-to-end metric its metrics should move and on which
/// workload: the prediction a later change is held to.
pub const MOVES: [(&str, &str); 23] = [
    ("fail_frac", "the command's exit code and `correct`, on every workload"),
    ("ttft_ms_p95", "itself: the TTFT tail of the timed rounds, as a user sees it; queueing on mixed_traffic, the first wave on batch_decode"),
    ("accel_tok_s", "itself: the round priced on VCK190; moves with batch composition on mixed_traffic, never with host kernels"),
    ("accel_ttft_s_p95", "itself: queueing on the simulated clock, on mixed_traffic; prefix hits on shared_prefix"),
    ("paper_err_pct_max", "itself, on paper_anchors: the U280 gap"),
    ("w4a4_", "itself, on paper_anchors: a kernel change that perturbs numerics shows here"),
    ("serve.frontend.", "itl_ms_p50, ttft_ms_p50 on single_stream only"),
    ("serve.engine.", "itl_ms_p50, decode_tok_s on single_stream (largest share of a 0.4 ms step) and mixed_traffic (most events); about 0 on batch_decode; the counts must not move under a step() decomposition"),
    ("serve.engine.phase.", "admit_us + preempt_us: ttft_ms_p95 on mixed_traffic; sample_us + retire_us: itl_ms_p50 on single_stream"),
    ("serve.scheduler.", "ttft_ms_p95, accel_ttft_s_p95 on mixed_traffic; zero queueing on the closed-loop workloads"),
    ("serve.prefix.", "ttft_ms_p50, ttft_ms_p95, accel_ttft_s_p95 on shared_prefix; 0 elsewhere"),
    ("serve.backend.", "b16, batch_scaling_b16: decode_tok_s on batch_decode (W4A4), mixed_traffic and shared_prefix (FP); b1: itl_ms_p50 on single_stream; state moves: mixed_traffic (preemption), shared_prefix (restore)"),
    ("serve.accel_cost.", "accel_tok_s on mixed_traffic"),
    ("model.", "ssm.step_ns: every serving workload in proportion to token_advances; lm_head_ns: itl_ms_p50 on single_stream, ttft on mixed_traffic; sampler.topk_ns: mixed_traffic only"),
    ("tensor.", "FP path: decode_tok_s, ttft_ms_p50 on shared_prefix and half of mixed_traffic; conv, norm, silu: all"),
    ("quant.", "gemv, act_quant: itl_ms_p50, decode_tok_s on single_stream; gemm_in_proj_b16_ns / 16 against gemv_in_proj_ns: the saving batched GEMM can bank on batch_decode"),
    ("quant.pipeline.", "setup_s on every W4A4 workload and paper_anchors"),
    ("quant.rotation.", "setup_s on every W4A4 workload and paper_anchors"),
    ("quant.kernels.pack_ms", "setup_s on every W4A4 workload and paper_anchors"),
    ("hadamard.", "itl_ms_p50 on the W4A4 workloads (online rotation before out_proj)"),
    ("pool.", "none today: serving workloads run one engine thread"),
    ("accel.", "paper_err_pct_max, accel_tok_s on paper_anchors"),
    ("core.", "none: host cost of the paper tables"),
];

/// The [`MOVES`] entry of per-layer metric `name`; `obs.*` moves nothing.
pub fn moves(name: &str) -> &'static str {
    MOVES
        .iter()
        .filter(|(prefix, _)| name.starts_with(prefix))
        .max_by_key(|(prefix, _)| prefix.len())
        .map_or("none: cost of the tracing itself", |(_, m)| m)
}

/// Whether `name` fits the contract: starts with a letter or digit,
/// then at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` fits the contract: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}
