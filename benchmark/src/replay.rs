//! The layer replay: every decode phase timed from outside, through
//! public functions only.
//!
//! The decode step is rebuilt here from the public kernels — embed, and
//! per layer pre-norm, in_proj, conv, SiLU, SSM scan, gated norm,
//! out_proj, then final norm and LM head — and run over a seeded token
//! stream with a lap timer between phases. Every kernel therefore sees
//! live activations (nothing re-normalises its own output, and the
//! integer kernels' zero-skip sees real code distributions) and the same
//! cache state as in a real step: each layer's weights were last
//! touched one token ago, with the other layers' in between. The FP
//! rebuild must reproduce `MambaModel`'s logits bit for bit, which pins
//! that the phases timed are the phases run. The W4A4 rebuild runs the
//! same tensors through `PackedW4::quantize`, `ActQuant` and
//! `gemv_packed`; it is cost-shaped, not bit-equal to the rotated model.
//! A phase's value is the median over tokens of its mean time per call.
//! Whole-step and batch-16 figures are timed around the public drivers.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lightmamba::codesign::{CoDesign, Target};
use lightmamba::run_ablation;
use lightmamba_hadamard::{fwht, FactoredHadamard};
use lightmamba_model::sampler::Sampler;
use lightmamba_model::ssm::{ssm_step_into, SsmDims};
use lightmamba_model::weights::InProjSplit;
use lightmamba_model::{
    BlockScratch, DecodeWorkspace, MambaModel, ModelPreset, ModelState, ParDecodeWorkspace,
};
use lightmamba_pool::WorkerPool;
use lightmamba_quant::kernels::{gemm_packed, gemv_packed, GemvScratch};
use lightmamba_quant::pipeline::{quantize_model, Method, QuantSpec};
use lightmamba_quant::qmodel::QuantWorkspace;
use lightmamba_quant::quantizer::fake_quant_slice;
use lightmamba_quant::rotation::{self, RotationConfig};
use lightmamba_quant::{ActQuant, PackedW4, PreparedModel, QuantScheme, QuantizedMamba};
use lightmamba_serve::backend::{DecodeBackend, FpBackend, W4A4Backend};
use lightmamba_serve::prefix::PrefixCache;
use lightmamba_tensor::{activation, norm};

use crate::env::GROUP;
use crate::stats::median_of;
use crate::workload::PREFIX_LEN;
use crate::BenchError;

/// A rebuilt pass alternates [`BLOCKS`] times between [`BLOCK`] tokens
/// through the rebuilt step and the same tokens through the model's own
/// step, after one untimed block of each: the host's speed phases last
/// seconds, a block pair milliseconds, so the two are compared at one
/// host speed.
const BLOCK: usize = 16;
const BLOCKS: usize = 6;
/// Timed batches of the measurements made around whole calls.
const BATCHES: usize = 31;
/// Batch size of the `_b16` measurements.
const B16: usize = 16;

/// Median over [`BATCHES`] batches of the mean nanoseconds per call;
/// `call` receives its index within the batch.
fn time_ns(calls: usize, mut call: impl FnMut(usize)) -> f64 {
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            (0..calls).for_each(&mut call);
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median_of(&per_call)
}

/// Median of three wall-clock runs of a set-up stage, milliseconds.
fn time_ms3<T>(mut f: impl FnMut() -> T) -> f64 {
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median_of(&runs)
}

/// Lap timer over the phases of one rebuilt decode pass: each
/// [`Laps::lap`] charges the time since the previous one to a phase.
struct Laps {
    last: Instant,
    /// Cost of one `Instant::now()`, taken off every lap.
    overhead_ns: f64,
    /// Phase → (nanoseconds, calls) of the token in progress.
    token: BTreeMap<&'static str, (f64, u32)>,
    /// Phase → per-token mean nanoseconds per call.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-token nanoseconds over the phases of the step itself.
    totals: Vec<f64>,
    /// Per-token nanoseconds of the model's own step.
    real: Vec<f64>,
    /// Per block: rebuilt nanoseconds ÷ the model's own, same tokens.
    coverage: Vec<f64>,
}

/// Phases timed after the step proper; left out of a token's total.
const AFTER_STEP: [&str; 2] = ["greedy", "topk"];

impl Laps {
    fn new() -> Self {
        let t0 = Instant::now();
        let n = 4096;
        for _ in 0..n {
            black_box(Instant::now());
        }
        Laps {
            last: Instant::now(),
            overhead_ns: t0.elapsed().as_nanos() as f64 / n as f64,
            token: BTreeMap::new(),
            samples: BTreeMap::new(),
            totals: Vec::new(),
            real: Vec::new(),
            coverage: Vec::new(),
        }
    }

    fn start(&mut self) {
        self.token.clear();
        self.last = Instant::now();
    }

    fn lap(&mut self, phase: &'static str) {
        let now = Instant::now();
        let ns = (now.duration_since(self.last).as_nanos() as f64 - self.overhead_ns).max(0.0);
        let e = self.token.entry(phase).or_default();
        e.0 += ns;
        e.1 += 1;
        self.last = now;
    }

    /// Closes the token; `keep` is false for warm-up tokens.
    fn finish(&mut self, keep: bool) {
        if !keep {
            return;
        }
        let mut total = 0.0;
        for (&phase, &(ns, calls)) in &self.token {
            self.samples
                .entry(phase)
                .or_default()
                .push(ns / f64::from(calls));
            if !AFTER_STEP.contains(&phase) {
                total += ns;
            }
        }
        self.totals.push(total);
    }

    /// Median over tokens of the phase's mean nanoseconds per call.
    fn ns(&self, phase: &str) -> f64 {
        self.samples.get(phase).map_or(0.0, |s| median_of(s))
    }

    /// Median over tokens of the model's own step, microseconds.
    fn real_step_us(&self) -> f64 {
        median_of(&self.real) / 1e3
    }

    /// Median over blocks of rebuilt time ÷ the model's own step time.
    fn coverage(&self) -> f64 {
        median_of(&self.coverage)
    }
}

/// Packed weights and kernel scratch of the W4A4 rebuild.
struct Packed {
    layers: Vec<(PackedW4, PackedW4)>,
    head: PackedW4,
    hadamard: FactoredHadamard,
    act: ActQuant,
    iacc: GemvScratch,
    scheme: QuantScheme,
}

/// One rebuilt decode pass over `tokens`: the FP pipeline, or with
/// `packed` the W4A4 one, block by block against `real`, the model's
/// own batch-1 step. Returns the lap log and the last rebuilt logits.
fn rebuilt_pass(
    model: &MambaModel,
    tokens: &[u32],
    mut packed: Option<&mut Packed>,
    rng: &mut StdRng,
    mut real: impl FnMut(u32),
) -> Result<(Laps, Vec<f32>), BenchError> {
    let cfg = model.config();
    let (di, g) = (cfg.d_inner(), cfg.ngroups * cfg.d_state);
    let split = InProjSplit::new(cfg);
    let dims = SsmDims::new(cfg);
    let mut state = model.new_state();
    // The model's own per-block buffers, plus the logits.
    let mut s = BlockScratch::default();
    s.prepare(cfg);
    let mut logits = vec![0.0; cfg.vocab_size];
    let mut laps = Laps::new();
    let topk = Sampler::TopK {
        k: 16,
        temperature: 0.8,
    };
    for (b, block_tokens) in tokens.chunks(BLOCK).enumerate() {
        let (rebuilt_before, real_before) = (laps.totals.len(), laps.real.len());
        for &token in block_tokens {
            laps.start();
            let mut x = model.embed(token)?;
            laps.lap("embed");
            for (l, (block, lstate)) in model.blocks().iter().zip(&mut state.layers).enumerate() {
                let w = block.weights();
                s.normed.copy_from_slice(&x);
                norm::rms_norm(&mut s.normed, &w.norm_gamma, 1e-5);
                laps.lap("rms_norm");
                match packed.as_deref_mut() {
                    None => {
                        w.w_in.vecmat_into(&s.normed, &mut s.proj)?;
                        laps.lap("vecmat_in");
                    }
                    Some(p) => {
                        p.act.quantize(&s.normed, p.scheme)?;
                        laps.lap("act_quant");
                        gemv_packed(&p.layers[l].0, &p.act, &mut p.iacc, &mut s.proj)?;
                        laps.lap("gemv_in");
                    }
                }
                s.conv_in[..di].copy_from_slice(&s.proj[split.x.0..split.x.1]);
                s.conv_in[di..di + g].copy_from_slice(&s.proj[split.b.0..split.b.1]);
                s.conv_in[di + g..].copy_from_slice(&s.proj[split.c.0..split.c.1]);
                lstate
                    .conv
                    .step_into(&s.conv_in, &w.conv_weight, &w.conv_bias, &mut s.conv_out)?;
                laps.lap("conv");
                activation::silu_slice(&mut s.conv_out);
                laps.lap("silu");
                ssm_step_into(
                    dims,
                    &s.conv_out[..di],
                    &s.conv_out[di..di + g],
                    &s.conv_out[di + g..],
                    &s.proj[split.dt.0..split.dt.1],
                    &w.a_log,
                    &w.dt_bias,
                    &w.d_skip,
                    &mut lstate.h,
                    &mut s.y,
                )?;
                laps.lap("ssm");
                norm::gated_rms_norm(
                    &mut s.y,
                    &s.proj[split.z.0..split.z.1],
                    &w.gate_norm_gamma,
                    1e-5,
                );
                laps.lap("gated_norm");
                match packed.as_deref_mut() {
                    None => {
                        w.w_out.vecmat_into(&s.y, &mut s.out)?;
                        laps.lap("vecmat_out");
                    }
                    Some(p) => {
                        p.hadamard.apply(&mut s.y);
                        laps.lap("hadamard");
                        p.act.quantize(&s.y, p.scheme)?;
                        laps.lap("act_quant_inner");
                        gemv_packed(&p.layers[l].1, &p.act, &mut p.iacc, &mut s.out)?;
                        laps.lap("gemv_out");
                    }
                }
                x.iter_mut().zip(&s.out).for_each(|(xi, oi)| *xi += oi);
                laps.lap("residual");
            }
            norm::rms_norm(&mut x, model.final_norm_gamma(), 1e-5);
            match packed.as_deref_mut() {
                None => {
                    model.embedding().matvec_into(&x, &mut logits)?;
                    laps.lap("lm_head");
                }
                Some(p) => {
                    p.act.quantize(&x, p.scheme)?;
                    gemv_packed(&p.head, &p.act, &mut p.iacc, &mut logits)?;
                    laps.lap("gemv_head");
                }
            }
            black_box(Sampler::Greedy.sample(&logits, rng));
            laps.lap("greedy");
            black_box(topk.sample(&logits, rng));
            laps.lap("topk");
            laps.finish(b > 0);
        }
        for &token in block_tokens {
            let t0 = Instant::now();
            real(token);
            if b > 0 {
                laps.real.push(t0.elapsed().as_nanos() as f64);
            }
        }
        if b > 0 {
            let rebuilt: f64 = laps.totals[rebuilt_before..].iter().sum();
            let own: f64 = laps.real[real_before..].iter().sum();
            laps.coverage.push(rebuilt / own);
        }
    }
    Ok((laps, logits))
}

/// Runs the replay. Returns `(metric name, value)` pairs for every
/// replay-sourced entry of [`crate::spec::PER_LAYER`].
pub fn run(
    fp: &MambaModel,
    q: &QuantizedMamba,
    seed: u64,
) -> Result<Vec<(&'static str, f64)>, BenchError> {
    let cfg = fp.config().clone();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_11fe);
    let tokens: Vec<u32> = (0..BLOCK * (BLOCKS + 1))
        .map(|_| rng.gen_range(0..cfg.vocab_size) as u32)
        .collect();
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // ---- tensor and model: the FP step, phase by phase ----------------
    let mut states: Vec<ModelState> = (0..B16).map(|_| fp.new_state()).collect();
    let mut ws = DecodeWorkspace::new();
    let (fp_laps, rebuilt_logits) = rebuilt_pass(fp, &tokens, None, &mut rng, |t| {
        fp.forward_step_batch_indexed_with(&[(0, t)], &mut states, &mut ws)
            .expect("valid batch")
    })?;
    if ws.logits()[0] != rebuilt_logits {
        return Err("the replay's rebuilt FP step differs from MambaModel's logits".into());
    }
    let items16: Vec<(usize, u32)> = (0..B16).map(|k| (k, tokens[k])).collect();
    let step_b1 = fp_laps.real_step_us();
    let step_b16 = time_ns(1, |_| {
        fp.forward_step_batch_indexed_with(&items16, &mut states, &mut ws)
            .expect("valid batch")
    }) / 1e3;
    // All four blocks per token through the block's own entry point.
    let mut scratch = BlockScratch::default();
    let mut x = vec![0.0; cfg.d_model];
    let block_forward = time_ns(8, |k| {
        x.copy_from_slice(
            fp.embedding()
                .row(tokens[k] as usize)
                .expect("token in range"),
        );
        for (block, lstate) in fp.blocks().iter().zip(&mut states[0].layers) {
            block
                .forward_step_into(&mut x, lstate, &mut scratch)
                .expect("model shapes");
        }
    }) / cfg.n_layer as f64;
    out.extend([
        ("tensor.ops.vecmat_in_proj_ns", fp_laps.ns("vecmat_in")),
        ("tensor.ops.vecmat_out_proj_ns", fp_laps.ns("vecmat_out")),
        ("tensor.conv.step_ns", fp_laps.ns("conv")),
        ("tensor.norm.rms_norm_ns", fp_laps.ns("rms_norm")),
        ("tensor.norm.gated_rms_norm_ns", fp_laps.ns("gated_norm")),
        ("tensor.activation.silu_ns", fp_laps.ns("silu")),
        ("model.embed_ns", fp_laps.ns("embed")),
        ("model.block.forward_step_ns", block_forward),
        ("model.ssm.step_ns", fp_laps.ns("ssm")),
        ("model.lm_head_ns", fp_laps.ns("lm_head")),
        ("model.sampler.greedy_ns", fp_laps.ns("greedy")),
        ("model.sampler.topk_ns", fp_laps.ns("topk")),
        ("model.step_b1_us", step_b1),
        ("model.step_b16_us", step_b16),
        ("model.replay_coverage", fp_laps.coverage()),
    ]);

    // ---- quant and hadamard: the W4A4 step on the same tensors ----------
    let act_scheme = QuantScheme::act_per_group(4, GROUP);
    let w_scheme = QuantScheme::weight_per_group(4, GROUP);
    let pack_all = || -> Result<(Vec<(PackedW4, PackedW4)>, PackedW4), BenchError> {
        let layers = fp
            .blocks()
            .iter()
            .map(|b| {
                Ok((
                    PackedW4::quantize(&b.weights().w_in, w_scheme)?,
                    PackedW4::quantize(&b.weights().w_out, w_scheme)?,
                ))
            })
            .collect::<Result<Vec<_>, BenchError>>()?;
        Ok((
            layers,
            PackedW4::quantize(&fp.embedding().transpose()?, w_scheme)?,
        ))
    };
    let (layers, head) = pack_all()?;
    // Streamed per decoded token: every packed nibble and scale once.
    let weight_bytes = (layers
        .iter()
        .map(|(i, o)| i.storage_bits() + o.storage_bits())
        .sum::<usize>()
        + head.storage_bits()) as f64
        / 8.0;
    let mut packed = Packed {
        layers,
        head,
        hadamard: FactoredHadamard::new(cfg.d_inner())?,
        act: ActQuant::new(),
        iacc: GemvScratch::new(),
        scheme: act_scheme,
    };
    let mut qstates: Vec<ModelState> = (0..B16).map(|_| q.new_state()).collect();
    let mut qws = QuantWorkspace::new();
    let (q_laps, _) = rebuilt_pass(fp, &tokens, Some(&mut packed), &mut rng, |t| {
        q.forward_step_batch_indexed_with(&[(0, t)], &mut qstates, &mut qws)
            .expect("valid batch")
    })?;

    // Weight-stationary GEMM over 16 live in_proj inputs: its time per
    // activation against `gemv_in_proj_ns` is what batching can bank.
    let block0 = fp.blocks()[0].weights();
    let acts: Vec<ActQuant> = tokens[..B16]
        .iter()
        .map(|&t| {
            let mut x = fp.embed(t)?;
            norm::rms_norm(&mut x, &block0.norm_gamma, 1e-5);
            let mut a = ActQuant::new();
            a.quantize(&x, act_scheme)?;
            Ok(a)
        })
        .collect::<Result<_, BenchError>>()?;
    let mut outs: Vec<Vec<f32>> = vec![Vec::new(); B16];
    let gemm_in_b16 = time_ns(cfg.n_layer, |l| {
        gemm_packed(&packed.layers[l].0, &acts, &mut packed.iacc, &mut outs)
            .expect("packed shapes");
        black_box(&mut outs);
    });
    let live: Vec<f32> = fp.embed(tokens[0])?;
    let mut buf = live.clone();
    let fake_quant = time_ns(64, |_| {
        buf.copy_from_slice(&live);
        fake_quant_slice(&mut buf, act_scheme).expect("per-group scheme");
    });
    let mut wide = vec![0.0f32; cfg.d_inner()];
    let fwht_ns = time_ns(64, |k| {
        wide.iter_mut()
            .enumerate()
            .for_each(|(i, v)| *v = live[(i + k) % live.len()]);
        fwht(&mut wide);
    });
    let qstep_b1 = q_laps.real_step_us();
    let qstep_b16 = time_ns(1, |_| {
        q.forward_step_batch_indexed_with(&items16, &mut qstates, &mut qws)
            .expect("valid batch")
    }) / 1e3;
    let quantize_model_ms =
        time_ms3(|| quantize_model(fp, Method::LightMamba, &QuantSpec::w4a4_grouped(GROUP), &[]));
    let rotation_ms = time_ms3(|| {
        let mut prepared = PreparedModel::from_reference(fp).expect("prepare");
        rotation::apply(&mut prepared, &RotationConfig::default()).expect("rotation");
        prepared
    });
    let pack_ms = time_ms3(|| pack_all().expect("pack"));
    out.extend([
        ("quant.kernels.act_quant_ns", q_laps.ns("act_quant")),
        ("quant.kernels.gemv_in_proj_ns", q_laps.ns("gemv_in")),
        ("quant.kernels.gemv_out_proj_ns", q_laps.ns("gemv_out")),
        ("quant.kernels.gemv_lm_head_ns", q_laps.ns("gemv_head")),
        ("quant.kernels.gemm_in_proj_b16_ns", gemm_in_b16),
        ("quant.quantizer.fake_quant_slice_ns", fake_quant),
        ("quant.qmodel.step_b1_us", qstep_b1),
        ("quant.qmodel.step_b16_us", qstep_b16),
        ("quant.qmodel.replay_coverage", q_laps.coverage()),
        ("quant.kernels.weight_bytes_per_token", weight_bytes),
        ("quant.pipeline.quantize_model_ms", quantize_model_ms),
        ("quant.rotation.apply_ms", rotation_ms),
        ("quant.kernels.pack_ms", pack_ms),
        ("hadamard.factored.apply_ns", q_laps.ns("hadamard")),
        ("hadamard.fwht_ns", fwht_ns),
    ]);

    // ---- serve::backend and serve::prefix ---------------------------------
    let fp_backend = FpBackend::new(fp);
    let q_backend = W4A4Backend::new(q.clone());
    let toks: Vec<[u32; 1]> = tokens.iter().map(|&t| [t]).collect();
    let batch16: Vec<(usize, &[u32])> = (0..B16).map(|k| (k, &toks[k][..])).collect();
    let advance = |backend: &dyn DecodeBackend, states: &mut [ModelState]| {
        let b1 = time_ns(8, |k| {
            black_box(
                backend
                    .advance_batch_indexed(&[(0, &toks[k][..])], states)
                    .expect("valid batch"),
            );
        }) / 1e3;
        let b16 = time_ns(1, |_| {
            black_box(
                backend
                    .advance_batch_indexed(&batch16, states)
                    .expect("valid batch"),
            );
        }) / 1e3;
        (b1, b16)
    };
    let (fp_b1, fp_b16) = advance(&fp_backend, &mut states);
    let (q_b1, q_b16) = advance(&q_backend, &mut qstates);
    let mut paused = fp_backend.save_state(&states[0]);
    let save_state = time_ns(8, |k| {
        paused = fp_backend.save_state(&states[k % B16]);
    }) / 1e3;
    let restore_state = time_ns(8, |k| {
        fp_backend.restore_state(&paused, &mut states[k % B16])
    }) / 1e3;
    let mut cache = PrefixCache::new(4);
    let prefixes: Vec<Vec<u32>> = (0..3u32)
        .map(|p| (0..PREFIX_LEN as u32).map(|i| (i * 7 + p) % 2048).collect())
        .collect();
    for p in &prefixes {
        cache.insert(0, p, paused.clone());
    }
    let lookup = time_ns(64, |k| {
        black_box(cache.lookup(0, &prefixes[k % 3]).is_some());
    });
    out.extend([
        ("serve.prefix.lookup_ns", lookup),
        ("serve.backend.fp.advance_us_b1", fp_b1),
        ("serve.backend.fp.advance_us_b16", fp_b16),
        ("serve.backend.w4a4.advance_us_b1", q_b1),
        ("serve.backend.w4a4.advance_us_b16", q_b16),
        (
            "serve.backend.fp.batch_scaling_b16",
            B16 as f64 * fp_b1 / fp_b16,
        ),
        (
            "serve.backend.w4a4.batch_scaling_b16",
            B16 as f64 * q_b1 / q_b16,
        ),
        ("serve.backend.save_state_us", save_state),
        ("serve.backend.restore_state_us", restore_state),
    ]);

    // ---- pool (one extra thread, alive only here) ---------------------------
    let pool = WorkerPool::new(2);
    let mut lanes = [(), ()];
    let dispatch = time_ns(64, |_| pool.run_over(&mut lanes, |_, _| {})) / 1e3;
    let mut pws = ParDecodeWorkspace::new();
    let par_step = time_ns(1, |_| {
        fp.forward_step_batch_indexed_par_with(&items16, &mut states, &pool, &mut pws)
            .expect("valid batch")
    }) / 1e3;
    drop(pool);
    out.extend([
        ("pool.dispatch_us", dispatch),
        ("pool.par_step_b16_t2_us", par_step),
        ("pool.scaling_t2", step_b16 / par_step),
    ]);

    // ---- core: host cost of the paper tables --------------------------------
    let design = CoDesign::new(Target::Vck190W4A4, ModelPreset::B2_7);
    let hardware_report = time_ns(8, |_| {
        black_box(black_box(&design).hardware_report());
    }) / 1e3;
    out.extend([
        ("core.codesign.hardware_report_us", hardware_report),
        ("core.ablation.run_ms", time_ms3(|| run_ablation(seed))),
    ]);
    Ok(out)
}
