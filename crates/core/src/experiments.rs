//! The paper's tables and figures and the serving studies, each said once.
//!
//! Every result of the LightMamba paper that this repository reproduces
//! (Tables I–IV, Fig. 2 / 3 / 4b / 6 / 7 / 9a / 9b / 10) is one
//! [`Experiment`] in [`EXPERIMENTS`], followed by the nine `serve-*` rows
//! of its serving extension (`serving.rs`). Its `run` regenerates the
//! table or figure at a fixed size and seed — with the substitution its
//! `note` names, since no checkpoint and no board are available here —
//! and returns an [`Outcome`]: the text to print and the [`Check`]s that
//! make the output a reproduction (who wins, by roughly what factor,
//! inside which window around the paper's number). The paper's values
//! are typed here and nowhere else, next to the code compared with them.
//!
//! The facade's `repro` binary prints the outcomes and exits non-zero on
//! a failed check; `tests/experiment_shapes.rs` asserts the same checks,
//! so every threshold lives in exactly one place. README.md
//! §"Reproducing the paper" is the index.

use std::fmt;

use lightmamba_accel::arch::{AcceleratorConfig, PipelineMode, TileConfig};
use lightmamba_accel::baselines::{paradigms, TransformerAccelBaseline};
use lightmamba_accel::gpu::GpuModel;
use lightmamba_accel::platform::{GpuDevice, Platform};
use lightmamba_accel::schedule::schedule_block;
use lightmamba_accel::sim::DecodeSimulator;
use lightmamba_accel::ssmu::SsmuModel;
use lightmamba_accel::tiling::{tiled_buffers, untiled_buffers};
use lightmamba_hadamard::{FactoredHadamard, RandomizedHadamard};
use lightmamba_model::corpus::SyntheticCorpus;
use lightmamba_model::synth::{channel_persistence, synthetic_activations, OutlierPattern};
use lightmamba_model::{MambaConfig, MambaModel, ModelPreset};
use lightmamba_quant::metrics::{activation_quant_error, quant_error};
use lightmamba_quant::outlier_suppression::shift_scale;
use lightmamba_quant::pipeline::{Method, QuantSpec};
use lightmamba_quant::quantizer::{fake_quant, QuantScheme};
use lightmamba_quant::rotation::rotate_out_proj;
use lightmamba_quant::smoothquant::smoothing_factors;
use lightmamba_tensor::rng::heavy_tailed;
use lightmamba_tensor::{norm, stats, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ablation::run_ablation;
use crate::codesign::{fidelity, CoDesign, Target};
use crate::report::{bar, render_table};

mod serving;

/// One claim of the paper, tested against what an experiment measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// The claim, as a sentence that is true when the check passes.
    pub claim: String,
    /// Whether the measured values satisfy it.
    pub pass: bool,
    /// The measured values the verdict was taken from.
    pub detail: String,
}

/// What one experiment produced: the table or figure as text, and the
/// checks on it. `Display` prints both.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Paper-vs-measured tables and figure summaries, ready to print.
    pub text: String,
    /// The claims checked; empty only for the qualitative Table I.
    pub checks: Vec<Check>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    fn line(&mut self, line: impl AsRef<str>) {
        self.text.push_str(line.as_ref());
        self.text.push('\n');
    }

    fn table(&mut self, headers: &[&str], rows: &[Vec<String>]) {
        self.text.push_str(&render_table(headers, rows));
    }

    fn check(&mut self, claim: impl Into<String>, pass: bool, detail: String) {
        self.checks.push(Check {
            claim: claim.into(),
            pass,
            detail,
        });
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)?;
        if !self.checks.is_empty() {
            writeln!(f, "\nchecks:")?;
        }
        for c in &self.checks {
            let verdict = if c.pass { "pass" } else { "FAIL" };
            writeln!(f, "  [{verdict}] {} ({})", c.claim, c.detail)?;
        }
        Ok(())
    }
}

/// One table or figure of the paper, or one serving study.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The id `repro` selects it by (`table2`, `fig9a`, `serve-policy`, …).
    pub id: &'static str,
    /// What the paper's table or figure, or the serving study, shows.
    pub title: &'static str,
    /// The substitution made for what is unavailable here (empty when the
    /// experiment is the paper's own analytical model).
    pub note: &'static str,
    /// Regenerates it.
    pub run: fn() -> Outcome,
}

/// Every reproduced table and figure, in the paper's order, then the
/// serving studies.
pub static EXPERIMENTS: [Experiment; 21] = [
    Experiment {
        id: "table1",
        title: "qualitative comparison between accelerator paradigms",
        note: "",
        run: table1,
    },
    Experiment {
        id: "table2",
        title: "4-bit activation quantization error of out_proj input (Mamba2-2.7B shape)",
        note: "synthetic scattered-outlier activations; calibrate on half, evaluate on the other half",
        run: table2,
    },
    Experiment {
        id: "table3",
        title: "PTQ method comparison on Mamba2 (scaled-down synthetic model)",
        note: "ppl-factor = exp(mean KL to FP reference) replaces absolute perplexity; agreement replaces task accuracy",
        run: table3,
    },
    Experiment {
        id: "table4",
        title: "hardware comparison with GPU (Mamba2-2.7B decode)",
        note: "FPGA rows from the cycle-level simulator; GPU rows from the roofline model",
        run: table4,
    },
    Experiment {
        id: "fig2",
        title: "activation distribution in Mamba2-2.7B before and after rotation",
        note: "synthetic out_proj-input activations with per-token re-drawn outlier channels",
        run: fig2,
    },
    Experiment {
        id: "fig3",
        title: "per-operation SSM hardware cost: non-PoT vs PoT re-quantization",
        note: "",
        run: fig3,
    },
    Experiment {
        id: "fig4b",
        title: "out_proj weight quantization error per layer: only-rotate vs fuse-and-rotate",
        note: "64 synthetic layers, scaled-down 2.7B shape (192 x 96), 4-bit per-group weights",
        run: fig4b,
    },
    Experiment {
        id: "fig6",
        title: "pipeline schemes: naive / coarse-grained (reordered) / fine-grained (tiled)",
        note: "",
        run: fig6,
    },
    Experiment {
        id: "fig7",
        title: "fine-grained tiling and fusion: buffer inventory and URAM usage",
        note: "",
        run: fig7,
    },
    Experiment {
        id: "fig9a",
        title: "throughput vs output sequence length (normalized to RTX 2070)",
        note: "FlightLLM/DFX simulated from their papers' parameters, as the authors did",
        run: fig9a,
    },
    Experiment {
        id: "fig9b",
        title: "energy efficiency vs model size (tokens/J, normalized to RTX 2070)",
        note: "",
        run: fig9b,
    },
    Experiment {
        id: "fig10",
        title: "technique ablation on VCK190 / Mamba2-2.7B",
        note: "accuracy proxy = top-1 agreement of the stage's quantization on the scaled-down synthetic model",
        run: fig10,
    },
    Experiment {
        id: "serve-policy",
        title: "admission policies on deadline_heavy traffic (0.5 req/step over 150 steps, 16 slots, fp+w4a4 pool)",
        note: serving::NOTE,
        run: serving::policy,
    },
    Experiment {
        id: "serve-preempt",
        title: "plain vs preemptive EDF and priority on preemption_heavy traffic (0.6 req/step over 150 steps, 8 slots, fp+w4a4 pool)",
        note: serving::NOTE,
        run: serving::preempt,
    },
    Experiment {
        id: "serve-sessions",
        title: "8 chat sessions x 3 turns (closed-loop), 8 slots, fp+w4a4 pool, 2 mid-turn disconnects (cancel rate 0.25): parked-state resume vs full-history re-prefill",
        note: serving::NOTE,
        run: serving::sessions,
    },
    Experiment {
        id: "serve-chaos",
        title: "deadline_heavy traffic (0.5 req/step over 150 steps, 16 slots, fp+w4a4 pool) under a seeded fault schedule (seed 7, rate 0.05): quarantine+shedding vs no mitigation on the identical schedule",
        note: serving::NOTE,
        run: serving::chaos,
    },
    Experiment {
        id: "serve-prefix",
        title: "shared_system_prompt traffic (24 turns behind one 24-token system prompt), 8 slots, fp+w4a4 pool: cached-state restore vs re-prefilling the shared prefix",
        note: serving::NOTE,
        run: serving::prefix,
    },
    Experiment {
        id: "serve-scenarios",
        title: "traffic scenarios over 600 steps under FIFO continuous batching, 16 slots, one W4A4 backend",
        note: serving::NOTE,
        run: serving::scenarios,
    },
    Experiment {
        id: "serve-slots",
        title: "slot sweep on a burst of 64: FIFO vs static batching, one W4A4 backend, URAM residency",
        note: serving::NOTE,
        run: serving::slots,
    },
    Experiment {
        id: "serve-backends",
        title: "a burst of 64 on each backend alone (16 slots), each priced with its own weight-stream width",
        note: serving::NOTE,
        run: serving::backends,
    },
    Experiment {
        id: "serve-multiplex",
        title: "2 backends on one 16-slot pool (burst of 64)",
        note: serving::NOTE,
        run: serving::multiplex,
    },
];

/// Rotates every row (token) of an activation matrix by `h`.
///
/// # Panics
///
/// Panics when `acts` is not a matrix of `h.len()` channels.
pub fn rotate_rows(acts: &Tensor, h: &FactoredHadamard) -> Tensor {
    let (_, channels) = acts.as_matrix_dims().expect("activation matrix");
    let mut out = acts.clone();
    for row in out.data_mut().chunks_exact_mut(channels) {
        h.apply(row);
    }
    out
}

/// Mean per-token squared error of quantizing `acts` under `scheme` inside
/// an invertible per-channel transform: `x' = (x − shift) / scale` is
/// quantized and mapped back before the error is taken (Table II's metric;
/// unit scales and zero shifts give [`activation_quant_error`] exactly,
/// down to its one `f32` sum over the whole matrix).
///
/// # Panics
///
/// Panics when `acts` is not a matrix, a factor slice is shorter than a
/// row, or `scheme` is invalid.
pub fn transformed_quant_error(
    acts: &Tensor,
    scale: &[f32],
    shift: &[f32],
    scheme: QuantScheme,
) -> f32 {
    let (tokens, channels) = acts.as_matrix_dims().expect("activation matrix");
    let mut work = acts.clone();
    for (i, v) in work.data_mut().iter_mut().enumerate() {
        *v = (*v - shift[i % channels]) / scale[i % channels];
    }
    let mut q = fake_quant(&work, scheme).expect("valid scheme");
    for (i, v) in q.data_mut().iter_mut().enumerate() {
        *v = *v * scale[i % channels] + shift[i % channels];
    }
    stats::sse(acts.data(), q.data()) / tokens as f32
}

/// Mean per-token squared error of quantizing `acts` under `scheme` after
/// rotating every token by `h` (Table II's "Ours" row).
///
/// The error is taken in rotated space: `h` is orthonormal, so rotating the
/// quantized token back with the dense `Hᵀ` first (26 M MACs per token at
/// 5120 channels) would measure the same squared error. Squared errors
/// are summed token by token, then over tokens.
///
/// # Panics
///
/// As [`rotate_rows`], and when `scheme` is invalid.
pub fn rotated_quant_error(acts: &Tensor, h: &FactoredHadamard, scheme: QuantScheme) -> f32 {
    let rotated = rotate_rows(acts, h);
    let q = fake_quant(&rotated, scheme).expect("valid scheme");
    let tokens = rotated.data().chunks_exact(h.len());
    let per_token = tokens.zip(q.data().chunks_exact(h.len()));
    per_token.map(|(a, b)| stats::sse(a, b)).sum::<f32>() / acts.dims()[0] as f32
}

fn b2_7() -> MambaConfig {
    MambaConfig::preset(ModelPreset::B2_7)
}

/// The online Hadamard of the paper's hardware for Mamba2-2.7B's
/// `d_inner` = 5120.
fn htu_2_7b() -> FactoredHadamard {
    FactoredHadamard::with_factors(128, 40).expect("5120 = 128 x 40")
}

fn scattered(channels_per_token: usize) -> OutlierPattern {
    OutlierPattern::Scattered {
        channels_per_token,
        magnitude: 40.0,
    }
}

fn table1() -> Outcome {
    let rows: Vec<Vec<String>> = paradigms()
        .into_iter()
        .map(|p| {
            let cells = [p.work, p.architecture, p.model, p.bit_precision];
            let cells = cells
                .into_iter()
                .chain([p.latency, p.em_compatibility, p.mm_parallelism]);
            cells.map(String::from).collect()
        })
        .collect();
    let mut out = Outcome::default();
    out.table(
        &[
            "work",
            "architecture",
            "model",
            "bit precision",
            "latency",
            "EM compat",
            "MM parallelism",
        ],
        &rows,
    );
    out
}

/// Channel-wise methods do not beat RTN on *scattered* outliers (OS+
/// catastrophically so), rotation does. Channel-wise factors are
/// calibrated on one half of the tokens and evaluated on the other,
/// exactly as PTQ calibration mismatch occurs.
fn table2() -> Outcome {
    const CHANNELS: usize = 5120; // Mamba2-2.7B d_inner
    const TOKENS: usize = 256;
    let mut rng = StdRng::seed_from_u64(2024);
    let acts = synthetic_activations(&mut rng, 2 * TOKENS, CHANNELS, scattered(8));
    let (calib, eval) = acts.data().split_at(TOKENS * CHANNELS);
    let eval = Tensor::from_vec(eval.to_vec(), &[TOKENS, CHANNELS]).expect("shape");
    let scheme = QuantScheme::act_per_group(4, 128);

    let rtn = activation_quant_error(&eval, scheme).expect("valid scheme");

    let column = |c: usize| (0..TOKENS).map(move |t| calib[t * CHANNELS + c]);
    let fold_columns = |init: f32, f: fn(f32, f32) -> f32| -> Vec<f32> {
        (0..CHANNELS).map(|c| column(c).fold(init, f)).collect()
    };
    let calib_absmax = fold_columns(0.0, |m, v| m.max(v.abs()));
    let sq_factors = smoothing_factors(&calib_absmax, &vec![1.0; CHANNELS], 0.5);
    let sq = transformed_quant_error(&eval, &sq_factors, &[0.0; CHANNELS], scheme);

    let ss = shift_scale(
        &fold_columns(f32::INFINITY, f32::min),
        &fold_columns(f32::NEG_INFINITY, f32::max),
    );
    let osp = transformed_quant_error(&eval, &ss.scale, &ss.shift, scheme);

    let ours = rotated_quant_error(&eval, &htu_2_7b(), scheme);

    let rows: Vec<Vec<String>> = [
        ("RTN", 19.5, rtn),
        ("SQ", 18.8, sq),
        ("OS+", 309.8, osp),
        ("Ours", 13.1, ours),
    ]
    .into_iter()
    .map(|(name, paper, measured)| {
        vec![
            name.to_string(),
            format!("{paper:.1}"),
            format!("{measured:.1}"),
        ]
    })
    .collect();
    let mut out = Outcome::default();
    out.table(
        &["method", "paper quant error", "measured quant error"],
        &rows,
    );
    out.check(
        "rotation error is under half of RTN's",
        ours < 0.5 * rtn,
        format!("{ours:.1} vs {rtn:.1}"),
    );
    out.check(
        "calibrated SmoothQuant does not beat RTN by much (within 1.3x of it)",
        sq < 1.3 * rtn,
        format!("{sq:.1} vs {rtn:.1}"),
    );
    out.check(
        "OS+ is the worst",
        osp > rtn && osp > sq && osp > ours,
        format!("{osp:.1}"),
    );
    out
}

/// Paper metrics are WikiText2/LAMBADA perplexity and zero-shot accuracy
/// on seven tasks; with synthetic weights they become fidelity against
/// the FP reference: `ppl-factor = exp(mean KL)` (1.0 = lossless, like
/// the FP16 row) and top-1 agreement (%), averaged over three seeds.
fn table3() -> Outcome {
    const GROUP: usize = 32;
    const SEEDS: [u64; 3] = [11, 22, 33];
    // The paper's (perplexity, average accuracy) at W8A8, then at W4A4.
    let paper = |method: Method| match method {
        Method::Rtn => [("4.26", "59.6"), ("17.46", "51.6")],
        Method::SmoothQuant => [("4.28", "59.7"), ("8.26", "55.5")],
        Method::OutlierSuppressionPlus => [("4.01", "60.1"), (">100", "30.3")],
        Method::LightMamba => [("4.07", "60.2"), ("6.48", "56.3")],
        Method::LightMambaStar => [("4.03", "60.2"), ("6.35", "55.9")],
    };

    let cfg = MambaConfig::small();
    let corpus = SyntheticCorpus::for_vocab(cfg.vocab_size);
    let setups: Vec<_> = SEEDS
        .iter()
        .map(|&seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let reference = MambaModel::synthetic(cfg.clone(), &mut rng).expect("valid config");
            let calib = corpus.calibration_set(&mut rng, 4, 12);
            let eval = corpus.calibration_set(&mut rng, 6, 24);
            (reference, calib, eval)
        })
        .collect();
    // Seed-averaged (mean KL, ppl-factor, agreement %) of one table row.
    let measure = |method: Method, spec: &QuantSpec| -> [f64; 3] {
        let mut sums = [0.0f64; 3];
        for (reference, calib, eval) in &setups {
            let rep = fidelity(reference, method, spec, calib, eval).expect("small model runs");
            sums[0] += rep.mean_kl as f64;
            sums[1] += rep.ppl_factor as f64;
            sums[2] += rep.agreement as f64 * 100.0;
        }
        sums.map(|s| s / SEEDS.len() as f64)
    };

    let fp16 = [
        "FP16",
        "-",
        "1.000",
        "100.0",
        "(paper: ppl 4.10, avg acc 60.2)",
    ];
    let mut rows = vec![fp16.map(String::from).to_vec()];
    let mut w4a4_kl = Vec::new();
    let halves = [
        ("W8A8", QuantSpec::w8a8()),
        ("W4A4", QuantSpec::w4a4_grouped(GROUP)),
    ];
    for (half, (precision, spec)) in halves.into_iter().enumerate() {
        for method in Method::ALL {
            let [kl, ppl, acc] = measure(method, &spec);
            let (p_ppl, p_acc) = paper(method)[half];
            rows.push(vec![
                method.name().into(),
                precision.into(),
                format!("{ppl:.3}"),
                format!("{acc:.1}"),
                format!("(paper: ppl {p_ppl}, acc {p_acc})"),
            ]);
            if precision == "W4A4" {
                w4a4_kl.push(kl);
            }
        }
    }
    let mut out = Outcome::default();
    out.table(
        &[
            "method",
            "precision",
            "ppl-factor (1=lossless)",
            "agreement %",
            "paper reference",
        ],
        &rows,
    );

    // Seed-averaged mean KL at W4A4, in `Method::ALL`'s (the paper's) order.
    let [rtn, sq, osp, ours, star] = w4a4_kl[..] else {
        unreachable!("one row per method");
    };
    out.check(
        "W4A4: LightMamba beats RTN",
        ours < rtn,
        format!("mean KL {ours:.5} vs {rtn:.5}"),
    );
    out.check(
        "W4A4: LightMamba beats SmoothQuant",
        ours < sq,
        format!("mean KL {ours:.5} vs {sq:.5}"),
    );
    out.check(
        "W4A4: OS+ is worse than RTN and LightMamba",
        osp > rtn && osp > ours,
        format!("mean KL {osp:.5}"),
    );
    out.check(
        "W4A4: quantizing the SSM too (LightMamba*) stays within 1.5x of LightMamba's KL",
        star < 1.5 * ours,
        format!("mean KL {star:.5} vs {ours:.5}"),
    );
    out
}

fn table4() -> Outcome {
    let model = b2_7();
    let report = |target: Target| CoDesign::new(target, ModelPreset::B2_7).hardware_report();
    let mut out = Outcome::default();
    let mut rows: Vec<Vec<String>> = Vec::new();

    // (target, paper tokens/s and the window held around it, paper
    // tokens/J, DSP, LUT, URAM)
    for (target, p_tps, window, p_eff, p_dsp, p_lut, p_uram) in [
        (Target::Vck190W4A4, 7.21, 5.5..9.0, "2.25", 228, 107_000, 61),
        (Target::Vck190W8A8, 3.61, 2.8..4.5, "1.45", 228, 111_000, 61),
        (Target::U280W4A4, 93.0, 65.0..125.0, "", 1164, 297_000, 61),
    ] {
        let r = report(target);
        let platform = target.platform();
        let eff = format!("{:.2}", r.power.tokens_per_joule);
        rows.push(vec![
            target.name().into(),
            format!("{:.0} MHz", platform.freq_hz / 1e6),
            format!("{:.0} GB/s", platform.bandwidth_bytes_per_s / 1e9),
            format!("{} (paper {p_lut})", r.resources.lut),
            format!("{} (paper {p_dsp})", r.resources.dsp),
            r.resources.bram.to_string(),
            format!("{} (paper {p_uram})", r.resources.uram),
            format!("{:.2} (paper {p_tps})", r.decode.tokens_per_s),
            if p_eff.is_empty() {
                eff
            } else {
                format!("{eff} (paper {p_eff})")
            },
        ]);
        out.check(
            format!(
                "{target} decodes near the paper's {p_tps} tokens/s (window {}-{})",
                window.start, window.end
            ),
            window.contains(&r.decode.tokens_per_s),
            format!("{:.2}", r.decode.tokens_per_s),
        );
    }

    // (device, paper tokens/s, paper tokens/J, the least VCK190 W4A4
    // energy advantage held)
    let ours = report(Target::Vck190W4A4).power.tokens_per_joule;
    for (device, p_tps, p_eff, floor) in [
        (GpuDevice::rtx2070(), 65.0, 0.371, 3.0),
        (GpuDevice::rtx4090(), 138.0, 0.484, 2.5),
    ] {
        let name = device.name.clone();
        let g = GpuModel::new(device).decode_report(&model);
        let mut row = vec![format!("{name} (FP16)")];
        row.resize(7, "-".to_string());
        row.push(format!("{:.1} (paper {p_tps})", g.tokens_per_s));
        row.push(format!("{:.3} (paper {p_eff})", g.tokens_per_joule));
        rows.push(row);
        out.check(
            format!("VCK190 W4A4 is over {floor}x as energy-efficient as the {name}"),
            ours > floor * g.tokens_per_joule,
            format!("{:.1}x", ours / g.tokens_per_joule),
        );
    }

    out.table(
        &[
            "platform",
            "freq",
            "bandwidth",
            "LUT",
            "DSP",
            "BRAM",
            "URAM",
            "tokens/s",
            "tokens/J",
        ],
        &rows,
    );
    out
}

/// The paper plots the out_proj input activation magnitude over (token,
/// channel); this prints the statistics the plot conveys: channel
/// persistence of the top outliers (high for Transformer-style, low for
/// Mamba-style), kurtosis, peak-to-RMS ratio, and a per-channel absmax
/// histogram before/after rotation.
fn fig2() -> Outcome {
    const CHANNELS: usize = 5120;
    const TOKENS: usize = 128;
    let mut rng = StdRng::seed_from_u64(7);
    let transformer_like = synthetic_activations(
        &mut rng,
        TOKENS,
        CHANNELS,
        OutlierPattern::FixedChannels {
            channels: 12,
            magnitude: 40.0,
        },
    );
    let mamba_like = synthetic_activations(&mut rng, TOKENS, CHANNELS, scattered(8));
    let rotated = rotate_rows(&mamba_like, &htu_2_7b());

    // (kurtosis, peak/RMS, outlier-channel persistence, >6x-RMS fraction)
    let profile = |acts: &Tensor| {
        let data = acts.data();
        (
            stats::kurtosis(data),
            stats::absmax(data) / norm::rms(data, 0.0),
            channel_persistence(acts, 8),
            stats::outlier_fraction(data, 6.0),
        )
    };
    let before = profile(&mamba_like);
    let after = profile(&rotated);
    let rows: Vec<Vec<String>> = [
        (
            "(a) Transformer-style (fixed channels)",
            profile(&transformer_like),
        ),
        ("(c) Mamba out_proj input (scattered)", before),
        ("(d) after rotation", after),
    ]
    .into_iter()
    .map(|(name, (kurtosis, peak_to_rms, persistence, outliers))| {
        vec![
            name.to_string(),
            format!("{kurtosis:.1}"),
            format!("{peak_to_rms:.1}"),
            format!("{persistence:.3}"),
            format!("{:.4}%", outliers * 100.0),
        ]
    })
    .collect();
    let mut out = Outcome::default();
    out.table(
        &[
            "activation set",
            "kurtosis",
            "peak/RMS",
            "outlier-channel persistence",
            ">6x-RMS fraction",
        ],
        &rows,
    );

    out.line("\nper-channel absmax histogram (log-ish bins):");
    let bins = [0.0f32, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
    for (name, acts) in [
        ("before rotation", &mamba_like),
        ("after rotation", &rotated),
    ] {
        let absmax = stats::per_channel_absmax(acts);
        out.line(format!("  {name}:"));
        for w in bins.windows(2) {
            let count = absmax.iter().filter(|&&v| v >= w[0] && v < w[1]).count();
            out.line(format!(
                "    [{:>4.0},{:>4.0}) {count:>5} {}",
                w[0],
                w[1],
                bar(count as f64, CHANNELS as f64, 50)
            ));
        }
    }
    out.check(
        "scattered outliers make the distribution heavy-tailed (kurtosis > 30)",
        before.0 > 30.0,
        format!("{:.1}", before.0),
    );
    out.check(
        "rotated activations are near-gaussian (kurtosis < 6)",
        after.0 < 6.0,
        format!("{:.1}", after.0),
    );
    out.check(
        "rotation reduces peak/RMS",
        after.1 < before.1,
        format!("{:.1} -> {:.1}", before.1, after.1),
    );
    out
}

fn fig3() -> Outcome {
    let model = b2_7();
    let mut cfg = AcceleratorConfig::lightmamba_w4a4(&Platform::vck190(), &model);
    cfg.pot_requant = true;
    let pot = SsmuModel::new(&cfg, model.headdim, model.d_state);
    cfg.pot_requant = false;
    let non = SsmuModel::new(&cfg, model.headdim, model.d_state);

    // Per SSM operator, in the same order: (op, DSPs) and (op, LUTs).
    let (non_dsp, pot_dsp) = (non.per_op_dsp(), pot.per_op_dsp());
    let (non_lut, pot_lut) = (non.per_op_lut(), pot.per_op_lut());
    let rows: Vec<Vec<String>> = (0..non_dsp.len())
        .map(|i| {
            let mut row = vec![non_dsp[i].0.label().to_string()];
            row.extend(
                [non_dsp[i].1, pot_dsp[i].1, non_lut[i].1, pot_lut[i].1].map(|n| n.to_string()),
            );
            row
        })
        .collect();
    let mut out = Outcome::default();
    out.table(
        &[
            "SSM op",
            "DSP (non-PoT)",
            "DSP (PoT)",
            "LUT (non-PoT)",
            "LUT (PoT)",
        ],
        &rows,
    );
    let totals = format!(
        "DSP {} -> {} ({}x), LUT {} -> {} ({:.2}x)",
        non.dsp_count(),
        pot.dsp_count(),
        non.dsp_count() / pot.dsp_count().max(1),
        non.lut_count(),
        pot.lut_count(),
        non.lut_count() as f64 / pot.lut_count() as f64,
    );
    out.line(format!("\ntotals: {totals}"));
    out.check(
        "PoT removes the re-quantization multiplier from every EM lane (fewer DSPs and LUTs per op)",
        (0..non_dsp.len()).all(|i| pot_dsp[i].1 < non_dsp[i].1 && pot_lut[i].1 < non_lut[i].1),
        totals,
    );
    out
}

/// The paper's finding: fusing the second RMSNorm's per-channel scale into
/// the output-projection weight before rotation *increases* its
/// quantization error, so LightMamba leaves that scale unfused.
fn fig4b() -> Outcome {
    const D_INNER: usize = 192;
    const D_MODEL: usize = 96;
    const LAYERS: usize = 64;
    let mut rng = StdRng::seed_from_u64(44);
    let h_dense = FactoredHadamard::new(D_INNER)
        .expect("192 is constructible")
        .to_tensor();
    let q_dense = RandomizedHadamard::new(D_MODEL, &mut rng)
        .expect("96 is constructible")
        .to_tensor();
    let scheme = QuantScheme::weight_per_group(4, 32);

    // Per layer: (only-rotate error, fuse-and-rotate error), with
    // heavy-tailed weights and gate-norm scales as `model::synth` draws them.
    let errors: Vec<(f32, f32)> = (0..LAYERS)
        .map(|_| {
            let std = 1.0 / (D_INNER as f32).sqrt();
            let w = Tensor::from_fn(&[D_INNER, D_MODEL], |_| {
                std * heavy_tailed(&mut rng, 0.002, 8.0)
            });
            let gamma: Vec<f32> = (0..D_INNER)
                .map(|_| 1.0 + 0.15 * heavy_tailed(&mut rng, 0.02, 6.0).abs())
                .collect();
            let error = |gamma: Option<&[f32]>| {
                let rotated = rotate_out_proj(&w, gamma, &h_dense, &q_dense).expect("shapes agree");
                quant_error(&rotated, scheme).expect("valid scheme")
            };
            (error(None), error(Some(&gamma)))
        })
        .collect();

    let max = errors.iter().fold(0.0f32, |m, &(o, f)| m.max(o).max(f)) as f64;
    let mut out = Outcome::default();
    out.line("layer | only-rotate | fuse-and-rotate");
    for (l, &(only, fused)) in errors.iter().enumerate().step_by(4) {
        out.line(format!(
            "{l:>5} | {only:>10.4} {} | {fused:>10.4} {}",
            bar(only as f64, max, 24),
            bar(fused as f64, max, 24),
        ));
    }
    let mean_only = errors.iter().map(|e| e.0).sum::<f32>() / LAYERS as f32;
    let mean_fused = errors.iter().map(|e| e.1).sum::<f32>() / LAYERS as f32;
    let layers_worse = errors.iter().filter(|(only, fused)| fused > only).count();
    out.line(format!(
        "\nmean error: only-rotate {mean_only:.4} vs fuse-and-rotate {mean_fused:.4} ({:.2}x)",
        mean_fused / mean_only
    ));
    out.check(
        "fusing the second norm scale raises the error on at least 3/4 of the layers",
        layers_worse >= LAYERS * 3 / 4,
        format!("{layers_worse}/{LAYERS} layers"),
    );
    out
}

fn fig6() -> Outcome {
    let model = b2_7();
    let mut cfg = AcceleratorConfig::lightmamba_w4a4(&Platform::vck190(), &model);
    let mut schedule = |pipeline: PipelineMode| {
        cfg.pipeline = pipeline;
        schedule_block(&model, &cfg)
    };
    let naive = schedule(PipelineMode::Naive);
    let coarse = schedule(PipelineMode::CoarseReordered);
    let fine = schedule(PipelineMode::FineTiled);

    let rows = [
        ("(a) naive sequential", &naive),
        ("(b) coarse-grained (compute reordering)", &coarse),
        ("(c) fine-grained (tiling + fusion)", &fine),
    ]
    .map(|(name, s)| {
        vec![
            name.to_string(),
            s.makespan.to_string(),
            format!(
                "{:.1}%",
                100.0 * (1.0 - s.makespan as f64 / naive.makespan as f64)
            ),
            format!("{:.0}%", 100.0 * s.utilization()),
            s.mmu_busy.to_string(),
            s.ssmu_busy.to_string(),
        ]
    });
    let mut out = Outcome::default();
    out.table(
        &[
            "scheme",
            "block cycles",
            "latency reduction",
            "MMU utilization",
            "MMU busy",
            "SSMU busy",
        ],
        &rows,
    );
    out.line(
        "\npaper: reordering reduces total computation time by 32% and lifts utilization 58% -> 96%",
    );
    out.check(
        "each scheme shortens the block and keeps the MMU busier than the one before",
        [&naive, &coarse, &fine]
            .windows(2)
            .all(|w| w[1].makespan < w[0].makespan && w[1].utilization() > w[0].utilization()),
        format!(
            "{} > {} > {} cycles",
            naive.makespan, coarse.makespan, fine.makespan
        ),
    );
    out
}

fn fig7() -> Outcome {
    let model = b2_7();
    let cfg = AcceleratorConfig::lightmamba_w4a4(&Platform::vck190(), &model);
    let untiled = untiled_buffers(&model, &cfg);
    let tiled = tiled_buffers(&model, &cfg, cfg.tiling.expect("preset has tiling"));

    let mut out = Outcome::default();
    for (title, report) in [
        ("(a) tensor-by-tensor (no tiling)", &untiled),
        ("(b) tile-by-tile (pp=16, np=32, fused)", &tiled),
    ] {
        out.line(format!("{title}:"));
        let rows: Vec<Vec<String>> = report
            .buffers
            .iter()
            .map(|(name, bytes)| vec![name.clone(), format!("{:.1} KB", bytes / 1024.0)])
            .collect();
        out.table(&["buffer", "size"], &rows);
        out.line(format!(
            "  total {:.2} MB -> {} URAM blocks\n",
            report.total_bytes() / 1e6,
            report.uram_blocks()
        ));
    }
    let (before, after) = (untiled.uram_blocks(), tiled.uram_blocks());
    let measured = format!("{before} -> {after} ({:.1}x)", before as f64 / after as f64);
    out.line(format!(
        "URAM reduction: {measured}; paper: 246 -> 61, 4x\n"
    ));

    out.line("tile-size sweep (URAM blocks):");
    let rows: Vec<Vec<String>> = [(8usize, 16usize), (16, 32), (32, 64), (64, 128)]
        .into_iter()
        .map(|(pp, np)| {
            let r = tiled_buffers(&model, &cfg, TileConfig { pp, np });
            vec![format!("{pp}x{np}"), r.uram_blocks().to_string()]
        })
        .collect();
    out.table(&["tile (pp x np)", "URAM"], &rows);
    out.check(
        "tiling and fusion cut URAM by more than 3x",
        after * 3 < before,
        measured,
    );
    out
}

fn fig9a() -> Outcome {
    const LENGTHS: [usize; 5] = [128, 1024, 2048, 4096, 8192];
    let model = b2_7();
    let target = Target::U280W4A4;
    let ours = DecodeSimulator::new(target.platform(), model.clone(), target.config(&model))
        .throughput_vs_length(&LENGTHS);
    let gpu = GpuModel::new(GpuDevice::rtx2070()).throughput_vs_length(&model, &LENGTHS);
    let flight = TransformerAccelBaseline::flightllm().throughput_vs_length(&LENGTHS);
    let dfx = TransformerAccelBaseline::dfx().throughput_vs_length(&LENGTHS);

    let rows: Vec<Vec<String>> = (0..LENGTHS.len())
        .map(|i| {
            let cell =
                |pts: &[(usize, f64)]| format!("{:.1} ({:.2}x)", pts[i].1, pts[i].1 / gpu[i].1);
            vec![
                LENGTHS[i].to_string(),
                cell(&ours),
                cell(&gpu),
                cell(&flight),
                cell(&dfx),
            ]
        })
        .collect();
    let mut out = Outcome::default();
    out.table(
        &[
            "output len",
            "ours U280 (Mamba2-2.7B)",
            "RTX2070 (Mamba2-2.7B)",
            "FlightLLM (LLaMA2-7B)",
            "DFX (GPT2-1.5B)",
        ],
        &rows,
    );
    let avg_speedup =
        ours.iter().zip(&gpu).map(|(o, g)| o.1 / g.1).sum::<f64>() / LENGTHS.len() as f64;
    out.line(format!(
        "\naverage speedup over RTX 2070: {avg_speedup:.2}x (paper: 1.43x)"
    ));
    let last = LENGTHS.len() - 1;
    out.check(
        "Mamba decode throughput is flat in output length",
        (ours[0].1 - ours[last].1).abs() < 1e-9,
        format!("{:.1} at 128 and at 8192 tokens", ours[0].1),
    );
    out.check(
        "the Transformer accelerator decays with length (below 0.8x by 8192 tokens)",
        flight[last].1 < 0.8 * flight[0].1,
        format!("FlightLLM {:.1} -> {:.1}", flight[0].1, flight[last].1),
    );
    out.check(
        "average speedup over the RTX 2070 is in the paper's 1.43x regime (window 1.1-1.8)",
        (1.1..1.8).contains(&avg_speedup),
        format!("{avg_speedup:.2}x"),
    );
    out
}

fn fig9b() -> Outcome {
    let g2070 = GpuModel::new(GpuDevice::rtx2070());
    let g4090 = GpuModel::new(GpuDevice::rtx4090());
    // Per preset, ascending size: our advantage over (RTX 2070, RTX 4090).
    let mut advantages = Vec::new();
    let mut rows = Vec::new();
    for preset in ModelPreset::ALL {
        let model = MambaConfig::preset(preset);
        let ours = CoDesign::with_config(Target::Vck190W4A4, model.clone())
            .hardware_report()
            .power
            .tokens_per_joule;
        let e2070 = g2070.decode_report(&model).tokens_per_joule;
        let e4090 = g4090.decode_report(&model).tokens_per_joule;
        advantages.push((ours / e2070, ours / e4090));
        rows.push(vec![
            preset.name().to_string(),
            format!("{ours:.2}"),
            format!("{e2070:.3} ({:.1}x)", ours / e2070),
            format!("{e4090:.3} ({:.1}x)", ours / e4090),
        ]);
    }
    let mut out = Outcome::default();
    out.table(
        &[
            "model",
            "ours VCK190 (tok/J)",
            "RTX2070 (tok/J, our adv.)",
            "RTX4090 (tok/J, our adv.)",
        ],
        &rows,
    );
    let n = advantages.len() as f64;
    out.line(format!(
        "\naverage advantage: {:.2}x over RTX 2070 (paper 6.06x), {:.2}x over RTX 4090 (paper 4.65x)",
        advantages.iter().map(|a| a.0).sum::<f64>() / n,
        advantages.iter().map(|a| a.1).sum::<f64>() / n,
    ));
    let vs_2070: Vec<f64> = advantages.iter().map(|a| a.0).collect();
    out.check(
        "the advantage over the RTX 2070 grows as models shrink (GPU launch overhead dominates)",
        vs_2070.windows(2).all(|w| w[0] > w[1]),
        format!("{vs_2070:.1?} from 130M to 2.7B"),
    );
    let at_2_7b = vs_2070[vs_2070.len() - 1];
    out.check(
        "the 2.7B advantage is in the paper's 4.65-6.06x regime (window 3-12)",
        (3.0..12.0).contains(&at_2_7b),
        format!("{at_2_7b:.1}x"),
    );
    out
}

fn fig10() -> Outcome {
    // (stage, tokens/s, accuracy, URAM) as the paper's Fig. 10 reports them.
    let paper = [
        ("Original Network", 2.23, 60.2, 228),
        ("+4-bit W Quant", 3.19, 57.6, 228),
        ("+4-bit A Quant", 5.32, 51.6, 226),
        ("+Rotation Quant", 2.92, 55.9, 262),
        ("+FHT", 5.04, 55.9, 246),
        ("+Compute Reordering", 7.21, 55.9, 246),
        ("+Fine-grained Tiling", 7.21, 55.9, 61),
    ];
    let measured = run_ablation(11);
    let rows: Vec<Vec<String>> = measured
        .iter()
        .zip(paper)
        .map(|(r, (label, p_tps, p_acc, p_uram))| {
            assert_eq!(r.stage.label(), label, "stage order must match the paper");
            vec![
                label.to_string(),
                format!("{:.2} (paper {p_tps})", r.tokens_per_s),
                format!("{:.1} (paper {p_acc})", r.accuracy_pct),
                format!("{} (paper {p_uram})", r.uram),
            ]
        })
        .collect();
    let mut out = Outcome::default();
    out.table(&["stage", "tokens/s", "accuracy proxy %", "URAM"], &rows);

    let t = |i: usize| measured[i].tokens_per_s;
    let tps = format!(
        "tokens/s {:.2?}",
        measured.iter().map(|r| r.tokens_per_s).collect::<Vec<_>>()
    );
    out.check(
        "quantizing weights, then activations, raises throughput",
        t(1) > t(0) && t(2) > t(1),
        tps.clone(),
    );
    out.check(
        "rotation by matrix multiply dips, the FHT recovers",
        t(3) < t(2) && t(4) > t(3),
        tps.clone(),
    );
    out.check(
        "reordering raises throughput further, tiling holds it (within 0.5 tokens/s)",
        t(5) > t(4) && (t(6) - t(5)).abs() < 0.5,
        tps.clone(),
    );
    out.check(
        "the full design is the fastest stage and uses the least URAM",
        measured
            .iter()
            .all(|r| r.tokens_per_s <= t(6) + 1e-9 && r.uram >= measured[6].uram),
        tps,
    );
    out.check(
        "tiling cuts URAM by more than 3x",
        measured[6].uram * 3 < measured[5].uram,
        format!("{} -> {}", measured[5].uram, measured[6].uram),
    );
    out.check(
        "rotation recovers accuracy lost by W4A4",
        measured[4].accuracy_pct > measured[2].accuracy_pct,
        format!(
            "{:.1}% -> {:.1}%",
            measured[2].accuracy_pct, measured[4].accuracy_pct
        ),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotated_space_error_equals_the_dense_inverse_form() {
        let (tokens, channels) = (16, 256);
        let mut rng = StdRng::seed_from_u64(5);
        let acts = synthetic_activations(&mut rng, tokens, channels, scattered(4));
        let h = FactoredHadamard::new(channels).unwrap();
        let scheme = QuantScheme::act_per_group(4, 128);
        let shortcut = rotated_quant_error(&acts, &h, scheme);

        let h_t = h.to_tensor().transpose().unwrap();
        let quantized = fake_quant(&rotate_rows(&acts, &h), scheme).unwrap();
        let dense: f32 = (0..tokens)
            .map(|t| {
                let back = h_t.matvec(quantized.row(t).unwrap()).unwrap();
                stats::sse(acts.row(t).unwrap(), &back)
            })
            .sum::<f32>()
            / tokens as f32;
        assert!(
            (shortcut - dense).abs() <= 1e-3 * dense,
            "rotated-space {shortcut} vs dense inverse {dense}"
        );
    }

    #[test]
    fn identity_factors_are_plain_round_to_nearest() {
        let acts = synthetic_activations(&mut StdRng::seed_from_u64(6), 8, 128, scattered(2));
        let scheme = QuantScheme::act_per_group(4, 32);
        assert_eq!(
            transformed_quant_error(&acts, &[1.0; 128], &[0.0; 128], scheme),
            activation_quant_error(&acts, scheme).unwrap(),
        );
    }

    #[test]
    fn outcome_prints_its_checks_and_fails_on_any_failed_one() {
        let mut out = Outcome::default();
        out.line("measured 1.0");
        assert!(out.passed(), "no checks, nothing failed");
        out.check("one is positive", true, "1.0".into());
        assert!(out.passed());
        out.check("one is negative", false, "1.0".into());
        assert!(!out.passed());
        assert_eq!(
            out.to_string(),
            "measured 1.0\n\nchecks:\n  [pass] one is positive (1.0)\n  [FAIL] one is negative (1.0)\n"
        );
    }
}
