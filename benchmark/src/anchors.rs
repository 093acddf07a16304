//! The paper-anchor pass: post-training quantization with all five
//! methods, fidelity of LightMamba-W4A4 against the FP reference, and
//! the cycle model's throughput and energy against the paper's Table IV.
//! Everything here is exact-lane: simulated or arithmetic, so it must
//! repeat bit for bit.

use rand::rngs::StdRng;
use rand::SeedableRng;

use lightmamba::codesign::{CoDesign, Target};
use lightmamba_accel::gpu::GpuModel;
use lightmamba_accel::mmu::MmuModel;
use lightmamba_accel::platform::GpuDevice;
use lightmamba_accel::schedule::htu_model;
use lightmamba_accel::sim::DecodeSimulator;
use lightmamba_accel::ssmu::SsmuModel;
use lightmamba_model::corpus::SyntheticCorpus;
use lightmamba_model::eval::{compare_models, ReferenceRunner};
use lightmamba_model::{MambaConfig, MambaModel, ModelPreset};
use lightmamba_quant::pipeline::{quantize_model, Method, QuantSpec};
use lightmamba_quant::qmodel::ExecMode;

use crate::env::GROUP;
use crate::BenchError;

/// One paper value and the model's figure for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Anchor {
    /// What is compared (`VCK190 W4A4 tok/s`, …).
    pub name: &'static str,
    /// The paper's Table IV value.
    pub paper: f64,
    /// The cycle or roofline model's value.
    pub model: f64,
}

impl Anchor {
    /// `|model − paper| ÷ paper`, in percent.
    pub fn err_pct(&self) -> f64 {
        (self.model - self.paper).abs() / self.paper * 100.0
    }
}

/// The cycle and roofline models against Table IV, with the per-unit
/// figures of the VCK190-W4A4 design point. Independent of `--seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleModel {
    /// The nine paper comparisons; the first is VCK190 W4A4 tok/s.
    pub table: Vec<Anchor>,
    /// Per-layer `accel.*` values, in [`crate::spec::PER_LAYER`] order.
    pub accel: Vec<(&'static str, f64)>,
    /// Shape checks that failed, by description; empty when all hold.
    pub failed_checks: Vec<String>,
    /// Shape checks made.
    pub checks: usize,
}

/// Everything the anchor pass computes.
#[derive(Debug, Clone, PartialEq)]
pub struct Anchors {
    /// The hardware side.
    pub cycle: CycleModel,
    /// `mean_kl` of LightMamba-W4A4 vs FP, nats.
    pub w4a4_mean_kl: f64,
    /// Top-1 agreement of LightMamba-W4A4 with FP.
    pub w4a4_top1_agree: f64,
    /// `mean_kl` of RTN-W4A4 vs FP (the shape check's other side).
    pub rtn_mean_kl: f64,
    /// Shape and mode checks that failed (hardware side included).
    pub failed_checks: Vec<String>,
    /// Shape and mode checks made (hardware side included).
    pub checks: usize,
}

/// Largest relative error over the anchors of `table`, percent.
pub fn err_pct_max(table: &[Anchor]) -> f64 {
    table.iter().map(Anchor::err_pct).fold(0.0, f64::max)
}

/// Collects named pass/fail checks.
#[derive(Default)]
struct Checks {
    made: usize,
    failed: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: String) {
        self.made += 1;
        if !ok {
            self.failed.push(what);
        }
    }
}

/// Evaluation sequences: 8 × 64 tokens of the synthetic corpus.
const EVAL_SEQS: usize = 8;
const EVAL_LEN: usize = 64;
/// Calibration sequences for the channel-wise baselines.
const CALIB_SEQS: usize = 4;
const CALIB_LEN: usize = 32;

/// Runs the pass on `fp` (the bench model under `--seed`): PTQ with all
/// five methods, fidelity of LightMamba and RTN, and [`cycle_model`].
pub fn run(fp: &MambaModel, seed: u64) -> Result<Anchors, BenchError> {
    let mut checks = Checks::default();
    let corpus = SyntheticCorpus::for_vocab(fp.config().vocab_size);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa9c4_0125);
    let calib = corpus.calibration_set(&mut rng, CALIB_SEQS, CALIB_LEN);
    let eval = corpus.calibration_set(&mut rng, EVAL_SEQS, EVAL_LEN);
    let spec = QuantSpec::w4a4_grouped(GROUP);
    let (mut rtn_kl, mut kl, mut agree) = (0.0, 0.0, 0.0);
    for method in Method::ALL {
        let mut q = quantize_model(fp, method, &spec, &calib)?;
        checks.check(
            q.exec_mode() == ExecMode::Integer,
            format!("{method} W4A4 runs on the integer kernels"),
        );
        if !matches!(method, Method::Rtn | Method::LightMamba) {
            continue;
        }
        let report = compare_models(&mut ReferenceRunner::new(fp.clone()), &mut q, &eval)?;
        if method == Method::Rtn {
            rtn_kl = f64::from(report.mean_kl);
        } else {
            kl = f64::from(report.mean_kl);
            agree = f64::from(report.agreement);
        }
    }
    checks.check(
        kl < rtn_kl,
        format!("rotation error {kl} < RTN error {rtn_kl}"),
    );
    let cycle = cycle_model();
    checks.made += cycle.checks;
    checks.failed.extend(cycle.failed_checks.iter().cloned());
    Ok(Anchors {
        cycle,
        w4a4_mean_kl: kl,
        w4a4_top1_agree: agree,
        rtn_mean_kl: rtn_kl,
        failed_checks: checks.failed,
        checks: checks.made,
    })
}

/// The cycle model against Table IV for Mamba2-2.7B.
pub fn cycle_model() -> CycleModel {
    let mut checks = Checks::default();
    let big = MambaConfig::preset(ModelPreset::B2_7);
    let hw = |t: Target| CoDesign::new(t, ModelPreset::B2_7).hardware_report();
    let (v4, v8, u4) = (
        hw(Target::Vck190W4A4),
        hw(Target::Vck190W8A8),
        hw(Target::U280W4A4),
    );
    let gpu = |d: GpuDevice| GpuModel::new(d).decode_report(&big);
    let (g2070, g4090) = (gpu(GpuDevice::rtx2070()), gpu(GpuDevice::rtx4090()));
    let anchor = |name, paper, model| Anchor { name, paper, model };
    let table = vec![
        anchor("VCK190 W4A4 tok/s", 7.21, v4.decode.tokens_per_s),
        anchor("VCK190 W8A8 tok/s", 3.61, v8.decode.tokens_per_s),
        anchor("U280 W4A4 tok/s", 93.0, u4.decode.tokens_per_s),
        anchor("VCK190 W4A4 tok/J", 2.25, v4.power.tokens_per_joule),
        anchor("VCK190 W8A8 tok/J", 1.45, v8.power.tokens_per_joule),
        anchor("RTX 2070 tok/s", 65.0, g2070.tokens_per_s),
        anchor("RTX 4090 tok/s", 138.0, g4090.tokens_per_s),
        anchor("RTX 2070 tok/J", 0.371, g2070.tokens_per_joule),
        anchor("RTX 4090 tok/J", 0.484, g4090.tokens_per_joule),
    ];
    checks.check(
        v4.decode.tokens_per_s > v8.decode.tokens_per_s,
        "VCK190 W4A4 tok/s > W8A8".into(),
    );
    checks.check(v4.decode.memory_bound, "VCK190 W4A4 is memory-bound".into());
    checks.check(!u4.decode.memory_bound, "U280 W4A4 is compute-bound".into());

    // Per-unit figures of the VCK190-W4A4 design point.
    let target = Target::Vck190W4A4;
    let cfg = target.config(&big);
    let sim = DecodeSimulator::new(target.platform(), big.clone(), cfg.clone());
    let mmu = MmuModel::new(cfg.mmu_din, cfg.mmu_dout, cfg.precision);
    let ssmu = SsmuModel::new(&cfg, big.headdim, big.d_state);
    let accel = vec![
        ("accel.sim.vck190_w4a4_tok_s", v4.decode.tokens_per_s),
        ("accel.sim.vck190_w8a8_tok_s", v8.decode.tokens_per_s),
        ("accel.sim.u280_w4a4_tok_s", u4.decode.tokens_per_s),
        ("accel.sim.vck190_w4a4_tok_per_j", v4.power.tokens_per_joule),
        ("accel.sim.vck190_compute_cycles", v4.decode.compute_cycles),
        ("accel.sim.vck190_dma_cycles", v4.decode.dma_cycles),
        ("accel.sim.utilization", v4.decode.utilization),
        (
            "accel.mmu.in_proj_cycles",
            mmu.matvec_cycles(big.d_model, big.d_in_proj()) as f64,
        ),
        (
            "accel.ssmu.all_heads_cycles",
            ssmu.all_heads_cycles(big.nheads()) as f64,
        ),
        (
            "accel.htu.transform_cycles",
            htu_model(&big, &cfg).transform_cycles(big.d_inner()) as f64,
        ),
        ("accel.batch.tok_s_b16", sim.batch_report(16).tokens_per_s),
        ("accel.gpu.rtx2070_tok_s", g2070.tokens_per_s),
        ("accel.err_pct.vck190_w4a4", table[0].err_pct()),
        ("accel.err_pct.vck190_w8a8", table[1].err_pct()),
        ("accel.err_pct.u280_w4a4", table[2].err_pct()),
        ("accel.err_pct.energy_vck190_w4a4", table[3].err_pct()),
    ];
    CycleModel {
        table,
        accel,
        failed_checks: checks.failed,
        checks: checks.made,
    }
}
