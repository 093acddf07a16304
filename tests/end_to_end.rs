//! Cross-crate integration tests: the full quantize → evaluate → simulate
//! pipeline. (The paper's headline orderings are the checks of
//! `core::experiments`, asserted by `tests/experiment_shapes.rs`.)

use lightmamba_repro::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_setup(seed: u64) -> (MambaModel, Vec<Vec<u32>>, Vec<Vec<u32>>) {
    let cfg = MambaConfig::small();
    let mut rng = StdRng::seed_from_u64(seed);
    let reference = MambaModel::synthetic(cfg.clone(), &mut rng).expect("valid config");
    let corpus = lightmamba_repro::model::corpus::SyntheticCorpus::for_vocab(cfg.vocab_size);
    let calib = corpus.calibration_set(&mut rng, 4, 12);
    let eval = corpus.calibration_set(&mut rng, 6, 24);
    (reference, calib, eval)
}

#[test]
fn w8a8_is_near_lossless_for_all_methods() {
    let (reference, calib, eval) = small_setup(55);
    for method in Method::ALL {
        let mut q =
            quantize_model(&reference, method, &QuantSpec::w8a8(), &calib).expect("quantize");
        let mut r = ReferenceRunner::new(reference.clone());
        let rep = compare_models(&mut r, &mut q, &eval).expect("compare");
        assert!(
            rep.mean_kl < 0.05,
            "{method} W8A8 KL {} too high",
            rep.mean_kl
        );
        assert!(
            rep.agreement > 0.7,
            "{method} W8A8 agreement {}",
            rep.agreement
        );
    }
}

#[test]
fn rotation_is_fp_invariant_end_to_end() {
    let (reference, _, eval) = small_setup(77);
    let mut prepared =
        lightmamba_repro::quant::PreparedModel::from_reference(&reference).expect("prepare");
    lightmamba_repro::quant::rotation::apply(
        &mut prepared,
        &lightmamba_repro::quant::rotation::RotationConfig::default(),
    )
    .expect("rotate");
    let mut fp =
        lightmamba_repro::quant::QuantizedMamba::new(prepared, Precision::fp()).expect("fp model");
    let mut r = ReferenceRunner::new(reference);
    let rep = compare_models(&mut r, &mut fp, &eval).expect("compare");
    assert!(
        rep.mean_kl < 1e-3,
        "rotation changed the FP function: {}",
        rep.mean_kl
    );
    assert!(rep.agreement > 0.99);
}

#[test]
fn full_codesign_pipeline_produces_consistent_reports() {
    for target in Target::ALL {
        let design = CoDesign::new(target, ModelPreset::B2_7);
        let hw = design.hardware_report();
        // Internal consistency: throughput = freq / cycles.
        let freq = target.platform().freq_hz;
        let implied = freq / hw.decode.cycles_per_token;
        assert!((implied - hw.decode.tokens_per_s).abs() / implied < 1e-9);
        // Energy identity.
        let p = hw.power;
        assert!((p.avg_power_w / hw.decode.tokens_per_s - p.energy_per_token_j).abs() < 1e-9);
        // Resources fit the platform.
        hw.resources.check_fits(&target.platform()).unwrap();
    }
}

#[test]
fn ablation_is_reproducible_and_ordered() {
    // Same seed, same rows, in the paper's stage order. (What the rows
    // must show — the full design fastest and smallest, the dips and
    // recoveries between — is Fig. 10's checks in `core::experiments`.)
    let a = run_ablation(9);
    let b = run_ablation(9);
    assert_eq!(a.len(), 7);
    for ((x, y), stage) in a.iter().zip(b.iter()).zip(AblationStage::ALL) {
        assert_eq!(x.stage, stage);
        assert_eq!(x.stage, y.stage);
        assert!((x.tokens_per_s - y.tokens_per_s).abs() < 1e-12);
        assert!((x.accuracy_pct - y.accuracy_pct).abs() < 1e-9);
    }
}

#[test]
fn decode_state_is_constant_in_generated_length() {
    // Mamba's defining property, end to end: generating more tokens does
    // not grow the state (the mechanism behind Fig. 9a's flat curve).
    let cfg = MambaConfig::tiny();
    let mut rng = StdRng::seed_from_u64(5);
    let model = MambaModel::synthetic(cfg, &mut rng).expect("valid");
    let mut state = model.new_state();
    model.prefill(&[1, 2, 3], &mut state).expect("prefill");
    let bytes_short = state.total_state_bytes(16.0);
    for t in 0..64 {
        model.forward_step(t % 250, &mut state).expect("step");
    }
    let bytes_long = state.total_state_bytes(16.0);
    assert_eq!(bytes_short, bytes_long);
}

#[test]
fn quantized_weight_traffic_matches_simulator_assumptions() {
    // The fidelity model's storage accounting and the hardware simulator's
    // DMA model must agree on the weight-bit budget.
    let (reference, _, _) = small_setup(31);
    let q = quantize_model(&reference, Method::Rtn, &QuantSpec::w4a4_grouped(32), &[])
        .expect("quantize");
    let bits = q.weight_storage_bits() as f64;
    let params = reference.config().param_count() as f64;
    // 4-bit codes + scale overhead: between 4 and 6 bits per parameter.
    // (The LM head is counted once; the tied embedding stays FP.)
    let per_param = bits / params;
    assert!(
        (3.0..7.0).contains(&per_param),
        "weight bits per parameter {per_param}"
    );
}
