//! Property-based tests for the Mamba2 substrate.

use lightmamba_model::ssm::{
    active_isa, head_coeffs, ssm_step, ssm_step_into, ssm_step_into_scalar, SsmDims,
};
use lightmamba_model::{MambaConfig, MambaModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decay_always_in_unit_interval(raw in -20.0f32..20.0, bias in -5.0f32..5.0, a_log in -3.0f32..3.0) {
        let c = head_coeffs(raw, bias, a_log);
        // decay = exp(-A·Δ) ∈ [0, 1]; it underflows to exactly 0 in f32
        // for very large A·Δ, which hardware also clamps to zero.
        prop_assert!(c.decay >= 0.0 && c.decay <= 1.0, "decay {}", c.decay);
        prop_assert!(c.dt >= 0.0 && c.dt.is_finite());
    }

    #[test]
    fn ssm_output_is_finite_and_linear_in_c(
        seed in 0u64..100,
        scale in 0.1f32..4.0,
    ) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = SsmDims { nheads: 2, headdim: 3, d_state: 4, ngroups: 1 };
        let x: Vec<f32> = (0..dims.inner_len()).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let b: Vec<f32> = (0..dims.bc_len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let c: Vec<f32> = (0..dims.bc_len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let dt = vec![0.5f32; 2];
        let a_log = vec![0.3f32; 2];
        let dt_bias = vec![0.0f32; 2];
        let d_skip = vec![0.0f32; 2];

        // Same state evolution, C scaled -> y scales identically (readout
        // is linear in C when D = 0).
        let mut s1 = vec![0.1f32; dims.state_len()];
        let mut s2 = s1.clone();
        let y1 = ssm_step(dims, &x, &b, &c, &dt, &a_log, &dt_bias, &d_skip, &mut s1).unwrap();
        let c_scaled: Vec<f32> = c.iter().map(|v| v * scale).collect();
        let y2 = ssm_step(dims, &x, &b, &c_scaled, &dt, &a_log, &dt_bias, &d_skip, &mut s2).unwrap();
        for (a, b2) in y1.iter().zip(y2.iter()) {
            prop_assert!(a.is_finite());
            prop_assert!((a * scale - b2).abs() < 1e-3 + scale * 1e-4, "{a} vs {b2}");
        }
        // State evolution is independent of C.
        for (a, b2) in s1.iter().zip(s2.iter()) {
            prop_assert!((a - b2).abs() < 1e-6);
        }
    }

    #[test]
    fn state_norm_is_bounded_under_bounded_input(seed in 0u64..50) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = SsmDims { nheads: 1, headdim: 2, d_state: 4, ngroups: 1 };
        let b: Vec<f32> = (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let c = vec![0.5f32; 4];
        let dt = [rng.gen_range(-1.0f32..2.0)];
        let a_log = [rng.gen_range(0.0f32..2.0)];
        let dt_bias = [0.0f32];
        let d_skip = [0.0f32];
        let mut state = vec![0.0f32; dims.state_len()];
        // With |x| <= 1, the state is a geometric series bounded by
        // dt·|B| / (1 - decay).
        let coeffs = head_coeffs(dt[0], dt_bias[0], a_log[0]);
        let bound = if coeffs.decay < 1.0 {
            coeffs.dt * 1.0 / (1.0 - coeffs.decay) + 1.0
        } else {
            f32::INFINITY
        };
        for _ in 0..200 {
            let x = [rng.gen_range(-1.0f32..1.0), rng.gen_range(-1.0f32..1.0)];
            ssm_step(dims, &x, &b, &c, &dt, &a_log, &dt_bias, &d_skip, &mut state).unwrap();
        }
        let max = state.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        prop_assert!(max <= bound, "state {max} exceeds bound {bound}");
    }

    #[test]
    fn prefill_equals_stepwise_for_any_prompt(prompt in proptest::collection::vec(0u32..256, 1..12)) {
        let model = MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(1)).unwrap();
        let mut s1 = model.new_state();
        let via_prefill = model.prefill(&prompt, &mut s1).unwrap();
        let mut s2 = model.new_state();
        let mut last = Vec::new();
        for &t in &prompt {
            last = model.forward_step(t, &mut s2).unwrap();
        }
        prop_assert_eq!(via_prefill, last);
    }

    #[test]
    fn logits_always_finite(token in 0u32..256, seed in 0u64..20) {
        let model = MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(seed)).unwrap();
        let mut state = model.new_state();
        let logits = model.forward_step(token, &mut state).unwrap();
        prop_assert!(logits.iter().all(|v| v.is_finite()));
    }
}

/// Bit pattern with every NaN folded onto one: the two head-step forms
/// may hand `mul`/`add` their operands in either order, and which
/// NaN's payload survives depends on that order.
fn bits_nan_folded(v: f32) -> u32 {
    if v.is_nan() {
        f32::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// Values the recurrence must treat exactly as the scalar loop does.
/// Each profile adds to the one before: signed zeros and denormals
/// (sums that round differently under reassociation, `0.0 + -0.0`),
/// 1e30-scale values (products overflow, `inf − inf`), then ±inf.
fn special_value(profile: usize, rng: &mut StdRng) -> f32 {
    use rand::Rng;
    const POOL: [f32; 10] = [
        0.0,
        -0.0,
        1.0e-40,
        -3.0e-42,
        f32::MIN_POSITIVE,
        1.0e30,
        -2.5e30,
        3.0e-30,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    /// How much of `POOL` each profile draws from.
    const POOL_LEN: [usize; 3] = [5, 8, 10];
    POOL[rng.gen_range(0..POOL_LEN[profile])]
}

/// `len` ordinary values in `±scale`, one in eight replaced by a special
/// (one in 32 once specials can overflow, so finite rows remain).
fn grid_values(len: usize, scale: f32, profile: usize, rng: &mut StdRng) -> Vec<f32> {
    use rand::Rng;
    const ONE_IN: [u32; 3] = [8, 32, 32];
    (0..len)
        .map(|_| {
            if rng.gen_range(0..ONE_IN[profile]) == 0 {
                special_value(profile, rng)
            } else {
                rng.gen_range(-scale..scale)
            }
        })
        .collect()
}

/// The dispatched SSM step (AVX2 under `--features lightmamba_quant/simd`
/// on a capable host) against the scalar oracle, bit for bit on outputs
/// *and* carried state, over shapes that hit every ragged edge of the
/// 8-row × 8-column blocking.
#[test]
fn dispatched_ssm_step_is_bit_identical_to_scalar() {
    use std::io::Write;
    const STEPS: usize = 4;
    const NHEADS: usize = 4;
    // Straight to stderr: the harness only captures the print macros, so
    // a scalar-vs-scalar pass is visible in a plain `cargo test` log.
    writeln!(
        std::io::stderr(),
        "dispatched_ssm_step_is_bit_identical_to_scalar: comparing {} against scalar",
        active_isa()
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(14);
    for headdim in [1usize, 7, 8, 9, 16, 61, 64] {
        for d_state in [1usize, 5, 8, 13, 64, 67, 128] {
            for ngroups in [1usize, 2] {
                for profile in 0..3 {
                    let dims = SsmDims {
                        nheads: NHEADS,
                        headdim,
                        d_state,
                        ngroups,
                    };
                    let at = format!("{dims:?} profile {profile}");
                    let a_log = grid_values(NHEADS, 1.0, 0, &mut rng);
                    let dt_bias = grid_values(NHEADS, 1.0, 0, &mut rng);
                    let d_skip = grid_values(NHEADS, 2.0, profile, &mut rng);
                    let mut state = grid_values(dims.state_len(), 1.0, profile, &mut rng);
                    let mut state_ref = state.clone();
                    let mut y = vec![0.0f32; dims.inner_len()];
                    let mut y_ref = y.clone();
                    for step in 0..STEPS {
                        let x = grid_values(dims.inner_len(), 2.0, profile, &mut rng);
                        let b = grid_values(dims.bc_len(), 1.0, profile, &mut rng);
                        let c = grid_values(dims.bc_len(), 1.0, profile, &mut rng);
                        let dt_raw = grid_values(NHEADS, 2.0, 0, &mut rng);
                        ssm_step_into(
                            dims, &x, &b, &c, &dt_raw, &a_log, &dt_bias, &d_skip, &mut state,
                            &mut y,
                        )
                        .unwrap();
                        ssm_step_into_scalar(
                            dims,
                            &x,
                            &b,
                            &c,
                            &dt_raw,
                            &a_log,
                            &dt_bias,
                            &d_skip,
                            &mut state_ref,
                            &mut y_ref,
                        )
                        .unwrap();
                        for (what, got, want) in [("y", &y, &y_ref), ("state", &state, &state_ref)]
                        {
                            for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                                assert_eq!(
                                    bits_nan_folded(*g),
                                    bits_nan_folded(*w),
                                    "{what}[{i}] {g:e} vs {w:e} at step {step}, {at}"
                                );
                            }
                        }
                    }
                    // Zeros and denormals alone must not blow anything up;
                    // the larger profiles may, and then compare inf/NaN
                    // placement.
                    assert!(
                        profile > 0 || y_ref.iter().all(|v| v.is_finite()),
                        "non-finite output, {at}"
                    );
                }
            }
        }
    }
}
