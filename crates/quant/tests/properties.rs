//! Property-based tests for the quantization stack.

use lightmamba_quant::kernels::{gemv_packed, gemv_reference, ActQuant, GemvScratch, PackedW4};
use lightmamba_quant::pot;
use lightmamba_quant::quantizer::{fake_quant, Granularity, QuantScheme, QuantizedTensor};
use lightmamba_tensor::Tensor;
use proptest::prelude::*;

fn any_scheme() -> impl Strategy<Value = QuantScheme> {
    (
        3u8..=8,
        prop_oneof![
            Just(Granularity::PerTensor),
            Just(Granularity::PerToken),
            Just(Granularity::PerChannel),
            (1usize..16).prop_map(Granularity::PerGroup),
        ],
        any::<bool>(),
    )
        .prop_map(|(bits, granularity, pot_scale)| QuantScheme {
            bits,
            granularity,
            pot_scale,
        })
}

fn small_matrix() -> impl Strategy<Value = Tensor> {
    (1usize..6, 1usize..24).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0f32..100.0, r * c)
            .prop_map(move |v| Tensor::from_vec(v, &[r, c]).unwrap())
    })
}

proptest! {
    #[test]
    fn roundtrip_error_bounded_by_half_max_scale(t in small_matrix(), scheme in any_scheme()) {
        let q = QuantizedTensor::quantize(&t, scheme).unwrap();
        let dq = q.dequantize();
        let max_scale = q.scales().iter().cloned().fold(0.0f32, f32::max);
        for (a, b) in t.data().iter().zip(dq.data().iter()) {
            prop_assert!((a - b).abs() <= max_scale / 2.0 + 1e-4, "{a} vs {b} (scale {max_scale})");
        }
    }

    #[test]
    fn codes_within_symmetric_range(t in small_matrix(), scheme in any_scheme()) {
        let q = QuantizedTensor::quantize(&t, scheme).unwrap();
        let qmax = scheme.qmax() as i32;
        prop_assert!(q.codes().iter().all(|&c| (c as i32).abs() <= qmax));
    }

    #[test]
    fn quantization_is_idempotent(t in small_matrix(), scheme in any_scheme()) {
        // fake_quant(fake_quant(x)) == fake_quant(x): values already on the
        // grid stay on the grid.
        let once = fake_quant(&t, scheme).unwrap();
        let twice = fake_quant(&once, scheme).unwrap();
        for (a, b) in once.data().iter().zip(twice.data().iter()) {
            prop_assert!((a - b).abs() <= 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn pot_scales_are_exact_powers(t in small_matrix(), group in 1usize..16) {
        let q = QuantizedTensor::quantize(&t, QuantScheme::ssm_pot(group)).unwrap();
        for &s in q.scales() {
            prop_assert!(pot::is_pot(s), "scale {s}");
        }
    }

    #[test]
    fn pot_round_up_never_shrinks(s in 1e-6f32..1e6) {
        let r = pot::round_scale_up(s);
        prop_assert!(r >= s);
        prop_assert!(r < 2.0 * s);
        prop_assert!(pot::is_pot(r));
    }

    #[test]
    fn shift_requant_matches_float_within_one_lsb(
        qa in -127i32..=127,
        qb in -127i32..=127,
        ka in -10i32..0,
        kb in -10i32..0,
        kout in -12i32..0,
    ) {
        let qmax = 127;
        let q = pot::pot_elementwise_mul(qa, qb, ka, kb, kout, qmax);
        let float_val = (qa as f64 * 2f64.powi(ka)) * (qb as f64 * 2f64.powi(kb));
        let lsb = 2f64.powi(kout);
        let clipped = float_val.clamp(-(qmax as f64) * lsb, qmax as f64 * lsb);
        prop_assert!(((q as f64 * lsb) - clipped).abs() <= lsb, "{q} vs {clipped}");
    }

    #[test]
    fn int_linear_matches_dequantized_path(
        seed in 0u64..200,
        bits in prop::sample::select(vec![4u8, 8]),
    ) {
        // The integer linear layer (packed 4-bit weights, `bits`-bit
        // activations) against the dequantize-then-f32 path on the same
        // quantization grid.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (k, n, g) = (32usize, 16usize, 8usize);
        let w = Tensor::from_fn(&[k, n], |_| rng.gen_range(-0.5f32..0.5));
        let lin = PackedW4::quantize(&w, QuantScheme::weight_per_group(4, g)).unwrap();
        let x: Vec<f32> = (0..k).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let mut act = ActQuant::new();
        act.quantize(&x, QuantScheme::act_per_group(bits, g)).unwrap();
        let mut int_out = vec![0.0f32; n];
        let mut fp_out = vec![0.0f32; n];
        gemv_packed(&lin, &act, &mut GemvScratch::new(), &mut int_out).unwrap();
        gemv_reference(&lin, &act, &mut fp_out).unwrap();
        for (a, b) in int_out.iter().zip(fp_out.iter()) {
            prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn storage_bits_monotone_in_bits(t in small_matrix()) {
        let q4 = QuantizedTensor::quantize(&t, QuantScheme::act_per_token(4)).unwrap();
        let q8 = QuantizedTensor::quantize(&t, QuantScheme::act_per_token(8)).unwrap();
        prop_assert!(q4.storage_bits() < q8.storage_bits());
    }
}
