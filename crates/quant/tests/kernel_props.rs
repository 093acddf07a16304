//! Property tests for the packed integer W4A4 kernels: lossless nibble
//! packing, agreement between the integer GEMV and the fake-quant
//! reference oracle (bit-exact under PoT scales), GEMM ≡ GEMV at every
//! K-block remainder, dispatched ≡ scalar, the shapes that stress the
//! tiled layout's padding and the i16 flush bound, and full-model
//! integer-vs-oracle decode agreement. Run with and without
//! `--features simd`.

use lightmamba_model::MambaConfig;
use lightmamba_model::MambaModel;
use lightmamba_quant::kernels::{
    gemm_packed, gemm_packed_scalar, gemv_packed, gemv_packed_scalar, gemv_reference, pack_nibbles,
    unpack_nibbles_into, ActQuant, GemvScratch, PackedW4,
};
use lightmamba_quant::qmodel::{ExecMode, Precision};
use lightmamba_quant::{Granularity, PreparedModel, QuantScheme, QuantizedMamba};
use lightmamba_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn per_group(bits: u8, group: usize, pot: bool) -> QuantScheme {
    QuantScheme {
        bits,
        granularity: Granularity::PerGroup(group),
        pot_scale: pot,
    }
}

fn random_problem(
    seed: u64,
    inf: usize,
    outf: usize,
    group: usize,
    wbits: u8,
    abits: u8,
    pot: bool,
) -> (PackedW4, ActQuant) {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = Tensor::from_fn(&[inf, outf], |_| rng.gen_range(-0.8f32..0.8));
    let p = PackedW4::quantize(&w, per_group(wbits, group, pot)).unwrap();
    let x: Vec<f32> = (0..inf).map(|_| rng.gen_range(-2.5f32..2.5)).collect();
    let mut act = ActQuant::new();
    act.quantize(&x, per_group(abits, group, pot)).unwrap();
    (p, act)
}

/// Every possible byte holds two nibbles that survive a pack round trip
/// (exhaustive, so the proptest below only has to cover lengths).
#[test]
fn every_byte_pattern_roundtrips() {
    for b in 0u8..=255 {
        let mut pair = [0i8; 2];
        unpack_nibbles_into(&[b], 2, &mut pair);
        assert!((-8..=7).contains(&pair[0]) && (-8..=7).contains(&pair[1]));
        assert_eq!(pack_nibbles(&pair), vec![b], "byte {b:#04x}");
    }
}

/// The shapes the tiled layout has to pad or split, on hand-built
/// weights that use every nibble including −8: partial and multiple
/// output tiles, odd `in_features`, groups that are odd / wider than the
/// input / ragged at the end, 8-bit activations on both sides of the
/// i16 flush bound (16 inputs), activations with all-zero groups, and
/// every K-block remainder. Scalar, dispatched, batched and
/// one-at-a-time must agree bit for bit, and — scales being powers of
/// two — with the f32 reference as well.
#[test]
fn edge_shapes_agree_across_kernels_batches_and_the_reference() {
    // (in_features, out_features, group, activation bits)
    let shapes = [
        (8usize, 1usize, 4usize, 4u8),
        (9, 7, 3, 4),
        (33, 33, 5, 4),
        (31, 32, 128, 4),
        (40, 65, 16, 4),
        (70, 34, 32, 4),
        (48, 7, 16, 8),
        (51, 33, 17, 8),
        (54, 40, 18, 8),
        (256, 33, 128, 8),
        (255, 5, 128, 8),
    ];
    for (case, &(inf, outf, group, abits)) in shapes.iter().enumerate() {
        let groups = inf.div_ceil(group);
        // Every nibble value, −8 included, in a pattern that does not
        // repeat with the tile or pair period.
        let codes: Vec<i8> = (0..inf * outf)
            .map(|n| ((n * 7 + n / 5 + case) % 16) as i8 - 8)
            .collect();
        let scales: Vec<f32> = (0..outf * groups)
            .map(|n| 2f32.powi(-((n % 5) as i32) - 2))
            .collect();
        let p = PackedW4::from_codes(&codes, &scales, inf, outf, group).unwrap();
        let mut row = vec![0i8; inf];
        for o in 0..outf {
            p.unpack_row_into(o, &mut row);
            assert_eq!(row, codes[o * inf..(o + 1) * inf], "case {case} row {o}");
        }

        let mut rng = StdRng::seed_from_u64(case as u64);
        let acts: Vec<ActQuant> = (0..9)
            .map(|k| {
                let mut x: Vec<f32> = (0..inf).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
                // Saturate one element per group so extreme codes occur,
                // and silence whole groups of every third activation.
                for (g, chunk) in x.chunks_mut(group).enumerate() {
                    chunk[0] = if k % 2 == 0 { 3.0 } else { -3.0 };
                    if k % 3 == 2 && g % 2 == 0 {
                        chunk.fill(0.0);
                    }
                }
                let mut a = ActQuant::new();
                a.quantize(&x, per_group(abits, group, true)).unwrap();
                a
            })
            .collect();
        assert!(acts[2].codes()[..group.min(inf)].iter().all(|&q| q == 0));

        let mut scratch = GemvScratch::new();
        let singles: Vec<Vec<f32>> = acts
            .iter()
            .map(|a| {
                let mut reference = vec![0.0f32; outf];
                gemv_reference(&p, a, &mut reference).unwrap();
                let mut scalar = vec![0.0f32; outf];
                gemv_packed_scalar(&p, a, &mut scratch, &mut scalar).unwrap();
                let mut dispatched = vec![1.0f32; outf];
                gemv_packed(&p, a, &mut scratch, &mut dispatched).unwrap();
                assert_eq!(scalar, reference, "case {case}: scalar vs reference");
                assert_eq!(
                    dispatched, reference,
                    "case {case}: dispatched vs reference"
                );
                reference
            })
            .collect();
        for batch in 1..=acts.len() {
            let mut outs: Vec<Vec<f32>> = vec![Vec::new(); batch];
            gemm_packed(&p, &acts[..batch], &mut scratch, &mut outs).unwrap();
            assert_eq!(outs, singles[..batch], "case {case} batch {batch}");
            gemm_packed_scalar(&p, &acts[..batch], &mut scratch, &mut outs).unwrap();
            assert_eq!(outs, singles[..batch], "case {case} batch {batch} (scalar)");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_nibble_roundtrip_is_lossless(
        codes in proptest::collection::vec(-8i8..8, 0..200),
    ) {
        let packed = pack_nibbles(&codes);
        prop_assert_eq!(packed.len(), codes.len().div_ceil(2));
        let mut out = vec![0i8; codes.len()];
        unpack_nibbles_into(&packed, codes.len(), &mut out);
        prop_assert_eq!(out, codes);
    }

    #[test]
    fn integer_gemv_agrees_with_fake_quant_reference(
        seed in 0u64..10_000,
        inf in 1usize..96,
        outf in 1usize..64,
        group in 1usize..48,
        wbits in 2u8..5,
        abits in 2u8..5,
    ) {
        let (p, act) = random_problem(seed, inf, outf, group, wbits, abits, false);
        let mut scratch = GemvScratch::new();
        let mut int_out = vec![0.0f32; outf];
        let mut ref_out = vec![0.0f32; outf];
        gemv_packed(&p, &act, &mut scratch, &mut int_out).unwrap();
        gemv_reference(&p, &act, &mut ref_out).unwrap();
        // Same quantization grid, same group-blocked accumulation order;
        // only per-element vs per-group rounding differs.
        for (a, b) in int_out.iter().zip(ref_out.iter()) {
            prop_assert!(
                (a - b).abs() <= 1e-5 * b.abs().max(1.0),
                "int {} vs oracle {} (seed {}, {}x{} g{})",
                a, b, seed, inf, outf, group
            );
        }
    }

    #[test]
    fn integer_gemv_is_bit_exact_under_pot_scales(
        seed in 0u64..10_000,
        inf in 1usize..96,
        outf in 1usize..64,
        group in 1usize..48,
    ) {
        // With power-of-two scales neither path performs a rounding
        // f32 operation, so agreement is exact, not approximate.
        let (p, act) = random_problem(seed, inf, outf, group, 4, 4, true);
        let mut scratch = GemvScratch::new();
        let mut int_out = vec![0.0f32; outf];
        let mut ref_out = vec![0.0f32; outf];
        gemv_packed(&p, &act, &mut scratch, &mut int_out).unwrap();
        gemv_reference(&p, &act, &mut ref_out).unwrap();
        prop_assert_eq!(int_out, ref_out);
    }

    #[test]
    fn dispatched_gemv_is_bit_identical_to_scalar(
        seed in 0u64..10_000,
        inf in 1usize..96,
        outf in 1usize..64,
        group in 1usize..48,
        pot in any::<bool>(),
    ) {
        // The runtime-dispatched entry point (AVX2 when built with
        // `--features simd` on capable hardware, scalar otherwise) against
        // the always-scalar oracle. Only the integer micro-kernel is
        // vectorized — the `−8·Σq` correction and the f32 rescale are
        // shared code — so agreement is bit-exact for *any* scale mode,
        // not just PoT.
        let (p, act) = random_problem(seed, inf, outf, group, 4, 4, pot);
        let mut s1 = GemvScratch::new();
        let mut s2 = GemvScratch::new();
        let mut dispatched = vec![0.0f32; outf];
        let mut scalar = vec![0.0f32; outf];
        gemv_packed(&p, &act, &mut s1, &mut dispatched).unwrap();
        gemv_packed_scalar(&p, &act, &mut s2, &mut scalar).unwrap();
        prop_assert_eq!(dispatched, scalar);
    }

    #[test]
    fn dispatched_gemm_is_bit_identical_to_scalar(
        seed in 0u64..10_000,
        inf in 1usize..64,
        outf in 1usize..48,
        group in 1usize..32,
        batch in 1usize..10,
        pot in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = Tensor::from_fn(&[inf, outf], |_| rng.gen_range(-0.8f32..0.8));
        let p = PackedW4::quantize(&w, per_group(4, group, pot)).unwrap();
        let mut acts = Vec::new();
        for _ in 0..batch {
            let x: Vec<f32> = (0..inf).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let mut a = ActQuant::new();
            a.quantize(&x, per_group(4, group, pot)).unwrap();
            acts.push(a);
        }
        let mut dispatched: Vec<Vec<f32>> = vec![Vec::new(); batch];
        let mut scalar: Vec<Vec<f32>> = vec![Vec::new(); batch];
        let mut s1 = GemvScratch::new();
        let mut s2 = GemvScratch::new();
        gemm_packed(&p, &acts, &mut s1, &mut dispatched).unwrap();
        gemm_packed_scalar(&p, &acts, &mut s2, &mut scalar).unwrap();
        prop_assert_eq!(dispatched, scalar);
    }

    #[test]
    fn gemm_is_value_identical_to_gemv(
        seed in 0u64..10_000,
        inf in 1usize..64,
        outf in 1usize..48,
        group in 1usize..32,
        batch in 1usize..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = Tensor::from_fn(&[inf, outf], |_| rng.gen_range(-0.8f32..0.8));
        let p = PackedW4::quantize(&w, per_group(4, group, false)).unwrap();
        let mut acts = Vec::new();
        for _ in 0..batch {
            let x: Vec<f32> = (0..inf).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let mut a = ActQuant::new();
            a.quantize(&x, per_group(4, group, false)).unwrap();
            acts.push(a);
        }
        let mut outs: Vec<Vec<f32>> = vec![Vec::new(); batch];
        let mut scratch = GemvScratch::new();
        gemm_packed(&p, &acts, &mut scratch, &mut outs).unwrap();
        for (a, out) in acts.iter().zip(&outs) {
            let mut single = vec![0.0f32; outf];
            let mut s2 = GemvScratch::new();
            gemv_packed(&p, a, &mut s2, &mut single).unwrap();
            prop_assert_eq!(out.clone(), single);
        }
    }

    #[test]
    fn model_integer_decode_tracks_fake_quant_oracle(
        seed in 0u64..200,
        group in prop_oneof![Just(8usize), Just(16), Just(32)],
    ) {
        // Full-model version of the kernel agreement: one weight set,
        // both execution modes, logits within a tight relative band.
        let model =
            MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(seed)).unwrap();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        let q_int = QuantizedMamba::new(prepared, Precision::w4a4(group)).unwrap();
        prop_assert_eq!(q_int.exec_mode(), ExecMode::Integer);
        let q_fake = q_int.clone().with_exec_mode(ExecMode::FakeQuant).unwrap();
        prop_assert!(q_int.shares_weights_with(&q_fake));
        let mut s_int = q_int.new_state();
        let mut s_fake = q_fake.new_state();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for _ in 0..6 {
            let t = rng.gen_range(0u32..256);
            let li = q_int.forward_step_with(t, &mut s_int).unwrap();
            let lf = q_fake.forward_step_with(t, &mut s_fake).unwrap();
            let scale = lf.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1.0);
            for (a, b) in li.iter().zip(lf.iter()) {
                prop_assert!((a - b).abs() <= 1e-3 * scale, "{} vs {}", a, b);
            }
        }
    }
}
