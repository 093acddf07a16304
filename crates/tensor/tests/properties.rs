//! Property-based tests for the tensor substrate.

use lightmamba_tensor::{activation, norm, ops, stats, Tensor};
use proptest::prelude::*;

fn small_matrix() -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    (1usize..8, 1usize..8).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0f32..100.0, r * c).prop_map(move |v| (r, c, v))
    })
}

proptest! {
    #[test]
    fn matmul_identity_is_noop((r, c, data) in small_matrix()) {
        let a = Tensor::from_vec(data, &[r, c]).unwrap();
        let out = a.matmul(&Tensor::eye(c)).unwrap();
        for (x, y) in a.data().iter().zip(out.data().iter()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        (r, c, d1) in small_matrix(),
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Tensor::from_vec(d1, &[r, c]).unwrap();
        let b = Tensor::from_fn(&[c, 3], |_| rng.gen_range(-10.0..10.0));
        let cmat = Tensor::from_fn(&[c, 3], |_| rng.gen_range(-10.0..10.0));
        let lhs = a.matmul(&b.add(&cmat).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&cmat).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((x - y).abs() < 1e-1, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_is_involution((r, c, data) in small_matrix()) {
        let a = Tensor::from_vec(data, &[r, c]).unwrap();
        prop_assert_eq!(a.transpose().unwrap().transpose().unwrap(), a);
    }

    #[test]
    fn vecmat_matches_matmul_row(
        (r, c, data, row_vals) in small_matrix().prop_flat_map(|(r, c, data)| {
            proptest::collection::vec(-10.0f32..10.0, r).prop_map(move |v| (r, c, data.clone(), v))
        })
    ) {
        let w = Tensor::from_vec(data, &[r, c]).unwrap();
        let via_vecmat = w.vecmat(&row_vals).unwrap();
        let x = Tensor::from_vec(row_vals, &[1, r]).unwrap();
        let via_matmul = x.matmul(&w).unwrap();
        for (a, b) in via_vecmat.iter().zip(via_matmul.data().iter()) {
            prop_assert!((a - b).abs() < 1e-2);
        }
    }

    #[test]
    fn softmax_is_probability_vector(xs in proptest::collection::vec(-50.0f32..50.0, 1..64)) {
        let p = activation::softmax(&xs);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn kl_is_nonnegative(
        a in proptest::collection::vec(0.01f32..10.0, 4),
        b in proptest::collection::vec(0.01f32..10.0, 4),
    ) {
        let pa = activation::softmax(&a);
        let pb = activation::softmax(&b);
        prop_assert!(stats::kl_divergence(&pa, &pb) >= -1e-6);
    }

    #[test]
    fn rms_norm_unscaled_gives_unit_rms(mut xs in proptest::collection::vec(-100.0f32..100.0, 2..64)) {
        prop_assume!(xs.iter().any(|&v| v.abs() > 1e-3));
        norm::rms_norm_unscaled(&mut xs, 0.0);
        prop_assert!((norm::rms(&xs, 0.0) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn silu_bounded_relative_to_input(x in -100.0f32..100.0) {
        let y = activation::silu(x);
        prop_assert!(y.abs() <= x.abs() + 1e-6);
        prop_assert!(y >= -0.279);
    }

    #[test]
    fn outer_accumulate_matches_matmul(
        a in proptest::collection::vec(-5.0f32..5.0, 1..6),
        b in proptest::collection::vec(-5.0f32..5.0, 1..6),
    ) {
        let mut out = vec![0.0f32; a.len() * b.len()];
        ops::outer_accumulate(&mut out, &a, &b, 2.0);
        let am = Tensor::from_vec(a.clone(), &[a.len(), 1]).unwrap();
        let bm = Tensor::from_vec(b.clone(), &[1, b.len()]).unwrap();
        let reference = am.matmul(&bm).unwrap().scale(2.0);
        for (x, y) in out.iter().zip(reference.data().iter()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }
}

/// What `ConvState::step_into` fuses into one pass: shift the window,
/// push the sample, then dot taps against the window oldest→newest.
fn rotate_then_dot(win: &mut [f32], x: f32, taps: &[f32], bias: f32) -> f32 {
    win.rotate_left(1);
    *win.last_mut().unwrap() = x;
    taps.iter()
        .zip(win.iter())
        .fold(bias, |acc, (t, v)| acc + t * v)
}

#[test]
fn conv_step_into_matches_rotate_then_dot_and_full_conv_bitwise() {
    use lightmamba_tensor::conv::{causal_conv1d, ConvState};
    use rand::{Rng, SeedableRng};
    const STEPS: usize = 10;
    let mut rng = rand::rngs::StdRng::seed_from_u64(14);
    for kernel in 1..=5usize {
        for channels in [1usize, 3, 640] {
            let weight = Tensor::from_fn(&[channels, kernel], |_| rng.gen_range(-1.0f32..1.0));
            let bias: Vec<f32> = (0..channels).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
            let input = Tensor::from_fn(&[STEPS, channels], |_| rng.gen_range(-3.0f32..3.0));
            let full = causal_conv1d(&input, &weight, &bias).unwrap();

            let mut state = ConvState::new(channels, kernel);
            let mut reference = vec![0.0f32; channels * kernel];
            let mut out = vec![0.0f32; channels];
            for t in 0..STEPS {
                let x = input.row(t).unwrap();
                state.step_into(x, &weight, &bias, &mut out).unwrap();
                for c in 0..channels {
                    let want = rotate_then_dot(
                        &mut reference[c * kernel..(c + 1) * kernel],
                        x[c],
                        weight.row(c).unwrap(),
                        bias[c],
                    );
                    let at = format!("kernel {kernel} channels {channels} t {t} c {c}");
                    assert_eq!(out[c].to_bits(), want.to_bits(), "vs rotate-then-dot, {at}");
                    let row = full.row(t).unwrap()[c];
                    assert_eq!(out[c].to_bits(), row.to_bits(), "vs causal_conv1d, {at}");
                }
            }
        }
    }
}
