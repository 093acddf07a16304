//! Property-based tests for Hadamard transforms.

use lightmamba_hadamard::{
    fwht, fwht_normalized, FactoredHadamard, HadamardMatrix, RandomizedHadamard,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn fwht_preserves_energy(k in 0u32..8, vals in proptest::collection::vec(-50.0f32..50.0, 256)) {
        let n = 1usize << k;
        let mut x: Vec<f32> = vals[..n].to_vec();
        let before: f32 = x.iter().map(|v| v * v).sum();
        fwht_normalized(&mut x);
        let after: f32 = x.iter().map(|v| v * v).sum();
        prop_assert!((before - after).abs() <= 1e-3 * before.max(1.0));
    }

    #[test]
    fn fwht_is_linear(k in 1u32..6, seed in 0u64..100) {
        use rand::Rng;
        let n = 1usize << k;
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let b: Vec<f32> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let mut sum: Vec<f32> = a.iter().zip(b.iter()).map(|(&x, &y)| x + y).collect();
        fwht_normalized(&mut sum);
        let mut ha = a;
        fwht_normalized(&mut ha);
        let mut hb = b;
        fwht_normalized(&mut hb);
        for ((s, x), y) in sum.iter().zip(ha.iter()).zip(hb.iter()) {
            prop_assert!((s - (x + y)).abs() < 1e-3);
        }
    }

    #[test]
    fn paley_orders_valid(q in prop::sample::select(vec![3usize, 7, 11, 19, 23, 31])) {
        let h = HadamardMatrix::paley(q).unwrap();
        prop_assert!(h.is_valid());
    }

    #[test]
    fn randomized_rotation_roundtrip(seed in 0u64..50, n in prop::sample::select(vec![16usize, 24, 40, 48, 64])) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let q = RandomizedHadamard::new(n, &mut rng).unwrap();
        let orig: Vec<f32> = (0..n).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
        let mut x = orig.clone();
        q.apply(&mut x);
        q.apply_inverse(&mut x);
        for (a, b) in x.iter().zip(orig.iter()) {
            prop_assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn factored_energy_preserved(n in prop::sample::select(vec![12usize, 20, 40, 48, 80, 96, 160])) {
        let h = FactoredHadamard::new(n).unwrap();
        let x: Vec<f32> = (0..n).map(|i| ((i * 31 % 13) as f32) - 6.0).collect();
        let before: f32 = x.iter().map(|v| v * v).sum();
        let mut y = x;
        h.apply(&mut y);
        let after: f32 = y.iter().map(|v| v * v).sum();
        prop_assert!((before - after).abs() <= 1e-3 * before.max(1.0));
    }

    #[test]
    fn rotation_reduces_peak_of_sparse_outlier(seed in 0u64..30) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 128usize;
        let q = RandomizedHadamard::new(n, &mut rng).unwrap();
        let mut x = vec![0.0f32; n];
        let pos = rng.gen_range(0..n);
        x[pos] = 100.0;
        q.apply(&mut x);
        let max = x.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        // A lone outlier of magnitude M becomes M/sqrt(n) everywhere.
        prop_assert!((max - 100.0 / (n as f32).sqrt()).abs() < 1e-2);
    }
}

/// The butterfly network one stage at a time over the whole vector, then
/// the `1/√n` scale as a pass of its own: the schedule the transforms
/// were first written in, and the one every rotated model was measured
/// with.
fn fwht_stagewise(x: &mut [f32], normalized: bool) {
    let n = x.len();
    let mut h = 1;
    while h < n {
        for block in x.chunks_mut(2 * h) {
            let (lo, hi) = block.split_at_mut(h);
            for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                let (s, d) = (*a + *b, *a - *b);
                *a = s;
                *b = d;
            }
        }
        h *= 2;
    }
    if normalized {
        let scale = 1.0 / (n as f32).sqrt();
        x.iter_mut().for_each(|v| *v *= scale);
    }
}

/// The factored transform as first written: every row through a freshly
/// allocated matrix-vector product, then every column gathered, put
/// through [`fwht_stagewise`] and scattered back.
fn factored_gathering(pot: usize, h: &HadamardMatrix, x: &mut [f32]) {
    let m = h.order();
    let scale = 1.0 / (m as f32).sqrt();
    for row in x.chunks_mut(m) {
        let out: Vec<f32> = h
            .signs()
            .chunks(m)
            .map(|signs| {
                let mut acc = 0.0f32;
                for (&s, &v) in signs.iter().zip(row.iter()) {
                    if s == 1 {
                        acc += v;
                    } else {
                        acc -= v;
                    }
                }
                acc * scale
            })
            .collect();
        row.copy_from_slice(&out);
    }
    let mut col = vec![0.0f32; pot];
    for j in 0..m {
        for (i, c) in col.iter_mut().enumerate() {
            *c = x[i * m + j];
        }
        fwht_stagewise(&mut col, true);
        for (i, &c) in col.iter().enumerate() {
            x[i * m + j] = c;
        }
    }
}

/// Bit pattern with every NaN folded onto one.
fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter()
        .map(|v| {
            if v.is_nan() {
                f32::NAN.to_bits()
            } else {
                v.to_bits()
            }
        })
        .collect()
}

/// Values with signed zeros, huge magnitudes (sums overflow to ±∞ and
/// `∞ − ∞` makes NaN) and, with `specials`, infinities and NaN.
fn hadamard_input(n: usize, seed: u64, specials: bool) -> Vec<f32> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = [0.0f32, -0.0, 3.0e38, -3.0e38, f32::INFINITY, f32::NAN];
    let pool = if specials { &pool[..] } else { &pool[..4] };
    (0..n)
        .map(|_| {
            if rng.gen_range(0..16) == 0 {
                pool[rng.gen_range(0..pool.len())]
            } else {
                rng.gen_range(-10.0f32..10.0)
            }
        })
        .collect()
}

#[test]
fn fwht_matches_the_stagewise_schedule_bitwise() {
    for k in 0..=12u32 {
        let n = 1usize << k;
        for (seed, specials) in [(1u64, false), (2, true)] {
            let x = hadamard_input(n, seed + u64::from(k) * 10, specials);
            for normalized in [false, true] {
                let mut got = x.clone();
                if normalized {
                    fwht_normalized(&mut got);
                } else {
                    fwht(&mut got);
                }
                let mut want = x.clone();
                fwht_stagewise(&mut want, normalized);
                assert_eq!(bits(&got), bits(&want), "n {n} normalized {normalized}");
            }
        }
    }
}

#[test]
fn factored_transform_matches_the_gathering_one_bitwise() {
    for (pot, rem) in [(8usize, 12usize), (4, 20), (128, 40), (1, 12)] {
        let h = FactoredHadamard::with_factors(pot, rem).unwrap();
        let matrix = HadamardMatrix::new(rem).unwrap();
        for (seed, specials) in [(3u64, false), (4, true)] {
            let x = hadamard_input(pot * rem, seed, specials);
            let mut got = x.clone();
            h.apply(&mut got);
            let mut want = x;
            factored_gathering(pot, &matrix, &mut want);
            assert_eq!(bits(&got), bits(&want), "{pot} x {rem}");
        }
    }
}
