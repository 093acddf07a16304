//! Token sampling strategies for decode.
//!
//! Greedy decoding is what the throughput experiments use; temperature and
//! top-k sampling make the examples behave like a real inference server
//! and exercise the logits interface.

use rand::Rng;

use lightmamba_tensor::activation::softmax;

/// A decoding strategy over next-token logits.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Sampler {
    /// Always pick the argmax.
    #[default]
    Greedy,
    /// Sample from `softmax(logits / temperature)`.
    ///
    /// Temperatures ≤ 0 are clamped to a small positive value.
    Temperature(f32),
    /// Keep the `k` highest logits, renormalize, then sample with the
    /// given temperature.
    TopK {
        /// Number of candidates kept.
        k: usize,
        /// Softmax temperature over the kept candidates.
        temperature: f32,
    },
}

impl Sampler {
    /// Draws a token id from `logits`.
    ///
    /// # Panics
    ///
    /// Panics when `logits` is empty.
    pub fn sample<R: Rng + ?Sized>(&self, logits: &[f32], rng: &mut R) -> u32 {
        assert!(!logits.is_empty(), "cannot sample from empty logits");
        match *self {
            Sampler::Greedy => argmax(logits) as u32,
            Sampler::Temperature(t) => {
                let t = t.max(1e-4);
                let scaled: Vec<f32> = logits.iter().map(|&l| l / t).collect();
                categorical(&softmax(&scaled), rng) as u32
            }
            Sampler::TopK { k, temperature } => {
                let k = k.clamp(1, logits.len());
                let mut idx: Vec<usize> = (0..logits.len()).collect();
                idx.sort_by(|&a, &b| {
                    logits[b]
                        .partial_cmp(&logits[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                idx.truncate(k);
                let t = temperature.max(1e-4);
                let scaled: Vec<f32> = idx.iter().map(|&i| logits[i] / t).collect();
                let choice = categorical(&softmax(&scaled), rng);
                idx[choice] as u32
            }
        }
    }
}

/// Lanes of [`argmax`]'s passes: short fixed-width loops a baseline
/// compiler vectorises.
const LANES: usize = 16;

/// Index of the greedy token: what [`argmax_fold`] returns, the last
/// index whose value equals the maximum (`-0.0 == +0.0`), or 0 for an
/// empty row. A row without NaN takes two vectorised passes — the
/// maximum, then the last chunk holding it — and any row with a NaN
/// keeps the fold, whose answer then depends on where the NaN sits.
pub(crate) fn argmax(xs: &[f32]) -> usize {
    let mut max = [f32::NEG_INFINITY; LANES];
    let mut nan = [false; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in chunks.by_ref() {
        for ((m, n), &x) in max.iter_mut().zip(&mut nan).zip(chunk) {
            *m = if x > *m { x } else { *m };
            *n |= x.is_nan();
        }
    }
    let tail = chunks.remainder();
    if nan.contains(&true) || tail.iter().any(|x| x.is_nan()) {
        return argmax_fold(xs);
    }
    let m = tail
        .iter()
        .chain(&max)
        .fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    let whole = xs.len() - tail.len();
    if let Some(i) = tail.iter().rposition(|&x| x == m) {
        return whole + i;
    }
    for (c, chunk) in xs[..whole].chunks_exact(LANES).enumerate().rev() {
        if chunk.iter().fold(false, |hit, &x| hit | (x == m)) {
            return c * LANES + chunk.iter().rposition(|&x| x == m).unwrap_or(0);
        }
    }
    0
}

/// The reference greedy pick: a `max_by(partial_cmp)` fold that keeps the
/// later of two equal or incomparable values.
fn argmax_fold(xs: &[f32]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

fn categorical<R: Rng + ?Sized>(probs: &[f32], rng: &mut R) -> usize {
    let u: f32 = rng.gen();
    let mut acc = 0.0f32;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return i;
        }
    }
    probs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn argmax_matches_the_fold_on_every_row() {
        use rand::Rng;
        let specials = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::NAN,
        ];
        let mut rng = StdRng::seed_from_u64(5);
        let mut rows: Vec<Vec<f32>> = vec![vec![]];
        for len in (1..=70).chain([2048]) {
            // Random rows, rows of few distinct values (ties), rows of
            // specials, and a NaN first, in the middle and last.
            rows.push((0..len).map(|_| rng.gen_range(-8.0f32..8.0)).collect());
            rows.push((0..len).map(|_| rng.gen_range(0..3) as f32).collect());
            rows.push(
                (0..len)
                    .map(|_| specials[rng.gen_range(0..specials.len() - 1)])
                    .collect(),
            );
            rows.push((0..len).map(|_| [0.0, -0.0][rng.gen_range(0..2)]).collect());
            for at in [0, len / 2, len - 1] {
                let mut row: Vec<f32> = (0..len).map(|_| rng.gen_range(-8.0f32..8.0)).collect();
                row[at] = f32::NAN;
                rows.push(row);
            }
        }
        for row in (0..200).map(|_| {
            let len = rng.gen_range(1..300);
            (0..len)
                .map(|_| specials[rng.gen_range(0..specials.len())])
                .collect::<Vec<f32>>()
        }) {
            rows.push(row);
        }
        for row in &rows {
            assert_eq!(argmax(row), argmax_fold(row), "{row:?}");
        }
    }

    #[test]
    fn greedy_picks_argmax() {
        let mut rng = StdRng::seed_from_u64(0);
        let logits = [0.1f32, 5.0, -1.0, 4.9];
        assert_eq!(Sampler::Greedy.sample(&logits, &mut rng), 1);
    }

    #[test]
    fn low_temperature_approaches_greedy() {
        let mut rng = StdRng::seed_from_u64(1);
        let logits = [0.0f32, 3.0, 1.0];
        let s = Sampler::Temperature(0.01);
        for _ in 0..50 {
            assert_eq!(s.sample(&logits, &mut rng), 1);
        }
    }

    #[test]
    fn high_temperature_spreads_mass() {
        let mut rng = StdRng::seed_from_u64(2);
        let logits = [0.0f32, 1.0, 0.5];
        let s = Sampler::Temperature(50.0);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[s.sample(&logits, &mut rng) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 500), "{counts:?}");
    }

    #[test]
    fn top_k_restricts_support() {
        let mut rng = StdRng::seed_from_u64(3);
        let logits = [10.0f32, 9.0, -50.0, -60.0];
        let s = Sampler::TopK {
            k: 2,
            temperature: 1.0,
        };
        for _ in 0..200 {
            let tok = s.sample(&logits, &mut rng);
            assert!(tok < 2, "sampled outside top-2: {tok}");
        }
    }

    #[test]
    fn top_k_of_one_is_greedy() {
        let mut rng = StdRng::seed_from_u64(4);
        let logits = [0.3f32, 0.1, 2.0];
        let s = Sampler::TopK {
            k: 1,
            temperature: 5.0,
        };
        assert_eq!(s.sample(&logits, &mut rng), 2);
    }

    #[test]
    fn oversized_k_is_clamped() {
        let mut rng = StdRng::seed_from_u64(5);
        let logits = [0.0f32, 1.0];
        let s = Sampler::TopK {
            k: 99,
            temperature: 1.0,
        };
        let tok = s.sample(&logits, &mut rng);
        assert!(tok < 2);
    }

    #[test]
    #[should_panic(expected = "empty logits")]
    fn empty_logits_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        Sampler::Greedy.sample(&[], &mut rng);
    }
}
