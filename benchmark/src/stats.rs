//! Sample summaries: medians, quartiles, and the percentile rule of the
//! metrics guide — a percentile is reported only when at least ten
//! samples lie beyond it, so a tail is never one lucky or unlucky draw.

use lightmamba_obs::percentile::{nearest_rank, sort_samples};

/// Samples that must lie beyond a reported percentile.
const BEYOND: f64 = 10.0;

/// Percentiles tried, lowest first, by [`Samples::highest_supported`].
const LADDER: [f64; 6] = [0.5, 0.75, 0.9, 0.95, 0.99, 0.999];

/// An ascending-sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Sorts `values` once; every accessor afterwards is a rank pick.
    pub fn new(mut values: Vec<f64>) -> Self {
        sort_samples(&mut values);
        Samples(values)
    }

    /// Sample count.
    pub fn n(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank `q`-quantile of the samples as they are, with no
    /// claim about a population behind them; `None` when empty.
    pub fn rank(&self, q: f64) -> Option<f64> {
        nearest_rank(&self.0, q)
    }

    /// Nearest-rank median; `None` when empty.
    pub fn median(&self) -> Option<f64> {
        self.rank(0.5)
    }

    /// First and third quartile (nearest rank); `None` when empty.
    pub fn quartiles(&self) -> Option<(f64, f64)> {
        Some((nearest_rank(&self.0, 0.25)?, nearest_rank(&self.0, 0.75)?))
    }

    /// The `q`-quantile as an estimate of a tail. Above the median it is
    /// refused (`None`) unless at least ten samples lie beyond it: p95
    /// needs 200 samples, p99 needs 1000.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if q > 0.5 && self.0.len() as f64 * (1.0 - q) + 1e-9 < BEYOND {
            return None;
        }
        self.rank(q)
    }

    /// The highest percentile of the ladder 50/75/90/95/99/99.9 this
    /// sample count supports, with its value.
    pub fn highest_supported(&self) -> Option<(f64, f64)> {
        LADDER
            .iter()
            .rev()
            .find_map(|&q| self.percentile(q).map(|v| (q, v)))
    }
}

/// Median of a small unsorted slice (round-level values); 0 when empty.
pub fn median_of(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median().unwrap_or(0.0)
}

/// Arithmetic mean; 0 when empty.
pub fn mean_of(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_two_hundred_samples() {
        let s = |n: usize| Samples::new((0..n).map(|i| i as f64).collect());
        assert!(s(199).percentile(0.95).is_none());
        assert_eq!(s(200).percentile(0.95), Some(189.0));
        assert!(s(99).percentile(0.9).is_none());
        assert!(s(3).percentile(0.5).is_some());
    }

    #[test]
    fn highest_supported_walks_the_ladder() {
        let s = |n: usize| Samples::new((0..n).map(|i| i as f64).collect());
        assert!(s(0).highest_supported().is_none());
        assert_eq!(s(39).highest_supported().map(|p| p.0), Some(0.5));
        assert_eq!(s(40).highest_supported().map(|p| p.0), Some(0.75));
        assert_eq!(s(96).highest_supported().map(|p| p.0), Some(0.75));
        assert_eq!(s(100).highest_supported().map(|p| p.0), Some(0.9));
        assert_eq!(s(200).highest_supported().map(|p| p.0), Some(0.95));
        assert_eq!(s(1000).highest_supported().map(|p| p.0), Some(0.99));
        assert_eq!(s(10_000).highest_supported().map(|p| p.0), Some(0.999));
    }

    #[test]
    fn median_and_quartiles_of_small_sets() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[]), 0.0);
        let s = Samples::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.quartiles(), Some((2.0, 4.0)));
    }
}
