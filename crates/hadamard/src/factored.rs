//! Kronecker-factored Hadamard transform `H_n = H_{2^k} ⊗ H_m`.
//!
//! This mirrors the accelerator's two-HTU split: the power-of-two factor
//! runs through the butterfly FHT pipeline and the small non-power-of-two
//! factor through the matrix HTU. For Mamba2-2.7B (`d_inner = 5120`) the
//! paper's decomposition is `128 × 40`, which [`FactoredHadamard::new`]
//! reproduces by preferring the largest power-of-two factor with a
//! constructible remainder, then [`FactoredHadamard::with_factors`] lets
//! experiments pick a specific split.

use lightmamba_tensor::isa::{detect, Isa};

use crate::{fht, HadamardError, HadamardMatrix, Result};

/// Orthonormal Hadamard transform over length `pot · rem`, computed as a
/// power-of-two FHT along one axis and an explicit matrix along the other.
#[derive(Debug, Clone)]
pub struct FactoredHadamard {
    /// Power-of-two factor applied with the FHT.
    pot: usize,
    /// Non-power-of-two factor (order 1 means pure FHT).
    rem: Option<HadamardMatrix>,
}

impl FactoredHadamard {
    /// Builds a transform for dimension `n`, choosing `pot` as large as
    /// possible (smallest constructible remainder).
    ///
    /// # Errors
    ///
    /// Returns [`HadamardError::UnsupportedOrder`] when the odd part of `n`
    /// has no known construction.
    pub fn new(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(HadamardError::UnsupportedOrder(0));
        }
        if fht::is_power_of_two(n) {
            return Ok(FactoredHadamard { pot: n, rem: None });
        }
        let twos = n.trailing_zeros() as usize;
        let odd = n >> twos;
        // Smallest Hadamard order covering the odd part: 12 = 4·3, 20 = 4·5.
        let base = match odd {
            3 => 12usize,
            5 => 20,
            _ => return Err(HadamardError::UnsupportedOrder(n)),
        };
        // base consumes two factors of 2; the rest go to the FHT.
        if twos < 2 {
            return Err(HadamardError::UnsupportedOrder(n));
        }
        let pot = 1usize << (twos - 2);
        Ok(FactoredHadamard {
            pot,
            rem: Some(HadamardMatrix::new(base)?),
        })
    }

    /// Builds a transform with an explicit `pot × rem` split, e.g. the
    /// paper's `128 × 40` for 5120.
    ///
    /// # Errors
    ///
    /// Returns [`HadamardError::UnsupportedOrder`] when `pot` is not a
    /// power of two, or `rem` has no construction or exceeds
    /// [`HadamardMatrix::MAX_APPLY_ORDER`].
    pub fn with_factors(pot: usize, rem: usize) -> Result<Self> {
        if !fht::is_power_of_two(pot) {
            return Err(HadamardError::UnsupportedOrder(pot));
        }
        if rem > HadamardMatrix::MAX_APPLY_ORDER {
            return Err(HadamardError::UnsupportedOrder(rem));
        }
        let rem = if rem <= 1 {
            None
        } else {
            Some(HadamardMatrix::new(rem)?)
        };
        Ok(FactoredHadamard { pot, rem })
    }

    /// Total transform dimension `pot · rem`.
    pub fn len(&self) -> usize {
        self.pot * self.rem.as_ref().map_or(1, HadamardMatrix::order)
    }

    /// Whether the transform is trivial (dimension zero — never produced by
    /// the constructors, present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The power-of-two (FHT) factor.
    pub fn pot_order(&self) -> usize {
        self.pot
    }

    /// The non-power-of-two (matrix HTU) factor, 1 when absent.
    pub fn rem_order(&self) -> usize {
        self.rem.as_ref().map_or(1, HadamardMatrix::order)
    }

    /// Applies the orthonormal transform in place, allocating nothing, on
    /// the host's form: [`FactoredHadamard::apply_on`] of [`detect`].
    ///
    /// # Panics
    ///
    /// Panics when `x.len()` differs from [`FactoredHadamard::len`].
    #[inline(always)]
    pub fn apply(&self, x: &mut [f32]) {
        self.apply_on(detect(), x);
    }

    /// [`FactoredHadamard::apply`] with the FHT stages on `isa`'s form
    /// (every form gives the same bits).
    ///
    /// # Panics
    ///
    /// Panics when `x.len()` differs from [`FactoredHadamard::len`].
    #[inline(always)]
    pub fn apply_on(&self, isa: Isa, x: &mut [f32]) {
        let n = self.len();
        assert_eq!(x.len(), n, "factored hadamard length mismatch");
        match &self.rem {
            None => fht::fwht_normalized_on(isa, x),
            Some(h) => {
                // x viewed as (pot, m) row-major. H = H_pot ⊗ H_m acts as:
                // rows through H_m, columns through FHT_pot — whose
                // butterflies pair whole rows, so the columns are
                // transformed where they lie.
                let m = h.order();
                h.apply_rows(x, true);
                let scale = 1.0 / (self.pot as f32).sqrt();
                fht::stages_on(isa, x, m, 1, Some(scale));
            }
        }
    }

    /// Dense orthonormal matrix form (for fusing into weights).
    pub fn to_tensor(&self) -> lightmamba_tensor::Tensor {
        let n = self.len();
        let mut cols = Vec::with_capacity(n);
        for j in 0..n {
            let mut e = vec![0.0f32; n];
            e[j] = 1.0;
            self.apply(&mut e);
            cols.push(e);
        }
        // apply() computes H·e_j, i.e. the j-th column of H.
        lightmamba_tensor::Tensor::from_fn(&[n, n], |idx| cols[idx % n][idx / n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_power_of_two() {
        let h = FactoredHadamard::new(128).unwrap();
        assert_eq!(h.pot_order(), 128);
        assert_eq!(h.rem_order(), 1);
        assert_eq!(h.len(), 128);
    }

    #[test]
    fn mamba_2p7b_d_inner_default_split() {
        let h = FactoredHadamard::new(5120).unwrap();
        assert_eq!(h.len(), 5120);
        assert_eq!(h.rem_order(), 20);
        assert_eq!(h.pot_order(), 256);
    }

    #[test]
    fn paper_128x40_split() {
        let h = FactoredHadamard::with_factors(128, 40).unwrap();
        assert_eq!(h.len(), 5120);
        assert_eq!(h.pot_order(), 128);
        assert_eq!(h.rem_order(), 40);
    }

    #[test]
    fn transpose_inverts_factored_transform() {
        // Paley factors are skew-type (H ≠ Hᵀ), so the transform is not an
        // involution; orthogonality means the transpose is the inverse.
        let h = FactoredHadamard::with_factors(8, 12).unwrap();
        let orig: Vec<f32> = (0..96).map(|i| ((i * 37 % 17) as f32) - 8.0).collect();
        let mut x = orig.clone();
        h.apply(&mut x);
        let back = h.to_tensor().transpose().unwrap().matvec(&x).unwrap();
        for (a, b) in back.iter().zip(orig.iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn pure_pot_transform_is_involution() {
        let h = FactoredHadamard::new(64).unwrap();
        let orig: Vec<f32> = (0..64).map(|i| ((i * 37 % 17) as f32) - 8.0).collect();
        let mut x = orig.clone();
        h.apply(&mut x);
        h.apply(&mut x);
        for (a, b) in x.iter().zip(orig.iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn energy_preserved() {
        let h = FactoredHadamard::new(768).unwrap(); // 130M d_model
        let mut x: Vec<f32> = (0..768).map(|i| (i as f32 * 0.01).sin()).collect();
        let before: f32 = x.iter().map(|v| v * v).sum();
        h.apply(&mut x);
        let after: f32 = x.iter().map(|v| v * v).sum();
        assert!((before - after).abs() / before < 1e-3);
    }

    #[test]
    fn to_tensor_is_orthonormal() {
        let h = FactoredHadamard::with_factors(4, 12).unwrap();
        let m = h.to_tensor();
        let prod = m.matmul(&m.transpose().unwrap()).unwrap();
        let eye = lightmamba_tensor::Tensor::eye(48);
        for (a, b) in prod.data().iter().zip(eye.data().iter()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn to_tensor_matches_apply() {
        let h = FactoredHadamard::with_factors(2, 20).unwrap();
        let x: Vec<f32> = (0..40).map(|i| (i as f32 * 0.31).cos()).collect();
        let mut via_apply = x.clone();
        h.apply(&mut via_apply);
        let via_matrix = h.to_tensor().matvec(&x).unwrap();
        for (a, b) in via_apply.iter().zip(via_matrix.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn unsupported_dimensions() {
        assert!(FactoredHadamard::new(0).is_err());
        assert!(FactoredHadamard::new(7).is_err());
        assert!(FactoredHadamard::new(14).is_err()); // 2·7
        assert!(FactoredHadamard::new(6).is_err()); // odd part 3 but only one factor of 2
        assert!(FactoredHadamard::with_factors(6, 1).is_err());
        assert!(FactoredHadamard::with_factors(4, 7).is_err());
    }

    #[test]
    fn all_mamba2_dims_supported() {
        for n in [768usize, 1024, 1536, 2048, 2560, 3072, 4096, 5120] {
            let h = FactoredHadamard::new(n).unwrap();
            assert_eq!(h.len(), n);
        }
    }

    #[test]
    fn all_zero_input_maps_to_all_zero() {
        for (pot, rem) in [(1, 1), (8, 1), (512, 1), (64, 12), (256, 20), (128, 40)] {
            let h = FactoredHadamard::with_factors(pot, rem).unwrap();
            let mut x = vec![0.0f32; h.len()];
            h.apply(&mut x);
            assert!(x.iter().all(|v| *v == 0.0), "{pot} × {rem}");
        }
    }

    #[test]
    fn orders_below_one_register_match_the_dense_matrix() {
        for n in [1usize, 2, 4, 8, 12, 20, 24] {
            let h = FactoredHadamard::new(n).unwrap();
            let x = crate::fht::tests::values(n, n as u32);
            let mut got = x.clone();
            h.apply(&mut got);
            let want = h.to_tensor().matvec(&x).unwrap();
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()), "n {n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn non_power_of_two_orders_equal_rows_then_column_fwhts() {
        // 768 = 64 × 12 and 5120 = 128 × 40: the column stages give each
        // column exactly the bits `fwht_normalized` gives it gathered —
        // the same butterflies on the same operands, scaled on the last.
        for (pot, rem) in [(64, 12), (128, 40)] {
            let h = FactoredHadamard::with_factors(pot, rem).unwrap();
            let x = crate::fht::tests::values(pot * rem, rem as u32);
            let mut got = x.clone();
            h.apply(&mut got);
            let mut want = x;
            HadamardMatrix::new(rem)
                .unwrap()
                .apply_rows(&mut want, true);
            let mut col = vec![0.0f32; pot];
            for j in 0..rem {
                col.iter_mut()
                    .enumerate()
                    .for_each(|(i, c)| *c = want[i * rem + j]);
                fht::fwht_normalized(&mut col);
                col.iter()
                    .enumerate()
                    .for_each(|(i, c)| want[i * rem + j] = *c);
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{pot} × {rem}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn apply_panics_on_wrong_length() {
        let h = FactoredHadamard::new(8).unwrap();
        let mut x = vec![0.0f32; 7];
        h.apply(&mut x);
    }
}
