//! Explicit ±1 Hadamard matrices: Sylvester, Paley-I, and Kronecker
//! composition.
//!
//! The 40-point HTU of the paper "directly implement[s] it with a simple
//! MMU and fix[es] one input to the Hadamard matrix with only 1 and -1";
//! [`HadamardMatrix`] is that weight matrix. Order 40 is built as
//! `H_2 ⊗ H_20` with `H_20` from the Paley-I construction over GF(19).

use lightmamba_tensor::Tensor;

use crate::{fht, HadamardError, Result};

/// A Hadamard matrix with entries ±1 stored as `i8`.
///
/// # Example
///
/// ```
/// use lightmamba_hadamard::HadamardMatrix;
///
/// # fn main() -> Result<(), lightmamba_hadamard::HadamardError> {
/// let h = HadamardMatrix::new(40)?;
/// assert!(h.is_valid());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HadamardMatrix {
    order: usize,
    /// Row-major ±1 entries.
    signs: Vec<i8>,
}

impl HadamardMatrix {
    /// Constructs a Hadamard matrix of the given order.
    ///
    /// Supported orders factor as `2^k × m` with `m ∈ {1, 12, 20}` (the
    /// odd parts 1, 3 and 5 cover every Mamba2 model dimension), or are a
    /// direct Paley order `q + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`HadamardError::UnsupportedOrder`] when no construction is
    /// known for `order`.
    pub fn new(order: usize) -> Result<Self> {
        if order == 0 {
            return Err(HadamardError::UnsupportedOrder(0));
        }
        if fht::is_power_of_two(order) {
            return Ok(Self::sylvester(order.trailing_zeros()));
        }
        // Strip the power-of-two part; the odd remainder decides the base.
        let twos = order.trailing_zeros();
        let odd = order >> twos;
        let base = match odd {
            3 => 12usize, // Paley q = 11
            5 => 20,      // Paley q = 19
            11 => 12,
            19 => 20,
            _ => return Err(HadamardError::UnsupportedOrder(order)),
        };
        if !order.is_multiple_of(base) || !fht::is_power_of_two(order / base) {
            return Err(HadamardError::UnsupportedOrder(order));
        }
        let paley = Self::paley(base - 1)?;
        let pot = Self::sylvester((order / base).trailing_zeros());
        Ok(pot.kronecker(&paley))
    }

    /// The Sylvester Hadamard matrix of order `2^k`.
    pub fn sylvester(k: u32) -> Self {
        let n = 1usize << k;
        let mut signs = vec![1i8; n * n];
        for (idx, s) in signs.iter_mut().enumerate() {
            let (i, j) = (idx / n, idx % n);
            // Entry is (-1)^(popcount(i & j)).
            if (i & j).count_ones() % 2 == 1 {
                *s = -1;
            }
        }
        HadamardMatrix { order: n, signs }
    }

    /// Paley-I construction: a Hadamard matrix of order `q + 1` for a prime
    /// `q ≡ 3 (mod 4)` (e.g. `q = 19` gives the order-20 factor of the
    /// 40-point HTU).
    ///
    /// # Errors
    ///
    /// Returns [`HadamardError::InvalidPaleyPrime`] for invalid `q`.
    pub fn paley(q: usize) -> Result<Self> {
        if !is_prime(q) || q % 4 != 3 {
            return Err(HadamardError::InvalidPaleyPrime(q));
        }
        let n = q + 1;
        // H = I + C where C = [[0, 1ᵀ], [-1, Q]] and Q is the Jacobsthal
        // matrix Q[i][j] = χ(i - j) over GF(q).
        let chi = legendre_table(q);
        let mut signs = vec![0i8; n * n];
        signs[0] = 1; // I + C at (0,0): 1 + 0
        for sj in signs.iter_mut().take(n).skip(1) {
            *sj = 1; // first row of C
        }
        for i in 1..n {
            signs[i * n] = -1; // first column of C
            for j in 1..n {
                let diff = (i + q - j) % q;
                let c = chi[diff];
                signs[i * n + j] = if i == j { 1 + c } else { c };
            }
        }
        // On the diagonal χ(0) = 0, so 1 + 0 = 1; off-diagonal entries are
        // ±1 because χ(non-zero) = ±1. Everything is therefore ±1.
        debug_assert!(signs.iter().all(|&s| s == 1 || s == -1));
        Ok(HadamardMatrix { order: n, signs })
    }

    /// Kronecker product `self ⊗ other`, a Hadamard matrix of order
    /// `self.order() * other.order()`.
    pub fn kronecker(&self, other: &HadamardMatrix) -> Self {
        let (a, b) = (self.order, other.order);
        let n = a * b;
        let mut signs = vec![0i8; n * n];
        for i in 0..n {
            for j in 0..n {
                let s = self.signs[(i / b) * a + (j / b)] * other.signs[(i % b) * b + (j % b)];
                signs[i * n + j] = s;
            }
        }
        HadamardMatrix { order: n, signs }
    }

    /// Order (side length) of the matrix.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Raw ±1 entries in row-major order.
    pub fn signs(&self) -> &[i8] {
        &self.signs
    }

    /// Verifies the defining property `H·Hᵀ = n·I`.
    pub fn is_valid(&self) -> bool {
        let n = self.order;
        for i in 0..n {
            for j in i..n {
                let dot: i64 = (0..n)
                    .map(|k| self.signs[i * n + k] as i64 * self.signs[j * n + k] as i64)
                    .sum();
                let expected = if i == j { n as i64 } else { 0 };
                if dot != expected {
                    return false;
                }
            }
        }
        true
    }

    /// Dense tensor form; `normalized` divides by `√n` to make the matrix
    /// orthonormal (the form fused into weights by the quantizer).
    pub fn to_tensor(&self, normalized: bool) -> Tensor {
        let n = self.order;
        let scale = if normalized {
            1.0 / (n as f32).sqrt()
        } else {
            1.0
        };
        Tensor::from_fn(&[n, n], |idx| self.signs[idx] as f32 * scale)
    }

    /// Largest order [`HadamardMatrix::apply`] transforms: its output
    /// row lives in a stack buffer of this many floats, so the transform
    /// allocates nothing. Larger matrices still build, for
    /// [`HadamardMatrix::to_tensor`].
    pub const MAX_APPLY_ORDER: usize = 256;

    /// Applies the (optionally orthonormal) transform to a vector in place:
    /// `x ← H·x`, the operation the 40-point HTU performs per block.
    ///
    /// # Errors
    ///
    /// Returns [`HadamardError::LengthMismatch`] when `x.len()` differs
    /// from the order, and [`HadamardError::UnsupportedOrder`] above
    /// [`HadamardMatrix::MAX_APPLY_ORDER`].
    #[inline(always)]
    pub fn apply(&self, x: &mut [f32], normalized: bool) -> Result<()> {
        let n = self.order;
        if x.len() != n {
            return Err(HadamardError::LengthMismatch {
                order: n,
                len: x.len(),
            });
        }
        if n > Self::MAX_APPLY_ORDER {
            return Err(HadamardError::UnsupportedOrder(n));
        }
        self.apply_rows(x, normalized);
        Ok(())
    }

    /// `x ← H·x` for every consecutive row of [`HadamardMatrix::order`]
    /// elements of `x`: each output is its signed row sum in ascending
    /// column order, times the scale, gathered in one stack buffer and
    /// copied back.
    ///
    /// # Panics
    ///
    /// Panics above [`HadamardMatrix::MAX_APPLY_ORDER`]; callers check.
    #[inline(always)]
    pub(crate) fn apply_rows(&self, x: &mut [f32], normalized: bool) {
        let n = self.order;
        let scale = if normalized {
            1.0 / (n as f32).sqrt()
        } else {
            1.0
        };
        let mut buf = [0.0f32; Self::MAX_APPLY_ORDER];
        let out = &mut buf[..n];
        for x in x.chunks_exact_mut(n) {
            for (o, row) in out.iter_mut().zip(self.signs.chunks_exact(n)) {
                let mut acc = 0.0f32;
                for (&s, &v) in row.iter().zip(x.iter()) {
                    if s == 1 {
                        acc += v;
                    } else {
                        acc -= v;
                    }
                }
                *o = acc * scale;
            }
            x.copy_from_slice(out);
        }
    }
}

fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

/// Table of Legendre symbols `χ(a)` for `a ∈ [0, q)`: 0 at 0, +1 for
/// quadratic residues, −1 otherwise.
fn legendre_table(q: usize) -> Vec<i8> {
    let mut chi = vec![-1i8; q];
    chi[0] = 0;
    for a in 1..q {
        chi[(a * a) % q] = 1;
    }
    chi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sylvester_orders_are_valid() {
        for k in 0..6 {
            let h = HadamardMatrix::sylvester(k);
            assert_eq!(h.order(), 1 << k);
            assert!(h.is_valid(), "sylvester 2^{k} invalid");
        }
    }

    #[test]
    fn paley_constructions_are_valid() {
        for q in [3usize, 7, 11, 19, 23] {
            let h = HadamardMatrix::paley(q).unwrap();
            assert_eq!(h.order(), q + 1);
            assert!(h.is_valid(), "paley q={q} invalid");
        }
    }

    #[test]
    fn paley_rejects_bad_primes() {
        assert!(matches!(
            HadamardMatrix::paley(4),
            Err(HadamardError::InvalidPaleyPrime(4))
        ));
        // 13 is prime but 13 % 4 == 1.
        assert!(HadamardMatrix::paley(13).is_err());
        assert!(HadamardMatrix::paley(9).is_err()); // not prime
    }

    #[test]
    fn kronecker_preserves_validity() {
        let h2 = HadamardMatrix::sylvester(1);
        let h12 = HadamardMatrix::paley(11).unwrap();
        let h24 = h2.kronecker(&h12);
        assert_eq!(h24.order(), 24);
        assert!(h24.is_valid());
    }

    #[test]
    fn order_40_htu_matrix() {
        let h = HadamardMatrix::new(40).unwrap();
        assert_eq!(h.order(), 40);
        assert!(h.is_valid());
        assert!(h.signs().iter().all(|&s| s == 1 || s == -1));
    }

    #[test]
    fn mamba2_model_dimensions_are_constructible() {
        // d_model for 130M..2.7B and d_inner = 2×d_model.
        for n in [768usize, 1024, 1536, 2048, 2560, 3072, 4096, 5120] {
            assert!(HadamardMatrix::new(n).is_ok(), "order {n} should build");
        }
    }

    #[test]
    fn apply_stops_at_its_stack_buffer() {
        let n = 2 * HadamardMatrix::MAX_APPLY_ORDER;
        let h = HadamardMatrix::new(n).unwrap();
        let mut x = vec![1.0f32; n];
        assert_eq!(
            h.apply(&mut x, true),
            Err(HadamardError::UnsupportedOrder(n))
        );
        assert!(crate::FactoredHadamard::with_factors(2, n).is_err());
    }

    #[test]
    fn unsupported_orders_error() {
        for n in [0usize, 6, 7, 14, 36] {
            assert!(HadamardMatrix::new(n).is_err(), "order {n} should fail");
        }
    }

    #[test]
    fn apply_matches_to_tensor_matvec() {
        let h = HadamardMatrix::new(12).unwrap();
        let x: Vec<f32> = (0..12).map(|i| (i as f32 * 0.7).sin()).collect();
        let mut via_apply = x.clone();
        h.apply(&mut via_apply, true).unwrap();
        let m = h.to_tensor(true);
        let via_matvec = m.matvec(&x).unwrap();
        for (a, b) in via_apply.iter().zip(via_matvec.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn apply_rejects_wrong_length() {
        let h = HadamardMatrix::sylvester(2);
        let mut x = vec![0.0f32; 3];
        assert!(matches!(
            h.apply(&mut x, true),
            Err(HadamardError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn normalized_apply_preserves_energy() {
        let h = HadamardMatrix::new(20).unwrap();
        let mut x: Vec<f32> = (0..20).map(|i| (i as f32 - 10.0) * 0.3).collect();
        let before: f32 = x.iter().map(|v| v * v).sum();
        h.apply(&mut x, true).unwrap();
        let after: f32 = x.iter().map(|v| v * v).sum();
        assert!((before - after).abs() < 1e-3);
    }

    #[test]
    fn sylvester_matches_fwht() {
        let h = HadamardMatrix::sylvester(3);
        let x: Vec<f32> = (0..8).map(|i| i as f32 - 3.5).collect();
        let mut via_matrix = x.clone();
        h.apply(&mut via_matrix, false).unwrap();
        let mut via_fht = x;
        crate::fwht(&mut via_fht);
        for (a, b) in via_matrix.iter().zip(via_fht.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn prime_and_legendre_helpers() {
        assert!(is_prime(19));
        assert!(!is_prime(1));
        assert!(!is_prime(21));
        let chi = legendre_table(7);
        assert_eq!(chi[0], 0);
        // QRs mod 7: 1, 2, 4.
        assert_eq!(chi[1], 1);
        assert_eq!(chi[2], 1);
        assert_eq!(chi[4], 1);
        assert_eq!(chi[3], -1);
        assert_eq!(chi[5], -1);
        assert_eq!(chi[6], -1);
    }
}
