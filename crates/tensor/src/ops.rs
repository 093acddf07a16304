//! Linear-algebra and element-wise kernels.
//!
//! These are the arithmetic primitives behind the Mamba2 projections
//! ([`Tensor::matmul`]/[`Tensor::matvec`]), the SSM recurrence (element-wise
//! outer products), and the rotation fusions of the quantization algorithm
//! (dense matrix products with Hadamard factors).
//!
//! [`Tensor::matmul`] has register-blocked AVX2 and AVX-512 forms
//! ([`Tensor::matmul_on`]). Every form gives every output element the
//! scalar loop's operations in its order: a `+0.0` start, then for `p`
//! ascending, unless `a[i][p] == 0.0` (either sign), a multiply and a
//! separate add of `a[i][p] · b[p][j]`.

use std::ops::Range;

use crate::isa::{detect, Isa};
use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Dense matrix product `self @ rhs` for rank-2 tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when either operand is not a
    /// matrix and [`TensorError::MatmulDimMismatch`] when the inner
    /// dimensions disagree.
    ///
    /// # Example
    ///
    /// ```
    /// use lightmamba_tensor::Tensor;
    ///
    /// # fn main() -> Result<(), lightmamba_tensor::TensorError> {
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
    /// let c = a.matmul(&b)?;
    /// assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        self.matmul_on(detect(), rhs)
    }

    /// [`Tensor::matmul`] on `isa`'s form: on `Isa::Avx512` a block of
    /// 4 rows × 64 columns, on `Isa::Avx2` 2 rows × 32 columns, held in
    /// registers while `p` runs (module docs); the rows past the last
    /// whole block run the scalar form. Every form gives the same bits.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_on(&self, isa: Isa, rhs: &Tensor) -> Result<Tensor> {
        let (m, _) = self.as_matrix_dims()?;
        let (_, n) = rhs.as_matrix_dims()?;
        let mut out = Tensor::zeros(&[m, n]);
        self.matmul_rows_into(isa, rhs, 0..m, out.data_mut())?;
        Ok(out)
    }

    /// Rows `rows` of `self @ rhs` on `isa`'s form, written into `out`
    /// (`rows.len()` rows of `rhs`'s `n` columns, overwritten). A row of
    /// the product reads only its own row of `self`, and the register
    /// blocks start at `rows.start`, so each row comes out bit for bit
    /// as in [`Tensor::matmul_on`] however the rows are split: callers
    /// shard one product across threads by output rows.
    ///
    /// # Errors
    ///
    /// As [`Tensor::matmul`], plus [`TensorError::IndexOutOfBounds`] when
    /// `rows` ends past `self`'s rows or is reversed, and
    /// [`TensorError::LengthMismatch`] when `out` is not `rows.len() × n`.
    pub fn matmul_rows_into(
        &self,
        isa: Isa,
        rhs: &Tensor,
        rows: Range<usize>,
        out: &mut [f32],
    ) -> Result<()> {
        let (m, k) = self.as_matrix_dims()?;
        let (k2, n) = rhs.as_matrix_dims()?;
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left_cols: k,
                right_rows: k2,
            });
        }
        if rows.start > rows.end || rows.end > m {
            return Err(TensorError::IndexOutOfBounds {
                index: rows.end.max(rows.start),
                len: m,
            });
        }
        if out.len() != rows.len() * n {
            return Err(TensorError::LengthMismatch {
                expected: rows.len() * n,
                actual: out.len(),
            });
        }
        out.fill(0.0);
        if rows.is_empty() || k == 0 || n == 0 {
            return Ok(());
        }
        let (a, b) = (&self.data()[rows.start * k..rows.end * k], rhs.data());
        let blocked = match isa {
            // SAFETY (both arms): only `detect` and `Isa::supported`
            // build a vector `Isa`, and only where its features are
            // present.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 { .. } => unsafe { avx512::gemm(a, b, out, k, n) },
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { avx2::gemm(a, b, out, k, n) },
            Isa::Scalar => 0,
        };
        gemm_rows(&a[blocked * k..], b, &mut out[blocked * n..], k, n);
        Ok(())
    }

    /// Matrix–vector product `self @ x` where `self` is `(m, k)` and `x`
    /// has `k` elements; returns a length-`m` vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when `self` is not a matrix
    /// and [`TensorError::MatmulDimMismatch`] when lengths disagree.
    pub fn matvec(&self, x: &[f32]) -> Result<Vec<f32>> {
        let (m, _) = self.as_matrix_dims()?;
        let mut out = vec![0.0f32; m];
        self.matvec_into(x, &mut out)?;
        Ok(out)
    }

    /// [`Tensor::matvec`] writing into a caller-provided buffer of length
    /// `m` — the allocation-free variant decode hot paths use.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matvec`], plus
    /// [`TensorError::ShapeMismatch`] when `out` has the wrong length.
    pub fn matvec_into(&self, x: &[f32], out: &mut [f32]) -> Result<()> {
        let (m, k) = self.as_matrix_dims()?;
        if x.len() != k {
            return Err(TensorError::MatmulDimMismatch {
                left_cols: k,
                right_rows: x.len(),
            });
        }
        if out.len() != m {
            return Err(TensorError::ShapeMismatch {
                left: vec![m],
                right: vec![out.len()],
            });
        }
        let a = self.data();
        for (i, o) in out.iter_mut().enumerate() {
            let row = &a[i * k..(i + 1) * k];
            let mut acc = 0.0f32;
            for (&w, &v) in row.iter().zip(x.iter()) {
                acc += w * v;
            }
            *o = acc;
        }
        Ok(())
    }

    /// Vector–matrix product `x @ self` where `self` is `(k, n)` and `x`
    /// has `k` elements; returns a length-`n` vector.
    ///
    /// This is the natural orientation for activations-times-weights with
    /// row-major weight storage `(in_features, out_features)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when `self` is not a matrix
    /// and [`TensorError::MatmulDimMismatch`] when lengths disagree.
    pub fn vecmat(&self, x: &[f32]) -> Result<Vec<f32>> {
        let (_, n) = self.as_matrix_dims()?;
        let mut out = vec![0.0f32; n];
        self.vecmat_into(x, &mut out)?;
        Ok(out)
    }

    /// [`Tensor::vecmat`] writing into a caller-provided buffer of length
    /// `n` — the allocation-free variant decode hot paths use. The buffer
    /// is overwritten, not accumulated into.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::vecmat`], plus
    /// [`TensorError::ShapeMismatch`] when `out` has the wrong length.
    pub fn vecmat_into(&self, x: &[f32], out: &mut [f32]) -> Result<()> {
        let (k, n) = self.as_matrix_dims()?;
        if x.len() != k {
            return Err(TensorError::MatmulDimMismatch {
                left_cols: x.len(),
                right_rows: k,
            });
        }
        if out.len() != n {
            return Err(TensorError::ShapeMismatch {
                left: vec![n],
                right: vec![out.len()],
            });
        }
        let a = self.data();
        out.fill(0.0);
        for (p, &xv) in x.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            let row = &a[p * n..(p + 1) * n];
            for (o, &w) in out.iter_mut().zip(row.iter()) {
                *o += xv * w;
            }
        }
        Ok(())
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when `self` is not a matrix.
    pub fn transpose(&self) -> Result<Tensor> {
        /// Side of the square tiles the copy walks, so the lines it
        /// reads and writes stay in L1 while a tile is done.
        const TILE: usize = 16;
        let (m, n) = self.as_matrix_dims()?;
        let a = self.data();
        let mut out = Tensor::zeros(&[n, m]);
        let o = out.data_mut();
        for i0 in (0..m).step_by(TILE) {
            for j0 in (0..n).step_by(TILE) {
                for i in i0..(i0 + TILE).min(m) {
                    for j in j0..(j0 + TILE).min(n) {
                        o[j * m + i] = a[i * n + j];
                    }
                }
            }
        }
        Ok(out)
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, |a, b| a - b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }
}

/// The scalar form of [`Tensor::matmul`] over whole rows: `o += a @ b`
/// for `a` of `k` columns and `b`, `o` of `n ≥ 1`, one row after the
/// other, `p` ascending, skipping `a[i][p] == 0.0`.
fn gemm_rows(a: &[f32], b: &[f32], o: &mut [f32], k: usize, n: usize) {
    for (arow, orow) in a.chunks_exact(k).zip(o.chunks_exact_mut(n)) {
        for (&av, brow) in arow.iter().zip(b.chunks_exact(n)) {
            if av == 0.0 {
                continue;
            }
            for (ov, &bv) in orow.iter_mut().zip(brow.iter()) {
                *ov += av * bv;
            }
        }
    }
}

/// The 16-lane form of [`Tensor::matmul`].
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    use crate::isa::lanes16::{load, mask16, store};

    /// Rows of a register block.
    const ROWS: usize = 4;
    /// 16-lane vectors of a register block's row: 64 columns.
    const VECS: usize = 4;

    /// `o = a @ b` over the leading `ROWS`-row blocks of `a` (`k`
    /// columns; `b` and `o` have `n`), overwriting those rows of `o`;
    /// returns how many rows it did. Column blocks run outermost, so a block's
    /// `k × 64` panel of `b` stays cache-hot across the row blocks; the
    /// last one is masked.
    ///
    /// # Panics
    ///
    /// Unless the lengths fit `k, n ≥ 1`.
    #[target_feature(enable = "avx512f")]
    pub(super) fn gemm(a: &[f32], b: &[f32], o: &mut [f32], k: usize, n: usize) -> usize {
        let m = a.len() / k;
        assert!(k >= 1 && n >= 1 && a.len() == m * k && b.len() == k * n && o.len() == m * n);
        let rows = m - m % ROWS;
        for j in (0..n).step_by(16 * VECS) {
            let masks: [__mmask16; VECS] =
                std::array::from_fn(|v| mask16((n - j).saturating_sub(16 * v)));
            for i in (0..rows).step_by(ROWS) {
                let at = Block {
                    a: a[i * k..].as_ptr(),
                    b: b[j..].as_ptr(),
                    o: o[i * n + j..].as_mut_ptr(),
                    k,
                    n,
                };
                // SAFETY (both calls): the block's rows `i..i + ROWS`
                // and its columns `j..` that `masks` selects lie inside
                // the asserted lengths.
                if n - j >= 16 * VECS {
                    unsafe { block::<true>(&at, &masks) };
                } else {
                    unsafe { block::<false>(&at, &masks) };
                }
            }
        }
        rows
    }

    /// Where one register block starts.
    struct Block {
        a: *const f32,
        b: *const f32,
        o: *mut f32,
        k: usize,
        n: usize,
    }

    /// One `ROWS × 64` block: accumulators from `+0.0`, then per `p`
    /// ascending one load of `b`'s row and, for each block row whose
    /// `a[r][p] != 0.0`, a multiply and an add per vector; then the
    /// stores. With `FULL` every column is whole, else `masks` selects.
    ///
    /// # Safety
    ///
    /// AVX512F, and every selected element of the block must be valid.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn block<const FULL: bool>(at: &Block, masks: &[__mmask16; VECS]) {
        let mut acc = [[_mm512_setzero_ps(); VECS]; ROWS];
        for p in 0..at.k {
            let row = at.b.wrapping_add(p * at.n);
            // SAFETY: the caller's contract; a vector `masks` empties
            // reads nothing.
            let bv: [__m512; VECS] = std::array::from_fn(|v| unsafe {
                load::<FULL>(masks[v], row.wrapping_add(16 * v))
            });
            for (r, acc) in acc.iter_mut().enumerate() {
                // SAFETY: `r < ROWS` and `p < k`.
                let av = unsafe { *at.a.add(r * at.k + p) };
                if av != 0.0 {
                    let s = _mm512_set1_ps(av);
                    for (acc, &bv) in acc.iter_mut().zip(&bv) {
                        *acc = _mm512_add_ps(*acc, _mm512_mul_ps(s, bv));
                    }
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            let row = at.o.wrapping_add(r * at.n);
            for (v, &acc) in acc.iter().enumerate() {
                // SAFETY: the caller's contract.
                unsafe { store::<FULL>(row.wrapping_add(16 * v), masks[v], acc) };
            }
        }
    }
}

/// The 8-lane form of [`Tensor::matmul`]: [`avx512`]'s blocking at
/// 2 rows × 32 columns, the column tail on masked moves.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    const ROWS: usize = 2;
    /// 8-lane vectors of a register block's row: 32 columns.
    const VECS: usize = 4;

    /// [`super::avx512::gemm`] on 8 lanes.
    ///
    /// # Panics
    ///
    /// Unless the lengths fit `k, n ≥ 1`.
    #[target_feature(enable = "avx2")]
    pub(super) fn gemm(a: &[f32], b: &[f32], o: &mut [f32], k: usize, n: usize) -> usize {
        let m = a.len() / k;
        assert!(k >= 1 && n >= 1 && a.len() == m * k && b.len() == k * n && o.len() == m * n);
        let rows = m - m % ROWS;
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        for j in (0..n).step_by(8 * VECS) {
            let masks: [__m256i; VECS] = std::array::from_fn(|v| {
                let left = (n - j).saturating_sub(8 * v).min(8) as i32;
                _mm256_cmpgt_epi32(_mm256_set1_epi32(left), lanes)
            });
            for i in (0..rows).step_by(ROWS) {
                let (a, b, o) = (
                    a[i * k..].as_ptr(),
                    b[j..].as_ptr(),
                    o[i * n + j..].as_mut_ptr(),
                );
                // SAFETY: as in `avx512::gemm`.
                unsafe { block(a, b, o, k, n, &masks) };
            }
        }
        rows
    }

    /// One `ROWS × 32` block, as `avx512`'s, every column on masked moves
    /// (a lane `masks` clears is neither read nor written).
    ///
    /// # Safety
    ///
    /// AVX2, and every selected element of the block must be valid.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn block(
        a: *const f32,
        b: *const f32,
        o: *mut f32,
        k: usize,
        n: usize,
        masks: &[__m256i; VECS],
    ) {
        let mut acc = [[_mm256_setzero_ps(); VECS]; ROWS];
        for p in 0..k {
            let row = b.wrapping_add(p * n);
            // SAFETY: the caller's contract.
            let bv: [__m256; VECS] = std::array::from_fn(|v| unsafe {
                _mm256_maskload_ps(row.wrapping_add(8 * v), masks[v])
            });
            for (r, acc) in acc.iter_mut().enumerate() {
                // SAFETY: `r < ROWS` and `p < k`.
                let av = unsafe { *a.add(r * k + p) };
                if av != 0.0 {
                    let s = _mm256_set1_ps(av);
                    for (acc, &bv) in acc.iter_mut().zip(&bv) {
                        *acc = _mm256_add_ps(*acc, _mm256_mul_ps(s, bv));
                    }
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            let row = o.wrapping_add(r * n);
            for (v, &acc) in acc.iter().enumerate() {
                // SAFETY: the caller's contract.
                unsafe { _mm256_maskstore_ps(row.wrapping_add(8 * v), masks[v], acc) };
            }
        }
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

/// Outer product accumulate: `out[i][j] += scale * a[i] * b[j]`.
///
/// This is the `(Δ·B)⊗x` update at the heart of the SSM state recurrence,
/// written against raw slices so the quantized path can reuse it.
///
/// # Panics
///
/// Panics when `out.len() != a.len() * b.len()`.
pub fn outer_accumulate(out: &mut [f32], a: &[f32], b: &[f32], scale: f32) {
    assert_eq!(
        out.len(),
        a.len() * b.len(),
        "outer product output length mismatch"
    );
    let n = b.len();
    for (i, &av) in a.iter().enumerate() {
        let row = &mut out[i * n..(i + 1) * n];
        let s = av * scale;
        for (o, &bv) in row.iter_mut().zip(b.iter()) {
            *o += s * bv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let c = a.matmul(&Tensor::eye(2)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[4.0, 5.0, 10.0, 11.0]);
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 2]);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
    }

    #[test]
    fn every_matmul_form_matches_the_scalar_form() {
        use crate::activation::tests::same_bits;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Around every row block (4 and 2) and every column block and
        // strip (64, 32, 16, 8), k = 1, and empty dimensions. `a` holds
        // ±0.0 (skipped: `b` has ±inf and NaN, and 0 · inf is NaN), `b`
        // subnormals, and an all-`-0.0`-product output must stay +0.0.
        let specials = [
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(1),
            -f32::from_bits(0x7F_FFFF),
            f32::MIN_POSITIVE,
            -0.0,
        ];
        let mut rng = StdRng::seed_from_u64(12);
        for m in [0usize, 1, 2, 3, 4, 5, 7, 8, 9] {
            for n in [
                0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 129,
            ] {
                for k in [0usize, 1, 2, 5, 33] {
                    let mut a = Tensor::from_fn(&[m, k], |_| rng.gen_range(-2.0f32..2.0));
                    for (idx, v) in a.data_mut().iter_mut().enumerate() {
                        match idx % 5 {
                            1 => *v = 0.0,
                            3 => *v = -0.0,
                            _ => {}
                        }
                    }
                    let mut b = Tensor::from_fn(&[k, n], |_| rng.gen_range(-2.0f32..2.0));
                    for (v, &x) in b
                        .data_mut()
                        .iter_mut()
                        .step_by(3)
                        .zip(specials.iter().cycle())
                    {
                        *v = x;
                    }
                    if m > 1 && k > 0 {
                        // Row 1: every product is −0.0 or skipped.
                        for p in 0..k {
                            a.data_mut()[k + p] = if p % 2 == 0 { -1.0 } else { 0.0 };
                        }
                        if n > 0 {
                            for p in 0..k {
                                b.data_mut()[p * n] = 0.0;
                            }
                        }
                    }
                    let want = a.matmul_on(Isa::Scalar, &b).unwrap();
                    if m > 1 && k > 0 && n > 0 {
                        assert_eq!(want.data()[n].to_bits(), 0, "m {m} n {n} k {k}");
                    }
                    for isa in Isa::tiers() {
                        let got = a.matmul_on(isa, &b).unwrap();
                        assert_eq!(got.dims(), want.dims());
                        assert!(
                            same_bits(got.data(), want.data()),
                            "{isa:?} m {m} n {n} k {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_row_range_matches_the_rows_of_the_whole_product() {
        use crate::activation::tests::same_bits;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Ranges that start and end off the 4- and 2-row blocks, empty
        // ones, and `a` with zero entries (skipped, as in the whole
        // product).
        let mut rng = StdRng::seed_from_u64(44);
        for m in [1usize, 3, 5, 33] {
            for (k, n) in [(1usize, 1usize), (7, 17), (33, 65), (16, 130)] {
                let mut a = Tensor::from_fn(&[m, k], |_| rng.gen_range(-2.0f32..2.0));
                for v in a.data_mut().iter_mut().step_by(3) {
                    *v = 0.0;
                }
                let b = Tensor::from_fn(&[k, n], |_| rng.gen_range(-2.0f32..2.0));
                for isa in Isa::supported() {
                    let whole = a.matmul_on(isa, &b).unwrap();
                    for r0 in 0..=m {
                        for r1 in (r0..=m).filter(|&r1| r1 - r0 < 7 || r1 == m) {
                            let mut out = vec![f32::NAN; (r1 - r0) * n];
                            a.matmul_rows_into(isa, &b, r0..r1, &mut out).unwrap();
                            assert!(
                                same_bits(&out, &whole.data()[r0 * n..r1 * n]),
                                "{isa:?} m {m} k {k} n {n} rows {r0}..{r1}"
                            );
                        }
                    }
                }
            }
        }
        let a = Tensor::zeros(&[3, 2]);
        let b = Tensor::zeros(&[2, 4]);
        let mut out = vec![0.0; 8];
        assert!(a.matmul_rows_into(Isa::Scalar, &b, 2..4, &mut out).is_err());
        assert!(a.matmul_rows_into(Isa::Scalar, &b, 0..1, &mut out).is_err());
        assert!(a.matmul_rows_into(Isa::Scalar, &b, 1..3, &mut out).is_ok());
    }

    #[test]
    fn matvec_and_vecmat_agree_with_matmul() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let x = [1.0, -1.0, 2.0];
        let mv = a.matvec(&x).unwrap();
        assert_eq!(mv, vec![5.0, 11.0]);
        let y = [1.0, -1.0];
        let vm = a.vecmat(&y).unwrap();
        assert_eq!(vm, vec![-3.0, -3.0, -3.0]);
    }

    #[test]
    fn matvec_rejects_bad_length() {
        let a = Tensor::zeros(&[2, 3]);
        assert!(a.matvec(&[1.0, 2.0]).is_err());
        assert!(a.vecmat(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 7.0]);
        assert_eq!(a.sub(&b).unwrap().data(), &[-2.0, -3.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn dot_outer_axpy() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let mut out = vec![0.0; 4];
        outer_accumulate(&mut out, &[1.0, 2.0], &[3.0, 4.0], 1.0);
        assert_eq!(out, vec![3.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
