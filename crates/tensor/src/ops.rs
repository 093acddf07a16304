//! Linear-algebra and element-wise kernels.
//!
//! These are the arithmetic primitives behind the Mamba2 projections
//! ([`Tensor::matmul`]/[`Tensor::matvec`]), the SSM recurrence (element-wise
//! outer products), and the rotation fusions of the quantization algorithm
//! (dense matrix products with Hadamard factors).

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
        let (m, k) = self.as_matrix_dims()?;
        let (k2, n) = rhs.as_matrix_dims()?;
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left_cols: k,
                right_rows: k2,
            });
        }
        let mut out = Tensor::zeros(&[m, n]);
        let a = self.data();
        let b = rhs.data();
        let o = out.data_mut();
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut o[i * n..(i + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (ov, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *ov += av * bv;
                }
            }
        }
        Ok(out)
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
        let (m, n) = self.as_matrix_dims()?;
        let a = self.data();
        let mut out = Tensor::zeros(&[n, m]);
        let o = out.data_mut();
        for i in 0..m {
            for j in 0..n {
                o[j * m + i] = a[i * n + j];
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
