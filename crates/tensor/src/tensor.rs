use crate::{Result, Shape, TensorError};

/// A dense, row-major `f32` tensor.
///
/// This is the single numeric container used throughout the LightMamba
/// reproduction. It owns its buffer; kernels that need scratch space take
/// and return owned tensors per C-CALLER-CONTROL.
///
/// # Example
///
/// ```
/// use lightmamba_tensor::Tensor;
///
/// # fn main() -> Result<(), lightmamba_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// assert_eq!(t.get(&[1, 2])?, 6.0);
/// assert_eq!(t.row(1)?, &[4.0, 5.0, 6.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.volume()];
        Tensor { shape, data }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.volume()];
        Tensor { shape, data }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Wraps an existing buffer in a tensor of the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` does not
    /// equal the shape volume.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Builds a tensor by evaluating `f` at every multi-dimensional index
    /// in row-major order (the closure receives the linear index).
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.volume()).map(&mut f).collect();
        Tensor { shape, data }
    }

    /// The shape of this tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents, outermost first.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The underlying row-major buffer, moved out.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates index errors from [`Shape::offset`].
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Writes an element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates index errors from [`Shape::offset`].
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Borrow of row `i` of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::IndexOutOfBounds`] for an invalid row.
    pub fn row(&self, i: usize) -> Result<&[f32]> {
        let (rows, cols) = self.as_matrix_dims()?;
        if i >= rows {
            return Err(TensorError::IndexOutOfBounds {
                index: i,
                len: rows,
            });
        }
        Ok(&self.data[i * cols..(i + 1) * cols])
    }

    /// Interprets the tensor as a matrix and returns `(rows, cols)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the tensor is rank 2.
    pub fn as_matrix_dims(&self) -> Result<(usize, usize)> {
        match self.dims() {
            [r, c] => Ok((*r, *c)),
            other => Err(TensorError::RankMismatch {
                expected: 2,
                actual: other.len(),
            }),
        }
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Combines two same-shaped tensors element-wise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Self> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_full_eye() {
        assert_eq!(Tensor::zeros(&[2, 2]).data(), &[0.0; 4]);
        assert_eq!(Tensor::full(&[3], 2.5).data(), &[2.5; 3]);
        let i = Tensor::eye(2);
        assert_eq!(i.data(), &[1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 3], &[2, 2]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 4], &[2, 2]).is_ok());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 1], 7.0).unwrap();
        assert_eq!(t.get(&[1, 1]).unwrap(), 7.0);
        assert_eq!(t.get(&[0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn rows_are_contiguous() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.row(0).unwrap(), &[1.0, 2.0, 3.0]);
        assert_eq!(t.row(1).unwrap(), &[4.0, 5.0, 6.0]);
        assert!(t.row(2).is_err());
    }

    #[test]
    fn row_rejects_non_matrix() {
        let t = Tensor::zeros(&[2, 2, 2]);
        assert!(matches!(t.row(0), Err(TensorError::RankMismatch { .. })));
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert_eq!(a.map(|x| x * 2.0).data(), &[2.0, 4.0]);
        assert_eq!(a.zip_with(&b, |x, y| x + y).unwrap().data(), &[4.0, 6.0]);
        let c = Tensor::zeros(&[3]);
        assert!(a.zip_with(&c, |x, _| x).is_err());
    }

    #[test]
    fn from_fn_linear_index() {
        let t = Tensor::from_fn(&[2, 2], |i| i as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0]);
    }
}
