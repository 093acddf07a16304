use crate::TensorError;

/// The extent of each dimension of a [`Tensor`](crate::Tensor), row-major.
///
/// # Example
///
/// ```
/// use lightmamba_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.volume(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// Extents of all dimensions, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    /// Row-major strides (in elements) for each dimension.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Linear (row-major) offset of a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when `index` has the wrong
    /// arity and [`TensorError::IndexOutOfBounds`] when any coordinate
    /// exceeds its dimension.
    pub fn offset(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.dims.len() {
            return Err(TensorError::RankMismatch {
                expected: self.dims.len(),
                actual: index.len(),
            });
        }
        let mut off = 0usize;
        let strides = self.strides();
        for (d, (&i, &len)) in index.iter().zip(self.dims.iter()).enumerate() {
            if i >= len {
                return Err(TensorError::IndexOutOfBounds { index: i, len });
            }
            off += i * strides[d];
        }
        Ok(off)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_strides() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.volume(), 24);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.rank(), 3);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.volume(), 1);
        assert_eq!(s.strides(), Vec::<usize>::new());
    }

    #[test]
    fn offset_row_major() {
        let s = Shape::new(&[2, 3]);
        assert_eq!(s.offset(&[0, 0]).unwrap(), 0);
        assert_eq!(s.offset(&[0, 2]).unwrap(), 2);
        assert_eq!(s.offset(&[1, 0]).unwrap(), 3);
        assert_eq!(s.offset(&[1, 2]).unwrap(), 5);
    }

    #[test]
    fn offset_rejects_bad_rank_and_oob() {
        let s = Shape::new(&[2, 3]);
        assert!(matches!(
            s.offset(&[0]),
            Err(TensorError::RankMismatch { .. })
        ));
        assert!(matches!(
            s.offset(&[2, 0]),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "(2x3)");
    }
}
