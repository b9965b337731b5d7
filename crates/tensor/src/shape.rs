//! Shape arithmetic: element counts, strides, index linearization and
//! NumPy-style broadcasting rules.

use std::fmt;

/// The extents of a tensor along each dimension.
///
/// A thin wrapper over `Vec<usize>` providing stride and broadcasting
/// helpers. A zero-dimensional shape (`[]`) denotes a scalar with one
/// element.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// The dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (1 for a scalar shape).
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// Whether the shape contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major strides (in elements) for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Linearizes a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or any coordinate is out of
    /// bounds.
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.0.len(),
            "index rank {} does not match shape rank {}",
            idx.len(),
            self.0.len()
        );
        let mut off = 0;
        let strides = self.strides();
        for (d, (&i, &s)) in idx.iter().zip(strides.iter()).enumerate() {
            assert!(
                i < self.0[d],
                "index {i} out of bounds for dimension {d} of extent {}",
                self.0[d]
            );
            off += i * s;
        }
        off
    }

    /// Converts a linear offset back into a multi-dimensional index.
    pub fn unravel(&self, mut offset: usize) -> Vec<usize> {
        let mut idx = vec![0; self.0.len()];
        for (i, &s) in self.strides().iter().enumerate() {
            idx[i] = offset / s;
            offset %= s;
        }
        idx
    }
}

/// Element strides that read a tensor of `src_dims` as if it had been
/// broadcast to `out_dims`: row-major strides right-aligned against the
/// output, with 0 for every dimension the source stretches (extent 1,
/// or missing on the left).
pub(crate) fn broadcast_strides(src_dims: &[usize], out_dims: &[usize]) -> Vec<usize> {
    let pad = out_dims.len() - src_dims.len();
    let mut strides = vec![0; out_dims.len()];
    let mut step = 1;
    for (i, &d) in src_dims.iter().enumerate().rev() {
        if d != 1 {
            strides[pad + i] = step;
        }
        step *= d;
    }
    strides
}

/// The one index walk behind broadcasting and permutation: an odometer
/// over every dimension of `dims` but the last, yielding for each
/// output row, in row-major order, the element offset at which that row
/// starts in each of `N` sources.
///
/// A source is described by one stride per output dimension (see
/// [`broadcast_strides`]; for a permutation, the source's strides in
/// permuted order). Offsets are kept running and advanced by carry, so
/// a row costs a few additions rather than a division per dimension;
/// callers walk the last dimension themselves with whatever loop suits
/// its stride. A zero-dimensional `dims` is one row.
pub(crate) struct RowOffsets<'a, const N: usize> {
    outer: &'a [usize],
    strides: [&'a [usize]; N],
    idx: Vec<usize>,
    offsets: [usize; N],
    rows_left: usize,
}

impl<'a, const N: usize> RowOffsets<'a, N> {
    pub(crate) fn new(dims: &'a [usize], strides: [&'a [usize]; N]) -> Self {
        let outer = &dims[..dims.len().saturating_sub(1)];
        RowOffsets {
            outer,
            strides,
            idx: vec![0; outer.len()],
            offsets: [0; N],
            rows_left: outer.iter().product(),
        }
    }
}

impl<const N: usize> Iterator for RowOffsets<'_, N> {
    type Item = [usize; N];

    fn next(&mut self) -> Option<[usize; N]> {
        if self.rows_left == 0 {
            return None;
        }
        self.rows_left -= 1;
        let row = self.offsets;
        // Step to the next row (after the last one this wraps every
        // digit, and every offset, back to zero).
        for d in (0..self.outer.len()).rev() {
            self.idx[d] += 1;
            for (off, strides) in self.offsets.iter_mut().zip(self.strides) {
                *off += strides[d];
            }
            if self.idx[d] < self.outer[d] {
                break;
            }
            for (off, strides) in self.offsets.iter_mut().zip(self.strides) {
                *off -= self.outer[d] * strides[d];
            }
            self.idx[d] = 0;
        }
        Some(row)
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

/// Computes the broadcast of two shapes under NumPy rules: trailing
/// dimensions must be equal or one of them must be 1; missing leading
/// dimensions are treated as 1.
///
/// Returns `None` when the shapes are incompatible.
///
/// ```
/// use mlperf_tensor::broadcast_shapes;
/// assert_eq!(broadcast_shapes(&[4, 1], &[3]), Some(vec![4, 3]));
/// assert_eq!(broadcast_shapes(&[2, 3], &[4]), None);
/// ```
pub fn broadcast_shapes(a: &[usize], b: &[usize]) -> Option<Vec<usize>> {
    let ndim = a.len().max(b.len());
    let mut out = vec![0; ndim];
    for i in 0..ndim {
        let da = if i < ndim - a.len() { 1 } else { a[i - (ndim - a.len())] };
        let db = if i < ndim - b.len() { 1 } else { b[i - (ndim - b.len())] };
        out[i] = if da == db {
            da
        } else if da == 1 {
            db
        } else if db == 1 {
            da
        } else {
            return None;
        };
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.len(), 24);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.strides(), Vec::<usize>::new());
        assert_eq!(s.offset(&[]), 0);
    }

    #[test]
    fn offset_and_unravel_roundtrip() {
        let s = Shape::new(&[2, 3, 4]);
        for lin in 0..s.len() {
            let idx = s.unravel(lin);
            assert_eq!(s.offset(&idx), lin);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_out_of_bounds_panics() {
        Shape::new(&[2, 2]).offset(&[2, 0]);
    }

    #[test]
    fn broadcast_compatible() {
        assert_eq!(broadcast_shapes(&[2, 3], &[2, 3]), Some(vec![2, 3]));
        assert_eq!(broadcast_shapes(&[2, 1], &[1, 3]), Some(vec![2, 3]));
        assert_eq!(broadcast_shapes(&[3], &[2, 3]), Some(vec![2, 3]));
        assert_eq!(broadcast_shapes(&[], &[2, 3]), Some(vec![2, 3]));
    }

    #[test]
    fn broadcast_incompatible() {
        assert_eq!(broadcast_shapes(&[2, 3], &[3, 2]), None);
        assert_eq!(broadcast_shapes(&[4], &[5]), None);
    }
}
