//! Reductions (sum, mean, max, argmax), softmax / log-softmax, and
//! gradient-side helpers such as [`Tensor::sum_to`].
//!
//! Plain serial loops, one body whatever the backend tag: none of them
//! contains a GEMM, and the pool fan-outs `Blocked` used to carry for
//! softmax, log-softmax and the axis sum were taken by 31 of 157 512
//! calls across the whole suite (ROADMAP item 4 has the table).

use crate::tensor::Tensor;

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn mean(&self) -> f32 {
        assert!(!self.is_empty(), "mean of empty tensor");
        self.sum() / self.len() as f32
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn max(&self) -> f32 {
        assert!(!self.is_empty(), "max of empty tensor");
        self.data().iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x))
    }

    /// Minimum element.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn min(&self) -> f32 {
        assert!(!self.is_empty(), "min of empty tensor");
        self.data().iter().fold(f32::INFINITY, |m, &x| m.min(x))
    }

    /// Sums along `axis`. With `keepdim`, the reduced dimension stays as
    /// extent 1; otherwise it is removed.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        let dims = self.shape();
        assert!(axis < dims.len(), "axis {axis} out of range for {:?}", dims);
        let outer: usize = dims[..axis].iter().product();
        let extent = dims[axis];
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out = vec![0.0; outer * inner];
        sum_axis_into(self.data(), &mut out, outer, extent, inner);
        let mut new_dims: Vec<usize> = dims.to_vec();
        if keepdim {
            new_dims[axis] = 1;
        } else {
            new_dims.remove(axis);
        }
        Tensor::from_vec(out, &new_dims).on(self.backend())
    }

    /// Mean along `axis` (see [`Tensor::sum_axis`]).
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        let extent = self.shape()[axis] as f32;
        self.sum_axis(axis, keepdim).scale(1.0 / extent)
    }

    /// Maximum along `axis`.
    pub fn max_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        let dims = self.shape();
        assert!(axis < dims.len(), "axis {axis} out of range for {:?}", dims);
        let outer: usize = dims[..axis].iter().product();
        let extent = dims[axis];
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out = vec![f32::NEG_INFINITY; outer * inner];
        for o in 0..outer {
            for e in 0..extent {
                let base = (o * extent + e) * inner;
                for i in 0..inner {
                    let v = self.data()[base + i];
                    let slot = &mut out[o * inner + i];
                    if v > *slot {
                        *slot = v;
                    }
                }
            }
        }
        let mut new_dims: Vec<usize> = dims.to_vec();
        if keepdim {
            new_dims[axis] = 1;
        } else {
            new_dims.remove(axis);
        }
        Tensor::from_vec(out, &new_dims).on(self.backend())
    }

    /// Index of the maximum along the last axis, one per leading slice.
    ///
    /// For a `[batch, classes]` tensor this is the predicted class per
    /// row.
    ///
    /// # Panics
    ///
    /// Panics on a 0-dimensional tensor, or if the last axis is empty
    /// (there is no maximum to index).
    pub fn argmax_last_axis(&self) -> Vec<usize> {
        let inner = self.last_axis_extent("argmax");
        let rows = self.len() / inner;
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &self.data()[r * inner..(r + 1) * inner];
            let mut best = 0;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            out.push(best);
        }
        out
    }

    /// Softmax along the last axis, numerically stabilized by max
    /// subtraction.
    ///
    /// # Panics
    ///
    /// Panics on a 0-dimensional tensor, or if the last axis is empty.
    pub fn softmax_last_axis(&self) -> Tensor {
        self.map_last_axis("softmax", softmax_one_row)
    }

    /// Log-softmax along the last axis (stable log-sum-exp form).
    ///
    /// # Panics
    ///
    /// Panics on a 0-dimensional tensor, or if the last axis is empty.
    pub fn log_softmax_last_axis(&self) -> Tensor {
        self.map_last_axis("log_softmax", log_softmax_one_row)
    }

    /// Extent of the last axis, for an op that works row by row.
    fn last_axis_extent(&self, op: &str) -> usize {
        let inner = *self.shape().last().unwrap_or_else(|| panic!("{op} of scalar"));
        assert!(inner > 0, "{op} over an empty last axis: shape {:?}", self.shape());
        inner
    }

    /// `f(row, out_row)` over every last-axis row.
    fn map_last_axis(&self, op: &str, f: impl Fn(&[f32], &mut [f32])) -> Tensor {
        let inner = self.last_axis_extent(op);
        let mut out = vec![0.0; self.len()];
        for (row, orow) in self.data().chunks_exact(inner).zip(out.chunks_exact_mut(inner)) {
            f(row, orow);
        }
        Tensor::from_vec(out, self.shape()).on(self.backend())
    }

    /// Reduces this tensor (by summation) down to `dims`, inverting a
    /// broadcast. This is the adjoint of [`Tensor::broadcast_to`] and is
    /// used by autograd to accumulate gradients of broadcast operands.
    ///
    /// # Panics
    ///
    /// Panics if `dims` cannot be broadcast to this tensor's shape.
    pub fn sum_to(&self, dims: &[usize]) -> Tensor {
        if self.shape() == dims {
            return self.clone();
        }
        let my_dims = self.shape().to_vec();
        assert!(
            crate::shape::broadcast_shapes(dims, &my_dims).as_deref() == Some(&my_dims[..]),
            "cannot sum {:?} down to {:?}",
            my_dims,
            dims
        );
        let mut t = self.clone();
        // Remove leading dimensions that `dims` lacks.
        while t.ndim() > dims.len() {
            t = t.sum_axis(0, false);
        }
        // Collapse broadcast (extent-1) dimensions.
        for (axis, &d) in dims.iter().enumerate() {
            if d == 1 && t.shape()[axis] != 1 {
                t = t.sum_axis(axis, true);
            }
        }
        t.reshape(dims)
    }
}

/// Axis sum: `src` viewed as `[outer, extent, inner]`, reduced over
/// `extent` into `out` of `outer * inner` zeros.
fn sum_axis_into(src: &[f32], out: &mut [f32], outer: usize, extent: usize, inner: usize) {
    if inner == 1 && extent > 0 {
        // Last-axis reduction (every row mean): the general loop
        // below would run a one-element inner loop per addend, so
        // carry the row's sum in a local — same addends, same
        // left-to-right order.
        for (slot, row) in out.iter_mut().zip(src.chunks_exact(extent)) {
            let mut acc = *slot;
            for &v in row {
                acc += v;
            }
            *slot = acc;
        }
        return;
    }
    for o in 0..outer {
        for e in 0..extent {
            let base = (o * extent + e) * inner;
            for i in 0..inner {
                out[o * inner + i] += src[base + i];
            }
        }
    }
}

/// Stable softmax of one row: max, exp and accumulate, divide.
fn softmax_one_row(row: &[f32], out: &mut [f32]) {
    let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let mut z = 0.0;
    for (slot, &v) in out.iter_mut().zip(row.iter()) {
        let e = (v - m).exp();
        *slot = e;
        z += e;
    }
    for slot in out.iter_mut() {
        *slot /= z;
    }
}

/// Stable log-softmax of one row.
fn log_softmax_one_row(row: &[f32], out: &mut [f32]) {
    let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let lse = m + row.iter().map(|&v| (v - m).exp()).sum::<f32>().ln();
    for (slot, &v) in out.iter_mut().zip(row.iter()) {
        *slot = v - lse;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use crate::backend::{assert_bits_equal, BackendKind};
    use crate::init::TensorRng;
    use proptest::prelude::*;

    /// `Reference::softmax_rows` as it stood when softmax was a backend
    /// method, verbatim: the oracle of `softmax_one_row`.
    fn reference_parent_softmax_rows(src: &[f32], out: &mut [f32], rows: usize, inner: usize) {
        for r in 0..rows {
            let row = &src[r * inner..(r + 1) * inner];
            let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let mut z = 0.0;
            for (i, &v) in row.iter().enumerate() {
                let e = (v - m).exp();
                out[r * inner + i] = e;
                z += e;
            }
            for slot in &mut out[r * inner..(r + 1) * inner] {
                *slot /= z;
            }
        }
    }

    /// `Reference::log_softmax_rows` likewise.
    fn reference_parent_log_softmax_rows(src: &[f32], out: &mut [f32], rows: usize, inner: usize) {
        for r in 0..rows {
            let row = &src[r * inner..(r + 1) * inner];
            let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let lse = m + row.iter().map(|&v| (v - m).exp()).sum::<f32>().ln();
            for (i, &v) in row.iter().enumerate() {
                out[r * inner + i] = v - lse;
            }
        }
    }

    /// The general loop of `Reference::sum_axis`, verbatim and without
    /// the `inner == 1` carry — what the carry claims to equal.
    fn sum_axis_general(src: &[f32], out: &mut [f32], outer: usize, extent: usize, inner: usize) {
        for o in 0..outer {
            for e in 0..extent {
                let base = (o * extent + e) * inner;
                for i in 0..inner {
                    out[o * inner + i] += src[base + i];
                }
            }
        }
    }

    proptest! {
        /// One body per reduction whatever the tag, against the loops
        /// `Reference` ran as backend methods, to the bit. Extents start
        /// at 1 (so `inner == 1` takes the carry on the last axis and
        /// `extent == 1` sums a single addend), and `-0.0` is sprinkled
        /// in: a carry seeded from anything but the zeroed output would
        /// return it where the general loop returns `+0.0`.
        #[test]
        fn reductions_match_the_parent_reference(
            (outer, extent, inner) in (1usize..7, 1usize..40, 1usize..12),
            seed in 0u64..1 << 32,
        ) {
            let mut t = TensorRng::new(seed).uniform(&[outer, extent, inner], -3.0, 3.0);
            for v in t.data_mut().iter_mut().step_by(5) {
                *v = -0.0;
            }
            for kind in BackendKind::ALL {
                let (t, rows) = (t.clone().on(kind), outer * extent);
                let views = [(1, outer, extent * inner), (outer, extent, inner), (rows, inner, 1)];
                for (axis, (o, e, i)) in views.into_iter().enumerate() {
                    let mut want = vec![0.0f32; o * i];
                    sum_axis_general(t.data(), &mut want, o, e, i);
                    let got = t.sum_axis(axis, false);
                    let what = format!("{kind} sum_axis({axis}) of {:?}", t.shape());
                    assert_bits_equal(got.data(), &want, &what);
                    assert_eq!(got.backend(), kind);
                }
                let mut want = vec![0.0f32; t.len()];
                reference_parent_softmax_rows(t.data(), &mut want, rows, inner);
                let got = t.softmax_last_axis();
                assert_bits_equal(got.data(), &want, &format!("{kind} softmax of {:?}", t.shape()));
                reference_parent_log_softmax_rows(t.data(), &mut want, rows, inner);
                let got = t.log_softmax_last_axis();
                let what = format!("{kind} log_softmax of {:?}", t.shape());
                assert_bits_equal(got.data(), &want, &what);
                assert_eq!((got.backend(), got.shape()), (kind, t.shape()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "softmax over an empty last axis: shape [2, 0]")]
    fn softmax_rejects_an_empty_last_axis() {
        Tensor::zeros(&[2, 0]).softmax_last_axis();
    }

    #[test]
    #[should_panic(expected = "log_softmax over an empty last axis: shape [2, 0]")]
    fn log_softmax_rejects_an_empty_last_axis() {
        Tensor::zeros(&[2, 0]).log_softmax_last_axis();
    }

    #[test]
    #[should_panic(expected = "argmax over an empty last axis: shape [2, 0]")]
    fn argmax_rejects_an_empty_last_axis() {
        Tensor::zeros(&[2, 0]).argmax_last_axis();
    }

    #[test]
    fn sum_axis_all_axes() {
        let t = Tensor::arange(6, 1.0, 1.0).reshape(&[2, 3]);
        assert_eq!(t.sum_axis(0, false).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(t.sum_axis(1, false).data(), &[6.0, 15.0]);
        assert_eq!(t.sum_axis(1, true).shape(), &[2, 1]);
    }

    #[test]
    fn mean_and_max_axis() {
        let t = Tensor::from_vec(vec![1.0, 5.0, 3.0, 2.0, 4.0, 6.0], &[2, 3]);
        assert_eq!(t.mean_axis(1, false).data(), &[3.0, 4.0]);
        assert_eq!(t.max_axis(0, false).data(), &[2.0, 5.0, 6.0]);
    }

    #[test]
    fn argmax_rows() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.5, 0.2, 0.3], &[2, 3]);
        assert_eq!(t.argmax_last_axis(), vec![1, 0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], &[2, 3]);
        let s = t.softmax_last_axis();
        assert!(s.all_finite(), "softmax must be stable for large logits");
        let row0: f32 = s.data()[..3].iter().sum();
        let row1: f32 = s.data()[3..].iter().sum();
        assert!((row0 - 1.0).abs() < 1e-5 && (row1 - 1.0).abs() < 1e-5);
        assert_close(&s.data()[3..], &[1.0 / 3.0; 3], 1e-5);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let t = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.0], &[2, 2]);
        let a = t.log_softmax_last_axis();
        let b = t.softmax_last_axis().ln();
        assert_close(a.data(), b.data(), 1e-5);
    }

    #[test]
    fn sum_to_inverts_broadcast() {
        let row = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let big = row.broadcast_to(&[4, 3]);
        let back = big.sum_to(&[3]);
        assert_eq!(back.data(), &[4.0, 8.0, 12.0]);

        let col = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        let big = col.broadcast_to(&[2, 5]);
        let back = big.sum_to(&[2, 1]);
        assert_eq!(back.data(), &[5.0, 10.0]);
    }

    #[test]
    fn sum_to_identity_when_same_shape() {
        let t = Tensor::arange(4, 0.0, 1.0).reshape(&[2, 2]);
        assert_eq!(t.sum_to(&[2, 2]), t);
    }

    #[test]
    fn sum_to_scalar_shape() {
        let t = Tensor::ones(&[2, 3]);
        let s = t.sum_to(&[]);
        assert_eq!(s.item(), 6.0);
    }
}
