//! The [`Tensor`] type: a contiguous, row-major, n-dimensional `f32`
//! array.

use crate::backend::BackendKind;
use crate::ops::gather_strided;
use crate::shape::Shape;
use std::fmt;
use std::sync::Arc;

/// A dense, row-major, contiguous n-dimensional array of `f32`.
///
/// All layout is contiguous; operations that change layout (transpose,
/// permute) copy. This keeps gradient code simple and predictable at the
/// model sizes used by the benchmark suite.
///
/// The buffer is shared copy-on-write: [`Clone`] and
/// [`Tensor::reshape`] hand out another reference to the same storage,
/// and the first [`Tensor::data_mut`] through a shared reference copies
/// it, so a tensor still behaves as a value. `data_mut` therefore costs
/// a uniqueness check per call — take the slice once, outside any
/// per-element loop.
///
/// Every tensor carries the [`BackendKind`] its compute-heavy
/// operations (matmul, convolution, softmax, reductions) dispatch to;
/// new tensors start on [`BackendKind::default`], [`Tensor::on`] moves
/// one, and derived tensors inherit from their operands, so tagging the
/// model weights once is enough to move a whole training run onto a
/// backend. The tag is execution metadata:
/// it does not participate in equality.
#[derive(Clone)]
pub struct Tensor {
    shape: Shape,
    data: Arc<Vec<f32>>,
    backend: BackendKind,
}

// A tensor crosses threads: `mlperf-autograd` computes parameter
// gradients on a second thread from tensors the training thread owns.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Tensor>();
};

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

impl Tensor {
    /// Creates a tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor::full(shape, 0.0)
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let shape = Shape::new(shape);
        let data = vec![value; shape.len()];
        Tensor::from_parts(shape, data, BackendKind::default())
    }

    /// Creates a zero-dimensional (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor::from_parts(Shape::new(&[]), vec![value], BackendKind::default())
    }

    fn from_parts(shape: Shape, data: Vec<f32>, backend: BackendKind) -> Self {
        Tensor { shape, data: Arc::new(data), backend }
    }

    /// The backend this tensor's operations dispatch to.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Retags the tensor onto `kind` (builder style). Data is untouched;
    /// only where future operations execute changes. With
    /// [`crate::TensorRng::with_backend`], this is how a tensor leaves
    /// [`BackendKind::default`].
    #[must_use]
    pub fn on(mut self, kind: BackendKind) -> Tensor {
        self.backend = kind;
        self
    }

    /// Creates a tensor from a flat buffer in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the element count of
    /// `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let shape = Shape::new(shape);
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.len()
        );
        Tensor::from_parts(shape, data, BackendKind::default())
    }

    /// Creates a 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor::from_vec(data.to_vec(), &[data.len()])
    }

    /// Creates an identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Tensor::from_vec(data, &[n, n])
    }

    /// A 1-D tensor of `n` evenly spaced values starting at `start` with
    /// step `step`.
    pub fn arange(n: usize, start: f32, step: f32) -> Self {
        Tensor::from_vec((0..n).map(|i| start + step * i as f32).collect(), &[n])
    }

    /// The dimension extents.
    pub fn shape(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer, copying it
    /// first if another tensor shares it.
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consumes the tensor, returning its buffer (a copy if another
    /// tensor shares it).
    pub fn into_vec(self) -> Vec<f32> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| Vec::clone(&shared))
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.shape.offset(idx);
        self.data_mut()[off] = value;
    }

    /// The single value of a scalar or one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() called on tensor with {} elements", self.data.len());
        self.data[0]
    }

    /// Returns a tensor with the same data (shared, not copied) and a
    /// new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let new_shape = Shape::new(shape);
        assert_eq!(
            new_shape.len(),
            self.data.len(),
            "cannot reshape {} elements into shape {new_shape}",
            self.data.len()
        );
        Tensor { shape: new_shape, data: Arc::clone(&self.data), backend: self.backend }
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data.iter().map(|&x| f(x)).collect();
        Tensor::from_parts(self.shape.clone(), data, self.backend)
    }

    /// Transposes a 2-D tensor (copying).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose requires a 2-D tensor, got {}", self.shape);
        let (m, n) = (self.shape()[0], self.shape()[1]);
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_parts(Shape::new(&[n, m]), out, self.backend)
    }

    /// Permutes dimensions (general transpose, copying).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..ndim`.
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        assert_eq!(perm.len(), self.ndim(), "permutation rank mismatch");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(p < perm.len() && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        let old_dims = self.shape.dims();
        let old_strides = self.shape.strides();
        let new_dims: Vec<usize> = perm.iter().map(|&p| old_dims[p]).collect();
        let src_strides: Vec<usize> = perm.iter().map(|&p| old_strides[p]).collect();
        let mut out = vec![0.0; self.data.len()];
        gather_strided(&self.data, &mut out, &src_strides, &new_dims);
        Tensor::from_parts(Shape::from(new_dims), out, self.backend)
    }

    /// Extracts `len` slices starting at `start` along dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range or `start + len` exceeds the
    /// extent of `axis`.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Tensor {
        let dims = self.shape.dims();
        assert!(axis < dims.len(), "axis {axis} out of range for {}", self.shape);
        assert!(
            start + len <= dims[axis],
            "narrow [{start}, {}) exceeds extent {} of axis {axis}",
            start + len,
            dims[axis]
        );
        let mut new_dims = dims.to_vec();
        new_dims[axis] = len;
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out = Vec::with_capacity(outer * len * inner);
        for o in 0..outer {
            let base = o * dims[axis] * inner + start * inner;
            out.extend_from_slice(&self.data[base..base + len * inner]);
        }
        Tensor::from_vec(out, &new_dims).on(self.backend)
    }

    /// Concatenates tensors along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `tensors` is empty, shapes disagree outside `axis`, or
    /// `axis` is out of range.
    pub fn concat(tensors: &[&Tensor], axis: usize) -> Tensor {
        assert!(!tensors.is_empty(), "concat of zero tensors");
        let first = tensors[0].shape();
        assert!(axis < first.len(), "axis {axis} out of range");
        let mut axis_total = 0;
        for t in tensors {
            let s = t.shape();
            assert_eq!(s.len(), first.len(), "rank mismatch in concat");
            for (d, (&a, &b)) in s.iter().zip(first.iter()).enumerate() {
                assert!(d == axis || a == b, "shape mismatch in concat at dim {d}: {a} vs {b}");
            }
            axis_total += s[axis];
        }
        let mut new_dims = first.to_vec();
        new_dims[axis] = axis_total;
        let outer: usize = first[..axis].iter().product();
        let inner: usize = first[axis + 1..].iter().product();
        let mut out = Vec::with_capacity(outer * axis_total * inner);
        for o in 0..outer {
            for t in tensors {
                let extent = t.shape()[axis];
                let base = o * extent * inner;
                out.extend_from_slice(&t.data[base..base + extent * inner]);
            }
        }
        let kind = tensors.iter().fold(tensors[0].backend, |acc, t| acc.join(t.backend));
        Tensor::from_vec(out, &new_dims).on(kind)
    }

    /// Gathers rows of a 2-D tensor: `out[i] = self[indices[i]]`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        assert_eq!(self.ndim(), 2, "gather_rows requires a 2-D tensor");
        let (rows, cols) = (self.shape()[0], self.shape()[1]);
        let mut out = Vec::with_capacity(indices.len() * cols);
        for &i in indices {
            assert!(i < rows, "row index {i} out of bounds for {rows} rows");
            out.extend_from_slice(&self.data[i * cols..(i + 1) * cols]);
        }
        Tensor::from_vec(out, &[indices.len(), cols]).on(self.backend)
    }

    /// Gathers arbitrary flat elements: `out[i] = self.data[indices[i]]`,
    /// returning a 1-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_flat(&self, indices: &[usize]) -> Tensor {
        let mut out = Vec::with_capacity(indices.len());
        for &i in indices {
            assert!(i < self.data.len(), "flat index {i} out of bounds");
            out.push(self.data[i]);
        }
        Tensor::from_vec(out, &[indices.len()]).on(self.backend)
    }

    /// Frobenius (L2) norm of all elements.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Whether every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: Vec<f32> = self.data.iter().take(8).copied().collect();
        let ellipsis = if self.data.len() > 8 { ", ..." } else { "" };
        write!(f, "Tensor{} {:?}{}", self.shape, preview, ellipsis)
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The walk `permute` used before the odometer, kept verbatim as
    /// its oracle: unravel every output index in the new shape, then
    /// gather from the old layout.
    fn permute_naive(t: &Tensor, perm: &[usize]) -> Tensor {
        let old_dims = t.shape.dims();
        let new_dims: Vec<usize> = perm.iter().map(|&p| old_dims[p]).collect();
        let new_shape = Shape::new(&new_dims);
        let old_strides = t.shape.strides();
        let mut out = vec![0.0; t.data.len()];
        let mut idx = vec![0usize; new_dims.len()];
        for (lin, slot) in out.iter_mut().enumerate() {
            let mut rem = lin;
            for (i, &d) in new_shape.strides().iter().enumerate() {
                idx[i] = rem / d;
                rem %= d;
            }
            let mut src = 0;
            for (i, &p) in perm.iter().enumerate() {
                src += idx[i] * old_strides[p];
            }
            *slot = t.data[src];
        }
        Tensor::from_vec(out, &new_dims)
    }

    proptest! {
        /// Ranks 0–5 with extents 0–4 under a random permutation (the
        /// sort order of random keys): unit inner stride (row copies),
        /// strided inner gathers, extent-1 and zero-extent dimensions.
        #[test]
        fn permute_matches_unravel_oracle(
            dims_and_keys in proptest::collection::vec((0usize..5, 0u32..1000), 0..6),
        ) {
            let dims: Vec<usize> = dims_and_keys.iter().map(|&(d, _)| d).collect();
            let mut perm: Vec<usize> = (0..dims.len()).collect();
            perm.sort_by_key(|&i| dims_and_keys[i].1);
            let t = Tensor::arange(dims.iter().product(), -3.0, 0.5).reshape(&dims);
            let (got, want) = (t.permute(&perm), permute_naive(&t, &perm));
            prop_assert_eq!(got.shape(), want.shape());
            prop_assert_eq!(got.data(), want.data());
        }
    }

    #[test]
    fn mutating_a_clone_leaves_the_original_untouched() {
        let original = Tensor::arange(4, 0.0, 1.0);
        let mut copy = original.clone();
        copy.data_mut()[0] = 9.0;
        copy.set(&[3], -1.0);
        copy.scale_inplace(2.0);
        assert_eq!(original.data(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(copy.data(), &[18.0, 2.0, 4.0, -2.0]);
    }

    #[test]
    fn mutating_a_reshape_leaves_the_original_untouched() {
        let original = Tensor::arange(6, 0.0, 1.0).reshape(&[2, 3]);
        let mut flat = original.reshape(&[6]);
        for x in flat.data_mut() {
            *x += 10.0;
        }
        assert_eq!(original.data(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(flat.data(), &[10.0, 11.0, 12.0, 13.0, 14.0, 15.0]);
        // And the other way round: mutating the source of a view.
        let mut source = Tensor::ones(&[2, 2]);
        let view = source.reshape(&[4]);
        source.scale_inplace(2.0);
        assert_eq!(view.data(), &[1.0; 4]);
        assert_eq!(source.data(), &[2.0; 4]);
    }

    #[test]
    fn into_vec_of_a_shared_tensor_copies() {
        let kept = Tensor::from_slice(&[1.0, 2.0]);
        let mut taken = kept.clone().into_vec();
        taken[0] = 7.0;
        assert_eq!(kept.data(), &[1.0, 2.0]);
        assert_eq!(Tensor::from_slice(&[3.0]).into_vec(), vec![3.0]);
    }

    #[test]
    fn equality_ignores_the_backend_tag_and_sharing() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        assert_eq!(a, a.clone().on(BackendKind::Blocked));
        assert_eq!(a, Tensor::from_slice(&[1.0, 2.0]));
        assert_ne!(a, Tensor::from_slice(&[1.0, 3.0]));
        assert_ne!(a, a.reshape(&[2, 1]));
        let nan = Tensor::from_slice(&[f32::NAN]);
        assert_ne!(nan, nan.clone(), "shared storage must not short-circuit NaN != NaN");
    }

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.len(), 6);
        assert_eq!(t.ndim(), 2);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_wrong_len_panics() {
        Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn transpose_2d() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tt = t.transpose();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.at(&[0, 1]), 4.0);
        assert_eq!(tt.at(&[2, 0]), 3.0);
    }

    #[test]
    fn permute_matches_double_transpose() {
        let t = Tensor::arange(24, 0.0, 1.0).reshape(&[2, 3, 4]);
        let p = t.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.at(&[1, 0, 2]), t.at(&[0, 2, 1]));
        let identity = t.permute(&[0, 1, 2]);
        assert_eq!(identity, t);
    }

    #[test]
    fn narrow_middle_axis() {
        let t = Tensor::arange(24, 0.0, 1.0).reshape(&[2, 3, 4]);
        let n = t.narrow(1, 1, 2);
        assert_eq!(n.shape(), &[2, 2, 4]);
        assert_eq!(n.at(&[0, 0, 0]), t.at(&[0, 1, 0]));
        assert_eq!(n.at(&[1, 1, 3]), t.at(&[1, 2, 3]));
    }

    #[test]
    fn concat_axis0_and_axis1() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[1, 2]);
        let c0 = Tensor::concat(&[&a, &b], 0);
        assert_eq!(c0.shape(), &[2, 2]);
        assert_eq!(c0.data(), &[1.0, 2.0, 3.0, 4.0]);
        let c1 = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c1.shape(), &[1, 4]);
        assert_eq!(c1.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn concat_then_narrow_roundtrip() {
        let a = Tensor::arange(6, 0.0, 1.0).reshape(&[2, 3]);
        let b = Tensor::arange(6, 10.0, 1.0).reshape(&[2, 3]);
        let c = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c.narrow(1, 0, 3), a);
        assert_eq!(c.narrow(1, 3, 3), b);
    }

    #[test]
    fn gather_rows_basic() {
        let t = Tensor::arange(6, 0.0, 1.0).reshape(&[3, 2]);
        let g = t.gather_rows(&[2, 0, 2]);
        assert_eq!(g.shape(), &[3, 2]);
        assert_eq!(g.data(), &[4.0, 5.0, 0.0, 1.0, 4.0, 5.0]);
    }

    #[test]
    fn eye_and_arange() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[1, 1]), 1.0);
        assert_eq!(i.at(&[0, 1]), 0.0);
        let a = Tensor::arange(4, 1.0, 0.5);
        assert_eq!(a.data(), &[1.0, 1.5, 2.0, 2.5]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    #[should_panic(expected = "item()")]
    fn item_on_multi_element_panics() {
        Tensor::zeros(&[2]).item();
    }

    #[test]
    fn norm_and_finite() {
        let t = Tensor::from_slice(&[3.0, 4.0]);
        assert!((t.norm() - 5.0).abs() < 1e-6);
        assert!(t.all_finite());
        let bad = Tensor::from_slice(&[f32::NAN]);
        assert!(!bad.all_finite());
    }
}
