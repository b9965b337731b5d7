//! Elementwise arithmetic with NumPy-style broadcasting, plus the
//! nonlinearities used by the benchmark models.

use crate::shape::{broadcast_shapes, broadcast_strides, RowOffsets};
use crate::tensor::Tensor;
use std::ops::{Add, Div, Mul, Neg, Sub};

impl Tensor {
    /// Applies a binary operation with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn zip_broadcast(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let kind = self.backend().join(other.backend());
        if self.shape() == other.shape() {
            // Fast path: identical shapes.
            let data =
                self.data().iter().zip(other.data().iter()).map(|(&a, &b)| f(a, b)).collect();
            return Tensor::from_vec(data, self.shape()).on(kind);
        }
        let out_dims = broadcast_shapes(self.shape(), other.shape()).unwrap_or_else(|| {
            panic!("shapes {:?} and {:?} are not broadcast-compatible", self.shape(), other.shape())
        });
        let mut out = vec![0.0; out_dims.iter().product()];
        zip_broadcast_odometer(
            self.data(),
            other.data(),
            &mut out,
            &broadcast_strides(self.shape(), &out_dims),
            &broadcast_strides(other.shape(), &out_dims),
            &out_dims,
            &f,
        );
        Tensor::from_vec(out, &out_dims).on(kind)
    }

    /// Broadcasts this tensor to `dims`.
    ///
    /// # Panics
    ///
    /// Panics if this shape cannot broadcast to `dims`.
    pub fn broadcast_to(&self, dims: &[usize]) -> Tensor {
        let merged = broadcast_shapes(self.shape(), dims)
            .unwrap_or_else(|| panic!("cannot broadcast {:?} to {:?}", self.shape(), dims));
        assert_eq!(merged, dims, "cannot broadcast {:?} to {:?}", self.shape(), dims);
        let mut out = vec![0.0; dims.iter().product()];
        gather_strided(self.data(), &mut out, &broadcast_strides(self.shape(), dims), dims);
        Tensor::from_vec(out, dims).on(self.backend())
    }

    /// Elementwise maximum with broadcasting.
    pub fn maximum(&self, other: &Tensor) -> Tensor {
        self.zip_broadcast(other, f32::max)
    }

    /// Elementwise minimum with broadcasting.
    pub fn minimum(&self, other: &Tensor) -> Tensor {
        self.zip_broadcast(other, f32::min)
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x + s)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Elementwise reciprocal.
    pub fn recip(&self) -> Tensor {
        self.map(|x| 1.0 / x)
    }

    /// Elementwise natural exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        self.map(|x| x * x)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Elementwise power.
    pub fn powf(&self, p: f32) -> Tensor {
        self.map(|x| x.powf(p))
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }

    /// Logistic sigmoid, numerically stable in both tails.
    pub fn sigmoid(&self) -> Tensor {
        self.map(sigmoid_scalar)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.map(f32::tanh)
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }

    /// In-place AXPY: `self += alpha * other` (shapes must match).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "axpy shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        for (a, &b) in self.data_mut().iter_mut().zip(other.data().iter()) {
            *a += alpha * b;
        }
    }

    /// In-place scale: `self *= alpha`.
    pub fn scale_inplace(&mut self, alpha: f32) {
        for a in self.data_mut() {
            *a *= alpha;
        }
    }
}

/// Numerically stable logistic sigmoid for a single value.
pub(crate) fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// The broadcast walk of both backends: [`RowOffsets`] keeps a running
/// source offset per operand, and the innermost dimension is
/// specialized on its `(a, b)` stride pattern. `f` sees the same
/// element pairs, in the same row-major order, as unravelling every
/// output index would give it.
fn zip_broadcast_odometer(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    a_str: &[usize],
    b_str: &[usize],
    out_dims: &[usize],
    f: &impl Fn(f32, f32) -> f32,
) {
    if out.is_empty() {
        return;
    }
    let inner = out_dims.last().copied().unwrap_or(1);
    let a_in = a_str.last().copied().unwrap_or(0);
    let b_in = b_str.last().copied().unwrap_or(0);
    let rows = RowOffsets::new(out_dims, [a_str, b_str]);
    for (chunk, [a_off, b_off]) in out.chunks_mut(inner).zip(rows) {
        match (a_in, b_in) {
            (1, 1) => {
                let (a, b) = (&a[a_off..a_off + inner], &b[b_off..b_off + inner]);
                for ((slot, &av), &bv) in chunk.iter_mut().zip(a).zip(b) {
                    *slot = f(av, bv);
                }
            }
            (1, 0) => {
                let bv = b[b_off];
                for (slot, &av) in chunk.iter_mut().zip(&a[a_off..a_off + inner]) {
                    *slot = f(av, bv);
                }
            }
            (0, 1) => {
                let av = a[a_off];
                for (slot, &bv) in chunk.iter_mut().zip(&b[b_off..b_off + inner]) {
                    *slot = f(av, bv);
                }
            }
            _ => {
                for (c, slot) in chunk.iter_mut().enumerate() {
                    *slot = f(a[a_off + c * a_in], b[b_off + c * b_in]);
                }
            }
        }
    }
}

/// Copies `src`, read through one stride per dimension of `dims`, into
/// the row-major `out` — the layout half of [`Tensor::broadcast_to`]
/// (strides from [`broadcast_strides`]) and [`Tensor::permute`] (the
/// source's strides in permuted order). Same walk as
/// [`zip_broadcast_odometer`], one source instead of two.
pub(crate) fn gather_strided(src: &[f32], out: &mut [f32], strides: &[usize], dims: &[usize]) {
    if out.is_empty() {
        return;
    }
    let inner = dims.last().copied().unwrap_or(1);
    let step = strides.last().copied().unwrap_or(0);
    for (chunk, [off]) in out.chunks_mut(inner).zip(RowOffsets::new(dims, [strides])) {
        match step {
            1 => chunk.copy_from_slice(&src[off..off + inner]),
            0 => chunk.fill(src[off]),
            _ => {
                for (c, slot) in chunk.iter_mut().enumerate() {
                    *slot = src[off + c * step];
                }
            }
        }
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait<&Tensor> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.zip_broadcast(rhs, |a, b| a $op b)
            }
        }
        impl $trait<Tensor> for Tensor {
            type Output = Tensor;
            fn $method(self, rhs: Tensor) -> Tensor {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Tensor> for Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                (&self).$method(rhs)
            }
        }
        impl $trait<Tensor> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: Tensor) -> Tensor {
                self.$method(&rhs)
            }
        }
    };
}

impl_binop!(Add, add, +);
impl_binop!(Sub, sub, -);
impl_binop!(Mul, mul, *);
impl_binop!(Div, div, /);

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|x| -x)
    }
}

impl Neg for Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        -&self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use crate::backend::BackendKind;
    use crate::shape::Shape;
    use proptest::prelude::*;

    /// The walk the odometer replaced, kept verbatim as its oracle:
    /// unravel every output index with a div/mod per dimension and
    /// re-linearize it against each operand's broadcast strides.
    fn zip_broadcast_naive(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        fn strides_in(src_dims: &[usize], out_dims: &[usize]) -> Vec<usize> {
            let pad = out_dims.len() - src_dims.len();
            let src_strides = Shape::new(src_dims).strides();
            let mut strides = vec![0usize; out_dims.len()];
            for i in 0..src_dims.len() {
                strides[pad + i] = if src_dims[i] == 1 { 0 } else { src_strides[i] };
            }
            strides
        }
        let offset = |idx: &[usize], strides: &[usize]| -> usize {
            idx.iter().zip(strides.iter()).map(|(&i, &s)| i * s).sum()
        };
        let out_dims = broadcast_shapes(a.shape(), b.shape()).expect("compatible shapes");
        let out_shape = Shape::new(&out_dims);
        let mut out = vec![0.0; out_shape.len()];
        let (a_str, b_str) = (strides_in(a.shape(), &out_dims), strides_in(b.shape(), &out_dims));
        let strides = out_shape.strides();
        let ndim = out_dims.len();
        let mut idx = vec![0usize; ndim];
        for (lin, slot) in out.iter_mut().enumerate() {
            let mut rem = lin;
            for i in 0..ndim {
                idx[i] = rem / strides[i];
                rem %= strides[i];
            }
            *slot = f(a.data()[offset(&idx, &a_str)], b.data()[offset(&idx, &b_str)]);
        }
        Tensor::from_vec(out, &out_dims)
    }

    fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}: data");
    }

    /// One operand of a broadcast over `dims`: drop `drop` leading
    /// dimensions, and stretch (extent 1) every dimension whose bit in
    /// `stretch` is set.
    fn operand_dims(dims: &[usize], drop: usize, stretch: u8) -> Vec<usize> {
        let drop = drop.min(dims.len());
        dims.iter()
            .enumerate()
            .skip(drop)
            .map(|(i, &d)| if stretch >> i & 1 == 1 { 1 } else { d })
            .collect()
    }

    fn ramp(dims: &[usize], start: f32, step: f32) -> Tensor {
        Tensor::arange(dims.iter().product(), start, step).reshape(dims)
    }

    proptest! {
        /// Ranks 0–5, extents 0–4 (so extent-1 and zero-extent
        /// dimensions are common), either operand missing leading
        /// dimensions or stretched along any subset: every inner stride
        /// pattern — (1,1), (1,0), (0,1), (0,0) — and the same-shape
        /// fast path all occur.
        #[test]
        fn zip_broadcast_matches_unravel_oracle(
            dims in proptest::collection::vec(0usize..5, 0..6),
            (a_drop, a_stretch) in (0usize..6, 0u8..32),
            (b_drop, b_stretch) in (0usize..6, 0u8..32),
        ) {
            let a = ramp(&operand_dims(&dims, a_drop, a_stretch), -1.0, 0.7);
            let b = ramp(&operand_dims(&dims, b_drop, b_stretch), 2.0, -0.4);
            let want = zip_broadcast_naive(&a, &b, |x, y| x * 2.0 - y);
            for kind in BackendKind::ALL {
                let got = a.clone().on(kind).zip_broadcast(&b, |x, y| x * 2.0 - y);
                assert_same_bits(&got, &want, &format!("{:?} ? {:?}", a.shape(), b.shape()));
                assert_eq!(got.backend(), kind);
            }
        }

        #[test]
        fn broadcast_to_matches_unravel_oracle(
            dims in proptest::collection::vec(0usize..5, 0..6),
            (drop, stretch) in (0usize..6, 0u8..32),
        ) {
            let src = ramp(&operand_dims(&dims, drop, stretch), 0.5, 1.25);
            let want = zip_broadcast_naive(&src, &Tensor::zeros(&dims), |a, _| a);
            assert_same_bits(&src.broadcast_to(&dims), &want, &format!("{:?}", src.shape()));
        }
    }

    #[test]
    fn add_same_shape() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[10.0, 20.0]);
        assert_eq!((&a + &b).data(), &[11.0, 22.0]);
    }

    #[test]
    fn broadcast_row_vector() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_slice(&[10.0, 20.0, 30.0]);
        let c = &a + &b;
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn broadcast_column_vector() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![100.0, 200.0], &[2, 1]);
        let c = &a + &b;
        assert_eq!(c.data(), &[101.0, 102.0, 103.0, 204.0, 205.0, 206.0]);
    }

    #[test]
    fn broadcast_scalar_tensor() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let s = Tensor::scalar(5.0);
        assert_eq!((&a * &s).data(), &[5.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "broadcast-compatible")]
    fn incompatible_broadcast_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4]);
        let _ = &a + &b;
    }

    #[test]
    fn broadcast_to_expands() {
        let b = Tensor::from_slice(&[1.0, 2.0]);
        let e = b.broadcast_to(&[3, 2]);
        assert_eq!(e.shape(), &[3, 2]);
        assert_eq!(e.data(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn sigmoid_stable_in_tails() {
        let t = Tensor::from_slice(&[-100.0, 0.0, 100.0]);
        let s = t.sigmoid();
        assert!(s.all_finite());
        assert_close(s.data(), &[0.0, 0.5, 1.0], 1e-6);
    }

    #[test]
    fn relu_and_clamp() {
        let t = Tensor::from_slice(&[-1.0, 0.5, 2.0]);
        assert_eq!(t.relu().data(), &[0.0, 0.5, 2.0]);
        assert_eq!(t.clamp(0.0, 1.0).data(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        let g = Tensor::from_slice(&[2.0, 4.0]);
        a.axpy(-0.5, &g);
        assert_eq!(a.data(), &[0.0, -1.0]);
    }

    #[test]
    fn neg_and_div() {
        let a = Tensor::from_slice(&[2.0, -4.0]);
        assert_eq!((-&a).data(), &[-2.0, 4.0]);
        let b = Tensor::from_slice(&[2.0, 2.0]);
        assert_eq!((&a / &b).data(), &[1.0, -2.0]);
    }
}
