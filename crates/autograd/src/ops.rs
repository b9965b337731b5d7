//! Differentiable arithmetic, shape and reduction operations on [`Var`].

use crate::var::Var;
use mlperf_tensor::Tensor;

impl Var {
    /// Elementwise addition with broadcasting.
    pub fn add(&self, rhs: &Var) -> Var {
        let out = &*self.value() + &*rhs.value();
        let (sa, sb) = (self.shape(), rhs.shape());
        Var::from_op(
            out,
            vec![self.clone(), rhs.clone()],
            Box::new(move |g| vec![Some(g.sum_to(&sa)), Some(g.sum_to(&sb))]),
        )
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&self, rhs: &Var) -> Var {
        let out = &*self.value() - &*rhs.value();
        let (sa, sb) = (self.shape(), rhs.shape());
        Var::from_op(
            out,
            vec![self.clone(), rhs.clone()],
            Box::new(move |g| vec![Some(g.sum_to(&sa)), Some((-g).sum_to(&sb))]),
        )
    }

    /// Elementwise multiplication with broadcasting.
    pub fn mul(&self, rhs: &Var) -> Var {
        let a = self.value_clone();
        let b = rhs.value_clone();
        let out = &a * &b;
        let (sa, sb) = (self.shape(), rhs.shape());
        Var::from_op(
            out,
            vec![self.clone(), rhs.clone()],
            Box::new(move |g| vec![Some((g * &b).sum_to(&sa)), Some((g * &a).sum_to(&sb))]),
        )
    }

    /// Elementwise division with broadcasting.
    pub fn div(&self, rhs: &Var) -> Var {
        let a = self.value_clone();
        let b = rhs.value_clone();
        let out = &a / &b;
        let (sa, sb) = (self.shape(), rhs.shape());
        Var::from_op(
            out,
            vec![self.clone(), rhs.clone()],
            Box::new(move |g| {
                let ga = (g / &b).sum_to(&sa);
                let gb = (-(g * &a) / (&b * &b)).sum_to(&sb);
                vec![Some(ga), Some(gb)]
            }),
        )
    }

    /// Negation.
    pub fn neg(&self) -> Var {
        let out = -&*self.value();
        Var::from_op(out, vec![self.clone()], Box::new(|g| vec![Some(-g)]))
    }

    /// Multiplication by a scalar.
    pub fn scale(&self, s: f32) -> Var {
        let out = self.value().scale(s);
        Var::from_op(out, vec![self.clone()], Box::new(move |g| vec![Some(g.scale(s))]))
    }

    /// Addition of a scalar.
    pub fn add_scalar(&self, s: f32) -> Var {
        let out = self.value().add_scalar(s);
        Var::from_op(out, vec![self.clone()], Box::new(|g| vec![Some(g.clone())]))
    }

    /// Elementwise square.
    pub fn square(&self) -> Var {
        let a = self.value_clone();
        let out = a.square();
        Var::from_op(out, vec![self.clone()], Box::new(move |g| vec![Some(g * a.scale(2.0))]))
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Var {
        let out = self.value().sqrt();
        let o = out.clone();
        Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| vec![Some(g * o.scale(2.0).recip())]),
        )
    }

    /// Elementwise natural exponential.
    pub fn exp(&self) -> Var {
        let out = self.value().exp();
        let o = out.clone();
        Var::from_op(out, vec![self.clone()], Box::new(move |g| vec![Some(g * &o)]))
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Var {
        let a = self.value_clone();
        let out = a.ln();
        Var::from_op(out, vec![self.clone()], Box::new(move |g| vec![Some(g * a.recip())]))
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        let a = self.value_clone();
        let out = a.relu();
        Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| {
                let mask = a.map(|x| if x > 0.0 { 1.0 } else { 0.0 });
                vec![Some(g * mask)]
            }),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let out = self.value().sigmoid();
        let o = out.clone();
        Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| {
                let ds = o.zip_broadcast(&o, |s, _| s * (1.0 - s));
                vec![Some(g * ds)]
            }),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        let out = self.value().tanh();
        let o = out.clone();
        Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| {
                let dt = o.map(|t| 1.0 - t * t);
                vec![Some(g * dt)]
            }),
        )
    }

    /// Sum of all elements, as a scalar node.
    pub fn sum(&self) -> Var {
        let out = Tensor::scalar(self.value().sum());
        let shape = self.shape();
        Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| vec![Some(Tensor::full(&shape, g.item()))]),
        )
    }

    /// Mean of all elements, as a scalar node.
    pub fn mean(&self) -> Var {
        let n = self.value().len() as f32;
        self.sum().scale(1.0 / n)
    }

    /// Sum along `axis` (keeping the dimension as extent 1 when
    /// `keepdim`).
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Var {
        let out = self.value().sum_axis(axis, keepdim);
        let in_shape = self.shape();
        Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| {
                // Re-insert the axis if it was squeezed, then broadcast.
                let mut gshape = g.shape().to_vec();
                if gshape.len() != in_shape.len() {
                    gshape.insert(axis, 1);
                }
                let g = g.reshape(&gshape);
                vec![Some(g.broadcast_to(&in_shape))]
            }),
        )
    }

    /// Mean along `axis`.
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Var {
        let extent = self.shape()[axis] as f32;
        self.sum_axis(axis, keepdim).scale(1.0 / extent)
    }

    /// Reshape (same element count).
    pub fn reshape(&self, shape: &[usize]) -> Var {
        let out = self.value().reshape(shape);
        let in_shape = self.shape();
        Var::from_op(out, vec![self.clone()], Box::new(move |g| vec![Some(g.reshape(&in_shape))]))
    }

    /// 2-D transpose.
    pub fn transpose(&self) -> Var {
        let out = self.value().transpose();
        Var::from_op(out, vec![self.clone()], Box::new(|g| vec![Some(g.transpose())]))
    }

    /// Permutes dimensions.
    pub fn permute(&self, perm: &[usize]) -> Var {
        let out = self.value().permute(perm);
        // Inverse permutation for the backward pass.
        let mut inv = vec![0usize; perm.len()];
        for (i, &p) in perm.iter().enumerate() {
            inv[p] = i;
        }
        Var::from_op(out, vec![self.clone()], Box::new(move |g| vec![Some(g.permute(&inv))]))
    }

    /// Matrix multiplication of 2-D nodes.
    pub fn matmul(&self, rhs: &Var) -> Var {
        let a = self.value_clone();
        let b = rhs.value_clone();
        let out = a.matmul(&b);
        Var::from_op(
            out,
            vec![self.clone(), rhs.clone()],
            Box::new(move |g| vec![Some(g.matmul_abt(&b)), Some(a.matmul_atb(g))]),
        )
    }

    /// Fused affine map `self · rhs + bias` (dense-layer forward) —
    /// numerically identical to `matmul` followed by `add`, in one
    /// kernel pass with no intermediate tensor.
    pub fn matmul_bias(&self, rhs: &Var, bias: &Var) -> Var {
        let a = self.value_clone();
        let b = rhs.value_clone();
        let bias_shape = bias.shape();
        let out = a.matmul_bias(&b, &bias.value());
        Var::from_op(
            out,
            vec![self.clone(), rhs.clone(), bias.clone()],
            Box::new(move |g| {
                vec![Some(g.matmul_abt(&b)), Some(a.matmul_atb(g)), Some(g.sum_to(&bias_shape))]
            }),
        )
    }

    /// Batched matrix multiplication of 3-D nodes.
    pub fn bmm(&self, rhs: &Var) -> Var {
        let a = self.value_clone();
        let b = rhs.value_clone();
        let out = a.bmm(&b);
        Var::from_op(
            out,
            vec![self.clone(), rhs.clone()],
            Box::new(move |g| vec![Some(g.bmm_abt(&b)), Some(a.bmm_atb(g))]),
        )
    }

    /// Narrow along an axis (the gradient scatters back into a
    /// zero-padded tensor of the original shape).
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Var {
        let out = self.value().narrow(axis, start, len);
        let in_shape = self.shape();
        Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| {
                let mut full = Tensor::zeros(&in_shape);
                scatter_narrow(&mut full, g, axis, start);
                vec![Some(full)]
            }),
        )
    }

    /// Concatenates nodes along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty or shapes disagree outside `axis`.
    pub fn concat(vars: &[&Var], axis: usize) -> Var {
        assert!(!vars.is_empty(), "concat of zero vars");
        let values: Vec<Tensor> = vars.iter().map(|v| v.value_clone()).collect();
        let refs: Vec<&Tensor> = values.iter().collect();
        let out = Tensor::concat(&refs, axis);
        let extents: Vec<usize> = values.iter().map(|t| t.shape()[axis]).collect();
        let parents: Vec<Var> = vars.iter().map(|&v| v.clone()).collect();
        Var::from_op(
            out,
            parents,
            Box::new(move |g| {
                let mut grads = Vec::with_capacity(extents.len());
                let mut start = 0;
                for &e in &extents {
                    grads.push(Some(g.narrow(axis, start, e)));
                    start += e;
                }
                grads
            }),
        )
    }

    /// Gathers rows of a 2-D node (embedding lookup). The gradient
    /// scatter-adds into the source rows.
    pub fn gather_rows(&self, indices: &[usize]) -> Var {
        let out = self.value().gather_rows(indices);
        let idx = indices.to_vec();
        let in_shape = self.shape();
        Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| {
                let cols = in_shape[1];
                let mut full = Tensor::zeros(&in_shape);
                let (dst, src) = (full.data_mut(), g.data());
                for (r, &i) in idx.iter().enumerate() {
                    for c in 0..cols {
                        dst[i * cols + c] += src[r * cols + c];
                    }
                }
                vec![Some(full)]
            }),
        )
    }

    /// Gathers arbitrary flat elements into a 1-D node; the gradient
    /// scatter-adds back.
    pub fn gather_flat(&self, indices: &[usize]) -> Var {
        let out = self.value().gather_flat(indices);
        let idx = indices.to_vec();
        let in_shape = self.shape();
        Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| {
                let mut full = Tensor::zeros(&in_shape);
                let dst = full.data_mut();
                for (&i, &gv) in idx.iter().zip(g.data()) {
                    dst[i] += gv;
                }
                vec![Some(full)]
            }),
        )
    }

    /// Broadcasts to a larger shape (gradient sums back).
    pub fn broadcast_to(&self, dims: &[usize]) -> Var {
        let out = self.value().broadcast_to(dims);
        let in_shape = self.shape();
        Var::from_op(out, vec![self.clone()], Box::new(move |g| vec![Some(g.sum_to(&in_shape))]))
    }
}

/// Writes `src` into `dst` at offset `start` along `axis` (adjoint of
/// narrow).
fn scatter_narrow(dst: &mut Tensor, src: &Tensor, axis: usize, start: usize) {
    let dims = dst.shape().to_vec();
    let src_extent = src.shape()[axis];
    let outer: usize = dims[..axis].iter().product();
    let inner: usize = dims[axis + 1..].iter().product();
    let (out, src) = (dst.data_mut(), src.data());
    for o in 0..outer {
        let dst_base = o * dims[axis] * inner + start * inner;
        let src_base = o * src_extent * inner;
        out[dst_base..dst_base + src_extent * inner]
            .copy_from_slice(&src[src_base..src_base + src_extent * inner]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_tensor::assert_close;

    fn grad_of(loss: &Var, w: &Var) -> Tensor {
        w.zero_grad();
        loss.backward();
        w.grad().expect("gradient present")
    }

    #[test]
    fn add_broadcast_grad_sums() {
        let w = Var::param(Tensor::from_slice(&[1.0, 2.0])); // [2]
        let x = Var::constant(Tensor::ones(&[3, 2]));
        let loss = x.add(&w).sum();
        let g = grad_of(&loss, &w);
        assert_eq!(g.data(), &[3.0, 3.0]);
    }

    #[test]
    fn mul_grad() {
        let a = Var::param(Tensor::from_slice(&[2.0, 3.0]));
        let b = Var::param(Tensor::from_slice(&[5.0, 7.0]));
        let loss = a.mul(&b).sum();
        loss.backward();
        assert_eq!(a.grad().unwrap().data(), &[5.0, 7.0]);
        assert_eq!(b.grad().unwrap().data(), &[2.0, 3.0]);
    }

    #[test]
    fn div_grad() {
        let a = Var::param(Tensor::from_slice(&[6.0]));
        let b = Var::param(Tensor::from_slice(&[3.0]));
        let loss = a.div(&b).sum();
        loss.backward();
        assert_close(a.grad().unwrap().data(), &[1.0 / 3.0], 1e-6);
        assert_close(b.grad().unwrap().data(), &[-6.0 / 9.0], 1e-6);
    }

    #[test]
    fn matmul_grads() {
        let a = Var::param(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let b = Var::param(Tensor::eye(2));
        let loss = a.matmul(&b).sum();
        loss.backward();
        assert_eq!(a.grad().unwrap().data(), &[1.0; 4]);
        assert_eq!(b.grad().unwrap().data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn bmm_grads_match_matmul_per_batch() {
        let a = Var::param(Tensor::arange(8, 0.5, 0.25).reshape(&[2, 2, 2]));
        let b = Var::param(Tensor::arange(8, -0.5, 0.5).reshape(&[2, 2, 2]));
        let loss = a.bmm(&b).sum();
        loss.backward();
        let ga = a.grad().unwrap();

        // Compare against independent per-batch matmul graphs.
        for bi in 0..2 {
            let a2 = Var::param(a.value().narrow(0, bi, 1).reshape(&[2, 2]));
            let b2 = Var::constant(b.value().narrow(0, bi, 1).reshape(&[2, 2]));
            let l2 = a2.matmul(&b2).sum();
            l2.backward();
            let expected = a2.grad().unwrap();
            let got = ga.narrow(0, bi, 1).reshape(&[2, 2]);
            assert_close(got.data(), expected.data(), 1e-5);
        }
    }

    #[test]
    fn relu_masks_gradient() {
        let w = Var::param(Tensor::from_slice(&[-1.0, 2.0]));
        let loss = w.relu().sum();
        loss.backward();
        assert_eq!(w.grad().unwrap().data(), &[0.0, 1.0]);
    }

    #[test]
    fn sigmoid_grad_peak_at_zero() {
        let w = Var::param(Tensor::from_slice(&[0.0]));
        let loss = w.sigmoid().sum();
        loss.backward();
        assert_close(w.grad().unwrap().data(), &[0.25], 1e-6);
    }

    #[test]
    fn tanh_grad_at_zero_is_one() {
        let w = Var::param(Tensor::from_slice(&[0.0]));
        let loss = w.tanh().sum();
        loss.backward();
        assert_close(w.grad().unwrap().data(), &[1.0], 1e-6);
    }

    #[test]
    fn exp_ln_chain() {
        // loss = ln(exp(w)) = w, gradient 1 everywhere.
        let w = Var::param(Tensor::from_slice(&[0.3, -0.7]));
        let loss = w.exp().ln().sum();
        loss.backward();
        assert_close(w.grad().unwrap().data(), &[1.0, 1.0], 1e-5);
    }

    #[test]
    fn mean_axis_grad_uniform() {
        let w = Var::param(Tensor::ones(&[2, 4]));
        let loss = w.mean_axis(1, false).sum();
        loss.backward();
        assert_close(w.grad().unwrap().data(), &[0.25; 8], 1e-6);
    }

    #[test]
    fn sum_axis_keepdim_grad() {
        let w = Var::param(Tensor::ones(&[2, 3]));
        let loss = w.sum_axis(0, true).sum();
        loss.backward();
        assert_eq!(w.grad().unwrap().data(), &[1.0; 6]);
    }

    #[test]
    fn reshape_transpose_roundtrip_grad() {
        let w = Var::param(Tensor::arange(6, 0.0, 1.0).reshape(&[2, 3]));
        let loss = w.transpose().reshape(&[6]).sum();
        loss.backward();
        assert_eq!(w.grad().unwrap().data(), &[1.0; 6]);
    }

    #[test]
    fn narrow_grad_zero_padded() {
        let w = Var::param(Tensor::arange(6, 0.0, 1.0).reshape(&[2, 3]));
        let loss = w.narrow(1, 1, 2).sum();
        loss.backward();
        assert_eq!(w.grad().unwrap().data(), &[0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn concat_splits_gradient() {
        let a = Var::param(Tensor::ones(&[1, 2]));
        let b = Var::param(Tensor::ones(&[1, 3]));
        let cat = Var::concat(&[&a, &b], 1);
        let loss =
            cat.mul(&Var::constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0], &[1, 5]))).sum();
        loss.backward();
        assert_eq!(a.grad().unwrap().data(), &[1.0, 2.0]);
        assert_eq!(b.grad().unwrap().data(), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn gather_rows_scatter_adds() {
        let table = Var::param(Tensor::zeros(&[4, 2]));
        let emb = table.gather_rows(&[1, 1, 3]);
        let loss = emb.sum();
        loss.backward();
        let g = table.grad().unwrap();
        assert_eq!(g.data(), &[0.0, 0.0, 2.0, 2.0, 0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn gather_flat_scatter_adds() {
        let w = Var::param(Tensor::zeros(&[5]));
        let picked = w.gather_flat(&[0, 0, 4]);
        picked.sum().backward();
        assert_eq!(w.grad().unwrap().data(), &[2.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn permute_grad_inverse() {
        let w = Var::param(Tensor::arange(24, 0.0, 1.0).reshape(&[2, 3, 4]));
        let loss = w.permute(&[2, 0, 1]).sum();
        loss.backward();
        assert_eq!(w.grad().unwrap().data(), &vec![1.0; 24][..]);
    }

    #[test]
    fn broadcast_to_grad_sums_back() {
        let w = Var::param(Tensor::from_slice(&[1.0, 2.0]));
        let loss = w.broadcast_to(&[5, 2]).sum();
        loss.backward();
        assert_eq!(w.grad().unwrap().data(), &[5.0, 5.0]);
    }
}
