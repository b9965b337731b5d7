//! Matrix multiplication: 2-D GEMM, batched 3-D matmul, and the fused
//! transposed/bias variants the backward passes and layers use.
//!
//! Shape checking, output allocation, the batch loop of the `bmm*`
//! forms and the bias rows of `matmul_bias` live here, written once;
//! only the GEMM itself is dispatched to the backend the operands
//! resolve to (see [`BackendKind::join`](crate::BackendKind::join)).

use crate::backend::Backend;
use crate::tensor::Tensor;

impl Tensor {
    /// Matrix product of two 2-D tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the inner dimensions
    /// disagree.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul lhs must be 2-D, got {:?}", self.shape());
        assert_eq!(rhs.ndim(), 2, "matmul rhs must be 2-D, got {:?}", rhs.shape());
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (rhs.shape()[0], rhs.shape()[1]);
        assert_eq!(
            k,
            k2,
            "matmul inner dimension mismatch: {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
        let kind = self.backend().join(rhs.backend());
        let mut out = vec![0.0f32; m * n];
        kind.imp().gemm(self.data(), rhs.data(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n]).on(kind)
    }

    /// Fused `self · rhsᵀ`: `[m, c] x [n, c] -> [m, n]` (both operands
    /// contract over their **last** dimension).
    ///
    /// Numerically identical to `self.matmul(&rhs.transpose())` with the
    /// transpose a raw scratch copy instead of a second `Tensor`. This
    /// is the backward-pass form `grad · Bᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the last dimensions
    /// disagree.
    pub fn matmul_abt(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_abt lhs must be 2-D, got {:?}", self.shape());
        assert_eq!(rhs.ndim(), 2, "matmul_abt rhs must be 2-D, got {:?}", rhs.shape());
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (n, k2) = (rhs.shape()[0], rhs.shape()[1]);
        assert_eq!(
            k,
            k2,
            "matmul_abt contraction mismatch: {:?} x {:?}ᵀ",
            self.shape(),
            rhs.shape()
        );
        let kind = self.backend().join(rhs.backend());
        let mut out = vec![0.0f32; m * n];
        kind.imp().gemm_abt(self.data(), rhs.data(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n]).on(kind)
    }

    /// Fused `selfᵀ · rhs`: `[c, m] x [c, n] -> [m, n]` (both operands
    /// contract over their **first** dimension).
    ///
    /// Numerically identical to `self.transpose().matmul(rhs)` with the
    /// transpose a raw scratch copy instead of a second `Tensor`. This
    /// is the backward-pass form `Aᵀ · grad`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the first dimensions
    /// disagree.
    pub fn matmul_atb(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_atb lhs must be 2-D, got {:?}", self.shape());
        assert_eq!(rhs.ndim(), 2, "matmul_atb rhs must be 2-D, got {:?}", rhs.shape());
        let (k, m) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (rhs.shape()[0], rhs.shape()[1]);
        assert_eq!(
            k,
            k2,
            "matmul_atb contraction mismatch: {:?}ᵀ x {:?}",
            self.shape(),
            rhs.shape()
        );
        let kind = self.backend().join(rhs.backend());
        let mut out = vec![0.0f32; m * n];
        kind.imp().gemm_atb(self.data(), rhs.data(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n]).on(kind)
    }

    /// Fused affine map: `self · rhs + bias` with `bias` (`[n]`)
    /// broadcast over rows — what a dense layer computes, in one pass
    /// with no intermediate tensor.
    ///
    /// Numerically identical to `matmul` followed by a broadcast add.
    ///
    /// # Panics
    ///
    /// Panics on the [`Tensor::matmul`] conditions or if `bias` is not
    /// `[n]`.
    pub fn matmul_bias(&self, rhs: &Tensor, bias: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_bias lhs must be 2-D, got {:?}", self.shape());
        assert_eq!(rhs.ndim(), 2, "matmul_bias rhs must be 2-D, got {:?}", rhs.shape());
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (rhs.shape()[0], rhs.shape()[1]);
        assert_eq!(
            k,
            k2,
            "matmul_bias inner dimension mismatch: {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(bias.shape(), &[n], "matmul_bias bias must be [{n}], got {:?}", bias.shape());
        let kind = self.backend().join(rhs.backend()).join(bias.backend());
        let mut out = vec![0.0f32; m * n];
        kind.imp().gemm(self.data(), rhs.data(), &mut out, m, k, n);
        for i in 0..m {
            for (o, &bv) in out[i * n..i * n + n].iter_mut().zip(bias.data()) {
                *o += bv;
            }
        }
        Tensor::from_vec(out, &[m, n]).on(kind)
    }

    /// Batched matrix product of two 3-D tensors:
    /// `[b, m, k] x [b, k, n] -> [b, m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 3-D, batch sizes differ, or inner
    /// dimensions disagree.
    pub fn bmm(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 3, "bmm lhs must be 3-D, got {:?}", self.shape());
        assert_eq!(rhs.ndim(), 3, "bmm rhs must be 3-D, got {:?}", rhs.shape());
        let (b, m, k) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        let (b2, k2, n) = (rhs.shape()[0], rhs.shape()[1], rhs.shape()[2]);
        assert_eq!(b, b2, "bmm batch mismatch: {b} vs {b2}");
        assert_eq!(k, k2, "bmm inner dimension mismatch: {:?} x {:?}", self.shape(), rhs.shape());
        batched(self, rhs, [b, m, k, n], Backend::gemm)
    }

    /// Batched fused `self · rhsᵀ`: `[b, m, c] x [b, n, c] -> [b, m, n]`.
    ///
    /// Numerically identical to `self.bmm(&rhs.transpose_last2())`
    /// without the transposed `Tensor`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 3-D, batch sizes differ, or last
    /// dimensions disagree.
    pub fn bmm_abt(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 3, "bmm_abt lhs must be 3-D, got {:?}", self.shape());
        assert_eq!(rhs.ndim(), 3, "bmm_abt rhs must be 3-D, got {:?}", rhs.shape());
        let (b, m, k) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        let (b2, n, k2) = (rhs.shape()[0], rhs.shape()[1], rhs.shape()[2]);
        assert_eq!(b, b2, "bmm_abt batch mismatch: {b} vs {b2}");
        assert_eq!(k, k2, "bmm_abt contraction mismatch: {:?} x {:?}ᵀ", self.shape(), rhs.shape());
        batched(self, rhs, [b, m, k, n], Backend::gemm_abt)
    }

    /// Batched fused `selfᵀ · rhs`: `[b, c, m] x [b, c, n] -> [b, m, n]`.
    ///
    /// Numerically identical to `self.transpose_last2().bmm(rhs)`
    /// without the transposed `Tensor`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 3-D, batch sizes differ, or
    /// middle dimensions disagree.
    pub fn bmm_atb(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 3, "bmm_atb lhs must be 3-D, got {:?}", self.shape());
        assert_eq!(rhs.ndim(), 3, "bmm_atb rhs must be 3-D, got {:?}", rhs.shape());
        let (b, k, m) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        let (b2, k2, n) = (rhs.shape()[0], rhs.shape()[1], rhs.shape()[2]);
        assert_eq!(b, b2, "bmm_atb batch mismatch: {b} vs {b2}");
        assert_eq!(k, k2, "bmm_atb contraction mismatch: {:?}ᵀ x {:?}", self.shape(), rhs.shape());
        batched(self, rhs, [b, m, k, n], Backend::gemm_atb)
    }

    /// Transposes the last two dimensions of a 3-D tensor (copying).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 3-D.
    pub fn transpose_last2(&self) -> Tensor {
        assert_eq!(self.ndim(), 3, "transpose_last2 requires a 3-D tensor");
        self.permute(&[0, 2, 1])
    }
}

/// One of the backend's three GEMM forms (`gemm`, `gemm_abt`,
/// `gemm_atb`).
type GemmForm = fn(&'static dyn Backend, &[f32], &[f32], &mut [f32], usize, usize, usize);

/// The batch loop of the three `bmm*` forms: entry `bi` of each operand
/// is one contiguous block (`m·k`, `k·n` and `m·n` elements, whichever
/// side `gemm` reads transposed), multiplied independently.
fn batched(lhs: &Tensor, rhs: &Tensor, [batch, m, k, n]: [usize; 4], gemm: GemmForm) -> Tensor {
    let kind = lhs.backend().join(rhs.backend());
    let (a, b) = (lhs.data(), rhs.data());
    let mut out = vec![0.0f32; batch * m * n];
    for bi in 0..batch {
        gemm(
            kind.imp(),
            &a[bi * m * k..(bi + 1) * m * k],
            &b[bi * k * n..(bi + 1) * k * n],
            &mut out[bi * m * n..(bi + 1) * m * n],
            m,
            k,
            n,
        );
    }
    Tensor::from_vec(out, &[batch, m, n]).on(kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use crate::backend::{
        assert_bits_equal, buf, gemm_shapes, reference_gemm, reference_transpose, BackendKind,
    };
    use proptest::prelude::*;

    /// `Reference::bmm` as it stood when each backend had a batch loop
    /// of its own, verbatim: the oracle of the one in `batched`.
    fn reference_parent_bmm(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        for bi in 0..batch {
            reference_gemm(
                &a[bi * m * k..(bi + 1) * m * k],
                &b[bi * k * n..(bi + 1) * k * n],
                &mut out[bi * m * n..(bi + 1) * m * n],
                m,
                k,
                n,
            );
        }
    }

    /// `Reference::bmm_abt` likewise (with the `gemm_abt` it called).
    fn reference_parent_bmm_abt(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        for bi in 0..batch {
            let bt = reference_transpose(&b[bi * n * k..(bi + 1) * n * k], n, k); // [n,k] -> [k,n]
            reference_gemm(
                &a[bi * m * k..(bi + 1) * m * k],
                &bt,
                &mut out[bi * m * n..(bi + 1) * m * n],
                m,
                k,
                n,
            );
        }
    }

    /// `Reference::bmm_atb` likewise.
    fn reference_parent_bmm_atb(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        for bi in 0..batch {
            let at = reference_transpose(&a[bi * k * m..(bi + 1) * k * m], k, m); // [k,m] -> [m,k]
            reference_gemm(
                &at,
                &b[bi * k * n..(bi + 1) * k * n],
                &mut out[bi * m * n..(bi + 1) * m * n],
                m,
                k,
                n,
            );
        }
    }

    /// `Reference::gemm_bias` as it stood, verbatim: the oracle of the
    /// bias rows in `matmul_bias`.
    fn reference_parent_gemm_bias(
        a: &[f32],
        b: &[f32],
        bias: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        reference_gemm(a, b, out, m, k, n);
        for i in 0..m {
            for (o, &bv) in out[i * n..i * n + n].iter_mut().zip(bias.iter()) {
                *o += bv;
            }
        }
    }

    proptest! {
        /// The one batch loop and the one bias pass, on both backends,
        /// against the bodies `Reference` had of its own, to the bit.
        #[test]
        fn batch_loop_and_bias_rows_match_the_parent_reference(
            batch in 1usize..6,
            (m, k, n) in gemm_shapes(),
            seed in 0u64..1 << 32,
        ) {
            let sample = |shape: &[usize], salt: u64| {
                Tensor::from_vec(buf(shape.iter().product(), seed + salt), shape)
            };
            let (a, a_t) = (sample(&[batch, m, k], 0), sample(&[batch, k, m], 1));
            let (b, b_t) = (sample(&[batch, k, n], 2), sample(&[batch, n, k], 3));
            let bias = sample(&[n], 4);
            let zeros = || vec![0.0f32; batch * m * n];
            let (mut bmm, mut abt, mut atb, mut affine) = (zeros(), zeros(), zeros(), zeros());
            reference_parent_bmm(a.data(), b.data(), &mut bmm, batch, m, k, n);
            reference_parent_bmm_abt(a.data(), b_t.data(), &mut abt, batch, m, k, n);
            reference_parent_bmm_atb(a_t.data(), b.data(), &mut atb, batch, m, k, n);
            // The affine map sees the batch as `batch·m` rows of one matrix.
            let (rows, b0) = (batch * m, b.narrow(0, 0, 1).reshape(&[k, n]));
            reference_parent_gemm_bias(a.data(), b0.data(), bias.data(), &mut affine, rows, k, n);
            for kind in BackendKind::ALL {
                let what = format!("{kind} {batch}x{m}x{k}x{n}");
                let on = |t: &Tensor| t.clone().on(kind);
                let got = on(&a).bmm(&b);
                assert_eq!(got.shape(), &[batch, m, n], "{what}");
                assert_bits_equal(got.data(), &bmm, &format!("bmm {what}"));
                assert_bits_equal(on(&a).bmm_abt(&b_t).data(), &abt, &format!("bmm_abt {what}"));
                assert_bits_equal(on(&a_t).bmm_atb(&b).data(), &atb, &format!("bmm_atb {what}"));
                let got = on(&a).reshape(&[rows, k]).matmul_bias(&b0, &bias);
                assert_eq!(got.shape(), &[rows, n], "{what}");
                assert_bits_equal(got.data(), &affine, &format!("matmul_bias {what}"));
            }
        }
    }

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::arange(6, 1.0, 1.0).reshape(&[2, 3]);
        let i = Tensor::eye(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        let b = Tensor::from_vec(vec![2.0, 3.0, 5.0, 4.0, 6.0, 7.0], &[2, 3]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[3, 3]);
        assert_close(c.data(), &[2.0, 3.0, 5.0, 4.0, 6.0, 7.0, 6.0, 9.0, 12.0], 1e-6);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        a.matmul(&b);
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let a = Tensor::arange(12, 0.0, 1.0).reshape(&[2, 2, 3]);
        let b = Tensor::arange(12, 1.0, 0.5).reshape(&[2, 3, 2]);
        let c = a.bmm(&b);
        assert_eq!(c.shape(), &[2, 2, 2]);
        for bi in 0..2 {
            let a2 = a.narrow(0, bi, 1).reshape(&[2, 3]);
            let b2 = b.narrow(0, bi, 1).reshape(&[3, 2]);
            let expected = a2.matmul(&b2);
            let got = c.narrow(0, bi, 1).reshape(&[2, 2]);
            assert_close(got.data(), expected.data(), 1e-5);
        }
    }

    #[test]
    fn transpose_last2_swaps() {
        let a = Tensor::arange(12, 0.0, 1.0).reshape(&[2, 2, 3]);
        let t = a.transpose_last2();
        assert_eq!(t.shape(), &[2, 3, 2]);
        assert_eq!(t.at(&[1, 2, 0]), a.at(&[1, 0, 2]));
    }

    #[test]
    fn fused_transposed_variants_match_composition() {
        for kind in BackendKind::ALL {
            let a = Tensor::arange(12, -2.0, 0.7).reshape(&[3, 4]).on(kind);
            let b = Tensor::arange(20, 1.0, -0.3).reshape(&[5, 4]).on(kind);
            assert_eq!(a.matmul_abt(&b), a.matmul(&b.transpose()), "abt on {kind}");

            let a = Tensor::arange(12, -2.0, 0.7).reshape(&[4, 3]).on(kind);
            let b = Tensor::arange(20, 1.0, -0.3).reshape(&[4, 5]).on(kind);
            assert_eq!(a.matmul_atb(&b), a.transpose().matmul(&b), "atb on {kind}");

            let a = Tensor::arange(24, -2.0, 0.5).reshape(&[2, 3, 4]).on(kind);
            let b = Tensor::arange(40, 1.0, -0.2).reshape(&[2, 5, 4]).on(kind);
            assert_eq!(a.bmm_abt(&b), a.bmm(&b.transpose_last2()), "bmm_abt on {kind}");

            let a = Tensor::arange(24, -2.0, 0.5).reshape(&[2, 4, 3]).on(kind);
            let b = Tensor::arange(40, 1.0, -0.2).reshape(&[2, 4, 5]).on(kind);
            assert_eq!(a.bmm_atb(&b), a.transpose_last2().bmm(&b), "bmm_atb on {kind}");
        }
    }

    #[test]
    fn matmul_bias_matches_matmul_plus_bias() {
        for kind in BackendKind::ALL {
            let a = Tensor::arange(6, -1.0, 0.5).reshape(&[2, 3]).on(kind);
            let b = Tensor::arange(12, 0.3, 0.25).reshape(&[3, 4]).on(kind);
            let bias = Tensor::from_slice(&[0.1, -0.2, 0.3, -0.4]);
            let fused = a.matmul_bias(&b, &bias);
            let composed = &a.matmul(&b) + &bias;
            assert_eq!(fused, composed, "matmul_bias on {kind}");
            assert_eq!(fused.backend(), kind);
        }
    }

    #[test]
    fn backend_tag_propagates_through_matmul() {
        let a = Tensor::eye(2).on(BackendKind::Blocked);
        let b = Tensor::eye(2); // default: reference
        assert_eq!(a.matmul(&b).backend(), BackendKind::Blocked);
        assert_eq!(b.matmul(&a).backend(), BackendKind::Blocked);
        assert_eq!(b.matmul(&b).backend(), BackendKind::Reference);
    }
}
