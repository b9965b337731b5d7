//! 2-D convolution (im2col and direct variants) and pooling, with
//! explicit backward passes for the autograd layer to wrap.
//!
//! Layout convention is NCHW: `[batch, channels, height, width]`.

use crate::tensor::Tensor;

/// Stride / padding / kernel configuration of a 2-D convolution or
/// pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Square kernel extent.
    pub kernel: usize,
    /// Step between window applications.
    pub stride: usize,
    /// Zero padding applied on every border.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        assert!(stride > 0, "stride must be positive");
        Conv2dSpec { kernel, stride, padding }
    }

    /// Output spatial extent for an input extent.
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel.
    pub fn out_extent(&self, input: usize) -> usize {
        let padded = input + 2 * self.padding;
        assert!(
            padded >= self.kernel,
            "padded extent {padded} smaller than kernel {}",
            self.kernel
        );
        (padded - self.kernel) / self.stride + 1
    }
}

impl Tensor {
    /// 2-D convolution via im2col + GEMM.
    ///
    /// `self` is `[n, c, h, w]`, `weight` is `[oc, c, k, k]`, `bias` is
    /// `[oc]` if present. Returns `[n, oc, oh, ow]`.
    ///
    /// # Panics
    ///
    /// Panics on rank or channel mismatches.
    pub fn conv2d(&self, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Tensor {
        let kind = self
            .backend()
            .join(weight.backend())
            .join(bias.map_or(self.backend(), |b| b.backend()));
        kind.imp().conv2d(self, weight, bias, spec).on(kind)
    }

    /// Direct (non-im2col) 2-D convolution. Mathematically identical to
    /// [`Tensor::conv2d`]; kept as the baseline for the kernel-choice
    /// ablation bench (the paper's §2.2.4 discusses algorithmic variants
    /// of the same operator).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Tensor::conv2d`].
    pub fn conv2d_direct(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv2dSpec,
    ) -> Tensor {
        let (n, c, h, w) = nchw(self);
        let ws = weight.shape();
        assert_eq!(ws.len(), 4, "conv2d weight must be 4-D");
        let (oc, wc, k, _) = (ws[0], ws[1], ws[2], ws[3]);
        assert_eq!(wc, c, "conv2d channel mismatch");
        let oh = spec.out_extent(h);
        let ow = spec.out_extent(w);
        let mut out = vec![0.0; n * oc * oh * ow];
        let (src, wdata) = (self.data(), weight.data());
        let pad = spec.padding as isize;
        for ni in 0..n {
            for o in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.map_or(0.0, |b| b.data()[o]);
                        for ci in 0..c {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy = (oy * spec.stride + ky) as isize - pad;
                                    let ix = (ox * spec.stride + kx) as isize - pad;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    let iv =
                                        src[((ni * c + ci) * h + iy as usize) * w + ix as usize];
                                    let wv = wdata[((o * c + ci) * k + ky) * k + kx];
                                    acc += iv * wv;
                                }
                            }
                        }
                        out[((ni * oc + o) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        Tensor::from_vec(out, &[n, oc, oh, ow])
    }
}

/// Gradients of [`Tensor::conv2d`] with respect to input, weight and
/// bias.
///
/// Returns `(grad_input, grad_weight, grad_bias)`.
///
/// # Panics
///
/// Panics if `grad_out` does not have the forward output shape.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: Conv2dSpec,
) -> (Tensor, Tensor, Tensor) {
    let kind = input.backend().join(weight.backend()).join(grad_out.backend());
    let (gi, gw, gb) = kind.imp().conv2d_backward(input, weight, grad_out, spec);
    (gi.on(kind), gw.on(kind), gb.on(kind))
}

/// Max pooling over square windows. Returns the pooled tensor and, for
/// each output element, the flat input index of its maximum (used by
/// [`max_pool2d_backward`]).
///
/// # Panics
///
/// Panics if the input is not 4-D.
pub fn max_pool2d(input: &Tensor, spec: Conv2dSpec) -> (Tensor, Vec<usize>) {
    let (n, c, h, w) = nchw(input);
    let oh = spec.out_extent(h);
    let ow = spec.out_extent(w);
    let mut out = Vec::with_capacity(n * c * oh * ow);
    let mut argmax = Vec::with_capacity(n * c * oh * ow);
    let src = input.data();
    let pad = spec.padding as isize;
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for ky in 0..spec.kernel {
                        for kx in 0..spec.kernel {
                            let iy = (oy * spec.stride + ky) as isize - pad;
                            let ix = (ox * spec.stride + kx) as isize - pad;
                            if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                continue;
                            }
                            let idx = ((ni * c + ci) * h + iy as usize) * w + ix as usize;
                            let v = src[idx];
                            if v > best {
                                best = v;
                                best_idx = idx;
                            }
                        }
                    }
                    out.push(best);
                    argmax.push(best_idx);
                }
            }
        }
    }
    (Tensor::from_vec(out, &[n, c, oh, ow]), argmax)
}

/// Scatters `grad_out` back through the argmax indices recorded by
/// [`max_pool2d`].
pub fn max_pool2d_backward(grad_out: &Tensor, argmax: &[usize], input_shape: &[usize]) -> Tensor {
    let mut grad_in = Tensor::zeros(input_shape);
    let dst = grad_in.data_mut();
    for (g, &idx) in grad_out.data().iter().zip(argmax.iter()) {
        dst[idx] += g;
    }
    grad_in
}

/// Average pooling over square windows (zero padding counts toward the
/// divisor, matching the count-include-pad convention).
pub fn avg_pool2d(input: &Tensor, spec: Conv2dSpec) -> Tensor {
    let (n, c, h, w) = nchw(input);
    let oh = spec.out_extent(h);
    let ow = spec.out_extent(w);
    let window = (spec.kernel * spec.kernel) as f32;
    let mut out = Vec::with_capacity(n * c * oh * ow);
    let src = input.data();
    let pad = spec.padding as isize;
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0;
                    for ky in 0..spec.kernel {
                        for kx in 0..spec.kernel {
                            let iy = (oy * spec.stride + ky) as isize - pad;
                            let ix = (ox * spec.stride + kx) as isize - pad;
                            if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                continue;
                            }
                            acc += src[((ni * c + ci) * h + iy as usize) * w + ix as usize];
                        }
                    }
                    out.push(acc / window);
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// Gradient of [`avg_pool2d`].
pub fn avg_pool2d_backward(grad_out: &Tensor, input_shape: &[usize], spec: Conv2dSpec) -> Tensor {
    let (n, c, h, w) = (input_shape[0], input_shape[1], input_shape[2], input_shape[3]);
    let oh = spec.out_extent(h);
    let ow = spec.out_extent(w);
    let window = (spec.kernel * spec.kernel) as f32;
    let mut grad_in = Tensor::zeros(input_shape);
    let (dst, go) = (grad_in.data_mut(), grad_out.data());
    let pad = spec.padding as isize;
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = go[((ni * c + ci) * oh + oy) * ow + ox] / window;
                    for ky in 0..spec.kernel {
                        for kx in 0..spec.kernel {
                            let iy = (oy * spec.stride + ky) as isize - pad;
                            let ix = (ox * spec.stride + kx) as isize - pad;
                            if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                continue;
                            }
                            dst[((ni * c + ci) * h + iy as usize) * w + ix as usize] += g;
                        }
                    }
                }
            }
        }
    }
    grad_in
}

pub(crate) fn nchw(t: &Tensor) -> (usize, usize, usize, usize) {
    let s = t.shape();
    assert_eq!(s.len(), 4, "expected NCHW 4-D tensor, got {:?}", s);
    (s[0], s[1], s[2], s[3])
}

/// Lowers one sample to column form: `[c*k*k, oh*ow]`.
pub(crate) fn im2col_one(
    input: &Tensor,
    ni: usize,
    spec: Conv2dSpec,
    oh: usize,
    ow: usize,
) -> Tensor {
    let (_, c, _, _) = nchw(input);
    let k = spec.kernel;
    let mut cols = vec![0.0f32; c * k * k * oh * ow];
    im2col_into(input, ni, spec, oh, ow, &mut cols);
    Tensor::from_vec(cols, &[c * k * k, oh * ow])
}

/// [`im2col_one`] into a caller-provided buffer of `c*k*k * oh*ow`
/// elements, so pooled kernels can reuse one scratch allocation per
/// worker. Every element is written; the buffer need not be zeroed.
pub(crate) fn im2col_into(
    input: &Tensor,
    ni: usize,
    spec: Conv2dSpec,
    oh: usize,
    ow: usize,
    cols: &mut [f32],
) {
    let (_, c, h, w) = nchw(input);
    let k = spec.kernel;
    let pad = spec.padding as isize;
    assert_eq!(cols.len(), c * k * k * oh * ow, "im2col_into buffer size mismatch");
    let src = input.data();
    for ci in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ci * k + ky) * k + kx;
                for oy in 0..oh {
                    let iy = (oy * spec.stride + ky) as isize - pad;
                    for ox in 0..ow {
                        let ix = (ox * spec.stride + kx) as isize - pad;
                        let v = if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                            0.0
                        } else {
                            src[((ni * c + ci) * h + iy as usize) * w + ix as usize]
                        };
                        cols[row * oh * ow + oy * ow + ox] = v;
                    }
                }
            }
        }
    }
}

/// Adjoint of [`im2col_one`]: accumulates column gradients back into the
/// padded input positions of sample `ni`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn col2im_one(
    dcols: &Tensor,
    grad_in: &mut Tensor,
    ni: usize,
    c: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
    oh: usize,
    ow: usize,
) {
    let k = spec.kernel;
    let pad = spec.padding as isize;
    let (dst, src) = (grad_in.data_mut(), dcols.data());
    for ci in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ci * k + ky) * k + kx;
                for oy in 0..oh {
                    let iy = (oy * spec.stride + ky) as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * spec.stride + kx) as isize - pad;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        dst[((ni * c + ci) * h + iy as usize) * w + ix as usize] +=
                            src[row * oh * ow + oy * ow + ox];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use crate::init::TensorRng;

    #[test]
    fn out_extent_formula() {
        let spec = Conv2dSpec::new(3, 1, 1);
        assert_eq!(spec.out_extent(8), 8); // "same" conv
        let spec = Conv2dSpec::new(2, 2, 0);
        assert_eq!(spec.out_extent(8), 4);
    }

    #[test]
    fn conv2d_identity_kernel() {
        // 1x1 kernel with weight 1.0 must reproduce the input.
        let x = Tensor::arange(16, 0.0, 1.0).reshape(&[1, 1, 4, 4]);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let y = x.conv2d(&w, None, Conv2dSpec::new(1, 1, 0));
        assert_eq!(y, x);
    }

    #[test]
    fn conv2d_known_values() {
        // 3x3 all-ones kernel over a 3x3 all-ones image, no padding:
        // single output = 9.
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let y = x.conv2d(&w, None, Conv2dSpec::new(3, 1, 0));
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.item(), 9.0);
    }

    #[test]
    fn conv2d_bias_added_per_channel() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::zeros(&[2, 1, 1, 1]);
        let b = Tensor::from_slice(&[1.5, -2.0]);
        let y = x.conv2d(&w, Some(&b), Conv2dSpec::new(1, 1, 0));
        assert_eq!(y.narrow(1, 0, 1).data(), &[1.5; 4]);
        assert_eq!(y.narrow(1, 1, 1).data(), &[-2.0; 4]);
    }

    #[test]
    fn im2col_matches_direct() {
        let mut rng = TensorRng::new(7);
        let x = rng.normal(&[2, 3, 6, 6], 0.0, 1.0);
        let w = rng.normal(&[4, 3, 3, 3], 0.0, 0.5);
        let b = rng.normal(&[4], 0.0, 0.1);
        for spec in [Conv2dSpec::new(3, 1, 1), Conv2dSpec::new(3, 2, 1), Conv2dSpec::new(3, 1, 0)] {
            let a = x.conv2d(&w, Some(&b), spec);
            let d = x.conv2d_direct(&w, Some(&b), spec);
            assert_eq!(a.shape(), d.shape());
            assert_close(a.data(), d.data(), 1e-4);
        }
    }

    #[test]
    fn conv2d_backward_matches_numeric_gradient() {
        let mut rng = TensorRng::new(11);
        let x = rng.normal(&[1, 2, 4, 4], 0.0, 1.0);
        let w = rng.normal(&[3, 2, 3, 3], 0.0, 0.5);
        let spec = Conv2dSpec::new(3, 1, 1);
        // Loss = sum(conv(x, w)); analytic gradient with grad_out = ones.
        let y = x.conv2d(&w, None, spec);
        let go = Tensor::ones(y.shape());
        let (gx, gw, _gb) = conv2d_backward(&x, &w, &go, spec);

        let eps = 1e-2;
        for probe in [0usize, 5, 17, 31] {
            let mut xp = x.clone();
            xp.data_mut()[probe] += eps;
            let mut xm = x.clone();
            xm.data_mut()[probe] -= eps;
            let num =
                (xp.conv2d(&w, None, spec).sum() - xm.conv2d(&w, None, spec).sum()) / (2.0 * eps);
            assert!(
                (num - gx.data()[probe]).abs() < 1e-2,
                "input grad mismatch at {probe}: numeric {num} vs analytic {}",
                gx.data()[probe]
            );
        }
        for probe in [0usize, 10, 29, 53] {
            let mut wp = w.clone();
            wp.data_mut()[probe] += eps;
            let mut wm = w.clone();
            wm.data_mut()[probe] -= eps;
            let num =
                (x.conv2d(&wp, None, spec).sum() - x.conv2d(&wm, None, spec).sum()) / (2.0 * eps);
            assert!(
                (num - gw.data()[probe]).abs() < 1e-2,
                "weight grad mismatch at {probe}: numeric {num} vs analytic {}",
                gw.data()[probe]
            );
        }
    }

    #[test]
    fn conv2d_bias_gradient_counts_positions() {
        let x = Tensor::ones(&[2, 1, 4, 4]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let spec = Conv2dSpec::new(3, 1, 1);
        let y = x.conv2d(&w, None, spec);
        let go = Tensor::ones(y.shape());
        let (_, _, gb) = conv2d_backward(&x, &w, &go, spec);
        // bias gradient = number of output positions summed over batch.
        assert_eq!(gb.data(), &[(2 * 4 * 4) as f32]);
    }

    #[test]
    fn max_pool_forward_and_backward() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        );
        let spec = Conv2dSpec::new(2, 2, 0);
        let (y, idx) = max_pool2d(&x, spec);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
        let go = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let gi = max_pool2d_backward(&go, &idx, x.shape());
        assert_eq!(gi.data()[5], 1.0);
        assert_eq!(gi.data()[7], 2.0);
        assert_eq!(gi.data()[13], 3.0);
        assert_eq!(gi.data()[15], 4.0);
        assert_eq!(gi.sum(), 10.0);
    }

    #[test]
    fn avg_pool_forward_and_backward() {
        let x = Tensor::arange(16, 1.0, 1.0).reshape(&[1, 1, 4, 4]);
        let spec = Conv2dSpec::new(2, 2, 0);
        let y = avg_pool2d(&x, spec);
        assert_close(y.data(), &[3.5, 5.5, 11.5, 13.5], 1e-6);
        let go = Tensor::ones(&[1, 1, 2, 2]);
        let gi = avg_pool2d_backward(&go, x.shape(), spec);
        assert_close(&[gi.sum()], &[4.0], 1e-5);
        assert_close(&[gi.data()[0]], &[0.25], 1e-6);
    }

    #[test]
    fn strided_conv_downsamples() {
        let x = Tensor::ones(&[1, 1, 8, 8]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let y = x.conv2d(&w, None, Conv2dSpec::new(3, 2, 1));
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
    }
}
