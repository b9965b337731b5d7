//! 2-D convolution (im2col + GEMM) and pooling, with explicit backward
//! passes for the autograd layer to wrap.
//!
//! Layout convention is NCHW: `[batch, channels, height, width]`.
//!
//! The lowering ([`im2col_into`], [`col2im_one`]) computes nothing, so
//! no backend owns it: both walk the same row runs — per kernel tap,
//! the span of each output row whose input lies inside the image —
//! and move whole runs, never one bounds-tested element at a time.

use crate::tensor::Tensor;
use std::ops::Range;

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
    /// Panics on rank or channel mismatches, a weight kernel that
    /// disagrees with `spec`, or a bias that is not `[oc]`.
    pub fn conv2d(&self, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Tensor {
        let kind = self
            .backend()
            .join(weight.backend())
            .join(bias.map_or(self.backend(), |b| b.backend()));
        kind.imp().conv2d(self, weight, bias, spec).on(kind)
    }
}

/// Gradients of [`Tensor::conv2d`] with respect to input, weight and
/// bias.
///
/// Returns `(grad_input, grad_weight, grad_bias)`.
///
/// # Panics
///
/// Panics on the rank or channel mismatches [`Tensor::conv2d`] rejects,
/// or if `grad_out` does not have the forward output shape.
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

/// The output positions `o` in `0..out` whose input position
/// `o * stride + tap - padding` lies inside `0..extent`: where a kernel
/// tap reads the image rather than the zero border. Empty when the tap
/// only ever sees padding (possible once `padding >= kernel`).
fn inside(spec: Conv2dSpec, tap: usize, extent: usize, out: usize) -> Range<usize> {
    let lo = spec.padding.saturating_sub(tap).div_ceil(spec.stride);
    let hi = (extent + spec.padding).saturating_sub(tap).div_ceil(spec.stride).min(out);
    lo.min(hi)..hi
}

/// Visits every row run of one `[c, h, w]` sample in `(ci, ky, kx, oy)`
/// order as `f(col, src, len)`: `len` consecutive column-form elements
/// starting at `col` pair with the sample elements `src`, `src +
/// stride`, … — all inside the image, so `f` needs no bounds test.
/// Column-form elements that no run covers are padding.
fn for_each_run([c, h, w]: [usize; 3], spec: Conv2dSpec, mut f: impl FnMut(usize, usize, usize)) {
    let (k, s, pad) = (spec.kernel, spec.stride, spec.padding);
    let (oh, ow) = (spec.out_extent(h), spec.out_extent(w));
    for ci in 0..c {
        for ky in 0..k {
            let ys = inside(spec, ky, h, oh);
            for kx in 0..k {
                let xs = inside(spec, kx, w, ow);
                if xs.is_empty() {
                    continue;
                }
                let row = ((ci * k + ky) * k + kx) * oh * ow;
                let ix = xs.start * s + kx - pad;
                for oy in ys.clone() {
                    let iy = oy * s + ky - pad;
                    f(row + oy * ow + xs.start, (ci * h + iy) * w + ix, xs.len());
                }
            }
        }
    }
}

/// Lowers one `[c, h, w]` sample to column form `[c*k*k, oh*ow]` in a
/// caller-provided buffer, so one scratch allocation serves every
/// sample. Every element is written — runs copied, the gaps between
/// them zeroed — so the buffer need not be cleared.
pub(crate) fn im2col_into(sample: &[f32], dims: [usize; 3], spec: Conv2dSpec, cols: &mut [f32]) {
    let [c, h, w] = dims;
    let rows = c * spec.kernel * spec.kernel;
    assert_eq!(sample.len(), c * h * w, "im2col_into sample size mismatch");
    assert_eq!(
        cols.len(),
        rows * spec.out_extent(h) * spec.out_extent(w),
        "im2col_into buffer size mismatch"
    );
    let mut done = 0;
    for_each_run(dims, spec, |col, src, len| {
        cols[done..col].fill(0.0);
        done = col + len;
        let run = &mut cols[col..done];
        // A run is one output row, 6–24 elements in the timed models: an
        // inline loop beats a `memcpy` call at that length.
        if spec.stride == 1 {
            for (d, &v) in run.iter_mut().zip(&sample[src..src + len]) {
                *d = v;
            }
        } else {
            for (d, c) in run.iter_mut().zip(sample[src..].chunks(spec.stride)) {
                *d = c[0];
            }
        }
    });
    cols[done..].fill(0.0);
}

/// Adjoint of [`im2col_into`]: accumulates column gradients back into
/// the `[c, h, w]` gradient of one sample. Each element receives the
/// same addends in the same `(ky, kx, oy, ox)` order as a per-element
/// scatter would deliver them.
pub(crate) fn col2im_one(dcols: &[f32], grad: &mut [f32], dims: [usize; 3], spec: Conv2dSpec) {
    assert_eq!(grad.len(), dims.iter().product::<usize>(), "col2im_one gradient size mismatch");
    for_each_run(dims, spec, |col, dst, len| {
        let run = &dcols[col..col + len];
        if spec.stride == 1 {
            for (g, &v) in grad[dst..dst + len].iter_mut().zip(run) {
                *g += v;
            }
        } else {
            for (g, &v) in grad[dst..].chunks_mut(spec.stride).zip(run) {
                g[0] += v;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use crate::backend::{reference_gemm, reference_transpose, BackendKind};
    use crate::init::TensorRng;
    use proptest::prelude::*;

    impl Tensor {
        /// Direct (non-im2col) 2-D convolution: seven nested loops over
        /// the definition. The oracle of `im2col_matches_direct`; no
        /// shape class was found where it beats im2col + GEMM, so
        /// nothing dispatches to it.
        fn conv2d_direct(
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
                                        if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize
                                        {
                                            continue;
                                        }
                                        let iv = src
                                            [((ni * c + ci) * h + iy as usize) * w + ix as usize];
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

    /// The lowering the row runs replaced, kept verbatim as their
    /// oracle: a bounds test and three multiplies per element.
    fn im2col_per_element(
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

    /// The per-element adjoint the row runs replaced, kept verbatim.
    #[allow(clippy::too_many_arguments)]
    fn col2im_per_element(
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

    /// `Reference::conv2d` as it stood before the shared driver, kept
    /// verbatim (on the per-element lowering) as the driver's oracle.
    fn conv2d_parent(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv2dSpec,
    ) -> Tensor {
        let (n, c, h, w) = nchw(input);
        let ws = weight.shape();
        let (oc, kh, kw) = (ws[0], ws[2], ws[3]);
        let oh = spec.out_extent(h);
        let ow = spec.out_extent(w);
        let wmat = weight.reshape(&[oc, c * kh * kw]);
        let mut out = Vec::with_capacity(n * oc * oh * ow);
        for ni in 0..n {
            let mut cols = vec![0.0f32; c * kh * kw * oh * ow];
            im2col_per_element(input, ni, spec, oh, ow, &mut cols);
            let mut prod = vec![0.0f32; oc * oh * ow];
            reference_gemm(wmat.data(), &cols, &mut prod, oc, c * kh * kw, oh * ow);
            out.extend_from_slice(&prod);
        }
        let mut out = Tensor::from_vec(out, &[n, oc, oh, ow]);
        if let Some(b) = bias {
            let data = out.data_mut();
            for ni in 0..n {
                for o in 0..oc {
                    let bv = b.data()[o];
                    let base = (ni * oc + o) * oh * ow;
                    for v in &mut data[base..base + oh * ow] {
                        *v += bv;
                    }
                }
            }
        }
        out
    }

    /// `Reference::conv2d_backward` as it stood before the shared
    /// driver, kept verbatim likewise.
    fn conv2d_backward_parent(
        input: &Tensor,
        weight: &Tensor,
        grad_out: &Tensor,
        spec: Conv2dSpec,
    ) -> (Tensor, Tensor, Tensor) {
        let (n, c, h, w) = nchw(input);
        let ws = weight.shape();
        let (oc, _, kh, kw) = (ws[0], ws[1], ws[2], ws[3]);
        let oh = spec.out_extent(h);
        let ow = spec.out_extent(w);
        let wmat = weight.reshape(&[oc, c * kh * kw]);
        let wmat_t = wmat.transpose(); // [c*kh*kw, oc]
        let mut grad_w = Tensor::zeros(&[oc, c * kh * kw]);
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        let mut grad_b = vec![0.0f32; oc];
        for ni in 0..n {
            let go = grad_out.narrow(0, ni, 1).reshape(&[oc, oh * ow]);
            let mut cols = vec![0.0f32; c * kh * kw * oh * ow];
            im2col_per_element(input, ni, spec, oh, ow, &mut cols); // [c*kh*kw, oh*ow]
            grad_w.axpy(1.0, &{
                let mut prod = vec![0.0f32; oc * c * kh * kw];
                let cols_t = reference_transpose(&cols, c * kh * kw, oh * ow);
                reference_gemm(go.data(), &cols_t, &mut prod, oc, oh * ow, c * kh * kw);
                Tensor::from_vec(prod, &[oc, c * kh * kw])
            });
            let mut dcols = vec![0.0f32; c * kh * kw * oh * ow];
            reference_gemm(wmat_t.data(), go.data(), &mut dcols, c * kh * kw, oc, oh * ow);
            let dcols = Tensor::from_vec(dcols, &[c * kh * kw, oh * ow]);
            col2im_per_element(&dcols, &mut grad_in, ni, c, h, w, spec, oh, ow);
            for (o, acc) in grad_b.iter_mut().enumerate() {
                let s: f32 = go.data()[o * oh * ow..(o + 1) * oh * ow].iter().sum();
                *acc += s;
            }
        }
        (grad_in, grad_w.reshape(&[oc, c, kh, kw]), Tensor::from_vec(grad_b, &[oc]))
    }

    /// Uniform values with exact zeros sprinkled in, so the reference
    /// GEMM's zero-skip runs too.
    fn sample(rng: &mut TensorRng, shape: &[usize]) -> Tensor {
        let mut t = rng.uniform(shape, -2.0, 2.0);
        for v in t.data_mut().iter_mut().step_by(7) {
            *v = 0.0;
        }
        t
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        let bits = |t: &[f32]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}");
    }

    /// Kernel 1–5, stride 1–3, padding 0–3 (so `padding >= kernel`, where
    /// whole taps only see the border, is common), `h` and `w` drawn
    /// apart from the smallest extent the kernel fits up to 8 more (so
    /// `oh` or `ow` of 1 is common): the geometry of both proptests.
    fn geometry() -> impl Strategy<Value = (usize, usize, Conv2dSpec)> {
        (1usize..6, 1usize..4, 0usize..4, 0usize..9, 0usize..9).prop_map(|(k, s, p, eh, ew)| {
            let least = k.saturating_sub(2 * p).max(1);
            (least + eh, least + ew, Conv2dSpec::new(k, s, p))
        })
    }

    proptest! {
        #[test]
        fn row_runs_match_per_element_lowering(
            (h, w, spec) in geometry(),
            (n, c) in (1usize..3, 1usize..4),
            seed in 0u64..1 << 32,
        ) {
            let mut rng = TensorRng::new(seed);
            let input = sample(&mut rng, &[n, c, h, w]);
            let (oh, ow) = (spec.out_extent(h), spec.out_extent(w));
            let len = c * spec.kernel * spec.kernel * oh * ow;
            let what = format!("{h}x{w} {spec:?}");
            // `grad` starts non-zero: col2im accumulates, it does not assign.
            let mut grad = sample(&mut rng, &[n, c, h, w]);
            let mut want_grad = grad.clone();
            for ni in 0..n {
                let mut want = vec![f32::NAN; len];
                im2col_per_element(&input, ni, spec, oh, ow, &mut want);
                let mut got = vec![f32::NAN; len];
                let one = ni * c * h * w..(ni + 1) * c * h * w;
                im2col_into(&input.data()[one.clone()], [c, h, w], spec, &mut got);
                assert_same_bits(&got, &want, &format!("im2col {what}"));

                let dcols = sample(&mut rng, &[len / (oh * ow), oh * ow]);
                col2im_per_element(&dcols, &mut want_grad, ni, c, h, w, spec, oh, ow);
                col2im_one(dcols.data(), &mut grad.data_mut()[one], [c, h, w], spec);
            }
            assert_same_bits(grad.data(), want_grad.data(), &format!("col2im {what}"));
        }

        #[test]
        fn driver_matches_parent_reference_driver(
            (h, w, spec) in geometry(),
            (n, c, oc) in (1usize..4, 1usize..4, 1usize..4),
            seed in 0u64..1 << 32,
        ) {
            let mut rng = TensorRng::new(seed);
            let input = sample(&mut rng, &[n, c, h, w]);
            let weight = sample(&mut rng, &[oc, c, spec.kernel, spec.kernel]);
            let bias = sample(&mut rng, &[oc]);
            let want = conv2d_parent(&input, &weight, Some(&bias), spec);
            let want_plain = conv2d_parent(&input, &weight, None, spec);
            let grad_out = sample(&mut rng, want.shape());
            let (want_gi, want_gw, want_gb) = conv2d_backward_parent(&input, &weight, &grad_out, spec);
            for kind in BackendKind::ALL {
                let what = format!("{kind} {h}x{w} {spec:?}");
                let x = input.clone().on(kind);
                let got = x.conv2d(&weight, Some(&bias), spec);
                assert_eq!(got.shape(), want.shape(), "{what}");
                assert_same_bits(got.data(), want.data(), &what);
                assert_same_bits(x.conv2d(&weight, None, spec).data(), want_plain.data(), &what);
                let (gi, gw, gb) = conv2d_backward(&x, &weight, &grad_out, spec);
                assert_eq!((gi.shape(), gw.shape()), (want_gi.shape(), want_gw.shape()), "{what}");
                assert_same_bits(gi.data(), want_gi.data(), &format!("grad_input {what}"));
                assert_same_bits(gw.data(), want_gw.data(), &format!("grad_weight {what}"));
                assert_same_bits(gb.data(), want_gb.data(), &format!("grad_bias {what}"));
            }
        }
    }

    /// One `#[should_panic]` test per backend: the shared driver rejects
    /// a malformed call up front, in either direction.
    macro_rules! rejects {
        ($($name:ident: $expected:literal, |$x:ident| $call:expr;)*) => {$(
            mod $name {
                use super::*;

                #[test]
                #[should_panic(expected = $expected)]
                fn reference() {
                    let $x = Tensor::ones(&[2, 3, 5, 5]).on(BackendKind::Reference);
                    $call;
                }

                #[test]
                #[should_panic(expected = $expected)]
                fn blocked() {
                    let $x = Tensor::ones(&[2, 3, 5, 5]).on(BackendKind::Blocked);
                    $call;
                }
            }
        )*};
    }

    rejects! {
        backward_rejects_weight_rank: "conv2d weight must be 4-D", |x| conv2d_backward(
            &x, &Tensor::ones(&[4, 3, 3]), &Tensor::ones(&[2, 4, 5, 5]), Conv2dSpec::new(3, 1, 1));
        backward_rejects_channel_mismatch: "conv2d channel mismatch", |x| conv2d_backward(
            &x, &Tensor::ones(&[4, 2, 3, 3]), &Tensor::ones(&[2, 4, 5, 5]), Conv2dSpec::new(3, 1, 1));
        backward_rejects_kernel_disagreeing_with_spec: "disagrees with spec", |x| conv2d_backward(
            &x, &Tensor::ones(&[4, 3, 3, 3]), &Tensor::ones(&[2, 4, 5, 5]), Conv2dSpec::new(1, 1, 0));
        forward_rejects_weight_rank: "conv2d weight must be 4-D",
            |x| x.conv2d(&Tensor::ones(&[4, 3, 3]), None, Conv2dSpec::new(3, 1, 1));
        forward_rejects_bias_shape: "conv2d bias must be [4]", |x| x.conv2d(
            &Tensor::ones(&[4, 3, 3, 3]), Some(&Tensor::ones(&[3])), Conv2dSpec::new(3, 1, 1));
    }

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
        let x = rng.normal(&[2, 3, 6, 5], 0.0, 1.0);
        let b = rng.normal(&[4], 0.0, 0.1);
        // (1, 1, 0) takes the no-lowering path; (2, 3, 3) has taps that
        // only ever see padding.
        for (k, s, p) in [(3, 1, 1), (3, 2, 1), (3, 1, 0), (1, 1, 0), (1, 2, 0), (2, 3, 3)] {
            let spec = Conv2dSpec::new(k, s, p);
            let w = rng.normal(&[4, 3, k, k], 0.0, 0.5);
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
