//! Differentiable neural-network operations: convolution, pooling,
//! softmax and the loss functions used across the benchmark suite.

use crate::var::Var;
use mlperf_tensor::{
    avg_pool2d, avg_pool2d_backward, conv2d_backward_input, conv2d_backward_weight, max_pool2d,
    max_pool2d_backward, Conv2dSpec, Tensor,
};

impl Var {
    /// 2-D convolution (NCHW). `bias` is optional; see
    /// [`Tensor::conv2d`] for shape conventions. The backward pass runs
    /// in two halves: the input gradient now, and — when the weight and
    /// bias are parameters — their gradients on the gradient worker.
    pub fn conv2d(&self, weight: &Var, bias: Option<&Var>, spec: Conv2dSpec) -> Var {
        let x = self.value_clone();
        let w = weight.value_clone();
        let out = x.conv2d(&w, bias.map(|b| b.value_clone()).as_ref(), spec);
        let mut parents = vec![self.clone(), weight.clone()];
        let has_bias = bias.is_some();
        if let Some(b) = bias {
            parents.push(b.clone());
        }
        Var::from_op(out, parents, move |g, grads| {
            grads.put(0, || conv2d_backward_input(&x, &w, g, spec));
            let (x, w, g) = (x.clone(), w.clone(), g.clone());
            let weight_half = if has_bias { &[1, 2][..] } else { &[1] };
            grads.put_later(weight_half, move || {
                let (gw, gb) = conv2d_backward_weight(&x, &w, &g, spec);
                if has_bias {
                    vec![gw, gb]
                } else {
                    vec![gw]
                }
            });
        })
    }

    /// Max pooling over square windows (NCHW).
    pub fn max_pool2d(&self, spec: Conv2dSpec) -> Var {
        let (out, argmax) = max_pool2d(&self.value(), spec);
        let in_shape = self.shape();
        Var::from_op(out, vec![self.clone()], move |g, grads| {
            grads.put(0, || max_pool2d_backward(g, &argmax, &in_shape))
        })
    }

    /// Average pooling over square windows (NCHW).
    pub fn avg_pool2d(&self, spec: Conv2dSpec) -> Var {
        let out = avg_pool2d(&self.value(), spec);
        let in_shape = self.shape();
        Var::from_op(out, vec![self.clone()], move |g, grads| {
            grads.put(0, || avg_pool2d_backward(g, &in_shape, spec))
        })
    }

    /// Global average pooling: `[n, c, h, w] -> [n, c]`.
    pub fn global_avg_pool(&self) -> Var {
        let s = self.shape();
        assert_eq!(s.len(), 4, "global_avg_pool expects NCHW");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        self.reshape(&[n, c, h * w]).mean_axis(2, false).reshape(&[n, c])
    }

    /// Softmax along the last axis.
    pub fn softmax_last_axis(&self) -> Var {
        let out = self.value().softmax_last_axis();
        let s = out.clone();
        Var::from_op(out, vec![self.clone()], move |g, grads| {
            grads.put(0, || {
                // dx = s * (g - sum(g*s, last axis, keepdim))
                let last = s.ndim() - 1;
                let dot = (g * &s).sum_axis(last, true);
                &s * (g - dot.broadcast_to(g.shape()))
            })
        })
    }

    /// Log-softmax along the last axis.
    pub fn log_softmax_last_axis(&self) -> Var {
        let out = self.value().log_softmax_last_axis();
        let softmax = self.value().softmax_last_axis();
        Var::from_op(out, vec![self.clone()], move |g, grads| {
            grads.put(0, || {
                let last = softmax.ndim() - 1;
                let gsum = g.sum_axis(last, true);
                g - &softmax * gsum.broadcast_to(g.shape())
            })
        })
    }

    /// Mean cross-entropy between logits `[batch, classes]` and integer
    /// class labels, fused with softmax for numerical stability.
    ///
    /// # Panics
    ///
    /// Panics if the node is not 2-D, `labels.len()` differs from the
    /// batch size, or any label is out of range.
    pub fn cross_entropy_logits(&self, labels: &[usize]) -> Var {
        let s = self.shape();
        assert_eq!(s.len(), 2, "cross_entropy_logits expects [batch, classes]");
        let (batch, classes) = (s[0], s[1]);
        assert_eq!(labels.len(), batch, "label count must equal batch size");
        for &l in labels {
            assert!(l < classes, "label {l} out of range for {classes} classes");
        }
        let logp = self.value().log_softmax_last_axis();
        let mut loss = 0.0;
        for (b, &l) in labels.iter().enumerate() {
            loss -= logp.data()[b * classes + l];
        }
        loss /= batch as f32;
        let softmax = self.value().softmax_last_axis();
        let labels = labels.to_vec();
        Var::from_op(Tensor::scalar(loss), vec![self.clone()], move |g, grads| {
            grads.put(0, || {
                let scale = g.item() / batch as f32;
                let mut dx = softmax.clone();
                let rows = dx.data_mut();
                for (b, &l) in labels.iter().enumerate() {
                    rows[b * classes + l] -= 1.0;
                }
                dx.scale_inplace(scale);
                dx
            })
        })
    }

    /// Mean binary cross-entropy between logits and {0,1} targets of the
    /// same shape, fused with the sigmoid (stable for large |logits|).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn bce_with_logits(&self, targets: &Tensor) -> Var {
        assert_eq!(&self.shape()[..], targets.shape(), "bce_with_logits shape mismatch");
        let x = self.value_clone();
        let n = x.len() as f32;
        // loss = max(x,0) - x*t + ln(1 + exp(-|x|))
        let mut loss = 0.0;
        for (&xi, &ti) in x.data().iter().zip(targets.data().iter()) {
            loss += xi.max(0.0) - xi * ti + (1.0 + (-xi.abs()).exp()).ln();
        }
        loss /= n;
        let t = targets.clone();
        Var::from_op(Tensor::scalar(loss), vec![self.clone()], move |g, grads| {
            grads.put(0, || x.sigmoid().zip_broadcast(&t, |s, t| s - t).scale(g.item() / n))
        })
    }

    /// Mean squared error against a constant target of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mse(&self, target: &Tensor) -> Var {
        assert_eq!(&self.shape()[..], target.shape(), "mse shape mismatch");
        let t = Var::constant(target.clone());
        self.sub(&t).square().mean()
    }

    /// Mean smooth-L1 (Huber, delta = 1) loss against a constant target,
    /// the box-regression loss used by the detection benchmarks.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn smooth_l1(&self, target: &Tensor) -> Var {
        assert_eq!(&self.shape()[..], target.shape(), "smooth_l1 shape mismatch");
        let x = self.value_clone();
        let n = x.len() as f32;
        let mut loss = 0.0;
        for (&xi, &ti) in x.data().iter().zip(target.data().iter()) {
            let d = xi - ti;
            loss += if d.abs() < 1.0 { 0.5 * d * d } else { d.abs() - 0.5 };
        }
        loss /= n;
        let t = target.clone();
        Var::from_op(Tensor::scalar(loss), vec![self.clone()], move |g, grads| {
            grads.put(0, || {
                x.zip_broadcast(&t, |xi, ti| {
                    let d = xi - ti;
                    if d.abs() < 1.0 {
                        d
                    } else {
                        d.signum()
                    }
                })
                .scale(g.item() / n)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_tensor::assert_close;

    #[test]
    fn conv2d_grads_flow_to_all_parents() {
        let x = Var::param(Tensor::ones(&[1, 1, 3, 3]));
        let w = Var::param(Tensor::ones(&[1, 1, 3, 3]));
        let b = Var::param(Tensor::zeros(&[1]));
        let y = x.conv2d(&w, Some(&b), Conv2dSpec::new(3, 1, 0));
        y.sum().backward();
        assert!(x.grad().is_some());
        assert_eq!(w.grad().unwrap().data(), &[1.0; 9]);
        assert_eq!(b.grad().unwrap().data(), &[1.0]);
    }

    #[test]
    fn max_pool_grad_routes_to_max() {
        let x = Var::param(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]));
        let y = x.max_pool2d(Conv2dSpec::new(2, 2, 0));
        y.sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn global_avg_pool_shape_and_grad() {
        let x = Var::param(Tensor::ones(&[2, 3, 4, 4]));
        let y = x.global_avg_pool();
        assert_eq!(y.shape(), vec![2, 3]);
        y.sum().backward();
        assert_close(&x.grad().unwrap().data()[..4], &[1.0 / 16.0; 4], 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_grad_sums_to_zero() {
        let x = Var::param(Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0], &[2, 2]));
        let s = x.softmax_last_axis();
        let picked = s.mul(&Var::constant(Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])));
        picked.sum().backward();
        let g = x.grad().unwrap();
        // Gradient of softmax output w.r.t. logits sums to zero per row.
        assert!((g.data()[0] + g.data()[1]).abs() < 1e-6);
        assert!((g.data()[2] + g.data()[3]).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_matches_manual() {
        // Uniform logits over 4 classes: loss = ln(4).
        let x = Var::param(Tensor::zeros(&[2, 4]));
        let loss = x.cross_entropy_logits(&[0, 3]);
        assert_close(&[loss.value().item()], &[4f32.ln()], 1e-5);
        loss.backward();
        let g = x.grad().unwrap();
        // d/dlogit = (softmax - onehot)/batch = (0.25 - onehot)/2.
        assert_close(&[g.data()[0]], &[(0.25 - 1.0) / 2.0], 1e-5);
        assert_close(&[g.data()[1]], &[0.25 / 2.0], 1e-5);
    }

    #[test]
    fn cross_entropy_perfect_prediction_low_loss() {
        let mut logits = Tensor::zeros(&[1, 3]);
        logits.data_mut()[1] = 20.0;
        let x = Var::param(logits);
        let loss = x.cross_entropy_logits(&[1]);
        assert!(loss.value().item() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cross_entropy_bad_label_panics() {
        let x = Var::param(Tensor::zeros(&[1, 3]));
        x.cross_entropy_logits(&[3]);
    }

    #[test]
    fn bce_with_logits_stable_and_correct() {
        let x = Var::param(Tensor::from_slice(&[0.0, 100.0, -100.0]));
        let t = Tensor::from_slice(&[0.5, 1.0, 0.0]);
        let loss = x.bce_with_logits(&t);
        // At logit 0, target 0.5: loss = ln 2. Saturated correct logits: ~0.
        assert_close(&[loss.value().item()], &[2f32.ln() / 3.0], 1e-4);
        loss.backward();
        assert!(x.grad().unwrap().all_finite());
    }

    #[test]
    fn mse_grad() {
        let x = Var::param(Tensor::from_slice(&[1.0, 3.0]));
        let loss = x.mse(&Tensor::from_slice(&[0.0, 0.0]));
        assert_close(&[loss.value().item()], &[5.0], 1e-6);
        loss.backward();
        assert_close(x.grad().unwrap().data(), &[1.0, 3.0], 1e-6);
    }

    #[test]
    fn smooth_l1_quadratic_then_linear() {
        let x = Var::param(Tensor::from_slice(&[0.5, 3.0]));
        let loss = x.smooth_l1(&Tensor::zeros(&[2]));
        let expected = (0.5 * 0.25 + 2.5) / 2.0;
        assert_close(&[loss.value().item()], &[expected], 1e-6);
        loss.backward();
        assert_close(x.grad().unwrap().data(), &[0.25, 0.5], 1e-6);
    }
}
