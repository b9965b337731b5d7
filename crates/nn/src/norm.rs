//! Normalization layers: batch normalization (NCHW) and layer
//! normalization (last axis).

use crate::Module;
use mlperf_autograd::Var;
use mlperf_tensor::Tensor;
use std::cell::RefCell;

/// Batch normalization over the channel dimension of NCHW inputs, with
/// running statistics for evaluation mode.
///
/// The ResNet-50 v1.5 definition in the paper pins down exactly where
/// batch norm sits relative to the residual addition; the model crate
/// relies on this layer matching the standard semantics (biased batch
/// variance in training, running estimates at eval).
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Var,
    beta: Var,
    running_mean: RefCell<Tensor>,
    running_var: RefCell<Tensor>,
    channels: usize,
    momentum: f32,
    eps: f32,
}

impl BatchNorm2d {
    /// Creates a layer with unit scale, zero shift, and running stats
    /// initialized to the standard normal.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Var::param(Tensor::ones(&[channels])),
            beta: Var::param(Tensor::zeros(&[channels])),
            running_mean: RefCell::new(Tensor::zeros(&[channels])),
            running_var: RefCell::new(Tensor::ones(&[channels])),
            channels,
            momentum: 0.1,
            eps: 1e-5,
        }
    }

    /// Sets the running-statistics momentum (default 0.1).
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Normalizes `[n, channels, h, w]`. In training mode batch
    /// statistics are used (and folded into the running estimates); in
    /// eval mode the running estimates are used.
    ///
    /// # Panics
    ///
    /// Panics if the channel count disagrees.
    pub fn forward(&self, x: &Var, training: bool) -> Var {
        let s = x.shape();
        assert_eq!(s.len(), 4, "batch norm expects NCHW input");
        assert_eq!(s[1], self.channels, "batch norm channel mismatch");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let m = n * h * w;
        // [n,c,h,w] -> [c, n*h*w]
        let xt = x.permute(&[1, 0, 2, 3]).reshape(&[c, m]);
        let (mean, var) = if training {
            let mean = xt.mean_axis(1, true); // [c,1]
            let centered = xt.sub(&mean);
            let var = centered.square().mean_axis(1, true); // biased
                                                            // Fold into running statistics (detached).
            {
                let mut rm = self.running_mean.borrow_mut();
                let mv = mean.value_clone().reshape(&[c]);
                rm.scale_inplace(1.0 - self.momentum);
                rm.axpy(self.momentum, &mv);
                let mut rv = self.running_var.borrow_mut();
                let vv = var.value_clone().reshape(&[c]);
                rv.scale_inplace(1.0 - self.momentum);
                rv.axpy(self.momentum, &vv);
            }
            (mean, var)
        } else {
            let mean = Var::constant(self.running_mean.borrow().reshape(&[c, 1]));
            let var = Var::constant(self.running_var.borrow().reshape(&[c, 1]));
            (mean, var)
        };
        let inv_std = var.add_scalar(self.eps).sqrt();
        let norm = xt.sub(&mean).div(&inv_std);
        let y = norm.mul(&self.gamma.reshape(&[c, 1])).add(&self.beta.reshape(&[c, 1]));
        y.reshape(&[c, n, h, w]).permute(&[1, 0, 2, 3])
    }

    /// The running mean estimate.
    pub fn running_mean(&self) -> Tensor {
        self.running_mean.borrow().clone()
    }

    /// The running variance estimate.
    pub fn running_var(&self) -> Tensor {
        self.running_var.borrow().clone()
    }
}

impl Module for BatchNorm2d {
    fn params(&self) -> Vec<Var> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

/// Layer normalization over the trailing dimension, as used by the
/// Transformer benchmark.
#[derive(Debug)]
pub struct LayerNorm {
    gamma: Var,
    beta: Var,
    dim: usize,
    eps: f32,
}

impl LayerNorm {
    /// Creates a layer normalizing a trailing dimension of width `dim`.
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Var::param(Tensor::ones(&[dim])),
            beta: Var::param(Tensor::zeros(&[dim])),
            dim,
            eps: 1e-5,
        }
    }

    /// Normalizes the last axis of `x`: one composition of primitive
    /// `Var` ops on every backend, so a backend changes only the
    /// kernels underneath (`tests/layer_backend_parity.rs` holds the
    /// result to bit equality across them).
    ///
    /// # Panics
    ///
    /// Panics if the trailing dimension differs from `dim`.
    pub fn forward(&self, x: &Var) -> Var {
        let shape = x.shape();
        let last_axis = shape.len() - 1;
        assert_eq!(
            shape[last_axis], self.dim,
            "layer norm expects trailing dim {}, got {}",
            self.dim, shape[last_axis]
        );
        let mean = x.mean_axis(last_axis, true);
        let centered = x.sub(&mean);
        let var = centered.square().mean_axis(last_axis, true);
        let norm = centered.div(&var.add_scalar(self.eps).sqrt());
        norm.mul(&self.gamma).add(&self.beta)
    }
}

impl Module for LayerNorm {
    fn params(&self) -> Vec<Var> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_tensor::TensorRng;

    #[test]
    fn batchnorm_training_normalizes() {
        let mut rng = TensorRng::new(0);
        let bn = BatchNorm2d::new(2);
        let x = Var::constant(rng.normal(&[4, 2, 3, 3], 5.0, 2.0));
        let y = bn.forward(&x, true);
        // Per-channel output mean ~0, var ~1.
        let yv = y.value_clone().permute(&[1, 0, 2, 3]).reshape(&[2, 36]);
        for c in 0..2 {
            let row = &yv.data()[c * 36..(c + 1) * 36];
            let mean: f32 = row.iter().sum::<f32>() / 36.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 36.0;
            assert!(mean.abs() < 1e-4, "channel {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {c} var {var}");
        }
    }

    #[test]
    fn batchnorm_updates_running_stats() {
        let mut rng = TensorRng::new(1);
        let bn = BatchNorm2d::new(1);
        let x = Var::constant(rng.normal(&[8, 1, 4, 4], 3.0, 1.0));
        for _ in 0..30 {
            bn.forward(&x, true);
        }
        let rm = bn.running_mean().data()[0];
        assert!((rm - 3.0).abs() < 0.3, "running mean {rm} should approach 3");
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let bn = BatchNorm2d::new(1);
        // With default running stats (mean 0, var 1) eval is identity
        // modulo gamma/beta.
        let x = Var::constant(Tensor::from_vec(vec![1.0, -1.0, 2.0, 0.0], &[1, 1, 2, 2]));
        let y = bn.forward(&x, false);
        let expected: Vec<f32> =
            x.value().data().iter().map(|v| v / (1.0f32 + 1e-5).sqrt()).collect();
        mlperf_tensor::assert_close(y.value().data(), &expected, 1e-5);
    }

    #[test]
    fn batchnorm_gradients_flow_to_gamma_beta() {
        let mut rng = TensorRng::new(2);
        let bn = BatchNorm2d::new(3);
        let x = Var::constant(rng.normal(&[2, 3, 2, 2], 0.0, 1.0));
        bn.forward(&x, true).square().sum().backward();
        assert!(bn.params().iter().all(|p| p.grad().is_some()));
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let mut rng = TensorRng::new(3);
        let ln = LayerNorm::new(8);
        let x = Var::constant(rng.normal(&[4, 8], -2.0, 5.0));
        let y = ln.forward(&x).value_clone();
        for r in 0..4 {
            let row = &y.data()[r * 8..(r + 1) * 8];
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4, "row {r} mean {mean}");
        }
    }

    #[test]
    fn layernorm_3d_input() {
        let mut rng = TensorRng::new(4);
        let ln = LayerNorm::new(4);
        let x = Var::constant(rng.normal(&[2, 3, 4], 0.0, 1.0));
        assert_eq!(ln.forward(&x).shape(), vec![2, 3, 4]);
    }

    #[test]
    fn layernorm_grad_check() {
        let mut rng = TensorRng::new(5);
        let x0 = rng.normal(&[2, 4], 0.0, 1.0);
        mlperf_autograd::check_gradients(
            |w| {
                let ln = LayerNorm::new(4);
                ln.forward(w).square().mean()
            },
            &x0,
            1e-3,
            1e-2,
        );
    }
}
