//! Optimizers and learning-rate schedules for the MLPerf Training
//! reproduction.
//!
//! Section 2.2.4 of the paper singles out the fact that frameworks
//! implement SGD-with-momentum in two mathematically *different* ways:
//!
//! - Caffe (paper Eq. 1): `m ← α·m + lr·g`, `w ← w − m`
//! - PyTorch/TensorFlow (paper Eq. 2): `m ← α·m + g`, `w ← w − lr·m`
//!
//! The two coincide while the learning rate is constant and diverge as
//! soon as it changes mid-training — exactly the situation of every
//! scheduled large-batch run. Both variants are provided here
//! ([`SgdCaffe`], [`SgdTorch`]) and the `momentum_variants` experiment
//! harness reproduces the divergence.
//!
//! [`Lars`] (You et al., 2017) is included because the v0.6 round of the
//! benchmark allowed it for large-batch ResNet, which is part of what
//! enabled the scale growth shown in Figure 5.
//!
//! ```
//! use mlperf_optim::{Optimizer, SgdTorch};
//! use mlperf_autograd::Var;
//! use mlperf_tensor::Tensor;
//!
//! let w = Var::param(Tensor::from_slice(&[1.0]));
//! let mut opt = SgdTorch::new(vec![w.clone()], 0.9, 0.0);
//! let loss = w.square().sum();
//! loss.backward();
//! opt.step(0.1); // w -= 0.1 * 2.0
//! assert!((w.value().item() - 0.8).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

mod adam;
mod allreduce;
mod clip;
mod lars;
mod schedule;
mod sgd;

pub use adam::Adam;
pub use allreduce::{data_parallel_step, ReductionOrder};
pub use clip::clip_grad_norm;
pub use lars::Lars;
pub use schedule::{linear_scaled_lr, MultiStepDecay};
pub use sgd::{SgdCaffe, SgdTorch};

use mlperf_autograd::Var;

/// A first-order optimizer over a fixed parameter list.
pub trait Optimizer {
    /// Applies one update using the gradients currently accumulated on
    /// the parameters, at learning rate `lr`. Parameters without a
    /// gradient are skipped.
    fn step(&mut self, lr: f32);

    /// The parameters being optimized.
    fn params(&self) -> &[Var];

    /// Clears gradients on all parameters.
    fn zero_grad(&self) {
        for p in self.params() {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_autograd::Var;
    use mlperf_tensor::Tensor;

    /// All optimizers must reduce a convex quadratic.
    #[test]
    fn optimizers_descend_quadratic() {
        let make = |k: usize| -> (Var, Box<dyn Optimizer>) {
            let w = Var::param(Tensor::from_slice(&[5.0, -3.0]));
            let opt: Box<dyn Optimizer> = match k {
                0 => Box::new(SgdCaffe::new(vec![w.clone()], 0.9, 0.0)),
                1 => Box::new(SgdTorch::new(vec![w.clone()], 0.9, 0.0)),
                2 => Box::new(Adam::new(vec![w.clone()], 0.9, 0.999, 1e-8, 0.0)),
                _ => Box::new(Lars::new(vec![w.clone()], 0.9, 0.0, 0.001)),
            };
            (w, opt)
        };
        for k in 0..4 {
            let (w, mut opt) = make(k);
            // LARS folds its 0.001 trust coefficient into the step, so
            // its nominal learning rate is correspondingly larger.
            let lr = if k == 3 { 50.0 } else { 0.05 };
            for _ in 0..200 {
                opt.zero_grad();
                let loss = w.square().sum();
                loss.backward();
                opt.step(lr);
            }
            let final_loss = w.value().square().sum();
            assert!(final_loss < 0.05, "optimizer {k} failed to descend: loss {final_loss}");
        }
    }
}
