//! A miniaturized AlexNet-style plain CNN, used to reproduce Figure 1
//! (the precision study of Zhu et al., 2016, which the paper reprints to
//! show that the impact of numeric representation is only visible late
//! in training).

use mlperf_autograd::Var;
use mlperf_nn::{Conv2d, Linear, Module};
use mlperf_tensor::{Conv2dSpec, Precision, Tensor, TensorRng};

/// Plain convolutional classifier: conv–relu–pool ×2, then two dense
/// layers. No normalization (AlexNet predates batch norm), which is
/// exactly why its training is sensitive to weight precision.
#[derive(Debug)]
pub struct AlexNetMini {
    conv1: Conv2d,
    conv2: Conv2d,
    fc1: Linear,
    fc2: Linear,
    input_size: usize,
    channels: usize,
}

impl AlexNetMini {
    /// Builds the network for `channels`×`input_size`² inputs and
    /// `classes` outputs.
    ///
    /// # Panics
    ///
    /// Panics if `input_size` is not divisible by 4 (two 2× pools).
    pub fn new(channels: usize, input_size: usize, classes: usize, rng: &mut TensorRng) -> Self {
        assert_eq!(input_size % 4, 0, "input size must be divisible by 4");
        let spatial = input_size / 4;
        AlexNetMini {
            conv1: Conv2d::new(channels, 8, Conv2dSpec::new(3, 1, 1), true, rng),
            conv2: Conv2d::new(8, 16, Conv2dSpec::new(3, 1, 1), true, rng),
            fc1: Linear::new(16 * spatial * spatial, 32, true, rng),
            fc2: Linear::new(32, classes, true, rng),
            input_size,
            channels,
        }
    }

    /// Computes class logits for `[n, channels, s, s]`.
    pub fn forward(&self, x: &Var) -> Var {
        let s = x.shape();
        assert_eq!(s[1], self.channels, "channel mismatch");
        assert_eq!(s[2], self.input_size, "spatial mismatch");
        let pool = Conv2dSpec::new(2, 2, 0);
        let h = self.conv1.forward(x).relu().max_pool2d(pool);
        let h = self.conv2.forward(&h).relu().max_pool2d(pool);
        let n = h.shape()[0];
        let flat: usize = h.shape()[1..].iter().product();
        let h = h.reshape(&[n, flat]);
        self.fc2.forward(&self.fc1.forward(&h).relu())
    }

    /// Mean cross-entropy training loss.
    pub fn loss(&self, images: &Tensor, labels: &[usize]) -> Var {
        self.forward(&Var::constant(images.clone())).cross_entropy_logits(labels)
    }

    /// Top-1 accuracy on a labelled set.
    pub fn accuracy(&self, images: &Tensor, labels: &[usize]) -> f32 {
        let logits = self.forward(&Var::constant(images.clone()));
        let preds = logits.value().argmax_last_axis();
        let correct = preds.iter().zip(labels.iter()).filter(|(p, l)| p == l).count();
        correct as f32 / labels.len() as f32
    }

    /// Rounds every weight to `precision`'s representable grid —
    /// applied after each optimizer step to simulate low-precision
    /// weight storage (the methodology behind Figure 1).
    pub fn quantize_weights(&self, precision: Precision) {
        if precision == Precision::Fp32 {
            return;
        }
        for p in self.params() {
            let q = p.value().quantize(precision);
            p.update_value(|w| *w = q.clone());
        }
    }
}

impl Module for AlexNetMini {
    fn params(&self) -> Vec<Var> {
        [&self.conv1 as &dyn Module, &self.conv2, &self.fc1, &self.fc2]
            .iter()
            .flat_map(|m| m.params())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_optim::{Optimizer, SgdTorch};

    #[test]
    fn forward_shape() {
        let mut rng = TensorRng::new(0);
        let net = AlexNetMini::new(1, 8, 4, &mut rng);
        let x = Var::constant(rng.normal(&[3, 1, 8, 8], 0.0, 1.0));
        assert_eq!(net.forward(&x).shape(), vec![3, 4]);
    }

    #[test]
    fn learns_a_toy_problem() {
        let mut rng = TensorRng::new(1);
        let net = AlexNetMini::new(1, 8, 2, &mut rng);
        // Two trivially separable classes: all-bright vs all-dark.
        let mut images = Tensor::zeros(&[8, 1, 8, 8]);
        let mut labels = Vec::new();
        for (i, image) in images.data_mut().chunks_mut(64).enumerate() {
            image.fill(if i % 2 == 0 { 1.0 } else { -1.0 });
            labels.push(i % 2);
        }
        let mut opt = SgdTorch::new(net.params(), 0.9, 0.0);
        for _ in 0..40 {
            opt.zero_grad();
            net.loss(&images, &labels).backward();
            opt.step(0.05);
        }
        assert!(net.accuracy(&images, &labels) > 0.9);
    }

    #[test]
    fn quantize_weights_changes_fp8_not_fp32() {
        let mut rng = TensorRng::new(2);
        let net = AlexNetMini::new(1, 8, 2, &mut rng);
        let before: Vec<Tensor> = net.params().iter().map(|p| p.value_clone()).collect();
        net.quantize_weights(Precision::Fp32);
        for (p, b) in net.params().iter().zip(before.iter()) {
            assert_eq!(&p.value_clone(), b);
        }
        net.quantize_weights(Precision::Fp8E4M3);
        let changed = net.params().iter().zip(before.iter()).any(|(p, b)| &p.value_clone() != b);
        assert!(changed, "fp8 quantization left all weights unchanged");
    }
}
