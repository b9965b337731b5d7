//! Convolutional layer.

use crate::Module;
use mlperf_autograd::Var;
use mlperf_tensor::{Conv2dSpec, Tensor, TensorRng};

/// A 2-D convolution layer over NCHW inputs.
#[derive(Debug)]
pub struct Conv2d {
    weight: Var,
    bias: Option<Var>,
    spec: Conv2dSpec,
    in_channels: usize,
}

impl Conv2d {
    /// Creates a layer with Kaiming-uniform weights of shape
    /// `[out_channels, in_channels, kernel, kernel]`.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        spec: Conv2dSpec,
        bias: bool,
        rng: &mut TensorRng,
    ) -> Self {
        let w = rng.kaiming_uniform(&[out_channels, in_channels, spec.kernel, spec.kernel]);
        Conv2d {
            weight: Var::param(w),
            bias: bias.then(|| Var::param(Tensor::zeros(&[out_channels]))),
            spec,
            in_channels,
        }
    }

    /// Applies the convolution to `[n, in_channels, h, w]`.
    ///
    /// # Panics
    ///
    /// Panics if the channel count disagrees.
    pub fn forward(&self, x: &Var) -> Var {
        assert_eq!(
            x.shape()[1],
            self.in_channels,
            "conv2d expects {} input channels, got {}",
            self.in_channels,
            x.shape()[1]
        );
        x.conv2d(&self.weight, self.bias.as_ref(), self.spec)
    }

    /// The convolution geometry.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// The weight parameter.
    pub fn weight(&self) -> &Var {
        &self.weight
    }
}

impl Module for Conv2d {
    fn params(&self) -> Vec<Var> {
        let mut ps = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            ps.push(b.clone());
        }
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_padding_preserves_spatial_extent() {
        let mut rng = TensorRng::new(0);
        let c = Conv2d::new(3, 8, Conv2dSpec::new(3, 1, 1), true, &mut rng);
        let x = Var::constant(Tensor::ones(&[2, 3, 7, 7]));
        let y = c.forward(&x);
        assert_eq!(y.shape(), vec![2, 8, 7, 7]);
    }

    #[test]
    fn stride_two_halves_extent() {
        let mut rng = TensorRng::new(1);
        let c = Conv2d::new(1, 4, Conv2dSpec::new(3, 2, 1), false, &mut rng);
        let x = Var::constant(Tensor::ones(&[1, 1, 8, 8]));
        assert_eq!(c.forward(&x).shape(), vec![1, 4, 4, 4]);
    }

    #[test]
    fn gradients_flow() {
        let mut rng = TensorRng::new(2);
        let c = Conv2d::new(2, 2, Conv2dSpec::new(3, 1, 1), true, &mut rng);
        let x = Var::constant(Tensor::ones(&[1, 2, 4, 4]));
        c.forward(&x).sum().backward();
        assert!(c.params().iter().all(|p| p.grad().is_some()));
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn channel_mismatch_panics() {
        let mut rng = TensorRng::new(3);
        let c = Conv2d::new(3, 4, Conv2dSpec::new(3, 1, 1), false, &mut rng);
        c.forward(&Var::constant(Tensor::ones(&[1, 2, 4, 4])));
    }
}
