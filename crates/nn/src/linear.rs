//! Fully connected layer.

use crate::Module;
use mlperf_autograd::Var;
use mlperf_tensor::TensorRng;

/// A fully connected (dense) layer: `y = x W + b`.
///
/// Weights are stored `[in_features, out_features]` and initialized with
/// Kaiming-uniform scaling; the bias starts at zero.
#[derive(Debug)]
pub struct Linear {
    weight: Var,
    bias: Option<Var>,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Creates a layer with Kaiming-uniform weights.
    pub fn new(in_features: usize, out_features: usize, bias: bool, rng: &mut TensorRng) -> Self {
        // Kaiming expects fan-in as the trailing product; our storage is
        // [in, out], so initialize the transposed view and transpose.
        let w = rng.kaiming_uniform(&[out_features, in_features]).transpose();
        Linear {
            weight: Var::param(w),
            bias: bias.then(|| Var::param(mlperf_tensor::Tensor::zeros(&[out_features]))),
            in_features,
            out_features,
        }
    }

    /// Applies the layer to a `[batch, in_features]` input.
    ///
    /// Inputs of higher rank are flattened over the leading dimensions
    /// and restored afterwards, mirroring PyTorch semantics.
    ///
    /// # Panics
    ///
    /// Panics if the trailing dimension differs from `in_features`.
    pub fn forward(&self, x: &Var) -> Var {
        let shape = x.shape();
        let last = *shape.last().expect("linear input must have rank >= 1");
        assert_eq!(
            last, self.in_features,
            "linear expects trailing dim {}, got {last}",
            self.in_features
        );
        let lead: usize = shape[..shape.len() - 1].iter().product();
        let flat = x.reshape(&[lead, self.in_features]);
        let y = match &self.bias {
            Some(b) => flat.matmul_bias(&self.weight, b),
            None => flat.matmul(&self.weight),
        };
        let mut out_shape = shape;
        *out_shape.last_mut().expect("rank >= 1") = self.out_features;
        y.reshape(&out_shape)
    }

    /// The weight parameter (`[in, out]`).
    pub fn weight(&self) -> &Var {
        &self.weight
    }
}

impl Module for Linear {
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
    use mlperf_autograd::Var;
    use mlperf_tensor::Tensor;

    #[test]
    fn forward_shape_2d_and_3d() {
        let mut rng = TensorRng::new(0);
        let l = Linear::new(4, 6, true, &mut rng);
        let x2 = Var::constant(Tensor::ones(&[5, 4]));
        assert_eq!(l.forward(&x2).shape(), vec![5, 6]);
        let x3 = Var::constant(Tensor::ones(&[2, 3, 4]));
        assert_eq!(l.forward(&x3).shape(), vec![2, 3, 6]);
    }

    #[test]
    fn gradients_reach_weight_and_bias() {
        let mut rng = TensorRng::new(1);
        let l = Linear::new(3, 2, true, &mut rng);
        let x = Var::constant(Tensor::ones(&[4, 3]));
        l.forward(&x).sum().backward();
        for p in l.params() {
            assert!(p.grad().is_some(), "parameter missing gradient");
        }
        // Bias gradient is the batch size for a sum loss.
        assert_eq!(l.params()[1].grad().unwrap().data(), &[4.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "trailing dim")]
    fn wrong_input_width_panics() {
        let mut rng = TensorRng::new(2);
        let l = Linear::new(3, 2, false, &mut rng);
        l.forward(&Var::constant(Tensor::ones(&[1, 4])));
    }

    #[test]
    fn deterministic_under_seed() {
        let mut r1 = TensorRng::new(7);
        let mut r2 = TensorRng::new(7);
        let a = Linear::new(8, 8, true, &mut r1);
        let b = Linear::new(8, 8, true, &mut r2);
        assert_eq!(a.weight().value_clone(), b.weight().value_clone());
    }
}
