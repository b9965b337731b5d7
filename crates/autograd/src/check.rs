//! Numerical gradient checking, used by this crate's tests and by the
//! model crates to validate their composite layers.

use crate::var::Var;
use mlperf_tensor::Tensor;

/// Central-difference numerical gradient of `f` at `x`.
///
/// `f` must be a pure function of its input tensor.
pub(crate) fn numeric_gradient(f: impl Fn(&Tensor) -> f32, x: &Tensor, eps: f32) -> Tensor {
    let mut grad = Tensor::zeros(x.shape());
    for i in 0..x.len() {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        grad.data_mut()[i] = (f(&xp) - f(&xm)) / (2.0 * eps);
    }
    grad
}

/// Verifies that autograd's gradient of `build` with respect to a
/// parameter initialized at `x` matches the numerical gradient.
///
/// `build` maps a freshly created parameter to a scalar loss node; it is
/// called many times (once per probe), so keep the graph small.
///
/// # Panics
///
/// Panics (with the offending element index) if any component differs by
/// more than `tol`.
pub fn check_gradients(build: impl Fn(&Var) -> Var, x: &Tensor, eps: f32, tol: f32) {
    let w = Var::param(x.clone());
    let loss = build(&w);
    loss.backward();
    let analytic = w.grad().expect("parameter received no gradient");
    let numeric = numeric_gradient(
        |t| {
            let w = Var::param(t.clone());
            build(&w).value().item()
        },
        x,
        eps,
    );
    for i in 0..x.len() {
        let (a, n) = (analytic.data()[i], numeric.data()[i]);
        assert!(
            (a - n).abs() <= tol,
            "gradient mismatch at element {i}: analytic {a} vs numeric {n} (tol {tol})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_tensor::{Conv2dSpec, TensorRng};

    #[test]
    fn checks_simple_quadratic() {
        let x = Tensor::from_slice(&[1.0, -2.0, 0.5]);
        check_gradients(|w| w.square().sum(), &x, 1e-3, 1e-2);
    }

    #[test]
    fn checks_composite_mlp_loss() {
        let mut rng = TensorRng::new(3);
        let x = rng.normal(&[4, 3], 0.0, 0.5);
        let input = rng.normal(&[2, 4], 0.0, 1.0);
        check_gradients(
            |w| {
                let inp = Var::constant(input.clone());
                inp.matmul(w).tanh().square().mean()
            },
            &x,
            1e-3,
            1e-2,
        );
    }

    #[test]
    fn checks_softmax_cross_entropy() {
        let mut rng = TensorRng::new(5);
        let x = rng.normal(&[3, 4], 0.0, 1.0);
        check_gradients(|w| w.cross_entropy_logits(&[0, 2, 3]), &x, 1e-3, 1e-2);
    }

    #[test]
    fn checks_conv_chain() {
        let mut rng = TensorRng::new(7);
        let w0 = rng.normal(&[2, 1, 3, 3], 0.0, 0.5);
        let input = rng.normal(&[1, 1, 5, 5], 0.0, 1.0);
        check_gradients(
            |w| {
                let x = Var::constant(input.clone());
                x.conv2d(w, None, Conv2dSpec::new(3, 1, 1)).relu().mean()
            },
            &w0,
            1e-3,
            1e-2,
        );
    }

    #[test]
    fn checks_bce_and_smooth_l1() {
        let mut rng = TensorRng::new(9);
        let x = rng.normal(&[6], 0.0, 1.0);
        let targets = Tensor::from_slice(&[1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        check_gradients(|w| w.bce_with_logits(&targets), &x, 1e-3, 1e-2);
        let box_targets = rng.normal(&[6], 0.0, 2.0);
        check_gradients(|w| w.smooth_l1(&box_targets), &x, 1e-3, 1e-2);
    }

    #[test]
    fn checks_log_softmax() {
        let mut rng = TensorRng::new(11);
        let x = rng.normal(&[2, 5], 0.0, 1.0);
        let pick = rng.normal(&[2, 5], 0.0, 1.0);
        check_gradients(
            |w| w.log_softmax_last_axis().mul(&Var::constant(pick.clone())).sum(),
            &x,
            1e-3,
            1e-2,
        );
    }

    #[test]
    fn checks_pooling() {
        let mut rng = TensorRng::new(13);
        let x = rng.normal(&[1, 2, 4, 4], 0.0, 1.0);
        check_gradients(|w| w.avg_pool2d(Conv2dSpec::new(2, 2, 0)).square().sum(), &x, 1e-3, 1e-2);
    }
}
