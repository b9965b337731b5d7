//! Global gradient-norm clipping (used by the recurrent translation
//! benchmark, where exploding gradients are the classic failure mode).

use mlperf_autograd::Var;

/// The L2 norm of all gradients across `params` taken as one vector.
/// Parameters without gradients contribute zero.
pub(crate) fn global_grad_norm(params: &[Var]) -> f32 {
    params
        .iter()
        .filter_map(|p| p.grad())
        .map(|g| {
            let n = g.norm();
            n * n
        })
        .sum::<f32>()
        .sqrt()
}

/// Rescales all gradients so the global norm is at most `max_norm`.
/// Returns the pre-clip norm.
///
/// # Panics
///
/// Panics if `max_norm` is not positive.
pub fn clip_grad_norm(params: &[Var], max_norm: f32) -> f32 {
    assert!(max_norm > 0.0, "max_norm must be positive, got {max_norm}");
    let total = global_grad_norm(params);
    if total > max_norm {
        let scale = max_norm / total;
        for p in params {
            if let Some(g) = p.grad() {
                // Replace the stored gradient with the scaled version.
                p.zero_grad();
                let scaled = g.scale(scale);
                // Accumulate back via a backward-free path: seed a
                // fresh gradient by emulating accumulation.
                set_grad(p, scaled);
            }
        }
    }
    total
}

/// Installs `g` as the parameter's gradient (after clearing).
fn set_grad(p: &Var, g: mlperf_tensor::Tensor) {
    // Route through the public accumulation path: zero then backward a
    // synthetic graph y = <p, g> whose gradient w.r.t. p is exactly g.
    p.zero_grad();
    let gv = Var::constant(g);
    p.mul(&gv).sum().backward();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_tensor::Tensor;

    #[test]
    fn norm_over_multiple_params() {
        let a = Var::param(Tensor::from_slice(&[3.0]));
        let b = Var::param(Tensor::from_slice(&[4.0]));
        a.square().sum().backward(); // grad 6
        b.square().sum().backward(); // grad 8
        let n = global_grad_norm(&[a, b]);
        assert!((n - 10.0).abs() < 1e-5);
    }

    #[test]
    fn clip_rescales_to_max() {
        let a = Var::param(Tensor::from_slice(&[3.0]));
        let b = Var::param(Tensor::from_slice(&[4.0]));
        a.square().sum().backward();
        b.square().sum().backward();
        let pre = clip_grad_norm(&[a.clone(), b.clone()], 5.0);
        assert!((pre - 10.0).abs() < 1e-5);
        let post = global_grad_norm(&[a.clone(), b.clone()]);
        assert!((post - 5.0).abs() < 1e-4, "post-clip norm {post}");
        // Direction preserved.
        assert!((a.grad().unwrap().data()[0] - 3.0).abs() < 1e-4);
        assert!((b.grad().unwrap().data()[0] - 4.0).abs() < 1e-4);
    }

    #[test]
    fn no_clip_below_threshold() {
        let a = Var::param(Tensor::from_slice(&[1.0]));
        a.square().sum().backward(); // grad 2
        clip_grad_norm(std::slice::from_ref(&a), 100.0);
        assert_eq!(a.grad().unwrap().data(), &[2.0]);
    }

    #[test]
    fn missing_grads_contribute_zero() {
        let a = Var::param(Tensor::from_slice(&[1.0]));
        assert_eq!(global_grad_norm(&[a]), 0.0);
    }
}
