//! LARS — layer-wise adaptive rate scaling (You et al., 2017).
//!
//! The v0.6 round of the benchmark allowed LARS for large-batch ResNet;
//! it is the optimizer-side enabler of the scale growth reported in
//! Figure 5 (chip counts of the fastest entries grew 5.5× on average
//! between rounds).

use crate::Optimizer;
use mlperf_autograd::Var;
use mlperf_tensor::Tensor;

/// LARS with momentum: each layer's update is rescaled by the trust
/// ratio `η·‖w‖ / (‖g‖ + wd·‖w‖)` before the usual momentum update.
#[derive(Debug)]
pub struct Lars {
    params: Vec<Var>,
    momentum: f32,
    weight_decay: f32,
    trust: f32,
    eps: f32,
    velocity: Vec<Option<Tensor>>,
}

impl Lars {
    /// Creates the optimizer with trust coefficient `trust`
    /// (the canonical value is 0.001).
    pub fn new(params: Vec<Var>, momentum: f32, weight_decay: f32, trust: f32) -> Self {
        let n = params.len();
        Lars { params, momentum, weight_decay, trust, eps: 1e-9, velocity: vec![None; n] }
    }

    /// The local (per-layer) learning-rate multiplier LARS would apply
    /// for a given weight/gradient pair — exposed for tests and for the
    /// scale-sweep experiment harness.
    pub(crate) fn trust_ratio(&self, w: &Tensor, g: &Tensor) -> f32 {
        let wn = w.norm();
        let gn = g.norm();
        if wn == 0.0 || gn == 0.0 {
            return 1.0;
        }
        self.trust * wn / (gn + self.weight_decay * wn + self.eps)
    }
}

impl Optimizer for Lars {
    fn step(&mut self, lr: f32) {
        for (i, p) in self.params.iter().enumerate() {
            let Some(mut g) = p.grad() else { continue };
            let local = self.trust_ratio(&p.value(), &g);
            if self.weight_decay != 0.0 {
                g.axpy(self.weight_decay, &p.value());
            }
            let vel = self.velocity[i].get_or_insert_with(|| Tensor::zeros(g.shape()));
            vel.scale_inplace(self.momentum);
            vel.axpy(lr * local, &g);
            let update = vel.clone();
            p.update_value(|w| w.axpy(-1.0, &update));
        }
    }

    fn params(&self) -> &[Var] {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trust_ratio_normalizes_large_gradients() {
        let opt = Lars::new(vec![], 0.9, 0.0, 0.001);
        let w = Tensor::from_slice(&[1.0, 1.0]);
        let g_small = Tensor::from_slice(&[0.01, 0.01]);
        let g_large = Tensor::from_slice(&[100.0, 100.0]);
        let r_small = opt.trust_ratio(&w, &g_small);
        let r_large = opt.trust_ratio(&w, &g_large);
        assert!(r_small > r_large, "larger gradients must get smaller local lr");
        // Effective update magnitude (ratio * ||g||) is equal — that's
        // the point of LARS.
        let e_small = r_small * g_small.norm();
        let e_large = r_large * g_large.norm();
        assert!((e_small - e_large).abs() / e_small < 1e-4);
    }

    #[test]
    fn zero_weight_or_grad_gets_unit_ratio() {
        let opt = Lars::new(vec![], 0.9, 0.0, 0.001);
        assert_eq!(opt.trust_ratio(&Tensor::zeros(&[2]), &Tensor::ones(&[2])), 1.0);
        assert_eq!(opt.trust_ratio(&Tensor::ones(&[2]), &Tensor::zeros(&[2])), 1.0);
    }

    #[test]
    fn stable_at_huge_learning_rate_where_sgd_diverges() {
        // On a quadratic with curvature 50, lr=1 diverges for plain SGD
        // (stability bound lr < 2/50) but LARS' trust ratio keeps the
        // update bounded relative to ||w||.
        let run = |lars: bool| -> f32 {
            let w = Var::param(Tensor::from_slice(&[1.0]));
            let mut opt: Box<dyn Optimizer> = if lars {
                Box::new(Lars::new(vec![w.clone()], 0.0, 0.0, 0.01))
            } else {
                Box::new(crate::SgdTorch::new(vec![w.clone()], 0.0, 0.0))
            };
            for _ in 0..50 {
                opt.zero_grad();
                w.square().scale(25.0).sum().backward(); // grad = 50w
                opt.step(1.0);
                if !w.value().item().is_finite() {
                    return f32::INFINITY;
                }
            }
            let v = w.value().item().abs();
            v
        };
        assert!(run(false) > 1e3, "plain SGD should have diverged");
        assert!(run(true) < 1.0, "LARS should have stayed stable");
    }
}
