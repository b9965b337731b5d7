//! Learning-rate schedules, including the linear-scaling rule the paper
//! cites (Goyal et al., 2017) for adapting to large minibatches.

/// Multiplies the base rate by `gamma` at each listed milestone (the
/// ResNet 30/60/80-epoch staircase).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiStepDecay {
    /// Initial rate.
    pub base: f32,
    /// Multiplicative factor applied at each milestone.
    pub gamma: f32,
    /// Steps at which the decay applies (ascending).
    pub milestones: Vec<usize>,
}

impl MultiStepDecay {
    /// The learning rate to apply at `step` (0-based).
    pub fn lr(&self, step: usize) -> f32 {
        let passed = self.milestones.iter().filter(|&&m| step >= m).count();
        self.base * self.gamma.powi(passed as i32)
    }
}

/// The linear-scaling rule: when the minibatch grows from
/// `base_batch` to `batch`, scale the reference learning rate
/// proportionally (Goyal et al., 2017; cited in §3.4 of the paper as the
/// common practice MLPerf's hyperparameter rules accommodate).
pub fn linear_scaled_lr(reference_lr: f32, batch: usize, base_batch: usize) -> f32 {
    reference_lr * batch as f32 / base_batch as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multistep_matches_resnet_staircase() {
        let s = MultiStepDecay { base: 0.4, gamma: 0.1, milestones: vec![30, 60, 80] };
        assert_eq!(s.lr(29), 0.4);
        assert!((s.lr(30) - 0.04).abs() < 1e-7);
        assert!((s.lr(79) - 0.004).abs() < 1e-7);
        assert!((s.lr(80) - 0.0004).abs() < 1e-8);
    }

    #[test]
    fn linear_scaling_rule() {
        // Paper example scale: reference batch 256.
        assert_eq!(linear_scaled_lr(0.1, 4096, 256), 1.6);
        assert_eq!(linear_scaled_lr(0.1, 256, 256), 0.1);
    }
}
