//! The epochs-to-target convergence model.
//!
//! §2.2.2 of the paper: "MLPerf v0.5 ResNet-50 takes around 64 epochs to
//! reach the target top-1 accuracy of 74.9% at a minibatch size of 4K,
//! while a minibatch size of 16K can require over 80 epochs … resulting
//! in a 30% increase in computation."
//!
//! The model is the standard critical-batch-size form
//! `epochs(B) = e_min · (1 + B / B_crit)`: at small batches the epoch
//! count approaches `e_min`; past `B_crit` it grows linearly. The
//! default ResNet calibration solves the paper's two data points
//! exactly: `B_crit ≈ 36 864`, `e_min = 57.6`.

/// Critical-batch-size convergence model with optional seed noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceModel {
    /// Asymptotic epoch count at small batch.
    pub min_epochs: f64,
    /// The batch size where epoch inflation reaches 2×.
    pub critical_batch: f64,
    /// Multiplier on epochs from a raised quality target
    /// (1.0 = v0.5 target).
    pub target_factor: f64,
    /// Relative run-to-run noise amplitude (σ of a lognormal-ish
    /// multiplier).
    pub noise: f64,
}

impl ConvergenceModel {
    /// The ResNet-50 calibration from the paper's §2.2.2 numbers.
    pub fn resnet_paper() -> Self {
        ConvergenceModel {
            min_epochs: 57.6,
            critical_batch: 36_864.0,
            target_factor: 1.0,
            noise: 0.03,
        }
    }

    /// Expected epochs to target at a global batch size (no noise).
    pub fn epochs(&self, batch: usize) -> f64 {
        self.min_epochs * (1.0 + batch as f64 / self.critical_batch) * self.target_factor
    }

    /// Epochs for one simulated run: the expectation times a
    /// deterministic pseudo-random multiplier derived from `seed`.
    pub(crate) fn epochs_with_seed(&self, batch: usize, seed: u64) -> f64 {
        self.epochs(batch) * (1.0 + self.noise * standard_normal(seed))
    }

    /// Returns a copy with the critical batch scaled by `factor` —
    /// models optimizer changes such as LARS, which extend the batch
    /// regime where convergence holds (the v0.6 ResNet rule change).
    pub(crate) fn with_critical_batch_scaled(mut self, factor: f64) -> Self {
        self.critical_batch *= factor;
        self
    }

    /// Returns a copy with a raised quality target (epochs multiplier).
    pub fn with_target_factor(mut self, factor: f64) -> Self {
        self.target_factor = factor;
        self
    }
}

/// A deterministic standard-normal-ish value from a seed
/// (Box–Muller over splitmix64 outputs).
fn standard_normal(seed: u64) -> f64 {
    let a = splitmix64(seed);
    let b = splitmix64(a);
    let u1 = ((a >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
    let u2 = (b >> 11) as f64 / (1u64 << 53) as f64;
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_resnet_numbers() {
        let m = ConvergenceModel::resnet_paper();
        let e4k = m.epochs(4096);
        let e16k = m.epochs(16_384);
        assert!((e4k - 64.0).abs() < 0.5, "epochs at 4K: {e4k}");
        assert!(e16k > 80.0, "epochs at 16K: {e16k}");
        // ~30% increase in computation.
        let inflation = e16k / e4k;
        assert!((inflation - 1.3).abs() < 0.02, "inflation {inflation}");
    }

    #[test]
    fn epochs_monotone_in_batch() {
        let m = ConvergenceModel::resnet_paper();
        let mut prev = 0.0;
        for b in [256, 1024, 4096, 16_384, 65_536] {
            let e = m.epochs(b);
            assert!(e > prev);
            prev = e;
        }
    }

    #[test]
    fn lars_extends_critical_batch() {
        let base = ConvergenceModel::resnet_paper();
        let lars = base.with_critical_batch_scaled(4.0);
        // At very large batch, LARS needs far fewer epochs.
        assert!(lars.epochs(131_072) < base.epochs(131_072) * 0.5);
        // At small batch, nearly identical.
        let ratio = lars.epochs(256) / base.epochs(256);
        assert!((ratio - 1.0).abs() < 0.02);
    }

    #[test]
    fn seed_noise_is_deterministic_and_small() {
        let m = ConvergenceModel::resnet_paper();
        assert_eq!(m.epochs_with_seed(4096, 7), m.epochs_with_seed(4096, 7));
        assert_ne!(m.epochs_with_seed(4096, 7), m.epochs_with_seed(4096, 8));
        for seed in 0..100 {
            let e = m.epochs_with_seed(4096, seed);
            let rel = (e - m.epochs(4096)).abs() / m.epochs(4096);
            assert!(rel < 0.2, "noise too large: {rel}");
        }
    }

    #[test]
    fn target_factor_scales_epochs() {
        let m = ConvergenceModel::resnet_paper().with_target_factor(1.1);
        assert!((m.epochs(4096) / 64.0 - 1.1).abs() < 0.02);
    }
}
