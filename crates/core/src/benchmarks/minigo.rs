//! Reinforcement learning: MiniGo — train the policy/value network on
//! engine-generated games to 40% reference-move prediction.
//!
//! Mirroring the reference benchmark's structure, the training data is
//! *generated* (self-play-style games between engine players) rather
//! than read from a fixed corpus, and quality is measured against
//! held-out games from the fixed "professional" heuristic players.
//! §2.2.3 and Figure 2b note that MiniGo shows the largest run-to-run
//! variance in the suite — with game generation in the loop, small seed
//! differences compound.

use super::Recipe;
use crate::suite::BenchmarkId;
use mlperf_data::{epoch_batches, reference_games, GoDataset, GoSample};
use mlperf_models::{MiniGoConfig, MiniGoNet};
use mlperf_nn::Module;
use mlperf_optim::{Adam, Optimizer};
use mlperf_tensor::TensorRng;

const DATASET_SEED: u64 = 0x6b1d_4e87;

/// The MiniGo benchmark.
pub(super) struct MiniGo {
    board_size: usize,
    batch_size: usize,
    lr: f32,
    games_per_epoch: usize,
    pool_cap: usize,
}

impl Default for MiniGo {
    /// Default (miniaturized) scale.
    fn default() -> Self {
        MiniGo { board_size: 9, batch_size: 32, lr: 0.005, games_per_epoch: 4, pool_cap: 1400 }
    }
}

/// One run: the network, its optimizer, the seed its games derive from
/// and the replay buffer of recently generated games' samples.
pub(super) struct MiniGoRun {
    model: MiniGoNet,
    opt: Adam,
    seed: u64,
    pool: Vec<GoSample>,
}

impl Recipe for MiniGo {
    const ID: BenchmarkId = BenchmarkId::ReinforcementLearning;
    /// The held-out "professional" games defining the quality metric;
    /// fixed across runs.
    type Data = GoDataset;
    type Run = MiniGoRun;

    fn prepare(&self) -> GoDataset {
        GoDataset::from_games(&reference_games(6, self.board_size, DATASET_SEED))
    }

    fn create(&self, rng: &mut TensorRng, seed: u64) -> MiniGoRun {
        let model = MiniGoNet::new(MiniGoConfig::default(), rng);
        let opt = Adam::with_defaults(model.params());
        MiniGoRun { model, opt, seed, pool: Vec::new() }
    }

    fn train_epoch(&self, _: &GoDataset, run: &mut MiniGoRun, rng: &mut TensorRng, epoch: usize) {
        // Data generation is part of the timed run — the paper keeps
        // MiniGo "ML oriented" precisely because data comes from the
        // engine/model loop, not a simulator corpus. Games are played
        // by the same (noisy) engine players that define the quality
        // metric, under run-seed-derived seeds, so the supervision
        // matches the evaluation distribution.
        let fresh = reference_games(
            self.games_per_epoch,
            self.board_size,
            run.seed.wrapping_mul(31).wrapping_add(epoch as u64 + 1),
        );
        // Fresh games enter a bounded replay buffer; each epoch trains
        // on the whole buffer (the MiniGo reference similarly trains on
        // a sliding window of recent self-play games).
        run.pool.extend(GoDataset::from_games(&fresh).samples);
        if run.pool.len() > self.pool_cap {
            let excess = run.pool.len() - self.pool_cap;
            run.pool.drain(..excess);
        }
        // The buffer is lent to the epoch as its dataset, not copied.
        let buffer = GoDataset { samples: std::mem::take(&mut run.pool), size: self.board_size };
        for batch in epoch_batches(buffer.len(), self.batch_size, rng).iter() {
            let (features, moves, outcomes) = buffer.batch(batch);
            run.opt.zero_grad();
            run.model.loss(&features, &moves, &outcomes).backward();
            run.opt.step(self.lr);
        }
        run.pool = buffer.samples;
    }

    fn evaluate(&self, eval: &GoDataset, run: &MiniGoRun) -> f64 {
        run.model.move_match_accuracy(eval) as f64
    }

    fn max_epochs(&self) -> usize {
        60
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::build;
    use crate::harness::run_benchmark;
    use crate::timing::RealClock;

    #[test]
    fn reaches_move_prediction_target() {
        let clock = RealClock::new();
        let result = run_benchmark(build(MiniGo::ID).as_mut(), 3, &clock);
        assert!(
            result.reached_target,
            "minigo failed: move match {} after {} epochs",
            result.quality, result.epochs
        );
    }
}
