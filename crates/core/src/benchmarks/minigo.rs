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

use crate::harness::Benchmark;
use crate::suite::BenchmarkId;
use mlperf_data::{epoch_batches, reference_games, GoDataset};
use mlperf_models::{MiniGoConfig, MiniGoNet};
use mlperf_nn::Module;
use mlperf_optim::{Adam, Optimizer};
use mlperf_tensor::{BackendKind, TensorRng};

const DATASET_SEED: u64 = 0x6b1d_4e87;

/// The MiniGo benchmark.
#[derive(Debug)]
pub struct MiniGoBenchmark {
    board_size: usize,
    batch_size: usize,
    lr: f32,
    games_per_epoch: usize,
    backend: BackendKind,
    eval_data: Option<GoDataset>,
    model: Option<MiniGoNet>,
    optimizer: Option<Adam>,
    data_rng: Option<TensorRng>,
    run_seed: u64,
    /// Replay buffer of recently generated games' samples.
    pool: Vec<mlperf_data::GoSample>,
    pool_cap: usize,
}

impl MiniGoBenchmark {
    /// Default (miniaturized) scale.
    pub fn new() -> Self {
        MiniGoBenchmark {
            board_size: 9,
            batch_size: 32,
            lr: 0.005,
            games_per_epoch: 4,
            backend: BackendKind::default(),
            eval_data: None,
            model: None,
            optimizer: None,
            data_rng: None,
            run_seed: 0,
            pool: Vec::new(),
            pool_cap: 1400,
        }
    }

    /// Pins the run to a tensor backend: the model's weights are minted
    /// on it, so every op in the training step inherits it by tag.
    #[must_use]
    pub fn with_backend(mut self, kind: BackendKind) -> Self {
        self.backend = kind;
        self
    }
}

impl Default for MiniGoBenchmark {
    fn default() -> Self {
        MiniGoBenchmark::new()
    }
}

impl Benchmark for MiniGoBenchmark {
    fn id(&self) -> BenchmarkId {
        BenchmarkId::ReinforcementLearning
    }

    fn prepare(&mut self) {
        // The held-out "professional" games defining the quality
        // metric; fixed across runs.
        let games = reference_games(6, self.board_size, DATASET_SEED);
        self.eval_data = Some(GoDataset::from_games(&games));
    }

    fn create_model(&mut self, seed: u64) {
        let mut rng = TensorRng::new(seed).with_backend(self.backend);
        let model = MiniGoNet::new(MiniGoConfig::default(), &mut rng);
        self.optimizer = Some(Adam::with_defaults(model.params()));
        self.model = Some(model);
        self.data_rng = Some(rng.split());
        self.run_seed = seed;
        self.pool.clear();
    }

    fn train_epoch(&mut self, epoch: usize) {
        let model = self.model.as_ref().expect("create_model not called");
        let opt = self.optimizer.as_mut().expect("create_model not called");
        let rng = self.data_rng.as_mut().expect("create_model not called");
        // Data generation is part of the timed run — the paper keeps
        // MiniGo "ML oriented" precisely because data comes from the
        // engine/model loop, not a simulator corpus. Games are played
        // by the same (noisy) engine players that define the quality
        // metric, under run-seed-derived seeds, so the supervision
        // matches the evaluation distribution.
        let fresh = reference_games(
            self.games_per_epoch,
            self.board_size,
            self.run_seed.wrapping_mul(31).wrapping_add(epoch as u64 + 1),
        );
        let ds = GoDataset::from_games(&fresh);
        // Fresh games enter a bounded replay buffer; each epoch trains
        // on the whole buffer (the MiniGo reference similarly trains on
        // a sliding window of recent self-play games).
        self.pool.extend(ds.samples);
        if self.pool.len() > self.pool_cap {
            let excess = self.pool.len() - self.pool_cap;
            self.pool.drain(..excess);
        }
        let buffer = GoDataset { samples: self.pool.clone(), size: self.board_size };
        for batch in epoch_batches(buffer.len(), self.batch_size, rng).iter() {
            let (features, moves, outcomes) = buffer.batch(batch);
            opt.zero_grad();
            model.loss(&features, &moves, &outcomes).backward();
            opt.step(self.lr);
        }
    }

    fn evaluate(&mut self) -> f64 {
        let eval = self.eval_data.as_ref().expect("prepare not called");
        let model = self.model.as_ref().expect("create_model not called");
        model.move_match_accuracy(eval) as f64
    }

    fn target(&self) -> f64 {
        self.id().spec().quality.value
    }

    fn max_epochs(&self) -> usize {
        60
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_benchmark;
    use crate::timing::RealClock;

    #[test]
    fn reaches_move_prediction_target() {
        let clock = RealClock::new();
        let mut bench = MiniGoBenchmark::new();
        let result = run_benchmark(&mut bench, 3, &clock);
        assert!(
            result.reached_target,
            "minigo failed: move match {} after {} epochs",
            result.quality, result.epochs
        );
    }
}
