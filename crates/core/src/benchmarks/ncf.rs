//! Recommendation: NCF on the synthetic collaborative-filtering
//! dataset to HR@10 ≥ 0.635.

use crate::harness::Benchmark;
use crate::suite::BenchmarkId;
use mlperf_data::{epoch_batches, CfConfig, SyntheticCf};
use mlperf_models::{Ncf, NcfConfig};
use mlperf_nn::Module;
use mlperf_optim::{Adam, Optimizer};
use mlperf_tensor::{BackendKind, TensorRng};

const DATASET_SEED: u64 = 0x5af0_3c6b;

/// The recommendation benchmark.
#[derive(Debug)]
pub struct NcfBenchmark {
    data_config: CfConfig,
    batch_size: usize,
    lr: f32,
    negatives_per_positive: usize,
    backend: BackendKind,
    data: Option<SyntheticCf>,
    model: Option<Ncf>,
    optimizer: Option<Adam>,
    data_rng: Option<TensorRng>,
}

impl NcfBenchmark {
    /// Default (miniaturized) scale.
    pub fn new() -> Self {
        NcfBenchmark {
            data_config: CfConfig::default(),
            batch_size: 64,
            lr: 0.01,
            negatives_per_positive: 2,
            backend: BackendKind::default(),
            data: None,
            model: None,
            optimizer: None,
            data_rng: None,
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

impl Default for NcfBenchmark {
    fn default() -> Self {
        NcfBenchmark::new()
    }
}

impl Benchmark for NcfBenchmark {
    fn id(&self) -> BenchmarkId {
        BenchmarkId::Recommendation
    }

    fn prepare(&mut self) {
        self.data = Some(SyntheticCf::generate(self.data_config, DATASET_SEED));
    }

    fn create_model(&mut self, seed: u64) {
        let mut rng = TensorRng::new(seed).with_backend(self.backend);
        let model = Ncf::new(
            NcfConfig {
                users: self.data_config.users,
                items: self.data_config.items,
                ..Default::default()
            },
            &mut rng,
        );
        self.optimizer = Some(Adam::with_defaults(model.params()));
        self.model = Some(model);
        self.data_rng = Some(rng.split());
    }

    fn train_epoch(&mut self, _epoch: usize) {
        let data = self.data.as_ref().expect("prepare not called");
        let model = self.model.as_ref().expect("create_model not called");
        let opt = self.optimizer.as_mut().expect("create_model not called");
        let rng = self.data_rng.as_mut().expect("create_model not called");
        // Negative sampling is part of the epoch's data traversal.
        let triples = data.training_triples(self.negatives_per_positive, rng);
        for batch in epoch_batches(triples.len(), self.batch_size, rng).iter() {
            let chunk: Vec<(usize, usize, f32)> = batch.iter().map(|&i| triples[i]).collect();
            opt.zero_grad();
            model.loss(&chunk).backward();
            opt.step(self.lr);
        }
    }

    fn evaluate(&mut self) -> f64 {
        let data = self.data.as_ref().expect("prepare not called");
        let model = self.model.as_ref().expect("create_model not called");
        model.hit_rate_at(&data.users, 10) as f64
    }

    fn target(&self) -> f64 {
        self.id().spec().quality.value
    }

    fn max_epochs(&self) -> usize {
        40
    }

    fn hyperparameters(&self) -> Vec<(String, f64)> {
        vec![
            ("batch_size".into(), self.batch_size as f64),
            ("learning_rate".into(), self.lr as f64),
            ("negative_samples".into(), self.negatives_per_positive as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_benchmark;
    use crate::timing::RealClock;

    #[test]
    fn reaches_hr10_target() {
        let clock = RealClock::new();
        let mut bench = NcfBenchmark::new();
        let result = run_benchmark(&mut bench, 21, &clock);
        assert!(
            result.reached_target,
            "ncf failed: HR@10 {} after {} epochs",
            result.quality, result.epochs
        );
    }
}
