//! Recommendation: NCF on the synthetic collaborative-filtering
//! dataset to HR@10 ≥ 0.635.

use super::Recipe;
use crate::suite::BenchmarkId;
use mlperf_data::{epoch_batches, CfConfig, SyntheticCf};
use mlperf_models::{Ncf as NcfModel, NcfConfig};
use mlperf_nn::Module;
use mlperf_optim::{Adam, Optimizer};
use mlperf_tensor::TensorRng;

const DATASET_SEED: u64 = 0x5af0_3c6b;

/// The recommendation benchmark.
pub(super) struct Ncf {
    data_config: CfConfig,
    batch_size: usize,
    lr: f32,
    negatives_per_positive: usize,
}

impl Default for Ncf {
    /// Default (miniaturized) scale.
    fn default() -> Self {
        Ncf {
            data_config: CfConfig::default(),
            batch_size: 64,
            lr: 0.01,
            negatives_per_positive: 2,
        }
    }
}

impl Recipe for Ncf {
    const ID: BenchmarkId = BenchmarkId::Recommendation;
    type Data = SyntheticCf;
    type Run = (NcfModel, Adam);

    fn prepare(&self) -> SyntheticCf {
        SyntheticCf::generate(self.data_config, DATASET_SEED)
    }

    fn create(&self, rng: &mut TensorRng, _seed: u64) -> Self::Run {
        let config = NcfConfig {
            users: self.data_config.users,
            items: self.data_config.items,
            ..Default::default()
        };
        let model = NcfModel::new(config, rng);
        let optimizer = Adam::with_defaults(model.params());
        (model, optimizer)
    }

    fn train_epoch(&self, data: &SyntheticCf, run: &mut Self::Run, rng: &mut TensorRng, _: usize) {
        let (model, opt) = run;
        // Negative sampling is part of the epoch's data traversal.
        let triples = data.training_triples(self.negatives_per_positive, rng);
        for batch in epoch_batches(triples.len(), self.batch_size, rng).iter() {
            let chunk: Vec<(usize, usize, f32)> = batch.iter().map(|&i| triples[i]).collect();
            opt.zero_grad();
            model.loss(&chunk).backward();
            opt.step(self.lr);
        }
    }

    fn evaluate(&self, data: &SyntheticCf, (model, _): &Self::Run) -> f64 {
        model.hit_rate_at(&data.users, 10) as f64
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
    use crate::benchmarks::build;
    use crate::harness::run_benchmark;
    use crate::timing::RealClock;

    #[test]
    fn reaches_hr10_target() {
        let clock = RealClock::new();
        let result = run_benchmark(build(Ncf::ID).as_mut(), 21, &clock);
        assert!(
            result.reached_target,
            "ncf failed: HR@10 {} after {} epochs",
            result.quality, result.epochs
        );
    }
}
