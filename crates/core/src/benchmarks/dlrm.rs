//! Recommendation (v0.7): DLRM on the synthetic click log to
//! AUC ≥ 0.8025.

use super::Recipe;
use crate::suite::BenchmarkId;
use mlperf_data::{auc, epoch_batches, ClickLogConfig, Impression, SyntheticClickLog};
use mlperf_models::{DlrmConfig, DlrmMini};
use mlperf_nn::Module;
use mlperf_optim::{Adam, Optimizer};
use mlperf_tensor::TensorRng;

const DATASET_SEED: u64 = 0x1c9d_44f7;

/// The click-through-rate recommendation benchmark.
pub(super) struct Dlrm {
    data_config: ClickLogConfig,
    batch_size: usize,
    lr: f32,
    embed_dim: usize,
}

impl Default for Dlrm {
    /// Default (miniaturized) scale.
    fn default() -> Self {
        Dlrm { data_config: ClickLogConfig::default(), batch_size: 64, lr: 0.01, embed_dim: 8 }
    }
}

impl Recipe for Dlrm {
    const ID: BenchmarkId = BenchmarkId::RecommendationDlrm;
    type Data = SyntheticClickLog;
    type Run = (DlrmMini, Adam);

    fn prepare(&self) -> SyntheticClickLog {
        SyntheticClickLog::generate(self.data_config.clone(), DATASET_SEED)
    }

    fn create(&self, rng: &mut TensorRng, _seed: u64) -> Self::Run {
        let config = DlrmConfig {
            dense_dim: self.data_config.dense_dim,
            categorical_vocabs: self.data_config.categorical_vocabs.clone(),
            bag_vocab: self.data_config.bag_vocab,
            embed_dim: self.embed_dim,
            ..Default::default()
        };
        let model = DlrmMini::new(config, rng);
        let optimizer = Adam::with_defaults(model.params());
        (model, optimizer)
    }

    fn train_epoch(
        &self,
        data: &SyntheticClickLog,
        run: &mut Self::Run,
        rng: &mut TensorRng,
        _: usize,
    ) {
        let (model, opt) = run;
        for batch in epoch_batches(data.train.len(), self.batch_size, rng).iter() {
            let chunk: Vec<&Impression> = batch.iter().map(|&i| &data.train[i]).collect();
            opt.zero_grad();
            model.loss(&chunk).backward();
            opt.step(self.lr);
        }
    }

    fn evaluate(&self, data: &SyntheticClickLog, (model, _): &Self::Run) -> f64 {
        let eval: Vec<&Impression> = data.eval.iter().collect();
        let labels: Vec<f32> = eval.iter().map(|i| i.label).collect();
        auc(&model.scores(&eval), &labels)
    }

    fn max_epochs(&self) -> usize {
        48
    }

    fn hyperparameters(&self) -> Vec<(String, f64)> {
        vec![
            ("batch_size".into(), self.batch_size as f64),
            ("learning_rate".into(), self.lr as f64),
            ("embedding_dim".into(), self.embed_dim as f64),
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
    fn reaches_auc_target() {
        let clock = RealClock::new();
        let result = run_benchmark(build(Dlrm::ID).as_mut(), 21, &clock);
        assert!(
            result.reached_target,
            "dlrm failed: AUC {} after {} epochs",
            result.quality, result.epochs
        );
    }
}
