//! Recommendation (v0.7): DLRM on the synthetic click log to
//! AUC ≥ 0.8025.

use crate::harness::Benchmark;
use crate::suite::BenchmarkId;
use mlperf_data::{auc, epoch_batches, ClickLogConfig, Impression, SyntheticClickLog};
use mlperf_models::{DlrmConfig, DlrmMini};
use mlperf_nn::Module;
use mlperf_optim::{Adam, Optimizer};
use mlperf_tensor::{BackendKind, TensorRng};

const DATASET_SEED: u64 = 0x1c9d_44f7;

/// The click-through-rate recommendation benchmark.
#[derive(Debug)]
pub struct DlrmBenchmark {
    data_config: ClickLogConfig,
    batch_size: usize,
    lr: f32,
    embed_dim: usize,
    backend: BackendKind,
    data: Option<SyntheticClickLog>,
    model: Option<DlrmMini>,
    optimizer: Option<Adam>,
    data_rng: Option<TensorRng>,
}

impl DlrmBenchmark {
    /// Default (miniaturized) scale.
    pub fn new() -> Self {
        DlrmBenchmark {
            data_config: ClickLogConfig::default(),
            batch_size: 64,
            lr: 0.01,
            embed_dim: 8,
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

impl Default for DlrmBenchmark {
    fn default() -> Self {
        DlrmBenchmark::new()
    }
}

impl Benchmark for DlrmBenchmark {
    fn id(&self) -> BenchmarkId {
        BenchmarkId::RecommendationDlrm
    }

    fn prepare(&mut self) {
        self.data = Some(SyntheticClickLog::generate(self.data_config.clone(), DATASET_SEED));
    }

    fn create_model(&mut self, seed: u64) {
        let mut rng = TensorRng::new(seed).with_backend(self.backend);
        let model = DlrmMini::new(
            DlrmConfig {
                dense_dim: self.data_config.dense_dim,
                categorical_vocabs: self.data_config.categorical_vocabs.clone(),
                bag_vocab: self.data_config.bag_vocab,
                embed_dim: self.embed_dim,
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
        for batch in epoch_batches(data.train.len(), self.batch_size, rng).iter() {
            let chunk: Vec<&Impression> = batch.iter().map(|&i| &data.train[i]).collect();
            opt.zero_grad();
            model.loss(&chunk).backward();
            opt.step(self.lr);
        }
    }

    fn evaluate(&mut self) -> f64 {
        let data = self.data.as_ref().expect("prepare not called");
        let model = self.model.as_ref().expect("create_model not called");
        let eval: Vec<&Impression> = data.eval.iter().collect();
        let labels: Vec<f32> = eval.iter().map(|i| i.label).collect();
        auc(&model.scores(&eval), &labels)
    }

    fn target(&self) -> f64 {
        self.id().spec().quality.value
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
    use crate::harness::run_benchmark;
    use crate::timing::RealClock;

    #[test]
    fn reaches_auc_target() {
        let clock = RealClock::new();
        let mut bench = DlrmBenchmark::new();
        let result = run_benchmark(&mut bench, 21, &clock);
        assert!(
            result.reached_target,
            "dlrm failed: AUC {} after {} epochs",
            result.quality, result.epochs
        );
    }
}
