//! Language modeling (v0.7): BERT on the synthetic masked phrase
//! corpus to masked-LM accuracy ≥ 0.712.

use crate::harness::Benchmark;
use crate::suite::BenchmarkId;
use mlperf_data::{epoch_batches, MaskedLmConfig, MaskedSentence, SyntheticMaskedLm};
use mlperf_models::{BertConfig, BertMini};
use mlperf_nn::Module;
use mlperf_optim::{Adam, Optimizer};
use mlperf_tensor::{BackendKind, TensorRng};

const DATASET_SEED: u64 = 0x7be2_91a4;

/// The language-modeling benchmark.
#[derive(Debug)]
pub struct BertBenchmark {
    data_config: MaskedLmConfig,
    batch_size: usize,
    lr: f32,
    warmup_steps: usize,
    backend: BackendKind,
    data: Option<SyntheticMaskedLm>,
    model: Option<BertMini>,
    optimizer: Option<Adam>,
    data_rng: Option<TensorRng>,
    step: usize,
}

impl BertBenchmark {
    /// Default (miniaturized) scale.
    pub fn new() -> Self {
        BertBenchmark {
            data_config: MaskedLmConfig::default(),
            batch_size: 16,
            lr: 0.01,
            warmup_steps: 12,
            backend: BackendKind::default(),
            data: None,
            model: None,
            optimizer: None,
            data_rng: None,
            step: 0,
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

impl Default for BertBenchmark {
    fn default() -> Self {
        BertBenchmark::new()
    }
}

impl Benchmark for BertBenchmark {
    fn id(&self) -> BenchmarkId {
        BenchmarkId::LanguageModeling
    }

    fn prepare(&mut self) {
        self.data = Some(SyntheticMaskedLm::generate(self.data_config, DATASET_SEED));
    }

    fn create_model(&mut self, seed: u64) {
        let mut rng = TensorRng::new(seed).with_backend(self.backend);
        let model = BertMini::new(
            BertConfig {
                vocab: self.data_config.vocab,
                max_len: self.data_config.sentence_len(),
                ..Default::default()
            },
            &mut rng,
        );
        self.optimizer = Some(Adam::with_defaults(model.params()));
        self.model = Some(model);
        self.data_rng = Some(rng.split());
        self.step = 0;
    }

    fn train_epoch(&mut self, _epoch: usize) {
        let data = self.data.as_ref().expect("prepare not called");
        let model = self.model.as_ref().expect("create_model not called");
        let opt = self.optimizer.as_mut().expect("create_model not called");
        let rng = self.data_rng.as_mut().expect("create_model not called");
        for batch in epoch_batches(data.train.len(), self.batch_size, rng).iter() {
            let chunk: Vec<&MaskedSentence> = batch.iter().map(|&i| &data.train[i]).collect();
            self.step += 1;
            // Linear warmup, BERT's usual schedule in miniature.
            let lr = if self.step < self.warmup_steps {
                self.lr * self.step as f32 / self.warmup_steps as f32
            } else {
                self.lr
            };
            opt.zero_grad();
            model.loss(&chunk).backward();
            opt.step(lr);
        }
    }

    fn evaluate(&mut self) -> f64 {
        let data = self.data.as_ref().expect("prepare not called");
        let model = self.model.as_ref().expect("create_model not called");
        let eval: Vec<&MaskedSentence> = data.eval.iter().collect();
        model.masked_accuracy(&eval)
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
            ("warmup_steps".into(), self.warmup_steps as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_benchmark;
    use crate::timing::RealClock;

    #[test]
    fn reaches_masked_lm_target() {
        let clock = RealClock::new();
        let mut bench = BertBenchmark::new();
        let result = run_benchmark(&mut bench, 21, &clock);
        assert!(
            result.reached_target,
            "bert failed: masked-LM accuracy {} after {} epochs",
            result.quality, result.epochs
        );
    }
}
