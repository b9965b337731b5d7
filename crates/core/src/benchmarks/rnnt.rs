//! Speech recognition (v0.7): RNN-T on the synthetic frame stream to
//! 1 − WER ≥ 0.942 (the paper's 0.058 WER target).

use crate::harness::Benchmark;
use crate::suite::BenchmarkId;
use mlperf_data::{epoch_batches, SpeechConfig, SyntheticSpeech, Utterance};
use mlperf_models::{RnnTConfig, RnnTMini};
use mlperf_nn::Module;
use mlperf_optim::{Adam, Optimizer};
use mlperf_tensor::{BackendKind, TensorRng};

const DATASET_SEED: u64 = 0x93aa_07d1;

/// The speech-recognition benchmark.
#[derive(Debug)]
pub(crate) struct RnnTBenchmark {
    data_config: SpeechConfig,
    batch_size: usize,
    lr: f32,
    hidden: usize,
    backend: BackendKind,
    data: Option<SyntheticSpeech>,
    model: Option<RnnTMini>,
    optimizer: Option<Adam>,
    data_rng: Option<TensorRng>,
}

impl RnnTBenchmark {
    /// Default (miniaturized) scale.
    pub fn new() -> Self {
        RnnTBenchmark {
            data_config: SpeechConfig::default(),
            batch_size: 16,
            lr: 0.01,
            hidden: 16,
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

impl Default for RnnTBenchmark {
    fn default() -> Self {
        RnnTBenchmark::new()
    }
}

impl Benchmark for RnnTBenchmark {
    fn id(&self) -> BenchmarkId {
        BenchmarkId::SpeechRecognition
    }

    fn prepare(&mut self) {
        self.data = Some(SyntheticSpeech::generate(self.data_config, DATASET_SEED));
    }

    fn create_model(&mut self, seed: u64) {
        let mut rng = TensorRng::new(seed).with_backend(self.backend);
        let model = RnnTMini::new(
            RnnTConfig {
                frame_dim: self.data_config.frame_dim,
                hidden: self.hidden,
                classes: self.data_config.classes(),
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
            let chunk: Vec<&Utterance> = batch.iter().map(|&i| &data.train[i]).collect();
            opt.zero_grad();
            model.loss(&chunk).backward();
            opt.step(self.lr);
        }
    }

    fn evaluate(&mut self) -> f64 {
        let data = self.data.as_ref().expect("prepare not called");
        let model = self.model.as_ref().expect("create_model not called");
        let eval: Vec<&Utterance> = data.eval.iter().collect();
        1.0 - model.wer(&eval)
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
            ("hidden_size".into(), self.hidden as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_benchmark;
    use crate::timing::RealClock;

    #[test]
    fn reaches_wer_target() {
        let clock = RealClock::new();
        let mut bench = RnnTBenchmark::new();
        let result = run_benchmark(&mut bench, 21, &clock);
        assert!(
            result.reached_target,
            "rnnt failed: 1-WER {} after {} epochs",
            result.quality, result.epochs
        );
    }
}
