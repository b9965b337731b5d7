//! Speech recognition (v0.7): RNN-T on the synthetic frame stream to
//! 1 − WER ≥ 0.942 (the paper's 0.058 WER target).

use super::Recipe;
use crate::suite::BenchmarkId;
use mlperf_data::{epoch_batches, SpeechConfig, SyntheticSpeech, Utterance};
use mlperf_models::{RnnTConfig, RnnTMini};
use mlperf_nn::Module;
use mlperf_optim::{Adam, Optimizer};
use mlperf_tensor::TensorRng;

const DATASET_SEED: u64 = 0x93aa_07d1;

/// The speech-recognition benchmark.
pub(super) struct RnnT {
    data_config: SpeechConfig,
    batch_size: usize,
    lr: f32,
    hidden: usize,
}

impl Default for RnnT {
    /// Default (miniaturized) scale.
    fn default() -> Self {
        RnnT { data_config: SpeechConfig::default(), batch_size: 16, lr: 0.01, hidden: 16 }
    }
}

impl Recipe for RnnT {
    const ID: BenchmarkId = BenchmarkId::SpeechRecognition;
    type Data = SyntheticSpeech;
    type Run = (RnnTMini, Adam);

    fn prepare(&self) -> SyntheticSpeech {
        SyntheticSpeech::generate(self.data_config, DATASET_SEED)
    }

    fn create(&self, rng: &mut TensorRng, _seed: u64) -> Self::Run {
        let config = RnnTConfig {
            frame_dim: self.data_config.frame_dim,
            hidden: self.hidden,
            classes: self.data_config.classes(),
        };
        let model = RnnTMini::new(config, rng);
        let optimizer = Adam::with_defaults(model.params());
        (model, optimizer)
    }

    fn train_epoch(
        &self,
        data: &SyntheticSpeech,
        run: &mut Self::Run,
        rng: &mut TensorRng,
        _: usize,
    ) {
        let (model, opt) = run;
        for batch in epoch_batches(data.train.len(), self.batch_size, rng).iter() {
            let chunk: Vec<&Utterance> = batch.iter().map(|&i| &data.train[i]).collect();
            opt.zero_grad();
            model.loss(&chunk).backward();
            opt.step(self.lr);
        }
    }

    fn evaluate(&self, data: &SyntheticSpeech, (model, _): &Self::Run) -> f64 {
        let eval: Vec<&Utterance> = data.eval.iter().collect();
        1.0 - model.wer(&eval)
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
    use crate::benchmarks::build;
    use crate::harness::run_benchmark;
    use crate::timing::RealClock;

    #[test]
    fn reaches_wer_target() {
        let clock = RealClock::new();
        let result = run_benchmark(build(RnnT::ID).as_mut(), 21, &clock);
        assert!(
            result.reached_target,
            "rnnt failed: 1-WER {} after {} epochs",
            result.quality, result.epochs
        );
    }
}
