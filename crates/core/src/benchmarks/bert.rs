//! Language modeling (v0.7): BERT on the synthetic masked phrase
//! corpus to masked-LM accuracy ≥ 0.712.

use super::Recipe;
use crate::suite::BenchmarkId;
use mlperf_data::{epoch_batches, MaskedLmConfig, MaskedSentence, SyntheticMaskedLm};
use mlperf_models::{BertConfig, BertMini};
use mlperf_nn::Module;
use mlperf_optim::{Adam, Optimizer};
use mlperf_tensor::TensorRng;

const DATASET_SEED: u64 = 0x7be2_91a4;

/// The language-modeling benchmark.
pub(super) struct Bert {
    data_config: MaskedLmConfig,
    batch_size: usize,
    lr: f32,
    warmup_steps: usize,
}

impl Default for Bert {
    /// Default (miniaturized) scale.
    fn default() -> Self {
        Bert { data_config: MaskedLmConfig::default(), batch_size: 16, lr: 0.01, warmup_steps: 12 }
    }
}

/// One run: the model, its optimizer and the warmup's step count.
pub(super) struct BertRun {
    model: BertMini,
    opt: Adam,
    step: usize,
}

impl Recipe for Bert {
    const ID: BenchmarkId = BenchmarkId::LanguageModeling;
    type Data = SyntheticMaskedLm;
    type Run = BertRun;

    fn prepare(&self) -> SyntheticMaskedLm {
        SyntheticMaskedLm::generate(self.data_config, DATASET_SEED)
    }

    fn create(&self, rng: &mut TensorRng, _seed: u64) -> BertRun {
        let config = BertConfig {
            vocab: self.data_config.vocab,
            max_len: self.data_config.sentence_len(),
            ..Default::default()
        };
        let model = BertMini::new(config, rng);
        let opt = Adam::with_defaults(model.params());
        BertRun { model, opt, step: 0 }
    }

    fn train_epoch(
        &self,
        data: &SyntheticMaskedLm,
        run: &mut BertRun,
        rng: &mut TensorRng,
        _: usize,
    ) {
        for batch in epoch_batches(data.train.len(), self.batch_size, rng).iter() {
            let chunk: Vec<&MaskedSentence> = batch.iter().map(|&i| &data.train[i]).collect();
            run.step += 1;
            // Linear warmup, BERT's usual schedule in miniature.
            let lr = if run.step < self.warmup_steps {
                self.lr * run.step as f32 / self.warmup_steps as f32
            } else {
                self.lr
            };
            run.opt.zero_grad();
            run.model.loss(&chunk).backward();
            run.opt.step(lr);
        }
    }

    fn evaluate(&self, data: &SyntheticMaskedLm, run: &BertRun) -> f64 {
        let eval: Vec<&MaskedSentence> = data.eval.iter().collect();
        run.model.masked_accuracy(&eval)
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
    use crate::benchmarks::build;
    use crate::harness::run_benchmark;
    use crate::timing::RealClock;

    #[test]
    fn reaches_masked_lm_target() {
        let clock = RealClock::new();
        let result = run_benchmark(build(Bert::ID).as_mut(), 21, &clock);
        assert!(
            result.reached_target,
            "bert failed: masked-LM accuracy {} after {} epochs",
            result.quality, result.epochs
        );
    }
}
