//! Recurrent translation: GNMT on the synthetic language pair to 21.8
//! BLEU.
//!
//! Evaluation is inside the timed region (paper §3.2), so `evaluate`
//! hands the whole validation set to the model's batched greedy decode
//! — equal-length sentences translated together in lock-step — rather
//! than looping over sentences at batch 1. BLEU is unchanged by it:
//! every sentence gets the tokens it would get decoded alone.

use super::{translation_bleu, Recipe};
use crate::suite::BenchmarkId;
use mlperf_data::{epoch_batches, SyntheticTranslation, TranslationConfig, TranslationPair};
use mlperf_models::{GnmtConfig, GnmtMini};
use mlperf_nn::Module;
use mlperf_optim::{clip_grad_norm, Adam, MultiStepDecay, Optimizer};
use mlperf_tensor::TensorRng;

const DATASET_SEED: u64 = 0x48d1_59e2; // same corpus as the Transformer row (both use WMT EN-DE)

/// The recurrent translation benchmark.
pub(super) struct Gnmt {
    data_config: TranslationConfig,
    batch_size: usize,
    schedule: MultiStepDecay,
    grad_clip: f32,
}

impl Default for Gnmt {
    /// Default (miniaturized) scale.
    fn default() -> Self {
        Gnmt {
            data_config: TranslationConfig::default(),
            batch_size: 32,
            // Adam oscillates near the BLEU target at a flat rate; the
            // staircase settles it (the reference similarly decays).
            schedule: MultiStepDecay { base: 0.012, gamma: 0.4, milestones: vec![50, 70] },
            grad_clip: 5.0,
        }
    }
}

impl Recipe for Gnmt {
    const ID: BenchmarkId = BenchmarkId::TranslationRecurrent;
    type Data = SyntheticTranslation;
    type Run = (GnmtMini, Adam);

    fn prepare(&self) -> SyntheticTranslation {
        SyntheticTranslation::generate(self.data_config, DATASET_SEED)
    }

    fn create(&self, rng: &mut TensorRng, _seed: u64) -> Self::Run {
        let config = GnmtConfig {
            vocab: self.data_config.vocab,
            max_len: self.data_config.max_len + 2,
            embed_dim: 24,
            hidden: 48,
        };
        let model = GnmtMini::new(config, rng);
        let optimizer = Adam::with_defaults(model.params());
        (model, optimizer)
    }

    fn train_epoch(
        &self,
        data: &SyntheticTranslation,
        run: &mut Self::Run,
        rng: &mut TensorRng,
        epoch: usize,
    ) {
        let (model, opt) = run;
        let lr = self.schedule.lr(epoch);
        for batch in epoch_batches(data.train.len(), self.batch_size, rng).iter() {
            let pairs: Vec<&TranslationPair> = batch.iter().map(|&i| &data.train[i]).collect();
            let padded = SyntheticTranslation::pad_batch(&pairs, self.data_config.max_len);
            opt.zero_grad();
            model.loss(&padded).backward();
            clip_grad_norm(&model.params(), self.grad_clip);
            opt.step(lr);
        }
    }

    fn evaluate(&self, data: &SyntheticTranslation, (model, _): &Self::Run) -> f64 {
        translation_bleu(data, |sources| model.greedy_translate_batch(sources))
    }

    fn max_epochs(&self) -> usize {
        90
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::build;
    use crate::harness::run_benchmark;
    use crate::timing::RealClock;

    #[test]
    fn reaches_bleu_target() {
        let clock = RealClock::new();
        let result = run_benchmark(build(Gnmt::ID).as_mut(), 13, &clock);
        assert!(
            result.reached_target,
            "gnmt failed: BLEU {} after {} epochs",
            result.quality, result.epochs
        );
    }
}
