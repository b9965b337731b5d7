//! Recurrent translation: GNMT on the synthetic language pair to 21.8
//! BLEU.
//!
//! Evaluation is inside the timed region (paper §3.2), so `evaluate`
//! hands the whole validation set to the model's batched greedy decode
//! — equal-length sentences translated together in lock-step — rather
//! than looping over sentences at batch 1. BLEU is unchanged by it:
//! every sentence gets the tokens it would get decoded alone.

use crate::harness::Benchmark;
use crate::metrics::bleu;
use crate::suite::BenchmarkId;
use mlperf_data::{epoch_batches, SyntheticTranslation, TranslationConfig, TranslationPair};
use mlperf_models::{GnmtConfig, GnmtMini};
use mlperf_nn::Module;
use mlperf_optim::{clip_grad_norm, Adam, LrSchedule, MultiStepDecay, Optimizer};
use mlperf_tensor::{BackendKind, TensorRng};

const DATASET_SEED: u64 = 0x48d1_59e2; // same corpus as the Transformer row (both use WMT EN-DE)

/// The recurrent translation benchmark.
#[derive(Debug)]
pub(crate) struct GnmtBenchmark {
    data_config: TranslationConfig,
    batch_size: usize,
    schedule: MultiStepDecay,
    grad_clip: f32,
    backend: BackendKind,
    data: Option<SyntheticTranslation>,
    model: Option<GnmtMini>,
    optimizer: Option<Adam>,
    data_rng: Option<TensorRng>,
}

impl GnmtBenchmark {
    /// Default (miniaturized) scale.
    pub fn new() -> Self {
        GnmtBenchmark {
            data_config: TranslationConfig::default(),
            batch_size: 32,
            // Adam oscillates near the BLEU target at a flat rate; the
            // staircase settles it (the reference similarly decays).
            schedule: MultiStepDecay { base: 0.012, gamma: 0.4, milestones: vec![50, 70] },
            grad_clip: 5.0,
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

impl Default for GnmtBenchmark {
    fn default() -> Self {
        GnmtBenchmark::new()
    }
}

impl Benchmark for GnmtBenchmark {
    fn id(&self) -> BenchmarkId {
        BenchmarkId::TranslationRecurrent
    }

    fn prepare(&mut self) {
        self.data = Some(SyntheticTranslation::generate(self.data_config, DATASET_SEED));
    }

    fn create_model(&mut self, seed: u64) {
        let mut rng = TensorRng::new(seed).with_backend(self.backend);
        let model = GnmtMini::new(
            GnmtConfig {
                vocab: self.data_config.vocab,
                max_len: self.data_config.max_len + 2,
                embed_dim: 24,
                hidden: 48,
            },
            &mut rng,
        );
        self.optimizer = Some(Adam::with_defaults(model.params()));
        self.model = Some(model);
        self.data_rng = Some(rng.split());
    }

    fn train_epoch(&mut self, epoch: usize) {
        let data = self.data.as_ref().expect("prepare not called");
        let model = self.model.as_ref().expect("create_model not called");
        let opt = self.optimizer.as_mut().expect("create_model not called");
        let rng = self.data_rng.as_mut().expect("create_model not called");
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

    fn evaluate(&mut self) -> f64 {
        let data = self.data.as_ref().expect("prepare not called");
        let model = self.model.as_ref().expect("create_model not called");
        let sources: Vec<&[usize]> = data.val.iter().map(|p| p.source.as_slice()).collect();
        let candidates = model.greedy_translate_batch(&sources);
        let references: Vec<Vec<usize>> = data.val.iter().map(|p| p.target.clone()).collect();
        bleu(&candidates, &references)
    }

    fn target(&self) -> f64 {
        self.id().spec().quality.value
    }

    fn max_epochs(&self) -> usize {
        90
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_benchmark;
    use crate::timing::RealClock;

    #[test]
    fn reaches_bleu_target() {
        let clock = RealClock::new();
        let mut bench = GnmtBenchmark::new();
        let result = run_benchmark(&mut bench, 13, &clock);
        assert!(
            result.reached_target,
            "gnmt failed: BLEU {} after {} epochs",
            result.quality, result.epochs
        );
    }
}
