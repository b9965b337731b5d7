//! Image classification: ResNet-50 v1.5 on (synthetic) ImageNet to
//! 74.9% top-1 accuracy.

use crate::harness::Benchmark;
use crate::suite::{BenchmarkId, SuiteVersion};
use mlperf_data::{epoch_batches, Compose, ImageNetConfig, PackedImages, SyntheticImageNet};
use mlperf_models::{ResNetConfig, ResNetMini};
use mlperf_nn::Module;
use mlperf_optim::{linear_scaled_lr, LrSchedule, MultiStepDecay, Optimizer, SgdTorch};
use mlperf_tensor::{BackendKind, TensorRng};

/// Seed defining the dataset (shared by every run, like ImageNet).
const DATASET_SEED: u64 = 0x1357_9bdf;
/// The reference batch size the learning rate is calibrated for.
const REFERENCE_BATCH: usize = 32;

/// The image-classification benchmark.
#[derive(Debug)]
pub struct ResNetBenchmark {
    data_config: ImageNetConfig,
    batch_size: usize,
    backend: BackendKind,
    data: Option<SyntheticImageNet>,
    packed: Option<PackedImages>,
    model: Option<ResNetMini>,
    optimizer: Option<SgdTorch>,
    schedule: MultiStepDecay,
    data_rng: Option<TensorRng>,
    augment: Compose,
    max_epochs: usize,
    version: SuiteVersion,
}

impl ResNetBenchmark {
    /// Default (miniaturized) scale.
    pub fn new() -> Self {
        ResNetBenchmark::with_batch_size(REFERENCE_BATCH)
    }

    /// Same workload at a different minibatch size, with the linear
    /// learning-rate scaling rule applied (§3.4) — used by the
    /// batch-scaling experiment.
    pub fn with_batch_size(batch_size: usize) -> Self {
        let base_lr = linear_scaled_lr(0.08, batch_size, REFERENCE_BATCH);
        ResNetBenchmark {
            data_config: ImageNetConfig::default(),
            batch_size,
            backend: BackendKind::default(),
            data: None,
            packed: None,
            model: None,
            optimizer: None,
            schedule: MultiStepDecay { base: base_lr, gamma: 0.2, milestones: vec![12, 18] },
            data_rng: None,
            augment: Compose::standard(1, 0.1),
            max_epochs: 30,
            version: SuiteVersion::V05,
        }
    }

    /// Runs against a different suite round's quality target (v0.6
    /// raised ResNet's to 75.9% — §6).
    pub fn with_version(mut self, version: SuiteVersion) -> Self {
        self.version = version;
        self
    }

    /// Pins the run to a tensor backend: the model's weights are minted
    /// on it, so every op in the training step inherits it by tag.
    #[must_use]
    pub fn with_backend(mut self, kind: BackendKind) -> Self {
        self.backend = kind;
        self
    }

    /// The per-epoch learning-rate schedule in effect.
    pub fn lr_at(&self, epoch: usize) -> f32 {
        self.schedule.lr(epoch)
    }

    /// The configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }
}

impl Default for ResNetBenchmark {
    fn default() -> Self {
        ResNetBenchmark::new()
    }
}

impl Benchmark for ResNetBenchmark {
    fn id(&self) -> BenchmarkId {
        BenchmarkId::ImageClassification
    }

    fn prepare(&mut self) {
        let data = SyntheticImageNet::generate(self.data_config, DATASET_SEED);
        // One-time reformatting: pack training images into record form
        // (excluded from timing by the harness).
        let (packed, _stats) = PackedImages::pack(data.train.images());
        self.packed = Some(packed);
        self.data = Some(data);
    }

    fn create_model(&mut self, seed: u64) {
        let mut rng = TensorRng::new(seed).with_backend(self.backend);
        let model = ResNetMini::new(
            ResNetConfig {
                in_channels: self.data_config.channels,
                input_size: self.data_config.image_size,
                classes: self.data_config.classes,
                base_width: 8,
                blocks_per_stage: 1,
            },
            &mut rng,
        );
        self.optimizer = Some(SgdTorch::new(model.params(), 0.9, 1e-4));
        self.model = Some(model);
        self.data_rng = Some(rng.split());
    }

    fn train_epoch(&mut self, epoch: usize) {
        let data = self.data.as_ref().expect("prepare not called");
        let packed = self.packed.as_ref().expect("prepare not called");
        let model = self.model.as_ref().expect("create_model not called");
        let opt = self.optimizer.as_mut().expect("create_model not called");
        let rng = self.data_rng.as_mut().expect("create_model not called");
        let lr = self.schedule.lr(epoch);
        let labels = data.train.labels();
        for batch in epoch_batches(data.train.len(), self.batch_size, rng).iter() {
            let images = packed.read_batch(batch);
            let images = self.augment.apply_batch(&images, rng);
            let batch_labels: Vec<usize> = batch.iter().map(|&i| labels[i]).collect();
            opt.zero_grad();
            model.loss(&images, &batch_labels).backward();
            opt.step(lr);
        }
    }

    fn evaluate(&mut self) -> f64 {
        let data = self.data.as_ref().expect("prepare not called");
        let model = self.model.as_ref().expect("create_model not called");
        model.accuracy(data.val.images(), data.val.labels()) as f64
    }

    fn target(&self) -> f64 {
        self.id().quality_for(self.version).expect("resnet exists in every round").value
    }

    fn max_epochs(&self) -> usize {
        self.max_epochs
    }

    fn hyperparameters(&self) -> Vec<(String, f64)> {
        vec![
            ("batch_size".into(), self.batch_size as f64),
            ("learning_rate".into(), self.schedule.base as f64),
            ("momentum".into(), 0.9),
            ("weight_decay".into(), 1e-4),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_benchmark;
    use crate::timing::RealClock;

    #[test]
    fn reaches_target_within_budget() {
        let clock = RealClock::new();
        let mut bench = ResNetBenchmark::new();
        let result = run_benchmark(&mut bench, 42, &clock);
        assert!(
            result.reached_target,
            "resnet benchmark failed to reach {} (got {} after {} epochs)",
            bench.target(),
            result.quality,
            result.epochs
        );
        assert!(result.epochs >= 2, "threshold reached suspiciously fast");
    }

    #[test]
    fn linear_scaling_rule_applied() {
        let b32 = ResNetBenchmark::with_batch_size(32);
        let b128 = ResNetBenchmark::with_batch_size(128);
        assert!((b128.lr_at(0) / b32.lr_at(0) - 4.0).abs() < 1e-5);
    }
}
