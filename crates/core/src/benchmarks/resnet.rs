//! Image classification: ResNet-50 v1.5 on (synthetic) ImageNet to
//! 74.9% top-1 accuracy.

use super::Recipe;
use crate::suite::{BenchmarkId, SuiteVersion};
use mlperf_data::{epoch_batches, Compose, ImageNetConfig, PackedImages, SyntheticImageNet};
use mlperf_models::{ResNetConfig, ResNetMini};
use mlperf_nn::Module;
use mlperf_optim::{linear_scaled_lr, MultiStepDecay, Optimizer, SgdTorch};
use mlperf_tensor::TensorRng;

/// Seed defining the dataset (shared by every run, like ImageNet).
const DATASET_SEED: u64 = 0x1357_9bdf;
/// The reference batch size the learning rate is calibrated for.
const REFERENCE_BATCH: usize = 32;

/// The image-classification benchmark.
pub(super) struct ResNet {
    data_config: ImageNetConfig,
    batch_size: usize,
    schedule: MultiStepDecay,
    augment: Compose,
    version: SuiteVersion,
}

impl ResNet {
    /// Default (miniaturized) scale, against the v0.5 target.
    pub(super) fn reference() -> Self {
        ResNet::at(REFERENCE_BATCH, SuiteVersion::V05)
    }

    /// The workload at minibatch `batch_size`, with the linear
    /// learning-rate scaling rule applied (§3.4), against `version`'s
    /// quality target.
    pub(super) fn at(batch_size: usize, version: SuiteVersion) -> Self {
        let base_lr = linear_scaled_lr(0.08, batch_size, REFERENCE_BATCH);
        ResNet {
            data_config: ImageNetConfig::default(),
            batch_size,
            schedule: MultiStepDecay { base: base_lr, gamma: 0.2, milestones: vec![12, 18] },
            augment: Compose::standard(1, 0.1),
            version,
        }
    }
}

impl Recipe for ResNet {
    const ID: BenchmarkId = BenchmarkId::ImageClassification;
    type Data = (SyntheticImageNet, PackedImages);
    type Run = (ResNetMini, SgdTorch);

    fn prepare(&self) -> Self::Data {
        let data = SyntheticImageNet::generate(self.data_config, DATASET_SEED);
        // One-time reformatting: pack training images into record form
        // (excluded from timing by the harness).
        let (packed, _stats) = PackedImages::pack(data.train.images());
        (data, packed)
    }

    fn create(&self, rng: &mut TensorRng, _seed: u64) -> Self::Run {
        let config = ResNetConfig {
            in_channels: self.data_config.channels,
            input_size: self.data_config.image_size,
            classes: self.data_config.classes,
            base_width: 8,
            blocks_per_stage: 1,
        };
        let model = ResNetMini::new(config, rng);
        let optimizer = SgdTorch::new(model.params(), 0.9, 1e-4);
        (model, optimizer)
    }

    fn train_epoch(
        &self,
        data: &Self::Data,
        run: &mut Self::Run,
        rng: &mut TensorRng,
        epoch: usize,
    ) {
        let ((data, packed), (model, opt)) = (data, run);
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

    fn evaluate(&self, (data, _): &Self::Data, (model, _): &Self::Run) -> f64 {
        model.accuracy(data.val.images(), data.val.labels()) as f64
    }

    fn max_epochs(&self) -> usize {
        30
    }

    fn target(&self) -> f64 {
        Self::ID.quality_for(self.version).expect("resnet exists in every round").value
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
    use crate::benchmarks::build;
    use crate::harness::run_benchmark;
    use crate::timing::RealClock;

    #[test]
    fn reaches_target_within_budget() {
        let clock = RealClock::new();
        let mut bench = build(ResNet::ID);
        let result = run_benchmark(bench.as_mut(), 42, &clock);
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
        let b32 = ResNet::at(32, SuiteVersion::V05);
        let b128 = ResNet::at(128, SuiteVersion::V05);
        assert!((b128.schedule.lr(0) / b32.schedule.lr(0) - 4.0).abs() < 1e-5);
    }
}
