//! Light-weight object detection: SSD on synthetic shapes to the mAP
//! threshold.

use super::Recipe;
use crate::metrics::{mean_average_precision, DetectionEval};
use crate::suite::{BenchmarkId, SuiteVersion};
use mlperf_data::{epoch_batches, DetectionSample, ShapesConfig, SyntheticShapes};
use mlperf_models::{SsdConfig, SsdMini};
use mlperf_nn::Module;
use mlperf_optim::{Adam, Optimizer};
use mlperf_tensor::TensorRng;

const DATASET_SEED: u64 = 0x2468_ace0;

/// The single-shot detection benchmark.
pub(super) struct Ssd {
    data_config: ShapesConfig,
    batch_size: usize,
    lr: f32,
    version: SuiteVersion,
}

impl Ssd {
    /// Default (miniaturized) scale, against `version`'s quality target.
    pub(super) fn at(version: SuiteVersion) -> Self {
        Ssd { data_config: ShapesConfig::default(), batch_size: 16, lr: 0.004, version }
    }
}

impl Recipe for Ssd {
    const ID: BenchmarkId = BenchmarkId::ObjectDetection;
    type Data = SyntheticShapes;
    type Run = (SsdMini, Adam);

    fn prepare(&self) -> SyntheticShapes {
        SyntheticShapes::generate(self.data_config, DATASET_SEED)
    }

    fn create(&self, rng: &mut TensorRng, _seed: u64) -> Self::Run {
        let config = SsdConfig {
            in_channels: 1,
            input_size: self.data_config.image_size,
            classes: 3,
            width: 8,
        };
        let model = SsdMini::new(config, rng);
        let optimizer = Adam::with_defaults(model.params());
        (model, optimizer)
    }

    fn train_epoch(
        &self,
        data: &SyntheticShapes,
        run: &mut Self::Run,
        rng: &mut TensorRng,
        _: usize,
    ) {
        let (model, opt) = run;
        for batch in epoch_batches(data.train.len(), self.batch_size, rng).iter() {
            let samples: Vec<&DetectionSample> = batch.iter().map(|&i| &data.train[i]).collect();
            opt.zero_grad();
            model.loss(&samples).backward();
            opt.step(self.lr);
        }
    }

    fn evaluate(&self, data: &SyntheticShapes, (model, _): &Self::Run) -> f64 {
        let refs: Vec<&DetectionSample> = data.val.iter().collect();
        let images = SyntheticShapes::batch_images(&refs);
        let detections = model.detect(&images, 0.2);
        let evals: Vec<DetectionEval<'_>> = detections
            .iter()
            .zip(data.val.iter())
            .map(|(dets, sample)| DetectionEval { detections: dets, ground_truth: &sample.objects })
            .collect();
        mean_average_precision(&evals, 3, 0.5)
    }

    fn max_epochs(&self) -> usize {
        // The raised v0.6 target needs more headroom.
        match self.version {
            SuiteVersion::V05 => 35,
            SuiteVersion::V06 | SuiteVersion::V07 => 50,
        }
    }

    fn target(&self) -> f64 {
        Self::ID.quality_for(self.version).expect("ssd exists in every round").value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::build;
    use crate::harness::run_benchmark;
    use crate::timing::RealClock;

    #[test]
    fn reaches_map_target() {
        let clock = RealClock::new();
        let mut bench = build(Ssd::ID);
        let result = run_benchmark(bench.as_mut(), 7, &clock);
        assert!(
            result.reached_target,
            "ssd failed: mAP {} after {} epochs (target {})",
            result.quality,
            result.epochs,
            bench.target()
        );
    }
}
