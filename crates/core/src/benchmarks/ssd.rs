//! Light-weight object detection: SSD on synthetic shapes to the mAP
//! threshold.

use crate::harness::Benchmark;
use crate::metrics::{mean_average_precision, DetectionEval};
use crate::suite::{BenchmarkId, SuiteVersion};
use mlperf_data::{epoch_batches, DetectionSample, ShapesConfig, SyntheticShapes};
use mlperf_models::{SsdConfig, SsdMini};
use mlperf_nn::Module;
use mlperf_optim::{Adam, Optimizer};
use mlperf_tensor::{BackendKind, TensorRng};

const DATASET_SEED: u64 = 0x2468_ace0;

/// The single-shot detection benchmark.
#[derive(Debug)]
pub struct SsdBenchmark {
    data_config: ShapesConfig,
    batch_size: usize,
    lr: f32,
    backend: BackendKind,
    data: Option<SyntheticShapes>,
    model: Option<SsdMini>,
    optimizer: Option<Adam>,
    data_rng: Option<TensorRng>,
    version: SuiteVersion,
}

impl SsdBenchmark {
    /// Default (miniaturized) scale.
    pub fn new() -> Self {
        SsdBenchmark {
            data_config: ShapesConfig::default(),
            batch_size: 16,
            lr: 0.004,
            backend: BackendKind::default(),
            data: None,
            model: None,
            optimizer: None,
            data_rng: None,
            version: SuiteVersion::V05,
        }
    }

    /// Runs against a different suite round's quality target (v0.6
    /// raised SSD's to 23.0 mAP — §6).
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
}

impl Default for SsdBenchmark {
    fn default() -> Self {
        SsdBenchmark::new()
    }
}

impl Benchmark for SsdBenchmark {
    fn id(&self) -> BenchmarkId {
        BenchmarkId::ObjectDetection
    }

    fn prepare(&mut self) {
        self.data = Some(SyntheticShapes::generate(self.data_config, DATASET_SEED));
    }

    fn create_model(&mut self, seed: u64) {
        let mut rng = TensorRng::new(seed).with_backend(self.backend);
        let model = SsdMini::new(
            SsdConfig {
                in_channels: 1,
                input_size: self.data_config.image_size,
                classes: 3,
                width: 8,
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
            let samples: Vec<&DetectionSample> = batch.iter().map(|&i| &data.train[i]).collect();
            opt.zero_grad();
            model.loss(&samples).backward();
            opt.step(self.lr);
        }
    }

    fn evaluate(&mut self) -> f64 {
        let data = self.data.as_ref().expect("prepare not called");
        let model = self.model.as_ref().expect("create_model not called");
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

    fn target(&self) -> f64 {
        self.id().quality_for(self.version).expect("ssd exists in every round").value
    }

    fn max_epochs(&self) -> usize {
        // The raised v0.6 target needs more headroom.
        match self.version {
            SuiteVersion::V05 => 35,
            SuiteVersion::V06 | SuiteVersion::V07 => 50,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_benchmark;
    use crate::timing::RealClock;

    #[test]
    fn reaches_map_target() {
        let clock = RealClock::new();
        let mut bench = SsdBenchmark::new();
        let result = run_benchmark(&mut bench, 7, &clock);
        assert!(
            result.reached_target,
            "ssd failed: mAP {} after {} epochs (target {})",
            result.quality,
            result.epochs,
            bench.target()
        );
    }
}
