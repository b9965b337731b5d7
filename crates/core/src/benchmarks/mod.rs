//! The concrete benchmark implementations — Table 1 (and the v0.7
//! additions) wired into the [`crate::harness::Benchmark`] trait.
//!
//! Each row is a recipe: its configuration plus four functions —
//! `prepare` generates the (seeded, fixed) synthetic dataset and
//! performs the one-time reformatting, `create` builds the reference
//! model (and any other per-run state) from the *run* seed, and
//! `train_epoch`/`evaluate` run the reference training procedure until
//! the Table 1 quality threshold is reached. One private driver, `Row`,
//! owns the lifecycle state every row shares: the prepared data, the
//! current run, its data-order stream and the tensor backend the run's
//! weights are minted on. [`build`] and [`build_on`] are the way to get
//! a row; [`resnet_at`] and [`ssd_at`] configure the two rows the
//! experiments vary.
//!
//! Dataset seeds are fixed constants — the dataset plays the role of
//! ImageNet/COCO/WMT: identical for every run and every submitter. The
//! run seed controls weight initialization and data traversal only,
//! exactly the stochasticity §2.2.3 studies.

mod bert;
mod dlrm;
mod gnmt;
mod maskrcnn;
mod minigo;
mod ncf;
mod resnet;
mod rnnt;
mod ssd;
mod transformer;

use crate::harness::Benchmark;
use crate::metrics::bleu;
use crate::suite::{BenchmarkId, SuiteVersion};
use mlperf_data::SyntheticTranslation;
use mlperf_tensor::{BackendKind, TensorRng};

/// One suite row's training procedure. [`Row`] drives it through the
/// harness lifecycle and holds what it returns.
trait Recipe {
    /// Which suite row this is.
    const ID: BenchmarkId;
    /// The prepared dataset, fixed across runs.
    type Data;
    /// One run's state: the model, its optimizer and anything else that
    /// must start fresh with every run seed.
    type Run;

    /// Untimed one-time data generation / reformatting.
    fn prepare(&self) -> Self::Data;

    /// Builds a run's state for `seed`, drawing the initial weights from
    /// `rng` (the driver splits the data-order stream off it afterwards).
    fn create(&self, rng: &mut TensorRng, seed: u64) -> Self::Run;

    /// One timed training epoch (0-based); `rng` is the run's data order.
    fn train_epoch(
        &self,
        data: &Self::Data,
        run: &mut Self::Run,
        rng: &mut TensorRng,
        epoch: usize,
    );

    /// Timed evaluation on held-out data; returns the quality metric.
    fn evaluate(&self, data: &Self::Data, run: &Self::Run) -> f64;

    /// Epoch budget after which the run is declared failed.
    fn max_epochs(&self) -> usize;

    /// The quality threshold that stops the clock: the suite table's.
    fn target(&self) -> f64 {
        Self::ID.spec().quality.value
    }

    /// The hyperparameters recorded into the submission log.
    fn hyperparameters(&self) -> Vec<(String, f64)> {
        Vec::new()
    }
}

/// A [`Recipe`] pinned to a tensor backend, with the lifecycle state
/// the harness steps it through.
struct Row<R: Recipe> {
    recipe: R,
    backend: BackendKind,
    data: Option<R::Data>,
    /// The current run and its data-order stream.
    run: Option<(R::Run, TensorRng)>,
}

impl<R: Recipe> Benchmark for Row<R> {
    fn id(&self) -> BenchmarkId {
        R::ID
    }

    fn prepare(&mut self) {
        self.data = Some(self.recipe.prepare());
    }

    fn create_model(&mut self, seed: u64) {
        // The model's weights are minted on the pinned backend, so every
        // op in the training step inherits it by tag.
        let mut rng = TensorRng::new(seed).with_backend(self.backend);
        let run = self.recipe.create(&mut rng, seed);
        self.run = Some((run, rng.split()));
    }

    fn train_epoch(&mut self, epoch: usize) {
        let data = self.data.as_ref().expect("prepare not called");
        let (run, rng) = self.run.as_mut().expect("create_model not called");
        self.recipe.train_epoch(data, run, rng, epoch);
    }

    fn evaluate(&mut self) -> f64 {
        let data = self.data.as_ref().expect("prepare not called");
        let (run, _) = self.run.as_ref().expect("create_model not called");
        self.recipe.evaluate(data, run)
    }

    fn target(&self) -> f64 {
        self.recipe.target()
    }

    fn max_epochs(&self) -> usize {
        self.recipe.max_epochs()
    }

    fn hyperparameters(&self) -> Vec<(String, f64)> {
        self.recipe.hyperparameters()
    }
}

fn row<R: Recipe + 'static>(recipe: R, backend: BackendKind) -> Box<dyn Benchmark> {
    Box::new(Row { recipe, backend, data: None, run: None })
}

/// The evaluation both translation rows share: BLEU of `translate` —
/// the model's batched greedy decode, `greedy_translate_batch` — over
/// the validation sources, against their targets.
fn translation_bleu(
    data: &SyntheticTranslation,
    translate: impl FnOnce(&[&[usize]]) -> Vec<Vec<usize>>,
) -> f64 {
    let sources: Vec<&[usize]> = data.val.iter().map(|p| p.source.as_slice()).collect();
    let candidates = translate(&sources);
    let references: Vec<Vec<usize>> = data.val.iter().map(|p| p.target.clone()).collect();
    bleu(&candidates, &references)
}

/// Builds the default-scale implementation of any suite benchmark on
/// the default tensor backend ([`BackendKind::default`]).
pub fn build(id: BenchmarkId) -> Box<dyn Benchmark> {
    build_on(id, BackendKind::default())
}

/// Builds the default-scale implementation pinned to a tensor backend.
pub fn build_on(id: BenchmarkId, backend: BackendKind) -> Box<dyn Benchmark> {
    match id {
        BenchmarkId::ImageClassification => row(resnet::ResNet::reference(), backend),
        BenchmarkId::ObjectDetection => row(ssd::Ssd::at(SuiteVersion::V05), backend),
        BenchmarkId::InstanceSegmentation => row(maskrcnn::MaskRcnn::default(), backend),
        BenchmarkId::TranslationRecurrent => row(gnmt::Gnmt::default(), backend),
        BenchmarkId::TranslationNonRecurrent => row(transformer::Transformer::default(), backend),
        BenchmarkId::Recommendation => row(ncf::Ncf::default(), backend),
        BenchmarkId::ReinforcementLearning => row(minigo::MiniGo::default(), backend),
        BenchmarkId::LanguageModeling => row(bert::Bert::default(), backend),
        BenchmarkId::RecommendationDlrm => row(dlrm::Dlrm::default(), backend),
        BenchmarkId::SpeechRecognition => row(rnnt::RnnT::default(), backend),
    }
}

/// Image classification at minibatch `batch_size` (the default row's is
/// 32), with the linear learning-rate scaling rule applied (§3.4),
/// against `version`'s quality target (v0.6 raised ResNet's to 75.9% —
/// §6); on the default tensor backend.
pub fn resnet_at(batch_size: usize, version: SuiteVersion) -> Box<dyn Benchmark> {
    row(resnet::ResNet::at(batch_size, version), BackendKind::default())
}

/// Object detection against `version`'s quality target (v0.6 raised
/// SSD's to 23.0 mAP — §6); on the default tensor backend.
pub fn ssd_at(version: SuiteVersion) -> Box<dyn Benchmark> {
    row(ssd::Ssd::at(version), BackendKind::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "full convergence runs on both backends; run in the release CI step"]
    fn blocked_backend_converges_identically() {
        // The Blocked backend preserves per-element summation order, so
        // for the (finite) tensors these workloads produce, whole runs
        // — every weight update, every eval — are bit-identical to
        // Reference: same quality, same epochs-to-target.
        use crate::harness::run_benchmark;
        use crate::timing::RealClock;
        let clock = RealClock::new();
        // The two translation rows are here because their evaluation is
        // the batched lock-step decode: its groups are the largest GEMMs
        // these models issue, so this is where a row-dependent kernel
        // would show.
        for id in [
            BenchmarkId::LanguageModeling,
            BenchmarkId::RecommendationDlrm,
            BenchmarkId::TranslationRecurrent,
            BenchmarkId::TranslationNonRecurrent,
        ] {
            let mut reference = build_on(id, BackendKind::Reference);
            let mut blocked = build_on(id, BackendKind::Blocked);
            let r = run_benchmark(reference.as_mut(), 21, &clock);
            let b = run_benchmark(blocked.as_mut(), 21, &clock);
            assert!(r.reached_target, "{id}: reference run missed its target");
            assert!(b.reached_target, "{id}: blocked run missed its target");
            assert_eq!(r.quality, b.quality, "{id}: converged quality diverged across backends");
            assert_eq!(r.epochs, b.epochs, "{id}: epochs-to-target diverged across backends");
        }
    }

    #[test]
    fn build_covers_all_ids() {
        for id in BenchmarkId::ALL {
            let b = build(id);
            assert_eq!(b.id(), id);
            assert!(b.target() > 0.0);
            assert!(b.max_epochs() > 0);
            let pinned = build_on(id, BackendKind::default());
            assert_eq!(
                (b.id(), b.target(), b.max_epochs()),
                (pinned.id(), pinned.target(), pinned.max_epochs()),
                "{id}: build is build_on at the default backend"
            );
        }
    }

    #[test]
    fn configured_rows_are_the_default_rows_at_the_reference_point() {
        let resnet = resnet_at(32, SuiteVersion::V05);
        let default = build(BenchmarkId::ImageClassification);
        assert_eq!(resnet.hyperparameters(), default.hyperparameters());
        assert_eq!(resnet.target(), default.target());
        let ssd = ssd_at(SuiteVersion::V05);
        let default = build(BenchmarkId::ObjectDetection);
        assert_eq!((ssd.target(), ssd.max_epochs()), (default.target(), default.max_epochs()));
        // v0.6 raised both targets (§6).
        assert!(resnet_at(32, SuiteVersion::V06).target() > resnet.target());
        assert!(ssd_at(SuiteVersion::V06).target() > ssd.target());
    }

    #[test]
    fn v07_workloads_vary_run_to_run() {
        // §3.2.2: epochs-to-target varies with the run seed while every
        // run still converges — the motivation for requiring multiple
        // runs and dropping the fastest and slowest before averaging.
        use crate::aggregate::olympic_mean;
        use crate::harness::run_benchmark_set_with;
        use mlperf_telemetry::Telemetry;
        let seeds = [1u64, 2, 3, 4];
        for id in [
            BenchmarkId::LanguageModeling,
            BenchmarkId::RecommendationDlrm,
            BenchmarkId::SpeechRecognition,
        ] {
            let results = run_benchmark_set_with(|| build(id), &seeds, &Telemetry::disabled());
            assert!(results.iter().all(|r| r.reached_target), "{id}: a run missed its target");
            let epochs: Vec<usize> = results.iter().map(|r| r.epochs).collect();
            assert!(
                epochs.iter().any(|&e| e != epochs[0]),
                "{id}: no run-to-run variance in epochs-to-target {epochs:?}"
            );
            let times: Vec<f64> = results.iter().map(|r| r.time_to_train.as_secs_f64()).collect();
            let score = olympic_mean(&times);
            let lo = times.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(lo <= score && score <= hi, "{id}: olympic mean outside run-time range");
        }
    }
}
