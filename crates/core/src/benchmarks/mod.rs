//! The concrete benchmark implementations — Table 1 (and the v0.7
//! additions) wired into the [`crate::harness::Benchmark`] trait.
//!
//! Each follows the same lifecycle: `prepare` generates the (seeded,
//! fixed) synthetic dataset and performs the one-time reformatting,
//! `create_model` builds the reference model from the *run* seed, and
//! `train_epoch`/`evaluate` run the reference training procedure until
//! the Table 1 quality threshold is reached.
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

pub use bert::BertBenchmark;
pub use maskrcnn::MaskRcnnBenchmark;
pub use minigo::MiniGoBenchmark;
pub use ncf::NcfBenchmark;
pub use resnet::ResNetBenchmark;
pub use ssd::SsdBenchmark;

use crate::harness::Benchmark;
use crate::suite::BenchmarkId;
use dlrm::DlrmBenchmark;
use gnmt::GnmtBenchmark;
use mlperf_tensor::BackendKind;
use rnnt::RnnTBenchmark;
use transformer::TransformerBenchmark;

/// Builds the default-scale implementation of any suite benchmark on
/// the default tensor backend ([`BackendKind::default`]).
pub fn build(id: BenchmarkId) -> Box<dyn Benchmark> {
    build_on(id, BackendKind::default())
}

/// Builds the default-scale implementation pinned to a tensor backend.
pub fn build_on(id: BenchmarkId, backend: BackendKind) -> Box<dyn Benchmark> {
    match id {
        BenchmarkId::ImageClassification => Box::new(ResNetBenchmark::new().with_backend(backend)),
        BenchmarkId::ObjectDetection => Box::new(SsdBenchmark::new().with_backend(backend)),
        BenchmarkId::InstanceSegmentation => {
            Box::new(MaskRcnnBenchmark::new().with_backend(backend))
        }
        BenchmarkId::TranslationRecurrent => Box::new(GnmtBenchmark::new().with_backend(backend)),
        BenchmarkId::TranslationNonRecurrent => {
            Box::new(TransformerBenchmark::new().with_backend(backend))
        }
        BenchmarkId::Recommendation => Box::new(NcfBenchmark::new().with_backend(backend)),
        BenchmarkId::ReinforcementLearning => {
            Box::new(MiniGoBenchmark::new().with_backend(backend))
        }
        BenchmarkId::LanguageModeling => Box::new(BertBenchmark::new().with_backend(backend)),
        BenchmarkId::RecommendationDlrm => Box::new(DlrmBenchmark::new().with_backend(backend)),
        BenchmarkId::SpeechRecognition => Box::new(RnnTBenchmark::new().with_backend(backend)),
    }
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
