//! Recommended hyperparameters by system scale — §6 lists "producing a
//! table that maps system scale and precision to recommended
//! hyperparameters for each benchmark" as planned future work. This
//! module implements that table for the reproduction's suite, encoding
//! the scaling folklore the paper cites: the linear learning-rate rule
//! (Goyal et al.), warmup growing with batch size, and switching to
//! LARS once the batch outgrows plain momentum SGD (the v0.6 ResNet
//! rule change).

use crate::suite::BenchmarkId;
use mlperf_optim::linear_scaled_lr;
use serde::Serialize;

/// The optimizer family a scale calls for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RecommendedOptimizer {
    /// Plain SGD with momentum.
    SgdMomentum,
    /// Layer-wise adaptive rate scaling (large-batch vision).
    Lars,
    /// Adam (attention/embedding-dominated workloads).
    Adam,
}

impl std::fmt::Display for RecommendedOptimizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RecommendedOptimizer::SgdMomentum => "sgd+momentum",
            RecommendedOptimizer::Lars => "lars",
            RecommendedOptimizer::Adam => "adam",
        })
    }
}

/// A row of the scale → hyperparameters table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Recommendation {
    /// The benchmark.
    pub benchmark: BenchmarkId,
    /// Global minibatch size.
    pub batch: usize,
    /// Peak learning rate.
    pub learning_rate: f64,
    /// Warmup length in epochs.
    pub warmup_epochs: f64,
    /// Which optimizer to use at this scale.
    pub optimizer: RecommendedOptimizer,
}

/// Per-benchmark reference points the scaling rules start from
/// (matching the miniaturized reference implementations).
fn reference_point(id: BenchmarkId) -> (usize, f64, RecommendedOptimizer) {
    match id {
        BenchmarkId::ImageClassification => (32, 0.08, RecommendedOptimizer::SgdMomentum),
        BenchmarkId::ObjectDetection => (16, 0.004, RecommendedOptimizer::Adam),
        BenchmarkId::InstanceSegmentation => (8, 0.004, RecommendedOptimizer::Adam),
        BenchmarkId::TranslationRecurrent => (32, 0.012, RecommendedOptimizer::Adam),
        BenchmarkId::TranslationNonRecurrent => (32, 0.01, RecommendedOptimizer::Adam),
        BenchmarkId::Recommendation => (64, 0.01, RecommendedOptimizer::Adam),
        BenchmarkId::ReinforcementLearning => (32, 0.005, RecommendedOptimizer::Adam),
        BenchmarkId::LanguageModeling => (16, 0.008, RecommendedOptimizer::Adam),
        BenchmarkId::RecommendationDlrm => (64, 0.01, RecommendedOptimizer::Adam),
        BenchmarkId::SpeechRecognition => (16, 0.006, RecommendedOptimizer::Adam),
    }
}

/// The batch size beyond which the vision benchmarks should switch from
/// momentum SGD to LARS (in units of the reference batch).
const LARS_SWITCH_FACTOR: usize = 32;

/// Recommends hyperparameters for running `id` at global batch size
/// `batch`.
///
/// # Panics
///
/// Panics if `batch` is zero.
pub fn recommend(id: BenchmarkId, batch: usize) -> Recommendation {
    assert!(batch > 0, "batch must be positive");
    let (ref_batch, ref_lr, base_opt) = reference_point(id);
    // Linear LR scaling, softened to sqrt for Adam workloads (the
    // common practice for adaptive optimizers).
    let learning_rate = match base_opt {
        RecommendedOptimizer::SgdMomentum | RecommendedOptimizer::Lars => {
            linear_scaled_lr(ref_lr as f32, batch, ref_batch) as f64
        }
        RecommendedOptimizer::Adam => ref_lr * ((batch as f64 / ref_batch as f64).sqrt()),
    };
    // Warmup grows logarithmically with the scale-up factor.
    let factor = (batch as f64 / ref_batch as f64).max(1.0);
    let warmup_epochs = if factor <= 1.0 { 0.0 } else { factor.log2().ceil() };
    // Large-batch vision switches to LARS.
    let optimizer = if id.is_vision()
        && base_opt == RecommendedOptimizer::SgdMomentum
        && batch >= ref_batch * LARS_SWITCH_FACTOR
    {
        RecommendedOptimizer::Lars
    } else {
        base_opt
    };
    Recommendation { benchmark: id, batch, learning_rate, warmup_epochs, optimizer }
}

/// The full table over a standard set of scales (the §6 deliverable).
pub fn recommendation_table(scales: &[usize]) -> Vec<Recommendation> {
    let mut out = Vec::new();
    for id in BenchmarkId::ALL {
        for &s in scales {
            let (ref_batch, _, _) = reference_point(id);
            out.push(recommend(id, ref_batch * s));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lr_scales_linearly_for_sgd_benchmarks() {
        let base = recommend(BenchmarkId::ImageClassification, 32);
        let big = recommend(BenchmarkId::ImageClassification, 128);
        assert!((big.learning_rate / base.learning_rate - 4.0).abs() < 1e-6);
    }

    #[test]
    fn lr_scales_sqrt_for_adam_benchmarks() {
        let base = recommend(BenchmarkId::Recommendation, 64);
        let big = recommend(BenchmarkId::Recommendation, 256);
        assert!((big.learning_rate / base.learning_rate - 2.0).abs() < 1e-6);
    }

    #[test]
    fn lars_kicks_in_at_large_batch_for_resnet_only() {
        let small = recommend(BenchmarkId::ImageClassification, 256);
        assert_eq!(small.optimizer, RecommendedOptimizer::SgdMomentum);
        let large = recommend(BenchmarkId::ImageClassification, 32 * 64);
        assert_eq!(large.optimizer, RecommendedOptimizer::Lars);
        // Adam workloads never switch.
        let t = recommend(BenchmarkId::TranslationNonRecurrent, 32 * 1024);
        assert_eq!(t.optimizer, RecommendedOptimizer::Adam);
    }

    #[test]
    fn warmup_grows_with_scale() {
        let r1 = recommend(BenchmarkId::ImageClassification, 32);
        let r2 = recommend(BenchmarkId::ImageClassification, 32 * 16);
        assert_eq!(r1.warmup_epochs, 0.0);
        assert_eq!(r2.warmup_epochs, 4.0);
    }

    #[test]
    fn table_covers_all_benchmarks_and_scales() {
        let table = recommendation_table(&[1, 4, 16, 64]);
        assert_eq!(table.len(), BenchmarkId::ALL.len() * 4);
        assert!(table.iter().all(|r| r.learning_rate > 0.0));
        // Monotone lr within each benchmark.
        for id in BenchmarkId::ALL {
            let rows: Vec<&Recommendation> = table.iter().filter(|r| r.benchmark == id).collect();
            for w in rows.windows(2) {
                assert!(w[1].learning_rate >= w[0].learning_rate, "{id}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn zero_batch_panics() {
        recommend(BenchmarkId::Recommendation, 0);
    }
}
