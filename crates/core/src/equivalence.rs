//! Closed-division workload equivalence (§4.2.1).
//!
//! "The Closed division … strives to ensure workload equivalence by
//! requiring submissions to be equivalent to reference implementations.
//! Equivalence includes mathematically equivalent network
//! implementations, parameter initialization, optimizer and training
//! schedule…"
//!
//! Full mathematical equivalence is undecidable in general; what the
//! real suite's reviewers check is the *architecture fingerprint*: the
//! ordered list of parameter tensors and their shapes, which pins down
//! layer structure, widths and counts. This module extracts that
//! fingerprint from any [`Module`] and compares it against the
//! reference model for each benchmark.

use crate::suite::BenchmarkId;
use mlperf_nn::Module;
use mlperf_tensor::TensorRng;
use serde::{Deserialize, Serialize};

/// The architecture fingerprint of a model: its parameter shapes in
/// declaration order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelSignature {
    shapes: Vec<Vec<usize>>,
}

impl ModelSignature {
    /// Extracts the signature of any module.
    pub fn of(model: &dyn Module) -> Self {
        ModelSignature { shapes: model.params().iter().map(|p| p.shape()).collect() }
    }

    /// Builds a signature from raw parameter shapes, for submission
    /// bundles that carry a fingerprint without the model behind it.
    pub fn from_shapes(shapes: Vec<Vec<usize>>) -> Self {
        ModelSignature { shapes }
    }

    /// Number of parameter tensors.
    pub(crate) fn num_tensors(&self) -> usize {
        self.shapes.len()
    }

    /// Total scalar parameters.
    pub fn num_params(&self) -> usize {
        self.shapes.iter().map(|s| s.iter().product::<usize>()).sum()
    }

    /// The parameter shapes in order.
    pub fn shapes(&self) -> &[Vec<usize>] {
        &self.shapes
    }
}

/// How a submitted model differs from the reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivalenceIssue {
    /// Different number of parameter tensors (layers added/removed).
    TensorCountMismatch {
        /// Reference tensor count.
        reference: usize,
        /// Submitted tensor count.
        submitted: usize,
    },
    /// A tensor's shape differs (width/kernel change).
    ShapeMismatch {
        /// Index of the mismatching tensor.
        index: usize,
        /// Reference shape.
        reference: Vec<usize>,
        /// Submitted shape.
        submitted: Vec<usize>,
    },
}

impl std::fmt::Display for EquivalenceIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EquivalenceIssue::TensorCountMismatch { reference, submitted } => write!(
                f,
                "parameter tensor count differs: reference {reference}, submitted {submitted}"
            ),
            EquivalenceIssue::ShapeMismatch { index, reference, submitted } => write!(
                f,
                "parameter {index} shape differs: reference {reference:?}, submitted {submitted:?}"
            ),
        }
    }
}

/// Compares a submission's signature against a reference signature.
/// Empty result = architecturally equivalent.
pub fn check_equivalence(
    reference: &ModelSignature,
    submitted: &ModelSignature,
) -> Vec<EquivalenceIssue> {
    let mut issues = Vec::new();
    if reference.num_tensors() != submitted.num_tensors() {
        issues.push(EquivalenceIssue::TensorCountMismatch {
            reference: reference.num_tensors(),
            submitted: submitted.num_tensors(),
        });
        return issues;
    }
    for (index, (r, s)) in reference.shapes.iter().zip(submitted.shapes.iter()).enumerate() {
        if r != s {
            issues.push(EquivalenceIssue::ShapeMismatch {
                index,
                reference: r.clone(),
                submitted: s.clone(),
            });
        }
    }
    issues
}

/// The reference signature for a benchmark: the fingerprint of the
/// reference model exactly as the default-scale benchmark builds it.
/// (Initialization seeds do not affect the fingerprint — only shapes.)
pub fn reference_signature(id: BenchmarkId) -> ModelSignature {
    let mut rng = TensorRng::new(0);
    match id {
        BenchmarkId::ImageClassification => {
            let cfg = mlperf_data::ImageNetConfig::default();
            ModelSignature::of(&mlperf_models::ResNetMini::new(
                mlperf_models::ResNetConfig {
                    in_channels: cfg.channels,
                    input_size: cfg.image_size,
                    classes: cfg.classes,
                    base_width: 8,
                    blocks_per_stage: 1,
                },
                &mut rng,
            ))
        }
        BenchmarkId::ObjectDetection => ModelSignature::of(&mlperf_models::SsdMini::new(
            mlperf_models::SsdConfig::default(),
            &mut rng,
        )),
        BenchmarkId::InstanceSegmentation => ModelSignature::of(&mlperf_models::MaskRcnnMini::new(
            mlperf_models::MaskRcnnConfig { proposals: 3, ..Default::default() },
            &mut rng,
        )),
        BenchmarkId::TranslationRecurrent => {
            let data = mlperf_data::TranslationConfig::default();
            ModelSignature::of(&mlperf_models::GnmtMini::new(
                mlperf_models::GnmtConfig {
                    vocab: data.vocab,
                    max_len: data.max_len + 2,
                    embed_dim: 24,
                    hidden: 48,
                },
                &mut rng,
            ))
        }
        BenchmarkId::TranslationNonRecurrent => {
            let data = mlperf_data::TranslationConfig::default();
            ModelSignature::of(&mlperf_models::TransformerMini::new(
                mlperf_models::TransformerConfig {
                    vocab: data.vocab,
                    max_len: data.max_len + 2,
                    ..Default::default()
                },
                &mut rng,
            ))
        }
        BenchmarkId::Recommendation => {
            let data = mlperf_data::CfConfig::default();
            ModelSignature::of(&mlperf_models::Ncf::new(
                mlperf_models::NcfConfig {
                    users: data.users,
                    items: data.items,
                    ..Default::default()
                },
                &mut rng,
            ))
        }
        BenchmarkId::ReinforcementLearning => ModelSignature::of(&mlperf_models::MiniGoNet::new(
            mlperf_models::MiniGoConfig::default(),
            &mut rng,
        )),
        BenchmarkId::LanguageModeling => {
            let data = mlperf_data::MaskedLmConfig::default();
            ModelSignature::of(&mlperf_models::BertMini::new(
                mlperf_models::BertConfig {
                    vocab: data.vocab,
                    max_len: data.sentence_len(),
                    ..Default::default()
                },
                &mut rng,
            ))
        }
        BenchmarkId::RecommendationDlrm => {
            let data = mlperf_data::ClickLogConfig::default();
            ModelSignature::of(&mlperf_models::DlrmMini::new(
                mlperf_models::DlrmConfig {
                    dense_dim: data.dense_dim,
                    categorical_vocabs: data.categorical_vocabs.clone(),
                    bag_vocab: data.bag_vocab,
                    ..Default::default()
                },
                &mut rng,
            ))
        }
        BenchmarkId::SpeechRecognition => {
            let data = mlperf_data::SpeechConfig::default();
            ModelSignature::of(&mlperf_models::RnnTMini::new(
                mlperf_models::RnnTConfig {
                    frame_dim: data.frame_dim,
                    classes: data.classes(),
                    ..Default::default()
                },
                &mut rng,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reference_signature_is_nonempty() {
        for id in BenchmarkId::ALL {
            let sig = reference_signature(id);
            assert!(sig.num_tensors() > 0, "{id}");
            assert!(sig.num_params() > 0, "{id}");
        }
    }

    #[test]
    fn reference_signatures_are_distinct() {
        let sigs: Vec<ModelSignature> =
            BenchmarkId::ALL.iter().map(|&id| reference_signature(id)).collect();
        for i in 0..sigs.len() {
            for j in (i + 1)..sigs.len() {
                assert_ne!(sigs[i], sigs[j], "benchmarks {i} and {j} share a signature");
            }
        }
    }

    #[test]
    fn signature_independent_of_init_seed() {
        let mut r1 = TensorRng::new(1);
        let mut r2 = TensorRng::new(999);
        let a = ModelSignature::of(&mlperf_models::MiniGoNet::new(
            mlperf_models::MiniGoConfig::default(),
            &mut r1,
        ));
        let b = ModelSignature::of(&mlperf_models::MiniGoNet::new(
            mlperf_models::MiniGoConfig::default(),
            &mut r2,
        ));
        assert_eq!(a, b);
    }

    #[test]
    fn matching_model_passes() {
        let reference = reference_signature(BenchmarkId::ReinforcementLearning);
        let mut rng = TensorRng::new(5);
        let candidate =
            mlperf_models::MiniGoNet::new(mlperf_models::MiniGoConfig::default(), &mut rng);
        assert!(check_equivalence(&reference, &ModelSignature::of(&candidate)).is_empty());
    }

    #[test]
    fn widened_model_flagged() {
        let reference = reference_signature(BenchmarkId::ReinforcementLearning);
        let mut rng = TensorRng::new(5);
        let widened = mlperf_models::MiniGoNet::new(
            mlperf_models::MiniGoConfig { width: 32, ..Default::default() },
            &mut rng,
        );
        let issues = check_equivalence(&reference, &ModelSignature::of(&widened));
        assert!(!issues.is_empty());
        assert!(matches!(issues[0], EquivalenceIssue::ShapeMismatch { .. }));
    }

    #[test]
    fn different_architecture_flagged_by_count() {
        let resnet = reference_signature(BenchmarkId::ImageClassification);
        let ncf = reference_signature(BenchmarkId::Recommendation);
        let issues = check_equivalence(&resnet, &ncf);
        assert!(matches!(issues[0], EquivalenceIssue::TensorCountMismatch { .. }));
    }

    #[test]
    fn display_messages_are_informative() {
        let issue = EquivalenceIssue::ShapeMismatch {
            index: 3,
            reference: vec![8, 4, 3, 3],
            submitted: vec![16, 4, 3, 3],
        };
        let msg = issue.to_string();
        assert!(msg.contains("parameter 3"));
        assert!(msg.contains("[8, 4, 3, 3]"));
    }
}
