//! The benchmark suite definition — Table 1 of the paper.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The benchmarks of MLPerf Training: the seven v0.5 workloads of
/// Table 1 plus the three workloads the v0.7 round introduced (§6,
/// suite evolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BenchmarkId {
    /// Image classification: ImageNet / ResNet-50 v1.5.
    ImageClassification,
    /// Light-weight object detection: COCO / SSD-ResNet-34.
    ObjectDetection,
    /// Heavy-weight detection + instance segmentation: COCO / Mask R-CNN.
    InstanceSegmentation,
    /// Recurrent translation: WMT16 EN-DE / GNMT.
    TranslationRecurrent,
    /// Non-recurrent translation: WMT17 EN-DE / Transformer.
    TranslationNonRecurrent,
    /// Recommendation: MovieLens-20M / NCF.
    Recommendation,
    /// Reinforcement learning: Go 9×9 / MiniGo.
    ReinforcementLearning,
    /// Language modeling (added in v0.7): Wikipedia / BERT.
    LanguageModeling,
    /// Recommendation at terabyte scale (added in v0.7, replacing NCF):
    /// Criteo 1TB click logs / DLRM.
    RecommendationDlrm,
    /// Speech recognition (added in v0.7): LibriSpeech / RNN-T.
    SpeechRecognition,
}

impl BenchmarkId {
    /// All ten benchmarks: the seven of Table 1 in table order, then
    /// the three v0.7 additions.
    pub const ALL: [BenchmarkId; 10] = [
        BenchmarkId::ImageClassification,
        BenchmarkId::ObjectDetection,
        BenchmarkId::InstanceSegmentation,
        BenchmarkId::TranslationRecurrent,
        BenchmarkId::TranslationNonRecurrent,
        BenchmarkId::Recommendation,
        BenchmarkId::ReinforcementLearning,
        BenchmarkId::LanguageModeling,
        BenchmarkId::RecommendationDlrm,
        BenchmarkId::SpeechRecognition,
    ];

    /// Whether this is one of the vision benchmarks (5 timed runs
    /// required) as opposed to the others (10 runs) — §3.2.2.
    pub(crate) fn is_vision(self) -> bool {
        matches!(
            self,
            BenchmarkId::ImageClassification
                | BenchmarkId::ObjectDetection
                | BenchmarkId::InstanceSegmentation
        )
    }

    /// The number of timed runs a submission must provide (§3.2.2).
    pub fn runs_required(self) -> usize {
        if self.is_vision() {
            5
        } else {
            10
        }
    }

    /// The Table 1 row for this benchmark.
    pub fn spec(self) -> BenchmarkSpec {
        match self {
            BenchmarkId::ImageClassification => BenchmarkSpec {
                id: self,
                area: "Vision",
                dataset: "ImageNet (synthetic stand-in)",
                model: "ResNet-50 v1.5 (ResNetMini)",
                quality: QualityTarget { metric: "Top-1 accuracy", value: 0.749 },
            },
            BenchmarkId::ObjectDetection => BenchmarkSpec {
                id: self,
                area: "Vision",
                dataset: "COCO 2017 (synthetic shapes)",
                model: "SSD-ResNet-34 (SsdMini)",
                quality: QualityTarget { metric: "mAP", value: 0.212 },
            },
            BenchmarkId::InstanceSegmentation => BenchmarkSpec {
                id: self,
                area: "Vision",
                dataset: "COCO 2017 (synthetic shapes)",
                model: "Mask R-CNN (MaskRcnnMini)",
                quality: QualityTarget { metric: "Box/Mask min AP", value: 0.377 },
            },
            BenchmarkId::TranslationRecurrent => BenchmarkSpec {
                id: self,
                area: "Language",
                dataset: "WMT16 EN-DE (synthetic grammar)",
                model: "GNMT (GnmtMini)",
                quality: QualityTarget { metric: "Sacre BLEU", value: 21.8 },
            },
            BenchmarkId::TranslationNonRecurrent => BenchmarkSpec {
                id: self,
                area: "Language",
                dataset: "WMT17 EN-DE (synthetic grammar)",
                model: "Transformer (TransformerMini)",
                quality: QualityTarget { metric: "BLEU", value: 25.0 },
            },
            BenchmarkId::Recommendation => BenchmarkSpec {
                id: self,
                area: "Commerce",
                dataset: "MovieLens-20M (synthetic CF)",
                model: "NCF",
                quality: QualityTarget { metric: "HR@10", value: 0.635 },
            },
            BenchmarkId::ReinforcementLearning => BenchmarkSpec {
                id: self,
                area: "Research",
                dataset: "Go 9×9 (engine reference games)",
                model: "MiniGo (MiniGoNet)",
                quality: QualityTarget { metric: "Pro move prediction", value: 0.40 },
            },
            // The three v0.7 additions carry their v0.7 targets in the
            // spec — they never existed under earlier rules.
            BenchmarkId::LanguageModeling => BenchmarkSpec {
                id: self,
                area: "Language",
                dataset: "Wikipedia 2020 (synthetic phrase corpus)",
                model: "BERT (BertMini)",
                quality: QualityTarget { metric: "Masked-LM accuracy", value: 0.712 },
            },
            BenchmarkId::RecommendationDlrm => BenchmarkSpec {
                id: self,
                area: "Commerce",
                dataset: "Criteo 1TB (synthetic click log)",
                model: "DLRM (DlrmMini)",
                quality: QualityTarget { metric: "AUC", value: 0.8025 },
            },
            BenchmarkId::SpeechRecognition => BenchmarkSpec {
                id: self,
                area: "Speech",
                dataset: "LibriSpeech (synthetic frame stream)",
                model: "RNN-T (RnnTMini)",
                // The paper's v0.7 target is 0.058 WER; the harness
                // stops when quality rises past the target, so the
                // metric is stored as 1 − WER.
                quality: QualityTarget { metric: "1 - WER", value: 0.942 },
            },
        }
    }

    /// Short machine-friendly name.
    pub fn slug(self) -> &'static str {
        match self {
            BenchmarkId::ImageClassification => "resnet",
            BenchmarkId::ObjectDetection => "ssd",
            BenchmarkId::InstanceSegmentation => "maskrcnn",
            BenchmarkId::TranslationRecurrent => "gnmt",
            BenchmarkId::TranslationNonRecurrent => "transformer",
            BenchmarkId::Recommendation => "ncf",
            BenchmarkId::ReinforcementLearning => "minigo",
            BenchmarkId::LanguageModeling => "bert",
            BenchmarkId::RecommendationDlrm => "dlrm",
            BenchmarkId::SpeechRecognition => "rnnt",
        }
    }

    /// The benchmark whose [`slug`](BenchmarkId::slug) is `slug` — the
    /// inverse of the name written into `submission_benchmark` mllog
    /// lines.
    pub fn from_slug(slug: &str) -> Option<BenchmarkId> {
        BenchmarkId::ALL.into_iter().find(|id| id.slug() == slug)
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// A benchmark-suite round. The suite is maintained by standing working
/// groups and updated between rounds (§4, §6): v0.6 raised several
/// quality targets (ResNet to 75.9% after allowing LARS, GNMT to 24.0
/// BLEU after model improvements), switched the MiniGo reference to C++,
/// and dropped the NCF benchmark pending the synthetic dataset rework.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuiteVersion {
    /// December 2018 round.
    V05,
    /// June 2019 round.
    V06,
    /// July 2020 round: carries the v0.6 targets forward for the
    /// continuing workloads and introduces BERT (masked-LM accuracy
    /// 0.712), DLRM (AUC 0.8025) and RNN-T (0.058 WER, stored here as
    /// 1 − WER = 0.942) — the workload refresh the paper's §6 argues a
    /// training benchmark needs round over round.
    V07,
}

impl fmt::Display for SuiteVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SuiteVersion::V05 => "v0.5",
            SuiteVersion::V06 => "v0.6",
            SuiteVersion::V07 => "v0.7",
        })
    }
}

impl BenchmarkId {
    /// The quality target in effect for a suite round, or `None` when
    /// the benchmark was not part of that round.
    pub fn quality_for(self, version: SuiteVersion) -> Option<QualityTarget> {
        // The v0.7 additions only ever existed under the v0.7 rules;
        // their spec already carries the v0.7 target.
        if matches!(
            self,
            BenchmarkId::LanguageModeling
                | BenchmarkId::RecommendationDlrm
                | BenchmarkId::SpeechRecognition
        ) {
            return (version == SuiteVersion::V07).then(|| self.spec().quality);
        }
        match version {
            SuiteVersion::V05 => Some(self.spec().quality),
            // v0.7 carries the v0.6 targets forward for the continuing
            // benchmarks (see [`SuiteVersion::V07`]).
            SuiteVersion::V06 | SuiteVersion::V07 => match self {
                BenchmarkId::ImageClassification => {
                    Some(QualityTarget { metric: "Top-1 accuracy", value: 0.759 })
                }
                BenchmarkId::ObjectDetection => Some(QualityTarget { metric: "mAP", value: 0.23 }),
                BenchmarkId::InstanceSegmentation => Some(self.spec().quality),
                BenchmarkId::TranslationRecurrent => {
                    Some(QualityTarget { metric: "Sacre BLEU", value: 24.0 })
                }
                BenchmarkId::TranslationNonRecurrent => Some(self.spec().quality),
                // NCF was dropped for v0.6 pending the synthetic
                // dataset replacement (§3.1.5).
                BenchmarkId::Recommendation => None,
                BenchmarkId::ReinforcementLearning => {
                    Some(QualityTarget { metric: "Pro move prediction", value: 0.50 })
                }
                BenchmarkId::LanguageModeling
                | BenchmarkId::RecommendationDlrm
                | BenchmarkId::SpeechRecognition => unreachable!("handled above"),
            },
        }
    }

    /// The benchmarks included in a suite round.
    pub fn in_version(version: SuiteVersion) -> Vec<BenchmarkId> {
        BenchmarkId::ALL.into_iter().filter(|id| id.quality_for(version).is_some()).collect()
    }
}

/// A quality threshold: the metric name and value training must reach.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityTarget {
    /// Human name of the metric.
    pub metric: &'static str,
    /// The threshold value.
    pub value: f64,
}

/// One Table 1 row: task, dataset, model and quality threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkSpec {
    /// Which benchmark this is.
    pub id: BenchmarkId,
    /// The ML area the paper groups it under.
    pub area: &'static str,
    /// Dataset (paper's, with this reproduction's substitution noted).
    pub dataset: &'static str,
    /// Model (paper's, with this reproduction's type noted).
    pub model: &'static str,
    /// The quality threshold.
    pub quality: QualityTarget,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_benchmarks() {
        // Seven from Table 1 plus the three v0.7 additions.
        assert_eq!(BenchmarkId::ALL.len(), 10);
    }

    #[test]
    fn run_requirements_follow_paper() {
        // 5 for vision, 10 for everything else.
        for id in BenchmarkId::ALL {
            let expected = if id.is_vision() { 5 } else { 10 };
            assert_eq!(id.runs_required(), expected, "{id}");
        }
        assert_eq!(BenchmarkId::ALL.iter().filter(|b| b.is_vision()).count(), 3);
        // The v0.7 additions are all non-vision: 10 runs each.
        assert_eq!(BenchmarkId::LanguageModeling.runs_required(), 10);
        assert_eq!(BenchmarkId::RecommendationDlrm.runs_required(), 10);
        assert_eq!(BenchmarkId::SpeechRecognition.runs_required(), 10);
    }

    #[test]
    fn table1_thresholds_match_paper() {
        assert_eq!(BenchmarkId::ImageClassification.spec().quality.value, 0.749);
        assert_eq!(BenchmarkId::ObjectDetection.spec().quality.value, 0.212);
        assert_eq!(BenchmarkId::TranslationRecurrent.spec().quality.value, 21.8);
        assert_eq!(BenchmarkId::TranslationNonRecurrent.spec().quality.value, 25.0);
        assert_eq!(BenchmarkId::Recommendation.spec().quality.value, 0.635);
        assert_eq!(BenchmarkId::ReinforcementLearning.spec().quality.value, 0.40);
    }

    #[test]
    fn v06_raises_targets_and_drops_ncf() {
        // Raised: ResNet, SSD, GNMT, MiniGo. Unchanged: Mask R-CNN,
        // Transformer. Dropped: NCF.
        let raised = [
            BenchmarkId::ImageClassification,
            BenchmarkId::ObjectDetection,
            BenchmarkId::TranslationRecurrent,
            BenchmarkId::ReinforcementLearning,
        ];
        for id in raised {
            let v05 = id.quality_for(SuiteVersion::V05).unwrap().value;
            let v06 = id.quality_for(SuiteVersion::V06).unwrap().value;
            assert!(v06 > v05, "{id}: {v05} -> {v06}");
        }
        for id in [BenchmarkId::InstanceSegmentation, BenchmarkId::TranslationNonRecurrent] {
            assert_eq!(
                id.quality_for(SuiteVersion::V05),
                id.quality_for(SuiteVersion::V06),
                "{id}"
            );
        }
        assert!(BenchmarkId::Recommendation.quality_for(SuiteVersion::V06).is_none());
        assert_eq!(BenchmarkId::in_version(SuiteVersion::V05).len(), 7);
        assert_eq!(BenchmarkId::in_version(SuiteVersion::V06).len(), 6);
    }

    #[test]
    fn v07_carries_v06_targets_and_adds_three_workloads() {
        let additions = [
            BenchmarkId::LanguageModeling,
            BenchmarkId::RecommendationDlrm,
            BenchmarkId::SpeechRecognition,
        ];
        // Continuing benchmarks keep their v0.6 targets.
        for id in BenchmarkId::ALL {
            if additions.contains(&id) {
                continue;
            }
            assert_eq!(
                id.quality_for(SuiteVersion::V06),
                id.quality_for(SuiteVersion::V07),
                "{id}"
            );
        }
        // The additions exist only in v0.7, at the paper's targets.
        for id in additions {
            assert!(id.quality_for(SuiteVersion::V05).is_none(), "{id}");
            assert!(id.quality_for(SuiteVersion::V06).is_none(), "{id}");
            assert!(id.quality_for(SuiteVersion::V07).is_some(), "{id}");
        }
        assert_eq!(
            BenchmarkId::LanguageModeling.quality_for(SuiteVersion::V07).unwrap().value,
            0.712
        );
        assert_eq!(
            BenchmarkId::RecommendationDlrm.quality_for(SuiteVersion::V07).unwrap().value,
            0.8025
        );
        assert_eq!(
            BenchmarkId::SpeechRecognition.quality_for(SuiteVersion::V07).unwrap().value,
            0.942
        );
        assert_eq!(BenchmarkId::in_version(SuiteVersion::V07).len(), 9);
    }

    #[test]
    fn slugs_are_unique_and_round_trip() {
        let mut slugs: Vec<&str> = BenchmarkId::ALL.iter().map(|b| b.slug()).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), BenchmarkId::ALL.len());
        for id in BenchmarkId::ALL {
            assert_eq!(BenchmarkId::from_slug(id.slug()), Some(id), "{id}");
        }
        assert_eq!(BenchmarkId::from_slug("not-a-benchmark"), None);
    }
}
