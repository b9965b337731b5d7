//! Synthetic datasets and data pipelines for the MLPerf Training
//! benchmark tasks: the seven v0.5 workloads plus the v0.7 additions
//! (masked token streams for BERT, click logs for DLRM, aligned frame
//! sequences for RNN-T).
//!
//! The paper's suite uses ImageNet, COCO, WMT EN–DE, MovieLens-20M and
//! professional Go games. None of those are available to this
//! reproduction, so each is replaced by a *procedurally generated*
//! dataset that preserves the property the benchmark measures: a model
//! of the right family, trained by SGD, reaches a non-trivial quality
//! threshold only after several epochs, with seed-dependent
//! trajectories. (This mirrors what MLPerf itself did for v0.7, where
//! the NCF dataset was replaced by a synthetic expansion that retains
//! the statistics of the original — Belletti et al., 2019.)
//!
//! The crate also implements the pipeline machinery whose timing the
//! benchmark rules govern: one-time reformatting (excluded from timed
//! runs, §3.2.1), training-time augmentation (must *not* be hoisted into
//! the reformatting stage), seeded shuffling and sharding.

#![warn(missing_docs)]

mod augment;
mod cf;
mod click_log;
mod loader;
mod masked_lm;
mod minigo_data;
mod reformat;
mod shapes;
mod speech;
mod synth_imagenet;
mod translation;

pub use augment::Compose;
pub use cf::{CfConfig, InteractionSet, SyntheticCf};
pub use click_log::{auc, ClickLogConfig, Impression, SyntheticClickLog};

pub use loader::{epoch_batches, shard, BatchPlan};
pub use masked_lm::{MaskedLmConfig, MaskedSentence, SyntheticMaskedLm};
pub use minigo_data::{reference_games, GoDataset, GoSample};
pub use reformat::{PackedImages, ReformatStats};
pub use shapes::{
    iou_corners, BoxLabel, DetectionSample, ShapeClass, ShapesConfig, SyntheticShapes,
};
pub use speech::{SpeechConfig, SyntheticSpeech, Utterance, BLANK};
pub use synth_imagenet::{ImageNetConfig, ImageSet, SyntheticImageNet};
pub use translation::{
    PaddedBatch, SyntheticTranslation, TranslationConfig, TranslationPair, BOS, EOS, PAD,
};
