//! Evaluation-decode parity: batched greedy decoding emits, for every
//! sentence, exactly the tokens a one-sentence decode emits.
//!
//! The translation benchmarks score the validation set inside the timed
//! region by handing it whole to `greedy_translate_batch`, which decodes
//! equal-length sentences together in lock-step. BLEU, epochs-to-target
//! and every golden pin rest on that being invisible in the output. The
//! models' own unit tests hold the batch to the per-sentence decode it
//! replaced (a `#[cfg(test)]` oracle); this is the same contract through
//! the public API, against the remaining single-sentence decoder —
//! width-1 beam search — on partly trained models, where rows of one
//! group finish at different steps, on both tensor backends.

use mlperf_suite::data::{SyntheticTranslation, TranslationConfig};
use mlperf_suite::models::{GnmtConfig, GnmtMini, TransformerConfig, TransformerMini};
use mlperf_suite::nn::Module;
use mlperf_suite::optim::{clip_grad_norm, Adam, Optimizer};
use mlperf_suite::tensor::{BackendKind, TensorRng};

const BACKENDS: [BackendKind; 2] = [BackendKind::Reference, BackendKind::Blocked];

/// Checks `batch` against `single` on the whole validation set, in
/// input order and reversed, before training and after each of
/// `checkpoints` calls of `train_some`; asserts that some checkpoint had
/// ragged output lengths (otherwise the finished mask went untested).
fn assert_decode_parity(
    data: &SyntheticTranslation,
    checkpoints: usize,
    mut train_some: impl FnMut(),
    batch: impl Fn(&[&[usize]]) -> Vec<Vec<usize>>,
    single: impl Fn(&[usize]) -> Vec<usize>,
) {
    let sources: Vec<&[usize]> = data.val.iter().map(|p| p.source.as_slice()).collect();
    let reversed: Vec<&[usize]> = sources.iter().rev().copied().collect();
    let mut most_lengths = 0;
    for checkpoint in 0..=checkpoints {
        if checkpoint > 0 {
            train_some();
        }
        let expected: Vec<Vec<usize>> = sources.iter().map(|s| single(s)).collect();
        assert_eq!(batch(&sources), expected, "checkpoint {checkpoint}");
        let mut got = batch(&reversed);
        got.reverse();
        assert_eq!(got, expected, "checkpoint {checkpoint}, reversed input order");
        let lengths: std::collections::BTreeSet<usize> = expected.iter().map(Vec::len).collect();
        most_lengths = most_lengths.max(lengths.len());
    }
    assert!(most_lengths >= 3, "no checkpoint had ragged output lengths");
}

#[test]
fn transformer_batch_equals_width_one_beam_per_sentence() {
    let cfg = TranslationConfig::default();
    let data = SyntheticTranslation::generate(cfg, 21);
    for backend in BACKENDS {
        let model = TransformerMini::new(
            TransformerConfig { vocab: cfg.vocab, max_len: cfg.max_len + 2, ..Default::default() },
            &mut TensorRng::new(21).with_backend(backend),
        );
        let mut opt = Adam::with_defaults(model.params());
        let mut batches = data.train.chunks(32).cycle();
        assert_decode_parity(
            &data,
            6,
            || {
                for pairs in batches.by_ref().take(2) {
                    let refs: Vec<&_> = pairs.iter().collect();
                    opt.zero_grad();
                    model.loss(&SyntheticTranslation::pad_batch(&refs, cfg.max_len)).backward();
                    opt.step(0.01);
                }
            },
            |batch| model.greedy_translate_batch(batch),
            |source| model.beam_translate(source, 1),
        );
    }
}

#[test]
fn gnmt_batch_equals_width_one_beam_per_sentence() {
    let cfg = TranslationConfig::default();
    let data = SyntheticTranslation::generate(cfg, 22);
    for backend in BACKENDS {
        let model = GnmtMini::new(
            GnmtConfig { vocab: cfg.vocab, max_len: cfg.max_len + 2, ..Default::default() },
            &mut TensorRng::new(22).with_backend(backend),
        );
        let mut opt = Adam::with_defaults(model.params());
        let mut batches = data.train.chunks(32).cycle();
        assert_decode_parity(
            &data,
            6,
            || {
                for pairs in batches.by_ref().take(6) {
                    let refs: Vec<&_> = pairs.iter().collect();
                    opt.zero_grad();
                    model.loss(&SyntheticTranslation::pad_batch(&refs, cfg.max_len)).backward();
                    clip_grad_norm(&model.params(), 5.0);
                    opt.step(0.012);
                }
            },
            |batch| model.greedy_translate_batch(batch),
            |source| model.beam_translate(source, 1),
        );
    }
}
