//! RNN-T, miniaturized: a recurrent transducer for the speech
//! recognition benchmark the v0.7 round added.
//!
//! Structure follows Graves' transducer in miniature: an LSTM encoder
//! consumes acoustic frames and a joint projection emits per-frame
//! class logits over the label vocabulary plus blank. Training uses the
//! CTC-style alignment loss from `mlperf-nn` (the generator supplies
//! frame alignments, standing in for the transducer's alignment
//! marginalization), and decoding is greedy collapse-repeats /
//! drop-blanks — so the evaluated quantity is a genuine word-error
//! rate over held-out utterances.

use mlperf_autograd::Var;
use mlperf_data::{Utterance, BLANK};
use mlperf_nn::{
    ctc_alignment_loss, greedy_ctc_decode, label_error_rate, Linear, LstmCell, Module,
};
use mlperf_tensor::{Tensor, TensorRng};

/// Network geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RnnTConfig {
    /// Width of one acoustic frame.
    pub frame_dim: usize,
    /// LSTM hidden width.
    pub hidden: usize,
    /// Output classes: real labels plus blank.
    pub classes: usize,
}

impl Default for RnnTConfig {
    fn default() -> Self {
        RnnTConfig { frame_dim: 6, hidden: 16, classes: 9 }
    }
}

/// The miniaturized RNN transducer.
#[derive(Debug)]
pub struct RnnTMini {
    encoder: LstmCell,
    joint: Linear,
    config: RnnTConfig,
}

impl RnnTMini {
    /// Builds the network with the given geometry.
    pub fn new(config: RnnTConfig, rng: &mut TensorRng) -> Self {
        RnnTMini {
            encoder: LstmCell::new(config.frame_dim, config.hidden, rng),
            joint: Linear::new(config.hidden, config.classes, true, rng),
            config,
        }
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> RnnTConfig {
        self.config
    }

    /// The `[batch, frames, frame_dim]` input tensor for a batch of
    /// equal-length utterances.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or utterances of unequal length.
    fn frames_var(&self, batch: &[&Utterance]) -> Var {
        assert!(!batch.is_empty(), "empty batch");
        let frames = batch[0].alignment.len();
        let mut data = Vec::with_capacity(batch.len() * frames * self.config.frame_dim);
        for u in batch {
            assert_eq!(u.alignment.len(), frames, "ragged utterance batch");
            assert_eq!(u.frames.len(), frames * self.config.frame_dim, "frame width mismatch");
            data.extend_from_slice(&u.frames);
        }
        Var::constant(Tensor::from_vec(data, &[batch.len(), frames, self.config.frame_dim]))
    }

    /// Per-frame class logits `[batch, frames, classes]`.
    pub fn forward(&self, batch: &[&Utterance]) -> Var {
        let xs = self.frames_var(batch);
        let init = self.encoder.zero_state(batch.len());
        let (hidden, _) = self.encoder.run(&xs, &init);
        self.joint.forward(&hidden)
    }

    /// CTC-style alignment loss over a batch.
    pub fn loss(&self, batch: &[&Utterance]) -> Var {
        let alignments: Vec<Vec<usize>> = batch.iter().map(|u| u.alignment.clone()).collect();
        ctc_alignment_loss(&self.forward(batch), &alignments)
    }

    /// Greedy transcriptions (collapse repeats, drop blanks).
    pub(crate) fn transcribe(&self, batch: &[&Utterance]) -> Vec<Vec<usize>> {
        greedy_ctc_decode(&self.forward(batch).value(), BLANK)
    }

    /// Word-error rate of the greedy transcriptions against the
    /// reference transcripts.
    pub fn wer(&self, batch: &[&Utterance]) -> f64 {
        let references: Vec<Vec<usize>> = batch.iter().map(|u| u.labels.clone()).collect();
        label_error_rate(&self.transcribe(batch), &references)
    }
}

impl Module for RnnTMini {
    fn params(&self) -> Vec<Var> {
        let mut p = self.encoder.params();
        p.extend(self.joint.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_data::{SpeechConfig, SyntheticSpeech};
    use mlperf_optim::{Adam, Optimizer};

    fn tiny() -> (SyntheticSpeech, RnnTMini) {
        let cfg = SpeechConfig::tiny();
        let data = SyntheticSpeech::generate(cfg, 17);
        let mut rng = TensorRng::new(4);
        let model = RnnTMini::new(
            RnnTConfig { frame_dim: cfg.frame_dim, hidden: 8, classes: cfg.classes() },
            &mut rng,
        );
        (data, model)
    }

    #[test]
    fn forward_shape() {
        let (data, m) = tiny();
        let batch: Vec<&Utterance> = data.train.iter().take(3).collect();
        let frames = data.config().frames_per_utterance();
        assert_eq!(m.forward(&batch).shape(), vec![3, frames, data.config().classes()]);
    }

    #[test]
    fn loss_decreases_and_wer_improves() {
        let (data, m) = tiny();
        let batch: Vec<&Utterance> = data.train.iter().collect();
        let eval: Vec<&Utterance> = data.eval.iter().collect();
        let mut opt = Adam::with_defaults(m.params());
        let first = m.loss(&batch).value().item();
        let wer_before = m.wer(&eval);
        for _ in 0..60 {
            opt.zero_grad();
            m.loss(&batch).backward();
            opt.step(0.02);
        }
        let last = m.loss(&batch).value().item();
        assert!(last < first * 0.7, "loss {first} -> {last}");
        assert!(m.wer(&eval) <= wer_before, "WER got worse");
    }

    #[test]
    fn transcriptions_use_label_alphabet() {
        let (data, m) = tiny();
        let batch: Vec<&Utterance> = data.eval.iter().collect();
        for t in m.transcribe(&batch) {
            assert!(t.iter().all(|&l| l != BLANK && l < data.config().classes()));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let (data, _) = tiny();
        let batch: Vec<&Utterance> = data.train.iter().take(2).collect();
        let make = || {
            let mut rng = TensorRng::new(5);
            RnnTMini::new(
                RnnTConfig {
                    frame_dim: data.config().frame_dim,
                    hidden: 8,
                    classes: data.config().classes(),
                },
                &mut rng,
            )
        };
        assert_eq!(make().forward(&batch).value().data(), make().forward(&batch).value().data());
    }
}
