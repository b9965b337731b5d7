//! GNMT, miniaturized (§3.1.3): the suite's recurrent translation
//! representative — an LSTM encoder/decoder with dot-product attention
//! over encoder states (the core structure of Wu et al., 2016, at toy
//! scale).
//!
//! Greedy decoding is a batch operation
//! ([`GnmtMini::greedy_translate_batch`]): the lock-step driver in
//! `common.rs` groups sources by exact length and this model supplies
//! only "encode this group" and "next token per row" (last maximum of
//! each row's log-probabilities). One `decode_step` over a slice of
//! previous tokens serves greedy decoding, beam search and
//! `sequence_logprob` (the latter two pass a slice of one). The
//! per-sentence decode the batch replaced survives as the
//! `#[cfg(test)]` oracle it is held to, token for token.

use crate::common::{assert_no_empty_source, greedy_decode_batch};
use mlperf_autograd::Var;
use mlperf_data::{PaddedBatch, BOS, EOS, PAD};
use mlperf_nn::{Embedding, Linear, LstmCell, Module};
use mlperf_tensor::TensorRng;

/// Network geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GnmtConfig {
    /// Vocabulary size (shared source/target).
    pub vocab: usize,
    /// Embedding width.
    pub embed_dim: usize,
    /// LSTM hidden width.
    pub hidden: usize,
    /// Maximum decode length.
    pub max_len: usize,
}

impl Default for GnmtConfig {
    fn default() -> Self {
        GnmtConfig { vocab: 24, embed_dim: 16, hidden: 24, max_len: 12 }
    }
}

/// The recurrent translation model.
#[derive(Debug)]
pub struct GnmtMini {
    src_embed: Embedding,
    tgt_embed: Embedding,
    encoder: LstmCell,
    decoder: LstmCell,
    /// Combines decoder state and attention context before projection.
    attn_combine: Linear,
    out_proj: Linear,
    config: GnmtConfig,
}

impl GnmtMini {
    /// Builds the model.
    pub fn new(config: GnmtConfig, rng: &mut TensorRng) -> Self {
        GnmtMini {
            src_embed: Embedding::new(config.vocab, config.embed_dim, rng),
            tgt_embed: Embedding::new(config.vocab, config.embed_dim, rng),
            encoder: LstmCell::new(config.embed_dim, config.hidden, rng),
            decoder: LstmCell::new(config.embed_dim, config.hidden, rng),
            attn_combine: Linear::new(2 * config.hidden, config.hidden, true, rng),
            out_proj: Linear::new(config.hidden, config.vocab, true, rng),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> GnmtConfig {
        self.config
    }

    /// Encodes padded sources: all encoder hidden states
    /// `[batch, src_len, hidden]` plus the final recurrent state.
    ///
    /// # Panics
    ///
    /// Panics if a source sentence is empty (the recurrence would run
    /// zero steps and leave no state to attend over).
    fn encode(&self, sources: &[Vec<usize>]) -> EncoderOut {
        assert_no_empty_source(sources);
        let x = self.src_embed.forward_batch(sources);
        let init = self.encoder.zero_state(sources.len());
        let (states, last) = self.encoder.run(&x, &init);
        EncoderOut { states, last }
    }

    /// Dot-product attention: context for a decoder state `[b, hidden]`
    /// over memory `[b, t, hidden]`.
    fn attend(&self, memory: &Var, h: &Var) -> Var {
        let b = h.shape()[0];
        let hid = self.config.hidden;
        let t = memory.shape()[1];
        let query = h.reshape(&[b, hid, 1]);
        // scores [b, t, 1]
        let scores = memory.bmm(&query).scale(1.0 / (hid as f32).sqrt());
        let weights = scores.reshape(&[b, t]).softmax_last_axis().reshape(&[b, 1, t]);
        weights.bmm(memory).reshape(&[b, hid])
    }

    /// Teacher-forced mean cross-entropy over non-PAD target positions.
    pub fn loss(&self, batch: &PaddedBatch) -> Var {
        let enc = self.encode(&batch.sources);
        let mut state = enc.last;
        let tgt_len = batch.targets[0].len();
        let mut losses = Vec::new();
        for step in 0..tgt_len - 1 {
            let inputs: Vec<usize> = batch.targets.iter().map(|t| t[step]).collect();
            let x = self.tgt_embed.forward(&inputs);
            state = self.decoder.step(&x, &state);
            let ctx = self.attend(&enc.states, &state.h);
            let combined = self.attn_combine.forward(&Var::concat(&[&state.h, &ctx], 1)).tanh();
            let logits = self.out_proj.forward(&combined); // [b, vocab]
                                                           // Collect non-PAD labels at this step.
            let mut rows = Vec::new();
            let mut labels = Vec::new();
            for (i, tgt) in batch.targets.iter().enumerate() {
                let tok = tgt[step + 1];
                if tok != PAD {
                    rows.push(i);
                    labels.push(tok);
                }
            }
            if !rows.is_empty() {
                losses.push(logits.gather_rows(&rows).cross_entropy_logits(&labels));
            }
        }
        // Mean over steps.
        let mut total = losses[0].clone();
        for l in &losses[1..] {
            total = total.add(l);
        }
        total.scale(1.0 / losses.len() as f32)
    }

    /// One decoder step from a detached state for a batch of rows, one
    /// previous token per row: returns the vocabulary log-probabilities,
    /// row-major `[rows × vocab]`, and the next (detached) state.
    fn decode_step(
        &self,
        enc_states: &Var,
        state: &mlperf_nn::LstmState,
        prev_tokens: &[usize],
    ) -> (Vec<f32>, mlperf_nn::LstmState) {
        let x = self.tgt_embed.forward(prev_tokens);
        let next = self.decoder.step(&x, state);
        let ctx = self.attend(enc_states, &next.h);
        let combined = self.attn_combine.forward(&Var::concat(&[&next.h, &ctx], 1)).tanh();
        let logp = self.out_proj.forward(&combined).value().log_softmax_last_axis();
        let detached = mlperf_nn::LstmState { h: next.h.detach(), c: next.c.detach() };
        (logp.into_vec(), detached)
    }

    /// Greedy decode of a batch of source sentences, results in input
    /// order; a caller with one sentence passes a slice of one. Sources
    /// of equal length are decoded together in lock-step (one decoder
    /// step for the whole group), and every sentence gets exactly the
    /// tokens it would get decoded alone. An empty batch returns
    /// `vec![]`.
    ///
    /// # Panics
    ///
    /// Panics if a source sentence is empty.
    pub fn greedy_translate_batch(&self, sources: &[&[usize]]) -> Vec<Vec<usize>> {
        greedy_decode_batch(
            sources,
            self.config.max_len,
            |group| {
                let enc = self.encode(group);
                let state = mlperf_nn::LstmState { h: enc.last.h.detach(), c: enc.last.c.detach() };
                (enc.states, state)
            },
            |(enc_states, state), fed| {
                let prev: Vec<usize> =
                    fed.iter().map(|row| *row.last().expect("fed starts at BOS")).collect();
                let (dist, next_state) = self.decode_step(enc_states, state, &prev);
                *state = next_state;
                dist.chunks(self.config.vocab).map(last_maximum).collect()
            },
        )
    }

    /// The per-sentence greedy decode [`Self::greedy_translate_batch`]
    /// replaced, verbatim (but for `decode_step`'s slice): the oracle
    /// the batch is held to.
    #[cfg(test)]
    fn greedy_translate(&self, source: &[usize]) -> Vec<usize> {
        let enc = self.encode(&[source.to_vec()]);
        let mut state = mlperf_nn::LstmState { h: enc.last.h.detach(), c: enc.last.c.detach() };
        let mut tokens = Vec::new();
        let mut prev = BOS;
        for _ in 0..self.config.max_len {
            let (dist, next_state) = self.decode_step(&enc.states, &state, &[prev]);
            let next = dist
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(t, _)| t)
                .expect("non-empty vocabulary");
            if next == EOS {
                break;
            }
            tokens.push(next);
            prev = next;
            state = next_state;
        }
        tokens
    }

    /// Teacher-forced log-probability of a candidate translation
    /// (including its end-of-sequence token); the tests rescore beam
    /// hypotheses with it.
    ///
    /// # Panics
    ///
    /// Panics if `source` is empty.
    #[cfg(test)]
    fn sequence_logprob(&self, source: &[usize], target: &[usize]) -> f32 {
        let enc = self.encode(&[source.to_vec()]);
        let mut state = mlperf_nn::LstmState { h: enc.last.h.detach(), c: enc.last.c.detach() };
        let mut prev = BOS;
        let mut total = 0.0;
        for &tok in target.iter().chain(std::iter::once(&EOS)) {
            let (logp, next) = self.decode_step(&enc.states, &state, &[prev]);
            total += logp[tok];
            state = next;
            prev = tok;
        }
        total
    }

    /// Beam-search decode (the GNMT reference's decode mode); `width` 1
    /// reproduces [`GnmtMini::greedy_translate_batch`] on a batch of one.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or `source` is empty.
    pub fn beam_translate(&self, source: &[usize], width: usize) -> Vec<usize> {
        self.beam_translate_scored(source, width).0
    }

    /// Beam-search decode returning the winning hypothesis, its
    /// cumulative log-probability, and whether it finished with EOS.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or `source` is empty.
    pub(crate) fn beam_translate_scored(
        &self,
        source: &[usize],
        width: usize,
    ) -> (Vec<usize>, f32, bool) {
        assert!(width > 0, "beam width must be positive");
        let enc = self.encode(&[source.to_vec()]);
        let init = mlperf_nn::LstmState { h: enc.last.h.detach(), c: enc.last.c.detach() };
        // (tokens, cumulative logprob, decoder state, finished)
        let mut beams: Vec<(Vec<usize>, f32, mlperf_nn::LstmState, bool)> =
            vec![(Vec::new(), 0.0, init, false)];
        for _ in 0..self.config.max_len {
            if beams.iter().all(|b| b.3) {
                break;
            }
            let mut candidates: Vec<(Vec<usize>, f32, mlperf_nn::LstmState, bool)> = Vec::new();
            for (tokens, logp, state, done) in &beams {
                if *done {
                    candidates.push((tokens.clone(), *logp, state.clone(), true));
                    continue;
                }
                let prev = *tokens.last().unwrap_or(&BOS);
                let (dist, next_state) = self.decode_step(&enc.states, state, &[prev]);
                let mut scored: Vec<(usize, f32)> =
                    dist.iter().enumerate().map(|(t, &lp)| (t, lp)).collect();
                scored.sort_by(|a, b| b.1.total_cmp(&a.1));
                for &(tok, tlp) in scored.iter().take(width) {
                    if tok == EOS {
                        candidates.push((tokens.clone(), logp + tlp, next_state.clone(), true));
                    } else {
                        let mut next = tokens.clone();
                        next.push(tok);
                        candidates.push((next, logp + tlp, next_state.clone(), false));
                    }
                }
            }
            candidates.sort_by(|a, b| b.1.total_cmp(&a.1));
            candidates.truncate(width);
            beams = candidates;
        }
        beams.sort_by(|a, b| b.1.total_cmp(&a.1));
        beams
            .into_iter()
            .next()
            .map(|(tokens, score, _, done)| (tokens, score, done))
            .unwrap_or_default()
    }
}

/// Index of the last maximum of one row of log-probabilities: the
/// tie-break this model's greedy decode has always had (`max_by` keeps
/// the last of equal maxima).
fn last_maximum(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(t, _)| t)
        .expect("non-empty vocabulary")
}

/// Encoder outputs: all states plus the final recurrent state.
struct EncoderOut {
    states: Var,
    last: mlperf_nn::LstmState,
}

impl Module for GnmtMini {
    fn params(&self) -> Vec<Var> {
        [
            &self.src_embed as &dyn Module,
            &self.tgt_embed,
            &self.encoder,
            &self.decoder,
            &self.attn_combine,
            &self.out_proj,
        ]
        .iter()
        .flat_map(|m| m.params())
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::assert_batch_matches_oracle;
    use mlperf_data::{SyntheticTranslation, TranslationConfig};
    use mlperf_optim::{clip_grad_norm, Adam, Optimizer};

    fn setup(seed: u64) -> (GnmtMini, SyntheticTranslation) {
        let mut rng = TensorRng::new(seed);
        let data_cfg = TranslationConfig::tiny();
        let cfg = GnmtConfig {
            vocab: data_cfg.vocab,
            max_len: data_cfg.max_len + 2,
            ..Default::default()
        };
        (GnmtMini::new(cfg, &mut rng), SyntheticTranslation::generate(data_cfg, seed))
    }

    #[test]
    fn loss_finite_at_init() {
        let (model, data) = setup(0);
        let refs: Vec<&_> = data.train.iter().take(4).collect();
        let batch = SyntheticTranslation::pad_batch(&refs, data.config().max_len);
        let l = model.loss(&batch).value().item();
        assert!(l.is_finite() && l > 0.0);
    }

    #[test]
    fn training_reduces_loss_with_clipping() {
        let (model, data) = setup(1);
        let refs: Vec<&_> = data.train.iter().take(16).collect();
        let batch = SyntheticTranslation::pad_batch(&refs, data.config().max_len);
        let mut opt = Adam::with_defaults(model.params());
        let initial = model.loss(&batch).value().item();
        for _ in 0..30 {
            opt.zero_grad();
            model.loss(&batch).backward();
            clip_grad_norm(&model.params(), 5.0);
            opt.step(0.01);
        }
        let final_loss = model.loss(&batch).value().item();
        assert!(final_loss < initial * 0.8, "loss {initial} -> {final_loss}");
    }

    #[test]
    fn greedy_decode_bounded() {
        let (model, data) = setup(2);
        let out = &model.greedy_translate_batch(&[&data.val[0].source])[0];
        assert!(out.len() <= model.config().max_len);
        for &t in out {
            assert!(t < model.config().vocab);
        }
    }

    #[test]
    fn beam_width_one_matches_greedy() {
        let (model, data) = setup(4);
        for pair in data.val.iter().take(3) {
            assert_eq!(
                model.beam_translate(&pair.source, 1),
                model.greedy_translate_batch(&[&pair.source])[0]
            );
        }
    }

    #[test]
    fn batched_greedy_matches_the_per_sentence_oracle_at_every_checkpoint() {
        // The benchmark's own geometry: 64 validation sentences of
        // lengths 3–6, so four groups of about sixteen.
        let data_cfg = TranslationConfig::default();
        let data = SyntheticTranslation::generate(data_cfg, 11);
        let model = GnmtMini::new(
            GnmtConfig {
                vocab: data_cfg.vocab,
                max_len: data_cfg.max_len + 2,
                ..Default::default()
            },
            &mut TensorRng::new(11),
        );
        let sources: Vec<&[usize]> = data.val.iter().map(|p| p.source.as_slice()).collect();
        // An epoch between checks, so rows finish at different steps.
        let mut opt = Adam::with_defaults(model.params());
        assert_batch_matches_oracle(
            &sources,
            4,
            || {
                for pairs in data.train.chunks(32) {
                    let refs: Vec<&_> = pairs.iter().collect();
                    opt.zero_grad();
                    model
                        .loss(&SyntheticTranslation::pad_batch(&refs, data_cfg.max_len))
                        .backward();
                    clip_grad_norm(&model.params(), 5.0);
                    opt.step(0.012);
                }
            },
            |batch| model.greedy_translate_batch(batch),
            |source| model.greedy_translate(source),
        );
    }

    #[test]
    #[should_panic(expected = "source sentence 1 is empty")]
    fn empty_source_in_a_batch_is_named() {
        let (model, data) = setup(7);
        model.greedy_translate_batch(&[&data.val[0].source, &[]]);
    }

    #[test]
    #[should_panic(expected = "source sentence 0 is empty")]
    fn empty_source_is_refused_before_the_recurrence() {
        let (model, _) = setup(7);
        model.sequence_logprob(&[], &[3]);
    }

    #[test]
    fn beam_score_is_self_consistent() {
        let (model, data) = setup(5);
        let mut checked = 0;
        for pair in data.val.iter().take(6) {
            let (tokens, score, finished) = model.beam_translate_scored(&pair.source, 3);
            if finished {
                let rescored = model.sequence_logprob(&pair.source, &tokens);
                assert!(
                    (rescored - score).abs() < 1e-3,
                    "beam score {score} vs rescore {rescored}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "no beam finished; widen max_len");
    }

    #[test]
    fn gradients_flow_everywhere() {
        let (model, data) = setup(3);
        let refs: Vec<&_> = data.train.iter().take(2).collect();
        let batch = SyntheticTranslation::pad_batch(&refs, data.config().max_len);
        model.loss(&batch).backward();
        for (i, p) in model.params().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i} missing grad");
        }
    }
}
