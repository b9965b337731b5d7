//! The Transformer, miniaturized (§3.1.3): attention-based
//! encoder/decoder for the non-recurrent translation benchmark.
//!
//! Structure follows Vaswani et al.: stacked blocks of multi-head
//! attention and position-wise feed-forward layers with residual
//! connections and layer norm (pre-norm variant for small-scale
//! stability), sinusoidal position encodings, teacher-forced training
//! and greedy autoregressive decoding.
//!
//! Greedy decoding is a batch operation
//! ([`TransformerMini::greedy_translate_batch`]): the lock-step driver in
//! `common.rs` groups sources by exact length and this model supplies
//! only "encode this group" and "next token per row" (first maximum of
//! the last position's logits). The per-sentence decode it replaced
//! survives as the `#[cfg(test)]` oracle the batch is held to, token
//! for token. There is deliberately no incremental key/value cache:
//! after batching, this model's whole evaluation is a few percent of a
//! training job, which does not pay for a second decoder forward path.

use crate::common::{
    assert_no_empty_source, greedy_decode_batch, sinusoidal_positions, EncoderBlock, FeedForward,
};
use mlperf_autograd::Var;
use mlperf_data::{PaddedBatch, BOS, EOS, PAD};
use mlperf_nn::{causal_mask, Embedding, LayerNorm, Linear, Module, MultiHeadAttention};
use mlperf_tensor::{Tensor, TensorRng};

/// Network geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransformerConfig {
    /// Vocabulary size (shared source/target).
    pub vocab: usize,
    /// Model width.
    pub model_dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// Feed-forward inner width.
    pub ff_dim: usize,
    /// Encoder blocks.
    pub enc_layers: usize,
    /// Decoder blocks.
    pub dec_layers: usize,
    /// Maximum decode length.
    pub max_len: usize,
}

impl Default for TransformerConfig {
    fn default() -> Self {
        TransformerConfig {
            vocab: 24,
            model_dim: 16,
            heads: 2,
            ff_dim: 32,
            enc_layers: 1,
            dec_layers: 1,
            max_len: 12,
        }
    }
}

#[derive(Debug)]
struct DecoderBlock {
    self_attn: MultiHeadAttention,
    cross_attn: MultiHeadAttention,
    ff: FeedForward,
    ln1: LayerNorm,
    ln2: LayerNorm,
    ln3: LayerNorm,
}

impl DecoderBlock {
    fn forward(&self, x: &Var, memory: &Var, mask: &Tensor) -> Var {
        let h = x.add(&self.self_attn.self_attention(&self.ln1.forward(x), Some(mask)));
        let h2 = h.add(&self.cross_attn.forward(&self.ln2.forward(&h), memory, memory, None));
        h2.add(&self.ff.forward(&self.ln3.forward(&h2)))
    }
}

impl Module for DecoderBlock {
    fn params(&self) -> Vec<Var> {
        let mut p = self.self_attn.params();
        p.extend(self.cross_attn.params());
        p.extend(self.ff.params());
        p.extend(self.ln1.params());
        p.extend(self.ln2.params());
        p.extend(self.ln3.params());
        p
    }
}

/// The miniaturized Transformer translation model.
#[derive(Debug)]
pub struct TransformerMini {
    src_embed: Embedding,
    tgt_embed: Embedding,
    encoder: Vec<EncoderBlock>,
    decoder: Vec<DecoderBlock>,
    /// Final norms of the pre-LN encoder/decoder stacks.
    enc_ln: LayerNorm,
    dec_ln: LayerNorm,
    out_proj: Linear,
    config: TransformerConfig,
}

impl TransformerMini {
    /// Builds the model.
    pub fn new(config: TransformerConfig, rng: &mut TensorRng) -> Self {
        let d = config.model_dim;
        let mk_dec = |rng: &mut TensorRng| DecoderBlock {
            self_attn: MultiHeadAttention::new(d, config.heads, rng),
            cross_attn: MultiHeadAttention::new(d, config.heads, rng),
            ff: FeedForward::new(d, config.ff_dim, rng),
            ln1: LayerNorm::new(d),
            ln2: LayerNorm::new(d),
            ln3: LayerNorm::new(d),
        };
        TransformerMini {
            src_embed: Embedding::new(config.vocab, d, rng),
            tgt_embed: Embedding::new(config.vocab, d, rng),
            encoder: (0..config.enc_layers)
                .map(|_| EncoderBlock::new(d, config.heads, config.ff_dim, rng))
                .collect(),
            decoder: (0..config.dec_layers).map(|_| mk_dec(rng)).collect(),
            enc_ln: LayerNorm::new(d),
            dec_ln: LayerNorm::new(d),
            out_proj: Linear::new(d, config.vocab, true, rng),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> TransformerConfig {
        self.config
    }

    fn embed(&self, table: &Embedding, ids: &[Vec<usize>]) -> Var {
        let x = table.forward_batch(ids);
        let t = ids[0].len();
        let pos = Var::constant(sinusoidal_positions(t, self.config.model_dim));
        x.add(&pos)
    }

    /// Encodes padded source sequences into memory states
    /// `[batch, src_len, dim]`.
    ///
    /// # Panics
    ///
    /// Panics if a source sentence is empty (attention over zero
    /// positions is undefined), or if the batch is empty or ragged.
    pub(crate) fn encode(&self, sources: &[Vec<usize>]) -> Var {
        assert_no_empty_source(sources);
        let mut h = self.embed(&self.src_embed, sources);
        for block in &self.encoder {
            h = block.forward(&h);
        }
        self.enc_ln.forward(&h)
    }

    /// Decoder logits for teacher-forced inputs:
    /// `[batch, tgt_len, vocab]`.
    pub fn decode(&self, memory: &Var, tgt_inputs: &[Vec<usize>]) -> Var {
        let t = tgt_inputs[0].len();
        let mask = causal_mask(t);
        let mut h = self.embed(&self.tgt_embed, tgt_inputs);
        for block in &self.decoder {
            h = block.forward(&h, memory, &mask);
        }
        self.out_proj.forward(&self.dec_ln.forward(&h))
    }

    /// Teacher-forced mean cross-entropy over non-PAD target positions.
    pub fn loss(&self, batch: &PaddedBatch) -> Var {
        let memory = self.encode(&batch.sources);
        // Decoder input: target[.. len-1]; prediction target: target[1..].
        let inputs: Vec<Vec<usize>> =
            batch.targets.iter().map(|t| t[..t.len() - 1].to_vec()).collect();
        let logits = self.decode(&memory, &inputs);
        let (b, t, v) = (logits.shape()[0], logits.shape()[1], logits.shape()[2]);
        let flat = logits.reshape(&[b * t, v]);
        // Keep only non-PAD prediction positions.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (i, tgt) in batch.targets.iter().enumerate() {
            for (j, &tok) in tgt[1..].iter().enumerate() {
                if tok != PAD {
                    rows.push(i * t + j);
                    labels.push(tok);
                }
            }
        }
        flat.gather_rows(&rows).cross_entropy_logits(&labels)
    }

    /// Teacher-forced log-probability of a full candidate translation
    /// (including its end-of-sequence token) — the quantity beam search
    /// maximizes; the tests rescore beam hypotheses with it.
    ///
    /// # Panics
    ///
    /// Panics if `source` is empty.
    #[cfg(test)]
    fn sequence_logprob(&self, source: &[usize], target: &[usize]) -> f32 {
        let memory = self.encode(&[source.to_vec()]);
        let mut inputs = vec![BOS];
        inputs.extend_from_slice(target);
        let logits = self.decode(&memory, &[inputs.clone()]);
        let t = inputs.len();
        let logp = logits.value().reshape(&[t, self.config.vocab]).log_softmax_last_axis();
        let mut total = 0.0;
        for (step, &tok) in target.iter().chain(std::iter::once(&EOS)).enumerate() {
            total += logp.data()[step * self.config.vocab + tok];
        }
        total
    }

    /// Beam-search translation (the reference implementation's decode
    /// mode). `width` 1 reproduces
    /// [`TransformerMini::greedy_translate_batch`] on a batch of one.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or `source` is empty.
    pub fn beam_translate(&self, source: &[usize], width: usize) -> Vec<usize> {
        self.beam_translate_scored(source, width).0
    }

    /// Beam-search translation returning the winning hypothesis, its
    /// cumulative log-probability as computed by the search, and
    /// whether it finished with an end-of-sequence token (rather than
    /// hitting the length cap).
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
        let memory = self.encode(&[source.to_vec()]);
        let vocab = self.config.vocab;
        // (tokens incl. BOS, cumulative logprob, finished)
        let mut beams: Vec<(Vec<usize>, f32, bool)> = vec![(vec![BOS], 0.0, false)];
        for _ in 0..self.config.max_len {
            if beams.iter().all(|b| b.2) {
                break;
            }
            let mut candidates: Vec<(Vec<usize>, f32, bool)> = Vec::new();
            for (tokens, logp, done) in &beams {
                if *done {
                    candidates.push((tokens.clone(), *logp, true));
                    continue;
                }
                let logits = self.decode(&memory, std::slice::from_ref(tokens));
                let last = logits
                    .value()
                    .narrow(1, tokens.len() - 1, 1)
                    .reshape(&[1, vocab])
                    .log_softmax_last_axis();
                let mut scored: Vec<(usize, f32)> =
                    last.data().iter().enumerate().map(|(tok, &lp)| (tok, lp)).collect();
                scored.sort_by(|a, b| b.1.total_cmp(&a.1));
                for &(tok, tlp) in scored.iter().take(width) {
                    if tok == EOS {
                        candidates.push((tokens.clone(), logp + tlp, true));
                    } else {
                        let mut next = tokens.clone();
                        next.push(tok);
                        candidates.push((next, logp + tlp, false));
                    }
                }
            }
            candidates.sort_by(|a, b| b.1.total_cmp(&a.1));
            candidates.truncate(width);
            beams = candidates;
        }
        beams.sort_by(|a, b| b.1.total_cmp(&a.1));
        beams
            .first()
            .map(|(tokens, score, done)| (tokens[1..].to_vec(), *score, *done))
            .unwrap_or_default()
    }

    /// Greedy autoregressive translation of a batch of source sentences,
    /// results in input order; a caller with one sentence passes a slice
    /// of one. Sources of equal length are decoded together in lock-step
    /// (one decoder forward per step for the whole group), and every
    /// sentence gets exactly the tokens it would get decoded alone.
    /// An empty batch returns `vec![]`.
    ///
    /// # Panics
    ///
    /// Panics if a source sentence is empty.
    pub fn greedy_translate_batch(&self, sources: &[&[usize]]) -> Vec<Vec<usize>> {
        greedy_decode_batch(
            sources,
            self.config.max_len,
            |group| self.encode(group),
            |memory, fed| {
                let logits = self.decode(memory, fed);
                let (rows, t) = (fed.len(), fed[0].len());
                let last = logits.value().narrow(1, t - 1, 1).reshape(&[rows, self.config.vocab]);
                last.argmax_last_axis()
            },
        )
    }

    /// The per-sentence greedy decode [`Self::greedy_translate_batch`]
    /// replaced, verbatim: the oracle the batch is held to.
    #[cfg(test)]
    fn greedy_translate(&self, source: &[usize]) -> Vec<usize> {
        let memory = self.encode(&[source.to_vec()]);
        let mut tokens = vec![BOS];
        for _ in 0..self.config.max_len {
            let logits = self.decode(&memory, &[tokens.clone()]);
            let t = tokens.len();
            let last = logits.value().narrow(1, t - 1, 1).reshape(&[self.config.vocab]);
            let next = last.argmax_last_axis()[0];
            if next == EOS {
                break;
            }
            tokens.push(next);
        }
        tokens[1..].to_vec()
    }
}

impl Module for TransformerMini {
    fn params(&self) -> Vec<Var> {
        let mut p = self.src_embed.params();
        p.extend(self.tgt_embed.params());
        for b in &self.encoder {
            p.extend(b.params());
        }
        for b in &self.decoder {
            p.extend(b.params());
        }
        p.extend(self.enc_ln.params());
        p.extend(self.dec_ln.params());
        p.extend(self.out_proj.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::assert_batch_matches_oracle;
    use mlperf_data::{SyntheticTranslation, TranslationConfig};
    use mlperf_optim::{Adam, Optimizer};

    fn setup(seed: u64) -> (TransformerMini, SyntheticTranslation) {
        let mut rng = TensorRng::new(seed);
        let data_cfg = TranslationConfig::tiny();
        let model_cfg = TransformerConfig {
            vocab: data_cfg.vocab,
            max_len: data_cfg.max_len + 2,
            ..Default::default()
        };
        (TransformerMini::new(model_cfg, &mut rng), SyntheticTranslation::generate(data_cfg, seed))
    }

    #[test]
    fn loss_is_near_uniform_at_init() {
        let (model, data) = setup(0);
        let refs: Vec<&_> = data.train.iter().take(4).collect();
        let batch = SyntheticTranslation::pad_batch(&refs, data.config().max_len);
        let loss = model.loss(&batch).value().item();
        let uniform = (model.config().vocab as f32).ln();
        assert!(loss.is_finite());
        assert!((loss - uniform).abs() < 1.5, "loss {loss} far from ln V {uniform}");
    }

    #[test]
    fn training_reduces_loss() {
        let (model, data) = setup(1);
        let refs: Vec<&_> = data.train.iter().take(16).collect();
        let batch = SyntheticTranslation::pad_batch(&refs, data.config().max_len);
        let mut opt = Adam::with_defaults(model.params());
        let initial = model.loss(&batch).value().item();
        for _ in 0..30 {
            opt.zero_grad();
            model.loss(&batch).backward();
            opt.step(0.01);
        }
        let final_loss = model.loss(&batch).value().item();
        assert!(final_loss < initial * 0.7, "loss {initial} -> {final_loss}");
    }

    #[test]
    fn greedy_translate_terminates_and_respects_max_len() {
        let (model, data) = setup(2);
        let out = &model.greedy_translate_batch(&[&data.val[0].source])[0];
        assert!(out.len() <= model.config().max_len);
    }

    #[test]
    fn beam_width_one_matches_greedy() {
        let (model, data) = setup(4);
        for pair in data.val.iter().take(4) {
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
        let model = TransformerMini::new(
            TransformerConfig {
                vocab: data_cfg.vocab,
                max_len: data_cfg.max_len + 2,
                ..Default::default()
            },
            &mut TensorRng::new(11),
        );
        let sources: Vec<&[usize]> = data.val.iter().map(|p| p.source.as_slice()).collect();
        // A few batches between checks, so rows finish at different steps.
        let mut opt = Adam::with_defaults(model.params());
        let mut batches = data.train.chunks(32);
        assert_batch_matches_oracle(
            &sources,
            3,
            || {
                for pairs in batches.by_ref().take(3) {
                    let refs: Vec<&_> = pairs.iter().collect();
                    opt.zero_grad();
                    model
                        .loss(&SyntheticTranslation::pad_batch(&refs, data_cfg.max_len))
                        .backward();
                    opt.step(0.01);
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
    fn empty_source_is_refused_before_attention() {
        let (model, _) = setup(7);
        model.beam_translate(&[], 2);
    }

    #[test]
    fn beam_score_is_self_consistent() {
        // For hypotheses that finished with EOS, the search's internal
        // score must equal independent teacher-forced rescoring.
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
    fn wider_beam_helps_on_average() {
        // Beam search is not per-instance optimal vs greedy (the greedy
        // path can be pruned), but across a sample it should not lose.
        let (model, data) = setup(5);
        let mut total_g = 0.0;
        let mut total_b = 0.0;
        for pair in data.val.iter().take(8) {
            let greedy = &model.greedy_translate_batch(&[&pair.source])[0];
            total_g += model.sequence_logprob(&pair.source, greedy);
            total_b += model.sequence_logprob(&pair.source, &model.beam_translate(&pair.source, 4));
        }
        assert!(total_b >= total_g - 1.0, "beam total {total_b} far below greedy total {total_g}");
    }

    #[test]
    fn sequence_logprob_is_negative_logspace() {
        let (model, data) = setup(6);
        let lp = model.sequence_logprob(&data.val[0].source, &data.val[0].target);
        assert!(lp < 0.0, "untrained model cannot be certain: {lp}");
        assert!(lp.is_finite());
    }

    #[test]
    fn gradients_reach_embeddings_and_heads() {
        let (model, data) = setup(3);
        let refs: Vec<&_> = data.train.iter().take(2).collect();
        let batch = SyntheticTranslation::pad_batch(&refs, data.config().max_len);
        model.loss(&batch).backward();
        for (i, p) in model.params().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i} missing grad");
        }
    }
}
