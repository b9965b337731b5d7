//! BERT, miniaturized: a pre-LN Transformer encoder with a masked-LM
//! head, for the language-modeling benchmark the v0.7 round added.
//!
//! Structure follows Devlin et al.: token embeddings plus position
//! encodings, stacked self-attention blocks (bidirectional — no causal
//! mask), and the masked-LM head predicting original tokens at masked
//! positions. Sinusoidal positions stand in for learned ones, matching
//! the other attention models in this crate.

use crate::common::{sinusoidal_positions, EncoderBlock};
use mlperf_autograd::Var;
use mlperf_data::MaskedSentence;
use mlperf_nn::{Embedding, LayerNorm, MaskedLmHead, Module};
use mlperf_tensor::TensorRng;

/// Network geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BertConfig {
    /// Vocabulary size (including the `[MASK]` token).
    pub vocab: usize,
    /// Model width.
    pub model_dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// Feed-forward inner width.
    pub ff_dim: usize,
    /// Encoder blocks.
    pub layers: usize,
    /// Maximum sequence length.
    pub max_len: usize,
}

impl Default for BertConfig {
    fn default() -> Self {
        BertConfig { vocab: 24, model_dim: 16, heads: 2, ff_dim: 32, layers: 2, max_len: 12 }
    }
}

/// The miniaturized BERT masked-language model.
#[derive(Debug)]
pub struct BertMini {
    embed: Embedding,
    encoder: Vec<EncoderBlock>,
    final_ln: LayerNorm,
    head: MaskedLmHead,
    config: BertConfig,
}

impl BertMini {
    /// Builds the network with the given geometry.
    pub fn new(config: BertConfig, rng: &mut TensorRng) -> Self {
        let encoder = (0..config.layers)
            .map(|_| EncoderBlock::new(config.model_dim, config.heads, config.ff_dim, rng))
            .collect();
        BertMini {
            embed: Embedding::new(config.vocab, config.model_dim, rng),
            encoder,
            final_ln: LayerNorm::new(config.model_dim),
            head: MaskedLmHead::new(config.model_dim, config.vocab, rng),
            config,
        }
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> BertConfig {
        self.config
    }

    /// Encoder states `[batch, seq, model_dim]` for already-masked
    /// token sequences.
    ///
    /// # Panics
    ///
    /// Panics when a sequence exceeds `max_len` or the batch is ragged.
    pub(crate) fn encode(&self, token_batch: &[Vec<usize>]) -> Var {
        assert!(!token_batch.is_empty(), "empty batch");
        let seq = token_batch[0].len();
        assert!(seq <= self.config.max_len, "sequence longer than max_len");
        let x = self.embed.forward_batch(token_batch);
        let pos = Var::constant(sinusoidal_positions(seq, self.config.model_dim));
        let mut h = x.add(&pos);
        for block in &self.encoder {
            h = block.forward(&h);
        }
        self.final_ln.forward(&h)
    }

    /// Masked positions of a sentence batch as the head's
    /// `(batch, seq, token)` triples.
    fn targets(sentences: &[&MaskedSentence]) -> Vec<(usize, usize, usize)> {
        sentences
            .iter()
            .enumerate()
            .flat_map(|(b, s)| s.targets().map(move |(t, token)| (b, t, token)))
            .collect()
    }

    /// Masked-LM cross-entropy over a sentence batch.
    pub fn loss(&self, sentences: &[&MaskedSentence]) -> Var {
        let inputs: Vec<Vec<usize>> = sentences.iter().map(|s| s.masked_tokens()).collect();
        self.head.loss(&self.encode(&inputs), &Self::targets(sentences))
    }

    /// Masked-LM accuracy over a sentence set — the benchmark's
    /// quality metric.
    pub fn masked_accuracy(&self, sentences: &[&MaskedSentence]) -> f64 {
        let inputs: Vec<Vec<usize>> = sentences.iter().map(|s| s.masked_tokens()).collect();
        self.head.accuracy(&self.encode(&inputs), &Self::targets(sentences))
    }
}

impl Module for BertMini {
    fn params(&self) -> Vec<Var> {
        let mut p = self.embed.params();
        for block in &self.encoder {
            p.extend(block.params());
        }
        p.extend(self.final_ln.params());
        p.extend(self.head.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_data::{MaskedLmConfig, SyntheticMaskedLm};
    use mlperf_optim::{Adam, Optimizer};

    fn tiny_model(seed: u64) -> BertMini {
        let mut rng = TensorRng::new(seed);
        let cfg =
            BertConfig { vocab: 12, model_dim: 8, heads: 2, ff_dim: 16, layers: 1, max_len: 6 };
        BertMini::new(cfg, &mut rng)
    }

    #[test]
    fn encode_shape() {
        let m = tiny_model(0);
        let h = m.encode(&[vec![1, 2, 3], vec![4, 5, 6]]);
        assert_eq!(h.shape(), vec![2, 3, 8]);
    }

    #[test]
    fn loss_decreases_under_training() {
        let data = SyntheticMaskedLm::generate(MaskedLmConfig::tiny(), 11);
        let m = tiny_model(1);
        let batch: Vec<&MaskedSentence> = data.train.iter().collect();
        let mut opt = Adam::with_defaults(m.params());
        let first = m.loss(&batch).value().item();
        for _ in 0..30 {
            opt.zero_grad();
            m.loss(&batch).backward();
            opt.step(0.01);
        }
        let last = m.loss(&batch).value().item();
        assert!(last < first * 0.8, "loss {first} -> {last}");
    }

    #[test]
    fn accuracy_is_a_fraction() {
        let data = SyntheticMaskedLm::generate(MaskedLmConfig::tiny(), 12);
        let m = tiny_model(2);
        let eval: Vec<&MaskedSentence> = data.eval.iter().collect();
        let acc = m.masked_accuracy(&eval);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn deterministic_under_seed() {
        let a = tiny_model(7);
        let b = tiny_model(7);
        let x = vec![vec![1, 2, 3]];
        assert_eq!(a.encode(&x).value().data(), b.encode(&x).value().data());
    }
}
