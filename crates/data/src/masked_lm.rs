//! A masked-token-stream dataset standing in for the Wikipedia corpus
//! of the v0.7 BERT benchmark.
//!
//! Ground truth: a small inventory of latent *phrases* (fixed token
//! n-grams). Every sentence concatenates randomly chosen phrases, then
//! a small fraction of tokens is corrupted with uniform noise — so
//! context predicts a masked token well but never perfectly, exactly
//! the regime where masked-LM accuracy climbs with training and
//! saturates below 1.0. Masks are drawn once at generation time
//! (≈15% of positions, BERT's rate), making the dataset — and its
//! held-out evaluation set — a pure function of the seed.

use mlperf_tensor::TensorRng;

/// The reserved `[MASK]` token id. Content tokens are `1..vocab`.
pub(crate) const MASK_TOKEN: usize = 0;

/// Shape of the synthetic masked-LM corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskedLmConfig {
    /// Vocabulary size including the `[MASK]` token at id 0.
    pub vocab: usize,
    /// Number of latent phrases in the generating inventory.
    pub phrases: usize,
    /// Tokens per phrase.
    pub phrase_len: usize,
    /// Phrases concatenated per sentence (sentence length is
    /// `phrase_len * phrases_per_sentence`).
    pub phrases_per_sentence: usize,
    /// Training sentences.
    pub train_sentences: usize,
    /// Held-out evaluation sentences.
    pub eval_sentences: usize,
    /// Fraction of positions masked for prediction.
    pub mask_fraction: f64,
    /// Probability a token is replaced by uniform noise.
    pub noise: f64,
}

impl Default for MaskedLmConfig {
    fn default() -> Self {
        MaskedLmConfig {
            vocab: 24,
            phrases: 8,
            phrase_len: 4,
            phrases_per_sentence: 2,
            train_sentences: 512,
            eval_sentences: 64,
            mask_fraction: 0.15,
            noise: 0.04,
        }
    }
}

impl MaskedLmConfig {
    /// A smaller configuration for fast unit tests.
    pub fn tiny() -> Self {
        MaskedLmConfig {
            vocab: 12,
            phrases: 4,
            phrase_len: 3,
            phrases_per_sentence: 2,
            train_sentences: 10,
            eval_sentences: 4,
            mask_fraction: 0.2,
            noise: 0.1,
        }
    }

    /// Tokens per sentence.
    pub fn sentence_len(&self) -> usize {
        self.phrase_len * self.phrases_per_sentence
    }
}

/// One sentence with its fixed mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskedSentence {
    /// The uncorrupted-by-masking token sequence (noise included).
    pub tokens: Vec<usize>,
    /// Positions masked for prediction, strictly increasing.
    pub masked_positions: Vec<usize>,
}

impl MaskedSentence {
    /// The model input: `tokens` with `[MASK]` at the masked positions.
    pub fn masked_tokens(&self) -> Vec<usize> {
        let mut out = self.tokens.clone();
        for &p in &self.masked_positions {
            out[p] = MASK_TOKEN;
        }
        out
    }

    /// The supervision: `(position, original_token)` per mask.
    pub fn targets(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.masked_positions.iter().map(|&p| (p, self.tokens[p]))
    }
}

/// The generated corpus.
#[derive(Debug, Clone)]
pub struct SyntheticMaskedLm {
    /// Training sentences.
    pub train: Vec<MaskedSentence>,
    /// Held-out evaluation sentences (fixed masks — the benchmark's
    /// eval metric is deterministic given the dataset).
    pub eval: Vec<MaskedSentence>,
    config: MaskedLmConfig,
}

impl SyntheticMaskedLm {
    /// Generates the corpus from a seed.
    ///
    /// # Panics
    ///
    /// Panics when the vocabulary has no room for content tokens.
    pub fn generate(config: MaskedLmConfig, seed: u64) -> Self {
        assert!(config.vocab > 2, "vocabulary must hold [MASK] plus content tokens");
        let mut rng = TensorRng::new(seed);
        // The phrase inventory: fixed n-grams over content tokens.
        let phrases: Vec<Vec<usize>> = (0..config.phrases)
            .map(|_| (0..config.phrase_len).map(|_| 1 + rng.index(config.vocab - 1)).collect())
            .collect();
        let sentence = |rng: &mut TensorRng| -> MaskedSentence {
            let mut tokens = Vec::with_capacity(config.sentence_len());
            for _ in 0..config.phrases_per_sentence {
                tokens.extend_from_slice(&phrases[rng.index(config.phrases)]);
            }
            for t in tokens.iter_mut() {
                if rng.unit_f64() < config.noise {
                    *t = 1 + rng.index(config.vocab - 1);
                }
            }
            let masks = ((config.sentence_len() as f64 * config.mask_fraction).ceil() as usize)
                .clamp(1, config.sentence_len());
            let mut positions: Vec<usize> = (0..config.sentence_len()).collect();
            rng.shuffle(&mut positions);
            let mut masked_positions: Vec<usize> = positions.into_iter().take(masks).collect();
            masked_positions.sort_unstable();
            MaskedSentence { tokens, masked_positions }
        };
        let train = (0..config.train_sentences).map(|_| sentence(&mut rng)).collect();
        let eval = (0..config.eval_sentences).map(|_| sentence(&mut rng)).collect();
        SyntheticMaskedLm { train, eval, config }
    }

    /// The generating configuration.
    pub fn config(&self) -> MaskedLmConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_shapes() {
        let cfg = MaskedLmConfig::tiny();
        let d = SyntheticMaskedLm::generate(cfg, 0);
        assert_eq!(d.train.len(), cfg.train_sentences);
        assert_eq!(d.eval.len(), cfg.eval_sentences);
        for s in d.train.iter().chain(&d.eval) {
            assert_eq!(s.tokens.len(), cfg.sentence_len());
            assert!(!s.masked_positions.is_empty());
            assert!(s.tokens.iter().all(|&t| t != MASK_TOKEN && t < cfg.vocab));
            assert!(s.masked_positions.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn masked_tokens_hide_exactly_the_masked_positions() {
        let d = SyntheticMaskedLm::generate(MaskedLmConfig::tiny(), 1);
        let s = &d.train[0];
        let input = s.masked_tokens();
        for (i, (&inp, &orig)) in input.iter().zip(&s.tokens).enumerate() {
            if s.masked_positions.contains(&i) {
                assert_eq!(inp, MASK_TOKEN);
            } else {
                assert_eq!(inp, orig);
            }
        }
        for (p, t) in s.targets() {
            assert_eq!(s.tokens[p], t);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = SyntheticMaskedLm::generate(MaskedLmConfig::tiny(), 5);
        let b = SyntheticMaskedLm::generate(MaskedLmConfig::tiny(), 5);
        assert_eq!(a.train, b.train);
        assert_eq!(a.eval, b.eval);
        let c = SyntheticMaskedLm::generate(MaskedLmConfig::tiny(), 6);
        assert_ne!(a.train, c.train);
    }

    #[test]
    fn phrase_structure_is_learnable() {
        // Bigram baseline: predict each masked token as the most common
        // training successor of its left neighbour. Phrase structure
        // must lift this far above the uniform-guess rate — that is the
        // signal the benchmark trains on.
        let cfg = MaskedLmConfig::default();
        let d = SyntheticMaskedLm::generate(cfg, 3);
        let mut follows = vec![vec![0usize; cfg.vocab]; cfg.vocab];
        for s in &d.train {
            for w in s.tokens.windows(2) {
                follows[w[0]][w[1]] += 1;
            }
        }
        let (mut hits, mut total) = (0, 0);
        for s in &d.eval {
            for (p, t) in s.targets() {
                if p == 0 {
                    continue;
                }
                let prev = s.tokens[p - 1];
                let guess = (0..cfg.vocab).max_by_key(|&v| follows[prev][v]).unwrap();
                hits += usize::from(guess == t);
                total += 1;
            }
        }
        let acc = hits as f64 / total as f64;
        let chance = 1.0 / (cfg.vocab - 1) as f64;
        assert!(acc > 4.0 * chance, "bigram accuracy {acc} not above {}", 4.0 * chance);
    }
}
