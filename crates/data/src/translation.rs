//! A deterministic toy translation task standing in for WMT EN–DE.
//!
//! The "language pair" is defined by a compositional token-level
//! transformation: the target is the source *reversed*, with each token
//! mapped through a fixed permutation of the vocabulary, bracketed by
//! BOS/EOS. Learning it requires exactly what translation models
//! exercise: token embeddings, order-sensitive encoding (attention or
//! recurrence), and autoregressive decoding — and quality is measured
//! with real BLEU (implemented in `mlperf-core`'s metrics).

use mlperf_tensor::TensorRng;

/// Padding token id.
pub const PAD: usize = 0;
/// Beginning-of-sequence token id.
pub const BOS: usize = 1;
/// End-of-sequence token id.
pub const EOS: usize = 2;
/// First id available for content tokens.
const FIRST_CONTENT: usize = 3;

/// A source/target sentence pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslationPair {
    /// Source token ids (no BOS/EOS).
    pub source: Vec<usize>,
    /// Target token ids (no BOS/EOS; the decoder adds them).
    pub target: Vec<usize>,
}

/// Shape of the synthetic translation dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranslationConfig {
    /// Total vocabulary size, including PAD/BOS/EOS.
    pub vocab: usize,
    /// Minimum source length.
    pub min_len: usize,
    /// Maximum source length.
    pub max_len: usize,
    /// Training pairs.
    pub train_pairs: usize,
    /// Validation pairs.
    pub val_pairs: usize,
}

impl Default for TranslationConfig {
    fn default() -> Self {
        TranslationConfig { vocab: 24, min_len: 3, max_len: 6, train_pairs: 384, val_pairs: 64 }
    }
}

impl TranslationConfig {
    /// A smaller configuration for fast unit tests.
    pub fn tiny() -> Self {
        TranslationConfig { vocab: 12, min_len: 2, max_len: 4, train_pairs: 32, val_pairs: 8 }
    }
}

/// The synthetic parallel corpus.
#[derive(Debug, Clone)]
pub struct SyntheticTranslation {
    /// Training pairs.
    pub train: Vec<TranslationPair>,
    /// Validation pairs.
    pub val: Vec<TranslationPair>,
    config: TranslationConfig,
}

impl SyntheticTranslation {
    /// Generates the corpus from a seed. The token permutation defining
    /// the "language" depends on the seed too, so different seeds give
    /// different (but equally hard) tasks.
    ///
    /// # Panics
    ///
    /// Panics if the vocabulary is too small for content tokens.
    pub fn generate(config: TranslationConfig, seed: u64) -> Self {
        assert!(config.vocab > FIRST_CONTENT + 1, "vocab {} too small", config.vocab);
        let mut rng = TensorRng::new(seed);
        // A fixed random permutation of the content tokens.
        let mut mapping: Vec<usize> = (FIRST_CONTENT..config.vocab).collect();
        rng.shuffle(&mut mapping);
        let full_mapping: Vec<usize> = (0..config.vocab)
            .map(|t| if t < FIRST_CONTENT { t } else { mapping[t - FIRST_CONTENT] })
            .collect();
        let gen_pair = |rng: &mut TensorRng| {
            let len = config.min_len + rng.index(config.max_len - config.min_len + 1);
            let source: Vec<usize> =
                (0..len).map(|_| FIRST_CONTENT + rng.index(config.vocab - FIRST_CONTENT)).collect();
            let target = translate(&source, &full_mapping);
            TranslationPair { source, target }
        };
        let train = (0..config.train_pairs).map(|_| gen_pair(&mut rng)).collect();
        let val = (0..config.val_pairs).map(|_| gen_pair(&mut rng)).collect();
        SyntheticTranslation { train, val, config }
    }

    /// The generating configuration.
    pub fn config(&self) -> TranslationConfig {
        self.config
    }

    /// Pads a set of pairs into rectangular id matrices for batching.
    pub fn pad_batch(pairs: &[&TranslationPair], max_len: usize) -> PaddedBatch {
        let src_len = max_len;
        let tgt_len = max_len + 2; // room for BOS … EOS
        let mut sources = Vec::with_capacity(pairs.len());
        let mut targets = Vec::with_capacity(pairs.len());
        for p in pairs {
            let mut s = p.source.clone();
            s.truncate(src_len);
            s.resize(src_len, PAD);
            sources.push(s);
            let mut t = Vec::with_capacity(tgt_len);
            t.push(BOS);
            t.extend_from_slice(&p.target);
            t.push(EOS);
            t.truncate(tgt_len);
            t.resize(tgt_len, PAD);
            targets.push(t);
        }
        PaddedBatch { sources, targets }
    }
}

/// Rectangular, padded id matrices ready for embedding lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaddedBatch {
    /// `[batch][src_len]` source ids (PAD-filled).
    pub sources: Vec<Vec<usize>>,
    /// `[batch][tgt_len]` target ids: BOS, content, EOS, PAD-filled.
    pub targets: Vec<Vec<usize>>,
}

/// The ground-truth transformation: reverse + token permutation.
fn translate(source: &[usize], mapping: &[usize]) -> Vec<usize> {
    source.iter().rev().map(|&t| mapping[t]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The token map the pairs of `d` imply (target = mapped source,
    /// reversed); panics if two pairs disagree on a token.
    fn implied_mapping(d: &SyntheticTranslation) -> HashMap<usize, usize> {
        let mut mapping = HashMap::new();
        for p in d.train.iter().chain(&d.val) {
            assert_eq!(p.target.len(), p.source.len());
            for (s, t) in p.source.iter().rev().zip(&p.target) {
                assert_eq!(*mapping.entry(*s).or_insert(*t), *t, "token {s} maps two ways");
            }
        }
        mapping
    }

    #[test]
    fn target_is_reversed_permutation() {
        let d = SyntheticTranslation::generate(TranslationConfig::tiny(), 0);
        assert!(!implied_mapping(&d).is_empty());
    }

    #[test]
    fn mapping_is_a_bijection_on_content() {
        let d = SyntheticTranslation::generate(TranslationConfig::tiny(), 1);
        let mut seen = std::collections::HashSet::new();
        for (_, m) in implied_mapping(&d) {
            assert!(m >= 3, "content token mapped to special token");
            assert!(seen.insert(m), "mapping not injective");
        }
    }

    #[test]
    fn lengths_within_bounds() {
        let cfg = TranslationConfig::tiny();
        let d = SyntheticTranslation::generate(cfg, 2);
        for p in d.train.iter().chain(d.val.iter()) {
            assert!((cfg.min_len..=cfg.max_len).contains(&p.source.len()));
        }
    }

    #[test]
    fn padding_shapes_and_markers() {
        let cfg = TranslationConfig::tiny();
        let d = SyntheticTranslation::generate(cfg, 3);
        let refs: Vec<&TranslationPair> = d.train.iter().take(5).collect();
        let batch = SyntheticTranslation::pad_batch(&refs, cfg.max_len);
        for (s, t) in batch.sources.iter().zip(batch.targets.iter()) {
            assert_eq!(s.len(), cfg.max_len);
            assert_eq!(t.len(), cfg.max_len + 2);
            assert_eq!(t[0], BOS);
            assert!(t.contains(&EOS));
        }
    }

    #[test]
    fn seeded_determinism() {
        let a = SyntheticTranslation::generate(TranslationConfig::tiny(), 7);
        let b = SyntheticTranslation::generate(TranslationConfig::tiny(), 7);
        assert_eq!(a.train, b.train);
        let c = SyntheticTranslation::generate(TranslationConfig::tiny(), 8);
        assert_ne!(a.train, c.train);
    }
}
