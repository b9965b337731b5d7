//! DLRM, miniaturized: Facebook's deep learning recommendation model
//! for the click-through-rate benchmark the v0.7 round added.
//!
//! Structure follows Naumov et al.: a bottom MLP embeds the dense
//! features into the same space as the categorical embeddings, every
//! pair of feature vectors interacts through a dot product, and a top
//! MLP maps the interactions (concatenated with the dense embedding)
//! to a click logit. The multi-valued categorical feature goes through
//! an [`EmbeddingBag`], DLRM's signature sparse lookup.

use mlperf_autograd::Var;
use mlperf_data::Impression;
use mlperf_nn::{BagMode, Embedding, EmbeddingBag, Linear, Module};
use mlperf_tensor::{Tensor, TensorRng};

/// Network geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DlrmConfig {
    /// Width of the dense feature vector.
    pub dense_dim: usize,
    /// Vocabulary per single-valued categorical feature.
    pub categorical_vocabs: Vec<usize>,
    /// Vocabulary of the multi-valued bag feature.
    pub bag_vocab: usize,
    /// Shared embedding width (dense features are projected to it).
    pub embed_dim: usize,
    /// Bottom-MLP hidden width.
    pub bottom_hidden: usize,
    /// Top-MLP hidden width.
    pub top_hidden: usize,
}

impl Default for DlrmConfig {
    fn default() -> Self {
        DlrmConfig {
            dense_dim: 4,
            categorical_vocabs: vec![12, 8],
            bag_vocab: 10,
            embed_dim: 8,
            bottom_hidden: 8,
            top_hidden: 16,
        }
    }
}

impl DlrmConfig {
    /// Feature vectors entering pairwise interaction: the dense
    /// embedding, each categorical embedding, and the bag embedding.
    pub(crate) fn feature_count(&self) -> usize {
        1 + self.categorical_vocabs.len() + 1
    }
}

/// The miniaturized DLRM click-through-rate model.
#[derive(Debug)]
pub struct DlrmMini {
    bottom_up: Linear,
    bottom_down: Linear,
    embeddings: Vec<Embedding>,
    bag: EmbeddingBag,
    top_up: Linear,
    top_down: Linear,
    config: DlrmConfig,
}

impl DlrmMini {
    /// Builds the network with the given geometry.
    pub fn new(config: DlrmConfig, rng: &mut TensorRng) -> Self {
        let embeddings = config
            .categorical_vocabs
            .iter()
            .map(|&v| Embedding::new(v, config.embed_dim, rng))
            .collect();
        let pairs = config.feature_count() * (config.feature_count() - 1) / 2;
        DlrmMini {
            bottom_up: Linear::new(config.dense_dim, config.bottom_hidden, true, rng),
            bottom_down: Linear::new(config.bottom_hidden, config.embed_dim, true, rng),
            embeddings,
            bag: EmbeddingBag::new(config.bag_vocab, config.embed_dim, BagMode::Mean, rng),
            top_up: Linear::new(config.embed_dim + pairs, config.top_hidden, true, rng),
            top_down: Linear::new(config.top_hidden, 1, true, rng),
            config: config.clone(),
        }
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> &DlrmConfig {
        &self.config
    }

    /// Click logits `[batch]` for a batch of impressions.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or an impression that does not match
    /// the configured feature layout.
    pub fn forward(&self, batch: &[&Impression]) -> Var {
        assert!(!batch.is_empty(), "empty batch");
        let n = batch.len();
        // Dense features through the bottom MLP.
        let mut dense_data = Vec::with_capacity(n * self.config.dense_dim);
        for imp in batch {
            assert_eq!(imp.dense.len(), self.config.dense_dim, "dense width mismatch");
            dense_data.extend_from_slice(&imp.dense);
        }
        let dense = Var::constant(Tensor::from_vec(dense_data, &[n, self.config.dense_dim]));
        let dense_vec = self.bottom_down.forward(&self.bottom_up.forward(&dense).relu());
        // Sparse features: one vector per categorical feature plus the
        // pooled bag.
        let mut features = vec![dense_vec];
        for (f, table) in self.embeddings.iter().enumerate() {
            let ids: Vec<usize> = batch.iter().map(|imp| imp.categorical[f]).collect();
            features.push(table.forward(&ids));
        }
        let bags: Vec<Vec<usize>> = batch.iter().map(|imp| imp.bag.clone()).collect();
        features.push(self.bag.forward(&bags));
        // Pairwise dot-product interactions, upper triangle.
        let mut interactions = Vec::new();
        for i in 0..features.len() {
            for j in i + 1..features.len() {
                interactions.push(features[i].mul(&features[j]).sum_axis(1, true));
            }
        }
        let mut top_in = vec![&features[0]];
        top_in.extend(interactions.iter());
        let top = Var::concat(&top_in, 1);
        self.top_down.forward(&self.top_up.forward(&top).relu()).reshape(&[n])
    }

    /// Binary cross-entropy of the click logits against the labels.
    pub fn loss(&self, batch: &[&Impression]) -> Var {
        let labels: Vec<f32> = batch.iter().map(|imp| imp.label).collect();
        let n = labels.len();
        self.forward(batch).bce_with_logits(&Tensor::from_vec(labels, &[n]))
    }

    /// Click scores for ranking (the logits, as f64).
    pub fn scores(&self, batch: &[&Impression]) -> Vec<f64> {
        self.forward(batch).value().data().iter().map(|&v| v as f64).collect()
    }
}

impl Module for DlrmMini {
    fn params(&self) -> Vec<Var> {
        let mut p = self.bottom_up.params();
        p.extend(self.bottom_down.params());
        for e in &self.embeddings {
            p.extend(e.params());
        }
        p.extend(self.bag.params());
        p.extend(self.top_up.params());
        p.extend(self.top_down.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_data::{auc, ClickLogConfig, SyntheticClickLog};
    use mlperf_optim::{Adam, Optimizer};

    fn tiny() -> (SyntheticClickLog, DlrmMini) {
        let data = SyntheticClickLog::generate(ClickLogConfig::tiny(), 21);
        let cfg = DlrmConfig {
            dense_dim: 2,
            categorical_vocabs: vec![5, 4],
            bag_vocab: 6,
            embed_dim: 4,
            bottom_hidden: 4,
            top_hidden: 8,
        };
        let mut rng = TensorRng::new(3);
        (data, DlrmMini::new(cfg, &mut rng))
    }

    #[test]
    fn forward_shape() {
        let (data, m) = tiny();
        let batch: Vec<&Impression> = data.train.iter().take(7).collect();
        assert_eq!(m.forward(&batch).shape(), vec![7]);
    }

    #[test]
    fn loss_decreases_under_training() {
        let (data, m) = tiny();
        let batch: Vec<&Impression> = data.train.iter().collect();
        let mut opt = Adam::with_defaults(m.params());
        let first = m.loss(&batch).value().item();
        for _ in 0..40 {
            opt.zero_grad();
            m.loss(&batch).backward();
            opt.step(0.02);
        }
        let last = m.loss(&batch).value().item();
        assert!(last < first * 0.9, "loss {first} -> {last}");
    }

    #[test]
    fn training_lifts_auc_above_chance() {
        let (data, m) = tiny();
        let batch: Vec<&Impression> = data.train.iter().collect();
        let mut opt = Adam::with_defaults(m.params());
        for _ in 0..60 {
            opt.zero_grad();
            m.loss(&batch).backward();
            opt.step(0.02);
        }
        let eval: Vec<&Impression> = data.eval.iter().collect();
        let labels: Vec<f32> = eval.iter().map(|i| i.label).collect();
        let a = auc(&m.scores(&eval), &labels);
        assert!(a > 0.6, "AUC {a} not above chance");
    }

    #[test]
    fn deterministic_under_seed() {
        let data = SyntheticClickLog::generate(ClickLogConfig::tiny(), 21);
        let batch: Vec<&Impression> = data.train.iter().take(3).collect();
        let cfg = DlrmConfig::default();
        let make = || {
            let mut rng = TensorRng::new(9);
            DlrmMini::new(
                DlrmConfig {
                    dense_dim: 2,
                    categorical_vocabs: vec![5, 4],
                    bag_vocab: 6,
                    ..cfg.clone()
                },
                &mut rng,
            )
        };
        assert_eq!(make().scores(&batch), make().scores(&batch));
    }
}
