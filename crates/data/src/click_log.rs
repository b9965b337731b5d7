//! A click-through-rate dataset with categorical sparsity, standing in
//! for the Criteo 1TB logs of the v0.7 DLRM benchmark.
//!
//! Ground truth: every categorical value carries a latent click
//! weight, dense features carry a latent direction, and the click
//! probability is a logistic function of their sum. Labels are sampled
//! from that probability, so even a perfect model cannot reach AUC 1.0
//! — the benchmark's AUC target sits between the popularity baseline
//! and the Bayes ceiling, which is what makes time-to-AUC a real
//! training measurement.

use mlperf_tensor::TensorRng;

/// Shape of the synthetic click log.
#[derive(Debug, Clone, PartialEq)]
pub struct ClickLogConfig {
    /// Width of the dense (numerical) feature vector.
    pub dense_dim: usize,
    /// Vocabulary size per single-valued categorical feature.
    pub categorical_vocabs: Vec<usize>,
    /// Vocabulary of the one multi-valued (bag) feature.
    pub bag_vocab: usize,
    /// Ids per bag (1..=this, varying per impression).
    pub max_bag_len: usize,
    /// Training impressions.
    pub train_impressions: usize,
    /// Held-out evaluation impressions.
    pub eval_impressions: usize,
    /// Sharpness of the generating logistic model: higher = cleaner
    /// labels = higher Bayes AUC.
    pub gain: f64,
}

impl Default for ClickLogConfig {
    fn default() -> Self {
        ClickLogConfig {
            dense_dim: 4,
            categorical_vocabs: vec![12, 8],
            bag_vocab: 10,
            max_bag_len: 3,
            train_impressions: 512,
            eval_impressions: 256,
            gain: 1.6,
        }
    }
}

impl ClickLogConfig {
    /// A smaller configuration for fast unit tests.
    pub fn tiny() -> Self {
        ClickLogConfig {
            dense_dim: 2,
            categorical_vocabs: vec![5, 4],
            bag_vocab: 6,
            max_bag_len: 2,
            train_impressions: 40,
            eval_impressions: 20,
            gain: 1.6,
        }
    }
}

/// One logged impression.
#[derive(Debug, Clone, PartialEq)]
pub struct Impression {
    /// Dense feature vector (`dense_dim` wide).
    pub dense: Vec<f32>,
    /// One id per single-valued categorical feature.
    pub categorical: Vec<usize>,
    /// Ids of the multi-valued bag feature (non-empty).
    pub bag: Vec<usize>,
    /// Click label: 1.0 or 0.0.
    pub label: f32,
}

/// The generated click log.
#[derive(Debug, Clone)]
pub struct SyntheticClickLog {
    /// Training impressions.
    pub train: Vec<Impression>,
    /// Held-out evaluation impressions.
    pub eval: Vec<Impression>,
    config: ClickLogConfig,
}

impl SyntheticClickLog {
    /// Generates the log from a seed.
    ///
    /// # Panics
    ///
    /// Panics on an empty categorical feature list or a zero-sized
    /// vocabulary.
    pub fn generate(config: ClickLogConfig, seed: u64) -> Self {
        assert!(!config.categorical_vocabs.is_empty(), "need at least one categorical feature");
        assert!(
            config.bag_vocab > 0 && config.max_bag_len > 0,
            "bag feature needs a vocabulary and room for ids"
        );
        assert!(config.categorical_vocabs.iter().all(|&v| v > 0), "empty categorical vocabulary");
        let mut rng = TensorRng::new(seed);
        // Latent click weights of the generating model.
        let cat_weights: Vec<Vec<f32>> = config
            .categorical_vocabs
            .iter()
            .map(|&v| rng.normal(&[v], 0.0, 1.0).data().to_vec())
            .collect();
        let bag_weights: Vec<f32> = rng.normal(&[config.bag_vocab], 0.0, 1.0).data().to_vec();
        let dense_dir: Vec<f32> = rng.normal(&[config.dense_dim], 0.0, 1.0).data().to_vec();
        let impression = |rng: &mut TensorRng| -> Impression {
            let dense = rng.normal(&[config.dense_dim], 0.0, 1.0).data().to_vec();
            let categorical: Vec<usize> =
                config.categorical_vocabs.iter().map(|&v| rng.index(v)).collect();
            let bag: Vec<usize> = (0..1 + rng.index(config.max_bag_len))
                .map(|_| rng.index(config.bag_vocab))
                .collect();
            let mut score = 0.0f64;
            for (f, &v) in categorical.iter().enumerate() {
                score += cat_weights[f][v] as f64;
            }
            score += bag.iter().map(|&v| bag_weights[v] as f64).sum::<f64>() / bag.len() as f64;
            score += dense.iter().zip(&dense_dir).map(|(x, w)| (x * w) as f64).sum::<f64>()
                / (config.dense_dim as f64).sqrt();
            let p = 1.0 / (1.0 + (-config.gain * score).exp());
            let label = f32::from(rng.unit_f64() < p);
            Impression { dense, categorical, bag, label }
        };
        let train = (0..config.train_impressions).map(|_| impression(&mut rng)).collect();
        let eval = (0..config.eval_impressions).map(|_| impression(&mut rng)).collect();
        SyntheticClickLog { train, eval, config }
    }

    /// The generating configuration.
    pub fn config(&self) -> &ClickLogConfig {
        &self.config
    }
}

/// Area under the ROC curve of `scores` against binary `labels`,
/// computed as the normalized Mann–Whitney U statistic (ties count
/// half).
///
/// # Panics
///
/// Panics when the inputs differ in length or one class is absent.
pub fn auc(scores: &[f64], labels: &[f32]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "one score per label");
    let mut pairs: Vec<(f64, f32)> = scores.iter().copied().zip(labels.iter().copied()).collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let positives = labels.iter().filter(|&&l| l > 0.5).count();
    let negatives = labels.len() - positives;
    assert!(positives > 0 && negatives > 0, "AUC needs both classes");
    // Sum of positive ranks, averaging ranks across tied scores.
    let mut rank_sum = 0.0f64;
    let mut i = 0;
    while i < pairs.len() {
        let mut j = i;
        while j < pairs.len() && pairs[j].0 == pairs[i].0 {
            j += 1;
        }
        let avg_rank = (i + 1 + j) as f64 / 2.0; // mean of ranks i+1..=j
        rank_sum += avg_rank * pairs[i..j].iter().filter(|(_, l)| *l > 0.5).count() as f64;
        i = j;
    }
    (rank_sum - positives as f64 * (positives as f64 + 1.0) / 2.0)
        / (positives as f64 * negatives as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_shapes() {
        let cfg = ClickLogConfig::tiny();
        let d = SyntheticClickLog::generate(cfg.clone(), 0);
        assert_eq!(d.train.len(), cfg.train_impressions);
        assert_eq!(d.eval.len(), cfg.eval_impressions);
        for imp in d.train.iter().chain(&d.eval) {
            assert_eq!(imp.dense.len(), cfg.dense_dim);
            assert_eq!(imp.categorical.len(), cfg.categorical_vocabs.len());
            for (f, &v) in imp.categorical.iter().enumerate() {
                assert!(v < cfg.categorical_vocabs[f]);
            }
            assert!((1..=cfg.max_bag_len).contains(&imp.bag.len()));
            assert!(imp.bag.iter().all(|&v| v < cfg.bag_vocab));
            assert!(imp.label == 0.0 || imp.label == 1.0);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = SyntheticClickLog::generate(ClickLogConfig::tiny(), 5);
        let b = SyntheticClickLog::generate(ClickLogConfig::tiny(), 5);
        assert_eq!(a.train, b.train);
        assert_eq!(a.eval, b.eval);
        let c = SyntheticClickLog::generate(ClickLogConfig::tiny(), 6);
        assert_ne!(a.train, c.train);
    }

    #[test]
    fn auc_matches_hand_cases() {
        // Perfect ranking.
        assert_eq!(auc(&[0.1, 0.2, 0.8, 0.9], &[0.0, 0.0, 1.0, 1.0]), 1.0);
        // Inverted ranking.
        assert_eq!(auc(&[0.9, 0.8, 0.2, 0.1], &[0.0, 0.0, 1.0, 1.0]), 0.0);
        // All tied = chance.
        assert_eq!(auc(&[0.5, 0.5, 0.5, 0.5], &[0.0, 1.0, 0.0, 1.0]), 0.5);
    }

    #[test]
    fn latent_weights_are_learnable() {
        // Per-value empirical click rates from the training split must
        // rank held-out impressions well above chance: that is the
        // categorical signal DLRM's embeddings latch onto.
        let cfg = ClickLogConfig::default();
        let d = SyntheticClickLog::generate(cfg.clone(), 3);
        let mut clicks: Vec<Vec<f64>> =
            cfg.categorical_vocabs.iter().map(|&v| vec![0.0; v]).collect();
        let mut counts = clicks.clone();
        for imp in &d.train {
            for (f, &v) in imp.categorical.iter().enumerate() {
                clicks[f][v] += imp.label as f64;
                counts[f][v] += 1.0;
            }
        }
        let base: f64 = d.train.iter().map(|i| i.label as f64).sum::<f64>() / d.train.len() as f64;
        let scores: Vec<f64> = d
            .eval
            .iter()
            .map(|imp| {
                imp.categorical
                    .iter()
                    .enumerate()
                    .map(
                        |(f, &v)| {
                            if counts[f][v] > 0.0 {
                                clicks[f][v] / counts[f][v]
                            } else {
                                base
                            }
                        },
                    )
                    .sum()
            })
            .collect();
        let labels: Vec<f32> = d.eval.iter().map(|i| i.label).collect();
        let a = auc(&scores, &labels);
        assert!(a > 0.62, "click-rate baseline AUC {a} barely above chance");
    }
}
