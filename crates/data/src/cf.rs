//! A latent-factor collaborative-filtering dataset standing in for
//! MovieLens-20M, following the synthetic-expansion philosophy MLPerf
//! itself adopted for NCF in v0.7 (Belletti et al., 2019).
//!
//! Ground truth: users and items have latent vectors; the probability of
//! an interaction is a logistic function of their dot product. Implicit
//! feedback is sampled from that model. Evaluation uses the standard
//! NCF protocol: leave-one-out with sampled negatives, hit-rate@10.

use mlperf_tensor::TensorRng;
use std::collections::HashSet;

/// Shape of the synthetic interaction dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfConfig {
    /// Number of users.
    pub users: usize,
    /// Number of items.
    pub items: usize,
    /// Latent dimensionality of the generating model.
    pub latent_dim: usize,
    /// Positive interactions sampled per user (before leave-one-out).
    pub interactions_per_user: usize,
    /// Negatives sampled per positive for evaluation ranking.
    pub eval_negatives: usize,
}

impl Default for CfConfig {
    fn default() -> Self {
        CfConfig {
            users: 96,
            items: 64,
            latent_dim: 6,
            interactions_per_user: 12,
            eval_negatives: 20,
        }
    }
}

impl CfConfig {
    /// A smaller configuration for fast unit tests.
    pub fn tiny() -> Self {
        CfConfig {
            users: 12,
            items: 10,
            latent_dim: 3,
            interactions_per_user: 4,
            eval_negatives: 5,
        }
    }
}

/// A user's training positives and held-out evaluation instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InteractionSet {
    /// The user id.
    pub user: usize,
    /// Training positives (item ids).
    pub positives: Vec<usize>,
    /// The held-out positive item (leave-one-out target).
    pub held_out: usize,
    /// Sampled negatives the held-out item must be ranked against.
    pub eval_negatives: Vec<usize>,
}

/// The generated dataset.
#[derive(Debug, Clone)]
pub struct SyntheticCf {
    /// One entry per user.
    pub users: Vec<InteractionSet>,
    config: CfConfig,
}

impl SyntheticCf {
    /// Generates the dataset from a seed.
    ///
    /// # Panics
    ///
    /// Panics if the item catalog is too small for the requested
    /// interactions plus evaluation negatives.
    pub fn generate(config: CfConfig, seed: u64) -> Self {
        assert!(
            config.items > config.interactions_per_user + config.eval_negatives,
            "item catalog too small for config"
        );
        let mut rng = TensorRng::new(seed);
        let user_vecs = rng.normal(&[config.users, config.latent_dim], 0.0, 1.0);
        let item_vecs = rng.normal(&[config.items, config.latent_dim], 0.0, 1.0);
        let (user_rows, item_rows) = (user_vecs.data(), item_vecs.data());
        let affinity = |u: usize, i: usize| -> f32 {
            let d = config.latent_dim;
            let mut dot = 0.0;
            for k in 0..d {
                dot += user_rows[u * d + k] * item_rows[i * d + k];
            }
            dot
        };
        let mut users = Vec::with_capacity(config.users);
        for u in 0..config.users {
            // Rank items by affinity with noise; take the top slice as
            // this user's positives.
            let mut scored: Vec<(usize, f32)> = (0..config.items)
                .map(|i| (i, affinity(u, i) + 0.35 * rng.normal(&[1], 0.0, 1.0).item()))
                .collect();
            scored.sort_by(|a, b| b.1.total_cmp(&a.1));
            let mut positives: Vec<usize> =
                scored.iter().take(config.interactions_per_user + 1).map(|&(i, _)| i).collect();
            let held_out = positives.pop().expect("at least one positive");
            let positive_set: HashSet<usize> =
                positives.iter().copied().chain([held_out]).collect();
            // Negatives: items the user never interacted with.
            let mut negatives = Vec::with_capacity(config.eval_negatives);
            let mut candidates: Vec<usize> =
                (0..config.items).filter(|i| !positive_set.contains(i)).collect();
            rng.shuffle(&mut candidates);
            negatives.extend(candidates.into_iter().take(config.eval_negatives));
            users.push(InteractionSet { user: u, positives, held_out, eval_negatives: negatives });
        }
        SyntheticCf { users, config }
    }

    /// The generating configuration.
    pub fn config(&self) -> CfConfig {
        self.config
    }

    /// All training `(user, item, label)` triples: every positive plus
    /// `neg_ratio` sampled negatives per positive.
    pub fn training_triples(
        &self,
        neg_ratio: usize,
        rng: &mut TensorRng,
    ) -> Vec<(usize, usize, f32)> {
        let mut out = Vec::new();
        for set in &self.users {
            let positive_set: HashSet<usize> =
                set.positives.iter().copied().chain([set.held_out]).collect();
            for &item in &set.positives {
                out.push((set.user, item, 1.0));
                let mut added = 0;
                while added < neg_ratio {
                    let cand = rng.index(self.config.items);
                    if !positive_set.contains(&cand) {
                        out.push((set.user, cand, 0.0));
                        added += 1;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_shapes() {
        let cfg = CfConfig::tiny();
        let d = SyntheticCf::generate(cfg, 0);
        assert_eq!(d.users.len(), cfg.users);
        for set in &d.users {
            assert_eq!(set.positives.len(), cfg.interactions_per_user);
            assert_eq!(set.eval_negatives.len(), cfg.eval_negatives);
            assert!(!set.positives.contains(&set.held_out));
            for n in &set.eval_negatives {
                assert!(!set.positives.contains(n));
                assert_ne!(*n, set.held_out);
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = SyntheticCf::generate(CfConfig::tiny(), 5);
        let b = SyntheticCf::generate(CfConfig::tiny(), 5);
        assert_eq!(a.users, b.users);
        let c = SyntheticCf::generate(CfConfig::tiny(), 6);
        assert_ne!(a.users, c.users);
    }

    #[test]
    fn triples_label_consistency() {
        let d = SyntheticCf::generate(CfConfig::tiny(), 1);
        let mut rng = TensorRng::new(2);
        let triples = d.training_triples(2, &mut rng);
        let positives = triples.iter().filter(|t| t.2 == 1.0).count();
        let negatives = triples.iter().filter(|t| t.2 == 0.0).count();
        assert_eq!(negatives, positives * 2);
        for (u, i, label) in &triples {
            let set = &d.users[*u];
            if *label == 1.0 {
                assert!(set.positives.contains(i));
            } else {
                assert!(!set.positives.contains(i) && *i != set.held_out);
            }
        }
    }

    #[test]
    fn latent_structure_is_learnable() {
        // Popularity baseline: ranking the held-out item against
        // negatives by global item popularity should already beat the
        // 1/(1+negs) random hit rate, because the generator has shared
        // structure. This guarantees the benchmark has signal.
        let cfg = CfConfig::default();
        let d = SyntheticCf::generate(cfg, 3);
        let mut popularity = vec![0usize; cfg.items];
        for set in &d.users {
            for &i in &set.positives {
                popularity[i] += 1;
            }
        }
        let mut hits = 0;
        for set in &d.users {
            let mut candidates = vec![set.held_out];
            candidates.extend_from_slice(&set.eval_negatives);
            candidates.sort_by_key(|&i| std::cmp::Reverse(popularity[i]));
            if candidates[..10.min(candidates.len())].contains(&set.held_out) {
                hits += 1;
            }
        }
        let hr = hits as f32 / d.users.len() as f32;
        let random = 10.0 / (1.0 + cfg.eval_negatives as f32);
        assert!(hr > random, "popularity HR@10 {hr} not above random {random}");
    }
}
