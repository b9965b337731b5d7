//! Go training data: reference ("professional") games for the quality
//! metric and self-play games for training, mirroring how the MiniGo
//! benchmark generates its own data through exploration (§3.1.4).

use mlperf_gomini::{
    encode_features, play_game, GameRecord, HeuristicPlayer, Move, FEATURE_PLANES,
};
use mlperf_tensor::Tensor;

/// One supervised sample: position features and the move played.
#[derive(Debug, Clone)]
pub struct GoSample {
    /// Feature planes `[FEATURE_PLANES, size, size]`.
    pub features: Tensor,
    /// The move index in `0..size²` (pass moves are excluded).
    pub move_index: usize,
    /// +1 if the side to move went on to win, −1 otherwise (value
    /// head target).
    pub outcome: f32,
}

/// A set of position/move samples extracted from complete games.
#[derive(Debug, Clone)]
pub struct GoDataset {
    /// All samples.
    pub samples: Vec<GoSample>,
    /// Board edge length.
    pub size: usize,
}

impl GoDataset {
    /// Extracts supervised samples from finished games, skipping
    /// passes.
    pub fn from_games(games: &[GameRecord]) -> Self {
        let size = games.first().map_or(9, |g| g.size);
        let mut samples = Vec::new();
        for game in games {
            for (board, mv) in game.positions() {
                let Move::Play(point) = mv else { continue };
                let to_play = board.to_play();
                let outcome = if game.winner == to_play { 1.0 } else { -1.0 };
                let features =
                    Tensor::from_vec(encode_features(&board), &[FEATURE_PLANES, size, size]);
                samples.push(GoSample { features, move_index: point, outcome });
            }
        }
        GoDataset { samples, size }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Stacks a batch: `([k, planes, s, s], move_indices, outcomes)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>, Vec<f32>) {
        let mut feats = Vec::with_capacity(indices.len());
        let mut moves = Vec::with_capacity(indices.len());
        let mut outcomes = Vec::with_capacity(indices.len());
        for &i in indices {
            let s = &self.samples[i];
            let sh = s.features.shape().to_vec();
            feats.push(s.features.reshape(&[1, sh[0], sh[1], sh[2]]));
            moves.push(s.move_index);
            outcomes.push(s.outcome);
        }
        let views: Vec<&Tensor> = feats.iter().collect();
        (Tensor::concat(&views, 0), moves, outcomes)
    }
}

/// Plays `count` reference games between heuristic "professional"
/// players (distinct seeds per game).
pub fn reference_games(count: usize, size: usize, seed: u64) -> Vec<GameRecord> {
    (0..count)
        .map(|i| {
            let s = seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
            let mut black = HeuristicPlayer::new(s);
            let mut white = HeuristicPlayer::new(s ^ 0x5bd1_e995);
            play_game(&mut black, &mut white, size, 7.5, size * size * 3)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_games_are_reproducible() {
        let a = reference_games(2, 9, 42);
        let b = reference_games(2, 9, 42);
        assert_eq!(a[0].moves, b[0].moves);
        let c = reference_games(2, 9, 43);
        assert_ne!(a[0].moves, c[0].moves);
    }

    #[test]
    fn dataset_extraction_skips_passes() {
        let games = reference_games(2, 9, 0);
        let ds = GoDataset::from_games(&games);
        assert!(!ds.is_empty());
        for s in &ds.samples {
            assert!(s.move_index < 81);
            assert!(s.outcome == 1.0 || s.outcome == -1.0);
            assert_eq!(s.features.shape(), &[FEATURE_PLANES, 9, 9]);
        }
    }

    #[test]
    fn batch_stacks_features() {
        let games = reference_games(2, 9, 1);
        let ds = GoDataset::from_games(&games);
        let (f, m, o) = ds.batch(&[0, 1, 2]);
        assert_eq!(f.shape(), &[3, FEATURE_PLANES, 9, 9]);
        assert_eq!(m.len(), 3);
        assert_eq!(o.len(), 3);
    }

    #[test]
    fn outcome_signs_are_consistent_within_game() {
        let games = reference_games(1, 9, 5);
        let ds = GoDataset::from_games(&games);
        // Outcomes alternate sign with the side to move (winner fixed).
        let signs: Vec<f32> = ds.samples.iter().map(|s| s.outcome).collect();
        for w in signs.windows(2) {
            // Consecutive positions have opposite side to move, except
            // across skipped passes — allow equal too, but the first
            // two moves of a game never pass for the heuristic player.
            if signs.len() >= 2 {
                assert!(w[0] == -w[1] || w[0] == w[1]);
            }
        }
    }
}
