//! A complete 9×9 Go engine backing the MiniGo benchmark of the MLPerf
//! Training reproduction.
//!
//! The MiniGo benchmark (paper §3.1.4) trains a combined policy/value
//! network from self-play and measures quality as the percentage of
//! predicted moves that match reference professional games. With no
//! access to professional game records, this crate provides both halves
//! of the substitution:
//!
//! - a full rules engine ([`Board`]): legal moves, captures, suicide
//!   prohibition, simple ko, area scoring with komi;
//! - players ([`RandomPlayer`], [`HeuristicPlayer`]) — the heuristic
//!   player acts as the fixed "professional" reference whose games
//!   define the move-prediction quality metric, and self-play between
//!   engine players generates training data (the paper highlights that
//!   MiniGo *generates its own data through exploration rather than
//!   relying on a predetermined dataset*).
//!
//! ```
//! use mlperf_gomini::{Board, Color, Move, RandomPlayer, Player};
//!
//! let mut board = Board::new(9);
//! board.play(Move::Play(40)).unwrap(); // Black takes the center
//! assert_eq!(board.stone(40), Some(Color::Black));
//! let mut player = RandomPlayer::new(7);
//! let mv = player.select_move(&board);
//! assert!(board.check(mv).is_ok());
//! ```

#![warn(missing_docs)]

mod board;
mod features;
mod game;
mod mcts;
mod players;

pub use board::{Board, Color, IllegalMove, Move};
pub use features::{encode_features, FEATURE_PLANES};
pub use game::{play_game, GameRecord};
pub use mcts::{MctsPlayer, PriorFn};
pub use players::{HeuristicPlayer, Player, RandomPlayer};
