//! Monte-Carlo tree search — the search component of the MiniGo
//! reference (AlphaGo-style training interleaves network inference with
//! MCTS; §3.1.4 notes self-play "performs many forward passes through
//! the model to generate actions"). This implementation is the
//! classic UCT variant with uniform-random rollouts; the policy/value
//! network in `mlperf-models` can bias it via [`MctsPlayer::with_prior`].

use crate::board::{Board, Color, Move};
use crate::players::Player;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A function scoring candidate moves as prior probabilities
/// (typically a policy network's softmax output).
pub type PriorFn = Box<dyn Fn(&Board) -> Vec<f32>>;

struct Node {
    mv: Move,
    visits: u32,
    wins: f32,
    prior: f32,
    children: Vec<Node>,
    expanded: bool,
}

impl Node {
    fn new(mv: Move, prior: f32) -> Self {
        Node { mv, visits: 0, wins: 0.0, prior, children: Vec::new(), expanded: false }
    }

    /// The PUCT score (AlphaGo form): exploitation plus a prior-scaled
    /// exploration bonus that stays finite for unvisited children, so
    /// strong priors steer the search before every child is sampled.
    fn puct(&self, parent_visits: u32, exploration: f32) -> f32 {
        let q = if self.visits == 0 {
            0.5 // optimistic-neutral initialization
        } else {
            self.wins / self.visits as f32
        };
        q + exploration * self.prior * (parent_visits as f32).sqrt() / (1.0 + self.visits as f32)
    }
}

/// UCT Monte-Carlo tree search over the Go engine.
pub struct MctsPlayer {
    rng: StdRng,
    simulations: usize,
    exploration: f32,
    rollout_cap: usize,
    komi: f32,
    prior: Option<PriorFn>,
}

impl std::fmt::Debug for MctsPlayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MctsPlayer")
            .field("simulations", &self.simulations)
            .field("exploration", &self.exploration)
            .field("has_prior", &self.prior.is_some())
            .finish()
    }
}

impl MctsPlayer {
    /// Creates a searcher running `simulations` playouts per move.
    ///
    /// # Panics
    ///
    /// Panics if `simulations` is zero.
    pub fn new(seed: u64, simulations: usize) -> Self {
        assert!(simulations > 0, "need at least one simulation");
        MctsPlayer {
            rng: StdRng::seed_from_u64(seed),
            simulations,
            exploration: 1.4,
            rollout_cap: 120,
            komi: 7.5,
            prior: None,
        }
    }

    /// Installs a move-prior function (e.g. the MiniGo policy head);
    /// priors bias both expansion and the UCT exploration term,
    /// AlphaGo-style.
    pub fn with_prior(mut self, prior: PriorFn) -> Self {
        self.prior = Some(prior);
        self
    }

    fn expand(&self, node: &mut Node, board: &Board) {
        let moves: Vec<Move> =
            board.legal_moves().into_iter().filter(|&m| !fills_own_eye(board, m)).collect();
        let priors: Vec<f32> = match &self.prior {
            Some(f) => {
                let dist = f(board);
                moves
                    .iter()
                    .map(|m| match m {
                        Move::Play(p) => dist.get(*p).copied().unwrap_or(0.0).max(1e-6),
                        Move::Pass => 1e-6,
                    })
                    .collect()
            }
            None => vec![1.0; moves.len()],
        };
        node.children = moves.into_iter().zip(priors).map(|(m, p)| Node::new(m, p)).collect();
        if node.children.is_empty() {
            node.children.push(Node::new(Move::Pass, 1.0));
        }
        node.expanded = true;
    }

    /// Random playout from `board`; returns the winner.
    fn rollout(&mut self, mut board: Board) -> Color {
        let mut plies = 0;
        while !board.is_over() && plies < self.rollout_cap {
            let candidates: Vec<Move> =
                board.legal_moves().into_iter().filter(|&m| !fills_own_eye(&board, m)).collect();
            let mv = if candidates.is_empty() {
                Move::Pass
            } else {
                candidates[self.rng.gen_range(0..candidates.len())]
            };
            board.play(mv).expect("legal move plays");
            plies += 1;
        }
        board.score(self.komi).winner()
    }

    /// One selection → expansion → rollout → backprop pass. Returns the
    /// winner of the playout. A node's `wins` count the playouts won by
    /// the player who *moved into* that node; credit is assigned by the
    /// parent frame, which knows whose move it was.
    fn simulate(&mut self, node: &mut Node, board: &mut Board) -> Color {
        if !node.expanded {
            self.expand(node, board);
            let winner = self.rollout(board.clone());
            node.visits += 1;
            return winner;
        }
        // Selection: best PUCT child from the perspective of the side
        // to move at this node.
        let to_play = board.to_play();
        let parent_visits = node.visits.max(1);
        let exploration = self.exploration;
        let best = node
            .children
            .iter_mut()
            .max_by(|a, b| {
                a.puct(parent_visits, exploration).total_cmp(&b.puct(parent_visits, exploration))
            })
            .expect("expanded node has children");
        board.play(best.mv).expect("tree moves are legal");
        let winner = self.simulate(best, board);
        if winner == to_play {
            best.wins += 1.0;
        }
        node.visits += 1;
        winner
    }
}

impl MctsPlayer {
    /// Runs the search and returns the root visit distribution,
    /// most-visited first — the quantity AlphaGo-style training uses as
    /// its policy target.
    pub fn analyze(&mut self, board: &Board) -> Vec<(Move, u32)> {
        let mut root = Node::new(Move::Pass, 1.0);
        for _ in 0..self.simulations {
            let mut scratch = board.clone();
            self.simulate(&mut root, &mut scratch);
        }
        let mut out: Vec<(Move, u32)> = root.children.iter().map(|c| (c.mv, c.visits)).collect();
        out.sort_by_key(|&(_, v)| std::cmp::Reverse(v));
        out
    }
}

impl Player for MctsPlayer {
    fn select_move(&mut self, board: &Board) -> Move {
        // Robust-max: the most-visited root child.
        self.analyze(board).first().map(|&(mv, _)| mv).unwrap_or(Move::Pass)
    }
}

/// Whether a play fills a single-point eye of its own color (shared
/// with the simpler players; duplicated privately to keep modules
/// independent).
fn fills_own_eye(board: &Board, mv: Move) -> bool {
    let Move::Play(point) = mv else { return false };
    let me = board.to_play();
    board.neighbors(point).iter().all(|&n| board.stone(n) == Some(me))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::play_game;
    use crate::players::RandomPlayer;

    #[test]
    fn selects_legal_moves() {
        let board = Board::new(5);
        let mut mcts = MctsPlayer::new(1, 20);
        let mv = mcts.select_move(&board);
        assert!(board.is_legal(mv));
    }

    #[test]
    fn finds_the_dominant_move_on_3x3() {
        // On an empty 3x3 with small komi the center is decisively
        // best; rollouts are short enough for the value signal to
        // dominate the exploration bonus.
        let b = Board::new(3);
        let mut mcts = MctsPlayer::new(3, 600);
        mcts.komi = 1.5;
        let dist = mcts.analyze(&b);
        let center = Move::Play(b.point(1, 1));
        assert_eq!(dist[0].0, center, "distribution: {dist:?}");
    }

    #[test]
    fn analyze_visits_sum_to_simulation_count() {
        let board = Board::new(5);
        let sims = 60;
        let mut mcts = MctsPlayer::new(2, sims);
        let dist = mcts.analyze(&board);
        let total: u32 = dist.iter().map(|&(_, v)| v).sum();
        // The first simulation only expands the root (no child visit).
        assert!(total as usize >= sims - 1 && total as usize <= sims, "total {total}");
    }

    #[test]
    fn beats_random_play() {
        let mut wins = 0;
        let games = 4;
        for seed in 0..games {
            let mut mcts = MctsPlayer::new(seed, 40);
            mcts.komi = 2.5;
            let mut random = RandomPlayer::new(seed + 50);
            let record = play_game(&mut mcts, &mut random, 5, 2.5, 80);
            if record.winner == Color::Black {
                wins += 1;
            }
        }
        assert!(wins >= 3, "MCTS won only {wins}/{games} against random");
    }

    #[test]
    fn deterministic_under_seed() {
        let board = Board::new(9);
        let a = MctsPlayer::new(9, 30).select_move(&board);
        let b = MctsPlayer::new(9, 30).select_move(&board);
        assert_eq!(a, b);
    }

    #[test]
    fn prior_biases_search() {
        // A prior that puts all mass on one corner should pull the
        // chosen move there under few simulations.
        let board = Board::new(5);
        let mut mcts = MctsPlayer::new(0, 30).with_prior(Box::new(|b: &Board| {
            let mut dist = vec![1e-6; b.num_points()];
            dist[0] = 1.0;
            dist
        }));
        let mv = mcts.select_move(&board);
        assert_eq!(mv, Move::Play(0), "prior ignored: {mv:?}");
    }
}
