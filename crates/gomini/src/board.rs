//! Board representation and the rules of Go: legal moves, captures,
//! suicide prohibition, simple ko, and area scoring.

use std::fmt;

/// A stone color / player.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Color {
    /// Black moves first.
    Black,
    /// White receives komi.
    White,
}

impl Color {
    /// The opposing color.
    pub(crate) fn opponent(self) -> Color {
        match self {
            Color::Black => Color::White,
            Color::White => Color::Black,
        }
    }
}

impl fmt::Display for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Color::Black => "black",
            Color::White => "white",
        })
    }
}

/// A move: either a pass or a play at a point (row-major index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Move {
    /// Decline to place a stone. Two consecutive passes end the game.
    Pass,
    /// Place a stone at the given row-major point index.
    Play(usize),
}

/// Why a move was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IllegalMove {
    /// The point index is outside the board.
    OutOfBounds,
    /// The point is already occupied.
    Occupied,
    /// The move would leave its own group with no liberties without
    /// capturing anything.
    Suicide,
    /// The move would immediately retake the ko point.
    Ko,
}

impl fmt::Display for IllegalMove {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IllegalMove::OutOfBounds => "point out of bounds",
            IllegalMove::Occupied => "point occupied",
            IllegalMove::Suicide => "suicide is illegal",
            IllegalMove::Ko => "ko recapture is illegal this turn",
        })
    }
}

impl std::error::Error for IllegalMove {}

/// Result of area scoring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// Black stones plus black territory.
    pub black: f32,
    /// White stones plus white territory plus komi.
    pub white: f32,
}

impl Score {
    /// The winner (ties impossible with fractional komi).
    pub fn winner(&self) -> Color {
        if self.black > self.white {
            Color::Black
        } else {
            Color::White
        }
    }

    /// Winning margin (positive for Black).
    pub fn margin(&self) -> f32 {
        self.black - self.white
    }
}

/// A Go position: stones, side to move, ko state and capture counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Board {
    size: usize,
    stones: Vec<Option<Color>>,
    to_play: Color,
    /// Point forbidden by simple ko, if any.
    ko: Option<usize>,
    consecutive_passes: u8,
    captures_black: usize,
    captures_white: usize,
    moves_played: usize,
}

impl Board {
    /// An empty board, Black to play.
    ///
    /// # Panics
    ///
    /// Panics if `size` is smaller than 2 or larger than 19.
    pub fn new(size: usize) -> Self {
        assert!((2..=19).contains(&size), "board size {size} unsupported");
        Board {
            size,
            stones: vec![None; size * size],
            to_play: Color::Black,
            ko: None,
            consecutive_passes: 0,
            captures_black: 0,
            captures_white: 0,
            moves_played: 0,
        }
    }

    /// Board edge length.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of points (`size²`).
    pub fn num_points(&self) -> usize {
        self.size * self.size
    }

    /// The stone at a point, if any.
    ///
    /// # Panics
    ///
    /// Panics if `point` is out of bounds.
    pub fn stone(&self, point: usize) -> Option<Color> {
        self.stones[point]
    }

    /// The side to move.
    pub fn to_play(&self) -> Color {
        self.to_play
    }

    /// Total moves played (including passes).
    pub fn moves_played(&self) -> usize {
        self.moves_played
    }

    /// Whether the game has ended by two consecutive passes.
    pub fn is_over(&self) -> bool {
        self.consecutive_passes >= 2
    }

    /// Stones captured by each color so far `(by_black, by_white)`.
    pub fn captures(&self) -> (usize, usize) {
        (self.captures_black, self.captures_white)
    }

    /// Row-major index of `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn point(&self, row: usize, col: usize) -> usize {
        assert!(row < self.size && col < self.size, "({row},{col}) off board");
        row * self.size + col
    }

    /// Orthogonal neighbors of a point.
    pub(crate) fn neighbors(&self, point: usize) -> Vec<usize> {
        let (r, c) = (point / self.size, point % self.size);
        let mut out = Vec::with_capacity(4);
        if r > 0 {
            out.push(point - self.size);
        }
        if r + 1 < self.size {
            out.push(point + self.size);
        }
        if c > 0 {
            out.push(point - 1);
        }
        if c + 1 < self.size {
            out.push(point + 1);
        }
        out
    }

    /// The connected group containing `point` and its liberty set.
    ///
    /// # Panics
    ///
    /// Panics if the point is empty or out of bounds.
    pub(crate) fn group_and_liberties(&self, point: usize) -> (Vec<usize>, Vec<usize>) {
        let color = self.stones[point].expect("group_and_liberties of empty point");
        let mut group = Vec::new();
        let mut liberties = Vec::new();
        let mut seen = vec![false; self.num_points()];
        let mut lib_seen = vec![false; self.num_points()];
        let mut stack = vec![point];
        seen[point] = true;
        while let Some(p) = stack.pop() {
            group.push(p);
            for n in self.neighbors(p) {
                match self.stones[n] {
                    Some(c) if c == color && !seen[n] => {
                        seen[n] = true;
                        stack.push(n);
                    }
                    None if !lib_seen[n] => {
                        lib_seen[n] = true;
                        liberties.push(n);
                    }
                    _ => {}
                }
            }
        }
        (group, liberties)
    }

    /// Liberty count of the group at `point`.
    ///
    /// # Panics
    ///
    /// Panics if the point is empty.
    pub fn liberties(&self, point: usize) -> usize {
        self.group_and_liberties(point).1.len()
    }

    /// Checks legality without mutating.
    pub fn check(&self, mv: Move) -> Result<(), IllegalMove> {
        let Move::Play(point) = mv else { return Ok(()) };
        if point >= self.num_points() {
            return Err(IllegalMove::OutOfBounds);
        }
        if self.stones[point].is_some() {
            return Err(IllegalMove::Occupied);
        }
        if self.ko == Some(point) {
            return Err(IllegalMove::Ko);
        }
        // Trial placement to detect suicide.
        let mut trial = self.clone();
        trial.stones[point] = Some(self.to_play);
        let captured = trial.remove_captured(self.to_play.opponent(), point);
        if captured == 0 && trial.liberties(point) == 0 {
            return Err(IllegalMove::Suicide);
        }
        Ok(())
    }

    /// Whether a move is legal for the side to move.
    pub(crate) fn is_legal(&self, mv: Move) -> bool {
        self.check(mv).is_ok()
    }

    /// All legal moves (plays only; `Pass` is always legal and not
    /// listed).
    pub fn legal_moves(&self) -> Vec<Move> {
        (0..self.num_points()).map(Move::Play).filter(|&m| self.is_legal(m)).collect()
    }

    /// Plays a move for the side to move.
    ///
    /// # Errors
    ///
    /// Returns the reason if the move is illegal; the board is
    /// unchanged in that case.
    pub fn play(&mut self, mv: Move) -> Result<(), IllegalMove> {
        self.check(mv)?;
        match mv {
            Move::Pass => {
                self.consecutive_passes += 1;
                self.ko = None;
            }
            Move::Play(point) => {
                let me = self.to_play;
                self.stones[point] = Some(me);
                let captured = self.remove_captured(me.opponent(), point);
                match me {
                    Color::Black => self.captures_black += captured,
                    Color::White => self.captures_white += captured,
                }
                // Simple ko: single-stone capture where the new stone's
                // group is that single stone with one liberty.
                self.ko = None;
                if captured == 1 {
                    let (group, libs) = self.group_and_liberties(point);
                    if group.len() == 1 && libs.len() == 1 {
                        self.ko = Some(libs[0]);
                    }
                }
                self.consecutive_passes = 0;
            }
        }
        self.to_play = self.to_play.opponent();
        self.moves_played += 1;
        Ok(())
    }

    /// Removes opponent groups adjacent to `around` that have no
    /// liberties; returns the number of stones removed.
    fn remove_captured(&mut self, victim: Color, around: usize) -> usize {
        let mut removed = 0;
        for n in self.neighbors(around) {
            if self.stones[n] == Some(victim) {
                let (group, libs) = self.group_and_liberties(n);
                if libs.is_empty() {
                    for p in group {
                        self.stones[p] = None;
                        removed += 1;
                    }
                }
            }
        }
        removed
    }

    /// Area scoring (stones + territory) with the given komi added to
    /// White. Empty regions touching both colors count for neither.
    pub fn score(&self, komi: f32) -> Score {
        let mut black = 0f32;
        let mut white = 0f32;
        let mut visited = vec![false; self.num_points()];
        for p in 0..self.num_points() {
            match self.stones[p] {
                Some(Color::Black) => black += 1.0,
                Some(Color::White) => white += 1.0,
                None => {
                    if visited[p] {
                        continue;
                    }
                    // Flood-fill the empty region and record which
                    // colors border it.
                    let mut region = Vec::new();
                    let mut stack = vec![p];
                    visited[p] = true;
                    let mut touches_black = false;
                    let mut touches_white = false;
                    while let Some(q) = stack.pop() {
                        region.push(q);
                        for n in self.neighbors(q) {
                            match self.stones[n] {
                                Some(Color::Black) => touches_black = true,
                                Some(Color::White) => touches_white = true,
                                None if !visited[n] => {
                                    visited[n] = true;
                                    stack.push(n);
                                }
                                None => {}
                            }
                        }
                    }
                    if touches_black && !touches_white {
                        black += region.len() as f32;
                    } else if touches_white && !touches_black {
                        white += region.len() as f32;
                    }
                }
            }
        }
        Score { black, white: white + komi }
    }
}

impl fmt::Display for Board {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.size {
            for c in 0..self.size {
                let ch = match self.stones[r * self.size + c] {
                    Some(Color::Black) => 'X',
                    Some(Color::White) => 'O',
                    None => '.',
                };
                write!(f, "{ch} ")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alternating_turns() {
        let mut b = Board::new(9);
        assert_eq!(b.to_play(), Color::Black);
        b.play(Move::Play(0)).unwrap();
        assert_eq!(b.to_play(), Color::White);
        b.play(Move::Pass).unwrap();
        assert_eq!(b.to_play(), Color::Black);
    }

    #[test]
    fn occupied_point_rejected() {
        let mut b = Board::new(9);
        b.play(Move::Play(4)).unwrap();
        assert_eq!(b.play(Move::Play(4)), Err(IllegalMove::Occupied));
    }

    #[test]
    fn single_stone_capture() {
        // White stone at corner (0,0); Black surrounds with (0,1), (1,0).
        let mut b = Board::new(5);
        b.play(Move::Play(b.point(0, 1))).unwrap(); // B
        b.play(Move::Play(b.point(0, 0))).unwrap(); // W corner
        b.play(Move::Play(b.point(1, 0))).unwrap(); // B captures
        assert_eq!(b.stone(0), None, "corner stone should be captured");
        assert_eq!(b.captures(), (1, 0));
    }

    #[test]
    fn multi_stone_group_capture() {
        let mut b = Board::new(5);
        // White group at (0,0),(0,1); black surrounds at (0,2),(1,0),(1,1).
        let seq = [
            (Color::Black, (1, 0)),
            (Color::White, (0, 0)),
            (Color::Black, (1, 1)),
            (Color::White, (0, 1)),
            (Color::Black, (0, 2)),
        ];
        for (c, (r, col)) in seq {
            assert_eq!(b.to_play(), c);
            b.play(Move::Play(b.point(r, col))).unwrap();
        }
        assert_eq!(b.stone(b.point(0, 0)), None);
        assert_eq!(b.stone(b.point(0, 1)), None);
        assert_eq!(b.captures(), (2, 0));
    }

    #[test]
    fn suicide_rejected() {
        let mut b = Board::new(5);
        // Black surrounds (0,0): stones at (0,1) and (1,0); White to
        // play into the corner would be suicide.
        b.play(Move::Play(b.point(0, 1))).unwrap(); // B
        b.play(Move::Pass).unwrap(); // W
        b.play(Move::Play(b.point(1, 0))).unwrap(); // B
        assert_eq!(b.to_play(), Color::White);
        assert_eq!(b.play(Move::Play(b.point(0, 0))), Err(IllegalMove::Suicide));
    }

    #[test]
    fn capture_that_looks_like_suicide_is_legal() {
        // White plays into a one-liberty hole but captures a black
        // stone in doing so — legal.
        let mut b = Board::new(5);
        // Build: black at (0,1); white at (0,2),(1,1),(1,0). Then black
        // pass, white plays (0,0) capturing (0,1)? Set up directly:
        let seq = [
            (Color::Black, (0, 1)),
            (Color::White, (1, 1)),
            (Color::Black, (4, 4)),
            (Color::White, (0, 2)),
            (Color::Black, (4, 3)),
            (Color::White, (1, 0)),
        ];
        for (c, (r, col)) in seq {
            assert_eq!(b.to_play(), c);
            b.play(Move::Play(b.point(r, col))).unwrap();
        }
        // Black stone at (0,1) now has one liberty at (0,0).
        b.play(Move::Pass).unwrap(); // Black passes
        let corner = b.point(0, 0);
        assert!(b.is_legal(Move::Play(corner)));
        b.play(Move::Play(corner)).unwrap();
        assert_eq!(b.stone(b.point(0, 1)), None, "black stone captured");
    }

    #[test]
    fn simple_ko_forbidden_then_allowed() {
        let mut b = Board::new(5);
        // Classic ko shape around (1,1)/(1,2).
        let seq = [
            (Color::Black, (0, 1)),
            (Color::White, (0, 2)),
            (Color::Black, (1, 0)),
            (Color::White, (1, 3)),
            (Color::Black, (2, 1)),
            (Color::White, (2, 2)),
            (Color::Black, (1, 2)),
            (Color::White, (1, 1)), // captures black (1,2) -> ko at (1,2)
        ];
        for (c, (r, col)) in seq {
            assert_eq!(b.to_play(), c);
            b.play(Move::Play(b.point(r, col))).unwrap();
        }
        let ko_point = b.point(1, 2);
        assert_eq!(b.stone(ko_point), None);
        assert_eq!(b.play(Move::Play(ko_point)), Err(IllegalMove::Ko));
        // After a ko threat elsewhere the recapture becomes legal.
        b.play(Move::Play(b.point(4, 4))).unwrap(); // Black elsewhere
        b.play(Move::Play(b.point(4, 0))).unwrap(); // White answers
        assert!(b.is_legal(Move::Play(ko_point)));
    }

    #[test]
    fn two_passes_end_game() {
        let mut b = Board::new(9);
        b.play(Move::Pass).unwrap();
        assert!(!b.is_over());
        b.play(Move::Pass).unwrap();
        assert!(b.is_over());
    }

    #[test]
    fn area_scoring_empty_board_is_all_neutral() {
        let b = Board::new(9);
        let s = b.score(7.5);
        assert_eq!(s.black, 0.0);
        assert_eq!(s.white, 7.5);
        assert_eq!(s.winner(), Color::White);
    }

    #[test]
    fn area_scoring_counts_territory() {
        // A black wall across row 1 of a 5x5 board: row 0 becomes black
        // territory (5 points) plus 5 stones.
        let mut b = Board::new(5);
        for c in 0..5 {
            b.play(Move::Play(b.point(1, c))).unwrap(); // Black
            if c < 4 {
                b.play(Move::Play(b.point(3, c))).unwrap(); // White
            } else {
                b.play(Move::Pass).unwrap();
            }
        }
        let s = b.score(0.5);
        // Black: 5 stones + 5 territory; White: 4 stones, open region
        // below touches only white? Row 4 touches white only; row 2
        // touches both.
        assert_eq!(s.black, 10.0);
        assert!(s.white >= 4.5);
    }

    #[test]
    fn legal_moves_shrink_as_board_fills() {
        let mut b = Board::new(5);
        let before = b.legal_moves().len();
        b.play(Move::Play(12)).unwrap();
        assert_eq!(b.legal_moves().len(), before - 1);
    }

    #[test]
    fn neighbors_at_corner_edge_center() {
        let b = Board::new(9);
        assert_eq!(b.neighbors(0).len(), 2);
        assert_eq!(b.neighbors(4).len(), 3);
        assert_eq!(b.neighbors(40).len(), 4);
    }

    #[test]
    fn display_renders() {
        let mut b = Board::new(3);
        b.play(Move::Play(4)).unwrap();
        let s = b.to_string();
        assert!(s.contains('X'));
    }
}
