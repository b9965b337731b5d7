//! Cross-round comparison tables computed from ingested logs: the
//! paper's Figure 4 (fixed-scale speedups) and Figure 5 (scale growth
//! of the fastest entries), generalized from a fixed v0.5/v0.6 pair to
//! an ordered [`RoundHistory`] of arbitrarily many rounds — the shape
//! the disk-backed archive ([`crate::store`]) ingests.

use crate::round::RoundOutcome;
use mlperf_core::report::{render_round_comparison, RoundComparisonRow};
use mlperf_core::rules::Division;
use mlperf_core::suite::BenchmarkId;
use mlperf_distsim::Round;

/// An ordered history of round outcomes, oldest round first. At most
/// one outcome per round — pushing a round that is already present
/// replaces it (re-ingesting an archive round supersedes the stale
/// outcome).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundHistory {
    outcomes: Vec<RoundOutcome>,
}

impl RoundHistory {
    /// An empty history.
    pub fn new() -> Self {
        RoundHistory::default()
    }

    /// Builds a history from outcomes in any order; later duplicates
    /// of a round replace earlier ones.
    pub fn from_outcomes(outcomes: Vec<RoundOutcome>) -> Self {
        let mut history = RoundHistory::new();
        for outcome in outcomes {
            history.push(outcome);
        }
        history
    }

    /// Inserts an outcome at its chronological position, replacing any
    /// existing outcome for the same round.
    pub fn push(&mut self, outcome: RoundOutcome) {
        match self.outcomes.binary_search_by_key(&outcome.round, |o| o.round) {
            Ok(i) => self.outcomes[i] = outcome,
            Err(i) => self.outcomes.insert(i, outcome),
        }
    }

    /// The rounds present, oldest first.
    pub fn rounds(&self) -> Vec<Round> {
        self.outcomes.iter().map(|o| o.round).collect()
    }

    /// All outcomes, oldest round first.
    pub fn outcomes(&self) -> &[RoundOutcome] {
        &self.outcomes
    }

    /// The outcome of one round, if present.
    pub fn get(&self, round: Round) -> Option<&RoundOutcome> {
        self.outcomes.iter().find(|o| o.round == round)
    }

    /// The oldest round's outcome.
    pub fn first(&self) -> Option<&RoundOutcome> {
        self.outcomes.first()
    }

    /// Number of rounds in the history.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the history holds no rounds.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Figure 4: round-over-round speedup of the fastest entries at a
    /// fixed system size, one column per round in the history. A
    /// benchmark appears when its accepted entries at that size form a
    /// *suffix* of the history — present from some round through the
    /// newest (the v0.7 additions joined mid-history; rounds before a
    /// benchmark existed render as blank cells). Ratio is `oldest
    /// present minutes / newest minutes` — above 1.0 means the suite
    /// got faster on unchanged hardware scale.
    pub fn speedup_table(&self, chips: usize) -> RoundTable {
        let rows = BenchmarkId::ALL
            .into_iter()
            .filter_map(|id| {
                suffix_row(
                    &self.outcomes,
                    id,
                    |o| best_minutes_at(o, id, chips),
                    |first, last| first / last,
                )
            })
            .collect();
        RoundTable {
            title: format!("Fastest {chips}-chip entries, {} (Figure 4)", self.span_label()),
            rounds: self.rounds(),
            value_label: "minutes".into(),
            ratio_label: "speedup".into(),
            rows,
        }
    }

    /// The data-driven anchor scale for cross-round comparisons: of
    /// the chip counts with at least one accepted Closed-division
    /// entry in *every* round, the one whose fixed-scale comparison
    /// covers the most benchmarks — ties go to the smaller system.
    /// `None` when the history is empty or no scale is shared by all
    /// rounds.
    pub fn common_scale(&self) -> Option<usize> {
        let first = self.outcomes.first()?;
        let mut candidates: Vec<usize> = first
            .accepted
            .iter()
            .filter(|e| e.division == Division::Closed)
            .map(|e| e.chips)
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        candidates.retain(|&chips| {
            self.outcomes.iter().all(|o| {
                o.accepted.iter().any(|e| e.division == Division::Closed && e.chips == chips)
            })
        });
        candidates.into_iter().max_by_key(|&chips| {
            let coverage = BenchmarkId::ALL
                .into_iter()
                .filter(|&id| self.outcomes.iter().all(|o| best_minutes_at(o, id, chips).is_some()))
                .count();
            (coverage, std::cmp::Reverse(chips))
        })
    }

    /// Figure 4 anchored at [`RoundHistory::common_scale`], falling
    /// back to the paper's 16-chip anchor when the history shares no
    /// scale (so the Figure 4 reproduction is unchanged by default).
    pub fn speedup_table_at_common_scale(&self) -> RoundTable {
        self.speedup_table(self.common_scale().unwrap_or(16))
    }

    /// Figure 5: growth in the system scale of the fastest overall
    /// entry per benchmark, one column per round. Presence follows the
    /// same suffix rule as [`RoundHistory::speedup_table`]. Ratio is
    /// `newest chips / oldest present chips`.
    pub fn scale_table(&self) -> RoundTable {
        let rows = BenchmarkId::ALL
            .into_iter()
            .filter_map(|id| {
                suffix_row(
                    &self.outcomes,
                    id,
                    |o| best_entry_chips(o, id).map(|c| c as f64),
                    |first, last| last / first,
                )
            })
            .collect();
        RoundTable {
            title: format!("Chips powering the fastest entry, {} (Figure 5)", self.span_label()),
            rounds: self.rounds(),
            value_label: "chips".into(),
            ratio_label: "growth".into(),
            rows,
        }
    }

    /// `v0.5 vs v0.6` for a pair, `v0.5 through v0.7` for more.
    fn span_label(&self) -> String {
        match self.outcomes.as_slice() {
            [] => "no rounds".to_string(),
            [only] => only.round.to_string(),
            [first, .., last] if self.outcomes.len() == 2 => {
                format!("{} vs {}", first.round, last.round)
            }
            [first, .., last] => format!("{} through {}", first.round, last.round),
        }
    }
}

/// One rendered cross-round table.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTable {
    /// Table heading.
    pub title: String,
    /// The rounds compared, oldest first (one value column each).
    pub rounds: Vec<Round>,
    /// Unit of the per-round value columns.
    pub value_label: String,
    /// Name of the ratio column.
    pub ratio_label: String,
    /// One row per benchmark entered in every compared round.
    pub rows: Vec<RoundComparisonRow>,
}

impl RoundTable {
    /// The average ratio the paper headlines (1.3× speedup, 5.5×
    /// scale), or `None` when no row spans at least two rounds.
    ///
    /// Only rows whose present span covers two or more rounds count: a
    /// benchmark that joined in the newest round has a degenerate
    /// one-round ratio (always 1.0 — its first and last present values
    /// are the same value) that would dilute the average without
    /// measuring any improvement. Such rows still render; they just
    /// don't vote.
    pub fn average_ratio(&self) -> Option<f64> {
        let spanning: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.values.iter().filter(|v| v.is_finite()).count() >= 2)
            .map(|r| r.ratio)
            .collect();
        if spanning.is_empty() {
            return None;
        }
        Some(spanning.iter().sum::<f64>() / spanning.len() as f64)
    }

    /// Renders the table with the shared report formatter.
    pub fn render(&self) -> String {
        let labels: Vec<String> = self.rounds.iter().map(|r| r.to_string()).collect();
        render_round_comparison(
            &self.title,
            &labels,
            &self.value_label,
            &self.ratio_label,
            &self.rows,
        )
    }
}

/// Builds one comparison row when a benchmark's per-round values form
/// a suffix of the history: absent for zero or more leading rounds
/// (rendered as NaN → blank cells), then present through the newest
/// round. Gaps or a missing newest round drop the row. The ratio is
/// computed from the first and last *present* values.
fn suffix_row(
    outcomes: &[RoundOutcome],
    id: BenchmarkId,
    value: impl Fn(&RoundOutcome) -> Option<f64>,
    ratio: impl Fn(f64, f64) -> f64,
) -> Option<RoundComparisonRow> {
    let per_round: Vec<Option<f64>> = outcomes.iter().map(value).collect();
    let first_present = per_round.iter().position(Option::is_some)?;
    if per_round[first_present..].iter().any(Option::is_none) {
        return None; // a gap, or the benchmark vanished — not a suffix
    }
    let values: Vec<f64> = per_round.into_iter().map(|v| v.unwrap_or(f64::NAN)).collect();
    let present = &values[first_present..];
    Some(RoundComparisonRow {
        benchmark: id.to_string(),
        ratio: ratio(present[0], present[present.len() - 1]),
        values,
    })
}

/// The fastest accepted Closed-division minutes for a benchmark at one
/// exact system size.
fn best_minutes_at(outcome: &RoundOutcome, benchmark: BenchmarkId, chips: usize) -> Option<f64> {
    outcome
        .entries_for(benchmark, Division::Closed)
        .filter(|e| e.chips == chips)
        .map(|e| e.minutes)
        .min_by(f64::total_cmp)
}

/// The chip count of the fastest accepted Closed-division entry for a
/// benchmark at any scale.
fn best_entry_chips(outcome: &RoundOutcome, benchmark: BenchmarkId) -> Option<usize> {
    outcome
        .entries_for(benchmark, Division::Closed)
        .min_by(|a, b| a.minutes.total_cmp(&b.minutes))
        .map(|e| e.chips)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::run_round;
    use crate::synthetic::{synthetic_round, SyntheticRoundSpec};

    fn history() -> RoundHistory {
        RoundHistory::from_outcomes(
            Round::ALL
                .iter()
                .map(|&round| run_round(&synthetic_round(&SyntheticRoundSpec::new(round, 11))))
                .collect(),
        )
    }

    #[test]
    fn speedup_table_shows_rounds_getting_faster_at_fixed_scale() {
        let table = history().speedup_table(16);
        assert_eq!(table.rows.len(), 8, "five comparison benchmarks plus the v0.7 additions");
        assert_eq!(table.rounds, Round::ALL.to_vec());
        let avg = table.average_ratio().unwrap();
        assert!(avg > 1.0, "later rounds should be faster at 16 chips, got {avg}");
        // Each row carries one value per round; full-history rows
        // improve end to end, v0.7 joiners are blank before v0.7.
        for row in &table.rows {
            assert_eq!(row.values.len(), 3);
            if row.values[0].is_nan() {
                assert!(row.values[1].is_nan() && row.values[2].is_finite(), "{row:?}");
            } else {
                assert!(row.values[0] > row.values[2], "{row:?}");
            }
        }
        let joined: Vec<&str> = table
            .rows
            .iter()
            .filter(|r| r.values[0].is_nan())
            .map(|r| r.benchmark.as_str())
            .collect();
        assert_eq!(joined.len(), 3, "BERT, DLRM and RNN-T join in v0.7: {joined:?}");
        let rendered = table.render();
        assert!(rendered.contains("speedup"));
        assert!(rendered.contains("v0.7 minutes"));
        for name in &joined {
            assert!(rendered.contains(name), "{name} missing from rendered table:\n{rendered}");
        }
    }

    #[test]
    fn common_scale_picks_the_reference_anchor_on_the_synthetic_fleet() {
        let history = history();
        // Every synthetic round fields its reference systems at 16
        // chips, so the data-driven anchor matches the paper's.
        assert_eq!(history.common_scale(), Some(16));
        // Compare via the rendered text: suffix rows carry NaN cells
        // for pre-join rounds, and NaN != NaN under PartialEq.
        assert_eq!(
            history.speedup_table_at_common_scale().render(),
            history.speedup_table(16).render()
        );
        assert!(RoundHistory::new().common_scale().is_none());
    }

    fn entry(benchmark: BenchmarkId, chips: usize, minutes: f64) -> crate::round::AcceptedEntry {
        crate::round::AcceptedEntry {
            org: "org".into(),
            system: format!("sys-{chips}"),
            chips,
            division: Division::Closed,
            benchmark,
            minutes,
            runs: 5,
        }
    }

    fn outcome(round: Round, accepted: Vec<crate::round::AcceptedEntry>) -> RoundOutcome {
        RoundOutcome {
            round,
            accepted,
            scenarios: Vec::new(),
            quarantined: Vec::new(),
            reports: Vec::new(),
        }
    }

    #[test]
    fn common_scale_prefers_the_scale_covering_the_most_benchmarks() {
        // 32 chips appears in both rounds for two benchmarks; 64 chips
        // also appears in both rounds but covers only one; 128 shows
        // up in a single round and is not a candidate at all.
        let history = RoundHistory::from_outcomes(vec![
            outcome(
                Round::V05,
                vec![
                    entry(BenchmarkId::ImageClassification, 32, 20.0),
                    entry(BenchmarkId::ObjectDetection, 32, 30.0),
                    entry(BenchmarkId::ImageClassification, 64, 10.0),
                    entry(BenchmarkId::ImageClassification, 128, 6.0),
                ],
            ),
            outcome(
                Round::V06,
                vec![
                    entry(BenchmarkId::ImageClassification, 32, 15.0),
                    entry(BenchmarkId::ObjectDetection, 32, 24.0),
                    entry(BenchmarkId::ImageClassification, 64, 8.0),
                ],
            ),
        ]);
        assert_eq!(history.common_scale(), Some(32));
        let table = history.speedup_table_at_common_scale();
        assert_eq!(table.rows.len(), 2);
        assert!(table.title.contains("32-chip"), "{}", table.title);
    }

    #[test]
    fn common_scale_ties_break_toward_the_smaller_system() {
        let rounds = [Round::V05, Round::V06];
        let history = RoundHistory::from_outcomes(
            rounds
                .iter()
                .map(|&round| {
                    outcome(
                        round,
                        vec![
                            entry(BenchmarkId::ImageClassification, 64, 10.0),
                            entry(BenchmarkId::ImageClassification, 8, 40.0),
                        ],
                    )
                })
                .collect(),
        );
        assert_eq!(history.common_scale(), Some(8));
    }

    #[test]
    fn scale_table_shows_fastest_systems_growing() {
        let table = history().scale_table();
        assert_eq!(table.rows.len(), 8);
        let avg = table.average_ratio().unwrap();
        assert!(avg > 1.0, "fastest systems should grow across rounds, got {avg}");
        // A benchmark present in one round only carries a unit ratio —
        // it cannot contribute growth it never had time to show.
        for row in table.rows.iter().filter(|r| r.values[..2].iter().all(|v| v.is_nan())) {
            assert_eq!(row.ratio, 1.0, "{row:?}");
        }
    }

    #[test]
    fn average_ratio_excludes_rows_spanning_fewer_than_two_rounds() {
        // Regression: a benchmark that joined in the newest round has a
        // degenerate one-round ratio of exactly 1.0. It must render but
        // not dilute the paper's headline averages.
        let history = RoundHistory::from_outcomes(vec![
            outcome(Round::V06, vec![entry(BenchmarkId::ImageClassification, 16, 20.0)]),
            outcome(
                Round::V07,
                vec![
                    entry(BenchmarkId::ImageClassification, 16, 10.0),
                    entry(BenchmarkId::LanguageModeling, 16, 8.0),
                ],
            ),
        ]);
        let table = history.speedup_table(16);
        assert_eq!(table.rows.len(), 2, "the v0.7-only row still renders");
        let joiner = table.rows.iter().find(|r| r.values[0].is_nan()).unwrap();
        assert_eq!(joiner.ratio, 1.0, "degenerate single-round ratio");
        // Before the fix this averaged (2.0 + 1.0) / 2 = 1.5.
        assert_eq!(table.average_ratio(), Some(2.0));

        // A history whose every row is single-round has no ratio at all.
        let only_joiners = RoundHistory::from_outcomes(vec![
            outcome(Round::V06, vec![]),
            outcome(Round::V07, vec![entry(BenchmarkId::LanguageModeling, 16, 8.0)]),
        ]);
        let table = only_joiners.speedup_table(16);
        assert_eq!(table.rows.len(), 1);
        assert_eq!(table.average_ratio(), None, "no row spans two rounds");
    }

    #[test]
    fn history_sorts_and_replaces_rounds() {
        let h = history();
        // Insert out of order: still chronological.
        let mut rebuilt = RoundHistory::new();
        rebuilt.push(h.get(Round::V07).unwrap().clone());
        rebuilt.push(h.get(Round::V05).unwrap().clone());
        rebuilt.push(h.get(Round::V06).unwrap().clone());
        assert_eq!(rebuilt.rounds(), vec![Round::V05, Round::V06, Round::V07]);
        assert_eq!(rebuilt.first().unwrap().round, Round::V05);
        assert_eq!(rebuilt.outcomes.last().unwrap().round, Round::V07);

        // Pushing an existing round replaces, never duplicates.
        let replacement = RoundOutcome {
            round: Round::V06,
            accepted: Vec::new(),
            scenarios: Vec::new(),
            quarantined: Vec::new(),
            reports: Vec::new(),
        };
        rebuilt.push(replacement.clone());
        assert_eq!(rebuilt.len(), 3);
        assert_eq!(rebuilt.get(Round::V06), Some(&replacement));
    }

    #[test]
    fn pair_history_matches_legacy_two_round_comparison() {
        let h = history();
        let pair = RoundHistory::from_outcomes(vec![
            h.get(Round::V05).unwrap().clone(),
            h.get(Round::V06).unwrap().clone(),
        ]);
        let table = pair.speedup_table(16);
        assert_eq!(table.rows.len(), 5);
        assert!(table.title.contains("v0.5 vs v0.6"));
        let avg = table.average_ratio().unwrap();
        assert!(avg > 1.0, "v0.6 should be faster at 16 chips, got {avg}");
    }

    #[test]
    fn empty_and_partial_histories_give_empty_tables() {
        let empty = RoundHistory::new();
        assert!(empty.is_empty());
        assert!(empty.speedup_table(16).rows.is_empty());
        assert!(empty.scale_table().average_ratio().is_none());

        // A round with no accepted entries empties every row.
        let h = RoundHistory::from_outcomes(vec![
            history().get(Round::V05).unwrap().clone(),
            RoundOutcome {
                round: Round::V06,
                accepted: Vec::new(),
                scenarios: Vec::new(),
                quarantined: Vec::new(),
                reports: Vec::new(),
            },
        ]);
        assert!(h.speedup_table(16).rows.is_empty());
        assert!(h.scale_table().rows.is_empty());
    }
}
