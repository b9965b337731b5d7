//! Per-benchmark, per-division leaderboards over a round's accepted
//! entries — the tables the MLPerf organization publishes at round
//! close.

use crate::round::{AcceptedEntry, RoundOutcome, ScenarioEntry};
use mlperf_core::report::{
    render_leaderboard, render_scenario_leaderboard, LeaderboardRow, ScenarioRow,
};
use mlperf_core::rules::{Division, Scenario};
use mlperf_core::suite::BenchmarkId;

/// The ranked results of one benchmark in one division.
#[derive(Debug, Clone, PartialEq)]
pub struct Leaderboard {
    /// Which benchmark.
    pub benchmark: BenchmarkId,
    /// Which division.
    pub division: Division,
    /// Accepted entries, fastest first.
    pub entries: Vec<AcceptedEntry>,
}

impl Leaderboard {
    /// The winning entry, if anyone scored.
    pub fn winner(&self) -> Option<&AcceptedEntry> {
        self.entries.first()
    }

    /// Renders the ranking as report rows.
    pub fn rows(&self) -> Vec<LeaderboardRow> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| LeaderboardRow {
                rank: i + 1,
                organization: e.org.clone(),
                system: e.system.clone(),
                chips: e.chips,
                minutes: e.minutes,
                runs: e.runs,
            })
            .collect()
    }
}

/// Builds every non-empty leaderboard of a round, in Table 1 benchmark
/// order with Closed before Open.
pub fn leaderboards(outcome: &RoundOutcome) -> Vec<Leaderboard> {
    let mut boards = Vec::new();
    for benchmark in BenchmarkId::ALL {
        for division in [Division::Closed, Division::Open] {
            let mut entries: Vec<AcceptedEntry> =
                outcome.entries_for(benchmark, division).cloned().collect();
            if entries.is_empty() {
                continue;
            }
            entries.sort_by(|a, b| a.minutes.total_cmp(&b.minutes));
            boards.push(Leaderboard { benchmark, division, entries });
        }
    }
    boards
}

/// The ranked loadgen results of one benchmark, division, and
/// scenario — the inference-side counterpart of [`Leaderboard`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioLeaderboard {
    /// Which benchmark served the queries.
    pub benchmark: BenchmarkId,
    /// Which division.
    pub division: Division,
    /// Which loadgen scenario.
    pub scenario: Scenario,
    /// Scenario entries, highest sustained QPS first.
    pub entries: Vec<ScenarioEntry>,
}

impl ScenarioLeaderboard {
    /// The winning entry, if anyone served.
    pub fn winner(&self) -> Option<&ScenarioEntry> {
        self.entries.first()
    }

    /// Renders the ranking as report rows.
    pub fn rows(&self) -> Vec<ScenarioRow> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| ScenarioRow {
                rank: i + 1,
                organization: e.org.clone(),
                system: e.system.clone(),
                chips: e.chips,
                p50_ms: e.summary.p50_ms,
                p90_ms: e.summary.p90_ms,
                p99_ms: e.summary.p99_ms,
                qps: e.summary.qps,
                queries: e.summary.queries,
            })
            .collect()
    }
}

/// Builds every non-empty scenario leaderboard of a round: Table 1
/// benchmark order, Closed before Open, scenarios in
/// SingleStream/Server/Offline order, ranked by sustained QPS
/// descending (ties by feed order).
pub fn scenario_leaderboards(outcome: &RoundOutcome) -> Vec<ScenarioLeaderboard> {
    let mut boards = Vec::new();
    for benchmark in BenchmarkId::ALL {
        for division in [Division::Closed, Division::Open] {
            for scenario in Scenario::ALL {
                let mut entries: Vec<ScenarioEntry> =
                    outcome.scenarios_for(benchmark, division, scenario).cloned().collect();
                if entries.is_empty() {
                    continue;
                }
                entries.sort_by(|a, b| b.summary.qps.total_cmp(&a.summary.qps));
                boards.push(ScenarioLeaderboard { benchmark, division, scenario, entries });
            }
        }
    }
    boards
}

/// Renders every leaderboard of a round as the text the organization
/// publishes: each training board in [`leaderboards`] order, then each
/// scenario board in [`scenario_leaderboards`] order, every one titled
/// by its benchmark, scenario and division and followed by a blank
/// line. The batch report, the loadgen report and the live service's
/// boards are all this text, which is what lets a live board be diffed
/// against batch output block by block.
pub fn render_boards(outcome: &RoundOutcome) -> String {
    let mut out = String::new();
    for board in leaderboards(outcome) {
        let title = format!("{} ({} division)", board.benchmark, board.division);
        out.push_str(&render_leaderboard(&title, &board.rows()));
        out.push('\n');
    }
    for board in scenario_leaderboards(outcome) {
        let title =
            format!("{} {} ({} division)", board.benchmark, board.scenario.slug(), board.division);
        out.push_str(&render_scenario_leaderboard(&title, &board.rows()));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::run_round;
    use crate::synthetic::{synthetic_round, SyntheticRoundSpec};
    use mlperf_distsim::Round;

    #[test]
    fn leaderboards_rank_fastest_first() {
        let outcome = run_round(&synthetic_round(&SyntheticRoundSpec::new(Round::V05, 4)));
        let boards = leaderboards(&outcome);
        assert!(!boards.is_empty());
        for board in &boards {
            for pair in board.entries.windows(2) {
                assert!(pair[0].minutes <= pair[1].minutes);
            }
            let rows = board.rows();
            assert_eq!(rows[0].rank, 1);
            assert_eq!(rows.len(), board.entries.len());
        }

        // The published text: one titled table per board, in board order.
        let text = render_boards(&outcome);
        let blocks: Vec<&str> = text.split("\n\n").filter(|b| !b.is_empty()).collect();
        assert_eq!(blocks.len(), boards.len());
        for (block, board) in blocks.iter().zip(&boards) {
            let title = block.lines().next().unwrap();
            assert!(title.starts_with(&board.benchmark.to_string()), "{title}");
            assert!(title.contains(&format!("({} division", board.division)), "{title}");
            assert_eq!(block.lines().count(), 2 + board.entries.len(), "title, header, rows");
        }
    }

    #[test]
    fn every_accepted_entry_appears_exactly_once() {
        let outcome = run_round(&synthetic_round(&SyntheticRoundSpec::new(Round::V05, 4)));
        let total: usize = leaderboards(&outcome).iter().map(|b| b.entries.len()).sum();
        assert_eq!(total, outcome.accepted.len());
    }

    #[test]
    fn scenario_leaderboards_rank_by_sustained_qps() {
        use mlperf_core::aggregate::ScenarioSummary;
        let entry = |org: &str, scenario: Scenario, qps: f64| ScenarioEntry {
            org: org.to_string(),
            system: format!("{org}-serving"),
            chips: 4,
            division: Division::Closed,
            benchmark: BenchmarkId::Recommendation,
            summary: ScenarioSummary {
                scenario,
                queries: 256,
                duration_ms: 2_000,
                p50_ms: 1.0,
                p90_ms: 2.0,
                p99_ms: 4.0,
                qps,
                slo_ms: Some(10.0),
                slo_satisfied: Some(true),
            },
        };
        let outcome = RoundOutcome {
            round: Round::V07,
            accepted: Vec::new(),
            scenarios: vec![
                entry("Slower", Scenario::Server, 80.0),
                entry("Faster", Scenario::Server, 160.0),
                entry("Solo", Scenario::Offline, 400.0),
            ],
            quarantined: Vec::new(),
            reports: Vec::new(),
        };
        let boards = scenario_leaderboards(&outcome);
        assert_eq!(boards.len(), 2, "one board per contested (benchmark, division, scenario)");
        assert_eq!(boards[0].scenario, Scenario::Server);
        let orgs: Vec<&str> = boards[0].entries.iter().map(|e| e.org.as_str()).collect();
        assert_eq!(orgs, vec!["Faster", "Slower"], "highest QPS wins");
        assert_eq!(boards[0].winner().unwrap().org, "Faster");
        assert_eq!(boards[1].scenario, Scenario::Offline);

        let rows = boards[0].rows();
        assert_eq!(rows[0].rank, 1);
        assert_eq!(rows[0].qps, 160.0);
        assert_eq!(rows[0].p99_ms, 4.0);
        assert_eq!(rows[1].organization, "Slower");

        // Scenario boards render after the (here empty) training boards.
        let text = render_boards(&outcome);
        let titles: Vec<&str> = text.split("\n\n").filter_map(|b| b.lines().next()).collect();
        let recommendation = BenchmarkId::Recommendation.to_string();
        assert_eq!(titles.len(), 2);
        assert!(titles[0].starts_with(&format!("{recommendation} server (")), "{}", titles[0]);
        assert!(titles[1].starts_with(&format!("{recommendation} offline (")), "{}", titles[1]);
    }
}
