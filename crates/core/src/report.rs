//! Result reporting (§4.2): per-benchmark time-to-train scores with
//! division, category, system type and scale — and deliberately *no*
//! summary score across benchmarks (§4.2.4 explains why: no universal
//! weighting exists and submissions may omit benchmarks).

use crate::rules::{Category, Division, SystemType};
use crate::suite::BenchmarkId;
use mlperf_telemetry::TelemetrySnapshot;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// The system description accompanying a submission (§4.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemDescription {
    /// Submitting organization.
    pub submitter: String,
    /// Marketing name of the system.
    pub system_name: String,
    /// Number of accelerator chips.
    pub accelerators: usize,
    /// Accelerator model name.
    pub accelerator_model: String,
    /// Host processor count.
    pub host_processors: usize,
    /// Software stack description (framework + versions).
    pub software: String,
}

/// One benchmark's reported score within a submission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkScore {
    /// Which benchmark.
    pub benchmark: BenchmarkId,
    /// The aggregated time-to-train in minutes (olympic mean of the
    /// required runs).
    pub minutes: f64,
    /// Number of timed runs behind the score.
    pub runs: usize,
}

/// A complete submission entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Submission {
    /// System details.
    pub system: SystemDescription,
    /// Closed or Open.
    pub division: Division,
    /// Available / Preview / Research.
    pub category: Category,
    /// On-premise or cloud.
    pub system_type: SystemType,
    /// Scores for the benchmarks this submission ran (omissions are
    /// legal — §4.2.4).
    pub scores: Vec<BenchmarkScore>,
}

impl Submission {
    /// The score for one benchmark, if submitted.
    pub fn score_for(&self, id: BenchmarkId) -> Option<&BenchmarkScore> {
        self.scores.iter().find(|s| s.benchmark == id)
    }
}

/// Renders a results table in the style of the published MLPerf
/// results pages: one row per submission, one column per benchmark,
/// blank cells for omitted benchmarks, and *no* summary column.
pub fn render_results_table(submissions: &[Submission]) -> String {
    let mut out = String::new();
    write!(out, "{:<24} {:<8} {:<10} {:>6}", "system", "div", "category", "chips").unwrap();
    for id in BenchmarkId::ALL {
        write!(out, " {:>12}", id.slug()).unwrap();
    }
    writeln!(out).unwrap();
    for s in submissions {
        write!(
            out,
            "{:<24} {:<8} {:<10} {:>6}",
            s.system.system_name, s.division, s.category, s.system.accelerators
        )
        .unwrap();
        for id in BenchmarkId::ALL {
            match s.score_for(id) {
                Some(score) => write!(out, " {:>12.2}", score.minutes).unwrap(),
                None => write!(out, " {:>12}", "-").unwrap(),
            }
        }
        writeln!(out).unwrap();
    }
    out
}

/// One ranked row of a per-benchmark leaderboard, as the round
/// pipeline publishes it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaderboardRow {
    /// 1-based rank by score.
    pub rank: usize,
    /// Submitting organization.
    pub organization: String,
    /// System name.
    pub system: String,
    /// Accelerator chips in the system.
    pub chips: usize,
    /// Aggregated time-to-train in minutes.
    pub minutes: f64,
    /// Timed runs behind the score.
    pub runs: usize,
}

/// Renders one benchmark/division leaderboard: ranked rows, fastest
/// first, no summary score.
pub fn render_leaderboard(title: &str, rows: &[LeaderboardRow]) -> String {
    let mut out = String::new();
    writeln!(out, "{title}").unwrap();
    writeln!(
        out,
        "{:>4} {:<16} {:<24} {:>6} {:>12} {:>5}",
        "rank", "org", "system", "chips", "minutes", "runs"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:>4} {:<16} {:<24} {:>6} {:>12.2} {:>5}",
            r.rank, r.organization, r.system, r.chips, r.minutes, r.runs
        )
        .unwrap();
    }
    out
}

/// One entry's row in a scenario (loadgen) leaderboard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioRow {
    /// 1-based rank by throughput.
    pub rank: usize,
    /// Submitting organization.
    pub organization: String,
    /// System name.
    pub system: String,
    /// Accelerator chips in the system.
    pub chips: usize,
    /// Median query latency, milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile query latency, milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile query latency, milliseconds.
    pub p99_ms: f64,
    /// Achieved queries per second (Server: max sustainable).
    pub qps: f64,
    /// Queries behind the measurement.
    pub queries: u64,
}

/// Renders one benchmark/division/scenario leaderboard: ranked rows,
/// highest throughput first.
pub fn render_scenario_leaderboard(title: &str, rows: &[ScenarioRow]) -> String {
    let mut out = String::new();
    writeln!(out, "{title}").unwrap();
    writeln!(
        out,
        "{:>4} {:<16} {:<24} {:>6} {:>9} {:>9} {:>9} {:>10} {:>8}",
        "rank", "org", "system", "chips", "p50 ms", "p90 ms", "p99 ms", "qps", "queries"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:>4} {:<16} {:<24} {:>6} {:>9.3} {:>9.3} {:>9.3} {:>10.1} {:>8}",
            r.rank,
            r.organization,
            r.system,
            r.chips,
            r.p50_ms,
            r.p90_ms,
            r.p99_ms,
            r.qps,
            r.queries
        )
        .unwrap();
    }
    out
}

/// One benchmark's cross-round comparison (a Figure 4/5-style row):
/// one value per round in the history, oldest round first, plus the
/// endpoint ratio.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundComparisonRow {
    /// Benchmark display name.
    pub benchmark: String,
    /// One value per round, in the same order as the table's round
    /// labels (oldest first).
    pub values: Vec<f64>,
    /// The first-to-last-round ratio (orientation depends on the
    /// table: first/last for speedups, last/first for scale growth).
    pub ratio: f64,
}

/// Renders a cross-round comparison table — one value column per round
/// in `round_labels` — plus the average ratio line the paper headlines.
/// Rows with a different number of values than labels are skipped. NaN
/// values render as blank cells: a benchmark that joined the suite
/// mid-history (the v0.7 additions) carries NaN for the rounds before
/// it existed, and its ratio spans only the rounds it ran in.
pub fn render_round_comparison(
    title: &str,
    round_labels: &[String],
    value_label: &str,
    ratio_label: &str,
    rows: &[RoundComparisonRow],
) -> String {
    let mut out = String::new();
    writeln!(out, "{title}").unwrap();
    write!(out, "{:<16}", "benchmark").unwrap();
    for label in round_labels {
        write!(out, " {:>14}", format!("{label} {value_label}")).unwrap();
    }
    writeln!(out, " {ratio_label:>9}").unwrap();
    let mut ratios = Vec::new();
    for r in rows {
        if r.values.len() != round_labels.len() {
            continue;
        }
        write!(out, "{:<16}", r.benchmark).unwrap();
        for v in &r.values {
            if v.is_nan() {
                write!(out, " {:>14}", "-").unwrap();
            } else {
                write!(out, " {v:>14.1}").unwrap();
            }
        }
        writeln!(out, " {:>8.2}x", r.ratio).unwrap();
        ratios.push(r.ratio);
    }
    if !ratios.is_empty() {
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        writeln!(out, "average {ratio_label}: {avg:.2}x").unwrap();
    }
    out
}

/// Renders a telemetry snapshot as a plain-text summary: span time
/// grouped by layer and name (first-seen order), then the counter,
/// gauge, sketch and series readings. The plain-text sibling of the
/// Chrome trace exporter — what `round_pipeline --trace` prints after
/// ingest.
pub fn render_telemetry_report(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    writeln!(out, "telemetry report").unwrap();
    if snapshot.is_empty() {
        writeln!(out, "  (nothing recorded)").unwrap();
        return out;
    }
    if !snapshot.spans.is_empty() {
        writeln!(
            out,
            "{:<8} {:<24} {:>7} {:>12} {:>12}",
            "layer", "span", "count", "total_ms", "mean_ms"
        )
        .unwrap();
        // Aggregate per (layer, name), first-seen order.
        let mut groups: Vec<(&str, &str, u64, u64)> = Vec::new();
        for span in &snapshot.spans {
            match groups.iter_mut().find(|(l, n, ..)| *l == span.layer && *n == span.name) {
                Some((.., count, total_us)) => {
                    *count += 1;
                    *total_us += span.duration_us();
                }
                None => groups.push((span.layer, span.name, 1, span.duration_us())),
            }
        }
        for (layer, name, count, total_us) in groups {
            let total_ms = total_us as f64 / 1e3;
            writeln!(
                out,
                "{layer:<8} {name:<24} {count:>7} {total_ms:>12.3} {:>12.3}",
                total_ms / count as f64
            )
            .unwrap();
        }
    }
    if snapshot.evicted > 0 {
        writeln!(out, "  ({} older spans and events evicted from the sink)", snapshot.evicted)
            .unwrap();
    }
    if !snapshot.counters.is_empty() || !snapshot.gauges.is_empty() {
        writeln!(out, "counters").unwrap();
        for c in &snapshot.counters {
            writeln!(out, "  {:<40} {:>12}", c.name, c.value).unwrap();
        }
        for g in &snapshot.gauges {
            writeln!(out, "  {:<40} {:>12}  (gauge)", g.name, g.value).unwrap();
        }
    }
    if !snapshot.sketches.is_empty() {
        writeln!(out, "sketches").unwrap();
        for s in &snapshot.sketches {
            let q = |p: f64| s.quantile(p).map_or_else(|| "-".to_string(), |v| format!("{v:.2}"));
            writeln!(
                out,
                "  {:<40} count {:>6}  p50 {:>8}  p90 {:>8}  p99 {:>8}",
                s.name,
                s.count,
                q(0.5),
                q(0.9),
                q(0.99)
            )
            .unwrap();
        }
    }
    if !snapshot.series.is_empty() {
        writeln!(out, "series").unwrap();
        for s in &snapshot.series {
            let last = s.last().map_or_else(|| "-".to_string(), |v| format!("{:.0}", v.value));
            let rate =
                s.mean_rate_per_sec().map_or_else(|| "-".to_string(), |r| format!("{r:.1}/s"));
            writeln!(
                out,
                "  {:<40} samples {:>4}  last {last:>10}  mean {rate:>12}",
                s.name,
                s.samples.len()
            )
            .unwrap();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submission(name: &str, scores: Vec<BenchmarkScore>) -> Submission {
        Submission {
            system: SystemDescription {
                submitter: "TestOrg".into(),
                system_name: name.into(),
                accelerators: 8,
                accelerator_model: "A900".into(),
                host_processors: 2,
                software: "mlperf-suite 0.1".into(),
            },
            division: Division::Closed,
            category: Category::Available,
            system_type: SystemType::OnPremise,
            scores,
        }
    }

    #[test]
    fn omitted_benchmarks_render_blank() {
        let s = submission(
            "node-a",
            vec![BenchmarkScore {
                benchmark: BenchmarkId::ImageClassification,
                minutes: 12.5,
                runs: 5,
            }],
        );
        let table = render_results_table(&[s]);
        assert!(table.contains("12.50"));
        // Every omitted benchmark rendered as a dash.
        assert_eq!(table.matches(" -").count(), BenchmarkId::ALL.len() - 1, "table:\n{table}");
    }

    #[test]
    fn table_has_no_summary_column() {
        let s = submission("node-a", vec![]);
        let table = render_results_table(&[s]);
        let header = table.lines().next().unwrap();
        assert!(!header.to_lowercase().contains("summary"));
        assert!(!header.to_lowercase().contains("overall"));
        // Exactly one column per benchmark plus the 4 metadata columns.
        assert_eq!(header.split_whitespace().count(), 4 + BenchmarkId::ALL.len());
    }

    #[test]
    fn score_lookup() {
        let s = submission(
            "node-b",
            vec![BenchmarkScore { benchmark: BenchmarkId::Recommendation, minutes: 3.0, runs: 10 }],
        );
        assert!(s.score_for(BenchmarkId::Recommendation).is_some());
        assert!(s.score_for(BenchmarkId::ObjectDetection).is_none());
    }

    #[test]
    fn submissions_serialize() {
        let s = submission("node-c", vec![]);
        let json = serde_json::to_string(&s).unwrap();
        let back: Submission = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn leaderboard_renders_ranked_rows() {
        let rows = vec![
            LeaderboardRow {
                rank: 1,
                organization: "Aurora".into(),
                system: "aurora-16".into(),
                chips: 16,
                minutes: 11.25,
                runs: 5,
            },
            LeaderboardRow {
                rank: 2,
                organization: "Borealis".into(),
                system: "borealis-16".into(),
                chips: 16,
                minutes: 14.5,
                runs: 5,
            },
        ];
        let table = render_leaderboard("resnet / closed", &rows);
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].contains("resnet / closed"));
        assert!(lines[2].starts_with("   1 Aurora"));
        assert!(lines[3].starts_with("   2 Borealis"));
        assert!(table.contains("11.25"));
    }

    #[test]
    fn round_comparison_reports_average_ratio() {
        let labels = vec!["v0.5".to_string(), "v0.6".to_string()];
        let rows = vec![
            RoundComparisonRow { benchmark: "resnet".into(), values: vec![20.0, 10.0], ratio: 2.0 },
            RoundComparisonRow { benchmark: "gnmt".into(), values: vec![12.0, 12.0], ratio: 1.0 },
        ];
        let table = render_round_comparison("Figure 4", &labels, "minutes", "speedup", &rows);
        assert!(table.contains("average speedup: 1.50x"), "table:\n{table}");
        assert!(table.contains("v0.5 minutes") && table.contains("v0.6 minutes"));
    }

    #[test]
    fn telemetry_report_groups_spans_and_lists_metrics() {
        let telemetry = mlperf_telemetry::Telemetry::recording();
        let mut scope = telemetry.timeline_scope();
        scope.record("harness", "epoch", || ());
        scope.record("harness", "epoch", || ());
        scope.record("ingest", "parse_log", || ());
        telemetry.counter("ingest.logs").add(3);
        telemetry.gauge("pool.workers").set(4);
        telemetry.sketch("latency").observe(2.0);
        let report = render_telemetry_report(&telemetry.snapshot());
        let epoch_line = report.lines().find(|l| l.contains("epoch")).unwrap();
        assert!(epoch_line.starts_with("harness"), "line: {epoch_line}");
        assert_eq!(epoch_line.split_whitespace().nth(2), Some("2"), "grouped count");
        assert!(report.contains("ingest.logs"));
        assert!(report.contains("(gauge)"));
        let latency_line = report.lines().find(|l| l.contains("latency")).unwrap();
        assert!(latency_line.contains("count      1"), "line: {latency_line}");
        assert!(latency_line.contains("p50     2.00"), "line: {latency_line}");
        assert!(!report.contains("evicted"), "no eviction line while the sink kept everything");
        let mut full = telemetry.snapshot();
        full.evicted = 5;
        let report = render_telemetry_report(&full);
        assert!(report.contains("(5 older spans and events evicted from the sink)"), "{report}");
    }

    #[test]
    fn telemetry_report_handles_empty_snapshot() {
        let report = render_telemetry_report(&mlperf_telemetry::Telemetry::disabled().snapshot());
        assert!(report.contains("nothing recorded"));
    }

    #[test]
    fn round_comparison_renders_a_column_per_round() {
        let labels: Vec<String> = ["v0.5", "v0.6", "v0.7"].map(String::from).to_vec();
        let rows = vec![RoundComparisonRow {
            benchmark: "ssd".into(),
            values: vec![30.0, 20.0, 10.0],
            ratio: 3.0,
        }];
        let table = render_round_comparison("Figure 4", &labels, "minutes", "speedup", &rows);
        let header = table.lines().nth(1).unwrap();
        assert!(header.contains("v0.7 minutes"), "header: {header}");
        assert!(table.contains("3.00x"));
        // Mismatched rows are skipped rather than misrendered.
        let short = vec![RoundComparisonRow {
            benchmark: "ssd".into(),
            values: vec![30.0, 20.0],
            ratio: 1.5,
        }];
        let skipped = render_round_comparison("Figure 4", &labels, "minutes", "speedup", &short);
        assert!(!skipped.contains("ssd"));
    }

    #[test]
    fn round_comparison_blanks_rounds_before_a_benchmark_joined() {
        // A v0.7 addition has no v0.5/v0.6 scores: NaN cells render as
        // dashes and the ratio still prints for the present span.
        let labels: Vec<String> = ["v0.5", "v0.6", "v0.7"].map(String::from).to_vec();
        let rows = vec![RoundComparisonRow {
            benchmark: "bert".into(),
            values: vec![f64::NAN, f64::NAN, 9.0],
            ratio: 1.0,
        }];
        let table = render_round_comparison("Figure 4", &labels, "minutes", "speedup", &rows);
        let bert = table.lines().find(|l| l.starts_with("bert")).unwrap();
        assert_eq!(bert.matches(" -").count(), 2, "row: {bert}");
        assert!(bert.contains("9.0"));
        assert!(bert.contains("1.00x"));
    }

    #[test]
    fn scenario_leaderboard_renders_percentiles_and_qps() {
        let rows = vec![ScenarioRow {
            rank: 1,
            organization: "Aurora".into(),
            system: "aurora-16".into(),
            chips: 16,
            p50_ms: 0.813,
            p90_ms: 1.204,
            p99_ms: 3.5,
            qps: 912.4,
            queries: 1024,
        }];
        let table = render_scenario_leaderboard("ncf / closed / server", &rows);
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].contains("ncf / closed / server"));
        assert!(lines[1].contains("p99 ms") && lines[1].contains("qps"));
        assert!(lines[2].starts_with("   1 Aurora"));
        assert!(lines[2].contains("0.813") && lines[2].contains("912.4"));
    }
}
