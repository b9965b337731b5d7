//! Result stabilization (§3.2.2): multiple timed runs per result, drop
//! the fastest and slowest, report the arithmetic mean of the rest.
//!
//! "Five runs are required for vision tasks to ensure 90% of entries
//! from the same system were within 5%, and for all other tasks, ten
//! runs are required, so 90% of entries from the same system were
//! within 10%."

use crate::mllog::{keys, LogEntry};
use crate::rules::Scenario;
use crate::suite::BenchmarkId;
use std::fmt;

/// Why a run set could not be aggregated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggregateError {
    /// Fewer runs than the benchmark requires.
    NotEnoughRuns {
        /// Runs provided.
        got: usize,
        /// Runs required for this benchmark.
        required: usize,
    },
    /// A run failed to reach the quality target.
    FailedRun {
        /// Index of the failed run.
        index: usize,
    },
}

impl fmt::Display for AggregateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggregateError::NotEnoughRuns { got, required } => {
                write!(f, "submission has {got} runs but {required} are required")
            }
            AggregateError::FailedRun { index } => {
                write!(f, "run {index} did not reach the quality target")
            }
        }
    }
}

impl std::error::Error for AggregateError {}

/// Drops the single fastest and single slowest value and returns the
/// arithmetic mean of the rest (the "olympic mean").
///
/// # Panics
///
/// Panics if fewer than 3 values are given (nothing would remain).
pub fn olympic_mean(times: &[f64]) -> f64 {
    assert!(times.len() >= 3, "olympic mean needs at least 3 values");
    let mut sorted: Vec<f64> = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kept = &sorted[1..sorted.len() - 1];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// One timed run's summary for aggregation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Official time-to-train in seconds.
    pub seconds: f64,
    /// Whether the run reached the quality target.
    pub reached_target: bool,
}

/// Aggregates a submission's run set for one benchmark into the
/// reported score, enforcing the run-count requirement and that every
/// run converged.
///
/// # Errors
///
/// Returns [`AggregateError`] if the run count is short or any run
/// failed.
pub fn aggregate_runs(id: BenchmarkId, runs: &[RunSummary]) -> Result<f64, AggregateError> {
    let required = id.runs_required();
    if runs.len() < required {
        return Err(AggregateError::NotEnoughRuns { got: runs.len(), required });
    }
    if let Some(index) = runs.iter().position(|r| !r.reached_target) {
        return Err(AggregateError::FailedRun { index });
    }
    let times: Vec<f64> = runs.iter().map(|r| r.seconds).collect();
    Ok(olympic_mean(&times))
}

/// One loadgen scenario run's reported measurement, as extracted from
/// its scenario-tagged run log. The inference-side analogue of
/// [`RunSummary`]: review collects one per scenario log and publishes
/// them on accepted entries instead of a time-to-train score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSummary {
    /// Which scenario produced the measurement.
    pub scenario: Scenario,
    /// Queries issued.
    pub queries: u64,
    /// Measured duration in milliseconds.
    pub duration_ms: u64,
    /// Median query latency, milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile query latency, milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile query latency, milliseconds.
    pub p99_ms: f64,
    /// Achieved queries per second (Server: max sustainable).
    pub qps: f64,
    /// The latency SLO bound, when the scenario binds one.
    pub slo_ms: Option<f64>,
    /// Whether the SLO was met, when the scenario binds one.
    pub slo_satisfied: Option<bool>,
}

/// Extracts the scenario measurement from a parsed run log: `Some` iff
/// the log carries a known `loadgen_scenario` tag and every scenario
/// result key (which compliance has checked by the time review calls
/// this), `None` for ordinary training logs.
pub fn scenario_summary(entries: &[LogEntry]) -> Option<ScenarioSummary> {
    let value_of = |key: &str| entries.iter().find(|e| e.key == key).map(|e| &e.value);
    let f64_of = |key: &str| value_of(key).and_then(|v| v.as_f64());
    let scenario = value_of(keys::LOADGEN_SCENARIO)?.as_str().and_then(Scenario::from_slug)?;
    Some(ScenarioSummary {
        scenario,
        queries: value_of(keys::LOADGEN_QUERY_COUNT)?.as_u64()?,
        duration_ms: value_of(keys::LOADGEN_DURATION_MS)?.as_u64()?,
        p50_ms: f64_of(keys::LOADGEN_LATENCY_P50_MS)?,
        p90_ms: f64_of(keys::LOADGEN_LATENCY_P90_MS)?,
        p99_ms: f64_of(keys::LOADGEN_LATENCY_P99_MS)?,
        qps: f64_of(keys::LOADGEN_QPS)?,
        slo_ms: f64_of(keys::LOADGEN_SLO_MS),
        slo_satisfied: value_of(keys::LOADGEN_SLO_SATISFIED).and_then(|v| v.as_bool()),
    })
}

/// Monte-Carlo check of the §3.2.2 stability claim: draws `trials` run
/// sets of `runs_per_result` from the empirical `times`, aggregates
/// each, and returns the fraction of aggregated results within
/// `tolerance` (relative) of their median.
pub fn stability_fraction(
    times: &[f64],
    runs_per_result: usize,
    trials: usize,
    tolerance: f64,
    seed: u64,
) -> f64 {
    assert!(runs_per_result >= 3, "need at least 3 runs per result");
    assert!(!times.is_empty(), "empty time sample");
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut results = Vec::with_capacity(trials);
    for _ in 0..trials {
        let draw: Vec<f64> =
            (0..runs_per_result).map(|_| times[(next() % times.len() as u64) as usize]).collect();
        results.push(olympic_mean(&draw));
    }
    let mut sorted = results.clone();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    results.iter().filter(|r| ((*r - median) / median).abs() <= tolerance).count() as f64
        / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn olympic_mean_drops_extremes() {
        // 1 and 100 dropped; mean of 10, 11, 12 = 11.
        assert_eq!(olympic_mean(&[100.0, 10.0, 1.0, 12.0, 11.0]), 11.0);
    }

    #[test]
    fn olympic_mean_of_three_keeps_median() {
        assert_eq!(olympic_mean(&[5.0, 1.0, 9.0]), 5.0);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn olympic_mean_needs_three() {
        olympic_mean(&[1.0, 2.0]);
    }

    #[test]
    fn aggregate_enforces_run_counts() {
        let run = RunSummary { seconds: 100.0, reached_target: true };
        // Vision: 5 required.
        let four = vec![run; 4];
        assert_eq!(
            aggregate_runs(BenchmarkId::ImageClassification, &four),
            Err(AggregateError::NotEnoughRuns { got: 4, required: 5 })
        );
        let five = vec![run; 5];
        assert_eq!(aggregate_runs(BenchmarkId::ImageClassification, &five), Ok(100.0));
        // Non-vision: 10 required.
        assert_eq!(
            aggregate_runs(BenchmarkId::Recommendation, &five),
            Err(AggregateError::NotEnoughRuns { got: 5, required: 10 })
        );
        let ten = vec![run; 10];
        assert_eq!(aggregate_runs(BenchmarkId::Recommendation, &ten), Ok(100.0));
    }

    #[test]
    fn aggregate_rejects_failed_runs() {
        let ok = RunSummary { seconds: 100.0, reached_target: true };
        let bad = RunSummary { seconds: 10.0, reached_target: false };
        let mut runs = vec![ok; 5];
        runs[2] = bad;
        assert_eq!(
            aggregate_runs(BenchmarkId::ObjectDetection, &runs),
            Err(AggregateError::FailedRun { index: 2 })
        );
    }

    #[test]
    fn aggregate_is_robust_to_one_outlier() {
        let mut runs = vec![RunSummary { seconds: 100.0, reached_target: true }; 5];
        runs[0].seconds = 500.0; // pathological straggler
        let score = aggregate_runs(BenchmarkId::ImageClassification, &runs).unwrap();
        assert_eq!(score, 100.0);
    }

    #[test]
    fn stability_improves_with_more_runs() {
        // A noisy empirical distribution: aggregating more runs per
        // result tightens the spread.
        let times: Vec<f64> = (0..50)
            .map(|i| 100.0 + 15.0 * ((i * 2654435761u64 % 97) as f64 / 97.0 - 0.5))
            .collect();
        let loose = stability_fraction(&times, 3, 400, 0.05, 1);
        let tight = stability_fraction(&times, 10, 400, 0.05, 1);
        assert!(
            tight >= loose,
            "10-run aggregation ({tight}) should be at least as stable as 3-run ({loose})"
        );
    }

    #[test]
    fn stability_fraction_is_deterministic() {
        let times = [90.0, 95.0, 100.0, 105.0, 110.0];
        let a = stability_fraction(&times, 5, 100, 0.05, 7);
        let b = stability_fraction(&times, 5, 100, 0.05, 7);
        assert_eq!(a, b);
    }

    fn loadgen_entry(key: &str, value: serde_json::Value) -> LogEntry {
        LogEntry { time_ms: 0, key: key.into(), value }
    }

    fn loadgen_entries(scenario: &str) -> Vec<LogEntry> {
        use serde_json::json;
        vec![
            loadgen_entry(keys::LOADGEN_SCENARIO, json!(scenario)),
            loadgen_entry(keys::LOADGEN_QUERY_COUNT, json!(256)),
            loadgen_entry(keys::LOADGEN_DURATION_MS, json!(2000)),
            loadgen_entry(keys::LOADGEN_LATENCY_P50_MS, json!(1.5)),
            loadgen_entry(keys::LOADGEN_LATENCY_P90_MS, json!(2.5)),
            loadgen_entry(keys::LOADGEN_LATENCY_P99_MS, json!(4.0)),
            loadgen_entry(keys::LOADGEN_QPS, json!(128.0)),
            loadgen_entry(keys::LOADGEN_SLO_MS, json!(10.0)),
            loadgen_entry(keys::LOADGEN_SLO_SATISFIED, json!(true)),
        ]
    }

    #[test]
    fn scenario_summary_extracts_every_field() {
        let summary = scenario_summary(&loadgen_entries("server")).unwrap();
        assert_eq!(
            summary,
            ScenarioSummary {
                scenario: Scenario::Server,
                queries: 256,
                duration_ms: 2000,
                p50_ms: 1.5,
                p90_ms: 2.5,
                p99_ms: 4.0,
                qps: 128.0,
                slo_ms: Some(10.0),
                slo_satisfied: Some(true),
            }
        );
    }

    #[test]
    fn scenario_summary_slo_keys_are_optional() {
        let mut entries = loadgen_entries("offline");
        entries.retain(|e| e.key != keys::LOADGEN_SLO_MS && e.key != keys::LOADGEN_SLO_SATISFIED);
        let summary = scenario_summary(&entries).unwrap();
        assert_eq!(summary.scenario, Scenario::Offline);
        assert_eq!(summary.slo_ms, None);
        assert_eq!(summary.slo_satisfied, None);
    }

    #[test]
    fn scenario_summary_rejects_training_and_partial_logs() {
        use serde_json::json;
        let training = vec![
            loadgen_entry(keys::RUN_START, json!(null)),
            loadgen_entry(keys::RUN_STOP, json!({"status": "success"})),
        ];
        assert_eq!(scenario_summary(&training), None);
        let mut partial = loadgen_entries("single_stream");
        partial.retain(|e| e.key != keys::LOADGEN_QPS);
        assert_eq!(scenario_summary(&partial), None);
        let mut unknown = loadgen_entries("multi_stream");
        unknown[0] = loadgen_entry(keys::LOADGEN_SCENARIO, json!("multi_stream"));
        assert_eq!(scenario_summary(&unknown), None);
    }
}
