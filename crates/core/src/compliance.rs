//! The compliance checker run over submission logs during peer review
//! (§4.1): verifies that a run log contains the required structured
//! events in a legal order before results are published.

use crate::mllog::{keys, LogEntry, LogKey};
use crate::rules::Scenario;
use serde_json::Value;
use std::fmt;

/// A compliance problem found in a submission log. Positional issues
/// carry the zero-based index of the offending entry, which is also its
/// line number in the rendered `:::MLLOG` text (entries map to lines
/// one-to-one), so review diagnostics can point at the exact line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComplianceIssue {
    /// A required key never appears.
    MissingKey(LogKey),
    /// Events appear out of lifecycle order.
    OutOfOrder {
        /// The key that appeared too early.
        early: LogKey,
        /// Index of the too-early entry.
        early_entry: usize,
        /// The key it must follow.
        late: LogKey,
        /// Index of the entry it should have followed.
        late_entry: usize,
    },
    /// `run_stop` exists but does not carry a status.
    RunStopWithoutStatus {
        /// Index of the `run_stop` entry.
        entry: usize,
    },
    /// Log timestamps go backwards.
    NonMonotonicTimestamps {
        /// Index of the first entry whose timestamp precedes its
        /// predecessor's.
        entry: usize,
    },
    /// No evaluation results between run start and stop.
    NoEvaluations,
    /// A `loadgen_scenario` entry names no known scenario.
    UnknownScenario {
        /// Index of the scenario entry.
        entry: usize,
    },
    /// A loadgen run issued fewer queries than the scenario requires.
    TooFewQueries {
        /// Index of the `loadgen_query_count` entry.
        entry: usize,
        /// Queries actually issued.
        issued: u64,
        /// The scenario's minimum.
        required: u64,
    },
    /// A loadgen run was shorter than the scenario's minimum duration.
    ScenarioTooShort {
        /// Index of the `loadgen_duration_ms` entry.
        entry: usize,
        /// Measured duration in milliseconds.
        duration_ms: u64,
        /// The scenario's minimum in milliseconds.
        required_ms: u64,
    },
    /// A latency-bound scenario did not satisfy its SLO.
    SloViolated {
        /// Index of the `loadgen_slo_satisfied` entry.
        entry: usize,
    },
}

impl ComplianceIssue {
    /// The index of the offending entry (= line number in the rendered
    /// log), when the issue points at one.
    #[cfg(test)]
    fn entry_index(&self) -> Option<usize> {
        match self {
            ComplianceIssue::MissingKey(_) | ComplianceIssue::NoEvaluations => None,
            ComplianceIssue::OutOfOrder { early_entry, .. } => Some(*early_entry),
            ComplianceIssue::RunStopWithoutStatus { entry }
            | ComplianceIssue::NonMonotonicTimestamps { entry }
            | ComplianceIssue::UnknownScenario { entry }
            | ComplianceIssue::TooFewQueries { entry, .. }
            | ComplianceIssue::ScenarioTooShort { entry, .. }
            | ComplianceIssue::SloViolated { entry } => Some(*entry),
        }
    }
}

impl fmt::Display for ComplianceIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComplianceIssue::MissingKey(k) => write!(f, "required key `{k}` missing"),
            ComplianceIssue::OutOfOrder { early, early_entry, late, late_entry } => {
                write!(
                    f,
                    "`{early}` (line {early_entry}) appears before `{late}` (line {late_entry})"
                )
            }
            ComplianceIssue::RunStopWithoutStatus { entry } => {
                write!(f, "`run_stop` (line {entry}) has no status field")
            }
            ComplianceIssue::NonMonotonicTimestamps { entry } => {
                write!(f, "timestamps go backwards at line {entry}")
            }
            ComplianceIssue::NoEvaluations => {
                write!(f, "no eval_accuracy entries inside the timed region")
            }
            ComplianceIssue::UnknownScenario { entry } => {
                write!(f, "`loadgen_scenario` (line {entry}) names no known scenario")
            }
            ComplianceIssue::TooFewQueries { entry, issued, required } => {
                write!(
                    f,
                    "loadgen issued {issued} queries (line {entry}), scenario requires {required}"
                )
            }
            ComplianceIssue::ScenarioTooShort { entry, duration_ms, required_ms } => {
                write!(
                    f,
                    "loadgen ran {duration_ms} ms (line {entry}), scenario requires {required_ms}"
                )
            }
            ComplianceIssue::SloViolated { entry } => {
                write!(f, "latency SLO not satisfied (line {entry})")
            }
        }
    }
}

/// Checks a run log for rule compliance; returns all problems found
/// (empty = compliant).
pub fn check_log(entries: &[LogEntry]) -> Vec<ComplianceIssue> {
    let mut issues = Vec::new();
    let pos = |key: &str| entries.iter().position(|e| e.key == key);

    for required in [
        keys::SUBMISSION_BENCHMARK,
        keys::SEED,
        keys::QUALITY_TARGET,
        keys::RUN_START,
        keys::RUN_STOP,
    ] {
        if pos(required).is_none() {
            issues.push(ComplianceIssue::MissingKey(required.into()));
        }
    }

    // Ordering constraints over present keys.
    let order_pairs = [
        (keys::INIT_START, keys::RUN_START),
        (keys::RUN_START, keys::RUN_STOP),
        (keys::RUN_START, keys::EPOCH_START),
        (keys::EPOCH_START, keys::EPOCH_STOP),
    ];
    for (first, second) in order_pairs {
        if let (Some(a), Some(b)) = (pos(first), pos(second)) {
            if a > b {
                issues.push(ComplianceIssue::OutOfOrder {
                    early: second.into(),
                    early_entry: b,
                    late: first.into(),
                    late_entry: a,
                });
            }
        }
    }

    if let Some((i, stop)) = entries.iter().enumerate().find(|(_, e)| e.key == keys::RUN_STOP) {
        match &stop.value {
            Value::Object(map) if map.contains_key("status") => {}
            _ => issues.push(ComplianceIssue::RunStopWithoutStatus { entry: i }),
        }
    }

    if let Some(i) = entries.windows(2).position(|w| w[1].time_ms < w[0].time_ms) {
        issues.push(ComplianceIssue::NonMonotonicTimestamps { entry: i + 1 });
    }

    // Loadgen runs measure inference traffic over an already-trained
    // model: they carry scenario result keys instead of in-training
    // evaluations, and are bound by the scenario rules.
    let loadgen = pos(keys::LOADGEN_SCENARIO);
    if loadgen.is_none() {
        if let (Some(start), Some(stop)) = (pos(keys::RUN_START), pos(keys::RUN_STOP)) {
            let evals = entries[start..=stop.min(entries.len() - 1)]
                .iter()
                .filter(|e| e.key == keys::EVAL_ACCURACY)
                .count();
            if evals == 0 {
                issues.push(ComplianceIssue::NoEvaluations);
            }
        }
    }

    if let Some(scenario_at) = loadgen {
        check_loadgen(entries, scenario_at, &mut issues);
    }

    issues
}

/// The loadgen-specific checks: result keys present, scenario known,
/// and the scenario rules (minimum query count, minimum duration, SLO
/// satisfied where the scenario binds a latency percentile) honoured.
fn check_loadgen(entries: &[LogEntry], scenario_at: usize, issues: &mut Vec<ComplianceIssue>) {
    let pos = |key: &str| entries.iter().position(|e| e.key == key);

    for required in [
        keys::LOADGEN_QUERY_COUNT,
        keys::LOADGEN_DURATION_MS,
        keys::LOADGEN_LATENCY_P50_MS,
        keys::LOADGEN_LATENCY_P90_MS,
        keys::LOADGEN_LATENCY_P99_MS,
        keys::LOADGEN_QPS,
    ] {
        if pos(required).is_none() {
            issues.push(ComplianceIssue::MissingKey(required.into()));
        }
    }

    let Some(scenario) = entries[scenario_at].value.as_str().and_then(Scenario::from_slug) else {
        issues.push(ComplianceIssue::UnknownScenario { entry: scenario_at });
        return;
    };
    let rules = scenario.rules();

    if let Some(i) = pos(keys::LOADGEN_QUERY_COUNT) {
        if let Some(issued) = entries[i].value.as_u64() {
            if issued < rules.min_query_count {
                issues.push(ComplianceIssue::TooFewQueries {
                    entry: i,
                    issued,
                    required: rules.min_query_count,
                });
            }
        }
    }

    if let Some(i) = pos(keys::LOADGEN_DURATION_MS) {
        if let Some(duration_ms) = entries[i].value.as_u64() {
            if duration_ms < rules.min_duration_ms {
                issues.push(ComplianceIssue::ScenarioTooShort {
                    entry: i,
                    duration_ms,
                    required_ms: rules.min_duration_ms,
                });
            }
        }
    }

    if rules.latency_percentile.is_some() {
        match pos(keys::LOADGEN_SLO_SATISFIED) {
            None => issues.push(ComplianceIssue::MissingKey(keys::LOADGEN_SLO_SATISFIED.into())),
            Some(i) => {
                if entries[i].value.as_bool() != Some(true) {
                    issues.push(ComplianceIssue::SloViolated { entry: i });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_benchmark, Benchmark};
    use crate::suite::BenchmarkId;
    use crate::timing::SimClock;
    use serde_json::json;

    fn entry(time_ms: u64, key: &str, value: Value) -> LogEntry {
        LogEntry { time_ms, key: key.into(), value }
    }

    fn minimal_valid() -> Vec<LogEntry> {
        vec![
            entry(0, keys::SUBMISSION_BENCHMARK, json!("ncf")),
            entry(0, keys::SEED, json!(1)),
            entry(0, keys::QUALITY_TARGET, json!(0.635)),
            entry(1, keys::INIT_START, json!(null)),
            entry(5, keys::RUN_START, json!(null)),
            entry(6, keys::EPOCH_START, json!(0)),
            entry(9, keys::EPOCH_STOP, json!(0)),
            entry(10, keys::EVAL_ACCURACY, json!(0.7)),
            entry(11, keys::RUN_STOP, json!({"status": "success"})),
        ]
    }

    #[test]
    fn valid_log_passes() {
        assert!(check_log(&minimal_valid()).is_empty());
    }

    #[test]
    fn missing_seed_flagged() {
        let log: Vec<LogEntry> =
            minimal_valid().into_iter().filter(|e| e.key != keys::SEED).collect();
        assert!(check_log(&log).contains(&ComplianceIssue::MissingKey(keys::SEED.into())));
    }

    #[test]
    fn out_of_order_flagged() {
        let mut log = minimal_valid();
        log.swap(3, 4); // run_start before init_start
        let issues = check_log(&log);
        assert!(issues.contains(&ComplianceIssue::OutOfOrder {
            early: keys::RUN_START.into(),
            early_entry: 3,
            late: keys::INIT_START.into(),
            late_entry: 4,
        }));
    }

    #[test]
    fn issues_point_at_log_lines() {
        let mut log = minimal_valid();
        log.last_mut().unwrap().value = json!(null);
        log[6].time_ms = 2;
        let indices: Vec<Option<usize>> =
            check_log(&log).iter().map(ComplianceIssue::entry_index).collect();
        assert!(indices.contains(&Some(8)), "run_stop line: {indices:?}");
        assert!(indices.contains(&Some(6)), "timestamp line: {indices:?}");
        let rendered = ComplianceIssue::NonMonotonicTimestamps { entry: 6 }.to_string();
        assert!(rendered.contains("line 6"), "{rendered}");
    }

    #[test]
    fn run_stop_without_status_flagged() {
        let mut log = minimal_valid();
        log.last_mut().unwrap().value = json!(null);
        assert!(check_log(&log).contains(&ComplianceIssue::RunStopWithoutStatus { entry: 8 }));
    }

    #[test]
    fn backwards_timestamps_flagged() {
        let mut log = minimal_valid();
        log[6].time_ms = 2; // earlier than its predecessor
        assert!(check_log(&log).contains(&ComplianceIssue::NonMonotonicTimestamps { entry: 6 }));
    }

    #[test]
    fn no_evals_flagged() {
        let log: Vec<LogEntry> =
            minimal_valid().into_iter().filter(|e| e.key != keys::EVAL_ACCURACY).collect();
        assert!(check_log(&log).contains(&ComplianceIssue::NoEvaluations));
    }

    /// A compliant Server-scenario loadgen log: base lifecycle keys
    /// plus the scenario result keys, satisfying the scenario rules.
    fn minimal_loadgen(scenario: &str) -> Vec<LogEntry> {
        vec![
            entry(0, keys::SUBMISSION_BENCHMARK, json!("ncf")),
            entry(0, keys::SEED, json!(1)),
            entry(0, keys::QUALITY_TARGET, json!(0.635)),
            entry(1, keys::INIT_START, json!(null)),
            entry(5, keys::RUN_START, json!(null)),
            entry(5, keys::LOADGEN_SCENARIO, json!(scenario)),
            entry(2005, keys::LOADGEN_QUERY_COUNT, json!(256)),
            entry(2005, keys::LOADGEN_DURATION_MS, json!(2000)),
            entry(2005, keys::LOADGEN_LATENCY_P50_MS, json!(1.5)),
            entry(2005, keys::LOADGEN_LATENCY_P90_MS, json!(2.5)),
            entry(2005, keys::LOADGEN_LATENCY_P99_MS, json!(4.0)),
            entry(2005, keys::LOADGEN_QPS, json!(128.0)),
            entry(2005, keys::LOADGEN_SLO_MS, json!(10.0)),
            entry(2005, keys::LOADGEN_SLO_SATISFIED, json!(true)),
            entry(2006, keys::RUN_STOP, json!({"status": "success"})),
        ]
    }

    #[test]
    fn valid_loadgen_log_passes_without_evaluations() {
        for scenario in ["single_stream", "server", "offline"] {
            let issues = check_log(&minimal_loadgen(scenario));
            assert!(issues.is_empty(), "{scenario}: {issues:?}");
        }
    }

    #[test]
    fn loadgen_log_missing_result_keys_flagged() {
        let log: Vec<LogEntry> =
            minimal_loadgen("server").into_iter().filter(|e| e.key != keys::LOADGEN_QPS).collect();
        assert!(check_log(&log).contains(&ComplianceIssue::MissingKey(keys::LOADGEN_QPS.into())));
    }

    #[test]
    fn unknown_scenario_flagged() {
        let mut log = minimal_loadgen("server");
        log[5].value = json!("multi_stream");
        assert!(check_log(&log).contains(&ComplianceIssue::UnknownScenario { entry: 5 }));
    }

    #[test]
    fn too_few_queries_flagged() {
        let mut log = minimal_loadgen("server");
        log[6].value = json!(17);
        assert!(check_log(&log).contains(&ComplianceIssue::TooFewQueries {
            entry: 6,
            issued: 17,
            required: 128,
        }));
    }

    #[test]
    fn scenario_too_short_flagged() {
        let mut log = minimal_loadgen("server");
        log[7].value = json!(40);
        assert!(check_log(&log).contains(&ComplianceIssue::ScenarioTooShort {
            entry: 7,
            duration_ms: 40,
            required_ms: 1000,
        }));
    }

    #[test]
    fn slo_violation_flagged_for_latency_bound_scenarios() {
        let mut log = minimal_loadgen("server");
        log[13].value = json!(false);
        assert!(check_log(&log).contains(&ComplianceIssue::SloViolated { entry: 13 }));
        // Offline has no latency bound: dropping the SLO keys is fine.
        let log: Vec<LogEntry> = minimal_loadgen("offline")
            .into_iter()
            .filter(|e| e.key != keys::LOADGEN_SLO_MS && e.key != keys::LOADGEN_SLO_SATISFIED)
            .collect();
        assert!(check_log(&log).is_empty());
    }

    /// The harness's own logs must pass the compliance checker — the
    /// property that ties §3.2 and §4.1 together.
    #[test]
    fn harness_output_is_compliant() {
        struct Instant0;
        impl Benchmark for Instant0 {
            fn id(&self) -> BenchmarkId {
                BenchmarkId::Recommendation
            }
            fn prepare(&mut self) {}
            fn create_model(&mut self, _seed: u64) {}
            fn train_epoch(&mut self, _epoch: usize) {}
            fn evaluate(&mut self) -> f64 {
                1.0
            }
            fn target(&self) -> f64 {
                0.5
            }
            fn max_epochs(&self) -> usize {
                3
            }
        }
        let clock = SimClock::new();
        let result = run_benchmark(&mut Instant0, 1, &clock);
        let issues = check_log(result.log.entries());
        assert!(issues.is_empty(), "harness log non-compliant: {issues:?}");
    }
}
