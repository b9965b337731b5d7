//! Peer review of one submission bundle (§4.1): parse, compliance,
//! rules, equivalence, aggregation — every problem becomes a
//! structured diagnostic instead of an abort.

use crate::bundle::{BenchmarkReference, RunSet, SubmissionBundle};
use mlperf_core::aggregate::{
    aggregate_runs, scenario_summary, AggregateError, RunSummary, ScenarioSummary,
};
use mlperf_core::compliance::{check_log, ComplianceIssue};
use mlperf_core::equivalence::{check_equivalence, EquivalenceIssue};
use mlperf_core::mllog::{keys, LogEntry, MlLogger, ParseError};
use mlperf_core::rules::{Division, HyperparameterRules};
use mlperf_core::suite::BenchmarkId;
use mlperf_telemetry::{arg, SpanScope, Telemetry};
use serde_json::{json, Map};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The result of parsing one run log: its entries, or why it has none.
pub(crate) type ParsedLog = Result<Vec<LogEntry>, LogError>;

/// Why a run log yielded no entries.
#[derive(Debug)]
pub(crate) enum LogError {
    /// The parser's error, naming every malformed line.
    Malformed(ParseError),
    /// The parser panicked; the panic was contained to this log.
    ParserPanicked(String),
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Malformed(e) => e.fmt(f),
            LogError::ParserPanicked(msg) => write!(f, "parser panicked: {msg}"),
        }
    }
}

/// One structured review finding, tied to the run set (and, where it
/// applies, the run) that produced it.
#[derive(Debug, Clone, PartialEq)]
pub enum Diagnostic {
    /// A log failed to parse at all.
    MalformedLog {
        /// Index of the run within the run set.
        run: usize,
        /// The parser's message (names the offending line).
        error: String,
    },
    /// The compliance checker flagged a parsed log.
    Compliance {
        /// Index of the run within the run set.
        run: usize,
        /// The issue, carrying the offending log line where one exists.
        issue: ComplianceIssue,
    },
    /// A restricted hyperparameter differs from the reference
    /// (Closed division only).
    RuleViolation {
        /// The offending hyperparameter name.
        name: String,
    },
    /// The model fingerprint differs from the reference
    /// (Closed division only).
    Equivalence(EquivalenceIssue),
    /// The run set trained on a different dataset than the reference.
    /// Applies to *both* divisions: §4.2.2 lets Open submissions change
    /// the model and hyperparameters "but must use the same data and
    /// quality target".
    DatasetMismatch {
        /// The reference dataset for the benchmark.
        reference: String,
        /// What the run set trained on instead.
        submitted: String,
    },
    /// A run logged a quality target different from the round's
    /// reference target. Applies to both divisions (§4.2.2).
    WrongQualityTarget {
        /// Index of the run within the run set.
        run: usize,
        /// The round's quality target for the benchmark.
        expected: f64,
        /// What the run logged (NaN when missing or non-numeric).
        actual: f64,
    },
    /// The run set could not be aggregated into a score.
    Aggregation(AggregateError),
    /// The benchmark has no reference in this round.
    NoReference,
    /// Review of the bundle panicked; the panic was contained.
    Panicked(String),
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Diagnostic::MalformedLog { run, error } => {
                write!(f, "run {run}: malformed log: {error}")
            }
            Diagnostic::Compliance { run, issue } => write!(f, "run {run}: {issue}"),
            Diagnostic::RuleViolation { name } => {
                write!(f, "restricted hyperparameter `{name}` differs from the reference")
            }
            Diagnostic::Equivalence(issue) => write!(f, "not equivalent to reference: {issue}"),
            Diagnostic::DatasetMismatch { reference, submitted } => {
                write!(f, "trained on `{submitted}` instead of the reference dataset `{reference}`")
            }
            Diagnostic::WrongQualityTarget { run, expected, actual } => {
                write!(f, "run {run}: quality target {actual} differs from the round's {expected}")
            }
            Diagnostic::Aggregation(e) => write!(f, "cannot aggregate run set: {e}"),
            Diagnostic::NoReference => write!(f, "benchmark has no reference in this round"),
            Diagnostic::Panicked(msg) => write!(f, "review panicked: {msg}"),
        }
    }
}

/// The review outcome for one run set.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkReview {
    /// Which benchmark.
    pub benchmark: BenchmarkId,
    /// Everything review found wrong (empty = clean).
    pub diagnostics: Vec<Diagnostic>,
    /// The aggregated score in minutes, when the run set survived
    /// review.
    pub minutes: Option<f64>,
    /// Timed runs in the set.
    pub runs: usize,
    /// Loadgen scenario measurements extracted from the set's
    /// scenario-tagged logs (empty for ordinary training run sets).
    pub scenarios: Vec<ScenarioSummary>,
}

impl BenchmarkReview {
    /// Whether this run set passed review with a result: a
    /// time-to-train score, loadgen scenario measurements, or both.
    pub fn accepted(&self) -> bool {
        self.diagnostics.is_empty() && (self.minutes.is_some() || !self.scenarios.is_empty())
    }
}

/// The full review report for one bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct ReviewReport {
    /// Submitting organization.
    pub org: String,
    /// The bundle's division.
    pub division: Division,
    /// One review per run set, in bundle order.
    pub benchmarks: Vec<BenchmarkReview>,
}

impl ReviewReport {
    /// Whether every run set passed review.
    pub fn is_clean(&self) -> bool {
        self.benchmarks.iter().all(BenchmarkReview::accepted)
    }

    /// All diagnostics across the bundle, with their benchmarks.
    pub fn diagnostics(&self) -> impl Iterator<Item = (BenchmarkId, &Diagnostic)> {
        self.benchmarks.iter().flat_map(|b| b.diagnostics.iter().map(move |d| (b.benchmark, d)))
    }
}

/// Extracts the timed-run summary out of a parsed, compliant log: the
/// timed region spans `run_start` to `run_stop`, and the run reached
/// its target iff `run_stop` carries `{"status": "success"}`.
fn run_summary(entries: &[LogEntry]) -> Option<RunSummary> {
    let start = entries.iter().find(|e| e.key == keys::RUN_START)?;
    let stop = entries.iter().find(|e| e.key == keys::RUN_STOP)?;
    Some(RunSummary {
        seconds: stop.time_ms.saturating_sub(start.time_ms) as f64 / 1000.0,
        reached_target: stop.value["status"] == "success",
    })
}

/// The quality target a parsed log declares, or NaN when it is missing
/// or non-numeric.
fn logged_quality_target(entries: &[LogEntry]) -> f64 {
    entries
        .iter()
        .find(|e| e.key == keys::QUALITY_TARGET)
        .and_then(|e| e.value.as_f64())
        .unwrap_or(f64::NAN)
}

/// Reviews one run set given its parsed logs (`parsed` aligns with
/// `run_set.logs`).
fn review_run_set(
    run_set: &RunSet,
    division: Division,
    references: &[BenchmarkReference],
    parsed: &[ParsedLog],
) -> BenchmarkReview {
    let mut diagnostics = Vec::new();
    let mut summaries = Vec::new();
    let mut scenarios = Vec::new();
    let mut compliant: Vec<(usize, &[LogEntry])> = Vec::new();

    for (run, result) in parsed.iter().enumerate() {
        match result {
            Err(error) => {
                diagnostics.push(Diagnostic::MalformedLog { run, error: error.to_string() });
            }
            Ok(entries) => {
                let issues = check_log(entries);
                if issues.is_empty() {
                    // A scenario-tagged log is a loadgen measurement,
                    // not a timed training run: it contributes a
                    // scenario summary instead of an aggregation input.
                    if let Some(summary) = scenario_summary(entries) {
                        scenarios.push(summary);
                    } else if let Some(summary) = run_summary(entries) {
                        summaries.push(summary);
                    }
                    compliant.push((run, entries));
                } else {
                    diagnostics.extend(
                        issues.into_iter().map(|issue| Diagnostic::Compliance { run, issue }),
                    );
                }
            }
        }
    }

    match BenchmarkReference::find(references, run_set.benchmark) {
        None => diagnostics.push(Diagnostic::NoReference),
        Some(reference) => {
            // Both divisions must train on the reference dataset and
            // chase the reference quality target (§4.2.2: Open may
            // change model and hyperparameters "but must use the same
            // data and quality target").
            if run_set.dataset != reference.dataset {
                diagnostics.push(Diagnostic::DatasetMismatch {
                    reference: reference.dataset.clone(),
                    submitted: run_set.dataset.clone(),
                });
            }
            for (run, entries) in &compliant {
                let actual = logged_quality_target(entries);
                // A missing/non-numeric target is NaN: the deviation is
                // then non-finite, which also counts as a mismatch.
                let deviation = (actual - reference.quality_target).abs();
                if !deviation.is_finite() || deviation >= 1e-9 {
                    diagnostics.push(Diagnostic::WrongQualityTarget {
                        run: *run,
                        expected: reference.quality_target,
                        actual,
                    });
                }
            }
            // Open-division submissions may change model and
            // hyperparameters freely; Closed must match the reference.
            if division == Division::Closed {
                let rules = HyperparameterRules::closed_division(run_set.benchmark);
                for name in rules.violations(&reference.hyperparameters, &run_set.hyperparameters) {
                    diagnostics.push(Diagnostic::RuleViolation { name });
                }
                diagnostics.extend(
                    check_equivalence(&reference.signature, &run_set.signature)
                        .into_iter()
                        .map(Diagnostic::Equivalence),
                );
            }
        }
    }

    // A pure loadgen run set carries no time-to-train score, so there
    // is nothing to aggregate; mixed sets still aggregate their
    // training runs under the usual run-count rules.
    let loadgen_only = summaries.is_empty() && !scenarios.is_empty();
    let minutes = if diagnostics.is_empty() && !loadgen_only {
        match aggregate_runs(run_set.benchmark, &summaries) {
            Ok(seconds) => Some(seconds / 60.0),
            Err(e) => {
                diagnostics.push(Diagnostic::Aggregation(e));
                None
            }
        }
    } else {
        None
    };

    BenchmarkReview {
        benchmark: run_set.benchmark,
        diagnostics,
        minutes,
        runs: run_set.logs.len(),
        scenarios,
    }
}

/// Instant span events for review-stage rejections, mirroring the
/// quarantine events the ingest stage emits for its decisions: one
/// `review`-layer event per rules or equivalence diagnostic, naming
/// the org, benchmark, and cause.
pub(crate) fn emit_rejection_events(scope: &mut SpanScope<'_>, report: &ReviewReport) {
    for (benchmark, diagnostic) in report.diagnostics() {
        let name = match diagnostic {
            Diagnostic::RuleViolation { .. } => "rules_rejection",
            Diagnostic::Equivalence(_) => "equivalence_rejection",
            _ => continue,
        };
        scope.event_with("review", name, || {
            Map::from([
                arg("org", json!(report.org)),
                arg("benchmark", json!(benchmark.to_string())),
                arg("cause", json!(diagnostic.to_string())),
            ])
        });
    }
}

/// Reviews one bundle against the round's references. This is the one
/// review path: a round in memory, an archive replay and the live
/// service all run it, one bundle per call. Never panics on malformed
/// input — every problem is returned as a [`Diagnostic`], and a panic
/// inside the parser or inside review itself is contained (per log and
/// per bundle respectively) and reported the same way.
pub fn review_bundle(bundle: &SubmissionBundle, references: &[BenchmarkReference]) -> ReviewReport {
    let parsed = parse_logs(bundle, &mut Telemetry::disabled().timeline_scope());
    review_logs(bundle, references, &parsed)
}

/// Parses every log of `bundle` on the caller's span scope, each under
/// an `ingest`-layer `parse_log` span beneath the scope's innermost open
/// span: one list per run set, aligned with its `logs`.
pub(crate) fn parse_logs(
    bundle: &SubmissionBundle,
    scope: &mut SpanScope<'_>,
) -> Vec<Vec<ParsedLog>> {
    let mut parse = |text: &String| scope.record("ingest", "parse_log", || parse_log(text));
    bundle.run_sets.iter().map(|rs| rs.logs.iter().map(&mut parse).collect()).collect()
}

/// The review of `bundle` given its parsed logs, which align with its
/// run sets and their logs as [`parse_logs`] returns them. A panic
/// inside review is contained to the bundle.
pub(crate) fn review_logs(
    bundle: &SubmissionBundle,
    references: &[BenchmarkReference],
    parsed: &[Vec<ParsedLog>],
) -> ReviewReport {
    catch_unwind(AssertUnwindSafe(|| ReviewReport {
        org: bundle.org.clone(),
        division: bundle.division,
        benchmarks: bundle
            .run_sets
            .iter()
            .zip(parsed)
            .map(|(rs, parsed)| review_run_set(rs, bundle.division, references, parsed))
            .collect(),
    }))
    .unwrap_or_else(|payload| panicked_report(bundle, &payload))
}

/// Parses one log's text. This is the only place review and the
/// archive reader parse a log, so a log read off disk is parsed once. A
/// panicking parser is a malformed log, not a lost round.
pub(crate) fn parse_log(text: &str) -> ParsedLog {
    catch_unwind(|| MlLogger::parse(text).map_err(LogError::Malformed))
        .unwrap_or_else(|payload| Err(LogError::ParserPanicked(panic_message(&payload))))
}

/// Best-effort panic payload text.
fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".to_string())
}

/// A report standing in for a bundle whose review panicked.
fn panicked_report(
    bundle: &SubmissionBundle,
    payload: &Box<dyn std::any::Any + Send>,
) -> ReviewReport {
    let msg = panic_message(payload);
    ReviewReport {
        org: bundle.org.clone(),
        division: bundle.division,
        benchmarks: bundle
            .run_sets
            .iter()
            .map(|rs| BenchmarkReview {
                benchmark: rs.benchmark,
                diagnostics: vec![Diagnostic::Panicked(msg.clone())],
                minutes: None,
                runs: rs.logs.len(),
                scenarios: Vec::new(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_core::equivalence::{reference_signature, ModelSignature};
    use mlperf_core::report::SystemDescription;
    use mlperf_core::rules::{Category, SystemType};
    use serde_json::json;
    use std::collections::BTreeMap;

    const DATASET: &str = "ImageNet (synthetic stand-in)";
    const TARGET: f64 = 0.749;

    fn compliant_log(minutes: f64, seed: u64) -> String {
        compliant_log_with_target(minutes, seed, TARGET)
    }

    fn compliant_log_with_target(minutes: f64, seed: u64, target: f64) -> String {
        let mut logger = MlLogger::new();
        logger.log(keys::SUBMISSION_BENCHMARK, json!("resnet"));
        logger.log(keys::SEED, json!(seed));
        logger.log(keys::QUALITY_TARGET, json!(target));
        logger.log(keys::INIT_START, json!(null));
        logger.set_time_ms(500);
        logger.log(keys::INIT_STOP, json!(null));
        logger.log(keys::RUN_START, json!(null));
        logger.set_time_ms(500 + (minutes * 60_000.0) as u64 / 2);
        logger.log(keys::EPOCH_START, json!(0));
        logger.log(keys::EPOCH_STOP, json!(0));
        logger.log(keys::EVAL_ACCURACY, json!(0.751));
        logger.set_time_ms(500 + (minutes * 60_000.0) as u64);
        logger.log(keys::RUN_STOP, json!({"status": "success"}));
        logger.render()
    }

    fn reference() -> BenchmarkReference {
        BenchmarkReference {
            benchmark: BenchmarkId::ImageClassification,
            dataset: DATASET.into(),
            quality_target: TARGET,
            hyperparameters: BTreeMap::from([
                ("batch_size".to_string(), 256.0),
                ("learning_rate".to_string(), 0.1),
                ("momentum".to_string(), 0.9),
            ]),
            signature: reference_signature(BenchmarkId::ImageClassification),
        }
    }

    fn bundle(run_sets: Vec<RunSet>) -> SubmissionBundle {
        SubmissionBundle {
            org: "TestOrg".into(),
            system: SystemDescription {
                submitter: "TestOrg".into(),
                system_name: "test-16".into(),
                accelerators: 16,
                accelerator_model: "T1".into(),
                host_processors: 2,
                software: "stack 1.0".into(),
            },
            division: Division::Closed,
            category: Category::Available,
            system_type: SystemType::OnPremise,
            run_sets,
        }
    }

    fn clean_run_set() -> RunSet {
        let reference = reference();
        let mut hp = reference.hyperparameters.clone();
        hp.insert("batch_size".into(), 4096.0); // modifiable — legal
        RunSet {
            benchmark: BenchmarkId::ImageClassification,
            dataset: DATASET.into(),
            hyperparameters: hp,
            signature: reference.signature.clone(),
            logs: (0..5).map(|r| compliant_log(10.0 + r as f64, r as u64)).collect(),
        }
    }

    #[test]
    fn clean_bundle_scores() {
        let report = review_bundle(&bundle(vec![clean_run_set()]), &[reference()]);
        assert!(report.is_clean(), "diagnostics: {:?}", report.benchmarks[0].diagnostics);
        let minutes = report.benchmarks[0].minutes.unwrap();
        // Olympic mean of 10..=14 minutes drops 10 and 14.
        assert!((minutes - 12.0).abs() < 0.1, "{minutes}");
    }

    #[test]
    fn malformed_log_is_quarantined_not_fatal() {
        let mut rs = clean_run_set();
        rs.logs[2] = ":::MLLOG {not json".into();
        let report = review_bundle(&bundle(vec![rs]), &[reference()]);
        assert!(!report.is_clean());
        assert!(matches!(
            report.benchmarks[0].diagnostics[0],
            Diagnostic::MalformedLog { run: 2, .. }
        ));
    }

    #[test]
    fn missing_run_stop_flagged_via_compliance() {
        let mut rs = clean_run_set();
        rs.logs[0] =
            rs.logs[0].lines().filter(|l| !l.contains("run_stop")).collect::<Vec<_>>().join("\n");
        let report = review_bundle(&bundle(vec![rs]), &[reference()]);
        assert!(report.diagnostics().any(|(_, d)| matches!(
            d,
            Diagnostic::Compliance { run: 0, issue: ComplianceIssue::MissingKey(k) } if *k == keys::RUN_STOP
        )));
    }

    #[test]
    fn restricted_hyperparameter_flagged_in_closed() {
        let mut rs = clean_run_set();
        rs.hyperparameters.insert("momentum".into(), 0.95);
        let report = review_bundle(&bundle(vec![rs.clone()]), &[reference()]);
        assert!(report
            .diagnostics()
            .any(|(_, d)| matches!(d, Diagnostic::RuleViolation { name } if name == "momentum")));

        // The same change is legal in the Open division.
        let mut open = bundle(vec![rs]);
        open.division = Division::Open;
        assert!(review_bundle(&open, &[reference()]).is_clean());
    }

    #[test]
    fn wrong_architecture_flagged_in_closed() {
        let mut rs = clean_run_set();
        rs.signature = ModelSignature::from_shapes(vec![vec![1, 2, 3]]);
        let report = review_bundle(&bundle(vec![rs]), &[reference()]);
        assert!(report.diagnostics().any(|(_, d)| matches!(d, Diagnostic::Equivalence(_))));
    }

    #[test]
    fn open_division_must_keep_dataset_and_quality_target() {
        // An Open bundle with a changed model is fine — but §4.2.2
        // still requires the reference dataset and quality target.
        let mut rs = clean_run_set();
        rs.signature = ModelSignature::from_shapes(vec![vec![9, 9]]); // legal in Open
        rs.dataset = "ImageNet-21k (bigger)".into();
        rs.logs =
            (0..5).map(|r| compliant_log_with_target(10.0 + r as f64, r as u64, 0.70)).collect();
        let mut open = bundle(vec![rs]);
        open.division = Division::Open;
        let report = review_bundle(&open, &[reference()]);
        assert!(report.diagnostics().any(|(_, d)| matches!(d, Diagnostic::DatasetMismatch { .. })));
        assert!(report.diagnostics().any(|(_, d)| matches!(
            d,
            Diagnostic::WrongQualityTarget { run: 0, expected, actual }
                if *expected == TARGET && *actual == 0.70
        )));
        // No Closed-only diagnostics leaked in.
        assert!(!report.diagnostics().any(|(_, d)| matches!(d, Diagnostic::Equivalence(_))));
    }

    #[test]
    fn lowered_quality_target_flagged_in_closed_too() {
        let mut rs = clean_run_set();
        rs.logs[1] = compliant_log_with_target(11.0, 1, 0.60);
        let report = review_bundle(&bundle(vec![rs]), &[reference()]);
        assert!(report
            .diagnostics()
            .any(|(_, d)| matches!(d, Diagnostic::WrongQualityTarget { run: 1, .. })));
    }

    #[test]
    fn short_run_set_fails_aggregation() {
        let mut rs = clean_run_set();
        rs.logs.truncate(3);
        let report = review_bundle(&bundle(vec![rs]), &[reference()]);
        assert!(report.diagnostics().any(|(_, d)| matches!(
            d,
            Diagnostic::Aggregation(AggregateError::NotEnoughRuns { got: 3, required: 5 })
        )));
    }

    #[test]
    fn failed_run_fails_aggregation() {
        let mut rs = clean_run_set();
        rs.logs[4] = rs.logs[4].replace("success", "aborted");
        let report = review_bundle(&bundle(vec![rs]), &[reference()]);
        assert!(report.diagnostics().any(|(_, d)| matches!(
            d,
            Diagnostic::Aggregation(AggregateError::FailedRun { index: 4 })
        )));
    }

    fn scenario_log(scenario: &str, slo_satisfied: bool) -> String {
        let mut logger = MlLogger::new();
        logger.log(keys::SUBMISSION_BENCHMARK, json!("resnet"));
        logger.log(keys::SEED, json!(3));
        logger.log(keys::QUALITY_TARGET, json!(TARGET));
        logger.log(keys::INIT_START, json!(null));
        logger.set_time_ms(5);
        logger.log(keys::RUN_START, json!(null));
        logger.log(keys::LOADGEN_SCENARIO, json!(scenario));
        logger.set_time_ms(2005);
        logger.log(keys::LOADGEN_QUERY_COUNT, json!(256));
        logger.log(keys::LOADGEN_DURATION_MS, json!(2000));
        logger.log(keys::LOADGEN_LATENCY_P50_MS, json!(1.5));
        logger.log(keys::LOADGEN_LATENCY_P90_MS, json!(2.5));
        logger.log(keys::LOADGEN_LATENCY_P99_MS, json!(4.0));
        logger.log(keys::LOADGEN_QPS, json!(128.0));
        logger.log(keys::LOADGEN_SLO_MS, json!(10.0));
        logger.log(keys::LOADGEN_SLO_SATISFIED, json!(slo_satisfied));
        logger.set_time_ms(2006);
        logger.log(keys::RUN_STOP, json!({"status": "success"}));
        logger.render()
    }

    fn loadgen_run_set() -> RunSet {
        let reference = reference();
        RunSet {
            benchmark: BenchmarkId::ImageClassification,
            dataset: DATASET.into(),
            hyperparameters: reference.hyperparameters.clone(),
            signature: reference.signature.clone(),
            logs: ["single_stream", "server", "offline"].map(|s| scenario_log(s, true)).to_vec(),
        }
    }

    #[test]
    fn loadgen_run_set_is_accepted_with_scenario_summaries() {
        let report = review_bundle(&bundle(vec![loadgen_run_set()]), &[reference()]);
        assert!(report.is_clean(), "diagnostics: {:?}", report.benchmarks[0].diagnostics);
        let review = &report.benchmarks[0];
        assert!(review.accepted());
        assert_eq!(review.minutes, None, "a loadgen set has no time-to-train score");
        assert_eq!(review.scenarios.len(), 3);
        assert_eq!(review.scenarios[1].qps, 128.0);
    }

    #[test]
    fn mixed_run_set_scores_and_reports_scenarios() {
        let mut rs = clean_run_set();
        rs.logs.push(scenario_log("server", true));
        let report = review_bundle(&bundle(vec![rs]), &[reference()]);
        assert!(report.is_clean(), "diagnostics: {:?}", report.benchmarks[0].diagnostics);
        let review = &report.benchmarks[0];
        assert!(review.minutes.is_some(), "training runs still aggregate");
        assert_eq!(review.scenarios.len(), 1);
    }

    #[test]
    fn slo_violation_quarantines_a_loadgen_run_set() {
        let mut rs = loadgen_run_set();
        rs.logs[1] = scenario_log("server", false);
        let report = review_bundle(&bundle(vec![rs]), &[reference()]);
        assert!(!report.is_clean());
        assert!(report.diagnostics().any(|(_, d)| matches!(
            d,
            Diagnostic::Compliance { run: 1, issue: ComplianceIssue::SloViolated { .. } }
        )));
    }

    #[test]
    fn rules_and_equivalence_rejections_emit_review_events() {
        let mut rs = clean_run_set();
        rs.hyperparameters.insert("momentum".into(), 0.95);
        rs.signature = ModelSignature::from_shapes(vec![vec![1, 2]]);
        let report = review_bundle(&bundle(vec![rs]), &[reference()]);
        let expected = report
            .diagnostics()
            .filter(|(_, d)| {
                matches!(d, Diagnostic::RuleViolation { .. } | Diagnostic::Equivalence(_))
            })
            .count();
        assert!(expected >= 2, "need both rejection kinds, got {expected}");

        let telemetry = mlperf_telemetry::Telemetry::recording();
        let mut scope = telemetry.timeline_scope();
        emit_rejection_events(&mut scope, &report);
        drop(scope);
        let snapshot = telemetry.snapshot();
        let events: Vec<_> = snapshot.events_in("review").collect();
        assert_eq!(events.len(), expected, "one event per rejection diagnostic");
        assert!(events.iter().any(|e| e.name == "rules_rejection"));
        assert!(events.iter().any(|e| e.name == "equivalence_rejection"));
        for event in events {
            assert_eq!(event.args["org"], json!("TestOrg"));
            assert_eq!(event.args["benchmark"], json!("resnet"));
            assert!(event.args["cause"].as_str().is_some_and(|c| !c.is_empty()));
        }
    }
}
