//! End-to-end integration: benchmarks through the harness, logs through
//! the compliance checker, run sets through the aggregation rules.

use mlperf_suite::core::aggregate::{aggregate_runs, AggregateError, RunSummary};
use mlperf_suite::core::benchmarks::build;
use mlperf_suite::core::compliance::check_log;
use mlperf_suite::core::harness::run_benchmark;
use mlperf_suite::core::mllog::{keys, MlLogger};
use mlperf_suite::core::suite::BenchmarkId;
use mlperf_suite::core::timing::RealClock;

/// A full submission-shaped run set for the fastest benchmark: the
/// required 10 runs, all compliant, all aggregating to a score.
#[test]
fn ncf_full_run_set_aggregates() {
    let id = BenchmarkId::Recommendation;
    let mut summaries = Vec::new();
    for seed in 0..id.runs_required() as u64 {
        let mut bench = build(BenchmarkId::Recommendation);
        let clock = RealClock::new();
        let result = run_benchmark(bench.as_mut(), seed, &clock);
        assert!(result.reached_target, "seed {seed} failed to converge");
        assert!(
            check_log(result.log.entries()).is_empty(),
            "seed {seed} produced a non-compliant log"
        );
        summaries
            .push(RunSummary { seconds: result.time_to_train.as_secs_f64(), reached_target: true });
    }
    let score = aggregate_runs(id, &summaries).expect("run set aggregates");
    assert!(score > 0.0);
    // The aggregate lies within the run-set range.
    let min = summaries.iter().map(|r| r.seconds).fold(f64::MAX, f64::min);
    let max = summaries.iter().map(|r| r.seconds).fold(f64::MIN, f64::max);
    assert!(score >= min && score <= max);
}

/// Short run sets are rejected with the benchmark-specific requirement.
#[test]
fn insufficient_runs_rejected_per_benchmark_kind() {
    let run = RunSummary { seconds: 1.0, reached_target: true };
    let five = vec![run; 5];
    // 5 runs satisfy a vision benchmark but not NCF.
    assert!(aggregate_runs(BenchmarkId::ObjectDetection, &five).is_ok());
    assert_eq!(
        aggregate_runs(BenchmarkId::Recommendation, &five),
        Err(AggregateError::NotEnoughRuns { got: 5, required: 10 })
    );
}

/// Every benchmark's log round-trips through the `:::MLLOG` text format
/// and stays compliant after parsing.
#[test]
fn logs_roundtrip_through_text_format() {
    // Use the two fastest benchmarks to keep the test quick.
    for id in [BenchmarkId::Recommendation, BenchmarkId::InstanceSegmentation] {
        let mut bench = build(id);
        let clock = RealClock::new();
        let result = run_benchmark(bench.as_mut(), 3, &clock);
        let text = result.log.render();
        let parsed = MlLogger::parse(&text).expect("rendered log parses");
        assert_eq!(parsed, result.log.entries());
        assert!(check_log(&parsed).is_empty());
        // The benchmark name recorded in the log matches the id.
        let header = parsed
            .iter()
            .find(|e| e.key == keys::SUBMISSION_BENCHMARK)
            .expect("benchmark header present");
        assert_eq!(header.value, serde_json::json!(id.slug()));
    }
}

/// Hyperparameter choices appear in the submission log (§4.1).
#[test]
fn hyperparameters_are_logged() {
    let mut bench = build(BenchmarkId::Recommendation);
    let clock = RealClock::new();
    let result = run_benchmark(bench.as_mut(), 2, &clock);
    let hparams: Vec<&mlperf_suite::core::mllog::LogEntry> =
        result.log.entries().iter().filter(|e| e.key == keys::HYPERPARAMETER).collect();
    assert!(hparams.len() >= 3, "expected hyperparameter records");
    assert!(hparams.iter().any(|e| e.value["name"] == serde_json::json!("batch_size")));
}

/// Identical seeds reproduce identical quality trajectories; different
/// seeds differ (§2.2.3 — seeds are the only source of run variance).
#[test]
fn seed_controls_all_stochasticity() {
    let run = |seed: u64| {
        let mut bench = build(BenchmarkId::Recommendation);
        let clock = RealClock::new();
        run_benchmark(bench.as_mut(), seed, &clock)
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.quality_history, b.quality_history, "same seed must replay exactly");
    assert_eq!(a.epochs, b.epochs);
    let c = run(8);
    assert_ne!(
        a.quality_history, c.quality_history,
        "different seeds should explore different trajectories"
    );
}

/// The excluded (untimed) portion never counts toward time-to-train.
#[test]
fn preparation_time_is_excluded() {
    let mut bench = build(BenchmarkId::Recommendation);
    let clock = RealClock::new();
    let result = run_benchmark(bench.as_mut(), 1, &clock);
    // Both parts are positive, and TTT is strictly the timed region.
    assert!(result.time_to_train.as_nanos() > 0);
    // Exclusions exist (dataset generation happened).
    assert!(result.excluded.as_nanos() > 0);
}
