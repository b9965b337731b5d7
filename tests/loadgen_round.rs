//! Integration test over the loadgen subsystem: scenario sweeps for
//! the v0.7 NCF and BERT miniatures on a simulated clock, packaged as
//! a Closed submission bundle, round-tripped through the existing
//! `run_round` review pipeline clean, and ranked on the scenario
//! leaderboards — plus a real-clock smoke of a trained model serving
//! queries.

use mlperf_suite::core::benchmarks::build;
use mlperf_suite::core::compliance::check_log;
use mlperf_suite::core::mllog::MlLogger;
use mlperf_suite::core::rules::{Division, Scenario};
use mlperf_suite::core::suite::BenchmarkId;
use mlperf_suite::core::timing::{RealClock, SimClock};
use mlperf_suite::distsim::Round;
use mlperf_suite::loadgen::{
    loadgen_bundle, loadgen_reference, loadgen_run_set, simulated_scenario_sweep, LoadGenDriver,
    ScenarioConfig, SleepPacer, TrainedModel,
};
use mlperf_suite::submission::{run_round, scenario_leaderboards, RoundSubmissions};
use mlperf_suite::telemetry::Telemetry;

#[test]
fn loadgen_bundle_round_trips_through_review_clean() {
    let benchmarks = [BenchmarkId::Recommendation, BenchmarkId::LanguageModeling];
    let telemetry = Telemetry::disabled();

    let mut references = Vec::new();
    let mut run_sets = Vec::new();
    for benchmark in benchmarks {
        let results = simulated_scenario_sweep(benchmark, 23, &telemetry);
        assert_eq!(results.len(), 3, "{benchmark}: one result per scenario");

        // Determinism: same seed, bit-identical results (rendered logs
        // included); a different seed diverges.
        assert_eq!(results, simulated_scenario_sweep(benchmark, 23, &telemetry), "{benchmark}");
        assert_ne!(results, simulated_scenario_sweep(benchmark, 24, &telemetry), "{benchmark}");

        // Every scenario log is compliant mllog on its own.
        for result in &results {
            let entries = MlLogger::parse(&result.log).expect("scenario logs parse");
            assert!(check_log(&entries).is_empty(), "{benchmark}: {:?}", check_log(&entries));
        }

        let reference = loadgen_reference(benchmark);
        run_sets.push(loadgen_run_set(&reference, &results));
        references.push(reference);
    }

    let system = mlperf_suite::core::report::SystemDescription {
        submitter: "ServeOrg".into(),
        system_name: "ServeOrg-sim".into(),
        accelerators: 1,
        accelerator_model: "SimChip".into(),
        host_processors: 1,
        software: "mlperf-loadgen".into(),
    };
    let bundle = loadgen_bundle("ServeOrg", system, run_sets);
    let subs = RoundSubmissions { round: Round::V07, references, bundles: vec![bundle] };

    let outcome = run_round(&subs);
    assert!(outcome.quarantined.is_empty(), "{:?}", outcome.quarantined);
    assert!(outcome.accepted.is_empty(), "loadgen sets carry no time-to-train score");
    assert_eq!(outcome.scenarios.len(), 6, "three scenarios per benchmark");

    // Server scenarios report full percentiles and a sustained QPS for
    // both benchmarks, with the SLO met.
    for benchmark in benchmarks {
        let server: Vec<_> =
            outcome.scenarios_for(benchmark, Division::Closed, Scenario::Server).collect();
        assert_eq!(server.len(), 1, "{benchmark}");
        let summary = server[0].summary;
        assert!(summary.p50_ms <= summary.p90_ms && summary.p90_ms <= summary.p99_ms);
        assert!(summary.qps > 0.0, "{benchmark}: sustained QPS is positive");
        assert_eq!(summary.slo_satisfied, Some(true), "{benchmark}: SLO met at the found rate");
    }

    // The scenario leaderboards rank every accepted measurement.
    let boards = scenario_leaderboards(&outcome);
    assert_eq!(boards.len(), 6);
    let total: usize = boards.iter().map(|b| b.entries.len()).sum();
    assert_eq!(total, outcome.scenarios.len());
    for board in &boards {
        assert_eq!(board.rows()[0].rank, 1);
    }
}

#[test]
fn trained_model_serves_single_stream_on_the_real_clock() {
    // Converge the NCF miniature on a simulated training clock, then
    // serve it back-to-back on the wall clock: the same model object
    // crosses from the time-to-train harness into the loadgen driver.
    let (mut model, run) =
        TrainedModel::converge(build(BenchmarkId::Recommendation), 7, &SimClock::new());
    assert!(run.reached_target, "the model must converge before serving");

    let clock = RealClock::new();
    let pacer = SleepPacer;
    let telemetry = Telemetry::disabled();
    let driver = LoadGenDriver::new(&clock, &pacer, &telemetry);
    let config = ScenarioConfig::for_benchmark(BenchmarkId::Recommendation, 7).with_slo_ms(1e9);
    let result = driver.run(&mut model, Scenario::SingleStream, &config);
    assert_eq!(result.benchmark, BenchmarkId::Recommendation);
    assert!(result.queries >= 64, "scenario minimum query count");
    assert!(result.p50_ms >= 0.0 && result.p99_ms >= result.p50_ms);
    let entries = MlLogger::parse(&result.log).expect("real-clock log parses");
    assert!(check_log(&entries).is_empty(), "{:?}", check_log(&entries));
}
