//! A complete submission workflow, as a submitter would run it:
//!
//! 1. run the required number of timed runs (§3.2.2) for two
//!    benchmarks;
//! 2. aggregate each run set (drop fastest/slowest, mean the rest);
//! 3. validate the hyperparameters against the Closed-division rules
//!    and demonstrate review-period borrowing (§4.1);
//! 4. check every run log for compliance;
//! 5. render the results-table entry (no summary score — §4.2.4);
//! 6. switch sides and run the organization's round pipeline over a
//!    synthetic multi-vendor round: persist it to a disk archive of
//!    `:::MLLOG` files, re-ingest it, quarantine the corrupted bundle,
//!    and publish the leaderboards — all from the archived logs.
//!
//! ```sh
//! cargo run --release --example submission_workflow
//! ```

use mlperf_suite::core::aggregate::{aggregate_runs, RunSummary};
use mlperf_suite::core::benchmarks::build;
use mlperf_suite::core::compliance::check_log;
use mlperf_suite::core::harness::run_benchmark;
use mlperf_suite::core::report::{
    render_results_table, BenchmarkScore, Submission, SystemDescription,
};
use mlperf_suite::core::rules::{
    borrow_hyperparameters, Category, Division, HyperparameterRules, SystemType,
};
use mlperf_suite::core::suite::BenchmarkId;
use mlperf_suite::core::timing::RealClock;
use mlperf_suite::distsim::Round;
use mlperf_suite::submission::{
    render_boards, run_round, synthetic_round, Fault, RoundArchive, SyntheticRoundSpec,
};
use std::collections::BTreeMap;

fn timed_runs(id: BenchmarkId) -> Vec<RunSummary> {
    let runs = id.runs_required();
    println!("  {id}: running {runs} timed runs…");
    (0..runs as u64)
        .map(|seed| {
            let mut bench = build(id);
            let clock = RealClock::new();
            let result = run_benchmark(bench.as_mut(), seed, &clock);
            let issues = check_log(result.log.entries());
            assert!(issues.is_empty(), "non-compliant log: {issues:?}");
            RunSummary {
                seconds: result.time_to_train.as_secs_f64(),
                reached_target: result.reached_target,
            }
        })
        .collect()
}

fn main() {
    println!("== 1-2. timed runs + aggregation ==");
    let ncf_runs = timed_runs(BenchmarkId::Recommendation);
    let ncf_score =
        aggregate_runs(BenchmarkId::Recommendation, &ncf_runs).expect("NCF run set aggregates");
    let mask_runs = timed_runs(BenchmarkId::InstanceSegmentation);
    let mask_score = aggregate_runs(BenchmarkId::InstanceSegmentation, &mask_runs)
        .expect("Mask R-CNN run set aggregates");
    println!("  aggregated NCF score:        {ncf_score:.3}s");
    println!("  aggregated Mask R-CNN score: {mask_score:.3}s");

    println!("\n== 3. hyperparameter rules ==");
    let rules = HyperparameterRules::closed_division(BenchmarkId::Recommendation);
    let reference: BTreeMap<String, f64> = [
        ("learning_rate".to_string(), 0.01),
        ("batch_size".to_string(), 64.0),
        ("negative_samples".to_string(), 2.0),
        ("adam_beta1".to_string(), 0.9),
    ]
    .into();
    let mut ours = reference.clone();
    ours.insert("learning_rate".into(), 0.02); // allowed
    let violations = rules.violations(&reference, &ours);
    println!("  our deltas violate the Closed rules: {violations:?} (empty = compliant)");
    // A rival published a better learning rate during review; borrow it.
    let mut rival = reference.clone();
    rival.insert("learning_rate".into(), 0.03);
    let adopted = borrow_hyperparameters(&rules, &rival, &mut ours);
    println!("  borrowed from rival submission: {adopted:?} -> lr now {}", ours["learning_rate"]);

    println!("\n== 4-5. results table ==");
    let submission = Submission {
        system: SystemDescription {
            submitter: "Example Labs".into(),
            system_name: "example-node-1".into(),
            accelerators: 0,
            accelerator_model: "CPU (reproduction)".into(),
            host_processors: 1,
            software: "mlperf-suite 0.1 (pure Rust)".into(),
        },
        division: Division::Closed,
        category: Category::Research,
        system_type: SystemType::OnPremise,
        scores: vec![
            BenchmarkScore {
                benchmark: BenchmarkId::Recommendation,
                minutes: ncf_score / 60.0,
                runs: ncf_runs.len(),
            },
            BenchmarkScore {
                benchmark: BenchmarkId::InstanceSegmentation,
                minutes: mask_score / 60.0,
                runs: mask_runs.len(),
            },
        ],
    };
    print!("{}", render_results_table(&[submission]));

    println!("\n== 6. the organization's side: a full round, via the archive ==");
    let spec = SyntheticRoundSpec::new(Round::V05, 5)
        .with_fault(Fault::GarbageLine { org: "Borealis".into() });
    let archive_dir =
        std::env::temp_dir().join(format!("mlperf-workflow-archive-{}", std::process::id()));
    let archive = RoundArchive::create(&archive_dir).expect("create round archive");
    archive.write_round(&synthetic_round(&spec)).expect("persist the round");
    let ingest = archive.read_round(Round::V05).expect("re-ingest the round");
    println!("  archived round v0.5 under {}", archive.root().display());
    // The injected garbage line is malformed *on disk* too, so the
    // store flags the damaged file by path — and still hands the
    // bundle to review, which quarantines it below.
    assert!(!ingest.faults.is_empty(), "the corrupted log should be flagged");
    for fault in &ingest.faults {
        println!("  storage fault: {fault}");
    }
    let outcome = run_round(&ingest.submissions);
    println!(
        "  re-ingested {} bundles: {} run sets accepted, {} bundle(s) quarantined",
        outcome.reports.len(),
        outcome.accepted.len(),
        outcome.quarantined.len()
    );
    for report in &outcome.quarantined {
        for (benchmark, diagnostic) in report.diagnostics() {
            println!("  quarantined {} [{benchmark}]: {diagnostic}", report.org);
        }
    }
    print!("\n{}", render_boards(&outcome));
    let _ = std::fs::remove_dir_all(&archive_dir);
}
