//! Integration test over the whole submission subsystem: a synthetic
//! three-vendor round where one bundle is non-compliant (its first log
//! lost `run_stop`), one vendor legally borrows a rival's published
//! hyperparameters during review (§4.1), and the leaderboard ranks the
//! surviving entries correctly.

use mlperf_suite::core::aggregate::ScenarioSummary;
use mlperf_suite::core::compliance::ComplianceIssue;
use mlperf_suite::core::mllog::keys;
use mlperf_suite::core::rules::{borrow_hyperparameters, Division, HyperparameterRules, Scenario};
use mlperf_suite::core::suite::BenchmarkId;
use mlperf_suite::distsim::Round;
use mlperf_suite::submission::{
    leaderboards, render_boards, run_round, synthetic_round, AcceptedEntry, Diagnostic, Fault,
    RoundHistory, RoundOutcome, ScenarioEntry, SyntheticRoundSpec,
};

#[test]
fn three_vendor_round_quarantines_and_ranks() {
    let spec = SyntheticRoundSpec::new(Round::V05, 5)
        .with_fault(Fault::MissingRunStop { org: "Borealis".into() });
    let mut subs = synthetic_round(&spec);
    assert_eq!(
        subs.bundles.iter().filter(|b| b.system.accelerators == 16).count(),
        3,
        "three vendors enter at the 16-chip comparison point"
    );

    // Aurora legally borrows Cumulus's published ResNet hyperparameters
    // during the review period.
    let donor = subs
        .bundles
        .iter()
        .find(|b| b.org == "Cumulus")
        .and_then(|b| b.run_sets.iter().find(|rs| rs.benchmark == BenchmarkId::ImageClassification))
        .map(|rs| rs.hyperparameters.clone())
        .expect("Cumulus entered ResNet");
    let rules = HyperparameterRules::closed_division(BenchmarkId::ImageClassification);
    let recipient = subs
        .bundles
        .iter_mut()
        .find(|b| b.org == "Aurora")
        .and_then(|b| {
            b.run_sets.iter_mut().find(|rs| rs.benchmark == BenchmarkId::ImageClassification)
        })
        .expect("Aurora entered ResNet");
    let adopted = borrow_hyperparameters(&rules, &donor, &mut recipient.hyperparameters);
    assert!(!adopted.is_empty(), "borrowing should adopt at least one parameter");

    let outcome = run_round(&subs);

    // The non-compliant bundle is quarantined with a diagnostic naming
    // the missing key — and the round completed anyway.
    assert_eq!(outcome.quarantined.len(), 1);
    let report = &outcome.quarantined[0];
    assert_eq!(report.org, "Borealis");
    assert!(
        report.diagnostics().any(|(_, d)| matches!(
            d,
            Diagnostic::Compliance { run: 0, issue: ComplianceIssue::MissingKey(k) }
                if *k == keys::RUN_STOP
        )),
        "expected a missing run_stop diagnostic, got {:?}",
        report.benchmarks
    );

    // Aurora's borrowed hyperparameters pass Closed-division review.
    assert!(outcome
        .accepted
        .iter()
        .any(|e| e.org == "Aurora" && e.benchmark == BenchmarkId::ImageClassification));

    // Leaderboards rank every surviving entry fastest-first.
    let boards = leaderboards(&outcome);
    assert!(!boards.is_empty());
    for board in &boards {
        assert_eq!(board.division, Division::Closed);
        assert!(!board.entries.is_empty());
        for pair in board.entries.windows(2) {
            assert!(pair[0].minutes <= pair[1].minutes, "leaderboard out of order");
        }
        let rows = board.rows();
        assert!(rows.iter().enumerate().all(|(i, r)| r.rank == i + 1));
    }

    // The faulted ResNet run set itself never scores, but the same
    // vendor's clean at-scale bundle still does.
    let resnet = boards
        .iter()
        .find(|b| b.benchmark == BenchmarkId::ImageClassification)
        .expect("ResNet leaderboard exists");
    assert!(!resnet.entries.iter().any(|e| e.org == "Borealis" && e.chips == 16));
    assert!(resnet.entries.iter().any(|e| e.org == "Borealis" && e.chips != 16));
}

/// The published board text of hand-made entries: the training board
/// first, ranked fastest first with equal times in feed order, then the
/// scenario board, ranked by sustained QPS; each is one titled table
/// followed by a blank line.
#[test]
fn published_boards_keep_feed_order_on_ties_and_list_scenarios_last() {
    let entry = |org: &str, minutes: f64| AcceptedEntry {
        org: org.to_string(),
        system: "sys".to_string(),
        chips: 8,
        division: Division::Closed,
        benchmark: BenchmarkId::Recommendation,
        minutes,
        runs: 10,
    };
    let served = |org: &str, qps: f64| ScenarioEntry {
        org: org.to_string(),
        system: "serving".to_string(),
        chips: 4,
        division: Division::Closed,
        benchmark: BenchmarkId::Recommendation,
        summary: ScenarioSummary {
            scenario: Scenario::Server,
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
        accepted: vec![entry("First", 2.0), entry("Second", 2.0), entry("Faster", 1.0)],
        scenarios: vec![served("Slower", 80.0), served("Quicker", 160.0)],
        quarantined: Vec::new(),
        reports: Vec::new(),
    };
    let text = render_boards(&outcome);
    let blocks: Vec<&str> = text.split_terminator("\n\n").collect();
    assert_eq!(blocks.len(), 2, "{text}");
    // Rows follow the title and the column header; the org is column 2.
    let orgs = |block: &str| -> Vec<String> {
        block.lines().skip(2).map(|row| row.split_whitespace().nth(1).unwrap().into()).collect()
    };
    assert_eq!(orgs(blocks[0]), ["Faster", "First", "Second"]);
    assert_eq!(orgs(blocks[1]), ["Quicker", "Slower"]);
    assert!(blocks[1].lines().next().unwrap().contains(" server ("), "{}", blocks[1]);
}

#[test]
fn three_round_history_renders_the_papers_figures() {
    // v0.5 through v0.7, reviewed in memory and stacked into a history:
    // the Figure 4 speedup table carries one column per round and shows
    // the suite getting faster at the fixed 16-chip comparison point,
    // while Figure 5 shows the fastest systems growing.
    let history = RoundHistory::from_outcomes(
        Round::ALL
            .iter()
            .map(|&round| run_round(&synthetic_round(&SyntheticRoundSpec::new(round, 31))))
            .collect(),
    );
    assert_eq!(history.rounds(), vec![Round::V05, Round::V06, Round::V07]);

    let speedup = history.speedup_table(16);
    assert_eq!(
        speedup.rows.len(),
        8,
        "five all-round benchmarks plus the three v0.7 additions as suffix rows"
    );
    assert!(speedup.average_ratio().unwrap() > 1.0);
    let rendered = speedup.render();
    for label in ["v0.5 minutes", "v0.6 minutes", "v0.7 minutes", "speedup"] {
        assert!(rendered.contains(label), "missing `{label}` in:\n{rendered}");
    }
    for name in ["bert", "dlrm", "rnnt"] {
        assert!(rendered.contains(name), "v0.7 addition `{name}` missing in:\n{rendered}");
    }

    let scale = history.scale_table();
    assert_eq!(scale.rows.len(), 8);
    assert!(scale.average_ratio().unwrap() > 1.0, "fastest systems should grow across rounds");
}
