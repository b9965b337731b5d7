//! Every workload end to end at the tiny test size, untraced and
//! traced, holding the output to the contract `BENCHMARK.json` states.

use mlperf_benchmark::env::Scratch;
use mlperf_benchmark::schema::{self, valid_name, valid_unit};
use mlperf_benchmark::sweep::{sweep, Plan};
use mlperf_benchmark::{compare, run, RunOptions, Size, Workload};
use serde_json::Value;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

fn scratch_parent(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"))
}

/// Runs `workload` once and checks everything that holds in both modes.
fn run_checked(workload: Workload, trace: bool) -> Vec<(String, &'static str, f64)> {
    let tag = format!("{}-{}", workload.name(), u8::from(trace));
    let scratch = Scratch::create(&scratch_parent(&tag), false).expect("scratch directory");
    let root = scratch.path().to_path_buf();
    let options = RunOptions { workload, seed: 7, seconds: 1.0, trace, size: Size::tiny() };
    let report = run(&options, scratch.path());
    drop(scratch);
    assert!(!root.exists(), "{tag}: the scratch directory outlived the run");

    assert!(report.failures.is_empty(), "{tag}: output checks failed: {:?}", report.failures);
    assert!(report.correct() && report.failed == 0 && report.attempted >= 1);

    let declared = if trace { schema::per_layer() } else { schema::end_to_end() };
    let limit = if trace { 128 } else { 16 };
    assert!(report.metrics.len() <= limit);
    assert_eq!(
        report.metrics.iter().map(|(d, _)| d.name.clone()).collect::<Vec<_>>(),
        declared.iter().map(|d| d.name.clone()).collect::<Vec<_>>(),
        "{tag}: the run reports exactly the declared metrics, in order"
    );
    for (def, value) in &report.metrics {
        assert!(
            valid_name(&def.name) && valid_unit(def.unit),
            "{tag}: {} [{}]",
            def.name,
            def.unit
        );
        assert!(value.is_finite(), "{tag}: {} is {value}", def.name);
        if !trace || schema::is_time_unit(def.unit) {
            assert!(*value > 0.0, "{tag}: {} must be measured, read {value}", def.name);
        }
    }

    // The last line the binary would print.
    let line: Value = serde_json::from_str(&report.json_line()).expect("the result line is JSON");
    let keys: BTreeSet<&str> = line.as_object().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, BTreeSet::from(["attempted", "correct", "failed", "metrics"]));
    assert_eq!(line["correct"].as_bool(), Some(true));
    let metrics = line["metrics"].as_object().unwrap();
    assert_eq!(metrics.len(), declared.len());
    for def in &declared {
        let metric = &metrics[&def.name];
        assert_eq!(metric["unit"].as_str(), Some(def.unit), "{tag}: {}", def.name);
        assert!(metric["value"].as_f64().is_some(), "{tag}: {} has no value", def.name);
    }
    report.metrics.into_iter().map(|(d, v)| (d.name, d.unit, v)).collect()
}

/// Untraced: every end-to-end metric. Traced: the whole layer table,
/// whose share rows plus the unattributed row make up the whole job.
fn workload_holds_its_contract(workload: Workload, own_shares: &[&str]) {
    run_checked(workload, false);
    let layer = run_checked(workload, true);
    let value = |name: &str| layer.iter().find(|(n, _, _)| n == name).map(|(_, _, v)| *v).unwrap();

    let shares: Vec<_> = layer.iter().filter(|(n, _, _)| n.starts_with("share.")).collect();
    let total: f64 =
        shares.iter().map(|(_, _, v)| v).sum::<f64>() + value("trace.unattributed_pct");
    assert!((total - 100.0).abs() < 1e-6, "{}: layer rows sum to {total}%", workload.name());
    for (name, _, share) in &shares {
        let own = own_shares.contains(&name.as_str());
        assert_eq!(*share > 0.0, own, "{}: {name} reads {share}", workload.name());
    }
    assert!(value("trace.job_ms") > 0.0 && value("trace.untraced_job_ms") > 0.0);
    assert!(value("trace.spans") > 0.0);
}

#[test]
fn train_seq_holds_its_contract() {
    workload_holds_its_contract(
        Workload::TrainSeq,
        &["share.harness.train_epoch", "share.harness.evaluate"],
    );
}

#[test]
fn train_conv_holds_its_contract() {
    workload_holds_its_contract(
        Workload::TrainConv,
        &["share.harness.train_epoch", "share.harness.evaluate"],
    );
}

#[test]
fn round_reingest_holds_its_contract() {
    workload_holds_its_contract(
        Workload::RoundReingest,
        &[
            "share.store.stream_review",
            "share.store.read_round",
            "share.round.run_round",
            "share.store.write_outcome",
            "share.leaderboard.build",
            "share.report.render",
            "share.tables.render",
        ],
    );
}

#[test]
fn service_live_holds_its_contract() {
    workload_holds_its_contract(
        Workload::ServiceLive,
        &[
            "share.wire.deserialize",
            "share.review.bundle",
            "share.store.write_bundle",
            "share.round.push_reviewed",
            "share.service.http",
        ],
    );
}

/// The command line, as the driver calls it: the result is the last
/// line, the exit code is zero, and nothing is left in the scratch
/// parent.
#[test]
fn the_binary_prints_its_result_last_and_cleans_up() {
    let parent = scratch_parent("binary");
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--workload", "train_seq", "--seed", "11", "--seconds", "1", "--trace", "0"])
        .args(["--size", "tiny", "--scratch-dir"])
        .arg(&parent)
        .output()
        .expect("the bench binary runs");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8(output.stdout).unwrap();
    let last: Value = serde_json::from_str(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(last["failed"].as_u64(), Some(0));
    for def in schema::end_to_end() {
        assert!(stdout.contains(&def.name), "{} is not printed by name", def.name);
        assert!(last["metrics"][def.name.as_str()]["value"].as_f64().unwrap() > 0.0);
    }
    assert!(!parent.exists(), "the scratch parent outlived the run");

    let refused = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the bench binary runs");
    assert_eq!(refused.status.code(), Some(2));
    assert!(refused.stdout.is_empty(), "a refused run prints no result");
}

/// A sweep at test size appends a run set `compare` can read: held
/// against itself, every (end-to-end metric, workload) pair is there
/// and within its bound, and every exact count repeats.
#[test]
fn a_swept_set_compares_equal_to_itself() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-sweep.json");
    let _ = std::fs::remove_file(&out);
    let plan = Plan { seeds: 2, traced: 2, seconds: 1, size: "tiny" };
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_bench"));
    sweep(&plan, &exe, "first", &out).expect("the sweep runs");
    sweep(&Plan { seeds: 1, traced: 0, ..plan }, &exe, "second", &out).expect("a set is appended");

    let spec = out.to_str().unwrap();
    let set = compare::load_set(spec).expect("set 0 loads");
    assert_eq!(set["label"].as_str(), Some("first"));
    assert_eq!(set["runs"].as_array().unwrap().len(), 4 * (2 + 2));
    assert!(set["runs"].as_array().unwrap().iter().all(|r| r["exit_code"].as_u64() == Some(0)));
    assert_eq!(compare::load_set(&format!("{spec}#1")).unwrap()["label"].as_str(), Some("second"));
    assert!(compare::load_set(&format!("{spec}#2")).is_err());

    assert!(compare::incomparable(&set, &set).is_empty());
    let rows = compare::compare_sets(&set, &set);
    assert_eq!(rows.len(), 4 * schema::end_to_end().len());
    assert!(rows.iter().all(|r| r.worse_by == 0.0 && r.verdict != "regressed"), "{rows:?}");
    assert_eq!(compare::inexact_counts(&set, &set), Vec::<String>::new());
    std::fs::remove_file(&out).unwrap();
}
