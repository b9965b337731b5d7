//! Criterion benchmarks for the archive-ingest hot path (ROADMAP names
//! the `:::MLLOG` parser as dominating review time): `parse_mllog_line`
//! in isolation, whole-log parsing, reading a round back off disk, and
//! `run_round`'s parallel review over a full synthetic round — both
//! straight from memory and re-ingested from a written archive.
//! Baseline numbers live in `BENCH.md` at the repository root.

use criterion::{criterion_group, criterion_main, Criterion};
use mlperf_core::mllog::{parse_mllog_line, parse_mllog_line_serde, MlLogger};
use mlperf_distsim::Round;
use mlperf_submission::{
    run_round, run_round_with, synthetic_round, RoundArchive, SyntheticRoundSpec,
};
use mlperf_telemetry::Telemetry;
use std::hint::black_box;

/// One synthetic round at the default fleet size: 6 bundles, ~200 log
/// files — the unit of work `ingest` and `report` process per round.
fn round() -> mlperf_submission::RoundSubmissions {
    synthetic_round(&SyntheticRoundSpec::new(Round::V05, 97))
}

fn bench_parse_mllog_line(c: &mut Criterion) {
    let subs = round();
    let log = &subs.bundles[0].run_sets[0].logs[0];
    // A mid-log line with a structured value: the common case.
    let line = log.lines().nth(log.lines().count() / 2).expect("log has lines").to_string();
    let mut group = c.benchmark_group("mllog");
    group.bench_function("parse_line", |b| {
        b.iter(|| parse_mllog_line(black_box(&line)).expect("line parses"))
    });
    // The pure-serde reference path the zero-copy scanner is measured
    // against (and falls back to on non-canonical lines).
    group.bench_function("parse_line_serde", |b| {
        b.iter(|| parse_mllog_line_serde(black_box(&line)).expect("line parses"))
    });
    group.bench_function("parse_log", |b| {
        b.iter(|| MlLogger::parse(black_box(log)).expect("log parses"))
    });
    group.finish();
}

fn bench_run_round(c: &mut Criterion) {
    let subs = round();
    let logs: usize = subs.bundles.iter().flat_map(|b| &b.run_sets).map(|rs| rs.logs.len()).sum();
    let mut group = c.benchmark_group("ingest");
    group.sample_size(10);
    group.bench_function(format!("run_round_{}_bundles_{logs}_logs", subs.bundles.len()), |b| {
        b.iter(|| run_round(black_box(&subs)))
    });
    // The same workload with telemetry recording: the gap between this
    // and the line above is the full cost of span + metric capture
    // (per-log spans included); BENCH.md tracks both.
    group.bench_function("run_round_traced", |b| {
        b.iter(|| {
            let telemetry = Telemetry::recording();
            run_round_with(black_box(&subs), &telemetry)
        })
    });
    group.finish();
}

fn bench_archive_ingest(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("mlperf-bench-archive-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let archive = RoundArchive::create(&dir).expect("create archive");
    archive.write_round(&round()).expect("write round");

    let mut group = c.benchmark_group("archive");
    group.sample_size(10);
    group.bench_function("read_round", |b| {
        b.iter(|| {
            let ingest = archive.read_round(black_box(Round::V05)).expect("read round");
            assert!(ingest.faults.is_empty());
            ingest
        })
    });
    // Disk to outcome: the one ingest path, a read-ahead window of
    // bundles reviewed per pool fan-out.
    group.bench_function("replay", |b| {
        b.iter(|| {
            let replay = archive.replay().expect("replay archive");
            assert!(replay.faults.is_empty());
            replay
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_parse_mllog_line, bench_run_round, bench_archive_ingest);
criterion_main!(benches);
