//! Integration tests for the disk-backed round archive: the
//! write/ingest round-trip property, the multi-round history rebuilt
//! from the archive alone, and fault tolerance against damaged trees —
//! every fault is a quarantine diagnostic naming the offending path,
//! never a panic.

use mlperf_suite::distsim::Round;
use mlperf_suite::submission::{
    leaderboards, review_bundle, run_round, synthetic_round, synthetic_stress_round, FaultReason,
    LeaderboardAccumulator, RoundArchive, StoreError, StreamingReview, SubmissionBundle,
    SyntheticRoundSpec, MANIFEST_SCHEMA,
};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn temp_archive(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlperf-archive-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The acceptance property: a synthetic round written to disk and
/// re-ingested produces an identical `RoundOutcome`.
#[test]
fn archived_round_replays_to_an_identical_outcome() {
    let dir = temp_archive("roundtrip");
    let archive = RoundArchive::create(&dir).unwrap();
    for seed in [3u64, 17] {
        let subs = synthetic_round(&SyntheticRoundSpec::new(Round::V06, seed));
        archive.write_round(&subs).unwrap();
        let ingest = archive.read_round(Round::V06).unwrap();
        assert!(ingest.faults.is_empty(), "{:?}", ingest.faults);
        assert_eq!(ingest.submissions, subs, "seed {seed}: submissions round-trip");
        assert_eq!(
            run_round(&ingest.submissions),
            run_round(&subs),
            "seed {seed}: outcome round-trip"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// The acceptance scenario: three archived rounds rebuild a
/// `RoundHistory` that renders the Figure 4/5 tables from disk alone.
#[test]
fn history_renders_figures_from_the_archive_alone() {
    let dir = temp_archive("history");
    {
        let archive = RoundArchive::create(&dir).unwrap();
        for round in Round::ALL {
            archive.write_round(&synthetic_round(&SyntheticRoundSpec::new(round, 41))).unwrap();
        }
    }
    // A fresh handle with no in-memory state: everything comes from disk.
    let archive = RoundArchive::open(&dir).unwrap();
    assert_eq!(archive.rounds().unwrap(), vec![Round::V05, Round::V06, Round::V07]);
    let replay = archive.replay().unwrap();
    assert!(replay.faults.is_empty(), "{:?}", replay.faults);

    // Five workloads span every round; BERT, DLRM and RNN-T join in
    // v0.7 and appear as suffix rows with blank earlier cells.
    let speedup = replay.history.speedup_table(16);
    assert_eq!(speedup.rows.len(), 8);
    assert!(speedup.average_ratio().unwrap() > 1.0);
    let rendered = speedup.render();
    assert!(rendered.contains("v0.5 minutes") && rendered.contains("v0.7 minutes"), "{rendered}");
    for name in ["bert", "dlrm", "rnnt"] {
        assert!(rendered.contains(name), "{name} missing from Figure 4 table:\n{rendered}");
    }

    let scale = replay.history.scale_table();
    assert_eq!(scale.rows.len(), 8);
    assert!(scale.average_ratio().unwrap() > 1.0);
    fs::remove_dir_all(&dir).unwrap();
}

fn seeded_archive(tag: &str) -> (PathBuf, RoundArchive) {
    let dir = temp_archive(tag);
    let archive = RoundArchive::create(&dir).unwrap();
    archive.write_round(&synthetic_round(&SyntheticRoundSpec::new(Round::V05, 7))).unwrap();
    (dir, archive)
}

/// A log file truncated mid-line is flagged with its path — classified
/// as the crashed-writer case, distinct from ordinary corruption — the
/// bundle still loads, and review quarantines the damaged run set
/// while the round completes.
#[test]
fn truncated_log_is_quarantined_with_its_path() {
    let (dir, archive) = seeded_archive("truncated");
    let log = dir.join("v0.5/aurora/a900x16/resnet/run_0.log");
    let text = fs::read_to_string(&log).unwrap();
    // Cut the file a few bytes short: the final line ends mid-JSON.
    fs::write(&log, &text[..text.len() - 7]).unwrap();

    let ingest = archive.read_round(Round::V05).unwrap();
    assert_eq!(ingest.faults.len(), 1, "{:?}", ingest.faults);
    let fault = &ingest.faults[0];
    assert_eq!(fault.path, log, "fault names the damaged file");
    assert!(matches!(fault.reason, FaultReason::TruncatedLog(_)), "{fault}");

    // The damaged run set is still handed to review, which quarantines
    // it; the rest of the round scores normally.
    let outcome = run_round(&ingest.submissions);
    assert!(outcome.quarantined.iter().any(|r| r.org == "Aurora"));
    assert!(outcome.accepted.iter().any(|e| e.org == "Cumulus"));
    fs::remove_dir_all(&dir).unwrap();
}

/// A bundle directory without `bundle.json` becomes a fault naming the
/// directory; the other bundles still load.
#[test]
fn missing_manifest_is_quarantined_with_its_path() {
    let (dir, archive) = seeded_archive("manifest");
    let bundle_dir = dir.join("v0.5/borealis/b12x16");
    fs::remove_file(bundle_dir.join("bundle.json")).unwrap();

    let ingest = archive.read_round(Round::V05).unwrap();
    assert_eq!(ingest.faults.len(), 1, "{:?}", ingest.faults);
    assert_eq!(ingest.faults[0].path, bundle_dir);
    assert!(matches!(ingest.faults[0].reason, FaultReason::MissingManifest));
    assert!(
        !ingest
            .submissions
            .bundles
            .iter()
            .any(|b| b.system.accelerators == 16 && b.org == "Borealis"),
        "the manifest-less bundle is skipped"
    );
    assert!(
        ingest.submissions.bundles.iter().any(|b| b.org == "Borealis"),
        "Borealis's other (at-scale) bundle still loads"
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// A duplicated bundle directory (same org + system in two places) is
/// quarantined: the copy is skipped with a fault naming its directory.
#[test]
fn duplicate_bundle_directory_is_quarantined() {
    let (dir, archive) = seeded_archive("dup-bundle");
    // Clone an existing bundle directory under a new name; its
    // manifest still declares the same org + system.
    let original = dir.join("v0.5/aurora/a900x16");
    let copy = dir.join("v0.5/aurora/a900x16-copy");
    copy_dir(&original, &copy);

    let before = archive.read_round(Round::V05).unwrap();
    // Exactly one fault: the duplicate, named by its directory.
    assert_eq!(before.faults.len(), 1, "{:?}", before.faults);
    assert_eq!(before.faults[0].path, copy);
    assert!(matches!(before.faults[0].reason, FaultReason::DuplicateBundle));
    fs::remove_dir_all(&dir).unwrap();
}

/// A manifest listing the same benchmark twice keeps the first entry
/// and quarantines the duplicate, naming the manifest.
#[test]
fn duplicate_benchmark_entry_is_quarantined() {
    let (dir, archive) = seeded_archive("dup-bench");
    let manifest = dir.join("v0.5/aurora/a900x16/bundle.json");
    let text = fs::read_to_string(&manifest).unwrap();
    // Duplicate every run-set entry: [A, B] -> [A, B, A, B].
    let mut value: serde_json::Value = serde_json::from_str(&text).unwrap();
    let serde_json::Value::Object(map) = &mut value else { panic!("manifest is an object") };
    let Some(serde_json::Value::Array(run_sets)) = map.get_mut("run_sets") else {
        panic!("manifest has run_sets")
    };
    let copies = run_sets.clone();
    run_sets.extend(copies);
    fs::write(&manifest, serde_json::to_string_pretty(&value).unwrap()).unwrap();

    let ingest = archive.read_round(Round::V05).unwrap();
    assert!(!ingest.faults.is_empty());
    for fault in &ingest.faults {
        assert_eq!(fault.path, manifest);
        assert!(matches!(fault.reason, FaultReason::DuplicateBenchmark(_)), "{fault}");
    }
    // The first copy of each benchmark survives.
    let bundle = ingest
        .submissions
        .bundles
        .iter()
        .find(|b| b.org == "Aurora" && b.system.accelerators == 16)
        .unwrap();
    let mut benchmarks: Vec<_> = bundle.run_sets.iter().map(|rs| rs.benchmark).collect();
    benchmarks.dedup();
    assert_eq!(benchmarks.len(), bundle.run_sets.len(), "no duplicate benchmarks survive");
    fs::remove_dir_all(&dir).unwrap();
}

/// An unreadable round never aborts a whole-archive replay.
#[test]
fn corrupt_round_manifest_never_panics_the_replay() {
    let (dir, archive) = seeded_archive("corrupt-round");
    archive.write_round(&synthetic_round(&SyntheticRoundSpec::new(Round::V06, 8))).unwrap();
    fs::write(dir.join("v0.5/round.json"), "{ definitely not json").unwrap();

    let replay = archive.replay().unwrap();
    assert_eq!(replay.history.rounds(), vec![Round::V06], "the healthy round still replays");
    assert_eq!(replay.faults.len(), 1);
    assert_eq!(replay.faults[0].path, dir.join("v0.5"));
    assert!(matches!(replay.faults[0].reason, FaultReason::UnreadableRound(_)));
    fs::remove_dir_all(&dir).unwrap();
}

/// The streaming acceptance property at scale: a synthetic
/// 1000-bundle round ingested through `review_round_streaming` — which
/// holds a read-ahead window of bundles at a time — produces a `RoundOutcome`
/// identical to materializing the whole round and reviewing it, and
/// the incrementally-built leaderboards match the batch ones.
#[test]
fn thousand_bundle_round_streams_to_the_materialized_outcome() {
    let dir = temp_archive("stress-1k");
    let archive = RoundArchive::create(&dir).unwrap();
    let subs = synthetic_stress_round(Round::V07, 1_000, 41);
    archive.write_round(&subs).unwrap();

    let ingest = archive.read_round(Round::V07).unwrap();
    assert!(ingest.faults.is_empty(), "{:?}", ingest.faults);
    let materialized = run_round(&ingest.submissions);

    let (streamed, faults) = archive.review_round_streaming(Round::V07).unwrap();
    assert!(faults.is_empty(), "{:?}", faults);
    assert_eq!(streamed, materialized);
    assert_eq!(streamed.accepted.len(), 1_000);
    assert!(streamed.quarantined.is_empty());

    // Incremental leaderboards agree with the batch build.
    let mut acc = LeaderboardAccumulator::new();
    for entry in &streamed.accepted {
        acc.add(entry.clone());
    }
    assert_eq!(acc.finish(), leaderboards(&materialized));
    fs::remove_dir_all(&dir).unwrap();
}

/// Replay reviews a round a read-ahead window (64 bundles) at a time.
/// Rounds that end just short of, exactly on, just past and well past
/// a window edge — each with a truncated log, a duplicated bundle
/// directory and a submission-index collision planted around the edge
/// — must publish the same outcome and the same fault list, in the
/// same order, whichever entry point ingests them.
#[test]
fn faults_on_either_side_of_a_chunk_edge_replay_identically() {
    let round = Round::V06;
    let bundle_dir =
        |root: &PathBuf, i: usize| root.join(format!("v0.6/org-{i:04}/stressnode-{i:04}"));
    for bundles in [63usize, 64, 65, 131] {
        for near in [63usize, 64, 127, 128] {
            if near > bundles {
                continue;
            }
            let dir = temp_archive(&format!("edge-{bundles}-{near}"));
            let archive = RoundArchive::create(&dir).unwrap();
            archive.write_round(&synthetic_stress_round(round, bundles, 29)).unwrap();

            // The bundle that will arrive `near`th (the collision below
            // moves it up one): last of its chunk when `near` is 63 or
            // 127, first of the next when 64 or 128. One of its logs
            // is cut off mid-line.
            let truncated = near - 1;
            let log = fs::read_dir(bundle_dir(&dir, truncated))
                .unwrap()
                .filter_map(Result::ok)
                .map(|e| e.path().join("run_0.log"))
                .find(|p| p.is_file())
                .expect("a run log");
            let text = fs::read_to_string(&log).unwrap();
            fs::write(&log, &text[..text.len() - 7]).unwrap();
            // Before it, the same bundle in a second directory (skipped,
            // so later arrivals do not shift).
            let duplicated = near - 2;
            let copy = bundle_dir(&dir, duplicated).with_file_name("twin");
            copy_dir(&bundle_dir(&dir, duplicated), &copy);
            // And before that, another org re-using a submission index
            // (kept, so every later arrival moves up by one).
            let collided = near - 3;
            let mirror = dir.join(format!("v0.6/org-{collided:04}-mirror"));
            copy_dir(&dir.join(format!("v0.6/org-{collided:04}")), &mirror);
            let manifest = mirror.join(format!("stressnode-{collided:04}/bundle.json"));
            let renamed = fs::read_to_string(&manifest)
                .unwrap()
                .replace(&format!("Org-{collided:04}"), &format!("Org-{collided:04}-Mirror"));
            fs::write(&manifest, renamed).unwrap();

            let ingest = archive.read_round(round).unwrap();
            let batch = run_round(&ingest.submissions);
            let what = format!("{bundles} bundles, faults near {near}");
            let reasons: Vec<&FaultReason> = ingest.faults.iter().map(|f| &f.reason).collect();
            assert!(
                matches!(
                    reasons[..],
                    [
                        FaultReason::DuplicateIndex(_),
                        FaultReason::DuplicateBundle,
                        FaultReason::TruncatedLog(_)
                    ]
                ),
                "{what}: {reasons:?}"
            );
            assert_eq!(batch.reports.len(), bundles + 1, "{what}");
            assert_eq!(batch.quarantined.len(), 1, "{what}");
            assert_eq!(batch.quarantined[0].org, format!("Org-{truncated:04}"), "{what}");

            let (streamed, stream_faults) = archive.review_round_streaming(round).unwrap();
            assert_eq!(streamed, batch, "{what}");
            assert_eq!(stream_faults, ingest.faults, "{what}");
            let replay = archive.replay().unwrap();
            assert_eq!(replay, archive.replay_streaming().unwrap(), "{what}");
            assert_eq!(replay.history.outcomes(), [batch], "{what}");
            assert_eq!(replay.faults, ingest.faults, "{what}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// A bundle far larger than the run-count rule produces reviews the
/// same on the calling thread as on a pool worker in the middle of a
/// chunk: nothing about review depends on where it runs.
#[test]
fn eighty_log_bundle_reviews_the_same_inline_and_in_a_pooled_chunk() {
    let subs = synthetic_stress_round(Round::V06, 40, 53);
    // Fold every same-benchmark bundle's logs into the first one's run
    // set until it carries 80, two of them damaged.
    let mut big: SubmissionBundle = subs.bundles[0].clone();
    let benchmark = big.run_sets[0].benchmark;
    let donors = subs.bundles.iter().filter(|b| b.run_sets[0].benchmark == benchmark);
    big.run_sets[0].logs =
        donors.flat_map(|b| b.run_sets[0].logs.clone()).cycle().take(80).collect();
    big.run_sets[0].logs[17].truncate(40);
    big.run_sets[0].logs[61] = "not a log at all\n".to_string();
    let inline = review_bundle(&big, &subs.references);
    assert_eq!(inline.benchmarks[0].runs, 80);
    assert_eq!(inline.diagnostics().count(), 2, "{:?}", inline.benchmarks[0].diagnostics);

    let mut alone = StreamingReview::new(subs.round, subs.references.clone());
    alone.add_bundle(0, 0, &big);
    assert_eq!(alone.finish().reports, std::slice::from_ref(&inline));

    let mut chunk: Vec<(u64, usize, &SubmissionBundle)> =
        subs.bundles.iter().enumerate().map(|(i, b)| (i as u64, i, b)).collect();
    chunk[20].2 = &big;
    let mut pooled = StreamingReview::new(subs.round, subs.references.clone());
    pooled.add_bundles(&chunk);
    let outcome = pooled.finish();
    assert_eq!(outcome.reports[20], inline);
    assert_eq!(outcome.quarantined, [inline]);
}

/// Reads a manifest's `schema` field through the serde `Value` tree,
/// so the tests never assume a particular rendering (pretty schema-1
/// spacing vs canonical schema-2 compaction).
fn manifest_schema(text: &str) -> u64 {
    let value: serde_json::Value = serde_json::from_str(text).unwrap();
    value.get("schema").and_then(|s| s.as_u64()).expect("manifest has a numeric schema")
}

/// Rewrites a manifest's `schema` field in place, re-rendering the
/// file as pretty JSON (which both readers accept).
fn bump_manifest_schema(path: &Path, schema: u64) {
    let text = fs::read_to_string(path).unwrap();
    let mut value: serde_json::Value = serde_json::from_str(&text).unwrap();
    let serde_json::Value::Object(map) = &mut value else { panic!("manifest is an object") };
    map.insert("schema".to_string(), serde_json::json!(schema));
    fs::write(path, serde_json::to_string_pretty(&value).unwrap()).unwrap();
}

/// Turns a freshly written archive into the schema-1 shape older
/// builds wrote: every manifest (`archive.json`, `round.json`,
/// `bundle.json`) re-rendered as pretty JSON at `"schema": 1`. Logs
/// are untouched — the two schemas differ only in their manifests.
fn downgrade_to_schema_one(dir: &Path) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().and_then(|n| n.to_str());
        if path.is_dir() {
            downgrade_to_schema_one(&path);
        } else if matches!(name, Some("archive.json" | "round.json" | "bundle.json")) {
            bump_manifest_schema(&path, 1);
        }
    }
}

/// Every file under `dir` except `outcome.json` (derived data), keyed
/// by its path relative to `dir`.
fn tree_bytes(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(next) = pending.pop() {
        for entry in fs::read_dir(&next).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else if path.file_name().is_some_and(|n| n != "outcome.json") {
                let bytes = fs::read(&path).unwrap();
                files.insert(path.strip_prefix(dir).unwrap().to_path_buf(), bytes);
            }
        }
    }
    files
}

/// The migration acceptance property: a pretty-printed schema-1
/// archive rewritten by `migrate` re-ingests to a bitwise-identical
/// `RoundOutcome`, lands byte for byte on what a fresh write of the
/// same round puts on disk, and a second `migrate` run is a no-op.
#[test]
fn migrated_schema_one_archive_replays_identically() {
    let (dir, archive) = seeded_archive("migrate");
    downgrade_to_schema_one(&dir);
    let subs = synthetic_round(&SyntheticRoundSpec::new(Round::V05, 7));

    let bundle_manifest = dir.join("v0.5/aurora/a900x16/bundle.json");
    let legacy = fs::read_to_string(&bundle_manifest).unwrap();
    assert!(legacy.trim_end().contains('\n'), "schema-1 manifests are pretty-printed");
    assert_eq!(manifest_schema(&legacy), 1);

    let before = archive.read_round(Round::V05).unwrap();
    assert!(before.faults.is_empty(), "{:?}", before.faults);
    let outcome_before = run_round(&before.submissions);

    let report = archive.migrate().unwrap();
    assert!(report.faults.is_empty(), "{:?}", report.faults);
    // Every bundle manifest, plus round.json and the archive marker.
    assert_eq!(report.migrated, before.submissions.bundles.len() + 2);
    assert_eq!(report.skipped, 0);

    let canonical = fs::read_to_string(&bundle_manifest).unwrap();
    assert!(!canonical.trim_end().contains('\n'), "canonical manifests are single-line");
    assert_eq!(manifest_schema(&canonical), MANIFEST_SCHEMA);

    let after = archive.read_round(Round::V05).unwrap();
    assert!(after.faults.is_empty(), "{:?}", after.faults);
    assert_eq!(after.submissions, subs, "submissions identical after migration");
    assert_eq!(
        run_round(&after.submissions),
        outcome_before,
        "outcome bitwise-identical after migration"
    );

    let (fresh, _) = seeded_archive("migrate-fresh");
    let (migrated, written) = (tree_bytes(&dir), tree_bytes(&fresh));
    assert_eq!(
        migrated.keys().collect::<Vec<_>>(),
        written.keys().collect::<Vec<_>>(),
        "migration neither adds nor drops a file"
    );
    for (path, bytes) in &migrated {
        assert!(
            bytes == &written[path],
            "{}: migrated bytes differ from a fresh write",
            path.display()
        );
    }

    let second = archive.migrate().unwrap();
    assert!(second.faults.is_empty(), "{:?}", second.faults);
    assert_eq!(second.migrated, 0, "second migrate run is a no-op");
    assert_eq!(second.skipped, report.migrated, "everything already canonical");
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&fresh).unwrap();
}

/// A newer-schema archive marker is refused by reader and migrator
/// alike, each with the structured error naming the file.
#[test]
fn newer_schema_marker_is_refused_by_reader_and_migrator() {
    let (dir, archive) = seeded_archive("newer-marker");
    let marker = dir.join("archive.json");
    bump_manifest_schema(&marker, MANIFEST_SCHEMA + 1);

    let err = RoundArchive::open(&dir).map(|_| ()).unwrap_err();
    assert!(
        matches!(&err, StoreError::UnsupportedSchema { path, found }
            if *path == marker && *found == MANIFEST_SCHEMA + 1),
        "reader: {err}"
    );
    let err = archive.migrate().unwrap_err();
    assert!(
        matches!(&err, StoreError::UnsupportedSchema { path, found }
            if *path == marker && *found == MANIFEST_SCHEMA + 1),
        "migrator: {err}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// A round whose `round.json` declares a newer schema is refused by
/// the reader and skipped whole by the migrator: its bundle manifests
/// stay byte-identical — a round is never half-migrated.
#[test]
fn newer_schema_round_is_skipped_whole_by_the_migrator() {
    let (dir, archive) = seeded_archive("newer-round");
    downgrade_to_schema_one(&dir);
    let round_manifest = dir.join("v0.5/round.json");
    bump_manifest_schema(&round_manifest, MANIFEST_SCHEMA + 1);
    let bundle_manifest = dir.join("v0.5/aurora/a900x16/bundle.json");
    let bundle_before = fs::read_to_string(&bundle_manifest).unwrap();

    let err = archive.read_round(Round::V05).map(|_| ()).unwrap_err();
    assert!(
        matches!(&err, StoreError::UnsupportedSchema { path, found }
            if *path == round_manifest && *found == MANIFEST_SCHEMA + 1),
        "reader: {err}"
    );

    let report = archive.migrate().unwrap();
    assert_eq!(report.faults.len(), 1, "{:?}", report.faults);
    assert_eq!(report.faults[0].path, round_manifest);
    assert!(
        matches!(report.faults[0].reason, FaultReason::UnsupportedSchema(f)
            if f == MANIFEST_SCHEMA + 1),
        "{}",
        report.faults[0]
    );
    assert_eq!(report.migrated, 1, "only the archive marker migrates");
    assert_eq!(
        fs::read_to_string(&bundle_manifest).unwrap(),
        bundle_before,
        "bundle manifests of a refused round are untouched"
    );
    fs::remove_dir_all(&dir).unwrap();
}

fn copy_dir(from: &PathBuf, to: &PathBuf) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            fs::copy(entry.path(), &target).unwrap();
        }
    }
}
