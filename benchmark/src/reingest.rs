//! The bulk, read-mostly workload: re-publish everything a three-round
//! archive holds — open it, ingest and review every bundle, write each
//! round's outcome, build and render every leaderboard and both
//! cross-round tables into a string.
//!
//! A *job* is one such re-publish. The default path materializes each
//! round and reviews it (`replay`), the alternative path streams
//! (`replay_streaming`); both must render byte-identical reports and
//! quarantine exactly the faults set-up injected. Traced jobs do the
//! same work through the public pieces `replay` is made of, one span
//! per call.

use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{env, Outcome, RunOptions};
use mlperf_core::report::{render_leaderboard, render_scenario_leaderboard};
use mlperf_distsim::Round;
use mlperf_submission::{
    leaderboards, run_round, scenario_leaderboards, synthetic_round, synthetic_stress_round,
    ArchiveReplay, Fault, RoundArchive, RoundHistory, RoundSubmissions, SyntheticRoundSpec,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The orgs whose v0.5 bundles set-up damages; review must quarantine
/// exactly these and nothing else in any round.
const INJECTED: [&str; 2] = ["Borealis", "Cumulus"];

/// The three rounds of the archive, generated from the workload seed:
/// the v0.5 fleet round with two injected faults, and two stress rounds.
pub fn generate_rounds(seed: u64, v06: usize, v07: usize) -> [RoundSubmissions; 3] {
    let mut rng = Rng::new(seed);
    let mut sub_seed = || rng.next_u64() >> 16;
    let fleet = SyntheticRoundSpec::new(Round::V05, sub_seed())
        .with_fault(Fault::MissingRunStop { org: INJECTED[0].into() })
        .with_fault(Fault::IllegalHyperparameter {
            org: INJECTED[1].into(),
            name: "momentum".into(),
        });
    [
        synthetic_round(&fleet),
        synthetic_stress_round(Round::V06, v06, sub_seed()),
        synthetic_stress_round(Round::V07, v07, sub_seed()),
    ]
}

/// One set-up: generates the rounds and writes them into a fresh
/// archive under `dir`, which it returns.
fn set_up_once(options: &RunOptions, dir: &Path) -> Result<PathBuf, String> {
    let rounds =
        generate_rounds(options.seed, options.size.reingest_v06, options.size.reingest_v07);
    let archive = RoundArchive::create(dir).map_err(|e| e.to_string())?;
    for round in &rounds {
        archive.write_round(round).map_err(|e| e.to_string())?;
    }
    Ok(dir.to_path_buf())
}

/// What one re-publish produced.
struct Published {
    report: String,
    accepted: usize,
    quarantined: BTreeSet<(String, String)>,
    store_faults: usize,
}

/// Writes every outcome and renders every board and table — the half
/// of a job that follows ingest, identical on both paths.
fn publish(archive: &RoundArchive, replay: &ArchiveReplay, t: &mut Tracer, op: u64) -> Published {
    let history: &RoundHistory = &replay.history;
    let mut report = String::new();
    let mut accepted = 0;
    let mut quarantined = BTreeSet::new();
    for outcome in history.outcomes() {
        if let Err(e) = t.span("store.write_outcome", op, || archive.write_outcome(outcome)) {
            report.push_str(&format!("write_outcome failed: {e}\n"));
        }
        accepted += outcome.accepted.len();
        for q in &outcome.quarantined {
            quarantined.insert((outcome.round.label().to_string(), q.org.clone()));
        }
        let (boards, scenario_boards) = t.span("leaderboard.build", op, || {
            (leaderboards(outcome), scenario_leaderboards(outcome))
        });
        t.span("report.render", op, || {
            report.push_str(&format!("=== round {} ===\n", outcome.round));
            for board in &boards {
                let title = format!("{} ({} division)", board.benchmark, board.division);
                report.push_str(&render_leaderboard(&title, &board.rows()));
            }
            for board in &scenario_boards {
                let title = format!(
                    "{} {} ({} division)",
                    board.benchmark,
                    board.scenario.slug(),
                    board.division
                );
                report.push_str(&render_scenario_leaderboard(&title, &board.rows()));
            }
        });
    }
    t.span("tables.render", op, || {
        report.push_str(&history.speedup_table_at_common_scale().render());
        report.push_str(&history.scale_table().render());
    });
    Published { report, accepted, quarantined, store_faults: replay.faults.len() }
}

/// One job as a caller of the library runs it.
fn job_untraced(root: &Path, streaming: bool, t: &mut Tracer) -> Result<Published, String> {
    let archive = RoundArchive::open(root).map_err(|e| e.to_string())?;
    let replay = if streaming { archive.replay_streaming() } else { archive.replay() }
        .map_err(|e| e.to_string())?;
    Ok(publish(&archive, &replay, t, 0))
}

/// The same job through the public pieces `replay` and
/// `replay_streaming` are made of, one span around each.
fn job_traced(root: &Path, streaming: bool, t: &mut Tracer, op: u64) -> Result<Published, String> {
    let job = t.enter("reingest.job", op);
    let published = job_pieces(root, streaming, t, op);
    t.exit(job);
    published
}

fn job_pieces(root: &Path, streaming: bool, t: &mut Tracer, op: u64) -> Result<Published, String> {
    let archive = RoundArchive::open(root).map_err(|e| e.to_string())?;
    let mut history = RoundHistory::new();
    let mut faults = Vec::new();
    for round in archive.rounds().map_err(|e| e.to_string())? {
        if streaming {
            let (outcome, mut round_faults) = t
                .span("store.stream_review", op, || archive.review_round_streaming(round))
                .map_err(|e| e.to_string())?;
            faults.append(&mut round_faults);
            history.push(outcome);
        } else {
            let mut ingest = t
                .span("store.read_round", op, || archive.read_round(round))
                .map_err(|e| e.to_string())?;
            faults.append(&mut ingest.faults);
            history.push(t.span("round.run_round", op, || run_round(&ingest.submissions)));
        }
    }
    Ok(publish(&archive, &ArchiveReplay { history, faults }, t, op))
}

/// Runs the workload.
pub fn run(options: &RunOptions, scratch: &Path, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut built = None;
    for repeat in 0..options.size.setup_repeats {
        let dir = scratch.join(format!("archive-{repeat}"));
        let start = Instant::now();
        match set_up_once(options, &dir) {
            Ok(archive) => {
                setups.push(start.elapsed().as_secs_f64());
                if let Some(old) = built.replace(archive) {
                    let _ = std::fs::remove_dir_all(old);
                }
            }
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("set-up failed: {e}"));
                return out;
            }
        }
    }
    let root: PathBuf = built.expect("at least one set-up ran");
    out.set("setup_s", stats::median(&setups));

    let expected: BTreeSet<(String, String)> =
        INJECTED.iter().map(|org| (Round::V05.label().to_string(), org.to_string())).collect();
    let mut reference: Option<String> = None;
    let mut check = |out: &mut Outcome, what: &str, job: Result<Published, String>| {
        out.attempted += 1;
        let published = match job {
            Ok(p) => p,
            Err(e) => return out.fail(format!("{what}: {e}")),
        };
        let reference = reference.get_or_insert_with(|| published.report.clone());
        if *reference != published.report {
            out.fail(format!("{what}: report differs from the first job's"));
        } else if published.quarantined != expected || published.store_faults != 0 {
            out.fail(format!(
                "{what}: quarantined {:?} with {} storage faults, expected {expected:?} and none",
                published.quarantined, published.store_faults
            ));
        }
        out.set("reingest.accepted", published.accepted as f64);
        out.set("reingest.quarantined", published.quarantined.len() as f64);
    };

    // One warm-up of each path: page cache, allocator, lazy statics.
    let mut off = Tracer::new(false);
    for streaming in [true, false] {
        let job = job_untraced(&root, streaming, &mut off);
        check(&mut out, "warm-up", job);
    }

    // Memory is read here, after one job of each path, as a caller who
    // re-publishes once would see it: alternating the two paths under
    // the pinned allocator fragments the heap by another 230-330 MB
    // that differs from run to run (479-481 MB here, 707-808 MB at
    // exit, over six runs).
    out.set("peak_rss_mb", env::peak_rss_mb());

    // job_s[traced][path]: path 0 is the default (batch) path, path 1
    // the alternative (streaming) one; every round runs one job of each.
    let paths = [(1, true), (0, false)];
    let mut job_s: [[Vec<f64>; 2]; 2] = Default::default();
    let started = Instant::now();
    let mut round = 0u64;
    let least = if tracer.enabled() { 2 } else { 1 };
    while round < least || started.elapsed().as_secs_f64() < options.seconds {
        let traced = tracer.enabled() && round % 2 == 1;
        for (path, streaming) in paths {
            let start = Instant::now();
            let job = if traced {
                job_traced(&root, streaming, tracer, round)
            } else {
                job_untraced(&root, streaming, &mut off)
            };
            job_s[usize::from(traced)][path].push(start.elapsed().as_secs_f64());
            check(&mut out, if streaming { "streaming job" } else { "batch job" }, job);
        }
        round += 1;
    }

    let [untraced, traced] = &job_s;
    if !tracer.enabled() {
        out.set("job_p50_ms", stats::median(&untraced[0]) * 1e3);
        let jobs = untraced[0].len() + untraced[1].len();
        out.set("jobs_per_s", jobs as f64 / untraced.iter().flatten().sum::<f64>());
        return out;
    }

    let traced_pair = stats::median(&traced[0]) + stats::median(&traced[1]);
    let untraced_pair = stats::median(&untraced[0]) + stats::median(&untraced[1]);
    out.set("trace.job_ms", stats::median(&traced[0]) * 1e3);
    out.set("trace.untraced_job_ms", stats::median(&untraced[0]) * 1e3);
    let every =
        |path: usize| -> Vec<f64> { untraced[path].iter().chain(&traced[path]).copied().collect() };
    out.set("trace.alt_job_ms", stats::median(&every(1)) * 1e3);
    out.set("trace.job_tail_ms", stats::tail(&every(0)).1 * 1e3);
    out.set("trace.overhead_pct", (traced_pair / untraced_pair - 1.0) * 100.0);
    let shares = tracer.shares_under("reingest.job");
    for name in [
        "store.stream_review",
        "store.read_round",
        "round.run_round",
        "store.write_outcome",
        "leaderboard.build",
        "report.render",
        "tables.render",
    ] {
        out.set(format!("share.{name}"), shares.get(name).copied().unwrap_or(0.0));
    }
    // Opening the archive, listing its rounds, and the glue between.
    out.set("trace.unattributed_pct", shares.get("reingest.job").copied().unwrap_or(0.0));

    // What a job reads (manifests and logs) and what it writes
    // (`outcome.json`), by walking the archive.
    let (mut read, mut written) = ((0u64, 0u64), (0u64, 0u64));
    env::for_each_file(&root, &mut |path, len| {
        let outcome = path.file_name().is_some_and(|name| name == "outcome.json");
        let slot = if outcome { &mut written } else { &mut read };
        slot.0 += 1;
        slot.1 += len;
    });
    out.set("store.files_read", read.0 as f64);
    out.set("store.bytes_read", read.1 as f64);
    out.set("store.files_written", written.0 as f64);
    out.set("store.bytes_written", written.1 as f64);
    out
}
