//! **Submission-round pipeline CLI** — the end-to-end process of §4
//! over a persistent, disk-backed round archive.
//!
//! ```sh
//! round_pipeline write  --archive DIR [--rounds N] [--seed N] [--bundles N]
//! round_pipeline ingest --archive DIR [--trace FILE]
//! round_pipeline migrate --archive DIR
//! round_pipeline report --archive DIR [--chips N]
//! round_pipeline demo [--trace FILE]  # all three against a temp archive
//! round_pipeline loadgen [--seed N] [--archive DIR] [--log-dir DIR] [--trace FILE]
//! round_pipeline serve [--addr HOST:PORT] [--archive DIR] [--round vX.Y]
//! round_pipeline storm [--clients N] [--bundles N] [--round vX.Y] [--seed N]
//! ```
//!
//! `write` generates synthetic multi-vendor rounds (each with a
//! deliberately corrupted bundle, so ingest has something to
//! quarantine) and persists them as real `:::MLLOG` log files plus
//! JSON manifests; `--bundles N` writes stress rounds of N small
//! single-benchmark bundles instead, for scale runs. Every manifest is
//! written at the current `MANIFEST_SCHEMA`. `migrate` rewrites every
//! manifest of an older archive to that schema in place — atomically,
//! per manifest, skipping manifests that are already current and
//! quarantining unreadable ones as storage faults. `ingest` reads
//! the archive back, replays review over every round, and reports what
//! was accepted, quarantined, or damaged on disk, a bounded window of
//! bundles at a time.
//! `report` renders the per-round leaderboards and the paper's
//! Figure 4/5 cross-round tables — computed from the archived logs
//! alone. Figure 4 anchors at the data-driven common scale of the
//! ingested history unless `--chips` pins one.
//!
//! `loadgen` runs the inference-style scenario driver instead: the
//! SingleStream, Server, and Offline scenarios over simulated served
//! models (NCF and BERT) on a deterministic simulated clock, packages
//! the scenario logs as a submission bundle, reviews it through
//! `run_round`, and renders the scenario leaderboards. With
//! `--archive DIR` the scenario round is persisted through the same
//! `RoundArchive` as training rounds, re-ingested, and checked to
//! review identically from disk. `--log-dir DIR` additionally writes
//! each scenario's raw `:::MLLOG` log there.
//!
//! `--trace FILE` records telemetry for the run — spans and metrics
//! from the harness, ingest, and store layers — writes them as Chrome
//! `trace_event` JSON-lines (load in `chrome://tracing` or Perfetto),
//! and prints a plain-text summary report. Every bundle and log is
//! traced: the sink keeps the newest spans of a ring large enough for a
//! whole 10 000-bundle round, and counts any it evicts.
//!
//! `serve` runs the live submission service (`mlperf-service`): an
//! HTTP server that keeps rounds open, reviews bundles as submitters
//! upload them, and answers leaderboard/status/metrics queries
//! mid-round. `--round vX.Y` opens a round immediately; otherwise
//! clients open rounds themselves with `POST /rounds/{round}/open`.
//! The server runs until `POST /shutdown`. `storm` is the seeded
//! load driver: it starts an in-process server on an ephemeral port,
//! races `--clients` concurrent submitters (default 8) uploading a
//! `--bundles`-bundle stress round (default 240) over real TCP with
//! leaderboard and status polls interleaved throughout, then closes
//! the round and verifies the published outcome is identical to batch
//! ingest of the same bundles.
//!
//! `--metrics FILE` writes a Prometheus text-exposition snapshot of
//! every counter, gauge, quantile sketch, and windowed
//! time-series at the end of the run, and turns on tensor kernel
//! dispatch counters. `--progress` prints live one-line throughput
//! updates to stderr (bundles/s, logs/s, busy workers) while ingest or
//! a loadgen sweep runs; both flags install a clock-driven [`Reporter`]
//! that samples the hot-path counters into ring-buffered time-series.
//! Every subcommand accepts both flags.

use mlperf_bench::write_json;
use mlperf_core::benchmarks::NcfBenchmark;
use mlperf_core::harness::run_benchmark_with;
use mlperf_core::report::{
    render_leaderboard, render_scenario_leaderboard, render_telemetry_report, SystemDescription,
};
use mlperf_core::suite::BenchmarkId;
use mlperf_core::timing::RealClock;
use mlperf_distsim::Round;
use mlperf_loadgen::{
    loadgen_bundle, loadgen_reference, loadgen_run_set, simulated_scenario_sweep,
};
use mlperf_pool::pool_stats;
use mlperf_service::{http_get, http_post, HttpServer, ServiceCore};
use mlperf_submission::{
    leaderboards, round_references, run_round_with, scenario_leaderboards, synthetic_round,
    synthetic_stress_round, ArchiveReplay, Fault, RoundArchive, RoundSubmissions,
    SyntheticRoundSpec,
};
use mlperf_telemetry::{write_prometheus, write_trace, Reporter, Telemetry};
use mlperf_tensor::{enable_kernel_stats, kernel_stats};
use serde_json::json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Reporter sampling interval: short enough that even a fast demo run
/// closes a couple of windows, long enough that progress lines stay
/// readable on a terminal.
const REPORT_INTERVAL: Duration = Duration::from_millis(250);

fn usage() -> ExitCode {
    eprintln!(
        "usage: round_pipeline [write|ingest|report|migrate|demo|loadgen|serve|storm] \
         [--archive DIR] [--rounds N] [--seed N] [--bundles N] [--chips N] \
         [--trace FILE] [--metrics FILE] [--progress] \
         [--log-dir DIR] [--addr HOST:PORT] [--clients N] \
         [--round vX.Y]"
    );
    ExitCode::FAILURE
}

/// Parsed command line: subcommand plus flags.
struct Args {
    command: String,
    archive: Option<PathBuf>,
    rounds: usize,
    seed: u64,
    /// `write`: generate stress rounds of this many small bundles
    /// instead of the fleet rounds.
    bundles: Option<usize>,
    /// Figure 4 anchor; `None` means the history's data-driven
    /// common scale.
    chips: Option<usize>,
    trace: Option<PathBuf>,
    /// Write a Prometheus text-exposition snapshot here at exit.
    metrics: Option<PathBuf>,
    /// Print live throughput lines to stderr while the run progresses.
    progress: bool,
    /// `loadgen`: also write each scenario's raw `:::MLLOG` log here.
    log_dir: Option<PathBuf>,
    /// `serve`: listen address (default 127.0.0.1:8090).
    addr: Option<String>,
    /// `storm`: concurrent submitting clients.
    clients: usize,
    /// `serve`: open this round at startup; `storm`: the round to
    /// drive (default v0.6).
    round: Option<Round>,
}

fn parse_args() -> Option<Args> {
    let mut args = std::env::args().skip(1).peekable();
    // A leading flag means the subcommand was omitted: default to demo
    // so `round_pipeline --trace out.jsonl` works.
    let command = match args.peek() {
        Some(first) if !first.starts_with("--") => args.next().unwrap(),
        _ => "demo".to_string(),
    };
    let mut parsed = Args {
        command,
        archive: None,
        rounds: Round::ALL.len(),
        seed: 21,
        bundles: None,
        chips: None,
        trace: None,
        metrics: None,
        progress: false,
        log_dir: None,
        addr: None,
        clients: 8,
        round: None,
    };
    while let Some(flag) = args.next() {
        // The one boolean flag takes no value.
        if flag == "--progress" {
            parsed.progress = true;
            continue;
        }
        let value = args.next()?;
        match flag.as_str() {
            "--archive" => parsed.archive = Some(PathBuf::from(value)),
            "--rounds" => parsed.rounds = value.parse().ok()?,
            "--seed" => parsed.seed = value.parse().ok()?,
            "--bundles" => parsed.bundles = Some(value.parse().ok()?),
            "--chips" => parsed.chips = Some(value.parse().ok()?),
            "--trace" => parsed.trace = Some(PathBuf::from(value)),
            "--metrics" => parsed.metrics = Some(PathBuf::from(value)),
            "--log-dir" => parsed.log_dir = Some(PathBuf::from(value)),
            "--addr" => parsed.addr = Some(value),
            "--clients" => parsed.clients = value.parse().ok()?,
            "--round" => match value.parse::<Round>() {
                Ok(round) => parsed.round = Some(round),
                Err(e) => {
                    eprintln!("{e}");
                    return None;
                }
            },
            _ => return None,
        }
    }
    if parsed.rounds == 0 || parsed.rounds > Round::ALL.len() {
        eprintln!("--rounds must be 1..={}", Round::ALL.len());
        return None;
    }
    if parsed.bundles == Some(0) || parsed.clients == 0 {
        eprintln!("--bundles and --clients must be positive");
        return None;
    }
    Some(parsed)
}

/// Each generated round gets a saboteur, so the archive always holds
/// something for review to quarantine.
fn round_spec(round: Round, seed: u64) -> SyntheticRoundSpec {
    let spec = SyntheticRoundSpec::new(round, seed);
    match round {
        Round::V05 => spec.with_fault(Fault::MissingRunStop { org: "Borealis".into() }),
        Round::V06 => spec.with_fault(Fault::GarbageLine { org: "Cumulus".into() }).with_fault(
            Fault::IllegalHyperparameter { org: "Aurora".into(), name: "momentum".into() },
        ),
        Round::V07 => spec.with_fault(Fault::WrongQualityTarget { org: "Borealis".into() }),
    }
}

fn write_archive(
    dir: &PathBuf,
    rounds: usize,
    seed: u64,
    bundles: Option<usize>,
    telemetry: &Telemetry,
) -> Result<RoundArchive, String> {
    let archive =
        RoundArchive::create(dir).map_err(|e| e.to_string())?.with_telemetry(telemetry.clone());
    for (i, round) in Round::ALL.into_iter().take(rounds).enumerate() {
        let subs = match bundles {
            Some(n) => synthetic_stress_round(round, n, seed + i as u64),
            None => synthetic_round(&round_spec(round, seed + i as u64)),
        };
        let logs: usize =
            subs.bundles.iter().flat_map(|b| &b.run_sets).map(|rs| rs.logs.len()).sum();
        archive.write_round(&subs).map_err(|e| e.to_string())?;
        println!(
            "wrote round {round}: {} bundles, {logs} log files -> {}",
            subs.bundles.len(),
            archive.root().join(round.label()).display()
        );
    }
    Ok(archive)
}

fn ingest_archive(archive: &RoundArchive) -> Result<ArchiveReplay, String> {
    let replay = archive.replay().map_err(|e| e.to_string())?;
    for outcome in replay.history.outcomes() {
        println!(
            "round {}: accepted {} run sets, quarantined {} bundle(s)",
            outcome.round,
            outcome.accepted.len(),
            outcome.quarantined.len()
        );
        for report in &outcome.quarantined {
            for (benchmark, diagnostic) in report.diagnostics() {
                println!("  quarantine {} [{benchmark}]: {diagnostic}", report.org);
            }
        }
        archive.write_outcome(outcome).map_err(|e| e.to_string())?;
    }
    for fault in &replay.faults {
        println!("storage fault: {fault}");
    }
    Ok(replay)
}

fn report_archive(replay: &ArchiveReplay, chips: Option<usize>) {
    // Anchor Figure 4 at the requested scale, else the data-driven
    // common scale of the ingested history (16 when none is shared).
    let chips = chips.unwrap_or_else(|| replay.history.common_scale().unwrap_or(16));
    for outcome in replay.history.outcomes() {
        println!("\n=== round {} leaderboards ===\n", outcome.round);
        for board in leaderboards(outcome) {
            let title = format!("{} ({} division)", board.benchmark, board.division);
            print!("{}", render_leaderboard(&title, &board.rows()));
            println!();
        }
    }
    let speedup = replay.history.speedup_table(chips);
    let scale = replay.history.scale_table();
    println!("{}", speedup.render());
    println!("{}", scale.render());
}

/// One instrumented real harness run — the NCF benchmark on the wall
/// clock — so a traced demo carries `harness`-layer spans alongside
/// the ingest and store layers.
fn demo_harness_run(telemetry: &Telemetry) {
    let clock = RealClock::new();
    let mut bench = NcfBenchmark::new();
    let result = run_benchmark_with(&mut bench, 7, &clock, telemetry);
    println!(
        "harness run ({}, seed {}): {} epochs, quality {:.4}, reached target: {}\n",
        result.benchmark, result.seed, result.epochs, result.quality, result.reached_target
    );
}

/// The `loadgen` subcommand: scenario sweeps over simulated served
/// models on a deterministic simulated clock, packaged as a Closed
/// bundle, reviewed through `run_round`, and rendered as scenario
/// leaderboards. Every sweep is run twice and checked bit-identical —
/// the driver's determinism contract under `SimClock` — before its
/// logs are submitted.
fn run_loadgen(args: &Args, telemetry: &Telemetry) -> Result<(), String> {
    let benchmarks = [BenchmarkId::Recommendation, BenchmarkId::LanguageModeling];
    let mut references = Vec::new();
    let mut run_sets = Vec::new();
    let mut scenario_rows = Vec::new();
    for benchmark in benchmarks {
        let results = simulated_scenario_sweep(benchmark, args.seed, telemetry);
        let replay = simulated_scenario_sweep(benchmark, args.seed, &Telemetry::disabled());
        if results != replay {
            return Err(format!("{benchmark}: sweep is not deterministic under SimClock"));
        }
        println!("{benchmark}: {} scenarios, bit-identical across repeated sweeps", results.len());
        if let Some(dir) = &args.log_dir {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            for result in &results {
                let path =
                    dir.join(format!("{}_{}.mllog", benchmark.slug(), result.scenario.slug()));
                std::fs::write(&path, &result.log).map_err(|e| e.to_string())?;
                println!("  wrote {}", path.display());
            }
        }
        scenario_rows.extend(results.iter().map(|r| {
            json!({
                "benchmark": r.benchmark.slug(),
                "scenario": r.scenario.slug(),
                "seed": r.seed,
                "queries": r.queries,
                "duration_ms": r.duration.as_millis() as u64,
                "p50_ms": r.p50_ms,
                "p90_ms": r.p90_ms,
                "p99_ms": r.p99_ms,
                "qps": r.qps,
                "slo_ms": r.slo_ms,
                "slo_satisfied": r.slo_satisfied,
            })
        }));
        let reference = loadgen_reference(benchmark);
        run_sets.push(loadgen_run_set(&reference, &results));
        references.push(reference);
    }

    let system = SystemDescription {
        submitter: "SimServe".to_string(),
        system_name: "SimServe-1".to_string(),
        accelerators: 1,
        accelerator_model: "SimChip".to_string(),
        host_processors: 1,
        software: "mlperf-loadgen (simulated clock)".to_string(),
    };
    let bundle = loadgen_bundle("SimServe", system, run_sets);
    let subs = RoundSubmissions { round: Round::V07, references, bundles: vec![bundle] };
    let outcome = run_round_with(&subs, telemetry);
    for report in &outcome.quarantined {
        for (benchmark, diagnostic) in report.diagnostics() {
            eprintln!("quarantine {} [{benchmark}]: {diagnostic}", report.org);
        }
    }
    if !outcome.quarantined.is_empty() {
        return Err("loadgen bundle failed review".to_string());
    }
    println!("\nreview accepted {} scenario measurements\n", outcome.scenarios.len());

    // Persist the scenario round like any training round and prove the
    // archived copy reviews identically when read back from disk.
    if let Some(dir) = &args.archive {
        let archive =
            RoundArchive::create(dir).map_err(|e| e.to_string())?.with_telemetry(telemetry.clone());
        archive.write_round(&subs).map_err(|e| e.to_string())?;
        let replay = archive.replay().map_err(|e| e.to_string())?;
        for fault in &replay.faults {
            println!("storage fault: {fault}");
        }
        let replayed = replay
            .history
            .outcomes()
            .iter()
            .find(|o| o.round == subs.round)
            .ok_or_else(|| "archived scenario round did not re-ingest".to_string())?;
        if replayed.scenarios != outcome.scenarios || !replayed.quarantined.is_empty() {
            return Err(format!(
                "archived scenario round diverged on re-ingest: {} scenario entries \
                 (live review had {}), {} quarantined",
                replayed.scenarios.len(),
                outcome.scenarios.len(),
                replayed.quarantined.len()
            ));
        }
        archive.write_outcome(replayed).map_err(|e| e.to_string())?;
        println!(
            "archived scenario round {} -> {} (re-ingests identically)\n",
            subs.round,
            archive.root().display()
        );
    }

    for board in scenario_leaderboards(&outcome) {
        let title =
            format!("{} {} ({} division)", board.benchmark, board.scenario.slug(), board.division);
        print!("{}", render_scenario_leaderboard(&title, &board.rows()));
        println!();
    }

    let summary = json!({
        "seed": args.seed,
        "deterministic": true,
        "accepted_scenarios": outcome.scenarios.len(),
        "quarantined": outcome.quarantined.len(),
        "archived": args.archive.is_some(),
        "scenarios": scenario_rows,
    });
    let path = write_json("loadgen", &summary);
    println!("wrote {}", path.display());
    Ok(())
}

/// The `serve` subcommand: the live submission service on a real
/// socket, until `POST /shutdown`.
fn run_serve(args: &Args, telemetry: &Telemetry) -> Result<(), String> {
    let dir = args
        .archive
        .clone()
        .unwrap_or_else(|| mlperf_bench::experiments_dir().join("service_archive"));
    let archive =
        RoundArchive::create(&dir).map_err(|e| e.to_string())?.with_telemetry(telemetry.clone());
    let core = Arc::new(ServiceCore::new(archive, telemetry.clone()));
    if let Some(round) = args.round {
        core.open_round(round, round_references(round)).map_err(|e| e.to_string())?;
        println!("opened round {round} for submissions");
    }
    let addr = args.addr.as_deref().unwrap_or("127.0.0.1:8090");
    let server = HttpServer::bind(core, addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let addr = server.local_addr();
    println!("serving on http://{addr} (archive: {})", dir.display());
    println!("  POST /rounds/{{round}}/open         open a round (v0.5, v0.6, v0.7)");
    println!("  POST /rounds/{{round}}/bundles      submit a bundle (JSON body)");
    println!("  GET  /rounds/{{round}}/leaderboard  live leaderboards");
    println!("  GET  /rounds/{{round}}/status       round status");
    println!("  POST /rounds/{{round}}/close        close and publish");
    println!("  GET  /metrics                     Prometheus metrics");
    println!("  POST /shutdown                    stop the server");
    server.serve();
    println!("shutdown requested; server stopped");
    Ok(())
}

/// The `storm` subcommand: a seeded multi-client load test proving the
/// service's core contract — many submitters racing uploads over real
/// TCP, with leaderboard reads hammering the round mid-fill, must
/// publish exactly the outcome batch ingest computes from the same
/// bundles.
fn run_storm(args: &Args, telemetry: &Telemetry) -> Result<(), String> {
    let round = args.round.unwrap_or(Round::V06);
    let bundles = args.bundles.unwrap_or(240);
    let clients = args.clients;
    let dir = args
        .archive
        .clone()
        .unwrap_or_else(|| mlperf_bench::experiments_dir().join("storm_archive"));
    let _ = std::fs::remove_dir_all(&dir);
    let submissions = synthetic_stress_round(round, bundles, args.seed);

    let archive =
        RoundArchive::create(&dir).map_err(|e| e.to_string())?.with_telemetry(telemetry.clone());
    let core = Arc::new(ServiceCore::new(archive, telemetry.clone()));
    core.open_round(round, round_references(round)).map_err(|e| e.to_string())?;
    let server = HttpServer::bind(Arc::clone(&core), args.addr.as_deref().unwrap_or("127.0.0.1:0"))
        .map_err(|e| e.to_string())?;
    let handle = server.serve_background().map_err(|e| e.to_string())?;
    let addr = handle.addr().to_string();
    println!(
        "storm: {clients} clients submitting {bundles} bundles to round {round} on http://{addr}"
    );

    let stop = AtomicBool::new(false);
    let polls = AtomicUsize::new(0);
    let receipts: Vec<(u64, usize)> = std::thread::scope(|scope| {
        // A dedicated poller keeps read pressure on the leaderboard
        // for the whole fill, independent of submission pacing.
        {
            let addr = &addr;
            let stop = &stop;
            let polls = &polls;
            scope.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let path = format!("/rounds/{round}/leaderboard");
                    let board = http_get(addr, &path).expect("leaderboard poll");
                    assert_eq!(board.status, 200, "mid-round leaderboard read failed");
                    polls.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        let mut workers = Vec::new();
        for client in 0..clients {
            let addr = &addr;
            let submissions = &submissions;
            let polls = &polls;
            workers.push(scope.spawn(move || {
                let mut got = Vec::new();
                for (position, bundle) in
                    submissions.bundles.iter().enumerate().skip(client).step_by(clients)
                {
                    let body = serde_json::to_string(bundle).expect("serialize bundle");
                    let path = format!("/rounds/{round}/bundles");
                    let reply = http_post(addr, &path, Some(&body)).expect("submit");
                    assert_eq!(reply.status, 200, "submit failed: {}", reply.body);
                    let receipt: serde_json::Value =
                        serde_json::from_str(&reply.body).expect("receipt json");
                    let index =
                        receipt["index"].as_u64().expect("receipt carries the assigned index");
                    got.push((index, position));
                    // Interleave the clients' own status reads with
                    // their uploads.
                    if position % 16 == client % 16 {
                        let path = format!("/rounds/{round}/status");
                        let status = http_get(addr, &path).expect("status poll");
                        assert_eq!(status.status, 200);
                        polls.fetch_add(1, Ordering::SeqCst);
                    }
                }
                got
            }));
        }
        let receipts = workers.into_iter().flat_map(|w| w.join().expect("client thread")).collect();
        stop.store(true, Ordering::SeqCst);
        receipts
    });
    println!(
        "all {} uploads accepted; {} mid-round leaderboard/status reads served",
        receipts.len(),
        polls.load(Ordering::SeqCst)
    );

    let metrics = http_get(&addr, "/metrics").map_err(|e| e.to_string())?;
    if !metrics.body.contains(&format!("service_bundles_submitted_total {bundles}")) {
        return Err("metrics endpoint did not report the submitted bundle count".to_string());
    }

    // The equivalence check: close the live round, then batch-ingest
    // the same bundles in service index order.
    let outcome = core.close_round(round).map_err(|e| e.to_string())?;
    let mut ordered = receipts;
    ordered.sort_unstable();
    let batch = RoundSubmissions {
        round,
        references: round_references(round),
        bundles: ordered
            .iter()
            .map(|&(_, position)| submissions.bundles[position].clone())
            .collect(),
    };
    let batch_outcome = run_round_with(&batch, &Telemetry::disabled());
    if outcome != batch_outcome {
        return Err(format!(
            "STORM DIVERGENCE: live round published {} accepted / {} quarantined, batch ingest \
             computed {} / {}",
            outcome.accepted.len(),
            outcome.quarantined.len(),
            batch_outcome.accepted.len(),
            batch_outcome.quarantined.len()
        ));
    }
    println!(
        "round {round} outcome identical to batch ingest: {} accepted entries, {} scenario \
         entries, {} quarantined",
        outcome.accepted.len(),
        outcome.scenarios.len(),
        outcome.quarantined.len()
    );
    handle.shutdown();

    let summary = json!({
        "round": round.label(),
        "clients": clients,
        "bundles": bundles,
        "seed": args.seed,
        "mid_round_reads": polls.load(Ordering::SeqCst),
        "accepted_entries": outcome.accepted.len(),
        "quarantined": outcome.quarantined.len(),
        "identical_to_batch": true,
        "archive": dir.display().to_string(),
    });
    let path = write_json("storm", &summary);
    println!("wrote {}", path.display());
    Ok(())
}

/// Builds and installs the clock-driven [`Reporter`] behind
/// `--metrics`/`--progress` (and always behind `serve`/`storm`, whose
/// `/metrics` endpoint exports the windowed series as `*_per_sec`
/// gauges — the live ingest throughput): the ingest, store, service,
/// and loadgen hot-path counters plus live pool gauges, sampled into
/// ring-buffered time-series every [`REPORT_INTERVAL`].
fn install_reporter(args: &Args, telemetry: &Telemetry) {
    let mut reporter = Reporter::new(REPORT_INTERVAL);
    if args.progress {
        reporter = reporter.with_progress(&args.command);
    }
    reporter.track_counter(
        telemetry,
        "ingest.bundles",
        telemetry.counter("ingest.bundles_reviewed"),
    );
    reporter.track_counter(telemetry, "ingest.logs", telemetry.counter("ingest.logs_parsed"));
    reporter.track_counter(
        telemetry,
        "service.bundles",
        telemetry.counter("service.bundles_submitted"),
    );
    reporter.track_counter(
        telemetry,
        "service.entries",
        telemetry.counter("service.entries_accepted"),
    );
    reporter.track_counter(telemetry, "store.bytes_read", telemetry.counter("store.bytes_read"));
    reporter.track_counter(telemetry, "loadgen.queries", telemetry.counter("loadgen.queries"));
    reporter.track_counter_fn(telemetry, "pool.items", || pool_stats().items_completed as f64);
    reporter.track_gauge_fn(telemetry, "pool.workers_busy", || pool_stats().workers_busy as f64);
    reporter.track_gauge_fn(telemetry, "pool.queue_depth", || pool_stats().queue_depth as f64);
    telemetry.install_reporter(reporter);
}

/// Folds the process-global pool and tensor-kernel stats into the
/// registry so the Prometheus snapshot carries them. Called once at
/// exit: these are end-of-run totals, not windowed series.
fn fold_process_stats(telemetry: &Telemetry) {
    let pool = pool_stats();
    telemetry.counter("pool.items_completed").add(pool.items_completed);
    telemetry.counter("pool.fanouts").add(pool.fanouts);
    // "hwm" (high-water mark), not "_peak": gauge *series* already
    // export a `_peak` reading, and Prometheus families must be unique.
    telemetry.gauge("pool.workers_busy_hwm").set(pool.workers_busy_peak);
    telemetry.gauge("pool.fanout_width_hwm").set(pool.fanout_width_peak);
    let kernels = kernel_stats();
    telemetry.counter("tensor.gemm_reference").add(kernels.gemm_reference);
    telemetry.counter("tensor.gemm_direct").add(kernels.gemm_direct);
    telemetry.counter("tensor.gemm_packed").add(kernels.gemm_packed);
    telemetry.counter("tensor.packed_bytes").add(kernels.packed_bytes);
}

/// Writes the Chrome `trace_event` file and prints the plain-text
/// telemetry summary. No-op without `--trace`.
fn flush_trace(trace: Option<&PathBuf>, telemetry: &Telemetry) -> Result<(), String> {
    let Some(path) = trace else {
        return Ok(());
    };
    let snapshot = telemetry.snapshot();
    write_trace(&snapshot, path).map_err(|e| e.to_string())?;
    println!("\n{}", render_telemetry_report(&snapshot));
    println!("wrote trace {}", path.display());
    Ok(())
}

/// Closes the final reporter window, folds process-global stats into
/// the registry, and writes the Prometheus text-exposition snapshot.
/// No-op without `--metrics`.
fn flush_metrics(metrics: Option<&PathBuf>, telemetry: &Telemetry) -> Result<(), String> {
    let Some(path) = metrics else {
        return Ok(());
    };
    fold_process_stats(telemetry);
    telemetry.flush_reporter();
    write_prometheus(&telemetry.snapshot(), path).map_err(|e| e.to_string())?;
    println!("wrote metrics {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    // serve/storm always record: their /metrics endpoint is the whole
    // point, and the reporter's windowed series are its live
    // throughput readings.
    let service = matches!(args.command.as_str(), "serve" | "storm");
    let observing = service || args.trace.is_some() || args.metrics.is_some() || args.progress;
    let telemetry = if observing { Telemetry::recording() } else { Telemetry::disabled() };
    if service || args.metrics.is_some() || args.progress {
        install_reporter(&args, &telemetry);
    }
    if args.metrics.is_some() {
        enable_kernel_stats();
    }
    println!("MLPerf submission-round pipeline (Section 4)\n");

    let result = match args.command.as_str() {
        "write" => {
            let Some(dir) = args.archive.as_ref() else {
                eprintln!("write requires --archive DIR");
                return ExitCode::FAILURE;
            };
            write_archive(dir, args.rounds, args.seed, args.bundles, &telemetry).map(|_| ())
        }
        "ingest" => RoundArchive::open(args.archive.clone().unwrap_or_else(|| PathBuf::from(".")))
            .map_err(|e| e.to_string())
            .and_then(|archive| {
                ingest_archive(&archive.with_telemetry(telemetry.clone())).map(|_| ())
            }),
        "migrate" => RoundArchive::open(args.archive.clone().unwrap_or_else(|| PathBuf::from(".")))
            .map_err(|e| e.to_string())
            .and_then(|archive| {
                let archive = archive.with_telemetry(telemetry.clone());
                let report = archive.migrate().map_err(|e| e.to_string())?;
                for fault in &report.faults {
                    println!("storage fault: {fault}");
                }
                println!("{report}");
                Ok(())
            }),
        "report" => RoundArchive::open(args.archive.clone().unwrap_or_else(|| PathBuf::from(".")))
            .map_err(|e| e.to_string())
            .and_then(|archive| {
                let replay = ingest_archive(&archive.with_telemetry(telemetry.clone()))?;
                report_archive(&replay, args.chips);
                Ok(())
            }),
        "demo" => {
            let dir = args
                .archive
                .clone()
                .unwrap_or_else(|| mlperf_bench::experiments_dir().join("round_archive"));
            write_archive(&dir, args.rounds, args.seed, args.bundles, &telemetry).and_then(
                |archive| {
                    println!();
                    if telemetry.is_enabled() {
                        demo_harness_run(&telemetry);
                    }
                    let replay = ingest_archive(&archive)?;
                    report_archive(&replay, args.chips);
                    let chips =
                        args.chips.unwrap_or_else(|| replay.history.common_scale().unwrap_or(16));
                    let per_round: Vec<_> = replay
                        .history
                        .outcomes()
                        .iter()
                        .map(|o| {
                            json!({
                                "round": o.round.to_string(),
                                "accepted": o.accepted.len(),
                                "quarantined": o.quarantined.len(),
                            })
                        })
                        .collect();
                    let summary = json!({
                        "archive": archive.root().display().to_string(),
                        "rounds": per_round,
                        "storage_faults": replay.faults.len(),
                        "anchor_chips": chips,
                        "avg_speedup_at_chips": replay.history.speedup_table(chips).average_ratio(),
                        "avg_scale_growth": replay.history.scale_table().average_ratio(),
                    });
                    let path = write_json("round_pipeline", &summary);
                    println!("wrote {}", path.display());
                    Ok(())
                },
            )
        }
        "loadgen" => run_loadgen(&args, &telemetry),
        "serve" => run_serve(&args, &telemetry),
        "storm" => run_storm(&args, &telemetry),
        _ => return usage(),
    };
    let result = result
        .and_then(|()| flush_metrics(args.metrics.as_ref(), &telemetry))
        .and_then(|()| flush_trace(args.trace.as_ref(), &telemetry));

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
