//! The training workloads: every model of a list trained to its
//! quality target through `core::harness`, once per backend per cycle.
//!
//! A *job* is one pass over the list on one backend; its time is the
//! sum of the runs' official time-to-train. The default path is the
//! `Reference` backend (the process default); the alternative path,
//! `Blocked`, is trained only in traced runs, because on the two-core
//! sandbox its time is set by what a cross-thread wake-up costs there,
//! which flips between ~40 us and ~150 us, sometimes from one process
//! to the next and sometimes for minutes at a time (`pool.fanout_us`):
//! the same code reads 2.7 s or 3.5 s per `train_seq` pass.
//!
//! Untraced cycles call `run_benchmark` as a submitter would. Traced
//! cycles drive the same `Benchmark` lifecycle step by step with a span
//! around each call, so the pass splits into training epochs,
//! evaluations and a remainder.
//!
//! The run seed is fixed, like the dataset seeds inside the program:
//! epochs-to-target moves by a factor of two with the run seed (the
//! paper's §3.2.2), and at some seeds maskrcnn misses its target
//! altogether, so a varying run seed would measure the seed, not the
//! code. `--seed` instead decides the order in which models and
//! backends are trained.

use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{Outcome, RunOptions};
use mlperf_core::benchmarks::build_on;
use mlperf_core::compliance::check_log;
use mlperf_core::harness::{run_benchmark, Benchmark};
use mlperf_core::mllog::{keys, MlLogger};
use mlperf_core::suite::BenchmarkId;
use mlperf_core::timing::{Clock, RealClock, RunTimer};
use mlperf_tensor::{enable_kernel_stats, kernel_stats, reset_kernel_stats, BackendKind};
use serde_json::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// The run seed of every training run (see the module docs).
pub const RUN_SEED: u64 = 1001;

/// The default path first, then the alternative.
const BACKENDS: [BackendKind; 2] = [BackendKind::Reference, BackendKind::Blocked];

/// What one training run produced.
struct Trained {
    ttt_s: f64,
    epochs: usize,
    quality: f64,
    reached: bool,
    log: MlLogger,
}

fn id_of(slug: &str) -> BenchmarkId {
    BenchmarkId::from_slug(slug).unwrap_or_else(|| panic!("no benchmark is called {slug}"))
}

fn train_untraced(slug: &str, backend: BackendKind) -> Trained {
    let mut bench = build_on(id_of(slug), backend);
    let result = run_benchmark(bench.as_mut(), RUN_SEED, &RealClock::new());
    Trained {
        ttt_s: result.time_to_train.as_secs_f64(),
        epochs: result.epochs,
        quality: result.quality,
        reached: result.reached_target,
        log: result.log,
    }
}

/// `run_benchmark`'s lifecycle, call for call, with a span around each
/// call into the benchmark. The timed region covers exactly what the
/// harness's covers: epochs, evaluations and the log lines between.
fn train_traced(slug: &str, backend: BackendKind, tracer: &mut Tracer, op: u64) -> Trained {
    let mut bench = build_on(id_of(slug), backend);
    let bench: &mut dyn Benchmark = bench.as_mut();
    let clock = RealClock::new();
    let mut timer = RunTimer::new(&clock);
    let mut log = MlLogger::new();
    let stamp = |log: &mut MlLogger| log.set_time_ms(clock.now().as_millis() as u64);

    stamp(&mut log);
    log.log(keys::SUBMISSION_BENCHMARK, json!(bench.id().slug()));
    log.log(keys::SEED, json!(RUN_SEED));
    log.log(keys::QUALITY_TARGET, json!(bench.target()));
    for (name, value) in bench.hyperparameters() {
        log.log(keys::HYPERPARAMETER, json!({"name": name, "value": value}));
    }
    log.log(keys::INIT_START, json!(null));
    timer.begin_reformatting();
    tracer.span("harness.prepare", op, || bench.prepare());
    timer.begin_model_creation();
    tracer.span("harness.create_model", op, || bench.create_model(RUN_SEED));
    stamp(&mut log);
    log.log(keys::INIT_STOP, json!(null));

    timer.begin_timed();
    let timed = tracer.enter("harness.timed", op);
    stamp(&mut log);
    log.log(keys::RUN_START, json!(null));
    let target = bench.target();
    let (mut quality, mut epochs, mut reached) = (f64::NEG_INFINITY, 0, false);
    while epochs < bench.max_epochs() {
        stamp(&mut log);
        log.log(keys::EPOCH_START, json!(epochs));
        tracer.span("harness.train_epoch", op, || bench.train_epoch(epochs));
        stamp(&mut log);
        log.log(keys::EPOCH_STOP, json!(epochs));
        quality = tracer.span("harness.evaluate", op, || bench.evaluate());
        stamp(&mut log);
        log.log(keys::EVAL_ACCURACY, json!(quality));
        epochs += 1;
        if quality >= target {
            reached = true;
            break;
        }
    }
    timer.stop();
    tracer.exit(timed);
    stamp(&mut log);
    log.log(keys::RUN_STOP, json!({"status": if reached { "success" } else { "aborted" }}));
    Trained { ttt_s: timer.time_to_train().as_secs_f64(), epochs, quality, reached, log }
}

/// A training set-up takes milliseconds, so it is repeated this many
/// times as often as the other workloads' for a median as steady.
const SETUP_SCALE: usize = 17;

/// Builds, prepares and creates every model of the list on each of
/// `backends` once; returns the seconds it took.
fn set_up_once(list: &[&str], backends: &[BackendKind]) -> f64 {
    let start = Instant::now();
    for slug in list {
        for &backend in backends {
            let mut bench = build_on(id_of(slug), backend);
            bench.prepare();
            bench.create_model(RUN_SEED);
            std::hint::black_box(&bench);
        }
    }
    start.elapsed().as_secs_f64()
}

fn backend_index(backend: BackendKind) -> usize {
    BACKENDS.iter().position(|b| *b == backend).expect("a listed backend")
}

/// Runs a training workload over `list`.
pub fn run(options: &RunOptions, list: &[&str], tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(options.seed);

    // An untraced run trains on the default backend only; a traced run
    // on both, which is also where the two are held bit-equal.
    let backends: &[BackendKind] = if tracer.enabled() { &BACKENDS } else { &BACKENDS[..1] };
    let setups: Vec<f64> = (0..options.size.setup_repeats * SETUP_SCALE)
        .map(|_| set_up_once(list, backends))
        .collect();
    out.set("setup_s", stats::median(&setups));

    if tracer.enabled() {
        enable_kernel_stats();
    }
    // pass_s[cycle kind][backend] = one job time per cycle.
    let mut untraced_pass_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut traced_pass_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut traced_ttt: BTreeMap<(String, usize), Vec<f64>> = BTreeMap::new();
    let mut first: BTreeMap<String, (usize, u64)> = BTreeMap::new();
    let mut kernel_counts = None;

    let started = Instant::now();
    let mut longest_cycle = 0.0f64;
    let mut cycle = 0u64;
    // Whole cycles only, as many as fit: another one starts while at
    // least half of it is expected to finish inside the run's seconds.
    // A traced run needs at least one cycle of each kind.
    let least = if tracer.enabled() { 2 } else { 1 };
    while cycle < least || started.elapsed().as_secs_f64() + longest_cycle / 2.0 < options.seconds {
        let cycle_started = Instant::now();
        // A traced run alternates untraced and traced cycles, so both
        // versions of the job are measured in the one process.
        let traced = tracer.enabled() && cycle % 2 == 1;
        let mut backends = backends.to_vec();
        if (options.seed + cycle / 2) % 2 == 1 {
            backends.reverse();
        }
        for backend in backends {
            let mut order: Vec<&str> = list.to_vec();
            rng.shuffle(&mut order);
            let count_kernels =
                traced && backend == BackendKind::Blocked && kernel_counts.is_none();
            if count_kernels {
                reset_kernel_stats();
            }
            let mut pass_s = 0.0;
            for slug in order {
                let trained = if traced {
                    train_traced(slug, backend, tracer, cycle)
                } else {
                    train_untraced(slug, backend)
                };
                pass_s += trained.ttt_s;
                if traced {
                    traced_ttt
                        .entry((slug.to_string(), backend_index(backend)))
                        .or_default()
                        .push(trained.ttt_s);
                }
                out.attempted += 1;
                if let Some(why) = check(slug, backend, &trained, &mut first) {
                    out.fail(why);
                }
            }
            if count_kernels {
                kernel_counts = Some(kernel_stats());
            }
            let passes = if traced { &mut traced_pass_s } else { &mut untraced_pass_s };
            passes[backend_index(backend)].push(pass_s);
        }
        longest_cycle = longest_cycle.max(cycle_started.elapsed().as_secs_f64());
        cycle += 1;
    }

    let [default, alternative] = &untraced_pass_s;
    if !tracer.enabled() {
        out.set("job_p50_ms", stats::median(default) * 1e3);
        out.set("jobs_per_s", default.len() as f64 / default.iter().sum::<f64>());
        return out;
    }

    // The layer table: shares of the traced jobs of both paths.
    let traced_pair = stats::median(&traced_pass_s[0]) + stats::median(&traced_pass_s[1]);
    let untraced_pair = stats::median(default) + stats::median(alternative);
    out.set("trace.job_ms", stats::median(&traced_pass_s[0]) * 1e3);
    out.set("trace.untraced_job_ms", stats::median(default) * 1e3);
    let every = |path: usize| -> Vec<f64> {
        untraced_pass_s[path].iter().chain(&traced_pass_s[path]).copied().collect()
    };
    out.set("trace.alt_job_ms", stats::median(&every(1)) * 1e3);
    out.set("trace.job_tail_ms", stats::tail(&every(0)).1 * 1e3);
    out.set("trace.overhead_pct", (traced_pair / untraced_pair - 1.0) * 100.0);
    let shares = tracer.shares_under("harness.timed");
    let share = |name: &str| shares.get(name).copied().unwrap_or(0.0);
    out.set("share.harness.train_epoch", share("harness.train_epoch"));
    out.set("share.harness.evaluate", share("harness.evaluate"));
    // The timed region's own time: log lines and the loop around them.
    out.set("trace.unattributed_pct", share("harness.timed"));
    for ((slug, backend), samples) in &traced_ttt {
        let pass = stats::median(&traced_pass_s[*backend]);
        let label = BACKENDS[*backend].label();
        out.set(format!("harness.ttt_share.{slug}.{label}"), stats::median(samples) / pass * 100.0);
    }
    for (slug, (epochs, _)) in &first {
        out.set(format!("harness.epochs.{slug}"), *epochs as f64);
    }
    if let Some(k) = kernel_counts {
        out.set("tensor.gemm_reference_calls", k.gemm_reference as f64);
        out.set("tensor.gemm_direct_calls", k.gemm_direct as f64);
        out.set("tensor.gemm_packed_calls", k.gemm_packed as f64);
        out.set("tensor.gemm_fanouts", k.gemm_fanouts as f64);
        out.set("tensor.packed_bytes", k.packed_bytes as f64);
    }
    out
}

/// The output checks on one run: it reached its target, its log passes
/// the compliance checker, and its epochs and final quality are
/// bit-equal to every other run of the same model, whatever the
/// backend and whether traced or not.
fn check(
    slug: &str,
    backend: BackendKind,
    trained: &Trained,
    first: &mut BTreeMap<String, (usize, u64)>,
) -> Option<String> {
    let label = backend.label();
    if !trained.reached {
        return Some(format!(
            "{slug} on {label} missed its target: quality {} after {} epochs",
            trained.quality, trained.epochs
        ));
    }
    let issues = check_log(trained.log.entries());
    if !issues.is_empty() {
        return Some(format!("{slug} on {label}: log is not compliant: {issues:?}"));
    }
    let this = (trained.epochs, trained.quality.to_bits());
    let seen = *first.entry(slug.to_string()).or_insert(this);
    (seen != this).then(|| {
        format!(
            "{slug} on {label} diverged: {} epochs to quality {} where an earlier run took {} to {}",
            trained.epochs,
            trained.quality,
            seen.0,
            f64::from_bits(seen.1)
        )
    })
}
