//! The time-to-train harness: drives a [`Benchmark`] through the
//! lifecycle of §3.2 — untimed preparation, untimed (capped) model
//! creation, then timed epochs with periodic evaluation until the
//! quality target is reached — while emitting the structured log of
//! §4.1.

use crate::mllog::{keys, MlLogger};
use crate::suite::BenchmarkId;
use crate::timing::{Clock, RunTimer};
use mlperf_telemetry::{arg, Telemetry};
use serde_json::{json, Map};
use std::time::Duration;

/// A trainable workload the harness can time.
///
/// Implementations live in [`crate::benchmarks`] — one per Table 1 row.
/// The lifecycle methods are called in order: [`Benchmark::prepare`]
/// (untimed), [`Benchmark::create_model`] (untimed up to the cap), then
/// alternating [`Benchmark::train_epoch`] / [`Benchmark::evaluate`]
/// inside the timed region.
pub trait Benchmark {
    /// Which suite row this is.
    fn id(&self) -> BenchmarkId;

    /// Untimed one-time data generation / reformatting.
    fn prepare(&mut self);

    /// Untimed model creation and initialization for a run seed.
    fn create_model(&mut self, seed: u64);

    /// One timed training epoch (0-based).
    fn train_epoch(&mut self, epoch: usize);

    /// Timed evaluation on held-out data; returns the quality metric.
    fn evaluate(&mut self) -> f64;

    /// The quality threshold that stops the clock.
    fn target(&self) -> f64;

    /// Epoch budget after which the run is declared failed.
    fn max_epochs(&self) -> usize;

    /// The hyperparameter choices this run uses, recorded into the
    /// submission log (§4.1) and validated against the Closed-division
    /// rules during review. The default is an empty list.
    fn hyperparameters(&self) -> Vec<(String, f64)> {
        Vec::new()
    }
}

/// The outcome of one timed run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Which benchmark ran.
    pub benchmark: BenchmarkId,
    /// The run's seed.
    pub seed: u64,
    /// Official time-to-train (timed region + over-cap model creation).
    pub time_to_train: Duration,
    /// Time excluded under the §3.2.1 rules.
    pub excluded: Duration,
    /// Epochs executed.
    pub epochs: usize,
    /// Final quality achieved.
    pub quality: f64,
    /// Whether the target was reached within the epoch budget.
    pub reached_target: bool,
    /// Quality after each evaluation, in epoch order.
    pub quality_history: Vec<f64>,
    /// The structured submission log.
    pub log: MlLogger,
}

/// Runs one complete timed training session under the paper's rules.
pub fn run_benchmark(bench: &mut dyn Benchmark, seed: u64, clock: &dyn Clock) -> RunResult {
    run_benchmark_with(bench, seed, clock, &Telemetry::disabled())
}

/// [`run_benchmark`] with instrumentation: emits one `harness`-layer
/// span per lifecycle stage (`prepare`, `create_model`, each `epoch`
/// and `eval`) under a root `run` span, all timestamped from the run's
/// own `clock`, plus `harness.*` counters. With a disabled handle this
/// is exactly [`run_benchmark`]: no spans, no clock reads beyond the
/// timer's.
pub fn run_benchmark_with(
    bench: &mut dyn Benchmark,
    seed: u64,
    clock: &dyn Clock,
    telemetry: &Telemetry,
) -> RunResult {
    let mut logger = MlLogger::new();
    let mut timer = RunTimer::new(clock);
    let log_time = |logger: &mut MlLogger, clock: &dyn Clock| {
        logger.set_time_ms(clock.now().as_millis() as u64);
    };
    let slug = bench.id().slug();
    let mut scope = telemetry.scope(clock);
    let run_span = scope.start_with("harness", "run", || {
        Map::from([arg("benchmark", json!(slug)), arg("seed", json!(seed))])
    });
    telemetry.counter("harness.runs").incr();

    log_time(&mut logger, clock);
    logger.log(keys::SUBMISSION_BENCHMARK, json!(bench.id().slug()));
    logger.log(keys::SEED, json!(seed));
    logger.log(keys::QUALITY_TARGET, json!(bench.target()));
    for (name, value) in bench.hyperparameters() {
        logger.log(keys::HYPERPARAMETER, json!({"name": name, "value": value}));
    }

    // Untimed: system init + data preparation/reformatting.
    logger.log(keys::INIT_START, json!(null));
    timer.begin_reformatting();
    scope.record("harness", "prepare", || bench.prepare());
    // Untimed (capped): model creation.
    timer.begin_model_creation();
    scope.record("harness", "create_model", || bench.create_model(seed));
    log_time(&mut logger, clock);
    logger.log(keys::INIT_STOP, json!(null));

    // Timed region: begins when training data is first touched.
    timer.begin_timed();
    log_time(&mut logger, clock);
    logger.log(keys::RUN_START, json!(null));
    let target = bench.target();
    let epoch_counter = telemetry.counter("harness.epochs");
    let mut quality = f64::NEG_INFINITY;
    let mut history = Vec::new();
    let mut epochs = 0;
    let mut reached = false;
    while epochs < bench.max_epochs() {
        log_time(&mut logger, clock);
        logger.log(keys::EPOCH_START, json!(epochs));
        let epoch_span =
            scope.start_with("harness", "epoch", || Map::from([arg("epoch", json!(epochs))]));
        bench.train_epoch(epochs);
        scope.end(epoch_span);
        epoch_counter.incr();
        log_time(&mut logger, clock);
        logger.log(keys::EPOCH_STOP, json!(epochs));
        let eval_span = scope.start("harness", "eval");
        quality = bench.evaluate();
        scope.end_with(eval_span, || Map::from([arg("quality", json!(quality))]));
        history.push(quality);
        log_time(&mut logger, clock);
        logger.log(keys::EVAL_ACCURACY, json!(quality));
        epochs += 1;
        if quality >= target {
            reached = true;
            break;
        }
    }
    timer.stop();
    log_time(&mut logger, clock);
    logger.log(keys::RUN_STOP, json!({"status": if reached { "success" } else { "aborted" }}));
    if reached {
        telemetry.counter("harness.epochs_to_target").add(epochs as u64);
    }
    scope.end_with(run_span, || {
        Map::from([
            arg("epochs", json!(epochs)),
            arg("quality", json!(quality)),
            arg("reached_target", json!(reached)),
        ])
    });

    RunResult {
        benchmark: bench.id(),
        seed,
        time_to_train: timer.time_to_train(),
        excluded: timer.excluded(),
        epochs,
        quality,
        reached_target: reached,
        quality_history: history,
        log: logger,
    }
}

/// Runs one timed session per seed, in parallel (one OS thread per
/// run — each run builds its own model, graph and clock, exactly as
/// independent submission runs would on separate machines). Results are
/// returned in seed order.
///
/// `make` is called once per run on the run's own thread. Every run's
/// spans land in the shared `telemetry` sink, each on its own track,
/// with each run's per-thread clock aligned onto the sink timeline.
pub fn run_benchmark_set_with<F>(make: F, seeds: &[u64], telemetry: &Telemetry) -> Vec<RunResult>
where
    F: Fn() -> Box<dyn Benchmark> + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let make = &make;
                scope.spawn(move || {
                    let mut bench = make();
                    let clock = crate::timing::RealClock::new();
                    run_benchmark_with(bench.as_mut(), seed, &clock, telemetry)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("benchmark run thread panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::SimClock;

    /// A scripted benchmark whose quality follows a fixed curve and
    /// whose stages advance a [`SimClock`].
    struct Scripted {
        clock: SimClock,
        curve: Vec<f64>,
        target: f64,
        prepare_secs: u64,
        create_secs: u64,
        epoch_secs: u64,
        prepared: bool,
        created: bool,
        epoch: usize,
    }

    impl Scripted {
        fn new(clock: SimClock, curve: Vec<f64>, target: f64) -> Self {
            Scripted {
                clock,
                curve,
                target,
                prepare_secs: 100,
                create_secs: 50,
                epoch_secs: 10,
                prepared: false,
                created: false,
                epoch: 0,
            }
        }
    }

    impl Benchmark for Scripted {
        fn id(&self) -> BenchmarkId {
            BenchmarkId::Recommendation
        }
        fn prepare(&mut self) {
            self.clock.advance(Duration::from_secs(self.prepare_secs));
            self.prepared = true;
        }
        fn create_model(&mut self, _seed: u64) {
            assert!(self.prepared, "create_model before prepare");
            self.clock.advance(Duration::from_secs(self.create_secs));
            self.created = true;
        }
        fn train_epoch(&mut self, epoch: usize) {
            assert!(self.created, "train before create_model");
            assert_eq!(epoch, self.epoch, "epochs must be sequential");
            self.clock.advance(Duration::from_secs(self.epoch_secs));
            self.epoch += 1;
        }
        fn evaluate(&mut self) -> f64 {
            self.curve[(self.epoch - 1).min(self.curve.len() - 1)]
        }
        fn target(&self) -> f64 {
            self.target
        }
        fn max_epochs(&self) -> usize {
            20
        }
    }

    #[test]
    fn stops_at_target_and_excludes_preparation() {
        let clock = SimClock::new();
        let bench = Scripted::new(clock.clone(), vec![0.1, 0.3, 0.62, 0.64, 0.9], 0.635);
        let mut bench = bench;
        let result = run_benchmark(&mut bench, 7, &clock);
        assert!(result.reached_target);
        assert_eq!(result.epochs, 4); // quality 0.64 >= 0.635 at epoch 4
                                      // TTT covers only the 4 epochs, not the 150s of prep/create.
        assert_eq!(result.time_to_train, Duration::from_secs(40));
        assert_eq!(result.excluded, Duration::from_secs(150));
        assert_eq!(result.quality_history.len(), 4);
    }

    #[test]
    fn gives_up_at_epoch_budget() {
        let clock = SimClock::new();
        let mut bench = Scripted::new(clock.clone(), vec![0.1], 0.99);
        let result = run_benchmark(&mut bench, 7, &clock);
        assert!(!result.reached_target);
        assert_eq!(result.epochs, 20);
    }

    #[test]
    fn log_records_lifecycle_in_order() {
        let clock = SimClock::new();
        let mut bench = Scripted::new(clock.clone(), vec![1.0], 0.5);
        let result = run_benchmark(&mut bench, 3, &clock);
        let order: Vec<&str> = result.log.entries().iter().map(|e| e.key.as_str()).collect();
        let pos = |k: &str| order.iter().position(|&x| x == k).unwrap_or(usize::MAX);
        assert!(pos(keys::INIT_START) < pos(keys::RUN_START));
        assert!(pos(keys::RUN_START) < pos(keys::EPOCH_START));
        assert!(pos(keys::EPOCH_STOP) < pos(keys::EVAL_ACCURACY));
        assert!(pos(keys::EVAL_ACCURACY) < pos(keys::RUN_STOP));
        // Seed recorded.
        let seed_entry = result.log.entries().iter().find(|e| e.key == keys::SEED).unwrap();
        assert_eq!(seed_entry.value, serde_json::json!(3));
    }

    #[test]
    fn parallel_run_set_matches_sequential() {
        // The parallel driver must produce the same quality
        // trajectories as sequential runs with the same seeds (timing
        // differs; determinism of training must not).
        let seeds = [1u64, 2, 3, 4];
        let parallel = run_benchmark_set_with(
            || crate::benchmarks::build(BenchmarkId::Recommendation),
            &seeds,
            &Telemetry::disabled(),
        );
        assert_eq!(parallel.len(), seeds.len());
        for (result, &seed) in parallel.iter().zip(seeds.iter()) {
            assert_eq!(result.seed, seed, "results out of order");
            let mut bench = crate::benchmarks::build(BenchmarkId::Recommendation);
            let clock = crate::timing::RealClock::new();
            let sequential = run_benchmark(bench.as_mut(), seed, &clock);
            assert_eq!(result.quality_history, sequential.quality_history);
            assert_eq!(result.epochs, sequential.epochs);
        }
    }

    #[test]
    fn instrumented_run_emits_stage_spans_on_the_sim_clock() {
        let clock = SimClock::new();
        let mut bench = Scripted::new(clock.clone(), vec![0.1, 0.9], 0.5);
        let telemetry = Telemetry::recording();
        let result = run_benchmark_with(&mut bench, 11, &clock, &telemetry);
        assert!(result.reached_target);

        let snapshot = telemetry.snapshot();
        // Root run span + prepare + create_model + 2 epochs + 2 evals.
        assert_eq!(snapshot.spans_in("harness").count(), 7);
        let run = snapshot.spans.iter().find(|s| s.name == "run").unwrap();
        assert_eq!(run.parent, None);
        assert_eq!(run.args.get("benchmark"), Some(&json!("ncf")));
        assert_eq!(run.args.get("reached_target"), Some(&json!(true)));
        assert!(
            snapshot.spans.iter().filter(|s| s.name != "run").all(|s| s.parent == Some(run.id)),
            "stage spans nest under the run span"
        );
        // Durations come from the simulated clock, exactly.
        let epoch = snapshot.spans.iter().find(|s| s.name == "epoch").unwrap();
        assert_eq!(epoch.duration_us(), 10_000_000);
        let prepare = snapshot.spans.iter().find(|s| s.name == "prepare").unwrap();
        assert_eq!(prepare.duration_us(), 100_000_000);

        let counter =
            |name: &str| snapshot.counters.iter().find(|c| c.name == name).map(|c| c.value);
        assert_eq!(counter("harness.runs"), Some(1));
        assert_eq!(counter("harness.epochs"), Some(2));
        assert_eq!(counter("harness.epochs_to_target"), Some(2));
    }

    #[test]
    fn run_stop_status_reflects_outcome() {
        let clock = SimClock::new();
        let mut ok = Scripted::new(clock.clone(), vec![1.0], 0.5);
        let r = run_benchmark(&mut ok, 0, &clock);
        let stop = r.log.entries().iter().find(|e| e.key == keys::RUN_STOP).unwrap();
        assert_eq!(stop.value["status"], "success");

        let clock2 = SimClock::new();
        let mut bad = Scripted::new(clock2.clone(), vec![0.0], 0.5);
        let r2 = run_benchmark(&mut bad, 0, &clock2);
        let stop2 = r2.log.entries().iter().find(|e| e.key == keys::RUN_STOP).unwrap();
        assert_eq!(stop2.value["status"], "aborted");
    }
}
