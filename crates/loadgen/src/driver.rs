//! The scenario drivers: SingleStream, Server, and Offline.
//!
//! Each scenario runs a [`ServeModel`] under a traffic pattern
//! (MLPerf Inference, Reddi et al.), measures per-query latency on an
//! explicit [`Clock`], and renders a compliant `:::MLLOG` run log so
//! the measurement flows through the same bundle → review → report
//! pipeline as a training run:
//!
//! - **SingleStream** — one query at a time, back to back, until both
//!   the scenario's minimum query count and minimum duration are met;
//!   judged on p90 latency against the configured SLO.
//! - **Server** — queries arrive by a seeded Poisson process and queue
//!   behind the model (service starts at the later of arrival and the
//!   previous completion); a doubling-then-bisection search finds the
//!   maximum arrival rate whose p99 latency still meets the SLO, and
//!   the highest passing probe is what gets reported.
//! - **Offline** — the query pool is issued all at once and served in
//!   batches; judged on throughput, with no latency bound (reported
//!   percentiles are completion offsets from the scenario start).
//!
//! Waiting is abstracted behind [`Pacer`] so the same driver loop runs
//! in real time (sleeping until the next arrival) or simulated time
//! (advancing a [`SimClock`] to it, making runs bit-identical for a
//! given seed).

use crate::model::{splitmix64, unit_f64, ServeModel, SimulatedModel};
use crate::percentile::LatencyPercentiles;
use mlperf_core::mllog::{keys, MlLogger};
use mlperf_core::rules::Scenario;
use mlperf_core::suite::BenchmarkId;
use mlperf_core::timing::{Clock, SimClock};
use mlperf_telemetry::{arg, QuantileSketch, Telemetry};
use serde_json::{json, Map};
use std::time::Duration;

/// Cap on Server rate-search probes: 24 doublings from 1 QPS reaches
/// ~16M QPS, far beyond any simulated model's capacity.
const MAX_DOUBLINGS: u32 = 24;

/// Bisection refinements after the doubling phase brackets the
/// capacity; 12 halvings pin the rate to ~0.02% of the bracket.
const BISECTION_STEPS: u32 = 12;

/// How a scenario driver waits out the gap until a query's scheduled
/// arrival time.
pub trait Pacer {
    /// Returns once `clock.now() >= deadline` (a no-op when the
    /// deadline has already passed).
    fn wait_until(&self, clock: &dyn Clock, deadline: Duration);
}

/// Real waiting: sleeps the remaining wall time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SleepPacer;

impl Pacer for SleepPacer {
    fn wait_until(&self, clock: &dyn Clock, deadline: Duration) {
        let now = clock.now();
        if now < deadline {
            std::thread::sleep(deadline - now);
        }
    }
}

/// Virtual waiting: advances a [`SimClock`] (a clone of the one the
/// driver measures with) straight to the deadline.
#[derive(Debug, Clone)]
pub(crate) struct SimPacer(pub SimClock);

impl Pacer for SimPacer {
    fn wait_until(&self, clock: &dyn Clock, deadline: Duration) {
        let now = clock.now();
        if now < deadline {
            self.0.advance(deadline - now);
        }
    }
}

/// Per-run driver configuration. The quality target is recorded in the
/// run log and must match the round's benchmark reference for review
/// to accept the bundle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Seed for the arrival process and the simulated service model.
    pub seed: u64,
    /// The benchmark's quality target, echoed into the run log.
    pub quality_target: f64,
    /// Latency SLO in milliseconds for the percentile-bound scenarios
    /// (p90 for SingleStream, p99 for Server).
    pub slo_ms: f64,
    /// Offline batch size (queries served per batch).
    pub offline_batch: u64,
}

impl ScenarioConfig {
    /// A config with the given seed and quality target, a 50 ms SLO,
    /// and 32-query Offline batches.
    pub fn new(seed: u64, quality_target: f64) -> Self {
        ScenarioConfig { seed, quality_target, slo_ms: 50.0, offline_batch: 32 }
    }

    /// The config a simulated sweep of `benchmark` uses: the spec's
    /// quality target (matching [`crate::bundle::loadgen_reference`])
    /// and an SLO of 8× the simulated model's mean service time —
    /// loose enough that SingleStream always passes, tight enough that
    /// the Server search tops out below the model's raw capacity.
    pub fn for_benchmark(benchmark: BenchmarkId, seed: u64) -> Self {
        ScenarioConfig {
            seed,
            quality_target: benchmark.spec().quality.value,
            slo_ms: 8.0 * SimulatedModel::base_service_ms(benchmark),
            offline_batch: 32,
        }
    }

    /// Overrides the latency SLO.
    pub fn with_slo_ms(mut self, slo_ms: f64) -> Self {
        self.slo_ms = slo_ms;
        self
    }
}

/// One scenario measurement over one model, with its rendered run log.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The benchmark served.
    pub benchmark: BenchmarkId,
    /// The scenario driven.
    pub scenario: Scenario,
    /// The seed the run was driven from.
    pub seed: u64,
    /// Queries issued (for Server: by the reported probe).
    pub queries: u64,
    /// Measured duration (for Server: of the reported probe).
    pub duration: Duration,
    /// Median query latency, milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile query latency, milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile query latency, milliseconds.
    pub p99_ms: f64,
    /// Achieved queries per second (for Server: at the maximum
    /// sustainable arrival rate).
    pub qps: f64,
    /// The latency SLO in effect, for the scenarios that bind one.
    pub slo_ms: Option<f64>,
    /// Whether the bound percentile met the SLO.
    pub slo_satisfied: Option<bool>,
    /// The rendered `:::MLLOG` run log.
    pub log: String,
}

/// What one measurement loop observed. Latencies aggregate into a
/// fixed-memory [`QuantileSketch`] (default `α = 1%` relative error,
/// see the sketch's module docs) instead of a retained sample vector,
/// so an arbitrarily long query stream costs constant memory. The
/// exact sorted `percentile()` stays in `crate::percentile` as the
/// oracle the differential tests compare against. Both the reported
/// percentiles and the SLO pass/fail decisions read the same sketch,
/// so a reported `p99 <= slo` holds by construction.
struct Measurement {
    queries: u64,
    duration: Duration,
    latency: QuantileSketch,
}

impl Measurement {
    fn qps(&self) -> f64 {
        self.queries as f64 / self.duration.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// The sketched `p`-th percentile (`p` in `[0, 100]`), 0 when no
    /// queries ran.
    fn pct(&self, p: f64) -> f64 {
        self.latency.quantile(p / 100.0).unwrap_or(0.0)
    }

    fn percentiles(&self) -> LatencyPercentiles {
        LatencyPercentiles { p50: self.pct(50.0), p90: self.pct(90.0), p99: self.pct(99.0) }
    }
}

/// The scenario driver: binds a clock, a pacer matching that clock,
/// and a telemetry sink, then runs models under scenarios.
pub struct LoadGenDriver<'a> {
    clock: &'a dyn Clock,
    pacer: &'a dyn Pacer,
    telemetry: &'a Telemetry,
}

impl<'a> LoadGenDriver<'a> {
    /// A driver measuring on `clock`, waiting via `pacer` (which must
    /// wait on the *same* timeline as `clock`), recording spans and latency sketches into
    /// `telemetry`.
    pub fn new(clock: &'a dyn Clock, pacer: &'a dyn Pacer, telemetry: &'a Telemetry) -> Self {
        LoadGenDriver { clock, pacer, telemetry }
    }

    /// Runs `model` under `scenario` and returns the measurement with
    /// its compliant run log.
    pub fn run(
        &self,
        model: &mut dyn ServeModel,
        scenario: Scenario,
        config: &ScenarioConfig,
    ) -> ScenarioResult {
        let benchmark = model.benchmark();
        let mut log = MlLogger::new();
        log.set_time_ms(self.now_ms());
        log.log(keys::SUBMISSION_BENCHMARK, json!(benchmark.slug()));
        log.log(keys::SEED, json!(config.seed));
        log.log(keys::QUALITY_TARGET, json!(config.quality_target));
        log.log(keys::INIT_START, json!(null));

        let mut scope = self.telemetry.scope(self.clock);
        let span = scope.start_with("loadgen", scenario.slug(), || {
            Map::from([arg("benchmark", json!(benchmark.slug())), arg("seed", json!(config.seed))])
        });

        log.set_time_ms(self.now_ms());
        log.log(keys::RUN_START, json!(null));
        log.log(keys::LOADGEN_SCENARIO, json!(scenario.slug()));

        let (measurement, slo_ms, slo_satisfied) = match scenario {
            Scenario::SingleStream => {
                let m = self.single_stream(model, &mut scope);
                let ok = m.pct(90.0) <= config.slo_ms;
                (m, Some(config.slo_ms), Some(ok))
            }
            Scenario::Server => {
                let (m, ok) = self.server(model, config, &mut scope);
                (m, Some(config.slo_ms), Some(ok))
            }
            Scenario::Offline => (self.offline(model, config, &mut scope), None, None),
        };

        let pct = measurement.percentiles();
        let qps = measurement.qps();

        log.set_time_ms(self.now_ms());
        log.log(keys::LOADGEN_QUERY_COUNT, json!(measurement.queries));
        log.log(keys::LOADGEN_DURATION_MS, json!(measurement.duration.as_millis() as u64));
        log.log(keys::LOADGEN_LATENCY_P50_MS, json!(pct.p50));
        log.log(keys::LOADGEN_LATENCY_P90_MS, json!(pct.p90));
        log.log(keys::LOADGEN_LATENCY_P99_MS, json!(pct.p99));
        log.log(keys::LOADGEN_QPS, json!(qps));
        if let Some(slo) = slo_ms {
            log.log(keys::LOADGEN_SLO_MS, json!(slo));
        }
        if let Some(ok) = slo_satisfied {
            log.log(keys::LOADGEN_SLO_SATISFIED, json!(ok));
        }
        log.log(keys::RUN_STOP, json!({"status": "success"}));

        scope.end_with(span, || {
            Map::from([
                arg("queries", json!(measurement.queries)),
                arg("p99_ms", json!(pct.p99)),
                arg("qps", json!(qps)),
            ])
        });

        ScenarioResult {
            benchmark,
            scenario,
            seed: config.seed,
            queries: measurement.queries,
            duration: measurement.duration,
            p50_ms: pct.p50,
            p90_ms: pct.p90,
            p99_ms: pct.p99,
            qps,
            slo_ms,
            slo_satisfied,
            log: log.render(),
        }
    }

    fn now_ms(&self) -> u64 {
        self.clock.now().as_millis() as u64
    }

    /// Back-to-back queries until the scenario's minimum query count
    /// and minimum duration are both met. Bails once the query floor is
    /// reached if the clock has not advanced at all — the signature of
    /// a model that consumes no time on this driver's clock (the
    /// resulting short run is then caught by compliance, not a hang).
    fn single_stream(
        &self,
        model: &mut dyn ServeModel,
        scope: &mut mlperf_telemetry::SpanScope<'_>,
    ) -> Measurement {
        let rules = Scenario::SingleStream.rules();
        let min_duration = Duration::from_millis(rules.min_duration_ms);
        let sketch = self.telemetry.sketch("loadgen.latency_ms");
        let query_counter = self.telemetry.counter("loadgen.queries");
        let started = self.clock.now();
        let mut latency = QuantileSketch::default();
        let mut queries = 0u64;
        loop {
            let issued = self.clock.now();
            model.serve(queries);
            let latency_ms = ms(self.clock.now() - issued);
            sketch.observe(latency_ms);
            scope.event_with("loadgen", "query", || {
                Map::from([arg("query", json!(queries)), arg("latency_ms", json!(latency_ms))])
            });
            latency.observe(latency_ms);
            queries += 1;
            query_counter.incr();
            self.telemetry.pulse();
            let elapsed = self.clock.now() - started;
            if queries >= rules.min_query_count && (elapsed >= min_duration || elapsed.is_zero()) {
                break;
            }
        }
        Measurement { queries, duration: self.clock.now() - started, latency }
    }

    /// One Server probe at a fixed arrival rate: seeded exponential
    /// inter-arrival gaps, single service queue (the next query starts
    /// at the later of its arrival and the previous completion), and
    /// latency measured arrival → completion, queueing included.
    fn server_probe(
        &self,
        model: &mut dyn ServeModel,
        config: &ScenarioConfig,
        rate_qps: f64,
        probe: u64,
    ) -> Measurement {
        let rules = Scenario::Server.rules();
        let min_duration = Duration::from_millis(rules.min_duration_ms);
        let mut state = splitmix64(config.seed ^ splitmix64(probe ^ 0x5e21));
        let sketch = self.telemetry.sketch("loadgen.latency_ms");
        let query_counter = self.telemetry.counter("loadgen.queries");
        let started = self.clock.now();
        let mut arrival = started;
        let mut latency = QuantileSketch::default();
        let mut queries = 0u64;
        loop {
            state = splitmix64(state);
            let gap_s = -(1.0 - unit_f64(state)).ln() / rate_qps;
            arrival += Duration::from_secs_f64(gap_s);
            self.pacer.wait_until(self.clock, arrival);
            model.serve(queries);
            let latency_ms = ms(self.clock.now().saturating_sub(arrival));
            latency.observe(latency_ms);
            sketch.observe(latency_ms);
            queries += 1;
            query_counter.incr();
            self.telemetry.pulse();
            let elapsed = self.clock.now() - started;
            if queries >= rules.min_query_count && (elapsed >= min_duration || elapsed.is_zero()) {
                break;
            }
        }
        Measurement { queries, duration: self.clock.now() - started, latency }
    }

    /// The Server scenario: finds the maximum sustainable arrival rate
    /// by doubling from 1 QPS until a probe's p99 breaks the SLO, then
    /// bisecting the bracket. Reports the highest passing probe's
    /// measurement (and `false` with the 1 QPS probe if even that
    /// fails).
    fn server(
        &self,
        model: &mut dyn ServeModel,
        config: &ScenarioConfig,
        scope: &mut mlperf_telemetry::SpanScope<'_>,
    ) -> (Measurement, bool) {
        // One observation per probe: its p99, not a query latency.
        let probe_p99 = self.telemetry.sketch("loadgen.server.latency_ms");
        let passes = |m: &Measurement| m.pct(99.0) <= config.slo_ms;
        let mut probe_index = 0u64;
        let mut probe = |rate: f64, scope: &mut mlperf_telemetry::SpanScope<'_>| {
            let span = scope.start_with("loadgen", "server_probe", || {
                Map::from([arg("rate_qps", json!(rate))])
            });
            let m = self.server_probe(model, config, rate, probe_index);
            probe_index += 1;
            let p99 = m.pct(99.0);
            probe_p99.observe(p99);
            scope.end_with(span, || {
                Map::from([arg("p99_ms", json!(p99)), arg("queries", json!(m.queries))])
            });
            m
        };

        let mut rate = 1.0f64;
        let mut best: Option<(f64, Measurement)> = None;
        for _ in 0..MAX_DOUBLINGS {
            let m = probe(rate, scope);
            if passes(&m) {
                best = Some((rate, m));
                rate *= 2.0;
            } else {
                break;
            }
        }
        let Some((mut lo, mut best_m)) = best else {
            let m = probe(1.0, scope);
            return (m, false);
        };
        let mut hi = rate;
        for _ in 0..BISECTION_STEPS {
            let mid = 0.5 * (lo + hi);
            let m = probe(mid, scope);
            if passes(&m) {
                lo = mid;
                best_m = m;
            } else {
                hi = mid;
            }
        }
        scope.event_with("loadgen", "max_sustainable_rate", || {
            Map::from([arg("rate_qps", json!(lo))])
        });
        (best_m, true)
    }

    /// The Offline scenario: the whole pool is considered arrived at
    /// the start; batches are served until the scenario's query and
    /// duration floors are met. A query's "latency" is its batch's
    /// completion offset from the scenario start.
    fn offline(
        &self,
        model: &mut dyn ServeModel,
        config: &ScenarioConfig,
        scope: &mut mlperf_telemetry::SpanScope<'_>,
    ) -> Measurement {
        let rules = Scenario::Offline.rules();
        let min_duration = Duration::from_millis(rules.min_duration_ms);
        let started = self.clock.now();
        let sketch = self.telemetry.sketch("loadgen.latency_ms");
        let query_counter = self.telemetry.counter("loadgen.queries");
        let mut latency = QuantileSketch::default();
        let mut queries = 0u64;
        let mut batches = 0u64;
        loop {
            let batch = config.offline_batch.max(1);
            model.serve_batch(queries, batch);
            let done_ms = ms(self.clock.now() - started);
            latency.observe_n(done_ms, batch);
            sketch.observe_n(done_ms, batch);
            queries += batch;
            batches += 1;
            query_counter.add(batch);
            self.telemetry.pulse();
            let elapsed = self.clock.now() - started;
            if queries >= rules.min_query_count && (elapsed >= min_duration || elapsed.is_zero()) {
                break;
            }
        }
        scope.event_with("loadgen", "offline_batches", || {
            Map::from([arg("batches", json!(batches)), arg("batch", json!(config.offline_batch))])
        });
        Measurement { queries, duration: self.clock.now() - started, latency }
    }
}

/// Runs all three scenarios over a fresh simulated model of
/// `benchmark` on its own [`SimClock`] — the fully deterministic
/// sweep the CLI demo, the tests, and the synthetic loadgen bundles
/// share. Same seed, same results, bit for bit.
pub fn simulated_scenario_sweep(
    benchmark: BenchmarkId,
    seed: u64,
    telemetry: &Telemetry,
) -> Vec<ScenarioResult> {
    let clock = SimClock::new();
    let pacer = SimPacer(clock.clone());
    let mut model = SimulatedModel::new(benchmark, seed, clock.clone());
    let driver = LoadGenDriver::new(&clock, &pacer, telemetry);
    let config = ScenarioConfig::for_benchmark(benchmark, seed);
    Scenario::ALL.iter().map(|s| driver.run(&mut model, *s, &config)).collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_core::compliance::check_log;
    use mlperf_core::mllog::MlLogger;

    fn sweep(benchmark: BenchmarkId, seed: u64) -> Vec<ScenarioResult> {
        simulated_scenario_sweep(benchmark, seed, &Telemetry::disabled())
    }

    #[test]
    fn sweep_covers_all_scenarios_in_order() {
        let results = sweep(BenchmarkId::Recommendation, 1);
        let scenarios: Vec<Scenario> = results.iter().map(|r| r.scenario).collect();
        assert_eq!(scenarios, Scenario::ALL.to_vec());
    }

    #[test]
    fn scenario_logs_are_compliant() {
        for result in sweep(BenchmarkId::Recommendation, 2) {
            let entries = MlLogger::parse(&result.log).expect("log parses");
            let issues = check_log(&entries);
            assert!(issues.is_empty(), "{}: {issues:?}", result.scenario);
        }
    }

    #[test]
    fn sweeps_are_bit_identical_for_the_same_seed() {
        for benchmark in [BenchmarkId::Recommendation, BenchmarkId::LanguageModeling] {
            let a = sweep(benchmark, 42);
            let b = sweep(benchmark, 42);
            assert_eq!(a, b, "{benchmark} sweep must be deterministic");
            let c = sweep(benchmark, 43);
            assert_ne!(a, c, "{benchmark} sweep must depend on the seed");
        }
    }

    #[test]
    fn server_reports_percentiles_and_max_qps_for_ncf_and_bert() {
        for benchmark in [BenchmarkId::Recommendation, BenchmarkId::LanguageModeling] {
            let results = sweep(benchmark, 7);
            let server = results.iter().find(|r| r.scenario == Scenario::Server).unwrap();
            assert!(server.p50_ms > 0.0 && server.p50_ms <= server.p90_ms);
            assert!(server.p90_ms <= server.p99_ms);
            assert!(server.qps > 0.0, "{benchmark}: no sustainable rate found");
            assert_eq!(server.slo_satisfied, Some(true));
            assert!(
                server.p99_ms <= server.slo_ms.unwrap(),
                "{benchmark}: reported probe must meet its own SLO"
            );
        }
    }

    #[test]
    fn server_max_qps_stays_below_raw_capacity() {
        // The model needs at least base_service x queries of time, so no
        // arrival rate above 1/(0.7 x base) can ever be sustained.
        let results = sweep(BenchmarkId::Recommendation, 11);
        let server = results.iter().find(|r| r.scenario == Scenario::Server).unwrap();
        let capacity_qps =
            1000.0 / (0.7 * SimulatedModel::base_service_ms(BenchmarkId::Recommendation));
        assert!(server.qps < capacity_qps, "{} >= {capacity_qps}", server.qps);
    }

    #[test]
    fn offline_beats_server_throughput() {
        // Batch amortization is the Offline scenario's entire reason to
        // exist: its throughput must exceed the Server maximum.
        let results = sweep(BenchmarkId::Recommendation, 5);
        let server = results.iter().find(|r| r.scenario == Scenario::Server).unwrap();
        let offline = results.iter().find(|r| r.scenario == Scenario::Offline).unwrap();
        assert!(offline.qps > server.qps, "offline {} <= server {}", offline.qps, server.qps);
        assert_eq!(offline.slo_ms, None);
        assert_eq!(offline.slo_satisfied, None);
    }

    #[test]
    fn scenarios_meet_their_minimums() {
        for result in sweep(BenchmarkId::LanguageModeling, 9) {
            let rules = result.scenario.rules();
            assert!(result.queries >= rules.min_query_count, "{}", result.scenario);
            assert!(
                result.duration.as_millis() as u64 >= rules.min_duration_ms,
                "{}",
                result.scenario
            );
        }
    }

    #[test]
    fn telemetry_records_scenario_spans() {
        let telemetry = Telemetry::recording();
        simulated_scenario_sweep(BenchmarkId::Recommendation, 3, &telemetry);
        let snapshot = telemetry.snapshot();
        for scenario in Scenario::ALL {
            assert!(
                snapshot.spans.iter().any(|s| s.name == scenario.slug()),
                "missing span for {scenario}"
            );
        }
        assert!(snapshot.counters.iter().any(|c| c.name == "loadgen.queries" && c.value > 0));
    }
}
