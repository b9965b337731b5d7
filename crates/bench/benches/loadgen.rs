//! Criterion benchmarks for the loadgen scenario driver's dispatch
//! hot path: the Server scenario's Poisson arrival loop and QPS binary
//! search with the model stubbed out (a fixed-cost `SimClock` advance
//! per query), so the numbers isolate driver overhead — arrival
//! pacing, latency bookkeeping, mllog rendering — from model compute.
//! Baseline numbers live in `BENCH.md` at the repository root.

use criterion::{criterion_group, criterion_main, Criterion};
use mlperf_core::rules::Scenario;
use mlperf_core::suite::BenchmarkId;
use mlperf_core::timing::SimClock;
use mlperf_loadgen::{
    simulated_scenario_sweep, LoadGenDriver, ScenarioConfig, ServeModel, SimPacer,
};
use mlperf_telemetry::Telemetry;
use std::hint::black_box;
use std::time::Duration;

/// The stub: every query costs exactly `cost` on the shared
/// `SimClock`, nothing else. All remaining time in a scenario run is
/// the driver's own dispatch loop.
struct StubModel {
    clock: SimClock,
    cost: Duration,
}

impl ServeModel for StubModel {
    fn benchmark(&self) -> BenchmarkId {
        BenchmarkId::Recommendation
    }

    fn serve(&mut self, _query: u64) {
        self.clock.advance(self.cost);
    }
}

fn bench_server_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("loadgen");
    group.sample_size(20);
    // One full Server scenario: doubling probes to find the SLO
    // ceiling, then bisection — each probe an open arrival loop of at
    // least 128 queries.
    group.bench_function("server_dispatch_stubbed", |b| {
        b.iter(|| {
            let clock = SimClock::new();
            let pacer = SimPacer(clock.clone());
            let telemetry = Telemetry::disabled();
            let driver = LoadGenDriver::new(&clock, &pacer, &telemetry);
            let mut model = StubModel { clock: clock.clone(), cost: Duration::from_micros(800) };
            let config = ScenarioConfig::new(black_box(11), 0.635).with_slo_ms(6.4);
            driver.run(&mut model, Scenario::Server, &config)
        })
    });
    // The same loop with per-query telemetry recording: the gap is the
    // full cost of span/sketch capture on the dispatch path.
    group.bench_function("server_dispatch_stubbed_traced", |b| {
        b.iter(|| {
            let clock = SimClock::new();
            let pacer = SimPacer(clock.clone());
            let telemetry = Telemetry::recording();
            let driver = LoadGenDriver::new(&clock, &pacer, &telemetry);
            let mut model = StubModel { clock: clock.clone(), cost: Duration::from_micros(800) };
            let config = ScenarioConfig::new(black_box(11), 0.635).with_slo_ms(6.4);
            driver.run(&mut model, Scenario::Server, &config)
        })
    });
    // The whole three-scenario sweep over the simulated NCF model —
    // what the CLI demo and the review round-trip integration test run.
    group.bench_function("simulated_sweep_ncf", |b| {
        b.iter(|| {
            simulated_scenario_sweep(
                black_box(BenchmarkId::Recommendation),
                black_box(11),
                &Telemetry::disabled(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_server_dispatch);
criterion_main!(benches);
