//! The serve side of the loadgen: what the scenario drivers query.
//!
//! Two implementations cover the two clock regimes. [`TrainedModel`]
//! wraps a converged [`Benchmark`] from the time-to-train harness and
//! answers each query with real inference compute, so it is measured
//! under a real clock. `SimulatedModel` replaces the compute with a
//! seeded per-query service-time draw that it *advances a
//! [`SimClock`] by*, so whole scenario sweeps — including the Server
//! QPS search — run deterministically in microseconds of wall time.

use mlperf_core::harness::{run_benchmark, Benchmark, RunResult};
use mlperf_core::suite::BenchmarkId;
use mlperf_core::timing::{Clock, SimClock};
use std::time::Duration;

/// A model under load: answers inference queries, consuming time on
/// the clock the scenario driver measures with.
pub trait ServeModel {
    /// The benchmark this model belongs to.
    fn benchmark(&self) -> BenchmarkId;

    /// Serves query number `query` (a monotonically increasing index;
    /// simulated models derive their per-query service time from it).
    fn serve(&mut self, query: u64);

    /// Serves `count` queries starting at `first_query` as one batch.
    /// The default processes them one at a time; batch-capable models
    /// override this to amortize per-query cost (the Offline scenario's
    /// whole point).
    fn serve_batch(&mut self, first_query: u64, count: u64) {
        for q in 0..count {
            self.serve(first_query + q);
        }
    }
}

/// SplitMix64: the per-query service-time hash. One multiply-xor chain
/// per draw, so the simulated model adds no measurable driver overhead.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps 64 random bits onto [0, 1).
pub(crate) fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// Mean per-query service time for a simulated model of `benchmark`,
/// in microseconds. Rough single-query inference cost ratios between
/// the miniaturized models; absolute values only set the QPS scale.
fn base_service_us(benchmark: BenchmarkId) -> u64 {
    match benchmark {
        BenchmarkId::Recommendation => 800,
        BenchmarkId::RecommendationDlrm => 1_200,
        BenchmarkId::TranslationNonRecurrent => 2_500,
        BenchmarkId::TranslationRecurrent => 3_500,
        BenchmarkId::ImageClassification => 4_000,
        BenchmarkId::ObjectDetection => 5_000,
        BenchmarkId::LanguageModeling => 6_000,
        BenchmarkId::SpeechRecognition => 8_000,
        BenchmarkId::InstanceSegmentation => 9_000,
        BenchmarkId::ReinforcementLearning => 12_000,
    }
}

/// A deterministic stand-in for a served model: each query costs a
/// seeded service-time draw around the benchmark's base cost, applied
/// by advancing a shared [`SimClock`]. Batched serving amortizes all
/// but the first query to an eighth of its solo cost.
#[derive(Debug, Clone)]
pub(crate) struct SimulatedModel {
    benchmark: BenchmarkId,
    seed: u64,
    clock: SimClock,
    base_us: u64,
}

impl SimulatedModel {
    /// A simulated model of `benchmark` whose service times are drawn
    /// from `seed` and charged to `clock` (a clone of the clock the
    /// driver measures with, so serving visibly takes time).
    pub fn new(benchmark: BenchmarkId, seed: u64, clock: SimClock) -> Self {
        SimulatedModel { benchmark, seed, clock, base_us: base_service_us(benchmark) }
    }

    /// The benchmark's mean per-query service time in milliseconds —
    /// what SLO defaults are scaled from.
    pub(crate) fn base_service_ms(benchmark: BenchmarkId) -> f64 {
        base_service_us(benchmark) as f64 / 1000.0
    }

    /// The seeded service time of query `query`, uniform on
    /// [0.7, 1.3) × base.
    fn service_us(&self, query: u64) -> u64 {
        let bits = splitmix64(self.seed ^ splitmix64(query.wrapping_add(1)));
        (self.base_us as f64 * (0.7 + 0.6 * unit_f64(bits))).round() as u64
    }
}

impl ServeModel for SimulatedModel {
    fn benchmark(&self) -> BenchmarkId {
        self.benchmark
    }

    fn serve(&mut self, query: u64) {
        self.clock.advance(Duration::from_micros(self.service_us(query)));
    }

    fn serve_batch(&mut self, first_query: u64, count: u64) {
        let mut us = 0u64;
        for i in 0..count {
            let solo = self.service_us(first_query + i);
            us += if i == 0 { solo } else { solo / 8 };
        }
        self.clock.advance(Duration::from_micros(us));
    }
}

/// A converged benchmark model served for real: every query runs one
/// full held-out evaluation pass, so latency is genuine inference
/// compute on whatever clock the driver measures with (pair it with a
/// real clock — under a simulated clock its queries take zero time and
/// the scenario cannot meet its duration bound).
pub struct TrainedModel {
    benchmark: Box<dyn Benchmark>,
    id: BenchmarkId,
}

impl TrainedModel {
    /// Wraps an already-prepared, already-trained benchmark.
    pub fn new(benchmark: Box<dyn Benchmark>) -> Self {
        let id = benchmark.id();
        TrainedModel { benchmark, id }
    }

    /// Trains `benchmark` to convergence under the harness (the normal
    /// time-to-train path) and returns the servable model plus the
    /// training run's result.
    pub fn converge(
        mut benchmark: Box<dyn Benchmark>,
        seed: u64,
        clock: &dyn Clock,
    ) -> (TrainedModel, RunResult) {
        let result = run_benchmark(benchmark.as_mut(), seed, clock);
        (TrainedModel::new(benchmark), result)
    }
}

impl ServeModel for TrainedModel {
    fn benchmark(&self) -> BenchmarkId {
        self.id
    }

    fn serve(&mut self, _query: u64) {
        let _ = self.benchmark.evaluate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_service_times_are_seeded_and_bounded() {
        let clock = SimClock::new();
        let model = SimulatedModel::new(BenchmarkId::Recommendation, 7, clock);
        for q in 0..1000 {
            let us = model.service_us(q);
            assert!((560..=1040).contains(&us), "query {q}: {us}us outside [0.7, 1.3) x base");
        }
        let again = SimulatedModel::new(BenchmarkId::Recommendation, 7, SimClock::new());
        assert_eq!(model.service_us(42), again.service_us(42));
        let other_seed = SimulatedModel::new(BenchmarkId::Recommendation, 8, SimClock::new());
        assert_ne!(model.service_us(42), other_seed.service_us(42));
    }

    #[test]
    fn serving_advances_the_shared_clock() {
        let clock = SimClock::new();
        let mut model = SimulatedModel::new(BenchmarkId::LanguageModeling, 1, clock.clone());
        model.serve(0);
        let after_one = clock.now();
        assert!(after_one > Duration::ZERO);
        model.serve(1);
        assert!(clock.now() > after_one);
    }

    #[test]
    fn batch_serving_is_cheaper_than_solo() {
        let solo_clock = SimClock::new();
        let mut solo = SimulatedModel::new(BenchmarkId::Recommendation, 3, solo_clock.clone());
        for q in 0..64 {
            solo.serve(q);
        }
        let batch_clock = SimClock::new();
        let mut batched = SimulatedModel::new(BenchmarkId::Recommendation, 3, batch_clock.clone());
        batched.serve_batch(0, 64);
        assert!(batch_clock.now() < solo_clock.now());
        assert!(batch_clock.now() > Duration::ZERO);
    }
}
