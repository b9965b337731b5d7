//! `mlperf-loadgen`: the inference-style scenario driver.
//!
//! The training half of the suite measures time-to-train; this crate
//! supplies the traffic half (after MLPerf Inference's LoadGen, Reddi
//! et al.): it takes a served model — a converged [`Benchmark`] from
//! the harness, or a deterministic simulated stand-in — and measures
//! it under three load scenarios:
//!
//! | Scenario       | Traffic                         | Judged on                |
//! |----------------|---------------------------------|--------------------------|
//! | `single_stream`| one query at a time, back to back | p90 latency vs SLO     |
//! | `server`       | seeded Poisson arrivals         | max QPS with p99 ≤ SLO   |
//! | `offline`      | whole pool at once, batched     | throughput (QPS)         |
//!
//! All timing flows through the [`Clock`] trait, so a sweep over a
//! simulated model on a [`SimClock`] ([`simulated_scenario_sweep`]) is
//! bit-identical for a given seed, while a [`TrainedModel`] on a real
//! clock measures genuine inference compute. Results render as scenario-tagged `:::MLLOG`
//! run logs (see `mlperf_core::mllog::keys::LOADGEN_SCENARIO` and
//! friends) and pack into ordinary submission bundles, so loadgen
//! measurements ride the existing bundle → review → report pipeline,
//! with the scenario compliance bounds of
//! `mlperf_core::rules::Scenario::rules` enforced during review.
//!
//! [`Benchmark`]: mlperf_core::harness::Benchmark
//! [`Clock`]: mlperf_core::timing::Clock
//! [`SimClock`]: mlperf_core::timing::SimClock

#![warn(missing_docs)]

pub mod bundle;
pub mod driver;
pub mod model;
pub mod percentile;

pub use bundle::{loadgen_bundle, loadgen_reference, loadgen_run_set};
pub use driver::{
    simulated_scenario_sweep, LoadGenDriver, Pacer, ScenarioConfig, ScenarioResult, SleepPacer,
};
pub use model::{ServeModel, TrainedModel};
pub use percentile::percentile;
