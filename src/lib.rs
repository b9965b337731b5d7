//! Umbrella crate for the MLPerf Training benchmark reproduction.
//!
//! Re-exports every subsystem under a stable namespace so that examples
//! and downstream users need a single dependency:
//!
//! ```
//! use mlperf_suite::core::suite::BenchmarkId;
//! assert_eq!(BenchmarkId::ALL.len(), 10);
//! ```
//!
//! The subsystems:
//!
//! - [`tensor`] — dense f32 tensors, convolution, precision simulation.
//! - [`autograd`] — reverse-mode tape automatic differentiation.
//! - [`nn`] — neural-network layers and losses.
//! - [`optim`] — optimizers (two SGD momentum variants, Adam, LARS) and
//!   learning-rate schedules.
//! - [`data`] — synthetic dataset generators and loaders for every
//!   benchmark task, the v0.7 additions included.
//! - [`models`] — the miniaturized reference models (plus AlexNet
//!   for the Figure 1 precision study).
//! - [`gomini`] — a complete 9×9 Go engine used by the MiniGo benchmark.
//! - [`distsim`] — analytic distributed-training simulator used to
//!   reproduce the at-scale results (Figures 4 and 5).
//! - [`core`] — the paper's actual contribution: the benchmark suite
//!   definition, time-to-train harness, timing rules, run aggregation,
//!   submission divisions/categories, structured logging and compliance
//!   checking.
//! - [`submission`] — the round pipeline the MLPerf organization runs:
//!   concurrent bundle ingest, peer review with quarantine,
//!   leaderboards, and cross-round speedup/scale tables.
//! - [`loadgen`] — the inference-style scenario driver: SingleStream,
//!   Server, and Offline traffic over trained (or simulated) models,
//!   deterministic under a simulated clock, feeding the same review
//!   pipeline.
//! - [`service`] — the live submission service: a long-running
//!   concurrent ingest server keeping a round open, reviewing bundles
//!   on arrival, serving cached leaderboards and Prometheus metrics
//!   over a hand-rolled HTTP/1.1 layer.
//! - [`pool`] — the shared scoped worker pool behind every parallel
//!   stage, with process-wide busy/queue instrumentation.
//! - [`telemetry`] — zero-dependency instrumentation shared by the
//!   harness, ingest, and archive layers: hierarchical spans on
//!   explicit clocks, counters and gauges, quantile sketches,
//!   windowed time-series with a clock-driven reporter, and Chrome
//!   `trace_event`, Prometheus text, and collapsed-stack flamegraph
//!   exporters.

#![warn(missing_docs)]

pub use mlperf_autograd as autograd;
pub use mlperf_core as core;
pub use mlperf_data as data;
pub use mlperf_distsim as distsim;
pub use mlperf_gomini as gomini;
pub use mlperf_loadgen as loadgen;
pub use mlperf_models as models;
pub use mlperf_nn as nn;
pub use mlperf_optim as optim;
pub use mlperf_pool as pool;
pub use mlperf_service as service;
pub use mlperf_submission as submission;
pub use mlperf_telemetry as telemetry;
pub use mlperf_tensor as tensor;
