//! The MLPerf Training benchmark methodology — the paper's primary
//! contribution, reproduced end to end.
//!
//! This crate implements everything §3 and §4 of the paper specify:
//!
//! - [`suite`] — the benchmark suite of Table 1: seven tasks with
//!   datasets, models and quality thresholds, plus per-task run-count
//!   requirements;
//! - [`metrics`] — the quality metrics the thresholds are stated in
//!   (top-1 accuracy, mAP for boxes and masks, BLEU, HR@10, move-match
//!   percentage);
//! - [`timing`] — the time-to-train clock with the paper's exclusions
//!   (system init, model creation up to a cap, one-time data
//!   reformatting) — §3.2.1;
//! - [`harness`] — the [`harness::Benchmark`] trait and the
//!   [`harness::run_benchmark`] driver that times a full training
//!   session to its quality target;
//! - [`aggregate`] — the result stabilization rules of §3.2.2 (5 runs
//!   for vision, 10 otherwise; drop fastest and slowest; arithmetic
//!   mean of the rest);
//! - [`mllog`] — structured submission logging, and [`compliance`] —
//!   the rule checker run over submission logs during review (§4.1);
//! - [`equivalence`] — Closed-division architecture-fingerprint
//!   checking (§4.2.1 workload equivalence);
//! - [`rules`] — divisions (Closed/Open), system categories
//!   (Available/Preview/Research), hyperparameter restrictions and
//!   borrowing (§3.4, §4.2);
//! - [`recommend`] — the §6 future-work table mapping system scale to
//!   recommended hyperparameters;
//! - [`report`] — result reporting without a summary score (§4.2.4);
//! - [`benchmarks`] — the ten suite rows, each a recipe wiring
//!   `mlperf-models` and `mlperf-data` into the harness through one
//!   lifecycle driver, built with `build` / `build_on`.

#![warn(missing_docs)]

pub mod aggregate;
pub mod benchmarks;
pub mod compliance;
pub mod equivalence;
pub mod harness;
pub mod metrics;
pub mod mllog;
pub mod recommend;
pub mod report;
pub mod rules;
pub mod suite;
pub mod timing;
