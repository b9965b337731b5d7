//! An analytic simulator of distributed ML training systems.
//!
//! The paper's at-scale results (Figures 4 and 5) compare *submission
//! rounds*: how much faster the fastest 16-chip entries got from v0.5 to
//! v0.6, and how much larger the fastest systems grew. Reproducing that
//! requires a population of systems spanning orders of magnitude in
//! scale — which no single machine can provide — so, per the
//! substitution rule, this crate models them analytically:
//!
//! - a catalog of accelerator chips and interconnects ([`ChipSpec`],
//!   [`Interconnect`]);
//! - a ring all-reduce communication model and a data-parallel
//!   step-time model;
//! - an epochs-to-target convergence model with a critical batch size
//!   ([`ConvergenceModel`]), calibrated to the paper's own numbers
//!   (ResNet-50: ~64 epochs at batch 4K, 80+ at 16K — §2.2.2);
//! - vendor/round submission simulation ([`simulate_submission`],
//!   [`best_time_at_scale`], [`best_overall`]) with the v0.6 rule and
//!   software changes (LARS for large-batch ResNet, higher quality
//!   targets, maturing software stacks).
//!
//! All quantities are deterministic functions of their inputs plus an
//! explicit seed where run-to-run noise is modelled.

#![warn(missing_docs)]

mod chips;
mod convergence;
mod scale;
mod submission;

pub use chips::{ChipSpec, Interconnect};
pub use convergence::ConvergenceModel;
pub use scale::{cloud_scale, CloudSystemDescription};
pub use submission::{
    best_overall, best_time_at_scale, simulate_run_set, simulate_submission, Round, SimBenchmark,
    SimResult, Vendor,
};
