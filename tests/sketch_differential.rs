//! The sketch-vs-exact contract in the Tier-1 command: `cargo test -q`
//! at the root runs `mlperf-loadgen`'s differential suite — the
//! mergeable quantile sketch the drivers report percentiles from,
//! against the exact nearest-rank oracle, within `alpha`. One source,
//! compiled into both packages, so the two cannot drift apart.

#[path = "../crates/loadgen/tests/sketch_differential.rs"]
mod sketch_differential;
