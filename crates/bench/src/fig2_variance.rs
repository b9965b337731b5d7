//! **Figure 2** — run-to-run variation: epochs to reach the quality
//! target across many repetitions with identical hyperparameters and
//! different seeds, for NCF (top) and MiniGo (bottom).
//!
//! The paper uses this figure to motivate the multiple-run timing rule
//! (§3.2.2). The expected shape: a spread of several epochs for NCF and
//! a substantially wider relative spread for MiniGo (whose data comes
//! from game generation, so seed effects compound).

use crate::{mean, render_histogram, std_dev, Claim, Context, Report};
use mlperf_core::benchmarks::build;
use mlperf_core::harness::{run_benchmark_set_with, Benchmark};
use mlperf_core::suite::BenchmarkId;
use serde_json::{json, Value};

/// One benchmark's study as JSON, and its relative spread.
fn study(
    name: &str,
    make: impl Fn() -> Box<dyn Benchmark> + Sync,
    ctx: &Context,
    text: &mut String,
) -> (Value, f64) {
    let seeds = ctx.count(24);
    let seed_list: Vec<u64> = (0..seeds as u64).collect();
    // Runs that exhaust the budget are recorded at the budget — visible
    // as the right-edge bucket, like the paper's outliers.
    let epochs: Vec<usize> = run_benchmark_set_with(make, &seed_list, ctx.telemetry)
        .into_iter()
        .map(|r| r.epochs)
        .collect();
    let as_f64: Vec<f64> = epochs.iter().map(|&e| e as f64).collect();
    let (m, s) = (mean(&as_f64), std_dev(&as_f64));
    out!(text, "--- {name}: epochs to target across {seeds} seeds ---");
    out!(text, "{}", render_histogram(&epochs));
    out!(text, "mean {m:.2} epochs, std {s:.2}, relative spread {:.1}%\n", 100.0 * s / m);
    let result = json!({
        "benchmark": name,
        "seeds": seeds,
        "epochs": epochs,
        "mean_epochs": m,
        "std_epochs": s,
        "relative_spread": s / m,
    });
    (result, s / m)
}

pub(crate) fn claims(ncf_relative_spread: f64, minigo_relative_spread: f64) -> Vec<Claim> {
    vec![Claim::new(
        "minigo.relative_spread > ncf.relative_spread",
        minigo_relative_spread > ncf_relative_spread,
    )]
}

/// Trains NCF and MiniGo to target at `count` seeds each (default 24).
pub fn run(ctx: &Context) -> Report {
    let mut text = String::from("Figure 2: run-to-run variation in epochs-to-target\n\n");
    let (ncf, ncf_spread) = study("NCF", || build(BenchmarkId::Recommendation), ctx, &mut text);
    let (minigo, minigo_spread) =
        study("MiniGo", || build(BenchmarkId::ReinforcementLearning), ctx, &mut text);
    let ratio = minigo_spread / ncf_spread.max(1e-9);
    out!(text, "MiniGo relative spread {ratio:.2}x the NCF relative spread");
    Report::new(&[ncf, minigo], text, claims(ncf_spread, minigo_spread))
}
