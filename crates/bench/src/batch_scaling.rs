//! **§2.2.2** — the effect of minibatch scale on epochs-to-target:
//! "MLPerf v0.5 ResNet-50 takes around 64 epochs to reach the target
//! top-1 accuracy … at a minibatch size of 4K, while a minibatch size
//! of 16K can require over 80 epochs … a 30% increase in computation."
//!
//! Two reproductions:
//!
//! 1. the `distsim` convergence model calibrated to the paper's own
//!    data points (prints the 4K/16K numbers exactly);
//! 2. an *empirical* sweep on the miniaturized ResNet benchmark —
//!    batch 16 → 256 with the linear learning-rate scaling rule —
//!    showing the same shape at laptop scale: epochs-to-target grows
//!    with batch size past the critical region.

use crate::{Claim, Context, Report};
use mlperf_core::benchmarks::resnet_at;
use mlperf_core::harness::run_benchmark;
use mlperf_core::suite::SuiteVersion;
use mlperf_core::timing::RealClock;
use mlperf_distsim::ConvergenceModel;
use serde_json::json;

/// The calibrated model's epochs at batch 4K and 16K, and the empirical
/// mean epochs-to-target in order of growing batch.
pub(crate) fn claims(at_4k: f64, at_16k: f64, empirical_means: &[f64]) -> Vec<Claim> {
    vec![
        Claim::new("the distsim model gives 64.0 epochs at batch 4K", (at_4k - 64.0).abs() < 0.05),
        Claim::new(
            "the distsim model gives +30% computation at batch 16K",
            (100.0 * (at_16k / at_4k - 1.0) - 30.0).abs() < 0.5,
        ),
        Claim::new(
            "empirical mean epochs-to-target are non-decreasing in batch size",
            empirical_means.windows(2).all(|w| w[0] <= w[1]),
        ),
    ]
}

/// Evaluates the calibrated model and sweeps the mini ResNet's batch.
pub fn run(_ctx: &Context) -> Report {
    let mut text = String::from("Batch-size scaling study (paper §2.2.2)\n\n");

    // Part 1: the calibrated analytic model.
    let m = ConvergenceModel::resnet_paper();
    out!(text, "convergence model (calibrated to the paper's ResNet-50 data):");
    out!(text, "{:>8} {:>10}", "batch", "epochs");
    let mut paper_model = Vec::new();
    for batch in [256usize, 1024, 4096, 8192, 16384, 32768, 65536] {
        let e = m.epochs(batch);
        out!(text, "{batch:>8} {e:>10.1}");
        paper_model.push(json!({"batch": batch, "epochs": e}));
    }
    let (at_4k, at_16k) = (m.epochs(4096), m.epochs(16384));
    let increase = 100.0 * (at_16k / at_4k - 1.0);
    out!(text, "4K -> 16K computation increase: {increase:.0}%  (paper: ~30%)\n");

    // Part 2: empirical mini-study with linear LR scaling.
    out!(text, "empirical ResNetMini sweep (linear LR scaling rule, 3 seeds):");
    out!(text, "{:>8} {:>14} {:>12}", "batch", "epochs/seed", "mean");
    let (mut empirical, mut means) = (Vec::new(), Vec::new());
    for batch in [16usize, 32, 64, 128, 256] {
        let mut per_seed = Vec::new();
        for seed in [5u64, 6, 7] {
            let mut bench = resnet_at(batch, SuiteVersion::V05);
            per_seed.push(run_benchmark(bench.as_mut(), seed, &RealClock::new()).epochs);
        }
        let mean = per_seed.iter().sum::<usize>() as f64 / per_seed.len() as f64;
        out!(text, "{batch:>8} {:>14} {mean:>12.1}", format!("{per_seed:?}"));
        empirical.push(json!({"batch": batch, "epochs_per_seed": per_seed, "mean_epochs": mean}));
        means.push(mean);
    }
    out!(text, "\nsmallest -> largest batch epoch inflation: {:.2}x", means[4] / means[0]);
    let result = json!({"paper_model": paper_model, "empirical": empirical});
    Report::new(&result, text, claims(at_4k, at_16k, &means))
}
