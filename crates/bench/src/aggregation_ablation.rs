//! **Ablation** — the drop-min/max ("olympic") aggregation of §3.2.2
//! versus plain mean and median.
//!
//! DESIGN.md calls this design choice out for ablation: the olympic
//! mean buys robustness to stragglers/outliers that the plain mean
//! lacks, while keeping more sample efficiency than the median. This
//! harness measures all three estimators' stability and outlier
//! sensitivity over a real empirical time-to-train distribution.

use crate::{mean, std_dev, Claim, Context, Report};
use mlperf_core::aggregate::olympic_mean;
use mlperf_core::benchmarks::NcfBenchmark;
use mlperf_core::harness::run_benchmark;
use mlperf_core::timing::RealClock;
use mlperf_tensor::TensorRng;
use serde_json::json;

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Each estimator's mean relative shift under an injected straggler.
pub(crate) fn claims(olympic_shift: f64, mean_shift: f64) -> Vec<Claim> {
    vec![Claim::new(
        "shift(olympic) < shift(mean) under a 10x straggler",
        olympic_shift < mean_shift,
    )]
}

/// Times 24 NCF runs and bootstraps the three estimators over them.
pub fn run(_ctx: &Context) -> Report {
    let (seeds, draws) = (24u64, 500);
    let text = format!(
        "Aggregation ablation: olympic mean vs plain mean vs median\n\n\
         {seeds} NCF time-to-train runs, {draws} bootstrap draws of 5 runs each,\n\
         then a 10x straggler injected into every draw\n"
    );
    let times: Vec<f64> = (0..seeds)
        .map(|seed| {
            let mut bench = NcfBenchmark::new();
            run_benchmark(&mut bench, seed, &RealClock::new()).time_to_train.as_secs_f64()
        })
        .collect();
    let mut host_text = format!("empirical cv: {:.1}%\n\n", 100.0 * std_dev(&times) / mean(&times));

    type Estimator = fn(&[f64]) -> f64;
    let estimators = [("olympic", olympic_mean as Estimator), ("mean", mean), ("median", median)];
    // Bootstrap 5-run results; then inject a 10x straggler into each
    // draw and measure the estimator shift.
    let mut rng = TensorRng::new(0x1234_5678);
    let draws: Vec<Vec<f64>> =
        (0..draws).map(|_| (0..5).map(|_| times[rng.index(times.len())]).collect()).collect();
    out!(host_text, "estimator   spread (cv of result)    10x-straggler shift");
    let (mut rows, mut shifts) = (Vec::new(), Vec::new());
    for (name, est) in estimators {
        let clean: Vec<f64> = draws.iter().map(|d| est(d)).collect();
        let spread = std_dev(&clean) / mean(&clean);
        let shifted: Vec<f64> = draws
            .iter()
            .map(|d| {
                let mut with_outlier = d.clone();
                with_outlier[0] *= 10.0;
                (est(&with_outlier) - est(d)).abs() / est(d)
            })
            .collect();
        let shift = mean(&shifted);
        out!(host_text, "{name:<10} {:>21.1}% {:>21.1}%", 100.0 * spread, 100.0 * shift);
        rows.push(json!({"estimator": name, "spread_clean": spread, "outlier_shift": shift}));
        shifts.push(shift);
    }
    Report { host_text, ..Report::new(&rows, text, claims(shifts[0], shifts[1])) }
}
