//! **Figure 3** — top-1 accuracy of the ResNet benchmark over epochs
//! for 5 runs with identical hyperparameters other than the seed,
//! against the 74.9% quality-target line.
//!
//! The paper uses this figure to justify choosing *high* quality
//! thresholds: "the early phase of training is marked by significantly
//! more variability", so a low threshold would amplify run-to-run
//! timing noise.

use crate::{render_series, std_dev, Claim, Context, Report};
use mlperf_core::benchmarks::build;
use mlperf_core::suite::BenchmarkId;
use serde_json::json;

/// `best` is each seed's highest accuracy over the run.
pub(crate) fn claims(early_std: f64, late_std: f64, best: &[f64], target: f64) -> Vec<Claim> {
    vec![
        Claim::new(
            "across-seed std at epoch 2 > across-seed std at the last epoch",
            early_std > late_std,
        ),
        Claim::new("every seed crosses the target line", best.iter().all(|&b| b >= target)),
    ]
}

/// Trains ResNet at five seeds for `count` epochs (default 12).
pub fn run(ctx: &Context) -> Report {
    let epochs = ctx.count(12).max(2);
    let target = BenchmarkId::ImageClassification.spec().quality.value;
    let mut text =
        format!("Figure 3: ResNet top-1 accuracy over epochs, 5 seeds (target {target})\n\n");
    let mut curves = Vec::new();
    for seed in [11u64, 22, 33, 44, 55] {
        // Drive the benchmark manually so training continues past the
        // threshold (the figure shows full curves, not stopped runs).
        let mut bench = build(BenchmarkId::ImageClassification);
        bench.prepare();
        bench.create_model(seed);
        let mut acc = Vec::with_capacity(epochs);
        for e in 0..epochs {
            bench.train_epoch(e);
            acc.push(bench.evaluate());
        }
        out!(text, "{}", render_series(&format!("seed {seed}"), &acc, 3));
        curves.push((seed, acc));
    }
    let at = |e: usize| -> Vec<f64> { curves.iter().map(|(_, acc)| acc[e]).collect() };
    let (early, late) = (std_dev(&at(1)), std_dev(&at(epochs - 1)));
    out!(text, "\ntarget line: {target}");
    out!(text, "across-seed std at epoch 2: {early:.4}; at epoch {epochs}: {late:.4}");
    out!(
        text,
        "early-phase variability is {:.1}x the late-phase variability",
        early / late.max(1e-9)
    );
    let best: Vec<f64> =
        curves.iter().map(|(_, acc)| acc.iter().cloned().fold(f64::MIN, f64::max)).collect();
    let curves: Vec<_> =
        curves.iter().map(|(seed, acc)| json!({"seed": seed, "accuracy": acc})).collect();
    let result = json!({
        "target": target,
        "curves": curves,
        "early_epoch_std": early,
        "late_epoch_std": late,
    });
    Report::new(&result, text, claims(early, late, &best, target))
}
