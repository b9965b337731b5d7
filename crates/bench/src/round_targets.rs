//! **§6 / Figure 4 context** — what raising the quality targets costs.
//!
//! Figure 4 reports that v0.6 entries got faster "despite the higher
//! quality targets". This harness measures the other side of that
//! trade on the *real* miniaturized benchmarks: training the same
//! workload to the v0.5 threshold and then to the raised v0.6
//! threshold, and reporting the epoch inflation the raised target
//! alone causes.

use crate::{Claim, Context, Report};
use mlperf_core::benchmarks::{ResNetBenchmark, SsdBenchmark};
use mlperf_core::harness::{run_benchmark_set_with, Benchmark};
use mlperf_core::suite::SuiteVersion;
use serde_json::{json, Value};

/// One benchmark trained to one round's target, as JSON, with its
/// epochs per seed.
fn measure(
    name: &str,
    make: impl Fn() -> Box<dyn Benchmark> + Sync,
    version: SuiteVersion,
    ctx: &Context,
    text: &mut String,
) -> (Value, Vec<usize>) {
    let target = make().target();
    let results = run_benchmark_set_with(make, &[3, 4, 5], ctx.telemetry);
    let epochs: Vec<usize> = results.iter().map(|r| r.epochs).collect();
    let reached: Vec<bool> = results.iter().map(|r| r.reached_target).collect();
    let mean_epochs = epochs.iter().sum::<usize>() as f64 / epochs.len() as f64;
    out!(
        text,
        "{name:<8} {version}  target {target:>6.3}  epochs {epochs:?}  mean {mean_epochs:.1}  all-reached {}",
        reached.iter().all(|&r| r)
    );
    let result = json!({
        "benchmark": name,
        "version": version.to_string(),
        "target": target,
        "epochs_per_seed": epochs,
        "reached": reached,
        "mean_epochs": mean_epochs,
    });
    (result, epochs)
}

/// Per benchmark, epochs per seed to the v0.5 target and to the v0.6
/// target, seeds in the same order.
pub(crate) fn claims(pairs: &[(&[usize], &[usize])]) -> Vec<Claim> {
    vec![Claim::new(
        "the raised target never costs fewer epochs, at any seed",
        pairs.iter().all(|(v05, v06)| v05.iter().zip(*v06).all(|(before, after)| after >= before)),
    )]
}

/// Trains ResNet and SSD to both rounds' targets at three seeds.
pub fn run(ctx: &Context) -> Report {
    let mut text = String::from(
        "Raised-quality-target study: the same workloads to v0.5 vs v0.6 thresholds\n\n",
    );
    let mut rows = Vec::new();
    for version in [SuiteVersion::V05, SuiteVersion::V06] {
        let resnet =
            || -> Box<dyn Benchmark> { Box::new(ResNetBenchmark::new().with_version(version)) };
        let ssd = || -> Box<dyn Benchmark> { Box::new(SsdBenchmark::new().with_version(version)) };
        rows.push(measure("resnet", resnet, version, ctx, &mut text));
        rows.push(measure("ssd", ssd, version, ctx, &mut text));
    }
    // rows: resnet v0.5, ssd v0.5, resnet v0.6, ssd v0.6.
    let (rows, epochs): (Vec<Value>, Vec<Vec<usize>>) = rows.into_iter().unzip();
    let pairs = [(&epochs[0][..], &epochs[2][..]), (&epochs[1][..], &epochs[3][..])];
    for (name, (v05, v06)) in ["resnet", "ssd"].into_iter().zip(pairs) {
        let mean = |epochs: &[usize]| epochs.iter().sum::<usize>() as f64 / epochs.len() as f64;
        let (before, after) = (mean(v05), mean(v06));
        let ratio = after / before;
        out!(
            text,
            "\n{name}: raised target costs {ratio:.2}x the epochs ({before:.1} -> {after:.1})"
        );
    }
    Report::new(&rows, text, claims(&pairs))
}
