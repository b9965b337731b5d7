//! **Table 1** — the MLPerf Training benchmark suite.
//!
//! Prints the suite definition (area, dataset, model, quality
//! threshold) and, for each row, trains the miniaturized reference
//! implementation at the pinned run seed, reporting epochs and
//! time-to-train. A run that misses its target inside the epoch budget
//! is a row, not a failure. `--full` runs each benchmark the
//! §3.2.2-required number of times (5 vision / 10 other, seeds counting
//! up from the pinned one) and aggregates where every run reached.

use crate::{mean, Claim, Context, Report};
use mlperf_core::aggregate::{aggregate_runs, RunSummary};
use mlperf_core::benchmarks::build;
use mlperf_core::harness::run_benchmark;
use mlperf_core::suite::{BenchmarkId, SuiteVersion};
use mlperf_core::timing::RealClock;
use serde_json::json;

/// The run seed the benchmark (`benchmark/src/train.rs`) and
/// `tests/golden_trajectory.rs` pin; Table 1 reports the same runs.
pub const RUN_SEED: u64 = 1001;

/// One `(area, runs required, reached at the pinned seed)` per v0.5
/// benchmark; the v0.7 additions are printed without a claim.
pub(crate) fn claims(v05: &[(&str, usize, bool)]) -> Vec<Claim> {
    vec![
        Claim::new(
            "every v0.5 benchmark reaches its threshold at the pinned seed",
            v05.iter().all(|&(_, _, reached)| reached),
        ),
        Claim::new(
            "vision rows need 5 runs, the rest 10",
            v05.iter().all(|&(area, runs, _)| runs == if area == "Vision" { 5 } else { 10 }),
        ),
    ]
}

/// Trains every benchmark of the suite and reports Table 1.
pub fn run(ctx: &Context) -> Report {
    let mut text =
        format!("MLPerf Training benchmark suite (Table 1), run seeds from {RUN_SEED}\n\n");
    // The suite definition's columns, then what the runs measured.
    let definition = |name: &str, area: &str, dataset: &str, model: &str, metric: &str| {
        format!("{name:<12} {area:<9} {dataset:<41} {model:<30} {metric:<20}")
    };
    let header = definition("benchmark", "area", "dataset", "model", "metric");
    out!(text, "{header} threshold  runs  reached  epochs");
    let mut host_text = String::from("benchmark       ttt (s)  §3.2.2 score\n");
    let (mut rows, mut v05) = (Vec::new(), Vec::new());
    for id in BenchmarkId::ALL {
        let spec = id.spec();
        let runs = if ctx.full { id.runs_required() } else { 1 };
        let (mut epochs, mut quality, mut reached, mut seconds) = (vec![], vec![], vec![], vec![]);
        let (mut summaries, mut misses) = (Vec::new(), String::new());
        for seed in (RUN_SEED..).take(runs) {
            let result = run_benchmark(build(id).as_mut(), seed, &RealClock::new());
            if !result.reached_target {
                let (q, e) = (result.quality, result.epochs);
                out!(misses, "{:<12} seed {seed}: missed: {q:.3} after {e} epochs", "");
            }
            let ttt = result.time_to_train.as_secs_f64();
            epochs.push(result.epochs);
            quality.push(result.quality);
            reached.push(result.reached_target);
            seconds.push(ttt);
            summaries.push(RunSummary { seconds: ttt, reached_target: result.reached_target });
        }
        // Only a full, all-reached run set has a score (§3.2.2).
        let aggregated_seconds = aggregate_runs(id, &summaries).ok();
        let (slug, required, threshold) = (id.slug(), id.runs_required(), spec.quality.value);
        let row = definition(slug, spec.area, spec.dataset, spec.model, spec.quality.metric);
        let reached_of = format!("{}/{runs}", reached.iter().filter(|&&r| r).count());
        let mean_epochs = epochs.iter().sum::<usize>() as f64 / runs as f64;
        out!(text, "{row} {threshold:>9.3} {required:>5} {reached_of:>8} {mean_epochs:>7.1}");
        text.push_str(&misses);
        let score = aggregated_seconds.map_or("-".to_string(), |s| format!("{s:.2}"));
        out!(host_text, "{slug:<12} {:>10.2} {score:>13}", mean(&seconds));
        if id.quality_for(SuiteVersion::V05).is_some() {
            v05.push((spec.area, required, reached[0]));
        }
        rows.push(json!({
            "benchmark": slug,
            "area": spec.area,
            "dataset": spec.dataset,
            "model": spec.model,
            "metric": spec.quality.metric,
            "threshold": threshold,
            "runs_required": required,
            "epochs": epochs,
            "quality": quality,
            "reached": reached,
            "seconds": seconds,
            "aggregated_seconds": aggregated_seconds,
        }));
    }
    Report { host_text, ..Report::new(&rows, text, claims(&v05)) }
}
