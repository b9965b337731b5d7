//! Calibration helper: runs one benchmark (first argument, a slug or
//! `all`) at one seed (second argument, default 42) and prints the
//! quality curve per epoch. Not part of the published experiment set;
//! used to tune the miniaturized workloads so every Table 1 threshold
//! is reachable.

use crate::{Context, Report};
use mlperf_core::benchmarks::build;
use mlperf_core::harness::run_benchmark;
use mlperf_core::suite::BenchmarkId;
use mlperf_core::timing::RealClock;
use serde_json::Value;

/// Trains the named benchmark (or all of them) once.
pub fn run(ctx: &Context) -> Report {
    let which = ctx.args.first().map_or("all", String::as_str);
    let seed: u64 = ctx.args.get(1).and_then(|s| s.parse().ok()).unwrap_or(42);
    let (mut text, mut host_text) = (String::new(), String::new());
    for id in BenchmarkId::ALL.into_iter().filter(|id| which == "all" || id.slug() == which) {
        let mut bench = build(id);
        let result = run_benchmark(bench.as_mut(), seed, &RealClock::new());
        let (slug, target) = (id.slug(), bench.target());
        let (reached, epochs, quality) = (result.reached_target, result.epochs, result.quality);
        out!(
            text,
            "{slug:<12} seed {seed} target {target:>7.3} reached={reached} epochs={epochs} quality={quality:.4}"
        );
        let curve: Vec<String> = result.quality_history.iter().map(|q| format!("{q:.3}")).collect();
        out!(text, "  curve: {}", curve.join(" "));
        out!(host_text, "{slug:<12} ttt={:.2}s", result.time_to_train.as_secs_f64());
    }
    Report { host_text, ..Report::new(&Value::Null, text, Vec::new()) }
}
