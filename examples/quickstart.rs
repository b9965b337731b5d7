//! Quickstart: time one benchmark to its quality target.
//!
//! Runs the recommendation benchmark (the fastest in the suite) through
//! the time-to-train harness, then prints the result and the first
//! lines of the structured submission log.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mlperf_suite::core::benchmarks::build;
use mlperf_suite::core::compliance::check_log;
use mlperf_suite::core::harness::run_benchmark;
use mlperf_suite::core::suite::BenchmarkId;
use mlperf_suite::core::timing::RealClock;

fn main() {
    let mut benchmark = build(BenchmarkId::Recommendation);
    let clock = RealClock::new();
    let seed = 42;

    println!("running the NCF (recommendation) benchmark, seed {seed}…\n");
    let result = run_benchmark(benchmark.as_mut(), seed, &clock);

    println!("benchmark:      {}", result.benchmark);
    println!("quality target: {}", result.benchmark.spec().quality.value);
    println!("reached:        {}", result.reached_target);
    println!("final quality:  {:.4} (HR@10)", result.quality);
    println!("epochs:         {}", result.epochs);
    println!("time to train:  {:.3}s", result.time_to_train.as_secs_f64());
    println!("excluded time:  {:.3}s (data prep + model creation)", result.excluded.as_secs_f64());

    let issues = check_log(result.log.entries());
    println!("\ncompliance check: {}", if issues.is_empty() { "PASS" } else { "FAIL" });
    for issue in &issues {
        println!("  issue: {issue}");
    }

    println!("\nfirst lines of the submission log:");
    for line in result.log.render().lines().take(6) {
        println!("  {line}");
    }
}
