//! **Figure 5** — growth in the number of chips used by the system
//! producing the fastest overall score, v0.5 → v0.6. The paper reports
//! an average increase of ~5.5×, enabled by rule changes (LARS for
//! large-batch ResNet), maturing software stacks, and larger fielded
//! systems.
//!
//! Reproduced on the `distsim` simulator by sweeping every vendor's
//! feasible power-of-two scales in each round and taking the fastest.

use crate::{mean, Claim, Context, Report};
use mlperf_distsim::{best_overall, Round, SimBenchmark, Vendor};
use serde_json::json;

/// `growth` is v0.6 chips over v0.5 chips, `time_ratio` v0.6 minutes
/// over v0.5 minutes, one of each per benchmark.
pub(crate) fn claims(growth: &[f64], time_ratio: &[f64]) -> Vec<Claim> {
    vec![
        Claim::new(
            "every benchmark's fastest entry uses more chips in v0.6",
            growth.iter().all(|&g| g > 1.0),
        ),
        Claim::new("every benchmark's best time improves", time_ratio.iter().all(|&r| r < 1.0)),
    ]
}

/// Sweeps every vendor's feasible scales in both rounds.
pub fn run(_ctx: &Context) -> Report {
    let (seed, vendors) = (2u64, Vendor::fleet());
    let mut text = String::from("Figure 5: chips in the fastest overall entry, v0.5 -> v0.6\n\n");
    out!(text, "benchmark        v0.5 chips v0.6 chips   growth   v0.5 (min)  v0.6 (min)");
    let (mut rows, mut growths, mut time_ratios) = (Vec::new(), Vec::new(), Vec::new());
    for bench in SimBenchmark::round_comparison_suite() {
        let v05 = best_overall(&vendors, Round::V05, &bench, seed).expect("v0.5 entry");
        let v06 = best_overall(&vendors, Round::V06, &bench, seed).expect("v0.6 entry");
        let growth = v06.chips as f64 / v05.chips as f64;
        let (name, chips, minutes) =
            (&bench.name, [v05.chips, v06.chips], [v05.minutes, v06.minutes]);
        out!(
            text,
            "{name:<16} {:>10} {:>10} {growth:>7.1}x  {:>11.1} {:>11.1}",
            chips[0],
            chips[1],
            minutes[0],
            minutes[1]
        );
        rows.push(json!({
            "benchmark": bench.name,
            "v05_chips": v05.chips,
            "v06_chips": v06.chips,
            "v05_minutes": v05.minutes,
            "v06_minutes": v06.minutes,
            "v05_batch": v05.batch,
            "v06_batch": v06.batch,
            "growth": growth,
        }));
        growths.push(growth);
        time_ratios.push(v06.minutes / v05.minutes);
    }
    out!(text, "\naverage scale growth: {:.1}x  (paper: ~5.5x)", mean(&growths));
    Report::new(&rows, text, claims(&growths, &time_ratios))
}
