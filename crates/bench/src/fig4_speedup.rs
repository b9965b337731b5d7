//! **Figure 4** — speedup of the fastest 16-chip entry from round v0.5
//! to v0.6, per benchmark, despite the raised quality targets. The
//! paper reports an average of ~1.3×.
//!
//! Reproduced on the `distsim` submission simulator: three vendors,
//! both rounds, 16-chip systems; the v0.6 gains come from software
//! maturation (efficiency + communication overlap) and rule changes,
//! partly offset by the higher targets.

use crate::{mean, Claim, Context, Report};
use mlperf_distsim::{best_time_at_scale, Round, SimBenchmark, Vendor};
use serde_json::json;

pub(crate) fn claims(speedups: &[f64]) -> Vec<Claim> {
    vec![
        Claim::new("every benchmark's speedup >= 1x", speedups.iter().all(|&s| s >= 1.0)),
        Claim::new("the mean speedup lies in [1.2, 1.8]", (1.2..=1.8).contains(&mean(speedups))),
    ]
}

/// Simulates both rounds at 16 chips.
pub fn run(_ctx: &Context) -> Report {
    let (chips, seed, vendors) = (16usize, 1u64, Vendor::fleet());
    let mut text = format!("Figure 4: speedup of the fastest {chips}-chip entry, v0.5 -> v0.6\n\n");
    out!(text, "benchmark          v0.5 (min)   v0.6 (min)   speedup   (v0.5 / v0.6 vendor)");
    let (mut rows, mut speedups) = (Vec::new(), Vec::new());
    for bench in SimBenchmark::round_comparison_suite() {
        let v05 = best_time_at_scale(&vendors, Round::V05, &bench, chips, seed)
            .expect("16-chip v0.5 entry feasible");
        let v06 = best_time_at_scale(&vendors, Round::V06, &bench, chips, seed)
            .expect("16-chip v0.6 entry feasible");
        let (name, before, after, speedup) =
            (&bench.name, v05.minutes, v06.minutes, v05.minutes / v06.minutes);
        let vendors = format!("({} / {})", v05.vendor, v06.vendor);
        out!(text, "{name:<16} {before:>12.1} {after:>12.1} {speedup:>8.2}x   {vendors}");
        rows.push(json!({
            "benchmark": bench.name,
            "v05_minutes": v05.minutes,
            "v06_minutes": v06.minutes,
            "v05_vendor": v05.vendor,
            "v06_vendor": v06.vendor,
            "speedup": speedup,
        }));
        speedups.push(speedup);
    }
    let avg = mean(&speedups);
    out!(text, "\naverage speedup: {avg:.2}x  (paper: ~1.3x, with raised quality targets)");
    Report::new(&rows, text, claims(&speedups))
}
